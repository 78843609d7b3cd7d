#!/usr/bin/env python
"""The distributed campaign scheduler, end to end.

Plan → dispatch → collect
-------------------------

PR 2's exchange protocol (digest-keyed shard JSONLs, resume prefixes, the
shared cache) made campaigns *distributable*; the scheduler
(:mod:`repro.core.scheduler`) adds the missing orchestration:

1. **plan** — :class:`CampaignPlan` cuts one campaign into digest-keyed
   :class:`ShardJob`\\ s (contiguous ``ShardSpec`` slices, so every
   machine computes the same partition);
2. **dispatch** — a registered :class:`WorkerBackend` executes the jobs.
   The ``subprocess`` backend used here spawns real ``repro worker``
   processes, each consuming a shard-spec JSON file and emitting the
   shard JSONL + ``.digest`` sidecar — the same protocol an SSH or
   container fleet speaks;
3. **collect** — the shard files are validated under the ``repro merge``
   invariants plus the plan identity, concatenated byte-identically to a
   serial run, and written through the shared cache, so a repeat
   dispatch executes zero episodes and the incremental report pipeline
   picks the campaign up for free.

The command-line equivalent of this script::

    repro dispatch --fault relative_distance --reps 2 --driver \\
        --backend subprocess --workers 2 --workdir fleet \\
        --cache-dir cache -o campaign.jsonl

Run:
    python examples/distributed_fleet.py
"""

import os
import sys
import tempfile

from repro import (
    CampaignCache,
    CampaignSpec,
    FaultType,
    InterventionConfig,
    dispatch_campaign,
    registered_backends,
    run_campaign,
)
from repro.core.scheduler import CampaignPlan, SubprocessFleetBackend


def main() -> int:
    # Reduced grid: one fault type, one gap, 2 repetitions -> 12 episodes.
    spec = CampaignSpec(
        fault_types=[FaultType.RELATIVE_DISTANCE],
        initial_gaps=(60.0,),
        repetitions=2,
        seed=2025,
    )
    cfg = InterventionConfig(driver=True)
    print(f"registered worker backends: {', '.join(registered_backends())}")

    # Spawned workers must import this checkout, exactly like a fleet
    # machine needs the package on its path.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    os.environ["PYTHONPATH"] = (
        src + os.pathsep + os.environ.get("PYTHONPATH", "")
    )

    serial = run_campaign(spec, cfg, cache=False, max_steps=1500)

    with tempfile.TemporaryDirectory() as root:
        workdir = os.path.join(root, "fleet")
        cache = CampaignCache(os.path.join(root, "cache"))

        plan = CampaignPlan.build(spec, cfg, shards=2, max_steps=1500)
        print(f"plan: {plan.total} episodes over {len(plan.jobs)} shards")
        for job in plan.jobs:
            print(f"  shard {job.shard}: {job.total} episodes, "
                  f"digest {job.digest()[:16]}…")

        fleet = dispatch_campaign(
            spec,
            cfg,
            backend=SubprocessFleetBackend(workers=2),
            workdir=workdir,
            cache=cache,
            log=lambda line: print(f"  {line}"),
            max_steps=1500,
        )
        assert fleet.results == serial.results  # bit-identical, always
        print(f"fleet run matches serial byte-for-byte "
              f"({len(fleet.results)} episodes)")
        shard_files = sorted(
            name for name in sorted(os.listdir(workdir)) if name.endswith(".jsonl")
        )
        print(f"workdir shard files: {', '.join(shard_files)}")

        # A repeat dispatch is a full-campaign cache hit: zero episodes,
        # zero workers.
        again = dispatch_campaign(
            spec,
            cfg,
            backend=SubprocessFleetBackend(workers=2),
            workdir=workdir,
            cache=cache,
            log=lambda line: print(f"  {line}"),
            max_steps=1500,
        )
        assert again.results == serial.results
        print("warm repeat dispatch served from cache")
    return 0


if __name__ == "__main__":
    sys.exit(main())
