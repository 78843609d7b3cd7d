"""The three benchmark workloads, driven through the program's public API.

Each workload is a ``setup`` (everything before the first simulated step,
including importing the program modules its ``run`` uses) and a ``run``
(the timed section) that returns an :class:`Output`: the
SHA-256 of everything the run wrote, one hash per output unit so that
mismatches can be counted, and the lane-steps simulated.  ``run`` takes
the executor name, so the same function produces the serial oracle and
the batch measurement.  See ``README.md`` for why each workload exists.

Every input is derived from the ``seed`` argument: the report's campaign
seed, the campaign seeds, and the ML baseline's training traces and
initialisation.
"""

from __future__ import annotations

import hashlib
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

#: Paper artifacts ``report-narrow`` keeps from the report DAG: the
#: 12-lane fault-free arm (Tables IV and V share it) and the seven traced
#: Fig. 5/6 episodes.  Smoke size keeps only the traced Fig. 6 episode.
REPORT_ARTIFACTS = ("table4", "table5", "fig5", "fig6")
REPORT_ARTIFACTS_SMOKE = ("fig6",)

#: ``campaign-wide``: 3 attack types x 6 scenarios x 6 repetitions at
#: the 60 m gap = 108 lanes, each running to the step cap.
WIDE_REPETITIONS = 6
WIDE_STEPS = 2000

#: ``campaign-ml``: the RD attack over S1-S6 x both gaps = 12 lanes.
ML_STEPS = 400

#: Smoke sizes for the self-test: a few lanes, a few dozen steps (enough
#: for the ML window of 20 to fill and the LSTM to run).
SMOKE_WIDE_REPETITIONS = 1
SMOKE_STEPS = 40


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Output:
    """What one run of a workload produced.

    Attributes:
        digest: SHA-256 over every output byte, in order.
        units: one SHA-256 per checked output unit (the report document,
            then each episode's JSONL line).
        lane_steps: total ``EpisodeResult.steps`` over campaign episodes.
        wall_s: seconds spent in the public entry point.
    """

    digest: str
    units: List[str]
    lane_steps: int
    wall_s: float

    def as_dict(self) -> dict:
        return {
            "digest": self.digest,
            "units": self.units,
            "lane_steps": self.lane_steps,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Output":
        return cls(data["digest"], list(data["units"]), data["lane_steps"], data["wall_s"])


def _jsonl_output(jsonl: bytes, lane_steps: int, wall_s: float, head: bytes = b"") -> Output:
    units = [_sha(line) for line in jsonl.splitlines()]
    if head:
        units.insert(0, _sha(head))
    return Output(_sha(head + jsonl), units, lane_steps, wall_s)


def _steps(jsonl_path: str) -> int:
    from repro.core.metrics import load_results

    return sum(r.steps for r in load_results(jsonl_path, strict=True))


@dataclass
class Context:
    """A set-up workload: its seed and the inputs built from it."""

    seed: int
    smoke: bool
    inputs: Dict[str, object] = field(default_factory=dict)


class Workload:
    """One workload: ``setup`` once, then ``run`` per measurement."""

    name = ""

    def setup(self, seed: int, smoke: bool) -> Context:
        raise NotImplementedError

    def describe_inputs(self, ctx: Context) -> str:
        """Canonical text of the generated inputs (seed self-test)."""
        raise NotImplementedError

    def run(self, ctx: Context, executor: str, workdir: str, tracer=None) -> Output:
        raise NotImplementedError


class ReportNarrow(Workload):
    """The report DAG cut to Tables IV, V and Figs. 5, 6, in blocking mode."""

    name = "report-narrow"

    def _engine(self, ctx: Context, executor: str, cache_dir: Optional[str]):
        from repro.analysis.incremental import IncrementalReportEngine
        from repro.analysis.report import ReportConfig, build_report_artifacts

        config = ReportConfig(
            repetitions=1,
            seed=ctx.seed,
            reaction_times=(2.5,),
            executor=executor,
            jobs=1,
            cache_dir=cache_dir,
        )
        keep = REPORT_ARTIFACTS_SMOKE if ctx.smoke else REPORT_ARTIFACTS
        artifacts = [a for a in build_report_artifacts(config) if a.artifact_id in keep]
        return IncrementalReportEngine(config, artifacts=artifacts)

    @staticmethod
    def _arms(engine) -> list:
        return list({arm.name: arm for a in engine.artifacts for arm in a.arms}.values())

    def setup(self, seed: int, smoke: bool) -> Context:
        import repro.core.cache  # noqa: F401  (used by run)
        import repro.core.metrics  # noqa: F401

        ctx = Context(seed, smoke)
        self._engine(ctx, "batch", None)
        return ctx

    def describe_inputs(self, ctx: Context) -> str:
        from repro.attacks.campaign import as_episode_list

        engine = self._engine(ctx, "batch", None)
        parts = [f"seed={ctx.seed}"]
        for arm in self._arms(engine):
            parts.append(arm.name)
            parts.extend(spec.label() + f"#{spec.seed}" for spec in as_episode_list(arm.campaign))
        return "\n".join(parts)

    def run(self, ctx: Context, executor: str, workdir: str, tracer=None) -> Output:
        from repro.core.cache import CampaignCache, campaign_digest

        # A fresh cache per run: every arm is a miss and a cache write.
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        engine = self._engine(ctx, executor, cache_dir)
        with tracer if tracer is not None else nullcontext():
            t0 = perf_counter()
            outcome = engine.run(incremental=False)
            wall_s = perf_counter() - t0
        cache = CampaignCache(cache_dir)
        jsonl = b""
        lane_steps = 0
        for arm in self._arms(engine):
            path = cache.path(campaign_digest(arm.campaign, arm.interventions, ml_token=arm.ml_token))
            with open(path, "rb") as handle:
                jsonl += handle.read()
            lane_steps += _steps(path)
        return _jsonl_output(jsonl, lane_steps, wall_s, head=outcome.text.encode("utf-8"))


class _CampaignWorkload(Workload):
    """One ``run_campaign`` call; the output is the campaign JSONL."""

    def setup(self, seed: int, smoke: bool) -> Context:
        import repro.core.experiment  # noqa: F401  (used by run)

        return Context(seed, smoke)

    def _campaign(self, ctx: Context):
        raise NotImplementedError

    def describe_inputs(self, ctx: Context) -> str:
        from repro.attacks.campaign import as_episode_list

        spec, interventions, steps, factory = self._campaign(ctx)
        token = getattr(factory, "digest_token", None)
        lines = [f"{interventions.label()} steps={steps} ml={token}"]
        lines.extend(s.label() + f"#{s.seed}" for s in as_episode_list(spec))
        return "\n".join(lines)

    def run(self, ctx: Context, executor: str, workdir: str, tracer=None) -> Output:
        from repro.core.experiment import run_campaign

        spec, interventions, steps, factory = self._campaign(ctx)
        with tracer if tracer is not None else nullcontext():
            t0 = perf_counter()
            result = run_campaign(
                spec,
                interventions,
                ml_factory=factory,
                executor=executor,
                jobs=1,
                cache=False,
                max_steps=steps,
            )
            wall_s = perf_counter() - t0
        handle = tempfile.NamedTemporaryFile(suffix=".jsonl", dir=workdir, delete=False)
        handle.close()
        result.save(handle.name)
        with open(handle.name, "rb") as data:
            jsonl = data.read()
        return _jsonl_output(jsonl, sum(r.steps for r in result.results), wall_s)


class CampaignWide(_CampaignWorkload):
    """108 uniform lanes under driver + safety check + independent AEB."""

    name = "campaign-wide"

    def setup(self, seed: int, smoke: bool) -> Context:
        from repro.attacks.campaign import ATTACK_FAULT_TYPES, CampaignSpec
        from repro.safety.aebs import AebsConfig
        from repro.safety.arbitration import InterventionConfig

        ctx = super().setup(seed, smoke)
        ctx.inputs["spec"] = CampaignSpec(
            fault_types=ATTACK_FAULT_TYPES,
            initial_gaps=(60.0,),
            repetitions=SMOKE_WIDE_REPETITIONS if smoke else WIDE_REPETITIONS,
            seed=seed,
        )
        ctx.inputs["interventions"] = InterventionConfig(
            driver=True, safety_check=True, aeb=AebsConfig.INDEPENDENT
        )
        return ctx

    def _campaign(self, ctx: Context):
        steps = SMOKE_STEPS if ctx.smoke else WIDE_STEPS
        return ctx.inputs["spec"], ctx.inputs["interventions"], steps, None


class CampaignMl(_CampaignWorkload):
    """12 RD-attack lanes with the ML mitigation (Algorithm 1) engaged."""

    name = "campaign-ml"

    def setup(self, seed: int, smoke: bool) -> Context:
        from repro.attacks.campaign import CampaignSpec
        from repro.attacks.fi import FaultType
        from repro.ml.dataset import TraceDataset, collect_fault_free_traces
        from repro.ml.mitigation import MitigationFactory
        from repro.ml.trainer import TrainerConfig, train_baseline
        from repro.safety.aebs import AebsConfig
        from repro.safety.arbitration import InterventionConfig

        ctx = super().setup(seed, smoke)
        # A small real baseline from seeded fault-free traces; the paper's
        # 128-64 network costs ~15% more per step but ~57 s to train.
        traces = collect_fault_free_traces(
            scenario_ids=("S1",), initial_gaps=(60.0,), seeds=(seed,), max_steps=2500
        )
        config = TrainerConfig(hidden_sizes=(8, 6), epochs=3, batch_size=32, stride=20, seed=seed)
        baseline = train_baseline(config, dataset=TraceDataset(traces, stride=config.stride))
        ctx.inputs["factory"] = MitigationFactory(baseline)
        ctx.inputs["spec"] = CampaignSpec(
            fault_types=(FaultType.RELATIVE_DISTANCE,), repetitions=1, seed=seed
        )
        ctx.inputs["interventions"] = InterventionConfig(
            ml=True, driver=True, aeb=AebsConfig.INDEPENDENT
        )
        return ctx

    def _campaign(self, ctx: Context):
        steps = SMOKE_STEPS if ctx.smoke else ML_STEPS
        return ctx.inputs["spec"], ctx.inputs["interventions"], steps, ctx.inputs["factory"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ReportNarrow(), CampaignWide(), CampaignMl())
}
