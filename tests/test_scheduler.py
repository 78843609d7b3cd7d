"""Distributed scheduler tests: plan → dispatch → collect.

Covers the plan decomposition (ShardSpec partitioning, digest identity
including the golden-digest pins for the scheduler path), the worker
backend registry, the three shipped backends (in-process bit-compat with
``run_campaign``, a real subprocess fleet including crash recovery, the
ssh command-template stub), the worker spec-file protocol, and the
collect-phase validation (merge invariants + plan identity + cache
write-through).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.attacks.campaign import CampaignSpec, ShardSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.core.cache import (
    CampaignCache,
    campaign_digest,
    read_digest_sidecar,
    write_digest_sidecar,
)
from repro.core.experiment import run_campaign
from repro.core.metrics import count_records, load_results, save_results
from repro.core.scheduler import (
    CampaignPlan,
    InProcessBackend,
    SSHBackend,
    SchedulerError,
    SubprocessFleetBackend,
    UnknownBackendError,
    WorkerBackend,
    collect_shards,
    dispatch_campaign,
    get_backend,
    load_job_spec,
    make_backend,
    register_backend,
    registered_backends,
    shard_complete,
    shard_path,
    unregister_backend,
    write_job_spec,
)
from repro.safety.arbitration import InterventionConfig
from tests.test_scenario_families import (
    GOLDEN_ATTACK_GRID,
    GOLDEN_FAULT_FREE_GRID,
)

#: A grid small enough for subprocess tests, big enough to shard meaningfully.
SMALL_SPEC = CampaignSpec(
    fault_types=[FaultType.RELATIVE_DISTANCE],
    scenario_ids=("S1", "S2"),
    initial_gaps=(60.0,),
    repetitions=2,
    seed=7,
)
CFG = InterventionConfig(driver=True)
MAX_STEPS = 300


def small_plan(shards=2, spec=SMALL_SPEC, cfg=CFG):
    return CampaignPlan.build(spec, cfg, shards=shards, max_steps=MAX_STEPS)


def serial_reference(spec=SMALL_SPEC, cfg=CFG):
    return run_campaign(spec, cfg, cache=False, max_steps=MAX_STEPS)


# --------------------------------------------------------------------- #
# Plan
# --------------------------------------------------------------------- #


class TestPlan:
    def test_partition_covers_enumeration_in_order(self):
        episodes = enumerate_campaign(SMALL_SPEC)
        for shards in (1, 2, 3, 4, len(episodes)):
            plan = small_plan(shards)
            rebuilt = [e for job in plan.jobs for e in job.episodes]
            assert rebuilt == episodes
            assert [j.shard for j in plan.jobs] == ShardSpec.partition(
                len(plan.jobs)
            )

    def test_shard_sizes_differ_by_at_most_one(self):
        plan = small_plan(3)
        sizes = [job.total for job in plan.jobs]
        assert max(sizes) - min(sizes) <= 1

    def test_shards_clamped_to_episode_count(self):
        plan = small_plan(shards=1000)
        assert len(plan.jobs) == plan.total
        assert all(job.total == 1 for job in plan.jobs)

    def test_empty_campaign_plans_one_empty_job(self):
        plan = CampaignPlan.build([], CFG, shards=4)
        assert len(plan.jobs) == 1
        assert plan.jobs[0].total == 0

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            small_plan(0)

    def test_ml_requires_factory(self):
        with pytest.raises(ValueError, match="requires ml_factory"):
            CampaignPlan.build(SMALL_SPEC, InterventionConfig(ml=True, name="ml"))

    def test_plan_digest_matches_campaign_digest(self):
        plan = small_plan(3)
        assert plan.digest() == campaign_digest(
            SMALL_SPEC, CFG, max_steps=MAX_STEPS
        )

    def test_single_shard_job_digest_equals_plan_digest(self):
        plan = small_plan(1)
        assert plan.jobs[0].digest() == plan.digest()

    def test_shard_job_digest_matches_cli_shard_digest(self):
        # The exact digest `repro campaign --shard I/N` records in its
        # sidecar for the same slice — one exchange protocol, one key.
        plan = small_plan(2)
        episodes = enumerate_campaign(SMALL_SPEC)
        for job in plan.jobs:
            expected = campaign_digest(
                job.shard.slice(episodes), CFG, max_steps=MAX_STEPS
            )
            assert job.digest() == expected

    def test_golden_grid_digests_via_scheduler(self):
        # The scheduler path must key the paper grids under the exact
        # digests pinned before it existed — otherwise dispatching would
        # silently invalidate every existing cache.
        cfg = InterventionConfig()
        attack = CampaignPlan.build(CampaignSpec(repetitions=10, seed=2025), cfg)
        assert attack.digest() == GOLDEN_ATTACK_GRID
        benign = CampaignPlan.build(
            CampaignSpec(fault_types=[FaultType.NONE], repetitions=10, seed=2025),
            cfg,
        )
        assert benign.digest() == GOLDEN_FAULT_FREE_GRID

    def test_shard_file_name_carries_position_and_digest(self):
        plan = small_plan(2)
        job = plan.jobs[1]
        assert job.file_name() == f"shard-2-of-2-{job.digest()[:16]}.jsonl"


# --------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"in-process", "subprocess", "ssh"} <= set(registered_backends())

    def test_unknown_backend_names_registered(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("slurm")
        message = str(excinfo.value)
        assert "slurm" in message
        assert "in-process" in message and "subprocess" in message

    def test_make_backend_drops_none_kwargs(self):
        backend = make_backend("subprocess", workers=3, jobs=None)
        assert isinstance(backend, SubprocessFleetBackend)
        assert backend.workers == 3
        assert backend.jobs is None

    def test_register_requires_name_and_rejects_duplicates(self):
        class Nameless(WorkerBackend):
            def run(self, plan, workdir, cache=None, progress=None, log=None):
                return []

        with pytest.raises(ValueError, match="non-empty 'name'"):
            register_backend(Nameless)

        class Custom(Nameless):
            name = "custom-test-backend"

        try:
            register_backend(Custom)
            with pytest.raises(ValueError, match="already registered"):
                register_backend(Custom)
            register_backend(Custom, replace=True)  # explicit override ok
            assert get_backend("custom-test-backend") is Custom
        finally:
            unregister_backend("custom-test-backend")
        assert "custom-test-backend" not in registered_backends()


# --------------------------------------------------------------------- #
# In-process dispatch
# --------------------------------------------------------------------- #


class TestInProcessDispatch:
    def test_bit_identical_to_run_campaign(self, tmp_path):
        serial = serial_reference()
        for shards in (1, 2, 3):
            dispatched = dispatch_campaign(
                SMALL_SPEC,
                CFG,
                backend="in-process",
                shards=shards,
                workdir=str(tmp_path / f"wd{shards}"),
                cache=False,
                max_steps=MAX_STEPS,
            )
            assert dispatched.results == serial.results
            assert dispatched.intervention == serial.intervention

    def test_shard_files_and_sidecars_written(self, tmp_path):
        workdir = str(tmp_path / "wd")
        plan = small_plan(2)
        dispatch_campaign(
            SMALL_SPEC,
            CFG,
            backend="in-process",
            shards=2,
            workdir=workdir,
            cache=False,
            max_steps=MAX_STEPS,
        )
        for job in plan.jobs:
            path = shard_path(job, workdir)
            assert os.path.exists(path)
            assert read_digest_sidecar(path) == job.digest()
            assert len(load_results(path, strict=True)) == job.total

    def test_temporary_workdir_is_cleaned_up(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        dispatch_campaign(
            SMALL_SPEC,
            CFG,
            backend="in-process",
            shards=2,
            cache=False,
            max_steps=MAX_STEPS,
        )
        leftovers = [n for n in sorted(os.listdir(tmp_path)) if "repro-dispatch" in n]
        assert leftovers == []

    def test_cache_write_through_and_warm_hit(self, tmp_path):
        cache = CampaignCache(str(tmp_path / "cache"))
        workdir = str(tmp_path / "wd")
        first = dispatch_campaign(
            SMALL_SPEC,
            CFG,
            backend="in-process",
            shards=2,
            workdir=workdir,
            cache=cache,
            max_steps=MAX_STEPS,
        )
        plan = small_plan(2)
        # Full-campaign and per-shard entries all land in the shared cache.
        assert plan.digest() in cache
        for job in plan.jobs:
            assert job.digest() in cache

        # Warm repeat: zero episodes execute — the shard files and every
        # cache entry keep their mtimes (only the miss path rewrites).
        watched = [shard_path(job, workdir) for job in plan.jobs]
        watched += [cache.path(key) for key in cache.keys()]
        before = {p: os.path.getmtime(p) for p in watched}
        time.sleep(0.05)
        again = dispatch_campaign(
            SMALL_SPEC,
            CFG,
            backend="in-process",
            shards=2,
            workdir=workdir,
            cache=cache,
            max_steps=MAX_STEPS,
        )
        assert again.results == first.results
        assert {p: os.path.getmtime(p) for p in watched} == before

    def test_progress_reaches_total(self, tmp_path):
        seen = []
        dispatch_campaign(
            SMALL_SPEC,
            CFG,
            backend="in-process",
            shards=2,
            workdir=str(tmp_path / "wd"),
            cache=False,
            progress=lambda done, total: seen.append((done, total)),
            max_steps=MAX_STEPS,
        )
        assert seen[-1] == (4, 4)
        dones = [d for d, _ in seen]
        assert dones == sorted(dones)

    def test_backend_instance_accepted(self, tmp_path):
        serial = serial_reference()
        dispatched = dispatch_campaign(
            SMALL_SPEC,
            CFG,
            backend=InProcessBackend(),
            shards=2,
            workdir=str(tmp_path / "wd"),
            cache=False,
            max_steps=MAX_STEPS,
        )
        assert dispatched.results == serial.results


# --------------------------------------------------------------------- #
# Worker spec files
# --------------------------------------------------------------------- #


class TestWorkerSpec:
    def test_round_trip(self, tmp_path):
        plan = small_plan(2)
        job = plan.jobs[0]
        spec_path = str(tmp_path / "job.spec.json")
        write_job_spec(job, spec_path, output=job.file_name(), cache_dir="/c")
        worker_job = load_job_spec(spec_path)
        assert worker_job.shard == job.shard
        assert tuple(worker_job.episodes) == job.episodes
        assert worker_job.interventions == job.interventions
        assert worker_job.platform_kwargs == {"max_steps": MAX_STEPS}
        assert worker_job.digest == job.digest()
        assert worker_job.cache_dir == "/c"
        # Relative outputs resolve against the spec file's directory.
        assert worker_job.output == str(tmp_path / job.file_name())

    def test_digest_mismatch_refused(self, tmp_path):
        plan = small_plan(1)
        job = plan.jobs[0]
        spec_path = str(tmp_path / "job.spec.json")
        write_job_spec(job, spec_path, output="out.jsonl")
        # Tamper the recorded digest: the worker's recomputation over the
        # (unchanged) episodes must now disagree and refuse the job.
        tampered = open(spec_path).read().replace(job.digest(), "0" * 64)
        with open(spec_path, "w") as handle:
            handle.write(tampered)
        with pytest.raises(ValueError, match="disagree on campaign identity"):
            load_job_spec(spec_path)

    def test_int_valued_spec_round_trips_with_matching_digest(self, tmp_path):
        # A spec built with int gaps (a library caller writing
        # initial_gaps=(60,)) digests differently from the float form by
        # design — but the worker's reconstruction must reproduce *that*
        # digest, not coerce to float and report bogus version skew.
        spec = CampaignSpec(
            fault_types=[FaultType.RELATIVE_DISTANCE],
            scenario_ids=("S1",),
            initial_gaps=(60,),  # int, not 60.0
            repetitions=1,
            seed=7,
        )
        plan = CampaignPlan.build(spec, CFG, max_steps=MAX_STEPS)
        job = plan.jobs[0]
        spec_path = str(tmp_path / "job.spec.json")
        write_job_spec(job, spec_path, output="out.jsonl")
        worker_job = load_job_spec(spec_path)  # must not raise
        assert worker_job.digest == job.digest()
        assert worker_job.episodes[0].initial_gap == 60

    def test_unknown_format_refused(self, tmp_path):
        spec_path = tmp_path / "job.spec.json"
        spec_path.write_text('{"format": 999}')
        with pytest.raises(ValueError, match="unsupported worker spec format"):
            load_job_spec(str(spec_path))


# --------------------------------------------------------------------- #
# Subprocess fleet
# --------------------------------------------------------------------- #


def fleet_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_JOBS", None)
    return env


@pytest.fixture
def fleet_backend(monkeypatch):
    """A 2-worker fleet whose workers can import repro from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    monkeypatch.setenv(
        "PYTHONPATH", src + os.pathsep + os.environ.get("PYTHONPATH", "")
    )
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return SubprocessFleetBackend(workers=2)


class TestSubprocessFleet:
    def test_fleet_dispatch_byte_identical_to_serial(self, tmp_path, fleet_backend):
        serial = serial_reference()
        serial_path = str(tmp_path / "serial.jsonl")
        save_results(serial.results, serial_path)

        workdir = str(tmp_path / "fleet")
        dispatched = dispatch_campaign(
            SMALL_SPEC,
            CFG,
            backend=fleet_backend,
            workdir=workdir,
            cache=False,
            max_steps=MAX_STEPS,
        )
        assert dispatched.results == serial.results
        merged_path = str(tmp_path / "merged.jsonl")
        save_results(dispatched.results, merged_path)
        assert open(serial_path, "rb").read() == open(merged_path, "rb").read()
        # Two shard files, each with its digest sidecar and worker log.
        plan = small_plan(2)
        for job in plan.jobs:
            path = shard_path(job, workdir)
            assert read_digest_sidecar(path) == job.digest()
            assert os.path.exists(path[: -len(".jsonl")] + ".log")

    def test_worker_failure_exhausts_retries(self, tmp_path, fleet_backend):
        fleet_backend.python = "/nonexistent-python"
        fleet_backend.max_retries = 1
        with pytest.raises(SchedulerError, match="after 2 attempts"):
            dispatch_campaign(
                SMALL_SPEC,
                CFG,
                backend=fleet_backend,
                workdir=str(tmp_path / "fleet"),
                cache=False,
                max_steps=MAX_STEPS,
            )

    def test_unpicklable_ml_factory_fails_fast(self, tmp_path, fleet_backend):
        with pytest.raises(SchedulerError, match="does not pickle"):
            dispatch_campaign(
                SMALL_SPEC,
                InterventionConfig(ml=True, name="ml"),
                backend=fleet_backend,
                workdir=str(tmp_path / "fleet"),
                cache=False,
                ml_factory=lambda: None,
                max_steps=MAX_STEPS,
            )


class TestCrashRecovery:
    def test_killed_worker_resumes_from_prefix(self, tmp_path, fleet_backend):
        """Kill a fleet worker mid-shard; the next dispatch must resume the
        shard from its valid JSONL prefix (count proof via the worker log),
        re-execute nothing it already earned, and still merge byte-identical
        to the serial run."""
        # A single-shard-per-worker grid big enough that each 12-episode
        # shard streams its first 8-episode batch to disk well before
        # finishing — the window in which the kill lands.
        spec = CampaignSpec(
            fault_types=[FaultType.RELATIVE_DISTANCE],
            scenario_ids=("S1", "S2", "S3"),
            initial_gaps=(60.0,),
            repetitions=8,
            seed=11,
        )
        serial = run_campaign(spec, CFG, cache=False, max_steps=MAX_STEPS)
        serial_path = str(tmp_path / "serial.jsonl")
        save_results(serial.results, serial_path)

        workdir = str(tmp_path / "fleet")
        os.makedirs(workdir)
        plan = CampaignPlan.build(spec, CFG, shards=2, max_steps=MAX_STEPS)
        victim = plan.jobs[0]
        victim_path = shard_path(victim, workdir)
        stem = victim.file_name()[: -len(".jsonl")]
        spec_path = os.path.join(workdir, f"{stem}.spec.json")
        write_job_spec(victim, spec_path, output=victim.file_name())

        # Launch shard 1's worker exactly as the fleet would, then kill it
        # once its first streamed batch is on disk — a genuine mid-shard
        # death, possibly mid-line.
        proc = subprocess.Popen(
            fleet_backend.worker_command(spec_path),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=fleet_env(),
        )
        deadline = time.time() + 120
        try:
            while count_records(victim_path) < 1:
                assert proc.poll() is None, "worker finished before the kill"
                assert time.time() < deadline, "no streamed batch within 120 s"
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()
        prefix = count_records(victim_path)
        assert 1 <= prefix < victim.total

        # The prefix records must survive the resume byte-for-byte: prove
        # it by content, not just count.
        prefix_records = load_results(victim_path)

        dispatched = dispatch_campaign(
            spec,
            CFG,
            backend=fleet_backend,
            workdir=workdir,
            cache=False,
            max_steps=MAX_STEPS,
        )
        assert dispatched.results == serial.results
        merged_path = str(tmp_path / "merged.jsonl")
        save_results(dispatched.results, merged_path)
        assert open(serial_path, "rb").read() == open(merged_path, "rb").read()

        # Count proof: the relaunched worker logged exactly how many
        # episodes it skipped (the prefix) and how many it still ran.
        log_text = open(os.path.join(workdir, f"{stem}.log")).read()
        assert (
            f"{prefix} episodes already recorded; "
            f"executing {victim.total - prefix} of {victim.total}" in log_text
        )
        assert load_results(victim_path)[:prefix] == prefix_records

        # Re-dispatch over the completed workdir: every shard is skipped
        # before any worker spawns — shard file mtimes are untouched.
        watched = [shard_path(job, workdir) for job in plan.jobs]
        before = {p: os.path.getmtime(p) for p in watched}
        time.sleep(0.05)
        again = dispatch_campaign(
            spec,
            CFG,
            backend=fleet_backend,
            workdir=workdir,
            cache=False,
            max_steps=MAX_STEPS,
        )
        assert again.results == serial.results
        assert {p: os.path.getmtime(p) for p in watched} == before


class TestFleetConstruction:
    def test_rejects_nonpositive_poll_interval(self):
        with pytest.raises(ValueError, match="poll_interval"):
            SubprocessFleetBackend(poll_interval=0.0)
        with pytest.raises(ValueError, match="poll_interval"):
            SubprocessFleetBackend(poll_interval=-0.5)

    def test_rejects_unknown_executor_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            SubprocessFleetBackend(executor="warp")
        with pytest.raises(ValueError, match="unknown executor"):
            InProcessBackend(executor="warp")

    def test_worker_command_carries_executor_flag(self):
        fleet = SubprocessFleetBackend(executor="batch")
        command = fleet.worker_command("shard.spec.json")
        assert command[-2:] == ["--executor", "batch"]
        # Unset stays unset: workers fall back to their own default.
        assert "--executor" not in SubprocessFleetBackend().worker_command(
            "shard.spec.json"
        )


class TestFleetTeardown:
    def test_hung_worker_is_killed_and_reaped(self, tmp_path, monkeypatch):
        """Exhausting one shard's retry budget must tear down the rest of
        the fleet — including a worker that ignores SIGTERM, which has to
        be escalated to SIGKILL and then *reaped* (no zombie children)."""
        backend = SubprocessFleetBackend(workers=2, max_retries=0)
        sentinel = str(tmp_path / "hang-worker-ready")
        # Worker 2 installs a SIGTERM-ignore, signals readiness via the
        # sentinel file, and hangs; worker 1 waits for that sentinel (so
        # the teardown races nothing) and then fails its shard.
        hang_cmd = [
            sys.executable,
            "-c",
            "import signal, sys, time\n"
            "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
            "open(sys.argv[1], 'w').close()\n"
            "time.sleep(600)\n",
            sentinel,
        ]
        fail_cmd = [
            sys.executable,
            "-c",
            "import os, sys, time\n"
            "while not os.path.exists(sys.argv[1]):\n"
            "    time.sleep(0.02)\n"
            "sys.exit(1)\n",
            sentinel,
        ]
        commands = iter([fail_cmd, hang_cmd])
        monkeypatch.setattr(
            backend, "worker_command", lambda spec_path: next(commands)
        )
        spawned = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            proc = real_popen(*args, **kwargs)
            spawned.append(proc)
            return proc

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        with pytest.raises(SchedulerError, match="after 1 attempts"):
            backend.run(small_plan(2), str(tmp_path))

        assert len(spawned) == 2
        # Every child is reaped: a poll() after teardown sees the recorded
        # returncode, never None (zombie) — and the hung worker's exit
        # status proves the SIGKILL escalation actually fired.
        assert [p.poll() is not None for p in spawned] == [True, True]
        assert spawned[1].returncode == -signal.SIGKILL


# --------------------------------------------------------------------- #
# SSH stub
# --------------------------------------------------------------------- #


class TestSSHBackend:
    def test_requires_command_template(self, monkeypatch):
        monkeypatch.delenv("REPRO_SSH_COMMAND", raising=False)
        with pytest.raises(ValueError, match="command template"):
            SSHBackend(workers=1)

    def test_template_must_reference_command(self):
        with pytest.raises(ValueError, match="placeholder"):
            SSHBackend(workers=1, command_template="ssh host worker")

    def test_template_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SSH_COMMAND", "ssh build-host {command}")
        backend = SSHBackend(workers=1)
        argv = backend.worker_command("/w/job.spec.json")
        assert argv[:2] == ["/bin/sh", "-c"]
        assert argv[2].startswith("ssh build-host ")
        assert "repro worker --spec /w/job.spec.json" in argv[2]

    def test_local_template_dispatch_matches_serial(self, tmp_path, fleet_backend):
        # '{command}' alone runs the worker locally through the template
        # plumbing — the full protocol path an ssh wrapper would take.
        backend = SSHBackend(
            workers=2, command_template="{command}", max_retries=0
        )
        serial = serial_reference()
        dispatched = dispatch_campaign(
            SMALL_SPEC,
            CFG,
            backend=backend,
            workdir=str(tmp_path / "fleet"),
            cache=False,
            max_steps=MAX_STEPS,
        )
        assert dispatched.results == serial.results


# --------------------------------------------------------------------- #
# Collect
# --------------------------------------------------------------------- #


def write_shard_files(plan, workdir, results):
    os.makedirs(workdir, exist_ok=True)
    paths = []
    offset = 0
    for job in plan.jobs:
        path = shard_path(job, workdir)
        save_results(results[offset : offset + job.total], path)
        write_digest_sidecar(path, job.digest())
        offset += job.total
        paths.append(path)
    return paths


class TestCollect:
    @pytest.fixture(scope="class")
    def serial(self):
        return serial_reference()

    def test_collect_merges_and_caches(self, tmp_path, serial):
        plan = small_plan(2)
        paths = write_shard_files(plan, str(tmp_path / "wd"), serial.results)
        cache = CampaignCache(str(tmp_path / "cache"))
        collected = collect_shards(plan, paths, cache=cache)
        assert collected.results == serial.results
        assert cache.get(plan.digest()) == serial.results

    def test_sidecar_mismatch_refused(self, tmp_path, serial):
        plan = small_plan(2)
        paths = write_shard_files(plan, str(tmp_path / "wd"), serial.results)
        write_digest_sidecar(paths[0], "0" * 64)
        with pytest.raises(SchedulerError, match="different campaign"):
            collect_shards(plan, paths)

    def test_truncated_shard_refused(self, tmp_path, serial):
        plan = small_plan(2)
        paths = write_shard_files(plan, str(tmp_path / "wd"), serial.results)
        with open(paths[1], "r+") as handle:
            content = handle.read()
            handle.seek(0)
            handle.write(content[: len(content) // 2])
            handle.truncate()
        with pytest.raises(SchedulerError, match="shard collection failed"):
            collect_shards(plan, paths)

    def test_wrong_path_count_refused(self, tmp_path, serial):
        plan = small_plan(2)
        paths = write_shard_files(plan, str(tmp_path / "wd"), serial.results)
        with pytest.raises(SchedulerError, match="expected 2 shard files"):
            collect_shards(plan, paths[:1])

    def test_foreign_episodes_refused(self, tmp_path, serial):
        # Same episode count, different campaign: per-position identity
        # validation must refuse it even with matching-looking files.
        plan = small_plan(2)
        other = run_campaign(
            CampaignSpec(
                fault_types=[FaultType.RELATIVE_DISTANCE],
                scenario_ids=("S1", "S2"),
                initial_gaps=(60.0,),
                repetitions=2,
                seed=8,  # different seed -> different episode identities
            ),
            CFG,
            cache=False,
            max_steps=MAX_STEPS,
        )
        paths = []
        offset = 0
        workdir = str(tmp_path / "wd")
        os.makedirs(workdir)
        for job in plan.jobs:
            path = shard_path(job, workdir)
            save_results(other.results[offset : offset + job.total], path)
            offset += job.total
            paths.append(path)  # no sidecars: identity check must catch it
        with pytest.raises(SchedulerError, match="shard collection failed"):
            collect_shards(plan, paths)

    def test_shard_complete_probe(self, tmp_path, serial):
        plan = small_plan(2)
        job = plan.jobs[0]
        path = shard_path(job, str(tmp_path))
        assert not shard_complete(job, path)
        save_results(serial.results[: job.total], path)
        assert shard_complete(job, path)
        write_digest_sidecar(path, "0" * 64)  # foreign sidecar -> incomplete
        assert not shard_complete(job, path)
