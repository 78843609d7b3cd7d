"""Platform throughput: closed-loop steps per second, and campaign dispatch.

Not a paper table — this is the engineering bench that keeps the campaign
runtimes honest (the full Table VI grid is ~2,900 episodes).  The
serial-vs-parallel campaign benches measure the executor layer
(:mod:`repro.core.executor`): on an N-core machine the parallel backend
should approach Nx the serial episode throughput (>= 2x at ``jobs=4`` on
4 cores), while returning bit-identical results.  The serial-vs-batch
bench measures the vectorized lockstep engine
(:mod:`repro.sim.batch_state`) the same way and emits a JSON record of
both episodes/s figures (set ``REPRO_BENCH_JSON`` to also write it to a
file) so successive runs form a trajectory.
"""

import functools
import json
import os
import time

import pytest

from repro.attacks.campaign import CampaignSpec, EpisodeSpec
from repro.attacks.fi import FaultType
from repro.core.executor import (
    BatchExecutor,
    ParallelExecutor,
    PhaseProfile,
    SerialExecutor,
    available_cores,
)
from repro.core.experiment import run_campaign
from repro.core.platform import SimulationPlatform
from repro.ml.dataset import TraceDataset, collect_fault_free_traces
from repro.ml.mitigation import MitigationFactory
from repro.ml.trainer import TrainerConfig, train_baseline
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig


def _run_episode(interventions):
    spec = EpisodeSpec(
        scenario_id="S1",
        initial_gap=60.0,
        fault_type=FaultType.NONE,
        repetition=0,
        seed=77,
    )
    platform = SimulationPlatform(spec, interventions, max_steps=2000)
    return platform.run()


def test_platform_step_rate_bare(benchmark):
    result = benchmark(lambda: _run_episode(InterventionConfig()))
    assert result.steps == 2000


def test_platform_step_rate_full_stack(benchmark):
    cfg = InterventionConfig(
        driver=True, safety_check=True, aeb=AebsConfig.INDEPENDENT
    )
    result = benchmark(lambda: _run_episode(cfg))
    assert result.steps == 2000


# --------------------------------------------------------------------- #
# Campaign dispatch: serial vs parallel executor throughput
# --------------------------------------------------------------------- #

#: Small-but-real campaign: 12 episodes x 2,000 steps of full-stack
#: closed-loop simulation (enough work per episode that dispatch overhead
#: is honest, small enough for CI).
_CAMPAIGN = CampaignSpec(
    fault_types=[FaultType.RELATIVE_DISTANCE],
    initial_gaps=(60.0,),
    repetitions=2,
    seed=2025,
)
_CAMPAIGN_CFG = InterventionConfig(driver=True, aeb=AebsConfig.INDEPENDENT)


def _run_campaign_with(executor):
    return run_campaign(
        _CAMPAIGN, _CAMPAIGN_CFG, executor=executor, max_steps=2000
    )


def test_campaign_throughput_serial(benchmark):
    campaign = benchmark.pedantic(
        lambda: _run_campaign_with(SerialExecutor()), rounds=1, iterations=1
    )
    assert len(campaign.results) == 12


def test_campaign_throughput_parallel(benchmark):
    jobs = min(4, available_cores())
    campaign = benchmark.pedantic(
        lambda: _run_campaign_with(ParallelExecutor(jobs=jobs)),
        rounds=1,
        iterations=1,
    )
    assert len(campaign.results) == 12


#: The >= 2x parallel-speedup bar needs >= 4 *physical* cores, and
#: ``available_cores()`` counts hyperthreads; 8 available cores is the
#: conservative proxy (>= 4 physical on SMT-2 hosts) above which the hard
#: assertion arms.  Below it the bench is report-only so CI stays
#: portable to small hosts.
_SPEEDUP_ASSERT_CORES = 8


def test_parallel_speedup_report(capsys):
    """Measure and print the serial-vs-parallel speedup directly.

    Bit-identity between the backends is asserted on every host; the
    >= 2x throughput bar cannot hold on < 4 physical cores (the ROADMAP
    note), so on hosts where ``available_cores()`` reports fewer than
    ``_SPEEDUP_ASSERT_CORES`` the ratio is reported without being
    enforced.
    """
    started = time.perf_counter()
    serial = _run_campaign_with(SerialExecutor())
    serial_s = time.perf_counter() - started

    cores = available_cores()
    jobs = min(4, cores)
    started = time.perf_counter()
    parallel = _run_campaign_with(ParallelExecutor(jobs=jobs))
    parallel_s = time.perf_counter() - started

    assert parallel.results == serial.results  # bit-identical, always
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    with capsys.disabled():
        print(
            f"\ncampaign speedup: {speedup:.2f}x "
            f"(serial {serial_s:.2f}s, jobs={jobs} {parallel_s:.2f}s, "
            f"{cores} cores)"
        )
        if cores < _SPEEDUP_ASSERT_CORES:
            print(
                f"report-only: available_cores()={cores} < "
                f"{_SPEEDUP_ASSERT_CORES}, the >= 2x bar is not armed"
            )
    if cores >= _SPEEDUP_ASSERT_CORES:
        assert speedup >= 2.0, (
            f"expected >= 2x campaign throughput at jobs=4 on {cores} cores, "
            f"measured {speedup:.2f}x"
        )


# --------------------------------------------------------------------- #
# Campaign dispatch: serial vs batch (vectorized lockstep) throughput
# --------------------------------------------------------------------- #

#: Batch-width campaign: 96 episodes stepped in lockstep.  The batch
#: engine amortises NumPy dispatch across lanes, so its advantage grows
#: with width — a dozen lanes roughly breaks even, campaign-scale widths
#: pull ahead (see the sim/batch_state module docstring).
_BATCH_CAMPAIGN = CampaignSpec(
    fault_types=[FaultType.DESIRED_CURVATURE, FaultType.MIXED],
    initial_gaps=(60.0,),
    repetitions=8,
    seed=2025,
)
_BATCH_STEPS = 1000


def _run_batch_campaign_with(executor):
    return run_campaign(
        _BATCH_CAMPAIGN, _CAMPAIGN_CFG, executor=executor, max_steps=_BATCH_STEPS
    )


def _phase_dict(profile):
    """Per-phase seconds (control / dynamics / post-step tail), rounded."""
    d = profile.as_dict()
    return {
        k: (round(v, 3) if isinstance(v, float) else v) for k, v in d.items()
    }


#: Unlike the process-pool bar above, the batch speedup is algorithmic —
#: NumPy dispatch amortised across 96 lanes on a *single* core — so it
#: does not need physical parallelism to hold.  It arms on any host with
#: at least 2 available cores; a 1-core report means an overcommitted /
#: throttled container where wall-clock ratios are not trustworthy, so
#: the bench stays report-only there.
_BATCH_ASSERT_CORES = 2


def test_batch_speedup_report(capsys):
    """Serial-vs-batch episodes/s, with a machine-readable JSON record.

    Bit-identity is asserted on every host.  The >= 2x throughput bar is
    enforced wherever ``available_cores() >= _BATCH_ASSERT_CORES``; the
    JSON line — also written to ``$REPRO_BENCH_JSON`` when set — is the
    durable record that seeds the bench trajectory.
    """
    serial_profile = PhaseProfile()
    started = time.perf_counter()
    serial = _run_batch_campaign_with(SerialExecutor(profile=serial_profile))
    serial_s = time.perf_counter() - started

    batch_profile = PhaseProfile()
    started = time.perf_counter()
    batch = _run_batch_campaign_with(BatchExecutor(profile=batch_profile))
    batch_s = time.perf_counter() - started

    assert batch.results == serial.results  # bit-identical, always
    episodes = len(serial.results)
    record = {
        "bench": "campaign_serial_vs_batch",
        "episodes": episodes,
        "max_steps": _BATCH_STEPS,
        "serial_s": round(serial_s, 3),
        "batch_s": round(batch_s, 3),
        "serial_eps_per_s": round(episodes / serial_s, 3),
        "batch_eps_per_s": round(episodes / batch_s, 3),
        "speedup": round(serial_s / batch_s, 3),
        "available_cores": available_cores(),
        "phases": {
            "serial": _phase_dict(serial_profile),
            "batch": _phase_dict(batch_profile),
        },
    }
    line = json.dumps(record, sort_keys=True)
    out_path = os.environ.get("REPRO_BENCH_JSON")
    if out_path:
        with open(out_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    cores = record["available_cores"]
    speedup = serial_s / batch_s if batch_s > 0 else float("inf")
    with capsys.disabled():
        print(f"\n{line}")
        if cores < _BATCH_ASSERT_CORES:
            print(
                f"report-only: available_cores()={cores} < "
                f"{_BATCH_ASSERT_CORES}, the >= 2x batch bar is not armed"
            )
    if cores >= _BATCH_ASSERT_CORES:
        assert speedup >= 2.0, (
            f"expected >= 2x batch throughput at {episodes} lanes "
            f"({cores} cores), measured {speedup:.2f}x"
        )


# --------------------------------------------------------------------- #
# ML-arm campaign: serial vs batch vs batch x jobs (hybrid)
# --------------------------------------------------------------------- #

#: ML-arm campaign: every lane carries Algorithm 1 (LSTM forward + CUSUM)
#: on top of the ADAS stack.  Historically these lanes forced the whole
#: control phase scalar; the batched ML stage keeps them on the
#: vectorized path, and the batch x jobs hybrid stacks process
#: parallelism on top.
_ML_CAMPAIGN = CampaignSpec(
    fault_types=[FaultType.RELATIVE_DISTANCE],
    initial_gaps=(60.0,),
    repetitions=4,
    seed=2025,
)
_ML_CFG = InterventionConfig(ml=True, driver=True, aeb=AebsConfig.INDEPENDENT)
_ML_STEPS = 1000


@functools.lru_cache(maxsize=1)
def _ml_factory():
    """Train a tiny real baseline once per bench session.

    Trained weights (not a synthetic stand-in) so the bench exercises the
    production path end to end: trace collection, normalisation scalers,
    and an LSTM whose predictions keep the CUSUM near its idle regime.
    """
    traces = collect_fault_free_traces(
        scenario_ids=("S1",), initial_gaps=(60.0,), seeds=(11,), max_steps=2500
    )
    dataset = TraceDataset(traces, stride=20)
    config = TrainerConfig(hidden_sizes=(8, 6), epochs=3, batch_size=32, stride=20)
    return MitigationFactory(train_baseline(config, dataset=dataset))


def _run_ml_campaign_with(executor, jobs=None):
    return run_campaign(
        _ML_CAMPAIGN,
        _ML_CFG,
        ml_factory=_ml_factory(),
        executor=executor,
        jobs=jobs,
        max_steps=_ML_STEPS,
    )


#: The hybrid's >1x-over-batch bar needs >= 2 *physical* cores and
#: ``available_cores()`` counts hyperthreads: 4 available cores is the
#: conservative proxy on SMT-2 hosts, mirroring ``_SPEEDUP_ASSERT_CORES``.
_HYBRID_ASSERT_CORES = 4


def test_ml_batch_and_hybrid_speedup_report(capsys):
    """ML-arm episodes/s: serial vs batch vs batch x jobs.

    Bit-identity of both accelerated backends against serial is asserted
    on every host.  The LSTM forward dominates ML-arm cost and runs once
    per tick over all 24 lanes (it is row-exact): the >= 3x
    batch-over-serial bar arms under the same ``_BATCH_ASSERT_CORES``
    guard as :func:`test_batch_speedup_report`.
    The hybrid's >1x bar over single-process batch is armed at
    ``available_cores() >= _HYBRID_ASSERT_CORES`` (>= 2 physical cores
    on SMT-2 hosts).  Below either guard the ratio is report-only.
    """
    serial_profile = PhaseProfile()
    started = time.perf_counter()
    serial = _run_ml_campaign_with(SerialExecutor(profile=serial_profile))
    serial_s = time.perf_counter() - started

    batch_profile = PhaseProfile()
    started = time.perf_counter()
    batch = _run_ml_campaign_with(BatchExecutor(profile=batch_profile))
    batch_s = time.perf_counter() - started

    cores = available_cores()
    jobs = min(4, cores)
    started = time.perf_counter()
    hybrid = _run_ml_campaign_with("batch", jobs=jobs)
    hybrid_s = time.perf_counter() - started

    assert batch.results == serial.results  # bit-identical, always
    assert hybrid.results == serial.results  # bit-identical, always
    episodes = len(serial.results)
    record = {
        "bench": "campaign_ml_serial_vs_batch_vs_hybrid",
        "episodes": episodes,
        "max_steps": _ML_STEPS,
        "jobs": jobs,
        "serial_s": round(serial_s, 3),
        "batch_s": round(batch_s, 3),
        "hybrid_s": round(hybrid_s, 3),
        "serial_eps_per_s": round(episodes / serial_s, 3),
        "batch_eps_per_s": round(episodes / batch_s, 3),
        "hybrid_eps_per_s": round(episodes / hybrid_s, 3),
        "batch_speedup": round(serial_s / batch_s, 3),
        "hybrid_speedup": round(serial_s / hybrid_s, 3),
        "hybrid_over_batch": round(batch_s / hybrid_s, 3),
        "available_cores": cores,
        "phases": {
            "serial": _phase_dict(serial_profile),
            "batch": _phase_dict(batch_profile),
        },
    }
    line = json.dumps(record, sort_keys=True)
    out_path = os.environ.get("REPRO_BENCH_JSON")
    if out_path:
        with open(out_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    batch_speedup = serial_s / batch_s if batch_s > 0 else float("inf")
    hybrid_over_batch = batch_s / hybrid_s if hybrid_s > 0 else float("inf")
    with capsys.disabled():
        print(f"\n{line}")
        if cores < _BATCH_ASSERT_CORES:
            print(
                f"report-only: available_cores()={cores} < "
                f"{_BATCH_ASSERT_CORES}, the >= 3x ML batch bar is not armed"
            )
        if cores < _HYBRID_ASSERT_CORES:
            print(
                f"report-only: available_cores()={cores} < "
                f"{_HYBRID_ASSERT_CORES}, the hybrid >1x bar is not armed"
            )
    if cores >= _BATCH_ASSERT_CORES:
        assert batch_speedup >= 3.0, (
            f"expected >= 3x ML-arm batch throughput at {episodes} lanes "
            f"({cores} cores), measured {batch_speedup:.2f}x"
        )
    if cores >= _HYBRID_ASSERT_CORES:
        assert hybrid_over_batch > 1.0, (
            f"expected the batch x jobs hybrid (jobs={jobs}) to beat "
            f"single-process batch on {cores} cores, measured "
            f"{hybrid_over_batch:.2f}x"
        )
