"""Batch (vectorized lockstep) executor tests.

The contract under test is the one the golden-digest suite cannot see:
``executor="batch"`` must produce byte-identical episode results — and
therefore identical aggregate metrics — to the serial reference for
every registered scenario family, every fault mode, and any lane width,
while :func:`resolve_executor` keeps the name-based selection honest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.campaign import CampaignSpec, enumerate_campaign
from repro.attacks.fi import FaultType
from repro.core.executor import (
    EXECUTOR_NAMES,
    BatchExecutor,
    EpisodeTask,
    ParallelExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.core.experiment import run_campaign
from repro.core.metrics import aggregate
from repro.ml.lstm import LstmNetwork
from repro.ml.mitigation import MitigationController, MitigationFactory
from repro.ml.trainer import TrainedBaseline
from repro.safety.aebs import AebsConfig
from repro.safety.arbitration import InterventionConfig
from repro.sim.families import registered_families

#: The widest intervention stack: driver + safety check + independent
#: AEB exercises every sensor corridor the batch engine pre-computes
#: (default, radar, human) plus the perception/curvature cache.
FULL_CFG = InterventionConfig(
    driver=True, safety_check=True, aeb=AebsConfig.INDEPENDENT
)


def _family_spec(family, fault, seed, repetitions=2):
    return CampaignSpec(
        scenario_ids=(family,),
        fault_types=[fault],
        initial_gaps=(60.0,),
        repetitions=repetitions,
        seed=seed,
    )


def _run_pair(spec, cfg, max_steps):
    serial = run_campaign(
        spec, cfg, executor="serial", cache=False, max_steps=max_steps
    )
    batch = run_campaign(
        spec, cfg, executor="batch", cache=False, max_steps=max_steps
    )
    return serial, batch


class TestBatchSerialEquivalence:
    @pytest.mark.parametrize("family", registered_families())
    def test_every_registered_family_bit_identical(self, family):
        spec = _family_spec(family, FaultType.DESIRED_CURVATURE, seed=404)
        serial, batch = _run_pair(spec, FULL_CFG, max_steps=400)
        assert batch.results == serial.results
        assert batch.intervention == serial.intervention

    @settings(max_examples=8, deadline=None)
    @given(
        family=st.sampled_from(registered_families()),
        fault=st.sampled_from(
            [FaultType.NONE, FaultType.RELATIVE_DISTANCE, FaultType.MIXED]
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_batch_metrics_equal_serial_property(self, family, fault, seed):
        spec = _family_spec(family, fault, seed)
        serial, batch = _run_pair(spec, FULL_CFG, max_steps=300)
        assert batch.results == serial.results
        assert aggregate(batch.results) == aggregate(serial.results)

    def test_lane_chunking_preserves_results_and_order(self):
        spec = CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=99,
        )
        serial = run_campaign(
            spec, FULL_CFG, executor="serial", cache=False, max_steps=500
        )
        # 4 episodes through uneven lane widths: 1 (degenerate serial-like
        # lockstep), 3 (uneven final chunk), 100 (single wide chunk).
        for lanes in (1, 3, 100):
            batch = run_campaign(
                spec,
                FULL_CFG,
                executor=BatchExecutor(lanes=lanes),
                cache=False,
                max_steps=500,
            )
            assert batch.results == serial.results, lanes

    def test_mid_batch_finish_and_rng_draw_order(self):
        # RD-attacked baseline: the S4 lanes crash (A1) hundreds of steps
        # before the S1 lanes reach max_steps, so lanes retire mid-batch
        # and the survivors' active-set key changes; the attack also
        # walks the lead through the perception blind range, so per-lane
        # RNG consumption alternates between 5-draw (valid-lead) and
        # 3-draw steps.  Neither may disturb bit-identity at any chunk
        # width: 1 (a boundary every lane), width-1 (uneven final chunk),
        # or unbounded (all finish-orders interleaved in one batch).
        spec = CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=99,
        )
        serial = run_campaign(
            spec, InterventionConfig(), executor="serial", cache=False, max_steps=600
        )
        steps = [r.steps for r in serial.results]
        # Precondition: lanes genuinely finish at different steps.
        assert len(set(steps)) > 1, steps
        assert any(r.accident is not None for r in serial.results)
        for lanes in (1, len(steps) - 1, None):
            batch = run_campaign(
                spec,
                InterventionConfig(),
                executor=BatchExecutor(lanes=lanes),
                cache=False,
                max_steps=600,
            )
            assert batch.results == serial.results, lanes

    def test_minimal_config_also_identical(self):
        # No driver, no AEB: the no-intervention arm takes different
        # sensor paths (no radar/human corridors registered).
        spec = _family_spec("S2", FaultType.NONE, seed=7, repetitions=2)
        serial, batch = _run_pair(spec, InterventionConfig(), max_steps=400)
        assert batch.results == serial.results

    def test_hazard_heavy_equivalence_bit_identical(self):
        # Short initial gaps + an RD attack: H1 marks early, S4 lanes
        # crash (A1) — the masked hazard screen flags lanes step after
        # step instead of staying quiet, so the scalar-fallback half of
        # the screen is what this pins against serial.
        spec = CampaignSpec(
            scenario_ids=("S3", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(15.0,),
            repetitions=2,
            seed=1234,
        )
        serial, batch = _run_pair(spec, FULL_CFG, max_steps=500)
        # Preconditions: the campaign is genuinely hazard-heavy.
        assert any(r.h1 for r in serial.results)
        assert any(r.accident is not None for r in serial.results)
        assert batch.results == serial.results

    def test_cut_in_heavy_equivalence_bit_identical(self):
        # dense-traffic platoons carry an adjacent-lane CutInBehavior
        # merger and S5 is the paper's cut-in scenario: adjacent-lane
        # agents with lateral motion keep the vectorized cut-in screen
        # flagging lanes into the scalar first-match scan, with the
        # driver model consuming the presence bit every step.
        spec = CampaignSpec(
            scenario_ids=("dense-traffic", "S5"),
            fault_types=[FaultType.MIXED],
            initial_gaps=(40.0,),
            repetitions=2,
            seed=77,
        )
        serial, batch = _run_pair(spec, FULL_CFG, max_steps=500)
        assert batch.results == serial.results
        assert aggregate(batch.results) == aggregate(serial.results)


class TestPhaseProfile:
    def test_profiled_runs_identical_and_accumulate(self):
        from repro.core.executor import PhaseProfile

        spec = _family_spec("S4", FaultType.RELATIVE_DISTANCE, seed=11)
        serial = run_campaign(
            spec, FULL_CFG, executor="serial", cache=False, max_steps=300
        )
        for make in (
            lambda p: SerialExecutor(profile=p),
            lambda p: BatchExecutor(profile=p),
        ):
            profile = PhaseProfile()
            profiled = run_campaign(
                spec,
                FULL_CFG,
                executor=make(profile),
                cache=False,
                max_steps=300,
            )
            assert profiled.results == serial.results
            assert profile.steps == sum(r.steps for r in serial.results)
            assert profile.control_s > 0.0
            assert profile.dynamics_s > 0.0
            assert profile.post_s >= 0.0
            assert profile.total_s == pytest.approx(
                profile.control_s + profile.dynamics_s + profile.post_s
            )
            assert set(profile.as_dict()) == {
                "control_s",
                "dynamics_s",
                "post_s",
                "steps",
            }


class TestBatchExecutorConstruction:
    def test_rejects_nonpositive_lanes(self):
        with pytest.raises(ValueError, match="lanes"):
            BatchExecutor(lanes=0)
        with pytest.raises(ValueError, match="lanes"):
            BatchExecutor(lanes=-4)

    def test_default_lanes_unbounded(self):
        assert BatchExecutor().lanes is None
        assert BatchExecutor(lanes=8).lanes == 8


class TestResolveExecutor:
    def test_names_resolve_to_backends(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("parallel", jobs=2), ParallelExecutor)
        assert isinstance(resolve_executor("batch"), BatchExecutor)

    def test_none_defers_to_jobs(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(None, jobs=3), ParallelExecutor)

    def test_instance_passes_through(self):
        backend = BatchExecutor(lanes=4)
        assert resolve_executor(backend) is backend

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ValueError, match="serial.*parallel.*batch"):
            resolve_executor("warp")

    def test_names_registry(self):
        assert EXECUTOR_NAMES == ("serial", "parallel", "batch")

    def test_batch_with_jobs_routes_to_hybrid(self):
        backend = resolve_executor("batch", jobs=3, lanes=8)
        assert isinstance(backend, ParallelExecutor)
        assert isinstance(backend.inner, BatchExecutor)
        assert backend.jobs == 3
        assert backend.inner.lanes == 8

    def test_batch_with_one_job_stays_single_process(self):
        assert isinstance(resolve_executor("batch", jobs=1), BatchExecutor)
        assert isinstance(resolve_executor("batch"), BatchExecutor)

    def test_batch_jobs_honours_repro_jobs_env(self, monkeypatch):
        # The historical footgun: REPRO_JOBS silently ignored by
        # --executor batch.  It must route to the hybrid now.
        monkeypatch.setenv("REPRO_JOBS", "2")
        backend = resolve_executor("batch")
        assert isinstance(backend, ParallelExecutor)
        assert isinstance(backend.inner, BatchExecutor)

    def test_lanes_refused_without_batch_executor(self):
        from repro.core.cache import MemoryCacheBackend

        spec = _family_spec("S1", FaultType.NONE, seed=3, repetitions=1)
        cache = MemoryCacheBackend()
        run_campaign(
            spec, FULL_CFG, executor="batch", lanes=2, cache=cache, max_steps=20
        )
        # Refused even when the cache would answer without executing.
        for executor in (None, "serial", "parallel", BatchExecutor()):
            with pytest.raises(ValueError, match="--lanes"):
                run_campaign(
                    spec, FULL_CFG, executor=executor, lanes=2, cache=cache,
                    max_steps=20,
                )

    def test_profile_with_batch_jobs_refused_naming_both_flags(self):
        from repro.core.executor import PhaseProfile

        with pytest.raises(ValueError, match=r"--profile.*--jobs"):
            resolve_executor("batch", jobs=2, profile=PhaseProfile())
        # jobs=1 keeps profiling supported (in-process batch).
        backend = resolve_executor("batch", jobs=1, profile=PhaseProfile())
        assert isinstance(backend, BatchExecutor)
        assert backend.profile is not None


def synthetic_ml_factory(seed=7, hidden=(8, 6), token="test:synthetic"):
    """A deterministic untrained-weights factory: predictions are
    arbitrary (large CUSUM deltas → the recovery path actually runs),
    construction is instant, and the bit-identity contract does not care
    about predictive quality."""
    baseline = TrainedBaseline(
        network=LstmNetwork(
            input_size=6, hidden_sizes=hidden, output_size=2, seed=seed
        ),
        feature_mean=np.array([20.0, 60.0, 0.9, 0.9, 0.0, 0.0]),
        feature_std=np.array([5.0, 30.0, 0.5, 0.5, 1.0, 0.1]),
        target_mean=np.array([0.1, 0.0]),
        target_std=np.array([1.5, 0.05]),
    )
    return MitigationFactory(baseline, digest_token=f"{token}:{seed}:{hidden}")


#: ML arm on top of the widest stack: Algorithm 1 arbitrates against the
#: driver, the checker and independent AEB inside the vectorized path.
ML_CFG = InterventionConfig(
    ml=True, driver=True, safety_check=True, aeb=AebsConfig.INDEPENDENT
)


class TestBatchMlLaneEquivalence:
    """ML-arm lanes ride the vectorized path — and stay bit-identical."""

    def _ml_pair(self, spec, max_steps, executor, cfg=ML_CFG, factory=None):
        factory = factory or synthetic_ml_factory()
        serial = run_campaign(
            spec, cfg, ml_factory=factory, executor="serial",
            cache=False, max_steps=max_steps,
        )
        other = run_campaign(
            spec, cfg, ml_factory=factory, executor=executor,
            cache=False, max_steps=max_steps,
        )
        return serial, other

    def test_ml_campaign_bit_identical_with_mid_batch_finish(self):
        # S1+S4 under an RD attack with ML as the lone intervention: the
        # S4 lanes crash (A1) ~150 steps before the S1 lanes reach
        # max_steps, so lanes retire mid-batch and the ML write-through
        # and active-set reshuffle both happen with recovery state live.
        spec = CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=99,
        )
        serial, batch = self._ml_pair(
            spec, 500, "batch", cfg=InterventionConfig(ml=True)
        )
        # Preconditions: recovery genuinely activates and lanes genuinely
        # finish at different steps — otherwise this test proves nothing.
        assert any(r.ml_recovery.triggered for r in serial.results)
        assert len({r.steps for r in serial.results}) > 1
        assert batch.results == serial.results
        assert aggregate(batch.results) == aggregate(serial.results)

    def test_ml_lane_chunk_boundaries(self):
        spec = CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=2,
            seed=31,
        )
        factory = synthetic_ml_factory()
        serial = run_campaign(
            spec, ML_CFG, ml_factory=factory, executor="serial",
            cache=False, max_steps=400,
        )
        for lanes in (1, 3, 100):
            batch = run_campaign(
                spec, ML_CFG, ml_factory=factory,
                executor=BatchExecutor(lanes=lanes),
                cache=False, max_steps=400,
            )
            assert batch.results == serial.results, lanes

    def test_full_stack_with_ml_bit_identical(self):
        # ML recovery commands flowing through the checker, driver and
        # independent AEB: the arbitration interplay (authority codes,
        # ACC brake clamp under "ml" authority) must vectorize exactly.
        spec = _family_spec("S2", FaultType.DESIRED_CURVATURE, seed=5)
        serial, batch = self._ml_pair(spec, 400, "batch")
        assert any(r.ml_recovery.triggered for r in serial.results)
        assert batch.results == serial.results

    def test_ml_lanes_join_vector_set(self):
        from repro.core.platform import SimulationPlatform
        from repro.sim.batch_control import BatchControlStack
        from repro.sim.batch_state import BatchDynamics

        spec = _family_spec("S1", FaultType.NONE, seed=1, repetitions=1)
        episodes = enumerate_campaign(spec)
        factory = synthetic_ml_factory()
        platforms = [
            SimulationPlatform(
                episodes[0], ML_CFG, ml_controller=factory(), max_steps=50
            )
        ]
        dynamics = BatchDynamics(
            [p.world for p in platforms],
            curvature_lookaheads=[
                p.perception.params.curvature_lookahead for p in platforms
            ],
            lead_max_ranges=[p.sensor.max_range for p in platforms],
        )
        stack = BatchControlStack(platforms, dynamics)
        assert stack.vector_set == {0}
        assert stack.ml is not None

    def test_non_stock_controller_falls_back_to_scalar_and_matches(self):
        # A subclass may override step(): the batch path must refuse to
        # vectorize it (scalar fallback) and still match serial.
        class TracingController(MitigationController):
            pass

        baseline = synthetic_ml_factory().baseline

        def custom_factory():
            return TracingController(baseline)

        spec = _family_spec("S1", FaultType.RELATIVE_DISTANCE, seed=13)
        # The nested factory is deliberate: both backends run in-process
        # here, and hoisting it would lose the subclass-under-test.
        serial = run_campaign(
            spec, ML_CFG, ml_factory=custom_factory, executor="serial",  # repro-lint: disable=unpicklable-submission
            cache=False, max_steps=300,
        )
        batch = run_campaign(
            spec, ML_CFG, ml_factory=custom_factory, executor="batch",  # repro-lint: disable=unpicklable-submission
            cache=False, max_steps=300,
        )
        assert batch.results == serial.results

    def test_mixed_ml_and_plain_lanes_one_batch(self):
        # One lockstep batch mixing ML lanes (two distinct baselines —
        # distinct networks must group separately) with plain lanes.
        spec = _family_spec("S1", FaultType.RELATIVE_DISTANCE, seed=21)
        episodes = enumerate_campaign(spec)
        factories = [synthetic_ml_factory(seed=1), synthetic_ml_factory(seed=2), None]
        tasks = [
            EpisodeTask.make(
                episode,
                ML_CFG if factory is not None else FULL_CFG,
                ml_factory=factory,
                max_steps=400,
            )
            for episode in episodes
            for factory in factories
        ]
        serial = SerialExecutor().run(tasks)
        batch = BatchExecutor().run(tasks)
        assert batch == serial


def _hybrid(jobs, lanes=None, chunk_size=None):
    """The batch × jobs hybrid: a process pool running the batch engine."""
    return ParallelExecutor(
        jobs, chunk_size=chunk_size, inner=BatchExecutor(lanes=lanes)
    )


class TestBatchParallelExecutor:
    """The batch × jobs hybrid: ``ParallelExecutor`` with a batch inner."""

    def _spec(self, seed=99):
        return CampaignSpec(
            scenario_ids=("S1", "S4"),
            fault_types=[FaultType.RELATIVE_DISTANCE],
            initial_gaps=(60.0,),
            repetitions=3,
            seed=seed,
        )

    def test_hybrid_byte_identical_to_serial_including_ml(self, tmp_path):
        import hashlib

        factory = synthetic_ml_factory()
        serial = run_campaign(
            self._spec(), ML_CFG, ml_factory=factory, executor="serial",
            cache=False, max_steps=300,
        )
        hybrid = run_campaign(
            self._spec(), ML_CFG, ml_factory=factory, executor="batch",
            jobs=2, cache=False, max_steps=300,
        )
        assert hybrid.results == serial.results

        def digest(campaign, name):
            path = tmp_path / name
            campaign.save(str(path))
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert digest(hybrid, "hybrid.jsonl") == digest(serial, "serial.jsonl")

    def test_chunk_boundaries_do_not_change_results(self):
        serial = run_campaign(
            self._spec(7), FULL_CFG, executor="serial", cache=False,
            max_steps=300,
        )
        for chunk_size in (1, 2, 4):
            hybrid = run_campaign(
                self._spec(7),
                FULL_CFG,
                executor=_hybrid(2, chunk_size=chunk_size),
                cache=False,
                max_steps=300,
            )
            assert hybrid.results == serial.results, chunk_size

    def test_jobs_one_short_circuits_in_process(self):
        serial = run_campaign(
            self._spec(3), FULL_CFG, executor="serial", cache=False,
            max_steps=200,
        )
        hybrid = run_campaign(
            self._spec(3),
            FULL_CFG,
            executor=_hybrid(1),
            cache=False,
            max_steps=200,
        )
        assert hybrid.results == serial.results

    def test_non_picklable_payload_falls_back_with_warning(self):
        # The lambda factory is the hazard under test: the hybrid's
        # pickle probe must catch it and fall back in-process.
        baseline = synthetic_ml_factory().baseline
        spec = _family_spec("S1", FaultType.NONE, seed=2, repetitions=2)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            hybrid = run_campaign(
                spec,
                ML_CFG,
                ml_factory=lambda: MitigationController(baseline),  # repro-lint: disable=unpicklable-submission
                executor=_hybrid(2),
                cache=False,
                max_steps=200,
            )
        serial = run_campaign(
            spec,
            ML_CFG,
            ml_factory=lambda: MitigationController(baseline),  # repro-lint: disable=unpicklable-submission
            executor="serial",
            cache=False,
            max_steps=200,
        )
        assert hybrid.results == serial.results

    def test_progress_reports_all_episodes(self):
        seen = []
        run_campaign(
            self._spec(5),
            FULL_CFG,
            executor=_hybrid(2),
            cache=False,
            max_steps=150,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (6, 6)
        dones = [d for d, _ in seen]
        assert dones == sorted(dones)

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            _hybrid(0)
        with pytest.raises(ValueError, match="lanes"):
            _hybrid(2, lanes=0)
        with pytest.raises(ValueError, match="chunk_size"):
            _hybrid(2, chunk_size=0)

    def test_default_chunk_sizes(self):
        # Scalar workers: ~4 chunks per worker, capped at 16 tasks.
        scalar = SerialExecutor()
        assert scalar.pool_chunk(100, 2) == 12
        assert scalar.pool_chunk(1000, 2) == 16
        assert scalar.pool_chunk(3, 2) == 1
        # Batch workers: one wide chunk per worker (ceil).
        batch = BatchExecutor(lanes=4)
        assert batch.pool_chunk(7, 2) == 4
        assert batch.pool_chunk(8, 2) == 4
        assert batch.pool_chunk(1000, 3) == 334
