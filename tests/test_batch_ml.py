"""BatchMitigation unit tests: lockstep Algorithm 1 vs the scalar controller.

The executor-level gate lives in ``tests/test_batch_executor.py``; these
tests pin the stage contract directly — per-step command/recovery output
and post-retire controller state must be bit-identical to driving the
scalar :class:`MitigationController` with the same feature stream,
including warm-up, activation, exit and the sliding window.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adas.controlsd import AdasCommand
from repro.ml.dataset import WINDOW
from repro.ml.lstm import LstmNetwork
from repro.ml.mitigation import (
    MitigationController,
    MitigationFactory,
    MitigationParams,
)
from repro.ml.trainer import TrainedBaseline
from repro.sim.batch_ml import BatchMitigation


def synthetic_baseline(seed=7, hidden=(8, 6)):
    """An untrained (but deterministic) baseline: predictions are
    arbitrary, which is exactly what the bit-identity contract needs —
    the CUSUM sees large deltas and exercises the recovery path."""
    return TrainedBaseline(
        network=LstmNetwork(
            input_size=6, hidden_sizes=hidden, output_size=2, seed=seed
        ),
        feature_mean=np.array([20.0, 60.0, 0.9, 0.9, 0.0, 0.0]),
        feature_std=np.array([5.0, 30.0, 0.5, 0.5, 1.0, 0.1]),
        target_mean=np.array([0.1, 0.0]),
        target_std=np.array([1.5, 0.05]),
    )


class _FakePlatform:
    def __init__(self, controller):
        self.ml_controller = controller


def _feature_stream(rng, steps):
    return [
        [
            float(15.0 + 10.0 * rng.random()),
            float(120.0 * rng.random()),
            float(rng.random()),
            float(rng.random()),
            float(rng.normal(0.0, 1.0)),
            float(rng.normal(0.0, 0.05)),
        ]
        for _ in range(steps)
    ]


class TestBatchMitigationEquivalence:
    def drive_pair(self, n_lanes, steps, baselines=None, params=None, seed=0):
        """Drive scalar controllers and a BatchMitigation on one stream."""
        params = params or MitigationParams(tau=0.5, bias=0.2)
        baselines = baselines or [synthetic_baseline()] * n_lanes
        scalar = [MitigationController(b, params) for b in baselines]
        batch_ctl = [MitigationController(b, params) for b in baselines]
        for lhs, rhs in zip(scalar, batch_ctl):
            assert lhs.baseline is rhs.baseline
        platforms = [_FakePlatform(c) for c in batch_ctl]
        batch = BatchMitigation(platforms, range(n_lanes))

        rng = np.random.default_rng(seed)
        streams = [_feature_stream(rng, steps) for _ in range(n_lanes)]
        y_ops = [
            [AdasCommand(float(rng.normal()), float(rng.normal(0.0, 0.1)))
             for _ in range(steps)]
            for _ in range(n_lanes)
        ]
        for t in range(steps):
            features = np.array([streams[i][t] for i in range(n_lanes)])
            y_a = np.array([y_ops[i][t].accel for i in range(n_lanes)])
            y_s = np.array([y_ops[i][t].steer for i in range(n_lanes)])
            rec, mla, mls = batch.step(tuple(range(n_lanes)), features, y_a, y_s)
            for i in range(n_lanes):
                cmd, r = scalar[i].step(streams[i][t], y_ops[i][t], 0.01)
                assert r == bool(rec[i]), (t, i)
                assert cmd.accel == mla[i], (t, i)
                assert cmd.steer == mls[i], (t, i)
        for lane in range(n_lanes):
            batch.retire(lane)
        for lhs, rhs in zip(scalar, batch_ctl):
            assert rhs._window == lhs._window
            assert rhs._s == lhs._s
            assert rhs.recovery == lhs.recovery
            assert rhs.activations == lhs.activations
        return scalar

    def test_single_lane_is_bit_identical(self):
        self.drive_pair(1, WINDOW + 40)

    def test_many_lanes_bit_identical_including_recovery(self):
        scalar = self.drive_pair(7, WINDOW + 120, seed=3)
        # The stream must actually exercise Algorithm 1's activation path,
        # or the equality above proves nothing about the CUSUM math.
        assert any(c.activations > 0 for c in scalar)

    def test_warm_up_shorter_than_window(self):
        self.drive_pair(3, WINDOW - 5)

    def test_mixed_baselines_group_per_network(self):
        baselines = [
            synthetic_baseline(seed=1),
            synthetic_baseline(seed=2),
            synthetic_baseline(seed=1, hidden=(16, 8)),
            synthetic_baseline(seed=2),
        ]
        self.drive_pair(4, WINDOW + 60, baselines=baselines, seed=11)

    def test_tie_breaking_params_bit_identical(self):
        # Thresholds sitting exactly on the comparison boundary: the
        # strict S > tau and inclusive delta <= bias branches must agree.
        params = MitigationParams(tau=0.0, bias=0.0)
        self.drive_pair(4, WINDOW + 30, params=params, seed=5)


class TestBatchMitigationInternals:
    def make(self, n=3, params=None):
        baseline = synthetic_baseline()
        params = params or MitigationParams()
        platforms = [
            _FakePlatform(MitigationController(baseline, params))
            for _ in range(n)
        ]
        return BatchMitigation(platforms, range(n)), platforms

    def test_rejects_non_stock_controller(self):
        class Custom(MitigationController):
            pass

        platform = _FakePlatform(Custom(synthetic_baseline()))
        with pytest.raises(ValueError, match="stock MitigationController"):
            BatchMitigation([platform], [0])

    def test_forward_runs_once_per_group_per_tick(self, monkeypatch):
        # One forward per network group per tick, every full-window lane a
        # row: a silent return to per-lane forwards fails here.
        calls = []
        real_forward = LstmNetwork.forward

        def counting_forward(net, x):
            calls.append((id(net), x.shape[0]))
            return real_forward(net, x)

        monkeypatch.setattr(LstmNetwork, "forward", counting_forward)
        shared, other = synthetic_baseline(seed=1), synthetic_baseline(seed=2)
        baselines = [shared, other, shared, shared, other]
        platforms = [
            _FakePlatform(MitigationController(b, MitigationParams()))
            for b in baselines
        ]
        batch = BatchMitigation(platforms, range(len(baselines)))
        rng = np.random.default_rng(0)
        for t in range(WINDOW + 3):
            calls.clear()
            batch.step(
                tuple(range(5)),
                np.array(_feature_stream(rng, 5)),
                np.zeros(5),
                np.zeros(5),
            )
            if t < WINDOW - 1:
                assert calls == []  # warm-up: no lane has a full window
            else:
                assert sorted(calls) == sorted(
                    [(id(shared.network), 3), (id(other.network), 2)]
                )
        # A lane subset forwards only its own full-window rows.
        calls.clear()
        batch.step((0, 1, 3), np.array(_feature_stream(rng, 3)),
                   np.zeros(3), np.zeros(3))
        assert sorted(calls) == sorted(
            [(id(shared.network), 2), (id(other.network), 1)]
        )

    def test_retire_ignores_non_ml_lane(self):
        baseline = synthetic_baseline()
        platforms = [
            _FakePlatform(MitigationController(baseline)),
            _FakePlatform(None),
        ]
        batch = BatchMitigation(platforms, [0])
        batch.retire(1)  # must not raise


_NETWORKS = {
    hidden: LstmNetwork(input_size=6, hidden_sizes=hidden, output_size=2, seed=4)
    for hidden in ((8, 6), (128, 64))
}


class TestRowExactForward:
    """``LstmNetwork.forward`` rows equal serial batch-of-one forwards.

    The matmuls agree by construction (per-row GEMVs at the serial shape);
    these properties pin the elementwise ``exp``/``tanh`` half, which runs
    once over all rows.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=64),
        hidden=st.sampled_from(sorted(_NETWORKS)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(width=1, hidden=(128, 64), seed=0)
    @example(width=5, hidden=(8, 6), seed=1)
    @example(width=63, hidden=(128, 64), seed=2)
    @example(width=64, hidden=(8, 6), seed=3)
    def test_rows_equal_predict_one_bytes(self, width, hidden, seed):
        net = _NETWORKS[hidden]
        x = np.random.default_rng(seed).normal(size=(width, WINDOW, 6))
        batched = net.forward(x)
        assert batched.shape == (width, 2)
        for r in range(width):
            single = net.forward(x[r : r + 1])
            assert single.shape == (1, 2)
            assert batched[r].tobytes() == single[0].tobytes(), r
            assert net.predict_one(x[r]).tobytes() == single[0].tobytes(), r

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=64),
        hidden=st.sampled_from(sorted(_NETWORKS)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(width=1, hidden=(128, 64), seed=0)
    @example(width=5, hidden=(8, 6), seed=1)
    @example(width=63, hidden=(128, 64), seed=2)
    @example(width=64, hidden=(8, 6), seed=3)
    def test_permuting_rows_permutes_output_bytes(self, width, hidden, seed):
        net = _NETWORKS[hidden]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(width, WINDOW, 6))
        order = rng.permutation(width)
        assert net.forward(x[order]).tobytes() == net.forward(x)[order].tobytes()
