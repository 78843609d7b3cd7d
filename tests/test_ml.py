"""Unit tests for the NumPy LSTM, Adam, dataset and Algorithm 1."""

import hashlib

import numpy as np
import pytest

from repro.adas.controlsd import AdasCommand
from repro.ml.dataset import FEATURE_NAMES, WINDOW, Trace, TraceDataset
from repro.ml.lstm import LstmNetwork
from repro.ml.mitigation import (
    MitigationController,
    MitigationFactory,
    MitigationParams,
)
from repro.ml.optim import Adam
from repro.ml.trainer import (
    EXPLORED_CONFIGS,
    TrainedBaseline,
    TrainerConfig,
    train_baseline,
)


def tiny_net(seed=0):
    return LstmNetwork(input_size=3, hidden_sizes=(8, 6), output_size=2, seed=seed)


class TestLstmForward:
    def test_output_shape(self):
        net = tiny_net()
        y = net.forward(np.zeros((4, 10, 3)))
        assert y.shape == (4, 2)

    def test_rejects_bad_shape(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((4, 10, 5)))

    def test_deterministic_init(self):
        a = tiny_net(seed=1).forward(np.ones((1, 5, 3)))
        b = tiny_net(seed=1).forward(np.ones((1, 5, 3)))
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = tiny_net(seed=1).forward(np.ones((1, 5, 3)))
        b = tiny_net(seed=2).forward(np.ones((1, 5, 3)))
        assert not np.allclose(a, b)

    def test_predict_one(self):
        net = tiny_net()
        y = net.predict_one(np.zeros((10, 3)))
        assert y.shape == (2,)


class TestGradients:
    def test_numerical_gradient_check(self):
        # Finite-difference check on a few random weights.
        rng = np.random.default_rng(0)
        net = LstmNetwork(input_size=2, hidden_sizes=(4,), output_size=1, seed=3)
        x = rng.normal(size=(3, 6, 2))
        t = rng.normal(size=(3, 1))
        _, grads = net.loss_and_grads(x, t)
        eps = 1e-6
        for p_idx in (0, 1, 2, 3):  # w_x, w_h, b, w_out
            param = net.params()[p_idx]
            flat_index = 1 % param.size
            idx = np.unravel_index(flat_index, param.shape)
            orig = param[idx]
            param[idx] = orig + eps
            loss_plus, _ = net.loss_and_grads(x, t)
            param[idx] = orig - eps
            loss_minus, _ = net.loss_and_grads(x, t)
            param[idx] = orig
            numeric = (loss_plus - loss_minus) / (2 * eps)
            analytic = grads[p_idx][idx]
            assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        net = tiny_net()
        optim = Adam(net.params(), lr=5e-3)
        x = rng.normal(size=(32, 10, 3))
        t = x[:, -1, :2] * 0.5  # learnable mapping
        first, _ = net.loss_and_grads(x, t)
        for _ in range(60):
            loss, grads = net.loss_and_grads(x, t)
            optim.step(grads)
        assert loss < 0.5 * first


class TestTrainingPin:
    """Training bytes are pinned: a change to the inference kernel or to the
    cached training pass must not move trained weights.

    The digests were recorded with NumPy's bundled OpenBLAS on x86-64;
    a BLAS whose GEMM sums in another order trains different bytes.
    """

    WEIGHTS_SHA256 = (
        "2ff497548fe4cb851787598d3ce6e7a4146cda8a7d520108b37118f1c17cc3c4"
    )
    FINAL_LOSS_HEX = "0x1.1f8c44674951fp+0"
    PREDICT_SHA256 = (
        "cebb355835d6068a2f109e5804a07fabda16c6c43acd6d026b1d5395cfa7e0f4"
    )

    def test_tiny_baseline_weights_and_loss(self):
        rng = np.random.default_rng(0)
        traces = [
            Trace(
                features=rng.normal(size=(400, len(FEATURE_NAMES))),
                targets=rng.normal(size=(400, 2)),
            )
        ]
        config = TrainerConfig(
            hidden_sizes=(8, 6), epochs=2, batch_size=16, stride=10
        )
        baseline = train_baseline(
            config, dataset=TraceDataset(traces, stride=10)
        )
        weights = hashlib.sha256()
        for param in baseline.network.params():
            weights.update(param.tobytes())
        assert weights.hexdigest() == self.WEIGHTS_SHA256
        assert baseline.final_loss.hex() == self.FINAL_LOSS_HEX
        # Serial inference on the trained weights is pinned too.
        windows = np.random.default_rng(1).normal(
            size=(3, WINDOW, len(FEATURE_NAMES))
        )
        predict = hashlib.sha256()
        for window in windows:
            predict.update(baseline.network.predict_one(window).tobytes())
        assert predict.hexdigest() == self.PREDICT_SHA256


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        net = tiny_net()
        x = np.random.default_rng(1).normal(size=(2, 5, 3))
        before = net.forward(x)
        path = str(tmp_path / "net.npz")
        net.save(path)
        loaded = LstmNetwork.load(path)
        assert np.allclose(loaded.forward(x), before)

    def test_baseline_save_load(self, tmp_path):
        net = tiny_net()
        baseline = TrainedBaseline(
            network=net,
            feature_mean=np.zeros(3),
            feature_std=np.ones(3),
            target_mean=np.zeros(2),
            target_std=np.ones(2),
            final_loss=0.1,
        )
        path = str(tmp_path / "baseline")
        baseline.save(path)
        loaded = TrainedBaseline.load(path)
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert np.allclose(loaded.predict(x), baseline.predict(x))
        assert loaded.final_loss == pytest.approx(0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        w = np.array([5.0])
        optim = Adam([w], lr=0.1)
        for _ in range(300):
            optim.step([2.0 * w])  # d/dw of w^2
        assert abs(w[0]) < 0.1

    def test_gradient_clipping(self):
        w = np.array([0.0])
        optim = Adam([w], lr=0.1, clip=1.0)
        optim.step([np.array([1e9])])
        assert abs(w[0]) <= 0.2

    def test_length_mismatch(self):
        optim = Adam([np.zeros(2)])
        with pytest.raises(ValueError):
            optim.step([])

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], lr=0.0)


class TestDataset:
    def make_traces(self, steps=200):
        rng = np.random.default_rng(0)
        return [
            Trace(
                features=rng.normal(size=(steps, len(FEATURE_NAMES))),
                targets=rng.normal(size=(steps, 2)),
            )
        ]

    def test_window_extraction(self):
        ds = TraceDataset(self.make_traces(), window=20, stride=10)
        assert ds.x.shape[1] == 20
        assert ds.x.shape[2] == len(FEATURE_NAMES)
        assert len(ds) == ds.y.shape[0]

    def test_normalisation_round_trip(self):
        ds = TraceDataset(self.make_traces())
        y = np.array([[1.0, -0.5]])
        assert np.allclose(ds.denormalise_y(ds.normalise_y(y)), y)

    def test_normalised_features_standardised(self):
        ds = TraceDataset(self.make_traces(steps=2000), stride=1)
        x = ds.normalise_x(ds.x)
        flat = x.reshape(-1, x.shape[-1])
        assert np.allclose(flat.mean(axis=0), 0.0, atol=0.05)
        assert np.allclose(flat.std(axis=0), 1.0, atol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceDataset(self.make_traces(), window=1)
        with pytest.raises(ValueError):
            TraceDataset(self.make_traces(), stride=0)
        with pytest.raises(ValueError):
            TraceDataset(self.make_traces(steps=5), window=20)

    def test_paper_window_constant(self):
        assert WINDOW == 20  # 0.2 s at 100 Hz

    def test_explored_configs_match_paper(self):
        assert (128, 64) in EXPLORED_CONFIGS  # the paper's best
        assert len(EXPLORED_CONFIGS) == 6


class _ConstantBaseline:
    """Predicts a fixed output regardless of input (test double)."""

    def __init__(self, accel, steer):
        self._y = np.array([accel, steer])

    def predict(self, window):
        return self._y.copy()


class TestAlgorithm1:
    def make(self, accel=-2.0, steer=0.0, **kwargs):
        params = MitigationParams(**kwargs) if kwargs else MitigationParams()
        return MitigationController(_ConstantBaseline(accel, steer), params)

    def feed(self, controller, y_op, steps):
        features = [20.0, 50.0, 0.9, 0.9, 0.0, 0.0]
        out = (AdasCommand(0.0, 0.0), False)
        for _ in range(steps):
            out = controller.step(features, y_op, 0.01)
        return out

    def test_no_detection_before_window_filled(self):
        ctl = self.make()
        cmd, recovery = self.feed(ctl, AdasCommand(2.0, 0.0), WINDOW - 1)
        assert not recovery
        assert ctl.cusum == 0.0

    def test_cusum_accumulates_under_divergence(self):
        ctl = self.make(accel=-2.0, tau=3.0, bias=0.35)
        self.feed(ctl, AdasCommand(2.0, 0.0), WINDOW + 1)
        assert ctl.cusum > 0.0

    def test_recovery_activates_above_tau(self):
        ctl = self.make(accel=-2.0, tau=3.0)
        cmd, recovery = self.feed(ctl, AdasCommand(2.0, 0.0), WINDOW + 5)
        assert recovery
        assert cmd.accel == pytest.approx(-2.0)
        assert ctl.activations == 1

    def test_no_accumulation_when_agreeing(self):
        ctl = self.make(accel=1.0)
        _, recovery = self.feed(ctl, AdasCommand(1.0, 0.0), WINDOW + 50)
        assert not recovery
        assert ctl.cusum == 0.0  # bias drains residual noise (line 2)

    def test_recovery_exits_on_reconvergence_and_resets(self):
        ctl = self.make(accel=-2.0, tau=3.0)
        self.feed(ctl, AdasCommand(2.0, 0.0), WINDOW + 5)
        assert ctl.recovery
        _, recovery = self.feed(ctl, AdasCommand(-2.0, 0.0), 2)
        assert not recovery
        assert ctl.cusum == 0.0  # Algorithm 1 line 16

    def test_output_clamped_to_envelope(self):
        ctl = self.make(accel=-50.0, tau=0.1)
        cmd, recovery = self.feed(ctl, AdasCommand(2.0, 0.0), WINDOW + 5)
        assert recovery
        assert cmd.accel == ctl.params.min_accel

    def test_feature_length_validation(self):
        ctl = self.make()
        with pytest.raises(ValueError):
            ctl.step([1.0, 2.0], AdasCommand(0.0, 0.0), 0.01)

    def test_reset(self):
        ctl = self.make(accel=-2.0, tau=3.0)
        self.feed(ctl, AdasCommand(2.0, 0.0), WINDOW + 5)
        ctl.reset()
        assert ctl.cusum == 0.0
        assert not ctl.recovery


class TestAlgorithm1EdgeSemantics:
    """Pins the exact step semantics the batch path must replicate.

    These contracts (warm-up mirroring, the strict ``S > tau`` crossing,
    reset-on-exit, per-episode factory isolation) are what
    :class:`repro.sim.batch_ml.BatchMitigation` vectorizes — any drift
    here breaks the batch/serial bit-identity gate.
    """

    FEATURES = [20.0, 50.0, 0.9, 0.9, 0.0, 0.0]

    def make(self, accel=-2.0, steer=0.0, **kwargs):
        params = MitigationParams(**kwargs) if kwargs else MitigationParams()
        return MitigationController(_ConstantBaseline(accel, steer), params)

    def test_warm_up_mirrors_y_op_verbatim(self):
        # With fewer than WINDOW samples the controller must return the
        # exact OP command object, never a prediction.
        ctl = self.make(accel=-50.0)
        y_op = AdasCommand(1.25, -0.03)
        for step in range(WINDOW - 1):
            cmd, recovery = ctl.step(self.FEATURES, y_op, 0.01)
            assert cmd is y_op
            assert recovery is False
            assert ctl.cusum == 0.0
            assert len(ctl._window) == step + 1
        # Step WINDOW is the first one that predicts.
        cmd, _ = ctl.step(self.FEATURES, y_op, 0.01)
        assert cmd is not y_op
        assert len(ctl._window) == WINDOW

    def test_window_slides_and_keeps_latest_samples(self):
        ctl = self.make()
        for i in range(WINDOW + 7):
            features = [float(i)] * len(FEATURE_NAMES)
            ctl.step(features, AdasCommand(0.0, 0.0), 0.01)
        assert len(ctl._window) == WINDOW
        assert ctl._window[0][0] == 7.0  # oldest surviving sample
        assert ctl._window[-1][0] == float(WINDOW + 6)

    def test_threshold_crossing_is_strict(self):
        # delta = |1.0 - 0.0| = 1.0 per step, bias 0.5 -> S grows by
        # exactly 0.5/step (representable); tau = 1.0.  S reaches tau
        # exactly on the second post-warm-up step and must NOT trigger
        # (Algorithm 1 line 10 is strict); the third step crosses.
        ctl = self.make(accel=1.0, tau=1.0, bias=0.5)
        y_op = AdasCommand(0.0, 0.0)
        for _ in range(WINDOW - 1):
            ctl.step(self.FEATURES, y_op, 0.01)
        _, rec = ctl.step(self.FEATURES, y_op, 0.01)
        assert ctl.cusum == 0.5 and not rec
        _, rec = ctl.step(self.FEATURES, y_op, 0.01)
        assert ctl.cusum == 1.0 and not rec  # S == tau: no activation
        _, rec = ctl.step(self.FEATURES, y_op, 0.01)
        assert ctl.cusum == 1.5 and rec
        assert ctl.activations == 1

    def test_exit_boundary_is_inclusive_and_resets_s(self):
        # Recovery exits when delta <= bias (inclusive); S resets to 0.
        ctl = self.make(accel=1.0, tau=1.0, bias=0.5)
        y_op_diverged = AdasCommand(0.0, 0.0)
        for _ in range(WINDOW + 2):
            ctl.step(self.FEATURES, y_op_diverged, 0.01)
        assert ctl.recovery
        # delta = |1.0 - 0.5| = 0.5 == bias: must exit and reset.
        _, rec = ctl.step(self.FEATURES, AdasCommand(0.5, 0.0), 0.01)
        assert not rec
        assert ctl.cusum == 0.0

    def test_activation_and_exit_never_share_a_step(self):
        # The scalar `elif` evaluates exit against the *pre-step* recovery
        # flag: a step that activates cannot also exit, even if its delta
        # would satisfy the exit test.
        ctl = self.make(accel=1.0, tau=0.1, bias=2.0)
        ctl._s = 5.0
        ctl._window = [list(self.FEATURES)] * WINDOW
        # delta = 1.0 <= bias, but recovery was False: activation wins.
        _, rec = ctl.step(self.FEATURES, AdasCommand(0.0, 0.0), 0.01)
        assert rec
        assert ctl.activations == 1

    def test_cusum_floors_at_zero(self):
        # bias > delta drains S but max(0, .) floors it at exactly +0.0.
        ctl = self.make(accel=1.0, bias=5.0)
        for _ in range(WINDOW + 10):
            _, rec = ctl.step(self.FEATURES, AdasCommand(0.0, 0.0), 0.01)
        assert ctl.cusum == 0.0
        assert not rec

    def test_factory_controllers_are_isolated_between_episodes(self):
        factory = MitigationFactory(
            _ConstantBaseline(-2.0, 0.0),
            MitigationParams(tau=1.0, bias=0.5),
            digest_token="test:constant",
        )
        first = factory()
        for _ in range(WINDOW + 5):
            first.step(self.FEATURES, AdasCommand(2.0, 0.0), 0.01)
        assert first.recovery and first.activations == 1
        second = factory()
        # Fresh CUSUM/window state; shared (read-only) baseline + params.
        assert second is not first
        assert second.cusum == 0.0
        assert not second.recovery
        assert second.activations == 0
        assert second._window == []
        assert second.baseline is first.baseline
        assert second.params is first.params
        # Driving the new controller must not disturb the old one's state.
        second.step(self.FEATURES, AdasCommand(2.0, 0.0), 0.01)
        assert first.recovery and len(first._window) == WINDOW
