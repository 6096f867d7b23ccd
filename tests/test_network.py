import warnings

import numpy as np
import pytest

from gaslift_twin import network as nw
from gaslift_twin.errors import DivergedLoss, ShapeMismatch
from gaslift_twin.structure import NarxLayout, assemble_narx_dataset


def random_spec(rng, seed=0):
    n_hidden = int(rng.integers(0, 3))
    sizes = (
        [int(rng.integers(2, 7))]
        + [int(rng.integers(2, 9)) for _ in range(n_hidden)]
        + [1]
    )
    acts = tuple(
        str(rng.choice(["relu", "tanh", "linear"])) for _ in range(len(sizes) - 1)
    )
    return nw.NetworkSpec(tuple(sizes), acts, seed=seed)


def central_difference(theta, spec, X, y, h=1e-6):
    fd = np.empty_like(theta)
    for i in range(len(theta)):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        fd[i] = (nw.mse_loss(tp, spec, X, y) - nw.mse_loss(tm, spec, X, y)) / (2 * h)
    return fd


class TestNetworkSpec:
    def test_reference_parameter_counts(self):
        spec = nw.NetworkSpec((14, 60, 1), ("relu", "linear"))
        assert spec.layer_param_counts == (900, 61)
        assert spec.n_params == 961
        assert spec.layer_shapes == ((14, 60), (60, 1))

    def test_rejects_bad_architectures(self):
        with pytest.raises(ValueError):
            nw.NetworkSpec((4, 2), ("linear",))          # output width 2
        with pytest.raises(ValueError):
            nw.NetworkSpec((4, 1), ("sigmoid",))
        with pytest.raises(ValueError):
            nw.NetworkSpec((4, 3, 1), ("relu",))         # missing activation
        with pytest.raises(ValueError):
            nw.NetworkSpec((0, 1), ("linear",))
        with pytest.raises(ValueError):
            nw.NetworkSpec((4, 1), ("linear",), learning_rate=0.0)


class TestNetworkWeights:
    def test_length_must_match_layout(self):
        with pytest.raises(ShapeMismatch):
            nw.NetworkWeights(theta=np.zeros(5), layer_sizes=(3, 1))

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeMismatch):
            nw.NetworkWeights(theta=np.array([1.0, np.nan, 0.0, 0.0]), layer_sizes=(3, 1))


class TestForward:
    def test_zero_weights_predict_zero(self):
        spec = nw.NetworkSpec((5, 8, 1), ("relu", "linear"))
        theta = np.zeros(spec.n_params)
        rng = np.random.Generator(np.random.PCG64(0))
        assert (nw.forward(theta, spec, rng.normal(size=(20, 5))) == 0.0).all()

    def test_single_linear_layer_is_affine(self):
        spec = nw.NetworkSpec((1, 1), ("linear",))
        theta = np.array([2.5, -0.75])     # weight then bias
        assert nw.forward(theta, spec, np.array([[3.0]])) == pytest.approx([2.5 * 3.0 - 0.75])

    def test_one_prediction_per_row(self):
        spec = nw.NetworkSpec((2, 3, 1), ("tanh", "linear"), seed=4)
        w = nw.initialize(spec)
        assert nw.forward(w, spec, np.array([[0.1, 0.2]])).shape == (1,)
        batch = nw.forward(w, spec, np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert batch.shape == (2,)
        # rows are a matrix; a bare row is not taken as one
        with pytest.raises(ShapeMismatch):
            nw.forward(w, spec, np.array([0.1, 0.2]))

    def test_width_mismatch(self):
        spec = nw.NetworkSpec((3, 1), ("linear",))
        with pytest.raises(ShapeMismatch):
            nw.forward(np.zeros(4), spec, np.ones((5, 2)))

    def test_stacked_members_match_loop(self):
        spec = nw.NetworkSpec((4, 5, 1), ("relu", "linear"))
        thetas = np.stack(
            [nw.initialize(nw.NetworkSpec((4, 5, 1), ("relu", "linear"), seed=k)).theta
             for k in range(6)]
        )
        rng = np.random.Generator(np.random.PCG64(1))
        X = rng.normal(size=(9, 4))
        stacked = nw.forward(thetas, spec, X)
        assert stacked.shape == (6, 9)
        for k in range(6):
            assert np.allclose(stacked[k], nw.forward(thetas[k], spec, X), rtol=1e-13)


class TestForwardPlan:
    SPEC = nw.NetworkSpec((9, 30, 30, 1), ("tanh", "relu", "linear"))

    def _stack(self, lead, seed=0):
        rng = np.random.Generator(np.random.PCG64(seed))
        return rng.normal(scale=0.4, size=(*lead, self.SPEC.n_params))

    @pytest.mark.parametrize("lead, rows_shape", [
        ((), (1, 9)),               # a single vector on a single row
        ((), (7, 9)),               # a single vector on a batch
        ((16,), (7, 9)),            # an (R, P) stack on (n, w) rows
        ((6, 17), (6, 1, 1, 9)),    # the twin's (C, R, P) stack, one row per channel
    ])
    def test_equals_a_fresh_forward_and_the_trace(self, trace_reference, lead, rows_shape):
        theta = self._stack(lead)
        plan = nw.ForwardPlan(theta, self.SPEC, rows_shape)
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(3):          # the buffers are reused call after call
            X = rng.normal(size=rows_shape)
            got = nw.forward(plan, self.SPEC, X).copy()
            fresh = nw.forward(theta, self.SPEC, X)
            assert got.shape == fresh.shape
            assert got.tobytes() == fresh.tobytes()
            _, acts = trace_reference(theta, self.SPEC, X)
            assert got.tobytes() == acts[-1][..., 0].reshape(got.shape).tobytes()

    def test_result_is_a_view_the_next_call_overwrites(self):
        theta = self._stack((4,))
        plan = nw.ForwardPlan(theta, self.SPEC, (3, 9))
        first = nw.forward(plan, self.SPEC, np.zeros((3, 9)))
        kept = first.copy()
        second = nw.forward(plan, self.SPEC, np.ones((3, 9)))
        assert second is first
        assert not np.array_equal(second, kept)

    def test_sees_in_place_weight_writes(self):
        theta = self._stack((2, 5))
        plan = nw.ForwardPlan(theta, self.SPEC, (2, 1, 1, 9))
        X = np.random.Generator(np.random.PCG64(2)).normal(size=(2, 1, 1, 9))
        nw.forward(plan, self.SPEC, X)
        theta[1, 3] *= -2.0
        theta[0, 0, -1] += 1.0       # an output bias
        got = nw.forward(plan, self.SPEC, X)
        assert plan.theta is theta
        assert got.tobytes() == nw.forward(theta.copy(), self.SPEC, X).tobytes()

    @pytest.mark.parametrize("rows_shape", [(2, 9), (3, 1, 9), (3, 1, 1, 8), (9,)])
    def test_rows_of_another_shape_raise(self, rows_shape):
        plan = nw.ForwardPlan(self._stack((3, 4)), self.SPEC, (3, 1, 1, 9))
        with pytest.raises(ShapeMismatch):
            nw.forward(plan, self.SPEC, np.zeros(rows_shape))

    def test_width_mismatch_at_construction(self):
        with pytest.raises(ShapeMismatch):
            nw.ForwardPlan(self._stack(()), self.SPEC, (5, 8))


class TestGradient:
    def test_zero_at_perfect_fit(self):
        spec = nw.NetworkSpec((2, 1), ("linear",))
        theta = np.array([1.5, -2.0, 0.25])
        rng = np.random.Generator(np.random.PCG64(2))
        X = rng.normal(size=(15, 2))
        y = X @ theta[:2] + theta[2]
        assert (nw.gradient(theta, spec, X, y) == 0.0).all()

    def test_hand_formula_single_linear_neuron(self):
        spec = nw.NetworkSpec((3, 1), ("linear",))
        theta = np.array([0.5, -1.0, 2.0, 0.3])
        x = np.array([[1.0, 2.0, 3.0]])
        y = np.array([4.0])
        pred = nw.forward(theta, spec, x)
        g = nw.gradient(theta, spec, x, y)
        assert np.allclose(g, 2 * (pred - 4.0) * np.array([1.0, 2.0, 3.0, 1.0]), rtol=1e-14)

    def test_matches_central_differences(self):
        # relative error floored well above the FD roundoff resolution
        rng = np.random.Generator(np.random.PCG64(5))
        for cfg in range(15):
            spec = random_spec(rng, seed=cfg)
            theta = rng.normal(scale=0.7, size=spec.n_params)
            X = rng.normal(size=(6, spec.n_inputs))
            y = rng.normal(size=6)
            g = nw.gradient(theta, spec, X, y)
            fd = central_difference(theta, spec, X, y)
            rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
            assert rel.max() < 1e-5
            assert np.abs(g - fd).max() < 1e-8

    def test_empty_batch_rejected(self):
        spec = nw.NetworkSpec((2, 1), ("linear",))
        with pytest.raises(ShapeMismatch):
            nw.gradient(np.zeros(3), spec, np.empty((0, 2)), np.empty(0))

    def test_bare_row_rejected(self):
        # one sample is a (1, width) matrix, as forward takes it
        spec = nw.NetworkSpec((2, 1), ("linear",))
        with pytest.raises(ShapeMismatch, match="batch regressor rows"):
            nw.gradient(np.zeros(3), spec, np.array([1.0, 2.0]), np.array([0.5]))

    def test_stacked_members_match_loop(self):
        spec = nw.NetworkSpec((3, 4, 1), ("tanh", "linear"))
        thetas = np.stack(
            [nw.initialize(nw.NetworkSpec((3, 4, 1), ("tanh", "linear"), seed=k)).theta
             for k in range(5)]
        )
        rng = np.random.Generator(np.random.PCG64(3))
        X = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        stacked = nw.gradient(thetas, spec, X, y)
        assert stacked.shape == (5, spec.n_params)
        for k in range(5):
            assert np.allclose(stacked[k], nw.gradient(thetas[k], spec, X, y), rtol=1e-12)


class TestEvaluate:
    def test_exact_predictions(self):
        spec = nw.NetworkSpec((1, 1), ("linear",))
        theta = np.array([2.0, 0.0])
        x = np.linspace(0, 1, 9)
        m = nw.evaluate(theta, spec, x[:, None], 2.0 * x)
        assert (m.mse, m.mae) == (0.0, 0.0)

    def test_constant_offset(self):
        spec = nw.NetworkSpec((1, 1), ("linear",))
        theta = np.array([1.0, 0.5])     # predicts x + 0.5
        x = np.linspace(-1, 1, 7)
        m = nw.evaluate(theta, spec, x[:, None], x)
        assert m.mse == pytest.approx(0.25, rel=1e-14)
        assert m.mae == pytest.approx(0.5, rel=1e-14)

    def test_mae_squared_never_exceeds_mse(self):
        rng = np.random.Generator(np.random.PCG64(7))
        spec = nw.NetworkSpec((2, 4, 1), ("relu", "linear"), seed=1)
        w = nw.initialize(spec)
        for _ in range(20):
            X = rng.normal(size=(12, 2))
            y = rng.normal(size=12)
            m = nw.evaluate(w, spec, X, y)
            assert m.mae**2 <= m.mse + 1e-15

    def test_empty_rows_rejected(self):
        spec = nw.NetworkSpec((1, 1), ("linear",))
        with pytest.raises(ShapeMismatch):
            nw.evaluate(np.zeros(2), spec, np.empty((0, 1)), np.empty(0))


class TestTrain:
    def _linear_problem(self):
        rng = np.random.Generator(np.random.PCG64(11))
        u = rng.uniform(-1.0, 1.0, size=400)
        X, y = u[:, None], 2.0 * u
        return X[:300], y[:300], X[300:], y[300:]

    def test_exact_linear_recovery(self):
        Xt, yt, Xv, yv = self._linear_problem()
        spec = nw.NetworkSpec(
            (1, 1), ("linear",), learning_rate=5e-2, batch_size=32, epochs=500, seed=0
        )
        res = nw.train(spec, Xt, yt, Xv, yv, patience=100)
        assert min(res.val_loss) < 1e-8
        assert nw.evaluate(res.weights, spec, Xv, yv).mse < 1e-8

    def test_zero_epochs_returns_initial(self):
        Xt, yt, Xv, yv = self._linear_problem()
        spec = nw.NetworkSpec((1, 3, 1), ("tanh", "linear"), epochs=0, seed=5)
        init = nw.initialize(spec)
        res = nw.train(spec, Xt, yt, Xv, yv)
        assert (res.weights.theta == init.theta).all()
        assert res.train_loss == () and res.val_loss == ()
        assert res.best_epoch == -1

    def test_returns_best_on_validation(self):
        Xt, yt, Xv, yv = self._linear_problem()
        spec = nw.NetworkSpec(
            (1, 4, 1), ("relu", "linear"), learning_rate=1e-2, batch_size=64,
            epochs=40, seed=2,
        )
        res = nw.train(spec, Xt, yt, Xv, yv, patience=10)
        best = min(res.val_loss)
        assert res.val_loss[res.best_epoch] == best
        assert nw.evaluate(res.weights, spec, Xv, yv).mse == pytest.approx(best, rel=1e-12)
        assert len(res.val_loss) <= res.best_epoch + 1 + 10

    def test_deterministic(self):
        Xt, yt, Xv, yv = self._linear_problem()
        spec = nw.NetworkSpec(
            (1, 5, 1), ("relu", "linear"), learning_rate=1e-2, epochs=15, seed=9
        )
        a = nw.train(spec, Xt, yt, Xv, yv)
        b = nw.train(spec, Xt, yt, Xv, yv)
        assert (a.weights.theta == b.weights.theta).all()
        assert a.val_loss == b.val_loss

    def test_warm_start_continues(self):
        Xt, yt, Xv, yv = self._linear_problem()
        spec = nw.NetworkSpec(
            (1, 1), ("linear",), learning_rate=2e-2, batch_size=64, epochs=30, seed=3
        )
        first = nw.train(spec, Xt, yt, Xv, yv, patience=100)
        resumed = nw.train(spec, Xt, yt, Xv, yv, initial=first.weights, patience=100)
        assert min(resumed.val_loss) <= min(first.val_loss)

    def test_diverged_loss(self):
        Xt, yt, Xv, yv = self._linear_problem()
        spec = nw.NetworkSpec(
            (1, 1), ("linear",), learning_rate=1e200, batch_size=300, epochs=5, seed=0
        )
        with pytest.raises(DivergedLoss):
            nw.train(spec, Xt, yt, Xv, yv)

    @pytest.mark.parametrize("extra_train, extra_val", [(2, 0), (-2, 0), (0, 2)])
    def test_targets_must_match_regressor_rows(self, extra_train, extra_val):
        Xt, yt, Xv, yv = self._linear_problem()
        yt = np.resize(yt, len(yt) + extra_train)
        yv = np.resize(yv, len(yv) + extra_val)
        spec = nw.NetworkSpec((1, 1), ("linear",), epochs=2)
        with pytest.raises(ShapeMismatch, match="targets"):
            nw.train(spec, Xt, yt, Xv, yv)

    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_bare_row_split_rejected(self, split):
        Xt, yt, Xv, yv = self._linear_problem()
        if split == "training":
            Xt, yt = Xt[0], yt[:1]
        else:
            Xv, yv = Xv[0], yv[:1]
        spec = nw.NetworkSpec((1, 1), ("linear",), epochs=2)
        with pytest.raises(ShapeMismatch, match=f"{split} regressor rows"):
            nw.train(spec, Xt, yt, Xv, yv)

    def test_plain_full_batch_descent_monotone_on_linear_net(self):
        rng = np.random.Generator(np.random.PCG64(13))
        X = rng.normal(size=(50, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.3
        spec = nw.NetworkSpec((3, 1), ("linear",))
        theta = nw.initialize(nw.NetworkSpec((3, 1), ("linear",), seed=1)).theta
        lam_max = np.linalg.eigvalsh(2.0 * np.column_stack([X, np.ones(50)]).T
                                     @ np.column_stack([X, np.ones(50)]) / 50).max()
        lr = 0.9 / lam_max
        losses = [float(nw.mse_loss(theta, spec, X, y))]
        for _ in range(200):
            theta = theta - lr * nw.gradient(theta, spec, X, y)
            losses.append(float(nw.mse_loss(theta, spec, X, y)))
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def solo_run(spec, X, y, Xv, yv, theta, **kwargs):
    return nw.train(spec, X, y, Xv, yv,
                    initial=nw.NetworkWeights(theta, spec.layer_sizes), **kwargs)


def assert_row_equals_solo(res, row, solo):
    """Row ``row`` of a stacked result equals a single-vector result bit for
    bit: weights, best epoch, and histories up to the row's last epoch, NaN
    after it."""
    k = len(solo.val_loss)
    assert np.array_equal(res.weights.theta[row], solo.weights.theta)
    assert res.best_epoch[row] == solo.best_epoch
    for stacked, single in ((res.train_loss, solo.train_loss),
                            (res.val_loss, solo.val_loss)):
        assert np.array_equal(stacked[:k, row], single)
        assert np.isnan(stacked[k:, row]).all()


def stack_problem(rows, seed=0):
    """A smooth 3-input target with a per-row shift: 120 training and 40
    validation rows, targets shaped (rows, n)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.uniform(-1.0, 1.0, size=(160, 3))
    shift = rng.normal(scale=0.5, size=(rows, 1))
    Y = np.sin(2.0 * X[:, 0]) - X[:, 1] * X[:, 2] + shift
    Y = Y + rng.normal(scale=0.05, size=Y.shape)
    return X[:120], Y[:, :120], X[120:], Y[:, 120:]


class TestTrainStack:

    @pytest.mark.parametrize("rows", [1, 3, 9])
    def test_rows_equal_single_vector_runs(self, rows):
        X, Y, Xv, Yv = stack_problem(rows)
        spec = nw.NetworkSpec((3, 6, 1), ("tanh", "linear"), learning_rate=3e-2,
                              batch_size=16, seed=4)
        rng = np.random.Generator(np.random.PCG64(rows))
        init = rng.normal(scale=0.6, size=(rows, spec.n_params))
        res = nw.train(spec, X, Y, Xv, Yv, initial=init, epochs=40, patience=3)
        assert res.val_loss.shape[1:] == (rows,)
        assert res.best_epoch.shape == res.diverged.shape == (rows,)
        assert not res.diverged.any()
        runs = []
        for r in range(rows):
            solo = solo_run(spec, X, Y[r], Xv, Yv[r], init[r], epochs=40, patience=3)
            assert_row_equals_solo(res, r, solo)
            runs.append(len(solo.val_loss))
        assert len(res.val_loss) == max(runs)
        if rows > 1:
            assert len(set(runs)) > 1, "rows should stop at different epochs"

    @pytest.mark.parametrize("scale, stage", [(1e308, "parameters diverged"),
                                              (1e200, "non-finite loss")])
    def test_diverged_row_is_reported_and_the_others_run_on(self, scale, stage):
        # 1e308 overflows the predictions, so the weights turn non-finite
        # within the first batch; 1e200 keeps them finite but overflows the loss
        X, Y, Xv, Yv = stack_problem(3, seed=1)
        spec = nw.NetworkSpec((3, 1), ("linear",), learning_rate=2e-2,
                              batch_size=16, seed=2)
        init = np.array([[0.5, -0.2, 0.1, 0.0], [scale, scale, scale, 0.0],
                         [-0.3, 0.4, 0.2, 0.1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = nw.train(spec, X, Y, Xv, Yv, initial=init, epochs=30, patience=5)
        assert res.diverged.tolist() == [False, True, False]
        assert res.best_epoch[1] == -1
        assert np.isnan(res.val_loss[:, 1]).all()
        assert np.array_equal(res.weights.theta[1], init[1])
        for r in (0, 2):
            assert_row_equals_solo(res, r, solo_run(spec, X, Y[r], Xv, Yv[r], init[r],
                                                    epochs=30, patience=5))
        with pytest.raises(DivergedLoss, match=stage):
            solo_run(spec, X, Y[1], Xv, Yv[1], init[1], epochs=30, patience=5)

    def test_targets_must_have_one_row_per_stack_row(self):
        X, Y, Xv, Yv = stack_problem(3)
        spec = nw.NetworkSpec((3, 1), ("linear",))
        init = np.zeros((2, spec.n_params))
        with pytest.raises(ShapeMismatch):
            nw.train(spec, X, Y, Xv, Yv[:2], initial=init, epochs=1)

    def test_zero_epochs_returns_the_stack(self):
        X, Y, Xv, Yv = stack_problem(2)
        spec = nw.NetworkSpec((3, 1), ("linear",))
        init = np.arange(2 * spec.n_params, dtype=float).reshape(2, -1)
        res = nw.train(spec, X, Y, Xv, Yv, initial=init, epochs=0)
        assert np.array_equal(res.weights.theta, init)
        assert res.val_loss.shape == (0, 2)
        assert res.best_epoch.tolist() == [-1, -1]


# relu, tanh and linear in hidden and output positions, 0 to 3 hidden layers
REFERENCE_NETS = [
    ((3, 1), ("linear",)),
    ((3, 6, 1), ("relu", "linear")),
    ((3, 5, 4, 1), ("tanh", "relu", "tanh")),
    ((3, 4, 4, 4, 1), ("linear", "tanh", "relu", "relu")),
]


def assert_matches_reference(got, ref):
    """Weights, validation losses, best epochs and divergence equal the
    reference loop's bit for bit, over the same number of epochs."""
    assert np.array_equal(got.weights.theta, ref.weights.theta)
    assert np.array_equal(got.val_loss, ref.val_loss, equal_nan=True)
    assert np.array_equal(got.best_epoch, ref.best_epoch)
    assert np.array_equal(got.diverged, ref.diverged)
    assert len(got.train_loss) == len(ref.train_loss)


class TestTrainMatchesReference:
    """``train`` against ``conftest.reference_train``, the loop with a
    full-split loss pass and out-of-place Adam."""

    def _spec(self, net):
        sizes, acts = net
        return nw.NetworkSpec(sizes, acts, learning_rate=3e-2, batch_size=16, seed=4)

    @pytest.mark.parametrize("net", REFERENCE_NETS)
    @pytest.mark.parametrize("warm", [False, True])
    def test_single_vector(self, train_reference, net, warm):
        X, Y, Xv, Yv = stack_problem(1, seed=2)
        spec = self._spec(net)
        initial = None
        if warm:
            rng = np.random.Generator(np.random.PCG64(7))
            initial = nw.NetworkWeights(rng.normal(scale=0.6, size=spec.n_params),
                                        spec.layer_sizes)
        kwargs = dict(initial=initial, epochs=40, patience=3)
        got = nw.train(spec, X, Y[0], Xv, Yv[0], **kwargs)
        assert isinstance(got.best_epoch, int) and isinstance(got.val_loss, tuple)
        assert_matches_reference(got, train_reference(spec, X, Y[0], Xv, Yv[0], **kwargs))

    @pytest.mark.parametrize("net", REFERENCE_NETS)
    @pytest.mark.parametrize("rows", [1, 3, 9])
    def test_stack(self, train_reference, net, rows):
        X, Y, Xv, Yv = stack_problem(rows)
        spec = self._spec(net)
        rng = np.random.Generator(np.random.PCG64(rows))
        init = rng.normal(scale=0.6, size=(rows, spec.n_params))
        kwargs = dict(initial=init, epochs=40, patience=3)
        got = nw.train(spec, X, Y, Xv, Yv, **kwargs)
        assert_matches_reference(got, train_reference(spec, X, Y, Xv, Yv, **kwargs))

    def test_rows_stop_at_different_epochs(self, train_reference):
        X, Y, Xv, Yv = stack_problem(9)
        spec = self._spec(REFERENCE_NETS[1])
        init = np.random.Generator(np.random.PCG64(9)).normal(scale=0.6,
                                                                size=(9, spec.n_params))
        got = nw.train(spec, X, Y, Xv, Yv, initial=init, epochs=40, patience=3)
        stopped = np.isnan(got.val_loss).sum(axis=0)
        assert len(set(stopped.tolist())) > 1
        assert_matches_reference(got, train_reference(spec, X, Y, Xv, Yv, initial=init,
                                                       epochs=40, patience=3))

    @pytest.mark.parametrize("scale, stage", [(1e308, "parameters diverged"),
                                              (1e200, "non-finite loss")])
    def test_diverging_row(self, train_reference, scale, stage):
        X, Y, Xv, Yv = stack_problem(3, seed=1)
        spec = nw.NetworkSpec((3, 1), ("linear",), learning_rate=2e-2, batch_size=16,
                              seed=2)
        init = np.array([[0.5, -0.2, 0.1, 0.0], [scale, scale, scale, 0.0],
                         [-0.3, 0.4, 0.2, 0.1]])
        kwargs = dict(initial=init, epochs=30, patience=5)
        got = nw.train(spec, X, Y, Xv, Yv, **kwargs)
        assert got.diverged.tolist() == [False, True, False]
        assert_matches_reference(got, train_reference(spec, X, Y, Xv, Yv, **kwargs))
        single = dict(initial=init[1], epochs=30, patience=5)
        with pytest.raises(DivergedLoss, match=stage):
            train_reference(spec, X, Y[1], Xv, Yv[1], **single)
        with pytest.raises(DivergedLoss, match=stage):
            nw.train(spec, X, Y[1], Xv, Yv[1], **single)


class TestGradientKernel:
    """``gradient`` and ``train`` run one preallocated forward/backward
    kernel; ``conftest.reference_gradient`` is the allocating chain it must
    equal bit for bit."""

    @pytest.mark.parametrize("net", REFERENCE_NETS)
    @pytest.mark.parametrize("lead, targets", [
        ((), ()),                   # a single vector
        ((4,), ()),                 # a stack on shared targets
        ((4,), (4,)),               # a stack with one target row per weight row
        ((2, 3), (2, 3)),           # two leading axes
    ])
    def test_gradient_equals_the_allocating_chain(self, gradient_reference, net,
                                                  lead, targets):
        spec = nw.NetworkSpec(*net)
        rng = np.random.Generator(np.random.PCG64(len(lead) + len(targets)))
        theta = rng.normal(scale=0.8, size=(*lead, spec.n_params))
        for n in (1, 7, 16):
            X = rng.normal(size=(n, spec.n_inputs))
            y = rng.normal(size=(*targets, n))
            want = gradient_reference(theta, spec, X, y)[0]
            got = nw.gradient(theta, spec, X, y)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("net", REFERENCE_NETS)
    def test_strided_rows_and_weights_keep_their_bits(self, gradient_reference, net):
        # contiguous single vectors take np.dot, anything else np.matmul
        spec = nw.NetworkSpec(*net)
        rng = np.random.Generator(np.random.PCG64(8))
        theta = rng.normal(scale=0.8, size=2 * spec.n_params)[::2]
        X = rng.normal(size=(9, 2 * spec.n_inputs))
        y = rng.normal(size=9)
        for t, rows in ((theta, X[:, ::2]), (theta, X[:, ::2].copy()),
                        (theta.copy(), X[:, ::2]), (theta.copy(), X[:, ::2].copy())):
            got = nw.gradient(t, spec, rows, y)
            assert got.tobytes() == gradient_reference(t, spec, rows, y)[0].tobytes()

    @pytest.mark.parametrize("net", REFERENCE_NETS[1:])
    def test_non_finite_gradients_keep_their_bits(self, gradient_reference, net):
        # overflowing weights and a NaN input: NaN and inf must flow through
        # the relu masks and tanh derivatives as in the allocating chain
        spec = nw.NetworkSpec(*net)
        rng = np.random.Generator(np.random.PCG64(5))
        theta = rng.normal(size=(3, spec.n_params))
        theta[1] *= 1e300
        X = rng.normal(size=(6, spec.n_inputs))
        X[2, 0] = np.nan
        y = rng.normal(size=(3, 6))
        for t, targets in ((theta, y), (theta[1].copy(), y[1])):    # a stack, a single vector
            with np.errstate(all="ignore"):
                want = gradient_reference(t, spec, X, targets)[0]
                got = nw.gradient(t, spec, X, targets)
            assert not np.isfinite(got).all()
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("net", REFERENCE_NETS)
    # 120 rows in full batches only, and in one batch; ``TestTrainMatchesReference``
    # has a short last batch
    @pytest.mark.parametrize("batch_size", [20, 200])
    @pytest.mark.parametrize("rows", [None, 4])
    def test_train_equals_the_reference_loop(self, train_reference, net, batch_size, rows):
        X, Y, Xv, Yv = stack_problem(rows or 1, seed=4)
        spec = nw.NetworkSpec(*net, learning_rate=3e-2, batch_size=batch_size, seed=1)
        rng = np.random.Generator(np.random.PCG64(batch_size))
        init = rng.normal(scale=0.6, size=(rows or 1, spec.n_params))
        if rows is None:
            Y, Yv, init = Y[0], Yv[0], init[0]
        kwargs = dict(initial=init, epochs=12, patience=4)
        got = nw.train(spec, X, Y, Xv, Yv, **kwargs)
        assert_matches_reference(got, train_reference(spec, X, Y, Xv, Yv, **kwargs))

    def test_a_diverging_row_of_a_relu_stack_freezes(self, train_reference):
        X, Y, Xv, Yv = stack_problem(3, seed=5)
        spec = nw.NetworkSpec(*REFERENCE_NETS[1], learning_rate=3e-2, batch_size=16, seed=3)
        init = np.random.Generator(np.random.PCG64(3)).normal(scale=0.6,
                                                               size=(3, spec.n_params))
        init[1] *= 1e200        # its relu layer overflows the output
        kwargs = dict(initial=init, epochs=10, patience=4)
        got = nw.train(spec, X, Y, Xv, Yv, **kwargs)
        assert got.diverged.tolist() == [False, True, False]
        assert np.array_equal(got.weights.theta[1], init[1])
        assert_matches_reference(got, train_reference(spec, X, Y, Xv, Yv, **kwargs))


class TestTrainLoss:
    @pytest.mark.parametrize("rows", [None, 3])
    def test_is_the_epochs_sample_weighted_mini_batch_mse(self, train_reference, rows):
        # 120 rows in batches of 16: the last batch of each epoch holds 8
        X, Y, Xv, Yv = stack_problem(rows or 1, seed=3)
        y, yv = (Y[0], Yv[0]) if rows is None else (Y, Yv)
        spec = nw.NetworkSpec((3, 5, 1), ("tanh", "linear"), learning_rate=3e-2,
                              batch_size=16, seed=6)
        kwargs = dict(epochs=6, patience=100,
                      initial=None if rows is None else np.tile(nw.initialize(spec).theta,
                                                                (rows, 1)))
        res = nw.train(spec, X, y, Xv, yv, **kwargs)
        assert len(res.train_loss) == 6
        # the reference walks the same weights, so ``seen`` holds the weights
        # each of ``train``'s mini-batch gradients was taken at
        seen = []
        ref = train_reference(spec, X, y, Xv, yv, batch_weights=seen, **kwargs)
        assert np.array_equal(res.weights.theta, ref.weights.theta)
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        thetas = iter(seen)
        for epoch in range(6):
            perm = rng.permutation(len(X))
            sse = 0.0
            for start in range(0, len(X), 16):
                idx = perm[start : start + 16]
                resid = nw.forward(next(thetas), spec, X[idx]) - y[..., idx]
                sse = sse + np.sum(resid**2, axis=-1)
            assert np.array_equal(res.train_loss[epoch], sse / len(X))
        assert next(thetas, None) is None


class TestTrainEmptySplit:
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("split", ["training", "validation"])
    def test_raises_shape_mismatch_naming_the_split(self, stacked, split):
        X, Y, Xv, Yv = stack_problem(2)
        if split == "training":
            X, Y = X[:0], Y[:, :0]
        else:
            Xv, Yv = Xv[:0], Yv[:, :0]
        spec = nw.NetworkSpec((3, 1), ("linear",), epochs=5)
        if stacked:
            kwargs = dict(initial=np.zeros((2, spec.n_params)))
        else:
            Y, Yv, kwargs = Y[0], Yv[0], {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatch, match=f"the {split} split is empty"):
                nw.train(spec, X, Y, Xv, Yv, **kwargs)


class TestTrainChannel:
    def test_runs_on_assembled_dataset(self):
        rng = np.random.Generator(np.random.PCG64(21))
        U = np.repeat(rng.uniform(1.0, 5.0, size=(25, 4)), 20, axis=0)
        Y = np.cumsum(rng.normal(size=(500, 6)), axis=0) * 0.01 + 1.0
        ds = assemble_narx_dataset(Y, U, hold=20, layout=NarxLayout(2, 1), seed=0)
        spec = nw.NetworkSpec(
            (6, 8, 1), ("relu", "linear"), learning_rate=1e-2, epochs=10, seed=0
        )
        res = nw.train_channel(ds["well1_mg"], spec)
        assert len(res.train_loss) == 10
        assert all(np.isfinite(v) for v in res.val_loss)


class TestSimulateClosedLoop:
    def test_input_selector_net_reproduces_logged_input(self):
        # a net wired to copy the lag-1 input replays the held sample that
        # drove each step, i.e. y(t) = u(t-1) in lag notation
        layout = NarxLayout(1, 1, 1)
        spec = nw.NetworkSpec((2, 1), ("linear",))
        theta = np.array([0.0, 1.0, 0.0])
        rng = np.random.Generator(np.random.PCG64(0))
        U = rng.uniform(size=(25, 1))
        out = nw.simulate_closed_loop(theta, spec, layout, np.array([0.7]), U)
        assert np.allclose(out, U[:, 0], rtol=1e-15)

    def test_zero_weights_give_zero_trajectory(self):
        layout = NarxLayout(2, 2, 3)
        spec = nw.NetworkSpec((layout.width, 4, 1), ("relu", "linear"))
        theta = np.zeros(spec.n_params)
        U = np.ones((11, 3))        # one history row, then ten steps
        out = nw.simulate_closed_loop(theta, spec, layout, np.array([0.5, 0.4]), U)
        assert out.shape == (10,) and (out == 0.0).all()

    def test_feedback_decay(self):
        # net implementing y(t) = 0.5 y(t-1) halves the window value each step
        layout = NarxLayout(1, 1, 1)
        spec = nw.NetworkSpec((2, 1), ("linear",))
        theta = np.array([0.5, 0.0, 0.0])
        out = nw.simulate_closed_loop(
            theta, spec, layout, np.array([1.0]), np.zeros((8, 1))
        )
        assert np.allclose(out, 0.5 ** np.arange(1, 9), rtol=1e-14)

    def test_second_input_lag_uses_history(self):
        layout = NarxLayout(1, 2, 1)
        spec = nw.NetworkSpec((3, 1), ("linear",))
        theta = np.array([0.0, 0.0, 1.0, 0.0])    # picks the lag-2 input
        U = np.array([10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])[:, None]   # history first
        out = nw.simulate_closed_loop(theta, spec, layout, np.array([0.0]), U)
        assert out.tolist() == [10.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_shape_errors(self):
        layout = NarxLayout(2, 2, 1)
        spec = nw.NetworkSpec((4, 1), ("linear",))
        theta = np.zeros(5)
        U = np.zeros((5, 1))
        with pytest.raises(ShapeMismatch):
            nw.simulate_closed_loop(theta, spec, layout, np.array([1.0]), U)  # short window
        with pytest.raises(ShapeMismatch):
            nw.simulate_closed_loop(theta, spec, layout, np.array([1.0, 2.0]),
                                    np.zeros((0, 1)))                   # no history
        with pytest.raises(ShapeMismatch):
            nw.simulate_closed_loop(theta, spec, layout, np.array([1.0, 2.0]),
                                    np.zeros((1, 1)))                   # nothing to predict
        with pytest.raises(ShapeMismatch):
            nw.simulate_closed_loop(theta, spec, layout, np.array([1.0, 2.0]),
                                    np.zeros((5, 2)))
        with pytest.raises(ShapeMismatch):
            nw.simulate_closed_loop(theta, nw.NetworkSpec((9, 1), ("linear",)),
                                    layout, np.array([1.0, 2.0]), U)

    def test_stacked_members_match_loop(self):
        layout = NarxLayout(2, 1, 2)
        spec = nw.NetworkSpec((layout.width, 5, 1), ("tanh", "linear"))
        thetas = np.stack(
            [nw.initialize(nw.NetworkSpec((layout.width, 5, 1), ("tanh", "linear"),
                                          seed=k)).theta for k in range(4)]
        )
        rng = np.random.Generator(np.random.PCG64(2))
        U = rng.uniform(size=(15, 2))
        window = np.array([0.2, 0.3])
        stacked = nw.simulate_closed_loop(thetas, spec, layout, window, U)
        assert stacked.shape == (4, 15)
        for k in range(4):
            single = nw.simulate_closed_loop(thetas[k], spec, layout, window, U)
            assert np.allclose(stacked[k], single, rtol=1e-13)
