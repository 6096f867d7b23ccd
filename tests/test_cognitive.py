import contextlib
import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaslift_twin import cognitive as cg
from gaslift_twin import network as nw
from gaslift_twin.errors import (
    FingerprintMismatch,
    InsufficientSamples,
    InvalidRegion,
    MemberDroppedWarning,
    OfflineInstanceUnavailable,
    ShapeMismatch,
)
from gaslift_twin.plant import PlantParams, default_initial_state
from gaslift_twin.structure import NarxLayout, NormalizationSpec, build_lag_matrix


def identity_norm(n_u: int) -> NormalizationSpec:
    return NormalizationSpec(
        y_min=0.0, y_max=1.0, u_min=np.zeros(n_u), u_max=np.ones(n_u)
    )


def const_artifact(channel="c0", point=0.5, member_values=(0.4, 0.45, 0.55, 0.6),
                   batch_size=64):
    """Constant-predictor artifact: zero weights, bias = value, identity norm."""
    layout = NarxLayout(2, 1, 1)
    spec = nw.NetworkSpec((layout.width, 1), ("linear",), batch_size=batch_size)
    theta = np.zeros(spec.n_params)
    theta[-1] = point
    members = np.zeros((len(member_values), spec.n_params))
    members[:, -1] = member_values
    return cg.make_artifact(channel, spec, layout, identity_norm(1), theta, members)


class TestCognitiveConfig:
    def test_defaults_valid(self):
        cfg = cg.CognitiveConfig()
        assert cfg.mh == 100 and cfg.a_offset == 1 and cfg.ct == 5
        assert cfg.wait_buffer == 5000

    @pytest.mark.parametrize("kwargs", [
        {"mh": 0},
        {"a_offset": -1},
        {"ct": 0},
        {"mh": 10, "ct": 11},
        {"confidence": 0.0},
        {"confidence": 1.0},
        {"wait_buffer": -1},
        {"retrain_epochs": 0},
        {"retrain_lr_factor": 0.0},
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            cg.CognitiveConfig(**kwargs)


class TestArtifacts:
    def test_fingerprint_roundtrip(self):
        art = const_artifact()
        art.verify()

    def test_tamper_detected(self):
        art = const_artifact()
        bad = dataclasses.replace(art, map_theta=art.map_theta + 1e-9)
        with pytest.raises(FingerprintMismatch):
            cg.transfer_warm_start(bad)

    def test_warm_start_copies_exactly(self):
        art = const_artifact()
        model = cg.transfer_warm_start(art)
        assert np.array_equal(model.theta, art.map_theta)
        assert np.array_equal(model.members, art.members)
        assert model.spec == art.spec
        model.theta[0] = 99.0
        assert art.map_theta[0] == 0.0      # warm start owns its copy

    def test_shape_guards(self):
        layout = NarxLayout(2, 1, 1)
        spec = nw.NetworkSpec((layout.width, 1), ("linear",))
        with pytest.raises(ShapeMismatch):
            cg.make_artifact("c0", spec, layout, identity_norm(1),
                             np.zeros(spec.n_params + 1), np.zeros((2, spec.n_params)))
        with pytest.raises(ShapeMismatch):
            cg.make_artifact("c0", spec, NarxLayout(3, 1, 1), identity_norm(1),
                             np.zeros(spec.n_params), np.zeros((2, spec.n_params)))


class TestOneStepRegressor:
    """``NarxLayout.regressors`` on the twin's windows: chronological windows
    reversed into the layout's newest-first convention."""

    def test_matches_offline_lag_matrix(self):
        layout = NarxLayout(2, 2, 2)
        rng = np.random.Generator(np.random.PCG64(0))
        y = rng.normal(size=8)
        U = rng.normal(size=(8, 2))
        X, targets, rows = build_lag_matrix(y, U, layout, None)
        t = rows[-1]
        row = layout.regressors(y[:t][::-1], U[: t + 1][::-1])
        assert np.array_equal(row, X[-1])

    def test_explicit_layout(self):
        layout = NarxLayout(2, 2, 2)
        y_window = np.array([1.0, 2.0, 3.0])
        u_window = np.array([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
        row = layout.regressors(y_window[::-1], u_window[::-1])
        assert row.tolist() == [3.0, 2.0, 50.0, 30.0, 60.0, 40.0]
        # leading axes come from the output windows; one input window serves all
        rows = layout.regressors(np.stack([y_window[::-1], -y_window[::-1]]),
                                 u_window[::-1])
        assert rows.tolist() == [[3.0, 2.0, 50.0, 30.0, 60.0, 40.0],
                                 [-3.0, -2.0, 50.0, 30.0, 60.0, 40.0]]

    def test_short_windows(self):
        model = cg.transfer_warm_start(const_artifact())      # NarxLayout(2, 1, 1)
        with pytest.raises(ShapeMismatch):
            model.predict([1.0], [[0.5]], 0.9)
        with pytest.raises(ShapeMismatch):
            model.predict([1.0, 2.0], np.zeros((0, 1)), 0.9)
        with pytest.raises(ShapeMismatch):
            model.predict([1.0, 2.0], [[0.5, 0.5]], 0.9)

    @settings(max_examples=40, deadline=None)
    @given(n_b=st.integers(1, 4), n_a=st.integers(1, 4), n_u=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_every_path_builds_the_offline_row(self, n_b, n_a, n_u, seed):
        layout = NarxLayout(n_b, n_a, n_u)
        rng = np.random.Generator(np.random.PCG64(seed))
        y = rng.uniform(size=12)
        U = rng.uniform(size=(12, n_u))
        X, _, rows = build_lag_matrix(y, U, layout, None)
        for i, t in enumerate(rows):
            assert np.array_equal(X[i], layout.regressors(y[:t][::-1], U[: t + 1][::-1]))

        spec = nw.NetworkSpec((layout.width, 5, 1), ("tanh", "linear"), seed=seed)
        theta = nw.initialize(spec).theta
        art = cg.make_artifact("c0", spec, layout, identity_norm(n_u), theta,
                               np.stack([theta, theta]))
        model = cg.transfer_warm_start(art)
        t = rows[-1]
        offline = nw.forward(theta, spec, X[-1:])[0]
        point, _, _ = model.predict(y[:t], U[: t + 1], 0.9)
        assert point == offline
        free = nw.simulate_closed_loop(theta, spec, layout, y[:t], U[t + 1 - n_a : t + 1])
        assert free[0] == offline


class TestPredict:
    def test_constant_members_give_quantile_interval(self):
        art = const_artifact()
        model = cg.transfer_warm_start(art)
        point, lo, hi = model.predict([0.2, 0.3], [[0.5]], 0.8)
        values = np.array([0.4, 0.45, 0.55, 0.6])
        assert point == 0.5
        assert lo == pytest.approx(np.quantile(values, 0.1))
        assert hi == pytest.approx(np.quantile(values, 0.9))

    def test_denormalization_applied(self):
        layout = NarxLayout(1, 1, 1)
        spec = nw.NetworkSpec((layout.width, 1), ("linear",))
        norm = NormalizationSpec(10.0, 30.0, np.zeros(1), np.ones(1))
        theta = np.zeros(spec.n_params)
        theta[-1] = 0.5
        art = cg.make_artifact("c0", spec, layout, norm, theta, theta[None])
        model = cg.transfer_warm_start(art)
        point, lo, hi = model.predict([15.0], [[0.5]], 0.9)
        assert point == pytest.approx(20.0)
        assert lo == pytest.approx(20.0) and hi == pytest.approx(20.0)

    def test_first_prediction_matches_offline_forward(self):
        art = const_artifact()
        model = cg.transfer_warm_start(art)
        x = art.layout.regressors(np.array([0.2, 0.1]), np.array([[0.7]]))
        offline = float(nw.forward(art.map_theta, art.spec, x[None])[0])
        point, _, _ = model.predict([0.1, 0.2], [[0.7]], 0.95)
        assert point == offline

    def test_non_finite_member_dropped(self):
        art = const_artifact(member_values=(0.4, 0.6))
        model = cg.transfer_warm_start(art)
        model.weights[2] = 1e200          # member 1
        with pytest.warns(MemberDroppedWarning):
            _, lo, hi = model.predict([1e200, 1e200], [[0.5]], 0.8)
        assert np.isfinite([lo, hi]).all()

    def test_all_members_bad(self):
        art = const_artifact(member_values=(0.4, 0.6))
        model = cg.transfer_warm_start(art)
        model.weights[1:] = 1e200
        with pytest.warns(MemberDroppedWarning):
            with pytest.raises(InvalidRegion):
                model.predict([1e200, 1e200], [[0.5]], 0.8)

    def test_confidence_validated(self):
        model = cg.transfer_warm_start(const_artifact())
        with pytest.raises(InvalidRegion):
            model.predict([0.1, 0.2], [[0.5]], 1.0)


class TestViolationIndicator:
    """``indicator_reference``, the check the twin's step must match."""

    def test_inside(self, indicator_reference):
        assert indicator_reference(5.0, 4.0, 6.0) == 0

    def test_outside(self, indicator_reference):
        assert indicator_reference(7.0, 4.0, 6.0) == 1
        assert indicator_reference(3.0, 4.0, 6.0) == 1

    def test_boundaries_inclusive(self, indicator_reference):
        assert indicator_reference(6.0, 4.0, 6.0) == 0
        assert indicator_reference(4.0, 4.0, 6.0) == 0

    def test_inverted_region(self, indicator_reference):
        with pytest.raises(InvalidRegion):
            indicator_reference(5.0, 6.0, 4.0)

    def test_scalar_gives_int(self, indicator_reference):
        assert type(indicator_reference(5.0, 4.0, 6.0)) is int
        assert type(indicator_reference(np.float64(7.0), 4.0, 6.0)) is int

    def test_elementwise_equals_scalar_calls(self, indicator_reference):
        # the last three: a NaN measurement or bound counts as a violation
        measured = np.array([5.0, 7.0, 3.0, 6.0, 4.0, np.nan, 5.0, 5.0])
        lo = np.array([4.0, 4.0, 4.0, 4.0, 4.0, 4.0, np.nan, 4.0])
        hi = np.array([6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0, np.nan])
        got = indicator_reference(measured, lo, hi)
        assert got.dtype == int
        assert got.tolist() == [indicator_reference(*v) for v in zip(measured, lo, hi)]
        assert got.tolist() == [0, 1, 1, 0, 0, 1, 1, 1]

    def test_any_inverted_region_raises(self, indicator_reference):
        with pytest.raises(InvalidRegion, match=r"^inverted region \[6.0, 4.0\]$"):
            indicator_reference(np.full(3, 5.0), np.array([4.0, 6.0, 4.0]),
                                np.array([6.0, 4.0, 6.0]))


class TestCognitiveUpdate:
    """The twin's ``ViolationWindow``; ``window_reference`` is the scalar
    per-channel window it replaced."""

    def _run(self, stream, **cfg_kwargs):
        cfg = cg.CognitiveConfig(**{"mh": 100, "ct": 5, **cfg_kwargs})
        window = cg.ViolationWindow(cfg, 1)
        zs, trigs = [], []
        for ind in stream:
            trigs.append(window.push(np.array([ind], dtype=bool)))
            zs.append(int(window.Z[0]))
        return window, zs, trigs

    def test_window_sum(self):
        stream = [0] * 10 + [1, 0, 1, 0, 1] + [0] * 10
        window, zs, _ = self._run(stream)
        assert zs[-1] == 3
        assert window.Z.tolist() == window._ring.sum(axis=0).tolist()

    def test_all_clear_never_triggers(self):
        window, zs, trigs = self._run([0] * 300)
        assert max(zs) == 0
        assert not any(trigs)
        assert not window.triggered.any()

    def test_ct_one_triggers_on_first_violation(self):
        _, _, trigs = self._run([0] * 7 + [1], ct=1)
        assert trigs[:7] == [False] * 7
        assert trigs[7] is True

    def test_eviction(self):
        _, zs, _ = self._run([1, 1, 1, 0, 0, 0], mh=3, ct=3)
        assert zs == [1, 2, 3, 2, 1, 0]

    def test_offset_delays_entry(self):
        _, zs, _ = self._run([1, 0, 0], a_offset=2, ct=1)
        assert zs == [0, 1, 1]
        _, zs, _ = self._run([1, 1, 0, 0, 0], a_offset=3, mh=2, ct=1)
        assert zs == [0, 0, 1, 2, 1]

    def test_k_and_latch(self):
        window, _, _ = self._run([0, 1, 1, 1, 1, 1, 0, 0], ct=5)
        assert window.k == 8
        assert window.triggered.tolist() == [True]   # latched though Z fell

    def test_indicator_domain(self):
        window = cg.ViolationWindow(cg.CognitiveConfig(a_offset=2, ct=1), 2)
        window.push(np.array([True, False]))

        def state():
            return (window.k, window.Z.tobytes(), window._ring.tobytes(),
                    window._pending.tobytes(), window.triggered.tobytes())

        before = state()
        for ints in ([0, 2], [0, 1]):
            with pytest.raises(ValueError, match="must be bool"):
                window.push(np.array(ints))
        assert state() == before

    @given(
        stream=st.lists(st.integers(0, 1), min_size=1, max_size=200),
        mh=st.integers(1, 20),
        a_offset=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_z_is_exact_window_sum(self, stream, mh, a_offset):
        cfg = cg.CognitiveConfig(mh=mh, a_offset=a_offset, ct=mh)
        window = cg.ViolationWindow(cfg, 1)
        delay = max(0, a_offset - 1)
        for k, ind in enumerate(stream, start=1):
            window.push(np.array([ind], dtype=bool))
            entered = stream[: max(0, k - delay)]
            assert window.Z[0] == sum(entered[-mh:])
            assert window.Z[0] == window._ring.sum()
            assert 0 <= window.Z[0] <= mh

    @given(stream=st.lists(st.integers(0, 1), min_size=20, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_trigger_monotone_in_ct(self, stream):
        def first_trigger(ct):
            window = cg.ViolationWindow(cg.CognitiveConfig(mh=10, ct=ct), 1)
            for k, ind in enumerate(stream, start=1):
                if window.push(np.array([ind], dtype=bool)):
                    return k
            return len(stream) + 1

        steps = [first_trigger(ct) for ct in range(1, 11)]
        assert steps == sorted(steps)

    @given(data=st.data(), mh=st.integers(1, 20), a_offset=st.integers(0, 4),
           channels=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference(self, window_reference, data, mh, a_offset,
                                      channels):
        ct = data.draw(st.integers(1, mh), label="ct")
        T = data.draw(st.integers(1, 80), label="T")
        stream = np.array(data.draw(
            st.lists(st.lists(st.booleans(), min_size=channels, max_size=channels),
                     min_size=T, max_size=T), label="stream"))
        reset_at = data.draw(st.integers(0, T), label="reset_at")
        cfg = cg.CognitiveConfig(mh=mh, a_offset=a_offset, ct=ct)
        window = cg.ViolationWindow(cfg, channels)
        ref = [window_reference.state(cfg) for _ in range(channels)]
        for t, mask in enumerate(stream):
            if t == reset_at:       # as retrain does
                window.reset()
                ref = [window_reference.state(cfg) for _ in range(channels)]
            hit = window.push(mask)
            steps = [window_reference.update(s, ind) for s, ind in zip(ref, mask)]
            assert window.Z.tolist() == [z for _, z, _ in steps]
            assert (window.Z >= ct).tolist() == [trig for _, _, trig in steps]
            assert hit == any(trig for _, _, trig in steps)
            assert window.triggered.tolist() == [s.triggered for s in ref]
            assert window.k == ref[0].k


class TestDriftEvent:
    def test_valid(self):
        ev = cg.DriftEvent(100, cg.CAUSE_UNKNOWN, cg.ACTION_WAIT,
                           retrain_step=5100, post_retrain_z=0)
        assert ev.retrain_step - ev.detection_step == 5000

    def test_retrain_before_detection(self):
        with pytest.raises(ValueError):
            cg.DriftEvent(100, cg.CAUSE_IDENTIFIED, cg.ACTION_OFFLINE, retrain_step=99)

    def test_cause_and_action_domains(self):
        with pytest.raises(ValueError):
            cg.DriftEvent(1, "gremlins", cg.ACTION_WAIT)
        with pytest.raises(ValueError):
            cg.DriftEvent(1, cg.CAUSE_UNKNOWN, "panic")


class TestHandleDrift:
    def test_identified_requires_plant_access(self):
        with pytest.raises(OfflineInstanceUnavailable):
            cg.handle_drift(cg.CAUSE_IDENTIFIED, condition=None)

    def test_unknown_waits_for_buffer(self):
        small = cg.RetrainData(Y=np.zeros((10, 6)), U=np.zeros((10, 4)), hold=None)
        assert cg.handle_drift(cg.CAUSE_UNKNOWN, buffered=small, wait_buffer=50) is None
        assert cg.handle_drift(cg.CAUSE_UNKNOWN, buffered=None, wait_buffer=50) is None
        full = cg.RetrainData(Y=np.zeros((50, 6)), U=np.zeros((50, 4)), hold=None)
        assert cg.handle_drift(cg.CAUSE_UNKNOWN, buffered=full, wait_buffer=50) is full

    def test_unknown_cause_rejected(self):
        with pytest.raises(ValueError):
            cg.handle_drift("other")

    def test_identified_generates_at_condition(self):
        params = PlantParams()
        condition = cg.DriftCondition(
            params=params,
            initial=default_initial_state(params),
            v_o_rows=np.array([[0.5, 1.0, 1.0]]),
        )
        data = cg.handle_drift(
            cg.CAUSE_IDENTIFIED, condition=condition, n_experiments=3, hold=5, seed=1
        )
        assert data.Y.shape == (15, 6)
        assert data.U.shape == (15, 4)
        assert data.hold == 5

    def test_condition_validation(self):
        params = PlantParams()
        init = default_initial_state(params)
        with pytest.raises(ValueError):
            cg.DriftCondition(params, init, np.array([[0.5, 1.0]]))
        with pytest.raises(ValueError):
            cg.DriftCondition(params, init, np.array([[1.5, 1.0, 1.0]]))


def narx_series(theta_w, theta_b, T, seed, scale=1.0):
    """Series generated by the model itself: y[t] = w.[y_lags,u_lags] + b."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.uniform(0.0, 1.0, size=T)
    y = np.zeros(T)
    for t in range(2, T):
        x = np.array([y[t - 1], y[t - 2], u[t]])
        y[t] = float(np.dot(theta_w, x) + theta_b)
    return y * scale, u[:, None]


class TestOnlineRetrain:
    """``CognitiveTwin.retrain`` on a one-channel twin."""

    W = np.array([0.4, 0.2, 0.3])
    B = 0.05

    def _artifact(self, batch_size=16):
        layout = NarxLayout(2, 1, 1)
        spec = nw.NetworkSpec(
            (layout.width, 1), ("linear",), learning_rate=0.05,
            batch_size=batch_size,
        )
        theta = np.concatenate([self.W, [self.B]])
        members = np.tile(theta, (3, 1))
        return cg.make_artifact("c0", spec, layout, identity_norm(1), theta, members)

    def _twin(self, art=None, **config):
        art = self._artifact() if art is None else art
        return cg.CognitiveTwin({"c0": art}, cg.CognitiveConfig(**config))

    def _data(self, scale=1.0, T=300, seed=3):
        y, U = narx_series(self.W, self.B, T, seed, scale=scale)
        return cg.RetrainData(Y=y[:, None], U=U, hold=None, channels=("c0",))

    def test_fixed_point_on_already_fit_data(self):
        twin = self._twin(retrain_epochs=5)
        model = twin.models["c0"]
        before = model.theta.copy()
        twin.retrain(self._data())
        # zero residuals mean zero gradients: nothing moves at all
        assert np.array_equal(model.theta, before)
        assert (model.members == before).all()

    def test_ensemble_size_preserved(self):
        twin = self._twin(retrain_epochs=2)
        twin.retrain(self._data(seed=4))
        assert twin.models["c0"].n_members == 3

    def test_norm_untouched_when_covered(self):
        twin = self._twin(retrain_epochs=1)
        norm_before = twin.models["c0"].norm
        twin.retrain(self._data())
        assert twin.models["c0"].norm is norm_before

    def test_norm_expanded_when_exceeded(self):
        twin = self._twin(retrain_epochs=1)
        data = self._data(scale=3.0)
        twin.retrain(data)
        norm = twin.models["c0"].norm
        assert norm.y_max == pytest.approx(float(data.Y.max()))
        assert norm.y_min <= 0.0

    def test_spread_survives_retraining_on_shifted_system(self):
        # members trained independently toward the same targets would all
        # land on one optimum and the coverage interval would vanish; the
        # per-member target offsets must keep the bias spread alive
        art = self._artifact()
        offsets = np.array([-0.06, 0.0, 0.06])
        art = cg.make_artifact(
            "c0", art.spec, art.layout, art.norm, art.map_theta,
            art.members + offsets[:, None] * np.eye(art.spec.n_params)[-1],
        )
        twin = self._twin(art, retrain_epochs=400, retrain_lr_factor=1.0)
        y, U = narx_series(self.W, self.B + 0.2, 400, seed=7)
        twin.retrain(cg.RetrainData(Y=y[:, None], U=U, hold=None, channels=("c0",)),
                     seed=1)
        model = twin.models["c0"]
        X_raw, t_raw, _ = build_lag_matrix(y, U, model.layout, None)
        Xn = model.norm.normalize_regressors(X_raw, model.layout)
        pred = model.norm.denormalize_target(nw.forward(model.theta, model.spec, Xn))
        assert float(np.mean((pred - t_raw) ** 2)) < 1e-5
        got = model.members[:, -1] - model.theta[-1]
        # linear system with bias-only diversity: each member's optimum is the
        # new fit shifted by exactly its old offset, whatever the norm became
        assert got == pytest.approx(offsets, abs=0.02)
        assert got.max() - got.min() > 0.06

    def test_diverged_members_reset_to_map(self):
        twin = self._twin(retrain_epochs=3, retrain_lr_factor=1e180)
        model = twin.models["c0"]
        model.weights[1:] += np.array([[0.01], [0.02], [0.03]])
        before = model.theta.copy()
        twin.retrain(self._data(seed=5))
        # everything diverges at this rate; the point weights fall back and
        # every member is reset to them
        assert np.array_equal(twin.models["c0"].theta, before)
        assert (twin.models["c0"].members == before).all()

    def test_retrain_reports_every_fallback(self):
        art = self._artifact()
        twin = self._twin(art, retrain_epochs=3, retrain_lr_factor=1e180)
        (record,) = twin.retrain(self._data(seed=5))
        assert record == cg.RetrainRecord(
            channel="c0", point_diverged=True, members_diverged=(0, 1, 2),
            members_skipped=(), norm_widened=False,
        )
        assert np.array_equal(twin.models["c0"].theta, art.map_theta)
        assert (twin.models["c0"].members == art.map_theta).all()

    def test_retrain_reports_skipped_members_and_widening(self):
        art = self._artifact()
        members = art.members + np.array([[0.01], [0.0], [0.03]]) * np.eye(4)[-1]
        members[1, :3] = 1e308        # its predictions, and so its offset, overflow
        art = cg.make_artifact("c0", art.spec, art.layout, art.norm, art.map_theta,
                               members)
        twin = self._twin(art, retrain_epochs=2)
        (record,) = twin.retrain(self._data(scale=3.0, seed=4))
        assert record == cg.RetrainRecord(
            channel="c0", point_diverged=False, members_diverged=(),
            members_skipped=(1,), norm_widened=True,
        )
        model = twin.models["c0"]
        assert np.array_equal(model.members[1], model.theta)
        assert not np.array_equal(model.members[0], model.theta)
        assert not np.array_equal(model.members[2], model.theta)

    def test_too_few_rows(self):
        twin = self._twin(self._artifact(batch_size=64), retrain_epochs=1)
        with pytest.raises(InsufficientSamples):
            twin.retrain(self._data(T=50))

    def test_channel_must_be_present(self):
        twin = self._twin(retrain_epochs=1)
        data = self._data()
        bad = cg.RetrainData(Y=data.Y, U=data.U, hold=None, channels=("other",))
        with pytest.raises(ShapeMismatch):
            twin.retrain(bad)


class TestCognitiveTwin:
    def _twin(self, ct=2, mh=10, members=(0.4, 0.45, 0.55, 0.6)):
        arts = {
            "c0": const_artifact("c0", member_values=members),
            "c1": const_artifact("c1", member_values=members),
        }
        cfg = cg.CognitiveConfig(mh=mh, ct=ct, confidence=0.8, wait_buffer=20,
                                 retrain_epochs=2)
        return cg.CognitiveTwin(arts, cfg)

    def test_warmup_then_monitoring(self):
        twin = self._twin()
        r1 = twin.step([0.5], [0.5, 0.5])
        assert not r1.monitored and np.isnan(r1.predicted).all()
        r2 = twin.step([0.5], [0.5, 0.5])
        assert not r2.monitored
        r3 = twin.step([0.5], [0.5, 0.5])
        assert r3.monitored
        assert (r3.indicator == 0).all()
        assert not r3.trigger

    def test_trigger_on_any_channel(self):
        twin = self._twin(ct=2)
        for _ in range(2):
            twin.step([0.5], [0.5, 0.5])
        r = twin.step([0.5], [0.5, 9.9])        # c1 leaves coverage
        assert r.indicator.tolist() == [0, 1]
        assert not r.trigger
        r = twin.step([0.5], [0.5, 9.9])
        assert r.Z.tolist() == [0, 2]
        assert r.trigger

    def test_prediction_uses_only_the_past(self):
        layout = NarxLayout(1, 1, 1)
        spec = nw.NetworkSpec((layout.width, 1), ("linear",))
        theta = np.array([1.0, 0.0, 0.0])       # predicts previous output
        art = cg.make_artifact("c0", spec, layout, identity_norm(1), theta,
                               theta[None])
        twin = cg.CognitiveTwin({"c0": art}, cg.CognitiveConfig(mh=10, ct=1))
        twin.step([0.0], [0.31])
        r = twin.step([0.0], [0.62])
        assert r.predicted[0] == pytest.approx(0.31)

    def test_buffering_and_retrain_reset(self):
        twin = self._twin(ct=1)
        for _ in range(3):
            twin.step([0.5], [0.5, 0.5])
        twin.begin_buffering()
        assert twin.buffer_size == 0
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(140):
            twin.step(rng.uniform(size=1), rng.uniform(0.4, 0.6, size=2))
        assert twin.buffer_size == 140
        data = twin.buffer_data()
        assert data.Y.shape == (140, 2)
        assert data.channels == ("c0", "c1")
        twin.retrain(data)
        assert twin.buffer_size == 0
        assert twin.max_z() == 0
        assert not twin.window.triggered.any()
        assert twin.window.k == 0

    @pytest.mark.parametrize("lo, hi", [
        ([4.0] * 6 + [np.nan, 4.0], [6.0] * 7 + [np.nan]),
        ([4.0, 6.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0], [6.0, 4.0] + [6.0] * 6),
    ])
    def test_step_check_equals_the_reference(self, monkeypatch, indicator_reference,
                                             lo, hi):
        # the in-place check on bands as given: boundaries, NaNs, inversions
        measured = np.array([5.0, 7.0, 3.0, 6.0, 4.0, np.nan, 5.0, 5.0])
        bands = np.array([np.full(8, 5.0), lo, hi])
        twin = cg.CognitiveTwin({f"c{i}": const_artifact(f"c{i}") for i in range(8)},
                                cg.CognitiveConfig(mh=10, ct=10))
        for _ in range(2):
            twin.step([0.5], np.full(8, 0.5))
        monkeypatch.setattr(cg._ChannelGroup, "band", lambda group, history: bands.copy())
        try:
            want = indicator_reference(measured, lo, hi)
        except InvalidRegion as exc:
            with pytest.raises(InvalidRegion, match=f"^{re.escape(str(exc))}$"):
                twin.step([0.5], measured)
        else:
            r = twin.step([0.5], measured)
            assert r.indicator.dtype == want.dtype
            assert r.indicator.tolist() == want.tolist()
            assert r.Z.tolist() == want.tolist()

    def test_step_shape_validation(self):
        twin = self._twin()
        with pytest.raises(ShapeMismatch):
            twin.step([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ShapeMismatch):
            twin.step([0.5], [0.5])

    def test_deterministic_replay(self):
        def run():
            twin = self._twin()
            rng = np.random.Generator(np.random.PCG64(7))
            out = []
            for _ in range(30):
                r = twin.step(rng.uniform(size=1), rng.uniform(0.3, 0.7, size=2))
                out.append((r.predicted.copy(), r.lower.copy(), r.Z.copy()))
            return out

        a, b = run(), run()
        for (pa, la, za), (pb, lb, zb) in zip(a, b):
            assert np.array_equal(pa, pb, equal_nan=True)
            assert np.array_equal(la, lb, equal_nan=True)
            assert np.array_equal(za, zb)


SIX = tuple(f"c{i}" for i in range(6))


def twin_snapshot(twin):
    """What a step may change: the step count, the violation window, the
    output history, the past inputs (row 0 of the input lags is the current
    input's slot, which every step writes first) and the live buffer."""
    w = twin.window
    return (
        twin._k,
        (w._ring.tobytes(), w._pending.tobytes(), w.Z.tobytes(), w.k,
         w.triggered.tobytes()),
        twin._y_hist.tobytes(), twin._u_lags[1:].tobytes(),
        [row.tobytes() for row in twin._buffer_y],
        [row.tobytes() for row in twin._buffer_u],
    )


def six_channel_artifacts(members=(5,) * 6, layouts=(NarxLayout(3, 2, 2),) * 6,
                          seed=0):
    """Six channels of one two-hidden-layer network shape with random weights,
    members scattered around them and a normalization of their own."""
    rng = np.random.Generator(np.random.PCG64(seed))
    arts = {}
    for c, n, layout in zip(SIX, members, layouts):
        spec = nw.NetworkSpec((layout.width, 8, 6, 1), ("tanh", "relu", "linear"),
                              batch_size=16)
        theta = rng.normal(scale=0.5, size=spec.n_params)
        y_min = rng.uniform(-1.0, 0.0)
        norm = NormalizationSpec(y_min, y_min + rng.uniform(0.5, 2.0),
                                 rng.uniform(-1.0, 0.0, size=2),
                                 rng.uniform(1.0, 2.0, size=2))
        arts[c] = cg.make_artifact(
            c, spec, layout, norm, theta,
            theta + rng.normal(scale=0.05, size=(n, spec.n_params)),
        )
    return arts


def six_channel_stream(T, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(-0.5, 1.5, size=(T, 6)), rng.uniform(-0.5, 1.5, size=(T, 2))


class TestStackedStep:
    def _twin(self, arts):
        cfg = cg.CognitiveConfig(mh=20, ct=20, confidence=0.9, retrain_epochs=3,
                                 retrain_lr_factor=10.0)
        return cg.CognitiveTwin(arts, cfg)

    def test_homogeneous_twin_equals_predict(self, step_matches_predict):
        twin = self._twin(six_channel_artifacts())
        Y, U = six_channel_stream(60, 1)
        assert step_matches_predict(twin, Y, U) == 57

    @given(data=st.data(), mh=st.integers(1, 20), a_offset=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_step_equals_the_reference_step(self, step_reference, data, mh, a_offset):
        # alternating layouts: each group's channels, and each member count's
        # channels within a group, are index arrays rather than slices
        ct = data.draw(st.integers(1, mh), label="ct")
        members = data.draw(st.lists(st.sampled_from((1, 2, 5)), min_size=6,
                                     max_size=6), label="members")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        layouts = (NarxLayout(3, 2, 2), NarxLayout(1, 3, 2)) * 3
        twin = cg.CognitiveTwin(
            six_channel_artifacts(members=members, layouts=layouts, seed=seed),
            cg.CognitiveConfig(mh=mh, a_offset=a_offset, ct=ct, confidence=0.9,
                               retrain_epochs=1),
        )
        reference = step_reference(twin)
        T = 2 * mh + 4
        retrain_at = data.draw(st.integers(4, T - 1), label="retrain_at")
        Y, U = six_channel_stream(T, seed)
        # each monitored measurement the stream's, on a bound or mid-band,
        # so counts rise and fall
        where = np.random.Generator(np.random.PCG64(seed)).integers(0, 4, size=Y.shape)
        for t in range(T):
            if t == retrain_at:
                Yr, Ur = six_channel_stream(60, seed + 1)
                twin.retrain(cg.RetrainData(Y=Yr, U=Ur, hold=None, channels=SIX))
                reference.reset_windows()
            _, lo, hi = reference.bands(U[t])
            y = np.choose(where[t], [Y[t], lo, hi, lo / 2 + hi / 2])
            y = np.where(np.isnan(y), Y[t], y)
            r = twin.step(U[t], y)
            step, monitored, predicted, lower, upper, indicator, Z, trigger = \
                reference.step(U[t], y)
            assert (r.step, r.monitored, r.trigger) == (step, monitored, trigger)
            # equal, not the same bytes: np.quantile may give a zero the other sign
            for got, want in ((r.predicted, predicted), (r.lower, lower),
                              (r.upper, upper)):
                assert np.array_equal(got, want, equal_nan=True)
            for got, want in ((r.indicator, indicator), (r.Z, Z)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_step_buffers_carry_nothing_between_steps(self):
        # what twin_snapshot leaves out: every buffer a step writes in full
        # before reading it, scribbled over before each step
        layouts = (NarxLayout(3, 2, 2), NarxLayout(1, 3, 2)) * 3
        arts = six_channel_artifacts(members=(5, 3, 5, 2, 5, 2), layouts=layouts)
        clean, twin = self._twin(arts), self._twin(arts)
        Y, U = six_channel_stream(30, 8)
        for t in range(30):
            scratch = [twin._flags, twin.window._hit]
            for _, group in twin._groups:
                scratch += [group.rows, group.out]
                scratch += [z for *_, z in group.plan.layers]
                scratch += [a for _, _, ordered, _, stats, _ in group.by_count
                            for a in (ordered, stats)]
            for a in scratch:
                a.fill(np.nan if a.dtype == float else True)
            a, b = clean.step(U[t], Y[t]), twin.step(U[t], Y[t])
            for field in ("predicted", "lower", "upper", "indicator", "Z"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
            assert (a.step, a.trigger) == (b.step, b.trigger)
        assert twin_snapshot(twin) == twin_snapshot(clean)

    def test_retrain_rebuilds_the_stacks(self, step_matches_predict):
        twin = self._twin(six_channel_artifacts(members=(5, 3, 5, 2, 5, 4)))
        Y, U = six_channel_stream(200, 2)
        step_matches_predict(twin, Y, U, range(40))
        before = {c: twin.models[c].weights.copy() for c in SIX}
        twin.retrain(cg.RetrainData(Y=Y, U=U, hold=None, channels=SIX))
        ((_, group),) = twin._groups
        assert group.plan.theta is group.weights
        for c in SIX:
            model = twin.models[c]
            assert not np.array_equal(model.weights, before[c])
            assert np.shares_memory(model.weights, group.weights)
        assert step_matches_predict(twin, Y, U, range(40, 100)) == 60

    def test_retrain_is_all_or_nothing(self):
        arts = six_channel_artifacts()
        last = arts["c5"]
        arts["c5"] = cg.make_artifact(
            "c5", dataclasses.replace(last.spec, batch_size=10_000), last.layout,
            last.norm, last.map_theta, last.members,
        )
        twin = self._twin(arts)
        Y, U = six_channel_stream(200, 3)
        for t in range(20):
            twin.step(U[t], Y[t])
        twin.begin_buffering()
        for t in range(20, 200):
            twin.step(U[t], Y[t])
        models = [twin.models[c] for c in SIX]
        thetas = [m.theta.copy() for m in models]
        members = [m.members.copy() for m in models]
        norms = [m.norm for m in models]
        z = twin.window.Z.copy()
        with pytest.raises(InsufficientSamples):
            twin.retrain(twin.buffer_data())
        for m, theta, ens, norm in zip(models, thetas, members, norms):
            assert np.array_equal(m.theta, theta)
            assert np.array_equal(m.members, ens)
            assert m.norm is norm
        assert np.array_equal(twin.window.Z, z)
        assert twin.buffer_size == 180

    def test_one_train_call_per_channel(self, monkeypatch):
        calls = []
        real = cg.train

        def counting(*args, **kwargs):
            calls.append(kwargs["initial"].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(cg, "train", counting)
        twin = self._twin(six_channel_artifacts(members=(5, 3, 5, 2, 5, 4)))
        Y, U = six_channel_stream(200, 2)
        twin.retrain(cg.RetrainData(Y=Y, U=U, hold=None, channels=SIX))
        assert calls == [(1 + n, twin.models[c].spec.n_params)
                         for c, n in zip(SIX, (5, 3, 5, 2, 5, 4))]

    @pytest.mark.parametrize("epochs", [3, 40])
    def test_retrain_equals_per_row_train_calls(self, epochs, retrain_reference):
        # at 40 epochs patience (20) runs out on some rows before others
        twin = cg.CognitiveTwin(
            six_channel_artifacts(members=(5, 3, 5, 2, 5, 4)),
            cg.CognitiveConfig(mh=20, ct=20, retrain_epochs=epochs,
                               retrain_lr_factor=10.0),
        )
        Y, U = six_channel_stream(200, 2)
        data = cg.RetrainData(Y=Y, U=U, hold=None, channels=SIX)
        expected = {
            c: retrain_reference(twin.models[c], data, epochs=epochs,
                                 lr_factor=10.0, seed=3)
            for c in SIX
        }
        twin.retrain(data, seed=3)
        for c, (norm, weights) in expected.items():
            model = twin.models[c]
            assert np.array_equal(model.weights, weights)
            for field in ("y_min", "y_max", "u_min", "u_max"):
                assert np.array_equal(getattr(model.norm, field), getattr(norm, field))

    def test_one_forward_per_group(self, monkeypatch):
        calls = []
        real = cg.forward

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cg, "forward", counting)
        two_layouts = (NarxLayout(3, 2, 2),) * 3 + (NarxLayout(2, 1, 2),) * 3
        for layouts, groups in (((NarxLayout(3, 2, 2),) * 6, 1), (two_layouts, 2)):
            twin = self._twin(six_channel_artifacts(layouts=layouts))
            Y, U = six_channel_stream(10, 4)
            for t in range(10):
                calls.clear()
                r = twin.step(U[t], Y[t])
                assert len(calls) == (groups if r.monitored else 0)

    def test_non_finite_member_drops_on_its_channel_only(self):
        arts = six_channel_artifacts()
        clean, twin = self._twin(arts), self._twin(arts)
        twin.models["c2"].members[1] = np.nan     # writes through to the stack
        Y, U = six_channel_stream(12, 5)
        others = [0, 1, 3, 4, 5]
        for t in range(12):
            a = clean.step(U[t], Y[t])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                b = twin.step(U[t], Y[t])
            if not b.monitored:
                assert not caught
                continue
            assert [(w.category, str(w.message)) for w in caught] == [
                (MemberDroppedWarning,
                 "1 non-finite member prediction(s) dropped on c2")
            ]
            for field in ("predicted", "lower", "upper"):
                assert np.array_equal(getattr(a, field)[others],
                                      getattr(b, field)[others])
            assert b.predicted[2] == a.predicted[2]
            assert np.isfinite([b.lower[2], b.upper[2]]).all()

    @pytest.mark.parametrize("bad", ["point", "members"])
    def test_no_finite_prediction_raises(self, bad):
        twin = self._twin(six_channel_artifacts())
        if bad == "point":
            twin.models["c3"].weights[0] = np.nan
        else:
            twin.models["c3"].weights[1:] = np.nan
        Y, U = six_channel_stream(4, 6)
        twin.begin_buffering()
        for t in range(3):
            assert not twin.step(U[t], Y[t]).monitored
        before = twin_snapshot(twin)
        warns = (pytest.warns(MemberDroppedWarning, match="on c3$")
                 if bad == "members" else contextlib.nullcontext())
        with warns, pytest.raises(InvalidRegion, match="on c3$"):
            twin.step(U[3], Y[3])
        assert twin_snapshot(twin) == before

    def test_inverted_region_changes_nothing(self, monkeypatch):
        arts = six_channel_artifacts()
        clean, twin = self._twin(arts), self._twin(arts)
        Y, U = six_channel_stream(16, 7)
        for t in range(8):
            clean.step(U[t], Y[t])
            twin.step(U[t], Y[t])
        clean.begin_buffering()
        twin.begin_buffering()
        real = cg._ChannelGroup.band

        def inverted_on_c3(group, history):
            out = real(group, history)
            out[1:, 3] = out[2:0:-1, 3]
            return out

        monkeypatch.setattr(cg._ChannelGroup, "band", inverted_on_c3)
        before = twin_snapshot(twin)
        with pytest.raises(InvalidRegion, match=r"^inverted region \["):
            twin.step(U[8], Y[8])
        assert twin_snapshot(twin) == before
        monkeypatch.undo()
        for t in range(8, 16):
            a, b = clean.step(U[t], Y[t]), twin.step(U[t], Y[t])
            for field in ("predicted", "lower", "upper", "indicator", "Z"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
            assert (a.step, a.trigger) == (b.step, b.trigger)
        assert twin_snapshot(twin) == twin_snapshot(clean)
