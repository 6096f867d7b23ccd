import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from gaslift_twin import network as nw
from gaslift_twin import plant
from gaslift_twin.errors import DegenerateHoldup, DivergedLoss, NegativeSqrtArgument
from gaslift_twin.structure import build_lag_matrix, split_rows


def loop_predict(model, y_window, u_window, confidence):
    """One channel's band computed on its own, one forward for the point and
    one for the members, as the twin did before channels were stacked; the
    reference the stacked step must match bit for bit."""
    x = model.layout.regressors(np.asarray(y_window, dtype=float)[None, ::-1],
                                np.asarray(u_window, dtype=float)[::-1])
    xn = model.norm.normalize_regressors(x, model.layout)
    point_n = float(nw.forward(model.theta, model.spec, xn)[0])
    preds_n = np.asarray(nw.forward(model.members, model.spec, xn)).ravel()
    alpha = (1.0 - confidence) / 2.0
    lo_n, hi_n = np.quantile(preds_n, [alpha, 1.0 - alpha])
    return model.norm.denormalize_target(np.array([point_n, lo_n, hi_n]))


class CognitiveState:
    """Sliding violation window for one channel, as the twin kept one per
    channel before its channels shared one ``ViolationWindow``: the scalar
    reference the window must match channel by channel. ``window()`` is the
    buffered contents, so a test can recount it."""

    def __init__(self, config):
        self.config = config
        self._window = deque(maxlen=config.mh)
        self._pending = deque()
        self.Z = 0
        self.k = 0
        self.triggered = False

    def window(self) -> tuple[int, ...]:
        return tuple(self._window)


def cognitive_update(state, indicator):
    """Push one indicator, advance the window and report the trigger flag."""
    ind = int(indicator)
    if ind not in (0, 1):
        raise ValueError("indicator must be 0 or 1")
    cfg = state.config
    state.k += 1
    state._pending.append(ind)
    delay = max(0, cfg.a_offset - 1)
    if len(state._pending) > delay:
        entering = state._pending.popleft()
        evicted = state._window[0] if len(state._window) == cfg.mh else 0
        state._window.append(entering)
        state.Z += entering - evicted
    trigger = state.Z >= cfg.ct
    if trigger:
        state.triggered = True
    return state, state.Z, trigger


def loop_retrained(model, data, *, epochs, lr_factor, seed):
    """One channel's retrain with one single-vector ``train`` call for the
    point weights and one per member, as the twin did before the fine-tunes
    were stacked; the reference the stacked retrain must match bit for bit.
    Returns the new normalization and weights."""
    y = data.Y[:, data.channels.index(model.channel)]
    X_raw, t_raw, _ = build_lag_matrix(y, data.U, model.layout, data.hold)
    norm = model.norm
    if not norm.covers(y, data.U):
        norm = norm.expanded(y, data.U)
    Xn = norm.normalize_regressors(X_raw, model.layout)
    tn = norm.normalize_target(t_raw)
    tr, va, _ = split_rows(len(tn), (0.85, 0.15, 0.0), seed)

    def fine_tune(theta0, targets):
        try:
            res = nw.train(
                model.spec, Xn[tr], targets[tr], Xn[va], targets[va],
                initial=nw.NetworkWeights(theta0.copy(), model.spec.layer_sizes),
                epochs=epochs, learning_rate=model.spec.learning_rate * lr_factor,
            )
        except DivergedLoss:
            return None
        return res.weights.theta

    point = fine_tune(model.theta, tn)
    if point is None:
        point = model.theta.copy()
    base_pred = nw.forward(model.theta, model.spec, Xn)
    member_pred = nw.forward(model.members, model.spec, Xn)
    weights = np.tile(point, (1 + model.n_members, 1))
    for i, member in enumerate(model.members):
        offset = member_pred[i] - base_pred
        tuned = fine_tune(member, tn + offset) if np.isfinite(offset).all() else None
        if tuned is not None:
            weights[1 + i] = tuned
    return norm, weights


def reference_train(spec, X_train, y_train, X_val, y_val, *, initial=None, epochs=None,
                    learning_rate=None, patience=20):
    """``network.train`` as a plain loop: the loss over the whole training
    split after every epoch and an out-of-place Adam update. The reference
    the training loop's weights, validation losses, best epochs and
    divergence masks must match bit for bit; its ``train_loss`` is the
    full-split MSE at the end of each epoch."""
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    X_val = np.atleast_2d(np.asarray(X_val, dtype=float))
    theta = nw._theta_of(nw.initialize(spec) if initial is None else initial).copy()
    lead = theta.shape[:-1]
    y_train = np.asarray(y_train, dtype=float)
    y_val = np.asarray(y_val, dtype=float)
    if not lead:
        y_train, y_val = y_train.ravel(), y_val.ravel()

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_epochs = spec.epochs if epochs is None else epochs
    lr = spec.learning_rate if learning_rate is None else learning_rate

    best_theta = theta.copy()
    best_val = np.full(lead, np.inf)
    best_epoch = np.full(lead, -1)
    since_best = np.zeros(lead, dtype=int)
    active = np.ones(lead, dtype=bool)
    diverged = np.zeros(lead, dtype=bool)
    train_hist, val_hist = [], []

    if initial is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            va0 = nw.mse_loss(theta, spec, X_val, y_val)
        best_val = np.where(np.isfinite(va0), va0, np.inf)

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    n = X_train.shape[0]
    batch = min(spec.batch_size, n)

    for epoch in range(n_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            with np.errstate(over="ignore", invalid="ignore"):
                g = nw.gradient(theta, spec, X_train[idx], y_train.take(idx, axis=-1))
                step += 1
                m_new = nw.ADAM_BETA1 * m + (1 - nw.ADAM_BETA1) * g
                v_new = nw.ADAM_BETA2 * v + (1 - nw.ADAM_BETA2) * g * g
                m_hat = m_new / (1 - nw.ADAM_BETA1**step)
                v_hat = v_new / (1 - nw.ADAM_BETA2**step)
                theta_new = theta - lr * m_hat / (np.sqrt(v_hat) + nw.ADAM_EPS)
            ok = np.isfinite(theta_new).all(axis=-1)
            if lead:
                diverged |= active & ~ok
                active &= ok
                keep = active[..., None]
                theta_new = np.where(keep, theta_new, theta)
                m_new = np.where(keep, m_new, m)
                v_new = np.where(keep, v_new, v)
            elif not ok:
                raise DivergedLoss(f"parameters diverged at epoch {epoch}")
            theta, m, v = theta_new, m_new, v_new

        with np.errstate(over="ignore", invalid="ignore"):
            tr = nw.mse_loss(theta, spec, X_train, y_train)
            va = nw.mse_loss(theta, spec, X_val, y_val)
            ok = np.isfinite(tr) & np.isfinite(va)
            if not (lead or ok):
                raise DivergedLoss(f"non-finite loss at epoch {epoch}")
            diverged |= active & ~ok
            active &= ok
            train_hist.append(np.where(active, tr, np.nan))
            val_hist.append(np.where(active, va, np.nan))
            improved = active & (va < best_val)
        best_val = np.where(improved, va, best_val)
        best_theta = np.where(improved[..., None], theta, best_theta)
        best_epoch = np.where(improved, epoch, best_epoch)
        since_best = np.where(improved, 0, since_best + 1)
        active &= improved | (since_best < patience)
        if not active.any():
            break

    w = nw.NetworkWeights(theta=best_theta, layer_sizes=spec.layer_sizes)
    if lead:
        return nw.TrainResult(
            weights=w,
            train_loss=np.array(train_hist).reshape(-1, *lead),
            val_loss=np.array(val_hist).reshape(-1, *lead),
            best_epoch=best_epoch,
            diverged=diverged,
        )
    return nw.TrainResult(
        weights=w,
        train_loss=tuple(float(x) for x in train_hist),
        val_loss=tuple(float(x) for x in val_hist),
        best_epoch=int(best_epoch),
    )


def reference_chain(m_g, m_l, w_g, v_o, pp_pa, params):
    """Pressures, densities and flows of all wells from the plant's numpy
    chain, elementwise over arrays of any matching shape (one state or a
    run's logged samples); gas injection in kg/s, pump pressure in Pa.

    The plant's per-well float kernel (``plant._well_derivatives``) runs
    these float operations in this order, so integrating this chain must give
    its results bit for bit. Raises NegativeSqrtArgument when a driving
    pressure difference is negative, DegenerateHoldup when liquid fills the
    pipe.
    """
    V_l = m_l / params.rho_l
    V_g = params.V_total - V_l
    if np.any(V_g <= 0.0):
        raise DegenerateHoldup(f"gas volume non-positive: V_g={V_g}")
    rho_g = m_g / V_g
    P_bi = rho_g * params.R * params.T / params.M_g

    dp_res = pp_pa - P_bi
    if np.any(dp_res < 0.0):
        raise NegativeSqrtArgument(
            f"pump pressure {pp_pa} Pa below injection-point pressure {P_bi}")
    w_l = v_o * np.asarray(params.theta_res) * np.sqrt(params.rho_l * dp_res)

    rho_mix = (m_g + m_l) / params.V_total
    friction = 128.0 * params.mu_mix * (w_g + w_l) * params.L / (
        math.pi * rho_mix * params.D ** 4)
    P_rh = P_bi - rho_mix * params.g * params.delta_h - friction

    dp_top = P_rh - params.P_atm
    if np.any(dp_top < 0.0):
        raise NegativeSqrtArgument(f"riser-head pressure below atmospheric: P_rh={P_rh}")
    w_total = np.asarray(params.theta_top) * np.sqrt(rho_mix * dp_top)

    alpha_l = m_l / (m_g + m_l)
    w_l_out = alpha_l * w_total
    return SimpleNamespace(
        w_l=w_l, w_g=w_g, P_bi=P_bi, P_rh=P_rh, rho_g=rho_g, rho_mix=rho_mix, V_g=V_g,
        V_l=V_l, alpha_l=alpha_l, w_total=w_total, w_l_out=w_l_out, w_g_out=w_total - w_l_out)


def reference_outputs(m_g, m_l, Q_g, v_o, P_pump, params):
    """``reference_chain`` in the plant's input units (sL/min, bar): of one
    state under ``PlantInputs``' arrays, or of a run's logged holdups under
    its (n, 3) and (n,) input rows."""
    return reference_chain(m_g, m_l, np.asarray(Q_g) * plant.SL_PER_MIN_TO_KG_S, v_o,
                           np.asarray(P_pump)[..., None] * plant.BAR_TO_PA, params)


def reference_rhs(m_g, m_l, w_g, v_o, pp_pa, params):
    """Mass-balance derivatives of all wells from the numpy chain."""
    out = reference_chain(m_g, m_l, w_g, v_o, pp_pa, params)
    return out.w_g - out.w_g_out, out.w_l - out.w_l_out


def reference_rk4(m_g, m_l, w_g, v_o, pp_pa, params, dt):
    k1g, k1l = reference_rhs(m_g, m_l, w_g, v_o, pp_pa, params)
    k2g, k2l = reference_rhs(m_g + 0.5 * dt * k1g, m_l + 0.5 * dt * k1l, w_g, v_o, pp_pa,
                             params)
    k3g, k3l = reference_rhs(m_g + 0.5 * dt * k2g, m_l + 0.5 * dt * k2l, w_g, v_o, pp_pa,
                             params)
    k4g, k4l = reference_rhs(m_g + dt * k3g, m_l + dt * k3l, w_g, v_o, pp_pa, params)
    new_g = m_g + dt / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
    new_l = m_l + dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
    return new_g, new_l


def reference_step(state, inputs, params, dt):
    """(m_g, m_l) after one numpy RK4 step; the reference for ``plant.step``."""
    m_g, m_l = reference_rk4(state.m_g, state.m_l, inputs.Q_g * plant.SL_PER_MIN_TO_KG_S,
                             inputs.v_o, inputs.P_pump * plant.BAR_TO_PA, params, dt)
    plant._check_bounds(m_g, m_l, params)
    return m_g, m_l


def reference_log(m_g, m_l, Q_g, v_o, P_pump, params):
    """Hold input row i over the i-th second with numpy RK4 substeps and log
    the holdups at the end of each second, one row at a time; the reference
    for ``simulate_experiment`` and ``simulate_schedule``. Returns (m_g, m_l)
    as (k, 3) arrays."""
    rows = []
    for i in range(len(P_pump)):
        w_g = Q_g[i] * plant.SL_PER_MIN_TO_KG_S
        pp_pa = P_pump[i] * plant.BAR_TO_PA
        for _ in range(plant.SUBSTEPS):
            m_g, m_l = reference_rk4(m_g, m_l, w_g, v_o[i], pp_pa, params, plant.INTERNAL_DT)
        plant._check_bounds(m_g, m_l, params)
        rows.append((m_g, m_l))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def _step_matches_predict(twin, Y, U, steps=None):
    """Step ``twin`` through rows ``steps`` (all by default) of the stream and
    require every monitored step's point, lower and upper bound to equal, bit
    for bit, each channel's own ``OnlineChannelModel.predict`` and
    ``loop_predict`` on the same windows, the last eight samples, deeper
    than any lag layout used here. Returns the number of monitored steps."""
    confidence = twin.config.confidence
    monitored = 0
    for t in range(len(Y)) if steps is None else steps:
        r = twin.step(U[t], Y[t])
        if not r.monitored:
            continue
        monitored += 1
        for i, c in enumerate(twin.channels):
            model = twin.models[c]
            y_window, u_window = Y[max(0, t - 8) : t, i], U[max(0, t - 8) : t + 1]
            got = np.array([r.predicted[i], r.lower[i], r.upper[i]])
            assert np.array_equal(got, model.predict(y_window, u_window, confidence))
            assert np.array_equal(got, loop_predict(model, y_window, u_window,
                                                    confidence))
    return monitored


@pytest.fixture
def step_matches_predict():
    return _step_matches_predict


@pytest.fixture
def retrain_reference():
    return loop_retrained


@pytest.fixture
def train_reference():
    return reference_train


@pytest.fixture(scope="session")
def window_reference():
    """The scalar per-channel window: ``state(config)`` and ``update(state,
    indicator) -> (state, Z, trigger)``."""
    return SimpleNamespace(state=CognitiveState, update=cognitive_update)


@pytest.fixture(scope="session")
def numpy_plant():
    """The plant's numpy reference: ``outputs`` evaluates the chain in input
    units, ``rhs`` gives the mass-balance derivatives, and ``step`` and
    ``log`` stand for ``plant.step`` and the 1 Hz loop of
    ``simulate_experiment``/``simulate_schedule``."""
    return SimpleNamespace(outputs=reference_outputs, rhs=reference_rhs,
                           step=reference_step, log=reference_log)
