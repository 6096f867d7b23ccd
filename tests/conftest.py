import os

# BLAS on one thread before numpy loads, as perfbench/run.py does: OpenBLAS
# sums some products in another order when it splits them over threads, so
# the bits the tests pin would otherwise depend on the host's CPU count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import math  # noqa: E402
import warnings  # noqa: E402
from collections import deque  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from gaslift_twin import bayes  # noqa: E402
from gaslift_twin import hyperband as hb  # noqa: E402
from gaslift_twin import network as nw  # noqa: E402
from gaslift_twin import plant  # noqa: E402
from gaslift_twin import structure  # noqa: E402
from gaslift_twin.errors import (  # noqa: E402
    DegenerateHoldup,
    DivergedLoss,
    GasLiftError,
    InvalidRegion,
    NegativeSqrtArgument,
    NoInflectionWarning,
)
from gaslift_twin.structure import build_lag_matrix, split_rows  # noqa: E402


def calibrated(model, point, lo, hi):
    """The member band ``lo``, ``hi`` of a model that has retrained widened
    to cover ``point`` ± its h, in normalized units; as it is otherwise."""
    if model.h is None:
        return lo, hi
    return np.minimum(lo, point - model.h), np.maximum(hi, point + model.h)


def loop_predict(model, y_window, u_window, confidence):
    """One channel's band computed on its own, one forward for the point and
    one for the members, as the twin did before channels were stacked, and
    widened by h once the model has retrained; the reference the stacked
    step must match bit for bit."""
    x = model.layout.regressors(np.asarray(y_window, dtype=float)[None, ::-1],
                                np.asarray(u_window, dtype=float)[::-1])
    xn = model.norm.normalize_regressors(x, model.layout)
    point_n = float(nw.forward(model.theta, model.spec, xn)[0])
    preds_n = np.asarray(nw.forward(model.members, model.spec, xn)).ravel()
    alpha = (1.0 - confidence) / 2.0
    lo_n, hi_n = calibrated(model, point_n, *np.quantile(preds_n, [alpha, 1.0 - alpha]))
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


def violation_indicator(measured, region_inf, region_sup):
    """Elementwise 0 where the measurement lies inside [inf, sup], boundary
    inclusive, and 1 elsewhere; a NaN measurement or bound counts as a
    violation. Scalars give an int, arrays an int array. Raises
    ``InvalidRegion`` if any region is inverted, before anything is
    returned. The twin's own check until its step checked in place, and
    now the reference that in-place check must match."""
    lo, hi = np.asarray(region_inf), np.asarray(region_sup)
    inverted = lo > hi
    if inverted.any():
        lo, hi = np.broadcast_arrays(lo, hi)
        raise InvalidRegion(
            f"inverted region [{lo[inverted][0]}, {hi[inverted][0]}]"
        )
    violated = ~((lo <= measured) & (measured <= hi))
    return int(violated) if violated.ndim == 0 else violated.astype(int)


def reference_trace(theta, spec, X):
    """Pre-activations and activations per layer, each a new array: the
    allocating forward pass ``network.forward`` and the gradient's forward
    must match bit for bit. ``acts[0]`` is ``X``."""
    a = X
    zs, acts = [], [a]
    for (W, b), kind in zip(nw._layers(theta, spec), spec.activations):
        z = np.matmul(a, W) + b[..., None, :]
        a = nw._act(z, kind)
        zs.append(z)
        acts.append(a)
    return zs, acts


def _times_act_prime(delta, z, a, kind):
    """``delta`` times the derivative at ``z`` of the activation whose output
    there is ``a``, as a new array."""
    if kind == "relu":
        return delta * (z > 0.0)
    if kind == "tanh":
        return delta * (1.0 - a * a)
    return delta


def reference_gradient(theta, spec, X, y, deltas=None):
    """The batch-MSE gradient and the sum of squared residuals per parameter
    row, by backpropagation through ``reference_trace`` with every delta and
    gradient a new array: the textbook chain that the preallocated kernel of
    ``network.gradient`` and ``network.train`` must match bit for bit. ``X``
    is (n, width), ``y`` (n,) or one row of targets per parameter row. A
    list passed as ``deltas`` receives each layer's delta, last layer
    first."""
    zs, acts = reference_trace(theta, spec, X)
    grad = np.empty_like(theta)
    Ws = [W for W, _ in nw._layers(theta, spec)]

    resid = acts[-1] - y[..., None]
    sse = np.square(resid[..., 0]).sum(axis=-1)
    delta = _times_act_prime((2.0 / X.shape[0]) * resid, zs[-1], acts[-1],
                             spec.activations[-1])
    for l in range(len(Ws) - 1, -1, -1):
        if deltas is not None:
            deltas.append(delta)
        start, w_end, b_end, _, _ = spec.layer_slices[l]
        dW = np.matmul(np.swapaxes(acts[l], -1, -2), delta)
        grad[..., start:w_end] = dW.reshape(*dW.shape[:-2], -1)
        grad[..., w_end:b_end] = delta.sum(axis=-2)
        if l > 0:
            delta = _times_act_prime(np.matmul(delta, np.swapaxes(Ws[l], -1, -2)),
                                     zs[l - 1], acts[l], spec.activations[l - 1])
    return grad, sse


class ReferenceTwin:
    """``CognitiveTwin.step`` one channel at a time, from the twin's models
    (read at every step, so a retrain's new weights and normalization show)
    and nothing of its step: each channel's regressor row built from its own
    lag lists, normalized column by column, ``reference_trace`` for the
    point weights and the members, ``np.quantile`` (linear) for the
    bounds, widened by h once a channel has retrained (``calibrated``),
    ``violation_indicator`` and one scalar ``CognitiveState`` window
    per channel. ``bands`` reads the bounds of the coming step, so a test
    can place measurements against them; ``reset_windows`` does what
    ``retrain`` does to the windows. Finite predictions only."""

    def __init__(self, twin):
        self.twin = twin
        self.reset_windows()
        self.y_past: list[np.ndarray] = []     # oldest first
        self.u_past: list[np.ndarray] = []
        self.k = 0

    def reset_windows(self):
        self.windows = [CognitiveState(self.twin.config) for _ in self.twin.channels]

    def _row(self, model, c):
        layout, norm = model.layout, model.norm
        y_span = norm.y_max - norm.y_min if norm.y_max > norm.y_min else 1.0
        u_span = np.where(norm.u_max > norm.u_min, norm.u_max - norm.u_min, 1.0)
        row = [(self.y_past[-1 - j][c] - norm.y_min) / y_span for j in range(layout.n_b)]
        for i in range(layout.n_u):
            row += [(self.u_past[-1 - j][i] - norm.u_min[i]) / u_span[i]
                    for j in range(layout.n_a)]
        return np.array([row])

    def _band(self, model, c, confidence):
        x = self._row(model, c)
        point = reference_trace(model.theta, model.spec, x)[1][-1][0, 0]
        preds = reference_trace(model.members, model.spec, x)[1][-1][:, 0, 0]
        alpha = (1.0 - confidence) / 2.0
        lo, hi = calibrated(model, point, *np.quantile(preds, [alpha, 1.0 - alpha]))
        return model.norm.denormalize_target(np.array([point, lo, hi]))

    def _monitored(self):
        layouts = [self.twin.models[c].layout for c in self.twin.channels]
        return (len(self.y_past) >= max(lay.n_b for lay in layouts)
                and len(self.u_past) >= max(lay.n_a for lay in layouts) - 1)

    def bands(self, u_now):
        """Point, lower and upper bound, (3, channels), that ``step`` will
        give on input ``u_now``; NaN while warming up."""
        twin = self.twin
        bands = np.full((3, len(twin.channels)), np.nan)
        if self._monitored():
            self.u_past.append(np.asarray(u_now, dtype=float))
            for c, name in enumerate(twin.channels):
                bands[:, c] = self._band(twin.models[name], c, twin.config.confidence)
            self.u_past.pop()
        return bands

    def step(self, u_now, y_now):
        """``(step, monitored, predicted, lower, upper, indicator, Z,
        trigger)`` for this sample, as ``StepResult`` holds them."""
        monitored = self._monitored()
        bands = self.bands(u_now)
        indicator = np.zeros(len(self.twin.channels), dtype=int)
        z = np.array([w.Z for w in self.windows])
        trigger = False
        if monitored:
            indicator = violation_indicator(y_now, bands[1], bands[2])
            steps = [cognitive_update(w, ind) for w, ind in zip(self.windows, indicator)]
            z = np.array([z_c for _, z_c, _ in steps])
            trigger = any(t for _, _, t in steps)
        self.u_past.append(np.asarray(u_now, dtype=float))
        self.y_past.append(np.asarray(y_now, dtype=float))
        self.k += 1
        return (self.k, monitored, bands[0], bands[1], bands[2], indicator, z, trigger)


def reference_refit(model, data, *, confidence, seed):
    """One channel's retrain written from its definition: per weight row,
    the last hidden layer's activations from ``reference_trace`` with a
    column of ones, and the ridge step toward the row's output weights as
    the least-squares solution of those features stacked on sqrt(penalty)
    times the identity; the point row's penalty the one of
    ``RIDGE_PENALTIES`` with the lowest validation MSE, every member's
    targets shifted by its offset from the point, and h the conformal order
    statistic of the validation errors. Linear output layers and finite
    solutions only. Returns the new normalization, weights and h."""
    from gaslift_twin.cognitive import RIDGE_PENALTIES

    y = data.Y[:, data.channels.index(model.channel)]
    X_raw, t_raw, _ = build_lag_matrix(y, data.U, model.layout, data.hold)
    norm = model.norm
    if not norm.covers(y, data.U):
        norm = norm.expanded(y, data.U)
    Xn = norm.normalize_regressors(X_raw, model.layout)
    tn = norm.normalize_target(t_raw)
    tr, va, _ = split_rows(len(tn), (0.85, 0.15, 0.0), seed)
    start, _, end, fan_in, _ = model.spec.layer_slices[-1]

    def features(theta):
        acts = reference_trace(theta, model.spec, Xn)[1]
        return np.column_stack([acts[-2], np.ones(len(Xn))]), acts[-1][:, 0]

    def refit(theta, targets, penalty):
        feats, pred = features(theta)
        stacked = np.vstack([feats[tr], np.sqrt(penalty) * np.eye(fan_in + 1)])
        rhs = np.concatenate([(targets - pred)[tr], np.zeros(fan_in + 1)])
        new = theta.copy()
        new[start:end] += np.linalg.lstsq(stacked, rhs, rcond=None)[0]
        return new

    def val_mse(theta):
        return np.mean((tn[va] - features(theta)[1][va]) ** 2)

    candidates = [refit(model.theta, tn, p * len(tr)) for p in RIDGE_PENALTIES]
    best = int(np.argmin([val_mse(c) for c in candidates]))
    penalty = RIDGE_PENALTIES[best] * len(tr)
    base = features(model.theta)[1]
    weights = [candidates[best]]
    for member in model.members:
        offset = features(member)[1] - base
        weights.append(refit(member, tn + offset, penalty))
    errors = sorted(np.abs(tn[va] - features(weights[0])[1][va]))
    k = math.ceil((len(va) + 1) * confidence)
    return norm, np.array(weights), errors[min(k, len(va)) - 1]


def reference_train(spec, X_train, y_train, X_val, y_val, *, initial=None, epochs=None,
                    learning_rate=None, patience=20, batch_weights=None):
    """``network.train`` as a plain loop: ``reference_gradient`` on each
    mini-batch, the loss over the whole training split after every epoch and
    an out-of-place Adam update. The reference the training loop's weights,
    validation losses and best epochs must match bit for bit; its
    ``train_loss`` is the full-split MSE at the end of each epoch. A list
    passed as ``batch_weights`` receives a copy of the weights each
    mini-batch's gradient is taken at."""
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    X_val = np.atleast_2d(np.asarray(X_val, dtype=float))
    theta = nw._theta_of(nw.initialize(spec) if initial is None else initial).copy()
    y_train = np.asarray(y_train, dtype=float).ravel()
    y_val = np.asarray(y_val, dtype=float).ravel()

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_epochs = spec.epochs if epochs is None else epochs
    lr = spec.learning_rate if learning_rate is None else learning_rate

    best_theta, best_val, best_epoch, since_best = theta.copy(), np.inf, -1, 0
    train_hist, val_hist = [], []

    if initial is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            va0 = nw.mse_loss(theta, spec, X_val, y_val)
        if np.isfinite(va0):
            best_val = va0

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
                if batch_weights is not None:
                    batch_weights.append(theta.copy())
                g = reference_gradient(theta, spec, X_train[idx], y_train[idx])[0]
                step += 1
                m = nw.ADAM_BETA1 * m + (1 - nw.ADAM_BETA1) * g
                v = nw.ADAM_BETA2 * v + (1 - nw.ADAM_BETA2) * g * g
                m_hat = m / (1 - nw.ADAM_BETA1**step)
                v_hat = v / (1 - nw.ADAM_BETA2**step)
                theta = theta - lr * m_hat / (np.sqrt(v_hat) + nw.ADAM_EPS)
            if not np.isfinite(theta).all():
                raise DivergedLoss(f"parameters diverged at epoch {epoch}")

        with np.errstate(over="ignore", invalid="ignore"):
            tr = nw.mse_loss(theta, spec, X_train, y_train)
            va = nw.mse_loss(theta, spec, X_val, y_val)
        if not (np.isfinite(tr) and np.isfinite(va)):
            raise DivergedLoss(f"non-finite loss at epoch {epoch}")
        train_hist.append(float(tr))
        val_hist.append(float(va))
        if va < best_val:
            best_theta, best_val, best_epoch, since_best = theta, va, epoch, 0
        else:
            since_best += 1
            if since_best >= patience:
                break

    return nw.TrainResult(
        weights=nw.NetworkWeights(theta=best_theta, layer_sizes=spec.layer_sizes),
        train_loss=tuple(train_hist),
        val_loss=tuple(val_hist),
        best_epoch=best_epoch,
    )


def reference_hyperband(dataset, space, config):
    """``hyperband.hyperband`` as one sequential loop in this process: each
    bracket draws its trials from the seeded rng at its start and runs its
    rungs before the next bracket draws, and the best trial is tracked as
    the records come. The reference the forked brackets must match trial
    for trial, bit for bit."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    width = dataset.layout.width
    trials = []
    best = None
    best_spec = None
    next_id = 0

    for bracket in hb.bracket_schedule(config):
        s = bracket["bracket"]
        # state per live trial: (trial_id, spec, checkpoint weights, epochs so far)
        live = []
        for _ in range(bracket["n_start"]):
            spec = hb.sample_config(space, width, rng, seed=config.seed + next_id,
                                    batch_size=config.batch_size,
                                    epochs=config.max_resource)
            live.append((next_id, spec, None, 0))
            next_id += 1

        for i, rung in enumerate(bracket["rungs"]):
            scored = []
            for trial_id, spec, ckpt, done in live:
                grant = rung["epochs"] - done
                try:
                    res = nw.train_channel(
                        dataset, spec, initial=ckpt, epochs=grant,
                        patience=10**9,
                    )
                    loss = min(res.val_loss) if res.val_loss else np.inf
                    ckpt = res.weights
                except GasLiftError:
                    loss = np.inf
                trials.append(
                    hb.TrialRecord(
                        trial_id=trial_id, bracket=s, rung=i, spec=spec,
                        epochs=rung["epochs"], val_loss=float(loss),
                    )
                )
                if np.isfinite(loss):
                    scored.append((loss, trial_id, spec, ckpt, rung["epochs"]))
                    if best is None or (loss, trial_id) < best:
                        best = (loss, trial_id)
                        best_spec = spec
            if i == len(bracket["rungs"]) - 1:
                break
            scored.sort(key=lambda rec: (rec[0], rec[1]))
            keep = int(np.floor(rung["n"] / config.eta))
            live = [(tid, sp, ck, ep) for _, tid, sp, ck, ep in scored[:keep]]
            if not live:
                break

    if best_spec is None:
        raise GasLiftError("every trial failed")
    return hb.HyperbandResult(best_spec=best_spec, best_loss=best[0], trials=tuple(trials))


def reference_lipschitz(X, y):
    """``structure.lipschitz_coefficients`` on its all-pairs path as it ran
    before it took the pairs alone: full n x n squared-distance and |dy|
    matrices, gathered at their upper triangle. The reference the pairwise
    kernel must match byte for byte."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.clip(d2, 0.0, None, out=d2)
    dy = np.abs(y[:, None] - y[None, :])
    iu = np.triu_indices(len(y), k=1)
    d2, dy = d2[iu], dy[iu]
    keep = d2 > structure._ZERO_DIST_SQ
    return dy[keep] / np.sqrt(d2[keep])


def assert_no_children():
    """This process has no child left, running or unreaped: ``waitpid``
    finds none to wait for. ``multiprocessing.active_children`` would see
    only the children that ``multiprocessing`` started."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def reference_replay(script, params, warmup_s):
    """The plant's holdups at each second of a SIL replay, stepped the way
    ``sil.run_scenario`` stepped them before it integrated a scenario in one
    simulation: settle for ``warmup_s`` seconds at the baseline, then hold
    ``script.valve_openings(t)`` over ``plant.SUBSTEPS`` calls of
    ``plant.step`` for each logged second t. The reference for the replay's
    ``truth`` and for the state ``handle_drift`` starts from. Returns (m_g,
    m_l) as (n, 3) arrays."""
    state = plant.simulate_experiment(script.baseline, warmup_s, params,
                                      plant.default_initial_state(params)).final_state
    m_g, m_l = [], []
    for t in range(1, script.duration_s + 1):
        inputs = dataclasses.replace(script.baseline, v_o=script.valve_openings(float(t)))
        for _ in range(plant.SUBSTEPS):
            state = plant.step(state, inputs, params, plant.INTERNAL_DT)
        m_g.append(state.m_g)
        m_l.append(state.m_l)
    return np.array(m_g), np.array(m_l)


def propagate_uncertainty(members, spec, layout, y_window, U, *, confidence=0.95):
    """Free-run every member and summarize the trajectories per step as the
    band's lower and upper bound; ``U`` carries the input history first, as
    ``simulate_closed_loop`` takes it.

    Members whose trajectories go non-finite are dropped with a warning;
    at least one must survive.
    """
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if len(members) == 0:
        raise InvalidRegion("ensemble is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        paths = nw.simulate_closed_loop(members, spec, layout, y_window, U)
    return bayes._coverage(paths, confidence)


def reference_reduce(samples, spec, layout, y_window, U, sizes, seed, *,
                     degeneration_tol=0.1, confidence=0.95):
    """``bayes.reduce_ensemble`` with one ``propagate_uncertainty`` free run
    per band, the full ensemble's and each candidate size's, as it ran before
    every sample was free-run once; the reference the one-run reduction must
    match bit for bit, warnings included. Keeps ceil(1.25 * inflection)
    members, the paper's 25 % safety factor."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = len(samples)
    lower, upper = propagate_uncertainty(samples, spec, layout, y_window, U,
                                         confidence=confidence)
    w_full = float(np.mean(upper - lower))
    rng = np.random.Generator(np.random.PCG64(seed))
    ratios = []
    for size in sizes:
        idx = rng.choice(n, size=size, replace=False)
        if w_full == 0.0:
            ratios.append(1.0)
            continue
        lower, upper = propagate_uncertainty(samples[idx], spec, layout, y_window, U,
                                             confidence=confidence)
        ratios.append(float(np.mean(upper - lower)) / w_full)
    inflection = next((size for size, ratio in sorted(zip(sizes, ratios))
                       if ratio >= 1.0 - degeneration_tol), None)
    if inflection is None:
        warnings.warn("coverage width degenerates at every tested size; keeping "
                      "the full ensemble", NoInflectionWarning)
        return samples.copy(), bayes.ReductionReport(tuple(sizes), tuple(ratios), None, n)
    chosen = min(n, int(np.ceil(1.25 * inflection)))
    idx = rng.choice(n, size=chosen, replace=False)
    idx.sort()
    return samples[idx], bayes.ReductionReport(tuple(sizes), tuple(ratios),
                                               inflection, chosen)


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
def refit_reference():
    """``reference_refit(model, data, *, confidence, seed) -> (norm,
    weights, h)``."""
    return reference_refit


@pytest.fixture
def train_reference():
    return reference_train


@pytest.fixture
def gradient_reference():
    return reference_gradient


@pytest.fixture
def trace_reference():
    return reference_trace


@pytest.fixture(scope="session")
def lipschitz_reference():
    return reference_lipschitz


@pytest.fixture(scope="session")
def no_children():
    """``assert_no_children``: call it after a fan-out."""
    return assert_no_children


@pytest.fixture
def hyperband_reference():
    return reference_hyperband


@pytest.fixture
def propagate_reference():
    return propagate_uncertainty


@pytest.fixture
def reduce_reference():
    return reference_reduce


@pytest.fixture(scope="session")
def indicator_reference():
    return violation_indicator


@pytest.fixture(scope="session")
def step_reference():
    """``ReferenceTwin``: built on a twin, its ``step`` is the reference
    for the twin's."""
    return ReferenceTwin


@pytest.fixture(scope="session")
def window_reference():
    """The scalar per-channel window: ``state(config)`` and ``update(state,
    indicator) -> (state, Z, trigger)``."""
    return SimpleNamespace(state=CognitiveState, update=cognitive_update)


@pytest.fixture(scope="session")
def replay_reference():
    """``reference_replay(script, params, warmup_s) -> (m_g, m_l)``."""
    return reference_replay


@pytest.fixture(scope="session")
def numpy_plant():
    """The plant's numpy reference: ``outputs`` evaluates the chain in input
    units, ``rhs`` gives the mass-balance derivatives, and ``step`` and
    ``log`` stand for ``plant.step`` and the 1 Hz loop of
    ``simulate_experiment``/``simulate_schedule``."""
    return SimpleNamespace(outputs=reference_outputs, rhs=reference_rhs,
                           step=reference_step, log=reference_log)
