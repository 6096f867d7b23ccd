from types import SimpleNamespace

import numpy as np
import pytest

from gaslift_twin import network as nw
from gaslift_twin import plant
from gaslift_twin.cognitive import one_step_regressor


def loop_predict(model, y_window, u_window, confidence):
    """One channel's band computed on its own, one forward for the point and
    one for the members, as the twin did before channels were stacked; the
    reference the stacked step must match bit for bit."""
    x = one_step_regressor(model.layout, y_window, u_window)
    xn = model.norm.normalize_regressors(x[None], model.layout)
    point_n = float(nw.forward(model.theta, model.spec, xn)[0])
    preds_n = np.asarray(nw.forward(model.members, model.spec, xn)).ravel()
    alpha = (1.0 - confidence) / 2.0
    lo_n, hi_n = np.quantile(preds_n, [alpha, 1.0 - alpha])
    return model.norm.denormalize_target(np.array([point_n, lo_n, hi_n]))


def reference_rhs(m_g, m_l, w_g, v_o, pp_pa, params, clamp):
    """Mass-balance derivatives of all wells from the numpy chain: the
    formulation the plant's per-well float kernel must equal bit for bit."""
    out = plant._chain(m_g, m_l, w_g, v_o, pp_pa, params, clamp)
    w_l, w_g_in = out[0], out[1]
    w_l_out, w_g_out = out[10], out[11]
    return w_g_in - w_g_out, w_l - w_l_out


def reference_rk4(m_g, m_l, w_g, v_o, pp_pa, params, dt, clamp):
    k1g, k1l = reference_rhs(m_g, m_l, w_g, v_o, pp_pa, params, clamp)
    k2g, k2l = reference_rhs(m_g + 0.5 * dt * k1g, m_l + 0.5 * dt * k1l, w_g, v_o, pp_pa,
                             params, clamp)
    k3g, k3l = reference_rhs(m_g + 0.5 * dt * k2g, m_l + 0.5 * dt * k2l, w_g, v_o, pp_pa,
                             params, clamp)
    k4g, k4l = reference_rhs(m_g + dt * k3g, m_l + dt * k3l, w_g, v_o, pp_pa, params, clamp)
    new_g = m_g + dt / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
    new_l = m_l + dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
    return new_g, new_l


def reference_step(state, inputs, params, dt, clamp=False):
    """(m_g, m_l) after one numpy RK4 step; the reference for ``plant.step``."""
    m_g, m_l = reference_rk4(state.m_g, state.m_l, inputs.Q_g * plant.SL_PER_MIN_TO_KG_S,
                             inputs.v_o, inputs.P_pump * plant.BAR_TO_PA, params, dt, clamp)
    plant._check_bounds(m_g, m_l, params)
    return m_g, m_l


def reference_log(m_g, m_l, Q_g, v_o, P_pump, params):
    """Hold input row i over the i-th second with numpy RK4 substeps and log
    the holdups and every algebraic output at the end of each second, one row
    at a time; the reference for ``simulate_experiment`` and
    ``simulate_schedule``. Returns (m_g, m_l, algebraic) with (k, 3) arrays."""
    rows = []
    for i in range(len(P_pump)):
        w_g = Q_g[i] * plant.SL_PER_MIN_TO_KG_S
        pp_pa = P_pump[i] * plant.BAR_TO_PA
        for _ in range(plant.SUBSTEPS):
            m_g, m_l = reference_rk4(m_g, m_l, w_g, v_o[i], pp_pa, params,
                                     plant.INTERNAL_DT, False)
        plant._check_bounds(m_g, m_l, params)
        rows.append((m_g, m_l, plant._chain(m_g, m_l, w_g, v_o[i], pp_pa, params, False)))
    algebraic = {name: np.array([r[2][k] for r in rows])
                 for k, name in enumerate(plant.ALGEBRAIC_FIELDS)}
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows]), algebraic


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


@pytest.fixture(scope="session")
def numpy_plant():
    """The numpy RK4 reference: ``step`` and ``log`` stand for ``plant.step``
    and the 1 Hz loop of ``simulate_experiment``/``simulate_schedule``."""
    return SimpleNamespace(rhs=reference_rhs, step=reference_step, log=reference_log)
