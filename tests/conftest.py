import numpy as np
import pytest

from gaslift_twin import network as nw
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
