"""Recorded plant streams and small hand-built twins for the online workloads.

A twin here is six per-channel networks trained on a short LHS stream, each
with an ensemble made by spreading the output bias of the fit over a few
residual standard deviations. This keeps set-up cheap and the coverage band
wide enough that a quiet plant stays inside it, independent of what the
offline pipeline would produce.
"""

from __future__ import annotations

import numpy as np

from gaslift_twin.cognitive import make_artifact
from gaslift_twin.doe import TABLE_BOUNDS, build_input_sequence, lhs_sample
from gaslift_twin.network import NetworkSpec, forward, train_channel
from gaslift_twin.plant import (
    CHANNEL_NAMES,
    PlantInputs,
    PlantParams,
    default_initial_state,
    simulate_experiment,
    simulate_schedule,
)
from gaslift_twin.structure import NarxLayout, assemble_narx_dataset

BASELINE = PlantInputs(Q_g=np.array([3.0, 3.0, 3.0]), v_o=np.ones(3), P_pump=2.65)
SETTLE_S = 100.0


def record_stream(seed: int, n_plateaus: int, hold: int,
                  params: PlantParams | None = None):
    """Plant outputs Y (n, 6) and inputs U (n, 4) under an LHS schedule.

    The plant first settles at the baseline so the stream starts from a
    realistic operating point rather than the cold start state.
    """
    params = params if params is not None else PlantParams()
    plan = lhs_sample(n_plateaus, TABLE_BOUNDS, seed)
    sched = build_input_sequence(plan, float(hold))
    settle = simulate_experiment(BASELINE, SETTLE_S, params,
                                 default_initial_state(params))
    traj = simulate_schedule(sched.Q_g, sched.v_o, sched.P_pump, sched.hold,
                             params, settle.final_state)
    return traj.states_matrix(), traj.inputs_matrix()


def build_artifacts(Y, U, hold: int, *, layout: NarxLayout,
                    hidden: tuple[int, ...], activations: tuple[str, ...],
                    n_members: int, spread: float, epochs: int, seed: int):
    """One OfflineArtifact per plant channel.

    Members are the fitted weights with the output bias shifted evenly
    across ``spread`` residual standard deviations either side of the fit.
    """
    datasets = assemble_narx_dataset(Y, U, hold, layout, seed=seed)
    spec = NetworkSpec((layout.width, *hidden, 1), (*activations, "linear"),
                       learning_rate=0.01, batch_size=64, seed=seed)
    offsets = np.linspace(-1.0, 1.0, n_members)
    artifacts = {}
    for name in CHANNEL_NAMES:
        ds = datasets[name]
        res = train_channel(ds, spec, epochs=epochs)
        theta = res.weights.theta
        X, y = ds.normalized_split("train")
        resid_std = max(float(np.std(forward(theta, spec, X) - y)), 1e-6)
        members = np.tile(theta, (n_members, 1))
        members[:, -1] += offsets * spread * resid_std
        artifacts[name] = make_artifact(name, spec, layout, ds.norm, theta, members)
    return artifacts
