"""Layer boundaries of gaslift_twin and the per-layer metrics built on them.

Each entry point is wrapped under the name its caller looks up, so the same
function reached through two modules gets two wrappers with one span name.
Layers are named after the package modules.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from gaslift_twin import bayes, cognitive, hyperband, pipeline, sil, structure
from gaslift_twin.artifacts import StageStore
from gaslift_twin.cognitive import CognitiveTwin, OnlineChannelModel

from stats import self_times

STAGES = ("gen-data", "select-structure", "tune", "fit", "mcmc", "reduce")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    *((f"pipeline.{s}_s", "s", "lower") for s in STAGES),
    ("plant.sim_s", "s", "lower"),
    ("plant.sim_seconds", "sim-s", "lower"),
    ("plant.rate", "sim-s/s", "higher"),
    ("plant.step_calls", "count", "lower"),
    ("plant.step_s", "s", "lower"),
    ("structure.select_s", "s", "lower"),
    ("structure.lipschitz_calls", "count", "lower"),
    ("hyperband.s", "s", "lower"),
    ("hyperband.trials", "count", "lower"),
    ("hyperband.epochs", "count", "lower"),
    ("hyperband.failed_trials", "count", "lower"),
    ("network.train_calls", "count", "lower"),
    ("network.train_s", "s", "lower"),
    ("network.epochs", "count", "lower"),
    ("network.diverged", "count", "lower"),
    ("network.forward_calls", "count", "lower"),
    ("network.forward_rows", "count", "lower"),
    ("network.forward_s", "s", "lower"),
    ("network.closed_loop_s", "s", "lower"),
    ("cognitive.predict_s", "s", "lower"),
    ("cognitive.step_s", "s", "lower"),
    ("bayes.mcmc_s", "s", "lower"),
    ("bayes.posterior_evals", "count", "lower"),
    ("bayes.acceptance", "frac", "higher"),
    ("bayes.reduce_s", "s", "lower"),
    ("bayes.members_kept", "count", "lower"),
    ("artifacts.bytes", "B", "lower"),
    ("artifacts.chain_bytes", "B", "lower"),
    ("artifacts.write_s", "s", "lower"),
    ("artifacts.verify_s", "s", "lower"),
    ("artifacts.load_s", "s", "lower"),
    ("cognitive.retrain_s", "s", "lower"),
    ("cognitive.fine_tunes", "count", "lower"),
    ("cognitive.handle_drift_s", "s", "lower"),
    ("sil.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _count_schedule(counters, args, kwargs, traj):
    counters["plant.sim_seconds"] += len(traj)


def _count_experiment(counters, args, kwargs, traj):
    # the first sample is the initial state, not a simulated second
    counters["plant.sim_seconds"] += len(traj) - 1


def _count_step(counters, args, kwargs, state):
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    counters["plant.sim_seconds"] += dt


def _count_search(counters, args, kwargs, result):
    counters["hyperband.trials"] += len(result.trials)
    counters["hyperband.epochs"] += result.total_epochs
    counters["hyperband.failed_trials"] += sum(
        1 for t in result.trials if not math.isfinite(t.val_loss)
    )


def _count_train(counters, args, kwargs, result):
    counters["network.epochs"] += len(result.train_loss)


def _count_forward(counters, args, kwargs, out):
    theta = args[0]
    theta = getattr(theta, "theta", theta)
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    rows_shape = rows.shape if isinstance(rows, np.ndarray) else np.shape(rows)
    n_rows = math.prod(rows_shape[:-1]) if len(rows_shape) > 1 else 1
    counters["network.forward_rows"] += math.prod(np.shape(theta)[:-1]) * n_rows


def _count_mcmc(counters, args, kwargs, result):
    chain, _ = result
    counters["bayes.posterior_evals"] += chain.length + 1
    counters["bayes.proposed"] += chain.length
    counters["bayes.accepted"] += int(np.sum(chain.accepted))


def _count_reduce(counters, args, kwargs, result):
    _, report = result
    counters["bayes.members_kept"] += report.chosen_size


def _count_bytes(counters, args, kwargs, path):
    size = path.stat().st_size
    counters["artifacts.bytes"] += size
    if "chains" in path.parts:
        counters["artifacts.chain_bytes"] += size


# (owner, attribute, span name, counter callback)
WRAP_POINTS = (
    (pipeline, "simulate_schedule", "plant.simulate", _count_schedule),
    (pipeline, "simulate_experiment", "plant.simulate", _count_experiment),
    (cognitive, "simulate_schedule", "plant.simulate", _count_schedule),
    (sil, "simulate_experiment", "plant.simulate", _count_experiment),
    (sil, "plant_step", "plant.step", _count_step),
    (pipeline, "select_embedding", "structure.select", None),
    (structure, "lipschitz_coefficients", "structure.lipschitz", None),
    (pipeline, "hyperband", "hyperband.search", _count_search),
    (hyperband, "train_channel", "network.train", _count_train),
    (pipeline, "train_channel", "network.train", _count_train),
    (cognitive, "train", "network.train", _count_train),
    (cognitive, "forward", "network.forward", _count_forward),
    (bayes, "forward", "network.forward", _count_forward),
    (sil, "forward", "network.forward", _count_forward),
    (bayes, "simulate_closed_loop", "network.closed_loop", None),
    (pipeline, "sample_weight_posterior", "bayes.mcmc", _count_mcmc),
    (pipeline, "reduce_ensemble", "bayes.reduce", _count_reduce),
    (pipeline, "write_text", "artifacts.write", _count_bytes),
    (pipeline, "write_json", "artifacts.write", _count_bytes),
    (pipeline, "write_csv", "artifacts.write", _count_bytes),
    (StageStore, "verify", "artifacts.verify", None),
    # pipeline's artifact readers; the underscored ones are module-private,
    # so a rename shows up as a missing wrap point in the report
    (pipeline, "read_csv", "artifacts.load", None),
    (pipeline, "_load_series", "artifacts.load", None),
    (pipeline, "_load_layout", "artifacts.load", None),
    (pipeline, "_load_spec", "artifacts.load", None),
    (pipeline, "_load_weights", "artifacts.load", None),
    (pipeline, "_load_chain_samples", "artifacts.load", None),
    (pipeline, "load_offline_artifacts", "artifacts.load", None),
    (CognitiveTwin, "step", "cognitive.step", None),
    (OnlineChannelModel, "predict", "cognitive.predict", None),
    (CognitiveTwin, "retrain", "cognitive.retrain", None),
    (sil, "handle_drift", "cognitive.handle_drift", None),
    (sil, "run_scenario", "sil.run_scenario", None),
)


def _span_totals(spans):
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a layer that
    calls itself through another wrapper is not counted twice.
    """
    names = {sid: name for sid, _, name, *_ in spans}
    parents = {sid: parent for sid, parent, *_ in spans}
    own = self_times([(sid, parent, start, end)
                      for sid, parent, _, start, end, _ in spans])
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    errors: dict[tuple[str, str], int] = {}
    for sid, parent, name, start, end, error in spans:
        calls[name] = calls.get(name, 0) + 1
        excl[name] = excl.get(name, 0.0) + own[sid]
        if error is not None:
            errors[(name, error)] = errors.get((name, error), 0) + 1
        p = parent
        while p is not None and names[p] != name:
            p = parents[p]
        if p is None:
            incl[name] = incl.get(name, 0.0) + (end - start)
    return calls, incl, excl, errors


def _calls_within(spans, name: str, ancestor: str) -> int:
    """Spans called ``name``, raised or not, that run inside an ``ancestor``."""
    names = {sid: n for sid, _, n, *_ in spans}
    parents = {sid: parent for sid, parent, *_ in spans}
    count = 0
    for sid, parent, n, *_ in spans:
        if n != name:
            continue
        p = parent
        while p is not None and names[p] != ancestor:
            p = parents[p]
        count += p is not None
    return count


def per_layer_metrics(tracer, n_ops: int, overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER value, averaged over the ``n_ops`` traced operations.

    Layers the workload never reached read 0.
    """
    calls, incl, excl, errors = _span_totals(tracer.spans)
    c = tracer.counters
    t = {
        **{f"pipeline.{s}_s": incl.get(f"pipeline.{s}", 0.0) for s in STAGES},
        "plant.sim_s": incl.get("plant.simulate", 0.0),
        "plant.sim_seconds": c["plant.sim_seconds"],
        "plant.step_calls": calls.get("plant.step", 0),
        "plant.step_s": incl.get("plant.step", 0.0),
        "structure.select_s": incl.get("structure.select", 0.0),
        "structure.lipschitz_calls": calls.get("structure.lipschitz", 0),
        "hyperband.s": incl.get("hyperband.search", 0.0),
        "hyperband.trials": c["hyperband.trials"],
        "hyperband.epochs": c["hyperband.epochs"],
        "hyperband.failed_trials": c["hyperband.failed_trials"],
        "network.train_calls": calls.get("network.train", 0),
        "network.train_s": incl.get("network.train", 0.0),
        "network.epochs": c["network.epochs"],
        "network.diverged": errors.get(("network.train", "DivergedLoss"), 0),
        "network.forward_calls": calls.get("network.forward", 0),
        "network.forward_rows": c["network.forward_rows"],
        "network.forward_s": incl.get("network.forward", 0.0),
        "network.closed_loop_s": incl.get("network.closed_loop", 0.0),
        "cognitive.predict_s": incl.get("cognitive.predict", 0.0),
        "cognitive.step_s": incl.get("cognitive.step", 0.0),
        "bayes.mcmc_s": incl.get("bayes.mcmc", 0.0),
        "bayes.posterior_evals": c["bayes.posterior_evals"],
        "bayes.reduce_s": incl.get("bayes.reduce", 0.0),
        "bayes.members_kept": c["bayes.members_kept"],
        "artifacts.bytes": c["artifacts.bytes"],
        "artifacts.chain_bytes": c["artifacts.chain_bytes"],
        "artifacts.write_s": incl.get("artifacts.write", 0.0),
        "artifacts.verify_s": incl.get("artifacts.verify", 0.0),
        "artifacts.load_s": excl.get("artifacts.load", 0.0),
        "cognitive.retrain_s": incl.get("cognitive.retrain", 0.0),
        "cognitive.fine_tunes": _calls_within(tracer.spans, "network.train",
                                              "cognitive.retrain"),
        "cognitive.handle_drift_s": incl.get("cognitive.handle_drift", 0.0),
        "sil.self_s": excl.get("sil.run_scenario", 0.0),
    }
    out = {name: value / n_ops for name, value in t.items()}
    busy = t["plant.sim_s"] + t["plant.step_s"]
    out["plant.rate"] = t["plant.sim_seconds"] / busy if busy > 0 else 0.0
    proposed = c["bayes.proposed"]
    out["bayes.acceptance"] = c["bayes.accepted"] / proposed if proposed else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return {name: float(out[name]) for name, _, _ in PER_LAYER}


@contextmanager
def installed(tracer):
    """Wrap every boundary for the duration of the block; no-op for None."""
    if tracer is None:
        yield
        return
    for owner, attr, name, on_result in WRAP_POINTS:
        tracer.wrap(owner, attr, name, on_result)
    try:
        yield
    finally:
        tracer.restore()
