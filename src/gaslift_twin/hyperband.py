"""Hyperband hyperparameter search with successive halving.

Bracket s starts n = ceil((s_max+1)/(s+1) * eta^s) sampled configurations
at r = R * eta^(-s) epochs and runs s+1 rungs; each rung ranks trials by
validation loss and keeps the top floor(n_i/eta). Training continues from
each trial's checkpoint between rungs instead of restarting.

Brackets share nothing but the order of their configuration draws, so every
bracket's trials are drawn first, in one pass over the seeded rng, and the
brackets then run at the same time in worker processes, one per CPU this
process may use and at most one per bracket; with one CPU they run one after
another in this process, which starts no worker. The workers are forked: they
start with numpy and this package already imported, where a spawned worker
would import them again for every search. Fork copies only the calling
thread; the package starts no other, so a caller that runs threads of its
own must not search while one of them holds a lock. A bracket's trials,
seeds and training depend only on its own draws, and its records come back
in bracket order, so the result is the same, bit for bit, for any number of
workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import GasLiftError
from .network import NetworkSpec, train_channel

DEFAULT_LEARNING_RATES = (1e-3, 1e-2, 1e-1)
DEFAULT_DENSE_COUNTS = (1, 2, 3, 4)
DEFAULT_ACTIVATIONS = ("relu", "tanh")
DEFAULT_WIDTHS = tuple(range(20, 101, 10))


@dataclass(frozen=True)
class SearchSpace:
    """Discrete candidate sets for every tunable field. Dense-layer counts
    include the fixed linear output layer, so 2 means one hidden layer."""

    learning_rates: tuple[float, ...] = DEFAULT_LEARNING_RATES
    dense_counts: tuple[int, ...] = DEFAULT_DENSE_COUNTS
    activations: tuple[str, ...] = DEFAULT_ACTIVATIONS
    widths: tuple[int, ...] = DEFAULT_WIDTHS

    def __post_init__(self):
        if not (self.learning_rates and self.dense_counts and self.widths):
            raise ValueError("empty search dimension")
        if min(self.dense_counts) < 1:
            raise ValueError("need at least the output layer")


@dataclass(frozen=True)
class HyperbandConfig:
    max_resource: int       # R, epochs granted to a full-length trial
    eta: int = 3
    seed: int = 0
    batch_size: int = 64

    def __post_init__(self):
        if self.eta < 2 or self.max_resource < self.eta:
            raise ValueError("need R >= eta >= 2")

    @property
    def s_max(self) -> int:
        return int(np.floor(np.log(self.max_resource) / np.log(self.eta)))


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    bracket: int
    rung: int
    spec: NetworkSpec
    epochs: int             # cumulative epochs granted so far
    val_loss: float         # +inf marks a failed trial


@dataclass(frozen=True)
class HyperbandResult:
    best_spec: NetworkSpec
    best_loss: float
    trials: tuple[TrialRecord, ...]

    @property
    def total_epochs(self) -> int:
        """Epochs actually spent, counting checkpoint-continued training."""
        spent: dict[int, int] = {}
        for t in self.trials:
            spent[t.trial_id] = max(spent.get(t.trial_id, 0), t.epochs)
        return sum(spent.values())


def bracket_schedule(config: HyperbandConfig) -> list[dict]:
    """Start sizes, rung populations and rung resources for every bracket."""
    out = []
    for s in range(config.s_max, -1, -1):
        n = int(np.ceil((config.s_max + 1) / (s + 1) * config.eta**s))
        r = config.max_resource * config.eta ** (-s)
        rungs = []
        for i in range(s + 1):
            n_i = int(np.floor(n * config.eta ** (-i)))
            r_i = min(config.max_resource, int(np.floor(r * config.eta**i)))
            rungs.append({"n": n_i, "epochs": max(1, r_i)})
        out.append({"bracket": s, "n_start": n, "rungs": rungs})
    return out


def sample_config(
    space: SearchSpace, input_width: int, rng: np.random.Generator, *,
    seed: int, batch_size: int, epochs: int,
) -> NetworkSpec:
    """Uniform draw per field; hidden layers each get their own activation
    and width, the output layer is always linear and one unit wide. The
    batch size, epoch budget and seed are the caller's."""
    lr = float(rng.choice(space.learning_rates))
    n_dense = int(rng.choice(space.dense_counts))
    hidden = [int(rng.choice(space.widths)) for _ in range(n_dense - 1)]
    acts = [str(rng.choice(space.activations)) for _ in range(n_dense - 1)]
    return NetworkSpec(
        layer_sizes=(input_width, *hidden, 1),
        activations=(*acts, "linear"),
        learning_rate=lr,
        batch_size=batch_size,
        epochs=epochs,
        seed=seed,
    )


def _run_bracket(dataset, bracket: dict, drawn: list[tuple[int, NetworkSpec]],
                 eta: int) -> list[TrialRecord]:
    """Successive halving over one bracket's drawn ``(trial_id, spec)``
    trials, every rung's records in training order."""
    s = bracket["bracket"]
    # state per live trial: (trial_id, spec, checkpoint weights, epochs so far)
    live = [(trial_id, spec, None, 0) for trial_id, spec in drawn]
    records: list[TrialRecord] = []
    for i, rung in enumerate(bracket["rungs"]):
        scored = []
        for trial_id, spec, ckpt, done in live:
            try:
                res = train_channel(
                    dataset, spec, initial=ckpt, epochs=rung["epochs"] - done,
                    patience=10**9,
                )
                loss = min(res.val_loss) if res.val_loss else np.inf
                ckpt = res.weights
            except GasLiftError:
                loss = np.inf
            records.append(
                TrialRecord(
                    trial_id=trial_id, bracket=s, rung=i, spec=spec,
                    epochs=rung["epochs"], val_loss=float(loss),
                )
            )
            if np.isfinite(loss):
                scored.append((loss, trial_id, spec, ckpt, rung["epochs"]))
        if i == len(bracket["rungs"]) - 1:
            break
        scored.sort(key=lambda rec: (rec[0], rec[1]))
        keep = int(np.floor(rung["n"] / eta))
        live = [(tid, sp, ck, ep) for _, tid, sp, ck, ep in scored[:keep]]
        if not live:
            break
    return records


def hyperband(dataset, space: SearchSpace, config: HyperbandConfig) -> HyperbandResult:
    """Search the space on one channel's dataset.

    Trials whose training raises a ``GasLiftError`` are scored +inf and drop
    out of later rungs instead of aborting the search; any other exception
    reaches the caller with its type. Returns the lowest-validation-loss
    trial over every bracket, ties resolved toward the earlier trial. Every
    worker has exited when this returns or raises.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    width = dataset.layout.width
    schedule = bracket_schedule(config)
    draws = []
    next_id = 0
    for bracket in schedule:
        ids = range(next_id, next_id + bracket["n_start"])
        draws.append([(i, sample_config(space, width, rng, seed=config.seed + i,
                                        batch_size=config.batch_size,
                                        epochs=config.max_resource))
                      for i in ids])
        next_id = ids.stop

    run = partial(_run_bracket, dataset, eta=config.eta)
    workers = min(len(schedule), len(os.sched_getaffinity(0)))
    if workers == 1:
        runs = list(map(run, schedule, draws))
    else:
        # imported here, so that the processes that never fork a search (the
        # twin's online loop) do not load the pool's modules, about 1.9 MB
        # resident
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            runs = list(pool.map(run, schedule, draws))
    trials = [t for records in runs for t in records]

    finite = [t for t in trials if np.isfinite(t.val_loss)]
    if not finite:
        raise GasLiftError("every trial failed")
    best = min(finite, key=lambda t: (t.val_loss, t.trial_id))
    return HyperbandResult(
        best_spec=best.spec,
        best_loss=best.val_loss,
        trials=tuple(trials),
    )
