"""Experiment design: Latin hypercube sampling, input schedules, correlation
audit, and greedy orthogonal input ranking."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumn, GasLiftWarning, InvalidBounds

# nominal operating box: gas injection per well in sL/min, pump pressure in bar
TABLE_BOUNDS = (
    ("Qg1", 1.0, 5.0),
    ("Qg2", 1.0, 5.0),
    ("Qg3", 1.0, 5.0),
    ("Ppump", 1.3, 4.0),
)


@dataclass(frozen=True)
class ExperimentPlan:
    """LHS design: one row per experiment, one named column per dimension."""

    n_experiments: int
    bounds: tuple[tuple[str, float, float], ...]
    matrix: np.ndarray          # (n, d), engineering units
    seed: int

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(b[0] for b in self.bounds)

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.names.index(name)]


@dataclass(frozen=True)
class CorrelationAudit:
    matrix: np.ndarray          # (d, d) Pearson correlations
    max_offdiag_abs: float


@dataclass(frozen=True)
class VariableRanking:
    """Greedy selection order with incremental explained-variance scores."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        scores = [s for _, s in self.entries]
        if any(s < -1e-12 or s > 1.0 + 1e-12 for s in scores):
            raise ValueError("explained-variance scores must lie in [0,1]")
        if any(b > a + 1e-9 for a, b in zip(scores, scores[1:])):
            # greedy increments normally decrease; suppressor configurations
            # can break this, which is worth surfacing but not fatal; level 4
            # names the code that called gram_schmidt_rank
            warnings.warn("ranking scores are not non-increasing", GasLiftWarning,
                          stacklevel=4)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)


def lhs_sample(n: int, bounds, seed: int) -> ExperimentPlan:
    """Latin hypercube plan: per dimension, n equal strata, one sample per
    stratum at a uniformly jittered position, stratum order randomly permuted.

    Deterministic for a given seed. Raises InvalidBounds on min >= max.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    bounds = tuple((str(name), float(lo), float(hi)) for name, lo, hi in bounds)
    for name, lo, hi in bounds:
        if lo >= hi:
            raise InvalidBounds(f"dimension {name}: min {lo} >= max {hi}")
    rng = np.random.Generator(np.random.PCG64(seed))
    d = len(bounds)
    unit = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        jitter = rng.uniform(size=n)
        unit[:, j] = (strata + jitter) / n
    matrix = np.empty_like(unit)
    for j, (_, lo, hi) in enumerate(bounds):
        matrix[:, j] = lo + (hi - lo) * unit[:, j]
    return ExperimentPlan(n_experiments=n, bounds=bounds, matrix=matrix, seed=seed)


def correlation_audit(plan: ExperimentPlan) -> CorrelationAudit:
    """Pearson correlations between plan columns."""
    n, d = plan.matrix.shape
    if n < 3:
        raise ValueError("need at least 3 samples for a correlation audit")
    for j in range(d):
        if np.ptp(plan.matrix[:, j]) == 0.0:
            raise DegenerateColumn(f"dimension {plan.names[j]} has zero variance")
    corr = np.corrcoef(plan.matrix, rowvar=False)
    corr = np.atleast_2d(corr)
    off = np.abs(corr - np.eye(d))
    return CorrelationAudit(matrix=corr, max_offdiag_abs=float(off.max()))


@dataclass(frozen=True)
class InputSchedule:
    """Piecewise-constant plant input schedule, one plateau per plan row."""

    Q_g: np.ndarray        # (k, 3) sL/min
    v_o: np.ndarray        # (k, 3) fraction
    P_pump: np.ndarray     # (k,) bar
    hold: float            # s per plateau

    def plateau_of_row(self, row: int) -> int:
        return int(row // round(self.hold))


def build_input_sequence(plan: ExperimentPlan, hold_duration: float) -> InputSchedule:
    """Expand a plan into a stepwise schedule of plant inputs.

    Each plan row becomes one plateau held ``hold_duration`` seconds. The
    plan must have columns Qg1..Qg3 and Ppump; any other column is ignored.
    Every valve is fully open: a plan designs the manipulated inputs only,
    and a caller that disturbs the valves sets the openings itself.
    """
    if hold_duration < 1.0:
        raise ValueError("hold_duration must be at least 1 s")
    for required in ("Qg1", "Qg2", "Qg3", "Ppump"):
        if required not in plan.names:
            raise ValueError(f"plan lacks required dimension {required}")
    Q_g = np.column_stack([plan.column(f"Qg{w}") for w in (1, 2, 3)])
    P_pump = plan.column("Ppump").copy()
    v_o = np.ones((plan.n_experiments, 3))
    return InputSchedule(Q_g=Q_g, v_o=v_o, P_pump=P_pump, hold=float(hold_duration))


def gram_schmidt_rank(candidates: np.ndarray, names, output: np.ndarray) -> VariableRanking:
    """Rank candidate inputs by greedy forward selection.

    Each step picks the candidate whose component orthogonal to the already
    selected columns has the largest squared correlation with the output;
    that squared correlation is the candidate's incremental explained
    variance. Ties break lexicographically on the candidate name, and the
    result is independent of the column order supplied.
    """
    X = np.asarray(candidates, dtype=float)
    y = np.asarray(output, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("need at least two candidate columns")
    if X.shape[0] != y.shape[0]:
        raise ValueError("candidate rows must align with output samples")
    names = [str(n) for n in names]
    if len(names) != X.shape[1]:
        raise ValueError("one name per candidate column required")

    for j, name in enumerate(names):
        if np.ptp(X[:, j]) == 0.0:
            raise DegenerateColumn(f"candidate {name} has zero variance")
    if np.ptp(y) == 0.0:
        raise DegenerateColumn("output has zero variance")

    # canonical evaluation order makes the greedy loop exactly
    # permutation-equivariant, float ties included
    order = sorted(range(len(names)), key=lambda j: names[j])
    X = X[:, order]
    names = [names[j] for j in order]

    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    y_ss = float(yc @ yc)

    remaining = list(range(len(names)))
    basis: list[np.ndarray] = []          # orthonormal selected directions
    entries: list[tuple[str, float]] = []
    while remaining:
        best_j, best_score, best_dir = None, -1.0, None
        for j in remaining:
            v = Xc[:, j].copy()
            for q in basis:
                v -= (q @ v) * q
            norm2 = float(v @ v)
            if norm2 <= 1e-12 * float(Xc[:, j] @ Xc[:, j]):
                score, direction = 0.0, None   # fully explained by selection
            else:
                score = float((v @ yc) ** 2 / (norm2 * y_ss))
                direction = v / np.sqrt(norm2)
            if score > best_score:
                best_j, best_score, best_dir = j, score, direction
        entries.append((names[best_j], min(max(best_score, 0.0), 1.0)))
        remaining.remove(best_j)
        if best_dir is not None:
            basis.append(best_dir)
    return VariableRanking(entries=tuple(entries))
