"""NARX structure identification and dataset assembly.

Embedding orders are chosen with Lipschitz quotients: for candidate regressor
dimension n the index is the geometric mean of the largest pairwise quotients
|dy|/||dx|| scaled by sqrt(n). Once every dynamically relevant lag is included
the index stops changing, so the smallest n where the curve flattens is the
selected order. A joint sweep fixes the overall lag depth, then the output and
input depths are refined separately against the converged index value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    AllPairsDegenerate,
    DegenerateColumn,
    InsufficientPairs,
    NoPlateau,
    TooShortPlateau,
)
from .plant import CHANNEL_NAMES, INPUT_NAMES

N_INPUTS = len(INPUT_NAMES)

_ALL_PAIRS_LIMIT = 2000
_PAIRS_PER_POINT = 2000
_ZERO_DIST_SQ = 1e-20


@dataclass(frozen=True)
class NarxLayout:
    """Column layout of a regressor row; the only code that knows it.

    A row is n_b output lags, then n_a lags of each input in channel order,
    every block newest first. `regressors` takes windows in that order: for
    target y(t), y(t-1)..y(t-n_b) and u(t)..u(t-n_a+1), since the input held
    on the target row drives the step into it. Chronological windows, as
    `predict` and `simulate_closed_loop` take them, are these reversed.
    """

    n_b: int
    n_a: int
    n_u: int = N_INPUTS

    def __post_init__(self):
        if self.n_b < 1 or self.n_a < 1 or self.n_u < 1:
            raise ValueError("lag counts must be positive")

    @property
    def width(self) -> int:
        return self.n_b + self.n_u * self.n_a

    @property
    def max_lag(self) -> int:
        return max(self.n_b, self.n_a)

    def regressors(self, y_lags: np.ndarray, u_lags: np.ndarray) -> np.ndarray:
        """Rows (..., width) from newest-first windows ``y_lags`` (..., >= n_b)
        and ``u_lags`` (..., >= n_a, n_u), of which the newest n_b and n_a
        entries are used. The leading axes are those of ``y_lags``; ``u_lags``
        broadcasts against them. Callers check the depths."""
        x = np.empty((*y_lags.shape[:-1], self.width))
        x[..., : self.n_b] = y_lags[..., : self.n_b]
        # splitting the last axis of x is a view, so this fills x in place
        u_block = x[..., self.n_b :].reshape(*x.shape[:-1], self.n_u, self.n_a)
        u_block[...] = np.swapaxes(u_lags[..., : self.n_a, :], -1, -2)
        return x


def _lag_windows(
    y: np.ndarray, U: np.ndarray, rows: np.ndarray, n_b: int, n_a: int
) -> tuple[np.ndarray, np.ndarray]:
    """Newest-first windows (R, n_b, ...) and (R, n_a, n_u) behind target
    rows of a logged series, in `NarxLayout`'s convention."""
    return y[rows[:, None] - 1 - np.arange(n_b)], U[rows[:, None] - np.arange(n_a)]


def valid_target_rows(n_rows: int, hold: int | None, max_lag: int) -> np.ndarray:
    """Indices with a full lag window inside one input plateau (the whole
    record when ``hold`` is None)."""
    idx = np.arange(n_rows)
    if hold is None:
        hold = n_rows
    if hold <= max_lag:
        raise TooShortPlateau(
            f"plateau of {hold} samples cannot supply {max_lag} lags"
        )
    return idx[(idx % hold) >= max_lag]


def build_lag_matrix(
    y: np.ndarray,
    U: np.ndarray,
    layout: NarxLayout,
    hold: int | None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regressor matrix, target vector and the target row indices used.

    Rows never straddle a plateau boundary. `rows` restricts assembly to a
    pre-selected index set (which must already be lag-valid).
    """
    y = np.asarray(y, dtype=float)
    U = np.asarray(U, dtype=float)
    if rows is None:
        rows = valid_target_rows(len(y), hold, layout.max_lag)
    if len(rows) == 0:
        raise TooShortPlateau("no lag-valid rows available")
    X = layout.regressors(*_lag_windows(y, U, rows, layout.n_b, layout.n_a))
    return X, y[rows], rows


def lipschitz_coefficients(
    X: np.ndarray, y: np.ndarray, *, seed: int = 0
) -> np.ndarray:
    """Pairwise quotients |y_i - y_j| / ||x_i - x_j||.

    All pairs for small sample counts, otherwise a seeded random subset;
    coincident regressor pairs are skipped.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = len(y)
    if X.shape[0] != n:
        raise ValueError("regressor rows must align with targets")
    if n < 2:
        raise InsufficientPairs("need at least two samples")

    if n <= _ALL_PAIRS_LIMIT:
        # each pair i < j only, by the float operations the full n x n
        # matrices would take at (i, j)
        i, j, flat = _upper_pairs(n)
        sq = np.sum(X * X, axis=1)
        d2 = sq.take(i) + sq.take(j) - 2.0 * (X @ X.T).take(flat)
        np.clip(d2, 0.0, None, out=d2)
        dy = np.abs(y.take(i) - y.take(j))
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        total = _PAIRS_PER_POINT * n
        d2_parts, dy_parts = [], []
        chunk = 500_000
        for start in range(0, total, chunk):
            m = min(chunk, total - start)
            i = rng.integers(0, n, size=m)
            j = rng.integers(0, n, size=m)
            keep = i != j
            i, j = i[keep], j[keep]
            diff = X[i] - X[j]
            d2_parts.append(np.sum(diff * diff, axis=1))
            dy_parts.append(np.abs(y[i] - y[j]))
        d2 = np.concatenate(d2_parts)
        dy = np.concatenate(dy_parts)

    keep = d2 > _ZERO_DIST_SQ
    if not keep.any():
        raise AllPairsDegenerate("every regressor pair is coincident")
    return dy[keep] / np.sqrt(d2[keep])


@lru_cache(maxsize=1)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)`` and the pairs' flat indices into an
    n x n matrix, read-only. Every level of an embedding sweep has the same
    row count, so the last ``n`` is the one kept."""
    i, j = np.triu_indices(n, k=1)
    pairs = (i, j, i * n + j)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _unique_columns(X: np.ndarray) -> np.ndarray:
    """``np.unique(X, axis=1)`` of a 2-D ``X`` without its structured-dtype
    sort: the distinct columns in the same lexicographic order (row 0 the
    first key), and in the same F-contiguous layout, which the float
    reductions over the result depend on. Only the sign of a zero can
    differ, where two columns differ by nothing else."""
    order = np.lexsort(X[::-1])
    ordered = X[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    return X.T[order[first]].T


def lipschitz_index(coeffs: np.ndarray, n: int, *, p: int) -> float:
    """sqrt(n)-scaled geometric mean of the p largest quotients."""
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    n_pairs = len(coeffs)
    p = max(p, 1)
    if n_pairs < p:
        raise InsufficientPairs(f"{n_pairs} quotients < p={p}")
    top = np.partition(coeffs, n_pairs - p)[n_pairs - p:]
    if np.any(top <= 0.0):
        return 0.0
    return float(np.sqrt(n) * np.exp(np.mean(np.log(top))))


@dataclass(frozen=True)
class LipschitzAnalysis:
    """Embedding selection record for one output channel.

    joint_index holds the reported index values (quotient level scaled by
    the square root of the nominal regressor width); the *_curve fields hold
    the scale-free quotient levels the plateau rule actually runs on.
    """

    channel: str
    n_values: tuple[int, ...]
    joint_index: tuple[float, ...]
    joint_curve: tuple[float, ...]
    joint_order: int
    n_b: int
    n_a: int
    nb_curve: tuple[float, ...]       # level vs n_b at n_a = joint_order
    na_curve: tuple[float, ...]       # level vs n_a at n_b = selected
    p: int


def _normalize_channels(y, U, rows):
    """Scale each physical channel to [0,1] over the analysis rows so no
    channel dominates the pair distances."""

    def span_scale(v):
        lo, hi = float(v.min()), float(v.max())
        if hi <= lo:
            raise DegenerateColumn("constant channel cannot be normalized")
        return lo, hi - lo

    lo_y, sc_y = span_scale(y[rows])
    yn = (y - lo_y) / sc_y
    Un = np.empty_like(U, dtype=float)
    for j in range(U.shape[1]):
        lo, sc = span_scale(U[rows][:, j])
        Un[:, j] = (U[:, j] - lo) / sc
    return yn, Un


def plateau_order(levels, rel_tol: float) -> int | None:
    """Smallest order whose step to the next order changes the level by less
    than rel_tol; None when the curve never flattens."""
    for k in range(len(levels) - 1):
        if levels[k] > 0 and abs(levels[k + 1] - levels[k]) / levels[k] < rel_tol:
            return k + 1
    return None


def select_embedding_channel(
    y: np.ndarray,
    U: np.ndarray,
    hold: int | None,
    *,
    channel: str = "",
    n_max: int = 8,
    plateau_rel_tol: float = 0.05,
    max_rows: int = 1200,
    seed: int = 0,
) -> LipschitzAnalysis:
    """Pick (n_a, n_b) for one channel from its Lipschitz quotient curves.

    One row pool feeds every candidate order, so curve differences reflect
    the regressor set alone. Duplicate regressor columns (input lags held
    constant within a plateau) are collapsed before pair distances: they
    carry no information but would rescale distances with lag count. The
    joint sweep fixes the lag depth; the output-lag and input-lag counts are
    then refined by the same flattening rule along their own curves. The
    sweeps share some (n_b, n_a) levels, and each level is computed once.
    Raises NoPlateau if the joint curve never flattens within n_max.
    """
    y = np.asarray(y, dtype=float)
    U = np.asarray(U, dtype=float)
    rows = valid_target_rows(len(y), hold, n_max)
    if len(rows) > max_rows:
        rng = np.random.Generator(np.random.PCG64(seed))
        rows = np.sort(rng.choice(rows, size=max_rows, replace=False))
    yn, Un = _normalize_channels(y, U, rows)

    n_u = U.shape[1]
    y_lags, u_lags = _lag_windows(yn, Un, rows, n_max, n_max)
    targets = yn[rows]
    p = max(1, int(np.ceil(0.015 * len(rows))))

    levels: dict[tuple[int, int], float] = {}

    def level_at(n_b: int, n_a: int) -> float:
        if (n_b, n_a) not in levels:
            X = _unique_columns(NarxLayout(n_b, n_a, n_u).regressors(y_lags, u_lags))
            coeffs = lipschitz_coefficients(X, targets, seed=seed)
            levels[n_b, n_a] = lipschitz_index(coeffs, 1, p=p)
        return levels[n_b, n_a]

    joint = [level_at(n, n) for n in range(1, n_max + 1)]
    joint_order = plateau_order(joint, plateau_rel_tol)
    if joint_order is None:
        raise NoPlateau(
            f"index curve for {channel or 'channel'} has not flattened by n={n_max}"
        )

    nb_curve = [level_at(nb, joint_order) for nb in range(1, joint_order + 1)]
    n_b = plateau_order(nb_curve, plateau_rel_tol) or joint_order
    na_curve = [level_at(n_b, na) for na in range(1, joint_order + 1)]
    n_a = plateau_order(na_curve, plateau_rel_tol) or joint_order

    widths = [np.sqrt(n + n_u * n) for n in range(1, n_max + 1)]
    return LipschitzAnalysis(
        channel=channel,
        n_values=tuple(range(1, n_max + 1)),
        joint_index=tuple(float(w * v) for w, v in zip(widths, joint)),
        joint_curve=tuple(joint),
        joint_order=joint_order,
        n_b=n_b,
        n_a=n_a,
        nb_curve=tuple(nb_curve),
        na_curve=tuple(na_curve),
        p=p,
    )


def select_embedding(
    Y: np.ndarray,
    U: np.ndarray,
    hold: int | None,
    *,
    n_max: int = 8,
    plateau_rel_tol: float = 0.05,
    max_rows: int = 1200,
    seed: int = 0,
) -> tuple[dict[str, LipschitzAnalysis], tuple[int, int]]:
    """Per-channel embedding analysis of the plant's channels, one column of
    ``Y`` each in ``CHANNEL_NAMES`` order, plus a combined (n_a, n_b) that
    covers every channel (elementwise maximum)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    results: dict[str, LipschitzAnalysis] = {}
    for c, name in enumerate(CHANNEL_NAMES):
        results[name] = select_embedding_channel(
            Y[:, c],
            U,
            hold,
            channel=name,
            n_max=n_max,
            plateau_rel_tol=plateau_rel_tol,
            max_rows=max_rows,
            seed=seed + c,
        )
    n_a = max(r.n_a for r in results.values())
    n_b = max(r.n_b for r in results.values())
    return results, (n_a, n_b)


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-channel min/max ranges fitted on the training split."""

    y_min: float
    y_max: float
    u_min: np.ndarray     # (n_u,)
    u_max: np.ndarray

    def _scale(self, lo, hi):
        span = hi - lo
        return np.where(span > 0, span, 1.0)

    def target_scaling(self) -> tuple[float, float]:
        """Offset and scale of the target: ``(y - offset) / scale`` normalizes it."""
        return self.y_min, float(self._scale(self.y_min, self.y_max))

    def normalize_target(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_min) / float(self._scale(self.y_min, self.y_max))

    def denormalize_target(self, yn: np.ndarray) -> np.ndarray:
        return yn * float(self._scale(self.y_min, self.y_max)) + self.y_min

    def normalize_inputs(self, U: np.ndarray) -> np.ndarray:
        return (U - self.u_min) / self._scale(self.u_min, self.u_max)

    def regressor_scaling(self, layout: NarxLayout) -> tuple[np.ndarray, np.ndarray]:
        """Per-column offset and scale of a regressor row, in ``layout``'s
        column order: ``(X - offset) / scale`` normalizes it."""
        def row(y_value, u_values):
            return layout.regressors(np.full(layout.n_b, y_value),
                                     np.broadcast_to(u_values, (layout.n_a, layout.n_u)))
        y_offset, y_scale = self.target_scaling()
        return row(y_offset, self.u_min), row(y_scale, self._scale(self.u_min, self.u_max))

    def normalize_regressors(self, X: np.ndarray, layout: NarxLayout) -> np.ndarray:
        offset, scale = self.regressor_scaling(layout)
        return (X - offset) / scale

    def expanded(self, y: np.ndarray, U: np.ndarray) -> "NormalizationSpec":
        """Widen ranges to cover new data; unchanged if already covered."""
        return NormalizationSpec(
            y_min=min(self.y_min, float(np.min(y))),
            y_max=max(self.y_max, float(np.max(y))),
            u_min=np.minimum(self.u_min, U.min(axis=0)),
            u_max=np.maximum(self.u_max, U.max(axis=0)),
        )

    def covers(self, y: np.ndarray, U: np.ndarray) -> bool:
        return bool(
            np.min(y) >= self.y_min
            and np.max(y) <= self.y_max
            and (U.min(axis=0) >= self.u_min).all()
            and (U.max(axis=0) <= self.u_max).all()
        )


@dataclass(frozen=True)
class NarxDataset:
    """Regressor/target rows for one output channel with split indices and a
    train-fitted normalization. Arrays are stored in engineering units;
    `normalized_split` yields the scaled copies used for training, each
    split normalized once and kept read-only."""

    channel: str
    layout: NarxLayout
    regressors: np.ndarray        # (R, width)
    targets: np.ndarray           # (R,)
    source_rows: np.ndarray       # (R,) indices into the originating series
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    norm: NormalizationSpec
    _normalized: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def split(self, which: str) -> np.ndarray:
        return {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}[which]

    def normalized_split(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """The split's regressor rows and targets in normalized units,
        computed on the first call; every call returns the same read-only
        arrays."""
        if which not in self._normalized:
            idx = self.split(which)
            X = self.norm.normalize_regressors(self.regressors[idx], self.layout)
            y = self.norm.normalize_target(self.targets[idx])
            X.flags.writeable = y.flags.writeable = False
            self._normalized[which] = (X, y)
        return self._normalized[which]


def split_rows(n_rows: int, ratios: tuple[float, float, float], seed: int):
    """Seeded disjoint train/val/test row sets at the requested ratios."""
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise ValueError("split ratios must be non-negative and sum to 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n_rows)
    n_tr = int(round(ratios[0] * n_rows))
    n_val = int(round(ratios[1] * n_rows))
    n_val = min(n_val, n_rows - n_tr)
    return (
        np.sort(perm[:n_tr]),
        np.sort(perm[n_tr : n_tr + n_val]),
        np.sort(perm[n_tr + n_val :]),
    )


def assemble_narx_dataset(
    Y: np.ndarray,
    U: np.ndarray,
    hold: int | None,
    layout: NarxLayout,
    *,
    channels=CHANNEL_NAMES,
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
    seed: int = 0,
) -> dict[str, NarxDataset]:
    """One dataset per output channel from a logged trajectory.

    All channels share target rows and the split is drawn once, so per-channel
    models see aligned data.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    U = np.asarray(U, dtype=float)
    if Y.shape[1] != len(channels):
        raise ValueError("one output column per channel required")
    rows = valid_target_rows(Y.shape[0], hold, layout.max_lag)
    if len(rows) < 10:
        raise TooShortPlateau("too few lag-valid rows to split")
    train_idx, val_idx, test_idx = split_rows(len(rows), ratios, seed)
    # ranges cover every value a training row reads; inputs are shared by channels
    y_train, u_train = _lag_windows(Y, U, rows[train_idx], layout.n_b, layout.n_a)
    u_lo, u_hi = u_train.min(axis=(0, 1)), u_train.max(axis=(0, 1))

    out: dict[str, NarxDataset] = {}
    for c, name in enumerate(channels):
        X, t, _ = build_lag_matrix(Y[:, c], U, layout, hold, rows=rows)
        tr_targets, tr_ylags = t[train_idx], y_train[..., c]
        y_lo = float(min(tr_targets.min(), tr_ylags.min()))
        y_hi = float(max(tr_targets.max(), tr_ylags.max()))
        out[name] = NarxDataset(
            channel=name,
            layout=layout,
            regressors=X,
            targets=t,
            source_rows=rows,
            train_idx=train_idx,
            val_idx=val_idx,
            test_idx=test_idx,
            norm=NormalizationSpec(y_min=y_lo, y_max=y_hi, u_min=u_lo, u_max=u_hi),
        )
    return out
