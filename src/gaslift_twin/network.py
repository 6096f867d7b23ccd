"""From-scratch feedforward NARX networks.

Parameters live in one flat vector per network: each layer contributes
its weight matrix (row-major) followed by its bias vector, (in+1)*out
entries in total. Forward, gradient and closed-loop simulation all accept
either a single parameter vector or a stack of them (leading member
axis), so ensemble operations run vectorized. Regressor rows are always a
matrix, (rows, width), one prediction per row, even for a single row. The
leading axes may be more than one: the online twin evaluates a (channels,
1 + members, n_params) stack on rows shaped (channels, 1, 1, width), one
regressor row per channel, in one call. Each matmul then takes a single
row, the same float operations as a single parameter vector on a (1,
width) matrix.

A caller that evaluates the same stack on rows of the same shape again and
again builds a ``ForwardPlan`` once: each layer's weights and bias as views
into the stack, and one output buffer per layer. ``forward`` on a plan
fills those buffers in place and returns a view of the last one, which the
next call overwrites, so the caller copies what it keeps. ``forward`` on
plain weights builds a plan for the one call, so both run one kernel. The
online twin keeps one plan per channel group and ``simulate_closed_loop``
one per free run.

Training takes a stack too. ``train`` fine-tunes R parameter rows, shaped
(..., n_params), on one shared regressor matrix with one target row per
parameter row, in one Adam loop: the rows draw the same mini-batches, and
each keeps its own moments, warm-start baseline, best weights, best epoch and
patience. A row that stops early or diverges is frozen while the others go
on, so every row that does not diverge ends bit-equal to its own
single-vector run. A single vector is never lifted to a stack of one: its
loop keeps its own shapes, and only a single vector raises DivergedLoss.

``train`` plans its work once per call, as the twin plans its forward: one
gradient plan for the mini-batch size and one for a short last batch, each
holding a ``ForwardPlan`` over the weights whose layer buffers are the
activations backpropagation reads, a delta buffer per layer and one flat
gradient buffer that each layer's weight and bias gradients view. Each
epoch gathers the training split in its shuffled order once, so a
mini-batch is a slice of that copy. The validation loss runs on a
``ForwardPlan`` built once per call, and one ``np.errstate`` covers the
whole loop. Every mini-batch step writes into those buffers, in the same
float operations and order as the allocating textbook chain, so the bits
are those of that chain; a single vector takes its matrix products with
``np.dot``, which makes the same BLAS calls as ``np.matmul`` for less
overhead, and a stack carries the delta below its one-unit output layer
down with one ``np.dot`` per row, bit for bit ``np.matmul``'s loop.
``gradient`` builds a plan for its one call, as ``forward`` does.

An epoch does only the work its result needs. Its training loss is the
sample-weighted mean of the squared residuals of its mini-batches, each
taken at the weights that batch's gradient used, so it costs no pass over
the training split of its own. The Adam moments and weights are updated in
buffers allocated once per call, in the same operation order as the
textbook update, so the bits are those of the out-of-place form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergedLoss, ShapeMismatch
from .structure import NarxLayout

ACTIVATIONS = ("relu", "tanh", "linear")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """The activation at ``z``, written to ``out`` when given; a linear
    layer returns ``z`` itself."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
    return z


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture and training settings for one MISO network.

    layer_sizes runs input width, hidden widths, then the single output;
    activations has one entry per non-input layer.
    """

    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if self.layer_sizes[-1] != 1:
            raise ValueError("output layer width must be 1")
        if len(self.activations) != len(self.layer_sizes) - 1:
            raise ValueError("one activation per non-input layer required")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid training settings")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))

    @cached_property
    def layer_slices(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per layer: (start, weight end, bias end, fan_in, fan_out) of its
        weight matrix and bias vector in the flat parameter vector."""
        slices, start = [], 0
        for fan_in, fan_out in self.layer_shapes:
            w_end = start + fan_in * fan_out
            slices.append((start, w_end, w_end + fan_out, fan_in, fan_out))
            start = w_end + fan_out
        return tuple(slices)

    @property
    def layer_param_counts(self) -> tuple[int, ...]:
        return tuple((i + 1) * o for i, o in self.layer_shapes)

    @property
    def n_params(self) -> int:
        return sum(self.layer_param_counts)


@dataclass(frozen=True)
class NetworkWeights:
    """Flat parameter vector, or a stack of them along leading axes, plus
    the layer layout it belongs to."""

    theta: np.ndarray
    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        expected = sum(
            (i + 1) * o for i, o in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        )
        if self.theta.shape[-1:] != (expected,):
            raise ShapeMismatch(
                f"theta has {self.theta.shape}, layout needs (..., {expected})"
            )
        if not np.isfinite(self.theta).all():
            raise ShapeMismatch("theta contains non-finite entries")


@dataclass(frozen=True)
class Metrics:
    mse: float
    mae: float


@dataclass(frozen=True)
class TrainResult:
    """Best-on-validation weights and per-epoch losses of one ``train`` call.

    An epoch's training loss is the sample-weighted mean of the squared
    residuals of its mini-batches, each taken at the weights that batch's
    gradient used; its validation loss is the MSE on the whole validation
    split at the weights the epoch ended with.

    A single net has tuples of floats for histories and an int best epoch.
    A stack with leading axes ``lead`` has histories shaped
    (epochs_run, *lead), NaN once a row has stopped or diverged, and
    ``best_epoch`` and ``diverged`` shaped ``lead``. A diverged row keeps the
    best weights it reached before diverging.
    """

    weights: NetworkWeights
    train_loss: tuple[float, ...] | np.ndarray
    val_loss: tuple[float, ...] | np.ndarray
    best_epoch: int | np.ndarray    # -1 when no epoch ran or none beat the warm start
    diverged: bool | np.ndarray = False     # a single net raises instead


def initialize(spec: NetworkSpec) -> NetworkWeights:
    """He-style uniform weight draw per layer, zero biases."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    parts = []
    for fan_in, fan_out in spec.layer_shapes:
        limit = np.sqrt(6.0 / fan_in)
        parts.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return NetworkWeights(theta=np.concatenate(parts), layer_sizes=spec.layer_sizes)


def _theta_of(weights) -> np.ndarray:
    if isinstance(weights, NetworkWeights):
        return weights.theta
    return np.asarray(weights, dtype=float)


def _layers(theta: np.ndarray, spec: NetworkSpec):
    """Yield (W, b) views per layer; theta may carry leading member axes."""
    lead = theta.shape[:-1]
    for start, w_end, b_end, fan_in, fan_out in spec.layer_slices:
        yield theta[..., start:w_end].reshape(*lead, fan_in, fan_out), theta[..., w_end:b_end]


class ForwardPlan:
    """A weight stack set up for ``forward`` on rows of one shape.

    ``theta`` is the stack itself, (..., n_params), not a copy. ``layers``
    holds per layer its weight matrix and its bias as views into it, the
    activation and one output buffer, allocated here with the shape that
    layer's output has on ``rows_shape``. Since the weights are views, writes
    into the stack show at the next call. ``out`` is the view of the last
    buffer that ``forward`` returns.
    """

    def __init__(self, weights, spec: NetworkSpec, rows_shape: tuple[int, ...]):
        self.theta = _theta_of(weights)
        self.rows_shape = tuple(rows_shape)
        if len(self.rows_shape) < 2 or self.rows_shape[-1] != spec.n_inputs:
            raise ShapeMismatch(
                f"regressor rows {self.rows_shape}, network expects "
                f"(..., rows, {spec.n_inputs})"
            )
        lead = np.broadcast_shapes(self.rows_shape[:-2], self.theta.shape[:-1])
        self.layers = []
        for (W, b), kind in zip(_layers(self.theta, spec), spec.activations):
            z = np.empty((*lead, self.rows_shape[-2], W.shape[-1]))
            self.layers.append((W, b[..., None, :], kind, z))
        self.out = z[..., 0]


def forward(weights, spec: NetworkSpec, rows: np.ndarray) -> np.ndarray:
    """One-step-ahead predictions for regressor rows in normalized units.

    A (batch, width) matrix yields a vector, and a parameter stack (m,
    n_params) adds a leading member axis.

    ``weights`` may be a ``ForwardPlan`` built with ``spec`` for rows of
    this shape; other rows raise ShapeMismatch. The result is then a view of
    the plan's last buffer, valid until the next call on the plan. Plain
    weights get a plan of their own for this call.

    Each layer's matmul writes into its buffer, and the bias and the
    activation then update it in place. ``gradient`` and ``train`` run this
    same loop for their forward pass, so predictions and gradients come from
    one set of bits.
    """
    X = np.asarray(rows, dtype=float)
    if isinstance(weights, ForwardPlan):
        plan = weights
        if X.shape != plan.rows_shape:
            raise ShapeMismatch(
                f"rows {X.shape}, the plan was built for {plan.rows_shape}"
            )
    else:
        plan = ForwardPlan(weights, spec, X.shape)
    return _forward_into(plan, X)


def _forward_into(plan: ForwardPlan, X: np.ndarray, matmul=np.matmul) -> np.ndarray:
    """``forward`` on a plan and rows of its shape, unchecked, each layer's
    matrix product taken by ``matmul``."""
    a = X
    for W, b, kind, z in plan.layers:
        matmul(a, W, out=z)
        z += b
        a = _act(z, kind, out=z)
    return plan.out


def _times_act_prime(delta: np.ndarray, kind: str, a: np.ndarray,
                     scratch: np.ndarray | None) -> None:
    """Multiply ``delta`` in place by the derivative of the activation whose
    output is ``a``, using ``scratch`` (of ``a``'s shape: bool for relu,
    float for tanh) for the factor. relu reads its mask from ``a > 0``, which
    equals ``z > 0`` for every pre-activation ``z``, NaN included; a linear
    layer's derivative is one, so it is skipped."""
    if kind == "relu":
        np.multiply(delta, np.greater(a, 0.0, out=scratch), out=delta)
    elif kind == "tanh":
        np.multiply(a, a, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.multiply(delta, scratch, out=delta)


class _GradientPlan:
    """A weight stack set up for the batch-MSE gradient on ``n_rows``
    regressor rows.

    ``forward`` is a ``ForwardPlan`` over ``theta``, and its per-layer
    buffers are the activations backpropagation reads. Every delta, mask and
    gradient has a buffer of its own, and ``grad`` is one flat buffer shaped
    like ``theta`` that each layer's (W, b) gradient views write, so ``run``
    allocates only its sums of squared residuals.

    A single C-contiguous parameter vector on C-contiguous rows takes its
    matrix products with ``np.dot``, which costs less per call than
    ``np.matmul``: every operand is then a BLAS-ready matrix or its
    transpose, on which both make the same BLAS call. Anything else, a stack
    or strided rows, keeps ``np.matmul``, but for a stack's product below its
    one-unit output layer, which each stack row takes with ``np.dot`` on
    views planned here, as a single vector does.
    """

    def __init__(self, theta: np.ndarray, spec: NetworkSpec, n_rows: int):
        self.forward = ForwardPlan(theta, spec, (n_rows, spec.n_inputs))
        self.grad = np.empty(theta.shape)
        flat = theta.ndim == 1 and theta.flags.c_contiguous
        self.contiguous_matmul = np.dot if flat else np.matmul
        lead = theta.shape[:-1]
        acts = [z for *_, z in self.forward.layers]
        deltas = [np.empty_like(z) for z in acts]
        self.output, self.resid, self.scale = acts[-1], deltas[-1], 2.0 / n_rows
        self.squares = np.empty(deltas[-1].shape[:-1])
        scratch = [None if kind == "linear" else
                   np.empty(a.shape, dtype=bool if kind == "relu" else float)
                   for a, kind in zip(acts, spec.activations)]
        self.last_prime = (spec.activations[-1], acts[-1], scratch[-1])
        # per layer, last first: its transposed input activation (None for
        # layer 0, whose input is the rows of the call), its delta, its W and
        # b gradient views and, but for layer 0, the (delta, W_t, out) views
        # of each stack row for the product that carries its delta down (None
        # for the call's matmul) with its transposed W, and the delta and
        # activation derivative of the layer below
        self.backward = []
        for l in range(len(deltas) - 1, -1, -1):
            start, w_end, b_end, fan_in, fan_out = spec.layer_slices[l]
            below = None
            if l > 0:
                W_t = np.swapaxes(self.forward.layers[l][0], -1, -2)
                stack_output = lead and l == len(deltas) - 1
                row_products = [(deltas[l][i], W_t[i], deltas[l - 1][i])
                                for i in np.ndindex(lead)] if stack_output else None
                below = (row_products, W_t, deltas[l - 1],
                         (spec.activations[l - 1], acts[l - 1], scratch[l - 1]))
            self.backward.append((
                np.swapaxes(acts[l - 1], -1, -2) if l > 0 else None, deltas[l],
                self.grad[..., start:w_end].reshape(*lead, fan_in, fan_out),
                self.grad[..., w_end:b_end], below,
            ))

    def run(self, rows: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gradient (``grad`` itself, overwritten by the next call) and
        the sum of squared residuals per parameter row, at the current
        weights, on ``rows`` (n_rows, width) and ``targets``, (n_rows,) or
        one row per parameter row."""
        matmul = self.contiguous_matmul if rows.flags.c_contiguous else np.matmul
        _forward_into(self.forward, rows, matmul)
        resid = self.resid
        np.subtract(self.output, targets[..., None], out=resid)
        np.square(resid[..., 0], out=self.squares)
        sse = np.add.reduce(self.squares, axis=-1)
        np.multiply(self.scale, resid, out=resid)
        _times_act_prime(resid, *self.last_prime)
        for a_t, delta, dW, db, below in self.backward:
            matmul(rows.T if a_t is None else a_t, delta, out=dW)
            np.add.reduce(delta, axis=-2, out=db)
            if below is not None:
                row_products, W_t, delta_below, prime = below
                if row_products is None:
                    matmul(delta, W_t, out=delta_below)
                else:
                    for d, w, out in row_products:
                        np.dot(d, w, out=out)
                _times_act_prime(delta_below, *prime)
        return self.grad, sse


def _regressor_matrix(X, spec: NetworkSpec, name: str) -> np.ndarray:
    """``X`` as a float (rows, width) matrix of this network's input width;
    anything else, a bare row included, raises ShapeMismatch."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.n_inputs:
        raise ShapeMismatch(
            f"{name} regressor rows {X.shape}, network expects (rows, {spec.n_inputs})"
        )
    return X


def gradient(weights, spec: NetworkSpec, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of the batch MSE with respect to every parameter.

    A parameter stack takes either targets shared by every row, (n,), or
    one target row per parameter row, (..., n).
    """
    theta = _theta_of(weights)
    X = _regressor_matrix(X, spec, "batch")
    y = np.asarray(y, dtype=float)
    if theta.ndim == 1 or y.ndim == 0:
        y = y.ravel()
    n = y.shape[-1]
    if n == 0 or X.shape[0] != n:
        raise ShapeMismatch("batch rows and targets must align and be non-empty")

    return _GradientPlan(theta, spec, n).run(X, y)[0]


def mse_loss(weights, spec: NetworkSpec, X: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    pred = forward(weights, spec, X)
    # overflow to inf is fine here: training treats it as divergence
    with np.errstate(over="ignore"):
        return np.mean((pred - np.asarray(y, dtype=float)) ** 2, axis=-1)


def evaluate(weights, spec: NetworkSpec, X: np.ndarray, y: np.ndarray) -> Metrics:
    """MSE and MAE on the provided rows (whatever scale they are in)."""
    y = np.asarray(y, dtype=float).ravel()
    if len(y) == 0:
        raise ShapeMismatch("cannot evaluate on an empty row set")
    resid = forward(weights, spec, X) - y
    return Metrics(mse=float(np.mean(resid**2)), mae=float(np.mean(np.abs(resid))))


def train(
    spec: NetworkSpec,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    *,
    initial: NetworkWeights | np.ndarray | None = None,
    epochs: int | None = None,
    learning_rate: float | None = None,
    patience: int = 20,
) -> TrainResult:
    """Mini-batch Adam with early stopping on validation loss.

    Returns the best-on-validation weights and per-epoch loss histories
    (see ``TrainResult``). Either split being empty raises ShapeMismatch
    before any epoch. A single net raises DivergedLoss when its weights or
    either loss turn non-finite.

    ``initial`` may be a stack with leading axes, shaped (..., n_params).
    Each row is then a net of its own: the targets are (..., n), one row per
    parameter row, on the shared (n, width) ``X``. Every row draws the same
    mini-batches and keeps its own Adam moments, warm-start baseline, best
    weights, best epoch and patience count. A row whose patience runs out,
    or that diverges (non-finite weights after a batch, or a non-finite
    epoch loss), is frozen and keeps its last finite weights, and the loop
    ends once no row is left running. A diverged row is reported in the
    result's ``diverged`` instead of raising. Each row that does not diverge
    ends bit-equal to its own single-vector run.
    """
    X_train = _regressor_matrix(X_train, spec, "training")
    X_val = _regressor_matrix(X_val, spec, "validation")
    theta = _theta_of(initialize(spec) if initial is None else initial).copy()
    if theta.shape[-1:] != (spec.n_params,):
        raise ShapeMismatch(f"initial weights {theta.shape}, network needs {spec.n_params}")
    lead = theta.shape[:-1]
    y_train = np.asarray(y_train, dtype=float)
    y_val = np.asarray(y_val, dtype=float)
    if not lead:
        y_train, y_val = y_train.ravel(), y_val.ravel()
    for split, X, y in (("training", X_train, y_train), ("validation", X_val, y_val)):
        if y.shape != (*lead, X.shape[0]):
            raise ShapeMismatch(
                f"{split} targets {y.shape}, weights {theta.shape} on "
                f"{X.shape[0]} regressor rows need {(*lead, X.shape[0])}"
            )
        if X.shape[0] == 0:
            raise ShapeMismatch(f"the {split} split is empty")

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_epochs = spec.epochs if epochs is None else epochs
    lr = spec.learning_rate if learning_rate is None else learning_rate

    best_theta = theta.copy()
    best_val = np.full(lead, np.inf)
    best_epoch = np.full(lead, -1)
    since_best = np.zeros(lead, dtype=int)
    active = np.ones(lead, dtype=bool)
    diverged = np.zeros(lead, dtype=bool)
    train_hist: list[np.ndarray] = []
    val_hist: list[np.ndarray] = []

    n = X_train.shape[0]
    batch = min(spec.batch_size, n)
    # one plan for full batches and one for a short last batch; both view
    # ``theta``, which therefore stays one buffer that every step updates in
    # place. Each epoch gathers the split in its shuffled order once, so
    # every mini-batch is a slice of that copy
    plans = {size: _GradientPlan(theta, spec, size) for size in {batch, n % batch} - {0}}
    X_perm, y_perm = np.empty(X_train.shape), np.empty(y_train.shape)
    val_plan = ForwardPlan(theta, spec, X_val.shape)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    m_new, v_new, tmp = (np.empty_like(theta) for _ in range(3))
    # a single vector raises once its new weights are non-finite, so it steps
    # in place; a stack keeps a frozen row's weights
    theta_new = np.empty_like(theta) if lead else theta
    step = 0

    # overflow and invalid operations are divergence, which training detects
    with np.errstate(over="ignore", invalid="ignore"):
        if initial is not None:
            # warm starts compete as the baseline candidate: fine-tuning data the
            # weights already fit must not push them off the optimum
            va0 = mse_loss(val_plan, spec, X_val, y_val)
            best_val = np.where(np.isfinite(va0), va0, np.inf)

        for epoch in range(n_epochs):
            perm = rng.permutation(n)
            X_train.take(perm, axis=0, out=X_perm, mode="clip")
            y_train.take(perm, axis=-1, out=y_perm, mode="clip")
            sse = np.zeros(lead)
            for start in range(0, n, batch):
                rows = X_perm[start : start + batch]
                g, batch_sse = plans[len(rows)].run(rows, y_perm[..., start : start + batch])
                sse += batch_sse
                step += 1
                # m_new = b1 * m + (1 - b1) * g; v_new = b2 * v + (1 - b2) * g * g
                np.multiply(ADAM_BETA1, m, out=m_new)
                np.add(m_new, np.multiply(1 - ADAM_BETA1, g, out=tmp), out=m_new)
                np.multiply(ADAM_BETA2, v, out=v_new)
                np.multiply(np.multiply(1 - ADAM_BETA2, g, out=tmp), g, out=tmp)
                np.add(v_new, tmp, out=v_new)
                # theta_new = theta - lr * m_hat / (sqrt(v_hat) + eps), g as m_hat
                np.divide(m_new, 1 - ADAM_BETA1**step, out=g)
                np.divide(v_new, 1 - ADAM_BETA2**step, out=tmp)
                np.add(np.sqrt(tmp, out=tmp), ADAM_EPS, out=tmp)
                np.divide(np.multiply(lr, g, out=g), tmp, out=g)
                np.subtract(theta, g, out=theta_new)
                ok = np.isfinite(theta_new).all(axis=-1)
                if lead:
                    diverged |= active & ~ok
                    active &= ok
                    keep = active[..., None]
                    np.copyto(theta, theta_new, where=keep)
                    np.copyto(m, m_new, where=keep)
                    np.copyto(v, v_new, where=keep)
                elif ok:
                    m, m_new = m_new, m
                    v, v_new = v_new, v
                else:
                    raise DivergedLoss(f"parameters diverged at epoch {epoch}")

            tr = sse / n
            va = mse_loss(val_plan, spec, X_val, y_val)
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

    w = NetworkWeights(theta=best_theta, layer_sizes=spec.layer_sizes)
    if lead:
        return TrainResult(
            weights=w,
            train_loss=np.array(train_hist).reshape(-1, *lead),
            val_loss=np.array(val_hist).reshape(-1, *lead),
            best_epoch=best_epoch,
            diverged=diverged,
        )
    return TrainResult(
        weights=w,
        train_loss=tuple(float(x) for x in train_hist),
        val_loss=tuple(float(x) for x in val_hist),
        best_epoch=int(best_epoch),
    )


def train_channel(dataset, spec: NetworkSpec, **kwargs) -> TrainResult:
    """Train on a NARX dataset's normalized train/validation splits."""
    X_tr, y_tr = dataset.normalized_split("train")
    X_val, y_val = dataset.normalized_split("val")
    return train(spec, X_tr, y_tr, X_val, y_val, **kwargs)


def simulate_closed_loop(
    weights,
    spec: NetworkSpec,
    layout: NarxLayout,
    y_window: np.ndarray,
    U: np.ndarray,
) -> np.ndarray:
    """Free-run prediction: outputs feed back as lagged regressor entries.

    y_window holds the last n_b outputs in chronological order. U is
    chronological too: its first n_a - 1 rows are the input history before
    the run, and each row after them is the held input sample driving the
    step into one prediction, so len(U) - n_a + 1 steps are predicted.
    Works in normalized units and accepts stacked parameter vectors, in
    which case the result gains a leading member axis. Every step runs
    ``forward`` on one plan built for the run.
    """
    theta = _theta_of(weights)
    y_window = np.asarray(y_window, dtype=float).ravel()
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if spec.n_inputs != layout.width:
        raise ShapeMismatch("network input width does not match regressor layout")
    if U.shape[1] != layout.n_u:
        raise ShapeMismatch(f"expected {layout.n_u} input columns, got {U.shape[1]}")
    if len(y_window) < layout.n_b:
        raise ShapeMismatch(f"output window shorter than {layout.n_b} lags")
    n_steps = U.shape[0] - (layout.n_a - 1)
    if n_steps < 1:
        raise ShapeMismatch(f"need {layout.n_a - 1} rows of input history and one more")
    # newest first: the input windows of every step, then the output lags
    u_lags = U[np.arange(n_steps)[:, None] + layout.n_a - 1 - np.arange(layout.n_a)]
    lead = theta.shape[:-1]
    lags = np.broadcast_to(y_window[-layout.n_b :][::-1], (*lead, layout.n_b)).copy()
    out = np.empty((*lead, n_steps))
    plan = ForwardPlan(theta, spec, (*lead, 1, layout.width))
    for t in range(n_steps):
        row = layout.regressors(lags, u_lags[t])
        pred = forward(plan, spec, row[..., None, :])[..., 0]
        out[..., t] = pred
        if layout.n_b > 1:
            lags[..., 1:] = lags[..., :-1]
        lags[..., 0] = pred
    return out
