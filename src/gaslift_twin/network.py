"""From-scratch feedforward NARX networks.

Parameters live in one flat vector per network: each layer contributes
its weight matrix (row-major) followed by its bias vector, (in+1)*out
entries in total. Forward, gradient and closed-loop simulation all accept
either a single parameter vector or a stack of them (leading member
axis), so ensemble operations run vectorized. The leading axes may be
more than one: the online twin evaluates a (channels, 1 + members,
n_params) stack on rows shaped (channels, 1, 1, width), one regressor row
per channel, in one call. Each matmul then takes a single row, the same
float operations as a single parameter vector on a single row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedLoss, ShapeMismatch
from .structure import NarxLayout

ACTIVATIONS = ("relu", "tanh", "linear")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _act_prime(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(float)
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


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

    @property
    def layer_param_counts(self) -> tuple[int, ...]:
        return tuple((i + 1) * o for i, o in self.layer_shapes)

    @property
    def n_params(self) -> int:
        return sum(self.layer_param_counts)


@dataclass(frozen=True)
class NetworkWeights:
    """Flat parameter vector plus the layer layout it belongs to."""

    theta: np.ndarray
    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        expected = sum(
            (i + 1) * o for i, o in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        )
        if self.theta.shape != (expected,):
            raise ShapeMismatch(
                f"theta has {self.theta.shape}, layout needs ({expected},)"
            )
        if not np.isfinite(self.theta).all():
            raise ShapeMismatch("theta contains non-finite entries")

    def with_theta(self, theta: np.ndarray) -> "NetworkWeights":
        return NetworkWeights(theta=np.asarray(theta, dtype=float), layer_sizes=self.layer_sizes)


@dataclass(frozen=True)
class Metrics:
    mse: float
    mae: float


@dataclass(frozen=True)
class TrainResult:
    weights: NetworkWeights
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    best_epoch: int     # -1 when no epoch ran or none beat the warm start


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
    s = 0
    for fan_in, fan_out in spec.layer_shapes:
        W = theta[..., s : s + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        b = theta[..., s + fan_in * fan_out : s + (fan_in + 1) * fan_out]
        yield W, b
        s += (fan_in + 1) * fan_out


def _forward_trace(theta: np.ndarray, spec: NetworkSpec, X: np.ndarray):
    """Activations and pre-activations per layer for backpropagation."""
    a = X
    zs, acts = [], [a]
    for (W, b), kind in zip(_layers(theta, spec), spec.activations):
        z = np.matmul(a, W) + b[..., None, :]
        a = _act(z, kind)
        zs.append(z)
        acts.append(a)
    return zs, acts


def forward(weights, spec: NetworkSpec, rows: np.ndarray) -> np.ndarray:
    """One-step-ahead predictions for regressor rows in normalized units.

    A single row yields a scalar, a (batch, width) matrix a vector, and a
    parameter stack (m, n_params) adds a leading member axis.
    """
    theta = _theta_of(weights)
    X = np.asarray(rows, dtype=float)
    single_row = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[-1] != spec.n_inputs:
        raise ShapeMismatch(
            f"regressor width {X.shape[-1]}, network expects {spec.n_inputs}"
        )
    _, acts = _forward_trace(theta, spec, X)
    out = acts[-1][..., 0]
    if single_row:
        return out[..., 0]
    return out


def gradient(weights, spec: NetworkSpec, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of the batch MSE with respect to every parameter."""
    theta = _theta_of(weights)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = len(y)
    if n == 0 or X.shape[0] != n:
        raise ShapeMismatch("batch rows and targets must align and be non-empty")
    if X.shape[1] != spec.n_inputs:
        raise ShapeMismatch(
            f"regressor width {X.shape[1]}, network expects {spec.n_inputs}"
        )

    zs, acts = _forward_trace(theta, spec, X)
    grad = np.empty_like(theta)
    Ws = [W for W, _ in _layers(theta, spec)]

    resid = acts[-1] - y[:, None]
    delta = (2.0 / n) * resid * _act_prime(zs[-1], spec.activations[-1])
    offsets = np.cumsum((0,) + spec.layer_param_counts)
    for l in range(len(spec.layer_shapes) - 1, -1, -1):
        fan_in, fan_out = spec.layer_shapes[l]
        dW = np.matmul(np.swapaxes(acts[l], -1, -2), delta)
        db = delta.sum(axis=-2)
        s = offsets[l]
        grad[..., s : s + fan_in * fan_out] = dW.reshape(*dW.shape[:-2], -1)
        grad[..., s + fan_in * fan_out : offsets[l + 1]] = db
        if l > 0:
            delta = np.matmul(delta, np.swapaxes(Ws[l], -1, -2)) * _act_prime(
                zs[l - 1], spec.activations[l - 1]
            )
    return grad


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
    initial: NetworkWeights | None = None,
    epochs: int | None = None,
    learning_rate: float | None = None,
    patience: int = 20,
) -> TrainResult:
    """Mini-batch Adam with early stopping on validation loss.

    Returns the best-on-validation weights and per-epoch loss histories.
    Raises DivergedLoss when either loss turns non-finite.
    """
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    y_train = np.asarray(y_train, dtype=float).ravel()
    X_val = np.atleast_2d(np.asarray(X_val, dtype=float))
    y_val = np.asarray(y_val, dtype=float).ravel()
    if X_train.shape[1] != spec.n_inputs:
        raise ShapeMismatch("training rows do not match network input width")

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    theta = (initialize(spec) if initial is None else initial).theta.copy()
    n_epochs = spec.epochs if epochs is None else epochs
    lr = spec.learning_rate if learning_rate is None else learning_rate

    if n_epochs == 0:
        w = NetworkWeights(theta=theta, layer_sizes=spec.layer_sizes)
        return TrainResult(weights=w, train_loss=(), val_loss=(), best_epoch=-1)

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    n = len(y_train)
    batch = min(spec.batch_size, n)

    best_theta = theta.copy()
    best_val = np.inf
    best_epoch = -1
    if initial is not None:
        # warm starts compete as the baseline candidate: fine-tuning data the
        # weights already fit must not push them off the optimum
        va0 = float(mse_loss(theta, spec, X_val, y_val))
        if np.isfinite(va0):
            best_val = va0
    since_best = 0
    train_hist: list[float] = []
    val_hist: list[float] = []

    for epoch in range(n_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            with np.errstate(over="ignore", invalid="ignore"):
                g = gradient(theta, spec, X_train[idx], y_train[idx])
                step += 1
                m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
                v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
                m_hat = m / (1 - ADAM_BETA1**step)
                v_hat = v / (1 - ADAM_BETA2**step)
                theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if not np.isfinite(theta).all():
                raise DivergedLoss(f"parameters diverged at epoch {epoch}")

        tr = float(mse_loss(theta, spec, X_train, y_train))
        va = float(mse_loss(theta, spec, X_val, y_val))
        if not (np.isfinite(tr) and np.isfinite(va)):
            raise DivergedLoss(f"non-finite loss at epoch {epoch}")
        train_hist.append(tr)
        val_hist.append(va)
        if va < best_val:
            best_val = va
            best_theta = theta.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break

    w = NetworkWeights(theta=best_theta, layer_sizes=spec.layer_sizes)
    return TrainResult(
        weights=w,
        train_loss=tuple(train_hist),
        val_loss=tuple(val_hist),
        best_epoch=best_epoch,
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
    which case the result gains a leading member axis.
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
    for t in range(n_steps):
        row = layout.regressors(lags, u_lags[t])
        pred = forward(theta, spec, row[..., None, :])[..., 0]
        out[..., t] = pred
        if layout.n_b > 1:
            lags[..., 1:] = lags[..., :-1]
        lags[..., 0] = pred
    return out
