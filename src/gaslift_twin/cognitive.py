"""Online cognitive twin.

Warm-starts per-channel models from offline artifacts, monitors one-step-ahead
coverage of live measurements over a moving horizon, and retrains the ensemble
when the violation count crosses the cognitive threshold. Two drift-response
paths exist: when the drift source is identified, fresh training data is
generated at the current plant condition; when it is unknown, live samples are
buffered until enough are available.

Each 1 Hz step runs a plan built once per group of like channels, when the
twin is built and again after every retrain. A group gathers its regressor
rows from the twin's newest-first history vector into one buffer and
normalizes them in place, runs one forward pass over every channel's point
weights and members through a ``ForwardPlan`` (layer views into the group's
weight stack and one output buffer per layer), and reads each coverage band
from one in-place sort of the member predictions per member count and one
gather of both levels' order statistics (``np.quantile``'s linear
interpolation, planned by ``bayes.quantile_plan``). The twin then checks
every channel's measurement against its band at once, in place, and one
``ViolationWindow`` counts every channel's violations over the moving
horizon: a ring of the last MH violation flags, a ring that delays each
step's flags by ``a_offset - 1`` steps, and the counts and latched trigger
flags as vectors, all updated in place once per step. Besides the live
buffer's copies, a monitored step allocates only the arrays of its
``StepResult``: the bands, the indicator and the counts.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bayes import quantile_plan, quantiles_from_stats, sorted_quantiles
from .doe import TABLE_BOUNDS, build_input_sequence, lhs_sample
from .errors import (
    FingerprintMismatch,
    InsufficientSamples,
    InvalidRegion,
    MemberDroppedWarning,
    OfflineInstanceUnavailable,
    ShapeMismatch,
)
from .network import ForwardPlan, NetworkSpec, forward, train
from .plant import CHANNEL_NAMES, PlantParams, PlantState, simulate_schedule
from .structure import NarxLayout, NormalizationSpec, build_lag_matrix, split_rows

DEFAULT_MH = 100
DEFAULT_A_OFFSET = 1
DEFAULT_CT = 5
DEFAULT_CONFIDENCE = 0.95
DEFAULT_WAIT_BUFFER = 5000
DEFAULT_RETRAIN_EPOCHS = 50
DEFAULT_RETRAIN_LR_FACTOR = 0.1

CAUSE_IDENTIFIED = "source-identified"
CAUSE_UNKNOWN = "source-unknown"
ACTION_OFFLINE = "request-offline-data"
ACTION_WAIT = "wait-and-collect"


@dataclass(frozen=True)
class CognitiveConfig:
    """Monitoring and retraining knobs shared by all channels.

    ``a_offset`` shifts the violation window: with the default 1 the window
    ends at the newest sample; larger values leave the most recent
    ``a_offset - 1`` indicators outside the count.
    """

    mh: int = DEFAULT_MH
    a_offset: int = DEFAULT_A_OFFSET
    ct: int = DEFAULT_CT
    confidence: float = DEFAULT_CONFIDENCE
    wait_buffer: int = DEFAULT_WAIT_BUFFER
    retrain_epochs: int = DEFAULT_RETRAIN_EPOCHS
    retrain_lr_factor: float = DEFAULT_RETRAIN_LR_FACTOR

    def __post_init__(self):
        if self.mh < 1:
            raise ValueError("mh must be at least 1")
        if self.a_offset < 0:
            raise ValueError("a_offset must be non-negative")
        if not 1 <= self.ct <= self.mh:
            raise ValueError("ct must lie in [1, mh]")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.wait_buffer < 0:
            raise ValueError("wait_buffer must be non-negative")
        if self.retrain_epochs < 1:
            raise ValueError("retrain_epochs must be at least 1")
        if self.retrain_lr_factor <= 0.0:
            raise ValueError("retrain_lr_factor must be positive")


def artifact_fingerprint(
    spec: NetworkSpec,
    layout: NarxLayout,
    norm: NormalizationSpec,
    map_theta: np.ndarray,
    members: np.ndarray,
) -> str:
    """sha256 over a canonical byte encoding of one channel's offline result."""
    h = hashlib.sha256()
    header = repr((
        tuple(spec.layer_sizes), tuple(spec.activations), spec.learning_rate,
        spec.batch_size, spec.epochs, spec.seed,
        (layout.n_b, layout.n_a, layout.n_u),
        norm.y_min, norm.y_max,
    ))
    h.update(header.encode("ascii"))
    for arr in (norm.u_min, norm.u_max, map_theta, members):
        a = np.ascontiguousarray(np.asarray(arr, dtype=float))
        h.update(repr(a.shape).encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class OfflineArtifact:
    """Everything the online twin needs for one output channel."""

    channel: str
    spec: NetworkSpec
    layout: NarxLayout
    norm: NormalizationSpec
    map_theta: np.ndarray        # (n_params,)
    members: np.ndarray          # (m, n_params) reduced ensemble
    fingerprint: str

    def __post_init__(self):
        object.__setattr__(self, "map_theta", np.asarray(self.map_theta, dtype=float))
        members = np.atleast_2d(np.asarray(self.members, dtype=float))
        object.__setattr__(self, "members", members)
        if self.map_theta.shape != (self.spec.n_params,):
            raise ShapeMismatch("map_theta does not match the network spec")
        if members.shape[1] != self.spec.n_params:
            raise ShapeMismatch("ensemble member width does not match the spec")
        if self.spec.n_inputs != self.layout.width:
            raise ShapeMismatch("network input width does not match the lag layout")

    def verify(self) -> None:
        expected = artifact_fingerprint(
            self.spec, self.layout, self.norm, self.map_theta, self.members
        )
        if expected != self.fingerprint:
            raise FingerprintMismatch(
                f"artifact for {self.channel} failed its fingerprint check"
            )


def make_artifact(
    channel: str,
    spec: NetworkSpec,
    layout: NarxLayout,
    norm: NormalizationSpec,
    map_theta: np.ndarray,
    members: np.ndarray,
) -> OfflineArtifact:
    fp = artifact_fingerprint(spec, layout, norm, map_theta, members)
    return OfflineArtifact(
        channel=channel, spec=spec, layout=layout, norm=norm,
        map_theta=np.asarray(map_theta, dtype=float),
        members=np.atleast_2d(np.asarray(members, dtype=float)),
        fingerprint=fp,
    )


class OnlineChannelModel:
    """Mutable per-channel model: point weights plus the reduced ensemble.

    ``weights`` holds the point weights in row 0 and the members after it,
    and is the only copy of them: ``theta`` and ``members`` are views of its
    rows and cannot be assigned. Inside a ``CognitiveTwin`` it is a view into the
    twin's stack for the channel's group, so a write into it is a write
    into that stack.
    """

    def __init__(self, artifact: OfflineArtifact):
        self.channel = artifact.channel
        self.spec = artifact.spec
        self.layout = artifact.layout
        self.norm = artifact.norm
        self.weights = np.vstack([artifact.map_theta, artifact.members])

    @property
    def theta(self) -> np.ndarray:
        return self.weights[0]

    @property
    def members(self) -> np.ndarray:
        return self.weights[1:]

    @property
    def n_members(self) -> int:
        return self.weights.shape[0] - 1

    def predict(
        self, y_window: np.ndarray, u_window: np.ndarray, confidence: float
    ) -> tuple[float, float, float]:
        """One-step-ahead point prediction and coverage interval, both in
        engineering units: the twin's stacked step for a group of one. Both
        windows are chronological; the last input row is the current sample,
        the held input driving the step being predicted."""
        if not 0.0 < confidence < 1.0:
            raise InvalidRegion("confidence must lie in (0, 1)")
        layout = self.layout
        y_window = np.asarray(y_window, dtype=float).ravel()
        u_window = np.atleast_2d(np.asarray(u_window, dtype=float))
        if len(y_window) < layout.n_b:
            raise ShapeMismatch(f"need {layout.n_b} past outputs, got {len(y_window)}")
        if u_window.shape[0] < layout.n_a or u_window.shape[1] != layout.n_u:
            raise ShapeMismatch(
                f"need {layout.n_a} rows of {layout.n_u} inputs, got {u_window.shape}"
            )
        # the windows newest first in one history vector, as the twin keeps its own
        history = np.concatenate([y_window[::-1], u_window[::-1].ravel()])
        positions = np.arange(history.size)
        y_pos = positions[: len(y_window)][None]
        u_pos = positions[len(y_window) :].reshape(u_window.shape)
        group = _ChannelGroup([self], self.weights[None], confidence, y_pos, u_pos)
        point, lo, hi = group.band(history)[:, 0]
        return float(point), float(lo), float(hi)


def _indexer(idx) -> slice | np.ndarray:
    """``idx`` as a slice when it is one contiguous run, which numpy reads
    and writes as a view, and as an index array otherwise."""
    idx = np.asarray(idx)
    if len(idx) and (np.diff(idx) == 1).all():
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class _ChannelGroup:
    """Channels sharing one network shape and one lag layout, evaluated as one
    stack through a step planned once.

    ``weights`` is (channels, 1 + max members, n_params): row 0 of a channel
    is its point weights, rows 1..n_members its ensemble, and any rows past
    those are zero padding that no quantile sees. Everything a step reads or
    writes besides the history and the weights is built here, so a group
    built again after a retrain gets it new:

    - ``gather`` holds, per channel and regressor column, the position in
      the twin's history vector that ``band`` reads into ``rows``, the
      regressor rows in the shape ``plan`` takes; ``y_pos`` (channels,
      >= n_b) and ``u_pos`` (>= n_a, n_u) place each channel's past outputs
      and the inputs, newest first, in that vector, and
      ``NarxLayout.regressors`` lays them out;
    - ``plan`` is the ``ForwardPlan`` of the stack on ``rows``;
    - per member count, the positions of those channels' member predictions
      in the plan's output, a buffer they are sorted in, and the positions
      in it of both levels' order statistics (``bayes.quantile_plan``) with
      their buffer and interpolation coefficients, so one sort and one
      gather per count read every bound;
    - ``out``, the (3, channels) result.

    ``offset`` and ``scale`` stack each channel's ``regressor_scaling``, so
    one subtraction and one division normalize every row in place;
    ``y_offset`` and ``y_scale`` stack each channel's ``target_scaling`` to
    denormalize the bands. Every buffer is written in full before it is
    read, so none carries anything from one step to the next.
    """

    def __init__(self, models: list[OnlineChannelModel], weights: np.ndarray,
                 confidence: float, y_pos: np.ndarray, u_pos: np.ndarray):
        self.channels = tuple(m.channel for m in models)
        self.spec, self.layout = models[0].spec, models[0].layout
        self.weights = weights
        self.gather = self.layout.regressors(y_pos, u_pos).astype(np.intp)[:, None, None]
        self.rows = np.empty(self.gather.shape)
        self.plan = ForwardPlan(weights, self.spec, self.rows.shape)
        self.n_members = np.array([m.n_members for m in models])
        alpha = (1.0 - confidence) / 2.0
        self.levels = (alpha, 1.0 - alpha)
        stack_rows = weights.shape[1]
        self.by_count = []
        for n in np.unique(self.n_members):
            which = np.flatnonzero(self.n_members == n)
            stats, coef = quantile_plan(int(n), self.levels)
            members = (stack_rows * which + 1)[:, None] + np.arange(n)
            picks = (stats % n)[..., None] + n * np.arange(len(which))
            self.by_count.append((_indexer(which), members, np.empty(members.shape),
                                  picks, np.empty(picks.shape), coef))
        scaling = [m.norm.regressor_scaling(self.layout) for m in models]
        self.offset = np.stack([offset for offset, _ in scaling])[:, None, None]
        self.scale = np.stack([scale for _, scale in scaling])[:, None, None]
        self.y_offset, self.y_scale = np.array([m.norm.target_scaling() for m in models]).T
        self.out = np.empty((3, len(models)))

    def band(self, history: np.ndarray) -> np.ndarray:
        """Point, lower and upper bound, (3, channels) in engineering units,
        from the history vector: ``out``, overwritten by the next call."""
        rows, out = self.rows, self.out
        # every position is in range; a mode other than "raise" lets ``take``
        # write into ``out`` directly instead of through a buffer
        history.take(self.gather, out=rows, mode="wrap")
        rows -= self.offset
        rows /= self.scale
        with np.errstate(over="ignore", invalid="ignore"):
            # a view of the plan's buffer, read into ``out`` below
            preds = forward(self.plan, self.spec, rows)[..., 0]
            out[0] = preds[:, 0]
            for which, members, ordered, picks, stats, coef in self.by_count:
                preds.take(members, out=ordered, mode="wrap")
                ordered.sort(axis=1)
                ordered.take(picks, out=stats, mode="wrap")
                out[1:, which] = quantiles_from_stats(stats, coef)
            # a sum is finite only if every term is, so this sends every
            # non-finite prediction (and a rare overflow) to the exact check
            all_finite = math.isfinite(np.add.reduce(preds, axis=None))
        if not all_finite:
            for c in np.flatnonzero(~np.isfinite(preds).all(axis=1)):
                n = self.n_members[c]
                out[1:, c] = self._finite_quantile(c, preds[c, 0], preds[c, 1 : 1 + n])
        out *= self.y_scale
        out += self.y_offset
        return out

    def _finite_quantile(self, c: int, point: float, preds: np.ndarray):
        finite = np.isfinite(preds)
        if not finite.all():
            warnings.warn(
                f"{int((~finite).sum())} non-finite member prediction(s) dropped "
                f"on {self.channels[c]}",
                MemberDroppedWarning, stacklevel=4,
            )
        if not np.isfinite(point) or not finite.any():
            raise InvalidRegion(
                f"no finite predictions available on {self.channels[c]}"
            )
        return sorted_quantiles(np.sort(preds[finite])[:, None], self.levels)[:, 0]


def transfer_warm_start(artifact: OfflineArtifact) -> OnlineChannelModel:
    """Copy the offline structure, weights and ensemble verbatim after
    verifying the artifact fingerprint."""
    artifact.verify()
    return OnlineChannelModel(artifact)


class ViolationWindow:
    """Moving violation counts of every channel of a twin.

    ``Z[c]`` is how many of the last ``mh`` violation flags of channel c to
    enter the window were set. A flag enters ``a_offset - 1`` updates after
    it was pushed (at once for ``a_offset`` 0 or 1), so the newest flags
    wait outside the count. The window is a ring of ``mh`` flag rows. The
    wait is a ring of ``max(a_offset, 1)`` flag rows: each update writes its
    mask to one slot and lets in the row of the slot after it, written
    ``a_offset - 1`` updates before (the same slot, so the mask itself,
    when there is no wait). Both rings hold the flags as 0 and 1 in the
    counts' integer type, so an update adds and subtracts like types, and
    both start zero-filled; the zeros standing in for flags that never
    entered leave every count what a window of only the entered flags would
    give. ``k`` counts the updates since the last reset, and
    ``triggered[c]`` latches once ``Z[c]`` has reached the threshold ``ct``.
    """

    def __init__(self, config: CognitiveConfig, n_channels: int):
        self.config = config
        self.Z = np.zeros(n_channels, dtype=int)
        self._ring = np.zeros((config.mh, n_channels), dtype=self.Z.dtype)
        self._pending = np.zeros((max(config.a_offset, 1), n_channels), dtype=self.Z.dtype)
        self.triggered = np.zeros(n_channels, dtype=bool)
        self._hit = np.empty(n_channels, dtype=bool)      # written by every push
        self.k = 0

    def reset(self) -> None:
        """Empty the window, as at construction."""
        for a in (self._ring, self._pending, self.Z, self.triggered):
            a.fill(0)
        self.k = 0

    def push(self, violated: np.ndarray) -> bool:
        """Advance every channel by one step's violation mask, (channels,)
        bool, and report whether any channel's count reached ``ct``."""
        if violated.dtype != bool:
            raise ValueError(f"violation mask must be bool, got {violated.dtype}")
        k, pending = self.k, self._pending
        pending[k % len(pending)] = violated
        entering = pending[(k + 1) % len(pending)]
        leaving = self._ring[k % self.config.mh]
        self.Z += entering
        self.Z -= leaving
        leaving[:] = entering
        self.k = k + 1
        hit = np.greater_equal(self.Z, self.config.ct, out=self._hit)
        self.triggered |= hit
        return bool(np.count_nonzero(hit))


@dataclass(frozen=True)
class DriftEvent:
    """One detected drift episode from trigger to retrain completion."""

    detection_step: int
    cause: str
    action: str
    retrain_step: int | None = None
    post_retrain_z: int | None = None

    def __post_init__(self):
        if self.cause not in (CAUSE_IDENTIFIED, CAUSE_UNKNOWN):
            raise ValueError(f"unknown drift cause {self.cause!r}")
        if self.action not in (ACTION_OFFLINE, ACTION_WAIT):
            raise ValueError(f"unknown drift action {self.action!r}")
        if self.retrain_step is not None and self.retrain_step < self.detection_step:
            raise ValueError("retrain step cannot precede detection")


@dataclass(frozen=True)
class DriftCondition:
    """Plant condition(s) at which fresh training data should be generated.

    ``v_o_rows`` lists valve-opening combinations to cycle across the new
    experiment plateaus; a drifting valve contributes several openings along
    its slope, a stepped one a single row.
    """

    params: PlantParams
    initial: PlantState
    v_o_rows: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.v_o_rows, dtype=float))
        if rows.shape[1] != 3 or rows.shape[0] < 1:
            raise ValueError("v_o_rows must be (k, 3) with k >= 1")
        if rows.min() < 0.0 or rows.max() > 1.0:
            raise ValueError("valve openings must lie in [0, 1]")
        object.__setattr__(self, "v_o_rows", rows)


@dataclass(frozen=True)
class RetrainData:
    """Rows of plant output/input samples to fine-tune on. ``hold`` is the
    plateau length for generated schedules and None for live streams."""

    Y: np.ndarray                # (rows, n_channels)
    U: np.ndarray                # (rows, n_inputs)
    hold: int | None
    channels: tuple[str, ...] = CHANNEL_NAMES

    def __post_init__(self):
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        U = np.atleast_2d(np.asarray(self.U, dtype=float))
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "U", U)
        if Y.shape[0] != U.shape[0]:
            raise ShapeMismatch("output and input row counts differ")
        if Y.shape[1] != len(self.channels):
            raise ShapeMismatch("one output column per channel required")

    @property
    def n_rows(self) -> int:
        return self.Y.shape[0]


def request_offline_data(
    condition: DriftCondition,
    *,
    n_experiments: int = 40,
    hold: int = 60,
    seed: int = 0,
) -> RetrainData:
    """Fresh stratified experiment batch over ``TABLE_BOUNDS``, simulated at
    the drifted condition.

    The schedule starts from the supplied plant state (the system's current
    state when the harness requests data) and cycles the condition's valve
    rows across plateaus.
    """
    plan = lhs_sample(n_experiments, TABLE_BOUNDS, seed)
    sched = build_input_sequence(plan, float(hold))
    v_rows = np.resize(condition.v_o_rows, (n_experiments, 3))
    traj = simulate_schedule(
        sched.Q_g, v_rows, sched.P_pump, sched.hold, condition.params,
        condition.initial,
    )
    return RetrainData(Y=traj.states_matrix(), U=traj.inputs_matrix(), hold=int(hold))


def handle_drift(
    cause: str,
    *,
    condition: DriftCondition | None = None,
    buffered: RetrainData | None = None,
    wait_buffer: int = DEFAULT_WAIT_BUFFER,
    n_experiments: int = 40,
    hold: int = 60,
    seed: int = 0,
) -> RetrainData | None:
    """Resolve a trigger into retraining data.

    Identified sources get a fresh generated batch immediately and require
    plant access through ``condition``. Unknown sources return None until the
    live buffer holds ``wait_buffer`` rows.
    """
    if cause == CAUSE_IDENTIFIED:
        if condition is None:
            raise OfflineInstanceUnavailable(
                "identified drift needs plant access to generate data"
            )
        return request_offline_data(
            condition, n_experiments=n_experiments, hold=hold, seed=seed,
        )
    if cause == CAUSE_UNKNOWN:
        if buffered is None or buffered.n_rows < wait_buffer:
            return None
        return buffered
    raise ValueError(f"unknown drift cause {cause!r}")


@dataclass(frozen=True)
class RetrainRecord:
    """What one channel's fine-tune did.

    Every fallback is listed: a diverged point fine-tune keeps the weights
    from before the retrain, and a diverged member, or one whose prediction
    offset from the point weights is non-finite and so was not fine-tuned,
    takes the fine-tuned point weights. Members are numbered from 0.
    """

    channel: str
    point_diverged: bool
    members_diverged: tuple[int, ...]
    members_skipped: tuple[int, ...]
    norm_widened: bool


def _retrained(
    model: OnlineChannelModel, data: RetrainData, *, epochs: int,
    lr_factor: float, seed: int,
) -> tuple[NormalizationSpec, np.ndarray, RetrainRecord]:
    """New normalization and weights for one channel fine-tuned on new
    data, and what the fine-tune did, leaving the model as it is.

    Each member is warm-started from its current parameters and trained
    toward the new targets shifted by its own prediction offset from the
    point weights. Training every member toward the raw targets would drive
    them all into the same optimum and collapse the coverage interval to
    zero width; the shifted targets make each member re-learn the new
    dynamics while keeping its role as a distinct posterior draw, so the
    ensemble spread survives retraining. A diverged point fine-tune keeps
    the weights from before, and a member whose fine-tune diverges, or
    whose offset is non-finite, takes the fine-tuned point weights.
    Normalization widens only when the new data falls outside the fitted
    ranges.

    The point weights and every member with a finite offset are fine-tuned
    in one ``train`` call on a stack: row 0 is the point weights, the other
    rows are those members.
    """
    if model.channel not in data.channels:
        raise ShapeMismatch(f"data carries no channel {model.channel!r}")
    col = data.channels.index(model.channel)
    y = data.Y[:, col]
    X_raw, t_raw, _ = build_lag_matrix(y, data.U, model.layout, data.hold)
    if len(t_raw) < 2 * model.spec.batch_size:
        raise InsufficientSamples(
            f"{len(t_raw)} usable rows is too few to fine-tune on"
        )
    norm = model.norm
    widened = not norm.covers(y, data.U)
    if widened:
        norm = norm.expanded(y, data.U)
    Xn = norm.normalize_regressors(X_raw, model.layout)
    tn = norm.normalize_target(t_raw)
    tr, va, _ = split_rows(len(tn), (0.85, 0.15, 0.0), seed)

    theta_before = model.theta
    with np.errstate(over="ignore", invalid="ignore"):
        base_pred = np.asarray(forward(theta_before, model.spec, Xn)).ravel()
        offsets = np.asarray(forward(model.members, model.spec, Xn)) - base_pred
    finite = np.isfinite(offsets).all(axis=-1)
    tuned_members = np.flatnonzero(finite)
    targets = np.concatenate([tn[None], tn + offsets[tuned_members]])
    res = train(
        model.spec, Xn[tr], targets[:, tr], Xn[va], targets[:, va],
        initial=np.concatenate([theta_before[None], model.members[tuned_members]]),
        epochs=epochs, learning_rate=model.spec.learning_rate * lr_factor,
    )
    tuned, diverged = res.weights.theta, res.diverged
    weights = np.empty_like(model.weights)
    weights[:] = theta_before if diverged[0] else tuned[0]
    kept = ~diverged[1:]
    weights[1 + tuned_members[kept]] = tuned[1:][kept]
    record = RetrainRecord(
        channel=model.channel,
        point_diverged=bool(diverged[0]),
        members_diverged=tuple(tuned_members[~kept].tolist()),
        members_skipped=tuple(np.flatnonzero(~finite).tolist()),
        norm_widened=widened,
    )
    return norm, weights, record


@dataclass(frozen=True)
class StepResult:
    """Per-step monitoring outcome across all channels."""

    step: int
    monitored: bool
    predicted: np.ndarray       # (n_channels,), nan while warming up
    lower: np.ndarray
    upper: np.ndarray
    indicator: np.ndarray       # (n_channels,) ints
    Z: np.ndarray               # (n_channels,) ints
    trigger: bool


class CognitiveTwin:
    """Per-channel online models sharing one cognitive configuration.

    ``step`` consumes the input sample driving the current plant step and the
    resulting measurement: predictions for the step are made before the
    measurement enters the history, so the twin only ever uses the past. The
    twin triggers when any channel's violation count reaches the threshold.

    Channels that share a network shape and a lag layout form one group, and
    the group's weights are one stack with a leading channel axis: one
    regressor row per channel, one forward over every channel's point weights
    and members, one sort per member count read through the order-statistic
    plan of ``np.quantile``'s linear method, and one denormalisation give the
    whole group's bands per step. The stacks are the only copy of the weights
    (each model's ``weights`` is a view into its group's stack); they are
    built here and again after every retrain, and each group plans its step
    with them (see ``_ChannelGroup``): where its regressor rows come from in
    the history, its forward plan, its sort and gather positions per member
    count, and the buffers all of these write.

    A step is then band, check, window: each group's band into the step's
    bands array, one in-place boundary check of every measurement into the
    twin's violation mask (raising ``InvalidRegion`` on an inverted band),
    and one ``ViolationWindow`` update from that mask. The bands, the
    indicator and the copy of the counts in its ``StepResult`` are the only
    arrays a monitored step allocates, so each step's ``StepResult`` holds
    arrays of its own; every other buffer it writes is written in full
    before it is read, and carries nothing to the next step.

    ``max_z`` reads the window and ``retrain`` resets it. The output history
    and the input lags are newest-first views into one history vector, the
    one the groups gather from. Row 0 of the input lags is the slot of the
    current input, written at the start of a step, so a regressor row reads
    it with the past inputs behind it; both are shifted in place once a step
    has succeeded. A step that raises changes nothing: the step count, the
    window, the output history, the past inputs and the live buffer stay as
    they were.
    """

    def __init__(self, artifacts: dict[str, OfflineArtifact], config: CognitiveConfig):
        if not artifacts:
            raise ValueError("at least one channel artifact required")
        self.config = config
        self.channels = tuple(artifacts)
        self.models = {c: transfer_warm_start(a) for c, a in artifacts.items()}
        self.window = ViolationWindow(config, len(self.channels))
        n_u = {self.models[c].layout.n_u for c in self.channels}
        if len(n_u) != 1:
            raise ShapeMismatch("channels disagree on the exogenous input count")
        self.n_inputs = n_u.pop()
        y_depth = max(self.models[c].layout.n_b for c in self.channels)
        u_depth = max(self.models[c].layout.n_a for c in self.channels) - 1
        # newest first, in one vector the groups read their regressor rows
        # from: past outputs, and the current input then past ones
        n_y = y_depth * len(self.channels)
        self._history = np.full(n_y + (1 + u_depth) * self.n_inputs, np.nan)
        self._y_hist = self._history[:n_y].reshape(y_depth, len(self.channels))
        self._u_lags = self._history[n_y:].reshape(1 + u_depth, self.n_inputs)
        # each part moved one sample back as one 1-D copy, which numpy makes
        # in place where a 2-D overlapping one would go through a temporary
        y_flat, u_flat = self._history[:n_y], self._history[n_y:]
        self._shifts = ((y_flat[len(self.channels) :], y_flat[: -len(self.channels)]),
                        (u_flat[self.n_inputs :], u_flat[: -self.n_inputs]))
        self._flags = np.empty((2, len(self.channels)), dtype=bool)
        self._stack_groups()
        self._warmup = max(y_depth, u_depth)
        self._k = 0
        self._buffering = False
        self._buffer_y: list[np.ndarray] = []
        self._buffer_u: list[np.ndarray] = []

    @property
    def warmed_up(self) -> bool:
        return self._k >= self._warmup

    def max_z(self) -> int:
        return int(self.window.Z.max())

    def step(self, u_now: np.ndarray, y_now: np.ndarray) -> StepResult:
        u_now = np.asarray(u_now, dtype=float).ravel()
        y_now = np.asarray(y_now, dtype=float).ravel()
        if u_now.shape != (self.n_inputs,):
            raise ShapeMismatch(f"expected {self.n_inputs} inputs, got {u_now.shape}")
        if y_now.shape != (len(self.channels),):
            raise ShapeMismatch(
                f"expected {len(self.channels)} measurements, got {y_now.shape}"
            )
        monitored = self.warmed_up
        self._u_lags[0] = u_now
        if monitored:
            bands = np.empty((3, len(self.channels)))
            for cols, group in self._groups:
                bands[:, cols] = group.band(self._history)
            lower, upper = bands[1], bands[2]
            inside, violated = self._flags
            if np.count_nonzero(np.greater(lower, upper, out=violated)):
                c = violated.argmax()
                raise InvalidRegion(f"inverted region [{lower[c]}, {upper[c]}]")
            # nothing from here on raises, so a failed step changed nothing;
            # outside [lower, upper], boundary inclusive, and a NaN counts
            np.less_equal(lower, y_now, out=inside)
            inside &= np.less_equal(y_now, upper, out=violated)
            np.logical_not(inside, out=violated)
            indicator = violated.astype(int)
            trigger = self.window.push(violated)
        else:
            bands = np.full((3, len(self.channels)), np.nan)
            indicator = np.zeros(len(self.channels), dtype=int)
            trigger = False
        self._k += 1
        for later, earlier in self._shifts:
            later[...] = earlier
        self._y_hist[0] = y_now
        if self._buffering:
            self._buffer_y.append(y_now.copy())
            self._buffer_u.append(u_now.copy())
        return StepResult(
            step=self._k, monitored=monitored, predicted=bands[0],
            lower=bands[1], upper=bands[2], indicator=indicator,
            Z=self.window.Z.copy(), trigger=trigger,
        )

    def begin_buffering(self) -> None:
        self._buffering = True

    @property
    def buffer_size(self) -> int:
        return len(self._buffer_y)

    def buffer_data(self) -> RetrainData:
        if not self._buffer_y:
            raise InsufficientSamples("live buffer is empty")
        return RetrainData(
            Y=np.stack(self._buffer_y), U=np.stack(self._buffer_u), hold=None,
            channels=self.channels,
        )

    def _stack_groups(self) -> None:
        """Copy the weights of each group of channels sharing a network shape
        and a lag layout into one stack, and make every model's weights a
        view into it."""
        keys: dict[tuple, list[int]] = {}
        for i, c in enumerate(self.channels):
            m = self.models[c]
            keys.setdefault((m.spec.layer_sizes, m.spec.activations, m.layout),
                            []).append(i)
        positions = np.arange(self._history.size)
        y_pos = positions[: self._y_hist.size].reshape(self._y_hist.shape)
        u_pos = positions[self._y_hist.size :].reshape(self._u_lags.shape)
        self._groups = []
        for cols in keys.values():
            models = [self.models[self.channels[i]] for i in cols]
            stack = np.zeros((len(models), 1 + max(m.n_members for m in models),
                              models[0].spec.n_params))
            for row, m in zip(stack, models):
                row[: 1 + m.n_members] = m.weights
                m.weights = row[: 1 + m.n_members]
            group = _ChannelGroup(models, stack, self.config.confidence,
                                  y_pos[:, cols].T, u_pos)
            self._groups.append((_indexer(cols), group))

    def retrain(self, data: RetrainData, *, seed: int = 0) -> tuple[RetrainRecord, ...]:
        """Fine-tune every channel, then reset monitors and the live buffer.

        Returns one record per channel, in channel order, naming the rows
        whose fine-tune fell back and whether the normalization widened.

        All or nothing: every channel is fine-tuned into new weights and
        normalization first, and only when all have succeeded does the twin
        take them and rebuild its stacks. If any channel raises, the weights,
        normalizations, monitors and buffer stay as they were.

        Called between steps, so the updated ensemble takes over at the next
        step boundary; measurement history is kept, predictions continue
        seamlessly.
        """
        tuned = [
            _retrained(
                self.models[c], data,
                epochs=self.config.retrain_epochs,
                lr_factor=self.config.retrain_lr_factor,
                seed=seed,
            )
            for c in self.channels
        ]
        for c, (norm, weights, _) in zip(self.channels, tuned):
            self.models[c].norm, self.models[c].weights = norm, weights
        self._stack_groups()
        self.window.reset()
        self._buffering = False
        self._buffer_y.clear()
        self._buffer_u.clear()
        return tuple(record for _, _, record in tuned)
