"""Software-in-the-loop harness.

Binds the virtual plant to the cognitive twin: replays scripted disturbance
scenarios at 1 Hz, applies valve degradations, routes measurements through the
twin, and logs the measurements and the twin's outputs alongside a frozen
static model for contrast. A stored log keeps only what cannot be recomputed:
the measurements, the twin's bands and which steps it monitored, plus
``meta.json``. The seconds, inputs and valve openings come from the script,
the violation indicator and counts from the stored arrays and the retrain
steps, and the static model's predictions from the offline artifacts.

``run_scenario`` decides each drift episode by its cause, retrains the twin
and records the episode as one ``DriftEvent``; the log keeps the events in
``meta.json``, and ``emit_report`` renders them as ``events.jsonl``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .artifacts import read_array, read_json, write_array, write_csv, write_json, write_text
from .cognitive import (
    ACTION_OFFLINE,
    ACTION_WAIT,
    CAUSE_IDENTIFIED,
    CAUSE_UNKNOWN,
    CognitiveConfig,
    CognitiveTwin,
    DriftCondition,
    DriftEvent,
    OfflineArtifact,
    RetrainRecord,
    ViolationWindow,
    handle_drift,
)
from .network import forward
from .plant import (
    BASELINE_INPUTS,
    CHANNEL_NAMES,
    INTERNAL_DT,
    SUBSTEPS,
    PlantInputs,
    PlantParams,
    channel_values,
    default_initial_state,
    simulate_experiment,
    step as plant_step,
)
from .structure import build_lag_matrix

KIND_STEP = "step"
KIND_RAMP = "ramp"


@dataclass(frozen=True)
class Disturbance:
    """One scripted valve degradation.

    ``magnitude`` multiplies the baseline opening: a step applies it at
    ``time_s``; a ramp walks the factor down from 1 at ``slope`` per second
    and holds once it reaches ``magnitude``.
    """

    time_s: int
    valve: int
    kind: str
    magnitude: float
    slope: float = 0.0

    def __post_init__(self):
        if self.kind not in (KIND_STEP, KIND_RAMP):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if not 0 <= self.valve <= 2:
            raise ValueError("valve id must be 0, 1 or 2")
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("magnitude fraction must lie in [0, 1]")
        if self.kind == KIND_RAMP and self.slope <= 0.0:
            raise ValueError("a ramp needs a positive slope")

    def factor(self, t: float) -> float:
        """Opening multiplier at scenario time ``t``."""
        if t < self.time_s:
            return 1.0
        if self.kind == KIND_STEP:
            return self.magnitude
        return max(self.magnitude, 1.0 - self.slope * (t - self.time_s))


@dataclass(frozen=True)
class ScenarioScript:
    """A replayable disturbance scenario."""

    id: str
    duration_s: int
    baseline: PlantInputs
    disturbances: tuple[Disturbance, ...]
    drift_source_identified: bool

    def __post_init__(self):
        if self.duration_s < 1:
            raise ValueError("duration must be at least 1 s")
        for d in self.disturbances:
            if not 0 <= d.time_s <= self.duration_s:
                raise ValueError("disturbance time outside the run")
            if d.magnitude * self.baseline.v_o[d.valve] > 1.0:
                raise ValueError("disturbance pushes an opening above 1")

    def input_row(self) -> np.ndarray:
        """The exogenous inputs (Q_g, P_pump) the twin sees at every step."""
        return np.concatenate([self.baseline.Q_g, [self.baseline.P_pump]])

    def valve_openings(self, t: float) -> np.ndarray:
        v = self.baseline.v_o.copy()
        for d in self.disturbances:
            v[d.valve] = v[d.valve] * d.factor(t)
        return v

    def onset(self) -> int | None:
        times = [d.time_s for d in self.disturbances]
        return min(times) if times else None


def scenario_library() -> dict[str, ScenarioScript]:
    """The three standard valve-degradation scenarios.

    All start from the baseline operating point ``BASELINE_INPUTS`` and
    disturb one well's production valve at t = 2700 s: scenario 1 halves
    CV101 in one step (cause identified), scenario 2 cuts CV102 by 75% with
    the cause unknown, so the twin waits for ``CognitiveConfig.wait_buffer``
    seconds of live data (5000 by default), and scenario 3 ramps CV103
    continuously from fully open down to 0.4 over 5000 s (cause identified).
    """
    return {
        "scenario1": ScenarioScript(
            id="scenario1", duration_s=10_000, baseline=BASELINE_INPUTS,
            disturbances=(Disturbance(2700, 0, KIND_STEP, 0.5),),
            drift_source_identified=True,
        ),
        "scenario2": ScenarioScript(
            id="scenario2", duration_s=12_000, baseline=BASELINE_INPUTS,
            disturbances=(Disturbance(2700, 1, KIND_STEP, 0.25),),
            drift_source_identified=False,
        ),
        "scenario3": ScenarioScript(
            id="scenario3", duration_s=10_000, baseline=BASELINE_INPUTS,
            disturbances=(Disturbance(2700, 2, KIND_RAMP, 0.4, slope=0.6 / 5000.0),),
            drift_source_identified=True,
        ),
    }


@dataclass(frozen=True)
class SilLog:
    """Complete per-step record of one scenario replay.

    ``write_log`` stores ``truth``, ``predicted``, ``lower``, ``upper`` and
    ``monitored``, and ``meta.json`` the fields before and after them.
    ``static_pred`` is not stored: ``read_log`` recomputes it from ``truth``
    and the offline artifacts with ``static_predictions``. The rest is
    derived: ``t``, ``U`` and ``v_o`` from ``script``, ``indicator`` from
    ``truth``, the band and ``monitored``, and ``Z`` from ``indicator``,
    ``config`` and the retrain steps of ``events``.
    """

    script: ScenarioScript
    config: CognitiveConfig
    seed: int
    channels: tuple[str, ...]
    truth: np.ndarray           # (n, C) plant measurements
    predicted: np.ndarray       # (n, C) twin point predictions (nan in warmup)
    lower: np.ndarray
    upper: np.ndarray
    static_pred: np.ndarray     # (n, C) frozen offline model predictions
    monitored: np.ndarray       # (n,) bool
    events: tuple[DriftEvent, ...]
    # what each retrain did, one record per channel, in retrain order
    retrain_records: tuple[tuple[RetrainRecord, ...], ...] = ()

    @property
    def n_steps(self) -> int:
        return len(self.truth)

    @property
    def indicator(self) -> np.ndarray:
        """(n, C) int8: 1 where a monitored measurement lies outside [lower,
        upper], boundary inclusive and a NaN counting as outside, as the
        twin checks it; 0 on the rows it did not monitor."""
        inside = (self.lower <= self.truth) & (self.truth <= self.upper)
        return (~inside & self.monitored[:, None]).astype(np.int8)

    @cached_property
    def Z(self) -> np.ndarray:
        """(n, C) violation counts after each step: the twin's
        ``ViolationWindow`` replayed over the monitored rows of
        ``indicator``, and reset after each retrain step, as the twin's
        window is."""
        window = ViolationWindow(self.config, len(self.channels))
        retrains = set(self.retrain_steps())
        z = np.zeros(self.truth.shape, dtype=window.Z.dtype)
        for i, (violated, monitored) in enumerate(
                zip(self.indicator.astype(bool), self.monitored)):
            if monitored:
                window.push(violated)
            z[i] = window.Z
            if i + 1 in retrains:       # row i is second i + 1
                window.reset()
        return z

    @property
    def t(self) -> np.ndarray:
        """(n,) scenario seconds, 1 to n."""
        return np.arange(1.0, self.n_steps + 1.0)

    @property
    def U(self) -> np.ndarray:
        """(n, 4) exogenous inputs, a read-only view of the script's row."""
        return np.broadcast_to(self.script.input_row(), (self.n_steps, 4))

    @property
    def v_o(self) -> np.ndarray:
        """(n, 3) valve openings applied at each second."""
        return np.array([self.script.valve_openings(t) for t in self.t]).reshape(-1, 3)

    def retrain_steps(self) -> tuple[int, ...]:
        return tuple(
            e.retrain_step for e in self.events if e.retrain_step is not None
        )


def _slope_rows(script: ScenarioScript, t_now: float) -> np.ndarray:
    """Eight valve-opening rows spanning the remaining scripted drift."""
    now = script.valve_openings(t_now)
    end = script.valve_openings(script.duration_s)
    return np.linspace(now, end, 8)


def static_predictions(script: ScenarioScript, artifacts: dict[str, OfflineArtifact],
                       channels: tuple[str, ...], truth: np.ndarray) -> np.ndarray:
    """(n, C) predictions of each channel's frozen offline model on the
    measured history ``truth``, NaN before the deepest lag of any channel.
    One matmul per regressor row, as in the twin's stacked step, keeps them
    bit-identical to the twin's until it retrains."""
    n = len(truth)
    static_pred = np.full(truth.shape, np.nan)
    rows = np.arange(max(artifacts[c].layout.max_lag for c in channels), n)
    if len(rows):
        u_row = script.input_row()
        U = np.broadcast_to(u_row, (n, len(u_row)))
        for j, c in enumerate(channels):
            art = artifacts[c]
            X, _, _ = build_lag_matrix(truth[:, j], U, art.layout, None, rows)
            xn = art.norm.normalize_regressors(X, art.layout)
            pn = forward(art.map_theta, art.spec, xn[:, None, :])[:, 0]
            static_pred[rows, j] = art.norm.denormalize_target(pn)
    return static_pred


def run_scenario(
    script: ScenarioScript,
    artifacts: dict[str, OfflineArtifact],
    config: CognitiveConfig,
    *,
    params: PlantParams | None = None,
    seed: int = 0,
    warmup_s: float = 200.0,
    retrain_experiments: int = 40,
    retrain_hold: int = 60,
) -> SilLog:
    """Replay one scenario at 1 Hz and return the full log.

    The plant settles for ``warmup_s`` unlogged seconds at the baseline before
    scenario time starts. Each drift episode is decided here, by the script's
    cause: an identified drift retrains at its detection step on data that
    ``handle_drift`` generates from the live plant state; an unknown one
    buffers live samples from the next step on and retrains on them at the
    first step after detection at which the buffer holds
    ``config.wait_buffer`` rows. Each retrain completes one ``DriftEvent``;
    an episode still waiting when the run ends is logged with no retrain
    step (truncated). Triggers during a wait are ignored.
    """
    params = params if params is not None else PlantParams()

    settle = simulate_experiment(
        script.baseline, warmup_s, params, default_initial_state(params)
    )
    state = settle.final_state

    twin = CognitiveTwin(artifacts, config)
    channels = twin.channels
    for c in channels:
        if c not in CHANNEL_NAMES:
            raise ValueError(f"harness channels must be plant channels, got {c!r}")
    cols = [CHANNEL_NAMES.index(c) for c in channels]

    n = script.duration_s
    n_c = len(channels)
    truth = np.empty((n, n_c))
    predicted = np.full((n, n_c), np.nan)
    lower = np.full((n, n_c), np.nan)
    upper = np.full((n, n_c), np.nan)
    monitored = np.zeros(n, dtype=bool)

    # (detection step, retrain step) of every drift episode
    episodes: list[tuple[int, int | None]] = []
    records: list[tuple[RetrainRecord, ...]] = []
    detected: int | None = None     # detection step of the episode waiting
    u_row = script.input_row()

    for i in range(n):
        t = float(i + 1)
        inputs = replace(script.baseline, v_o=script.valve_openings(t))
        for _ in range(SUBSTEPS):
            state = plant_step(state, inputs, params, INTERNAL_DT)
        y_now = channel_values(state.m_g, state.m_l)[cols]
        truth[i] = y_now

        r = twin.step(u_row, y_now)
        predicted[i] = r.predicted
        lower[i] = r.lower
        upper[i] = r.upper
        monitored[i] = r.monitored

        data = None
        if r.trigger and detected is None:
            detected = int(t)
            if script.drift_source_identified:
                condition = DriftCondition(
                    params=params, initial=state,
                    v_o_rows=_slope_rows(script, t),
                )
                data = handle_drift(
                    condition, n_experiments=retrain_experiments,
                    hold=retrain_hold, seed=seed + len(episodes) + 1,
                )
            else:
                twin.begin_buffering()
        elif detected is not None and twin.buffer_size >= config.wait_buffer:
            data = twin.buffer_data()
        if data is not None:
            records.append(twin.retrain(data, seed=seed + len(episodes) + 1))
            episodes.append((detected, int(t)))
            detected = None

    if detected is not None:
        episodes.append((detected, None))   # truncated: run ended while waiting
    if script.drift_source_identified:
        cause, action = CAUSE_IDENTIFIED, ACTION_OFFLINE
    else:
        cause, action = CAUSE_UNKNOWN, ACTION_WAIT
    events = tuple(DriftEvent(detection, cause, action, retrain_step=retrain)
                   for detection, retrain in episodes)

    return SilLog(
        script=script, config=config, seed=seed, channels=channels,
        truth=truth, predicted=predicted, lower=lower, upper=upper,
        static_pred=static_predictions(script, artifacts, channels, truth),
        monitored=monitored, events=events, retrain_records=tuple(records),
    )


@dataclass(frozen=True)
class ChannelComparison:
    pre_mse_static: float
    pre_mse_twin: float
    post_mse_static: float
    post_mse_twin: float
    pre_violation_fraction: float
    post_violation_fraction: float


@dataclass(frozen=True)
class SilComparison:
    """Static-vs-adaptive drift metrics for one replay."""

    per_channel: dict[str, ChannelComparison]
    onset_step: int | None
    detection_step: int | None
    retrain_step: int | None
    time_to_trigger: int | None
    time_to_recovery: int | None
    pre_violation_fraction: float       # MH window before the first retrain
    post_violation_fraction: float      # MH window after it
    n_retrains: int


def _window_fraction(indicator: np.ndarray, monitored: np.ndarray,
                     rows: np.ndarray) -> float:
    rows = rows[monitored[rows]]
    if len(rows) == 0:
        return 0.0
    return float(indicator[rows].mean())


def compare_static_vs_dt(log: SilLog) -> SilComparison:
    """Error and violation metrics contrasting the frozen model with the twin.

    Pre/post MSE splits at the disturbance onset; violation fractions compare
    the MH-step windows each side of the first retrain.
    """
    onset = log.script.onset()
    detection = log.events[0].detection_step if log.events else None
    retrains = log.retrain_steps()
    retrain = retrains[0] if retrains else None
    mh = log.config.mh

    indicator = log.indicator
    rows_ok = log.monitored & np.isfinite(log.static_pred).all(axis=1)
    idx = np.arange(log.n_steps)
    pre = idx + 1 < (np.inf if onset is None else onset)   # row i is second i + 1
    pre_rows, post_rows = idx[rows_ok & pre], idx[rows_ok & ~pre]
    if retrain is None:
        pre_w = post_w = idx[:0]
    else:
        r = retrain - 1        # row index of the retrain step
        pre_w = idx[max(0, r - mh + 1): r + 1]
        post_w = idx[r + 1: r + 1 + mh]

    per_channel: dict[str, ChannelComparison] = {}
    for j, c in enumerate(log.channels):
        def mse(rows, pred):
            if len(rows) == 0:
                return float("nan")
            d = pred[rows, j] - log.truth[rows, j]
            return float(np.mean(d * d))

        per_channel[c] = ChannelComparison(
            pre_mse_static=mse(pre_rows, log.static_pred),
            pre_mse_twin=mse(pre_rows, log.predicted),
            post_mse_static=mse(post_rows, log.static_pred),
            post_mse_twin=mse(post_rows, log.predicted),
            pre_violation_fraction=_window_fraction(
                indicator[:, j], log.monitored, pre_w),
            post_violation_fraction=_window_fraction(
                indicator[:, j], log.monitored, post_w),
        )

    joint = indicator.mean(axis=1)
    return SilComparison(
        per_channel=per_channel,
        onset_step=onset,
        detection_step=detection,
        retrain_step=retrain,
        time_to_trigger=(
            detection - onset
            if detection is not None and onset is not None else None
        ),
        time_to_recovery=(
            retrain - detection
            if retrain is not None and detection is not None else None
        ),
        pre_violation_fraction=_window_fraction(joint, log.monitored, pre_w),
        post_violation_fraction=_window_fraction(joint, log.monitored, post_w),
        n_retrains=len(retrains),
    )


def events_jsonl(events: tuple[DriftEvent, ...]) -> str:
    """One sorted-key JSON line per drift event, with its retrain status."""
    return "".join(
        json.dumps({
            **asdict(e),
            "status": "completed" if e.retrain_step is not None else "truncated",
        }, sort_keys=True) + "\n"
        for e in events
    )


def emit_report(
    log: SilLog, out_dir: str | Path
) -> tuple[list[Path], SilComparison | None]:
    """Write channel CSVs, an event log and a summary to ``out_dir``.

    Output is byte-stable for a given log: fixed column order, full-precision
    decimal floats, sorted JSON keys and no timestamps, so re-emitting the
    same log is idempotent. Returns the written paths and the comparison the
    summary holds (None for a log with no steps).
    """
    out = Path(out_dir)
    indicator = log.indicator
    written = [
        write_csv(
            out / "channels" / f"{c}.csv",
            ("t", "measured", "predicted", "lower", "upper", "static",
             "indicator", "Z"),
            zip(log.t, log.truth[:, j], log.predicted[:, j], log.lower[:, j],
                log.upper[:, j], log.static_pred[:, j], indicator[:, j],
                log.Z[:, j]),
        )
        for j, c in enumerate(log.channels)
    ]
    written.append(write_text(out / "events.jsonl", events_jsonl(log.events)))
    comparison = compare_static_vs_dt(log) if log.n_steps else None
    written.append(write_json(out / "summary.json", {
        "scenario": log.script.id,
        "duration_s": log.script.duration_s,
        "seed": log.seed,
        "channels": log.channels,
        "config": asdict(log.config),
        "n_events": len(log.events),
        "n_retrains": len(log.retrain_steps()),
        "metrics": None if comparison is None else asdict(comparison),
    }))
    return written, comparison


# the SilLog fields stored one .npy each; meta.json holds the rest but
# static_pred, which read_log recomputes
LOG_ARRAYS = ("truth", "predicted", "lower", "upper", "monitored")


def write_log(log: SilLog, out_dir: str | Path) -> list[Path]:
    """Store a log exactly: one .npy per stored array plus ``meta.json``."""
    out = Path(out_dir)
    return [
        *(write_array(out / f"{k}.npy", getattr(log, k)) for k in LOG_ARRAYS),
        write_json(out / "meta.json", {
            "script": asdict(log.script),
            "config": asdict(log.config),
            "seed": log.seed,
            "channels": log.channels,
            "events": [asdict(e) for e in log.events],
            "retrain_records": [[asdict(r) for r in rs] for rs in log.retrain_records],
        }),
    ]


def _without(doc: dict, retired: str) -> dict:
    """``doc`` without a key that older logs stored and logs no longer do."""
    return {k: v for k, v in doc.items() if k != retired}


def read_log(in_dir: str | Path, artifacts: dict[str, OfflineArtifact]) -> SilLog:
    """The log that :func:`write_log` stored in ``in_dir``, its static
    predictions recomputed from the offline ``artifacts`` of its channels.
    A ``meta.json`` without retrain records reads back with none; one that
    still carries a script's ``wait_buffer`` or an event's
    ``post_retrain_z`` reads back without them. Older logs' ``t``, ``v_o``,
    ``U``, ``indicator``, ``Z`` and ``static_pred`` files are not read."""
    src = Path(in_dir)
    meta = read_json(src / "meta.json")
    s = _without(meta["script"], "wait_buffer")
    script = ScenarioScript(**{
        **s,
        "baseline": PlantInputs(**s["baseline"]),
        "disturbances": tuple(Disturbance(**e) for e in s["disturbances"]),
    })
    channels = tuple(meta["channels"])
    arrays = {k: read_array(src / f"{k}.npy") for k in LOG_ARRAYS}
    return SilLog(
        script=script,
        config=CognitiveConfig(**meta["config"]),
        seed=meta["seed"],
        channels=channels,
        events=tuple(DriftEvent(**_without(e, "post_retrain_z"))
                     for e in meta["events"]),
        retrain_records=tuple(
            tuple(RetrainRecord(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in r.items()}) for r in rs)
            for rs in meta.get("retrain_records", ())
        ),
        static_pred=static_predictions(script, artifacts, channels,
                                       arrays["truth"]),
        **arrays,
    )
