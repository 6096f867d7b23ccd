"""The three workloads: identify, monitor and drift.

Each is a closed loop: one caller in one process starts the next operation
when the previous one has returned. An operation is one offline pipeline run
(identify), one twin step (monitor) or one scenario replay (drift). In a
traced run, operations alternate between untraced and traced so the two can
be compared within one process.
"""

from __future__ import annotations

import json
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gaslift_twin import pipeline, sil
from gaslift_twin.artifacts import StageStore
from gaslift_twin.cognitive import CognitiveConfig, CognitiveTwin
from gaslift_twin.config import Paths, parse_config
from gaslift_twin.errors import GasLiftError
from gaslift_twin.structure import NarxLayout

import hostspeed
import layers
import twins
from stats import median
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    plain_s: list[float] = field(default_factory=list)    # untraced operations
    plain_rates: list[float] = field(default_factory=list)  # per untraced call, 1/s
    traced_s: list[float] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)  # hostspeed kernel
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    report: list[tuple[str, float, str]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.plain_s) + len(self.traced_s) + self.failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def run_setup(out: Outcome, setup):
    """Run ``setup`` SETUP_REPS times, timing each; return the last result."""
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = setup()
        out.setup_s.append(time.perf_counter() - t0)
    return state


def run_ops(out: Outcome, seconds: float, op, tracer: Tracer | None) -> None:
    """Call ``op(k, tracer_or_None)`` back to back for about ``seconds``.

    ``op`` returns the durations of the operations it timed. A new call
    starts while the run, counting half a mean call more, stays within
    ``seconds``, so the run ends as close to ``seconds`` as whole calls
    allow. With a tracer every second call is traced, and the loop runs
    until both kinds have been called at least once. A traced call during
    which an exception passed through a wrapper, even one the program
    caught, counts its operations as failed. After each call the hostspeed
    kernel runs for a tenth of the call's time.
    """
    kernel = hostspeed.Kernel()
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        t0 = time.perf_counter()
        try:
            durations = op(k, tracer if traced else None)
        except Exception:
            out.failed += 1
            traceback.print_exc()
        else:
            raised = traced and any(span[5] is not None
                                    for span in tracer.spans[first_span:])
            if raised:
                out.failed += len(durations)
            elif traced:
                out.traced_s.extend(durations)
            else:
                out.plain_s.extend(durations)
                out.plain_rates.append(len(durations) / sum(durations))
        hostspeed.calibrate(kernel, out.calibration_s, time.perf_counter() - t0)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k / 2 >= seconds and (tracer is None or k >= 2):
            return


# ------------------------------------------------------------------ identify

IDENTIFY_CFG = HERE / "identify.cfg"
REFERENCE = HERE / "reference.json"
QUIET_PLATEAUS = 6
QUIET_HOLD = 30


def _cognitive_config(cfg) -> CognitiveConfig:
    # RunConfig.cognitive_config() passes calibration/margin, which
    # CognitiveConfig does not accept, so the fields are copied here
    c = cfg.cognitive
    return CognitiveConfig(
        mh=c.mh, a_offset=c.a_offset, ct=c.ct, confidence=c.confidence,
        wait_buffer=c.wait_buffer, retrain_epochs=c.retrain_epochs,
        retrain_lr_factor=c.retrain_lr_factor,
    )


def quiet_violation_frac(twin: CognitiveTwin, Y: np.ndarray, U: np.ndarray) -> float:
    """Share of monitored channel-steps whose measurement left the band."""
    violations = monitored = 0
    for u, y in zip(U, Y):
        r = twin.step(u, y)
        if r.monitored:
            violations += int(r.indicator.sum())
            monitored += len(r.indicator)
    return violations / monitored


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def identify(seed: int, seconds: float, workdir: Path, tracer: Tracer | None) -> Outcome:
    """Offline pipeline gen-data -> reduce under the pinned identify.cfg.

    The workload seed picks the LHS plan of the quiet stream that the
    reduced twin is validated on.
    """
    out = Outcome()
    reference = json.loads(REFERENCE.read_text())

    def setup():
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        cfg_path = workdir / "identify.cfg"
        cfg_path.write_text(IDENTIFY_CFG.read_text())
        cfg = parse_config(cfg_path)
        Y, U = twins.record_stream(seed, QUIET_PLATEAUS, QUIET_HOLD,
                                   cfg.plant_params())
        return cfg, Y, U

    cfg, Yq, Uq = run_setup(out, setup)
    sizes_mb: list[float] = []
    quiet: list[float] = []

    def op(k: int, tr: Tracer | None) -> list[float]:
        root = workdir / f"op{k}"
        run_cfg = replace(cfg, paths=Paths(
            data_dir=str(root / "data"), artifact_dir=str(root / "artifacts"),
            report_dir=str(root / "reports"),
        ))
        results = {}
        try:
            with layers.installed(tr):
                t0 = time.perf_counter()
                for stage in layers.STAGES:
                    if tr is None:
                        results[stage] = pipeline.run_stage(run_cfg, stage)
                    else:
                        results[stage] = tr.call(f"pipeline.{stage}",
                                                 pipeline.run_stage, run_cfg, stage)
                total = time.perf_counter() - t0
            _check_identify(out, run_cfg, results, reference)
            if not quiet:
                artifacts, _ = pipeline.load_offline_artifacts(run_cfg)
                twin = CognitiveTwin(artifacts, _cognitive_config(run_cfg))
                quiet.append(quiet_violation_frac(twin, Yq, Uq))
            sizes_mb.append(_tree_bytes(root) / 1e6)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return [total]

    run_ops(out, seconds, op, tracer)
    shutil.rmtree(workdir, ignore_errors=True)

    if sizes_mb:
        out.report.append(("artifact_mb", median(sizes_mb), "MB"))
    if quiet:
        out.report.append(("quiet_violation_frac", quiet[0], "frac"))
    return out


def _check_identify(out, cfg, results, reference) -> None:
    fingerprint = results["gen-data"]["fingerprint"]
    out.check("gen-data fingerprint equals reference",
              fingerprint == reference["gen_data_fingerprint"], fingerprint)
    stores = [(StageStore(cfg.paths.data_dir), "gen-data")]
    stores += [(StageStore(cfg.paths.artifact_dir), s) for s in layers.STAGES[1:]]
    for store, stage in stores:
        try:
            store.verify(stage, config_hash=cfg.stage_hash(stage))
            out.check(f"{stage} manifest verifies", True)
        except GasLiftError as exc:
            out.check(f"{stage} manifest verifies", False, str(exc))
    art = StageStore(cfg.paths.artifact_dir)
    best = json.loads((art.stage_dir("tune") / "tune.json").read_text())["best"]
    arch = {"layer_sizes": best["layer_sizes"], "activations": best["activations"]}
    want = {"layer_sizes": reference["layer_sizes"],
            "activations": reference["activations"]}
    out.check("tune architecture equals reference", arch == want, json.dumps(arch))
    chosen = results["reduce"]["chosen"]
    out.check("reduce sizes equal reference", chosen == reference["chosen"],
              json.dumps(chosen, sort_keys=True))


# ------------------------------------------------------------------- monitor

MONITOR_PLATEAUS = 12
MONITOR_HOLD = 30
MONITOR_LAYOUT = NarxLayout(n_b=5, n_a=1, n_u=4)     # width 9, as tune picks
MONITOR_HIDDEN = (30, 30)                           # the size identify tunes
MONITOR_ACTIVATIONS = ("tanh", "relu")
MONITOR_MEMBERS = 16                                # reduce keeps 5 to 16
MONITOR_EPOCHS = 30
MONITOR_BLOCK = 256        # steps per operation call


def monitor(seed: int, seconds: float, workdir: Path, tracer: Tracer | None) -> Outcome:
    """Replay a recorded stream back to back through CognitiveTwin.step.

    Triggers are counted and never acted on, so every step does the same
    work. The workload seed picks the stream's LHS plan and the fit.
    """
    out = Outcome()

    def setup():
        Y, U = twins.record_stream(seed, MONITOR_PLATEAUS, MONITOR_HOLD)
        artifacts = twins.build_artifacts(
            Y, U, MONITOR_HOLD, layout=MONITOR_LAYOUT, hidden=MONITOR_HIDDEN,
            activations=MONITOR_ACTIVATIONS, n_members=MONITOR_MEMBERS,
            spread=3.0, epochs=MONITOR_EPOCHS, seed=seed,
        )
        return CognitiveTwin(artifacts, CognitiveConfig()), Y, U

    twin, Y, U = run_setup(out, setup)
    n = len(Y)
    counts = {"monitored": 0, "bad_band": 0, "triggers": 0}

    def op(k: int, tr: Tracer | None) -> list[float]:
        durations = []
        with layers.installed(tr):
            for i in range(k * MONITOR_BLOCK, (k + 1) * MONITOR_BLOCK):
                j = i % n
                t0 = time.perf_counter()
                r = twin.step(U[j], Y[j])
                durations.append(time.perf_counter() - t0)
                if r.monitored:
                    counts["monitored"] += 1
                    ok = (np.isfinite(r.lower).all() and np.isfinite(r.upper).all()
                          and (r.lower <= r.upper).all())
                    counts["bad_band"] += not ok
                    counts["triggers"] += bool(r.trigger)
        return durations

    run_ops(out, seconds, op, tracer)
    out.check("every monitored step has finite bounds with lower <= upper",
              counts["monitored"] > 0 and counts["bad_band"] == 0,
              f"{counts['bad_band']} of {counts['monitored']} steps bad")
    out.report.append(("trigger_steps", counts["triggers"], "count"))
    return out


# --------------------------------------------------------------------- drift

DRIFT_TWIN_SEED = 7        # the twin is fixed; the workload seed drives the replay
DRIFT_PLATEAUS = 20
DRIFT_HOLD = 30
DRIFT_LAYOUT = NarxLayout(n_b=2, n_a=1, n_u=4)       # width 6
DRIFT_HIDDEN = (32,)
DRIFT_MEMBERS = 8
# band half-width in residual standard deviations and the fine-tuning rate
# factor: together they let the retrained twin cover the stepped plant, so
# one retrain suffices, while the band stays narrow enough to catch the step
# (30 steps after onset). At 5, scenario seed 507 left the retrained band on
# five steps in a row and retrained twice; at 6, the worst of 110 seeds
# peaked at 0.86 of the band's half-width after the retrain.
DRIFT_SPREAD = 6.0
RETRAIN_LR_FACTOR = 0.5
DRIFT_EPOCHS = 150
DRIFT_DURATION = 300
DRIFT_ONSET = 120
DRIFT_WARMUP = 100.0
DRIFT_DETECT_BOUND = 60    # steps after onset by which the twin must trigger
# retraining batch of LHS experiments; with 10, some scenario seeds needed a
# second retrain
RETRAIN_EXPERIMENTS = 20
RETRAIN_HOLD = 40
# at most the early-stopping patience, so every retrain runs every epoch
RETRAIN_EPOCHS = 20


def drift_script() -> sil.ScenarioScript:
    """Scenario 1 (CV101 stepped to 0.5, cause identified), shortened."""
    base = sil.scenario_library()["scenario1"]
    (step,) = base.disturbances
    return replace(base, id="scenario1-short", duration_s=DRIFT_DURATION,
                   disturbances=(replace(step, time_s=DRIFT_ONSET),))


def drift(seed: int, seconds: float, workdir: Path, tracer: Tracer | None) -> Outcome:
    """sil.run_scenario on shortened scenario 1 with a small hand-built twin.

    The pipeline-built twin fails coverage on a quiet plant and would
    retrain every few steps, so a twin with a known-good band is built here.
    The workload seed is the scenario seed, which picks the retraining
    batch's LHS plan and split.
    """
    out = Outcome()
    config = CognitiveConfig(mh=50, ct=5, confidence=0.95,
                             retrain_epochs=RETRAIN_EPOCHS,
                             retrain_lr_factor=RETRAIN_LR_FACTOR)

    def setup():
        Y, U = twins.record_stream(DRIFT_TWIN_SEED, DRIFT_PLATEAUS, DRIFT_HOLD)
        return twins.build_artifacts(
            Y, U, DRIFT_HOLD, layout=DRIFT_LAYOUT, hidden=DRIFT_HIDDEN,
            activations=("tanh",), n_members=DRIFT_MEMBERS, spread=DRIFT_SPREAD,
            epochs=DRIFT_EPOCHS, seed=DRIFT_TWIN_SEED,
        )

    artifacts = run_setup(out, setup)
    script = drift_script()
    retrain_s: list[float] = []
    delays: list[float] = []
    post: list[float] = []

    def op(k: int, tr: Tracer | None) -> list[float]:
        with Tracer("retrain-timer") as timer:
            timer.wrap(CognitiveTwin, "retrain", "retrain")
            with layers.installed(tr):
                t0 = time.perf_counter()
                log = sil.run_scenario(
                    script, artifacts, config, seed=seed, warmup_s=DRIFT_WARMUP,
                    retrain_experiments=RETRAIN_EXPERIMENTS,
                    retrain_hold=RETRAIN_HOLD,
                )
                total = time.perf_counter() - t0
        retrain_s.append(sum(end - start for _, _, _, start, end, _ in timer.spans))
        _check_drift(out, log, delays, post)
        return [total]

    run_ops(out, seconds, op, tracer)
    if retrain_s:
        out.report.append(("retrain_s", median(retrain_s), "s"))
    if delays:
        out.report.append(("detect_delay_steps", median(delays), "steps"))
    if post:
        out.report.append(("post_violation_frac", median(post), "frac"))
    return out


def _check_drift(out, log, delays, post) -> None:
    onset = log.script.onset()
    retrains = log.retrain_steps()
    detections = [e.detection_step for e in log.events]
    out.check("exactly one retrain", len(retrains) == 1, f"retrain steps {retrains}")
    out.check("no trigger before onset", all(d >= onset for d in detections),
              f"detections {detections}")
    first = detections[0] if detections else None
    out.check(f"detection within {DRIFT_DETECT_BOUND} steps of onset",
              first is not None and onset <= first <= onset + DRIFT_DETECT_BOUND,
              f"detection {first}, onset {onset}")
    comp = sil.compare_static_vs_dt(log)
    out.check("post-retrain violations below pre-retrain",
              comp.post_violation_fraction < comp.pre_violation_fraction,
              f"pre {comp.pre_violation_fraction:.4f}, "
              f"post {comp.post_violation_fraction:.4f}")
    if first is not None:
        delays.append(first - onset)
    post.append(comp.post_violation_fraction)


WORKLOADS = {"identify": identify, "monitor": monitor, "drift": drift}
