import dataclasses
import json
from dataclasses import asdict

import numpy as np
import pytest

from gaslift_twin import cognitive as cg
from gaslift_twin import network as nw
from gaslift_twin import sil
from gaslift_twin.artifacts import jsonable, write_array
from gaslift_twin.doe import TABLE_BOUNDS, build_input_sequence, lhs_sample
from gaslift_twin.plant import (
    CHANNEL_NAMES,
    SUBSTEPS,
    PlantInputs,
    PlantParams,
    default_initial_state,
    simulate_experiment,
    simulate_schedule,
)
from gaslift_twin.structure import NarxLayout, assemble_narx_dataset

BASELINE = PlantInputs(Q_g=np.array([3.0, 3.0, 3.0]), v_o=np.ones(3), P_pump=2.65)
MINI_CHANNELS = ("well1_mg", "well1_ml", "well3_ml")


@pytest.fixture(scope="module")
def mini_series():
    """States and inputs of a short experiment batch from the settled plant."""
    params = PlantParams()
    plan = lhs_sample(20, TABLE_BOUNDS, seed=11)
    sched = build_input_sequence(plan, 30.0)
    settle = simulate_experiment(BASELINE, 200.0, params,
                                 default_initial_state(params))
    traj = simulate_schedule(sched.Q_g, sched.v_o, sched.P_pump, sched.hold,
                             params, settle.final_state)
    return traj.states_matrix(), traj.inputs_matrix()


def fit_mini_twin(series, layouts, channels=MINI_CHANNELS):
    """Small fitted twin: linear nets on ``series``, one lag layout per
    channel, ensemble members spread around the fit by a few residual
    standard deviations."""
    Y, U = series
    arts = {}
    for c, layout in zip(channels, layouts):
        ds = assemble_narx_dataset(Y, U, 30, layout, seed=0)
        spec = nw.NetworkSpec((layout.width, 1), ("linear",), learning_rate=0.05,
                              epochs=150, batch_size=32, seed=0)
        res = nw.train_channel(ds[c], spec)
        Xn, yn = ds[c].normalized_split("train")
        resid = nw.forward(res.weights.theta, spec, Xn) - yn
        spread = 8.0 * max(float(resid.std()), 1e-6)
        offsets = np.array([-1.0, -0.4, 0.4, 1.0]) * spread
        members = np.tile(res.weights.theta, (4, 1))
        members[:, -1] += offsets
        arts[c] = cg.make_artifact(c, spec, layout, ds[c].norm,
                                   res.weights.theta, members)
    return arts


@pytest.fixture(scope="module")
def mini_artifacts(mini_series):
    return fit_mini_twin(mini_series, [NarxLayout(2, 1, 4)] * len(MINI_CHANNELS))


@pytest.fixture(scope="module")
def mixed_artifacts(mini_series):
    """Channels with different lag depths: the twin and the static model
    both start predicting at the deepest one."""
    return fit_mini_twin(mini_series, [NarxLayout(3, 2, 4), NarxLayout(2, 1, 4),
                                       NarxLayout(3, 1, 4)])


def quiet_script(duration=300):
    return sil.ScenarioScript(
        id="quiet", duration_s=duration, baseline=BASELINE,
        disturbances=(), drift_source_identified=True,
    )


def step_script(identified=True, magnitude=0.25, onset=100, duration=400,
                valve=0):
    return sil.ScenarioScript(
        id="mini-step", duration_s=duration, baseline=BASELINE,
        disturbances=(sil.Disturbance(onset, valve, sil.KIND_STEP, magnitude),),
        drift_source_identified=identified,
    )


def mini_config(**kwargs):
    defaults = dict(mh=50, ct=5, confidence=0.95, wait_buffer=80,
                    retrain_epochs=20)
    defaults.update(kwargs)
    return cg.CognitiveConfig(**defaults)


class TestDisturbance:
    def test_step_factor(self):
        d = sil.Disturbance(100, 0, sil.KIND_STEP, 0.5)
        assert d.factor(99.0) == 1.0
        assert d.factor(100.0) == 0.5
        assert d.factor(5000.0) == 0.5

    def test_ramp_factor_floors_at_magnitude(self):
        d = sil.Disturbance(100, 2, sil.KIND_RAMP, 0.4, slope=0.01)
        assert d.factor(50.0) == 1.0
        assert d.factor(100.0) == 1.0
        assert d.factor(130.0) == pytest.approx(0.7)
        assert d.factor(160.0) == pytest.approx(0.4)
        assert d.factor(1e6) == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            sil.Disturbance(0, 3, sil.KIND_STEP, 0.5)
        with pytest.raises(ValueError):
            sil.Disturbance(0, 0, "pulse", 0.5)
        with pytest.raises(ValueError):
            sil.Disturbance(0, 0, sil.KIND_RAMP, 0.4, slope=0.0)
        with pytest.raises(ValueError):
            sil.Disturbance(0, 0, sil.KIND_STEP, 1.5)


class TestScenarioLibrary:
    def test_scripts_present(self):
        lib = sil.scenario_library()
        assert set(lib) == {"scenario1", "scenario2", "scenario3"}

    def test_scenario1(self):
        s = sil.scenario_library()["scenario1"]
        assert s.duration_s == 10_000
        assert s.drift_source_identified
        (d,) = s.disturbances
        assert (d.time_s, d.valve, d.kind, d.magnitude) == (2700, 0, "step", 0.5)

    def test_scenario2(self):
        s = sil.scenario_library()["scenario2"]
        assert s.duration_s == 12_000
        assert not s.drift_source_identified
        (d,) = s.disturbances
        assert (d.time_s, d.valve, d.kind, d.magnitude) == (2700, 1, "step", 0.25)

    def test_scenario3(self):
        s = sil.scenario_library()["scenario3"]
        assert s.drift_source_identified
        (d,) = s.disturbances
        assert (d.time_s, d.valve, d.kind) == (2700, 2, "ramp")
        assert d.magnitude == pytest.approx(0.4)
        assert d.slope == pytest.approx(0.6 / 5000.0)
        # opening floors at 0.4 once the scripted drift has fully developed
        assert s.valve_openings(7700.0)[2] == pytest.approx(0.4)
        assert s.valve_openings(5200.0)[2] == pytest.approx(0.7)

    def test_common_baseline(self):
        for s in sil.scenario_library().values():
            assert s.baseline.Q_g.tolist() == [3.0, 3.0, 3.0]
            assert s.baseline.P_pump == 2.65
            assert s.baseline.v_o.tolist() == [1.0, 1.0, 1.0]
            assert s.onset() == 2700

    def test_script_validation(self):
        with pytest.raises(ValueError):
            sil.ScenarioScript(
                id="bad", duration_s=100, baseline=BASELINE,
                disturbances=(sil.Disturbance(200, 0, sil.KIND_STEP, 0.5),),
                drift_source_identified=True,
            )


class TestRunScenario:
    def test_quiet_run_never_triggers(self, mini_artifacts):
        self.check_quiet_run(mini_artifacts)

    def test_quiet_run_never_triggers_with_mixed_layouts(self, mixed_artifacts):
        self.check_quiet_run(mixed_artifacts)

    @staticmethod
    def check_quiet_run(artifacts):
        log = sil.run_scenario(quiet_script(), artifacts, mini_config(), seed=0)
        assert log.events == ()
        assert log.retrain_steps() == ()
        assert log.indicator.sum() == 0
        # the twin never retrained, so its point predictions are the static
        # model's, bit for bit
        assert np.array_equal(log.predicted, log.static_pred, equal_nan=True)

    def test_step_equals_predict_with_mixed_layouts_and_member_counts(
        self, mini_series, step_matches_predict
    ):
        # well1_mg and well3_ml share a layout but not a member count, so
        # their group's stack carries padding rows
        arts = fit_mini_twin(mini_series, [NarxLayout(2, 1, 4), NarxLayout(3, 2, 4),
                                           NarxLayout(2, 1, 4)])
        counts = {"well1_mg": 4, "well1_ml": 3, "well3_ml": 2}
        arts = {c: cg.make_artifact(c, a.spec, a.layout, a.norm, a.map_theta,
                                    a.members[: counts[c]])
                for c, a in arts.items()}
        twin = cg.CognitiveTwin(arts, mini_config())
        Y, U = mini_series
        cols = [CHANNEL_NAMES.index(c) for c in MINI_CHANNELS]
        assert step_matches_predict(twin, Y[:200, cols], U[:200]) == 197

    def test_log_shape_and_cadence(self, mini_artifacts):
        log = sil.run_scenario(quiet_script(120), mini_artifacts, mini_config(),
                               seed=0)
        assert log.n_steps == 120
        assert log.t.tolist() == list(range(1, 121))
        assert (log.U == [3.0, 3.0, 3.0, 2.65]).all()
        assert log.truth.shape == (120, len(MINI_CHANNELS))
        assert log.monitored[:2].tolist() == [False, False]
        assert log.monitored[2:].all()

    def test_identified_step_detect_and_retrain(self, mini_artifacts):
        log = sil.run_scenario(
            step_script(identified=True), mini_artifacts, mini_config(),
            seed=3, retrain_experiments=4, retrain_hold=40,
        )
        assert len(log.events) == 1
        ev = log.events[0]
        assert ev.cause == cg.CAUSE_IDENTIFIED
        assert ev.action == cg.ACTION_OFFLINE
        assert ev.retrain_step == ev.detection_step
        assert 100 < ev.detection_step <= 200
        comp = sil.compare_static_vs_dt(log)
        assert comp.time_to_trigger == ev.detection_step - 100
        assert comp.post_violation_fraction < comp.pre_violation_fraction
        ml = comp.per_channel["well1_ml"]
        assert ml.post_mse_twin < ml.post_mse_static

    def test_unknown_step_waits_for_buffer(self, mini_artifacts):
        log = sil.run_scenario(
            step_script(identified=False), mini_artifacts, mini_config(),
            seed=4,
        )
        completed = [e for e in log.events if e.retrain_step is not None]
        assert len(completed) == 1
        ev = completed[0]
        assert ev.cause == cg.CAUSE_UNKNOWN
        assert ev.action == cg.ACTION_WAIT
        assert ev.retrain_step == ev.detection_step + 80

    def test_truncated_event_when_buffer_never_fills(self, mini_artifacts):
        script = step_script(identified=False, duration=160)
        log = sil.run_scenario(script, mini_artifacts,
                               mini_config(wait_buffer=10_000), seed=5)
        assert len(log.events) == 1
        assert log.events[0].retrain_step is None
        assert log.retrain_steps() == ()

    def test_config_wait_reaches_scenario2(self, mini_series):
        # scenario 2, the library's unknown-cause scenario, shortened and
        # watched on the well whose valve it cuts; its wait is the config's,
        # and a batch of 4 lets the twin fine-tune on the 10 rows it buffers
        base = sil.scenario_library()["scenario2"]
        (cut,) = base.disturbances
        script = dataclasses.replace(base, duration_s=300, disturbances=(
            dataclasses.replace(cut, time_s=100),))
        well2 = fit_mini_twin(mini_series, [NarxLayout(2, 1, 4)] * 2,
                              channels=("well2_mg", "well2_ml"))
        artifacts = {
            c: cg.make_artifact(c, dataclasses.replace(a.spec, batch_size=4),
                                a.layout, a.norm, a.map_theta, a.members)
            for c, a in well2.items()
        }
        log = sil.run_scenario(script, artifacts, mini_config(wait_buffer=10),
                               seed=2)
        ev = log.events[0]
        assert (ev.cause, ev.action) == (cg.CAUSE_UNKNOWN, cg.ACTION_WAIT)
        assert ev.detection_step >= 100
        assert ev.retrain_step == ev.detection_step + 10
        assert log.config.wait_buffer == 10

    def test_disturbance_applied_exactly(self, mini_artifacts, monkeypatch):
        # the openings the plant received, substep by substep
        applied = []
        plant_step = sil.plant_step

        def recording_step(state, inputs, params, dt):
            applied.append(inputs.v_o.copy())
            return plant_step(state, inputs, params, dt)

        monkeypatch.setattr(sil, "plant_step", recording_step)
        log = sil.run_scenario(step_script(), mini_artifacts, mini_config(),
                               seed=6)
        v_o = np.array(applied).reshape(log.n_steps, SUBSTEPS, 3)
        assert (v_o == v_o[:, :1]).all()    # held over each second
        v_o = v_o[:, 0]
        assert (v_o[:99] == 1.0).all()
        # row 99 is t=100 s, the first logged second at which the step holds
        assert (v_o[99:, 0] == 0.25).all()
        assert (v_o[99:, 1:] == 1.0).all()
        # the log derives the same openings from its script
        assert log.v_o.tobytes() == v_o.tobytes()

    def test_deterministic_replay(self, mini_artifacts):
        kwargs = dict(seed=7, retrain_experiments=4, retrain_hold=40)
        a = sil.run_scenario(step_script(), mini_artifacts, mini_config(), **kwargs)
        b = sil.run_scenario(step_script(), mini_artifacts, mini_config(), **kwargs)
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.predicted, b.predicted, equal_nan=True)
        assert np.array_equal(a.lower, b.lower, equal_nan=True)
        assert np.array_equal(a.Z, b.Z)
        assert a.events == b.events

    def test_requires_plant_channels(self, mini_artifacts):
        art = next(iter(mini_artifacts.values()))
        bad = {"c0": cg.make_artifact("c0", art.spec, art.layout, art.norm,
                                      art.map_theta, art.members)}
        with pytest.raises(ValueError):
            sil.run_scenario(quiet_script(10), bad, mini_config(), seed=0)


class TestCompare:
    def test_quiet_log_metrics(self, mini_artifacts):
        log = sil.run_scenario(quiet_script(), mini_artifacts, mini_config(),
                               seed=0)
        comp = sil.compare_static_vs_dt(log)
        assert comp.onset_step is None
        assert comp.detection_step is None
        assert comp.time_to_trigger is None
        assert comp.n_retrains == 0
        for m in comp.per_channel.values():
            assert m.pre_mse_static == m.pre_mse_twin
            assert np.isnan(m.post_mse_static)

    def test_pre_disturbance_metrics_equal(self, mini_artifacts):
        log = sil.run_scenario(
            step_script(identified=True), mini_artifacts, mini_config(),
            seed=3, retrain_experiments=4, retrain_hold=40,
        )
        comp = sil.compare_static_vs_dt(log)
        for m in comp.per_channel.values():
            assert m.pre_mse_static == m.pre_mse_twin


def recorded_run(monkeypatch, script, artifacts, config, **kwargs):
    """A replay and the ``StepResult`` of every twin step it took."""
    results = []
    step = cg.CognitiveTwin.step

    def recording_step(twin, u_now, y_now):
        results.append(step(twin, u_now, y_now))
        return results[-1]

    monkeypatch.setattr(cg.CognitiveTwin, "step", recording_step)
    return sil.run_scenario(script, artifacts, config, **kwargs), results


def assert_derived_as_recorded(log, results):
    """The log's indicator and counts are what the twin gave, row by row."""
    assert len(results) == log.n_steps
    assert log.indicator.dtype == np.int8
    assert log.indicator.shape == log.Z.shape == log.truth.shape
    assert log.Z.dtype.kind == "i"
    for i, r in enumerate(results):
        assert log.indicator[i].tolist() == r.indicator.tolist(), i
        assert log.Z[i].tolist() == r.Z.tolist(), i


class TestDerivedArrays:
    @pytest.mark.parametrize("identified, a_offset", [
        (True, 1),          # detect and retrain at once
        (False, 1),         # the unknown cause waits for its buffer
        (True, 0),
        (True, 3),          # the two newest flags wait outside the count
    ])
    def test_step_scenario(self, mini_artifacts, monkeypatch, identified, a_offset):
        log, results = recorded_run(
            monkeypatch, step_script(identified=identified), mini_artifacts,
            mini_config(a_offset=a_offset), seed=3, retrain_experiments=4,
            retrain_hold=40,
        )
        assert len(log.retrain_steps()) == 1
        assert log.Z.max() >= log.config.ct
        assert_derived_as_recorded(log, results)

    def test_tight_band_with_many_retrains(self, mini_artifacts, monkeypatch):
        # members pulled in towards the point weights give a band that the
        # plant leaves at almost every step, so the twin retrains every ct
        # steps; each retrain resets the window mid-run
        tight = {c: cg.make_artifact(c, a.spec, a.layout, a.norm, a.map_theta,
                                     a.map_theta + 0.05 * (a.members - a.map_theta))
                 for c, a in mini_artifacts.items()}
        log, results = recorded_run(
            monkeypatch, step_script(duration=150), tight, mini_config(),
            seed=3, retrain_experiments=4, retrain_hold=40,
        )
        assert len(log.retrain_steps()) >= 10
        assert_derived_as_recorded(log, results)

    def test_empty_log(self):
        assert_derived_as_recorded(empty_log(), [])

    def test_nan_and_boundaries(self):
        # boundary inclusive, a NaN measurement or bound counts as outside,
        # and an unmonitored row never does
        nan = np.nan
        log = dataclasses.replace(
            empty_log(),
            truth=np.array([[1.0, nan], [1.0, 2.0], [3.0, 2.0], [1.0, 9.0]]),
            lower=np.array([[nan, nan], [1.0, nan], [1.0, 1.0], [1.0, 1.0]]),
            upper=np.array([[nan, nan], [2.0, 2.0], [2.0, 2.0], [1.0, 1.0]]),
            predicted=np.full((4, 2), nan), static_pred=np.full((4, 2), nan),
            monitored=np.array([False, True, True, True]),
        )
        assert log.indicator.tolist() == [[0, 0], [0, 1], [1, 0], [0, 1]]
        assert log.Z.tolist() == [[0, 0], [0, 1], [1, 1], [1, 2]]


def assert_arrays_equal(got, want):
    """Every stored, recomputed and derived array of two logs, bit for bit."""
    for k in (*sil.LOG_ARRAYS, "static_pred", "indicator", "Z", "t", "v_o", "U"):
        a, b = getattr(want, k), getattr(got, k)
        assert (b.dtype, b.shape) == (a.dtype, a.shape), k
        assert b.tobytes() == a.tobytes(), k


def write_older_log(log, out_dir, extra=()):
    """``log`` as the harness stored it while it kept eight arrays: the
    stored ones, the static predictions, the int8 indicator and the counts
    in the smallest signed integer type holding MH; plus the ``extra``
    derived arrays, one .npy each."""
    sil.write_log(log, out_dir)
    z_type = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                  if np.iinfo(t).max >= log.config.mh)
    older = {"static_pred": log.static_pred, "indicator": log.indicator,
             "Z": log.Z.astype(z_type)}
    for k in extra:
        older[k] = np.array(getattr(log, k))
    for k, a in older.items():
        write_array(out_dir / f"{k}.npy", a)


def empty_log():
    script = quiet_script(1)
    cfg = mini_config()
    n_c = 2
    shape = (0, n_c)
    return sil.SilLog(
        script=script, config=cfg, seed=0, channels=("well1_mg", "well1_ml"),
        truth=np.empty(shape), predicted=np.empty(shape),
        lower=np.empty(shape), upper=np.empty(shape),
        static_pred=np.empty(shape), monitored=np.empty(0, dtype=bool),
        events=(),
    )


class TestEmitReport:
    def test_files_and_idempotence(self, mini_artifacts, tmp_path):
        log = sil.run_scenario(
            step_script(identified=False), mini_artifacts, mini_config(), seed=4
        )
        first, comparison = sil.emit_report(log, tmp_path)
        blobs = {p: p.read_bytes() for p in first}
        again, _ = sil.emit_report(log, tmp_path)
        assert first == again
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert comparison == sil.compare_static_vs_dt(log)
        assert summary["metrics"] == jsonable(asdict(comparison))
        for p in again:
            assert p.read_bytes() == blobs[p]

    def test_exactly_one_retrain_event_in_report(self, mini_artifacts, tmp_path):
        log = sil.run_scenario(
            step_script(identified=False), mini_artifacts, mini_config(), seed=4
        )
        sil.emit_report(log, tmp_path)
        events = [json.loads(line) for line in
                  (tmp_path / "events.jsonl").read_text().splitlines()]
        completed = [e for e in events if e["status"] == "completed"]
        assert len(completed) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_retrains"] == 1
        assert summary["scenario"] == "mini-step"

    def test_empty_log(self, tmp_path):
        files, comparison = sil.emit_report(empty_log(), tmp_path)
        assert comparison is None
        csvs = [p for p in files if p.suffix == ".csv"]
        assert len(csvs) == 2
        for p in csvs:
            assert p.read_text() == "t,measured,predicted,lower,upper,static,indicator,Z\n"
        assert (tmp_path / "events.jsonl").read_text() == ""
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["metrics"] is None

    def test_csv_columns_parse(self, mini_artifacts, tmp_path):
        log = sil.run_scenario(quiet_script(50), mini_artifacts, mini_config(),
                               seed=0)
        sil.emit_report(log, tmp_path)
        path = tmp_path / "channels" / "well1_ml.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "t,measured,predicted,lower,upper,static,indicator,Z"
        assert len(lines) == 51
        row = lines[10].split(",")
        assert float(row[0]) == 10.0
        measured = float(row[1])
        assert np.isfinite(measured)


class TestLogCodec:
    @pytest.mark.parametrize("replay", [True, False])
    def test_round_trip_is_exact(self, mini_artifacts, tmp_path, replay):
        if replay:
            log = sil.run_scenario(
                step_script(identified=True), mini_artifacts, mini_config(),
                seed=3, retrain_experiments=4, retrain_hold=40,
            )
            assert np.isnan(log.predicted[0]).all()
            assert log.events[0].retrain_step is not None
            (records,) = log.retrain_records
            assert [r.channel for r in records] == list(log.channels)
        else:
            log = empty_log()
        written = sil.write_log(log, tmp_path)
        assert sorted(p.name for p in written) == sorted([
            "truth.npy", "predicted.npy", "lower.npy", "upper.npy",
            "monitored.npy", "meta.json"])
        # strict JSON: no bare NaN or Infinity tokens
        json.loads((tmp_path / "meta.json").read_text(),
                   parse_constant=lambda c: pytest.fail(f"{c} in meta.json"))

        back = sil.read_log(tmp_path, mini_artifacts)
        assert_arrays_equal(back, log)
        assert back.indicator.dtype.kind == back.Z.dtype.kind == "i"
        assert back.monitored.dtype == bool
        assert back.script.drift_source_identified is True
        assert jsonable(asdict(back.script)) == jsonable(asdict(log.script))
        assert (back.config, back.seed, back.channels, back.events) == \
            (log.config, log.seed, log.channels, log.events)
        assert back.retrain_records == log.retrain_records

    def test_log_with_derived_arrays_stored_reads_back(self, mini_artifacts,
                                                       tmp_path):
        # the oldest logs store eleven arrays: those of the eight-array
        # layout plus t, v_o and U, one .npy each
        log = sil.run_scenario(step_script(), mini_artifacts, mini_config(),
                               seed=3, retrain_experiments=4, retrain_hold=40)
        write_older_log(log, tmp_path, ("t", "v_o", "U"))
        back = sil.read_log(tmp_path, mini_artifacts)
        assert_arrays_equal(back, log)
        assert (back.events, back.retrain_records) == (log.events, log.retrain_records)

    def test_log_in_the_eight_array_layout_reads_back(self, mini_artifacts,
                                                      tmp_path, monkeypatch):
        # logs of the eight-array layout also store the static predictions,
        # the indicator and the counts; read_log reads none of them
        log = sil.run_scenario(step_script(), mini_artifacts, mini_config(),
                               seed=3, retrain_experiments=4, retrain_hold=40)
        write_older_log(log, tmp_path)
        read = []
        read_array = sil.read_array

        def recording_read(path):
            read.append(path.name)
            return read_array(path)

        monkeypatch.setattr(sil, "read_array", recording_read)
        back = sil.read_log(tmp_path, mini_artifacts)
        assert sorted(read) == sorted(f"{k}.npy" for k in sil.LOG_ARRAYS)
        assert_arrays_equal(back, log)
        assert (back.events, back.retrain_records) == (log.events, log.retrain_records)

    def test_meta_without_retrain_records_reads_back_empty(self, mini_artifacts,
                                                           tmp_path):
        sil.write_log(empty_log(), tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["retrain_records"]
        meta_path.write_text(json.dumps(meta))
        assert sil.read_log(tmp_path, mini_artifacts).retrain_records == ()

    def test_meta_with_retired_keys_reads_back(self, mini_artifacts, tmp_path):
        # logs written before the harness stopped storing them carry the
        # script's wait_buffer and each event's post_retrain_z
        log = dataclasses.replace(empty_log(), events=(
            cg.DriftEvent(5, cg.CAUSE_UNKNOWN, cg.ACTION_WAIT, retrain_step=9),
            cg.DriftEvent(12, cg.CAUSE_UNKNOWN, cg.ACTION_WAIT),
        ))
        sil.write_log(log, tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["script"]["wait_buffer"] = 5000
        for e in meta["events"]:
            e["post_retrain_z"] = 0 if e["retrain_step"] is not None else None
        meta_path.write_text(json.dumps(meta))
        back = sil.read_log(tmp_path, mini_artifacts)
        assert back.events == log.events
        assert jsonable(asdict(back.script)) == jsonable(asdict(log.script))
