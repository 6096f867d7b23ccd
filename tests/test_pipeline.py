"""End-to-end CLI runs of the pipeline, gen-data through report, on a tiny config."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gaslift_twin import bayes, cli, pipeline, sil
from gaslift_twin.artifacts import StageStore
from gaslift_twin.cognitive import CognitiveConfig
from gaslift_twin.config import default_config, parse_config
from gaslift_twin.parallel import forked_map
from gaslift_twin.plant import CHANNEL_NAMES

STAGES = ("gen-data", "rank-inputs", "select-structure", "tune", "fit",
          "mcmc", "reduce", "sil", "report")

# perfbench/identify.cfg, plus a short online phase
TINY = """\
doe.n = 12
doe.hold = 30
doe.settle = 50
doe.seed = 5
structure.n_max = 6
structure.max_rows = 200
hyperband.r_max = 27
hyperband.seed = 11
training.epochs = 20
mcmc.samples = 24
mcmc.burn_in = 8
mcmc.likelihood_rows = 300
reduction.val_window = 50
sil.warmup = 20
sil.retrain_experiments = 4
sil.retrain_hold = 40
cognitive.retrain_epochs = 2
cognitive.MH = 20
"""

SCENARIO_S = 40

# sha256 of the fit stage's weight files under TINY; tune's hyperband trials
# and fit's training must reproduce them bit for bit
FIT_WEIGHTS_SHA256 = {
    "well1_mg": "786194026fc46d110563d5b3a51a58732eb2f62cca45ca155e1df3a8e79368de",
    "well1_ml": "7277c9d0132192f7d7f24cecd7cb6aaeb51b50a9351da033e2d9a4891d3e2479",
    "well2_mg": "69d1d4640134e14c0c3e66ccddb98ce7777a6a667e558dc483d5ed28c47d3064",
    "well2_ml": "7bb75d456e6fe198f4c19d0778412b0ad3e1ebdfa352f4fed1831d5947654f59",
    "well3_mg": "31e83d0c4576ae66940b2c9a62fd045baab6b72d9e658cabda7a9e094da79562",
    "well3_ml": "2552fc770e769aeaca1c1a80ddeeb4d22338eb468b2aada816535dcdacf09994",
}

# sha256 of the tune stage's files under TINY with BLAS on one thread (see
# conftest.py); every trial record and the winner must reproduce them,
# whatever the number of bracket workers
TUNE_SHA256 = {
    "tune.json": "13952148cdcaa6eef7a09560e8826478a04438ea1019824e48830c61abd3f3db",
    "trials.csv": "a523584a57cf5fa2a8db93e21e6cea54c6eb0d0dc51bc56a52cdb39d7936366f",
}


def write_config(root, extra=""):
    path = root / "run.cfg"
    path.write_text(
        f"paths.data_dir = {root / 'data'}\n"
        f"paths.artifact_dir = {root / 'artifacts'}\n"
        f"paths.report_dir = {root / 'reports'}\n"
        + TINY + extra
    )
    return path


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def error_of(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


def snapshot(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file() and p.suffix != ".cfg"
    }


@pytest.fixture(scope="module", autouse=True)
def short_scenarios():
    """The standard scenarios cut to 40 s with the disturbance at 20 s."""
    library = sil.scenario_library()
    short = {
        k: replace(s, duration_s=SCENARIO_S, disturbances=tuple(
            replace(d, time_s=SCENARIO_S // 2) for d in s.disturbances))
        for k, s in library.items()
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sil, "scenario_library", lambda: short)
        yield


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Every stage run once through the CLI: (root, config, stdout per stage)."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root)
    outputs = {}
    for stage in STAGES:
        rc, out, err = run_cli("--config", cfg, stage)
        assert rc == 0, f"{stage}: {err}"
        outputs[stage] = json.loads(out)
    return root, cfg, outputs


class TestEndToEnd:
    def test_every_stage_reports_its_result(self, run):
        _, _, outputs = run
        for stage in STAGES[:7]:
            assert outputs[stage]["stage"] == stage
            assert len(outputs[stage]["fingerprint"]) == 64
        assert [r["stage"] for r in outputs["sil"]] == [
            "sil-scenario1", "sil-scenario2", "sil-scenario3"]
        assert outputs["report"]["scenarios"] == [
            "scenario1", "scenario2", "scenario3"]

    def test_gen_data_fingerprint_matches_benchmark_reference(self, run):
        # TINY keeps identify.cfg's doe.* and plant.* keys, so the plant must
        # reproduce the benchmark's recorded series bit for bit
        reference = json.loads(
            (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
        _, _, outputs = run
        assert outputs["gen-data"]["fingerprint"] == reference["gen_data_fingerprint"]

    def test_fit_weights_keep_their_bits(self, run):
        root, _, _ = run
        weights = sorted((root / "artifacts" / "fit" / "weights").glob("*.npy"))
        assert {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in weights} == FIT_WEIGHTS_SHA256

    def test_tune_files_keep_their_bits(self, run):
        root, _, _ = run
        tune = root / "artifacts" / "tune"
        assert {name: hashlib.sha256((tune / name).read_bytes()).hexdigest()
                for name in TUNE_SHA256} == TUNE_SHA256

    def test_report_files(self, run):
        root, _, outputs = run
        report = root / "reports" / "report"
        index = json.loads((report / "index.json").read_text())
        # scenario 2's cause is unknown and its buffer never reaches the
        # default wait of 5000 rows
        assert index["scenario2"]["n_retrains"] == 0
        events = (report / "scenario2" / "events.jsonl").read_text()
        assert json.loads(events)["status"] == "truncated"
        for sid in (1, 2, 3):
            summary = json.loads(
                (report / f"scenario{sid}" / "summary.json").read_text())
            assert summary["config"]["mh"] == 20
            assert summary["n_events"] == outputs["sil"][sid - 1]["n_events"]
            assert len(list((report / f"scenario{sid}" / "channels").glob("*.csv"))) == 6

    def test_events_are_stored_once_and_rendered_by_report(self, run):
        root, cfg, _ = run
        artifacts, _ = pipeline.load_offline_artifacts(parse_config(cfg))
        for sid in (1, 2, 3):
            sil_dir = root / "artifacts" / f"sil-scenario{sid}"
            assert not (sil_dir / "events.jsonl").exists()
            assert sorted(p.name for p in (sil_dir / "log").iterdir()) == sorted(
                [*(f"{k}.npy" for k in sil.LOG_ARRAYS), "meta.json"])
            log = sil.read_log(sil_dir / "log", artifacts)
            rendered = root / "reports" / "report" / f"scenario{sid}" / "events.jsonl"
            assert rendered.read_text() == sil.events_jsonl(log.events)

    def test_select_structure_and_fit_fork_nothing(self, run, tmp_path, monkeypatch):
        root, _, _ = run
        for tree in ("data", "artifacts"):
            shutil.copytree(root / tree, tmp_path / tree)
        cfg = write_config(tmp_path)

        def no_fork():
            raise AssertionError("select-structure or fit started a child process")

        # three CPUs free, so only a loop can keep these stages from forking
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", no_fork)
        for stage in ("select-structure", "fit"):
            rc, _, err = run_cli("--config", cfg, stage)
            assert rc == 0, f"{stage}: {err}"
        assert snapshot(tmp_path / "artifacts") == snapshot(root / "artifacts")
        weights = sorted((tmp_path / "artifacts" / "fit" / "weights").glob("*.npy"))
        assert {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in weights} == FIT_WEIGHTS_SHA256

    def test_rerun_reproduces_bytes(self, run):
        root, cfg, _ = run
        before = snapshot(root)
        for argv in (*STAGES[:7], ("sil", "--scenario", 1), "report"):
            argv = (argv,) if isinstance(argv, str) else argv
            rc, _, err = run_cli("--config", cfg, *argv)
            assert rc == 0, err
        assert snapshot(root) == before


@pytest.fixture(scope="module")
def full_chains(run, mcmc_reference):
    """Per channel, the mcmc stage's chain rerun in memory: ``(chain,
    states)``, with ``states`` every state of the reference sampler,
    burn-in included, as the stage stored them before it kept only the
    draws."""
    _, cfg, _ = run
    cfg = parse_config(cfg)
    Y, U, _ = pipeline._load_series(cfg)
    layout, _ = pipeline._load_layout(cfg)
    fitted, _ = pipeline._load_weights(cfg)
    datasets = pipeline._build_datasets(cfg, Y, U, layout)
    sample = bayes.mcmc_sample
    states = {}

    def recording(log_target, init, n_samples, proposal_scale, seed, *, burn_in):
        states[seed], _, _ = mcmc_reference(log_target, init, n_samples,
                                            proposal_scale, seed, burn_in=burn_in)
        return sample(log_target, init, n_samples, proposal_scale, seed,
                      burn_in=burn_in)

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bayes, "mcmc_sample", recording)
        for i, name in enumerate(CHANNEL_NAMES):
            seed = cfg.mcmc.seed + i
            chain, _ = bayes.sample_weight_posterior(
                datasets[name], fitted[name]["spec"], fitted[name]["theta"],
                n_samples=cfg.mcmc.samples, burn_in=cfg.mcmc.burn_in,
                proposal_scale=cfg.mcmc.proposal, seed=seed,
                sigma_floor=cfg.mcmc.sigma_floor,
                likelihood_rows=cfg.mcmc.likelihood_rows,
                prior_half_width=cfg.mcmc.prior_half_width,
            )
            out[name] = chain, states[seed]
    return out


class TestMcmcDraws:
    def test_each_channel_stores_only_its_draws(self, run, full_chains):
        root, _, _ = run
        chains = root / "artifacts" / "mcmc" / "chains"
        assert sorted(p.name for p in chains.iterdir()) == sorted(CHANNEL_NAMES)
        recorded = json.loads((root / "artifacts" / "mcmc" / "mcmc.json").read_text())
        for name, (chain, states) in full_chains.items():
            assert [p.name for p in (chains / name).iterdir()] == ["draws.npy"]
            draws = np.load(chains / name / "draws.npy", allow_pickle=False)
            assert draws.shape == (24 - 8, chain.samples.shape[1])
            assert draws.tobytes() == states[8:].tobytes() == chain.samples.tobytes()
            assert recorded[name]["n_samples"] == chain.length == 24
            assert recorded[name]["burn_in"] == chain.burn_in == 8

    def test_reduce_equals_a_reduction_of_the_rows_past_burn_in(self, run, full_chains):
        root, cfg, _ = run
        cfg = parse_config(cfg)
        Y, U, _ = pipeline._load_series(cfg)
        layout, _ = pipeline._load_layout(cfg)
        fitted, _ = pipeline._load_weights(cfg)
        reduce_dir = root / "artifacts" / "reduce"
        reduction = json.loads((reduce_dir / "reduction.json").read_text())
        v = min(cfg.reduction.val_window, len(Y) - layout.max_lag - layout.n_a)
        start = len(Y) - v
        for i, name in enumerate(CHANNEL_NAMES):
            kept = full_chains[name][1][cfg.mcmc.burn_in:]
            norm = fitted[name]["norm"]
            members, report = bayes.reduce_ensemble(
                kept, fitted[name]["spec"], layout,
                norm.normalize_target(Y[start - layout.n_b:start, i]),
                norm.normalize_inputs(U)[start - layout.n_a + 1:],
                cfg.reduction_sizes(len(kept)), cfg.reduction.seed + i,
                degeneration_tol=cfg.reduction.tol,
                confidence=cfg.cognitive.confidence,
            )
            buf = io.BytesIO()
            np.save(buf, members, allow_pickle=False)
            stored = reduce_dir / "ensembles" / name / "members.npy"
            assert stored.read_bytes() == buf.getvalue()
            assert reduction[name] == {
                "n_kept": len(kept),
                "sizes": list(report.sizes),
                "width_ratios": list(report.width_ratios),
                "inflection_size": report.inflection_size,
                "chosen_size": report.chosen_size,
            }


class TestFailures:
    def test_mcmc_tree_of_whole_chains_is_refused(self, run, full_chains, tmp_path):
        # the layout before the draws: every state, burn-in included, with
        # its log-posterior and acceptance flag, and no draws file. reduce
        # must not read those states as draws
        root, _, _ = run
        for tree in ("data", "artifacts"):
            shutil.copytree(root / tree, tmp_path / tree)
        cfg = write_config(tmp_path)
        store = StageStore(tmp_path / "artifacts")
        manifest = store.load_manifest("mcmc")
        outputs = [store.stage_dir("mcmc") / "mcmc.json"]
        for name, (chain, states) in full_chains.items():
            chain_dir = store.stage_dir("mcmc") / "chains" / name
            (chain_dir / "draws.npy").unlink()
            for field, a in (("samples", states), ("accepted", chain.accepted),
                             ("log_posteriors", np.zeros(len(states)))):
                np.save(chain_dir / f"{field}.npy", a, allow_pickle=False)
                outputs.append(chain_dir / f"{field}.npy")
        store.write_manifest(
            "mcmc", config_hash=manifest["config_hash"], outputs=outputs,
            inputs=manifest["inputs"], seeds=manifest["seeds"],
            extra=manifest["extra"],
        )
        store.verify("mcmc")
        before = snapshot(tmp_path / "artifacts" / "reduce")
        rc, out, err = run_cli("--config", cfg, "reduce")
        assert rc == 1
        assert out == ""
        assert "Traceback" not in err
        error = error_of(err)
        assert error["error"] == "MissingArtifact"
        assert "draws.npy" in error["message"]
        assert snapshot(tmp_path / "artifacts" / "reduce") == before

    def test_tampered_ensemble_is_refused(self, run, tmp_path):
        root, _, _ = run
        shutil.copytree(root / "artifacts", tmp_path / "artifacts")
        cfg = write_config(tmp_path)
        path = tmp_path / "artifacts" / "reduce" / "ensembles" / "well1_mg" / "members.npy"
        members = np.load(path, allow_pickle=False)
        members[0, 0] += 1e-9
        np.save(path, members, allow_pickle=False)
        rc, out, err = run_cli("--config", cfg, "sil", "--scenario", 2)
        assert rc == 1
        assert out == ""
        assert error_of(err)["error"] == "FingerprintMismatch"

    def test_report_without_the_offline_artifacts_is_refused(self, run, tmp_path):
        # report recomputes the static predictions from the reduce stage
        root, _, _ = run
        shutil.copytree(root / "artifacts", tmp_path / "artifacts")
        cfg = write_config(tmp_path)
        (tmp_path / "artifacts" / "reduce" / "manifest.json").unlink()
        rc, out, err = run_cli("--config", cfg, "report", "--scenario", 1)
        assert rc == 1
        assert out == ""
        assert "Traceback" not in err
        assert error_of(err)["error"] == "MissingArtifact"

    @pytest.mark.parametrize("key, value, sid", [
        ("cognitive.wait_buffer", 10, 2),           # an unknown cause waits
        ("sil.retrain_experiments", 1, 1),          # an identified one requests data
    ])
    def test_too_little_retrain_data_fails_before_the_replay(self, run, tmp_path,
                                                             key, value, sid):
        # the fine-tune needs 2 x 64 rows with a full lag window; 10 buffered
        # rows, or one 40 s experiment, cannot give them
        root, _, _ = run
        shutil.copytree(root / "artifacts", tmp_path / "artifacts",
                        ignore=shutil.ignore_patterns("sil-scenario*"))
        cfg = write_config(tmp_path)
        text = "".join(line for line in cfg.read_text().splitlines(keepends=True)
                       if not line.startswith(key + " "))
        cfg.write_text(text + f"{key} = {value}\n")
        rc, out, err = run_cli("--config", cfg, "sil", "--scenario", sid)
        assert rc == 1
        assert out == ""
        error = error_of(err)
        assert error["error"] == "RangeViolation"
        assert error["message"].startswith(key + ":")
        assert "2 × batch_size = 128" in error["message"]
        assert not (tmp_path / "artifacts" / f"sil-scenario{sid}").exists()

    def test_any_exception_becomes_a_json_error(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(pipeline.STAGES, "gen-data", boom)
        rc, out, err = run_cli("--config", write_config(tmp_path), "gen-data")
        assert rc == 1
        assert out == ""
        assert "Traceback" not in err
        assert error_of(err) == {"error": "RuntimeError", "message": "disk on fire"}

    def test_a_dead_worker_becomes_a_json_error(self, tmp_path, monkeypatch, no_children):
        parent = os.getpid()

        def dies_in_a_worker(k):
            if os.getpid() != parent:
                os._exit(3)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setitem(pipeline.STAGES, "gen-data",
                            lambda cfg: forked_map(dies_in_a_worker, range(2)))
        rc, out, err = run_cli("--config", write_config(tmp_path), "gen-data")
        assert rc == 1
        assert out == ""
        assert "Traceback" not in err
        assert error_of(err)["error"] == "WorkerDied"
        no_children()

    @pytest.mark.parametrize("argv", [("bogus",), ("sil", "--scenario", "7"), ()])
    def test_bad_command_line_becomes_a_json_error(self, argv):
        rc, out, err = run_cli(*argv)
        assert rc == 1
        assert out == ""
        assert error_of(err)["error"] == "UsageError"

    def test_help_still_exits_0(self):
        with pytest.raises(SystemExit) as exc, \
                contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main(["sil", "--help"])
        assert exc.value.code == 0
        assert "--scenario" in out.getvalue()

    @pytest.mark.parametrize("key", ["cognitive.calibration", "cognitive.margin"])
    def test_unimplemented_cognitive_keys_are_unknown(self, tmp_path, key):
        cfg = write_config(tmp_path, f"{key} = 1\n")
        rc, _, err = run_cli("--config", cfg, "gen-data")
        assert rc == 1
        assert error_of(err)["error"] == "UnknownKey"


def test_only_confidence_of_the_cognitive_keys_reaches_reduce(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    other = replace(cfg, cognitive=replace(cfg.cognitive, mh=30, retrain_epochs=3))
    assert other.stage_hash("reduce") == cfg.stage_hash("reduce")
    assert other.stage_hash("sil") != cfg.stage_hash("sil")
    tighter = replace(cfg, cognitive=replace(cfg.cognitive, confidence=0.9))
    assert tighter.stage_hash("reduce") != cfg.stage_hash("reduce")


def test_config_defaults_are_the_library_defaults():
    cfg = default_config()
    assert cfg.cognitive == CognitiveConfig()
    assert (cfg.mcmc.sigma_floor, cfg.mcmc.likelihood_rows, cfg.mcmc.prior_half_width) == (
        bayes.DEFAULT_SIGMA_FLOOR, bayes.DEFAULT_LIKELIHOOD_ROWS,
        bayes.DEFAULT_PRIOR_HALF_WIDTH,
    )


def test_cli_pins_blas_unless_the_caller_set_it():
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["MKL_NUM_THREADS"] = "2"
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    code = ("import os, sys, gaslift_twin.cli; "
            "print(*(os.environ[v] for v in sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, *blas], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["1", "1", "2"]
