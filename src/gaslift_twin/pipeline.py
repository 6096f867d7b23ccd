"""Stage-by-stage identification pipeline over on-disk artifacts.

Each stage reads its upstream artifacts (validated by fingerprint), runs one
module of the methodology and writes its outputs (arrays as ``.npy``, metadata
as JSON, tables as CSV) plus a manifest:

    gen-data          LHS plan, correlation audit, simulated training series
    rank-inputs       per-channel exogenous-input relevance ranking
    select-structure  embedding-order analysis and the shared regressor layout
    tune              Hyperband architecture/learning-rate search
    fit               final per-channel network training
    mcmc              weight-posterior chains around each trained network
    reduce            ensemble reduction with the 25% safety factor
    sil-scenario<k>   software-in-the-loop scenario replay logs, drift
                      events in the log's meta.json
    report            plot-ready CSVs, their static-model column recomputed
                      from reduce, the events.jsonl drift-event log and
                      metric summaries per scenario

Stages are deterministic functions of the configuration, so re-running any
of them with the same config reproduces its artifacts byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from . import sil as sil_mod
from .artifacts import (
    StageStore,
    read_array,
    read_csv,
    read_json,
    write_array,
    write_csv,
    write_json,
    # no stage writes text any more, but perfbench/layers.py wraps
    # ``pipeline.write_text`` by name
    write_text,  # noqa: F401
)
from .bayes import Chain, burn_in_trim, reduce_ensemble, sample_weight_posterior
from .cognitive import OfflineArtifact, make_artifact
from .config import RunConfig
from .doe import (
    TABLE_BOUNDS,
    build_input_sequence,
    correlation_audit,
    gram_schmidt_rank,
    lhs_sample,
)
from .errors import FingerprintMismatch, MissingArtifact, RangeViolation
from .hyperband import SearchSpace, hyperband
from .network import NetworkSpec, evaluate, train_channel
from .plant import (
    BASELINE_INPUTS,
    CHANNEL_NAMES,
    INPUT_NAMES,
    default_initial_state,
    simulate_experiment,
    simulate_schedule,
)
from .structure import NarxLayout, NormalizationSpec, assemble_narx_dataset, select_embedding

SERIES_HEADER = ("t", *INPUT_NAMES, *CHANNEL_NAMES)


def _data_store(cfg: RunConfig) -> StageStore:
    return StageStore(cfg.paths.data_dir)


def _art_store(cfg: RunConfig) -> StageStore:
    return StageStore(cfg.paths.artifact_dir)


def _report_store(cfg: RunConfig) -> StageStore:
    return StageStore(cfg.paths.report_dir)


def _result(stage: str, store: StageStore, fingerprint: str, **extra) -> dict:
    return {
        "stage": stage,
        "dir": str(store.stage_dir(stage)),
        "fingerprint": fingerprint,
        **extra,
    }


# The stored form of a network spec and a normalization, shared by tune,
# fit and reduce and by their loaders. tune's record also keeps the seed.
_SPEC_FIELDS = ("layer_sizes", "activations", "learning_rate", "batch_size")


def _encode_spec(spec: NetworkSpec) -> dict:
    return {k: getattr(spec, k) for k in _SPEC_FIELDS}


def _decode_spec(doc: dict) -> NetworkSpec:
    return NetworkSpec(
        layer_sizes=tuple(doc["layer_sizes"]),
        activations=tuple(doc["activations"]),
        learning_rate=doc["learning_rate"],
        batch_size=doc["batch_size"],
    )


def _decode_norm(doc: dict) -> NormalizationSpec:
    return NormalizationSpec(
        y_min=doc["y_min"], y_max=doc["y_max"],
        u_min=np.array(doc["u_min"], dtype=float),
        u_max=np.array(doc["u_max"], dtype=float),
    )


# ---------------------------------------------------------------- gen-data

def stage_gen_data(cfg: RunConfig) -> dict:
    """Sample the design, run the plant through it, store the series."""
    store = _data_store(cfg)
    out = store.stage_dir("gen-data")
    params = cfg.plant_params()

    plan = lhs_sample(cfg.doe.n, TABLE_BOUNDS, cfg.doe.seed)
    audit = correlation_audit(plan)
    schedule = build_input_sequence(plan, cfg.doe.hold)

    state = default_initial_state(params)
    if cfg.doe.settle >= 1.0:
        settle = simulate_experiment(BASELINE_INPUTS, cfg.doe.settle, params, state)
        state = settle.final_state
    traj = simulate_schedule(
        schedule.Q_g, schedule.v_o, schedule.P_pump, schedule.hold, params, state
    )

    plan_path = write_csv(
        out / "plan.csv",
        ("experiment", *plan.names),
        ([i, *row] for i, row in enumerate(plan.matrix)),
    )
    audit_path = write_json(out / "audit.json", {
        "names": list(plan.names),
        "matrix": audit.matrix,
        "max_offdiag_abs": audit.max_offdiag_abs,
    })
    U = traj.inputs_matrix()
    Y = traj.states_matrix()
    series_path = write_csv(
        out / "series.csv",
        SERIES_HEADER,
        (np.concatenate(([traj.t[i]], U[i], Y[i])) for i in range(len(traj))),
    )

    fp = store.write_manifest(
        "gen-data",
        config_hash=cfg.stage_hash("gen-data"),
        outputs=[plan_path, audit_path, series_path],
        seeds={"doe.seed": cfg.doe.seed},
        extra={
            "n_experiments": cfg.doe.n,
            "hold_s": cfg.doe.hold,
            "settle_s": cfg.doe.settle,
            "n_rows": len(traj),
            "max_offdiag_abs": audit.max_offdiag_abs,
        },
    )
    return _result("gen-data", store, fp, n_rows=len(traj))


def _load_series(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, str]:
    store = _data_store(cfg)
    _, fp = store.require("gen-data", config_hash=cfg.stage_hash("gen-data"))
    header, data = read_csv(store.stage_dir("gen-data") / "series.csv")
    if header != SERIES_HEADER:
        raise FingerprintMismatch(
            f"series.csv columns {header} do not match the expected layout"
        )
    U = data[:, 1:1 + len(INPUT_NAMES)]
    Y = data[:, 1 + len(INPUT_NAMES):]
    return Y, U, fp


# ------------------------------------------------------------- rank-inputs

def stage_rank_inputs(cfg: RunConfig) -> dict:
    """Rank exogenous inputs per channel by greedy explained variance.

    The regression target is the one-step state increment, so the dominant
    autoregressive component does not mask the exogenous contributions.
    """
    Y, U, fp_data = _load_series(cfg)
    store = _art_store(cfg)
    out = store.stage_dir("rank-inputs")

    rankings = {}
    for j, name in enumerate(CHANNEL_NAMES):
        ranking = gram_schmidt_rank(U[1:], INPUT_NAMES, np.diff(Y[:, j]))
        rankings[name] = {
            "order": list(ranking.names),
            "explained_variance": [s for _, s in ranking.entries],
        }
    path = write_json(out / "ranking.json", rankings)

    fp = store.write_manifest(
        "rank-inputs",
        config_hash=cfg.stage_hash("rank-inputs"),
        outputs=[path],
        inputs={"gen-data": fp_data},
    )
    return _result("rank-inputs", store, fp)


# -------------------------------------------------------- select-structure

def stage_select_structure(cfg: RunConfig) -> dict:
    """Pick embedding orders per channel and the shared regressor layout."""
    Y, U, fp_data = _load_series(cfg)
    store = _art_store(cfg)
    out = store.stage_dir("select-structure")

    analyses, (n_a, n_b) = select_embedding(
        Y, U, int(round(cfg.doe.hold)),
        n_max=cfg.structure.n_max,
        plateau_rel_tol=cfg.structure.tol,
        max_rows=cfg.structure.max_rows,
        seed=cfg.structure.seed,
    )
    layout = NarxLayout(n_b=n_b, n_a=n_a, n_u=len(INPUT_NAMES))
    path = write_json(out / "structure.json", {
        "combined": {"n_a": n_a, "n_b": n_b, "width": layout.width},
        "per_channel": {
            name: {
                "n_a": a.n_a,
                "n_b": a.n_b,
                "joint_order": a.joint_order,
                "n_values": list(a.n_values),
                "joint_index": list(a.joint_index),
                "joint_curve": list(a.joint_curve),
                "nb_curve": list(a.nb_curve),
                "na_curve": list(a.na_curve),
            }
            for name, a in analyses.items()
        },
    })

    fp = store.write_manifest(
        "select-structure",
        config_hash=cfg.stage_hash("select-structure"),
        outputs=[path],
        inputs={"gen-data": fp_data},
        seeds={"structure.seed": cfg.structure.seed},
        extra={"n_a": n_a, "n_b": n_b, "width": layout.width},
    )
    return _result("select-structure", store, fp, n_a=n_a, n_b=n_b)


def _load_layout(cfg: RunConfig) -> tuple[NarxLayout, str]:
    store = _art_store(cfg)
    manifest, fp = store.require(
        "select-structure", config_hash=cfg.stage_hash("select-structure")
    )
    combined = manifest["extra"]
    return NarxLayout(
        n_b=combined["n_b"], n_a=combined["n_a"], n_u=len(INPUT_NAMES)
    ), fp


def _build_datasets(cfg: RunConfig, Y, U, layout: NarxLayout):
    return assemble_narx_dataset(
        Y, U, None, layout,
        ratios=cfg.training.ratios,
        seed=cfg.training.split_seed,
    )


# ------------------------------------------------------------------- tune

def stage_tune(cfg: RunConfig) -> dict:
    """Hyperband search for the shared architecture and learning rate."""
    Y, U, fp_data = _load_series(cfg)
    layout, fp_structure = _load_layout(cfg)
    store = _art_store(cfg)
    out = store.stage_dir("tune")

    datasets = _build_datasets(cfg, Y, U, layout)
    result = hyperband(
        datasets[cfg.hyperband.channel], SearchSpace(), cfg.hyperband_config()
    )

    best = result.best_spec
    tune_path = write_json(out / "tune.json", {
        "channel": cfg.hyperband.channel,
        "best": {**_encode_spec(best), "seed": best.seed},
        "best_val_loss": result.best_loss,
        "total_epochs": result.total_epochs,
    })
    trials_path = write_csv(
        out / "trials.csv",
        ("trial_id", "bracket", "rung", "epochs", "val_loss",
         "layer_sizes", "activations", "learning_rate"),
        (
            [t.trial_id, t.bracket, t.rung, t.epochs, t.val_loss,
             "x".join(map(str, t.spec.layer_sizes)),
             "+".join(t.spec.activations), t.spec.learning_rate]
            for t in result.trials
        ),
    )

    fp = store.write_manifest(
        "tune",
        config_hash=cfg.stage_hash("tune"),
        outputs=[tune_path, trials_path],
        inputs={"gen-data": fp_data, "select-structure": fp_structure},
        seeds={"hyperband.seed": cfg.hyperband.seed},
        extra={"best_val_loss": result.best_loss},
    )
    return _result("tune", store, fp, best_val_loss=result.best_loss)


def _load_spec(cfg: RunConfig) -> tuple[NetworkSpec, str]:
    store = _art_store(cfg)
    _, fp = store.require("tune", config_hash=cfg.stage_hash("tune"))
    best = read_json(store.stage_dir("tune") / "tune.json")["best"]
    return replace(_decode_spec(best), seed=best["seed"]), fp


# -------------------------------------------------------------------- fit

def stage_fit(cfg: RunConfig) -> dict:
    """Train the tuned architecture on every output channel."""
    Y, U, fp_data = _load_series(cfg)
    layout, fp_structure = _load_layout(cfg)
    spec, fp_tune = _load_spec(cfg)
    store = _art_store(cfg)
    out = store.stage_dir("fit")

    datasets = _build_datasets(cfg, Y, U, layout)
    paths = []
    summary = {}
    for name in CHANNEL_NAMES:
        ds = datasets[name]
        res = train_channel(ds, spec, epochs=cfg.training.epochs)
        X_te, y_te = ds.normalized_split("test")
        test = evaluate(res.weights, spec, X_te, y_te)
        val = min(res.val_loss) if res.val_loss else float("nan")
        paths.append(write_array(out / "weights" / f"{name}.npy", res.weights.theta))
        paths.append(write_json(out / "weights" / f"{name}.json", {
            "channel": name,
            **_encode_spec(spec),
            "norm": asdict(ds.norm),
            "best_epoch": res.best_epoch,
            "val_mse": val,
            "test_mse": test.mse,
            "test_mae": test.mae,
        }))
        summary[name] = {"val_mse": val, "test_mse": test.mse}
    paths.append(write_json(out / "fit.json", summary))

    fp = store.write_manifest(
        "fit",
        config_hash=cfg.stage_hash("fit"),
        outputs=paths,
        inputs={"gen-data": fp_data, "select-structure": fp_structure,
                "tune": fp_tune},
        seeds={"training.split_seed": cfg.training.split_seed,
               "network.seed": spec.seed},
        extra={"test_mse": {k: v["test_mse"] for k, v in summary.items()}},
    )
    return _result("fit", store, fp, test_mse=summary)


def _load_weights(cfg: RunConfig) -> tuple[dict[str, dict], str]:
    """Per-channel fitted weights, spec fields and normalization ranges."""
    store = _art_store(cfg)
    _, fp = store.require("fit", config_hash=cfg.stage_hash("fit"))
    weights = store.stage_dir("fit") / "weights"
    out = {}
    for name in CHANNEL_NAMES:
        doc = read_json(weights / f"{name}.json")
        out[name] = {
            "spec": _decode_spec(doc),
            "theta": read_array(weights / f"{name}.npy"),
            "norm": _decode_norm(doc["norm"]),
        }
    return out, fp


# ------------------------------------------------------------------- mcmc

_CHAIN_ARRAYS = ("samples", "log_posteriors", "accepted")


def stage_mcmc(cfg: RunConfig) -> dict:
    """Metropolis chains over each channel's network weights."""
    Y, U, fp_data = _load_series(cfg)
    layout, fp_structure = _load_layout(cfg)
    fitted, fp_fit = _load_weights(cfg)
    store = _art_store(cfg)
    out = store.stage_dir("mcmc")

    datasets = _build_datasets(cfg, Y, U, layout)
    paths = []
    summary = {}
    for i, name in enumerate(CHANNEL_NAMES):
        chain, sigma = sample_weight_posterior(
            datasets[name], fitted[name]["spec"], fitted[name]["theta"],
            n_samples=cfg.mcmc.samples,
            burn_in=cfg.mcmc.burn_in,
            proposal_scale=cfg.mcmc.proposal,
            seed=cfg.mcmc.seed + i,
            sigma_floor=cfg.mcmc.sigma_floor,
            likelihood_rows=cfg.mcmc.likelihood_rows,
            prior_half_width=cfg.mcmc.prior_half_width,
        )
        paths += [
            write_array(out / "chains" / name / f"{field}.npy", getattr(chain, field))
            for field in _CHAIN_ARRAYS
        ]
        summary[name] = {
            "sigma": sigma,
            "acceptance_rate": chain.acceptance_rate,
            "proposal_scale_final": chain.proposal_scale,
            "n_samples": chain.length,
            "burn_in": chain.burn_in,
        }
    paths.append(write_json(out / "mcmc.json", summary))

    fp = store.write_manifest(
        "mcmc",
        config_hash=cfg.stage_hash("mcmc"),
        outputs=paths,
        inputs={"gen-data": fp_data, "select-structure": fp_structure,
                "fit": fp_fit},
        seeds={"mcmc.seed": cfg.mcmc.seed},
        extra={
            "acceptance": {k: v["acceptance_rate"] for k, v in summary.items()}
        },
    )
    return _result(
        "mcmc", store, fp,
        acceptance={k: v["acceptance_rate"] for k, v in summary.items()},
    )


def _load_chain_samples(cfg: RunConfig, name: str) -> np.ndarray:
    """One channel's stored chain past its burn-in, as ``burn_in_trim`` cuts it."""
    mcmc_dir = _art_store(cfg).stage_dir("mcmc")
    recorded = read_json(mcmc_dir / "mcmc.json")[name]
    chain = Chain(
        **{f: read_array(mcmc_dir / "chains" / name / f"{f}.npy") for f in _CHAIN_ARRAYS},
        proposal_scale=recorded["proposal_scale_final"],
        seed=cfg.mcmc.seed + CHANNEL_NAMES.index(name),
        burn_in=recorded["burn_in"],
    )
    return burn_in_trim(chain, cfg.mcmc.burn_in)


# ----------------------------------------------------------------- reduce

def stage_reduce(cfg: RunConfig) -> dict:
    """Trim each posterior ensemble to the safety-factored inflection size."""
    Y, U, fp_data = _load_series(cfg)
    layout, fp_structure = _load_layout(cfg)
    fitted, fp_fit = _load_weights(cfg)
    store = _art_store(cfg)
    _, fp_mcmc = store.require(
        "mcmc", config_hash=cfg.stage_hash("mcmc"),
        inputs={"gen-data": fp_data, "select-structure": fp_structure,
                "fit": fp_fit},
    )
    out = store.stage_dir("reduce")

    # free-run validation window from the series tail, long enough for the
    # band widths to mean something but cheap to propagate at every size
    v = min(cfg.reduction.val_window, len(Y) - layout.max_lag - layout.n_a)
    start = len(Y) - v
    paths = []
    summary = {}
    for name_i, name in enumerate(CHANNEL_NAMES):
        entry = fitted[name]
        norm: NormalizationSpec = entry["norm"]
        kept = _load_chain_samples(cfg, name)
        sizes = cfg.reduction_sizes(len(kept))

        y_window = norm.normalize_target(Y[start - layout.n_b:start, name_i])
        U_n = norm.normalize_inputs(U)
        members, report = reduce_ensemble(
            kept, entry["spec"], layout,
            y_window, U_n[start - layout.n_a + 1:],
            sizes, cfg.reduction.seed + name_i,
            degeneration_tol=cfg.reduction.tol,
            confidence=cfg.cognitive.confidence,
        )

        artifact = make_artifact(
            name, entry["spec"], layout, norm, entry["theta"], members
        )
        ens_dir = out / "ensembles" / name
        paths += [
            write_array(ens_dir / "map_theta.npy", entry["theta"]),
            write_array(ens_dir / "members.npy", members),
            write_json(ens_dir / "artifact.json", {
                "channel": name,
                **_encode_spec(entry["spec"]),
                "layout": asdict(layout),
                "norm": asdict(norm),
                "artifact_fingerprint": artifact.fingerprint,
            }),
        ]
        summary[name] = {
            "n_kept": len(kept),
            "sizes": list(report.sizes),
            "width_ratios": list(report.width_ratios),
            "inflection_size": report.inflection_size,
            "chosen_size": report.chosen_size,
        }
    paths.append(write_json(out / "reduction.json", summary))

    fp = store.write_manifest(
        "reduce",
        config_hash=cfg.stage_hash("reduce"),
        outputs=paths,
        inputs={"gen-data": fp_data, "select-structure": fp_structure,
                "fit": fp_fit, "mcmc": fp_mcmc},
        seeds={"reduction.seed": cfg.reduction.seed},
        extra={"chosen": {k: v["chosen_size"] for k, v in summary.items()}},
    )
    return _result(
        "reduce", store, fp,
        chosen={k: v["chosen_size"] for k, v in summary.items()},
    )


def load_offline_artifacts(cfg: RunConfig) -> tuple[dict[str, OfflineArtifact], str]:
    """Rebuild the per-channel offline artifacts from the reduce stage."""
    store = _art_store(cfg)
    _, fp = store.require("reduce", config_hash=cfg.stage_hash("reduce"))
    artifacts = {}
    for name in CHANNEL_NAMES:
        ens_dir = store.stage_dir("reduce") / "ensembles" / name
        doc = read_json(ens_dir / "artifact.json")
        artifact = make_artifact(
            doc["channel"], _decode_spec(doc), NarxLayout(**doc["layout"]),
            _decode_norm(doc["norm"]),
            read_array(ens_dir / "map_theta.npy"),
            read_array(ens_dir / "members.npy"),
        )
        if artifact.fingerprint != doc["artifact_fingerprint"]:
            raise FingerprintMismatch(
                f"ensemble file for {name} does not hash to its recorded "
                f"artifact fingerprint"
            )
        artifacts[name] = artifact
    return artifacts, fp


# -------------------------------------------------------------------- sil

def _selected_scenarios(cfg: RunConfig, scenario: int | None) -> tuple[int, ...]:
    if scenario is None:
        return cfg.scenario_ids()
    if scenario not in (1, 2, 3):
        raise RangeViolation(f"sil.scenarios: no scenario {scenario}")
    return (scenario,)


def _check_retrain_rows(cfg: RunConfig, artifacts: dict[str, OfflineArtifact],
                        scripts: list[sil_mod.ScenarioScript]) -> None:
    """Raise RangeViolation, before any replay, when a scenario's retrain
    data would hold too few rows for some channel's refit, which needs 2 ×
    batch_size rows with a full lag window: an identified drift's
    experiments give sil.retrain_experiments × (sil.retrain_hold − max lag)
    of them, the live buffer of an unknown one cognitive.wait_buffer − max
    lag."""
    for script in scripts:
        for name, art in artifacts.items():
            need, lag = 2 * art.spec.batch_size, art.layout.max_lag
            if script.drift_source_identified:
                e, h = cfg.sil.retrain_experiments, cfg.sil.retrain_hold
                usable = e * max(0, h - lag)
                setting = (f"sil.retrain_experiments: {e} experiments of "
                           f"sil.retrain_hold = {h} s give")
            else:
                usable = max(0, cfg.cognitive.wait_buffer - lag)
                setting = (f"cognitive.wait_buffer: a wait of "
                           f"{cfg.cognitive.wait_buffer} rows gives")
            if usable < need:
                raise RangeViolation(
                    f"{setting} {usable} usable rows for {name} (max lag {lag}) in "
                    f"{script.id}'s retrain, which needs 2 × batch_size = {need}"
                )


def stage_sil(cfg: RunConfig, scenario: int | None = None) -> list[dict]:
    """Replay the selected scenarios against the reduced-ensemble twin."""
    artifacts, fp_reduce = load_offline_artifacts(cfg)
    store = _art_store(cfg)
    library = sil_mod.scenario_library()
    sids = _selected_scenarios(cfg, scenario)
    scripts = [library[f"scenario{sid}"] for sid in sids]
    _check_retrain_rows(cfg, artifacts, scripts)

    results = []
    for sid, script in zip(sids, scripts):
        stage = f"sil-scenario{sid}"
        out = store.stage_dir(stage)
        log = sil_mod.run_scenario(
            script, artifacts, cfg.cognitive,
            params=cfg.plant_params(),
            seed=cfg.sil.seed + sid,
            warmup_s=cfg.sil.warmup,
            retrain_experiments=cfg.sil.retrain_experiments,
            retrain_hold=cfg.sil.retrain_hold,
        )
        fp = store.write_manifest(
            stage,
            config_hash=cfg.stage_hash(stage),
            outputs=sil_mod.write_log(log, out / "log"),
            inputs={"reduce": fp_reduce},
            seeds={"sil.seed": cfg.sil.seed + sid},
            extra={
                "scenario": script.id,
                "n_events": len(log.events),
                "n_retrains": len(log.retrain_steps()),
            },
        )
        results.append(_result(
            stage, store, fp,
            scenario=script.id,
            n_events=len(log.events),
            n_retrains=len(log.retrain_steps()),
        ))
    return results


def load_sil_log(cfg: RunConfig, sid: int) -> tuple[sil_mod.SilLog, str]:
    """A scenario's log, its static predictions recomputed from the offline
    artifacts that the scenario replayed against."""
    artifacts, fp_reduce = load_offline_artifacts(cfg)
    store = _art_store(cfg)
    stage = f"sil-scenario{sid}"
    _, fp = store.require(stage, config_hash=cfg.stage_hash(stage),
                          inputs={"reduce": fp_reduce})
    return sil_mod.read_log(store.stage_dir(stage) / "log", artifacts), fp


# ----------------------------------------------------------------- report

def stage_report(cfg: RunConfig, scenario: int | None = None) -> dict:
    """Emit plot-ready reports for every replayed scenario."""
    store = _report_store(cfg)
    out = store.stage_dir("report")

    paths = []
    inputs = {}
    index = {}
    for sid in _selected_scenarios(cfg, scenario):
        log, fp_log = load_sil_log(cfg, sid)
        inputs[f"sil-scenario{sid}"] = fp_log
        written, comparison = sil_mod.emit_report(log, out / f"scenario{sid}")
        paths.extend(written)
        index[f"scenario{sid}"] = {
            "n_events": len(log.events),
            "n_retrains": comparison.n_retrains,
            "detection_step": comparison.detection_step,
            "time_to_trigger": comparison.time_to_trigger,
            "pre_violation_fraction": comparison.pre_violation_fraction,
            "post_violation_fraction": comparison.post_violation_fraction,
        }
    paths.append(write_json(out / "index.json", index))

    fp = store.write_manifest(
        "report",
        config_hash=cfg.stage_hash("report"),
        outputs=paths,
        inputs=inputs,
    )
    return _result("report", store, fp, scenarios=sorted(index))


STAGES = {
    "gen-data": stage_gen_data,
    "rank-inputs": stage_rank_inputs,
    "select-structure": stage_select_structure,
    "tune": stage_tune,
    "fit": stage_fit,
    "mcmc": stage_mcmc,
    "reduce": stage_reduce,
    "sil": stage_sil,
    "report": stage_report,
}


def run_stage(cfg: RunConfig, name: str, *, scenario: int | None = None):
    """Dispatch one pipeline stage by its subcommand name."""
    if name not in STAGES:
        raise MissingArtifact(f"unknown stage {name!r}")
    if name in ("sil", "report"):
        return STAGES[name](cfg, scenario=scenario)
    return STAGES[name](cfg)
