"""Run configuration: one flat key=value file drives the whole pipeline.

Every tunable lives in a single registry with its type, default and legal
range; parsing is strict (unknown keys, bad types and out-of-range values
are errors that name the offending key) and an absent key silently takes
its documented default. The canonical rendering of the effective
configuration, hashed, stamps every artifact so downstream stages can
refuse mismatched inputs.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import bayes, cognitive as cg
from .cognitive import CognitiveConfig
from .errors import ConfigError, IoFailure, RangeViolation, TypeMismatch, UnknownKey
from .hyperband import HyperbandConfig
from .plant import CHANNEL_NAMES, PlantParams

_INT_RE = re.compile(r"^[+-]?\d+$")


@dataclass(frozen=True)
class _Key:
    attr: str
    kind: str                      # "int" | "float" | "str"
    default: object
    check: Callable[[object], bool] | None = None
    legal: str = ""                # human-readable range, used in errors


# Dotted key -> (group attr on RunConfig, field spec). Defaults are the
# full-scale values; configs/desk.cfg shrinks the expensive ones for CI.
REGISTRY: dict[str, tuple[str, _Key]] = {
    "paths.data_dir": ("paths", _Key("data_dir", "str", "artifacts/data")),
    "paths.artifact_dir": ("paths", _Key("artifact_dir", "str", "artifacts")),
    "paths.report_dir": ("paths", _Key("report_dir", "str", "reports")),

    "plant.theta_res": ("plant", _Key("theta_res", "float", 6.0e-6,
                                      lambda v: v > 0, "> 0")),
    "plant.theta_top": ("plant", _Key("theta_top", "float", 4.0e-5,
                                      lambda v: v > 0, "> 0")),

    "doe.n": ("doe", _Key("n", "int", 4000, lambda v: v >= 1, ">= 1")),
    "doe.hold": ("doe", _Key("hold", "float", 100.0,
                             lambda v: v >= 1.0, ">= 1 s")),
    "doe.settle": ("doe", _Key("settle", "float", 200.0,
                               lambda v: v >= 0.0, ">= 0 s")),
    "doe.seed": ("doe", _Key("seed", "int", 42)),

    "structure.n_max": ("structure", _Key("n_max", "int", 8,
                                          lambda v: 1 <= v <= 20, "1..20")),
    "structure.tol": ("structure", _Key("tol", "float", 0.05,
                                        lambda v: 0 < v < 1, "in (0, 1)")),
    "structure.max_rows": ("structure", _Key("max_rows", "int", 1200,
                                             lambda v: v >= 50, ">= 50")),
    "structure.seed": ("structure", _Key("seed", "int", 0)),

    "training.train_frac": ("training", _Key("train_frac", "float", 0.7,
                                             lambda v: 0 < v < 1, "in (0, 1)")),
    "training.val_frac": ("training", _Key("val_frac", "float", 0.15,
                                           lambda v: 0 < v < 1, "in (0, 1)")),
    "training.test_frac": ("training", _Key("test_frac", "float", 0.15,
                                            lambda v: 0 < v < 1, "in (0, 1)")),
    "training.split_seed": ("training", _Key("split_seed", "int", 0)),
    "training.epochs": ("training", _Key("epochs", "int", 300,
                                         lambda v: v >= 1, ">= 1")),

    "hyperband.r_max": ("hyperband", _Key("r_max", "int", 27,
                                          lambda v: v >= 2, ">= 2")),
    "hyperband.eta": ("hyperband", _Key("eta", "int", 3,
                                        lambda v: v >= 2, ">= 2")),
    "hyperband.batch_size": ("hyperband", _Key("batch_size", "int", 64,
                                               lambda v: v >= 1, ">= 1")),
    "hyperband.seed": ("hyperband", _Key("seed", "int", 7)),
    "hyperband.channel": ("hyperband", _Key("channel", "str", "well1_ml",
                                            lambda v: v in CHANNEL_NAMES,
                                            "one of " + ", ".join(CHANNEL_NAMES))),

    "mcmc.samples": ("mcmc", _Key("samples", "int", 50000,
                                  lambda v: v >= 2, ">= 2")),
    "mcmc.burn_in": ("mcmc", _Key("burn_in", "int", 10000,
                                  lambda v: v >= 0, ">= 0")),
    "mcmc.proposal": ("mcmc", _Key("proposal", "float", 2e-4,
                                   lambda v: v > 0, "> 0")),
    "mcmc.sigma_floor": ("mcmc", _Key("sigma_floor", "float", bayes.DEFAULT_SIGMA_FLOOR,
                                      lambda v: v > 0, "> 0")),
    "mcmc.likelihood_rows": ("mcmc", _Key(
        "likelihood_rows", "int", bayes.DEFAULT_LIKELIHOOD_ROWS, lambda v: v >= 10, ">= 10")),
    "mcmc.prior_half_width": ("mcmc", _Key(
        "prior_half_width", "float", bayes.DEFAULT_PRIOR_HALF_WIDTH, lambda v: v > 0, "> 0")),
    "mcmc.seed": ("mcmc", _Key("seed", "int", 0)),

    "reduction.sizes": ("reduction", _Key("sizes", "str", "auto")),
    "reduction.tol": ("reduction", _Key("tol", "float", 0.1,
                                        lambda v: 0 < v < 1, "in (0, 1)")),
    "reduction.val_window": ("reduction", _Key("val_window", "int", 200,
                                               lambda v: v >= 10, ">= 10")),
    "reduction.seed": ("reduction", _Key("seed", "int", 0)),

    "cognitive.MH": ("cognitive", _Key("mh", "int", cg.DEFAULT_MH,
                                       lambda v: v >= 1, ">= 1")),
    "cognitive.a": ("cognitive", _Key("a_offset", "int", cg.DEFAULT_A_OFFSET,
                                      lambda v: v >= 0, ">= 0")),
    "cognitive.CT": ("cognitive", _Key("ct", "int", cg.DEFAULT_CT,
                                       lambda v: v >= 1, ">= 1")),
    "cognitive.confidence": ("cognitive", _Key("confidence", "float", cg.DEFAULT_CONFIDENCE,
                                               lambda v: 0 < v < 1, "in (0, 1)")),
    "cognitive.wait_buffer": ("cognitive", _Key("wait_buffer", "int", cg.DEFAULT_WAIT_BUFFER,
                                                lambda v: v >= 0, ">= 0")),
    "cognitive.retrain_epochs": ("cognitive", _Key(
        "retrain_epochs", "int", cg.DEFAULT_RETRAIN_EPOCHS, lambda v: v >= 1, ">= 1")),
    "cognitive.retrain_lr_factor": ("cognitive", _Key(
        "retrain_lr_factor", "float", cg.DEFAULT_RETRAIN_LR_FACTOR, lambda v: v > 0, "> 0")),

    "sil.scenarios": ("sil", _Key("scenarios", "str", "1,2,3")),
    "sil.warmup": ("sil", _Key("warmup", "float", 200.0,
                               lambda v: v >= 0.0, ">= 0 s")),
    "sil.retrain_experiments": ("sil", _Key("retrain_experiments", "int", 40,
                                            lambda v: v >= 1, ">= 1")),
    "sil.retrain_hold": ("sil", _Key("retrain_hold", "int", 60,
                                     lambda v: v >= 1, ">= 1")),
    "sil.seed": ("sil", _Key("seed", "int", 0)),
}

# path keys only relocate outputs, so they stay out of the config hash
_UNHASHED = tuple(k for k in REGISTRY if k.startswith("paths."))

# Which keys define each stage's computation. A stage's hash covers exactly
# these, so editing an unrelated setting never invalidates its artifacts.
# Entries ending in "." match a whole group; sil.scenarios is pure selection
# and gates nothing.
_SPLIT_KEYS = ("training.train_frac", "training.val_frac",
               "training.test_frac", "training.split_seed")
_SCOPE_GEN = ("plant.", "doe.")
_SCOPE_STRUCTURE = _SCOPE_GEN + ("structure.",)
_SCOPE_TUNE = _SCOPE_STRUCTURE + _SPLIT_KEYS + ("hyperband.",)
_SCOPE_FIT = _SCOPE_TUNE + ("training.epochs",)
_SCOPE_MCMC = _SCOPE_FIT + ("mcmc.",)
_SCOPE_REDUCE = _SCOPE_MCMC + ("reduction.", "cognitive.confidence")
_SCOPE_SIL = _SCOPE_REDUCE + (
    "cognitive.", "sil.warmup", "sil.retrain_experiments",
    "sil.retrain_hold", "sil.seed",
)

STAGE_KEY_SCOPES: dict[str, tuple[str, ...]] = {
    "gen-data": _SCOPE_GEN,
    "rank-inputs": _SCOPE_GEN,
    "select-structure": _SCOPE_STRUCTURE,
    "tune": _SCOPE_TUNE,
    "fit": _SCOPE_FIT,
    "mcmc": _SCOPE_MCMC,
    "reduce": _SCOPE_REDUCE,
    "sil": _SCOPE_SIL,
    "report": _SCOPE_SIL,
}


def _in_scope(key: str, scope: tuple[str, ...]) -> bool:
    return any(
        key == entry or (entry.endswith(".") and key.startswith(entry))
        for entry in scope
    )


@dataclass(frozen=True)
class Paths:
    data_dir: str
    artifact_dir: str
    report_dir: str


@dataclass(frozen=True)
class PlantOverrides:
    theta_res: float
    theta_top: float


@dataclass(frozen=True)
class DoeSettings:
    n: int
    hold: float
    settle: float
    seed: int


@dataclass(frozen=True)
class StructureSettings:
    n_max: int
    tol: float
    max_rows: int
    seed: int


@dataclass(frozen=True)
class TrainingSettings:
    train_frac: float
    val_frac: float
    test_frac: float
    split_seed: int
    epochs: int

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)


@dataclass(frozen=True)
class HyperbandSettings:
    r_max: int
    eta: int
    batch_size: int
    seed: int
    channel: str


@dataclass(frozen=True)
class McmcSettings:
    samples: int
    burn_in: int
    proposal: float
    sigma_floor: float
    likelihood_rows: int
    prior_half_width: float
    seed: int


@dataclass(frozen=True)
class ReductionSettings:
    sizes: str
    tol: float
    val_window: int
    seed: int


@dataclass(frozen=True)
class SilSettings:
    scenarios: str
    warmup: float
    retrain_experiments: int
    retrain_hold: int
    seed: int


_GROUP_TYPES = {
    "paths": Paths,
    "plant": PlantOverrides,
    "doe": DoeSettings,
    "structure": StructureSettings,
    "training": TrainingSettings,
    "hyperband": HyperbandSettings,
    "mcmc": McmcSettings,
    "reduction": ReductionSettings,
    "cognitive": CognitiveConfig,
    "sil": SilSettings,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for every pipeline stage."""

    paths: Paths
    plant: PlantOverrides
    doe: DoeSettings
    structure: StructureSettings
    training: TrainingSettings
    hyperband: HyperbandSettings
    mcmc: McmcSettings
    reduction: ReductionSettings
    cognitive: CognitiveConfig
    sil: SilSettings

    def value_of(self, key: str) -> object:
        group, spec = REGISTRY[key]
        return getattr(getattr(self, group), spec.attr)

    def canonical_text(self, scope: tuple[str, ...] | None = None) -> str:
        """Sorted key=value rendering of every hashed setting in scope."""
        lines = []
        for key in sorted(REGISTRY):
            if key in _UNHASHED:
                continue
            if scope is not None and not _in_scope(key, scope):
                continue
            lines.append(f"{key}={_render(self.value_of(key))}\n")
        return "".join(lines)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def stage_hash(self, stage: str) -> str:
        """Hash of the settings that define one stage's computation."""
        base = stage.split("-scenario")[0] if stage.startswith("sil") else stage
        scope = STAGE_KEY_SCOPES[base]
        return hashlib.sha256(self.canonical_text(scope).encode()).hexdigest()

    def plant_params(self) -> PlantParams:
        return PlantParams().with_valve_coefficients(
            theta_res=[self.plant.theta_res] * 3,
            theta_top=[self.plant.theta_top] * 3,
        )

    def hyperband_config(self) -> HyperbandConfig:
        return HyperbandConfig(
            max_resource=self.hyperband.r_max,
            eta=self.hyperband.eta,
            seed=self.hyperband.seed,
            batch_size=self.hyperband.batch_size,
        )

    def scenario_ids(self) -> tuple[int, ...]:
        return _parse_scenarios(self.sil.scenarios)

    def reduction_sizes(self, n_kept: int) -> tuple[int, ...]:
        """Descending candidate sizes, capped by the retained sample count."""
        if self.reduction.sizes != "auto":
            sizes = _parse_sizes(self.reduction.sizes)
            return tuple(s for s in sizes if s <= n_kept) or (n_kept,)
        out = []
        size = min(n_kept, 400)
        while size >= 3:
            out.append(size)
            size //= 2
        return tuple(out) if out else (n_kept,)


def _render(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _convert(key: str, spec: _Key, raw: str) -> object:
    if spec.kind == "str":
        return raw
    if spec.kind == "int":
        if not _INT_RE.match(raw):
            raise TypeMismatch(f"{key}: expected an integer, got {raw!r}")
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        raise TypeMismatch(f"{key}: expected a number, got {raw!r}") from None


def _parse_sizes(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts or any(not _INT_RE.match(p) for p in parts):
        raise TypeMismatch(
            f"reduction.sizes: expected 'auto' or comma-separated integers, got {raw!r}"
        )
    sizes = tuple(int(p) for p in parts)
    if any(s < 1 for s in sizes) or any(a <= b for a, b in zip(sizes, sizes[1:])):
        raise RangeViolation(
            "reduction.sizes: sizes must be positive and strictly descending"
        )
    return sizes


def _parse_scenarios(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts or any(not _INT_RE.match(p) for p in parts):
        raise TypeMismatch(
            f"sil.scenarios: expected comma-separated integers, got {raw!r}"
        )
    ids = tuple(int(p) for p in parts)
    if any(i not in (1, 2, 3) for i in ids) or len(set(ids)) != len(ids):
        raise RangeViolation(
            "sil.scenarios: scenario ids must be distinct values from 1..3"
        )
    return ids


def _cross_checks(values: dict[str, object]) -> None:
    total = (values["training.train_frac"] + values["training.val_frac"]
             + values["training.test_frac"])
    if abs(total - 1.0) > 1e-9:
        raise RangeViolation(
            f"training.train_frac: split fractions must sum to 1, got {total!r}"
        )
    if values["cognitive.CT"] > values["cognitive.MH"]:
        raise RangeViolation(
            "cognitive.CT: threshold cannot exceed the moving horizon cognitive.MH"
        )
    if values["mcmc.burn_in"] >= values["mcmc.samples"]:
        raise RangeViolation(
            "mcmc.burn_in: burn-in must be shorter than mcmc.samples"
        )
    if values["hyperband.r_max"] < values["hyperband.eta"]:
        raise RangeViolation(
            "hyperband.r_max: budget must be at least hyperband.eta"
        )
    if values["reduction.sizes"] != "auto":
        _parse_sizes(values["reduction.sizes"])
    _parse_scenarios(values["sil.scenarios"])


def _assemble(values: dict[str, object]) -> RunConfig:
    groups: dict[str, dict[str, object]] = {g: {} for g in _GROUP_TYPES}
    for key, (group, spec) in REGISTRY.items():
        groups[group][spec.attr] = values[key]
    return RunConfig(**{g: _GROUP_TYPES[g](**kw) for g, kw in groups.items()})


def default_config() -> RunConfig:
    values = {key: spec.default for key, (_, spec) in REGISTRY.items()}
    return _assemble(values)


def parse_config(file: str | Path) -> RunConfig:
    """Strict flat key=value parse; absent keys take documented defaults.

    Lines that are blank or start with ``#`` are ignored. Every other line
    must read ``key = value`` with a registered key.
    """
    path = Path(file)
    try:
        text = path.read_text()
    except OSError as e:
        raise IoFailure(f"cannot read config file {path}: {e}") from e
    values: dict[str, object] = {
        key: spec.default for key, (_, spec) in REGISTRY.items()
    }
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TypeMismatch(
                f"config line {lineno}: expected key=value, got {line!r}"
            )
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in REGISTRY:
            raise UnknownKey(f"unknown configuration key {key!r} (line {lineno})")
        if key in seen:
            raise ConfigError(f"duplicate configuration key {key!r} (line {lineno})")
        seen.add(key)
        _, spec = REGISTRY[key]
        value = _convert(key, spec, raw)
        if spec.check is not None and not spec.check(value):
            raise RangeViolation(f"{key}: value {raw!r} outside legal range {spec.legal}")
        values[key] = value
    _cross_checks(values)
    return _assemble(values)


def describe_keys() -> str:
    """One line per key: name, type, default and legal range."""
    lines = []
    for key in sorted(REGISTRY):
        _, spec = REGISTRY[key]
        legal = f"  [{spec.legal}]" if spec.legal else ""
        lines.append(f"{key}  ({spec.kind}, default {_render(spec.default)}){legal}")
    return "\n".join(lines)
