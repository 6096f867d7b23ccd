"""Versioned on-disk artifacts with fingerprint-checked lineage.

Every pipeline stage writes its outputs into one directory next to a
``manifest.json`` recording the stage name, the configuration hash, the
seeds used, a sha256 per output file and the fingerprint of each upstream
stage it consumed. A stage's fingerprint is the sha256 of its manifest
bytes, so verifying a manifest transitively pins the exact content of the
whole chain. Arrays are stored as ``.npy``, small metadata as JSON and
tables as CSV. All writers are deterministic: fixed ``.npy`` headers, sorted
JSON keys, full-precision CSV floats, no timestamps. No reader unpickles.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import FingerprintMismatch, IoFailure, MissingArtifact

MANIFEST_NAME = "manifest.json"


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def jsonable(obj):
    """Recursively convert numpy scalars/arrays; non-finite floats -> null."""
    # bool before int: bool is an int subclass
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def _write(path: Path, dump) -> Path:
    """``dump(fh)`` into ``path``, opened for binary writing."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            dump(fh)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e
    return path


def write_text(path: Path, text: str) -> Path:
    return _write(path, lambda fh: fh.write(text.encode()))


def write_json(path: Path, obj) -> Path:
    return write_text(path, json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n")


def write_array(path: Path, a: np.ndarray) -> Path:
    return _write(path, lambda fh: np.save(fh, a, allow_pickle=False))


def _read(path: Path, parse):
    """``parse(path)``; a missing file is MissingArtifact, a bad one IoFailure."""
    try:
        return parse(path)
    except FileNotFoundError:
        raise MissingArtifact(f"expected artifact file {path}") from None
    except (OSError, ValueError, EOFError) as e:
        raise IoFailure(f"cannot read {path}: {e}") from e


def read_json(path: Path):
    return _read(path, lambda p: json.loads(p.read_text()))


def read_array(path: Path) -> np.ndarray:
    return _read(path, lambda p: np.load(p, allow_pickle=False))


def csv_cell(x) -> str:
    """Full-precision decimal rendering that round-trips through float()."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: tuple[str, ...], rows) -> Path:
    lines = [",".join(header) + "\n"]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row) + "\n")
    return write_text(path, "".join(lines))


def read_csv(path: Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header plus an all-float matrix; raises MissingArtifact when absent."""
    return _read(path, _parse_csv)


def _parse_csv(path: Path) -> tuple[tuple[str, ...], np.ndarray]:
    first, *lines = path.read_text().splitlines()     # ValueError when empty
    header = tuple(first.split(","))
    data = np.array(
        [[float(v) for v in line.split(",")] for line in lines], dtype=float
    )
    if data.size == 0:
        data = data.reshape(0, len(header))
    return header, data


class StageStore:
    """Read/write access to one artifact root with lineage checks."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def stage_dir(self, stage: str) -> Path:
        return self.root / stage

    def manifest_file(self, stage: str) -> Path:
        return self.stage_dir(stage) / MANIFEST_NAME

    def write_manifest(
        self,
        stage: str,
        *,
        config_hash: str,
        outputs: list[Path],
        inputs: dict[str, str] | None = None,
        seeds: dict[str, int] | None = None,
        extra: dict | None = None,
    ) -> str:
        """Hash the stage outputs, write the manifest, return its fingerprint."""
        stage_dir = self.stage_dir(stage)
        manifest = {
            "stage": stage,
            "config_hash": config_hash,
            "inputs": dict(sorted((inputs or {}).items())),
            "seeds": dict(sorted((seeds or {}).items())),
            "outputs": {
                str(p.relative_to(stage_dir)): file_sha256(p)
                for p in sorted(outputs)
            },
        }
        if extra:
            manifest["extra"] = extra
        write_json(self.manifest_file(stage), manifest)
        return self.fingerprint(stage)

    def fingerprint(self, stage: str) -> str:
        path = self.manifest_file(stage)
        if not path.is_file():
            raise MissingArtifact(
                f"stage {stage!r} has no manifest under {self.root}; run it first"
            )
        return file_sha256(path)

    def load_manifest(self, stage: str) -> dict:
        path = self.manifest_file(stage)
        if not path.is_file():
            raise MissingArtifact(
                f"stage {stage!r} has no manifest under {self.root}; run it first"
            )
        manifest = read_json(path)
        if manifest.get("stage") != stage:
            raise FingerprintMismatch(
                f"{path} belongs to stage {manifest.get('stage')!r}, not {stage!r}"
            )
        return manifest

    def verify(self, stage: str, *, config_hash: str | None = None) -> str:
        """Check every recorded output hash; return the stage fingerprint."""
        manifest = self.load_manifest(stage)
        if config_hash is not None and manifest["config_hash"] != config_hash:
            raise FingerprintMismatch(
                f"stage {stage!r} was produced under config hash "
                f"{manifest['config_hash'][:12]}..., current config hashes to "
                f"{config_hash[:12]}...; regenerate the stage"
            )
        stage_dir = self.stage_dir(stage)
        for rel, recorded in manifest["outputs"].items():
            path = stage_dir / rel
            if not path.is_file():
                raise MissingArtifact(f"stage {stage!r} output {rel} is missing")
            actual = file_sha256(path)
            if actual != recorded:
                raise FingerprintMismatch(
                    f"stage {stage!r} output {rel} changed on disk "
                    f"(recorded {recorded[:12]}..., found {actual[:12]}...)"
                )
        return self.fingerprint(stage)

    def require(
        self, stage: str, *, config_hash: str, inputs: dict[str, str] | None = None
    ) -> tuple[dict, str]:
        """Verified manifest + fingerprint of an upstream stage.

        When the upstream manifest recorded its own inputs they are checked
        against the fingerprints this run resolved, so a stale middle stage
        cannot silently feed a newer downstream one.
        """
        fingerprint = self.verify(stage, config_hash=config_hash)
        manifest = self.load_manifest(stage)
        for name, fp in (inputs or {}).items():
            recorded = manifest["inputs"].get(name)
            if recorded is not None and recorded != fp:
                raise FingerprintMismatch(
                    f"stage {stage!r} consumed {name!r} at {recorded[:12]}..., "
                    f"but that stage now fingerprints to {fp[:12]}...; "
                    f"re-run {stage!r}"
                )
        return manifest, fingerprint
