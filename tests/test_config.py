"""Strict parsing of the flat key=value configuration and its stage hashes."""

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from gaslift_twin import cli
from gaslift_twin.config import REGISTRY, default_config, describe_keys, parse_config
from gaslift_twin.errors import ConfigError, IoFailure, RangeViolation, TypeMismatch

PAPER_CFG = Path(__file__).resolve().parents[1] / "configs" / "paper.cfg"

# sha256 of default_config().canonical_text(); a changed default, key or
# rendering moves it, and with it every artifact's config stamp
DEFAULT_CONFIG_HASH = "032ca26d5cd7605beba6c5e1b2144d014ab3b05ad429fd877c99c3ca2d6db09e"


def parse_text(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return parse_config(path)


def raises_exactly(kind, tmp_path, text):
    """The parse error of ``text``, required to be a ``kind`` and no subclass."""
    with pytest.raises(kind) as info:
        parse_text(tmp_path, text)
    assert info.type is kind
    return str(info.value)


class TestParse:
    def test_empty_file_takes_every_default(self, tmp_path):
        assert parse_text(tmp_path, "# nothing set\n\n") == default_config()

    def test_values_are_converted(self, tmp_path):
        cfg = parse_text(tmp_path, "doe.n = 12\ndoe.hold = 30\nsil.scenarios = 2\n")
        assert (cfg.doe.n, cfg.doe.hold, cfg.sil.scenarios) == (12, 30.0, "2")
        assert isinstance(cfg.doe.hold, float)

    @pytest.mark.parametrize("raw", ["1.5", "12a", "", "1e3"])
    def test_non_integer_is_a_type_mismatch(self, tmp_path, raw):
        message = raises_exactly(TypeMismatch, tmp_path, f"doe.n = {raw}\n")
        assert message.startswith("doe.n:")

    def test_non_number_is_a_type_mismatch(self, tmp_path):
        message = raises_exactly(TypeMismatch, tmp_path, "doe.hold = long\n")
        assert message.startswith("doe.hold:")

    def test_malformed_line_is_a_type_mismatch(self, tmp_path):
        message = raises_exactly(TypeMismatch, tmp_path, "doe.n = 12\ndoe.seed 5\n")
        assert "line 2" in message

    @pytest.mark.parametrize("key, raw, legal", [
        ("doe.n", "0", ">= 1"),
        ("structure.n_max", "21", "1..20"),
        ("cognitive.confidence", "1.0", "in (0, 1)"),
        ("mcmc.proposal", "0", "> 0"),
        ("hyperband.channel", "nope",
         "one of well1_mg, well1_ml, well2_mg, well2_ml, well3_mg, well3_ml"),
    ])
    def test_out_of_range_names_key_and_range(self, tmp_path, key, raw, legal):
        message = raises_exactly(RangeViolation, tmp_path, f"{key} = {raw}\n")
        assert message.startswith(f"{key}:")
        assert message.endswith(f"legal range {legal}")

    def test_unknown_tune_channel_stops_gen_data(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"paths.data_dir = {tmp_path / 'data'}\nhyperband.channel = nope\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(err):
            rc = cli.main(["--config", str(path), "gen-data"])
        assert (rc, out.getvalue()) == (1, "")
        [line] = err.getvalue().splitlines()
        error = json.loads(line)
        assert error["error"] == "RangeViolation"
        assert error["message"].startswith("hyperband.channel:")
        assert not (tmp_path / "data").exists()

    def test_duplicate_key_is_a_config_error(self, tmp_path):
        message = raises_exactly(ConfigError, tmp_path, "doe.n = 12\ndoe.n = 13\n")
        assert "'doe.n'" in message and "line 2" in message

    def test_missing_file_is_an_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            parse_config(tmp_path / "absent.cfg")


class TestCrossChecks:
    @pytest.mark.parametrize("text, key", [
        ("training.train_frac = 0.8\n", "training.train_frac"),
        ("cognitive.MH = 10\ncognitive.CT = 11\n", "cognitive.CT"),
        ("mcmc.samples = 100\nmcmc.burn_in = 100\n", "mcmc.burn_in"),
        ("hyperband.r_max = 2\nhyperband.eta = 3\n", "hyperband.r_max"),
        ("reduction.sizes = 50, 100\n", "reduction.sizes"),
        ("reduction.sizes = 100, 0\n", "reduction.sizes"),
        ("sil.scenarios = 1, 4\n", "sil.scenarios"),
        ("sil.scenarios = 2, 2\n", "sil.scenarios"),
    ])
    def test_each_cross_check_is_a_range_violation(self, tmp_path, text, key):
        message = raises_exactly(RangeViolation, tmp_path, text)
        assert message.startswith(f"{key}:")

    @pytest.mark.parametrize("text, key", [
        ("reduction.sizes = many\n", "reduction.sizes"),
        ("sil.scenarios = one\n", "sil.scenarios"),
    ])
    def test_unparsable_lists_are_type_mismatches(self, tmp_path, text, key):
        message = raises_exactly(TypeMismatch, tmp_path, text)
        assert message.startswith(f"{key}:")

    def test_valid_lists_parse(self, tmp_path):
        cfg = parse_text(tmp_path, "reduction.sizes = 100, 50\nsil.scenarios = 3, 1\n")
        assert cfg.reduction_sizes(80) == (50,)
        assert cfg.scenario_ids() == (3, 1)


def test_describe_keys_has_one_line_per_key():
    lines = describe_keys().splitlines()
    assert [line.split()[0] for line in lines] == sorted(REGISTRY)


def test_paper_profile_restates_the_defaults():
    assert parse_config(PAPER_CFG) == default_config()


def test_default_config_hash_is_pinned():
    assert default_config().config_hash == DEFAULT_CONFIG_HASH


def test_mcmc_seed_moves_only_the_stages_that_read_it():
    cfg = default_config()
    other = replace(cfg, mcmc=replace(cfg.mcmc, seed=cfg.mcmc.seed + 1))
    assert other.stage_hash("mcmc") != cfg.stage_hash("mcmc")
    for stage in ("gen-data", "fit"):
        assert other.stage_hash(stage) == cfg.stage_hash(stage)
