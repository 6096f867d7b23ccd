import os
from types import SimpleNamespace

import numpy as np
import pytest

from gaslift_twin import hyperband as hb
from gaslift_twin.errors import GasLiftError
from gaslift_twin.structure import NarxLayout, assemble_narx_dataset


def tiny_dataset(seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    U = np.repeat(rng.uniform(1.0, 5.0, size=(20, 4)), 15, axis=0)
    Y = np.empty((300, 6))
    y = np.zeros(6)
    for t in range(300):
        y = 0.6 * y + 0.1 * U[t, :3].sum() + 0.05 * np.arange(1, 7)
        Y[t] = y
    ds = assemble_narx_dataset(Y, U, hold=15, layout=NarxLayout(1, 1), seed=seed)
    return ds["well1_mg"]


class TestBracketSchedule:
    def test_reference_table_r81(self):
        sched = hb.bracket_schedule(hb.HyperbandConfig(max_resource=81, eta=3))
        starts = [(b["bracket"], b["n_start"]) for b in sched]
        assert starts == [(4, 81), (3, 34), (2, 15), (1, 8), (0, 5)]
        top = sched[0]["rungs"]
        assert [(r["n"], r["epochs"]) for r in top] == [
            (81, 1), (27, 3), (9, 9), (3, 27), (1, 81),
        ]

    def test_smallest_legal_config(self):
        sched = hb.bracket_schedule(hb.HyperbandConfig(max_resource=3, eta=3))
        assert len(sched) == 2
        assert [(r["n"], r["epochs"]) for r in sched[0]["rungs"]] == [(3, 1), (1, 3)]
        assert [(r["n"], r["epochs"]) for r in sched[1]["rungs"]] == [(2, 3)]

    def test_desk_schedule(self):
        sched = hb.bracket_schedule(hb.HyperbandConfig(max_resource=27, eta=3))
        assert [b["n_start"] for b in sched] == [27, 12, 6, 4]
        for b in sched:
            for r in b["rungs"]:
                assert 1 <= r["epochs"] <= 27

    def test_rung_populations_follow_floor_rule(self):
        for R, eta in ((81, 3), (27, 3), (16, 2), (64, 4)):
            for b in hb.bracket_schedule(hb.HyperbandConfig(max_resource=R, eta=eta)):
                n = b["n_start"]
                for i, r in enumerate(b["rungs"]):
                    assert r["n"] == int(np.floor(n * eta ** (-i)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            hb.HyperbandConfig(max_resource=2, eta=3)
        with pytest.raises(ValueError):
            hb.HyperbandConfig(max_resource=9, eta=1)


class TestSampleConfig:
    FIXED = {"seed": 3, "batch_size": 32, "epochs": 27}

    def test_reproducible_for_seeded_rng(self):
        a = hb.sample_config(hb.SearchSpace(), 10, np.random.Generator(np.random.PCG64(5)),
                             **self.FIXED)
        b = hb.sample_config(hb.SearchSpace(), 10, np.random.Generator(np.random.PCG64(5)),
                             **self.FIXED)
        assert a == b
        assert (a.seed, a.batch_size, a.epochs) == (3, 32, 27)

    def test_fields_stay_inside_search_space(self):
        space = hb.SearchSpace()
        rng = np.random.Generator(np.random.PCG64(0))
        seen_rates = set()
        for _ in range(1000):
            spec = hb.sample_config(space, 10, rng, **self.FIXED)
            seen_rates.add(spec.learning_rate)
            n_dense = len(spec.layer_sizes) - 1
            assert n_dense in space.dense_counts
            assert spec.layer_sizes[0] == 10
            assert spec.layer_sizes[-1] == 1
            assert spec.activations[-1] == "linear"
            for width in spec.layer_sizes[1:-1]:
                assert width in space.widths
            for act in spec.activations[:-1]:
                assert act in space.activations
        assert seen_rates == set(space.learning_rates)


class TestHyperband:
    def _space(self):
        return hb.SearchSpace(
            learning_rates=(1e-2, 1e-1), dense_counts=(1, 2), widths=(4, 8)
        )

    def test_best_is_global_argmin_over_trials(self):
        res = hb.hyperband(
            tiny_dataset(), self._space(), hb.HyperbandConfig(max_resource=9, eta=3, seed=1)
        )
        finite = [t for t in res.trials if np.isfinite(t.val_loss)]
        assert res.best_loss == min(t.val_loss for t in finite)
        assert np.isfinite(res.best_loss)

    def test_survivors_are_lowest_loss_with_tie_by_id(self):
        res = hb.hyperband(
            tiny_dataset(), self._space(), hb.HyperbandConfig(max_resource=9, eta=3, seed=2)
        )
        sched = hb.bracket_schedule(hb.HyperbandConfig(max_resource=9, eta=3, seed=2))
        by_bracket_rung = {}
        for t in res.trials:
            by_bracket_rung.setdefault((t.bracket, t.rung), []).append(t)
        for b in sched:
            s = b["bracket"]
            for i, rung in enumerate(b["rungs"][:-1]):
                here = by_bracket_rung.get((s, i), [])
                nxt = by_bracket_rung.get((s, i + 1), [])
                keep = int(np.floor(rung["n"] / 3))
                ranked = sorted(
                    (t for t in here if np.isfinite(t.val_loss)),
                    key=lambda t: (t.val_loss, t.trial_id),
                )
                expected = {t.trial_id for t in ranked[:keep]}
                assert {t.trial_id for t in nxt} == expected

    def test_epochs_match_rung_resource(self):
        cfg = hb.HyperbandConfig(max_resource=9, eta=3, seed=3)
        res = hb.hyperband(tiny_dataset(), self._space(), cfg)
        sched = {(b["bracket"], i): r["epochs"]
                 for b in hb.bracket_schedule(cfg)
                 for i, r in enumerate(b["rungs"])}
        for t in res.trials:
            assert t.epochs == sched[(t.bracket, t.rung)]
            assert t.epochs <= cfg.max_resource

    def test_total_epoch_budget(self):
        cfg = hb.HyperbandConfig(max_resource=9, eta=3, seed=4)
        res = hb.hyperband(tiny_dataset(), self._space(), cfg)
        assert res.total_epochs <= (cfg.s_max + 1) ** 2 * cfg.max_resource

    def test_deterministic_for_seed(self):
        cfg = hb.HyperbandConfig(max_resource=9, eta=3, seed=5)
        a = hb.hyperband(tiny_dataset(), self._space(), cfg)
        b = hb.hyperband(tiny_dataset(), self._space(), cfg)
        assert len(a.trials) == len(b.trials)
        for ta, tb in zip(a.trials, b.trials):
            assert ta.spec.layer_sizes == tb.spec.layer_sizes
            assert ta.val_loss == tb.val_loss
        assert a.best_loss == b.best_loss

    def test_failed_trials_score_infinity_and_drop_out(self):
        # half the draws get a ruinous learning rate and must diverge
        space = hb.SearchSpace(
            learning_rates=(1e200, 1e-2), dense_counts=(1,), widths=(4,)
        )
        res = hb.hyperband(
            tiny_dataset(), space, hb.HyperbandConfig(max_resource=9, eta=3, seed=0)
        )
        failed = [t for t in res.trials if not np.isfinite(t.val_loss)]
        assert failed
        survivors = {
            t.trial_id for t in res.trials if t.rung > 0
        }
        assert not survivors & {t.trial_id for t in failed}
        assert np.isfinite(res.best_loss)

    def test_all_trials_failing_raises(self):
        space = hb.SearchSpace(learning_rates=(1e200,), dense_counts=(1,), widths=(4,))
        with pytest.raises(GasLiftError):
            hb.hyperband(
                tiny_dataset(), space, hb.HyperbandConfig(max_resource=3, eta=3, seed=0)
            )


class TestForkedBrackets:
    SPACES = {
        "small": hb.SearchSpace(learning_rates=(1e-2, 1e-1), dense_counts=(1, 2),
                                widths=(4, 8)),
        # half the draws diverge, so failed trials are merged as well
        "failing": hb.SearchSpace(learning_rates=(1e200, 1e-2), dense_counts=(1, 2),
                                  widths=(4,)),
    }

    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential_reference(self, hyperband_reference, space, seed):
        ds = tiny_dataset(seed)
        cfg = hb.HyperbandConfig(max_resource=9, eta=3, seed=seed)
        got = hb.hyperband(ds, self.SPACES[space], cfg)
        # every record field, val_loss exactly, in order, and the winner
        assert got == hyperband_reference(ds, self.SPACES[space], cfg)
        if space == "failing":
            assert not all(np.isfinite(t.val_loss) for t in got.trials)

    def test_one_cpu_searches_in_this_process(self, hyperband_reference, monkeypatch, no_children):
        ds = tiny_dataset(4)
        cfg = hb.HyperbandConfig(max_resource=9, eta=3, seed=4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        def no_fork():
            raise AssertionError("a one-CPU search started a child process")

        monkeypatch.setattr(os, "fork", no_fork)
        got = hb.hyperband(ds, self.SPACES["failing"], cfg)
        no_children()
        assert got == hyperband_reference(ds, self.SPACES["failing"], cfg)

    def test_ties_go_to_the_earliest_trial(self, monkeypatch):
        def flat(dataset, spec, **kwargs):
            return SimpleNamespace(val_loss=(0.5,), weights=None)

        monkeypatch.setattr(hb, "train_channel", flat)
        res = hb.hyperband(tiny_dataset(), self.SPACES["small"],
                           hb.HyperbandConfig(max_resource=9, eta=3, seed=0))
        assert res.trials[0].trial_id == 0
        assert (res.best_spec, res.best_loss) == (res.trials[0].spec, 0.5)

    def test_no_worker_outlives_a_search(self, no_children):
        hb.hyperband(tiny_dataset(), self.SPACES["small"],
                     hb.HyperbandConfig(max_resource=9, eta=3, seed=0))
        no_children()

    def test_no_worker_outlives_a_failed_search(self, no_children):
        space = hb.SearchSpace(learning_rates=(1e200,), dense_counts=(1,), widths=(4,))
        with pytest.raises(GasLiftError, match="every trial failed"):
            hb.hyperband(tiny_dataset(), space,
                         hb.HyperbandConfig(max_resource=9, eta=3, seed=0))
        no_children()

    def test_worker_error_reaches_the_caller_with_its_type(self, monkeypatch, no_children):
        # the fork carries the patched module into every worker
        def broken(*args, **kwargs):
            raise ValueError("broken trial")

        monkeypatch.setattr(hb, "train_channel", broken)
        with pytest.raises(ValueError, match="broken trial"):
            hb.hyperband(tiny_dataset(), self.SPACES["small"],
                         hb.HyperbandConfig(max_resource=9, eta=3, seed=0))
        no_children()
