import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaslift_twin import structure
from gaslift_twin.errors import (
    AllPairsDegenerate,
    InsufficientPairs,
    NoPlateau,
    TooShortPlateau,
)
from gaslift_twin.structure import (
    NarxLayout,
    NormalizationSpec,
    assemble_narx_dataset,
    build_lag_matrix,
    lipschitz_coefficients,
    lipschitz_index,
    plateau_order,
    select_embedding_channel,
    split_rows,
    valid_target_rows,
)


def held_input(n_steps: int, hold: int, rng, lo=-1.0, hi=1.0) -> np.ndarray:
    """Piecewise-constant excitation: one uniform draw per plateau."""
    vals = rng.uniform(lo, hi, size=int(np.ceil(n_steps / hold)))
    return np.repeat(vals, hold)[:n_steps]


def simulate_known_order(u: np.ndarray, kind: str) -> np.ndarray:
    # u[t] is the sample driving the step into y[t], matching the plant log
    y = np.zeros(len(u))
    y1 = y2 = 0.0
    for t in range(len(u)):
        if kind == "first":
            y[t] = 0.5 * y1 + 0.4 * u[t]
        elif kind == "oscillatory":
            y[t] = 0.5 * y1 - 0.45 * y2 + 0.4 * u[t]
        elif kind == "nonlinear":
            y[t] = 0.6 * y1 - 0.4 * y2 + 0.4 * u[t] + 0.1 * y1 * u[t]
        else:
            raise ValueError(kind)
        y2, y1 = y1, y[t]
    return y


class TestLipschitzCoefficients:
    def test_constant_output_all_zero(self):
        rng = np.random.Generator(np.random.PCG64(0))
        X = rng.normal(size=(40, 3))
        q = lipschitz_coefficients(X, np.full(40, 7.0))
        assert q.shape == (40 * 39 // 2,)
        assert (q == 0.0).all()

    def test_linear_scalar_map_constant_quotient(self):
        x = np.linspace(-2.0, 5.0, 30)
        q = lipschitz_coefficients(x[:, None], 3.0 * x)
        assert np.allclose(q, 3.0, rtol=1e-12)

    def test_matches_brute_force_enumeration(self):
        # hold=2 keeps every regressor pair well separated
        rng = np.random.Generator(np.random.PCG64(7))
        u = held_input(300, 2, rng)
        y = simulate_known_order(u, "first")
        layout = NarxLayout(n_b=1, n_a=1, n_u=1)
        X, t, _ = build_lag_matrix(y, u[:, None], layout, hold=2)
        q = lipschitz_coefficients(X, t)
        ref = []
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                d2 = float(np.sum((X[i] - X[j]) ** 2))
                if d2 > 1e-20:
                    ref.append(abs(t[i] - t[j]) / np.sqrt(d2))
        assert np.allclose(q, np.array(ref), rtol=1e-9)

    def test_first_order_quotients_bounded_by_gain(self):
        # |dy| <= ||(0.5, 0.4)|| * ||dx|| when x = (y(t-1), u(t-1)); short
        # holds keep pair distances large enough that rounding in the
        # pairwise-distance evaluation stays negligible
        rng = np.random.Generator(np.random.PCG64(3))
        u = held_input(1200, 2, rng)
        y = simulate_known_order(u, "first")
        X, t, _ = build_lag_matrix(y, u[:, None], NarxLayout(1, 1, 1), hold=2)
        q = lipschitz_coefficients(X, t)
        assert np.isfinite(q).all()
        assert q.max() <= np.sqrt(0.5**2 + 0.4**2) + 1e-9

    def test_all_pairs_coincident_raises(self):
        X = np.ones((10, 2))
        with pytest.raises(AllPairsDegenerate):
            lipschitz_coefficients(X, np.arange(10.0))

    def test_too_few_samples(self):
        with pytest.raises(InsufficientPairs):
            lipschitz_coefficients(np.ones((1, 2)), np.array([1.0]))

    def test_sampled_path_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(11))
        X = rng.normal(size=(2100, 3))
        y = rng.normal(size=2100)
        a = lipschitz_coefficients(X, y, seed=4)
        b = lipschitz_coefficients(X, y, seed=4)
        assert len(a) <= 2000 * 2100
        assert (a == b).all()

    @given(e=st.integers(-10, 10), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_output_scale_law_exact(self, e, seed):
        # power-of-two output scaling multiplies every quotient exactly
        rng = np.random.Generator(np.random.PCG64(seed))
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        k = 2.0**e
        assert (lipschitz_coefficients(X, k * y) == k * lipschitz_coefficients(X, y)).all()


class TestLipschitzPairs:
    """The all-pairs path computes each pair i < j alone; the full n x n
    matrices it replaced, kept as the reference, must match byte for byte."""

    @staticmethod
    def _assert_same(reference, X, y):
        want = reference(X, y)
        if len(want) == 0:
            with pytest.raises(AllPairsDegenerate):
                lipschitz_coefficients(X, y)
            return
        got = lipschitz_coefficients(X, y)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(st.integers(2, 60), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_rows_and_tied_targets(self, lipschitz_reference, n_rows, n_cols,
                                             seed):
        # few distinct values, then copied rows: zero distances and tied
        # targets are common
        rng = np.random.Generator(np.random.PCG64(seed))
        X = rng.integers(-1, 2, size=(n_rows, n_cols)).astype(float)
        X[rng.integers(0, n_rows, n_rows // 3)] = X[rng.integers(0, n_rows, n_rows // 3)]
        y = rng.integers(0, 3, size=n_rows).astype(float)
        self._assert_same(lipschitz_reference, X, y)

    def test_an_embedding_level(self, lipschitz_reference):
        # a 200-row level of held-input lags, as select-structure computes it
        rng = np.random.Generator(np.random.PCG64(8))
        u = held_input(400, 25, rng)
        y = simulate_known_order(u, "nonlinear")
        X, t, _ = build_lag_matrix(y, u[:, None], NarxLayout(3, 3, 1), hold=25)
        self._assert_same(lipschitz_reference, X[:200], t[:200])


class TestLipschitzIndex:
    def test_p_one_is_scaled_maximum(self):
        q = np.array([0.3, 2.0, 1.1, 0.7])
        assert lipschitz_index(q, 3, p=1) == pytest.approx(np.sqrt(3) * 2.0, rel=1e-12)

    def test_all_equal_quotients(self):
        q = np.full(50, 2.5)
        assert lipschitz_index(q, 4, p=3) == pytest.approx(2.0 * 2.5, rel=1e-12)

    def test_zero_quotients_give_zero_index(self):
        assert lipschitz_index(np.zeros(20), 5, p=1) == 0.0

    def test_geometric_mean_of_p_largest(self):
        q = np.linspace(0.1, 1.0, 200)
        expect = np.sqrt(2) * np.exp(np.mean(np.log(q[-3:])))
        assert lipschitz_index(q, 2, p=3) == pytest.approx(expect, rel=1e-12)

    def test_insufficient_quotients(self):
        with pytest.raises(InsufficientPairs):
            lipschitz_index(np.array([1.0, 2.0]), 1, p=5)

    @given(e=st.integers(-8, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_index_scale_law(self, e, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        q = rng.uniform(0.1, 5.0, size=80)
        k = 2.0**e
        assert lipschitz_index(k * q, 3, p=2) == pytest.approx(
            k * lipschitz_index(q, 3, p=2), rel=1e-12
        )


class TestUniqueColumns:
    """``_unique_columns`` stands in for ``np.unique(X, axis=1)``: same
    values, same column order, same strides (F-contiguous)."""

    @staticmethod
    def _assert_same(X):
        got, want = structure._unique_columns(X), np.unique(X, axis=1)
        assert got.shape == want.shape
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert got.strides == want.strides
        assert got.flags.f_contiguous == want.flags.f_contiguous

    def test_held_input_lags_collapse(self):
        rng = np.random.Generator(np.random.PCG64(0))
        y = rng.random((50, 4))
        u = np.repeat(rng.random((50, 3, 1)), 4, axis=2).reshape(50, 12)
        X = np.concatenate([y, u], axis=1)
        self._assert_same(X)
        assert structure._unique_columns(X).shape == (50, 7)

    def test_ties_in_the_leading_rows(self):
        # columns agree on their first rows and differ only further down
        X = np.array([[1.0, 1.0, 1.0, 0.0, 1.0, 0.0],
                      [2.0, 2.0, 2.0, 5.0, 2.0, 5.0],
                      [3.0, -1.0, 3.0, 0.0, 0.5, 0.0]])
        self._assert_same(X)
        assert structure._unique_columns(X).shape == (3, 4)

    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_small_integer_matrices(self, n_rows, n_cols, seed):
        # few distinct values, so duplicate columns and ties are common
        rng = np.random.Generator(np.random.PCG64(seed))
        self._assert_same(rng.integers(-1, 2, size=(n_rows, n_cols)).astype(float))


class TestSelectEmbeddingLevels:
    def test_each_level_is_computed_once(self, monkeypatch):
        calls = []
        real = structure.lipschitz_coefficients

        def counting(X, y, **kwargs):
            calls.append(X.shape[1])
            return real(X, y, **kwargs)

        monkeypatch.setattr(structure, "lipschitz_coefficients", counting)
        rng = np.random.Generator(np.random.PCG64(3))
        u = held_input(600, 25, rng)
        y = simulate_known_order(u, "oscillatory")
        a = select_embedding_channel(y, u[:, None], hold=25, n_max=6, seed=3)
        j = a.joint_order
        levels = ({(n, n) for n in a.n_values} | {(nb, j) for nb in range(1, j + 1)}
                  | {(a.n_b, na) for na in range(1, j + 1)})
        assert len(calls) == len(levels)
        assert len(calls) < len(a.n_values) + 2 * j


class TestPlateauOrder:
    def test_first_small_step_wins(self):
        levels = [10.0, 5.0, 3.0, 2.9, 2.89]
        assert plateau_order(levels, 0.05) == 3

    def test_growing_curve_never_flattens(self):
        assert plateau_order([1.0, 2.0, 4.0, 8.0], 0.05) is None

    def test_flat_from_start(self):
        assert plateau_order([1.0, 1.001, 1.002], 0.05) == 1

    @given(
        levels=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=12),
        t1=st.floats(0.001, 0.5),
        t2=st.floats(0.001, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_looser_tolerance_never_selects_larger(self, levels, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        at_lo = plateau_order(levels, lo)
        at_hi = plateau_order(levels, hi)
        if at_lo is not None:
            assert at_hi is not None
            assert at_hi <= at_lo


class TestValidTargetRows:
    def test_rows_respect_plateau_boundaries(self):
        rows = valid_target_rows(12, hold=4, max_lag=2)
        assert rows.tolist() == [2, 3, 6, 7, 10, 11]

    def test_three_sample_plateau_first_order(self):
        rows = valid_target_rows(3, hold=3, max_lag=1)
        assert rows.tolist() == [1, 2]

    def test_plateau_shorter_than_lag_window(self):
        with pytest.raises(TooShortPlateau):
            valid_target_rows(20, hold=2, max_lag=2)


class TestBuildLagMatrix:
    def test_first_order_three_sample_plateau(self):
        y = np.array([1.0, 2.0, 3.0])
        U = np.array([[10.0], [20.0], [30.0]])
        X, t, rows = build_lag_matrix(y, U, NarxLayout(1, 1, 1), hold=3)
        assert X.shape == (2, 2)
        assert t.tolist() == [2.0, 3.0]
        assert rows.tolist() == [1, 2]
        # column order: y lag then input lag
        assert X.tolist() == [[1.0, 20.0], [2.0, 30.0]]

    def test_input_lag_one_sits_on_target_row(self):
        # y(t) = u(t-1) with the held sample logged on the row it produced
        rng = np.random.Generator(np.random.PCG64(2))
        u = held_input(200, 10, rng)
        y = u.copy()
        X, t, _ = build_lag_matrix(y, u[:, None], NarxLayout(1, 1, 1), hold=10)
        assert (X[:, 1] == t).all()

    def test_lag_window_never_crosses_plateau(self):
        hold = 6
        n_plat = 8
        u = np.repeat(np.arange(1.0, n_plat + 1), hold)
        y = np.arange(len(u), dtype=float)
        layout = NarxLayout(n_b=3, n_a=3, n_u=1)
        X, _, rows = build_lag_matrix(y, u[:, None], layout, hold=hold)
        plateau = rows // hold
        for k in range(layout.n_a):
            assert (X[:, layout.n_b + k] == plateau + 1.0).all()
        for k in range(layout.n_b):
            assert ((rows - 1 - k) // hold == plateau).all()

    def test_deep_output_lags(self):
        y = np.arange(30.0)
        U = np.ones((30, 2))
        X, t, rows = build_lag_matrix(y, U, NarxLayout(4, 1, 2), hold=10)
        assert (X[:, 0] == t - 1).all()
        assert (X[:, 3] == t - 4).all()

    def test_empty_row_set(self):
        with pytest.raises(TooShortPlateau):
            build_lag_matrix(
                np.arange(10.0),
                np.ones((10, 1)),
                NarxLayout(1, 1, 1),
                hold=5,
                rows=np.array([], dtype=int),
            )


class TestNarxLayout:
    def test_width_and_max_lag(self):
        layout = NarxLayout(n_b=6, n_a=1, n_u=4)
        assert layout.width == 10
        assert layout.max_lag == 6

    def test_rejects_nonpositive_lags(self):
        with pytest.raises(ValueError):
            NarxLayout(n_b=0, n_a=1)
        with pytest.raises(ValueError):
            NarxLayout(n_b=1, n_a=-2)


class TestSelectEmbedding:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_order_recovered(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        u = held_input(2000, 25, rng)
        y = simulate_known_order(u, "first")
        a = select_embedding_channel(y, u[:, None], hold=25, seed=seed)
        assert (a.n_a, a.n_b) == (1, 1)
        assert a.joint_order == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_second_order_oscillatory_recovered(self, seed):
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        u = held_input(2000, 25, rng)
        y = simulate_known_order(u, "oscillatory")
        a = select_embedding_channel(y, u[:, None], hold=25, seed=seed)
        assert (a.n_a, a.n_b) == (1, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_second_order_nonlinear_recovered(self, seed):
        rng = np.random.Generator(np.random.PCG64(200 + seed))
        u = held_input(2000, 25, rng)
        y = simulate_known_order(u, "nonlinear")
        a = select_embedding_channel(y, u[:, None], hold=25, seed=seed)
        assert (a.n_a, a.n_b) == (1, 2)

    def test_pure_input_map_needs_single_input_lag(self):
        rng = np.random.Generator(np.random.PCG64(5))
        u = held_input(2000, 25, rng)
        a = select_embedding_channel(u.copy(), u[:, None], hold=25, seed=5)
        assert a.n_a == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_white_noise_has_no_plateau(self, seed):
        rng = np.random.Generator(np.random.PCG64(300 + seed))
        u = held_input(2000, 25, rng)
        y = rng.standard_normal(2000)
        with pytest.raises(NoPlateau):
            select_embedding_channel(y, u[:, None], hold=25, seed=seed)

    def test_reported_index_carries_width_factor(self):
        rng = np.random.Generator(np.random.PCG64(8))
        u = held_input(2000, 25, rng)
        y = simulate_known_order(u, "oscillatory")
        a = select_embedding_channel(y, u[:, None], hold=25, seed=8)
        for n, idx, lvl in zip(a.n_values, a.joint_index, a.joint_curve):
            assert idx == pytest.approx(np.sqrt(2 * n) * lvl, rel=1e-12)

    def test_deterministic_for_seed(self):
        rng = np.random.Generator(np.random.PCG64(9))
        u = held_input(2000, 25, rng)
        y = simulate_known_order(u, "nonlinear")
        a = select_embedding_channel(y, u[:, None], hold=25, seed=9)
        b = select_embedding_channel(y, u[:, None], hold=25, seed=9)
        assert a == b


class TestSplitRows:
    def test_large_corpus_counts(self):
        tr, va, te = split_rows(400_000, (0.7, 0.15, 0.15), seed=5)
        assert (len(tr), len(va), len(te)) == (280_000, 60_000, 60_000)
        merged = np.concatenate([tr, va, te])
        assert len(np.unique(merged)) == 400_000

    def test_sorted_and_disjoint(self):
        tr, va, te = split_rows(101, (0.7, 0.15, 0.15), seed=1)
        for part in (tr, va, te):
            assert (np.diff(part) > 0).all()
        assert not (set(tr) & set(va) or set(tr) & set(te) or set(va) & set(te))

    def test_invalid_ratios(self):
        with pytest.raises(ValueError):
            split_rows(100, (0.5, 0.5, 0.5), seed=0)

    @given(n=st.integers(10, 5000), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_counts_within_one_of_ratio(self, n, seed):
        tr, va, te = split_rows(n, (0.7, 0.15, 0.15), seed=seed)
        assert abs(len(tr) - 0.7 * n) <= 1
        assert abs(len(va) - 0.15 * n) <= 1
        assert abs(len(te) - 0.15 * n) <= 1
        assert len(tr) + len(va) + len(te) == n


class TestNormalizationSpec:
    def _spec(self):
        return NormalizationSpec(
            y_min=-1.0, y_max=3.0, u_min=np.array([0.0, 10.0]), u_max=np.array([2.0, 30.0])
        )

    def test_target_round_trip(self):
        spec = self._spec()
        y = np.array([-1.0, 0.5, 3.0])
        assert np.allclose(spec.denormalize_target(spec.normalize_target(y)), y, rtol=1e-14)

    def test_constant_channel_uses_unit_scale(self):
        spec = NormalizationSpec(2.0, 2.0, np.array([1.0]), np.array([1.0]))
        assert spec.normalize_target(np.array([2.0]))[0] == 0.0
        assert spec.denormalize_target(np.array([0.0]))[0] == 2.0

    def test_covers_and_expanded(self):
        spec = self._spec()
        y_in = np.array([0.0, 2.0])
        U_in = np.array([[1.0, 20.0]])
        assert spec.covers(y_in, U_in)
        same = spec.expanded(y_in, U_in)
        assert (same.y_min, same.y_max) == (spec.y_min, spec.y_max)
        assert (same.u_min == spec.u_min).all() and (same.u_max == spec.u_max).all()

        y_out = np.array([5.0])
        U_out = np.array([[3.0, 5.0]])
        assert not spec.covers(y_out, U_out)
        wider = spec.expanded(y_out, U_out)
        assert wider.y_max == 5.0
        assert wider.u_max[0] == 3.0
        assert wider.u_min[1] == 5.0
        assert wider.covers(y_out, U_out)


class TestAssembleNarxDataset:
    def _corpus(self, seed=0, n_plat=30, hold=20):
        rng = np.random.Generator(np.random.PCG64(seed))
        U = np.repeat(rng.uniform(1.0, 5.0, size=(n_plat, 4)), hold, axis=0)
        Y = np.cumsum(rng.normal(size=(n_plat * hold, 6)), axis=0) * 0.01 + 1.0
        return Y, U

    def test_shared_rows_and_split_across_channels(self):
        Y, U = self._corpus()
        ds = assemble_narx_dataset(Y, U, hold=20, layout=NarxLayout(2, 1), seed=3)
        assert set(ds) == set(
            ("well1_mg", "well1_ml", "well2_mg", "well2_ml", "well3_mg", "well3_ml")
        )
        first = next(iter(ds.values()))
        for d in ds.values():
            assert (d.source_rows == first.source_rows).all()
            assert (d.train_idx == first.train_idx).all()
            assert (d.val_idx == first.val_idx).all()
            assert (d.test_idx == first.test_idx).all()

    def test_split_counts(self):
        Y, U = self._corpus()
        ds = assemble_narx_dataset(Y, U, hold=20, layout=NarxLayout(2, 1), seed=3)
        d = ds["well1_mg"]
        n = len(d.targets)
        assert abs(len(d.train_idx) - 0.7 * n) <= 1
        assert abs(len(d.val_idx) - 0.15 * n) <= 1
        assert len(d.train_idx) + len(d.val_idx) + len(d.test_idx) == n

    def test_train_rows_normalize_into_unit_box(self):
        Y, U = self._corpus(seed=4)
        ds = assemble_narx_dataset(Y, U, hold=20, layout=NarxLayout(3, 2), seed=1)
        for d in ds.values():
            Xn, yn = d.normalized_split("train")
            assert Xn.min() >= 0.0 and Xn.max() <= 1.0
            assert yn.min() >= 0.0 and yn.max() <= 1.0

    @pytest.mark.parametrize("which", ["train", "val", "test"])
    def test_each_split_is_normalized_once_and_read_only(self, which):
        Y, U = self._corpus(seed=8)
        ds = assemble_narx_dataset(Y, U, hold=20, layout=NarxLayout(2, 2), seed=4)
        d = ds["well1_mg"]
        X, y = d.normalized_split(which)
        again = d.normalized_split(which)
        assert again[0] is X and again[1] is y
        idx = d.split(which)
        fresh = d.norm.normalize_regressors(d.regressors[idx], d.layout)
        assert X.tobytes() == fresh.tobytes()
        assert y.tobytes() == d.norm.normalize_target(d.targets[idx]).tobytes()
        for a in (X, y):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_normalization_round_trip_on_train(self):
        Y, U = self._corpus(seed=5)
        ds = assemble_narx_dataset(Y, U, hold=20, layout=NarxLayout(2, 2), seed=2)
        d = ds["well2_ml"]
        _, yn = d.normalized_split("train")
        back = d.norm.denormalize_target(yn)
        assert np.allclose(back, d.targets[d.train_idx], rtol=1e-12)

    def test_regressor_columns_follow_layout(self):
        Y, U = self._corpus(seed=6)
        layout = NarxLayout(n_b=2, n_a=2, n_u=4)
        ds = assemble_narx_dataset(Y, U, hold=20, layout=layout, seed=0)
        d = ds["well3_mg"]
        rows = d.source_rows
        assert (d.regressors[:, 0] == Y[rows - 1, 4]).all()
        assert (d.regressors[:, 1] == Y[rows - 2, 4]).all()
        # input block for channel j starts at n_b + j*n_a, lag 1 first
        assert (d.regressors[:, 2] == U[rows, 0]).all()
        assert (d.regressors[:, 3] == U[rows - 1, 0]).all()

    def test_deterministic_assembly(self):
        Y, U = self._corpus(seed=7)
        a = assemble_narx_dataset(Y, U, hold=20, layout=NarxLayout(2, 1), seed=9)
        b = assemble_narx_dataset(Y, U, hold=20, layout=NarxLayout(2, 1), seed=9)
        da, db = a["well1_ml"], b["well1_ml"]
        assert (da.regressors == db.regressors).all()
        assert (da.train_idx == db.train_idx).all()
        assert (da.norm.y_min, da.norm.y_max) == (db.norm.y_min, db.norm.y_max)
        assert (da.norm.u_min == db.norm.u_min).all()
