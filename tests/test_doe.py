import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaslift_twin import doe
from gaslift_twin.errors import DegenerateColumn, GasLiftWarning, InvalidBounds


BOUNDS_2D = (("a", 0.0, 1.0), ("b", -2.0, 6.0))


def stratum_occupancy(plan: doe.ExperimentPlan) -> np.ndarray:
    """Count of samples per stratum per dimension, shape (d, n); the LHS
    property of ``lhs_sample`` is every entry exactly 1."""
    n, d = plan.matrix.shape
    counts = np.zeros((d, n), dtype=int)
    for j, (_, lo, hi) in enumerate(plan.bounds):
        unit = (plan.matrix[:, j] - lo) / (hi - lo)
        strata = np.clip((unit * n).astype(int), 0, n - 1)
        for s in strata:
            counts[j, s] += 1
    return counts


class TestLhsSample:
    def test_one_sample_per_stratum(self):
        plan = doe.lhs_sample(50, doe.TABLE_BOUNDS, seed=3)
        occ = stratum_occupancy(plan)
        assert occ.shape == (4, 50)
        assert (occ == 1).all()

    def test_quartiles_single_dimension(self):
        # n=4, d=1: exactly one point in each quarter of the range
        plan = doe.lhs_sample(4, (("x", 2.0, 10.0),), seed=11)
        x = np.sort(plan.matrix[:, 0])
        edges = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
        for k in range(4):
            assert edges[k] <= x[k] < edges[k + 1]

    def test_within_bounds(self):
        plan = doe.lhs_sample(200, BOUNDS_2D, seed=0)
        for j, (_, lo, hi) in enumerate(BOUNDS_2D):
            assert plan.matrix[:, j].min() >= lo
            assert plan.matrix[:, j].max() <= hi

    def test_deterministic_for_seed(self):
        a = doe.lhs_sample(64, doe.TABLE_BOUNDS, seed=9)
        b = doe.lhs_sample(64, doe.TABLE_BOUNDS, seed=9)
        assert (a.matrix == b.matrix).all()
        c = doe.lhs_sample(64, doe.TABLE_BOUNDS, seed=10)
        assert (a.matrix != c.matrix).any()

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            doe.lhs_sample(8, (("x", 1.0, 1.0),), seed=0)
        with pytest.raises(InvalidBounds):
            doe.lhs_sample(8, (("x", 2.0, -1.0),), seed=0)

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_projection_property(self, n, seed):
        # any subset of columns is itself a Latin hypercube in those dims
        extra = (("x1", 0.7, 1.0), ("x2", 0.7, 1.0), ("x3", 0.7, 1.0))
        plan = doe.lhs_sample(n, doe.TABLE_BOUNDS + extra, seed=seed)
        keep = (0, 3, 5)
        sub = doe.ExperimentPlan(
            n_experiments=n,
            bounds=tuple(plan.bounds[j] for j in keep),
            matrix=plan.matrix[:, keep],
            seed=seed,
        )
        assert (stratum_occupancy(sub) == 1).all()


class TestCorrelationAudit:
    def test_identity_diagonal_and_low_offdiag(self):
        plan = doe.lhs_sample(500, doe.TABLE_BOUNDS, seed=5)
        audit = doe.correlation_audit(plan)
        assert np.allclose(np.diag(audit.matrix), 1.0)
        assert audit.max_offdiag_abs < 0.2

    def test_identical_columns_give_unit_correlation(self):
        base = doe.lhs_sample(100, (("a", 0.0, 1.0),), seed=1)
        mat = np.column_stack([base.matrix[:, 0], base.matrix[:, 0] * 2.0 + 1.0])
        plan = doe.ExperimentPlan(
            n_experiments=100,
            bounds=(("a", 0.0, 1.0), ("b", 1.0, 3.0)),
            matrix=mat,
            seed=1,
        )
        audit = doe.correlation_audit(plan)
        assert audit.max_offdiag_abs == pytest.approx(1.0)

    def test_single_dimension(self):
        plan = doe.lhs_sample(10, (("x", 0.0, 1.0),), seed=2)
        audit = doe.correlation_audit(plan)
        assert audit.matrix.shape == (1, 1)
        assert audit.matrix[0, 0] == pytest.approx(1.0)
        assert audit.max_offdiag_abs == 0.0

    def test_zero_variance_column_rejected(self):
        mat = np.column_stack([np.linspace(0, 1, 10), np.full(10, 0.5)])
        plan = doe.ExperimentPlan(
            n_experiments=10,
            bounds=(("a", 0.0, 1.0), ("b", 0.0, 1.0)),
            matrix=mat,
            seed=0,
        )
        with pytest.raises(DegenerateColumn):
            doe.correlation_audit(plan)


class TestBuildInputSequence:
    def test_expands_plan_to_plateaus(self):
        plan = doe.lhs_sample(7, doe.TABLE_BOUNDS, seed=4)
        sched = doe.build_input_sequence(plan, hold_duration=100.0)
        assert sched.hold == 100.0
        assert sched.P_pump.shape == (7,)
        assert sched.Q_g.shape == (7, 3)
        assert (sched.v_o == 1.0).all()
        assert sched.plateau_of_row(0) == 0
        assert sched.plateau_of_row(99) == 0
        assert sched.plateau_of_row(100) == 1

    def test_missing_required_column(self):
        plan = doe.lhs_sample(5, (("Qg1", 1, 5), ("Qg2", 1, 5)), seed=0)
        with pytest.raises(ValueError, match="Qg3"):
            doe.build_input_sequence(plan, hold_duration=10.0)


class TestGramSchmidtRank:
    def test_output_equals_candidate(self):
        rng = np.random.Generator(np.random.PCG64(0))
        X = rng.uniform(size=(300, 3))
        y = X[:, 1].copy()
        ranking = doe.gram_schmidt_rank(X, ("u1", "u2", "u3"), y)
        assert ranking.names[0] == "u2"
        assert ranking.entries[0][1] == pytest.approx(1.0, abs=1e-9)
        # nothing left to explain afterwards
        assert ranking.entries[1][1] == pytest.approx(0.0, abs=1e-9)

    def test_independent_noise_scores_near_zero(self):
        rng = np.random.Generator(np.random.PCG64(7))
        X = rng.uniform(size=(4000, 4))
        y = rng.normal(size=4000)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")  # score jitter may break monotonicity
            ranking = doe.gram_schmidt_rank(X, ("a", "b", "c", "d"), y)
        assert all(score < 0.01 for _, score in ranking.entries)

    def test_scores_sum_to_explained_variance_of_linear_model(self):
        # exact linear relation: cumulative scores reach 1
        rng = np.random.Generator(np.random.PCG64(3))
        X = rng.uniform(size=(500, 3))
        y = 2.0 * X[:, 0] - 0.5 * X[:, 2] + 0.1 * X[:, 1]
        ranking = doe.gram_schmidt_rank(X, ("a", "b", "c"), y)
        assert sum(s for _, s in ranking.entries) == pytest.approx(1.0, abs=1e-9)
        assert ranking.names[0] == "a"

    def test_permutation_equivariance(self):
        rng = np.random.Generator(np.random.PCG64(12))
        X = rng.uniform(size=(200, 4))
        y = X @ np.array([1.0, 3.0, 0.2, 0.7]) + 0.01 * rng.normal(size=200)
        names = ("n1", "n2", "n3", "n4")
        base = doe.gram_schmidt_rank(X, names, y)
        perm = [2, 0, 3, 1]
        shuffled = doe.gram_schmidt_rank(
            X[:, perm], tuple(names[j] for j in perm), y
        )
        assert base.names == shuffled.names
        for (_, s1), (_, s2) in zip(base.entries, shuffled.entries):
            assert s1 == pytest.approx(s2, rel=1e-12)

    def test_zero_variance_candidate_rejected(self):
        X = np.column_stack([np.linspace(0, 1, 50), np.full(50, 2.0)])
        with pytest.raises(DegenerateColumn):
            doe.gram_schmidt_rank(X, ("a", "b"), np.linspace(0, 1, 50))

    def test_duplicate_candidate_scores_zero_second_time(self):
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.uniform(size=400)
        X = np.column_stack([x, x * 3.0 - 1.0])
        y = x + 0.05 * rng.normal(size=400)
        ranking = doe.gram_schmidt_rank(X, ("a", "b"), y)
        # whichever copy wins, its twin adds nothing
        assert ranking.entries[1][1] == pytest.approx(0.0, abs=1e-9)

    def test_non_monotone_warning_names_the_caller(self):
        # a suppressor pair: neither column alone explains y = x1 - x2, so
        # the second increment exceeds the first
        rng = np.random.Generator(np.random.PCG64(1))
        z = rng.uniform(size=200)
        X = np.column_stack([z + 0.1 * rng.normal(size=200), z])
        with pytest.warns(GasLiftWarning, match="non-increasing") as record:
            doe.gram_schmidt_rank(X, ("a", "b"), X[:, 0] - X[:, 1])
        assert [w.filename for w in record] == [__file__]

    def test_exact_tie_breaks_lexicographically(self):
        rng = np.random.Generator(np.random.PCG64(6))
        x = rng.uniform(size=200)
        y = x + 0.1 * rng.normal(size=200)
        ranking = doe.gram_schmidt_rank(
            np.column_stack([x, x]), ("later", "earlier"), y
        )
        assert ranking.names[0] == "earlier"
