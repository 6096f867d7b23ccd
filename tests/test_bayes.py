import numpy as np
import pytest

from gaslift_twin import bayes
from gaslift_twin import network as nw
from gaslift_twin.errors import (
    BurnInExceedsChain,
    GasLiftError,
    InvalidRegion,
    MemberDroppedWarning,
    NoInflectionWarning,
    NonFiniteStart,
)
from gaslift_twin.structure import NarxLayout

CONST_SPEC = nw.NetworkSpec((2, 1), ("linear",))
CONST_LAYOUT = NarxLayout(1, 1, 1)


def const_member(value: float) -> np.ndarray:
    # weights zero, bias = value: predicts a constant everywhere
    return np.array([0.0, 0.0, value])


class TestBoxPrior:
    def test_support_is_boundary_inclusive(self):
        prior = bayes.BoxPrior(center=np.zeros(3), half_width=2.0)
        assert prior.log_prob(np.array([2.0, -2.0, 0.0])) == 0.0
        assert prior.log_prob(np.array([2.0001, 0.0, 0.0])) == -np.inf


class TestLogPosterior:
    def test_perfect_fit_flat_prior_is_zero(self):
        spec = nw.NetworkSpec((1, 1), ("linear",))
        theta = np.array([2.0, 0.0])
        x = np.linspace(-1, 1, 20)
        prior = bayes.BoxPrior(center=theta)
        lp = bayes.log_posterior(theta, spec, x[:, None], 2 * x, prior, sigma=0.1)
        assert lp == 0.0

    def test_doubling_residuals_quadruples_penalty(self):
        x = np.zeros((10, 1))
        y = np.zeros(10)
        spec = nw.NetworkSpec((1, 1), ("linear",))
        prior = bayes.BoxPrior(center=np.zeros(2), half_width=10.0)
        lp1 = bayes.log_posterior(np.array([0.0, 0.5]), spec, x, y, prior, sigma=1.0)
        lp2 = bayes.log_posterior(np.array([0.0, 1.0]), spec, x, y, prior, sigma=1.0)
        assert lp2 == pytest.approx(4.0 * lp1, rel=1e-14)

    def test_matches_independent_mse_evaluation(self):
        rng = np.random.Generator(np.random.PCG64(0))
        spec = nw.NetworkSpec((3, 4, 1), ("tanh", "linear"), seed=2)
        theta = nw.initialize(spec).theta
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        prior = bayes.BoxPrior(center=theta)
        sigma = 0.3
        lp = bayes.log_posterior(theta, spec, X, y, prior, sigma)
        mse = nw.evaluate(theta, spec, X, y).mse
        assert lp == pytest.approx(-40 * mse / (2 * sigma**2), rel=1e-12)

    def test_outside_prior_is_minus_infinity(self):
        spec = nw.NetworkSpec((1, 1), ("linear",))
        prior = bayes.BoxPrior(center=np.zeros(2), half_width=1.0)
        lp = bayes.log_posterior(
            np.array([5.0, 0.0]), spec, np.zeros((3, 1)), np.zeros(3), prior, 1.0
        )
        assert lp == -np.inf


class TestMcmcSample:
    def test_zero_proposal_scale_freezes_chain(self):
        target = lambda th: float(-0.5 * th[0] ** 2)
        ch = bayes.mcmc_sample(target, np.array([1.3]), 50, 0.0, seed=0)
        assert (ch.samples == 1.3).all()
        assert ch.accepted.all()

    def test_flat_target_accepts_everything(self):
        ch = bayes.mcmc_sample(lambda th: 0.0, np.zeros(2), 200, 0.5, seed=1)
        assert ch.acceptance_rate == 1.0

    def test_gaussian_target_moments(self):
        mu, sd = 3.0, 2.0
        target = lambda th: float(-0.5 * ((th[0] - mu) / sd) ** 2)
        ch = bayes.mcmc_sample(target, np.array([mu]), 6000, 1.0, seed=2, burn_in=1000)
        post = ch.samples[ch.burn_in :, 0]
        nb = 20
        trimmed = post[: len(post) // nb * nb]
        bm = trimmed.reshape(nb, -1).mean(axis=1)
        se_mean = bm.std(ddof=1) / np.sqrt(nb)
        bv = trimmed.reshape(nb, -1).var(axis=1, ddof=1)
        se_var = bv.std(ddof=1) / np.sqrt(nb)
        assert abs(post.mean() - mu) <= 3 * se_mean
        assert abs(post.var(ddof=1) - sd**2) <= 3 * se_var
        assert 0.2 <= ch.acceptance_rate <= 0.4

    def test_bitwise_replay(self):
        target = lambda th: float(-0.5 * (th**2).sum())
        a = bayes.mcmc_sample(target, np.zeros(3), 400, 0.7, seed=9, burn_in=100)
        b = bayes.mcmc_sample(target, np.zeros(3), 400, 0.7, seed=9, burn_in=100)
        assert (a.samples == b.samples).all()
        assert (a.accepted == b.accepted).all()
        assert a.proposal_scale == b.proposal_scale

    def test_non_finite_start(self):
        prior = bayes.BoxPrior(center=np.zeros(1), half_width=1.0)
        target = lambda th: prior.log_prob(th)
        with pytest.raises(NonFiniteStart):
            bayes.mcmc_sample(target, np.array([5.0]), 10, 0.1, seed=0)

    def test_burn_in_must_leave_samples(self):
        with pytest.raises(BurnInExceedsChain):
            bayes.mcmc_sample(lambda th: 0.0, np.zeros(1), 10, 0.1, seed=0, burn_in=10)

    def test_chain_field_validation(self):
        with pytest.raises(GasLiftError):
            bayes.Chain(
                samples=np.zeros((5, 2)), log_posteriors=np.zeros(4),
                accepted=np.ones(5, dtype=bool), proposal_scale=1.0, seed=0, burn_in=0,
            )
        with pytest.raises(GasLiftError):
            bayes.Chain(
                samples=np.full((5, 2), np.nan), log_posteriors=np.zeros(5),
                accepted=np.ones(5, dtype=bool), proposal_scale=1.0, seed=0, burn_in=0,
            )


@pytest.fixture(scope="module")
def fitted():
    from gaslift_twin.structure import assemble_narx_dataset

    rng = np.random.Generator(np.random.PCG64(7))
    T = 400
    u = rng.uniform(-1, 1, size=T)
    y = np.zeros(T)
    for t in range(1, T):
        y[t] = 0.5 * y[t - 1] + 0.4 * u[t]
    ds = assemble_narx_dataset(
        y[:, None], u[:, None], None, NarxLayout(1, 1, 1), channels=("c0",)
    )["c0"]
    spec = nw.NetworkSpec((2, 1), ("linear",), learning_rate=0.05, epochs=150, seed=0)
    res = nw.train_channel(ds, spec)
    return ds, spec, res.weights


class TestSampleWeightPosterior:
    def test_chain_shape_and_sigma_floor(self, fitted):
        ds, spec, w = fitted
        ch, sigma = bayes.sample_weight_posterior(
            ds, spec, w, n_samples=600, burn_in=100, seed=0
        )
        assert ch.samples.shape == (600, spec.n_params)
        assert sigma >= bayes.DEFAULT_SIGMA_FLOOR
        assert np.isfinite(ch.log_posteriors).all()

    def test_posterior_concentrates_near_map(self, fitted):
        ds, spec, w = fitted
        ch, _ = bayes.sample_weight_posterior(
            ds, spec, w, n_samples=2000, burn_in=500, seed=1
        )
        mean = ch.samples[ch.burn_in :].mean(axis=0)
        # noise-free data and a floored sigma keep the posterior tight
        assert np.abs(mean - w.theta).max() < 0.05

    def test_seeded_replay(self, fitted):
        ds, spec, w = fitted
        a, sa = bayes.sample_weight_posterior(ds, spec, w, n_samples=300, burn_in=50, seed=3)
        b, sb = bayes.sample_weight_posterior(ds, spec, w, n_samples=300, burn_in=50, seed=3)
        assert (a.samples == b.samples).all()
        assert sa == sb


class TestBurnInTrim:
    def _chain(self, n):
        return bayes.Chain(
            samples=np.arange(float(n))[:, None],
            log_posteriors=np.zeros(n),
            accepted=np.ones(n, dtype=bool),
            proposal_scale=1.0,
            seed=0,
            burn_in=0,
        )

    def test_paper_scale_counts(self):
        kept = bayes.burn_in_trim(self._chain(50_000), 10_000)
        assert len(kept) == 40_000
        assert kept[0, 0] == 10_000.0

    def test_zero_burn_is_identity(self):
        ch = self._chain(100)
        assert (bayes.burn_in_trim(ch, 0) == ch.samples).all()

    def test_single_sample_retained(self):
        assert len(bayes.burn_in_trim(self._chain(100), 99)) == 1

    def test_burn_exceeding_chain(self):
        with pytest.raises(BurnInExceedsChain):
            bayes.burn_in_trim(self._chain(10), 10)


class TestSortedQuantiles:
    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_equals_np_quantile(self, confidence):
        rng = np.random.Generator(np.random.PCG64(0))
        alpha = (1.0 - confidence) / 2.0
        levels = (alpha, 1.0 - alpha, 0.5)
        for n in range(1, 41):
            for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                x = rng.normal(scale=scale, size=(n, 5))
                got = bayes.sorted_quantiles(np.sort(x, axis=0), levels)
                want = np.quantile(x, levels, axis=0)
                assert got.tobytes() == want.tobytes()
                for row, q in zip(got, levels):
                    assert row.tobytes() == np.quantile(x, q, axis=0).tobytes()
                # rounding makes order statistics tie; compared with ==
                # because the sort may order a tied -0.0 and 0.0 otherwise
                # than numpy's partition, so a zero may differ in sign
                tied = np.round(x / scale, 1) * scale
                got = bayes.sorted_quantiles(np.sort(tied, axis=0), levels)
                assert np.array_equal(got, np.quantile(tied, levels, axis=0))

    def test_plan_is_cached_and_read_only(self):
        plan = bayes.quantile_plan(16, (0.025, 0.975))
        assert plan is bayes.quantile_plan(16, (0.025, 0.975))
        assert not any(a.flags.writeable for a in plan)


class TestPropagateUncertainty:
    def test_identical_members_collapse_to_single_trajectory(self):
        members = np.tile(const_member(0.4), (6, 1))
        U = np.zeros((12, 1))
        cov = bayes.propagate_uncertainty(
            members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), U
        )
        assert (cov.lower == 0.4).all()
        assert (cov.upper == 0.4).all()
        assert (cov.width() == 0.0).all()

    def test_quantile_nesting(self):
        rng = np.random.Generator(np.random.PCG64(0))
        members = np.stack([const_member(v) for v in rng.normal(size=40)])
        U = np.zeros((5, 1))
        wide = bayes.propagate_uncertainty(
            members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), U, confidence=0.95
        )
        narrow = bayes.propagate_uncertainty(
            members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), U, confidence=0.80
        )
        assert (wide.lower <= narrow.lower).all()
        assert (narrow.upper <= wide.upper).all()

    def test_contains_is_boundary_inclusive(self):
        members = np.stack([const_member(v) for v in (0.0, 1.0)])
        cov = bayes.propagate_uncertainty(
            members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), np.zeros((3, 1)),
            confidence=0.5,
        )
        assert cov.contains(cov.lower).all()
        assert cov.contains(cov.upper).all()

    def test_diverging_member_dropped_with_warning(self):
        sane = const_member(0.2)
        exploding = np.array([1e200, 0.0, 0.0])     # y(t) = 1e200 * y(t-1)
        members = np.stack([sane, sane, exploding])
        with pytest.warns(MemberDroppedWarning):
            cov = bayes.propagate_uncertainty(
                members, CONST_SPEC, CONST_LAYOUT, np.array([1.0]), np.zeros((5, 1))
            )
        assert cov.n_members == 2
        assert np.isfinite(cov.upper).all()

    def test_all_members_diverging_fails(self):
        exploding = np.array([1e200, 0.0, 0.0])
        with pytest.warns(MemberDroppedWarning):
            with pytest.raises(InvalidRegion):
                bayes.propagate_uncertainty(
                    np.stack([exploding, exploding]),
                    CONST_SPEC, CONST_LAYOUT, np.array([1.0]), np.zeros((5, 1)),
                )

    def test_confidence_bounds(self):
        with pytest.raises(InvalidRegion):
            bayes.propagate_uncertainty(
                const_member(0.0)[None], CONST_SPEC, CONST_LAYOUT,
                np.array([0.0]), np.zeros((2, 1)), confidence=1.0,
            )


class TestReduceEnsemble:
    def _diverse(self, n, seed=0):
        rng = np.random.Generator(np.random.PCG64(seed))
        return np.stack([const_member(v) for v in rng.normal(size=n)])

    def test_full_size_only(self):
        members = self._diverse(30)
        ens, rep = bayes.reduce_ensemble(
            members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), np.zeros((4, 1)),
            sizes=(30,), seed=0,
        )
        assert rep.width_ratios == (1.0,)
        assert rep.inflection_size == 30
        assert rep.chosen_size == 30
        assert len(ens) == 30

    def test_identical_members_inflect_at_one(self):
        members = np.tile(const_member(0.7), (10, 1))
        ens, rep = bayes.reduce_ensemble(
            members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), np.zeros((4, 1)),
            sizes=(8, 4, 2, 1), seed=1,
        )
        assert rep.inflection_size == 1
        assert rep.chosen_size == 2         # ceil(1.25 * 1)
        assert len(ens) == 2

    def test_chosen_applies_safety_factor(self):
        members = self._diverse(400, seed=2)
        ens, rep = bayes.reduce_ensemble(
            members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), np.zeros((6, 1)),
            sizes=(400, 200, 100, 50), seed=3,
        )
        assert rep.inflection_size is not None
        assert rep.chosen_size == min(400, int(np.ceil(1.25 * rep.inflection_size)))
        assert rep.chosen_size >= rep.inflection_size
        assert len(ens) == rep.chosen_size

    def test_members_all_come_from_samples(self):
        members = self._diverse(50, seed=4)
        ens, _ = bayes.reduce_ensemble(
            members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), np.zeros((4, 1)),
            sizes=(50, 25, 10), seed=5,
        )
        pool = {tuple(row) for row in members}
        for row in ens:
            assert tuple(row) in pool

    def test_no_inflection_returns_full_with_warning(self):
        members = self._diverse(400, seed=6)
        with pytest.warns(NoInflectionWarning):
            ens, rep = bayes.reduce_ensemble(
                members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), np.zeros((4, 1)),
                sizes=(2,), seed=7,
            )
        assert rep.inflection_size is None
        assert rep.chosen_size == 400
        assert len(ens) == 400

    def test_size_validation(self):
        members = self._diverse(20)
        with pytest.raises(ValueError):
            bayes.reduce_ensemble(
                members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), np.zeros((3, 1)),
                sizes=(10, 10), seed=0,
            )
        with pytest.raises(ValueError):
            bayes.reduce_ensemble(
                members, CONST_SPEC, CONST_LAYOUT, np.array([0.0]), np.zeros((3, 1)),
                sizes=(30, 10), seed=0,
            )
