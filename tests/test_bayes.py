import warnings

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
        post = ch.samples[:, 0]
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
        accepted = np.ones(5, dtype=bool)
        # one sample per step past burn-in: 5 steps with 1 of burn-in are 4
        assert bayes.Chain(np.zeros((4, 2)), accepted, 1.0, burn_in=1).length == 5
        for samples, burn_in in ((np.zeros((5, 2)), 1), (np.zeros((3, 2)), 1),
                                 (np.full((5, 2), np.nan), 0)):
            with pytest.raises(GasLiftError):
                bayes.Chain(samples, accepted, 1.0, burn_in=burn_in)
        with pytest.raises(BurnInExceedsChain):
            bayes.Chain(np.zeros((0, 2)), accepted, 1.0, burn_in=5)

    @pytest.mark.parametrize("burn_in", [0, 1, 250])
    @pytest.mark.parametrize("target", ["gaussian", "narrow", "rejects"])
    def test_draws_are_the_reference_states_past_burn_in(self, mcmc_reference,
                                                         burn_in, target):
        init = np.array([0.5, -0.2])
        log_target = {
            "gaussian": lambda th: float(-0.5 * (th**2).sum()),
            # a wide proposal on a narrow target: most steps reject
            "narrow": lambda th: float(-0.5 * (th**2).sum() / 1e-4),
            "rejects": lambda th: 0.0 if (th == init).all() else -np.inf,
        }[target]
        ch = bayes.mcmc_sample(log_target, init, 400, 0.8, seed=4, burn_in=burn_in)
        states, accepted, scale = mcmc_reference(log_target, init, 400, 0.8, seed=4,
                                                 burn_in=burn_in)
        assert ch.samples.tobytes() == states[burn_in:].tobytes()
        assert (ch.accepted == accepted).all()
        assert ch.proposal_scale == scale
        assert (ch.length, ch.burn_in) == (400, burn_in)
        assert ch.acceptance_rate == np.mean(accepted[burn_in:])
        if target == "rejects":
            assert not accepted.any() and (ch.samples == init).all()
        # a burn-in of 250 spans two adaptation windows of 100 steps
        assert (scale == 0.8) == (burn_in < 100)


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
            ds, spec, w, n_samples=600, burn_in=100, proposal_scale=1e-3, seed=0
        )
        assert ch.samples.shape == (500, spec.n_params)
        assert (ch.length, len(ch.accepted)) == (600, 600)
        assert sigma >= bayes.DEFAULT_SIGMA_FLOOR

    def test_posterior_concentrates_near_map(self, fitted):
        ds, spec, w = fitted
        ch, _ = bayes.sample_weight_posterior(
            ds, spec, w, n_samples=2000, burn_in=500, proposal_scale=1e-3, seed=1
        )
        mean = ch.samples.mean(axis=0)
        # noise-free data and a floored sigma keep the posterior tight
        assert np.abs(mean - w.theta).max() < 0.05

    def test_seeded_replay(self, fitted):
        ds, spec, w = fitted
        a, sa = bayes.sample_weight_posterior(ds, spec, w, n_samples=300, burn_in=50,
                                              proposal_scale=1e-3, seed=3)
        b, sb = bayes.sample_weight_posterior(ds, spec, w, n_samples=300, burn_in=50,
                                              proposal_scale=1e-3, seed=3)
        assert (a.samples == b.samples).all()
        assert sa == sb


class TestBurnInTrim:
    """The sampler cuts its burn-in itself: it keeps the states past it."""

    @staticmethod
    def _chain(n, burn_in):
        # a flat target accepts every step, so the draws differ step by step
        return bayes.mcmc_sample(lambda th: 0.0, np.zeros(1), n, 1.0, seed=0,
                                 burn_in=burn_in)

    def test_paper_scale_counts(self, mcmc_reference):
        ch = self._chain(50_000, 10_000)
        states, _, _ = mcmc_reference(lambda th: 0.0, np.zeros(1), 50_000, 1.0,
                                      seed=0, burn_in=10_000)
        assert (len(ch.samples), ch.length) == (40_000, 50_000)
        assert ch.samples[0, 0] == states[10_000, 0]

    def test_zero_burn_is_identity(self, mcmc_reference):
        ch = self._chain(100, 0)
        states, _, _ = mcmc_reference(lambda th: 0.0, np.zeros(1), 100, 1.0, seed=0)
        assert ch.samples.tobytes() == states.tobytes()

    def test_single_sample_retained(self):
        ch = self._chain(100, 99)
        assert len(ch.samples) == 1
        assert ch.samples[0, 0] == self._chain(100, 0).samples[99, 0]

    def test_burn_exceeding_chain(self):
        with pytest.raises(BurnInExceedsChain):
            self._chain(10, 10)
        with pytest.raises(BurnInExceedsChain):
            bayes.Chain(np.zeros((0, 1)), np.ones(10, dtype=bool), 1.0, burn_in=10)


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
    """Members' free runs to a band, read by ``bayes._coverage`` as in
    ``reduce_ensemble``."""

    @pytest.fixture
    def band(self, propagate_reference):
        def band(members, y_window, U, confidence=0.95):
            return propagate_reference(members, CONST_SPEC, CONST_LAYOUT, y_window, U,
                                       confidence=confidence)
        return band

    def test_identical_members_collapse_to_single_trajectory(self, band):
        members = np.tile(const_member(0.4), (6, 1))
        lower, upper = band(members, np.array([0.0]), np.zeros((12, 1)))
        assert lower.shape == (12,)
        assert (lower == 0.4).all()
        assert (upper == 0.4).all()

    def test_quantile_nesting(self, band):
        rng = np.random.Generator(np.random.PCG64(0))
        members = np.stack([const_member(v) for v in rng.normal(size=40)])
        U = np.zeros((5, 1))
        wide = band(members, np.array([0.0]), U, confidence=0.95)
        narrow = band(members, np.array([0.0]), U, confidence=0.80)
        assert (wide[0] <= narrow[0]).all()
        assert (narrow[1] <= wide[1]).all()

    def test_diverging_member_dropped_with_warning(self, band):
        sane = const_member(0.2)
        exploding = np.array([1e200, 0.0, 0.0])     # y(t) = 1e200 * y(t-1)
        U = np.zeros((5, 1))
        with pytest.warns(MemberDroppedWarning):
            got = band(np.stack([sane, sane, exploding]), np.array([1.0]), U)
        kept = band(np.stack([sane, sane]), np.array([1.0]), U)
        assert np.array_equal(got, kept)
        assert np.isfinite(got).all()

    def test_all_members_diverging_fails(self, band):
        exploding = np.array([1e200, 0.0, 0.0])
        with pytest.warns(MemberDroppedWarning):
            with pytest.raises(InvalidRegion):
                band(np.stack([exploding, exploding]), np.array([1.0]),
                     np.zeros((5, 1)))

    def test_confidence_bounds(self, band):
        with pytest.raises(InvalidRegion):
            band(const_member(0.0)[None], np.array([0.0]), np.zeros((2, 1)),
                 confidence=1.0)


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


class TestReduceOneFreeRunPerSample:
    """Every sample is free-run once and each band reads its rows; the result
    equals one free run per band, bit for bit and warning for warning."""

    LAYOUT = NarxLayout(2, 2, 2)
    SPEC = nw.NetworkSpec((LAYOUT.width, 6, 1), ("tanh", "linear"))

    def _samples(self, n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        base = nw.initialize(nw.NetworkSpec(self.SPEC.layer_sizes, self.SPEC.activations,
                                            seed=seed)).theta
        return base + 0.05 * rng.standard_normal((n, self.SPEC.n_params))

    def _run(self, reduce, samples, sizes, seed, spec=SPEC):
        rng = np.random.Generator(np.random.PCG64(seed + 100))
        U = rng.uniform(size=(30, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ens, report = reduce(samples, spec, self.LAYOUT, np.array([0.1, 0.2]),
                                 U, sizes, seed, degeneration_tol=0.1)
        return ens, report, [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("n, sizes, seed", [
        (16, (16, 8, 4), 0), (16, (12, 6, 3, 1), 1), (40, (30, 10, 2), 2), (5, (2,), 3),
    ])
    def test_equals_one_free_run_per_band(self, reduce_reference, n, sizes, seed):
        samples = self._samples(n, seed)
        ens, report, caught = self._run(bayes.reduce_ensemble, samples, sizes, seed)
        ref_ens, ref_report, ref_caught = self._run(reduce_reference, samples, sizes, seed)
        assert ens.tobytes() == ref_ens.tobytes() and ens.shape == ref_ens.shape
        assert report == ref_report
        assert caught == ref_caught

    def test_diverging_member_warns_once_per_band_that_holds_it(self, reduce_reference):
        # linear nets; row 5 weighs y(t-1) by 1e200, so its free run overflows
        spec = nw.NetworkSpec((self.LAYOUT.width, 1), ("linear",))
        rng = np.random.Generator(np.random.PCG64(5))
        samples = 0.2 * rng.standard_normal((16, spec.n_params))
        samples[5, 0] = 1e200
        sizes = (12, 8, 4)
        ens, report, caught = self._run(bayes.reduce_ensemble, samples, sizes, 4, spec)
        ref_ens, ref_report, ref_caught = self._run(reduce_reference, samples, sizes, 4,
                                                    spec)
        assert ens.tobytes() == ref_ens.tobytes()
        assert report == ref_report
        assert caught == ref_caught
        dropped = [m for c, m in caught if c is MemberDroppedWarning]
        # the full band holds it, and so does each drawn subset that took row 5
        rng = np.random.Generator(np.random.PCG64(4))
        holding = sum(5 in rng.choice(16, size=s, replace=False) for s in sizes)
        assert dropped == ["dropped 1 diverged ensemble member(s)"] * (1 + holding)
        assert len(dropped) >= 2
