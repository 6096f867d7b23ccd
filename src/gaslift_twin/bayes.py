"""Weight-space uncertainty: random-walk Metropolis posteriors, coverage
bands of ensemble free runs, and ensemble reduction.

The likelihood is the Gaussian completion of the training MSE,
log L = -n * MSE(theta) / (2 sigma^2), with sigma estimated from the
MAP-fit residual spread (floored, since a near-interpolating fit would
otherwise collapse the posterior). The prior is a flat box around the MAP
weights. Proposal scale adapts toward a 20-40% acceptance rate during
burn-in and stays frozen afterwards so the post-burn-in chain is a valid
Metropolis sampler.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BurnInExceedsChain,
    GasLiftError,
    InvalidRegion,
    MemberDroppedWarning,
    NoInflectionWarning,
    NonFiniteStart,
)
from .network import NetworkSpec, forward, simulate_closed_loop
from .structure import NarxLayout

DEFAULT_SIGMA_FLOOR = 5e-3
DEFAULT_LIKELIHOOD_ROWS = 2000
DEFAULT_PRIOR_HALF_WIDTH = 10.0
# a reduced ensemble keeps 25 % more members than the inflection size
SAFETY_FACTOR = 1.25


@dataclass(frozen=True)
class BoxPrior:
    """Flat prior supported on a hypercube around a center point."""

    center: np.ndarray
    half_width: float = DEFAULT_PRIOR_HALF_WIDTH

    def contains(self, theta: np.ndarray) -> bool:
        return bool(np.max(np.abs(theta - self.center)) <= self.half_width)

    def log_prob(self, theta: np.ndarray) -> float:
        return 0.0 if self.contains(theta) else -np.inf


def log_posterior(
    theta: np.ndarray,
    spec: NetworkSpec,
    X: np.ndarray,
    y: np.ndarray,
    prior: BoxPrior,
    sigma: float,
) -> float:
    """Gaussian-likelihood log posterior; non-finite fits score -inf."""
    lp = prior.log_prob(theta)
    if not np.isfinite(lp):
        return -np.inf
    resid = forward(theta, spec, X) - y
    mse = float(np.mean(resid * resid))
    if not np.isfinite(mse):
        return -np.inf
    return -len(y) * mse / (2.0 * sigma * sigma) + lp


@dataclass(frozen=True)
class Chain:
    """One Metropolis run: every post-initialization state with its
    log-posterior and whether the step's proposal was accepted."""

    samples: np.ndarray          # (n, n_params)
    log_posteriors: np.ndarray   # (n,)
    accepted: np.ndarray         # (n,) bool
    proposal_scale: float        # scale in force after burn-in
    seed: int
    burn_in: int

    def __post_init__(self):
        n = len(self.samples)
        if len(self.log_posteriors) != n or len(self.accepted) != n:
            raise GasLiftError("chain fields must align 1:1 with samples")
        if not np.isfinite(self.samples).all():
            raise GasLiftError("chain contains non-finite samples")
        if not 0 <= self.burn_in < n:
            raise BurnInExceedsChain(f"burn-in {self.burn_in} >= length {n}")

    @property
    def length(self) -> int:
        return len(self.samples)

    @property
    def acceptance_rate(self) -> float:
        """Acceptance fraction over the post-burn-in portion."""
        return float(np.mean(self.accepted[self.burn_in :]))


def mcmc_sample(
    log_target,
    init: np.ndarray,
    n_samples: int,
    proposal_scale: float,
    seed: int,
    *,
    burn_in: int = 0,
    adapt_interval: int = 100,
    accept_low: float = 0.25,
    accept_high: float = 0.35,
) -> Chain:
    """Random-walk Metropolis with isotropic Gaussian proposals.

    During burn-in the proposal scale shrinks or grows whenever the recent
    acceptance fraction leaves [accept_low, accept_high]; after burn-in the
    scale is frozen. The chain replays bitwise for a given seed.
    """
    init = np.asarray(init, dtype=float).ravel()
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if burn_in >= n_samples:
        raise BurnInExceedsChain(f"burn-in {burn_in} >= n_samples {n_samples}")
    lp = float(log_target(init))
    if not np.isfinite(lp):
        raise NonFiniteStart("initial point has non-finite log posterior")

    rng = np.random.Generator(np.random.PCG64(seed))
    theta = init.copy()
    scale = float(proposal_scale)
    samples = np.empty((n_samples, len(init)))
    log_posts = np.empty(n_samples)
    accepted = np.empty(n_samples, dtype=bool)
    window_accepts = 0

    for i in range(n_samples):
        prop = theta + scale * rng.standard_normal(len(init))
        lp_prop = float(log_target(prop))
        log_u = np.log(rng.uniform())
        take = log_u < lp_prop - lp
        if take:
            theta, lp = prop, lp_prop
        samples[i] = theta
        log_posts[i] = lp
        accepted[i] = take
        window_accepts += int(take)

        if i < burn_in and (i + 1) % adapt_interval == 0:
            rate = window_accepts / adapt_interval
            if rate < accept_low:
                scale *= 0.8
            elif rate > accept_high:
                scale *= 1.25
            window_accepts = 0

    return Chain(
        samples=samples,
        log_posteriors=log_posts,
        accepted=accepted,
        proposal_scale=scale,
        seed=seed,
        burn_in=burn_in,
    )


def sample_weight_posterior(
    dataset,
    spec: NetworkSpec,
    map_weights,
    *,
    n_samples: int,
    burn_in: int,
    proposal_scale: float,
    seed: int = 0,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
    likelihood_rows: int = DEFAULT_LIKELIHOOD_ROWS,
    prior_half_width: float = DEFAULT_PRIOR_HALF_WIDTH,
) -> tuple[Chain, float]:
    """Posterior chain over one channel's network weights.

    The likelihood uses a fixed, seeded subsample of the normalized
    training rows so every chain evaluation sees the same data. Returns
    the chain and the sigma actually used.
    """
    X, y = dataset.normalized_split("train")
    if len(y) > likelihood_rows:
        pick = np.random.Generator(np.random.PCG64(seed)).choice(
            len(y), size=likelihood_rows, replace=False
        )
        pick.sort()
        X, y = X[pick], y[pick]
    theta0 = np.asarray(
        map_weights.theta if hasattr(map_weights, "theta") else map_weights,
        dtype=float,
    )
    resid = forward(theta0, spec, X) - y
    sigma = max(float(np.std(resid)), sigma_floor)
    prior = BoxPrior(center=theta0.copy(), half_width=prior_half_width)

    def target(theta):
        return log_posterior(theta, spec, X, y, prior, sigma)

    chain = mcmc_sample(
        target, theta0, n_samples, proposal_scale, seed, burn_in=burn_in
    )
    return chain, sigma


def burn_in_trim(chain: Chain, n_burn: int) -> np.ndarray:
    """Post-burn-in samples; n_burn must leave at least one sample."""
    if n_burn >= chain.length:
        raise BurnInExceedsChain(f"burn {n_burn} >= chain length {chain.length}")
    if n_burn < 0:
        raise ValueError("burn-in must be non-negative")
    return chain.samples[n_burn:]


@lru_cache
def quantile_plan(n: int, levels: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Where and how ``np.quantile``'s default ``linear`` method (Hyndman &
    Fan 1996, method 7) reads a sorted sample of ``n`` values at each of
    ``levels``.

    Returns ``stats``, (3, levels), and ``coef``, (levels, 1), both
    read-only. Per level, ``stats`` holds the order statistics below and
    above the virtual index ``(n - 1) * q`` and the one numpy's
    interpolation starts from: the lower one, ``a + (b - a) * gamma``, below
    ``gamma = 0.5`` and the upper one, ``b - (b - a) * (1 - gamma)``, from
    it on. ``coef`` is ``gamma`` or ``-(1 - gamma)`` to match, so
    ``(b - a) * coef + start`` is numpy's value bit for bit (negating a
    product and adding a negation are exact). numpy's bounds rule is kept:
    a virtual index at or past the last value reads the last value twice
    (index -1) with ``gamma`` measured from -1, so n = 1, where every level
    lands on the last value, interpolates exactly as ``np.quantile`` does.
    Levels lie in [0, 1], so no virtual index is negative.
    """
    virtual = (n - 1) * np.asarray(levels, dtype=float)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    gamma = virtual - below
    upper = gamma >= 0.5
    stats = np.stack([below, above, np.where(upper, above, below)])
    coef = np.where(upper, -(1 - gamma), gamma)[:, None]
    for a in (stats, coef):
        a.flags.writeable = False
    return stats, coef


def sorted_quantiles(ordered: np.ndarray, levels: tuple[float, ...]) -> np.ndarray:
    """``np.quantile(x, levels, axis=0)`` of a NaN-free (n, m) ``x``, given
    ``ordered = np.sort(x, axis=0)``: the order statistics and
    interpolation of ``quantile_plan``, so the values are numpy's bit for
    bit. Only the sign of a zero can differ: the sort may order a tied
    ``-0.0`` and ``0.0`` otherwise than numpy's partition does. Returns
    (len(levels), m)."""
    stats, coef = quantile_plan(len(ordered), levels)
    return quantiles_from_stats(ordered[stats], coef)


def quantiles_from_stats(picked: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The quantiles ``quantile_plan`` reads from ``picked``, the order
    statistics its ``stats`` name, (3, levels, ...): ``(above - below) *
    coef + start``, written over ``picked[0]``, which it returns."""
    below, above, start = picked
    np.subtract(above, below, out=below)
    below *= coef
    below += start
    return below


def _coverage(paths: np.ndarray, confidence: float) -> tuple[np.ndarray, np.ndarray]:
    """The per-step band of free-run ``paths``, (members, steps), as its
    lower and upper bound: the one path from free runs to a band. Paths with
    a non-finite value are dropped with a warning; at least one must
    survive."""
    if not 0.0 < confidence < 1.0:
        raise InvalidRegion(f"confidence {confidence} outside (0, 1)")
    ok = np.isfinite(paths).all(axis=1)
    if not ok.all():
        warnings.warn(
            f"dropped {int((~ok).sum())} diverged ensemble member(s)",
            MemberDroppedWarning,
        )
    paths = paths[ok]
    if len(paths) == 0:
        raise InvalidRegion("every ensemble member diverged")
    lo_q = (1.0 - confidence) / 2.0
    lower, upper = sorted_quantiles(np.sort(paths, axis=0), (lo_q, 1.0 - lo_q))
    return lower, upper


@dataclass(frozen=True)
class ReductionReport:
    sizes: tuple[int, ...]               # tested, descending
    width_ratios: tuple[float, ...]      # vs the full ensemble, same order
    inflection_size: int | None
    chosen_size: int


def reduce_ensemble(
    samples: np.ndarray,
    spec: NetworkSpec,
    layout: NarxLayout,
    y_window: np.ndarray,
    U: np.ndarray,
    sizes: tuple[int, ...],
    seed: int,
    *,
    degeneration_tol: float = 0.1,
    confidence: float = 0.95,
) -> tuple[np.ndarray, ReductionReport]:
    """Find the smallest sub-ensemble whose coverage band has not degenerated.

    Candidate sizes run descending; each is scored by its mean interval
    width on the validation sequence relative to the full ensemble. The
    inflection size is the smallest whose ratio stays at or above
    1 - degeneration_tol, and the returned ensemble, a (members, n_params)
    array, is a fresh draw of ceil(SAFETY_FACTOR * inflection) rows of
    ``samples``. If even the largest tested size has degenerated every
    sample is returned, with a warning.

    A sample's free run does not depend on the other samples, so every
    sample is run once, in one ``simulate_closed_loop`` call, and each band,
    the full one and each candidate's, reads its rows of those paths, and
    each band drops its diverged members with a warning of its own.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = len(samples)
    sizes = tuple(int(s) for s in sizes)
    if any(a <= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly descending")
    if sizes[0] > n or sizes[-1] < 1:
        raise ValueError("sizes must lie within the sample count")

    with np.errstate(over="ignore", invalid="ignore"):
        paths = simulate_closed_loop(samples, spec, layout, y_window, U)
    lower, upper = _coverage(paths, confidence)
    w_full = float(np.mean(upper - lower))
    rng = np.random.Generator(np.random.PCG64(seed))

    ratios = []
    for size in sizes:
        idx = rng.choice(n, size=size, replace=False)
        if w_full == 0.0:
            ratios.append(1.0)       # zero-width bands cannot degenerate
            continue
        lower, upper = _coverage(paths[idx], confidence)
        ratios.append(float(np.mean(upper - lower)) / w_full)

    inflection = None
    for size, ratio in sorted(zip(sizes, ratios)):
        if ratio >= 1.0 - degeneration_tol:
            inflection = size
            break

    if inflection is None:
        warnings.warn(
            "coverage width degenerates at every tested size; keeping the "
            "full ensemble",
            NoInflectionWarning,
        )
        report = ReductionReport(
            sizes=sizes, width_ratios=tuple(ratios),
            inflection_size=None, chosen_size=n,
        )
        return samples.copy(), report

    chosen = min(n, int(np.ceil(SAFETY_FACTOR * inflection)))
    idx = rng.choice(n, size=chosen, replace=False)
    idx.sort()
    report = ReductionReport(
        sizes=sizes, width_ratios=tuple(ratios),
        inflection_size=inflection, chosen_size=chosen,
    )
    return samples[idx], report
