"""Beta-binomial engine: PMF/moments/fit/sampling against independent oracles."""

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln
from scipy.stats import binom

import stats_reference
from jjvar import stats
from jjvar.stats import (
    MAX_TRIALS,
    BetaBinomial,
    CountSample,
    DegenerateDataError,
    fit,
    read_counts,
)


def oracle_pmf_by_recurrence(alpha: float, beta: float, m: int) -> np.ndarray:
    """Product-form enumeration: P(0) and the ratio recurrence, no gamma calls."""
    p0 = 1.0
    for j in range(m):
        p0 *= (beta + j) / (alpha + beta + j)
    out = [p0]
    for n in range(m):
        ratio = ((m - n) / (n + 1.0)) * ((n + alpha) / (m - n - 1.0 + beta))
        out.append(out[-1] * ratio)
    return np.array(out)


HEADLINE = BetaBinomial.from_shapes(17.69, 15.36, 40)


def headline_counts(seed: int, k: int) -> CountSample:
    return CountSample(tuple(int(x) for x in stats_reference.sample(HEADLINE, seed=seed, k=k)))


def log_likelihood(dist: BetaBinomial, counts) -> float:
    """Sum of ln P(c) over the counts, from the PMF."""
    pmf = dist.pmf_vector()
    return math.fsum(math.log(pmf[c]) for c in counts)


class TestPmf:
    def test_symmetry_when_alpha_equals_beta(self):
        values = BetaBinomial.from_shapes(2.0, 2.0, 4).pmf_vector()
        for n in range(5):
            assert values[n] == pytest.approx(values[4 - n], rel=1e-15)

    def test_normalization_reference_parameters(self):
        assert np.asarray(HEADLINE.pmf_vector()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_argmax_by_exhaustive_enumeration(self):
        values = HEADLINE.pmf_vector()
        oracle = oracle_pmf_by_recurrence(17.69, 15.36, 40)
        assert np.argmax(values) == np.argmax(oracle) == 22
        np.testing.assert_allclose(values, oracle, rtol=1e-11)

    def test_theta_zero_is_the_binomial(self):
        for p, m in ((0.3, 40), (1e-5, 100_000), (0.5125, 40)):
            d = BetaBinomial(p, 0.0, m)
            expected = binom.pmf(np.arange(m + 1), m, p)
            np.testing.assert_allclose(d.pmf_vector(), expected, rtol=1e-12, atol=1e-300)
            assert d.variance() == pytest.approx(m * p * (1 - p), rel=1e-15)
            assert (d.alpha, d.beta) == (math.inf, math.inf)

    def test_shapes_are_derived(self):
        d = BetaBinomial(0.25, 0.5, 10)
        assert (d.alpha, d.beta) == (0.5, 1.5)
        assert HEADLINE.alpha == pytest.approx(17.69, rel=1e-15)
        assert HEADLINE.beta == pytest.approx(15.36, rel=1e-15)

    def test_invalid_parameters(self):
        for args in [
            (0.0, 0.1, 5),
            (1.0, 0.1, 5),
            (math.nan, 0.1, 5),
            (0.5, -1.0, 5),
            (0.5, math.nan, 5),
            (0.5, math.inf, 5),
            (0.5, 1e308, 40),  # theta * trials overflows
            (0.5, 0.1, -1),
        ]:
            with pytest.raises(ValueError):
                BetaBinomial(*args)
        for args in [
            (0.0, 1.0, 5),
            (1.0, -2.0, 5),
            (1e-300, 1e100, 5),  # p rounds to 0
            (5e-324, 5e-324, 5),  # 1 / (alpha + beta) overflows
            (1e-300, 1e-300, 10**6),
        ]:
            with pytest.raises(ValueError):
                BetaBinomial.from_shapes(*args)


# Mean fractions over the whole open interval, and overdispersions from
# 1e-12 to 1e3, log-uniform, or exactly 0: the binomial.
probability = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
overdispersion = st.just(0.0) | st.floats(-12.0, 3.0).map(lambda e: 10.0**e)
# Trial numbers up to 2000, weighted toward the M <= 200 that fits reach.
trial_numbers = st.integers(0, 200) | st.integers(0, 2000)


class TestPmfProperties:
    @settings(max_examples=200, deadline=None)
    @given(p=probability, theta=overdispersion, m=trial_numbers | st.integers(0, MAX_TRIALS))
    @example(p=0.5, theta=0.0, m=MAX_TRIALS)
    @example(p=1e-5, theta=1e3, m=MAX_TRIALS)
    @example(p=0.5, theta=1e-12, m=MAX_TRIALS)
    def test_normalized(self, p, theta, m):
        assert abs(np.asarray(BetaBinomial(p, theta, m).pmf_vector()).sum() - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(p=probability, theta=overdispersion, m=trial_numbers)
    def test_matches_mpmath_product_form(self, p, theta, m):
        values = BetaBinomial(p, theta, m).pmf_vector()
        reference = [float(x) for x in stats_reference.pmf(p, theta, m)]
        np.testing.assert_allclose(values, reference, rtol=1e-12, atol=1e-300)


class TestMoments:
    def test_reference_values(self):
        assert HEADLINE.mean() == pytest.approx(21.41, abs=0.01)
        assert HEADLINE.std() == pytest.approx(4.62, abs=0.01)

    def test_symmetric_mean(self):
        for m in (0, 1, 7, 40):
            assert BetaBinomial(0.5, 1 / 6.6, m).mean() == pytest.approx(m / 2.0, abs=1e-12)

    def test_closed_form_matches_pmf_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            alpha = float(10 ** rng.uniform(-1, 1.5))
            beta = float(10 ** rng.uniform(-1, 1.5))
            m = int(rng.integers(1, 200))
            d = BetaBinomial.from_shapes(alpha, beta, m)
            n = np.arange(m + 1)
            p = d.pmf_vector()
            mean_direct = float(np.sum(n * p))
            second_direct = float(np.sum(n * n * p))
            var_centered = float(np.sum((n - mean_direct) ** 2 * p))
            assert d.mean() == pytest.approx(mean_direct, rel=1e-10)
            assert d.variance() + d.mean() ** 2 == pytest.approx(second_direct, rel=1e-10)
            assert d.variance() == pytest.approx(var_centered, rel=1e-10, abs=1e-10)

    def test_monte_carlo_consistency(self):
        d = HEADLINE
        draws = stats_reference.sample(d, seed=42, k=10**6)
        se_mean = d.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - d.mean()) < 3 * se_mean
        # variance of the sample variance ~ (mu4 - var^2)/k; bound loosely
        se_var = math.sqrt(2.0) * d.variance() / math.sqrt(draws.size) * 3
        assert abs(draws.var() - d.variance()) < 10 * se_var


class TestSampling:
    def test_zero_trials(self):
        draws = stats_reference.sample(BetaBinomial.from_shapes(2.0, 5.0, 0), seed=1, k=100)
        assert np.all(draws == 0)

    def test_seed_determinism(self):
        np.testing.assert_array_equal(
            stats_reference.sample(HEADLINE, seed=9, k=1000),
            stats_reference.sample(HEADLINE, seed=9, k=1000),
        )

    def test_ks_distance_below_critical(self):
        for d in (HEADLINE, BetaBinomial(0.3, 0.0, 40)):
            draws = stats_reference.sample(d, seed=5, k=10**5)
            cdf = np.cumsum(d.pmf_vector())
            empirical = np.array([(draws <= n).mean() for n in range(d.trials + 1)])
            ks = float(np.max(np.abs(empirical - cdf)))
            critical_1pct = 1.628 / math.sqrt(draws.size)
            assert ks < critical_1pct


class TestFit:
    def test_recovers_generator_moments(self):
        draws = stats_reference.sample(HEADLINE, seed=123, k=400)
        result = fit(CountSample(tuple(int(x) for x in draws)), trials=40)
        assert result.converged
        assert abs(result.dist.mean() - HEADLINE.mean()) <= 0.5
        assert abs(result.dist.variance() - HEADLINE.variance()) <= 0.15 * HEADLINE.variance()

    def test_likelihood_never_below_initializer(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            counts = rng.integers(0, 15, size=50)
            if np.unique(counts).size < 2:
                continue
            result = fit(CountSample(tuple(int(x) for x in counts)), trials=20)
            tails = stats._tails(np.bincount(counts).tolist(), 20)
            p, theta = stats._moment_estimate(tails, 20)
            assert result.log_likelihood >= stats._log_likelihood(tails, p, theta) - 1e-9
            # ... nor below the binomial of the same mean.
            assert result.log_likelihood >= stats._log_likelihood(tails, p, 0.0) - 1e-9

    def test_degenerate_counts(self):
        with pytest.raises(DegenerateDataError):
            fit(CountSample((5, 5, 5, 5)), trials=10)

    def test_count_exceeding_fixed_m(self):
        with pytest.raises(ValueError):
            fit(CountSample((1, 2, 50)), trials=40)

    def test_scan_covers_default_range(self):
        draws = stats_reference.sample(BetaBinomial.from_shapes(5.0, 4.0, 12), seed=3, k=300)
        result = fit(CountSample(tuple(int(x) for x in draws)))
        cmax = int(max(draws))
        scanned = [m for m, _ in result.scan]
        assert scanned[0] == cmax and scanned[-1] == cmax + 60
        assert result.log_likelihood == max(ll for _, ll in result.scan)

    @settings(max_examples=100, deadline=None)
    @given(
        shapes=st.tuples(
            st.floats(-1.0, 3.0).map(lambda e: 10.0**e), st.floats(-1.0, 3.0).map(lambda e: 10.0**e)
        )
        | st.tuples(probability, st.none()),
        m=st.integers(1, 200) | st.integers(1, 2000),
        k=st.integers(2, 800),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shapes=(17.69, 15.36), m=40, k=400, seed=19)
    # p near 1, where n ln P(0) is large unless the counts are reflected.
    @example(shapes=(0.99999, None), m=280, k=29, seed=0)
    @example(shapes=(10.0**2.875, 10.0**-0.5), m=200, k=165, seed=31353)
    def test_log_likelihood_is_sum_of_log_pmf(self, shapes, m, k, seed):
        # The fit's tail sums and the PMF's running sum of the same log-steps
        # give one likelihood; `shapes` is (alpha, beta), or (p, None) for
        # the binomial.
        a, b = shapes
        generator = BetaBinomial(a, 0.0, m) if b is None else BetaBinomial.from_shapes(a, b, m)
        counts = stats_reference.sample(generator, seed=seed, k=k).tolist()
        assume(len(set(counts)) >= 2)
        result = fit(counts, trials=m)
        direct = log_likelihood(result.dist, counts)
        assert result.log_likelihood == pytest.approx(direct, rel=1e-12)

    def test_optimum_is_a_local_maximum(self):
        sample = headline_counts(seed=23, k=400)
        result = fit(sample, trials=40)
        p, theta = result.dist.p, result.dist.theta
        for dp, dt in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
            nearby = BetaBinomial(p * (1 + 1e-4 * dp), theta * (1 + 1e-4 * dt), 40)
            assert log_likelihood(nearby, sample.counts) < result.log_likelihood

    @pytest.mark.parametrize("kwargs", [{"trials": 60}, {}], ids=["fixed-60", "scan"])
    def test_large_sample_converges_quickly(self, kwargs):
        # The cost of an evaluation depends on M, not on the number of samples,
        # and the stopping rule is per sample.
        sample = headline_counts(seed=4000, k=40_000)
        start = time.perf_counter()
        result = fit(sample, **kwargs)
        elapsed = time.perf_counter() - start
        assert result.converged
        assert elapsed < 10.0

    def test_binomial_limit_winner_converges(self):
        # 64 headline counts whose M scan is won by the binomial.
        result = fit(headline_counts(seed=302, k=64))
        assert result.converged
        assert result.dist.theta == 0.0

    def test_underdispersed_counts_reach_binomial_limit(self):
        # The variance does not exceed the binomial's: the fit is the
        # binomial with the counts' mean, found with no iteration.
        counts = CountSample((20, 21) * 50)
        result = fit(counts, trials=40)
        assert result.converged and result.iterations == 0
        assert result.dist.theta == 0.0
        assert result.dist.p == 0.5125

    def test_underdispersed_counts_at_max_trials_converge_at_binomial(self):
        start = time.perf_counter()
        result = fit(CountSample((50000, 50001) * 50), trials=MAX_TRIALS)
        assert result.converged
        assert (result.dist.p, result.dist.theta) == (0.500005, 0.0)
        assert time.perf_counter() - start < 5.0

    def test_counts_at_the_ends_rise_toward_infinite_theta(self):
        # Every count is 0 or M: the likelihood rises toward the two-point
        # law P(0) = 1 - p, P(M) = p as theta grows, and the fit stops where
        # the predicted gain is within the tolerance.
        counts = (0, 3, 3, 0, 0)
        result = fit(CountSample(counts), trials=3)
        assert result.converged
        assert result.dist.theta > 1e6
        assert result.log_likelihood == pytest.approx(2 * math.log(0.4) + 3 * math.log(0.6), abs=1e-6)

    def test_fit_from_a_non_concave_start_converges(self):
        # At the moment estimate of these skewed counts -H is not positive
        # definite; the fit steps Newton in p and doubles or halves theta.
        generator = BetaBinomial.from_shapes(2.1237831462137717, 0.15214630257029785, 34)
        counts = stats_reference.sample(generator, seed=102, k=351)
        t = stats._tails(np.bincount(counts).tolist(), 35)
        _, (hpp, hpt, htt) = stats._derivatives(t, *stats._moment_estimate(t, 35))
        assert hpp * htt - hpt * hpt <= 0
        assert fit(CountSample(tuple(counts.tolist())), trials=35).converged

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(0.1, 1000.0),
        st.floats(0.1, 1000.0),
        st.integers(2, 300),
        st.integers(20, 800),
        st.integers(0, 2**32 - 1),
    )
    def test_fits_on_beta_binomial_samples_converge(self, alpha, beta, m, k, seed):
        counts = stats_reference.sample(BetaBinomial.from_shapes(alpha, beta, m), seed=seed, k=k)
        assume(np.unique(counts).size >= 2)
        assert fit(CountSample(tuple(counts.tolist())), trials=m).converged

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-1.0, 3.0).map(lambda e: 10.0**e),
        st.floats(-1.0, 3.0).map(lambda e: 10.0**e),
        st.integers(2, 300),
        st.integers(20, 800),
        st.integers(0, 2**32 - 1),
    )
    @example(165.96315985408395, 170.51522362866805, 142, 422, 2706834550)
    def test_converged_fit_passes_gradient_test_where_it_stops(self, alpha, beta, m, k, seed):
        # A fit that reports convergence returns the point that passed the
        # stopping rule: a Newton decrement within tol per sample, or on the
        # boundary theta = 0 a zero p-gradient and a theta-gradient <= 0.
        counts = stats_reference.sample(BetaBinomial.from_shapes(alpha, beta, m), seed=seed, k=k)
        assume(np.unique(counts).size >= 2)
        tol = 1e-9  # fit's default
        result = fit(CountSample(tuple(counts.tolist())), trials=m, tol=tol)
        assume(result.converged)
        p, theta = result.dist.p, result.dist.theta
        t = stats._tails(np.bincount(counts).tolist(), m)
        (gp, gt), (hpp, hpt, htt) = stats._derivatives(t, p, theta)
        if theta == 0.0:
            assert abs(gp) <= 1e-12 * k * m / min(p, 1 - p)
            assert gt <= 1e-12 * k * m * m / min(p, 1 - p)
        else:
            g, h = np.array([gp, gt]), -np.array([[hpp, hpt], [hpt, htt]])
            assert np.all(np.linalg.eigvalsh(h) > 0)
            assert g @ np.linalg.solve(h, g) / 2 <= tol * k
        assert result.log_likelihood == stats._log_likelihood(t, p, theta)

    def test_trial_number_bound(self):
        counts = CountSample((1, 2, 3))
        with pytest.raises(ValueError, match="largest supported"):
            fit(counts, trials=MAX_TRIALS + 1)
        with pytest.raises(ValueError, match="largest supported"):
            fit(counts, scan_range=(1, MAX_TRIALS + 1))
        with pytest.raises(ValueError, match="largest supported"):
            fit(CountSample((1, 10**12)))
        with pytest.raises(ValueError, match="largest supported"):
            BetaBinomial(0.5, 0.0, MAX_TRIALS + 1)

    def test_report_fields(self):
        draws = stats_reference.sample(BetaBinomial.from_shapes(6.0, 3.0, 20), seed=8, k=200)
        report = fit(CountSample(tuple(int(x) for x in draws)), trials=20).report()
        assert set(report) == {"p", "theta", "alpha", "beta", "M", "log_likelihood", "mean", "std"}
        assert report["alpha"] == report["p"] / report["theta"]


class TestHistogramEvaluators:
    """The tail-count sums against per-sample special-function formulas and
    the numerical derivatives of the product form."""

    @pytest.mark.parametrize("seed", range(5))
    def test_match_per_sample_formulas(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 80))
        counts = rng.integers(0, m + 1, size=int(rng.integers(2, 500)))
        p, theta = rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-2, 1)
        alpha, beta = p / theta, (1 - p) / theta
        hist = np.bincount(counts).tolist()
        t = stats._tails(hist, m)
        n, s, c = counts.size, alpha + beta, counts.astype(float)

        ll = np.sum(
            gammaln(m + 1.0) - gammaln(c + 1.0) - gammaln(m - c + 1.0)
            + betaln(c + alpha, m - c + beta)
        ) - n * betaln(alpha, beta)
        # Both sides sum O(n M) terms of size up to |ln Gamma| in float64.
        scale = n * (abs(gammaln(m + s)) + abs(gammaln(alpha)) + abs(gammaln(beta)) + m)
        assert stats._log_likelihood(t, p, theta) == pytest.approx(ll, abs=1e-13 * scale)
        # Each derivative is a few exactly rounded sums of terms rounded once
        # or twice; the reference differentiates the product form itself.
        g, h = stats._derivatives(t, p, theta)
        g_ref, h_ref = stats_reference.derivatives(hist, p, theta, m)
        np.testing.assert_allclose(g, [float(x) for x in g_ref], rtol=1e-12)
        np.testing.assert_allclose(h, [float(x) for x in h_ref], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_match_binomial_at_theta_zero(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 80))
        counts = rng.integers(0, m + 1, size=int(rng.integers(2, 500)))
        p = rng.uniform(0.05, 0.95)
        q = 1 - p
        t = stats._tails(np.bincount(counts).tolist(), m)
        n, s1 = counts.size, int(counts.sum())
        s2 = int((counts.astype(np.int64) ** 2).sum())
        tail_sum = n * m * m - 2 * m * s1 + s2 - n * m + s1  # sum (M - c)(M - c - 1)
        ll = float(binom.logpmf(counts, m, p).sum())
        assert stats._log_likelihood(t, p, 0.0) == pytest.approx(ll, rel=1e-13)
        (gp, gt), (hpp, hpt, htt) = stats._derivatives(t, p, 0.0)
        r = n * m / min(p, q)
        assert gp == pytest.approx(s1 / p - (n * m - s1) / q, rel=1e-12, abs=1e-12 * r)
        tarone = (s2 - s1) / (2 * p) + tail_sum / (2 * q) - n * m * (m - 1) / 2
        assert gt == pytest.approx(tarone, rel=1e-12, abs=1e-12 * m * r)
        assert hpp == pytest.approx(-s1 / p**2 - (n * m - s1) / q**2, rel=1e-12)
        _, h_ref = stats_reference.derivatives(np.bincount(counts).tolist(), p, 0.0, m)
        np.testing.assert_allclose((hpt, htt), [float(x) for x in h_ref[1:]], rtol=1e-12)


# The fit's sums replaced by the numpy reference, behind the interface of stats.
_REFERENCE_SUMS = {
    "_tails": stats_reference._tails,
    "_log_likelihood": stats_reference._log_likelihood,
    "_derivatives": stats_reference._derivatives,
}


class TestNumpyReference:
    """The fit's log-step sums against the numpy reference's A/B/S tail sums,
    an independent form of the same likelihood with its own ln C(M, c)."""

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
        beta=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
        m=st.integers(1, 400),
        k=st.integers(2, 2000),
        seed=st.integers(0, 2**32 - 1),
        at=st.tuples(
            st.floats(1e-3, 1 - 1e-3), st.just(0.0) | st.floats(-3.0, 8.0).map(lambda e: 10.0**e)
        ),
    )
    def test_sums_agree_within_ulps_times_m(self, alpha, beta, m, k, seed, at):
        counts = stats_reference.sample(BetaBinomial.from_shapes(alpha, beta, m), seed=seed, k=k)
        assume(np.unique(counts).size >= 2)
        t = stats._tails(np.bincount(counts).tolist(), m)
        ref = stats_reference._tails(np.bincount(counts), m)
        assert (t.n, t.s1, t.s2) == (ref.n, ref.s1, ref.s2)
        p, theta = at
        n = counts.size

        def within(value, reference, term):
            # Both sum O(M) terms of magnitude at most `term`, in different
            # forms and orders.
            assert abs(value - reference) <= 16 * m * math.ulp(term)

        largest_log = max(abs(math.log(x)) for x in (p, 1 - p, 1 + m * theta))
        within(
            stats._log_likelihood(t, p, theta),
            stats_reference._log_likelihood(ref, p, theta),
            n * largest_log + abs(ref.const) / m,
        )
        g, h = stats._derivatives(t, p, theta)
        g_ref, h_ref = stats_reference._derivatives(ref, p, theta)
        r = n / min(p, 1 - p)
        terms = (r, m * r, r * r, m * r * r, m * m * r * r)
        for value, reference, term in zip(g + h, g_ref + h_ref, terms):
            within(value, reference, term)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.1, 1000.0),
        st.floats(0.1, 1000.0),
        st.integers(2, 300),
        st.integers(20, 800),
        st.integers(0, 2**32 - 1),
    )
    def test_fits_agree_within_tolerance(self, alpha, beta, m, k, seed):
        counts = stats_reference.sample(BetaBinomial.from_shapes(alpha, beta, m), seed=seed, k=k)
        assume(np.unique(counts).size >= 2)
        sample = CountSample(tuple(counts.tolist()))
        tol = 1e-9  # fit's default
        result = fit(sample, trials=m, tol=tol)
        with mock.patch.multiple(stats, **_REFERENCE_SUMS):
            reference = fit(sample, trials=m, tol=tol)
        assume(result.converged and reference.converged)
        if result.dist.theta == 0.0:
            # The same exact test puts both on the boundary, at the same p.
            assert reference.dist == result.dist
            return
        # Both stop where the Newton decrement is within tol * n, so both
        # likelihoods are within about tol * n of the maximum, and both
        # points inside the ellipse where the likelihood is: a distance
        # sqrt(2 tol n [(-H)^-1]_ii) along coordinate i.
        slack = tol * k
        assert abs(result.log_likelihood - reference.log_likelihood) <= slack
        p, theta = result.dist.p, result.dist.theta
        t = stats._tails(np.bincount(counts).tolist(), m)
        _, (hpp, hpt, htt) = stats._derivatives(t, p, theta)
        spread = np.diag(np.linalg.inv(-np.array([[hpp, hpt], [hpt, htt]])))
        radius = 2 * np.sqrt(2 * slack * spread)
        assert abs(p - reference.dist.p) <= radius[0]
        assert abs(theta - reference.dist.theta) <= radius[1]


class TestCountIO:
    def test_plain_text(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("3\n5\n# comment\n7\n")
        assert read_counts(path).counts == (3, 5, 7)

    def test_csv_column(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("sample,n_h\na,4\nb,6\n")
        assert read_counts(path).counts == (4, 6)

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("3\nnope\n")
        with pytest.raises(ValueError, match="line 2"):
            read_counts(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("\n")
        with pytest.raises(ValueError):
            read_counts(path)

    def test_csv_without_column(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="n_h"):
            read_counts(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        for text in ("3\n5\n7\n", "n_h\n4\n6\n"):
            plain, marked = tmp_path / "plain", tmp_path / "marked"
            plain.write_bytes(text.encode())
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
            assert read_counts(marked).counts == read_counts(plain).counts

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_bytes(b"3\n\xff5\n")
        with pytest.raises(ValueError, match=r"counts\.txt: not UTF-8 text"):
            read_counts(path)
