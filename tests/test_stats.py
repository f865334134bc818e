"""Beta-binomial engine: PMF/moments/fit/sampling against independent oracles."""

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln, polygamma, psi

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


def oracle_log_pmf_by_recurrence(alpha: float, beta: float, m: int) -> np.ndarray:
    """oracle_pmf_by_recurrence in log space, where P(0) cannot underflow."""
    out = [math.fsum(math.log((beta + j) / (alpha + beta + j)) for j in range(m))]
    for n in range(m):
        out.append(out[-1] + math.log((m - n) / (n + 1.0)) + math.log((n + alpha) / (m - n - 1.0 + beta)))
    return np.array(out)


def headline_counts(seed: int, k: int) -> CountSample:
    return CountSample(tuple(int(x) for x in BetaBinomial(17.69, 15.36, 40).sample(seed=seed, k=k)))


class TestPmf:
    def test_symmetry_when_alpha_equals_beta(self):
        d = BetaBinomial(2.0, 2.0, 4)
        for n in range(5):
            assert d.log_pmf(n) == pytest.approx(d.log_pmf(4 - n), abs=1e-12)

    def test_normalization_reference_parameters(self):
        d = BetaBinomial(17.69, 15.36, 40)
        assert np.asarray(d.pmf_vector()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_argmax_by_exhaustive_enumeration(self):
        d = BetaBinomial(17.69, 15.36, 40)
        values = d.pmf_vector()
        oracle = oracle_pmf_by_recurrence(17.69, 15.36, 40)
        assert np.argmax(values) == np.argmax(oracle) == 22
        np.testing.assert_allclose(values, oracle, rtol=1e-11)

    def test_out_of_range(self):
        d = BetaBinomial(2.0, 3.0, 10)
        with pytest.raises(ValueError):
            d.pmf(11)
        with pytest.raises(ValueError):
            d.pmf(-1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BetaBinomial(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            BetaBinomial(1.0, -2.0, 5)
        with pytest.raises(ValueError):
            BetaBinomial(1.0, 1.0, -1)


# Shape parameters from 1e-2 to 1e10, log-uniform: from strong overdispersion
# to the binomial limit.
shape = st.floats(min_value=-2.0, max_value=10.0).map(lambda e: 10.0**e)


class TestPmfProperties:
    @settings(max_examples=200, deadline=None)
    @given(alpha=shape, beta=shape, m=st.integers(0, 200))
    def test_normalized(self, alpha, beta, m):
        assert abs(np.asarray(BetaBinomial(alpha, beta, m).pmf_vector()).sum() - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(alpha=shape, beta=shape, m=st.integers(0, 200))
    def test_matches_recurrence_oracle(self, alpha, beta, m):
        # A log difference d is a relative PMF difference of exp(d) - 1.
        log_pmf = BetaBinomial(alpha, beta, m).log_pmf(np.arange(m + 1))
        assert np.max(np.abs(log_pmf - oracle_log_pmf_by_recurrence(alpha, beta, m))) <= 1e-9


class TestMoments:
    def test_reference_values(self):
        d = BetaBinomial(17.69, 15.36, 40)
        assert d.mean() == pytest.approx(21.41, abs=0.01)
        assert d.std() == pytest.approx(4.62, abs=0.01)

    def test_symmetric_mean(self):
        for m in (0, 1, 7, 40):
            assert BetaBinomial(3.3, 3.3, m).mean() == pytest.approx(m / 2.0, abs=1e-12)

    def test_closed_form_matches_pmf_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            alpha = float(10 ** rng.uniform(-1, 1.5))
            beta = float(10 ** rng.uniform(-1, 1.5))
            m = int(rng.integers(1, 200))
            d = BetaBinomial(alpha, beta, m)
            n = np.arange(m + 1)
            p = d.pmf_vector()
            mean_direct = float(np.sum(n * p))
            second_direct = float(np.sum(n * n * p))
            var_centered = float(np.sum((n - mean_direct) ** 2 * p))
            assert d.mean() == pytest.approx(mean_direct, rel=1e-10)
            assert d.variance() + d.mean() ** 2 == pytest.approx(second_direct, rel=1e-10)
            assert d.variance() == pytest.approx(var_centered, rel=1e-10, abs=1e-10)

    def test_monte_carlo_consistency(self):
        d = BetaBinomial(17.69, 15.36, 40)
        draws = d.sample(seed=42, k=10**6)
        se_mean = d.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - d.mean()) < 3 * se_mean
        # variance of the sample variance ~ (mu4 - var^2)/k; bound loosely
        se_var = math.sqrt(2.0) * d.variance() / math.sqrt(draws.size) * 3
        assert abs(draws.var() - d.variance()) < 10 * se_var


class TestSampling:
    def test_zero_trials(self):
        draws = BetaBinomial(2.0, 5.0, 0).sample(seed=1, k=100)
        assert np.all(draws == 0)

    def test_seed_determinism(self):
        d = BetaBinomial(17.69, 15.36, 40)
        np.testing.assert_array_equal(d.sample(seed=9, k=1000), d.sample(seed=9, k=1000))

    def test_ks_distance_below_critical(self):
        d = BetaBinomial(17.69, 15.36, 40)
        draws = d.sample(seed=5, k=10**5)
        cdf = np.cumsum(d.pmf_vector())
        empirical = np.array([(draws <= n).mean() for n in range(d.trials + 1)])
        ks = float(np.max(np.abs(empirical - cdf)))
        critical_1pct = 1.628 / math.sqrt(draws.size)
        assert ks < critical_1pct

    def test_bad_k(self):
        with pytest.raises(ValueError):
            BetaBinomial(1.0, 1.0, 5).sample(seed=0, k=0)


class TestFit:
    def test_recovers_generator_moments(self):
        gen = BetaBinomial(17.69, 15.36, 40)
        draws = gen.sample(seed=123, k=400)
        result = fit(CountSample(tuple(int(x) for x in draws)), trials=40)
        assert result.converged
        assert abs(result.dist.mean() - gen.mean()) <= 0.5
        assert abs(result.dist.variance() - gen.variance()) <= 0.15 * gen.variance()

    def test_likelihood_never_below_initializer(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            counts = rng.integers(0, 15, size=50)
            if np.unique(counts).size < 2:
                continue
            result = fit(CountSample(tuple(int(x) for x in counts)), trials=20)
            tails = stats._tails(np.bincount(counts).tolist(), 20, stats._log_factorials(20))
            start = stats._moment_estimate(float(counts.mean()), float(counts.var()), 20)
            assert result.log_likelihood >= stats._log_likelihood(tails, *start) - 1e-9

    def test_degenerate_counts(self):
        with pytest.raises(DegenerateDataError):
            fit(CountSample((5, 5, 5, 5)), trials=10)

    def test_count_exceeding_fixed_m(self):
        with pytest.raises(ValueError):
            fit(CountSample((1, 2, 50)), trials=40)

    def test_scan_covers_default_range(self):
        gen = BetaBinomial(5.0, 4.0, 12)
        draws = gen.sample(seed=3, k=300)
        result = fit(CountSample(tuple(int(x) for x in draws)))
        cmax = int(max(draws))
        scanned = [m for m, _ in result.scan]
        assert scanned[0] == cmax and scanned[-1] == cmax + 60
        assert result.log_likelihood == max(ll for _, ll in result.scan)

    def test_log_likelihood_is_sum_of_log_pmf(self):
        sample = headline_counts(seed=19, k=400)
        result = fit(sample, trials=40)
        direct = math.fsum(result.dist.log_pmf(np.array(sample.counts)))
        assert result.log_likelihood == pytest.approx(direct, rel=1e-12)

    def test_optimum_is_a_local_maximum(self):
        sample = headline_counts(seed=23, k=400)
        result = fit(sample, trials=40)
        a, b = result.dist.alpha, result.dist.beta
        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
            nearby = BetaBinomial(a * (1 + 1e-4 * da), b * (1 + 1e-4 * db), 40)
            assert math.fsum(nearby.log_pmf(np.array(sample.counts))) < result.log_likelihood

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
        # 64 headline counts whose M scan is won by the binomial limit.
        result = fit(headline_counts(seed=302, k=64))
        assert result.converged
        assert result.dist.alpha + result.dist.beta > 1e6

    def test_underdispersed_counts_reach_binomial_limit(self):
        # No interior optimum: the fit stops on the binomial-limit plateau,
        # with the binomial's mean.
        counts = CountSample((20, 21) * 50)
        result = fit(counts, trials=40)
        assert result.converged
        assert result.dist.alpha + result.dist.beta > 1e8
        assert result.dist.mean() == pytest.approx(20.5, rel=1e-6)

    def test_plateau_beyond_parameter_box_stops_unconverged(self):
        # At M = MAX_TRIALS the plateau's gradient still exceeds the tolerance
        # at the ln alpha, ln beta <= 30 box edge, where the likelihood is
        # flat to rounding: the fit must give up promptly, not wander there.
        start = time.perf_counter()
        result = fit(CountSample((50000, 50001) * 50), trials=MAX_TRIALS)
        assert not result.converged
        assert time.perf_counter() - start < 20.0

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(0.1, 1000.0),
        st.floats(0.1, 1000.0),
        st.integers(2, 300),
        st.integers(20, 800),
        st.integers(0, 2**32 - 1),
    )
    def test_fits_on_beta_binomial_samples_converge(self, alpha, beta, m, k, seed):
        counts = BetaBinomial(alpha, beta, m).sample(seed=seed, k=k)
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
        # A fit that reports convergence returns the point whose log-parameter
        # gradient passed the test, not another point it met on the way.
        counts = BetaBinomial(alpha, beta, m).sample(seed=seed, k=k)
        assume(np.unique(counts).size >= 2)
        tol = 1e-9  # fit's default
        result = fit(CountSample(tuple(counts.tolist())), trials=m, tol=tol)
        assume(result.converged)
        a, b = result.dist.alpha, result.dist.beta
        t = stats._tails(np.bincount(counts).tolist(), m, stats._log_factorials(m))
        ga, gb = stats._gradient(t, a, b)
        assert abs(a * ga) <= tol * k and abs(b * gb) <= tol * k
        assert result.log_likelihood == stats._log_likelihood(t, a, b)

    def test_trial_number_bound(self):
        counts = CountSample((1, 2, 3))
        with pytest.raises(ValueError, match="largest supported"):
            fit(counts, trials=MAX_TRIALS + 1)
        with pytest.raises(ValueError, match="largest supported"):
            fit(counts, scan_range=(1, MAX_TRIALS + 1))
        with pytest.raises(ValueError, match="largest supported"):
            fit(CountSample((1, 10**12)))
        with pytest.raises(ValueError, match="largest supported"):
            BetaBinomial(1.0, 1.0, MAX_TRIALS + 1)

    def test_report_fields(self):
        gen = BetaBinomial(6.0, 3.0, 20)
        draws = gen.sample(seed=8, k=200)
        report = fit(CountSample(tuple(int(x) for x in draws)), trials=20).report()
        assert set(report) == {"alpha", "beta", "M", "log_likelihood", "mean", "std"}


class TestHistogramEvaluators:
    """The tail-count sums against per-sample special-function formulas."""

    @pytest.mark.parametrize("seed", range(5))
    def test_match_per_sample_formulas(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 80))
        counts = rng.integers(0, m + 1, size=int(rng.integers(2, 500)))
        alpha, beta = 10.0 ** rng.uniform(-1.5, 3, size=2)
        # A scan's one ln k! table is built for its largest M.
        t = stats._tails(np.bincount(counts).tolist(), m, stats._log_factorials(m + 60))
        n, s, c = counts.size, alpha + beta, counts.astype(float)

        ll = np.sum(
            gammaln(m + 1.0) - gammaln(c + 1.0) - gammaln(m - c + 1.0)
            + betaln(c + alpha, m - c + beta)
        ) - n * betaln(alpha, beta)
        ga = np.sum(psi(c + alpha)) - n * psi(m + s) - n * psi(alpha) + n * psi(s)
        gb = np.sum(psi(m - c + beta)) - n * psi(m + s) - n * psi(beta) + n * psi(s)
        t_ms, t_s = polygamma(1, m + s), polygamma(1, s)
        haa = np.sum(polygamma(1, c + alpha)) - n * t_ms - n * polygamma(1, alpha) + n * t_s
        hbb = np.sum(polygamma(1, m - c + beta)) - n * t_ms - n * polygamma(1, beta) + n * t_s
        hab = n * (t_s - t_ms)

        # Both sides sum O(n M) terms of size up to |ln Gamma| in float64.
        scale = n * (abs(gammaln(m + s)) + abs(gammaln(alpha)) + abs(gammaln(beta)) + m)
        assert stats._log_likelihood(t, alpha, beta) == pytest.approx(ll, abs=1e-13 * scale)
        g = stats._gradient(t, alpha, beta)
        h = stats._hessian(t, alpha, beta)
        gscale = n * m * (1.0 / alpha + 1.0 / beta + 1.0)
        np.testing.assert_allclose(g, [ga, gb], rtol=0, atol=1e-12 * gscale)
        np.testing.assert_allclose(
            h, [haa, hab, hbb], rtol=0, atol=1e-12 * gscale * (1.0 / alpha + 1.0 / beta + 1.0)
        )


def _reference_hessian(t, alpha, beta):
    h = stats_reference._hessian(t, alpha, beta)
    return h[0, 0], h[0, 1], h[1, 1]


# The fit's sums replaced by the numpy reference, behind the interface of stats.
_REFERENCE_SUMS = {
    "_tails": lambda hist, m, log_fact: stats_reference._tails(
        np.asarray(hist), m, np.asarray(log_fact)
    ),
    "_log_likelihood": stats_reference._log_likelihood,
    "_gradient": stats_reference._gradient,
    "_hessian": _reference_hessian,
}


class TestNumpyReference:
    """The exactly rounded sums against the numpy array sums they replace."""

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
        beta=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
        m=st.integers(1, 400),
        k=st.integers(2, 2000),
        seed=st.integers(0, 2**32 - 1),
        at=st.tuples(st.floats(-3.0, 8.0), st.floats(-3.0, 8.0)).map(
            lambda e: (10.0 ** e[0], 10.0 ** e[1])
        ),
    )
    def test_sums_agree_within_ulps_times_m(self, alpha, beta, m, k, seed, at):
        counts = BetaBinomial(alpha, beta, m).sample(seed=seed, k=k)
        assume(np.unique(counts).size >= 2)
        log_fact = stats._log_factorials(m)
        t = stats._tails(np.bincount(counts).tolist(), m, log_fact)
        ref = stats_reference._tails(np.bincount(counts), m, np.asarray(log_fact))
        a, b = at
        n = counts.size

        def within(value, reference, term):
            # Both sum M terms of magnitude at most `term`, in different orders.
            assert abs(value - reference) <= 16 * m * math.ulp(term)

        largest_log = max(abs(math.log(x)) for x in (a, b, a + b, a + m, b + m, a + b + m))
        within(
            stats._log_likelihood(t, a, b),
            stats_reference._log_likelihood(ref, a, b),
            n * largest_log + abs(t.const) / m,
        )
        g, g_ref = stats._gradient(t, a, b), stats_reference._gradient(ref, a, b)
        within(g[0], g_ref[0], n / a)
        within(g[1], g_ref[1], n / b)
        h, h_ref = stats._hessian(t, a, b), stats_reference._hessian(ref, a, b)
        within(h[0], h_ref[0, 0], n / a**2)
        within(h[1], h_ref[0, 1], n / (a + b) ** 2)
        within(h[2], h_ref[1, 1], n / b**2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.1, 1000.0),
        st.floats(0.1, 1000.0),
        st.integers(2, 300),
        st.integers(20, 800),
        st.integers(0, 2**32 - 1),
    )
    def test_fits_agree_within_tolerance(self, alpha, beta, m, k, seed):
        counts = BetaBinomial(alpha, beta, m).sample(seed=seed, k=k)
        assume(np.unique(counts).size >= 2)
        sample = CountSample(tuple(counts.tolist()))
        tol = 1e-9  # fit's default
        result = fit(sample, trials=m, tol=tol)
        with mock.patch.multiple(stats, **_REFERENCE_SUMS):
            reference = fit(sample, trials=m, tol=tol)
        assume(result.converged and reference.converged)
        # Both stop where the log-parameter gradient is within tol per sample,
        # so both likelihoods are within tol * n of the maximum, and both
        # points inside the ellipse where the likelihood is: a distance
        # sqrt(2 tol n / lambda) along the flattest direction of the Hessian.
        slack = tol * k
        assert abs(result.log_likelihood - reference.log_likelihood) <= slack
        a, b = result.dist.alpha, result.dist.beta
        t = stats._tails(np.bincount(counts).tolist(), m, stats._log_factorials(m))
        (ga, gb), (haa, hab, hbb) = stats._gradient(t, a, b), stats._hessian(t, a, b)
        h_log = [[a * a * haa + a * ga, a * b * hab], [a * b * hab, b * b * hbb + b * gb]]
        flattest = np.abs(np.linalg.eigvalsh(h_log)).min()
        radius = 2 * math.sqrt(2 * slack / flattest) if flattest > 0 else math.inf
        assert abs(math.log(a / reference.dist.alpha)) <= radius
        assert abs(math.log(b / reference.dist.beta)) <= radius


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
