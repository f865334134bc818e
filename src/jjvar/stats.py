"""Beta-binomial statistics for hydrogen counts across oxide samples.

The number of H atoms found in a fixed reference area of oxide varies from
sample to sample with more spread than a plain binomial allows.  A
beta-binomial,

    P(n) = C(M, n) * B(n + alpha, M - n + beta) / B(alpha, beta),

captures that overdispersion.  This module provides the distribution
(PMF/moments/sampling), maximum-likelihood fitting with either a fixed trial
count M or a likelihood scan over M, and count-file ingestion.

Everything is evaluated through rising-factorial (Pochhammer) sums,
ln Gamma(x + k) - ln Gamma(x) = sum_{j<k} ln(x + j), so no special functions
are needed.  The fit works on the count histogram (Minka, "Estimating a
Dirichlet distribution", 2000): with the tail counts A_j = #{c > j} and
B_j = #{M - c > j} of n samples, the log-likelihood is

    l = const + sum_{j<M} [A_j ln(alpha + j) + B_j ln(beta + j) - n ln(alpha + beta + j)],

so each evaluation costs O(M) whatever the sample count.  The Newton
iteration stops once every log-parameter gradient is within `tol` per sample.

The module works on Python floats and needs no numpy, so that fitting counts
costs no numpy import: every sum goes through `math.fsum`, which rounds
exactly once and so makes the results independent of summation order, and
the 2x2 Newton step is solved in closed form.  An evaluation of l, its
gradient or its Hessian makes up to 3M interpreted terms, each a `log` or a
division at about 0.1-0.2 us in CPython 3.11: tens of microseconds at the
M ~ 100 of a default scan, some 50 ms at MAX_TRIALS.  `BetaBinomial.sample`
alone imports numpy, when called.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from math import exp, fsum, isfinite, log
from operator import mul
from pathlib import Path
from typing import NamedTuple, Sequence

__all__ = [
    "MAX_TRIALS",
    "SHAPE_RANGE",
    "MD_REFERENCE_AREA",
    "BetaBinomial",
    "ComputationError",
    "CountSample",
    "DegenerateDataError",
    "FitConvergenceError",
    "FitResult",
    "fit",
    "read_counts",
]

# Lateral cross-section of the oxide-growth simulation cell (A^2); the area
# the count samples refer to.
MD_REFERENCE_AREA = 34.17 * 34.17

# Largest trial number M accepted anywhere (fit, scan bound, distribution):
# the PMF and the fit's sums hold O(M) floats.
MAX_TRIALS = 100_000

# Range of alpha and beta accepted by BetaBinomial.  Inside it the moments and
# the PMF stay finite at every trial number up to MAX_TRIALS; outside it
# alpha + beta overflows or the variance's s^2 (s + 1) underflows to 0.
SHAPE_RANGE = (1e-100, 1e100)


class DegenerateDataError(ValueError):
    """The counts carry no spread, so the overdispersion is unidentifiable."""


class ComputationError(RuntimeError):
    """A numerical or convergence failure: a computation on valid input gave
    no usable result.  The base of every such error in the package."""


class FitConvergenceError(ComputationError):
    """A consumer required convergence and the optimizer reported none."""


def _check_trials(m: int, what: str) -> None:
    if m > MAX_TRIALS:
        raise ValueError(f"{what} {m} exceeds the largest supported trial number {MAX_TRIALS}")


def _log_rising(x: float, m: int) -> tuple[list[float], list[float]]:
    """Lists (hi, lo) with hi[k] + lo[k] = sum_{j<k} ln(x + j) for k = 0..m:
    hi[k] is the rounded running sum and lo[k] the sum of its rounding
    errors (Knuth's TwoSum)."""
    hi, lo = [0.0] * (m + 1), [0.0] * (m + 1)
    total = err = 0.0
    for k in range(1, m + 1):
        term = log(x + (k - 1))
        s = total + term
        bb = s - total
        err += (total - (s - bb)) + (term - bb)
        total = hi[k] = s
        lo[k] = err
    return hi, lo


def _log_factorials(m: int) -> list[float]:
    """ln k! for k = 0..m."""
    return [h + l for h, l in zip(*_log_rising(1.0, m))]


@dataclass(frozen=True)
class BetaBinomial:
    """Beta-binomial distribution over n in {0, ..., trials}."""

    alpha: float
    beta: float
    trials: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            if not SHAPE_RANGE[0] <= getattr(self, name) <= SHAPE_RANGE[1]:
                raise ValueError(f"{name} must be within {SHAPE_RANGE}, got {getattr(self, name)}")
        if self.trials < 0 or self.trials != int(self.trials):
            raise ValueError(f"trials must be a non-negative integer, got {self.trials}")
        _check_trials(self.trials, "trials")

    def log_pmf(self, n):
        """log P(n) as a float for an integer `n` within [0, trials], or as a
        list of floats for an iterable of them."""
        try:
            counts = list(n)
        except TypeError:
            return self.log_pmf([n])[0]
        m = self.trials
        for c in counts:
            if not 0 <= c <= m or c != int(c):
                raise ValueError(f"count outside support {{0, ..., {m}}}")
        fact, ra, rb, rs = (
            _log_rising(x, m) for x in (1.0, self.alpha, self.beta, self.alpha + self.beta)
        )
        const = (fact[0][m], fact[1][m], -rs[0][m], -rs[1][m])
        # The parts reach ~M ln(M + alpha + beta) and cancel; sum them exactly.
        out = []
        for c in map(int, counts):
            parts = (-fact[0][c], -fact[1][c], -fact[0][m - c], -fact[1][m - c])
            out.append(fsum(const + parts + (ra[0][c], ra[1][c], rb[0][m - c], rb[1][m - c])))
        return out

    def pmf(self, n):
        """P(n), computed in log space and exponentiated: a float, or a list of
        floats for an iterable `n`."""
        log_p = self.log_pmf(n)
        return exp(log_p) if isinstance(log_p, float) else list(map(exp, log_p))

    def pmf_vector(self) -> list[float]:
        """PMF over the entire support 0..trials."""
        return self.pmf(range(self.trials + 1))

    def mean(self) -> float:
        return self.trials * self.alpha / (self.alpha + self.beta)

    def variance(self) -> float:
        s = self.alpha + self.beta
        return self.trials * (self.trials + s) * self.alpha * self.beta / (s * s * (s + 1.0))

    def std(self) -> float:
        return math.sqrt(self.variance())

    def sample(self, seed: int, k: int):
        """Draw `k` counts deterministically for `seed` (beta, then binomial),
        as a numpy integer array."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        import numpy as np

        rng = np.random.default_rng(seed)
        p = rng.beta(self.alpha, self.beta, size=k)
        return rng.binomial(self.trials, p)


@dataclass(frozen=True)
class CountSample:
    """Observed hydrogen counts, one per sample, for a reference area (A^2)."""

    counts: tuple[int, ...]
    area: float = MD_REFERENCE_AREA

    def __post_init__(self) -> None:
        if len(self.counts) == 0:
            raise ValueError("counts must be non-empty")
        if any(c < 0 or c != int(c) for c in self.counts):
            raise ValueError("counts must be non-negative integers")
        if not self.area > 0:
            raise ValueError(f"reference area must be positive, got {self.area}")


def read_counts(path: str | Path, area: float = MD_REFERENCE_AREA) -> CountSample:
    """Read counts from a one-integer-per-line file or a CSV with an `n_h` column."""
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if not any(line.strip() for line in lines):
        raise ValueError(f"{path}: no counts found")
    header = next(line for line in lines if line.strip())
    if "," in header or header.strip().lower() == "n_h":
        import csv
        import io

        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or "n_h" not in reader.fieldnames:
            raise ValueError(f"{path}: CSV input requires an 'n_h' column")
        counts = []
        for i, row in enumerate(reader, start=2):
            try:
                counts.append(int(row["n_h"]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {i}: bad count {row.get('n_h')!r}") from exc
    else:
        counts = []
        for i, line in enumerate(lines, start=1):
            token = line.strip()
            if not token or token.startswith("#"):
                continue
            try:
                counts.append(int(token))
            except ValueError as exc:
                raise ValueError(f"{path}: line {i}: bad count {token!r}") from exc
    if not counts:
        raise ValueError(f"{path}: no counts found")
    return CountSample(counts=tuple(counts), area=area)


@dataclass(frozen=True)
class FitResult:
    """Maximum-likelihood fit outcome."""

    dist: BetaBinomial
    log_likelihood: float
    converged: bool
    iterations: int
    scan: tuple[tuple[int, float], ...] = ()

    def report(self) -> dict:
        """Emission-ready summary (documented JSON fields)."""
        return {
            "alpha": self.dist.alpha,
            "beta": self.dist.beta,
            "M": self.dist.trials,
            "log_likelihood": self.log_likelihood,
            "mean": self.dist.mean(),
            "std": self.dist.std(),
        }


class _Tails(NamedTuple):
    """Sufficient statistics of n counts for one trial number M.  The tails
    stop where they reach zero: past the largest count for A, past M minus
    the smallest count for B."""

    j: list[float]  # 0..M-1
    a: list[float]  # A_j = #{c > j}
    b: list[float]  # B_j = #{M - c > j}
    n: int
    const: float  # sum over samples of ln C(M, c)


def _tails(hist: list[int], m: int, log_fact: list[float]) -> _Tails:
    """Tail counts for trial number m >= max count, from the histogram `hist`
    (hist[c] samples hold count c; its last entry is non-zero); `log_fact[k]`
    is ln k! for k = 0..m at least."""
    cdf = list(accumulate(hist))  # cdf[k] = #{c <= k}
    n, cmax = cdf[-1], len(hist) - 1
    cmin = next(c for c, h in enumerate(hist) if h)
    a = [float(n - f) for f in cdf[:cmax]]
    # B_j = #{c <= M - 1 - j}, which is n while M - 1 - j >= cmax.
    b = [float(n)] * (m - cmax) + [float(f) for f in reversed(cdf[cmin:cmax])]
    const = n * log_fact[m] - fsum(
        chain(map(mul, hist, log_fact), map(mul, hist, reversed(log_fact[m - cmax : m + 1])))
    )
    return _Tails([float(k) for k in range(m)], a, b, n, const)


def _log_likelihood(t: _Tails, alpha: float, beta: float) -> float:
    s, n = alpha + beta, -t.n
    return fsum(
        chain(
            (t.const,),
            [w * log(alpha + j) for w, j in zip(t.a, t.j)],
            [w * log(beta + j) for w, j in zip(t.b, t.j)],
            [n * log(s + j) for j in t.j],
        )
    )


def _gradient(t: _Tails, alpha: float, beta: float) -> tuple[float, float]:
    """(dl/d alpha, dl/d beta)."""
    s = alpha + beta
    common = t.n * fsum([1.0 / (s + j) for j in t.j])
    return (
        fsum([w / (alpha + j) for w, j in zip(t.a, t.j)]) - common,
        fsum([w / (beta + j) for w, j in zip(t.b, t.j)]) - common,
    )


def _hessian(t: _Tails, alpha: float, beta: float) -> tuple[float, float, float]:
    """(d2l/d alpha2, d2l/d alpha d beta, d2l/d beta2)."""
    s = alpha + beta
    common = t.n * fsum([(s + j) ** -2.0 for j in t.j])
    return (
        common - fsum([w * (alpha + j) ** -2.0 for w, j in zip(t.a, t.j)]),
        common,
        common - fsum([w * (beta + j) ** -2.0 for w, j in zip(t.b, t.j)]),
    )


def _moment_estimate(mbar: float, var: float, m: int) -> tuple[float, float]:
    eps = 1e-9
    p = min(max(mbar / m, eps), 1.0 - eps)
    if m > 1 and var > 0:
        rho = (var / (m * p * (1.0 - p)) - 1.0) / (m - 1.0)
    else:
        rho = 0.0
    rho = min(max(rho, 1e-6), 1.0 - 1e-6)
    s = 1.0 / rho - 1.0
    return max(p * s, 1e-3), max((1.0 - p) * s, 1e-3)


def _line_search(
    t: _Tails, start: tuple[float, float], step: tuple[float, float], ll: float, ll_slack: float
) -> tuple[float, float, float] | None:
    """(u, v, l) at the first of the points start + lam * step, lam = 1, 1/2,
    ..., 2^-39, clamped to the +-30 box, whose likelihood l exceeds `ll`, or
    at lam = 1 is within `ll_slack` below it; None where there is none."""
    u, v = start
    tried = start
    lam = 1.0
    for _ in range(40):
        point = (min(max(u + lam * step[0], -30.0), 30.0), min(max(v + lam * step[1], -30.0), 30.0))
        if point == start:
            return None  # rounding keeps every shorter step in place too
        # A point the clamp repeats was refused already.
        if point != tried:
            tried = point
            ll_new = _log_likelihood(t, math.exp(point[0]), math.exp(point[1]))
            if isfinite(ll_new) and (ll_new > ll or (lam == 1.0 and ll_new >= ll - ll_slack)):
                return (*point, ll_new)
        lam *= 0.5
    return None


def _mle_fixed_m(
    t: _Tails, m: int, start: tuple[float, float], tol: float, max_iter: int
) -> tuple[BetaBinomial, float, bool, int]:
    # Per-sample tolerance: the gradient sums n per-sample terms.
    gtol = tol * t.n

    # Damped Newton on (ln alpha, ln beta); positivity comes for free.  The
    # likelihood `ll_cur` is the current iterate's, and `best` holds the
    # highest one met, never below the initializer's: the result when no
    # iterate passes the gradient test.
    u, v = math.log(start[0]), math.log(start[1])
    ll0 = ll_cur = _log_likelihood(t, math.exp(u), math.exp(v))
    best = (ll0, u, v)
    converged = False
    iterations = 0
    # Near the optimum the likelihood changes fall below float resolution
    # while the gradient is still shrinking; accept likelihood-neutral full
    # steps so Newton can finish quadratically.  A damped step must raise the
    # likelihood, or rounding noise could keep it wandering (as it does at
    # the ln alpha, ln beta = 30 box edge for large M).
    ll_slack = 1e-10 * max(1.0, abs(ll0))
    for iterations in range(1, max_iter + 1):
        a, b = math.exp(u), math.exp(v)
        ga, gb = _gradient(t, a, b)
        gu, gv = a * ga, b * gb
        if abs(gu) <= gtol and abs(gv) <= gtol:
            converged = True
            break
        haa, hab, hbb = _hessian(t, a, b)
        # Solve [[huu, huv], [huv, hvv]] step = -(gu, gv) by Cramer's rule.
        huu, huv, hvv = a * a * haa + a * ga, a * b * hab, b * b * hbb + b * gb
        det = huu * hvv - huv * huv
        if det == 0:
            break
        step = ((huv * gv - hvv * gu) / det, (huv * gu - huu * gv) / det)
        if not (isfinite(step[0]) and isfinite(step[1])):
            break
        found = _line_search(t, (u, v), step, ll_cur, ll_slack)
        if found is None:
            # No step length raises the likelihood: stop at the best point.
            break
        u, v, ll_cur = found
        if ll_cur >= best[0]:
            best = (ll_cur, u, v)

    if converged:
        # The iterate that passed the gradient test, not `best`: they differ
        # only by the likelihood-neutral steps accepted near the optimum.
        best = (ll_cur, u, v)
    else:
        a, b = math.exp(best[1]), math.exp(best[2])
        ga, gb = _gradient(t, a, b)
        converged = abs(a * ga) <= gtol and abs(b * gb) <= gtol
    dist = BetaBinomial(math.exp(best[1]), math.exp(best[2]), m)
    return dist, best[0], converged, iterations


def fit(
    sample: CountSample | Sequence[int],
    trials: int | None = None,
    scan_range: tuple[int, int] | None = None,
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> FitResult:
    """Maximum-likelihood beta-binomial fit.

    With `trials` given, M is fixed; otherwise every M in `scan_range`
    (default: [max(counts), max(counts) + 60], capped at MAX_TRIALS) is
    fitted and the best likelihood wins.  `tol` bounds the log-parameter
    gradient per sample.  Raises DegenerateDataError when all counts are
    equal and ValueError when a count exceeds a fixed M or any M exceeds
    MAX_TRIALS.
    """
    if not isinstance(sample, CountSample):
        sample = CountSample(tuple(sample))
    cmax = int(max(sample.counts))
    _check_trials(cmax, "count")
    tally = Counter(map(int, sample.counts))
    if len(sample.counts) < 2 or len(tally) < 2:
        raise DegenerateDataError("need at least two distinct count values to fit")
    hist = [tally[c] for c in range(cmax + 1)]
    # Mean and variance from exact integer sums, each rounded once.
    n = len(sample.counts)
    s1 = sum(c * h for c, h in tally.items())
    s2 = sum(c * c * h for c, h in tally.items())
    moments = (s1 / n, (n * s2 - s1 * s1) / (n * n))

    def fit_m(m: int, log_fact: list[float]):
        t = _tails(hist, m, log_fact)
        return _mle_fixed_m(t, m, _moment_estimate(*moments, m), tol, max_iter)

    if trials is not None:
        if cmax > trials:
            raise ValueError(f"count {cmax} exceeds fixed trial number {trials}")
        _check_trials(int(trials), "trial number")
        return FitResult(*fit_m(int(trials), _log_factorials(int(trials))))

    lo, hi = scan_range if scan_range is not None else (cmax, min(cmax + 60, MAX_TRIALS))
    lo = max(int(lo), cmax, 1)
    hi = int(hi)
    _check_trials(hi, "scan bound")
    if hi < lo:
        raise ValueError(f"empty scan range [{lo}, {hi}]")
    # One ln k! table for the whole scan: each prefix is the table of a
    # smaller M, bit for bit.
    log_fact = _log_factorials(hi)
    best = None
    table = []
    for m in range(lo, hi + 1):
        result = fit_m(m, log_fact)
        table.append((m, result[1]))
        if best is None or result[1] > best[1]:
            best = result
    return FitResult(*best, scan=tuple(table))
