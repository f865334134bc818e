"""Beta-binomial statistics for hydrogen counts across oxide samples.

The number of H atoms found in a fixed reference area of oxide varies from
sample to sample with more spread than a plain binomial allows.  The
beta-binomial captures that overdispersion, here in the mean/overdispersion
form of Griffiths (Biometrics 29, 637 (1973)): with mean fraction p and
theta >= 0,

    P(n) = C(M, n) prod_{j<n} (p + j theta) prod_{j<M-n} (1 - p + j theta)
           / prod_{j<M} (1 + j theta),

exactly the binomial at theta = 0; the beta shapes are alpha = p / theta
and beta = (1 - p) / theta.  This module provides the distribution
(PMF and moments), maximum-likelihood fitting with a fixed trial count
M or a likelihood scan over M, and count-file ingestion.

The fit works on the count histogram through the PMF's own log-steps
s_k = ln P(k + 1) - ln P(k) = ln((M - k) / (k + 1)) + ln(p + k theta)
- ln(1 - p + (M - 1 - k) theta).  With the tail counts A_k = #{c > k} of n
samples (Minka, "Estimating a Dirichlet distribution", 2000),

    l = n ln P(0) + sum_k A_k s_k,   ln P(0) = sum_{j<M} log1p(-p / (1 + j theta)),

so each evaluation costs O(M) whatever the sample count.  Above p = 1/2
the same sum runs over the counts M - c at 1 - p, so that n ln P(0) stays
within n M ln 2 however close p comes to 1.  The sign of dl/dtheta at
(p = mean / M, theta = 0), in exact integers (Tarone, Biometrika 66, 585
(1979)), tells whether the counts are overdispersed; if not, that binomial
is the fit.  Otherwise Newton in (p, theta) runs from the moment estimate
until the Newton decrement g^T (-H)^-1 g / 2 is within `tol` per sample.

The module works on Python floats and imports no numpy, so that fitting
counts costs no numpy import: every sum goes through `math.fsum`, which
rounds exactly once, and the 2x2 Newton step is solved in closed form.  An
evaluation of l makes one division and one `log1p` per j < M and three `log`
calls per step it sums; the gradient and Hessian together make two
divisions and a few products per j.  That is tens of microseconds each at
the M ~ 100 of a default scan.  At M = MAX_TRIALS, theta = 0.02 and 400
counts of at most 40, l takes 12 ms at p = 0.3 and 63-65 ms at p = 0.7,
where its sum runs over the M - c, and the derivatives 53-60 ms (CPython
3.11 on a 2-vCPU Xeon host).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from math import exp, fsum, isfinite, log, log1p
from operator import add, mul
from pathlib import Path
from typing import NamedTuple, Sequence

__all__ = [
    "MAX_TRIALS",
    "BetaBinomial",
    "ComputationError",
    "CountSample",
    "DegenerateDataError",
    "FitConvergenceError",
    "FitResult",
    "fit",
    "read_counts",
    "read_text",
]

# Largest trial number M accepted anywhere (fit, scan bound, distribution):
# the PMF, the fit's tails and its sums over j < M hold O(M) floats.
MAX_TRIALS = 100_000


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


def _prefix_sums(terms) -> tuple[list[float], list[float]]:
    """Lists (hi, lo) with hi[k] + lo[k] = the sum of the first k terms:
    hi[k] is the rounded running sum and lo[k] the sum of its rounding
    errors (Knuth's TwoSum)."""
    hi, lo = [0.0], [0.0]
    total = err = 0.0
    for term in terms:
        s = total + term
        bb = s - total
        err += (total - (s - bb)) + (term - bb)
        total = s
        hi.append(s)
        lo.append(err)
    return hi, lo


def _log_steps(p: float, theta: float, m: int, stop: int):
    """The log-steps s_k = ln P(k + 1) - ln P(k), k < stop."""
    q = 1.0 - p
    return (
        log((m - k) / (k + 1.0)) + log(p + k * theta) - log(q + (m - 1 - k) * theta)
        for k in range(stop)
    )


@dataclass(frozen=True)
class BetaBinomial:
    """Beta-binomial distribution over n in {0, ..., trials} with mean
    success probability p and overdispersion theta; theta = 0 is the
    binomial."""

    p: float
    theta: float
    trials: int

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly between 0 and 1, got {self.p}")
        if self.trials < 0 or self.trials != int(self.trials):
            raise ValueError(f"trials must be a non-negative integer, got {self.trials}")
        _check_trials(self.trials, "trials")
        # Every factor 1 + j theta, j < trials, of the product form is finite.
        if not (self.theta >= 0.0 and isfinite(self.theta * max(self.trials, 1))):
            raise ValueError(f"theta must be >= 0 with theta * trials finite, got {self.theta}")

    @classmethod
    def from_shapes(cls, alpha: float, beta: float, trials: int) -> BetaBinomial:
        """The distribution whose beta law has shapes alpha, beta > 0."""
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        try:
            return cls(1.0 / (1.0 + beta / alpha), 1.0 / (alpha + beta), trials)
        except ValueError as exc:
            raise ValueError(f"alpha = {alpha}, beta = {beta}, trials = {trials}: {exc}") from None

    @property
    def alpha(self) -> float:
        return self.p / self.theta if self.theta else math.inf

    @property
    def beta(self) -> float:
        return (1.0 - self.p) / self.theta if self.theta else math.inf

    def pmf_vector(self) -> list[float]:
        """PMF over the support 0..trials, as Python floats: the steps
        ln P(n + 1) - ln P(n) summed with compensation, exponentiated
        relative to the largest sum and divided by their total, so that no
        normalizing product is evaluated and the values sum to 1 up to their
        own rounding."""
        m = self.trials
        hi, lo = _prefix_sums(_log_steps(self.p, self.theta, m, m))
        top = max(hi)  # a common offset cancels against the total
        weights = [exp((h - top) + l) for h, l in zip(hi, lo)]
        total = fsum(weights)
        return [w / total for w in weights]

    def mean(self) -> float:
        return self.trials * self.p

    def variance(self) -> float:
        m, p, t = self.trials, self.p, self.theta
        # The ratio first: M p (1 - p) (1 + M theta) can overflow where the variance does not.
        return m * p * (1.0 - p) * ((1.0 + m * t) / (1.0 + t))

    def std(self) -> float:
        return math.sqrt(self.variance())


@dataclass(frozen=True)
class CountSample:
    """Observed hydrogen counts, one per sample."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) == 0:
            raise ValueError("counts must be non-empty")
        if any(c < 0 or c != int(c) for c in self.counts):
            raise ValueError("counts must be non-negative integers")


def read_text(path: Path, *, named: bool = True) -> str:
    """The text of `path` read as UTF-8 whatever the locale, without a
    leading byte-order mark; a file that is not UTF-8 is a ValueError that
    names it, unless `named` is false because the caller names the file."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise ValueError(f"{path}: {reason}" if named else reason) from None


def read_counts(path: str | Path) -> CountSample:
    """Read counts from a one-integer-per-line file or a CSV with an `n_h` column."""
    path = Path(path)
    text = read_text(path)
    lines = text.splitlines()
    if not any(line.strip() for line in lines):
        raise ValueError(f"{path}: no counts found")

    def count(token, i: int) -> int:
        try:
            value = int(token)
        except (TypeError, ValueError):
            value = -1
        if value < 0:
            raise ValueError(f"{path}: line {i}: bad count {token!r}")
        return value

    header = next(line for line in lines if line.strip())
    if "," in header or header.strip().lower() == "n_h":
        import csv
        import io

        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or "n_h" not in reader.fieldnames:
            raise ValueError(f"{path}: CSV input requires an 'n_h' column")
        counts = [count(row["n_h"], i) for i, row in enumerate(reader, start=2)]
    else:
        counts = [
            count(line.strip(), i)
            for i, line in enumerate(lines, start=1)
            if line.strip() and not line.strip().startswith("#")
        ]
    if not counts:
        raise ValueError(f"{path}: no counts found")
    return CountSample(counts=tuple(counts))


@dataclass(frozen=True)
class FitResult:
    """Maximum-likelihood fit outcome."""

    dist: BetaBinomial
    log_likelihood: float
    converged: bool
    iterations: int
    scan: tuple[tuple[int, float], ...] = ()

    def report(self) -> dict:
        """Emission-ready summary (documented JSON fields); alpha and beta
        are inf at theta = 0."""
        return {
            "p": self.dist.p,
            "theta": self.dist.theta,
            "alpha": self.dist.alpha,
            "beta": self.dist.beta,
            "M": self.dist.trials,
            "log_likelihood": self.log_likelihood,
            "mean": self.dist.mean(),
            "std": self.dist.std(),
        }


class _Tails(NamedTuple):
    """Sufficient statistics of n counts for one trial number M: the tail
    counts A_k = #{c > k} up to the largest count, as the weights the
    log-likelihood and its derivatives take, with j = M - 1 - k, and
    B_k = #{M - c > k}, the A_k of the counts M - c."""

    m: int
    a: list[float]  # A_k
    ka: list[float]  # k A_k
    kka: list[float]  # k^2 A_k
    ja: list[float]  # j A_k
    jja: list[float]  # j^2 A_k
    b: list[float]  # B_k
    n: int
    s1: int  # sum of the counts
    s2: int  # sum of their squares


def _tails(hist: list[int], m: int) -> _Tails:
    """Tail counts for trial number m >= max count, from the histogram `hist`
    (hist[c] samples hold count c; its last entry is non-zero)."""
    cdf = list(accumulate(hist))  # cdf[k] = #{c <= k}
    n, cmax = cdf[-1], len(hist) - 1
    cmin = next(c for c, h in enumerate(hist) if h)
    a = [float(n - f) for f in cdf[:cmax]]
    # B_k = #{c < M - k}, which is n while M - 1 - k >= cmax.
    b = [float(n)] * (m - cmax) + [float(f) for f in reversed(cdf[cmin:cmax])]
    ks, js = range(cmax), range(m - 1, m - 1 - cmax, -1)
    ka, ja = list(map(mul, ks, a)), list(map(mul, js, a))
    kka, jja = list(map(mul, ks, ka)), list(map(mul, js, ja))
    s1 = sum(c * h for c, h in enumerate(hist))
    s2 = sum(c * c * h for c, h in enumerate(hist))
    return _Tails(m, a, ka, kka, ja, jja, b, n, s1, s2)


def _log_likelihood(t: _Tails, p: float, theta: float) -> float:
    """l = n ln P(0) + sum_k A_k s_k.  Above p = 1/2 it is the same sum for
    the counts M - c at 1 - p, which is exact there, so that n |ln P(0)|
    stays within n M ln 2."""
    a, p = (t.a, p) if p <= 0.5 else (t.b, 1.0 - p)
    log_p0 = fsum(log1p(-p / (1.0 + j * theta)) for j in range(t.m))
    return fsum(chain((t.n * log_p0,), map(mul, a, _log_steps(p, theta, t.m, len(a)))))


def _derivatives(t: _Tails, p: float, theta: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """((dl/dp, dl/dtheta), (d2l/dp2, d2l/dp dtheta, d2l/dtheta2))."""
    m, n, q, cmax = t.m, t.n, 1.0 - p, len(t.a)
    # ln P(0) = sum_j ln(q + j theta) - ln(1 + j theta): with r_j = 1 / (q + j theta)
    # and u_j = 1 / (1 + j theta), its theta-derivatives carry r_j - u_j = p r_j u_j.
    js = range(m)
    r = [1.0 / (q + j * theta) for j in js]
    u = [1.0 / (1.0 + j * theta) for j in js]
    r2, jru = list(map(mul, r, r)), list(map(mul, js, map(mul, r, u)))
    # The steps' shape terms: x_k = 1 / (p + k theta) and y_k = r_j, j = M - 1 - k.
    x = [1.0 / (p + k * theta) for k in range(cmax)]
    x2, y, y2 = list(map(mul, x, x)), r[m - cmax :][::-1], r2[m - cmax :][::-1]

    def dot(w, v) -> float:
        return fsum(map(mul, w, v))

    return (
        (
            dot(t.a, x) + dot(t.a, y) - n * fsum(r),
            dot(t.ka, x) - dot(t.ja, y) + n * p * fsum(jru),
        ),
        (
            dot(t.a, y2) - dot(t.a, x2) - n * fsum(r2),
            n * dot(js, r2) - dot(t.ka, x2) - dot(t.ja, y2),
            dot(t.jja, y2) - dot(t.kka, x2) - n * p * dot(map(mul, js, jru), map(add, r, u)),
        ),
    )


def _line_search(
    t: _Tails, m: int, start: tuple[float, float], step: tuple[float, float], ll: float
) -> tuple[float, float, float] | None:
    """(p, theta, l) at the first of the points start + lam * step, lam = 1,
    1/2, ..., 2^-39, with 0 < p < 1 and theta > 0 whose likelihood l exceeds
    `ll`; None where there is none."""
    lam = 1.0
    for _ in range(40):
        p, theta = start[0] + lam * step[0], start[1] + lam * step[1]
        if (p, theta) == start:
            return None  # rounding keeps every shorter step in place too
        if 0.0 < p < 1.0 and theta > 0.0 and isfinite(theta * m):
            ll_new = _log_likelihood(t, p, theta)
            if ll_new > ll:
                return p, theta, ll_new
        lam *= 0.5
    return None


def _moment_estimate(t: _Tails, m: int) -> tuple[float, float]:
    """(p, theta) with the counts' mean and (population) variance at M
    trials, theta = 0 where the variance does not exceed the binomial's.

    The excess n M (s2 - s1) - (M - 1) s1^2 is dl/dtheta at (p, 0) times
    2 s1 (n M - s1) / (n M) > 0 (Tarone 1979).  n M sum c (M - c) is zero
    only where every count is 0 or M; the likelihood then rises toward
    theta = inf, and theta = 1 serves as a start."""
    n, s1, s2 = t.n, t.s1, t.s2
    excess = n * m * (s2 - s1) - (m - 1) * s1 * s1
    spread = n * m * (m * s1 - s2)
    theta = 0.0 if excess <= 0 else excess / spread if spread else 1.0
    return s1 / (n * m), theta


def _mle_fixed_m(
    t: _Tails, m: int, tol: float, max_iter: int
) -> tuple[BetaBinomial, float, bool, int]:
    p, theta = _moment_estimate(t, m)
    if theta == 0.0:
        # Not overdispersed: p maximizes the binomial likelihood and
        # dl/dtheta <= 0 there, the KKT conditions on the boundary theta = 0.
        return BetaBinomial(p, 0.0, m), _log_likelihood(t, p, 0.0), True, 0

    # Newton in (p, theta).  The Newton decrement g^T (-H)^-1 g / 2 does not
    # depend on the parametrization; it must fall within `tol` per sample.
    ll = _log_likelihood(t, p, theta)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        (gp, gt), (hpp, hpt, htt) = _derivatives(t, p, theta)
        det = hpp * htt - hpt * hpt
        if hpp < 0.0 < det:
            step = ((hpt * gt - htt * gp) / det, (hpt * gp - hpp * gt) / det)
            if gp * step[0] + gt * step[1] <= 2.0 * tol * t.n:
                converged = True
                break
        else:
            # -H is not positive definite here: Newton in p, and double or
            # halve theta.
            step = (-gp / hpp, theta if gt > 0 else -0.5 * theta)
        found = _line_search(t, m, (p, theta), step, ll)
        if found is None:
            break
        p, theta, ll = found
    return BetaBinomial(p, theta, m), ll, converged, iterations


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
    fitted and the best likelihood wins.  `tol` bounds the Newton decrement
    per sample.  Raises DegenerateDataError when all counts are equal and
    ValueError when a count exceeds a fixed M or any M exceeds MAX_TRIALS.
    """
    if not isinstance(sample, CountSample):
        sample = CountSample(tuple(sample))
    cmax = int(max(sample.counts))
    _check_trials(cmax, "count")
    tally = Counter(map(int, sample.counts))
    if len(sample.counts) < 2 or len(tally) < 2:
        raise DegenerateDataError("need at least two distinct count values to fit")
    hist = [tally[c] for c in range(cmax + 1)]

    def fit_m(m: int):
        return _mle_fixed_m(_tails(hist, m), m, tol, max_iter)

    if trials is not None:
        if cmax > trials:
            raise ValueError(f"count {cmax} exceeds fixed trial number {trials}")
        _check_trials(int(trials), "trial number")
        return FitResult(*fit_m(int(trials)))

    lo, hi = scan_range if scan_range is not None else (cmax, min(cmax + 60, MAX_TRIALS))
    lo = max(int(lo), cmax, 1)
    hi = int(hi)
    _check_trials(hi, "scan bound")
    if hi < lo:
        raise ValueError(f"empty scan range [{lo}, {hi}]")
    best = None
    table = []
    for m in range(lo, hi + 1):
        result = fit_m(m)
        table.append((m, result[1]))
        if best is None or result[1] > best[1]:
            best = result
    return FitResult(*best, scan=tuple(table))
