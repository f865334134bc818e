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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MAX_TRIALS",
    "SHAPE_RANGE",
    "MD_REFERENCE_AREA",
    "BetaBinomial",
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


class FitConvergenceError(RuntimeError):
    """A consumer required convergence and the optimizer reported none."""


def _check_trials(m: int, what: str) -> None:
    if m > MAX_TRIALS:
        raise ValueError(f"{what} {m} exceeds the largest supported trial number {MAX_TRIALS}")


def _two_sum(a, b):
    """Rounded sum and its exact rounding error (Knuth's TwoSum), elementwise."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _log_rising(x: float, m: int) -> np.ndarray:
    """Rows (hi, lo) with hi + lo = sum_{j<k} ln(x + j) for k = 0..m, compensated."""
    terms = np.log(x + np.arange(m, dtype=float))
    hi = np.concatenate(([0.0], np.cumsum(terms)))
    _, err = _two_sum(hi[:-1], terms)  # cumsum adds in order, so hi[1:] is each rounded sum
    return np.stack([hi, np.concatenate(([0.0], np.cumsum(err)))])


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
        """log P(n); `n` may be a scalar or an integer array within [0, trials]."""
        n = np.asarray(n)
        if np.any(n < 0) or np.any(n > self.trials) or np.any(n != np.floor(n)):
            raise ValueError(f"count outside support {{0, ..., {self.trials}}}")
        n = n.astype(np.int64)
        m = self.trials
        fact = _log_rising(1.0, m)
        parts = (
            fact[:, m],
            -fact[:, n],
            -fact[:, m - n],
            _log_rising(self.alpha, m)[:, n],
            _log_rising(self.beta, m)[:, m - n],
            -_log_rising(self.alpha + self.beta, m)[:, m],
        )
        # The parts reach ~M ln(M + alpha + beta) and cancel; sum them exactly.
        total, err = 0.0, 0.0
        for hi, lo in parts:
            total, e = _two_sum(total, hi)
            err = err + e + lo
        out = np.asarray(total + err)
        return float(out) if out.ndim == 0 else out

    def pmf(self, n):
        """P(n), computed in log space and exponentiated."""
        return np.exp(self.log_pmf(n))

    def pmf_vector(self) -> np.ndarray:
        """PMF over the entire support 0..trials."""
        return self.pmf(np.arange(self.trials + 1))

    def mean(self) -> float:
        return self.trials * self.alpha / (self.alpha + self.beta)

    def variance(self) -> float:
        s = self.alpha + self.beta
        return self.trials * (self.trials + s) * self.alpha * self.beta / (s * s * (s + 1.0))

    def std(self) -> float:
        return math.sqrt(self.variance())

    def sample(self, seed: int, k: int) -> np.ndarray:
        """Draw `k` counts deterministically for `seed` (beta, then binomial)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
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
    """Sufficient statistics of n counts for one trial number M."""

    j: np.ndarray  # 0..M-1
    a: np.ndarray  # A_j = #{c > j}
    b: np.ndarray  # B_j = #{M - c > j}
    n: int
    const: float  # sum over samples of ln C(M, c)


def _tails(hist: np.ndarray, m: int) -> _Tails:
    """Tail counts for trial number m >= max count, from the histogram `hist`."""
    n = int(hist.sum())
    cdf = np.full(m, float(n))  # cdf[k] = #{c <= k}
    k = min(m, hist.size)
    cdf[:k] = np.cumsum(hist)[:k]
    log_fact = _log_rising(1.0, m).sum(axis=0)
    c = np.arange(hist.size)
    const = n * log_fact[m] - float(hist @ (log_fact[c] + log_fact[m - c]))
    return _Tails(np.arange(m, dtype=float), n - cdf, cdf[::-1].copy(), n, const)


def _log_likelihood(t: _Tails, alpha: float, beta: float) -> float:
    return float(
        t.const
        + t.a @ np.log(alpha + t.j)
        + t.b @ np.log(beta + t.j)
        - t.n * np.sum(np.log(alpha + beta + t.j))
    )


def _gradient(t: _Tails, alpha: float, beta: float) -> np.ndarray:
    common = t.n * np.sum(1.0 / (alpha + beta + t.j))
    return np.array([t.a @ (1.0 / (alpha + t.j)) - common, t.b @ (1.0 / (beta + t.j)) - common])


def _hessian(t: _Tails, alpha: float, beta: float) -> np.ndarray:
    common = t.n * np.sum((alpha + beta + t.j) ** -2.0)
    haa = common - t.a @ (alpha + t.j) ** -2.0
    hbb = common - t.b @ (beta + t.j) ** -2.0
    return np.array([[haa, common], [common, hbb]])


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


def _mle_fixed_m(
    t: _Tails, m: int, start: tuple[float, float], tol: float, max_iter: int
) -> tuple[BetaBinomial, float, bool, int]:
    a, b = start
    ll0 = _log_likelihood(t, a, b)
    # Per-sample tolerance: the gradient sums n per-sample terms.
    gtol = tol * t.n

    # Damped Newton on (ln alpha, ln beta); positivity comes for free.
    u, v = math.log(a), math.log(b)
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
        g_nat = _gradient(t, a, b)
        g = np.array([a * g_nat[0], b * g_nat[1]])
        if np.max(np.abs(g)) <= gtol:
            converged = True
            break
        h_nat = _hessian(t, a, b)
        h = np.array(
            [
                [a * a * h_nat[0, 0] + a * g_nat[0], a * b * h_nat[0, 1]],
                [a * b * h_nat[0, 1], b * b * h_nat[1, 1] + b * g_nat[1]],
            ]
        )
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        ll_here = _log_likelihood(t, a, b)
        lam = 1.0
        for _ in range(40):
            u_new = min(max(u + lam * step[0], -30.0), 30.0)
            v_new = min(max(v + lam * step[1], -30.0), 30.0)
            ll_new = _log_likelihood(t, math.exp(u_new), math.exp(v_new))
            neutral_ok = lam == 1.0 and ll_new >= ll_here - ll_slack
            if math.isfinite(ll_new) and (ll_new > ll_here or neutral_ok) and (u_new, v_new) != (u, v):
                u, v = u_new, v_new
                break
            lam *= 0.5
        else:
            # No step length raises the likelihood: stop at the best point.
            break
        ll_cur = _log_likelihood(t, math.exp(u), math.exp(v))
        if ll_cur >= best[0]:
            best = (ll_cur, u, v)

    ll_cur = _log_likelihood(t, math.exp(u), math.exp(v))
    if ll_cur >= best[0]:
        best = (ll_cur, u, v)
    # Never report a likelihood below the initializer's.
    if best[0] < ll0:
        best = (ll0, math.log(start[0]), math.log(start[1]))
    if not converged:
        a, b = math.exp(best[1]), math.exp(best[2])
        g_nat = _gradient(t, a, b)
        converged = float(max(abs(a * g_nat[0]), abs(b * g_nat[1]))) <= gtol
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
    counts = np.asarray(sample.counts, dtype=np.int64)
    hist = np.bincount(counts)
    if counts.size < 2 or np.count_nonzero(hist) < 2:
        raise DegenerateDataError("need at least two distinct count values to fit")
    moments = (float(counts.mean()), float(counts.var()))

    def fit_m(m: int):
        t = _tails(hist, m)
        return _mle_fixed_m(t, m, _moment_estimate(*moments, m), tol, max_iter)

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
