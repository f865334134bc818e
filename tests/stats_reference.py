"""References for `jjvar.stats`: the count-fit sums as numpy array
expressions, and the PMF's product form in 50-digit mpmath, with the
log-likelihood's derivatives taken numerically from it.

`_tails`, `_log_likelihood` and `_derivatives` evaluate the log-likelihood
in (p, theta) in a form of their own, with the tail counts A_j = #{c > j}
and B_j = #{M - c > j} (Minka, "Estimating a Dirichlet distribution", 2000):

    l = const + sum_{j<M} [A_j ln(p + j theta) + B_j ln(1 - p + j theta) - n ln(1 + j theta)],

const = sum over samples of ln C(M, c), from `math.comb`.  `_tails` takes
the histogram as a sequence, as `jjvar.stats._tails` does.  The sums are
rounded in numpy's (BLAS `dot`, pairwise `sum`) order, so they agree with
the exactly-rounded sums to within a few ulps per term.
"""

import math
from typing import NamedTuple

import mpmath
import numpy as np


class _Tails(NamedTuple):
    """Sufficient statistics of n counts for one trial number M."""

    j: np.ndarray  # 0..M-1
    a: np.ndarray  # A_j = #{c > j}
    b: np.ndarray  # B_j = #{M - c > j}
    n: int
    s1: int  # sum of the counts
    s2: int  # sum of their squares
    const: float  # sum over samples of ln C(M, c)


def _tails(hist, m: int) -> _Tails:
    """Tail counts for trial number m >= max count, from the histogram `hist`."""
    hist = np.asarray(hist)
    n = int(hist.sum())
    cdf = np.full(m, float(n))  # cdf[k] = #{c <= k}
    k = min(m, hist.size)
    cdf[:k] = np.cumsum(hist)[:k]
    c = np.arange(hist.size)
    # ln C(M, c) of the exact integer, each within about an ulp.  A table of
    # ln k! leaves its rounding in n ln M! - sum (ln c! + ln (M - c)!): 3e-10
    # at M = 387 from lgamma, 1e-9 at M = 400 from a running sum of ln k.
    const = float(hist @ [math.log(math.comb(m, x)) for x in range(hist.size)])
    s1, s2 = int(hist @ c), int(hist @ (c * c))
    return _Tails(np.arange(m, dtype=float), n - cdf, cdf[::-1].copy(), n, s1, s2, const)


def _log_likelihood(t: _Tails, p: float, theta: float) -> float:
    return float(
        t.const
        + t.a @ np.log(p + t.j * theta)
        + t.b @ np.log(1.0 - p + t.j * theta)
        - t.n * np.log1p(t.j * theta).sum()
    )


def _derivatives(t: _Tails, p: float, theta: float):
    ra, rb, rs = 1.0 / (p + t.j * theta), 1.0 / (1.0 - p + t.j * theta), 1.0 / (1.0 + t.j * theta)
    ja, jb = t.j * t.a, t.j * t.b
    gradient = (t.a @ ra - t.b @ rb, ja @ ra + jb @ rb - t.n * (t.j @ rs))
    hessian = (
        -(t.a @ ra**2) - t.b @ rb**2,
        jb @ rb**2 - ja @ ra**2,
        -(t.j * ja) @ ra**2 - (t.j * jb) @ rb**2 + t.n * ((t.j * t.j) @ rs**2),
    )
    return gradient, hessian


def _product_form(p, theta, m: int) -> list:
    """P(0..m) from the product form at the working precision, which
    `mpmath.diff` raises above the caller's."""
    q = 1 - p
    rising_p, rising_q, rising_1 = [mpmath.mpf(1)], [mpmath.mpf(1)], mpmath.mpf(1)
    for j in range(m):
        rising_p.append(rising_p[-1] * (p + j * theta))
        rising_q.append(rising_q[-1] * (q + j * theta))
        rising_1 *= 1 + j * theta
    return [mpmath.binomial(m, n) * rising_p[n] * rising_q[m - n] / rising_1 for n in range(m + 1)]


def pmf(p: float, theta: float, m: int, dps: int = 50) -> list:
    """P(0..m) from the product form

        P(n) = C(M, n) prod_{j<n} (p + j theta) prod_{j<M-n} (1 - p + j theta)
               / prod_{j<M} (1 + j theta)

    in `dps`-digit arithmetic, with p and theta taken exactly as given; a
    list of mpf."""
    with mpmath.workdps(dps):
        return _product_form(mpmath.mpf(p), mpmath.mpf(theta), m)


def derivatives(hist, p: float, theta: float, m: int, dps: int = 50):
    """((dl/dp, dl/dtheta), (d2l/dp2, d2l/dp dtheta, d2l/dtheta2)) of
    l = sum_c hist[c] ln P(c), P the product form, as mpf: mpmath's
    numerical differentiation of l at `dps` digits, so no derivative formula
    enters."""
    with mpmath.workdps(dps):

        def ll(x, y):
            return mpmath.fsum(h * mpmath.log(v) for h, v in zip(hist, _product_form(x, y, m)) if h)

        point = (mpmath.mpf(p), mpmath.mpf(theta))
        g = [mpmath.diff(ll, point, order) for order in ((1, 0), (0, 1))]
        h = [mpmath.diff(ll, point, order) for order in ((2, 0), (1, 1), (0, 2))]
        return g, h
