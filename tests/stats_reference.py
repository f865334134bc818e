"""The count-fit sums as numpy array expressions: the reference that the
pure-Python sums of `jjvar.stats` are tested against.

`_tails`, `_log_likelihood`, `_gradient` and `_hessian` are the array
versions the fit used before it moved to `math.fsum` over Python floats; they
take the histogram and the ln k! table as arrays.  Their sums are rounded in
numpy's (BLAS `dot`, pairwise `sum`) order, so they agree with the
exactly-rounded sums to within a few ulps per term.
"""

from typing import NamedTuple

import numpy as np


class _Tails(NamedTuple):
    """Sufficient statistics of n counts for one trial number M."""

    j: np.ndarray  # 0..M-1
    a: np.ndarray  # A_j = #{c > j}
    b: np.ndarray  # B_j = #{M - c > j}
    n: int
    const: float  # sum over samples of ln C(M, c)


def _tails(hist: np.ndarray, m: int, log_fact: np.ndarray) -> _Tails:
    """Tail counts for trial number m >= max count, from the histogram `hist`;
    `log_fact[k]` is ln k! for k = 0..m at least."""
    n = int(hist.sum())
    cdf = np.full(m, float(n))  # cdf[k] = #{c <= k}
    k = min(m, hist.size)
    cdf[:k] = np.cumsum(hist)[:k]
    c = np.arange(hist.size)
    const = n * log_fact[m] - float(hist @ (log_fact[c] + log_fact[m - c]))
    return _Tails(np.arange(m, dtype=float), n - cdf, cdf[::-1].copy(), n, const)


def _log_likelihood(t: _Tails, alpha: float, beta: float) -> float:
    return float(
        t.const
        + t.a @ np.log(alpha + t.j)
        + t.b @ np.log(beta + t.j)
        - t.n * np.log(alpha + beta + t.j).sum()
    )


def _gradient(t: _Tails, alpha: float, beta: float) -> np.ndarray:
    common = t.n * (1.0 / (alpha + beta + t.j)).sum()
    return np.array([t.a @ (1.0 / (alpha + t.j)) - common, t.b @ (1.0 / (beta + t.j)) - common])


def _hessian(t: _Tails, alpha: float, beta: float) -> np.ndarray:
    common = t.n * ((alpha + beta + t.j) ** -2.0).sum()
    haa = common - t.a @ (alpha + t.j) ** -2.0
    hbb = common - t.b @ (beta + t.j) ** -2.0
    return np.array([[haa, common], [common, hbb]])
