"""Tight-binding NEGF transmission through metal/barrier/metal junctions.

The junction is a single-orbital nearest-neighbor chain: semi-infinite leads
(on-site energy eps_L, hopping t) coupled through a finite barrier segment
with its own on-site profile and hoppings.  Transmission follows the
Landauer picture,

    T(E) = Tr[ Gamma_L G Gamma_R G^dagger ],

with lead self-energies from the surface Green's function.  For the
single-orbital lead the surface Green's function has a closed form, and
`transmission` evaluates the exact retarded (eta -> 0+) limit with it by a
forward recursive-Green's-function sweep along the tridiagonal barrier.  The
sweep runs over blocks of 4096 energies in grid order, so a curve costs 9
bytes per energy (float64 T and a bool open-channel mask) plus a fixed
working set, whatever the grid size; the shift fit reads only the stretch of
the reference curve its shifted energies can reach.

An independent transfer-matrix solver (Bloch-wave matching, computed via the
numerically stable backward recurrence) cross-checks the NEGF results, and a
bisection routine calibrates the barrier height to a target transmission at
the Fermi energy, which is the lead on-site energy (the band centre).

Default parameterization: lead half-bandwidth 2|t| with t = 3.0 eV (12 eV
full bandwidth), Fermi level at the band center, and a 12-site barrier whose
conduction edge sits 2.85 eV above the Fermi level before calibration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import MAX_ENERGY_OFFSET
from .stats import ComputationError

__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "JunctionModel",
    "NumericalError",
    "TransmissionCurve",
    "apply_defect",
    "calibrate_barrier",
    "default_model",
    "fit_transmission_shift",
    "lead_surface_gf",
    "transfer_matrix_transmission",
    "transmission",
]

DEFAULT_LEAD_HOPPING = 3.0
DEFAULT_BARRIER_SITES = 12
# Barrier conduction edge 2.85 eV above the Fermi level: with barrier hopping
# t_b the band bottom is onsite - 2|t_b|.
DEFAULT_BAND_OFFSET = 2.85
# Bisection stops at |T - target| <= _CALIBRATION_REL_TOL * target, or fails
# once the bracket holds no float between its endpoints.
_CALIBRATION_REL_TOL = 1e-3
# `transmission` sweeps the grid this many energies at a time.  At least the
# default grid's 2001 points, so that grid is swept in one block.
_BLOCK = 4096


class NumericalError(ComputationError):
    """Non-convergence or a singular solve in the Green's-function machinery."""


class CalibrationError(ComputationError):
    """Target transmission not bracketed; the message quotes the endpoint
    transmissions."""


@dataclass(frozen=True)
class JunctionModel:
    """Lead/barrier/lead chain; energies in eV, one orbital per cell."""

    lead_onsite: float = 0.0
    lead_hopping: float = DEFAULT_LEAD_HOPPING
    barrier_onsite: tuple[float, ...] = tuple(
        [DEFAULT_BAND_OFFSET + 2.0 * DEFAULT_LEAD_HOPPING] * DEFAULT_BARRIER_SITES
    )
    barrier_hopping: float = DEFAULT_LEAD_HOPPING
    coupling: float = DEFAULT_LEAD_HOPPING

    def __post_init__(self) -> None:
        object.__setattr__(self, "barrier_onsite", tuple(float(e) for e in self.barrier_onsite))
        values = (
            self.lead_onsite,
            self.lead_hopping,
            self.barrier_hopping,
            self.coupling,
            *self.barrier_onsite,
        )
        if not all(math.isfinite(v) for v in values):
            raise ValueError("all model energies must be finite")
        if len(self.barrier_onsite) < 1:
            raise ValueError("barrier must contain at least one site")

    def onsite_profile(self) -> np.ndarray:
        """Barrier on-site energies as an array."""
        return np.array(self.barrier_onsite, dtype=float)


def default_model(
    barrier_sites: int = DEFAULT_BARRIER_SITES, height: float | None = None, **kwargs
) -> JunctionModel:
    """Stand-in junction with a uniform barrier `height` above the lead on-site.

    Unless given, the barrier hopping and the lead-barrier coupling are the
    lead hopping.
    """
    lead_onsite = kwargs.pop("lead_onsite", 0.0)
    lead_hopping = kwargs.pop("lead_hopping", DEFAULT_LEAD_HOPPING)
    barrier_hopping = kwargs.pop("barrier_hopping", lead_hopping)
    kwargs.setdefault("coupling", lead_hopping)
    if height is None:
        height = DEFAULT_BAND_OFFSET + 2.0 * abs(barrier_hopping)
    onsite = lead_onsite + height
    return JunctionModel(
        lead_onsite=lead_onsite,
        lead_hopping=lead_hopping,
        barrier_onsite=(onsite,) * barrier_sites,
        barrier_hopping=barrier_hopping,
        **kwargs,
    )


def _check_grid(energies: np.ndarray) -> None:
    """Raise ValueError unless `energies` is a non-empty, strictly increasing
    1-D grid of finite energies.  A NaN fails the pairwise test; since the
    grid increases, its ends decide whether every energy is finite."""
    if (
        energies.ndim != 1
        or energies.size == 0
        or not (energies[1:] > energies[:-1]).all()
        or not (math.isfinite(energies[0]) and math.isfinite(energies[-1]))
    ):
        raise ValueError("energies must form a strictly increasing 1-D grid of finite energies")


@dataclass(frozen=True)
class TransmissionCurve:
    """T(E) samples on a strictly increasing energy grid, with the lead's
    open-channel mask (one orbital: at most one channel per energy)."""

    energies: np.ndarray
    values: np.ndarray
    channels: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        t = np.asarray(self.values, dtype=float)
        c = np.asarray(self.channels, dtype=bool)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", t)
        object.__setattr__(self, "channels", c)
        _check_grid(e)
        if t.shape != e.shape or c.shape != e.shape:
            raise ValueError("values/channels must match the grid shape")
        # Reductions, not float temporaries; a NaN value fails every test.
        if not (
            t.min() >= -1e-12
            and t.max(where=c, initial=-np.inf) <= 1.0 + 1e-9
            and t.max(where=~c, initial=-np.inf) <= 1e-9
        ):
            raise ValueError("transmission must satisfy 0 <= T <= open channel count")


def lead_surface_gf(onsite: float, hopping: float, energy):
    """Closed-form surface Green's function of the single-orbital chain.

    Exact retarded (eta -> 0+) limit: Im g <= 0 in the band, and the
    decaying real root outside it.  `energy` may be a scalar or an array;
    the result has its shape.
    """
    z = np.asarray(energy, dtype=float) - onsite + 0j
    t2 = hopping * hopping
    if t2 == 0.0:
        return (1.0 / z)[()]
    sq = np.sqrt(z * z - 4.0 * t2)
    g_minus = (z - sq) / (2.0 * t2)
    g_plus = (z + sq) / (2.0 * t2)
    pick_minus = np.where(
        np.abs(g_minus.imag - g_plus.imag) > 1e-300,
        g_minus.imag < g_plus.imag,
        np.abs(g_minus) <= np.abs(g_plus),
    )
    return np.where(pick_minus, g_minus, g_plus)[()]


def transmission(model: JunctionModel, energies: Sequence[float] | np.ndarray) -> TransmissionCurve:
    """Landauer transmission on an energy grid, in the exact retarded limit.

    T = Gamma_L Gamma_R |G_1N|^2, with G_1N from one forward recursion over
    the barrier sites: g_j = 1 / (E - eps_j - t_b^2 g_{j-1}), the lead
    self-energy added on the first and last sites, and G_1N = g_1
    prod_{j>1} t_b g_j.  The recursion runs on _BLOCK energies at a time, in
    grid order, so its temporaries take the same memory whatever the grid
    size.  A lead channel is open where Gamma > 0; elsewhere T = 0.  The grid
    must be finite, strictly increasing and within MAX_ENERGY_OFFSET = 20 eV
    of the lead band center.  Raises NumericalError, naming the lowest such
    energy, if the device Green's function is singular at an open-channel
    energy.
    """
    grid = np.asarray(energies, dtype=float)
    _check_grid(grid)
    # The grid increases, so its ends are its farthest energies from the centre.
    if not (
        abs(grid[0] - model.lead_onsite) <= MAX_ENERGY_OFFSET
        and abs(grid[-1] - model.lead_onsite) <= MAX_ENERGY_OFFSET
    ):
        raise ValueError(
            f"energy grid extends beyond {MAX_ENERGY_OFFSET:g} eV from the lead band center"
        )
    values = np.zeros(grid.shape)
    is_open = np.zeros(grid.shape, dtype=bool)
    for start in range(0, grid.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        opened, open_values = _sweep(model, grid[block])
        values[block][opened] = open_values
        is_open[block] = opened
    return TransmissionCurve(energies=grid, values=values, channels=is_open)


def _sweep(model: JunctionModel, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(open-channel mask of `grid`, T at its open energies): the recursion
    of `transmission` on one block of energies."""
    sigma = model.coupling**2 * lead_surface_gf(model.lead_onsite, model.lead_hopping, grid)
    gamma = -2.0 * sigma.imag
    is_open = gamma > 0.0
    energy, sigma, gamma = grid[is_open], sigma[is_open], gamma[is_open]

    onsite = model.onsite_profile()
    t_b = model.barrier_hopping
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j, eps in enumerate(onsite):
            pivot = energy - eps - (sigma if j == 0 else t_b * t_b * g)
            if j == onsite.size - 1:
                pivot = pivot - sigma
            g = 1.0 / pivot
            g_1n = g if j == 0 else g_1n * (t_b * g)
        values = gamma * gamma * np.abs(g_1n) ** 2
    singular = ~np.isfinite(values)
    if np.any(singular):
        raise NumericalError(f"singular device Green's function at E = {energy[singular][0]} eV")
    return is_open, values


def transfer_matrix_transmission(model: JunctionModel, energy: float) -> float:
    """Transmission of the 1-D chain by Bloch-wave matching.

    Independent of the Green's-function route: normalizes the transmitted
    wave and back-propagates the on-site recurrences through the barrier
    (numerically stable, since the backward solution grows), then projects
    the left-lead boundary values onto incoming/reflected Bloch waves.
    Raises ValueError outside the lead band (no propagating channel).
    """
    eps = model.lead_onsite
    t = model.lead_hopping
    cos_k = (energy - eps) / (2.0 * t)
    if not abs(cos_k) < 1.0:
        raise ValueError(f"E = {energy} eV lies outside the lead band: no propagating channel")
    k = math.acos(cos_k)

    onsite = model.onsite_profile()
    n = onsite.size
    c = model.coupling
    tb = model.barrier_hopping

    # Transmitted wave tau * e^{ikn} for n >= L with tau = 1.
    psi_next = np.exp(1j * k * (n + 1))
    psi_here = np.exp(1j * k * n)
    # Site L couples to the barrier through c: t psi_{L+1} = (E-eps) psi_L - c psi_{L-1}.
    psi_prev = ((energy - eps) * psi_here - t * psi_next) / c
    psi_next, psi_here = psi_here, psi_prev
    # Barrier sites j = L-1 .. 0 with left bond tl and right bond tr.
    for j in range(n - 1, -1, -1):
        tl = c if j == 0 else tb
        tr = c if j == n - 1 else tb
        psi_prev = ((energy - onsite[j]) * psi_here - tr * psi_next) / tl
        psi_next, psi_here = psi_here, psi_prev
    # Lead site -1: c psi_0 = (E-eps) psi_{-1} - t psi_{-2}.
    psi_m1 = psi_here
    psi_m2 = ((energy - eps) * psi_m1 - c * psi_next) / t

    # psi_n = a e^{ikn} + r e^{-ikn} for n <= -1; solve for the incoming a.
    det = 2j * math.sin(k)
    a_in = (np.exp(2j * k) * psi_m1 - np.exp(1j * k) * psi_m2) / det
    return float(1.0 / abs(a_in) ** 2)


@dataclass(frozen=True)
class CalibrationResult:
    height: float
    transmission: float
    iterations: int
    model: JunctionModel


def calibrate_barrier(
    target: float, *, base: JunctionModel, bounds: tuple[float, float] = (0.0, 30.0)
) -> CalibrationResult:
    """Bisect the uniform barrier height of `base` (above its lead on-site
    energy, on all its barrier sites) until T(E_F) matches `target`; E_F is
    the lead on-site energy.

    The transmission must be monotone decreasing in the height over
    `bounds`, verified by an endpoint check; an unbracketed target raises
    CalibrationError with the endpoint transmissions.  Bisection goes on
    until the tolerance holds, however wide the bracket; only a bracket
    whose midpoint rounds to an endpoint, so that no float lies between
    them, raises NumericalError naming that bracket.
    """
    if not target > 0:
        raise ValueError(f"target transmission must be positive, got {target}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ValueError(f"invalid bounds {bounds}")

    tol = _CALIBRATION_REL_TOL * target
    e_fermi = base.lead_onsite

    def build(height: float) -> JunctionModel:
        return dataclasses.replace(
            base, barrier_onsite=(base.lead_onsite + height,) * len(base.barrier_onsite)
        )

    def evaluate(height: float) -> float:
        return float(transmission(build(height), [e_fermi]).values[0])

    t_lo = evaluate(lo)
    t_hi = evaluate(hi)
    if abs(t_lo - target) <= tol:
        return CalibrationResult(lo, t_lo, 0, build(lo))
    if abs(t_hi - target) <= tol:
        return CalibrationResult(hi, t_hi, 0, build(hi))
    if not (t_hi < target < t_lo):
        raise CalibrationError(
            f"target {target:.6g} not bracketed by heights {lo}..{hi} eV "
            f"(endpoint transmissions {t_lo:.6g}, {t_hi:.6g})"
        )

    iteration = 0
    # Halving each term keeps the midpoint finite for any finite bracket.
    height = 0.5 * lo + 0.5 * hi
    while lo < height < hi:
        iteration += 1
        t_mid = evaluate(height)
        if abs(t_mid - target) <= tol:
            return CalibrationResult(height, t_mid, iteration, build(height))
        if t_mid > target:
            lo = height
        else:
            hi = height
        height = 0.5 * lo + 0.5 * hi
    raise NumericalError(
        f"barrier calibration did not reach |T - target|/target <= {_CALIBRATION_REL_TOL} "
        f"before the bracket {lo!r}..{hi!r} eV held no midpoint"
    )


def apply_defect(model: JunctionModel, shift: float) -> JunctionModel:
    """Shift every barrier on-site energy by `shift` eV.

    Emulates the contamination-induced potential change; a negative shift
    lowers the barrier toward valence alignment and raises T(E_F).
    """
    return dataclasses.replace(model, barrier_onsite=tuple(e + shift for e in model.barrier_onsite))


# The shift scan's coarse pass evaluates every _SCAN_STRIDE-th point.
_SCAN_STRIDE = 10


def _positive_reach(curve: TransmissionCurve, q_lo: float, q_hi: float) -> slice:
    """The stretch of `curve` whose positive points are those with energies
    in [q_lo, q_hi) plus the two positive points before it and the two from
    q_hi on (fewer where the curve ends).  Zero runs are read _BLOCK points
    at a time."""
    first, last = np.searchsorted(curve.energies, [q_lo, q_hi])
    before = _second_positive(curve.values[:first][::-1])
    after = _second_positive(curve.values[last:])
    return slice(
        0 if before is None else first - 1 - before,
        curve.values.size if after is None else last + after + 1,
    )


def _second_positive(values: np.ndarray) -> int | None:
    """Index of the second positive entry of `values`; None if it has fewer."""
    seen = 0
    for start in range(0, values.size, _BLOCK):
        hits = np.flatnonzero(values[start : start + _BLOCK] > 0)
        if seen + hits.size >= 2:
            return start + int(hits[1 - seen])
        seen += hits.size
    return None


def _steepest_slope(x: np.ndarray, y: np.ndarray) -> float:
    """max |dy/dx| over the segments of the polyline (x, y); 0 for one point."""
    slopes = np.diff(y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slopes /= np.diff(x)
    return float(np.max(np.abs(slopes, out=slopes), initial=0.0))


def fit_transmission_shift(
    reference: TransmissionCurve,
    shifted: TransmissionCurve,
    *,
    window: tuple[float, float],
    shift_bounds: tuple[float, float] = (-2.0, 2.0),
) -> float:
    """Energy shift s minimizing || ln T_shifted(E) - ln T_reference(E + s) ||.

    Quantifies by how much the shifted curve is a translated copy of the
    reference: T_shifted(E) ~= T_reference(E + s).  Least squares on log
    curves over the energy `window`, scanned on 801 points then refined by
    golden section around the first scan minimum.  Only the stretch of the
    reference that E + s can reach is read.

    The scan skips only points that provably cannot be that minimum.  Each
    residual is piecewise linear in s with slope at most K, the steepest
    reference segment that E + s can reach (np.interp clamps, so slope 0
    beyond the grid), so the root-mean-square residual is K-Lipschitz in s.
    A coarse pass evaluates every `_SCAN_STRIDE`-th point and the last; a
    remaining point is evaluated unless the bound from its coarse neighbours,
    sqrt(cost_j) - K |s - s_j|, exceeds the smallest coarse sqrt(cost) by more
    than a rounding margin.  Skipped points hold +inf, so np.argmin picks the
    same index as a full scan and the result is bit-identical to it.  A
    non-finite K or coarse cost evaluates every point.
    """
    s_lo, s_hi = shift_bounds
    if not s_lo < s_hi:
        raise ValueError(f"invalid shift bounds {shift_bounds}")
    lo, hi = window
    # The window's energies, as a slice of the increasing grid.
    energies = shifted.energies
    inside = slice(np.searchsorted(energies, lo), np.searchsorted(energies, hi, side="right"))
    usable = shifted.values[inside] > 0
    if not lo <= hi or usable.sum() < 3:
        raise ValueError("window leaves fewer than 3 usable points for the shift fit")
    e_pts = energies[inside][usable]
    log_shifted = np.log(shifted.values[inside][usable])

    # The positive reference points within reach of e_pts + s, and two more
    # each side: np.interp finds every query in the same segment of them as
    # of the whole positive reference, and clamps the same beyond its ends.
    reach = _positive_reach(reference, e_pts[0] + s_lo, e_pts[-1] + s_hi)
    ref_ok = reference.values[reach] > 0
    ref_e = reference.energies[reach][ref_ok]
    ref_log = np.log(reference.values[reach][ref_ok])

    def objective(s: float) -> float:
        interp = np.interp(e_pts + s, ref_e, ref_log)
        return float(np.mean((log_shifted - interp) ** 2))

    # The steepest segment of the stretch bounds the slope of every residual.
    slope = _steepest_slope(ref_e, ref_log)

    scan = np.linspace(s_lo, s_hi, 801)
    costs = np.full(scan.size, np.inf)
    coarse = np.append(np.arange(0, scan.size - 1, _SCAN_STRIDE), scan.size - 1)
    costs[coarse] = [objective(s) for s in scan[coarse]]
    root = np.sqrt(costs)
    best_root = root[coarse].min()
    # Every rounding error in a cost, a bound or K is a few ulps of this
    # scale; 1e-9 of it is millions of ulps.
    margin = 1e-9 * (
        best_root
        + slope * (max(abs(e_pts[0]), abs(e_pts[-1])) + max(abs(s_lo), abs(s_hi)) + s_hi - s_lo)
        + np.abs(log_shifted).max()
        + np.abs(ref_log).max()
    )
    left = coarse[np.searchsorted(coarse, np.arange(scan.size), side="right") - 1]
    right = coarse[np.searchsorted(coarse, np.arange(scan.size))]
    with np.errstate(invalid="ignore", over="ignore"):
        bound = np.maximum(
            root[left] - slope * (scan - scan[left]), root[right] - slope * (scan[right] - scan)
        )
    if not np.isfinite([slope, *root[coarse]]).all():
        bound[:] = -np.inf
    bound[coarse] = np.inf  # evaluated already
    for k in np.flatnonzero(~(bound > best_root + margin)):
        costs[k] = objective(scan[k])
    best = int(np.argmin(costs))
    a = scan[max(best - 1, 0)]
    b = scan[min(best + 1, scan.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(80):
        if b - a < 1e-10:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = objective(x2)
    return float(0.5 * (a + b))
