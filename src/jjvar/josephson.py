"""Josephson-energy arithmetic and its contamination-induced distribution.

The chain from transmission to Josephson energy:

    E_J = (hbar / 2e) I_c            (energy-current relation)
    I_c = pi Delta / (2 e R_N)       (Ambegaokar-Baratoff, tunneling limit)
    R_N = 1 / G,  G = (2 e^2 / h) T(E_F)

which collapses to E_J = (Delta / 4) T(E_F), the form `ej_single`
evaluates; for a per-patch transmission T0 over patch area A0, a junction
of area A carries T = T0 * A / A0.  A junction with N contaminated patches
mixes the clean and contaminated energies linearly (parallel resistors):

    E_J(N) = (A - N A0) E_clean / A + N A0 E_contaminated / A

(linear as written, so N A0 may exceed A; see README), and a count
distribution over n (per reference area A1, with N = (A/A1) n) therefore
induces a closed-form distribution over E_J via the linear map
E_J = offset + slope * n, slope = (A0/A1)(E_contaminated - E_clean).

Energies quoted in GHz always mean E/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import GHZ_TO_JOULE, MEV_TO_JOULE
from .stats import BetaBinomial

__all__ = ["EjDistribution", "ej_distribution", "ej_single"]


def ej_single(transmission: float, gap_mev: float, area: float, patch_area: float) -> float:
    """Josephson energy in GHz from the per-patch Fermi-level transmission.

    The junction total is the per-patch value scaled by area / patch_area.
    """
    if transmission < 0:
        raise ValueError(f"transmission must be non-negative, got {transmission}")
    ej_mev = 0.25 * gap_mev * (transmission * area / patch_area)
    return ej_mev * MEV_TO_JOULE / GHZ_TO_JOULE


@dataclass(frozen=True)
class EjDistribution:
    """Closed-form Josephson-energy distribution induced by the count
    statistics: E_J = offset + slope * n (GHz) at count n."""

    counts: BetaBinomial
    slope: float
    offset: float

    def support(self) -> list[float]:
        """E_J values (GHz) at each count n = 0..M."""
        return [self.offset + self.slope * n for n in range(self.counts.trials + 1)]

    def probabilities(self) -> list[float]:
        """The probability of each count n = 0..M."""
        return self.counts.pmf_vector()

    def mean(self) -> float:
        return self.offset + self.slope * self.counts.mean()

    def std(self) -> float:
        return abs(self.slope) * self.counts.std()


def ej_distribution(
    counts: BetaBinomial,
    ej_clean: float,
    ej_contaminated: float,
    patch_area: float,
    md_area: float,
) -> EjDistribution:
    """Distribution of E_J for counts n over the reference area `md_area`.

    The junction holds N = (area / md_area) n contaminated patches, so the
    mixture is linear in n with slope (patch_area / md_area) times the
    clean/contaminated energy difference.  Raises ValueError when either
    energy or the slope is not finite.
    """
    slope = (patch_area / md_area) * (ej_contaminated - ej_clean)
    if not all(math.isfinite(v) for v in (ej_clean, ej_contaminated, slope)):
        raise ValueError(
            f"E_J(JJ) = {ej_clean} GHz, E_J(JJ-H) = {ej_contaminated} GHz and the slope "
            f"{slope} GHz per count must be finite"
        )
    return EjDistribution(counts=counts, slope=slope, offset=ej_clean)
