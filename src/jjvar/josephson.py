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

import numpy as np

from .constants import GHZ_TO_JOULE, MEV_TO_JOULE
from .stats import BetaBinomial

__all__ = [
    "EjDistribution",
    "EjTransform",
    "JunctionParams",
    "convert_energy",
    "ej_distribution",
    "ej_single",
]

_TO_JOULE = {"meV": MEV_TO_JOULE, "GHz": GHZ_TO_JOULE, "J": 1.0}


def convert_energy(value: float, from_unit: str, to_unit: str) -> float:
    """Convert between meV, GHz (E/h) and J; exact via SI constants."""
    try:
        scale_in = _TO_JOULE[from_unit]
        scale_out = _TO_JOULE[to_unit]
    except KeyError as exc:
        raise ValueError(f"unknown energy unit {exc.args[0]!r}; supported: meV, GHz, J") from None
    return value * scale_in / scale_out


@dataclass(frozen=True)
class JunctionParams:
    """Geometry and gap of the modeled junction (areas in A^2, gap in meV)."""

    gap_mev: float = 0.20
    area: float = 2000.0 * 2000.0  # 200 x 200 nm^2
    patch_area: float = 9.61 * 8.32  # transport cross-section A0
    md_area: float = 34.17 * 34.17  # count reference area A1

    def __post_init__(self) -> None:
        for name in ("gap_mev", "area", "patch_area", "md_area"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def ej_single(transmission: float, gap_mev: float, area: float, patch_area: float) -> float:
    """Josephson energy in GHz from the per-patch Fermi-level transmission.

    The junction total is the per-patch value scaled by area / patch_area.
    """
    if transmission < 0:
        raise ValueError(f"transmission must be non-negative, got {transmission}")
    ej_mev = 0.25 * gap_mev * (transmission * area / patch_area)
    return convert_energy(ej_mev, "meV", "GHz")


@dataclass(frozen=True)
class EjTransform:
    """Linear map n -> E_J: slope per count in the reference area, offset (GHz)."""

    slope: float
    offset: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.offset)):
            raise ValueError("transform parameters must be finite")

    def __call__(self, n) -> np.ndarray:
        return self.offset + self.slope * np.asarray(n, dtype=float)


@dataclass(frozen=True)
class EjDistribution:
    """Closed-form Josephson-energy distribution induced by the count statistics."""

    counts: BetaBinomial
    transform: EjTransform

    def support(self) -> np.ndarray:
        """E_J values (GHz) at each count n = 0..M."""
        return self.transform(np.arange(self.counts.trials + 1))

    def probabilities(self) -> np.ndarray:
        return self.counts.pmf_vector()

    def mean(self) -> float:
        return float(self.transform(self.counts.mean()))

    def std(self) -> float:
        return abs(self.transform.slope) * self.counts.std()


def ej_distribution(
    counts: BetaBinomial,
    params: JunctionParams,
    ej_clean: float,
    ej_contaminated: float,
) -> EjDistribution:
    """Distribution of E_J for counts n over the reference area.

    The junction holds N = (area / md_area) n contaminated patches, so the
    mixture is linear in n with slope (patch_area / md_area) times the
    clean/contaminated energy difference.
    """
    slope = (params.patch_area / params.md_area) * (ej_contaminated - ej_clean)
    return EjDistribution(counts=counts, transform=EjTransform(slope=slope, offset=ej_clean))
