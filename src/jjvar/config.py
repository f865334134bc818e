"""Pipeline configuration: flat `section.key = value` text files.

Grammar (one entry per line):

    # comment
    paths.structures = fixtures/structures
    transport.barrier_sites = 12
    stats.m = fixed=40

Values parse as int, float or bare string, by the key's type.  Unknown keys
and keys given twice are rejected.  CLI flags override file values.
`PipelineConfig.validate` then rejects non-finite numbers, non-positive
lengths, areas and targets, a lead hopping that is zero or beyond
`MAX_LEAD_HOPPING`, a grid half-width beyond `MAX_ENERGY_OFFSET`, an energy
grid whose points are not distinct or that leaves the curve-shift fit fewer
than 3 points, a malformed `stats.m` or one above `stats.MAX_TRIALS`, and
`stats.alpha`, `stats.beta` and `stats.trials` that `stats.BetaBinomial`
refuses, naming the offending key.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .stats import MAX_TRIALS, BetaBinomial

__all__ = [
    "MAX_BARRIER_SITES",
    "MAX_ENERGY_OFFSET",
    "MAX_GRID_POINTS",
    "MAX_LEAD_HOPPING",
    "SHIFT_WINDOW",
    "ConfigError",
    "PipelineConfig",
    "energy_grid",
    "parse_config_text",
]

# Largest transport sizes accepted: the transmission arrays grow with both,
# and past these a run would end in a memory error, not a result.
MAX_GRID_POINTS = 10**7
MAX_BARRIER_SITES = 10**4
# Largest |transport.lead_hopping| accepted, eV.  The lead self-energy squares
# the hopping (4 t^2 in the surface Green's function); past about 1.3e154 eV
# the square overflows.
MAX_LEAD_HOPPING = 1e150
# Largest distance from the lead on-site energy that `transport.transmission`
# accepts, eV.
MAX_ENERGY_OFFSET = 20.0
# Half-width of the energy window around the Fermi level that the CLI fits
# the curve shift over, eV.
SHIFT_WINDOW = 2.0


def energy_grid(centre: float, halfwidth: float, points: int) -> np.ndarray:
    """`points` evenly spaced energies over centre ± halfwidth, for a grid
    centred on the lead on-site energy.  Where an end rounds past
    MAX_ENERGY_OFFSET from the centre, it steps back inside by ulps."""
    ends = []
    for end in (centre - halfwidth, centre + halfwidth):
        while abs(end - centre) > MAX_ENERGY_OFFSET:
            end = math.nextafter(end, centre)
        ends.append(end)
    return np.linspace(*ends, points)


class ConfigError(ValueError):
    """Bad configuration file or value."""


@dataclass(frozen=True)
class PipelineConfig:
    # paths.*
    structures: str | None = None
    counts: str | None = None
    out: str = "out"
    # top level
    seed: int = 0
    # stats.*
    m_strategy: str = "scan"
    alpha: float = 17.69
    beta: float = 15.36
    trials: int = 40
    # cutoff.* (pair overrides, A)
    cutoff_al_o: float | None = None
    cutoff_al_h: float | None = None
    cutoff_o_o: float | None = None
    cutoff_o_h: float | None = None
    # surface.*
    surface_depth: float = 2.0
    surface_bin: float = 4.0
    # transport.*
    lead_onsite: float = 0.0
    lead_hopping: float = 3.0
    barrier_sites: int = 12
    bounds_lo: float = 0.0
    bounds_hi: float = 30.0
    grid_points: int = 2001
    grid_halfwidth: float = 5.0
    target_jj: float = 1.61e-5
    target_jjh: float = 1.74e-5
    # junction.*
    gap_mev: float = 0.20
    area: float = 2000.0 * 2000.0
    patch_area: float = 9.61 * 8.32
    md_area: float = 34.17 * 34.17

    def cutoff_overrides(self) -> dict[tuple[str, str], float]:
        pairs = {
            "cutoff_al_o": ("Al", "O"),
            "cutoff_al_h": ("Al", "H"),
            "cutoff_o_o": ("O", "O"),
            "cutoff_o_h": ("O", "H"),
        }
        return {
            pair: getattr(self, name)
            for name, pair in pairs.items()
            if getattr(self, name) is not None
        }

    def m_fit_args(self) -> dict:
        """`stats.fit` keyword arguments for `stats.m`: {} for 'scan',
        {"scan_range": (LO, HI)} for 'scan=LO:HI', {"trials": M} for 'fixed=M'."""
        if self.m_strategy == "scan":
            return {}
        fixed = re.fullmatch(r"fixed=(-?\d+)", self.m_strategy, re.ASCII)
        scan = re.fullmatch(r"scan=(-?\d+):(-?\d+)", self.m_strategy, re.ASCII)
        try:
            if fixed and 1 <= int(fixed[1]) <= MAX_TRIALS:
                return {"trials": int(fixed[1])}
            if scan and int(scan[1]) <= int(scan[2]) <= MAX_TRIALS:
                return {"scan_range": (int(scan[1]), int(scan[2]))}
        except ValueError:
            pass  # int() refuses more than 4300 digits
        raise ConfigError(
            "stats.m must be 'scan', 'scan=LO:HI' with integers LO <= HI or 'fixed=M' "
            "with an integer M >= 1, where HI and M are at most the largest supported "
            f"trial number {MAX_TRIALS}, got {self.m_strategy!r}"
        )

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{_FIELD_KEYS[f.name]} must be finite, got {value}")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{_FIELD_KEYS[name]} must be positive, got {value}")
        if self.lead_hopping == 0:
            # A lead without hopping has no band, so no channel conducts.
            raise ConfigError(f"transport.lead_hopping must be non-zero, got {self.lead_hopping}")
        if not abs(self.lead_hopping) <= MAX_LEAD_HOPPING:
            raise ConfigError(
                f"transport.lead_hopping must be at most {MAX_LEAD_HOPPING:g} eV in magnitude, "
                f"got {self.lead_hopping}"
            )
        if not self.grid_halfwidth <= MAX_ENERGY_OFFSET:
            # The grid is centred on the lead on-site energy.
            raise ConfigError(
                f"transport.grid_halfwidth must be at most {MAX_ENERGY_OFFSET:g} eV, the "
                f"reach of transmission from the lead band centre, got {self.grid_halfwidth}"
            )
        if not 2 <= self.grid_points <= MAX_GRID_POINTS:
            raise ConfigError(
                f"grid must have 2 to {MAX_GRID_POINTS} points, got {self.grid_points}"
            )
        if not 1 <= self.barrier_sites <= MAX_BARRIER_SITES:
            raise ConfigError(
                f"barrier needs 1 to {MAX_BARRIER_SITES} sites, got {self.barrier_sites}"
            )
        grid = energy_grid(self.lead_onsite, self.grid_halfwidth, self.grid_points)
        if not (grid[1:] > grid[:-1]).all():  # as `transmission` requires
            raise ConfigError(
                f"transport.grid_halfwidth must be wide enough for {self.grid_points} distinct "
                f"energies around transport.lead_onsite = {self.lead_onsite}, "
                f"got {self.grid_halfwidth}"
            )
        # The curve-shift fit reads the energies within SHIFT_WINDOW of the Fermi
        # level, the lead on-site energy, that lie in the open lead band.
        lo, hi = self.lead_onsite - SHIFT_WINDOW, self.lead_onsite + SHIFT_WINDOW
        window = grid[np.searchsorted(grid, lo) : np.searchsorted(grid, hi, side="right")]
        usable = np.count_nonzero(np.abs(window - self.lead_onsite) < 2.0 * abs(self.lead_hopping))
        if usable < 3:
            key = "transport.lead_hopping" if window.size >= 3 else "transport.grid_points"
            raise ConfigError(
                f"{key} must be large enough to leave the curve-shift fit 3 grid energies within "
                f"{SHIFT_WINDOW:g} eV of transport.lead_onsite and inside the lead band "
                f"|E - transport.lead_onsite| < 2|transport.lead_hopping|, got {usable} of "
                f"{self.grid_points} at transport.lead_hopping = {self.lead_hopping}"
            )
        if not self.bounds_lo < self.bounds_hi:
            raise ConfigError(f"bad calibration bounds [{self.bounds_lo}, {self.bounds_hi}]")
        for name in ("structures", "counts"):
            value = getattr(self, name)
            if value is not None and not Path(value).exists():
                raise ConfigError(f"{name} path does not exist: {value}")
        self.m_fit_args()
        try:
            BetaBinomial(self.alpha, self.beta, self.trials)
        except ValueError as exc:  # its messages open with the field name
            raise ConfigError(f"stats.{exc}") from None


_KEY_MAP = {
    "paths.structures": "structures",
    "paths.counts": "counts",
    "paths.out": "out",
    "seed": "seed",
    "stats.m": "m_strategy",
    "stats.alpha": "alpha",
    "stats.beta": "beta",
    "stats.trials": "trials",
    "cutoff.al_o": "cutoff_al_o",
    "cutoff.al_h": "cutoff_al_h",
    "cutoff.o_o": "cutoff_o_o",
    "cutoff.o_h": "cutoff_o_h",
    "surface.depth": "surface_depth",
    "surface.bin": "surface_bin",
    "transport.lead_onsite": "lead_onsite",
    "transport.lead_hopping": "lead_hopping",
    "transport.barrier_sites": "barrier_sites",
    "transport.bounds_lo": "bounds_lo",
    "transport.bounds_hi": "bounds_hi",
    "transport.grid_points": "grid_points",
    "transport.grid_halfwidth": "grid_halfwidth",
    "transport.target_jj": "target_jj",
    "transport.target_jjh": "target_jjh",
    "junction.gap_mev": "gap_mev",
    "junction.area": "area",
    "junction.patch_area": "patch_area",
    "junction.md_area": "md_area",
}

_FIELD_KEYS = {field: key for key, field in _KEY_MAP.items()}
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}

# Lengths, areas, energies and transmissions that only make sense above zero;
# an unset cutoff override (None) is skipped.
_POSITIVE_FIELDS = (
    "cutoff_al_o",
    "cutoff_al_h",
    "cutoff_o_o",
    "cutoff_o_h",
    "surface_depth",
    "surface_bin",
    "grid_halfwidth",
    "target_jj",
    "target_jjh",
    "gap_mev",
    "area",
    "patch_area",
    "md_area",
)


def _parse_value(field_name: str, raw: str):
    raw = raw.strip().strip('"').strip("'")
    ftype = _FIELD_TYPES[field_name]
    if "str" in ftype:
        return raw
    if "int" in ftype and "float" not in ftype:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{field_name}: expected integer, got {raw!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{field_name}: expected number, got {raw!r}") from None


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    config = base if base is not None else PipelineConfig()
    updates = {}
    first_line = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().lower()
        if key not in _KEY_MAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {first_line[key]})")
        # partition splits at the first '=', so values like fixed=40 survive.
        field_name = _KEY_MAP[key]
        updates[field_name] = _parse_value(field_name, raw)
    return replace(config, **updates)


def load_config(path: str | Path, base: PipelineConfig | None = None) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), base=base)
