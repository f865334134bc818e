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
`stats.alpha`, `stats.beta` and `stats.trials` that
`stats.BetaBinomial.from_shapes` refuses to convert to (p, theta), naming
the offending key.
"""

from __future__ import annotations

import math
import os
import re
from bisect import bisect_left
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path

from .stats import MAX_TRIALS, BetaBinomial, read_text

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


def _grid(centre: float, halfwidth: float, points: int) -> tuple[float, float, float]:
    """(lo, step, hi) of the grid of `points` >= 2 evenly spaced energies over
    centre ± halfwidth, for a grid centred on the lead on-site energy: energy
    i is i * step + lo, rounded after each operation, and the last is hi, as
    np.linspace(lo, hi, points) computes them while step is non-zero.  Where
    an end rounds past MAX_ENERGY_OFFSET from the centre, it steps back
    inside by ulps."""
    ends = []
    for end in (centre - halfwidth, centre + halfwidth):
        while abs(end - centre) > MAX_ENERGY_OFFSET:
            end = math.nextafter(end, centre)
        ends.append(end)
    lo, hi = ends
    return lo, (hi - lo) / (points - 1), hi


def energy_grid(centre: float, halfwidth: float, points: int):
    """The energies of `_grid` as a numpy array."""
    import numpy as np

    lo, step, hi = _grid(centre, halfwidth, points)
    grid = np.arange(points, dtype=float) * step + lo
    grid[-1] = hi
    return grid


def _grid_increasing(centre: float, halfwidth: float, points: int) -> bool:
    """Whether the energies of `_grid` strictly increase.  Each one is off
    i * step + lo by a few ulps of the largest energy at most, so a step of
    16 such ulps keeps every pair in order; only a grid spaced closer is
    built to be compared pair by pair."""
    lo, step, hi = _grid(centre, halfwidth, points)
    if step > 16 * math.ulp(max(abs(lo), abs(hi))):
        return True
    grid = energy_grid(centre, halfwidth, points)
    return bool((grid[1:] > grid[:-1]).all())


def _shift_fit_points(
    centre: float, halfwidth: float, points: int, hopping: float
) -> tuple[int, int]:
    """(energies within SHIFT_WINDOW of the centre, those of them inside the
    open lead band |E - centre| < 2|hopping|) of an increasing `_grid`, the
    energies the CLI fits the curve shift over.  Each bound of the two
    ranges is a binary search for the first energy that passes a test."""
    lo, step, hi = _grid(centre, halfwidth, points)

    def first(test) -> int:
        return bisect_left(
            range(points), True, key=lambda i: test(hi if i == points - 1 else i * step + lo)
        )

    band = 2.0 * abs(hopping)
    window = (first(lambda e: e >= centre - SHIFT_WINDOW), first(lambda e: e > centre + SHIFT_WINDOW))
    inside = (first(lambda e: e - centre > -band), first(lambda e: e - centre >= band))
    return window[1] - window[0], max(0, min(window[1], inside[1]) - max(window[0], inside[0]))


class ConfigError(ValueError):
    """Bad configuration file or value."""


def _key(key: str, default, *, positive: bool = False):
    """A `PipelineConfig` field set by `key` in a config file; `positive`
    makes `validate` require a value above zero (an unset None is skipped)."""
    return field(default=default, metadata={"key": key, "positive": positive})


@dataclass(frozen=True)
class PipelineConfig:
    structures: str | None = _key("paths.structures", None)
    counts: str | None = _key("paths.counts", None)
    out: str = _key("paths.out", "out")
    seed: int = _key("seed", 0)
    m_strategy: str = _key("stats.m", "scan")
    alpha: float = _key("stats.alpha", 17.69)
    beta: float = _key("stats.beta", 15.36)
    trials: int = _key("stats.trials", 40)
    # Pair cutoff overrides, A: `cutoff.<a>_<b>` is the (A, B) species pair.
    cutoff_al_o: float | None = _key("cutoff.al_o", None, positive=True)
    cutoff_al_h: float | None = _key("cutoff.al_h", None, positive=True)
    cutoff_o_o: float | None = _key("cutoff.o_o", None, positive=True)
    cutoff_o_h: float | None = _key("cutoff.o_h", None, positive=True)
    surface_depth: float = _key("surface.depth", 2.0, positive=True)
    surface_bin: float = _key("surface.bin", 4.0, positive=True)
    lead_onsite: float = _key("transport.lead_onsite", 0.0)
    lead_hopping: float = _key("transport.lead_hopping", 3.0)
    barrier_sites: int = _key("transport.barrier_sites", 12)
    bounds_lo: float = _key("transport.bounds_lo", 0.0)
    bounds_hi: float = _key("transport.bounds_hi", 30.0)
    grid_points: int = _key("transport.grid_points", 2001)
    grid_halfwidth: float = _key("transport.grid_halfwidth", 5.0, positive=True)
    target_jj: float = _key("transport.target_jj", 1.61e-5, positive=True)
    target_jjh: float = _key("transport.target_jjh", 1.74e-5, positive=True)
    gap_mev: float = _key("junction.gap_mev", 0.20, positive=True)
    area: float = _key("junction.area", 2000.0 * 2000.0, positive=True)
    patch_area: float = _key("junction.patch_area", 9.61 * 8.32, positive=True)
    md_area: float = _key("junction.md_area", 34.17 * 34.17, positive=True)

    def cutoff_overrides(self) -> dict[tuple[str, str], float]:
        overrides = {}
        for f in fields(self):
            section, _, pair = f.metadata["key"].partition(".")
            if section == "cutoff" and getattr(self, f.name) is not None:
                a, b = pair.split("_")
                overrides[a.capitalize(), b.capitalize()] = getattr(self, f.name)
        return overrides

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
                raise ConfigError(f"{f.metadata['key']} must be finite, got {value}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["positive"] and value is not None and not value > 0:
                raise ConfigError(f"{f.metadata['key']} must be positive, got {value}")
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
        grid = (self.lead_onsite, self.grid_halfwidth, self.grid_points)
        if not _grid_increasing(*grid):  # as `transmission` requires
            raise ConfigError(
                f"transport.grid_halfwidth must be wide enough for {self.grid_points} distinct "
                f"energies around transport.lead_onsite = {self.lead_onsite}, "
                f"got {self.grid_halfwidth}"
            )
        window, usable = _shift_fit_points(*grid, self.lead_hopping)
        if usable < 3:
            key = "transport.lead_hopping" if window >= 3 else "transport.grid_points"
            raise ConfigError(
                f"{key} must be large enough to leave the curve-shift fit 3 grid energies within "
                f"{SHIFT_WINDOW:g} eV of transport.lead_onsite and inside the lead band "
                f"|E - transport.lead_onsite| < 2|transport.lead_hopping|, got {usable} of "
                f"{self.grid_points} at transport.lead_hopping = {self.lead_hopping}"
            )
        if not self.bounds_lo < self.bounds_hi:
            raise ConfigError(f"bad calibration bounds [{self.bounds_lo}, {self.bounds_hi}]")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("structures", "counts") and value is not None and not Path(value).exists():
                # Quoted as written: a name the locale cannot encode holds its
                # UTF-8 bytes as surrogate escapes.
                written = os.fsencode(value).decode("utf-8", "surrogateescape")
                raise ConfigError(f"{f.metadata['key']} must be an existing path, got {written}")
        self.m_fit_args()
        try:
            BetaBinomial.from_shapes(self.alpha, self.beta, self.trials)
        except ValueError as exc:  # its messages open with a field name
            raise ConfigError(f"stats.{exc}") from None


_KEY_MAP = {f.metadata["key"]: f for f in fields(PipelineConfig)}


def _parse_value(f: Field, raw: str, lineno: int):
    raw = raw.strip().strip('"').strip("'")
    if f.metadata["key"].startswith("paths."):
        # The file-system form of the name, as argv arrives in any locale.
        return os.fsdecode(raw.encode("utf-8"))
    if "str" in f.type:
        return raw
    if "int" in f.type and "float" not in f.type:
        parse, expected = int, "integer"
    else:
        parse, expected = float, "number"
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {f.metadata['key']}: expected {expected}, got {raw!r}"
        ) from None


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
        updates[_KEY_MAP[key].name] = _parse_value(_KEY_MAP[key], raw, lineno)
    return replace(config, **updates)


def load_config(path: str | Path, base: PipelineConfig | None = None) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(read_text(path), base=base)
