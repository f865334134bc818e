"""Periodic atomic structures and their analysis.

Extended-XYZ parsing, minimum-image bond graphs from species-pair distance
cutoffs, oxide-region identification with stoichiometry, lateral-grid surface
detection, and the small gas-exposure arithmetic (ideal-gas reference count,
effective oxidation time).

Minimum-image handling is restricted to orthorhombic cells; triclinic
periodic cells are rejected.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .constants import BOLTZMANN_KB

__all__ = [
    "DEFAULT_CUTOFFS",
    "SPECIES",
    "AtomicStructure",
    "BondGraph",
    "CellList",
    "ConfigurationError",
    "OxideRegion",
    "ParseError",
    "effective_time",
    "ideal_gas_count",
    "neighbor_graph",
    "oxide_region",
    "parse_xyz",
    "read_structure",
    "stoichiometry",
    "surface_sites",
]

SPECIES = ("Al", "O", "H")
_SPECIES_SET = frozenset(SPECIES)

# Species-pair bond cutoffs (A), from covalent-radius sums: the pairs the motif
# classifier reads, which needs the bonds of H and O atoms only.  Pairs not
# listed (Al-Al, H-H) are not bonded unless a caller passes a cutoff for them.
DEFAULT_CUTOFFS = {
    ("Al", "O"): 2.2,
    ("Al", "H"): 2.0,
    ("O", "O"): 1.6,
    ("O", "H"): 1.2,
}

_LATTICE_RE = re.compile(r'Lattice="([^"]*)"')


class ParseError(ValueError):
    """Malformed structure file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ConfigurationError(ValueError):
    """Geometry/cutoff combination the analysis cannot honour."""


@dataclass(frozen=True)
class AtomicStructure:
    """Atoms in a cell: species labels, Cartesian positions (A), periodicity."""

    cell: np.ndarray  # (3, 3), rows are lattice vectors
    pbc: tuple[bool, bool, bool]
    species: tuple[str, ...]
    positions: np.ndarray  # (n, 3)

    def __post_init__(self) -> None:
        cell = np.asarray(self.cell, dtype=float)
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "positions", pos)
        if cell.shape != (3, 3) or not np.all(np.isfinite(cell)):
            raise ValueError("cell must be a finite 3x3 matrix")
        if abs(np.linalg.det(cell)) <= 0:
            raise ValueError("cell volume must be positive")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if len(self.species) != len(pos):
            raise ValueError("species and positions length mismatch")
        bad = sorted({s for s in self.species if s not in SPECIES})
        if bad:
            raise ValueError(f"unknown species {bad}; allowed: {SPECIES}")

    def __len__(self) -> int:
        return len(self.species)

    @cached_property
    def is_orthorhombic(self) -> bool:
        off = self.cell - np.diag(np.diag(self.cell))
        return bool(np.all(np.abs(off) < 1e-9 * max(1.0, np.abs(self.cell).max())))

    @cached_property
    def _species_array(self) -> np.ndarray:
        return np.array(self.species, dtype=str)

    @cached_property
    def _indices(self) -> dict[str, np.ndarray]:
        index = {s: np.flatnonzero(self._species_array == s) for s in SPECIES}
        for idx in index.values():
            idx.flags.writeable = False
        return index

    def indices_of(self, species: str) -> np.ndarray:
        """Ascending indices of the atoms of `species` (a read-only array)."""
        return self._indices[species]


def parse_xyz(text: str) -> AtomicStructure:
    """Parse a single-frame extended-XYZ string.

    Line 1 holds the atom count, line 2 a comment that may carry
    Lattice="ax ay az bx by bz cx cy cz"; without it the cell is an
    orthorhombic bounding box with 10 A padding and the structure is
    flagged non-periodic.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing atom count")
    try:
        natoms = int(lines[0].strip())
    except ValueError:
        raise ParseError(1, f"bad atom count {lines[0].strip()!r}") from None
    if natoms < 1:
        raise ParseError(1, f"atom count must be positive, got {natoms}")
    if len(lines) < 2:
        raise ParseError(2, "missing comment line")

    comment = lines[1]
    match = _LATTICE_RE.search(comment)
    cell = None
    if match:
        fields = match.group(1).split()
        if len(fields) != 9:
            raise ParseError(2, f"Lattice needs 9 numbers, got {len(fields)}")
        try:
            cell = np.array([float(f) for f in fields]).reshape(3, 3)
        except ValueError:
            raise ParseError(2, "unparseable Lattice entry") from None

    atoms = _clean_atom_block(lines, natoms)
    species, positions = atoms if atoms is not None else _atom_rows(lines, natoms)
    if cell is not None:
        pbc = (True, True, True)
    else:
        extent = positions.max(axis=0) - positions.min(axis=0)
        cell = np.diag(extent + 10.0)
        pbc = (False, False, False)
    return AtomicStructure(cell=cell, pbc=pbc, species=species, positions=positions)


def _clean_atom_block(lines: list[str], natoms: int) -> tuple[tuple[str, ...], np.ndarray] | None:
    """(species, positions) of a clean atom block in one pass, else None.

    Clean means: lines 3 .. natoms + 2 are `label x y z` rows whose labels are
    already one of SPECIES, and only blank lines follow.  The rows are joined
    with a ";" token between them, and the layout is clean iff the split has
    5 * natoms - 1 tokens with ";" at every fifth place: a row of other than
    four tokens, or a ";" inside a row, moves a separator off its place.
    Coordinates go through `float`, as in `_atom_rows`, so any block this
    accepts parses to the same values there.
    """
    block = lines[2 : 2 + natoms]
    if len(block) != natoms or "".join(lines[2 + natoms :]).strip():
        return None
    tokens = " ; ".join(block).split()
    if len(tokens) != 5 * natoms - 1 or tokens[4::5].count(";") != natoms - 1:
        return None
    del tokens[4::5]
    species = tokens[0::4]
    if not _SPECIES_SET.issuperset(species):
        return None
    del tokens[0::4]
    try:
        positions = np.fromiter(map(float, tokens), dtype=float, count=3 * natoms)
    except ValueError:
        return None
    return tuple(species), positions.reshape(natoms, 3)


def _atom_rows(lines: list[str], natoms: int) -> tuple[tuple[str, ...], np.ndarray]:
    """(species, positions) read row by row; a malformed row raises ParseError
    naming its line.  Labels are case-insensitive and columns past z ignored."""
    species: list[str] = []
    coords: list[list[float]] = []
    for offset in range(natoms):
        lineno = 3 + offset
        if lineno - 1 >= len(lines) or not lines[lineno - 1].strip():
            raise ParseError(lineno, f"expected atom row {offset + 1} of {natoms}")
        tokens = lines[lineno - 1].split()
        if len(tokens) < 4:
            raise ParseError(lineno, f"need 'species x y z', got {lines[lineno - 1]!r}")
        label = tokens[0].capitalize()
        if label not in SPECIES:
            raise ParseError(lineno, f"unknown species {tokens[0]!r}")
        try:
            xyz = [float(t) for t in tokens[1:4]]
        except ValueError:
            raise ParseError(lineno, f"unparseable coordinate in {lines[lineno - 1]!r}") from None
        species.append(label)
        coords.append(xyz)

    for extra in range(3 + natoms, len(lines) + 1):
        if extra - 1 < len(lines) and lines[extra - 1].strip():
            raise ParseError(extra, "trailing content after declared atoms")
    return tuple(species), np.array(coords)


def read_structure(path: str | Path) -> AtomicStructure:
    path = Path(path)
    try:
        return parse_xyz(path.read_text())
    except ParseError as exc:
        raise ParseError(exc.line, f"{path.name}: {exc.message}") from None


def _cell_lengths(structure: AtomicStructure) -> np.ndarray:
    return np.abs(np.diag(structure.cell))


def _normalize_cutoffs(cutoffs: Mapping | None) -> dict[tuple[str, str], float]:
    merged = dict(DEFAULT_CUTOFFS)
    if cutoffs:
        for key, value in cutoffs.items():
            a, b = key
            if a not in SPECIES or b not in SPECIES:
                raise ConfigurationError(f"unknown species pair {key!r}")
            if not value > 0:
                raise ConfigurationError(f"cutoff for {key!r} must be positive, got {value}")
            merged[tuple(sorted((a, b)))] = float(value)
    return {tuple(sorted(k)): float(v) for k, v in merged.items()}


class BondGraph:
    """Symmetric distance-cutoff adjacency under the minimum-image convention.

    Stored as CSR arrays: the neighbours of atom i are
    `indices[indptr[i]:indptr[i + 1]]`, ascending, at `distances` in the same
    slots.  Per-atom lists are built on demand.  A graph from
    `CellList.graph` holds only the rows named there; the other rows are
    empty.  `bridge_o` maps each held H row that bonds an Al and no
    O to the nearest O within the Al-H cutoff (lowest index on ties), if any:
    the motif classifier's hydride branch reads it.
    """

    def __init__(
        self,
        structure: AtomicStructure,
        indptr: np.ndarray,
        indices: np.ndarray,
        distances: np.ndarray,
        bridge_o: dict[int, int],
    ):
        self.structure = structure
        self.indptr = indptr
        self.indices = indices
        self.distances = distances
        self.bridge_o = bridge_o

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def neighbors(self, i: int) -> list[tuple[int, float]]:
        """(index, distance) pairs sorted by atom index."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return list(zip(self.indices[lo:hi].tolist(), self.distances[lo:hi].tolist()))

    def neighbors_of_species(self, i: int, species: str) -> list[tuple[int, float]]:
        kinds = self.structure.species
        return [(j, d) for j, d in self.neighbors(i) if kinds[j] == species]

    def edge_set(self) -> set[tuple[int, int]]:
        rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        upper = rows < self.indices
        return set(zip(rows[upper].tolist(), self.indices[upper].tolist()))


# Most bins per axis: the cell key of three axes stays inside int64, and on a
# wide axis the bins stay wide enough that coordinate rounding (about 1e-16 of
# the axis extent) cannot part two atoms within the search reach.
_MAX_BINS = 2**20

_AL, _O, _H = (SPECIES.index(s) for s in ("Al", "O", "H"))


def _axis_bins(x: np.ndarray, length: float, periodic: bool, reach: float):
    """Cell-list bins on one axis: (bin of each coordinate, bin count, stencil).

    Every pair within `reach` on this axis (under the minimum image on a
    periodic axis) lands in bins that differ by a stencil offset.
    """
    if periodic:
        m = max(1, min(int(length // reach), _MAX_BINS))
        # np.mod can round a tiny negative value up to exactly L.
        bins = np.minimum((np.mod(x, length) / (length / m)).astype(np.int64), m - 1)
        # With 2 bins, +1 and -1 name the same neighbour; with 1, only itself.
        return bins, m, (0, 1, -1)[: min(m, 3)]
    lo, hi = (x.min(), x.max()) if x.size else (0.0, 0.0)
    bins = 1 + ((x - lo) / max(reach, (hi - lo) / _MAX_BINS)).astype(np.int64)
    # Bins 0 and count - 1 stay empty, so a stencil offset never leaves the axis.
    return bins, int(bins.max(initial=0)) + 2, (0, 1, -1)


class CellList:
    """Linked-cell index of one structure's atoms for bond queries.

    Built once per structure and cutoff set; `graph` then bonds any set of
    centre atoms.  The reach is the largest cutoff plus a 1e-9 relative and
    absolute margin.  A periodic axis of length L gets m = floor(L / reach)
    bins of width L / m on the wrapped coordinates; a non-periodic axis gets
    bins of width reach from its lowest coordinate.  An axis holds at most
    2**20 bins; past that they widen.  Neighbour cells differ by -1, 0 or +1
    bins per axis, wrapping on periodic axes; with 2 bins the stencil is
    {0, +1}, so no cell is listed twice.  Only occupied cells are stored, as
    sorted integer keys, so memory is O(N) for any cell size and any spread of
    the atoms.

    Raises ConfigurationError when a cutoff reaches half the cell length on a
    periodic axis (the minimum-image distance would be ambiguous).
    """

    def __init__(self, structure: AtomicStructure, cutoffs: Mapping | None = None):
        if any(structure.pbc) and not structure.is_orthorhombic:
            raise ConfigurationError(
                "minimum-image convention supports orthorhombic cells only; "
                "got a triclinic periodic cell"
            )
        cut = _normalize_cutoffs(cutoffs)
        rmax = max(cut.values())
        self._lengths = lengths = _cell_lengths(structure)
        for ax in range(3):
            if structure.pbc[ax] and rmax >= 0.5 * lengths[ax]:
                raise ConfigurationError(
                    f"cutoff {rmax} A >= half cell length {0.5 * lengths[ax]} A on periodic axis {ax}"
                )
        self.structure = structure
        self._kind = np.argmax(structure._species_array[:, None] == np.array(SPECIES), axis=1)
        # Unlisted pairs stay unbonded even at distance 0 (coincident atoms).
        self._limit = np.full((len(SPECIES), len(SPECIES)), -np.inf)
        for (a, b), r in cut.items():
            ia, ib = SPECIES.index(a), SPECIES.index(b)
            self._limit[ia, ib] = self._limit[ib, ia] = r

        # The margin covers the binning's rounding; the exact test in `graph` decides.
        reach = rmax * (1 + 1e-9) + 1e-9
        self._bins, self._dims, stencils = zip(
            *(
                _axis_bins(structure.positions[:, ax], lengths[ax], structure.pbc[ax], reach)
                for ax in range(3)
            )
        )
        self._offsets = np.array(list(itertools.product(*stencils)))
        # Occupied cells only, as sorted keys with the run of atoms in each.
        atom_key = self._key(self._bins)
        self._order = np.argsort(atom_key, kind="stable")
        self._cells, self._start, self._count = np.unique(
            atom_key[self._order], return_index=True, return_counts=True
        )

    def _key(self, b):
        return (b[0] * self._dims[1] + b[1]) * self._dims[2] + b[2]

    def _near(self, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centre, atom, distance) for every atom other than the centre in
        the centre's neighbour cells, which hold all atoms within the reach.
        The distance is the minimum image of position[atom] - position[centre]:
        `np.round` is odd and negation exact, so it is bit for bit the
        distance seen from the other end."""
        near = []
        for ax in range(3):
            b = self._bins[ax][centres][:, None] + self._offsets[:, ax]
            near.append(b % self._dims[ax] if self.structure.pbc[ax] else b)
        near_key = self._key(near)
        slot = np.minimum(np.searchsorted(self._cells, near_key), len(self._cells) - 1)
        hit = self._cells[slot] == near_key
        row, slot = np.nonzero(hit)[0], slot[hit]
        sizes = self._count[slot]
        local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        atom = self._order[np.repeat(self._start[slot], sizes) + local]
        centre = centres[np.repeat(row, sizes)]
        other = atom != centre
        centre, atom = centre[other], atom[other]
        delta = self.structure.positions[atom] - self.structure.positions[centre]
        for ax in range(3):
            if self.structure.pbc[ax]:
                delta[:, ax] -= self._lengths[ax] * np.round(delta[:, ax] / self._lengths[ax])
        return centre, atom, np.linalg.norm(delta, axis=1)

    def _bridges(self, centre, atom, dist, bonded) -> dict[int, int]:
        """`BondGraph.bridge_o` entries of the H centres of one query, from its
        candidates (centre, atom, dist) and their bond mask."""
        kind = self._kind
        bonds_to = np.zeros((len(kind), len(SPECIES)), dtype=bool)
        bonds_to[centre[bonded], kind[atom[bonded]]] = True
        pick = (kind[centre] == _H) & (kind[atom] == _O) & (dist <= self._limit[_AL, _H])
        pick &= bonds_to[centre, _AL] & ~bonds_to[centre, _O]
        centre, atom, dist = centre[pick], atom[pick], dist[pick]
        order = np.lexsort((atom, dist, centre))
        _, first = np.unique(centre[order], return_index=True)
        return dict(zip(centre[order][first].tolist(), atom[order][first].tolist()))

    def graph(self, centres) -> BondGraph:
        """Bond graph holding the rows of `centres` and of every O atom a held
        row bonds to, until none is new: with the H atoms as centres, these are
        the rows the motif classifier reads.  The other rows are empty.

        A candidate is bonded iff its distance is within its species-pair
        cutoff, so each held row equals the same row of an all-pairs
        evaluation of the minimum-image formula, bit for bit.
        """
        n = len(self.structure)
        held = np.zeros(n, dtype=bool)
        pending = np.asarray(centres, dtype=np.intp)
        parts, bridge_o = [], {}
        while not parts or pending.size:
            held[pending] = True
            centre, atom, dist = self._near(pending)
            bonded = dist <= self._limit[self._kind[centre], self._kind[atom]]
            bridge_o.update(self._bridges(centre, atom, dist, bonded))
            parts.append((centre[bonded], atom[bonded], dist[bonded]))
            pending = np.unique(atom[bonded & (self._kind[atom] == _O) & ~held[atom]])
        rows, cols, dist = (np.concatenate(p) for p in zip(*parts))
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return BondGraph(self.structure, indptr, cols[order], dist[order], bridge_o)


def neighbor_graph(structure: AtomicStructure, cutoffs: Mapping | None = None) -> BondGraph:
    """The full bond graph: `CellList.graph` with every atom as a centre."""
    return CellList(structure, cutoffs).graph(np.arange(len(structure)))


@dataclass(frozen=True)
class OxideRegion:
    """z-interval holding the oxide, its member atoms and composition."""

    z_lo: float
    z_hi: float
    members: tuple[int, ...]
    n_al: int
    n_o: int
    n_h: int

    def __post_init__(self) -> None:
        if not self.z_lo < self.z_hi:
            raise ValueError(f"empty z-interval [{self.z_lo}, {self.z_hi}]")


def oxide_region(structure: AtomicStructure, padding: float = 0.5) -> OxideRegion:
    """Locate the oxide as the z-interval spanning all O atoms plus padding.

    Membership is interval-based (robust against under-coordinated amorphous
    edges).  On a periodic z axis the O atoms must not straddle the boundary:
    if the widest gap between consecutive O heights is wider than the gap
    across the boundary, the interval would span the cell's empty part, so
    the structure is rejected (ValueError).
    """
    z = structure.positions[:, 2]
    o_idx = structure.indices_of("O")
    if o_idx.size == 0:
        raise ValueError("structure contains no O atoms; cannot locate an oxide region")
    z_o = np.sort(z[o_idx])
    if structure.pbc[2] and o_idx.size > 1:
        across = z_o[0] + _cell_lengths(structure)[2] - z_o[-1]
        widest = np.diff(z_o).max()
        if widest > across:
            raise ValueError(
                f"O atoms straddle the periodic z boundary: a {widest:.6g} A gap between "
                f"O heights is wider than the {across:.6g} A gap across the boundary"
            )
    z_lo = float(z_o[0] - padding)
    z_hi = float(z_o[-1] + padding)
    inside = (z >= z_lo) & (z <= z_hi)
    return OxideRegion(
        z_lo=z_lo,
        z_hi=z_hi,
        members=tuple(np.flatnonzero(inside).tolist()),
        n_al=int(np.count_nonzero(inside[structure.indices_of("Al")])),
        n_o=int(np.count_nonzero(inside[o_idx])),
        n_h=int(np.count_nonzero(inside[structure.indices_of("H")])),
    )


def stoichiometry(region: OxideRegion) -> tuple[float, float]:
    """(x, h_at%) with x = N_O / N_Al and at.% counting H in the denominator."""
    if region.n_al < 1:
        raise ValueError("oxide region contains no Al; stoichiometry undefined")
    x = region.n_o / region.n_al
    total = region.n_al + region.n_o + region.n_h
    return x, 100.0 * region.n_h / total


def surface_sites(
    structure: AtomicStructure,
    region: OxideRegion,
    depth: float = 2.0,
    bin_width: float = 4.0,
) -> frozenset[int]:
    """Oxide atoms within `depth` of their lateral cell's local top surface.

    The xy plane is gridded into bin_width x bin_width cells; each cell's
    surface height is the max z of its oxide members, and a member is a
    surface site iff z >= height - depth.
    """
    if not depth > 0:
        raise ValueError(f"depth must be positive, got {depth}")
    if not bin_width > 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    if not region.members:
        raise ValueError("empty oxide region")
    members = np.array(region.members, dtype=int)
    pos = structure.positions[members]
    lengths = _cell_lengths(structure)

    keys = []
    for axis in range(2):
        coords = pos[:, axis]
        if structure.pbc[axis]:
            span = lengths[axis]
            wrapped = np.mod(coords, span)
        else:
            span = coords.max() - coords.min()
            wrapped = coords - coords.min()
        nbins = max(1, int(math.ceil(span / bin_width))) if span > 0 else 1
        keys.append(np.minimum((wrapped / bin_width).astype(int), nbins - 1))

    # One integer key per lateral cell, ascending with (kx, ky) in lexicographic order.
    kx, ky = keys
    _, cell_of = np.unique(kx * (ky.max() + 1) + ky, return_inverse=True)
    z = pos[:, 2]
    heights = np.full(cell_of.max() + 1, -np.inf)
    np.maximum.at(heights, cell_of, z)
    return frozenset(members[z >= heights[cell_of] - depth].tolist())


def effective_time(n_sim: float, n_ref: float, t_sim: float) -> float:
    """Effective exposure time t_sim * n_sim / n_ref (same unit as t_sim).

    A simulation loaded with n_sim gas molecules where the reference pressure
    corresponds to n_ref molecules in the same volume runs effectively
    n_sim / n_ref times longer than its wall-clock trajectory.
    """
    if not n_ref > 0:
        raise ValueError(f"reference molecule count must be positive, got {n_ref}")
    return t_sim * n_sim / n_ref


def ideal_gas_count(pressure: float, volume: float, temperature: float) -> float:
    """Ideal-gas molecule count N = P V / (k_B T); volume in A^3, pressure in Pa.

    Note: for 1500 Pa in the 34.17 x 34.17 x 78.26 A^3 growth cell at 300 K
    this evaluates to ~3.31e-2, which differs from the 8.46e-3 reference
    count quoted for the same conditions in the gas-exposure bookkeeping
    (see README); both values are kept, neither is silently adjusted.
    """
    if not (pressure > 0 and volume > 0 and temperature > 0):
        raise ValueError("pressure, volume and temperature must all be positive")
    return pressure * (volume * 1e-30) / (BOLTZMANN_KB * temperature)
