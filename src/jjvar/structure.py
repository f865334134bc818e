"""Periodic atomic structures and their analysis.

Extended-XYZ parsing, minimum-image bond graphs from species-pair distance
cutoffs, oxide-region identification with an Al/O/H census, stoichiometry
of census rows, lateral-grid surface detection, and the effective oxidation
time of the gas-exposure bookkeeping.  The analyses take a `StructureBatch`,
several structures laid end to end; a single structure is a batch of one.
They return arrays over the batch's structures or atoms, and a list of
per-structure messages where a structure can be rejected; no per-structure
record is built.

Minimum-image handling is restricted to orthorhombic cells; triclinic
periodic cells are rejected.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .stats import read_text

__all__ = [
    "DEFAULT_CUTOFFS",
    "NO_AL_MESSAGE",
    "SPECIES",
    "AtomicStructure",
    "BondGraph",
    "CellList",
    "ConfigurationError",
    "ParseError",
    "StructureBatch",
    "effective_time",
    "oxide_regions",
    "parse_xyz",
    "read_structure",
    "stoichiometry",
    "surface_mask",
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
        with np.errstate(over="ignore"):  # an infinite volume is positive
            volume = abs(np.linalg.det(cell))
        if volume <= 0:
            raise ValueError("cell volume must be positive")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if len(self.species) != len(pos):
            raise ValueError("species and positions length mismatch")
        bad = sorted(set(self.species) - _SPECIES_SET)
        if bad:
            raise ValueError(f"unknown species {bad}; allowed: {SPECIES}")

    def __len__(self) -> int:
        return len(self.species)


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
        # AtomicStructure refuses the infinite or nan extent of huge or
        # infinite coordinates.
        with np.errstate(over="ignore", invalid="ignore"):
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
    """The structure in an extended-XYZ file.  A file that is not UTF-8 is a
    ValueError whose message leaves the naming of the file to the caller."""
    path = Path(path)
    text = read_text(path, named=False)
    try:
        return parse_xyz(text)
    except ParseError as exc:
        raise ParseError(exc.line, f"{path.name}: {exc.message}") from None


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


_AL, _O, _H = range(len(SPECIES))
_KIND_OF_LETTER = np.zeros(128, dtype=np.int8)
_KIND_OF_LETTER[[ord(s[0]) for s in SPECIES]] = range(len(SPECIES))


class StructureBatch:
    """Structures laid end to end, so that one set of array operations
    analyses all of them.

    Atom k of structure c is batch atom `offsets[c] + k`, and `cell_of` holds
    c for every atom, so each structure is one contiguous run of atoms.
    `kind` is each atom's index into SPECIES.  The batch copies what it
    needs, so the structures can be dropped once it is built.
    """

    def __init__(self, structures):
        structures = list(structures)
        self.count = len(structures)
        sizes = [len(s) for s in structures]
        self.offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        self.cell_of = np.repeat(np.arange(self.count), sizes)
        # The labels are exactly SPECIES, so with "Al" cut to "A" each atom is one letter.
        labels = itertools.chain.from_iterable(s.species for s in structures)
        letters = "".join(labels).replace("Al", "A").encode("ascii")
        self.kind = _KIND_OF_LETTER[np.frombuffer(letters, dtype=np.uint8)]
        self.positions = np.concatenate([np.empty((0, 3))] + [s.positions for s in structures])
        cells = np.array([s.cell for s in structures]).reshape(-1, 3, 3)
        self.lengths = np.abs(np.diagonal(cells, axis1=1, axis2=2))
        self.pbc = np.array([s.pbc for s in structures], dtype=bool).reshape(-1, 3)
        scale = np.maximum(1.0, np.abs(cells).max(axis=(1, 2), initial=0.0))
        off_diagonal = np.abs(cells * ~np.eye(3, dtype=bool))
        self.orthorhombic = (off_diagonal < 1e-9 * scale[:, None, None]).all(axis=(1, 2))

    def __len__(self) -> int:
        return len(self.kind)

    def runs(self, ufunc, values: np.ndarray, cells: np.ndarray, empty) -> np.ndarray:
        """`ufunc` reduced over each structure's values, for `values` ordered by
        their structures `cells`; `empty` where a structure has none."""
        sizes = np.bincount(cells, minlength=self.count)
        out = np.full(self.count, empty)
        if values.size:
            out[sizes > 0] = ufunc.reduceat(values, (np.cumsum(sizes) - sizes)[sizes > 0])
        return out


class BondGraph:
    """Symmetric distance-cutoff adjacency under the minimum-image convention.

    `atoms` is the batch whose atoms it bonds.  Stored as CSR
    arrays: the neighbours of atom i are `indices[indptr[i]:indptr[i + 1]]`,
    ascending, at `distances` in the same slots.  A graph from
    `CellList.graph` holds only the rows named there; the other rows are
    empty.  `bridge_o` is an array over rows: for each held H row that bonds
    an Al and no O, the nearest O within the Al-H cutoff (lowest index on
    ties), and -1 for none and for every other row.  The motif classifier's
    hydride branch reads it.
    """

    def __init__(
        self,
        atoms: StructureBatch,
        indptr: np.ndarray,
        indices: np.ndarray,
        distances: np.ndarray,
        bridge_o: np.ndarray,
    ):
        self.atoms = atoms
        self.indptr = indptr
        self.indices = indices
        self.distances = distances
        self.bridge_o = bridge_o


# Most bins per axis.  On a wide axis the bins stay wide enough that
# coordinate rounding (about 1e-16 of the axis extent) cannot part two atoms
# within the search reach, and a structure has fewer than 2**49 cell keys, so
# the keys of 2**14 structures fit one int64 key space.
_MAX_BINS = 2**16

# The steps to a neighbour cell on one axis, in stencil order, and each
# axis's place in that order for each of the 27 neighbour cells.
_STEPS = np.array([0, 1, -1])
_STEP_RANK = np.array(list(itertools.product(range(3), repeat=3)))


def _axis_bins(batch: StructureBatch, ax: int, binned: np.ndarray, reach: float):
    """Cell-list bins on one axis: (bin of each atom, bin count and stencil
    length of each structure).

    Every pair within `reach` on this axis (under the minimum image on a
    periodic axis) lands in bins that differ by one of the first `stencil`
    steps.  Only the structures in `binned` are binned; the atoms of the
    others sit in bin 0 of 1.
    """
    x, lengths, cell = batch.positions[:, ax], batch.lengths[:, ax], batch.cell_of
    bins = np.zeros(len(x), dtype=np.int64)
    dims = np.ones(batch.count, dtype=np.int64)
    stencil = np.ones(batch.count, dtype=np.int64)
    periodic, bounded = binned & batch.pbc[:, ax], binned & ~batch.pbc[:, ax]
    if periodic.any():
        dims[periodic] = np.clip(lengths[periodic] // reach, 1, _MAX_BINS)
        # With 2 bins, +1 and -1 name the same neighbour; with 1, only itself.
        stencil[periodic] = np.minimum(dims[periodic], 3)
        at = slice(None) if periodic.all() else periodic[cell]
        length, m = lengths[cell[at]], dims[cell[at]]
        # np.mod can round a tiny negative value up to exactly L.
        bins[at] = np.minimum((np.mod(x[at], length) / (length / m)).astype(np.int64), m - 1)
    if bounded.any():
        lo, hi = batch.runs(np.minimum, x, cell, 0.0), batch.runs(np.maximum, x, cell, 0.0)
        width = np.full(batch.count, reach)
        width[bounded] = np.maximum(reach, (hi[bounded] - lo[bounded]) / _MAX_BINS)
        at = bounded[cell]
        bins[at] = 1 + ((x[at] - lo[cell[at]]) / width[cell[at]]).astype(np.int64)
        # Bins 0 and count - 1 stay empty, so a stencil step never leaves the axis.
        dims[bounded] = batch.runs(np.maximum, bins, cell, 0)[bounded] + 2
        stencil[bounded] = 3
    return bins, dims, stencil


def _bond_error(orthorhombic, pbc: np.ndarray, lengths: np.ndarray, rmax: float) -> str | None:
    """Why `CellList` cannot bond a cell, or None."""
    if pbc.any() and not orthorhombic:
        return (
            "minimum-image convention supports orthorhombic cells only; "
            "got a triclinic periodic cell"
        )
    for ax in range(3):
        if pbc[ax] and rmax >= 0.5 * lengths[ax]:
            half = 0.5 * lengths[ax]
            return f"cutoff {rmax} A >= half cell length {half} A on periodic axis {ax}"
    return None


class CellList:
    """Linked-cell index of the atoms of a batch of structures, for bond
    queries.

    Built once per batch and cutoff set; `graph` then bonds any set of centre
    atoms.  The reach is the largest cutoff plus a 1e-9 relative and absolute
    margin.  A periodic axis of length L gets m = floor(L / reach) bins of
    width L / m on the wrapped coordinates; a non-periodic axis gets bins of
    width reach from its lowest coordinate.  An axis holds at most 2**16
    bins; past that they widen.  Neighbour cells differ by -1, 0 or +1 bins
    per axis, wrapping on periodic axes; with 2 bins the stencil is {0, +1},
    so no cell is listed twice.  Each structure has its own bins, and its
    index is folded into the integer cell key, so no query leaves its
    structure.  Only occupied cells are stored, as sorted keys, so memory is
    O(N) for any cell size and any spread of the atoms.

    `errors` holds, per structure, the message that keeps it out of bond
    queries, or None: a triclinic periodic cell, or a cutoff that reaches
    half the cell length on a periodic axis (the minimum-image distance
    would be ambiguous).  `graph` raises ConfigurationError with it for a
    centre in such a structure.
    """

    def __init__(self, batch: StructureBatch, cutoffs: Mapping | None = None):
        self.batch = batch
        cut = _normalize_cutoffs(cutoffs)
        rmax = max(cut.values())
        self.errors = [
            _bond_error(*cell, rmax) for cell in zip(batch.orthorhombic, batch.pbc, batch.lengths)
        ]
        self._unbonded = np.array([e is not None for e in self.errors], dtype=bool)
        # Unlisted pairs stay unbonded even at distance 0 (coincident atoms).
        self._limit = np.full((len(SPECIES), len(SPECIES)), -np.inf)
        for (a, b), r in cut.items():
            ia, ib = SPECIES.index(a), SPECIES.index(b)
            self._limit[ia, ib] = self._limit[ib, ia] = r

        # The margin covers the binning's rounding; the exact test in `graph` decides.
        reach = rmax * (1 + 1e-9) + 1e-9
        binned = ~self._unbonded
        self._bins, dims, stencil = zip(*(_axis_bins(batch, ax, binned, reach) for ax in range(3)))
        self._dims = np.stack(dims, axis=1)
        self._stencil = (_STEP_RANK < np.stack(stencil, axis=1)[:, None, :]).all(axis=2)
        keys = self._dims.prod(axis=1)
        if keys.sum(dtype=float) >= 2.0**62:
            raise ConfigurationError(
                "too many cell-list keys in one batch; analyse fewer structures at once"
            )
        self._base = np.cumsum(keys) - keys
        # Per axis: each structure's length and periodicity, and whether every
        # structure that can be bonded is periodic.
        self._length, self._wrap = batch.lengths.T.copy(), batch.pbc.T.copy()
        self._wrap_all = self._wrap[:, binned].all(axis=1).tolist()
        # Occupied cells only, as sorted keys with the run of atoms in each.
        dims = self._dims[batch.cell_of]
        key = (self._bins[0] * dims[:, 1] + self._bins[1]) * dims[:, 2] + self._bins[2]
        key += self._base[batch.cell_of]
        self._order = np.argsort(key, kind="stable")
        key = key[self._order]
        self._start = np.flatnonzero(np.diff(key, prepend=-1))
        self._count = np.diff(self._start, append=len(key))
        # A last key above every real one, so a lookup never runs off the end.
        self._cells = np.append(key[self._start], np.iinfo(np.int64).max)
        self._full_stencil = bool(self._stencil.all())

    def _near(self, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centre, atom, distance) for every atom other than the centre in
        the centre's neighbour cells, which hold all atoms within the reach.
        The distance is the minimum image of position[atom] - position[centre]:
        `np.round` is odd and negation exact, so it is bit for bit the
        distance seen from the other end."""
        batch = self.batch
        cell = batch.cell_of[centres]
        dims = self._dims[cell]
        near = []
        for ax in range(3):
            b = self._bins[ax][centres][:, None] + _STEPS
            wrap = slice(None) if self._wrap_all[ax] else self._wrap[ax][cell]
            b[wrap] %= dims[wrap, ax, None]
            near.append(b)
        # The key of every neighbour cell, in the order of _STEP_RANK.
        near_key = (
            self._base[cell][:, None, None, None]
            + (near[0] * (dims[:, 1:2] * dims[:, 2:3]))[:, :, None, None]
            + (near[1] * dims[:, 2:3])[:, None, :, None]
            + near[2][:, None, None, :]
        ).reshape(len(centres), len(_STEP_RANK))
        slot = np.searchsorted(self._cells, near_key)
        hit = self._cells[slot] == near_key
        if not self._full_stencil:
            hit &= self._stencil[cell]
        row, slot = np.nonzero(hit)[0], slot[hit]
        sizes = self._count[slot]
        first = np.repeat(self._start[slot] - (np.cumsum(sizes) - sizes), sizes)
        atom = self._order[first + np.arange(len(first))]
        centre = centres[np.repeat(row, sizes)]
        other = atom != centre
        centre, atom = centre[other], atom[other]
        cell = batch.cell_of[centre]
        # The sum of squares in np.linalg.norm's order, one axis at a time.
        # Coordinates past about 1e154 apart overflow it to inf (or, under the
        # minimum image, to nan): no cutoff bonds such a pair.
        dist = np.zeros(len(atom))
        with np.errstate(over="ignore", invalid="ignore"):
            for ax in range(3):
                x = batch.positions[:, ax]
                d = x[atom] - x[centre]
                wrap = slice(None) if self._wrap_all[ax] else self._wrap[ax][cell]
                length = self._length[ax][cell[wrap]]
                d[wrap] -= length * np.round(d[wrap] / length)
                d *= d
                dist += d
        return centre, atom, np.sqrt(dist)

    def _bridges(self, centre, atom, dist, bonded) -> np.ndarray:
        """`BondGraph.bridge_o` for the H centres of one query, from its
        candidates (centre, atom, dist) and their bond mask."""
        kind = self.batch.kind
        bonds_to = np.zeros((len(kind), len(SPECIES)), dtype=bool)
        bonds_to[centre[bonded], kind[atom[bonded]]] = True
        pick = (kind[centre] == _H) & (kind[atom] == _O) & (dist <= self._limit[_AL, _H])
        pick &= bonds_to[centre, _AL] & ~bonds_to[centre, _O]
        centre, atom, dist = centre[pick], atom[pick], dist[pick]
        order = np.lexsort((atom, dist, centre))
        centre, atom = centre[order], atom[order]
        first = np.flatnonzero(np.diff(centre, prepend=-1))
        bridge_o = np.full(len(kind), -1, dtype=np.intp)
        bridge_o[centre[first]] = atom[first]
        return bridge_o

    def graph(self, centres) -> BondGraph:
        """Bond graph holding the rows of `centres` and of every O atom a held
        row bonds to, until none is new: with the H atoms as centres, these are
        the rows the motif classifier reads.  The other rows are empty.

        A candidate is bonded iff its distance is within its species-pair
        cutoff, so each held row equals the same row of an all-pairs
        evaluation of the minimum-image formula, bit for bit.
        """
        n, kind = len(self.batch), self.batch.kind
        held = np.zeros(n, dtype=bool)
        pending = np.asarray(centres, dtype=np.intp)
        unbonded = self._unbonded[self.batch.cell_of[pending]]
        if unbonded.any():
            raise ConfigurationError(self.errors[self.batch.cell_of[pending[unbonded.argmax()]]])
        parts = []
        while not parts or pending.size:
            held[pending] = True
            centre, atom, dist = self._near(pending)
            bonded = dist <= self._limit[kind[centre], kind[atom]]
            if not parts:  # later rounds have O centres only
                bridge_o = self._bridges(centre, atom, dist, bonded)
            parts.append((centre[bonded], atom[bonded], dist[bonded]))
            new = np.zeros(n, dtype=bool)
            new[atom[bonded & (kind[atom] == _O) & ~held[atom]]] = True
            pending = np.flatnonzero(new)
        rows, cols, dist = (np.concatenate(p) for p in zip(*parts))
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return BondGraph(self.batch, indptr, cols[order], dist[order], bridge_o)


# Padding of the oxide z-interval beyond its lowest and highest O atom, A.
_OXIDE_PADDING = 0.5

# Why a census row has no stoichiometry.
NO_AL_MESSAGE = "oxide region contains no Al; stoichiometry undefined"


def oxide_regions(batch: StructureBatch) -> tuple[list[str | None], np.ndarray, np.ndarray]:
    """Per structure, None or the message that says why it has no oxide
    region; the (count, 3) census of the Al, O and H atoms inside each
    region (zeros for a structure without one); and the mask of the batch
    atoms inside a region.

    The oxide is the z-interval spanning all O atoms plus `_OXIDE_PADDING`.
    Membership is interval-based (robust against under-coordinated amorphous
    edges).  On a periodic z axis the O atoms must not straddle the boundary:
    if the widest gap between consecutive O heights is wider than the gap
    across the boundary, the interval would span the cell's empty part, so
    the structure has none.  Padding lost to rounding at huge heights leaves
    an empty interval, and no region either.  The O heights of all
    structures are sorted at once; the extremes and widest gaps are
    reductions over their runs.
    """
    z = batch.positions[:, 2]
    o = np.flatnonzero(batch.kind == _O)
    o = o[np.lexsort((z[o], batch.cell_of[o]))]
    z_o, cell_o = z[o], batch.cell_of[o]
    ends = np.searchsorted(cell_o, np.arange(batch.count + 1))
    has_o = ends[1:] > ends[:-1]
    lowest, highest = np.zeros(batch.count), np.zeros(batch.count)
    lowest[has_o], highest[has_o] = z_o[ends[:-1][has_o]], z_o[ends[1:][has_o] - 1]
    # Heights about 1e308 apart overflow a gap to an infinity of its sign.
    with np.errstate(over="ignore"):
        gap = np.diff(z_o, append=-np.inf)
        across = lowest + batch.lengths[:, 2] - highest
    gap[ends[1:][has_o] - 1] = -np.inf  # the step to the next structure's lowest O
    widest = batch.runs(np.maximum, gap, cell_o, -np.inf)
    straddles = batch.pbc[:, 2] & (widest > across)
    z_lo, z_hi = lowest - _OXIDE_PADDING, highest + _OXIDE_PADDING
    located = has_o & ~straddles & (z_lo < z_hi)
    messages: list[str | None] = [None] * batch.count
    for c in np.flatnonzero(~located).tolist():
        if not has_o[c]:
            messages[c] = "structure contains no O atoms; cannot locate an oxide region"
        elif straddles[c]:
            messages[c] = (
                f"O atoms straddle the periodic z boundary: a {widest[c]:.6g} A gap between "
                f"O heights is wider than the {across[c]:.6g} A gap across the boundary"
            )
        else:
            messages[c] = f"empty z-interval [{float(z_lo[c])}, {float(z_hi[c])}]"
    z_lo[~located], z_hi[~located] = np.inf, -np.inf
    inside = (z >= z_lo[batch.cell_of]) & (z <= z_hi[batch.cell_of])
    census = np.bincount(batch.cell_of[inside] * 3 + batch.kind[inside], minlength=3 * batch.count)
    return messages, census.reshape(-1, 3), inside


def stoichiometry(census: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, h_at%) per row of an (n, 3) Al/O/H census, with x = N_O / N_Al
    and at.% counting H in the denominator."""
    n_al, n_o, n_h = np.asarray(census).T
    if (n_al < 1).any():
        raise ValueError(NO_AL_MESSAGE)
    return n_o / n_al, 100.0 * n_h / (n_al + n_o + n_h)


def surface_mask(
    batch: StructureBatch, members: np.ndarray, depth: float = 2.0, bin_width: float = 4.0
) -> np.ndarray:
    """Mask of the oxide atoms (`members`, a mask over the batch atoms) within
    `depth` of their lateral cell's local top surface.

    Each structure's xy plane is gridded into bin_width x bin_width cells;
    each cell's surface height is the max z of its oxide members, and a
    member is a surface site iff z >= height - depth.  The lateral cells of
    all structures are grouped in one sort.
    """
    if not depth > 0:
        raise ValueError(f"depth must be positive, got {depth}")
    if not bin_width > 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    idx = np.flatnonzero(members)
    cell, pos = batch.cell_of[idx], batch.positions[idx]
    keys = [cell]
    for axis in range(2):
        coords, span, wrap = pos[:, axis], batch.lengths[:, axis].copy(), batch.pbc[cell, axis]
        if wrap.all():
            wrapped = np.mod(coords, span[cell])
        else:
            # A non-periodic axis spans its members, from the lowest.
            bounded = ~batch.pbc[:, axis]
            lo = np.where(bounded, batch.runs(np.minimum, coords, cell, 0.0), 0.0)
            span[bounded] = batch.runs(np.maximum, coords, cell, 0.0)[bounded] - lo[bounded]
            wrapped = coords - lo[cell]
            wrapped[wrap] = np.mod(coords[wrap], span[cell[wrap]])
        nbins = np.where(span > 0, np.maximum(1.0, np.ceil(span / bin_width)), 1.0)
        # wrapped >= 0, so the floor is what an int cast truncates to.
        keys.append(np.minimum(np.floor(wrapped / bin_width), nbins[cell] - 1))
    order = np.lexsort(keys[::-1])
    keys = np.array([k[order] for k in keys])
    starts = np.flatnonzero(np.any(np.diff(keys, axis=1, prepend=-1), axis=0))
    z = pos[order, 2]
    heights = np.repeat(np.maximum.reduceat(z, starts), np.diff(starts, append=len(z)))
    mask = np.zeros(len(batch), dtype=bool)
    mask[idx[order[z >= heights - depth]]] = True
    return mask


def effective_time(n_sim: float, n_ref: float, t_sim: float) -> float:
    """Effective exposure time t_sim * n_sim / n_ref (same unit as t_sim).

    A simulation loaded with n_sim gas molecules where the reference pressure
    corresponds to n_ref molecules in the same volume runs effectively
    n_sim / n_ref times longer than its wall-clock trajectory.
    """
    if not n_ref > 0:
        raise ValueError(f"reference molecule count must be positive, got {n_ref}")
    return t_sim * n_sim / n_ref
