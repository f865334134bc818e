"""Shared fixture builders: molecules, oxide slabs, structure directories, XYZ text."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from jjvar.structure import (
    SPECIES,
    AtomicStructure,
    BondGraph,
    CellList,
    StructureBatch,
    oxide_regions,
    surface_mask,
)

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run repeats exactly.
settings.register_profile("jjvar", derandomize=True, database=None)
settings.load_profile("jjvar")


def to_xyz(structure: AtomicStructure, comment: str = "") -> str:
    """Extended-XYZ serialization; inverse of parse_xyz for periodic cells."""
    parts = [str(len(structure))]
    lattice = " ".join(f"{x:.10f}" for x in structure.cell.reshape(-1))
    tags = []
    if any(structure.pbc):
        tags.append(f'Lattice="{lattice}"')
    if comment:
        tags.append(comment)
    parts.append(" ".join(tags))
    for s, p in zip(structure.species, structure.positions):
        parts.append(f"{s} {p[0]:.10f} {p[1]:.10f} {p[2]:.10f}")
    return "\n".join(parts) + "\n"


def indices_of(structure: AtomicStructure, species: str) -> np.ndarray:
    """Ascending indices of the atoms of `species`."""
    return np.flatnonzero(np.array(structure.species, dtype=str) == species)


def full_graph(structure: AtomicStructure, cutoffs=None) -> BondGraph:
    """The bond graph of one structure with every atom as a centre, so every
    row is held."""
    return CellList(StructureBatch([structure]), cutoffs).graph(np.arange(len(structure)))


def neighbors(graph: BondGraph, i: int, species: str | None = None) -> list[tuple[int, float]]:
    """(index, distance) pairs of atom i's bonds, by ascending index; only
    bonds to `species` when it is given."""
    lo, hi = graph.indptr[i], graph.indptr[i + 1]
    pairs = zip(graph.indices[lo:hi].tolist(), graph.distances[lo:hi].tolist())
    return [(j, d) for j, d in pairs if species is None or SPECIES[graph.atoms.kind[j]] == species]


def sites_of(structure: AtomicStructure, depth=2.0, bin_width=4.0) -> frozenset[int]:
    """The surface sites among the oxide members of one structure."""
    batch = StructureBatch([structure])
    mask = surface_mask(batch, oxide_regions(batch)[2], depth, bin_width)
    return frozenset(np.flatnonzero(mask).tolist())


def make_molecule(species, positions):
    """Non-periodic structure in a padded box."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    extent = pos.max(axis=0) - pos.min(axis=0)
    return AtomicStructure(
        cell=np.diag(extent + 20.0),
        pbc=(False, False, False),
        species=tuple(species),
        positions=pos,
    )


def nine_motif_fixtures():
    """One hand-built geometry per motif class: (label, structure, h indices)."""
    fixtures = []

    def add(label, species, positions, h_indices):
        fixtures.append((label, make_molecule(species, positions), h_indices))

    add("Al-OH", ["O", "H", "Al"], [(0, 0, 0), (0.97, 0, 0), (-1.8, 0, 0)], [1])
    add(
        "Al-OH-Al",
        ["O", "H", "Al", "Al"],
        [(0, 0, 0), (0, 0, 0.97), (1.9, 0, -0.3), (-1.9, 0, -0.3)],
        [1],
    )
    add(
        "Al-H2O",
        ["O", "H", "H", "Al"],
        [(0, 0, 0), (0.77, 0, 0.59), (-0.77, 0, 0.59), (0, 0, -2.0)],
        [1, 2],
    )
    add(
        "Al-O2-H",
        ["O", "H", "O", "Al"],
        [(0, 0, 0), (0, 0, 0.97), (1.4, 0, 0), (3.3, 0, 0)],
        [1],
    )
    add("Al-H", ["Al", "H"], [(0, 0, 0), (1.7, 0, 0)], [1])
    add("Al-H-Al", ["Al", "H", "Al"], [(-1.7, 0, 0), (0, 0, 0), (1.7, 0, 0)], [1])
    add("Al-H-O", ["Al", "H", "O"], [(-1.7, 0, 0), (0, 0, 0), (1.5, 0, 0)], [1])
    add("interstitial", ["H", "Al", "O"], [(0, 0, 0), (5, 0, 0), (0, 5, 0)], [0])
    add(
        "Al-O-H-O-Al",
        ["H", "O", "O", "Al", "Al"],
        [(0, 0, 0), (1.1, 0, 0), (-1.1, 0, 0), (3.0, 0, 0), (-3.0, 0, 0)],
        [0],
    )
    return fixtures


def make_oxide_slab(n_h=2, lateral=3, spacing=2.8, jitter=0.0, seed=0):
    """Periodic slab: Al base, Al/O oxide bilayer, n_h hydroxyl H inside the region.

    Geometry puts every H below the top O plane so the hydrogens count as
    oxide members, and each upper O sits on exactly one oxide Al (Al-OH).
    """
    rng = np.random.default_rng(seed)
    species = []
    positions = []
    for i in range(lateral):
        for j in range(lateral):
            x, y = i * spacing, j * spacing
            species.append("Al")
            positions.append((x, y, 0.0))  # metal base, below the oxide region
            species.append("Al")
            positions.append((x + 1.4, y, 2.2))
            species.append("O")
            positions.append((x, y, 1.6))
            species.append("O")
            positions.append((x + 1.4, y, 3.0))
    upper_o = [k for k, (s, p) in enumerate(zip(species, positions)) if s == "O" and p[2] == 3.0]
    if n_h > len(upper_o):
        raise ValueError("more H than upper O sites")
    for k in range(n_h):
        x, y, _ = positions[upper_o[k]]
        species.append("H")
        positions.append((x + 0.95, y, 2.9))
    pos = np.asarray(positions, dtype=float)
    if jitter:
        pos = pos + rng.uniform(-jitter, jitter, size=pos.shape)
    cell = np.diag([lateral * spacing, lateral * spacing, 20.0])
    return AtomicStructure(cell=cell, pbc=(True, True, True), species=tuple(species), positions=pos)


def write_structure_dir(tmp_path: Path, h_counts=(1, 2, 3), corrupt=0) -> Path:
    """Directory of slab fixtures with the given per-sample H counts."""
    directory = tmp_path / "structures"
    directory.mkdir(exist_ok=True)
    for idx, n_h in enumerate(h_counts):
        s = make_oxide_slab(n_h=n_h, seed=idx)
        (directory / f"sample_{idx:03d}.xyz").write_text(to_xyz(s))
    for idx in range(corrupt):
        (directory / f"corrupt_{idx:03d}.xyz").write_text("5\ncomment\nAl 0 0 0\nO 1 1 1\n")
    return directory


@pytest.fixture
def slab_dir(tmp_path):
    return write_structure_dir(tmp_path, h_counts=(1, 2, 3))
