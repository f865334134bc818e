"""Hydrogen bonding-motif classification and ensemble statistics.

Every H atom is assigned exactly one of nine motif classes from its bond
graph, with a fixed precedence so ambiguous multi-bond geometries resolve
deterministically:

  1. H bonded to >= 2 O, each O bonded to >= 1 Al       -> Al-O-H-O-Al
  2. H bonded to exactly one O:
       the O has another H and >= 1 Al                  -> Al-H2O
       the O has an O neighbor whose chain reaches Al   -> Al-O2-H
       the O has exactly 1 Al                           -> Al-OH
       the O has >= 2 Al (coarse-grained)               -> Al-OH-Al
  3. H bonded to no O:
       >= 1 Al and an O within the Al-H cutoff          -> Al-H-O
       exactly 1 Al                                     -> Al-H
       >= 2 Al (coarse-grained)                         -> Al-H-Al
  4. nothing within any cutoff                          -> interstitial

Geometries the taxonomy does not name fall back to the nearest class so the
classification stays total: a hydroxyl/water with no Al in reach keeps its
O-derived label (Al-OH / Al-H2O / Al-O2-H), an H with neither an O nor an Al
bond is interstitial even when an O lies within the Al-H cutoff.

A motif is a surface motif when the H or one of its host O atoms is a
surface site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .structure import (
    AtomicStructure,
    BondGraph,
    CellList,
    OxideRegion,
    oxide_region,
    surface_sites,
)

__all__ = [
    "MOTIF_CLASSES",
    "MotifEnsembleStats",
    "MotifRecord",
    "classify_h",
    "classify_structure",
    "motif_statistics",
]

MOTIF_CLASSES = (
    "Al-OH",
    "Al-OH-Al",
    "Al-H2O",
    "Al-O2-H",
    "Al-H",
    "Al-H-Al",
    "Al-H-O",
    "interstitial",
    "Al-O-H-O-Al",
)

# Canonical (n_O, n_Al) host arity per class; host lists are truncated to the
# nearest atoms when coordination exceeds it.
_ARITY = {
    "Al-OH": (1, 1),
    "Al-OH-Al": (1, 2),
    "Al-H2O": (1, 1),
    "Al-O2-H": (2, 1),
    "Al-H": (0, 1),
    "Al-H-Al": (0, 2),
    "Al-H-O": (1, 1),
    "interstitial": (0, 0),
    "Al-O-H-O-Al": (2, 2),
}


@dataclass(frozen=True)
class MotifRecord:
    """Classification of one hydrogen atom."""

    h_index: int
    label: str
    host_o: tuple[int, ...]
    host_al: tuple[int, ...]
    surface: bool

    def __post_init__(self) -> None:
        if self.label not in MOTIF_CLASSES:
            raise ValueError(f"unknown motif class {self.label!r}")
        max_o, max_al = _ARITY[self.label]
        if len(self.host_o) > max_o or len(self.host_al) > max_al:
            raise ValueError(
                f"{self.label} hosts exceed class arity {(_ARITY[self.label])}: "
                f"{len(self.host_o)} O, {len(self.host_al)} Al"
            )


def _by_distance(pairs: list[tuple[int, float]]) -> list[int]:
    return [j for j, _ in sorted(pairs, key=lambda p: (p[1], p[0]))]


def _chain_reaches_al(graph: BondGraph, start_o: int) -> tuple[bool, int | None, int | None]:
    """Walk O-O bonds outward from start_o; report the first O with an Al host."""
    seen = {start_o}
    frontier = _by_distance(graph.neighbors_of_species(start_o, "O"))
    while frontier:
        o = frontier.pop(0)
        if o in seen:
            continue
        seen.add(o)
        als = _by_distance(graph.neighbors_of_species(o, "Al"))
        if als:
            return True, o, als[0]
        frontier.extend(j for j in _by_distance(graph.neighbors_of_species(o, "O")) if j not in seen)
    return False, None, None


def classify_h(
    structure: AtomicStructure,
    graph: BondGraph,
    h: int,
    *,
    surface: frozenset[int] | None = None,
) -> MotifRecord:
    """Classify hydrogen atom `h` from the bonds of H and O atoms in `graph`.

    An Al-bonded H with no O bond is Al-H-O when an O lies within the graph's
    Al-H cutoff of it; that O is `graph.bridge_o[h]`, which the bond query
    picks from the same candidate pairs as the H atom's bonds.
    """
    if structure.species[h] != "H":
        raise ValueError(f"atom {h} is {structure.species[h]}, not H")

    o_bonded = graph.neighbors_of_species(h, "O")
    al_bonded = graph.neighbors_of_species(h, "Al")

    label: str
    host_o: list[int] = []
    host_al: list[int] = []

    if len(o_bonded) >= 2:
        per_o_al = {o: _by_distance(graph.neighbors_of_species(o, "Al")) for o, _ in o_bonded}
        if all(per_o_al[o] for o, _ in o_bonded):
            label = "Al-O-H-O-Al"
            host_o = _by_distance(o_bonded)[:2]
            for o in host_o:
                al = next((a for a in per_o_al[o] if a not in host_al), None)
                if al is not None:
                    host_al.append(al)
            return _record(h, label, host_o, host_al, surface)
        # Not every O is Al-anchored: treat the nearest O as the host hydroxyl.
        o_bonded = [min(o_bonded, key=lambda p: (p[1], p[0]))]

    if len(o_bonded) == 1:
        o = o_bonded[0][0]
        other_h = [j for j, _ in graph.neighbors_of_species(o, "H") if j != h]
        o_al = _by_distance(graph.neighbors_of_species(o, "Al"))
        o_o = _by_distance(graph.neighbors_of_species(o, "O"))
        reaches, chain_o, chain_al = _chain_reaches_al(graph, o)
        if other_h and o_al:
            label, host_o, host_al = "Al-H2O", [o], o_al[:1]
        elif o_o and reaches:
            label, host_o, host_al = "Al-O2-H", [o, chain_o], [chain_al]
        elif len(o_al) == 1:
            label, host_o, host_al = "Al-OH", [o], o_al[:1]
        elif len(o_al) >= 2:
            label, host_o, host_al = "Al-OH-Al", [o], o_al[:2]
        elif other_h:
            label, host_o = "Al-H2O", [o]
        elif o_o:
            label, host_o = "Al-O2-H", [o, o_o[0]]
        else:
            label, host_o = "Al-OH", [o]
        return _record(h, label, host_o, host_al, surface)

    # No covalently bonded O: hydride-like branches.  Only an H with an Al
    # bond has an O partner: the nearest O (lowest index on ties) if it lies
    # within the Al-H cutoff.
    if not al_bonded:
        return _record(h, "interstitial", [], [], surface)
    host_al = _by_distance(al_bonded)
    partner = graph.bridge_o.get(h)
    if partner is not None:
        return _record(h, "Al-H-O", [partner], host_al[:1], surface)
    label = "Al-H" if len(host_al) == 1 else "Al-H-Al"
    return _record(h, label, [], host_al[:2], surface)


def _record(
    h: int,
    label: str,
    host_o: list[int],
    host_al: list[int],
    surface: frozenset[int] | None,
) -> MotifRecord:
    flagged = False
    if surface is not None:
        flagged = h in surface or any(o in surface for o in host_o)
    return MotifRecord(
        h_index=h,
        label=label,
        host_o=tuple(host_o),
        host_al=tuple(host_al),
        surface=flagged,
    )


def classify_structure(
    structure: AtomicStructure,
    graph: BondGraph | None = None,
    *,
    cutoffs: Mapping | None = None,
    region: OxideRegion | None = None,
    surface_depth: float = 2.0,
    surface_bin: float = 4.0,
) -> list[MotifRecord]:
    """Classify every H atom, with surface flags from the oxide top surface.

    Without a `graph`, bonds are made only for the rows `classify_h` reads:
    a `CellList` query (at the default cutoffs, overridden by `cutoffs`) on
    the H atoms, then on the O atoms their rows bond to and on the O-O
    frontier until it is empty.  Each of those rows, and `bridge_o`, equals
    its value in `neighbor_graph`, so the records do too.

    `region` is the structure's oxide region if the caller has it; otherwise
    it is located here.  A structure whose oxide cannot be located (no O
    atoms, or O straddling the periodic z boundary) gets no surface detection
    (all flags False), so every H is still classified.
    """
    if graph is None:
        graph = CellList(structure, cutoffs).graph(structure.indices_of("H"))
    if region is None:
        try:
            region = oxide_region(structure)
        except ValueError:
            pass
    surface: frozenset[int] | None = None
    if region is not None:
        surface = surface_sites(structure, region, depth=surface_depth, bin_width=surface_bin)
    return [
        classify_h(structure, graph, int(h), surface=surface)
        for h in structure.indices_of("H")
    ]


@dataclass(frozen=True)
class MotifEnsembleStats:
    """Per-class percentage mean/std over samples plus pooled surface probabilities."""

    mean_pct: dict[str, float]
    std_pct: dict[str, float]
    surface_prob: dict[str, float | None]
    samples: int
    samples_with_h: int

    def table(self) -> dict[str, dict]:
        return {
            label: {
                "mean_pct": self.mean_pct[label],
                "std_pct": self.std_pct[label],
                "surface_prob": self.surface_prob[label],
            }
            for label in MOTIF_CLASSES
        }


def motif_statistics(per_sample_records: list[list[MotifRecord]]) -> MotifEnsembleStats:
    """Aggregate motif records over an ensemble of samples.

    Percentages are per sample (summing to 100) and averaged with the
    population std convention; samples with zero H are excluded from the
    percentage average.  Surface probabilities pool counts over all samples.
    """
    if not per_sample_records:
        raise ValueError("need at least one sample")

    rows = []
    class_total = dict.fromkeys(MOTIF_CLASSES, 0)
    class_surface = dict.fromkeys(MOTIF_CLASSES, 0)
    for records in per_sample_records:
        for rec in records:
            class_total[rec.label] += 1
            class_surface[rec.label] += int(rec.surface)
        if records:
            counts = np.array([sum(r.label == c for r in records) for c in MOTIF_CLASSES], float)
            rows.append(100.0 * counts / counts.sum())

    if rows:
        pct = np.vstack(rows)
        mean = pct.mean(axis=0)
        std = pct.std(axis=0)
    else:
        mean = np.full(len(MOTIF_CLASSES), np.nan)
        std = np.full(len(MOTIF_CLASSES), np.nan)

    surface_prob: dict[str, float | None] = {}
    for label in MOTIF_CLASSES:
        total = class_total[label]
        surface_prob[label] = (class_surface[label] / total) if total else None

    return MotifEnsembleStats(
        mean_pct={c: float(m) for c, m in zip(MOTIF_CLASSES, mean)},
        std_pct={c: float(s) for c, s in zip(MOTIF_CLASSES, std)},
        surface_prob=surface_prob,
        samples=len(per_sample_records),
        samples_with_h=len(rows),
    )
