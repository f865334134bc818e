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

`classify_batch` classifies every H atom of a batch of structures and flags
a motif as a surface motif when the H or one of its host O atoms is a
surface site; `classify_h` is its per-H route, and the reference the array
classification is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .structure import SPECIES, AtomicStructure, BondGraph, CellList, StructureBatch, surface_mask

__all__ = [
    "MOTIF_CLASSES",
    "MotifEnsembleStats",
    "MotifRecord",
    "classify_batch",
    "classify_h",
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

# Host O atoms per class, at most; the host list keeps the nearest O atoms
# when more are bonded.
_ARITY = {
    "Al-OH": 1,
    "Al-OH-Al": 1,
    "Al-H2O": 1,
    "Al-O2-H": 2,
    "Al-H": 0,
    "Al-H-Al": 0,
    "Al-H-O": 1,
    "interstitial": 0,
    "Al-O-H-O-Al": 2,
}

_LABEL = {label: k for k, label in enumerate(MOTIF_CLASSES)}
_AL, _O, _H = (SPECIES.index(s) for s in ("Al", "O", "H"))


@dataclass(frozen=True, slots=True)
class MotifRecord:
    """Classification of one hydrogen atom."""

    h_index: int
    label: str
    host_o: tuple[int, ...]
    surface: bool

    def __post_init__(self) -> None:
        if self.label not in MOTIF_CLASSES:
            raise ValueError(f"unknown motif class {self.label!r}")
        if len(self.host_o) > _ARITY[self.label]:
            raise ValueError(
                f"{self.label} has at most {_ARITY[self.label]} host O, got {len(self.host_o)}"
            )


def _by_distance(pairs: list[tuple[int, float]]) -> list[int]:
    return [j for j, _ in sorted(pairs, key=lambda p: (p[1], p[0]))]


def _chain_reaches_al(graph: BondGraph, start_o: int) -> int | None:
    """Walk O-O bonds outward from start_o; the first O with an Al host, or None."""
    seen = {start_o}
    frontier = _by_distance(graph.neighbors_of_species(start_o, "O"))
    while frontier:
        o = frontier.pop(0)
        if o in seen:
            continue
        seen.add(o)
        if graph.neighbors_of_species(o, "Al"):
            return o
        frontier.extend(j for j in _by_distance(graph.neighbors_of_species(o, "O")) if j not in seen)
    return None


def classify_h(structure: AtomicStructure | StructureBatch, graph: BondGraph, h: int) -> MotifRecord:
    """Classify hydrogen atom `h` from the bonds of H and O atoms in `graph`.

    An Al-bonded H with no O bond is Al-H-O when an O lies within the graph's
    Al-H cutoff of it; that O is `graph.bridge_o[h]`, which the bond query
    picks from the same candidate pairs as the H atom's bonds.  The record
    is not flagged as a surface motif; `classify_batch` sets that flag.
    """
    if structure.species[h] != "H":
        raise ValueError(f"atom {h} is {structure.species[h]}, not H")

    o_bonded = graph.neighbors_of_species(h, "O")

    if len(o_bonded) >= 2:
        if all(graph.neighbors_of_species(o, "Al") for o, _ in o_bonded):
            return _record(h, "Al-O-H-O-Al", _by_distance(o_bonded)[:2])
        # Not every O is Al-anchored: treat the nearest O as the host hydroxyl.
        o_bonded = [min(o_bonded, key=lambda p: (p[1], p[0]))]

    if len(o_bonded) == 1:
        o = o_bonded[0][0]
        other_h = any(j != h for j, _ in graph.neighbors_of_species(o, "H"))
        n_al = len(graph.neighbors_of_species(o, "Al"))
        o_o = _by_distance(graph.neighbors_of_species(o, "O"))
        chain_o = _chain_reaches_al(graph, o)
        if other_h and n_al:
            label, host_o = "Al-H2O", [o]
        elif chain_o is not None:
            label, host_o = "Al-O2-H", [o, chain_o]
        elif n_al == 1:
            label, host_o = "Al-OH", [o]
        elif n_al >= 2:
            label, host_o = "Al-OH-Al", [o]
        elif other_h:
            label, host_o = "Al-H2O", [o]
        elif o_o:
            label, host_o = "Al-O2-H", [o, o_o[0]]
        else:
            label, host_o = "Al-OH", [o]
        return _record(h, label, host_o)

    # No covalently bonded O: hydride-like branches.  Only an H with an Al
    # bond has an O partner: the nearest O (lowest index on ties) if it lies
    # within the Al-H cutoff.
    n_al = len(graph.neighbors_of_species(h, "Al"))
    if not n_al:
        return _record(h, "interstitial", [])
    partner = graph.bridge_o.get(h)
    if partner is not None:
        return _record(h, "Al-H-O", [partner])
    return _record(h, "Al-H" if n_al == 1 else "Al-H-Al", [])


def _record(h: int, label: str, host_o: list[int]) -> MotifRecord:
    return MotifRecord(h, label, tuple(host_o), surface=False)


def classify_batch(
    batch: StructureBatch,
    *,
    cutoffs: Mapping | None = None,
    members: np.ndarray | None = None,
    surface_depth: float = 2.0,
    surface_bin: float = 4.0,
) -> list[list[MotifRecord] | str]:
    """Per structure of `batch`, the records of its H atoms (indices local to
    the structure), or the message of the bond-query error that rejects it.

    Bonds are made only for the rows `classify_h` reads: one `CellList`
    query over the batch (at the default cutoffs, overridden by `cutoffs`)
    on the H atoms of every structure that can be bonded, then on the O
    atoms their rows bond to and on the O-O frontier until it is empty.
    Each of those rows, and `bridge_o`, equals its value in the graph with
    every atom as a centre, so the records do too.  Surface sites among
    `members` (a mask of oxide members, as `oxide_regions` gives) flag
    motifs; without `members` no motif is flagged.

    The classes follow `classify_h`'s precedence, decided with array
    operations on the CSR rows for all H at once.  An H bonded to two or
    more O, or whose one O has an O neighbour and is no water O, goes
    through `classify_h`, which walks the O-O chain.
    """
    index = CellList(batch, cutoffs)
    h = np.flatnonzero(batch.kind == _H)
    h = h[np.array([e is None for e in index.errors], dtype=bool)[batch.cell_of[h]]]
    graph = index.graph(h)
    surface = np.zeros(len(batch), dtype=bool)
    if members is not None:
        surface = surface_mask(batch, members, depth=surface_depth, bin_width=surface_bin)
    kind, col = batch.kind, graph.indices
    row = np.repeat(np.arange(len(kind)), np.diff(graph.indptr))
    # Per row: bonds per species and an O (the O of a row with exactly one).
    # Slot -1 is spare, so a -1 index reads "none".
    bonds = np.bincount(row * 3 + kind[col], minlength=3 * len(kind) + 3).reshape(-1, 3)
    o_of = np.full(len(kind) + 1, -1)
    o = np.flatnonzero(kind[col] == _O)
    o_of[row[o]] = col[o]

    n_o, n_al = bonds[h, _O], bonds[h, _AL]
    o = np.where(n_o == 1, o_of[h], -1)
    water = (bonds[o, _H] >= 2) & (bonds[o, _AL] >= 1)
    hydroxyl = (n_o == 1) & ~water & (bonds[o, _O] == 0)
    routed = (n_o >= 2) | ((n_o == 1) & ~water & ~hydroxyl)
    hydride = (n_o == 0) & (n_al > 0)
    partner = np.full(h.size, -1)
    partner[hydride] = [graph.bridge_o.get(i, -1) for i in h[hydride].tolist()]
    o_al, o_h = bonds[o, _AL], bonds[o, _H]
    label = np.select(
        [water, hydroxyl & (o_al == 1), hydroxyl & (o_al >= 2), hydroxyl & (o_h >= 2), hydroxyl]
        + [hydride & (partner >= 0), hydride & (n_al == 1), hydride],
        [
            _LABEL[c]
            for c in ("Al-H2O", "Al-OH", "Al-OH-Al", "Al-H2O", "Al-OH", "Al-H-O", "Al-H", "Al-H-Al")
        ],
        _LABEL["interstitial"],
    )
    host_o = np.where(water | hydroxyl, o, partner)
    flagged = surface[h] | ((host_o >= 0) & surface[host_o])
    # In local indices, -1 for none; a routed H gets its hosts from classify_h.
    base = batch.offsets[batch.cell_of[h]]
    host_o = np.where((host_o >= 0) & ~routed, host_o - base, -1).tolist()
    local_h, label, flagged = (h - base).tolist(), label.tolist(), flagged.tolist()
    records = [
        MotifRecord(i, MOTIF_CLASSES[c], (ho,) if ho >= 0 else (), f)
        for i, c, ho, f in zip(local_h, label, host_o, flagged)
    ]
    for k in np.flatnonzero(routed).tolist():
        i, b = int(h[k]), int(base[k])
        rec = classify_h(batch, graph, i)
        flag = bool(surface[i] or surface[list(rec.host_o)].any())
        records[k] = MotifRecord(i - b, rec.label, tuple(j - b for j in rec.host_o), flag)
    records = iter(records)
    held = np.bincount(batch.cell_of[h], minlength=batch.count).tolist()
    return [error or list(itertools.islice(records, n)) for error, n in zip(index.errors, held)]


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
