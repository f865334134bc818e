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

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .structure import (
    SPECIES,
    AtomicStructure,
    BondGraph,
    CellList,
    ConfigurationError,
    StructureBatch,
    oxide_regions,
    surface_mask,
)

__all__ = [
    "MOTIF_CLASSES",
    "MotifEnsembleStats",
    "MotifRecord",
    "classify_batch",
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

_LABEL = {label: k for k, label in enumerate(MOTIF_CLASSES)}
_AL, _O, _H = (SPECIES.index(s) for s in ("Al", "O", "H"))


@dataclass(frozen=True, slots=True)
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
    structure: AtomicStructure, graph: BondGraph | None = None, *, cutoffs: Mapping | None = None
) -> list[MotifRecord]:
    """`classify_batch` on a batch of one, with surface flags from the oxide
    region located here; a structure without one gets no surface flags.
    Raises ConfigurationError when the structure cannot be bonded."""
    batch = StructureBatch([structure])
    (records,) = classify_batch(batch, graph, cutoffs=cutoffs, members=oxide_regions(batch)[1])
    if isinstance(records, str):
        raise ConfigurationError(records)
    return records


def classify_batch(
    batch: StructureBatch,
    graph: BondGraph | None = None,
    *,
    cutoffs: Mapping | None = None,
    members: np.ndarray | None = None,
    surface_depth: float = 2.0,
    surface_bin: float = 4.0,
) -> list[list[MotifRecord] | str]:
    """Per structure of `batch`, the records of its H atoms (indices local to
    the structure), or the message of the bond-query error that rejects it.

    Without a `graph`, bonds are made only for the rows `classify_h` reads:
    one `CellList` query over the batch (at the default cutoffs, overridden
    by `cutoffs`) on the H atoms of every structure that can be bonded, then
    on the O atoms their rows bond to and on the O-O frontier until it is
    empty.  Each of those rows, and `bridge_o`, equals its value in
    `neighbor_graph`, so the records do too.  Surface sites among `members`
    (a mask of oxide members, as `oxide_regions` gives) flag motifs.

    The classes follow `classify_h`'s precedence, decided with array
    operations on the CSR rows for all H at once.  An H bonded to two or
    more O, or whose one O has an O neighbour and is no water O, goes
    through `classify_h`, which walks the O-O chain.
    """
    errors, h = [None] * batch.count, np.flatnonzero(batch.kind == _H)
    if graph is None:
        index = CellList(batch, cutoffs)
        errors = index.errors
        h = h[np.array([e is None for e in errors], dtype=bool)[batch.cell_of[h]]]
        graph = index.graph(h)
    surface = np.zeros(len(batch), dtype=bool)
    if members is not None:
        surface = surface_mask(batch, members, depth=surface_depth, bin_width=surface_bin)
    kind, col = batch.kind, graph.indices
    row = np.repeat(np.arange(len(kind)), np.diff(graph.indptr))
    # Per row: bonds per species, the nearest and next-nearest Al by
    # (distance, index), and an O (the O of a row with exactly one).  Slot -1
    # is spare, so a -1 index reads "none".
    bonds = np.bincount(row * 3 + kind[col], minlength=3 * len(kind) + 3).reshape(-1, 3)
    al = np.flatnonzero(kind[col] == _AL)
    al = al[np.lexsort((col[al], graph.distances[al], row[al]))]
    lead = np.diff(row[al], prepend=-1) != 0
    runner_up = ~lead & np.append(False, lead[:-1])
    al1, al2, o_of = np.full((3, len(kind) + 1), -1)
    al1[row[al][lead]], al2[row[al][runner_up]] = col[al][lead], col[al][runner_up]
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
    single = water | hydroxyl
    host_o = np.where(single, o, partner)
    flagged = surface[h] | ((host_o >= 0) & surface[host_o])
    second_al = np.where(hydroxyl, al2[o], np.where(hydride & (partner < 0), al2[h], -1))
    hosts = (host_o, np.where(single, al1[o], al1[h]), second_al)
    # In local indices, -1 for none; a routed H gets its hosts from classify_h.
    base = batch.offsets[batch.cell_of[h]]
    host_o, al_a, al_b = (np.where((x >= 0) & ~routed, x - base, -1).tolist() for x in hosts)
    local_h, label, flagged = (h - base).tolist(), label.tolist(), flagged.tolist()
    records = [
        MotifRecord(
            i,
            MOTIF_CLASSES[c],
            (ho,) if ho >= 0 else (),
            (a, b) if b >= 0 else (a,) if a >= 0 else (),
            f,
        )
        for i, c, ho, a, b, f in zip(local_h, label, host_o, al_a, al_b, flagged)
    ]
    for k in np.flatnonzero(routed).tolist():
        i, b = int(h[k]), int(base[k])
        rec = classify_h(batch, graph, i)
        flag = bool(surface[i] or surface[list(rec.host_o)].any())
        ho, ha = (tuple(j - b for j in ids) for ids in (rec.host_o, rec.host_al))
        records[k] = MotifRecord(i - b, rec.label, ho, ha, flag)
    records = iter(records)
    held = np.bincount(batch.cell_of[h], minlength=batch.count).tolist()
    return [error or list(itertools.islice(records, n)) for error, n in zip(errors, held)]


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
