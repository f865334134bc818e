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
O-derived label (Al-OH / Al-H2O / Al-O2-H), an H bonded to two or more O
not all bonded to Al is classed by its nearest O alone, and an H with
neither an O nor an Al bond is interstitial even when an O lies within the
Al-H cutoff.  Host O lists keep the nearest O atoms (lowest index on ties).

`classify_batch` is the one classifier.  It decides the class of every H
atom of a batch of structures with array operations on the bond graph's CSR
rows, the O-O chain walk included, flags a motif as a surface motif when the
H or one of its host O atoms is a surface site, and returns the batch's H as
the rows of one `MotifTable`, beside the bond-query error of each structure;
the `structure` column tells whose rows they are, so a caller selects rows
with a mask over it rather than a table per structure.  `motif_statistics`
counts the classes of those rows per sample with one `np.bincount` and
returns the `motif_table.json` payload.

The chain walk of an Al-O2-H is breadth-first, level by level: each level is
the O bonds of the level before, ordered by the parent's place in its level,
then by distance, then by index; an O counts at its first place only, and
not at all if it is the hydroxyl O or was in an earlier level.  The chain O
is the first O in that order with an Al bond.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from .structure import SPECIES, BondGraph, CellList, StructureBatch, surface_mask

__all__ = [
    "MOTIF_CLASSES",
    "MotifTable",
    "classify_batch",
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

_LABEL = {label: k for k, label in enumerate(MOTIF_CLASSES)}
_AL, _O, _H = (SPECIES.index(s) for s in ("Al", "O", "H"))


class MotifTable(NamedTuple):
    """The classified H atoms of a batch as columns, one row per H in batch
    order; a structure the bond query rejects has no rows.

    `structure` is the structure's place in the batch and `h_index` the H
    atom's index in its structure; `label` indexes MOTIF_CLASSES; `host_o`
    holds the (at most two) host O of each H, nearest first, as indices in
    its structure padded with -1; `surface` flags surface motifs."""

    structure: np.ndarray
    h_index: np.ndarray
    label: np.ndarray
    host_o: np.ndarray
    surface: np.ndarray


def _o_bonds(graph: BondGraph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The O bonds of the atoms `rows` as (entry, O), entry k standing for
    rows[k], ordered by entry, then distance, then index."""
    start = graph.indptr[rows]
    size = graph.indptr[rows + 1] - start
    entry = np.repeat(np.arange(len(rows)), size)
    slot = np.arange(size.sum()) + np.repeat(start - (np.cumsum(size) - size), size)
    o = graph.atoms.kind[graph.indices[slot]] == _O
    entry, slot = entry[o], slot[o]
    order = np.lexsort((graph.indices[slot], graph.distances[slot], entry))
    return entry[order], graph.indices[slot[order]]


def _nearest_o(graph: BondGraph, rows: np.ndarray, k: int) -> np.ndarray:
    """The k nearest O bonded to each atom of `rows` (lowest index on ties),
    one row each, padded with -1."""
    entry, o = _o_bonds(graph, rows)
    place = np.arange(len(entry)) - np.searchsorted(entry, entry)
    out = np.full((len(rows), k), -1)
    out[entry[place < k], place[place < k]] = o[place < k]
    return out


def _chain_o(graph: BondGraph, has_al: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per O of `start`, the chain O of the module docstring's walk (the
    first O with an Al bond, `has_al` per atom), or -1.  Every walk takes
    one level at a time, from one lexsort of its parents' O bonds."""
    n = len(graph.atoms)
    reached = np.full(len(start), -1)
    walk, atom = np.arange(len(start)), start
    # The (walk, atom) keys seen, sorted, and a last key above every real one.
    seen = np.append(walk * n + atom, np.iinfo(np.int64).max)
    while walk.size:
        entry, atom = _o_bonds(graph, atom)
        walk = walk[entry]  # still ascending: a level follows its parents' order
        key = walk * n + atom
        # Drop the atoms seen before, and every place of an atom but its first.
        keep = seen[np.searchsorted(seen, key)] != key
        by_key = np.argsort(key, kind="stable")
        keep[by_key[1:][key[by_key[1:]] == key[by_key[:-1]]]] = False
        walk, atom, key = walk[keep], atom[keep], key[keep]
        hit = np.flatnonzero(has_al[atom])
        hit = hit[np.diff(walk[hit], prepend=-1) != 0]  # the first hit of each walk
        reached[walk[hit]] = atom[hit]
        going = reached[walk] < 0
        walk, atom = walk[going], atom[going]
        seen = np.sort(np.concatenate((seen, key[going])))
    return reached


def classify_batch(
    batch: StructureBatch,
    *,
    cutoffs: Mapping | None = None,
    members: np.ndarray | None = None,
    surface_depth: float = 2.0,
    surface_bin: float = 4.0,
) -> tuple[MotifTable, list[str | None]]:
    """The H atoms of `batch` as the rows of a `MotifTable`, and per
    structure the message of the bond-query error that rejects it (None for
    a structure that can be bonded).

    Bonds are made only for the rows the classes read: one `CellList` query
    over the batch (at the default cutoffs, overridden by `cutoffs`) on the H
    atoms of every structure that can be bonded, then on the O atoms their
    rows bond to and on the O-O frontier until it is empty.  Each of those
    rows, and `bridge_o`, equals its value in the graph with every atom as a
    centre.  Surface sites among `members` (a mask of oxide members, as
    `oxide_regions` gives) flag motifs; without `members` no motif is flagged.

    Every class is decided with array operations on the CSR rows, for all H
    at once: bond counts per species, each H's two nearest O by (distance,
    index), and for an H whose O has O bonds, a breadth-first walk of every
    such O at once (`_chain_o`).
    """
    index = CellList(batch, cutoffs)
    h = np.flatnonzero(batch.kind == _H)
    h = h[np.array([e is None for e in index.errors], dtype=bool)[batch.cell_of[h]]]
    graph = index.graph(h)
    # Slot -1 of each per-atom array is spare, so a -1 index reads "none".
    surface = np.zeros(len(batch) + 1, dtype=bool)
    if members is not None:
        surface[:-1] = surface_mask(batch, members, depth=surface_depth, bin_width=surface_bin)
    kind, col = batch.kind, graph.indices
    row = np.repeat(np.arange(len(kind)), np.diff(graph.indptr))
    # Per row: bonds per species, and bonds to an O that has no Al bond.
    bonds = np.bincount(row * 3 + kind[col], minlength=3 * len(kind) + 3).reshape(-1, 3)
    lone = np.bincount(row[(kind[col] == _O) & (bonds[col, _AL] == 0)], minlength=len(kind) + 1)

    n_o, n_al = bonds[h, _O], bonds[h, _AL]
    o1, o2 = _nearest_o(graph, h, 2).T
    bridged = (n_o >= 2) & (lone[h] == 0)
    # The one O of a hydroxyl-like H: its nearest, unless it is bridged.
    o = np.where(bridged, -1, o1)
    o_al, o_o, o_h = bonds[o, _AL], bonds[o, _O], bonds[o, _H]
    water = (o_h >= 2) & (o_al >= 1)
    walk = np.flatnonzero(~water & (o_o > 0))
    chain, o_near = np.full(h.size, -1), np.full(h.size, -1)
    if walk.size:
        chain[walk] = _chain_o(graph, bonds[:, _AL] > 0, o[walk])
        o_near[walk] = _nearest_o(graph, o[walk], 1)[:, 0]
    hydride = (n_o == 0) & (n_al > 0)
    partner = graph.bridge_o[h]
    label = np.select(
        [bridged, water, chain >= 0, o_al == 1, o_al >= 2, o_h >= 2, o_o > 0, o >= 0]
        + [partner >= 0, hydride & (n_al == 1), hydride],
        [
            _LABEL[c]
            for c in ("Al-O-H-O-Al", "Al-H2O", "Al-O2-H", "Al-OH", "Al-OH-Al", "Al-H2O", "Al-O2-H")
            + ("Al-OH", "Al-H-O", "Al-H", "Al-H-Al")
        ],
        _LABEL["interstitial"],
    )
    first = np.where(n_o > 0, o1, partner)
    second = np.select([bridged, chain >= 0, label == _LABEL["Al-O2-H"]], [o2, chain, o_near], -1)
    flagged = surface[h] | surface[first] | surface[second]
    # In local indices, -1 kept for none.
    cell = batch.cell_of[h]
    base = batch.offsets[cell]
    hosts = np.stack((first, second), axis=1)
    hosts = np.where(hosts >= 0, hosts - base[:, None], -1)
    return MotifTable(cell, h - base, label, hosts, flagged), index.errors


def motif_statistics(
    label: np.ndarray, surface: np.ndarray, sample: np.ndarray, samples: int
) -> dict:
    """The `motif_table.json` payload of an ensemble of `samples` samples,
    given per H its class (`label`, into MOTIF_CLASSES), its surface flag and
    its sample (0 to samples - 1): per class its `mean_pct`, `std_pct` and
    `surface_prob`, and the counts of `samples` and `samples_with_h`.

    Percentages are per sample (summing to 100) and averaged with the
    population std convention; samples with zero H are excluded from the
    percentage average.  Surface probabilities pool counts over all samples.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    classes = len(MOTIF_CLASSES)
    counts = np.bincount(sample * classes + label, minlength=samples * classes)
    counts = counts.reshape(samples, classes)
    held = counts.sum(axis=1)
    if held.any():
        pct = 100.0 * counts[held > 0] / held[held > 0, None]
        mean = pct.mean(axis=0)
        std = pct.std(axis=0)
    else:
        mean = std = np.full(classes, np.nan)
    on_surface = np.bincount(label[surface], minlength=classes).tolist()
    total = counts.sum(axis=0).tolist()
    columns = zip(MOTIF_CLASSES, mean.tolist(), std.tolist(), on_surface, total)
    return {
        "classes": {
            c: {"mean_pct": m, "std_pct": d, "surface_prob": s / t if t else None}
            for c, m, d, s, t in columns
        },
        "samples": samples,
        "samples_with_h": int(np.count_nonzero(held)),
    }
