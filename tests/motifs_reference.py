"""Per-H references: the motif classifier that the array classes of
`jjvar.motifs.classify_batch` are tested against, and the per-record
ensemble statistics that `jjvar.motifs.motif_statistics` is tested against.

`classify_h` decides one H at a time from (index, distance) lists of its
bonds, and walks the O-O chain of an Al-O2-H with a FIFO queue: children are
pushed in (distance, index) order and an O seen before is dropped when it is
popped.  It reads the same rows of the bond graph as `classify_batch`, so it
can be given either that graph or the full one.  Both references work on
`MotifRecord`s, one per H; `table_split` cuts what `classify_batch` returns,
a `MotifTable` and its per-structure errors, into the rows of each
structure, and `table_records` reads those as records.
"""

from dataclasses import dataclass

import numpy as np

from jjvar.motifs import MOTIF_CLASSES, MotifTable, motif_statistics
from jjvar.structure import AtomicStructure, BondGraph

from conftest import neighbors

# Host O atoms per class, at most; the host list keeps the nearest O atoms
# when more are bonded.
ARITY = {
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
        if len(self.host_o) > ARITY[self.label]:
            raise ValueError(
                f"{self.label} has at most {ARITY[self.label]} host O, got {len(self.host_o)}"
            )


def table_split(table: MotifTable, errors: list[str | None]) -> list[MotifTable | str]:
    """Per structure of the table's batch, the table of its rows alone, or
    the error that rejects it."""
    bounds = np.searchsorted(table.structure, np.arange(len(errors) + 1)).tolist()
    return [
        error or MotifTable(*(column[a:b] for column in table))
        for error, a, b in zip(errors, bounds, bounds[1:])
    ]


def table_records(table: MotifTable, errors: list[str | None]) -> list[list[MotifRecord] | str]:
    """Per structure of the table's batch, the records of its rows, or the
    error that rejects it."""
    return [
        part
        if isinstance(part, str)
        else [
            MotifRecord(i, MOTIF_CLASSES[c], tuple(o for o in hosts if o >= 0), f)
            for i, c, hosts, f in zip(
                part.h_index.tolist(), part.label.tolist(), part.host_o.tolist(), part.surface.tolist()
            )
        ]
        for part in table_split(table, errors)
    ]


def statistics_of(per_sample_records: list[list[MotifRecord]]) -> dict:
    """`motif_statistics` on the columns of per-sample records."""
    records = [rec for recs in per_sample_records for rec in recs]
    return motif_statistics(
        np.array([MOTIF_CLASSES.index(rec.label) for rec in records], dtype=int),
        np.array([rec.surface for rec in records], dtype=bool),
        np.repeat(np.arange(len(per_sample_records)), [len(recs) for recs in per_sample_records]),
        len(per_sample_records),
    )


def motif_statistics_reference(per_sample_records: list[list[MotifRecord]]) -> dict:
    """Aggregate motif records over an ensemble of samples, one sample and
    one record at a time, into the payload `motif_statistics` returns.

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

    classes = {}
    for label, m, s in zip(MOTIF_CLASSES, mean, std):
        total = class_total[label]
        classes[label] = {
            "mean_pct": float(m),
            "std_pct": float(s),
            "surface_prob": (class_surface[label] / total) if total else None,
        }

    return {"classes": classes, "samples": len(per_sample_records), "samples_with_h": len(rows)}


def _by_distance(pairs: list[tuple[int, float]]) -> list[int]:
    return [j for j, _ in sorted(pairs, key=lambda p: (p[1], p[0]))]


def _chain_reaches_al(graph: BondGraph, start_o: int) -> int | None:
    """Walk O-O bonds outward from start_o; the first O with an Al host, or None."""
    seen = {start_o}
    frontier = _by_distance(neighbors(graph, start_o, "O"))
    while frontier:
        o = frontier.pop(0)
        if o in seen:
            continue
        seen.add(o)
        if neighbors(graph, o, "Al"):
            return o
        frontier.extend(j for j in _by_distance(neighbors(graph, o, "O")) if j not in seen)
    return None


def classify_h(structure: AtomicStructure, graph: BondGraph, h: int) -> MotifRecord:
    """Classify hydrogen atom `h` from the bonds of H and O atoms in `graph`.

    An Al-bonded H with no O bond is Al-H-O when an O lies within the graph's
    Al-H cutoff of it; that O is `graph.bridge_o[h]`, which the bond query
    picks from the same candidate pairs as the H atom's bonds.  The record
    is not flagged as a surface motif; `classify_batch` sets that flag.
    """
    if structure.species[h] != "H":
        raise ValueError(f"atom {h} is {structure.species[h]}, not H")

    o_bonded = neighbors(graph, h, "O")

    if len(o_bonded) >= 2:
        if all(neighbors(graph, o, "Al") for o, _ in o_bonded):
            return _record(h, "Al-O-H-O-Al", _by_distance(o_bonded)[:2])
        # Not every O is Al-anchored: treat the nearest O as the host hydroxyl.
        o_bonded = [min(o_bonded, key=lambda p: (p[1], p[0]))]

    if len(o_bonded) == 1:
        o = o_bonded[0][0]
        other_h = any(j != h for j, _ in neighbors(graph, o, "H"))
        n_al = len(neighbors(graph, o, "Al"))
        o_o = _by_distance(neighbors(graph, o, "O"))
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
    n_al = len(neighbors(graph, h, "Al"))
    if not n_al:
        return _record(h, "interstitial", [])
    partner = int(graph.bridge_o[h])
    if partner >= 0:
        return _record(h, "Al-H-O", [partner])
    return _record(h, "Al-H" if n_al == 1 else "Al-H-Al", [])


def _record(h: int, label: str, host_o: list[int]) -> MotifRecord:
    return MotifRecord(h, label, tuple(host_o), surface=False)
