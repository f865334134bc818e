"""The per-H motif classifier: the reference that the array classes of
`jjvar.motifs.classify_batch` are tested against.

`classify_h` decides one H at a time from (index, distance) lists of its
bonds, and walks the O-O chain of an Al-O2-H with a FIFO queue: children are
pushed in (distance, index) order and an O seen before is dropped when it is
popped.  It reads the same rows of the bond graph as `classify_batch`, so it
can be given either that graph or the full one.
"""

from jjvar.motifs import MotifRecord
from jjvar.structure import AtomicStructure, BondGraph, StructureBatch

from conftest import neighbors


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


def classify_h(structure: AtomicStructure | StructureBatch, graph: BondGraph, h: int) -> MotifRecord:
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
