"""Motif classification: nine-class fixtures, totality, ensemble statistics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jjvar.motifs import MOTIF_CLASSES, classify_batch
from jjvar.structure import DEFAULT_CUTOFFS, AtomicStructure, CellList, StructureBatch, oxide_regions

from conftest import (
    full_graph,
    indices_of,
    make_molecule,
    make_oxide_slab,
    neighbors,
    nine_motif_fixtures,
    sites_of,
)
from motifs_reference import (
    ARITY,
    MotifRecord,
    classify_h,
    motif_statistics_reference,
    statistics_of,
    table_records,
)


@st.composite
def directions(draw):
    """Unit vectors, uniform on the sphere."""
    cos_theta = draw(st.floats(-1.0, 1.0))
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    return np.array([sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta])


@st.composite
def dense_clusters(draw):
    """Non-periodic clusters grown one atom at a time, each 0.9-2.2 A from an
    earlier atom, so H atoms meet several O, O-O chains and Al hosts."""
    n = draw(st.integers(2, 24))
    species = draw(st.lists(st.sampled_from(["Al", "O", "H"]), min_size=n, max_size=n))
    positions = [np.zeros(3)]
    for k in range(1, n):
        anchor = positions[draw(st.integers(0, k - 1))]
        direction = draw(directions())
        positions.append(anchor + draw(st.floats(0.9, 2.2)) * direction)
    return make_molecule(species, positions)


@st.composite
def o_networks(draw):
    """An H on O 0 of a tree of 2-8 O atoms, each 1.25-1.55 A (an O-O bond)
    from an earlier one: a chain when each hangs on the last, else branched.
    Some O carry an Al 1.8-2.1 A out, and some a second H."""
    species, positions = ["O"], [np.zeros(3)]
    for k in range(1, draw(st.integers(2, 8))):
        parent = k - 1 if draw(st.booleans()) else draw(st.integers(0, k - 1))
        species.append("O")
        positions.append(positions[parent] + draw(st.floats(1.25, 1.55)) * draw(directions()))
    o_atoms = range(len(species))
    for o, atom, reach in (
        [(0, "H", 0.97)]
        + [(o, "Al", 1.95) for o in draw(st.lists(st.sampled_from(o_atoms), max_size=2))]
        + [(o, "H", 0.97) for o in draw(st.lists(st.sampled_from(o_atoms), max_size=1))]
    ):
        species.append(atom)
        positions.append(positions[o] + draw(st.floats(reach - 0.1, reach + 0.1)) * draw(directions()))
    return species, positions


@st.composite
def o_rings(draw):
    """A planar ring of 3-6 O atoms 1.4 A apart, an H 0.97 A out from O 0
    and at most one Al 1.9 A out from a ring O."""
    n = draw(st.integers(3, 6))
    radius = 1.4 / (2.0 * np.sin(np.pi / n))
    out = [np.array([np.cos(a), np.sin(a), 0.0]) for a in 2.0 * np.pi * np.arange(n) / n]
    species, positions = ["O"] * n + ["H"], [radius * u for u in out] + [(radius + 0.97) * out[0]]
    for o in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        species.append("Al")
        positions.append((radius + 1.9) * out[o] + np.array([0.0, 0.0, 0.5]))
    return species, positions


@st.composite
def three_o_hydrogens(draw):
    """An H 1.0-1.15 A from three O, an Al 1.9 A out from each O but one,
    and an O 1.4 A out from that one."""
    species, positions = ["H"], [np.zeros(3)]
    bare = draw(st.integers(0, 2))
    for k, u in enumerate(np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1)]) / np.sqrt(3.0)):
        o = draw(st.floats(1.0, 1.15)) * u
        species.append("O")
        positions.append(o)
        species.append("O" if k == bare else "Al")
        positions.append(o + (1.4 if k == bare else 1.9) * u)
    return species, positions


@st.composite
def routed_batches(draw):
    """One to three structures built so that most H are routed: bonded to
    several O, or to an O with O bonds.  Each holds one to three O networks,
    O rings or three-O hydrogens, 8 A apart, jittered by up to 0.05 A."""
    structures = []
    for _ in range(draw(st.integers(1, 3))):
        species, positions = [], []
        for k in range(draw(st.integers(1, 3))):
            build = draw(st.sampled_from([o_networks, o_rings, three_o_hydrogens]))
            part_species, part_positions = draw(build())
            species += part_species
            positions += [p + np.array([8.0 * k, 0.0, 0.0]) for p in part_positions]
        jitter = draw(st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3))
        structures.append(make_molecule(species, np.array(positions) + jitter))
    return structures


@st.composite
def dense_cells(draw):
    """A dense cluster with cutoff overrides, left open or put in a cell that
    is periodic on some axes, 2 to 4 times the largest cutoff long, where its
    atoms wrap onto each other."""
    overrides = draw(
        st.dictionaries(st.sampled_from(sorted(DEFAULT_CUTOFFS)), st.floats(0.5, 3.0), max_size=4)
    )
    s = draw(dense_clusters())
    rmax = max({**DEFAULT_CUTOFFS, **overrides}.values())
    pbc = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    lengths = [rmax * draw(st.floats(2.01, 4.0)) if p else s.cell[ax, ax] for ax, p in enumerate(pbc)]
    s = AtomicStructure(cell=np.diag(lengths), pbc=pbc, species=s.species, positions=s.positions)
    return s, overrides


@st.composite
def dense_batches(draw):
    """One to four dense clusters sharing one set of cutoff overrides, each
    left open or put in a cell periodic on some axes (as in dense_cells)."""
    overrides = draw(
        st.dictionaries(st.sampled_from(sorted(DEFAULT_CUTOFFS)), st.floats(0.5, 3.0), max_size=4)
    )
    rmax = max({**DEFAULT_CUTOFFS, **overrides}.values())
    structures = []
    for _ in range(draw(st.integers(1, 4))):
        s = draw(dense_clusters())
        pbc = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
        lengths = [rmax * draw(st.floats(2.01, 4.0)) if p else s.cell[ax, ax] for ax, p in enumerate(pbc)]
        cell = np.diag(lengths)
        structures.append(AtomicStructure(cell=cell, pbc=pbc, species=s.species, positions=s.positions))
    return structures, overrides


def classifier_rows(s, overrides=None):
    """The graph `classify_batch` builds for `s` alone."""
    return CellList(StructureBatch([s]), overrides).graph(indices_of(s, "H"))


def classify_one(s, cutoffs=None):
    """The rows `classify_batch` gives `s` alone, as records, with surface
    flags from its oxide region."""
    batch = StructureBatch([s])
    (records,) = table_records(classify_batch(batch, cutoffs=cutoffs, members=oxide_regions(batch)[2]))
    return records


def with_surface_flag(record, sites):
    """`record` flagged as a surface motif iff its H or a host O is in `sites`."""
    flag = record.h_index in sites or any(o in sites for o in record.host_o)
    return dataclasses.replace(record, surface=flag)


def reference_bridge_o(s, graph, overrides) -> np.ndarray:
    """The hydride branch's O partner by an all-O scan: for each H bonded to
    an Al and to no O, its nearest O (lowest index on ties) if that lies within
    the Al-H cutoff; -1 for every other atom."""
    o_all = indices_of(s, "O")
    lengths = np.diag(s.cell)
    partners = np.full(len(s), -1)
    for h in indices_of(s, "H"):
        h = int(h)
        if not neighbors(graph, h, "Al") or neighbors(graph, h, "O"):
            continue
        delta = s.positions[o_all] - s.positions[h]
        for ax in range(3):
            if s.pbc[ax]:
                delta[:, ax] -= lengths[ax] * np.round(delta[:, ax] / lengths[ax])
        dists = np.linalg.norm(delta, axis=1)
        if dists.size and dists.min() <= {**DEFAULT_CUTOFFS, **overrides}[("Al", "H")]:
            partners[h] = int(o_all[np.argmin(dists)])
    return partners


class TestNineClasses:
    @pytest.mark.parametrize(
        "label,structure,h_indices",
        nine_motif_fixtures(),
        ids=[f[0] for f in nine_motif_fixtures()],
    )
    def test_fixture_classifies(self, label, structure, h_indices):
        graph = full_graph(structure)
        for h in h_indices:
            record = classify_h(structure, graph, h)
            assert record.label == label

    def test_water_both_hydrogens(self):
        label, structure, h_indices = [f for f in nine_motif_fixtures() if f[0] == "Al-H2O"][0]
        graph = full_graph(structure)
        labels = {classify_h(structure, graph, h).label for h in h_indices}
        assert labels == {"Al-H2O"}

    def test_non_hydrogen_rejected(self):
        _, structure, _ = nine_motif_fixtures()[0]
        graph = full_graph(structure)
        with pytest.raises(ValueError):
            classify_h(structure, graph, 0)  # atom 0 is O

    def test_hosts_match_arity(self):
        for label, structure, h_indices in nine_motif_fixtures():
            graph = full_graph(structure)
            for h in h_indices:
                rec = classify_h(structure, graph, h)
                if rec.label in ("Al-OH", "Al-OH-Al"):
                    assert len(rec.host_o) == 1
                elif rec.label == "Al-O-H-O-Al":
                    assert len(rec.host_o) == 2
                elif rec.label == "interstitial":
                    assert rec.host_o == ()

    def test_record_rejects_excess_hosts(self):
        with pytest.raises(ValueError):
            MotifRecord(h_index=0, label="Al-OH", host_o=(1, 2), surface=False)
        with pytest.raises(ValueError):
            MotifRecord(h_index=0, label="bogus", host_o=(), surface=False)


class TestPrecedenceAndStability:
    def test_three_coordinated_hydroxyl_folds_to_al_oh_al(self):
        structure = make_molecule(
            ["O", "H", "Al", "Al", "Al"],
            [(0, 0, 0), (0, 0, 0.97), (1.9, 0, -0.4), (-1.9, 0, -0.4), (0, 1.9, -0.4)],
        )
        graph = full_graph(structure)
        rec = classify_h(structure, graph, 1)
        assert rec.label == "Al-OH-Al"

    def test_o_partner_looked_up_only_for_al_bonded_h(self):
        # The O sits 1.5 A from the H: outside the O-H cutoff, inside the Al-H one.
        lone = make_molecule(["O", "H"], [(0, 0, 0), (1.5, 0, 0)])
        hydride = make_molecule(["O", "H", "Al"], [(0, 0, 0), (1.5, 0, 0), (3.2, 0, 0)])
        for build in (full_graph, classifier_rows):
            graph = build(lone)
            assert graph.bridge_o.tolist() == [-1, -1]
            assert classify_h(lone, graph, 1).label == "interstitial"
            graph = build(hydride)
            assert graph.bridge_o.tolist() == [-1, 0, -1]
            rec = classify_h(hydride, graph, 1)
            assert (rec.label, rec.host_o) == ("Al-H-O", (0,))

    def test_perturbation_stability(self):
        rng = np.random.default_rng(17)
        for label, structure, h_indices in nine_motif_fixtures():
            for _ in range(5):
                jitter = rng.uniform(-0.009, 0.009, size=structure.positions.shape)
                moved = AtomicStructure(
                    cell=structure.cell,
                    pbc=structure.pbc,
                    species=structure.species,
                    positions=structure.positions + jitter,
                )
                graph = full_graph(moved)
                for h in h_indices:
                    assert classify_h(moved, graph, h).label == label

    def test_totality_on_random_structures(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = 40
            species = tuple(rng.choice(["Al", "O", "H"], size=n))
            s = AtomicStructure(
                cell=np.diag([12.0, 12.0, 12.0]),
                pbc=(True, True, True),
                species=species,
                positions=rng.uniform(0, 12, size=(n, 3)),
            )
            graph = full_graph(s)
            for h in indices_of(s, "H"):
                record = classify_h(s, graph, int(h))
                assert record.label in MOTIF_CLASSES

    @settings(max_examples=100, deadline=None)
    @given(dense_clusters())
    def test_records_total_with_typed_hosts_on_dense_clusters(self, s):
        records = classify_one(s)
        assert [rec.h_index for rec in records] == indices_of(s, "H").tolist()
        for rec in records:
            assert rec.label in MOTIF_CLASSES
            assert all(s.species[o] == "O" for o in rec.host_o)
            assert len(rec.host_o) <= ARITY[rec.label]

    @settings(max_examples=150, deadline=None)
    @given(dense_cells())
    # An O-O chain two bonds long reaching Al: Al-O2-H.
    @example(
        (
            make_molecule(
                ["O", "H", "O", "O", "Al"],
                [(0, 0, 0), (0, 0, 0.97), (1.4, 0, 0), (2.8, 0, 0), (4.7, 0, 0)],
            ),
            {},
        )
    )
    # An H bonded to two Al-anchored O: Al-O-H-O-Al.
    @example(([f for f in nine_motif_fixtures() if f[0] == "Al-O-H-O-Al"][0][1], {}))
    # A hydride with two O at equal distance inside the Al-H cutoff: O 1 wins.
    @example(
        (
            make_molecule(
                ["H", "O", "Al", "O"], [(0, 0, 0), (1.5, 0, 0), (0, 0, 1.7), (-1.5, 0, 0)]
            ),
            {},
        )
    )
    def test_classifier_rows_give_the_full_graph_records(self, case):
        s, overrides = case
        full = full_graph(s, overrides)
        rows = classifier_rows(s, overrides)
        (records,) = table_records(classify_batch(StructureBatch([s]), cutoffs=overrides))
        assert records == [classify_h(s, full, int(h)) for h in indices_of(s, "H")]
        assert rows.bridge_o.tolist() == full.bridge_o.tolist()
        assert full.bridge_o.tolist() == reference_bridge_o(s, full, overrides).tolist()
        held = np.diff(rows.indptr) > 0
        for i in np.flatnonzero(held):
            assert neighbors(rows, i) == neighbors(full, i)
        assert not held[indices_of(s, "Al")].any()

    @settings(max_examples=150, deadline=None)
    @given(dense_batches())
    # The nine fixtures in one batch: every branch, the O-O chain walk and the
    # two-O case among them, with batch indices offset from local ones.
    @example(([f[1] for f in nine_motif_fixtures()], {}))
    def test_array_classes_match_classify_h(self, case):
        structures, overrides = case
        expected = []
        for s in structures:
            graph, sites = full_graph(s, overrides), sites_of(s)
            h_atoms = indices_of(s, "H")
            expected.append([with_surface_flag(classify_h(s, graph, int(h)), sites) for h in h_atoms])
        batch = StructureBatch(structures)
        _, _, members = oxide_regions(batch)
        assert table_records(classify_batch(batch, cutoffs=overrides, members=members)) == expected

    @settings(max_examples=150, deadline=None)
    @given(routed_batches())
    # Level 1 is O 2 (1.3 A) then O 3 (1.5 A); each has one child with an
    # Al: O 5 1.55 A from O 2, O 4 1.3 A from O 3.  The first parent's
    # child wins, though the other is nearer and has the lower index.
    @example(
        [
            make_molecule(
                ["O", "H", "O", "O", "O", "O", "Al", "Al"],
                [(0, 0, 0), (0, 0, 0.97), (1.3, 0, 0), (-1.5, 0, 0)]
                + [(-2.8, 0, 0), (2.85, 0, 0), (-4.7, 0, 0), (4.75, 0, 0)],
            )
        ]
    )
    # A hexagon of O with no Al: the walk ends, and the H falls back to
    # Al-O2-H on its nearest ring neighbour.
    @example(
        [
            make_molecule(
                ["O"] * 6 + ["H"],
                [(1.4 * np.cos(a), 1.4 * np.sin(a), 0) for a in np.arange(6) * np.pi / 3]
                + [(2.37, 0, 0)],
            )
        ]
    )
    # Two hydroxyl O on either side of one O with an Al: both walks reach it.
    @example(
        [
            make_molecule(
                ["O", "O", "O", "H", "H", "Al"],
                [(0, 0, 0), (-1.4, 0, 0), (1.4, 0, 0), (-1.4, 0, 0.97), (1.4, 0, 0.97), (0, 1.9, 0)],
            )
        ]
    )
    def test_routed_hydrogens_match_classify_h(self, structures):
        expected = []
        for s in structures:
            graph, sites = full_graph(s), sites_of(s)
            h_atoms = indices_of(s, "H")
            expected.append([with_surface_flag(classify_h(s, graph, int(h)), sites) for h in h_atoms])
        batch = StructureBatch(structures)
        _, _, members = oxide_regions(batch)
        assert table_records(classify_batch(batch, members=members)) == expected

    def test_order_independence(self):
        rng = np.random.default_rng(29)
        n = 30
        species = list(rng.choice(["Al", "O", "H"], size=n))
        pos = rng.uniform(0, 10, size=(n, 3))
        s1 = AtomicStructure(
            cell=np.diag([10.0] * 3), pbc=(True,) * 3, species=tuple(species), positions=pos
        )
        order = rng.permutation(n)
        s2 = AtomicStructure(
            cell=np.diag([10.0] * 3),
            pbc=(True,) * 3,
            species=tuple(species[i] for i in order),
            positions=pos[order],
        )
        labels1 = sorted(r.label for r in classify_one(s1))
        labels2 = sorted(r.label for r in classify_one(s2))
        assert labels1 == labels2


class TestSurfaceFlag:
    def test_top_layer_h_is_surface(self):
        slab = make_oxide_slab(n_h=1)
        records = classify_one(slab)
        assert len(records) == 1
        assert records[0].surface

    def test_buried_h_is_not_surface(self):
        # two O layers 3.2 A apart; H sits on the bottom layer
        species = ["Al", "O", "O", "H"]
        positions = [(0, 0, 0), (0, 0, 1.8), (0, 0, 5.0), (0.95, 0, 1.6)]
        s = make_molecule(species, positions)
        (rec,) = classify_one(s)
        assert rec.h_index == 3
        assert not rec.surface


class TestEnsembleStatistics:
    def _records(self, labels, surface=()):
        out = []
        for i, label in enumerate(labels):
            host_o = (1,) if label in ("Al-OH", "Al-OH-Al") else ()
            out.append(MotifRecord(h_index=i, label=label, host_o=host_o, surface=i in surface))
        return out

    def test_single_sample_split(self):
        records = self._records(["Al-OH", "Al-OH", "Al-OH-Al", "Al-OH-Al"])
        stats = statistics_of([records])
        assert stats.mean_pct["Al-OH"] == pytest.approx(50.0)
        assert stats.mean_pct["Al-OH-Al"] == pytest.approx(50.0)
        assert stats.std_pct["Al-OH"] == pytest.approx(0.0)

    def test_population_std_convention(self):
        stats = statistics_of(
            [self._records(["Al-OH"]), self._records(["Al-OH-Al"])]
        )
        assert stats.mean_pct["Al-OH"] == pytest.approx(50.0)
        assert stats.std_pct["Al-OH"] == pytest.approx(50.0)

    def test_zero_h_samples_excluded(self):
        stats = statistics_of([self._records(["Al-OH"]), [], []])
        assert stats.samples == 3
        assert stats.samples_with_h == 1
        assert stats.mean_pct["Al-OH"] == pytest.approx(100.0)

    def test_pooled_surface_probability(self):
        samples = [
            self._records(["Al-OH", "Al-OH"], surface={0}),
            self._records(["Al-OH", "Al-OH"], surface={0, 1}),
        ]
        stats = statistics_of(samples)
        assert stats.surface_prob["Al-OH"] == pytest.approx(3 / 4)
        assert stats.surface_prob["Al-H"] is None

    def test_percentages_sum_to_100(self):
        rng = np.random.default_rng(31)
        samples = []
        for _ in range(20):
            labels = list(rng.choice(MOTIF_CLASSES, size=int(rng.integers(1, 12))))
            samples.append(self._records(labels))
        stats = statistics_of(samples)
        assert sum(stats.mean_pct.values()) == pytest.approx(100.0, abs=1e-9)

    def test_generator_recovery(self):
        rng = np.random.default_rng(37)
        probs = np.array([0.37, 0.543, 0.054, 0.007, 0.013, 0.004, 0.006, 0.003, 0.0])
        probs = probs / probs.sum()
        n_samples, per_sample = 200, 20
        samples = []
        for _ in range(n_samples):
            counts = rng.multinomial(per_sample, probs)
            labels = [c for c, k in zip(MOTIF_CLASSES, counts) for _ in range(k)]
            samples.append(self._records(labels))
        stats = statistics_of(samples)
        for label, p in zip(MOTIF_CLASSES, probs):
            se = stats.std_pct[label] / np.sqrt(n_samples)
            assert abs(stats.mean_pct[label] - 100 * p) <= 2 * se + 1e-9

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            statistics_of([])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(st.sampled_from(MOTIF_CLASSES), st.booleans()), max_size=12),
            min_size=1,
            max_size=30,
        )
    )
    # Samples with no H only: every percentage is NaN, every probability None.
    @example([[], [], []])
    # Zero-H samples among others, and one class on every sample.
    @example([[("Al-OH", True)], [], [("Al-OH", False), ("Al-H", True)], []])
    def test_bincount_statistics_match_per_record_reference(self, samples):
        per_sample = [
            [MotifRecord(i, label, (), flag) for i, (label, flag) in enumerate(sample)]
            for sample in samples
        ]
        # repr tells every two floats apart, NaN included: exact equality.
        assert repr(statistics_of(per_sample)) == repr(motif_statistics_reference(per_sample))
