"""Motif classification: nine-class fixtures, totality, ensemble statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jjvar import motifs
from jjvar.motifs import (
    MOTIF_CLASSES,
    MotifRecord,
    classify_batch,
    classify_h,
    classify_structure,
    motif_statistics,
)
from jjvar.structure import (
    DEFAULT_CUTOFFS,
    AtomicStructure,
    CellList,
    StructureBatch,
    neighbor_graph,
    oxide_region,
    oxide_regions,
    surface_sites,
)

from conftest import make_molecule, make_oxide_slab, nine_motif_fixtures


@st.composite
def dense_clusters(draw):
    """Non-periodic clusters grown one atom at a time, each 0.9-2.2 A from an
    earlier atom, so H atoms meet several O, O-O chains and Al hosts."""
    n = draw(st.integers(2, 24))
    species = draw(st.lists(st.sampled_from(["Al", "O", "H"]), min_size=n, max_size=n))
    positions = [np.zeros(3)]
    for k in range(1, n):
        anchor = positions[draw(st.integers(0, k - 1))]
        cos_theta = draw(st.floats(-1.0, 1.0))
        phi = draw(st.floats(0.0, 2.0 * np.pi))
        sin_theta = np.sqrt(1.0 - cos_theta**2)
        direction = np.array([sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta])
        positions.append(anchor + draw(st.floats(0.9, 2.2)) * direction)
    return make_molecule(species, positions)


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
    """The graph `classify_structure` builds when given none."""
    return CellList(s, overrides).graph(s.indices_of("H"))


def reference_bridge_o(s, graph, overrides) -> dict[int, int]:
    """The hydride branch's O partner by an all-O scan: for each H bonded to
    an Al and to no O, its nearest O (lowest index on ties) if that lies within
    the Al-H cutoff."""
    o_all = s.indices_of("O")
    lengths = np.diag(s.cell)
    partners = {}
    for h in s.indices_of("H"):
        h = int(h)
        if not graph.neighbors_of_species(h, "Al") or graph.neighbors_of_species(h, "O"):
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
        graph = neighbor_graph(structure)
        for h in h_indices:
            record = classify_h(structure, graph, h)
            assert record.label == label

    def test_water_both_hydrogens(self):
        label, structure, h_indices = [f for f in nine_motif_fixtures() if f[0] == "Al-H2O"][0]
        graph = neighbor_graph(structure)
        labels = {classify_h(structure, graph, h).label for h in h_indices}
        assert labels == {"Al-H2O"}

    def test_non_hydrogen_rejected(self):
        _, structure, _ = nine_motif_fixtures()[0]
        graph = neighbor_graph(structure)
        with pytest.raises(ValueError):
            classify_h(structure, graph, 0)  # atom 0 is O

    def test_hosts_match_arity(self):
        for label, structure, h_indices in nine_motif_fixtures():
            graph = neighbor_graph(structure)
            for h in h_indices:
                rec = classify_h(structure, graph, h)
                if rec.label == "Al-OH":
                    assert len(rec.host_o) == 1 and len(rec.host_al) == 1
                elif rec.label == "Al-OH-Al":
                    assert len(rec.host_o) == 1 and len(rec.host_al) == 2
                elif rec.label == "Al-O-H-O-Al":
                    assert len(rec.host_o) == 2 and len(rec.host_al) == 2
                elif rec.label == "interstitial":
                    assert rec.host_o == () and rec.host_al == ()

    def test_record_rejects_excess_hosts(self):
        with pytest.raises(ValueError):
            MotifRecord(h_index=0, label="Al-OH", host_o=(1, 2), host_al=(3,), surface=False)
        with pytest.raises(ValueError):
            MotifRecord(h_index=0, label="bogus", host_o=(), host_al=(), surface=False)


class TestPrecedenceAndStability:
    def test_three_coordinated_hydroxyl_folds_to_al_oh_al(self):
        structure = make_molecule(
            ["O", "H", "Al", "Al", "Al"],
            [(0, 0, 0), (0, 0, 0.97), (1.9, 0, -0.4), (-1.9, 0, -0.4), (0, 1.9, -0.4)],
        )
        graph = neighbor_graph(structure)
        rec = classify_h(structure, graph, 1)
        assert rec.label == "Al-OH-Al"
        assert len(rec.host_al) == 2

    def test_o_partner_looked_up_only_for_al_bonded_h(self):
        # The O sits 1.5 A from the H: outside the O-H cutoff, inside the Al-H one.
        lone = make_molecule(["O", "H"], [(0, 0, 0), (1.5, 0, 0)])
        hydride = make_molecule(["O", "H", "Al"], [(0, 0, 0), (1.5, 0, 0), (3.2, 0, 0)])
        for build in (neighbor_graph, classifier_rows):
            graph = build(lone)
            assert graph.bridge_o == {}
            assert classify_h(lone, graph, 1).label == "interstitial"
            graph = build(hydride)
            assert graph.bridge_o == {1: 0}
            rec = classify_h(hydride, graph, 1)
            assert (rec.label, rec.host_o, rec.host_al) == ("Al-H-O", (0,), (2,))

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
                graph = neighbor_graph(moved)
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
            graph = neighbor_graph(s)
            for h in s.indices_of("H"):
                record = classify_h(s, graph, int(h))
                assert record.label in MOTIF_CLASSES

    @settings(max_examples=100, deadline=None)
    @given(dense_clusters())
    def test_records_total_with_typed_hosts_on_dense_clusters(self, s):
        records = classify_structure(s)
        assert [rec.h_index for rec in records] == list(s.indices_of("H"))
        for rec in records:
            assert rec.label in MOTIF_CLASSES
            assert all(s.species[o] == "O" for o in rec.host_o)
            assert all(s.species[al] == "Al" for al in rec.host_al)
            max_o, max_al = motifs._ARITY[rec.label]
            assert len(rec.host_o) <= max_o and len(rec.host_al) <= max_al

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
        full = neighbor_graph(s, overrides)
        rows = classifier_rows(s, overrides)
        assert classify_structure(s, cutoffs=overrides) == classify_structure(s, full)
        assert rows.bridge_o == full.bridge_o == reference_bridge_o(s, full, overrides)
        held = np.diff(rows.indptr) > 0
        for i in np.flatnonzero(held):
            assert rows.neighbors(i) == full.neighbors(i)
        assert not held[s.indices_of("Al")].any()

    @settings(max_examples=150, deadline=None)
    @given(dense_batches())
    # The nine fixtures in one batch: every branch, the O-O chain walk and the
    # two-O case among them, with batch indices offset from local ones.
    @example(([f[1] for f in nine_motif_fixtures()], {}))
    def test_array_classes_match_classify_h(self, case):
        structures, overrides = case
        expected = []
        for s in structures:
            graph = neighbor_graph(s, overrides)
            try:
                surface = surface_sites(s, oxide_region(s))
            except ValueError:
                surface = None
            h_atoms = s.indices_of("H")
            expected.append([classify_h(s, graph, int(h), surface=surface) for h in h_atoms])
        batch = StructureBatch(structures)
        _, members = oxide_regions(batch)
        assert classify_batch(batch, cutoffs=overrides, members=members) == expected

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
        labels1 = sorted(r.label for r in classify_structure(s1, neighbor_graph(s1)))
        labels2 = sorted(r.label for r in classify_structure(s2, neighbor_graph(s2)))
        assert labels1 == labels2


class TestSurfaceFlag:
    def test_top_layer_h_is_surface(self):
        slab = make_oxide_slab(n_h=1)
        records = classify_structure(slab)
        assert len(records) == 1
        assert records[0].surface

    def test_buried_h_is_not_surface(self):
        # two O layers 3.2 A apart; H sits on the bottom layer
        species = ["Al", "O", "O", "H"]
        positions = [(0, 0, 0), (0, 0, 1.8), (0, 0, 5.0), (0.95, 0, 1.6)]
        s = make_molecule(species, positions)
        graph = neighbor_graph(s)
        region = oxide_region(s)
        surface = surface_sites(s, region, depth=2.0, bin_width=4.0)
        rec = classify_h(s, graph, 3, surface=surface)
        assert not rec.surface


class TestEnsembleStatistics:
    def _records(self, labels, surface=()):
        out = []
        for i, label in enumerate(labels):
            arity = {"Al-OH": ((1,), (2,)), "Al-OH-Al": ((1,), (2, 3))}
            host_o, host_al = arity.get(label, ((), ()))
            if label in ("Al-H",):
                host_o, host_al = (), (2,)
            out.append(
                MotifRecord(
                    h_index=i, label=label, host_o=host_o, host_al=host_al, surface=i in surface
                )
            )
        return out

    def test_single_sample_split(self):
        records = self._records(["Al-OH", "Al-OH", "Al-OH-Al", "Al-OH-Al"])
        stats = motif_statistics([records])
        assert stats.mean_pct["Al-OH"] == pytest.approx(50.0)
        assert stats.mean_pct["Al-OH-Al"] == pytest.approx(50.0)
        assert stats.std_pct["Al-OH"] == pytest.approx(0.0)

    def test_population_std_convention(self):
        stats = motif_statistics(
            [self._records(["Al-OH"]), self._records(["Al-OH-Al"])]
        )
        assert stats.mean_pct["Al-OH"] == pytest.approx(50.0)
        assert stats.std_pct["Al-OH"] == pytest.approx(50.0)

    def test_zero_h_samples_excluded(self):
        stats = motif_statistics([self._records(["Al-OH"]), [], []])
        assert stats.samples == 3
        assert stats.samples_with_h == 1
        assert stats.mean_pct["Al-OH"] == pytest.approx(100.0)

    def test_pooled_surface_probability(self):
        samples = [
            self._records(["Al-OH", "Al-OH"], surface={0}),
            self._records(["Al-OH", "Al-OH"], surface={0, 1}),
        ]
        stats = motif_statistics(samples)
        assert stats.surface_prob["Al-OH"] == pytest.approx(3 / 4)
        assert stats.surface_prob["Al-H"] is None

    def test_percentages_sum_to_100(self):
        rng = np.random.default_rng(31)
        samples = []
        for _ in range(20):
            labels = list(rng.choice(MOTIF_CLASSES, size=int(rng.integers(1, 12))))
            samples.append(self._records(labels))
        stats = motif_statistics(samples)
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
        stats = motif_statistics(samples)
        for label, p in zip(MOTIF_CLASSES, probs):
            se = stats.std_pct[label] / np.sqrt(n_samples)
            assert abs(stats.mean_pct[label] - 100 * p) <= 2 * se + 1e-9

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            motif_statistics([])
