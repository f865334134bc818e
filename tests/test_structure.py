"""Structure parsing, bond graphs (vs brute-force images), regions, surfaces."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jjvar import structure
from jjvar.constants import BOLTZMANN_KB
from jjvar.structure import (
    DEFAULT_CUTOFFS,
    SPECIES,
    AtomicStructure,
    ConfigurationError,
    ParseError,
    effective_time,
    ideal_gas_count,
    neighbor_graph,
    oxide_region,
    parse_xyz,
    stoichiometry,
    surface_sites,
)

from conftest import make_molecule, to_xyz


def brute_force_edges(structure, cutoffs=None):
    """All-image pair scan: explicit minimum over the 27 periodic translations."""
    cut = {tuple(sorted(k)): v for k, v in DEFAULT_CUTOFFS.items()}
    if cutoffs:
        cut.update({tuple(sorted(k)): v for k, v in cutoffs.items()})
    lengths = np.abs(np.diag(structure.cell))
    axes = [(-1, 0, 1) if structure.pbc[ax] else (0,) for ax in range(3)]
    shifts = [np.array(t) * lengths for t in itertools.product(*axes)]
    edges = set()
    n = len(structure)
    for i in range(n):
        for j in range(i + 1, n):
            pair = tuple(sorted((structure.species[i], structure.species[j])))
            if pair not in cut:
                continue
            d = min(
                np.linalg.norm(structure.positions[i] - structure.positions[j] + s)
                for s in shifts
            )
            if d <= cut[pair]:
                edges.add((i, j))
    return edges


def all_pairs_csr(structure, cutoffs=None):
    """Vectorised all-pairs reference in CSR form: every i < j pair under the
    minimum image, with the arithmetic of `CellList`."""
    cut = {tuple(sorted(k)): v for k, v in DEFAULT_CUTOFFS.items()}
    if cutoffs:
        cut.update({tuple(sorted(k)): v for k, v in cutoffs.items()})
    n = len(structure)
    i, j = np.triu_indices(n, k=1)
    delta = structure.positions[j] - structure.positions[i]
    lengths = np.abs(np.diag(structure.cell))
    for ax in range(3):
        if structure.pbc[ax]:
            delta[:, ax] -= lengths[ax] * np.round(delta[:, ax] / lengths[ax])
    dist = np.full((n, n), np.inf)
    dist[i, j] = dist[j, i] = np.linalg.norm(delta, axis=1)
    limit = np.array(
        [[cut.get(tuple(sorted((a, b))), -1.0) for b in structure.species] for a in structure.species]
    ).reshape(n, n)
    bonded = dist <= limit
    return np.concatenate([[0], np.cumsum(bonded.sum(axis=1))]), np.nonzero(bonded)[1], dist[bonded]


@st.composite
def cells_and_cutoffs(draw):
    """Up to 40 atoms in an orthorhombic cell with mixed pbc, and cutoff
    overrides.  A periodic length of 2 to 3 times the largest cutoff gives the
    cell list 2 bins on that axis, a longer one 3 or more.  Atoms reach 0.3 L
    outside [0, L), some sit at exactly 0, L or -1e-17 L, and some coincide."""
    pairs = list(itertools.combinations_with_replacement(SPECIES, 2))
    overrides = draw(st.dictionaries(st.sampled_from(pairs), st.floats(0.3, 3.5), max_size=3))
    cut = {tuple(sorted(k)): v for k, v in {**DEFAULT_CUTOFFS, **overrides}.items()}
    rmax = max(cut.values())
    pbc = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    ratio = st.one_of(st.floats(2.01, 2.99), st.floats(3.0, 6.0))
    lengths = np.array([rmax * draw(ratio) if p else draw(st.floats(1.0, 20.0)) for p in pbc])
    n = draw(st.integers(0, 40))
    frac = st.one_of(st.floats(-0.3, 1.3), st.sampled_from([0.0, 1.0, -1e-17]))
    pos = np.array(draw(st.lists(st.tuples(frac, frac, frac), min_size=n, max_size=n)))
    pos = pos.reshape(n, 3) * lengths
    if n:
        for src, dst in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), max_size=5)):
            pos[dst] = pos[src]
    species = tuple(draw(st.lists(st.sampled_from(SPECIES), min_size=n, max_size=n)))
    s = AtomicStructure(cell=np.diag(lengths), pbc=pbc, species=species, positions=pos)
    return s, overrides


class TestParseXyz:
    def test_simple_molecule(self):
        s = parse_xyz("2\nO2 molecule\nO 0 0 0\nO 0 0 1.21\n")
        assert s.species == ("O", "O")
        assert not any(s.pbc)
        assert np.allclose(s.positions[1], [0, 0, 1.21])
        # bounding box + 10 A padding
        assert np.allclose(np.diag(s.cell), [10.0, 10.0, 11.21])

    def test_lattice_comment(self):
        text = '2\nLattice="10 0 0 0 10 0 0 0 10"\nAl 1 1 1\nO 2 2 2\n'
        s = parse_xyz(text)
        assert all(s.pbc)
        assert np.allclose(s.cell, np.diag([10.0, 10.0, 10.0]))

    def test_count_mismatch_names_line(self):
        text = "5\ncomment\nAl 0 0 0\nAl 1 0 0\nAl 2 0 0\nAl 3 0 0\n"
        with pytest.raises(ParseError, match="line 7"):
            parse_xyz(text)

    def test_unknown_species(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_xyz("1\nc\nXe 0 0 0\n")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_xyz("2\nc\nAl 0 0 0\nAl 1 zz 0\n")

    def test_large_census(self):
        # species census of a growth-cell-sized sample: 2880 Al, 1530 O, 60 H
        rng = np.random.default_rng(0)
        species = ["Al"] * 2880 + ["O"] * 1530 + ["H"] * 60
        pos = rng.uniform(0, 1, size=(4470, 3)) * np.array([34.17, 34.17, 78.26])
        lines = ["4470", 'Lattice="34.17 0 0 0 34.17 0 0 0 78.26"']
        lines += [f"{s} {p[0]:.6f} {p[1]:.6f} {p[2]:.6f}" for s, p in zip(species, pos)]
        s = parse_xyz("\n".join(lines) + "\n")
        assert len(s) == 4470
        assert s.species.count("Al") == 2880
        assert s.species.count("O") == 1530
        assert s.species.count("H") == 60

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        s = AtomicStructure(
            cell=np.diag([8.0, 9.0, 10.0]),
            pbc=(True, True, True),
            species=("Al", "O", "H", "O"),
            positions=rng.uniform(0, 8, size=(4, 3)),
        )
        again = parse_xyz(to_xyz(s))
        assert again.species == s.species
        assert np.max(np.abs(again.positions - s.positions)) < 1e-6
        assert np.max(np.abs(again.cell - s.cell)) < 1e-6


@st.composite
def xyz_texts(draw):
    """`to_xyz` text of a periodic cell of 1 to 30 atoms, with its atom count."""
    n = draw(st.integers(1, 30))
    species = tuple(draw(st.lists(st.sampled_from(SPECIES), min_size=n, max_size=n)))
    coord = st.floats(-50.0, 50.0, allow_nan=False)
    pos = draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n))
    s = AtomicStructure(cell=np.diag([20.0] * 3), pbc=(True,) * 3, species=species, positions=pos)
    return to_xyz(s), n


def _swap_first(row, token):
    return " ".join([token, *row.split()[1:]])


def _shift_label(rows, k):
    """Row k gains a fifth token and the next row (cyclically) loses its
    label, so the block still holds 4 tokens per atom."""
    rows = list(rows)
    rows[k] += " O"
    nxt = (k + 1) % len(rows)
    rows[nxt] = rows[nxt].split(None, 1)[1]
    return rows


# Atom-block edits (rows, k) -> rows that the row loop rejects.
MALFORMED = {
    "short block": lambda rows, k: rows[:k] + rows[k + 1 :],
    "unknown label": lambda rows, k: [_swap_first(r, "Xe") if i == k else r for i, r in enumerate(rows)],
    "bad float": lambda rows, k: [r.replace(".", ".1.", 1) if i == k else r for i, r in enumerate(rows)],
    "trailing content": lambda rows, k: rows + ["Al 0 0 0"],
    "3-token row": lambda rows, k: [r.rsplit(None, 1)[0] if i == k else r for i, r in enumerate(rows)],
    "5- then 3-token row": _shift_label,
}


# Atom-block edits the row loop accepts; True where the clean-block pass declines them.
ACCEPTED = {
    "lowercase label": (lambda rows, k: [r.lower() if i == k else r for i, r in enumerate(rows)], True),
    "extra column": (lambda rows, k: [r + " 0.5" if i == k else r for i, r in enumerate(rows)], True),
    "tabs": (lambda rows, k: [r.replace(" ", "\t") for r in rows], False),
    "trailing blank lines": (lambda rows, k: rows + ["", "  \t"], False),
}


class TestParseFastPath:
    """The clean-block pass of parse_xyz against the row loop it short-cuts."""

    @given(xyz_texts())
    def test_round_trip_matches_row_loop(self, drawn):
        text, n = drawn
        lines = text.splitlines()
        assert structure._clean_atom_block(lines, n) is not None
        s = parse_xyz(text)
        species, positions = structure._atom_rows(lines, n)
        assert s.species == species
        assert np.array_equal(s.positions, positions)

    @given(xyz_texts(), st.sampled_from(sorted(MALFORMED)), st.data())
    def test_malformed_block_names_row_loop_line(self, drawn, mutation, data):
        text, n = drawn
        lines = text.splitlines()
        k = data.draw(st.integers(0, n - 1))
        lines = lines[:2] + MALFORMED[mutation](lines[2:], k)
        with pytest.raises(ParseError) as slow:
            structure._atom_rows(lines, n)
        with pytest.raises(ParseError) as fast:
            parse_xyz("\n".join(lines) + "\n")
        assert fast.value.line == slow.value.line

    @given(xyz_texts(), st.sampled_from(sorted(ACCEPTED)), st.data())
    def test_variant_block_parses_as_row_loop(self, drawn, variant, data):
        text, n = drawn
        lines = text.splitlines()
        edit, declined = ACCEPTED[variant]
        lines = lines[:2] + edit(lines[2:], data.draw(st.integers(0, n - 1)))
        if declined:
            assert structure._clean_atom_block(lines, n) is None
        s = parse_xyz("\n".join(lines) + "\n")
        species, positions = structure._atom_rows(lines, n)
        assert s.species == species
        assert np.array_equal(s.positions, positions)


class TestNeighborGraph:
    def test_minimum_image_wraparound(self):
        s = AtomicStructure(
            cell=np.diag([10.0, 10.0, 10.0]),
            pbc=(True, True, True),
            species=("O", "O"),
            positions=[[0.2, 5, 5], [9.8, 5, 5]],
        )
        g = neighbor_graph(s)
        assert g.neighbors(0) == [(1, pytest.approx(0.4))]

    def test_oh_cutoff(self):
        near = make_molecule(["O", "H"], [(0, 0, 0), (0.97, 0, 0)])
        far = make_molecule(["O", "H"], [(0, 0, 0), (1.5, 0, 0)])
        assert neighbor_graph(near).neighbors(0) == [(1, pytest.approx(0.97))]
        assert neighbor_graph(far).neighbors(0) == []

    def test_against_brute_force_gas(self):
        rng = np.random.default_rng(21)
        species = tuple(rng.choice(["Al", "O", "H"], size=100))
        s = AtomicStructure(
            cell=np.diag([10.0, 11.0, 12.0]),
            pbc=(True, True, True),
            species=species,
            positions=rng.uniform(0, 10, size=(100, 3)),
        )
        g = neighbor_graph(s)
        assert g.edge_set() == brute_force_edges(s)

    def test_against_brute_force_slab(self):
        from conftest import make_oxide_slab

        s = make_oxide_slab(n_h=3, jitter=0.15, seed=5)
        g = neighbor_graph(s)
        assert g.edge_set() == brute_force_edges(s)

    def test_against_brute_force_wrapped_mixed_pbc(self):
        # Atoms up to a quarter cell outside [0, L) on the periodic axes (the
        # 27-image reference stays exact while pair offsets are < 1.5 L), one
        # at exactly -0.0, one at exactly L, and one that np.mod rounds up to L.
        rng = np.random.default_rng(8)
        lengths = np.array([9.0, 10.0, 11.0])
        pos = rng.uniform(-0.25, 1.25, size=(120, 3)) * lengths
        pos[:, 2] -= 0.5 * lengths[2]
        pos[0, 0] = -0.0
        pos[1, 2] = lengths[2]
        pos[2, 0] = -1e-17
        s = AtomicStructure(
            cell=np.diag(lengths),
            pbc=(True, False, True),
            species=tuple(rng.choice(["Al", "O", "H"], size=120)),
            positions=pos,
        )
        g = neighbor_graph(s)
        assert g.edge_set() == brute_force_edges(s)
        for i in range(len(s)):
            for j, d in g.neighbors(i):
                delta = [float(c) for c in pos[j] - pos[i]]
                for ax in (0, 2):
                    delta[ax] -= lengths[ax] * round(delta[ax] / lengths[ax])
                assert d == math.sqrt(delta[0] ** 2 + delta[1] ** 2 + delta[2] ** 2)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        s = AtomicStructure(
            cell=np.diag([9.0, 9.0, 9.0]),
            pbc=(True, False, True),
            species=tuple(rng.choice(["Al", "O"], size=60)),
            positions=rng.uniform(0, 9, size=(60, 3)),
        )
        g = neighbor_graph(s)
        for i in range(len(s)):
            for j, d in g.neighbors(i):
                back = dict(g.neighbors(j))
                assert i in back and abs(back[i] - d) < 1e-12

    def test_cutoff_exceeding_half_cell(self):
        s = AtomicStructure(
            cell=np.diag([5.0, 20.0, 20.0]),
            pbc=(True, True, True),
            species=("Al", "Al"),
            positions=[[0, 0, 0], [2, 0, 0]],
        )
        # The default cutoffs (largest 2.2 A) fit this cell; an Al-Al one of 3 A does not.
        neighbor_graph(s)
        with pytest.raises(ConfigurationError):
            neighbor_graph(s, {("Al", "Al"): 3.0})

    def test_al_al_unbonded_by_default(self):
        s = make_molecule(["Al", "Al", "O"], [(0, 0, 0), (2.5, 0, 0), (0, 1.8, 0)])
        assert neighbor_graph(s).edge_set() == {(0, 2)}
        assert neighbor_graph(s, {("Al", "Al"): 3.0}).edge_set() == {(0, 1), (0, 2)}

    def test_triclinic_rejected(self):
        cell = np.array([[10.0, 0, 0], [3.0, 10.0, 0], [0, 0, 10.0]])
        s = AtomicStructure(cell=cell, pbc=(True, True, True), species=("Al",), positions=[[1, 1, 1]])
        with pytest.raises(ConfigurationError):
            neighbor_graph(s)

    def test_cutoff_override(self):
        s = make_molecule(["O", "H"], [(0, 0, 0), (1.5, 0, 0)])
        g = neighbor_graph(s, {("O", "H"): 1.8})
        assert g.neighbors(0) == [(1, pytest.approx(1.5))]

    @given(cells_and_cutoffs())
    def test_csr_equals_all_pairs_reference(self, case):
        s, overrides = case
        g = neighbor_graph(s, overrides)
        indptr, indices, distances = all_pairs_csr(s, overrides)
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)
        assert np.array_equal(g.distances, distances)

    @pytest.mark.parametrize("pbc", list(itertools.product((False, True), repeat=3)))
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_atoms_give_empty_graph(self, pbc, n):
        s = AtomicStructure(
            cell=np.diag([10.0, 11.0, 12.0]),
            pbc=pbc,
            species=("Al",) * n,
            positions=np.full((n, 3), 1.0),
        )
        g = neighbor_graph(s)
        assert g.indptr.tolist() == [0] * (n + 1)
        assert g.indices.size == 0 and g.distances.size == 0

    @pytest.mark.parametrize("span", [1e12, 1e20])
    def test_wide_non_periodic_span(self, span):
        pos = [[0, 0, 0], [1.0, 0, 0], [span, 0, 0], [span, 1.0, 0], [span / 2, 0, span]]
        s = make_molecule(["Al", "Al", "O", "H", "Al"], pos)
        al_al = {("Al", "Al"): 3.0}
        # No bin index may overflow its integer type on the way.
        with np.errstate(all="raise"):
            g = neighbor_graph(s, al_al)
        assert g.indptr.tolist() == [0, 1, 2, 3, 4, 4]
        assert g.edge_set() == brute_force_edges(s, al_al) == {(0, 1), (2, 3)}

    @pytest.mark.parametrize("length", [1e9, 1e100])
    def test_huge_periodic_cell(self, length):
        # At 1e100, L - 0.5 and L - 1 both round to L, so the minimum-image
        # formula puts atom 2 at distance 0 from atoms 0 and 1; the unlisted
        # H-H pair 1-2 must stay unbonded all the same.
        s = AtomicStructure(
            cell=np.diag([length] * 3),
            pbc=(True, True, True),
            species=("O", "H", "H", "Al"),
            positions=[[0, 0, 0], [1, 0, 0], [length - 0.5, 0, 0], [length / 2] * 3],
        )
        g = neighbor_graph(s)
        assert g.indptr.tolist() == [0, 2, 3, 4, 4]
        assert g.indices.tolist() == [1, 2, 0, 0]
        half = 0.5 if length == 1e9 else 0.0
        assert g.distances.tolist() == [1.0, half, 1.0, half]


class TestOxideRegion:
    def test_constructed_slab(self):
        species = ["Al"] * 8 + ["O"] * 10 + ["Al"] * 8
        z = [0.5 * i for i in range(8)] + list(np.linspace(5, 8, 10)) + list(np.linspace(5, 8, 8))
        pos = [[i * 0.1, 0, zz] for i, zz in enumerate(z)]
        s = AtomicStructure(
            cell=np.diag([30.0, 30.0, 30.0]), pbc=(False,) * 3, species=tuple(species), positions=pos
        )
        region = oxide_region(s)
        assert region.z_lo == pytest.approx(4.5)
        assert region.z_hi == pytest.approx(8.5)
        assert region.n_o == 10
        assert region.n_al == 8

    def test_all_oxygen(self):
        s = make_molecule(["O", "O", "O"], [(0, 0, 0), (0, 0, 2), (0, 0, 4)])
        region = oxide_region(s)
        assert len(region.members) == 3

    def test_no_oxygen(self):
        s = make_molecule(["Al", "Al"], [(0, 0, 0), (0, 0, 2)])
        with pytest.raises(ValueError):
            oxide_region(s)

    def test_oxide_straddling_periodic_z_boundary_rejected(self):
        # O at z = 0.5 and 19.5 in a 20 A cell: on a periodic z axis the oxide
        # wraps across z = 0, and the O interval would take in the whole cell.
        species = ("Al", "O", "O", "Al", "Al")
        pos = [(0, 0, 1.0), (1, 0, 0.5), (1, 0, 19.5), (0, 0, 19.0), (0, 0, 10.0)]
        cell = np.diag([10.0, 10.0, 20.0])
        wrapped = AtomicStructure(cell=cell, pbc=(True,) * 3, species=species, positions=pos)
        with pytest.raises(ValueError, match="straddle the periodic z boundary"):
            oxide_region(wrapped)
        open_z = AtomicStructure(cell=cell, pbc=(True, True, False), species=species, positions=pos)
        assert oxide_region(open_z).n_al == 3


class TestStoichiometry:
    def test_simple_ratio(self):
        species = ["Al"] * 8 + ["O"] * 10
        pos = [[i, 0, 5.0] for i in range(18)]
        s = AtomicStructure(
            cell=np.diag([40.0, 10.0, 10.0]), pbc=(False,) * 3, species=tuple(species), positions=pos
        )
        x, h = stoichiometry(oxide_region(s))
        assert x == pytest.approx(1.25)
        assert h == 0.0

    def test_with_hydrogen(self):
        species = ["Al"] * 40 + ["O"] * 50 + ["H"] * 2
        pos = [[i * 0.3, 0, 5.0] for i in range(92)]
        s = AtomicStructure(
            cell=np.diag([40.0, 10.0, 10.0]), pbc=(False,) * 3, species=tuple(species), positions=pos
        )
        x, h = stoichiometry(oxide_region(s))
        assert x == pytest.approx(1.25)
        assert h == pytest.approx(100.0 * 2 / 92)

    def test_zero_al(self):
        s = make_molecule(["O", "O"], [(0, 0, 0), (1, 0, 0)])
        with pytest.raises(ValueError):
            stoichiometry(oxide_region(s))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        species = ["Al"] * 12 + ["O"] * 15 + ["H"] * 3
        pos = rng.uniform(0, 8, size=(30, 3))
        order = rng.permutation(30)
        s1 = AtomicStructure(
            cell=np.diag([20.0] * 3), pbc=(False,) * 3, species=tuple(species), positions=pos
        )
        s2 = AtomicStructure(
            cell=np.diag([20.0] * 3),
            pbc=(False,) * 3,
            species=tuple(species[i] for i in order),
            positions=pos[order],
        )
        assert stoichiometry(oxide_region(s1)) == stoichiometry(oxide_region(s2))

    def test_ensemble_near_target(self):
        rng = np.random.default_rng(33)
        xs = []
        for _ in range(400):
            n_al, n_o = 40, 50 + int(rng.integers(-1, 2))
            species = ["Al"] * n_al + ["O"] * n_o
            pos = [[i * 0.2, 0, 5.0] for i in range(n_al + n_o)]
            s = AtomicStructure(
                cell=np.diag([40.0, 10.0, 10.0]),
                pbc=(False,) * 3,
                species=tuple(species),
                positions=pos,
            )
            xs.append(stoichiometry(oxide_region(s))[0])
        assert 1.23 <= float(np.mean(xs)) <= 1.27


def make_terrace(heights, spacing=1.0):
    """O columns on a lateral grid with per-column top heights."""
    species, pos = [], []
    for (i, j), top in np.ndenumerate(np.asarray(heights, dtype=float)):
        for z in np.arange(0.0, top + 0.5, 1.0):
            species.append("O")
            pos.append([i * spacing, j * spacing, z])
    return AtomicStructure(
        cell=np.diag([40.0, 40.0, 40.0]), pbc=(False,) * 3, species=tuple(species), positions=pos
    )


class TestSurfaceSites:
    def test_flat_slab_top_layer(self):
        s = make_terrace(np.full((4, 4), 5.0), spacing=2.0)
        region = oxide_region(s)
        sites = surface_sites(s, region, depth=2.0, bin_width=4.0)
        for idx in range(len(s)):
            z = s.positions[idx][2]
            assert (idx in sites) == (z >= 3.0)

    def test_pit_bottom_is_its_cells_surface(self):
        heights = np.full((8, 8), 6.0)
        heights[4, 4] = 3.0  # 3 A deep pit
        s = make_terrace(heights, spacing=4.0)  # one column per 4 A cell
        region = oxide_region(s)
        sites = surface_sites(s, region, depth=2.0, bin_width=4.0)
        pit_top = [
            i
            for i in range(len(s))
            if np.allclose(s.positions[i][:2], [16.0, 16.0]) and s.positions[i][2] == 3.0
        ]
        assert pit_top and all(i in sites for i in pit_top)

    def test_stepped_vs_bruteforce(self):
        rng = np.random.default_rng(6)
        heights = rng.integers(3, 9, size=(5, 5)).astype(float)
        s = make_terrace(heights, spacing=2.0)
        region = oxide_region(s)
        depth, bin_width = 2.0, 4.0
        sites = surface_sites(s, region, depth=depth, bin_width=bin_width)

        # independent per-atom re-evaluation with explicit cell arithmetic
        # (same documented partition: far-edge atoms fold into the last bin)
        members = list(region.members)
        xy = s.positions[members][:, :2]
        mins, maxs = xy.min(axis=0), xy.max(axis=0)
        nbins = [max(1, math.ceil((maxs[ax] - mins[ax]) / bin_width)) for ax in range(2)]
        cell_of = {}
        for idx, (x, y) in zip(members, xy):
            key = (
                min(int((x - mins[0]) // bin_width), nbins[0] - 1),
                min(int((y - mins[1]) // bin_width), nbins[1] - 1),
            )
            cell_of.setdefault(key, []).append(idx)
        expected = set()
        for key, idxs in cell_of.items():
            top = max(s.positions[i][2] for i in idxs)
            expected.update(i for i in idxs if s.positions[i][2] >= top - depth)
        assert sites == expected

    def test_depth_monotonicity(self):
        rng = np.random.default_rng(13)
        s = make_terrace(rng.integers(3, 9, size=(4, 4)).astype(float), spacing=2.0)
        region = oxide_region(s)
        previous = frozenset()
        for depth in (0.5, 1.5, 3.0, 50.0):
            sites = surface_sites(s, region, depth=depth, bin_width=4.0)
            assert previous <= sites
            previous = sites
        assert previous == frozenset(region.members)

    def test_invalid_arguments(self):
        s = make_terrace(np.full((2, 2), 3.0))
        region = oxide_region(s)
        with pytest.raises(ValueError):
            surface_sites(s, region, depth=-1.0)
        with pytest.raises(ValueError):
            surface_sites(s, region, bin_width=0.0)


def reference_region(s, padding=0.5):
    """One structure's oxide region or its rejection message, by the
    per-structure formulas: sorted O heights, the widest gap against the gap
    across a periodic z boundary, and an interval census."""
    z = s.positions[:, 2]
    o = s.indices_of("O")
    if not o.size:
        return "structure contains no O atoms; cannot locate an oxide region"
    z_o = np.sort(z[o])
    if s.pbc[2] and o.size > 1:
        across = z_o[0] + abs(s.cell[2, 2]) - z_o[-1]
        widest = np.diff(z_o).max()
        if widest > across:
            return (
                f"O atoms straddle the periodic z boundary: a {widest:.6g} A gap between "
                f"O heights is wider than the {across:.6g} A gap across the boundary"
            )
    lo, hi = float(z_o[0] - padding), float(z_o[-1] + padding)
    inside = (z >= lo) & (z <= hi)
    counts = [int(np.count_nonzero(inside[s.indices_of(k)])) for k in SPECIES]
    return structure.OxideRegion(lo, hi, tuple(np.flatnonzero(inside).tolist()), *counts)


def reference_surface(s, members, depth, bin_width):
    """Surface sites among `members` by one np.unique over the lateral cells
    of one structure."""
    members = np.array(members, dtype=int)
    pos = s.positions[members]
    keys = []
    for axis in range(2):
        coords = pos[:, axis]
        if s.pbc[axis]:
            span, wrapped = abs(s.cell[axis, axis]), np.mod(coords, abs(s.cell[axis, axis]))
        else:
            span, wrapped = coords.max() - coords.min(), coords - coords.min()
        nbins = max(1, math.ceil(span / bin_width)) if span > 0 else 1
        keys.append(np.minimum((wrapped / bin_width).astype(int), nbins - 1))
    _, cell = np.unique(keys[0] * (keys[1].max() + 1) + keys[1], return_inverse=True)
    heights = np.full(cell.max() + 1, -np.inf)
    np.maximum.at(heights, cell, pos[:, 2])
    return frozenset(members[pos[:, 2] >= heights[cell] - depth].tolist())


@st.composite
def oxide_batches(draw):
    """One to five slabs: random Al/O/H columns in a cell periodic or not on
    each axis, some shifted along z so that the oxide straddles the boundary."""
    structures = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 30))
        lengths = np.array([draw(st.floats(5.0, 20.0)) for _ in range(3)])
        frac = st.floats(-0.2, 1.2)
        rows = st.lists(st.tuples(frac, frac, st.floats(0.0, 0.5)), min_size=n, max_size=n)
        pos = np.array(draw(rows))
        pos = pos.reshape(n, 3) * lengths
        shift = draw(st.sampled_from([0.0, 0.0, 0.8])) * lengths[2]
        pos[:, 2] = np.mod(pos[:, 2] + shift, lengths[2])
        pbc = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
        species = tuple(draw(st.lists(st.sampled_from(SPECIES), min_size=n, max_size=n)))
        cell = np.diag(lengths)
        structures.append(AtomicStructure(cell=cell, pbc=pbc, species=species, positions=pos))
    return structures, draw(st.sampled_from([0.5, 2.0])), draw(st.sampled_from([1.5, 4.0]))


class TestBatchReductions:
    @given(oxide_batches())
    def test_regions_and_surface_match_per_structure_reference(self, case):
        structures, depth, bin_width = case
        batch = structure.StructureBatch(structures)
        regions, members = structure.oxide_regions(batch)
        mask = structure.surface_mask(batch, members, depth, bin_width)
        for c, s in enumerate(structures):
            expected = reference_region(s)
            assert regions[c] == expected
            local = mask[batch.offsets[c] : batch.offsets[c + 1]]
            if isinstance(expected, str):
                assert not members[batch.offsets[c] : batch.offsets[c + 1]].any()
                assert not local.any()
            else:
                assert frozenset(np.flatnonzero(local).tolist()) == reference_surface(
                    s, expected.members, depth, bin_width
                )


class TestGasArithmetic:
    def test_effective_time_reference_values(self):
        t_eff_ps = effective_time(750, 8.46e-3, 3.0)
        assert t_eff_ps / 1000.0 == pytest.approx(266.0, abs=1.0)  # ns

    def test_identity_and_linearity(self):
        assert effective_time(5.0, 5.0, 7.7) == pytest.approx(7.7)
        assert effective_time(10, 0.5, 2.0) == pytest.approx(2 * effective_time(10, 1.0, 2.0))

    def test_bad_reference(self):
        with pytest.raises(ValueError):
            effective_time(10, 0.0, 1.0)

    def test_ideal_gas_direct_value(self):
        # direct constant arithmetic for the growth-cell conditions; this
        # deliberately differs from the 8.46e-3 reference count (see README)
        volume = 34.17 * 34.17 * 78.26
        expected = 1500.0 * volume * 1e-30 / (BOLTZMANN_KB * 300.0)
        value = ideal_gas_count(1500.0, volume, 300.0)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(3.3092e-2, rel=1e-4)

    def test_pressure_linearity(self):
        assert ideal_gas_count(3000.0, 1e5, 300.0) == pytest.approx(
            2 * ideal_gas_count(1500.0, 1e5, 300.0), rel=1e-12
        )

    def test_density_constant_at_fixed_pt(self):
        n1 = ideal_gas_count(1500.0, 1e5, 300.0) / 1e5
        n2 = ideal_gas_count(1500.0, 3e5, 300.0) / 3e5
        assert n1 == pytest.approx(n2, rel=1e-12)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            ideal_gas_count(-1.0, 1.0, 1.0)
