"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` (or -s for the PASS lines).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from jjvar.cli import main
from jjvar.josephson import ej_distribution, ej_single
from jjvar.motifs import MOTIF_CLASSES, classify_batch
from jjvar.stats import BetaBinomial, CountSample, fit
from jjvar.structure import AtomicStructure, StructureBatch, oxide_regions, stoichiometry
from jjvar.transport import (
    apply_defect,
    calibrate_barrier,
    default_model,
    fit_transmission_shift,
    transfer_matrix_transmission,
    transmission,
)

from conftest import make_molecule, make_oxide_slab, nine_motif_fixtures, write_structure_dir
from stats_reference import sample
from test_cli import _run_cli, read_dir_bytes, write_counts_file
from transport_reference import band_halfwidth


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def test_criterion_01_beta_binomial_moments():
    start = time.perf_counter()
    dist = BetaBinomial.from_shapes(17.69, 15.36, 40)
    mean, std = dist.mean(), dist.std()
    elapsed = time.perf_counter() - start
    assert mean == pytest.approx(21.41, abs=0.01)
    assert std == pytest.approx(4.62, abs=0.01)
    assert elapsed < 1.0
    report(1, f"mean={mean:.4f} (21.41±0.01), std={std:.4f} (4.62±0.01), {elapsed:.3f}s")


def test_criterion_02_pmf_normalization():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        dist = BetaBinomial.from_shapes(
            float(10 ** rng.uniform(-1.3, 1.7)),
            float(10 ** rng.uniform(-1.3, 1.7)),
            int(rng.integers(0, 201)),
        )
        worst = max(worst, abs(np.asarray(dist.pmf_vector()).sum() - 1.0))
    assert worst <= 1e-12
    report(2, f"100 random triples, max |sum pmf - 1| = {worst:.2e} <= 1e-12")


def test_criterion_03_fit_recovery():
    start = time.perf_counter()
    generator = BetaBinomial.from_shapes(17.69, 15.36, 40)
    hits = 0
    for rep in range(20):
        draws = sample(generator, seed=31000 + rep, k=400)
        result = fit(CountSample(tuple(int(n) for n in draws)), trials=40)
        mean_ok = abs(result.dist.mean() - generator.mean()) <= 0.5
        var_ok = abs(result.dist.variance() - generator.variance()) <= 0.15 * generator.variance()
        hits += int(mean_ok and var_ok)
    elapsed = time.perf_counter() - start
    assert hits >= 18
    assert elapsed < 30.0
    report(3, f"{hits}/20 runs recovered mean±0.5 and var±15%, {elapsed:.2f}s")


def test_criterion_04_negf_oracle_equivalence():
    from jjvar.transport import JunctionModel

    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        model = JunctionModel(
            lead_onsite=float(rng.uniform(-1, 1)),
            lead_hopping=float(rng.uniform(1.0, 4.0)),
            barrier_onsite=tuple(rng.uniform(-6, 8, size=int(rng.integers(1, 9)))),
            barrier_hopping=float(rng.uniform(0.5, 4.0)),
            coupling=float(rng.uniform(0.5, 4.0)),
        )
        energies = model.lead_onsite + np.linspace(-0.9, 0.9, 21) * band_halfwidth(model)
        negf = transmission(model, energies).values
        for energy, t_negf in zip(energies, negf):
            t_tm = transfer_matrix_transmission(model, float(energy))
            worst = max(worst, abs(t_negf - t_tm) / t_tm)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    report(4, f"50 models x 21 energies, max rel diff = {worst:.2e} <= 1e-10, {elapsed:.2f}s")


def test_criterion_05_perfect_chain_transmission():
    model = default_model(barrier_sites=12, height=0.0)
    half = band_halfwidth(model)
    grid = np.linspace(-0.9 * half, 0.9 * half, 501)
    curve = transmission(model, grid)
    worst = float(np.max(np.abs(curve.values - 1.0)))
    assert worst <= 1e-10
    report(5, f"uniform chain, max |T-1| = {worst:.2e} <= 1e-10 over interior 90% of band")


def test_criterion_06_calibration_to_reference_transmissions():
    cal_jj = calibrate_barrier(1.61e-5, base=default_model(barrier_sites=12))
    cal_jjh = calibrate_barrier(1.74e-5, base=default_model(barrier_sites=12))
    assert abs(cal_jj.transmission - 1.61e-5) <= 1e-3 * 1.61e-5
    delta_v = cal_jjh.height - cal_jj.height
    contaminated = apply_defect(cal_jj.model, delta_v)
    achieved = transmission(contaminated, np.array([0.0])).values[0]
    assert abs(achieved - 1.74e-5) <= 1e-3 * 1.74e-5
    grid = np.linspace(-5.0, 5.0, 2001)
    shift = fit_transmission_shift(
        transmission(cal_jj.model, grid),
        transmission(contaminated, grid),
        window=(-2.0, 2.0),
        shift_bounds=(-1.0, 1.0),
    )
    # toward valence alignment; the 0.8 eV magnitude is specific to the
    # first-principles junction and not reproducible in the stand-in
    assert shift > 0.0
    report(
        6,
        f"T0(JJ)={cal_jj.transmission:.4e}, T0(JJ-H)={achieved:.4e} (both ±0.1%), "
        f"defect shift s={shift:+.4f} eV > 0",
    )


def test_criterion_07_tunneling_decay():
    height = calibrate_barrier(1.61e-5, base=default_model()).height
    lengths = np.arange(4, 17)
    log_t = np.array(
        [
            math.log(
                transmission(default_model(barrier_sites=int(n), height=height), np.array([0.0])).values[0]
            )
            for n in lengths
        ]
    )
    design = np.vstack([lengths, np.ones_like(lengths)]).T.astype(float)
    _, residual, *_ = np.linalg.lstsq(design, log_t, rcond=None)
    r_squared = 1.0 - float(residual[0]) / float(np.sum((log_t - log_t.mean()) ** 2))
    assert r_squared > 0.999
    report(7, f"ln T vs N in 4..16 linear, R^2 = {r_squared:.7f} > 0.999")


def test_criterion_08_headline_ej_distribution():
    start = time.perf_counter()
    gap_mev, area, patch_area, md_area = 0.20, 2000.0 * 2000.0, 9.61 * 8.32, 34.17 * 34.17
    counts = BetaBinomial.from_shapes(17.69, 15.36, 40)
    e_jj = ej_single(1.61e-5, gap_mev, area, patch_area)
    e_jjh = ej_single(1.74e-5, gap_mev, area, patch_area)
    dist = ej_distribution(counts, e_jj, e_jjh, patch_area, md_area)
    elapsed = time.perf_counter() - start
    assert dist.mean() == pytest.approx(10.92, abs=0.05)
    assert dist.std() == pytest.approx(0.26, abs=0.02)
    assert elapsed < 1.0
    report(
        8,
        f"E_J mean={dist.mean():.4f} GHz (10.92±0.05), std={dist.std():.4f} GHz (0.26±0.02), "
        f"{elapsed:.3f}s",
    )


def test_criterion_09_motif_fixtures_and_surface_flags():
    fixtures = nine_motif_fixtures()
    table, _ = classify_batch(StructureBatch([structure for _, structure, _ in fixtures]))
    correct = 0
    for c, (label, _, h_indices) in enumerate(fixtures):
        rows = table.structure == c
        labels = dict(zip(table.h_index[rows].tolist(), (MOTIF_CLASSES[k] for k in table.label[rows])))
        correct += int(all(labels[h] == label for h in h_indices))
    assert correct == 9

    # A top-layer H flagged, an H under a second O layer not: (H index, flag).
    top = make_oxide_slab(n_h=1)
    buried = make_molecule(
        ["Al", "O", "O", "H"], [(0, 0, 0), (0, 0, 1.8), (0, 0, 5.0), (0.95, 0, 1.6)]
    )
    batch = StructureBatch([top, buried])
    flags, _ = classify_batch(batch, members=oxide_regions(batch)[2])
    found = [
        list(zip(flags.h_index[rows].tolist(), flags.surface[rows].tolist()))
        for rows in (flags.structure == c for c in range(batch.count))
    ]
    surface_ok = int(found[0] == [(len(top) - 1, True)]) + int(found[1] == [(3, False)])
    assert surface_ok == 2
    report(9, f"motif fixtures {correct}/9, surface flags {surface_ok}/2")


def test_criterion_10_engineered_stoichiometry():
    # 812 Al : 1015 O : 48 H gives x = 1015/812 = 1.25 and
    # 100*48/1875 = 2.56 at.% exactly
    rng = np.random.default_rng(10)
    structures = []
    for _ in range(5):
        species = ("Al",) * 812 + ("O",) * 1015 + ("H",) * 48
        z = np.concatenate(
            [rng.uniform(10.2, 19.8, 812), rng.uniform(10.0, 20.0, 1015), rng.uniform(10.5, 19.5, 48)]
        )
        xy = rng.uniform(0, 34.0, size=(1875, 2))
        s = AtomicStructure(
            cell=np.diag([34.17, 34.17, 78.26]),
            pbc=(True, True, True),
            species=species,
            positions=np.column_stack([xy, z]),
        )
        structures.append(s)
    messages, census, _ = oxide_regions(StructureBatch(structures))
    assert messages == [None] * 5
    xs, hs = stoichiometry(census)
    assert all(x == 1.25 for x in xs)
    assert all(h == pytest.approx(2.56, rel=1e-15) for h in hs)
    report(10, "engineered ensemble: x = 1.25 and 2.56 at.% H reproduced exactly (5/5 samples)")


def test_criterion_11_effective_time():
    from jjvar.structure import effective_time

    t_eff_ns = effective_time(750, 8.46e-3, 3.0) / 1000.0
    assert abs(t_eff_ns - 266.0) <= 1.0
    report(11, f"effective time = {t_eff_ns:.2f} ns (266±1 ns)")


def _criterion_12_config(tmp_path: Path) -> Path:
    counts = write_counts_file(tmp_path / "counts.txt")
    structures = write_structure_dir(tmp_path, h_counts=(1, 2, 3))
    config = tmp_path / "pipeline.cfg"
    config.write_text(
        f"paths.counts = {counts}\n"
        f"paths.structures = {structures}\n"
        "stats.m = fixed=40\n"
        "transport.grid_points = 101\n"
    )
    return config


def test_criterion_12_pipeline_determinism(tmp_path):
    config = _criterion_12_config(tmp_path)
    outs = [tmp_path / f"out{i}" for i in range(3)]
    for out in outs:
        assert main(["--config", str(config), "--out", str(out), "--seed", "7", "pipeline"]) == 0
    first = read_dir_bytes(outs[0])
    assert read_dir_bytes(outs[1]) == first
    assert read_dir_bytes(outs[2]) == first
    report(12, f"three pipeline reruns byte-identical across {len(first)} files")


def test_pipeline_in_a_fresh_process_matches_in_process(tmp_path):
    # A CLI process exits through the collector-freezing exit hook; the
    # artifacts it leaves are the bytes an in-process main writes.
    config = _criterion_12_config(tmp_path)
    argv = ["--config", str(config), "--seed", "7", "pipeline"]
    assert main(["--out", str(tmp_path / "in"), *argv]) == 0
    result = _run_cli(["--out", str(tmp_path / "fresh"), *argv])
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith(f"manifest: {tmp_path / 'fresh' / 'manifest.json'}\n")
    assert read_dir_bytes(tmp_path / "fresh") == read_dir_bytes(tmp_path / "in")
