"""CLI contract: artifacts, schemas, exit codes, determinism."""

import atexit
import contextlib
import dataclasses
import fnmatch
import gc
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import jjvar
from jjvar import cli, config, motifs, structure, transport
from jjvar.cli import _write_csv, _write_json, main
from jjvar.config import (
    _KEY_MAP,
    MAX_BARRIER_SITES,
    MAX_GRID_POINTS,
    MAX_LEAD_HOPPING,
    PipelineConfig,
    parse_config_text,
)
from jjvar.motifs import MOTIF_CLASSES
from jjvar.stats import MAX_TRIALS, BetaBinomial

from conftest import make_oxide_slab, nine_motif_fixtures, to_xyz, write_structure_dir
from stats_reference import sample


def write_counts_file(path: Path, seed=42, k=400) -> Path:
    draws = sample(BetaBinomial.from_shapes(17.69, 15.36, 40), seed=seed, k=k)
    path.write_text("\n".join(str(int(n)) for n in draws) + "\n")
    return path


def read_dir_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


class TestFitStats:
    def test_synthetic_roundtrip(self, tmp_path):
        counts = write_counts_file(tmp_path / "counts.txt")
        out = tmp_path / "out"
        code = main(["--out", str(out), "fit-stats", "--counts", str(counts), "--m", "fixed=40"])
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["M"] == 40
        assert report["m_strategy"] == "fixed=40"
        assert report["converged"] is True
        assert abs(report["mean"] - 21.41) < 0.7
        hist = (out / "h_histogram.csv").read_text().splitlines()
        assert hist[0] == "n,observed,fitted_pmf"
        assert len(hist) == 42

    def test_report_carries_p_theta_and_the_shapes(self, tmp_path):
        counts = write_counts_file(tmp_path / "counts.txt")
        out = tmp_path / "out"
        assert main(["--out", str(out), "fit-stats", "--counts", str(counts), "--m", "fixed=40"]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert 0 < report["p"] < 1 and report["theta"] > 0
        assert report["alpha"] == report["p"] / report["theta"]
        assert report["beta"] == (1 - report["p"]) / report["theta"]

    @pytest.mark.parametrize(
        "counts,strategy,p",
        [("0\n1\n2\n", "fixed=100000", 1e-5), ("3\n4\n5\n4\n", "fixed=40", 0.1)],
        ids=["0-1-2-at-max-trials", "3-4-5-4"],
    )
    def test_underdispersed_counts_fit_the_binomial(self, tmp_path, counts, strategy, p):
        # No overdispersion: the binomial is the fit, with alpha and beta null.
        path = tmp_path / "counts.txt"
        path.write_text(counts)
        out = tmp_path / "out"
        assert main(["--out", str(out), "fit-stats", "--counts", str(path), "--m", strategy]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert (report["p"], report["theta"], report["alpha"], report["beta"]) == (p, 0.0, None, None)
        assert report["converged"] is True and report["iterations"] == 0
        # The binomial log-likelihood at the reported p, in 50 digits.
        with mpmath.workdps(50):
            m, p = report["M"], mpmath.mpf(report["p"])
            binomial = mpmath.fsum(
                mpmath.log(mpmath.binomial(m, c)) + c * mpmath.log(p) + (m - c) * mpmath.log(1 - p)
                for c in map(int, counts.split())
            )
        assert report["log_likelihood"] == pytest.approx(float(binomial), rel=1e-15, abs=0.0)

    def test_empty_file_exits_2(self, tmp_path):
        empty = tmp_path / "counts.txt"
        empty.write_text("\n")
        assert main(["--out", str(tmp_path / "o"), "fit-stats", "--counts", str(empty)]) == 2

    @pytest.mark.parametrize(
        "name,text,bad",
        [
            ("counts.txt", "1\n2\nabc\n", "abc"),
            ("counts.txt", "1\n2\n-3\n", "-3"),
            ("counts.csv", "sample,n_h\na,1\nb,-3\n", "-3"),
        ],
        ids=["word", "negative", "negative-csv"],
    )
    def test_bad_count_exits_2_naming_path_and_line(self, tmp_path, capsys, name, text, bad):
        path = tmp_path / name
        path.write_text(text)
        assert main(["--out", str(tmp_path / "o"), "fit-stats", "--counts", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 3: bad count {bad!r}\n"

    def test_missing_file_exits_2(self, tmp_path):
        missing = tmp_path / "absent.txt"
        assert main(["--out", str(tmp_path / "o"), "fit-stats", "--counts", str(missing)]) == 2

    def test_counts_from_structures(self, tmp_path):
        # overdispersed census so the interior MLE exists
        directory = write_structure_dir(tmp_path, h_counts=(0, 0, 1, 2, 3, 5, 6, 6))
        out = tmp_path / "out"
        code = main(["--out", str(out), "fit-stats", "--structures", str(directory), "--m", "fixed=8"])
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["n_samples"] == 8

    def test_census_skips_unparsable_file(self, tmp_path, capsys):
        directory = write_structure_dir(tmp_path, h_counts=(0, 0, 1, 2, 3, 5, 6, 6), corrupt=1)
        out = tmp_path / "out"
        code = main(["--out", str(out), "fit-stats", "--structures", str(directory), "--m", "fixed=8"])
        assert code == 0
        assert "warning: skipping corrupt_000.xyz" in capsys.readouterr().err
        report = json.loads((out / "fit_report.json").read_text())
        assert report["n_samples"] == 8
        assert [entry["file"] for entry in report["skipped"]] == ["corrupt_000.xyz"]
        assert report["skipped"][0]["error"]

    def test_census_all_unparsable_exits_2(self, tmp_path):
        directory = tmp_path / "structures"
        directory.mkdir()
        (directory / "bad.xyz").write_text("not a structure\n")
        code = main(["--out", str(tmp_path / "o"), "fit-stats", "--structures", str(directory)])
        assert code == 2

    @pytest.mark.parametrize(
        "counts,strategy",
        [
            ("1\n2\n1000000000000\n", "scan"),
            ("1\n2\n3\n", "fixed=1000000000000"),
            ("1\n2\n3\n", "scan=1:1000000000000"),
        ],
        ids=["count", "fixed", "scan-bound"],
    )
    def test_trial_number_above_bound_exits_2(self, tmp_path, capsys, counts, strategy):
        # Rejected before any array of M entries exists: at M = 10**12 the
        # histogram alone would need 8 TB.
        path = tmp_path / "counts.txt"
        path.write_text(counts)
        code = main(["--out", str(tmp_path / "o"), "fit-stats", "--counts", str(path), "--m", strategy])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "largest supported trial number" in err


class TestAnalyze:
    def test_three_fixtures(self, tmp_path):
        directory = write_structure_dir(tmp_path, h_counts=(1, 2, 3))
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 0
        rows = (out / "stoichiometry.csv").read_text().splitlines()
        assert rows[0] == "sample,n_al,n_o,n_h,x,h_atpct"
        assert len(rows) == 4
        summary = json.loads((out / "ensemble_summary.json").read_text())
        assert summary["samples"] == 3
        # slab fixture: 9 oxide Al, 18 O inside the region
        assert rows[1].split(",")[1:4] == ["9", "18", "1"]

    def test_corrupt_file_skipped_with_warning(self, tmp_path, capsys):
        directory = write_structure_dir(tmp_path, h_counts=(1, 2), corrupt=1)
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 0
        assert "warning" in capsys.readouterr().err
        rows = (out / "stoichiometry.csv").read_text().splitlines()
        assert len(rows) == 3
        summary = json.loads((out / "ensemble_summary.json").read_text())
        assert len(summary["failures"]) == 1

    def test_cell_volume_overflow_analysed_without_warning(self, tmp_path, capsys):
        # det overflows to inf, a positive volume; pytest makes a numpy
        # RuntimeWarning an error.
        directory = tmp_path / "structures"
        directory.mkdir()
        (directory / "huge.xyz").write_text(
            '3\nLattice="1e308 0 0 0 1e308 0 0 0 1e308"\nAl 0 0 0\nO 1.8 0 0\nH 2.8 0 0\n'
        )
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "stoichiometry.csv").read_text().splitlines()[1].startswith("huge,1,1,1,")

    def test_bounding_box_overflow_skipped_without_warning(self, tmp_path, capsys):
        directory = tmp_path / "structures"
        directory.mkdir()
        (directory / "wide.xyz").write_text("2\nno lattice\nAl -1e308 0 0\nO 1e308 0 0\n")
        assert main(["--out", str(tmp_path / "o"), "analyze", "--structures", str(directory)]) == 2
        assert capsys.readouterr().err == (
            "warning: skipping wide.xyz: cell must be a finite 3x3 matrix\n"
            "error: all 1 structure files were skipped\n"
        )

    def test_all_corrupt_exits_2(self, tmp_path):
        directory = tmp_path / "structures"
        directory.mkdir()
        (directory / "bad.xyz").write_text("not a structure\n")
        assert main(["--out", str(tmp_path / "o"), "analyze", "--structures", str(directory)]) == 2

    def test_motif_table_has_nine_classes(self, tmp_path):
        directory = write_structure_dir(tmp_path, h_counts=(2, 3))
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 0
        table = json.loads((out / "motif_table.json").read_text())
        assert set(table["classes"]) == set(MOTIF_CLASSES)
        assert len(table["classes"]) == 9
        motifs = (out / "motifs.csv").read_text().splitlines()
        assert motifs[0] == "sample,h_index,class,surface"
        assert len(motifs) == 1 + 2 + 3


    def test_bonds_only_the_classifier_rows(self, tmp_path, monkeypatch, slab_dir):
        # A cell too short to bond sorts after the three slabs, in the same batch.
        (slab_dir / "short.xyz").write_text(to_xyz(make_oxide_slab(n_h=1, lateral=1)))
        queries = []
        graph = structure.CellList.graph

        def spy(self, centres):
            queries.append((self.batch, np.asarray(centres)))
            return graph(self, centres)

        monkeypatch.setattr(structure.CellList, "graph", spy)
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(slab_dir)]) == 0
        (batch, centres), *_ = queries
        bondable = batch.cell_of < 3
        h_atoms = [i for i, k in enumerate(batch.kind) if structure.SPECIES[k] == "H" and bondable[i]]
        assert len(h_atoms) == 1 + 2 + 3
        assert centres.tolist() == h_atoms
        # The hydride branch takes its O partner from the bond query, so no
        # module binds a per-H distance scan any more.
        jjvar_modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "jjvar"]
        assert not any(hasattr(module, "mic_distances") for module in jjvar_modules)
        assert len((out / "motifs.csv").read_text().splitlines()) == 1 + (1 + 2 + 3)

    def test_cell_shorter_than_twice_the_reach_exits_2(self, tmp_path, capsys):
        directory = tmp_path / "structures"
        directory.mkdir()
        # 2.8 A periodic laterals: less than twice the 2.2 A Al-O cutoff.
        (directory / "short.xyz").write_text(to_xyz(make_oxide_slab(n_h=1, lateral=1)))
        assert main(["--out", str(tmp_path / "o"), "analyze", "--structures", str(directory)]) == 2
        err = capsys.readouterr().err
        assert "warning: skipping short.xyz: cutoff 2.2 A >= half cell length 1.4 A" in err
        assert err.endswith("error: all 1 structure files were skipped\n")

    def test_parse_error_names_the_file_once(self, tmp_path, capsys):
        directory = write_structure_dir(tmp_path, h_counts=(1, 2))
        (directory / "short.xyz").write_text("3\ncomment\nAl 0 0 0\nO 1.8 0 0\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 0
        message = "line 5: expected atom row 3 of 3"
        assert capsys.readouterr().err == f"warning: skipping short.xyz: {message}\n"
        failures = json.loads((out / "ensemble_summary.json").read_text())["failures"]
        assert failures == [{"file": "short.xyz", "error": message}]

    def test_pipeline_lists_the_parse_error_once(self, tmp_path, capsys):
        directory = tmp_path / "structures"
        directory.mkdir()
        (directory / "short.xyz").write_text("3\ncomment\nAl 0 0 0\nO 1.8 0 0\n")
        config = tmp_path / "pipeline.cfg"
        config.write_text(f"paths.structures = {directory}\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "pipeline"]) == 2
        (fit, *_) = json.loads((out / "manifest.json").read_text())["stages"]
        assert fit["error"] == "all 1 structure files were skipped"
        assert fit["skipped"] == [{"file": "short.xyz", "error": "line 5: expected atom row 3 of 3"}]
        assert "warning: skipping short.xyz: line 5: expected atom row 3 of 3\n" in capsys.readouterr().err

    def test_file_without_oxide_al_is_skipped_not_unparsed(self, tmp_path, capsys):
        directory = tmp_path / "structures"
        directory.mkdir()
        (directory / "s1.xyz").write_text(
            '3\nLattice="10 0 0 0 10 0 0 0 10"\nO 0 0 5\nO 1.2 0 5\nH 0 0 6\n'
        )
        assert main(["--out", str(tmp_path / "o"), "analyze", "--structures", str(directory)]) == 2
        assert capsys.readouterr().err == (
            f"warning: skipping s1.xyz: {structure.NO_AL_MESSAGE}\n"
            "error: all 1 structure files were skipped\n"
        )

    @pytest.mark.parametrize("h_counts", [(2, 0, 3), (0, 0)], ids=["with-h", "no-h"])
    def test_motif_table_is_motif_statistics_of_the_written_columns(self, tmp_path, h_counts):
        directory = write_structure_dir(tmp_path, h_counts=h_counts)
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 0
        names = [row.split(",")[0] for row in (out / "stoichiometry.csv").read_text().splitlines()[1:]]
        rows = [row.split(",") for row in (out / "motifs.csv").read_text().splitlines()[1:]]
        payload = motifs.motif_statistics(
            np.array([MOTIF_CLASSES.index(row[2]) for row in rows], dtype=int),
            np.array([row[3] == "1" for row in rows], dtype=bool),
            np.array([names.index(row[0]) for row in rows], dtype=int),
            len(names),
        )
        # _write_json writes NaN, the mean of no H, as null.
        written = json.loads((out / "motif_table.json").read_text())
        assert written == json.loads(json.dumps(cli._json_ready(payload)))
        assert (written["samples"], written["samples_with_h"]) == (len(h_counts), sum(map(bool, h_counts)))


class TestTransmissionCommand:
    def test_calibration_and_grid(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "transmission", "--grid", "101"]) == 0
        sidecar = json.loads((out / "calibration.json").read_text())
        assert sidecar["jj"]["transmission"] == pytest.approx(1.61e-5, rel=1e-3)
        assert sidecar["jj_h"]["transmission"] == pytest.approx(1.74e-5, rel=1e-3)
        assert sidecar["jj_h"]["delta_v_ev"] < 0
        assert sidecar["curve_shift_ev"] > 0
        for name in ("transmission_jj.csv", "transmission_jj_h.csv"):
            rows = (out / name).read_text().splitlines()
            assert rows[0] == "energy_ev,transmission"
            assert len(rows) == 102

    def test_shift_fit_skips_most_of_the_scan(self, tmp_path, monkeypatch):
        # A full scan makes 840 objective evaluations (801 points and the
        # golden section); the pruned scan must find the same shift.
        calls = []
        interp = transport.np.interp

        def counting(*args, **kwargs):
            calls.append(None)
            return interp(*args, **kwargs)

        monkeypatch.setattr(transport.np, "interp", counting)
        out = tmp_path / "out"
        assert main(["--out", str(out), "transmission", "--grid", "20001"]) == 0
        assert len(calls) <= 200
        sidecar = json.loads((out / "calibration.json").read_text())
        assert sidecar["curve_shift_ev"] == 0.010943826707613912

    def test_memory_per_point_bounded(self, tmp_path):
        # The grid and two curves hold 26 bytes per point; the sweep, the
        # shift fit and the CSV writer add at most as much again.
        points = 200_001
        assert main(["--out", str(tmp_path / "warm"), "transmission", "--grid", "101"]) == 0
        tracemalloc.start()
        try:
            assert main(["--out", str(tmp_path / "out"), "transmission", "--grid", str(points)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70 * points

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out1), "transmission", "--grid", "101"]) == 0
        assert main(["--out", str(out2), "transmission", "--grid", "101"]) == 0
        assert read_dir_bytes(out1) == read_dir_bytes(out2)

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--grid", "1000000000000"], ""),
            ([], "transport.barrier_sites = 1000000000000\n"),
        ],
    )
    def test_oversized_transport_exits_2_before_allocating(
        self, tmp_path, monkeypatch, capsys, flags, config
    ):
        def unreachable(*args):
            raise AssertionError("transmission ran on an oversized config")

        monkeypatch.setattr(cli, "cmd_transmission", unreachable)
        path = tmp_path / "cfg.txt"
        path.write_text(config)
        argv = ["--config", str(path), "--out", str(tmp_path / "o"), "transmission", *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_largest_transport_sizes_accepted(self):
        PipelineConfig(grid_points=MAX_GRID_POINTS, barrier_sites=MAX_BARRIER_SITES).validate()

    def test_unreachable_target_exits_3(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("transport.target_jj = 0.5\ntransport.bounds_lo = 8\ntransport.bounds_hi = 20\n")
        code = main(["--config", str(config), "--out", str(tmp_path / "o"), "transmission"])
        assert code == 3


class TestEjCommand:
    def test_default_parameters(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "ej"]) == 0
        report = json.loads((out / "ej_report.json").read_text())
        assert report["mean_ghz"] == pytest.approx(10.92, abs=0.05)
        assert report["std_ghz"] == pytest.approx(0.26, abs=0.02)
        assert report["e_jj_ghz"] == pytest.approx(9.74, abs=0.01)
        assert report["e_jjh_ghz"] == pytest.approx(10.52, abs=0.01)
        # Without --fit-report the counts are the config's shapes as given.
        assert report["counts"] == {"alpha": 17.69, "beta": 15.36, "M": 40}

    @pytest.mark.parametrize(
        "config,report",
        [
            ("stats.alpha = 1e-300\nstats.beta = 1e-300\nstats.trials = 1000\n", None),
            ("stats.alpha = 1e-300\nstats.beta = 1e-300\nstats.trials = 100000\n", None),
            ("stats.alpha = 1e308\nstats.beta = 1e308\n", None),
            ("", {"p": 0.5, "theta": 5e299, "M": 1000}),
            ("", {"p": 0.5, "theta": 5e-309, "M": 40}),
            ("", {"p": 0.1, "theta": 0.0, "M": 40}),
        ],
        ids=[
            "shapes-1e-300",
            "shapes-1e-300-max-trials",
            "shapes-1e308",
            "theta-5e299",
            "theta-5e-309",
            "theta-0",
        ],
    )
    def test_extreme_parameters_give_finite_output(self, tmp_path, config, report):
        path = tmp_path / "cfg.txt"
        path.write_text(config)
        argv = ["--config", str(path), "--out", str(tmp_path / "out"), "ej"]
        if report is not None:
            (tmp_path / "fit.json").write_text(json.dumps(report))
            argv += ["--fit-report", str(tmp_path / "fit.json")]
        assert main(argv) == 0
        rows = (tmp_path / "out" / "ej_pmf.csv").read_text().splitlines()[1:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.isfinite(values).all()
        assert values[:, 1].sum() == pytest.approx(1.0, abs=1e-9)
        result = json.loads((tmp_path / "out" / "ej_report.json").read_text())
        assert all(math.isfinite(result[key]) for key in ("mean_ghz", "std_ghz"))

    def test_pmf_sums_to_one(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "ej"]) == 0
        rows = (out / "ej_pmf.csv").read_text().splitlines()[1:]
        assert len(rows) == 41
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_transmissions(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("transport.target_jj = 1.61e-5\ntransport.target_jjh = 1.61e-5\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "ej"]) == 0
        report = json.loads((out / "ej_report.json").read_text())
        assert report["std_ghz"] == 0.0

    def test_non_finite_ej_names_the_junction_keys(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("junction.gap_mev = 1e308\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "out"), "ej"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: E_J(JJ) = inf GHz") and err.count("\n") == 1
        for key in ("junction.gap_mev", "junction.area", "junction.patch_area"):
            assert key in err

    def test_missing_upstream_exits_2(self, tmp_path):
        code = main(
            ["--out", str(tmp_path / "o"), "ej", "--fit-report", str(tmp_path / "absent.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"p": 0.535, "M": 40},
            {"p": 0.535, "theta": "0.03", "M": 40},
            {"p": 0.535, "theta": None, "M": 40},
            {"p": 0.535, "theta": 0.03, "M": 40.5},
            {"p": 0.535, "theta": 0.03, "M": 10**12},
            {"p": 1.5, "theta": 0.03, "M": 40},
            {"p": 0.535, "theta": -0.03, "M": 40},
            {"p": 0.535, "theta": 1e308, "M": 40},
            {"alpha": 17.69, "beta": 15.36, "M": 40},
            [0.535, 0.03, 40],
        ],
        ids=[
            "missing-theta",
            "string-theta",
            "null-theta",
            "fractional-M",
            "huge-M",
            "p-above-1",
            "negative-theta",
            "theta-times-M-overflows",
            "shapes-only",
            "not-an-object",
        ],
    )
    def test_malformed_fit_report_exits_2(self, tmp_path, capsys, payload):
        report = tmp_path / "fit_report.json"
        report.write_text(json.dumps(payload))
        code = main(["--out", str(tmp_path / "o"), "ej", "--fit-report", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"jj": {"transmission": 1.6e-5}}',
            '{"jj": {"transmission": 1.6e-5}, "jj_h": {"transmission": "high"}}',
            "not json",
        ],
        ids=["missing-jj_h", "string-transmission", "not-json"],
    )
    def test_malformed_calibration_exits_2(self, tmp_path, capsys, text):
        sidecar = tmp_path / "calibration.json"
        sidecar.write_text(text)
        code = main(["--out", str(tmp_path / "o"), "ej", "--calibration", str(sidecar)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "flag,payload,key",
        [
            ("--fit-report", {"p": 0, "theta": 0.03, "M": 40}, "p"),
            ("--fit-report", {"p": 1.5, "theta": 0.03, "M": 40}, "p"),
            ("--fit-report", {"p": 0.5, "theta": -1, "M": 10}, "theta"),
            ("--fit-report", {"p": 0.5, "theta": 0.03, "M": 1e300}, "M"),
            ("--fit-report", {"p": 0.5, "theta": 0.03, "M": MAX_TRIALS + 1}, "M"),
            (
                "--calibration",
                {"jj": {"transmission": -1}, "jj_h": {"transmission": 1.74e-5}},
                "jj.transmission",
            ),
        ],
        ids=["p-0", "p-1.5", "theta-negative", "M-1e300", "M-above-bound", "T-negative"],
    )
    def test_value_error_names_the_file_and_key(self, tmp_path, capsys, flag, payload, key):
        path = tmp_path / "upstream.json"
        path.write_text(json.dumps(payload))
        assert main(["--out", str(tmp_path / "o"), "ej", flag, str(path)]) == 2
        message = capsys.readouterr().err.removeprefix("error: ").rstrip("\n")
        assert message.startswith(f"{path}: {key} ")
        assert len(message) <= 200

    def test_consumes_upstream_artifacts(self, tmp_path):
        counts = write_counts_file(tmp_path / "counts.txt")
        out = tmp_path / "out"
        assert main(["--out", str(out), "fit-stats", "--counts", str(counts), "--m", "fixed=40"]) == 0
        assert main(["--out", str(out), "transmission", "--grid", "101"]) == 0
        code = main(
            [
                "--out",
                str(out),
                "ej",
                "--fit-report",
                str(out / "fit_report.json"),
                "--calibration",
                str(out / "calibration.json"),
            ]
        )
        assert code == 0
        report = json.loads((out / "ej_report.json").read_text())
        assert report["mean_ghz"] == pytest.approx(10.92, abs=0.3)


class TestPipeline:
    def _write_config(self, tmp_path, with_structures=True) -> Path:
        counts = write_counts_file(tmp_path / "counts.txt")
        lines = [
            f"paths.counts = {counts}",
            "stats.m = fixed=40",
            "transport.grid_points = 101",
        ]
        if with_structures:
            directory = write_structure_dir(tmp_path, h_counts=(1, 2, 3))
            lines.append(f"paths.structures = {directory}")
        config = tmp_path / "pipeline.cfg"
        config.write_text("\n".join(lines) + "\n")
        return config

    def test_full_run_completes_all_stages(self, tmp_path):
        config = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "pipeline"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        statuses = {s["name"]: s["status"] for s in manifest["stages"]}
        assert statuses == {
            "fit_stats": "completed",
            "analyze": "completed",
            "transmission": "completed",
            "ej": "completed",
        }

    def test_missing_structures_marks_failed_and_skips(self, tmp_path):
        config = self._write_config(tmp_path, with_structures=False)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "pipeline"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        statuses = {s["name"]: s["status"] for s in manifest["stages"]}
        assert statuses["fit_stats"] == "completed"
        assert statuses["analyze"] == "failed"
        assert statuses["ej"] == "skipped"

    def test_malformed_fit_report_marks_ej_failed(self, tmp_path, monkeypatch):
        def fit_stats_without_theta(cfg, out):
            path = out / "fit_report.json"
            path.write_text(json.dumps({"p": 0.535, "M": 40}))
            return [path]

        monkeypatch.setattr(cli, "cmd_fit_stats", fit_stats_without_theta)
        config = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "pipeline"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        stages = {s["name"]: s for s in manifest["stages"]}
        assert stages["transmission"]["status"] == "completed"
        assert stages["ej"]["status"] == "failed"
        assert "theta" in stages["ej"]["error"]

    @pytest.mark.parametrize("underdispersed", [False, True], ids=["overdispersed", "binomial"])
    def test_ej_counts_are_the_fitted_shapes(self, tmp_path, underdispersed):
        # The ej stage reads (p, theta, M) from fit_report.json and writes the
        # shapes it derives: the very alpha, beta and M of the report (both
        # null for the binomial), with no other key.
        config = self._write_config(tmp_path)
        if underdispersed:
            (tmp_path / "counts.txt").write_text("20\n21\n" * 50)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "pipeline"]) == 0
        fit_report = json.loads((out / "fit_report.json").read_text())
        counts = json.loads((out / "ej_report.json").read_text())["counts"]
        assert counts == {key: fit_report[key] for key in ("alpha", "beta", "M")}
        assert (fit_report["theta"] == 0.0) == underdispersed

    def test_rerun_byte_identical(self, tmp_path):
        config = self._write_config(tmp_path)
        outs = [tmp_path / f"out{i}" for i in range(3)]
        for out in outs:
            assert main(["--config", str(config), "--out", str(out), "pipeline"]) == 0
        first = read_dir_bytes(outs[0])
        assert read_dir_bytes(outs[1]) == first
        assert read_dir_bytes(outs[2]) == first


def _write_cell(kind: str):
    """Writer of one structure-directory entry of `kind`: (path, lateral, n_h, seed)."""

    def slab(lateral, n_h, seed):
        n_h = min(n_h, lateral * lateral)
        return make_oxide_slab(n_h=n_h, lateral=lateral, jitter=0.05, seed=seed)

    def write(path, lateral, n_h, seed):
        s = slab(lateral, n_h, seed)
        if kind == "corrupt":
            path.write_text(to_xyz(s)[:-40])
        elif kind == "subdir":
            path.mkdir()
        elif kind in ("no_o", "no_al"):
            drop = "O" if kind == "no_o" else "Al"
            kept = [k for k, x in enumerate(s.species) if x != drop]
            species = tuple(s.species[k] for k in kept)
            path.write_text(to_xyz(dataclasses.replace(s, species=species, positions=s.positions[kept])))
        elif kind == "straddle":
            pos = s.positions.copy()
            pos[:, 2] = np.mod(pos[:, 2] - 2.0, s.cell[2, 2])
            path.write_text(to_xyz(dataclasses.replace(s, positions=pos)))
        elif kind == "triclinic":
            cell = s.cell.copy()
            cell[1, 0] = 0.5
            path.write_text(to_xyz(dataclasses.replace(s, cell=cell)))
        elif kind == "short":
            path.write_text(to_xyz(slab(1, n_h, seed)))
        elif kind == "fixture":
            path.write_text(to_xyz(nine_motif_fixtures()[seed % 9][1]))
        else:
            path.write_text(to_xyz(s))

    return write


_CELL_KINDS = {
    kind: _write_cell(kind)
    for kind in (
        "good", "fixture", "corrupt", "subdir", "no_o", "no_al", "straddle", "triclinic", "short"
    )
}


class TestStructurePass:
    """Census, analyze and pipeline read a structure directory the same way."""

    ANALYZE_FILES = ("stoichiometry.csv", "ensemble_summary.json", "motifs.csv", "motif_table.json")
    FIT_FILES = ("fit_report.json", "h_histogram.csv")

    def _pipeline(self, tmp_path, directory, out) -> int:
        config = tmp_path / "pipeline.cfg"
        config.write_text(
            f"paths.structures = {directory}\nstats.m = fixed=8\ntransport.grid_points = 101\n"
        )
        return main(["--config", str(config), "--out", str(out), "pipeline"])

    @pytest.mark.parametrize("corrupt", [0, 1], ids=["good", "malformed"])
    def test_subcommands_write_identical_artifacts(self, tmp_path, corrupt):
        directory = write_structure_dir(tmp_path, h_counts=(0, 0, 1, 2, 3, 5, 6, 6), corrupt=corrupt)
        # The census counts the H of a cell with O but no Al; analyze skips it.
        _CELL_KINDS["no_al"](directory / "no_al.xyz", 3, 2, 0)
        runs = {
            "analyze": ["analyze", "--structures", str(directory)],
            "fit": ["fit-stats", "--structures", str(directory), "--m", "fixed=8"],
        }
        for name, args in runs.items():
            assert main(["--out", str(tmp_path / name), *args]) == 0
        assert self._pipeline(tmp_path, directory, tmp_path / "pipeline") == 0
        pipeline = read_dir_bytes(tmp_path / "pipeline")
        for name, files in (("analyze", self.ANALYZE_FILES), ("fit", self.FIT_FILES)):
            alone = read_dir_bytes(tmp_path / name)
            assert sorted(alone) == sorted(files)
            assert {f: pipeline[f] for f in files} == alone
        summary = json.loads(pipeline["ensemble_summary.json"])
        assert len(summary["failures"]) == corrupt + 1
        assert {"file": "no_al.xyz", "error": structure.NO_AL_MESSAGE} in summary["failures"]
        fit_report = json.loads(pipeline["fit_report.json"])
        assert (fit_report["n_samples"], fit_report["skipped"]) == (9, summary["failures"][:corrupt])

    def test_pipeline_reads_each_file_once_and_warns_once(self, tmp_path, capsys, monkeypatch):
        directory = write_structure_dir(tmp_path, h_counts=(0, 0, 1, 2, 3, 5, 6, 6))
        (directory / "zz.xyz").write_text("2\ncomment\nAl 0 0 0\n")
        calls = []
        parse = jjvar.structure.parse_xyz

        def counting_parse(text):
            calls.append(1)
            return parse(text)

        monkeypatch.setattr(jjvar.structure, "parse_xyz", counting_parse)
        assert self._pipeline(tmp_path, directory, tmp_path / "out") == 0
        assert len(calls) == 9
        assert capsys.readouterr().err.count("warning: skipping zz.xyz") == 1

    def test_oxide_across_periodic_z_boundary_skipped(self, tmp_path, capsys):
        directory = write_structure_dir(tmp_path, h_counts=(1, 2))
        slab = make_oxide_slab(n_h=2)
        pos = slab.positions.copy()
        pos[:, 2] = np.mod(pos[:, 2] - 2.0, slab.cell[2, 2])
        (directory / "wrapped.xyz").write_text(to_xyz(dataclasses.replace(slab, positions=pos)))
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 0
        assert "warning: skipping wrapped.xyz: O atoms straddle" in capsys.readouterr().err
        summary = json.loads((out / "ensemble_summary.json").read_text())
        assert [f["file"] for f in summary["failures"]] == ["wrapped.xyz"]
        for path in directory.glob("sample_*"):
            path.unlink()
        assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 2

    @settings(max_examples=30, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(sorted(_CELL_KINDS)),
                st.sampled_from([2, 3, 8, 12]),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=9,
        )
    )
    # Large cells that split the default budget, among every kind of skip.
    @example(entries=[(kind, 12, 3) for kind in sorted(_CELL_KINDS)] + [("good", 12, 4)] * 4)
    def test_batching_does_not_change_results(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for k, (kind, lateral, n_h) in enumerate(entries):
                _CELL_KINDS[kind](directory / f"c{k:02d}.xyz", lateral, n_h, k)
            cfg = PipelineConfig(structures=str(directory))
            passes = []
            for budget in (1, cli._BATCH_ATOMS):
                with mock.patch.object(cli, "_BATCH_ATOMS", budget):
                    passes.append(cli._structure_pass(cfg, census=True, analyze=True))
        first, second = passes
        assert first.files == second.files
        assert first.counts == second.counts
        assert first.errors == second.errors
        assert first.census.tolist() == second.census.tolist()
        assert _columns(first.table) == _columns(second.table)
        accepted = [error is None for error in first.errors]
        assert len(first.census) == sum(accepted)
        # The merged table holds per-H columns only; the errors are per file.
        assert first.table._fields == ("structure", "h_index", "label", "host_o", "surface")
        assert set(first.table.structure.tolist()) <= set(range(sum(accepted)))
        for count, error, (kind, _, _) in zip(first.counts, first.errors, entries):
            assert (error is not None) == (kind not in ("good", "fixture")) or kind == "fixture"
            if kind == "no_al":
                assert isinstance(count, int) and error == structure.NO_AL_MESSAGE

    @pytest.mark.parametrize("command", [["analyze"], ["fit-stats", "--m", "fixed=8"]], ids=["analyze", "fit"])
    def test_empty_z_interval_skipped_with_its_message(self, tmp_path, capsys, command):
        # At z = 1e17 the 0.5 A padding rounds away: the interval is one point.
        directory = tmp_path / "structures"
        directory.mkdir()
        (directory / "a.xyz").write_text(
            '3\nLattice="10 0 0 0 10 0 0 0 1e18"\nAl 0 0 1e17\nO 1.8 0 1e17\nH 2.8 0 1e17\n'
        )
        argv = ["--out", str(tmp_path / "o"), command[0], "--structures", str(directory), *command[1:]]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "warning: skipping a.xyz: empty z-interval [1e+17, 1e+17]\n"
            "error: all 1 structure files were skipped\n"
        )


def _columns(table):
    """The columns of a motif table as lists."""
    return [c.tolist() for c in table]


class TestPathArguments:
    """A path argument of the wrong kind is an input error, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            lambda f, d, out: ["--out", out, "analyze", "--structures", f],
            lambda f, d, out: ["--out", out, "fit-stats", "--counts", d],
            lambda f, d, out: ["--config", d, "--out", out, "ej"],
            lambda f, d, out: ["--out", out, "ej", "--fit-report", d],
            lambda f, d, out: ["--out", f, "ej"],
            lambda f, d, out: ["--out", out, "analyze", "--structures", d],
        ],
        ids=["structures-file", "counts-dir", "config-dir", "fit-report-dir", "out-file", "xyz-dir"],
    )
    def test_wrong_kind_of_path_exits_2(self, tmp_path, capsys, argv):
        a_file = tmp_path / "a.xyz"
        a_file.write_text("1\ncomment\nAl 0 0 0\n")
        a_dir = tmp_path / "dir"
        # The only structure "file" in a_dir is a directory named x.xyz.
        (a_dir / "x.xyz").mkdir(parents=True)
        assert main(argv(str(a_file), str(a_dir), str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        assert "Traceback" not in err

    def test_xyz_directory_skipped_and_listed(self, tmp_path, capsys):
        directory = write_structure_dir(tmp_path, h_counts=(1, 2))
        (directory / "x.xyz").mkdir()
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 0
        assert "warning: skipping x.xyz: not a regular file" in capsys.readouterr().err
        summary = json.loads((out / "ensemble_summary.json").read_text())
        assert summary["failures"] == [{"file": "x.xyz", "error": "not a regular file"}]
        assert summary["samples"] == 2


_PATH_KINDS = ("missing", "garbage", "empty", "directory")
_OPTIONAL_KIND = st.none() | st.sampled_from(_PATH_KINDS)
_COMMAND_PATHS = {
    "fit-stats": ("--counts", "--structures"),
    "analyze": ("--structures",),
    "transmission": (),
    "ej": ("--fit-report", "--calibration"),
    "pipeline": (),
}
# Text that every reader decodes and then rejects.
_GARBAGE = b"garbage = {\nnot, a, number\n-1\n"


def _path_of_kind(root: Path, name: str, kind: str) -> str:
    path = root / name
    if kind == "garbage":
        path.write_bytes(_GARBAGE)
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "directory":
        # The only structure "file" in it is a directory named x.xyz.
        (path / "x.xyz").mkdir(parents=True)
    return str(path)


# Only --out given, as a directory still to be made.
_OUT_ONLY = {
    **dict.fromkeys(["--config", "--counts", "--structures", "--fit-report", "--calibration"]),
    "--out": "missing",
}


class TestPathArgumentFuzz:
    """Every mix of path-argument kinds ends in exit 0, 2 or 3, never a traceback."""

    @settings(max_examples=40, deadline=None)
    @given(
        command=st.sampled_from(sorted(_COMMAND_PATHS)),
        kinds=st.fixed_dictionaries(
            {
                "--config": _OPTIONAL_KIND,
                "--out": st.sampled_from(_PATH_KINDS),
                "--counts": _OPTIONAL_KIND,
                "--structures": _OPTIONAL_KIND,
                "--fit-report": _OPTIONAL_KIND,
                "--calibration": _OPTIONAL_KIND,
            }
        ),
    )
    # The six TestPathArguments cases.
    @example(command="analyze", kinds={**_OUT_ONLY, "--structures": "garbage"})
    @example(command="fit-stats", kinds={**_OUT_ONLY, "--counts": "directory"})
    @example(command="ej", kinds={**_OUT_ONLY, "--config": "directory"})
    @example(command="ej", kinds={**_OUT_ONLY, "--fit-report": "directory"})
    @example(command="ej", kinds={**_OUT_ONLY, "--out": "garbage"})
    @example(command="analyze", kinds={**_OUT_ONLY, "--structures": "directory"})
    def test_exit_code_contract(self, command, kinds):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)

            def options(names):
                return [
                    arg
                    for name in names
                    if kinds[name] is not None
                    for arg in (name, _path_of_kind(root, name.strip("-"), kinds[name]))
                ]

            argv = options(("--config", "--out")) + [command] + options(_COMMAND_PATHS[command])
            assert main(argv) in (0, 2, 3)


_HUGE = "9" * 5000  # past the 4300 digits int() converts
_NUMBER_TEXT = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
    st.sampled_from([_HUGE, "-" + _HUGE, "1e999", "-1e999", "1e-999", "1e308", "0x10", "1_0", "true", ""]),
)
_M_TEXT = st.one_of(
    st.integers(-3, 2 * 10**5).map("fixed={}".format),
    st.tuples(st.integers(-3, 2 * 10**5), st.integers(-3, 2 * 10**5)).map("scan={0[0]}:{0[1]}".format),
    st.sampled_from(["scan", "fixed=", "scan=3", "fixed=" + _HUGE, "scan=1:" + _HUGE]),
)
_VALUE_TEXT = _NUMBER_TEXT | _M_TEXT | st.text(st.characters(exclude_characters="\n\r"), max_size=8)
_KEY_TEXT = st.sampled_from(sorted(_KEY_MAP)) | st.sampled_from(
    ["transport.bogus", "cutoff.al_al", "threads", "Seed", "STATS.M", ""]
)
# Bytes that are not UTF-8: a lone continuation byte, a bad lead byte, a
# truncated sequence.
_NOT_UTF8 = st.sampled_from([b"", b"", b"\x80", b"\xff", b"\xc3"])


def _m_above_bound(value: str) -> bool:
    match = re.fullmatch(r"(?:fixed=|scan=-?\d+:)(\d+)", value)
    digits = match[1].lstrip("0") if match else ""
    return len(digits) > 6 or bool(digits) and int(digits) > MAX_TRIALS


def _hopping_above_bound(value: str) -> bool:
    try:
        return not abs(float(value.strip().strip('"').strip("'"))) <= MAX_LEAD_HOPPING
    except ValueError:
        return False


class TestConfigContentFuzz:
    """Any config file content ends in exit 0, 2 or 3, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(
        entries=st.lists(st.tuples(_KEY_TEXT, _VALUE_TEXT), max_size=6),
        junk=_NOT_UTF8,
        at=st.integers(0, 200),
    )
    @example(entries=[("seed", "1"), ("seed", "2")], junk=b"", at=0)
    @example(entries=[("stats.m", "fixed=100001")], junk=b"", at=0)
    @example(entries=[("stats.m", "scan=1:100001")], junk=b"", at=0)
    @example(entries=[("seed", "1")], junk=b"\xff", at=7)
    @example(entries=[("stats.trials", _HUGE), ("junction.area", "1e999")], junk=b"", at=0)
    @example(entries=[("transport.lead_hopping", "1e200")], junk=b"", at=0)
    def test_exit_code_contract(self, entries, junk, at):
        text = "".join(f"{key} = {value}\n" for key, value in entries).encode()
        keys = [key.lower() for key, _ in entries]
        duplicate = any(keys.count(key) > 1 for key in keys if key in _KEY_MAP)
        above_bound = any(
            key.lower() == "stats.m" and _m_above_bound(value)
            or key.lower() == "transport.lead_hopping" and _hopping_above_bound(value)
            for key, value in entries
        )
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "cfg.txt"
            config.write_bytes(text[:at] + junk + text[at:])
            code = main(["--config", str(config), "--out", str(Path(tmp) / "out"), "ej"])
        assert code in (0, 2, 3)
        if duplicate or above_bound:
            assert code == 2


# Values a hand-edited or corrupted upstream file may carry where a number
# belongs.
_ODD_VALUES = st.sampled_from(
    [5e-324, 1e-310, 1e-300, 1e308, -1e308, 0.0, -0.0, math.inf, math.nan]
    + [True, False, "17.69", "", None, [17.69], {"v": 1.0}]
)
_COUNT_LINES = st.integers(0, 60).map(str) | st.sampled_from(
    ["-3", "4.5", "1e3", _HUGE, "10" * 20, "", "# note", "n_h", "7,", ","]
)
_CONFIG_ENTRIES = st.tuples(
    st.sampled_from(
        [
            "stats.alpha",
            "stats.beta",
            "stats.trials",
            "transport.lead_onsite",
            "transport.grid_halfwidth",
            "junction.gap_mev",
            "junction.area",
            "junction.patch_area",
        ]
    ),
    st.floats(-25.0, 25.0).map(repr)
    | st.integers(-5, 2000).map(str)
    | st.sampled_from(["1e-300", "1e308", "5e-324", "1e100", "1e-100", "12.2", "20", "0"]),
)


@st.composite
def count_files(draw) -> bytes:
    """Counts one per line or in a CSV with or without an n_h column, maybe
    truncated and with bytes that are not UTF-8."""
    lines = draw(st.lists(st.integers(0, 60).map(str), min_size=1, max_size=12))
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_COUNT_LINES)
    header = draw(st.sampled_from(["", "n_h\n", "sample,n_h\n", "sample,count\n"]))
    if "," in header:
        lines = [f"s{k},{line}" for k, line in enumerate(lines)]
    text = (header + "\n".join(lines) + "\n").encode()
    if draw(st.booleans()):
        text = text[: draw(st.integers(1, len(text)))]
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(_NOT_UTF8) + text[at:]


def _number_or_odd(numbers):
    return numbers | _ODD_VALUES


@st.composite
def fit_reports(draw) -> dict:
    fields = {
        "p": _number_or_odd(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "theta": _number_or_odd(st.just(0.0) | st.floats(-12.0, 3.0).map(lambda e: 10.0**e)),
        "M": _number_or_odd(st.integers(0, 10**4)),
    }
    # A key is left out one time in eight.
    return {key: draw(value) for key, value in fields.items() if draw(st.integers(0, 7))}


@st.composite
def calibration_sidecars(draw) -> dict:
    transmission = _number_or_odd(st.floats(1e-7, 1e-3))
    return {
        tag: {"transmission": draw(transmission)} if draw(st.integers(0, 7)) else draw(_ODD_VALUES)
        for tag in ("jj", "jj_h")
    }


def _pmf_error_allowance(probabilities) -> float:
    """Bound on |sum - 1| of a PMF that sums to 1 within 1e-12 before each
    value is printed with 12 significant digits (half a unit in the 12th)."""
    half_units = (0.5 * 10.0 ** (math.floor(math.log10(p)) - 11) for p in probabilities if p > 0)
    return 1e-12 + sum(half_units)


class TestUpstreamFileFuzz:
    """Generated count files, fit reports, calibration sidecars and config
    values end in exit 0 with finite output, or in exit 2 or 3 with one
    error line; never in a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["fit-stats", "ej", "transmission"]),
        config=st.lists(_CONFIG_ENTRIES, max_size=3),
        counts=count_files(),
        m=st.sampled_from(["fixed=60", "scan"]),
        report=st.none() | fit_reports(),
        sidecar=st.none() | calibration_sidecars(),
        grid=st.none() | st.integers(2, 201),
    )
    # Beta shapes of 1e-300 and 1e308, in the config and as the (p, theta)
    # a fit report carries for them.
    @example(
        command="ej",
        config=[("stats.alpha", "1e-300"), ("stats.beta", "1e-300"), ("stats.trials", "1000")],
        counts=b"1\n",
        m="scan",
        report=None,
        sidecar=None,
        grid=None,
    )
    @example(
        command="ej",
        config=[],
        counts=b"1\n",
        m="scan",
        report={"p": 0.5, "theta": 5e299, "M": 1000},
        sidecar=None,
        grid=None,
    )
    @example(
        command="ej",
        config=[("stats.alpha", "1e308"), ("stats.beta", "1e308")],
        counts=b"1\n",
        m="scan",
        report=None,
        sidecar=None,
        grid=None,
    )
    @example(
        command="ej",
        config=[],
        counts=b"1\n",
        m="scan",
        report={"p": 0.5, "theta": 5e-309, "M": 40},
        sidecar=None,
        grid=None,
    )
    @example(
        command="ej",
        config=[],
        counts=b"1\n",
        m="scan",
        report={"p": 0.3, "theta": 1e-3, "M": MAX_TRIALS},
        sidecar=None,
        grid=None,
    )
    # A grid end that rounds past the 20 eV reach: a late exit 2 at the parent.
    @example(
        command="transmission",
        config=[("transport.lead_onsite", "12.2"), ("transport.grid_halfwidth", "20")],
        counts=b"1\n",
        m="scan",
        report=None,
        sidecar=None,
        grid=None,
    )
    # A grid too coarse for the shift fit, a grid of coincident energies and a
    # non-finite E_J: at the parent, late exits 2 with lines naming no key.
    @example(
        command="transmission", config=[], counts=b"1\n", m="scan", report=None, sidecar=None, grid=3
    )
    @example(
        command="transmission",
        config=[("transport.grid_halfwidth", "5e-324")],
        counts=b"1\n",
        m="scan",
        report=None,
        sidecar=None,
        grid=None,
    )
    @example(
        command="ej",
        config=[("junction.gap_mev", "1e308")],
        counts=b"1\n",
        m="scan",
        report=None,
        sidecar=None,
        grid=None,
    )
    def test_exit_code_contract(self, command, config, counts, m, report, sidecar, grid):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            out = root / "out"
            cfg = root / "cfg.txt"
            entries = "".join(f"{key} = {value}\n" for key, value in config)
            cfg.write_text(entries + f"transport.grid_points = {grid or 101}\n")
            argv = ["--config", str(cfg), "--out", str(out), command]
            if command == "fit-stats":
                (root / "counts.txt").write_bytes(counts)
                argv += ["--counts", str(root / "counts.txt"), "--m", m]
            elif command == "ej":
                for flag, payload in (("--fit-report", report), ("--calibration", sidecar)):
                    if payload is not None:
                        (root / f"{flag[2:]}.json").write_text(json.dumps(payload))
                        argv += [flag, str(root / f"{flag[2:]}.json")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
                if command == "fit-stats" and code == 0:
                    # Hand the fitted distribution on, as the pipeline does.
                    command = "ej"
                    report_path = str(out / "fit_report.json")
                    code = main(["--config", str(cfg), "--out", str(out), "ej", "--fit-report", report_path])
            lines = err.getvalue().splitlines()
            assert code in (0, 2, 3)
            if code:
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
            if command == "transmission" and code == 2:
                # transmission reads no input file: only validate may reject its config.
                assert not out.exists()
            if command == "ej" and code == 0:
                rows = (out / "ej_pmf.csv").read_text().splitlines()[1:]
                values = np.array([[float(v) for v in row.split(",")] for row in rows])
                assert np.isfinite(values).all()
                assert abs(values[:, 1].sum() - 1.0) <= _pmf_error_allowance(values[:, 1])
                report_out = json.loads((out / "ej_report.json").read_text())
                assert all(math.isfinite(report_out[key]) for key in ("mean_ghz", "std_ghz"))


def _any_case(label: str):
    return st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in label)).map("".join)


_XYZ_LABELS = st.sampled_from(["Al", "O", "H"]).flatmap(_any_case)
# Mostly coordinates that bond, and every float besides.
_XYZ_FLOATS = st.floats(-4.0, 4.0) | st.floats()


@st.composite
def xyz_files(draw) -> bytes:
    """An extended-XYZ file: mostly a good oxide slab, else rows of labels in
    any case and coordinates of any float, under an atom count that may
    disagree with them, with or without a Lattice of any floats, and with
    perhaps an unknown label.  Then any of extra columns, tabs, CRLF line
    endings and a non-UTF-8 byte."""
    if draw(st.sampled_from(["slab", "slab", "rows"])) == "slab":
        rows = to_xyz(make_oxide_slab(n_h=draw(st.integers(0, 4)), lateral=2, jitter=0.05)).splitlines()
    else:
        atoms = draw(st.lists(st.tuples(_XYZ_LABELS, _XYZ_FLOATS, _XYZ_FLOATS, _XYZ_FLOATS), max_size=8))
        if atoms and draw(st.sampled_from([False, False, False, True])):
            k = draw(st.integers(0, len(atoms) - 1))
            atoms[k] = (draw(st.sampled_from(["Xe", "Si", "A", "1", "Al2", "-"])), *atoms[k][1:])
        count = len(atoms) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        comment = "comment"
        if draw(st.booleans()):
            diagonal = draw(st.floats(5.0, 30.0))
            lattice = [diagonal if k % 4 == 0 else 0.0 for k in range(9)]
            for k in draw(st.lists(st.integers(0, 8), max_size=3)):
                lattice[k] = draw(st.floats())
            comment = 'Lattice="' + " ".join(map(repr, lattice)) + '"'
        rows = [str(count), comment] + [" ".join([label, *map(repr, xyz)]) for label, *xyz in atoms]
    if draw(st.booleans()):
        rows[2:] = [row + " 0.5 extra" for row in rows[2:]]
    separator = draw(st.sampled_from([" ", " ", "\t", " \t "]))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    data = ending.join(row.replace(" ", separator) for row in rows).encode() + ending.encode()
    if draw(st.sampled_from([False, False, False, False, True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestStructureFileFuzz:
    """Directories of generated `.xyz` files end in exit 0, 2 or 3, with only
    skip warnings and at most one error line on stderr, every skipped file
    listed, and finite CSV numbers on success."""

    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(["analyze", "fit-stats", "pipeline"]),
        files=st.lists(xyz_files(), max_size=5),
    )
    # A cell whose volume overflows: analysed, with no numpy warning.
    @example(
        command="analyze",
        files=[b'3\nLattice="1e308 0 0 0 1e308 0 0 0 1e308"\nAl 0 0 0\nO 1.8 0 0\nH 2.8 0 0\n'],
    )
    # A non-periodic file whose bounding box overflows: skipped.
    @example(command="pipeline", files=[b"2\nno lattice\nAl -1e308 0 0\nO 1e308 0 0\n"])
    # No structure directory at all.
    @example(command="fit-stats", files=None)
    # Files the census reads and analyze skips: the pipeline fails at analyze.
    @example(
        command="pipeline",
        files=[b"1\ncomment\no 0.0 0.0 0.0\n", b"4\ncomment\no 0 0 0\no 0 0 0\no 0 0 0\nh 0 0 0\n"],
    )
    # One census count after a skipped file: the fit fails, the manifest
    # lists the file.
    @example(command="pipeline", files=[b"3\ncomment\nAl 0 0 0\nO 1.8 0 0\nH 2.8 0 0\n", b"garbage\n"])
    # Bond candidates whose squared distance overflows, without and with the
    # minimum image: at the parent, numpy warnings on stderr.
    @example(
        command="analyze",
        files=[
            b"3\nopen\nH 0 0 0\nO 1e160 0 0\nAl 1e300 0 0\n",
            b'3\nLattice="10 0 0 0 10 0 0 0 10"\nH 1e308 0 0\nO -1e308 0 0\nAl 0 0 0\n',
        ],
    )
    # One atom at infinity (inf - inf in the bounding box), and O heights
    # whose gaps overflow: numpy warnings at the parent.
    @example(
        command="fit-stats",
        files=[
            b"1\ncomment\no 0.0 0.0 inf\n",
            b"2\ncomment\nal 0.0 0.0 0.0\no 0.0 0.0 8.98846567431158e+307\n",
            b'3\nLattice="10 0 0 0 10 0 0 0 10"\nAl 0 0 0\nO 0 0 -1e308\nO 0 0 1e308\n',
        ],
    )
    def test_exit_code_contract(self, command, files):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            directory, out = root / "structures", root / "out"
            if files is not None:
                directory.mkdir()
                for k, data in enumerate(files):
                    (directory / f"f{k}.xyz").write_bytes(data)
            if command == "pipeline":
                cfg = root / "cfg.txt"
                cfg.write_text(
                    f"paths.structures = {directory}\nstats.m = scan=1:12\ntransport.grid_points = 101\n"
                )
                argv = ["--config", str(cfg), "--out", str(out), "pipeline"]
            else:
                argv = ["--out", str(out), command, "--structures", str(directory)]
                argv += ["--m", "scan=1:12"] if command == "fit-stats" else []
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code in (0, 2, 3)
            warned = [line for line in lines if line.startswith("warning: skipping ")]
            errors = [line for line in lines if line.startswith("error: ")]
            assert len(warned) + len(errors) == len(lines) and len(errors) <= 1, lines
            if code != 2 or command == "pipeline":
                # Every stage that warned wrote its report, or failed in a
                # pipeline whose manifest lists the files it skipped (alone,
                # a stage that skips every file fails with exit 2 and writes
                # nothing).
                listed = {
                    f["file"]
                    for name, key in (("ensemble_summary.json", "failures"), ("fit_report.json", "skipped"))
                    if (out / name).exists()
                    for f in json.loads((out / name).read_text())[key]
                }
                if command == "pipeline" and (out / "manifest.json").exists():
                    stages = json.loads((out / "manifest.json").read_text())["stages"]
                    listed |= {f["file"] for stage in stages for f in stage.get("skipped", [])}
                assert {line.split()[2].rstrip(":") for line in warned} <= listed
            if code == 0:
                for table in out.glob("*.csv"):
                    for row in table.read_text().splitlines()[1:]:
                        for cell in row.split(","):
                            with contextlib.suppress(ValueError):
                                assert math.isfinite(float(cell)), (table.name, row)


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("transport.bogus = 1\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "ej"]) == 2

    def test_flag_overrides_file(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("transport.grid_points = 51\n")
        out = tmp_path / "out"
        code = main(["--config", str(config), "--out", str(out), "transmission", "--grid", "21"])
        assert code == 0
        rows = (out / "transmission_jj.csv").read_text().splitlines()
        assert len(rows) == 22

    def test_removed_eta_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("transport.eta = 0.5\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "ej"]) == 2
        assert "unknown key 'transport.eta'" in capsys.readouterr().err

    def test_removed_threads_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("threads = 2\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "ej"]) == 2
        assert "unknown key 'threads'" in capsys.readouterr().err

    def test_removed_al_al_cutoff_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("cutoff.al_al = 3.0\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "ej"]) == 2
        assert "unknown key 'cutoff.al_al'" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ["seed = 2", "  SEED=2"])
    def test_duplicate_key_exits_2(self, tmp_path, capsys, second):
        config = tmp_path / "cfg.txt"
        config.write_text(f"seed = 1\n# a comment\n{second}\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "ej"]) == 2
        assert capsys.readouterr().err == "error: line 3: duplicate key 'seed' (first on line 1)\n"
        assert not (tmp_path / "o").exists()

    def test_readme_lists_exactly_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.partition("Keys:\n\n```\n")[2].partition("```")[0]
        listed = [key.strip() for key in block.replace("\n", ",").split(",") if key.strip()]
        assert sorted(listed) == sorted(_KEY_MAP)

    def test_readme_lists_the_header_of_every_emitted_csv(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.partition("### artifact schemas")[2].partition("\n## ")[0]
        schemas = dict(re.findall(r"^- `([^`]+\.csv)`: `([^`]+)`", section, re.MULTILINE))
        config = tmp_path / "pipeline.cfg"
        config.write_text(
            f"paths.counts = {write_counts_file(tmp_path / 'counts.txt')}\n"
            f"paths.structures = {write_structure_dir(tmp_path)}\n"
            "stats.m = fixed=40\n"
            "transport.grid_points = 101\n"
        )
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "pipeline"]) == 0
        emitted = sorted(out.glob("*.csv"))
        assert len(emitted) == 6
        for path in emitted:
            (pattern,) = [p for p in schemas if fnmatch.fnmatch(path.name, p)]
            header = path.read_text().partition("\n")[0]
            assert header == schemas[pattern], path.name
        assert all(any(fnmatch.fnmatch(p.name, pattern) for p in emitted) for pattern in schemas)

    def test_removed_threads_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "--out", str(tmp_path / "o"), "ej"])
        assert exc.value.code == 2

    def test_boolean_for_integer_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("transport.barrier_sites = true\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "ej"]) == 2
        err = capsys.readouterr().err
        assert "barrier_sites: expected integer" in err
        assert err == "error: line 1: transport.barrier_sites: expected integer, got 'true'\n"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("transport.grid_points = 1e3", "transport.grid_points: expected integer, got '1e3'"),
            ("stats.alpha = x", "stats.alpha: expected number, got 'x'"),
            ("SEED = abc", "seed: expected integer, got 'abc'"),
        ],
    )
    def test_wrong_type_exits_2_naming_key_and_line(self, tmp_path, capsys, text, expected):
        config = tmp_path / "cfg.txt"
        config.write_text(f"# a value of the wrong type\n{text}\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "ej"]) == 2
        assert capsys.readouterr().err == f"error: line 2: {expected}\n"

    @pytest.mark.parametrize(
        "line, command",
        [
            ("transport.target_jj = inf", "transmission"),
            ("junction.md_area = inf", "ej"),
            ("surface.depth = -1", "analyze"),
            ("surface.bin = nan", "analyze"),
            ("cutoff.al_o = -1", "analyze"),
            ("transport.lead_hopping = 0", "transmission"),
            ("transport.lead_hopping = 0.001", "transmission"),
            ("transport.lead_hopping = 1e200", "transmission"),
            ("transport.grid_points = 3", "transmission"),
            ("transport.grid_halfwidth = 5e-324", "transmission"),
            ("junction.gap_mev = 0", "ej"),
            ("junction.area = -1", "ej"),
            ("stats.m = scan=5", "fit-stats"),
            ("stats.m = scan=3:", "fit-stats"),
            ("stats.m = fixed=1.5", "fit-stats"),
            ("stats.m = fixed=0", "fit-stats"),
            ("stats.m = scan=9:3", "fit-stats"),
            ("stats.m = scan=9:3", "pipeline"),
            ("stats.m = fixed=100001", "pipeline"),
            ("stats.m = scan=1:100001", "pipeline"),
            ("transport.grid_halfwidth = 25", "pipeline"),
            ("paths.counts = /nonexistent/c.txt", "fit-stats"),
            ("paths.structures = /nonexistent/structures", "analyze"),
            pytest.param(f"stats.m = fixed={_HUGE}", "fit-stats", id="stats.m = fixed=<5000 digits>"),
            pytest.param(f"stats.m = scan=1:{_HUGE}", "fit-stats", id="stats.m = scan=1:<5000 digits>"),
        ],
    )
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, slab_dir, line, command):
        config = tmp_path / "cfg.txt"
        key = line.partition(" =")[0]
        # A line that sets paths.structures itself replaces the slab directory.
        slabs = "" if key == "paths.structures" else f"paths.structures = {slab_dir}\n"
        config.write_text(f"{slabs}{line}\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ")
        assert "warning" not in err
        assert not (tmp_path / "o").exists()


_FIELDS = dataclasses.fields(PipelineConfig)
# Values of each field type that a config line carries: no surrounding
# whitespace or quotes, which the parser strips, and no line break.
_FIELD_VALUES = {
    "str": st.text(
        st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="\"'"), min_size=1
    ),
    "int": st.integers(-(10**30), 10**30),
    "float": st.floats(allow_nan=False, allow_infinity=False),
}


def _field_values(f: dataclasses.Field):
    return next(values for name, values in _FIELD_VALUES.items() if name in f.type)


class TestConfigKeys:
    def test_each_field_has_its_own_key(self):
        keys = [f.metadata["key"] for f in _FIELDS]
        assert len(set(keys)) == len(keys) == len(_KEY_MAP)
        assert all(re.fullmatch(r"([a-z]+\.)?[a-z_]+", key) for key in keys)
        assert {key: f.name for key, f in _KEY_MAP.items()} == {
            f.metadata["key"]: f.name for f in _FIELDS
        }

    @pytest.mark.parametrize("f", _FIELDS, ids=lambda f: f.metadata["key"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_written_value_parses_back(self, f, data):
        value = data.draw(_field_values(f))
        text = repr(value) if isinstance(value, float) else str(value)
        cfg = parse_config_text(f"{f.metadata['key']} = {text}\n")
        assert getattr(cfg, f.name) == value
        assert type(getattr(cfg, f.name)) is type(value)
        assert dataclasses.replace(cfg, **{f.name: getattr(PipelineConfig(), f.name)}) == (
            PipelineConfig()
        )

    @settings(max_examples=25, deadline=None)
    @given(cutoff=st.floats(min_value=1e-3, max_value=10.0))
    def test_cutoff_keys_name_the_bonded_species_pairs(self, cutoff):
        overridable = set()
        for f in _FIELDS:
            section, _, pair = f.metadata["key"].partition(".")
            if section != "cutoff":
                continue
            overrides = parse_config_text(f"{f.metadata['key']} = {cutoff!r}\n").cutoff_overrides()
            (((a, b), value),) = overrides.items()
            assert (value, f"{a}_{b}".lower()) == (cutoff, pair)
            merged = structure._normalize_cutoffs(overrides)
            assert merged[tuple(sorted((a, b)))] == cutoff
            overridable.add(tuple(sorted((a, b))))
        assert overridable == {tuple(sorted(pair)) for pair in structure.DEFAULT_CUTOFFS}


def _reference_csv(path: Path, header: list[str], columns: list) -> None:
    """The per-value CSV formula the block writer must reproduce byte for byte."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


_BLOCK = cli._CSV_BLOCK_ROWS
_INT64 = (-(2**63), 2**63 - 1)
_CELL_VALUES = {
    "float": st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e300, -1e300]),
    "int": st.integers(*_INT64) | st.sampled_from([2**53 + 1, -(2**53) - 3, 2**63 - 1, 10**30]),
    "str": st.text(st.characters(exclude_categories=("Cs",), exclude_characters=",\n\r")),
}


@st.composite
def csv_tables(draw):
    """(header, columns as written, the same columns as Python lists)."""
    rows = draw(st.sampled_from([0, 1, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELL_VALUES)), min_size=1, max_size=4))
    columns, values = [], []
    for kind in kinds:
        pool = draw(st.lists(_CELL_VALUES[kind], min_size=1, max_size=12))
        column = [pool[i % len(pool)] for i in range(rows)]
        as_array = kind == "float" or (kind == "int" and all(_INT64[0] <= v <= _INT64[1] for v in pool))
        if as_array and draw(st.booleans()):
            columns.append(np.array(column, dtype=np.float64 if kind == "float" else np.int64))
        else:
            columns.append(column)
        values.append(column)
    header = [f"c{k}" for k in range(len(kinds))]
    return header, columns, values


_FORMAT_LOOKALIKES = ["%", "%s", "%%", "{}", "{0}"]


def _linspace_verdict(centre, halfwidth, points, hopping):
    """(grid increasing, window size, usable points) on np.linspace, as the
    grid check computed them when it built the grid."""
    lo, _, hi = config._grid(centre, halfwidth, points)
    grid = np.linspace(lo, hi, points)
    increasing = bool((grid[1:] > grid[:-1]).all())
    if not increasing:
        return False, None, None
    first = np.searchsorted(grid, centre - config.SHIFT_WINDOW)
    window = grid[first : np.searchsorted(grid, centre + config.SHIFT_WINDOW, side="right")]
    usable = np.count_nonzero(np.abs(window - centre) < 2.0 * abs(hopping))
    return True, window.size, int(usable)


@st.composite
def _grids(draw):
    """(lead_onsite, grid_halfwidth, grid_points, lead_hopping); about half
    of the grids are spaced within a few ulps of their largest energy."""
    centre = draw(st.floats(-50.0, 50.0) | st.floats(-1e12, 1e12) | st.just(0.0))
    points = draw(st.integers(2, 20_000))
    near_ulps = draw(st.booleans())
    if near_ulps:
        ulps = draw(st.floats(0.25, 64.0))
        halfwidth = ulps * math.ulp(abs(centre) + 1e-300) * (points - 1) / 2
        assume(0.0 < halfwidth <= config.MAX_ENERGY_OFFSET)
    else:
        halfwidth = draw(st.floats(5e-324, config.MAX_ENERGY_OFFSET))
    hopping = draw(st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3))
    return centre, halfwidth, points, hopping


class TestEnergyGrid:
    """The grid check works on the formula of the grid, not on the grid."""

    @settings(max_examples=300, deadline=None)
    @given(grid=_grids())
    # Energies -4, -2, 0, 2, 4: on both window bounds and, at 1 eV hopping,
    # on both band edges.
    @example(grid=(0.0, 4.0, 5, 3.0))
    @example(grid=(0.0, 4.0, 5, 1.0))
    @example(grid=(0.0, 5.0, MAX_GRID_POINTS, 3.0))
    @example(grid=(0.0, 5.0, MAX_GRID_POINTS, 1e-3))
    # 1e9 eV: a step of 8 ulps, so the check builds the grid.
    @example(grid=(1e9, 5.0, MAX_GRID_POINTS, 3.0))
    # 1e11 eV: 1 ulp apart, and rounding ties neighbours.
    @example(grid=(1e11, 0.5 * math.ulp(1e11) * (MAX_GRID_POINTS - 1), MAX_GRID_POINTS, 3.0))
    def test_matches_linspace(self, grid):
        increasing, window, usable = _linspace_verdict(*grid)
        assert config._grid_increasing(*grid[:3]) is increasing
        if increasing:
            assert config._shift_fit_points(*grid) == (window, usable)
        lo, step, hi = config._grid(*grid[:3])
        if step != 0:  # np.linspace spaces a step that underflows otherwise
            expected = np.linspace(lo, hi, grid[2])
            assert config.energy_grid(*grid[:3]).tobytes() == expected.tobytes()

    def test_validate_builds_no_grid(self):
        cfg = PipelineConfig(grid_points=MAX_GRID_POINTS)
        tracemalloc.start()
        try:
            cfg.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCsvWriter:
    @settings(max_examples=40, deadline=None)
    @given(csv_tables())
    @example((["a", "b"], [np.array([]), []], [[], []]))  # header only
    # Cell text that looks like a format directive is written as data.
    @example((["s"], [_FORMAT_LOOKALIKES], [_FORMAT_LOOKALIKES]))
    @example(
        (
            ["e", "s", "n"],
            [np.linspace(0.0, 1.0, 5), _FORMAT_LOOKALIKES, np.arange(5)],
            [np.linspace(0.0, 1.0, 5).tolist(), _FORMAT_LOOKALIKES, list(range(5))],
        )
    )
    def test_matches_per_value_formula(self, table):
        header, columns, values = table
        with tempfile.TemporaryDirectory() as tmp:
            written, reference = Path(tmp) / "written.csv", Path(tmp) / "reference.csv"
            _write_csv(written, header, columns)
            _reference_csv(reference, header, values)
            assert written.read_bytes() == reference.read_bytes()

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        energies = np.linspace(-5.0, 5.0, 200_000)
        values = np.exp(energies)
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "curve.csv", ["energy_ev", "transmission"], [energies, values])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_floats_written_as_null(tmp_path):
    path = tmp_path / "report.json"
    _write_json(path, {"inf": float("inf"), "ninf": -np.inf, "nan": np.nan, "x": [1.5, np.inf]})
    payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert payload == {"inf": None, "ninf": None, "nan": None, "x": [1.5, None]}


def _run_fresh(probe: str) -> str:
    """Standard output of `probe` run by a fresh interpreter that imports this jjvar."""
    src = str(Path(jjvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh `import jjvar.cli` loads `module`."""
    return _run_fresh(f"import sys, jjvar.cli; print({module!r} in sys.modules)") == "True"


def test_every_export_resolves():
    # A stale `__all__` entry breaks `from jjvar.<module> import *`.
    for info in pkgutil.iter_modules(jjvar.__path__):
        exec(f"from jjvar.{info.name} import *", {})


def _jjvar_modules_executed(argv: list[str], numpy: bool = False) -> str:
    """"CODE [modules]": main's exit code and the jjvar modules a fresh
    interpreter executes to run `main(argv)`, import of jjvar.cli included;
    with `numpy`, then whether that run imported numpy."""
    probe = (
        "import contextlib, io, pathlib, sys\n"
        "ran = []\n"
        "sys.addaudithook(lambda event, args: event == 'exec' and ran.append(args[0]))\n"
        "import jjvar.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = jjvar.cli.main({argv!r})\n"
        "package = pathlib.Path(jjvar.__file__).parent\n"
        "paths = [pathlib.Path(getattr(c, 'co_filename', '')) for c in ran]\n"
        "print(code, sorted(p.stem for p in paths if p.parent == package)"
        + (", 'numpy' in sys.modules)" if numpy else ")")
    )
    return _run_fresh(probe)


_STAGE_MODULES = {
    "fit-stats --counts": ([], False),
    "fit-stats --structures": (["structure"], True),
    "analyze": (["motifs", "structure"], True),
    "transmission": (["transport"], True),
    "ej": (["constants", "josephson"], False),
    "pipeline": (["constants", "josephson", "motifs", "structure", "transport"], True),
}


@pytest.mark.parametrize("command", sorted(_STAGE_MODULES))
def test_each_subcommand_executes_only_its_stage_modules(tmp_path, command):
    counts = write_counts_file(tmp_path / "counts.txt", k=50)
    directory = write_structure_dir(tmp_path)
    config = tmp_path / "pipeline.cfg"
    config.write_text(f"paths.structures = {directory}\ntransport.grid_points = 101\n")
    argv = {
        "fit-stats --counts": ["fit-stats", "--counts", str(counts), "--m", "fixed=40"],
        "fit-stats --structures": ["fit-stats", "--structures", str(directory), "--m", "fixed=40"],
        "analyze": ["analyze", "--structures", str(directory)],
        "transmission": ["transmission", "--grid", "21"],
        "ej": ["ej"],
        "pipeline": ["--config", str(config), "pipeline"],
    }[command]
    stage_modules, numpy = _STAGE_MODULES[command]
    modules = sorted(["__init__", "cli", "config", "stats"] + stage_modules)
    executed = _jjvar_modules_executed(["--out", str(tmp_path / "out")] + argv, numpy=True)
    assert executed == f"0 {modules} {numpy}"


@pytest.mark.parametrize("counts, code", [(None, 0), ("5\n5\n", 2)], ids=["fit", "input-error"])
def test_fit_stats_on_counts_executes_no_stage_module(tmp_path, counts, code):
    path = tmp_path / "counts.txt"
    if counts is None:
        write_counts_file(path, k=50)
    else:
        path.write_text(counts)
    argv = ["--out", str(tmp_path / "out"), "fit-stats", "--counts", str(path), "--m", "fixed=40"]
    assert _jjvar_modules_executed(argv) == f"{code} ['__init__', 'cli', 'config', 'stats']"


@pytest.mark.parametrize(
    "counts, code", [(None, 0), ("5\n5\n", 2), (None, 3)], ids=["fit", "input-error", "unconverged"]
)
def test_fit_stats_on_counts_imports_no_numpy(tmp_path, counts, code):
    path = tmp_path / "counts.txt"
    if counts is None:
        write_counts_file(path, k=50)
    else:
        path.write_text(counts)
    argv = ["--out", str(tmp_path / "out"), "fit-stats", "--counts", str(path), "--m", "fixed=40"]
    # One Newton iteration leaves the fit unconverged, which exits 3.
    max_iter = 1 if code == 3 else 200
    probe = (
        "import contextlib, functools, io, sys, jjvar.cli, jjvar.stats\n"
        f"jjvar.stats.fit = functools.partial(jjvar.stats.fit, max_iter={max_iter})\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = jjvar.cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)"
    )
    assert _run_fresh(probe) == f"{code} False"


@pytest.mark.parametrize("command", ["fit-stats", "analyze", "transmission", "ej", "pipeline"])
def test_help_imports_no_numpy(command):
    probe = (
        "import contextlib, io, sys, jjvar.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        jjvar.cli.main([{command!r}, '--help'])\n"
        "    except SystemExit as exit:\n"
        "        code = exit.code\n"
        "print(code, 'numpy' in sys.modules)"
    )
    assert _run_fresh(probe) == "0 False"


def test_transmission_executes_only_transport(tmp_path):
    argv = ["--out", str(tmp_path / "out"), "transmission", "--grid", "21"]
    assert _jjvar_modules_executed(argv) == "0 ['__init__', 'cli', 'config', 'stats', 'transport']"


def test_analyze_executes_no_transport_or_josephson(tmp_path):
    directory = write_structure_dir(tmp_path, h_counts=(1,))
    argv = ["--out", str(tmp_path / "out"), "analyze", "--structures", str(directory)]
    executed = "0 ['__init__', 'cli', 'config', 'motifs', 'stats', 'structure']"
    assert _jjvar_modules_executed(argv) == executed


def test_cli_binds_the_stage_modules_imported_around_it():
    # A spy set on a module imported before or after jjvar.cli must see the
    # calls the CLI makes.
    probe = (
        "import jjvar.structure as before, jjvar.cli as cli, jjvar.transport as after\n"
        "from jjvar import motifs\n"
        "print(cli.structure is before, cli.transport is after, cli.motifs is motifs)"
    )
    assert _run_fresh(probe) == "True True True"


@pytest.mark.parametrize(
    "setup, expected",
    [
        ("os.environ.pop('OPENBLAS_NUM_THREADS', None)", "1"),
        ("os.environ['OPENBLAS_NUM_THREADS'] = '4'", "4"),
        ("os.environ.pop('OPENBLAS_NUM_THREADS', None); import numpy", "None"),
    ],
    ids=["unset", "preset", "numpy-first"],
)
def test_main_limits_openblas_to_one_thread_unless_set(setup, expected):
    probe = (
        f"import contextlib, io, os\n{setup}\nimport jjvar.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    jjvar.cli.main(['--help'])\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    assert _run_fresh(probe) == expected


def test_cli_import_leaves_scipy_spatial_unloaded():
    assert not _loaded_by_cli_import("scipy.spatial")


def test_cli_import_leaves_scipy_special_unloaded():
    assert not _loaded_by_cli_import("scipy.special")


def test_cli_import_leaves_concurrent_futures_unloaded():
    assert not _loaded_by_cli_import("concurrent.futures")


def test_pipeline_run_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use: about 11 ms and 0.8 MB per run.
    config = tmp_path / "pipeline.cfg"
    directory = write_structure_dir(tmp_path)
    config.write_text(f"paths.structures = {directory}\ntransport.grid_points = 101\n")
    argv = ["--config", str(config), "--out", str(tmp_path / "out"), "pipeline"]
    probe = (
        f"import io, contextlib, sys, jjvar.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = jjvar.cli.main({argv!r})\nprint(code, 'numpy.ma' in sys.modules)"
    )
    assert _run_fresh(probe) == "0 False"


def test_analyze_run_loads_no_scipy(tmp_path):
    directory = write_structure_dir(tmp_path, h_counts=(1, 2))
    argv = ["--out", str(tmp_path / "out"), "analyze", "--structures", str(directory)]
    probe = (
        f"import sys, jjvar.cli; code = jjvar.cli.main({argv!r}); "
        "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert _run_fresh(probe) == "0 []"


@pytest.mark.parametrize("source", ["counts", "structures"])
@pytest.mark.parametrize("md_area", [None, 900.0], ids=["default", "900"])
def test_reference_area_is_the_configured_md_area(tmp_path, source, md_area):
    config = tmp_path / "run.cfg"
    config.write_text("" if md_area is None else f"junction.md_area = {md_area}\n")
    if source == "counts":
        inputs = ["--counts", str(write_counts_file(tmp_path / "counts.txt", k=50))]
    else:
        directory = write_structure_dir(tmp_path, h_counts=(0, 0, 1, 2, 3, 5, 6, 6))
        inputs = ["--structures", str(directory)]
    out = tmp_path / "out"
    argv = ["--config", str(config), "--out", str(out), "fit-stats", *inputs, "--m", "fixed=40"]
    assert main(argv) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["reference_area_a2"] == (PipelineConfig().md_area if md_area is None else md_area)


def test_stats_runs_without_numpy(tmp_path):
    path = write_counts_file(tmp_path / "counts.txt", k=50)
    probe = (
        "import sys, jjvar.stats as stats\n"
        f"sample = stats.read_counts({str(path)!r})\n"
        "fixed, scanned = stats.fit(sample, trials=40), stats.fit(sample)\n"
        "print(len(fixed.dist.pmf_vector()), len(scanned.scan) > 1, 'numpy' in sys.modules)"
    )
    assert _run_fresh(probe) == "41 True False"


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("marked", ["counts", "config", "structure"])
def test_byte_order_mark_changes_no_artifact(tmp_path, marked):
    directory = write_structure_dir(tmp_path, h_counts=(0, 1, 2, 3))
    counts = write_counts_file(tmp_path / "counts.txt", k=50)
    config = tmp_path / "run.cfg"
    config.write_text("stats.m = fixed=40\n")
    command = ["analyze", "--structures", str(directory)]
    if marked != "structure":
        command = ["fit-stats", "--counts", str(counts)]
    path = {"counts": counts, "config": config, "structure": sorted(directory.iterdir())[0]}[marked]
    artifacts = []
    for bom in (b"", _BOM):
        path.write_bytes(bom + path.read_bytes().removeprefix(_BOM))
        out = tmp_path / f"out{len(bom)}"
        assert main(["--config", str(config), "--out", str(out), *command]) == 0
        artifacts.append(read_dir_bytes(out))
    assert artifacts[0] == artifacts[1]


def _run_cli(argv: list[str], text: bool = True, **env: str) -> subprocess.CompletedProcess:
    """`python -m jjvar.cli argv` in a fresh interpreter that imports this
    jjvar, with `env` added to the environment."""
    src = str(Path(jjvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env)
    command = [sys.executable, "-m", "jjvar.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, text=text, timeout=120)


def _run_in_c_locale(argv: list[str], utf8_mode: bool) -> subprocess.CompletedProcess:
    """`jjvar argv` in a fresh interpreter under LC_ALL=C, with Python's UTF-8
    mode on or off (off: the locale's encoding is ASCII); output as bytes."""
    return _run_cli(argv, text=False, LC_ALL="C", PYTHONUTF8=str(int(utf8_mode)))


@pytest.mark.parametrize("command", ["fit-stats", "analyze"])
def test_text_is_utf8_whatever_the_locale(tmp_path, command):
    # A count file with a non-ASCII comment, structure files with non-ASCII
    # names, one of them skipped: the same artifacts in an ASCII locale as in
    # UTF-8 mode.
    if command == "fit-stats":
        counts = tmp_path / "counts.txt"
        write_counts_file(counts, k=50)
        counts.write_bytes("# généré\n".encode() + counts.read_bytes())
        argv = ["fit-stats", "--counts", str(counts), "--m", "fixed=40"]
    else:
        directory = write_structure_dir(tmp_path, h_counts=(1, 2))
        first = os.fsencode(sorted(directory.iterdir())[0])
        os.rename(first, os.path.join(os.fsencode(directory), "é.xyz".encode()))
        with open(os.path.join(os.fsencode(directory), "ü.xyz".encode()), "wb") as fh:
            fh.write(b"not a structure\n")
        argv = ["analyze", "--structures", str(directory)]
    artifacts = []
    for utf8_mode in (False, True):
        out = tmp_path / f"out{int(utf8_mode)}"
        result = _run_in_c_locale(["--out", str(out), *argv], utf8_mode)
        assert result.returncode == 0, result.stderr
        artifacts.append(read_dir_bytes(out))
    assert artifacts[0] == artifacts[1]
    if command == "analyze":
        assert "\né,".encode() in artifacts[0]["stoichiometry.csv"]
        failures = json.loads(artifacts[0]["ensemble_summary.json"])["failures"]
        assert [f["file"] for f in failures] == ["ü.xyz"]


def _non_ascii_dir(parent: Path) -> Path:
    """`parent`/sé, created whatever the file-system encoding of this process."""
    path = Path(os.fsdecode(os.path.join(os.fsencode(parent), "sé".encode())))
    path.mkdir()
    return path


@pytest.mark.parametrize("key", ["counts", "structures", "out"])
def test_config_paths_resolve_whatever_the_locale(tmp_path, key):
    # A non-ASCII name in paths.* gives the same artifacts in an ASCII locale
    # as in UTF-8 mode, as the same name on the command line does.
    here = _non_ascii_dir(tmp_path)
    counts = write_counts_file(here / "c.txt" if key == "counts" else tmp_path / "c.txt", k=50)
    directory = write_structure_dir(here if key == "structures" else tmp_path, h_counts=(1, 2))
    artifacts = []
    for utf8_mode in (False, True):
        out = (here if key == "out" else tmp_path) / f"out{int(utf8_mode)}"
        config = tmp_path / "run.cfg"
        config.write_text(
            f"paths.counts = {counts}\npaths.structures = {directory}\npaths.out = {out}\n"
            "stats.m = fixed=40\n",
            encoding="utf-8",
        )
        command = "analyze" if key == "structures" else "fit-stats"
        result = _run_in_c_locale(["--config", str(config), command], utf8_mode)
        assert result.returncode == 0, result.stderr
        artifacts.append(read_dir_bytes(out))
    assert artifacts[0] and artifacts[0] == artifacts[1]


def test_missing_config_path_is_quoted_as_written(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"paths.counts = {tmp_path}/sé/c.txt\n", encoding="utf-8")
    # An ASCII stderr escapes the é; UTF-8 mode writes it.
    for utf8_mode, name in ((False, b"s\\xe9/c.txt"), (True, "sé/c.txt".encode())):
        result = _run_in_c_locale(["--config", str(config), "fit-stats"], utf8_mode)
        assert result.returncode == 2
        expected = b"paths.counts must be an existing path, got %s/%s\n" % (os.fsencode(tmp_path), name)
        assert result.stderr == b"error: " + expected


def test_structure_file_not_utf8_is_named_once(tmp_path, capsys):
    directory = write_structure_dir(tmp_path, h_counts=(1, 2))
    (directory / "bad.xyz").write_bytes(b"\xff\n")
    message = "not UTF-8 text (invalid start byte at byte 0)"
    out = tmp_path / "out"
    assert main(["--out", str(out), "analyze", "--structures", str(directory)]) == 0
    assert capsys.readouterr().err == f"warning: skipping bad.xyz: {message}\n"
    failures = json.loads((out / "ensemble_summary.json").read_text())["failures"]
    assert failures == [{"file": "bad.xyz", "error": message}]
    argv = ["--out", str(out), "fit-stats", "--structures", str(directory), "--m", "fixed=40"]
    assert main(argv) == 0
    assert json.loads((out / "fit_report.json").read_text())["skipped"] == failures


def test_main_leaves_the_collector_as_it_was(tmp_path):
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert main(["--out", str(tmp_path / "out"), "ej"]) == 0
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_main_registers_one_exit_hook(tmp_path, monkeypatch):
    # The hook freezes the collector's objects at exit; an earlier test's
    # main may have registered it in this process already.
    monkeypatch.setattr(cli, "_exit_hook_registered", False)
    before = atexit._ncallbacks()
    for k in range(5):
        assert main(["--out", str(tmp_path / f"out{k}"), "ej"]) == 0
    assert atexit._ncallbacks() == before + 1


@pytest.mark.parametrize("code", [2, 3])
def test_subprocess_error_exits_print_their_error(tmp_path, code):
    config = tmp_path / "cfg.txt"
    if code == 3:  # no barrier height in the bounds reaches the target
        config.write_text("transport.target_jj = 0.5\ntransport.bounds_lo = 8\ntransport.bounds_hi = 20\n")
    result = _run_cli(["--config", str(config), "--out", str(tmp_path / "o"), "transmission"])
    assert result.returncode == code
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
