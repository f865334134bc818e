"""CLI contract: artifacts, schemas, exit codes, determinism."""

import contextlib
import dataclasses
import fnmatch
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jjvar
from jjvar import cli, transport
from jjvar.cli import _write_csv, _write_json, main
from jjvar.config import _KEY_MAP, MAX_BARRIER_SITES, MAX_GRID_POINTS, PipelineConfig
from jjvar.motifs import MOTIF_CLASSES
from jjvar.stats import MAX_TRIALS, BetaBinomial

from conftest import make_oxide_slab, nine_motif_fixtures, to_xyz, write_structure_dir


def write_counts_file(path: Path, seed=42, k=400) -> Path:
    draws = BetaBinomial(17.69, 15.36, 40).sample(seed=seed, k=k)
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

    def test_empty_file_exits_2(self, tmp_path):
        empty = tmp_path / "counts.txt"
        empty.write_text("\n")
        assert main(["--out", str(tmp_path / "o"), "fit-stats", "--counts", str(empty)]) == 2

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
        full_graphs = []
        full = jjvar.structure.neighbor_graph

        def spy(*args, **kwargs):
            full_graphs.append(args)
            return full(*args, **kwargs)

        jjvar_modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "jjvar"]
        for module in jjvar_modules:
            for attr, value in list(vars(module).items()):
                if value is full:
                    monkeypatch.setattr(module, attr, spy)
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "--structures", str(slab_dir)]) == 0
        assert full_graphs == []
        # The hydride branch takes its O partner from the bond query, so no
        # module binds a per-H distance scan any more.
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
        assert err.endswith("error: all 1 structure files failed to parse\n")


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

    def test_missing_upstream_exits_2(self, tmp_path):
        code = main(
            ["--out", str(tmp_path / "o"), "ej", "--fit-report", str(tmp_path / "absent.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"alpha": 17.69, "M": 40},
            {"alpha": 17.69, "beta": "15.36", "M": 40},
            {"alpha": 17.69, "beta": None, "M": 40},
            {"alpha": 17.69, "beta": 15.36, "M": 40.5},
            {"alpha": 17.69, "beta": 15.36, "M": 10**12},
            [17.69, 15.36, 40],
        ],
        ids=["missing-beta", "string-beta", "null-beta", "fractional-M", "huge-M", "not-an-object"],
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
        def fit_stats_without_beta(cfg, out):
            path = out / "fit_report.json"
            path.write_text(json.dumps({"alpha": 17.69, "M": 40}))
            return [path]

        monkeypatch.setattr(cli, "cmd_fit_stats", fit_stats_without_beta)
        config = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "pipeline"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        stages = {s["name"]: s for s in manifest["stages"]}
        assert stages["transmission"]["status"] == "completed"
        assert stages["ej"]["status"] == "failed"
        assert "beta" in stages["ej"]["error"]

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
        elif kind == "no_o":
            al = [k for k, x in enumerate(s.species) if x != "O"]
            species = tuple(s.species[k] for k in al)
            path.write_text(to_xyz(dataclasses.replace(s, species=species, positions=s.positions[al])))
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
    for kind in ("good", "fixture", "corrupt", "subdir", "no_o", "straddle", "triclinic", "short")
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
        assert len(summary["failures"]) == corrupt

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
        assert passes[0] == passes[1]
        for row, (kind, _, _) in zip(passes[0].rows, entries):
            assert isinstance(row, str) == (kind not in ("good", "fixture")) or kind == "fixture"


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
    def test_exit_code_contract(self, entries, junk, at):
        text = "".join(f"{key} = {value}\n" for key, value in entries).encode()
        keys = [key.lower() for key, _ in entries]
        duplicate = any(keys.count(key) > 1 for key in keys if key in _KEY_MAP)
        m_above = any(key.lower() == "stats.m" and _m_above_bound(value) for key, value in entries)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "cfg.txt"
            config.write_bytes(text[:at] + junk + text[at:])
            code = main(["--config", str(config), "--out", str(Path(tmp) / "out"), "ej"])
        assert code in (0, 2, 3)
        if duplicate or m_above:
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
        ["stats.alpha", "stats.beta", "stats.trials", "transport.lead_onsite", "transport.grid_halfwidth"]
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
        "alpha": _number_or_odd(st.floats(0.05, 500.0)),
        "beta": _number_or_odd(st.floats(0.05, 500.0)),
        "M": _number_or_odd(st.integers(0, 60)),
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
    )
    # An underflowing variance: a ZeroDivisionError traceback at the parent.
    @example(
        command="ej",
        config=[("stats.alpha", "1e-300"), ("stats.beta", "1e-300"), ("stats.trials", "1000")],
        counts=b"1\n",
        m="scan",
        report=None,
        sidecar=None,
    )
    @example(
        command="ej",
        config=[],
        counts=b"1\n",
        m="scan",
        report={"alpha": 1e-300, "beta": 1e-300, "M": 1000},
        sidecar=None,
    )
    # An overflowing alpha + beta: exit 0 with an all-nan PMF at the parent.
    @example(
        command="ej",
        config=[("stats.alpha", "1e308"), ("stats.beta", "1e308")],
        counts=b"1\n",
        m="scan",
        report=None,
        sidecar=None,
    )
    @example(
        command="ej",
        config=[],
        counts=b"1\n",
        m="scan",
        report={"alpha": 1e308, "beta": 1e308, "M": 40},
        sidecar=None,
    )
    # A grid end that rounds past the 20 eV reach: a late exit 2 at the parent.
    @example(
        command="transmission",
        config=[("transport.lead_onsite", "12.2"), ("transport.grid_halfwidth", "20")],
        counts=b"1\n",
        m="scan",
        report=None,
        sidecar=None,
    )
    def test_exit_code_contract(self, command, config, counts, m, report, sidecar):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            out = root / "out"
            cfg = root / "cfg.txt"
            entries = "".join(f"{key} = {value}\n" for key, value in config)
            cfg.write_text(entries + "transport.grid_points = 101\n")
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
        assert "barrier_sites: expected integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, command",
        [
            ("transport.target_jj = inf", "transmission"),
            ("junction.md_area = inf", "ej"),
            ("surface.depth = -1", "analyze"),
            ("surface.bin = nan", "analyze"),
            ("cutoff.al_o = -1", "analyze"),
            ("transport.lead_hopping = 0", "transmission"),
            ("stats.m = scan=5", "fit-stats"),
            ("stats.m = scan=3:", "fit-stats"),
            ("stats.m = fixed=1.5", "fit-stats"),
            ("stats.m = fixed=0", "fit-stats"),
            ("stats.m = scan=9:3", "fit-stats"),
            ("stats.m = scan=9:3", "pipeline"),
            ("stats.m = fixed=100001", "pipeline"),
            ("stats.m = scan=1:100001", "pipeline"),
            ("transport.grid_halfwidth = 25", "pipeline"),
            pytest.param(f"stats.m = fixed={_HUGE}", "fit-stats", id="stats.m = fixed=<5000 digits>"),
            pytest.param(f"stats.m = scan=1:{_HUGE}", "fit-stats", id="stats.m = scan=1:<5000 digits>"),
        ],
    )
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, slab_dir, line, command):
        config = tmp_path / "cfg.txt"
        config.write_text(f"paths.structures = {slab_dir}\n{line}\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        key = line.partition(" =")[0]
        assert err.startswith(f"error: {key} must be ")
        assert "warning" not in err
        assert not (tmp_path / "o").exists()


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
