"""Command-line pipeline: fit-stats, analyze, transmission, ej, pipeline.

Exit codes: 0 success, 2 input error, 3 numerical/convergence error.
All emitted files are deterministic for a given (config, seed).  JSON floats
are written as their shortest round-trip repr; CSV floats carry 12
significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import josephson, motifs, stats, structure, transport
from .config import ConfigError, PipelineConfig, load_config

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (
    ConfigError,
    structure.ParseError,
    structure.ConfigurationError,
    stats.DegenerateDataError,
    OSError,
    ValueError,
)
_NUMERICAL_ERRORS = (
    stats.FitConvergenceError,
    transport.CalibrationError,
    transport.NumericalError,
)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n")


# Rows formatted per write.  Only one block of row strings exists at a time,
# so writing a table takes the same memory whatever its length.
_CSV_BLOCK_ROWS = 4096


def _is_float_column(column) -> bool:
    if isinstance(column, np.ndarray):
        return column.dtype.kind == "f"
    return len(column) > 0 and isinstance(column[0], float)


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns (1-D arrays or lists, one type each) as CSV
    rows under `header`: floats with 12 significant digits, other values as
    str() gives them.  Each block is one `%` over the row template repeated
    per row and the block's values interleaved row by row; `%.12g` and `%s`
    give the same text as `format(v, ".12g")` and `str(v)`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    template = ",".join("%.12g" if _is_float_column(c) else "%s" for c in columns) + "\n"
    width = len(columns)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            rows = min(_CSV_BLOCK_ROWS, len(columns[0]) - start)
            flat = [None] * (rows * width)
            for k, c in enumerate(columns):
                block = c[start : start + rows]
                flat[k::width] = block.tolist() if isinstance(block, np.ndarray) else block
            fh.write(template * rows % tuple(flat))


def _read_json(path: Path, what: str):
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None


def _json_number(payload, path: Path, *keys: str) -> float:
    """The finite number at payload[keys[0]][keys[1]]...; anything else is an input error."""
    value = payload
    for key in keys:
        value = value.get(key) if isinstance(value, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{path}: {'.'.join(keys)} is missing or not a finite number")
    return float(value)


class _StructurePass(NamedTuple):
    """One read of a structure directory.  `counts` and `rows` hold, per file
    in name order, the census count and the analyze row, or the error message
    (str) that rejected the file; each is None when not asked for.  Parsed
    structures are kept only while their batch is analysed."""

    files: list[Path]
    counts: list | None
    rows: list | None


# Most atoms analysed together: each batch of files gets one cell-list index,
# one classification pass and one set of per-structure reductions.  The
# analysis arrays grow with the batch, so a fixed budget keeps the memory of
# a pass independent of the directory size; a larger structure is a batch of
# its own.
_BATCH_ATOMS = 6144


def _structure_pass(cfg: PipelineConfig, *, census: bool, analyze: bool) -> _StructurePass:
    """Read and parse each structure file once, and analyse them in batches."""
    files = sorted(
        p for p in Path(cfg.structures).iterdir() if p.suffix.lower() in (".xyz", ".extxyz")
    )
    if not files:
        raise FileNotFoundError(f"no .xyz structures in {cfg.structures}")
    counts = [] if census else None
    rows = [] if analyze else None
    for outcomes, batch in _read_batches(files):
        regions, members = structure.oxide_regions(batch)
        regions = iter(regions)
        records = iter(
            motifs.classify_batch(
                batch,
                cutoffs=cfg.cutoff_overrides() or None,
                members=members,
                surface_depth=cfg.surface_depth,
                surface_bin=cfg.surface_bin,
            )
            if analyze
            else []
        )
        for message in outcomes:
            region = next(regions) if message is None else message
            if counts is not None:
                counts.append(region if isinstance(region, str) else region.n_h)
            if rows is not None:
                rows.append(_analyze_row(region, next(records)) if message is None else message)
    return _StructurePass(files, counts, rows)


def _read_batches(files: list[Path]):
    """(per file in name order, None or the message that rejects it; the
    parsed structures as a StructureBatch), for batches of files that hold at
    most _BATCH_ATOMS atoms unless one structure alone holds more.  A
    batch's structures are dropped once it is built."""
    outcomes, parsed, atoms = [], [], 0
    for path in files:
        s = _read(path)
        size = 0 if isinstance(s, str) else len(s)
        if outcomes and atoms + size > _BATCH_ATOMS:
            done = outcomes, structure.StructureBatch(parsed)
            outcomes, parsed, atoms = [], [], 0
            yield done
        if isinstance(s, str):
            outcomes.append(s)
        else:
            outcomes.append(None)
            parsed.append(s)
            atoms += size
    if outcomes:
        yield outcomes, structure.StructureBatch(parsed)


def _read(path: Path):
    """The structure in one file, or the message that rejects the file."""
    if not path.is_file():
        return "not a regular file"
    try:
        return structure.read_structure(path)
    except OSError as exc:
        return exc.strerror or str(exc)
    except ValueError as exc:  # ParseError included
        return str(exc)


def _analyze_row(region, records):
    """((n_al, n_o, n_h, x, h_atpct), motif records) of one structure, or the
    error message that rejects it; `region` and `records` are its oxide region
    and its motif records, or the message that stands in for each.  A
    bond-query error is reported first."""
    if isinstance(records, str):
        return records
    if isinstance(region, str):
        return region
    try:
        x, h_pct = structure.stoichiometry(region)
    except ValueError as exc:
        return str(exc)
    return (region.n_al, region.n_o, region.n_h, float(x), float(h_pct)), records


def _collect(files: list[Path], outcomes: list, warned: list | None = None) -> tuple[list, list[dict]]:
    """([(file stem, result)], skipped) from per-file outcomes of a pass.

    A rejected file is skipped with a warning and listed as {"file", "error"};
    the warning is left out when `warned` (an earlier stage's outcomes for the
    same files) already carries the same message.  If every file fails, that
    is an input error.
    """
    results = []
    skipped = []
    for k, (path, outcome) in enumerate(zip(files, outcomes)):
        if not isinstance(outcome, str):
            results.append((path.stem, outcome))
            continue
        skipped.append({"file": path.name, "error": outcome})
        if warned is None or warned[k] != outcome:
            print(f"warning: skipping {path.name}: {outcome}", file=sys.stderr)
    if not results:
        raise FileNotFoundError(f"all {len(files)} structure files failed to parse")
    return results, skipped


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit_stats(cfg: PipelineConfig, out: Path, scan: _StructurePass | None = None) -> list[Path]:
    """Fit the H-count distribution; `scan` is a pass over cfg.structures
    that already holds the census, if the caller made one."""
    skipped = []
    if cfg.counts is not None:
        sample = stats.read_counts(cfg.counts, area=cfg.md_area)
    elif cfg.structures is not None:
        # Per-structure hydrogen census inside the oxide region.
        if scan is None:
            scan = _structure_pass(cfg, census=True, analyze=False)
        census, skipped = _collect(scan.files, scan.counts)
        sample = stats.CountSample(counts=tuple(n for _, n in census), area=cfg.md_area)
    else:
        raise FileNotFoundError("fit-stats needs a counts file or a structure directory")

    result = stats.fit(sample, **cfg.m_fit_args())
    report = result.report()
    report.update(
        {
            "converged": result.converged,
            "iterations": result.iterations,
            "n_samples": len(sample.counts),
            "m_strategy": cfg.m_strategy,
            "reference_area_a2": sample.area,
            "skipped": skipped,
        }
    )
    report_path = out / "fit_report.json"
    _write_json(report_path, report)

    support = np.arange(result.dist.trials + 1)
    observed = np.bincount(np.array(sample.counts), minlength=support.size)
    hist_path = out / "h_histogram.csv"
    _write_csv(
        hist_path, ["n", "observed", "fitted_pmf"], [support, observed, result.dist.pmf_vector()]
    )
    if not result.converged:
        raise stats.FitConvergenceError(
            f"beta-binomial fit did not converge in {result.iterations} iterations "
            f"(report written to {report_path})"
        )
    return [report_path, hist_path]


def cmd_analyze(cfg: PipelineConfig, out: Path, scan: _StructurePass | None = None) -> list[Path]:
    """Stoichiometry and motif analysis; `scan` is a pass over cfg.structures
    that already holds the analyze rows, if the caller made one."""
    if cfg.structures is None:
        raise FileNotFoundError("analyze needs a structure directory")
    if scan is None:
        scan = _structure_pass(cfg, census=False, analyze=True)
    results, failures = _collect(scan.files, scan.rows, warned=scan.counts)

    names = [name for name, _ in results]
    n_al, n_o, n_h, xs, hs = (np.array(c) for c in zip(*(row for _, (row, _) in results)))
    per_sample_records = [records for _, (_, records) in results]

    stoich_path = out / "stoichiometry.csv"
    _write_csv(
        stoich_path,
        ["sample", "n_al", "n_o", "n_h", "x", "h_atpct"],
        [names, n_al, n_o, n_h, xs, hs],
    )

    summary_path = out / "ensemble_summary.json"
    _write_json(
        summary_path,
        {
            "samples": len(results),
            "failures": failures,
            "x": {"mean": xs.mean(), "std": xs.std()},
            "h_atpct": {"mean": hs.mean(), "std": hs.std()},
        },
    )

    motif_csv_path = out / "motifs.csv"
    records = [rec for recs in per_sample_records for rec in recs]
    _write_csv(
        motif_csv_path,
        ["sample", "h_index", "class", "surface"],
        [
            [name for name, recs in zip(names, per_sample_records) for _ in recs],
            [rec.h_index for rec in records],
            [rec.label for rec in records],
            [int(rec.surface) for rec in records],
        ],
    )

    stats_table = motifs.motif_statistics(per_sample_records)
    motif_json_path = out / "motif_table.json"
    _write_json(
        motif_json_path,
        {
            "classes": stats_table.table(),
            "samples": stats_table.samples,
            "samples_with_h": stats_table.samples_with_h,
        },
    )
    return [stoich_path, summary_path, motif_csv_path, motif_json_path]


def cmd_transmission(cfg: PipelineConfig, out: Path) -> list[Path]:
    base = transport.default_model(
        barrier_sites=cfg.barrier_sites,
        lead_onsite=cfg.lead_onsite,
        lead_hopping=cfg.lead_hopping,
    )
    bounds = (cfg.bounds_lo, cfg.bounds_hi)
    cal_jj = transport.calibrate_barrier(cfg.target_jj, bounds=bounds, base=base)
    cal_jjh = transport.calibrate_barrier(cfg.target_jjh, bounds=bounds, base=base)
    delta_v = cal_jjh.height - cal_jj.height
    model_jj = cal_jj.model
    model_jjh = transport.apply_defect(model_jj, delta_v)

    e_f = model_jj.fermi_energy
    ends = []
    for end in (e_f - cfg.grid_halfwidth, e_f + cfg.grid_halfwidth):
        # The sum can round past the reach `transmission` checks; step back inside.
        while abs(end - model_jj.lead_onsite) > transport.MAX_ENERGY_OFFSET:
            end = math.nextafter(end, e_f)
        ends.append(end)
    grid = np.linspace(*ends, cfg.grid_points)
    curve_jj = transport.transmission(model_jj, grid)
    curve_jjh = transport.transmission(model_jjh, grid)
    shift = transport.fit_transmission_shift(
        curve_jj, curve_jjh, window=(e_f - 2.0, e_f + 2.0), shift_bounds=(-1.0, 1.0)
    )

    paths = []
    for tag, curve in (("jj", curve_jj), ("jj_h", curve_jjh)):
        path = out / f"transmission_{tag}.csv"
        _write_csv(path, ["energy_ev", "transmission"], [curve.energies, curve.values])
        paths.append(path)

    sidecar = out / "calibration.json"
    _write_json(
        sidecar,
        {
            "jj": {
                "barrier_height_ev": cal_jj.height,
                "transmission": cal_jj.transmission,
                "target": cfg.target_jj,
            },
            "jj_h": {
                "barrier_height_ev": cal_jjh.height,
                "transmission": cal_jjh.transmission,
                "target": cfg.target_jjh,
                "delta_v_ev": delta_v,
            },
            "curve_shift_ev": shift,
            "barrier_sites": cfg.barrier_sites,
        },
    )
    paths.append(sidecar)
    return paths


def cmd_ej(
    cfg: PipelineConfig,
    out: Path,
    fit_report: Path | None = None,
    calibration: Path | None = None,
) -> list[Path]:
    if fit_report is not None:
        payload = _read_json(fit_report, "fit report")
        trials = _json_number(payload, fit_report, "M")
        if not trials.is_integer():
            raise ValueError(f"{fit_report}: M must be an integer, got {trials}")
        dist = stats.BetaBinomial(
            _json_number(payload, fit_report, "alpha"),
            _json_number(payload, fit_report, "beta"),
            int(trials),
        )
    else:
        dist = stats.BetaBinomial(cfg.alpha, cfg.beta, cfg.trials)

    t_jj, t_jjh = cfg.target_jj, cfg.target_jjh
    if calibration is not None:
        payload = _read_json(calibration, "calibration sidecar")
        t_jj = _json_number(payload, calibration, "jj", "transmission")
        t_jjh = _json_number(payload, calibration, "jj_h", "transmission")

    params = josephson.JunctionParams(
        gap_mev=cfg.gap_mev, area=cfg.area, patch_area=cfg.patch_area, md_area=cfg.md_area
    )
    e_jj = josephson.ej_single(t_jj, params.gap_mev, params.area, params.patch_area)
    e_jjh = josephson.ej_single(t_jjh, params.gap_mev, params.area, params.patch_area)
    distribution = josephson.ej_distribution(dist, params, e_jj, e_jjh)

    report_path = out / "ej_report.json"
    _write_json(
        report_path,
        {
            "e_jj_ghz": e_jj,
            "e_jjh_ghz": e_jjh,
            "slope": distribution.transform.slope,
            "offset": distribution.transform.offset,
            "mean_ghz": distribution.mean(),
            "std_ghz": distribution.std(),
            "counts": {"alpha": dist.alpha, "beta": dist.beta, "M": dist.trials},
        },
    )
    pmf_path = out / "ej_pmf.csv"
    _write_csv(
        pmf_path, ["ej_ghz", "probability"], [distribution.support(), distribution.probabilities()]
    )
    return [report_path, pmf_path]


def cmd_pipeline(cfg: PipelineConfig, out: Path) -> tuple[int, Path]:
    # When the census comes from the structures, fit_stats reads each file
    # once for both stages and hands the analyze rows on; a missing or empty
    # directory then fails fit_stats, as the census alone would.
    scan = None

    def fit_stats():
        nonlocal scan
        if cfg.counts is not None or cfg.structures is None:
            return cmd_fit_stats(cfg, out)
        scan = _structure_pass(cfg, census=True, analyze=True)
        return cmd_fit_stats(cfg, out, scan)

    def analyze():
        nonlocal scan
        handed, scan = scan, None
        return cmd_analyze(cfg, out, handed)

    stages = [
        ("fit_stats", fit_stats),
        ("analyze", analyze),
        ("transmission", lambda: cmd_transmission(cfg, out)),
        (
            "ej",
            lambda: cmd_ej(
                cfg, out, fit_report=out / "fit_report.json", calibration=out / "calibration.json"
            ),
        ),
    ]
    manifest = []
    failed_code = EXIT_OK
    for name, runner in stages:
        if failed_code != EXIT_OK:
            manifest.append({"name": name, "status": "skipped", "artifacts": []})
            continue
        try:
            artifacts = runner()
            manifest.append(
                {
                    "name": name,
                    "status": "completed",
                    "artifacts": [p.name for p in artifacts],
                }
            )
        except _NUMERICAL_ERRORS as exc:
            manifest.append({"name": name, "status": "failed", "artifacts": [], "error": str(exc)})
            failed_code = EXIT_NUMERICAL
        except _INPUT_ERRORS as exc:
            manifest.append({"name": name, "status": "failed", "artifacts": [], "error": str(exc)})
            failed_code = EXIT_INPUT
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, {"seed": cfg.seed, "stages": manifest})
    return failed_code, manifest_path


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jjvar",
        description="Hydrogen-contamination variability analysis for Al/AlOx/Al junctions",
    )
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, help="base RNG seed recorded in the manifest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-stats", help="fit the hydrogen-count distribution")
    p.add_argument("--counts", help="count file (one integer per line, or CSV with n_h)")
    p.add_argument("--structures", help="structure directory to census instead")
    p.add_argument("--m", dest="m_strategy", help="'scan', 'scan=LO:HI' or 'fixed=M'")

    p = sub.add_parser("analyze", help="stoichiometry and motif analysis of structures")
    p.add_argument("--structures", help="directory of extended-XYZ files")

    p = sub.add_parser("transmission", help="calibrated transmission curves")
    p.add_argument("--grid", type=int, help="number of energy grid points")

    p = sub.add_parser("ej", help="Josephson-energy distribution")
    p.add_argument("--fit-report", help="fit_report.json from fit-stats")
    p.add_argument("--calibration", help="calibration.json from transmission")

    sub.add_parser("pipeline", help="run all stages in dependency order")
    return parser


def _apply_cli_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    updates = {}
    if args.out is not None:
        updates["out"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    for name in ("counts", "structures", "m_strategy"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if getattr(args, "grid", None) is not None:
        updates["grid_points"] = args.grid
    return dataclasses.replace(cfg, **updates)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = PipelineConfig()
        if args.config:
            cfg = load_config(args.config, base=cfg)
        cfg = _apply_cli_overrides(cfg, args)
        cfg.validate()
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)

        if args.command == "fit-stats":
            cmd_fit_stats(cfg, out)
        elif args.command == "analyze":
            cmd_analyze(cfg, out)
        elif args.command == "transmission":
            cmd_transmission(cfg, out)
        elif args.command == "ej":
            cmd_ej(
                cfg,
                out,
                fit_report=Path(args.fit_report) if args.fit_report else None,
                calibration=Path(args.calibration) if args.calibration else None,
            )
        elif args.command == "pipeline":
            code, manifest_path = cmd_pipeline(cfg, out)
            print(f"manifest: {manifest_path}")
            return code
        return EXIT_OK
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
