"""Command-line pipeline: fit-stats, analyze, transmission, ej, pipeline.

Exit codes: 0 success, 2 input error, 3 numerical/convergence error.
All emitted files are deterministic for a given (config, seed).  JSON floats
are written as their shortest round-trip repr; CSV floats carry 12
significant digits.  Text is read and written as UTF-8 whatever the locale,
file names included.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import importlib.util
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Any, NamedTuple

from . import stats
from .config import SHIFT_WINDOW, ConfigError, PipelineConfig, energy_grid, load_config


def _lazy(name: str):
    """The submodule `name` of this package, executed on first attribute
    access.  It is in sys.modules at once, so an import of it finds this
    object; a module imported already is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# A subcommand executes only the stage modules it uses: `fit-stats --counts`
# none of these, `transmission` only transport, `analyze` structure and
# motifs, `ej` only josephson.  No module-level statement may read an
# attribute of them.  All but josephson import numpy, which `--help`,
# `fit-stats --counts` and `ej` run without.
structure = _lazy("structure")
motifs = _lazy("motifs")
transport = _lazy("transport")
josephson = _lazy("josephson")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# ConfigError, structure.ParseError, structure.ConfigurationError and
# stats.DegenerateDataError are ValueErrors.  Every error that exits
# EXIT_NUMERICAL is a stats.ComputationError, a RuntimeError, so none is an
# input error.
_INPUT_ERRORS = (OSError, ValueError)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if hasattr(obj, "dtype"):  # a numpy scalar
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, str):
        # A file name the locale's encoding could not decode holds its bytes as
        # surrogate escapes; those that are UTF-8 become the characters they encode.
        return obj.encode("utf-8", "surrogateescape").decode("utf-8", "surrogateescape")
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")


# Rows formatted per write.  Only one block of row strings exists at a time,
# so writing a table takes the same memory whatever its length.
_CSV_BLOCK_ROWS = 4096


def _is_float_column(column) -> bool:
    if hasattr(column, "dtype"):  # a numpy array
        return column.dtype.kind == "f"
    return len(column) > 0 and isinstance(column[0], float)


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns (1-D numpy arrays or sequences, one type
    each) as CSV rows under `header`: floats with 12 significant digits,
    other values as str() gives them.  Each block is one `%` over the row
    template repeated per row and the block's values interleaved row by row;
    `%.12g` and `%s` give the same text as `format(v, ".12g")` and `str(v)`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    template = ",".join("%.12g" if _is_float_column(c) else "%s" for c in columns) + "\n"
    width = len(columns)
    # surrogateescape writes a file name that is not UTF-8 as its own bytes.
    with path.open("w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            rows = min(_CSV_BLOCK_ROWS, len(columns[0]) - start)
            flat = [None] * (rows * width)
            for k, c in enumerate(columns):
                block = c[start : start + rows]
                flat[k::width] = block.tolist() if hasattr(block, "tolist") else block
            fh.write(template * rows % tuple(flat))


def _read_json(path: Path, what: str):
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    try:
        return json.loads(stats.read_text(path))
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
    """One read of a structure directory.  Per file in name order, `counts`
    holds the census count or the message (str) that rejects the file, and
    `errors` None for a file analyze accepts or the message that rejects it.
    The accepted files are analyze's samples, in name order: `census` holds
    their (n_al, n_o, n_h) rows and `table` the motif rows of their H, its
    `structure` column the sample.  A field not asked for is None.  Parsed
    structures are kept only while their batch is analysed."""

    files: list[Path]
    counts: list | None
    errors: list | None
    census: Any
    table: Any


# Most atoms analysed together: each batch of files gets one cell-list index,
# one classification pass and one set of per-structure reductions.  The
# analysis arrays grow with the batch, so a fixed budget keeps the memory of
# a pass independent of the directory size; a larger structure is a batch of
# its own.
_BATCH_ATOMS = 6144


def _structure_pass(cfg: PipelineConfig, *, census: bool, analyze: bool) -> _StructurePass:
    """Read and parse each structure file once, and analyse them in batches."""
    import numpy as np  # loaded already: structure parses the files

    files = sorted(
        p for p in Path(cfg.structures).iterdir() if p.suffix.lower() in (".xyz", ".extxyz")
    )
    if not files:
        raise FileNotFoundError(f"no .xyz structures in {cfg.structures}")
    counts = [] if census else None
    errors = [] if analyze else None
    found, tables = [], []
    for outcomes, batch in _read_batches(files):
        regions, tally, members = structure.oxide_regions(batch)
        if counts is not None:
            n_h = tally[:, 2].tolist()
            counts += _merge(outcomes, [n if r is None else r for r, n in zip(regions, n_h)])
        if errors is None:
            continue
        table = motifs.classify_batch(
            batch,
            cutoffs=cfg.cutoff_overrides() or None,
            members=members,
            surface_depth=cfg.surface_depth,
            surface_bin=cfg.surface_bin,
        )
        # A bond-query error first, then the region's message, then no Al.
        rejects = [
            bond or region or (None if n_al else structure.NO_AL_MESSAGE)
            for bond, region, n_al in zip(table.errors, regions, tally[:, 0].tolist())
        ]
        errors += _merge(outcomes, rejects)
        keep = np.array([r is None for r in rejects], dtype=bool)
        sample = np.cumsum(keep) - 1 + sum(map(len, found))
        held = keep[table.structure]
        tables.append((sample[table.structure[held]], *(c[held] for c in table[1:-1])))
        found.append(tally[keep])
    if errors is None:
        return _StructurePass(files, counts, None, None, None)
    found = np.concatenate(found)
    table = motifs.MotifTable(*map(np.concatenate, zip(*tables)), [None] * len(found))
    return _StructurePass(files, counts, errors, found, table)


def _merge(outcomes: list, results: list) -> list:
    """Per file, the message that rejected it when read, or else the next
    of `results`, which hold one entry per parsed structure."""
    results = iter(results)
    return [next(results) if m is None else m for m in outcomes]


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


def _skipped(files: list[Path], outcomes: list) -> list[dict]:
    """The files a pass rejects, as {"file", "error"}, from its per-file outcomes."""
    return [{"file": p.name, "error": o} for p, o in zip(files, outcomes) if isinstance(o, str)]


def _collect(files: list[Path], outcomes: list, warned: list | None = None) -> tuple[list, list[dict]]:
    """([(file stem, result)], skipped) from per-file outcomes of a pass.

    A rejected file is skipped with a warning and listed as {"file", "error"};
    the warning is left out when `warned` (an earlier stage's outcomes for the
    same files) already carries the same message.  If every file fails, that
    is an input error.
    """
    for k, (path, outcome) in enumerate(zip(files, outcomes)):
        if isinstance(outcome, str) and (warned is None or warned[k] != outcome):
            print(f"warning: skipping {path.name}: {outcome}", file=sys.stderr)
    results = [(p.stem, o) for p, o in zip(files, outcomes) if not isinstance(o, str)]
    if not results:
        raise FileNotFoundError(f"all {len(files)} structure files failed to parse")
    return results, _skipped(files, outcomes)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit_stats(cfg: PipelineConfig, out: Path, scan: _StructurePass | None = None) -> list[Path]:
    """Fit the H-count distribution; `scan` is a pass over cfg.structures
    that already holds the census, if the caller made one."""
    skipped = []
    if cfg.counts is not None:
        sample = stats.read_counts(cfg.counts)
    elif cfg.structures is not None:
        # Per-structure hydrogen census inside the oxide region.
        if scan is None:
            scan = _structure_pass(cfg, census=True, analyze=False)
        census, skipped = _collect(scan.files, scan.counts)
        sample = stats.CountSample(counts=tuple(n for _, n in census))
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
            "reference_area_a2": cfg.md_area,
            "skipped": skipped,
        }
    )
    report_path = out / "fit_report.json"
    _write_json(report_path, report)

    support = range(result.dist.trials + 1)
    tally = Counter(sample.counts)
    observed = [tally[n] for n in support]
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
    that already holds the analyze results, if the caller made one."""
    if cfg.structures is None:
        raise FileNotFoundError("analyze needs a structure directory")
    if scan is None:
        scan = _structure_pass(cfg, census=False, analyze=True)
    results, failures = _collect(scan.files, scan.errors, warned=scan.counts)

    import numpy as np  # loaded already: structure made the pass

    names = [name for name, _ in results]
    n_al, n_o, n_h = scan.census.T
    xs, hs = structure.stoichiometry(scan.census)
    table = scan.table

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
    labels = np.array(motifs.MOTIF_CLASSES)[table.label]
    _write_csv(
        motif_csv_path,
        ["sample", "h_index", "class", "surface"],
        [np.array(names)[table.structure], table.h_index, labels, table.surface.astype(int)],
    )

    stats_table = motifs.motif_statistics(table.label, table.surface, table.structure, len(names))
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

    # The Fermi level is the lead on-site energy, the grid's centre.
    e_f = model_jj.lead_onsite
    grid = energy_grid(e_f, cfg.grid_halfwidth, cfg.grid_points)
    curve_jj = transport.transmission(model_jj, grid)
    curve_jjh = transport.transmission(model_jjh, grid)
    window = (e_f - SHIFT_WINDOW, e_f + SHIFT_WINDOW)
    shift = transport.fit_transmission_shift(
        curve_jj, curve_jjh, window=window, shift_bounds=(-1.0, 1.0)
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
        if not (trials.is_integer() and 0 <= trials <= stats.MAX_TRIALS):
            raise ValueError(
                f"{fit_report}: M must be an integer from 0 to {stats.MAX_TRIALS}, "
                f"got {payload['M']!r}"
            )
        p = _json_number(payload, fit_report, "p")
        theta = _json_number(payload, fit_report, "theta")
        try:
            dist = stats.BetaBinomial(p, theta, int(trials))
        except ValueError as exc:  # its messages open with the key, p or theta
            raise ValueError(f"{fit_report}: {exc}") from None
        counts = {"alpha": dist.alpha, "beta": dist.beta, "M": dist.trials}
    else:
        dist = stats.BetaBinomial.from_shapes(cfg.alpha, cfg.beta, cfg.trials)
        counts = {"alpha": cfg.alpha, "beta": cfg.beta, "M": cfg.trials}

    t_jj, t_jjh = cfg.target_jj, cfg.target_jjh
    if calibration is not None:
        payload = _read_json(calibration, "calibration sidecar")
        t_jj = _json_number(payload, calibration, "jj", "transmission")
        t_jjh = _json_number(payload, calibration, "jj_h", "transmission")
        for key, t in (("jj", t_jj), ("jj_h", t_jjh)):
            if t < 0:
                raise ValueError(f"{calibration}: {key}.transmission must be non-negative, got {t}")

    e_jj = josephson.ej_single(t_jj, cfg.gap_mev, cfg.area, cfg.patch_area)
    e_jjh = josephson.ej_single(t_jjh, cfg.gap_mev, cfg.area, cfg.patch_area)
    try:
        distribution = josephson.ej_distribution(dist, e_jj, e_jjh, cfg.patch_area, cfg.md_area)
    except ValueError as exc:
        raise ConfigError(
            f"{exc}; they scale with junction.gap_mev, junction.area and junction.patch_area, "
            "the slope also with 1/junction.md_area"
        ) from None

    report_path = out / "ej_report.json"
    _write_json(
        report_path,
        {
            "e_jj_ghz": e_jj,
            "e_jjh_ghz": e_jjh,
            "slope": distribution.slope,
            "offset": distribution.offset,
            "mean_ghz": distribution.mean(),
            "std_ghz": distribution.std(),
            "counts": counts,
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
    # directory then fails fit_stats, as the census alone would.  A stage
    # that fails after its structure pass lists the files the pass skipped.
    scan = skipped = None

    def fit_stats():
        nonlocal scan, skipped
        if cfg.counts is not None or cfg.structures is None:
            return cmd_fit_stats(cfg, out)
        scan = _structure_pass(cfg, census=True, analyze=True)
        skipped = _skipped(scan.files, scan.counts)
        return cmd_fit_stats(cfg, out, scan)

    def analyze():
        nonlocal scan, skipped
        handed, scan = scan, None
        if handed is None and cfg.structures is not None:
            handed = _structure_pass(cfg, census=False, analyze=True)
        if handed is not None:
            skipped = _skipped(handed.files, handed.errors)
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
        skipped = None
        try:
            artifacts = runner()
        except _INPUT_ERRORS as exc:
            failed_code, error = EXIT_INPUT, exc
        except stats.ComputationError as exc:
            failed_code, error = EXIT_NUMERICAL, exc
        else:
            manifest.append(
                {"name": name, "status": "completed", "artifacts": [p.name for p in artifacts]}
            )
            continue
        failure = {"name": name, "status": "failed", "artifacts": [], "error": str(error)}
        if skipped is not None:
            failure["skipped"] = skipped
        manifest.append(failure)
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


_exit_hook_registered = False


def main(argv: list[str] | None = None) -> int:
    # At exit, move every tracked object into the permanent generation, so
    # the interpreter's final collections skip what numpy and jjvar leave
    # behind (about 13 ms of a cold `analyze`).  Once per process, however
    # often main runs in it.
    global _exit_hook_registered
    if not _exit_hook_registered:
        atexit.register(gc.freeze)
        _exit_hook_registered = True
    # jjvar makes no multi-threaded BLAS call, yet an OpenBLAS worker started
    # with numpy spins for about 0.1 s of CPU per run.  A value set by the
    # user wins; numpy reads it once, when it loads.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except stats.ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
