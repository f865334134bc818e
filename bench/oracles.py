"""Output checks for each workload, against oracles independent of the code path.

    python bench/oracles.py INPUTS_DIR OUT_DIR

checks the CLI artifacts in OUT_DIR against the inputs and ground truth that
gen.py wrote to INPUTS_DIR and prints the list of problems found as JSON (an
empty list means correct).  Floats in the artifacts carry 12 significant
digits, so comparisons against recomputed values allow a relative 1e-11.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import betaln
from scipy.stats import betabinom

import gen
from jjvar import transport

DIGITS_RTOL = 1e-11  # 12-significant-digit rounding, with headroom
NEGF_RTOL = 1e-10  # acceptance criterion 04: NEGF vs transfer matrix
CAL_RTOL = 1e-3  # calibrate_barrier default rel_tol
TM_SAMPLES = 64

# CLI defaults the workloads run at (README: CLI, config grammar).
GRID_HALFWIDTH = 5.0
TARGETS = {"jj": 1.61e-5, "jj_h": 1.74e-5}
GAP_MEV = 0.20
AREA = 2000.0 * 2000.0
PATCH_AREA = 9.61 * 8.32
MD_AREA = 34.17 * 34.17
GHZ_PER_MEV = 1e-3 * 1.602176634e-19 / 6.62607015e-34 / 1e9  # E/h, SI-exact constants


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rtol: float = DIGITS_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_ensemble(out: Path, truths: dict[str, gen.SlabTruth]) -> list[str]:
    problems = []
    stoich = {r["sample"]: r for r in _rows(out / "stoichiometry.csv")}
    if set(stoich) != set(truths):
        return [f"stoichiometry.csv samples {sorted(stoich)[:3]}... != generated {len(truths)} files"]
    found: dict[str, dict[int, str]] = {name: {} for name in truths}
    for r in _rows(out / "motifs.csv"):
        found[r["sample"]][int(r["h_index"])] = r["class"]
    for name, t in truths.items():
        r = stoich[name]
        counts = (int(r["n_al"]), int(r["n_o"]), int(r["n_h"]))
        if counts != (t.n_al, t.n_o, t.n_h):
            problems.append(f"{name}: (n_al, n_o, n_h) = {counts}, generated {(t.n_al, t.n_o, t.n_h)}")
        if not (_close(float(r["x"]), t.x) and _close(float(r["h_atpct"]), t.h_atpct)):
            problems.append(f"{name}: x, h_atpct = {r['x']}, {r['h_atpct']}; expected {t.x}, {t.h_atpct}")
        if found[name] != t.classes:
            wrong = sum(found[name].get(h) != c for h, c in t.classes.items())
            problems.append(f"{name}: {wrong} of {len(t.classes)} H misclassified")
    summary = json.loads((out / "ensemble_summary.json").read_text())
    if summary["samples"] != len(truths) or summary["failures"]:
        problems.append(f"ensemble_summary: samples {summary['samples']}, failures {summary['failures']}")
    problems += _check_motif_table(out, truths)
    return problems


def _check_motif_table(out: Path, truths: dict[str, gen.SlabTruth]) -> list[str]:
    table = json.loads((out / "motif_table.json").read_text())["classes"]
    pct = [
        [100.0 * list(t.classes.values()).count(label) / t.n_h for label in table]
        for t in truths.values()
        if t.n_h
    ]
    mean = np.mean(pct, axis=0)
    return [
        f"motif_table {label}: mean_pct {table[label]['mean_pct']}, expected {m}"
        for label, m in zip(table, mean)
        if not abs(table[label]["mean_pct"] - m) <= 1e-9 * max(1.0, m)
    ]


def _ll_rounding(counts: np.ndarray, m: int, alpha: float, beta: float) -> float:
    """Float64 rounding bound of a log-likelihood summed from ln B differences.

    Near the binomial limit (alpha, beta ~ 1e10 and more) each ln B term is
    huge and their differences cancel, so neither the program nor scipy can
    evaluate the likelihood to better than this.
    """
    terms = np.abs(betaln(counts + alpha, m - counts + beta)) + abs(betaln(alpha, beta))
    return 8 * np.finfo(float).eps * float(terms.sum())


def check_counts(out: Path, counts: np.ndarray) -> list[str]:
    report = json.loads((out / "fit_report.json").read_text())
    alpha, beta, m = report["alpha"], report["beta"], int(report["M"])
    problems = []
    if report["n_samples"] != counts.size or not report["converged"]:
        problems.append(f"fit_report: n_samples {report['n_samples']}, converged {report['converged']}")
    if m < counts.max():
        return problems + [f"fit_report: M = {m} below the largest count {counts.max()}"]
    ll = float(betabinom.logpmf(counts, m, alpha, beta).sum())
    rounding = _ll_rounding(counts, m, alpha, beta)
    if not abs(report["log_likelihood"] - ll) <= 1e-9 * abs(ll) + rounding:
        problems.append(f"log_likelihood {report['log_likelihood']} != scipy betabinom {ll}")
    ll_true = float(betabinom.logpmf(counts, gen.TRIALS, gen.ALPHA, gen.BETA).sum())
    if ll < ll_true - 1e-9 * abs(ll_true) - rounding:
        problems.append(f"log_likelihood {ll} below the generating parameters' {ll_true}")
    rows = _rows(out / "h_histogram.csv")
    observed = np.bincount(counts, minlength=m + 1)
    pmf = betabinom.pmf(np.arange(m + 1), m, alpha, beta)
    if [int(r["observed"]) for r in rows] != observed.tolist():
        problems.append("h_histogram.csv observed column differs from the generated counts")
    elif not all(_close(float(r["fitted_pmf"]), p, 1e-9) or p < 1e-300 for r, p in zip(rows, pmf)):
        problems.append("h_histogram.csv fitted_pmf differs from scipy betabinom")
    return problems


def check_transport(out: Path, grid_points: int) -> list[str]:
    cal = json.loads((out / "calibration.json").read_text())
    problems = [
        f"calibration {tag}: T = {cal[tag]['transmission']} misses target {target}"
        for tag, target in TARGETS.items()
        if not (cal[tag]["target"] == target and _close(cal[tag]["transmission"], target, CAL_RTOL))
    ]
    if not cal["curve_shift_ev"] > 0:
        problems.append(f"curve_shift_ev = {cal['curve_shift_ev']} is not positive")
    heights = {
        "jj": cal["jj"]["barrier_height_ev"],
        "jj_h": cal["jj"]["barrier_height_ev"] + cal["jj_h"]["delta_v_ev"],
    }
    grid = np.linspace(-GRID_HALFWIDTH, GRID_HALFWIDTH, grid_points)
    picks = np.unique(np.linspace(0, grid_points - 1, TM_SAMPLES).round().astype(int))
    for tag, height in heights.items():
        rows = _rows(out / f"transmission_{tag}.csv")
        if len(rows) != grid_points:
            problems.append(f"transmission_{tag}.csv has {len(rows)} rows, expected {grid_points}")
            continue
        model = transport.default_model(barrier_sites=cal["barrier_sites"], height=height)
        for i in picks:
            energy, value = float(rows[i]["energy_ev"]), float(rows[i]["transmission"])
            expected = transport.transfer_matrix_transmission(model, float(grid[i]))
            if not (_close(energy, grid[i]) and _close(value, expected, NEGF_RTOL + DIGITS_RTOL)):
                problems.append(f"transmission_{tag}.csv row {i}: T({energy}) = {value}, transfer matrix {expected}")
                break
    return problems


def check_ej(out: Path) -> list[str]:
    fit = json.loads((out / "fit_report.json").read_text())
    cal = json.loads((out / "calibration.json").read_text())
    report = json.loads((out / "ej_report.json").read_text())
    alpha, beta, m = fit["alpha"], fit["beta"], int(fit["M"])
    e_jj, e_jjh = (0.25 * GAP_MEV * cal[tag]["transmission"] * AREA / PATCH_AREA * GHZ_PER_MEV for tag in ("jj", "jj_h"))
    slope = PATCH_AREA / MD_AREA * (e_jjh - e_jj)
    mean, var = betabinom.stats(m, alpha, beta, moments="mv")
    expected = {
        "e_jj_ghz": e_jj,
        "e_jjh_ghz": e_jjh,
        "slope": slope,
        "offset": e_jj,
        "mean_ghz": e_jj + slope * float(mean),
        "std_ghz": abs(slope) * math.sqrt(float(var)),
    }
    problems = [
        f"ej_report {key}: {report[key]}, expected {value}"
        for key, value in expected.items()
        if not _close(report[key], value, 1e-9)
    ]
    if report["counts"] != {"alpha": alpha, "beta": beta, "M": m}:
        problems.append(f"ej_report counts {report['counts']} differ from fit_report")
    rows = _rows(out / "ej_pmf.csv")
    pmf = betabinom.pmf(np.arange(m + 1), m, alpha, beta)
    if len(rows) != m + 1 or not all(
        _close(float(r["ej_ghz"]), e_jj + slope * n) and (_close(float(r["probability"]), p, 1e-9) or p < 1e-300)
        for n, (r, p) in enumerate(zip(rows, pmf))
    ):
        problems.append("ej_pmf.csv differs from the closed-form E_J distribution")
    return problems


def check_pipeline(out: Path, truths: dict[str, gen.SlabTruth], seed: int, grid_points: int) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text())
    stages = [(s["name"], s["status"]) for s in manifest["stages"]]
    if manifest["seed"] != seed or any(status != "completed" for _, status in stages):
        return [f"manifest: seed {manifest['seed']}, stages {stages}"]
    census = np.array([t.n_h for t in truths.values()])
    return (
        check_counts(out, census)
        + check_ensemble(out, truths)
        + check_transport(out, grid_points)
        + check_ej(out)
    )


def check(inputs: Path, out: Path) -> list[str]:
    spec = json.loads((inputs / "workload.json").read_text())
    name, grid = spec["workload"], spec["inputs"].get("grid")
    if name == "ensemble":
        return check_ensemble(out, gen.load_truths(inputs))
    if name == "counts":
        return check_counts(out, np.loadtxt(inputs / "counts.txt", dtype=int))
    if name == "transport":
        return check_transport(out, grid)
    return check_pipeline(out, gen.load_truths(inputs), spec["seed"], grid)


if __name__ == "__main__":
    try:
        found = check(Path(sys.argv[1]), Path(sys.argv[2]))
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        found = [f"unreadable output: {exc!r}"]
    print(json.dumps(found))
