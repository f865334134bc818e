"""Seeded synthetic inputs for the benchmark, each with its ground truth.

Structures follow the test fixture `make_oxide_slab`: a periodic Al base and
an Al/O oxide bilayer on a square 2.8 A lattice, with every atom jittered.
Each unit cell (origin x, y) holds

    Al (x,       y, 0.0)   metal base, below the oxide region
    Al (x + 1.4, y, 2.2)   oxide Al
    O  (x,       y, 1.6)   lower O (may be a vacancy)
    O  (x + 1.4, y, 3.0)   upper O, bonded to exactly one Al

and hydrogen sits on one of three sites per cell, chosen so that the bond
cutoffs classify it with a margin larger than the jitter can erase:

    Al-OH         0.95 A from the upper O: the O-bonded branch of classify_h
    Al-H-O        1.40 A from two oxide Al, 1.61 A from the upper O
    interstitial  >= 2.26 A from every Al, >= 1.99 A from every O

The last two have no O within the 1.2 A O-H cutoff, so they take the hydride
branch, which scans the distance to every O atom.  All H lie inside the oxide
z-interval, so the oxide census of a structure equals its H count.  H counts
and count files are drawn from BetaBinomial(17.69, 15.36, 40).

    python bench/gen.py WORKLOAD SEED INPUTS_DIR

writes the inputs of one workload, its ground truth (truth.json) and its
description (workload.json), and prints the description with the numpy and
scipy versions as JSON.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ALPHA, BETA, TRIALS = 17.69, 15.36, 40
SPACING = 2.8
CELL_Z = 20.0
JITTER = 0.04  # A per coordinate; the tightest classification margin is 0.18 A
H_SITES = {
    "Al-OH": (2.35, 0.0, 2.9),
    "Al-H-O": (1.4, 1.4, 2.2),
    "interstitial": (0.0, 1.4, 3.3),
}
H_MIX = {"Al-OH": 0.6, "Al-H-O": 0.25, "interstitial": 0.15}
MAX_VACANCY_SHARE = 0.1  # of the lower O plane

# Workload sizes (README: Workloads).
ENSEMBLE_CELLS, ENSEMBLE_LATERAL = 8, 22  # 1936 host atoms per cell
COUNTS = 1000
TRANSPORT_GRID = 20001
PIPELINE_CELLS, PIPELINE_LATERAL = 64, 12  # 576 host atoms, 33.6 A lateral
PIPELINE_GRID = 2001  # CLI default


@dataclass(frozen=True)
class SlabTruth:
    """What the analysis must report for one generated structure."""

    n_al: int
    n_o: int
    n_h: int
    classes: dict[int, str]  # H atom index -> motif class

    @property
    def x(self) -> float:
        return self.n_o / self.n_al

    @property
    def h_atpct(self) -> float:
        return 100.0 * self.n_h / (self.n_al + self.n_o + self.n_h)


def draw_counts(rng: np.random.Generator, k: int) -> np.ndarray:
    """k beta-binomial counts: a beta draw per sample, then a binomial draw."""
    return rng.binomial(TRIALS, rng.beta(ALPHA, BETA, size=k))


def slab(rng: np.random.Generator, lateral: int, n_h: int) -> tuple[str, SlabTruth]:
    """Extended-XYZ text of a lateral x lateral slab holding n_h hydrogens."""
    cells = lateral * lateral
    n_vacant = int(rng.integers(0, int(MAX_VACANCY_SHARE * cells) + 1))
    vacancies = set(rng.choice(cells, size=n_vacant, replace=False).tolist())
    species: list[str] = []
    positions: list[tuple[float, float, float]] = []
    for c in range(cells):
        x, y = (c // lateral) * SPACING, (c % lateral) * SPACING
        species += ["Al", "Al"]
        positions += [(x, y, 0.0), (x + 1.4, y, 2.2)]
        if c not in vacancies:
            species.append("O")
            positions.append((x, y, 1.6))
        species.append("O")
        positions.append((x + 1.4, y, 3.0))

    labels = list(H_SITES)
    kinds = rng.choice(len(labels), size=n_h, p=[H_MIX[k] for k in labels])
    classes = {}
    for k, label in enumerate(labels):
        count = int(np.sum(kinds == k))
        dx, dy, z = H_SITES[label]
        for c in rng.choice(cells, size=count, replace=False):
            classes[len(species)] = label
            species.append("H")
            positions.append(((c // lateral) * SPACING + dx, (c % lateral) * SPACING + dy, z))

    pos = np.asarray(positions) + rng.uniform(-JITTER, JITTER, size=(len(positions), 3))
    a = lateral * SPACING
    lines = [str(len(species)), f'Lattice="{a} 0 0 0 {a} 0 0 0 {CELL_Z}"']
    lines += [f"{s} {p[0]:.6f} {p[1]:.6f} {p[2]:.6f}" for s, p in zip(species, pos)]
    truth = SlabTruth(n_al=cells, n_o=2 * cells - len(vacancies), n_h=n_h, classes=classes)
    return "\n".join(lines) + "\n", truth


def structure_dir(rng: np.random.Generator, directory: Path, count: int, lateral: int) -> dict[str, SlabTruth]:
    """Write `count` slabs as <directory>/sNNNN.xyz; returns truth keyed by file stem."""
    directory.mkdir(parents=True)
    truths = {}
    for n_h in draw_counts(rng, count):
        stem = f"s{len(truths):04d}"
        text, truths[stem] = slab(rng, lateral, int(n_h))
        (directory / f"{stem}.xyz").write_text(text)
    return truths


def load_truths(inputs: Path) -> dict[str, SlabTruth]:
    raw = json.loads((inputs / "truth.json").read_text())
    return {
        stem: SlabTruth(t["n_al"], t["n_o"], t["n_h"], {int(h): c for h, c in t["classes"].items()})
        for stem, t in raw.items()
    }


def _structure_workload(rng, inputs: Path, cells: int, lateral: int) -> dict:
    truths = structure_dir(rng, inputs / "structures", cells, lateral)
    (inputs / "truth.json").write_text(json.dumps({stem: asdict(t) for stem, t in truths.items()}))
    return {
        "structures": len(truths),
        "atoms": sum(2 * t.n_al + t.n_o + t.n_h for t in truths.values()),
        "h_atoms": sum(t.n_h for t in truths.values()),
        "h_classes": dict(Counter(c for t in truths.values() for c in t.classes.values())),
    }


def prepare(workload: str, seed: int, inputs: Path) -> dict:
    """Write the inputs of `workload` for `seed` under `inputs`; return its description.

    The description (also written to inputs/workload.json) holds the CLI
    arguments after --out, the work items per invocation and the input sizes.
    """
    rng = np.random.default_rng(seed)
    inputs.mkdir(parents=True)
    if workload == "ensemble":
        sizes = _structure_workload(rng, inputs, ENSEMBLE_CELLS, ENSEMBLE_LATERAL)
        args = ["analyze", "--structures", str(inputs / "structures")]
        items, item = sizes["structures"], "structures"
    elif workload == "counts":
        counts = draw_counts(rng, COUNTS)
        (inputs / "counts.txt").write_text("".join(f"{c}\n" for c in counts))
        args = ["fit-stats", "--counts", str(inputs / "counts.txt")]
        sizes = {"counts": COUNTS, "max_count": int(counts.max())}
        items, item = COUNTS, "counts"
    elif workload == "transport":
        args = ["transmission", "--grid", str(TRANSPORT_GRID)]
        sizes = {"grid": TRANSPORT_GRID, "curves": 2}
        items, item = 2 * TRANSPORT_GRID, "energies"
    elif workload == "pipeline":
        sizes = _structure_workload(rng, inputs, PIPELINE_CELLS, PIPELINE_LATERAL)
        sizes.update(counts=sizes["structures"], grid=PIPELINE_GRID)
        (inputs / "pipeline.cfg").write_text(f"paths.structures = {inputs / 'structures'}\n")
        args = ["--config", str(inputs / "pipeline.cfg"), "--seed", str(seed), "pipeline"]
        items, item = sizes["structures"], "structures"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    description = {"workload": workload, "seed": seed, "args": args, "items": items, "item": item, "inputs": sizes}
    (inputs / "workload.json").write_text(json.dumps(description))
    return description


if __name__ == "__main__":
    import scipy

    description = prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(json.dumps({**description, "numpy": np.__version__, "scipy": scipy.__version__}))
