"""Benchmark contract: every workload of bench/run.py still checks out correct.

Each case runs one short benchmark (`--seconds 0`) from the repository root,
so the outputs of the committed sources go through the benchmark's own
oracles.  Untraced, that is the warm-up invocation, the setup samples and one
run; with `--trace 1`, one untraced and one traced invocation, so a layer
module the tracer cannot find fails the run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_bench(workload: str, *flags: str) -> dict:
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0", *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, result.stdout
    assert summary["failed"] == 0, result.stdout
    return summary


@pytest.mark.parametrize("workload", ["ensemble", "counts", "transport", "pipeline"])
def test_workload_outputs_correct(workload):
    _run_bench(workload)


@pytest.mark.parametrize("workload", ["ensemble", "counts", "transport", "pipeline"])
def test_traced_workload_outputs_correct(workload):
    _run_bench(workload, "--trace", "1")
