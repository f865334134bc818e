"""Benchmark contract: every workload of bench/run.py still checks out correct.

Each case runs one short benchmark (`--seconds 0`: the warm-up invocation
and the setup samples only) from the repository root, so the outputs of the
committed sources go through the benchmark's own oracles.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ensemble", "counts", "transport", "pipeline"])
def test_workload_outputs_correct(workload):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, result.stdout
    assert summary["failed"] == 0, result.stdout
