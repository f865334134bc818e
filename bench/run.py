"""jjvar benchmark: cold CLI invocations on seeded synthetic workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  gen.py writes the workload's inputs under
.bench_work/; this process then runs `python -m jjvar.cli` from src/ as a
closed loop with one client (one child at a time, default --threads 1) for S
seconds, has oracles.py check the outputs, and prints a result object as the
last line of standard output.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced invocations
(trace_child.py) and reports the per-layer metrics.

This process imports nothing beyond the standard library: a child's peak RSS
as wait4 reports it includes the memory of the process that spawned it.
See bench/README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CLI = [sys.executable, "-m", "jjvar.cli"]
WORKLOADS = ("ensemble", "counts", "transport", "pipeline")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every child is killed before the run would pass this


# ---------------------------------------------------------------------------
# child processes


class Timing(NamedTuple):
    wall: float  # seconds, spawn to exit
    rss_mb: float  # peak resident set size
    code: int  # exit code


class Runner:
    """Spawns one child at a time, times it from spawn to exit, reads its rusage."""

    def __init__(self, deadline: float, work: Path):
        self.deadline = deadline
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "JJVAR_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, cmd: list[str], log: Path) -> Timing:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark time limit reached")
        with log.open("wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Timing(wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def helper(self, script: str, *args: str) -> str:
        """Standard output of `python bench/<script> ARGS`, which must succeed."""
        cmd = [sys.executable, str(BENCH / script), *args]
        done = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"{script} failed: {done.stderr[-2000:]}")
        return done.stdout


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Checker:
    """Oracle-checks the first good output; later outputs must be byte-identical to it."""

    def __init__(self, runner: Runner, inputs: Path):
        self.runner = runner
        self.inputs = inputs
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0

    def __call__(self, code: int, out: Path, log: Path) -> bool:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {log.read_text(errors='replace')[-400:].strip()}"]
            manifest = out / "manifest.json"
            if manifest.is_file():
                stages = json.loads(manifest.read_text())["stages"]
                problems += [f"stage {st['name']}: {st['error']}" for st in stages if "error" in st]
        elif self.reference is not None and _digest(out) == self.reference:
            problems = []
        else:
            problems = json.loads(self.runner.helper("oracles.py", str(self.inputs), str(out)))
            if not problems and self.reference is not None:
                problems = ["output is correct but differs from the first invocation's bytes"]
            elif not problems:
                self.reference = _digest(out)
        if problems:
            self.failed += 1
            print(f"check failed ({out.name}): " + "; ".join(problems[:5]), file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return not problems


def closed_loop(seconds: float, step: Callable[[], None]) -> None:
    """Call step until another call, at the median step duration, would overrun `seconds`."""
    start = time.perf_counter()
    durations: list[float] = []
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        begin = time.perf_counter()
        step()
        durations.append(time.perf_counter() - begin)


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(trace: dict, names: list[str]) -> dict[str, float]:
    """Per-layer busy time (.s), self time (.self_s), calls and counts from one trace."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
    counts = trace["counts"]
    values = {"cli.import_s": trace["import_s"]}
    points = counts.get("transport.transmission.points", 0)
    values["transport.transmission.us_per_point"] = 1e6 * busy["transport.transmission"] / points if points else 0.0
    for name in names:
        if name in values or name.startswith("trace."):
            continue
        prefix, _, kind = name.rpartition(".")
        if kind == "s":
            values[name] = busy[prefix]
        elif kind == "self_s":
            values[name] = own[prefix]
        elif kind == "calls":
            values[name] = calls[prefix]
        else:
            values[name] = counts.get(name, 0)
    return values


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def header(args, workload: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": workload["numpy"],
        "scipy": workload["scipy"],
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "inputs": workload["inputs"],
        "item": workload["item"],
        "items_per_invocation": workload["items"],
    }


# ---------------------------------------------------------------------------
# measurement


class Session:
    """The invocations of one run: untraced, traced and ready-to-dispatch."""

    def __init__(self, workload: dict, runner: Runner, checker: Checker):
        self.args = workload["args"]
        self.runner = runner
        self.checker = checker
        self.log = runner.work / "child.log"
        self.trace_file = runner.work / "trace.json"
        self.serial = 0

    def _out(self) -> Path:
        self.serial += 1
        return self.runner.work / f"out{self.serial}"

    def ready(self) -> Timing:
        """A cold start that stops once the CLI could dispatch."""
        return self.runner.run([*CLI, "--out", str(self.runner.work / "help"), *self.args, "--help"], self.log)

    def untraced(self) -> tuple[Timing, bool]:
        """One cold invocation and whether its output is correct."""
        out = self._out()
        timing = self.runner.run([*CLI, "--out", str(out), *self.args], self.log)
        return timing, self.checker(timing.code, out, self.log)

    def traced(self) -> tuple[Timing, dict | None]:
        """One traced invocation and its trace (None if the invocation failed)."""
        out = self._out()
        cmd = [sys.executable, str(BENCH / "trace_child.py"), str(self.trace_file), "--", "--out", str(out)]
        timing = self.runner.run([*cmd, *self.args], self.log)
        if not self.checker(timing.code, out, self.log):
            return timing, None
        return timing, json.loads(self.trace_file.read_text())


def end_to_end(session: Session, seconds: float, items: int, item: str) -> dict[str, float]:
    setup = [session.ready() for _ in range(SETUP_SAMPLES)]
    runs: list[tuple[Timing, bool]] = []
    closed_loop(seconds, lambda: runs.append(session.untraced()))
    ok_walls = [t.wall for t, ok in runs if ok]
    items_per_s = items * len(ok_walls) / sum(ok_walls) if ok_walls else 0.0
    # A failed invocation may end early; it counts in wall_s only if none succeeded.
    walls = ok_walls or [t.wall for t, _ in runs]
    print(f"# {len(runs)} invocations; wall_s min {min(walls):.4f}, max {max(walls):.4f}")
    print(f"# {item}_per_s = {items_per_s:.6g} 1/s")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(t.wall for t in setup),
        "peak_rss_mb": statistics.median(t.rss_mb for t, _ in runs),
        "items_per_s": items_per_s,
    }


def per_layer(session: Session, seconds: float, names: list[str], keep: Path) -> dict[str, float]:
    walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []

    def pair() -> None:
        walls.append(session.untraced()[0].wall)
        timing, trace = session.traced()
        traced_walls.append(timing.wall)
        if trace is not None:
            if trace["missing"]:
                print(f"# not traced (not found): {', '.join(trace['missing'])}", file=sys.stderr)
            layers.append(layer_metrics(trace, names))
            keep.parent.mkdir(parents=True, exist_ok=True)
            session.trace_file.replace(keep)

    closed_loop(seconds, pair)
    print(f"# {len(traced_walls)} traced and {len(walls)} untraced invocations")
    values = {n: statistics.median(layer[n] for layer in layers) for n in layers[0]} if layers else {}
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
    return {name: values.get(name, 0.0) for name in names}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Runner.run, which kills the child


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "jjvar" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no jjvar sources under {SRC} (run from a repository checkout)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    scratch = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    runner = Runner(time.monotonic() + RUN_LIMIT_S, scratch)
    inputs = scratch / "inputs"
    try:
        workload = json.loads(runner.helper("gen.py", args.workload, str(args.seed), str(inputs)))
        print("# header " + json.dumps(header(args, workload)), flush=True)
        checker = Checker(runner, inputs)
        session = Session(workload, runner, checker)
        session.ready()  # warm-up: writes the bytecode caches, which users pay once
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            keep = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            metrics = per_layer(session, args.seconds, names, keep)
        else:
            metrics = end_to_end(session, args.seconds, workload["items"], workload["item"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# fail_ratio = {checker.failed}/{checker.attempted}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
