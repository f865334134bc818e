"""One traced, in-process jjvar CLI invocation.

    python bench/trace_child.py TRACE.json -- CLI_ARGS...

Imports `jjvar.cli` (timed as the import), wraps the layer functions named in
LAYER_FUNCTIONS, runs `jjvar.cli.main(CLI_ARGS)` and writes the spans and
counts it recorded to TRACE.json.  The process exits with main's exit code.

A wrapper replaces the function under every name that binds it in any jjvar
module, so calls through `from .structure import neighbor_graph` in `motifs`
are traced as well as calls through `structure.neighbor_graph`.  Functions
called once per energy point (lead_surface_gf) are left unwrapped: a span per
point would cost more than the work it times.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYER_FUNCTIONS = {
    "cli": ("cmd_fit_stats", "cmd_analyze", "cmd_transmission", "cmd_ej", "cmd_pipeline"),
    "stats": ("read_counts", "fit"),
    "structure": (
        "read_structure",
        "parse_xyz",
        "neighbor_graph",
        "oxide_region",
        "surface_sites",
        "stoichiometry",
        "mic_distances",
    ),
    "motifs": ("classify_structure", "classify_h", "motif_statistics"),
    "transport": ("calibrate_barrier", "transmission", "fit_transmission_shift", "apply_defect"),
    "josephson": ("ej_single", "ej_distribution"),
}


class Tracer:
    """Spans [name, start, end, parent index] and named counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.per_m_fits = False
        self._stack: list[int] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, package: str = "jjvar") -> None:
        """Wrap every LAYER_FUNCTIONS entry wherever a jjvar module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        hooks = self._count_hooks()
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"{package}.{layer}"]
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                span = f"{layer}.{name.removeprefix('cmd_')}"
                self._rebind(modules, fn, self.wrap(span, fn, hooks.get(span)))
        self.per_m_fits = self._probe_scan_fits(sys.modules[f"{package}.stats"], modules)

    @staticmethod
    def _rebind(modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    def _count_hooks(self) -> dict:
        return {
            "structure.parse_xyz": lambda s: self.count("structure.parse_xyz.atoms", len(s)),
            "structure.neighbor_graph": lambda g: self.count("structure.neighbor_graph.edges", len(g.edge_set())),
            "transport.transmission": lambda c: self.count("transport.transmission.points", len(c.values)),
            "transport.calibrate_barrier": lambda r: self.count("transport.calibrate_barrier.bisections", r.iterations),
            "stats.fit": self._count_fit,
        }

    def _count_fit(self, result) -> None:
        self.count("stats.fit.m_scanned", len(result.scan) or 1)
        if not self.per_m_fits:
            self.count("stats.fit.iterations", result.iterations)
            self.count("stats.fit.converged", int(result.converged))

    def _probe_scan_fits(self, stats, modules) -> bool:
        """Count iterations and convergence of every per-M fit in a scan.

        `fit` reports only the winning M, so the per-M solver is wrapped as a
        counter (no span).  Returns False if a refactor removed it; `_count_fit`
        then counts the winning fit's public fields instead.
        """
        inner = getattr(stats, "_mle_fixed_m", None)
        if inner is None:
            return False

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            _, _, converged, iterations, *_ = result
            self.count("stats.fit.iterations", iterations)
            self.count("stats.fit.converged", int(converged))
            return result

        self._rebind(modules, inner, counted)
        return True


def main(argv: list[str]) -> int:
    trace_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py TRACE.json -- CLI_ARGS...")
    start = time.perf_counter()
    import jjvar.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    run = tracer.wrap("cli.main", jjvar.cli.main)
    code = run(cli_args)
    with open(trace_path, "w") as fh:
        json.dump(
            {
                "import_s": import_s,
                "exit_code": code,
                "spans": tracer.spans,
                "counts": tracer.counts,
                "missing": tracer.missing,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
