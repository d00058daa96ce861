"""Run one spintransfer CLI op in this fresh process and report on it.

Usage: python3 bench/op.py REPORT TRACE OP_ID CLI_ARG...

Imports the package (timed: that is the op's set-up), calls
``spintransfer.cli.main(CLI_ARG...)`` (timed: that is the op), and writes a
JSON report to REPORT: exit code, both times, peak resident memory, the
environment, the captured stdout/stderr and, with TRACE=1, the spans
recorded around calls into each module's public functions (see TRACED).

Tracing wraps the functions from outside the package: nothing under
``src/`` knows about it.  A function is replaced in every module that holds
a reference to it, because ``cli`` binds names at import and ``analytics``
calls its own functions as module globals; replacing only the defining
module would let those calls bypass the span.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import inspect
import io
import json
import os
import resource
import sys
import time

# (span name, module, attribute).  The span's layer is the part of its name
# before the dot.  Attributes missing at a later commit are skipped, so a
# layer that has been removed or renamed simply records nothing.
TRACED = (
    ("dynamics.build", "spintransfer.dynamics", "ChainDynamics.__init__"),
    ("dynamics.eigh", "spintransfer.dynamics", "diagonalize"),
    ("dynamics.one_exc", "spintransfer.dynamics", "ChainDynamics.end_to_end_amplitude"),
    ("dynamics.one_exc", "spintransfer.dynamics", "ChainDynamics.one_exc_rows"),
    ("dynamics.one_exc", "spintransfer.dynamics", "ChainDynamics.one_exc_summed_row"),
    ("dynamics.two_exc", "spintransfer.dynamics", "ChainDynamics.two_exc_summed_row_to"),
    ("dynamics.two_exc", "spintransfer.dynamics", "ChainDynamics.two_exc_row"),
    ("dynamics.amplitudes_at", "spintransfer.dynamics", "ChainDynamics.amplitudes_at"),
    ("analytics.curve", "spintransfer.analytics", "avg_fidelity_curve"),
    ("analytics.ladder", "spintransfer.analytics", "tune_with_ladder"),
    ("analytics.find_optimal", "spintransfer.analytics", "find_optimal_time"),
    ("analytics.golden", "spintransfer.analytics", "_golden_max"),
    ("analytics.target", "spintransfer.analytics", "time_for_target_avg"),
    ("analytics.reduce", "spintransfer.analytics", "quadratic_reduce_one_qubit"),
    ("analytics.reduce", "spintransfer.analytics", "affine_from_kraus"),
    ("analytics.pdf", "spintransfer.analytics", "pdf_from_quadratic"),
    ("analytics.pdf", "spintransfer.analytics", "pdf_two_qubit"),
    ("analytics.pdf", "spintransfer.analytics", "FidelityPdf.cdf"),
    ("analytics.pdf", "spintransfer.analytics", "FidelityPdf.density"),
    ("channel.kraus", "spintransfer.channel", "kraus_for_scenario"),
    ("sampling.mc", "spintransfer.sampling", "mc_fidelity_histogram"),
    ("sampling.ks", "spintransfer.sampling", "ks_distance"),
    ("oracle.evolve", "spintransfer.oracle", "evolve_full"),
    ("certify.run", "spintransfer.certify", "run_certification"),
    ("cli.write", "spintransfer.cli", "write_csv"),
    ("cli.write", "spintransfer.cli", "write_json"),
)

JITTER_MEAN_NODES = 40_001


class Tracer:
    """In-memory span recorder for one op.

    A span is ``[op_id, span_id, parent_id, name, start, end, attrs]``;
    ``attrs`` holds the counts a span name records (see ``_ATTRS``).
    """

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []
        self._built_specs: list = []
        self._scanned: set = set()

    def wrap(self, name: str, func):
        attrs = _ATTRS.get(name)
        sig = inspect.signature(func) if attrs else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            span = [self.op_id, len(self.spans), self._stack[-1] if self._stack else None,
                    name, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[1])
            span[4] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = attrs(self, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED attribute that exists."""
        for name, module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if owner is None or original is None:
                continue
            wrapped = self.wrap(name, original)
            if owner_name:
                setattr(owner, leaf, wrapped)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "spintransfer" and not mod_name.startswith("spintransfer."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def _build_attrs(tracer: Tracer, args, result) -> dict:
    import numpy as np

    spec = args["spec"]
    shift = any(
        prev.n_sites == spec.n_sites
        and np.array_equal(prev.couplings, spec.couplings)
        and np.array_equal(prev.anisotropies, spec.anisotropies)
        and np.ptp(spec.fields - prev.fields) == 0.0
        for prev in tracer._built_specs
    )
    tracer._built_specs.append(spec)
    return {"field_shift": shift}


def _curve_attrs(tracer: Tracer, args, result) -> dict:
    import numpy as np

    times = np.asarray(args["times"], dtype=float)
    points = int(times.size)
    repeat = False
    if points > 1:
        key = (args["spec"].cache_key(), str(args["scenario"]), bool(args["phase_corrected"]),
               float(times.flat[0]), float(times.flat[-1]), points)
        repeat = key in tracer._scanned
        tracer._scanned.add(key)
    return {"points": points, "repeat": repeat}


_ATTRS = {
    "dynamics.build": _build_attrs,
    "dynamics.eigh": lambda tr, args, result: {"dim": int(result.eigenvalues.shape[0])},
    "analytics.curve": _curve_attrs,
    "channel.kraus": lambda tr, args, result: {"ops": int(result.n_constructed)},
    "sampling.mc": lambda tr, args, result: {"samples": int(args["n"])},
    "oracle.evolve": lambda tr, args, result: {"dim": int(result.amplitudes.size)},
    "certify.run": lambda tr, args, result: {
        "checks": len(result["checks"]),
        "failed": sum(1 for c in result["checks"] if not c["passed"]),
    },
    "cli.write": lambda tr, args, result: {"bytes": os.path.getsize(args["path"])},
}


def jitter_mean_err(out_dir: str) -> float | None:
    """|jitter-mode <F> - mean of the <F>(t) curve over the jitter window|.

    The reference mean uses JITTER_MEAN_NODES equally spaced read-out times
    on (1 +- fraction) t_opt, enough for it to have converged; the CLI's
    mixture uses far fewer nodes.  None for ops that are not jitter runs.
    """
    path = os.path.join(out_dir, "result.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    config = record["config"]
    if not (config.get("jitter") and config["mode"]["type"] == "timing_error"):
        return None
    import numpy as np
    from spintransfer import cli
    from spintransfer.analytics import avg_fidelity_curve
    from spintransfer.channel import Scenario

    spec = cli._build_spec(cli.ExperimentConfig(**config))
    if record["b_aux"]:
        spec = spec.with_uniform_field(record["b_aux"])
    fraction = float(config["mode"]["fraction"])
    times = record["t_opt"] * np.linspace(1.0 - fraction, 1.0 + fraction, JITTER_MEAN_NODES)
    mean = float(avg_fidelity_curve(spec, Scenario(config["scenario"]), times).mean())
    return abs(record["avg_fidelity"] - mean)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                found[os.path.basename(path)] = int(func())
                break
    return found


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


def main() -> int:
    report_path, trace, op_id = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    cli_args = sys.argv[4:]
    started = time.perf_counter()
    from spintransfer import cli
    setup_s = time.perf_counter() - started

    entry = cli.main
    tracer = None
    if trace:
        tracer = Tracer(op_id)
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        code = entry(cli_args)
        op_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    report = {
        "op_id": op_id,
        "exit_code": code,
        "setup_s": setup_s,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "environment": environment(),
    }
    if tracer is not None:
        tracer.active = False
        report["spans"] = tracer.spans
        out_dir = cli_args[cli_args.index("--out") + 1]
        report["jitter_mean_err"] = jitter_mean_err(out_dir) if code == 0 else None
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
