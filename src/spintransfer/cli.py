"""Reproducible experiment runner.

Three subcommands: ``tune`` locates optimal read-out times (optionally with
the phase-nulling auxiliary field), ``pdf`` produces analytic fidelity
distributions plus optional Monte Carlo histograms as figure-ready CSV
files, and ``certify`` runs the brute-force cross-check suite.  ``tune``
and ``pdf`` get their read-out from
:func:`~spintransfer.analytics.tune_with_ladder` and then
:func:`~spintransfer.analytics.plan_readout`.  Identical configuration and
seed give byte-identical output files; wall-clock timing is printed to
stdout only, never written into them.

A run's configuration is one merge (:func:`load_config`: the
``SPINTRANSFER_OUT`` environment variable, then the JSON config file, then
the flags given; null counts as absent) and one check:
constructing :class:`ExperimentConfig` checks every field and stores it in
the form that runs, so ``result.json`` echoes ``asdict(config)`` and
``ExperimentConfig(**echo)`` rebuilds the run.  A flag is its field's
text, which argparse does not check: ``--n-sites 8.0`` and ``--mc-samples
1e6`` pass, and ``--n-sites 8.5`` fails, exactly as in the config file.

Exit codes: 0 success, 2 parameter error, 3 unreachable target average,
4 certification failure (a failed ``certify`` check, or a ``pdf`` whose
Monte Carlo KS distance exceeds its DKW bound), 5 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analytics import (
    ReadoutPlan,
    check_grid,
    fidelity_law,
    find_optimal_time,
    parse_number,
    plan_readout,
    resolve_mode,
    tune_with_ladder,
)
from .chain import Barrier, ChainSpec, Perfect, ProtocolKind, Weak, protocol_preset
from .channel import Scenario, kraus_at_times
from .certify import run_certification
from .errors import (
    CapacityError,
    CertificationError,
    ParameterError,
    RangeError,
    SpinTransferError,
)
from .sampling import (
    MAX_MC_SAMPLES,
    Histogram,
    RandomStream,
    default_bin_edges,
    ks_distance,
    mc_fidelity_histogram,
)

RESULT_SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "SPINTRANSFER_OUT"
DEFAULT_MC_SAMPLES = 100_000
DEFAULT_BINS = 200
# A written histogram takes about 350 B per bin at its peak: the edge, count
# and density arrays, and the Python row and CSV line of each bin.  At
# 512 B per bin, 1 GiB holds MAX_BINS bins.
MAX_BINS = 2**30 // 512
# A preset holds dense N x N coupling matrices: a law-only run peaks at
# 56-67 B per N^2 (perfect, N = 256 to 2048), and the barrier and weak
# presets read 63-65 B per N^2 at N = 1024.  At 64 B per N^2, 1 GiB holds
# MAX_N_SITES = isqrt(2^30 / 64) sites.
MAX_N_SITES = 4096
DEFAULT_SEED = 0
PDF_CURVE_CELLS = 2001
PDF_CURVE_PAD_CELLS = 4
# false-alarm probability of the pdf's KS gate (Dvoretzky-Kiefer-Wolfowitz)
KS_GATE_ALPHA = 1e-9

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_TARGET = 3
EXIT_CERTIFY = 4
EXIT_NUMERIC = 5
# the exit code of an error is that of the nearest class in its MRO; any
# other error of the package (NumericError, ModelError) is numeric
EXIT_CODES = {
    RangeError: EXIT_TARGET,
    ParameterError: EXIT_PARAMETER,
    CapacityError: EXIT_PARAMETER,
    CertificationError: EXIT_CERTIFY,
    SpinTransferError: EXIT_NUMERIC,
}

# glibc's mallopt parameters (malloc.h) and the values a CLI run sets
# (keep_heap_mapped): the mmap threshold at the ceiling of glibc's own
# dynamic threshold, and a trim threshold above it
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 2**20
TRIM_THRESHOLD_BYTES = 64 * 2**20


KINDS = {kind.label: kind for kind in (Weak, Barrier, Perfect)}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked once and stored in the form that runs.

    Construction checks every field and resolves it, so ``asdict(config)``
    is the ``result.json`` echo and ``ExperimentConfig(**echo)`` rebuilds
    the same run.  ``protocol`` keeps ``kind`` plus that kind's parameters
    (the fields of its :class:`~spintransfer.chain.Weak`, ``Barrier`` or
    ``Perfect`` class) as floats; ``mode`` is the timing mode that runs, as
    :func:`~spintransfer.analytics.resolve_mode` returns it; ``aux_field``
    None resolves to the protocol's default (off for barrier, on
    otherwise).  A missing, malformed or out-of-range field, or a protocol
    key the kind does not take, is a ParameterError naming it.
    """

    protocol: dict | None = None
    n_sites: int | None = None
    scenario: str | None = None
    mode: dict | None = None
    mc_samples: int = DEFAULT_MC_SAMPLES
    seed: int = DEFAULT_SEED
    bins: int = DEFAULT_BINS
    output_dir: str = ""
    aux_field: bool | None = None
    window: tuple[float, float] | None = None
    grid: int | None = None
    jitter: bool = False

    def __post_init__(self):
        protocol = _protocol(self.protocol)
        jitter = _boolean("jitter", self.jitter)
        mode = resolve_mode(self.mode, jitter)
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ParameterError(
                "output_dir must be a non-empty string (flag --out, config field, or "
                f"{OUTPUT_DIR_ENV} environment variable), got {self.output_dir!r}"
            )
        aux = _boolean("aux_field", self.aux_field, nullable=True)
        grid = None if self.grid is None else parse_number("grid", self.grid, int)
        if grid is not None:
            check_grid(grid)
        resolved = {
            "protocol": protocol,
            "n_sites": _count(
                "n_sites", _given("n_sites", "--n-sites", self.n_sites), 4, MAX_N_SITES
            ),
            "scenario": _given("scenario", "--scenario", self.scenario, [s.value for s in Scenario]),
            "mode": mode,
            "mc_samples": _count("mc_samples", self.mc_samples, 0, MAX_MC_SAMPLES),
            "seed": _count("seed", self.seed, 0),
            "bins": _count("bins", self.bins, 2, MAX_BINS),
            "aux_field": protocol["kind"] != Barrier.label if aux is None else aux,
            "window": None if self.window is None else _window(self.window),
            "grid": grid,
        }
        for name, value in resolved.items():
            object.__setattr__(self, name, value)
        self.kind()  # the kind's own checks: a positive j0 or h0

    def kind(self) -> ProtocolKind:
        """The protocol that runs."""
        params = dict(self.protocol)
        return KINDS[params.pop("kind")](**params)


def _protocol(value) -> dict:
    """``{"kind": ...}`` plus the parameters that kind takes, as floats.

    The fields of the kind's class are the parameters it takes; any other
    key is a ParameterError naming it.
    """
    params = {} if value is None else value
    if not isinstance(params, dict):
        raise ParameterError(f"protocol must be a JSON object, got {params!r}")
    params = dict(params)
    label = _given("protocol kind", "--protocol", params.pop("kind", None), list(KINDS))
    takes = [param.name for param in fields(KINDS[label])]
    stray = sorted(str(key) for key in params if key not in takes)
    if stray:
        raise ParameterError(f"protocol {label} does not take {', '.join(stray)}")
    return {"kind": label, **{
        key: parse_number(f"protocol {key}", _given(f"protocol {key}", f"--{key}", params.get(key)))
        for key in takes
    }}


def _given(field: str, flag: str, value, choices: list | None = None):
    """``value``, or a ParameterError naming ``field`` if it is missing or
    not one of ``choices``."""
    names = "" if choices is None else f" to one of {', '.join(choices)}"
    if value is None:
        raise ParameterError(f"{field} is missing: pass {flag} or set it in the config file{names}")
    if choices is not None and value not in choices:
        raise ParameterError(f"unknown {field} {value!r}; choose one of {', '.join(choices)}")
    return value


def _count(field: str, value, least: int, most: int | None = None) -> int:
    """``value`` as an integer of at least ``least`` (and at most ``most``),
    else a ParameterError."""
    number = parse_number(field, value, int)
    if number < least:
        raise ParameterError(f"{field} must be >= {least}, got {number}")
    if most is not None and number > most:
        raise ParameterError(f"{field} must be <= {most}, got {number}")
    return number


def _boolean(field: str, value, nullable: bool = False):
    """``value`` if it is a JSON boolean (or null where ``nullable``), else
    a ParameterError naming ``field``: ``"false"`` or 0 is no boolean."""
    if isinstance(value, bool) or (nullable and value is None):
        return value
    choices = "true, false or null" if nullable else "true or false"
    raise ParameterError(f"{field} must be {choices}, got {value!r}")


def _window(value) -> tuple[float, float]:
    """A (lo, hi) scan window from ``lo:hi`` text or a two-entry list."""
    if isinstance(value, str):
        lo, sep, hi = value.partition(":")
        value = [lo, hi] if sep else [value]
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParameterError(f"window must be lo:hi (two numbers), got {value!r}")
    return parse_number("window lo", value[0]), parse_number("window hi", value[1])


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The configuration of a ``tune`` or ``pdf`` run: one merge of its sources.

    Each source overrides the one before: the SPINTRANSFER_OUT environment
    variable (``output_dir``), the JSON config file's fields, then every
    flag given.  A flag is the text of the field its ``dest`` names
    (``protocol.kind`` and ``protocol.j0`` are keys of ``protocol``), so it
    follows the file's rules: ``--mc-samples 1e6`` is ``"mc_samples":
    1e6``.  Two flags have a syntax of their own: ``--mode type[:x]`` and
    ``--aux-field on|off``.  A null field counts as absent.  Every field is
    checked by :class:`ExperimentConfig`.

    Raises
    ------
    ParameterError
        If the config file cannot be read, holds no JSON object or has a
        key that is no field of :class:`ExperimentConfig`, or a field fails
        its check; the message names the file, the key or the field.
    """
    flags = dict(vars(args))
    flags.pop("command")
    path = flags.pop("config", None)
    data: dict = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParameterError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError(f"config {path!r} must hold a JSON object")
        unknown = sorted(set(data) - {name.name for name in fields(ExperimentConfig)})
        if unknown:
            raise ParameterError(f"config {path!r} has unknown field(s) {', '.join(unknown)}")
    if "mode" in flags:
        # type[:x]; the number is target_avg's value or any other type's fraction
        mode_type, sep, number = flags["mode"].partition(":")
        flags["mode"] = {"type": mode_type}
        if sep:
            flags["mode"]["value" if mode_type == "target_avg" else "fraction"] = number
    if "aux_field" in flags:
        flags["aux_field"] = flags["aux_field"] == "on"
    merged: dict = {"protocol": {}}
    for source in ({"output_dir": os.environ.get(OUTPUT_DIR_ENV)}, data, flags):
        for name, value in source.items():
            if value is None:
                continue
            field, _, key = name.partition(".")
            if not key:
                merged[field] = value
            elif isinstance(merged[field], dict):
                # a protocol that is no object fails its check unmerged
                merged[field] = {**merged[field], key: value}
    return ExperimentConfig(**merged)


# ---------------------------------------------------------------------------
# deterministic file output
# ---------------------------------------------------------------------------

def write_csv(path: str, header: list[str], row_format: str, columns) -> None:
    """Write ``header`` and one line per row of ``columns``, equal-length
    1-D arrays, each line ``row_format % row``.  A ``%.17g`` field is
    ``format(value, ".17g")``, nan, inf and -0 included, and ``%d`` an
    integer count."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([row_format % row for row in rows]))


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def pdf_curve_rows(law):
    """Cell-averaged density curve rows (f, density, cdf) of a fidelity law.

    PDF_CURVE_CELLS edges span the law's support [f_min, f_max] over all
    its rows (f_min + 1e-6 in place of f_max for a point mass), so both
    ends are cell edges exactly, and PDF_CURVE_PAD_CELLS cells of the same
    width extend past each end.  Each row's cdf is 0 up to its f_min and 1
    from its f_max, so a law of continuous rows leaves the padding cells
    exactly empty and even the integrable edge singularities keep their
    mass under trapezoidal integration of the emitted samples.  The density
    column is the exact per-cell probability mass divided by the cell
    width; the cdf column is the analytic CDF at the cell midpoint.  Returns
    the three columns as arrays.
    """
    lo, hi = law.support
    hi = max(hi, lo + 1e-6)  # point masses get a narrow but resolvable window
    pad = (hi - lo) / (PDF_CURVE_CELLS - 1) * np.arange(1, PDF_CURVE_PAD_CELLS + 1)
    edges = np.concatenate([lo - pad[::-1], np.linspace(lo, hi, PDF_CURVE_CELLS), hi + pad])
    cdf_edges = law.cdf(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    density = np.diff(cdf_edges) / np.diff(edges)
    return mids, density, law.cdf(mids)


def histogram_rows(hist: Histogram):
    """The columns (bin_lo, bin_hi, count, normalized_density) of ``hist``."""
    edges = hist.bin_edges
    return edges[:-1], edges[1:], hist.counts, hist.normalized_density()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _build_spec(config: ExperimentConfig) -> ChainSpec:
    n_senders = len(Scenario(config.scenario).senders)
    return protocol_preset(config.kind(), config.n_sites, n_senders)


def _resolve_plan(config: ExperimentConfig, spec: ChainSpec) -> ReadoutPlan:
    """The tuned read-out of ``spec`` that ``config`` asks for."""
    scenario = Scenario(config.scenario)
    tuning = tune_with_ladder(spec, scenario, config.kind(), config.aux_field,
                              config.window, config.grid)
    return plan_readout(spec, scenario, tuning, config.mode, jitter=config.jitter)


def _result_record(echo, plan, law, avg, ks, files) -> dict:
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "config": echo,
        "t_opt": plan.t_opt,
        "t_readout": plan.t_read,
        "b_aux": plan.b_aux,
        "avg_fidelity": avg,
        "f_min": law.support[0],
        "f_max": law.support[1],
        "pdf_curve": files.get("pdf_curve"),
        "histogram": files.get("histogram"),
        "ks_distance": ks,
    }


def cmd_tune(config: ExperimentConfig) -> dict:
    """Tune the read-out time, with and without the auxiliary field.

    The reported optimum and field are those of the tuning (the field is
    folded into the chain); ``avg_fidelity_no_aux`` comes from a separate
    scan of the uncorrected average over the same window.  ``tune`` reads
    out at the optimum, so any other configured mode is a ParameterError.
    """
    mode_type = config.mode["type"]
    if mode_type != "at_optimal":
        raise ParameterError(f"tune takes mode at_optimal only, got mode {mode_type}")
    started = time.perf_counter()
    spec = _build_spec(config)
    plan = _resolve_plan(config, spec)
    raw = plan.tuning
    if raw.phase_corrected:
        # the uncorrected average, scanned over the window the tuning kept
        lo, hi, grid = raw.window
        raw = find_optimal_time(spec, plan.scenario, (lo, hi), grid, phase_corrected=False)
    law = fidelity_law(plan.spec, plan.scenario, plan.times)
    os.makedirs(config.output_dir, exist_ok=True)
    # tune never samples, so it echoes no sampling settings
    echo = {k: v for k, v in asdict(config).items() if k not in ("mc_samples", "seed", "bins")}
    record = _result_record(echo, plan, law, float(law.mean[0]), None, {})
    record["avg_fidelity_no_aux"] = raw.achieved_avg_fidelity
    write_json(os.path.join(config.output_dir, "result.json"), record)
    elapsed = time.perf_counter() - started
    print(
        f"tuned {config.protocol['kind']} N={config.n_sites} {config.scenario}: "
        f"t_opt={record['t_opt']:.9g} b_aux={record['b_aux']:.9g} "
        f"<F>={record['avg_fidelity']:.9f} (no aux: {record['avg_fidelity_no_aux']:.9f}) "
        f"[{elapsed:.2f}s]"
    )
    return record


def cmd_pdf(config: ExperimentConfig) -> dict:
    """Analytic pdf + optional MC histogram at the resolved read-out times.

    The law and the Monte Carlo run read the plan's times: the planned
    read-out, or the jitter nodes around the optimum.  With every file
    written, a KS distance above the DKW bound of the samples fails the run.
    """
    started = time.perf_counter()
    plan = _resolve_plan(config, _build_spec(config))
    law = fidelity_law(plan.spec, plan.scenario, plan.times)
    # the rows' mean, which tuning and the target bisection evaluate
    avg = float(law.mean.mean())

    # the first read of the rows as a distribution: a row outside [0, 1]
    # fails here, before any file is written
    curve = pdf_curve_rows(law)
    # the Monte Carlo channel comes from the oracle: a chain past its block
    # cap raises CapacityError here, before any file is written
    kraus = None
    if config.mc_samples > 0:
        try:
            kraus = kraus_at_times(plan.spec, plan.scenario, plan.times)
        except CapacityError as exc:
            raise CapacityError(
                f"Monte Carlo samples the brute-force reference's channel, which this "
                f"chain exceeds ({exc}); run with --mc-samples 0 for the law alone"
            ) from exc
    os.makedirs(config.output_dir, exist_ok=True)
    files = {"pdf_curve": "pdf_curve.csv"}
    write_csv(os.path.join(config.output_dir, "pdf_curve.csv"), ["f", "density", "cdf"],
              "%.17g,%.17g,%.17g\n", curve)
    ks = None
    if kraus is not None:
        edges = default_bin_edges(law, config.bins)
        hist = mc_fidelity_histogram(kraus, config.mc_samples, edges, RandomStream(config.seed))
        ks = ks_distance(hist, law)
        files["histogram"] = "histogram.csv"
        write_csv(
            os.path.join(config.output_dir, "histogram.csv"),
            ["bin_lo", "bin_hi", "count", "normalized_density"],
            "%.17g,%.17g,%d,%.17g\n",
            histogram_rows(hist),
        )
    record = _result_record(asdict(config), plan, law, avg, ks, files)
    write_json(os.path.join(config.output_dir, "result.json"), record)
    elapsed = time.perf_counter() - started
    ks_text = "n/a" if ks is None else f"{ks:.5f}"
    print(
        f"pdf {config.protocol['kind']} N={config.n_sites} {config.scenario}: "
        f"t_read={plan.t_read:.9g} <F>={avg:.9f} support=[{law.support[0]:.9f}, "
        f"{law.support[1]:.9f}] ks={ks_text} [{elapsed:.2f}s]"
    )
    if ks is not None:
        bound = float(np.sqrt(np.log(2.0 / KS_GATE_ALPHA) / (2.0 * config.mc_samples)))
        if ks > bound:
            raise CertificationError(
                f"Monte Carlo KS distance {ks:.3e} exceeds the DKW bound {bound:.3e} "
                f"of {config.mc_samples} samples"
            )
    return record


def cmd_certify(n_max: int, output_dir: str | None) -> dict:
    started = time.perf_counter()
    report = run_certification(n_max=n_max)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        write_json(os.path.join(output_dir, "certification.json"), report)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']:40s} max_error={check['max_error']:.3e}")
    print(
        f"certification {'passed' if report['all_passed'] else 'FAILED'} "
        f"(N up to {n_max}) [{time.perf_counter() - started:.2f}s]"
    )
    if not report["all_passed"]:
        raise CertificationError("one or more certification checks failed")
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintransfer",
        description="Spin-chain state-transfer fidelity distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("tune", "locate the optimal read-out time (optionally with aux field)"),
        ("pdf", "emit analytic pdf and Monte Carlo histogram data files"),
    ):
        # each flag is its field's text, checked by ExperimentConfig; a flag
        # not given is absent from the namespace
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--protocol", dest="protocol.kind", metavar="{" + ",".join(KINDS) + "}")
        p.add_argument("--n-sites", dest="n_sites")
        p.add_argument("--scenario", metavar="{" + ",".join(s.value for s in Scenario) + "}")
        p.add_argument(
            "--mode",
            help="at_optimal | timing_error[:fraction] | target_avg:<value>",
        )
        p.add_argument("--j0", dest="protocol.j0", help="weak-protocol end coupling")
        p.add_argument("--h0", dest="protocol.h0", help="barrier-protocol field strength")
        if name == "pdf":
            # tune never samples; a shared config file may still set these
            p.add_argument("--seed")
            p.add_argument("--mc-samples", dest="mc_samples")
            p.add_argument("--bins")
        p.add_argument("--out", dest="output_dir", help="output directory")
        p.add_argument("--aux-field", choices=["on", "off"], dest="aux_field")
        p.add_argument("--window", help="time window lo:hi for the tuning scan")
        p.add_argument("--grid", help="tuning scan grid points")
        p.add_argument(
            "--jitter",
            action="store_true",
            help="timing_error mode: per-sample read-out jitter over the window "
            "instead of a fixed offset",
        )
    p = sub.add_parser("certify", help="run the brute-force cross-check suite")
    p.add_argument("--n-max", type=int, default=10, dest="n_max")
    p.add_argument("--out", help="directory for certification.json")
    return parser


def keep_heap_mapped() -> bool:
    """Keep freed heap pages mapped for the rest of this process.

    glibc trims the top of the heap once a chunk's numpy temporaries are
    freed, so the next scan chunk or Monte Carlo batch maps and zeroes the
    same pages again.  ``mallopt`` sets the mmap threshold to 32 MiB and
    the trim threshold to 64 MiB.  Both are set because setting either one
    turns glibc's dynamic thresholds off: the trim threshold alone freezes
    the mmap threshold where it stands (128 KiB at start-up), and every
    larger temporary is mapped afresh.  Allocation changes, the arithmetic
    does not.  Returns whether both calls succeeded; off Linux, or where
    libc has no ``mallopt``, it sets nothing and returns False.
    """
    if not sys.platform.startswith("linux"):
        return False
    import ctypes  # here, so that importing the package imports nothing new

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    results = [mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
               mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)]
    return all(result == 1 for result in results)


def main(argv: list[str] | None = None) -> int:
    keep_heap_mapped()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "certify":
            cmd_certify(args.n_max, args.out)
        else:
            config = load_config(args)
            if args.command == "tune":
                cmd_tune(config)
            else:
                cmd_pdf(config)
        return EXIT_OK
    except SpinTransferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
