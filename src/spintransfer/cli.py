"""Reproducible experiment runner.

Three subcommands: ``tune`` locates optimal read-out times (optionally with
the phase-nulling auxiliary field), ``pdf`` produces analytic fidelity
distributions plus optional Monte Carlo histograms as figure-ready CSV
files, and ``certify`` runs the brute-force cross-check suite.  Identical
configuration and seed give byte-identical output files; wall-clock timing
is printed to stdout only, never written into them.

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
from dataclasses import dataclass

import numpy as np

from .analytics import (
    ProtocolTuning,
    ReadoutPlan,
    check_grid,
    fidelity_law,
    find_optimal_time,
    phase_correction_applies,
    plan_readout,
    tune_with_ladder,
)
from .chain import Barrier, ChainSpec, Perfect, ProtocolKind, Weak, protocol_preset
from .channel import Scenario, kraus_for_scenario
from .certify import run_certification
from .errors import (
    CapacityError,
    CertificationError,
    ModelError,
    NumericError,
    ParameterError,
    RangeError,
    SpinTransferError,
)
from .sampling import Histogram, RandomStream, default_bin_edges, ks_distance, mc_fidelity_histogram

RESULT_SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "SPINTRANSFER_OUT"
DEFAULT_MC_SAMPLES = 100_000
DEFAULT_BINS = 200
DEFAULT_SEED = 0
DEFAULT_TIMING_FRACTION = 0.02
JITTER_MIX_NODES = 41
PDF_CURVE_CELLS = 2001
PDF_CURVE_PAD_CELLS = 4
# false-alarm probability of the pdf's KS gate (Dvoretzky-Kiefer-Wolfowitz)
KS_GATE_ALPHA = 1e-9

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_TARGET = 3
EXIT_CERTIFY = 4
EXIT_NUMERIC = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (the ``result.json`` echo)."""

    protocol: dict
    n_sites: int
    scenario: str
    mode: dict
    mc_samples: int = DEFAULT_MC_SAMPLES
    seed: int = DEFAULT_SEED
    bins: int = DEFAULT_BINS
    output_dir: str = ""
    aux_field: bool | None = None
    window: tuple[float, float] | None = None
    grid: int | None = None
    jitter: bool = False

    def kind(self) -> ProtocolKind:
        kind = self.protocol.get("kind")
        if kind == "weak":
            return Weak(_number("protocol j0", self.protocol.get("j0")))
        if kind == "barrier":
            return Barrier(_number("protocol h0", self.protocol.get("h0")))
        if kind == "perfect":
            return Perfect()
        raise ParameterError(f"unknown protocol kind {kind!r}")

    def scenario_enum(self) -> Scenario:
        try:
            return Scenario(self.scenario)
        except ValueError as exc:
            raise ParameterError(f"unknown scenario {self.scenario!r}") from exc

    def resolved_aux(self) -> bool:
        if self.aux_field is not None:
            return bool(self.aux_field)
        return self.protocol.get("kind") != "barrier"

    def validate(self) -> None:
        if self.n_sites < 4:
            raise ParameterError(f"n_sites must be >= 4, got {self.n_sites}")
        mode_type = self.mode.get("type")
        if mode_type == "timing_error":
            fraction = _number("mode fraction", self.mode.get("fraction", DEFAULT_TIMING_FRACTION))
            if not 0.0 <= fraction <= 0.5:
                raise ParameterError(
                    f"timing_error fraction must lie in [0, 0.5], got {fraction}"
                )
        elif mode_type == "target_avg":
            value = _number("mode value", self.mode.get("value"))
            if not 0.5 < value < 1.0:
                raise ParameterError(
                    f"target_avg value must lie in (0.5, 1), got {value}"
                )
        elif mode_type != "at_optimal":
            raise ParameterError(f"unknown mode type {mode_type!r}")
        if self.jitter and mode_type != "timing_error":
            raise ParameterError(f"jitter applies to the timing_error mode, not {mode_type}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.mc_samples < 0:
            raise ParameterError("mc_samples must be >= 0 (0 = analytic only)")
        if self.bins < 2:
            raise ParameterError(f"bins must be >= 2, got {self.bins}")
        if self.grid is not None:
            check_grid(self.grid)
        if not self.output_dir:
            raise ParameterError(
                "output_dir is required (flag --out, config field, or "
                f"{OUTPUT_DIR_ENV} environment variable)"
            )
        self.kind()
        self.scenario_enum()

    def to_echo(self) -> dict:
        return {
            "protocol": self.protocol,
            "n_sites": self.n_sites,
            "scenario": self.scenario,
            "mode": self.mode,
            "mc_samples": self.mc_samples,
            "seed": self.seed,
            "bins": self.bins,
            "output_dir": self.output_dir,
            "aux_field": self.resolved_aux(),
            "window": list(self.window) if self.window else None,
            "grid": self.grid,
            "jitter": self.jitter,
        }


def _number(field: str, value, kind=float):
    """``kind(value)``, or a ParameterError naming ``field``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"{field} must be {noun}, got {value!r}") from exc


def _window(value) -> tuple[float, float]:
    """A (lo, hi) scan window from ``lo:hi`` text or a two-entry list."""
    if isinstance(value, str):
        lo, sep, hi = value.partition(":")
        value = [lo, hi] if sep else [value]
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParameterError(f"window must be lo:hi (two numbers), got {value!r}")
    return _number("window lo", value[0]), _number("window hi", value[1])


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge the JSON config file (if any) with command-line overrides.

    Raises
    ------
    ParameterError
        If the config file cannot be read or a numeric field does not
        parse; the message names the file or the field.
    """
    data: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParameterError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError(f"config {args.config!r} must hold a JSON object")
        for field in ("protocol", "mode"):
            if not isinstance(data.get(field, {}), dict):
                raise ParameterError(f"config field {field} must be a JSON object")
    protocol = dict(data.get("protocol", {}))
    if args.protocol:
        protocol["kind"] = args.protocol
    if args.j0 is not None:
        protocol["j0"] = args.j0
    if args.h0 is not None:
        protocol["h0"] = args.h0
    mode = dict(data.get("mode", {}))
    if args.mode:
        parts = args.mode.split(":", 1)
        mode = {"type": parts[0]}
        if parts[0] == "timing_error":
            mode["fraction"] = (
                _number("mode fraction", parts[1]) if len(parts) > 1 else DEFAULT_TIMING_FRACTION
            )
        elif parts[0] == "target_avg":
            if len(parts) < 2:
                raise ParameterError("--mode target_avg:<value> needs a value")
            mode["value"] = _number("mode value", parts[1])
    if not mode:
        mode = {"type": "at_optimal"}
    window = args.window or data.get("window")
    grid = args.grid if args.grid is not None else data.get("grid")
    output_dir = args.out or data.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV, "")
    aux = data.get("aux_field", None)
    if args.aux_field is not None:
        aux = args.aux_field == "on"
    config = ExperimentConfig(
        protocol=protocol,
        n_sites=_number(
            "n_sites", args.n_sites if args.n_sites is not None else data.get("n_sites", 0), int
        ),
        scenario=str(args.scenario or data.get("scenario", "")),
        mode=mode,
        mc_samples=_number(
            "mc_samples",
            args.mc_samples if args.mc_samples is not None else data.get("mc_samples", DEFAULT_MC_SAMPLES),
            int,
        ),
        seed=_number("seed", args.seed if args.seed is not None else data.get("seed", DEFAULT_SEED), int),
        bins=_number("bins", args.bins if args.bins is not None else data.get("bins", DEFAULT_BINS), int),
        output_dir=str(output_dir),
        aux_field=aux,
        window=_window(window) if window else None,
        grid=None if grid is None else _number("grid", grid, int),
        jitter=bool(args.jitter or data.get("jitter", False)),
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# deterministic file output
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def pdf_curve_rows(pdf):
    """Cell-averaged density curve rows (f, density, cdf).

    PDF_CURVE_CELLS edges span the support [f_min, f_max] (f_min + 1e-6 in
    place of f_max for a point mass), so both ends are cell edges exactly,
    and PDF_CURVE_PAD_CELLS cells of the same width extend past each end.
    The distributions' cdfs are 0 up to f_min and 1 from f_max, so a
    continuous distribution leaves the padding cells exactly empty and even
    the integrable edge singularities keep their mass under trapezoidal
    integration of the emitted samples.  The density column is the exact
    per-cell probability mass divided by the cell width; the cdf column is
    the analytic CDF at the cell midpoint.
    """
    lo, hi = pdf.support
    hi = max(hi, lo + 1e-6)  # point masses get a narrow but resolvable window
    pad = (hi - lo) / (PDF_CURVE_CELLS - 1) * np.arange(1, PDF_CURVE_PAD_CELLS + 1)
    edges = np.concatenate([lo - pad[::-1], np.linspace(lo, hi, PDF_CURVE_CELLS), hi + pad])
    cdf_edges = pdf.cdf(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    density = np.diff(cdf_edges) / np.diff(edges)
    cdf_mid = pdf.cdf(mids)
    return [(float(f), float(d), float(c)) for f, d, c in zip(mids, density, cdf_mid)]


def histogram_rows(hist: Histogram):
    density = hist.normalized_density()
    return [
        (float(hist.bin_edges[i]), float(hist.bin_edges[i + 1]), int(hist.counts[i]), float(density[i]))
        for i in range(hist.counts.size)
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _build_spec(config: ExperimentConfig) -> ChainSpec:
    n_senders = len(config.scenario_enum().senders)
    return protocol_preset(config.kind(), config.n_sites, n_senders)


def _tune(config: ExperimentConfig, spec: ChainSpec, corrected: bool) -> ProtocolTuning:
    """Tuning of ``spec``; its ``window`` is the (lo, hi, grid) it scanned.

    An explicit window is scanned at the configured grid (200 000 points by
    default).  Otherwise the ladder picks the window, and a configured grid
    that differs from the ladder's rescans that window at that grid.
    """
    scenario = config.scenario_enum()
    if config.window is not None:
        return find_optimal_time(spec, scenario, config.window, config.grid or 200_000, corrected)
    tuning = tune_with_ladder(spec, scenario, config.kind(), corrected)
    if not config.grid or config.grid == tuning.window[2]:
        return tuning
    return find_optimal_time(spec, scenario, tuning.window[:2], config.grid, corrected)


def _resolve_plan(config: ExperimentConfig) -> ReadoutPlan:
    spec = _build_spec(config)
    scenario = config.scenario_enum()
    tuning = _tune(config, spec, phase_correction_applies(scenario, config.resolved_aux()))
    mode_type = config.mode.get("type")
    kwargs = {}
    # jittered read-outs spread around the optimum, so they are planned there
    if mode_type == "timing_error" and not config.jitter:
        kwargs["timing_fraction"] = float(config.mode.get("fraction", DEFAULT_TIMING_FRACTION))
    elif mode_type == "target_avg":
        kwargs["target_avg"] = float(config.mode["value"])
    return plan_readout(spec, scenario, tuning, **kwargs)


def _result_record(echo, plan, pdf, avg, ks, files) -> dict:
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "config": echo,
        "t_opt": plan.t_opt,
        "t_readout": plan.t_read,
        "b_aux": plan.b_aux,
        "avg_fidelity": avg,
        "f_min": pdf.support[0],
        "f_max": pdf.support[1],
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
    mode_type = config.mode.get("type")
    if mode_type != "at_optimal":
        raise ParameterError(f"tune takes mode at_optimal only, got mode {mode_type}")
    started = time.perf_counter()
    spec = _build_spec(config)
    scenario = config.scenario_enum()
    corrected = phase_correction_applies(scenario, config.resolved_aux())
    # the window must contain the peak of the objective actually used, so
    # the ladder runs on the corrected curve whenever the field is applied
    tuning = _tune(config, spec, corrected)
    raw = tuning
    if corrected:
        lo, hi, grid = tuning.window
        raw = find_optimal_time(spec, scenario, (lo, hi), grid, phase_corrected=False)
    plan = plan_readout(spec, scenario, tuning)
    law = fidelity_law(plan.spec, scenario, [plan.t_opt])
    os.makedirs(config.output_dir, exist_ok=True)
    # tune never samples, so it echoes no sampling settings
    echo = {k: v for k, v in config.to_echo().items() if k not in ("mc_samples", "seed", "bins")}
    record = _result_record(echo, plan, law.pdf(), float(law.mean[0]), None, {})
    record["avg_fidelity_no_aux"] = raw.achieved_avg_fidelity
    write_json(os.path.join(config.output_dir, "result.json"), record)
    elapsed = time.perf_counter() - started
    print(
        f"tuned {config.protocol.get('kind')} N={config.n_sites} {config.scenario}: "
        f"t_opt={record['t_opt']:.9g} b_aux={record['b_aux']:.9g} "
        f"<F>={record['avg_fidelity']:.9f} (no aux: {record['avg_fidelity_no_aux']:.9f}) "
        f"[{elapsed:.2f}s]"
    )
    return record


def cmd_pdf(config: ExperimentConfig) -> dict:
    """Analytic pdf + optional MC histogram at the resolved read-out times.

    The law and the Monte Carlo run read one list of times: the planned
    read-out, or the jitter nodes around the optimum.  With every file
    written, a KS distance above the DKW bound of the samples fails the run.
    """
    started = time.perf_counter()
    plan = _resolve_plan(config)
    times = _jitter_times(plan, config) if config.jitter else [plan.t_read]
    law = fidelity_law(plan.spec, plan.scenario, times)
    pdf = law.pdf()
    # the rows' mean, which tuning and the target bisection evaluate
    avg = float(law.mean.mean())

    os.makedirs(config.output_dir, exist_ok=True)
    files = {"pdf_curve": "pdf_curve.csv"}
    write_csv(
        os.path.join(config.output_dir, "pdf_curve.csv"),
        ["f", "density", "cdf"],
        pdf_curve_rows(pdf),
    )
    ks = None
    if config.mc_samples > 0:
        edges = default_bin_edges(pdf, config.bins)
        hist = _mc_histogram(plan, times, config.mc_samples, edges, RandomStream(config.seed))
        ks = ks_distance(hist, pdf)
        files["histogram"] = "histogram.csv"
        write_csv(
            os.path.join(config.output_dir, "histogram.csv"),
            ["bin_lo", "bin_hi", "count", "normalized_density"],
            histogram_rows(hist),
        )
    record = _result_record(config.to_echo(), plan, pdf, avg, ks, files)
    write_json(os.path.join(config.output_dir, "result.json"), record)
    elapsed = time.perf_counter() - started
    ks_text = "n/a" if ks is None else f"{ks:.5f}"
    print(
        f"pdf {config.protocol.get('kind')} N={config.n_sites} {config.scenario}: "
        f"t_read={plan.t_read:.9g} <F>={avg:.9f} support=[{pdf.support[0]:.9f}, "
        f"{pdf.support[1]:.9f}] ks={ks_text} [{elapsed:.2f}s]"
    )
    if ks is not None:
        bound = float(np.sqrt(np.log(2.0 / KS_GATE_ALPHA) / (2.0 * config.mc_samples)))
        if ks > bound:
            raise CertificationError(
                f"Monte Carlo KS distance {ks:.3e} exceeds the DKW bound {bound:.3e} "
                f"of {config.mc_samples} samples"
            )
    return record


def _jitter_times(plan: ReadoutPlan, config: ExperimentConfig) -> np.ndarray:
    """The equal-weight read-out times of the jitter mixture around t_opt."""
    fraction = float(config.mode.get("fraction", DEFAULT_TIMING_FRACTION))
    return plan.t_opt * np.linspace(1.0 - fraction, 1.0 + fraction, JITTER_MIX_NODES)


def _mc_histogram(plan: ReadoutPlan, times, n: int, edges, stream: RandomStream) -> Histogram:
    """Monte Carlo histogram of ``n`` fidelities read out at equal-weight ``times``.

    One multinomial draw from ``stream.substream(len(times))`` splits the
    samples over the times, and time k's share samples the Kraus set at that
    time from ``stream.substream(k)``: a single time samples ``stream`` itself.
    """
    weights = np.full(len(times), 1.0 / len(times))
    shares = stream.substream(len(times)).generator().multinomial(n, weights)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for k, (t, share) in enumerate(zip(times, shares)):
        if share:
            kraus = kraus_for_scenario(plan.spec, plan.scenario, float(t))
            counts += mc_fidelity_histogram(kraus, int(share), edges, stream.substream(k)).counts
    return Histogram(edges, counts, n)


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
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--protocol", choices=["weak", "barrier", "perfect"])
        p.add_argument("--n-sites", type=int, dest="n_sites")
        p.add_argument(
            "--scenario",
            choices=[s.value for s in Scenario],
        )
        p.add_argument(
            "--mode",
            help="at_optimal | timing_error[:fraction] | target_avg:<value>",
        )
        p.add_argument("--j0", type=float, help="weak-protocol end coupling")
        p.add_argument("--h0", type=float, help="barrier-protocol field strength")
        if name == "pdf":
            p.add_argument("--seed", type=int)
            p.add_argument("--mc-samples", type=int, dest="mc_samples")
            p.add_argument("--bins", type=int)
        else:
            # tune never samples; a shared config file may still set these
            p.set_defaults(seed=None, mc_samples=None, bins=None)
        p.add_argument("--out", help="output directory")
        p.add_argument("--aux-field", choices=["on", "off"], dest="aux_field")
        p.add_argument("--window", help="time window lo:hi for the tuning scan")
        p.add_argument("--grid", type=int, help="tuning scan grid points")
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


def main(argv: list[str] | None = None) -> int:
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
    except RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TARGET
    except (ParameterError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFY
    except (NumericError, ModelError, SpinTransferError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
