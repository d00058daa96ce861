"""spintransfer benchmark: end-to-end and per-layer metrics of the CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a closed loop with one client: it runs the workload's ops
one after another, each in a fresh Python process (bench/op.py) that
imports the package from ``src/`` and calls ``spintransfer.cli.main``.  It
repeats the whole workload for about S seconds (at least once), checks
every op's outputs, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  Times are in reference
seconds (see CAL_REF_S).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones.  ``--workload all`` runs every workload in turn.

A results file with the environment, every op's timings and any gate
failures goes to ``.bench_work/results/``; traced runs also write their
spans there.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")
OP_SCRIPT = os.path.join(BENCH_DIR, "op.py")

# One invocation must end within 180 s; no op is started or left running
# past this many seconds after the start of a workload.
HARD_LIMIT_S = 165.0

TARGET_TOL = 1e-8
KS_LIMIT = 0.01
PDF_MASS_TOL = 1e-4
AT_OPTIMAL_TOL = 1e-9
OUTPUT_FILES = ("result.json", "pdf_curve.csv", "histogram.csv")

# Ops run with single-threaded BLAS.  On a small shared machine a single
# thread leaves a core to the harness and the system, and no BLAS barrier
# waits on a thread that lost its core: on 2 cores this cut the run-to-run
# spread of certify's run_s from about 20% to about 5%.
BLAS_THREADS = 1

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Times are reported in reference seconds: measured seconds times CAL_REF_S
# over the mean round time of a fixed calibration kernel (Calibration),
# which the harness runs between ops for CAL_SHARE of each op's wall time
# (at least CAL_MIN_S), so that its rounds sample the whole run.  On a
# shared host the speed of a core drifts by 30% and more over minutes, and
# by 10-20% from one second to the next, as other tenants come and go; this
# shows in user time as well as wall time, so it is not CPU steal.  Raw op
# times follow the drift, their ratio to the kernel's time much less.
# CAL_REF_S is a constant of the benchmark, the same for every commit
# compared; on a 2-vCPU 2.0 GHz Xeon VM the mean round time was 0.05-0.08 s,
# so there the figures read 0.6 to 1.0 times wall seconds.
CAL_REF_S = 0.05
CAL_SHARE = 0.1
CAL_MIN_S = 0.2


def pdf_op(name, protocol, n_sites, scenario, mode, mc_samples=None, jitter=False,
           at_optimal_floor=None):
    """A ``spintransfer pdf`` op; the workload seed is appended as --seed."""
    argv = ["pdf", "--protocol", protocol[0], *protocol[1:], "--n-sites", str(n_sites),
            "--scenario", scenario, "--mode", mode]
    if mc_samples is not None:
        argv += ["--mc-samples", str(mc_samples)]
    if jitter:
        argv.append("--jitter")
    target = float(mode.split(":")[1]) if mode.startswith("target_avg:") else None
    return {"name": name, "argv": argv, "seeded": True, "target": target,
            "at_optimal_floor": at_optimal_floor}


BARRIER_200 = ("barrier", "--h0", "200")
WEAK = ("weak", "--j0", "0.005")
PERFECT = ("perfect",)

# Each workload makes a different layer dominate, and each layer that a
# planned change touches is idle on another workload (BENCHMARK.json says
# why for each).
WORKLOADS = {
    "vacuum22": [
        pdf_op("barrier_target", BARRIER_200, 22, "one_qubit_vacuum", "target_avg:0.99", 10**6),
        pdf_op("weak_target", WEAK, 22, "one_qubit_vacuum", "target_avg:0.99", 10**6),
        pdf_op("perfect_target", PERFECT, 22, "one_qubit_vacuum", "target_avg:0.99", 10**6),
        pdf_op("barrier_jitter", BARRIER_200, 22, "one_qubit_vacuum", "timing_error:0.02",
               10**6, jitter=True),
    ],
    "pair_sector": [
        pdf_op("barrier_uniform", ("barrier", "--h0", "100"), 15, "one_qubit_uniform",
               "target_avg:0.99"),
        pdf_op("weak_two_qubit", WEAK, 9, "two_qubit", "target_avg:0.99"),
    ],
    # The sector builds of the long chain and the 2^N reference of certify:
    # the two ops whose run time dynamics.build_s moves.
    "long_chain_certify": [
        # The perfect chain transfers exactly: <F> = 1 at the seed commit.
        pdf_op("perfect60_optimal", PERFECT, 60, "one_qubit_vacuum", "at_optimal",
               at_optimal_floor=1.0),
        # certify draws from fixed internal seeds; the workload seed is not used.
        {"name": "certify", "argv": ["certify", "--n-max", "10"], "seeded": False,
         "target": None, "at_optimal_floor": None},
    ],
}


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# Figures derived from array shapes rather than measured.
COMPUTED_NOT_MEASURED = ("dynamics.spectral_mb", "dynamics.sector_dim_max", "oracle.dim_max")


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SPINTRANSFER_OUT", None)
    return env


def run_op(workload: str, op: dict, seed: int, traced: bool, op_id: str, deadline: float,
           env: dict) -> tuple[dict | None, str, str]:
    """Run one op in a fresh process; return (report or None, out dir, error)."""
    out_dir = os.path.join(WORK_DIR, workload, op["name"])
    report_path = out_dir + ".report.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(report_path):
        os.remove(report_path)
    argv = list(op["argv"]) + ["--out", out_dir]
    if op["seeded"]:
        argv += ["--seed", str(seed)]
    remaining = deadline - time.perf_counter()
    if remaining <= 1.0:
        return None, out_dir, "not started: time limit reached"
    cmd = [sys.executable, OP_SCRIPT, report_path, "1" if traced else "0", op_id, *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        return None, out_dir, "killed: time limit reached"
    if proc.returncode != 0 or not os.path.exists(report_path):
        return None, out_dir, f"op process exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    with open(report_path, encoding="utf-8") as fh:
        return json.load(fh), out_dir, ""


class Calibration:
    """Times rounds of a fixed kernel that calls no spintransfer code.

    A round takes about as long in each of five kinds of work the ops do:
    small dense eigendecompositions, complex exponentials over a large
    array, a pure-Python loop, products of a large real matrix with a
    complex vector (the 2^N reference's pattern), and filling a freshly
    mapped 48 MB array, whose page faults stand for the fresh memory of
    each op process.  The first round, which pays one-off costs, is not
    counted.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((240, 240))
        self._np, self._sym, self._x = np, a + a.T, rng.standard_normal(200_000)
        self._mat = rng.standard_normal((1024, 1024))
        self._vec = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        self.busy_s = 0.0
        self.rounds = 0
        self._round()

    def _round(self) -> None:
        np = self._np
        for _ in range(2):
            np.linalg.eigh(self._sym)
        np.exp(1j * self._x).sum()
        total = 0
        for i in range(150_000):
            total += i * i
        for _ in range(5):
            self._mat @ self._vec
        np.ones(6_000_000).sum()

    def run(self, seconds: float) -> None:
        """Run whole rounds until at least ``seconds`` have passed."""
        started = now = time.perf_counter()
        while now - started < seconds:
            self._round()
            self.rounds += 1
            now = time.perf_counter()
        self.busy_s += now - started

    def scale(self) -> float:
        """Factor from measured seconds to reference seconds."""
        return CAL_REF_S * self.rounds / self.busy_s


def trapezoid_mass(path: str) -> float:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    f = [float(r[0]) for r in rows]
    d = [float(r[1]) for r in rows]
    return sum(0.5 * (f[i + 1] - f[i]) * (d[i + 1] + d[i]) for i in range(len(f) - 1))


def file_digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_op(op: dict, report: dict, out_dir: str, digests: dict) -> list[str]:
    """Correctness gate of one op run; returns the reasons it failed."""
    if report["exit_code"] != 0:
        return [f"exit code {report['exit_code']}: {report['stderr'].strip()[-300:]}"]
    if op["argv"][0] == "certify":
        with open(os.path.join(out_dir, "certification.json"), encoding="utf-8") as fh:
            cert = json.load(fh)
        return [] if cert["all_passed"] else ["certification reports a failed check"]
    problems = []
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    avg = result["avg_fidelity"]
    if op["target"] is not None and abs(avg - op["target"]) > TARGET_TOL:
        problems.append(f"|avg - target| = {abs(avg - op['target']):.3e} > {TARGET_TOL}")
    ks = result["ks_distance"]
    if result["config"]["mc_samples"] > 0 and (ks is None or ks > KS_LIMIT):
        problems.append(f"ks_distance {ks} exceeds {KS_LIMIT}")
    if not result["f_min"] <= avg <= result["f_max"]:
        problems.append(f"avg {avg} outside [f_min, f_max] = [{result['f_min']}, {result['f_max']}]")
    mass = trapezoid_mass(os.path.join(out_dir, "pdf_curve.csv"))
    if abs(mass - 1.0) > PDF_MASS_TOL:
        problems.append(f"pdf_curve.csv integrates to {mass!r}")
    if op["at_optimal_floor"] is not None and avg < op["at_optimal_floor"] - AT_OPTIMAL_TOL:
        problems.append(f"at-optimal avg {avg!r} below the seed value {op['at_optimal_floor']!r}")
    for name in OUTPUT_FILES:
        digest = file_digest(os.path.join(out_dir, name))
        if digest is None:
            problems.append(f"{name} missing")
        elif digests.setdefault((op["name"], name), digest) != digest:
            problems.append(f"{name} differs from the first repetition")
    return problems


def run_rep(workload: str, seed: int, traced: bool, index: int, deadline: float, env: dict,
            digests: dict, calibration: Calibration) -> dict:
    ops = []
    for op in WORKLOADS[workload]:
        op_id = f"{workload}/{op['name']}/rep{index}"
        started = time.perf_counter()
        report, out_dir, error = run_op(workload, op, seed, traced, op_id, deadline, env)
        calibration.run(max(CAL_MIN_S, CAL_SHARE * (time.perf_counter() - started)))
        if report is None:
            failures = [error]
        else:
            try:
                failures = check_op(op, report, out_dir, digests)
            except (OSError, ValueError, KeyError) as exc:
                failures = [f"outputs unreadable: {exc!r}"]
        ops.append({"op": op["name"], "op_id": op_id, "report": report, "failures": failures})
    return {"traced": traced, "ops": ops}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def spans_metrics(span_lists: list[list]) -> dict:
    """Per-layer metrics of the spans of one repetition (one list per op)."""
    m = defaultdict(float)
    grid_points = repeat_points = 0
    for spans in span_lists:
        dur = [s[5] - s[4] for s in spans]
        covered = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[2] is not None:
                covered[s[2]] += d
        op_spectral_mb = 0.0
        for s, d, cov in zip(spans, dur, covered):
            name, attrs = s[3], s[6] or {}
            parent = spans[s[2]][3] if s[2] is not None else None
            self_s = d - cov
            m[name.split(".")[0] + ".self_s"] += self_s
            if name == "dynamics.build":
                m["dynamics.build_s"] += d
                if parent == "analytics.curve":
                    m["analytics.curve_s"] -= d
                m["dynamics.builds"] += 1
                m["dynamics.builds_field_shift"] += attrs["field_shift"]
            elif name == "dynamics.eigh":
                m["dynamics.sector_dim_max"] = max(m["dynamics.sector_dim_max"], attrs["dim"])
                op_spectral_mb += attrs["dim"] ** 2 * 8 / 1e6
            elif name in ("dynamics.one_exc", "dynamics.two_exc"):
                m[name + "_s"] += self_s
            elif name == "dynamics.amplitudes_at":
                m["dynamics.amplitudes_at_s"] += self_s
                m["dynamics.amplitudes_at_calls"] += 1
            elif name == "analytics.curve":
                m["analytics.curve_calls"] += 1
                m["analytics.curve_points"] += attrs["points"]
                m["analytics.curve_s"] += d
                if attrs["points"] > 1:
                    grid_points += attrs["points"]
                    repeat_points += attrs["points"] * attrs["repeat"]
                if parent == "analytics.golden":
                    m["analytics.golden_evals"] += 1
                elif parent == "analytics.target":
                    m["analytics.target_evals"] += 1
            elif name == "analytics.find_optimal":
                m["analytics.ladder_windows"] += parent == "analytics.ladder"
            elif name == "analytics.golden":
                m["analytics.tune_s"] += d
            elif name == "analytics.target":
                m["analytics.target_s"] += d
            elif name == "analytics.reduce":
                m["analytics.reduce_s"] += d
                m["analytics.reduce_calls"] += 1
            elif name == "analytics.pdf":
                m["analytics.pdf_s"] += self_s
            elif name == "channel.kraus":
                m["channel.kraus_s"] += d
                m["channel.kraus_builds"] += 1
                m["channel.kraus_ops"] += attrs["ops"]
            elif name == "sampling.mc":
                m["sampling.mc_s"] += d
                m["sampling.mc_samples"] += attrs["samples"]
            elif name == "sampling.ks":
                m["sampling.ks_s"] += d
            elif name == "oracle.evolve":
                m["oracle.evolve_s"] += d
                m["oracle.evolve_calls"] += 1
                m["oracle.dim_max"] = max(m["oracle.dim_max"], attrs["dim"])
            elif name == "certify.run":
                m["certify.checks"] += attrs["checks"]
                m["certify.checks_failed"] += attrs["failed"]
            elif name == "cli.write":
                m["cli.write_s"] += d
                m["cli.bytes_written"] += attrs["bytes"]
        m["dynamics.spectral_mb"] = max(m["dynamics.spectral_mb"], op_spectral_mb)
    m["analytics.scan_repeat_frac"] = repeat_points / grid_points if grid_points else 0.0
    if m["analytics.curve_s"]:
        m["analytics.curve_points_per_s"] = m["analytics.curve_points"] / m["analytics.curve_s"]
    if m["sampling.mc_s"]:
        m["sampling.mc_samples_per_s"] = m["sampling.mc_samples"] / m["sampling.mc_s"]
    return dict(m)


def summary(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "n": len(values)}


def end_to_end(reps: list[dict], scale: float) -> dict:
    """run_s, setup_s (in reference seconds) and peak_rss_mb of the untraced repetitions."""
    run_s, rss, setups = [], [], []
    for rep in reps:
        reports = [o["report"] for o in rep["ops"]]
        if rep["traced"] or any(r is None for r in reports):
            continue
        run_s.append(scale * sum(r["op_s"] for r in reports))
        rss.append(max(r["peak_rss_mb"] for r in reports))
        setups.extend(scale * r["setup_s"] for r in reports)
    if not run_s:
        return {}
    return {"run_s": summary(run_s), "setup_s": summary(setups), "peak_rss_mb": summary(rss)}


def per_layer(reps: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced repetitions) and the same per op.

    Each op's entry also holds its median untraced time, against which its
    layer self times (which add up to its traced time) can be compared.
    """
    per_rep, traced_run_s, untraced_run_s, jitter_err = [], [], [], 0.0
    per_op: dict = {}
    untraced_op_s = defaultdict(list)
    for rep in reps:
        reports = [o["report"] for o in rep["ops"]]
        if any(r is None for r in reports):
            continue
        if not rep["traced"]:
            for o, r in zip(rep["ops"], reports):
                untraced_op_s[o["op"]].append(r["op_s"])
            untraced_run_s.append(sum(r["op_s"] for r in reports))
            continue
        per_rep.append(spans_metrics([r["spans"] for r in reports]))
        traced_run_s.append(sum(r["op_s"] for r in reports))
        for o, r in zip(rep["ops"], reports):
            if r.get("jitter_mean_err") is not None:
                jitter_err = r["jitter_mean_err"]
            per_op[o["op"]] = {"traced_op_s": r["op_s"], **spans_metrics([r["spans"]])}
    for op, times in untraced_op_s.items():
        per_op.setdefault(op, {})["untraced_op_s"] = statistics.median(times)
    metrics = {}
    for name in metric_units("per_layer"):
        metrics[name] = statistics.median(m.get(name, 0.0) for m in per_rep) if per_rep else 0.0
    metrics["analytics.jitter_mean_err"] = jitter_err
    if traced_run_s and untraced_run_s:
        untraced = statistics.median(untraced_run_s)
        metrics["trace.overhead_frac"] = (statistics.median(traced_run_s) - untraced) / untraced
    return metrics, per_op


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def commit() -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "spintransfer")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(reps: list[dict]) -> dict:
    child = next((o["report"]["environment"] for rep in reps for o in rep["ops"]
                  if o["report"] is not None), {})
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        **child,
        "commit": commit(),
        "source_sha256": source_digest(),
        "certify_seeds": "fixed internal seeds; the workload seed is not passed to certify",
        "computed_not_measured": list(COMPUTED_NOT_MEASURED),
    }


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = child_env()
    calibration = Calibration()
    started = time.perf_counter()
    calibration.run(CAL_MIN_S)
    deadline = started + HARD_LIMIT_S
    soft_end = started + seconds
    reps: list[dict] = []
    digests: dict = {}
    longest = 0.0
    rounds = 0
    while True:
        # In traced runs each round is one untraced and one traced repetition,
        # in alternating order so neither always runs on a warmer machine.
        order = [False] if not trace else ([False, True] if len(reps) % 4 == 0 else [True, False])
        round_start = time.perf_counter()
        for traced in order:
            reps.append(run_rep(workload, seed, traced, len(reps), deadline, env, digests,
                                calibration))
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        rounds += 1
        # Start another round while it would end, on average, no more than
        # half a round past the end of the run, so runs last S seconds on
        # average; never start one that might outlast the hard limit.
        if now + 0.5 * (now - started) / rounds > soft_end or now + longest > deadline:
            break

    e2e = end_to_end(reps, calibration.scale())
    failures = [f"{o['op_id']}: {f}" for rep in reps for o in rep["ops"] for f in o["failures"]]
    attempted = sum(len(rep["ops"]) for rep in reps)
    failed = sum(1 for rep in reps for o in rep["ops"] if o["failures"])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "wall_s": time.perf_counter() - started,
        "environment": environment(reps),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "calibration": {"rounds": calibration.rounds, "busy_s": calibration.busy_s,
                        "ref_round_s": CAL_REF_S, "scale": calibration.scale()},
        "end_to_end": e2e,
        "reps": [
            {"traced": rep["traced"], "ops": [
                {"op": o["op"], "failures": o["failures"], **(
                    {k: o["report"][k] for k in ("op_s", "setup_s", "peak_rss_mb", "exit_code")}
                    if o["report"] else {})}
                for o in rep["ops"]]}
            for rep in reps
        ],
    }
    if trace:
        record["per_layer"], record["per_op"] = per_layer(reps)
        units = metric_units("per_layer")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
    else:
        units = metric_units("end_to_end")
        metrics = {k: {"value": v["median"], "unit": units[k]} for k, v in e2e.items()}
    record["metrics"] = metrics

    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    stem = os.path.join(WORK_DIR, "results", f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump([s for rep in reps for o in rep["ops"] if o["report"]
                       for s in o["report"].get("spans", [])], fh)
    print_summary(record)
    return record


def print_summary(record: dict) -> None:
    env = record["environment"]
    units = {**metric_units("end_to_end"), **metric_units("per_layer")}
    n_ops = len(WORKLOADS[record["workload"]])
    print(f"workload {record['workload']} seed {record['seed']}: {n_ops} ops, "
          f"attempted {record['attempted']}, failed {record['failed']}, "
          f"BLAS threads {env.get('blas_threads')} of {env['usable_cores']} cores")
    for name, stats in record["end_to_end"].items():
        print(f"  {name:<12} {stats['median']:.6g} {units[name]:<3} "
              f"(median of {stats['n']}; quartiles {stats['q1']:.6g} / {stats['q3']:.6g})")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Set before numpy is first imported, here by Calibration; op processes
    # inherit it.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(ROOT, "src", "spintransfer", "cli.py")):
        print(f"error: no spintransfer sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
