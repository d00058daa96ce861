"""The one list of spintransfer's reference runs, and the records they pin.

``RUNS`` maps each reference run's name to its full ``spintransfer`` argv,
less ``--out``:

- six ``tune`` runs that between them reach every finite slope bound of
  :func:`~spintransfer.analytics.scan_bound`: the phase-corrected and the
  raw vacuum bound, the free-fermion occupied bound, and the two-qubit
  envelope's bound on a raw and on a phase-corrected scan;
- the six ``pdf`` commands of README's "Reproducing the reference settings"
  (``readme_*``) and ``b22err --jitter`` (``ci_b22err_jitter``);
- the seven ``pdf`` ops of ``bench/run.py`` at ``--seed 1``, with the argv
  that ``bench/run.py`` builds (``bench_<workload>_<op>``), read from that
  file;
- ``certify --n-max 10`` (``certify``).

Three readers use it:

- tier-1's README check, ``test_readme_runs_are_the_listed_ones`` in
  ``tests/test_reference.py``: README's reference block and its "Command
  line" ``tune`` and ``certify`` lines must be listed runs, word for word
  and in order, so a README command edited without this list fails;
- CI (``.github/workflows/tier1.yml``), which reads ``RUNS`` with
  ``runpy``, runs each in a fresh process under ``PYTHONWARNINGS=error``,
  and names the runs it repeats on one core and on all;
- the record tests of ``tests/test_reference.py``, which rerun every run
  in process and compare it with its pinned record.

The records, split off ``RUNS`` by the command each run starts with:
``tune_records.json`` holds each ``tune`` run's ``result.json`` less the
``output_dir`` it wrote to.  ``pdf_records.json`` holds, for each ``pdf``
run, ``result.json`` less ``output_dir``, the histogram counts, the row
count of ``pdf_curve.csv`` and that file's cdf column interpolated at five
fixed fidelities, and the sha256 of every written file (``result.json``
without its ``output_dir`` line).  ``certify_record.json`` holds each of
certify's checks' name, ``passed`` and ``detail`` in report order, and the
sha256 of ``certification.json``.  :func:`main` rewrites them; from the
repository root:

    PYTHONPATH=src python tests/reference/regenerate.py

Rewrite the files only for a change meant to move these outputs, and say
which numbers moved and why; ``git diff -- tests/reference`` then shows
them.  A sha256 that moves with every number in bounds is byte drift: the
arithmetic rounds differently, which also belongs in the change's notes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import tempfile

import numpy as np

from spintransfer import cli

HERE = os.path.dirname(os.path.abspath(__file__))
TUNE_RECORDS = os.path.join(HERE, "tune_records.json")
PDF_RECORDS = os.path.join(HERE, "pdf_records.json")
CERTIFY_RECORD = os.path.join(HERE, "certify_record.json")
BENCH_RUN = os.path.join(HERE, os.pardir, os.pardir, "bench", "run.py")

TARGET_22 = ["--scenario", "one_qubit_vacuum", "--mode", "target_avg:0.99",
             "--mc-samples", "1000000"]
B22_ERROR = ["pdf", "--protocol", "barrier", "--h0", "200", "--n-sites", "22",
             "--scenario", "one_qubit_vacuum", "--mode", "timing_error:0.02"]
BENCH_SEED = 1

# fractions of the pdf curve's f range at which its cdf column is pinned
CDF_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 0.9)


def bench_pdf_runs() -> dict:
    """Name -> argv of each ``pdf`` op of ``bench/run.py``'s workloads, with
    the ``--seed`` the benchmark appends, read from that file (loaded
    without writing bytecode beside it)."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return {
        f"bench_{workload}_{op['name']}": [*op["argv"], "--seed", str(BENCH_SEED)]
        for workload, ops in module.WORKLOADS.items()
        for op in ops
        if op["argv"][0] == "pdf"
    }


# CI splits each argv on whitespace, unquoted: no word may hold whitespace
# or a shell metacharacter (tests/test_reference.py checks)
RUNS = {
    "weak_22_one_qubit_vacuum": ["tune", "--protocol", "weak", "--j0", "0.005", "--n-sites", "22",
                                 "--scenario", "one_qubit_vacuum"],
    "barrier_22_one_qubit_vacuum": ["tune", "--protocol", "barrier", "--h0", "200",
                                    "--n-sites", "22", "--scenario", "one_qubit_vacuum"],
    "perfect_22_one_qubit_vacuum": ["tune", "--protocol", "perfect", "--n-sites", "22",
                                    "--scenario", "one_qubit_vacuum"],
    "barrier_9_two_qubit": ["tune", "--protocol", "barrier", "--h0", "200", "--n-sites", "9",
                            "--scenario", "two_qubit"],
    "weak_9_two_qubit": ["tune", "--protocol", "weak", "--j0", "0.005", "--n-sites", "9",
                         "--scenario", "two_qubit"],
    "barrier_15_one_qubit_uniform": ["tune", "--protocol", "barrier", "--h0", "100",
                                     "--n-sites", "15", "--scenario", "one_qubit_uniform"],
    "readme_b22": ["pdf", "--protocol", "barrier", "--h0", "200", "--n-sites", "22", *TARGET_22],
    "readme_w22": ["pdf", "--protocol", "weak", "--j0", "0.005", "--n-sites", "22", *TARGET_22],
    "readme_p22": ["pdf", "--protocol", "perfect", "--n-sites", "22", *TARGET_22],
    "readme_b22err": B22_ERROR,
    "readme_b15u": ["pdf", "--protocol", "barrier", "--h0", "100", "--n-sites", "15",
                    "--scenario", "one_qubit_uniform", "--mode", "target_avg:0.99"],
    "readme_w9q2": ["pdf", "--protocol", "weak", "--j0", "0.005", "--n-sites", "9",
                    "--scenario", "two_qubit", "--mode", "target_avg:0.99"],
    "ci_b22err_jitter": [*B22_ERROR, "--jitter"],
    **bench_pdf_runs(),
    "certify": ["certify", "--n-max", "10"],
}
TUNE_RUNS = {name: argv for name, argv in RUNS.items() if argv[0] == "tune"}
PDF_RUNS = {name: argv for name, argv in RUNS.items() if argv[0] == "pdf"}


def run(argv: list[str], out_dir: str) -> None:
    """``spintransfer`` with ``argv``, writing under ``out_dir``;
    RuntimeError unless it exits 0."""
    code = cli.main([*argv, "--out", out_dir])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def result_record(out_dir: str) -> dict:
    """The ``result.json`` under ``out_dir``, less its ``output_dir``."""
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    del record["config"]["output_dir"]
    return record


def file_hashes(out_dir: str) -> dict:
    """The sha256 of every file under ``out_dir``; ``result.json`` is
    hashed without its ``output_dir`` line, the one line a run's output
    directory moves."""
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "result.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if b'"output_dir"' not in line)
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes


def pdf_record(out_dir: str, at=None) -> dict:
    """The pinned digest of the ``pdf`` run written under ``out_dir``: its
    cdf column interpolated at the fidelities ``at``, by default at
    ``CDF_FRACTIONS`` of the curve's f range."""
    curve = np.loadtxt(os.path.join(out_dir, "pdf_curve.csv"), delimiter=",", skiprows=1,
                       ndmin=2)
    f, cdf = curve[:, 0], curve[:, 2]
    if at is None:
        at = f[0] + np.array(CDF_FRACTIONS) * (f[-1] - f[0])
    counts = np.loadtxt(os.path.join(out_dir, "histogram.csv"), delimiter=",", skiprows=1,
                        usecols=2, dtype=np.int64, ndmin=1)
    return {
        "result": result_record(out_dir),
        "curve_rows": len(curve),
        "cdf_at": [[float(x), float(y)] for x, y in zip(at, np.interp(at, f, cdf))],
        "counts": counts.tolist(),
        "sha256": file_hashes(out_dir),
    }


def certify_record(out_dir: str) -> dict:
    """The pinned digest of the ``certify`` report written under ``out_dir``."""
    with open(os.path.join(out_dir, "certification.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "checks": [{key: check[key] for key in ("name", "passed", "detail")}
                   for check in report["checks"]],
        "sha256": file_hashes(out_dir),
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in RUNS.items():
            run(argv, os.path.join(scratch, name))
        records = {name: result_record(os.path.join(scratch, name)) for name in TUNE_RUNS}
        pdfs = {name: pdf_record(os.path.join(scratch, name)) for name in PDF_RUNS}
        certify = certify_record(os.path.join(scratch, "certify"))
    cli.write_json(TUNE_RECORDS, records)
    cli.write_json(PDF_RECORDS, pdfs)
    cli.write_json(CERTIFY_RECORD, certify)


if __name__ == "__main__":
    main()
