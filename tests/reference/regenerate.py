"""Rewrite ``tune_records.json``, the pinned records of six ``tune`` runs.

Each run is a ``spintransfer tune`` command, run in this process; its
``result.json``, less the ``output_dir`` the run wrote to, is stored under
the run's name.  Between them the runs reach every finite branch of
:func:`~spintransfer.analytics.mean_slope_bound`: the phase-corrected and
the raw vacuum bound, the free-fermion occupied bound, and the two-qubit
envelope's bound on a raw and on a phase-corrected scan.
``tests/test_reference.py`` reruns them and compares every number.  From
the repository root:

    PYTHONPATH=src python tests/reference/regenerate.py

Rewrite the file only for a change meant to move these numbers, and say
which numbers moved and why.
"""

from __future__ import annotations

import json
import os
import tempfile

from spintransfer import cli

RECORDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tune_records.json")

RUNS = {
    "weak_22_one_qubit_vacuum": ["--protocol", "weak", "--j0", "0.005", "--n-sites", "22",
                                 "--scenario", "one_qubit_vacuum"],
    "barrier_22_one_qubit_vacuum": ["--protocol", "barrier", "--h0", "200", "--n-sites", "22",
                                    "--scenario", "one_qubit_vacuum"],
    "perfect_22_one_qubit_vacuum": ["--protocol", "perfect", "--n-sites", "22",
                                    "--scenario", "one_qubit_vacuum"],
    "barrier_9_two_qubit": ["--protocol", "barrier", "--h0", "200", "--n-sites", "9",
                            "--scenario", "two_qubit"],
    "weak_9_two_qubit": ["--protocol", "weak", "--j0", "0.005", "--n-sites", "9",
                         "--scenario", "two_qubit"],
    "barrier_15_one_qubit_uniform": ["--protocol", "barrier", "--h0", "100", "--n-sites", "15",
                                     "--scenario", "one_qubit_uniform"],
}


def tune_record(argv: list[str], out_dir: str) -> dict:
    """The ``result.json`` of ``spintransfer tune`` with ``argv``, written
    under ``out_dir``, less its ``output_dir``."""
    code = cli.main(["tune", *argv, "--out", out_dir])
    if code != 0:
        raise RuntimeError(f"tune {' '.join(argv)} exited {code}")
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    del record["config"]["output_dir"]
    return record


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        records = {name: tune_record(argv, os.path.join(scratch, name))
                   for name, argv in RUNS.items()}
    cli.write_json(RECORDS, records)


if __name__ == "__main__":
    main()
