"""The reference runs of ``tests/reference/regenerate.py`` and their pinned records.

Each run is rerun in process and compared with its pinned record.  In
every ``result.json`` the read-out times and the auxiliary field agree to
relative 1e-8 (an exact 0 stays 0), the fidelities and the KS distance to
absolute 1e-9, everything else exactly.  A ``pdf`` run's cdf digest agrees
to absolute 1e-9 and its histogram counts to an L1 distance of 2 (one
sample moved across a bin edge); certify's checks keep their names, order,
outcome and detail.  The sha256 of every written file is compared by a test
of its own, so byte drift with every number in bounds shows as that test's
failure alone.  README's reference commands are checked against the list.
"""

import json
import re
import shlex

import numpy as np
import pytest

from conftest import readme_block, regenerate


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


PINNED = read_json(regenerate.TUNE_RECORDS)
PINNED_PDF = read_json(regenerate.PDF_RECORDS)
PINNED_CERTIFY = read_json(regenerate.CERTIFY_RECORD)
TIMES = ("t_opt", "t_readout", "b_aux")
FIDELITIES = ("avg_fidelity", "avg_fidelity_no_aux", "f_min", "f_max", "ks_distance")


def assert_record_matches(record: dict, pinned: dict) -> None:
    assert set(record) == set(pinned)
    for key in TIMES:
        assert record[key] == pytest.approx(pinned[key], rel=1e-8, abs=0.0), key
    numbers = [key for key in FIDELITIES if pinned.get(key) is not None]
    for key in numbers:
        assert record[key] == pytest.approx(pinned[key], rel=0.0, abs=1e-9), key
    rest = set(pinned) - set(TIMES) - set(numbers)
    assert {k: record[k] for k in rest} == {k: pinned[k] for k in rest}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Run name -> the directory its outputs went to, each run once per
    module: the number and the hash tests read the same files."""
    root = tmp_path_factory.mktemp("reference")
    done = {}

    def outputs(name: str) -> str:
        if name not in done:
            done[name] = str(root / name)
            regenerate.run(regenerate.RUNS[name], done[name])
        return done[name]

    return outputs


def test_every_run_is_pinned():
    assert set(PINNED) == set(regenerate.TUNE_RUNS)
    assert set(PINNED_PDF) == set(regenerate.PDF_RUNS)


def test_listed_argv_survives_shell_word_splitting():
    # CI expands each listed argv unquoted, so a word with whitespace, a
    # glob or another shell metacharacter would run another command
    for name, argv in regenerate.RUNS.items():
        assert re.fullmatch(r"[A-Za-z0-9_]+", name), name
        for word in argv:
            assert re.fullmatch(r"[A-Za-z0-9_.:-]+", word), (name, word)


@pytest.mark.parametrize("name", sorted(regenerate.TUNE_RUNS))
def test_tune_record_matches_the_pinned_one(name, tmp_path):
    regenerate.run(regenerate.RUNS[name], str(tmp_path))
    assert_record_matches(regenerate.result_record(str(tmp_path)), PINNED[name])


@pytest.mark.parametrize("name", sorted(regenerate.PDF_RUNS))
def test_pdf_record_matches_the_pinned_one(name, written):
    pinned = PINNED_PDF[name]
    at = [f for f, _ in pinned["cdf_at"]]
    record = regenerate.pdf_record(written(name), at)
    assert_record_matches(record["result"], pinned["result"])
    assert record["curve_rows"] == pinned["curve_rows"]
    np.testing.assert_allclose(record["cdf_at"], pinned["cdf_at"], rtol=0.0, atol=1e-9)
    moved = np.abs(np.subtract(record["counts"], pinned["counts"])).sum()
    assert len(record["counts"]) == len(pinned["counts"]) and moved <= 2


@pytest.mark.parametrize("name", sorted(regenerate.PDF_RUNS))
def test_pdf_files_hash_as_pinned(name, written):
    assert regenerate.file_hashes(written(name)) == PINNED_PDF[name]["sha256"]


def test_certify_report_matches_the_pinned_one(written):
    record = regenerate.certify_record(written("certify"))
    assert record["checks"] == PINNED_CERTIFY["checks"]


def test_certify_report_hashes_as_pinned(written):
    assert regenerate.file_hashes(written("certify")) == PINNED_CERTIFY["sha256"]


# README's "Command line" runs by output directory; its reference block's
# out/<x> is the listed run readme_<x>
COMMAND_LINE_RUNS = {"out/tune": "weak_22_one_qubit_vacuum", "out/cert": "certify"}


def readme_runs(heading: str, language: str) -> list:
    """(output directory, argv) of each ``spintransfer`` command in the
    README code block under ``heading``, in order: continuation lines
    joined, comments dropped, and ``spintransfer`` and ``--out DIR`` taken
    off the argv."""
    runs = []
    for line in readme_block(heading, language).replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        assert words[0] == "spintransfer", line
        at = words.index("--out")
        runs.append((words[at + 1], words[1:at] + words[at + 2:]))
    return runs


def test_readme_runs_are_the_listed_ones():
    # every README reference command, and the Command line tune and
    # certify examples, is the listed run of its name, argv for argv and
    # in order, so neither README nor the list can change without the other
    command_line = [(out, argv) for out, argv in readme_runs("## Command line", "")
                    if argv[0] in ("tune", "certify")]
    readme = [(COMMAND_LINE_RUNS.get(out, "readme_" + out.removeprefix("out/")), argv)
              for out, argv in command_line + readme_runs(
                  "### Reproducing the reference settings", "bash")]
    names = [*COMMAND_LINE_RUNS.values(),
             *(name for name in regenerate.RUNS if name.startswith("readme_"))]
    assert readme == [(name, regenerate.RUNS[name]) for name in names]
