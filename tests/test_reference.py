"""The pinned records of ``tests/reference``.

Each run of ``tests/reference/regenerate.py`` is rerun in process and
compared with its pinned record.  In every ``result.json`` the read-out
times and the auxiliary field agree to relative 1e-8 (an exact 0 stays 0),
the fidelities and the KS distance to absolute 1e-9, everything else
exactly.  A ``pdf`` run's cdf digest agrees to absolute 1e-9 and its
histogram counts to an L1 distance of 2 (one sample moved across a bin
edge); certify's checks keep their names, order, outcome and detail.  The
sha256 of every written file is compared by a test of its own, so byte
drift with every number in bounds shows as that test's failure alone.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

REFERENCE = Path(__file__).parent / "reference"
_spec = importlib.util.spec_from_file_location("regenerate", REFERENCE / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

PINNED = json.loads((REFERENCE / "tune_records.json").read_text(encoding="utf-8"))
PINNED_PDF = json.loads((REFERENCE / "pdf_records.json").read_text(encoding="utf-8"))
PINNED_CERTIFY = json.loads((REFERENCE / "certify_record.json").read_text(encoding="utf-8"))
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
    runs = {**regenerate.PDF_RUNS, "certify": regenerate.CERTIFY_ARGV}
    done = {}

    def outputs(name: str) -> str:
        if name not in done:
            done[name] = str(root / name)
            regenerate.run(runs[name], done[name])
        return done[name]

    return outputs


def test_every_run_is_pinned():
    assert set(PINNED) == set(regenerate.RUNS)
    assert set(PINNED_PDF) == set(regenerate.PDF_RUNS)


@pytest.mark.parametrize("name", sorted(regenerate.RUNS))
def test_tune_record_matches_the_pinned_one(name, tmp_path):
    assert_record_matches(regenerate.tune_record(regenerate.RUNS[name], str(tmp_path)),
                          PINNED[name])


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
