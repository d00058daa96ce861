"""The pinned ``tune`` records of ``tests/reference/tune_records.json``.

Each run of ``tests/reference/regenerate.py`` is rerun in process and every
number of its ``result.json`` compared with the pinned one: the read-out
times and the auxiliary field to relative 1e-8 (an exact 0 stays 0), the
fidelities to absolute 1e-9, everything else exactly.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REFERENCE = Path(__file__).parent / "reference"
_spec = importlib.util.spec_from_file_location("regenerate", REFERENCE / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

PINNED = json.loads((REFERENCE / "tune_records.json").read_text(encoding="utf-8"))
TIMES = ("t_opt", "t_readout", "b_aux")
FIDELITIES = ("avg_fidelity", "avg_fidelity_no_aux", "f_min", "f_max")


def test_every_run_is_pinned():
    assert set(PINNED) == set(regenerate.RUNS)


@pytest.mark.parametrize("name", sorted(regenerate.RUNS))
def test_tune_record_matches_the_pinned_one(name, tmp_path):
    record = regenerate.tune_record(regenerate.RUNS[name], str(tmp_path))
    pinned = PINNED[name]
    assert set(record) == set(pinned)
    for key in TIMES:
        assert record[key] == pytest.approx(pinned[key], rel=1e-8, abs=0.0), key
    for key in FIDELITIES:
        assert record[key] == pytest.approx(pinned[key], rel=0.0, abs=1e-9), key
    rest = set(pinned) - set(TIMES) - set(FIDELITIES)
    assert {k: record[k] for k in rest} == {k: pinned[k] for k in rest}
