"""The signatures the benchmark's tracer relies on.

``bench/op.py`` wraps library functions named in its ``TRACED`` table and,
for some spans, reads their call arguments by name (``_ATTRS``).  A rename
in the library would crash a traced op with a KeyError, so the table is
checked here against the library, with ``bench/op.py`` loaded read-only.
"""

import importlib
import importlib.util
import inspect
import os
import re
import sys

import pytest

OP_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "op.py")

# span name -> the call arguments its _ATTRS entry reads
READS = {
    "analytics.curve": {"spec", "scenario", "times", "phase_corrected"},
    "sampling.mc": {"n"},
    "cli.write": {"path"},
}


@pytest.fixture(scope="module")
def op():
    spec = importlib.util.spec_from_file_location("bench_op", OP_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def traced_target(module_name: str, attr: str):
    """The function a TRACED entry wraps, resolved as ``Tracer.install``
    resolves it; None where the tracer skips the entry."""
    module = importlib.import_module(module_name)
    owner_name, _, leaf = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return None if owner is None else getattr(owner, leaf, None)


def test_traced_argument_reads_bind_to_the_library(op):
    # every span that reads call arguments and wraps something in the
    # library is one of READS, reads exactly those names, and every target
    # of its span exists and takes them
    reads = {}
    for name, attrs in op._ATTRS.items():
        names = set(re.findall(r'args\["(\w+)"\]', inspect.getsource(attrs)))
        targets = [traced_target(module, attr) for span, module, attr in op.TRACED if span == name]
        if names and any(target is not None for target in targets):
            reads[name] = names
            for target in targets:
                assert target is not None, name
                assert names <= set(inspect.signature(target).parameters), (name, target)
    assert reads == READS
