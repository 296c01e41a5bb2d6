"""The benchmark's traced run wraps and patches program attributes by name.

``perfbench/tracing.py`` wraps every ``(owner, attr)`` in its ``WRAPPED``
list, and ``perfbench/workloads.py`` patches the idle-scan round and the
paired traceroute.  Renaming or moving one of them leaves the rest of the
suite green but breaks ``perfbench/run.py --trace 1``.  These tests only
read the benchmark's modules; they install no wrapper.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from inferscan import idlescan, tracer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_every_wrapped_attribute_belongs_to_its_owner(tracing):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.WRAPPED
               if attr not in vars(owner)]
    assert missing == []


def test_patched_workload_functions_resolve():
    for owner, attr in ((idlescan, "run_scan_round"), (tracer, "paired_run"),
                        (tracer, "label_run")):
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"
