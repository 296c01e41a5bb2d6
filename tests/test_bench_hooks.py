"""The benchmark's traced run wraps and patches program attributes by name.

``perfbench/tracing.py`` wraps every ``(owner, attr)`` in its ``WRAPPED``
list, and ``perfbench/workloads.py`` patches the idle-scan round and the
paired traceroute.  Renaming or moving one of them leaves the rest of the
suite green but breaks ``perfbench/run.py --trace 1``.  The same holds for
a signature that no longer takes the arguments the workloads pass, or a
config that stops building without arguments.  These tests only read the
benchmark's modules; they install no wrapper.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

from inferscan import backlog, classify, idlescan, livenet, tracer

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


def _program_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("inferscan."):
            yield sub
        yield from _program_subclasses(sub)


def test_no_subclass_hides_a_wrapped_method(tracing):
    # A subclass's own definition would run instead of the wrapped one, and
    # the traced run would lose its spans without an error.
    assert livenet.LiveTransport in set(_program_subclasses(
        livenet.Transport))
    hidden = [f"{sub.__name__}.{attr}"
              for owner, attr, _ in tracing.WRAPPED if isinstance(owner, type)
              for sub in _program_subclasses(owner) if attr in vars(sub)]
    assert hidden == []


def test_patched_workload_functions_resolve():
    for owner, attr in ((idlescan, "run_scan_round"), (tracer, "paired_run"),
                        (tracer, "label_run")):
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


# Each call the workloads make into the program, written as they write it:
# (function, positional arguments, keyword names).
_CALL_FORMS = [
    (idlescan.run_idle_scan, ("transport", "client", "server", "cfg"), ()),
    (idlescan.run_scan_round, ("transport", "client", "server", "cfg", "hour"),
     ()),
    (idlescan.run_scan_round, ("transport", "client", "server", "cfg"),
     ("hour",)),
    (classify.classify_series, ("series",), ("settle_s",)),
    (backlog.baseline_probe, ("mm", "relay", "cfg"), ()),
    (backlog.syn_scan, ("mm", "vps", "relay", "cfg"), ("baseline",)),
    (backlog.rst_scan, ("mm", "vps", "relay", "cfg"),
     ("baseline", "shared_isn_seed")),
    (tracer.paired_run, ("transport", "dest", "hour", "cfg"), ()),
    (tracer.label_run, ("run", "table", "cfg"), ()),
]


@pytest.mark.parametrize("fn,args,kwargs", _CALL_FORMS,
                         ids=[fn.__name__ for fn, _, _ in _CALL_FORMS])
def test_workload_call_forms_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **dict.fromkeys(kwargs))


def test_workload_configs():
    assert idlescan.ScanRoundConfig().settle_s == classify.DEFAULT_SETTLE_S
    assert isinstance(backlog.BacklogScanConfig(), backlog.BacklogScanConfig)
