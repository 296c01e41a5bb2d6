"""Traced run: spans around the program's public calls, wrapped from outside.

``Tracer.install`` replaces public functions and methods of each layer
with wrappers that record a span -- name, start, end, parent span and
verdict id -- and restores them on ``uninstall``.  Nothing under ``src/``
changes.  Event counts come from the simulator's public ``trace``
constructor argument, which the tracer supplies to every simulator it
sees built.  Every number derives from spans, return values, public
attributes and the trace hook; no private member is read.

Spans stay in memory until the run ends; ``write`` then dumps them.
A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import weakref
from collections import Counter

from inferscan import (analytics, backlog, classify, idlescan, scenario, simnet,
                       store, tracer, transport)
import workloads

# (owner, attribute, span name).  Owners are modules or classes; the
# program reaches every one of these through the owner at call time.
# ``cli.main`` is left out on purpose: it encloses every layer, so its span
# would cover the whole CLI workloads and ``trace.uncovered_share`` could
# not show what the layer spans miss.
_ANALYTICS = [name for name, obj in vars(analytics).items()
              if callable(obj) and not isinstance(obj, type)
              and not name.startswith("_")
              and getattr(obj, "__module__", "") == analytics.__name__]
WRAPPED = (
    [(simnet.Simulator, name, f"simnet.{name}")
     for name in ("step", "add_client", "add_server", "add_path", "attach")]
    + [(transport.Transport, name, f"transport.{name}")
       for name in ("craft_segment", "send", "capture")]
    + [(idlescan, name, f"idlescan.{name}")
       for name in ("qualify_client", "client_liveliness", "server_liveliness",
                    "run_idle_scan", "run_scan_round", "run_idle_campaign")]
    + [(classify, name, f"classify.{name}")
       for name in ("classify_series", "intervention_amplitude", "fit_arma",
                    "classify_case")]
    + [(backlog, name, f"backlog.{name}")
       for name in ("baseline_probe", "syn_scan", "rst_scan")]
    + [(tracer, name, f"tracer.{name}")
       for name in ("run_traceroute", "paired_run", "label_run",
                    "run_trace_campaign")]
    + [(store.RecordStore, "append", "store.append"),
       (store.RecordStore, "close", "store.close"),
       (store, "load", "store.load")]
    + [(store, name, f"store.{name}")
       for name in ("build_idle_record", "build_backlog_record",
                    "build_trace_record")]
    + [(analytics, name, f"analytics.{name}") for name in _ANALYTICS]
    + [(scenario, "load", "scenario.load"),
       (scenario.Scenario, "build", "scenario.build")]
)

SELF_GROUPS = {
    "transport.capture_self_s": ("transport.capture",),
    "transport.send_self_s": ("transport.send",),
    "idlescan.liveliness_self_s": ("idlescan.client_liveliness",
                                   "idlescan.server_liveliness"),
    "idlescan.scan_self_s": ("idlescan.run_idle_scan",),
    "backlog.self_s": ("backlog.baseline_probe", "backlog.syn_scan",
                       "backlog.rst_scan"),
    "tracer.traceroute_self_s": ("tracer.run_traceroute",),
}


class _SimCounts:
    """Trace-hook counts of one simulator, and its transports' captures."""

    def __init__(self, tracer_):
        self.tracer = tracer_
        self.delivered = Counter()  # destination address -> deliveries
        self.returned = Counter()  # transport address -> segments captured
        self.addrs: list = []  # addresses of the attached transports

    def hook(self, record: dict) -> None:
        ev = record["ev"]
        self.tracer.events[ev] += 1
        if ev == "deliver":
            self.delivered[record["dst"]] += 1

    def captured(self, addr: str, n: int) -> int:
        """Record a capture; returns the largest unclaimed count now."""
        self.returned[addr] += n
        return max(self.delivered[a] - self.returned[a] for a in self.addrs)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, verdict]
        self._stack: list = []
        self._verdict = 0
        self._next_verdict = 1
        self.events = Counter()
        self.captured = 0
        self.unclaimed_peak = 0
        self.sims_built = 0
        self._sims = weakref.WeakKeyDictionary()  # simulator -> _SimCounts
        self._transports = weakref.WeakKeyDictionary()  # -> _SimCounts
        self._appends = weakref.WeakKeyDictionary()  # RecordStore -> appends
        self.store_bytes = 0
        self.store_records = 0
        self.loaded_records = 0
        self._undo: list = []  # functions restoring the wrapped attributes

    # -- verdict boundaries (called by the workload's Recorder) -------------

    def begin_verdict(self) -> None:
        self._verdict = self._next_verdict
        self._next_verdict += 1

    def end_verdict(self) -> None:
        self._verdict = 0

    # -- wrapping -------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1,
                          self._verdict])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def install(self) -> None:
        after = {
            "simnet.attach": self._after_attach,
            "transport.capture": self._after_capture,
            "store.append": self._after_append,
            "store.close": self._after_close,
            "store.load": self._after_load,
        }
        for owner, attr, name in WRAPPED:
            self._undo.append(workloads.patch(
                owner, attr,
                lambda fn, name=name: self._span(name, fn, after.get(name))))
        self._undo.append(workloads.patch(simnet.Simulator, "__init__",
                                          self._wrap_init))
        # The benchmark's own reference chunks get a span too, so that the
        # campaign span they run inside does not count them as its self time.
        self._undo.append(workloads.patch(
            workloads, "reference_chunk",
            lambda fn: self._span("bench.reference_chunk", fn)))

    def _wrap_init(self, original):
        """Give every simulator built without a trace sink a counting one."""
        @functools.wraps(original)
        def __init__(sim, *args, **kwargs):
            if kwargs.get("trace") is None and len(args) < 4:
                counts = _SimCounts(self)
                kwargs["trace"] = counts.hook
                original(sim, *args, **kwargs)
                self._sims[sim] = counts
                self.sims_built += 1
            else:
                original(sim, *args, **kwargs)
        return __init__

    def _after_attach(self, args, result) -> None:
        counts = self._sims.get(args[0])
        if counts is not None:
            counts.addrs.append(result.local_addr)
            self._transports[result] = counts

    def _after_capture(self, args, result) -> None:
        self.captured += len(result)
        counts = self._transports.get(args[0])
        if counts is not None:
            self.unclaimed_peak = max(self.unclaimed_peak, counts.captured(
                args[0].local_addr, len(result)))

    def _after_append(self, args, result) -> None:
        self._appends[args[0]] = self._appends.get(args[0], 0) + 1

    def _after_close(self, args, result) -> None:
        """Bytes per record: the closed file's size over its appends."""
        appended = self._appends.pop(args[0], 0)
        if appended:
            self.store_records += appended
            self.store_bytes += os.path.getsize(args[0].path)

    def _after_load(self, args, result) -> None:
        self.loaded_records += len(result)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- derived metrics -------------------------------------------------------

    def self_times(self) -> tuple:
        """Total self seconds and inclusive seconds per span name, and calls."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns, incl_ns, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            incl_ns[name] += end - start
            calls[name] += 1
        return ({k: v / 1e9 for k, v in self_ns.items()},
                {k: v / 1e9 for k, v in incl_ns.items()}, calls)

    def durations_ms(self, name: str) -> list:
        return [(end - start) / 1e6 for n, start, end, _, _ in self.spans
                if n == name]

    def metrics(self, verdicts: int, wall_s: float) -> dict:
        self_s, incl_s, calls = self.self_times()
        per = 1.0 / verdicts

        def p50(name):
            values = self.durations_ms(name)
            return statistics.median(values) if values else 0.0

        step_s = incl_s.get("simnet.step", 0.0)
        events = sum(self.events.values())
        scenario_calls = calls.get("scenario.load", 0)
        append_s = incl_s.get("store.append", 0.0)
        load_s = incl_s.get("store.load", 0.0)
        out = {
            "simnet.step_s": (step_s * per, "s/verdict"),
            "simnet.events": (events * per, "1/verdict"),
            "simnet.events_per_s": (events / step_s if step_s else 0.0, "1/s"),
            "simnet.noise_events_per_verdict": (self.events["noise"] * per,
                                                "1/verdict"),
            "transport.unclaimed_peak": (self.unclaimed_peak, "count"),
            "transport.capture_calls": (calls.get("transport.capture", 0) * per,
                                        "1/verdict"),
            "transport.segments_captured": (self.captured * per,
                                            "1/verdict"),
            "transport.segments_sent_per_verdict": (
                calls.get("transport.send", 0) * per, "1/verdict"),
            "classify.fit_arma_ms_p50": (p50("classify.fit_arma"), "ms"),
            "classify.fit_calls": (calls.get("classify.fit_arma", 0) * per,
                                   "1/verdict"),
            "tracer.label_ms_p50": (p50("tracer.label_run"), "ms"),
            "store.append_per_s": (self.store_records / append_s
                                   if append_s else 0.0, "1/s"),
            "store.load_per_s": (self.loaded_records / load_s
                                 if load_s else 0.0, "1/s"),
            "store.bytes_per_record": (self.store_bytes / self.store_records
                                       if self.store_records else 0.0, "B"),
            "analytics.s": (sum(v for k, v in self_s.items()
                                if k.startswith("analytics.")) * per,
                            "s/verdict"),
            "setup.scenario_s": ((incl_s.get("scenario.load", 0.0)
                                  + incl_s.get("scenario.build", 0.0))
                                 / scenario_calls if scenario_calls else 0.0,
                                 "s"),
            "setup.topology_s": (sum(incl_s.get(f"simnet.{n}", 0.0)
                                     for n in ("add_client", "add_server",
                                               "add_path"))
                                 / max(self.sims_built, 1), "s"),
            "trace.uncovered_share": (
                100.0 * max(wall_s - sum(self_s.values()), 0.0) / wall_s, "%"),
        }
        for metric, names in SELF_GROUPS.items():
            out[metric] = (sum(self_s.get(n, 0.0) for n in names) * per,
                           "s/verdict")
        return out

    def write(self, path) -> None:
        """Dump every span as CSV: id, parent, verdict, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,verdict,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, verdict) in enumerate(self.spans):
                fh.write(f"{i},{parent},{verdict},{name},{start},{end}\n")

