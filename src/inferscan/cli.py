"""Single entry point: qualification, the three scan types, simulation
campaigns, pruning, and analytics, wired together by subcommand.

Everything defaults to the simulator backend; live probing is gated
behind an explicit authorization flag.  Two invocations with identical
flags, seed, and inputs produce identical output files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional

from . import analytics, backlog, idlescan, store, tracer
from . import scenario as scenario_mod
from .endpoints import EndpointSpec, filter_stable, load_endpoints
from .scenario import ADDR, PORT, integer, number, read_value
from .tracer import PrefixTable, TraceConfig
from .transport import NS_PER_SEC, TransportError, derive_seed

EXIT_OK = 0
EXIT_ERROR = 1

DEFAULT_MONITOR_ADDR = "100.64.0.1"
DEFAULT_VPS_ADDR = "100.64.0.2"

GOOD_CITIZENSHIP = """\
Live probing checklist (all measurements must stay minimally invasive):
  * run an informational web page on the measurement address describing
    the experiment, with contact details and an opt-out channel;
  * never fill a target's half-open connection queue completely, and
    clear injected state (RST the handshakes you started) after a scan;
  * rate-limit every flow and stop immediately on operator complaint;
  * only probe networks you are authorized to measure.
"""


class CliError(Exception):
    pass


def _resolve_seed(args, scn: Optional[scenario_mod.Scenario] = None) -> int:
    """``--seed``, else the scenario's ``[sim] seed``, else 0."""
    if args.seed is not None:
        return args.seed
    return scn.seed if scn is not None else 0


def _sim_from_args(args, clients=(), servers=()):
    """Load the scenario and build its simulator, adding the CSV
    ``clients`` and ``servers`` the scenario file does not declare."""
    if not args.scenario:
        raise CliError("the simulator requires --scenario")
    scn = scenario_mod.load(args.scenario)
    seed = _resolve_seed(args, scn)
    sim = scn.build(seed=seed, clients=clients, servers=servers)
    return scn, sim, seed


def _monitor_addr(scn: scenario_mod.Scenario, index: int = 0) -> str:
    monitors = [h for h in scn.hosts if h.kind == "monitor"]
    if index < len(monitors):
        return monitors[index].addr
    return DEFAULT_MONITOR_ADDR if index == 0 else DEFAULT_VPS_ADDR


def _transport(args, parser, label, clients=(), servers=()):
    """The subcommand's one transport and its root seed.  A simulated
    transport sits on the scenario's first monitor and draws its ISNs from
    the seed derived for ``label``."""
    if args.transport == "sim":
        scn, sim, seed = _sim_from_args(args, clients=clients, servers=servers)
        return sim.attach(_monitor_addr(scn),
                          isn_seed=derive_seed(seed, label)), seed
    if args.scenario:
        raise CliError("live transport forbids --scenario")
    if not args.i_have_authorization:
        parser.error("live transport requires --i-have-authorization")
    print(GOOD_CITIZENSHIP, file=sys.stderr)
    from .livenet import LiveTransport
    if not args.local_addr:
        parser.error("live transport requires --local-addr")
    seed = _resolve_seed(args)
    return LiveTransport(local_addr=args.local_addr, authorized=True,
                         egress_unfiltered=args.egress_unfiltered,
                         isn_seed=seed), seed


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_qualify(args, parser) -> int:
    clients = load_endpoints(args.clients)
    transport, _seed = _transport(args, parser, "mm", clients=clients)
    with open(args.out, "w", encoding="utf-8") as out:
        for ep in clients:
            result = idlescan.qualify_client(transport, ep.addr)
            out.write(json.dumps({
                "addr": ep.addr, "verdict": result.verdict,
                "reason": result.reason, "responses": result.responses,
                "probes": result.probes,
            }, sort_keys=True) + "\n")
            print(f"{ep.addr}: {result.verdict}"
                  + (f" ({result.reason})" if result.reason else ""))
    return EXIT_OK


def cmd_idle_scan(args, parser) -> int:
    if args.transport == "live" and not args.egress_unfiltered:
        raise CliError("idle-scan spoofs SYNs from the client: the live "
                       "transport requires --egress-unfiltered")
    idlescan.check_slots(args.rounds)
    clients = load_endpoints(args.clients)
    servers = filter_stable(load_endpoints(args.servers))
    if not servers:
        raise CliError("no servers left after the stability filter")
    transport, seed = _transport(args, parser, "mm", clients=clients,
                                 servers=servers)
    with store.RecordStore(args.out, redact_client_bits=args.redact_client_bits
                           ) as record_store:
        def on_result(assignment, result):
            record_store.append(store.build_idle_record(result,
                                                        assignment.slot))

        summary = idlescan.run_idle_campaign(
            transport, clients, servers, seed=seed, slots=args.rounds,
            on_result=on_result)
    print(f"completed {summary.completed} rounds, voided {summary.voided}; "
          f"records in {args.out}")
    return EXIT_OK


def _relay(text: str) -> EndpointSpec:
    """The ``--relay ADDR:PORT`` endpoint, its parts read as the scenario
    keys ``addr`` and ``port``, else a one-line error that names the flag."""
    addr, colon, port = text.partition(":")
    try:
        if not colon:
            raise ValueError("not ADDR:PORT")
        return EndpointSpec(addr=read_value("addr", ADDR, addr),
                            port=read_value("port", PORT, port),
                            role="tor-relay", uptime_days=10.0)
    except ValueError as exc:
        raise CliError(f"--relay {text}: {exc}") from None


def cmd_backlog_scan(args, parser) -> int:
    relay = _relay(args.relay)
    scn, sim, seed = _sim_from_args(args)
    mm = sim.attach(_monitor_addr(scn, 0), isn_seed=derive_seed(seed, "mm"))
    vps = sim.attach(_monitor_addr(scn, 1), isn_seed=derive_seed(seed, "vps"))
    if args.kind == "syn":
        rec = backlog.syn_scan(mm, vps, relay)
    else:
        rec = backlog.rst_scan(mm, vps, relay,
                               shared_isn_seed=derive_seed(seed, "shared-isn"))
    with store.RecordStore(args.out) as rs:
        rs.append(store.build_backlog_record(rec))
    print(f"{args.kind} scan of {args.relay}: {rec.verdict}"
          + (f" ({rec.invalid_reason})" if rec.invalid_reason else "")
          + f"; record in {args.out}")
    return EXIT_OK


def cmd_trace(args, parser) -> int:
    dests = [ep.addr for ep in load_endpoints(args.dests)]
    table = (PrefixTable.from_csv(args.prefix_table) if args.prefix_table
             else PrefixTable())
    try:
        tor_port, rand_port = (read_value("port", PORT, port)
                               for port in args.ports.split(","))
        trace_cfg = TraceConfig(tor_port=tor_port, rand_port=rand_port)
    except ValueError as exc:
        raise CliError(f"--ports {args.ports}: {exc}") from exc
    tracer.check_schedule(args.hours, args.days)
    transport, _seed = _transport(args, parser, "tracer")
    with store.RecordStore(args.out) as record_store:
        def on_pair(day, hour, tor_run, rand_run):
            record_store.append(store.build_trace_record(
                tor_run, rand_run, slot=day * 24 + hour))

        pairs = tracer.run_trace_campaign(transport, dests, table, trace_cfg,
                                          hours=args.hours, days=args.days,
                                          on_pair=on_pair)
    print(f"{pairs} paired runs written to {args.out}")
    return EXIT_OK


def cmd_simulate(args, parser) -> int:
    if (args.duration_s is not None
            and not 1 <= args.duration_s * NS_PER_SEC < math.inf):
        raise CliError("duration_s must be finite and at least 1 ns, got "
                       f"{args.duration_s!r}")
    scn = scenario_mod.load(args.scenario)
    seed = _resolve_seed(args, scn)
    duration_ns = (scn.duration_ns if args.duration_s is None
                   else int(args.duration_s * NS_PER_SEC))
    if duration_ns <= 0:
        raise CliError("scenario has no duration; pass --duration-s")
    with open(args.out, "w", encoding="utf-8") as fh:
        def write_event(record):
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":"))
                     + "\n")
        sim = scn.build(seed=seed, trace=write_event)
        sim.step(duration_ns)
    print(f"simulated {duration_ns / NS_PER_SEC:.3f}s of virtual time "
          f"-> {args.out}")
    return EXIT_OK


def cmd_prune(args, parser) -> int:
    records = store.load(args.input)
    outcome = store.prune_campaign(records, read=store.read)
    store.export(outcome.admitted, args.out)
    if args.discard_log:
        with open(args.discard_log, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(outcome.rejected):
                failed = sorted(k for k, ok in rec.checks.items() if not ok)
                entry = {"kind": rec.kind, "failed": failed}
                if i in outcome.unreadable:
                    entry["payload"] = outcome.unreadable[i]
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    ratio = outcome.retention_ratio
    print(f"retained {len(outcome.admitted)}/{len(records)}"
          + (f" ({100.0 * ratio:.1f}%)" if ratio is not None else ""))
    return EXIT_OK


def cmd_analyze(args, parser) -> int:
    cfg = analytics.load_analytics_config(args.config)
    table = (PrefixTable.from_csv(args.prefix_table) if args.prefix_table
             else PrefixTable())
    records = store.load(args.input)
    what = args.what
    if what in ("temporal", "spatial"):
        series = analytics.filter_sources(
            analytics.source_series(
                store.read_admitted(records, store.KIND_IDLE)),
            table, cfg.exclude_labels)
    elif what in ("hops", "diurnal"):
        pairs = [pair for _slot, pair in
                 store.read_admitted(records, store.KIND_TRACEROUTE)]
    if what == "temporal":
        probs = analytics.temporal_association(series, cfg.max_lag,
                                               mode=cfg.temporal_mode)
        _write_csv(args.out, [["lag_hours", "probability"]]
                   + [[lag + 1, p] for lag, p in enumerate(probs)])
    elif what == "spatial":
        rows = [["k", "pearson_r"]]
        k_max = min(cfg.k_neighbors, max(len(series) - 1, 0))
        for k in range(1, k_max + 1):
            r = analytics.spatial_association(series, k)
            rows.append([k, "undefined" if r is None else r])
        _write_csv(args.out, rows)
    elif what == "tables":
        _analyze_tables(args, cfg, table, records)
    elif what == "hops":
        hist = analytics.hop_histogram(pairs, table)
        _write_csv(args.out, [["hops_into_region", "count"]]
                   + [[d, hist[d]] for d in sorted(hist)])
    elif what == "diurnal":
        series = analytics.diurnal_series(pairs, count=args.count)
        _write_csv(args.out, [["hour", "count"]]
                   + [[h, c] for h, c in enumerate(series)])
    print(f"analysis written to {args.out}")
    return EXIT_OK


def _analyze_tables(args, cfg, table, records) -> None:
    outputs = []
    case_rows = analytics.case_rows(
        store.read_admitted(records, store.KIND_IDLE), table)
    if case_rows:
        outputs.append(("case", analytics.case_table_csv(
            analytics.case_table(case_rows))))
    backlog_recs = [rec for _slot, rec in
                    store.read_admitted(records, store.KIND_BACKLOG)]
    if backlog_recs:
        counts, warnings = analytics.contingency_table(
            backlog_recs, epoch_s=cfg.pair_epoch_s)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        outputs.append(("contingency", analytics.contingency_table_csv(counts)))
    pairs = [pair for _slot, pair in
             store.read_admitted(records, store.KIND_TRACEROUTE)]
    if pairs:
        outputs.append(("traceroute", analytics.traceroute_table_csv(
            analytics.traceroute_table(pairs))))
    if not outputs:
        _write_csv(args.out, [["empty"]])
        return
    if len(outputs) == 1:
        _write_csv(args.out, outputs[0][1])
        return
    stem, ext = os.path.splitext(args.out)
    for name, rows in outputs:
        path = f"{stem}_{name}{ext or '.csv'}"
        _write_csv(path, rows)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_sim(sp):
    sp.add_argument("--scenario", default=None,
                    help="scenario file (required on the simulator)")
    sp.add_argument("--seed", type=integer, default=None,
                    help="root seed (falls back to the scenario file's "
                         "[sim] seed, then 0)")


def _add_common(sp):
    sp.add_argument("--transport", choices=["sim", "live"], default="sim",
                    help="backend to run against")
    _add_sim(sp)
    sp.add_argument("--local-addr", default=None,
                    help="local address for the live backend")
    sp.add_argument("--i-have-authorization", action="store_true",
                    help="acknowledge authorization for live probing")
    sp.add_argument("--egress-unfiltered", action="store_true",
                    help="assert the live link does not filter spoofed sources")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inferscan",
        description="Indirect connectivity measurement toolkit",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("qualify", help="test clients for a usable global IPID",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(sp)
    sp.add_argument("--clients", required=True, help="client CSV")
    sp.add_argument("--out", required=True, help="verdict JSONL path")
    sp.set_defaults(fn=cmd_qualify)

    sp = subs.add_parser("idle-scan", help="bipartite hybrid idle-scan campaign",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(sp)
    sp.add_argument("--clients", required=True, help="client CSV")
    sp.add_argument("--servers", required=True, help="server CSV")
    sp.add_argument("--rounds", type=integer, default=1,
                    help="hour slots to run; slot k starts at campaign hour k")
    sp.add_argument("--redact-client-bits", type=integer, default=0,
                    help="zero this many low bits of stored client addresses")
    sp.add_argument("--out", required=True, help="record JSONL path")
    sp.set_defaults(fn=cmd_idle_scan)

    sp = subs.add_parser("backlog-scan", help="SYN-backlog side-channel scan",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_sim(sp)
    sp.add_argument("--kind", choices=["syn", "rst"], required=True)
    sp.add_argument("--relay", required=True, help="target as ADDR:PORT")
    sp.add_argument("--out", required=True, help="record JSONL path")
    sp.set_defaults(fn=cmd_backlog_scan)

    sp = subs.add_parser("trace", help="dual-source-port TCP traceroutes",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common(sp)
    sp.add_argument("--dests", required=True, help="destination CSV")
    sp.add_argument("--ports",
                    default=f"{tracer.TOR_PORT},{tracer.RAND_PORT}",
                    help="filtered,control source ports")
    sp.add_argument("--hours", type=integer, default=24,
                    help="hour slots per day")
    sp.add_argument("--days", type=integer, default=2, help="days to run")
    sp.add_argument("--prefix-table", default=None,
                    help="CSV cidr,label,region for entry attribution")
    sp.add_argument("--out", required=True, help="record JSONL path")
    sp.set_defaults(fn=cmd_trace)

    sp = subs.add_parser("simulate", help="run a scenario, write its event trace",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--seed", type=integer, default=None)
    sp.add_argument("--duration-s", type=number, default=None,
                    help="override the scenario duration")
    sp.add_argument("--out", required=True, help="event-trace JSONL path")
    sp.set_defaults(fn=cmd_simulate)

    sp = subs.add_parser("prune", help="apply validity culling to stored records",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sp.add_argument("--input", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--discard-log", default=None,
                    help="JSONL log of rejected records and failed checks")
    sp.set_defaults(fn=cmd_prune)

    sp = subs.add_parser("analyze", help="produce tables and series from records",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sp.add_argument("what", choices=["temporal", "spatial", "tables", "hops",
                                     "diurnal"])
    sp.add_argument("--input", required=True, help="record JSONL path")
    sp.add_argument("--config", default=None, help="analytics INI config")
    sp.add_argument("--prefix-table", default=None,
                    help="CSV cidr,label,region for entry attribution")
    sp.add_argument("--count", choices=["blocked", "unfiltered"],
                    default="blocked", help="diurnal counting mode")
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.set_defaults(fn=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except (CliError, TransportError, store.StoreError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
