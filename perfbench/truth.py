"""Expected outcomes of each workload, derived from its own declarations.

Nothing here imports the program under test.  Each workload declares its
world as plain data (which servers sit behind a drop rule, which hop a
rule sits at and in which hours, which drop flags a relay path carries);
the functions below turn that data into the verdicts and counts the
program must produce, and compare the program's written outputs (JSONL
records and CSV reports, parsed here with the standard library) against
them.  A check returns a list of problems; an empty list means it holds.
"""

from __future__ import annotations

import csv
import ipaddress
import json
from collections import Counter
from dataclasses import dataclass

S2C = "ServerToClientDrop"
NONE = "NoPacketsDropped"
C2S = "ClientToServerDrop"
ERROR = "Error"

PASSES = "Passes"
DROPPED = "Dropped"

FINISHED = "Finished"
STALLED = "Stalled"

POLICY_VARIANT = {"s2c": S2C, "none": NONE, "c2s": C2S}


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# idle-campaign
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdleDecl:
    clients: tuple  # client addresses
    servers: tuple  # server addresses (all on port 9001)
    dropped: frozenset  # servers behind a server->client drop rule
    slots: int


def idle_expected(decl: IdleDecl, server_addr: str) -> str:
    return S2C if server_addr in decl.dropped else NONE


def check_idle_records(decl: IdleDecl, records: list, voided: int) -> list:
    """Record count and per-slot address disjointness."""
    problems = []
    per_slot = min(len(decl.clients), len(decl.servers))
    if len(records) + voided != decl.slots * per_slot:
        problems.append(f"{len(records)} records + {voided} voided rounds, "
                        f"expected {decl.slots} slots x {per_slot} pairs")
    by_slot: dict = {}
    for rec in records:
        by_slot.setdefault(rec["meta"]["slot"], []).append(rec["payload"])
    for slot, payloads in sorted(by_slot.items()):
        for side in ("client", "server"):
            addrs = [p[side]["addr"] for p in payloads]
            if len(set(addrs)) != len(addrs):
                problems.append(f"slot {slot}: a {side} address is scanned "
                                "twice in one slot")
    if set(by_slot) - set(range(decl.slots)):
        problems.append(f"records name slots {sorted(by_slot)}, "
                        f"expected 0..{decl.slots - 1}")
    return problems


def check_case_table(records: list, rows: list) -> list:
    """`analyze tables` counts equal a recount of the admitted records."""
    recount = Counter(r["payload"]["label"]["variant"]
                      for r in records if all(r["checks"].values()))
    header, body = rows[0], rows[1:]
    reported = Counter()
    for row in body:
        for variant in (S2C, NONE, C2S, ERROR):
            reported[variant] += int(row[header.index(variant)])
    problems = []
    for variant in (S2C, NONE, C2S, ERROR):
        if reported[variant] != recount[variant]:
            problems.append(f"case table counts {reported[variant]} "
                            f"{variant}, records hold {recount[variant]}")
    return problems


# ---------------------------------------------------------------------------
# oracle-grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleCell:
    policy: str  # s2c | none | c2s
    noise: float  # client background packets per second
    sim_seed: int
    max_retransmissions: int = 5


def oracle_expected(cell: OracleCell) -> str:
    return POLICY_VARIANT[cell.policy]


def oracle_expected_amplitude(cell: OracleCell):
    """Exact IPID increase per spoofed SYN; None where noise blurs it.

    No drop: the client answers each relayed SYN/ACK with one RST.  Drop
    toward the client: it sees nothing.  Drop toward the server: the
    server never sees the RST, so it sends its SYN/ACK 1 + max times and
    the client answers every one.
    """
    if cell.noise:
        return None
    return {"none": 1.0, "s2c": 0.0,
            "c2s": float(cell.max_retransmissions + 1)}[cell.policy]


def check_oracle_amplitude(cell: OracleCell, amplitude) -> list:
    expected = oracle_expected_amplitude(cell)
    if expected is None or amplitude == expected:
        return []
    return [f"{cell}: amplitude {amplitude}, expected exactly {expected}"]


# ---------------------------------------------------------------------------
# backlog-grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BacklogCell:
    drop_syn: bool  # the relay path drops the vantage point's SYNs
    drop_rst: bool  # ... and its RSTs
    loss: float  # per-traversal loss on the vantage point's link
    sim_seed: int


BASELINE_RETRANSMISSIONS = 5
BASELINE_GAPS_S = (1.0, 2.0, 4.0, 8.0, 16.0)
MAX_HALF_OPEN = 150


def backlog_expected(cell: BacklogCell, kind: str) -> str:
    dropped = cell.drop_syn if kind == "syn" else cell.drop_rst
    return DROPPED if dropped else PASSES


def check_backlog_pair(cell: BacklogCell, retransmissions: int, gaps_s: tuple,
                       peak_backlog: int, verdicts: dict) -> list:
    """Exact on lossless paths: verdicts and the default baseline profile.
    On every path the scan keeps the backlog at or under its safety bound."""
    problems = []
    if peak_backlog > MAX_HALF_OPEN:
        problems.append(f"{cell}: peak backlog {peak_backlog} > {MAX_HALF_OPEN}")
    if cell.loss:
        return problems
    if (retransmissions, tuple(gaps_s)) != (BASELINE_RETRANSMISSIONS,
                                            BASELINE_GAPS_S):
        problems.append(f"{cell}: baseline {retransmissions} retransmissions "
                        f"at gaps {list(gaps_s)}")
    for kind, verdict in verdicts.items():
        if verdict != backlog_expected(cell, kind):
            problems.append(f"{cell}: lossless {kind} scan says {verdict}")
    return problems


# ---------------------------------------------------------------------------
# trace-campaign
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceDest:
    addr: str
    hops: tuple  # hop addresses from the relay toward the destination
    filtered: bool  # COM route behind the hour-masked rule


@dataclass(frozen=True)
class TraceDecl:
    relay: str
    tor_port: int
    rand_port: int
    placement_hop: int
    hours_on: tuple  # 24 booleans: the rule drops in these hours
    dests: tuple  # TraceDest
    prefix_rows: tuple  # (cidr, label, region)
    region: str
    days: int


def _entry(decl: TraceDecl, addr: str):
    """Longest-prefix match over the declared rows; (label, region) or None."""
    ip = ipaddress.ip_address(addr)
    best = None
    for cidr, label, region in decl.prefix_rows:
        net = ipaddress.ip_network(cidr)
        if ip in net and (best is None or net.prefixlen > best[0]):
            best = (net.prefixlen, label, region)
    return None if best is None else best[1:]


def in_region(decl: TraceDecl, addr: str) -> bool:
    entry = _entry(decl, addr)
    return entry is not None and entry[1] == decl.region


def entry_label(decl: TraceDecl, dest: TraceDest) -> str:
    for hop in dest.hops:
        if in_region(decl, hop):
            return _entry(decl, hop)[0]
    return "Other"


def trace_stall_depth(decl: TraceDecl, dest: TraceDest) -> int:
    """In-region hops a stalled run still hears from: every hop up to and
    including the rule's hop answers its TTL-expired probe."""
    return sum(1 for hop in dest.hops[:decl.placement_hop]
               if in_region(decl, hop))


def trace_expected(decl: TraceDecl, dest: TraceDest, hour: int) -> tuple:
    """(filtered-port status, control-port status) for one paired run."""
    blocked = dest.filtered and decl.hours_on[hour % 24]
    return (STALLED if blocked else FINISHED), FINISHED


def expected_diurnal(decl: TraceDecl) -> list:
    n_filtered = sum(1 for d in decl.dests if d.filtered)
    return [decl.days * n_filtered * int(on) for on in decl.hours_on]


def expected_hop_histogram(decl: TraceDecl) -> dict:
    active = sum(decl.hours_on)
    hist: Counter = Counter()
    for dest in decl.dests:
        if dest.filtered:
            hist[trace_stall_depth(decl, dest)] += decl.days * active
    return dict(hist)


def check_trace_records(decl: TraceDecl, records: list, hours: int) -> list:
    """Stall depth, last answering hop and entry label of every run; EDU
    runs finish on both ports."""
    problems = []
    dests = {d.addr: d for d in decl.dests}
    if len(records) != decl.days * hours * len(decl.dests):
        problems.append(f"{len(records)} paired runs, expected "
                        f"{decl.days * hours * len(decl.dests)}")
    for rec in records:
        p = rec["payload"]
        dest = dests[p["dest"]]
        for role in ("tor", "rand"):
            run = p[role]
            if run["entry_label"] != entry_label(decl, dest):
                problems.append(f"{dest.addr} {role} h{p['hour']}: entry "
                                f"{run['entry_label']}, declared "
                                f"{entry_label(decl, dest)}")
            if not dest.filtered and run["status"] != FINISHED:
                problems.append(f"EDU {dest.addr} {role} h{p['hour']}: "
                                f"{run['status']}")
            if run["status"] != STALLED:
                continue
            answered = [ttl for ttl, responder, _ in run["hops"]
                        if responder is not None]
            depth = sum(1 for _, responder, _ in run["hops"]
                        if responder is not None and in_region(decl, responder))
            if depth != trace_stall_depth(decl, dest) or \
                    max(answered, default=0) != decl.placement_hop:
                problems.append(
                    f"{dest.addr} h{p['hour']}: stalled after hop "
                    f"{max(answered, default=0)} at depth {depth}, rule sits "
                    f"at hop {decl.placement_hop} (depth "
                    f"{trace_stall_depth(decl, dest)})")
    return problems


def check_diurnal(decl: TraceDecl, rows: list) -> list:
    got = [int(count) for _hour, count in rows[1:]]
    want = expected_diurnal(decl)
    if got == want:
        return []
    wrong = [h for h in range(24) if got[h:h + 1] != want[h:h + 1]]
    return [f"diurnal series differs from the rule's mask in hours {wrong}: "
            f"{got} vs {want}"]


def check_hop_histogram(decl: TraceDecl, rows: list) -> list:
    got = {int(depth): int(count) for depth, count in rows[1:]}
    want = expected_hop_histogram(decl)
    return [] if got == want else [f"hop histogram {got}, expected {want}"]
