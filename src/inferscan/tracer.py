"""Dual-source-port TCP traceroutes with entry-network attribution.

Each destination gets two SYN/ACK traceroutes in the same hour slot: one
from the filtered source port and one from an unfiltered control port.
Probes for all TTLs are fired without waiting on per-hop replies.  Entry
attribution (which backbone a route enters the measured region through)
comes exclusively from a longest-prefix-match table.
"""

from __future__ import annotations

import csv
import ipaddress
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .transport import (
    HOUR_NS,
    NS_PER_SEC,
    SYN_ACK,
    FlowKey,
    Transport,
    _tuple_new,
    check_json,
    check_range,
)

STATUS_FINISHED = "Finished"
STATUS_STALLED = "Stalled"

LABEL_EDU = "EDU"
LABEL_COM = "COM"
LABEL_OTHER = "Other"

TOR_PORT = 9001
RAND_PORT = 9002
DST_PORT = 80
MAX_TTL = 30  # largest probe TTL, within 1-255
RESPONSE_WINDOW_S = 3.0
REGION = "CN"  # the measured region: only its hops attribute an entry

# Backbone prefixes of the measured region's entry networks.
DEFAULT_PREFIX_ROWS = (
    ("210.250.0.0/16", LABEL_EDU, "CN"),   # education/research backbone
    ("101.4.112.0/24", LABEL_EDU, "CN"),
    ("159.226.0.0/16", LABEL_EDU, "CN"),   # science network
    ("219.158.0.0/16", LABEL_COM, "CN"),   # commercial backbones
    ("202.97.0.0/16", LABEL_COM, "CN"),
    ("211.136.1.0/24", LABEL_COM, "CN"),
    ("221.176.23.0/24", LABEL_COM, "CN"),
    ("50.43.0.0/16", LABEL_COM, "CN"),
)


@dataclass(frozen=True)
class PrefixEntry:
    network: ipaddress.IPv4Network
    label: str
    region: str


class PrefixTable:
    """Longest-prefix-match lookup; the sole source of network attribution."""

    def __init__(self, rows=DEFAULT_PREFIX_ROWS):
        self.entries = [PrefixEntry(ipaddress.ip_network(cidr), label, region)
                        for cidr, label, region in rows]
        # Longest prefix first makes the linear scan unambiguous.
        self.entries.sort(key=lambda e: e.network.prefixlen, reverse=True)

    def lookup(self, addr: str) -> Optional[PrefixEntry]:
        ip = ipaddress.ip_address(addr)
        for entry in self.entries:
            if ip in entry.network:
                return entry
        return None

    @classmethod
    def from_csv(cls, path) -> "PrefixTable":
        """Read cidr,label,region rows; a short row or a bad prefix raises
        ValueError naming the file and line."""
        rows = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].startswith("#") or row[0] == "cidr":
                    continue
                try:
                    if len(row) < 3:
                        raise ValueError("want cidr,label,region")
                    ipaddress.ip_network(row[0].strip())
                except ValueError as exc:
                    raise ValueError(f"{path}, line {reader.line_num}: "
                                     f"{exc}") from exc
                rows.append((row[0].strip(), row[1].strip(), row[2].strip()))
        return cls(rows)


class HopRecord(NamedTuple):
    ttl: int
    responder: Optional[str]  # None = timeout
    rtt_ns: Optional[int]


@dataclass
class TracerouteRun:
    dest: str
    src_port: int
    flags: tuple
    hops: list
    status: str
    hour: int
    entry_label: str = LABEL_OTHER

    def __post_init__(self):
        if self.status not in (STATUS_FINISHED, STATUS_STALLED):
            raise ValueError(f"unknown status: {self.status!r}")
        ttls = [h.ttl for h in self.hops]
        if ttls != sorted(set(ttls)):
            raise ValueError("hops must cover strictly increasing TTLs")

    @property
    def finished(self) -> bool:
        return self.status == STATUS_FINISHED

    def responding_hops(self) -> list:
        return [h for h in self.hops if h.responder is not None]

    def to_dict(self) -> dict:
        return {
            "dest": self.dest,
            "src_port": self.src_port,
            "flags": list(self.flags),
            "hops": [[h.ttl, h.responder, h.rtt_ns] for h in self.hops],
            "status": self.status,
            "hour": self.hour,
            "entry_label": self.entry_label,
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "TracerouteRun":
        """The run a record line stores.  ``dest`` must be a JSON string,
        ``src_port`` an int within 0-65535, ``hour`` an int and each hop a
        row [int ttl, string or null responder, int or null rtt_ns]; a
        field of the wrong JSON type raises ValueError naming it."""
        dest = check_json("dest", rec["dest"], (str,))
        src_port = check_json("src_port", rec["src_port"], (int,))
        check_range("src_port", src_port, 0, 0xFFFF)
        hops = []
        for row in check_json("hops", rec["hops"], (list,)):
            try:
                ttl, responder, rtt_ns = row
            except (TypeError, ValueError):
                raise ValueError(f"hop is not a row [ttl, responder, "
                                 f"rtt_ns]: {row!r}") from None
            if not (type(ttl) is int
                    and (responder is None or type(responder) is str)
                    and (rtt_ns is None or type(rtt_ns) is int)):
                check_json("hop ttl", ttl, (int,))
                check_json("hop responder", responder, (type(None), str))
                check_json("hop rtt_ns", rtt_ns, (type(None), int))
            hops.append(_tuple_new(HopRecord, (ttl, responder, rtt_ns)))
        return cls(dest=dest, src_port=src_port, flags=tuple(rec["flags"]),
                   hops=hops, status=rec["status"],
                   hour=check_json("hour", rec["hour"], (int,)),
                   entry_label=rec.get("entry_label", LABEL_OTHER))


@dataclass(frozen=True)
class TraceConfig:
    tor_port: int = TOR_PORT
    rand_port: int = RAND_PORT

    def __post_init__(self):
        check_range("tor_port", self.tor_port, 0, 0xFFFF)
        check_range("rand_port", self.rand_port, 0, 0xFFFF)
        if self.tor_port == self.rand_port:
            # The control run must leave the filtered port, or no pair
            # qualifies.
            raise ValueError(f"tor_port and rand_port are both {self.tor_port}")


def run_traceroute(transport: Transport, dest: str, src_port: int,
                   hour: int = 0) -> TracerouteRun:
    """One TCP traceroute: SYN/ACK probes at TTL 1..``MAX_TTL``, fired back
    to back.

    The probes are one train (see ``Transport.send_train``), each stamped
    with its slot.  TTL-expiry notifications and the destination's response
    both quote the probe's sequence number in their ack field, which maps
    responses to TTLs.  Finished means the destination itself responded.
    """
    probes = transport.send_train([
        (0, dest, DST_PORT, SYN_ACK, src_port, None, None, ttl)
        for ttl in range(1, MAX_TTL + 1)])
    seq_to_ttl = {probe.seq: probe.ttl for probe in probes}
    send_times = {probe.ttl: probe.timestamp for probe in probes}
    responses = transport.capture(
        [FlowKey(None, None, transport.local_addr, src_port)],
        probes[-1].timestamp + int(RESPONSE_WINDOW_S * NS_PER_SEC))

    responders: dict[int, tuple] = {}
    finished_at: Optional[int] = None
    for seg in responses:
        ttl = seq_to_ttl.get(seg.ack)
        if ttl is None or ttl in responders:
            continue
        rtt = seg.timestamp - send_times[ttl]
        responders[ttl] = (seg.src_addr, rtt)
        if seg.src_addr == dest and (finished_at is None or ttl < finished_at):
            finished_at = ttl

    last_ttl = finished_at if finished_at is not None else MAX_TTL
    hops = []
    for ttl in range(1, last_ttl + 1):
        addr, rtt = responders.get(ttl, (None, None))
        hops.append(HopRecord(ttl=ttl, responder=addr, rtt_ns=rtt))
    status = STATUS_FINISHED if finished_at is not None else STATUS_STALLED
    return TracerouteRun(dest=dest, src_port=src_port, flags=("SYN", "ACK"),
                         hops=hops, status=status, hour=hour)


def paired_run(transport: Transport, dest: str, hour: int,
               cfg: Optional[TraceConfig] = None) -> tuple:
    """Back-to-back (filtered-port, control-port) runs in one hour slot."""
    cfg = cfg or TraceConfig()
    tor = run_traceroute(transport, dest, cfg.tor_port, hour=hour)
    rand = run_traceroute(transport, dest, cfg.rand_port, hour=hour)
    return tor, rand


def _hop_entry(hop: HopRecord, table: PrefixTable) -> Optional[PrefixEntry]:
    """Region-tagged table entry for a hop, or None when out of region."""
    if hop.responder is None:
        return None
    entry = table.lookup(hop.responder)
    if entry is None or entry.region != REGION:
        return None
    return entry


def classify_entry(run: TracerouteRun, table: PrefixTable) -> str:
    """Label of the first in-region hop (the route's entry network)."""
    if not run.responding_hops():
        raise ValueError("run has no responding hops")
    for hop in run.hops:
        entry = _hop_entry(hop, table)
        if entry is not None:
            return entry.label
    return LABEL_OTHER


def hops_into_region(run: TracerouteRun, table: PrefixTable) -> int:
    """How many in-region hops a stalled run traversed before stopping."""
    if run.status != STATUS_STALLED:
        raise ValueError("hop depth is defined for stalled runs only")
    count = sum(1 for hop in run.hops if _hop_entry(hop, table) is not None)
    if count < 1:
        raise ValueError("run never entered the region")
    return count


def label_run(run: TracerouteRun, table: PrefixTable,
              cfg: Optional[TraceConfig] = None) -> TracerouteRun:
    """Attach the entry-network label (Other when attribution fails).

    Attribution uses the prefix table alone, so ``cfg`` is accepted for the
    campaign's call form and not read.
    """
    try:
        run.entry_label = classify_entry(run, table)
    except ValueError:
        run.entry_label = LABEL_OTHER
    return run


def check_schedule(hours: int, days: int) -> None:
    """Raise ValueError unless a campaign of ``hours`` (1-24) a day over
    ``days`` (at least 1) can run."""
    check_range("hours", hours, 1, 24)
    if days < 1:
        raise ValueError(f"days must be at least 1, got {days}")


def run_trace_campaign(transport: Transport, dests: list, table: PrefixTable,
                       cfg: TraceConfig, hours: int, days: int,
                       on_pair=None) -> int:
    """Hourly paired runs to every destination; returns the pair count.

    ``hours`` are the hours of each day that get a run, and ``days`` the
    days (see ``check_schedule``).
    """
    check_schedule(hours, days)
    pairs = 0
    for day in range(days):
        for hour in range(hours):
            transport.clock.sleep_until((day * 24 + hour) * HOUR_NS)
            for dest in dests:
                tor, rand = paired_run(transport, dest, hour, cfg)
                label_run(tor, table, cfg)
                label_run(rand, table, cfg)
                pairs += 1
                if on_pair is not None:
                    on_pair(day, hour, tor, rand)
    return pairs
