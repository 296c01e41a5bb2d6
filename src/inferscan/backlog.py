"""SYN-backlog side-channel scans.

A server's half-open connection queue prunes pending entries once it runs
more than half full, cutting their SYN/ACK retransmissions.  Counting the
retransmissions of a handful of probe SYNs therefore reveals whether a
separately sent burst of segments reached the server: the SYN scan checks
whether a vantage point's SYNs arrive, the RST scan whether its RSTs do.

Admission rule: a scan with a valid baseline opens exactly
``MAX_HALF_OPEN`` half-open entries at the relay, its ``n`` probe SYNs
(``SYN_PROBES`` or ``RST_PROBES``, each within 1 to ``MAX_PROBES``) and
``MAX_HALF_OPEN - n`` fill SYNs.  That pushes a default backlog past half
full, keeps it below 59 %, and leaves every probe within reach of the
pruning, so the probes' vote can decide.

``send_syns``, ``synack_arrivals`` and ``send_resets`` open, count and
clear half-open entries for every scan that uses the backlog, the idle
scan's server check and flush included; ``send_syns`` and ``send_resets``
each queue one probe train (see ``Transport.send_train``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .endpoints import EndpointSpec
from .transport import (
    NS_PER_SEC,
    RST,
    SYN,
    FlowKey,
    IsnGenerator,
    Transport,
    check_json,
    check_json_list,
)

KIND_SYN = "SynScan"
KIND_RST = "RstScan"

VERDICT_PASSES = "Passes"
VERDICT_DROPPED = "Dropped"
VERDICT_INVALID = "Invalid"
VERDICTS = (VERDICT_PASSES, VERDICT_DROPPED, VERDICT_INVALID)

REASON_NON_DEFAULT = "non-default-stack"
REASON_NO_BACKOFF = "no-backoff"
REASON_OFFLINE = "offline"
REASON_INCONSISTENT = "inconsistent"

# The one verdict convention: the mapping that the backlog mechanics give.
# Records name it so that a reader can refuse any other.
MAPPING_MECHANICS = "mechanics"

# The fixed parts of the scan schedule and of the default stack it assumes.
STAGGER_MS = 500.0  # between the probe SYNs and the fill burst
RST_BURST_DELAY_MS = 250.0  # after the fill burst
OBSERVE_S = 40.0
BASELINE_PROBES = 3
BASELINE_OBSERVE_S = 70.0
EXPECTED_RETRANSMISSIONS = 5
BACKOFF_RATIO_BOUNDS = (1.5, 2.5)
ASSUMED_CAPACITY = 256
# Safety bound: probes + fill always come to this many half-open entries,
# keeping occupancy below ~59% of the default capacity.
MAX_HALF_OPEN = 150
# The probes are the backlog's oldest entries, so pruning cuts them first,
# and pruning stops once the backlog is back at half full.  At most this
# many entries can therefore read "reduced", and every probe of a scan with
# no more probes than this is within reach of the fill.
MAX_PROBES = MAX_HALF_OPEN - ASSUMED_CAPACITY // 2
SYN_PROBES = 5  # probe SYNs of a SYN scan
RST_PROBES = 10  # probe SYNs of an RST scan
PROBE_PORT_BASE = 41000
FILL_PORT_BASE = 43000
BASELINE_PORT_BASE = 40900


@dataclass(frozen=True)
class BacklogScanConfig:
    """A scan has no settings left: its probe counts, ``SYN_PROBES`` and
    ``RST_PROBES``, and its timings are module constants.  The class, and
    the ``cfg`` that the scans take and do not read, stay because
    ``perfbench/workloads.py`` builds ``BacklogScanConfig()`` and passes it
    to them."""


@dataclass(frozen=True)
class BaselineProfile:
    valid: bool
    reason: Optional[str]  # offline, non-default-stack or no-backoff
    retransmission_count: int
    gaps_s: tuple

    def to_dict(self) -> dict:
        return {"valid": self.valid, "reason": self.reason,
                "retransmission_count": self.retransmission_count,
                "gaps_s": list(self.gaps_s)}

    @classmethod
    def from_dict(cls, rec: dict) -> "BaselineProfile":
        """The baseline a record line stores; a field of the wrong JSON
        type raises ValueError naming it."""
        return cls(
            valid=check_json("valid", rec["valid"], (bool,)),
            reason=check_json("reason", rec.get("reason"), (type(None), str)),
            retransmission_count=check_json(
                "retransmission_count", rec["retransmission_count"], (int,)),
            gaps_s=tuple(check_json_list("gaps_s", rec.get("gaps_s", []),
                                         (int, float))))


@dataclass
class BacklogScanRecord:
    kind: str
    relay: EndpointSpec
    probe_count: int
    fill_count: int
    observed_retransmissions: list  # one entry per probe; None = unreachable
    baseline: Optional[BaselineProfile]
    verdict: str
    invalid_reason: Optional[str]
    timestamp: int

    def __post_init__(self):
        if self.kind not in (KIND_SYN, KIND_RST):
            raise ValueError(f"bad scan kind: {self.kind}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict: {self.verdict!r}")
        if len(self.observed_retransmissions) != self.probe_count:
            raise ValueError("need exactly one retransmission count per probe")
        if (self.verdict == VERDICT_INVALID) != (self.invalid_reason is not None):
            raise ValueError("invalid verdicts carry a reason, others do not")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "relay": self.relay.to_dict(),
            "probe_count": self.probe_count,
            "fill_count": self.fill_count,
            "observed_retransmissions": list(self.observed_retransmissions),
            "baseline": self.baseline.to_dict() if self.baseline else None,
            "verdict": self.verdict,
            "invalid_reason": self.invalid_reason,
            "timestamp": self.timestamp,
            "verdict_mapping": MAPPING_MECHANICS,
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "BacklogScanRecord":
        """The scan a record line stores; a field of the wrong JSON type
        raises ValueError naming it."""
        if rec.get("verdict_mapping", MAPPING_MECHANICS) != MAPPING_MECHANICS:
            raise ValueError(f"unknown verdict mapping: {rec['verdict_mapping']!r}")
        return cls(
            kind=rec["kind"],
            relay=EndpointSpec.from_dict(rec["relay"]),
            probe_count=check_json("probe_count", rec["probe_count"], (int,)),
            fill_count=check_json("fill_count", rec["fill_count"], (int,)),
            observed_retransmissions=list(check_json_list(
                "observed_retransmissions", rec["observed_retransmissions"],
                (type(None), int))),
            baseline=(BaselineProfile.from_dict(rec["baseline"])
                      if rec.get("baseline") else None),
            verdict=rec["verdict"],
            invalid_reason=check_json("invalid_reason",
                                      rec.get("invalid_reason"),
                                      (type(None), str)),
            timestamp=check_json("timestamp", rec["timestamp"], (int,)),
        )


def send_syns(transport: Transport, addr: str, port: int, port_base: int,
              n: int, gap_ns: int = 0, src_addr: Optional[str] = None,
              isns: Optional[IsnGenerator] = None, at_ns: int = 0) -> list:
    """Queue a train of SYNs to ``addr:port`` from ports ``port_base``,
    ``port_base + 1``, ...; returns the SYNs, stamped with their slots.
    Each opens one half-open entry at a listening server.  The train starts
    at ``at_ns``, or now if that has passed, and SYN i is queued
    ``i * gap_ns`` after its start.  ``src_addr`` spoofs their source;
    ``isns`` gives SYN i the sequence number ``isns.at(i)`` instead of a
    fresh session ISN."""
    start = max(transport.clock.now_ns(), at_ns)
    return transport.send_train([
        (start + i * gap_ns, addr, port, SYN, port_base + i, src_addr,
         None if isns is None else isns.at(i), 64) for i in range(n)])


def synack_arrivals(transport: Transport, syns: list, until_ns: int) -> dict:
    """Wait until ``until_ns``; return the SYN/ACK arrival times that
    answer each of ``syns``, keyed by the SYN's source port."""
    flows = [FlowKey(syn.dst_addr, syn.dst_port, syn.src_addr, syn.src_port)
             for syn in syns]
    arrivals: dict[int, list] = {}
    for seg in transport.capture(flows, until_ns):
        if seg.has("SYN", "ACK"):
            arrivals.setdefault(seg.dst_port, []).append(seg.timestamp)
    return arrivals


def send_resets(transport: Transport, syns: list, at_ns: int = 0,
                gap_ns: int = 0) -> list:
    """Clear the half-open entries ``syns`` opened; returns the RSTs.  One
    train: RST i leaves from SYN i's own (possibly spoofed) source with the
    sequence number the server expects, the SYN's ISN + 1, queued for
    ``at_ns + i * gap_ns`` (see ``Transport.send_train``)."""
    return transport.send_train([
        (at_ns + i * gap_ns, syn.dst_addr, syn.dst_port, RST, syn.src_port,
         syn.src_addr, (syn.seq + 1) & 0xFFFFFFFF, 64)
        for i, syn in enumerate(syns)])


def baseline_probe(transport: Transport, relay: EndpointSpec,
                   cfg: Optional[BacklogScanConfig] = None) -> BaselineProfile:
    """Query the relay's unstressed retransmission profile.

    Valid only for a default stack: exactly the expected retransmission
    count with exponentially backed-off gaps.  Fixed-count embedded stacks,
    non-doubling schedules, and silent relays are all invalid, each under
    its pruning-rule reason.  Its schedule is fixed, so ``cfg`` is accepted
    for the scans' call form and not read.
    """
    start = transport.clock.now_ns()
    syns = send_syns(transport, relay.addr, relay.port, BASELINE_PORT_BASE,
                     BASELINE_PROBES)
    arrivals = synack_arrivals(transport, syns,
                               start + int(BASELINE_OBSERVE_S * NS_PER_SEC))
    if not arrivals:
        return BaselineProfile(False, REASON_OFFLINE, -1, ())
    times = max(arrivals.values(), key=len)
    count = len(times) - 1
    gaps = tuple((b - a) / NS_PER_SEC for a, b in zip(times, times[1:]))
    if count != EXPECTED_RETRANSMISSIONS:
        return BaselineProfile(False, REASON_NON_DEFAULT, count, gaps)
    lo, hi = BACKOFF_RATIO_BOUNDS
    for g0, g1 in zip(gaps, gaps[1:]):
        if g0 <= 0 or not lo <= g1 / g0 <= hi:
            return BaselineProfile(False, REASON_NO_BACKOFF, count, gaps)
    return BaselineProfile(True, None, count, gaps)


def _scan(kind: str, n: int, mm: Transport, relay: EndpointSpec,
          baseline: Optional[BaselineProfile], burst,
          passes) -> BacklogScanRecord:
    """The steps both scans share around their fill ``burst(fill, at_ns)``.

    Takes a default baseline unless one is given and refuses an invalid
    one.  Then one train: ``n`` probe SYNs, the ``MAX_HALF_OPEN - n`` fill
    that ``burst`` queues from ``STAGGER_MS`` later on, returning the slot
    of its last segments, and one capture of the probes' retransmissions
    for ``OBSERVE_S`` after that slot.  A clear majority of full or
    reduced counts becomes ``passes(full, reduced)``.
    """
    if baseline is None:
        baseline = baseline_probe(mm, relay)
        mm.clock.sleep_ns(2 * NS_PER_SEC)
    started = mm.clock.now_ns()
    fill = MAX_HALF_OPEN - n if baseline.valid else 0
    counts: list = [None] * n
    verdict = VERDICT_INVALID
    if not baseline.valid:
        reason = baseline.reason
    else:
        syns = send_syns(mm, relay.addr, relay.port, PROBE_PORT_BASE, n)
        last = burst(fill, started + int(STAGGER_MS * 1e6))
        arrivals = synack_arrivals(mm, syns,
                                   last + int(OBSERVE_S * NS_PER_SEC))
        counts = [len(arrivals[syn.src_port]) - 1
                  if syn.src_port in arrivals else None for syn in syns]
        # An answered probe votes "reduced" when it lost more than one of
        # its expected retransmissions, "full" otherwise.
        answered = [c for c in counts if c is not None]
        reduced = sum(c < EXPECTED_RETRANSMISSIONS - 1 for c in answered)
        full = len(answered) - reduced
        if full == 0 and reduced == 0:
            reason = REASON_OFFLINE
        elif full == reduced:
            reason = REASON_INCONSISTENT
        else:
            reason = None
            verdict = VERDICT_PASSES if passes(full, reduced) else VERDICT_DROPPED
    return BacklogScanRecord(
        kind=kind, relay=relay, probe_count=n, fill_count=fill,
        observed_retransmissions=counts, baseline=baseline, verdict=verdict,
        invalid_reason=reason, timestamp=started)


def syn_scan(mm: Transport, vps: Transport, relay: EndpointSpec,
             cfg: Optional[BacklogScanConfig] = None,
             baseline: Optional[BaselineProfile] = None) -> BacklogScanRecord:
    """Does a burst of SYNs from the vantage point reach the relay?

    The measurement machine's probe SYNs keep their full retransmission
    budget only while the backlog stays at most half full; the vantage
    point's fill burst pushes it past half exactly when its SYNs arrive.
    Reduced probe retransmissions therefore mean the SYNs passed.
    """
    def burst(fill: int, at_ns: int) -> int:
        send_syns(vps, relay.addr, relay.port, FILL_PORT_BASE, fill, at_ns=at_ns)
        return at_ns

    return _scan(KIND_SYN, SYN_PROBES, mm, relay, baseline, burst,
                 lambda full, reduced: reduced > full)


def rst_scan(mm: Transport, vps: Transport, relay: EndpointSpec,
             cfg: Optional[BacklogScanConfig] = None,
             baseline: Optional[BaselineProfile] = None,
             shared_isn_seed: Optional[int] = None) -> BacklogScanRecord:
    """Do RSTs from the vantage point reach the relay?

    The fill burst is spoofed with the vantage point's source address from
    the measurement machine's unfiltered link, so it always arrives.  The
    vantage point then sends one RST per spoofed handshake, reconstructing
    the expected sequence numbers from the shared ISN seed.  A cleared
    backlog (at most half full again) restores the probes' full
    retransmission budget, so full retransmissions mean the RSTs passed.
    """
    isn_seed = shared_isn_seed if shared_isn_seed is not None else mm.isn.seed

    def burst(fill: int, at_ns: int) -> int:
        syns = send_syns(mm, relay.addr, relay.port, FILL_PORT_BASE, fill,
                         src_addr=vps.local_addr, isns=IsnGenerator(isn_seed),
                         at_ns=at_ns)
        at_ns += int(RST_BURST_DELAY_MS * 1e6)
        # Every SYN's ISN derives from the shared seed, so the vantage point
        # knows the sequence number each RST needs.
        send_resets(vps, syns, at_ns)
        return at_ns

    return _scan(KIND_RST, RST_PROBES, mm, relay, baseline, burst,
                 lambda full, reduced: full > reduced)

