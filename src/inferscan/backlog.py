"""SYN-backlog side-channel scans.

A server's half-open connection queue prunes pending entries once it runs
more than half full, cutting their SYN/ACK retransmissions.  Counting the
retransmissions of a handful of probe SYNs therefore reveals whether a
separately sent burst of segments reached the server: the SYN scan checks
whether a vantage point's SYNs arrive, the RST scan whether its RSTs do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .endpoints import EndpointSpec
from .transport import (
    NS_PER_SEC,
    FlowKey,
    IsnGenerator,
    Transport,
)

KIND_SYN = "SynScan"
KIND_RST = "RstScan"

VERDICT_PASSES = "Passes"
VERDICT_DROPPED = "Dropped"
VERDICT_INVALID = "Invalid"

REASON_NON_DEFAULT = "non-default-stack"
REASON_NO_BACKOFF = "no-backoff"
REASON_OFFLINE = "offline"
REASON_INCONSISTENT = "inconsistent"
REASON_UNDER_FILL = "under-fill"

MAPPING_MECHANICS = "mechanics"
MAPPING_LITERAL = "literal"

# The fixed parts of the scan schedule and of the default stack it assumes.
RST_BURST_DELAY_MS = 250.0  # after the fill burst
OBSERVE_S = 40.0
BASELINE_PROBES = 3
BASELINE_OBSERVE_S = 70.0
EXPECTED_RETRANSMISSIONS = 5
BACKOFF_RATIO_BOUNDS = (1.5, 2.5)
ASSUMED_CAPACITY = 256
# Safety bound: probes + fill never exceed this many half-open entries,
# keeping occupancy below ~59% of the default capacity.
MAX_HALF_OPEN = 150
PROBE_PORT_BASE = 41000
FILL_PORT_BASE = 43000
BASELINE_PORT_BASE = 40900


@dataclass
class BacklogScanConfig:
    syn_probe_count: int = 5
    rst_probe_count: int = 10
    fill_count: int = 145
    stagger_ms: float = 500.0
    literal_verdicts: bool = False


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
        return cls(valid=rec["valid"], reason=rec.get("reason"),
                   retransmission_count=rec["retransmission_count"],
                   gaps_s=tuple(rec.get("gaps_s", ())))


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
    verdict_mapping: str = MAPPING_MECHANICS

    def __post_init__(self):
        if self.kind not in (KIND_SYN, KIND_RST):
            raise ValueError(f"bad scan kind: {self.kind}")
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
            "verdict_mapping": self.verdict_mapping,
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "BacklogScanRecord":
        return cls(
            kind=rec["kind"],
            relay=EndpointSpec.from_dict(rec["relay"]),
            probe_count=rec["probe_count"],
            fill_count=rec["fill_count"],
            observed_retransmissions=list(rec["observed_retransmissions"]),
            baseline=(BaselineProfile.from_dict(rec["baseline"])
                      if rec.get("baseline") else None),
            verdict=rec["verdict"],
            invalid_reason=rec.get("invalid_reason"),
            timestamp=rec["timestamp"],
            verdict_mapping=rec.get("verdict_mapping", MAPPING_MECHANICS),
        )


def _send_syns(transport: Transport, relay: EndpointSpec, port_base: int,
               n: int, src_addr: Optional[str] = None,
               isns: Optional[IsnGenerator] = None) -> list:
    """SYN the relay from ports ``port_base``, ``port_base + 1``, ...;
    returns the flows their SYN/ACKs come back on.  ``isns`` gives SYN i
    the sequence number ``isns.at(i)`` instead of a fresh session ISN."""
    flows = []
    for i in range(n):
        transport.send(transport.craft_segment(
            relay.addr, relay.port, ("SYN",), port_base + i, src_addr=src_addr,
            seq=None if isns is None else isns.at(i)))
        flows.append(FlowKey(relay.addr, relay.port, transport.local_addr,
                             port_base + i))
    return flows


def _synack_arrivals(transport: Transport, flows: list, window_ns: int) -> dict:
    """Advance the clock and bucket SYN/ACK arrival times by probe flow."""
    arrivals: dict[int, list] = {}
    for seg in transport.capture(flows, window_ns):
        if seg.has("SYN", "ACK"):
            arrivals.setdefault(seg.dst_port, []).append(seg.timestamp)
    return arrivals


def baseline_probe(transport: Transport, relay: EndpointSpec,
                   cfg: Optional[BacklogScanConfig] = None) -> BaselineProfile:
    """Query the relay's unstressed retransmission profile.

    Valid only for a default stack: exactly the expected retransmission
    count with exponentially backed-off gaps.  Fixed-count embedded stacks,
    non-doubling schedules, and silent relays are all invalid, each under
    its pruning-rule reason.  Its schedule is fixed, so ``cfg`` is accepted
    for the scans' call form and not read.
    """
    flows = _send_syns(transport, relay, BASELINE_PORT_BASE, BASELINE_PROBES)
    arrivals = _synack_arrivals(transport, flows,
                                int(BASELINE_OBSERVE_S * NS_PER_SEC))
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


def _probe_votes(counts: list, expected: int) -> tuple:
    """Split per-probe retransmission counts into full/reduced votes."""
    full = sum(1 for c in counts if c is not None and c >= expected - 1)
    reduced = sum(1 for c in counts if c is not None and 0 <= c < expected - 1)
    return full, reduced


def _scan(kind: str, n: int, mm: Transport, relay: EndpointSpec,
          cfg: BacklogScanConfig, baseline: Optional[BaselineProfile],
          burst, passes) -> BacklogScanRecord:
    """The steps both scans share around their fill ``burst(fill)``.

    Takes a default baseline unless one is given, refuses an invalid
    baseline or a fill that cannot push the backlog past half, sends ``n``
    probe SYNs, and counts their retransmissions.  A clear majority of full
    or reduced counts becomes ``passes(full, reduced)``.
    """
    if baseline is None:
        baseline = baseline_probe(mm, relay)
        mm.clock.sleep_ns(2 * NS_PER_SEC)
    started = mm.clock.now_ns()
    fill = (max(min(cfg.fill_count, MAX_HALF_OPEN - n), 0) if baseline.valid
            else 0)
    counts: list = [None] * n
    verdict = VERDICT_INVALID
    if not baseline.valid:
        reason = baseline.reason
    elif n + fill <= ASSUMED_CAPACITY // 2:
        reason = REASON_UNDER_FILL
    else:
        flows = _send_syns(mm, relay, PROBE_PORT_BASE, n)
        mm.clock.sleep_ns(int(cfg.stagger_ms * 1e6))
        burst(fill)
        arrivals = _synack_arrivals(mm, flows, int(OBSERVE_S * NS_PER_SEC))
        counts = [len(arrivals[f.dst_port]) - 1 if f.dst_port in arrivals
                  else None for f in flows]
        full, reduced = _probe_votes(counts, EXPECTED_RETRANSMISSIONS)
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
        invalid_reason=reason, timestamp=started,
        verdict_mapping=(MAPPING_LITERAL if cfg.literal_verdicts
                         else MAPPING_MECHANICS))


def syn_scan(mm: Transport, vps: Transport, relay: EndpointSpec,
             cfg: Optional[BacklogScanConfig] = None,
             baseline: Optional[BaselineProfile] = None) -> BacklogScanRecord:
    """Does a burst of SYNs from the vantage point reach the relay?

    The measurement machine's probe SYNs keep their full retransmission
    budget only while the backlog stays at most half full; the vantage
    point's fill burst pushes it past half exactly when its SYNs arrive.
    Reduced probe retransmissions therefore mean the SYNs passed.
    """
    cfg = cfg or BacklogScanConfig()

    def burst(fill: int) -> None:
        _send_syns(vps, relay, FILL_PORT_BASE, fill)

    return _scan(KIND_SYN, cfg.syn_probe_count, mm, relay, cfg, baseline,
                 burst, lambda full, reduced: reduced > full)


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

    The mapping from probe retransmissions to verdicts follows the backlog
    mechanics above; set ``cfg.literal_verdicts`` to swap to the
    inverted convention.
    """
    cfg = cfg or BacklogScanConfig()
    isn_seed = shared_isn_seed if shared_isn_seed is not None else mm.isn.seed

    def burst(fill: int) -> None:
        _send_syns(mm, relay, FILL_PORT_BASE, fill, src_addr=vps.local_addr,
                   isns=IsnGenerator(isn_seed))
        mm.clock.sleep_ns(int(RST_BURST_DELAY_MS * 1e6))
        # The vantage point derives each RST's sequence number independently.
        vps_isns = IsnGenerator(isn_seed)
        for i in range(fill):
            vps.send(vps.craft_segment(
                relay.addr, relay.port, ("RST",), FILL_PORT_BASE + i,
                seq=(vps_isns.at(i) + 1) & 0xFFFFFFFF))

    return _scan(KIND_RST, cfg.rst_probe_count, mm, relay, cfg, baseline,
                 burst,
                 lambda full, reduced: (full > reduced) != cfg.literal_verdicts)

