"""Hybrid idle scan orchestration.

Qualifies clients for a usable host-wide IPID counter, runs two-phase
probe schedules against (client, server) pairs, enforces liveliness
checks around every round, and schedules bipartite campaigns with
per-address mutual exclusion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional

from . import classify
from .backlog import reset, send_syns, synack_arrivals
from .classify import PHASE_BASE, PHASE_PERTURB, diff_series
from .endpoints import EndpointSpec, passes_stability_rule
from .transport import (
    HOUR_NS,
    NS_PER_SEC,
    FlowKey,
    Transport,
    TransportError,
    derive_seed,
)

QUALIFIED = "qualified"
DISQUALIFIED = "disqualified"

REASON_RANDOM = "random-ipid"
REASON_PER_FLOW = "per-flow-ipid"
REASON_OFFLINE = "offline"
REASON_NOISY = "too-noisy"

DEFAULT_CLIENT_PROBE_PORT = 33434

# Default rates of a round; qualification always probes at PROBE_RATE.
PROBE_RATE = 1.0  # IPID probes per second
SPOOF_RATE = 2.0  # spoofed SYNs per second during the perturb phase
# The fixed parts of a round's probe schedule.
PHASE_DURATION_S = 60.0  # each of the base and perturb phases
RST_FLUSH_DURATION_S = 30.0
CHECK_DURATION_S = 5.0
LIVELINESS_RATE = 5.0  # probes per second during checks
NOISE_THRESHOLD = 2.0  # median per-interval delta allowed when quiet
PROBE_SRC_PORT = 39000
SPOOF_SRC_PORT_BASE = 42000


class RoundVoided(Exception):
    """A scan round whose basic assumptions broke; it must not be stored."""


@dataclass
class ScanRoundConfig:
    probe_rate: float = PROBE_RATE
    spoof_rate: float = SPOOF_RATE
    settle_s: ClassVar[float] = classify.DEFAULT_SETTLE_S

    def __post_init__(self):
        if self.probe_rate <= 0 or self.spoof_rate <= 0:
            raise ValueError("probe and spoof rates must be positive")


@dataclass(frozen=True)
class IpidSample:
    timestamp: int  # ns
    ipid: int
    phase: str  # PHASE_BASE | PHASE_PERTURB


@dataclass
class IpidTimeSeries:
    samples: list
    spoof_rate: float
    probe_rate: float
    client: EndpointSpec
    server: EndpointSpec

    def __post_init__(self):
        if self.spoof_rate <= 0 or self.probe_rate <= 0:
            raise ValueError("rates must be positive")
        last = -1
        seen_perturb = False
        for s in self.samples:
            if s.timestamp <= last:
                raise ValueError("sample timestamps must be strictly increasing")
            last = s.timestamp
            if s.phase == PHASE_PERTURB:
                seen_perturb = True
            elif seen_perturb:
                raise ValueError("base samples must precede perturb samples")

    def to_dict(self) -> dict:
        return {
            "samples": [[s.timestamp, s.ipid, s.phase] for s in self.samples],
            "spoof_rate": self.spoof_rate,
            "probe_rate": self.probe_rate,
            "client": self.client.to_dict(),
            "server": self.server.to_dict(),
        }


@dataclass(frozen=True)
class QualificationResult:
    verdict: str
    reason: Optional[str] = None
    responses: int = 0
    probes: int = 0

    @property
    def qualified(self) -> bool:
        return self.verdict == QUALIFIED


@dataclass(frozen=True)
class LivelinessResult:
    passed: bool
    sent: int
    responses: int
    ipids: tuple = ()


def _client_rsts(transport: Transport, addr: str, src_port: int,
                 window_ns: int) -> list:
    """Advance by the window; return the client's RSTs to ``src_port``."""
    flow = FlowKey(addr, DEFAULT_CLIENT_PROBE_PORT, transport.local_addr, src_port)
    return [seg for seg in transport.capture([flow], window_ns) if seg.has("RST")]


def _probe_client(transport: Transport, addr: str, src_port: int,
                  window_ns: int) -> list:
    """One SYN/ACK probe to a client; returns the RSTs seen in the window."""
    transport.send(transport.craft_segment(
        addr, DEFAULT_CLIENT_PROBE_PORT, ("SYN", "ACK"), src_port))
    return _client_rsts(transport, addr, src_port, window_ns)


def qualify_client(transport: Transport, addr: str,
                   window_s: float = 30.0) -> QualificationResult:
    """Decide whether a client's IPID behaves as a single global counter.

    Probes alternate between two source ports.  A per-connection counter
    shows up as two clean interleaved sequences that disagree with each
    other; a randomizing stack is dirty on every port; a busy host is a
    counter that moves too fast to carry a signal.
    """
    interval_ns = int(NS_PER_SEC / PROBE_RATE)
    n_probes = max(int(window_s * PROBE_RATE), 8)
    ports = (PROBE_SRC_PORT, PROBE_SRC_PORT + 1)
    observed = []  # (port, ipid)
    for i in range(n_probes):
        port = ports[i % 2]
        for seg in _probe_client(transport, addr, port, interval_ns):
            observed.append((port, seg.ipid))
    result_base = dict(responses=len(observed), probes=n_probes)
    if len(observed) < max(2, n_probes // 2):
        return QualificationResult(DISQUALIFIED, REASON_OFFLINE, **result_base)

    merged = diff_series([ipid for _, ipid in observed])
    merged_dirty = len(merged.artifacts) > 0.1 * (len(observed) - 1)
    if not merged_dirty:
        deltas = sorted(merged.deltas)
        median = deltas[len(deltas) // 2]
        if median <= NOISE_THRESHOLD:
            return QualificationResult(QUALIFIED, **result_base)
        return QualificationResult(DISQUALIFIED, REASON_NOISY, **result_base)

    per_port_clean = True
    for port in ports:
        seq = [ipid for p, ipid in observed if p == port]
        if len(seq) < 2:
            per_port_clean = False
            break
        d = diff_series(seq)
        if d.artifacts or (d.deltas and sorted(d.deltas)[len(d.deltas) // 2] > 4):
            per_port_clean = False
            break
    reason = REASON_PER_FLOW if per_port_clean else REASON_RANDOM
    return QualificationResult(DISQUALIFIED, reason, **result_base)


def client_liveliness(transport: Transport, addr: str) -> LivelinessResult:
    """SYN/ACK the client for the check window; pass needs RSTs back for
    more than half of the probes."""
    sport = PROBE_SRC_PORT + 2
    n = int(CHECK_DURATION_S * LIVELINESS_RATE)
    gap_ns = int(NS_PER_SEC / LIVELINESS_RATE)
    rsts = []
    for _ in range(n):
        rsts += _probe_client(transport, addr, sport, gap_ns)
    rsts += _client_rsts(transport, addr, sport, NS_PER_SEC)
    return LivelinessResult(passed=len(rsts) > n // 2, sent=n,
                            responses=len(rsts),
                            ipids=tuple(seg.ipid for seg in rsts))


def server_liveliness(transport: Transport, addr: str,
                      port: int) -> LivelinessResult:
    """SYN the server from the silent measurement address; pass needs some
    probe's entry to retransmit its SYN/ACK three or more times.  Once the
    window closes, every probe's half-open entry is reset."""
    n = int(CHECK_DURATION_S * LIVELINESS_RATE)
    syns = send_syns(transport, addr, port, PROBE_SRC_PORT + 100, n,
                     gap_ns=int(NS_PER_SEC / LIVELINESS_RATE))
    # Three retransmissions arrive within 1+2+4 s of the original SYN/ACK.
    arrivals = synack_arrivals(transport, syns, 12 * NS_PER_SEC)
    # Terminate every half-open entry the check created, as the scan's flush does.
    for syn in syns:
        reset(transport, syn)
    best = max(map(len, arrivals.values()), default=0)
    return LivelinessResult(passed=(best - 1) >= 3, sent=n,
                            responses=sum(map(len, arrivals.values())))


def run_idle_scan(transport: Transport, client: EndpointSpec,
                  server: EndpointSpec, cfg: Optional[ScanRoundConfig] = None
                  ) -> IpidTimeSeries:
    """Two-phase hybrid idle scan of one (client, server) pair.

    Base phase: sample the client's IPID via SYN/ACK probes while sending
    nothing else.  Perturb phase: keep sampling while sending SYNs to the
    server spoofed with the client's source address.  Afterwards, RSTs
    matching every spoofed handshake are spread over the flush window to
    clear the server's backlog.
    """
    cfg = cfg or ScanRoundConfig()
    interval_ns = int(NS_PER_SEC / cfg.probe_rate)
    n_base = n_perturb = int(PHASE_DURATION_S * cfg.probe_rate)
    spoof_per_interval = cfg.spoof_rate / cfg.probe_rate

    samples: list[IpidSample] = []
    spoofed: list = []
    spoof_budget = 0.0

    def sample_interval(phase: str) -> None:
        for seg in _probe_client(transport, client.addr, PROBE_SRC_PORT,
                                 interval_ns):
            samples.append(IpidSample(seg.timestamp, seg.ipid, phase))

    for _ in range(n_base):
        sample_interval(PHASE_BASE)

    for _ in range(n_perturb):
        spoof_budget += spoof_per_interval
        due = int(spoof_budget)
        spoofed += send_syns(transport, server.addr, server.port,
                             SPOOF_SRC_PORT_BASE + len(spoofed), due,
                             src_addr=client.addr)
        spoof_budget -= due
        sample_interval(PHASE_PERTURB)

    # Flush: terminate every half-open entry the spoofed SYNs created.
    if spoofed:
        flush_gap = int(RST_FLUSH_DURATION_S * NS_PER_SEC / len(spoofed))
        for syn in spoofed:
            reset(transport, syn)
            transport.clock.sleep_ns(flush_gap)

    expected = n_base + n_perturb
    if len(samples) < expected // 2:
        raise RoundVoided(
            f"client went quiet mid-scan: {len(samples)}/{expected} samples")
    return IpidTimeSeries(samples=samples, spoof_rate=cfg.spoof_rate,
                          probe_rate=cfg.probe_rate, client=client,
                          server=server)


# ---------------------------------------------------------------------------
# Round + campaign orchestration
# ---------------------------------------------------------------------------

@dataclass
class ScanRoundResult:
    client: EndpointSpec
    server: EndpointSpec
    series: IpidTimeSeries
    label: classify.CaseLabel
    checks: dict
    started_at: int
    finished_at: int
    hour: int


def _recheck_client(transport, client) -> bool:
    check = client_liveliness(transport, client.addr)
    if not check.passed:
        return False
    if len(check.ipids) >= 2:
        d = diff_series(list(check.ipids))
        if d.artifacts:
            return False
    return True


def run_scan_round(transport: Transport, client: EndpointSpec,
                   server: EndpointSpec, cfg: Optional[ScanRoundConfig] = None,
                   hour: int = 0) -> ScanRoundResult:
    """One full scan round: pre-checks, scan, flush, post-checks, label.

    Raises RoundVoided when any liveliness assumption fails; voided rounds
    must not reach the record store.
    """
    cfg = cfg or ScanRoundConfig()
    started = transport.clock.now_ns()
    if not client_liveliness(transport, client.addr).passed:
        raise RoundVoided(f"client {client.addr} failed pre-check")
    if not server_liveliness(transport, server.addr, server.port).passed:
        raise RoundVoided(f"server {server.addr}:{server.port} failed pre-check")
    try:
        series = run_idle_scan(transport, client, server, cfg)
    except TransportError as exc:
        raise RoundVoided(f"transport failure mid-scan: {exc}") from exc
    post_client = _recheck_client(transport, client)
    post_server = server_liveliness(transport, server.addr, server.port).passed
    if not (post_client and post_server):
        raise RoundVoided("post-scan liveliness check failed")
    label = classify.classify_series(series, settle_s=cfg.settle_s)
    checks = {
        "client_liveliness": True,
        "server_liveliness": True,
        "stable_flag": passes_stability_rule(server),
        "qualification": True,
    }
    return ScanRoundResult(client=client, server=server, series=series,
                           label=label, checks=checks, started_at=started,
                           finished_at=transport.clock.now_ns(), hour=hour)


@dataclass(frozen=True)
class Assignment:
    slot: int   # campaign hour, 0-based: the slot starts at slot * HOUR_NS
    hour: int   # hour of day, slot % 24
    client: EndpointSpec
    server: EndpointSpec


def schedule_bipartite(clients: list, servers: list, seed: int = 0,
                       max_slots: Optional[int] = None) -> Iterable[Assignment]:
    """Hourly assignment stream over the (client, server) pairs.

    Each hour slot carries a matching: no two assignments in the same slot
    share an address, so the whole slot may run concurrently.  With L the
    larger side, slot k uses matching rotation ``_rotation(k, L)``.  So 24 *
    L slots measure every pair once in each hour of the day, and the first
    L slots measure every pair once.  The stream runs ``max_slots`` slots,
    or L when it is None.
    Order inside a slot is shuffled per slot; the stream is a pure
    function of the seed.
    """
    if not clients or not servers:
        raise ValueError("need at least one client and one server")
    rng = random.Random(derive_seed(seed, "bipartite"))
    clients = list(clients)
    servers = list(servers)
    rng.shuffle(clients)
    rng.shuffle(servers)
    swap = len(clients) > len(servers)
    small, large = (servers, clients) if swap else (clients, servers)
    n_large = len(large)
    for slot in range(n_large if max_slots is None else max_slots):
        rotation = _rotation(slot, n_large)
        pairs = []
        for i, side_a in enumerate(small):
            side_b = large[(i + rotation) % n_large]
            pairs.append((side_b, side_a) if swap else (side_a, side_b))
        hour_rng = random.Random(derive_seed(seed, "hour-order", slot))
        hour_rng.shuffle(pairs)
        for client, server in pairs:
            yield Assignment(slot=slot, hour=slot % 24, client=client,
                             server=server)


def _rotation(slot: int, n: int) -> int:
    """Matching rotation of ``slot`` (day d, hour h) over ``n`` rotations.

    For n <= 24 it is (h + d) mod n.  For n > 24, hour h runs through its
    rotations h, h + 24, h + 48, ... below n first, so slot k < n takes
    rotation k, and then through the others in increasing order; the cycle
    repeats every n days.
    """
    day, hour = divmod(slot, 24)
    if n <= 24:
        return (hour + day) % n
    day %= n
    if 24 * day + hour < n:
        return 24 * day + hour
    first_days = -(-(n - hour) // 24)  # days on rotations congruent to h
    q, r = divmod(day - first_days, 23)
    return 24 * q + r + (r >= hour)


@dataclass
class CampaignSummary:
    completed: int = 0
    voided: int = 0


def run_idle_campaign(transport: Transport, clients: list, servers: list,
                      cfg: Optional[ScanRoundConfig] = None, seed: int = 0,
                      slots: int = 1, on_result=None) -> CampaignSummary:
    """Drive the bipartite schedule over `slots` hourly rounds; slot k
    starts at campaign hour k.

    Assignments inside a slot are address-disjoint by construction; on the
    simulator backend they run back-to-back in deterministic order.
    ``on_result`` receives (Assignment, ScanRoundResult) for every
    completed round; voided rounds are only counted.
    """
    cfg = cfg or ScanRoundConfig()
    summary = CampaignSummary()
    clock = transport.clock
    for a in schedule_bipartite(clients, servers, seed, max_slots=slots):
        clock.sleep_until(a.slot * HOUR_NS)
        try:
            result = run_scan_round(transport, a.client, a.server, cfg,
                                    hour=a.hour)
        except RoundVoided:
            summary.voided += 1
            continue
        summary.completed += 1
        if on_result is not None:
            on_result(a, result)
    return summary
