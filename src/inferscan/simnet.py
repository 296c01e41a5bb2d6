"""Deterministic discrete-event simulator of clients, servers, and firewalled paths.

Serves as the ground-truth oracle for every inference technique in the
toolkit.  All randomness (loss, noise, initial counters) derives from the
scenario seed; virtual time is integer nanoseconds; identical seeds yield
identical event traces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from heapq import heappush, heappop
from typing import Callable, Optional

from .transport import (
    HOUR_NS,
    NS_PER_SEC,
    Clock,
    FlowKey,
    TcpSegment,
    Transport,
    _flow_fields,
    _tuple_new,
    derive_seed,
)

PASS = "pass"
DROP = "drop"

DEFAULT_DELAY_NS = 10_000_000  # one way, for a path without a delay of its own
DEFAULT_BACKLOG_CAPACITY = 256
DEFAULT_MAX_RETRANSMISSIONS = 5
DEFAULT_BACKOFF_S = (1.0, 2.0, 4.0, 8.0, 16.0)
IPID_MODES = ("global", "per-flow", "random")

# Flag sets of the segments the simulated hosts send.
_RST = frozenset(("RST",))
_RST_ACK = frozenset(("RST", "ACK"))
_SYN_ACK = frozenset(("SYN", "ACK"))

# A noisy client's noise is counted when it can be seen: on its next
# delivery, the first moment its IP-ID shows again.  A client that nothing has
# reached for this long stops counting packet by packet, and its next
# delivery counts the noise sent meanwhile in one Poisson draw.  60 s exceeds
# the longest silence inside a default scan round (about 30 s, the RST flush),
# so a client probed at least once a minute keeps its exact per-packet stream.
DORMANT_AFTER_NS = 60 * NS_PER_SEC


@dataclass(frozen=True)
class FilterRule:
    """One firewall rule; first matching rule wins, default action is pass.

    ``addr``/``port`` name the filtered service endpoint.  Direction
    ``server->client`` matches segments sourced from it, ``client->server``
    matches segments destined to it.  ``hours`` is an optional 24-slot
    on/off mask; the rule only applies in hours where the mask is true.
    """

    name: str
    direction: str  # "server->client" | "client->server"
    addr: Optional[str] = None
    port: Optional[int] = None
    action: str = DROP
    placement_hop: int = 1
    hours: Optional[tuple] = None  # 24 booleans
    flags: Optional[frozenset] = None  # exact flag-set match, None = any

    def __post_init__(self):
        if self.direction not in ("server->client", "client->server"):
            raise ValueError(f"bad direction: {self.direction}")
        if self.action not in (PASS, DROP):
            raise ValueError(f"bad action: {self.action}")
        if self.hours is not None and len(self.hours) != 24:
            raise ValueError("hours mask must have 24 entries")
        if self.flags is not None:
            object.__setattr__(self, "flags", frozenset(self.flags))

    def applies(self, seg: TcpSegment, hop: int, hour: int) -> bool:
        if hop != self.placement_hop:
            return False
        if self.hours is not None and not self.hours[hour]:
            return False
        if self.flags is not None and seg.flags != self.flags:
            return False
        if self.direction == "server->client":
            return ((self.addr is None or seg.src_addr == self.addr)
                    and (self.port is None or seg.src_port == self.port))
        return ((self.addr is None or seg.dst_addr == self.addr)
                and (self.port is None or seg.dst_port == self.port))


@dataclass
class FirewallPolicy:
    rules: list = field(default_factory=list)

    def decide(self, seg: TcpSegment, hop: int, hour: int) -> str:
        for rule in self.rules:
            if rule.applies(seg, hop, hour):
                return rule.action
        return PASS


@dataclass(frozen=True)
class Hop:
    addr: str
    region: str = ""
    delay_ns: Optional[int] = None

    def __post_init__(self):
        if self.delay_ns is not None and not self.delay_ns >= 0:
            raise ValueError(f"hop delay must be >= 0, got {self.delay_ns!r}")


@dataclass(frozen=True)
class SimPath:
    """Unidirectional route description; reverse direction mirrors the hops.

    ``hops`` are listed from endpoint ``a`` toward ``b``; a rule's
    placement_hop always refers to this listed (physical) index regardless
    of travel direction.  ``loss_rate`` is drawn once per traversal.
    Immutable, so the simulator's cached route plans cannot go stale.
    Delays are >= 0, so an arrival is never scheduled before its launch.
    """

    a: str
    b: str
    hops: tuple = ()
    one_way_delay_ns: int = DEFAULT_DELAY_NS
    loss_rate: float = 0.0
    filtered: bool = False

    def __post_init__(self):
        if not self.one_way_delay_ns >= 0:
            raise ValueError(f"path delay must be >= 0, "
                             f"got {self.one_way_delay_ns!r}")

    def leg_delays(self) -> list:
        """Per-leg delays (len(hops)+1 legs) summing to one_way_delay_ns."""
        explicit = [h.delay_ns for h in self.hops]
        n_legs = len(self.hops) + 1
        if any(d is not None for d in explicit):
            hop_total = sum(d or 0 for d in explicit)
            last = max(self.one_way_delay_ns - hop_total, 0)
            return [d or 0 for d in explicit] + [last]
        base, rem = divmod(self.one_way_delay_ns, n_legs)
        return [base] * (n_legs - 1) + [base + rem]


@dataclass(slots=True)
class BacklogEntry:
    flow: FlowKey
    client_isn: int
    server_isn: int
    retransmissions_done: int = 0


def _steps(hops: list, legs: list, rules) -> tuple:
    """A route plan's steps over ``hops``, ``(index, hop)`` pairs in travel
    order, with ``rules``, and whether any step has rules (see
    :meth:`Simulator._plan`)."""
    steps, elapsed = [], 0
    for (index, hop), leg in zip(hops, legs):
        elapsed += leg
        here = [rule for rule in rules if rule.placement_hop == index]
        steps.append((hop, index, elapsed,
                      FirewallPolicy(here) if here else None))
    return tuple(steps), any(step[3] for step in steps)


class _Host:
    def __init__(self, sim: "Simulator", addr: str):
        self.sim = sim
        self.addr = addr
        self.sent_count = 0

    def on_segment(self, now: int, seg: TcpSegment) -> None:
        """Take one arriving segment; an event, so ``now`` comes first."""
        raise NotImplementedError


def _poisson(rng: random.Random, lam: float) -> int:
    """One Poisson(``lam``) draw from ``rng``, exact in distribution and
    O(1) at any ``lam``: inversion below 10, and at and above it the PTRS
    transformed rejection of Hormann ("The transformed rejection method for
    generating Poisson random variables", Insurance: Mathematics and
    Economics 12(1), 1993), with its constants."""
    if not 0 <= lam < math.inf:  # NaN fails too
        raise ValueError(f"Poisson mean must be finite and >= 0, got {lam!r}")
    if lam < 10:
        k, pmf = 0, math.exp(-lam)
        cdf, u = pmf, rng.random()
        while u > cdf and pmf > 0:  # pmf underflows only in the far tail
            k += 1
            pmf *= lam / k
            cdf += pmf
        return k
    slam, loglam = math.sqrt(lam), math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        if us == 0:
            continue  # u = -0.5 maps to no k
        k = math.floor((2 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0 or (us < 0.013 and v > us):
            continue
        if v == 0 or (math.log(v) + log_inv_alpha - math.log(a / (us * us) + b)
                      <= -lam + k * loglam - math.lgamma(k + 1)):
            return k


class SimClient(_Host):
    """End host probed by idle scans.

    The IPID counter advances by exactly one for every packet the client
    sends, noise included.  Noise is counted when it can be observed:
    :meth:`_noise_until` counts every noise packet due by a delivery before
    the client stamps its reply, noise due in the delivery's nanosecond
    first, and noise sent while dormant (see :data:`DORMANT_AFTER_NS`) is
    counted in one step on the next delivery.  Without a trace sink noise
    takes no events; with one, an event per packet calls the same routine
    only to record each ``noise`` event at its own time, so IP-IDs never
    depend on the sink.  With rst_policy on, every unsolicited SYN/ACK
    elicits exactly one RST.
    """

    def __init__(self, sim, addr, ipid_mode="global", ipid_start=None,
                 background_rate=0.0, rst_policy=True):
        super().__init__(sim, addr)
        if ipid_mode not in IPID_MODES:
            raise ValueError(f"bad ipid_mode: {ipid_mode}")
        if not 0 <= background_rate < math.inf:  # NaN fails too
            raise ValueError(f"background_rate must be a finite rate >= 0, "
                             f"got {background_rate!r}")
        self.ipid_mode = ipid_mode
        self.background_rate = background_rate
        self.rst_policy = rst_policy
        self._rng = random.Random(derive_seed(sim.seed, "client", addr))
        self.ipid_counter = (ipid_start if ipid_start is not None
                             else self._rng.getrandbits(16))
        self._flow_counters: dict[FlowKey, int] = {}
        self._noise_flow = FlowKey("0.0.0.0", 0, addr, 0)
        self._last_delivery = sim.now
        self._next_noise = math.inf  # due time of the next uncounted noise
        self._dormant_since: Optional[int] = None
        self._catchup_rng: Optional[random.Random] = None
        if background_rate > 0:
            self._draw_gap(sim.now)

    def _draw_gap(self, now: int) -> None:
        """Draw when the next noise packet after ``now`` is due; with a trace
        sink, an event then records it at its own time."""
        gap = int(self._rng.expovariate(self.background_rate) * NS_PER_SEC)
        self._next_noise = due = now + max(gap, 1)
        if self.sim._trace is not None:
            self.sim.schedule(due, self._noise_until)

    def _noise_until(self, t: int) -> None:
        """Count every noise packet due at or before ``t``, in due order,
        drawing what the packet-by-packet stream draws.  A packet due more
        than :data:`DORMANT_AFTER_NS` after the last delivery is the last one
        counted singly: the client goes dormant there."""
        trace = self.sim._trace
        while self._next_noise <= t:
            now = self._next_noise
            # Noise goes to hosts outside the model; only the counter
            # advance and the send count are observable.
            self.sent_count += 1
            self._stamp_ipid(self._noise_flow)
            if trace is not None:
                self.sim.emit(now, "noise", host=self.addr)
            if now - self._last_delivery > DORMANT_AFTER_NS:
                self._dormant_since = now
                self._next_noise = math.inf
            else:
                self._draw_gap(now)

    def _wake(self, now: int) -> None:
        """Count the noise sent since going dormant, then resume the stream."""
        if self._catchup_rng is None:
            self._catchup_rng = random.Random(
                derive_seed(self.sim.seed, "noise-catchup", self.addr))
        span_s = (now - self._dormant_since) / NS_PER_SEC
        n = _poisson(self._catchup_rng, self.background_rate * span_s)
        self._dormant_since = None
        self.sent_count += n
        if self.ipid_mode != "random":
            self._stamp_ipid(self._noise_flow, n)
        if self.sim._trace is not None:
            self.sim.emit(now, "noise", host=self.addr, count=n)
        self._draw_gap(now)

    def _stamp_ipid(self, flow: FlowKey, n: int = 1) -> int:
        """IP-ID of the next segment this client sends in answer to ``flow``;
        the flow's counter moves past ``n`` segments."""
        if self.ipid_mode == "global":
            value = self.ipid_counter
            self.ipid_counter = (self.ipid_counter + n) & 0xFFFF
            return value
        if self.ipid_mode == "per-flow":
            if flow not in self._flow_counters:
                self._flow_counters[flow] = derive_seed(
                    self.sim.seed, "flow-ipid", self.addr, flow.src_addr or "",
                    flow.dst_port or 0, flow.src_port or 0) & 0xFFFF
            value = self._flow_counters[flow]
            self._flow_counters[flow] = (value + n) & 0xFFFF
            return value
        return self._rng.getrandbits(16)

    def on_segment(self, now: int, seg: TcpSegment) -> None:
        if self._next_noise <= now:
            self._noise_until(now)
        if self._dormant_since is not None:
            self._wake(now)
        self._last_delivery = now
        flags = seg.flags
        if "SYN" not in flags:
            return
        if "ACK" not in flags:
            # No open ports on clients: closed-port RST.
            seq, ack, flags = 0, (seg.seq + 1) & 0xFFFFFFFF, _RST_ACK
        elif self.rst_policy:
            # ack echoes the offending seq so probers can pair responses.
            seq, ack, flags = seg.ack, seg.seq, _RST
        else:
            return
        self.sent_count += 1
        ipid = self._stamp_ipid(_tuple_new(FlowKey, _flow_fields(seg)))
        self.sim._launch(now, _tuple_new(TcpSegment, (
            self.addr, seg.src_addr, seg.dst_port, seg.src_port, seq, ack,
            flags, 64, ipid, now)), self.addr)


class SimServer(_Host):
    """Listening host with a half-open connection backlog.

    ``backlog`` is the record of pending entries: an entry is pending while
    it is held there under its flow.  The backlog never exceeds its
    capacity; a matching RST or a handshake-completing ACK removes exactly
    one entry.  Each entry has one timer.  Once the wait after its last
    retransmission is over, the entry expires.  Before that, at each
    retransmission instant, the pruning rule reads the backlog's size:
    while ``2 * len(backlog) <= backlog_capacity`` the entry keeps its full
    budget of ``max_retransmissions``; while ``4 * len(backlog) <= 3 *
    backlog_capacity`` it is pruned once it has retransmitted 3 times, and
    beyond that once it has retransmitted twice (the reduced budgets are a
    model choice; what the side channel reads is that an entry past half
    full retransmits fewer times).  Otherwise it retransmits its SYN/ACK
    and waits for the next step of ``backoff_s``.  The host restarts,
    losing its half-open state, at the start of each of its
    ``down_intervals``, whether they were given to the constructor or set
    later (a start already passed restarts it at once), and it drops every
    segment while down.
    """

    def __init__(self, sim, addr, open_ports=(), backlog_capacity=DEFAULT_BACKLOG_CAPACITY,
                 max_retransmissions=DEFAULT_MAX_RETRANSMISSIONS,
                 backoff_s=DEFAULT_BACKOFF_S, down_intervals=()):
        super().__init__(sim, addr)
        self.open_ports = set(open_ports)
        self.backlog_capacity = backlog_capacity
        self.max_retransmissions = max_retransmissions
        self.backoff_ns = tuple(int(s * NS_PER_SEC) for s in backoff_s)
        # Every half-open entry waits once before its first retransmission
        # or its expiry, so even a server that never retransmits needs one.
        waits = max(1, max_retransmissions)
        if len(self.backoff_ns) < waits:
            raise ValueError(f"backoff_s needs at least {waits} waits, got "
                             f"{backoff_s!r}")
        if any(wait < 0 for wait in self.backoff_ns):
            raise ValueError(f"backoff waits must be >= 0, got {backoff_s!r}")
        self.backlog: dict[FlowKey, BacklogEntry] = {}
        # Every entry's timer, bound once rather than at each re-arm.
        self._timer = self._retransmit_check
        self.peak_backlog = 0
        self._ipid = derive_seed(sim.seed, "server-ipid", addr) & 0xFFFF
        self._isn_rng = random.Random(derive_seed(sim.seed, "server-isn", addr))
        self.down_intervals = down_intervals

    @property
    def down_intervals(self) -> tuple:
        """``(start_ns, end_ns)`` pairs.  Setting them schedules a restart at
        each start; restarts scheduled by an earlier setting stay."""
        return self._down

    @down_intervals.setter
    def down_intervals(self, intervals) -> None:
        self._down = tuple(intervals)
        for start, _end in self._down:
            self.sim.schedule(start, self._go_down)

    def _go_down(self, now: int) -> None:
        # Restart semantics: a rebooting host loses its half-open state.
        self.backlog.clear()
        if self.sim._trace is not None:
            self.sim.emit(now, "host_down", host=self.addr)

    def _is_up(self, now: int) -> bool:
        return not any(start <= now < end for start, end in self._down)

    @property
    def occupancy(self) -> float:
        return len(self.backlog) / self.backlog_capacity

    def on_segment(self, now: int, seg: TcpSegment) -> None:
        if self._down and not self._is_up(now):
            if self.sim._trace is not None:
                self.sim.emit(now, "drop_offline", host=self.addr)
            return
        flags = seg.flags
        if "RST" in flags:
            self._on_rst(seg, now)
            return
        if "SYN" not in flags:
            if "ACK" in flags:
                self._on_ack(seg, now)
            return
        if "ACK" in flags:
            seq, ack, flags = seg.ack, seg.seq, _RST
        elif seg.dst_port in self.open_ports:
            self._on_syn(seg, now)
            return
        else:
            seq, ack, flags = 0, (seg.seq + 1) & 0xFFFFFFFF, _RST_ACK
        self.sent_count += 1
        self._ipid = ipid = (self._ipid + 1) & 0xFFFF
        self.sim._launch(now, _tuple_new(TcpSegment, (
            self.addr, seg.src_addr, seg.dst_port, seg.src_port, seq, ack,
            flags, 64, ipid, now)), self.addr)

    def _on_syn(self, seg: TcpSegment, now: int) -> None:
        """A SYN to an open port: insert a backlog entry and answer it."""
        flow = _tuple_new(FlowKey, _flow_fields(seg))
        if flow in self.backlog:
            return  # duplicate SYN: entry already pending
        if len(self.backlog) >= self.backlog_capacity:
            if self.sim._trace is not None:
                self.sim.emit(now, "drop_backlog_full", host=self.addr)
            return
        entry = BacklogEntry(flow, seg.seq, self._isn_rng.getrandbits(32))
        self.backlog[flow] = entry
        size = len(self.backlog)
        if size > self.peak_backlog:
            self.peak_backlog = size
        if self.sim._trace is not None:
            self.sim.emit(now, "backlog_insert", host=self.addr, size=size)
        self._send_synack(entry, now)
        # Backoff waits are >= 0: the timer needs no clamp to now.
        sim = self.sim
        heappush(sim._heap, (now + self.backoff_ns[0], sim._order,
                             self._timer, (entry,)))
        sim._order += 1

    def _send_synack(self, entry: BacklogEntry, now: int) -> None:
        """Send ``entry``'s SYN/ACK, first or retransmitted."""
        self.sent_count += 1
        self._ipid = ipid = (self._ipid + 1) & 0xFFFF
        src, sport, _, dport = entry.flow
        self.sim._launch(now, _tuple_new(TcpSegment, (
            self.addr, src, dport, sport, entry.server_isn,
            (entry.client_isn + 1) & 0xFFFFFFFF, _SYN_ACK, 64, ipid, now)),
            self.addr)

    def _retransmit_check(self, now: int, entry: BacklogEntry) -> None:
        """The one timer of a half-open entry: expire, prune or retransmit."""
        if self.backlog.get(entry.flow) is not entry:
            return  # removed, or its host restarted
        if entry.retransmissions_done >= self.max_retransmissions:
            # The wait after the last retransmission is over, down or not.
            self._remove(entry, now, "expired")
            return
        if self._down and not self._is_up(now):
            return
        # The pruning rule.  The entry is below its full budget here, so
        # 3 and 2 cut only a larger one.
        if 2 * len(self.backlog) <= self.backlog_capacity:
            budget = self.max_retransmissions
        elif 4 * len(self.backlog) <= 3 * self.backlog_capacity:
            budget = 3
        else:
            budget = 2
        if entry.retransmissions_done >= budget:
            self._remove(entry, now, "pruned")
            return
        entry.retransmissions_done += 1
        self._send_synack(entry, now)
        if self.sim._trace is not None:
            self.sim.emit(now, "retransmit", host=self.addr,
                          n=entry.retransmissions_done)
        # Past the end of the backoff schedule, the wait after the last
        # retransmission doubles.
        sim, done = self.sim, entry.retransmissions_done
        backoff = self.backoff_ns
        wait = (backoff[done] if done < self.max_retransmissions
                or done < len(backoff) else 2 * backoff[-1])
        heappush(sim._heap, (now + wait, sim._order, self._timer, (entry,)))
        sim._order += 1

    def _remove(self, entry: BacklogEntry, now: int, reason: str) -> None:
        del self.backlog[entry.flow]
        if self.sim._trace is not None:
            self.sim.emit(now, "backlog_remove", host=self.addr, reason=reason,
                          size=len(self.backlog))

    def _on_rst(self, seg: TcpSegment, now: int) -> None:
        entry = self.backlog.get(_flow_fields(seg))
        if entry and seg.seq == (entry.client_isn + 1) & 0xFFFFFFFF:
            self._remove(entry, now, "rst")

    def _on_ack(self, seg: TcpSegment, now: int) -> None:
        entry = self.backlog.get(_flow_fields(seg))
        if (entry and seg.seq == (entry.client_isn + 1) & 0xFFFFFFFF
                and seg.ack == (entry.server_isn + 1) & 0xFFFFFFFF):
            self._remove(entry, now, "ack")


class _MonitorHost(_Host):
    """Unbound measurement address: never auto-responds.

    A segment bound for it settles when it is launched: it goes into the
    attached transport's queue, stamped with its arrival time, or is
    absorbed while no transport is attached.  A trace sink changes nothing
    here; it only gets a ``deliver`` event at the arrival time, which ends
    in this host's handler and does nothing.
    """

    def __init__(self, sim, addr):
        super().__init__(sim, addr)
        self.transport: Optional[SimTransport] = None

    def on_segment(self, now: int, seg: TcpSegment) -> None:
        pass


class SimClock(Clock):
    def __init__(self, sim: "Simulator"):
        self._sim = sim

    def now_ns(self) -> int:
        return self._sim.now

    def sleep_ns(self, duration_ns: int) -> None:
        if duration_ns > 0:
            self._sim.step(self._sim.now + duration_ns)

    def sleep_until(self, t_ns: int) -> None:
        # Steps even to the present: a capture to now still takes the
        # arrivals due now.
        if t_ns >= self._sim.now:
            self._sim.step(t_ns)


class SimTransport(Transport):
    """Transport backend attached to a monitor address inside the simulator.

    Segments launched toward the monitor enter the queue at launch (see
    :class:`_MonitorHost`); a capture claims only those due by its
    deadline.  A monitor takes one transport: attaching a second raises
    ValueError.  Every segment sent, by a train or by ``send``'s one-row
    train, is launched or queued in :meth:`_queue_train`: one due now
    enters the wire at once; a later one waits on the simulator's send
    queue, and enters the wire once every event due at or before its slot
    has run, just as if it had been sent when the clock reached the slot.
    """

    supports_spoofing = True

    def __init__(self, sim: "Simulator", local_addr: str, **kwargs):
        self._sim = sim
        self._clock = SimClock(sim)
        super().__init__(local_addr=local_addr, **kwargs)
        monitor = sim.add_monitor(local_addr)
        if monitor.transport is not None:
            raise ValueError(f"{local_addr} already has a transport attached")
        monitor.transport = self

    @property
    def clock(self) -> Clock:
        return self._clock

    def _queue_train(self, train: list) -> list:
        """``Transport._queue_train`` with the clock read once, since it
        stands still until the simulator steps.  Consecutive segments that
        share a later slot go onto the send queue as one entry."""
        sim = self._sim
        now = sim.now
        origin = self.local_addr
        sends = sim._sends
        reserve = self._limiter.reserve
        out = []
        group_slot = synced = None
        for at_ns, src, dst, sport, dport, seq, ack, flags, ttl, ipid in train:
            slot = reserve((src, sport, dst, dport), now, at_ns)
            seg = _tuple_new(TcpSegment, (src, dst, sport, dport, seq, ack,
                                          flags, ttl, ipid, slot))
            out.append(seg)
            if slot == group_slot:
                group.append(seg)
            elif slot == now:
                group_slot = None
                if not synced:
                    sim._sync_rules()
                    synced = True
                sim._launch(now, seg, origin)
            else:
                group_slot, group = slot, [seg]
                heappush(sends, (slot, sim._order, group, origin))
                sim._order += 1
        self.sent += len(out)
        if self._log:
            for seg in out:
                self._log.write(seg, "out")
        return out


class Simulator:
    """Single-threaded deterministic event loop over virtual nanoseconds."""

    def __init__(self, seed: int = 0, default_delay_ns: int = DEFAULT_DELAY_NS,
                 trace: Optional[Callable[[dict], None]] = None):
        self.seed = seed
        self.now = 0
        self.default_delay_ns = default_delay_ns
        self.policy = FirewallPolicy()
        self.hosts: dict[str, _Host] = {}
        self._paths: dict[tuple, SimPath] = {}
        # Route of client<->server pairs without a path of their own.
        self._template = SimPath(a="", b="", one_way_delay_ns=default_delay_ns)
        self._plans: dict[tuple, tuple] = {}  # (origin, dst) -> see _plan
        self._rules: tuple = ()  # policy.rules when the plans were last valid
        self._heap: list = []
        # Transport sends queued for a later slot: (slot, order, segments,
        # origin), the segments launched in order.
        self._sends: list = []
        self._order = 0
        self._trace = trace
        self._loss_rngs: dict[tuple, random.Random] = {}

    # -- construction --------------------------------------------------------

    def add_client(self, addr: str, **kwargs) -> SimClient:
        self._vacant(addr)
        host = self.hosts[addr] = SimClient(self, addr, **kwargs)
        return host

    def add_server(self, addr: str, **kwargs) -> SimServer:
        self._vacant(addr)
        host = self.hosts[addr] = SimServer(self, addr, **kwargs)
        return host

    def add_monitor(self, addr: str) -> _MonitorHost:
        """The monitor host at ``addr``, added unless it exists; an address
        held by a client or server raises ValueError."""
        host = self.hosts.get(addr)
        if host is None:
            self._vacant(addr)
            host = self.hosts[addr] = _MonitorHost(self, addr)
        if not isinstance(host, _MonitorHost):
            raise ValueError(f"{addr} already assigned to a non-monitor host")
        return host

    def _vacant(self, addr: str) -> None:
        """Raise ValueError if a host holds ``addr``: route plans bind the
        host at each address, so an address keeps its first host.  Otherwise
        clear the plans, since a new host changes routes and receivers."""
        if addr in self.hosts:
            raise ValueError(f"{addr} already assigned to a host")
        self._plans.clear()

    def add_path(self, a: str, b: str, hops=(), delay_ns: Optional[int] = None,
                 loss_rate: float = 0.0, filtered: bool = False) -> SimPath:
        path = self._paths[(a, b)] = self._path(a, b, hops, delay_ns,
                                                loss_rate, filtered)
        self._plans.clear()
        return path

    def set_client_server_path(self, hops=(), delay_ns: Optional[int] = None,
                               loss_rate: float = 0.0,
                               filtered: bool = False) -> None:
        """Route every client<->server pair that has no ``add_path`` of its
        own, in either direction, as if ``add_path(client, server, ...)`` had
        been called for it: hops are listed from the client, and the pair
        keeps its own loss stream.  Other pairs keep the default route."""
        self._template = self._path("", "", hops, delay_ns, loss_rate, filtered)
        self._plans.clear()

    def _path(self, a, b, hops, delay_ns, loss_rate, filtered) -> SimPath:
        return SimPath(a=a, b=b, hops=tuple(hops),
                       one_way_delay_ns=(delay_ns if delay_ns is not None
                                         else self.default_delay_ns),
                       loss_rate=loss_rate, filtered=filtered)

    def attach(self, local_addr: str, **kwargs) -> SimTransport:
        return SimTransport(self, local_addr, **kwargs)

    def client(self, addr: str) -> SimClient:
        return self.hosts[addr]

    def server(self, addr: str) -> SimServer:
        return self.hosts[addr]

    # -- event loop -----------------------------------------------------------

    def schedule(self, t: int, fn: Callable, *args) -> None:
        """Run ``fn(t, *args)`` at ``t``, or now if ``t`` has passed; events
        due at one time run in the order scheduled.  A launch's arrival and
        a server's timers, never due before now, push the same
        ``(t, order, fn, args)`` entries onto ``_heap`` directly.  Client
        noise takes an event only with a trace sink, to record each packet
        at its own time; without one it is counted on the next delivery
        (see :class:`SimClient`)."""
        if t < self.now:
            t = self.now
        heappush(self._heap, (t, self._order, fn, args))
        self._order += 1

    def step(self, until: int) -> None:
        """Process all events with timestamp <= until.

        A send queued for a slot t enters the wire after every event due at
        or before t has run, sends due at t in the order they were queued:
        the order they would have if the caller had sent them once the
        clock reached t.  On the heap, such a send would run before the
        events due at t that were scheduled after it was queued, so a
        client reply leaving on the same lossy link in that nanosecond
        would draw from the link's loss stream second instead of first.

        ``policy.rules`` may change between steps (see :meth:`_sync_rules`).
        """
        if until < self.now:
            raise ValueError("cannot step backwards")
        self._sync_rules()
        heap = self._heap
        sends = self._sends
        while sends and sends[0][0] <= until:
            due = sends[0][0]
            while heap and heap[0][0] <= due:
                t, _, fn, args = heappop(heap)
                self.now = t
                fn(t, *args)
            self.now = due
            while sends and sends[0][0] == due:
                _, _, segs, origin = heappop(sends)
                for seg in segs:
                    self._launch(due, seg, origin)
        while heap and heap[0][0] <= until:
            t, _, fn, args = heappop(heap)
            self.now = t
            fn(t, *args)
        self.now = until

    def _sync_rules(self) -> None:
        """Clear the route plans, which hold each hop's rules, if
        ``policy.rules`` changed since they were built.  ``step`` checks
        first, and so does a transport's send due now before it enters the
        wire: a segment meets the rules in force when it is launched."""
        rules = tuple(self.policy.rules)
        if rules != self._rules:
            self._rules = rules
            self._plans.clear()

    def hour_at(self, t: int) -> int:
        return t // HOUR_NS % 24

    def emit(self, t: int, ev: str, **fields) -> None:
        """Hand one event record to the trace sink; a no-op without one.
        Call sites test ``_trace`` first, to skip building the fields."""
        if self._trace is not None:
            self._trace({"t": t, "ev": ev, **fields})

    # -- wire ------------------------------------------------------------------

    def _route(self, origin: str, dst: str) -> SimPath:
        path = self._paths.get((origin, dst)) or self._paths.get((dst, origin))
        if path is not None:
            return path
        ends = (type(self.hosts.get(origin)), type(self.hosts.get(dst)))
        if ends == (SimClient, SimServer):
            return replace(self._template, a=origin, b=dst)
        if ends == (SimServer, SimClient):
            return replace(self._template, a=dst, b=origin)
        return SimPath(a=origin, b=dst, one_way_delay_ns=self.default_delay_ns)

    def _plan(self, origin: str, dst: str) -> tuple:
        """Build and cache the route plan from origin to dst; ``_launch``
        reads ``_plans`` and calls here on a miss.  A plan holds the path;
        its ``(hop, physical index, delay from launch, rules)`` steps in
        travel order and whether any step has rules, once for segments
        whose source is ``origin`` and once for spoofed ones; the end-to-end
        delay; the path's loss generator (None when lossless; both
        directions share one); the receiver that takes an arrival as an
        event; and the monitor host at ``dst``, where arrivals settle at
        launch (None when ``dst`` holds no monitor).

        A step's rules are a policy of the rules placed at its index that
        can match a segment on the plan, in policy order, or None when there
        are none (always on an unfiltered path).  Rules are looked up by
        source: every segment on the plan goes to ``dst``, so a
        ``client->server`` rule naming another address never matches, and
        a ``server->client`` rule naming an address other than ``origin``
        never matches a segment from ``origin``.  Only the spoofed steps,
        whose source is set freely, keep every ``server->client`` rule, so
        a segment from ``origin`` meets as many rules however many name
        other addresses.

        The receiver is the handler of the host at ``dst``.  With a trace
        sink, or no host there, it is ``_deliver``, which emits the delivery
        and looks the host up on arrival; only a sink schedules it for a
        monitor.  Adding a host or a path, or changing the rules, clears the
        cache."""
        path = self._route(origin, dst)
        direction = 1 if path.a == origin else -1
        legs = path.leg_delays()[::direction]
        spoofed = own = ()
        if path.filtered:
            spoofed = [rule for rule in self.policy.rules
                       if rule.direction == "server->client"
                       or rule.addr in (None, dst)]
            own = [rule for rule in spoofed
                   if rule.direction == "client->server"
                   or rule.addr in (None, origin)]
        hops = list(enumerate(path.hops, 1))[::direction]
        own_steps = _steps(hops, legs, own)
        spoofed_steps = (own_steps if spoofed == own
                         else _steps(hops, legs, spoofed))
        loss = None
        if path.loss_rate > 0:
            loss = self._loss_rngs.get((path.a, path.b))
            if loss is None:
                loss = self._loss_rngs[(path.a, path.b)] = random.Random(
                    derive_seed(self.seed, "loss", path.a, path.b))
        host = self.hosts.get(dst)
        untraced = host is not None and self._trace is None
        plan = self._plans[(origin, dst)] = (
            path, *own_steps, *spoofed_steps, sum(legs), loss,
            host.on_segment if untraced else self._deliver,
            host if type(host) is _MonitorHost else None)
        return plan

    def _launch(self, at: int, seg: TcpSegment, origin: str) -> None:
        """Enter a segment onto the wire at virtual time `at`.

        Routing uses the physical origin, not the header source, so spoofed
        segments travel the sender's path.  The whole traversal is resolved
        here; outcome events are scheduled at their future times, and an
        arrival at a monitor settles at once (see :class:`_MonitorHost`).
        """
        if self._trace is not None:
            self.emit(at, "send", src=seg.src_addr, dst=seg.dst_addr,
                      sport=seg.src_port, dport=seg.dst_port,
                      flags="".join(sorted(seg.flags)), origin=origin)
        plan = self._plans.get((origin, seg.dst_addr))
        if plan is None:
            plan = self._plan(origin, seg.dst_addr)
        (path, steps, ruled, spoofed_steps, spoofed_ruled, total, loss,
         receiver, monitor) = plan
        if seg.src_addr != origin:
            steps, ruled = spoofed_steps, spoofed_ruled
        if loss is not None and loss.random() < path.loss_rate:
            if self._trace is not None:
                self.emit(at, "drop_loss", src=seg.src_addr, dst=seg.dst_addr)
            return
        if ruled or seg.ttl <= len(steps):
            for n, (hop, index, elapsed, rules) in enumerate(steps, 1):
                t = at + elapsed
                if n >= seg.ttl:
                    self.schedule(t, self._ttl_exceeded, seg, hop, origin, elapsed)
                    return
                if (rules is not None
                        and rules.decide(seg, index, self.hour_at(t)) == DROP):
                    if self._trace is not None:
                        self.schedule(t, self._emit_rule_drop, seg, index)
                    return
        if monitor is not None:
            if monitor.transport is not None:
                monitor.transport._enqueue(at + total, seg)
            if self._trace is None:
                return
        # ``at`` is now and ``total`` >= 0: the arrival needs no clamp.
        heappush(self._heap, (at + total, self._order, receiver, (seg,)))
        self._order += 1

    def _emit_rule_drop(self, now: int, seg: TcpSegment, hop: int) -> None:
        self.emit(now, "drop_rule", src=seg.src_addr, dst=seg.dst_addr,
                  sport=seg.src_port, dport=seg.dst_port, hop=hop)

    def _ttl_exceeded(self, now: int, seg: TcpSegment, hop: Hop, origin: str,
                      elapsed: int) -> None:
        """Hop responds to an expired probe; notification carries the probe's
        seq in its ack field (the quoted-header convention) and src_port 0."""
        if self._trace is not None:
            self.emit(now, "ttl_exceeded", hop=hop.addr, dst=seg.src_addr,
                      ttl=seg.ttl)
        reply = TcpSegment(hop.addr, seg.src_addr, 0, seg.src_port, 0, seg.seq,
                           _RST, 64, 0, now)
        # Return trip retraces the forward legs walked so far.  A reply to a
        # monitor settles at once, as a launched segment does.
        target = self.hosts.get(seg.src_addr)
        if type(target) is _MonitorHost:
            if target.transport is not None:
                target.transport._enqueue(now + elapsed, reply)
            if self._trace is None:
                return
        self.schedule(now + elapsed, self._deliver, reply)

    def _deliver(self, now: int, seg: TcpSegment) -> None:
        target = self.hosts.get(seg.dst_addr)
        if target is None:
            if self._trace is not None:
                self.emit(now, "drop_unrouted", dst=seg.dst_addr)
            return
        if self._trace is not None:
            self.emit(now, "deliver", src=seg.src_addr, dst=seg.dst_addr,
                      sport=seg.src_port, dport=seg.dst_port,
                      flags="".join(sorted(seg.flags)), ipid=seg.ipid)
        target.on_segment(now, seg)
