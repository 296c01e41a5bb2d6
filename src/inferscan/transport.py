"""TCP segment crafting, sending, and capture.

Two interchangeable backends implement the same interface: the simulator
backend (see :mod:`inferscan.simnet`) and an optional raw-socket backend
for live use.  Scan logic is written against :class:`Transport` and a
:class:`Clock`, so the same code runs on virtual or wall-clock time.

Arrivals wait in one queue, in arrival order, until a capture claims them
once they are due; callers sharing a transport own disjoint flow filters.
Arrivals older than :data:`PENDING_HORIZON_NS` are expired.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from bisect import bisect_left, bisect_right, insort_right
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

NS_PER_SEC = 1_000_000_000
HOUR_NS = 3600 * NS_PER_SEC

#: The most segments per second that a transport sends on one flow.
RATE_LIMIT = 10

#: How long an unclaimed arrival stays queued.  The latest reply a check can
#: still claim is a SYN/ACK retransmission 1+2+4+8+16 = 31 s after its SYN.
PENDING_HORIZON_NS = 60 * NS_PER_SEC

FLAG_BITS = {"SYN": 0x02, "ACK": 0x10, "RST": 0x04, "FIN": 0x01}
_FLAG_NAMES = frozenset(FLAG_BITS)

# The flag sets the scans' train rows carry (see ``Transport.send_train``).
SYN = frozenset(("SYN",))
SYN_ACK = frozenset(("SYN", "ACK"))
RST = frozenset(("RST",))

#: How many valid addresses ``check_addr`` remembers.  A scan crafts its
#: segments between a few addresses, so each is parsed once, not per segment.
ADDR_MEMO_SIZE = 256

# Builds a named tuple from a finished tuple, without its Python-level __new__.
_tuple_new = tuple.__new__

# Sort key of a capture-queue entry ``(arrival, segment)``.
_arrival = itemgetter(0)

# A segment's 4-tuple as a plain tuple, in FlowKey field order; equal and
# hash-equal to its FlowKey.
_flow_fields = itemgetter(0, 2, 1, 3)

_valid_addrs: dict = {}  # the memo of check_addr, oldest first


class TransportError(Exception):
    """Base class for transport failures."""


class TransportClosedError(TransportError):
    pass


class SpoofingUnsupportedError(TransportError):
    pass


class InvalidSegmentError(TransportError, ValueError):
    pass


def check_addr(addr: str) -> str:
    """``addr`` if it is a canonical dotted-quad IPv4 address, the form
    ``socket.inet_ntoa`` writes, else raise InvalidSegmentError.
    ``inet_aton`` alone would also take ``010.0.0.1`` (octal, 8.0.0.1),
    ``1.2.3.0x10`` (hex) and ``1.2.3.4 x`` (text after a space ignored),
    which name the same host as their canonical form on the wire but not
    in the simulator or the records.  Remembers up to ADDR_MEMO_SIZE valid
    addresses; only a plain ``str`` is looked up, so any other input,
    unhashable ones included, is parsed and fails as it always did."""
    plain = type(addr) is str
    if plain and addr in _valid_addrs:
        return addr
    try:
        canonical = socket.inet_ntoa(socket.inet_aton(addr))
    except (OSError, TypeError, ValueError) as exc:
        raise InvalidSegmentError(f"invalid IPv4 address: {addr!r}") from exc
    if canonical != addr:
        raise InvalidSegmentError(f"invalid IPv4 address: {addr!r}")
    if plain:
        if len(_valid_addrs) >= ADDR_MEMO_SIZE:
            del _valid_addrs[next(iter(_valid_addrs))]
        _valid_addrs[addr] = None
    return addr


def check_range(name: str, value, lo, hi) -> None:
    """Raise ValueError naming the setting ``name`` unless
    ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be within {lo}-{hi}, got {value!r}")


def check_json(name: str, value, types: tuple):
    """``value`` if its type is one of ``types``, exactly, so a bool is not
    an int; else raise ValueError naming ``name`` and the last type."""
    if type(value) not in types:
        raise ValueError(f"{name} is not a JSON {types[-1].__name__}: "
                         f"{value!r}")
    return value


def check_json_list(name: str, value, types: tuple) -> list:
    """``value`` if it is a list whose items ``check_json`` admits as
    ``types``, else raise ValueError naming ``name``."""
    for item in check_json(name, value, (list,)):
        check_json(f"{name} item", item, types)
    return value


def addr_to_int(addr: str) -> int:
    return struct.unpack("!I", socket.inet_aton(addr))[0]


def int_to_addr(value: int) -> str:
    return socket.inet_ntoa(struct.pack("!I", value & 0xFFFFFFFF))


class FlowKey(NamedTuple):
    """4-tuple identifying one direction of a TCP flow.

    An immutable tuple: equality, hash and ordering are the tuple's.  For
    capture filters, fields set to None act as wildcards (see
    :meth:`matches`).
    """

    src_addr: Optional[str]
    src_port: Optional[int]
    dst_addr: Optional[str]
    dst_port: Optional[int]

    def matches(self, other) -> bool:
        """``other`` (a flow key, or any 4-tuple in its field order) equals
        this key on every field that is not None."""
        for mine, theirs in zip(self, other):
            if mine is not None and mine != theirs:
                return False
        return True


class TcpSegment(NamedTuple):
    """One IPv4+TCP segment: an immutable tuple, cheap to build.  Hot paths
    build it positionally, in field order."""

    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: frozenset
    ttl: int
    ipid: int
    timestamp: int  # monotonic nanoseconds

    @property
    def flow(self) -> FlowKey:
        return _tuple_new(FlowKey, _flow_fields(self))

    def has(self, *names: str) -> bool:
        return self.flags.issuperset(names)

    def stamped(self, timestamp: int) -> "TcpSegment":
        """This segment with another timestamp (``_replace`` without its
        keyword handling)."""
        return _tuple_new(TcpSegment, self[:9] + (timestamp,))


def validate_segment(seg: TcpSegment) -> TcpSegment:
    """``seg`` if it is a segment this toolkit may craft, else raise
    InvalidSegmentError naming the first field that fails, in field order,
    flags last.  The crafting pass (``Transport._craft``) tests every bound
    inline and comes here only for a row that fails one, or whose address
    is not yet memoized."""
    check_addr(seg.src_addr)
    check_addr(seg.dst_addr)
    _, _, src_port, dst_port, seq, ack, flags, ttl, ipid, _ = seg
    for name, port in (("src_port", src_port), ("dst_port", dst_port)):
        if not 0 <= port <= 0xFFFF:
            raise InvalidSegmentError(f"{name} out of range: {port}")
    if not 0 <= seq <= 0xFFFFFFFF:
        raise InvalidSegmentError(f"seq out of range: {seq}")
    if not 0 <= ack <= 0xFFFFFFFF:
        raise InvalidSegmentError(f"ack out of range: {ack}")
    if not 1 <= ttl <= 255:
        raise InvalidSegmentError(f"ttl out of range: {ttl}")
    if not 0 <= ipid <= 0xFFFF:
        raise InvalidSegmentError(f"ipid out of range: {ipid}")
    if not _FLAG_NAMES.issuperset(flags):
        unknown = set(flags) - _FLAG_NAMES
        raise InvalidSegmentError(f"unknown flags: {sorted(unknown)}")
    if not flags:
        raise InvalidSegmentError("crafted probes need at least one flag")
    return seg


# ---------------------------------------------------------------------------
# Serialization.  The packet log writes one JSON record of every field per
# segment; the wire codec emits minimal IPv4+TCP headers for live use.
# ---------------------------------------------------------------------------

def _segment_record(seg: TcpSegment) -> dict:
    """The packet-log record of ``seg``, before encoding."""
    return {
        "src_addr": seg.src_addr,
        "src_port": seg.src_port,
        "dst_addr": seg.dst_addr,
        "dst_port": seg.dst_port,
        "seq": seg.seq,
        "ack": seg.ack,
        "flags": sorted(seg.flags),
        "ttl": seg.ttl,
        "ipid": seg.ipid,
        "timestamp": seg.timestamp,
    }


def _dumps(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _inet_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def segment_to_wire(seg: TcpSegment) -> bytes:
    """Minimal 20-byte IPv4 header + 20-byte TCP header, no options/payload."""
    flag_bits = 0
    for name in seg.flags:
        flag_bits |= FLAG_BITS[name]
    ip_header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45, 0, 40, seg.ipid, 0, seg.ttl, socket.IPPROTO_TCP, 0,
        socket.inet_aton(seg.src_addr), socket.inet_aton(seg.dst_addr),
    )
    ip_header = ip_header[:10] + struct.pack("!H", _inet_checksum(ip_header)) + ip_header[12:]
    tcp_header = struct.pack(
        "!HHIIBBHHH",
        seg.src_port, seg.dst_port, seg.seq, seg.ack,
        5 << 4, flag_bits, 65535, 0, 0,
    )
    pseudo = struct.pack(
        "!4s4sBBH",
        socket.inet_aton(seg.src_addr), socket.inet_aton(seg.dst_addr),
        0, socket.IPPROTO_TCP, len(tcp_header),
    )
    csum = _inet_checksum(pseudo + tcp_header)
    tcp_header = tcp_header[:16] + struct.pack("!H", csum) + tcp_header[18:]
    return ip_header + tcp_header


def segment_from_wire(data: bytes, timestamp: int = 0) -> TcpSegment:
    if len(data) < 40:
        raise InvalidSegmentError("short packet")
    ihl = (data[0] & 0x0F) * 4
    if ihl < 20 or len(data) < ihl + 20:
        raise InvalidSegmentError(f"IHL of {ihl} bytes in a {len(data)}-byte packet")
    ipid, = struct.unpack("!H", data[4:6])
    ttl = data[8]
    src = socket.inet_ntoa(data[12:16])
    dst = socket.inet_ntoa(data[16:20])
    sport, dport, seq, ack = struct.unpack("!HHII", data[ihl:ihl + 12])
    flag_bits = data[ihl + 13]
    flags = frozenset(n for n, b in FLAG_BITS.items() if flag_bits & b)
    return TcpSegment(src, dst, sport, dport, seq, ack, flags, ttl, ipid, timestamp)


# ---------------------------------------------------------------------------
# Deterministic ISN generation.  A cooperating vantage point holding the same
# seed reconstructs any probe's sequence number from its index, which is how
# the RST-burst sender derives the sequence numbers its RSTs must carry.
# ---------------------------------------------------------------------------

def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def derive_seed(seed: int, *labels) -> int:
    """Stable 64-bit sub-seed from a root seed and a label path."""
    x = seed & 0xFFFFFFFFFFFFFFFF
    for label in labels:
        if isinstance(label, str):
            for ch in label:
                x = _splitmix64(x ^ ord(ch))
        else:
            x = _splitmix64(x ^ (int(label) & 0xFFFFFFFFFFFFFFFF))
    return x


class IsnGenerator:
    """Counter-mode sequence numbers: isn(i) is a pure function of (seed, i)."""

    def __init__(self, seed: int):
        self.seed = seed
        self._prefix = derive_seed(seed, "isn")

    def at(self, index: int) -> int:
        # _splitmix64(_splitmix64(prefix ^ index)), written out.
        x = (((self._prefix ^ (index & 0xFFFFFFFFFFFFFFFF))
              + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 31)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return (x ^ (x >> 31)) & 0xFFFFFFFF


class Clock:
    """Monotonic time source; the sim backend advances virtual time."""

    def now_ns(self) -> int:
        raise NotImplementedError

    def sleep_ns(self, duration_ns: int) -> None:
        raise NotImplementedError

    def sleep_until(self, t_ns: int) -> None:
        delta = t_ns - self.now_ns()
        if delta > 0:
            self.sleep_ns(delta)


class FlowRateLimiter:
    """Paces sends to at most :data:`RATE_LIMIT` segments per second per
    flow.

    A flow's next free slot at or before now gives the same slot as no
    entry, and the clock does not run backward, so such entries are
    dropped whenever the table has doubled since the last sweep: its size
    tracks the flows with sends still pending, not every flow ever used.
    The sweep compares with now, not with a send's requested slot, so a
    flow reserved ahead keeps its entry until its slot has passed.  A flow
    is any 4-tuple in FlowKey field order: a FlowKey and the plain tuple of
    its fields are one entry.
    """

    def __init__(self):
        self._interval_ns = NS_PER_SEC // RATE_LIMIT
        self._next_free: dict[tuple, int] = {}
        self._sweep_at = 2

    def reserve(self, flow: tuple, now_ns: int, at_ns: int = 0) -> int:
        """Return the send slot for this flow: the later of now and
        ``at_ns``, or its next free slot after that."""
        next_free = self._next_free
        slot = next_free.get(flow, 0)
        if slot < now_ns:
            slot = now_ns
        if slot < at_ns:
            slot = at_ns
        next_free[flow] = slot + self._interval_ns
        if len(next_free) >= self._sweep_at:
            self._next_free = {f: t for f, t in next_free.items() if t > now_ns}
            self._sweep_at = 2 * len(self._next_free)
        return slot


class PacketLog:
    """Optional line-delimited JSON log, one record per segment."""

    def __init__(self, path):
        self._fh = open(path, "a", encoding="utf-8")

    def write(self, seg: TcpSegment, direction: str) -> None:
        rec = _segment_record(seg)
        rec["dir"] = direction
        self._fh.write(_dumps(rec) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class Transport:
    """Common backend behavior: crafting, rate pacing, logging, demux.

    There is one send path.  :meth:`_craft` is the one crafting routine: it
    checks and completes rows and draws their ISNs and IP-IDs, for a probe
    train (:meth:`send_train`) or for one segment (:meth:`craft_segment`).
    The backend's ``_queue_train`` paces, stamps, queues and logs the rows,
    for a train or for the one-row train of :meth:`send`.  ``_isn_index``
    counts the session ISNs drawn so far.

    A backend hands each arrival to :meth:`_enqueue`: the live backend as
    it happens, the simulator as soon as the segment is launched, stamped
    with the time it will arrive.  Unclaimed arrivals wait in ``_pending``,
    one list of ``(arrival, segment)`` in arrival order, ties in the order
    they were queued.  An arrival is due once the clock reaches it; only
    due arrivals are counted by ``queued`` or claimed by ``capture``.
    ``expired`` counts arrivals dropped unclaimed once they are older than
    :data:`PENDING_HORIZON_NS`.  A backend that receives on a thread of its
    own calls ``_enqueue`` holding ``_lock``, which ``capture`` holds while
    it expires and claims, but not while it waits.
    """

    #: set by subclasses
    supports_spoofing = False

    def __init__(self, local_addr: str, isn_seed: int = 0,
                 packet_log: Optional[PacketLog] = None):
        self.local_addr = check_addr(local_addr)
        self.isn = IsnGenerator(isn_seed)
        self._isn_index = 0
        self._limiter = FlowRateLimiter()
        self._log = packet_log
        self._open = True
        self._pending: list[tuple[int, TcpSegment]] = []
        self._capture_start: Optional[int] = None  # of the capture in progress
        self._lock = threading.Lock()
        self.expired = 0
        self.sent = 0  # segments queued by send and send_train
        self._ipid = derive_seed(isn_seed, "ipid", local_addr) & 0xFFFF

    # -- subclass hooks ----------------------------------------------------

    @property
    def clock(self) -> Clock:
        raise NotImplementedError

    def _dispatch(self, seg: TcpSegment, at_ns: int) -> None:
        raise NotImplementedError

    def _queue_train(self, train: list) -> list:
        """Reserve, stamp, dispatch and log each prepared row (see
        :meth:`_craft`) in turn, reading the clock for each: a backend whose
        dispatch waits for the slot paces the next row from the time it
        went out.  Returns the segments."""
        reserve = self._limiter.reserve
        now_ns = self.clock.now_ns
        log = self._log
        out = []
        for at_ns, src, dst, sport, dport, seq, ack, flags, ttl, ipid in train:
            slot = reserve((src, sport, dst, dport), now_ns(), at_ns)
            seg = _tuple_new(TcpSegment, (src, dst, sport, dport, seq, ack,
                                          flags, ttl, ipid, slot))
            self._dispatch(seg, slot)
            self.sent += 1
            if log:
                log.write(seg, "out")
            out.append(seg)
        return out

    def _craft(self, rows: Iterable[tuple], closed: bool, ack: int = 0,
               ipid: Optional[int] = None) -> list:
        """Check and complete ``send_train`` rows; returns the prepared rows
        ``(at_ns, src, dst, sport, dport, seq, ack, flags, ttl, ipid)``,
        a segment's fields but its timestamp after the slot asked for.

        Row by row: the spoof gate, the session ISN (unless ``seq`` is
        given) and then the next IP-ID, every bound in one inline chain (a
        row that fails one goes to ``validate_segment``, which builds the
        message; an address it has not yet memoized passes there), and
        ``TransportClosedError`` if ``closed``.  The ISN index and IP-ID
        counter move only once every row has passed.  ``ack`` and an
        explicit ``ipid``, which every row then takes instead of drawing
        one, are :meth:`craft_segment`'s and checked there.
        """
        local = self.local_addr
        spoofing = self.supports_spoofing
        known = _valid_addrs
        isn_at = self.isn.at
        index = self._isn_index
        step = 1 if ipid is None else 0  # how far each row moves the IP-ID
        if step:
            ipid = self._ipid
        train = []
        for at_ns, dst, dport, flags, sport, src, seq, ttl in rows:
            if not src:
                src = local
            elif src != local and not spoofing:
                raise SpoofingUnsupportedError(
                    f"backend cannot spoof source {src} (local {local})")
            if seq is None:
                seq = isn_at(index)
                index += 1
            ipid = (ipid + step) & 0xFFFF
            if type(flags) is not frozenset:
                flags = frozenset(flags)
            if not ((src is local or type(src) is str and src in known)
                    and type(dst) is str and dst in known
                    and 0 <= sport <= 0xFFFF and 0 <= dport <= 0xFFFF
                    and 0 <= seq <= 0xFFFFFFFF and 1 <= ttl <= 255
                    and flags and _FLAG_NAMES.issuperset(flags)):
                validate_segment(_tuple_new(TcpSegment, (
                    src, dst, sport, dport, seq, ack, flags, ttl, ipid, 0)))
            if closed:
                raise TransportClosedError("send after close")
            train.append((at_ns, src, dst, sport, dport, seq, ack, flags, ttl,
                          ipid))
        self._isn_index = index
        if step:
            self._ipid = ipid
        return train

    # -- capture queue -------------------------------------------------------

    def _enqueue(self, arrival: int, seg: TcpSegment) -> None:
        """Queue ``seg``, due at ``arrival``, and expire the stale head.

        The entry goes after every queued one due no later, so the queue
        stays in arrival order with ties in the order they were queued.
        During a capture the horizon counts back from the capture's start,
        otherwise from the earlier of now and ``arrival`` (the simulator
        queues at launch, before the arrival; the live backend just after
        it).  A head less than a horizon older than ``arrival`` is therefore
        kept without reading the clock.
        """
        pending = self._pending
        entry = (arrival, seg)
        if pending and pending[-1][0] > arrival:
            insort_right(pending, entry, key=_arrival)
        else:
            pending.append(entry)
        if pending[0][0] < arrival - PENDING_HORIZON_NS:
            since = (min(arrival, self.clock.now_ns())
                     if self._capture_start is None else self._capture_start)
            self._expire(since - PENDING_HORIZON_NS)

    def _expire(self, cutoff: int) -> None:
        stale = bisect_left(self._pending, cutoff, key=_arrival)
        if stale:
            self.expired += stale
            del self._pending[:stale]

    @property
    def queued(self) -> int:
        """Due arrivals waiting for a capture to claim them; those still on
        their way are not counted."""
        with self._lock:
            return bisect_right(self._pending, self.clock.now_ns(),
                                key=_arrival)

    # -- public API ---------------------------------------------------------

    def craft_segment(self, dst_addr: str, dst_port: int, flags: Iterable[str],
                      src_port: int = 0, *, src_addr: Optional[str] = None,
                      seq: Optional[int] = None, ack: int = 0, ttl: int = 64,
                      ipid: Optional[int] = None) -> TcpSegment:
        """A validated segment from this transport, stamped now: the
        one-row form of :meth:`send_train`'s crafting.

        ``src_addr=None`` sends from the local address, ``seq=None`` takes
        the next session ISN and ``ipid=None`` the next IP-ID, drawn in
        that order.  A refused call draws neither.
        """
        if not (0 <= ack <= 0xFFFFFFFF
                and (ipid is None or 0 <= ipid <= 0xFFFF)):
            # Names the first bad field, in validate_segment's order.
            validate_segment(_tuple_new(TcpSegment, (
                src_addr or self.local_addr, dst_addr, src_port, dst_port,
                seq or 0, ack, frozenset(flags), ttl, ipid or 0, 0)))
        [row] = self._craft(
            [(0, dst_addr, dst_port, flags, src_port, src_addr, seq, ttl)],
            False, ack, ipid)
        return _tuple_new(TcpSegment, row[1:] + (self.clock.now_ns(),))

    def send(self, seg: TcpSegment, *, at_ns: int = 0) -> int:
        """Queue ``seg`` for its flow's next rate-limited slot at or after
        ``at_ns`` (now, when that has passed); returns the slot, in ns, at
        which it enters the wire or simulation.

        The one-row train of :meth:`send_train`, ``seg`` already crafted.
        """
        if not self._open:
            raise TransportClosedError("send after close")
        return self._queue_train([(at_ns,) + seg[:9]])[0].timestamp

    def send_train(self, rows: Iterable[tuple]) -> list[TcpSegment]:
        """Craft, pace and queue a probe train; returns its segments, each
        stamped with its slot.

        Each row is a tuple ``(at_ns, dst_addr, dst_port, flags, src_port,
        src_addr, seq, ttl)``.  It gives the segment that
        ``craft_segment(dst_addr, dst_port, flags, src_port,
        src_addr=src_addr, seq=seq, ttl=ttl)`` followed by
        ``send(seg, at_ns=at_ns)`` would send, row after row: session ISNs
        and IP-IDs are drawn in that order, and every segment takes its
        flow's slot as ``send`` reserves it.  ``flags`` is best one of the
        frozensets ``SYN``, ``SYN_ACK`` and ``RST``.

        The whole train is checked before any of it is queued.  A row that
        ``craft_segment`` or ``send`` would refuse raises the same error,
        the first such row's in train order; then nothing is queued or
        logged and no ISN or IP-ID is drawn.

        A scan queues each fixed schedule as one train, then claims the
        replies with one capture to its deadline.  A train spans at most
        :data:`PENDING_HORIZON_NS`, or its first replies may expire
        unclaimed before that capture starts.
        """
        return self._queue_train(self._craft(rows, not self._open))

    def capture(self, flows: Iterable[FlowKey], until_ns: int) -> list[TcpSegment]:
        """Wait until ``until_ns``; return matching arrivals in arrival order.

        Only arrivals due by the clock's time once it has waited are
        claimed; later ones stay queued.  A deadline at or before now does
        not wait and takes only the arrivals due now.  A due arrival is
        claimed when its 4-tuple equals a filter without wildcards, or a
        filter with one :meth:`FlowKey.matches` it; arrivals in the same
        nanosecond come back in the order they were queued.  Non-matching
        segments stay queued for other callers' filters, until they are
        more than PENDING_HORIZON_NS older than a capture's start.
        """
        if not self._open:
            raise TransportClosedError("capture after close")
        filters = list(flows)
        if not filters:
            raise ValueError("capture filter must be non-empty")
        start = self.clock.now_ns()
        with self._lock:
            self._expire(start - PENDING_HORIZON_NS)
            self._capture_start = start
        try:
            self.clock.sleep_until(until_ns)
        finally:
            self._capture_start = None
        exact = {f for f in filters if None not in f}
        wild = [f for f in filters if None in f]
        hits, kept = [], []
        with self._lock:
            pending = self._pending
            due = bisect_right(pending, self.clock.now_ns(), key=_arrival)
            for entry in pending[:due]:
                seg = entry[1]
                flow = _flow_fields(seg)
                if flow in exact:
                    hits.append(entry)
                    continue
                for f in wild:
                    if f.matches(flow):
                        hits.append(entry)
                        break
                else:
                    kept.append(entry)
            if hits:
                pending[:due] = kept
        out = [seg.stamped(arrival) for arrival, seg in hits]
        if self._log:
            for seg in out:
                self._log.write(seg, "in")
        return out

    def close(self) -> None:
        self._open = False
        if self._log:
            self._log.close()
