from __future__ import annotations

import queue
import random
import socket
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MM_ADDR, SERVER_EP
from inferscan.endpoints import EndpointSpec
from inferscan.idlescan import run_idle_campaign
from inferscan.simnet import FilterRule, Hop, Simulator
from inferscan import transport as transport_mod
from inferscan.transport import (
    ADDR_MEMO_SIZE,
    FLAG_BITS,
    NS_PER_SEC,
    PENDING_HORIZON_NS,
    RATE_LIMIT,
    Clock,
    FlowKey,
    FlowRateLimiter,
    InvalidSegmentError,
    IsnGenerator,
    SpoofingUnsupportedError,
    TcpSegment,
    Transport,
    TransportClosedError,
    TransportError,
    _splitmix64,
    check_addr,
    derive_seed,
    int_to_addr,
    segment_from_wire,
    segment_to_wire,
    validate_segment,
)

MM = "198.51.100.9"


def make_transport(sim=None, **kwargs):
    sim = sim or Simulator(seed=1)
    return sim, sim.attach(MM, **kwargs)


def random_segment(rng):
    return TcpSegment(
        src_addr=f"{rng.randrange(1, 224)}.{rng.randrange(256)}."
                 f"{rng.randrange(256)}.{rng.randrange(1, 255)}",
        dst_addr=f"{rng.randrange(1, 224)}.{rng.randrange(256)}."
                 f"{rng.randrange(256)}.{rng.randrange(1, 255)}",
        src_port=rng.randrange(1, 65536),
        dst_port=rng.randrange(1, 65536),
        seq=rng.randrange(2 ** 32),
        ack=rng.randrange(2 ** 32),
        flags=frozenset(rng.sample(["SYN", "ACK", "RST", "FIN"],
                                   rng.randrange(1, 4))),
        ttl=rng.randrange(1, 256),
        ipid=rng.randrange(2 ** 16),
        timestamp=rng.randrange(2 ** 60),
    )


# Every segment validate_segment accepts.
valid_segments = st.builds(
    TcpSegment,
    src_addr=st.integers(0, 2 ** 32 - 1).map(int_to_addr),
    dst_addr=st.integers(0, 2 ** 32 - 1).map(int_to_addr),
    src_port=st.integers(0, 0xFFFF),
    dst_port=st.integers(0, 0xFFFF),
    seq=st.integers(0, 0xFFFFFFFF),
    ack=st.integers(0, 0xFFFFFFFF),
    flags=st.frozensets(st.sampled_from(sorted(FLAG_BITS)), min_size=1),
    ttl=st.integers(1, 255),
    ipid=st.integers(0, 0xFFFF),
    timestamp=st.integers(0, 2 ** 63 - 1),
)

# The inclusive range validate_segment allows for each numeric header field
# (the timestamp is not a header field and is not checked).
FIELD_BOUNDS = {"src_port": (0, 0xFFFF), "dst_port": (0, 0xFFFF),
                "seq": (0, 0xFFFFFFFF), "ack": (0, 0xFFFFFFFF),
                "ttl": (1, 255), "ipid": (0, 0xFFFF)}


class TestCraft:
    def test_synack_with_ttl_and_port(self):
        _, tr = make_transport()
        seg = tr.craft_segment(
            dst_addr="203.0.113.5", dst_port=9001, flags=("SYN", "ACK"),
            ttl=5, src_port=9001)
        assert seg.flags == frozenset(("SYN", "ACK"))
        assert seg.ttl == 5
        assert seg.src_port == 9001

    def test_rst_with_explicit_seq(self):
        _, tr = make_transport()
        seg = tr.craft_segment(
            dst_addr="203.0.113.5", dst_port=80, flags=("RST",), seq=12345)
        assert seg.seq == 12345
        assert seg.flags == frozenset(("RST",))

    def test_ttl_zero_rejected(self):
        _, tr = make_transport()
        with pytest.raises(InvalidSegmentError):
            tr.craft_segment(dst_addr="203.0.113.5", dst_port=80,
                             flags=("SYN",), ttl=0)

    def test_empty_flags_rejected(self):
        _, tr = make_transport()
        with pytest.raises(InvalidSegmentError):
            tr.craft_segment(dst_addr="203.0.113.5", dst_port=80,
                             flags=())

    def test_bad_address_rejected(self):
        _, tr = make_transport()
        with pytest.raises(InvalidSegmentError):
            tr.craft_segment(dst_addr="not-an-ip", dst_port=80,
                             flags=("SYN",))

    @pytest.mark.parametrize("addr", [["203.0.113.5"], {"a": 1}, None, 7,
                                      b"203.0.113.5", "203.0.113", "1.2.3.4.5"])
    def test_bad_address_raises_invalid_segment(self, addr):
        """Unhashable inputs included: the memo looks up plain strings only."""
        _, tr = make_transport()
        for _ in range(2):
            with pytest.raises(InvalidSegmentError):
                tr.craft_segment(dst_addr=addr, dst_port=80, flags=("SYN",))

    # inet_aton reads these as 8.0.0.1, 1.2.3.16 and 1.2.3.4.
    NON_CANONICAL = ["010.0.0.1", "1.2.3.0x10", "1.2.3.4 ", "1.2.3.4 x",
                     "1.2.3.4\n", "1.2.3.4\x00"]

    @pytest.mark.parametrize("addr", NON_CANONICAL)
    def test_non_canonical_address_rejected(self, addr):
        for _ in range(2):  # the second call would find a memoised address
            with pytest.raises(InvalidSegmentError, match="invalid IPv4"):
                check_addr(addr)

    @pytest.mark.parametrize("addr", ["0.0.0.0", "10.0.0.1",
                                      "255.255.255.255", "203.0.113.5"])
    def test_canonical_address_accepted(self, addr):
        assert check_addr(addr) == addr == socket.inet_ntoa(
            socket.inet_aton(addr))

    def test_address_memo_stays_bounded(self):
        _, tr = make_transport()
        for i in range(ADDR_MEMO_SIZE + 50):
            tr.craft_segment(int_to_addr(0x0A000000 + i), 80, ("SYN",))
        assert len(transport_mod._valid_addrs) <= ADDR_MEMO_SIZE
        with pytest.raises(InvalidSegmentError):
            tr.craft_segment("10.0.0", 80, ("SYN",))

    def test_seq_comes_from_isn_generator(self):
        _, tr = make_transport(isn_seed=55)
        segs = [tr.craft_segment(dst_addr="203.0.113.5",
                                 dst_port=80, flags=("SYN",))
                for _ in range(4)]
        expected = IsnGenerator(55)
        assert [s.seq for s in segs] == [expected.at(i) for i in range(4)]

    def test_sim_backend_spoofs(self):
        _, tr = make_transport()
        seg = tr.craft_segment(
            dst_addr="203.0.113.5", dst_port=80, flags=("SYN",),
            src_addr="36.10.0.5")
        assert seg.src_addr == "36.10.0.5"

    def test_spoofing_gate(self):
        _, tr = make_transport()
        tr.supports_spoofing = False
        with pytest.raises(SpoofingUnsupportedError):
            tr.craft_segment(dst_addr="203.0.113.5", dst_port=80,
                             flags=("SYN",), src_addr="36.10.0.5")

    @pytest.mark.parametrize("change, error, message", [
        ({"ack": 2 ** 32}, InvalidSegmentError,
         "ack out of range: 4294967296"),
        ({"ipid": -1}, InvalidSegmentError, "ipid out of range: -1"),
        ({"dst_addr": "203.0.113.05"}, InvalidSegmentError,
         "invalid IPv4 address: '203.0.113.05'"),
        ({"src_addr": "36.10.0.5"}, SpoofingUnsupportedError,
         f"backend cannot spoof source 36.10.0.5 (local {MM})"),
    ], ids=["ack", "ipid", "address", "spoof"])
    def test_refused_craft_draws_nothing(self, change, error, message):
        """A refused call names its field and draws no ISN or IP-ID: the
        next accepted call crafts what it would have without it."""
        call = {"dst_addr": "203.0.113.5", "dst_port": 9001,
                "flags": ("SYN",), "src_port": 40000}
        crafted = []
        for refuse_first in (True, False):
            _, tr = make_transport(isn_seed=21)
            tr.supports_spoofing = False
            if refuse_first:
                with pytest.raises(error) as info:
                    tr.craft_segment(**{**call, **change})
                assert str(info.value) == message
            seg = tr.craft_segment(**call)
            crafted.append((seg.seq, seg.ipid))
        assert crafted[0] == crafted[1]

    def test_explicit_ack_and_ipid_reach_the_wire_and_draw_no_ipid(
            self, tmp_path):
        call = {"dst_addr": "203.0.113.5", "dst_port": 9001,
                "flags": ("ACK",), "src_port": 40000}
        log = tmp_path / "out.jsonl"
        _, tr = make_transport(isn_seed=21,
                               packet_log=transport_mod.PacketLog(log))
        _, fresh = make_transport(isn_seed=21)
        seg = tr.craft_segment(**call, ack=7, ipid=0xFFFF)
        assert (seg.ack, seg.ipid) == (7, 0xFFFF)
        assert seg.seq == IsnGenerator(21).at(0)
        after, expected = tr.craft_segment(**call), fresh.craft_segment(**call)
        assert after.ipid == expected.ipid
        assert after.seq == IsnGenerator(21).at(1)
        tr.send(seg)
        tr.close()
        [record] = log.read_text().splitlines()
        assert '"ack":7,' in record and '"ipid":65535,' in record


class TestSerialization:
    def test_wire_round_trip_wire_fields(self):
        rng = random.Random(43)
        for _ in range(200):
            seg = random_segment(rng)
            back = segment_from_wire(segment_to_wire(seg),
                                     timestamp=seg.timestamp)
            assert back == seg

    @given(valid_segments)
    def test_validate_accepts_every_valid_segment(self, seg):
        assert validate_segment(seg) is seg

    @given(valid_segments)
    def test_wire_round_trip_property(self, seg):
        wire = segment_to_wire(seg)
        assert len(wire) == 40
        assert segment_from_wire(wire, timestamp=seg.timestamp) == seg

    @given(valid_segments, st.integers(0, 2 ** 63 - 1))
    def test_stamped_equals_replace(self, seg, timestamp):
        assert seg.stamped(timestamp) == seg._replace(timestamp=timestamp)

    def test_wire_length_minimal(self):
        rng = random.Random(44)
        assert len(segment_to_wire(random_segment(rng))) == 40

    def test_short_wire_data_rejected(self):
        with pytest.raises(InvalidSegmentError):
            segment_from_wire(b"\x45" * 12)

    @pytest.mark.parametrize("ihl", [15, 4])
    def test_header_length_outside_packet_rejected(self, ihl):
        data = bytearray(segment_to_wire(random_segment(random.Random(46))))
        data[0] = 0x40 | ihl
        with pytest.raises(InvalidSegmentError):
            segment_from_wire(bytes(data))

    @given(valid_segments, st.sampled_from(sorted(FIELD_BOUNDS)), st.booleans())
    def test_one_past_a_bound_names_the_field(self, seg, field, above):
        lo, hi = FIELD_BOUNDS[field]
        edge, past = (hi, hi + 1) if above else (lo, lo - 1)
        at_edge = seg._replace(**{field: edge})
        assert validate_segment(at_edge) is at_edge
        with pytest.raises(InvalidSegmentError) as info:
            validate_segment(seg._replace(**{field: past}))
        assert str(info.value) == f"{field} out of range: {past}"

    @given(valid_segments)
    def test_empty_flags_refused(self, seg):
        bare = seg._replace(flags=frozenset())
        with pytest.raises(InvalidSegmentError,
                           match="crafted probes need at least one flag"):
            validate_segment(bare)

    def test_validate_ranges(self):
        rng = random.Random(45)
        seg = random_segment(rng)
        for field, value in (("seq", 2 ** 32), ("ack", -1), ("ipid", 70000),
                             ("ttl", 256), ("src_port", 65536)):
            with pytest.raises(InvalidSegmentError):
                validate_segment(seg._replace(**{field: value}))


class TestSend:
    def test_receipts_monotonic(self):
        _, tr = make_transport()
        stamps = []
        for i in range(10):
            seg = tr.craft_segment(
                dst_addr="203.0.113.5", dst_port=80, flags=("SYN",),
                src_port=40000 + i)
            stamps.append(tr.send(seg))
        assert stamps == sorted(stamps)

    def test_send_after_close(self):
        _, tr = make_transport()
        seg = tr.craft_segment(dst_addr="203.0.113.5", dst_port=80,
                               flags=("SYN",))
        tr.close()
        with pytest.raises(TransportClosedError):
            tr.send(seg)

    def test_reserved_flow_key_and_send_share_one_slot_entry(self):
        # send keys the limiter with the segment's plain 4-tuple, which is
        # equal and hash-equal to the FlowKey reserved here.
        sim, tr = make_transport()
        first = tr._limiter.reserve(FlowKey(MM, 40000, "203.0.113.5", 80),
                                    sim.now)
        seg = tr.craft_segment(dst_addr="203.0.113.5", dst_port=80,
                               flags=("SYN",), src_port=40000)
        assert tr.send(seg) == first + NS_PER_SEC // RATE_LIMIT
        assert len(tr._limiter._next_free) == 1

    def test_rate_pacing_five_per_second(self):
        # Five sends on one flow, one RATE_LIMIT interval apart.
        _, tr = make_transport()
        receipts = []
        for _ in range(5):
            seg = tr.craft_segment(
                dst_addr="203.0.113.5", dst_port=80, flags=("SYN",),
                src_port=40000)
            receipts.append(tr.send(seg))
        gaps = [b - a for a, b in zip(receipts, receipts[1:])]
        for gap in gaps:
            assert (abs(gap - NS_PER_SEC // RATE_LIMIT)
                    <= NS_PER_SEC // (10 * RATE_LIMIT))


class TestCapture:
    def probe(self, tr, dst, sport):
        seg = tr.craft_segment(
            dst_addr=dst, dst_port=443, flags=("SYN", "ACK"), src_port=sport)
        tr.send(seg)
        return FlowKey(dst, 443, MM, sport)

    def test_three_responses_in_order(self):
        sim = Simulator(seed=2)
        sim.add_client("36.10.0.5", ipid_start=7)
        tr = sim.attach(MM)
        flow = None
        for _ in range(3):
            flow = self.probe(tr, "36.10.0.5", 40000)
            tr.clock.sleep_ns(NS_PER_SEC)
        got = tr.capture([flow], tr.clock.now_ns() + NS_PER_SEC)
        assert len(got) == 3
        assert [g.ipid for g in got] == [7, 8, 9]
        assert [g.timestamp for g in got] == sorted(g.timestamp for g in got)

    def test_empty_wire(self):
        _, tr = make_transport()
        assert tr.capture([FlowKey(None, None, MM, 40000)],
                          tr.clock.now_ns() + NS_PER_SEC) == []

    def test_empty_filter_rejected(self):
        _, tr = make_transport()
        with pytest.raises(ValueError):
            tr.capture([], tr.clock.now_ns() + NS_PER_SEC)

    def test_capture_after_close(self):
        _, tr = make_transport()
        tr.close()
        with pytest.raises(TransportClosedError):
            tr.capture([FlowKey(None, None, MM, 1)], tr.clock.now_ns())

    def test_demux_between_flows(self):
        sim = Simulator(seed=3)
        sim.add_client("36.10.0.5")
        sim.add_client("36.10.0.6")
        tr = sim.attach(MM)
        f1 = self.probe(tr, "36.10.0.5", 40001)
        f2 = self.probe(tr, "36.10.0.6", 40002)
        only_first = tr.capture([f1], tr.clock.now_ns() + NS_PER_SEC)
        assert {s.src_addr for s in only_first} == {"36.10.0.5"}
        # The other worker's segments stayed queued.
        second = tr.capture([f2], tr.clock.now_ns())
        assert {s.src_addr for s in second} == {"36.10.0.6"}

    def test_no_foreign_segment_delivered(self):
        sim = Simulator(seed=4)
        sim.add_client("36.10.0.5")
        sim.add_client("36.10.0.6")
        tr = sim.attach(MM)
        f1 = self.probe(tr, "36.10.0.5", 40001)
        self.probe(tr, "36.10.0.6", 40002)
        for seg in tr.capture([f1], tr.clock.now_ns() + NS_PER_SEC):
            assert f1.matches(seg.flow)


class ScriptedClock(Clock):
    """Hands each scripted (arrival, segment) pair to ``deliver`` once time
    reaches it, as the simulator's monitor host does; like the simulator's
    clock it delivers what is due now on a sleep to the present."""

    def __init__(self, arrivals, deliver):
        self.t = 0
        self._script = sorted(arrivals, key=lambda pair: pair[0])
        self._deliver = deliver

    def now_ns(self):
        return self.t

    def sleep_ns(self, duration_ns):
        self.sleep_until(self.t + duration_ns)

    def sleep_until(self, t_ns):
        while self._script and self._script[0][0] <= t_ns:
            self._deliver(*self._script.pop(0))
        self.t = max(self.t, t_ns)


class ScriptedTransport(Transport):
    """Backend whose wire delivers a fixed list of (arrival, segment) pairs."""

    def __init__(self, arrivals):
        self._clock = ScriptedClock(arrivals, self._enqueue)
        super().__init__(MM)

    @property
    def clock(self):
        return self._clock

    def _dispatch(self, seg, at_ns):
        pass


def linear_demux(pending, filters):
    """Reference demux: one flat arrival-ordered list, every entry tested
    against every filter.  Returns (claimed segments, leftover list)."""
    out, kept = [], []
    for arrival, seg in pending:
        if any(f.matches(seg.flow) for f in filters):
            out.append(seg._replace(timestamp=arrival))
        else:
            kept.append((arrival, seg))
    return out, kept


def reply(src, sport, dport, seq):
    return TcpSegment(src, MM, sport, dport, seq, 0, frozenset(["RST"]), 64,
                      seq & 0xFFFF, 0)


class TestCaptureQueue:
    SOURCES = [("36.10.0.5", 33434), ("36.10.0.6", 33434),
               ("203.0.113.5", 9001)]
    PORTS = [39000, 39001, 39100, 39101]

    def test_matches_linear_demux_on_random_interleavings(self):
        for trial in range(40):
            rng = random.Random(trial)
            # Distinct arrival times; ties are checked by
            # test_same_nanosecond_arrivals_come_back_in_queue_order.
            times = rng.sample(range(50 * NS_PER_SEC), rng.randrange(20, 120))
            arrivals = []
            for i, t in enumerate(times):
                src, sport = rng.choice(self.SOURCES)
                arrivals.append((t, reply(src, sport, rng.choice(self.PORTS), i)))
            tr = ScriptedTransport(arrivals)
            script = sorted(arrivals, key=lambda pair: pair[0])
            pending = []
            while tr.clock.now_ns() < 55 * NS_PER_SEC:
                filters = []
                for _ in range(rng.randrange(1, 4)):
                    src, sport = rng.choice(self.SOURCES)
                    port = rng.choice(self.PORTS)
                    filters.append(rng.choice([
                        FlowKey(src, sport, MM, port),
                        FlowKey(None, None, MM, port),
                        FlowKey(src, None, None, None),
                    ]))
                window = rng.choice([0, rng.randrange(10 * NS_PER_SEC)])
                end = tr.clock.now_ns() + window
                pending += [pair for pair in script if pair[0] <= end]
                script = [pair for pair in script if pair[0] > end]
                expected, pending = linear_demux(pending, filters)
                assert tr.capture(filters,
                                  tr.clock.now_ns() + window) == expected
                assert tr.queued == len(pending)
            leftover, _ = linear_demux(pending, [FlowKey(None, None, None, None)])
            assert tr.capture([FlowKey(None, None, None, None)],
                              tr.clock.now_ns()) == leftover
            assert tr.expired == 0

    def test_same_nanosecond_arrivals_come_back_in_queue_order(self):
        first = reply("36.10.0.5", 33434, 40001, 1)
        second = reply("36.10.0.5", 33434, 40000, 2)
        tr = ScriptedTransport([(NS_PER_SEC, first), (NS_PER_SEC, second)])
        got = tr.capture([FlowKey(None, None, MM, 40000),
                          FlowKey(None, None, MM, 40001)], NS_PER_SEC)
        assert [seg.seq for seg in got] == [1, 2]

    def test_stale_arrival_expires_and_is_counted(self):
        stale = reply("36.10.0.5", 33434, 39000, 1)
        fresh = reply("36.10.0.5", 33434, 39001, 2)
        tr = ScriptedTransport([(0, stale),
                                (PENDING_HORIZON_NS, fresh)])
        other_port = [FlowKey(None, None, MM, 40000)]
        tr.capture(other_port, PENDING_HORIZON_NS)
        assert tr.queued == 2  # both arrived inside that window
        # starts exactly one horizon after 0
        tr.capture(other_port, PENDING_HORIZON_NS + 1)
        assert tr.expired == 0
        tr.capture(other_port, tr.clock.now_ns())
        assert tr.expired == 1
        everything = tr.capture([FlowKey(None, None, None, None)],
                                tr.clock.now_ns())
        assert [seg.seq for seg in everything] == [2]

    def test_arrivals_inside_the_window_are_never_expired(self):
        sim = Simulator(seed=2)
        sim.add_client("36.10.0.5")
        tr = sim.attach(MM)
        flow = FlowKey("36.10.0.5", 443, MM, 40000)
        for i in range(3):  # one probe per 100 s
            tr.send(tr.craft_segment(
                dst_addr="36.10.0.5", dst_port=443, flags=("SYN", "ACK"),
                src_port=40000), at_ns=i * 100 * NS_PER_SEC)
        got = tr.capture([flow], tr.clock.now_ns() + 3 * PENDING_HORIZON_NS
                         + 30 * NS_PER_SEC)
        assert len(got) == 3
        assert got[-1].timestamp - got[0].timestamp > PENDING_HORIZON_NS
        assert tr.expired == 0

    def test_zero_window_takes_arrivals_due_now(self):
        sim = Simulator(seed=3)
        sender, receiver = sim.attach("100.64.0.1"), sim.attach(MM)
        sim.add_path("100.64.0.1", MM, delay_ns=0)
        sim.step(5)
        sender.send(sender.craft_segment(MM, 40000, ("SYN",), 41000))
        got = receiver.capture([FlowKey("100.64.0.1", 41000, MM, 40000)],
                               receiver.clock.now_ns())
        assert [seg.timestamp for seg in got] == [5]

    def test_queue_stays_flat_across_campaign_slots(self):
        client = EndpointSpec("36.10.0.5", 0, "client")
        servers = [replace(SERVER_EP, addr=f"203.0.113.{i}") for i in (5, 6, 7)]
        queued = []
        for slots in (1, 3):
            sim = Simulator(seed=9)
            sim.add_client(client.addr, ipid_start=500)
            for server in servers:
                sim.add_server(server.addr, open_ports=[9001])
                sim.add_path(MM_ADDR, server.addr, hops=[Hop("10.8.0.1")],
                             filtered=True)
            # The relays never see the monitor's RSTs, so the SYN/ACK
            # retransmissions of every server check outlive its window.
            sim.policy.rules.append(FilterRule(
                "no-rst", "client->server", port=9001, flags=frozenset(["RST"])))
            tr = sim.attach(MM_ADDR)
            summary = run_idle_campaign(tr, [client], servers, seed=2,
                                        slots=slots)
            assert summary.completed == slots
            tr.clock.sleep_ns(40 * NS_PER_SEC)  # let the last ones arrive
            queued.append(tr.queued)
        assert 0 < queued[1] <= queued[0]


class TestFlowRateLimiter:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 150_000_000)),
                    max_size=200))
    def test_sweeps_never_change_a_slot(self, sends):
        limiter, next_free, now = FlowRateLimiter(), {}, 0
        for port, wait in sends:
            now += wait
            flow = FlowKey(MM, port, "36.10.0.5", 443)
            expected = max(now, next_free.get(flow, 0))
            next_free[flow] = expected + NS_PER_SEC // RATE_LIMIT
            assert limiter.reserve(flow, now) == expected

    @given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 150_000_000),
                              st.integers(0, 60 * NS_PER_SEC)), max_size=200))
    def test_slots_queued_ahead_keep_the_rate(self, sends):
        """Sends queued up to 60 s ahead: a flow's slots never come closer
        than the rate interval, none before its requested time, and the
        table stays under twice the most flows ever pending at once."""
        limiter, slots, now, peak = FlowRateLimiter(), {}, 0, 0
        for port, wait, ahead in sends:
            now += wait
            flow = FlowKey(MM, port, "36.10.0.5", 443)
            slot = limiter.reserve(flow, now, now + ahead)
            assert slot >= now + ahead
            slots.setdefault(flow, []).append(slot)
            peak = max(peak, sum(t > now for t in limiter._next_free.values()))
            assert len(limiter._next_free) <= 2 * peak
        for times in slots.values():
            assert all(b - a >= NS_PER_SEC // RATE_LIMIT
                       for a, b in zip(times, times[1:]))

    def test_size_tracks_pending_flows_not_pairs(self):
        """Over 4 pairs or 8, the table stays under twice the most flows
        ever pending at once, far below the flows the campaign used."""
        client = EndpointSpec("36.10.0.5", 0, "client")
        for pairs in (4, 8):
            servers = [replace(SERVER_EP, addr=f"203.0.113.{i}")
                       for i in range(5, 5 + pairs)]
            sim = Simulator(seed=9)
            sim.add_client(client.addr, ipid_start=500)
            for server in servers:
                sim.add_server(server.addr, open_ports=[9001])
            tr = sim.attach(MM_ADDR)
            limiter, flows, peak = tr._limiter, set(), 0
            reserve = limiter.reserve

            def counting_reserve(flow, now_ns, at_ns=0):
                nonlocal peak
                slot = reserve(flow, now_ns, at_ns)
                flows.add(flow)
                peak = max(peak, sum(t > now_ns
                                     for t in limiter._next_free.values()))
                return slot

            limiter.reserve = counting_reserve
            summary = run_idle_campaign(tr, [client], servers, seed=2,
                                        slots=pairs)
            assert summary.completed == pairs
            assert len(limiter._next_free) < 2 * peak < len(flows)


class TestFlowKey:
    def test_exact_equality(self):
        a = FlowKey("1.2.3.4", 1, "5.6.7.8", 2)
        assert a == FlowKey("1.2.3.4", 1, "5.6.7.8", 2)
        assert a != FlowKey("1.2.3.4", 1, "5.6.7.8", 3)

    def test_wildcard_match(self):
        pattern = FlowKey(None, None, "5.6.7.8", 2)
        assert pattern.matches(FlowKey("9.9.9.9", 77, "5.6.7.8", 2))
        assert not pattern.matches(FlowKey("9.9.9.9", 77, "5.6.7.8", 3))


class TestValueTypes:
    SEG = TcpSegment("36.10.0.5", MM, 443, 40000, 7, 8, frozenset(["RST"]),
                     64, 9, 10)
    ADDRS = st.sampled_from(["36.10.0.5", "36.10.0.6", MM])
    PORTS = st.sampled_from([443, 9001, 40000])

    @pytest.mark.parametrize("value", [SEG, SEG.flow], ids=["segment", "flow"])
    def test_fields_refuse_assignment(self, value):
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_equal_flow_keys_are_one_dict_key(self):
        built = FlowKey("36.10.0.5", 443, MM, 40000)
        assert built == self.SEG.flow and built is not self.SEG.flow
        assert hash(built) == hash(self.SEG.flow)
        limiter = FlowRateLimiter()
        assert limiter.reserve(self.SEG.flow, 0) == 0
        assert limiter.reserve(built, 0) == NS_PER_SEC // RATE_LIMIT

    def test_simulated_hosts_key_their_state_by_value(self):
        sim = Simulator(seed=3)
        server = sim.add_server("203.0.113.5", open_ports=[9001])
        sim.add_client("36.10.0.5", ipid_mode="per-flow")
        tr = sim.attach(MM)
        tr.send(tr.craft_segment("203.0.113.5", 9001, ("SYN",), 41000))
        for _ in range(3):  # one flow, so one per-flow IP-ID counter
            tr.send(tr.craft_segment("36.10.0.5", 443, ("SYN", "ACK"), 40000))
        rsts = tr.capture([FlowKey("36.10.0.5", 443, MM, 40000)],
                          tr.clock.now_ns() + NS_PER_SEC)
        assert FlowKey(MM, 41000, "203.0.113.5", 9001) in server.backlog
        first = rsts[0].ipid
        assert [seg.ipid for seg in rsts] == [
            (first + k) & 0xFFFF for k in range(3)]

    def test_flow_keys_order_as_tuples(self):
        keys = [FlowKey("36.10.0.6", 1, MM, 2), FlowKey("36.10.0.5", 9, MM, 2),
                FlowKey("36.10.0.5", 1, MM, 3)]
        assert sorted(keys) == sorted(keys, key=tuple)
        assert sorted(keys)[0] == FlowKey("36.10.0.5", 1, MM, 3)

    @given(st.builds(FlowKey, st.none() | ADDRS, st.none() | PORTS,
                     st.none() | ADDRS, st.none() | PORTS),
           st.builds(FlowKey, ADDRS, PORTS, ADDRS, PORTS))
    def test_matches_is_field_by_field_with_wildcards(self, pattern, flow):
        expected = (
            (pattern.src_addr is None or pattern.src_addr == flow.src_addr)
            and (pattern.src_port is None or pattern.src_port == flow.src_port)
            and (pattern.dst_addr is None or pattern.dst_addr == flow.dst_addr)
            and (pattern.dst_port is None or pattern.dst_port == flow.dst_port))
        assert pattern.matches(flow) is expected
        assert pattern.matches(tuple(flow)) is expected  # capture's form


class TestIsnGenerator:
    def test_seeds_disagree(self):
        assert IsnGenerator(1).at(0) != IsnGenerator(2).at(0)

    def test_32_bit_range(self):
        gen = IsnGenerator(7)
        for i in range(100):
            assert 0 <= gen.at(i) < 2 ** 32

    @given(st.integers(0, 2 ** 64 - 1), st.integers(-2 ** 70, 2 ** 70))
    def test_at_matches_the_label_path(self, seed, index):
        expected = _splitmix64(derive_seed(seed, "isn", index)) & 0xFFFFFFFF
        assert IsnGenerator(seed).at(index) == expected


class TestLiveGate:
    def test_requires_authorization(self):
        from inferscan.livenet import AuthorizationError, LiveTransport
        with pytest.raises(AuthorizationError):
            LiveTransport(local_addr="127.0.0.1", authorized=False)


class FakeRawSocket:
    """Stands in for a raw socket: records what is sent, and hands the
    sniffer what the test puts in ``inbox``."""

    def __init__(self, inbox):
        self.inbox = inbox
        self.sent = []
        self.closed = False

    def setsockopt(self, *args):
        pass

    def settimeout(self, timeout):
        pass

    def sendto(self, data, addr):
        self.sent.append((data, addr))

    def recvfrom(self, size):
        if self.closed:
            raise OSError("closed")
        try:
            return self.inbox.get(timeout=0.01), ("0.0.0.0", 0)
        except queue.Empty:
            raise socket.timeout from None

    def close(self):
        self.closed = True


class TestLiveTransport:
    """``LiveTransport`` over fake sockets and a scripted clock: no root and
    no network needed."""

    @pytest.fixture
    def live(self, monkeypatch):
        from inferscan import livenet
        inbox, sockets, clock = queue.Queue(), [], [0]

        def fake_socket(*args):
            sockets.append(FakeRawSocket(inbox))
            return sockets[-1]

        monkeypatch.setattr(livenet.socket, "socket", fake_socket)
        monkeypatch.setattr(livenet.RealClock, "now_ns", lambda self: clock[0])
        tr = livenet.LiveTransport(MM, authorized=True)
        yield tr, inbox, clock, sockets
        tr.close()
        tr._sniffer.join(timeout=5)
        assert not tr._sniffer.is_alive()

    @staticmethod
    def arrive(tr, inbox, seq):
        """Hand the sniffer one reply to MM and wait until it is queued."""
        before = tr.expired + tr.queued
        inbox.put(segment_to_wire(reply("36.10.0.5", 443, 40000, seq)))
        deadline = time.monotonic() + 5
        while True:
            # expired + queued grows by one per arrival
            if tr.expired + tr.queued > before:
                return
            assert time.monotonic() < deadline, "sniffer never kept the arrival"
            time.sleep(0.001)

    def test_arrivals_stay_bounded_without_captures(self, live):
        tr, inbox, clock, _ = live
        for i in range(5):
            clock[0] = i * 30 * NS_PER_SEC
            self.arrive(tr, inbox, i)
        # At 120 s the horizon keeps the arrivals of 60, 90 and 120 s.
        assert tr.expired == 2
        assert tr.queued == 3
        got = tr.capture([FlowKey(None, None, MM, None)], tr.clock.now_ns())
        assert [(seg.seq, seg.timestamp) for seg in got] == [
            (i, i * 30 * NS_PER_SEC) for i in (2, 3, 4)]

    def test_arrivals_inside_a_capture_window_are_kept(self, live, monkeypatch):
        from inferscan import livenet
        tr, inbox, clock, _ = live

        def sleep_ns(self, duration_ns):  # three arrivals 50 s apart
            end = clock[0] + duration_ns
            for i in range(3):
                clock[0] = i * 50 * NS_PER_SEC
                TestLiveTransport.arrive(tr, inbox, i)
            clock[0] = end

        monkeypatch.setattr(livenet.RealClock, "sleep_ns", sleep_ns)
        got = tr.capture([FlowKey(None, None, MM, None)],
                         tr.clock.now_ns() + 150 * NS_PER_SEC)
        assert [seg.seq for seg in got] == [0, 1, 2]
        assert tr.expired == 0

    def test_send_writes_the_wire_bytes(self, live):
        tr, _, _, sockets = live
        seg = tr.craft_segment("203.0.113.5", 9001, ("SYN", "ACK"), 41000,
                               ack=7)
        tr.send(seg)
        [(data, addr)] = sockets[0].sent
        assert addr == ("203.0.113.5", 0)
        assert segment_from_wire(data, timestamp=seg.timestamp) == seg


# -- probe trains -------------------------------------------------------------

TRAIN_DSTS = ("36.10.0.5", "203.0.113.5", "192.0.2.77")  # client, server, none
SPOOF = "100.64.0.2"


def train_rows(now):
    """Rows of ``send_train`` around ``now``: slots before, at and after it
    (and the bare 0 the one-segment API defaults to), few ports so flows
    repeat and the rate limiter binds, spoofed sources, drawn and explicit
    sequence numbers and any TTL."""
    at = st.one_of(st.just(0), st.just(now),
                   st.integers(-2 * NS_PER_SEC, 2 * NS_PER_SEC).map(
                       lambda d: max(0, now + d)))
    row = st.tuples(
        at, st.sampled_from(TRAIN_DSTS), st.sampled_from((443, 9001)),
        st.sampled_from((transport_mod.SYN, transport_mod.SYN_ACK,
                         transport_mod.RST)),
        st.sampled_from((40000, 40001)), st.sampled_from((None, MM, SPOOF)),
        st.one_of(st.none(), st.integers(0, 0xFFFFFFFF)),
        st.sampled_from((1, 2, 64, 255)))
    return st.lists(row, max_size=12)


def send_loop(tr, rows):
    """The probe-by-probe equivalent of ``tr.send_train(rows)``."""
    out = []
    for at_ns, dst, dport, flags, sport, src, seq, ttl in rows:
        seg = tr.craft_segment(dst, dport, flags, sport, src_addr=src,
                               seq=seq, ttl=ttl)
        out.append(seg.stamped(tr.send(seg, at_ns=at_ns)))
    return out


def train_sim(events):
    sim = Simulator(seed=3, trace=events.append)
    sim.add_client(TRAIN_DSTS[0], ipid_start=500)
    sim.add_server(TRAIN_DSTS[1], open_ports=[9001])
    return sim


class TestSendTrain:
    NOW = 5 * NS_PER_SEC

    def sim_twin(self, tmp, name, rows):
        """A fresh simulator stepped to NOW whose transport sends ``rows``
        one way or the other; returns everything a send can change."""
        events = []
        sim = train_sim(events)
        sim.step(self.NOW)
        log = tmp / f"{name}.jsonl"
        tr = sim.attach(MM, isn_seed=11, packet_log=transport_mod.PacketLog(log))
        out = tr.send_train(rows) if name == "train" else send_loop(tr, rows)
        launched_now = list(events)
        sim.step(self.NOW + 10 * NS_PER_SEC)
        tr.close()
        return (out, tr._isn_index, tr._ipid, tr.sent, launched_now, events,
                log.read_bytes())

    @settings(max_examples=150, deadline=None)
    @given(rows=train_rows(NOW))
    def test_sim_train_matches_the_loop(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            train = self.sim_twin(Path(tmp), "train", rows)
            loop = self.sim_twin(Path(tmp), "loop", rows)
        assert train == loop
        assert all(seg.timestamp >= self.NOW for seg in train[0])

    @settings(max_examples=40, deadline=None)
    @given(rows=train_rows(NOW))
    def test_live_train_matches_the_loop(self, rows):
        """On fake sockets and a clock that a send's wait advances, so each
        row is paced from the time the one before it went out."""
        from inferscan import livenet
        results = []
        with pytest.MonkeyPatch.context() as mp:
            sockets = []

            def fake_socket(*args):
                sockets.append(FakeRawSocket(queue.Queue()))
                return sockets[-1]

            def sleep_ns(self, duration_ns):
                self.t += duration_ns

            mp.setattr(livenet.socket, "socket", fake_socket)
            mp.setattr(livenet.RealClock, "t", self.NOW, raising=False)
            mp.setattr(livenet.RealClock, "now_ns", lambda self: self.t)
            mp.setattr(livenet.RealClock, "sleep_ns", sleep_ns)
            for send in (lambda tr: tr.send_train(rows),
                         lambda tr: send_loop(tr, rows)):
                del sockets[:]
                tr = livenet.LiveTransport(MM, authorized=True,
                                           egress_unfiltered=True,
                                           isn_seed=11)
                try:
                    out = send(tr)
                    results.append((out, tr._isn_index, tr._ipid, tr.sent,
                                    tr.clock.now_ns(), sockets[0].sent))
                finally:
                    tr.close()
                    tr._sniffer.join(timeout=5)
        assert results[0] == results[1]
        assert [data for data, _ in results[0][5]] == [
            segment_to_wire(seg) for seg in results[0][0]]

    GOOD = (0, "203.0.113.5", 9001, transport_mod.SYN, 40000, None, None, 64)

    @pytest.mark.parametrize("field, value, close, spoofing", [
        (4, 70000, False, True),  # port
        (3, frozenset({"URG"}), False, True),  # unknown flag
        (3, frozenset(), False, True),  # no flag
        (7, 0, False, True),  # ttl
        (1, "203.0.113.05", False, True),  # address
        (5, SPOOF, False, False),  # spoof on a backend that cannot
        (None, None, True, True),  # every row good, transport closed
        (4, 70000, True, True),  # a bad first row beats the closed transport
    ])
    def test_malformed_train_queues_nothing(self, tmp_path, request, field,
                                            value, close, spoofing):
        """The train raises what the probe-by-probe loop raises first, and
        leaves no trace: nothing queued, launched or logged, no ISN or IP-ID
        drawn."""
        bad = list(self.GOOD)
        if field is not None:
            bad[field] = value
        rows = [self.GOOD] * (0 if close else 2) + [tuple(bad), self.GOOD]

        def twin(name):
            events = []
            sim = train_sim(events)
            sim.step(self.NOW)
            log = tmp_path / f"{name}.jsonl"
            tr = sim.attach(MM, packet_log=transport_mod.PacketLog(log))
            request.addfinalizer(tr.close)
            tr.supports_spoofing = spoofing
            if close:
                tr.close()
            return sim, tr, events, log

        with pytest.raises(TransportError) as expected:
            send_loop(twin("loop")[1], rows)
        sim, tr, events, log = twin("train")
        with pytest.raises(type(expected.value)) as got:
            tr.send_train(rows)
        assert str(got.value) == str(expected.value)
        assert (tr._isn_index, tr.sent, sim._sends, events) == (0, 0, [], [])
        assert tr._ipid == derive_seed(0, "ipid", MM) & 0xFFFF
        assert tr._limiter._next_free == {}
        assert log.read_bytes() == b""

    def test_sent_counts_every_queued_segment(self):
        events = []
        sim = train_sim(events)
        tr = sim.attach(MM)
        assert tr.sent == 0
        tr.send(tr.craft_segment("203.0.113.5", 9001, ("SYN",), 40000))
        tr.send_train([self.GOOD] * 3)
        tr.send_train([])
        assert tr.sent == 4
        sim.step(2 * NS_PER_SEC)
        assert sum(ev["ev"] == "send" and ev["origin"] == MM
                   for ev in events) == 4
