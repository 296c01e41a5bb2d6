from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random

import pytest

from conftest import (
    CLIENT_EP,
    SERVER_EP,
    VPS_ADDR,
    build_backlog_sim,
    build_idle_sim,
)
from inferscan import backlog, idlescan, scenario
from inferscan.endpoints import EndpointSpec
from inferscan.simnet import (
    DORMANT_AFTER_NS,
    DROP,
    HOUR_NS,
    PASS,
    FilterRule,
    FirewallPolicy,
    Hop,
    Simulator,
    _poisson,
)
from inferscan.transport import NS_PER_SEC, FlowKey, PacketLog, TcpSegment

MM = "198.51.100.9"


def synack(src="203.0.113.5", sport=9001, dst="36.10.0.5", dport=50000):
    return TcpSegment(src_addr=src, dst_addr=dst, src_port=sport,
                      dst_port=dport, seq=1, ack=2,
                      flags=frozenset(("SYN", "ACK")), ttl=64, ipid=0,
                      timestamp=0)


class TestStep:
    def test_empty_queue_advances_clock(self):
        events = []
        sim = Simulator(seed=1, trace=events.append)
        sim.step(5 * NS_PER_SEC)
        assert events == []
        assert sim.now == 5 * NS_PER_SEC

    def test_configured_delay(self):
        events = []
        sim = Simulator(seed=1, trace=events.append)
        sim.add_client("36.10.0.5")
        sim.add_path(MM, "36.10.0.5", delay_ns=10_000_000)
        tr = sim.attach(MM)
        seg = tr.craft_segment(dst_addr="36.10.0.5", dst_port=80,
                               flags=("SYN",), src_port=40000)
        tr.send(seg)
        sim.step(NS_PER_SEC)
        deliveries = [e for e in events if e["ev"] == "deliver"
                      and e["dst"] == "36.10.0.5"]
        assert deliveries and deliveries[0]["t"] == 10_000_000

    def test_add_path_after_traffic_reroutes(self):
        events = []
        sim = Simulator(seed=1, trace=events.append)
        sim.add_client("36.10.0.5")
        sim.add_path(MM, "36.10.0.5", delay_ns=10_000_000)
        tr = sim.attach(MM)

        def rtt(sport):
            sent = tr.send(tr.craft_segment(
                dst_addr="36.10.0.5", dst_port=80, flags=("SYN",),
                src_port=sport))
            got = tr.capture([FlowKey("36.10.0.5", 80, MM, sport)],
                             tr.clock.now_ns() + NS_PER_SEC)
            return got[0].timestamp - sent

        assert rtt(40000) == 20_000_000
        path = sim.add_path(MM, "36.10.0.5", hops=[Hop("10.1.0.1")],
                            delay_ns=40_000_000)
        assert rtt(40001) == 80_000_000  # both directions take the new path
        tr.send(tr.craft_segment(
            dst_addr="36.10.0.5", dst_port=80, flags=("SYN",),
            src_port=40002, ttl=1))
        sim.step(sim.now + NS_PER_SEC)
        assert [e["hop"] for e in events if e["ev"] == "ttl_exceeded"] == ["10.1.0.1"]
        assert path.hops == (Hop("10.1.0.1"),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.one_way_delay_ns = 1

    @pytest.mark.parametrize("build", [
        lambda: Simulator(seed=1, default_delay_ns=-1).attach(MM),
        lambda: Simulator(seed=1).add_path(MM, "36.10.0.5", delay_ns=-1),
        lambda: Simulator(seed=1).set_client_server_path(delay_ns=-5),
        lambda: Hop("10.0.0.1", delay_ns=-1),
        lambda: Hop("10.0.0.1", delay_ns=math.nan),
        lambda: Simulator(seed=1).add_server(
            "203.0.113.5", backoff_s=(1, 2, -4, 8, 16)),
    ])
    def test_negative_waits_refused(self, build):
        # Arrivals and server timers go on the heap unclamped: every wait
        # must be >= 0, so no event is scheduled before the present.
        with pytest.raises(ValueError, match=">= 0"):
            build()

    @pytest.mark.parametrize("max_rt, backoff", [(0, ()), (3, (1, 2))],
                             ids=["no-retransmissions", "three"])
    def test_backoff_without_a_wait_per_timer_refused(self, max_rt, backoff):
        # Every half-open entry waits once before its first retransmission
        # or its expiry: a schedule without that wait used to fail only at
        # the first SYN, with an IndexError.
        with pytest.raises(ValueError, match="^backoff_s needs at least "):
            Simulator(seed=1).add_server("203.0.113.5", open_ports=[80],
                                         max_retransmissions=max_rt,
                                         backoff_s=backoff)

    def test_step_backwards_rejected(self):
        sim = Simulator(seed=1)
        sim.step(NS_PER_SEC)
        with pytest.raises(ValueError):
            sim.step(0)

    def test_identical_seeds_identical_traces(self):
        def run():
            trace = []
            sim = Simulator(seed=77, trace=trace.append)
            sim.add_client("36.10.0.5", background_rate=3.0)
            sim.add_server("203.0.113.5", open_ports=[9001])
            sim.add_path("36.10.0.5", "203.0.113.5", delay_ns=5_000_000,
                         loss_rate=0.3)
            tr = sim.attach(MM)
            for i in range(5):
                seg = tr.craft_segment(
                    dst_addr="203.0.113.5", dst_port=9001, flags=("SYN",),
                    src_port=41000 + i, src_addr="36.10.0.5")
                tr.send(seg)
            sim.step(40 * NS_PER_SEC)
            return trace
        assert run() == run()


class TestAddMonitor:
    def test_one_host_per_address(self):
        sim = Simulator(seed=1)
        host = sim.add_monitor(MM)
        assert sim.add_monitor(MM) is host
        tr = sim.attach(MM)  # attaches to the monitor a scenario declared
        assert sim.hosts[MM] is host and host.transport is tr

    def test_client_address_refused(self):
        sim = Simulator(seed=1)
        sim.add_client("36.10.0.5")
        with pytest.raises(ValueError, match="non-monitor"):
            sim.add_monitor("36.10.0.5")
        with pytest.raises(ValueError, match="non-monitor"):
            sim.attach("36.10.0.5")

    @pytest.mark.parametrize("first", ["client", "server", "monitor"])
    @pytest.mark.parametrize("second", ["client", "server"])
    def test_client_and_server_take_only_a_free_address(self, first, second):
        sim = Simulator(seed=1)
        host = getattr(sim, f"add_{first}")("36.10.0.5")
        with pytest.raises(ValueError, match="already assigned"):
            getattr(sim, f"add_{second}")("36.10.0.5")
        assert sim.hosts == {"36.10.0.5": host}

    def test_monitor_added_after_traffic_receives_it(self):
        """The first SYN/ACK finds no host at MM; adding the monitor clears
        the plan that bound no receiver, so the next one is captured, and so
        is every later retransmission, the first flow's included."""
        sim = Simulator(seed=1)
        sim.add_server(SERVER, open_ports=[9001])
        sim.add_path(VPS_ADDR, SERVER, delay_ns=10_000_000)
        vps = sim.attach(VPS_ADDR)
        send_syn(vps, src=MM, sport=41000)
        sim.step(NS_PER_SEC // 2)
        tr = sim.attach(MM)
        send_syn(vps, src=MM, sport=41001)
        got = tr.capture([FlowKey(SERVER, 9001, MM, None)],
                         tr.clock.now_ns() + NS_PER_SEC // 2)
        assert [seg.dst_port for seg in got] == [41001]
        got = tr.capture([FlowKey(SERVER, 9001, MM, None)],
                         tr.clock.now_ns() + NS_PER_SEC)
        assert [seg.dst_port for seg in got] == [41000, 41001]


class TestArrivalsAtLaunch:
    """A segment launched toward a monitor settles at launch, with or
    without a sink: it enters the attached transport's queue, stamped with
    its arrival time, or is absorbed while no transport is attached.  A
    capture claims only what is due by the end of its window."""

    NEAR, NEAR_TOO, FAR = "36.10.0.5", "36.10.0.6", "36.10.0.7"

    def world(self, trace=None):
        sim = Simulator(seed=8, trace=trace)
        for client, delay_ms in ((self.NEAR, 5), (self.NEAR_TOO, 5), (self.FAR, 30)):
            sim.add_client(client)
            sim.add_path(MM, client, delay_ns=delay_ms * 1_000_000)
        return sim, sim.attach(MM)

    @staticmethod
    def probe(tr, client, sport=40000):
        """A SYN/ACK that the client answers with an RST to ``sport``."""
        tr.send(tr.craft_segment(client, 443, ("SYN", "ACK"), sport))

    @pytest.mark.parametrize("trace", [None, [].append], ids=["plain", "traced"])
    @pytest.mark.parametrize("first", [NEAR, NEAR_TOO])
    def test_arrival_order_with_ties_in_launch_order(self, trace, first):
        """The far client's RST is launched first but due last; the two
        near ones are due at the same nanosecond."""
        sim, tr = self.world(trace)
        second = self.NEAR_TOO if first == self.NEAR else self.NEAR
        self.probe(tr, self.FAR)  # RST launched at 30 ms, due at 60 ms
        tr.clock.sleep_ns(40_000_000)
        self.probe(tr, first)  # RST launched at 45 ms, due at 50 ms
        self.probe(tr, second)  # launched next, due at the same nanosecond
        port = [FlowKey(None, None, MM, 40000)]
        got = [[(seg.src_addr, seg.timestamp)
                for seg in tr.capture(port, tr.clock.now_ns() + window)]
               for window in (15_000_000, NS_PER_SEC)]
        assert got == [[(first, 50_000_000), (second, 50_000_000)],
                       [(self.FAR, 60_000_000)]]

    def test_capture_leaves_what_is_due_after_its_end(self):
        sim, tr = self.world()
        flow = FlowKey(self.FAR, 443, MM, 40000)
        self.probe(tr, self.FAR)
        assert tr.capture([flow], tr.clock.now_ns() + 59_999_999) == []
        assert tr.queued == 0  # launched at 30 ms, due at 60 ms
        sim.step(60_000_000)
        assert tr.queued == 1
        got = tr.capture([flow], tr.clock.now_ns())
        assert [seg.timestamp for seg in got] == [60_000_000]
        assert tr.queued == 0

    def test_second_transport_refused(self):
        """A monitor takes one transport; the first keeps capturing."""
        sim = Simulator(seed=1)
        sim.add_server(SERVER, open_ports=[9001])
        tr = sim.attach(MM)
        vps = sim.attach(VPS_ADDR)
        send_syn(vps, src=MM, sport=41000)
        sim.step(15_000_000)  # the SYN/ACK left at 10 ms, arrives at 20 ms
        with pytest.raises(ValueError, match="already has a transport"):
            sim.attach(MM)
        got = tr.capture([FlowKey(SERVER, 9001, MM, 41000)],
                         tr.clock.now_ns() + 10_000_000)
        assert [seg.timestamp for seg in got] == [20_000_000]

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_arrival_launched_without_a_transport_is_absorbed(self, traced):
        """A SYN/ACK launched toward a monitor with no transport is gone by
        the time one attaches, yet a sink still records its delivery; the
        retransmission launched after the attach is captured."""
        events = []
        sim = Simulator(seed=1, trace=events.append if traced else None)
        sim.add_server(SERVER, open_ports=[9001])
        sim.add_monitor(MM)
        vps = sim.attach(VPS_ADDR)
        send_syn(vps, src=MM, sport=41000)
        sim.step(15_000_000)  # the SYN/ACK left at 10 ms, arrives at 20 ms
        tr = sim.attach(MM)
        flow = FlowKey(SERVER, 9001, MM, 41000)
        assert tr.capture([flow], tr.clock.now_ns() + 10_000_000) == []
        got = tr.capture([flow], tr.clock.now_ns() + 2 * NS_PER_SEC)
        assert [seg.timestamp for seg in got] == [1_020_000_000]
        if traced:
            assert [e["t"] for e in events if e["ev"] == "deliver"
                    and e["dst"] == MM] == [20_000_000, 1_020_000_000]

    @pytest.mark.parametrize("trace", [None, [].append], ids=["plain", "traced"])
    def test_send_due_now_meets_the_rules_in_force_at_the_send(self, trace):
        sim = Simulator(seed=3, trace=trace)
        server = sim.add_server(SERVER, open_ports=[9001])
        sim.add_path(MM, SERVER, hops=[Hop("10.9.0.1")], filtered=True)
        tr = sim.attach(MM)
        send_syn(tr, sport=41000)
        sim.policy.rules.append(FilterRule(
            "syn", "client->server", addr=SERVER, flags=frozenset(["SYN"])))
        send_syn(tr, sport=41001)
        sim.step(NS_PER_SEC // 2)
        assert [flow.src_port for flow in server.backlog] == [41000]


def probe_entry(capacity, pending, max_rt):
    """Open one probe entry at a server, then ``pending - 1`` fillers 1 ms
    later, and watch the probe until its schedule has run out.  Each timer
    of the probe fires just before the fillers', which have the same budget
    and so are all still pending: every check of the probe reads a backlog
    of ``pending`` entries.  Returns the probe's observed SYN/ACK
    retransmissions and why it left the backlog."""
    events = []
    sim = Simulator(seed=9, trace=events.append)
    srv = sim.add_server("203.0.113.5", open_ports=[9001],
                         backlog_capacity=capacity,
                         max_retransmissions=max_rt)
    tr = sim.attach(MM)
    probe = backlog.send_syns(tr, "203.0.113.5", 9001, 41000, 1)
    backlog.send_syns(tr, "203.0.113.5", 9001, 41001, pending - 1,
                      at_ns=tr.clock.now_ns() + NS_PER_SEC // 1000)
    arrivals = backlog.synack_arrivals(tr, probe, 70 * NS_PER_SEC)
    assert srv.peak_backlog == pending
    # The probe's timers fire first, so the first removal is the probe's.
    removal = next(e for e in events if e["ev"] == "backlog_remove")
    return len(arrivals[41000]) - 1, removal["reason"]


class TestPruningRule:
    """The server's pruning rule, read through a probe entry's SYN/ACKs.
    Each row: backlog capacity, entries pending at every check of the probe,
    the server's own budget, then the retransmissions the probe is seen to
    send and why it leaves the backlog."""

    @pytest.mark.parametrize("capacity,pending,max_rt,retransmissions,reason", [
        pytest.param(16, 5, 5, 5, "expired", id="below-half"),
        pytest.param(16, 8, 5, 5, "expired", id="exactly-half"),
        pytest.param(16, 9, 5, 3, "pruned", id="just-past-half"),
        pytest.param(256, 150, 5, 3, "pruned", id="engineered-fill-level"),
        pytest.param(16, 12, 5, 3, "pruned", id="exactly-three-quarters"),
        pytest.param(16, 13, 5, 2, "pruned", id="past-three-quarters"),
        pytest.param(16, 16, 5, 2, "pruned", id="full"),
        pytest.param(16, 5, 3, 3, "expired", id="budget-3-below-half"),
        pytest.param(20, 12, 3, 3, "expired", id="budget-3-past-half"),
        pytest.param(16, 13, 3, 2, "pruned", id="budget-3-past-three-quarters"),
    ])
    def test_retransmissions_of_a_probe_entry(self, capacity, pending, max_rt,
                                              retransmissions, reason):
        assert probe_entry(capacity, pending, max_rt) == (retransmissions,
                                                          reason)

    def test_no_budget_expires_after_the_first_wait(self):
        # A server that never retransmits sends one SYN/ACK; the entry's
        # only timer expires it one backoff wait later.
        assert probe_entry(16, 1, 0) == (0, "expired")


class TestFirewallDecide:
    def policy(self, **kwargs):
        defaults = dict(name="blk", direction="server->client",
                        addr="203.0.113.5", port=9001, placement_hop=2)
        defaults.update(kwargs)
        return FirewallPolicy(rules=[FilterRule(**defaults)])

    def test_drop_at_placement_hop(self):
        assert self.policy().decide(synack(), 2, 12) == DROP

    def test_pass_before_placement_hop(self):
        assert self.policy().decide(synack(), 1, 12) == PASS

    def test_client_to_server_direction_unmatched(self):
        syn = TcpSegment(src_addr="36.10.0.5", dst_addr="203.0.113.5",
                         src_port=50000, dst_port=9001, seq=1, ack=0,
                         flags=frozenset(("SYN",)), ttl=64, ipid=0, timestamp=0)
        assert self.policy().decide(syn, 2, 12) == PASS

    def test_hour_mask(self):
        mask = tuple(h >= 12 for h in range(24))
        policy = self.policy(hours=mask)
        assert policy.decide(synack(), 2, 3) == PASS
        assert policy.decide(synack(), 2, 15) == DROP

    def test_first_match_wins(self):
        allow = FilterRule("allow", "server->client", addr="203.0.113.5",
                           port=9001, action=PASS, placement_hop=2)
        deny = FilterRule("deny", "server->client", addr="203.0.113.5",
                          placement_hop=2)
        policy = FirewallPolicy(rules=[allow, deny])
        assert policy.decide(synack(), 2, 0) == PASS

    def test_flag_predicate(self):
        rule = FilterRule("rst-only", "client->server", addr="203.0.113.5",
                          port=9001, placement_hop=2, flags=frozenset(["RST"]))
        policy = FirewallPolicy(rules=[rule])
        rst = TcpSegment(src_addr="36.10.0.5", dst_addr="203.0.113.5",
                         src_port=50000, dst_port=9001, seq=1, ack=0,
                         flags=frozenset(("RST",)), ttl=64, ipid=0, timestamp=0)
        syn = TcpSegment(src_addr="36.10.0.5", dst_addr="203.0.113.5",
                         src_port=50000, dst_port=9001, seq=1, ack=0,
                         flags=frozenset(("SYN",)), ttl=64, ipid=0, timestamp=0)
        assert policy.decide(rst, 2, 0) == DROP
        assert policy.decide(syn, 2, 0) == PASS

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterRule("x", "sideways")
        with pytest.raises(ValueError):
            FilterRule("x", "server->client", hours=(True,) * 23)


def send_syn(tr, dst="203.0.113.5", port=9001, sport=41000, src=None, seq=None):
    seg = tr.craft_segment(dst_addr=dst, dst_port=port,
                           flags=("SYN",), src_port=sport,
                           src_addr=src, seq=seq)
    tr.send(seg)
    return seg


class TestBacklog:
    def test_capacity_never_exceeded(self):
        events = []
        sim = Simulator(seed=2, trace=events.append)
        srv = sim.add_server("203.0.113.5", open_ports=[9001],
                             backlog_capacity=16)
        tr = sim.attach(MM)
        for i in range(30):
            send_syn(tr, sport=41000 + i)
        sim.step(NS_PER_SEC)
        assert srv.peak_backlog == 16
        assert any(e["ev"] == "drop_backlog_full" for e in events)

    def test_rst_removes_exactly_matching_entry(self):
        sim = Simulator(seed=3)
        srv = sim.add_server("203.0.113.5", open_ports=[9001])
        tr = sim.attach(MM)
        syn = send_syn(tr, sport=41000)
        send_syn(tr, sport=41001)
        sim.step(NS_PER_SEC)
        assert len(srv.backlog) == 2
        # Wrong sequence number: entry must survive.
        rst = tr.craft_segment(
            dst_addr="203.0.113.5", dst_port=9001, flags=("RST",),
            src_port=41000, seq=(syn.seq + 2) & 0xFFFFFFFF)
        tr.send(rst)
        sim.step(2 * NS_PER_SEC)
        assert len(srv.backlog) == 2
        rst = tr.craft_segment(
            dst_addr="203.0.113.5", dst_port=9001, flags=("RST",),
            src_port=41000, seq=(syn.seq + 1) & 0xFFFFFFFF)
        tr.send(rst)
        sim.step(3 * NS_PER_SEC)
        assert len(srv.backlog) == 1
        assert FlowKey(MM, 41001, "203.0.113.5", 9001) in srv.backlog

    def test_ack_completes_handshake(self):
        sim = Simulator(seed=4)
        srv = sim.add_server("203.0.113.5", open_ports=[9001])
        tr = sim.attach(MM)
        syn = send_syn(tr, sport=41000)
        # Short window so the ACK beats the first retransmission timer.
        segs = tr.capture([FlowKey("203.0.113.5", 9001, MM, 41000)],
                          tr.clock.now_ns() + NS_PER_SEC // 2)
        assert len(segs) == 1 and segs[0].has("SYN", "ACK")
        ack = tr.craft_segment(
            dst_addr="203.0.113.5", dst_port=9001, flags=("ACK",),
            src_port=41000, seq=(syn.seq + 1) & 0xFFFFFFFF,
            ack=(segs[0].seq + 1) & 0xFFFFFFFF)
        tr.send(ack)
        sim.step(3 * NS_PER_SEC)
        assert len(srv.backlog) == 0
        # Handshake completed: no retransmissions follow.
        assert tr.capture([FlowKey("203.0.113.5", 9001, MM, 41000)],
                          tr.clock.now_ns() + 40 * NS_PER_SEC) == []

    def test_retransmission_gaps_follow_backoff(self):
        sim = Simulator(seed=5)
        sim.add_server("203.0.113.5", open_ports=[9001])
        tr = sim.attach(MM)
        send_syn(tr, sport=41000)
        segs = tr.capture([FlowKey("203.0.113.5", 9001, MM, 41000)],
                          tr.clock.now_ns() + 70 * NS_PER_SEC)
        times = [s.timestamp for s in segs]
        gaps = [(b - a) / NS_PER_SEC for a, b in zip(times, times[1:])]
        assert gaps == [1.0, 2.0, 4.0, 8.0, 16.0]
        for g0, g1 in zip(gaps, gaps[1:]):
            assert g1 == 2 * g0

    def test_rst_clearing_leaves_nonmatching_entries(self):
        sim = Simulator(seed=6)
        srv = sim.add_server("203.0.113.5", open_ports=[9001])
        tr = sim.attach(MM)
        spoofed = [send_syn(tr, sport=42000 + i, src="36.10.0.5")
                   for i in range(20)]
        for i in range(7):
            send_syn(tr, sport=41000 + i)
        sim.step(NS_PER_SEC)
        assert len(srv.backlog) == 27
        for syn in spoofed:
            rst = tr.craft_segment(
                dst_addr="203.0.113.5", dst_port=9001, flags=("RST",),
                src_addr="36.10.0.5", src_port=syn.src_port,
                seq=(syn.seq + 1) & 0xFFFFFFFF)
            tr.send(rst)
        sim.step(3 * NS_PER_SEC)
        assert len(srv.backlog) == 7

    def test_server_restart_clears_backlog(self):
        sim = Simulator(seed=7)
        srv = sim.add_server("203.0.113.5", open_ports=[9001],
                             down_intervals=((5 * NS_PER_SEC, 8 * NS_PER_SEC),))
        tr = sim.attach(MM)
        send_syn(tr, sport=41000)
        sim.step(NS_PER_SEC)
        assert len(srv.backlog) == 1
        sim.step(6 * NS_PER_SEC)
        assert len(srv.backlog) == 0
        send_syn(tr, sport=41001)
        sim.step(7 * NS_PER_SEC)
        assert len(srv.backlog) == 0  # arrived while down: dropped

    @pytest.mark.parametrize("set_later", [False, True])
    def test_restart_loses_half_open_state_however_set(self, set_later):
        # Down intervals given to the constructor and ones set afterwards
        # follow one restart rule: the entries pending at the start are lost,
        # and none lingers once the retransmission schedule has run out.
        down = ((2 * NS_PER_SEC, 10 * NS_PER_SEC),)
        sim = Simulator(seed=7)
        srv = sim.add_server("203.0.113.5", open_ports=[9001],
                             down_intervals=() if set_later else down)
        if set_later:
            srv.down_intervals = down
        assert srv.down_intervals == down
        tr = sim.attach(MM)
        backlog.send_syns(tr, "203.0.113.5", 9001, 41000, 5)
        sim.step(NS_PER_SEC)
        assert len(srv.backlog) == 5
        sim.step(300 * NS_PER_SEC)
        assert srv.backlog == {}

    @pytest.mark.parametrize("due_s,set_at_s,synacks,removals", [
        pytest.param(1, 0.5, 1, [], id="retransmission"),
        pytest.param(63, 40, 6, ["expired"], id="expiry"),
    ])
    def test_timer_due_at_the_restart_instant(self, due_s, set_at_s, synacks,
                                              removals):
        # A restart set after the entry's timer was armed runs after that
        # timer at the same instant.  A retransmission due then is not sent;
        # an entry whose last wait ends then still expires.
        events = []
        sim = Simulator(seed=7, trace=events.append)
        srv = sim.add_server("203.0.113.5", open_ports=[9001])
        tr = sim.attach(MM)
        syns = backlog.send_syns(tr, "203.0.113.5", 9001, 41000, 1)
        sim.step(NS_PER_SEC // 2)
        (inserted,) = [e["t"] for e in events if e["ev"] == "backlog_insert"]
        sim.step(inserted + int(set_at_s * NS_PER_SEC))
        start = inserted + due_s * NS_PER_SEC
        srv.down_intervals = ((start, start + NS_PER_SEC),)
        arrivals = backlog.synack_arrivals(tr, syns, 70 * NS_PER_SEC)
        assert len(arrivals[41000]) == synacks
        assert [e["reason"] for e in events
                if e["ev"] == "backlog_remove"] == removals
        assert [e["t"] for e in events if e["ev"] == "host_down"] == [start]
        assert srv.backlog == {}


def probe_client(tr, addr="36.10.0.5"):
    tr.send(tr.craft_segment(dst_addr=addr, dst_port=443,
                             flags=("SYN", "ACK"), src_port=40000))


def catchups(trace, host="36.10.0.5"):
    return [e for e in trace
            if e["ev"] == "noise" and e["host"] == host and "count" in e]


def probed_noise(mode, traced):
    """Probe a noisy client a second apart, then after a silence long enough
    to go dormant, then again.  Returns the reply IP-IDs, the counters'
    advance and the send count's over the probes (None in random mode), and
    the number of wakes."""
    sim = Simulator(seed=8, trace=[].append if traced else None)
    client = sim.add_client("36.10.0.5", ipid_mode=mode, ipid_start=1000,
                            background_rate=20.0)
    tr = sim.attach(MM)
    wakes = []
    wake = client._wake
    client._wake = lambda now: (wakes.append(now), wake(now))

    def counters():
        # Count the noise due by now, as a delivery would.
        client._noise_until(sim.now)
        if mode == "global":
            return {None: client.ipid_counter}
        return dict(client._flow_counters)  # probe flow and noise

    def probe(gap_ns):
        probe_client(tr)
        return [seg.ipid for seg in tr.capture(
            [FlowKey("36.10.0.5", 443, MM, 40000)], sim.now + gap_ns)]

    ipids = probe(NS_PER_SEC)
    start_counters, start_sent = counters(), client.sent_count
    for gap_ns in (NS_PER_SEC,) * 4 + (3 * DORMANT_AFTER_NS, NS_PER_SEC):
        ipids += probe(gap_ns)
    end_counters = counters()
    advance = sent = None
    if mode != "random":
        assert end_counters.keys() == start_counters.keys()
        advance = sum((end_counters[k] - start_counters[k]) % 65536
                      for k in end_counters)
        sent = client.sent_count - start_sent
    return ipids, advance, sent, len(wakes)


class TestClient:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("mode", ["global", "per-flow", "random"])
    def test_ipid_conservation(self, mode, traced):
        # The catch-up after the dormant span advances the counters as much
        # as it advances the send count, and no reply IP-ID depends on
        # whether a trace sink listens.
        ipids, advance, sent, wakes = probed_noise(mode, traced)
        assert len(ipids) == 7
        assert advance == sent
        assert wakes == 1
        assert ipids == probed_noise(mode, not traced)[0]

    def test_catchup_event_counts_the_dormant_noise(self):
        trace = []
        sim = Simulator(seed=8, trace=trace.append)
        client = sim.add_client("36.10.0.5", background_rate=2.0)
        tr = sim.attach(MM)
        tr.clock.sleep_ns(10 * DORMANT_AFTER_NS)
        probe_client(tr)
        tr.clock.sleep_ns(NS_PER_SEC)
        (event,) = catchups(trace)
        assert event["count"] > 0
        woken_at = [e["t"] for e in trace if e["ev"] == "deliver"
                    and e["dst"] == "36.10.0.5"]
        assert event["t"] == woken_at[0]
        noise = sum(e.get("count", 1) for e in trace
                    if e["ev"] == "noise" and e["host"] == "36.10.0.5")
        replies = sum(1 for e in trace
                      if e["ev"] == "send" and e["origin"] == "36.10.0.5")
        assert replies == 1
        assert noise == client.sent_count - replies

    @pytest.mark.parametrize("policy", ["s2c", "none", "c2s"])
    def test_default_scan_round_never_goes_dormant(self, policy):
        # A default round leaves its client unprobed for at most about 30 s
        # (the RST flush), well inside DORMANT_AFTER_NS, so its noise keeps
        # the per-packet stream.
        trace = []
        sim = build_idle_sim(policy, seed=17, noise=1.0, trace=trace.append)
        tr = sim.attach(MM)
        idlescan.run_scan_round(tr, CLIENT_EP, SERVER_EP)
        delivered = [0] + [e["t"] for e in trace if e["ev"] == "deliver"
                           and e["dst"] == CLIENT_EP.addr]
        assert max(b - a for a, b in zip(delivered, delivered[1:])) \
            < DORMANT_AFTER_NS
        assert catchups(trace, CLIENT_EP.addr) == []

    def test_mean_catchup_is_rate_times_span(self):
        # 100 dormant spans of about 30 s at 5 packets/s: the catch-up total
        # is Poisson with mean rate x total span, checked to 4 sigma.
        rate, trace = 5.0, []
        sim = Simulator(seed=12, trace=trace.append)
        sim.add_client("36.10.0.5", background_rate=rate)
        tr = sim.attach(MM)
        for _ in range(100):
            probe_client(tr)
            tr.clock.sleep_ns(90 * NS_PER_SEC)
        probe_client(tr)
        tr.clock.sleep_ns(NS_PER_SEC)
        span_ns, total, dormant_since = 0, 0, None
        for e in trace:
            if e["ev"] != "noise":
                continue
            if "count" in e:
                span_ns += e["t"] - dormant_since
                total += e["count"]
            dormant_since = e["t"]  # the last tick before a catch-up
        assert len(catchups(trace)) == 100
        mean = rate * span_ns / NS_PER_SEC
        assert abs(total - mean) <= 4 * mean ** 0.5

    def test_rst_policy_off(self):
        sim = Simulator(seed=9)
        sim.add_client("36.10.0.5", rst_policy=False)
        tr = sim.attach(MM)
        seg = tr.craft_segment(
            dst_addr="36.10.0.5", dst_port=443, flags=("SYN", "ACK"),
            src_port=40000)
        tr.send(seg)
        assert tr.capture([FlowKey("36.10.0.5", 443, MM, 40000)],
                          tr.clock.now_ns() + NS_PER_SEC) == []

    def test_unsolicited_synack_elicits_exactly_one_rst(self):
        sim = Simulator(seed=10)
        sim.add_client("36.10.0.5")
        tr = sim.attach(MM)
        seg = tr.craft_segment(
            dst_addr="36.10.0.5", dst_port=443, flags=("SYN", "ACK"),
            src_port=40000)
        tr.send(seg)
        got = tr.capture([FlowKey("36.10.0.5", 443, MM, 40000)],
                         tr.clock.now_ns() + 5 * NS_PER_SEC)
        assert len(got) == 1
        assert got[0].flags == frozenset(("RST",))
        assert got[0].seq == seg.ack


# Fixed before the first run: draws per mean, seeds, and bounds.
POISSON_DRAWS = 20_000
POISSON_MEANS = [0, 0.3, 3, 9.99, 10, 30, 1_800, 432_000]
CHI_SQUARE_Z = 3.0902  # the upper 0.1 % point of the standard normal


def poisson_draws(lam, seed):
    rng = random.Random(seed)
    return [_poisson(rng, lam) for _ in range(POISSON_DRAWS)]


def chi_square_critical(df):
    """Wilson-Hilferty approximation of the chi-square upper 0.1 % point."""
    h = 2.0 / (9 * df)
    return df * (1 - h + CHI_SQUARE_Z * math.sqrt(h)) ** 3


class TestPoisson:
    """Inversion below a mean of 10 and PTRS from 10 up."""

    @pytest.mark.parametrize("lam", POISSON_MEANS)
    def test_mean_and_variance(self, lam):
        # Each within 5 standard errors: the mean's is sqrt(lam / n), the
        # sample variance's sqrt((lam + 2 lam^2) / n) for a Poisson law.
        draws = poisson_draws(lam, seed=1000 + POISSON_MEANS.index(lam))
        n = len(draws)
        mean = math.fsum(draws) / n
        variance = math.fsum((d - mean) ** 2 for d in draws) / (n - 1)
        assert all(isinstance(d, int) and d >= 0 for d in draws)
        assert abs(mean - lam) <= 5 * math.sqrt(lam / n)
        assert abs(variance - lam) <= 5 * math.sqrt((lam + 2 * lam * lam) / n)

    @pytest.mark.parametrize("lam, seed", [(3, 7), (30, 8)])
    def test_chi_square_against_the_pmf(self, lam, seed):
        # One bin per k from lo to hi, the ks expected at least 5 times;
        # the end bins also hold the tails beyond them.
        draws = poisson_draws(lam, seed)
        pmf = [math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
               for k in range(4 * lam + 40)]
        ks = [k for k, p in enumerate(pmf) if POISSON_DRAWS * p >= 5]
        lo, hi = ks[0], ks[-1]
        expected = ([math.fsum(pmf[:lo + 1])] + pmf[lo + 1:hi]
                    + [1 - math.fsum(pmf[:hi])])
        observed = [0] * len(expected)
        for d in draws:
            observed[min(max(d, lo), hi) - lo] += 1
        stat = sum((o - POISSON_DRAWS * e) ** 2 / (POISSON_DRAWS * e)
                   for o, e in zip(observed, expected))
        assert stat <= chi_square_critical(len(expected) - 1)

    @pytest.mark.parametrize("lam", [-3, -1e-9, math.nan, math.inf])
    def test_mean_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError):
            _poisson(random.Random(1), lam)

    @pytest.mark.parametrize("rate", [-3, math.nan, math.inf])
    def test_client_rate_must_be_finite_and_nonnegative(self, rate):
        with pytest.raises(ValueError, match="background_rate"):
            Simulator(seed=1).add_client("36.10.0.5", background_rate=rate)


class TestScenarioFiles:
    SCENARIO = """
[sim]
seed = 21
duration_s = 30
default_delay_ms = 5

[client c1]
addr = 36.10.0.5
ipid_mode = per-flow
background_rate = 2.5
rst_policy = yes

[server s1]
addr = 203.0.113.5
ports = 9001, 9030
backlog_capacity = 64
max_retransmissions = 4
backoff_s = 1, 2, 4, 8

[monitor mm]
addr = 198.51.100.9

[path c1 s1]
hops = 10.9.0.1, 10.9.0.2@CN
delay_ms = 30
loss_rate = 0.05
filtered = yes

[rule drop-tor]
direction = server->client
addr = 203.0.113.5
port = 9001
placement_hop = 2
hours = 0-5,22-23
"""

    def test_parse_and_build(self):
        scn = scenario.loads(self.SCENARIO)
        assert scn.seed == 21
        assert scn.duration_ns == 30 * NS_PER_SEC
        sim = scn.build()
        assert sim.server("203.0.113.5").max_retransmissions == 4
        assert sim.client("36.10.0.5").ipid_mode == "per-flow"
        rule = sim.policy.rules[0]
        assert rule.hours[0] and rule.hours[23] and not rule.hours[12]
        path = sim._paths[("36.10.0.5", "203.0.113.5")]
        assert path.filtered and len(path.hops) == 2
        assert path.hops[1].region == "CN"

    def test_seed_override(self):
        scn = scenario.loads(self.SCENARIO)
        assert scn.build(seed=99).seed == 99

    def test_hours_mask_literal(self):
        mask = scenario.parse_hours("110000000000000000000001")
        assert mask[0] and mask[1] and mask[23] and not mask[2]
        assert scenario.parse_hours("*") is None

    @pytest.mark.parametrize("hours", ["3-25", "24", "-1", "5-3", "x"])
    def test_bad_rule_hours_name_the_rule(self, hours):
        text = self.SCENARIO.replace("hours = 0-5,22-23", f"hours = {hours}")
        with pytest.raises(scenario.ScenarioError, match=r"\[rule drop-tor\]"):
            scenario.loads(text)

    def test_bad_section_rejected(self):
        with pytest.raises(scenario.ScenarioError):
            scenario.loads("[widget w]\nfoo = 1\n")
        with pytest.raises(scenario.ScenarioError):
            scenario.loads("[client]\naddr = 1.2.3.4\n")
        with pytest.raises(scenario.ScenarioError):
            scenario.loads("[client c1]\nipid_mode = global\n")
        for defaults in ("path_hop = 10.9.0.1", "path_filtered = maybe",
                         "client_ipid_mode = sequential",
                         "server_backlog_capacity = many",
                         "path_hops = 10.9.0.x"):
            with pytest.raises(scenario.ScenarioError):
                scenario.loads(f"[defaults]\n{defaults}\n")

    @pytest.mark.parametrize("old, new, section", [
        ("default_delay_ms = 5", "default_delay_ms = x", "sim"),
        ("ports = 9001, 9030", "ports = a,b", "server s1"),
        ("backoff_s = 1, 2, 4, 8", "down_s = 5", "server s1"),
        ("background_rate = 2.5", "background_rate = fast", "client c1"),
        ("addr = 36.10.0.5", "addr = notanaddr", "client c1"),
        ("addr = 198.51.100.9", "addr = 198.51.100", "monitor mm"),
        ("addr = 36.10.0.5", "addr = 036.10.0.5", "client c1"),
        ("addr = 203.0.113.5", "addr = 203.0.113.0x5", "server s1"),
        ("addr = 198.51.100.9", "addr = 198.51.100.9 x", "monitor mm"),
        ("delay_ms = 30", "delay_ms = x", "path c1 s1"),
        ("loss_rate = 0.05", "loss_rate = 5%", "path c1 s1"),
        ("hops = 10.9.0.1,", "hops = 10.9.0.x,", "path c1 s1"),
        ("hops = 10.9.0.1,", "hops = 010.9.0.1,", "path c1 s1"),
        ("server->client\naddr = 203.0.113.5", "server->client\naddr = 203.0.113.05",
         "rule drop-tor"),
        ("ports = 9001, 9030", "ports = 70000, 9030", "server s1"),
        ("ports = 9001, 9030", "ports = 9001, -1", "server s1"),
        ("port = 9001\n", "port = 70000\n", "rule drop-tor"),
    ])
    def test_bad_value_names_its_section(self, old, new, section):
        key = new.split(" =")[0].split("\n")[-1]
        text = self.SCENARIO.replace(old, new)
        with pytest.raises(scenario.ScenarioError,
                           match=rf"^\[{section}\] {key}: ") as info:
            scenario.loads(text)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("value", ["nan", "-3", "inf"])
    @pytest.mark.parametrize("old, new, prefix", [
        ("background_rate = 2.5", "background_rate = {}",
         "[client c1] background_rate: "),
        ("[monitor mm]", "[defaults]\nclient_background_rate = {}\n\n"
         "[monitor mm]", "[defaults] client_background_rate: "),
        ("delay_ms = 30", "delay_ms = {}", "[path c1 s1] delay_ms: "),
        ("default_delay_ms = 5", "default_delay_ms = {}",
         "[sim] default_delay_ms: "),
        ("[monitor mm]", "[defaults]\npath_delay_ms = {}\n\n[monitor mm]",
         "[defaults] path_delay_ms: "),
    ], ids=["client-rate", "defaults-rate", "path-delay", "sim-delay",
            "defaults-delay"])
    def test_bad_rate_or_delay_names_section_and_key(self, value, old, new,
                                                     prefix):
        text = self.SCENARIO.replace(old, new.format(value), 1)
        with pytest.raises(scenario.ScenarioError) as info:
            scenario.loads(text)
        message = str(info.value)
        assert message.startswith(prefix + repr(value))
        assert "\n" not in message

    @pytest.mark.parametrize("delay", ["-50", "-0.001", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("old, new, prefix", [
        ("hops = 10.9.0.1,", "hops = 10.9.0.1@CN@{},", "[path c1 s1] hops: "),
        ("[monitor mm]", "[defaults]\npath_hops = 10.9.0.1@CN@{}\n\n[monitor mm]",
         "[defaults] path_hops: "),
    ], ids=["path", "defaults"])
    def test_bad_hop_delay_names_section_and_key(self, delay, old, new, prefix):
        # A negative delay would answer a TTL-expiring probe before it was
        # sent.
        text = self.SCENARIO.replace(old, new.format(delay))
        with pytest.raises(scenario.ScenarioError) as info:
            scenario.loads(text)
        message = str(info.value)
        assert message.startswith(prefix) and repr(delay) in message
        assert "\n" not in message

    def test_hop_delays_load_from_zero(self):
        text = self.SCENARIO.replace("10.9.0.1, 10.9.0.2@CN",
                                     "10.9.0.1@@0, 10.9.0.2@CN@2.5")
        hops = scenario.loads(text).paths[0].hops
        assert [hop.delay_ns for hop in hops] == [0, 2_500_000]

    def test_padded_addr_loads_canonical(self):
        # configparser strips the value, so "1.2.3.4 " reads as 1.2.3.4.
        text = self.SCENARIO.replace("addr = 36.10.0.5", "addr = 36.10.0.5 ")
        assert scenario.loads(text).build().client("36.10.0.5")

    @pytest.mark.parametrize("text", [
        SCENARIO + "\n[client c1]\naddr = 36.10.0.6\n",  # duplicate section
        "seed = 1\n" + SCENARIO,  # no section header
        SCENARIO.replace("rst_policy = yes", "rst_policy = yes\nrst_policy = no"),
        SCENARIO.replace("[monitor mm]", "[monitor mm]\nno equals sign"),
    ])
    def test_malformed_file_raises_scenario_error(self, text):
        with pytest.raises(scenario.ScenarioError) as info:
            scenario.loads(text)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("header, key", [
        ("[sim]", "seeds"), ("[client c1]", "backround_rate"),
        ("[server s1]", "port"), ("[monitor mm]", "port"),
        ("[path c1 s1]", "hop"), ("[rule drop-tor]", "placment_hop")])
    def test_unknown_key_names_section_and_key(self, header, key):
        text = self.SCENARIO.replace(header, f"{header}\n{key} = 3")
        with pytest.raises(scenario.ScenarioError) as info:
            scenario.loads(text)
        assert str(info.value) == f"{header} unknown key: {key}"

    @pytest.mark.parametrize("kind", ["client", "server", "monitor"])
    def test_two_hosts_at_one_addr_name_both_sections(self, kind):
        text = (f"[client c1]\naddr = 36.10.0.5\n"
                f"[{kind} h2]\naddr = 36.10.0.5\n")
        with pytest.raises(scenario.ScenarioError) as err:
            scenario.loads(text)
        assert str(err.value) == (f"[{kind} h2] addr 36.10.0.5 already held "
                                  "by [client c1]")

    def test_duplicate_path_hops_unique(self):
        scn = scenario.loads(self.SCENARIO)
        path = scn.paths[0]
        addrs = [h.addr for h in path.hops]
        assert len(addrs) == len(set(addrs))


CLIENT = "36.10.0.5"
SERVER = "203.0.113.5"
DOWN_SERVER = "203.0.113.6"


def pinned_scenario(trace=None):
    """A small run through the simulator's wire model.

    It starts two seconds before the end of hour 0, so a server->client rule
    masked to hour 0 drops the first SYN/ACKs on the reverse (server to
    client) direction of a filtered path and passes the later ones.  It also
    covers loss, TTL expiry on a forward and on a reverse path, an unrouted
    destination, a server down interval and backlog pruning.  Returns what
    the monitor captured.
    """
    sim = Simulator(seed=41, trace=trace)
    t0 = HOUR_NS - 2 * NS_PER_SEC
    sim.add_server(DOWN_SERVER, open_ports=[80],
                   down_intervals=((t0 - NS_PER_SEC, t0 + NS_PER_SEC),))
    sim.step(t0 - 5 * NS_PER_SEC)
    sim.add_client(CLIENT, background_rate=0.5)
    sim.add_server(SERVER, open_ports=[9001], backlog_capacity=6)
    sim.add_path(CLIENT, SERVER, filtered=True, delay_ns=30_000_000,
                 hops=[Hop("10.1.0.1"), Hop("10.9.0.1", "CN"),
                       Hop("10.9.0.2", "CN")])
    sim.add_path(MM, SERVER, hops=[Hop("10.2.0.1"), Hop("10.2.0.2")],
                 delay_ns=20_000_000)
    sim.add_path(CLIENT, MM, hops=[Hop("10.3.0.1", delay_ns=2_000_000),
                                   Hop("10.3.0.2")], delay_ns=10_000_000,
                 loss_rate=0.3)
    sim.policy.rules.append(FilterRule(
        "synack-hour0", "server->client", addr=SERVER, port=9001,
        placement_hop=1, hours=tuple(h == 0 for h in range(24))))
    tr = sim.attach(MM)
    sim.step(t0)
    for i in range(5):  # fill the backlog past half, so entries get pruned
        send_syn(tr, sport=41000 + i)
    for i in range(3):
        send_syn(tr, sport=42000 + i, src=CLIENT)
    for i in range(4):  # unsolicited SYN/ACKs to the client over the lossy path
        tr.send(tr.craft_segment(
            dst_addr=CLIENT, dst_port=443, flags=("SYN", "ACK"),
            src_port=45000 + i))
    send_syn(tr, dst=DOWN_SERVER, port=80, sport=43000)
    send_syn(tr, dst="192.0.2.77", port=80, sport=43001)
    for ttl in (1, 2, 3):  # forward over (MM, SERVER), reverse over (CLIENT, MM)
        for dst, sport in ((SERVER, 44000), (CLIENT, 44001)):
            tr.send(tr.craft_segment(
                dst_addr=dst, dst_port=9001, flags=("SYN", "ACK"),
                src_port=sport, ttl=ttl))
    got = tr.capture([FlowKey(None, None, MM, None)],
                     tr.clock.now_ns() + 3 * NS_PER_SEC)
    send_syn(tr, dst=DOWN_SERVER, port=80, sport=43002)
    got += tr.capture([FlowKey(None, None, MM, None)],
                      tr.clock.now_ns() + 60 * NS_PER_SEC)
    return got


# sha256 of the trace of pinned_scenario() as sorted-key JSON, recorded
# before the simulator's per-packet path was reworked.
PINNED_TRACE_SHA256 = (
    "22178625c0418913145a582541e4e92f152b12cd2d9165dbb3768d552fd246e1")


class TestPinnedTrace:
    def test_trace_matches_recorded_digest(self):
        trace = []
        pinned_scenario(trace.append)
        kinds = {e["ev"] for e in trace}
        assert {"send", "deliver", "noise", "drop_loss", "drop_rule",
                "ttl_exceeded", "drop_unrouted", "host_down", "drop_offline",
                "drop_backlog_full", "backlog_insert", "retransmit",
                "backlog_remove"} <= kinds
        reasons = {e["reason"] for e in trace if e["ev"] == "backlog_remove"}
        assert {"pruned", "rst"} <= reasons
        expired_at = {e["hop"] for e in trace if e["ev"] == "ttl_exceeded"}
        assert expired_at & {"10.2.0.1", "10.2.0.2"}  # forward
        assert expired_at & {"10.3.0.1", "10.3.0.2"}  # reverse
        rule_drops = [e["t"] for e in trace if e["ev"] == "drop_rule"]
        client_rsts = [e["t"] for e in trace if e["ev"] == "deliver"
                       and e["src"] == CLIENT and e["dst"] == SERVER
                       and e["flags"] == "RST"]
        assert max(rule_drops) < HOUR_NS <= min(client_rsts)
        blob = json.dumps(trace, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_TRACE_SHA256

    def test_trace_sink_never_perturbs_the_run(self, tmp_path):
        """A sink makes every plan to a client or server deliver through
        ``_deliver``, which emits each delivery; without one, plans hand
        arrivals straight to the host's handler.  Arrivals at a monitor
        settle at launch either way.  Captures, verdicts, series and packet
        logs agree."""
        assert pinned_scenario(trace=[].append) == pinned_scenario()
        assert pinned_scenario() != []
        plain = backlog_pair(tmp_path / "backlog")
        assert backlog_pair(tmp_path / "backlog-traced", [].append) == plain
        assert [r["verdict"] for r in plain[0][1:]] == ["Passes", "Dropped"]
        plain = idle_scan(tmp_path / "idle")
        assert idle_scan(tmp_path / "idle-traced", [].append) == plain


def backlog_pair(log_dir, trace=None) -> tuple:
    """Baseline, SYN scan and RST scan of a relay whose firewall drops RSTs:
    the records and the bytes of both transports' packet logs."""
    log_dir.mkdir()
    sim = build_backlog_sim(drop_syn=False, drop_rst=True, trace=trace)
    mm, vps = (sim.attach(addr, isn_seed=3, packet_log=PacketLog(
        log_dir / f"{addr}.jsonl")) for addr in (MM, VPS_ADDR))
    base = backlog.baseline_probe(mm, SERVER_EP)
    syn = backlog.syn_scan(mm, vps, SERVER_EP, baseline=base)
    mm.clock.sleep_ns(80 * NS_PER_SEC)
    rst = backlog.rst_scan(mm, vps, SERVER_EP, baseline=base,
                           shared_isn_seed=7)
    mm.close()
    vps.close()
    return ([r.to_dict() for r in (base, syn, rst)],
            [(log_dir / f"{addr}.jsonl").read_bytes() for addr in (MM, VPS_ADDR)])


def idle_scan(log_dir, trace=None) -> tuple:
    """One idle scan of a noisy client behind a server->client rule: its
    series and the bytes of the prober's packet log."""
    log_dir.mkdir()
    sim = build_idle_sim("s2c", seed=17, noise=1.0, trace=trace)
    tr = sim.attach(MM, isn_seed=31, packet_log=PacketLog(log_dir / "mm.jsonl"))
    series = idlescan.run_idle_scan(tr, CLIENT_EP, SERVER_EP,
                                    idlescan.ScanRoundConfig())
    tr.close()
    return series.to_dict(), (log_dir / "mm.jsonl").read_bytes()


class TestClientServerPath:
    HOPS = (Hop("10.9.0.1"), Hop("10.9.0.2", "CN"), Hop("10.9.0.3", "CN"))

    def expired_hops(self, origin, dst, explicit=None):
        """Hops at which TTL 1, 2 and 3 probes from ``origin`` expire."""
        sim = Simulator(seed=3)
        sim.add_client(CLIENT)
        sim.add_server(SERVER, open_ports=[9001])
        sim.set_client_server_path(hops=self.HOPS, delay_ns=30_000_000)
        if explicit:
            sim.add_path(*explicit, hops=[Hop("10.8.0.1"), Hop("10.8.0.2")])
        tr = sim.attach(MM)
        for ttl in (1, 2, 3):
            # Spoofed from MM, so the time-exceeded replies come back to it.
            sim._launch(sim.now, TcpSegment(
                src_addr=MM, dst_addr=dst, src_port=40000, dst_port=9001,
                seq=ttl, ack=0, flags=frozenset(("SYN",)), ttl=ttl, ipid=0,
                timestamp=0), origin)
        got = tr.capture([FlowKey(None, None, MM, 40000)],
                         tr.clock.now_ns() + NS_PER_SEC)
        return [seg.src_addr for seg in sorted(got, key=lambda seg: seg.ack)]

    def test_pair_without_a_path_takes_the_template(self):
        forward = [hop.addr for hop in self.HOPS]
        assert self.expired_hops(CLIENT, SERVER) == forward
        assert self.expired_hops(SERVER, CLIENT) == forward[::-1]

    def test_explicit_path_wins_in_either_direction(self):
        for explicit in ((CLIENT, SERVER), (SERVER, CLIENT)):
            listed = ["10.8.0.1", "10.8.0.2"]
            expected = listed if explicit[0] == CLIENT else listed[::-1]
            # Two hops, so the TTL 3 probe reaches the server and is answered.
            assert self.expired_hops(CLIENT, SERVER, explicit) == expected + [SERVER]

    def test_client_added_after_traffic_takes_the_template(self):
        events = []
        sim = Simulator(seed=3, trace=events.append)
        sim.add_server(SERVER, open_ports=[9001])
        sim.set_client_server_path(hops=self.HOPS, delay_ns=30_000_000)
        tr = sim.attach(MM)
        send_syn(tr, src=CLIENT)  # answered while CLIENT is no host yet
        sim.step(NS_PER_SEC // 2)
        sim.add_client(CLIENT)
        sim.step(2 * NS_PER_SEC)
        [resent] = [e["t"] for e in events if e["ev"] == "retransmit"]
        arrivals = [e["t"] for e in events
                    if e["ev"] == "deliver" and e["dst"] == CLIENT]
        assert arrivals == [resent + 30_000_000]

    def test_other_pairs_keep_the_default_route(self):
        # MM -> server is not a client<->server pair: no hops to expire at.
        assert set(self.expired_hops(MM, SERVER)) == {SERVER}

    def test_same_run_as_add_path_per_pair(self):
        """Loss stream, placement hops and delays match an explicit
        add_path(client, server) for every pair."""
        clients = ("36.10.0.5", "36.10.0.6")
        servers = ("203.0.113.5", "203.0.113.6")
        route = dict(hops=self.HOPS, delay_ns=20_000_000, loss_rate=0.2,
                     filtered=True)

        def run(template):
            trace = []
            sim = Simulator(seed=8, trace=trace.append)
            for c in clients:
                sim.add_client(c, background_rate=0.5)
            for s in servers:
                sim.add_server(s, open_ports=[9001])
            if template:
                sim.set_client_server_path(**route)
            else:
                for c, s in itertools.product(clients, servers):
                    sim.add_path(c, s, **route)
            sim.policy.rules += [
                FilterRule("s2c", "server->client", addr=servers[0],
                           placement_hop=2),
                FilterRule("c2s", "client->server", addr=servers[1],
                           placement_hop=3)]
            tr = sim.attach(MM)
            for i, (c, s) in enumerate(itertools.product(clients, servers)):
                for j in range(4):
                    send_syn(tr, dst=s, sport=41000 + 10 * i + j, src=c)
            sim.step(40 * NS_PER_SEC)
            return trace

        trace = run(template=True)
        assert trace == run(template=False)
        kinds = {e["ev"] for e in trace}
        assert {"drop_loss", "drop_rule"} <= kinds
        rule_hops = {e["hop"] for e in trace if e["ev"] == "drop_rule"}
        assert rule_hops == {2, 3}

    def test_build_adds_csv_endpoints_without_paths(self):
        scn = scenario.loads(f"""
[monitor mm]
addr = {MM}

[server s1]
addr = {SERVER}
ports = 9001

[defaults]
client_background_rate = 0.5
server_backlog_capacity = 64
path_hops = 10.9.0.1, 10.9.0.2@CN
path_filtered = yes
""")
        clients = [EndpointSpec(CLIENT, 0, "client"),
                   EndpointSpec("36.10.0.6", 0, "client")]
        servers = [EndpointSpec(SERVER, 9001, "tor-relay"),
                   EndpointSpec("203.0.113.6", 9030, "tor-relay")]
        sim = scn.build(clients=clients, servers=servers)
        assert sim._paths == {}
        # Declared hosts, then CSV clients, then CSV servers: this order
        # fixes the order of the clients' noise events.
        assert list(sim.hosts) == [MM, SERVER, CLIENT, "36.10.0.6",
                                   "203.0.113.6"]
        assert sim.client("36.10.0.6").background_rate == 0.5
        assert sim.server("203.0.113.6").backlog_capacity == 64
        assert sim.server("203.0.113.6").open_ports == {9030}
        assert sim.server(SERVER).backlog_capacity == 256  # its own section


class TestRulesOnThePath:
    """The route plan holds each hop's rules; ``policy.rules`` stays a
    public list whose changes take effect from the next ``step``."""

    HOPS = (Hop("10.9.0.1"), Hop("10.9.0.2", "CN"), Hop("10.9.0.3", "CN"))

    def world(self, events, seed=5):
        sim = Simulator(seed=seed, trace=events.append)
        sim.add_client(CLIENT)
        sim.add_server(SERVER, open_ports=[9001])
        sim.add_path(CLIENT, SERVER, hops=self.HOPS, delay_ns=30_000_000,
                     filtered=True)
        return sim, sim.attach(MM)

    @staticmethod
    def synacks_to_client(events):
        return [e["dport"] for e in events if e["ev"] == "deliver"
                and e["dst"] == CLIENT and e["flags"] == "ACKSYN"]

    def test_rule_appended_after_traffic_applies_from_the_next_step(self):
        events = []
        sim, tr = self.world(events)
        send_syn(tr, src=CLIENT, sport=41000)
        sim.step(NS_PER_SEC // 2)
        assert self.synacks_to_client(events) == [41000]
        sim.policy.rules.append(FilterRule(
            "late", "server->client", addr=SERVER, port=9001, placement_hop=2))
        send_syn(tr, src=CLIENT, sport=41001)
        sim.step(sim.now + NS_PER_SEC // 2)
        assert self.synacks_to_client(events) == [41000]
        assert [(e["dport"], e["hop"]) for e in events
                if e["ev"] == "drop_rule"] == [(41001, 2)]
        sim.policy.rules.clear()
        send_syn(tr, src=CLIENT, sport=41002)
        sim.step(sim.now + NS_PER_SEC // 2)
        assert self.synacks_to_client(events)[-1] == 41002

    def test_rule_placed_off_the_path_never_matches(self):
        events = []
        sim, tr = self.world(events)
        sim.policy.rules += [FilterRule(name, direction, placement_hop=hop)
                             for hop in (0, 4, 9)
                             for name, direction in (("s2c", "server->client"),
                                                     ("c2s", "client->server"))]
        for i in range(3):
            send_syn(tr, src=CLIENT, sport=41000 + i)
        sim.step(2 * NS_PER_SEC)
        assert self.synacks_to_client(events) == [41000, 41001, 41002]
        assert not [e for e in events if e["ev"] == "drop_rule"]

    @pytest.mark.parametrize("trial", range(12))
    def test_drops_match_the_policy_asked_at_every_hop(self, trial):
        """Reference: walk every hop in travel order and ask the whole
        policy, as the simulator did before its plans held per-hop rules.
        Rules change midway and the run crosses an hour boundary."""
        rng = random.Random(trial)

        def random_rule(i):
            return FilterRule(
                f"r{i}", rng.choice(["server->client", "client->server"]),
                addr=rng.choice([SERVER, CLIENT, None]),
                port=rng.choice([9001, None]),
                action=rng.choice([DROP, PASS]),
                placement_hop=rng.choice([0, 1, 2, 2, 3, 4]),
                hours=rng.choice([None, tuple(rng.random() < 0.5
                                              for _ in range(24))]),
                flags=rng.choice([None, frozenset(["RST"]),
                                  frozenset(["SYN", "ACK"])]))

        events = []
        sim, tr = self.world(events, seed=trial)
        sim.step(HOUR_NS - 2 * NS_PER_SEC)
        sim.policy.rules += [random_rule(i) for i in range(6)]
        phases = []  # (last launch time under these rules, policy)

        def traffic(base):
            for i in range(8):
                send_syn(tr, src=CLIENT, sport=base + i)
                tr.send(tr.craft_segment(CLIENT, base + i, ("SYN", "ACK"),
                                         9001, src_addr=SERVER))
                tr.clock.sleep_ns(150_000_000)

        traffic(41000)
        phases.append((sim.now, FirewallPolicy(list(sim.policy.rules))))
        sim.policy.rules[:1] = [random_rule(i) for i in range(6, 9)]
        traffic(42000)
        sim.step(sim.now + 40 * NS_PER_SEC)
        phases.append((sim.now, FirewallPolicy(list(sim.policy.rules))))

        legs = [7_500_000 * k for k in (1, 2, 3)]
        expected = []
        for e in events:
            if e["ev"] != "send" or {e["origin"], e["dst"]} != {CLIENT, SERVER}:
                continue
            policy = next(p for until, p in phases if e["t"] <= until)
            seg = TcpSegment(e["src"], e["dst"], e["sport"], e["dport"], 0, 0,
                             frozenset(n for n in ("SYN", "ACK", "RST")
                                       if n in e["flags"]), 64, 0, e["t"])
            indices = (1, 2, 3) if e["origin"] == CLIENT else (3, 2, 1)
            for index, elapsed in zip(indices, legs):
                t = e["t"] + elapsed
                if policy.decide(seg, index, sim.hour_at(t)) == DROP:
                    expected.append((t, e["sport"], e["dport"], index))
                    break
        got = [(e["t"], e["sport"], e["dport"], e["hop"]) for e in events
               if e["ev"] == "drop_rule"]
        assert sorted(got) == sorted(expected)


@pytest.mark.parametrize("trace", [None, [].append], ids=["plain", "traced"])
class TestRulesPrunedByDestination:
    """A plan keeps only the rules that can match a segment to its
    destination, and for a segment from its origin only those that can
    match that source; with or without a sink, drops are those of the
    policy."""

    HOPS = (Hop("10.9.0.1"), Hop("10.9.0.2", "CN"), Hop("10.9.0.3", "CN"))
    OTHER = "203.0.113.6"

    def world(self, trace, rules=()):
        sim = Simulator(seed=6, trace=trace)
        sim.add_client(CLIENT)
        for server in (SERVER, self.OTHER):
            sim.add_server(server, open_ports=[9001])
        sim.set_client_server_path(hops=self.HOPS, delay_ns=30_000_000,
                                   filtered=True)
        sim.policy.rules += rules
        return sim, sim.attach(MM)

    def held(self, sim, tr, sport) -> list:
        """Servers that keep the half-open entry of a SYN spoofed from the
        client: the client's RST to the SYN/ACK, sent toward the server on
        the filtered path, removes it unless a rule drops that RST."""
        for server in (SERVER, self.OTHER):
            send_syn(tr, dst=server, src=CLIENT, sport=sport)
        sim.step(sim.now + NS_PER_SEC // 2)
        return [s for s in (SERVER, self.OTHER) if sim.server(s).backlog]

    def test_rule_naming_one_server_spares_the_other(self, trace):
        sim, tr = self.world(trace, [FilterRule(
            "c2s", "client->server", addr=SERVER, placement_hop=2)])
        assert self.held(sim, tr, 41000) == [SERVER]

    def test_rule_without_addr_drops_toward_every_server(self, trace):
        sim, tr = self.world(trace, [FilterRule(
            "c2s", "client->server", placement_hop=2)])
        assert self.held(sim, tr, 41000) == [SERVER, self.OTHER]

    def test_server_to_client_rule_drops_a_spoof_from_another_origin(self, trace):
        sim, tr = self.world(trace, [FilterRule(
            "s2c", "server->client", addr=SERVER, placement_hop=2)])
        sim.add_path(MM, CLIENT, hops=self.HOPS, filtered=True)
        client = sim.client(CLIENT)
        for src, answered in ((SERVER, 0), (self.OTHER, 1)):
            tr.send(tr.craft_segment(CLIENT, 443, ("SYN", "ACK"), 9001,
                                     src_addr=src))
            sim.step(sim.now + NS_PER_SEC // 2)
            assert client.sent_count == answered

    def test_rule_appended_between_steps_applies_from_the_next(self, trace):
        sim, tr = self.world(trace)
        assert self.held(sim, tr, 41000) == []
        sim.policy.rules.append(FilterRule(
            "c2s", "client->server", addr=SERVER, placement_hop=2))
        assert self.held(sim, tr, 41001) == [SERVER]

    def test_rules_asked_do_not_grow_with_rules_naming_others(self, trace):
        # A routed segment asks as many rules however many server->client
        # rules name other addresses, even placed first at the same hop.
        def asked(others):
            rules = [CountingRule(f"other-{i}", "server->client",
                                  addr=f"198.18.{i // 256}.{i % 256}",
                                  placement_hop=2) for i in range(others)]
            rules += [CountingRule(name, direction, addr=SERVER,
                                   placement_hop=2, action=PASS)
                      for name, direction in (("s2c", "server->client"),
                                              ("c2s", "client->server"))]
            sim, tr = self.world(trace, rules)
            CountingRule.asked = 0
            # The SYN/ACK reaches the client and its RST the server.
            assert self.held(sim, tr, 41000) == []
            return CountingRule.asked

        assert asked(0) == 2
        assert asked(1000) == 2


class CountingRule(FilterRule):
    """A rule that counts how often any rule of its class is asked."""

    asked = 0

    def applies(self, seg, hop, hour):
        CountingRule.asked += 1
        return super().applies(seg, hop, hour)
