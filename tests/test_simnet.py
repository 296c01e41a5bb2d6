from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import pytest

from inferscan import scenario
from inferscan.endpoints import EndpointSpec
from inferscan.simnet import (
    DROP,
    HOUR_NS,
    PASS,
    FilterRule,
    FirewallPolicy,
    Hop,
    Simulator,
    effective_retransmissions,
    firewall_decide,
)
from inferscan.transport import NS_PER_SEC, FlowKey, SegmentSpec, TcpSegment

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
        seg = tr.craft_segment(SegmentSpec(dst_addr="36.10.0.5", dst_port=80,
                                           flags=("SYN",), src_port=40000))
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
            sent = tr.send(tr.craft_segment(SegmentSpec(
                dst_addr="36.10.0.5", dst_port=80, flags=("SYN",),
                src_port=sport)))
            got = tr.capture([FlowKey("36.10.0.5", 80, MM, sport)], NS_PER_SEC)
            return got[0].timestamp - sent.timestamp

        assert rtt(40000) == 20_000_000
        path = sim.add_path(MM, "36.10.0.5", hops=[Hop("10.1.0.1")],
                            delay_ns=40_000_000)
        assert rtt(40001) == 80_000_000  # both directions take the new path
        tr.send(tr.craft_segment(SegmentSpec(
            dst_addr="36.10.0.5", dst_port=80, flags=("SYN",),
            src_port=40002, ttl=1)))
        sim.step(sim.now + NS_PER_SEC)
        assert [e["hop"] for e in events if e["ev"] == "ttl_exceeded"] == ["10.1.0.1"]
        assert path.hops == (Hop("10.1.0.1"),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.one_way_delay_ns = 1

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
                seg = tr.craft_segment(SegmentSpec(
                    dst_addr="203.0.113.5", dst_port=9001, flags=("SYN",),
                    src_port=41000 + i, src_addr="36.10.0.5"))
                tr.send(seg)
            sim.step(40 * NS_PER_SEC)
            return trace
        assert run() == run()


class TestEffectiveRetransmissions:
    def test_below_half(self):
        assert effective_retransmissions(0.30) == 5

    def test_engineered_fill_level(self):
        assert effective_retransmissions(150 / 256) == 3

    def test_heavy_load(self):
        assert effective_retransmissions(0.90) == 2

    def test_boundaries(self):
        assert effective_retransmissions(0.5) == 5
        assert effective_retransmissions(0.75) == 3

    def test_respects_configured_maximum(self):
        assert effective_retransmissions(0.30, max_retransmissions=3) == 3
        assert effective_retransmissions(0.60, max_retransmissions=3) == 3

    def test_range_check(self):
        with pytest.raises(ValueError):
            effective_retransmissions(1.5)


class TestFirewallDecide:
    def policy(self, **kwargs):
        defaults = dict(name="blk", direction="server->client",
                        addr="203.0.113.5", port=9001, placement_hop=2)
        defaults.update(kwargs)
        return FirewallPolicy(rules=[FilterRule(**defaults)])

    def test_drop_at_placement_hop(self):
        assert firewall_decide(synack(), 2, self.policy(), 12) == DROP

    def test_pass_before_placement_hop(self):
        assert firewall_decide(synack(), 1, self.policy(), 12) == PASS

    def test_client_to_server_direction_unmatched(self):
        syn = TcpSegment(src_addr="36.10.0.5", dst_addr="203.0.113.5",
                         src_port=50000, dst_port=9001, seq=1, ack=0,
                         flags=frozenset(("SYN",)), ttl=64, ipid=0, timestamp=0)
        assert firewall_decide(syn, 2, self.policy(), 12) == PASS

    def test_hour_mask(self):
        mask = tuple(h >= 12 for h in range(24))
        policy = self.policy(hours=mask)
        assert firewall_decide(synack(), 2, policy, 3) == PASS
        assert firewall_decide(synack(), 2, policy, 15) == DROP

    def test_first_match_wins(self):
        allow = FilterRule("allow", "server->client", addr="203.0.113.5",
                           port=9001, action=PASS, placement_hop=2)
        deny = FilterRule("deny", "server->client", addr="203.0.113.5",
                          placement_hop=2)
        policy = FirewallPolicy(rules=[allow, deny])
        assert firewall_decide(synack(), 2, policy, 0) == PASS

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
        assert firewall_decide(rst, 2, policy, 0) == DROP
        assert firewall_decide(syn, 2, policy, 0) == PASS

    def test_validation(self):
        with pytest.raises(ValueError):
            firewall_decide(synack(), 0, FirewallPolicy(), 0)
        with pytest.raises(ValueError):
            firewall_decide(synack(), 1, FirewallPolicy(), 24)
        with pytest.raises(ValueError):
            FilterRule("x", "sideways")
        with pytest.raises(ValueError):
            FilterRule("x", "server->client", hours=(True,) * 23)


def send_syn(tr, dst="203.0.113.5", port=9001, sport=41000, src=None, seq=None):
    seg = tr.craft_segment(SegmentSpec(dst_addr=dst, dst_port=port,
                                       flags=("SYN",), src_port=sport,
                                       src_addr=src, seq=seq))
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
        rst = tr.craft_segment(SegmentSpec(
            dst_addr="203.0.113.5", dst_port=9001, flags=("RST",),
            src_port=41000, seq=(syn.seq + 2) & 0xFFFFFFFF))
        tr.send(rst)
        sim.step(2 * NS_PER_SEC)
        assert len(srv.backlog) == 2
        rst = tr.craft_segment(SegmentSpec(
            dst_addr="203.0.113.5", dst_port=9001, flags=("RST",),
            src_port=41000, seq=(syn.seq + 1) & 0xFFFFFFFF))
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
                          NS_PER_SEC // 2)
        assert len(segs) == 1 and segs[0].has("SYN", "ACK")
        ack = tr.craft_segment(SegmentSpec(
            dst_addr="203.0.113.5", dst_port=9001, flags=("ACK",),
            src_port=41000, seq=(syn.seq + 1) & 0xFFFFFFFF,
            ack=(segs[0].seq + 1) & 0xFFFFFFFF))
        tr.send(ack)
        sim.step(3 * NS_PER_SEC)
        assert len(srv.backlog) == 0
        # Handshake completed: no retransmissions follow.
        assert tr.capture([FlowKey("203.0.113.5", 9001, MM, 41000)],
                          40 * NS_PER_SEC) == []

    def test_retransmission_gaps_follow_backoff(self):
        sim = Simulator(seed=5)
        sim.add_server("203.0.113.5", open_ports=[9001])
        tr = sim.attach(MM)
        send_syn(tr, sport=41000)
        segs = tr.capture([FlowKey("203.0.113.5", 9001, MM, 41000)],
                          70 * NS_PER_SEC)
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
            rst = tr.craft_segment(SegmentSpec(
                dst_addr="203.0.113.5", dst_port=9001, flags=("RST",),
                src_addr="36.10.0.5", src_port=syn.src_port,
                seq=(syn.seq + 1) & 0xFFFFFFFF))
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


class TestClient:
    def test_ipid_conservation(self):
        sim = Simulator(seed=8)
        client = sim.add_client("36.10.0.5", ipid_start=1000,
                                background_rate=20.0)
        tr = sim.attach(MM)
        start_counter = client.ipid_counter
        start_sent = client.sent_count
        for _ in range(5):
            seg = tr.craft_segment(SegmentSpec(
                dst_addr="36.10.0.5", dst_port=443, flags=("SYN", "ACK"),
                src_port=40000))
            tr.send(seg)
            tr.clock.sleep_ns(NS_PER_SEC)
        advance = (client.ipid_counter - start_counter) % 65536
        assert advance == client.sent_count - start_sent

    def test_rst_policy_off(self):
        sim = Simulator(seed=9)
        sim.add_client("36.10.0.5", rst_policy=False)
        tr = sim.attach(MM)
        seg = tr.craft_segment(SegmentSpec(
            dst_addr="36.10.0.5", dst_port=443, flags=("SYN", "ACK"),
            src_port=40000))
        tr.send(seg)
        assert tr.capture([FlowKey("36.10.0.5", 443, MM, 40000)],
                          NS_PER_SEC) == []

    def test_unsolicited_synack_elicits_exactly_one_rst(self):
        sim = Simulator(seed=10)
        sim.add_client("36.10.0.5")
        tr = sim.attach(MM)
        seg = tr.craft_segment(SegmentSpec(
            dst_addr="36.10.0.5", dst_port=443, flags=("SYN", "ACK"),
            src_port=40000))
        tr.send(seg)
        got = tr.capture([FlowKey("36.10.0.5", 443, MM, 40000)],
                         5 * NS_PER_SEC)
        assert len(got) == 1
        assert got[0].flags == frozenset(("RST",))
        assert got[0].seq == seg.ack


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

    def test_bad_section_rejected(self):
        with pytest.raises(scenario.ScenarioError):
            scenario.loads("[widget w]\nfoo = 1\n")
        with pytest.raises(scenario.ScenarioError):
            scenario.loads("[client]\naddr = 1.2.3.4\n")
        with pytest.raises(scenario.ScenarioError):
            scenario.loads("[client c1]\nipid_mode = global\n")
        for defaults in ("path_hop = 10.9.0.1", "path_filtered = maybe",
                         "client_ipid_mode = sequential",
                         "server_backlog_capacity = many"):
            with pytest.raises(scenario.ScenarioError):
                scenario.loads(f"[defaults]\n{defaults}\n")

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
        tr.send(tr.craft_segment(SegmentSpec(
            dst_addr=CLIENT, dst_port=443, flags=("SYN", "ACK"),
            src_port=45000 + i)))
    send_syn(tr, dst=DOWN_SERVER, port=80, sport=43000)
    send_syn(tr, dst="192.0.2.77", port=80, sport=43001)
    for ttl in (1, 2, 3):  # forward over (MM, SERVER), reverse over (CLIENT, MM)
        for dst, sport in ((SERVER, 44000), (CLIENT, 44001)):
            tr.send(tr.craft_segment(SegmentSpec(
                dst_addr=dst, dst_port=9001, flags=("SYN", "ACK"),
                src_port=sport, ttl=ttl)))
    got = tr.capture([FlowKey(None, None, MM, None)], 3 * NS_PER_SEC)
    send_syn(tr, dst=DOWN_SERVER, port=80, sport=43002)
    got += tr.capture([FlowKey(None, None, MM, None)], 60 * NS_PER_SEC)
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

    def test_trace_sink_never_perturbs_the_run(self):
        assert pinned_scenario(trace=[].append) == pinned_scenario()
        assert pinned_scenario() != []


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
        got = tr.capture([FlowKey(None, None, MM, 40000)], NS_PER_SEC)
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
