from __future__ import annotations

import json
from collections import Counter

import pytest

from conftest import (
    CLIENT_ADDR,
    CLIENT_EP,
    MM_ADDR,
    SERVER_ADDR,
    SERVER_EP,
    build_idle_sim,
)
from inferscan.classify import PHASE_BASE, PHASE_PERTURB
from inferscan.endpoints import EndpointSpec
from inferscan.idlescan import (
    HOUR_NS,
    PHASE_DURATION_S,
    REASON_NOISY,
    REASON_OFFLINE,
    REASON_PER_FLOW,
    REASON_RANDOM,
    RoundVoided,
    ScanRoundConfig,
    client_liveliness,
    qualify_client,
    run_idle_campaign,
    run_idle_scan,
    run_scan_round,
    schedule_bipartite,
    server_liveliness,
)
from inferscan.simnet import Simulator
from inferscan.transport import NS_PER_SEC, PacketLog


class TestQualifyClient:
    def test_global_ipid_qualifies(self):
        sim = build_idle_sim("none")
        tr = sim.attach(MM_ADDR)
        result = qualify_client(tr, CLIENT_ADDR, window_s=20.0)
        assert result.qualified

    def test_per_flow_ipid_disqualified(self):
        sim = build_idle_sim("none", client_kwargs={"ipid_mode": "per-flow"})
        tr = sim.attach(MM_ADDR)
        result = qualify_client(tr, CLIENT_ADDR, window_s=20.0)
        assert not result.qualified
        assert result.reason == REASON_PER_FLOW

    def test_random_ipid_disqualified(self):
        sim = build_idle_sim("none", client_kwargs={"ipid_mode": "random"})
        tr = sim.attach(MM_ADDR)
        result = qualify_client(tr, CLIENT_ADDR, window_s=20.0)
        assert not result.qualified
        assert result.reason == REASON_RANDOM

    def test_noisy_client_disqualified(self):
        sim = build_idle_sim("none", noise=50.0)
        tr = sim.attach(MM_ADDR)
        result = qualify_client(tr, CLIENT_ADDR, window_s=20.0)
        assert not result.qualified
        assert result.reason == REASON_NOISY

    def test_offline_host(self):
        sim = Simulator(seed=1)
        tr = sim.attach(MM_ADDR)
        result = qualify_client(tr, "10.66.0.9", window_s=10.0)
        assert not result.qualified
        assert result.reason == REASON_OFFLINE


class TestLiveliness:
    def test_client_lossless_pass(self):
        sim = build_idle_sim("none")
        tr = sim.attach(MM_ADDR)
        check = client_liveliness(tr, CLIENT_ADDR)
        assert check.passed
        assert check.responses == check.sent == 25

    def test_client_heavy_loss_fails(self):
        sim = Simulator(seed=44)
        sim.add_client(CLIENT_ADDR)
        sim.add_path(MM_ADDR, CLIENT_ADDR, delay_ns=10_000_000, loss_rate=0.6)
        tr = sim.attach(MM_ADDR)
        check = client_liveliness(tr, CLIENT_ADDR)
        assert not check.passed
        assert check.responses < 13

    def test_client_offline_fails(self):
        sim = Simulator(seed=45)
        tr = sim.attach(MM_ADDR)
        check = client_liveliness(tr, "10.66.0.9")
        assert not check.passed and check.responses == 0

    def test_server_healthy_pass(self):
        sim = build_idle_sim("none")
        tr = sim.attach(MM_ADDR)
        assert server_liveliness(tr, SERVER_ADDR, 9001).passed

    def test_server_check_leaves_no_half_open_entries(self):
        sim = build_idle_sim("none")
        tr = sim.attach(MM_ADDR)
        assert server_liveliness(tr, SERVER_ADDR, 9001).passed
        tr.clock.sleep_ns(NS_PER_SEC)
        assert sim.server(SERVER_ADDR).backlog == {}

    def test_server_closed_port_fails(self):
        sim = build_idle_sim("none")
        tr = sim.attach(MM_ADDR)
        assert not server_liveliness(tr, SERVER_ADDR, 8080).passed

    def test_server_half_full_backlog_still_passes(self):
        sim = build_idle_sim("none")
        srv = sim.server(SERVER_ADDR)
        other = sim.attach("198.51.100.77")
        # Park the backlog above half so retransmissions are pruned to 3.
        for i in range(154):
            syn = other.craft_segment(
                dst_addr=SERVER_ADDR, dst_port=9001, flags=("SYN",),
                src_port=45000 + i)
            other.send(syn)
        other.clock.sleep_ns(NS_PER_SEC // 2)
        assert srv.occupancy > 0.5
        tr = sim.attach(MM_ADDR)
        check = server_liveliness(tr, SERVER_ADDR, 9001)
        assert check.passed  # reduced to 3 retransmissions, still >= 3


class TestRunIdleScan:
    def test_phase_integrity_via_packet_log(self, tmp_path):
        log_path = tmp_path / "packets.jsonl"
        sim = build_idle_sim("none")
        tr = sim.attach(MM_ADDR, packet_log=PacketLog(log_path))
        cfg = ScanRoundConfig()
        scan_start = tr.clock.now_ns()
        series = run_idle_scan(tr, CLIENT_EP, SERVER_EP, cfg)
        perturb_floor = scan_start + int(PHASE_DURATION_S * NS_PER_SEC)
        spoofed = [json.loads(line) for line in log_path.read_text().splitlines()
                   if json.loads(line)["dir"] == "out"
                   and json.loads(line)["src_addr"] == CLIENT_ADDR
                   and "SYN" in json.loads(line)["flags"]]
        assert spoofed, "perturb phase must send spoofed SYNs"
        assert min(rec["timestamp"] for rec in spoofed) >= perturb_floor
        phases = [s.phase for s in series.samples]
        assert phases.index(PHASE_PERTURB) == phases.count(PHASE_BASE)

    def test_flush_clears_backlog(self):
        sim = build_idle_sim("s2c")  # entries linger: client never sees SYN/ACKs
        tr = sim.attach(MM_ADDR)
        run_idle_scan(tr, CLIENT_EP, SERVER_EP, ScanRoundConfig())
        assert len(sim.server(SERVER_ADDR).backlog) == 0

    def test_sample_count_and_monotonicity(self):
        sim = build_idle_sim("none")
        tr = sim.attach(MM_ADDR)
        series = run_idle_scan(tr, CLIENT_EP, SERVER_EP, ScanRoundConfig())
        assert len(series.samples) == 120
        stamps = [s.timestamp for s in series.samples]
        assert stamps == sorted(stamps)

    def test_quiet_client_voids_round(self):
        sim = Simulator(seed=50)
        sim.add_client(CLIENT_ADDR, rst_policy=False)  # never answers probes
        sim.add_server(SERVER_ADDR, open_ports=[9001])
        tr = sim.attach(MM_ADDR)
        with pytest.raises(RoundVoided):
            run_idle_scan(tr, CLIENT_EP, SERVER_EP, ScanRoundConfig())


class TestRunScanRound:
    def test_successful_round_checks_all_pass(self):
        sim = build_idle_sim("none")
        tr = sim.attach(MM_ADDR)
        result = run_scan_round(tr, CLIENT_EP, SERVER_EP, hour=4)
        assert result.label.variant == "NoPacketsDropped"
        assert all(result.checks.values())
        assert result.hour == 4
        assert result.finished_at > result.started_at

    def test_unstable_relay_flagged(self):
        sim = build_idle_sim("none")
        tr = sim.attach(MM_ADDR)
        wobbly = EndpointSpec(SERVER_ADDR, 9001, "tor-relay", uptime_days=1.0)
        result = run_scan_round(tr, CLIENT_EP, wobbly)
        assert result.checks["stable_flag"] is False

    def test_dead_server_voids_before_scan(self):
        sim = Simulator(seed=51)
        sim.add_client(CLIENT_ADDR)
        tr = sim.attach(MM_ADDR)
        with pytest.raises(RoundVoided):
            run_scan_round(tr, CLIENT_EP, SERVER_EP)

    def test_mid_round_restart_voids(self):
        # Server dies after the pre-check and stays down: the post-scan
        # liveliness check must void the round.
        sim = build_idle_sim("none")
        srv = sim.server(SERVER_ADDR)
        srv.down_intervals = ((100 * NS_PER_SEC, 10_000 * NS_PER_SEC),)
        tr = sim.attach(MM_ADDR)
        with pytest.raises(RoundVoided):
            run_scan_round(tr, CLIENT_EP, SERVER_EP)


class TestScheduleBipartite:
    def clients(self, n):
        return [EndpointSpec(f"36.10.0.{i}", 0, "client") for i in range(1, n + 1)]

    def servers(self, n):
        return [EndpointSpec(f"203.0.113.{i}", 9001, "tor-relay",
                             uptime_days=9.0) for i in range(1, n + 1)]

    def test_two_by_two_exhaustive_no_overlap(self):
        plan = list(schedule_bipartite(self.clients(2), self.servers(2), seed=3))
        assert len(plan) == 4
        pairs = {(a.client.addr, a.server.addr) for a in plan}
        assert len(pairs) == 4
        for slot in {a.slot for a in plan}:
            in_slot = [a for a in plan if a.slot == slot]
            addrs = [a.client.addr for a in in_slot] + [a.server.addr for a in in_slot]
            assert len(addrs) == len(set(addrs))

    def test_twenty_by_twenty_covered_within_rounds(self):
        plan = list(schedule_bipartite(self.clients(20), self.servers(20),
                                       seed=9))
        assert len({(a.client.addr, a.server.addr) for a in plan}) == 400
        assert max(a.slot for a in plan) + 1 == 20 <= 24

    def test_same_seed_same_order(self):
        args = (self.clients(5), self.servers(3))
        first = [(a.slot, a.client.addr, a.server.addr)
                 for a in schedule_bipartite(*args, seed=42)]
        second = [(a.slot, a.client.addr, a.server.addr)
                  for a in schedule_bipartite(*args, seed=42)]
        assert first == second
        third = [(a.slot, a.client.addr, a.server.addr)
                 for a in schedule_bipartite(*args, seed=43)]
        assert first != third

    def test_more_clients_than_servers(self):
        plan = list(schedule_bipartite(self.clients(5), self.servers(2), seed=1))
        assert len({(a.client.addr, a.server.addr) for a in plan}) == 10
        for slot in {a.slot for a in plan}:
            in_slot = [a for a in plan if a.slot == slot]
            assert len({a.server.addr for a in in_slot}) == len(in_slot)

    @pytest.mark.parametrize("n_clients,n_servers", [(2, 1), (3, 5), (7, 4),
                                                     (5, 26), (30, 3), (1, 48)])
    def test_every_pair_in_every_hour(self, n_clients, n_servers):
        clients, servers = self.clients(n_clients), self.servers(n_servers)
        n_large = max(n_clients, n_servers)
        slots = 24 * n_large
        plan = list(schedule_bipartite(clients, servers, seed=5,
                                       max_slots=slots))
        by_slot = {}
        for a in plan:
            assert a.hour == a.slot % 24
            by_slot.setdefault(a.slot, []).append(a)
        assert sorted(by_slot) == list(range(slots))
        for in_slot in by_slot.values():
            assert len(in_slot) == min(n_clients, n_servers)
            addrs = ([a.client.addr for a in in_slot]
                     + [a.server.addr for a in in_slot])
            assert len(addrs) == len(set(addrs))
        seen = Counter((a.client.addr, a.server.addr, a.hour) for a in plan)
        assert len(seen) == n_clients * n_servers * 24
        assert set(seen.values()) == {1}
        first = {(a.client.addr, a.server.addr) for a in plan if a.slot < n_large}
        assert len(first) == n_clients * n_servers

    @pytest.mark.parametrize("max_slots", [0, 1, 3, 25, 49])
    def test_any_number_of_slots(self, max_slots):
        plan = list(schedule_bipartite(self.clients(2), self.servers(3),
                                       seed=1, max_slots=max_slots))
        assert len(plan) == 2 * max_slots
        assert {a.slot for a in plan} == set(range(max_slots))

    def test_first_day_keeps_its_matchings(self):
        # Slots k < 24 use rotation k mod L: the day shifts the rotation
        # only from slot 24 on.
        args = (self.clients(3), self.servers(5))
        day = list(schedule_bipartite(*args, seed=8, max_slots=24))
        assert day[:15] == list(schedule_bipartite(*args, seed=8))
        by_slot = {}
        for a in day:
            by_slot.setdefault(a.slot, set()).add((a.client.addr,
                                                   a.server.addr))
        assert all(by_slot[k] == by_slot[k % 5] for k in range(24))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            list(schedule_bipartite([], self.servers(1)))


class TestCampaign:
    def test_voided_rounds_never_stored(self):
        sim = build_idle_sim("none")
        # Second client exists but never responds: its rounds all void.
        sim.add_client("36.10.0.6", rst_policy=False)
        sim.add_path(MM_ADDR, "36.10.0.6", delay_ns=10_000_000)
        sim.add_path("36.10.0.6", SERVER_ADDR, delay_ns=20_000_000)
        tr = sim.attach(MM_ADDR)
        clients = [CLIENT_EP, EndpointSpec("36.10.0.6", 0, "client")]
        stored = []
        summary = run_idle_campaign(tr, clients, [SERVER_EP], seed=2, slots=2,
                                    on_result=lambda a, r: stored.append((a, r)))
        assert summary.completed == 1
        assert summary.voided == 1
        assert len(stored) == 1
        assert stored[0][1].client.addr == CLIENT_ADDR

    def test_slot_k_runs_at_campaign_hour_k(self):
        # One client against 24 relays: one round per slot, a full day.
        sim = build_idle_sim("none")
        servers = [SERVER_EP]
        for i in range(6, 29):
            addr = f"203.0.113.{i}"
            sim.add_server(addr, open_ports=[9001])
            servers.append(EndpointSpec(addr, 9001, "tor-relay",
                                        uptime_days=9.0))
        tr = sim.attach(MM_ADDR)
        stored = []
        summary = run_idle_campaign(tr, [CLIENT_EP], servers, seed=4, slots=24,
                                    on_result=lambda a, r: stored.append((a, r)))
        assert summary.completed == 24
        assert sorted(a.slot for a, _ in stored) == list(range(24))
        for a, r in stored:
            assert r.hour == a.hour == a.slot % 24
            assert r.started_at // HOUR_NS == a.slot

    def test_exclusivity_across_round_intervals(self):
        sim = build_idle_sim("none")
        sim.add_client("36.10.0.6", ipid_start=9)
        sim.add_path(MM_ADDR, "36.10.0.6", delay_ns=10_000_000)
        sim.add_path("36.10.0.6", SERVER_ADDR, delay_ns=20_000_000)
        sim.add_server("203.0.113.6", open_ports=[9001])
        clients = [CLIENT_EP, EndpointSpec("36.10.0.6", 0, "client")]
        servers = [SERVER_EP, EndpointSpec("203.0.113.6", 9001, "tor-relay",
                                           uptime_days=9.0)]
        tr = sim.attach(MM_ADDR)
        stored = []
        run_idle_campaign(tr, clients, servers, seed=2, slots=2,
                          on_result=lambda a, r: stored.append((a, r)))
        for (a1, r1) in stored:
            for (a2, r2) in stored:
                if r1 is r2:
                    continue
                overlap = (r1.started_at < r2.finished_at
                           and r2.started_at < r1.finished_at)
                if overlap:
                    assert {r1.client.addr, r1.server.addr}.isdisjoint(
                        {r2.client.addr, r2.server.addr})
