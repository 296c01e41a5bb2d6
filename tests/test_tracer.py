from __future__ import annotations

import pytest

from inferscan.simnet import FilterRule, Hop, Simulator
from inferscan.tracer import (
    DEFAULT_PREFIX_ROWS,
    LABEL_COM,
    LABEL_EDU,
    LABEL_OTHER,
    MAX_TTL,
    PrefixTable,
    STATUS_FINISHED,
    STATUS_STALLED,
    TraceConfig,
    TracerouteRun,
    HopRecord,
    classify_entry,
    hops_into_region,
    label_run,
    paired_run,
    run_trace_campaign,
    run_traceroute,
)
from inferscan.transport import NS_PER_SEC, FlowKey

RELAY = "193.10.0.9"
DEST = "36.10.0.5"

COM_HOPS = [Hop("80.1.0.1"), Hop("80.1.0.2"),
            Hop("202.97.0.1", region="CN"), Hop("202.97.0.2", region="CN"),
            Hop("202.97.0.3", region="CN")]
EDU_HOPS = [Hop("80.1.0.1"), Hop("80.1.0.2"),
            Hop("159.226.0.1", region="CN"), Hop("159.226.0.2", region="CN")]


def build_trace_sim(hops=None, placement=None, seed=4, hours=None):
    sim = Simulator(seed=seed)
    sim.add_client(DEST)
    sim.add_path(RELAY, DEST, hops=list(hops if hops is not None else COM_HOPS),
                 delay_ns=60_000_000, filtered=True)
    if placement is not None:
        sim.policy.rules.append(FilterRule(
            "gfw", "server->client", addr=RELAY, port=9001,
            placement_hop=placement, hours=hours))
    return sim


class TestRunTraceroute:
    def test_control_port_finishes_with_all_hops(self):
        sim = build_trace_sim(placement=4)
        tr = sim.attach(RELAY)
        run = run_traceroute(tr, DEST, 9002)
        assert run.status == STATUS_FINISHED
        responders = [h.responder for h in run.hops]
        assert responders == [h.addr for h in COM_HOPS] + [DEST]

    def test_filtered_port_stalls_at_placement(self):
        sim = build_trace_sim(placement=4)
        tr = sim.attach(RELAY)
        run = run_traceroute(tr, DEST, 9001)
        assert run.status == STATUS_STALLED
        responding = run.responding_hops()
        assert responding[-1].responder == "202.97.0.2"
        assert len(responding) == 4

    def test_unreachable_destination_stalls_both(self):
        sim = Simulator(seed=5)
        sim.add_path(RELAY, "10.99.0.1", hops=list(COM_HOPS), delay_ns=50_000_000)
        tr = sim.attach(RELAY)
        tor, rand = paired_run(tr, "10.99.0.1", hour=0)
        assert tor.status == STATUS_STALLED
        assert rand.status == STATUS_STALLED

    def test_replies_to_every_probe_are_captured(self):
        # Probes leave 0.1 s apart and each reply takes 0.4 s, well inside
        # its probe's response window, also for the last probe at 2.9 s.
        sim = Simulator(seed=4)
        sim.add_client(DEST)
        sim.add_path(RELAY, DEST, hops=list(COM_HOPS), delay_ns=200_000_000)
        tr = sim.attach(RELAY)
        run = run_traceroute(tr, DEST, 9002)
        assert run.status == STATUS_FINISHED
        assert tr.queued == 0
        assert tr.capture([FlowKey(None, None, RELAY, 9002)],
                          tr.clock.now_ns() + 60 * NS_PER_SEC) == []

    def test_rtt_increases_along_path(self):
        sim = build_trace_sim()
        tr = sim.attach(RELAY)
        run = run_traceroute(tr, DEST, 9002)
        rtts = [h.rtt_ns for h in run.responding_hops()]
        assert rtts == sorted(rtts)

    def test_port_independence_without_filtering(self):
        sim = build_trace_sim(placement=None)
        tr = sim.attach(RELAY)
        tor, rand = paired_run(tr, DEST, hour=0)
        assert [h.responder for h in tor.hops] == [h.responder for h in rand.hops]

    def test_hops_strictly_increasing_ttls(self):
        with pytest.raises(ValueError):
            TracerouteRun(dest=DEST, src_port=9001, flags=("SYN", "ACK"),
                          hops=[HopRecord(2, None, None), HopRecord(1, None, None)],
                          status=STATUS_STALLED, hour=0)


class TestPairedRun:
    def test_filtered_path_pair(self):
        sim = build_trace_sim(placement=4)
        tr = sim.attach(RELAY)
        tor, rand = paired_run(tr, DEST, hour=7)
        assert (tor.status, rand.status) == (STATUS_STALLED, STATUS_FINISHED)
        assert tor.hour == rand.hour == 7

    def test_unfiltered_path_pair(self):
        sim = build_trace_sim(placement=None)
        tr = sim.attach(RELAY)
        tor, rand = paired_run(tr, DEST, hour=0)
        assert (tor.status, rand.status) == (STATUS_FINISHED, STATUS_FINISHED)


class TestClassifyEntry:
    def make_run(self, responders, status=STATUS_STALLED):
        hops = [HopRecord(i + 1, addr, 1000 + i) for i, addr in
                enumerate(responders)]
        return TracerouteRun(dest=DEST, src_port=9001, flags=("SYN", "ACK"),
                             hops=hops, status=status, hour=0)

    def test_commercial_backbone(self):
        run = self.make_run(["80.1.0.1", "202.97.0.7", "202.97.0.8"])
        assert classify_entry(run, PrefixTable()) == LABEL_COM

    def test_education_backbone(self):
        run = self.make_run(["80.1.0.1", "159.226.0.7"])
        assert classify_entry(run, PrefixTable()) == LABEL_EDU

    def test_no_known_entry(self):
        run = self.make_run(["80.1.0.1", "80.1.0.2"])
        assert classify_entry(run, PrefixTable()) == LABEL_OTHER

    def test_no_responding_hops_rejected(self):
        run = self.make_run([None, None])
        with pytest.raises(ValueError):
            classify_entry(run, PrefixTable())

    def test_attribution_is_pure(self):
        run = self.make_run(["80.1.0.1", "202.97.0.7"])
        table = PrefixTable()
        assert classify_entry(run, table) == classify_entry(run, table)


class TestHopsIntoRegion:
    def test_stall_immediately_after_entry(self):
        sim = build_trace_sim(placement=3)  # entry hop is index 3
        tr = sim.attach(RELAY)
        run = run_traceroute(tr, DEST, 9001)
        assert hops_into_region(run, PrefixTable()) == 1

    def test_two_hops_into_region(self):
        sim = build_trace_sim(placement=4)
        tr = sim.attach(RELAY)
        run = run_traceroute(tr, DEST, 9001)
        assert hops_into_region(run, PrefixTable()) == 2

    def test_finished_run_rejected(self):
        sim = build_trace_sim(placement=4)
        tr = sim.attach(RELAY)
        run = run_traceroute(tr, DEST, 9002)
        with pytest.raises(ValueError):
            hops_into_region(run, PrefixTable())

    def test_run_outside_region_rejected(self):
        sim = Simulator(seed=6)
        sim.add_path(RELAY, "10.99.0.1", hops=[Hop("80.1.0.1")],
                     delay_ns=20_000_000)
        tr = sim.attach(RELAY)
        run = run_traceroute(tr, "10.99.0.1", 9001)
        with pytest.raises(ValueError):
            hops_into_region(run, PrefixTable())


class TestPrefixTable:
    def test_longest_prefix_wins(self):
        table = PrefixTable(rows=(("202.97.0.0/16", "COM", "CN"),
                                  ("202.97.5.0/24", "EDU", "CN")))
        assert table.lookup("202.97.5.9").label == "EDU"
        assert table.lookup("202.97.6.9").label == "COM"

    def test_miss_returns_none(self):
        assert PrefixTable().lookup("8.8.8.8") is None

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "prefixes.csv"
        path.write_text("cidr,label,region\n# the built-in table\n\n"
                        + "".join(f"{cidr}, {label} ,{region}\n"
                                  for cidr, label, region
                                  in DEFAULT_PREFIX_ROWS))
        table = PrefixTable()
        back = PrefixTable.from_csv(path)
        assert [(str(e.network), e.label, e.region) for e in back.entries] == \
               [(str(e.network), e.label, e.region) for e in table.entries]

    @pytest.mark.parametrize("row", ["10.0.0.0/8,EDU", "10.0.0.0/8",
                                     "10.0.0.0/33,EDU,CN", "not-a-net,EDU,CN"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "prefixes.csv"
        path.write_text(f"cidr,label,region\n202.97.0.0/16,COM,CN\n{row}\n")
        with pytest.raises(ValueError, match=r"prefixes\.csv, line 3: "):
            PrefixTable.from_csv(path)

    def test_label_run_sets_other_on_failure(self):
        run = TracerouteRun(dest=DEST, src_port=9001, flags=("SYN", "ACK"),
                            hops=[HopRecord(1, None, None)],
                            status=STATUS_STALLED, hour=0)
        assert label_run(run, PrefixTable()).entry_label == LABEL_OTHER

    def test_run_round_trip(self):
        run = TracerouteRun(dest=DEST, src_port=9001, flags=("SYN", "ACK"),
                            hops=[HopRecord(1, "80.1.0.1", 500),
                                  HopRecord(2, None, None)],
                            status=STATUS_STALLED, hour=3, entry_label="COM")
        assert TracerouteRun.from_dict(run.to_dict()) == run


class TestSchedule:
    def test_hourly_mask_gates_filtering(self):
        mask = tuple(not (2 <= h <= 10) for h in range(24))  # off 2..10
        sim = build_trace_sim(placement=4, hours=mask)
        tr = sim.attach(RELAY)
        outcomes = {}
        for hour in range(24):
            tr.clock.sleep_until(hour * 3600 * NS_PER_SEC)
            tor, rand = paired_run(tr, DEST, hour=hour)
            outcomes[hour] = (tor.status, rand.status)
        for hour, (tor_status, rand_status) in outcomes.items():
            assert rand_status == STATUS_FINISHED
            expected = STATUS_FINISHED if 2 <= hour <= 10 else STATUS_STALLED
            assert tor_status == expected, f"hour {hour}"


class TestSettings:
    @pytest.mark.parametrize("kwargs, why", [
        ({"tor_port": -1}, "tor_port must be within 0-65535, got -1"),
        ({"rand_port": 65536}, "rand_port must be within 0-65535, got 65536"),
        ({"tor_port": 9002}, "tor_port and rand_port are both 9002"),
    ], ids=["tor-port-negative", "rand-port-65536", "same-port"])
    def test_config_refuses(self, kwargs, why):
        with pytest.raises(ValueError, match=f"^{why}$"):
            TraceConfig(**kwargs)

    def test_config_edges_admitted(self):
        cfg = TraceConfig(tor_port=0, rand_port=65535)
        assert (cfg.tor_port, cfg.rand_port) == (0, 65535)

    def test_largest_ttl_is_an_ip_ttl(self):
        # A probe's TTL is one byte, and TTL 0 would never leave the host.
        assert 1 <= MAX_TTL <= 255

    @pytest.mark.parametrize("hours, days, why", [
        (0, 1, "hours must be within 1-24, got 0"),
        (25, 1, "hours must be within 1-24, got 25"),
        (24, 0, "days must be at least 1, got 0"),
    ], ids=["hours-0", "hours-25", "days-0"])
    def test_campaign_refuses_before_the_first_probe(self, hours, days, why):
        tr = build_trace_sim().attach(RELAY)
        pairs = []
        with pytest.raises(ValueError, match=f"^{why}$"):
            run_trace_campaign(tr, [DEST], PrefixTable(), TraceConfig(),
                               hours=hours, days=days,
                               on_pair=lambda *a: pairs.append(a))
        assert pairs == [] and tr.clock.now_ns() == 0
