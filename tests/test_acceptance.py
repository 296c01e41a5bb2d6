"""Acceptance suite: one test per criterion, each printing a summary line.

Every check runs against the simulator oracle or a fixture with frozen
expected values; tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

import pytest

from conftest import (
    CLIENT_EP,
    MM_ADDR,
    SERVER_ADDR,
    SERVER_EP,
    VPS_ADDR,
    build_backlog_sim,
    build_idle_sim,
)
from inferscan import store
from inferscan.analytics import (
    SourceSeries,
    diurnal_series,
    grid_sample,
    hop_histogram,
    pearson,
    spatial_association,
    temporal_association,
)
from inferscan.backlog import (
    BacklogScanConfig,
    BacklogScanRecord,
    BaselineProfile,
    KIND_SYN,
    REASON_NO_BACKOFF,
    REASON_NON_DEFAULT,
    REASON_OFFLINE,
    VERDICT_DROPPED,
    VERDICT_PASSES,
    baseline_probe,
    rst_scan,
    syn_scan,
)
from inferscan.classify import (
    CLIENT_TO_SERVER_DROP,
    ERROR,
    NO_PACKETS_DROPPED,
    SERVER_TO_CLIENT_DROP,
    classify_series,
    intervention_amplitude,
)
from inferscan.cli import main
from inferscan.endpoints import EndpointSpec
from inferscan.idlescan import ScanRoundConfig, run_idle_scan
from inferscan.simnet import FilterRule, Hop, Simulator
from inferscan.store import RecordStore, ScanRecord, load, prune_campaign, redact_addr
from inferscan.tracer import PrefixTable, TraceConfig, paired_run
from inferscan.transport import NS_PER_SEC

TRUTH = {"s2c": SERVER_TO_CLIENT_DROP, "none": NO_PACKETS_DROPPED,
         "c2s": CLIENT_TO_SERVER_DROP}


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


class TestCriterion1IdleScanOracle:
    def test_classifier_oracle_suite(self):
        started = time.monotonic()
        cfg = ScanRoundConfig()
        total = correct = errors = worst_noise_rounds = worst_noise_errors = 0
        for policy in ("s2c", "none", "c2s"):
            for noise in (0.0, 1.0, 5.0):
                for loss in (0.0, 0.02):
                    for seed in range(10):
                        sim = build_idle_sim(policy, seed=1000 + seed,
                                             noise=noise, loss=loss)
                        tr = sim.attach(MM_ADDR, isn_seed=seed)
                        series = run_idle_scan(tr, CLIENT_EP, SERVER_EP, cfg)
                        label = classify_series(series, settle_s=cfg.settle_s)
                        total += 1
                        if noise == 5.0:
                            worst_noise_rounds += 1
                        if label.variant == ERROR:
                            errors += 1
                            if noise == 5.0:
                                worst_noise_errors += 1
                        elif label.variant == TRUTH[policy]:
                            correct += 1
        assert total == 180
        non_error = total - errors
        accuracy = correct / non_error
        assert accuracy >= 0.95
        assert worst_noise_errors / worst_noise_rounds <= 0.20

        # Noiseless amplitude identities.
        sim = build_idle_sim("none")
        series = run_idle_scan(sim.attach(MM_ADDR, isn_seed=1), CLIENT_EP,
                               SERVER_EP, cfg)
        amp2, _ = intervention_amplitude(series, settle_s=cfg.settle_s)
        assert abs(amp2 - 1.0) <= 1e-6
        amp3 = {}
        for m in (3, 4, 5):
            sim = build_idle_sim("c2s", max_rt=m)
            series = run_idle_scan(sim.attach(MM_ADDR, isn_seed=1), CLIENT_EP,
                                   SERVER_EP, cfg)
            amp3[m], _ = intervention_amplitude(series, settle_s=cfg.settle_s)
            assert amp3[m] == m + 1
        elapsed = time.monotonic() - started
        assert elapsed <= 120.0
        report(f"1 PASS: oracle suite {correct}/{non_error} correct "
               f"({100 * accuracy:.1f}%), {errors} errors, case2 amp {amp2}, "
               f"case3 amps {sorted(amp3.values())}, {elapsed:.1f}s")


class TestCriterion2BacklogSoundness:
    def run_pair(self, drop_syn, drop_rst, seed, loss):
        sim = build_backlog_sim(drop_syn, drop_rst, seed=seed, loss=loss)
        mm = sim.attach(MM_ADDR, isn_seed=seed)
        vps = sim.attach(VPS_ADDR, isn_seed=seed)
        cfg = BacklogScanConfig()
        base = baseline_probe(mm, SERVER_EP, cfg)
        mm.clock.sleep_ns(2 * NS_PER_SEC)
        if not base.valid:
            return None, None, sim
        s = syn_scan(mm, vps, SERVER_EP, cfg, baseline=base)
        mm.clock.sleep_ns(80 * NS_PER_SEC)
        r = rst_scan(mm, vps, SERVER_EP, cfg, baseline=base,
                     shared_isn_seed=seed)
        return s, r, sim

    def test_two_by_two_soundness(self):
        started = time.monotonic()
        for drop_syn in (False, True):
            for drop_rst in (False, True):
                s, r, sim = self.run_pair(drop_syn, drop_rst, seed=5, loss=0.0)
                assert s.verdict == (VERDICT_DROPPED if drop_syn
                                     else VERDICT_PASSES)
                assert r.verdict == (VERDICT_DROPPED if drop_rst
                                     else VERDICT_PASSES)
                peak = sim.server(SERVER_ADDR).peak_backlog
                assert peak == 150
                assert peak / 256 == pytest.approx(0.586, abs=0.001)
                assert peak / 256 <= 0.59

        ok = 0
        for trial in range(100):
            drop_syn, drop_rst = bool(trial & 1), bool(trial & 2)
            s, r, _ = self.run_pair(drop_syn, drop_rst, seed=7000 + trial,
                                    loss=0.05)
            if s is None:
                continue
            if (s.verdict == (VERDICT_DROPPED if drop_syn else VERDICT_PASSES)
                    and r.verdict == (VERDICT_DROPPED if drop_rst
                                      else VERDICT_PASSES)):
                ok += 1
        elapsed = time.monotonic() - started
        assert ok >= 90
        assert elapsed <= 60.0
        report(f"2 PASS: 2x2 exact, lossy trials {ok}/100, fill 150/256 "
               f"(58.6%), {elapsed:.1f}s")


class TestCriterion3BaselineValidation:
    def test_baseline_and_pruning_rules(self):
        sim = build_backlog_sim(False, False)
        mm = sim.attach(MM_ADDR)
        profile = baseline_probe(mm, SERVER_EP)
        assert profile.valid
        assert profile.retransmission_count == 5
        assert list(profile.gaps_s) == [1.0, 2.0, 4.0, 8.0, 16.0]

        sim4 = Simulator(seed=5)
        sim4.add_server(SERVER_ADDR, open_ports=[9001], max_retransmissions=4)
        profile4 = baseline_probe(sim4.attach(MM_ADDR), SERVER_EP)
        assert not profile4.valid
        assert profile4.reason == REASON_NON_DEFAULT

        def fixture_record(i, reason=None):
            invalid = reason is not None
            baseline = (BaselineProfile(False, reason, 4, ())
                        if reason in (REASON_NON_DEFAULT, REASON_NO_BACKOFF)
                        else BaselineProfile(True, None, 5, (1, 2, 4, 8, 16)))
            return BacklogScanRecord(
                kind=KIND_SYN, relay=SERVER_EP, probe_count=5, fill_count=145,
                observed_retransmissions=[None] * 5 if invalid else [3] * 5,
                baseline=baseline,
                verdict="Invalid" if invalid else VERDICT_PASSES,
                invalid_reason=reason, timestamp=i)

        records = [fixture_record(i) for i in range(7)]
        records += [fixture_record(7, REASON_NON_DEFAULT),
                    fixture_record(8, REASON_NO_BACKOFF),
                    fixture_record(9, REASON_OFFLINE)]
        outcome = prune_campaign(
            [store.build_backlog_record(r) for r in records])
        assert len(outcome.admitted) == 7
        assert outcome.retention_ratio == 0.7
        assert [[k for k, ok in r.checks.items() if not ok]
                for r in outcome.rejected] == [
            ["default_stack"], ["backoff"], ["reachable"]]
        report("3 PASS: baseline 5 retransmissions at gaps 1,2,4,8,16s; "
               "4-retransmission stack invalid; pruner retains 7/10")


class TestCriterion4TraceroutePlacement:
    RELAY = "193.10.0.9"
    DEST = "36.10.0.5"
    COM_HOPS = [Hop("80.1.0.1"), Hop("80.1.0.2"),
                Hop("202.97.0.1", region="CN"), Hop("202.97.0.2", region="CN"),
                Hop("202.97.0.3", region="CN")]
    EDU_HOPS = [Hop("80.1.0.1"), Hop("80.1.0.2"),
                Hop("159.226.0.1", region="CN"), Hop("159.226.0.2", region="CN")]

    def build(self, hops, placement=None, hours=None, seed=4):
        sim = Simulator(seed=seed)
        sim.add_client(self.DEST)
        sim.add_path(self.RELAY, self.DEST, hops=list(hops),
                     delay_ns=60_000_000, filtered=True)
        if placement is not None:
            sim.policy.rules.append(FilterRule(
                "gfw", "server->client", addr=self.RELAY, port=9001,
                placement_hop=placement, hours=hours))
        return sim

    def test_placement_hop_histogram_and_diurnal(self):
        table = PrefixTable()
        cfg = TraceConfig()

        # Commercial route filtered at the second hop inside the region.
        sim = self.build(self.COM_HOPS, placement=4)
        tr = sim.attach(self.RELAY)
        pairs = []
        for slot in range(6):
            tr.clock.sleep_until(slot * 3600 * NS_PER_SEC)
            pairs.append(paired_run(tr, self.DEST, hour=slot, cfg=cfg))
        hist = hop_histogram(pairs, table)
        mode = max(hist, key=hist.get)
        assert mode == 2

        # Education route: no filtering, the port makes no difference.
        sim = self.build(self.EDU_HOPS, placement=None)
        tr = sim.attach(self.RELAY)
        tor_fin = rand_fin = 0
        for slot in range(6):
            tr.clock.sleep_until(slot * 3600 * NS_PER_SEC)
            tor, rand = paired_run(tr, self.DEST, hour=slot, cfg=cfg)
            tor_fin += tor.finished
            rand_fin += rand.finished
        assert abs(tor_fin - rand_fin) <= 1

        # Rule active outside 02:00-10:00; admission rule and trough must
        # follow the mask hour for hour.
        mask = tuple(not (2 <= h <= 10) for h in range(24))
        sim = self.build(self.COM_HOPS, placement=4, hours=mask)
        tr = sim.attach(self.RELAY)
        pairs = []
        for hour in range(24):
            tr.clock.sleep_until(hour * 3600 * NS_PER_SEC)
            pairs.append(paired_run(tr, self.DEST, hour=hour, cfg=cfg))
        admitted_hours = {tor.hour for tor, rand in pairs
                          if rand.finished and not tor.finished}
        assert admitted_hours == {h for h in range(24) if mask[h]}
        series = diurnal_series(pairs, count="blocked")
        for hour in range(24):
            if 2 <= hour <= 10:
                assert series[hour] == 0
            else:
                assert series[hour] == 1
        report(f"4 PASS: hop mode {mode}; EDU tor/rand finished "
               f"{tor_fin}/{rand_fin}; diurnal trough matches off-hours mask")


class TestCriterion5AnalyticsExactness:
    def test_analytics_exactness(self):
        rng = random.Random(424242)
        for _ in range(1000):
            n = rng.randrange(4, 64)
            x = [rng.uniform(-1000, 1000) for _ in range(n)]
            y = [rng.uniform(-1000, 1000) for _ in range(n)]
            sx, sy = math.fsum(x), math.fsum(y)
            sxx = math.fsum(a * a for a in x)
            syy = math.fsum(b * b for b in y)
            sxy = math.fsum(a * b for a, b in zip(x, y))
            num = n * sxy - sx * sy
            den = (math.sqrt(n * sxx - sx * sx)
                   * math.sqrt(n * syy - sy * sy))
            assert abs(pearson(x, y) - num / den) <= 1e-9

        src = SourceSeries("a", 0.0, 0.0, [0, 1, 1, 1, 0, 0])
        assert temporal_association([src], 3) == [2 / 3, 1 / 3, 0.0]
        lone = SourceSeries("b", 0.0, 0.0, [1, 0, 0, 0])
        assert temporal_association([lone], 3) == [0.0, 0.0, 0.0]

        # Irregular coordinates: no distance ties, so the neighbor sets are
        # stable under the float noise a rigid translation introduces.
        geo = random.Random(99)
        sources = []
        for i in range(8):
            sources.append(SourceSeries(f"hi{i}", 10 + geo.uniform(0, 2),
                                        10 + geo.uniform(0, 2), [9 + (i % 3)]))
            sources.append(SourceSeries(f"lo{i}", 50 + geo.uniform(0, 2),
                                        50 + geo.uniform(0, 2), [1 + (i % 3)]))
        base = spatial_association(sources, 3)
        shifted = [SourceSeries(s.source_id, s.lat + 211.5, s.lon - 87.25,
                                s.hourly_counts) for s in sources]
        assert spatial_association(shifted, 3) == pytest.approx(base, abs=1e-9)

        pool = [EndpointSpec(f"36.{i % 200}.{i // 200}.1", 0, "client",
                             lat=18 + (i * 7) % 33, lon=73 + (i * 11) % 65)
                for i in range(300)]
        first = [e.addr for e in grid_sample(pool, 80, seed=55)]
        second = [e.addr for e in grid_sample(pool, 80, seed=55)]
        assert first == second
        report(f"5 PASS: pearson oracle 1000 vectors <=1e-9; temporal exact; "
               f"spatial translation-invariant (r={base:.3f}); grid sampling "
               "reproducible")


class TestCriterion6EndToEndDeterminism:
    SCENARIO = """\
[sim]
seed = 77
default_delay_ms = 10

[monitor mm]
addr = 100.64.0.1

[defaults]
path_filtered = yes
path_hops = 10.9.0.1, 10.9.0.2@CN
path_delay_ms = 20
client_background_rate = 0.5

{rules}
"""
    # sha256 of the campaign's data.jsonl and report.csv: a change means
    # the campaign sends, receives or decides something different.
    DATA_SHA256 = ("786fadbe2c7e14ed6f9ec6bde6d2309f"
                   "5bdcd3bcc819f0cec43e2e3efffa8dfc")
    REPORT_SHA256 = ("7d659020ac1fc53d121ae937012a04c3"
                     "eb61214793a8da394a144224464cc5ce")

    def test_campaign_reproducibility(self, tmp_path):
        started = time.monotonic()
        clients_csv = tmp_path / "clients.csv"
        servers_csv = tmp_path / "servers.csv"
        with open(clients_csv, "w") as fh:
            fh.write("addr,port,role,lat,lon,uptime_days,stable_flag\n")
            for i in range(20):
                fh.write(f"36.10.0.{i + 1},0,client,"
                         f"{20 + i * 0.7:.2f},{80 + i * 1.3:.2f},0,1\n")
        rules = []
        with open(servers_csv, "w") as fh:
            fh.write("addr,port,role,lat,lon,uptime_days,stable_flag\n")
            for i in range(20):
                addr = f"203.0.113.{i + 1}"
                fh.write(f"{addr},9001,tor-relay,50.0,{i:.1f},9,1\n")
                if i % 2 == 0:
                    rules.append(f"[rule drop{i}]\n"
                                 f"direction = server->client\n"
                                 f"addr = {addr}\nport = 9001\n"
                                 f"placement_hop = 2\n")
        scenario_path = tmp_path / "scen.cfg"
        scenario_path.write_text(self.SCENARIO.format(rules="\n".join(rules)))

        outputs = []
        for run_dir in ("one", "two"):
            d = tmp_path / run_dir
            d.mkdir()
            data = d / "data.jsonl"
            report_csv = d / "report.csv"
            assert main(["idle-scan", "--clients", str(clients_csv),
                         "--servers", str(servers_csv),
                         "--scenario", str(scenario_path), "--rounds", "3",
                         "--seed", "99", "--out", str(data)]) == 0
            assert main(["analyze", "tables", "--input", str(data),
                         "--out", str(report_csv)]) == 0
            outputs.append((data.read_bytes(), report_csv.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert hashlib.sha256(outputs[0][0]).hexdigest() == self.DATA_SHA256
        assert hashlib.sha256(outputs[0][1]).hexdigest() == self.REPORT_SHA256
        records = load(tmp_path / "one" / "data.jsonl")
        assert len(records) == 60  # 3 slots x 20 disjoint pairs
        elapsed = time.monotonic() - started
        assert elapsed <= 300.0
        report(f"6 PASS: 20x20x3 campaign twice, byte-identical data.jsonl "
               f"and report.csv, both at their pinned digests "
               f"({len(records)} records, {elapsed:.1f}s)")


class TestCriterion7StoreRoundTrip:
    def mixed_record(self, i: int) -> ScanRecord:
        kind = (store.KIND_IDLE, store.KIND_BACKLOG,
                store.KIND_TRACEROUTE)[i % 3]
        if kind == store.KIND_IDLE:
            payload = {"client": {"addr": f"58.{i % 200}.{i % 250}.7"},
                       "server": {"addr": "203.0.113.5", "port": 9001,
                                  "role": "tor-relay"},
                       "label": {"variant": "NoPacketsDropped",
                                 "amplitude": 1.0},
                       "hour": i % 24, "timestamp": i}
            checks = {"client_liveliness": i % 5 != 0,
                      "server_liveliness": True}
        elif kind == store.KIND_BACKLOG:
            payload = {"kind": "SynScan", "verdict": "Passes",
                       "relay": {"addr": "203.0.113.5", "port": 9001},
                       "timestamp": i}
            checks = {"baseline_valid": i % 7 != 0}
        else:
            payload = {"dest": f"36.10.{i % 250}.9", "hour": i % 24,
                       "tor": {"status": "Stalled"},
                       "rand": {"status": "Finished"}}
            checks = {}
        return ScanRecord(kind=kind, payload=payload, checks=checks,
                          meta={"slot": i})

    def test_store_round_trip_and_redaction(self, tmp_path):
        records = [self.mixed_record(i) for i in range(10_000)]
        path = tmp_path / "bulk.jsonl"
        store.export(records, path)
        assert load(path) == records

        outcome = prune_campaign(records)
        admitted = sum(1 for r in records if r.admitted)
        assert len(outcome.admitted) == admitted
        assert outcome.retention_ratio == admitted / len(records)

        assert redact_addr("58.193.12.34", 16) == "58.193.0.0"
        assert redact_addr("121.194.7.255", 16) == "121.194.0.0"
        with RecordStore(tmp_path / "red.jsonl", redact_client_bits=16) as rs:
            rs.append(self.mixed_record(0))
        rec = load(tmp_path / "red.jsonl")[0]
        assert rec.payload["client"]["addr"] == "58.0.0.0"
        report(f"7 PASS: 10,000-record export/load identity; retention "
               f"{outcome.retention_ratio:.4f} exact; redaction zeroes the "
               "low 16 bits")
