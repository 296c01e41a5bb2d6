from __future__ import annotations

import pytest

from conftest import MM_ADDR, SERVER_ADDR, SERVER_EP, VPS_ADDR, build_backlog_sim
from inferscan.backlog import (
    BacklogScanConfig,
    BacklogScanRecord,
    BaselineProfile,
    KIND_RST,
    KIND_SYN,
    MAX_HALF_OPEN,
    MAX_PROBES,
    REASON_NO_BACKOFF,
    REASON_NON_DEFAULT,
    REASON_OFFLINE,
    RST_PROBES,
    SYN_PROBES,
    VERDICT_DROPPED,
    VERDICT_INVALID,
    VERDICT_PASSES,
    baseline_probe,
    rst_scan,
    syn_scan,
)
from inferscan.simnet import Simulator
from inferscan.store import build_backlog_record, prune_campaign
from inferscan.transport import NS_PER_SEC


def attach_pair(sim, seed=123):
    mm = sim.attach(MM_ADDR, isn_seed=seed)
    vps = sim.attach(VPS_ADDR, isn_seed=seed)
    return mm, vps


class TestBaselineProbe:
    def test_default_server_valid(self):
        sim = build_backlog_sim(False, False)
        mm, _ = attach_pair(sim)
        profile = baseline_probe(mm, SERVER_EP)
        assert profile.valid
        assert profile.retransmission_count == 5
        assert list(profile.gaps_s) == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_embedded_stack_retransmits_four_times(self):
        sim = Simulator(seed=5)
        sim.add_server(SERVER_ADDR, open_ports=[9001], max_retransmissions=4)
        mm = sim.attach(MM_ADDR)
        profile = baseline_probe(mm, SERVER_EP)
        assert not profile.valid
        assert profile.reason == REASON_NON_DEFAULT
        assert profile.retransmission_count == 4

    def test_fixed_interval_stack_fails_backoff(self):
        sim = Simulator(seed=6)
        sim.add_server(SERVER_ADDR, open_ports=[9001],
                       backoff_s=(3, 3, 3, 3, 3))
        mm = sim.attach(MM_ADDR)
        profile = baseline_probe(mm, SERVER_EP)
        assert not profile.valid
        assert profile.reason == REASON_NO_BACKOFF
        assert profile.retransmission_count == 5

    def test_closed_port_offline(self):
        sim = Simulator(seed=7)
        sim.add_server(SERVER_ADDR, open_ports=[443])
        mm = sim.attach(MM_ADDR)
        profile = baseline_probe(mm, SERVER_EP)
        assert not profile.valid
        assert profile.reason == REASON_OFFLINE

    def test_silent_host_offline(self):
        sim = Simulator(seed=8)
        mm = sim.attach(MM_ADDR)
        profile = baseline_probe(mm, SERVER_EP)
        assert not profile.valid
        assert profile.reason == REASON_OFFLINE


class TestSynScan:
    def run(self, drop_syn):
        sim = build_backlog_sim(drop_syn, False)
        mm, vps = attach_pair(sim)
        record = syn_scan(mm, vps, SERVER_EP)
        return sim, record

    def test_fill_passes_probes_pruned(self):
        sim, record = self.run(drop_syn=False)
        assert record.verdict == VERDICT_PASSES
        assert record.observed_retransmissions == [3] * 5
        assert sim.server(SERVER_ADDR).peak_backlog == 150

    def test_fill_dropped_probes_keep_budget(self):
        sim, record = self.run(drop_syn=True)
        assert record.verdict == VERDICT_DROPPED
        assert record.observed_retransmissions == [5] * 5
        assert sim.server(SERVER_ADDR).peak_backlog == 5

    def test_occupancy_bound(self):
        sim, record = self.run(drop_syn=False)
        assert record.probe_count + record.fill_count <= 150
        assert sim.server(SERVER_ADDR).peak_backlog / 256 <= 0.59

    def test_send_only_vantage_point_stays_bounded(self):
        sim = build_backlog_sim(False, False)
        mm, vps = attach_pair(sim)
        queued = []
        for _ in range(5):
            syn_scan(mm, vps, SERVER_EP)
            queued.append(vps.queued)
        # The vantage point never captures the relay's SYN/ACKs.
        assert 0 < queued[-1] <= queued[0]

    def test_invalid_baseline_short_circuits(self):
        sim = Simulator(seed=9)
        sim.add_server(SERVER_ADDR, open_ports=[9001], max_retransmissions=4)
        mm, vps = attach_pair(sim)
        record = syn_scan(mm, vps, SERVER_EP)
        assert record.verdict == VERDICT_INVALID
        assert record.invalid_reason == REASON_NON_DEFAULT

    def test_restart_mid_scan_invalid(self):
        sim = build_backlog_sim(False, False)
        srv = sim.server(SERVER_ADDR)
        mm, vps = attach_pair(sim)
        profile = baseline_probe(mm, SERVER_EP)
        # Relay reboots right as the scan begins and stays down.
        start = mm.clock.now_ns() + 2 * NS_PER_SEC
        srv.down_intervals = ((start, start + 3600 * NS_PER_SEC),)
        mm.clock.sleep_ns(2 * NS_PER_SEC)
        record = syn_scan(mm, vps, SERVER_EP, baseline=profile)
        assert record.verdict == VERDICT_INVALID
        assert record.invalid_reason == REASON_OFFLINE

    def test_fill_follows_the_probe_count(self):
        sim, record = self.run(drop_syn=False)
        assert record.probe_count == SYN_PROBES
        assert record.fill_count == MAX_HALF_OPEN - SYN_PROBES
        assert record.verdict == VERDICT_PASSES
        assert sim.server(SERVER_ADDR).peak_backlog == MAX_HALF_OPEN


class TestRstScan:
    def run(self, drop_rst):
        sim = build_backlog_sim(False, drop_rst)
        mm, vps = attach_pair(sim)
        record = rst_scan(mm, vps, SERVER_EP, shared_isn_seed=321)
        return sim, record

    def test_rsts_pass_backlog_cleared(self):
        sim, record = self.run(drop_rst=False)
        assert record.verdict == VERDICT_PASSES
        assert record.observed_retransmissions == [5] * 10
        # Cleared before the first retransmission instant.
        assert len(sim.server(SERVER_ADDR).backlog) <= 10

    def test_rsts_dropped_backlog_stays_full(self):
        sim, record = self.run(drop_rst=True)
        assert record.verdict == VERDICT_DROPPED
        assert record.observed_retransmissions == [3] * 10

    def test_fill_capped_at_safety_bound(self):
        sim, record = self.run(drop_rst=False)
        assert record.fill_count == 140
        assert sim.server(SERVER_ADDR).peak_backlog == 150

    def test_vps_reconstructs_sequence_numbers(self):
        # The RSTs clear the backlog even though the VPS never saw the
        # spoofed SYNs: the shared seed is the only coordination.
        sim, record = self.run(drop_rst=False)
        assert record.verdict == VERDICT_PASSES


class TestProbeCounts:
    """The scans' probe counts give the planted verdict on each cell of the
    2x2 grid, for both scan kinds, with and without loss on the vantage
    point's link (the prober's own link stays clean)."""

    def test_counts_within_reach_of_the_fill(self):
        # Pruning stops at half full, so only the MAX_PROBES oldest entries
        # can read "reduced"; a count beyond it could not carry the vote.
        assert MAX_PROBES == 22
        assert 1 <= SYN_PROBES <= MAX_PROBES
        assert 1 <= RST_PROBES <= MAX_PROBES

    @pytest.mark.parametrize("vps_loss, seed", [(0.0, 5), (0.02, 31),
                                                (0.02, 32)])
    @pytest.mark.parametrize("probes", [SYN_PROBES, RST_PROBES])
    def test_planted_verdicts(self, probes, vps_loss, seed):
        # Each case runs the whole scenario and checks the verdicts of the
        # scan that sends ``probes`` probe SYNs.
        cfg = BacklogScanConfig()
        for drop_syn in (False, True):
            for drop_rst in (False, True):
                sim = build_backlog_sim(drop_syn, drop_rst, seed=seed,
                                        vps_loss=vps_loss)
                mm, vps = attach_pair(sim, seed)
                base = baseline_probe(mm, SERVER_EP)
                mm.clock.sleep_ns(2 * NS_PER_SEC)
                syn = syn_scan(mm, vps, SERVER_EP, cfg, baseline=base)
                mm.clock.sleep_ns(80 * NS_PER_SEC)
                rst = rst_scan(mm, vps, SERVER_EP, cfg, baseline=base,
                               shared_isn_seed=seed)
                scan, dropped = ((syn, drop_syn) if probes == SYN_PROBES
                                 else (rst, drop_rst))
                assert scan.probe_count == probes
                assert scan.verdict == (
                    VERDICT_DROPPED if dropped else VERDICT_PASSES), (
                    drop_syn, drop_rst)
                assert sim.server(SERVER_ADDR).peak_backlog <= MAX_HALF_OPEN


class TestConfig:
    def test_frozen(self):
        cfg = BacklogScanConfig()
        with pytest.raises(AttributeError):
            cfg.syn_probe_count = 200


class TestPruneDataset:
    def record(self, i, reason=None, verdict=VERDICT_PASSES):
        baseline = (BaselineProfile(True, None, 5, (1, 2, 4, 8, 16))
                    if reason is None or reason == REASON_OFFLINE
                    else BaselineProfile(False, reason, 4, ()))
        invalid = reason is not None
        return BacklogScanRecord(
            kind=KIND_SYN if i % 2 == 0 else KIND_RST,
            relay=SERVER_EP, probe_count=5, fill_count=145,
            observed_retransmissions=[None] * 5 if invalid else [3] * 5,
            baseline=baseline,
            verdict=VERDICT_INVALID if invalid else verdict,
            invalid_reason=reason, timestamp=i * NS_PER_SEC)

    def prune(self, records):
        return prune_campaign([build_backlog_record(r) for r in records])

    def test_fixture_retention(self):
        records = [self.record(i) for i in range(7)]
        records.append(self.record(7, REASON_NON_DEFAULT))
        records.append(self.record(8, REASON_NO_BACKOFF))
        records.append(self.record(9, REASON_OFFLINE))
        outcome = self.prune(records)
        assert len(outcome.admitted) == 7
        assert [[k for k, ok in r.checks.items() if not ok]
                for r in outcome.rejected] == [
            ["default_stack"], ["backoff"], ["reachable"]]
        assert outcome.retention_ratio == 0.7

    def test_all_valid(self):
        records = [self.record(i) for i in range(4)]
        outcome = self.prune(records)
        assert len(outcome.admitted) == 4 and not outcome.rejected

    def test_empty(self):
        outcome = self.prune([])
        assert outcome.admitted == [] and outcome.retention_ratio is None


class TestRecordValidation:
    def test_retransmission_count_must_match_probes(self):
        with pytest.raises(ValueError):
            BacklogScanRecord(kind=KIND_SYN, relay=SERVER_EP, probe_count=5,
                              fill_count=145, observed_retransmissions=[3] * 4,
                              baseline=None, verdict=VERDICT_PASSES,
                              invalid_reason=None, timestamp=0)

    def test_invalid_needs_reason(self):
        with pytest.raises(ValueError):
            BacklogScanRecord(kind=KIND_SYN, relay=SERVER_EP, probe_count=1,
                              fill_count=0, observed_retransmissions=[None],
                              baseline=None, verdict=VERDICT_INVALID,
                              invalid_reason=None, timestamp=0)

    def test_round_trip(self):
        rec = BacklogScanRecord(
            kind=KIND_RST, relay=SERVER_EP, probe_count=2, fill_count=140,
            observed_retransmissions=[5, 4],
            baseline=BaselineProfile(True, None, 5, (1.0, 2.0, 4.0, 8.0, 16.0)),
            verdict=VERDICT_PASSES, invalid_reason=None, timestamp=17)
        assert BacklogScanRecord.from_dict(rec.to_dict()) == rec
        assert rec.to_dict()["verdict_mapping"] == "mechanics"

    def test_other_verdict_mapping_refused(self):
        rec = BacklogScanRecord(
            kind=KIND_RST, relay=SERVER_EP, probe_count=1, fill_count=149,
            observed_retransmissions=[5], baseline=None,
            verdict=VERDICT_DROPPED, invalid_reason=None, timestamp=0)
        data = dict(rec.to_dict(), verdict_mapping="literal")
        with pytest.raises(ValueError, match="unknown verdict mapping"):
            BacklogScanRecord.from_dict(data)
