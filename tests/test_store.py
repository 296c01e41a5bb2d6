from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inferscan import store
from inferscan.backlog import BacklogScanRecord, BaselineProfile
from inferscan.classify import CaseLabel
from inferscan.endpoints import EndpointSpec
from inferscan.idlescan import IpidTimeSeries, ScanRoundResult
from inferscan.store import (
    KINDS,
    KIND_IDLE,
    KIND_TRACEROUTE,
    RecordStore,
    ScanRecord,
    SchemaError,
    build_backlog_record,
    build_idle_record,
    build_trace_record,
    prune_campaign,
    redact_addr,
    redact_client_fields,
)
from inferscan.tracer import HopRecord, TracerouteRun


def idle_record(n=0, passing=True):
    checks = {"client_liveliness": True, "server_liveliness": passing,
              "stable_flag": True, "qualification": True}
    payload = {
        "client": {"addr": "58.193.12.34", "lat": 30.0, "lon": 114.0,
                   "port": 0, "role": "client", "stable": True,
                   "uptime_days": 0.0},
        "server": {"addr": "203.0.113.5", "port": 9001, "role": "tor-relay",
                   "lat": 0.0, "lon": 0.0, "stable": True, "uptime_days": 9.0},
        "series": {"client": {"addr": "58.193.12.34"}, "samples": [[1, n, "base"]]},
        "label": {"variant": "NoPacketsDropped", "amplitude": 1.0,
                  "confidence": 1.0, "reason": None},
        "hour": n % 24,
        "timestamp": n,
    }
    return ScanRecord(kind=KIND_IDLE, payload=payload, checks=checks,
                      meta={"slot": n})


class TestScanRecord:
    def test_admitted_iff_all_checks_pass(self):
        assert idle_record(passing=True).admitted
        assert not idle_record(passing=False).admitted

    def test_json_round_trip(self):
        rec = idle_record(5)
        assert ScanRecord.from_json(rec.to_json()) == rec

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            ScanRecord(kind="Mystery", payload={})

    def test_non_boolean_check_rejected(self):
        with pytest.raises(SchemaError):
            ScanRecord(kind=KIND_IDLE, payload={}, checks={"x": "yes"})

    def test_unknown_version_rejected(self):
        data = json.loads(idle_record().to_json())
        data["v"] = 99
        with pytest.raises(SchemaError):
            ScanRecord.from_dict(data)

    def test_contradictory_admitted_flag_rejected(self):
        data = json.loads(idle_record(passing=False).to_json())
        data["admitted"] = True
        with pytest.raises(SchemaError):
            ScanRecord.from_dict(data)

    def test_malformed_line_rejected(self):
        with pytest.raises(SchemaError):
            ScanRecord.from_json("{not json")

    @pytest.mark.parametrize("data", [
        [1], {"v": 1, "payload": {}}, {"v": 1, "kind": KIND_IDLE},
        {"v": 1, "kind": KIND_IDLE, "payload": {}, "checks": [True]},
        {"v": 1, "kind": KIND_IDLE, "payload": {}, "meta": "slot"}])
    def test_malformed_record_shape_rejected(self, data):
        with pytest.raises(SchemaError):
            ScanRecord.from_dict(data)

    @given(st.builds(
        ScanRecord,
        kind=st.sampled_from(KINDS),
        payload=st.dictionaries(st.text(), st.recursive(
            st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
            max_leaves=10)),
        checks=st.dictionaries(st.text(), st.booleans()),
        meta=st.dictionaries(st.text(), st.integers() | st.text())))
    def test_json_round_trip_property(self, record):
        assert ScanRecord.from_json(record.to_json()) == record


class TestRecordStore:
    def test_records_load_in_append_order(self, tmp_path):
        path = tmp_path / "data.jsonl"
        with RecordStore(path) as rs:
            for n in range(3):
                rs.append(idle_record(n))
        with RecordStore(path) as rs:  # reopening appends after them
            for n in (7, 4):
                rs.append(idle_record(n))
        assert [rec.meta["slot"] for rec in store.load(path)] == [0, 1, 2, 7, 4]

    def test_append_rejects_non_records(self, tmp_path):
        with RecordStore(tmp_path / "d.jsonl") as rs:
            with pytest.raises(SchemaError):
                rs.append({"kind": "IdleScan"})

    def test_concurrent_appends_no_corruption(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rs = RecordStore(path)
        n_threads, per_thread = 8, 50

        def worker(base):
            for i in range(per_thread):
                rs.append(idle_record(base * 1000 + i))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rs.close()
        records = store.load(path)
        assert len(records) == n_threads * per_thread
        stamps = sorted(rec.payload["timestamp"] for rec in records)
        expected = sorted(b * 1000 + i for b in range(n_threads)
                          for i in range(per_thread))
        assert stamps == expected

    def test_append_only(self, tmp_path):
        path = tmp_path / "data.jsonl"
        with RecordStore(path) as rs:
            rs.append(idle_record(0))
        first = path.read_text()
        with RecordStore(path) as rs:
            rs.append(idle_record(1))
        assert path.read_text().startswith(first)


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        records = [idle_record(i, passing=(i % 3 != 0)) for i in range(20)]
        path = tmp_path / "out.jsonl"
        store.export(records, path)
        assert store.load(path) == records


class TestPruneCampaign:
    def test_fixture_ratio(self):
        records = [idle_record(i, passing=(i < 4)) for i in range(10)]
        outcome = prune_campaign(records)
        assert len(outcome.admitted) == 4
        assert outcome.retention_ratio == 0.4

    def test_all_passing(self):
        outcome = prune_campaign([idle_record(i) for i in range(5)])
        assert outcome.retention_ratio == 1.0

    def test_empty(self):
        outcome = prune_campaign([])
        assert outcome.retention_ratio is None
        assert outcome.admitted == [] and outcome.rejected == []

    def test_no_mutation(self):
        records = [idle_record(i, passing=False) for i in range(3)]
        before = [rec.to_json() for rec in records]
        prune_campaign(records)
        assert [rec.to_json() for rec in records] == before


CLIENT = EndpointSpec(addr="36.10.0.5", port=0, role="client",
                      lat=30.5, lon=114.3)
RELAY = EndpointSpec(addr="203.0.113.5", port=9001, role="tor-relay",
                     uptime_days=9.0)


class TestReadPath:
    def built(self):
        """One record of each kind from its builder, and what each holds."""
        result = ScanRoundResult(
            client=CLIENT, server=RELAY,
            series=IpidTimeSeries(samples=[], spoof_rate=2.0, probe_rate=1.0,
                                  client=CLIENT, server=RELAY),
            label=CaseLabel("NoPacketsDropped", amplitude=0.9, confidence=0.95),
            checks={"client_liveliness": True, "server_liveliness": True},
            started_at=3, finished_at=4, hour=3)
        scan = BacklogScanRecord(
            kind="SynScan", relay=RELAY, probe_count=1, fill_count=145,
            observed_retransmissions=[5],
            baseline=BaselineProfile(True, None, 5, (1.0, 2.0, 4.0, 8.0, 16.0)),
            verdict="Passes", invalid_reason=None, timestamp=7)
        tor = TracerouteRun(dest=CLIENT.addr, src_port=9001,
                            flags=("SYN", "ACK"),
                            hops=[HopRecord(1, "80.1.0.1", 1000),
                                  HopRecord(2, None, None)],
                            status="Stalled", hour=3)
        rand = TracerouteRun(dest=CLIENT.addr, src_port=9002,
                             flags=("SYN", "ACK"),
                             hops=[HopRecord(1, "80.1.0.1", 1000),
                                   HopRecord(2, CLIENT.addr, 2000)],
                             status="Finished", hour=3)
        records = [build_idle_record(result, slot=3),
                   build_backlog_record(scan),
                   build_trace_record(tor, rand, slot=3)]
        values = [(3, (("36.10.0.5", 30.5, 114.3), "tor-relay",
                       "NoPacketsDropped")),
                  (0, scan), (3, (tor, rand))]
        return records, values

    def test_built_records_read_back_after_a_round_trip(self):
        records, values = self.built()
        loaded = [ScanRecord.from_json(rec.to_json()) for rec in records]
        assert [store.read(no, rec) for no, rec in enumerate(loaded, 1)] \
            == values
        for rec, value in zip(loaded, values):
            assert store.read_admitted(loaded, rec.kind) == [value]
        outcome = prune_campaign(loaded, read=store.read)
        assert outcome.admitted == loaded
        assert outcome.rejected == [] and outcome.unreadable == {}

    @pytest.mark.parametrize("client", [[], {"addr": "36.10.0.5", "lat": [1],
                                             "lon": 2}],
                             ids=["not-a-mapping", "unhashable"])
    def test_malformed_client_names_the_record(self, client):
        rec = ScanRecord(kind=KIND_IDLE, payload={"client": client})
        with pytest.raises(SchemaError,
                           match=r"^record 4 \(IdleScan\) has a malformed "
                                 r"payload: "):
            store.read(4, rec)


class TestRedaction:
    def test_low_16_bits_zeroed(self):
        assert redact_addr("58.193.12.34", 16) == "58.193.0.0"
        assert redact_addr("121.194.255.1", 16) == "121.194.0.0"

    def test_other_widths(self):
        assert redact_addr("10.20.30.40", 8) == "10.20.30.0"
        assert redact_addr("10.20.30.40", 0) == "10.20.30.40"
        with pytest.raises(ValueError):
            redact_addr("10.20.30.40", 33)

    def test_record_redaction_targets_client_only(self):
        rec = redact_client_fields(idle_record(), 16)
        assert rec.payload["client"]["addr"] == "58.193.0.0"
        assert rec.payload["series"]["client"]["addr"] == "58.193.0.0"
        assert rec.payload["server"]["addr"] == "203.0.113.5"

    def test_store_level_flag(self, tmp_path):
        path = tmp_path / "red.jsonl"
        with RecordStore(path, redact_client_bits=16) as rs:
            rs.append(idle_record())
        rec = store.load(path)[0]
        assert rec.payload["client"]["addr"] == "58.193.0.0"

    @pytest.mark.parametrize("bits", [-1, 33])
    def test_store_refuses_bits_before_opening(self, tmp_path, bits):
        path = tmp_path / "red.jsonl"
        with pytest.raises(ValueError, match="redact_client_bits must be "
                                             f"within 0-32, got {bits}"):
            RecordStore(path, redact_client_bits=bits)
        assert not path.exists()

    def test_non_idle_kinds_untouched(self):
        rec = ScanRecord(kind=KIND_TRACEROUTE,
                         payload={"dest": "58.193.12.34"})
        assert redact_client_fields(rec, 16) == rec
