from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inferscan
from inferscan import store
from inferscan.endpoints import EndpointError, filter_stable, load_endpoints
from inferscan.cli import EXIT_OK, build_parser, main
from inferscan.scenario import Scenario

SCENARIO = """\
[sim]
seed = 11
default_delay_ms = 10

[monitor mm]
addr = 100.64.0.1

[monitor vps]
addr = 100.64.0.2

[defaults]
path_filtered = yes
path_hops = 10.9.0.1, 10.9.0.2@CN
path_delay_ms = 20

[server relay]
addr = 203.0.113.5
ports = 9001

[path vps relay]
hops = 10.9.0.1, 10.9.0.2@CN
delay_ms = 20
filtered = yes

[rule drop-tor-synack]
direction = server->client
addr = 203.0.113.5
port = 9001
placement_hop = 2
"""

TRACE_SCENARIO = """\
[sim]
seed = 4
default_delay_ms = 10

[monitor relay]
addr = 193.10.0.9

[client dest]
addr = 36.10.0.5

[path relay dest]
hops = 80.1.0.1, 202.97.0.1@CN, 202.97.0.2@CN, 202.97.0.3@CN
delay_ms = 60
filtered = yes

[rule gfw]
direction = server->client
addr = 193.10.0.9
port = 9001
placement_hop = 3
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "scen.cfg").write_text(SCENARIO)
    (tmp_path / "trace.cfg").write_text(TRACE_SCENARIO)
    with open(tmp_path / "clients.csv", "w") as fh:
        fh.write("addr,port,role,lat,lon,uptime_days,stable_flag\n")
        fh.write("36.10.0.5,0,client,30.5,114.3,0,1\n")
        fh.write("36.10.0.6,0,client,39.9,116.4,0,1\n")
    with open(tmp_path / "servers.csv", "w") as fh:
        fh.write("addr,port,role,lat,lon,uptime_days,stable_flag\n")
        fh.write("203.0.113.5,9001,tor-relay,59.3,18.1,12,1\n")
        fh.write("203.0.113.9,9001,tor-relay,48.9,2.3,1,1\n")  # under min uptime
    with open(tmp_path / "dests.csv", "w") as fh:
        fh.write("addr,port,role,lat,lon,uptime_days,stable_flag\n")
        fh.write("36.10.0.5,0,client,30.5,114.3,0,1\n")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestIdleScanCommand:
    def test_campaign_produces_records(self, workspace, capsys):
        out = workspace / "data.jsonl"
        code = run(["idle-scan", "--clients", workspace / "clients.csv",
                    "--servers", workspace / "servers.csv",
                    "--scenario", workspace / "scen.cfg",
                    "--rounds", 1, "--seed", 5, "--out", out])
        assert code == EXIT_OK
        records = store.load(out)
        # One server survives the stability filter; one slot pairs it with
        # one client.
        assert len(records) == 1
        assert records[0].kind == store.KIND_IDLE
        assert records[0].payload["label"]["variant"] == "ServerToClientDrop"

    def test_smoke_campaign_records_do_not_depend_on_a_trace_sink(
            self, tmp_path, monkeypatch):
        # The smoke scenario's noisy 2x2 campaign, whose second round of
        # each slot wakes a dormant client, writes the same bytes whether or
        # not its simulator has a trace sink.
        smoke = Path(__file__).resolve().parent / "smoke"
        events = []
        build = Scenario.build

        def traced_build(self, *args, **kwargs):
            return build(self, *args, **kwargs, trace=events.append)

        outs = []
        for traced in (False, True):
            if traced:
                monkeypatch.setattr(Scenario, "build", traced_build)
            outs.append(tmp_path / f"data{int(traced)}.jsonl")
            assert run(["idle-scan", "--clients", smoke / "clients.csv",
                        "--servers", smoke / "servers.csv",
                        "--scenario", smoke / "scenario.cfg", "--rounds", 2,
                        "--seed", 7, "--out", outs[-1]]) == EXIT_OK
        assert sum(e["ev"] == "noise" for e in events) > 0
        assert any(e["ev"] == "noise" and "count" in e for e in events)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_stability_filter_applied(self, workspace):
        out = workspace / "data.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg",
             "--rounds", 2, "--seed", 5, "--out", out])
        addrs = {rec.payload["server"]["addr"] for rec in store.load(out)}
        assert addrs == {"203.0.113.5"}

    def test_rounds_run_every_slot(self, workspace):
        # Two clients and one admitted server: one pair per slot, and the
        # schedule runs past the two slots that measure each pair once.
        outs = {}
        for rounds in (2, 5):
            out = workspace / f"r{rounds}.jsonl"
            assert run(["idle-scan", "--clients", workspace / "clients.csv",
                        "--servers", workspace / "servers.csv",
                        "--scenario", workspace / "scen.cfg",
                        "--rounds", rounds, "--seed", 5,
                        "--out", out]) == EXIT_OK
            outs[rounds] = out
        assert [rec.meta["slot"] for rec in store.load(outs[5])] == [0, 1, 2,
                                                                     3, 4]
        assert outs[5].read_bytes().startswith(outs[2].read_bytes())

    def test_redaction_flag(self, workspace):
        out = workspace / "red.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg",
             "--rounds", 1, "--seed", 5, "--redact-client-bits", 16,
             "--out", out])
        rec = store.load(out)[0]
        assert rec.payload["client"]["addr"].endswith(".0.0")

    @pytest.mark.parametrize("bits", [-1, 33, 40])
    def test_redaction_bits_checked_before_the_scan(self, workspace, capsys,
                                                    bits):
        out = workspace / "red.jsonl"
        code = run(["idle-scan", "--clients", workspace / "clients.csv",
                    "--servers", workspace / "servers.csv",
                    "--scenario", workspace / "scen.cfg",
                    "--rounds", 1, "--seed", 5, "--redact-client-bits", bits,
                    "--out", out])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: redact_client_bits must be within 0-32, got {bits}\n")
        assert not out.exists()

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_rounds_below_one_refused(self, workspace, capsys, rounds):
        out = workspace / "data.jsonl"
        code = run(["idle-scan", "--clients", workspace / "clients.csv",
                    "--servers", workspace / "servers.csv",
                    "--scenario", workspace / "scen.cfg",
                    f"--rounds={rounds}", "--seed", 5, "--out", out])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: slots must be at least 1, got {rounds}\n")
        assert not out.exists()

    def test_live_scan_needs_egress_flag_before_any_socket(
            self, workspace, capsys, monkeypatch):
        # An idle scan spoofs its perturb SYNs: without the flag it is
        # refused before the checklist banner, any raw socket or --out.
        from inferscan import livenet

        def no_socket(*args, **kwargs):
            raise AssertionError("a raw socket was opened")

        monkeypatch.setattr(livenet.socket, "socket", no_socket)
        out = workspace / "data.jsonl"
        code = run(["idle-scan", "--transport", "live",
                    "--i-have-authorization", "--local-addr", "100.64.0.1",
                    "--clients", workspace / "clients.csv",
                    "--servers", workspace / "servers.csv", "--out", out])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: idle-scan spoofs SYNs from the client: the live "
                "transport requires --egress-unfiltered\n")
        assert not out.exists()

    def test_store_closed_when_the_campaign_raises(self, workspace, capsys,
                                                   monkeypatch):
        from inferscan import idlescan
        from inferscan.transport import TransportError

        opened = []

        class Store(store.RecordStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        def fail(*args, **kwargs):
            raise TransportError("link down")

        monkeypatch.setattr(store, "RecordStore", Store)
        monkeypatch.setattr(idlescan, "run_idle_campaign", fail)
        code = run(["idle-scan", "--clients", workspace / "clients.csv",
                    "--servers", workspace / "servers.csv",
                    "--scenario", workspace / "scen.cfg",
                    "--out", workspace / "data.jsonl"])
        assert code == 1
        assert capsys.readouterr().err == "error: link down\n"
        assert [rs._fh.closed for rs in opened] == [True]

    def test_deterministic_outputs(self, workspace):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = workspace / name
            run(["idle-scan", "--clients", workspace / "clients.csv",
                 "--servers", workspace / "servers.csv",
                 "--scenario", workspace / "scen.cfg",
                 "--rounds", 1, "--seed", 5, "--out", out])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fixed_rates_reach_the_series(self, workspace):
        out = workspace / "data.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg", "--rounds", 1, "--seed", 5,
             "--out", out])
        series = store.load(out)[0].payload["series"]
        assert (series["probe_rate"], series["spoof_rate"]) == (1.0, 2.0)
        # One probe a second over the 120 s scan.
        assert len(series["samples"]) == 120


class TestBacklogCommand:
    def test_syn_scan_record(self, workspace):
        out = workspace / "backlog.jsonl"
        code = run(["backlog-scan", "--kind", "syn",
                    "--relay", "203.0.113.5:9001",
                    "--scenario", workspace / "scen.cfg",
                    "--seed", 7, "--out", out])
        assert code == EXIT_OK
        rec = store.load(out)[0]
        assert rec.kind == store.KIND_BACKLOG
        # The scenario only filters the relay's SYN/ACKs; outbound SYNs pass.
        assert rec.payload["verdict"] == "Passes"

    def test_rst_scan_record(self, workspace):
        out = workspace / "backlog.jsonl"
        run(["backlog-scan", "--kind", "rst", "--relay", "203.0.113.5:9001",
             "--scenario", workspace / "scen.cfg", "--seed", 7, "--out", out])
        rec = store.load(out)[0]
        assert rec.payload["kind"] == "RstScan"

    def test_probe_and_fill_flags(self, workspace):
        # Neither the probes nor the fill is a flag: a SYN scan sends its
        # fixed 5 probes and fills what the safety bound leaves.
        out = workspace / "backlog.jsonl"
        run(["backlog-scan", "--kind", "syn", "--relay", "203.0.113.5:9001",
             "--scenario", workspace / "scen.cfg", "--seed", 7, "--out", out])
        payload = store.load(out)[0].payload
        assert (payload["probe_count"], payload["fill_count"]) == (5, 145)
        assert len(payload["observed_retransmissions"]) == 5
        with pytest.raises(SystemExit) as exc:
            main(["backlog-scan", "--kind", "syn", "--relay", "203.0.113.5:9001",
                  "--scenario", str(workspace / "scen.cfg"), "--fill", "100",
                  "--out", str(out)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,mapping", [([], "mechanics"),
                                              (["--literal-verdicts"], None)])
    def test_verdict_mapping_flag(self, workspace, flag, mapping):
        # One convention: records name it, and no flag swaps it.
        out = workspace / "backlog.jsonl"
        args = ["backlog-scan", "--kind", "rst", "--relay", "203.0.113.5:9001",
                "--scenario", workspace / "scen.cfg", "--seed", 7, *flag,
                "--out", out]
        if mapping is None:
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 2 and not out.exists()
            return
        run(args)
        assert store.load(out)[0].payload["verdict_mapping"] == mapping

    def test_other_verdict_mapping_discarded(self, workspace, capsys):
        # A record written under another convention (say, by an older
        # version with inverted RST verdicts) cannot be counted as this one.
        data = workspace / "backlog.jsonl"
        for kind in ("syn", "rst"):
            run(["backlog-scan", "--kind", kind, "--relay", "203.0.113.5:9001",
                 "--scenario", workspace / "scen.cfg", "--seed", 7,
                 "--out", data])
        syn, rst = data.read_text().splitlines()
        data.write_text(syn + "\n" + rst.replace('"verdict_mapping":"mechanics"',
                                                 '"verdict_mapping":"literal"')
                        + "\n")
        why = ("record 2 (BacklogScan) has a malformed payload: "
               "unknown verdict mapping: 'literal'")
        pruned = workspace / "pruned.jsonl"
        discards = workspace / "discards.jsonl"
        capsys.readouterr()
        assert run(["prune", "--input", data, "--out", pruned,
                    "--discard-log", discards]) == EXIT_OK
        assert "retained 1/2" in capsys.readouterr().out
        assert [json.loads(l) for l in discards.read_text().splitlines()] == [
            {"kind": "BacklogScan", "failed": [], "payload": why}]
        assert pruned.read_text() == syn + "\n"
        assert run(["analyze", "tables", "--input", data,
                    "--out", workspace / "report.csv"]) == 1
        assert capsys.readouterr().err == f"error: {why}\n"

    def test_prune_names_failed_rule(self, workspace, capsys):
        scenario = workspace / "embedded.cfg"
        scenario.write_text(SCENARIO.replace(
            "ports = 9001\n", "ports = 9001\nmax_retransmissions = 4\n"))
        out = workspace / "backlog.jsonl"
        run(["backlog-scan", "--kind", "syn", "--relay", "203.0.113.5:9001",
             "--scenario", scenario, "--seed", 7, "--out", out])
        discards = workspace / "discards.jsonl"
        code = run(["prune", "--input", out, "--out", workspace / "kept.jsonl",
                    "--discard-log", discards])
        assert code == EXIT_OK
        assert "retained 0/1" in capsys.readouterr().out
        # The retransmission-count rule fired; the backoff rule never ran.
        assert [json.loads(l) for l in discards.read_text().splitlines()] == [
            {"kind": "BacklogScan", "failed": ["default_stack"]}]
        assert store.load(out)[0].checks == {"reachable": True,
                                             "default_stack": False}

    def test_relay_flag_validated(self, workspace, capsys):
        code = run(["backlog-scan", "--kind", "syn", "--relay", "bogus",
                    "--scenario", workspace / "scen.cfg",
                    "--out", workspace / "x.jsonl"])
        assert code == 1
        assert "ADDR:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("relay, why", [
        ("203.0.113.5:99999",
         "port: '99999' is not an integer from 0 to 65535"),
        ("203.0.113.5:x", "port: 'x' is not an integer from 0 to 65535"),
        ("foo:9001", "addr: invalid IPv4 address: 'foo'"),
    ], ids=["port-99999", "port-x", "addr-foo"])
    def test_bad_relay_refused_before_the_scenario(self, workspace, capsys,
                                                   relay, why):
        # The scenario file does not exist: the relay is checked first.
        out = workspace / "backlog.jsonl"
        code = run(["backlog-scan", "--kind", "syn", "--relay", relay,
                    "--scenario", workspace / "missing.cfg", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"error: --relay {relay}: {why}\n"
        assert not out.exists()


class TestTraceCommand:
    def test_paired_records(self, workspace):
        out = workspace / "runs.jsonl"
        code = run(["trace", "--dests", workspace / "dests.csv",
                    "--scenario", workspace / "trace.cfg",
                    "--hours", 2, "--days", 1, "--seed", 3, "--out", out])
        assert code == EXIT_OK
        records = store.load(out)
        assert len(records) == 2
        payload = records[0].payload
        assert payload["tor"]["status"] == "Stalled"
        assert payload["rand"]["status"] == "Finished"
        assert payload["tor"]["entry_label"] == "COM"

    def test_tables_follow_ports_flag(self, workspace):
        scenario = workspace / "trace443.cfg"
        scenario.write_text(TRACE_SCENARIO.replace("port = 9001", "port = 443"))
        out = workspace / "runs.jsonl"
        run(["trace", "--dests", workspace / "dests.csv", "--scenario", scenario,
             "--ports", "443,444", "--hours", 3, "--days", 1, "--seed", 3,
             "--out", out])
        report = workspace / "tables.csv"
        assert run(["analyze", "tables", "--input", out,
                    "--out", report]) == EXIT_OK
        rows = list(csv.reader(report.read_text().splitlines()))
        # The filtered port's runs stall and count as Torport.
        assert rows == [
            ["", "EDU_Randport", "EDU_Torport", "COM_Randport", "COM_Torport"],
            ["Stalled", "0", "0", "0", "3"],
            ["Finished", "0", "0", "3", "0"]]

    @pytest.mark.parametrize("flags, why", [
        (["--hours", 26, "--days", 2], "hours must be within 1-24, got 26"),
        (["--hours", 0], "hours must be within 1-24, got 0"),
        (["--days", 0], "days must be at least 1, got 0"),
        (["--ports", "9001,70000"], "--ports 9001,70000: port: '70000' is "
                                    "not an integer from 0 to 65535"),
        (["--ports=-1,9002"], "--ports -1,9002: port: '-1' is not an "
                              "integer from 0 to 65535"),
        (["--ports", "9001"], "--ports 9001: not enough values to unpack "
                              "(expected 2, got 1)"),
    ], ids=["hours-26", "hours-0", "days-0", "port-70000", "port-negative",
            "one-port"])
    def test_bad_setting_refused_before_the_first_probe(self, workspace,
                                                        capsys, flags, why):
        out = workspace / "runs.jsonl"
        args = ["trace", "--dests", workspace / "dests.csv",
                "--scenario", workspace / "trace.cfg", "--seed", 3,
                "--out", out]
        if "--hours" not in flags:
            args += ["--hours", 1]
        code = run(args + flags)
        assert code == 1
        assert capsys.readouterr().err == f"error: {why}\n"
        assert not out.exists()

    def test_same_port_twice_rejected(self, workspace, capsys):
        out = workspace / "runs.jsonl"
        code = run(["trace", "--dests", workspace / "dests.csv",
                    "--scenario", workspace / "trace.cfg",
                    "--ports", "9001,9001", "--hours", 1, "--days", 1,
                    "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--ports" in err
        assert not out.exists()


class TestSimulateCommand:
    def test_identical_outputs(self, workspace):
        a, b = workspace / "t1.jsonl", workspace / "t2.jsonl"
        for out in (a, b):
            code = run(["simulate", "--scenario", workspace / "trace.cfg",
                        "--seed", 1, "--duration-s", 30, "--out", out])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_duration_fails(self, workspace, capsys):
        code = run(["simulate", "--scenario", workspace / "trace.cfg",
                    "--seed", 1, "--out", workspace / "t.jsonl"])
        assert code == 1

    @pytest.mark.parametrize("duration", ["inf", "nan", "-5", "0", "1e999"])
    def test_bad_duration_refused(self, workspace, capsys, duration):
        out = workspace / "t.jsonl"
        args = ["simulate", "--scenario", workspace / "trace.cfg",
                "--seed", 1, f"--duration-s={duration}", "--out", out]
        if duration in ("inf", "nan"):
            # Not a number in the scenario grammar: the flag's parser
            # refuses it.
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 2
            assert (f"--duration-s: invalid number value: {duration!r}"
                    in capsys.readouterr().err)
        else:
            assert run(args) == 1
            assert capsys.readouterr() == (
                "", "error: duration_s must be finite and at least 1 ns, "
                    f"got {float(duration)!r}\n")
        assert not out.exists()


class TestPruneAndAnalyze:
    def make_data(self, workspace):
        out = workspace / "data.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg",
             "--rounds", 2, "--seed", 5, "--out", out])
        return out

    def test_prune_passthrough_for_valid_campaign(self, workspace):
        data = self.make_data(workspace)
        pruned = workspace / "pruned.jsonl"
        code = run(["prune", "--input", data, "--out", pruned,
                    "--discard-log", workspace / "discards.jsonl"])
        assert code == EXIT_OK
        assert store.load(pruned) == store.load(data)

    def test_analyze_tables(self, workspace):
        data = self.make_data(workspace)
        report = workspace / "report.csv"
        table = workspace / "prefixes.csv"
        table.write_text("cidr,label,region\n36.0.0.0/8,CLIENT,CN\n")
        code = run(["analyze", "tables", "--input", data,
                    "--prefix-table", table, "--out", report])
        assert code == EXIT_OK
        rows = list(csv.reader(report.read_text().splitlines()))
        assert rows[0][0] == "client_region"
        assert rows[1][0] == "CN"

    def test_analyze_temporal_and_spatial(self, workspace):
        data = self.make_data(workspace)
        for what in ("temporal", "spatial"):
            out = workspace / f"{what}.csv"
            assert run(["analyze", what, "--input", data, "--out", out]) == EXIT_OK
            assert out.exists()

    def test_redacted_clients_stay_apart(self, workspace):
        data = workspace / "red.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg", "--rounds", 2,
             "--seed", 5, "--redact-client-bits", 16, "--out", data])
        clients = [rec.payload["client"] for rec in store.load(data)]
        assert {c["addr"] for c in clients} == {"36.10.0.0"}
        assert sorted(c["lat"] for c in clients) == [30.5, 39.9]
        out = workspace / "spatial.csv"
        assert run(["analyze", "spatial", "--input", data,
                    "--out", out]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [row[0] for row in rows] == ["k", "1"]

    def test_prune_rejects_unreadable_payload(self, workspace, capsys):
        data = self.make_data(workspace)
        with open(data, "a") as fh:
            fh.write('{"v":1,"kind":"BacklogScan","payload":{},"checks":{}}\n')
        pruned = workspace / "pruned.jsonl"
        discards = workspace / "discards.jsonl"
        code = run(["prune", "--input", data, "--out", pruned,
                    "--discard-log", discards])
        assert code == EXIT_OK
        assert "retained 2/3" in capsys.readouterr().out
        assert [json.loads(l) for l in discards.read_text().splitlines()] == [
            {"kind": "BacklogScan", "failed": [],
             "payload": "record 3 (BacklogScan) has no payload field 'kind'"}]
        assert run(["analyze", "tables", "--input", pruned,
                    "--out", workspace / "report.csv"]) == EXIT_OK

    SCAN = ('{{"kind":"{kind}","relay":{{"addr":"203.0.113.5","port":9001,'
            '"role":"{role}"}},"probe_count":0,"fill_count":0,'
            '"observed_retransmissions":[],"verdict":"Passes","timestamp":0}}')
    RUN = ('{{"dest":"36.10.0.5","src_port":{port},"flags":["SYN","ACK"],'
           '"hops":{hops},"status":"Stalled","hour":0}}')

    @pytest.mark.parametrize("kind, payload, why", [
        ("BacklogScan", SCAN.format(kind="Bogus", role="tor-relay"),
         "bad scan kind: Bogus"),
        ("BacklogScan", SCAN.format(kind="SynScan", role="mail"),
         "unknown role: 'mail'"),
        ("Traceroute",
         '{"dest":"36.10.0.5","hour":0,'
         f'"tor":{RUN.format(port=9001, hops="[[2,null,null],[1,null,null]]")},'
         f'"rand":{RUN.format(port=9002, hops="[[1,null,null]]")}}}',
         "hops must cover strictly increasing TTLs"),
        # A status edited to Done used to pass prune, and analyze tables
        # then ended in a bare KeyError: 'Done'.
        ("Traceroute",
         '{"dest":"36.10.0.5","hour":0,'
         f'"tor":{RUN.format(port=9001, hops="[]").replace("Stalled", "Done")},'
         f'"rand":{RUN.format(port=9002, hops="[]")}}}',
         "unknown status: 'Done'"),
    ], ids=["scan-kind", "relay-role", "ttl-order", "status-done"])
    def test_prune_discards_payload_failing_its_type(self, workspace, capsys,
                                                     kind, payload, why):
        data = self.make_data(workspace)
        with open(data, "a") as fh:
            fh.write(f'{{"v":1,"kind":"{kind}","payload":{payload},'
                     '"checks":{}}\n')
        pruned = workspace / "pruned.jsonl"
        discards = workspace / "discards.jsonl"
        code = run(["prune", "--input", data, "--out", pruned,
                    "--discard-log", discards])
        assert code == EXIT_OK
        assert "retained 2/3" in capsys.readouterr().out
        assert [json.loads(l) for l in discards.read_text().splitlines()] == [
            {"kind": kind, "failed": [],
             "payload": f"record 3 ({kind}) has a malformed payload: {why}"}]

    @pytest.mark.parametrize("field, value, why", [
        ("client", "notanaddr", "invalid IPv4 address: 'notanaddr'"),
        ("label", "Bogus", "unknown label variant: 'Bogus'"),
    ], ids=["client-addr", "label-variant"])
    def test_prune_discards_idle_record_analyze_cannot_use(
            self, workspace, capsys, field, value, why):
        data = self.make_data(workspace)
        bad = store.load(data)[0]
        bad.payload[field]["addr" if field == "client" else "variant"] = value
        with open(data, "a") as fh:
            fh.write(bad.to_json() + "\n")
        pruned = workspace / "pruned.jsonl"
        discards = workspace / "discards.jsonl"
        code = run(["prune", "--input", data, "--out", pruned,
                    "--discard-log", discards])
        assert code == EXIT_OK
        assert "retained 2/3" in capsys.readouterr().out
        assert [json.loads(l) for l in discards.read_text().splitlines()] == [
            {"kind": "IdleScan", "failed": [],
             "payload": f"record 3 (IdleScan) has a malformed payload: {why}"}]
        assert run(["analyze", "tables", "--input", pruned,
                    "--out", workspace / "report.csv"]) == EXIT_OK

    @pytest.mark.parametrize("field, value, why", [
        ("stable", "no", "stable is not a JSON bool: 'no'"),
        ("port", True, "port is not a JSON int: True"),
        ("port", 9001.9, "port is not a JSON int: 9001.9"),
        ("port", "9001", "port is not a JSON int: '9001'"),
        ("port", 65536, "port must be within 0-65535, got 65536"),
        ("lat", "59.3", "lat is not a JSON float: '59.3'"),
        ("addr", "203.0.113.05", "invalid IPv4 address: '203.0.113.05'"),
    ], ids=["stable-text", "port-bool", "port-fraction", "port-text",
            "port-65536", "lat-text", "addr-non-canonical"])
    def test_prune_discards_relay_field_of_the_wrong_json_type(
            self, workspace, capsys, field, value, why):
        # Each used to be coerced: "no" read as stable, true as port 1,
        # 9001.9 and "9001" as port 9001, and "59.3" as 59.3.
        data = workspace / "backlog.jsonl"
        assert run(["backlog-scan", "--kind", "syn",
                    "--relay", "203.0.113.5:9001",
                    "--scenario", workspace / "scen.cfg", "--seed", 7,
                    "--out", data]) == EXIT_OK
        bad = store.load(data)[0]
        bad.payload["relay"][field] = value
        data.write_text(bad.to_json() + "\n")
        discards = workspace / "discards.jsonl"
        capsys.readouterr()
        assert run(["prune", "--input", data, "--out", workspace / "p.jsonl",
                    "--discard-log", discards]) == EXIT_OK
        assert "retained 0/1" in capsys.readouterr().out
        assert [json.loads(l) for l in discards.read_text().splitlines()] == [
            {"kind": "BacklogScan", "failed": [],
             "payload": "record 1 (BacklogScan) has a malformed payload: "
                        + why}]

    # The one-record scan of each kind, without its --out.
    SCANS = {
        "idle": ["idle-scan", "--clients", "clients.csv", "--servers",
                 "servers.csv", "--scenario", "scen.cfg", "--seed", 5],
        "backlog": ["backlog-scan", "--kind", "syn", "--relay",
                    "203.0.113.5:9001", "--scenario", "scen.cfg", "--seed", 7],
        "trace": ["trace", "--dests", "dests.csv", "--scenario", "trace.cfg",
                  "--hours", 1, "--days", 1, "--seed", 3],
    }

    @pytest.mark.parametrize("scan, path, value, field, what", [
        ("idle", ("client", "lat"), "30.5", "lat", "spatial"),
        ("idle", ("client", "lat"), True, "lat", "spatial"),
        ("backlog", ("verdict",), "Maybe", "verdict", "tables"),
        ("backlog", ("timestamp",), "0", "timestamp", "tables"),
        ("backlog", ("baseline", "gaps_s"), "abc", "gaps_s", "tables"),
        ("backlog", ("observed_retransmissions",), "abcde",
         "observed_retransmissions", "tables"),
        ("trace", ("tor", "hour"), "1", "hour", "diurnal"),
        ("trace", ("tor", "hops", 0, 0), "1", "ttl", "diurnal"),
    ], ids=["idle-lat-text", "idle-lat-bool", "backlog-verdict",
            "backlog-timestamp-text", "backlog-gaps-text",
            "backlog-retransmissions-text", "trace-hour-text",
            "trace-ttl-text"])
    def test_prune_discards_record_field_of_the_wrong_type(
            self, workspace, capsys, monkeypatch, scan, path, value, field,
            what):
        # Each edit but the TTL used to pass prune; "30.5", "Maybe", "0"
        # and the hour "1" then ended analyze in a bare traceback, and the
        # TTL "1" failed with Python's "'<' not supported" message.
        monkeypatch.chdir(workspace)
        data = workspace / "data.jsonl"
        assert run(self.SCANS[scan] + ["--out", data]) == EXIT_OK
        [rec] = store.load(data)
        assert rec.admitted
        holder = rec.payload
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        data.write_text(rec.to_json() + "\n")
        discards = workspace / "discards.jsonl"
        capsys.readouterr()
        assert run(["prune", "--input", data, "--out", workspace / "p.jsonl",
                    "--discard-log", discards]) == EXIT_OK
        assert "retained 0/1" in capsys.readouterr().out
        [entry] = [json.loads(l) for l in discards.read_text().splitlines()]
        assert entry["failed"] == []
        assert field in entry["payload"] and repr(value) in entry["payload"]
        assert run(["analyze", what, "--input", data,
                    "--out", workspace / "a.csv"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {entry['payload']}"

    def test_analyze_tables_culls_a_prefix_table_label(self, workspace):
        # A label of the prefix table's own used to end analyze tables in
        # a bare KeyError: ('NET', 'Torport').
        table = workspace / "prefixes.csv"
        table.write_text("cidr,label,region\n202.97.0.0/16,NET,CN\n")
        data = workspace / "runs.jsonl"
        assert run(["trace", "--dests", workspace / "dests.csv",
                    "--scenario", workspace / "trace.cfg",
                    "--prefix-table", table, "--hours", 2, "--days", 1,
                    "--seed", 3, "--out", data]) == EXIT_OK
        assert {rec.payload[side]["entry_label"] for rec in store.load(data)
                for side in ("tor", "rand")} == {"NET"}
        report = workspace / "tables.csv"
        assert run(["analyze", "tables", "--input", data,
                    "--out", report]) == EXIT_OK
        assert list(csv.reader(report.read_text().splitlines())) == [
            ["", "EDU_Randport", "EDU_Torport", "COM_Randport", "COM_Torport"],
            ["Stalled", "0", "0", "0", "0"],
            ["Finished", "0", "0", "0", "0"]]

    def test_analyze_spatial_reads_config(self, workspace):
        clients = workspace / "clients3.csv"
        clients.write_text(
            (workspace / "clients.csv").read_text()
            + "36.10.0.7,0,client,23.1,113.3,0,1\n")
        data = workspace / "data3.jsonl"
        run(["idle-scan", "--clients", clients,
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg",
             "--rounds", 3, "--seed", 5, "--out", data])
        config = workspace / "analytics.ini"
        config.write_text("[analytics]\nk = 2\n")
        out = workspace / "spatial.csv"
        assert run(["analyze", "spatial", "--input", data, "--config", config,
                    "--out", out]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [row[0] for row in rows] == ["k", "1", "2"]

    def test_analyze_hops_and_diurnal(self, workspace):
        out = workspace / "runs.jsonl"
        run(["trace", "--dests", workspace / "dests.csv",
             "--scenario", workspace / "trace.cfg",
             "--hours", 3, "--days", 1, "--seed", 3, "--out", out])
        hops_csv = workspace / "hops.csv"
        assert run(["analyze", "hops", "--input", out, "--out", hops_csv]) == EXIT_OK
        rows = list(csv.reader(hops_csv.read_text().splitlines()))
        # Rule sits at the second in-region hop; one admitted pair per slot.
        assert rows[1] == ["2", "3"]
        diurnal_csv = workspace / "diurnal.csv"
        assert run(["analyze", "diurnal", "--input", out,
                    "--out", diurnal_csv]) == EXIT_OK


class TestQualifyCommand:
    def test_verdicts_written(self, workspace):
        out = workspace / "qual.jsonl"
        code = run(["qualify", "--clients", workspace / "clients.csv",
                    "--scenario", workspace / "scen.cfg",
                    "--seed", 2, "--out", out])
        assert code == EXIT_OK
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert {l["verdict"] for l in lines} == {"qualified"}


class TestSeedResolution:
    def test_exported_seed_changes_nothing(self, tmp_path, monkeypatch):
        # The seed is --seed, else the scenario's [sim] seed: a variable in
        # the environment is no input, so a run without --seed writes the
        # same bytes whether or not INFERSCAN_SEED is exported.
        smoke = Path(__file__).resolve().parent / "smoke"
        outs = []
        for exported in (False, True):
            if exported:
                monkeypatch.setenv("INFERSCAN_SEED", "1")
            outs.append(tmp_path / f"events{int(exported)}.jsonl")
            assert run(["simulate", "--scenario", smoke / "scenario.cfg",
                        "--duration-s", 30, "--out", outs[-1]]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        # Noise is drawn from the seed, so another seed would show.
        assert outs[0].read_bytes().count(b'"ev":"noise"') > 0


class TestMalformedInput:
    @pytest.mark.parametrize("line", ['{"v":1,"payload":{}}', '[1]'])
    def test_prune_rejects_malformed_record(self, workspace, capsys, line):
        data = workspace / "bad.jsonl"
        data.write_text(line + "\n")
        code = run(["prune", "--input", data, "--out", workspace / "p.jsonl"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_client_csv_without_addr_column(self, workspace, capsys):
        clients = workspace / "noaddr.csv"
        clients.write_text("host,port,role\n36.10.0.5,0,client\n")
        code = run(["qualify", "--clients", clients,
                    "--scenario", workspace / "scen.cfg",
                    "--out", workspace / "q.jsonl"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "noaddr.csv" in err and "line 2" in err and "addr" in err

    @pytest.mark.parametrize("addr", ["010.0.0.1", "1.2.3.0x10", "1.2.3.4 x"])
    def test_endpoint_csv_non_canonical_addr(self, workspace, capsys, addr):
        clients = workspace / "octal.csv"
        clients.write_text(f"addr,port,role\n36.10.0.5,0,client\n"
                           f"{addr},0,client\n")
        with pytest.raises(EndpointError) as info:
            load_endpoints(clients)
        assert str(info.value) == (f"{clients}, line 3: addr: invalid IPv4 "
                                   f"address: {addr!r}")
        code = run(["qualify", "--clients", clients,
                    "--scenario", workspace / "scen.cfg",
                    "--out", workspace / "q.jsonl"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_endpoint_csv_port_out_of_range(self, workspace, capsys, port):
        servers = workspace / "badport.csv"
        servers.write_text("addr,port,role,uptime_days\n"
                           "203.0.113.5,9001,tor-relay,12\n"
                           f"203.0.113.6,{port},tor-relay,12\n")
        with pytest.raises(EndpointError) as info:
            load_endpoints(servers)
        assert str(info.value) == (f"{servers}, line 3: port: {port!r} is "
                                   "not an integer from 0 to 65535")
        code = run(["idle-scan", "--clients", workspace / "clients.csv",
                    "--servers", servers, "--scenario", workspace / "scen.cfg",
                    "--out", workspace / "i.jsonl"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_endpoint_csv_port_bounds_load(self, workspace):
        servers = workspace / "ports.csv"
        servers.write_text("addr,port,role\n203.0.113.5,0,web\n"
                           "203.0.113.6,65535,web\n")
        assert [ep.port for ep in load_endpoints(servers)] == [0, 65535]

    def test_endpoint_csv_padded_addr_loads_canonical(self, workspace):
        clients = workspace / "padded.csv"
        clients.write_text("addr,port,role\n36.10.0.5 ,0,client\n")
        assert [ep.addr for ep in load_endpoints(clients)] == ["36.10.0.5"]

    @pytest.mark.parametrize("field, value, message", [
        ("lat", "nan", "lat: 'nan' is not a number"),
        ("lat", "-inf", "lat: '-inf' is not a number"),
        ("lat", "90.5", "lat must be a finite number within ±90, got 90.5"),
        ("lat", "1e999", "lat must be a finite number within ±90, got inf"),
        ("lon", "inf", "lon: 'inf' is not a number"),
        ("lon", "-181", "lon must be a finite number within ±180, got -181.0"),
        ("uptime_days", "nan", "uptime_days: 'nan' is not a number"),
    ])
    def test_endpoint_csv_bad_coordinates_refused(self, workspace, capsys,
                                                  field, value, message):
        # A NaN lat used to run the whole scan and write "lat":NaN, which
        # is not JSON.
        clients = workspace / "badcoords.csv"
        fields = {"lat": "39.9", "lon": "116.4", "uptime_days": "0"}
        fields[field] = value
        clients.write_text("addr,port,role,lat,lon,uptime_days\n"
                           "36.10.0.5,0,client,39.9,116.4,0\n"
                           "36.10.0.6,0,client,{lat},{lon},{uptime_days}\n"
                           .format(**fields))
        with pytest.raises(EndpointError) as info:
            load_endpoints(clients)
        assert str(info.value) == f"{clients}, line 3: {message}"
        out = workspace / "i.jsonl"
        code = run(["idle-scan", "--clients", clients,
                    "--servers", workspace / "servers.csv",
                    "--scenario", workspace / "scen.cfg", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not out.exists()

    def test_endpoint_csv_coordinate_bounds_load(self, workspace):
        clients = workspace / "poles.csv"
        clients.write_text("addr,port,role,lat,lon\n36.10.0.5,0,client,90,-180\n"
                           "36.10.0.6,0,client,-90,180\n")
        assert [(ep.lat, ep.lon) for ep in load_endpoints(clients)] == [
            (90.0, -180.0), (-90.0, 180.0)]

    @pytest.mark.parametrize("flag, stable", [
        ("on", True), ("off", False), ("yes", True), ("no", False),
        ("1", True), ("0", False), ("TRUE", True), ("", True)])
    def test_endpoint_csv_stable_flag_is_a_scenario_boolean(
            self, workspace, flag, stable):
        # "on" used to read as unstable, so filter_stable dropped the relay.
        servers = workspace / "flags.csv"
        servers.write_text("addr,port,role,uptime_days,stable_flag\n"
                           f"203.0.113.5,9001,tor-relay,12,{flag}\n")
        [relay] = load_endpoints(servers)
        assert relay.stable is stable
        assert filter_stable([relay]) == ([relay] if stable else [])

    @pytest.mark.parametrize("column, cell, why", [
        ("stable_flag", "maybe", "stable_flag: 'maybe' is not a boolean"),
        ("stable_flg", "0", "unknown key: stable_flg"),
        ("stable_flg", "", "unknown key: stable_flg"),
    ], ids=["maybe", "misspelt-column", "misspelt-empty-column"])
    def test_endpoint_csv_bad_stable_flag_refused(self, workspace, capsys,
                                                  column, cell, why):
        # "maybe" used to read as unstable, and a misspelt column was
        # ignored, so every relay of the file read as stable.
        servers = workspace / "flags.csv"
        servers.write_text(f"addr,port,role,uptime_days,{column}\n"
                           f"203.0.113.5,9001,tor-relay,12,{cell}\n")
        with pytest.raises(EndpointError) as info:
            load_endpoints(servers)
        assert str(info.value) == f"{servers}, line 2: {why}"
        out = workspace / "i.jsonl"
        assert run(["idle-scan", "--clients", workspace / "clients.csv",
                    "--servers", servers, "--scenario", workspace / "scen.cfg",
                    "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("row, why", [
        (",9001,tor-relay", "missing addr"),
        ("203.0.113.5,,tor-relay", "missing port"),
        ("203.0.113.5,9001,", "missing role"),
        ("203.0.113.5,9001,tor-relay,x", "more cells than columns"),
    ], ids=["addr", "port", "role", "extra-cell"])
    def test_endpoint_csv_required_cells(self, workspace, row, why):
        # An empty port used to read as port 0, and an extra cell was
        # ignored.
        servers = workspace / "short.csv"
        servers.write_text(f"addr,port,role\n{row}\n")
        with pytest.raises(EndpointError) as info:
            load_endpoints(servers)
        assert str(info.value) == f"{servers}, line 2: {why}"


    @pytest.mark.parametrize("hours", ["3-25", "24"])
    def test_rule_hours_out_of_range(self, workspace, capsys, hours):
        scen = workspace / "badhours.cfg"
        scen.write_text(TRACE_SCENARIO + f"hours = {hours}\n")
        code = run(["simulate", "--scenario", scen, "--seed", 1,
                    "--duration-s", 1, "--out", workspace / "t.jsonl"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[rule gfw]" in err
        assert "Traceback" not in err

    def test_negative_hop_delay(self, workspace, capsys):
        scen = workspace / "badhop.cfg"
        scen.write_text(TRACE_SCENARIO.replace("202.97.0.1@CN",
                                               "202.97.0.1@CN@-50"))
        code = run(["simulate", "--scenario", scen, "--seed", 1,
                    "--duration-s", 1, "--out", workspace / "t.jsonl"])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: [path relay dest] hops: ")
        assert "'-50'" in line

    @pytest.mark.parametrize("old, new, message", [
        ("delay_ms = 60", "delay_ms = inf", "[path relay dest] delay_ms: 'inf'"),
        ("default_delay_ms = 10", "default_delay_ms = -5",
         "[sim] default_delay_ms: '-5'"),
        ("[rule gfw]", "[defaults]\npath_delay_ms = nan\n\n[rule gfw]",
         "[defaults] path_delay_ms: 'nan'"),
        ("addr = 36.10.0.5", "addr = 36.10.0.5\nbackground_rate = nan",
         "[client dest] background_rate: 'nan'"),
        ("[rule gfw]", "[defaults]\nclient_background_rate = -3\n\n[rule gfw]",
         "[defaults] client_background_rate: '-3'"),
        ("seed = 4", "seed = 4\nduration_s = -5", "[sim] duration_s: '-5'"),
    ], ids=["path-delay", "sim-delay", "defaults-delay", "client-rate",
            "defaults-rate", "sim-duration"])
    def test_delay_or_rate_not_finite_and_nonnegative(
            self, workspace, capsys, old, new, message):
        # An infinite delay used to end in a bare OverflowError, a NaN or
        # negative rate loaded as a noiseless client, and a negative
        # duration loaded as none ("scenario has no duration").
        scen = workspace / "badvalue.cfg"
        scen.write_text(TRACE_SCENARIO.replace(old, new, 1))
        code = run(["simulate", "--scenario", scen, "--seed", 1,
                    "--duration-s", 1, "--out", workspace / "t.jsonl"])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {message} is not a finite number")

    @pytest.mark.parametrize("key, value, message", [
        ("server_backlog_capacity", -4, "'-4' is not an integer >= 1"),
        ("server_max_retransmissions", 9,
         "9 is more than the 5 entries of the backoff schedule"),
    ])
    def test_bad_server_default_names_the_key(self, workspace, capsys, key,
                                              value, message):
        # A capacity of -4 used to void every round ("completed 0 rounds"),
        # and 9 retransmissions failed at the first server without a key.
        scen = workspace / "backlog.cfg"
        scen.write_text(SCENARIO.replace("[defaults]",
                                         f"[defaults]\n{key} = {value}"))
        code = run(["idle-scan", "--clients", workspace / "clients.csv",
                    "--servers", workspace / "servers.csv",
                    "--scenario", scen, "--rounds", 1, "--seed", 5,
                    "--out", workspace / "data.jsonl"])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: [defaults] {key}: {message}"

    def test_pair_epoch_below_one(self, workspace, capsys):
        # A zero epoch used to end in a bare ZeroDivisionError once a
        # backlog record reached the contingency table.
        data, config = workspace / "backlog.jsonl", workspace / "epoch.ini"
        assert run(["backlog-scan", "--kind", "syn",
                    "--relay", "203.0.113.5:9001",
                    "--scenario", workspace / "scen.cfg", "--seed", 7,
                    "--out", data]) == EXIT_OK
        config.write_text("[analytics]\npair_epoch_s = 0\n")
        capsys.readouterr()
        code = run(["analyze", "tables", "--input", data, "--config", config,
                    "--out", workspace / "report.csv"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {config}: [analytics] pair_epoch_s: '0' is not an "
            "integer >= 1\n")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 3\n", "[DEFAULT]\nseed = 3\n\n" + TRACE_SCENARIO],
        ids=["alone", "beside-sections"])
    def test_default_section_in_a_scenario(self, workspace, capsys, text):
        # A [DEFAULT] section lent its keys to every other section, so the
        # error named [monitor relay] for a seed it never held; alone, it
        # loaded with seed 0 and no error.
        scen = workspace / "default.cfg"
        scen.write_text(text)
        code = run(["simulate", "--scenario", scen, "--duration-s", 1,
                    "--out", workspace / "t.jsonl"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: [DEFAULT] unknown section kind\n")

    def test_default_section_in_an_analytics_file(self, workspace, capsys):
        # It used to stand in for the missing [analytics] section.
        config = workspace / "default.ini"
        config.write_text("[DEFAULT]\nk = 3\n")
        (workspace / "data.jsonl").write_text("")
        code = run(["analyze", "spatial", "--input", workspace / "data.jsonl",
                    "--config", config, "--out", workspace / "spatial.csv"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {config}: unknown section: [DEFAULT]\n")

    @pytest.mark.parametrize("old, new, message", [
        ("seed = 11", "seed = x", "[sim] seed: 'x' is not an integer"),
        ("ports = 9001", "ports = 9001\ndown_s = x",
         "[server relay] down_s: 'x' is not an interval start-end with "
         "0 <= start < end"),
        ("placement_hop = 2", "placement_hop = 2\nhours = x",
         "[rule drop-tor-synack] hours: 'x' is not *, 24 binary digits or "
         "hours and ascending ranges 0-23 such as 0-1,11-23"),
    ], ids=["seed", "down_s", "hours"])
    def test_unparsable_value_names_its_form(self, workspace, capsys, old,
                                             new, message):
        # Each used to end in Python's conversion text, such as "invalid
        # literal for int() with base 10: 'x'".
        scen = workspace / "badvalue.cfg"
        scen.write_text(SCENARIO.replace(old, new, 1))
        code = run(["simulate", "--scenario", scen, "--duration-s", 1,
                    "--out", workspace / "t.jsonl"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_duplicate_scenario_section(self, workspace, capsys):
        scen = workspace / "dup.cfg"
        scen.write_text(TRACE_SCENARIO + "\n[client dest]\naddr = 36.10.0.6\n")
        code = run(["simulate", "--scenario", scen, "--seed", 1,
                    "--duration-s", 1, "--out", workspace / "t.jsonl"])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "client dest" in line

    @pytest.mark.parametrize("command", ["trace", "analyze"])
    def test_short_prefix_table_row(self, workspace, capsys, command):
        table = workspace / "prefixes.csv"
        table.write_text("cidr,label,region\n10.0.0.0/8,EDU\n")
        data = workspace / "runs.jsonl"
        data.write_text("")
        args = {"trace": ["trace", "--dests", workspace / "dests.csv",
                          "--scenario", workspace / "trace.cfg"],
                "analyze": ["analyze", "hops", "--input", data]}[command]
        code = run(args + ["--prefix-table", table,
                           "--out", workspace / "out.csv"])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert "prefixes.csv, line 2" in line

    @pytest.mark.parametrize("what", ["tables", "temporal", "spatial"])
    def test_analyze_rejects_incomplete_payload(self, workspace, capsys, what):
        data = workspace / "bad.jsonl"
        data.write_text('{"v":1,"kind":"IdleScan","payload":{},"checks":{}}\n')
        code = run(["analyze", what, "--input", data,
                    "--out", workspace / "a.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "record 1 (IdleScan)" in err and "'client'" in err

    @pytest.mark.parametrize("slot", ['"x"', "-5"])
    def test_analyze_rejects_bad_slot(self, workspace, capsys, slot):
        data = workspace / "bad.jsonl"
        payload = ('{"client":{"addr":"36.10.0.5","lat":1,"lon":2},'
                   '"server":{"role":"web"},"label":{"variant":"x"}}')
        data.write_text(f'{{"v":1,"kind":"IdleScan","payload":{payload},'
                        f'"checks":{{}},"meta":{{"slot":{slot}}}}}\n')
        code = run(["analyze", "temporal", "--input", data,
                    "--out", workspace / "a.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert "record 1 (IdleScan)" in err and "slot" in err

    def test_analyze_rejects_incomplete_traceroute(self, workspace, capsys):
        data = workspace / "bad.jsonl"
        data.write_text('{"v":1,"kind":"Traceroute","payload":{"tor":{}},'
                        '"checks":{}}\n')
        code = run(["analyze", "hops", "--input", data,
                    "--out", workspace / "a.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert "record 1 (Traceroute)" in err and "'dest'" in err


# Python's int() reads each of these as 9001.
LAX_9001 = ["9_001", "+9001", "\u0669\u0660\u0660\u0661"]


class TestOneGrammar:
    """Every value from a file or a flag is read by the scenario grammar,
    so a lax integer fails on every input path."""

    def args(self, workspace, path, text):
        """The CLI call that takes ``text`` on ``path``, and the name its
        error line gives the input."""
        out = workspace / "out.jsonl"
        simulate = ["simulate", "--scenario", workspace / "trace.cfg",
                    "--duration-s", 1, "--out", out]
        trace = ["trace", "--dests", workspace / "dests.csv",
                 "--scenario", workspace / "trace.cfg", "--hours", 1,
                 "--days", 1, "--out", out]
        idle_scan = ["idle-scan", "--clients", workspace / "clients.csv",
                     "--servers", workspace / "servers.csv",
                     "--scenario", workspace / "scen.cfg", "--out", out]
        if path == "--relay":
            return ["backlog-scan", "--kind", "syn",
                    "--relay", f"203.0.113.5:{text}",
                    "--scenario", workspace / "scen.cfg", "--out", out], path
        if path == "--ports":
            return trace + ["--ports", f"{text},9002"], path
        if path == "[rule] port":
            (workspace / "trace.cfg").write_text(
                TRACE_SCENARIO.replace("port = 9001", f"port = {text}"))
            return simulate, "[rule gfw] port: "
        if path == "CSV port":
            servers = workspace / "lax.csv"
            servers.write_text(f"addr,port,role,uptime_days\n"
                               f"203.0.113.5,{text},tor-relay,12\n")
            return (idle_scan + ["--servers", servers],
                    f"{servers}, line 2: port: ")
        flag_args = {"--seed": simulate, "--duration-s": simulate,
                     "--rounds": idle_scan, "--redact-client-bits": idle_scan,
                     "--hours": trace, "--days": trace}[path]
        kind = "number" if path == "--duration-s" else "integer"
        return flag_args + [path, text], f"argument {path}: invalid {kind} "

    @pytest.mark.parametrize("text", LAX_9001)
    @pytest.mark.parametrize("path", [
        "--relay", "--ports", "[rule] port", "CSV port",
        "--seed", "--rounds", "--redact-client-bits", "--hours", "--days",
        "--duration-s"])
    def test_lax_integer_refused(self, workspace, capsys, path, text):
        args, name = self.args(workspace, path, text)
        if name.startswith("argument "):  # a usage error
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 2
            assert f"{name}value: {text!r}" in capsys.readouterr().err
        else:
            assert run(args) == 1
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and name in line
            assert repr(text) in line
        assert not (workspace / "out.jsonl").exists()


class TestImports:
    def child_prints(self, code, cwd=None):
        """The last line ``code`` prints when run in a fresh interpreter."""
        src = Path(inferscan.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                               env=env, cwd=cwd, capture_output=True,
                               text=True, check=True)
        return child.stdout.strip().splitlines()[-1]

    def test_cli_import_leaves_scipy_out(self):
        assert self.child_prints(
            "import inferscan.cli; print('scipy' in sys.modules)") == "False"

    def test_cli_import_leaves_numpy_out(self):
        assert self.child_prints(
            "import inferscan.cli; print('numpy' in sys.modules)") == "False"

    def run_cli(self, workspace, args):
        """(exit code, whether numpy was loaded) of ``main(args)``, alone."""
        return self.child_prints(
            "from inferscan.cli import main\n"
            f"code = main({[str(a) for a in args]!r})\n"
            "print(code, 'numpy' in sys.modules)", cwd=workspace)

    def test_backlog_scan_leaves_numpy_out(self, workspace):
        assert self.run_cli(workspace, [
            "backlog-scan", "--kind", "syn", "--relay", "203.0.113.5:9001",
            "--scenario", "scen.cfg", "--seed", 7,
            "--out", "backlog.jsonl"]) == "0 False"

    def test_prune_and_analyze_leave_numpy_out(self, workspace):
        data = TestPruneAndAnalyze().make_data(workspace)
        (workspace / "prefixes.csv").write_text(
            "cidr,label,region\n36.0.0.0/8,CLIENT,CN\n")
        assert self.run_cli(workspace, [
            "prune", "--input", data, "--out", "pruned.jsonl"]) == "0 False"
        assert self.run_cli(workspace, [
            "analyze", "tables", "--input", "pruned.jsonl",
            "--prefix-table", "prefixes.csv",
            "--out", "report.csv"]) == "0 False"
        assert (workspace / "report.csv").read_text().startswith(
            "client_region")

    def test_idle_scan_and_simulate_run_without_numpy(self, tmp_path):
        # The smoke scenario's 2x2 campaign fits a model every round, and
        # its second round of each slot wakes a dormant noisy client;
        # analyze reads the smoke analytics file; simulate plays the
        # declared noisy client's ticks into dormancy.
        smoke = Path(__file__).resolve().parent / "smoke"
        idle_scan = ["idle-scan", "--clients", smoke / "clients.csv",
                     "--servers", smoke / "servers.csv",
                     "--scenario", smoke / "scenario.cfg", "--rounds", 2,
                     "--out", "data.jsonl"]
        analyze = ["analyze", "temporal", "--input", "data.jsonl",
                   "--config", smoke / "analytics.ini", "--out", "lags.csv"]
        simulate = ["simulate", "--scenario", smoke / "scenario.cfg",
                    "--out", "events.jsonl"]
        assert self.child_prints(
            'sys.modules["numpy"] = None  # any import of numpy fails\n'
            "from inferscan import classify, simnet\n"
            "from inferscan.cli import main\n"
            "calls = []\n"
            "def counted(fn):\n"
            "    def wrapper(*args):\n"
            "        calls.append(fn.__name__)\n"
            "        return fn(*args)\n"
            "    return wrapper\n"
            "classify.fit_arma = counted(classify.fit_arma)\n"
            "simnet.SimClient._wake = counted(simnet.SimClient._wake)\n"
            f"codes = [main({[str(a) for a in idle_scan]!r}),\n"
            f"         main({[str(a) for a in analyze]!r}),\n"
            f"         main({[str(a) for a in simulate]!r})]\n"
            "print(*codes, calls.count('fit_arma'), calls.count('_wake'))",
            cwd=tmp_path) == "0 0 0 4 3"
        assert len(store.load(tmp_path / "data.jsonl")) == 4
        assert (tmp_path / "lags.csv").read_text() == (
            "lag_hours,probability\n1,0.0\n")
        assert '"noise"' in (tmp_path / "events.jsonl").read_text()


class TestUsageAndGuardrails:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["idle-scan", "--nonsense"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_sim_requires_scenario(self, workspace, capsys):
        code = run(["qualify", "--clients", workspace / "clients.csv",
                    "--out", workspace / "q.jsonl"])
        assert code == 1
        assert "scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["idle-scan", "--probe-rate", "2"],
        ["idle-scan", "--spoof-rate", "4"],
        ["qualify", "--window", "20"],
        ["backlog-scan", "--kind", "syn", "--stagger-ms", "20000"],
        ["backlog-scan", "--kind", "syn", "--probes", "7"],
        ["backlog-scan", "--kind", "syn", "--transport", "live"],
        ["backlog-scan", "--kind", "syn", "--local-addr", "127.0.0.1"],
        ["backlog-scan", "--kind", "syn", "--i-have-authorization"],
        ["backlog-scan", "--kind", "syn", "--egress-unfiltered"],
        ["trace", "--max-ttl", "6"],
    ], ids=["probe-rate", "spoof-rate", "window", "stagger-ms", "probes",
            "transport", "local-addr", "i-have-authorization",
            "egress-unfiltered", "max-ttl"])
    def test_removed_flag_refused(self, workspace, flags):
        # The scan schedules are fixed, and backlog-scan runs on the
        # simulator only: these flags are usage errors, refused before any
        # output.
        out = workspace / "out.jsonl"
        args = {"idle-scan": ["--clients", workspace / "clients.csv",
                              "--servers", workspace / "servers.csv"],
                "qualify": ["--clients", workspace / "clients.csv"],
                "backlog-scan": ["--relay", "203.0.113.5:9001"],
                "trace": ["--dests", workspace / "dests.csv"]}[flags[0]]
        with pytest.raises(SystemExit) as exc:
            run(flags + args + ["--scenario", workspace / "scen.cfg",
                                "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_live_requires_authorization(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(["qualify", "--transport", "live",
                  "--clients", str(workspace / "clients.csv"),
                  "--out", str(workspace / "q.jsonl")])
        assert exc.value.code == 2

    def test_live_forbids_scenario(self, workspace, capsys):
        code = run(["qualify", "--transport", "live", "--i-have-authorization",
                    "--local-addr", "127.0.0.1",
                    "--scenario", workspace / "scen.cfg",
                    "--clients", workspace / "clients.csv",
                    "--out", workspace / "q.jsonl"])
        assert code == 1
        assert "forbids" in capsys.readouterr().err

    def test_help_lists_defaults(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["idle-scan", "--help"])
        text = capsys.readouterr().out
        for flag in ("--transport", "--seed", "--rounds",
                     "--redact-client-bits"):
            assert flag in text
        assert "default" in text
