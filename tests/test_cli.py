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
from inferscan.cli import EXIT_OK, build_parser, main

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

    def test_stability_filter_applied(self, workspace):
        out = workspace / "data.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg",
             "--rounds", 2, "--seed", 5, "--out", out])
        addrs = {rec.payload["server"]["addr"] for rec in store.load(out)}
        assert addrs == {"203.0.113.5"}

    def test_redaction_flag(self, workspace):
        out = workspace / "red.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg",
             "--rounds", 1, "--seed", 5, "--redact-client-bits", 16,
             "--out", out])
        rec = store.load(out)[0]
        assert rec.payload["client"]["addr"].endswith(".0.0")

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
                    "--scenario", workspace / "scen.cfg", "--window", 12,
                    "--seed", 2, "--out", out])
        assert code == EXIT_OK
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert {l["verdict"] for l in lines} == {"qualified"}


class TestSeedResolution:
    def test_environment_seed_fallback(self, workspace, monkeypatch):
        outs = []
        for name in ("env1.jsonl", "env2.jsonl"):
            monkeypatch.setenv("INFERSCAN_SEED", "314")
            out = workspace / name
            run(["idle-scan", "--clients", workspace / "clients.csv",
                 "--servers", workspace / "servers.csv",
                 "--scenario", workspace / "scen.cfg",
                 "--rounds", 1, "--out", out])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        monkeypatch.setenv("INFERSCAN_SEED", "315")
        other = workspace / "env3.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg",
             "--rounds", 1, "--out", other])
        assert other.read_bytes() != outs[0]

    def test_explicit_seed_beats_environment(self, workspace, monkeypatch):
        monkeypatch.setenv("INFERSCAN_SEED", "314")
        with_env = workspace / "w1.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg",
             "--rounds", 1, "--seed", 5, "--out", with_env])
        monkeypatch.delenv("INFERSCAN_SEED")
        without = workspace / "w2.jsonl"
        run(["idle-scan", "--clients", workspace / "clients.csv",
             "--servers", workspace / "servers.csv",
             "--scenario", workspace / "scen.cfg",
             "--rounds", 1, "--seed", 5, "--out", without])
        assert with_env.read_bytes() == without.read_bytes()


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


class TestImports:
    def test_cli_import_leaves_scipy_out(self):
        src = Path(inferscan.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.run(
            [sys.executable, "-c",
             "import sys, inferscan.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert child.stdout.strip() == "False"


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
