"""Pinned scan outputs: records and packet logs of fixed scenarios.

Each test replays a fixed scenario and compares a sha256 over the scan
results and the packet log of every transport involved (every segment's
sequence number, IP-ID and timestamp, in both directions).  A change to a
digest means the scanners send or decide something different, or write
their log lines in another order; the idle round's sorted digest tells the
two apart.  A pure refactor keeps all of them.
"""

from __future__ import annotations

import hashlib
import json

from conftest import (
    CLIENT_ADDR,
    CLIENT_EP,
    MM_ADDR,
    SERVER_ADDR,
    SERVER_EP,
    VPS_ADDR,
    build_idle_sim,
)
from inferscan import backlog, idlescan
from inferscan.simnet import FilterRule, Hop, Simulator
from inferscan.transport import NS_PER_SEC, PacketLog

BACKLOG_SHA256 = "fc2fdbcb77f4e6a05a0a3661021d1b086c4a40219d5be4a10de8b9bb9ac14e75"
EDGE_SHA256 = "25f607f783ea8b5ad88cb4a6592b0d6becf4da7c8707d13b0ed49c061745be47"
IDLE_ROUND_SHA256 = "da8cb964aeb6886647eca40133815628e29977d1c1303fd5e5c8de1e6f3a64db"
# The same round with its packet log's lines sorted: what the scan sent and
# received, whatever order the lines were written in.
IDLE_ROUND_SORTED_SHA256 = "df40f98a148686368b09042ddfe0ac103393e514dfc42e4d6f833d19f573818d"
# Rounds whose probes leave in the same nanosecond as a client reply.
TIES_SHA256 = "ab45df18ea90c81e82ef6872582b84f4142d47e7b9735b481ec0b178eb5ce6da"
# Qualification over the fixed 30 s window.
QUALIFY_SHA256 = "1aadcec1558d7ad760e3fce44ca11227d551f6257fbb8d5dec5858d05e837d4d"
QUALIFY_SORTED_SHA256 = "07520218c1aab999e5289160945af3aba2697003ca870958edf7ff7f55372d97"


def digest(obj, *logs) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    for path in logs:
        blob += path.read_bytes()
    return hashlib.sha256(blob).hexdigest()


def sorted_digest(obj, *logs) -> str:
    """``digest`` over each log's lines in sorted order."""
    blob = json.dumps(obj, sort_keys=True).encode()
    for path in logs:
        blob += b"".join(sorted(path.read_bytes().splitlines(keepends=True)))
    return hashlib.sha256(blob).hexdigest()


def backlog_sim(drop_syn: bool, drop_rst: bool, vps_loss: float,
                seed: int) -> Simulator:
    """Relay behind a firewall on a lossy vantage-point link; clean MM link."""
    sim = Simulator(seed=seed)
    sim.add_server(SERVER_ADDR, open_ports=[9001])
    sim.add_path(VPS_ADDR, SERVER_ADDR, hops=[Hop("10.9.0.1"),
                                              Hop("10.9.0.2", region="CN")],
                 delay_ns=20_000_000, filtered=True, loss_rate=vps_loss)
    sim.add_path(MM_ADDR, SERVER_ADDR, delay_ns=15_000_000)
    for flag, dropped in (("SYN", drop_syn), ("RST", drop_rst)):
        if dropped:
            sim.policy.rules.append(FilterRule(
                f"drop-{flag.lower()}", "client->server", addr=SERVER_ADDR,
                port=9001, placement_hop=2, flags=frozenset([flag])))
    return sim


def attach_logged(sim, addr, log_path, isn_seed):
    return sim.attach(addr, isn_seed=isn_seed, packet_log=PacketLog(log_path))


class TestPinnedBacklogScans:
    def test_grid_records_and_packets(self, tmp_path):
        """Baseline, SYN and RST scans over the 2x2 drop grid, lossless and
        with 2 % vantage-point loss; the second SYN/RST pair of each cell
        takes the scans' own default baseline."""
        out, logs = [], []
        cell = 0
        for drop_syn in (False, True):
            for drop_rst in (False, True):
                for loss in (0.0, 0.02):
                    cell += 1
                    sim = backlog_sim(drop_syn, drop_rst, loss, seed=40 + cell)
                    mm_log = tmp_path / f"mm{cell}.jsonl"
                    vps_log = tmp_path / f"vps{cell}.jsonl"
                    mm = attach_logged(sim, MM_ADDR, mm_log, 700 + cell)
                    vps = attach_logged(sim, VPS_ADDR, vps_log, 700 + cell)
                    base = backlog.baseline_probe(mm, SERVER_EP)
                    syn = backlog.syn_scan(mm, vps, SERVER_EP, baseline=base)
                    mm.clock.sleep_ns(80 * NS_PER_SEC)
                    rst = backlog.rst_scan(mm, vps, SERVER_EP, baseline=base,
                                           shared_isn_seed=900 + cell)
                    mm.clock.sleep_ns(80 * NS_PER_SEC)
                    syn2 = backlog.syn_scan(mm, vps, SERVER_EP)
                    mm.clock.sleep_ns(80 * NS_PER_SEC)
                    rst2 = backlog.rst_scan(mm, vps, SERVER_EP)
                    out.append({
                        "cell": [drop_syn, drop_rst, loss],
                        "baseline": base.to_dict(),
                        "scans": [r.to_dict() for r in (syn, rst, syn2, rst2)],
                        "peak_backlog": sim.server(SERVER_ADDR).peak_backlog,
                        "end": mm.clock.now_ns(),
                    })
                    mm.close()
                    vps.close()
                    logs += [mm_log, vps_log]
        verdicts = {(r["cell"][0], r["cell"][1]):
                    [s["verdict"] for s in r["scans"]]
                    for r in out if r["cell"][2] == 0.0}
        assert verdicts[(False, False)] == ["Passes"] * 4
        assert verdicts[(True, True)] == ["Dropped"] * 4
        assert digest(out, *logs) == BACKLOG_SHA256

    def test_invalid_baseline(self, tmp_path):
        """The early exit: a non-default stack, for both scan kinds."""
        sim = Simulator(seed=12)
        sim.add_server(SERVER_ADDR, open_ports=[9001], max_retransmissions=4)
        sim.add_path(MM_ADDR, SERVER_ADDR, delay_ns=15_000_000)
        sim.add_path(VPS_ADDR, SERVER_ADDR, delay_ns=20_000_000)
        log = tmp_path / "mm.jsonl"
        mm = attach_logged(sim, MM_ADDR, log, 5)
        vps = sim.attach(VPS_ADDR, isn_seed=5)
        recs = [backlog.syn_scan(mm, vps, SERVER_EP),
                backlog.rst_scan(mm, vps, SERVER_EP)]
        mm.close()
        assert [r.invalid_reason for r in recs] == [
            "non-default-stack", "non-default-stack"]
        assert digest([r.to_dict() for r in recs], log) == EDGE_SHA256


class TestPinnedIdleScans:
    def test_noisy_round(self, tmp_path):
        sim = build_idle_sim("s2c", seed=17, noise=1.0)
        log = tmp_path / "mm.jsonl"
        tr = attach_logged(sim, MM_ADDR, log, 31)
        result = idlescan.run_scan_round(tr, CLIENT_EP, SERVER_EP, hour=3)
        tr.close()
        out = {
            "series": result.series.to_dict(),
            "label": [result.label.variant, result.label.amplitude,
                      result.label.confidence, result.label.reason],
            "started_at": result.started_at,
            "finished_at": result.finished_at,
        }
        assert digest(out, log) == IDLE_ROUND_SHA256
        assert sorted_digest(out, log) == IDLE_ROUND_SORTED_SHA256

    def test_sends_tied_with_client_replies(self):
        """A 5 % lossy link between the measurement machine and the client,
        one way 200 ms, 500 ms or 1 s: a client reply leaves on it in the
        same nanosecond as a probe due then, and both draw from the link's
        one loss stream.  The probe draws second, after every event due at
        or before its slot, so the series and the labels stay put."""
        out = []
        for delay_ms in (200, 500, 1000):
            for seed in range(5):
                sim = build_idle_sim("s2c" if seed % 2 else "none",
                                     seed=seed, noise=0.25)
                sim.add_path(MM_ADDR, CLIENT_ADDR,
                             delay_ns=delay_ms * 1_000_000, loss_rate=0.05)
                tr = sim.attach(MM_ADDR, isn_seed=seed)
                try:
                    result = idlescan.run_scan_round(tr, CLIENT_EP, SERVER_EP)
                except idlescan.RoundVoided as exc:
                    out.append([delay_ms, seed, "voided", str(exc)])
                    continue
                out.append([delay_ms, seed, result.series.to_dict(),
                            [result.label.variant, result.label.amplitude,
                             result.label.confidence, result.label.reason],
                            result.finished_at])
        assert sum(len(r) == 5 for r in out) >= 12
        assert digest(out) == TIES_SHA256

    def test_qualify_global_and_per_flow(self, tmp_path):
        out, logs = [], []
        for mode in ("global", "per-flow"):
            sim = build_idle_sim("none", client_kwargs={"ipid_mode": mode})
            log = tmp_path / f"{mode}.jsonl"
            tr = attach_logged(sim, MM_ADDR, log, 8)
            result = idlescan.qualify_client(tr, CLIENT_ADDR)
            tr.close()
            out.append([result.verdict, result.reason, result.responses,
                        result.probes])
            logs.append(log)
        assert [v for v, *_ in out] == ["qualified", "disqualified"]
        assert digest(out, *logs) == QUALIFY_SHA256
        assert sorted_digest(out, *logs) == QUALIFY_SORTED_SHA256
