"""The four benchmark workloads.

Each workload declares its world from ``--seed`` alone (see ``truth`` for
the declarations), builds the program's inputs from that declaration, and
runs one *pass* -- a whole round of the same operations -- per call of
``run_pass``.  Every verdict-producing call goes through a ``Recorder``,
which times it and compares its outcome with the declared truth.  Passes
repeat identical inputs, so every run attempts whole rounds and the share
of failed operations does not depend on how many passes fit in a run.

Inputs are written under the workload's work directory; nothing here
reads the repository's test fixtures.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import random
import time
from pathlib import Path

import truth
from inferscan import backlog, classify, cli, idlescan, tracer
from inferscan.endpoints import EndpointSpec
from inferscan.simnet import FilterRule, Hop, Simulator
from inferscan.transport import NS_PER_SEC

MM_ADDR = "198.51.100.9"
VPS_ADDR = "100.64.0.2"
CLIENT_ADDR = "36.10.0.5"
SERVER_ADDR = "203.0.113.5"
SERVER_PORT = 9001
CSV_HEADER = "addr,port,role,lat,lon,uptime_days,stable_flag\n"


# The reference chunk: a fixed piece of pure-Python work, run between
# verdicts and outside their timing.  Its time tracks the speed of the
# shared machine, which moves by up to 1.8x within a second (README,
# "Machine speed").  Timings are scaled by REF_NOMINAL_S over the chunk
# times measured around them, so they read as wall time at reference speed.
REF_NOMINAL_S = 1.0e-3
REF_ITEMS = 1000
# A chunk runs before a verdict when this long has passed since the last.
REF_EVERY_S = 0.05


def reference_chunk() -> None:
    """Heap pushes and pops and dict updates, as in an event loop; shares
    no code with the program."""
    heap: list = []
    counts: dict = {}
    for i in range(REF_ITEMS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 63] = counts.get(i & 63, 0) + i
    while heap:
        heapq.heappop(heap)


class FirstVerdict(Exception):
    """Raised by a probe recorder when the first verdict call starts."""


class Recorder:
    """Per-verdict wall time, simulated time, and agreement with truth.

    ``begin`` opens a verdict and ``end`` closes it.  A probe recorder
    raises ``FirstVerdict`` from ``begin`` instead, which ends a set-up
    measurement exactly where the first verdict-producing call starts.
    ``hook``, when given, is told where each verdict starts and ends.

    Reference chunks run at the start and end of each pass and before a
    verdict when REF_EVERY_S has passed since the last one.  They split the
    pass into intervals; each interval, and each verdict inside it, is
    scaled by REF_NOMINAL_S over the mean time of the two chunks around it
    (``pass_scaled_s``, ``scaled_s``).  ``pass_wall_s`` and ``wall_s`` keep
    the unscaled times; neither includes the chunks.
    """

    def __init__(self, probe: bool = False, hook=None):
        self.probe = probe
        self.hook = hook
        self.wall_s: list = []
        self.scaled_s: list = []
        self.tags: list = []
        self.pass_wall_s: list = []
        self.pass_scaled_s: list = []
        self.ref_s: list = []
        self.virtual_ns = 0
        self.failed = 0
        self._chunks: list = []  # (start, end) of this pass's chunks
        self._verdict_chunk: list = []  # chunk before each verdict of the pass

    @property
    def attempted(self) -> int:
        return len(self.wall_s)

    def _chunk(self) -> None:
        started = time.perf_counter()
        reference_chunk()
        self._chunks.append((started, time.perf_counter()))

    def begin_pass(self) -> None:
        self._chunks, self._verdict_chunk = [], []
        self._chunk()

    def end_pass(self) -> None:
        self._chunk()
        chunks = self._chunks
        took = [end - start for start, end in chunks]
        spans = [chunks[k + 1][0] - chunks[k][1] for k in range(len(chunks) - 1)]
        scales = [2 * REF_NOMINAL_S / (took[k] + took[k + 1])
                  for k in range(len(spans))]
        self.pass_wall_s.append(sum(spans))
        self.pass_scaled_s.append(sum(t * k for t, k in zip(spans, scales)))
        first = len(self.wall_s) - len(self._verdict_chunk)
        self.scaled_s += [self.wall_s[first + j] * scales[k]
                          for j, k in enumerate(self._verdict_chunk)]
        self.ref_s += took

    def begin(self) -> float:
        if self.probe:
            raise FirstVerdict
        if time.perf_counter() - self._chunks[-1][1] >= REF_EVERY_S:
            self._chunk()
        self._verdict_chunk.append(len(self._chunks) - 1)
        if self.hook is not None:
            self.hook.begin_verdict()
        return time.perf_counter()

    def end(self, started: float, virtual_ns: int, ok: bool, tag=None) -> None:
        self.wall_s.append(time.perf_counter() - started)
        if self.hook is not None:
            self.hook.end_verdict()
        self.virtual_ns += virtual_ns
        self.tags.append(tag)
        if not ok:
            self.failed += 1


def patch(owner, name: str, make_wrapper):
    """Replace ``owner.name`` (a module or class attribute) by
    ``make_wrapper(original)``; returns a function that restores it."""
    original = vars(owner)[name]
    setattr(owner, name, make_wrapper(original))
    return lambda: setattr(owner, name, original)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.problems: list = []  # exact-check failures found while running

    def write_inputs(self) -> None:
        """Write the input files a pass reads (CLI workloads only)."""

    def run_pass(self, rec: Recorder, out_dir: Path) -> None:
        raise NotImplementedError

    def check(self, out_dirs: list) -> list:
        """Exact checks over every pass's written outputs."""
        return list(self.problems)


# ---------------------------------------------------------------------------
# idle-campaign: the CLI path of a bipartite campaign plus `analyze tables`
# ---------------------------------------------------------------------------

IDLE_CLIENTS = 5
IDLE_SERVERS = 5
# Three slots: rounds cost more in each later slot, and with an odd number
# of equal slot groups the median verdict falls inside the middle group.
IDLE_SLOTS = 3
IDLE_NOISE = 0.5

IDLE_SCENARIO = """\
[sim]
seed = {seed}
default_delay_ms = 10

[monitor mm]
addr = 100.64.0.1

[defaults]
path_filtered = yes
path_hops = 10.9.0.1, 10.9.0.2@CN
path_delay_ms = 20
client_background_rate = {noise}
"""

IDLE_RULE = """
[rule drop-{i}]
direction = server->client
addr = {addr}
port = 9001
placement_hop = 2
"""


class IdleCampaign(Workload):
    name = "idle-campaign"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        servers = tuple(f"203.0.113.{i + 1}" for i in range(IDLE_SERVERS))
        self.decl = truth.IdleDecl(
            clients=tuple(f"36.10.0.{i + 1}" for i in range(IDLE_CLIENTS)),
            servers=servers,
            dropped=frozenset(rng.sample(servers, IDLE_SERVERS // 2)),
            slots=IDLE_SLOTS)
        self.coords = [(round(rng.uniform(18, 50), 2), round(rng.uniform(73, 135), 2))
                       for _ in self.decl.clients]
        self.voided: dict = {}  # out_dir -> voided rounds

    def write_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        with open(self.workdir / "clients.csv", "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER)
            for addr, (lat, lon) in zip(self.decl.clients, self.coords):
                fh.write(f"{addr},0,client,{lat},{lon},0,1\n")
        with open(self.workdir / "servers.csv", "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER)
            for addr in self.decl.servers:
                fh.write(f"{addr},{SERVER_PORT},tor-relay,50.0,10.0,9,1\n")
        rules = "".join(IDLE_RULE.format(i=i, addr=addr)
                        for i, addr in enumerate(sorted(self.decl.dropped)))
        (self.workdir / "scenario.cfg").write_text(
            IDLE_SCENARIO.format(seed=self.seed, noise=IDLE_NOISE) + rules,
            encoding="utf-8")

    def run_pass(self, rec, out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        decl = self.decl
        voided = 0

        def wrap(inner):
            def run_scan_round(transport, client, server, cfg=None, hour=0):
                nonlocal voided
                v0 = transport.clock.now_ns()
                started = rec.begin()
                try:
                    result = inner(transport, client, server, cfg, hour)
                except idlescan.RoundVoided:
                    voided += 1
                    rec.end(started, transport.clock.now_ns() - v0, False, hour)
                    raise
                ok = result.label.variant == truth.idle_expected(decl, server.addr)
                rec.end(started, transport.clock.now_ns() - v0, ok, hour)
                return result
            return run_scan_round

        undo = patch(idlescan, "run_scan_round", wrap)
        try:
            _cli(["idle-scan", "--clients", self.workdir / "clients.csv",
                  "--servers", self.workdir / "servers.csv",
                  "--scenario", self.workdir / "scenario.cfg",
                  "--rounds", IDLE_SLOTS, "--seed", self.seed,
                  "--out", out_dir / "data.jsonl"])
        finally:
            undo()
        _cli(["analyze", "tables", "--input", out_dir / "data.jsonl",
              "--out", out_dir / "report.csv"])
        self.voided[out_dir] = voided

    def check(self, out_dirs):
        first_dir = out_dirs[0]
        records = truth.read_jsonl(first_dir / "data.jsonl")
        problems = list(self.problems)
        problems += truth.check_idle_records(self.decl, records,
                                             self.voided[first_dir])
        problems += truth.check_case_table(
            records, truth.read_csv(first_dir / "report.csv"))
        return problems + _same_bytes(out_dirs, "data.jsonl")


# ---------------------------------------------------------------------------
# oracle-grid: independent idle rounds on fresh simulators
# ---------------------------------------------------------------------------

ORACLE_POLICIES = ("s2c", "none", "c2s")
# Noise stops at 0.5/s and paths stay lossless: beyond that some seeds
# mislabel a round (README, "Why the grids stop where they do").  Noiseless
# rounds skip the ARMA fit; at a third of the grid they keep the median
# verdict inside the noisy rounds instead of on the edge between the two.
ORACLE_NOISE = (0.0, 0.25, 0.5)
ORACLE_MAX_RETRANSMISSIONS = (3, 5)
ORACLE_SEEDS_PER_CELL = 2


def build_idle_sim(cell: truth.OracleCell) -> Simulator:
    """Client and relay on a three-hop filtered path, plus the prober's
    link to the client."""
    sim = Simulator(seed=cell.sim_seed)
    sim.add_client(CLIENT_ADDR, background_rate=cell.noise)
    sim.add_server(SERVER_ADDR, open_ports=[SERVER_PORT],
                   max_retransmissions=cell.max_retransmissions)
    hops = [Hop("10.9.0.1"), Hop("10.9.0.2", region="CN"),
            Hop("10.9.0.3", region="CN")]
    sim.add_path(CLIENT_ADDR, SERVER_ADDR, hops=hops, delay_ns=20_000_000,
                 filtered=True)
    sim.add_path(MM_ADDR, CLIENT_ADDR, delay_ns=15_000_000)
    if cell.policy != "none":
        direction = ("server->client" if cell.policy == "s2c"
                     else "client->server")
        sim.policy.rules.append(FilterRule(
            "block", direction, addr=SERVER_ADDR, port=SERVER_PORT,
            placement_hop=2))
    return sim


CLIENT_EP = EndpointSpec(CLIENT_ADDR, 0, "client", lat=30.5, lon=114.3)
SERVER_EP = EndpointSpec(SERVER_ADDR, SERVER_PORT, "tor-relay", lat=59.3,
                         lon=18.1, uptime_days=12.0)


class OracleGrid(Workload):
    name = "oracle-grid"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.cells = [truth.OracleCell(policy, noise, rng.getrandbits(32), max_rt)
                      for policy in ORACLE_POLICIES for noise in ORACLE_NOISE
                      for max_rt in ORACLE_MAX_RETRANSMISSIONS
                      for _ in range(ORACLE_SEEDS_PER_CELL)]
        self.cfg = idlescan.ScanRoundConfig()

    def run_pass(self, rec, out_dir):
        cfg = self.cfg
        for cell in self.cells:
            transport = build_idle_sim(cell).attach(MM_ADDR,
                                                    isn_seed=cell.sim_seed)
            v0 = transport.clock.now_ns()
            started = rec.begin()
            series = idlescan.run_idle_scan(transport, CLIENT_EP, SERVER_EP, cfg)
            label = classify.classify_series(series, settle_s=cfg.settle_s)
            rec.end(started, transport.clock.now_ns() - v0,
                    label.variant == truth.oracle_expected(cell))
            self.problems += truth.check_oracle_amplitude(cell, label.amplitude)


# ---------------------------------------------------------------------------
# backlog-grid: baseline, SYN scan and RST scan per fresh relay
# ---------------------------------------------------------------------------

BACKLOG_LOSS = (0.0, 0.02)
BACKLOG_SEEDS_PER_CELL = 2


def build_backlog_sim(cell: truth.BacklogCell) -> Simulator:
    """Relay behind a flag-matching, lossy firewall on the vantage point's
    link; the prober's own link stays clean (see README: loss there makes
    the baseline call some default stacks non-default)."""
    sim = Simulator(seed=cell.sim_seed)
    sim.add_server(SERVER_ADDR, open_ports=[SERVER_PORT])
    hops = [Hop("10.9.0.1"), Hop("10.9.0.2", region="CN")]
    sim.add_path(VPS_ADDR, SERVER_ADDR, hops=hops, delay_ns=20_000_000,
                 filtered=True, loss_rate=cell.loss)
    sim.add_path(MM_ADDR, SERVER_ADDR, delay_ns=15_000_000)
    for flag, dropped in (("SYN", cell.drop_syn), ("RST", cell.drop_rst)):
        if dropped:
            sim.policy.rules.append(FilterRule(
                f"drop-{flag.lower()}", "client->server", addr=SERVER_ADDR,
                port=SERVER_PORT, placement_hop=2, flags=frozenset([flag])))
    return sim


class BacklogGrid(Workload):
    name = "backlog-grid"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        # Verdicts fall into four cost classes of equal size: dropped SYN
        # scans and passed RST scans (cheap, each tightly bunched), then
        # passed SYN scans and dropped RST scans (dearer, overlapping).  The
        # (SYN passes, RST dropped) cell runs three times as often, so the
        # median verdict falls well inside the dearer mass instead of near
        # its cheap edge.
        self.cells = [truth.BacklogCell(drop_syn, drop_rst, loss,
                                        rng.getrandbits(32))
                      for drop_syn in (False, True) for drop_rst in (False, True)
                      for loss in BACKLOG_LOSS
                      for _ in range(BACKLOG_SEEDS_PER_CELL
                                     * (3 if drop_rst and not drop_syn else 1))]
        self.cfg = backlog.BacklogScanConfig()

    def run_pass(self, rec, out_dir):
        cfg = self.cfg
        for cell in self.cells:
            sim = build_backlog_sim(cell)
            mm = sim.attach(MM_ADDR, isn_seed=cell.sim_seed)
            vps = sim.attach(VPS_ADDR, isn_seed=cell.sim_seed)
            # The baseline is charged to the SYN scan, the pair's first verdict.
            v0 = mm.clock.now_ns()
            started = rec.begin()
            base = backlog.baseline_probe(mm, SERVER_EP, cfg)
            syn = backlog.syn_scan(mm, vps, SERVER_EP, cfg, baseline=base)
            rec.end(started, mm.clock.now_ns() - v0,
                    syn.verdict == truth.backlog_expected(cell, "syn"))
            # Let the fill burst's half-open entries expire before the RST scan.
            mm.clock.sleep_ns(80 * NS_PER_SEC)
            v0 = mm.clock.now_ns()
            started = rec.begin()
            rst = backlog.rst_scan(mm, vps, SERVER_EP, cfg, baseline=base,
                                   shared_isn_seed=cell.sim_seed)
            rec.end(started, mm.clock.now_ns() - v0,
                    rst.verdict == truth.backlog_expected(cell, "rst"))
            self.problems += truth.check_backlog_pair(
                cell, base.retransmission_count, base.gaps_s,
                sim.server(SERVER_ADDR).peak_backlog,
                {"syn": syn.verdict, "rst": rst.verdict})


# ---------------------------------------------------------------------------
# trace-campaign: the CLI `trace` subcommand plus `analyze hops`/`diurnal`
# ---------------------------------------------------------------------------

TRACE_RELAY = "193.10.0.9"
TRACE_DESTS = 4
TRACE_DAYS = 2
TRACE_HOURS = 24
TRACE_NOISE = 0.5
TRACE_PLACEMENT_HOP = 4
TRACE_PREFIX_ROWS = (
    ("159.226.0.0/16", "EDU", "CN"),
    ("210.250.0.0/16", "EDU", "CN"),
    ("202.97.0.0/16", "COM", "CN"),
    ("219.158.0.0/16", "COM", "CN"),
)


class TraceCampaign(Workload):
    name = "trace-campaign"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        dests = []
        for i in range(TRACE_DESTS):
            filtered = i % 2 == 0
            # 1-3 hops outside the region, so the rule's hop sits 1-3 hops in.
            outside = [f"80.{i + 1}.0.{k + 1}" for k in range(rng.randint(1, 3))]
            backbone = "202.97" if filtered else "159.226"
            inside = [f"{backbone}.{i + 1}.{k + 1}"
                      for k in range(TRACE_PLACEMENT_HOP + 1 - len(outside))]
            dests.append(truth.TraceDest(f"36.20.{i + 1}.5",
                                         tuple(outside + inside), filtered))
        off_start, off_len = rng.randrange(24), rng.randint(4, 12)
        hours_on = tuple((h - off_start) % 24 >= off_len for h in range(24))
        self.decl = truth.TraceDecl(
            relay=TRACE_RELAY, tor_port=9001, rand_port=9002,
            placement_hop=TRACE_PLACEMENT_HOP, hours_on=hours_on,
            dests=tuple(dests), prefix_rows=TRACE_PREFIX_ROWS, region="CN",
            days=TRACE_DAYS)

    def write_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        decl = self.decl
        lines = [f"[sim]\nseed = {self.seed}\ndefault_delay_ms = 10\n",
                 f"[monitor relay]\naddr = {decl.relay}\n"]
        for i, dest in enumerate(decl.dests):
            lines.append(f"[client d{i}]\naddr = {dest.addr}\n"
                         f"background_rate = {TRACE_NOISE}\n")
            lines.append(f"[path relay d{i}]\nhops = {', '.join(dest.hops)}\n"
                         f"delay_ms = 60\n"
                         f"filtered = {'yes' if dest.filtered else 'no'}\n")
        mask = "".join("1" if on else "0" for on in decl.hours_on)
        lines.append(f"[rule gfw]\ndirection = server->client\n"
                     f"addr = {decl.relay}\nport = {decl.tor_port}\n"
                     f"placement_hop = {decl.placement_hop}\nhours = {mask}\n")
        (self.workdir / "scenario.cfg").write_text("\n".join(lines),
                                                   encoding="utf-8")
        with open(self.workdir / "dests.csv", "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER)
            for dest in decl.dests:
                fh.write(f"{dest.addr},0,client,30.0,114.0,0,1\n")
        with open(self.workdir / "prefixes.csv", "w", encoding="utf-8") as fh:
            fh.write("cidr,label,region\n")
            for row in decl.prefix_rows:
                fh.write(",".join(row) + "\n")

    def run_pass(self, rec, out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        decl = self.decl
        dests = {d.addr: d for d in decl.dests}
        verdict: dict = {}  # the pair being labelled

        def wrap_pair(inner):
            def paired_run(transport, dest, hour, cfg=None):
                v0 = transport.clock.now_ns()
                started = rec.begin()
                tor, rand = inner(transport, dest, hour, cfg)
                want = truth.trace_expected(decl, dests[dest], hour)
                verdict.update(started=started, labels=0,
                               virtual_ns=transport.clock.now_ns() - v0,
                               ok=(tor.status, rand.status) == want)
                return tor, rand
            return paired_run

        def wrap_label(inner):
            # The campaign labels both runs right after the pair returns, so
            # the verdict closes when its second label call does.
            def label_run(run, table, cfg=None):
                out = inner(run, table, cfg)
                verdict["labels"] += 1
                if verdict["labels"] == 2:
                    rec.end(verdict["started"], verdict["virtual_ns"],
                            verdict["ok"])
                return out
            return label_run

        undo_pair = patch(tracer, "paired_run", wrap_pair)
        undo_label = patch(tracer, "label_run", wrap_label)
        try:
            _cli(["trace", "--dests", self.workdir / "dests.csv",
                  "--ports", f"{decl.tor_port},{decl.rand_port}",
                  "--hours", TRACE_HOURS, "--days", decl.days,
                  "--scenario", self.workdir / "scenario.cfg",
                  "--prefix-table", self.workdir / "prefixes.csv",
                  "--seed", self.seed, "--out", out_dir / "runs.jsonl"])
        finally:
            undo_label()
            undo_pair()
        for what in ("hops", "diurnal"):
            _cli(["analyze", what, "--input", out_dir / "runs.jsonl",
                  "--prefix-table", self.workdir / "prefixes.csv",
                  "--out", out_dir / f"{what}.csv"])

    def check(self, out_dirs):
        first_dir = out_dirs[0]
        problems = list(self.problems)
        problems += truth.check_trace_records(
            self.decl, truth.read_jsonl(first_dir / "runs.jsonl"), TRACE_HOURS)
        problems += truth.check_hop_histogram(
            self.decl, truth.read_csv(first_dir / "hops.csv"))
        problems += truth.check_diurnal(
            self.decl, truth.read_csv(first_dir / "diurnal.csv"))
        return problems + _same_bytes(out_dirs, "runs.jsonl")


def _same_bytes(out_dirs: list, name: str) -> list:
    """Identical inputs must give identical files on every pass."""
    first = (out_dirs[0] / name).read_bytes()
    return [f"{d.name}: {name} differs from the first pass on identical inputs"
            for d in out_dirs[1:] if (d / name).read_bytes() != first]


def _cli(argv: list) -> None:
    """Run one CLI subcommand in this process; its stdout is not wanted."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"inferscan {argv[0]} exited with {code}")


WORKLOADS = {cls.name: cls for cls in
             (IdleCampaign, OracleGrid, BacklogGrid, TraceCampaign)}
