"""Statistical analyses over stored scan records.

Pure, reentrant computations: temporal association of firewall failures,
spatial nearest-neighbor correlation, result tables, hop histograms,
diurnal series, and grid-stratified endpoint sampling.
"""

from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .classify import NO_PACKETS_DROPPED, VARIANTS
from .scenario import AT_LEAST_1, Key, ScenarioError, ini_parser, read_section
from .tracer import (
    LABEL_COM,
    LABEL_EDU,
    LABEL_OTHER,
    PrefixTable,
    STATUS_FINISHED,
    hops_into_region,
)
from .transport import derive_seed

SERVER_TYPE_BY_ROLE = {"tor-relay": "Tor-Relay", "tor-dir": "Tor-Dir",
                       "web": "Web", "client": "Client"}

TEMPORAL_EXACT = "exact-lag"
TEMPORAL_WITHIN = "within-lag"

# The sampling grid: one-degree cells from (GRID_LAT0, GRID_LON0), with
# coordinates outside it clamped to the edge cells.
GRID_ROWS = 33
GRID_COLS = 65
GRID_LAT0 = 18.0
GRID_LON0 = 73.0


class ZeroVarianceError(ValueError):
    """Correlation is undefined, which is distinct from being zero."""


@dataclass
class SourceSeries:
    source_id: str
    lat: float
    lon: float
    hourly_counts: list

    def __post_init__(self):
        if any(c < 0 for c in self.hourly_counts):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.hourly_counts)

    def occurrence_hours(self) -> list:
        return [h for h, c in enumerate(self.hourly_counts) if c > 0]


def source_series(idle_rows: list) -> list:
    """One series of NoPacketsDropped counts per stored client, sorted by
    address, from ``(slot, (client, role, variant))`` idle rows.

    A client is its stored address and coordinates together, so clients
    whose addresses were redacted to one prefix stay apart (in order of
    first appearance) unless they also share their coordinates.
    """
    n_slots = max((slot for slot, _ in idle_rows), default=-1) + 1
    by_client: dict[tuple, SourceSeries] = {}
    for slot, (client, _role, variant) in idle_rows:
        series = by_client.get(client)
        if series is None:
            addr, lat, lon = client
            series = SourceSeries(source_id=addr, lat=lat, lon=lon,
                                  hourly_counts=[0] * n_slots)
            by_client[client] = series
        if variant == NO_PACKETS_DROPPED:
            series.hourly_counts[slot] += 1
    return [by_client[k] for k in sorted(by_client, key=lambda k: k[0])]


@dataclass
class AnalyticsConfig:
    k_neighbors: int = 1
    max_lag: int = 12
    exclude_labels: tuple = ()
    temporal_mode: str = TEMPORAL_EXACT
    pair_epoch_s: int = 3600
    prefix_table_path: Optional[str] = None

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("K must be >= 1")
        if self.pair_epoch_s < 1:
            raise ValueError(f"pair_epoch_s must be >= 1, got "
                             f"{self.pair_epoch_s}")


# The keys of an analytics file's one [analytics] section.
ANALYTICS = {
    "k": Key("k_neighbors", int, AT_LEAST_1, 1),
    "max_lag": Key("max_lag", int, AT_LEAST_1, 12),
    "exclude_labels": Key("exclude_labels", str,
                          {LABEL_COM, LABEL_EDU, LABEL_OTHER}, (), many=True),
    "temporal_mode": Key("temporal_mode", str,
                         {TEMPORAL_EXACT, TEMPORAL_WITHIN}, TEMPORAL_EXACT),
    "pair_epoch_s": Key("pair_epoch_s", int, AT_LEAST_1, 3600),
    "prefix_table": Key("prefix_table_path", lambda text: text or None),
}


def load_analytics_config(path) -> AnalyticsConfig:
    """Read an analytics INI file by ANALYTICS.  A malformed file, or one
    with another section, raises ValueError naming the file; a bad key or
    value, naming the file, the section and the key.  A file without an
    [analytics] section sets nothing."""
    cp = ini_parser()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        cp.read_string(text)
        for section in cp.sections():
            if section != "analytics":
                raise ValueError(f"unknown section: [{section}]")
        sec = cp["analytics"] if cp.has_section("analytics") else {}
        values = read_section(ANALYTICS, sec)
    except ScenarioError as exc:
        raise ValueError(f"{path}: [analytics] {exc}") from exc
    except (configparser.Error, ValueError) as exc:
        # configparser's messages span lines
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from exc
    return AnalyticsConfig(**values)


# ---------------------------------------------------------------------------
# Correlation primitives
# ---------------------------------------------------------------------------

def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation; raises ZeroVarianceError when degenerate."""
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 points")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVarianceError("zero variance input")
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


def temporal_association(series: Iterable[SourceSeries], max_lag: int,
                         mode: str = TEMPORAL_EXACT) -> list:
    """Probability of another failure L hours after one, per lag L.

    For every occurrence hour of a source, check the hour exactly L later
    (default) or any of the next L hours (within-lag mode); average the
    per-source fractions over all sources that had occurrences.  Sources
    without occurrences do not contribute.  Empty input yields [].
    """
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if mode not in (TEMPORAL_EXACT, TEMPORAL_WITHIN):
        raise ValueError(f"unknown temporal mode: {mode}")
    per_source: list[list] = []
    for src in series:
        occ = src.occurrence_hours()
        if not occ:
            continue
        occ_set = set(occ)
        fractions = []
        for lag in range(1, max_lag + 1):
            if mode == TEMPORAL_EXACT:
                hits = sum(1 for t in occ if t + lag in occ_set)
            else:
                hits = sum(1 for t in occ
                           if any(t + d in occ_set for d in range(1, lag + 1)))
            fractions.append(hits / len(occ))
        per_source.append(fractions)
    if not per_source:
        return []
    return [sum(col) / len(per_source) for col in zip(*per_source)]


def k_nearest(series: list, index: int, k: int) -> list:
    """Indices of the K geographically nearest other sources.

    Plane geometry on (lat, lon); distance ties break on source identifier.
    """
    me = series[index]
    ranked = sorted(
        (i for i in range(len(series)) if i != index),
        key=lambda i: ((series[i].lat - me.lat) ** 2
                       + (series[i].lon - me.lon) ** 2,
                       series[i].source_id))
    return ranked[:k]


def spatial_association(series: list, k: int) -> Optional[float]:
    """Correlation between a source's failure count and its K-neighborhood mean.

    Returns None when either vector is degenerate (undefined, not zero).
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    if len(series) < k + 1:
        raise ValueError(f"need at least {k + 1} sources")
    totals = [float(s.total) for s in series]
    neighbor_means = []
    for i in range(len(series)):
        nn = k_nearest(series, i, k)
        neighbor_means.append(sum(totals[j] for j in nn) / k)
    try:
        return pearson(totals, neighbor_means)
    except ZeroVarianceError:
        return None


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseRow:
    client_region: str
    server_type: str
    variant: str


def case_rows(idle_rows: Iterable[tuple], table: PrefixTable) -> list:
    """A CaseRow per ``(slot, (client, role, variant))`` idle row: the
    client's region by ``table`` and the server's type by its role."""
    rows = []
    for _slot, (client, role, variant) in idle_rows:
        entry = table.lookup(client[0])
        rows.append(CaseRow(client_region=entry.region if entry else "Other",
                            server_type=SERVER_TYPE_BY_ROLE.get(role, "Other"),
                            variant=variant))
    return rows


def case_table(rows: Iterable[CaseRow]) -> dict:
    """Counts of each case per (client region, server type) row."""
    table: dict[tuple, dict] = {}
    for row in rows:
        key = (row.client_region, row.server_type)
        cell = table.setdefault(key, {v: 0 for v in VARIANTS})
        if row.variant not in cell:
            raise ValueError(f"unknown case variant: {row.variant}")
        cell[row.variant] += 1
    return table


def case_table_csv(table: dict) -> list:
    header = ["client_region", "server_type"]
    for variant in VARIANTS:
        header += [variant, f"{variant}_pct"]
    out = [header]
    for (region, stype) in sorted(table):
        cell = table[(region, stype)]
        total = sum(cell.values())
        row: list = [region, stype]
        for variant in VARIANTS:
            count = cell[variant]
            pct = (100.0 * count / total) if total else 0.0
            row += [count, f"{pct:.2f}"]
        out.append(row)
    return out


def contingency_table(records: list, epoch_s: int = 3600) -> tuple:
    """2x2 SYN-scan x RST-scan verdict counts from paired scan records.

    Records pair up per (relay, epoch bucket); unpaired or invalid records
    are excluded and reported in the warning list.
    """
    from .backlog import KIND_RST, KIND_SYN, VERDICT_INVALID

    buckets: dict[tuple, dict] = {}
    warnings: list[str] = []
    for rec in records:
        if rec.verdict == VERDICT_INVALID:
            warnings.append(f"invalid record for {rec.relay.addr} excluded")
            continue
        epoch = rec.timestamp // (epoch_s * 1_000_000_000)
        key = (rec.relay.addr, rec.relay.port, epoch)
        slot = buckets.setdefault(key, {})
        if rec.kind in slot:
            warnings.append(
                f"duplicate {rec.kind} for {rec.relay.addr}:{rec.relay.port} "
                f"epoch {epoch}; keeping the first")
            continue
        slot[rec.kind] = rec
    counts = {("Passes", "Passes"): 0, ("Passes", "Dropped"): 0,
              ("Dropped", "Passes"): 0, ("Dropped", "Dropped"): 0}
    for key, slot in sorted(buckets.items()):
        if KIND_SYN not in slot or KIND_RST not in slot:
            warnings.append(f"unpaired scan for {key[0]}:{key[1]} epoch {key[2]}")
            continue
        counts[(slot[KIND_SYN].verdict, slot[KIND_RST].verdict)] += 1
    return counts, warnings


def contingency_table_csv(counts: dict) -> list:
    total = sum(counts.values()) or 1
    out = [["", "rst_passes", "rst_passes_pct", "rst_dropped", "rst_dropped_pct"]]
    for syn in ("Passes", "Dropped"):
        row = [f"syn_{syn.lower()}"]
        for rst in ("Passes", "Dropped"):
            c = counts[(syn, rst)]
            row += [c, f"{100.0 * c / total:.1f}"]
        out.append(row)
    return out


def traceroute_table(pairs: Iterable[tuple]) -> dict:
    """Stalled/Finished counts per (entry label, port role) over paired
    (filtered, control) runs; the role is the run's place in its pair,
    whatever ports the campaign used.  Other is culled."""
    table = {(label, port): {"Stalled": 0, "Finished": 0}
             for label in (LABEL_EDU, LABEL_COM)
             for port in ("Randport", "Torport")}
    for pair in pairs:
        for port, run in zip(("Torport", "Randport"), pair):
            if run.entry_label != LABEL_OTHER:
                table[(run.entry_label, port)][run.status] += 1
    return table


def traceroute_table_csv(table: dict) -> list:
    out = [["", "EDU_Randport", "EDU_Torport", "COM_Randport", "COM_Torport"]]
    for status in ("Stalled", "Finished"):
        row: list = [status]
        for label in (LABEL_EDU, LABEL_COM):
            for port in ("Randport", "Torport"):
                row.append(table[(label, port)][status])
        out.append(row)
    return out


def admitted_pairs(pairs: Iterable[tuple]) -> list:
    """Pairs where filtering demonstrably acted: control finished, filtered
    run stalled.  Anything else says nothing about the filter."""
    return [(tor, rand) for tor, rand in pairs
            if rand.status == STATUS_FINISHED and tor.status != STATUS_FINISHED]


def hop_histogram(pairs: Iterable[tuple], table: PrefixTable) -> dict:
    """Histogram of in-region hop depth over admitted (tor, rand) pairs."""
    hist: dict[int, int] = {}
    for tor, _rand in admitted_pairs(pairs):
        try:
            depth = hops_into_region(tor, table)
        except ValueError:
            continue
        hist[depth] = hist.get(depth, 0) + 1
    return hist


def diurnal_series(pairs: Iterable[tuple], count: str = "blocked") -> list:
    """Per hour-of-day counts over paired runs.

    ``blocked`` counts admitted pairs (control finished, filtered stalled):
    hours where the filter is off produce zeros.  ``unfiltered`` counts
    filtered-port runs that reached their destination.
    """
    if count not in ("blocked", "unfiltered"):
        raise ValueError(f"unknown count mode: {count}")
    if count == "blocked":
        counted = [tor for tor, _rand in admitted_pairs(pairs)]
    else:
        counted = [tor for tor, _rand in pairs if tor.status == STATUS_FINISHED]
    out = [0] * 24
    for tor in counted:
        out[tor.hour % 24] += 1
    return out


# ---------------------------------------------------------------------------
# Grid-stratified sampling
# ---------------------------------------------------------------------------

def grid_cell(lat: float, lon: float) -> tuple:
    row = min(max(int(math.floor(lat - GRID_LAT0)), 0), GRID_ROWS - 1)
    col = min(max(int(math.floor(lon - GRID_LON0)), 0), GRID_COLS - 1)
    return row, col


def grid_sample(candidates: list, n: int, seed: int) -> list:
    """Location-stratified sampling without replacement.

    Repeatedly pick a uniformly random non-empty grid cell, then a uniform
    candidate inside it, so sparse regions are not crowded out by dense
    ones.  Bit-for-bit reproducible for a fixed seed.
    """
    if not candidates:
        raise ValueError("no candidates to sample")
    cells: dict[tuple, list] = {}
    for i, cand in enumerate(candidates):
        cells.setdefault(grid_cell(cand.lat, cand.lon), []).append(i)
    rng = random.Random(derive_seed(seed, "grid-sample"))
    chosen: list = []
    while len(chosen) < n and cells:
        keys = sorted(cells)
        cell = keys[rng.randrange(len(keys))]
        members = cells[cell]
        pick = members.pop(rng.randrange(len(members)))
        chosen.append(candidates[pick])
        if not members:
            del cells[cell]
    return chosen


def filter_sources(series: list, table: Optional[PrefixTable],
                   exclude_labels: tuple) -> list:
    """Drop sources whose address attribution matches an excluded label."""
    if not exclude_labels or table is None:
        return list(series)
    out = []
    for src in series:
        entry = table.lookup(src.source_id)
        label = entry.label if entry else LABEL_OTHER
        if label not in exclude_labels:
            out.append(src)
    return out
