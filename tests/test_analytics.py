from __future__ import annotations

import math
import random

import pytest

from inferscan.analytics import (
    CaseRow,
    SourceSeries,
    TEMPORAL_WITHIN,
    ZeroVarianceError,
    case_table,
    case_table_csv,
    contingency_table,
    contingency_table_csv,
    diurnal_series,
    grid_cell,
    grid_sample,
    hop_histogram,
    k_nearest,
    load_analytics_config,
    pearson,
    spatial_association,
    temporal_association,
    traceroute_table,
)
from inferscan.backlog import (
    BacklogScanRecord,
    BaselineProfile,
    KIND_RST,
    KIND_SYN,
    VERDICT_DROPPED,
    VERDICT_PASSES,
)
from inferscan.endpoints import EndpointSpec
from inferscan.tracer import (
    HopRecord,
    PrefixTable,
    STATUS_FINISHED,
    STATUS_STALLED,
    TracerouteRun,
)
from inferscan.transport import NS_PER_SEC


def pearson_oracle(x, y):
    """Independent direct-formula implementation (fsum arithmetic)."""
    n = len(x)
    sx, sy = math.fsum(x), math.fsum(y)
    sxx = math.fsum(a * a for a in x)
    syy = math.fsum(b * b for b in y)
    sxy = math.fsum(a * b for a, b in zip(x, y))
    num = n * sxy - sx * sy
    den = math.sqrt(n * sxx - sx * sx) * math.sqrt(n * syy - sy * sy)
    return num / den


class TestLoadAnalyticsConfig:
    def test_reads_the_analytics_section(self, tmp_path):
        path = tmp_path / "analytics.ini"
        path.write_text("[analytics]\nk = 3\nexclude_labels = COM, EDU\n")
        cfg = load_analytics_config(path)
        assert cfg.k_neighbors == 3
        assert cfg.exclude_labels == ("COM", "EDU")

    @pytest.mark.parametrize("text", [
        "[analytics]\nk = 2\n[analytics]\nk = 3\n",  # duplicate section
        "[analytics]\nk = 2\nk = 3\n",  # duplicate key
        "k = 2\n",  # no section header
        "[analytics]\nno equals sign\n",
        "[analytics]\nk = x\n",
        "[analytics]\nk = 0\n",
        "[analytics]\nmax_lag = 100%\n",
        "[analytic]\nk = 2\n",  # misspelt section
    ])
    def test_malformed_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "analytics.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"analytics\.ini: ") as info:
            load_analytics_config(path)
        assert "\n" not in str(info.value)

    def test_default_section_is_rejected(self, tmp_path):
        # configparser's default section would otherwise lend its keys to
        # [analytics], or stand in for a missing [analytics].
        for text in ("[DEFAULT]\nk = 3\n", "[DEFAULT]\nk = 3\n[analytics]\n"):
            path = tmp_path / "analytics.ini"
            path.write_text(text)
            with pytest.raises(ValueError, match=r"analytics\.ini: unknown "
                                                 r"section: \[DEFAULT\]$"):
                load_analytics_config(path)

    def test_file_without_the_section_sets_nothing(self, tmp_path):
        path = tmp_path / "analytics.ini"
        path.write_text("# no settings\n")
        assert load_analytics_config(path) == load_analytics_config(None)

    def test_unknown_key_names_section_and_key(self, tmp_path):
        path = tmp_path / "analytics.ini"
        path.write_text("[analytics]\nmax-lag = 3\n")
        with pytest.raises(ValueError, match=r"analytics\.ini: \[analytics\] "
                                             r"unknown key: max-lag$"):
            load_analytics_config(path)


class TestPearson:
    def test_identity(self):
        assert pearson([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_negation(self):
        assert pearson([1, 2, 3, 4], [-1, -2, -3, -4]) == pytest.approx(-1.0)

    def test_hand_example(self):
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(
            pearson_oracle([1, 2, 3], [2, 4, 7]), abs=1e-12)

    def test_zero_variance_is_an_error(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ZeroVarianceError):
            pearson([1, 2, 3], [5, 5, 5])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1])
        with pytest.raises(ValueError):
            pearson([1], [1])

    def test_affine_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            x = [rng.uniform(-10, 10) for _ in range(30)]
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-20, 20)
            assert abs(pearson(x, [a * v + b for v in x]) - 1.0) < 1e-12
            assert abs(pearson(x, [-a * v + b for v in x]) + 1.0) < 1e-12

    def test_against_oracle_on_random_vectors(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randrange(5, 50)
            x = [rng.uniform(-100, 100) for _ in range(n)]
            y = [rng.uniform(-100, 100) for _ in range(n)]
            assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-9)


def series(source_id, counts, lat=0.0, lon=0.0):
    return SourceSeries(source_id=source_id, lat=lat, lon=lon,
                        hourly_counts=list(counts))


class TestTemporalAssociation:
    def test_hand_enumerated(self):
        # Occurrences at hours 1, 2, 3 inside a 6-hour window.
        src = series("a", [0, 1, 1, 1, 0, 0])
        probs = temporal_association([src], max_lag=3)
        assert probs == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_single_occurrence_all_zero(self):
        src = series("a", [1, 0, 0, 0])
        assert temporal_association([src], 3) == [0.0, 0.0, 0.0]

    def test_two_identical_sources_equal_one(self):
        src = series("a", [0, 1, 1, 1, 0, 0])
        one = temporal_association([src], 3)
        two = temporal_association([src, series("b", [0, 1, 1, 1, 0, 0])], 3)
        assert one == two

    def test_sources_without_occurrences_ignored(self):
        src = series("a", [0, 1, 1, 1, 0, 0])
        quiet = series("b", [0, 0, 0, 0, 0, 0])
        assert (temporal_association([src, quiet], 3)
                == temporal_association([src], 3))

    def test_empty(self):
        assert temporal_association([series("a", [0, 0])], 3) == []
        assert temporal_association([], 3) == []

    def test_within_mode_monotone(self):
        src = series("a", [1, 0, 1, 0, 0, 1, 1, 0])
        within = temporal_association([src], 4, mode=TEMPORAL_WITHIN)
        assert within == sorted(within)

    def test_relabeling_sources_invariant(self):
        a = series("x", [0, 1, 0, 1])
        b = series("y", [1, 1, 0, 0])
        assert (temporal_association([a, b], 2)
                == temporal_association([series("q", a.hourly_counts),
                                         series("p", b.hourly_counts)], 2))


class TestSpatialAssociation:
    def two_clusters(self):
        out = []
        for i in range(6):
            out.append(series(f"hi{i}", [10 + (i % 2)], lat=10 + i * 0.01, lon=10))
        for i in range(6):
            out.append(series(f"lo{i}", [1 + (i % 2)], lat=50 + i * 0.01, lon=50))
        return out

    def test_identical_counts_undefined(self):
        sources = [series(f"s{i}", [5], lat=i, lon=0) for i in range(5)]
        assert spatial_association(sources, 2) is None

    def test_clusters_positive(self):
        r = spatial_association(self.two_clusters(), 3)
        assert r == pytest.approx(1.0, abs=0.05)

    def test_matches_direct_formula(self):
        sources = self.two_clusters()
        k = 3
        totals = [float(s.total) for s in sources]
        means = []
        for i in range(len(sources)):
            nn = k_nearest(sources, i, k)
            means.append(sum(totals[j] for j in nn) / k)
        assert spatial_association(sources, k) == pytest.approx(
            pearson_oracle(totals, means), abs=1e-12)

    def test_translation_invariance(self):
        sources = self.two_clusters()
        base = spatial_association(sources, 3)
        shifted = [series(s.source_id, s.hourly_counts, lat=s.lat + 13.7,
                          lon=s.lon - 41.2) for s in sources]
        assert spatial_association(shifted, 3) == pytest.approx(base, abs=1e-9)

    def test_random_counts_weak(self):
        rng = random.Random(5)
        sources = [series(f"s{i}", [rng.randrange(0, 10)],
                          lat=rng.uniform(18, 51), lon=rng.uniform(73, 135))
                   for i in range(151)]
        r = spatial_association(sources, 5)
        assert abs(r) < 0.3  # same order as the weak live correlations

    def test_needs_enough_sources(self):
        with pytest.raises(ValueError):
            spatial_association([series("a", [1])], 1)

    def test_tie_break_by_identifier(self):
        sources = [series("c", [1], lat=0, lon=0),
                   series("a", [2], lat=1, lon=0),
                   series("b", [3], lat=-1, lon=0)]
        assert k_nearest(sources, 0, 1) == [1]  # "a" before "b" on equal distance


class TestCaseTable:
    CASES = ("ServerToClientDrop", "NoPacketsDropped", "ClientToServerDrop",
             "Error")

    def test_one_of_each(self):
        rows = [CaseRow("CN", "Tor-Relay", v) for v in self.CASES]
        table = case_table(rows)
        cell = table[("CN", "Tor-Relay")]
        assert all(cell[v] == 1 for v in self.CASES)
        csv_rows = case_table_csv(table)
        assert csv_rows[1][2:] == [1, "25.00", 1, "25.00", 1, "25.00", 1, "25.00"]

    def test_empty(self):
        assert case_table([]) == {}
        assert case_table_csv({}) == [case_table_csv({})[0]]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            case_table([CaseRow("CN", "Web", "Nonsense")])

    def test_row_counts_sum(self):
        rng = random.Random(6)
        rows = [CaseRow("CN", "Web", rng.choice(self.CASES)) for _ in range(57)]
        table = case_table(rows)
        assert sum(table[("CN", "Web")].values()) == 57


def backlog_record(kind, verdict, relay_addr, ts):
    return BacklogScanRecord(
        kind=kind, relay=EndpointSpec(relay_addr, 9001, "tor-relay",
                                      uptime_days=9.0),
        probe_count=1, fill_count=145, observed_retransmissions=[3],
        baseline=BaselineProfile(True, None, 5, (1, 2, 4, 8, 16)),
        verdict=verdict, invalid_reason=None, timestamp=ts)


class TestContingencyTable:
    def test_eighty_percent_cell(self):
        records = []
        for i in range(10):
            rst_verdict = VERDICT_PASSES if i < 8 else VERDICT_DROPPED
            ts = i * 3600 * NS_PER_SEC
            records.append(backlog_record(KIND_SYN, VERDICT_PASSES,
                                          "203.0.113.5", ts))
            records.append(backlog_record(KIND_RST, rst_verdict,
                                          "203.0.113.5", ts + NS_PER_SEC))
        counts, warnings = contingency_table(records)
        assert counts[("Passes", "Passes")] == 8
        assert counts[("Passes", "Dropped")] == 2
        assert not warnings
        csv_rows = contingency_table_csv(counts)
        assert csv_rows[1][2] == "80.0"

    def test_all_dropped(self):
        records = [backlog_record(KIND_SYN, VERDICT_DROPPED, "203.0.113.5", 0),
                   backlog_record(KIND_RST, VERDICT_DROPPED, "203.0.113.5",
                                  NS_PER_SEC)]
        counts, _ = contingency_table(records)
        assert counts[("Dropped", "Dropped")] == 1
        assert sum(counts.values()) == 1

    def test_unpaired_excluded_with_warning(self):
        records = [backlog_record(KIND_SYN, VERDICT_PASSES, "203.0.113.5", 0)]
        counts, warnings = contingency_table(records)
        assert sum(counts.values()) == 0
        assert len(warnings) == 1


def trace_run(status, hour=0, src_port=9001, label="COM",
              responders=("80.1.0.1", "202.97.0.1", "202.97.0.2")):
    hops = [HopRecord(i + 1, addr, 100 * (i + 1))
            for i, addr in enumerate(responders)]
    return TracerouteRun(dest="36.10.0.5", src_port=src_port,
                         flags=("SYN", "ACK"), hops=hops, status=status,
                         hour=hour, entry_label=label)


class TestTracerouteTable:
    def test_fixture_counts(self):
        pairs = [(trace_run(STATUS_STALLED, src_port=9001),
                  trace_run(STATUS_FINISHED, src_port=9002)),
                 # A pair's role is its place, whatever ports it used.
                 (trace_run(STATUS_FINISHED, src_port=443, label="EDU"),
                  trace_run(STATUS_FINISHED, src_port=444, label="EDU")),
                 (trace_run(STATUS_STALLED, src_port=9001, label="Other"),
                  trace_run(STATUS_STALLED, src_port=9002, label="Other"))]
        table = traceroute_table(pairs)
        assert table[("COM", "Torport")] == {"Stalled": 1, "Finished": 0}
        assert table[("COM", "Randport")] == {"Stalled": 0, "Finished": 1}
        assert table[("EDU", "Torport")] == {"Stalled": 0, "Finished": 1}
        assert table[("EDU", "Randport")] == {"Stalled": 0, "Finished": 1}
        # The Other runs are culled entirely.
        assert sum(v for cell in table.values() for v in cell.values()) == 4

    def test_empty_runs_zero_table(self):
        table = traceroute_table([])
        assert all(v == 0 for cell in table.values() for v in cell.values())


class TestHopHistogramAndDiurnal:
    def pairs(self):
        out = []
        for hour in range(24):
            blocked = not (2 <= hour <= 10)
            tor = trace_run(STATUS_STALLED if blocked else STATUS_FINISHED,
                            hour=hour)
            rand = trace_run(STATUS_FINISHED, hour=hour, src_port=9002)
            out.append((tor, rand))
        return out

    def test_histogram_counts_region_depth(self):
        hist = hop_histogram(self.pairs(), PrefixTable())
        assert hist == {2: 15}  # two in-region responders in the fixture

    def test_histogram_empty_when_unfiltered(self):
        pairs = [(trace_run(STATUS_FINISHED), trace_run(STATUS_FINISHED,
                                                        src_port=9002))]
        assert hop_histogram(pairs, PrefixTable()) == {}

    def test_both_stalled_pairs_excluded(self):
        # A dead destination says nothing about the filter.
        pairs = [(trace_run(STATUS_STALLED), trace_run(STATUS_STALLED,
                                                       src_port=9002))]
        assert hop_histogram(pairs, PrefixTable()) == {}
        assert diurnal_series(pairs) == [0] * 24

    def test_histogram_multimodal_under_mixed_placement(self):
        shallow = trace_run(STATUS_STALLED,
                            responders=("80.1.0.1", "202.97.0.1"))
        deep = trace_run(STATUS_STALLED)
        rand = trace_run(STATUS_FINISHED, src_port=9002)
        pairs = [(shallow, rand)] * 3 + [(deep, rand)] * 3
        hist = hop_histogram(pairs, PrefixTable())
        assert hist == {1: 3, 2: 3}

    def test_diurnal_trough_matches_off_hours(self):
        counts = diurnal_series(self.pairs(), count="blocked")
        for hour in range(24):
            if 2 <= hour <= 10:
                assert counts[hour] == 0
            else:
                assert counts[hour] == 1

    def test_diurnal_unfiltered_mode_complementary(self):
        counts = diurnal_series(self.pairs(), count="unfiltered")
        for hour in range(24):
            assert counts[hour] == (1 if 2 <= hour <= 10 else 0)

    def test_flat_series_under_constant_policy(self):
        pairs = [(trace_run(STATUS_STALLED, hour=h),
                  trace_run(STATUS_FINISHED, hour=h, src_port=9002))
                 for h in range(24)]
        assert diurnal_series(pairs) == [1] * 24

    def test_empty(self):
        assert diurnal_series([]) == [0] * 24
        assert hop_histogram([], PrefixTable()) == {}


class TestGridSample:
    def endpoints(self, coords):
        return [EndpointSpec(f"36.10.{i // 250}.{i % 250}", 0, "client",
                             lat=lat, lon=lon)
                for i, (lat, lon) in enumerate(coords)]

    def test_single_cell_plain_uniform(self):
        cands = self.endpoints([(30.2, 114.2)] * 40)
        picked = grid_sample(cands, 10, seed=1)
        assert len(picked) == 10
        assert len({c.addr for c in picked}) == 10

    def test_sparse_cell_represented_early(self):
        coords = [(30.2, 114.2)] * 99 + [(45.7, 126.6)]
        cands = self.endpoints(coords)
        picked = grid_sample(cands, 10, seed=2)
        assert any(c.lat == 45.7 for c in picked)

    def test_n_larger_than_pool_returns_all(self):
        cands = self.endpoints([(30.2, 114.2), (45.7, 126.6)])
        picked = grid_sample(cands, 10, seed=3)
        assert len(picked) == 2

    def test_seed_reproducible_bit_for_bit(self):
        coords = [(18 + (i * 7) % 33, 73 + (i * 11) % 65) for i in range(200)]
        cands = self.endpoints(coords)
        a = [c.addr for c in grid_sample(cands, 50, seed=9)]
        b = [c.addr for c in grid_sample(cands, 50, seed=9)]
        c = [c.addr for c in grid_sample(cands, 50, seed=10)]
        assert a == b
        assert a != c

    def test_grid_cell_clamps(self):
        assert grid_cell(17.0, 70.0) == (0, 0)
        assert grid_cell(90.0, 180.0) == (32, 64)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            grid_sample([], 1, seed=1)
