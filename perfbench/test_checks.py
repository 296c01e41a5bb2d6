"""Tests of the benchmark's own checks: each catches a planted error, and a
second seed runs every workload with zero failed operations.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

workloads = run._import_program()
import truth  # noqa: E402
from inferscan import classify  # noqa: E402

SECOND_SEED = 2


def one_pass(name: str, seed: int, workdir: Path):
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.write_inputs()
    rec = workloads.Recorder()
    out_dir = workdir / "pass-0"
    rec.begin_pass()
    workload.run_pass(rec, out_dir)
    rec.end_pass()
    return workload, rec, out_dir


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One pass of every workload on the second seed."""
    root = tmp_path_factory.mktemp("bench")
    return {name: one_pass(name, SECOND_SEED, root / name)
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_passes_with_no_failed_operation(passes, name):
    workload, rec, out_dir = passes[name]
    assert rec.attempted > 0
    assert rec.failed == 0
    assert workload.check([out_dir]) == []


def test_flipped_verdict_is_a_failed_operation(tmp_path, monkeypatch):
    original = classify.classify_series
    swap = {truth.S2C: truth.NONE, truth.NONE: truth.S2C}

    def flipped(series, *args, **kwargs):
        label = original(series, *args, **kwargs)
        return classify.CaseLabel(swap.get(label.variant, label.variant),
                                  label.amplitude, label.confidence)
    monkeypatch.setattr(classify, "classify_series", flipped)
    workload, rec, _ = one_pass("oracle-grid", SECOND_SEED, tmp_path)
    # Two of the three policies flip; the run goes on and counts them.
    assert rec.failed == 2 * rec.attempted // 3
    assert workload.problems == []


def test_flipped_verdict_in_records_breaks_the_case_table(passes):
    workload, _, out_dir = passes["idle-campaign"]
    records = truth.read_jsonl(out_dir / "data.jsonl")
    table = truth.read_csv(out_dir / "report.csv")
    assert truth.check_case_table(records, table) == []
    label = records[0]["payload"]["label"]
    label["variant"] = truth.S2C if label["variant"] == truth.NONE else truth.NONE
    assert truth.check_case_table(records, table)


def test_idle_record_checks_catch_a_shared_address(passes):
    workload, _, out_dir = passes["idle-campaign"]
    records = truth.read_jsonl(out_dir / "data.jsonl")
    assert truth.check_idle_records(workload.decl, records, 0) == []
    same_slot = [r for r in records if r["meta"]["slot"] == 0]
    same_slot[1]["payload"]["client"] = same_slot[0]["payload"]["client"]
    assert truth.check_idle_records(workload.decl, records, 0)
    assert truth.check_idle_records(workload.decl, records[1:], 0)


def test_amplitude_off_by_one_is_caught():
    exact = [truth.OracleCell(policy, 0.0, 7) for policy in
             ("s2c", "none", "c2s")]
    for cell in exact:
        expected = truth.oracle_expected_amplitude(cell)
        assert truth.check_oracle_amplitude(cell, expected) == []
        assert truth.check_oracle_amplitude(cell, expected + 1)
    noisy = truth.OracleCell("none", 0.5, 7)
    assert truth.check_oracle_amplitude(noisy, 2.0) == []


def test_amplitude_check_runs_on_real_rounds(tmp_path, monkeypatch):
    original = classify.classify_series

    def shifted(series, *args, **kwargs):
        label = original(series, *args, **kwargs)
        return classify.CaseLabel(label.variant, label.amplitude + 1,
                                  label.confidence)
    monkeypatch.setattr(classify, "classify_series", shifted)
    workload, _, _ = one_pass("oracle-grid", SECOND_SEED, tmp_path)
    # Every noiseless cell is exact: a third of the grid.
    assert len(workload.problems) == len(workload.cells) // 3


def test_backlog_checks_catch_planted_errors():
    cell = truth.BacklogCell(drop_syn=True, drop_rst=False, loss=0.0,
                             sim_seed=3)
    good = dict(retransmissions=5, gaps_s=(1.0, 2.0, 4.0, 8.0, 16.0),
                peak_backlog=150,
                verdicts={"syn": truth.DROPPED, "rst": truth.PASSES})
    assert truth.check_backlog_pair(cell, **good) == []
    for change in ({"peak_backlog": 151}, {"retransmissions": 4},
                   {"gaps_s": (1.0, 2.0, 4.0, 8.0, 17.0)},
                   {"verdicts": {"syn": truth.PASSES, "rst": truth.PASSES}}):
        assert truth.check_backlog_pair(cell, **{**good, **change})


def _stalled(records):
    for rec in records:
        if rec["payload"]["tor"]["status"] == truth.STALLED:
            return rec["payload"]["tor"]
    raise AssertionError("no stalled run")


def test_stall_one_hop_off_is_caught(passes):
    workload, _, out_dir = passes["trace-campaign"]
    records = truth.read_jsonl(out_dir / "runs.jsonl")
    hours = workloads.TRACE_HOURS
    assert truth.check_trace_records(workload.decl, records, hours) == []
    deeper = copy.deepcopy(records)
    run_ = _stalled(deeper)
    ttl = workload.decl.placement_hop + 1
    run_["hops"][ttl - 1][1] = "202.97.200.1"  # one more in-region answer
    assert truth.check_trace_records(workload.decl, deeper, hours)
    shallower = copy.deepcopy(records)
    run_ = _stalled(shallower)
    run_["hops"][workload.decl.placement_hop - 1][1] = None
    assert truth.check_trace_records(workload.decl, shallower, hours)


def test_flipped_diurnal_hour_is_caught(passes):
    workload, _, out_dir = passes["trace-campaign"]
    rows = truth.read_csv(out_dir / "diurnal.csv")
    assert truth.check_diurnal(workload.decl, rows) == []
    hour = workload.decl.hours_on.index(False)
    rows[1 + hour][1] = str(truth.expected_diurnal(workload.decl)[
        workload.decl.hours_on.index(True)])
    assert truth.check_diurnal(workload.decl, rows)


def test_hop_histogram_check_catches_a_moved_count(passes):
    workload, _, out_dir = passes["trace-campaign"]
    rows = truth.read_csv(out_dir / "hops.csv")
    assert truth.check_hop_histogram(workload.decl, rows) == []
    rows[1][0] = str(int(rows[1][0]) + 1)
    assert truth.check_hop_histogram(workload.decl, rows)


def test_recorder_scales_each_interval_by_the_chunks_around_it(monkeypatch):
    """Chunks that take twice REF_NOMINAL_S halve the times between them;
    the chunks themselves are in no time."""
    chunk = 2 * workloads.REF_NOMINAL_S
    clock = iter([0.0, chunk,  # chunk at the start of the pass
                  1.0,  # begin: REF_EVERY_S has passed, so a chunk runs
                  1.0, 1.0 + chunk,
                  1.0 + chunk,  # the verdict starts
                  1.1 + chunk,  # and ends
                  2.0, 2.0 + chunk])  # chunk at the end of the pass
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(workloads, "reference_chunk", lambda: None)
    rec = workloads.Recorder()
    rec.begin_pass()
    rec.end(rec.begin(), 0, True)
    rec.end_pass()
    assert rec.wall_s == pytest.approx([0.1])
    assert rec.scaled_s == pytest.approx([0.05])
    assert rec.pass_wall_s == pytest.approx([2.0 - 2 * chunk])
    assert rec.pass_scaled_s == pytest.approx([1.0 - chunk])
    assert rec.ref_s == pytest.approx([chunk] * 3)
