"""Benchmark entry point: one workload per process, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths resolve from this
file).  The program is imported from ``src/`` next to this directory.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over several fresh processes of the time from
  process start until the first verdict-producing call starts;
* ``verdicts_per_s``: verdicts over the wall time of the timed phase;
* ``verdict_ms_p50``: median wall time of one verdict's calls;
* ``rss_peak_mb``: peak resident memory of this process.

The verdict timings are wall clock scaled to reference speed: each stretch
of a pass is multiplied by ``workloads.REF_NOMINAL_S`` over the time of
the ``workloads.reference_chunk`` runs around it (see ``Recorder``), so
that the speed of a shared machine, which moves by up to 1.8x within a
second, cancels.  ``setup_s`` is not scaled (set-up is imports, which the
chunk does not track).  Standard error also carries the unscaled figures.

``--trace 1`` splits the time between an untraced and a traced phase and
prints the per-layer metrics of ``tracing.Tracer``, the simulated seconds
per verdict, and diagnostics.  ``--seconds`` defaults to ``run_seconds``
of ``BENCHMARK.json``.

The last line of standard output is the JSON result; everything else goes
to standard error.  Exact checks that fail make the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded numerical libraries, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
TAIL_MIN_BEYOND = 10


def _import_program():
    """Import the workloads (and with them the program) from ``src/``."""
    if not (SRC / "inferscan" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'inferscan'}; run from a "
                 "checkout of the repository")
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads
    import inferscan
    if Path(inferscan.__file__).resolve().parent != SRC / "inferscan":
        sys.exit(f"error: inferscan imported from {inferscan.__file__}")
    return workloads


def _setup_probe(args) -> int:
    """Child process: set up, then report when the first verdict starts."""
    workloads = _import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    try:
        workload.run_pass(workloads.Recorder(probe=True),
                          Path(args.workdir) / f"probe-{os.getpid()}")
    except workloads.FirstVerdict:
        print("ready", flush=True)
        return 0
    return 1


def measure_setup(args, workdir: Path) -> list:
    """Wall seconds from spawning a fresh process until its first verdict."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(workdir)]
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(ready - started)
    return times


def timed_phase(workload, rec, seconds: float, out_root: Path, first: int):
    """Run whole, identical passes until ``seconds`` have elapsed; returns
    (wall seconds, cpu seconds, output directories)."""
    out_dirs = []
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:
        out_dir = out_root / f"pass-{first + len(out_dirs)}"
        rec.begin_pass()
        workload.run_pass(rec, out_dir)
        rec.end_pass()
        out_dirs.append(out_dir)
        if time.perf_counter() - wall0 >= seconds:
            break
    return time.perf_counter() - wall0, time.process_time() - cpu0, out_dirs


def tail(values_ms: list) -> tuple:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    ordered = sorted(values_ms)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            rank = min(n - 1, int(n * pct / 100.0))
            return ordered[rank], pct
    return statistics.median(ordered), 50.0


def slot_cost_ratio(rec) -> float:
    """Mean verdict time in the last hourly slot over the first one."""
    by_slot: dict = {}
    for wall, tag in zip(rec.scaled_s, rec.tags):
        if tag is not None:
            by_slot.setdefault(tag, []).append(wall)
    if len(by_slot) < 2:
        return 0.0
    return (statistics.fmean(by_slot[max(by_slot)])
            / statistics.fmean(by_slot[min(by_slot)]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)
    if args.seconds is None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(bench["run_seconds"])

    import_started = time.perf_counter()
    workloads = _import_program()
    import_s = time.perf_counter() - import_started
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workloads, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, workdir: Path, import_s: float) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.write_inputs()
    setup_times = [] if args.trace else measure_setup(args, workdir)

    seconds = args.seconds / 2 if args.trace else args.seconds
    rec = workloads.Recorder()
    wall, cpu, out_dirs = timed_phase(workload, rec, seconds, workdir, 0)
    attempted, failed = rec.attempted, rec.failed
    virtual_s_per_verdict = rec.virtual_ns / 1e9 / rec.attempted
    summary = {"setup_probes_s": setup_times, "pass_wall_s": rec.pass_wall_s,
               "verdicts": rec.attempted,
               "verdicts_per_wall_s": rec.attempted / sum(rec.pass_wall_s),
               "verdict_wall_ms_p50": 1000 * statistics.median(rec.wall_s),
               "ref_chunk_ms_p50": 1000 * statistics.median(rec.ref_s),
               "virtual_s_per_verdict": virtual_s_per_verdict}

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "verdicts_per_s": (rec.attempted / sum(rec.pass_scaled_s), "1/s"),
            "verdict_ms_p50": (1000 * statistics.median(rec.scaled_s), "ms"),
            "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        import tracing
        tracer = tracing.Tracer()
        traced = workloads.Recorder(hook=tracer)
        tracer.install()
        try:
            traced_wall, _, traced_dirs = timed_phase(
                workload, traced, seconds, workdir, len(out_dirs))
        finally:
            tracer.uninstall()
        out_dirs += traced_dirs
        attempted += traced.attempted
        failed += traced.failed
        metrics = tracer.metrics(traced.attempted, traced_wall)
        tail_ms, tail_pct = tail([1000 * w for w in rec.scaled_s])
        metrics.update({
            "idlescan.slot_cost_ratio": (slot_cost_ratio(rec), "ratio"),
            "virtual_s_per_verdict": (virtual_s_per_verdict, "s/verdict"),
            "setup.import_s": (import_s, "s"),
            "cpu_over_wall": (cpu / wall, "ratio"),
            "tracing_overhead": ((sum(traced.pass_scaled_s) / traced.attempted)
                                 / (sum(rec.pass_scaled_s) / rec.attempted),
                                 "ratio"),
            "ref_chunk_ms_p50": (1000 * statistics.median(rec.ref_s), "ms"),
            "verdict_ms_tail": (tail_ms, "ms"),
            "verdict_ms_tail_pct": (tail_pct, "%"),
            "verdict_ms_samples": (len(rec.scaled_s), "count"),
        })
        trace_dir = HERE / "_out"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"trace-{args.workload}-seed{args.seed}.csv")
        summary["spans"] = len(tracer.spans)

    problems = workload.check(out_dirs)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary}),
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
