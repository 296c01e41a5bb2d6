"""Agreement check: two sets of repeats, per workload and end-to-end metric.

    python3 perfbench/agree.py [--workloads a,b]

Runs ``run.py --trace 0`` on seeds 1 to 10, one process at a time, and
then the same ten seeds again as a second set, so the sets differ only in
when they ran.  The run length is ``run.py``'s default, ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric of ``BENCHMARK.json`` it
prints each set's median and quartiles and the spread (q3 - q1) / median,
and says whether

* every set's spread stays within the metric's bound (``setup_s`` is
  exempt: set-up is compared by median only),
* no later set's median is worse than the first set's by more than the
  bound, and
* the share of failed operations is identical in every set.

The raw results go to ``perfbench/_out/agree.json``.  Exit code 1 when
something disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)

    results: dict = {}
    for k in range(SETS):
        for workload in args.workloads.split(","):
            for seed in SEEDS:
                out = run_once(workload, seed)
                results.setdefault(workload, [[] for _ in range(SETS)])[k] \
                    .append(out)
                print(f"set {k} {workload} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.5g}"
                                 for m, v in out["metrics"].items()),
                      file=sys.stderr, flush=True)
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "agree.json").write_text(json.dumps(results, indent=1))

    ok = True
    for workload, sets in results.items():
        shares = {(sum(r["failed"] for r in runs),
                   sum(r["attempted"] for r in runs)) for runs in sets}
        same_share = len({f / a for f, a in shares}) == 1
        ok &= same_share
        print(f"\n{workload}: failed/attempted per set {sorted(shares)}"
              f" -> {'same share' if same_share else 'SHARES DIFFER'}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            stats = [spread([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            base = stats[0][0]
            worst_shift = max((s[0] - base) / base * (1 if lower else -1)
                              for s in stats)
            widest = max(s[3] for s in stats)
            good = worst_shift <= bound and (name == "setup_s" or widest <= bound)
            ok &= good
            cells = "  ".join(f"med {m:.5g} q [{q1:.5g}, {q3:.5g}] spread "
                              f"{100 * sp:.1f}%" for m, q1, q3, sp in stats)
            print(f"  {name:16s} bound {100 * bound:.0f}%  {cells}  worse "
                  f"shift {100 * worst_shift:+.1f}%  "
                  f"{'ok' if good else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
