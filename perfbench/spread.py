#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py --workload churn-hot-stalled --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload all --seeds 1 2 3 4 5 6 7 8 9 10 --out a.json
    python3 perfbench/spread.py --workload all --seeds 11 12 13 --out b.json --against a.json

Each seed is one `run.py --trace 0` run.  A metric's spread is the
distance between the first and third quartile of its values (as
statistics.quantiles(values, n=4) gives them) as a share of their median;
a benchmark is steady when every spread except setup_s stays below a
third of the metric's bound.  --against compares medians with an earlier
--out file: no metric may be worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import parse_result

HERE = Path(__file__).resolve().parent


def spread(values):
    """(median, interquartile range as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(old, new, better):
    """How much worse `new` is than `old`, as a share of `old` (<= 0: not worse)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return -change if better == "higher" else change


def run_once(workload, seed, seconds):
    """The run's metric values, or None (with the reason on stderr) when it
    failed a check or produced no result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    res = parse_result(lines[-1]) if lines else None
    if out.returncode != 0 or res is None or not res["correct"]:
        print(f"{workload} seed {seed}: run failed\n{out.stderr[-2000:]}", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", help="write the raw values here")
    ap.add_argument("--against", help="compare medians with an earlier --out file")
    args = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    old = json.loads(Path(args.against).read_text()) if args.against else {}

    values = {}
    steady = True
    for w in workloads:
        runs = [run_once(w, s, bench["run_seconds"]) for s in args.seeds]
        failed = sum(r is None for r in runs)
        runs = [r for r in runs if r is not None]
        steady = steady and failed == 0
        print(f"{w}  ({len(runs)} runs, {failed} failed)")
        if len(runs) < 2:
            continue
        values[w] = {m: [r[m] for r in runs] for m in metrics}
        for m, spec in metrics.items():
            med, rel = spread(values[w][m])
            ok = m == "setup_s" or rel < spec["bound"] / 3
            line = f"  {m:18s} median {med:12.6g}  spread {rel:6.3f}  bound {spec['bound']}"
            if w in old:
                drift = worse_by(statistics.median(old[w][m]), med, spec["better"])
                ok = ok and drift <= spec["bound"]
                line += f"  worse-by {drift:+.3f}"
            steady = steady and ok
            print(line + ("" if ok else "  <-- too wide"))
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
