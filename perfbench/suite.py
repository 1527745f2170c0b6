"""Run every workload, each seed in a fresh process, and report run-to-run spread.

Usage (from the repository root):

    python3 perfbench/suite.py [--workloads fit,simulate,serve,cli] [--seeds 1-10]
                               [--trace 0|1] [--compare perfbench/out/suite-....json]

For each workload and end-to-end metric it prints the median of the runs,
the distance between the first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) as a share of the median,
and the metric's bound from BENCHMARK.json.  With `--compare` it also
checks that each median is no worse than the earlier suite's by more than
the bound.  Results go to perfbench/out/suite-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="fit,simulate,serve,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    report = {"spec_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, wall = run_one(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "wall_s": wall, "result": result})
            print(f"{workload} seed {seed}: wall {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
        report["workloads"][workload] = runs
        if len(runs) < 2:
            continue
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            median, share = spread(values)
            line = f"  {workload:9s} {m['name']:32s} median {median:12.6g} {m['unit']:6s} spread {share:7.4f}"
            if "bound" in m:
                if share > m["bound"]:
                    ok = False
                    line += f"  WIDER THAN BOUND {m['bound']}"
                elif share > m["bound"] / 3:
                    line += f"  (above bound/3 = {m['bound'] / 3:.4f})"
                if earlier and workload in earlier["workloads"]:
                    old = statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                            for r in earlier["workloads"][workload])
                    worse = (median - old) / old if m["better"] == "lower" else (old - median) / old
                    line += f"  vs earlier {old:.6g} ({worse:+.4f} worse)"
                    if worse > m["bound"]:
                        ok = False
                        line += "  WORSE THAN BOUND"
            print(line, flush=True)
        walls = [r["wall_s"] for r in runs]
        print(f"  {workload:9s} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
    out = HERE / "out" / f"suite-{time.strftime('%Y%m%d-%H%M%S')}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report), encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}; {'all spreads within bounds' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
