"""Self-test of the benchmark at tiny sizes; takes about two minutes.

Usage (from the repository root): python3 perfbench/selftest.py

Each run is a fresh `run.py` process with `--size tiny`.  It checks that:
- every metric of BENCHMARK.json is printed with its unit, end-to-end
  metrics with `--trace 0` and per-layer metrics with `--trace 1`;
- every per-layer metric is non-zero on at least one workload, so a
  misspelt name cannot hide behind a zero; the Newton-stall counter, which
  the benchmark pools do not drive up, is checked on a forced stall;
- clean runs fail no operation and report correct outputs;
- on every workload, an injected wrong output, an injected unreadable
  output and an injected hang each raise the failed count, and the first
  two clear `correct`;
- no external-model child is left after a cli run;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit", "simulate", "serve", "cli")


def run(*extra, root=ROOT, workload="serve", trace=0):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stub_children():
    """Live processes running this checkout's external model stub."""
    stub = str(HERE / "stub_model.py").encode()
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if stub in (entry / "cmdline").read_bytes():
                    found.append(int(entry.name))
            except OSError:
                pass
    return found


def forced_stall():
    """Counters of the traced `fit_density_ratio` on a call cut off after one Newton step."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import fsp.sampling
    import tracing

    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer).install()
    try:
        rng = np.random.default_rng(0)
        fsp.sampling.fit_density_ratio(rng.random((200, 2)), 0.5 + rng.random((200, 2)),
                                       max_iter=1)
    finally:
        installation.remove()
    return tracer.counters


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    nonzero = set()
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = result_of(run(workload=workload, trace=trace))
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in wanted}
            if printed != expected:
                problems.append(f"{workload} trace {trace}: metrics/units {printed} != {expected}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{workload} trace {trace}: clean run reported failures: {res}")
            nonzero |= {k for k, v in res["metrics"].items() if v["value"] != 0}
            if workload == "cli" and stub_children():
                problems.append(f"cli trace {trace}: model children left: {stub_children()}")
            print(f"{workload} trace {trace}: ok", flush=True)
    counters = forced_stall()
    if counters.get("sampling.logistic_unconverged") != 1:
        problems.append(f"a forced Newton stall was not counted: {counters}")
    else:
        nonzero.add("sampling.logistic_unconverged")
        print("forced Newton stall: counted", flush=True)
    zero = [m["name"] for m in spec["per_layer"] if m["name"] not in nonzero]
    if zero:
        problems.append(f"per-layer metrics zero on every workload: {zero}")

    for workload in WORKLOADS:
        for inject in ("wrong", "malformed", "hang"):
            res = result_of(run("--inject", inject, workload=workload))
            if res["failed"] < 1:
                problems.append(f"{workload} --inject {inject}: failed count did not rise: {res}")
            if inject != "hang" and res["correct"]:
                problems.append(f"{workload} --inject {inject}: still reported correct")
            if stub_children():
                problems.append(f"{workload} --inject {inject}: model children left")
            print(f"{workload} --inject {inject}: failed {res['failed']} of {res['attempted']}",
                  flush=True)

    bare = HERE / "out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(root=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"run without fsp sources exited {proc.returncode}: {proc.stdout[-300:]}")
    else:
        print(f"without fsp sources: exit {proc.returncode}, no result", flush=True)

    for problem in problems:
        print("PROBLEM: " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
