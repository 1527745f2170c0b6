"""fsp benchmark: one workload per process, one caller in a closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit|simulate|serve|cli --seed N \
        --seconds S --trace 0|1 [--size full|tiny] \
        [--inject none|wrong|malformed|hang]

It imports `fsp` from `src/` of the checkout it sits in, sets the workload up,
then runs operations for about `--seconds` seconds and checks every output.
The set-up is repeated between operations, spread over the run, and the
median of all set-ups is `setup_s`; set-ups run back to back would all fall
into the same short phase of a busy host.  With `--trace 0` the last
stdout line holds the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it holds the per-layer metrics, taken from spans recorded by
wrappers around fsp's module boundaries on every other operation, the
others staying untraced so that the tracing overhead can be measured.
`--size tiny` and `--inject` exist for `selftest.py`: `wrong` corrupts an
output, `malformed` makes one unreadable and `hang` makes one miss its
deadline.  Each run writes its environment record, per-operation log and
spans under perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 15
# no operation starts later than this into the measured loop, so that even
# with every operation running into its deadline a run ends within 180 s
RUN_BUDGET_S = 90.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fsp benchmark")
    parser.add_argument("--workload", required=True, choices=["fit", "simulate", "serve", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--inject", choices=["none", "wrong", "malformed", "hang"], default="none")
    return parser.parse_args(argv)


def import_fsp():
    """Import fsp from this checkout's src/, never from anywhere else."""
    fresh = "fsp" not in sys.modules
    src = ROOT / "src"
    if not (src / "fsp" / "__init__.py").is_file():
        raise SystemExit(f"error: no fsp sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import fsp

    if Path(fsp.__file__).resolve().parent != (src / "fsp").resolve():
        raise SystemExit(f"error: imported fsp from {fsp.__file__}, not from {src}")
    return fresh


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    """BLAS name and version from numpy's build record, and its live thread count."""
    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and ".so" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
    except OSError:
        pass
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fsp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, fresh):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "fsp_source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "inject": args.inject,
        "pid": os.getpid(),
        "fresh_process": fresh,
    }


class DeadlineExceeded(Exception):
    pass


@contextmanager
def deadline(seconds):
    """Raise DeadlineExceeded in this (main) thread after `seconds`."""
    if seconds is None:
        yield
        return

    def expire(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_workload(args, tracer):
    import workloads

    if args.workload == "cli":
        return workloads.CliWorkload(args.seed, args.size, args.seconds, OUT, tracer, args.inject)
    cls = {"fit": workloads.FitWorkload, "simulate": workloads.SimulateWorkload,
           "serve": workloads.ServeWorkload}[args.workload]
    return cls(args.seed, args.size, args.seconds)


def run_ops(wl, args, tracer):
    """Closed loop: set up, then run, time and check operations one at a time."""
    import tracing
    from workloads import Op

    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    set_up()
    wl.prepare()
    # one more set-up each time another share of the run has passed
    interval = args.seconds / (SETUP_REPS - 1)
    in_process = args.workload != "cli"
    ops = []
    missing = []
    start = time.perf_counter()
    i = 0
    while wl.more(i, time.perf_counter() - start, args.seconds):
        if time.perf_counter() - start > RUN_BUDGET_S:
            ops += [Op(kind, seconds=limit, problems=["not started: run budget spent"])
                    for kind, limit in wl.unstarted(i)]
            break
        inputs = wl.inputs(i)
        traced = tracer is not None and wl.traced(i)
        installation = None
        if traced:
            installation = tracing.Installation(tracer).install()
            missing = installation.missing
            tracer.op_id = i
            tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            with deadline(wl.deadline if in_process else None):
                if in_process and args.inject == "hang" and i == 0:
                    time.sleep(wl.deadline + 5)
                op = wl.run(i, inputs)
            if op.seconds is None:
                op.seconds = time.perf_counter() - t0
        except DeadlineExceeded:
            op = Op(wl.main_kind, seconds=wl.deadline,
                    problems=[f"missed its deadline of {wl.deadline} s"])
        except Exception as exc:  # an operation that raises is a failed operation
            op = Op(wl.main_kind, seconds=time.perf_counter() - t0,
                    problems=[f"{type(exc).__name__}: {exc}"])
        finally:
            if traced:
                tracer.close_all()
                installation.remove()
        op.traced = traced
        if not op.problems:
            try:
                if args.inject == "wrong" and i == 0:
                    wl.corrupt(op)
                if args.inject == "malformed" and i == 0:
                    wl.malform(op)
                op.problems = wl.check(op)
            except Exception as exc:  # an output the check cannot read is a wrong output
                op.problems = [f"output check raised {type(exc).__name__}: {exc}"]
            op.wrong = bool(op.problems)
        ops.append(op)
        i += 1
        while len(setup_times) < min(SETUP_REPS, 1 + (time.perf_counter() - start) // interval):
            set_up()
    while len(setup_times) < SETUP_REPS:
        set_up()
    return setup_times, ops, missing


def end_to_end(wl, args, setup_times, ops):
    main = [op.seconds for op in ops if op.kind == wl.main_kind]
    item_ops = [op for op in ops if op.kind == wl.items_kind]
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    failed = sum(1 for op in ops if op.problems)
    return {
        "setup_s": float(np.median(setup_times)),
        "op_s": float(np.median(main)),
        "items_per_s": sum(op.items for op in item_ops) / sum(op.seconds for op in item_ops),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "ok_ratio": (len(ops) - failed) / len(ops),
    }


def per_layer(wl, tracer, ops):
    import tracing

    traced_ops = [op for op in ops if op.traced]
    metrics = tracing.layer_metrics(tracer, len(traced_ops))
    traced = [op.seconds for op in traced_ops if op.kind == wl.main_kind]
    untraced = [op.seconds for op in ops if not op.traced and op.kind == wl.main_kind]
    metrics["trace.overhead_s"] = (
        float(np.median(traced) - np.median(untraced)) if traced and untraced else float("nan")
    )
    return metrics


def main(argv=None):
    args = parse_args(argv)
    fresh = import_fsp()
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment(args, fresh)
    tracer = tracing.Tracer() if args.trace else None
    wl = make_workload(args, tracer)
    OUT.mkdir(exist_ok=True)
    try:
        setup_times, ops, missing = run_ops(wl, args, tracer)
    finally:
        wl.close()

    metrics = end_to_end(wl, args, setup_times, ops)
    detail = wl.detail(ops)
    failed = sum(1 for op in ops if op.problems)
    detail["fail_ratio"] = (failed / len(ops), "ratio")
    detail["setup_s"] = (metrics["setup_s"], "s")
    detail["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    if tracer is not None:
        metrics = per_layer(wl, tracer, ops)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                for m in wanted}
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": reported,
    }
    record = {
        "environment": env,
        "result": result,
        "setup_s": setup_times,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "missing_trace_targets": missing,
        "ops": [{"i": i, "kind": op.kind, "seconds": op.seconds, "items": op.items,
                 "traced": op.traced, "problems": op.problems} for i, op in enumerate(ops)],
    }
    if tracer is not None:
        record["spans"] = tracer.records()
        record["child_spans"] = getattr(wl, "child_spans", [])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (OUT / name).write_text(json.dumps(record), encoding="utf-8")

    print("environment " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in detail.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload} {key} = {shown} {unit}")
    for i, op in enumerate(ops):
        if op.problems:
            print(f"{args.workload} op {i} ({op.kind}) failed: {'; '.join(op.problems)}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
