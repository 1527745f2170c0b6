"""The four benchmark workloads: fit, simulate, serve and cli.

Each workload has a set-up (timed, repeated by the harness), an untimed
`prepare`, and operations the harness runs in a closed loop with one
caller.  An operation returns what it delivered; `check` returns a list of
problems with that output, empty when it is correct.  Inputs come only
from the workload seed.
"""

import csv
import hashlib
import json
import math
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fsp
from fsp.adaptation import default_bandwidth_set
from fsp.simulation import METHODS

import oracles

HERE = Path(__file__).resolve().parent

SIZES = {
    "full": {
        "fit_n": 1000, "n_ptr": 1000, "sim_n": 300, "n_test": 500,
        "serve_n": 1000, "batch": 1000, "pool_rows": 20_000, "pool_n": 2000,
        "query_rows": (1000, 4000, 10_000), "deadline": 60.0, "warm_n": 300,
    },
    "tiny": {
        "fit_n": 120, "n_ptr": 200, "sim_n": 40, "n_test": 50,
        "serve_n": 200, "batch": 100, "pool_rows": 2000, "pool_n": 200,
        "query_rows": (100, 200, 400), "deadline": 10.0, "warm_n": 32,
    },
}


class Op:
    """Outcome of one operation: its kind, output, delivered items and problems."""

    def __init__(self, kind, output=None, items=0, seconds=None, problems=()):
        self.kind = kind
        self.output = output
        self.items = items
        self.seconds = seconds
        self.problems = list(problems)
        self.traced = False
        self.wrong = False


class Workload:
    """Defaults for an in-process workload: time-bounded loop, every other op traced."""

    min_ops = 3

    def __init__(self, seed, size, seconds):
        self.seed = seed
        self.size = SIZES[size]
        self.deadline = self.size["deadline"]

    def prepare(self):
        pass

    def more(self, i, elapsed, seconds):
        return i < self.min_ops or elapsed < seconds

    def traced(self, i):
        return i % 2 == 0

    def unstarted(self, i):
        """(kind, deadline) of the operations a run still owes after operation i - 1."""
        return [(self.main_kind, self.deadline)] * max(0, self.min_ops - i)

    def malform(self, op):
        """Replace the output with one the check cannot read."""
        op.output = None

    def close(self):
        pass


class FitWorkload(Workload):
    """`fit_personalized` on the regression scenario with the default CV config."""

    main_kind = items_kind = "fit"

    def setup(self):
        self.scenario = fsp.scenario_regression()
        self.model = self.scenario.make_pretrained(
            self.size["n_ptr"], fsp.derive_seed(self.seed, "bench-fit-model")
        )
        # warm-up at a small budget so lazy imports and caches are paid here
        fsp.fit_personalized(self.model, self.scenario.domain, self.size["warm_n"],
                             self.scenario.make_oracle(), fsp.FitConfig(), seed=self.seed)

    def inputs(self, i):
        return self.seed * 1000 + i

    def run(self, i, fit_seed):
        fit = fsp.fit_personalized(
            self.model, self.scenario.domain, self.size["fit_n"], self.scenario.make_oracle(),
            fsp.FitConfig(), seed=fit_seed,
        )
        return Op("fit", (fit_seed, fit), items=self.size["fit_n"])

    def corrupt(self, op):
        fit = op.output[1]
        others = [row for row in fit.score_table if row[1] != fit.bandwidth]
        fit.bandwidth = others[0][1]

    def check(self, op):
        fit_seed, fit = op.output
        rows = fit.score_table
        # documented tie rule: smaller h first, then lexicographically smaller theta
        best = min(rows, key=lambda r: (r[2], r[1], r[0].theta1, r[0].theta2))
        problems = []
        if (fit.theta, fit.bandwidth, fit.score) != best:
            problems.append(f"selected {fit.theta}, h={fit.bandwidth} is not the argmin {best}")
        zero_rows = [r for r in rows if r[0].theta1 == 0]
        best_zero = min(zero_rows, key=lambda r: r[2]) if zero_rows else None
        if best_zero is None or fit.score > best_zero[2]:
            problems.append("selected score is worse than the best theta1 = 0 row")
        est = fit.estimator
        if (est.theta, est.bandwidth) != (fit.theta, fit.bandwidth):
            problems.append("estimator parameters differ from the selection")
        if problems:
            return problems
        return self._rescore(fit_seed, fit, [best, best_zero])

    def _rescore(self, fit_seed, fit, rows):
        """Recompute table scores with the plain-loop oracle on a rebuilt validation block.

        The selected row and the best theta1 = 0 row are always checked, plus
        one seeded random row, so a scorer that is wrong but self-consistent
        does not pass.
        """
        cfg = fsp.FitConfig()
        rr = fsp.retrieve_budgeted(self.size["fit_n"], cfg.pilot_fraction, self.scenario.domain,
                                   self.scenario.make_oracle(), fsp.rng_stream(fit_seed, "retrieval"),
                                   split=cfg.split)
        ss = rr.samples
        if not np.array_equal(ss.train_x, fit.estimator.train_x):
            return ["rebuilt retrieval differs from the fitted training block"]
        f_train = self.model.predict_batch(ss.train_x)
        f_val = self.model.predict_batch(ss.val_x)
        pick = fsp.rng_stream(fit_seed, "bench-fit-rescore").integers(len(fit.score_table))
        checked = {(theta, h): score for theta, h, score in rows + [fit.score_table[pick]]}
        problems = []
        for (theta, h), score in checked.items():
            want = oracles.validation_score_oracle(ss.train_x, ss.train_y, f_train, ss.val_x,
                                                   ss.val_y, f_val, theta, h)
            if not math.isclose(score, want, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"score of {theta}, h={h} is {score!r}, oracle gives {want!r}")
        return problems

    def detail(self, ops):
        times = [op.seconds for op in ops if op.kind == "fit"]
        return {"fit_s": (_median(times), "s"), "fits": (len(times), "count")}


class SimulateWorkload(Workload):
    """One `run_experiment` repetition per shipped scenario, all three methods."""

    main_kind = items_kind = "round"

    def __init__(self, seed, size, seconds):
        super().__init__(seed, size, seconds)
        self.digest = hashlib.sha256()

    def setup(self):
        n_test = self.size["n_test"]
        self.scenarios = [
            fsp.scenario_regression(n_test=n_test),
            fsp.scenario_classification(n_test=n_test),
            fsp.scenario_adversarial(n_test=n_test),
        ]
        for scenario in self.scenarios:
            fsp.run_experiment(scenario, n=64, n_ptr=200, repetitions=1, seed=self.seed)

    def inputs(self, i):
        return fsp.derive_seed(self.seed, f"bench-simulate-{i}")

    def run(self, i, rep_seed):
        out = {}
        for scenario in self.scenarios:
            start = time.perf_counter()
            result = fsp.run_experiment(scenario, n=self.size["sim_n"], n_ptr=self.size["n_ptr"],
                                        repetitions=1, seed=rep_seed)
            out[scenario.name] = (time.perf_counter() - start, result)
        return Op("round", out, items=sum(len(r.rows) for _, r in out.values()))

    def corrupt(self, op):
        result = op.output["regression"][1]
        result.rows.append(fsp.simulation.RepRecord("fsp", 0, float("nan")))

    def check(self, op):
        problems = []
        for name, (_, result) in op.output.items():
            if len(result.rows) != len(METHODS):
                problems.append(f"{name}: {len(result.rows)} rows, expected {len(METHODS)}")
            if not all(math.isfinite(r.value) for r in result.rows):
                problems.append(f"{name}: non-finite metric value")
            for r in result.rows:
                self.digest.update(repr((name, r.method, r.value, r.theta1, r.theta2,
                                         r.bandwidth)).encode())
        return problems

    def detail(self, ops):
        rounds = [op for op in ops if op.kind == "round" and op.output]
        out = {}
        for name in ("regression", "classification", "adversarial"):
            out[f"rep_s.{name}"] = (_median([op.output[name][0] for op in rounds]), "s")
        out["rounds"] = (len(rounds), "count")
        out["rows_digest"] = (self.digest.hexdigest()[:16], "sha256")
        return out


class ServeWorkload(Workload):
    """`predict_batch` on 1,000-query batches, alternating two frozen estimators."""

    main_kind = items_kind = "batch"
    min_ops = 4
    checked_rows = 3

    def setup(self):
        n = self.size["serve_n"]
        scenario = fsp.scenario_regression()
        model = scenario.make_pretrained(self.size["n_ptr"],
                                         fsp.derive_seed(self.seed, "bench-serve-model"))
        rr = fsp.retrieve_budgeted(n, 0.25, scenario.domain, scenario.make_oracle(),
                                   fsp.rng_stream(self.seed, "bench-serve-retrieval"))
        ss = rr.samples
        f_train = model.predict_batch(ss.train_x)
        grid = fsp.build_grid(n, 2.0).points
        ladder = default_bandwidth_set(n, scenario.domain.max_edge())
        # both pairs are ones `fit` selects: (0, 0) at h = 1/5 and (6/7, 1) at h = 1/6
        theta_b = min(grid, key=lambda t: (abs(t.theta1 - 6 / 7), abs(t.theta2 - 1.0)))
        self.estimators = [
            fsp.PersonalizedEstimator(ss.train_x, ss.train_y, model, fsp.HolderParams(0.0, 0.0),
                                      ladder[4], scenario.domain, f_train=f_train),
            fsp.PersonalizedEstimator(ss.train_x, ss.train_y, model, theta_b, ladder[5],
                                      scenario.domain, f_train=f_train),
        ]
        self.model = model
        self.domain = scenario.domain
        for est in self.estimators:
            est.predict_batch(scenario.domain.uniform(100, fsp.rng_stream(self.seed, "warm-up")))

    def prepare(self):
        self.queries = fsp.rng_stream(self.seed, "bench-serve-queries")
        self.picks = fsp.rng_stream(self.seed, "bench-serve-checks")
        est = self.estimators[0]
        for j in self.picks.choice(len(est.train_x), 5, replace=False):
            want = oracles.kernel_smooth_oracle(self.model.points, self.model.values,
                                                self.model.bandwidth, est.train_x[j].tolist())
            if abs(est.f_train[j] - want) > 1e-12:
                raise RuntimeError("cached black-box values disagree with the plain-loop oracle")

    def traced(self, i):
        # batches alternate estimators, so trace pairs to cover both
        return (i // 2) % 2 == 0

    def inputs(self, i):
        return self.domain.uniform(self.size["batch"], self.queries)

    def run(self, i, xs):
        est = self.estimators[i % 2]
        preds = est.predict_batch(xs)
        return Op("batch", (est, xs, preds), items=len(xs))

    def corrupt(self, op):
        op.output[2][:] += 1e-9

    def check(self, op):
        est, xs, preds = op.output
        problems = []
        if preds.shape != (len(xs),) or not np.isfinite(preds).all():
            return ["predictions are not one finite value per query"]
        for j in self.picks.choice(len(xs), self.checked_rows, replace=False):
            want = oracles.personalized_oracle(est, self.model, xs[j])
            if abs(preds[j] - want) > 1e-12:
                problems.append(f"row {j}: {preds[j]!r} != oracle {want!r}")
        return problems

    def detail(self, ops):
        times = [op.seconds for op in ops if op.kind == "batch"]
        queries = sum(op.items for op in ops if op.kind == "batch")
        return {
            "predict_qps": (queries / sum(times), "1/s"),
            "predict_batch_ms_p50": (1e3 * _median(times), "ms"),
            "predict_batch_ms_p90": (1e3 * float(np.percentile(times, 90)), "ms"),
            "batches": (len(times), "count"),
        }


class CliWorkload(Workload):
    """`fsp personalize` on a pool CSV, then `fsp predict` and `fsp eval`, as subprocesses.

    The model is the external line-protocol child `stub_model.py`.  Every
    command starts in its own session; at its deadline the whole process
    group is terminated, so no model child outlives the command.
    """

    main_kind = "personalize"
    items_kind = "predict"

    def __init__(self, seed, size, seconds, out_dir, tracer=None, inject="none"):
        super().__init__(seed, size, seconds)
        self.work = out_dir / f"work-{os.getpid()}"
        self.tracer = tracer
        self.inject = inject
        self.env = dict(os.environ)
        src = str(HERE.parent / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.leftover_processes = 0
        self.child_spans = []
        # personalize time varies about 10% with the sampled pilot, so take
        # the median of several fits; about 5 s each at full size
        fits = max(2, round(seconds / 4))
        self.plan = [("personalize", c) for c in range(fits)]
        self.plan += [("predict", (c, 0)) for c in range(min(3, fits))]
        self.plan += [("eval", 0), ("predict", (fits - 1, 1)), ("predict", (fits - 1, 2))]
        _become_subreaper()

    def setup(self):
        rng = fsp.rng_stream(self.seed, "bench-cli-pool")
        self.work.mkdir(parents=True, exist_ok=True)
        rows = self.size["pool_rows"]
        xs = rng.random((rows, 2))
        sigma = 0.1 + 0.9 * xs[:, 0]
        ys = np.abs(xs[:, 0]) + 0.5 * xs[:, 1] + sigma * rng.standard_normal(rows)
        _write_csv(self.work / "pool.csv", ["x1", "x2", "y"], np.column_stack([xs, ys]))
        self.queries = []
        for k, count in enumerate(self.size["query_rows"]):
            q = 0.05 + 0.9 * rng.random((count, 2))
            path = self.work / f"queries{k}.csv"
            _write_csv(path, ["x1", "x2"], q)
            self.queries.append((path, q))
        q0 = self.queries[0][1]
        self.truth = np.abs(q0[:, 0]) + 0.5 * q0[:, 1]
        _write_csv(self.work / "truth.csv", ["y"], self.truth[:, None])

    def more(self, i, elapsed, seconds):
        return i < len(self.plan)

    def traced(self, i):
        """Every other personalize and 1k predict; eval and the large predicts always."""
        kind, arg = self.plan[i]
        if kind == "personalize":
            return arg % 2 == 0
        if kind == "predict":
            return arg[1] > 0 or arg[0] % 2 == 0
        return True

    def inputs(self, i):
        return self.plan[i]

    def unstarted(self, i):
        return [(kind, self._deadline(kind, arg)) for kind, arg in self.plan[i:]]

    def _deadline(self, kind, arg):
        if kind == "personalize":
            return self.deadline
        if kind == "predict":
            # a fixed base plus 0.5 ms per row: about 2.5x the per-row cost seen at 4k rows
            return 5.0 + 0.0005 * len(self.queries[arg[1]][1])
        return 5.0

    def _estimator(self, index):
        return self.work / f"estimator{index}.json"

    def run(self, i, step):
        kind, arg = step
        if kind == "personalize":
            mode = "wrong" if self.inject == "wrong" else "ok"
            model_cmd = shlex.join([sys.executable, str(HERE / "stub_model.py"), mode])
            argv = ["personalize", "-n", str(self.size["pool_n"]), "--bandwidth", "rule",
                    "--pool-csv", str(self.work / "pool.csv"), "--covariates", "x1,x2",
                    "--response", "y", "--model-cmd", model_cmd,
                    "--seed", str(self.seed * 1000 + arg),
                    "--out-estimator", str(self._estimator(arg)),
                    "--out-report", str(self.work / f"report{arg}.json")]
            result = self._command(i, argv, self._deadline(kind, arg))
            if result["rc"] == 0 and self.inject == "hang":
                _set_stub_mode(self._estimator(arg), "hang")
            result["est"] = arg
            return Op(kind, result, seconds=result["wall"], problems=result["problems"])
        if kind == "predict":
            est, k = arg
            path, xs = self.queries[k]
            out = self.work / f"predictions{est}_{k}.csv"
            argv = ["predict", "--estimator", str(self._estimator(est)), "--queries", str(path),
                    "--out", str(out)]
            result = self._command(i, argv, self._deadline(kind, arg))
            result.update(est=est, k=k, path=out)
            return Op(kind, result, items=0 if result["problems"] else len(xs),
                      seconds=result["wall"], problems=result["problems"])
        argv = ["eval", "--predictions", str(self.work / f"predictions{arg}_0.csv"),
                "--truth", str(self.work / "truth.csv"), "--metric", "mse"]
        result = self._command(i, argv, self._deadline(kind, arg))
        result["est"] = arg
        return Op(kind, result, seconds=result["wall"], problems=result["problems"])

    def _command(self, i, argv, deadline):
        """Run one CLI command in its own session under a deadline.

        A command that misses its deadline is charged the deadline as its time.
        """
        summary = self.work / f"trace{i}.json"
        traced = self.tracer is not None and self.traced(i)
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(summary), str(i),
                   repr(time.time()), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "fsp.cli"] + argv
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        timed_out = False
        try:
            out, err = proc.communicate(timeout=deadline)
        except subprocess.TimeoutExpired:
            timed_out = True
            # SIGTERM first, so a traced child can still write its spans
            _signal_group(proc.pid, signal.SIGTERM)
            try:
                out, err = proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                _signal_group(proc.pid, signal.SIGKILL)
                out, err = proc.communicate()
        wall = deadline if timed_out else time.perf_counter() - start
        reaped = self._reap_group(proc.pid)
        if not reaped:
            self.leftover_processes += 1
        if traced and summary.exists():
            payload = json.loads(summary.read_text(encoding="utf-8"))
            self.tracer.merge(payload["summary"])
            self.tracer.add_child_time(payload["summary"]["top_s"])
            self.child_spans.append({"op": i, "argv": argv, "spans": payload["spans"]})
            summary.unlink()
        problems = [] if reaped else [f"{argv[0]} left processes behind in its group"]
        if timed_out:
            problems.append(f"{argv[0]} missed its deadline of {deadline:.1f} s")
        elif proc.returncode != 0:
            text = err.decode("utf-8", "replace").strip().splitlines()
            problems.append(f"{argv[0]} exited with {proc.returncode}: {text[-1] if text else ''}")
        return {"rc": proc.returncode, "wall": wall, "stdout": out.decode("utf-8", "replace"),
                "problems": problems}

    def _reap_group(self, pgid):
        """Kill what is left of the command's process group and wait until it is gone."""
        _signal_group(pgid, signal.SIGKILL)
        stop = time.monotonic() + 5.0
        while time.monotonic() < stop:
            try:
                while os.waitpid(-1, os.WNOHANG)[0] > 0:
                    pass
            except ChildProcessError:
                pass
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return True
            time.sleep(0.02)
        return False

    def corrupt(self, op):
        pass  # wrong outputs come from the stub's `wrong` mode instead

    def malform(self, op):
        """As if personalize had exited 0 without writing its estimator."""
        self._estimator(op.output["est"]).unlink()

    def check(self, op):
        out = op.output
        if op.kind == "personalize":
            payload = json.loads(self._estimator(out["est"]).read_text(encoding="utf-8"))
            if payload.get("format") != "fsp-estimator" or not payload["train_y"]:
                return ["personalize wrote no usable estimator"]
            return []
        expected = self._recompute(out["est"], self.queries[out.get("k", 0)][1])
        if op.kind == "predict":
            got = _read_column(out["path"])
            if not np.array_equal(got, expected):
                bad = int(np.flatnonzero(got != expected)[0]) if got.shape == expected.shape else -1
                return [f"prediction row {bad} differs from the in-process recomputation"]
            return []
        want = float(np.mean((self.truth - expected) ** 2))
        got = float(out["stdout"].split()[-1])
        if not math.isclose(got, want, rel_tol=1e-5, abs_tol=1e-12):
            return [f"eval printed {got}, in-process MSE is {want}"]
        return []

    def _recompute(self, index, xs):
        """Predictions from the estimator JSON with the stub's closed form 0.5 * (x1 + x2)."""
        payload = json.loads(self._estimator(index).read_text(encoding="utf-8"))
        model = fsp.FunctionModel(lambda q: 0.5 * (q[:, 0] + q[:, 1]))
        est = fsp.PersonalizedEstimator(
            np.asarray(payload["train_x"], float), np.asarray(payload["train_y"], float), model,
            (payload["theta"]["theta1"], payload["theta"]["theta2"]), payload["bandwidth"],
            fsp.Domain(payload["domain"]["lo"], payload["domain"]["hi"]),
        )
        return est.predict_batch(xs)

    def detail(self, ops):
        personalize = [op.seconds for op in ops if op.kind == "personalize"]
        predicts = [op for op in ops if op.kind == "predict"]
        small = [op.seconds for op in predicts if op.output and op.output["k"] == 0]
        rows = sum(op.items for op in predicts)
        return {
            "personalize_s": (_median(personalize), "s"),
            "predict_cli_s": (_median(small), "s"),
            "cli_rows_per_s": (rows / sum(op.seconds for op in predicts), "1/s"),
            "leftover_processes": (self.leftover_processes, "count"),
        }

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _median(values):
    return float(np.median(values)) if values else float("nan")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def _read_column(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(r[0]) for r in rows])


def _set_stub_mode(estimator_path, mode):
    payload = json.loads(estimator_path.read_text(encoding="utf-8"))
    payload["model"]["argv"][-1] = mode
    estimator_path.write_text(json.dumps(payload), encoding="utf-8")


def _signal_group(pgid, sig):
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _become_subreaper():
    """Adopt orphaned grandchildren (model children) so they can be reaped here."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass
