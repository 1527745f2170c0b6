"""Fingerprints of fsp's seeded outputs, one `name sha256-prefix` line per item.

Run from the repository root:

    PYTHONPATH=src python tests/digest.py > digest.txt

Two checkouts that print the same lines select the same (theta, h), score the
same tables, write the same estimator files, reports, predictions and
`fsp simulate` CSVs, and answer the same CLI `personalize` -> `predict` round
trip, bit for bit.  `diff` of two outputs names every item that moved.  Not a
test module: pytest does not collect it.
"""

import hashlib
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr
from io import StringIO

import numpy as np

import fsp
from fsp import FitConfig, HolderParams, cli, estimator
from fsp.core import rng_stream
from helpers import benchmark_pool_fit


def _bytes(value):
    if isinstance(value, np.ndarray):
        return repr((value.shape, value.dtype.str)).encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode()
    return repr(value).encode()


def emit(name, value):
    print(name, hashlib.sha256(_bytes(value)).hexdigest()[:16])


def _table(rows):
    return [(t.theta1, t.theta2, h, s) for t, h, s in rows]


def emit_fit(name, fit, queries):
    emit(f"{name}.selection", (fit.theta, fit.bandwidth, fit.score))
    emit(f"{name}.table", _table(fit.score_table))
    emit(f"{name}.report", json.dumps(fit.to_dict(), sort_keys=True, default=repr))
    emit(f"{name}.mean_sigma", fit.mean_sigma)
    emit(f"{name}.predictions", fit.estimator.predict_batch(queries))


def fits():
    for make in (fsp.scenario_regression, fsp.scenario_classification, fsp.scenario_adversarial):
        scenario = make()
        dom = scenario.domain
        queries = dom.uniform(500, rng_stream(7, "digest-queries"))
        for n in (300, 1000) if scenario.name != "regression" else (300, 1000, 3000):
            model = scenario.make_pretrained(1000, fsp.derive_seed(n, "digest-model"))
            for bandwidth in ("cv", "rule", 0.2):
                if n == 1000 and scenario.name != "regression" and bandwidth == 0.2:
                    continue
                fit = fsp.fit_personalized(
                    model, dom, n, scenario.make_oracle(), FitConfig(bandwidth=bandwidth), seed=n
                )
                emit_fit(f"fit.{scenario.name}.n{n}.{bandwidth}", fit, queries)
            if n == 1000 and scenario.name == "regression":
                # the full ladder at scale: 64 thetas x 1,000 rungs, 64,000 scored pairs
                full = fsp.fit_personalized(
                    model, dom, n, scenario.make_oracle(), FitConfig(full_bandwidth_set=True), seed=n
                )
                emit_fit(f"fit.{scenario.name}.n{n}.full", full, queries)
        strict = fsp.fit_personalized(
            model, dom, 300, scenario.make_oracle(), FitConfig(split="strict"), seed=3
        )
        emit_fit(f"fit.{scenario.name}.strict", strict, queries)
        # the full ladder: one rung per sample, about 15k scored pairs
        full = fsp.fit_personalized(
            model, dom, 300, scenario.make_oracle(), FitConfig(full_bandwidth_set=True), seed=3
        )
        emit_fit(f"fit.{scenario.name}.full", full, queries)
        small = fsp.Domain.cube(2, 0.0, 0.2)
        for bandwidth in ("cv", "rule"):
            fit = fsp.fit_personalized_small_domain(
                model, small, 200, scenario.make_oracle(), FitConfig(bandwidth=bandwidth), seed=4
            )
            emit_fit(f"small.{scenario.name}.{bandwidth}", fit, small.uniform(200, rng_stream(7, "q")))
        single = fsp.fit_single_task(small, 200, scenario.make_oracle(), seed=5)
        emit_fit(f"single.{scenario.name}", single, small.uniform(200, rng_stream(8, "q")))


def pool_fits():
    rng = rng_stream(11, "digest-pool")
    pool_x = rng.random((20_000, 2))
    pool_y = np.abs(pool_x[:, 0] - 0.4) + (0.2 + pool_x[:, 1]) * rng.standard_normal(20_000)
    model = fsp.ExpressionModel("abs(x1) + 0.5*x2", 2)
    queries = fsp.Domain.bounding(pool_x).uniform(10_000, rng)
    for bandwidth, n in (("rule", 2000), ("cv", 600)):
        fit = fsp.fit_personalized_pool(
            model, None, n, n // 4, pool_x, pool_y, config=FitConfig(bandwidth=bandwidth), seed=2
        )
        emit_fit(f"pool.{bandwidth}.n{n}", fit, queries)
    # n equal to the pool size: every point is labeled, with no sampler or ratio fit
    fit = fsp.fit_personalized_pool(model, None, 400, 100, pool_x[:400], pool_y[:400], seed=2)
    emit_fit("pool.whole.n400", fit, fit.estimator.domain.uniform(500, rng))
    # the benchmark's `cli` pool fit, so that the one-thread diff covers the density-ratio fit
    fit = benchmark_pool_fit()
    emit_fit("pool.bench.rule.n2000", fit, fit.estimator.domain.uniform(2000, rng_stream(14, "q")))
    # a table model over 5,000 stored points: 1,500 queries span many of its distance blocks
    table = fsp.TableModel(pool_x[:5000], pool_y[:5000])
    fit = fsp.fit_personalized_pool(
        table, None, 1000, 250, pool_x[5000:], pool_y[5000:], config=FitConfig(bandwidth="rule"), seed=2
    )
    queries = fit.estimator.domain.uniform(1500, rng_stream(15, "q"))
    emit_fit("pool.table.rule.n1000", fit, queries)
    emit("pool.table.model", table.predict_batch(queries))


def kernels():
    """window_biases on CV ladders, rule-style lists and single pairs, with grid ties."""
    rng = rng_stream(12, "digest-kernels")
    for dim in (1, 2, 3, 5):
        for ties in (False, True):
            train_x = rng.random((400, dim))
            xs = rng.random((300, dim))
            if ties:
                train_x, xs = np.round(train_x * 8) / 8, np.round(xs * 8) / 8
            train_y = rng.normal(size=400)
            f_train, f_eval = np.sin(3 * train_x).sum(axis=1), np.sin(3 * xs).sum(axis=1)
            thetas = fsp.build_grid(400, 2.0).points
            ladder = [0.004, 0.125, 0.25, 0.5, np.inf]
            lists = {
                "ladder": [(t, h) for h in ladder for t in thetas],
                "rule": [(t, ladder[i % len(ladder)]) for i, t in enumerate(thetas)],
                "zero": [(HolderParams(0.0, 0.0), 0.25)],
                "pair": [(HolderParams(6 / 7, 1.0), 0.125)],
                "inf": [(HolderParams(1.5, 0.5), np.inf)],
            }
            for name, pairs in lists.items():
                out = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
                emit(f"kernel.d{dim}.{'ties' if ties else 'free'}.{name}", out)
        field = fsp.VarianceField(train_x, train_y, 0.3, fsp.Domain.cube(dim))
        emit(f"variance.d{dim}", field.variance_batch(xs))
        emit(f"mean_sigma.d{dim}", fsp.plug_in_density(field, fsp.core.default_quadrature_points(dim)).mean_sigma)
    # pilots above the 10,000 elements at which OpenBLAS splits a dot product across threads
    for n in (12_000, 40_000):
        rng = rng_stream(n, "digest-variance")
        field = fsp.VarianceField(rng.random((n, 2)), rng.normal(size=n), 0.9, fsp.Domain.cube(2))
        emit(f"variance.pilot{n}", field.variance_batch(rng.random((300, 2))))


def experiments():
    for make in (fsp.scenario_regression, fsp.scenario_classification, fsp.scenario_adversarial):
        for bandwidth in ("cv", "rule"):
            result = fsp.run_experiment(
                make(n_test=300), n=300, repetitions=2, seed=9, config=FitConfig(bandwidth=bandwidth)
            )
            emit(f"experiment.{result.scenario}.{bandwidth}", [vars(r) for r in result.rows])


def _file(path, tmp):
    """File text with the temporary directory and wall-clock fields masked."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace(tmp, "TMP")
    return re.sub(r'"wall_clock_sec": [^,\n]*', '"wall_clock_sec": 0', text)


def _cli(*argv):
    err = StringIO()
    with redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"fsp {argv[0]} exited {rc}:\n{err.getvalue()}")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def command_line():
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in ("regression", "classification", "adversarial"):
            for bandwidth in ("cv", "rule"):
                prefix = f"{scenario}_{bandwidth}"
                _cli("simulate", "--scenario", scenario, "-n", 300, "--reps", 2, "--n-test", 200,
                     "--seed", 6, "--bandwidth", bandwidth, "--out-dir", tmp, "--prefix", prefix)
                for suffix in ("runs.csv", "summary.csv", "report.json"):
                    emit(f"simulate.{prefix}.{suffix}", _file(os.path.join(tmp, f"{prefix}_{suffix}"), tmp))
        rng = rng_stream(13, "digest-cli")
        pool = os.path.join(tmp, "pool.csv")
        xs = rng.random((3000, 2))
        ys = np.abs(xs[:, 0]) + 0.5 * xs[:, 1] + (0.1 + xs[:, 0]) * rng.standard_normal(3000)
        with open(pool, "w", encoding="utf-8") as fh:
            fh.write("x1,x2,y\n")
            fh.writelines(f"{a!r},{b!r},{c!r}\n" for (a, b), c in zip(xs.tolist(), ys.tolist()))
        queries = os.path.join(tmp, "queries.csv")
        with open(queries, "w", encoding="utf-8") as fh:
            fh.write("x1,x2\n")
            fh.writelines(f"{a!r},{b!r}\n" for a, b in fsp.Domain.bounding(xs).uniform(2000, rng).tolist())
        small_queries = os.path.join(tmp, "small_queries.csv")
        with open(small_queries, "w", encoding="utf-8") as fh:
            fh.write("x1,x2\n")
            fh.writelines(f"{a!r},{b!r}\n" for a, b in (0.3 * xs[:500]).tolist())
        source = {"kind": "synthetic", "f_star": "abs(x1) + x2**2"}
        synthetic = _write_json(os.path.join(tmp, "synthetic.json"),
                                {"source": source, "domain": [[0, 0], [1, 1]]})
        small = _write_json(os.path.join(tmp, "small.json"),
                            {"source": source, "domain": [[0, 0], [0.3, 0.3]], "h_sigma": 0.1})
        table = _write_json(os.path.join(tmp, "table.json"), {"model": {
            "kind": "table", "csv": pool, "covariates": ["x1", "x2"], "value": "y"}})
        kernel = _write_json(os.path.join(tmp, "kernel.json"), {
            "source": source, "domain": [[0, 0], [1, 1]],
            "model": {"kind": "kernel-smooth", "points": xs[:300].tolist(),
                      "values": ys[:300].tolist(), "bandwidth": 0.2}})
        expr = ("--model-expr", "abs(x1) + 0.5*x2")
        runs = {
            "pool.rule": ("--pool-csv", pool, "--covariates", "x1,x2", "-n", 800, "--bandwidth", "rule",
                          *expr),
            "pool.cv": ("--pool-csv", pool, "--covariates", "x1,x2", "-n", 500, *expr),
            "synthetic.cv": ("--config", synthetic, "-n", 400, "--split", "strict", *expr),
            "small.rule": ("--config", small, "-n", 300, "--small-domain", "--bandwidth", "rule", *expr),
            "pool.table": ("--config", table, "--pool-csv", pool, "--covariates", "x1,x2", "-n", 500),
            "synthetic.kernel": ("--config", kernel, "-n", 400),
        }
        for name, args in runs.items():
            est, rep, out = (os.path.join(tmp, f"{name}.{ext}") for ext in ("est.json", "rep.json", "csv"))
            _cli("personalize", *args, "--seed", 3, "--out-estimator", est, "--out-report", rep)
            emit(f"cli.{name}.estimator", _file(est, tmp))
            emit(f"cli.{name}.report", _file(rep, tmp))
            inside = small_queries if name == "small.rule" else queries
            _cli("predict", "--estimator", est, "--queries", inside, "--out", out)
            emit(f"cli.{name}.predictions", _file(out, tmp))


if __name__ == "__main__":
    for part in (fits, pool_fits, kernels, experiments, command_line):
        part()
        sys.stdout.flush()
