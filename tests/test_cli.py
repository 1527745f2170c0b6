import argparse
import codecs
import contextlib
import csv
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fsp
from fsp import blackbox, cli, core
from fsp.adaptation import FitConfig, fit_personalized
from fsp.blackbox import ExpressionModel, GaussianNoise, SyntheticOracle
from fsp.cli import build_parser, load_estimator, main
from fsp.core import Domain, rng_stream
from fsp.sampling import fit_density_ratio, plug_in_density

# optional arguments name a file that receives every query row and one that
# receives the process id
STUB_MODEL = """\
import os, sys
log = open(sys.argv[1], "a") if len(sys.argv) > 1 else None
if len(sys.argv) > 2:
    with open(sys.argv[2], "a") as pids:
        pids.write(f"{os.getpid()}\\n")
dim = int(sys.stdin.readline().split()[1])
sys.stdout.write("OK\\n")
sys.stdout.flush()
for line in sys.stdin:
    if line.strip() == "":
        continue
    if log:
        log.write(line)
        log.flush()
    vals = [float(t) for t in line.split(",")]
    sys.stdout.write(repr(0.5 * sum(vals)) + "\\n")
    sys.stdout.flush()
"""


def _make_pool_csv(path, n=200, seed=0):
    rng = rng_stream(seed, "cli-pool")
    xs = rng.random((n, 2))
    ys = np.abs(xs[:, 0]) + 0.5 * xs[:, 1] + 0.3 * rng.standard_normal(n)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "y"])
        for row, y in zip(xs, ys):
            writer.writerow([repr(float(row[0])), repr(float(row[1])), repr(float(y))])
    return xs, ys


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_simulate_writes_three_files(tmp_path, capsys):
    rc = main([
        "simulate", "--scenario", "regression", "-n", "32", "--reps", "2",
        "--n-test", "30", "--n-ptr", "100", "--seed", "7",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert "resolved-config:" in capsys.readouterr().err  # echoed before running
    runs = tmp_path / "regression_runs.csv"
    summary = tmp_path / "regression_summary.csv"
    report = tmp_path / "regression_report.json"
    assert runs.exists() and summary.exists() and report.exists()
    rows = _read_rows(runs)
    assert rows[0][:5] == ["scenario", "method", "rep", "metric", "value"]
    assert len(rows) == 1 + 2 * 3  # header + reps * methods
    payload = json.loads(report.read_text())
    assert payload["resolved_config"]["seed"] == 7
    assert "fsp" in payload["summary"]


def test_simulate_unknown_scenario_lists_valid_names(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "nope", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "regression" in err and "classification" in err and "adversarial" in err


def test_simulate_reruns_byte_identical(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        main([
            "simulate", "--scenario", "adversarial", "-n", "32", "--reps", "2",
            "--n-test", "25", "--n-ptr", "50", "--seed", "3",
            "--out-dir", str(tmp_path / sub),
        ])
    a = (tmp_path / "a" / "adversarial_runs.csv").read_bytes()
    b = (tmp_path / "b" / "adversarial_runs.csv").read_bytes()
    assert a == b


def _replay(tmp_path, report, **outputs):
    """Run a report's resolved_config again as --config, with the output keys set to `outputs`."""
    resolved = json.loads(report.read_text())["resolved_config"]
    config = tmp_path / "replay.json"
    config.write_text(json.dumps({**resolved, **outputs}))
    return main([json.loads(report.read_text())["command"], "--config", str(config)])


def test_a_simulate_report_replays_to_the_same_csvs(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    assert main(["simulate", "--scenario", "regression", "-n", "32", "--reps", "2", "--n-test", "10",
                 "--n-ptr", "50", "--seed", "3", "--bandwidth", "rule", "--methods", "fsp,pretrained",
                 "--out-dir", str(tmp_path / "a")]) == 0
    assert _replay(tmp_path, tmp_path / "a" / "regression_report.json", out_dir=str(tmp_path / "b")) == 0
    for name in ("regression_runs.csv", "regression_summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("source", ["pool", "synthetic", "external"])
def test_a_personalize_report_replays_to_the_same_estimator(tmp_path, source):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_MODEL)
    if source == "pool":
        _make_pool_csv(tmp_path / "pool.csv")
        config = _personalize_config(tmp_path, source={
            "kind": "pool", "csv": str(tmp_path / "pool.csv"), "covariates": ["x1", "x2"]}, domain=None)
    else:
        # the report writes the infinite bandwidth as the string "inf", which the replay reads back
        config = _personalize_config(tmp_path, bandwidth=math.inf, seed=4, **(
            {"source": {"kind": "external", "cmd": f"{sys.executable} {stub}"}} if source == "external" else {}
        ))
    assert main(["personalize", "--config", str(config), "--split", "strict"]) == 0
    assert _replay(tmp_path, tmp_path / "r.json", out_estimator=str(tmp_path / "e2.json"),
                   out_report=str(tmp_path / "r2.json")) == 0
    assert (tmp_path / "e.json").read_bytes() == (tmp_path / "e2.json").read_bytes()


def test_simulate_seed_env_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("FSP_SEED", "99")
    main([
        "simulate", "--scenario", "regression", "-n", "32", "--reps", "1",
        "--n-test", "10", "--n-ptr", "50", "--out-dir", str(tmp_path),
    ])
    payload = json.loads((tmp_path / "regression_report.json").read_text())
    assert payload["resolved_config"]["seed"] == 99
    # an explicit flag beats the environment
    main([
        "simulate", "--scenario", "regression", "-n", "32", "--reps", "1",
        "--n-test", "10", "--n-ptr", "50", "--seed", "5", "--out-dir", str(tmp_path),
    ])
    payload = json.loads((tmp_path / "regression_report.json").read_text())
    assert payload["resolved_config"]["seed"] == 5


def test_simulate_nan_bandwidth_exits_2(tmp_path, capsys):
    rc = main([
        "simulate", "--scenario", "regression", "-n", "32", "--reps", "1",
        "--n-test", "10", "--n-ptr", "50", "--bandwidth", "nan", "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: bandwidths must be positive numbers, got nan"
    )


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "regression", "bogus_knob": 1}))
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_personalize_pool_with_external_model(tmp_path):
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_MODEL)
    est_path = tmp_path / "est.json"
    rep_path = tmp_path / "rep.json"
    rc = main([
        "personalize", "-n", "60", "--pool-csv", str(pool),
        "--covariates", "x1,x2", "--response", "y",
        "--model-cmd", f"{sys.executable} {stub}",
        "--seed", "11",
        "--out-estimator", str(est_path), "--out-report", str(rep_path),
    ])
    assert rc == 0
    payload = json.loads(est_path.read_text())
    assert payload["format"] == "fsp-estimator"
    assert len(payload["train_y"]) < 60  # pilot block is validation, not training
    assert payload["model"]["kind"] == "external"
    assert payload["warnings"]
    report = json.loads(rep_path.read_text())
    assert report["fit"]["retrieval"]["scheme"] == "pool"


def test_personalize_pool_reads_the_y_column_by_default(tmp_path):
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool, n=150)
    rep_path = tmp_path / "rep.json"
    rc = main([
        "personalize", "-n", "100", "--pool-csv", str(pool), "--covariates", "x1,x2",
        "--model-expr", "abs(x1)",
        "--out-estimator", str(tmp_path / "est.json"), "--out-report", str(rep_path),
    ])
    assert rc == 0
    retrieval = json.loads(rep_path.read_text())["fit"]["retrieval"]
    assert retrieval["envelope_violations"] >= 0  # the sampler reports its violations


def test_personalize_budget_exceeds_pool(tmp_path, capsys):
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool, n=50)
    rc = main([
        "personalize", "-n", "60", "--pool-csv", str(pool),
        "--covariates", "x1,x2", "--response", "y",
        "--model-expr", "x1",
        "--out-estimator", str(tmp_path / "e.json"),
        "--out-report", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    assert "budget exceeds pool" in capsys.readouterr().err


def test_personalize_strict_vs_reuse_differ(tmp_path):
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool)
    reports = {}
    for split in ("strict", "reuse"):
        est = tmp_path / f"e_{split}.json"
        rep = tmp_path / f"r_{split}.json"
        rc = main([
            "personalize", "-n", "60", "--pool-csv", str(pool),
            "--covariates", "x1,x2", "--response", "y",
            "--model-expr", "abs(x1) + 0.5*x2", "--seed", "4", "--split", split,
            "--out-estimator", str(est), "--out-report", str(rep),
        ])
        assert rc == 0
        reports[split] = json.loads(rep.read_text())
    assert reports["strict"]["resolved_config"]["split"] == "strict"
    assert (
        reports["strict"]["fit"]["validation_score"]
        != reports["reuse"]["fit"]["validation_score"]
    )


def test_personalize_synthetic_source(tmp_path):
    est = tmp_path / "e.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": [[0.0, 0.0], [1.0, 1.0]],
        "n": 48,
        "source": {"kind": "synthetic", "f_star": "abs(x1 - 0.5)",
                   "noise": {"kind": "gaussian", "sigma": 0.5}},
        "model": {"kind": "expression", "expr": "abs(x1 - 0.5)"},
        "seed": 2,
        "out_estimator": str(est),
        "out_report": str(tmp_path / "r.json"),
    }))
    assert main(["personalize", "--config", str(cfg)]) == 0
    with contextlib.ExitStack() as backends:
        loaded, covs = load_estimator(est, backends)
        assert covs == ["x1", "x2"]
        assert np.isfinite(loaded.predict(np.array([0.5, 0.5])))


def test_loaded_external_estimator_queries_only_new_rows(tmp_path):
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_MODEL)
    est_path = tmp_path / "est.json"
    rc = main([
        "personalize", "-n", "60", "--pool-csv", str(pool),
        "--covariates", "x1,x2", "--response", "y",
        "--model-cmd", f"{sys.executable} {stub}", "--seed", "11",
        "--out-estimator", str(est_path), "--out-report", str(tmp_path / "rep.json"),
    ])
    assert rc == 0
    payload = json.loads(est_path.read_text())
    assert len(payload["f_train"]) == len(payload["train_y"])
    rows_log = tmp_path / "rows.log"
    payload["model"]["argv"].append(str(rows_log))
    est_path.write_text(json.dumps(payload))
    with contextlib.ExitStack() as backends:
        est, _ = load_estimator(est_path, backends)
        preds = est.predict_batch(rng_stream(3, "loaded").random((7, 2)) * 0.5 + 0.25)
    assert len(preds) == 7
    assert len(rows_log.read_text().splitlines()) == 7  # training points are not queried again


def _personalize_config(tmp_path, **changes):
    config = {
        "domain": [[0.0, 0.0], [1.0, 1.0]],
        "n": 48,
        "source": {"kind": "synthetic", "f_star": "x1",
                   "noise": {"kind": "gaussian", "sigma": 0.5}},
        "model": {"kind": "expression", "expr": "x1"},
        "out_estimator": str(tmp_path / "e.json"),
        "out_report": str(tmp_path / "r.json"),
    }
    config.update(changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return path


_DOMAIN_FLAGS = {
    "bounds": ("[[0, 0], [1, 1]]", None),
    # the form an estimator file holds; unpacked, its keys were read as the bounds
    "object": ('{"lo": [0, 0], "hi": [1, 1]}', "domain must be JSON like [[lo1, lo2], [hi1, hi2]]"),
    "not-json": ("[[0, 0], [1, 1]", "domain must be JSON like [[lo1, lo2], [hi1, hi2]]"),
    "json-string": ('"[[0, 0], [1, 1]]"', "domain must be JSON like [[lo1, lo2], [hi1, hi2]]"),
    "one-bound": ("[[0, 0]]", "bad domain: not enough values to unpack (expected 2, got 1)"),
    "empty-box": ("[[0, 0], [1, 0]]", "bad domain: every coordinate needs lo < hi, got [0.0, 0.0]"),
}


@pytest.mark.parametrize("case", _DOMAIN_FLAGS)
def test_the_domain_flag_reads_a_pair_of_bound_lists_and_refuses_other_forms(tmp_path, capsys, case):
    flag, error = _DOMAIN_FLAGS[case]
    rc = main(["personalize", "--config", str(_personalize_config(tmp_path, domain=None)), "--domain", flag])
    if error is None:
        assert rc == 0
        assert json.loads((tmp_path / "e.json").read_text())["domain"] == {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}
    else:
        assert rc == 2 and _one_error(capsys) == f"error: {error}"
        assert not (tmp_path / "e.json").exists()


def test_a_synthetic_source_draws_bernoulli_labels_and_defaults_to_unit_gaussian_noise(tmp_path):
    def train_y(noise):
        source = {"kind": "synthetic", "f_star": "x1", **({} if noise is None else {"noise": noise})}
        assert main(["personalize", "--config", str(_personalize_config(tmp_path, source=source))]) == 0
        return json.loads((tmp_path / "e.json").read_text())["train_y"]

    assert set(train_y({"kind": "bernoulli"})) == {0.0, 1.0}
    assert train_y(None) == train_y({"kind": "gaussian", "sigma": 1.0})


def test_a_pool_cell_beyond_the_csv_field_limit_exits_2_naming_the_file(tmp_path, capsys):
    pool = tmp_path / "big.csv"
    pool.write_text("x1,x2,y\n0.5,0.5,1\n0." + "5" * csv.field_size_limit() + ",0.5,1\n")
    rc = main(["personalize", "-n", "8", "--pool-csv", str(pool), "--covariates", "x1,x2",
               "--model-expr", "x1", "--out-estimator", str(tmp_path / "e.json"),
               "--out-report", str(tmp_path / "r.json")])
    assert rc == 2
    limit = csv.field_size_limit()
    assert _one_error(capsys) == f"error: line 3 of {pool}: field larger than field limit ({limit})"


def _simulate_config(tmp_path, **changes):
    config = {"scenario": "regression", "n": 32, "repetitions": 1, "n_test": 10, "n_ptr": 50,
              "out_dir": str(tmp_path)}
    config.update(changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("command, changes, names", [
    ("personalize", {"source": {"kind": "synthetic"}}, "synthetic source needs the field 'f_star'"),
    ("personalize", {"model": {"kind": "expression"}}, "expression model needs the field 'expr'"),
    ("personalize", {"model": {"kind": "external"}}, "external model needs the field 'cmd'"),
    ("personalize", {"source": "pool.csv"}, "source must be a JSON object, got str"),
    ("personalize", {"source": {"kind": "synthetic", "f_star": "x1", "noise": 0.5}},
     "noise must be a JSON object, got float"),
    # these exited 1 (ValueError), and a sigma of true ran as 1
    ("personalize", {"source": {"kind": "synthetic", "f_star": "x1", "noise": {"sigma": True}}},
     "sigma must be finite and nonnegative, got True"),
    ("personalize", {"source": {"kind": "synthetic", "f_star": "x1", "noise": {"sigma": -1}}},
     "sigma must be finite and nonnegative, got -1"),
    ("predict", None, "estimator file needs the field 'bandwidth'"),  # an old or edited file
    ("simulate", {"full_bandwidth_set": "false"},
     "full_bandwidth_set must be true or false, got 'false'"),
    ("personalize", {"c1": "abc"}, "c1 must be a finite positive number, got 'abc'"),
    # the theta grid is built before the first label is spent
    ("personalize", {"c1": 1e308}, "c1 must leave m * c1 finite, with m = 4 for n = 48; got 1e+308"),
    ("simulate", {"c1": 1e308}, "c1 must leave m * c1 finite, with m = 4 for n = 32; got 1e+308"),
    ("personalize", {"synthetic_cap": 0}, "synthetic_cap must be a positive integer, got 0"),
    ("personalize", {"h_sigma": -1}, "h_sigma must be a finite positive number, got -1"),
    ("personalize", {"bandwidth": []}, "bandwidth list must be nonempty"),
    ("simulate", {"n": 40.7}, "n must be a positive integer, got 40.7"),
    ("personalize", {"n": "abc"}, "n must be a positive integer, got 'abc'"),
    ("personalize", {"seed": True}, "seed must be an integer, got True"),
    ("personalize", {"small_domain": "false"}, "small_domain must be true or false, got 'false'"),
    ("simulate", {"methods": "fsp"}, "methods must be a list of names, got 'fsp'"),
    ("simulate", {"methods": []}, "methods must name at least one method, got []"),
    ("simulate", {"n_ptr": -5}, "n_ptr must be a positive integer, got -5"),
    ("simulate", {"repetitions": -1}, "repetitions must be a positive integer, got -1"),
    ("simulate", {"n_test": 0}, "n_test must be a positive integer, got 0"),
    ("simulate", {"methods": ["fsp", "x"]},
     "methods must be among single-task, fsp, pretrained, got 'x'"),
    ("simulate", {"out_dir": 5}, "out_dir must be a path string, got 5"),
    ("personalize", {"n": -2}, "n must be a positive integer, got -2"),
    ("personalize", {"out_report": 5}, "out_report must be a path string, got 5"),
    # checked before the CSV is read, which would look for the columns 'x' and '1'
    ("personalize", {"source": {"kind": "pool", "csv": "pool.csv", "covariates": "x1"}},
     "covariates must be a list of one or more distinct column names, got 'x1'"),
    ("personalize", {"source": {"kind": "pool", "csv": "pool.csv", "covariates": []}},
     "covariates must be a list of one or more distinct column names, got []"),
], ids=["source-f_star", "model-expr", "model-cmd", "source-not-object", "noise-not-object",
        "sigma-bool", "sigma-negative", "estimator-bandwidth", "full-set-string", "c1-string", "c1-overflow", "c1-overflow-simulate",
        "cap-zero", "h-sigma-negative",
        "empty-bandwidths", "n-float", "n-string", "seed-bool", "small-domain-string",
        "methods-string", "methods-empty", "n-ptr-negative", "repetitions-negative", "n-test-zero",
        "methods-unknown", "out-dir-int", "n-negative", "out-report-int", "covariates-string",
        "covariates-empty"])
def test_config_errors_exit_2_and_name_the_field(tmp_path, capsys, command, changes, names):
    if command == "predict":
        assert main(["personalize", "--config", str(_personalize_config(tmp_path))]) == 0
        est_path = tmp_path / "e.json"
        payload = json.loads(est_path.read_text())
        del payload["bandwidth"]
        est_path.write_text(json.dumps(payload))
        queries = tmp_path / "q.csv"
        queries.write_text("x1,x2\n0.5,0.5\n")
        capsys.readouterr()
        rc = main(["predict", "--estimator", str(est_path), "--queries", str(queries),
                   "--out", str(tmp_path / "p.csv")])
    elif command == "simulate":
        rc = main(["simulate", "--config", str(_simulate_config(tmp_path, **changes))])
        assert not (tmp_path / "regression_runs.csv").exists()
    else:
        rc = main(["personalize", "--config", str(_personalize_config(tmp_path, **changes))])
        assert not (tmp_path / "e.json").exists()
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == f"error: {names}"


@pytest.mark.parametrize("cell, row, column", [(2, 3, "y"), (0, 5, "x1")], ids=["label", "covariate"])
def test_personalize_rejects_a_non_finite_pool_cell(tmp_path, capsys, cell, row, column):
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool, n=100)
    lines = pool.read_text().splitlines()
    values = lines[row].split(",")
    values[cell] = "nan"
    lines[row] = ",".join(values)
    pool.write_text("\n".join(lines) + "\n")
    rc = main([
        "personalize", "-n", "60", "--pool-csv", str(pool), "--covariates", "x1,x2",
        "--model-expr", "x1", "--out-estimator", str(tmp_path / "e.json"),
        "--out-report", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    assert f"row {row}, column '{column}' of {pool}" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("edit", [
    lambda p: p.update(bandwidth=-0.5),
    lambda p: p.update(theta={"theta1": 0.5, "theta2": 3}),
    lambda p: p["train_x"][1].append(0.5),
    lambda p: p["train_y"].pop(),
    lambda p: p["train_x"][0].__setitem__(0, 2.0),
    lambda p: p.update(domain={"lo": [0.0, 0.0], "hi": [1.0, 0.0]}),
    lambda p: p["theta"].update(theta1="abc"),
    lambda p: p["train_y"].__setitem__(0, "nan"),
    lambda p: p.update(model={"kind": "table", "points": [[0, 0], [1, 1], ["nan", 0.5]], "values": [1, 2, 3]}),
    # each of these once loaded as the number it stands for: h = 1, theta2 = 0.5, the unit box
    lambda p: p.update(bandwidth=True),
    lambda p: p["theta"].update(theta2="0.5"),
    lambda p: p.update(domain={"lo": [False, False], "hi": [True, True]}),
    lambda p: p["train_y"].__setitem__(0, 10**400),  # exited 1: int too large to convert to float
], ids=["negative-bandwidth", "theta2-3", "ragged-train-x", "short-train-y",
        "train-point-outside", "lo-equals-hi", "string-theta1", "nan-label", "nan-table-point",
        "bool-bandwidth", "string-theta2", "bool-domain", "integer-label-beyond-float64"])
def test_a_bad_estimator_file_exits_2_and_names_it(tmp_path, capsys, edit):
    assert main(["personalize", "--config", str(_personalize_config(tmp_path))]) == 0
    est_path = tmp_path / "e.json"
    payload = json.loads(est_path.read_text())
    edit(payload)
    est_path.write_text(json.dumps(payload))
    queries = tmp_path / "q.csv"
    queries.write_text("x1,x2\n0.5,0.5\n")
    capsys.readouterr()
    rc = main(["predict", "--estimator", str(est_path), "--queries", str(queries),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith(
        f"error: bad estimator file {est_path}: "
    )
    assert not (tmp_path / "p.csv").exists()


def test_predictions_that_overflow_exit_2_without_writing(tmp_path, capsys):
    # labels near 1e308 once wrote inf predictions with exit 0
    assert main(["personalize", "--config", str(_personalize_config(tmp_path))]) == 0
    est_path = tmp_path / "e.json"
    payload = json.loads(est_path.read_text())
    payload["train_y"] = [1e308] * len(payload["train_y"])
    est_path.write_text(json.dumps(payload))
    queries = tmp_path / "q.csv"
    queries.write_text("x1,x2\n0.5,0.5\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["predict", "--estimator", str(est_path), "--queries", str(queries),
                   "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert _one_error(capsys) == (
        "error: the prediction at query point 0 = [0.5, 0.5] overflows float64; "
        "rescale the model or the labels"
    )
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("flag, what", [("--config", "config file"), ("--estimator", "estimator file")])
def test_an_unreadable_or_malformed_json_file_exits_2_and_names_it(tmp_path, capsys, flag, what):
    (tmp_path / "broken.json").write_text("{")
    for name, message in [("missing.json", f"error: cannot read {what}: [Errno 2] "),
                          ("broken.json", f"error: {what} is not valid JSON: Expecting ")]:
        rc = main(["predict", flag, str(tmp_path / name), "--queries", str(tmp_path / "q.csv")])
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith(message)


_ROLES = ["config", "estimator", "pool-csv", "table-csv", "queries", "predictions", "truth"]


def _input_role(tmp_path, role, bad):
    """The argv that reads the file `bad` in `role`, and bytes that are not UTF-8 for it."""
    queries, column = tmp_path / "q.csv", tmp_path / "c.csv"
    queries.write_text("x1,x2\n0.5,0.5\n")
    column.write_text("y\n1\n")
    outputs = ["--out-estimator", tmp_path / "e.json", "--out-report", tmp_path / "r.json"]
    if role in ("estimator", "queries"):
        assert main(["personalize", "--config", str(_personalize_config(tmp_path))]) == 0
    if role == "config":
        content, argv = b'{"n": 48, "seed": "caf\xe9"}', ["personalize", "--config", bad]
    elif role == "estimator":
        content, argv = b'{"kind": "\xe9"}', ["predict", "--estimator", bad, "--queries", queries]
    elif role == "pool-csv":
        content = b"x1,x2,y\n0.5,0.5,1\n0.5,\xe9,1\n"
        argv = ["personalize", "--pool-csv", bad, "--covariates", "x1,x2", "-n", 1, "--model-expr", "x1",
                *outputs]
    elif role == "table-csv":
        content = b"x1,x2,y\n\xe9,0.5,1\n"
        model = {"kind": "table", "csv": str(bad), "covariates": ["x1", "x2"], "value": "y"}
        argv = ["personalize", "--config", _personalize_config(tmp_path, model=model)]
    elif role == "queries":
        content = b"x1,x2\n0.5,\xe9\n"
        argv = ["predict", "--estimator", tmp_path / "e.json", "--queries", bad, "--out", tmp_path / "p.csv"]
    elif role == "predictions":
        content, argv = b"prediction\n\xe9\n", ["eval", "--predictions", bad, "--truth", column]
    else:
        content, argv = b"y\n\xe9\n", ["eval", "--predictions", column, "--truth", bad]
    return [str(a) for a in argv], content


def _one_error(capsys):
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in err, err
    return errors[0]


@pytest.mark.parametrize("role", _ROLES)
def test_a_file_that_is_not_utf8_exits_2_and_names_it(tmp_path, capsys, role):
    bad = tmp_path / "latin-1.txt"
    argv, content = _input_role(tmp_path, role, bad)
    bad.write_bytes(content)
    capsys.readouterr()
    assert main(argv) == 2
    assert str(bad) in _one_error(capsys)


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("role", _ROLES)
def test_an_input_file_that_cannot_be_read_exits_2_and_names_it(tmp_path, capsys, role, kind):
    # a CSV role once exited 1 with a bare "[Errno 2] No such file or directory"
    bad = tmp_path / "input"
    argv, _ = _input_role(tmp_path, role, bad)
    if kind == "directory":
        bad.mkdir()
    capsys.readouterr()
    assert main(argv) == 2
    error = _one_error(capsys)
    assert error.startswith("error: cannot read ") and str(bad) in error, error


def _forbid_work(monkeypatch):
    """Fail the test if a fitter, run_experiment or model_from_spec is called."""
    def forbidden(*args, **kwargs):
        pytest.fail("work started before the output paths were checked")

    for name in ("fit_personalized", "fit_personalized_pool", "fit_personalized_small_domain",
                 "run_experiment", "model_from_spec"):
        monkeypatch.setattr(cli, name, forbidden)


_UNUSABLE_OUTPUTS = {  # case: (command, flags, the key named, a part of the path named)
    "estimator-in-missing-dir": ("personalize", ["--out-estimator", "missing/e.json"], "out_estimator",
                                 "missing/e.json"),
    "report-in-missing-dir": ("personalize", ["--out-report", "missing/r.json"], "out_report",
                              "missing/r.json"),
    "estimator-and-report-share-a-path": ("personalize", ["--out-estimator", "x.json",
                                                          "--out-report", "x.json"], "out_report", "x.json"),
    "report-is-a-directory": ("personalize", ["--out-report", "dir"], "out_report", "dir"),
    "predictions-in-missing-dir": ("predict", ["--out", "missing/p.csv"], "out", "missing/p.csv"),
    "predictions-is-a-directory": ("predict", ["--out", "dir"], "out", "dir"),
    "predictions-path-is-empty": ("predict", ["--out", ""], "out", "file, not a directory"),
    "prefix-in-missing-dir": ("simulate", ["--out-dir", "dir", "--prefix", "../missing/x"], "prefix",
                              "../missing/x"),
    "out-dir-is-a-file": ("simulate", ["--out-dir", "file"], "out_dir", "file"),
}


@pytest.mark.parametrize("case", _UNUSABLE_OUTPUTS)
def test_an_unusable_output_path_exits_2_before_any_work(tmp_path, monkeypatch, capsys, case):
    # each once failed with exit 1 after the work was done, or (a shared path) exited 0
    # with the report written over the estimator
    command, flags, key, named = _UNUSABLE_OUTPUTS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    if command == "personalize":
        argv = ["personalize", "--config", str(_personalize_config(tmp_path))]
    elif command == "predict":
        assert main(["personalize", "--config", str(_personalize_config(tmp_path))]) == 0
        (tmp_path / "q.csv").write_text("x1,x2\n0.5,0.5\n")
        argv = ["predict", "--estimator", "e.json", "--queries", "q.csv"]
    else:
        argv = ["simulate", "--config", str(_simulate_config(tmp_path, out_dir="."))]
    before = sorted(tmp_path.rglob("*"))
    _forbid_work(monkeypatch)
    capsys.readouterr()
    assert main(argv + flags) == 2
    error = _one_error(capsys)
    assert error.startswith(f"error: {key} ") and named in error, error
    assert sorted(tmp_path.rglob("*")) == before


# role: (command, the output flag, the key named, the input's key in the error)
_OVERWRITTEN_INPUTS = {
    "config": ("personalize", "--out-report", "out_report", "config"),
    "pool-csv": ("personalize", "--out-estimator", "out_estimator", "source csv"),
    "table-csv": ("personalize", "--out-estimator", "out_estimator", "model csv"),
    "estimator": ("predict", "--out", "out", "estimator"),
    "queries": ("predict", "--out", "out", "queries"),
    "simulate-config": ("simulate", "--prefix", "prefix", "config"),
}


@pytest.mark.parametrize("role", _OVERWRITTEN_INPUTS)
def test_an_output_that_overwrites_an_input_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                                     role):
    # each once exited 0 and wrote its output over the file it had read
    command, flag, key, reader = _OVERWRITTEN_INPUTS[role]
    monkeypatch.chdir(tmp_path)
    _make_pool_csv(tmp_path / "pool.csv")
    (tmp_path / "q.csv").write_text("x1,x2\n0.5,0.5\n")
    config = str(_personalize_config(tmp_path))
    if command == "predict":
        assert main(["personalize", "--config", config]) == 0
        argv = ["predict", "--estimator", str(tmp_path / "e.json"), "--queries", str(tmp_path / "q.csv")]
        target = {"estimator": "e.json", "queries": "q.csv"}[role]
    elif role == "pool-csv":
        argv = ["personalize", "--pool-csv", str(tmp_path / "pool.csv"), "--covariates", "x1,x2", "-n",
                "20", "--model-expr", "x1"]
        target = "pool.csv"
    elif role == "table-csv":
        model = {"kind": "table", "csv": str(tmp_path / "pool.csv"), "covariates": ["x1", "x2"],
                 "value": "y"}
        argv, target = ["personalize", "--config", str(_personalize_config(tmp_path, model=model))], "pool.csv"
    elif role == "config":
        argv, target = ["personalize", "--config", config], "cfg.json"
    else:  # simulate writes <prefix>_runs.csv first: name the config so
        (tmp_path / "x_runs.csv").write_text(_simulate_config(tmp_path, out_dir=".").read_text())
        argv, target = ["simulate", "--config", str(tmp_path / "x_runs.csv")], "x"
    # the output spells the input's path another way
    flags = [flag, os.path.join("sub", "..", target)]
    (tmp_path / "sub").mkdir()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    _forbid_work(monkeypatch)
    capsys.readouterr()
    assert main(argv + flags) == 2
    error = _one_error(capsys)
    assert error.startswith(f"error: {key} would overwrite the {reader} it reads: "), error
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("role", ["config", "estimator"])
def test_a_json_file_that_starts_with_a_byte_order_mark_loads(tmp_path, role):
    config, est_path, queries = _personalize_config(tmp_path), tmp_path / "e.json", tmp_path / "q.csv"
    queries.write_text("x1,x2\n0.5,0.5\n")

    def mark(path):
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())

    if role == "config":
        mark(config)
    assert main(["personalize", "--config", str(config)]) == 0
    if role == "estimator":
        mark(est_path)
    assert main(["predict", "--estimator", str(est_path), "--queries", str(queries),
                 "--out", str(tmp_path / "p.csv")]) == 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_numeric_bandwidth_flag_string_and_number_write_the_same_estimator(tmp_path):
    written = []
    for i, (changes, flags) in enumerate([
        ({}, ["--bandwidth", "0.2"]), ({"bandwidth": "0.2"}, []), ({"bandwidth": 0.2}, []),
    ]):
        est_path = tmp_path / f"e{i}.json"
        config = _personalize_config(tmp_path, out_estimator=str(est_path), **changes)
        assert main(["personalize", "--config", str(config), *flags]) == 0
        written.append(est_path.read_bytes())
    assert written[0] == written[1] == written[2]
    assert json.loads(written[0])["bandwidth"] == 0.2


def test_json_outputs_are_strict_and_round_trip_infinite_bandwidth(tmp_path):
    config = _personalize_config(tmp_path, bandwidth="inf", seed=4)
    assert main(["personalize", "--config", str(config)]) == 0
    est_path, report_path = tmp_path / "e.json", tmp_path / "r.json"
    estimator = json.loads(est_path.read_text(), parse_constant=_reject_constant)
    report = json.loads(report_path.read_text(), parse_constant=_reject_constant)
    assert estimator["bandwidth"] == "inf" and report["fit"]["bandwidth"] == "inf"
    assert report["fit"]["config"]["bandwidth"] == "inf"
    queries = tmp_path / "q.csv"
    xs = rng_stream(4, "strict-json").random((5, 2))
    queries.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in xs.tolist()))
    assert main(["predict", "--estimator", str(est_path), "--queries", str(queries),
                 "--out", str(tmp_path / "p.csv")]) == 0
    got = [float(row[0]) for row in _read_rows(tmp_path / "p.csv")[1:]]
    # the same fit in process: an infinite window predicts f + the mean training residual
    oracle = SyntheticOracle(ExpressionModel("x1", 2).predict_batch, GaussianNoise(0.5, dim=2),
                             Domain([0.0, 0.0], [1.0, 1.0]))
    fit = fit_personalized(ExpressionModel("x1", 2), Domain([0.0, 0.0], [1.0, 1.0]), 48, oracle,
                           FitConfig(bandwidth=float("inf")), seed=4)
    assert got == fit.estimator.predict_batch(xs).tolist()


@pytest.mark.parametrize("changes", [
    {"bandwidth": [5e-324]}, {"bandwidth": [1e-300, 1e300]}, {"bandwidth": "1e-320"},
    {"h_sigma": 5e-324}, {"c1": 5e-324}, {"c1": 1e307},
    {"pilot_fraction": 1e-300}, {"pilot_fraction": 0.999999},
], ids=["bandwidth-subnormal", "bandwidth-span", "bandwidth-string-subnormal", "h-sigma-subnormal",
        "c1-subnormal", "c1-large", "pilot-fraction-tiny", "pilot-fraction-near-1"])
def test_extreme_settings_fit_and_predict_finite_values(tmp_path, changes):
    config = _personalize_config(tmp_path, n=200, **changes)
    assert main(["personalize", "--config", str(config)]) == 0
    est_path = tmp_path / "e.json"
    for path in (est_path, tmp_path / "r.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)
    queries = tmp_path / "q.csv"
    xs = rng_stream(5, "extreme-settings").random((20, 2))
    queries.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in xs.tolist()))
    assert main(["predict", "--estimator", str(est_path), "--queries", str(queries),
                 "--out", str(tmp_path / "p.csv")]) == 0
    got = np.array([float(row[0]) for row in _read_rows(tmp_path / "p.csv")[1:]])
    assert got.shape == (20,) and np.isfinite(got).all()


def test_predict_round_trip_and_empty(tmp_path):
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool)
    est_path = tmp_path / "e.json"
    main([
        "personalize", "-n", "80", "--pool-csv", str(pool),
        "--covariates", "x1,x2", "--response", "y",
        "--model-expr", "abs(x1) + 0.5*x2", "--seed", "1",
        "--out-estimator", str(est_path), "--out-report", str(tmp_path / "r.json"),
    ])
    rng = rng_stream(0, "pred")
    xs = rng.random((100, 2)) * 0.8 + 0.05
    queries = tmp_path / "q.csv"
    with contextlib.ExitStack() as backends:
        est, covs = load_estimator(est_path, backends)
        with open(queries, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(covs)
            for row in xs:
                w.writerow([repr(float(v)) for v in row])
        out = tmp_path / "p.csv"
        assert main(["predict", "--estimator", str(est_path), "--queries", str(queries), "--out", str(out)]) == 0
        rows = _read_rows(out)
        got = np.array([float(r[0]) for r in rows[1:]])
        assert np.array_equal(got, est.predict_batch(xs))  # bit-identical round trip

    empty = tmp_path / "empty.csv"
    empty.write_text("x1,x2\n")
    out2 = tmp_path / "p2.csv"
    assert main(["predict", "--estimator", str(est_path), "--queries", str(empty), "--out", str(out2)]) == 0
    assert _read_rows(out2) == [["prediction"]]


def test_csv_cells_are_written_as_the_csv_module_writes_them(tmp_path):
    # None is an empty cell (a one-cell row of it is quoted), a float its repr, an int its str
    path = tmp_path / "cells.csv"
    cli._write_csv(path, ["a", "b"], [
        [None, 0.1], [None], [-0.0, 1e-300], [5e-324, float("inf")], [float("nan"), 7],
    ])
    assert path.read_bytes() == b'a,b\n,0.1\n""\n-0.0,1e-300\n5e-324,inf\nnan,7\n'


def test_predict_out_of_domain_names_row(tmp_path, capsys):
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool)
    est_path = tmp_path / "e.json"
    main([
        "personalize", "-n", "40", "--pool-csv", str(pool),
        "--covariates", "x1,x2", "--response", "y", "--model-expr", "0",
        "--out-estimator", str(est_path), "--out-report", str(tmp_path / "r.json"),
    ])
    queries = tmp_path / "q.csv"
    queries.write_text("x1,x2\n0.5,0.5\n9.0,9.0\n")
    rc = main(["predict", "--estimator", str(est_path), "--queries", str(queries), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert "row 2" in capsys.readouterr().err


def _write_column(path, name, values):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([name])
        for v in values:
            w.writerow([repr(float(v))])


def test_eval_mse_identical_files_zero(tmp_path, capsys):
    vals = rng_stream(1, "eval").random(20)
    _write_column(tmp_path / "p.csv", "prediction", vals)
    _write_column(tmp_path / "t.csv", "y", vals)
    rc = main(["eval", "--predictions", str(tmp_path / "p.csv"), "--truth", str(tmp_path / "t.csv"), "--metric", "mse"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_mce_constant_predictions(tmp_path, capsys):
    truth = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
    _write_column(tmp_path / "p.csv", "prediction", np.full(5, 0.6))
    _write_column(tmp_path / "t.csv", "y", truth)
    rc = main(["eval", "--predictions", str(tmp_path / "p.csv"), "--truth", str(tmp_path / "t.csv"), "--metric", "mce"])
    assert rc == 0
    got = float(capsys.readouterr().out.strip())
    assert got == pytest.approx((truth == 0).mean())  # 0.6 classifies everything as 1


def test_eval_random_instance_matches_loop(tmp_path, capsys):
    rng = rng_stream(2, "eval")
    preds = rng.random(30)
    truth = rng.random(30)
    _write_column(tmp_path / "p.csv", "prediction", preds)
    _write_column(tmp_path / "t.csv", "y", truth)
    main(["eval", "--predictions", str(tmp_path / "p.csv"), "--truth", str(tmp_path / "t.csv"), "--metric", "mse"])
    got = float(capsys.readouterr().out.strip())
    want = sum((float(t) - float(p)) ** 2 for t, p in zip(truth, preds)) / 30
    assert got == pytest.approx(want, rel=1e-5)


# case: (predictions file, truth file, metric, the error or None ({p} is the predictions
# path), the number of files read)
_EVAL_CASES = {
    "scored": ("prediction\n0.5\n1.0\n", "y\n0.5\n0.0\n", "mse", None, 2),
    "no-header": ("", "y\n1.0\n", "mse", "error: empty data: {p} has no header row", 1),
    "unknown-columns": ("a,b\n1,2\n", "y\n1.0\n", "mse",
                        "error: {p} has columns ['a', 'b']; expected one of ['prediction', 'pred', 'y'] "
                        "or a single-column file", 1),
    "labels": ("p\n0.6\n0.4\n", "label\n1.0\n0.5\n", "mce", "error: mce needs 0/1 labels; label 2 is 0.5",
               2),
    # the reader refuses an empty file, naming it
    "header-only": ("prediction\n", "y\n", "mse", "error: empty data: {p} has a header but no rows", 1),
}


@pytest.mark.parametrize("case", _EVAL_CASES)
def test_eval_reads_each_file_once_and_keeps_its_messages(tmp_path, monkeypatch, capsys, case):
    # eval once read each file's header, then the whole file again
    predictions, truth, metric, error, files_read = _EVAL_CASES[case]
    paths = [tmp_path / "p.csv", tmp_path / "t.csv"]
    for path, text in zip(paths, [predictions, truth]):
        path.write_text(text)
    reads, read = [], core.read_input

    def counting(path, what=None):
        reads.append(str(path))
        return read(path, what)

    monkeypatch.setattr(core, "read_input", counting)
    monkeypatch.setattr(cli, "read_input", counting)
    capsys.readouterr()
    rc = main(["eval", "--predictions", str(paths[0]), "--truth", str(paths[1]), "--metric", metric])
    if error is None:
        assert rc == 0 and float(capsys.readouterr().out) == pytest.approx(0.5)
    else:
        assert rc == 2 and _one_error(capsys) == error.format(p=paths[0])
    assert reads == [str(path) for path in paths[:files_read]]


def test_eval_mce_rejects_non_binary_truth(tmp_path, capsys):
    _write_column(tmp_path / "p.csv", "prediction", [0.6, 0.4, 0.2])
    _write_column(tmp_path / "t.csv", "y", [1.0, 0.5, 0.0])
    rc = main(["eval", "--predictions", str(tmp_path / "p.csv"), "--truth", str(tmp_path / "t.csv"), "--metric", "mce"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: mce needs 0/1 labels; label 2 is 0.5"]


@pytest.mark.parametrize("metric", ["mae", ["mse"]], ids=["unknown", "list"])
def test_eval_unknown_metric_in_config_exits_2(tmp_path, capsys, metric):
    _write_column(tmp_path / "p.csv", "prediction", [1.0])
    _write_column(tmp_path / "t.csv", "y", [1.0])
    (tmp_path / "cfg.json").write_text(json.dumps({"metric": metric}))
    rc = main(["eval", "--config", str(tmp_path / "cfg.json"), "--predictions", str(tmp_path / "p.csv"),
               "--truth", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"error: unknown metric {metric!r}; valid: mse, mce"


def test_eval_length_mismatch(tmp_path, capsys):
    _write_column(tmp_path / "p.csv", "prediction", [1.0, 2.0])
    _write_column(tmp_path / "t.csv", "y", [1.0])
    rc = main(["eval", "--predictions", str(tmp_path / "p.csv"), "--truth", str(tmp_path / "t.csv"), "--metric", "mse"])
    assert rc == 2
    assert "mismatch" in capsys.readouterr().err


def test_eval_prints_inf_without_a_warning_when_the_error_overflows(tmp_path, capsys):
    _write_column(tmp_path / "p.csv", "prediction", [1e308, -1e308])
    _write_column(tmp_path / "t.csv", "y", [1.0, 2.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--predictions", str(tmp_path / "p.csv"), "--truth", str(tmp_path / "t.csv")])
    assert rc == 0 and caught == []
    assert capsys.readouterr().out.strip() == "inf"


def test_eval_reads_a_truth_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    _write_column(tmp_path / "p.csv", "prediction", [1.0, 2.0])
    (tmp_path / "t.csv").write_text("\ufeffy\n1.5\n2.0\n", encoding="utf-8")
    rc = main(["eval", "--predictions", str(tmp_path / "p.csv"), "--truth", str(tmp_path / "t.csv"), "--metric", "mse"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == 0.125


def test_eval_scores_the_prediction_column_after_a_byte_order_mark(tmp_path, capsys):
    # the y column is not the prediction; reading it would score 112.5
    (tmp_path / "p.csv").write_text("\ufeffprediction,y\n1.5,10\n2.5,-10\n", encoding="utf-8")
    _write_column(tmp_path / "t.csv", "y", [1.0, 2.0])
    rc = main(["eval", "--predictions", str(tmp_path / "p.csv"), "--truth", str(tmp_path / "t.csv"), "--metric", "mse"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == 0.25


def test_option_surface_is_pinned():
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        name: {a.dest: a.option_strings for a in sub._actions if a.dest != "help"}
        for name, sub in subcommands.choices.items()
    }
    assert flags == {
        "simulate": {
            "config": ["--config"], "scenario": ["--scenario"], "n": ["-n"],
            "n_ptr": ["--n-ptr"], "repetitions": ["--repetitions", "--reps"],
            "n_test": ["--n-test"], "methods": ["--methods"], "seed": ["--seed"],
            "out_dir": ["--out-dir"], "prefix": ["--prefix"], "split": ["--split"],
            "bandwidth": ["--bandwidth"],
        },
        "personalize": {
            "config": ["--config"], "n": ["-n", "--budget"], "pilot_size": ["--pilot-size"],
            "pool_csv": ["--pool-csv"], "covariates": ["--covariates"],
            "response": ["--response"], "model_expr": ["--model-expr"],
            "model_cmd": ["--model-cmd"], "domain": ["--domain"], "split": ["--split"],
            "bandwidth": ["--bandwidth"], "small_domain": ["--small-domain"],
            "seed": ["--seed"], "out_estimator": ["--out-estimator"],
            "out_report": ["--out-report"],
        },
        "predict": {
            "config": ["--config"], "estimator": ["--estimator"], "queries": ["--queries"],
            "out": ["--out"], "seed": ["--seed"],
        },
        "eval": {
            "config": ["--config"], "predictions": ["--predictions"], "truth": ["--truth"],
            "metric": ["--metric"], "seed": ["--seed"],
        },
    }
    keys = {
        "simulate": cli._SIMULATE_DEFAULTS,
        "personalize": cli._PERSONALIZE_DEFAULTS,
        "predict": cli._PREDICT_DEFAULTS,
        "eval": cli._EVAL_DEFAULTS,
    }
    assert {name: sorted(defaults) for name, defaults in keys.items()} == {
        "simulate": [
            "bandwidth", "c1", "full_bandwidth_set", "methods", "n", "n_ptr", "n_test",
            "out_dir", "pilot_fraction", "prefix", "repetitions", "scenario", "seed", "split",
        ],
        "personalize": [
            "bandwidth", "c1", "domain", "full_bandwidth_set", "h_sigma", "model", "n",
            "out_estimator", "out_report", "pilot_fraction", "pilot_size", "seed",
            "small_domain", "source", "split", "synthetic_cap",
        ],
        "predict": ["estimator", "out", "queries", "seed"],
        "eval": ["metric", "predictions", "seed", "truth"],
    }
    assert [f.name for f in dataclasses.fields(FitConfig)] == [
        "c1", "pilot_fraction", "split", "bandwidth", "full_bandwidth_set", "h_sigma",
        "thetas", "synthetic_cap",
    ]
    assert list(inspect.signature(plug_in_density).parameters) == [
        "variance_field", "quadrature_points_per_dim", "safety",
    ]
    assert list(inspect.signature(fit_density_ratio).parameters) == [
        "class0_x", "class1_x", "max_iter",
    ]


def test_public_names_are_pinned():
    # the submodules count too; this module imports fsp.cli
    assert sorted(n for n in dir(fsp) if not n.startswith("_")) == [
        "BernoulliNoise", "BlackBoxModel", "BudgetError", "ConfigError", "DataError", "Domain",
        "DomainError", "EnvelopeError", "ExperimentResult", "ExpressionModel", "ExternalOracle",
        "ExternalProcessModel", "FitConfig", "FitResult", "FunctionModel", "GaussianNoise",
        "HolderParams", "KernelSmoothModel", "LogisticFit", "PersonalizedEstimator", "PoolOracle",
        "QueryError", "RetrievalResult", "SampleSet", "SamplingDensity", "Scenario",
        "SeparationError", "SmoothedView", "SyntheticOracle", "TableModel", "ThetaGrid",
        "VarianceField", "adaptation", "blackbox", "build_grid", "check_local_smooth", "cli",
        "core", "derive_seed", "estimator", "fit_density_ratio", "fit_personalized",
        "fit_personalized_pool", "fit_personalized_small_domain", "fit_single_task", "load_csv",
        "local_smooth", "mce", "model_from_spec", "mse", "pilot_bandwidth", "plug_in_density",
        "rate_slope_experiment", "rejection_sample", "retrieve_budgeted", "retrieve_from_pool",
        "retrieve_uniform_small_domain", "rng_stream", "run_experiment", "sampling",
        "scenario_adversarial", "scenario_classification", "scenario_regression", "select_theta",
        "select_theta_h", "simulation", "single_task_estimator", "smoothing", "uniform_density",
    ]


def _hold_backends(monkeypatch):
    """Every backend the CLI builds, held so that garbage collection cannot close it."""
    built = []
    build = cli.model_from_spec
    monkeypatch.setattr(cli, "model_from_spec", lambda spec: built.append(build(spec)) or built[-1])
    return built


def test_cli_closes_the_processes_it_starts(tmp_path, monkeypatch):
    built = _hold_backends(monkeypatch)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_MODEL)
    pids = tmp_path / "pids.log"
    cmd = f"{sys.executable} {stub} {tmp_path / 'rows.log'} {pids}"
    config = _personalize_config(
        tmp_path,
        source={"kind": "external", "cmd": cmd},
        model={"kind": "external", "cmd": cmd},
    )
    queries = tmp_path / "q.csv"
    queries.write_text("x1,x2\n0.5,0.5\n")
    try:
        assert main(["personalize", "--config", str(config)]) == 0
        assert main(["predict", "--estimator", str(tmp_path / "e.json"),
                     "--queries", str(queries), "--out", str(tmp_path / "p.csv")]) == 0
        started = [int(pid) for pid in pids.read_text().split()]
        assert len(started) == 3  # label source and model, then the model for predict
        for pid in started:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    finally:
        for model in built:
            model.close()


def test_a_pool_csv_missing_a_column_exits_2_and_stops_the_model_child(tmp_path, monkeypatch, capsys):
    spawned = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spawned.append(self)

    monkeypatch.setattr(blackbox.subprocess, "Popen", Recorded)
    built = _hold_backends(monkeypatch)
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_MODEL)
    try:
        rc = main([
            "personalize", "-n", "60", "--pool-csv", str(pool), "--covariates", "x1,x3",
            "--model-cmd", f"{sys.executable} {stub}", "--out-estimator", str(tmp_path / "e.json"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        assert "x3" in capsys.readouterr().err.strip().splitlines()[-1]
        # the child starts up while the pool is read, and the failed read stops it
        assert len(spawned) == 1
        assert spawned[0].poll() is not None
    finally:
        for model in built:
            model.close()


def test_duplicate_pool_covariates_exit_2_before_a_model_child_starts(tmp_path, monkeypatch, capsys):
    # the child was spawned first, and the pool read then refused the names
    spawned = _record_spawns(monkeypatch)
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_MODEL)
    rc = main([
        "personalize", "-n", "60", "--pool-csv", str(pool), "--covariates", "x1,x1",
        "--model-cmd", f"{sys.executable} {stub}", "--out-estimator", str(tmp_path / "e.json"),
        "--out-report", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    assert _one_error(capsys) == (
        "error: covariates must be a list of one or more distinct column names, got ['x1', 'x1']"
    )
    assert spawned == []


def test_a_wrong_handshake_exits_1_before_the_fit(tmp_path, monkeypatch, capsys):
    fits = []
    monkeypatch.setattr(cli, "fit_personalized_pool", lambda *args, **kwargs: fits.append(args))
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool)
    stub = tmp_path / "stub.py"
    stub.write_text("import sys\nsys.stdin.readline()\nprint('READY', flush=True)\nsys.stdin.read()\n")
    rc = main([
        "personalize", "-n", "60", "--pool-csv", str(pool), "--covariates", "x1,x2",
        "--model-cmd", f"{sys.executable} {stub}", "--out-estimator", str(tmp_path / "e.json"),
        "--out-report", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "handshake failed" in capsys.readouterr().err.strip().splitlines()[-1]
    assert fits == []
    assert not (tmp_path / "e.json").exists() and not (tmp_path / "r.json").exists()


def test_an_expression_outside_its_domain_prints_no_numpy_warning(tmp_path):
    noise = {"kind": "gaussian", "sigma": "sqrt(x1 - 0.5)"}  # NaN on half the domain
    config = _personalize_config(tmp_path, source={"kind": "synthetic", "f_star": "x1", "noise": noise})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "fsp.cli", "personalize", "--config", str(config)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr.strip().splitlines()[-1] == "error: sigma(x) must be finite and nonnegative"


@pytest.mark.parametrize("x_scale, y_scale, h_sigma, cause", [
    (1e160, 1.0, None, "the box's volume overflows float64"),
    (1.0, 1e160, None, "the pilot labels' moments overflow float64"),
    (1.0, 1.0, 1e300, "overflow float64 at h_sigma = 1e+300; rescale the labels or lower h_sigma"),
], ids=["coordinates", "labels", "h-sigma"])
def test_a_pool_that_overflows_float64_exits_2_naming_the_cause(
    tmp_path, capsys, x_scale, y_scale, h_sigma, cause
):
    # the first two once ran the sampler until its acceptance rate collapsed, after numpy warnings
    rng = np.random.default_rng(0)
    xs = rng.random((400, 2))
    ys = xs[:, 0] + (0.1 + 0.9 * xs[:, 0]) * rng.standard_normal(400)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({} if h_sigma is None else {"h_sigma": h_sigma}))
    pool = tmp_path / "pool.csv"
    with open(pool, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,y\n")
        fh.writelines(f"{a!r},{b!r},{c!r}\n" for (a, b), c in zip((x_scale * xs).tolist(),
                                                                    (y_scale * ys).tolist()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([
            "personalize", "-n", "120", "--pool-csv", str(pool), "--covariates", "x1,x2",
            "--bandwidth", "rule", "--model-expr", "x1", "--config", str(config),
            "--out-estimator", str(tmp_path / "e.json"), "--out-report", str(tmp_path / "r.json"),
        ])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert rc == 2
    assert len(errors) == 1 and cause in errors[0]
    assert caught == [] and "RuntimeWarning" not in err


def test_a_fit_with_no_finite_validation_score_exits_2_without_a_warning(tmp_path, capsys):
    # every (theta, h) once scored inf after an overflow warning, and the first pair won
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool, n=300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([
            "personalize", "-n", "100", "--pool-csv", str(pool), "--covariates", "x1,x2",
            "--model-expr", "x1*1e200", "--out-estimator", str(tmp_path / "e.json"),
            "--out-report", str(tmp_path / "r.json"),
        ])
    assert rc == 2 and caught == []
    assert "scores inf on validation, not a finite number" in _one_error(capsys)
    assert not (tmp_path / "e.json").exists()


def _record_spawns(monkeypatch):
    """Every child process the backends spawn, in order."""
    spawned = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spawned.append(self)

    monkeypatch.setattr(blackbox.subprocess, "Popen", Recorded)
    return spawned


def test_a_wrong_handshake_on_a_synthetic_source_exits_1_and_stops_the_child(
    tmp_path, monkeypatch, capsys
):
    spawned = _record_spawns(monkeypatch)
    built = _hold_backends(monkeypatch)
    stub = tmp_path / "stub.py"
    stub.write_text("import sys\nsys.stdin.readline()\nprint('READY', flush=True)\nsys.stdin.read()\n")
    config = _personalize_config(tmp_path, model={"kind": "external", "cmd": f"{sys.executable} {stub}"})
    try:
        assert main(["personalize", "--config", str(config)]) == 1
        assert "handshake failed" in capsys.readouterr().err.strip().splitlines()[-1]
        assert len(spawned) == 1
        assert spawned[0].poll() is not None
    finally:
        for model in built:
            model.close()


def test_predict_refuses_an_out_that_overwrites_the_table_csv_its_estimator_reads(
    tmp_path, monkeypatch, capsys
):
    # it once exited 0 and wrote the predictions over the table it had just read
    monkeypatch.chdir(tmp_path)
    assert main(["personalize", "--config", str(_personalize_config(tmp_path))]) == 0
    _make_pool_csv(tmp_path / "t.csv")
    payload = json.loads((tmp_path / "e.json").read_text())
    payload["model"] = {"kind": "table", "csv": "t.csv", "covariates": ["x1", "x2"], "value": "y"}
    (tmp_path / "e.json").write_text(json.dumps(payload))
    (tmp_path / "q.csv").write_text("x1,x2\n0.5,0.5\n")
    argv = ["predict", "--estimator", "e.json", "--queries", "q.csv", "--out"]
    assert main(argv + ["p.csv"]) == 0  # the estimator file loads
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    _forbid_work(monkeypatch)
    monkeypatch.setattr(cli, "load_csv", lambda *args, **kwargs: pytest.fail("a csv was read"))
    capsys.readouterr()
    assert main(argv + ["t.csv"]) == 2
    assert _one_error(capsys) == "error: out would overwrite the model csv it reads: t.csv"
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_a_failed_estimator_load_leaves_its_model_child_to_the_callers_stack(tmp_path, monkeypatch):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_MODEL)
    config = _personalize_config(tmp_path, model={"kind": "external", "cmd": f"{sys.executable} {stub}"})
    assert main(["personalize", "--config", str(config)]) == 0
    est_path = tmp_path / "e.json"
    payload = json.loads(est_path.read_text())
    payload["train_x"][0][0] = 2.0  # outside the domain
    est_path.write_text(json.dumps(payload))
    spawned = _record_spawns(monkeypatch)
    with contextlib.ExitStack() as backends:
        with pytest.raises(fsp.ConfigError, match=f"^bad estimator file {est_path}: "):
            load_estimator(est_path, backends)
        assert len(spawned) == 1 and spawned[0].poll() is None  # the caller's stack holds it
    assert spawned[0].poll() is not None


def test_a_bad_estimator_file_with_an_external_model_exits_2_and_stops_the_child(
    tmp_path, monkeypatch, capsys
):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_MODEL)
    config = _personalize_config(tmp_path, model={"kind": "external", "cmd": f"{sys.executable} {stub}"})
    assert main(["personalize", "--config", str(config)]) == 0
    est_path = tmp_path / "e.json"
    payload = json.loads(est_path.read_text())
    payload["train_x"][0][0] = 2.0
    est_path.write_text(json.dumps(payload))
    queries = tmp_path / "q.csv"
    queries.write_text("x1,x2\n0.5,0.5\n")
    spawned = _record_spawns(monkeypatch)
    built = _hold_backends(monkeypatch)
    capsys.readouterr()
    try:
        rc = main(["predict", "--estimator", str(est_path), "--queries", str(queries),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert f"bad estimator file {est_path}" in capsys.readouterr().err.strip().splitlines()[-1]
        assert len(spawned) == 1
        assert spawned[0].poll() is not None
    finally:
        for model in built:
            model.close()


def test_an_external_label_source_spawns_before_the_model_handshake(tmp_path, monkeypatch):
    spawned = _record_spawns(monkeypatch)
    built = _hold_backends(monkeypatch)
    at_handshake = []
    exchange = blackbox.ExternalProcessModel._exchange

    def recorded(self, text, n_lines, timeout, stage):
        if stage == "handshake":
            at_handshake.append(len(spawned))
        return exchange(self, text, n_lines, timeout, stage)

    monkeypatch.setattr(blackbox.ExternalProcessModel, "_exchange", recorded)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_MODEL)
    cmd = f"{sys.executable} {stub}"
    config = _personalize_config(
        tmp_path, source={"kind": "external", "cmd": cmd}, model={"kind": "external", "cmd": cmd}
    )
    try:
        assert main(["personalize", "--config", str(config)]) == 0
        assert at_handshake == [2, 2]  # both children run before either handshake
    finally:
        for model in built:
            model.close()


@pytest.mark.parametrize("covariates", [
    ["x1"], ["x1", "x2", "x3"], "x1x2", [1, 2], ["x1", "x1"],
], ids=["too-few", "too-many", "string", "numbers", "duplicate"])
def test_an_estimator_file_with_bad_covariates_exits_2_and_names_it(tmp_path, capsys, covariates):
    assert main(["personalize", "--config", str(_personalize_config(tmp_path))]) == 0
    est_path = tmp_path / "e.json"
    payload = json.loads(est_path.read_text())
    payload["covariates"] = covariates
    est_path.write_text(json.dumps(payload))
    queries = tmp_path / "q.csv"
    queries.write_text("x1,x2,x3\n0.5,0.5,0.5\n")
    capsys.readouterr()
    rc = main(["predict", "--estimator", str(est_path), "--queries", str(queries),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: bad estimator file {est_path}: covariates must be a list of 2 distinct "
        f"column names, got {covariates!r}"
    )
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("covariates", [["x1"], ["x1", "x2", "x3"]], ids=["too-few", "too-many"])
def test_a_table_model_of_another_width_exits_2_before_the_pool_is_read(
    tmp_path, capsys, monkeypatch, covariates
):
    pool = tmp_path / "pool.csv"
    _make_pool_csv(pool)
    table = tmp_path / "table.csv"
    table.write_text("x1,x2,x3,f\n0.1,0.2,0.3,1.0\n0.7,0.8,0.9,2.0\n")
    config = _personalize_config(
        tmp_path, model={"kind": "table", "csv": str(table), "covariates": covariates, "value": "f"}
    )
    read = []
    load_csv = cli.load_csv

    def recorded(path, *args, **kwargs):
        read.append(str(path))
        return load_csv(path, *args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", recorded)
    capsys.readouterr()
    rc = main(["personalize", "--config", str(config), "--pool-csv", str(pool), "--covariates", "x1,x2"])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: table model covariates must be a list of 2 distinct column names, got {covariates!r}"
    )
    assert read == []  # neither the table nor the pool was read
    assert not (tmp_path / "e.json").exists()


def test_a_config_table_model_with_a_non_finite_point_exits_2_before_any_label(
    tmp_path, capsys, monkeypatch
):
    # unchecked, the NaN point won every nearest-neighbour argmin: exit 0, f_train 3.0 on every row
    labeled, label = [], SyntheticOracle.label

    def recorded(self, xs, rng):
        labeled.append(len(xs))
        return label(self, xs, rng)

    monkeypatch.setattr(SyntheticOracle, "label", recorded)
    model = {"kind": "table", "points": [[0, 0], [1, 1], ["nan", 0.5]], "values": [1, 2, 3]}
    rc = main(["personalize", "--config", str(_personalize_config(tmp_path, model=model))])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert rc == 2
    assert errors == ["error: table model must be finite; row 2 is [nan, 0.5] with value 3.0"]
    assert labeled == []
    assert not (tmp_path / "e.json").exists()


def test_an_estimator_file_whose_table_has_another_width_exits_2(tmp_path, capsys):
    assert main(["personalize", "--config", str(_personalize_config(tmp_path))]) == 0
    est_path = tmp_path / "e.json"
    payload = json.loads(est_path.read_text())
    payload["model"] = {"kind": "table", "points": [[0.1], [0.9]], "values": [1.0, 2.0]}
    est_path.write_text(json.dumps(payload))
    queries = tmp_path / "q.csv"
    queries.write_text("x1,x2\n0.5,0.5\n")
    capsys.readouterr()
    rc = main(["predict", "--estimator", str(est_path), "--queries", str(queries),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: bad estimator file {est_path}: table model points have 1 columns, not 2"
    )
    assert not (tmp_path / "p.csv").exists()
