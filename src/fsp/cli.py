"""Command-line surface: simulate, personalize, predict, eval.

Every command echoes its fully resolved configuration (defaults filled) to
stderr before running and embeds it in the JSON run report, so a report
can be reproduced from its own contents.  Exit codes: 0 success, 1
runtime/backend failure, 2 configuration or usage error.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import shlex
import sys
import time

import numpy as np

from . import __version__
from .adaptation import (
    FitConfig,
    fit_personalized,
    fit_personalized_pool,
    fit_personalized_small_domain,
)
from .blackbox import (
    BernoulliNoise,
    ExpressionModel,
    ExternalOracle,
    GaussianNoise,
    SyntheticOracle,
    model_from_spec,
)
from .core import (
    ConfigError, DataError, Domain, DomainError, column_names, covariate_names, json_scalar, load_column,
    load_csv, read_input, required,
)
from .estimator import PersonalizedEstimator
from .sampling import SPLITS
from .simulation import (
    METHODS,
    METRICS,
    run_experiment,
    scenario_adversarial,
    scenario_classification,
    scenario_regression,
)

SCENARIOS = {
    "regression": scenario_regression,
    "classification": scenario_classification,
    "adversarial": scenario_adversarial,
}


def _fit_defaults(*keys):
    """FitConfig's defaults for the fit keys a command accepts."""
    return {f.name: f.default for f in dataclasses.fields(FitConfig) if f.name in keys}


_SIMULATE_DEFAULTS = {
    "scenario": None,
    "n": 300,
    "n_ptr": 1000,
    "repetitions": 100,
    "n_test": 500,
    "methods": ["single-task", "fsp", "pretrained"],
    "seed": 0,
    "out_dir": ".",
    "prefix": None,
    **_fit_defaults("pilot_fraction", "c1", "split", "bandwidth", "full_bandwidth_set"),
}

_PERSONALIZE_DEFAULTS = {
    "domain": None,
    "n": None,
    "pilot_size": None,
    "source": None,
    "model": None,
    "small_domain": False,
    "seed": 0,
    "out_estimator": "estimator.json",
    "out_report": "personalize_report.json",
    **_fit_defaults(
        "pilot_fraction", "c1", "split", "bandwidth", "full_bandwidth_set", "h_sigma",
        "synthetic_cap",
    ),
}

_PREDICT_DEFAULTS = {"estimator": None, "queries": None, "out": "predictions.csv", "seed": 0}

_EVAL_DEFAULTS = {"predictions": None, "truth": None, "metric": "mse", "seed": 0}


def _read_json(path, what):
    """The file's JSON value, read by read_input; a malformed file is a ConfigError naming `what`."""
    try:
        return json.loads(read_input(path, what).decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _load_config_file(path):
    if path is None:
        return {}
    data = _read_json(path, "config file")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _resolve(defaults, args, **overrides):
    """Merge the config file, then the flags, onto defaults; reject unknown keys.

    A flag sets the key named by its argparse dest; `overrides` replace the
    flags whose values need converting first.  A None value sets nothing.
    """
    file_config = _load_config_file(args.config)
    unknown = set(file_config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    resolved = dict(defaults)
    resolved.update(file_config)
    flags = {key: value for key, value in vars(args).items() if key in defaults}
    for key, value in {**flags, **overrides}.items():
        if value is not None:
            resolved[key] = value
    env_seed = os.environ.get("FSP_SEED")
    if args.seed is None and env_seed is not None:
        try:
            resolved["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"FSP_SEED must be an integer, got {env_seed!r}") from None
    _check_types(resolved, defaults)
    _check_outputs([(k, v) for k, v in resolved.items() if k in ("out_estimator", "out_report", "out")],
                   _inputs(resolved, args.config))
    return resolved


def _inputs(resolved, config=None):
    """(key, path) of each file a command reads: its `config` file, and the pool's or
    table model's csv, the estimator and the queries that `resolved` names."""
    paths = [("config", config)] + [(key, resolved.get(key)) for key in ("estimator", "queries")]
    paths += [(f"{role} csv", spec.get("csv")) for role in ("source", "model")
              if isinstance(spec := resolved.get(role), dict)]
    return [(key, path) for key, path in paths if isinstance(path, str)]


_POSITIVE_KEYS = ("n", "n_ptr", "repetitions", "n_test")
_PATH_KEYS = (
    "out_dir", "prefix", "out_estimator", "out_report", "estimator", "queries", "out",
    "predictions", "truth",
)


def _check_types(resolved, defaults):
    """Reject a command key of the wrong type or range; a key whose default is None
    may stay None."""
    for key, value in resolved.items():
        if value is None and defaults[key] is None:
            continue
        if key in _POSITIVE_KEYS:
            json_scalar(value, int, key, "a positive integer", lambda v: v >= 1)
        if key in ("seed", "pilot_size"):
            json_scalar(value, int, key, "an integer")
        if key in _PATH_KEYS and not isinstance(value, str):
            raise ConfigError(f"{key} must be a path string, got {value!r}")
        if key == "small_domain":
            json_scalar(value, bool, key, "true or false")
        if key == "methods":
            if not (isinstance(value, list) and all(isinstance(m, str) for m in value)):
                raise ConfigError(f"methods must be a list of names, got {value!r}")
            if not value:
                raise ConfigError("methods must name at least one method, got []")
            for name in value:
                if name not in METHODS:
                    raise ConfigError(f"methods must be among {', '.join(METHODS)}, got {name!r}")


def _check_outputs(outputs, inputs):
    """Reject a (key, path) output that names a directory, lies in no existing
    directory, or shares its path with another output or one of the (key, path)
    inputs, before any work."""
    readers = {os.path.realpath(path): key for key, path in inputs}
    owners = {}  # the real path of each output checked: its key
    for key, path in outputs:
        if not os.path.basename(path) or os.path.isdir(path):
            raise ConfigError(f"{key} must name a file, not a directory: {path}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"{key} is not in an existing directory: {path}")
        real = os.path.realpath(path)
        if real in readers:
            raise ConfigError(f"{key} would overwrite the {readers[real]} it reads: {path}")
        other = owners.setdefault(real, key)
        if other != key:
            raise ConfigError(f"{key} is the path of {other} too: {path}")


def _echo(resolved):
    print("resolved-config: " + json.dumps(resolved, sort_keys=True), file=sys.stderr)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:  # None is written "", a float its repr
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _strict(value):
    """`value` with every non-finite float replaced by the string "inf", "-inf" or "nan"."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _write_json(path, payload):
    """Strict JSON: non-finite numbers are written as strings."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_report(path, command, resolved, started, outputs, **fields):
    """The run report: the envelope every command writes, plus the command's own fields."""
    _write_json(path, {
        "artifact_version": __version__,
        "command": command,
        "resolved_config": resolved,
        "outputs": outputs,
        **fields,
        "wall_clock_sec": time.time() - started,
    })


def _fit_config(resolved):
    """The checked FitConfig of the fit keys in `resolved`."""
    fit_keys = (f.name for f in dataclasses.fields(FitConfig))
    return FitConfig(**{key: resolved[key] for key in fit_keys if key in resolved}).validate()


def cmd_simulate(args):
    resolved = _resolve(
        _SIMULATE_DEFAULTS, args, methods=args.methods.split(",") if args.methods else None
    )
    if resolved["scenario"] not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {resolved['scenario']!r}; valid names: "
            + ", ".join(sorted(SCENARIOS))
        )
    _echo(resolved)
    started = time.time()
    config = _fit_config(resolved)
    scenario = SCENARIOS[resolved["scenario"]](n_test=resolved["n_test"])
    out_dir = resolved["out_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir cannot be made a directory: {out_dir}: {exc.strerror}") from None
    stem = os.path.join(out_dir, resolved["prefix"] or resolved["scenario"])
    runs_path, summary_path, report_path = paths = [stem + "_runs.csv", stem + "_summary.csv",
                                                    stem + "_report.json"]
    _check_outputs([("prefix", path) for path in paths], _inputs(resolved, args.config))
    result = run_experiment(
        scenario,
        methods=tuple(resolved["methods"]),
        n=resolved["n"],
        n_ptr=resolved["n_ptr"],
        repetitions=resolved["repetitions"],
        seed=resolved["seed"],
        config=config,
    )
    _write_csv(
        runs_path,
        ["scenario", "method", "rep", "metric", "value", "theta1", "theta2", "bandwidth"],
        [
            [result.scenario, r.method, r.rep, result.metric, r.value, r.theta1, r.theta2, r.bandwidth]
            for r in result.rows
        ],
    )
    summary = result.summary()  # its statistics, in their order, are the columns after metric
    _write_csv(summary_path, ["method", "metric", *next(iter(summary.values()))],
               [[m, result.metric, *s.values()] for m, s in summary.items()])
    _write_report(report_path, "simulate", resolved, started, paths[:2], summary=summary)
    return 0


def _parse_domain(spec):
    if spec is None:
        return None
    if isinstance(spec, str):
        with contextlib.suppress(json.JSONDecodeError):
            spec = json.loads(spec)
    # not JSON, or an object, whose keys unpacking would take for the bounds
    if isinstance(spec, (str, dict)):
        raise ConfigError("domain must be JSON like [[lo1, lo2], [hi1, hi2]]")
    try:
        lo, hi = spec
        return Domain(lo, hi)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain: {exc}") from None


def _build_model(spec, dim, backends):
    """Rewrite a user model spec into its serialized form, build the backend, hand it
    to the ExitStack `backends`, which closes it on every exit path, and launch it.

    The rewrite sets `dim`, splits an external `cmd` string into `argv`, and
    reads a table's `csv` into `points` and `values`, so a serialized spec
    (as in an estimator file) builds unchanged.  A table's `covariates`, or a
    stored sample's `points`, of another width than `dim` is a ConfigError.  An external child starts up
    while the caller reads its data; the caller's start() (or the backend's
    first query) completes the handshake, before any label or query.
    """
    kind = required(spec, "kind", "model")
    spec = dict(spec, dim=dim)
    if kind == "external" and "argv" not in spec:
        cmd = required(spec, "cmd", "external model")
        spec["argv"] = shlex.split(cmd) if isinstance(cmd, str) else cmd
    if "csv" in spec:
        covariates = required(spec, "covariates", "table model")
        table = load_csv(spec["csv"], column_names(covariates, "table model covariates", dim),
                         response=required(spec, "value", "table model"))
        spec["points"], spec["values"] = table.x, table.y
    model = backends.push(model_from_spec(spec))
    points = getattr(model, "points", None)  # a table or kernel-smooth model's stored sample
    if points is not None and points.shape[1] != dim:
        raise ConfigError(f"{kind} model points have {points.shape[1]} columns, not {dim}")
    model.launch()
    return model


def _build_noise(spec, dim):
    if spec is None:
        return GaussianNoise(1.0)
    if not isinstance(spec, dict):
        raise ConfigError(f"noise must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind", "gaussian")
    if kind == "gaussian":
        return GaussianNoise(spec.get("sigma", 1.0), dim=dim)
    if kind == "bernoulli":
        return BernoulliNoise()
    raise ConfigError(f"unknown noise kind {kind!r}")


def cmd_personalize(args):
    overrides = {}
    if args.pool_csv:
        overrides["source"] = {
            "kind": "pool",
            "csv": args.pool_csv,
            "covariates": args.covariates.split(",") if args.covariates else None,
            "response": args.response,
        }
    if args.model_expr:
        overrides["model"] = {"kind": "expression", "expr": args.model_expr}
    if args.model_cmd:
        overrides["model"] = {"kind": "external", "cmd": args.model_cmd}
    resolved = _resolve(_PERSONALIZE_DEFAULTS, args, **overrides)
    if resolved["n"] is None:
        raise ConfigError("a labeling budget n is required")
    if resolved["source"] is None or resolved["model"] is None:
        raise ConfigError("both a label source and a model backend are required")
    _echo(resolved)
    with contextlib.ExitStack() as backends:
        return _personalize(resolved, backends)


def _personalize(resolved, backends):
    """Fit and write the estimator and its report; `backends` closes every backend built.
    The source branches only build, so every child is spawned before the one start();
    an external label source completes its handshake at its first label."""
    started = time.time()
    n, seed = resolved["n"], resolved["seed"]
    source = resolved["source"]
    domain = _parse_domain(resolved["domain"])
    config = _fit_config(resolved)

    kind = required(source, "kind", "source")
    if kind == "pool":
        covariates = column_names(source.get("covariates"), "covariates")
        model = _build_model(resolved["model"], len(covariates), backends)
        ss = load_csv(
            required(source, "csv", "pool source"),
            covariates,
            response=source.get("response") or "y",
        )
        fitter, args = fit_personalized_pool, (model, domain, n, resolved["pilot_size"], ss.x, ss.y)
    elif kind in ("synthetic", "external"):
        if domain is None:
            raise ConfigError(f"{kind} sources require an explicit domain")
        covariates = covariate_names(domain.dim)
        model = _build_model(resolved["model"], domain.dim, backends)
        if kind == "synthetic":
            truth = ExpressionModel(required(source, "f_star", "synthetic source"), domain.dim)
            noise = _build_noise(source.get("noise"), domain.dim)
            oracle = SyntheticOracle(truth.predict_batch, noise, domain)
        else:
            oracle = ExternalOracle(_build_model(source, domain.dim, backends))
        fitter = fit_personalized_small_domain if resolved["small_domain"] else fit_personalized
        args = (model, domain, n, oracle)
    else:
        raise ConfigError(f"unknown source kind {kind!r}")

    model.start()
    fit = fitter(*args, config=config, seed=seed)
    warnings = []
    model_spec = fit.estimator.model.spec()
    if model_spec["kind"] == "external":
        warnings.append(
            "model backend is an external process; reproducing predictions "
            "depends on that program behaving identically"
        )
    _write_json(resolved["out_estimator"], {
        "format": "fsp-estimator",
        "version": 1,
        "artifact_version": __version__,
        "domain": fit.estimator.domain.to_dict(),
        "covariates": covariates,
        "theta": {"theta1": fit.theta.theta1, "theta2": fit.theta.theta2},
        "bandwidth": fit.bandwidth,
        "train_x": fit.estimator.train_x.tolist(),
        "train_y": fit.estimator.train_y.tolist(),
        "f_train": fit.estimator.f_train.tolist(),
        "model": model_spec,
        "warnings": warnings,
    })
    _write_report(resolved["out_report"], "personalize", resolved, started,
                  [resolved["out_estimator"]], fit=fit.to_dict(), warnings=warnings)
    return 0


def load_estimator(path, backends, outputs=()):
    """Rebuild a PersonalizedEstimator (and covariate names) from its JSON file; its model
    goes to the ExitStack `backends`, and a (key, path) of `outputs` that is its csv is refused."""
    payload = _read_json(path, "estimator file")
    if not isinstance(payload, dict) or payload.get("format") != "fsp-estimator":
        raise ConfigError("not an estimator file (missing format marker)")
    box = required(payload, "domain", "estimator file")
    lo, hi = (required(box, key, "estimator domain") for key in ("lo", "hi"))
    train_x, train_y = (required(payload, key, "estimator file") for key in ("train_x", "train_y"))
    pair = required(payload, "theta", "estimator file")
    theta = [required(pair, key, "estimator theta") for key in ("theta1", "theta2")]
    bandwidth = required(payload, "bandwidth", "estimator file")
    spec = required(payload, "model", "estimator file")
    _check_outputs(outputs, _inputs({"model": spec}))
    try:
        domain = Domain(lo, hi)
        covariates = column_names(payload.get("covariates", covariate_names(domain.dim)), "covariates",
                                  domain.dim)
        model = _build_model(spec, domain.dim, backends)
        # files written before f_train was stored query the model at the training points
        est = PersonalizedEstimator(
            train_x, train_y, model, theta, bandwidth, domain, f_train=payload.get("f_train")
        )
    except (TypeError, ValueError) as exc:  # a backend's QueryError is not the file's fault
        raise ConfigError(f"bad estimator file {path}: {exc}") from None
    return est, covariates


def cmd_predict(args):
    resolved = _resolve(_PREDICT_DEFAULTS, args)
    if not resolved["estimator"] or not resolved["queries"]:
        raise ConfigError("predict needs --estimator and --queries")
    _echo(resolved)
    with contextlib.ExitStack() as backends:
        est, covariates = load_estimator(resolved["estimator"], backends, [("out", resolved["out"])])
        xs = load_csv(resolved["queries"], covariates, allow_empty=True)
        est.model.start()
        ok = est.domain.contains(xs)
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            raise DomainError(
                f"query row {bad + 1} of {resolved['queries']} lies outside the "
                f"estimator's domain: {xs[bad].tolist()}"
            )
        preds = est.predict_batch(xs)
    _write_csv(resolved["out"], ["prediction"], [[float(p)] for p in preds])
    return 0


def cmd_eval(args):
    resolved = _resolve(_EVAL_DEFAULTS, args)
    if not resolved["predictions"] or not resolved["truth"]:
        raise ConfigError("eval needs --predictions and --truth")
    metric = resolved["metric"]
    if not (isinstance(metric, str) and metric in METRICS):  # a config value may be unhashable
        raise ConfigError(f"unknown metric {metric!r}; valid: {', '.join(METRICS)}")
    _echo(resolved)
    preds = load_column(resolved["predictions"], ("prediction", "pred", "y"))
    truth = load_column(resolved["truth"], ("y", "truth", "label"))
    if len(preds) != len(truth):
        raise ConfigError(
            f"length mismatch: {len(preds)} predictions vs {len(truth)} truth rows"
        )
    print(f"{METRICS[metric](truth, preds):.6g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fsp",
        description="Personalize a black-box predictor under a labeling budget.",
    )
    parser.add_argument("--version", action="version", version=f"fsp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # every command's flags
    shared.add_argument("--config")
    shared.add_argument("--seed", type=int)
    fit = argparse.ArgumentParser(add_help=False)  # the fit flags of simulate and personalize
    fit.add_argument("--split", choices=SPLITS)
    fit.add_argument("--bandwidth")

    sim = sub.add_parser(
        "simulate", parents=[shared, fit], help="run a shipped scenario and write CSV results"
    )
    sim.add_argument("--scenario")
    sim.add_argument("-n", type=int, dest="n")
    sim.add_argument("--n-ptr", type=int, dest="n_ptr")
    sim.add_argument("--repetitions", "--reps", type=int, dest="repetitions")
    sim.add_argument("--n-test", type=int, dest="n_test")
    sim.add_argument("--methods")
    sim.add_argument("--out-dir", dest="out_dir")
    sim.add_argument("--prefix")
    sim.set_defaults(func=cmd_simulate)

    per = sub.add_parser("personalize", parents=[shared, fit], help="fit a personalized estimator")
    per.add_argument("-n", "--budget", type=int, dest="n")
    per.add_argument("--pilot-size", type=int, dest="pilot_size")
    per.add_argument("--pool-csv", dest="pool_csv")
    per.add_argument("--covariates")
    per.add_argument("--response")
    per.add_argument("--model-expr", dest="model_expr")
    per.add_argument("--model-cmd", dest="model_cmd")
    per.add_argument("--domain")
    per.add_argument("--small-domain", action="store_true", dest="small_domain", default=None)
    per.add_argument("--out-estimator", dest="out_estimator")
    per.add_argument("--out-report", dest="out_report")
    per.set_defaults(func=cmd_personalize)

    pre = sub.add_parser("predict", parents=[shared], help="evaluate a saved estimator on query points")
    pre.add_argument("--estimator")
    pre.add_argument("--queries")
    pre.add_argument("--out")
    pre.set_defaults(func=cmd_predict)

    ev = sub.add_parser("eval", parents=[shared], help="score prediction and truth files")
    ev.add_argument("--predictions")
    ev.add_argument("--truth")
    ev.add_argument("--metric", choices=METRICS)
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # exit 2 for a configuration or data error, 1 for a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, DataError)) else 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
