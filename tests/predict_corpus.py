"""A seeded corpus of `fsp predict` and `fsp eval` cases, run in-process through
`fsp.cli.main` and judged as the pool cases are (`pool_corpus.check_run`).

A predict case writes an estimator file, a valid one or an edit of it, and a
query file, and runs `fsp predict`; an eval case writes a prediction and a
truth file and runs `fsp eval`.  A case passes if it either exits 0 with its
outputs valid (predictions that are finite numbers), or exits 1 or 2 with
exactly one `error:` line on stderr; in both cases with no traceback, no
warning and its input files unchanged.

`NAMED` lists hand-edited estimator files (ragged or non-numeric samples,
short label columns, bandwidths, thetas and boxes of the wrong type, bad
covariates, an unknown model, labels whose windows overflow, an integer
beyond float64) and awkward
eval files; a case with a `refusal` must exit 2 with an error line that holds
it.  `generated(seed, count)` drops fields of the valid estimator file
and swaps values for ones of other types, in plain numpy.  The tier-1 test
`tests/test_predict_corpus.py` runs the named cases and a few generated ones.
The manual mode runs more and prints a one-line repro for each failing case:

    PYTHONPATH=src python tests/predict_corpus.py --cases 200 --seed 7
    PYTHONPATH=src python tests/predict_corpus.py --seed 7 --case 13   # rerun one

It exits 1 if any case fails.
"""

import copy
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from fsp import __version__
from pool_corpus import check_run, run

QUERIES = "x1,x2\n0.5,0.5\n0.1,0.9\n"


@dataclass
class Case:
    """One `fsp` run on the files `files` (name: text) written side by side; a name of
    `files` in argv stands for its path, and so does out.csv, the predictions."""

    name: str
    files: dict
    argv: list
    refusal: str | None = None  # if given, the run must exit 2 with an error line holding it


def _valid_estimator():
    rng = np.random.default_rng(0)
    x = rng.random((40, 2))
    return {
        "format": "fsp-estimator", "version": 1, "artifact_version": __version__,
        "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}, "covariates": ["x1", "x2"],
        "theta": {"theta1": 0.5, "theta2": 0.5}, "bandwidth": 0.3, "train_x": x.tolist(),
        "train_y": (x[:, 0] + 0.1 * rng.standard_normal(40)).tolist(), "f_train": x[:, 0].tolist(),
        "model": {"kind": "expression", "expr": "x1", "dim": 2}, "warnings": [],
    }


VALID = _valid_estimator()


def predict_case(name, payload, refusal=None):
    """`fsp predict` on the estimator `payload`, a JSON value, and QUERIES."""
    return Case(name, {"est.json": json.dumps(payload), "q.csv": QUERIES},
                ["predict", "--estimator", "est.json", "--queries", "q.csv", "--out", "out.csv"], refusal)


def _edited(name, edit, refusal=None):
    payload = copy.deepcopy(VALID)
    edit(payload)
    return predict_case(name, payload, refusal)


def _eval_case(name, predictions, truth, metric="mse"):
    return Case(name, {"p.csv": predictions, "t.csv": truth},
                ["eval", "--predictions", "p.csv", "--truth", "t.csv", "--metric", metric])


def _named():
    theta, domain = VALID["theta"], VALID["domain"]
    cases = [predict_case("plain", VALID)] + [_edited(name, edit) for name, edit in [
        ("train-x-ragged", lambda p: p["train_x"][1].append(0.5)),
        ("train-x-strings", lambda p: p["train_x"].__setitem__(0, ["a", "b"])),
        ("train-y-short", lambda p: p["train_y"].pop()),
        ("f-train-short", lambda p: p["f_train"].pop()),
        ("f-train-missing", lambda p: p.pop("f_train")),
        ("bandwidth-bool", lambda p: p.update(bandwidth=True)),
        ("bandwidth-string", lambda p: p.update(bandwidth="0.3")),
        ("bandwidth-negative", lambda p: p.update(bandwidth=-0.3)),
        ("bandwidth-list", lambda p: p.update(bandwidth=[0.3])),
        ("bandwidth-inf", lambda p: p.update(bandwidth="inf")),
        ("theta-bool", lambda p: p.update(theta={**theta, "theta1": True})),
        ("theta-string", lambda p: p.update(theta={**theta, "theta2": "0.5"})),
        ("theta-negative", lambda p: p.update(theta={**theta, "theta1": -0.5})),
        ("theta-list", lambda p: p.update(theta=[0.5, 0.5])),
        ("domain-swapped", lambda p: p.update(domain={"lo": domain["hi"], "hi": domain["lo"]})),
        ("domain-3d", lambda p: p.update(domain={"lo": [0.0] * 3, "hi": [1.0] * 3})),
        ("domain-bools", lambda p: p.update(domain={"lo": [False, False], "hi": [True, True]})),
        ("covariates-duplicated", lambda p: p.update(covariates=["x1", "x1"])),
        ("covariates-short", lambda p: p.update(covariates=["x1"])),
        ("model-kind-unknown", lambda p: p.update(model={"kind": "oracle"})),
        ("training-block-empty", lambda p: p.update(train_x=[], train_y=[], f_train=[])),
        ("training-point-outside", lambda p: p["train_x"].__setitem__(0, [2.0, 0.5])),
        ("labels-1e308", lambda p: p.update(train_y=[1e308] * len(p["train_y"]))),
        ("label-integer-beyond-float64", lambda p: p["train_y"].__setitem__(0, 10**400)),
    ]]
    # a sample given as a list holds real numbers, neither booleans nor numeric strings
    table = {"kind": "table", "points": [[0.5, 0.5], [0.1, 0.9]], "values": [1.0, 2.0]}
    cases += [_edited(name, edit, refusal) for name, edit, refusal in [
        ("train-x-numeric-strings", lambda p: p["train_x"].__setitem__(0, ["0.5", "0.25"]),
         "training samples points must be real numbers, got '0.5'"),
        ("train-y-bool", lambda p: p["train_y"].__setitem__(0, True),
         "training samples values must be real numbers, got True"),
        ("f-train-numeric-string", lambda p: p["f_train"].__setitem__(0, "0.5"),
         "f_train values must be real numbers, got '0.5'"),
        ("table-points-bool", lambda p: p.update(model={**table, "points": [[True, 0.5], [0.1, 0.9]]}),
         "table model points must be real numbers, got True"),
        ("table-values-numeric-string", lambda p: p.update(model={**table, "values": ["1.0", 2.0]}),
         "table model values must be real numbers, got '1.0'"),
    ]]
    cases += [
        predict_case("payload-not-object", [VALID]),
        _eval_case("eval-plain", "prediction\n0.5\n1.5\n", "y\n1.0\n1.0\n"),
        _eval_case("eval-non-finite", "prediction\n0.5\nnan\n", "y\n1.0\ninf\n"),
        _eval_case("eval-two-columns", "a,b\n0.5,1.0\n", "y\n1.0\n"),
        _eval_case("eval-length-mismatch", "prediction\n0.5\n1.5\n", "y\n1.0\n"),
        _eval_case("eval-mce-labels", "prediction\n1\n0\n", "y\n1\n0.5\n", metric="mce"),
    ]
    return cases


NAMED = _named()

# the values a generated case puts in place of a field's: each JSON type, and numbers
# at and beyond float64's limits
_SWAPS = (True, False, None, "abc", "0.5", "inf", "nan", -1.0, 0, 1e-300, 1e308, -1e308, 10**400,
          [], [1.0], [[0.5, 0.5]], {}, {"kind": "table"})


def generated(seed, count):
    """`count` random cases; case i depends on (seed, i) alone."""
    return [generated_case(seed, i) for i in range(count)]


def generated_case(seed, i):
    """One to three edits of the valid estimator file: each drops a field or swaps its
    value, at a path that stops at each depth of the payload with probability 1/2."""
    rng = np.random.default_rng([seed, i])
    payload = copy.deepcopy(VALID)
    edits = []
    for _ in range(int(rng.integers(1, 4))):
        holder, key, path = payload, str(rng.choice(sorted(payload))), []
        while True:
            path.append(key)
            value = holder[key]
            if not (isinstance(value, (dict, list)) and value and rng.random() < 0.5):
                break
            holder, key = value, (str(rng.choice(sorted(value))) if isinstance(value, dict)
                                  else int(rng.integers(len(value))))
        if rng.random() < 0.3:
            del holder[key]
            edits.append("drop-" + ".".join(map(str, path)))
        else:
            holder[key] = copy.deepcopy(_SWAPS[rng.integers(len(_SWAPS))])
            edits.append("swap-" + ".".join(map(str, path)))
    return predict_case(f"generated-{seed}-{i}-" + "-".join(edits), payload)


def run_case(case):
    """Run one case in a fresh temporary directory; a list of the ways it failed."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in [*case.files, "out.csv"]}
        for name, text in case.files.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [paths.get(arg, arg) for arg in case.argv]
        outputs = [paths["out.csv"]] if case.argv[0] == "predict" else []
        return check_run(argv, [paths[name] for name in case.files], outputs, case.refusal)


if __name__ == "__main__":
    sys.exit(run(corpus=sys.modules[__name__]))
