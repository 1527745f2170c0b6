"""A seeded corpus of `fsp personalize --pool-csv` cases, run in-process through
`fsp.cli.main`.

Each case writes a pool CSV (covariates x1..xd and a label column y) and runs
one `fsp personalize` on it with an expression model.  A case passes if it
either exits 0 and writes an estimator file and a report that parse as strict
JSON, or exits 1 or 2 with exactly one `error:` line on stderr; in both cases
with no traceback, no warning and the pool file unchanged.

`NAMED` lists pools with known awkward shapes (constant columns, duplicate or
clustered rows, tiny and huge magnitudes, budgets, pilots and bandwidths at their limits,
an estimator file named as the pool);
`generated(seed, count)` draws random ones in plain numpy.  The tier-1 test
`tests/test_pool_corpus.py` runs the named cases and a few generated ones.
The manual mode runs more and prints a one-line repro for each failing case:

    PYTHONPATH=src python tests/pool_corpus.py --cases 200 --seed 7
    PYTHONPATH=src python tests/pool_corpus.py --seed 7 --case 13   # rerun one

It exits 1 if any case fails.
"""

import argparse
import json
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO

import numpy as np

from fsp.cli import main


@dataclass
class Case:
    """One `fsp personalize` run on a pool with the expression model `model`; `pilot`
    None leaves the pilot size to fsp."""

    name: str
    x: np.ndarray
    y: np.ndarray
    n: int
    pilot: int | None = None
    bandwidth: str = "rule"
    split: str = "reuse"
    seed: int = 0
    model: str = "x1"
    estimator: str = "est.json"  # the estimator file's name, beside the pool's "pool.csv"

    def argv(self, pool, out_dir):
        names = [f"x{j + 1}" for j in range(self.x.shape[1])]
        argv = ["personalize", "--pool-csv", pool, "--covariates", ",".join(names), "-n", str(self.n),
                "--model-expr", self.model, "--bandwidth", self.bandwidth, "--split", self.split,
                "--seed", str(self.seed), "--out-estimator", os.path.join(out_dir, self.estimator),
                "--out-report", os.path.join(out_dir, "rep.json")]
        return argv + (["--pilot-size", str(self.pilot)] if self.pilot is not None else [])


def _pool(rng, rows, dim):
    """Uniform covariates on the unit cube; labels x1 + (0.1 + 0.9 x1) * N(0, 1)."""
    x = rng.random((rows, dim))
    return x, x[:, 0] + (0.1 + 0.9 * x[:, 0]) * rng.standard_normal(rows)


def _named():
    rng = np.random.default_rng(0)
    x, y = _pool(rng, 400, 2)
    cases = [
        Case("plain", x, y, 120),
        Case("plain-cv", x, y, 120, bandwidth="cv", split="strict"),
        Case("constant-column", np.column_stack([x[:, 0], np.full(400, 0.5)]), y, 120),
        Case("duplicate-rows", np.repeat(x[:1], 400, axis=0), y, 120),
        Case("clustered-1e-12", 0.5 + 1e-12 * x, y, 120),
        Case("coordinates-1e-300", 1e-300 * x, y, 120),
        Case("whole-pool", x, y, 400),
        Case("pilot-n-minus-1", x, y, 120, pilot=119),
        Case("constant-labels", x, np.full(400, 3.0), 120),
        Case("mixed-scales", x * np.array([1e-6, 1e6]), y, 120),
        Case("nan-label", x, np.where(np.arange(400) == 7, np.nan, y), 120),
        Case("coordinates-1e160", 1e160 * x, y, 120),
        Case("labels-1e160", x, 1e160 * y, 120),
        Case("model-1e200", x, y, 120, model="x1*1e200"),
        Case("model-1e200-cv", x, y, 120, bandwidth="cv", model="x1*1e200"),
        Case("bandwidth-1e-300", x, y, 120, bandwidth="1e-300"),
        Case("bandwidth-1e300", x, y, 120, bandwidth="1e300"),
        Case("bandwidth-inf", x, y, 120, bandwidth="inf"),
        Case("estimator-over-pool", x, y, 120, estimator="pool.csv"),
    ]
    x10, y10 = _pool(rng, 600, 10)
    cases.append(Case("d10", x10, y10, 150))
    return cases


NAMED = _named()

_SHAPES = (
    "plain", "constant-column", "duplicate-rows", "clustered", "scaled", "mixed-scales",
    "constant-labels", "scaled-labels", "nan-label",
)


def generated(seed, count):
    """`count` random cases; case i depends on (seed, i) alone."""
    return [generated_case(seed, i) for i in range(count)]


def generated_case(seed, i):
    rng = np.random.default_rng([seed, i])
    dim = int(rng.choice([1, 2, 3, 4, 6, 10], p=[0.25, 0.3, 0.2, 0.1, 0.1, 0.05]))
    rows = int(rng.integers(8, 1500))
    x, y = _pool(rng, rows, dim)
    shape = str(rng.choice(_SHAPES))
    if shape == "constant-column":
        x[:, rng.integers(dim)] = rng.normal()
    elif shape == "duplicate-rows":
        x = x[rng.integers(0, max(1, rows // 10), rows)]
    elif shape == "clustered":
        x = rng.normal() + 10.0 ** rng.uniform(-14, -6) * x
    elif shape == "scaled":
        x = x * 10.0 ** rng.uniform(-300, 300)
    elif shape == "mixed-scales":
        x = x * 10.0 ** rng.uniform(-8, 8, dim)
    elif shape == "constant-labels":
        y = np.full(rows, rng.normal())
    elif shape == "scaled-labels":
        y = y * 10.0 ** rng.uniform(-300, 300)
    elif shape == "nan-label":
        y[rng.integers(rows)] = np.nan
    n = int(rng.integers(5, rows + 1)) if rows > 5 else rows
    pilot = None if rng.random() < 0.5 else int(rng.integers(1, n + 1))
    bandwidth = str(rng.choice(["rule", "cv", "0.05", "1e-12", "1e12", "inf"]))
    split = str(rng.choice(["reuse", "strict"]))
    return Case(f"generated-{seed}-{i}-{shape}-d{dim}", x, y, n, pilot, bandwidth, split, seed=i)


def _write_pool(path, x, y):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(x.shape[1])] + ["y"]) + "\n")
        for row, label in zip(x.tolist(), y.tolist()):
            fh.write(",".join(repr(v) for v in row + [label]) + "\n")


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    with open(path, encoding="utf-8") as fh:
        json.load(fh, parse_constant=reject)


def _finite_csv(path):
    with open(path, encoding="utf-8") as fh:
        cells = [cell for line in fh.read().splitlines()[1:] for cell in line.split(",")]
    if not np.isfinite(np.array(cells, dtype=float)).all():
        raise ValueError("a cell is not a finite number")


def check_run(argv, inputs, outputs, refusal=None):
    """Run `fsp` on argv in-process; a list of the ways it failed.  It passes if it exits 0
    and every path of `outputs` holds strict JSON (a .json file) or CSV cells of finite
    numbers (any other), or exits 1 or 2 with exactly one `error:` line on stderr; in both
    cases with no traceback, no warning and every file of `inputs` unchanged.  Given a
    `refusal`, it passes only by exiting 2 with an error line that holds that text."""
    before = {}
    for path in inputs:
        with open(path, "rb") as fh:
            before[path] = fh.read()
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), redirect_stdout(StringIO()):
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except (Exception, SystemExit) as exc:  # main() must return an exit code
            return [f"raised {type(exc).__name__}: {exc}"]
    stderr = err.getvalue()
    problems = [f"warning: {w.category.__name__}: {w.message}" for w in caught]
    if "Traceback" in stderr or "Warning" in stderr:
        problems.append("traceback or warning on stderr")
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    if rc == 0:
        try:
            for path in outputs:
                (_strict_json if path.endswith(".json") else _finite_csv)(path)
        except (OSError, ValueError) as exc:
            problems.append(f"exit 0 without valid outputs: {exc}")
        if errors:
            problems.append(f"exit 0 with {errors}")
    elif rc in (1, 2):
        if len(errors) != 1:
            problems.append(f"exit {rc} with {len(errors)} error lines")
    else:
        problems.append(f"exit code {rc}")
    if refusal is not None and not (rc == 2 and any(refusal in line for line in errors)):
        problems.append(f"exit {rc} with {errors}, not a refusal naming {refusal!r}")
    for path, data in before.items():
        with open(path, "rb") as fh:
            if fh.read() != data:
                problems.append(f"the input {os.path.basename(path)} changed")
    return problems


def run_case(case):
    """Run one case in a fresh temporary directory; a list of the ways it failed."""
    with tempfile.TemporaryDirectory() as tmp:
        pool = os.path.join(tmp, "pool.csv")
        _write_pool(pool, case.x, case.y)
        outputs = [os.path.join(tmp, name) for name in (case.estimator, "rep.json")]
        return check_run(case.argv(pool, tmp), [pool], outputs)


def _parse_args(argv, script):
    parser = argparse.ArgumentParser(prog=script, description="Run a seeded corpus of fsp cases.")
    parser.add_argument("--cases", type=int, default=50, help="generated cases to run")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated cases")
    parser.add_argument("--case", type=int, help="rerun only generated case CASE of SEED")
    parser.add_argument("--named", action="store_true", help="run the named cases too")
    return parser.parse_args(argv)


def run(argv=None, corpus=None):
    """Run the cases of a corpus module (this one by default) that argv asks for: its NAMED,
    generated(seed, count) and generated_case(seed, i) cases, each by its run_case."""
    corpus = corpus or sys.modules[__name__]
    script = f"tests/{os.path.basename(corpus.__file__)}"
    args = _parse_args(argv, script)
    if args.case is not None:
        cases = [(args.case, corpus.generated_case(args.seed, args.case))]
    else:
        cases = list(enumerate(corpus.generated(args.seed, args.cases)))
    if args.named:
        cases = [(None, case) for case in corpus.NAMED] + cases
    failed = 0
    for index, case in cases:
        problems = corpus.run_case(case)
        if problems:
            failed += 1
            repro = "--named" if index is None else f"--seed {args.seed} --case {index}"
            print(f"FAIL {case.name} | repro: PYTHONPATH=src python {script} {repro} | "
                  + "; ".join(dict.fromkeys(problems)), flush=True)
    print(f"{len(cases) - failed} of {len(cases)} cases passed", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
