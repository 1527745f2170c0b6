"""Scenario generators, error metrics, and the Monte-Carlo harness.

Three shipped scenarios: a heteroskedasticity-free regression task whose
pre-trained model is a kernel smooth of shifted source data, a Bernoulli
classification task, and an adversarial task whose pre-trained model is
memoized white noise.  Repetitions are driven by per-repetition RNG
streams, so result tables are bit-identical for a fixed master seed.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .adaptation import FitConfig, fit_personalized
from .blackbox import (
    BernoulliNoise,
    BlackBoxModel,
    GaussianNoise,
    KernelSmoothModel,
    SyntheticOracle,
    _finite_or_raise,
)
from .core import DataError, Domain, derive_seed, rng_stream

__all__ = [
    "Scenario",
    "MemoizedNoiseModel",
    "scenario_regression",
    "scenario_classification",
    "scenario_adversarial",
    "mse",
    "mce",
    "mean_squared_error",
    "misclassification_rate",
    "RepRecord",
    "ExperimentResult",
    "run_experiment",
    "single_task_estimator",
    "fit_log_log_slope",
    "SlopeResult",
    "rate_slope_experiment",
]

METHODS = ("single-task", "fsp", "pretrained")


@dataclass
class Scenario:
    """A simulation setting: truth, noise, domain, and pre-trained recipe.

    theta2_star is the truth's smoothness exponent; the single-task
    baseline derives its rate-matched bandwidth from it.
    """

    name: str
    domain: Domain
    f_star: object
    noise: object
    metric: str  # "mse" or "mce"
    pretrained_factory: object  # (n_ptr, seed) -> BlackBoxModel
    n_test: int = 500
    theta2_star: float = 0.5
    sigma_bar: float = 1.0

    def make_oracle(self):
        return SyntheticOracle(self.f_star, self.noise, self.domain)

    def make_pretrained(self, n_ptr, seed):
        return self.pretrained_factory(n_ptr, seed)


def single_task_estimator(scenario, n, seed):
    """Target-only baseline: box-kernel local mean over n uniform draws, a
    KernelSmoothModel.

    Uses all n samples with the deterministic rate-matched bandwidth
    min(edge * sigma_bar**(2/(2*theta2_star+d)) * n**(-1/(2*theta2_star+d)),
    edge/2); no data splitting and no cross-validation, so its error
    follows the nonparametric rate cleanly across budgets.
    """
    rng = rng_stream(seed, "retrieval")
    xs = scenario.domain.uniform(n, rng)
    ys = scenario.make_oracle().label(xs, rng)
    expo = 1.0 / (2.0 * scenario.theta2_star + scenario.domain.dim)
    edge = scenario.domain.min_edge()
    h = edge * scenario.sigma_bar ** (2.0 * expo) * float(n) ** (-expo)
    h = min(h, edge / 2.0)
    return KernelSmoothModel(xs, ys, h)


class MemoizedNoiseModel(BlackBoxModel):
    """Independent standard-normal value per distinct query point.

    Values are memoized on the exact float pattern of the query, so
    repeated queries agree within a session (the determinism contract).
    """

    def __init__(self, rng):
        self._rng = rng
        self._memo = {}

    def predict_batch(self, xs):
        xs = np.ascontiguousarray(np.atleast_2d(np.asarray(xs, float)))
        # each row's bytes, as one void scalar a row
        keys = xs.view(np.dtype((np.void, xs.itemsize * xs.shape[1]))).ravel().tolist()
        memo = self._memo
        unseen = dict.fromkeys(key for key in keys if key not in memo)  # first-appearance order
        if unseen:
            memo.update(zip(unseen, self._rng.standard_normal(len(unseen)).tolist()))
        return np.array([memo[key] for key in keys])


def _source_kernel_model(n_ptr, seed, f_star, kind):
    """Pre-trained model: box-kernel smooth of a labeled source sample on [-1, 1]^2."""
    source = Domain.cube(2, -1.0, 1.0)
    xs = source.uniform(n_ptr, rng_stream(seed, "pretrain-x"))
    rng_y = rng_stream(seed, "pretrain-y")
    if kind == "regression":
        ys = 0.8 * f_star(xs) + rng_y.standard_normal(n_ptr)
    else:
        p = np.clip(f_star(xs) + 0.1, 0.0, 1.0)
        ys = (rng_y.random(n_ptr) < p).astype(float)
    return KernelSmoothModel(xs, ys, bandwidth=float(n_ptr) ** (-1.0 / 4.0))


def scenario_regression(n_test=500):
    """Regression truth |x1| + |x2 + 0.3|**0.5 on [-0.5, 0.5]^2, unit noise."""
    domain = Domain.cube(2, -0.5, 0.5)

    def f_star(xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        return np.abs(xs[:, 0]) + np.abs(xs[:, 1] + 0.3) ** 0.5

    return Scenario(
        name="regression",
        domain=domain,
        f_star=f_star,
        noise=GaussianNoise(1.0),
        metric="mse",
        pretrained_factory=lambda n_ptr, seed: _source_kernel_model(
            n_ptr, seed, f_star, "regression"
        ),
        n_test=n_test,
    )


def scenario_classification(n_test=500):
    """Bernoulli truth clip(|x1|**0.6 + |x2 - 0.3|**0.6 - 0.1, 0, 0.9) on [-0.2, 0.8]^2."""
    domain = Domain.cube(2, -0.2, 0.8)

    def f_star(xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        raw = np.abs(xs[:, 0]) ** 0.6 + np.abs(xs[:, 1] - 0.3) ** 0.6 - 0.1
        return np.clip(raw, 0.0, 0.9)

    centers, _ = domain.grid(200)
    p = f_star(centers)
    sigma_bar = float(np.mean(np.sqrt(p * (1.0 - p))))
    return Scenario(
        name="classification",
        domain=domain,
        f_star=f_star,
        noise=BernoulliNoise(),
        metric="mce",
        pretrained_factory=lambda n_ptr, seed: _source_kernel_model(
            n_ptr, seed, f_star, "classification"
        ),
        n_test=n_test,
        theta2_star=0.6,
        sigma_bar=sigma_bar,
    )


def scenario_adversarial(n_test=500):
    """Regression truth with an uninformative white-noise pre-trained model."""
    return replace(
        scenario_regression(n_test=n_test), name="adversarial",
        pretrained_factory=lambda n_ptr, seed: MemoizedNoiseModel(rng_stream(seed, "pretrain-noise")),
    )


def mean_squared_error(truth, pred):
    """Mean of (truth - pred)^2 over aligned arrays; inf, without a warning, if it overflows."""
    with np.errstate(over="ignore"):
        return float(np.mean((truth - pred) ** 2))


def misclassification_rate(labels, pred):
    """Share of 0/1 labels that 1(pred >= 0.5) misses; DataError for a label outside 0/1."""
    labels = np.asarray(labels, float)
    binary = np.isin(labels, (0.0, 1.0))
    if not binary.all():
        i = int(np.flatnonzero(~binary)[0])
        raise DataError(f"mce needs 0/1 labels; label {i + 1} is {float(labels[i])!r}")
    return float(np.mean(np.abs(labels - (pred >= 0.5).astype(float))))


METRICS = {"mse": mean_squared_error, "mce": misclassification_rate}


def mse(predict, f_star, test_points):
    """Mean squared error of `predict` against the truth on the test points."""
    test_points = np.atleast_2d(np.asarray(test_points, float))
    if test_points.shape[0] < 1:
        raise ValueError("need at least one test point")
    pred = _finite_or_raise(predict(test_points), "prediction")
    return mean_squared_error(np.asarray(f_star(test_points), float), pred)


def mce(predict, labels, test_points):
    """Misclassification rate of 1(predict >= 0.5) against binary labels."""
    test_points = np.atleast_2d(np.asarray(test_points, float))
    return misclassification_rate(labels, _finite_or_raise(predict(test_points), "prediction"))


@dataclass(frozen=True)
class RepRecord:
    method: str
    rep: int
    value: float
    theta1: float | None = None
    theta2: float | None = None
    bandwidth: float | None = None


@dataclass
class ExperimentResult:
    scenario: str
    metric: str
    n: int
    n_ptr: int
    repetitions: int
    seed: int
    rows: list = field(default_factory=list)

    def values(self, method):
        return np.array([r.value for r in self.rows if r.method == method])

    def summary(self):
        out = {}
        for method in dict.fromkeys(r.method for r in self.rows):
            v = self.values(method)
            out[method] = {
                "mean": float(v.mean()),
                "sd": float(v.std(ddof=1)) if v.size > 1 else 0.0,
                "median": float(np.median(v)),
                "q25": float(np.quantile(v, 0.25)),
                "q75": float(np.quantile(v, 0.75)),
                "reps": int(v.size),
            }
        return out


def run_experiment(
    scenario,
    methods=METHODS,
    n=300,
    n_ptr=1000,
    repetitions=100,
    seed=0,
    config=None,
):
    """Repeat the scenario and record the chosen metric per method and rep.

    All three methods within a repetition share the pre-trained model and
    the test set; fits use their own derived RNG streams.
    """
    methods = tuple(methods)
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)}; valid: {list(METHODS)}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    cfg = config or FitConfig()
    result = ExperimentResult(
        scenario=scenario.name,
        metric=scenario.metric,
        n=int(n),
        n_ptr=int(n_ptr),
        repetitions=int(repetitions),
        seed=int(seed),
    )
    needs_model = bool({"fsp", "pretrained"} & set(methods))
    for rep in range(int(repetitions)):
        rep_seed = derive_seed(seed, f"rep-{rep}")
        model = scenario.make_pretrained(n_ptr, rep_seed) if needs_model else None
        test_x = scenario.domain.uniform(scenario.n_test, rng_stream(rep_seed, "simulation-test"))
        if scenario.metric == "mce":
            p = np.asarray(scenario.f_star(test_x), float)
            test_y = (rng_stream(rep_seed, "simulation-test-labels").random(len(p)) < p).astype(float)
        f_test = None
        for method in methods:
            theta1 = theta2 = bandwidth = None
            if method == "single-task":
                est = single_task_estimator(scenario, n, derive_seed(rep_seed, "single-task"))
                pred = est.predict_batch(test_x)
                bandwidth = est.bandwidth
            else:
                if method == "fsp":
                    fit = fit_personalized(
                        model, scenario.domain, n, scenario.make_oracle(), cfg,
                        derive_seed(rep_seed, "fsp"),
                    )
                # one model pass on the test set serves both methods, made where the
                # first of them queried it (a memoized model draws in query order)
                if f_test is None:
                    f_test = model.predict_batch(test_x)
                pred = f_test
                if method == "fsp":
                    # what fit.estimator.predict_batch(test_x) returns
                    pred = f_test + fit.estimator._bias_given_f(test_x, f_test)
                    theta1, theta2, bandwidth = fit.theta.theta1, fit.theta.theta2, fit.bandwidth
            if scenario.metric == "mce":
                value = mce(lambda _: pred, test_y, test_x)
            else:
                value = mse(lambda _: pred, scenario.f_star, test_x)
            result.rows.append(
                RepRecord(method, rep, value, theta1, theta2, bandwidth)
            )
    return result


def fit_log_log_slope(n_values, errors):
    """Least-squares slope of log(error) against log(n)."""
    n_values = np.asarray(n_values, float)
    errors = np.asarray(errors, float)
    return float(np.polyfit(np.log(n_values), np.log(errors), 1)[0])


@dataclass(frozen=True)
class SlopeResult:
    slope: float
    n_values: tuple
    mean_errors: tuple
    degenerate: bool


def rate_slope_experiment(
    scenario,
    n_values,
    repetitions=50,
    seed=0,
    method="single-task",
    n_ptr=1000,
    config=None,
):
    """Fit the log-log slope of the mean metric across sampling budgets.

    Near-zero mean errors (noiseless setups) make the log fit meaningless;
    those runs are reported as degenerate with a NaN slope.
    """
    n_values = [int(v) for v in n_values]
    if len(n_values) < 3:
        raise ValueError("need at least three budget values")
    means = []
    for n in n_values:
        res = run_experiment(
            scenario,
            methods=(method,),
            n=n,
            n_ptr=n_ptr,
            repetitions=repetitions,
            seed=derive_seed(seed, f"budget-{n}"),
            config=config,
        )
        means.append(res.summary()[method]["mean"])
    means_arr = np.asarray(means)
    if (means_arr <= 1e-15).any():
        return SlopeResult(float("nan"), tuple(n_values), tuple(means), True)
    return SlopeResult(fit_log_log_slope(n_values, means), tuple(n_values), tuple(means), False)
