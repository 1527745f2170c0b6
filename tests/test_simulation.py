from dataclasses import fields, replace

import numpy as np
import pytest

from fsp import (
    BlackBoxModel,
    Domain,
    FunctionModel,
    GaussianNoise,
    mce,
    mse,
    rate_slope_experiment,
    run_experiment,
    scenario_adversarial,
    scenario_classification,
    scenario_regression,
)
from fsp.adaptation import FitConfig, fit_personalized
from fsp.core import derive_seed, rng_stream
from fsp.simulation import MemoizedNoiseModel, Scenario, fit_log_log_slope, single_task_estimator


def test_regression_truth_spot_values():
    f = scenario_regression().f_star
    assert f(np.array([[0.0, -0.3]]))[0] == 0.0
    assert f(np.array([[0.5, 0.2]]))[0] == pytest.approx(0.5 + 0.5**0.5, rel=1e-12)


def test_regression_truth_transcription():
    f = scenario_regression().f_star
    xs = scenario_regression().domain.uniform(1000, rng_stream(0, "t"))
    want = np.abs(xs[:, 0]) + np.abs(xs[:, 1] + 0.3) ** 0.5
    assert np.max(np.abs(f(xs) - want)) <= 1e-12


def test_regression_pretrained_source_covers_target():
    sc = scenario_regression()
    model = sc.make_pretrained(1000, 0)
    pts = model.points
    assert pts.min() >= -1.0 and pts.max() <= 1.0
    assert pts.min() < -0.5 and pts.max() > 0.5  # strictly wider than the target box
    assert model.bandwidth == pytest.approx(1000 ** (-0.25))


def test_classification_truth_spot_values():
    f = scenario_classification().f_star
    assert f(np.array([[0.0, 0.3]]))[0] == 0.0  # clamped at zero
    assert f(np.array([[0.8, 0.8]]))[0] == pytest.approx(0.9)  # clamped at 0.9
    xs = scenario_classification().domain.uniform(1000, rng_stream(1, "t"))
    vals = f(xs)
    want = np.clip(np.abs(xs[:, 0]) ** 0.6 + np.abs(xs[:, 1] - 0.3) ** 0.6 - 0.1, 0.0, 0.9)
    assert np.max(np.abs(vals - want)) <= 1e-12
    assert ((0.0 <= vals) & (vals <= 0.9)).all()
    assert (vals * (1 - vals)).max() <= 0.25 + 1e-12  # Bernoulli variance bound


def test_classification_pretrained_probabilities_clamped():
    sc = scenario_classification()
    model = sc.make_pretrained(500, 3)
    xs = sc.domain.uniform(200, rng_stream(2, "t"))
    preds = model.predict_batch(xs)
    assert ((preds >= 0.0) & (preds <= 1.0)).all()


def test_adversarial_model_memoizes():
    model = MemoizedNoiseModel(rng_stream(3, "noise"))
    x = np.array([[0.1, 0.2]])
    assert model.predict_batch(x)[0] == model.predict_batch(x)[0]
    a = model.predict_batch(np.array([[0.1, 0.2], [0.3, 0.4]]))
    b = model.predict_batch(np.array([[0.3, 0.4], [0.1, 0.2]]))
    assert a[0] == b[1] and a[1] == b[0]


def test_adversarial_model_draws_unseen_rows_in_first_appearance_order():
    def loop(rng, memo, xs):  # one draw per unseen row, in row order
        out = []
        for row in xs:
            if row.tobytes() not in memo:
                memo[row.tobytes()] = float(rng.standard_normal())
            out.append(memo[row.tobytes()])
        return np.array(out)

    rng = rng_stream(5, "t")
    pool = rng.random((6, 2))
    batches = [pool[[0, 1, 0, 2]], pool[[3, 1, 3, 3, 4]], pool[[5, 0]], pool[:0], pool[[4]]]
    model, memo, reference = MemoizedNoiseModel(rng_stream(6, "noise")), {}, rng_stream(6, "noise")
    for xs in batches:
        assert model.predict_batch(xs).tobytes() == loop(reference, memo, xs).tobytes()
    # -0.0 and 0.0 are different points to the memo, as their bytes differ
    zero = model.predict_batch(np.array([[0.0, 0.5], [-0.0, 0.5]]))
    assert zero.tobytes() == loop(reference, memo, np.array([[0.0, 0.5], [-0.0, 0.5]])).tobytes()


class _Counting(BlackBoxModel):
    """A model that records every batch it is asked for."""

    def __init__(self, inner, seen):
        self.inner, self.seen = inner, seen

    def predict_batch(self, xs):
        self.seen.append(np.array(xs))
        return self.inner.predict_batch(xs)


def _repetition_by_predict_batch(scenario, n, n_ptr, rep_seed):
    """The rows of one repetition, each method scored through predict_batch on the
    test set in METHODS order, as a reference."""
    model = scenario.make_pretrained(n_ptr, rep_seed)
    test_x = scenario.domain.uniform(scenario.n_test, rng_stream(rep_seed, "simulation-test"))
    if scenario.metric == "mce":
        p = np.asarray(scenario.f_star(test_x), float)
        test_y = (rng_stream(rep_seed, "simulation-test-labels").random(len(p)) < p).astype(float)
    single = single_task_estimator(scenario, n, derive_seed(rep_seed, "single-task"))
    fit = fit_personalized(
        model, scenario.domain, n, scenario.make_oracle(), FitConfig(), derive_seed(rep_seed, "fsp")
    )
    values = []
    for predict in (single.predict_batch, fit.estimator.predict_batch, model.predict_batch):
        if scenario.metric == "mce":
            values.append(mce(predict, test_y, test_x))
        else:
            values.append(mse(predict, scenario.f_star, test_x))
    return values, test_x


@pytest.mark.parametrize(
    "make", [scenario_regression, scenario_classification, scenario_adversarial]
)
def test_a_repetition_queries_the_model_once_on_its_test_set(make):
    base = make(n_test=60)
    seen = []

    def counting(n_ptr, seed):
        return _Counting(base.make_pretrained(n_ptr, seed), seen)

    scenario = replace(base, pretrained_factory=counting)
    result = run_experiment(scenario, n=60, n_ptr=200, repetitions=2, seed=7)
    for rep in range(2):
        values, test_x = _repetition_by_predict_batch(base, 60, 200, derive_seed(7, f"rep-{rep}"))
        rows = [r for r in result.rows if r.rep == rep]
        assert [r.method for r in rows] == ["single-task", "fsp", "pretrained"]
        assert [r.value for r in rows] == values  # the same floats as predict_batch gives
        assert sum(q.shape == test_x.shape and np.array_equal(q, test_x) for q in seen) == 1


def test_the_adversarial_scenario_is_the_regression_scenario_with_a_noise_model():
    adversarial, regression = scenario_adversarial(n_test=70), scenario_regression(n_test=70)
    for f in fields(Scenario):
        a, r = getattr(adversarial, f.name), getattr(regression, f.name)
        if f.name == "f_star":  # each call makes its own closure
            assert a.__code__ is r.__code__
        elif f.name == "noise":  # as is its noise
            assert type(a) is type(r)
        elif f.name not in ("name", "pretrained_factory"):
            assert a == r, f.name
    assert adversarial.name == "adversarial"
    assert isinstance(adversarial.make_pretrained(10, 0), MemoizedNoiseModel)
    xs = adversarial.domain.uniform(50, rng_stream(3, "adv"))
    assert np.array_equal(adversarial.f_star(xs), regression.f_star(xs))
    assert np.array_equal(adversarial.noise.sigma(xs), regression.noise.sigma(xs))


def test_adversarial_model_moments_and_independence():
    sc = scenario_adversarial()
    model = sc.make_pretrained(1000, 4)
    xs = sc.domain.uniform(10_000, rng_stream(4, "t"))
    vals = model.predict_batch(xs)
    assert abs(vals.mean()) < 0.03
    assert 0.94 <= vals.var() <= 1.06
    truth = sc.f_star(xs)
    r = np.corrcoef(vals, truth)[0, 1]
    assert abs(r) < 0.05


def test_mse_basics_and_loop_oracle():
    f = scenario_regression().f_star
    xs = scenario_regression().domain.uniform(50, rng_stream(5, "t"))
    assert mse(lambda q: f(q), f, xs) == 0.0
    assert mse(lambda q: f(q) + 0.3, f, xs) == pytest.approx(0.09, rel=1e-12)
    rng = rng_stream(6, "t")
    preds = rng.normal(size=50)
    want = sum((float(a) - float(b)) ** 2 for a, b in zip(f(xs), preds)) / 50
    assert mse(lambda q: preds, f, xs) == pytest.approx(want, rel=1e-12)


def test_mce_threshold_convention():
    xs = np.zeros((4, 2))
    ones = np.ones(4)
    assert mce(lambda q: np.ones(len(q)), ones, xs) == 0.0
    assert mce(lambda q: np.full(len(q), 0.49), ones, xs) == 1.0
    assert mce(lambda q: np.full(len(q), 0.5), ones, xs) == 0.0  # >= 0.5 means class 1
    with pytest.raises(ValueError):
        mce(lambda q: np.ones(len(q)), np.array([0.5] * 4), xs)


def test_run_experiment_structure_and_determinism():
    sc = scenario_regression(n_test=40)
    res = run_experiment(sc, n=32, n_ptr=100, repetitions=1, seed=9)
    assert {r.method for r in res.rows} == {"single-task", "fsp", "pretrained"}
    assert len(res.rows) == 3
    assert all(np.isfinite(r.value) for r in res.rows)
    res2 = run_experiment(sc, n=32, n_ptr=100, repetitions=1, seed=9)
    assert res.rows == res2.rows  # bit-identical with a fixed seed
    with pytest.raises(ValueError):
        run_experiment(sc, methods=("nope",), repetitions=1)


def test_run_experiment_row_counts():
    sc = scenario_classification(n_test=30)
    res = run_experiment(sc, methods=("fsp",), n=32, n_ptr=80, repetitions=3, seed=2)
    assert len(res.rows) == 3
    assert res.summary()["fsp"]["reps"] == 3
    assert all(0.0 <= r.value <= 1.0 for r in res.rows)


def test_fit_log_log_slope_exact_power_law():
    ns = np.array([250, 500, 1000, 2000])
    errs = 3.7 * ns ** (-1.0 / 3.0)
    assert fit_log_log_slope(ns, errs) == pytest.approx(-1.0 / 3.0, abs=1e-10)


def test_rate_slope_degenerate_when_noiseless_and_model_is_truth():
    def f_star(xs):
        xs = np.atleast_2d(xs)
        return np.abs(xs[:, 0])

    sc = Scenario(
        name="noiseless",
        domain=Domain.cube(2),
        f_star=f_star,
        noise=GaussianNoise(0.0),
        metric="mse",
        pretrained_factory=lambda n_ptr, seed: FunctionModel(f_star),
        n_test=50,
    )
    out = rate_slope_experiment(sc, [16, 32, 64], repetitions=2, seed=0, method="fsp")
    assert out.degenerate
    assert np.isnan(out.slope)
    with pytest.raises(ValueError):
        rate_slope_experiment(sc, [16, 32], repetitions=1)


def test_rate_slope_single_task_is_negative():
    sc = scenario_regression(n_test=200)
    out = rate_slope_experiment(sc, [64, 128, 256], repetitions=4, seed=1)
    assert not out.degenerate
    assert out.slope < 0
