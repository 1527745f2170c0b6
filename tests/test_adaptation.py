import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from fsp import (
    ConfigError,
    DataError,
    Domain,
    ExpressionModel,
    FitConfig,
    FunctionModel,
    GaussianNoise,
    HolderParams,
    PersonalizedEstimator,
    PoolOracle,
    SyntheticOracle,
    VarianceField,
    build_grid,
    fit_personalized,
    fit_personalized_pool,
    fit_personalized_small_domain,
    fit_single_task,
    plug_in_density,
    scenario_regression,
    select_theta,
    select_theta_h,
)
from fsp.adaptation import default_bandwidth_set, rule_bandwidth
from fsp.core import rng_stream
from helpers import benchmark_pool_fit, brute_force_select

UNIT2 = Domain.cube(2)


def test_build_grid_shape_and_members():
    grid = build_grid(100, 2.0)
    assert len(grid.points) == 36  # (m + 1)^2 with m = ceil(ln 100) = 5
    thetas = set((t.theta1, t.theta2) for t in grid.points)
    assert (0.0, 0.0) in thetas and (2.0, 1.0) in thetas
    # theta1 = 0 present at every theta2 level
    levels = {t.theta2 for t in grid.points}
    assert all((0.0, l) in thetas for l in levels)
    assert list(grid.points) == sorted(grid.points)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(2, 1.0)
    with pytest.raises(ValueError):
        build_grid(100, 0.0)


def _make_candidates(rng, thetas, h=0.4, n_train=25):
    train_x = rng.random((n_train, 2))
    train_y = rng.normal(size=n_train)
    model = ExpressionModel("x1 - 0.5*x2", 2)
    cands = {
        t: PersonalizedEstimator(train_x, train_y, model, t, h, UNIT2) for t in thetas
    }
    return cands, train_x, train_y, model


def test_select_theta_zero_residual_candidate_wins():
    rng = rng_stream(0, "sel")
    thetas = [HolderParams(0.0, 0.0), HolderParams(1.0, 0.5)]
    cands, *_ = _make_candidates(rng, thetas)
    val_x = rng.random((10, 2))
    # make validation responses equal to one candidate's predictions exactly
    val_y = cands[thetas[1]].predict_batch(val_x)
    best, scores = select_theta(cands, val_x, val_y)
    assert best == thetas[1]
    assert scores[thetas[1]] == 0.0


def test_select_theta_tie_prefers_lexicographically_smaller():
    rng = rng_stream(1, "sel")
    # theta1 = 0 ignores the model entirely, so all theta2 levels predict alike
    thetas = [HolderParams(0.0, 1.0), HolderParams(0.0, 0.0), HolderParams(0.0, 0.5)]
    cands, *_ = _make_candidates(rng, thetas)
    val_x = rng.random((10, 2))
    val_y = rng.normal(size=10)
    best, scores = select_theta(cands, val_x, val_y)
    assert best == HolderParams(0.0, 0.0)
    assert len(set(scores.values())) == 1


def test_select_theta_empty_inputs():
    rng = rng_stream(2, "sel")
    cands, *_ = _make_candidates(rng, [HolderParams(0.0, 0.0)])
    with pytest.raises(ValueError):
        select_theta({}, rng.random((3, 2)), rng.normal(size=3))
    with pytest.raises(ValueError):
        select_theta(cands, np.empty((0, 2)), np.empty(0))


def test_select_theta_matches_brute_force():
    rng = rng_stream(3, "sel")
    for _ in range(5):
        thetas = [
            HolderParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
            for _ in range(5)
        ]
        h = float(rng.uniform(0.25, 0.6))
        cands, train_x, train_y, model = _make_candidates(rng, thetas, h=h)
        val_x = rng.random((20, 2))
        val_y = rng.normal(size=20)
        best, scores = select_theta(cands, val_x, val_y)
        want, rows = brute_force_select(
            [(t, h) for t in thetas], train_x, train_y, model, val_x, val_y
        )
        assert best == want[0]
        for t, _, s in rows:
            assert scores[t] == pytest.approx(s, rel=1e-9)


def test_select_theta_h_singleton_reduces_to_select_theta():
    rng = rng_stream(4, "sel")
    thetas = [HolderParams(0.0, 0.0), HolderParams(0.7, 0.3), HolderParams(1.4, 1.0)]
    h = 0.45
    cands, train_x, train_y, model = _make_candidates(rng, thetas, h=h)
    val_x = rng.random((15, 2))
    val_y = rng.normal(size=15)
    best_t, scores = select_theta(cands, val_x, val_y)
    sel = select_theta_h(thetas, [h], train_x, train_y, val_x, val_y, model)
    assert sel.theta == best_t
    assert sel.bandwidth == h
    for t, _, s in sel.table:
        assert s == scores[t]  # identical computation path, bitwise equal


def test_select_theta_h_tie_prefers_smaller_bandwidth():
    model = ExpressionModel("0", 1)
    dom = Domain.cube(1)
    train_x = np.array([[0.5]])
    train_y = np.array([2.0])
    val_x = np.array([[0.45]])
    val_y = np.array([1.0])
    # both bandwidths capture the single training point: identical predictions
    sel = select_theta_h(
        [HolderParams(0.0, 0.0)], [0.9, 0.2], train_x, train_y, val_x, val_y, model
    )
    assert sel.bandwidth == 0.2


def test_rungs_holding_the_same_points_tie_bit_for_bit():
    rng = rng_stream(8, "sel")
    train_x = rng.random((40, 2))
    train_y = rng.normal(size=40)
    val_x = rng.random((12, 2))
    val_y = rng.normal(size=12)
    model = ExpressionModel("sin(3*x1) + x2", 2)
    # two bandwidths inside the widest gap between sorted window radii hold
    # the same training points for every validation row
    radii = np.unique(np.abs(val_x[:, None, :] - train_x[None, :, :]).max(axis=2))
    gap = int(np.argmax(np.diff(radii)))
    lo, hi = radii[gap] + np.diff(radii)[gap] * np.array([0.25, 0.75])
    thetas = [HolderParams(0.0, 0.0), HolderParams(0.8, 0.5), HolderParams(1.6, 1.0)]
    sel = select_theta_h(thetas, [hi, lo], train_x, train_y, val_x, val_y, model)
    scores = {(t, h): s for t, h, s in sel.table}
    for theta in thetas:
        assert scores[(theta, lo)] == scores[(theta, hi)]
    assert sel.bandwidth == lo  # ties go to the smaller bandwidth


def test_select_theta_h_needs_a_theta():
    rng = rng_stream(9, "sel")
    model = FunctionModel(lambda xs: pytest.fail("no model query before the check"))
    with pytest.raises(ValueError, match="need at least one theta"):
        select_theta_h(
            [], [0.3], rng.random((10, 2)), rng.normal(size=10), rng.random((5, 2)),
            rng.normal(size=5), model,
        )


def test_select_theta_h_with_no_finite_score_raises_data_error():
    # every squared error overflows; argmin once picked the first of the inf scores
    rng = rng_stream(9, "sel")
    xs = rng.random((60, 2))
    ys = xs[:, 0] + rng.normal(size=60)
    model = FunctionModel(lambda q: 1e200 * q[:, 0])
    with pytest.raises(DataError, match=r"^the selected \(theta, h\) scores inf on validation, not a "
                                        r"finite number; rescale the model or the labels$"):
        select_theta_h(build_grid(60, 2.0).points, [0.5, 0.25], xs[:40], ys[:40], xs[40:], ys[40:], model)


def test_select_theta_with_no_finite_score_raises_data_error():
    # the squares once overflowed with a warning, and min took the first of the inf scores
    rng = rng_stream(10, "sel")
    val_x = rng.random((20, 2))
    cands = {
        HolderParams(0.0, 0.0): FunctionModel(lambda q: 1e200 * q[:, 0]),
        HolderParams(1.0, 0.5): FunctionModel(lambda q: 2e200 * q[:, 0]),
    }
    with pytest.raises(DataError, match=r"^the selected theta scores inf on validation, not a "
                                        r"finite number; rescale the model or the labels$"):
        select_theta(cands, val_x, rng.normal(size=20))


def test_select_theta_raises_when_a_candidate_estimator_overflows():
    # the overflowing candidate once scored inf, with a warning, and the other one won
    rng = rng_stream(10, "sel")
    train_x, val_x = rng.random((20, 2)), rng.random((10, 2))
    cands = {
        theta: PersonalizedEstimator(train_x, labels, ExpressionModel("x1", 2), theta, 2.0, UNIT2)
        for theta, labels in [(HolderParams(0.0, 0.0), np.full(20, 1e308)),
                              (HolderParams(1.0, 0.5), np.zeros(20))]
    }
    with pytest.raises(DataError, match=r"^the prediction at query point 0 = .* overflows float64"):
        select_theta(cands, val_x, np.zeros(10))


@pytest.mark.parametrize("bad", [0.0, -0.1, float("nan")], ids=["zero", "negative", "nan"])
def test_bandwidths_must_be_positive_numbers(bad):
    rng = rng_stream(9, "sel")
    train_x, val_x = rng.random((10, 2)), rng.random((5, 2))
    with pytest.raises(ValueError, match="bandwidths must be positive numbers"):
        select_theta_h(
            [HolderParams(0.0, 0.0)], [0.3, bad], train_x, rng.normal(size=10),
            val_x, rng.normal(size=5), ExpressionModel("x1", 2),
        )
    for bandwidth in (bad, [0.3, bad]):
        with pytest.raises(ConfigError, match="bandwidths must be positive numbers"):
            fit_personalized(
                ExpressionModel("x1", 2), UNIT2, 40, _oracle(),
                FitConfig(bandwidth=bandwidth), seed=0,
            )


_BAD_SETTINGS = [
    ({"bandwidth": []}, "bandwidth list must be nonempty"),
    ({"bandwidth": ["0.2"]}, "bandwidths must be positive numbers"),
    ({"thetas": [(0, 2)]}, "thetas: theta2 must be a number in [0, 1], got 2"),
    ({"thetas": [0.5]}, "thetas: "),
    ({"thetas": []}, "thetas must name at least one pair, got []"),
    ({"c1": np.inf}, "c1 must be a finite positive number, got inf"),
    ({"c1": 1e308}, "c1 must leave m * c1 finite, with m = 5 for n = 60; got 1e+308"),
    ({"c1": "abc"}, "c1 must be a finite positive number, got 'abc'"),
    ({"c1": True}, "c1 must be a finite positive number, got True"),
    ({"pilot_fraction": "0.25"}, "pilot_fraction must be a number in (0, 1), got '0.25'"),
    ({"h_sigma": -1}, "h_sigma must be a finite positive number, got -1"),
    ({"h_sigma": np.inf}, "h_sigma must be a finite positive number, got inf"),
    ({"full_bandwidth_set": "false"}, "full_bandwidth_set must be true or false, got 'false'"),
    ({"synthetic_cap": 0}, "synthetic_cap must be a positive integer, got 0"),
    ({"synthetic_cap": 5.0}, "synthetic_cap must be a positive integer, got 5.0"),
    # the small-domain retrieval never reads the split, so the check is validate's alone
    ({"split": "bogus"}, "unknown split mode 'bogus' (use 'reuse' or 'strict')"),
]


@pytest.mark.parametrize("fitter", ["budgeted", "small-domain", "pool"])
@pytest.mark.parametrize(
    "setting, message", _BAD_SETTINGS, ids=[
        "empty-bandwidths", "string-bandwidth", "theta2-above-1", "theta-not-a-pair", "empty-thetas",
        "c1-inf", "c1-overflow",
        "c1-string", "c1-bool", "pilot-fraction-string", "h-sigma-negative", "h-sigma-inf",
        "full-set-string", "cap-zero", "cap-float", "split-unknown",
    ],
)
def test_bad_fit_settings_fail_before_the_first_label(fitter, setting, message):
    config = FitConfig(**setting)
    model = ExpressionModel("x1", 2)
    pool_x = rng_stream(3, "pool").random((200, 2))
    oracle = PoolOracle(pool_x, pool_x[:, 0]) if fitter == "pool" else _oracle()
    with pytest.raises(ConfigError) as err:
        if fitter == "pool":
            fit_personalized_pool(model, UNIT2, 60, 15, pool_x, oracle=oracle, config=config)
        elif fitter == "budgeted":
            fit_personalized(model, UNIT2, 60, oracle, config)
        else:
            fit_personalized_small_domain(model, UNIT2, 60, oracle, config)
    assert str(err.value).startswith(message)
    assert oracle.labels_issued == 0


def test_validate_returns_the_checked_copy():
    config = FitConfig(c1=3, pilot_fraction=1 / 3, bandwidth=[1, 0.5], h_sigma=1,
                       thetas=[(0, 0), HolderParams(1.0, 0.5)])
    checked = config.validate()
    assert config.c1 == 3 and config.thetas[0] == (0, 0)  # the input is left alone
    assert type(checked.c1) is float and type(checked.h_sigma) is float
    assert checked.bandwidth == (1.0, 0.5) and all(type(h) is float for h in checked.bandwidth)
    assert checked.thetas == (HolderParams(0.0, 0.0), HolderParams(1.0, 0.5))
    assert FitConfig(bandwidth=np.float64(0.2)).validate().bandwidth == 0.2
    assert checked.validate() == checked


def test_validate_parses_a_numeric_bandwidth_string():
    assert FitConfig(bandwidth="0.2").validate().bandwidth == 0.2
    assert FitConfig(bandwidth="inf").validate().bandwidth == np.inf
    with pytest.raises(ConfigError, match="^bandwidth must be 'cv', 'rule', a number, or a list$"):
        FitConfig(bandwidth="abc").validate()
    with pytest.raises(ConfigError, match="^bandwidths must be positive numbers, got -0.2$"):
        FitConfig(bandwidth="-0.2").validate()


def test_fit_config_with_theta_pairs_serializes():
    config = FitConfig(thetas=[(0, 0), (1, 0.5)])
    fit = fit_personalized(ExpressionModel("x1", 2), UNIT2, 40, _oracle(), config, seed=1)
    assert fit.to_dict()["config"]["thetas"] == [[0.0, 0.0], [1.0, 0.5]]
    assert fit.theta in (HolderParams(0.0, 0.0), HolderParams(1.0, 0.5))


def test_infinite_bandwidth_is_the_global_mean_window():
    config = FitConfig(bandwidth=np.inf, thetas=(HolderParams(0.0, 0.0),))
    fit = fit_personalized(ExpressionModel("x1", 2), UNIT2, 40, _oracle(), config, seed=3)
    assert fit.bandwidth == np.inf
    # with theta1 = 0 every prediction is the mean training label
    want = fit.estimator.train_y.mean()
    assert fit.estimator.predict(np.array([0.2, 0.9])) == pytest.approx(want, rel=1e-12)


def test_cv_bandwidths_whose_windows_are_all_empty_still_fit():
    # no validation point has a training point within 2e-4, so the (row, rung)
    # bins of its one row block get no pair at all
    scenario = scenario_regression()
    model = scenario.make_pretrained(1000, 3)
    config = FitConfig(bandwidth=(1e-4, 2e-4))
    fit = fit_personalized(model, scenario.domain, 300, scenario.make_oracle(), config, seed=1)
    assert fit.bandwidth in (1e-4, 2e-4) and np.isfinite(fit.score)


def test_select_theta_h_zero_score_when_model_is_truth():
    rng = rng_stream(5, "sel")

    def f(xs):
        xs = np.atleast_2d(xs)
        return np.abs(xs[:, 0]) + 0.5 * np.abs(xs[:, 1])

    model = FunctionModel(f)
    train_x = rng.random((40, 2))
    train_y = f(train_x)  # noiseless, truth equals the model
    val_x = rng.random((12, 2))
    val_y = f(val_x)
    thetas = [HolderParams(0.0, 0.0), HolderParams(2.0, 0.0), HolderParams(2.0, 1.0)]
    sel = select_theta_h(thetas, [0.5, 0.25], train_x, train_y, val_x, val_y, model)
    # a wide band makes smoothing a no-op, so residuals vanish identically
    assert sel.score <= 1e-22


def test_select_theta_h_matches_brute_force_grid():
    rng = rng_stream(6, "sel")
    for _ in range(3):
        thetas = [
            HolderParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
            for _ in range(3)
        ]
        bandwidths = sorted(float(h) for h in rng.uniform(0.2, 0.8, size=3))
        train_x = rng.random((20, 2))
        train_y = rng.normal(size=20)
        model = ExpressionModel("sin(3*x1) + x2", 2)
        val_x = rng.random((10, 2))
        val_y = rng.normal(size=10)
        sel = select_theta_h(thetas, bandwidths, train_x, train_y, val_x, val_y, model)
        want, rows = brute_force_select(
            [(t, h) for h in bandwidths for t in thetas],
            train_x, train_y, model, val_x, val_y,
        )
        assert (sel.theta, sel.bandwidth) == (want[0], want[1])
        assert sel.score == pytest.approx(want[2], rel=1e-9)


def _oracle(f=None, sigma=1.0):
    f_star = f or (lambda xs: np.abs(np.atleast_2d(xs)[:, 0]))
    return SyntheticOracle(f_star, GaussianNoise(sigma, dim=2))


def test_fit_personalized_minimal_budget_smoke():
    fit = fit_personalized(ExpressionModel("0.2", 2), UNIT2, 16, _oracle(), seed=0)
    assert fit.estimator.bandwidth > 0
    assert np.isfinite(fit.estimator.predict(np.array([0.5, 0.5])))
    assert fit.score == min(row[2] for row in fit.score_table)


def test_score_table_columns_give_its_rows():
    def fit(seed):
        return fit_personalized(ExpressionModel("x1*x2", 2), UNIT2, 120, _oracle(), seed=seed)

    first = fit(1)
    table = first.score_table
    columns = first.to_dict()["score_table"]
    rows = [(t.theta1, t.theta2, h, s) for t, h, s in table]
    assert list(zip(columns["theta1"], columns["theta2"], columns["bandwidth"], columns["score"])) == rows
    assert sorted(columns) == ["bandwidth", "score", "theta1", "theta2"]
    assert len(table) == len(rows) == len(columns["score"]) > 100
    pick = rng_stream(1, "pick").integers(len(table))
    assert table[pick] == table[int(pick)] == list(table)[int(pick)]
    assert table[-1] == list(table)[-1]
    assert all(type(value) is float for value in table[pick][1:])
    with pytest.raises(IndexError):
        table[len(table)]
    assert table.columns() == fit(1).score_table.columns()
    assert table.columns() != fit(2).score_table.columns()


def test_fit_personalized_report_consistency_and_no_harm_on_validation():
    fit = fit_personalized(ExpressionModel("x1*x2", 2), UNIT2, 120, _oracle(), seed=1)
    table = fit.score_table
    assert fit.score == min(r[2] for r in table)
    # candidates with theta1 = 0 are the target-only estimates; the winner
    # can never score worse than the best of them
    single_task_best = min(r[2] for r in table if r[0].theta1 == 0.0)
    assert fit.score <= single_task_best


def test_fit_personalized_noiseless_truth_model_validates_to_zero():
    def f(xs):
        xs = np.atleast_2d(xs)
        return np.abs(xs[:, 0]) + 0.3 * xs[:, 1]

    oracle = SyntheticOracle(f, GaussianNoise(0.0), UNIT2)
    fit = fit_personalized(FunctionModel(f), UNIT2, 64, oracle, seed=8)
    assert fit.score <= 1e-18  # a wide-band candidate reproduces the labels
    xs = UNIT2.uniform(50, rng_stream(8, "t"))
    assert np.abs(fit.estimator.predict_batch(xs) - f(xs)).max() <= 1e-9


def test_fit_personalized_rule_bandwidth_mode():
    cfg = FitConfig(bandwidth="rule")
    fit = fit_personalized(ExpressionModel("0", 2), UNIT2, 60, _oracle(), cfg, seed=2)
    want = rule_bandwidth(fit.theta.theta2, 60, 2, fit.mean_sigma, UNIT2)
    assert fit.bandwidth == pytest.approx(want)


def test_fit_small_domain_bandwidth_constraint():
    nu = 0.25
    dom = Domain.cube(2, 0.0, nu)
    ok = FitConfig(bandwidth=nu)
    fit = fit_personalized_small_domain(ExpressionModel("0", 2), dom, 40, _oracle(), ok, seed=3)
    assert fit.bandwidth == nu
    bad = FitConfig(bandwidth=1.01 * nu)
    with pytest.raises(ConfigError):
        fit_personalized_small_domain(ExpressionModel("0", 2), dom, 40, _oracle(), bad, seed=3)


def test_small_domain_rule_fit_reports_the_validation_mean_sigma_at_its_h_sigma():
    dom = Domain.cube(2, 0.0, 0.25)
    cfg = FitConfig(bandwidth="rule", h_sigma=0.05)
    fit = fit_personalized_small_domain(ExpressionModel("0", 2), dom, 80, _oracle(), cfg, seed=3)
    # retrieval's draws again: the first 20 rows are the validation block
    rng = rng_stream(3, "retrieval")
    xs = dom.uniform(80, rng)
    ys = _oracle().label(xs, rng)
    assert np.array_equal(fit.estimator.train_x, xs[20:])
    field = VarianceField(xs[:20], ys[:20], 0.05, dom)
    assert fit.mean_sigma == plug_in_density(field).mean_sigma
    assert fit.mean_sigma != fit_personalized_small_domain(
        ExpressionModel("0", 2), dom, 80, _oracle(), FitConfig(bandwidth="rule"), seed=3
    ).mean_sigma
    want = rule_bandwidth(fit.theta.theta2, 80, 2, fit.mean_sigma, dom)
    assert fit.bandwidth == want


def test_fit_small_domain_unit_box_runs():
    fit = fit_personalized_small_domain(ExpressionModel("x1", 2), UNIT2, 40, _oracle(), seed=4)
    assert UNIT2.contains(fit.estimator.train_x).all()
    assert fit.bandwidth <= 1.0


def test_fit_small_domain_error_shrinks_with_domain():
    # same truth and budget on shrinking boxes: average test error drops
    def f_star(xs):
        xs = np.atleast_2d(xs)
        return np.abs(xs[:, 0]) + np.abs(xs[:, 1] + 0.3) ** 0.5

    model = ExpressionModel("abs(x1) + sqrt(abs(x2 + 0.3))", 2)  # truth itself
    medians = []
    for nu in (0.8, 0.4, 0.2):
        dom = Domain.cube(2, 0.0, nu)
        errs = []
        for seed in range(20):
            oracle = SyntheticOracle(f_star, GaussianNoise(1.0), dom)
            fit = fit_personalized_small_domain(
                FunctionModel(lambda xs: np.zeros(len(np.atleast_2d(xs)))),
                dom, 200, oracle, seed=seed,
            )
            test_x = dom.uniform(300, rng_stream(seed, f"nu-{nu}"))
            err = np.mean((fit.estimator.predict_batch(test_x) - f_star(test_x)) ** 2)
            errs.append(err)
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_fit_personalized_pool_smoke():
    rng = rng_stream(7, "pool")
    pool_x = rng.random((300, 2))
    pool_y = np.abs(pool_x[:, 0]) + rng.normal(size=300)
    fit = fit_personalized_pool(
        ExpressionModel("abs(x1)", 2), UNIT2, 80, 20, pool_x, pool_y, seed=5
    )
    assert len(fit.estimator.train_x) == 60
    assert np.isfinite(fit.estimator.predict(np.array([0.4, 0.6])))


@pytest.mark.parametrize("n, pilot_fraction", [(80, 0.25), (80, 0.4), (12, 0.25)])
def test_a_pool_fit_without_a_pilot_size_takes_it_from_the_pilot_fraction(n, pilot_fraction):
    rng = rng_stream(9, "pool")
    pool_x = rng.random((300, 2))
    pool_y = np.abs(pool_x[:, 0]) + rng.normal(size=300)
    model = ExpressionModel("abs(x1)", 2)
    config = FitConfig(pilot_fraction=pilot_fraction, bandwidth="rule")
    fit = fit_personalized_pool(model, UNIT2, n, None, pool_x, pool_y, config=config, seed=5)
    pilot = max(4, round(pilot_fraction * n))
    want = fit_personalized_pool(model, UNIT2, n, pilot, pool_x, pool_y, config=config, seed=5)
    assert fit.to_dict() == want.to_dict()
    assert len(fit.estimator.train_x) == n - pilot


_BENCHMARK_POOL_REPORT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from helpers import benchmark_pool_fit
print(json.dumps(benchmark_pool_fit().to_dict(), sort_keys=True, default=repr))
"""


def test_the_benchmark_pool_fit_converges_whatever_the_openblas_threads():
    # a Newton search that halved its step until the log-likelihood did not fall spun
    # all 100 iterations on this fit under two OpenBLAS threads, and stopped after 35
    # under one, so the report depended on the thread count
    fit = benchmark_pool_fit()
    assert fit.retrieval.logistic_converged
    assert fit.retrieval.logistic_iterations <= 10
    src = os.path.dirname(os.path.dirname(sys.modules["fsp"].__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _BENCHMARK_POOL_REPORT, os.path.dirname(__file__)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == json.dumps(fit.to_dict(), sort_keys=True, default=repr)


def test_fit_personalized_pool_without_a_domain_uses_the_pool_bounding_box():
    rng = rng_stream(8, "pool")
    pool_x = rng.random((300, 2)) * 0.6 + 0.2
    pool_y = np.abs(pool_x[:, 0]) + rng.normal(size=300)
    model = ExpressionModel("abs(x1)", 2)
    config = FitConfig(bandwidth="cv")
    fit = fit_personalized_pool(model, None, 80, 20, pool_x, pool_y, config=config, seed=5)
    want = fit_personalized_pool(
        model, Domain.bounding(pool_x), 80, 20, pool_x, pool_y, config=config, seed=5
    )
    assert (fit.theta, fit.bandwidth) == (want.theta, want.bandwidth)
    assert fit.score_table.columns() == want.score_table.columns()
    assert fit.estimator.domain.to_dict() == Domain.bounding(pool_x).to_dict()
    assert np.array_equal(fit.estimator.predict_batch(pool_x), want.estimator.predict_batch(pool_x))


def test_fit_single_task_ignores_model_entirely():
    fit = fit_single_task(UNIT2, 60, _oracle(), seed=6)
    assert fit.theta == HolderParams(0.0, 0.0)
    # predictions equal the plain local mean of training responses
    x = np.array([0.5, 0.5])
    mask = np.abs(fit.estimator.train_x - x).max(axis=1) <= fit.bandwidth
    want = fit.estimator.train_y[mask].sum() / max(1, mask.sum())
    assert fit.estimator.predict(x) == pytest.approx(want, rel=1e-12)


def test_default_bandwidth_set_shapes():
    assert default_bandwidth_set(100, 1.0) == pytest.approx([1.0 / k for k in range(1, 11)])
    assert len(default_bandwidth_set(100, 1.0, full=True)) == 100
    assert default_bandwidth_set(9, 0.3)[0] == pytest.approx(0.3)


_HIGH_DIM_RULE_FIT = """\
import sys
from fsp import Domain, ExpressionModel, FitConfig, GaussianNoise, SyntheticOracle, fit_personalized
dim = int(sys.argv[1])
domain = Domain.cube(dim)
oracle = SyntheticOracle(
    ExpressionModel("x1 + 0.5 * x2", dim).predict_batch, GaussianNoise("0.2 + x1", dim=dim), domain
)
fit = fit_personalized(ExpressionModel("x1", dim), domain, 400, oracle, FitConfig(bandwidth="rule"), seed=3)
print(fit.mean_sigma, fit.bandwidth)
"""


@pytest.mark.parametrize("dim", [8, 10])
def test_a_budgeted_rule_fit_above_four_dimensions_stays_bounded(dim):
    # a midpoint grid of 8^d quadrature nodes would take about 2 GB at d = 8; the
    # child runs under its own 512 MB address-space cap and a wall-clock limit,
    # so a blow-up fails fast instead of exhausting the host's memory
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = os.path.dirname(os.path.dirname(sys.modules["fsp"].__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # one thread's buffers fit under the cap
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _HIGH_DIM_RULE_FIT, str(dim)], capture_output=True, text=True,
        env=env, timeout=60, preexec_fn=cap_address_space,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    mean_sigma, bandwidth = (float(v) for v in done.stdout.split())
    # sigma(x) = 0.2 + x1 averages 0.7 over the cube
    assert mean_sigma == pytest.approx(0.7, abs=0.15)
    assert 0 < bandwidth <= 0.5
