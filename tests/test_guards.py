"""Each library-level argument guard raises the error and the message it writes.

These guards sit behind the CLI's own checks, so only a caller of the library
reaches them."""

import re

import numpy as np
import pytest

import fsp
from fsp import (
    BudgetError,
    ConfigError,
    Domain,
    DomainError,
    ExpressionModel,
    GaussianNoise,
    HolderParams,
    PersonalizedEstimator,
    PoolOracle,
    SyntheticOracle,
    TableModel,
    VarianceField,
    fit_density_ratio,
    fit_personalized_pool,
    rejection_sample,
    retrieve_budgeted,
    retrieve_from_pool,
    retrieve_uniform_small_domain,
    run_experiment,
    select_theta_h,
    uniform_density,
)
from fsp.core import rng_stream
from fsp.sampling import weighted_sample_without_replacement

UNIT = Domain.cube(2)
MODEL = ExpressionModel("x1", 2)


def _points(n):
    return rng_stream(0, "guards").random((n, 2))


def _oracle():
    return SyntheticOracle(lambda xs: xs[:, 0], GaussianNoise(0.1), UNIT)


def _drained_pool_oracle():
    """A PoolOracle of 20 points of which 2 are still unlabeled."""
    oracle = PoolOracle(_points(20), np.zeros(20))
    oracle.label_indices(np.arange(18))
    return oracle


GUARDS = {
    "rejection_sample count": (
        lambda: rejection_sample(uniform_density(UNIT), -1, rng_stream(0, "g")),
        ValueError, "count must be nonnegative"),
    "retrieve_budgeted pilot_fraction": (
        lambda: retrieve_budgeted(20, 1.5, UNIT, _oracle(), rng_stream(0, "g")),
        ConfigError, "pilot_fraction must lie in (0, 1)"),
    "retrieve_uniform_small_domain n": (
        lambda: retrieve_uniform_small_domain(3, UNIT, _oracle(), 0.5, rng_stream(0, "g")),
        ConfigError, "uniform retrieval needs n >= 4"),
    "retrieve_uniform_small_domain val_fraction": (
        lambda: retrieve_uniform_small_domain(10, UNIT, _oracle(), 1.0, rng_stream(0, "g")),
        ConfigError, "val_fraction must lie in (0, 1)"),
    "fit_density_ratio empty class": (
        lambda: fit_density_ratio(np.empty((0, 2)), _points(5)),
        ValueError, "both classes must be nonempty"),
    "weighted_sample_without_replacement count": (
        lambda: weighted_sample_without_replacement([1.0, 2.0], 3, rng_stream(0, "g")),
        ValueError, "cannot draw more items than available"),
    "weighted_sample_without_replacement weights": (
        lambda: weighted_sample_without_replacement([1.0, -1.0], 1, rng_stream(0, "g")),
        ValueError, "weights must be nonnegative"),
    "retrieve_from_pool pilot": (
        lambda: retrieve_from_pool(10, 3, _points(20), _oracle(), rng_stream(0, "g")),
        ConfigError, "need n > pilot >= 4, got n=10, pilot=3"),
    "retrieve_from_pool drained oracle": (
        lambda: retrieve_from_pool(10, 4, _points(20), _drained_pool_oracle(), rng_stream(0, "g")),
        BudgetError, "pool oracle cannot supply enough labels"),
    "run_experiment repetitions": (
        lambda: run_experiment(fsp.scenario_regression(), repetitions=0),
        ValueError, "repetitions must be >= 1"),
    "select_theta_h bandwidths": (
        lambda: select_theta_h([HolderParams(0.0, 0.0)], [], _points(5), np.zeros(5), _points(3),
                               np.zeros(3), MODEL),
        ValueError, "need at least one bandwidth"),
    "fit_personalized_pool labels": (
        lambda: fit_personalized_pool(MODEL, None, 10, 4, _points(20)),
        ConfigError, "provide pool labels or an oracle"),
    "Domain.grid_axes points": (
        lambda: UNIT.grid_axes(1),
        ValueError, "need at least 2 quadrature points per dimension"),
    "PersonalizedEstimator training samples": (
        lambda: PersonalizedEstimator(np.empty((0, 2)), np.empty(0), MODEL, (0.0, 0.0), 0.3, UNIT),
        ValueError, "need at least one training sample"),
    "VarianceField h_sigma": (
        lambda: VarianceField(_points(5), np.zeros(5), 0.0, UNIT),
        ValueError, "h_sigma must be positive"),
    "TableModel points": (
        lambda: TableModel(np.empty((0, 2)), np.empty(0)),
        ValueError, "table needs at least one stored point"),
    "GaussianNoise expression": (
        lambda: GaussianNoise("0.1 * x1"),
        ConfigError, "sigma expressions need the covariate dimension"),
    "PoolOracle index": (
        lambda: PoolOracle(_points(20), np.zeros(20)).label_indices([20]),
        DomainError, "pool index out of range"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_an_argument_guard_raises_its_message(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
