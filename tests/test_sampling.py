import warnings

import numpy as np
import pytest
import scipy.stats

from fsp import (
    ConfigError,
    Domain,
    EnvelopeError,
    GaussianNoise,
    PoolOracle,
    SamplingDensity,
    SeparationError,
    SyntheticOracle,
    VarianceField,
    fit_density_ratio,
    pilot_bandwidth,
    plug_in_density,
    rejection_sample,
    retrieve_budgeted,
    retrieve_from_pool,
    retrieve_uniform_small_domain,
    scenario_classification,
    uniform_density,
)
from fsp import sampling
from fsp.core import DataError, DomainError, rng_stream
from fsp.estimator import grid_cells
from fsp.sampling import weighted_sample_without_replacement
from helpers import benchmark_pool_fit, reference_rejection_sample

UNIT1 = Domain.cube(1)
UNIT2 = Domain.cube(2)


class _SigmaField(VarianceField):
    """Variance field with an injected sigma function, for density tests."""

    def __init__(self, domain, sigma_fn):
        super().__init__(np.zeros((1, domain.dim)) + 0.5, np.zeros(1), 1.0, domain)
        self._fn = sigma_fn

    def variance_batch(self, xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        return np.asarray(self._fn(xs), float) ** 2


def _linear_density(safety=1.1):
    # sigma(x) = x on [0, 1]: normalized density 2x with floor 0.01 * 0.5
    return plug_in_density(_SigmaField(UNIT1, lambda xs: xs[:, 0]), 512, safety=safety)


def test_plug_in_density_constant_sigma_is_uniform():
    density = plug_in_density(_SigmaField(UNIT2, lambda xs: np.full(len(xs), 2.5)), 16)
    xs = rng_stream(0, "pts").random((50, 2))
    pdf = density.pdf(xs)
    assert pdf == pytest.approx(np.ones(50), rel=1e-9)
    assert not density.uniform_fallback


def test_plug_in_density_linear_sigma_mass():
    density = _linear_density()
    centers, cell = UNIT1.grid(2000)
    pdf = density.pdf(centers)
    assert float(pdf.sum() * cell) == pytest.approx(1.0, abs=1e-6)
    lower = float(pdf[centers[:, 0] <= 0.5].sum() * cell)
    assert lower == pytest.approx(0.25, abs=0.01)  # floor shifts it only slightly


def test_plug_in_density_zero_sigma_falls_back_to_uniform():
    density = plug_in_density(_SigmaField(UNIT2, lambda xs: np.zeros(len(xs))), 16)
    assert density.uniform_fallback
    assert density.pdf(np.array([[0.3, 0.7]]))[0] == pytest.approx(1.0)


def test_rejection_uniform_acceptance_rate():
    rng = rng_stream(1, "rej")
    _, diag = rejection_sample(uniform_density(UNIT2), 20000, rng, return_diagnostics=True)
    assert diag["acceptance_rate"] == pytest.approx(1 / 1.1, abs=0.02)
    rng = rng_stream(1, "rej")
    _, diag = rejection_sample(
        uniform_density(UNIT2, safety=1.0), 20000, rng, return_diagnostics=True
    )
    assert diag["acceptance_rate"] == pytest.approx(1.0, abs=1e-12)


def test_rejection_counts_envelope_violations():
    # pdf(x) = 2x on [0, 1] has supremum 2; an envelope of 1 is too low
    low = SamplingDensity(domain=UNIT1, weight=lambda xs: 2 * np.atleast_2d(xs)[:, 0],
                          normalization=1.0, envelope=1.0)
    _, diag = rejection_sample(low, 2000, rng_stream(6, "rej"), return_diagnostics=True)
    assert diag["envelope_violations"] > 0
    _, diag = rejection_sample(_linear_density(), 2000, rng_stream(6, "rej"),
                               return_diagnostics=True)
    assert diag["envelope_violations"] == 0


def test_shipped_scenario_retrieval_has_no_envelope_violations():
    scenario = scenario_classification()
    rr = retrieve_budgeted(1000, 0.25, scenario.domain, scenario.make_oracle(),
                           rng_stream(7, "retrieval"))
    assert rr.diagnostics.envelope_violations == 0
    assert rr.diagnostics.to_dict()["envelope_violations"] == 0


def test_rejection_count_zero_and_support():
    density = _linear_density()
    out = rejection_sample(density, 0, rng_stream(2, "rej"))
    assert out.shape == (0, 1)
    pts = rejection_sample(density, 500, rng_stream(2, "rej"))
    assert UNIT1.contains(pts).all()


def test_rejection_linear_density_ks():
    # cdf of the floored density is within ~1e-3 of x^2; KS stat must be small
    density = _linear_density()
    draws = rejection_sample(density, 100_000, rng_stream(3, "rej"))[:, 0]
    stat = scipy.stats.kstest(draws, lambda t: np.clip(t, 0, 1) ** 2).statistic
    assert stat < 0.01


def test_rejection_chi_square_against_quadrature_masses():
    density = _linear_density()
    draws = rejection_sample(density, 100_000, rng_stream(4, "rej"))[:, 0]
    edges = np.linspace(0.0, 1.0, 21)
    counts, _ = np.histogram(draws, bins=edges)
    centers, cell = UNIT1.grid(4000)
    pdf = density.pdf(centers)
    masses = np.array(
        [
            pdf[(centers[:, 0] >= lo) & (centers[:, 0] < hi)].sum() * cell
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )
    masses /= masses.sum()
    p = scipy.stats.chisquare(counts, masses * counts.sum()).pvalue
    assert p > 0.001


def test_rejection_envelope_monitor_raises():
    bad = SamplingDensity(
        domain=UNIT1,
        weight=lambda xs: np.ones(len(np.atleast_2d(xs))),
        normalization=1.0,
        envelope=1e6,  # deliberately absurd: acceptance ~1e-6
    )
    with pytest.raises(EnvelopeError):
        rejection_sample(bad, 10, rng_stream(5, "rej"))


def _oracle(sigma, dim=1, f=None):
    f_star = f or (lambda xs: np.zeros(len(xs)))
    return SyntheticOracle(f_star, GaussianNoise(sigma, dim=dim))


def test_retrieve_budgeted_structure():
    oracle = _oracle(1.0, dim=2)
    rr = retrieve_budgeted(8, 0.25, UNIT2, oracle, rng_stream(6, "r"))
    assert len(rr.samples) == 8
    assert oracle.labels_issued == 8
    assert np.array_equal(rr.samples.train_idx, np.arange(2, 8))
    assert np.array_equal(rr.samples.val_idx, np.arange(2))  # reuse mode
    rr2 = retrieve_budgeted(8, 0.25, UNIT2, _oracle(1.0, dim=2), rng_stream(6, "r"), split="strict")
    assert np.array_equal(rr2.samples.val_idx, np.arange(1, 2))
    with pytest.raises(ConfigError):
        retrieve_budgeted(4, 0.25, UNIT2, oracle, rng_stream(6, "r"))


def test_plug_in_density_records_the_mean_sigma_of_its_field():
    rr = retrieve_budgeted(200, 0.25, UNIT2, _oracle(1.0, dim=2), rng_stream(8, "r"))
    pilot = slice(0, 50)  # under split="reuse" the whole pilot feeds the field
    field = VarianceField(rr.samples.x[pilot], rr.samples.y[pilot], pilot_bandwidth(200, 2), UNIT2)
    assert rr.mean_sigma == float(np.sqrt(field.variance_batch(UNIT2.quadrature_nodes())).mean())
    zero = plug_in_density(_SigmaField(UNIT2, lambda xs: np.zeros(len(xs))), 16)
    assert zero.uniform_fallback and zero.mean_sigma == 0.0


def test_bad_split_costs_no_label():
    oracle = _oracle(1.0, dim=2)
    with pytest.raises(ConfigError, match="unknown split mode 'bogus'"):
        retrieve_budgeted(100, 0.25, UNIT2, oracle, rng_stream(6, "r"), split="bogus")
    assert oracle.labels_issued == 0
    pool_x = rng_stream(7, "pool").random((200, 2))
    pool = PoolOracle(pool_x, np.zeros(200))
    with pytest.raises(ConfigError, match="unknown split mode 'bogus'"):
        retrieve_from_pool(100, 20, pool_x, pool, rng_stream(7, "r"), split="bogus")
    assert pool.labels_issued == 0


def test_pool_outside_the_domain_costs_no_label():
    pool_x = rng_stream(7, "pool").random((200, 2))
    for domain, message in (
        (Domain.cube(1), "pool point has dimension 2, domain has 1"),
        (Domain.cube(2, 0.0, 0.5), "pool point .* lies outside the domain"),
    ):
        pool = PoolOracle(pool_x, np.zeros(200))
        with pytest.raises(DomainError, match=message):
            retrieve_from_pool(100, 20, pool_x, pool, rng_stream(7, "r"), domain=domain)
        assert pool.labels_issued == 0


def test_retrieve_budgeted_homoskedastic_nearly_uniform():
    # constant sigma makes the plug-in density near-uniform; the pilot
    # estimate carries ~10% ripple, so p-values are depressed but the draws
    # stay far from any real tilt (compare the 3:1 heteroskedastic case)
    pvals = []
    worst = []
    for seed in range(20):
        oracle = _oracle(1.0, dim=2)
        rr = retrieve_budgeted(4000, 0.25, UNIT2, oracle, rng_stream(seed, "chi"))
        pts = rr.samples.x[rr.samples.train_idx]
        counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=[4, 4], range=[[0, 1], [0, 1]])
        pvals.append(scipy.stats.chisquare(counts.ravel()).pvalue)
        worst.append(np.abs(counts.ravel() / counts.sum() * 16 - 1).max())
    assert np.median(pvals) > 0.001
    assert np.median(worst) < 0.35


def test_retrieve_budgeted_heteroskedastic_tilts_draws():
    ratios = []
    for seed in range(20):
        oracle = _oracle("2*x1", dim=1)
        rr = retrieve_budgeted(4000, 0.25, UNIT1, oracle, rng_stream(seed, "het"))
        pts = rr.samples.x[rr.samples.train_idx][:, 0]
        upper = (pts >= 0.5).sum()
        ratios.append(upper / max(1, (pts < 0.5).sum()))
    assert 2.2 <= np.median(ratios) <= 3.8  # ideal sigma-weighted mass ratio is 3


def test_retrieve_uniform_structure_and_support():
    small = Domain.cube(2, 0.0, 0.01)
    oracle = _oracle(0.5, dim=2)
    rr = retrieve_uniform_small_domain(10, small, oracle, 0.2, rng_stream(7, "u"))
    assert len(rr.samples) == 10
    assert np.array_equal(rr.samples.val_idx, np.arange(2))
    assert np.array_equal(rr.samples.train_idx, np.arange(2, 10))
    assert small.contains(rr.samples.x).all()
    field = VarianceField(rr.samples.val_x, rr.samples.val_y, pilot_bandwidth(10, 2), small)
    assert rr.mean_sigma == plug_in_density(field).mean_sigma


def test_retrieve_uniform_mean_clt():
    nu = 0.2
    dom = Domain.cube(2, 0.0, nu)
    rr = retrieve_uniform_small_domain(10_000, dom, _oracle(0.0, dim=2), 0.1, rng_stream(8, "u"))
    se = nu / np.sqrt(12 * len(rr.samples))
    assert np.abs(rr.samples.x.mean(axis=0) - nu / 2).max() < 3 * se


def test_density_ratio_null_case():
    slopes = []
    for seed in range(20):
        rng = rng_stream(seed, "null")
        fit = fit_density_ratio(rng.random((10_000, 2)), rng.random((10_000, 2)))
        assert fit.converged
        slopes.append(np.linalg.norm(fit.slope))
    assert np.median(slopes) <= 0.1


def _exp_tilted_draws(count, beta, rng):
    density = SamplingDensity(
        domain=UNIT2,
        weight=lambda xs: np.exp(np.atleast_2d(xs) @ np.asarray(beta)),
        normalization=float(np.mean(np.exp(UNIT2.grid(64)[0] @ np.asarray(beta)))),
        envelope=1.2 * float(np.exp(np.abs(beta).sum()))
        / float(np.mean(np.exp(UNIT2.grid(64)[0] @ np.asarray(beta)))),
    )
    return rejection_sample(density, count, rng)


def test_density_ratio_recovers_known_slope():
    target = np.array([1.0, -1.0])
    est = []
    for seed in range(20):
        rng = rng_stream(seed, "ratio")
        pool = rng.random((10_000, 2))
        tilted = _exp_tilted_draws(10_000, target, rng)
        fit = fit_density_ratio(pool, tilted)
        est.append(fit.slope)
    med = np.median(np.array(est), axis=0)
    assert np.abs(med - target).max() <= 0.15


def test_density_ratio_rank_error():
    with pytest.raises(np.linalg.LinAlgError):
        fit_density_ratio(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))


def test_density_ratio_separation_error():
    rng = rng_stream(9, "sep")
    a = rng.random((200, 1)) * 0.4
    b = rng.random((200, 1)) * 0.4 + 0.6
    with pytest.raises(SeparationError):
        fit_density_ratio(a, b)


def test_a_separated_density_ratio_fit_raises_without_a_numpy_warning():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((500, 10)), rng.standard_normal((10, 10)) + 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp(-score) overflows to inf for these scores
        with pytest.raises(SeparationError):
            fit_density_ratio(a, b)


def _ratio_case(seed):
    """Two Gaussian clouds of 20 to 2,000 points in 1 to 3 dimensions, at scales
    0.01 to 10, the second shifted by 0 to 8 scales."""
    rng = np.random.default_rng(seed)
    n0, n1 = rng.integers(20, 2000), rng.integers(20, 2000)
    dim = rng.integers(1, 4)
    shift = rng.choice([0, 0.5, 1, 2, 4, 8])
    scale = rng.choice([0.01, 0.1, 1, 10])
    a = rng.standard_normal((n0, dim)) * scale
    b = rng.standard_normal((n1, dim)) * scale + shift * scale
    return a, b


# the _ratio_case seeds whose clouds separate, by the guard that detects it
_NORM_SEPARATED = {8, 15, 61, 78, 96, 138, 180, 204, 226, 238, 248, 273}
_SATURATED = {
    1, 7, 12, 13, 19, 28, 34, 41, 47, 50, 53, 55, 58, 59, 63, 68, 76, 82, 84, 88, 91, 94, 95, 98,
    105, 109, 112, 116, 118, 124, 126, 141, 143, 147, 150, 155, 157, 170, 171, 172, 179, 183,
    188, 194, 197, 198, 208, 217, 229, 231, 232, 242, 243, 249, 251, 256, 257, 258, 270, 271,
    275, 279, 281, 293,
}


def test_density_ratio_fits_converge_or_detect_separation_by_the_same_guard():
    # a search that halved the Newton step until the log-likelihood did not fall
    # compared values that differ by less than their rounding near the optimum: on
    # seeds 18, 60, 107, 176, 233, 254 and 291 it spun all 100 iterations at one beta,
    # whatever the OpenBLAS threads; the full step converges on them in 4 to 10
    for seed in range(300):
        a, b = _ratio_case(seed)
        if seed in _NORM_SEPARATED or seed in _SATURATED:
            reason = "coefficient norm" if seed in _NORM_SEPARATED else "likelihood saturated"
            with pytest.raises(SeparationError, match=reason):
                fit_density_ratio(a, b)
        else:
            fit = fit_density_ratio(a, b)
            assert fit.converged and fit.iterations <= 15, seed


def test_weighted_wor_no_duplicates_and_full_draw():
    rng = rng_stream(10, "wor")
    w = rng.random(50) + 0.01
    idx = weighted_sample_without_replacement(w, 50, rng)
    assert sorted(idx) == list(range(50))
    idx2 = weighted_sample_without_replacement(w, 20, rng)
    assert len(set(idx2.tolist())) == 20


def test_weighted_wor_prefers_heavy_items():
    rng = rng_stream(11, "wor")
    w = np.ones(1000)
    w[:100] = 25.0
    hits = 0
    for _ in range(200):
        picked = weighted_sample_without_replacement(w, 10, rng)
        hits += (picked < 100).sum()
    # heavy tenth of the pool carries ~73% of the total weight
    assert hits / 2000 > 0.5


def test_retrieve_from_pool_label_everything():
    rng = rng_stream(12, "pool")
    pool_x = rng.random((30, 2))
    oracle = PoolOracle(pool_x, np.arange(30, dtype=float))
    rr = retrieve_from_pool(30, 6, pool_x, oracle, rng_stream(12, "r"))
    assert len(rr.samples) == 30
    assert oracle.labels_issued == 30
    assert sorted(rr.diagnostics.pool_indices.tolist()) == list(range(30))


def test_retrieve_from_pool_without_replacement_and_budget():
    rng = rng_stream(13, "pool")
    pool_x = rng.random((500, 2))
    oracle = PoolOracle(pool_x, rng.normal(size=500))
    rr = retrieve_from_pool(100, 20, pool_x, oracle, rng_stream(13, "r"))
    idx = rr.diagnostics.pool_indices
    assert len(idx) == 100
    assert len(set(idx.tolist())) == 100
    assert oracle.labels_issued == 100
    assert np.array_equal(rr.samples.train_idx, np.arange(20, 100))
    with pytest.raises(ConfigError, match="budget exceeds pool: n=600 > 500 pool points"):
        retrieve_from_pool(600, 20, pool_x, oracle, rng_stream(13, "r"))
    assert oracle.labels_issued == 100  # the check spends no label


def test_a_variance_field_whose_moments_overflow_raises_without_a_numpy_warning():
    rng = rng_stream(14, "overflow")
    field = VarianceField(rng.random((50, 2)), 1e160 * rng.normal(size=50), 0.3, UNIT2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="moments overflow float64"):
            field.variance_batch(rng.random((20, 2)))


def test_plug_in_density_strictly_positive_after_flooring():
    density = _linear_density()
    centers, _ = UNIT1.grid(512)
    assert density.pdf(centers).min() > 0.0  # the floor keeps every region reachable


def test_retrieve_from_pool_synthetic_cap_flag():
    rng = rng_stream(14, "pool")
    pool_x = rng.random((300, 2))
    oracle = PoolOracle(pool_x, rng.normal(size=300))
    rr = retrieve_from_pool(
        60, 12, pool_x, oracle, rng_stream(14, "r"), synthetic_cap=100
    )
    assert rr.diagnostics.synthetic_cap_applied
    assert rr.diagnostics.synthetic_draws == 100


def test_retrieve_from_pool_homoskedastic_stays_near_uniform():
    pvals = []
    worst = []
    for seed in range(20):
        rng = rng_stream(seed, "pool-homo")
        pool_x = rng.random((8000, 2))
        oracle = SyntheticOracle(lambda xs: np.zeros(len(xs)), GaussianNoise(1.0))
        rr = retrieve_from_pool(1000, 250, pool_x, oracle, rng_stream(seed, "ph"))
        pts = rr.samples.x[rr.samples.train_idx]
        counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=[4, 4], range=[[0, 1], [0, 1]])
        pvals.append(scipy.stats.chisquare(counts.ravel()).pvalue)
        worst.append(np.abs(counts.ravel() / counts.sum() * 16 - 1).max())
    assert np.median(pvals) > 0.001
    assert np.median(worst) < 0.35


def test_retrieve_from_pool_heteroskedastic_over_represents_noisy_half():
    ratios = []
    for seed in range(20):
        rng = rng_stream(seed, "pool-het")
        pool_x = rng.random((20_000, 2))
        oracle = SyntheticOracle(
            lambda xs: np.zeros(len(xs)), GaussianNoise("2*x1", dim=2)
        )
        rr = retrieve_from_pool(2000, 500, pool_x, oracle, rng_stream(seed, "pr"))
        pts = rr.samples.x[rr.samples.train_idx][:, 0]
        ratios.append((pts >= 0.5).sum() / max(1, (pts < 0.5).sum()))
    assert 2.0 <= np.median(ratios) <= 4.0


def _squeeze_field(dim, n, labels, h_sigma, seed, pilot=None):
    rng = rng_stream(seed, "squeeze-field")
    x = rng.random((n, dim)) if pilot is None else pilot(rng)
    return VarianceField(x, labels(x, rng), h_sigma, Domain.cube(dim))


def _heteroskedastic(x, rng):
    return x.sum(axis=1) + (0.1 + 0.9 * x[:, 0]) * rng.standard_normal(len(x))


def _peak_labels(x, rng):
    return (0.1 + 2 * np.exp(-20 * ((x - 0.5) ** 2).sum(axis=1))) * rng.standard_normal(len(x))


def _overflow_pilot(rng):
    # 20 points in a corner that no quadrature node of a 2 x 2 grid reaches
    return np.vstack([0.02 + 0.01 * rng.random((20, 2)), rng.random((180, 2))])


def _overflow_labels(x, rng):
    return np.where((x < 0.03).all(axis=1), 1e154, rng.standard_normal(len(x)))


# name: (field, draws, quadrature points per axis, rows that force a grid for the
# bounds test); at d = 4 and 5, and for 200 draws at d = 2, no grid of a sampler
# batch pays for itself
SQUEEZE_CASES = {
    "d1": lambda: (_squeeze_field(1, 400, _heteroskedastic, pilot_bandwidth(2000, 1), 1), 2000, None, None),
    "d2": lambda: (_squeeze_field(2, 400, _heteroskedastic, pilot_bandwidth(2000, 2), 2), 8000, None, None),
    "d3": lambda: (_squeeze_field(3, 400, _heteroskedastic, 0.25, 3), 25000, None, None),
    "d4": lambda: (_squeeze_field(4, 200, _heteroskedastic, 0.3, 4), 30000, None, 16 * 20**4),
    "d5": lambda: (_squeeze_field(5, 300, _heteroskedastic, 0.3, 5), 40000, None, 16 * 14**5),
    "d2-small-batch": lambda: (
        _squeeze_field(2, 400, _heteroskedastic, pilot_bandwidth(2000, 2), 13), 200, None, 16 * 40**2
    ),
    # a user-set h_sigma and 8 x 8 quadrature nodes that miss the peak: violations
    "peaked": lambda: (_squeeze_field(2, 1000, _peak_labels, 0.1, 6), 8000, 8, None),
    # Sum w y^2 / S and (Sum w y / S)^2 agree to 10 digits
    "cancelling": lambda: (
        _squeeze_field(2, 1000, lambda x, r: 1e3 + 1e-2 * r.standard_normal(len(x)), 0.2, 7), 8000, None, None
    ),
    # most cells have a weight sum below 1
    "sparse": lambda: (_squeeze_field(2, 40, _heteroskedastic, 0.25, 8), 8000, None, None),
    # sigma-hat is rounding noise, below the floor almost everywhere
    "constant": lambda: (_squeeze_field(2, 100, lambda x, r: np.full(len(x), 0.3), 0.25, 9), 2000, None, None),
    "floored-region": lambda: (
        _squeeze_field(2, 400, lambda x, r: 1.0 + (x[:, 0] > 0.6) * r.standard_normal(len(x)), 0.2, 10),
        8000, None, None,
    ),
    # np.vecdot splits rows of more than 10,000 across OpenBLAS threads
    "large-pilot": lambda: (_squeeze_field(2, 12_000, _heteroskedastic, 0.25, 11), 9000, None, None),
    "overflow": lambda: (
        _squeeze_field(2, 200, _overflow_labels, 0.15, 12, pilot=_overflow_pilot), 8000, 2, None
    ),
}


def _first_batch(density, count):
    return int(min(262_144, max(64, np.ceil(1.1 * count / max(1.0 / density.envelope, 1e-3)))))


@pytest.mark.parametrize("name", [*SQUEEZE_CASES, "uniform"])
def test_squeeze_draws_what_the_reference_sampler_draws(name):
    if name == "uniform":
        density, count = uniform_density(UNIT2), 5000
    else:
        field, count, nodes, _ = SQUEEZE_CASES[name]()
        density = plug_in_density(field, nodes)
    _, _, upper = density.squeeze(_first_batch(density, count))
    assert (upper.tolist() == [np.inf]) == (name in ("d4", "d5", "d2-small-batch", "uniform"))
    outcomes = []
    for sample in (reference_rejection_sample,
                   lambda *args: rejection_sample(*args, return_diagnostics=True)):
        try:
            outcomes.append(sample(density, count, rng_stream(1, "squeeze")))
        except DataError as exc:
            outcomes.append(str(exc))
    expected, got = outcomes
    if name == "overflow":
        assert got == expected == (
            "the pilot labels' moments overflow float64 at h_sigma = 0.15; rescale the labels or lower h_sigma"
        )
        return
    assert np.array_equal(got[0], expected[0])
    assert got[1] == expected[1]
    if name == "peaked":
        assert got[1]["envelope_violations"] > 0


@pytest.mark.parametrize("name", [name for name in SQUEEZE_CASES if name != "overflow"])
def test_squeeze_bounds_bracket_the_variance_kernel(name):
    field, count, nodes, rows = SQUEEZE_CASES[name]()
    edges, lo, hi = field.variance_bounds(rows or _first_batch(plug_in_density(field, nodes), count))
    rng = rng_stream(2, "squeeze-bounds")
    inside = field.domain.uniform(20_000, rng)
    # grid vertices, where the weights take their extremes
    vertices = np.column_stack([e[rng.integers(0, len(e), 5_000)] for e in edges])
    xs = np.vstack([inside, vertices])
    cells = grid_cells(edges, xs)
    values = field.variance_batch(xs)
    assert (lo[cells] <= values).all() and (values <= hi[cells]).all()
    assert np.isfinite(hi).any()  # some cells are decided


def test_squeeze_decides_most_proposals_of_the_benchmark_pool_fit(monkeypatch):
    seen = {"rows": 0, "proposals": 0, "sampling": False}
    batch, sample = VarianceField.variance_batch, sampling.rejection_sample

    def counting_batch(self, xs):
        seen["rows"] += len(xs) if seen["sampling"] else 0
        return batch(self, xs)

    def counting_sample(*args, **kwargs):
        seen["sampling"] = True
        try:
            out, diag = sample(*args, **kwargs)
        finally:
            seen["sampling"] = False
        seen["proposals"] += diag["proposals"]
        return out, diag

    monkeypatch.setattr(VarianceField, "variance_batch", counting_batch)
    monkeypatch.setattr(sampling, "rejection_sample", counting_sample)
    benchmark_pool_fit()
    assert seen["proposals"] > 40_000
    assert seen["rows"] <= 0.25 * seen["proposals"]
