"""Sample retrieval: plug-in densities, rejection sampling, budgeted and
pool-based retrieval schemes.

The weighted schemes allocate more of the labeling budget to regions with
higher estimated noise; the pool scheme approximates that allocation over
a fixed set of unlabeled points via a logistic density-ratio fit.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .blackbox import PoolOracle
from .core import (
    BudgetError,
    ConfigError,
    Domain,
    EnvelopeError,
    SampleSet,
    SeparationError,
)
from .estimator import VarianceField, box_cell, grid_cells, pilot_bandwidth

__all__ = [
    "SamplingDensity",
    "RetrievalDiagnostics",
    "RetrievalResult",
    "uniform_density",
    "plug_in_density",
    "rejection_sample",
    "retrieve_budgeted",
    "retrieve_uniform_small_domain",
    "LogisticFit",
    "fit_density_ratio",
    "weighted_sample_without_replacement",
    "retrieve_from_pool",
]

SPLITS = ("reuse", "strict")  # the pilot's uses: see _split_rows
_MIN_ACCEPT_RATE = 1e-4
_ACCEPT_WINDOW = 100_000
_DENSITY_FLOOR_FRACTION = 0.01  # of the mean sigma-hat
_NEWTON_TOL, _NEWTON_RIDGE = 1e-8, 1e-8  # gradient max-norm to stop at; Hessian ridge


@dataclass(frozen=True)
class SamplingDensity:
    """Normalized sampling density on a box, ready for rejection sampling.

    `weight` is the unnormalized density, `normalization` its integral (by
    midpoint quadrature), and `envelope` bounds sup pdf * volume with a
    safety margin, so that pdf(x) * volume / envelope <= 1.  `squeeze`, given
    a batch size, bounds the weight over the cells of a grid on the box,
    (edges, lower, upper) in the form of VarianceField.variance_bounds; by
    default it is box_cell, which decides nothing.  A plug-in density also
    records `mean_sigma`, the quadrature mean of sigma-hat.
    """

    domain: object
    weight: object
    normalization: float
    envelope: float
    floor: float = 0.0
    floor_active_fraction: float = 0.0
    uniform_fallback: bool = False
    mean_sigma: float = 0.0
    squeeze: object = None

    def __post_init__(self):
        if self.squeeze is None:
            object.__setattr__(self, "squeeze", lambda rows: box_cell(self.domain))

    def pdf(self, xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        return np.asarray(self.weight(xs), float) / self.normalization


def uniform_density(domain, safety=1.1):
    """The flat density on the box (acceptance rate 1/safety)."""
    volume = domain.volume()
    return SamplingDensity(
        domain=domain,
        weight=lambda xs: np.ones(np.atleast_2d(xs).shape[0]),
        normalization=volume,
        envelope=float(safety),
        uniform_fallback=True,
    )


def plug_in_density(variance_field, quadrature_points_per_dim=None, safety=1.1):
    """Density proportional to the estimated noise level sigma-hat.

    The weight is floored at 1% of the average sigma-hat so
    every subregion keeps positive mass; a field that is identically zero
    falls back to the uniform density with the fallback flag set.
    """
    domain = variance_field.domain
    variance = variance_field.variance_batch(domain.quadrature_nodes(quadrature_points_per_dim))
    sig = np.sqrt(variance)
    mean_sig = float(sig.mean())
    if mean_sig <= 0.0:
        return uniform_density(domain, safety=safety)
    floor = _DENSITY_FLOOR_FRACTION * mean_sig

    def to_weight(v):
        # sigma-hat^2 -> weight; monotone under rounding, so it carries the
        # squeeze's variance bounds to weight bounds
        return np.maximum(np.sqrt(v), floor)

    def squeeze(rows):
        edges, lo, hi = variance_field.variance_bounds(rows)
        return edges, to_weight(lo), to_weight(hi)

    w_grid = to_weight(variance)
    grid_mean = float(w_grid.mean())
    normalization = grid_mean * domain.volume()
    envelope = safety * float(w_grid.max()) / grid_mean
    return SamplingDensity(
        domain=domain,
        weight=lambda xs: to_weight(variance_field.variance_batch(xs)),
        normalization=normalization,
        envelope=envelope,
        floor=floor,
        floor_active_fraction=float((sig < floor).mean()),
        mean_sigma=mean_sig,
        squeeze=squeeze,
    )


def rejection_sample(density, count, rng, return_diagnostics=False):
    """Draw `count` i.i.d. points from the density by accept/reject.

    Proposals are uniform on the box and accepted with probability
    pdf(x) * volume / envelope.  A sustained acceptance rate below 1e-4
    over 1e5 consecutive proposals raises EnvelopeError.  Proposals whose
    acceptance probability exceeds 1, where the envelope underestimates the
    density, are counted as envelope violations in the diagnostics.

    The density's squeeze (Marsaglia 1977) decides proposals from bounds on
    their cell's weight, carried to acceptance bounds by the same map as the
    weight itself: u < lower accepts and u >= upper rejects.  The density is
    evaluated only in between and in the cells whose upper bound reaches 1 or
    is not finite, so the uniforms, the draws and the diagnostics are those of
    evaluating it everywhere.  The first batch sizes the grid.
    """
    count = int(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    domain = density.domain
    volume = domain.volume()
    out = np.empty((count, domain.dim))
    filled = proposed_total = accepted_total = window_proposed = window_accepted = violations = 0
    rate_estimate = 1.0 / density.envelope

    def accept(w):
        # weight -> acceptance probability pdf * volume / envelope; monotone under
        # rounding, so it carries the squeeze's weight bounds to acceptance bounds
        return w / density.normalization * volume / density.envelope

    while filled < count:
        need = count - filled
        size = int(min(262_144, max(64, np.ceil(1.1 * need / max(rate_estimate, 1e-3)))))
        xs = domain.uniform(size, rng)
        if proposed_total == 0:
            edges, lower, upper = density.squeeze(size)
            lower, upper = accept(lower), accept(upper)
        u = rng.random(size)
        cells = grid_cells(edges, xs)
        low, high = lower.take(cells), upper.take(cells)
        exact = ~(high < 1) | ((u >= low) & (u < high))
        accept_prob = accept(density.weight(xs[exact]))
        violations += int((accept_prob > 1).sum())
        keep = u < low
        keep[exact] = u[exact] < accept_prob
        taken = xs[keep][:need]
        out[filled : filled + len(taken)] = taken
        filled += len(taken)
        proposed_total += size
        accepted_total += int(keep.sum())
        window_proposed += size
        window_accepted += int(keep.sum())
        rate_estimate = max(window_accepted, 1) / window_proposed
        if window_proposed >= _ACCEPT_WINDOW:
            if window_accepted / window_proposed < _MIN_ACCEPT_RATE:
                raise EnvelopeError(
                    f"acceptance rate {window_accepted / window_proposed:.2e} over "
                    f"{window_proposed} proposals; the envelope is misconfigured"
                )
            window_proposed = window_accepted = 0
    if return_diagnostics:
        rate = accepted_total / proposed_total if proposed_total else 1.0
        return out, {
            "proposals": proposed_total,
            "acceptance_rate": rate,
            "envelope_violations": violations,
        }
    return out


@dataclass
class RetrievalDiagnostics:
    """Per-retrieval record serialized into run reports."""

    scheme: str
    acceptance_rate: float | None = None
    proposals: int = 0
    envelope_violations: int | None = None  # proposals with acceptance probability > 1
    floor: float | None = None
    floor_active_fraction: float | None = None
    uniform_fallback: bool = False
    synthetic_draws: int | None = None
    synthetic_cap_applied: bool = False
    logistic_converged: bool | None = None
    logistic_iterations: int | None = None
    pool_indices: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "pool_indices"}
        return {k: v for k, v in out.items() if v is not None}


@dataclass
class RetrievalResult:
    """Retrieved samples, their record, and the quadrature mean of the sigma-hat
    estimated from them (the pilot's, or the validation block's under uniform retrieval)."""

    samples: SampleSet
    diagnostics: RetrievalDiagnostics
    mean_sigma: float


def _two_phase(scheme, density, pilot_x, pilot_y, step2_x, step2_y, val_rows, **fields):
    """The result of a weighted retrieval: the pilot rows, then the second phase's rows,
    which train; `val_rows` of the pilot validate.  The record carries the density's
    floor and fallback, and `fields`."""
    n0 = len(pilot_x)
    ss = SampleSet(
        np.vstack([pilot_x, step2_x]),
        np.concatenate([pilot_y, step2_y]),
        train_idx=np.arange(n0, n0 + len(step2_x)),
        val_idx=val_rows,
    )
    diag = RetrievalDiagnostics(
        scheme=scheme,
        floor=density.floor,
        floor_active_fraction=density.floor_active_fraction,
        uniform_fallback=density.uniform_fallback,
        **fields,
    )
    return RetrievalResult(ss, diag, density.mean_sigma)


def _split_rows(split, n0):
    """Variance and validation rows of an n0-point pilot: the first half and the
    second half under 'strict', the whole pilot for both under 'reuse'."""
    if split == "strict":
        return np.arange(n0 // 2), np.arange(n0 // 2, n0)
    if split == "reuse":
        return np.arange(n0), np.arange(n0)
    raise ConfigError(f"unknown split mode {split!r} (use {' or '.join(map(repr, SPLITS))})")


def _pilot_density(pilot_x, pilot_y, n, h_sigma, domain):
    """Plug-in density of the variance field of the labeled rows given;
    h_sigma defaults to the pilot bandwidth for budget n."""
    if h_sigma is None:
        h_sigma = pilot_bandwidth(n, domain.dim)
    return plug_in_density(VarianceField(pilot_x, pilot_y, h_sigma, domain))


def retrieve_budgeted(n, pilot_fraction, domain, oracle, rng, split="reuse", h_sigma=None):
    """Two-phase retrieval: uniform pilot, then draws from the plug-in density.

    The pilot of size n0 = round(pilot_fraction * n) estimates the noise
    level; the remaining n - n0 covariates are drawn proportional to it.
    Training indices are the weighted block {n0, ..., n-1}; validation is
    the second pilot half under 'strict' or the whole pilot under 'reuse'.
    """
    n = int(n)
    if n < 8:
        raise ConfigError("budgeted retrieval needs n >= 8")
    if not 0 < pilot_fraction < 1:
        raise ConfigError("pilot_fraction must lie in (0, 1)")
    n0 = int(round(pilot_fraction * n))
    n0 = min(max(n0, 2), n - 1)
    var_rows, val_rows = _split_rows(split, n0)
    pilot_x = domain.uniform(n0, rng)
    pilot_y = oracle.label(pilot_x, rng)
    density = _pilot_density(pilot_x[var_rows], pilot_y[var_rows], n, h_sigma, domain)
    step2_x, rej = rejection_sample(density, n - n0, rng, return_diagnostics=True)
    step2_y = oracle.label(step2_x, rng)
    return _two_phase("budgeted", density, pilot_x, pilot_y, step2_x, step2_y, val_rows, **rej)


def retrieve_uniform_small_domain(n, domain, oracle, val_fraction, rng, h_sigma=None):
    """Uniform retrieval for small target boxes: validation first, then training.

    The mean sigma-hat is that of the validation block's variance field."""
    n = int(n)
    if n < 4:
        raise ConfigError("uniform retrieval needs n >= 4")
    if not 0 < val_fraction < 1:
        raise ConfigError("val_fraction must lie in (0, 1)")
    n0 = min(max(int(round(val_fraction * n)), 1), n - 1)
    xs = domain.uniform(n, rng)
    ys = oracle.label(xs, rng)
    ss = SampleSet(xs, ys, train_idx=np.arange(n0, n), val_idx=np.arange(n0))
    mean_sigma = _pilot_density(ss.val_x, ss.val_y, n, h_sigma, domain).mean_sigma
    return RetrievalResult(ss, RetrievalDiagnostics(scheme="uniform"), mean_sigma)


@dataclass(frozen=True)
class LogisticFit:
    """Coefficients from the density-ratio logistic regression."""

    beta: np.ndarray
    converged: bool
    iterations: int

    @property
    def intercept(self):
        return float(self.beta[0])

    @property
    def slope(self):
        return self.beta[1:]


def fit_density_ratio(class0_x, class1_x, max_iter=100):
    """Logistic regression separating two point clouds, by Newton's method.

    class0_x are pool (reference) points, class1_x synthetic target draws;
    the fitted log-odds x'beta estimates the log density ratio up to the
    intercept.  Every iteration takes the full Newton step (iteratively
    reweighted least squares, McCullagh & Nelder 1989) until the gradient's
    max-norm falls to 1e-8.  Divergence of the coefficient norm, or a
    log-likelihood saturated at 0, signals perfect separation and raises
    SeparationError.
    """
    a = np.atleast_2d(np.asarray(class0_x, float))
    b = np.atleast_2d(np.asarray(class1_x, float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("both classes must be nonempty")
    x = np.vstack([a, b])
    design = np.hstack([np.ones((x.shape[0], 1)), x])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise np.linalg.LinAlgError("design matrix is rank deficient")
    labels = np.concatenate([np.zeros(a.shape[0]), np.ones(b.shape[0])])
    beta = np.zeros(design.shape[1])
    scores = design @ beta
    grad_norm = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        with np.errstate(over="ignore"):  # exp(-score) = inf gives p = 0
            p = 1.0 / (1.0 + np.exp(-scores))
        grad = design.T @ (labels - p)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= _NEWTON_TOL:
            iterations -= 1
            break
        w = p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) + _NEWTON_RIDGE * np.eye(design.shape[1])
        beta = beta + np.linalg.solve(hess, grad)
        scores = design @ beta
        if np.linalg.norm(beta) > 1e3:
            raise SeparationError(
                "perfect separation suspected (coefficient norm exceeded 1e3); "
                "use larger or more overlapping point sets"
            )
    if float(labels @ scores - np.logaddexp(0.0, scores).sum()) > -1e-6:
        # a numerically saturated likelihood means the MLE is unbounded
        raise SeparationError(
            "perfect separation suspected (likelihood saturated at 0); "
            "use larger or more overlapping point sets"
        )
    return LogisticFit(
        beta=beta,
        converged=grad_norm <= _NEWTON_TOL,
        iterations=iterations,
    )


def weighted_sample_without_replacement(weights, count, rng):
    """Sequential weighted sampling without replacement (exponential-keys form).

    Returns `count` indices; the order matches sequential draws with weight
    renormalization after each pick.
    """
    weights = np.asarray(weights, float)
    count = int(count)
    if count > weights.size:
        raise ValueError("cannot draw more items than available")
    if (weights < 0).any():
        raise ValueError("weights must be nonnegative")
    keys = rng.exponential(size=weights.size) / np.clip(weights, 1e-300, None)
    order = np.argsort(keys, kind="stable")
    return order[:count]


def retrieve_from_pool(
    n,
    pilot_size,
    pool_x,
    oracle,
    rng,
    split="reuse",
    synthetic_cap=50_000,
    h_sigma=None,
    domain=None,
):
    """Budgeted retrieval from a fixed pool of unlabeled covariates.

    A uniform pilot estimates the noise level; synthetic draws from the
    plug-in density and the remaining pool feed a logistic density-ratio
    fit whose weights select the rest of the labeled set, without
    replacement.  When n equals the pool size the remaining points are all
    selected and the ratio step is skipped.
    """
    pool_x = np.atleast_2d(np.asarray(pool_x, float))
    n = int(n)
    n0 = int(pilot_size)
    big_n = pool_x.shape[0]
    if n > big_n:
        raise ConfigError(f"budget exceeds pool: n={n} > {big_n} pool points")
    if not n > n0 >= 4:
        raise ConfigError(f"need n > pilot >= 4, got n={n}, pilot={n0}")
    var_rows, val_rows = _split_rows(split, n0)
    if domain is None:
        domain = Domain.bounding(pool_x)
    domain.require(pool_x, "pool point")

    pilot_positions = rng.choice(big_n, size=n0, replace=False)
    pilot_x = pool_x[pilot_positions]
    pilot_y = _pool_labels(oracle, pool_x, pilot_positions, rng)
    density = _pilot_density(pilot_x[var_rows], pilot_y[var_rows], n, h_sigma, domain)

    rest_mask = np.ones(big_n, dtype=bool)
    rest_mask[pilot_positions] = False
    rest_positions = np.flatnonzero(rest_mask)
    take = n - n0
    sampler = {}  # the rejection and logistic fields of the record
    if take == rest_positions.size:
        selected = rest_positions
    else:
        m_synth = min(big_n - n0, int(synthetic_cap))
        synth_x, rej = rejection_sample(density, m_synth, rng, return_diagnostics=True)
        rest_x = pool_x[rest_positions]
        fit = fit_density_ratio(rest_x, synth_x)
        scores = rest_x @ fit.slope + fit.intercept
        weights = np.exp(scores - scores.max())
        order = weighted_sample_without_replacement(weights, take, rng)
        selected = rest_positions[order]
        sampler = dict(
            rej,
            synthetic_draws=m_synth,
            synthetic_cap_applied=m_synth < big_n - n0,
            logistic_converged=fit.converged,
            logistic_iterations=fit.iterations,
        )
    selected_y = _pool_labels(oracle, pool_x, selected, rng)
    pool_indices = np.concatenate([pilot_positions, selected])
    return _two_phase("pool", density, pilot_x, pilot_y, pool_x[selected], selected_y, val_rows,
                      pool_indices=pool_indices, **sampler)


def _pool_labels(oracle, pool_x, positions, rng):
    if isinstance(oracle, PoolOracle):
        if oracle.remaining < positions.size:
            raise BudgetError("pool oracle cannot supply enough labels")
        return oracle.label_indices(positions)
    return oracle.label(pool_x[positions], rng)
