"""Tuning-parameter grids and cross-validated selection.

Fitting proceeds in three steps: retrieve a labeled sample, score a grid
of smoothing parameters (optionally jointly with the bandwidth) on the
validation block, and freeze the winning estimator.  The grid always
contains theta1 = 0, so the selected fit never scores worse on validation
than the target-only kernel estimate.
"""

import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from .blackbox import FunctionModel, PoolOracle
from .core import ConfigError, DataError, Domain, HolderParams, json_scalar, rng_stream
from .estimator import Candidates, PersonalizedEstimator, window_passes
from .sampling import (
    _split_rows,
    retrieve_budgeted,
    retrieve_from_pool,
    retrieve_uniform_small_domain,
)

__all__ = [
    "ThetaGrid",
    "build_grid",
    "select_theta",
    "ScoreTable",
    "SelectionResult",
    "select_theta_h",
    "FitConfig",
    "FitResult",
    "default_bandwidth_set",
    "rule_bandwidth",
    "fit_personalized",
    "fit_personalized_small_domain",
    "fit_personalized_pool",
    "fit_single_task",
]


@dataclass(frozen=True)
class ThetaGrid:
    """Lexicographically sorted grid {k*c1/m} x {j/m} with m = ceil(ln n)."""

    c1: float
    n: int
    points: tuple


def build_grid(n, c1):
    n = int(n)
    if n < 3:
        raise ConfigError(f"n must be at least 3 for the theta grid, got {n}")
    if not c1 > 0:
        raise ValueError("c1 must be positive")
    m = int(np.ceil(np.log(n)))
    if not np.isfinite(m * c1):
        raise ConfigError(f"c1 must leave m * c1 finite, with m = {m} for n = {n}; got {c1!r}")
    points = tuple(
        HolderParams(k * c1 / m, j / m) for k in range(m + 1) for j in range(m + 1)
    )
    return ThetaGrid(c1=float(c1), n=n, points=points)


def _add_row_sums(totals, terms):
    """totals + terms[0] + terms[1] + ..., one row after another (terms is overwritten):
    unlike ndarray.sum, rows summed at once or block by block give the same bits."""
    terms[0] += totals
    return np.cumsum(terms, axis=0, out=terms)[-1]


def select_theta(candidates, val_x, val_y):
    """Pick the candidate minimizing the validation sum of squared errors.

    Ties resolve to the lexicographically smallest (theta1, theta2).  Returns the
    winner and the full score table; DataError if the winner's score is not finite.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    val_x, val_y = _validation_block(val_x, val_y)
    preds = {theta: candidates[theta].predict_batch(val_x) for theta in sorted(candidates)}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow scores inf
        scores = {theta: float(_add_row_sums(0.0, (val_y - p) ** 2)) for theta, p in preds.items()}
    best = min(scores, key=scores.get)
    _check_winner("theta", scores[best])
    return best, scores


def _validation_block(val_x, val_y):
    """val_x as (m, d) floats and val_y as floats; ValueError if the block is empty."""
    val_x = np.atleast_2d(np.asarray(val_x, float))
    if val_x.shape[0] == 0:
        raise ValueError("validation set must be nonempty")
    return val_x, np.asarray(val_y, float)


def _check_winner(what, score):
    """DataError unless the selected `what`'s validation score is finite."""
    if not np.isfinite(score):
        raise DataError(f"the selected {what} scores {score} on validation, "
                        "not a finite number; rescale the model or the labels")


@dataclass(frozen=True, eq=False, repr=False)
class ScoreTable(Candidates):
    """The scored (theta, h) pairs as columns, in scoring order: the Candidates
    scored and their scores.

    Row i is (thetas[theta_index[i]], bandwidth[i], score[i]) with Python floats.
    Rows are built when indexed or iterated and never kept, so a table of up to 256
    thetas holds about 17 bytes a row, not a tuple and two floats.
    """

    score: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.score.flags.writeable = False

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]
        return self.thetas[self.theta_index[i]], float(self.bandwidth[i]), float(self.score[i])

    def __iter__(self):
        thetas = self.thetas
        for k, h, s in zip(self.theta_index.tolist(), self.bandwidth.tolist(), self.score.tolist()):
            yield thetas[k], h, s

    def columns(self):
        """Four parallel lists: theta1, theta2, bandwidth and score."""
        return {
            "theta1": np.array([t.theta1 for t in self.thetas])[self.theta_index].tolist(),
            "theta2": np.array([t.theta2 for t in self.thetas])[self.theta_index].tolist(),
            "bandwidth": self.bandwidth.tolist(),
            "score": self.score.tolist(),
        }


@dataclass(frozen=True)
class SelectionResult:
    theta: HolderParams
    bandwidth: float
    score: float
    table: ScoreTable


def _score_pairs(candidates, train_x, train_y, f_train, val_x, val_y, f_val):
    """Validation scores of the Candidates on one training block, summed block by block;
    a score that overflows is inf, without a warning."""
    scores = np.zeros(len(candidates))

    def add(rows, ks, means):
        means += f_val[rows, None]
        np.subtract(val_y[rows, None], means, out=means)
        np.square(means, out=means)
        scores[ks] = _add_row_sums(scores[ks], means)

    with np.errstate(over="ignore", invalid="ignore"):
        window_passes(train_x, train_y, f_train, val_x, f_val, candidates, add)
    return ScoreTable(candidates.thetas, candidates.theta_index, candidates.bandwidth, scores)


def _cv_candidates(thetas, bandwidths):
    """The CV candidates, smaller bandwidth first, then the thetas in the order given."""
    hs = np.sort(np.array(bandwidths, dtype=float))
    one = Candidates.from_pairs([(theta, hs[0]) for theta in thetas])
    return Candidates(one.thetas, np.tile(one.theta_index, len(hs)), np.repeat(hs, len(one)))


def _select_pairs(candidates, train_x, train_y, f_train, val_x, val_y, f_val):
    """Score the Candidates in their order; the first minimum wins, and DataError
    if it is not finite."""
    table = _score_pairs(candidates, train_x, train_y, f_train, val_x, val_y, f_val)
    theta, h, score = table[np.argmin(table.score)]
    _check_winner("(theta, h)", score)
    return SelectionResult(theta=theta, bandwidth=h, score=score, table=table)


def select_theta_h(thetas, bandwidths, train_x, train_y, val_x, val_y, model):
    """Joint argmin over the (theta, h) grid of the validation squared error.

    Ties resolve to the smaller bandwidth first, then the lexicographically
    smaller theta.
    """
    thetas = sorted(thetas)
    if not thetas:
        raise ValueError("need at least one theta")
    bandwidths = [json_scalar(h, float, "bandwidths", "positive numbers", lambda v: v > 0)
                  for h in bandwidths]
    if not bandwidths:
        raise ValueError("need at least one bandwidth")
    train_x = np.atleast_2d(np.asarray(train_x, float))
    train_y = np.asarray(train_y, float)
    val_x, val_y = _validation_block(val_x, val_y)
    f_train, f_val = model.predict_batch(train_x), model.predict_batch(val_x)
    candidates = _cv_candidates(thetas, bandwidths)
    return _select_pairs(candidates, train_x, train_y, f_train, val_x, val_y, f_val)


@dataclass
class FitConfig:
    """Knobs for the fitting pipelines; defaults match the shipped experiments."""

    c1: float = 2.0
    pilot_fraction: float = 0.25
    split: str = "reuse"
    bandwidth: object = "cv"  # "cv", "rule", a number or numeric string, or a sequence of numbers
    full_bandwidth_set: bool = False
    h_sigma: float | None = None
    thetas: tuple | None = None
    synthetic_cap: int = 50_000

    def validate(self):
        """The checked copy every fit uses: c1, pilot_fraction and h_sigma are floats, a
        numeric bandwidth (or numeric bandwidth string) a float, a list of them a tuple of
        floats, thetas a tuple of HolderParams.

        A bad setting raises ConfigError naming its field, before any label is spent.
        """
        c1 = json_scalar(self.c1, float, "c1", "a finite positive number", lambda v: 0 < v < np.inf)
        pilot_fraction = json_scalar(self.pilot_fraction, float, "pilot_fraction", "a number in (0, 1)",
                                     lambda v: 0 < v < 1)
        h_sigma = self.h_sigma
        if h_sigma is not None:
            h_sigma = json_scalar(h_sigma, float, "h_sigma", "a finite positive number",
                                  lambda v: 0 < v < np.inf)
        _split_rows(self.split, 0)  # ConfigError for an unknown split
        json_scalar(self.full_bandwidth_set, bool, "full_bandwidth_set", "true or false")
        cap = json_scalar(self.synthetic_cap, int, "synthetic_cap", "a positive integer", lambda v: v > 0)
        bandwidth = self.bandwidth
        if isinstance(bandwidth, str) and bandwidth not in ("cv", "rule"):
            try:
                bandwidth = float(bandwidth)
            except ValueError:
                raise ConfigError("bandwidth must be 'cv', 'rule', a number, or a list") from None
        if not isinstance(bandwidth, str):
            is_list = isinstance(bandwidth, (list, tuple, np.ndarray))
            values = list(bandwidth) if is_list else [bandwidth]
            if not values:
                raise ConfigError("bandwidth list must be nonempty")
            # v > 0 also rejects NaN
            values = tuple(json_scalar(h, float, "bandwidths", "positive numbers", lambda v: v > 0)
                           for h in values)
            bandwidth = values if is_list else values[0]
        thetas = self.thetas
        if thetas is not None:
            try:
                thetas = tuple(t if isinstance(t, HolderParams) else HolderParams(*t) for t in thetas)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"thetas: {exc}") from None
            if not thetas:
                raise ConfigError(f"thetas must name at least one pair, got {self.thetas!r}")
        return replace(
            self, c1=c1, pilot_fraction=pilot_fraction, h_sigma=h_sigma, bandwidth=bandwidth,
            thetas=thetas, synthetic_cap=cap,
        )

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.thetas is not None:
            out["thetas"] = [[t.theta1, t.theta2] for t in self.thetas]
        return out


@dataclass
class FitResult:
    """Frozen estimator plus everything needed to audit the fit."""

    estimator: PersonalizedEstimator
    theta: HolderParams
    bandwidth: float
    score: float
    score_table: ScoreTable
    retrieval: object
    mean_sigma: float
    n: int
    config: FitConfig

    def to_dict(self):
        return {
            "theta": {"theta1": self.theta.theta1, "theta2": self.theta.theta2},
            "bandwidth": self.bandwidth,
            "validation_score": self.score,
            "mean_sigma": self.mean_sigma,
            "n": self.n,
            "config": self.config.to_dict(),
            "retrieval": self.retrieval.to_dict() if self.retrieval is not None else None,
            "score_table": self.score_table.columns(),
        }


def default_bandwidth_set(n, scale, full=False):
    """Harmonic bandwidth ladder scale/k, k = 1..ceil(sqrt(n)) (or ..n)."""
    top = int(n) if full else int(np.ceil(np.sqrt(n)))
    return [scale / k for k in range(1, max(top, 1) + 1)]


def rule_bandwidth(theta2, n, dim, sigma_bar, domain):
    """Deterministic bandwidth balancing bias and variance for one theta2.

    Follows h = min(sigma_bar**(2/(2*theta2+d)) * n**(-1/(2*theta2+d)),
    min_edge/2), floored so windows keep order-one occupancy.
    """
    expo = 2.0 * theta2 + dim
    raw = max(sigma_bar, 1e-12) ** (2.0 / expo) * float(n) ** (-1.0 / expo)
    cap = domain.min_edge() / 2.0
    floor = min(cap, 0.5 * domain.max_edge() * float(n) ** (-1.0 / dim))
    return float(min(max(raw, floor), cap))


def _resolve_bandwidths(config, n, domain, cap=None):
    """Candidate bandwidths of a checked config, all at most `cap`; None means rule mode."""
    bw = config.bandwidth
    if bw == "rule":
        return None
    if bw == "cv":
        scale = cap if cap is not None else domain.max_edge()
        return default_bandwidth_set(n, scale, full=config.full_bandwidth_set)
    values = list(bw) if isinstance(bw, tuple) else [bw]
    bad = [h for h in values if cap is not None and h > cap * (1 + 1e-12)]
    if bad:
        raise ConfigError(f"bandwidth {bad[0]} exceeds the small-domain edge {cap}")
    return values


def _select_and_build(model, domain, rr, n, config, thetas, bandwidths):
    ss = rr.samples
    train_x, train_y = ss.train_x, ss.train_y
    val_x, val_y = ss.val_x, ss.val_y
    if bandwidths is None:  # rule mode: one bandwidth per theta
        candidates = Candidates.from_pairs(
            [(t, rule_bandwidth(t.theta2, n, domain.dim, rr.mean_sigma, domain)) for t in thetas]
        )
    else:
        candidates = _cv_candidates(thetas, bandwidths)
    f_train = model.predict_batch(train_x)
    f_val = model.predict_batch(val_x)
    selection = _select_pairs(candidates, train_x, train_y, f_train, val_x, val_y, f_val)
    estimator = PersonalizedEstimator(
        train_x, train_y, model, selection.theta, selection.bandwidth, domain,
        f_train=f_train,
    )
    return FitResult(
        estimator=estimator,
        theta=selection.theta,
        bandwidth=selection.bandwidth,
        score=selection.score,
        score_table=selection.table,
        retrieval=rr.diagnostics,
        mean_sigma=rr.mean_sigma,
        n=n,
        config=config,
    )


def _fit(model, domain, n, config, seed, retrieve, cap=None):
    """The fit entry sequence: check the settings, build the theta grid, resolve the
    candidate bandwidths (all at most `cap`), retrieve with `retrieve(cfg, rng)`,
    then select and build.

    A bad setting raises before `retrieve` runs, so it costs no label.
    """
    cfg = (config or FitConfig()).validate()
    thetas = sorted(cfg.thetas or build_grid(n, cfg.c1).points)
    bandwidths = _resolve_bandwidths(cfg, n, domain, cap)
    rr = retrieve(cfg, rng_stream(seed, "retrieval"))
    return _select_and_build(model, domain, rr, n, cfg, thetas, bandwidths)


def fit_personalized(model, domain, n, oracle, config=None, seed=0):
    """Full pipeline on a constant-size target region.

    Retrieves n labeled samples (uniform pilot plus variance-weighted
    draws), scores the smoothing grid on the validation block, and returns
    the frozen winning estimator with its report.
    """
    return _fit(model, domain, n, config, seed, lambda cfg, rng: retrieve_budgeted(
        n, cfg.pilot_fraction, domain, oracle, rng, split=cfg.split, h_sigma=cfg.h_sigma
    ))


def fit_personalized_small_domain(model, domain, n, oracle, config=None, seed=0):
    """Pipeline variant for small target boxes: uniform retrieval, h <= edge."""
    return _fit(model, domain, n, config, seed, lambda cfg, rng: retrieve_uniform_small_domain(
        n, domain, oracle, cfg.pilot_fraction, rng, cfg.h_sigma
    ), cap=domain.min_edge())


def fit_personalized_pool(
    model, domain, n, pilot_size, pool_x, pool_y=None, oracle=None, config=None, seed=0
):
    """Pipeline over a fixed pool of unlabeled covariates (labels on demand).

    With domain None the domain is the pool's bounding box; with pilot_size
    None the pilot holds max(4, round(pilot_fraction * n)) points.
    """
    if domain is None:
        domain = Domain.bounding(pool_x)
    if oracle is None:
        if pool_y is None:
            raise ConfigError("provide pool labels or an oracle")
        oracle = PoolOracle(pool_x, pool_y)
    return _fit(model, domain, n, config, seed, lambda cfg, rng: retrieve_from_pool(
        n, max(4, round(cfg.pilot_fraction * n)) if pilot_size is None else pilot_size, pool_x,
        oracle, rng, split=cfg.split, synthetic_cap=cfg.synthetic_cap, h_sigma=cfg.h_sigma,
        domain=domain,
    ))


def fit_single_task(domain, n, oracle, config=None, seed=0):
    """Target-only kernel estimate: theta1 = 0 with a constant-zero model."""
    cfg = replace(config or FitConfig(), thetas=(HolderParams(0.0, 0.0),))
    model = FunctionModel(lambda xs: np.zeros(np.atleast_2d(xs).shape[0]))
    return fit_personalized_small_domain(model, domain, n, oracle, cfg, seed)
