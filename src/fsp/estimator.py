"""Kernel machinery: bias correction, personalized prediction, pilot variance.

The bias estimator averages y_i minus the locally-smoothed black-box value
over a sup-norm window of radius h around the query point; the personalized
prediction adds that average back onto the black-box value at the query.
"""

import numpy as np

from .core import HolderParams

__all__ = [
    "row_blocks",
    "chebyshev_distances",
    "euclidean_distances",
    "holder_powers",
    "smoothed_window_means",
    "window_biases",
    "PersonalizedEstimator",
    "VarianceField",
    "pilot_bandwidth",
]

_CHUNK_ELEMENTS = 2_000_000
_TILE_PAIRS = 32_768  # a distance tile and its scratch take 512 KB, well inside a core's L2


def row_blocks(n_rows, n_points):
    """Row slices of a batch whose (rows, n_points) blocks hold about
    _CHUNK_ELEMENTS pairs each; a block holds at least one row.

    The distance kernels work one coordinate at a time, so _CHUNK_ELEMENTS
    bounds the largest temporaries too: a (rows, n, d) broadcast would
    allocate d times the budget.
    """
    step = max(1, _CHUNK_ELEMENTS // max(1, n_points))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _fold_coordinates(a, b, term, fold, pairs=None):
    """fold(term(a_j - b_j)) over the coordinates j in order: over every (row of a,
    row of b), shape (len(a), len(b)), or over the index pairs (rows, cols) given,
    shape (len(rows),).

    Each coordinate takes one pass per tile of about _TILE_PAIRS pairs through
    one scratch tile, so the passes stay in cache; every pair gets the same
    operations whatever the tiling.
    """
    if pairs is None:
        out = np.empty((a.shape[0], b.shape[0]))
        step = max(1, _TILE_PAIRS // max(1, b.shape[0]))

        def diff(j, tile, dest):
            np.subtract.outer(a[tile, j], b[:, j], out=dest)
    else:
        rows, cols = pairs
        out = np.empty(rows.shape)
        step = _TILE_PAIRS

        def diff(j, tile, dest):
            np.subtract(a[rows[tile], j], b[cols[tile], j], out=dest)
    scratch = np.empty((min(step, out.shape[0]),) + out.shape[1:])
    for start in range(0, out.shape[0], step):
        tile = slice(start, start + step)
        acc = out[tile]
        tmp = scratch[: acc.shape[0]]
        diff(0, tile, acc)
        term(acc, out=acc)
        for j in range(1, a.shape[1]):
            diff(j, tile, tmp)
            term(tmp, out=tmp)
            fold(acc, tmp, out=acc)
    return out


def chebyshev_distances(a, b):
    """Pairwise sup-norm distances, shape (len(a), len(b))."""
    return _fold_coordinates(a, b, np.abs, np.maximum)


def _squared_distances(a, b, pairs=None):
    """Squared Euclidean distances, summed over the coordinates in order: pairwise,
    or over the index pairs (rows, cols) given."""
    return _fold_coordinates(a, b, np.square, np.add, pairs)


def euclidean_distances(a, b):
    """Pairwise Euclidean distances, shape (len(a), len(b))."""
    out = _squared_distances(a, b)
    return np.sqrt(out, out=out)


def holder_powers(dist2, theta2):
    """Euclidean distances raised to theta2; with theta2 = 0, distance 0 maps to 0."""
    if theta2 > 0:
        return dist2**theta2
    return np.where(dist2 > 0, 1.0, 0.0)


def _window_residuals(y_train, f_train, f_eval, dist2_pow, theta1):
    """Residuals y_i - omega(f_train_i) against the black box smoothed around
    the eval point, elementwise over operands that broadcast to the shape of
    dist2_pow; written in place into one buffer beside the truncation."""
    out = f_train - f_eval
    trunc = np.abs(out)
    np.minimum(trunc, theta1 * dist2_pow, out=trunc)
    np.sign(out, out=out)
    out *= trunc
    del trunc
    out += f_eval
    return np.subtract(y_train, out, out=out)


def smoothed_window_means(y_train, f_train, f_eval, dist_inf, eval_x, train_x, thetas, h):
    """Window-averaged residuals against the smoothed black-box values, shape
    (len(thetas), len(eval_x)): one row per (theta1, theta2) in thetas, all at
    the one bandwidth h.

    For each eval point, averages y_i - omega(f_train_i) over training points
    with sup-norm distance dist_inf <= h, anchored at the eval point itself.
    An empty window contributes 0 through the max(1, count) guard.

    With theta1 = 0 the truncation is +-0.0 whatever theta2 is, so those rows
    share one masked row sum of y_i - f(x0) over every training point, freed
    before the window's pairs are gathered.  For theta1 > 0, only the pairs
    inside the window are gathered, once for every theta.  Their Euclidean
    distances are computed on those pairs alone, with the operations of
    euclidean_distances in the same order, and raised once per theta2.  Each
    theta's residuals are scattered into zeroed rows and each full row is
    summed, so the sums add in the same order as a masked sum over every
    training point and read the same bits, up to the sign of a zero sum.
    """
    mask = dist_inf <= h
    counts = np.maximum(mask.sum(axis=1), 1)
    out = np.empty((len(thetas), mask.shape[0]))
    flat = [k for k, (theta1, _) in enumerate(thetas) if not theta1 > 0]
    if flat:
        residuals = y_train - f_eval[:, None]
        residuals *= mask
        out[flat] = residuals.sum(axis=1) / counts
        del residuals
    theta2s = {theta2 for theta1, theta2 in thetas if theta1 > 0}
    if not theta2s:
        return out
    rows, cols = np.nonzero(mask)
    dist = _squared_distances(eval_x, train_x, (rows, cols))
    np.sqrt(dist, out=dist)
    powers = {theta2: holder_powers(dist, theta2) for theta2 in theta2s}
    del dist
    y_in, f_in, f_eval_in = y_train[cols], f_train[cols], f_eval[rows]
    del rows, cols  # a window as wide as the domain holds every pair
    sums = np.zeros(mask.shape)
    for k, (theta1, theta2) in enumerate(thetas):
        if theta1 > 0:
            sums[mask] = _window_residuals(y_in, f_in, f_eval_in, powers[theta2], theta1)
            out[k] = sums.sum(axis=1) / counts
    return out


def _ladder_sums(bins, n_rows, n_bins, weights=None):
    """Per-row cumulative sums over the ladder rungs, shape (n_rows, n_bins - 1);
    the last bin, points outside every window, is dropped."""
    sums = np.bincount(bins, weights=weights, minlength=n_rows * n_bins)
    return sums.reshape(n_rows, n_bins)[:, :-1].cumsum(axis=1)


def window_biases(train_x, train_y, f_train, xs, f_eval, pairs):
    """Bias estimates at xs for each (theta, h) pair, shape (len(pairs), len(xs)).

    When every theta carries one bandwidth (prediction, rule mode), the pairs
    are grouped by h, whatever their theta1; per row block, the sup-norm
    distances are computed once and one smoothed_window_means call per h
    answers the group.  Otherwise, a theta carries several bandwidths (CV
    scoring) and _ladder_biases scores the pairs.
    """
    if len({theta for theta, _ in pairs}) < len(pairs):
        return _ladder_biases(train_x, train_y, f_train, xs, f_eval, pairs)
    groups = {}  # h -> indices of the pairs at h
    for k, (theta, h) in enumerate(pairs):
        groups.setdefault(float(h), []).append(k)
    # the block budget covers the (rows, n) buffers alive at once when a
    # window holds every pair, about 9 plus one power per theta2: the sup-norm
    # distances, the window's mask, indices and distances, three gathered
    # operands, the residual chain and the scattered rows
    thetas = {h: [(pairs[k][0].theta1, pairs[k][0].theta2) for k in ks] for h, ks in groups.items()}
    most_theta2s = max((len({t2 for t1, t2 in ts if t1 > 0}) for ts in thetas.values()), default=0)
    out = np.empty((len(pairs), xs.shape[0]))
    for rows in row_blocks(xs.shape[0], train_x.shape[0] * (most_theta2s + 9)):
        dist_inf = chebyshev_distances(xs[rows], train_x)
        for h, ks in groups.items():
            out[ks, rows] = smoothed_window_means(
                train_y, f_train, f_eval[rows], dist_inf, xs[rows], train_x, thetas[h], h
            )
    return out


def _ladder_biases(train_x, train_y, f_train, xs, f_eval, pairs):
    """window_biases where a theta carries several bandwidths.

    Per row block, the Holder powers are computed once per distinct theta2 of
    a theta1 > 0 theta; blocks shrink with the number of theta2 values, so
    memory stays near the block budget.  All theta1 = 0 thetas share one
    residual pass y_i - f(x0), and the Euclidean distances are computed only
    for thetas with theta1 > 0.  The pairs of a residual pass share its window
    sums: the sup-norm windows are nested in h, so each training point is
    binned by the first rung of the sorted bandwidth ladder whose window holds
    it, and cumulative sums over the rungs give every window.  Rungs that hold
    the same points read bit-equal sums.
    """
    pair_hs = [float(h) for _, h in pairs]
    hs = np.unique(pair_hs)
    columns = {}  # residual pass (a theta1 > 0 theta, or None) -> (pair index, rung) of its pairs
    for k, ((theta, _), rung) in enumerate(zip(pairs, np.searchsorted(hs, pair_hs))):
        columns.setdefault(theta if theta.theta1 > 0 else None, []).append((k, rung))
    theta2s = {theta.theta2 for theta in columns if theta is not None}
    n_bins = len(hs) + 1
    out = np.empty((len(pairs), xs.shape[0]))
    # the block budget covers every (rows, n) buffer alive at once: the
    # sup-norm distances or their rungs, one power per theta2, and the
    # residual chain
    width = (train_x.shape[0] + n_bins) * (len(theta2s) + 5)
    for rows in row_blocks(xs.shape[0], width):
        dist_inf = chebyshev_distances(xs[rows], train_x)
        dist2 = euclidean_distances(xs[rows], train_x) if theta2s else None
        powers = {theta2: holder_powers(dist2, theta2) for theta2 in theta2s}
        del dist2  # the window means need only the powers
        n_rows = dist_inf.shape[0]
        rungs = np.searchsorted(hs, dist_inf, side="left")
        bins = (rungs + n_bins * np.arange(n_rows)[:, None]).ravel()
        del dist_inf, rungs
        counts = np.maximum(_ladder_sums(bins, n_rows, n_bins), 1)
        for theta, cols in columns.items():
            if theta is None:
                residuals = train_y[None, :] - f_eval[rows, None]
            else:
                residuals = _window_residuals(
                    train_y[None, :], f_train[None, :], f_eval[rows, None], powers[theta.theta2],
                    theta.theta1,
                )
            means = _ladder_sums(bins, n_rows, n_bins, residuals.ravel()) / counts
            for k, rung in cols:
                out[k, rows] = means[:, rung]
    return out


class PersonalizedEstimator:
    """Frozen fit artifact: training samples, smoothing parameters, bandwidth.

    Evaluation queries the black-box at the requested points only; its
    values at the training points are cached once at construction.
    """

    def __init__(self, train_x, train_y, model, theta, bandwidth, domain, f_train=None):
        train_x = np.array(train_x, float)
        train_y = np.array(train_y, float)
        if train_x.ndim != 2 or train_x.shape[0] < 1:
            raise ValueError("need at least one training sample")
        if train_y.shape != (train_x.shape[0],):
            raise ValueError("train_y must align with train_x rows")
        if not bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not isinstance(theta, HolderParams):
            theta = HolderParams(*theta)
        domain.require(train_x, "training point")
        if f_train is None:
            f_train = model.predict_batch(train_x)
        f_train = np.asarray(f_train, float)
        if f_train.shape != train_y.shape or not np.isfinite(f_train).all():
            raise ValueError("f_train must be a finite vector aligned with train_x rows")
        for arr in (train_x, train_y):
            arr.setflags(write=False)
        self.train_x = train_x
        self.train_y = train_y
        self.model = model
        self.theta = theta
        self.bandwidth = float(bandwidth)
        self.domain = domain
        self._f_train = f_train

    @property
    def f_train(self):
        return self._f_train

    def estimate_bias(self, x):
        """Kernel estimate of the bias at one point."""
        xs = np.atleast_1d(np.asarray(x, float))[None, :]
        self.domain.require(xs, "query point")
        return float(self._bias_given_f(xs, self.model.predict_batch(xs))[0])

    def predict(self, x):
        x = np.atleast_1d(np.asarray(x, float))
        return float(self.predict_batch(x[None, :])[0])

    def predict_batch(self, xs):
        """Black-box value plus estimated bias, one batched query for xs."""
        xs = np.atleast_2d(np.asarray(xs, float))
        if xs.shape[0] == 0:
            return np.empty(0)
        self.domain.require(xs, "query point")
        f_eval = self.model.predict_batch(xs)
        return f_eval + self._bias_given_f(xs, f_eval)

    def _bias_given_f(self, xs, f_eval):
        pair = (self.theta, self.bandwidth)
        return window_biases(self.train_x, self.train_y, self._f_train, xs, f_eval, [pair])[0]


def pilot_bandwidth(n, dim):
    """Default variance-pilot bandwidth n ** (-1 / (d + 2))."""
    return float(n) ** (-1.0 / (dim + 2))


class VarianceField:
    """Kernel estimate of the conditional noise variance from pilot samples.

    Uses the tent kernel K_h(x, x') = max(0, h - ||x - x'||_inf); both
    moment averages carry a max(1, .) guard in the denominator and the
    resulting variance is clamped at zero.
    """

    def __init__(self, pilot_x, pilot_y, h_sigma, domain):
        pilot_x = np.array(pilot_x, float)
        pilot_y = np.array(pilot_y, float)
        if pilot_x.ndim != 2 or pilot_y.shape != (pilot_x.shape[0],):
            raise ValueError("pilot_x must be (n, d) with aligned pilot_y")
        if not h_sigma > 0:
            raise ValueError("h_sigma must be positive")
        for arr in (pilot_x, pilot_y):
            arr.setflags(write=False)
        self.pilot_x = pilot_x
        self.pilot_y = pilot_y
        self.h_sigma = float(h_sigma)
        self.domain = domain

    def variance_batch(self, xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        out = np.empty(xs.shape[0])
        for rows in row_blocks(xs.shape[0], self.pilot_x.shape[0]):
            weights = chebyshev_distances(xs[rows], self.pilot_x)
            np.subtract(self.h_sigma, weights, out=weights)
            np.maximum(weights, 0.0, out=weights)
            wsum = weights.sum(axis=1)
            second = weights @ (self.pilot_y**2) / np.maximum(1.0, wsum)
            first = weights @ self.pilot_y
            out[rows] = second - first**2 / np.maximum(1.0, wsum**2)
        return np.maximum(out, 0.0)

    def variance_at(self, x):
        x = np.atleast_1d(np.asarray(x, float))
        return float(self.variance_batch(x[None, :])[0])

    def sigma_batch(self, xs):
        return np.sqrt(self.variance_batch(xs))

    def mean_sigma(self, points_per_dim):
        """Midpoint-rule average of sigma-hat over the domain."""
        centers, _ = self.domain.grid(points_per_dim)
        return float(self.sigma_batch(centers).mean())
