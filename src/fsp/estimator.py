"""Kernel machinery: bias correction, personalized prediction, pilot variance.

The bias estimator averages y_i minus the locally-smoothed black-box value
over a sup-norm window of radius h around the query point; the personalized
prediction adds that average back onto the black-box value at the query.
"""

import contextvars
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import DataError, HolderParams, frozen_sample, json_scalar

__all__ = [
    "row_blocks",
    "chebyshev_distances",
    "holder_powers",
    "truncate",
    "smoothed_window_means",
    "Candidates",
    "window_passes",
    "window_biases",
    "PersonalizedEstimator",
    "VarianceField",
    "box_cell",
    "grid_cells",
    "pilot_bandwidth",
]

_CHUNK_ELEMENTS = 2_000_000
_SLAB_PAIRS = 32_768  # a slab of variance bounds masks 8x this many (pilot, cell) pairs: 256 KB
# pilot points a variance moment's dot product takes at a time: OpenBLAS splits a
# dot product of more than 10,000 elements across its threads, so its bits would
# depend on the thread count
_DOT_COLUMNS = 8_192
_TILE_PAIRS = 32_768  # a distance tile and its scratch take 512 KB, well inside a core's L2
# a window block with fewer pairs runs its passes on one thread: below it the
# hand-off costs more than the second thread saves
_SPLIT_PAIRS = 32_768
# threads a window block may run on: the calling thread and, with 2, one worker of its own
_threads = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, 2
)


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
            np.subtract(a[:, j].take(rows[tile]), b[:, j].take(cols[tile]), out=dest)
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


def holder_powers(dist, theta2):
    """Euclidean distances raised to theta2; with theta2 = 0, distance 0 maps to 0."""
    if theta2 > 0:
        return dist**theta2
    return np.where(dist > 0, 1.0, 0.0)


def truncate(anchor, sign, magnitude, band, out=None):
    """omega = anchor + sign * min(magnitude, band): a value whose deviation from
    the anchor value has this sign and magnitude, truncated to the band
    theta1 * ||x - anchor||_2 ** theta2.  out may be band itself."""
    out = np.minimum(magnitude, band, out=out)
    out *= sign
    out += anchor
    return out


def _start(fn, *args):
    """(executor, Future) of fn(*args) on a new single-use worker thread, in a copy
    of the caller's context (so under its numpy error handling), or None where
    the thread cannot start.  No executor outlives its block, so a forked child
    inherits no executor whose thread it lacks."""
    from concurrent.futures import ThreadPoolExecutor  # pulls in logging: 2.5 ms

    executor = ThreadPoolExecutor(1)
    try:
        return executor, executor.submit(contextvars.copy_context().run, fn, *args)
    except RuntimeError:  # can't start new thread: the next block tries again
        return None


def smoothed_window_means(train_x, train_y, f_train, xs, f_eval, hs, passes, consume):
    """Window means of y_i - omega(f(x_i)) for one row block xs: consume(ks, means)
    gets each residual pass's means of its pairs ks, shape (rows, len(ks)).

    hs are the sorted distinct bandwidths; passes lists the residual passes
    (theta2, theta1, ks, rungs), those of one theta2 next to each other, with the
    index arrays of the pass's pairs, where a rung indexes hs.  A theta1 > 0
    theta has its own pass; all theta1 = 0 thetas share one pass under
    theta2 = None, whose truncation is +-0.0 whatever theta2 is.

    The pairs inside the widest window hs[-1] are gathered once, through flat
    indices col * rows + row into the (n, rows) sup-norm distances, and each
    gets its rung: the first bandwidth whose window holds it.  Their Euclidean
    distances are computed on those pairs alone; y, f(x_i) and f(x0) are
    gathered once.  Each pass runs one residual chain.

    Every pass sums its residuals into (row, rung) bins with bincount, adding
    each bin's pairs one after another in training order from +0.0, and
    cumulative sums over the rungs give every window.  A row's sums thus read
    that row's pairs alone: a query has the same bits alone and in any batch or
    block.  Consecutive pairs fall in different rows' bins, so their adds do not
    wait on each other.  An empty window gives 0 through the max(1, count) guard.

    A block of more than one pass whose window holds at least _SPLIT_PAIRS pairs
    runs on two threads, as bincount and the residual chain let go of the GIL:
    a worker thread of the block's own runs and consumes the passes from the
    theta2 boundary nearest the middle of the list (the middle itself where every
    pass shares one theta2), while the calling thread runs and consumes those
    before it.  A block whose worker cannot start runs its passes serially.
    A thread raises a theta2's Holder powers at its first pass of that theta2
    and drops them before its next theta2's, so each thread holds one power
    array at a time.
    A pass reads only the block's shared arrays and hands over only its own
    pairs ks, so the bits do not depend on the thread count; the block returns
    or raises only once its worker thread has ended.
    """
    n_rows, n_rungs = xs.shape[0], len(hs)
    dist_inf = chebyshev_distances(train_x, xs)
    flat = np.flatnonzero(dist_inf <= hs[-1])
    if n_rungs > 1:  # with one bandwidth, every gathered pair is on its one rung
        pair_rungs = np.searchsorted(hs, dist_inf.ravel().take(flat))
    del dist_inf
    cols = flat // n_rows  # a floor division by a scalar, unlike np.divmod, is fast
    rows = cols * n_rows
    np.subtract(flat, rows, out=rows)
    del flat
    weighted = any(theta2 is not None for theta2, *_ in passes)  # some pass truncates
    if weighted:
        dist = _squared_distances(xs, train_x, (rows, cols))
        np.sqrt(dist, out=dist)
        magnitude = f_train.take(cols)
    y_in = train_y.take(cols)
    del cols
    f0 = f_eval.take(rows)
    if weighted:
        magnitude -= f0
        sign = np.sign(magnitude)
        np.abs(magnitude, out=magnitude)
    bins = rows  # in place: each pair's (row, rung) bin
    bins *= n_rungs
    del rows
    if n_rungs > 1:
        bins += pair_rungs
        del pair_rungs
    counts = np.bincount(bins, minlength=n_rows * n_rungs).reshape(n_rows, n_rungs).cumsum(axis=1)
    np.maximum(counts, 1, out=counts)

    def run_passes(todo):
        held = power = None
        for theta2, theta1, ks, rungs in todo:
            if theta2 is None:
                residuals = y_in - f0
            else:
                if theta2 != held:
                    power = None  # before the next theta2's powers are raised
                    held, power = theta2, holder_powers(dist, theta2)
                band = np.multiply(theta1, power)
                residuals = np.subtract(y_in, truncate(f0, sign, magnitude, band, out=band), out=band)
            # float sums: bincount over no pairs returns integer zeros
            sums = np.bincount(bins, residuals, n_rows * n_rungs).reshape(n_rows, n_rungs)
            del residuals
            means = sums.cumsum(axis=1, dtype=float)
            means /= counts
            consume(ks, means[:, rungs])

    started = None
    if _threads > 1 and len(passes) > 1 and bins.size >= _SPLIT_PAIRS:
        # the theta2 boundary nearest the middle of the list, or the middle itself
        cuts = [k for k in range(1, len(passes)) if passes[k][0] != passes[k - 1][0]]
        cut = min(cuts or [len(passes) // 2], key=lambda k: abs(2 * k - len(passes)))
        started = _start(run_passes, passes[cut:])
    if started is None:
        return run_passes(passes)
    executor, worker = started
    try:
        run_passes(passes[:cut])
    finally:  # joins the worker: no consume call follows this block's return or exception
        executor.shutdown()
    worker.result()


@dataclass(frozen=True, eq=False, repr=False)
class Candidates:
    """(theta, h) pairs as three read-only columns: pair k is
    (thetas[theta_index[k]], bandwidth[k]).

    thetas are distinct, in order of first appearance; theta_index takes the
    smallest unsigned integer type that fits.  A candidate list holds about
    9 bytes a pair, not a tuple and a float.
    """

    thetas: tuple
    theta_index: np.ndarray
    bandwidth: np.ndarray

    def __post_init__(self):
        for column in (self.theta_index, self.bandwidth):
            column.flags.writeable = False

    def __len__(self):
        return len(self.bandwidth)

    @classmethod
    def from_pairs(cls, pairs):
        """The columns of a list of (theta, h) pairs, in the same order."""
        slots = {}
        index = [slots.setdefault(theta, len(slots)) for theta, _ in pairs]
        bandwidth = np.array([h for _, h in pairs], dtype=float)
        return cls(tuple(slots), np.array(index, dtype=np.min_scalar_type(len(slots))), bandwidth)


def window_passes(train_x, train_y, f_train, xs, f_eval, candidates, consume):
    """Window means at xs of each (theta, h) pair of the Candidates, for CV
    scoring, rule mode and prediction alike, handed over as they are made:
    consume(rows, ks, means) gets, per row block and residual pass, the means of
    the pass's pairs ks at the rows slice of xs, shape (rows, len(ks)).  In a
    block split over two threads, each thread calls consume, so two calls may
    run at once, with disjoint ks.

    The sorted distinct bandwidths form a ladder of nested windows.  The pairs
    share residual passes: one per theta with theta1 > 0, and one for every
    theta1 = 0 theta.  The passes run in sorted (theta2, theta1) order, the
    shared one first, and a stable sort of the pairs by pass gives each its
    pairs in order.  Each pair belongs to one pass and each row's sums run
    over its pairs in training order, so the pass order moves no bit.
    """
    hs = np.sort(candidates.bandwidth)  # then its distinct values (np.unique imports numpy.ma)
    distinct = np.ones(len(hs), bool)
    np.not_equal(hs[1:], hs[:-1], out=distinct[1:])
    hs = hs[distinct]
    # each theta's pass (theta2, theta1), or (None, 0.0) for every theta1 = 0 theta
    of_theta = [(t.theta2, t.theta1) if t.theta1 > 0 else (None, 0.0) for t in candidates.thetas]
    keys = sorted(set(of_theta), key=lambda key: (key[0] is not None, key))  # the shared pass first
    slots = {key: k for k, key in enumerate(keys)}
    pass_of = np.array([slots[key] for key in of_theta], np.min_scalar_type(len(keys)))
    pair_pass = pass_of.take(candidates.theta_index)
    order = np.argsort(pair_pass, kind="stable")  # the pairs, pass by pass
    ends = np.cumsum(np.bincount(pair_pass, minlength=len(keys))).tolist()
    del pair_pass
    rungs = np.searchsorted(hs, candidates.bandwidth.take(order))
    passes = [
        (theta2, theta1, order[start:end], rungs[start:end])
        for (theta2, theta1), start, end in zip(keys, [0, *ends], ends)
    ]
    # the block budget counts every buffer alive at once when the widest window
    # holds every pair: per pair, the bins, rungs, two gathered operands (y and
    # f(x0)), the residual chain and a temporary, and with a theta1 > 0 pass
    # also the Euclidean distances, one power (whatever the number of theta2
    # values) and two more gathered operands; with more than one pass, the
    # second thread's power and residual chain; per (row, rung), the counts and
    # one thread's sums, means and the means it hands to consume.  A block takes
    # three eighths of the chunk budget, 6 MB
    per_pair = 12 if len(passes) > 1 else 6 if passes[0][0] is None else 10
    width = per_pair * train_x.shape[0] + 4 * len(hs)
    for rows in row_blocks(xs.shape[0], 8 * width // 3):
        smoothed_window_means(
            train_x, train_y, f_train, xs[rows], f_eval[rows], hs, passes, partial(consume, rows)
        )


def window_biases(train_x, train_y, f_train, xs, f_eval, pairs):
    """Bias estimates at xs for each (theta, h) pair, shape (len(pairs), len(xs))."""
    out = np.empty((len(pairs), xs.shape[0]))

    def scatter(rows, ks, means):
        out[ks, rows] = means.T

    window_passes(train_x, train_y, f_train, xs, f_eval, Candidates.from_pairs(pairs), scatter)
    return out


class PersonalizedEstimator:
    """Frozen fit artifact: training samples, smoothing parameters, bandwidth.

    Evaluation queries the black-box at the requested points only; its
    values at the training points are cached once at construction.
    """

    def __init__(self, train_x, train_y, model, theta, bandwidth, domain, f_train=None):
        train_x, train_y = frozen_sample(train_x, train_y, "training samples")
        if train_x.shape[0] < 1:
            raise ValueError("need at least one training sample")
        bandwidth = json_scalar(bandwidth, float, "bandwidth", "a positive number", lambda v: v > 0)
        if not isinstance(theta, HolderParams):
            theta = HolderParams(*theta)
        domain.require(train_x, "training point")
        if f_train is None:
            f_train = model.predict_batch(train_x)
        self.f_train = frozen_sample(train_x, f_train, "f_train")[1]
        self.train_x = train_x
        self.train_y = train_y
        self.model = model
        self.theta = theta
        self.bandwidth = bandwidth
        self.domain = domain

    @np.errstate(over="ignore", invalid="ignore")  # an overflow raises DataError instead
    def estimate_bias(self, x):
        """Kernel estimate of the bias at one point; DataError if it is not finite."""
        xs = np.atleast_1d(np.asarray(x, float))[None, :]
        self.domain.require(xs, "query point")
        bias = self._bias_given_f(xs, self.model.predict_batch(xs))
        return float(_finite(bias, xs, "bias estimate")[0])

    def predict(self, x):
        x = np.atleast_1d(np.asarray(x, float))
        return float(self.predict_batch(x[None, :])[0])

    @np.errstate(over="ignore", invalid="ignore")  # an overflow raises DataError instead
    def predict_batch(self, xs):
        """Black-box value plus estimated bias, one batched query for xs; DataError if
        a prediction is not finite."""
        xs = np.atleast_2d(np.asarray(xs, float))
        if xs.shape[0] == 0:
            return np.empty(0)
        self.domain.require(xs, "query point")
        f_eval = self.model.predict_batch(xs)
        return _finite(f_eval + self._bias_given_f(xs, f_eval), xs, "prediction")

    def _bias_given_f(self, xs, f_eval):
        pair = (self.theta, self.bandwidth)
        return window_biases(self.train_x, self.train_y, self.f_train, xs, f_eval, [pair])[0]


def _finite(values, xs, what):
    """values, one per row of xs; DataError naming the first row whose `what` is not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(bad.argmax())
        raise DataError(f"the {what} at query point {i} = {xs[i].tolist()} overflows float64; "
                        "rescale the model or the labels")
    return values


def _moment_bounds(cell, n_cells, w_lo, w_hi, y, y2, gamma):
    """Bounds (lo, hi) on the kernel's variance in each cell, from the weight bounds
    of its (cell, pilot) pairs with their labels y and fl(y^2); see
    VarianceField.variance_bounds for the centring and the pad gamma."""

    def total(values):
        return np.bincount(cell, values, n_cells)

    def split(values):
        # the least and the greatest Sum w * values over w in [w_lo, w_hi]
        up = values > 0
        return total(np.where(up, w_lo, w_hi) * values), total(np.where(up, w_hi, w_lo) * values)

    s_lo, s_hi = total(w_lo), total(w_hi)

    def over_s(low, high):
        # bounds on N / S for N in [low, high] and S in [s_lo, s_hi]
        return low / np.where(low < 0, s_lo, s_hi), high / np.where(high > 0, s_lo, s_hi)

    q_hi, g_hi = total(w_hi * y2), total(w_hi * np.abs(y))
    t = y - (total(w_hi * y) / s_hi).take(cell)  # y - c
    a = t * t
    qc_hi, hc = total(w_hi * a), total(w_hi * np.abs(t))
    tau = qc_hi / s_hi
    # Sum w (y - c)^2 / S = tau + Sum w ((y - c)^2 - tau) / S, where the last sum
    # nearly cancels, so its bounds are tight
    n_lo, n_hi = over_s(*split(a - tau.take(cell)))
    f_lo, f_hi = over_s(*split(t))  # Sum w (y - c) / S
    f2_hi = np.maximum(f_lo**2, f_hi**2)
    f2_lo = np.where((f_lo <= 0) & (f_hi >= 0), 0.0, np.minimum(f_lo**2, f_hi**2))
    pad = 16 * gamma * (q_hi / s_lo + (g_hi / s_lo) ** 2 + qc_hi / s_lo + (hc / s_lo) ** 2)
    lo = tau + n_lo - f2_hi - pad
    hi = tau + n_hi - f2_lo + pad
    ok = (s_lo * (1 - 4 * gamma) >= 1) & np.isfinite(lo) & np.isfinite(hi)
    ok &= np.isfinite(2 * (s_hi * s_hi + q_hi + g_hi * g_hi))
    return np.where(ok, np.maximum(lo, 0.0), 0.0), np.where(ok, np.maximum(hi, 0.0), np.inf)


def box_cell(domain):
    """The box as a grid of one cell with bounds (0, inf), in the form of
    VarianceField.variance_bounds: a squeeze that decides nothing."""
    return [np.array([a, b]) for a, b in zip(domain.lo, domain.hi)], np.zeros(1), np.full(1, np.inf)


@np.errstate(over="ignore", invalid="ignore")  # a wrong guess is searched for
def grid_cells(edges, xs):
    """C-order index of the cell of a VarianceField.variance_bounds grid holding each
    row of xs (all in the box): edges[j][k] <= x_j <= edges[j][k + 1] for cell k on axis j."""
    cells = np.zeros(xs.shape[0], np.intp)
    for j, e in enumerate(edges):
        m, x = len(e) - 1, xs[:, j]
        k = np.clip(((x - e[0]) * (m / (e[-1] - e[0]))).astype(np.intp), 0, m - 1)
        wrong = (x < e.take(k)) | (x > e.take(k + 1))
        if wrong.any():
            k[wrong] = np.clip(np.searchsorted(e, x[wrong], "right") - 1, 0, m - 1)
        cells *= m
        cells += k
    return cells


def pilot_bandwidth(n, dim):
    """Default variance-pilot bandwidth n ** (-1 / (d + 2))."""
    return float(n) ** (-1.0 / (dim + 2))


def _row_dots(weights, values):
    """np.vecdot(weights, values) over chunks of _DOT_COLUMNS columns, the partial
    sums added in chunk order; one chunk is np.vecdot itself."""
    total = np.vecdot(weights[:, :_DOT_COLUMNS], values[:_DOT_COLUMNS])
    for start in range(_DOT_COLUMNS, len(values), _DOT_COLUMNS):
        total += np.vecdot(weights[:, start : start + _DOT_COLUMNS], values[start : start + _DOT_COLUMNS])
    return total


class VarianceField:
    """Kernel estimate of the conditional noise variance from pilot samples.

    Uses the tent kernel K_h(x, x') = max(0, h - ||x - x'||_inf); both
    moment averages carry a max(1, .) guard in the denominator and the
    resulting variance is clamped at zero.  The weight sum and both moments
    reduce each query's row of tent weights on its own (a row sum and two
    row products, _row_dots), so a query's bits do not depend on its batch or
    on the OpenBLAS thread count.  The domain's own quadrature grid
    domain.grid(m)[0] (the quadrature nodes up to d = 4) takes its tent weights
    from per-axis tents instead of sup-norm distances, with the same bits.
    """

    def __init__(self, pilot_x, pilot_y, h_sigma, domain):
        pilot_x, pilot_y = frozen_sample(pilot_x, pilot_y, "pilot sample")
        if not h_sigma > 0:
            raise ValueError("h_sigma must be positive")
        self.pilot_x = pilot_x
        self.pilot_y = pilot_y
        self.h_sigma = float(h_sigma)
        self.domain = domain

    @np.errstate(over="ignore", invalid="ignore")  # an overflow raises DataError instead
    def variance_batch(self, xs):
        """The variance estimate at each row of xs; DomainError if xs is not as wide as the domain."""
        xs = self.domain._of_width(np.atleast_2d(np.asarray(xs, float)), "query point")
        out = np.empty(xs.shape[0])
        n, dim = self.pilot_x.shape
        m = round(len(xs) ** (1 / dim))
        # the grid path's blocks are whole lines along the last axis: a block's weights
        # and two line-sized temporaries fit beside every axis's tents in a sixteenth
        # of the chunk budget (1 MB), as in _tent_blocks, where step >= 1
        step = (_CHUNK_ELEMENTS // 16 - dim * m * n) // ((m + 2) * max(n, 1))  # lines a block
        # the first row is compared first, so a batch of m ** d rows off the grid
        # does not build it
        on_grid = (dim >= 2 and m >= 2 and m**dim == len(xs) and step >= 1
                   and np.array_equal(xs[0], [axis[0] for axis in self.domain.grid_axes(m)]))
        if on_grid and np.array_equal(xs, self.domain.grid(m)[0]):
            blocks = self._grid_tent_blocks(m, step)
        else:
            blocks = self._tent_blocks(xs)
        pilot_y2 = self.pilot_y**2
        for rows, weights in blocks:
            wsum = weights.sum(axis=1)
            second = _row_dots(weights, pilot_y2) / np.maximum(1.0, wsum)
            first = _row_dots(weights, self.pilot_y)
            out[rows] = second - first**2 / np.maximum(1.0, wsum**2)
        if not np.isfinite(out).all():
            raise DataError(f"the pilot labels' moments overflow float64 at h_sigma = {self.h_sigma!r}; "
                            "rescale the labels or lower h_sigma")
        return np.maximum(out, 0.0)

    def _tent_blocks(self, xs):
        """(rows, tent weights of those rows of xs), in row blocks of a sixteenth of
        the chunk budget (1 MB): the moments read a block six times, and a block
        that stays in a core's L2 cache runs about 1.4x faster than a 16 MB one; a
        freed 16 MB block would also lift glibc's mmap threshold, after which later
        blocks stay resident on the heap and a pool fit's peak RSS rises by 26-40 MB."""
        for rows in row_blocks(xs.shape[0], 16 * self.pilot_x.shape[0]):
            weights = chebyshev_distances(xs[rows], self.pilot_x)
            np.subtract(self.h_sigma, weights, out=weights)
            np.maximum(weights, 0.0, out=weights)
            yield rows, weights

    def _grid_tent_blocks(self, m, step):
        """_tent_blocks for the domain's quadrature grid domain.grid(m)[0], `step`
        whole lines a block, from per-axis tents max(0, h - |x_j - p_j|) at the
        domain's grid_axes(m): as rounding is monotone, their minimum over the axes
        is the tent max(0, h - max_j |x_j - p_j|) bit for bit.

        The grid's rows form lines along the last axis, the axes before it fixed.
        Every block's weights are written into one buffer, each over the last: a
        fresh 1 MB block each time would fault its pages in again.
        """
        n, dim = self.pilot_x.shape
        tents = []
        for j, values in enumerate(self.domain.grid_axes(m)):
            tent = np.subtract.outer(values, self.pilot_x[:, j])  # the kernel's x - p
            np.abs(tent, out=tent)
            np.subtract(self.h_sigma, tent, out=tent)
            tents.append(np.maximum(tent, 0.0, out=tent))
        n_lines = m ** (dim - 1)
        buffer = np.empty(min(step, n_lines) * m * n)
        for start in range(0, n_lines, step):
            # each line's index on every axis before the last
            lines = np.unravel_index(np.arange(start, min(start + step, n_lines)), (m,) * (dim - 1))
            inner = tents[0].take(lines[0], axis=0)
            for tent, index in zip(tents[1:-1], lines[1:]):
                np.minimum(inner, tent.take(index, axis=0), out=inner)
            weights = buffer[: len(inner) * m * n].reshape(len(inner), m, n)
            np.minimum(inner[:, None, :], tents[-1][None], out=weights)
            yield slice(start * m, (start + len(inner)) * m), weights.reshape(-1, n)

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def variance_bounds(self, rows):
        """Bounds on what variance_batch returns over each cell of a grid on the box,
        sized for a batch of `rows` queries (interval bounds, Moore 1966).

        Returns (edges, lo, hi): edges[j] are the cell edges on axis j, and every
        query in the cell with C-order index k gets lo[k] <= variance_batch <= hi[k].
        A cell gets (0, inf) where the bounds are not finite or the weight-sum
        guard max(1, .) may be active.  Returns box_cell(domain) unless the grid
        pays for itself: at most rows / 16 cells, each at most h_sigma / 4 wide, and
        at most rows * pilot / 64 (cell, pilot) pairs within reach.  grid_cells
        finds a query's cell.

        Each axis takes the kernel's own differences x - p at every cell edge; as
        rounding is monotone, the float tent weight of a query in a cell lies
        between the weights at the cell's farthest and nearest sup-norm distances.
        Only the pairs within reach are summed, a slab of cells at a time.  With
        the guard off the kernel's variance is shift-invariant in exact
        arithmetic, so each cell's sums are centred: on c, the weighted mean of
        its labels, and the second moment on tau, its weighted mean.

        Margin: let u = 2^-53, gamma_k = k u / (1 - k u), n pilot points, and S,
        F, Q, G the exact sums Sum w, Sum w y, Sum w fl(y^2), Sum w |y| of the
        kernel's weights.  Any summation order, with or without FMA, gives
        fl(S) = S (1 + theta_n), fl(Q) = Q (1 + theta_n) and
        |fl(F) - F| <= gamma_n G (Higham 2002, sections 3.1 and 4.2).  With
        fl(S) >= 1 the kernel's v = fl(fl(Q)/fl(S) - fl(fl(F)^2)/fl(fl(S)^2))
        thus lies within 4 gamma_{2n+4} (Q/S + G^2/S^2) of Q/S - F^2/S^2, as
        G >= |F|, which lies within u Q/S of the shift-invariant variance, as
        fl(y^2) rounds once.  The bounds' own sums have at most n terms per
        cell, so their rounding adds under 4 gamma_{2n+4} (Qc/S + Hc^2/S^2),
        with Qc = Sum w (y - c)^2 and Hc = Sum w |y - c|.  The pad
        16 gamma_{2n+16} (Q/S + G^2/S^2 + Qc/S + Hc^2/S^2), taken at the cell's
        extreme sums, covers both twice over.  fl(S) >= 1 holds where the lower
        sum times (1 - 4 gamma) is at least 1, and S^2, Q and G^2 finite with a
        factor 2 to spare keep every partial sum of the kernel finite.
        """
        n, dim = self.pilot_x.shape
        h = self.h_sigma
        box_lo, box_hi = np.asarray(self.domain.lo), np.asarray(self.domain.hi)
        cap = min(rows / 16, (_CHUNK_ELEMENTS / 8 / max(n, 1)) ** dim)  # cells; tables of m x n
        m = int(cap ** (1.0 / dim))
        while (m + 1) ** dim <= cap:
            m += 1
        while m > 1 and m**dim > cap:
            m -= 1
        if m < 2 or (box_hi - box_lo).max() > m * h / 4:
            return box_cell(self.domain)
        pilot_y2 = self.pilot_y**2
        if not np.isfinite(pilot_y2).all():
            return box_cell(self.domain)  # the kernel's moments overflow, so it raises
        edges, reach, near, far = [], [], [], []
        for j in range(dim):
            e = np.minimum(np.linspace(box_lo[j], box_hi[j], m + 1), box_hi[j])
            diff = e - self.pilot_x[:, j, None]  # the kernel's x - p at each edge, a row per pilot point
            d_near = np.maximum(np.maximum(diff[:, :-1], -diff[:, 1:]), 0.0)  # (n, cells)
            edges.append(e)
            reach.append(d_near < h)  # the cells within reach of each pilot point
            near.append(d_near.ravel())
            far.append(np.maximum(-diff[:, :-1], diff[:, 1:]).ravel())
        if np.prod([r.sum(axis=1) for r in reach], axis=0).sum() > rows * n / 64:
            return box_cell(self.domain)
        gamma = (2 * n + 16) * 2.0**-53 / (1 - (2 * n + 16) * 2.0**-53)
        n_lines = m ** (dim - 1)
        lo, hi = np.empty(n_lines * m), np.empty(n_lines * m)
        # slabs of whole lines along the last axis, as in _grid_tent_blocks, whose
        # masks of the (pilot, cell) pairs within reach hold about 8 * _SLAB_PAIRS
        # booleans; a mask's pairs come pilot by pilot, in C order of the slab's cells
        step = max(1, 8 * _SLAB_PAIRS // max(n * m, 1))
        for start in range(0, n_lines, step):
            stop = min(start + step, n_lines)
            # each line's index on every axis before the last
            lines = np.unravel_index(np.arange(start, stop), (m,) * (dim - 1)) if dim > 1 else ()
            width = (stop - start) * m
            inner = np.ones((n, stop - start), bool)
            for r, index in zip(reach, lines):
                inner &= r.take(index, axis=1)
            cell = np.flatnonzero(inner[:, :, None] & reach[-1][:, None, :])
            pilot = cell // width
            cell -= pilot * width
            line = cell // m
            row = pilot * m  # each pair's offset into every axis's (n, cells) tables
            at = row + (cell - line * m)  # on the last axis
            d_min, d_max = near[-1].take(at), far[-1].take(at)
            for j, index in enumerate(lines):
                at = row + index.take(line)
                np.maximum(d_min, near[j].take(at), out=d_min)
                np.maximum(d_max, far[j].take(at), out=d_max)
            del line, row, at
            w_lo = np.maximum(np.subtract(h, d_max, out=d_max), 0.0, out=d_max)
            w_hi = np.maximum(np.subtract(h, d_min, out=d_min), 0.0, out=d_min)
            lo[start * m : stop * m], hi[start * m : stop * m] = _moment_bounds(
                cell, width, w_lo, w_hi, self.pilot_y.take(pilot), pilot_y2.take(pilot), gamma
            )
        return edges, lo, hi
