"""Shared test utilities: independent oracles and randomized property checks.

The oracles here are deliberately written as plain loops, independent of
the library's vectorized kernels, so they can serve as cross-checks.
"""

import numpy as np

from fsp import (
    ExpressionModel,
    FitConfig,
    HolderParams,
    check_local_smooth,
    fit_personalized_pool,
    local_smooth,
)
from fsp.core import EnvelopeError, rng_stream
from fsp.estimator import holder_powers


def chebyshev_broadcast(a, b):
    """Reference sup-norm distances through the (rows, n, d) broadcast."""
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)


def euclidean_broadcast(a, b):
    """Reference Euclidean distances through the (rows, n, d) broadcast."""
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def window_means_dense(y_train, f_train, f_eval, dist_inf, dist2_pow, theta1, h):
    """Reference window means: the residual chain over every pair, then the
    masked sum over full rows."""
    delta = f_train[None, :] - f_eval[:, None]
    trunc = np.sign(delta) * np.minimum(np.abs(delta), theta1 * dist2_pow)
    residuals = y_train[None, :] - (f_eval[:, None] + trunc)
    mask = dist_inf <= h
    return (residuals * mask).sum(axis=1) / np.maximum(mask.sum(axis=1), 1)


def ladder_means_dense(y_train, f_train, f_eval, dist_inf, dist2, pairs):
    """Reference CV window means, one row per (theta, h) pair: each pair of
    points falls in the first rung of the sorted bandwidths whose window holds
    it, or in a last bin outside every window; the residual chain runs over
    every pair, the bins are summed with bincount in the dense order, and
    cumulative sums over the rungs give every window."""
    hs = np.unique([float(h) for _, h in pairs])
    n_rows, n_bins = dist_inf.shape[0], len(hs) + 1
    bins = (np.searchsorted(hs, dist_inf) + n_bins * np.arange(n_rows)[:, None]).ravel()

    def window_sums(weights=None):
        sums = np.bincount(bins, weights=weights, minlength=n_rows * n_bins)
        return sums.reshape(n_rows, n_bins)[:, :-1].cumsum(axis=1)

    counts = np.maximum(window_sums(), 1)
    rows = []
    for theta, h in pairs:
        if theta.theta1 > 0:
            powers = holder_powers(dist2, theta.theta2)
            delta = f_train[None, :] - f_eval[:, None]
            trunc = np.sign(delta) * np.minimum(np.abs(delta), theta.theta1 * powers)
            residuals = y_train[None, :] - (f_eval[:, None] + trunc)
        else:  # the truncation is +-0.0
            residuals = y_train[None, :] - f_eval[:, None]
        means = window_sums(residuals.ravel()) / counts
        rows.append(means[:, np.searchsorted(hs, float(h))])
    return rows


def local_mean_oracle(train_x, train_y, x, h):
    """Box-kernel local mean, hand-rolled: sum y_i 1(||x_i-x||_inf<=h) / max(1, count)."""
    total = 0.0
    count = 0
    for xi, yi in zip(train_x, train_y):
        if max(abs(float(a) - float(b)) for a, b in zip(xi, x)) <= h:
            total += float(yi)
            count += 1
    return total / max(1, count)


def variance_oracle(pilot_x, pilot_y, x, h):
    """Tent-kernel variance estimate, hand-rolled from the moment formula."""
    wsum = 0.0
    m1 = 0.0
    m2 = 0.0
    for xi, yi in zip(pilot_x, pilot_y):
        w = max(0.0, h - max(abs(float(a) - float(b)) for a, b in zip(xi, x)))
        wsum += w
        m1 += w * float(yi)
        m2 += w * float(yi) ** 2
    value = m2 / max(1.0, wsum) - m1**2 / max(1.0, wsum**2)
    return max(0.0, value)


def reference_rejection_sample(density, count, rng):
    """Reference accept/reject sampler without a squeeze: the density is evaluated
    at every proposal.  Returns the draws and the diagnostics that
    rejection_sample(..., return_diagnostics=True) reports."""
    volume = density.domain.volume()
    out = np.empty((count, density.domain.dim))
    filled = proposed = accepted = window_proposed = window_accepted = violations = 0
    rate = 1.0 / density.envelope
    while filled < count:
        need = count - filled
        size = int(min(262_144, max(64, np.ceil(1.1 * need / max(rate, 1e-3)))))
        xs = density.domain.uniform(size, rng)
        accept_prob = density.pdf(xs) * volume / density.envelope
        violations += int((accept_prob > 1).sum())
        keep = rng.random(size) < accept_prob
        taken = xs[keep][:need]
        out[filled : filled + len(taken)] = taken
        filled += len(taken)
        proposed += size
        accepted += int(keep.sum())
        window_proposed += size
        window_accepted += int(keep.sum())
        rate = max(window_accepted, 1) / window_proposed
        if window_proposed >= 100_000:
            if window_accepted / window_proposed < 1e-4:
                raise EnvelopeError(
                    f"acceptance rate {window_accepted / window_proposed:.2e} over "
                    f"{window_proposed} proposals; the envelope is misconfigured"
                )
            window_proposed = window_accepted = 0
    rate = accepted / proposed if proposed else 1.0
    return out, {"proposals": proposed, "acceptance_rate": rate, "envelope_violations": violations}


def rough_test_function(rng, dim):
    """Random piecewise-irregular scalar function on dim-vectors (batch)."""
    freq = rng.uniform(2.0, 12.0, size=dim)
    phase = rng.uniform(0.0, 2 * np.pi)
    amp = rng.uniform(0.3, 2.0)
    power = rng.uniform(0.1, 0.9)
    cut = rng.uniform(-0.5, 0.5)
    jump = rng.uniform(-1.5, 1.5)
    shift = rng.uniform(-0.4, 0.4, size=dim)

    def g(xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        base = amp * np.sin(xs @ freq + phase)
        kink = np.abs(xs - shift).sum(axis=1) ** power
        step = np.where(xs[:, 0] > cut, jump, 0.0)
        return base + kink + step

    return g


def random_smoothing_case(rng, dim=None):
    """One randomized (g, theta, anchor, probes) tuple on [-1, 1]^dim."""
    dim = dim or int(rng.integers(1, 4))
    g = rough_test_function(rng, dim)
    theta = HolderParams(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 1.0)))
    anchor = rng.uniform(-1.0, 1.0, size=dim)
    probes = rng.uniform(-1.0, 1.0, size=(16, dim))
    keep = np.abs(probes - anchor).max(axis=1) > 1e-9
    return g, theta, anchor, probes[keep]


def smoothing_property_violations(cases, seed, check):
    """Count violations of `check(g, theta, anchor, probes)` over random cases."""
    rng = rng_stream(seed, "smoothing-properties")
    bad = 0
    for _ in range(cases):
        g, theta, anchor, probes = random_smoothing_case(rng)
        if len(probes) == 0:
            continue
        if not check(g, theta, anchor, probes):
            bad += 1
    return bad


def anchor_fixed_point_holds(g, theta, anchor, probes):
    return local_smooth(g, theta, anchor, anchor) == float(np.asarray(g(anchor[None, :]))[0])


def membership_holds(g, theta, anchor, probes):
    view = lambda xs: np.array([local_smooth(g, theta, anchor, p) for p in np.atleast_2d(xs)])
    return check_local_smooth(view, theta, anchor, probes).ok


def idempotence_holds(g, theta, anchor, probes):
    view = SmoothView(g, theta, anchor)
    for p in probes:
        once = local_smooth(g, theta, anchor, p)
        again = local_smooth(view, theta, anchor, p)
        if not np.isclose(once, again, rtol=1e-12, atol=1e-12):
            return False
    return True


class SmoothView:
    """Scalar callable wrapper around local_smooth for nesting in tests."""

    def __init__(self, g, theta, anchor):
        self.g = g
        self.theta = theta
        self.anchor = anchor

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        if x.shape[0] == 1:
            return np.array([local_smooth(self.g, self.theta, self.anchor, x[0])])
        return np.array([local_smooth(self.g, self.theta, self.anchor, row) for row in x])


def monotone_band_holds(g, theta, anchor, probes):
    bigger = HolderParams(theta.theta1 * 1.7 + 0.1, theta.theta2)
    g_anchor = float(np.asarray(g(anchor[None, :]))[0])
    for p in probes:
        lo = abs(local_smooth(g, theta, anchor, p) - g_anchor)
        hi = abs(local_smooth(g, bigger, anchor, p) - g_anchor)
        if lo > hi:
            return False
    return True


def fsp_predict_oracle(train_x, train_y, model, theta, h, x):
    """Hand-rolled personalized prediction at one point: window average of
    y_i minus the smoothed model value, added back onto the model value."""
    x = np.asarray(x, float)
    f_x = model.predict(x)
    total = 0.0
    count = 0
    for xi, yi in zip(train_x, train_y):
        if max(abs(float(a) - float(b)) for a, b in zip(xi, x)) <= h:
            f_i = model.predict(np.asarray(xi, float))
            delta = f_i - f_x
            band = theta.theta1 * float(np.linalg.norm(np.asarray(xi) - x)) ** theta.theta2 \
                if theta.theta2 > 0 else (theta.theta1 if float(np.linalg.norm(np.asarray(xi) - x)) > 0 else 0.0)
            omega = f_x + np.sign(delta) * min(abs(delta), band)
            total += float(yi) - omega
            count += 1
    return f_x + total / max(1, count)


def brute_force_select(pairs, train_x, train_y, model, val_x, val_y):
    """Independent argmin over (theta, h) pairs with the documented tie rule
    (smaller h first, then lexicographic theta).  Returns winner and scores."""
    rows = []
    for theta, h in pairs:
        score = 0.0
        for xv, yv in zip(val_x, val_y):
            pred = fsp_predict_oracle(train_x, train_y, model, theta, h, xv)
            score += (float(yv) - pred) ** 2
        rows.append((theta, float(h), score))
    best = None
    for theta, h, score in sorted(rows, key=lambda r: (r[1], r[0])):
        if best is None or score < best[2]:
            best = (theta, h, score)
    return best, rows


def holder_member(rng, dim, theta2):
    """Analytic member of the Holder class with norm <= scale (exact)."""
    center = rng.uniform(-0.5, 0.5, size=dim)
    scale = float(rng.uniform(0.1, 1.5))

    def g(xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        return scale * np.linalg.norm(xs - center, axis=1) ** theta2

    return g, scale


def benchmark_pool_fit(seed=10):
    """The pool fit of `perfbench`'s `cli` workload, built from fsp alone: 20,000 points on
    the unit square with labels |x1| + 0.5 x2 + (0.1 + 0.9 x1) N(0, 1), the model
    0.5 (x1 + x2), n = 2,000, a pilot of 500 and rule mode."""
    rng = rng_stream(4201, "bench-cli-pool")
    xs = rng.random((20_000, 2))
    ys = np.abs(xs[:, 0]) + 0.5 * xs[:, 1] + (0.1 + 0.9 * xs[:, 0]) * rng.standard_normal(20_000)
    model = ExpressionModel("0.5 * (x1 + x2)", 2)
    return fit_personalized_pool(
        model, None, 2000, 500, xs, ys, config=FitConfig(bandwidth="rule"), seed=seed
    )
