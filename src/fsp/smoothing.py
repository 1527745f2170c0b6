"""Local smoothing of a black-box function around an anchor point.

The transform truncates a function's deviation from its anchor value to
the band theta1 * ||x - anchor||_2 ** theta2, which forces local-smoothness
membership while keeping the anchor value untouched.

The smoothed function is a BlackBoxModel or a plain callable.  A plain
callable is called on one point, an array of shape (d,), and returns one
number; a function of (m, d) batches goes through FunctionModel.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blackbox import BlackBoxModel
from .estimator import holder_powers, truncate

__all__ = [
    "local_smooth",
    "smooth_values",
    "SmoothedView",
    "SmoothnessCheck",
    "check_local_smooth",
]


def smooth_values(anchor_value, values, distances, theta):
    """Vectorized core: truncate `values` toward `anchor_value`.

    `distances` are Euclidean distances from the anchor.  With theta2 = 0
    the band has constant width theta1 away from the anchor; at distance 0
    the deviation is 0, so the anchor value passes through exactly.
    """
    delta = np.asarray(values, float) - anchor_value
    band = theta.theta1 * holder_powers(np.asarray(distances, float), theta.theta2)
    return truncate(anchor_value, np.sign(delta), np.abs(delta), band)


def _scalar_eval(g, x):
    if isinstance(g, BlackBoxModel):
        return g.predict(x)
    return float(np.asarray(g(np.asarray(x, float)), float).reshape(()))


def local_smooth(g, theta, anchor, x):
    """Evaluate the smoothed view of g at x, anchored at `anchor`.

    Returns g(anchor) + sign(g(x) - g(anchor)) * min(|g(x) - g(anchor)|,
    theta1 * ||x - anchor||_2 ** theta2).  The anchor itself is returned
    without touching the exponent.
    """
    anchor = np.atleast_1d(np.asarray(anchor, float))
    x = np.atleast_1d(np.asarray(x, float))
    g_anchor = _scalar_eval(g, anchor)
    if np.array_equal(x, anchor):
        return g_anchor
    dist = float(np.linalg.norm(x - anchor))
    return float(smooth_values(g_anchor, _scalar_eval(g, x), dist, theta))


@dataclass(frozen=True)
class SmoothedView:
    """Frozen view of a base function after local smoothing at one anchor."""

    base: object
    theta: object
    anchor: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "anchor", tuple(float(v) for v in np.atleast_1d(self.anchor))
        )

    def __call__(self, x):
        return local_smooth(self.base, self.theta, np.asarray(self.anchor), x)

    def batch(self, xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        anchor = np.asarray(self.anchor)
        values = _batch_eval(self.base, xs)
        g_anchor = _scalar_eval(self.base, anchor)
        distances = np.linalg.norm(xs - anchor, axis=1)
        return smooth_values(g_anchor, values, distances, self.theta)


def _batch_eval(f, xs):
    """Evaluate f on (m, d) rows; a plain callable is called one point at a time."""
    if isinstance(f, BlackBoxModel):
        return f.predict_batch(xs)
    if isinstance(f, SmoothedView):
        return f.batch(xs)
    return np.array([_scalar_eval(f, row) for row in xs])


class SmoothnessCheck(NamedTuple):
    ok: bool
    max_ratio: float


def check_local_smooth(f, theta, anchor, probe_points, rtol=1e-12):
    """Test whether f is locally (theta1, theta2)-smooth at `anchor`.

    Evaluates max over probes of |f(x) - f(anchor)| / ||x - anchor||_2 **
    theta2 and compares against theta1 within relative tolerance.
    """
    probes = np.atleast_2d(np.asarray(probe_points, float))
    if probes.shape[0] == 0:
        raise ValueError("need at least one probe point")
    anchor = np.atleast_1d(np.asarray(anchor, float))
    distances = np.linalg.norm(probes - anchor, axis=1)
    if (distances == 0).any():
        raise ValueError("probe points must differ from the anchor")
    values = _batch_eval(f, probes)
    f_anchor = _scalar_eval(f, anchor)
    max_ratio = float(np.max(np.abs(values - f_anchor) / holder_powers(distances, theta.theta2)))
    return SmoothnessCheck(max_ratio <= theta.theta1 * (1 + rtol), max_ratio)
