"""Plain-loop oracles for the `serve` and `fit` output checks.

Written row by row with Python floats, independently of fsp's vectorized
kernels, so a checked prediction or score must agree with them to rounding.
"""

import math


def kernel_smooth_oracle(points, values, bandwidth, x):
    """Box-kernel local mean: sum of values within sup-norm `bandwidth` over max(1, count)."""
    total = 0.0
    count = 0
    for p, v in zip(points.tolist(), values.tolist()):
        if max(abs(a - b) for a, b in zip(p, x)) <= bandwidth:
            total += v
            count += 1
    return total / max(1, count)


def window_oracle(train, fx, x, theta1, theta2, h):
    """Black-box value fx at x plus the truncate-and-average bias estimate.

    `train` holds (x_i, y_i, f(x_i)) rows as Python lists and floats.
    """
    total = 0.0
    count = 0
    for xi, yi, fi in train:
        if max(abs(a - b) for a, b in zip(xi, x)) > h:
            continue
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(xi, x)))
        power = dist**theta2 if theta2 > 0 else (1.0 if dist > 0 else 0.0)
        delta = fi - fx
        trunc = math.copysign(min(abs(delta), theta1 * power), delta) if delta != 0 else 0.0
        total += yi - (fx + trunc)
        count += 1
    return fx + total / max(1, count)


def _rows(train_x, train_y, f_train):
    return list(zip(train_x.tolist(), train_y.tolist(), f_train.tolist()))


def personalized_oracle(estimator, model, x):
    """Prediction of a frozen estimator at x, the black box recomputed too."""
    x = [float(v) for v in x]
    fx = kernel_smooth_oracle(model.points, model.values, model.bandwidth, x)
    train = _rows(estimator.train_x, estimator.train_y, estimator.f_train)
    theta = estimator.theta
    return window_oracle(train, fx, x, theta.theta1, theta.theta2, estimator.bandwidth)


def validation_score_oracle(train_x, train_y, f_train, val_x, val_y, f_val, theta, h):
    """Validation sum of squared errors of one (theta, h) pair."""
    train = _rows(train_x, train_y, f_train)
    total = 0.0
    for x, y, fx in zip(val_x.tolist(), val_y.tolist(), f_val.tolist()):
        total += (y - window_oracle(train, fx, x, theta.theta1, theta.theta2, h)) ** 2
    return total
