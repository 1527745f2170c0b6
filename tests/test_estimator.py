import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fsp
from fsp import (
    Domain,
    ExpressionModel,
    FunctionModel,
    HolderParams,
    KernelSmoothModel,
    PersonalizedEstimator,
    TableModel,
    VarianceField,
)
from fsp import adaptation, estimator
from fsp.core import DataError, default_quadrature_points, rng_stream
from fsp.estimator import Candidates, grid_cells, pilot_bandwidth
from fsp.sampling import plug_in_density
from fsp.smoothing import smooth_values
from helpers import (
    chebyshev_broadcast,
    euclidean_broadcast,
    fsp_predict_oracle,
    ladder_means_dense,
    local_mean_oracle,
    variance_oracle,
    window_means_dense,
)

UNIT = Domain.cube(2)


def _random_fit(rng, n_train=30, theta=None, h=0.35, model=None):
    train_x = rng.random((n_train, 2))
    train_y = rng.normal(size=n_train)
    theta = theta or HolderParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
    model = model or ExpressionModel("x1 - x2**2", 2)
    est = PersonalizedEstimator(train_x, train_y, model, theta, h, UNIT)
    return est, train_x, train_y


def test_empty_window_returns_model_value():
    rng = rng_stream(0, "est")
    train_x = rng.random((10, 2)) * 0.1  # cluster in a corner
    est = PersonalizedEstimator(
        train_x, rng.normal(size=10), ExpressionModel("x1 + 2", 2),
        HolderParams(1.0, 0.5), 0.05, UNIT,
    )
    x = np.array([0.9, 0.9])
    assert est.estimate_bias(x) == 0.0
    assert est.predict(x) == ExpressionModel("x1 + 2", 2).predict(x)


def test_windows_empty_for_a_whole_row_block_give_zero():
    # no training point lies within the widest window of any query, so the
    # (row, rung) bins get no pair at all
    rng = rng_stream(27, "empty-block")
    train_x = rng.random((50, 2)) * 0.4
    xs = 0.6 + rng.random((30, 2)) * 0.4
    train_y = rng.normal(size=50)
    f_train, f_eval = train_x.sum(axis=1), xs.sum(axis=1)
    thetas = [HolderParams(0.0, 0.0), HolderParams(1.5, 0.5)]
    ladder = [(theta, h) for h in (0.05, 0.1) for theta in thetas]
    one_bandwidth = [(theta, 0.1) for theta in thetas]
    for pairs in (ladder, one_bandwidth):
        got = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
        assert got.shape == (len(pairs), len(xs)) and (got == 0.0).all()


def test_single_neighbor_window():
    model = ExpressionModel("3*x1", 2)
    train_x = np.array([[0.5, 0.5], [0.95, 0.95]])
    train_y = np.array([2.0, -1.0])
    theta = HolderParams(0.8, 0.6)
    est = PersonalizedEstimator(train_x, train_y, model, theta, 0.2, UNIT)
    x = np.array([0.45, 0.4])
    # only the first training point is inside the window
    dist = np.linalg.norm(train_x[0] - x)
    omega = smooth_values(model.predict(x), model.predict(train_x[0]), dist, theta)
    assert est.estimate_bias(x) == pytest.approx(train_y[0] - float(omega), rel=1e-13)


def test_window_boundary_is_inclusive():
    model = ExpressionModel("0", 1)
    dom = Domain.cube(1)
    est = PersonalizedEstimator(
        np.array([[0.75]]), np.array([4.0]), model, HolderParams(0.0, 0.0), 0.25, dom
    )
    assert est.predict(np.array([0.5])) == 4.0  # distance exactly h counts
    est2 = PersonalizedEstimator(
        np.array([[0.7500001]]), np.array([4.0]), model, HolderParams(0.0, 0.0), 0.25, dom
    )
    assert est2.predict(np.array([0.5])) == 0.0


def test_theta1_zero_equals_local_mean_oracle():
    rng = rng_stream(1, "est")
    for _ in range(200):
        n = int(rng.integers(5, 40))
        train_x = rng.random((n, 2))
        train_y = rng.normal(size=n)
        h = float(rng.uniform(0.2, 0.6))
        est = PersonalizedEstimator(
            train_x, train_y, ExpressionModel("x1*x2 - 0.3", 2),
            HolderParams(0.0, float(rng.uniform(0, 1))), h, UNIT,
        )
        x = rng.random(2)
        want = local_mean_oracle(train_x, train_y, x, h)
        got = est.predict(x)
        if any(np.abs(train_x - x).max(axis=1) <= h):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        else:
            assert got == est.model.predict(x)


def test_constant_shift_equivariance_tight():
    # omega(g + c) = omega(g) + c makes predictions shift-invariant; the
    # identity is exact in real arithmetic, so only ulp noise is allowed
    rng = rng_stream(2, "est")
    train_x = (rng.integers(0, 64, size=(25, 2)) / 64.0).astype(float)
    train_y = rng.integers(-8, 8, size=25) / 4.0
    theta = HolderParams(0.75, 0.5)
    base = FunctionModel(lambda xs: np.round(xs[:, 0] * 8) / 8.0)
    shifted = FunctionModel(lambda xs: np.round(xs[:, 0] * 8) / 8.0 + 4.0)
    a = PersonalizedEstimator(train_x, train_y, base, theta, 0.25, UNIT)
    b = PersonalizedEstimator(train_x, train_y, shifted, theta, 0.25, UNIT)
    xs = rng.integers(0, 64, size=(50, 2)) / 64.0
    keep = np.array([any(np.abs(train_x - x).max(axis=1) <= 0.25) for x in xs])
    assert keep.any()
    assert a.predict_batch(xs[keep]) == pytest.approx(
        b.predict_batch(xs[keep]), rel=1e-14, abs=1e-14
    )


def test_constant_shift_equivariance_random():
    rng = rng_stream(3, "est")
    train_x = rng.random((40, 2))
    train_y = rng.normal(size=40)
    theta = HolderParams(1.3, 0.4)
    base = ExpressionModel("sin(5*x1) + x2", 2)
    shifted = ExpressionModel("sin(5*x1) + x2 + 17.25", 2)
    a = PersonalizedEstimator(train_x, train_y, base, theta, 0.4, UNIT)
    b = PersonalizedEstimator(train_x, train_y, shifted, theta, 0.4, UNIT)
    xs = rng.random((100, 2))
    assert a.predict_batch(xs) == pytest.approx(b.predict_batch(xs), rel=1e-10, abs=1e-10)


def test_predict_batch_matches_scalar_and_handles_edges():
    rng = rng_stream(4, "est")
    est, _, _ = _random_fit(rng)
    xs = rng.random((100, 2))
    batch = est.predict_batch(xs)
    scalar = np.array([est.predict(x) for x in xs])
    assert np.array_equal(batch, scalar)
    assert est.predict_batch(np.empty((0, 2))).shape == (0,)
    rep = est.predict_batch(np.array([[0.4, 0.4], [0.4, 0.4]]))
    assert rep[0] == rep[1]


def test_predict_batch_single_model_round_trip():
    calls = []

    def fn(xs):
        calls.append(len(xs))
        return np.zeros(len(xs))

    rng = rng_stream(9, "est")
    est = PersonalizedEstimator(
        rng.random((20, 2)), rng.normal(size=20), FunctionModel(fn),
        HolderParams(0.5, 0.5), 0.3, UNIT,
    )
    calls.clear()  # construction caches the training-point values
    est.predict_batch(rng.random((50, 2)))
    assert calls == [50]  # one batched query for the whole evaluation set


@pytest.mark.parametrize("f_train", [np.zeros(19), np.full(20, np.nan), np.zeros((20, 1))],
                         ids=["short", "non-finite", "column"])
def test_cached_model_values_must_align_with_training_points(f_train):
    rng = rng_stream(9, "est")
    with pytest.raises(ValueError, match="f_train"):
        PersonalizedEstimator(
            rng.random((20, 2)), rng.normal(size=20), ExpressionModel("x1", 2),
            HolderParams(0.5, 0.5), 0.3, UNIT, f_train=f_train,
        )


def test_the_cached_model_values_are_a_read_only_copy():
    # they were kept as given, writeable, unlike the training samples
    rng = rng_stream(9, "est")
    f_train = np.zeros(20)
    est = PersonalizedEstimator(
        rng.random((20, 2)), rng.normal(size=20), ExpressionModel("x1", 2),
        HolderParams(0.5, 0.5), 0.3, UNIT, f_train=f_train,
    )
    f_train[0] = 1.0
    assert est.f_train[0] == 0.0 and not est.f_train.flags.writeable


def test_a_prediction_that_overflows_raises_data_error_without_a_warning():
    # labels near 1e308 once summed to inf in every window: inf predictions, with a warning
    rng = rng_stream(9, "est")
    xs = rng.random((5, 2))
    est = PersonalizedEstimator(
        rng.random((20, 2)), np.full(20, 1e308), ExpressionModel("x1", 2), HolderParams(0.0, 0.0), 2.0, UNIT
    )
    with pytest.raises(DataError, match=r"^the prediction at query point 0 = \[.*\] overflows float64; "
                                        "rescale the model or the labels$"):
        est.predict_batch(xs)
    with pytest.raises(DataError, match=r"^the bias estimate at query point 0 = .* overflows float64"):
        est.estimate_bias(xs[3])


@pytest.mark.parametrize("bad", ["train_x", "train_y"])
def test_non_finite_training_samples_are_rejected(bad):
    rng = rng_stream(9, "est")
    sample = {"train_x": rng.random((20, 2)), "train_y": rng.normal(size=20)}
    sample[bad][3] = np.nan
    with pytest.raises(ValueError, match="training samples must be finite"):
        PersonalizedEstimator(
            sample["train_x"], sample["train_y"], ExpressionModel("x1", 2),
            HolderParams(0.5, 0.5), 0.3, UNIT, f_train=np.zeros(20),
        )


def test_batches_spanning_several_row_blocks_match_smaller_calls(monkeypatch):
    rng = rng_stream(12, "blocks")
    n = 250_000
    points = rng.random((n, 2))
    values = rng.normal(size=n)
    xs = rng.random((20, 2))
    block = estimator._CHUNK_ELEMENTS // n
    assert 1 < block < len(xs) // 2  # the batch crosses at least two block boundaries
    kernels = {
        "estimator": PersonalizedEstimator(
            points, values, ExpressionModel("x1 - x2**2", 2), HolderParams(1.0, 0.5), 0.01, UNIT
        ).predict_batch,
        "table": TableModel(points, values).predict_batch,
        "variance": VarianceField(points, values, 0.02, UNIT).variance_batch,
        "kernel-smooth": KernelSmoothModel(points, values, 0.01).predict_batch,
    }
    for name, kernel in kernels.items():
        batch = kernel(xs)
        by_block = np.concatenate([kernel(xs[s : s + block]) for s in range(0, len(xs), block)])
        by_row = np.array([kernel(x[None, :])[0] for x in xs])
        assert np.array_equal(batch, by_block), name
        assert np.array_equal(batch, by_row), name
    # validation scores: the block split must not move a bit of the table
    pairs = [
        (HolderParams(t1, t2), h) for h in (0.01, 0.03) for t1 in (0.0, 1.0) for t2 in (0.0, 0.5)
    ]
    f_points = points[:, 0] - points[:, 1] ** 2
    args = (
        Candidates.from_pairs(pairs), points, values, f_points, xs, values[: len(xs)],
        xs[:, 0] - xs[:, 1] ** 2,
    )
    several = adaptation._score_pairs(*args)
    # the bandwidth ladder must match the masked sums that one bandwidth's
    # pairs take on their own, where every theta carries one bandwidth
    ladder = {(theta, h): score for theta, h, score in several}
    for h_alone in (0.01, 0.03):
        alone = [pair for pair in pairs if pair[1] == h_alone]
        for theta, h, score in adaptation._score_pairs(Candidates.from_pairs(alone), *args[1:]):
            assert ladder[(theta, h)] == pytest.approx(score, rel=1e-12)
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 10 * len(xs) * n)
    assert adaptation._score_pairs(*args).columns() == several.columns()


def _dense_window_means(train_x, train_y, f_train, xs, f_eval, theta, h):
    """Reference: the residual chain over every pair of the broadcast distance
    matrices, then the masked sum over full rows."""
    dist_inf = chebyshev_broadcast(xs, train_x)
    powers = estimator.holder_powers(euclidean_broadcast(xs, train_x), theta.theta2)
    return window_means_dense(train_y, f_train, f_eval, dist_inf, powers, theta.theta1, h)


def _binned_window_means(train_x, train_y, f_train, xs, f_eval, pairs):
    """Reference rows for a pair list, summed in (row, rung) bins as the kernel
    sums them, over the broadcast distance matrices."""
    dist_inf, dist = chebyshev_broadcast(xs, train_x), euclidean_broadcast(xs, train_x)
    return ladder_means_dense(train_y, f_train, f_eval, dist_inf, dist, pairs)


def test_bandwidth_ladder_matches_per_pair_window_means():
    rng = rng_stream(13, "ladder")
    for dim in (1, 2, 3):
        # grid points put training points at exactly h = 0.25 from some rows
        train_x = rng.integers(0, 9, size=(60, dim)) / 8.0
        train_y = rng.normal(size=60)
        xs = np.vstack([rng.random((20, dim)), rng.integers(0, 9, size=(5, dim)) / 8.0])
        f_train = np.sin(4 * train_x).sum(axis=1)
        f_eval = np.sin(4 * xs).sum(axis=1)
        thetas = [HolderParams(0.0, 0.0), HolderParams(1.5, 0.0), HolderParams(0.7, 0.4)]
        # unsorted, repeated across thetas, one rung so narrow that some
        # windows are empty, and the global window h = inf
        ladder = [0.4, 0.05, float(rng.uniform(0.1, 0.3)), np.inf, 0.003, 0.25]
        pairs = [(theta, h) for theta in thetas for h in ladder]
        pairs += [(HolderParams(2.0, 1.0), 0.4), (HolderParams(2.0, 1.0), 0.003)]
        got = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
        empty = ~(estimator.chebyshev_distances(xs, train_x) <= 0.003).any(axis=1)
        assert empty.any()
        for row, (theta, h) in zip(got, pairs):
            want = _dense_window_means(train_x, train_y, f_train, xs, f_eval, theta, h)
            assert np.allclose(row, want, rtol=1e-12, atol=1e-15), (dim, theta, h)
            if h == 0.003:
                assert (row[empty] == 0.0).all()  # the max(1, count) guard
        # against the hand-rolled prediction loop as well
        model = FunctionModel(lambda q: np.sin(4 * np.atleast_2d(q)).sum(axis=1))
        for k in rng.choice(len(pairs), size=4, replace=False):
            theta, h = pairs[k]
            for i in (0, 7):
                want = fsp_predict_oracle(train_x, train_y, model, theta, h, xs[i])
                assert f_eval[i] + got[k, i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_one_pair_window_biases_is_the_dense_window_mean():
    rng = rng_stream(14, "ladder")
    train_x = rng.random((80, 2))
    train_y = rng.normal(size=80)
    xs = rng.random((30, 2))
    f_train = train_x[:, 0] - train_x[:, 1] ** 2
    f_eval = xs[:, 0] - xs[:, 1] ** 2
    for theta, h in [(HolderParams(0.0, 0.0), 0.2), (HolderParams(1.3, 0.6), 0.35)]:
        got = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, [(theta, h)])
        want = _binned_window_means(train_x, train_y, f_train, xs, f_eval, [(theta, h)])
        assert np.array_equal(got[0], want[0])  # the prediction path, bit for bit


@pytest.mark.parametrize("dim", range(1, 11))
def test_distance_kernels_match_the_broadcast_reference(dim):
    rng = rng_stream(17, f"kernels-{dim}")
    a = rng.normal(size=(40, dim))
    b = rng.normal(size=(30, dim))
    b[:5] = a[:5]  # zero distances
    a[7, dim - 1] = np.nan
    b[3, 0] = np.nan
    cases = [(a, b), (a[:1], b), (a[:0], b), (a, b[:0])]
    # a distance tile holds 32768 // 30 = 1092 rows against b, so 2500 rows
    # end in a partial tile; 40,000 points exceed a tile, which then holds one row
    tall = rng.normal(size=(2500, dim))
    far = rng.normal(size=(40_000, dim))
    far[:3], tall[:3] = a[:3], b[:3]  # zero distances
    cases += [(tall, b), (a[:3], far)]
    for rows, points in cases:
        cheb = estimator.chebyshev_distances(rows, points)
        assert np.array_equal(cheb, chebyshev_broadcast(rows, points), equal_nan=True)
        squared = estimator._squared_distances(rows, points)
        eucl = np.sqrt(squared)
        want = euclidean_broadcast(rows, points)
        if dim <= 7:
            assert np.array_equal(eucl, want, equal_nan=True)
        else:
            # numpy's reduction sums eight or more terms with several accumulators
            assert np.allclose(eucl, want, rtol=1e-15, atol=0, equal_nan=True)
        # on index pairs, every pair gets the operations of the dense kernel
        pairs = np.nonzero(np.ones(squared.shape, bool))
        on_pairs = estimator._squared_distances(rows, points, pairs)
        assert np.array_equal(on_pairs, squared.ravel(), equal_nan=True)
    for kernel in (estimator.chebyshev_distances, estimator._squared_distances):
        dist = kernel(a, b)
        assert np.isnan(dist[7]).all() and np.isnan(dist[:, 3]).all()
        assert np.isfinite(np.delete(np.delete(dist, 7, axis=0), 3, axis=1)).all()


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_distance_kernels_allocate_about_two_result_blocks(dim):
    rng = rng_stream(18, "kernel-memory")
    a = rng.random((500, dim))
    b = rng.random((400, dim))
    block = 500 * 400 * 8
    pairs = np.nonzero(np.ones((500, 400), bool))
    kernels = {
        "chebyshev": estimator.chebyshev_distances,
        "squared": estimator._squared_distances,
        "squared on pairs": lambda a, b: estimator._squared_distances(a, b, pairs),
    }
    for name, kernel in kernels.items():
        tracemalloc.start()
        try:
            kernel(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * block, (name, peak / block)


def test_window_biases_holds_its_buffers_near_the_block_budget(monkeypatch):
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 100_000)
    rng = rng_stream(19, "window-memory")
    train_x = rng.random((600, 2))
    train_y = rng.normal(size=600)
    xs = rng.random((400, 2))
    thetas = adaptation.build_grid(1000, 2.0).points  # eight theta2 values
    ladder = [(theta, h) for h in (0.05, 0.1, 0.2, 0.4) for theta in thetas]
    rule = [(theta, 0.05 + 0.01 * i) for i, theta in enumerate(thetas)]
    # every window holds every pair; each bandwidth carries all eight theta2 values
    full = [(theta, (1.5, np.inf)[i % 2]) for i, theta in enumerate(thetas)]
    for pairs in (ladder, rule, full):
        tracemalloc.start()
        try:
            out = estimator.window_biases(train_x, train_y, train_x[:, 0], xs, xs[:, 0], pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 4 * estimator._CHUNK_ELEMENTS * 8, len(pairs)


def test_cv_scoring_memory_does_not_grow_with_validation_rows(monkeypatch):
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 100_000)
    rng = rng_stream(28, "score-memory")
    train_x = rng.random((300, 2))
    train_y = rng.normal(size=300)
    # 49 thetas x 16 rungs; a block holds about 20 rows, so both batches span many blocks
    pairs = Candidates.from_pairs(
        [(theta, 0.5 / k) for k in range(1, 17) for theta in adaptation.build_grid(300, 2.0).points]
    )
    peaks = []
    for n_val in (300, 300, 3000):  # the first call also makes one-time allocations
        val_x = rng.random((n_val, 2))
        val_y = rng.normal(size=n_val)
        args = (pairs, train_x, train_y, train_x[:, 0], val_x, val_y, val_x[:, 0])
        tracemalloc.start()
        try:
            adaptation._score_pairs(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 2,700 more rows of a (pairs, rows) matrix would take 16.9 MB more; what may
    # grow is the list of row blocks, about 120 bytes a block
    assert peaks[2] - peaks[1] <= 200_000, peaks


def test_window_blocks_do_not_shrink_with_the_number_of_theta2_values(monkeypatch):
    blocks = []
    kernel = estimator.smoothed_window_means

    def counted(train_x, train_y, f_train, xs, *rest):
        blocks[-1].append(len(xs))
        return kernel(train_x, train_y, f_train, xs, *rest)

    monkeypatch.setattr(estimator, "smoothed_window_means", counted)
    rng = rng_stream(29, "window-blocks")
    train_x = rng.random((750, 2))
    train_y = rng.normal(size=750)
    xs = rng.random((1000, 2))
    thetas = adaptation.build_grid(1000, 2.0).points
    hs = adaptation.default_bandwidth_set(1000, 1.0)
    for chosen in (thetas, [t for t in thetas if t.theta2 == 1.0]):
        blocks.append([])
        pairs = [(theta, h) for h in hs for theta in chosen]
        estimator.window_passes(
            train_x, train_y, train_x[:, 0], xs, xs[:, 0], Candidates.from_pairs(pairs), lambda *a: None
        )
    assert len({t.theta2 for t in thetas}) == 8
    # each thread holds one Holder power at a time, so eight theta2 values take
    # the row blocks of one
    assert len(blocks[0]) > 1 and blocks[0] == blocks[1], blocks


def test_full_ladder_scoring_peak_at_n_1500():
    # a full_bandwidth_set fit at n = 1,500 scores 81 thetas x 1,500 rungs on
    # 1,125 training and 375 validation points; the returned 121,500-row table
    # takes about 2 MB of the peak, and one block of window buffers about 6 MB
    rng = rng_stream(30, "score-peak")
    train_x = rng.random((1125, 2))
    train_y = rng.normal(size=1125)
    val_x = rng.random((375, 2))
    val_y = rng.normal(size=375)
    pairs = Candidates.from_pairs([
        (theta, h)
        for h in adaptation.default_bandwidth_set(1500, 1.0, full=True)
        for theta in adaptation.build_grid(1500, 2.0).points
    ])
    tracemalloc.start()
    try:
        adaptation._score_pairs(pairs, train_x, train_y, train_x[:, 0], val_x, val_y, val_x[:, 0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, peak / 1e6


def test_full_ladder_candidates_at_n_3000_take_bytes_a_pair_not_a_tuple():
    # a full_bandwidth_set fit at n = 3,000 scores 100 thetas x 3,000 rungs; on a
    # few validation rows the (row, rung) sums are small, so the candidates and the
    # kernel's per-pair index arrays set the peak
    rng = rng_stream(35, "candidate-peak")
    train_x, val_x = rng.random((300, 2)), rng.random((20, 2))
    train_y, val_y = rng.normal(size=300), rng.normal(size=20)
    thetas = adaptation.build_grid(3000, 2.0).points
    hs = adaptation.default_bandwidth_set(3000, 1.0, full=True)
    tracemalloc.start()
    try:
        candidates = adaptation._cv_candidates(thetas, hs)
        table = adaptation._score_pairs(
            candidates, train_x, train_y, train_x[:, 0], val_x, val_y, val_x[:, 0]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(candidates) == len(table) == 300_000
    assert table[0][:2] == (thetas[0], hs[-1]) and table[-1][:2] == (thetas[-1], hs[0])
    # a list of (theta, h) tuples alone takes 65 bytes a pair
    assert peak <= 80 * len(table), peak / len(table)


def test_a_kept_score_table_holds_columns_not_rows():
    # the CV table of a default fit at n = 1,000: 64 thetas x 32 rungs
    rng = rng_stream(32, "kept-table")
    train_x, val_x = rng.random((200, 2)), rng.random((100, 2))
    train_y, val_y = rng.normal(size=200), rng.normal(size=100)
    pairs = Candidates.from_pairs([
        (theta, h)
        for h in adaptation.default_bandwidth_set(1000, 1.0)
        for theta in adaptation.build_grid(1000, 2.0).points
    ])
    args = (pairs, train_x, train_y, train_x[:, 0], val_x, val_y, val_x[:, 0])
    # the first call makes one-time allocations; its table stays alive, so the rows
    # of the second cannot reuse freed memory that tracemalloc never saw
    first = adaptation._score_pairs(*args)
    tracemalloc.start()
    try:
        table = adaptation._score_pairs(*args)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 2048 and table.columns() == first.columns()
    # a tuple and two floats per row would keep about 96 bytes a row
    assert kept <= 32 * len(table), kept / len(table)


def test_window_means_on_the_window_only_keep_the_dense_bits():
    rng = rng_stream(23, "window-only")
    for trial in range(60):
        dim = 1 + trial % 3
        train_x = rng.random((int(rng.integers(1, 200)), dim))
        xs = rng.random((int(rng.integers(1, 80)), dim))
        if trial % 2:  # grid points put training points exactly on window edges
            train_x, xs = np.round(train_x * 8) / 8, np.round(xs * 8) / 8
        train_y = rng.normal(size=len(train_x))
        f_train, f_eval = np.sin(3 * train_x).sum(axis=1), np.sin(3 * xs).sum(axis=1)
        dist_inf = estimator.chebyshev_distances(xs, train_x)
        theta1 = (0.0, 0.5, 6 / 7, 3.0)[trial % 4]
        theta2 = (0.0, 0.625, 1.0)[trial % 3]
        dist = np.sqrt(estimator._squared_distances(xs, train_x))
        for h in (0.01, 0.125, 0.3, 2.0):  # 2.0: every pair is inside the window
            pair = (HolderParams(theta1, theta2), h)
            got = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, [pair])
            want = ladder_means_dense(train_y, f_train, f_eval, dist_inf, dist, [pair])
            assert got[0].tobytes() == want[0].tobytes(), (trial, h)


def test_ladder_rows_equal_the_dense_binned_reference_bit_for_bit(monkeypatch):
    rng = rng_stream(26, "ladder-bits")
    thetas = [HolderParams(*t) for t in ((0, 0), (0, 0.5), (0.5, 0), (6 / 7, 1), (2, 0.25))]
    for trial, dim in enumerate((1, 2, 3, 1, 2, 3)):
        train_x = rng.random((150, dim))
        if trial >= 3:  # grid points put training points exactly on the rungs of grid queries
            train_x = np.round(train_x * 8) / 8
        xs = np.vstack([rng.random((60, dim)), train_x[:10]])
        train_y = rng.normal(size=len(train_x))
        f_train, f_eval = np.sin(4 * train_x).sum(axis=1), np.sin(4 * xs).sum(axis=1)
        # unsorted, one rung so narrow that some windows are empty, and h = inf
        ladder = [0.375, 0.004, 0.125, np.inf, float(rng.uniform(0.1, 0.3)), 0.25]
        pairs = [(theta, h) for h in ladder for theta in thetas]
        dist_inf = chebyshev_broadcast(xs, train_x)
        assert not (dist_inf <= 0.004).any(axis=1).all()
        want = ladder_means_dense(
            train_y, f_train, f_eval, dist_inf, euclidean_broadcast(xs, train_x), pairs
        )
        # several row blocks on odd trials
        monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 20_000 if trial % 2 else 2_000_000)
        got = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
        for row, pair, ref in zip(got, pairs, want):
            assert row.tobytes() == ref.tobytes(), (dim, pair)


def _rule_style_lists(rng):
    """Pair lists where every theta carries one bandwidth, as rule mode and
    prediction build them."""
    # theta1 in {0, 0.5, ..., 2}, theta2 in {0, 0.25, ..., 1}
    thetas = adaptation.build_grid(30, 2.0).points
    by_theta2 = {0.0: 0.3, 0.25: 0.125, 0.5: float(rng.uniform(0.1, 0.3)), 0.75: 0.003}
    return [
        # several thetas share each h; theta1 = 0 pairs join their theta2's group,
        # h = 0.003 leaves windows empty and h = 0.125 sits on the grid
        [(t, by_theta2.get(t.theta2, np.inf)) for t in thetas],
        # theta1 = 0 pairs at a bandwidth no theta1 > 0 pair carries
        [(t, 0.2 if t.theta1 == 0 else 0.25) for t in thetas if t.theta2 in (0.0, 1.0)],
        # several theta1 = 0 thetas with different theta2 share an h with theta1 > 0 thetas
        [(HolderParams(*t), 0.125) for t in ((0, 0), (0, 0.5), (0.5, 0.5), (0, 1), (1.5, 0))],
        [(HolderParams(0.5, 0.0), 0.125)],
        [(HolderParams(6 / 7, 1.0), np.inf)],
    ]


def test_rule_style_pairs_equal_the_dense_reference_bit_for_bit():
    rng = rng_stream(24, "rule-style")
    for dim in (1, 2, 3):
        # grid points put training points exactly on window edges and on the queries
        train_x = rng.integers(0, 9, size=(250, dim)) / 8.0
        xs = np.vstack([rng.random((280, dim)), train_x[:20]])
        train_y = rng.normal(size=len(train_x))
        f_train, f_eval = np.sin(4 * train_x).sum(axis=1), np.sin(4 * xs).sum(axis=1)
        dist_inf = chebyshev_broadcast(xs, train_x)
        assert (dist_inf == 0).any() and (dist_inf == 0.125).any()
        assert not (dist_inf <= 0.003).any(axis=1).all()  # some windows are empty
        # at h = inf the window's 75,000 pairs span three distance tiles
        for pairs in _rule_style_lists(rng):
            got = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
            want = _binned_window_means(train_x, train_y, f_train, xs, f_eval, pairs)
            for row, ref, (theta, h) in zip(got, want, pairs):
                assert row.tobytes() == ref.tobytes(), (dim, theta, h)


def _refuse_dense(squared_distances):
    """_squared_distances that computes distances on index pairs only."""

    def on_pairs_only(a, b, pairs=None):
        assert pairs is not None, "the window kernel needs no dense Euclidean distances"
        return squared_distances(a, b, pairs)

    return on_pairs_only


def test_one_bandwidth_pairs_never_compute_dense_euclidean_distances(monkeypatch):
    rng = rng_stream(25, "rule-style")
    train_x = rng.random((90, 2))
    train_y = rng.normal(size=90)
    xs = rng.random((40, 2))
    f_train, f_eval = np.cos(3 * train_x).sum(axis=1), np.cos(3 * xs).sum(axis=1)

    monkeypatch.setattr(estimator, "_squared_distances", _refuse_dense(estimator._squared_distances))
    for pairs in _rule_style_lists(rng):
        estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)


def test_theta1_zero_pairs_never_compute_euclidean_distances(monkeypatch):
    rng = rng_stream(15, "theta1-zero")
    train_x = rng.random((70, 2))
    train_y = rng.normal(size=70)
    xs = rng.random((25, 2))
    f_train = np.cos(3 * train_x).sum(axis=1)
    f_eval = np.cos(3 * xs).sum(axis=1)
    prediction = [(HolderParams(0.0, 0.0), 0.2)]
    rule = [(HolderParams(0.0, t2), h) for t2, h in ((0.0, 0.15), (0.5, 0.3), (1.0, 0.3))]

    def refuse(a, b, pairs=None):
        raise AssertionError("theta1 = 0 needs no Euclidean distances")

    monkeypatch.setattr(estimator, "_squared_distances", refuse)
    for pairs in (prediction, rule):
        got = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
        # the reference takes its distances from the broadcast helpers
        want = _binned_window_means(train_x, train_y, f_train, xs, f_eval, pairs)
        for row, ref, pair in zip(got, want, pairs):
            assert np.array_equal(row, ref), pair
    ladder = [(HolderParams(0.0, t2), h) for h in (0.15, 0.3) for t2 in (0.0, 1.0)]
    estimator.window_biases(train_x, train_y, f_train, xs, f_eval, ladder)


def test_theta1_zero_ladder_rows_equal_per_pair_masked_sums():
    # dyadic coordinates, labels and model values keep every sum exact, so
    # the ladder's binned sums and the masked row sums agree bit for bit
    rng = rng_stream(16, "theta1-zero-ladder")
    train_x = rng.integers(0, 17, size=(80, 2)) / 16.0
    train_y = rng.integers(-16, 16, size=80) / 8.0
    xs = rng.integers(0, 17, size=(30, 2)) / 16.0
    f_train = rng.integers(-8, 8, size=80) / 4.0
    f_eval = rng.integers(-8, 8, size=30) / 4.0
    thetas = [HolderParams(0.0, t2) for t2 in (0.0, 0.25, 0.5, 1.0)] + [HolderParams(0.5, 0.5)]
    pairs = [(theta, h) for h in (0.0625, 0.125, 0.25, 0.5, 1.0) for theta in thetas]
    got = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
    for row, (theta, h) in zip(got, pairs):
        if theta.theta1 == 0:
            want = _dense_window_means(train_x, train_y, f_train, xs, f_eval, theta, h)
            assert np.array_equal(row, want), (theta, h)


class _StartSpy:
    """The window kernel's _start, recording each function handed to it as (name,
    args), and what it returned: (executor, Future), or None."""

    def __init__(self, start):
        self.start, self.handed, self.started = start, [], []

    def __call__(self, fn, *args):
        self.handed.append((fn.__name__, args))
        self.started.append(self.start(fn, *args))
        return self.started[-1]


def _handed_names(spy):
    return [name for name, _ in spy.handed]


@pytest.fixture
def two_threads(monkeypatch):
    """Window blocks may split over two threads; returns the record of _start."""
    spy = _StartSpy(estimator._start)
    monkeypatch.setattr(estimator, "_threads", 2)
    monkeypatch.setattr(estimator, "_start", spy)
    return spy


def _window_case(rng, n_train, n_rows):
    train_x = rng.random((n_train, 2))
    xs = rng.random((n_rows, 2))
    return (train_x, rng.normal(size=n_train), np.sin(3 * train_x).sum(axis=1), xs,
            np.sin(3 * xs).sum(axis=1), rng.normal(size=n_rows))


def _window_bytes(case, pairs):
    """The bytes of window_biases and of the CV scores of pairs on one case."""
    train_x, train_y, f_train, xs, f_eval, val_y = case
    biases = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
    scores = adaptation._score_pairs(
        Candidates.from_pairs(pairs), train_x, train_y, f_train, xs, val_y, f_eval
    )
    return biases.tobytes(), np.array([score for *_, score in scores]).tobytes()


def test_window_bits_do_not_depend_on_the_thread_count(monkeypatch, two_threads):
    rng = rng_stream(31, "window-threads")
    thetas = adaptation.build_grid(1000, 2.0).points
    hs = adaptation.default_bandwidth_set(1000, 1.0)
    theta2 = sorted({theta.theta2 for theta in thetas})[3]
    lists = {
        # the shared theta1 = 0 pass and eight theta2 values, 57 passes
        "cv-ladder": [(theta, h) for h in hs for theta in thetas],
        # every pass in one power group, so the threads meet inside it
        "one-theta2": [(t, h) for h in hs for t in thetas if t.theta2 == theta2 and t.theta1 > 0],
        "rule": [(theta, 0.05 + 0.1 * (i % 7)) for i, theta in enumerate(thetas)],
        "one-pair": [(HolderParams(0.5, 0.5), 0.3)],
    }
    # blocks of 82 rows x 750 (61,500 pairs) split; 75 rows x 225 (16,875 pairs) do not
    for n_train, n_rows in ((750, 250), (225, 75)):
        case = _window_case(rng, n_train, n_rows)
        for name, pairs in lists.items():
            two_threads.handed.clear()
            monkeypatch.setattr(estimator, "_threads", 2)
            split = _window_bytes(case, pairs)
            assert bool(two_threads.handed) == (n_train == 750 and name != "one-pair"), name
            monkeypatch.setattr(estimator, "_threads", 1)
            assert _window_bytes(case, pairs) == split, (n_train, name)


def test_window_blocks_split_where_designed(two_threads):
    rng = rng_stream(32, "window-split")
    thetas = adaptation.build_grid(1000, 2.0).points
    hs = adaptation.default_bandwidth_set(1000, 1.0)
    cv = [(theta, h) for h in hs for theta in thetas]

    def handed(n_train, n_rows, pairs):
        two_threads.handed.clear()
        train_x, train_y, f_train, xs, f_eval, _ = _window_case(rng, n_train, n_rows)
        estimator.window_passes(
            train_x, train_y, f_train, xs, f_eval, Candidates.from_pairs(pairs), lambda *a: None
        )
        return two_threads.handed

    # a fit's CV call: 750 training points and 57 passes, in blocks of 82 rows
    # (61,500 pairs); the first block hands the worker, once, the passes from the
    # theta2 boundary nearest the middle: the last four of the eight theta2
    # values, seven passes each (the 16-row block does not split)
    ((runner, (theirs,)),) = handed(750, 98, cv)
    assert runner == "run_passes"
    assert len(theirs) == 28 and len({theta2 for theta2, *_ in theirs}) == 4
    # with one theta2 the cut is the middle of the seven passes
    one_theta2 = [(t, h) for h in hs for t in thetas if t.theta2 == 1.0 and t.theta1 > 0]
    ((runner, (theirs,)),) = handed(750, 98, one_theta2)
    assert (runner, len(theirs)) == ("run_passes", 4)
    # simulate's CV blocks, and a one-pass prediction, stay on the calling thread
    assert handed(225, 75, cv) == []
    assert handed(750, 98, [(HolderParams(1.0, 0.5), 0.3)]) == []


def test_each_window_pass_runs_once_under_frequent_thread_switches(two_threads):
    # the worker runs and consumes the passes after the cut, the calling thread
    # those before it; a pass run twice or lost would show as a pair consumed
    # twice or never in a block
    rng = rng_stream(34, "window-switches")
    train_x, train_y, f_train, xs, f_eval, _ = _window_case(rng, 750, 200)
    pairs = [(theta, h) for h in (0.2, 1.0) for theta in adaptation.build_grid(1000, 2.0).points]
    seen = {}

    def record(rows, ks, means):
        seen.setdefault(rows.start, []).extend(ks.tolist())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            seen.clear()
            estimator.window_passes(
                train_x, train_y, f_train, xs, f_eval, Candidates.from_pairs(pairs), record
            )
            assert all(sorted(ks) == list(range(len(pairs))) for ks in seen.values())
    finally:
        sys.setswitchinterval(interval)
    assert "run_passes" in _handed_names(two_threads)


def test_window_worker_keeps_the_callers_numpy_error_handling(monkeypatch, two_threads):
    rng = rng_stream(35, "window-errstate")
    train_x, _, _, xs, f_eval, _ = _window_case(rng, 750, 100)
    # the residual chains overflow to +-inf
    train_y = np.where(rng.random(750) < 0.5, 1.5e308, -1.5e308)
    f_eval = np.where(f_eval > 0, 1.5e308, -1.5e308)
    pairs = [(theta, h) for h in (0.2, 1.0) for theta in adaptation.build_grid(1000, 2.0).points]
    got = {}
    for threads in (2, 1):
        monkeypatch.setattr(estimator, "_threads", threads)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got[threads] = estimator.window_biases(train_x, train_y, -train_y, xs, f_eval, pairs)
    assert "run_passes" in _handed_names(two_threads)
    assert got[2].tobytes() == got[1].tobytes()
    assert np.isinf(got[1]).any()


def test_a_split_cv_window_block_raises_each_theta2_power_once(monkeypatch, two_threads):
    # CV scoring of one 82-row block of a fit's CV call: the shared theta1 = 0 pass
    # and eight theta2 values; the cut falls between two theta2 values, so no
    # thread raises a power the other raises too
    rng = rng_stream(36, "window-powers")
    train_x, train_y, f_train, xs, f_eval, val_y = _window_case(rng, 750, 82)
    thetas = adaptation.build_grid(1000, 2.0).points
    cv = [(theta, h) for h in adaptation.default_bandwidth_set(1000, 1.0) for theta in thetas]
    raised = []
    powers = estimator.holder_powers

    def counted(dist, theta2):
        raised.append(theta2)
        return powers(dist, theta2)

    monkeypatch.setattr(estimator, "holder_powers", counted)
    for _ in range(10):
        raised.clear()
        two_threads.handed.clear()
        adaptation._score_pairs(
            Candidates.from_pairs(cv), train_x, train_y, f_train, xs, val_y, f_eval
        )
        assert sorted(raised) == sorted({theta.theta2 for theta in thetas}), raised
        assert _handed_names(two_threads) == ["run_passes"]


def test_a_window_block_raises_only_after_its_worker_is_done(monkeypatch, two_threads):
    rng = rng_stream(37, "window-raise")
    train_x, train_y, f_train, xs, f_eval, _ = _window_case(rng, 750, 82)
    thetas = adaptation.build_grid(1000, 2.0).points
    cv = [(theta, h) for h in adaptation.default_bandwidth_set(1000, 1.0) for theta in thetas]
    caller = threading.get_ident()
    slow = estimator.truncate

    def slow_on_the_worker(*args, **kwargs):
        if threading.get_ident() != caller:
            time.sleep(0.002)  # the worker is still busy when the calling thread raises
        return slow(*args, **kwargs)

    monkeypatch.setattr(estimator, "truncate", slow_on_the_worker)
    for failing in ("caller", "worker"):
        calls = []

        def consume(rows, ks, means):
            on_caller = threading.get_ident() == caller
            calls.append(on_caller)
            if on_caller == (failing == "caller"):
                raise ValueError(f"consume failed on the {failing}")

        two_threads.handed.clear()
        two_threads.started.clear()
        with pytest.raises(ValueError, match=f"on the {failing}"):
            estimator.window_passes(
                train_x, train_y, f_train, xs, f_eval, Candidates.from_pairs(cv), consume
            )
        assert _handed_names(two_threads) == ["run_passes"]
        assert all(worker.done() for _, worker in two_threads.started)
        made = len(calls)
        time.sleep(0.05)
        assert len(calls) == made  # no consume call after the block raised
        # the other thread ran its passes to the end
        assert calls.count(failing == "worker") == (29 if failing == "worker" else 28)


def test_window_blocks_without_a_worker_thread_run_serially(monkeypatch):
    attempts = []

    def no_thread(executor):
        attempts.append(executor)
        raise RuntimeError("can't start new thread")

    rng = rng_stream(33, "window-no-thread")
    train_x, train_y, f_train, xs, f_eval, _ = _window_case(rng, 750, 250)
    pairs = [(theta, h) for h in (0.1, 0.4, 1.0) for theta in adaptation.build_grid(1000, 2.0).points]
    monkeypatch.setattr(estimator, "_threads", 1)
    serial = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
    monkeypatch.setattr(estimator, "_threads", 2)
    monkeypatch.setattr(ThreadPoolExecutor, "_adjust_thread_count", no_thread)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = estimator.window_biases(train_x, train_y, f_train, xs, f_eval, pairs)
    assert np.array_equal(got, serial)
    # each of the three 82-row blocks tries a worker of its own (the 4-row block does not split)
    assert len(attempts) == 3 and len({id(executor) for executor in attempts}) == 3


def test_a_split_window_block_leaves_no_thread_running(two_threads):
    rng = rng_stream(38, "window-thread-count")
    train_x, train_y, f_train, xs, f_eval, _ = _window_case(rng, 750, 250)
    pairs = [(theta, h) for h in (0.1, 0.4, 1.0) for theta in adaptation.build_grid(1000, 2.0).points]
    before = threading.active_count()
    estimator.window_passes(
        train_x, train_y, f_train, xs, f_eval, Candidates.from_pairs(pairs), lambda *a: None
    )
    assert _handed_names(two_threads) == ["run_passes"] * 3
    assert threading.active_count() == before


def _fit_selection():
    """The selection, bandwidth and score of an n = 1,000 fit with the default CV."""
    scenario = fsp.scenario_regression()
    model = scenario.make_pretrained(1000, fsp.derive_seed(1, "fork-model"))
    fit = fsp.fit_personalized(model, scenario.domain, 1000, scenario.make_oracle(), seed=1)
    return repr((fit.theta, fit.bandwidth, fit.score))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_fit_with_split_window_blocks_reruns_in_a_forked_child(two_threads):
    # a worker kept across blocks would be inherited by the child without its thread,
    # and the child's first split block would wait for it for ever
    want = _fit_selection()
    assert "run_passes" in _handed_names(two_threads)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            os.close(read)
            signal.alarm(10)  # the fit takes well under a second
            os.write(write, _fit_selection().encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    deadline = time.monotonic() + 30
    while True:  # reap the child, killing it past the deadline
        reaped, status = os.waitpid(pid, os.WNOHANG)
        if reaped:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.01)
    with os.fdopen(read, "rb") as fh:
        got = fh.read().decode()
    assert got == want, f"the child ended with wait status {status}"


def test_out_of_domain_query_raises():
    rng = rng_stream(5, "est")
    est, _, _ = _random_fit(rng)
    with pytest.raises(Exception, match="domain"):
        est.predict(np.array([1.2, 0.0]))


def test_noiseless_matching_model_error_bound():
    # with f_ptr = f_star and exact labels, the error is bounded by the
    # worst truth variation over the window: theta1* (sqrt(d) * 2h)^theta2*
    theta_star = (1.0, 0.5)

    def f_star(xs):
        xs = np.atleast_2d(xs)
        return np.abs(xs[:, 0]) + np.abs(xs[:, 1] + 0.3) ** 0.5

    dom = Domain.cube(2, -0.5, 0.5)
    rng = rng_stream(6, "est")
    train_x = dom.uniform(200, rng)
    train_y = f_star(train_x)
    model = FunctionModel(f_star)
    h = 0.2
    for theta in [HolderParams(0.0, 0.0), HolderParams(0.5, 0.5), HolderParams(2.0, 1.0)]:
        est = PersonalizedEstimator(train_x, train_y, model, theta, h, dom)
        xs = dom.uniform(50, rng)
        err = np.abs(est.predict_batch(xs) - f_star(xs))
        bound = theta_star[0] * (np.sqrt(2) * 2 * h) ** theta_star[1]
        assert (err <= bound + 1e-12).all()


def test_variance_hand_example():
    dom = Domain.cube(1, -2.0, 2.0)
    field = VarianceField(np.array([[-0.5], [0.5]]), np.array([0.0, 2.0]), 1.5, dom)
    # both tent weights equal 1 at x=0: 4/2 - (2/2)^2 = 1
    assert field.variance_batch([[0.0]])[0] == pytest.approx(1.0)


def test_variance_constant_labels_zero():
    rng = rng_stream(7, "est")
    field = VarianceField(rng.random((30, 2)), np.full(30, 3.25), 0.8, UNIT)
    assert field.variance_batch(rng.random((1, 2)))[0] == 0.0


@pytest.mark.parametrize("width", [1, 3])
def test_variance_batch_refuses_queries_of_another_width(monkeypatch, width):
    # a one-column batch once read the first pilot coordinate only, a three-column
    # one raised IndexError
    field = VarianceField(rng_stream(8, "est").random((30, 2)), np.arange(30.0), 0.4, UNIT)

    def no_distances(*args):
        raise AssertionError("distances computed before the width check")

    monkeypatch.setattr(estimator, "chebyshev_distances", no_distances)
    with pytest.raises(fsp.DomainError, match=rf"^query point has dimension {width}, domain has 2$"):
        field.variance_batch(np.full((4, width), 0.5))


def test_variance_no_support_zero():
    field = VarianceField(np.array([[0.1, 0.1]]), np.array([5.0]), 0.05, UNIT)
    assert field.variance_batch([[0.9, 0.9]])[0] == 0.0


def test_variance_batch_turns_its_distances_into_weights_in_place():
    rng = rng_stream(20, "variance-memory")
    field = VarianceField(rng.random((500, 2)), rng.normal(size=500), 0.3, UNIT)
    xs = rng.random((2000, 2))
    block = 2000 * 500 * 8
    tracemalloc.start()
    try:
        field.variance_batch(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block, peak / block


def _distance_calls(monkeypatch):
    """The row counts of the dense path's chebyshev_distances calls, as they happen."""
    calls = []
    kernel = estimator.chebyshev_distances

    def counted(a, b):
        calls.append(len(a))
        return kernel(a, b)

    monkeypatch.setattr(estimator, "chebyshev_distances", counted)
    return calls


def _row_by_row(field, xs):
    """variance_batch one query at a time: a lone row is no grid, so the dense path."""
    return np.concatenate([field.variance_batch(x[None, :]) for x in xs])


def _grid(axes):
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_variance_batch_on_a_grid_keeps_the_dense_bits(monkeypatch, dim):
    rng = rng_stream(40 + dim, "grid-variance")
    # offset, non-cubic boxes; the widest edge is at most 4.1
    box = Domain([-1.5 + 0.25 * j for j in range(dim)], [0.5 + 0.7 * j for j in range(dim)])
    nodes = box.quadrature_nodes()
    # the domain's own grids take the grid path; any other tensor grid, the dense path
    grids = {"nodes": nodes, "grid-5": box.grid(5)[0], "nodes-5": box.quadrature_nodes(5)}
    uneven = _grid([np.sort(box.uniform(3 + j, rng)[:, j]) for j in range(dim)])
    pilot_x = box.uniform(60, rng)
    pilot_x[:20] = nodes[rng.integers(0, len(nodes), 20)]  # pilots on node coordinates
    pilot_y = 3.0 * rng.normal(size=60) + 1.0
    calls = _distance_calls(monkeypatch)
    for h in (0.2, 0.9, 10.0):  # the last is wider than the box
        field = VarianceField(pilot_x, pilot_y, h, box)
        for name, xs in (*grids.items(), ("uneven", uneven)):
            calls.clear()
            got = field.variance_batch(xs)
            if name == "uneven":
                assert calls == [len(xs)], (h, name)
            else:
                assert calls == [], (h, name)  # the grid path computes no distances
            assert got.tobytes() == _row_by_row(field, xs).tobytes(), (h, name)
    # the overflow check sees the grid path's moments too
    field = VarianceField(pilot_x, np.full(60, 1e160), 0.9, box)
    calls.clear()
    with pytest.raises(DataError, match="overflow float64 at h_sigma = 0.9"):
        field.variance_batch(nodes)
    assert calls == []
    with pytest.raises(DataError, match="overflow float64"):
        field.variance_batch(nodes[:1])


def test_variance_batch_takes_the_dense_path_off_a_grid(monkeypatch):
    rng = rng_stream(44, "off-grid-variance")
    nodes = UNIT.quadrature_nodes()
    field = VarianceField(rng.random((50, 2)), rng.normal(size=50), 0.3, UNIT)
    on_grid = field.variance_batch(nodes)
    order = rng.permutation(len(nodes))
    moved = nodes.copy()
    moved[100, 1] += 1e-9
    calls = _distance_calls(monkeypatch)
    cases = {
        "row-permuted": (nodes[order], on_grid[order]),
        "one-node-moved": (moved, _row_by_row(field, moved)),
        "one-value-on-an-axis": (nodes[:64], on_grid[:64]),
        "no-rows": (nodes[:0], on_grid[:0]),
    }
    for name, (xs, want) in cases.items():
        calls.clear()
        got = field.variance_batch(xs)
        assert calls or not len(xs), name
        assert got.tobytes() == want.tobytes(), name
    line = Domain.cube(1)
    field = VarianceField(rng.random((50, 1)), rng.normal(size=50), 0.1, line)
    calls.clear()
    field.variance_batch(line.quadrature_nodes())  # a 1-D input is no grid
    assert calls


def test_a_batch_whose_first_row_is_off_the_grid_does_not_build_it(monkeypatch):
    rng = rng_stream(45, "no-grid-build")
    field = VarianceField(rng.random((50, 2)), rng.normal(size=50), 0.3, UNIT)
    xs = rng.random((64, 2))  # 8 ** 2 rows
    built = []
    grid = Domain.grid

    def counted(self, points_per_dim):
        built.append(points_per_dim)
        return grid(self, points_per_dim)

    monkeypatch.setattr(Domain, "grid", counted)
    assert field.variance_batch(xs).tobytes() == _row_by_row(field, xs).tobytes()
    assert built == []


def test_grid_variance_blocks_stay_within_the_block_budget(monkeypatch):
    nodes = UNIT.quadrature_nodes()
    calls = _distance_calls(monkeypatch)
    for n in (75, 600, 5000):
        rng = rng_stream(n, "grid-variance-memory")
        field = VarianceField(rng.random((n, 2)), rng.normal(size=n), 0.3, UNIT)
        calls.clear()
        tracemalloc.start()
        try:
            field.variance_batch(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if n <= 600:  # the per-axis tents fit beside a block of whole lines
            assert calls == [] and peak <= 1.25e6, (n, peak)
        else:  # they would not, so the dense path's blocks answer
            assert calls, n


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_the_quadrature_average_takes_the_grid_path(monkeypatch, dim):
    rng = rng_stream(50 + dim, "quadrature-variance")
    box = Domain([-1.0] * dim, [0.5 + 0.5 * j for j in range(dim)])
    field = VarianceField(box.uniform(200, rng), rng.normal(size=200), 0.4, box)
    calls = _distance_calls(monkeypatch)
    plug_in_density(field, default_quadrature_points(dim))
    assert calls == []


# the variance of 300 queries on 12,000 pilot points, as hex bytes
_THREADED_MOMENTS = """\
from fsp import Domain, VarianceField
from fsp.core import rng_stream
rng = rng_stream(12_000, "threaded-moments")
field = VarianceField(rng.random((12_000, 2)), rng.normal(size=12_000), 0.9, Domain.cube(2))
print(field.variance_batch(rng.random((300, 2))).tobytes().hex())
"""


def test_variance_moments_do_not_depend_on_the_openblas_thread_count():
    src = os.path.dirname(os.path.dirname(estimator.__file__))
    out = []
    for threads in ("1", "2"):  # OpenBLAS splits a dot product above 10,000 elements
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _THREADED_MOMENTS], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        out.append(done.stdout)
    assert out[0] == out[1]


def test_variance_matches_loop_oracle_and_nonnegative():
    rng = rng_stream(8, "est")
    for _ in range(100):
        n = int(rng.integers(2, 30))
        px = rng.random((n, 2))
        py = rng.normal(size=n)
        h = float(rng.uniform(0.1, 1.0))
        field = VarianceField(px, py, h, UNIT)
        x = rng.random(2)
        got = field.variance_batch([x])[0]
        assert got >= 0.0
        assert got == pytest.approx(variance_oracle(px, py, x, h), rel=1e-10, abs=1e-12)


class _InjectedField(VarianceField):
    """sigma-hat(x) = x on [0, 1], for quadrature checks."""

    def variance_batch(self, xs):
        xs = np.atleast_2d(np.asarray(xs, float))
        return xs[:, 0] ** 2


def test_mean_sigma_constant_field():
    field = VarianceField(np.array([[0.5, 0.5]]), np.array([0.0]), 1.0, UNIT)
    field.variance_batch = lambda xs: np.full(np.atleast_2d(xs).shape[0], 4.0)
    assert plug_in_density(field, 16).mean_sigma == pytest.approx(2.0)


def test_mean_sigma_linear_field_quadrature():
    dom = Domain.cube(1)
    field = _InjectedField(np.array([[0.5]]), np.array([0.0]), 1.0, dom)
    value = plug_in_density(field, 1000).mean_sigma
    assert value == pytest.approx(0.5, abs=1e-3)
    refined = plug_in_density(field, 2000).mean_sigma
    assert abs(refined - value) < 1e-3


def test_pilot_variance_consistency_monte_carlo():
    # quadratic-kernel pilot on [0,1]^2 with unit noise recovers sigma^2 = 1
    dom = Domain.cube(2)
    n0 = 4000
    errors = []
    for seed in range(20):
        rng = rng_stream(seed, "pilot-mc")
        xs = dom.uniform(n0, rng)
        ys = np.sin(3 * xs[:, 0]) + rng.standard_normal(n0)
        field = VarianceField(xs, ys, n0 ** (-1 / 4), dom)
        errors.append(abs(field.variance_batch([[0.5, 0.5]])[0] - 1.0))
    assert np.median(errors) <= 0.15


def test_grid_cells_corrects_a_wrong_first_guess_on_uneven_edges():
    # the first guess assumes even edges; on these it misses often
    edges = [np.array([0.0, 0.1, 0.5, 0.55, 1.0]), np.array([-1.0, 0.9, 1.0])]
    rng = rng_stream(60, "grid-cells")
    xs = np.column_stack([rng.random(500), rng.uniform(-1.0, 1.0, 500)])
    want = [np.searchsorted(e, xs[:, j], "right") - 1 for j, e in enumerate(edges)]
    assert np.array_equal(grid_cells(edges, xs), want[0] * 2 + want[1])


def test_the_squeeze_bounds_walk_a_d3_grid_in_small_slabs():
    # a slab of whole first-axis rows, 625 cells each here, held up to 238,000
    # (pilot, cell) pairs at once: a 26 MB peak; a slab of lines along the last
    # axis holds a mask of at most 8 * _SLAB_PAIRS booleans: 7.8 MB
    rng = rng_stream(61, "bounds-memory")
    field = VarianceField(rng.random((2000, 3)), rng.standard_normal(2000), 0.3, Domain.cube(3))
    tracemalloc.start()
    try:
        _, lo, hi = field.variance_bounds(262_144)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lo) == 25**3 and np.isfinite(hi).any()  # the grid pays for itself
    assert peak < 16e6


def test_an_empty_pilot_leaves_every_cell_of_the_squeeze_undecided():
    field = VarianceField(np.empty((0, 3)), np.empty(0), 0.3, Domain.cube(3))
    edges, lo, hi = field.variance_bounds(262_144)
    assert [len(e) for e in edges] == [26] * 3
    assert (lo == 0).all() and (hi == np.inf).all()


def test_pilot_bandwidth_rule():
    assert pilot_bandwidth(4000, 2) == pytest.approx(4000 ** (-0.25))
    assert pilot_bandwidth(1000, 1) == pytest.approx(1000 ** (-1 / 3))
