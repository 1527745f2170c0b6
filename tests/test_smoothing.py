import numpy as np
import pytest

from fsp import ExpressionModel, HolderParams, SmoothedView, check_local_smooth, local_smooth
from fsp.core import rng_stream
from helpers import (
    anchor_fixed_point_holds,
    holder_member,
    idempotence_holds,
    membership_holds,
    monotone_band_holds,
    random_smoothing_case,
    smoothing_property_violations,
)

THETA = HolderParams(1.0, 0.5)


def f_rough(xs):
    xs = np.atleast_2d(np.asarray(xs, float))
    return 0.7 * np.abs(xs[:, 0]) ** 0.25


def f_member(xs):
    xs = np.atleast_2d(np.asarray(xs, float))
    return 0.7 * np.abs(xs[:, 0]) ** 0.5


def test_member_function_unchanged():
    # 0.7*|x|^(1/2) already satisfies the (1, 0.5) bound, so smoothing is a no-op
    grid = np.linspace(-0.5, 0.5, 101)
    for x in grid:
        assert local_smooth(f_member, THETA, [0.0], [x]) == pytest.approx(
            f_member([[x]])[0], rel=1e-12, abs=1e-15
        )


def test_rough_function_truncated_near_anchor():
    # 0.7*|x|^(1/4) exceeds the band near 0; at x = 0.1 the band binds
    got = local_smooth(f_rough, THETA, [0.0], [0.1])
    assert got == pytest.approx(min(0.7 * 0.1**0.25, 0.1**0.5), rel=1e-12)
    assert got == pytest.approx(0.1**0.5, rel=1e-12)


def test_zero_theta1_pins_to_anchor_value():
    rng = rng_stream(0, "t")
    g, _, anchor, probes = random_smoothing_case(rng, dim=2)
    theta = HolderParams(0.0, 0.7)
    g_anchor = float(g(anchor[None, :])[0])
    for p in probes:
        assert local_smooth(g, theta, anchor, p) == g_anchor


def test_anchor_fixed_point_exact():
    rng = rng_stream(1, "t")
    for _ in range(50):
        g, theta, anchor, probes = random_smoothing_case(rng)
        assert anchor_fixed_point_holds(g, theta, anchor, probes)


def test_result_stays_inside_band():
    rng = rng_stream(2, "t")
    for _ in range(200):
        g, theta, anchor, probes = random_smoothing_case(rng)
        g_anchor = float(g(anchor[None, :])[0])
        for p in probes:
            band = theta.theta1 * np.linalg.norm(p - anchor) ** theta.theta2
            v = local_smooth(g, theta, anchor, p)
            assert g_anchor - band - 1e-12 <= v <= g_anchor + band + 1e-12


def test_check_local_smooth_constant():
    ok, ratio = check_local_smooth(
        lambda xs: np.zeros(np.atleast_2d(xs).shape[0]),
        HolderParams(0.0, 0.5),
        [0.0],
        [[0.3], [0.9]],
    )
    assert ok and ratio == 0.0


def test_check_local_smooth_detects_violation():
    # f(x) = x with theta = (0.5, 1): ratio |x| / |x| = 1 > 0.5
    ok, ratio = check_local_smooth(
        lambda xs: np.atleast_2d(xs)[:, 0], HolderParams(0.5, 1.0), [0.0], [[0.5], [1.0]]
    )
    assert not ok
    assert ratio == pytest.approx(1.0)


def test_check_local_smooth_rejects_empty_and_anchor_probes():
    with pytest.raises(ValueError):
        check_local_smooth(f_member, THETA, [0.0], np.empty((0, 1)))
    with pytest.raises(ValueError):
        check_local_smooth(f_member, THETA, [0.0], [[0.0]])


def test_smoothed_view_passes_membership_check():
    rng = rng_stream(3, "t")
    for _ in range(100):
        g, theta, anchor, probes = random_smoothing_case(rng)
        if len(probes) == 0:
            continue
        view = SmoothedView(g, theta, tuple(anchor))
        assert check_local_smooth(view, theta, anchor, probes).ok


def test_membership_property_bulk():
    assert smoothing_property_violations(300, 10, membership_holds) == 0


def test_idempotence_property_bulk():
    assert smoothing_property_violations(300, 11, idempotence_holds) == 0


def test_monotone_band_property_bulk():
    assert smoothing_property_violations(300, 12, monotone_band_holds) == 0


def test_noop_on_holder_members():
    # analytic members a*||x - c||^t with theta1 slightly above a stay untouched
    rng = rng_stream(13, "t")
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        theta2 = float(rng.uniform(0.05, 1.0))
        g, scale = holder_member(rng, dim, theta2)
        theta = HolderParams(scale * 1.01, theta2)
        anchor = rng.uniform(-0.5, 0.5, size=dim)
        for p in rng.uniform(-0.5, 0.5, size=(10, dim)):
            assert local_smooth(g, theta, anchor, p) == pytest.approx(
                float(g(p[None, :])[0]), rel=1e-12, abs=1e-12
            )


def test_theta2_zero_constant_band():
    g = lambda xs: 3.0 * np.atleast_2d(xs)[:, 0]
    theta = HolderParams(0.25, 0.0)
    # away from the anchor the band has constant width theta1
    assert local_smooth(g, theta, [0.0], [1.0]) == pytest.approx(0.25)
    assert local_smooth(g, theta, [0.0], [-1.0]) == pytest.approx(-0.25)
    # tiny deviations inside the band are untouched
    assert local_smooth(g, theta, [0.0], [0.05]) == pytest.approx(0.15)
    # the anchor keeps its exact value
    assert local_smooth(g, theta, [0.0], [0.0]) == 0.0


def test_one_point_callables_are_read_one_point_at_a_time():
    # called on the whole batch, this one-point function returns the batch's first
    # row, which has one value per probe when the probe count equals the dimension
    f = lambda x: x[0]
    anchor = (0.5, 0.5)
    probes = [[0.2, 0.9], [0.7, 0.1]]
    check = check_local_smooth(f, HolderParams(0.7, 1.0), anchor, probes)
    assert check.ok and check.max_ratio == pytest.approx(0.6)
    view = SmoothedView(f, HolderParams(10.0, 1.0), anchor)
    assert view.batch(probes).tolist() == [view(p) for p in probes]
    assert view.batch(probes) == pytest.approx([0.2, 0.7])


def test_a_black_box_model_is_smoothed_and_checked_as_its_function_is():
    # a model answers through predict and predict_batch, not by being called
    model = ExpressionModel("0.7 * abs(x1) ** 0.25", 1)
    anchor, probes = np.array([0.1]), np.array([[0.3], [0.6], [-0.2]])
    for x in probes:
        assert local_smooth(model, THETA, anchor, x) == local_smooth(f_rough, THETA, anchor, x)
    want = check_local_smooth(f_rough, THETA, anchor, probes)
    assert check_local_smooth(model, THETA, anchor, probes) == want
