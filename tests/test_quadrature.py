"""The shared Gauss panel rules: row independence, empty batches, angular coverage."""

import math

import numpy as np
import pytest

from loglap.quadrature import angle_rule, panel_rule


def _random_bounds(rng, shape):
    return np.sort(rng.uniform(-2.0, 3.0, shape), axis=-1)


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 6), (7, 2)])
def test_stacked_panel_rows_equal_one_call_per_row(shape):
    bounds = _random_bounds(np.random.default_rng(sum(shape)), shape)
    nodes, weights = panel_rule(bounds, 7)
    assert nodes.shape == weights.shape == shape[:-1] + ((shape[-1] - 1) * 7,)
    for row in np.ndindex(shape[:-1]):
        n1, w1 = panel_rule(bounds[row], 7)
        assert np.array_equal(nodes[row], n1) and np.array_equal(weights[row], w1)


def test_panel_rule_on_zero_rows_is_empty():
    nodes, weights = panel_rule(np.empty((0, 3)), 5)
    assert nodes.shape == weights.shape == (0, 10)
    nodes, weights = panel_rule(np.empty((0, 4, 2)), 5)
    assert nodes.shape == weights.shape == (0, 4, 5)


def test_panel_rule_is_exact_on_polynomials():
    bounds = np.array([0.5, 0.75, 1.5, 3.0])
    nodes, weights = panel_rule(bounds, 4)  # exact to degree 7
    assert np.sum(weights) == pytest.approx(2.5, rel=1e-15)
    assert np.sum(weights * nodes ** 7) == pytest.approx((3.0 ** 8 - 0.5 ** 8) / 8.0, rel=1e-14)


def test_full_circle_weights_sum_to_two_pi():
    rng = np.random.default_rng(1)
    dx, dy = rng.normal(size=(2, 6, 5))
    phi, wts = angle_rule(dx, dy, 8)
    assert phi.shape == wts.shape == (6, 40)
    np.testing.assert_allclose(np.sum(wts, axis=1), 2.0 * math.pi, rtol=1e-14)
    phi1, wts1 = angle_rule(dx[0], dy[0], 8)  # a single row
    assert np.sum(wts1) == pytest.approx(2.0 * math.pi, rel=1e-14)
    # one full turn from the smallest direction, taken in [0, 2 pi)
    first = np.min(np.arctan2(dy[0], dx[0]) % (2.0 * math.pi))
    assert first < np.min(phi1) and np.max(phi1) < first + 2.0 * math.pi


def test_wedge_weights_sum_to_the_subtended_angle():
    # corners of the box [1, 2] x [-0.5, 1] seen from points left of it
    px = np.array([0.0, -0.3, 0.5])
    py = np.array([0.0, 0.4, -1.0])
    cx = np.array([1.0, 1.0, 2.0, 2.0])
    cy = np.array([-0.5, 1.0, -0.5, 1.0])
    dx, dy = cx - px[:, None], cy - py[:, None]
    ref = np.arctan2(0.25 - py, 1.5 - px)  # towards the box centre
    phi, wts = angle_rule(dx, dy, 6, ref=ref)
    ang = np.arctan2(dy, dx)  # no wrap: the box lies right of every point
    np.testing.assert_allclose(np.sum(wts, axis=1), ang.max(axis=1) - ang.min(axis=1), rtol=1e-14)
    assert np.all((phi > ang.min(axis=1, keepdims=True)) & (phi < ang.max(axis=1, keepdims=True)))


def test_wedge_across_the_negative_axis_does_not_wrap():
    # kinks at +-(pi - 0.1) seen from ref = pi: a wedge of 0.2, not 2 pi - 0.2
    dx = np.array([math.cos(math.pi - 0.1), math.cos(math.pi + 0.1)])
    dy = np.array([math.sin(math.pi - 0.1), math.sin(math.pi + 0.1)])
    phi, wts = angle_rule(dx, dy, 5, ref=math.pi)
    assert np.sum(wts) == pytest.approx(0.2, rel=1e-13)
    assert np.all(np.abs(phi - math.pi) < 0.1)


@pytest.mark.parametrize("ref", [None, 0.3])
def test_duplicate_kinks_add_only_zero_width_panels(ref):
    rng = np.random.default_rng(2)
    dx, dy = rng.uniform(0.5, 1.0, (3, 4)), rng.uniform(-0.5, 0.5, (3, 4))
    dup_x, dup_y = np.concatenate([dx, dx[:, :1]], axis=1), np.concatenate([dy, dy[:, :1]], axis=1)
    f = lambda phi: np.cos(phi) ** 2 + np.sin(3.0 * phi)
    phi, wts = angle_rule(dx, dy, 6, ref)
    phi_d, wts_d = angle_rule(dup_x, dup_y, 6, ref)  # a batch: one more, zero-width panel per row
    assert wts_d.shape[1] == wts.shape[1] + 6
    for r in range(3):
        live = wts_d[r] != 0.0
        assert np.array_equal(phi_d[r][live], phi[r]) and np.array_equal(wts_d[r][live], wts[r])
    np.testing.assert_allclose(np.sum(f(phi_d) * wts_d, axis=1), np.sum(f(phi) * wts, axis=1), rtol=1e-15, atol=1e-15)
    # a single row drops the duplicate altogether
    one = angle_rule(dx[0], dy[0], 6, ref)
    one_d = angle_rule(dup_x[0], dup_y[0], 6, ref)
    assert all(np.array_equal(a, b) for a, b in zip(one, one_d))
