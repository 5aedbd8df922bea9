"""Grid functions: geometry, interpolation, Holder validation, JSON round trip."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline, RegularGridInterpolator

from loglap import PreconditionError, grid
from loglap.grid import (
    GridFunction,
    box_indicator,
    estimate_holder_constant,
    gaussian_bump,
    gaussian_derivative_bump,
    grid_from_dict,
    grid_to_dict,
    load_grid,
    save_grid,
)


def _small_bump(n=64):
    h = 4.0 / n
    x = -2.0 + h * np.arange(n)
    vals = np.exp(-(x ** 2) * 4)
    c = estimate_holder_constant(vals, (h,), 1.0)
    return GridFunction(1, (-2.0,), (h,), (n,), vals, 1.0, c)


def test_constructor_validation():
    with pytest.raises(PreconditionError):
        GridFunction(3, (0.0,) * 3, (1.0,) * 3, (4,) * 3, np.zeros(64), 1.0, 1.0)
    with pytest.raises(PreconditionError):
        GridFunction(1, (0.0,), (-0.1,), (4,), np.zeros(4), 1.0, 1.0)
    with pytest.raises(PreconditionError):
        GridFunction(1, (0.0,), (0.1,), (4,), np.zeros(5), 1.0, 1.0)
    with pytest.raises(PreconditionError):
        GridFunction(1, (0.0,), (0.1,), (4,), np.array([0.0, np.nan, 0.0, 0.0]), 1.0, 1.0)
    with pytest.raises(PreconditionError):
        GridFunction(1, (0.0,), (0.1,), (4,), np.zeros(4), 1.5, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_geometry_and_holder_constant_rejected(bad):
    with pytest.raises(PreconditionError, match="origin and spacing must be finite"):
        GridFunction(1, (bad,), (0.1,), (4,), np.zeros(4), 1.0, 1.0)
    with pytest.raises(PreconditionError, match="origin and spacing must be finite"):
        GridFunction(2, (0.0, 0.0), (0.1, bad), (4, 4), np.zeros(16), 1.0, 1.0)
    with pytest.raises(PreconditionError, match="Holder constant must be finite"):
        GridFunction(1, (0.0,), (0.1,), (4,), np.zeros(4), 1.0, bad)
    # finite origin and spacing whose last node or period overflows
    with pytest.raises(PreconditionError, match="grid box extent must be finite"):
        GridFunction(1, (0.0,), (1e308,), (4,), np.zeros(4), 1.0, 1.0)
    with pytest.raises(PreconditionError, match="grid box extent must be finite"):
        GridFunction(1, (-1e308,), (1e308,), (3,), np.zeros(3), 1.0, 1.0)


def test_zero_outside_box():
    u = _small_bump()
    assert u(np.array([5.0, -3.0, 100.0])) == pytest.approx([0.0, 0.0, 0.0], abs=0.0)
    assert u(0.0) == pytest.approx(1.0, rel=1e-10)


def test_interpolation_accuracy():
    u = _small_bump(256)
    xs = np.linspace(-1.5, 1.5, 777)
    exact = np.exp(-(xs ** 2) * 4)
    assert np.max(np.abs(u(xs) - exact)) < 1e-6


def test_norms_are_lattice_sums():
    u = _small_bump()
    h = u.spacing[0]
    assert u.l1_norm() == pytest.approx(np.sum(np.abs(u.values)) * h)
    assert u.l2_norm() == pytest.approx(np.sqrt(np.sum(u.values ** 2) * h))
    assert u.integral() == pytest.approx(np.sum(u.values) * h)


def test_with_values_reestimates_constant():
    u = _small_bump()
    v = u.with_values(2.0 * u.values)
    assert v.holder_constant >= 2.0 * np.max(np.abs(np.diff(u.values))) / u.spacing[0]
    w = u.with_values(u.values, const=7.0)
    assert w.holder_constant == 7.0


def test_holder_validation_accepts_honest_and_rejects_false():
    u = _small_bump()
    u.validate_holder()
    lying = GridFunction(u.dim, u.origin, u.spacing, u.shape, u.values, 1.0, 1e-6)
    with pytest.raises(PreconditionError):
        lying.validate_holder()


def test_bump_factories():
    u = gaussian_derivative_bump(dim=1, nodes=1024, halfwidth=10.0)
    assert abs(u.integral()) < 1e-12  # odd bump: mean zero
    g = gaussian_bump(dim=2, nodes=64, halfwidth=4.0)
    assert g.dim == 2 and g.values.shape == (64, 64)
    ind = box_indicator(0.0, 1.0, nodes=512)
    assert set(np.unique(ind.values)) <= {0.0, 1.0}


def test_json_round_trip_bit_exact(tmp_path):
    u = gaussian_derivative_bump(dim=1, nodes=256, halfwidth=5.0)
    path = tmp_path / "u.json"
    save_grid(u, path)
    v = load_grid(path)
    assert v.dim == u.dim and v.shape == u.shape
    assert np.array_equal(v.values, u.values)  # bit-exact through JSON floats
    assert v.holder_constant == u.holder_constant
    w = grid_from_dict(grid_to_dict(u))
    assert np.array_equal(w.values, u.values)


_HARD_FLOATS = [5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308,
                0.30000000000000004, 1.0000000000000002, 2.2250738585072014e-308, 1e-8, 1 / 3, 123456789.12345679]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1).view(np.uint64)


@pytest.mark.parametrize("shape, order", [((12,), "C"), ((3, 4), "C"), ((3, 4), "F")], ids=["1d", "2d", "2d-fortran"])
def test_saved_values_read_back_bit_for_bit(tmp_path, shape, order):
    # subnormal, signed zero, the largest floats and 17-digit values, from a C- or Fortran-ordered array
    rows = np.array(_HARD_FLOATS + [-2.5, 7.0]).reshape(shape)
    u = GridFunction(len(shape), (0.0,) * len(shape), (0.5,) * len(shape), shape, np.asarray(rows, order=order), 1.0, 1.0)
    assert u.values.flags.c_contiguous == (order == "C")
    path = tmp_path / "u.json"
    save_grid(u, path)
    text = path.read_bytes()
    assert np.array_equal(_bits(grid_from_dict(json.loads(text)).values), _bits(rows))
    data = json.loads(text)
    assert np.array_equal(_bits(data["values"]), _bits(rows))
    assert data == grid_to_dict(u)  # the header fields too
    c_order = tmp_path / "c.json"
    save_grid(GridFunction(u.dim, u.origin, u.spacing, u.shape, np.ascontiguousarray(rows), 1.0, 1.0), c_order)
    assert c_order.read_bytes() == text


def test_saved_strided_values_read_back(tmp_path):
    every_other = (np.arange(16.0) / 3.0)[::2]
    u = GridFunction(1, (0.0,), (0.1,), (8,), every_other, 1.0, 1.0)
    assert not u.values.flags.c_contiguous
    save_grid(u, tmp_path / "u.json")
    assert np.array_equal(_bits(grid_from_dict(json.loads((tmp_path / "u.json").read_text())).values), _bits(every_other))


@pytest.mark.parametrize("origin, spacing, ok", [
    ((0.0,), (5e-324,), False),
    ((1.0,), (5e-324,), False),
    ((1.0,), (1e-14,), False),  # 1e-3 spacing is below one ulp of 1.0
    ((0.0, 1.0), (0.5, 1e-14), False),
    ((1.0,), (1e-12,), True),
    ((0.0,), (1e-300,), True),
], ids=["subnormal-at-0", "subnormal-at-1", "sub-ulp-step", "2d-second-axis", "resolved", "tiny-at-0"])
def test_spacing_must_separate_the_nodes(origin, spacing, ok):
    dim = len(origin)
    make = lambda: GridFunction(dim, origin, spacing, (4,) * dim, np.zeros(4 ** dim), 1.0, 1.0)
    if ok:
        make().validate_holder()
    else:
        with pytest.raises(PreconditionError, match="spacing is too small"):
            make()


@pytest.mark.parametrize("values, spacing, ok", [
    ([0.0, 1e308, -1e308, 0.0], (1.0,), False),  # a difference overflows
    ([0.0, 1.0, 1.0, 0.0], (1e-310,), False),  # a quotient overflows at subnormal spacing
    ([1e308, 1e308, 1e308, 1e308], (1.0,), True),  # 2 max|u| / h overflows, every quotient is finite
    ([[0.0, 1e308], [0.0, -1e308]], (1.0, 1.0), False),
    ([[0.0, 1e308], [0.0, 0.0]], (1.0, 1e-10), False),  # the second axis only
], ids=["difference", "quotient", "constant-near-overflow", "2d-first-axis", "2d-second-axis"])
def test_interpolant_needs_finite_divided_differences(values, spacing, ok):
    # such values are stored and saved as they are; sampling the interpolant (and so validate_holder) refuses them
    values = np.array(values)
    u = GridFunction(values.ndim, (0.0,) * values.ndim, spacing, values.shape, values, 1.0, 1.0)
    centre = np.array([0.5 * (n - 1) * h for n, h in zip(values.shape, spacing)])
    if ok:
        assert np.isfinite(u(centre if values.ndim == 2 else centre[0]))
    else:
        for check in (lambda: u(centre if values.ndim == 2 else centre[0]), u.validate_holder):
            with pytest.raises(PreconditionError, match="divided differences must be finite"):
                check()


def test_malformed_grid_dict_rejected():
    with pytest.raises(PreconditionError):
        grid_from_dict({"dim": 1, "origin": [0.0]})


def test_2d_evaluation_and_containment():
    g = gaussian_bump(dim=2, nodes=48, halfwidth=3.0)
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [1.0, -1.0]])
    vals = g(pts)
    assert vals[0] == pytest.approx(1.0, rel=1e-6)
    assert vals[1] == 0.0
    assert g.contains([0.5, 0.5]) and not g.contains([4.0, 0.0])


@pytest.mark.parametrize("n", [3, 64])
def test_cell_coefficients_reproduce_the_interpolant(n):
    u = _small_bump(n)
    h = u.spacing[0]
    D = u.cell_coefficients()
    assert D.shape == (4, n - 1)
    rng = np.random.default_rng(2)
    x = rng.uniform(u.origin[0], u.box_hi[0], 200)
    j = np.minimum(((x - u.origin[0]) // h).astype(int), n - 2)
    s = (x - u.axes()[0][j]) / h
    local = sum(D[p, j] * s ** p for p in range(4))
    assert np.allclose(local, u(x), rtol=0, atol=1e-13)
    assert np.allclose(D[0], u.values[:-1], rtol=0, atol=1e-15)
    if n < 4:
        assert not np.any(D[2:])  # linear interpolant


def test_cell_coefficients_need_a_1d_grid():
    with pytest.raises(PreconditionError):
        gaussian_bump(dim=2, nodes=8, halfwidth=1.0).cell_coefficients()


def test_nodes_follow_the_value_order():
    g = gaussian_bump(dim=2, nodes=6, halfwidth=1.0)
    nodes = g.nodes()
    assert nodes.shape == (36, 2)
    ax = g.axes()
    grid = nodes.reshape(6, 6, 2)
    assert np.array_equal(grid[:, :, 0], np.repeat(ax[0][:, None], 6, axis=1))
    assert np.array_equal(grid[:, :, 1], np.repeat(ax[1][None, :], 6, axis=0))
    assert np.array_equal(_small_bump(8).nodes()[:, 0], _small_bump(8).axes()[0])


# -- the tensor spline --------------------------------------------------------------


def _face_heavy_1d(n):
    # nonzero and sloped at both faces, where the end conditions matter
    x = np.linspace(-1.0, 2.0, n)
    return GridFunction(1, (-1.0,), (x[1] - x[0],), (n,), np.cos(3.0 * x) + 0.5 * x, 1.0, 10.0)


@pytest.mark.parametrize("n", [4, 5, 64])
def test_1d_interpolant_is_the_not_a_knot_spline(n):
    u = _face_heavy_1d(n)
    ref = CubicSpline(u.axes()[0], u.values, bc_type="not-a-knot")
    x = np.concatenate([np.random.default_rng(3).uniform(u.origin[0], u.box_hi[0], 5000), u.axes()[0]])
    assert np.max(np.abs(u(x) - ref(x))) <= 1e-13 * u.sup_norm()


@pytest.mark.parametrize("n", [2, 3])
def test_1d_linear_fallback_is_np_interp(n):
    u = _face_heavy_1d(n)
    x = np.random.default_rng(3).uniform(u.origin[0], u.box_hi[0], 5000)
    assert np.max(np.abs(u(x) - np.interp(x, u.axes()[0], u.values))) <= 1e-15 * u.sup_norm()
    assert np.array_equal(u(np.array([u.origin[0] - 1e-9, u.box_hi[0] + 1e-9, np.nan])), np.zeros(3))


def test_2d_linear_fallback_is_the_bilinear_interpolant():
    h = (0.1, 0.15)
    x, y = (hh * np.arange(n) for hh, n in zip(h, (3, 8)))
    u = GridFunction(2, (0.0, 0.0), h, (3, 8), np.cos(x[:, None] + 2.0 * y[None, :]) + x[:, None], 1.0, 10.0)
    ref = RegularGridInterpolator(u.axes(), u.values, method="linear")
    pts = np.random.default_rng(3).uniform(u.box_lo, u.box_hi, size=(5000, 2))
    assert np.max(np.abs(u(pts) - ref(pts))) <= 1e-15 * u.sup_norm()


@pytest.mark.parametrize("n", [6, 32, 128])
def test_2d_interpolant_reproduces_node_values(n):
    u = gaussian_bump(dim=2, halfwidth=1.0, nodes=n)
    miss = np.max(np.abs(u(u.nodes()).reshape(u.shape) - u.values))
    assert miss <= 1e-13 * u.sup_norm()


def test_2d_interpolant_is_the_not_a_knot_tensor_spline():
    u = gaussian_derivative_bump(dim=2, halfwidth=4.0, nodes=96, width=1.0)
    ref = RectBivariateSpline(*u.axes(), u.values, kx=3, ky=3, s=0)
    pts = np.random.default_rng(5).uniform(u.box_lo, u.box_hi, size=(20000, 2))
    diff = np.max(np.abs(u(pts) - ref.ev(pts[:, 0], pts[:, 1])))
    assert diff <= 1e-13 * u.sup_norm()


@pytest.mark.parametrize("shape", [(20, 17), (3, 8)])
def test_2d_interpolant_is_zero_just_outside_each_face(shape):
    # a wide bump keeps the face values far from zero
    h = (0.1, 0.15)
    origin = (-1.0, -0.7)
    x, y = (o + hh * np.arange(n) for o, hh, n in zip(origin, h, shape))
    vals = np.exp(-(x[:, None] ** 2 + y[None, :] ** 2) / 9.0)
    u = GridFunction(2, origin, h, shape, vals, 1.0, 1.0)
    lo, hi = u.box_lo, u.box_hi
    mid = 0.5 * (lo + hi)
    for ax in range(2):
        for face, step in ((lo[ax], -np.inf), (hi[ax], np.inf)):
            on, off = mid.copy(), mid.copy()
            on[ax] = face
            off[ax] = np.nextafter(face, step)
            assert u(on[None, :])[0] > 0.5
            assert u(off[None, :])[0] == 0.0
    corners = np.array([[lo[0], lo[1]], [hi[0], hi[1]]])
    assert np.allclose(u(corners), [vals[0, 0], vals[-1, -1]], rtol=1e-13)


@pytest.mark.parametrize("shape", [(20, 17), (3, 8)])
def test_2d_non_finite_and_far_points_read_zero(shape):
    # the inside test runs on coordinates before any cell index is made, so
    # NaN, infinities and huge coordinates never reach the gather
    h = (0.1, 0.15)
    x, y = (hh * np.arange(n) for hh, n in zip(h, shape))
    u = GridFunction(2, (0.0, 0.0), h, shape, 1.0 + x[:, None] + y[None, :], 1.0, 1.0)
    mid = 0.5 * (u.box_lo + u.box_hi)
    bad = [np.nan, np.inf, -np.inf, 1e300, -1e300]
    pts = np.array([[b, mid[1]] for b in bad] + [[mid[0], b] for b in bad] + [[np.nan, np.inf], mid.tolist()])
    vals = u(pts)
    assert np.array_equal(vals[:-1], np.zeros(len(pts) - 1))
    assert vals[-1] > 1.0
    assert u(np.full((3, 4, 2), np.nan)).shape == (3, 4)


@pytest.mark.parametrize("dim", [1, 2])
def test_interpolant_memory_does_not_grow_with_points(dim):
    # 10^6 points: the traced peak is the output plus one block's temporaries
    u = gaussian_bump(dim=dim, halfwidth=2.0, nodes=64)
    u(np.zeros((1, dim)[:dim]))  # builds the coefficient table outside the trace
    extra = []
    for m in (10 ** 5, 10 ** 6):
        pts = np.random.default_rng(4).uniform(-2.5, 2.5, size=(m, dim)[:dim])  # bare coordinates in 1D
        tracemalloc.start()
        try:
            vals = u(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - vals.nbytes)
    block = 8 * grid._SPLINE_BLOCK
    assert max(extra) <= 20 * block
    assert extra[1] <= extra[0] + block
