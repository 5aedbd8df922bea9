"""Singular quadrature operators vs closed forms, identities, and the FFT oracle."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from loglap import PreconditionError
from loglap.coeffs import (
    EULER_GAMMA,
    alpha_coeffs,
    c_dim,
    kappa2_riesz,
    kappa_series,
    omega,
    rho,
)
from loglap.domains import Disk, DomainSpec, Interval, Rect
from loglap import pointwise
from loglap.grid import GridFunction, estimate_holder_constant, gaussian_bump, gaussian_derivative_bump
from loglap.pointwise import (
    _jump_positions,
    apply_K_batch,
    apply_L_batch,
    frac_lap_batch,
    h_regional,
    regional_repr,
    riesz_batch,
    weighted_l1_norm,
)
from loglap.spectral import apply_symbol


@pytest.fixture(scope="module")
def bump():
    return gaussian_derivative_bump(dim=1)


@pytest.fixture(scope="module")
def wide_bump():
    return gaussian_bump(dim=1, halfwidth=6.0, nodes=2048, width=1.0)


def _plateau(R, nodes=2049):
    """u = 1 on (-R, R) with the box edge exactly at the jump."""
    h = 2.0 * R / (nodes - 1)
    return GridFunction(1, (-R,), (h,), (nodes,), np.ones(nodes), 1.0, 0.0)


# ---------------------------------------------------------------------------
# K_n


def test_k_zero_function(bump):
    zero = bump.with_values(np.zeros(bump.shape), const=0.0)
    values, bound, _ = apply_K_batch(2, zero, 0.0)
    assert values[0] == 0.0
    assert bound == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_k_plateau_closed_form(n):
    R = math.e
    u = _plateau(R)
    value = apply_K_batch(n, u, 0.0)[0][0]
    expect = (-1.0) ** n * 2.0 * (2.0 * math.log(R)) ** n / (2.0 * n)
    assert value == pytest.approx(expect, rel=1e-9, abs=1e-12)


def test_k_translation_invariance(bump):
    v = GridFunction(
        1,
        (bump.origin[0] + 0.7,),
        bump.spacing,
        bump.shape,
        bump.values,
        bump.holder_exponent,
        bump.holder_constant,
    )
    a = apply_K_batch(2, bump, 0.35)[0][0]
    b = apply_K_batch(2, v, 0.35 + 0.7)[0][0]
    assert b == pytest.approx(a, rel=1e-12)


def test_k_linearity(bump):
    rng = np.random.default_rng(5)
    other = bump.with_values(np.roll(bump.values, 37))
    a, b = rng.uniform(-2, 2, 2)
    combo = bump.with_values(a * bump.values + b * other.values)
    xs = np.array([[0.1], [-0.4], [1.3]])
    v_combo, _, _ = apply_K_batch(2, combo, xs)
    v_u, _, _ = apply_K_batch(2, bump, xs)
    v_w, _, _ = apply_K_batch(2, other, xs)
    scale = np.max(np.abs(v_combo)) + 1.0
    assert np.allclose(v_combo, a * v_u + b * v_w, rtol=0, atol=1e-12 * scale)


def test_k_outside_box_rejected(bump):
    with pytest.raises(PreconditionError):
        apply_K_batch(1, bump, 100.0)


def test_k_near_jump_rejected():
    u = _plateau(2.0)
    # the drop to the zero extension at the box face is a discontinuity;
    # evaluation inside the inner cut of it must be refused
    with pytest.raises(PreconditionError):
        apply_K_batch(1, u, 2.0 - 1e-9)
    # an interior indicator jump is caught the same way
    n = 1025
    h = 6.0 / (n - 1)
    x = -3.0 + h * np.arange(n)
    vals = (np.abs(x) <= 1.0).astype(float)
    ind = GridFunction(1, (-3.0,), (h,), (n,), vals, 1.0, 0.0)
    pts, _ = _jump_positions(ind)
    assert pts.size > 0
    with pytest.raises(PreconditionError):
        apply_K_batch(1, ind, float(pts[0, 0]) + 1e-9)
    apply_K_batch(1, ind, 0.0)  # well inside: allowed


# ---------------------------------------------------------------------------
# L_m


def test_l_first_order_identity_against_direct_formula(wide_bump):
    # Two independent paths: the ledger combination vs the c_N/rho_N integral
    # computed by adaptive quadrature on the interpolant.
    u = wide_bump
    c1, r1 = c_dim(1), rho(1)
    for x0 in (0.0, 0.6, -1.1):
        led = apply_L_batch(1, u, x0)[0][0]

        def integrand(t):
            inner = (2.0 * u(x0) - u(x0 + t) - u(x0 - t)) / t if t < 1.0 else 0.0
            outer = -(u(x0 + t) + u(x0 - t)) / t if t >= 1.0 else 0.0
            return inner + outer

        val, _ = integrate.quad(integrand, 0.0, 7.0, points=[1.0], limit=400, epsabs=1e-12)
        direct = c1 * val + r1 * u(x0)
        assert led == pytest.approx(direct, rel=1e-8, abs=1e-10)


def test_l_matches_spectral_symbol(bump):
    idx = np.arange(1536, 2560, 64)
    xs = bump.axes()[0][idx][:, None]
    for m in (1, 2):
        vals, bound, _ = apply_L_batch(m, bump, xs)
        ref = apply_symbol(bump, "log", m)
        rel = np.max(np.abs(vals - ref.values[idx])) / np.max(np.abs(ref.values))
        assert rel < 1e-3


def test_l2_remark_coefficient_swap_disagrees_with_symbol(bump):
    # Swapping which kappa derivative multiplies which kernel is an easy slip
    # when hand-deriving the second-order form; the Fourier symbol arbitrates
    # and confirms the ledger ordering.
    idx = np.arange(1536, 2560, 64)
    xs = bump.axes()[0][idx][:, None]
    ref = apply_symbol(bump, "log", 2)
    scale = np.max(np.abs(ref.values))
    ser = kappa_series(1, 2)
    k1, k2, u0 = apply_K_batch(1, bump, xs)[0], apply_K_batch(2, bump, xs)[0], bump(xs[:, 0])
    ledger_path = (
        ser.kappa2_deriv(2) * u0
        - 2.0 * ser.kappa1_deriv(1) * k1
        + 2.0 * ser.kappa1_deriv(0) * k2
    )
    swapped_path = (
        ser.kappa2_deriv(2) * u0
        + 2.0 * ser.kappa1_deriv(0) * k1
        - 2.0 * ser.kappa1_deriv(1) * k2
    )
    assert np.max(np.abs(ledger_path - ref.values[idx])) / scale < 1e-3
    assert np.max(np.abs(swapped_path - ref.values[idx])) / scale > 1e-2


def test_l_ledger_mismatch_rejected(bump):
    with pytest.raises(PreconditionError):
        apply_L_batch(2, bump, 0.0, ledger=alpha_coeffs(3, 1))


# ---------------------------------------------------------------------------
# fractional Laplacian


def test_frac_zero_and_range(bump):
    zero = bump.with_values(np.zeros(bump.shape), const=0.0)
    assert frac_lap_batch(0.2, zero, 0.0)[0][0] == 0.0
    with pytest.raises(PreconditionError):
        frac_lap_batch(1.2, bump, 0.0)
    with pytest.raises(PreconditionError):
        frac_lap_batch(0.6, bump, 0.0)  # alpha = 1 <= 2s: split form inadmissible


def test_frac_matches_spectral(bump):
    idx = np.arange(1536, 2560, 64)
    xs = bump.axes()[0][idx][:, None]
    vals, bound, _ = frac_lap_batch(0.1, bump, xs)
    ref = apply_symbol(bump, "frac", 0.1)
    rel = np.max(np.abs(vals - ref.values[idx])) / np.max(np.abs(ref.values))
    assert rel < 1e-3


def test_frac_small_order_limit(wide_bump):
    # (-Delta)^s u (x) -> u(x) as s -> 0+
    x0 = 0.4
    errs = [abs(frac_lap_batch(s, wide_bump, x0)[0][0] - wide_bump(x0)) for s in (0.05, 0.01, 0.002)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.01 * abs(wide_bump(x0))


# ---------------------------------------------------------------------------
# Riesz convolution


def test_riesz_zero_and_range(bump, wide_bump):
    zero = bump.with_values(np.zeros(bump.shape), const=0.0)
    assert riesz_batch(0.2, zero, 0.0)[0][0] == 0.0
    with pytest.raises(PreconditionError):
        riesz_batch(0.5, wide_bump, 0.0)
    with pytest.raises(PreconditionError):
        riesz_batch(-0.1, wide_bump, 0.0)


@pytest.mark.parametrize("s", [0.05, 0.2, 0.4])
def test_riesz_unit_ball_indicator(s):
    u = _plateau(1.0, nodes=4097)
    value = riesz_batch(s, u, 0.0)[0][0]
    assert value == pytest.approx(kappa2_riesz(s, 1), rel=2e-3)


def test_riesz_matches_spectral(bump):
    idx = np.arange(1536, 2560, 64)
    xs = bump.axes()[0][idx][:, None]
    vals, bound, _ = riesz_batch(0.1, bump, xs)
    ref = apply_symbol(bump, "riesz", 0.1)
    rel = np.max(np.abs(vals - ref.values[idx])) / np.max(np.abs(ref.values))
    assert rel < 1e-3


def test_riesz_first_order_limit(wide_bump):
    # (Phi_s * u - u)/s approximates -L_1 u to 1% at s = 1e-3
    xs = np.linspace(-2.0, 2.0, 41)[:, None]
    s = 1e-3
    r_vals, _, _ = riesz_batch(s, wide_bump, xs)
    l_vals, _, _ = apply_L_batch(1, wide_bump, xs)
    quot = (r_vals - wide_bump(xs[:, 0])) / s
    rel = np.max(np.abs(quot + l_vals)) / np.max(np.abs(l_vals))
    assert rel < 0.01


# ---------------------------------------------------------------------------
# regional representation


def test_h_regional_unit_ball_is_zero():
    dom = DomainSpec(1, (Interval(-1.0, 1.0),))
    assert h_regional(2, [0.0], dom, dim=1) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0.3, 0.7])
def test_h_regional_small_ball_closed_form(m, r):
    dom = DomainSpec(1, (Interval(-r, r),))
    expect = omega(1) * (-2.0 * math.log(r)) ** m / (2.0 * m)
    assert h_regional(m, [0.0], dom, dim=1) == pytest.approx(expect, rel=1e-13)


def test_h_regional_disk_closed_form():
    r = 0.4
    dom = DomainSpec(2, (Disk(0.0, 0.0, r),))
    expect = omega(2) * (-2.0 * math.log(r)) ** 2 / 4.0
    assert h_regional(2, [0.0, 0.0], dom, dim=2) == pytest.approx(expect, rel=1e-12)


def _ray_h_by_quad(m, dom, x, theta, t_max=2.0, steps=600):
    """One ray's share of h_{m,Omega}: scipy quad of q_m t^(N-1) between bisected membership changes."""
    inside = lambda t: dom.contains(x + t * theta)
    ts = np.linspace(0.0, t_max, steps + 1)
    marks = {0.0, 1.0, t_max}
    for a, b in zip(ts[:-1], ts[1:]):
        fa = inside(a)
        if fa == inside(b):
            continue
        for _ in range(45):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if inside(mid) == fa else (a, mid)
        marks.add(0.5 * (a + b))
    marks = sorted(marks)
    q = lambda t: (-2.0 * math.log(t)) ** (m - 1) / t
    share = 0.0
    for a, b in zip(marks[:-1], marks[1:]):
        held = inside(0.5 * (a + b))
        if b <= 1.0 and not held:  # B1(x) \ Omega
            share += integrate.quad(q, a, b, epsabs=0.0, epsrel=1e-13)[0]
        elif a >= 1.0 and held:  # Omega \ B1(x)
            share -= integrate.quad(q, a, b, epsabs=0.0, epsrel=1e-13)[0]
    return share


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize(
    "pieces, x",
    [
        ((Interval(-1.5, 0.3), Interval(0.5, 1.8)), [0.1]),
        ((Rect(-0.2, -0.2, 0.0, 0.2), Rect(0.0, -0.2, 0.2, 0.2)), [-0.1, 0.1]),
    ],
    ids=["gapped-union", "touching-rectangles"],
)
def test_h_regional_matches_quad_along_each_ray_on_unions(m, pieces, x):
    # the membership along each ray is bisected from contains(), so touching pieces read as one segment
    dom = DomainSpec(len(x), pieces)
    x = np.array(x)
    if dom.dim == 1:
        thetas, weights = np.array([[1.0], [-1.0]]), np.ones(2)
    else:
        phi = 2.0 * math.pi * (np.arange(64) + 0.5) / 64
        thetas, weights = np.stack([np.cos(phi), np.sin(phi)], axis=1), np.full(64, 2.0 * math.pi / 64)
    expect = sum(wt * _ray_h_by_quad(m, dom, x, theta) for theta, wt in zip(thetas, weights))
    assert h_regional(m, x, dom, dim=dom.dim) == pytest.approx(expect, rel=1e-11, abs=1e-12)


def test_h_regional_rejects_points_outside_the_open_domain():
    dom = DomainSpec(1, (Interval(-1.0, 0.0), Interval(0.0, 0.5)))
    assert h_regional(1, [0.0], dom, dim=1) == pytest.approx(h_regional(1, [0.0], DomainSpec(1, (Interval(-1.0, 0.5),)), dim=1))
    for x in ([0.5], [0.7]):
        with pytest.raises(PreconditionError, match="outside the open domain"):
            h_regional(1, x, dom, dim=1)


def test_regional_equals_apply_k_within_budgets():
    u = gaussian_bump(dim=1, halfwidth=2.0, nodes=1024, width=0.5)
    rng = np.random.default_rng(11)
    doms = [
        DomainSpec(1, (Interval(-1.8, 1.9),)),
        DomainSpec(1, (Interval(-1.5, 0.3), Interval(0.5, 1.8))),
    ]
    for m in (1, 2):
        for dom in doms:
            for _ in range(3):
                x0 = float(rng.uniform(-1.2, 0.2))
                if not dom.contains([x0]):
                    continue
                ra = regional_repr(m, u, [x0], dom)
                values, bound, _ = apply_K_batch(m, u, [x0])
                assert abs(ra.value - values[0]) <= ra.truncation_bound + bound


def test_regional_outside_domain_rejected():
    u = gaussian_bump(dim=1, halfwidth=2.0, nodes=512, width=0.5)
    dom = DomainSpec(1, (Interval(-1.0, 1.0),))
    with pytest.raises(PreconditionError):
        regional_repr(1, u, [1.5], dom)


def test_regional_point_of_wrong_length_rejected():
    u = gaussian_bump(dim=1, halfwidth=2.0, nodes=512, width=0.5)
    dom = DomainSpec(1, (Interval(-1.0, 1.0),))
    with pytest.raises(PreconditionError, match="must match the grid dimension"):
        regional_repr(1, u, [0.1, 0.2], dom)


def test_regional_nested_point_rejected():
    # np.atleast_1d keeps the shape (1, 1), which passed the dimension check and failed in the domain
    u = gaussian_bump(dim=1, halfwidth=2.0, nodes=512, width=0.5)
    dom = DomainSpec(1, (Interval(-1.0, 1.0),))
    with pytest.raises(PreconditionError, match="must be one-dimensional"):
        regional_repr(1, u, [[0.1]], dom)


def test_regional_2d_disk_matches_apply_k():
    u = gaussian_bump(dim=2, halfwidth=1.5, nodes=96, width=0.4)
    dom = DomainSpec(2, (Disk(0.0, 0.0, 1.2),))
    ra = regional_repr(1, u, [0.2, -0.1], dom, n_angles=128)
    values, bound, _ = apply_K_batch(1, u, [0.2, -0.1], n_angles=128)
    assert ra.value == pytest.approx(values[0], abs=ra.truncation_bound + bound + 1e-6)


# ---------------------------------------------------------------------------
# lattice path: every node of a 1D grid at once (xs=None)


LATTICE_OPS = {
    "K2": lambda u, xs: apply_K_batch(2, u, xs)[0],
    "L1": lambda u, xs: apply_L_batch(1, u, xs)[0],
    "L2": lambda u, xs: apply_L_batch(2, u, xs)[0],
    "L3": lambda u, xs: apply_L_batch(3, u, xs)[0],
    "fraclap-0.1": lambda u, xs: frac_lap_batch(0.1, u, xs)[0],
    "fraclap-0.45": lambda u, xs: frac_lap_batch(0.45, u, xs)[0],
    "riesz-0.1": lambda u, xs: riesz_batch(0.1, u, xs)[0],
    "riesz-0.45": lambda u, xs: riesz_batch(0.45, u, xs)[0],
}


def _grid_1d(origin, h, values):
    vals = np.asarray(values, dtype=float)
    return GridFunction(1, (origin,), (h,), (vals.size,), vals, 1.0, estimate_holder_constant(vals, (h,), 1.0))


@pytest.fixture(scope="module")
def lattice_grids():
    return {
        "bump": gaussian_derivative_bump(dim=1, halfwidth=10.0, nodes=1024),
        # end values ~2e-3: nonzero, but below the Dini threshold
        "open-ends": gaussian_bump(dim=1, halfwidth=10.0, nodes=1024, width=4.0),
        # fewer than 4 nodes: the linear interpolant
        "three-nodes": _grid_1d(-0.5, 0.5, [0.2, 1.0, 0.3]),
    }


@pytest.mark.parametrize("grid", ["bump", "open-ends", "three-nodes"])
@pytest.mark.parametrize("op", list(LATTICE_OPS))
def test_lattice_matches_refined_pointwise(lattice_grids, monkeypatch, grid, op):
    # per-point values with 16 times the outer panels are the oracle;
    # the end nodes see a neighbour cell outside the box
    u = lattice_grids[grid]
    n = u.shape[0]
    lattice = LATTICE_OPS[op](u, None)
    idx = np.unique([0, 1, n // 3, n // 2 + 1, n - 2, n - 1])
    monkeypatch.setattr(pointwise, "OUTER_PANELS", 768)
    ref = LATTICE_OPS[op](u, u.axes()[0][idx][:, None])
    assert lattice.shape == (n,)
    assert np.max(np.abs(lattice[idx] - ref)) <= 1e-8 * np.max(np.abs(lattice))


def test_lattice_end_values_pass_the_dini_check(lattice_grids):
    u = lattice_grids["open-ends"]
    assert min(abs(u.values[0]), abs(u.values[-1])) > 1e-3
    assert _jump_positions(u)[1] == []


def test_lattice_keeps_the_bound_and_the_dini_refusal(bump):
    xs = bump.axes()[0][::512][:, None]
    assert apply_L_batch(2, bump, None)[1] == apply_L_batch(2, bump, xs)[1]
    assert riesz_batch(0.3, bump, None)[1] == riesz_batch(0.3, bump, xs)[1]
    with pytest.raises(PreconditionError, match="Dini"):
        apply_L_batch(1, _plateau(2.0, nodes=65), None)


def _sawtooth(dim, n):
    """1e-3 exp(-|x|^2) on odd nodes of [-20, 20)^dim, zero on even ones, declared Lipschitz with C = 1e-9.

    Every odd node jumps against the declared modulus where the Gaussian
    exceeds about 1e-7: 1724 jump midpoints on 8192 nodes in 1D.
    """
    h = 40.0 / n
    x = -20.0 + h * np.arange(n)
    r2 = x * x if dim == 1 else x[:, None] ** 2 + x[None, :] ** 2
    odd = np.arange(n) % 2 == 1 if dim == 1 else (np.arange(n)[:, None] + np.arange(n)[None, :]) % 2 == 1
    return GridFunction(dim, (-20.0,) * dim, (h,) * dim, (n,) * dim, np.where(odd, 1e-3 * np.exp(-r2), 0.0), 1.0, 1e-9)


@pytest.mark.parametrize("dim, n", [(1, 8192), (2, 128)])
def test_dini_clearance_memory_does_not_grow_with_points_times_jumps(dim, n):
    # an all-pairs distance array of points x jumps x dim floats would take
    # 113 MB in 1D (8192 x 1724) and over 200 MB in 2D
    u = _sawtooth(dim, n)
    jumps, planes = _jump_positions(u)
    xs = u.nodes().reshape(-1, dim)
    assert len(xs) * len(jumps) * dim * 8 > 100 * 2**20 and planes == []
    tracemalloc.start()
    try:
        pointwise._check_dini_clearance(u, xs, pointwise.INNER_CUT)  # nodes are h/2 from every midpoint
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("dim", [1, 2])
def test_dini_clearance_still_refuses_points_at_a_jump_or_a_nonzero_face(dim):
    u = _sawtooth(dim, 512 if dim == 1 else 64)
    jumps, _ = _jump_positions(u)
    cut = pointwise.INNER_CUT
    safe = u.nodes().reshape(-1, dim)[::7]
    for k in (0, len(jumps) // 2, len(jumps) - 1):
        xs = np.vstack([safe, jumps[k] + 0.5 * cut])
        with pytest.raises(PreconditionError, match="Dini"):
            pointwise._check_dini_clearance(u, xs, cut)
    pointwise._check_dini_clearance(u, safe, cut)
    # a nonzero value on the last node of axis 0 is a drop to the zero extension at that box face
    vals = u.values.copy()
    vals[-1] = 1e-3
    face = u.with_values(vals, const=u.holder_constant)
    assert (0, float(u.box_hi[0])) in _jump_positions(face)[1]
    near_face = safe[-1:].copy()
    near_face[0, 0] = u.box_hi[0] - 0.5 * cut
    with pytest.raises(PreconditionError, match="Dini"):
        pointwise._check_dini_clearance(face, np.vstack([safe, near_face]), cut)


def test_none_in_2d_means_every_node():
    u = gaussian_bump(dim=2, halfwidth=1.0, nodes=5, width=0.5)
    every, _, _ = apply_L_batch(1, u, None, n_angles=8)
    explicit, _, _ = apply_L_batch(1, u, u.nodes(), n_angles=8)
    assert np.array_equal(every, explicit)


@pytest.mark.parametrize("dim, nodes", [pytest.param(2, 5, id="5"), pytest.param(2, 7, id="7"), pytest.param(1, 41, id="1d")])
def test_radial_chunks_bound_memory_and_keep_values(monkeypatch, dim, nodes):
    # blocks of one point's rays: every node of a 2D grid, or 41 explicit
    # points on a 1D grid, runs one block per point; the values are those of
    # the default blocks bit for bit, and the traced peak over all points
    # stays near the peak of one block's points
    if dim == 2:
        u = gaussian_bump(dim=2, halfwidth=1.0, nodes=nodes, width=0.5)
        xs, rays = u.nodes(), 16
    else:
        u = gaussian_derivative_bump(dim=1, halfwidth=4.0, nodes=256, width=0.8)
        xs, rays = u.nodes()[np.linspace(3, 252, nodes).astype(int)], 2
    whole, _, _ = apply_L_batch(2, u, xs, n_angles=16)  # default blocks; builds the interpolant
    assert pointwise._RAY_BLOCK >= 2 * rays
    monkeypatch.setattr(pointwise, "_RAY_BLOCK", rays)
    blocks = []
    ray_box = pointwise.ray_box

    def spy(x, d, lo, hi):  # the radial pass finds its rays' box exits once per block
        blocks.append(x[0].size)
        return ray_box(x, d, lo, hi)

    monkeypatch.setattr(pointwise, "ray_box", spy)
    peaks = []
    for pts in (xs[:1], None if dim == 2 else xs):
        tracemalloc.start()
        try:
            blocked, _, _ = apply_L_batch(2, u, pts, n_angles=16)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(blocks) == 1 + len(xs) >= 5 and max(blocks) == 1
    assert peaks[1] <= 1.25 * peaks[0]
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("dim", [1, 2])
def test_one_point_values_equal_batched_values(dim):
    # the radial sums run along fixed axes, so a point's value does not
    # depend on how many other points share its batch
    u = gaussian_derivative_bump(dim=dim, halfwidth=4.0, nodes=256 if dim == 1 else 32, width=0.8)
    nodes = u.nodes()
    xs = nodes[np.linspace(3, len(nodes) - 4, 37 if dim == 1 else 8).astype(int)]
    for batch_op, p in [(apply_L_batch, 2), (riesz_batch, 0.3), (frac_lap_batch, 0.3)]:
        batched, _, _ = batch_op(p, u, xs, n_angles=16)
        single = np.array([batch_op(p, u, x, n_angles=16)[0][0] for x in xs])
        assert np.array_equal(single, batched), batch_op.__name__


# ---------------------------------------------------------------------------
# two-dimensional quadrature vs the spectral oracle


def test_2d_operators_match_spectral():
    u = gaussian_derivative_bump(dim=2, halfwidth=6.0, nodes=192, width=0.8)
    ax = u.axes()[0]
    sel = [96 + k for k in (-12, -5, 0, 7, 13)]
    xs = np.array([[ax[i], ax[j]] for i in sel for j in sel])
    refs = {("L", 1): apply_symbol(u, "log", 1),
            ("frac", 0.1): apply_symbol(u, "frac", 0.1),
            ("riesz", 0.1): apply_symbol(u, "riesz", 0.1)}
    for (kind, p), ref in refs.items():
        if kind == "L":
            vals, _, _ = apply_L_batch(p, u, xs, n_angles=96)
        elif kind == "frac":
            vals, _, _ = frac_lap_batch(p, u, xs, n_angles=96)
        else:
            vals, _, _ = riesz_batch(p, u, xs, n_angles=96)
        refv = np.array([ref.values[i, j] for i in sel for j in sel])
        rel = np.max(np.abs(vals - refv)) / np.max(np.abs(ref.values))
        assert rel < 1e-3, (kind, p, rel)


# ---------------------------------------------------------------------------
# the continuous operators on a Gaussian (mpmath oracle)


def _gaussian_oracle(x, s, m=0, dim=1):
    """(-Delta)^s e^(-|x|^2) = 4^s Gamma(N/2 + s) / Gamma(N/2) 1F1(N/2 + s; N/2; -|x|^2), exact.

    The Riesz potential Phi_s * e^(-|x|^2) is the same expression at -s, and
    L_m e^(-|x|^2) is its m-th s-derivative at s = 0, since the symbol of L_m
    is the m-th s-derivative (ln |xi|^2)^m of |xi|^(2s) there.
    """
    with mp.workdps(20):
        b = mp.mpf(dim) / 2
        return float(mp.diff(lambda t: 4 ** t * mp.gamma(b + t) / mp.gamma(b) * mp.hyp1f1(b + t, b, -mp.mpf(x) ** 2), s, m))


# each tolerance is at least twice the largest absolute error measured on gaussian_bump(dim=1)
# (4096 nodes on [-20, 20)): 3.8e-10, 7.5e-9, 8.6e-11, 9.2e-11, 1.7e-9, 2.5e-8, 3.4e-7
GAUSSIAN_CASES = {
    "fraclap-0.1": (lambda u, xs: frac_lap_batch(0.1, u, xs)[0], lambda x: _gaussian_oracle(x, 0.1), 8e-10),
    "fraclap-0.3": (lambda u, xs: frac_lap_batch(0.3, u, xs)[0], lambda x: _gaussian_oracle(x, 0.3), 1.5e-8),
    "riesz-0.1": (lambda u, xs: riesz_batch(0.1, u, xs)[0], lambda x: _gaussian_oracle(x, -0.1), 2e-10),
    "riesz-0.3": (lambda u, xs: riesz_batch(0.3, u, xs)[0], lambda x: _gaussian_oracle(x, -0.3), 2e-10),
    "L1": (lambda u, xs: apply_L_batch(1, u, xs)[0], lambda x: _gaussian_oracle(x, 0.0, 1), 3.5e-9),
    "L2": (lambda u, xs: apply_L_batch(2, u, xs)[0], lambda x: _gaussian_oracle(x, 0.0, 2), 6e-8),
    "L3": (lambda u, xs: apply_L_batch(3, u, xs)[0], lambda x: _gaussian_oracle(x, 0.0, 3), 7e-7),
}


@pytest.fixture(scope="module")
def gauss():
    return gaussian_bump(dim=1)


@pytest.mark.parametrize("case", list(GAUSSIAN_CASES))
def test_operators_on_a_gaussian_match_the_continuous_operator(gauss, case):
    # the lattice path (xs=None) at 41 nodes spread over the whole grid, box faces
    # included, and the per-point path at explicit off-node points
    op, oracle, tol = GAUSSIAN_CASES[case]
    ax = gauss.axes()[0]
    idx = np.linspace(0, ax.size - 1, 41).astype(int)
    lattice = op(gauss, None)[idx]
    assert np.max(np.abs(lattice - [oracle(x) for x in ax[idx]])) <= tol
    xs = np.array([0.0, 0.37, -1.3, 2.9, -5.5])
    assert np.max(np.abs(op(gauss, xs[:, None]) - [oracle(x) for x in xs])) <= tol


# each tolerance is at least twice the largest absolute error measured on
# gaussian_bump(dim=2, halfwidth=6.0, nodes=256) at the points of the test below:
# 2.3e-7, 2.9e-6, 6.9e-8, 7.4e-8, 1.2e-6, 1.5e-5 (the bicubic interpolant sets them)
GAUSSIAN_CASES_2D = {
    "fraclap-0.1": (lambda u, xs: frac_lap_batch(0.1, u, xs)[0], lambda r: _gaussian_oracle(r, 0.1, dim=2), 5e-7),
    "fraclap-0.3": (lambda u, xs: frac_lap_batch(0.3, u, xs)[0], lambda r: _gaussian_oracle(r, 0.3, dim=2), 6e-6),
    "riesz-0.1": (lambda u, xs: riesz_batch(0.1, u, xs)[0], lambda r: _gaussian_oracle(r, -0.1, dim=2), 1.5e-7),
    "riesz-0.3": (lambda u, xs: riesz_batch(0.3, u, xs)[0], lambda r: _gaussian_oracle(r, -0.3, dim=2), 1.5e-7),
    "L1": (lambda u, xs: apply_L_batch(1, u, xs)[0], lambda r: _gaussian_oracle(r, 0.0, 1, dim=2), 2.5e-6),
    "L2": (lambda u, xs: apply_L_batch(2, u, xs)[0], lambda r: _gaussian_oracle(r, 0.0, 2, dim=2), 3e-5),
}


@pytest.fixture(scope="module")
def gauss2d():
    return gaussian_bump(dim=2, halfwidth=6.0, nodes=256)


@pytest.mark.parametrize("case", list(GAUSSIAN_CASES_2D))
def test_2d_operators_on_a_gaussian_match_the_continuous_operator(gauss2d, case):
    # the per-point radial rule on the 2D tensor spline, at the centre, a node
    # and off-node points out to |x| = 3.1; the oracle shares no code with either
    op, oracle, tol = GAUSSIAN_CASES_2D[case]
    ax = gauss2d.axes()[0]
    xs = np.array([[0.0, 0.0], [0.37, -0.81], [ax[140], ax[100]], [-1.3, 0.9], [2.2, 1.7], [0.05, 3.1]])
    want = [oracle(r) for r in np.hypot(xs[:, 0], xs[:, 1])]
    assert np.max(np.abs(op(gauss2d, xs) - want)) <= tol


def test_l1_of_a_gaussian_at_the_origin_is_minus_euler_gamma(gauss):
    # 4^s Gamma(1/2 + s) / Gamma(1/2) has the s-derivative ln 4 + psi(1/2) = -gamma at 0
    assert _gaussian_oracle(0.0, 0.0, 1) == pytest.approx(-EULER_GAMMA, rel=1e-15)
    assert abs(apply_L_batch(1, gauss, np.array([[0.0]]))[0][0] + EULER_GAMMA) <= 3.5e-9


@pytest.mark.parametrize("op, sign", [(frac_lap_batch, 1.0), (riesz_batch, -1.0)], ids=["fraclap", "riesz"])
def test_order_expansion_holds_through_quadrature_alone(op, sign):
    # (-Delta)^(+-s) u = u + sum_(m<=n) (+-s)^m / m! L_m u + O(s^(n+1)), with
    # both sides from the lattice quadrature and no spectral code: the sup of
    # the remainder over the central half of the grid falls as s^(n+1)
    u = gaussian_bump(dim=1, halfwidth=8.0, nodes=1024)
    centre = slice(256, 768)
    L = [apply_L_batch(m, u, None)[0][centre] for m in (1, 2, 3)]
    ss = 2.0 ** -np.arange(5, 10)
    sups = np.empty((4, ss.size))
    for i, s in enumerate(ss):
        rest = op(s, u, None)[0][centre] - u.values[centre]
        sups[0, i] = np.max(np.abs(rest))
        for m in (1, 2, 3):
            rest = rest - (sign * s) ** m / math.factorial(m) * L[m - 1]
            sups[m, i] = np.max(np.abs(rest))
    slopes = [np.polyfit(np.log(ss), np.log(sup), 1)[0] for sup in sups]
    assert np.max(np.abs(np.array(slopes) - [1, 2, 3, 4])) <= 0.05, slopes


# ---------------------------------------------------------------------------
# weighted L1 norm


def test_weighted_norm_zero(bump):
    zero = bump.with_values(np.zeros(bump.shape), const=0.0)
    assert weighted_l1_norm(zero, 0.3, 2.0) == 0.0


def test_weighted_norm_box_indicator_log_two():
    n = 4097
    h = 1.0 / (n - 1)
    u = GridFunction(1, (0.0,), (h,), (n,), np.ones(n), 1.0, 0.0)
    got = weighted_l1_norm(u, 0.0, 1.0)
    assert got == pytest.approx(math.log(2.0), rel=1e-7)


def test_weighted_norm_monotone_in_t():
    # support where ln(e + |x|) >= 1 always holds; heavier log weight grows the norm
    u = gaussian_bump(dim=1, halfwidth=6.0, nodes=512, width=1.0)
    a = weighted_l1_norm(u, 0.2, 1.0)
    b = weighted_l1_norm(u, 0.2, 2.0)
    assert b >= a
