"""Radial kernels: closed forms vs adaptive quadrature, radii vs root structure."""

import math

import mpmath as mp
import numpy as np
from numpy.polynomial.polynomial import polyint, polyval
import pytest
from scipy import integrate

from loglap import PreconditionError
from loglap.coeffs import EULER_GAMMA, alpha_coeffs, omega
from loglap import kernels
from loglap.kernels import (
    _bisect_root,
    _poly_largest_positive_root,
    _tent_breaks,
    cell_pair_tent_integral,
    combined_kernel,
    incomplete_log_integral,
    log_moment,
    order_weights,
    radial_antiderivative,
    rect_pair_integral_2d,
)


def _pair_quadrature_oracle(n, A, B, lo=0.0, hi=1.0):
    """2D adaptive quadrature of the cell pair integral, split at the cutoff."""

    def inner(x):
        def f(y):
            t = abs(x - y)
            if not lo < t < hi:
                return 0.0
            return t ** -1.0 * (-2.0 * math.log(t)) ** (n - 1)

        # integration limits intersected with the kernel support around x
        pieces = []
        left = (max(B[0], x - hi), min(B[1], x - lo))
        right = (max(B[0], x + lo), min(B[1], x + hi))
        for piece in (left, right):
            if piece[1] > piece[0]:
                pieces.append(piece)
        return sum(integrate.quad(f, p0, p1, epsabs=1e-13, epsrel=1e-12, limit=200)[0] for p0, p1 in pieces)

    val, _ = integrate.quad(inner, A[0], A[1], epsabs=1e-12, epsrel=1e-11, limit=200)
    return val


# ---------------------------------------------------------------------------
# radial integrals


def _shell_integral(n, N, a, b):
    """int_{a<|z|<b} q_n(|z|) dz in R^N from the radial antiderivative of order_weights(n)."""
    w = order_weights(n)
    return omega(N) * (radial_antiderivative(w, b) - radial_antiderivative(w, a))


def test_tail_integral_closed_values():
    assert _shell_integral(1, 1, math.exp(-1), 1.0) == pytest.approx(2.0, rel=1e-14)
    assert _shell_integral(2, 2, math.exp(-1), 1.0) == pytest.approx(2 * math.pi, rel=1e-14)
    assert _shell_integral(2, 1, 1 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-20)


def test_outer_integral_closed_values():
    assert _shell_integral(1, 1, 1.0, math.e) == pytest.approx(2.0, rel=1e-14)
    assert _shell_integral(2, 1, 1.0, math.e) == pytest.approx(-2.0, rel=1e-14)
    assert _shell_integral(3, 1, 1.0, 1 + 1e-14) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_radial_integrals_match_quadrature(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 4))
        a = float(rng.uniform(0.02, 0.95))
        R = float(rng.uniform(1.05, 6.0))
        f = lambda t: t ** (N - 1.0) * t ** (-float(N)) * (-2.0 * math.log(t)) ** (n - 1)
        ref_in = omega(N) * integrate.quad(f, a, 1.0, epsabs=1e-14, epsrel=1e-13)[0]
        ref_out = omega(N) * integrate.quad(f, 1.0, R, epsabs=1e-14, epsrel=1e-13)[0]
        assert _shell_integral(n, N, a, 1.0) == pytest.approx(ref_in, rel=1e-10)
        assert _shell_integral(n, N, 1.0, R) == pytest.approx(ref_out, rel=1e-10, abs=1e-13)


def test_radial_antiderivative_differentiates_back():
    ts = np.linspace(0.1, 2.5, 40)
    h = 1e-6
    for n in (1, 2, 3):
        w = order_weights(n)
        num = (radial_antiderivative(w, ts + h) - radial_antiderivative(w, ts - h)) / (2 * h)
        assert np.allclose(num, (-2 * np.log(ts)) ** (n - 1) / ts, rtol=1e-7, atol=1e-7)


def test_weight_vectors_are_sums_of_unit_orders():
    w = alpha_coeffs(3, 1).alpha[1:]
    units = [order_weights(j) for j in (1, 2, 3)]
    ts = np.linspace(0.05, 2.0, 9)

    def check(f):
        terms = [wj * np.asarray(f(u)) for wj, u in zip(w, units)]
        assert np.max(np.abs(f(w) - sum(terms))) <= 1e-13 * np.max(sum(np.abs(t) for t in terms))

    check(lambda v: radial_antiderivative(v, ts))
    check(lambda v: log_moment(v, ts))
    check(lambda v: log_moment(v, ts, p=1))
    # a touching pair (closed-form pieces) and two far pairs (Gauss pieces), inside and beyond the unit radius
    a1, a2, b1, b2 = np.array([[0.3, 0.5, 1.0], [0.32, 0.52, 1.03], [0.0, 0.0, 0.0], [0.3, 0.02, 0.04]])
    check(lambda v: cell_pair_tent_integral(v, a1, a2, b1, b2, 0.0, 1.0))
    check(lambda v: cell_pair_tent_integral(v, a1, a2, b1, b2, 1.0, np.inf))
    h = np.array([0.05, 0.2])
    check(lambda v: cell_pair_tent_integral(v, 0.0, h, 0.0, h, 0.0, 0.5))
    check(lambda v: rect_pair_integral_2d(v, (0.0, 0.0, 0.05, 0.03), (0.0, 0.0, 0.05, 0.03), 0.0, 0.5, order=24))
    check(lambda v: rect_pair_integral_2d(v, (0.0, 0.0, 0.04, 0.04), (0.04, 0.0, 0.08, 0.04)))
    # a scalar weight c is c q_1
    assert np.array_equal(radial_antiderivative(2.5, ts), 2.5 * radial_antiderivative(order_weights(1), ts))
    with pytest.raises(PreconditionError):
        order_weights(0)


def test_incomplete_log_integral_oracle():
    for k in (0, 1, 2, 3):
        for h in (0.05, 0.3, 0.9, 1.0, 1.7):
            ref = integrate.quad(lambda r: (-math.log(r)) ** k, 0, h, epsabs=1e-14)[0]
            assert incomplete_log_integral(k, h) == pytest.approx(ref, rel=1e-11, abs=1e-14)
    assert incomplete_log_integral(3, 0.0) == 0.0


# ---------------------------------------------------------------------------
# combined kernel radii


def test_radii_first_order_constant_kernel():
    ck = combined_kernel(alpha_coeffs(1, 1))
    assert ck.r0 == 1.0 and ck.rm == 1.0
    ck2 = combined_kernel(alpha_coeffs(1, 2))
    assert ck2.r0 == 1.0 and ck2.rm == 1.0


def test_radii_second_order_dim_one():
    ck = combined_kernel(alpha_coeffs(2, 1))
    assert ck.r0 == pytest.approx(math.exp(-EULER_GAMMA), rel=1e-12)
    assert ck.rm == pytest.approx(ck.r0)


def test_radii_second_order_dim_two_no_root():
    ck = combined_kernel(alpha_coeffs(2, 2))
    assert ck.r0 == 1.0 and ck.rm == 1.0


def _mp_radius(p):
    # exp(-tau/2) for the largest real root tau of p in (0, 200], capped at one
    roots = mp.polyroots(list(reversed(p)), maxsteps=200, extraprec=200)
    real = [mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -25 and 0 < mp.re(r) <= 200]
    return min(mp.mpf(1), mp.exp(-max(real) / 2)) if real else mp.mpf(1)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("m", range(2, 9))
def test_radii_match_mpmath_roots(m, N):
    ck = combined_kernel(alpha_coeffs(m, N))
    with mp.workdps(40):
        p = [mp.mpf(c) for c in ck.poly]
        r0 = _mp_radius(p)
        rm = min(r0, _mp_radius([k * c for k, c in enumerate(p)][1:]))
    assert ck.r0 == pytest.approx(float(r0), rel=1e-14)
    assert ck.rm == pytest.approx(float(rm), rel=1e-14)


@pytest.mark.parametrize("m,N", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_kernel_positive_and_monotone_inside_radii(m, N):
    led = alpha_coeffs(m, N)
    ck = combined_kernel(led)
    h = lambda t: polyval(-2.0 * np.log(t), ck.poly)  # h_m(t) = p(tau) from its weight vector
    ts = np.linspace(1e-9, ck.r0 * (1 - 1e-6), 1000)
    vals = h(ts)
    assert np.all(vals > 0.0)
    tm = np.linspace(1e-9, ck.rm * (1 - 1e-6), 1000)
    vm = h(tm)
    assert np.all(np.diff(vm) <= 1e-12 * np.max(np.abs(vm)))
    if ck.r0 < 1.0:
        scale = max(1.0, float(np.max(np.abs(led.alpha))))
        assert abs(float(h(ck.r0))) <= 1e-8 * scale


def test_near_double_root_without_a_sign_change_keeps_the_companion_value(monkeypatch):
    # (tau - 5)(tau - 5.0001): the bracket of +-5e-3 around 5.0001 holds both roots, so p > 0 at either end
    c = np.polynomial.polynomial.polyfromroots([5.0, 5.0001])
    lo, hi = 5.0001 - 5.0001e-3, 5.0001 + 5.0001e-3
    assert polyval(lo, c) > 0.0 and polyval(hi, c) > 0.0
    companion = max(r.real for r in np.polynomial.Polynomial(c).roots())

    def no_bisection(*args):
        raise AssertionError("bisection ran without a sign change")

    monkeypatch.setattr(kernels, "_bisect_root", no_bisection)
    assert _poly_largest_positive_root(c) == companion


def test_bisection_ends_on_adjacent_floats():
    # tau^2 - 2: no float is a root, so the bracket shrinks until its midpoint rounds to an endpoint
    calls = []

    def p(x):
        calls.append(x)
        return x * x - 2.0

    root = _bisect_root(p, 1.0, 2.0)
    assert len(calls) <= 2 + 64
    assert abs(root - math.sqrt(2.0)) <= np.spacing(math.sqrt(2.0))
    # a bracket of two adjacent floats ends at once, on the one with the smaller |p|
    lo = math.sqrt(2.0)
    hi = float(np.nextafter(lo, 3.0))
    if p(lo) * p(hi) >= 0.0:
        lo, hi = float(np.nextafter(lo, 0.0)), lo
    calls.clear()
    assert _bisect_root(p, lo, hi) == min((lo, hi), key=lambda x: abs(x * x - 2.0))
    assert len(calls) == 2  # the two ends: their midpoint rounds onto one of them


def test_bisection_stops_on_an_exact_zero():
    assert _bisect_root(lambda x: x - 3.0, 2.0, 5.0) == 3.0  # 3.5, 2.75, 3.125, 2.9375, ... reaches 3 exactly
    assert _bisect_root(lambda x: 3.0 - x, 1.0, 5.0) == 3.0  # the first midpoint is the root


def test_compensated_horner_keeps_what_plain_horner_loses():
    # (tau - 1)^5 expanded, at 1 + 2^-12: the value 2^-60 is below plain Horner's rounding, which gives 0
    c = np.polynomial.polynomial.polyfromroots([1.0] * 5)
    tau = 1.0 + 2.0 ** -12
    assert polyval(tau, c) == 0.0
    assert kernels._compensated_horner(tuple(c.tolist()), tau) == 2.0 ** -60


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("m", range(2, 9))
def test_polished_roots_are_correctly_rounded(m, N):
    # tau* of p and tau** of p' lie within half an ulp of the exact roots of their float coefficients
    p = np.array(alpha_coeffs(m, N).alpha[1:], dtype=float)
    for c in (p, np.polynomial.polynomial.polyder(p)):
        tau = _poly_largest_positive_root(c)
        if tau is None:
            continue
        with mp.workdps(60):
            exact = mp.findroot(lambda x: mp.polyval([mp.mpf(float(a)) for a in reversed(c)], x), mp.mpf(tau))
            assert abs(mp.mpf(tau) - exact) <= np.spacing(tau) / 2


# ---------------------------------------------------------------------------
# 1D cell pair integrals


def test_adjacent_cells_log_two():
    val = cell_pair_tent_integral(order_weights(1), 0.0, 0.25, -0.25, 0.0, 0.0, 1.0)
    assert val == pytest.approx(math.log(2) / 2, rel=1e-13)


def test_far_cells_vanish():
    assert cell_pair_tent_integral(order_weights(2), 1.5, 1.8, 0.0, 0.4, 0.0, 1.0) == 0.0


def test_pair_symmetry_and_sign():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w1, w2 = rng.uniform(0.05, 0.4, 2)
        gap = rng.uniform(0.0, 1.5)
        A = (gap, gap + w1)
        B = (-w2, 0.0)
        for n in (1, 3):
            w = order_weights(n)
            ab = cell_pair_tent_integral(w, *A, *B, 0.0, 1.0)
            ba = cell_pair_tent_integral(w, *B, *A, 0.0, 1.0)
            assert ab == pytest.approx(ba, rel=1e-13, abs=1e-300)
            assert ab >= 0.0  # odd n: kernel nonnegative


@pytest.mark.parametrize("seed", range(4))
def test_pair_integral_matches_2d_quadrature(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        w1, w2 = rng.uniform(0.05, 0.45, 2)
        gap = rng.uniform(0.0, 2.0)
        A = (gap, gap + w1)
        B = (-w2, 0.0)
        val = cell_pair_tent_integral(order_weights(n), *A, *B, 0.0, 1.0)
        ref = _pair_quadrature_oracle(n, A, B)
        if abs(ref) > 1e-12:
            assert val == pytest.approx(ref, rel=1e-8)
        else:
            assert val == pytest.approx(ref, abs=1e-11)


def test_self_energy_matches_quadrature():
    for n in (1, 2, 3):
        for h in (0.1, 0.3):
            def inner(x):
                f = lambda t: t ** -1.0 * (-2.0 * math.log(t)) ** (n - 1)
                return (
                    integrate.quad(f, x, 1.0, epsabs=1e-13)[0]
                    + integrate.quad(f, h - x, 1.0, epsabs=1e-13)[0]
                )

            ref = integrate.quad(inner, 0.0, h, epsabs=1e-12, limit=200)[0]
            assert cell_pair_tent_integral(order_weights(n), 0.0, h, 0.0, h, 0.0, 1.0) == pytest.approx(ref, rel=1e-9)


def test_self_energy_with_smaller_cutoff():
    n, h, r0 = 2, 0.1, 0.5

    def inner(x):
        f = lambda t: t ** -1.0 * (-2.0 * math.log(t)) ** (n - 1)
        return (
            integrate.quad(f, x, r0, epsabs=1e-13)[0]
            + integrate.quad(f, h - x, r0, epsabs=1e-13)[0]
        )

    ref = integrate.quad(inner, 0.0, h, epsabs=1e-12, limit=200)[0]
    assert cell_pair_tent_integral(order_weights(n), 0.0, h, 0.0, h, 0.0, r0) == pytest.approx(ref, rel=1e-9)


def test_incomplete_log_t_integral_oracle():
    from loglap.kernels import incomplete_log_integral

    for k in (0, 1, 2, 3):
        for h in (0.05, 0.3, 0.9, 1.3):
            ref = float(mp.quad(lambda r: r * (-mp.log(r)) ** k, [0, h]))
            assert incomplete_log_integral(k, h, p=1) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def _rect_pair_mpmath_oracle(n, A, B):
    """int over z = x - y of ell_x(z1) ell_y(z2) q_n(|z|) in 2D, split at the tent breakpoints."""
    ax0, ay0, ax1, ay1 = map(mp.mpf, A)
    bx0, by0, bx1, by1 = map(mp.mpf, B)

    def tent(z, a0, a1, b0, b1):
        return max(min(a1, b1 + z) - max(a0, b0 + z), 0)

    def f(z1, z2):
        r2 = z1 * z1 + z2 * z2
        if r2 == 0:
            return mp.mpf(0)
        return tent(z1, ax0, ax1, bx0, bx1) * tent(z2, ay0, ay1, by0, by1) * (-mp.log(r2)) ** (n - 1) / r2

    zx = sorted({ax0 - bx1, ax0 - bx0, ax1 - bx1, ax1 - bx0})
    zy = sorted({ay0 - by1, ay0 - by0, ay1 - by1, ay1 - by0})
    with mp.workdps(15):
        return float(mp.quad(f, zx, zy))


@pytest.mark.parametrize("B", [(0.04, 0.0, 0.08, 0.04), (0.04, 0.04, 0.08, 0.08)], ids=["edge", "corner"])
def test_rect_pair_integral_2d_touching_pairs_match_mpmath(B):
    A = (0.0, 0.0, 0.04, 0.04)
    assert rect_pair_integral_2d(order_weights(2), A, B) == pytest.approx(_rect_pair_mpmath_oracle(2, A, B), rel=1e-12)


def test_tent_breaks_merge_rounding_twins_only():
    # 0 - 0.05 and 0.025 - 0.075 are one kink, apart by rounding (-0.05 vs -0.049999999999999996)
    assert _tent_breaks(0.0, 0.025, 0.05, 0.075) == [-0.075, -0.05, -0.025]
    assert len(_tent_breaks(0.0, 0.025, 0.05, 0.075 + 1e-9)) == 4  # unequal sides: two kinks


def test_rect_pair_integral_2d_finite_on_lattice_offsets():
    h = 0.04
    A = (0.0, 0.0, h, h)
    offsets = [(i, j) for i in range(-9, 10) for j in range(-9, 10) if (i, j) != (0, 0)]
    vals = [rect_pair_integral_2d(order_weights(2), A, (i * h, j * h, (i + 1) * h, (j + 1) * h)) for i, j in offsets]
    assert len(vals) == 360 and all(math.isfinite(v) and v > 0.0 for v in vals)


def test_cell_self_energy_2d_matches_adaptive_oracle():
    def oracle(n, a, b, cutoff):
        # int over the quarter difference plane of q_n against the overlap deficit
        def fr(t, phi):
            c, s = math.cos(phi), math.sin(phi)
            w = a * b - max(a - t * c, 0.0) * max(b - t * s, 0.0)
            return t ** -1.0 * (-2.0 * math.log(t)) ** (n - 1) * w

        def inner(phi):
            return integrate.quad(fr, 1e-14, cutoff, args=(phi,), epsabs=1e-13, limit=200)[0]

        return 4.0 * integrate.quad(inner, 0.0, math.pi / 2.0, epsabs=1e-11, limit=200)[0]

    for n, a, b, cutoff in ((1, 0.05, 0.05, 1.0), (2, 0.05, 0.03, 1.0), (1, 0.04, 0.07, 0.5)):
        got = rect_pair_integral_2d(order_weights(n), (0.0, 0.0, a, b), (0.0, 0.0, a, b), 0.0, cutoff, order=24)
        assert got == pytest.approx(oracle(n, a, b, cutoff), rel=1e-8)


def test_identical_cells_return_self_energy():
    # the closed form int_0^h P(-2 ln t) dt - h P(-2 ln cutoff) with P' = p, P(0) = 0; cutoff 1 drops its second term
    assert cell_pair_tent_integral(order_weights(2), 0.0, 0.2, 0.0, 0.2, 0.0, 1.0) == pytest.approx(
        float(log_moment(polyint(order_weights(2)), 0.2)), rel=0.0
    )


def test_partial_overlap_rejected():
    with pytest.raises(PreconditionError):
        cell_pair_tent_integral(order_weights(1), 0.0, 0.3, 0.2, 0.5, 0.0, 1.0)


def test_self_pairs_need_a_finite_cutoff_and_leave_other_rows_alone():
    w = order_weights(2)
    with pytest.raises(PreconditionError):
        cell_pair_tent_integral(w, 0.0, 0.2, 0.0, 0.2, 1.0, np.inf)
    with pytest.raises(PreconditionError):
        rect_pair_integral_2d(w, (0.0, 0.0, 0.1, 0.1), (0.0, 0.0, 0.1, 0.1), 1.0, np.inf)
    with pytest.raises(PreconditionError):  # partial overlap, with or without a self pair in the batch
        cell_pair_tent_integral(w, np.array([0.0, 0.0]), 0.3, np.array([0.0, 0.2]), np.array([0.3, 0.5]), 0.0, 1.0)
    with pytest.raises(PreconditionError):
        rect_pair_integral_2d(w, (0.0, 0.0, 0.1, 0.1), (0.05, 0.0, 0.15, 0.1))
    # a self row in a batch does not change the other rows' arithmetic
    a1, a2, b1, b2 = np.array([[0.0, 0.3, 1.0], [0.2, 0.5, 1.03], [0.0, 0.0, 0.0], [0.2, 0.02, 0.04]])
    batch = cell_pair_tent_integral(w, a1, a2, b1, b2, 0.0, 1.0)
    for k in (1, 2):
        assert batch[k] == cell_pair_tent_integral(w, a1[k], a2[k], b1[k], b2[k], 0.0, 1.0)
    assert batch[0] == cell_pair_tent_integral(w, 0.0, 0.2, 0.0, 0.2, 0.0, 1.0)
