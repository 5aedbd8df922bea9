"""Radial kernels as weight vectors, their closed-form integrals, and positivity radii.

The order-n kernel is q_n(t) = t^(-N) (-2 ln t)^(n-1); restricted inside the
unit ball it is the difference kernel k_n, outside it is the convolution
kernel j_n.  Every caller passes a kernel t^(-N) p(tau), tau = -2 ln t, as
the vector w of p's coefficients: order_weights(n) for q_n, ledger.alpha[1:]
(CombinedKernel.poly) for the combined kernel of an order-m ledger,
h_m(t) = sum_{j=1..m} alpha_j (-2 ln t)^(j-1), and a scalar c for c q_1
(numpy's convention, so an order n passed as w means n q_1).  Radial
integrals reduce to the antiderivative -P(tau)/2 of p(tau)/t (P' = p,
P(0) = 0) and to the moments sum_k w_k 2^k G_k(h) of the finite
(incomplete-Gamma) sums

    G_k(h) = int_0^h t^j (-ln t)^k dt = h^(j+1) sum_{i<=k} (k!/i!) (-ln h)^i / (j+1)^(k-i+1)

(j = 0 for 1D cells, j = 1 for 2D boxes).  A cell pair integrates the
kernel against its overlap profile ov in one closed form per dimension
(cell_pair_tent_integral, rect_pair_integral_2d); a cell paired with itself
gives its self-energy int_C int_{B_cut(x) setminus C}, with the profile
|C| - ov.  For h_m, p has positive leading coefficient; its positivity
radius r0 and monotonicity radius rm are located from the largest positive
roots of p and p'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.optimize import brentq

from .coeffs import CoeffLedger
from .errors import PreconditionError
from .quadrature import angle_rule, panel_rule

_ROOT_TAU_MAX = 200.0  # roots beyond tau=200 mean t < e^-100: numerically zero


def order_weights(n: int) -> tuple[float, ...]:
    """Weight vector of the single-order kernel q_n."""
    if n < 1:
        raise PreconditionError("kernel order must be >= 1")
    return (0.0,) * (n - 1) + (1.0,)


def radial_antiderivative(w, t) -> float | np.ndarray:
    """Antiderivative of p(tau)/t with tau = -2 ln t, namely -P(tau)/2 with P' = p, P(0) = 0."""
    t = np.asarray(t, dtype=float)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    P = np.append(0.0, w / np.arange(1, w.size + 1))  # polyint(w), without its per-call overhead
    out = -0.5 * polyval(-2.0 * np.log(t), P)
    return float(out) if out.ndim == 0 else out


def _poly_largest_positive_root(coeffs: np.ndarray) -> float | None:
    """Largest real root of sum_k coeffs[k] tau^k in (0, _ROOT_TAU_MAX], or None.

    Companion-matrix roots refined by Brent's method whenever a sign change
    brackets the root; near-double roots keep the polished companion value.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), trim="b")
    if c.size == 0:
        raise PreconditionError("zero polynomial has no root structure")
    if c.size == 1:
        return None
    poly = np.polynomial.Polynomial(c)
    roots = poly.roots()
    scale = max(1.0, float(np.max(np.abs(c))))
    real = [float(r.real) for r in roots if abs(r.imag) <= 1e-8 * max(1.0, abs(r))]
    real = [r for r in real if 0.0 < r <= _ROOT_TAU_MAX]
    if not real:
        return None
    best = max(real)
    # polish on a bracket around the companion estimate
    lo, hi = best - 1e-3 * max(1.0, best), best + 1e-3 * max(1.0, best)
    if poly(lo) * poly(hi) < 0.0:
        best = brentq(poly, lo, hi, xtol=1e-300)  # tiny xtol: stop on brentq's relative tolerance, 4 eps
    if abs(poly(best)) > 1e-6 * scale * max(1.0, best ** (c.size - 1)):
        return None  # spurious companion artifact, no actual crossing
    return best


@dataclass(frozen=True)
class CombinedKernel:
    """h_m(t) = sum alpha_j (-2 ln t)^(j-1) with its radii r0 (positivity) and rm."""

    poly: tuple[float, ...]  # p(tau) coefficients, tau = -2 ln t
    r0: float
    rm: float


def combined_kernel(ledger: CoeffLedger) -> CombinedKernel:
    """Positivity radius r0 and monotonicity radius rm of the combined kernel.

    r0 = min(1, exp(-tau*/2)) with tau* the largest positive root of p;
    rm = min(r0, exp(-tau**/2)) with tau** the largest positive root of p'.
    Constant kernels (m = 1) count as non-increasing, so r0 = rm = 1.
    """
    p = np.array(ledger.alpha[1:], dtype=float)
    if not np.any(p):
        raise PreconditionError("combined kernel polynomial vanishes identically")
    tau_pos = _poly_largest_positive_root(p)
    r0 = 1.0 if tau_pos is None else min(1.0, math.exp(-tau_pos / 2.0))
    dp = np.polynomial.polynomial.polyder(p)
    if dp.size == 0 or not np.any(dp):
        rm = r0
    else:
        tau_mono = _poly_largest_positive_root(dp)
        rm = r0 if tau_mono is None else min(r0, math.exp(-tau_mono / 2.0))
    return CombinedKernel(poly=tuple(p), r0=r0, rm=rm)


def incomplete_log_integral(k: int, h, p: int = 0) -> float | np.ndarray:
    """int_0^h t^p (-ln t)^k dt = h^(p+1) sum_{i<=k} (k!/i!) (-ln h)^i / (p+1)^(k-i+1) (h >= 0)."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0):
        raise PreconditionError("upper limit must be nonnegative")
    L = np.where(h > 0.0, -np.log(np.where(h > 0.0, h, 1.0)), 0.0)
    acc = np.zeros_like(L)
    kfac = math.factorial(k)
    for i in range(k + 1):
        acc += (kfac / math.factorial(i)) * L ** i / (p + 1) ** (k - i + 1)
    out = np.where(h > 0.0, h ** (p + 1) * acc, 0.0)
    return float(out) if out.ndim == 0 else out


def log_moment(w, h, p: int = 0) -> float | np.ndarray:
    """int_0^h t^p sum_k w_k (-2 ln t)^k dt = sum_k w_k 2^k G_k(h)  (h >= 0)."""
    return sum(wk * 2.0 ** k * incomplete_log_integral(k, h, p) for k, wk in enumerate(np.atleast_1d(w)) if wk)


def _profile_integral(w, ta, tb, alpha, beta, gamma) -> np.ndarray:
    """int_ta^tb (alpha + beta t + gamma t^2) p(-2 ln t) dt / t in closed form.

    alpha [A] + beta [M0] + gamma [M1] over [ta, tb], with A the radial
    antiderivative and M0, M1 the log moments with p = 0 and p = 1.  A piece
    from ta = 0 must have alpha = 0 (it would diverge), and its alpha part
    is dropped.  Needs tb > 0.  A coefficient passed as the scalar 0 skips
    its closed form.
    """
    ta = np.asarray(ta, dtype=float)
    out = 0.0
    if np.ndim(alpha) or alpha:
        out = alpha * (radial_antiderivative(w, tb) - radial_antiderivative(w, np.where(ta > 0.0, ta, tb)))
    for p, coef in ((0, beta), (1, gamma)):
        if np.ndim(coef) or coef:
            out = out + coef * (log_moment(w, tb, p) - log_moment(w, ta, p))
    return out


def _linear_weighted_piece(w, g, su, sv, e, d, lo: float, hi: float) -> np.ndarray:
    """int ell(t) t^(-1) p(-2 ln t) dt over t = g + s, su <= s <= sv, clipped to [lo, hi].

    The profile is ell = e + d (s - su), linear in the offset s from the
    anchor g.  The piece's width and its profile at the start are formed in
    s, so rounding of the anchor only moves the piece, it does not reshape
    it.  As ell(t) = c + d t, the piece is a profile integral; pieces with
    c = 0 tolerate a start at t = 0.  On a piece far from the origin
    (width <= u/4 at start u) its two parts are about t (v - u) and cancel
    to a result of about (v - u)^2, so it is integrated by an 8-point Gauss
    rule instead, whose error there is far below rounding.
    """
    g = np.asarray(g, dtype=float)
    s0 = np.maximum(su, lo - g)
    s1 = np.minimum(sv, hi - g)
    g, d, s0, s1 = np.broadcast_arrays(g, np.asarray(d, dtype=float), s0, s1)
    live = s1 > s0
    u, width = g + s0, s1 - s0
    e0 = e + d * (s0 - su)  # profile at the clipped start
    far = live & (u > 0.0) & (width <= 0.25 * u)
    near = live & ~far
    out = np.zeros(u.shape)
    un, dn = u[near], d[near]
    out[near] = _profile_integral(w, un, un + width[near], e0[near] - dn * un, dn, 0.0)
    uf = u[far]
    s, sw = panel_rule(np.stack([np.zeros_like(uf), width[far]], axis=-1), 8)  # offsets from u
    t = uf[:, None] + s
    out[far] = np.sum((e0[far][:, None] + d[far][:, None] * s) / t * polyval(-2.0 * np.log(t), w) * sw, axis=-1)
    return out


def cell_pair_tent_integral(w, a1, a2, b1, b2, lo: float, hi: float) -> np.ndarray:
    """int_A int_B p(-2 ln|x-y|)/|x-y| 1_{lo<|x-y|<hi} dy dx for disjoint 1D cells.

    Written as int ell(t) p(-2 ln t)/t dt with the trapezoidal overlap profile
    ell of the two cells, A right of B.  Its breakpoints are D -+ (wa + wb)/2
    and D -+ |wa - wb|/2 around the centre distance D, formed as the gap
    g = D - (wa + wb)/2 plus 0, min(wa, wb), max(wa, wb) and wa + wb, so the
    profile's shape comes from the widths alone and touching cells start at
    exactly t = 0.  Each linear piece integrates in closed form.  Cells may
    touch at an endpoint but must not overlap.

    A cell paired with itself gives its self-energy int_A int_{B_hi(x) setminus A}
    (with lo < |x-y|), profile min(t, h) on both sides: twice a rising piece
    on (0, h) and a flat one on (h, hi), so hi must be finite.
    """
    a1 = np.asarray(a1, dtype=float)
    same = (a1 == b1) & (np.asarray(a2) == b2)
    if np.any(same) and not math.isfinite(hi):
        raise PreconditionError("a cell's self-energy needs a finite cutoff")
    gap_ab = a1 - np.asarray(b2, dtype=float)
    gap_ba = np.asarray(b1, dtype=float) - np.asarray(a2, dtype=float)
    if np.any((np.maximum(gap_ab, gap_ba) < -1e-14) & ~same):
        raise PreconditionError("cells overlap; pair integral defined for disjoint cells only")
    gap = np.maximum(np.maximum(gap_ab, gap_ba), 0.0)  # 0 for a cell with itself
    wa = np.asarray(a2, dtype=float) - a1
    wb = np.asarray(b2, dtype=float) - np.asarray(b1, dtype=float)
    small, big = np.minimum(wa, wb), np.where(same, hi, np.maximum(wa, wb))  # a cell with itself: flat up to hi, no falling piece
    total = _linear_weighted_piece(w, gap, 0.0, small, 0.0, 1.0, lo, hi)
    total = total + _linear_weighted_piece(w, gap, small, big, small, 0.0, lo, hi)
    total = total + _linear_weighted_piece(w, gap, big, wa + wb, small, -1.0, lo, hi)
    return np.where(same, 2.0 * total, total)


def _overlap_1d(z, a1, a2, b1, b2):
    return np.maximum(np.minimum(a2, b2 + z) - np.maximum(a1, b1 + z), 0.0)


def _tent_breaks(a0, a1, b0, b1) -> list[float]:
    """Sorted kinks a0 - b1, a0 - b0, a1 - b1, a1 - b0 of the overlap tent _overlap_1d.

    Kinks closer than 1e-12 of the longer side are rounding twins of one
    kink (a0 - b0 and a1 - b1 for equal sides at offset coordinates), so the
    smallest of them stands for all.
    """
    tol = 1e-12 * max(a1 - a0, b1 - b0)
    out = []
    for v in sorted((a0 - b1, a0 - b0, a1 - b1, a1 - b0)):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


def rect_pair_integral_2d(w, A, B, lo: float = 0.0, hi: float = 1.0, order: int = 12) -> float:
    """int_A int_B p(-2 ln|x-y|)/|x-y|^2 1_{lo<|x-y|<hi} dy dx for disjoint 2D boxes.

    In z = x - y the weight is the separable overlap product
    ell_x(z1) ell_y(z2); along each polar ray that product is piecewise
    quadratic in the radius with kinks at the tent breakpoints, so every
    radial piece is a closed form and only a piecewise-smooth angular
    integral remains.  The angular rule splits at all candidate kink
    directions (breakpoint corners, clip-circle crossings, axes).

    A box paired with itself gives its self-energy int_A int_{B_hi(x) setminus A}
    (with lo < |x-y|), weight |A| - ell_x ell_y, so hi must be finite.
    """
    ax0, ay0, ax1, ay1 = A[:4]
    bx0, by0, bx1, by1 = B[:4]
    same = (ax0, ay0, ax1, ay1) == (bx0, by0, bx1, by1)
    if same and not math.isfinite(hi):
        raise PreconditionError("a box's self-energy needs a finite cutoff")
    breaks_x = _tent_breaks(ax0, ax1, bx0, bx1)
    breaks_y = _tent_breaks(ay0, ay1, by0, by1)
    if lo <= 0.0 and not same and _overlap_1d(0.0, ax0, ax1, bx0, bx1) * _overlap_1d(0.0, ay0, ay1, by0, by1) > 1e-14:
        raise PreconditionError("overlapping boxes diverge under the singular kernel")

    # kinks: the breakpoint grid (its origin adds nothing), the axes, the clip circles' crossings
    kx = [bx for _ in breaks_y for bx in breaks_x] + [1.0, 0.0, -1.0, 0.0]
    ky = [by for by in breaks_y for _ in breaks_x] + [0.0, 1.0, 0.0, -1.0]
    for r in (lo, hi):
        if 0.0 < r < math.inf:
            for bx in (b for b in breaks_x if abs(b) <= r):
                h = math.sqrt((r - bx) * (r + bx))
                kx, ky = kx + [bx, bx], ky + [h, -h]
            for by in (b for b in breaks_y if abs(b) <= r):
                h = math.sqrt((r - by) * (r + by))
                kx, ky = kx + [h, -h], ky + [by, by]
    phi, wphi = angle_rule(np.array(kx) + 0.0, np.array(ky) + 0.0, order)  # + 0.0 turns -0.0 into 0.0
    c, s = np.cos(phi), np.sin(phi)

    # positive radial crossings of all tent breakpoints, clipped to [lo, hi]
    cross = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for brk, d in [(b, c) for b in breaks_x] + [(b, s) for b in breaks_y]:
            t = brk / d
            cross.append(np.where(np.isfinite(t) & (t > 0.0), t, lo))
    hi_eff = np.full_like(phi, hi)
    if not math.isfinite(hi):
        # support of the tent product ends at the largest finite crossing
        hi_eff = np.maximum.reduce([np.where(cr > lo, cr, lo) for cr in cross])
    grid = np.stack([np.clip(cr, lo, hi_eff) for cr in cross] + [np.full_like(phi, lo), hi_eff], axis=1)
    grid = np.sort(grid, axis=1)

    ta, tb = np.ascontiguousarray(grid[:, :-1]), np.ascontiguousarray(grid[:, 1:])
    live = tb - ta > 1e-12 * tb
    # two-point fit recovers the exact linear tent coefficients per piece
    t1 = ta + 0.25 * (tb - ta)
    t2 = ta + 0.75 * (tb - ta)
    vx1 = _overlap_1d(t1 * c[:, None], ax0, ax1, bx0, bx1)
    vx2 = _overlap_1d(t2 * c[:, None], ax0, ax1, bx0, bx1)
    vy1 = _overlap_1d(t1 * s[:, None], ay0, ay1, by0, by1)
    vy2 = _overlap_1d(t2 * s[:, None], ay0, ay1, by0, by1)
    dt = np.where(live, t2 - t1, 1.0)
    dxc = (vx2 - vx1) / dt
    dys = (vy2 - vy1) / dt
    cx = vx1 - dxc * t1
    cy = vy1 - dys * t1
    alpha = cx * cy
    beta = cx * dys + cy * dxc
    gamma = dxc * dys
    if same:
        alpha, beta, gamma = (ax1 - ax0) * (ay1 - ay0) - alpha, -beta, -gamma

    alpha = np.where(ta <= 1e-150, 0.0, alpha)  # disjointness (for a self-energy, a zero profile at 0) makes this exact
    piece = _profile_integral(w, ta, np.maximum(tb, 1e-150), alpha, beta, gamma)
    return float(np.sum(np.where(live, piece, 0.0).sum(axis=1) * wphi))
