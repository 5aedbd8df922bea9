"""Radial kernels, their closed-form integrals, and positivity radii.

The order-n kernel is q_n(t) = t^(-N) (-2 ln t)^(n-1); restricted inside the
unit ball it is the difference kernel k_n, outside it is the convolution
kernel j_n.  All radial integrals reduce to the antiderivative

    int q_n(t) t^(N-1) dt = -(-2 ln t)^n / (2n)      (per unit sphere measure)

and the closed-form Galerkin cell integrals additionally need

    int_0^h t^p (-ln t)^k dt = h^(p+1) sum_{i<=k} (k!/i!) (-ln h)^i / (p+1)^(k-i+1),

a finite (incomplete-Gamma) sum (p = 0 for 1D cells, p = 1 for 2D boxes).
The combined kernel of an order-m ledger,

    h_m(t) = sum_{j=1..m} alpha_j (-2 ln t)^(j-1),

is a polynomial p in tau = -2 ln t with positive leading coefficient; its
positivity radius r0 and monotonicity radius rm are located from the largest
positive roots of p and p'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffLedger, omega
from .errors import PreconditionError

_ROOT_TAU_MAX = 200.0  # roots beyond tau=200 mean t < e^-100: numerically zero


@dataclass(frozen=True)
class KernelSpec:
    """Order n >= 1 and dimension N >= 1 selecting q_n, k_n, j_n."""

    n: int
    dim: int

    def __post_init__(self):
        if self.n < 1 or self.dim < 1:
            raise PreconditionError("kernel order and dimension must be >= 1")


def q_eval(spec: KernelSpec, t) -> float | np.ndarray:
    """q_n(t) = t^(-N) (-2 ln t)^(n-1) for t > 0 (sign (-1)^(n-1) past t=1)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise PreconditionError("kernel argument must be positive")
    out = t ** (-spec.dim) * (-2.0 * np.log(t)) ** (spec.n - 1)
    return float(out) if out.ndim == 0 else out


def radial_antiderivative(n: int, t) -> float | np.ndarray:
    """Antiderivative of (-2 ln t)^(n-1)/t, namely -(-2 ln t)^n / (2n)."""
    t = np.asarray(t, dtype=float)
    out = -((-2.0 * np.log(t)) ** n) / (2.0 * n)
    return float(out) if out.ndim == 0 else out


def tail_integral(spec: KernelSpec, a: float) -> float:
    """Ball integral int_{a<|z|<1} q_n(|z|) dz = omega_N (-2 ln a)^n / (2n)."""
    if not 0.0 < a < 1.0:
        raise PreconditionError("inner radius must lie in (0, 1)")
    return omega(spec.dim) * (-2.0 * math.log(a)) ** spec.n / (2.0 * spec.n)


def outer_integral(spec: KernelSpec, R: float) -> float:
    """Shell integral int_{1<|z|<R} q_n(|z|) dz = (-1)^(n-1) omega_N (2 ln R)^n / (2n)."""
    if R <= 1.0:
        raise PreconditionError("outer radius must exceed 1")
    return (-1.0) ** (spec.n - 1) * omega(spec.dim) * (2.0 * math.log(R)) ** spec.n / (2.0 * spec.n)


def _poly_largest_positive_root(coeffs: np.ndarray) -> float | None:
    """Largest real root of sum_k coeffs[k] tau^k in (0, _ROOT_TAU_MAX], or None.

    Companion-matrix roots refined by bisection whenever a sign change
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
    # bisection polish on a bracket around the companion estimate
    lo, hi = best - 1e-3 * max(1.0, best), best + 1e-3 * max(1.0, best)
    flo, fhi = poly(lo), poly(hi)
    if flo * fhi < 0.0:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = poly(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0.0:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
        best = 0.5 * (lo + hi)
    if abs(poly(best)) > 1e-6 * scale * max(1.0, best ** (c.size - 1)):
        return None  # spurious companion artifact, no actual crossing
    return best


@dataclass(frozen=True)
class CombinedKernel:
    """h_m(t) = sum alpha_j (-2 ln t)^(j-1) with its radii r0 (positivity) and rm."""

    ledger: CoeffLedger
    poly: tuple[float, ...]  # p(tau) coefficients, tau = -2 ln t
    r0: float
    rm: float

    def __call__(self, t) -> np.ndarray:
        tau = -2.0 * np.log(np.asarray(t, dtype=float))
        return np.polynomial.polynomial.polyval(tau, np.asarray(self.poly))


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
    return CombinedKernel(ledger=ledger, poly=tuple(p), r0=r0, rm=rm)


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


def _linear_weighted_piece(n: int, c, d, u, v, lo: float, hi: float) -> np.ndarray:
    """int_u^v (c + d t) t^(-1) (-2 ln t)^(n-1) dt, clipped to [lo, hi].

    The constant part uses the radial antiderivative; the linear part uses
    2^(n-1) G_(n-1).  Pieces with c = 0 tolerate u = 0.
    """
    u = np.maximum(np.asarray(u, dtype=float), lo)
    v = np.minimum(np.asarray(v, dtype=float), hi)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    live = v > u
    u_s = np.where(live, u, 1.0)  # dead pieces get a harmless finite filler
    v_s = np.where(live, v, 1.0)
    const_part = np.where(
        c != 0.0,
        c * (radial_antiderivative(n, v_s) - radial_antiderivative(n, np.where(u_s > 0, u_s, 1.0))),
        0.0,
    )
    # c != 0 with u = 0 would be a divergent integral; callers never build it
    lin_part = d * 2.0 ** (n - 1) * (
        incomplete_log_integral(n - 1, v_s) - incomplete_log_integral(n - 1, u_s)
    )
    return np.where(live, const_part + lin_part, 0.0)


def _pair_overlap_breaks(a1, a2, b1, b2):
    """Breakpoints/slopes of t -> |A cap (B + t)| for intervals A, B (A right of B)."""
    t0 = a1 - b2
    t1 = np.minimum(a2 - b2, a1 - b1)
    t2 = np.maximum(a2 - b2, a1 - b1)
    t3 = a2 - b1
    return t0, t1, t2, t3


def cell_pair_tent_integral(n: int, a1, a2, b1, b2, lo: float, hi: float) -> np.ndarray:
    """int_A int_B q_n(|x-y|) 1_{lo<|x-y|<hi} dy dx for disjoint 1D cells.

    Written as int ell(t) q_n(t) dt with the trapezoidal overlap profile ell
    of the two cells; each linear piece integrates in closed form.  Cells may
    touch at an endpoint but must not overlap.
    """
    a1 = np.asarray(a1, dtype=float)
    gap_ab = a1 - np.asarray(b2, dtype=float)
    gap_ba = np.asarray(b1, dtype=float) - np.asarray(a2, dtype=float)
    if np.any(np.maximum(gap_ab, gap_ba) < -1e-14):
        raise PreconditionError("cells overlap; pair integral defined for disjoint cells only")
    # orient so A is right of B
    swap = gap_ba > gap_ab
    A1 = np.where(swap, b1, a1)
    A2 = np.where(swap, b2, a2)
    B1 = np.where(swap, a1, b1)
    B2 = np.where(swap, a2, b2)
    t0, t1, t2, t3 = _pair_overlap_breaks(A1, A2, B1, B2)
    t0 = np.maximum(t0, 0.0)
    plateau = np.minimum(A2 - A1, B2 - B1)
    total = _linear_weighted_piece(n, -t0, 1.0, t0, t1, lo, hi)
    total = total + _linear_weighted_piece(n, plateau, 0.0, t1, t2, lo, hi)
    total = total + _linear_weighted_piece(n, t3, -1.0, t2, t3, lo, hi)
    return total


def _overlap_1d(z, a1, a2, b1, b2):
    return np.maximum(np.minimum(a2, b2 + z) - np.maximum(a1, b1 + z), 0.0)


def rect_pair_integral_2d(n: int, A, B, lo: float = 0.0, hi: float = 1.0, order: int = 12) -> float:
    """int_A int_B q_n(|x-y|) 1_{lo<|x-y|<hi} dy dx for disjoint 2D boxes.

    In z = x - y the weight is the separable overlap product
    ell_x(z1) ell_y(z2); along each polar ray that product is piecewise
    quadratic in the radius with kinks at the tent breakpoints, so every
    radial piece is a closed form and only a piecewise-smooth angular
    integral remains.  The angular rule splits at all candidate kink
    directions (breakpoint corners, clip-circle crossings, axes).
    """
    ax0, ay0, ax1, ay1 = A[:4]
    bx0, by0, bx1, by1 = B[:4]
    breaks_x = sorted({ax0 - bx1, ax0 - bx0, ax1 - bx1, ax1 - bx0})
    breaks_y = sorted({ay0 - by1, ay0 - by0, ay1 - by1, ay1 - by0})
    if lo <= 0.0 and _overlap_1d(0.0, ax0, ax1, bx0, bx1) * _overlap_1d(0.0, ay0, ay1, by0, by1) > 1e-14:
        raise PreconditionError("overlapping boxes diverge under the singular kernel")

    angs = {0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi}
    for bx in breaks_x:
        for by in breaks_y:
            if bx != 0.0 or by != 0.0:
                angs.add(math.atan2(by, bx) % (2.0 * math.pi))
    for r in (lo, hi):
        if not 0.0 < r < math.inf:
            continue
        for bx in breaks_x:
            if abs(bx) <= r:
                a = math.acos(max(min(bx / r, 1.0), -1.0))
                angs.update({a % (2 * math.pi), (-a) % (2 * math.pi)})
        for by in breaks_y:
            if abs(by) <= r:
                a = math.asin(max(min(by / r, 1.0), -1.0))
                angs.update({a % (2 * math.pi), (math.pi - a) % (2 * math.pi)})
    bounds = np.array(sorted(angs))
    bounds = np.concatenate([bounds, [bounds[0] + 2.0 * math.pi]])
    from .quadrature import panel_rule  # local import: avoid a module cycle

    phi, wphi = panel_rule(bounds, order)
    c, s = np.cos(phi), np.sin(phi)

    # positive radial crossings of all tent breakpoints, clipped to [lo, hi]
    cross = []
    for brk in breaks_x:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = brk / c
        cross.append(np.where(np.isfinite(t) & (t > 0.0), t, lo))
    for brk in breaks_y:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = brk / s
        cross.append(np.where(np.isfinite(t) & (t > 0.0), t, lo))
    hi_eff = np.full_like(phi, hi)
    if not math.isfinite(hi):
        # support of the tent product ends at the largest finite crossing
        hi_eff = np.maximum.reduce([np.where(cr > lo, cr, lo) for cr in cross])
    grid = np.stack([np.clip(cr, lo, hi_eff) for cr in cross] + [np.full_like(phi, lo), hi_eff], axis=1)
    grid = np.sort(grid, axis=1)

    ta, tb = grid[:, :-1], grid[:, 1:]
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

    ta_safe = np.maximum(ta, 1e-150)
    alpha = np.where(ta <= 1e-150, 0.0, alpha)  # disjointness makes this exact
    tb_safe = np.maximum(tb, 1e-150)
    piece = (
        alpha * (radial_antiderivative(n, tb_safe) - radial_antiderivative(n, ta_safe))
        + beta * 2.0 ** (n - 1) * (incomplete_log_integral(n - 1, tb_safe) - incomplete_log_integral(n - 1, ta_safe))
        + gamma * 2.0 ** (n - 1) * (incomplete_log_integral(n - 1, tb_safe, p=1) - incomplete_log_integral(n - 1, ta_safe, p=1))
    )
    return float(np.sum(np.where(live, piece, 0.0).sum(axis=1) * wphi))


def cell_self_energy_2d(n: int, a: float, b: float, cutoff: float = 1.0, order: int = 24) -> float:
    """int_C int_{B_cutoff(x) setminus C} q_n(|x-y|) dy dx for a rectangle cell.

    In the difference variable z the double integral weighs q_n by
    ab - (a - |z1|)+ (b - |z2|)+, whose polar t-profile per angle is linear
    then constant; both radial pieces are closed forms, so only a smooth
    angular integral remains (split at the finitely many profile kinks).
    """
    if a <= 0.0 or b <= 0.0:
        raise PreconditionError("cell sides must be positive")
    if not 0.0 < cutoff <= 1.0:
        raise PreconditionError("cutoff radius must lie in (0, 1]")
    if math.hypot(a, b) > cutoff:
        raise PreconditionError("cell diameter exceeds the kernel cutoff")
    breaks = {0.0, math.pi / 2.0, math.atan2(b, a)}
    if a < cutoff:
        breaks.add(math.acos(a / cutoff))
    if b < cutoff:
        breaks.add(math.asin(b / cutoff))
    bounds = np.array(sorted(breaks))
    from .quadrature import panel_rule  # local import: avoid a module cycle

    phi, wts = panel_rule(bounds, order)
    c, s = np.cos(phi), np.sin(phi)
    with np.errstate(divide="ignore"):
        t_a = np.where(c > 0, a / np.where(c > 0, c, 1.0), np.inf)
        t_b = np.where(s > 0, b / np.where(s > 0, s, 1.0), np.inf)
    t_star = np.minimum(np.minimum(t_a, t_b), cutoff)
    lin = (a * s + b * c) * 2.0 ** (n - 1) * incomplete_log_integral(n - 1, t_star)
    quad = c * s * 2.0 ** (n - 1) * incomplete_log_integral(n - 1, t_star, p=1)
    tail = a * b * (radial_antiderivative(n, cutoff) - radial_antiderivative(n, t_star))
    tail = np.where(t_star < cutoff, tail, 0.0)
    integrand = lin - quad + tail
    # quadrant symmetry of |z1|, |z2| gives the factor four
    return float(4.0 * np.sum(integrand * wts))


def cell_self_energy_1d(n: int, h, cutoff: float = 1.0) -> np.ndarray:
    """int_C int_{B_cutoff(x) setminus C} q_n(|x-y|) dy dx for a cell of width h.

    Closed form (2^n/n) G_n(h) - h (-2 ln cutoff)^n / n, valid for h <= cutoff.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0.0):
        raise PreconditionError("cell width must be positive")
    if not 0.0 < cutoff <= 1.0:
        raise PreconditionError("cutoff radius must lie in (0, 1]")
    if np.any(h > cutoff):
        raise PreconditionError("cell width exceeds the kernel cutoff")
    out = (2.0 ** n / n) * incomplete_log_integral(n, h) - h * (-2.0 * math.log(cutoff)) ** n / n
    return float(out) if np.ndim(out) == 0 else out


def cell_pair_integral_1d(spec: KernelSpec, cellA: tuple[float, float], cellB: tuple[float, float]) -> float:
    """Exact int_A int_B k_n(x - y) dy dx for 1D mesh cells.

    Disjoint (possibly touching) cells use the overlap-profile closed form.
    The identical-cell case returns the Galerkin self-energy
    int_A int_{B_1(x) setminus A} q_n, since the raw double integral
    diverges there; partially overlapping cells are rejected.
    """
    if spec.dim != 1:
        raise PreconditionError("closed-form cell integrals are one-dimensional")
    a1, a2 = map(float, cellA)
    b1, b2 = map(float, cellB)
    if a2 <= a1 or b2 <= b1:
        raise PreconditionError("cells must have positive length")
    if a1 == b1 and a2 == b2:
        return float(cell_self_energy_1d(spec.n, a2 - a1))
    if max(a1 - b2, b1 - a2) < -1e-14:
        raise PreconditionError("partially overlapping cells are not meshes")
    return float(cell_pair_tent_integral(spec.n, a1, a2, b1, b2, 0.0, 1.0))
