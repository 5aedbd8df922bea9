"""Pointwise evaluation of the kernel operators by singular quadrature.

All operators here share one radial-angular decomposition around the
evaluation point x.  Inside the unit ball the substitution t = e^(-tau)
turns the singular radial integrals into smooth ones:

    K_n u(x):   int (u(x) - u(x + t theta)) (2 tau)^(n-1) dtau
    (-Delta)^s: c_{N,s} * int (u(x) - u(x + t theta)) e^(2 s tau) dtau + kappa2(-s) u(x)
    Phi_s * u:  kappa_{N,s} * int (u(x + t theta) - u(x)) e^(-2 s tau) dtau + kappa2(s) u(x)

with Gauss-Legendre panels per dyadic decade of t, truncated at an inner
radius delta whose remainder is bounded analytically from the declared
Holder data.  Outside the unit ball the substitution t = e^(sigma) with
per-direction upper limits at the support-box exit makes the tail integrals
exact up to panel error (the integrand is smooth inside the box and
identically zero beyond it).

Antipodal directions are summed together, which realizes the principal-value
symmetrization without a separate code path.  Evaluation of discontinuous
data (indicators) is refused within the inner cut of any grid jump, since
the pointwise theory needs a Dini modulus at x.

The batch operators take xs=None to mean every node of u.  On a 1D grid
that is one lattice convolution: the same inner rule, binned by cell offset
into moments of the spline's cell coefficients, and an outer integral exact
per cell, applied to all nodes by FFT with an O(n) working set.  Points
given explicitly, and every node of a 2D grid, go through one radial pass
over fixed blocks of whole points' rays: each block forms its sample
points, samples u, weights and sums them before the next, so the working
set does not grow with the number of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gammaincc

from .coeffs import (
    CoeffLedger,
    alpha_coeffs,
    c_ns,
    kappa2_frac,
    kappa2_riesz,
    kappa_ns,
    omega,
)
from .domains import DomainSpec, ray_box
from .errors import PreconditionError
from .grid import GridFunction
from .kernels import order_weights, radial_antiderivative
from .quadrature import dyadic_log_panels, panel_rule

INNER_CUT = 1e-8
PANEL_ORDER = 16
MAX_DECADES = 40
OUTER_PANELS = 48  # resolves support-scale features crossed by the tail rays
N_ANGLES = 64
_RAY_BLOCK = 2**7  # rays per block of the radial pass
_CLEARANCE_BLOCK = 1 << 16  # point-jump pairs per block of the 2D Dini clearance check

# the inner rule in tau = -ln t over [INNER_CUT, 1], one panel per dyadic decade of t
_INNER_BOUNDS = dyadic_log_panels(-math.log(INNER_CUT), MAX_DECADES)
_INNER_TAU, _INNER_W = panel_rule(_INNER_BOUNDS, PANEL_ORDER)


@dataclass(frozen=True)
class EvalReport:
    """Value with its analytic near-singularity remainder bound."""

    value: float
    truncation_bound: float
    quadrature_panels: int


def _directions(dim: int, n_angles: int) -> tuple[np.ndarray, np.ndarray]:
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    phi = 2.0 * math.pi * (np.arange(n_angles) + 0.5) / n_angles
    thetas = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    weights = np.full(n_angles, 2.0 * math.pi / n_angles)
    return thetas, weights


def _sample(u: GridFunction, points: np.ndarray) -> np.ndarray:
    """u at points of shape (..., dim); 1D grids take the bare coordinates."""
    return u(points if u.dim == 2 else points[..., 0])


def _jump_positions(u: GridFunction) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Discontinuities the declared modulus cannot cover.

    Returns interior jump midpoints (points) and box-face planes carrying a
    nonzero boundary value (the drop to the zero extension).
    """
    positions = []
    planes: list[tuple[int, float]] = []
    axes = u.axes()
    scale = max(u.sup_norm(), 1e-300)
    for ax in range(u.dim):
        h = u.spacing[ax]
        thresh = 4.0 * u.holder_constant * h ** u.holder_exponent + 1e-10 * scale
        d = np.abs(np.diff(u.values, axis=ax))
        idx = np.nonzero(d > thresh)
        if idx[0].size:
            if u.dim == 1:
                positions.append(np.stack([axes[0][idx[0]] + 0.5 * h], axis=1))
            else:
                px = axes[0][idx[0]] + (0.5 * h if ax == 0 else 0.0)
                py = axes[1][idx[1]] + (0.5 * h if ax == 1 else 0.0)
                positions.append(np.stack([px, py], axis=1))
        if float(np.max(np.abs(np.take(u.values, 0, axis=ax)))) > thresh:
            planes.append((ax, u.origin[ax]))
        if float(np.max(np.abs(np.take(u.values, -1, axis=ax)))) > thresh:
            planes.append((ax, float(u.box_hi[ax])))
    pts = np.concatenate(positions, axis=0) if positions else np.empty((0, u.dim))
    return pts, planes


def _check_dini_clearance(u: GridFunction, xs: np.ndarray, cut: float) -> None:
    """Refuse points within cut of a jump midpoint or a nonzero box face, in a working set not of points x jumps."""
    jumps, planes = _jump_positions(u)
    dist = np.full(xs.shape[0], np.inf)
    if jumps.size and u.dim == 1:  # the nearer of the two sorted jumps around each point
        j = np.sort(jumps[:, 0])
        at = np.searchsorted(j, xs[:, 0])
        dist = np.minimum(np.abs(xs[:, 0] - j[np.maximum(at - 1, 0)]), np.abs(xs[:, 0] - j[np.minimum(at, j.size - 1)]))
    elif jumps.size:  # blocks of at most _CLEARANCE_BLOCK point-jump pairs
        step = max(1, _CLEARANCE_BLOCK // len(jumps))
        for s in range(0, xs.shape[0], step):
            dist[s : s + step] = np.sqrt(np.min(np.sum((xs[s : s + step, None, :] - jumps) ** 2, axis=2), axis=1))
    for ax, coord in planes:
        dist = np.minimum(dist, np.abs(xs[:, ax] - coord))
    if np.any(dist <= cut):
        raise PreconditionError(
            "evaluation point within the inner cut of a declared-modulus violation "
            "(discontinuity); the pointwise theory needs a Dini modulus at x"
        )


def _check_points(u: GridFunction, xs: np.ndarray) -> None:
    """Refuse points of another dimension, outside the grid box, or within the inner cut of a jump."""
    if xs.shape[1] != u.dim:
        raise PreconditionError("evaluation points must match the grid dimension")
    if not np.all((xs >= u.box_lo) & (xs <= u.box_hi)):
        raise PreconditionError("evaluation point outside the grid box")
    _check_dini_clearance(u, xs, INNER_CUT)


def _radial_pass(u: GridFunction, xs: np.ndarray, n_angles: int, weight_of_tau, weight_of_sigma):
    """Inner minus outer integral and u at the points, one block of whole points' rays at a time.

    A block holds the rays of _RAY_BLOCK // (rays per point) points, at least
    one.  It forms its sample coordinates, samples u, weights them and sums
    before the next block starts, so the working set is one block's whatever
    the number of points.  Every sum runs along one point's own axes (tau or
    sigma nodes, then directions), so no value depends on its block.
    """
    thetas, th_w = _directions(u.dim, n_angles)
    w_in = weight_of_tau(_INNER_TAU) * _INNER_W
    t_in = np.exp(-_INNER_TAU)
    un, uw = panel_rule(np.linspace(0.0, 1.0, OUTER_PANELS + 1), PANEL_ORDER)

    def block(x):  # its temporaries are freed on return, before the next block
        ux = _sample(u, x)
        # inner: u(x) - u(x + t theta) at t = e^-tau
        y = x[:, None, None, :] + t_in[None, None, :, None] * thetas[None, :, None, :]
        inner = np.sum(np.sum((ux[:, None, None] - _sample(u, y)) * w_in, axis=2) * th_w, axis=1)
        # outer: per-ray panels in sigma = ln t up to the box exit
        _, exit_t = ray_box(x.T[:, :, None], thetas.T[:, None, :], u.box_lo, u.box_hi)
        sigma_max = np.log(np.maximum(exit_t, 1.0))[:, :, None]
        sigma = sigma_max * un
        y = x[:, None, None, :] + np.exp(sigma)[..., None] * thetas[None, :, None, :]
        outer = weight_of_sigma(sigma) * (sigma_max * uw) * _sample(u, y)
        return inner - np.sum(np.sum(outer, axis=2) * th_w, axis=1), ux

    diff, u0 = np.empty(len(xs)), np.empty(len(xs))
    step = max(1, _RAY_BLOCK // len(thetas))
    for at in range(0, len(xs), step):
        diff[at : at + step], u0[at : at + step] = block(xs[at : at + step])
    return diff, u0, _INNER_BOUNDS.size - 1 + OUTER_PANELS


def _lattice_pass(u: GridFunction, weight_of_tau, weight_of_sigma):
    """Inner minus outer integral at every node of a 1D grid, as correlations with the cell coefficients.

    The interpolant is sum_p D[p, j] s^p on cell j.  A sample at x_i + y lies
    in cell i + k, k = floor(y / h), at local position s = y - k h, and
    k and s are the same for every node i.  So each integral bins its
    weights into a stencil S[p, k] of moments sum w s^p and correlates it
    with D by FFT; D is zero past the box, which is the zero extension.
    The inner rule is the radial pass's, node for node.  The two cells
    touching the node are summed in difference form, u(x_i) minus the
    cubic, so small t does not cancel against u(x_i); at the end nodes,
    where one of them lies outside the box, the difference is u(x_i) itself.
    The outer integral over |t| >= 1 runs one Gauss panel per cell (split to
    a ratio of at most 2 in t), which is exact up to round-off.
    """
    n, h, u0 = u.shape[0], u.spacing[0], u.values
    coef = u.cell_coefficients()
    kmin, kmax = -(n - 1), n - 2  # cell offsets some node can reach
    fft_len = next_fast_len(3 * n, real=True)
    coef_hat = rfft(coef, fft_len, axis=1)

    def correlate(weights, k, powers):
        """sum_k S[p, k] D[p, i + k] with S[p, k] = sum of weights * powers[p] binned at k (shifted by -kmin)."""
        stencil = np.stack([np.bincount(k, weights * pw, minlength=kmax - kmin + 1) for pw in powers])
        hat = rfft(stencil[:, ::-1], fft_len, axis=1)
        return irfft(np.sum(hat * coef_hat, axis=0), fft_len)[n - 2:2 * n - 2]

    # inner: both directions, the tau nodes twice
    w = weight_of_tau(_INNER_TAU) * _INNER_W
    t = np.exp(-_INNER_TAU)
    y = np.concatenate([t, -t])
    k = np.floor(y / h)
    near_plus, near_minus = t < h, t <= h  # k == 0 and k == -1
    far = np.concatenate([~near_plus, ~near_minus])
    binned = far & (k >= kmin) & (k <= kmax)
    wy = np.concatenate([w, w])
    in_pow = (y - k * h)[binned] ** np.arange(4)[:, None]
    values = u0 * float(np.sum(wy[far])) - correlate(wy[binned], (k[binned] - kmin).astype(np.intp), in_pow)
    # u(x_i) - u(x_i + t) on cell i and u(x_i) - u(x_i - t) on cell i - 1,
    # as the p = 1..3 terms of the cubic's difference
    tp, tm = t[near_plus], t[near_minus]
    near_plus_pow = -np.stack([tp, tp ** 2, tp ** 3])
    near_minus_pow = np.stack([tm, 2 * h * tm - tm ** 2, 3 * h * h * tm - 3 * h * tm ** 2 + tm ** 3])
    values[:-1] += (near_plus_pow @ w[near_plus]) @ coef[1:]
    values[1:] += (near_minus_pow @ w[near_minus]) @ coef[1:]
    values[0] += u0[0] * float(np.sum(w[near_minus]))
    values[-1] += u0[-1] * float(np.sum(w[near_plus]))

    # outer: the cell edges past t = 1 (none on a box shorter than 1),
    # with dyadic splits of a first cell that ends beyond t = 2
    edges = h * np.arange(1, n)
    edges = edges[edges > 1.0]
    splits = 2.0 ** np.arange(1, math.ceil(math.log2(edges[0])) if edges.size else 1)
    t_bounds = np.concatenate([[1.0], splits, edges])
    sigma, sigma_w = panel_rule(np.log(t_bounds), PANEL_ORDER)
    t_out = np.exp(sigma)
    j = np.repeat(np.floor(0.5 * (t_bounds[:-1] + t_bounds[1:]) / h), PANEL_ORDER)
    out_k = np.concatenate([j, -(j + 1)]).astype(np.intp) - kmin
    out_pow = np.concatenate([t_out - j * h, (j + 1) * h - t_out]) ** np.arange(4)[:, None]
    w = weight_of_sigma(sigma) * sigma_w
    values -= correlate(np.concatenate([w, w]), out_k, out_pow)
    return values, u0, _INNER_BOUNDS.size - 1 + t_bounds.size - 1


def _evaluate(u: GridFunction, xs, n_angles: int, weight_of_tau, weight_of_sigma):
    """Inner integral (weight_of_tau) minus outer integral (weight_of_sigma), u at the points, and the panel count.

    The points are checked once.  xs None on a 1D grid is the lattice pass
    over every node; every other request (explicit points, every node of a
    2D grid) is the radial pass, one block of rays at a time.
    """
    points = u.nodes() if xs is None else np.atleast_2d(np.asarray(xs, dtype=float))
    _check_points(u, points)
    if xs is None and u.dim == 1:
        return _lattice_pass(u, weight_of_tau, weight_of_sigma)
    return _radial_pass(u, points, n_angles, weight_of_tau, weight_of_sigma)


def _holder_bound_log(u: GridFunction, n: int, cut: float) -> float:
    """omega_N C int_0^delta r^(alpha-1) (-2 ln r)^(n-1) dr, via incomplete Gamma."""
    a = u.holder_exponent
    tail = 2.0 ** (n - 1) * a ** (-n) * math.gamma(n) * float(gammaincc(n, a * (-math.log(cut))))
    return omega(u.dim) * u.holder_constant * tail


def _holder_bound_power(u: GridFunction, rate: float, cut: float) -> float:
    """omega_N C delta^rate / rate for the power-kernel inner remainder."""
    return omega(u.dim) * u.holder_constant * cut ** rate / rate


def _log_term(u: GridFunction, xs, w, n_angles: int):
    """sum_j w[j-1] K_j u at the points, u there, the Holder bound summed over the weights, the panels.

    The kernel is the polynomial w in 2 tau inside B1 and in -2 sigma outside.
    """
    diff, u0, panels = _evaluate(u, xs, n_angles, lambda tau: polyval(2.0 * tau, w), lambda sig: polyval(-2.0 * sig, w))
    bound = sum(abs(wj) * _holder_bound_log(u, j, INNER_CUT) for j, wj in enumerate(w, 1))
    return diff, u0, bound, panels


# ---------------------------------------------------------------------------
# public operators


def apply_K_batch(n: int, u: GridFunction, xs, n_angles: int = N_ANGLES):
    """K_n u(x) = int_{B1} (u(x)-u(y)) q_n dy - int_{|y-x|>1} u(y) q_n dy at many points, on the weights of q_n."""
    values, _, bound, panels = _log_term(u, xs, order_weights(n), n_angles)
    return values, bound, panels


def apply_L_batch(m: int, u: GridFunction, xs, ledger: CoeffLedger | None = None, n_angles: int = N_ANGLES):
    """Ledger combination sum_j alpha_j K_j u (with K_0 u = u) at many points."""
    led = ledger if ledger is not None else alpha_coeffs(m, u.dim)
    if led.m != m or led.dim != u.dim:
        raise PreconditionError("ledger order/dimension mismatch")
    diff, u0, bound, panels = _log_term(u, xs, led.alpha[1:], n_angles)
    return led.alpha[0] * u0 + diff, bound, panels


def frac_lap_batch(s: float, u: GridFunction, xs, n_angles: int = N_ANGLES):
    """(-Delta)^s via the split c_{N,s} J-integral + kappa2(-s) u(x)."""
    if not 0.0 < s < 1.0:
        raise PreconditionError("fractional order must lie in (0, 1)")
    if u.holder_exponent <= 2.0 * s:
        raise PreconditionError(
            "declared Holder exponent must exceed 2s for the split singular integral"
        )
    diff, u0, panels = _evaluate(u, xs, n_angles, lambda tau: np.exp(2.0 * s * tau), lambda sig: np.exp(-2.0 * s * sig))
    c = c_ns(s, u.dim)
    values = c * diff + kappa2_frac(s, u.dim) * u0
    bound = abs(c) * _holder_bound_power(u, u.holder_exponent - 2.0 * s, INNER_CUT)
    return values, bound, panels


def riesz_batch(s: float, u: GridFunction, xs, n_angles: int = N_ANGLES):
    """Phi_s * u via the compensated split kappa_{N,s} I-integral + kappa2(s) u(x)."""
    if not 0.0 < s < u.dim / 2.0:
        raise PreconditionError("Riesz order must lie in (0, N/2)")
    diff, u0, panels = _evaluate(u, xs, n_angles, lambda tau: np.exp(-2.0 * s * tau), lambda sig: np.exp(2.0 * s * sig))
    kap = kappa_ns(s, u.dim)
    # I[u](x, y) = u(y) - u(x) inside B_1: the sign-flipped inner difference
    values = kap * -diff + kappa2_riesz(s, u.dim) * u0
    bound = kap * _holder_bound_power(u, u.holder_exponent + 2.0 * s, INNER_CUT)
    return values, bound, panels


# ---------------------------------------------------------------------------
# regional representation


def _segment_panels(a: float, b: float):
    """Log-coordinate panels on a radial segment [a, b], a > 0: six per unit of ln t."""
    la, lb = math.log(a), math.log(b)
    n = max(2, int(math.ceil((lb - la) * 6)))
    return panel_rule(np.linspace(la, lb, n + 1), PANEL_ORDER)


def regional_repr(m: int, u: GridFunction, x, domain: DomainSpec, n_angles: int = N_ANGLES) -> EvalReport:
    """K_m u(x) through the domain-split form with the h_{m,Omega} correction.

    T1 = int_Omega (u(x)-u(y)) q_m dy,  T2 = -int_{R^N \\ Omega} u(y) q_m dy,
    h term = h_{m,Omega}(x) u(x).  T1 and T2 run log-coordinate panels along
    rays from x between the exact domain crossings, independently of the
    batch operators; the h term is the closed form of h_regional.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if domain.dim != u.dim:
        raise PreconditionError("domain/grid dimension mismatch")
    if x.ndim != 1:
        raise PreconditionError("the evaluation point must be one-dimensional: one coordinate per axis")
    _check_points(u, x[None, :])  # before the domain sees x, whose length it does not check
    if not domain.contains(x):
        raise PreconditionError("evaluation point must lie inside the domain")

    thetas, th_w = _directions(u.dim, n_angles)
    _, exit_t = ray_box(x, thetas.T, u.box_lo, u.box_hi)
    u0 = float(_sample(u, x))
    w = order_weights(m)

    total = 0.0
    panels = 0
    for it, (theta, segs) in enumerate(zip(thetas, domain.ray_segments(x, thetas))):
        if not segs or segs[0][0] > 1e-14:
            raise PreconditionError("evaluation point sits on the domain boundary")
        if segs[0][1] <= INNER_CUT:
            raise PreconditionError("domain boundary within the inner cut of x")
        # cover the grid box and every domain segment: u(x) q_m contributes on
        # all of Omega even past the support box
        t_stop = max(exit_t[it], 1.0, max(tb for _, tb in segs))

        # difference integral over Omega, outer -u integral over the complement;
        # radial pieces break at domain crossings and at the unit radius
        marks = {0.0, 1.0, t_stop}
        for (ta, tb) in segs:
            marks.add(min(ta, t_stop))
            marks.add(min(tb, t_stop))
        marks = sorted(marks)
        for lo, hi in zip(marks[:-1], marks[1:]):
            if hi - lo <= 1e-15:
                continue
            mid = 0.5 * (lo + hi)
            inside = any(ta - 1e-14 <= mid <= tb + 1e-14 for ta, tb in segs)
            if lo < 1e-13:
                # piece containing x: log substitution t = e^-tau, dyadic panels
                if not inside:
                    raise PreconditionError("x must be interior to the domain")
                tau_lo = -math.log(min(hi, 1.0))
                bnds = np.unique(np.concatenate([[tau_lo], _INNER_BOUNDS[_INNER_BOUNDS > tau_lo + 1e-15]]))
                nodes, wts = panel_rule(bnds, PANEL_ORDER)
                t_nodes, kernel = np.exp(-nodes), polyval(2.0 * nodes, w)
            else:
                nodes, wts = _segment_panels(lo, hi)
                t_nodes, kernel = np.exp(nodes), polyval(-2.0 * nodes, w)
            vals = _sample(u, x + t_nodes[:, None] * theta)
            f = (u0 - vals) if inside else (-vals)
            total += th_w[it] * float(np.sum(f * kernel * wts))
            panels += len(wts) // PANEL_ORDER

    value = total + h_regional(m, x, domain, u.dim, n_angles) * u0
    bound = _holder_bound_log(u, m, INNER_CUT)
    return EvalReport(float(value), bound, panels)


def h_regional(m: int, x, domain: DomainSpec, dim: int, n_angles: int = N_ANGLES) -> float:
    """h_{m,Omega}(x) = int_{B1(x) \\ Omega} q_m - int_{Omega \\ B1(x)} q_m, in closed form on every ray at once.

    Along a ray q_m t^(N-1) dt = dP with P = radial_antiderivative, so the
    ray's share is P(1) - P(0) minus the integral of dP over the domain's
    spans; the divergent P(0) cancels on the piece that holds x.  Each ray sums
    P(lower) - P(t_out) over the pieces it crosses, with lower = 1 on the
    piece holding x and t_in on every other.  The angular sum is the rule
    of _directions (exact in 1D).
    """
    thetas, th_w = _directions(dim, n_angles)
    t_in, t_out = domain.ray_spans(x, thetas)
    hit = t_out > t_in
    if not np.all(np.any(hit & (t_in == 0.0), axis=0)):
        raise PreconditionError("h_{m,Omega} diverges for x outside the open domain")
    lower = np.where(hit & (t_in > 0.0), t_in, 1.0)  # a missed piece adds P(1) - P(1) = 0
    P = radial_antiderivative(order_weights(m), np.stack([lower, np.where(hit, t_out, 1.0)]))
    return float(th_w @ np.sum(P[0] - P[1], axis=0))


# ---------------------------------------------------------------------------
# weighted norms


def weighted_l1_norm(u: GridFunction, s: float, t: float) -> float:
    """Grid trapezoid of int |u(x)| (1+|x|)^(-N-2s) (ln(e+|x|))^(t-1) dx."""
    axes = u.axes()
    if u.dim == 1:
        r = np.abs(axes[0])
    else:
        r = np.hypot(axes[0][:, None], axes[1][None, :])
    w = (1.0 + r) ** (-u.dim - 2.0 * s) * np.log(math.e + r) ** (t - 1.0)
    integrand = np.abs(u.values) * w
    for ax in range(u.dim):
        tw = np.ones(u.shape[ax])
        tw[0] = tw[-1] = 0.5
        shape = [1] * u.dim
        shape[ax] = -1
        integrand = integrand * tw.reshape(shape)
    return float(np.sum(integrand) * u.cell_volume)
