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
given explicitly, and every node of a 2D grid, go through the per-point
radial rule in chunks of a fixed byte budget, one chunk at a time, so the
working set does not grow with the number of points.
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
from .grid import _SPLINE_BLOCK_BYTES, GridFunction
from .kernels import order_weights, radial_antiderivative
from .quadrature import dyadic_log_panels, panel_rule

INNER_CUT = 1e-8
PANEL_ORDER = 16
MAX_DECADES = 40
OUTER_PANELS = 48  # resolves support-scale features crossed by the tail rays
N_ANGLES = 64
_CHUNK_BYTES = 64 * 2**20  # working set of one radial context
_CLEARANCE_BLOCK = 1 << 16  # point-jump pairs per block of the 2D Dini clearance check

# the inner rule in tau = -ln t over [INNER_CUT, 1], one panel per dyadic decade of t
_INNER_BOUNDS = dyadic_log_panels(-math.log(INNER_CUT), MAX_DECADES)
_INNER_TAU, _INNER_W = panel_rule(_INNER_BOUNDS, PANEL_ORDER)


def _point_bytes(dim: int, n_angles: int) -> int:
    """Working set per evaluation point: a radial context peaks at about six float64 arrays over its nodes."""
    return 6 * 8 * (2 if dim == 1 else n_angles) * (_INNER_TAU.size + OUTER_PANELS * PANEL_ORDER)


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


class _RadialContext:
    """Shared u-samples and quadrature weights around a batch of points."""

    def __init__(self, u: GridFunction, xs: np.ndarray, n_angles: int = N_ANGLES):
        if xs.shape[1] != u.dim:
            raise PreconditionError("evaluation points must match the grid dimension")
        if not np.all((xs >= u.box_lo) & (xs <= u.box_hi)):
            raise PreconditionError("evaluation point outside the grid box")
        _check_dini_clearance(u, xs, INNER_CUT)
        self.u = u
        self.xs = xs
        thetas, th_w = _directions(u.dim, n_angles)
        self.thetas, self.th_w = thetas, th_w

        self.tau, self.tau_w = _INNER_TAU, _INNER_W
        t_in = np.exp(-self.tau)
        # y[x, theta, q] = x + t_q * theta
        y_in = xs[:, None, None, :] + t_in[None, None, :, None] * thetas[None, :, None, :]
        self.u0 = _sample(u, xs)
        self.diff_in = self.u0[:, None, None] - _sample(u, y_in)

        # outer: per-(x, theta) panels in sigma = ln t up to the box exit
        _, exit_t = ray_box(xs.T[:, :, None], thetas.T[:, None, :], u.box_lo, u.box_hi)
        sigma_max = np.log(np.maximum(exit_t, 1.0))
        un, uw = panel_rule(np.linspace(0.0, 1.0, OUTER_PANELS + 1), PANEL_ORDER)
        self.sigma = sigma_max[:, :, None] * un[None, None, :]
        self.sigma_w = sigma_max[:, :, None] * uw[None, None, :]
        t_out = np.exp(self.sigma)
        y_out = xs[:, None, None, :] + t_out[..., None] * thetas[None, :, None, :]
        self.u_out = _sample(u, y_out)
        self.panels = _INNER_BOUNDS.size - 1 + OUTER_PANELS

    # sums along fixed axes, in an order that does not depend on the number of points
    def inner(self, weight_of_tau) -> np.ndarray:
        w = weight_of_tau(self.tau) * self.tau_w
        return np.sum(np.sum(self.diff_in * w, axis=2) * self.th_w, axis=1)

    def outer(self, weight_of_sigma) -> np.ndarray:
        integ = weight_of_sigma(self.sigma) * self.sigma_w * self.u_out
        return np.sum(np.sum(integ, axis=2) * self.th_w, axis=1)


class _LatticeContext:
    """Every node of a 1D grid at once, as correlations with the cell coefficients.

    The interpolant is sum_p D[p, j] s^p on cell j.  A sample at x_i + y lies
    in cell i + k, k = floor(y / h), at local position s = y - k h, and
    k and s are the same for every node i.  So ``inner`` and ``outer`` each
    bin their weights into a stencil S[p, k] of moments sum w s^p and
    correlate it with D by FFT; D is zero past the box, which is the zero
    extension.  The inner rule is the radial context's, node for node.  The
    two cells touching the node are summed in difference form, u(x_i) minus
    the cubic, so small t does not cancel against u(x_i); at the end nodes,
    where one of them lies outside the box, the difference is u(x_i) itself.
    The outer integral over |t| >= 1 runs one Gauss panel per cell (split to
    a ratio of at most 2 in t), which is exact up to round-off.
    """

    def __init__(self, u: GridFunction):
        n = u.shape[0]
        self.u, self.xs, self.u0 = u, u.nodes(), u.values
        _check_dini_clearance(u, self.xs, INNER_CUT)
        h = u.spacing[0]
        self.coef = u.cell_coefficients()
        self.kmin, self.kmax = -(n - 1), n - 2  # cell offsets some node can reach
        self.fft_len = next_fast_len(3 * n, real=True)
        self.coef_hat = rfft(self.coef, self.fft_len, axis=1)

        self.tau, self.tau_w = _INNER_TAU, _INNER_W
        t = np.exp(-self.tau)
        y = np.concatenate([t, -t])  # both directions, the tau nodes twice
        k = np.floor(y / h)
        self.near_plus, self.near_minus = t < h, t <= h  # k == 0 and k == -1
        self.far = np.concatenate([~self.near_plus, ~self.near_minus])
        self.binned = self.far & (k >= self.kmin) & (k <= self.kmax)
        self.in_k = (k[self.binned] - self.kmin).astype(np.intp)
        self.in_pow = (y - k * h)[self.binned] ** np.arange(4)[:, None]
        # u(x_i) - u(x_i + t) on cell i and u(x_i) - u(x_i - t) on cell i - 1,
        # as the p = 1..3 terms of the cubic's difference
        tp, tm = t[self.near_plus], t[self.near_minus]
        self.near_plus_pow = -np.stack([tp, tp ** 2, tp ** 3])
        self.near_minus_pow = np.stack([tm, 2 * h * tm - tm ** 2, 3 * h * h * tm - 3 * h * tm ** 2 + tm ** 3])

        # outer: the cell edges past t = 1 (none on a box shorter than 1),
        # with dyadic splits of a first cell that ends beyond t = 2
        edges = h * np.arange(1, n)
        edges = edges[edges > 1.0]
        splits = 2.0 ** np.arange(1, math.ceil(math.log2(edges[0])) if edges.size else 1)
        t_bounds = np.concatenate([[1.0], splits, edges])
        self.sigma, self.sigma_w = panel_rule(np.log(t_bounds), PANEL_ORDER)
        t_out = np.exp(self.sigma)
        j = np.repeat(np.floor(0.5 * (t_bounds[:-1] + t_bounds[1:]) / h), PANEL_ORDER)
        self.out_k = np.concatenate([j, -(j + 1)]).astype(np.intp) - self.kmin
        self.out_pow = np.concatenate([t_out - j * h, (j + 1) * h - t_out]) ** np.arange(4)[:, None]
        self.panels = _INNER_BOUNDS.size - 1 + t_bounds.size - 1

    def _correlate(self, weights, k, powers) -> np.ndarray:
        """sum_k S[p, k] D[p, i + k] with S[p, k] = sum of weights * powers[p] binned at k."""
        n = self.u0.size
        size = self.kmax - self.kmin + 1
        stencil = np.stack([np.bincount(k, weights * pw, minlength=size) for pw in powers])
        hat = rfft(stencil[:, ::-1], self.fft_len, axis=1)
        return irfft(np.sum(hat * self.coef_hat, axis=0), self.fft_len)[n - 2:2 * n - 2]

    def inner(self, weight_of_tau) -> np.ndarray:
        w = weight_of_tau(self.tau) * self.tau_w
        wy = np.concatenate([w, w])
        values = self.u0 * float(np.sum(wy[self.far])) - self._correlate(wy[self.binned], self.in_k, self.in_pow)
        d = self.coef[1:]
        values[:-1] += (self.near_plus_pow @ w[self.near_plus]) @ d
        values[1:] += (self.near_minus_pow @ w[self.near_minus]) @ d
        values[0] += self.u0[0] * float(np.sum(w[self.near_minus]))
        values[-1] += self.u0[-1] * float(np.sum(w[self.near_plus]))
        return values

    def outer(self, weight_of_sigma) -> np.ndarray:
        w = weight_of_sigma(self.sigma) * self.sigma_w
        return self._correlate(np.concatenate([w, w]), self.out_k, self.out_pow)


def _evaluate(u: GridFunction, xs, n_angles: int, weight_of_tau, weight_of_sigma):
    """inner(weight_of_tau) - outer(weight_of_sigma) and u at the points, with the panel count.

    xs None on a 1D grid is one lattice context over every node.  Every other
    request (explicit points, every node of a 2D grid) runs radial contexts
    over chunks of at most _CHUNK_BYTES with the 2D spline's block, each
    built and dropped before the next; no value depends on its chunk.
    """

    def run(ctx):
        return ctx.inner(weight_of_tau) - ctx.outer(weight_of_sigma), ctx.u0, ctx.panels

    if xs is None and u.dim == 1:
        return run(_LatticeContext(u))
    xs = u.nodes() if xs is None else np.atleast_2d(np.asarray(xs, dtype=float))
    spline = _SPLINE_BLOCK_BYTES if u.dim == 2 else 0  # the interpolant's fixed block temporaries
    per_chunk = max(1, (_CHUNK_BYTES - spline) // _point_bytes(u.dim, n_angles))
    parts = np.array_split(xs, max(1, math.ceil(xs.shape[0] / per_chunk)))
    diffs, u0s, panels = zip(*[run(_RadialContext(u, part, n_angles)) for part in parts])
    return np.concatenate(diffs), np.concatenate(u0s), panels[0]


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
    """K_n u at many points: the log-kernel term on the weights of q_n."""
    values, _, bound, panels = _log_term(u, xs, order_weights(n), n_angles)
    return values, bound, panels


def apply_K(n: int, u: GridFunction, x, n_angles: int = N_ANGLES) -> EvalReport:
    """K_n u(x) = int_{B1} (u(x)-u(y)) q_n dy - int_{|y-x|>1} u(y) q_n dy."""
    values, bound, panels = apply_K_batch(n, u, np.atleast_2d(x), n_angles)
    return EvalReport(float(values[0]), bound, panels)


def apply_L_batch(m: int, u: GridFunction, xs, ledger: CoeffLedger | None = None, n_angles: int = N_ANGLES):
    """Ledger combination sum_j alpha_j K_j u (with K_0 u = u) at many points."""
    led = ledger if ledger is not None else alpha_coeffs(m, u.dim)
    if led.m != m or led.dim != u.dim:
        raise PreconditionError("ledger order/dimension mismatch")
    diff, u0, bound, panels = _log_term(u, xs, led.alpha[1:], n_angles)
    return led.alpha[0] * u0 + diff, bound, panels


def apply_L(m: int, u: GridFunction, x, ledger: CoeffLedger | None = None, n_angles: int = N_ANGLES) -> EvalReport:
    total, bound, panels = apply_L_batch(m, u, np.atleast_2d(x), ledger, n_angles)
    return EvalReport(float(total[0]), bound, panels)


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


def frac_lap(s: float, u: GridFunction, x, n_angles: int = N_ANGLES) -> EvalReport:
    values, bound, panels = frac_lap_batch(s, u, np.atleast_2d(x), n_angles)
    return EvalReport(float(values[0]), bound, panels)


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


def riesz(s: float, u: GridFunction, x, n_angles: int = N_ANGLES) -> EvalReport:
    values, bound, panels = riesz_batch(s, u, np.atleast_2d(x), n_angles)
    return EvalReport(float(values[0]), bound, panels)


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
    rays from x between the exact domain crossings, independently of
    apply_K; the h term is the closed form of h_regional.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if domain.dim != u.dim:
        raise PreconditionError("domain/grid dimension mismatch")
    if not domain.contains(x):
        raise PreconditionError("evaluation point must lie inside the domain")
    if not u.contains(x):
        raise PreconditionError("evaluation point outside the grid box")
    _check_dini_clearance(u, x[None, :], INNER_CUT)

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
