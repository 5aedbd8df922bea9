"""Uniformly sampled compactly supported functions on a box.

A GridFunction stores node values on a uniform grid in dimension 1 or 2 and
is treated as identically zero outside its box.  Off-node samples come from
the not-a-knot cubic spline, a tensor product in 2D.  A cubic spline with a
knot at every node of a uniform grid is a sum of shifted uniform cubic
B-splines, so the spline is stored as a coefficient table, (n0 + 2) x (n1 + 2)
or one row of n + 2 in 1D, from one banded solve per axis (n interpolation
rows and the two not-a-knot rows, no jump of the third derivative at the
second and the second-to-last node).  A sample then reads its cell from
floor((x - origin) / spacing), four fixed cubic weights per axis, and the
window of coefficients around the cell; numpy does this elementwise in blocks
of fixed length, so a sample's value does not depend on the other samples and
the working set does not grow with their number.  Points outside the box, NaN
and infinities included, read 0.  Grids with fewer than 4 nodes on an axis
interpolate linearly: the table holds the values, read with two hat weights
per axis.  The declared Holder data (exponent alpha, constant C) must dominate
the interpolant's modulus of continuity, which keeps the analytic truncation
bounds of the singular quadrature honest.  Validation samples random
short-distance pairs and rejects declarations the data violates.

The node lattice is origin + i*spacing, i = 0..shape-1 per axis.  For
Fourier work the box is treated as periodic with period shape*spacing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import orjson
from scipy.linalg import solve_banded

from .errors import PreconditionError

_HOLDER_SAMPLES = 4000  # random point pairs per validate_holder check
_HOLDER_MIN_STEP = 1e-3  # shortest validate_holder distance, in units of the smallest spacing
_SPLINE_BLOCK = 1 << 14  # samples per block of the spline evaluator


def _not_a_knot_coefficients(values: np.ndarray, axis: int) -> np.ndarray:
    """Uniform B-spline coefficients of the not-a-knot cubic spline along one axis.

    On nodes k = 0..n-1 the spline is sum_j e_j b(x - j), j = -1..n, where
    b = 6 B and B is the uniform cubic B-spline centred at 0.  The rows are
    e_(k-1) + 4 e_k + e_(k+1) = u_k at each node, and the not-a-knot rows
    e_(-1) - 4 e_0 + 6 e_1 - 4 e_2 + e_3 = 0 (the fourth difference is the
    jump of the third derivative at node 1) and its mirror at node n-2.
    Stored with bandwidths (4, 4); the axis grows from n to n + 2.
    """
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    ab = np.zeros((9, n + 2))  # ab[4 + row - col, col]
    ab[5, :n], ab[4, 1 : n + 1], ab[3, 2:] = 1.0, 4.0, 1.0
    for k, c in enumerate((1.0, -4.0, 6.0, -4.0, 1.0)):
        ab[4 - k, k] = ab[8 - k, n - 3 + k] = c
    rhs = np.zeros((n + 2,) + v.shape[1:])
    rhs[1 : n + 1] = v
    return np.moveaxis(solve_banded((4, 4), ab, rhs), 0, axis)


def _cubic_weights(s: np.ndarray) -> tuple[np.ndarray, ...]:
    """b at s + 1, s, s - 1, s - 2: the four shifted B-splines nonzero at s in [0, 1]."""
    r = 1.0 - s
    s2, r2 = s * s, r * r
    w1 = (3.0 * s - 6.0) * s2 + 4.0
    w2 = (3.0 * r - 6.0) * r2 + 4.0
    r2 *= r  # now r^3
    s2 *= s  # now s^3
    return r2, w1, w2, s2


def _hat_weights(s: np.ndarray) -> tuple[np.ndarray, ...]:
    """The two hat functions nonzero at s in [0, 1], at the cell's left and right node."""
    return 1.0 - s, s


# row a: the power coefficients (s^0..s^3) of window weight a
_CUBIC_POWERS = np.array([[1.0, -3.0, 3.0, -1.0], [4.0, 0.0, -6.0, 3.0], [1.0, 3.0, 3.0, -3.0], [0.0, 0.0, 0.0, 1.0]])
_HAT_POWERS = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


class _UniformTensorSpline:
    """The interpolant of a grid: a coefficient table (in 1D one row, read with weight 1) and a blocked evaluator."""

    def __init__(self, u: "GridFunction"):
        coef = u.values.reshape((1,) * (2 - u.dim) + u.shape)
        solved = range(2 - u.dim, 2) if min(u.shape) >= 4 else ()
        for k, ax in enumerate(solved, start=1):
            coef = _not_a_knot_coefficients(coef, ax)
            # weights are >= 0 and sum to 6 per axis: finite 6^k max|coef| keeps samples and the next solve finite
            if not math.isfinite(6.0 ** k * float(np.max(np.abs(coef)))):
                raise PreconditionError("grid values give infinite spline slopes")
        self.coef = np.ascontiguousarray(coef)
        self.weights, self.powers = (_cubic_weights, _CUBIC_POWERS) if solved else (_hat_weights, _HAT_POWERS)
        self.lo, self.hi, self.spacing = u.box_lo, u.box_hi, u.spacing
        self.last_cell = tuple(n - 2 for n in u.shape)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """Values at points of shape (m, dim), zero outside the box."""
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], _SPLINE_BLOCK):
            out[start : start + _SPLINE_BLOCK] = self._block(pts[start : start + _SPLINE_BLOCK])
        return out

    def _axis(self, coord: np.ndarray, inside: np.ndarray, ax: int):
        """Cell index and the window weights along one axis; outside points are moved to the origin first."""
        t = np.where(inside, (coord - self.lo[ax]) / self.spacing[ax], 0.0)
        cell = np.minimum(np.floor(t), self.last_cell[ax])
        t -= cell
        cell = cell.astype(np.intp)  # drops the float copy before the weights are made
        return cell, self.weights(t)

    def _block(self, pts: np.ndarray) -> np.ndarray:
        # elementwise only, so a sample's value does not depend on the block it falls in
        inside = (pts[:, 0] >= self.lo[0]) & (pts[:, 0] <= self.hi[0])
        for ax in range(1, pts.shape[1]):
            inside &= (pts[:, ax] >= self.lo[ax]) & (pts[:, ax] <= self.hi[ax])
        stride = self.coef.shape[1]
        row, wy = self._axis(pts[:, -1], inside, -1)  # becomes the flat index of each window's first coefficient
        wx = (1.0,)  # a 1D grid is the table's one row, read with weight 1
        for ax in range(pts.shape[1] - 1):  # 2D: the window's first row
            cx, wx = self._axis(pts[:, ax], inside, ax)
            cx *= stride
            row += cx
            del cx  # each index array is dropped once folded in: the block's peak is what bounds memory
        flat = self.coef.ravel()
        acc = np.zeros(len(pts))
        for wa in wx:  # window row a: coefficients (cell_x + a, cell_y + b)
            along_y = flat.take(row) * wy[0]
            for b in range(1, len(wy)):
                along_y += flat[b:].take(row) * wy[b]
            along_y *= wa
            acc += along_y
            row += stride
        return np.where(inside, acc, 0.0)


@dataclass(frozen=True)
class GridFunction:
    dim: int
    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    shape: tuple[int, ...]
    values: np.ndarray
    holder_exponent: float
    holder_constant: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise PreconditionError("grid functions support dimension 1 or 2")
        if len(self.origin) != self.dim or len(self.spacing) != self.dim or len(self.shape) != self.dim:
            raise PreconditionError("origin/spacing/shape must all have dim entries")
        if not all(math.isfinite(v) for v in (*self.origin, *self.spacing)):
            raise PreconditionError("origin and spacing must be finite")
        if any(h <= 0 for h in self.spacing) or any(n < 2 for n in self.shape):
            raise PreconditionError("spacing must be positive and shape >= 2 per axis")
        vals = np.asarray(self.values, dtype=float)
        if vals.size != int(np.prod(self.shape)):
            raise PreconditionError("value count must match the grid shape")
        for o, h, n in zip(self.origin, self.spacing, self.shape):  # the last node and the period fit in a float
            last = o + (n - 1) * h
            if not (math.isfinite(last) and math.isfinite(n * h)):
                raise PreconditionError("grid box extent must be finite")
            # a step of _HOLDER_MIN_STEP spacings moves every coordinate in the box, so the
            # nodes are distinct and validate_holder's shortest distance is positive
            if not _HOLDER_MIN_STEP * h >= math.ulp(max(abs(o), abs(last))):
                raise PreconditionError("spacing is too small to separate the nodes at the box's coordinates")
        if not np.all(np.isfinite(vals)):
            raise PreconditionError("grid values must be finite")
        if not 0.0 < self.holder_exponent <= 1.0:
            raise PreconditionError("Holder exponent must lie in (0, 1]")
        if not math.isfinite(self.holder_constant):
            raise PreconditionError("Holder constant must be finite")
        if self.holder_constant < 0.0:
            raise PreconditionError("Holder constant must be nonnegative")
        object.__setattr__(self, "values", vals.reshape(self.shape))
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "spacing", tuple(float(x) for x in self.spacing))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    # -- geometry -----------------------------------------------------------

    @property
    def box_lo(self) -> np.ndarray:
        return np.array(self.origin)

    @property
    def box_hi(self) -> np.ndarray:
        """Last node per axis (the interpolation domain's far corner)."""
        return np.array([o + (n - 1) * h for o, h, n in zip(self.origin, self.spacing, self.shape)])

    @property
    def periods(self) -> np.ndarray:
        """Periodic box lengths shape*spacing used by the Fourier transform."""
        return np.array([n * h for n, h in zip(self.shape, self.spacing)])

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            o + h * np.arange(n) for o, h, n in zip(self.origin, self.spacing, self.shape)
        )

    def nodes(self) -> np.ndarray:
        """Every node as a (size, dim) array, in the row-major order of ``values``."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def _interpolator(self) -> _UniformTensorSpline:
        # spline slopes need finite divided differences; one can overflow only
        # when 2 max|u| / h does, so most grids skip the differences
        peak = max(float(self.values.max()), -float(self.values.min()))
        if not all(math.isfinite(2.0 * peak / h) for h in self.spacing):
            with np.errstate(over="ignore"):
                if not all(np.all(np.isfinite(np.diff(self.values, axis=ax) / h)) for ax, h in enumerate(self.spacing)):
                    raise PreconditionError("grid values' divided differences must be finite")
        return _UniformTensorSpline(self)

    def __call__(self, points) -> np.ndarray:
        """Evaluate at points (shape (..., dim) or (...,) in 1D); zero outside the box."""
        pts = np.asarray(points, dtype=float)
        return self._interpolator(pts.reshape(-1, self.dim)).reshape(pts.shape[: pts.ndim + 1 - self.dim])

    def cell_coefficients(self) -> np.ndarray:
        """Local power coefficients of the 1D interpolant, shape (4, n - 1).

        On cell j the interpolant is sum_p D[p, j] s^p in the cell's unit
        coordinate s = (x - x_j) / h in [0, 1]: each window of the spline
        table times the power coefficients of its weights (D[2] = D[3] = 0 on
        the linear table).  No power of h enters, so D is as finite as the
        table at any spacing.
        """
        if self.dim != 1:
            raise PreconditionError("cell coefficients are defined for 1D grids")
        table = self._interpolator
        windows = np.lib.stride_tricks.sliding_window_view(table.coef[0], len(table.powers))
        return table.powers.T @ windows.T

    def contains(self, point) -> bool:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return bool(np.all(p >= self.box_lo) and np.all(p <= self.box_hi))

    # -- norms on the lattice -------------------------------------------------

    def integral(self) -> float:
        return float(np.sum(self.values) * self.cell_volume)

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)) * self.cell_volume)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.values ** 2) * self.cell_volume))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    # -- derivation ------------------------------------------------------------

    def with_values(self, values, alpha: float | None = None, const: float | None = None) -> "GridFunction":
        """Same geometry, new samples; Holder constant re-estimated if not given."""
        vals = np.asarray(values, dtype=float).reshape(self.shape)
        a = self.holder_exponent if alpha is None else alpha
        c = estimate_holder_constant(vals, self.spacing, a) if const is None else const
        return GridFunction(self.dim, self.origin, self.spacing, self.shape, vals, a, c)

    def validate_holder(self) -> None:
        """Check the declared (alpha, C) dominates the interpolant by sampling.

        The samples come from a fixed seed, so a grid passes or fails the same
        way on every run.  Raises PreconditionError on violation; meant for
        load time.
        """
        rng = np.random.default_rng(0)
        lo, hi = self.box_lo, self.box_hi
        a = rng.uniform(lo, hi, size=(_HOLDER_SAMPLES, self.dim))
        shortest = _HOLDER_MIN_STEP * min(self.spacing)
        # distances from the shortest to 1, or the shortest alone where it exceeds 1
        dist = np.exp(rng.uniform(np.log(shortest), np.log(max(shortest, 1.0)), _HOLDER_SAMPLES))
        direction = rng.normal(size=(_HOLDER_SAMPLES, self.dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        b = a + direction * dist[:, None]
        ua = self(a if self.dim == 2 else a[:, 0])
        ub = self(b if self.dim == 2 else b[:, 0])
        gap = np.abs(ua - ub) - self.holder_constant * dist ** self.holder_exponent
        tol = 1e-9 * max(1.0, float(np.max(np.abs(self.values))))
        worst = float(np.max(gap))
        if worst > tol:
            raise PreconditionError(
                f"declared Holder data violated by sampled modulus (excess {worst:.3e})"
            )


def estimate_holder_constant(values: np.ndarray, spacing, alpha: float) -> float:
    """Upper estimate of the C^alpha seminorm of the interpolant: 1.5 times the largest grid difference quotient."""
    vals = np.asarray(values, dtype=float)
    worst = 0.0
    for ax, h in enumerate(spacing):
        d = np.abs(np.diff(vals, axis=ax))
        if d.size:
            worst = max(worst, float(np.max(d)) / h ** alpha)
    # also guard the drop to zero at the box edge
    edge = 0.0
    for ax, h in enumerate(spacing):
        edge = max(
            edge,
            float(np.max(np.abs(np.take(vals, 0, axis=ax)))) / h ** alpha,
            float(np.max(np.abs(np.take(vals, -1, axis=ax)))) / h ** alpha,
        )
    return 1.5 * max(worst, edge, 1e-300)


# -- canonical test bumps ------------------------------------------------------


def _standard_axes(dim: int, halfwidth: float, nodes: int):
    h = 2.0 * halfwidth / nodes
    origin = (-halfwidth,) * dim
    spacing = (h,) * dim
    shape = (nodes,) * dim
    axes = [np.arange(n) * h - halfwidth for n in shape]
    return origin, spacing, shape, axes


def gaussian_bump(dim: int = 1, halfwidth: float = 20.0, nodes: int | None = None, width: float = 1.0) -> GridFunction:
    """exp(-|x|^2 / width^2) sampled on the default periodic box."""
    nodes = nodes or (4096 if dim == 1 else 512)
    origin, spacing, shape, axes = _standard_axes(dim, halfwidth, nodes)
    if dim == 1:
        r2 = axes[0] ** 2
    else:
        r2 = axes[0][:, None] ** 2 + axes[1][None, :] ** 2
    vals = np.exp(-r2 / width ** 2)
    c = estimate_holder_constant(vals, spacing, 1.0)
    return GridFunction(dim, origin, spacing, shape, vals, 1.0, c)


def gaussian_derivative_bump(dim: int = 1, halfwidth: float = 20.0, nodes: int | None = None, width: float = 0.25) -> GridFunction:
    """Mean-zero odd bump x_1 exp(-|x|^2 / width^2), the default spectral test function.

    The default width keeps the slowly decaying operator tails small against
    the periodic box, so quadrature and spectral paths agree to 1e-3.
    """
    nodes = nodes or (4096 if dim == 1 else 512)
    origin, spacing, shape, axes = _standard_axes(dim, halfwidth, nodes)
    if dim == 1:
        vals = axes[0] * np.exp(-(axes[0] ** 2) / width ** 2)
    else:
        r2 = axes[0][:, None] ** 2 + axes[1][None, :] ** 2
        vals = axes[0][:, None] * np.exp(-r2 / width ** 2)
    c = estimate_holder_constant(vals, spacing, 1.0)
    return GridFunction(dim, origin, spacing, shape, vals, 1.0, c)


def box_indicator(lo: float, hi: float, halfwidth: float = 20.0, nodes: int = 4096) -> GridFunction:
    """1D indicator of [lo, hi] sampled on the default box (alpha = 1 away from jumps)."""
    origin, spacing, shape, axes = _standard_axes(1, halfwidth, nodes)
    vals = ((axes[0] >= lo) & (axes[0] <= hi)).astype(float)
    return GridFunction(1, origin, spacing, shape, vals, 1.0, 0.0)


# -- JSON round trip ------------------------------------------------------------


def _header(u: GridFunction) -> dict:
    """Every field of the grid file but its values."""
    return {
        "dim": u.dim,
        "origin": list(u.origin),
        "spacing": list(u.spacing),
        "shape": list(u.shape),
        "holder": {"alpha": u.holder_exponent, "const": u.holder_constant},
    }


def grid_to_dict(u: GridFunction) -> dict:
    return {**_header(u), "values": u.values.reshape(-1).tolist()}


def grid_from_dict(data: dict) -> GridFunction:
    """The grid of a parsed grid file; its Holder data are not checked (load_grid does)."""
    try:
        return GridFunction(
            dim=int(data["dim"]),
            origin=tuple(data["origin"]),
            spacing=tuple(data["spacing"]),
            shape=tuple(data["shape"]),
            values=np.asarray(data["values"], dtype=float),
            holder_exponent=float(data["holder"]["alpha"]),
            holder_constant=float(data["holder"]["const"]),
        )
    except PreconditionError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise PreconditionError(f"malformed grid file: {exc}") from exc


def save_grid(u: GridFunction, path) -> None:
    """Write u as compact JSON with shortest round-trip floats, straight from its value buffer."""
    data = _header(u)
    data["values"] = np.ascontiguousarray(u.values).reshape(-1)  # orjson takes C-contiguous arrays only
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(data, option=orjson.OPT_SERIALIZE_NUMPY))


def load_grid(path) -> GridFunction:
    """Read a grid file and check its declared Holder data (validate_holder)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    u = grid_from_dict(data)
    u.validate_holder()  # with data still alive: freeing it first measured a higher peak RSS
    return u
