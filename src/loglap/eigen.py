"""Galerkin discretization of the nonlocal quadratic forms and eigensolving.

Trial space: piecewise constants on mesh cells.  Indicators of Lipschitz
cells have finite energy for logarithmic-order kernels.  For a kernel k_w
given by its weight vector w (see the kernels module) the difference matrix is

    S(w)_ii = 2 int_C int_{B_1(x) \\ C} k_w,   S(w)_il = -2 int_Ci int_Cl k_w 1_{|x-y|<1}

and A(w) holds the cell integrals of k_w beyond unit distance.  Each form
integrates one kernel, the ledger's combined kernel w = (alpha_1..alpha_m)
or the single order q_m:

    I_m:  alpha_0 M + S(w) - A(w)
    G_m:  S(q_m) - A(q_m)
    Q_m:  I_m + c M

with M the diagonal mass matrix of cell measures.  The convolution part is
assembled only for domains of diameter at least one; below that no point
pair reaches the kernel's support.  Q_m cuts the kernel at its positivity
radius r0 and lives on domains inside B_(r0/2), where no two points are
more than r0 apart; so the cut removes the annulus r0 < |z| < 1 from each
self-energy alone: c = -2 omega_N (P(1) - P(r0)), P = radial_antiderivative.

Every matrix is kept as three parts (StiffnessParts), K = diag(d) +
Lat(table) + Off, and applied as an operator; no n x n array is built
unless asked for.  d holds the self-energies plus alpha_0 M.  Lat is the
lattice block, one value per integer offset of the lattice's box: lattice
cells sit at linear positions, and Lat x is one real 1D correlation of the
offset table with x scattered to those positions, applied by FFT.  Off is
a symmetric CSR matrix of the pairs that touch an off-lattice cell.  S and
A share the lattice, so I_m's parts are -2 table_S - table_A, -2 Off_S -
Off_A and d.
Storage is O(n) on lattice meshes.  FormMatrices holds the parts and the
mass diagonal.

The lowest k eigenpairs of (stiffness, mass) come from Lanczos iteration
(ARPACK) on the operator M^-1/2 K M^-1/2, started from a fixed-seed normal
vector so that results are deterministic and modes of either parity are
reached on symmetric domains; dense eigh on the n x n matrix, the only one
any form builds, serves only k >= n - 1.  The Q form's PSD check is the
same solve at k = 1: M is a positive diagonal, so K is PSD exactly when
lambda_min(K, M) >= 0.  A k = 1 solve is kept with the matrices, so
eigensolve(Q, 1) after the check does not run it again.
Eigenvectors are mass-orthonormal with the largest-magnitude entry made
positive.  The residual check applies K from its parts too, and bounds
each pair's residual by its relative backward error, 1e-6 |K| max|v|.

Mesh cells are one float64 array, (lo, hi) rows in 1D and (x0, y0, x1,
y1, clipped) rows in 2D, read here as they are.  S and A share one pair
driver, the integral of k_w over cell pairs at distances in (lo, hi):
(0, 1) for S, (1, inf) for A.  It has two stages, the same in both
dimensions.  Lattice cells, the cells of the most common class at integer
multiples of its mean side from its first cell (uniform intervals, the
gapped fk split, rectangles, a disk's unclipped interior), pair by integer
offset, which makes the offset table; a matvec reads only the offsets
that occur.  An offset's mirror images give congruent pairs: +-k in 1D,
(+-dx, +-dy) in 2D, with (dy, dx) too when the cells are squares.  Each
such mirror class takes one integral, on two cells rebuilt on the
lattice's grid, and its value fills every table position of the class
(_mirror_classes).  Pairs that touch an off-lattice cell (a second width,
clipped disk cells) are grouped by class pair and centre offset and
integrated once per group.
Every clipped cell is a class of its own, so a pair with a clipped cell
is a group of one; those pairs share work by symmetry orbit (below).
Entries are, in one dimension, the closed form (a Gauss rule on tent pieces
far from the origin).  In two, the pairs split by admissibility into three
classes:

* far: the box gap is at least the larger box diameter and every distance
  lies inside (lo, hi).  The kernel is smooth there, and all such pairs are
  one batched point-pair sum sum_a sum_b w_a w_b k_w(|x_a - y_b|) over
  per-cell rules: tensor Gauss points on an unclipped box, and on a clipped
  cell an exact-geometry chord rule (Gauss nodes along the exact chords of
  box cap disk, panels split where the circle crosses the box).  The points
  per axis fall with gap / diameter (Sauter & Schwab, Boundary Element
  Methods, ch. 5): 6 below 3.6, then 5, 4 from 10.5 and 3 from 40.5
  (_FAR_BANDS), one rule table per order used.  The sums run in chunks of a
  fixed element budget.
* near, two unclipped boxes: the closed form rect_pair_integral_2d.
* near, with a clipped cell: a polar inner integral over the target
  (closed-form radial antiderivative, angular Gauss panels split at the box
  corners and at the circle crossings) under graded points on the outer
  cell, which is the unclipped one if there is one; a clipped outer cell
  takes the chord rule on its graded sub-boxes.

The disk's grid is centred on the disk, so the pairs with a clipped cell,
far or near, fall into orbits of up to 8 congruent pairs under the
symmetries x -> +-x, y -> +-y, x <-> y about the centre; each orbit is
integrated once, on the pair rebuilt from its key (_orbits).

The self-energy of an unclipped cell is the dimension's pair closed form
on the cell paired with itself, whose profile is |C| - ov in place of the
overlap ov, taken once per cell class in one pass for both dimensions
(_self_energies).  Those of clipped cells are taken once per orbit, as the
pairs.  All of these rules
share one core: Gauss panels from quadrature.panel_rule, angular panels
split at kink directions from quadrature.angle_rule, and radial pieces in
the closed form of kernels._profile_integral.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .coeffs import CoeffLedger, alpha_coeffs, omega
from .domains import Disk, Interval, Mesh, mesh_intervals, mesh_rectangles, ray_box, ray_disk
from . import kernels
from .errors import NumericalError, PreconditionError
from .kernels import (
    _profile_integral,
    cell_pair_tent_integral,
    combined_kernel,
    order_weights,
    radial_antiderivative,
    rect_pair_integral_2d,
)
from .quadrature import angle_rule, panel_rule

_FORM_KINDS = ("I", "G", "Q")
_GRADING = np.array([0.0, 1.0 / 1024.0, 1.0 / 256.0, 1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0, 1.0])  # toward near targets
_SELF_ORDER = 8  # clipped self-energy: box Gauss points per axis
_SELF_ANGLE_ORDER = 10  # clipped self-energy: angular Gauss points per panel
_NEAR_ANGLE_ORDER = 10  # near pairs with a clipped cell: angular Gauss points per wedge panel
_BOX_SELF_ORDER = 24  # unclipped self-energy: angular Gauss points per panel (12 leaves an aspect-5 box up to 3e-10 off)
_CHUNK = 1 << 13  # elements per chunk: point pairs of a far sum, rays of a near pair, 1D closed-form pairs
_PAIR_BLOCK = 1 << 18  # candidate pairs per row block of the off-lattice pair search
# Far rule bands: from gap / diameter `ratio` on, `order` Gauss points per axis (never more than the
# nearest band's).  Chosen from a sweep against order-12 point-pair sums on square cells of side 0.0025
# to 0.1 (m = 1..3, the weights of I_m and q_m, distances below 0.75 or beyond 1.25): each band stays
# within 4e-12 relative, the 6 x 6 rule's error at the (2, 2) threshold for m = 2.  Each break lies
# between two lattice ratios of square cells (2 ratio^2 is no sum of two squares), so an ulp cannot
# move a mirrored pair to another band.
_FAR_BANDS = ((3.6, 5), (10.5, 4), (40.5, 3))
# The weight of S: the 2 of S_ii and S_il in the module docstring, on every
# pair integral and self-energy and on Q's shift c.  The form of the symbol
# (2 ln|xi|)^m has weight 1 (ROADMAP, item 2); that fix is this one constant.
_PAIR_WEIGHT = 2.0


@dataclass(eq=False)
class StiffnessParts:
    """A symmetric cell matrix K = diag(d) + Lat(table) + Off, applied as K @ x.

    Lat is the lattice block: lattice cell members[j], at linear position
    pos[j] (_positions), meets members[k] in table[top - pos[j] + pos[k]].
    The table holds one entry per offset of the lattice's box [-S, S] per
    axis (S the largest step) in position order, so its length is 2 top + 1
    with top the position of S; a product reads only the offsets that two
    lattice cells span.  Off is a symmetric CSR matrix of the pairs that
    touch an off-lattice cell.  The diagonal, the lattice pairs and the
    off-lattice pairs have disjoint supports.
    """

    diag: np.ndarray
    members: np.ndarray
    pos: np.ndarray
    table: np.ndarray
    off: scipy.sparse.csr_array

    @functools.cached_property
    def _lattice_plan(self):
        """FFT length, the table's spectrum and where each lattice cell's output sits.

        The table is symmetric, so Lat x is its convolution with the
        occupancy vector (x[members] at pos).  An FFT of 2 top + 1 points
        holds the outputs top..2 top free of wrap-around; cell j reads
        top + pos[j].  numpy's FFT, not scipy's: its smaller call overhead
        matters on meshes of a few hundred cells.
        """
        size = scipy.fft.next_fast_len(self.table.size, real=True)
        return size, np.fft.rfft(self.table, size), self.table.size // 2 + self.pos

    def __matmul__(self, x) -> np.ndarray:
        """K x for a vector (n,) or for the columns of a matrix (n, k)."""
        x = np.asarray(x, dtype=float)
        col = (slice(None),) + (None,) * (x.ndim - 1)
        y = self.diag[col] * x
        if self.off.nnz:
            y += self.off @ x
        size, spectrum, at = self._lattice_plan
        occ = np.zeros((size,) + x.shape[1:])
        occ[self.pos] = x[self.members]
        y[self.members] += np.fft.irfft(np.fft.rfft(occ, axis=0) * spectrum[col], size, axis=0)[at]
        return y

    def __abs__(self) -> StiffnessParts:
        return replace(self, diag=np.abs(self.diag), table=np.abs(self.table), off=abs(self.off))

    def __sub__(self, other: StiffnessParts) -> StiffnessParts:
        """The difference of two matrices on one mesh, which share its lattice."""
        return replace(self, diag=self.diag - other.diag, table=self.table - other.table, off=self.off - other.off)

    def toarray(self) -> np.ndarray:
        """The dense n x n matrix: the lattice block, one row of table values per lattice cell, then Off and the diagonal."""
        n, members, pos = self.diag.size, self.members, self.pos
        K = np.zeros((n, n))
        top = self.table.size // 2
        for row, a in zip(members, pos):
            K[row, members] = self.table[top - a + pos]
        off = self.off.tocoo()
        K[off.coords] = off.data
        K[np.diag_indices(n)] = self.diag
        return K


@dataclass(frozen=True)
class FormMatrices:
    """A form's stiffness K as parts (StiffnessParts) and its diagonal mass M; parts.toarray() is the dense K.

    _lowest holds the result of the first _lowest_pairs(self, 1) solve (for
    Q, the PSD check's), which a later k = 1 solve returns; replace() starts
    a copy without it.
    """

    parts: StiffnessParts = field(repr=False)
    mass: np.ndarray  # diagonal entries (cell measures)
    _lowest: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.mass.size


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns, mass-orthonormal

    def gap(self) -> float:
        """Spectral gap lambda_2 - lambda_1 (reported, never asserted positive)."""
        if self.eigenvalues.size < 2:
            raise PreconditionError("gap needs at least two computed eigenvalues")
        return float(self.eigenvalues[1] - self.eigenvalues[0])


# ---------------------------------------------------------------------------
# 1D assembly (closed forms)


def _pair_values_1d(w, mesh: Mesh, i, l, lo, hi) -> np.ndarray:
    """cell_pair_tent_integral on the pairs (i, l), _CHUNK per call."""
    out = np.empty(np.size(i))
    for s in range(0, out.size, _CHUNK):
        a, b = mesh.cells[i[s : s + _CHUNK]], mesh.cells[l[s : s + _CHUNK]]
        out[s : s + _CHUNK] = cell_pair_tent_integral(w, a[:, 0], a[:, 1], b[:, 0], b[:, 1], lo, hi)
    return out


# ---------------------------------------------------------------------------
# 2D assembly (far: point-pair sums on per-cell rules; near: closed form or polar)


def _sub_boxes(cell, grade):
    """Sub-boxes (K, 4) of a cell's box, graded toward a near target.

    Near-pair inner integrals blow up like log(distance to the target cell).
    Toward a target across one side (grade +1/-1 on one axis) the panels
    shrink geometrically to that side; toward a corner neighbour, singular
    at one point only, nested L-shaped layers (three boxes each) shrink to
    that corner.
    """
    f = _GRADING
    if grade[0] and grade[1]:
        layers = [(0.0, 0.0, f[1], f[1])]
        for a, b in zip(f[1:-1], f[2:]):
            layers += [(a, 0.0, b, a), (0.0, a, a, b), (a, a, b, b)]
        frac = np.array(layers)
    elif grade[0] or grade[1]:
        frac = np.column_stack([f[:-1], np.zeros(f.size - 1), f[1:], np.ones(f.size - 1)])
        if grade[1]:
            frac = frac[:, [1, 0, 3, 2]]
    else:
        frac = np.array([[0.0, 0.0, 1.0, 1.0]])
    boxes = np.empty_like(frac)
    for ax in (0, 1):
        lo, hi = cell[ax], cell[ax + 2]
        if grade[ax] > 0:  # fractions run from the hi side
            boxes[:, ax], boxes[:, ax + 2] = hi - (hi - lo) * frac[:, ax + 2], hi - (hi - lo) * frac[:, ax]
        else:
            boxes[:, ax], boxes[:, ax + 2] = lo + (hi - lo) * frac[:, ax], lo + (hi - lo) * frac[:, ax + 2]
    return boxes


def _box_gauss(boxes, order):
    """order x order tensor Gauss points and weights, each (K, order^2), on K boxes."""
    (x, wx), (y, wy) = panel_rule(boxes[:, [0, 2]], order), panel_rule(boxes[:, [1, 3]], order)
    wts = wx[:, :, None] * wy[:, None, :]
    return np.repeat(x, order, axis=1), np.tile(y, order), wts.reshape(len(boxes), -1)


def _pair_grading(ci, cl):
    """Which cell-i sides face a touching/near target cell l (per axis)."""
    eps = 1e-12
    gap_right = cl[0] - ci[2]
    gap_left = ci[0] - cl[2]
    gap_up = cl[1] - ci[3]
    gap_down = ci[1] - cl[3]
    near = 0.5 * min(ci[2] - ci[0], ci[3] - ci[1])
    gx = 1 if -eps <= gap_right < near else (-1 if -eps <= gap_left < near else 0)
    gy = 1 if -eps <= gap_up < near else (-1 if -eps <= gap_down < near else 0)
    return gx, gy


def _chord_rule(boxes, disk: Disk, order):
    """Points and weights (x, y, w), each (K, 7 order^2), on box cap disk for K boxes.

    The outer variable u runs along the axis on which the disk's half-width
    s(u) is smooth over the box: y for boxes nearer the disk's left/right
    extremes, x otherwise.  Its panels split where the circle crosses the
    box's v-edges (kinks of the chord) and at the disk's u-extremes, and
    each takes its Gauss nodes in sqrt|u - e| from the nearer extreme e,
    which removes the square-root branch point of s at e.  At every outer
    node the inner Gauss nodes span the exact chord
    [max(v0, c_v - s), min(v1, c_v + s)].  Empty panels and chords carry
    zero weight.

    On a diagonal cell (|dx| == |dy| from the centre) the outer axis is a
    tie that an ulp of the box edges decides, and the two rules agree only
    to the quadrature error (mirrored near pairs differed by up to 1.9e-5
    when each was evaluated on its own cells).  Near pairs and clipped
    self-energies therefore evaluate each orbit on the cells rebuilt from
    its key (_orbits), never on a member's own edges.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    k = np.arange(len(boxes))
    centre, r = np.array([disk.cx, disk.cy]), disk.r
    mid = 0.5 * (boxes[:, :2] + boxes[:, 2:])
    swap = np.abs(mid[:, 0] - centre[0]) > np.abs(mid[:, 1] - centre[1])
    ax = swap.astype(int)  # the outer axis
    u0, u1, v0, v1 = boxes[k, ax], boxes[k, ax + 2], boxes[k, 1 - ax], boxes[k, 3 - ax]
    cu, cv = centre[ax], centre[1 - ax]
    s0, s1 = (np.sqrt(np.maximum((r - abs(v - cv)) * (r + abs(v - cv)), 0.0)) for v in (v0, v1))
    cand = np.stack([u0, u1, cu - r, cu + r, cu - s0, cu + s0, cu - s1, cu + s1], axis=1)
    bounds = np.sort(np.clip(cand, u0[:, None], u1[:, None]), axis=1)
    p0, p1 = bounds[:, :-1, None], bounds[:, 1:, None]  # (K, 7, 1): one row per panel
    # Gauss in sigma = sqrt(|u - e|) from the nearer extreme e, where s(u) = sigma sqrt(2r - sigma^2) is smooth
    side = np.where(p0 + p1 < 2.0 * cu[:, None, None], 1.0, -1.0)
    e = cu[:, None, None] - side * r
    sig = np.concatenate([np.sqrt(np.maximum(side * (p - e), 0.0)) for p in (p0, p1)], axis=2)
    sig, wsig = panel_rule(np.sort(sig, axis=2), order)
    u = e + side * sig * sig
    wu = 2.0 * sig * wsig
    du = np.abs(u - cu[:, None, None])
    s = np.sqrt(np.maximum((r - du) * (r + du), 0.0))
    v_lo = np.maximum(v0[:, None, None], cv[:, None, None] - s)
    v_hi = np.maximum(np.minimum(v1[:, None, None], cv[:, None, None] + s), v_lo)  # empty chords: zero width
    v, wv = panel_rule(np.stack([v_lo, v_hi], axis=-1), order)
    u = np.broadcast_to(u[..., None], v.shape)
    wts = wu[..., None] * wv
    flip = swap[:, None, None, None]
    shape = (len(boxes), -1)
    return np.where(flip, v, u).reshape(shape), np.where(flip, u, v).reshape(shape), wts.reshape(shape)


def _outer_rule(cell, disk, order, grade):
    """Points and weights on a cell, graded toward a near target (_sub_boxes).

    Tensor Gauss on the sub-boxes of an unclipped box; the chord rule on
    those of a clipped one, so the points cover exactly the cell's part of
    the disk.
    """
    boxes = _sub_boxes(cell, grade)
    px, py, pw = (a.ravel() for a in (_chord_rule(boxes, disk, order) if cell[4] else _box_gauss(boxes, order)))
    live = pw > 0.0
    return px[live], py[live], pw[live]


def _circle_crossings(cell, disk):
    """Points (xs, ys) where the disk's circle meets the boundary of a cell's box."""
    x0, y0, x1, y1 = cell[:4]
    edge = np.array([x0, x1, y0, y1])  # two vertical, then two horizontal edges
    vertical = np.array([True, True, False, False])[:, None]
    d = np.abs(edge - np.where(vertical[:, 0], disk.cx, disk.cy))
    half = np.sqrt(np.maximum((disk.r - d) * (disk.r + d), 0.0))
    along = np.where(vertical, disk.cy, disk.cx) + half[:, None] * np.array([-1.0, 1.0])
    hit = (d <= disk.r)[:, None] & (along >= np.where(vertical, y0, x0)) & (along <= np.where(vertical, y1, x1))
    return np.where(vertical, edge[:, None], along)[hit], np.where(vertical, along, edge[:, None])[hit]


def _wedge_rule(px, py, cell, order, extra):
    """Angular Gauss nodes covering the wedge a rectangle subtends from p.

    The radial entry/exit of a ray into a convex box is smooth in the angle
    except where the active face changes, i.e. at the corner directions; the
    wedge between the extreme corner angles is split there, giving three
    smooth panels per source point.  The directions of the extra boundary
    points (xs, ys) split it too: for a cell clipped to the disk, where the
    exit switches between a box face and the circle (_circle_crossings).
    """
    cx, cy = np.concatenate([cell[[0, 0, 2, 2]], extra[0]]), np.concatenate([cell[[1, 3, 1, 3]], extra[1]])
    ctr = np.arctan2(0.5 * (cell[1] + cell[3]) - py, 0.5 * (cell[0] + cell[2]) - px)
    return angle_rule(cx - px[:, None], cy - py[:, None], order, ref=ctr)


def _radial_segment(w, t_in, t_out, lo, hi):
    """int_{t_in}^{t_out} p(-2 ln t) dt / t per ray, the segment clipped to [lo, hi]."""
    a = np.clip(t_in, lo, hi)
    b = np.clip(t_out, lo, hi)
    good = b > a  # other rays get the empty piece [1, 1]
    return _profile_integral(w, np.where(good, a, 1.0), np.where(good, b, 1.0), 1.0, 0.0, 0.0)


def _cell_span(p, d, cell, disk):
    """(t_in, t_out) of the rays p + t*d with a cell, cut to the disk when the cell is clipped."""
    t_in, t_out = ray_box(p, d, cell[:2], cell[2:4])
    if cell[4] and disk is not None:
        c_in, c_out = ray_disk(p, d, (disk.cx, disk.cy), disk.r)
        t_in, t_out = np.maximum(t_in, c_in), np.minimum(t_out, c_out)
    return t_in, t_out


def _inner_cell_integral_2d(w, px, py, target_cell, disk, lo, hi):
    """int_{C_l, lo<|p-y|<hi} k_w(p - y) dy per point p, by wedge angles and exact radii.

    The points run in chunks of at most _CHUNK rays.
    """
    extra = _circle_crossings(target_cell, disk) if disk is not None and target_cell[4] else ((), ())
    step = max(1, _CHUNK // ((3 + len(extra[0])) * _NEAR_ANGLE_ORDER))
    out = np.empty(px.size)
    for s in range(0, px.size, step):
        x, y = px[s : s + step], py[s : s + step]
        phi, wts = _wedge_rule(x, y, target_cell, _NEAR_ANGLE_ORDER, extra)
        t_in, t_out = _cell_span((x[:, None], y[:, None]), (np.cos(phi), np.sin(phi)), target_cell, disk)
        out[s : s + step] = np.sum(_radial_segment(w, t_in, t_out, lo, hi) * wts, axis=1)
    return out


def _self_energy_2d(w, cell, disk):
    px, py, pw = (a.ravel() for a in _box_gauss(np.array([cell[:4]]), _SELF_ORDER))
    inside = (px - disk.cx) ** 2 + (py - disk.cy) ** 2 <= disk.r ** 2  # box Gauss points in the disk
    px, py, pw = px[inside], py[inside], pw[inside]
    phi, wts = angle_rule(cell[[0, 0, 2, 2]] - px[:, None], cell[[1, 3, 1, 3]] - py[:, None], _SELF_ANGLE_ORDER)
    _, t_out = _cell_span((px[:, None], py[:, None]), (np.cos(phi), np.sin(phi)), cell, disk)
    inner = np.sum(_radial_segment(w, t_out, 1.0, 1e-300, 1.0) * wts, axis=1)  # from the exit to unit distance
    return _PAIR_WEIGHT * float(np.sum(inner * pw))


def _mesh_disk(mesh: Mesh) -> Disk | None:
    return next((p for p in mesh.domain.pieces if isinstance(p, Disk)), None)


def _gaps(cells, i, l):
    """Box gap, larger box diameter and largest point distance per pair."""
    lo_i, hi_i, lo_l, hi_l = cells[i, :2], cells[i, 2:4], cells[l, :2], cells[l, 2:4]
    gap = np.hypot.reduce(np.maximum(np.maximum(lo_i - hi_l, lo_l - hi_i), 0.0), axis=1)
    span = np.hypot.reduce(np.maximum(hi_i - lo_l, hi_l - lo_i), axis=1)
    diam = np.maximum(np.hypot.reduce(hi_i - lo_i, axis=1), np.hypot.reduce(hi_l - lo_l, axis=1))
    return gap, diam, span


def _far_pairs(cells, i, l, lo, hi) -> np.ndarray:
    """Admissible pairs: box gap at least the larger box diameter, every distance inside (lo, hi)."""
    gap, diam, span = _gaps(cells, i, l)
    # the slack keeps a gap equal to the diameter (the (2, 2) lattice offset) far in every translate
    return (gap >= (1.0 - 1e-9) * diam) & (gap > lo) & (span < hi)


def _far_orders(cells, i, l, order) -> np.ndarray:
    """Points per axis of each far pair's rule: order up to the first of _FAR_BANDS, then the bands' orders (at most order)."""
    gap, diam, _ = _gaps(cells, i, l)
    q = np.full(np.size(i), order)
    for ratio, band in _FAR_BANDS:
        q[gap >= ratio * diam] = min(order, band)
    return q


def _cell_rules(cells, disk, order):
    """Every cell's far rule of one order, flat: points and weights (x, y, w) with each cell's start and size.

    order x order tensor Gauss points on an unclipped box, the live points of
    the chord rule on a clipped cell (built for at most _CHUNK candidate
    points at a time).  A cell's points depend only on that cell and the
    order; the far sums build one such table per order they use.
    """
    per_box = order * order
    x, y, wts = (a.ravel() for a in _box_gauss(cells[:, :4], order))
    keep = np.repeat(cells[:, 4] == 0.0, per_box)
    parts = [(np.repeat(np.arange(len(cells)), per_box)[keep], x[keep], y[keep], wts[keep])]
    clipped = np.flatnonzero(cells[:, 4] > 0.0)
    step = max(1, _CHUNK // (7 * per_box))
    for s in range(0, clipped.size, step):
        c = clipped[s : s + step]
        x, y, wts = (a.ravel() for a in _chord_rule(cells[c, :4], disk, order))
        live = wts > 0.0
        parts.append((np.repeat(c, 7 * per_box)[live], x[live], y[live], wts[live]))
    owner, x, y, wts = (np.concatenate(p) for p in zip(*parts))
    by_cell = np.argsort(owner, kind="stable")
    size = np.bincount(owner, minlength=len(cells))
    return x[by_cell], y[by_cell], wts[by_cell], np.cumsum(size) - size, size


def _far_sums(w, cells, disk, i, l, order) -> np.ndarray:
    """The point-pair sums of far pairs, each on the rules of its band's order (_far_orders)."""
    q = _far_orders(cells, i, l, order)
    out = np.empty(q.size)
    for band in np.unique(q):  # rules for the cells of this band's pairs only
        sel = np.flatnonzero(q == band)
        used, at = np.unique(np.concatenate([i[sel], l[sel]]), return_inverse=True)
        out[sel] = _far_values(w, _cell_rules(cells[used], disk, band), *np.split(at.ravel(), 2))
    return out


def _far_values(w, rules, i, l) -> np.ndarray:
    """sum_a sum_b w_a w_b k_w(|x_a - y_b|) per pair, batched by the pair's two rule sizes.

    Chunks hold at most _CHUNK point pairs.  Each pair reduces over its
    own points along contiguous last axes, so its value does not depend on
    which other pairs share its chunk.
    """
    x, y, wts, start, size = rules
    out = np.empty(i.size)
    kinds = size[i] * (size.max() + 1) + size[l]
    coef = np.atleast_1d(np.asarray(w, dtype=float))
    for kind in np.unique(kinds):
        sel = np.flatnonzero(kinds == kind)
        na, nb = size[i[sel[0]]], size[l[sel[0]]]
        step = max(1, _CHUNK // (na * nb))
        for s in range(0, sel.size, step):
            p = sel[s : s + step]
            a = start[i[p], None] + np.arange(na)
            b = start[l[p], None] + np.arange(nb)
            d2 = x[a][:, :, None] - x[b][:, None, :]
            d2 *= d2
            dy = y[a][:, :, None] - y[b][:, None, :]
            dy *= dy
            d2 += dy
            np.log(d2, out=dy)
            dy *= -1.0  # tau = -2 ln t
            k = np.full_like(d2, coef[-1])
            for c in coef[-2::-1]:
                k *= dy
                k += c
            k /= d2
            k *= wts[b][:, None, :]
            out[p] = np.sum(np.sum(k, axis=2) * wts[a], axis=1)
    return out


def _polar_pair_value(w, cells, disk, a, b, lo, hi, order) -> float:
    """Points on cell a (graded toward cell b when lo == 0) times the polar inner integral over b."""
    grade = _pair_grading(cells[a], cells[b]) if lo == 0.0 else (0, 0)
    px, py, pw = _outer_rule(cells[a], disk, order, grade)
    return float(np.sum(_inner_cell_integral_2d(w, px, py, cells[b], disk, lo, hi) * pw))


# The 8 images of a box under x -> +-x, y -> +-y and x <-> y, as columns of (flag, x0, y0, x1, y1, -x1, -y1, -x0, -y0)
_BOX_IMAGES = np.array([[0, 1, 2, 3, 4], [0, 2, 1, 4, 3], [0, 5, 2, 7, 4], [0, 2, 5, 4, 7],
                        [0, 1, 6, 3, 8], [0, 6, 1, 8, 3], [0, 5, 6, 7, 8], [0, 6, 5, 8, 7]])


def _orbits(cells, disk, members):
    """Tuples of cells grouped by their orbit under the 8 symmetries of the disk grid.

    mesh_rectangles centres a disk's grid on the disk, so x -> +-x,
    y -> +-y and x <-> y about the centre map its cells onto cells.  Box
    coordinates relative to the centre, in units of the clipped cells' side
    and rounded to 9 decimals, are coded by their rank among those values
    and their negatives, so a reflection maps code c to N - 1 - c.  The 8
    images of every member cell, clipped flag first, are ranked once
    (lexicographically).  A tuple's key is the smallest of its 8 images,
    each read as a number whose digits are its cells' ranks; a pair of two
    clipped cells also takes the 8 images of its reversed order.  That is
    the lexicographically smallest image, held in one integer, so the keys
    cost O(K) memory for K tuples.  members (K, m) holds the tuples' cells.
    Returns the cells of the keys, rebuilt as centre + coordinates * side
    with their flags (B, 5); each key's cells as rows of those (U, m); and
    the key index of each tuple (K,).

    A value computed on the rebuilt tuple is the same for every member of
    an orbit and in any batch.  On a member's own boxes it is not: mirrored
    linspace edges differ by an ulp, on which the chord rule's outer axis
    (diagonal cells) and _pair_grading's half-side gap threshold can flip.
    """
    centre = np.array([disk.cx, disk.cy, disk.cx, disk.cy])
    first = cells[np.argmax(cells[:, 4] > 0.0)]
    side = first[2] - first[0]
    used = np.zeros(len(cells), dtype=bool)
    used[members] = True
    used = np.flatnonzero(used)
    rel = np.round((cells[used, :4] - centre) / side, 9) + 0.0  # + 0.0 turns -0.0 into 0.0
    coords = np.unique(np.concatenate([rel.ravel(), -rel.ravel()]))  # coords[-1 - c] == -coords[c]
    code = np.searchsorted(coords, rel)
    code = np.column_stack([(cells[used, 4] > 0.0).astype(np.int64), code, coords.size - 1 - code[:, [2, 3, 0, 1]]])
    boxes, rank_used = np.unique(code[:, _BOX_IMAGES].reshape(-1, 5), axis=0, return_inverse=True)
    rank = np.zeros((8, len(cells)), dtype=np.int64)  # by cell index: no (K, m) index array
    rank[:, used] = rank_used.reshape(-1, 8).T
    base = len(boxes)
    arrangements = [members.T]
    if members.shape[1] == 2:
        both = np.all(cells[members, 4] > 0.0, axis=1)
        arrangements.append(np.where(both, members[:, ::-1].T, members.T))  # reversed where both are clipped
    key = np.full(len(members), np.iinfo(np.int64).max)
    for r in rank:
        for cols in arrangements:
            digits = r[cols[0]]
            for c in cols[1:]:
                digits *= base
                digits += r[c]
            np.minimum(key, digits, out=key)
    keys, inv = np.unique(key, return_inverse=True)
    digits = np.column_stack([keys // base ** k % base for k in range(members.shape[1] - 1, -1, -1)])
    ranks, tuples = np.unique(digits, return_inverse=True)
    rebuilt = np.column_stack([centre + coords[boxes[ranks, 1:]] * side, boxes[ranks, 0]])
    return rebuilt, tuples.reshape(digits.shape), inv.ravel()


def _pair_values_2d(w, mesh: Mesh, i, l, lo, hi, order=6) -> np.ndarray:
    """int_Ci int_Cl k_w 1_{lo<|x-y|<hi} per pair, split by admissibility.

    Pairs that touch a clipped cell are grouped by orbit (_orbits), with
    the unclipped cell (if any) first, and each orbit is evaluated once on
    the pair rebuilt from its key; other pairs on their own cells.  Far
    pairs (_far_pairs) are one batched point-pair sum over per-cell rules,
    of the given order up to gap / diameter 3.6 and of fewer points per
    axis beyond (_FAR_BANDS).  Near pairs of two unclipped boxes take the
    closed form rect_pair_integral_2d; other near pairs the polar path,
    with the first cell as the outer one.
    """
    cells = mesh.cells
    disk = _mesh_disk(mesh)
    i, l = np.asarray(i), np.asarray(l)
    touch = (cells[i, 4] > 0.0) | (cells[l, 4] > 0.0)
    own = np.flatnonzero(~touch)
    pi, pl = i[own], l[own]
    if touch.any():
        ti, tl = i[touch], l[touch]
        outer_l = cells[tl, 4] == 0.0
        rebuilt, reps, at = _orbits(cells, disk, np.column_stack([np.where(outer_l, tl, ti), np.where(outer_l, ti, tl)]))
        reps += len(cells)
        cells = np.concatenate([cells, rebuilt])
        pi, pl = np.concatenate([pi, reps[:, 0]]), np.concatenate([pl, reps[:, 1]])
    far = _far_pairs(cells, pi, pl, lo, hi)
    values = np.empty(pi.size)
    if far.any():
        values[far] = _far_sums(w, cells, disk, pi[far], pl[far], order)
    for k in np.flatnonzero(~far):
        a, b = pi[k], pl[k]
        if cells[a, 4] or cells[b, 4]:
            values[k] = _polar_pair_value(w, cells, disk, a, b, lo, hi, order)
        else:
            values[k] = rect_pair_integral_2d(w, cells[a], cells[b], lo, hi)
    out = np.empty(i.size)
    out[own] = values[: own.size]
    if touch.any():
        out[touch] = values[own.size :][at]
    return out


# ---------------------------------------------------------------------------
# form assembly


def _clipped(cells) -> np.ndarray:
    """Which cells are clipped to the disk: the flag column of 2D cells; 1D cells have none."""
    return cells[:, 4:].any(axis=1)


def _cell_classes(mesh: Mesh):
    """Centres, sides, class ids and first cell per class: equal sides (14 decimals), clipped cells alone."""
    lo, hi = mesh.corners()
    own = np.where(_clipped(mesh.cells), np.arange(1, mesh.n_cells + 1), 0)
    _, first, cls = np.unique(np.column_stack([np.round(hi - lo, 14), own]), axis=0, return_index=True, return_inverse=True)
    return 0.5 * (lo + hi), hi - lo, cls.ravel(), first


def _in_range(centres, sides, i, l, lo, hi) -> np.ndarray:
    """Pairs whose distance range [dist - r_sum, dist + r_sum] meets (lo, hi)."""
    diams = np.hypot.reduce(sides, axis=1)
    dist = np.hypot.reduce(np.abs(centres[l] - centres[i]), axis=1)
    r_sum = 0.5 * (diams[i] + diams[l])
    return (dist - r_sum < hi) & (dist + r_sum > lo)


def _lattice(centres, sides, cls):
    """Lattice cells (ascending) and their integer steps (L, dim), shifted to start at zero.

    The lattice is the most common cell class, restricted to the cells whose
    centre sits an integer number of side lengths from the class's first
    cell (9 decimals, as the offset keys).  The side is the class's mean
    side: one cell's own side carries the rounding of its two edges, which
    a step count of 10^4 amplifies past the 9 decimals, while the mean side
    of a linspace run is its length over its count.
    """
    members = np.flatnonzero(cls == np.bincount(cls).argmax())
    steps = np.round((centres[members] - centres[members[0]]) / sides[members].mean(axis=0), 9)
    on = np.all(steps == np.round(steps), axis=1)
    steps = steps[on].astype(np.int64)
    return members[on], steps - steps.min(axis=0)


def _positions(steps) -> np.ndarray:
    """Linear positions s_0 (2 S_1 + 1) + s_1 of lattice steps, S_1 the largest s_1.

    Every offset between two lattice cells is then a distinct position
    difference, positive when its first nonzero step is.
    """
    return np.ravel_multi_index(tuple(steps.T), tuple(2 * steps.max(axis=0) + 1))


def _mirror_classes(cells, sides, members, steps):
    """Mirror classes of every offset of the lattice's box: (class of each, grid cells).

    The box is [-S, S] per axis, S = steps.max(axis=0), whose offsets,
    raveled, are the table's positions (_positions) in order.  An offset and
    its mirror images give congruent pairs of lattice cells: the class key
    is the steps' moduli, |k| in 1D and (|dx|, |dy|) in 2D, sorted when the
    cells are squares (sides equal to the 14 decimals of _cell_classes),
    whose (dy, dx) is congruent too.  Classes are numbered in key order, so
    class 0 is the zero offset.  A class is represented by a cell of the
    uniform grid with the lattice's mean side (_lattice), key steps from the
    first lattice cell's lower corner; class 0's cell is the corner cell
    itself.  Grid edges are corner + j * side, so touching cells share an
    edge exactly.  Returns the class of each table position and one
    unclipped grid cell per class, (C, cells' columns).  A class's value
    thus does not depend on which of its offsets occur.
    """
    half = steps.max(axis=0)
    dim = half.size
    key = np.abs(np.indices(2 * half + 1).reshape(dim, -1).T - half)  # one row per table position
    square = np.round(sides[members[0]], 14)
    if np.all(square == square[0]):
        key.sort(axis=1)
    _, first, group = np.unique(np.ravel_multi_index(tuple(key.T), (half.max() + 1,) * dim),
                                return_index=True, return_inverse=True)
    at, side, corner = key[first], sides[members].mean(axis=0), cells[members[0], :dim]
    grid = np.zeros((len(at), cells.shape[1]))
    grid[:, :dim], grid[:, dim : 2 * dim] = corner + at * side, corner + (at + 1) * side
    return group, grid


def _off_lattice_pairs(centres, sides, cls, members, lo, hi):
    """Pairs with an off-lattice cell, kept by range and grouped: (i, l, first of each group).

    Groups share the class pair and the centre offset rounded to 9 decimals
    of the first cell's side; each group starts at its first pair in row order.
    Candidates are made and range-tested in blocks of off-lattice rows, about
    _PAIR_BLOCK pairs each, so only kept pairs outlive their block.
    """
    n = len(cls)
    off = np.ones(n, dtype=bool)
    off[members] = False
    rows, a = np.flatnonzero(off), np.arange(n)[None, :]
    i, l = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    step = max(1, _PAIR_BLOCK // n)
    for start in range(0, rows.size, step):
        o = rows[start : start + step, None]
        valid = (a != o) & ~(off[a] & (a < o))  # pairs of two off-lattice cells once
        bi, bl = np.minimum(o, a)[valid], np.maximum(o, a)[valid]
        keep = _in_range(centres, sides, bi, bl, lo, hi)
        i.append(bi[keep])
        l.append(bl[keep])
    i, l = np.concatenate(i), np.concatenate(l)
    order = np.lexsort((l, i))
    i, l = i[order], l[order]
    keys = (*np.round((centres[l] - centres[i]) / sides[i, :1], 9).T, cls[i].astype(np.int64) * n + cls[l])
    order = np.lexsort(keys)  # stable
    first = np.zeros(order.size, dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= np.diff(key[order]) != 0
    return i[order], l[order], first


def _pair_matrix(w, mesh: Mesh, lo, hi) -> StiffnessParts:
    """int_Ci int_Cl k_w 1_{lo<|x-y|<hi} for every pair of distinct cells (zero diagonal), as parts.

    Pairs whose distance range [dist - r_sum, dist + r_sum] misses (lo, hi)
    are skipped.  Lattice cells pair by offset, kept as the offset table:
    one integral per nonzero mirror class of the box's offsets
    (_mirror_classes), between the class-0 grid cell and the class's own,
    which extend the mesh's cells for the evaluator.  Pairs that touch an
    off-lattice cell are grouped by class pair and centre offset, one
    integral per group; with a clipped cell, whose class is its own, each
    such group is a single pair.  Both stages share one evaluator call.
    """
    centres, sides, cls, _ = _cell_classes(mesh)
    n, dim = len(cls), mesh.domain.dim
    members, steps = _lattice(centres, sides, cls)
    oi, ol, first = _off_lattice_pairs(centres, sides, cls, members, lo, hi)
    group, rebuilt = _mirror_classes(mesh.cells, sides, members, steps)
    li, ll = np.full(len(rebuilt) - 1, n), n + np.arange(1, len(rebuilt))
    centres = np.concatenate([centres, 0.5 * (rebuilt[:, :dim] + rebuilt[:, dim : 2 * dim])])
    sides = np.concatenate([sides, rebuilt[:, dim : 2 * dim] - rebuilt[:, :dim]])
    mesh = replace(mesh, cells=np.concatenate([mesh.cells, rebuilt]))
    keep = _in_range(centres, sides, li, ll, lo, hi)
    values = _ENGINES[dim](w, mesh, np.concatenate([li[keep], oi[first]]), np.concatenate([ll[keep], ol[first]]), lo, hi)
    kept = np.count_nonzero(keep)
    class_values = np.zeros(len(rebuilt))  # class 0, the zero offset, stays 0
    class_values[1:][keep] = values[:kept]
    table = class_values[group]
    group_values = values[kept:][np.cumsum(first) - 1]
    rows, cols = np.concatenate([oi, ol]), np.concatenate([ol, oi])
    off = scipy.sparse.csr_array((np.concatenate([group_values, group_values]), (rows, cols)), shape=(n, n))
    return StiffnessParts(np.zeros(n), members, _positions(steps), table, off)


# the pair evaluator per dimension
_ENGINES = {1: _pair_values_1d, 2: _pair_values_2d}


def _box_self_energy(w, cell) -> float:
    """An unclipped cell's self-energy: the dimension's pair closed form on the cell paired with itself.

    The 1D form is called through kernels: eigen's own name is wrapped to count pair integrals.
    """
    if cell.size == 2:
        return float(kernels.cell_pair_tent_integral(w, cell[0], cell[1], cell[0], cell[1], 0.0, 1.0))
    return rect_pair_integral_2d(w, cell, cell, 0.0, 1.0, _BOX_SELF_ORDER)


def _self_energies(w, mesh: Mesh) -> np.ndarray:
    """Diagonal self-energies: the closed form once per unclipped cell class, the polar rule once per orbit of clipped cells."""
    cells = mesh.cells
    _, _, cls, first = _cell_classes(mesh)
    clipped = _clipped(cells)
    out = np.array([0.0 if clipped[c] else _PAIR_WEIGHT * _box_self_energy(w, cells[c]) for c in first])[cls]
    if clipped.any():
        disk = _mesh_disk(mesh)
        rebuilt, reps, at = _orbits(cells, disk, np.flatnonzero(clipped)[:, None])
        out[clipped] = np.array([_self_energy_2d(w, rebuilt[k], disk) for k in reps[:, 0]])[at]
    return out


def _difference_matrix(w, mesh) -> StiffnessParts:
    """S(w): -_PAIR_WEIGHT x pair integrals below unit distance, self-energies on the diagonal."""
    P = _pair_matrix(w, mesh, 0.0, 1.0)
    return replace(P, diag=_self_energies(w, mesh), table=-_PAIR_WEIGHT * P.table, off=-_PAIR_WEIGHT * P.off)


def _convolution_matrix(w, mesh) -> StiffnessParts:
    """A(w): pair integrals of the kernel beyond unit distance."""
    return _pair_matrix(w, mesh, 1.0, np.inf)


def assemble(form_kind: str, ledger: CoeffLedger, mesh: Mesh) -> FormMatrices:
    """Stiffness/mass pair of I_m, G_m or Q_m on a cell mesh.

    Every form takes the ledger of the mesh's dimension; G reads only its
    order, ledger.m.  Q = I + c M (module docstring) needs the domain inside
    B_{r0/2}, where the combined kernel is positive; its stiffness must come
    out PSD.
    """
    if form_kind not in _FORM_KINDS:
        raise PreconditionError(f"form kind must be one of {_FORM_KINDS}")
    if ledger is None or ledger.dim != mesh.domain.dim:
        raise PreconditionError(f"every form needs a coefficient ledger of the mesh's dimension {mesh.domain.dim}")
    if mesh.max_cell_diameter() >= 1.0:
        raise PreconditionError("mesh cells must have diameter below the unit cutoff")
    mass = np.asarray(mesh.cell_measure, dtype=float)
    if np.any(mass <= 0.0):
        raise PreconditionError("mass entries must be positive")

    if form_kind == "G":
        alpha0, w = 0.0, order_weights(ledger.m)
    else:
        alpha0, w = ledger.alpha[0], ledger.alpha[1:]
    if form_kind == "Q":
        r0 = combined_kernel(ledger).r0
        if mesh.domain.bounding_radius() > 0.5 * r0 + 1e-12:
            raise PreconditionError(f"Q form needs the domain inside B_(r0/2) with r0={r0:.6f}")
        # Q = I + c M (module docstring): c joins alpha_0 on the diagonal
        alpha0 -= _PAIR_WEIGHT * omega(mesh.domain.dim) * (radial_antiderivative(w, 1.0) - radial_antiderivative(w, r0))

    stiff = _difference_matrix(w, mesh)
    stiff = replace(stiff, diag=stiff.diag + alpha0 * mass)
    if mesh.domain.diameter() >= 1.0:
        stiff = stiff - _convolution_matrix(w, mesh)
    mats = FormMatrices(stiff, mass)
    if form_kind == "Q":
        _check_psd(mats)
    return mats


def _check_psd(matrices: FormMatrices) -> None:
    """Raise unless lambda_min(K, M) >= -1e-8 max|diag K| / max M, lambda_min from the eigensolver's own solve at k = 1.

    A negative lambda_min(K) gives lambda_min(K, M) <= lambda_min(K) / max M,
    so this refuses every K with lambda_min(K) < -1e-8 max|diag K|; on a
    uniform mesh the two rules are one.  max|diag K| is max|K| whenever K is
    PSD, as |K_il| <= sqrt(K_ii K_ll), and it reads no table entry at an
    offset that no matvec uses.
    """
    lam_min = float(np.min(_lowest_pairs(matrices, 1)[0]))
    scale = float(np.max(np.abs(matrices.parts.diag), initial=0.0)) or 1.0
    if lam_min < -1e-8 * scale / float(np.max(matrices.mass)):
        raise NumericalError(f"Q stiffness not PSD: lambda_min={lam_min:.3e}")


# ---------------------------------------------------------------------------
# eigensolving


def _lowest_pairs(matrices: FormMatrices, k: int):
    """The k lowest eigenpairs (vals, vecs) of B = M^-1/2 K M^-1/2, in the solver's order, and M^-1/2.

    Lanczos (ARPACK) on B as an operator, with K applied from its parts
    (StiffnessParts: the lattice block by FFT, the off-lattice pairs as
    CSR), so no n x n array is formed.  It starts from a fixed-seed normal
    vector, which reaches modes of either parity on symmetric domains.
    Dense eigh on parts.toarray() only where ARPACK cannot run (k >= n - 1).
    A k = 1 solve is kept on the matrices (FormMatrices._lowest) and not
    repeated.
    """
    if k == 1 and matrices._lowest is not None:
        return matrices._lowest
    n, K = matrices.n, matrices.parts
    if not all(np.all(np.isfinite(a)) for a in (K.diag, K.table, K.off.data)):
        raise NumericalError("stiffness matrix has non-finite entries")
    d = 1.0 / np.sqrt(matrices.mass)

    def scaled(x):  # M^-1/2 K M^-1/2 x for a vector or the columns of a matrix
        dx = d.reshape((-1,) + (1,) * (x.ndim - 1))
        return dx * (K @ (dx * x))

    try:
        if k >= n - 1:
            B = K.toarray() * d[:, None]
            B *= d
            vals, vecs = scipy.linalg.eigh(B, subset_by_index=[0, k - 1])
        else:
            B = scipy.sparse.linalg.LinearOperator((n, n), matvec=scaled, matmat=scaled, dtype=float)
            v0 = np.random.default_rng(0).standard_normal(n)
            vals, vecs = scipy.sparse.linalg.eigsh(B, k, which="SA", v0=v0)
    except (np.linalg.LinAlgError, scipy.sparse.linalg.ArpackError) as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    if k == 1:
        object.__setattr__(matrices, "_lowest", (vals, vecs, d))  # a frozen dataclass's cache field
    return vals, vecs, d


def eigensolve(matrices: FormMatrices, k: int) -> EigenResult:
    """k smallest generalized eigenpairs of (stiffness, diagonal mass): _lowest_pairs, then the residual check."""
    if not 1 <= k <= matrices.n:
        raise PreconditionError("eigenpair count must lie in [1, n_cells]")
    vals, vecs, d = _lowest_pairs(matrices, k)
    order = np.argsort(vals)
    vals, vecs = vals[order], d[:, None] * vecs[:, order]  # back to the original variables, M-orthonormal
    # deterministic sign: largest-magnitude entry positive
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0:
            vecs[:, j] = -vecs[:, j]
    _check_pairs(matrices, vals, vecs)
    return EigenResult(eigenvalues=vals, vectors=vecs)


def _check_pairs(matrices: FormMatrices, vals, vecs) -> None:
    """Refuse eigenpairs that lost mass-orthonormality, or whose residual max|Kv - lambda Mv| exceeds 1e-6 |K| max|v|.

    |K| is the max row sum of |K|.  Kv scales with v, so the bound does
    too: an M-orthonormal v grows like |Omega|^(-1/2), and a fixed bound
    would fall below rounding on tiny domains.
    """
    M = matrices.mass
    gram = vecs.T @ (M[:, None] * vecs)
    if float(np.max(np.abs(gram - np.eye(vals.size)))) > 1e-8:
        raise NumericalError("eigenvectors lost mass-orthonormality")
    K = matrices.parts
    res = np.max(np.abs(K @ vecs - (M[:, None] * vecs) * vals[None, :]), axis=0)
    bound = 1e-6 * _residual_scale(K) * np.max(np.abs(vecs), axis=0)
    if np.any(res > bound):
        j = int(np.argmax(res / bound))
        raise NumericalError(f"eigenpair residual {res[j]:.3e} exceeds 1e-6 * |A| * max|v| = {bound[j]:.3e}")


def _residual_scale(K: StiffnessParts) -> float:
    """The max row sum of |K|: the parts' supports are disjoint, so |K| is the sum of their moduli."""
    return float(np.max(abs(K) @ np.ones(K.diag.size))) or 1.0


# ---------------------------------------------------------------------------
# rearrangement and Faber-Krahn


def rearrange_decreasing(coeffs, mesh: Mesh) -> np.ndarray:
    """Sort nonnegative cell values so they decrease with distance from center.

    Cells must have equal measure (equimeasurability); the center is the
    domain centroid.  Ties in distance are filled in stable cell order.
    """
    v = np.asarray(coeffs, dtype=float)
    if v.size != mesh.n_cells:
        raise PreconditionError("coefficient count must match the mesh")
    if np.any(v < 0.0):
        raise PreconditionError("rearrangement is defined for nonnegative values")
    meas = mesh.cell_measure
    if np.max(meas) - np.min(meas) > 1e-12 * np.max(meas):
        raise PreconditionError("rearrangement needs equal-measure cells")
    center = mesh.domain.centroid()
    centers = mesh.centers()
    if mesh.domain.dim == 1:
        dist = np.abs(centers - center[0])
    else:
        dist = np.hypot(centers[:, 0] - center[0], centers[:, 1] - center[1])
    order = np.argsort(dist, kind="stable")
    out = np.empty_like(v)
    out[order] = np.sort(v)[::-1]
    return out


def form_energy(matrices: FormMatrices, coeffs) -> float:
    v = np.asarray(coeffs, dtype=float)
    return float(v @ (matrices.parts @ v))


@dataclass(frozen=True)
class FKRow:
    index: int
    is_ball: bool
    measure: float
    lambda1: float
    reference_min: bool


def faber_krahn_compare(ledger: CoeffLedger, domains, cells_per_unit: int) -> list[FKRow]:
    """First Q_m eigenvalue per equal-measure domain at matched resolution.

    Domains of a single interval or disk piece are flagged as balls; the
    lowest ball is the reference minimum.  Requires m >= 2, every domain in
    the ledger's dimension and inside B_(rm/2).  Q_m = I_m + c M with c
    fixed by the ledger alone, so the ranking is that of I_m's first
    eigenvalues, each shifted by the same c.
    """
    if ledger.m < 2:
        raise PreconditionError("the ball-minimality comparison needs m >= 2")
    domains = list(domains)
    if any(d.dim != ledger.dim for d in domains):
        raise PreconditionError(f"every domain must have the ledger's dimension {ledger.dim}")
    ck = combined_kernel(ledger)
    measures = [d.measure() for d in domains]
    if max(measures) - min(measures) > 1e-12 * max(measures):
        raise PreconditionError("domains must have equal measure")
    rows = []
    for idx, dom in enumerate(domains):
        if dom.bounding_radius() > 0.5 * ck.rm + 1e-12:
            raise PreconditionError(
                f"domain {idx} leaves B_(rm/2) with rm={ck.rm:.6f}"
            )
        if dom.dim == 1:
            mesh = mesh_intervals(dom, max(2, round(cells_per_unit * dom.measure())))
        else:
            mesh = mesh_rectangles(dom, 1.0 / cells_per_unit)
        mats = assemble("Q", ledger, mesh)
        res = eigensolve(mats, 1)
        is_ball = len(dom.pieces) == 1 and isinstance(dom.pieces[0], (Interval, Disk))
        rows.append(FKRow(idx, is_ball, measures[idx], float(res.eigenvalues[0]), False))
    ball_rows = [r for r in rows if r.is_ball]
    if ball_rows:
        ref = min(ball_rows, key=lambda r: r.lambda1)
        rows[ref.index] = FKRow(ref.index, ref.is_ball, ref.measure, ref.lambda1, True)
    return rows


def k_form_first_eig(n: int, mesh: Mesh, k: int = 1) -> EigenResult:
    """Lowest eigenpairs of the dominant-kernel form G_n, n = 1..8, on a small domain.

    Domains inside B_(1/2) have no point pairs at distance beyond one, so
    the convolution part of G_n vanishes identically.
    """
    if mesh.domain.bounding_radius() > 0.5 + 1e-12:
        raise PreconditionError("the dominant-kernel eigenproblem needs the domain inside B_(1/2)")
    mats = assemble("G", alpha_coeffs(n, mesh.domain.dim), mesh)
    return eigensolve(mats, k)
