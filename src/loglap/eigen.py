"""Galerkin discretization of the nonlocal quadratic forms and eigensolving.

Trial space: piecewise constants on mesh cells.  Indicators of Lipschitz
cells have finite energy for logarithmic-order kernels, and in one dimension
every matrix entry is a closed form from the kernels module:

    S^(j)_ii = 2 int_C int_{B_cut(x) \\ C} q_j,   S^(j)_il = -2 int_Ci int_Cl k_j

so the difference form (u,v)_j has matrix S^(j).  The assembled operators:

    I_m:  alpha_0 M + sum_j alpha_j S^(j)     - sum_n alpha_n A^(n)   (cutoff 1)
    G_m:  S^(m) - A^(m)                                               (cutoff 1)
    Q_m:  alpha_0 M + sum_j alpha_j S^(j)                             (cutoff r0)

with A^(n) the cell integrals of the outside-unit-ball kernel j_n and M the
diagonal mass matrix of cell measures.  Eigenpairs of (stiffness, mass) come
from the diagonally transformed dense symmetric solver (lowest k by index);
eigenvectors are mass-orthonormal with the largest-magnitude entry made
positive.  The convolution part is assembled only for domains of diameter at
least one; below that no point pair reaches the kernel's support.

S^(j) and A^(n) share one pair driver, the integral of q_n over cell pairs at
distances in (lo, hi): (0, cutoff) for S, (1, inf) for A.  Pairs of equal
cell classes and centre offset are integrated once, by the closed form in one
dimension and in two by polar inner integrals (closed-form radial
antiderivative, angular quadrature) under tensor Gauss points on the outer
cell; self-energies are computed once per cell class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .coeffs import CoeffLedger
from .domains import Disk, Interval, Mesh, mesh_intervals
from .errors import NumericalError, PreconditionError
from .kernels import (
    cell_pair_tent_integral,
    cell_self_energy_1d,
    cell_self_energy_2d,
    combined_kernel,
    radial_antiderivative,
)
from .quadrature import _gauss_unit

_FORM_KINDS = ("I", "G", "Q")


@dataclass(frozen=True)
class FormMatrices:
    form_kind: str
    stiffness: np.ndarray
    mass: np.ndarray  # diagonal entries (cell measures)
    ledger: CoeffLedger | None
    mesh: Mesh = field(repr=False)

    @property
    def n(self) -> int:
        return self.mass.size


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray
    vectors: np.ndarray  # columns, mass-orthonormal
    mesh: Mesh = field(repr=False)
    form_kind: str = "I"

    def gap(self) -> float:
        """Spectral gap lambda_2 - lambda_1 (reported, never asserted positive)."""
        if self.eigenvalues.size < 2:
            raise PreconditionError("gap needs at least two computed eigenvalues")
        return float(self.eigenvalues[1] - self.eigenvalues[0])


# ---------------------------------------------------------------------------
# 1D assembly (closed forms)


def _pair_values_1d(n, mesh: Mesh, i, l, lo, hi) -> np.ndarray:
    cells = np.asarray(mesh.cells, dtype=float)
    return cell_pair_tent_integral(n, cells[i, 0], cells[i, 1], cells[l, 0], cells[l, 1], lo, hi)


def _self_energies_1d(n: int, mesh: Mesh, cutoff: float) -> np.ndarray:
    cells = np.asarray(mesh.cells, dtype=float)
    return 2.0 * cell_self_energy_1d(n, cells[:, 1] - cells[:, 0], cutoff)


# ---------------------------------------------------------------------------
# 2D assembly (polar inner integral, tensor Gauss outer)


def _ray_box_exit(px, py, ct, st, x0, y0, x1, y1):
    """Entry/exit parameters of rays (px,py)+t(ct,st) with the box [x0,x1]x[y0,y1]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        tx0 = (x0 - px) / ct
        tx1 = (x1 - px) / ct
        ty0 = (y0 - py) / st
        ty1 = (y1 - py) / st
    tx_lo, tx_hi = np.minimum(tx0, tx1), np.maximum(tx0, tx1)
    ty_lo, ty_hi = np.minimum(ty0, ty1), np.maximum(ty0, ty1)
    inside_x = (px >= x0) & (px <= x1)
    inside_y = (py >= y0) & (py <= y1)
    tx_lo = np.where(np.isfinite(tx_lo), tx_lo, np.where(inside_x, -np.inf, np.inf))
    tx_hi = np.where(np.isfinite(tx_hi), tx_hi, np.where(inside_x, np.inf, -np.inf))
    ty_lo = np.where(np.isfinite(ty_lo), ty_lo, np.where(inside_y, -np.inf, np.inf))
    ty_hi = np.where(np.isfinite(ty_hi), ty_hi, np.where(inside_y, np.inf, -np.inf))
    t_in = np.maximum(tx_lo, ty_lo)
    t_out = np.minimum(tx_hi, ty_hi)
    return t_in, t_out


def _ray_circle_exit(px, py, ct, st, cx, cy, r):
    dx, dy = px - cx, py - cy
    b = dx * ct + dy * st
    c = dx * dx + dy * dy - r * r
    disc = b * b - c
    root = np.sqrt(np.maximum(disc, 0.0))
    t_in = np.where(disc > 0, -b - root, np.inf)
    t_out = np.where(disc > 0, -b + root, -np.inf)
    return t_in, t_out


def _axis_rule(lo, hi, order, grade):
    """Gauss nodes on [lo, hi]; grade=+1/-1 packs geometric panels at that end.

    Near-pair inner integrals blow up like log(distance to the target cell),
    so the outer rule needs refinement toward the shared boundary.
    """
    if grade == 0:
        g, w = _gauss_unit(order)
        return lo + (hi - lo) * g, (hi - lo) * w
    width = hi - lo
    fracs = np.array([0.0, 1.0 / 1024.0, 1.0 / 256.0, 1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0, 1.0])
    if grade > 0:
        bounds = hi - width * fracs[::-1]
    else:
        bounds = lo + width * fracs
    g, w = _gauss_unit(order)
    nodes = (bounds[:-1, None] + np.diff(bounds)[:, None] * g[None, :]).ravel()
    wts = (np.diff(bounds)[:, None] * w[None, :]).ravel()
    return nodes, wts


def _cell_gauss_points(cell, order, grade_x=0, grade_y=0):
    x0, y0, x1, y1, _ = cell
    gx, wx = _axis_rule(x0, x1, order, grade_x)
    gy, wy = _axis_rule(y0, y1, order, grade_y)
    px, py = np.meshgrid(gx, gy, indexing="ij")
    pw = np.outer(wx, wy)
    return px.ravel(), py.ravel(), pw.ravel()


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


def _clip_to_disk(px, py, pw, disk: Disk | None):
    if disk is None:
        return px, py, pw
    keep = (px - disk.cx) ** 2 + (py - disk.cy) ** 2 <= disk.r ** 2
    return px[keep], py[keep], pw[keep]


def _wedge_rule(px, py, cell, order):
    """Angular Gauss nodes covering the wedge a rectangle subtends from p.

    The radial entry/exit of a ray into a convex box is smooth in the angle
    except where the active face changes, i.e. at the corner directions; the
    wedge between the extreme corner angles is split there, giving three
    smooth panels per source point.
    """
    cx = np.array([cell[0], cell[0], cell[2], cell[2]])
    cy = np.array([cell[1], cell[3], cell[1], cell[3]])
    ctr = np.arctan2(0.5 * (cell[1] + cell[3]) - py, 0.5 * (cell[0] + cell[2]) - px)
    raw = np.arctan2(cy[None, :] - py[:, None], cx[None, :] - px[:, None])
    rel = np.sort((raw - ctr[:, None] + math.pi) % (2.0 * math.pi) - math.pi, axis=1)
    g, w = _gauss_unit(order)
    lo = rel[:, :-1]
    width = np.diff(rel, axis=1)
    phi = ctr[:, None, None] + lo[:, :, None] + width[:, :, None] * g[None, None, :]
    wts = width[:, :, None] * w[None, None, :]
    return phi.reshape(px.size, -1), wts.reshape(px.size, -1)


def _arc_rule(px, py, cell, order):
    """Angular Gauss nodes over the full circle, split at the own-cell corners."""
    cx = np.array([cell[0], cell[0], cell[2], cell[2]])
    cy = np.array([cell[1], cell[3], cell[1], cell[3]])
    raw = np.sort(np.arctan2(cy[None, :] - py[:, None], cx[None, :] - px[:, None]), axis=1)
    bounds = np.concatenate([raw, raw[:, :1] + 2.0 * math.pi], axis=1)
    g, w = _gauss_unit(order)
    lo = bounds[:, :-1]
    width = np.diff(bounds, axis=1)
    phi = lo[:, :, None] + width[:, :, None] * g[None, None, :]
    wts = width[:, :, None] * w[None, None, :]
    return phi.reshape(px.size, -1), wts.reshape(px.size, -1)


def _radial_segment(n, t_in, t_out, lo, hi):
    a = np.clip(t_in, lo, hi)
    b = np.clip(t_out, lo, hi)
    good = b > a
    return np.where(
        good,
        radial_antiderivative(n, np.where(good, b, 1.0))
        - radial_antiderivative(n, np.where(good, a, 1.0)),
        0.0,
    )


def _inner_cell_integral_2d(n, px, py, target_cell, disk, lo, hi, order=10):
    """int_{C_l, lo<|p-y|<hi} q_n(|p-y|) dy by wedge angles and exact radii."""
    phi, wts = _wedge_rule(px, py, target_cell, order)
    ct, st = np.cos(phi), np.sin(phi)
    t_in, t_out = _ray_box_exit(px[:, None], py[:, None], ct, st, *target_cell[:4])
    if target_cell[4] and disk is not None:
        c_in, c_out = _ray_circle_exit(px[:, None], py[:, None], ct, st, disk.cx, disk.cy, disk.r)
        t_in = np.maximum(t_in, c_in)
        t_out = np.minimum(t_out, c_out)
    t_in = np.maximum(t_in, 0.0)
    seg = _radial_segment(n, t_in, t_out, lo, hi)
    return np.sum(seg * wts, axis=1)


def _self_energy_2d(n, cell, disk, cutoff, order=8, angle_order=10):
    px, py, pw = _cell_gauss_points(cell, order)
    px, py, pw = _clip_to_disk(px, py, pw, disk if cell[4] else None)
    phi, wts = _arc_rule(px, py, cell, angle_order)
    ct, st = np.cos(phi), np.sin(phi)
    _, t_out = _ray_box_exit(px[:, None], py[:, None], ct, st, *cell[:4])
    if cell[4] and disk is not None:
        _, c_out = _ray_circle_exit(px[:, None], py[:, None], ct, st, disk.cx, disk.cy, disk.r)
        t_out = np.minimum(t_out, c_out)
    exit_t = np.clip(t_out, 1e-300, cutoff)
    seg = radial_antiderivative(n, cutoff) - radial_antiderivative(n, exit_t)
    inner = np.sum(np.maximum(seg, 0.0) * wts, axis=1)
    return 2.0 * float(np.sum(inner * pw))


def _mesh_disk(mesh: Mesh) -> Disk | None:
    return next((p for p in mesh.domain.pieces if isinstance(p, Disk)), None)


def _pair_values_2d(n, mesh: Mesh, i, l, lo, hi, order=6) -> np.ndarray:
    """Tensor Gauss points on cell i times the polar inner integral over cell l, per pair."""
    cells = mesh.cells
    disk = _mesh_disk(mesh)
    out = np.empty(len(i))
    for k, (a, b) in enumerate(zip(i.tolist(), l.tolist())):
        ci, cl = cells[a], cells[b]
        # the kernel is singular only when lo == 0: grade toward near targets
        grade = _pair_grading(ci, cl) if lo == 0.0 else (0, 0)
        px, py, pw = _clip_to_disk(*_cell_gauss_points(ci, order, *grade), disk if ci[4] else None)
        out[k] = np.sum(_inner_cell_integral_2d(n, px, py, cl, disk, lo, hi) * pw)
    return out


def _self_energies_2d(n, mesh: Mesh, cutoff) -> np.ndarray:
    """Diagonal self-energies, computed once per cell class."""
    _, sides, cls, first = _cell_classes(mesh)
    disk = _mesh_disk(mesh)
    return np.array([
        _self_energy_2d(n, mesh.cells[c], disk, cutoff) if mesh.cells[c][4]
        else 2.0 * cell_self_energy_2d(n, sides[c, 0], sides[c, 1], cutoff)
        for c in first
    ])[cls]


# ---------------------------------------------------------------------------
# form assembly


def _cell_classes(mesh: Mesh):
    """Centres, sides, class ids and first cell per class: equal sides (14 decimals), clipped cells alone."""
    cells = np.asarray(mesh.cells, dtype=float)
    dim = mesh.domain.dim
    lo, hi = cells[:, :dim], cells[:, dim : 2 * dim]
    own = np.where(cells[:, 4] > 0.0, np.arange(1, len(cells) + 1), 0) if dim == 2 else np.zeros(len(cells))
    _, first, cls = np.unique(np.column_stack([np.round(hi - lo, 14), own]), axis=0, return_index=True, return_inverse=True)
    return 0.5 * (lo + hi), hi - lo, cls.ravel(), first


def _pair_matrix(n, mesh: Mesh, lo, hi) -> np.ndarray:
    """int_Ci int_Cl q_n 1_{lo<|x-y|<hi} for every pair of distinct cells (zero diagonal).

    Pairs whose distance range [dist - r_sum, dist + r_sum] misses (lo, hi)
    are skipped; each group of equal class pair and centre offset is integrated once.
    """
    centres, sides, cls, _ = _cell_classes(mesh)
    ncells = len(cls)
    i, l = (k.astype(np.int32) for k in np.triu_indices(ncells, k=1))
    diams = np.hypot.reduce(sides, axis=1)
    delta = centres[l] - centres[i]
    dist = np.hypot.reduce(np.abs(delta), axis=1)
    r_sum = 0.5 * (diams[i] + diams[l])
    keep = (dist - r_sum < hi) & (dist + r_sum > lo)
    i, l, delta = i[keep], l[keep], delta[keep]
    del dist, r_sum, keep
    keys = (*np.round(delta / sides[i, :1], 9).T, cls[i].astype(np.int64) * ncells + cls[l])
    del delta
    order = np.lexsort(keys)  # stable: each group starts at its first pair in row order
    first = np.zeros(order.size, dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= np.diff(key[order]) != 0
    del keys
    i, l = i[order], l[order]
    values = _ENGINES[mesh.domain.dim][0](n, mesh, i[first], l[first], lo, hi)[np.cumsum(first) - 1]
    P = np.zeros((ncells, ncells))
    P[i, l] = values
    P[l, i] = values
    return P


# (pair evaluator, diagonal self-energies) per dimension
_ENGINES = {1: (_pair_values_1d, _self_energies_1d), 2: (_pair_values_2d, _self_energies_2d)}


def _difference_matrix(n, mesh, cutoff):
    """S^(n): -2 x pair integrals inside the cutoff, self-energies on the diagonal."""
    S = -2.0 * _pair_matrix(n, mesh, 0.0, cutoff)
    np.fill_diagonal(S, _ENGINES[mesh.domain.dim][1](n, mesh, cutoff))
    return S


def _convolution_matrix(n, mesh):
    """A^(n): pair integrals of the kernel beyond unit distance."""
    return _pair_matrix(n, mesh, 1.0, np.inf)


def assemble(form_kind: str, ledger: CoeffLedger | None, mesh: Mesh, order: int | None = None) -> FormMatrices:
    """Stiffness/mass pair of I_m, G_m or Q_m on a cell mesh.

    G needs only the kernel order (pass order= for a ledger-free call).
    Q is restricted to domains inside B_{r0/2}, where the combined kernel is
    positive; its stiffness must come out positive semidefinite.
    """
    if form_kind not in _FORM_KINDS:
        raise PreconditionError(f"form kind must be one of {_FORM_KINDS}")
    if mesh.max_cell_diameter() >= 1.0:
        raise PreconditionError("mesh cells must have diameter below the unit cutoff")
    mass = np.asarray(mesh.cell_measure, dtype=float)
    if np.any(mass <= 0.0):
        raise PreconditionError("mass entries must be positive")

    if form_kind == "G":
        n = order if order is not None else (ledger.m if ledger else None)
        if n is None:
            raise PreconditionError("G form needs a kernel order")
        stiff = _difference_matrix(n, mesh, 1.0)
        if mesh.domain.diameter() >= 1.0:
            stiff = stiff - _convolution_matrix(n, mesh)
        stiff = 0.5 * (stiff + stiff.T)
        return FormMatrices("G", stiff, mass, ledger, mesh)

    if ledger is None:
        raise PreconditionError("I and Q forms need a coefficient ledger")
    m = ledger.m
    if form_kind == "Q":
        ck = combined_kernel(ledger)
        if mesh.domain.bounding_radius() > 0.5 * ck.r0 + 1e-12:
            raise PreconditionError(
                f"Q form needs the domain inside B_(r0/2) with r0={ck.r0:.6f}"
            )
        cutoff = ck.r0
        if mesh.max_cell_diameter() > cutoff:
            raise PreconditionError("mesh cells must be smaller than the positivity radius")
        stiff = ledger.alpha[0] * np.diag(mass)
        for j in range(1, m + 1):
            stiff = stiff + ledger.alpha[j] * _difference_matrix(j, mesh, cutoff)
        stiff = 0.5 * (stiff + stiff.T)
        scale = float(np.max(np.abs(stiff))) or 1.0
        lam_min = float(scipy.linalg.eigvalsh(stiff, subset_by_index=[0, 0])[0])
        if lam_min < -1e-8 * scale:
            raise NumericalError(f"Q stiffness not PSD: lambda_min={lam_min:.3e}")
        return FormMatrices("Q", stiff, mass, ledger, mesh)

    stiff = ledger.alpha[0] * np.diag(mass)
    for j in range(1, m + 1):
        stiff = stiff + ledger.alpha[j] * _difference_matrix(j, mesh, 1.0)
    if mesh.domain.diameter() >= 1.0:
        for n in range(1, m + 1):
            stiff = stiff - ledger.alpha[n] * _convolution_matrix(n, mesh)
    stiff = 0.5 * (stiff + stiff.T)
    return FormMatrices("I", stiff, mass, ledger, mesh)


# ---------------------------------------------------------------------------
# eigensolving


def eigensolve(matrices: FormMatrices, k: int) -> EigenResult:
    """k smallest generalized eigenpairs of (stiffness, diagonal mass)."""
    n = matrices.n
    if not 1 <= k <= n:
        raise PreconditionError("eigenpair count must lie in [1, n_cells]")
    d = 1.0 / np.sqrt(matrices.mass)
    B = d[:, None] * matrices.stiffness * d[None, :]
    B = 0.5 * (B + B.T)
    if not np.all(np.isfinite(B)):
        raise NumericalError("stiffness matrix has non-finite entries")
    try:
        vals, vecs = scipy.linalg.eigh(B, subset_by_index=[0, k - 1])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    vecs = d[:, None] * vecs  # back to the original variables, M-orthonormal
    # deterministic sign: largest-magnitude entry positive
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0:
            vecs[:, j] = -vecs[:, j]
    _check_pairs(matrices, vals, vecs)
    return EigenResult(eigenvalues=vals, vectors=vecs, mesh=matrices.mesh, form_kind=matrices.form_kind)


def _check_pairs(matrices: FormMatrices, vals, vecs) -> None:
    M = matrices.mass
    gram = vecs.T @ (M[:, None] * vecs)
    if float(np.max(np.abs(gram - np.eye(vals.size)))) > 1e-8:
        raise NumericalError("eigenvectors lost mass-orthonormality")
    scale = float(np.max(np.sum(np.abs(matrices.stiffness), axis=1))) or 1.0
    res = matrices.stiffness @ vecs - (M[:, None] * vecs) * vals[None, :]
    worst = float(np.max(np.abs(res)))
    if worst > 1e-6 * scale:
        raise NumericalError(f"eigenpair residual {worst:.3e} exceeds 1e-6 * |A|")


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
    return float(v @ matrices.stiffness @ v)


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
    lowest ball is the reference minimum.  Requires m >= 2 and every domain
    inside B_(rm/2).
    """
    if ledger.m < 2:
        raise PreconditionError("the ball-minimality comparison needs m >= 2")
    ck = combined_kernel(ledger)
    domains = list(domains)
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
            from .domains import mesh_rectangles

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
    """Lowest eigenpairs of the dominant-kernel form G_n on a small domain.

    Domains inside B_(1/2) have no point pairs at distance beyond one, so
    the convolution part of G_n vanishes identically.
    """
    if mesh.domain.bounding_radius() > 0.5 + 1e-12:
        raise PreconditionError("the dominant-kernel eigenproblem needs the domain inside B_(1/2)")
    mats = assemble("G", None, mesh, order=n)
    return eigensolve(mats, k)
