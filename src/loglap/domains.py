"""Bounded Lipschitz domains as unions of simple pieces, and their meshes.

Supported pieces: closed intervals (N = 1), axis-aligned rectangles and a
disk (N = 2).  Each piece answers for its own exact geometry: measure,
extremal points, centre, containment, the span of a ray through it and its
JSON dict.  Interval and Rect are one axis-aligned box over per-axis lo and
hi, so DomainSpec sums, maximizes or unions over its pieces without asking
their type.  The ray formulas are ``ray_box`` (slab method) and ``ray_disk``
(chord roots), vectorized over points and directions; they serve the polar
assembly integrals, the pointwise support-box exits and
``DomainSpec.ray_spans`` (every piece, all directions from one point at
once), from which the regional representation's h_{m,Omega} is one closed
form.

Every piece has finite coordinates, a bounding box of positive extent in
floats and a finite positive measure, and a domain has a finite diameter;
a domain file that breaks these exits 3 rather than overflowing in a mesh.

Meshes carry their cells as one float64 array with exact measures; 1D cells
are intervals (lo, hi), 2D cells are boxes (x0, y0, x1, y1, clipped) whose
flag marks a box the disk's circle crosses, with the clipped measure computed
from the analytic circle-box area; a box whose farthest corner lies in the
disk is unclipped and keeps its box area.  Clipped slivers below a relative
threshold are merged into their nearest kept cell to protect the
mass-matrix conditioning.  Every 2D piece counts ceil(length / h) cells per
axis, with a quotient within 1e-12 relative of an integer read as that
integer, so pieces whose corners lie on one grid of step h are meshed on
that grid.
A mesh whose narrowest cell spans fewer than 1000 ulps of the domain's
largest coordinate magnitude (the rule grid spacings follow) is refused:
its cell bounds and measures would be rounding, not geometry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, fields
from functools import reduce

import numpy as np

from .errors import PreconditionError

_SLIVER_FRACTION = 1e-3  # clipped cells below this share of a full box merge into a neighbour
_MIN_CELL_ULPS = 1000.0  # narrowest cell side, in ulps of the largest coordinate magnitude


class _Piece:
    """What every piece shares: finite fields, a finite positive size, and its JSON dict."""

    kind: str  # the piece's "type" in a domain file
    empty: str  # the message for a piece whose size is zero or overflows

    def _values(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self._values()):
            raise PreconditionError(f"{self.kind} coordinates must be finite")
        # one rule for every piece: its bounding box spans floats on each axis, and its measure
        # neither underflows to 0 nor overflows (a mesh divides both)
        if not (all(l < h for l, h in zip(self.lo, self.hi)) and 0.0 < self.measure < math.inf):
            raise PreconditionError(self.empty)

    def to_dict(self) -> dict:
        return {"type": self.kind, **asdict(self)}


class _Box(_Piece):
    """An axis-aligned box whose fields are its lo corner, then its hi corner: Interval in 1D, Rect in 2D."""

    @property
    def lo(self) -> tuple[float, ...]:
        v = self._values()
        return v[: len(v) // 2]

    @property
    def hi(self) -> tuple[float, ...]:
        v = self._values()
        return v[len(v) // 2 :]

    @property
    def measure(self) -> float:
        return math.prod(h - l for l, h in zip(self.lo, self.hi))

    def extremal_points(self) -> list[tuple[np.ndarray, float]]:
        return [(np.array(corner), 0.0) for corner in itertools.product(*zip(self.lo, self.hi))]

    def center(self) -> np.ndarray:
        return np.array([(l + h) / 2.0 for l, h in zip(self.lo, self.hi)])

    def contains(self, x) -> bool:
        return all(l <= xa <= h for l, xa, h in zip(self.lo, x, self.hi, strict=True))

    def ray_span(self, x, d):
        return ray_box(x, d, self.lo, self.hi)


@dataclass(frozen=True)
class Interval(_Box):
    a: float
    b: float
    kind = "interval"
    empty = "interval must have finite positive length"


@dataclass(frozen=True)
class Rect(_Box):
    x0: float
    y0: float
    x1: float
    y1: float
    kind = "rect"
    empty = "rectangle must have finite positive area"


@dataclass(frozen=True)
class Disk(_Piece):
    cx: float
    cy: float
    r: float
    kind = "disk"
    empty = "disk must have finite positive radius and area"

    @property
    def lo(self) -> tuple[float, float]:
        return self.cx - self.r, self.cy - self.r

    @property
    def hi(self) -> tuple[float, float]:
        return self.cx + self.r, self.cy + self.r

    @property
    def measure(self) -> float:
        return math.pi * (self.r * self.r)  # r ** 2 would raise OverflowError

    def extremal_points(self) -> list[tuple[np.ndarray, float]]:
        return [(self.center(), self.r)]

    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])

    def contains(self, x) -> bool:
        return math.hypot(x[0] - self.cx, x[1] - self.cy) <= self.r

    def ray_span(self, x, d):
        return ray_disk(x, d, (self.cx, self.cy), self.r)


Piece = Interval | Rect | Disk
_PIECE_TYPES = (Interval, Rect, Disk)


def _pieces_overlap(p: Piece, q: Piece) -> bool:
    """Open overlap of two pieces of one domain, which holds at most one disk."""
    disk, box = (p, q) if isinstance(p, Disk) else (q, p)
    if isinstance(disk, Disk):  # the box's point nearest the centre lies inside the disk
        gap = [max(l - c, 0.0, c - h) for l, c, h in zip(box.lo, (disk.cx, disk.cy), box.hi)]
        return math.hypot(*gap) < disk.r
    return all(pl < qh and ql < ph for pl, ph, ql, qh in zip(p.lo, p.hi, q.lo, q.hi))


@dataclass(frozen=True)
class DomainSpec:
    dim: int
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise PreconditionError("domains support dimension 1 or 2")
        if not self.pieces:
            raise PreconditionError("domain needs at least one piece")
        for p in self.pieces:
            if self.dim == 1 and not isinstance(p, Interval):
                raise PreconditionError("1D domains are unions of intervals")
            if self.dim == 2 and isinstance(p, Interval):
                raise PreconditionError("2D domains use rectangles or a disk")
        if sum(isinstance(p, Disk) for p in self.pieces) > 1:
            raise PreconditionError("at most one disk piece is supported")
        for i, p in enumerate(self.pieces):
            for q in self.pieces[i + 1 :]:
                if _pieces_overlap(p, q):
                    raise PreconditionError("domain pieces must be pairwise disjoint")
        with np.errstate(over="ignore"):  # coordinates beyond 1.8e308 apart overflow their difference
            if not math.isfinite(self.diameter()):
                raise PreconditionError("domain diameter must be finite")
        object.__setattr__(self, "pieces", tuple(self.pieces))

    # -- scalar geometry ------------------------------------------------------

    def measure(self) -> float:
        return math.fsum(p.measure for p in self.pieces)

    def _extremal_points(self) -> list[tuple[np.ndarray, float]]:
        """(point, radius) pairs whose dilations cover each piece's hull."""
        return [pr for p in self.pieces for pr in p.extremal_points()]

    def diameter(self) -> float:
        pairs = itertools.combinations_with_replacement(self._extremal_points(), 2)
        return max(math.hypot(*(pi - pj)) + ri + rj for (pi, ri), (pj, rj) in pairs)

    def bounding_radius(self) -> float:
        """sup |x| over the domain: containment radius in the origin-centered ball."""
        return max(math.hypot(*p) + r for p, r in self._extremal_points())

    def centroid(self) -> np.ndarray:
        return sum(p.measure * p.center() for p in self.pieces) / self.measure()

    # -- membership and rays ----------------------------------------------------

    def contains(self, point) -> bool:
        x = np.atleast_1d(np.asarray(point, dtype=float))
        return any(p.contains(x) for p in self.pieces)

    def ray_spans(self, x, directions) -> tuple[np.ndarray, np.ndarray]:
        """(t_in, t_out), each (pieces, directions): where the ray x + t*dir, t >= 0, crosses each piece.

        t_in is clipped at 0, so it is 0 on a piece holding x; t_out <= t_in is a miss.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = np.asarray(directions, dtype=float).reshape(-1, self.dim).T
        t_in, t_out = zip(*(p.ray_span(x, d) for p in self.pieces))
        return np.maximum(t_in, 0.0), np.array(t_out)

    def ray_segments(self, x, directions) -> list[list[tuple[float, float]]]:
        """Per unit direction, the sorted disjoint intervals {t >= 0 : x + t*dir in domain}."""
        t_in, t_out = self.ray_spans(x, directions)
        return [sorted(zip(a[b > a].tolist(), b[b > a].tolist())) for a, b in zip(t_in.T, t_out.T)]


# -- ray intersections ------------------------------------------------------------


def ray_box(x, d, lo, hi):
    """Parameters (t_in, t_out) where the rays x + t*d cross the box [lo, hi] (slab method).

    x, d, lo and hi hold one array per axis, all broadcast together.  A ray
    parallel to a face stays inside that slab for every t or for none.
    t_in is negative for a ray starting inside; the ray (t >= 0) misses the
    box when t_out <= max(t_in, 0).
    """
    t_lo, t_hi = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for xa, da, la, ha in zip(x, d, lo, hi):
            ta = np.divide(la - xa, da)
            tb = np.divide(ha - xa, da)
            inside = (xa >= la) & (xa <= ha)
            lo_a, hi_a = np.minimum(ta, tb), np.maximum(ta, tb)
            t_lo.append(np.where(np.isfinite(lo_a), lo_a, np.where(inside, -np.inf, np.inf)))
            t_hi.append(np.where(np.isfinite(hi_a), hi_a, np.where(inside, np.inf, -np.inf)))
    return reduce(np.maximum, t_lo), reduce(np.minimum, t_hi)


def ray_disk(x, d, centre, r):
    """Parameters (t_in, t_out) where the rays x + t*d cross the disk |y - centre| <= r.

    x, d and centre are (x, y) pairs of arrays, all broadcast together; the
    directions d are unit vectors.  A miss, tangent rays included, gives (inf, -inf).
    """
    (px, py), (ct, st), (cx, cy) = x, d, centre
    dx, dy = px - cx, py - cy
    b = dx * ct + dy * st
    c = dx * dx + dy * dy - r * r
    disc = b * b - c
    root = np.sqrt(np.maximum(disc, 0.0))
    return np.where(disc > 0, -b - root, np.inf), np.where(disc > 0, -b + root, -np.inf)


# -- circle-box area -------------------------------------------------------------


def _w_antideriv(u: float, r: float) -> float:
    """int_0^u sqrt(r^2 - v^2) dv; the factored root and atan2 stay accurate as |u| -> r."""
    u = min(max(u, -r), r)
    s = math.sqrt((r - u) * (r + u))
    return 0.5 * (u * s + r * r * math.atan2(u, s))


def _quadrant_area(x: float, y: float, r: float) -> float:
    """Area of the origin-centered disk of radius r within {u <= x, v <= y}."""
    if x <= -r or y <= -r:
        return 0.0
    x = min(x, r)
    if y >= r:
        return 2.0 * (_w_antideriv(x, r) - _w_antideriv(-r, r))
    ustar = math.sqrt(max(r * r - y * y, 0.0))
    area = 0.0
    if y >= 0.0:
        lo = min(x, -ustar)
        area += 2.0 * (_w_antideriv(lo, r) - _w_antideriv(-r, r))
        if x > -ustar:
            hi = min(x, ustar)
            area += y * (hi - (-ustar)) + (_w_antideriv(hi, r) - _w_antideriv(-ustar, r))
        if x > ustar:
            area += 2.0 * (_w_antideriv(x, r) - _w_antideriv(ustar, r))
    else:
        if x > -ustar:
            hi = min(x, ustar)
            area += y * (hi - (-ustar)) + (_w_antideriv(hi, r) - _w_antideriv(-ustar, r))
    return area


def circle_box_area(disk: Disk, x0: float, y0: float, x1: float, y1: float) -> float:
    """Exact area of disk intersect [x0,x1] x [y0,y1] (inclusion-exclusion of quadrants)."""
    if x1 <= x0 or y1 <= y0:
        return 0.0
    f = lambda x, y: _quadrant_area(x - disk.cx, y - disk.cy, disk.r)
    return max(f(x1, y1) - f(x0, y1) - f(x1, y0) + f(x0, y0), 0.0)


# -- meshes ----------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh:
    """Cells partitioning the domain, one float64 row each, with their exact measures.

    A 1D cell is (lo, hi); a 2D cell is (x0, y0, x1, y1, clipped), the
    flag 1.0 on a boundary box clipped to the disk and 0.0 elsewhere.
    """

    domain: DomainSpec
    cells: np.ndarray = field(repr=False)  # (n, 2) in 1D, (n, 5) in 2D
    cell_measure: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's lo and hi corner, both (n, dim)."""
        dim = self.domain.dim
        return self.cells[:, :dim], self.cells[:, dim : 2 * dim]

    def centers(self) -> np.ndarray:
        """Cell centres, (n,) in 1D and (n, 2) in 2D."""
        lo, hi = self.corners()
        centres = 0.5 * (lo + hi)
        return centres[:, 0] if self.domain.dim == 1 else centres

    def max_cell_diameter(self) -> float:
        lo, hi = self.corners()
        return float(np.max(np.hypot.reduce(hi - lo, axis=1)))


def mesh_intervals(domain: DomainSpec, n_cells: int) -> Mesh:
    """Uniform-width partition of a 1D domain with cells split across pieces.

    Cell counts per piece are proportional to length (at least one each), so
    commensurate piece lengths give an exactly uniform width.
    """
    if domain.dim != 1:
        raise PreconditionError("interval meshes are one-dimensional")
    total = domain.measure()
    counts = [max(1, round(n_cells * (p.measure / total))) for p in domain.pieces]  # n_cells * measure can overflow
    edges = [np.linspace(p.a, p.b, cnt + 1) for p, cnt in zip(domain.pieces, counts)]
    cells = np.concatenate([np.column_stack([e[:-1], e[1:]]) for e in edges])
    return _resolved(Mesh(domain=domain, cells=cells, cell_measure=cells[:, 1] - cells[:, 0]))


def _resolved(mesh: Mesh) -> Mesh:
    """The mesh, unless a cell spans fewer than _MIN_CELL_ULPS ulps of the largest coordinate magnitude."""
    lo, hi = mesh.corners()
    ulp = math.ulp(max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi)))))
    if not float(np.min(hi - lo)) >= _MIN_CELL_ULPS * ulp:
        raise PreconditionError("mesh cells are too narrow to resolve at the domain's coordinates (under 1000 ulps)")
    return mesh


def _box_cells(xs, ys) -> np.ndarray:
    """The boxes of the grid xs x ys, x-major, as unclipped (n, 5) cells."""
    x0, y0 = np.meshgrid(xs[:-1], ys[:-1], indexing="ij")
    x1, y1 = np.meshgrid(xs[1:], ys[1:], indexing="ij")
    return np.column_stack([x0.ravel(), y0.ravel(), x1.ravel(), y1.ravel(), np.zeros(x0.size)])


def _cell_count(length: float, h: float, least: int) -> int:
    """Cells of width at most h across length, and at least `least`.

    That is ceil(length / h), but a quotient within 1e-12 relative of an
    integer counts as that integer: (0.65 - 0.35) / 0.005 rounds to
    60.00000000000001, whose ceil would put the piece off a 0.005 grid.
    """
    q = length / h
    n = round(q)
    return max(least, n if abs(q - n) <= 1e-12 * q else math.ceil(q))


def mesh_rectangles(domain: DomainSpec, target_h: float) -> Mesh:
    """Box mesh of a 2D domain; disk pieces get exact clipped boundary cells.

    A disk's grid is centred on it.  A box whose farthest corner lies in
    the disk (to 1e-12 relative) is an unclipped cell with its box area;
    the boxes the circle crosses take the exact circle-box area and the
    clipped flag, and those it misses (area 0) are dropped.
    """
    if domain.dim != 2:
        raise PreconditionError("rectangle meshes are two-dimensional")
    cells, measures = [], []
    for p in domain.pieces:
        if isinstance(p, Rect):
            xs = np.linspace(p.x0, p.x1, _cell_count(p.x1 - p.x0, target_h, 1) + 1)
            ys = np.linspace(p.y0, p.y1, _cell_count(p.y1 - p.y0, target_h, 1) + 1)
            cells.append(_box_cells(xs, ys))
            measures.append(np.outer(np.diff(xs), np.diff(ys)).ravel())
        else:
            n = _cell_count(2 * p.r, target_h, 2)
            xs = np.linspace(p.cx - p.r, p.cx + p.r, n + 1)
            ys = np.linspace(p.cy - p.r, p.cy + p.r, n + 1)
            full = (xs[1] - xs[0]) * (ys[1] - ys[0])
            boxes = _box_cells(xs, ys)
            rel = np.abs(boxes[:, :4] - [p.cx, p.cy, p.cx, p.cy])
            farthest = np.hypot(*np.maximum(rel[:, :2], rel[:, 2:]).T)  # the farthest corner's distance
            cut = np.flatnonzero(farthest > p.r * (1.0 + 1e-12))  # boxes the circle crosses or misses
            area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
            area[cut] = [circle_box_area(p, *box[:4]) for box in boxes[cut]]
            boxes[cut, 4] = 1.0
            inside = area > 0.0
            boxes, area = boxes[inside], area[inside]
            # merge slivers into the kept cell whose centre is nearest, which is then clipped
            sliver = area < _SLIVER_FRACTION * full
            keep = np.flatnonzero(~sliver)
            centres = 0.5 * (boxes[:, :2] + boxes[:, 2:4])
            kept = centres[keep]
            for s in np.flatnonzero(sliver):  # equally near cells (mirrored neighbours) go to the first
                best = keep[np.argmin(np.hypot(*(kept - centres[s]).T))]
                area[best] += area[s]
                boxes[best, 4] = 1.0
            cells.append(boxes[keep])
            measures.append(area[keep])
    mesh = _resolved(Mesh(domain=domain, cells=np.concatenate(cells), cell_measure=np.concatenate(measures)))
    total = float(np.sum(mesh.cell_measure))
    if abs(total - domain.measure()) > 1e-10 * max(1.0, domain.measure()):
        raise PreconditionError("mesh measures fail to partition the domain")
    return mesh


# -- JSON ------------------------------------------------------------------------


def domain_to_dict(d: DomainSpec) -> dict:
    return {"dim": d.dim, "pieces": [p.to_dict() for p in d.pieces]}


def domain_from_dict(data: dict) -> DomainSpec:
    try:
        pieces = []
        for p in data["pieces"]:
            kind = p["type"]
            cls = next((c for c in _PIECE_TYPES if c.kind == kind), None)
            if cls is None:
                raise PreconditionError(f"unknown piece type {kind!r}")
            pieces.append(cls(*(float(p[f.name]) for f in fields(cls))))
        return DomainSpec(dim=int(data["dim"]), pieces=tuple(pieces))
    except PreconditionError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise PreconditionError(f"malformed domain file: {exc}") from exc
