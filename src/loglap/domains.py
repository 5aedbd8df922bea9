"""Bounded Lipschitz domains as unions of simple pieces, and their meshes.

Supported pieces: closed intervals (N = 1), axis-aligned rectangles and a
disk (N = 2).  The geometry needed downstream is exact: measures, diameters,
containment radius, and the intersection of a ray with the domain (used by
the regional representation and the polar assembly integrals).

Meshes carry a flat list of cells with exact measures; 1D cells are
intervals, 2D cells are boxes optionally clipped to the disk with the
clipped measure computed from the analytic circle-box area.  Clipped
slivers below a relative threshold are merged into their inward neighbor to
protect the mass-matrix conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise PreconditionError("interval must have positive length")

    @property
    def measure(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise PreconditionError("rectangle must have positive area")

    @property
    def measure(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise PreconditionError("disk must have positive radius")

    @property
    def measure(self) -> float:
        return math.pi * self.r ** 2


Piece = Interval | Rect | Disk


def _pieces_overlap(p: Piece, q: Piece) -> bool:
    if isinstance(p, Interval) and isinstance(q, Interval):
        return p.a < q.b and q.a < p.b
    if isinstance(p, Rect) and isinstance(q, Rect):
        return p.x0 < q.x1 and q.x0 < p.x1 and p.y0 < q.y1 and q.y0 < p.y1
    if isinstance(p, Disk) and isinstance(q, Disk):
        return math.hypot(p.cx - q.cx, p.cy - q.cy) < p.r + q.r
    disk, rect = (p, q) if isinstance(p, Disk) else (q, p)
    dx = max(rect.x0 - disk.cx, 0.0, disk.cx - rect.x1)
    dy = max(rect.y0 - disk.cy, 0.0, disk.cy - rect.y1)
    return math.hypot(dx, dy) < disk.r


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
        disks = [p for p in self.pieces if isinstance(p, Disk)]
        if len(disks) > 1:
            raise PreconditionError("at most one disk piece is supported")
        for i, p in enumerate(self.pieces):
            for q in self.pieces[i + 1 :]:
                if _pieces_overlap(p, q):
                    raise PreconditionError("domain pieces must be pairwise disjoint")
        object.__setattr__(self, "pieces", tuple(self.pieces))

    # -- scalar geometry ------------------------------------------------------

    def measure(self) -> float:
        return math.fsum(p.measure for p in self.pieces)

    def _extremal_points(self) -> list[tuple[np.ndarray, float]]:
        """(point, radius) pairs whose dilations cover each piece's hull."""
        out = []
        for p in self.pieces:
            if isinstance(p, Interval):
                out.append((np.array([p.a]), 0.0))
                out.append((np.array([p.b]), 0.0))
            elif isinstance(p, Rect):
                for cx in (p.x0, p.x1):
                    for cy in (p.y0, p.y1):
                        out.append((np.array([cx, cy]), 0.0))
            else:
                out.append((np.array([p.cx, p.cy]), p.r))
        return out

    def diameter(self) -> float:
        pts = self._extremal_points()
        best = 0.0
        for i, (pi, ri) in enumerate(pts):
            for pj, rj in pts[i:]:
                best = max(best, float(np.linalg.norm(pi - pj)) + ri + rj)
        return best

    def bounding_radius(self) -> float:
        """sup |x| over the domain: containment radius in the origin-centered ball."""
        return max(float(np.linalg.norm(p)) + r for p, r in self._extremal_points())

    def centroid(self) -> np.ndarray:
        acc = np.zeros(self.dim)
        for p in self.pieces:
            if isinstance(p, Interval):
                acc += p.measure * np.array([(p.a + p.b) / 2.0])
            elif isinstance(p, Rect):
                acc += p.measure * np.array([(p.x0 + p.x1) / 2.0, (p.y0 + p.y1) / 2.0])
            else:
                acc += p.measure * np.array([p.cx, p.cy])
        return acc / self.measure()

    # -- membership and rays ----------------------------------------------------

    def contains(self, point) -> bool:
        x = np.atleast_1d(np.asarray(point, dtype=float))
        for p in self.pieces:
            if isinstance(p, Interval):
                if p.a <= x[0] <= p.b:
                    return True
            elif isinstance(p, Rect):
                if p.x0 <= x[0] <= p.x1 and p.y0 <= x[1] <= p.y1:
                    return True
            else:
                if math.hypot(x[0] - p.cx, x[1] - p.cy) <= p.r:
                    return True
        return False

    def ray_segments(self, x, direction) -> list[tuple[float, float]]:
        """Sorted disjoint parameter intervals {t >= 0 : x + t*dir in domain}."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = np.atleast_1d(np.asarray(direction, dtype=float))
        segs = []
        for p in self.pieces:
            seg = _ray_piece(p, x, d)
            if seg is not None:
                segs.append(seg)
        return sorted(segs)


def _ray_piece(p: Piece, x: np.ndarray, d: np.ndarray):
    if isinstance(p, Interval):
        lo, hi = np.array([p.a]), np.array([p.b])
    elif isinstance(p, Rect):
        lo, hi = np.array([p.x0, p.y0]), np.array([p.x1, p.y1])
    else:
        dx = x - np.array([p.cx, p.cy])
        a = float(d @ d)
        b = 2.0 * float(dx @ d)
        c = float(dx @ dx) - p.r ** 2
        disc = b * b - 4 * a * c
        if disc <= 0:
            return None
        root = math.sqrt(disc)
        t0, t1 = (-b - root) / (2 * a), (-b + root) / (2 * a)
        t0, t1 = max(t0, 0.0), t1
        return (t0, t1) if t1 > t0 else None
    t_lo, t_hi = 0.0, math.inf
    for i in range(len(lo)):
        if d[i] == 0.0:
            if not lo[i] <= x[i] <= hi[i]:
                return None
            continue
        ta = (lo[i] - x[i]) / d[i]
        tb = (hi[i] - x[i]) / d[i]
        if ta > tb:
            ta, tb = tb, ta
        t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
    return (t_lo, t_hi) if t_hi > t_lo else None


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
    """Flat cell list partitioning the domain (boundary cells clipped for disks)."""

    domain: DomainSpec
    cells: tuple  # 1D: (lo, hi); 2D: (x0, y0, x1, y1, clipped: bool)
    cell_measure: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def centers(self) -> np.ndarray:
        if self.domain.dim == 1:
            return np.array([(c[0] + c[1]) / 2.0 for c in self.cells])
        return np.array([((c[0] + c[2]) / 2.0, (c[1] + c[3]) / 2.0) for c in self.cells])

    def max_cell_diameter(self) -> float:
        if self.domain.dim == 1:
            return max(c[1] - c[0] for c in self.cells)
        return max(math.hypot(c[2] - c[0], c[3] - c[1]) for c in self.cells)


def mesh_intervals(domain: DomainSpec, n_cells: int) -> Mesh:
    """Uniform-width partition of a 1D domain with cells split across pieces.

    Cell counts per piece are proportional to length (at least one each), so
    commensurate piece lengths give an exactly uniform width.
    """
    if domain.dim != 1:
        raise PreconditionError("interval meshes are one-dimensional")
    total = domain.measure()
    lengths = [p.measure for p in domain.pieces]
    counts = [max(1, round(n_cells * L / total)) for L in lengths]
    cells = []
    for p, cnt in zip(domain.pieces, counts):
        edges = np.linspace(p.a, p.b, cnt + 1)
        cells.extend((float(edges[i]), float(edges[i + 1])) for i in range(cnt))
    measures = np.array([hi - lo for lo, hi in cells])
    return Mesh(domain=domain, cells=tuple(cells), cell_measure=measures)


def mesh_rectangles(domain: DomainSpec, target_h: float, sliver_fraction: float = 1e-3) -> Mesh:
    """Box mesh of a 2D domain; disk pieces get exact clipped boundary cells."""
    if domain.dim != 2:
        raise PreconditionError("rectangle meshes are two-dimensional")
    cells = []
    measures = []
    for p in domain.pieces:
        if isinstance(p, Rect):
            nx = max(1, math.ceil((p.x1 - p.x0) / target_h))
            ny = max(1, math.ceil((p.y1 - p.y0) / target_h))
            xs = np.linspace(p.x0, p.x1, nx + 1)
            ys = np.linspace(p.y0, p.y1, ny + 1)
            for i in range(nx):
                for j in range(ny):
                    cells.append((float(xs[i]), float(ys[j]), float(xs[i + 1]), float(ys[j + 1]), False))
                    measures.append((xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j]))
        else:
            n = max(2, math.ceil(2 * p.r / target_h))
            xs = np.linspace(p.cx - p.r, p.cx + p.r, n + 1)
            ys = np.linspace(p.cy - p.r, p.cy + p.r, n + 1)
            full = (xs[1] - xs[0]) * (ys[1] - ys[0])
            raw = []
            for i in range(n):
                for j in range(n):
                    area = circle_box_area(p, xs[i], ys[j], xs[i + 1], ys[j + 1])
                    if area <= 0.0:
                        continue
                    clipped = area < full * (1.0 - 1e-12)
                    raw.append([float(xs[i]), float(ys[j]), float(xs[i + 1]), float(ys[j + 1]), clipped, area])
            # merge slivers into the neighbor nearest the disk center
            keep, slivers = [], []
            for entry in raw:
                (slivers if entry[5] < sliver_fraction * full else keep).append(entry)
            for sl in slivers:
                scx, scy = (sl[0] + sl[2]) / 2.0, (sl[1] + sl[3]) / 2.0
                best, best_d = None, math.inf
                for entry in keep:
                    ecx, ecy = (entry[0] + entry[2]) / 2.0, (entry[1] + entry[3]) / 2.0
                    d = math.hypot(ecx - scx, ecy - scy)
                    if d < best_d:
                        best, best_d = entry, d
                best[5] += sl[5]
                best[4] = True
            for entry in keep:
                cells.append((entry[0], entry[1], entry[2], entry[3], entry[4]))
                measures.append(entry[5])
    measures = np.array(measures, dtype=float)
    mesh = Mesh(domain=domain, cells=tuple(cells), cell_measure=measures)
    total = float(np.sum(measures))
    if abs(total - domain.measure()) > 1e-10 * max(1.0, domain.measure()):
        raise PreconditionError("mesh measures fail to partition the domain")
    return mesh


# -- JSON ------------------------------------------------------------------------


def domain_to_dict(d: DomainSpec) -> dict:
    pieces = []
    for p in d.pieces:
        if isinstance(p, Interval):
            pieces.append({"type": "interval", "a": p.a, "b": p.b})
        elif isinstance(p, Rect):
            pieces.append({"type": "rect", "x0": p.x0, "y0": p.y0, "x1": p.x1, "y1": p.y1})
        else:
            pieces.append({"type": "disk", "cx": p.cx, "cy": p.cy, "r": p.r})
    return {"dim": d.dim, "pieces": pieces}


def domain_from_dict(data: dict) -> DomainSpec:
    try:
        pieces = []
        for p in data["pieces"]:
            kind = p["type"]
            if kind == "interval":
                pieces.append(Interval(float(p["a"]), float(p["b"])))
            elif kind == "rect":
                pieces.append(Rect(float(p["x0"]), float(p["y0"]), float(p["x1"]), float(p["y1"])))
            elif kind == "disk":
                pieces.append(Disk(float(p["cx"]), float(p["cy"]), float(p["r"])))
            else:
                raise PreconditionError(f"unknown piece type {kind!r}")
        return DomainSpec(dim=int(data["dim"]), pieces=tuple(pieces))
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed domain file: {exc}") from exc
