"""Domain geometry: measures, diameters, rays, circle-box areas, meshes."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from loglap import PreconditionError
from loglap.domains import (
    Disk,
    DomainSpec,
    Interval,
    Rect,
    circle_box_area,
    domain_from_dict,
    domain_to_dict,
    mesh_intervals,
    mesh_rectangles,
    ray_box,
    ray_disk,
)


def test_piece_validation():
    with pytest.raises(PreconditionError):
        Interval(1.0, 1.0)
    with pytest.raises(PreconditionError):
        Rect(0, 0, 0, 1)
    with pytest.raises(PreconditionError):
        Disk(0, 0, 0.0)


@pytest.mark.parametrize("piece, fields", [
    (Interval, (-0.5, 0.5)),
    (Rect, (-0.5, -0.5, 0.5, 0.5)),
    (Disk, (0.0, 0.0, 0.5)),
], ids=["interval", "rect", "disk"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_piece_fields_rejected(piece, fields, bad):
    for k in range(len(fields)):
        with pytest.raises(PreconditionError, match="must be finite"):
            piece(*fields[:k], bad, *fields[k + 1 :])
    piece(*fields)


def test_disjointness_enforced():
    with pytest.raises(PreconditionError):
        DomainSpec(1, (Interval(0, 1), Interval(0.5, 2)))
    with pytest.raises(PreconditionError):
        DomainSpec(2, (Rect(0, 0, 1, 1), Disk(1, 1, 0.5)))
    DomainSpec(2, (Rect(0, 0, 1, 1), Disk(3, 3, 0.5)))  # disjoint: fine


def test_measures_and_diameter():
    d = DomainSpec(1, (Interval(-1, -0.5), Interval(0.5, 1)))
    assert d.measure() == pytest.approx(1.0)
    assert d.diameter() == pytest.approx(2.0)
    assert d.bounding_radius() == pytest.approx(1.0)
    d2 = DomainSpec(2, (Disk(0.5, 0.0, 0.25),))
    assert d2.measure() == pytest.approx(math.pi * 0.0625, rel=1e-15)
    assert d2.diameter() == pytest.approx(0.5)
    assert d2.bounding_radius() == pytest.approx(0.75)


@pytest.mark.parametrize("piece, diameter, radius", [
    (Interval(-1e308, 1e-300), 1e308, 1e308),
    (Rect(-1e200, 0.0, 1e200, 1.0), 2e200, 1e200),
    (Disk(3e160, 4e160, 1e150), 2e150, 5e160 + 1e150),
], ids=["interval-1e308", "rect-2e200", "disk-5e160-off-centre"])
def test_diameter_of_points_beyond_1e154_apart_is_finite(piece, diameter, radius):
    # the norm squared its coordinates and overflowed beyond about 1.3e154, so these domains were refused
    d = DomainSpec(1 if isinstance(piece, Interval) else 2, (piece,))
    assert d.diameter() == pytest.approx(diameter, rel=1e-15)
    assert d.bounding_radius() == pytest.approx(radius, rel=1e-15)


def test_contains_and_centroid():
    d = DomainSpec(1, (Interval(0, 1), Interval(2, 3)))
    assert d.contains([0.5]) and d.contains([2.5]) and not d.contains([1.5])
    assert d.centroid()[0] == pytest.approx(1.5)


def test_ray_segments_interval_union():
    d = DomainSpec(1, (Interval(-1, -0.2), Interval(0.1, 0.6)))
    segs = d.ray_segments([0.3], [1.0])[0]
    assert segs == [(0.0, pytest.approx(0.3))]
    segs_left = d.ray_segments([0.3], [-1.0])[0]
    # leaves the containing piece at t = 0.2, crosses (-1, -0.2) for t in (0.5, 1.3)
    assert segs_left[0] == (0.0, pytest.approx(0.2))
    assert segs_left[1] == (pytest.approx(0.5), pytest.approx(1.3))


def test_ray_segments_rect_and_disk():
    d = DomainSpec(2, (Rect(-1, -1, 1, 1),))
    segs = d.ray_segments([0.0, 0.0], [1.0, 0.0])[0]
    assert segs == [(0.0, pytest.approx(1.0))]
    diag = d.ray_segments([0.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)])[0]
    assert diag[0][1] == pytest.approx(math.sqrt(2.0))
    dd = DomainSpec(2, (Disk(0.0, 0.0, 1.0),))
    segs = dd.ray_segments([0.5, 0.0], [1.0, 0.0])[0]
    assert segs == [(0.0, pytest.approx(0.5))]
    outside = dd.ray_segments([2.0, 0.0], [-1.0, 0.0])[0]
    assert outside == [(pytest.approx(1.0), pytest.approx(3.0))]


def test_ray_box_parallel_to_a_face():
    lo, hi = (0.0, 0.0), (1.0, 1.0)
    # inside the y slab: the x slab alone decides, the ray starts inside
    t_in, t_out = ray_box((0.5, 0.2), (1.0, 0.0), lo, hi)
    assert (t_in, t_out) == (-0.5, 0.5)
    # outside the y slab: a miss for every t
    t_in, t_out = ray_box((0.5, 1.5), (-1.0, 0.0), lo, hi)
    assert (t_in, t_out) == (np.inf, -np.inf)
    # on a face, parallel to it: the closed slab keeps the ray
    assert ray_box((0.5, 1.0), (1.0, 0.0), lo, hi) == (-0.5, 0.5)


def test_ray_box_start_inside_and_miss():
    c = math.sqrt(0.5)
    t_in, t_out = ray_box((0.25, 0.5), (c, c), (0.0, 0.0), (1.0, 1.0))
    assert t_in == pytest.approx(-0.25 / c, rel=1e-15) and t_out == pytest.approx(0.5 / c, rel=1e-15)
    t_in, t_out = ray_box((2.0, 0.5), (c, c), (0.0, 0.0), (1.0, 1.0))
    assert t_out <= t_in
    # broadcasting: points down the rows, directions across the columns
    px = np.array([[0.25], [2.0]])
    phi = np.array([[0.3, 2.0, 4.0]])
    t_in, t_out = ray_box((px, 0.5), (np.cos(phi), np.sin(phi)), (0.0, 0.0), (1.0, 1.0))
    assert t_in.shape == (2, 3)
    for a in range(2):
        for b in range(3):
            ref = ray_box((px[a, 0], 0.5), (math.cos(phi[0, b]), math.sin(phi[0, b])), (0.0, 0.0), (1.0, 1.0))
            assert (t_in[a, b], t_out[a, b]) == ref


def test_ray_box_interval():
    t_in, t_out = ray_box((0.3,), (np.array([1.0, -1.0]),), (0.1,), (0.6,))
    assert t_in == pytest.approx([-0.2, -0.3], rel=1e-15)
    assert t_out == pytest.approx([0.3, 0.2], rel=1e-15)
    # starting right of the interval: the line meets it behind the start when heading right
    t_in, t_out = ray_box((0.8,), (np.array([1.0, -1.0]),), (0.1,), (0.6,))
    assert t_out[0] < 0.0
    assert (t_in[1], t_out[1]) == (pytest.approx(0.2), pytest.approx(0.7))


def test_ray_disk_chords_misses_and_tangents():
    t_in, t_out = ray_disk((-2.0, 0.0), (1.0, 0.0), (0.0, 0.0), 1.0)
    assert (t_in, t_out) == (1.0, 3.0)
    t_in, t_out = ray_disk((0.5, 0.0), (1.0, 0.0), (0.0, 0.0), 1.0)
    assert (t_in, t_out) == (-1.5, 0.5)
    # miss, and a tangent ray (disc == 0 exactly) counted as a miss
    assert ray_disk((-2.0, 2.0), (1.0, 0.0), (0.0, 0.0), 1.0) == (np.inf, -np.inf)
    assert ray_disk((-1.0, 1.0), (1.0, 0.0), (0.0, 0.0), 1.0) == (np.inf, -np.inf)
    # off-centre disk, broadcast over directions
    phi = np.linspace(0.0, 2.0 * math.pi, 7)
    t_in, t_out = ray_disk((0.3, 0.0), (np.cos(phi), np.sin(phi)), (0.3, 0.4), 0.5)
    assert np.all(t_in < 0.0) and np.all(t_out > 0.0)
    ends = np.stack([0.3 + t_out * np.cos(phi), t_out * np.sin(phi)])
    assert np.hypot(ends[0] - 0.3, ends[1] - 0.4) == pytest.approx(np.full(7, 0.5), rel=1e-14)


def _segments_by_bisection(dom, x, theta, t_max=3.0, steps=600):
    """Membership changes along the ray, located on a grid and bisected."""
    inside = lambda t: dom.contains(x + t * theta)
    ts = np.linspace(0.0, t_max, steps + 1)
    flags = [inside(t) for t in ts]
    edges = [0.0] if flags[0] else []
    for a, b, fa, fb in zip(ts[:-1], ts[1:], flags[:-1], flags[1:]):
        if fa == fb:
            continue
        for _ in range(45):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if inside(mid) == fa else (a, mid)
        edges.append(0.5 * (a + b))
    return list(zip(edges[::2], edges[1::2]))


@pytest.mark.parametrize("x", [(0.1, -0.15), (1.0, 0.0), (0.65, 0.35)], ids=["in-disk", "in-rect", "outside"])
def test_ray_segments_match_bisection_over_64_directions(x):
    dom = DomainSpec(2, (Disk(0.1, -0.2, 0.7), Rect(0.9, -0.3, 1.4, 0.4), Rect(-1.5, -1.0, -0.8, 1.0)))
    x = np.array(x)
    phi = 2.0 * math.pi * (np.arange(64) + 0.5) / 64
    thetas = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    all_segs = dom.ray_segments(x, thetas)
    assert len(all_segs) == 64
    for theta, segs in zip(thetas, all_segs):
        ref = _segments_by_bisection(dom, x, theta)
        assert len(segs) == len(ref)
        for (a, b), (ra, rb) in zip(segs, ref):
            assert a == pytest.approx(ra, abs=1e-12) and b == pytest.approx(rb, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_circle_box_area_against_quadrature(seed):
    # chord-length quadrature oracle, split at every kink of the integrand
    rng = np.random.default_rng(seed)
    for _ in range(8):
        cx, cy = rng.uniform(-1, 1, 2)
        r = rng.uniform(0.2, 1.5)
        x0, y0 = rng.uniform(-2, 1, 2)
        x1, y1 = x0 + rng.uniform(0.1, 2.0), y0 + rng.uniform(0.1, 2.0)
        disk = Disk(cx, cy, r)

        def chord(x):
            if abs(x - cx) >= r:
                return 0.0
            half = math.sqrt(r * r - (x - cx) ** 2)
            return max(min(cy + half, y1) - max(cy - half, y0), 0.0)

        lo, hi = max(x0, cx - r), min(x1, cx + r)
        if hi <= lo:
            ref = 0.0
        else:
            breaks = {lo, hi}
            for yb in (y0, y1):
                d2 = r * r - (yb - cy) ** 2
                if d2 > 0:
                    for p in (cx - math.sqrt(d2), cx + math.sqrt(d2)):
                        if lo < p < hi:
                            breaks.add(p)
            pts = sorted(breaks)
            ref = sum(
                integrate.quad(chord, a, b, epsabs=1e-14, limit=200)[0]
                for a, b in zip(pts[:-1], pts[1:])
            )
        got = circle_box_area(disk, x0, y0, x1, y1)
        assert got == pytest.approx(ref, abs=1e-12)


def test_circle_box_area_full_and_empty():
    disk = Disk(0, 0, 1)
    assert circle_box_area(disk, -2, -2, 2, 2) == pytest.approx(math.pi, rel=1e-14)
    assert circle_box_area(disk, 2, 2, 3, 3) == 0.0


def _circle_box_area_mpmath(disk, x0, y0, x1, y1):
    """Chord-length integral at 40 digits, split where the chord has kinks."""
    with mp.workdps(40):
        cx, cy, r, x0, y0, x1, y1 = map(mp.mpf, (disk.cx, disk.cy, disk.r, x0, y0, x1, y1))

        def chord(x):
            d2 = r ** 2 - (x - cx) ** 2
            half = mp.sqrt(d2) if d2 > 0 else mp.mpf(0)
            return max(min(cy + half, y1) - max(cy - half, y0), mp.mpf(0))

        breaks = {x0, x1}
        for yb in (y0, y1):
            d2 = r ** 2 - (yb - cy) ** 2
            if d2 > 0:
                breaks.update((cx - mp.sqrt(d2), cx + mp.sqrt(d2)))
        breaks.update((cx - r, cx + r))
        return float(mp.quad(chord, sorted(b for b in breaks if x0 <= b <= x1)))


def test_tangent_boundary_cell_of_off_centre_disk():
    # the cell's right edge rounds to 2e-17 inside the disk's tangent line
    disk = Disk(0.06317071082430645, -0.09945229996597038, 0.2)
    mesh = mesh_rectangles(DomainSpec(2, (disk,)), 0.04)
    box = (0.22317071082430642, -0.1394522999659704, 0.26317071082430643, -0.09945229996597038)
    assert box in [tuple(c[:4]) for c in mesh.cells]
    assert circle_box_area(disk, *box) == pytest.approx(_circle_box_area_mpmath(disk, *box), abs=1e-15)


def test_off_centre_disks_partition():
    rng = np.random.default_rng(0)
    for cx, cy in rng.uniform(-0.1, 0.1, size=(300, 2)):
        domain = DomainSpec(2, (Disk(float(cx), float(cy), 0.2),))
        mesh = mesh_rectangles(domain, 0.04)  # raises unless the cells partition the disk
        assert np.sum(mesh.cell_measure) == pytest.approx(domain.measure(), rel=1e-10)


def test_disk_cells_are_clipped_exactly_where_the_circle_crosses_their_box():
    # a kept cell is flagged when its box's nearest point lies inside the circle and its farthest corner
    # outside; the flags then keep the centred grid's symmetry under x -> -x and x <-> y
    h, r = 0.005, 0.2
    cells = mesh_rectangles(DomainSpec(2, (Disk(0.0, 0.0, r),)), h).cells
    x0, y0, x1, y1, flag = cells.T
    near = np.hypot(np.maximum(np.maximum(x0, -x1), 0.0), np.maximum(np.maximum(y0, -y1), 0.0))
    far = np.hypot(np.maximum(-x0, x1), np.maximum(-y0, y1))
    assert np.array_equal(flag > 0.0, (near < r) & (far > r))
    assert np.count_nonzero(flag) == 308
    as_set = lambda c: {(*np.round(row[:4] / h, 6), row[4]) for row in c}  # mirrored linspace edges differ by ulps
    for image in (cells[:, [2, 1, 0, 3, 4]] * [-1, 1, -1, 1, 1], cells[:, [1, 0, 3, 2, 4]]):
        assert as_set(image) == as_set(cells)


def test_mesh_intervals_partition_exact():
    d = DomainSpec(1, (Interval(-0.25, 0.25),))
    mesh = mesh_intervals(d, 100)
    assert mesh.n_cells == 100
    assert math.fsum(mesh.cell_measure) == pytest.approx(0.5, abs=1e-15)
    d2 = DomainSpec(1, (Interval(-1, -0.5), Interval(0.0, 1.0)))
    mesh2 = mesh_intervals(d2, 90)
    assert np.sum(mesh2.cell_measure) == pytest.approx(1.5, rel=1e-14)


def test_mesh_rectangles_partition():
    d = DomainSpec(2, (Rect(0, 0, 1, 0.5),))
    mesh = mesh_rectangles(d, 0.11)
    assert np.sum(mesh.cell_measure) == pytest.approx(0.5, rel=1e-14)
    disk = DomainSpec(2, (Disk(0.0, 0.0, 0.4),))
    mesh2 = mesh_rectangles(disk, 0.08)
    assert np.sum(mesh2.cell_measure) == pytest.approx(disk.measure(), rel=1e-10)
    assert any(c[4] for c in mesh2.cells)  # boundary cells are clipped
    assert mesh2.max_cell_diameter() < 1.0


def test_json_round_trip():
    d = DomainSpec(2, (Rect(0, 0, 1, 1), Disk(3, 3, 0.5)))
    d2 = domain_from_dict(domain_to_dict(d))
    assert d2.measure() == pytest.approx(d.measure(), rel=1e-15)
    with pytest.raises(PreconditionError):
        domain_from_dict({"dim": 1, "pieces": [{"type": "blob"}]})


@pytest.mark.parametrize("build", [
    lambda w: mesh_intervals(DomainSpec(1, (Interval(1.0, 1.0 + w),)), 10),
    lambda w: mesh_rectangles(DomainSpec(2, (Rect(1.0, -1.0, 1.0 + w, -1.0 + w),)), w / 10),
], ids=["intervals", "rectangles"])
def test_meshes_refuse_cells_narrower_than_1000_ulps(build):
    # the grid's spacing rule: a cell side below 1000 ulps of the largest coordinate magnitude
    assert build(1e-11).n_cells >= 10  # sides of 1e-12, 4500 ulps of 1.0
    with pytest.raises(PreconditionError, match="too narrow to resolve"):
        build(1e-12)  # sides of 1e-13, 450 ulps
