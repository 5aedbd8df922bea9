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
)


def test_piece_validation():
    with pytest.raises(PreconditionError):
        Interval(1.0, 1.0)
    with pytest.raises(PreconditionError):
        Rect(0, 0, 0, 1)
    with pytest.raises(PreconditionError):
        Disk(0, 0, 0.0)


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


def test_contains_and_centroid():
    d = DomainSpec(1, (Interval(0, 1), Interval(2, 3)))
    assert d.contains([0.5]) and d.contains([2.5]) and not d.contains([1.5])
    assert d.centroid()[0] == pytest.approx(1.5)


def test_ray_segments_interval_union():
    d = DomainSpec(1, (Interval(-1, -0.2), Interval(0.1, 0.6)))
    segs = d.ray_segments([0.3], [1.0])
    assert segs == [(0.0, pytest.approx(0.3))]
    segs_left = d.ray_segments([0.3], [-1.0])
    # leaves the containing piece at t = 0.2, crosses (-1, -0.2) for t in (0.5, 1.3)
    assert segs_left[0] == (0.0, pytest.approx(0.2))
    assert segs_left[1] == (pytest.approx(0.5), pytest.approx(1.3))


def test_ray_segments_rect_and_disk():
    d = DomainSpec(2, (Rect(-1, -1, 1, 1),))
    segs = d.ray_segments([0.0, 0.0], [1.0, 0.0])
    assert segs == [(0.0, pytest.approx(1.0))]
    diag = d.ray_segments([0.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)])
    assert diag[0][1] == pytest.approx(math.sqrt(2.0))
    dd = DomainSpec(2, (Disk(0.0, 0.0, 1.0),))
    segs = dd.ray_segments([0.5, 0.0], [1.0, 0.0])
    assert segs == [(0.0, pytest.approx(0.5))]
    outside = dd.ray_segments([2.0, 0.0], [-1.0, 0.0])
    assert outside == [(pytest.approx(1.0), pytest.approx(3.0))]


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
    assert box in [c[:4] for c in mesh.cells]
    assert circle_box_area(disk, *box) == pytest.approx(_circle_box_area_mpmath(disk, *box), abs=1e-15)


def test_off_centre_disks_partition():
    rng = np.random.default_rng(0)
    for cx, cy in rng.uniform(-0.1, 0.1, size=(300, 2)):
        domain = DomainSpec(2, (Disk(float(cx), float(cy), 0.2),))
        mesh = mesh_rectangles(domain, 0.04)  # raises unless the cells partition the disk
        assert np.sum(mesh.cell_measure) == pytest.approx(domain.measure(), rel=1e-10)


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
