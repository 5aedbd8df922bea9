"""Galerkin forms and eigensolving: assembly oracles, variational facts, scaling."""

import math

import numpy as np
import pytest
from scipy import integrate

from loglap import NumericalError, PreconditionError, eigen
from loglap.coeffs import EULER_GAMMA, alpha_coeffs, c_dim, omega, rho
from loglap.domains import Disk, DomainSpec, Interval, Mesh, Rect, mesh_intervals, mesh_rectangles
from loglap.eigen import (
    _convolution_matrix,
    _difference_matrix,
    _pair_matrix,
    assemble,
    eigensolve,
    faber_krahn_compare,
    form_energy,
    k_form_first_eig,
    rearrange_decreasing,
)
from loglap.grid import GridFunction, estimate_holder_constant
from loglap.kernels import cell_pair_tent_integral, combined_kernel
from loglap.spectral import log_norm

QUARTER = DomainSpec(1, (Interval(-0.25, 0.25),))


# ---------------------------------------------------------------------------
# assembly


def test_single_cell_self_energy_matches_quadrature():
    dom = DomainSpec(1, (Interval(0.0, 0.2),))
    mesh = mesh_intervals(dom, 1)
    S = _difference_matrix(1, mesh, 1.0)

    def inner(x):
        return -math.log(x) - math.log(0.2 - x)

    ref = 2.0 * integrate.quad(inner, 0.0, 0.2, epsabs=1e-12)[0]
    assert S[0, 0] == pytest.approx(ref, rel=1e-10)


def test_difference_matrix_row_sums_positive_semidefinite_structure():
    mesh = mesh_intervals(QUARTER, 60)
    S = _difference_matrix(1, mesh, 1.0)
    assert np.allclose(S, S.T, atol=1e-14)
    # Gershgorin: diagonal dominates for the order-one (positive) kernel
    offdiag = np.sum(np.abs(S), axis=1) - np.abs(np.diag(S))
    assert np.all(np.diag(S) >= offdiag - 1e-10)


def test_small_domain_has_zero_convolution_part():
    disk = DomainSpec(2, (Disk(0.0, 0.0, 0.45),))
    meshes = [mesh_intervals(QUARTER, 40), mesh_rectangles(disk, 0.15)]
    assert disk.bounding_radius() <= 0.5 and any(c[4] for c in meshes[1].cells)
    for mesh in meshes:
        for n in (1, 2, 3):
            A = _convolution_matrix(n, mesh)
            assert float(np.max(np.abs(A))) == 0.0


def test_convolution_part_nonzero_for_wide_domain():
    dom = DomainSpec(1, (Interval(-1.0, 1.0),))
    mesh = mesh_intervals(dom, 50)
    A = _convolution_matrix(1, mesh)
    assert np.max(np.abs(A)) > 0.0
    # matches the direct pair integral for one far pair
    cells = np.asarray(mesh.cells)
    i, l = 0, mesh.n_cells - 1

    def f(y, x):
        t = abs(x - y)
        return 1.0 / t if t > 1.0 else 0.0

    ref = integrate.dblquad(f, cells[i][0], cells[i][1], cells[l][0], cells[l][1], epsabs=1e-12)[0]
    assert A[i, l] == pytest.approx(ref, rel=1e-10)


def _pair_matrix_by_brute_force(n, mesh, lo, hi):
    """The dimension's pair evaluator called on every pair, one at a time."""
    evaluate, _ = eigen._ENGINES[mesh.domain.dim]
    P = np.zeros((mesh.n_cells, mesh.n_cells))
    for i in range(mesh.n_cells):
        for l in range(i + 1, mesh.n_cells):
            P[i, l] = P[l, i] = evaluate(n, mesh, np.array([i]), np.array([l]), lo, hi)[0]
    return P


@pytest.mark.parametrize("name", ["1d-two-widths", "2d-clipped-disk"])
def test_pair_matrix_matches_brute_force_loop(name):
    if name == "1d-two-widths":
        # incommensurate cell widths: the offset keys must not merge distinct geometry
        mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.1), Interval(0.2137, 0.6))), 40)
    else:
        mesh = mesh_rectangles(DomainSpec(2, (Disk(0.0, 0.0, 0.6),)), 0.2)
        assert any(c[4] for c in mesh.cells) and not all(c[4] for c in mesh.cells)
    for n, lo, hi, tol in ((1, 0.0, 1.0, 1e-13), (2, 0.0, 1.0, 1e-13), (1, 1.0, np.inf, 1e-9)):
        P = _pair_matrix(n, mesh, lo, hi)
        ref = _pair_matrix_by_brute_force(n, mesh, lo, hi)
        assert np.max(np.abs(ref)) > 0.0
        assert np.max(np.abs(P - ref)) <= tol * np.max(np.abs(ref))


def test_uniform_1d_mesh_evaluates_one_pair_per_offset(monkeypatch):
    sizes = []

    def spy(n, a1, *rest):
        sizes.append(np.size(a1))
        return cell_pair_tent_integral(n, a1, *rest)

    monkeypatch.setattr(eigen, "cell_pair_tent_integral", spy)
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 300)
    _difference_matrix(2, mesh, 1.0)
    _convolution_matrix(2, mesh)
    assert len(sizes) == 2 and max(sizes) <= mesh.n_cells - 1


def test_first_order_form_decomposes_into_g_plus_mass():
    led = alpha_coeffs(1, 1)
    mesh = mesh_intervals(QUARTER, 50)
    mats_i = assemble("I", led, mesh)
    mats_g = assemble("G", None, mesh, order=1)
    recon = led.alpha[0] * np.diag(mats_i.mass) + led.alpha[1] * mats_g.stiffness
    assert np.allclose(mats_i.stiffness, recon, atol=1e-13 * np.max(np.abs(mats_i.stiffness)))


def test_assemble_preconditions():
    led = alpha_coeffs(2, 1)
    big = DomainSpec(1, (Interval(-0.3, 0.9),))
    mesh_coarse = mesh_intervals(big, 1)
    with pytest.raises(PreconditionError):
        assemble("I", led, mesh_coarse)  # cell diameter >= 1
    mesh = mesh_intervals(big, 30)
    with pytest.raises(PreconditionError):
        assemble("Q", led, mesh)  # domain leaves B_(r0/2)
    with pytest.raises(PreconditionError):
        assemble("X", led, mesh)
    with pytest.raises(PreconditionError):
        assemble("I", None, mesh)


def test_q_form_positive_semidefinite():
    led = alpha_coeffs(2, 1)
    mesh = mesh_intervals(QUARTER, 120)
    mats = assemble("Q", led, mesh)
    lam = np.linalg.eigvalsh(mats.stiffness)
    assert lam[0] >= -1e-8 * np.max(np.abs(mats.stiffness))


# ---------------------------------------------------------------------------
# eigensolving


def test_eigensolve_basic_properties():
    led = alpha_coeffs(2, 1)
    mesh = mesh_intervals(QUARTER, 150)
    mats = assemble("I", led, mesh)
    res = eigensolve(mats, 6)
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)
    assert res.eigenvalues[0] >= -1e-8 * np.max(np.abs(mats.stiffness))  # even m
    gram = res.vectors.T @ (mats.mass[:, None] * res.vectors)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8
    # deterministic sign fix
    for j in range(6):
        i = np.argmax(np.abs(res.vectors[:, j]))
        assert res.vectors[i, j] > 0
    assert res.gap() == pytest.approx(res.eigenvalues[1] - res.eigenvalues[0])


def test_rayleigh_quotients_dominate_lambda1():
    led = alpha_coeffs(1, 1)
    mesh = mesh_intervals(QUARTER, 100)
    mats = assemble("I", led, mesh)
    res = eigensolve(mats, 1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.normal(size=mesh.n_cells)
        rq = (w @ mats.stiffness @ w) / (w @ (mats.mass * w))
        assert rq >= res.eigenvalues[0] - 1e-8


def test_eigensolve_count_bounds():
    led = alpha_coeffs(1, 1)
    mesh = mesh_intervals(QUARTER, 10)
    mats = assemble("I", led, mesh)
    with pytest.raises(PreconditionError):
        eigensolve(mats, 0)
    with pytest.raises(PreconditionError):
        eigensolve(mats, 11)


def test_eigensolve_rejects_non_finite_matrix():
    led = alpha_coeffs(1, 1)
    mats = assemble("I", led, mesh_intervals(QUARTER, 10))
    mats.stiffness[3, 4] = mats.stiffness[4, 3] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        eigensolve(mats, 2)


def test_refinement_drift_within_two_percent():
    for m in (1, 2):
        led = alpha_coeffs(m, 1)
        vals = []
        for cells in (200, 400):
            mesh = mesh_intervals(QUARTER, cells)
            res = eigensolve(assemble("I", led, mesh), 1)
            vals.append(res.eigenvalues[0])
        assert abs(vals[1] - vals[0]) <= 0.02 * abs(vals[1])


def test_domain_monotonicity_nested_meshes():
    # matching cell widths make the smaller domain's trial space a subspace
    led = alpha_coeffs(2, 1)
    inner = DomainSpec(1, (Interval(-0.125, 0.125),))
    lam = {}
    for name, dom, cells in (("big", QUARTER, 200), ("small", inner, 100)):
        mesh = mesh_intervals(dom, cells)
        lam[name] = eigensolve(assemble("I", led, mesh), 1).eigenvalues[0]
    assert lam["small"] >= lam["big"] - 1e-8


def test_g1_dilation_scaling_decomposition():
    # S'(t mesh) = t S + 2 omega_N (-ln t) M' on the diagonal, pairs inside cutoff
    t = 0.5
    mesh = mesh_intervals(QUARTER, 40)
    scaled_dom = DomainSpec(1, (Interval(-0.125, 0.125),))
    mesh_t = mesh_intervals(scaled_dom, 40)
    S = _difference_matrix(1, mesh, 1.0)
    St = _difference_matrix(1, mesh_t, 1.0)
    Mt = mesh_t.cell_measure
    expect = t * S + np.diag(2.0 * omega(1) * (-math.log(t)) * Mt)
    assert np.max(np.abs(St - expect)) < 1e-10 * np.max(np.abs(St))


# ---------------------------------------------------------------------------
# rearrangement


def _centered_mesh(cells=64, half=0.12):
    return mesh_intervals(DomainSpec(1, (Interval(-half, half),)), cells)


def test_rearrange_fixed_point_and_multiset():
    mesh = _centered_mesh()
    centers = mesh.centers()
    sym_dec = np.exp(-np.abs(centers) * 10)
    out = rearrange_decreasing(sym_dec, mesh)
    assert np.allclose(np.sort(out), np.sort(sym_dec))
    dist = np.abs(centers)
    order = np.argsort(dist, kind="stable")
    assert np.all(np.diff(out[order]) <= 1e-15)


def test_rearrange_validation():
    mesh = _centered_mesh()
    with pytest.raises(PreconditionError):
        rearrange_decreasing(-np.ones(mesh.n_cells), mesh)
    with pytest.raises(PreconditionError):
        rearrange_decreasing(np.ones(mesh.n_cells - 1), mesh)
    uneven = mesh_intervals(DomainSpec(1, (Interval(-0.1, 0.0), Interval(0.05, 0.2))), 9)
    with pytest.raises(PreconditionError):
        rearrange_decreasing(np.ones(uneven.n_cells), uneven)


def test_rearrange_lowers_q_energy():
    led = alpha_coeffs(2, 1)
    mesh = _centered_mesh(cells=80)
    mats = assemble("Q", led, mesh)
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = rng.uniform(0.0, 1.0, mesh.n_cells)
        vr = rearrange_decreasing(v, mesh)
        assert form_energy(mats, vr) <= form_energy(mats, v) + 1e-10 * abs(form_energy(mats, v))


# ---------------------------------------------------------------------------
# Faber-Krahn comparison


def test_fk_ball_minimizes():
    led = alpha_coeffs(2, 1)
    a, g = 0.1, 0.02
    ball = DomainSpec(1, (Interval(-a, a),))
    split = DomainSpec(1, (Interval(-g - a, -g), Interval(g, g + a)))
    rows = faber_krahn_compare(led, [ball, split], cells_per_unit=1000)
    assert rows[0].is_ball and rows[0].reference_min
    assert rows[1].lambda1 > rows[0].lambda1 * 1.01


def test_fk_2d_flags_only_the_disk_as_ball():
    led = alpha_coeffs(2, 2)
    side = 0.15 * math.sqrt(math.pi)
    disk = DomainSpec(2, (Disk(0.0, 0.0, 0.15),))
    square = DomainSpec(2, (Rect(-side / 2, -side / 2, side / 2, side / 2),))
    rows = faber_krahn_compare(led, [disk, square], cells_per_unit=20)
    assert rows[0].is_ball and rows[0].reference_min
    assert not rows[1].is_ball and not rows[1].reference_min
    assert rows[1].lambda1 > rows[0].lambda1


def test_fk_single_domain_is_its_own_minimum():
    led = alpha_coeffs(2, 1)
    ball = DomainSpec(1, (Interval(-0.1, 0.1),))
    rows = faber_krahn_compare(led, [ball], cells_per_unit=500)
    assert rows[0].reference_min


def test_fk_preconditions():
    led1 = alpha_coeffs(1, 1)
    ball = DomainSpec(1, (Interval(-0.1, 0.1),))
    with pytest.raises(PreconditionError):
        faber_krahn_compare(led1, [ball], 100)  # m >= 2
    led = alpha_coeffs(2, 1)
    other = DomainSpec(1, (Interval(-0.05, 0.05),))
    with pytest.raises(PreconditionError):
        faber_krahn_compare(led, [ball, other], 100)  # unequal measures
    wide = DomainSpec(1, (Interval(-0.3, 0.3),))
    with pytest.raises(PreconditionError):
        faber_krahn_compare(led, [wide], 100)  # leaves B_(rm/2)


def test_fk_ball_eigenvector_radially_non_increasing():
    led = alpha_coeffs(2, 1)
    ball = DomainSpec(1, (Interval(-0.1, 0.1),))
    mesh = mesh_intervals(ball, 200)
    res = eigensolve(assemble("Q", led, mesh), 1)
    v = res.vectors[:, 0]
    order = np.argsort(np.abs(mesh.centers()), kind="stable")
    assert np.all(np.diff(v[order]) <= 1e-6 * np.max(np.abs(v)))


# ---------------------------------------------------------------------------
# dominant-kernel eigenproblem


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dominant_kernel_first_eigenpair(m):
    mesh = mesh_intervals(QUARTER, 150)
    res = k_form_first_eig(m, mesh, k=3)
    assert res.eigenvalues[0] > 0.0
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)
    v = res.vectors[:, 0]
    assert np.all(v >= -1e-6 * np.max(np.abs(v)))


def test_dominant_kernel_containment():
    wide = DomainSpec(1, (Interval(-0.6, 0.6),))
    mesh = mesh_intervals(wide, 80)
    with pytest.raises(PreconditionError):
        k_form_first_eig(1, mesh)


# ---------------------------------------------------------------------------
# norm equivalence sanity and 2D paths


def test_energy_vs_spectral_log_norm_ratio():
    # for a family of bumps, (difference energy + mass) vs |||u|||_m^2 within 1e2
    m = 2
    dom = QUARTER
    mesh = mesh_intervals(dom, 256)
    centers = mesh.centers()
    S = _difference_matrix(m, mesh, 1.0)
    ratios = []
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.uniform(0.02, 0.06)
        c = rng.uniform(-0.1, 0.1)
        v = np.exp(-((centers - c) ** 2) / w ** 2)
        energy = v @ S @ v + v @ (mesh.cell_measure * v)
        nfine = 2048
        h = 40.0 / nfine
        x = -20.0 + h * np.arange(nfine)
        vals = np.exp(-((x - c) ** 2) / w ** 2) * (np.abs(x - c) <= 0.25)
        # smooth truncation consistent with the mesh support
        vals = np.where((x >= dom.pieces[0].a) & (x <= dom.pieces[0].b), vals, 0.0)
        u = GridFunction(1, (-20.0,), (h,), (nfine,), vals, 1.0,
                         estimate_holder_constant(vals, (h,), 1.0))
        ratios.append(energy / log_norm(u, m) ** 2)
    print(f"energy / |||u|||_m^2 over the bump family: "
          f"min {min(ratios):.3f}, max {max(ratios):.3f}")
    assert all(1e-2 <= r <= 1e2 for r in ratios)


def test_2d_rect_assembly_and_eigensolve():
    dom = DomainSpec(2, (Rect(-0.2, -0.15, 0.2, 0.15),))
    mesh = mesh_rectangles(dom, 0.05)
    res = k_form_first_eig(1, mesh, k=2)
    assert res.eigenvalues[0] > 0.0
    v = res.vectors[:, 0]
    assert np.all(v >= -1e-6 * np.max(np.abs(v)))


def test_2d_whole_domain_energy_cross_check():
    # (1_Omega, 1_Omega)_1 = 2 int_Omega int_{B1(x) \ Omega} q_1, computed
    # independently from the ray geometry of the domain itself
    from loglap.pointwise import h_regional

    dom = DomainSpec(2, (Rect(-0.2, -0.15, 0.2, 0.15),))
    mesh = mesh_rectangles(dom, 0.05)
    S = _difference_matrix(1, mesh, 1.0)
    ones = np.ones(mesh.n_cells)
    lhs = ones @ S @ ones
    # reference: 2 int_Omega h(x) dx with h(x) = int_{B1(x)\Omega} q_1 dy,
    # via a tensor midpoint grid (the integrand is smooth inside)
    nx, ny = 40, 30
    xs = np.linspace(-0.2, 0.2, nx, endpoint=False) + 0.2 / nx
    ys = np.linspace(-0.15, 0.15, ny, endpoint=False) + 0.15 / ny
    acc = 0.0
    for xv in xs:
        for yv in ys:
            acc += h_regional(1, [xv, yv], dom, dim=2, n_angles=96)
    area_cell = (0.4 / nx) * (0.3 / ny)
    rhs = 2.0 * acc * area_cell
    assert lhs == pytest.approx(rhs, rel=2e-2)


def test_2d_far_pair_convolution_matches_tensor_gauss():
    from loglap.eigen import _pair_values_2d
    from loglap.quadrature import panel_rule, uniform_panels

    dom = DomainSpec(2, (Rect(0, 0, 0.3, 0.3), Rect(1.4, 0.0, 1.7, 0.3)))
    mesh = mesh_rectangles(dom, 0.3)
    targets = np.arange(1, mesh.n_cells)  # the far rect may mesh into several cells
    A = _pair_values_2d(1, mesh, np.zeros_like(targets), targets, 1.0, np.inf, order=10)
    n1, w1 = panel_rule(uniform_panels(0.0, 0.3, 4), 12)
    n2, w2 = panel_rule(uniform_panels(1.4, 1.7, 4), 12)
    X1, Y1, X2, Y2 = np.meshgrid(n1, n1, n2, n1, indexing="ij")
    W = (w1[:, None, None, None] * w1[None, :, None, None]
         * w2[None, None, :, None] * w1[None, None, None, :])
    ref = float(np.sum(W / ((X1 - X2) ** 2 + (Y1 - Y2) ** 2)))
    got = float(np.sum(A))
    assert got == pytest.approx(ref, rel=1e-12)


def test_2d_near_pair_difference_matches_tensor_gauss():
    from loglap.eigen import _pair_values_2d
    from loglap.quadrature import panel_rule, uniform_panels

    dom = DomainSpec(2, (Rect(0, 0, 0.2, 0.2), Rect(0.25, 0.0, 0.45, 0.2)))
    mesh = mesh_rectangles(dom, 0.2)
    S01 = -2.0 * _pair_values_2d(1, mesh, np.array([0]), np.array([1]), 0.0, 1.0, order=10)[0]
    n1, w1 = panel_rule(uniform_panels(0.0, 0.2, 6), 12)
    n2, w2 = panel_rule(uniform_panels(0.25, 0.45, 6), 12)
    X1, Y1, X2, Y2 = np.meshgrid(n1, n1, n2, n1, indexing="ij")
    W = (w1[:, None, None, None] * w1[None, :, None, None]
         * w2[None, None, :, None] * w1[None, None, None, :])
    D2 = (X1 - X2) ** 2 + (Y1 - Y2) ** 2
    ref = float(np.sum(W / D2))  # all pair distances below the unit cutoff
    assert S01 == pytest.approx(-2.0 * ref, rel=1e-8)


def test_2d_ball_minimizes_among_equal_measure():
    led = alpha_coeffs(2, 2)
    r = 0.2
    side = r * math.sqrt(math.pi)
    disk = DomainSpec(2, (Disk(0.0, 0.0, r),))
    square = DomainSpec(2, (Rect(-side / 2, -side / 2, side / 2, side / 2),))
    assert disk.measure() == pytest.approx(square.measure(), rel=1e-14)
    lams = {}
    for name, dom in (("disk", disk), ("square", square)):
        mesh = mesh_rectangles(dom, 0.035)
        lams[name] = eigensolve(assemble("Q", led, mesh), 1).eigenvalues[0]
    assert lams["disk"] < lams["square"]


def test_2d_disk_q_form_runs():
    led = alpha_coeffs(2, 2)
    ck = combined_kernel(led)
    assert ck.r0 == 1.0
    disk = DomainSpec(2, (Disk(0.0, 0.0, 0.22),))
    mesh = mesh_rectangles(disk, 0.06)
    mats = assemble("Q", led, mesh)
    res = eigensolve(mats, 2)
    assert res.eigenvalues[0] >= -1e-8 * np.max(np.abs(mats.stiffness))
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)
