"""Galerkin forms and eigensolving: assembly oracles, variational facts, scaling."""

import dataclasses
import json
import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
import scipy.linalg
import scipy.sparse.linalg
from scipy import integrate

from loglap import NumericalError, PreconditionError, cli, eigen
from loglap.coeffs import EULER_GAMMA, alpha_coeffs, c_dim, omega, rho
from loglap.domains import (
    Disk,
    DomainSpec,
    Interval,
    Mesh,
    Rect,
    circle_box_area,
    domain_to_dict,
    mesh_intervals,
    mesh_rectangles,
)
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
from loglap.kernels import cell_pair_tent_integral, combined_kernel, order_weights, rect_pair_integral_2d
from loglap.spectral import log_norm

QUARTER = DomainSpec(1, (Interval(-0.25, 0.25),))


# ---------------------------------------------------------------------------
# assembly


def test_single_cell_self_energy_matches_quadrature():
    dom = DomainSpec(1, (Interval(0.0, 0.2),))
    mesh = mesh_intervals(dom, 1)
    S = _difference_matrix(order_weights(1), mesh).toarray()

    def inner(x):
        return -math.log(x) - math.log(0.2 - x)

    ref = 2.0 * integrate.quad(inner, 0.0, 0.2, epsabs=1e-12)[0]
    assert S[0, 0] == pytest.approx(ref, rel=1e-10)


def test_difference_matrix_row_sums_positive_semidefinite_structure():
    mesh = mesh_intervals(QUARTER, 60)
    S = _difference_matrix(order_weights(1), mesh).toarray()
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
            A = _convolution_matrix(order_weights(n), mesh).toarray()
            assert float(np.max(np.abs(A))) == 0.0


def test_convolution_part_nonzero_for_wide_domain():
    dom = DomainSpec(1, (Interval(-1.0, 1.0),))
    mesh = mesh_intervals(dom, 50)
    A = _convolution_matrix(order_weights(1), mesh).toarray()
    assert np.max(np.abs(A)) > 0.0
    # matches the direct pair integral for one far pair
    cells = np.asarray(mesh.cells)
    i, l = 0, mesh.n_cells - 1

    def f(y, x):
        t = abs(x - y)
        return 1.0 / t if t > 1.0 else 0.0

    ref = integrate.dblquad(f, cells[i][0], cells[i][1], cells[l][0], cells[l][1], epsabs=1e-12)[0]
    assert A[i, l] == pytest.approx(ref, rel=1e-10)


def _pair_matrix_by_brute_force(w, mesh, lo, hi, pairs=None):
    """The dimension's pair evaluator called on every pair (or the given ones), one at a time."""
    evaluate = eigen._ENGINES[mesh.domain.dim]
    if pairs is None:
        pairs = zip(*np.triu_indices(mesh.n_cells, k=1))
    P = np.zeros((mesh.n_cells, mesh.n_cells))
    for i, l in pairs:
        P[i, l] = P[l, i] = evaluate(w, mesh, np.array([i]), np.array([l]), lo, hi)[0]
    return P


def _lattice_size(mesh):
    centres, sides, cls, _ = eigen._cell_classes(mesh)
    return eigen._lattice(centres, sides, cls)[0].size


def _rows_and_sample(n, rows, seed=2, count=150):
    """Every pair in the given rows plus random pairs, as sorted (i < l) tuples."""
    rng = np.random.default_rng(seed)
    sample = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(count)}
    return sorted({(min(r, l), max(r, l)) for r in rows for l in range(n) if l != r} | sample)


@pytest.mark.parametrize("name", ["1d-two-widths", "2d-clipped-disk", "1d-uniform", "1d-gapped-split", "2d-square-20x20"])
def test_pair_matrix_matches_brute_force_loop(name):
    # lattice meshes: the rows listed hold every offset, the random pairs check the fill elsewhere
    pairs = None
    if name == "1d-two-widths":
        # incommensurate cell widths: the offset keys must not merge distinct geometry
        mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.1), Interval(0.2137, 0.6))), 40)
    elif name == "2d-clipped-disk":
        mesh = mesh_rectangles(DomainSpec(2, (Disk(0.0, 0.0, 0.6),)), 0.2)
        assert any(c[4] for c in mesh.cells) and not all(c[4] for c in mesh.cells)
    elif name == "1d-uniform":
        mesh = mesh_intervals(DomainSpec(1, (Interval(-0.5863, 0.6137),)), 120)
        pairs = _rows_and_sample(120, (0,))
    elif name == "1d-gapped-split":
        # the fk split (two pieces, gap twice the piece length) scaled to diameter 1.2
        f = 0.0317
        mesh = mesh_intervals(DomainSpec(1, (Interval(f - 0.6, f - 0.3), Interval(f + 0.3, f + 0.6))), 60)
        pairs = _rows_and_sample(60, (0, 29))
    else:
        mesh = mesh_rectangles(DomainSpec(2, (Rect(0.013, -0.021, 0.813, 0.779),)), 0.04)
        assert mesh.n_cells == 400
        pairs = _rows_and_sample(400, (0, 19))
    n_lattice = _lattice_size(mesh)
    assert n_lattice == mesh.n_cells if pairs is not None else 1 < n_lattice < mesh.n_cells
    cases = ((order_weights(1), 0.0, 1.0, 1e-13), (order_weights(2), 0.0, 1.0, 1e-13),
             (order_weights(1), 1.0, np.inf, 1e-9), (alpha_coeffs(2, mesh.domain.dim).alpha[1:], 0.0, 1.0, 1e-13))
    for w, lo, hi, tol in cases:
        P = _pair_matrix(w, mesh, lo, hi).toarray()
        ref = _pair_matrix_by_brute_force(w, mesh, lo, hi, pairs)
        if pairs is not None:
            checked = tuple(np.array(pairs).T)
            P, ref = P[checked], ref[checked]
        assert np.max(np.abs(ref)) > 0.0
        assert np.max(np.abs(P - ref)) <= tol * np.max(np.abs(ref))


def test_uniform_pair_matrix_allocates_one_matrix():
    # lattice pairs are filled from the offset table: no pair-count-sized index or key arrays
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 2400)
    tracemalloc.start()
    try:
        _pair_matrix(order_weights(1), mesh, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * mesh.n_cells ** 2


@pytest.mark.parametrize("r", [0.4, 1e-10])
def test_pair_check_catches_a_relative_eigenvalue_error_at_any_scale(r):
    # the residual bound scales with max|v|, which grows like |Omega|^(-1/2): a bound fixed at
    # 1e-6 |K| refused every eigenpair of the r = 1e-10 disk and would pass any error on it
    dom = DomainSpec(2, (Disk(0.0, 0.0, r),))
    mats = assemble("I", alpha_coeffs(1, 2), mesh_rectangles(dom, dom.diameter() / 3))
    res = eigensolve(mats, 2)
    with pytest.raises(NumericalError, match="residual"):
        eigen._check_pairs(mats, res.eigenvalues * (1.0 + 1e-4), res.vectors)


def test_pair_check_allocates_no_matrix_temporary():
    # the residual scale (max row sum of |K|) is reduced over row blocks
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 1200)
    mats = assemble("I", alpha_coeffs(1, 1), mesh)
    vals, vecs = np.array([1.0]), np.zeros((mesh.n_cells, 1))
    vecs[0, 0] = 1.0 / math.sqrt(mats.mass[0])
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="residual"):
            eigen._check_pairs(mats, vals, vecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * mesh.n_cells ** 2


@pytest.mark.parametrize("dim", [1, 2])
def test_combined_weights_match_the_sum_of_unit_orders(dim):
    if dim == 1:
        mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.1), Interval(0.2137, 0.6))), 40)
    else:
        mesh = mesh_rectangles(DomainSpec(2, (Disk(0.0, 0.0, 0.6),)), 0.3)
        assert any(c[4] for c in mesh.cells)
    w = alpha_coeffs(3, dim).alpha[1:]
    units = [order_weights(j) for j in (1, 2, 3)]
    for lo, hi in ((0.0, 1.0), (1.0, np.inf)):
        P = _pair_matrix(w, mesh, lo, hi).toarray()
        ref = sum(wj * _pair_matrix(u, mesh, lo, hi).toarray() for wj, u in zip(w, units))
        assert np.max(np.abs(ref)) > 0.0
        assert np.max(np.abs(P - ref)) <= 1e-13 * np.max(np.abs(ref))
    self_energies = eigen._self_energies
    d = self_energies(w, mesh)
    ref = sum(wj * self_energies(u, mesh) for wj, u in zip(w, units))
    assert np.max(np.abs(d - ref)) <= 1e-13 * np.max(np.abs(ref))


def _far_pair_mpmath_oracle(w, A, B, lo):
    """int over t > lo of |A cap (B + t)| p(-2 ln t) / t at 40 digits, A right of B, split at the tent kinks."""
    with mp.workdps(40):
        a1, a2 = map(mp.mpf, A)
        b1, b2 = map(mp.mpf, B)
        kinks = sorted({a1 - b2, a2 - b2, a1 - b1, a2 - b1, mp.mpf(lo)})
        pts = [t for t in kinks if t >= max(lo, a1 - b2)]
        coeffs = [mp.mpf(c) for c in reversed(w)]

        def f(t):
            return (min(a2, b2 + t) - max(a1, b1 + t)) * mp.polyval(coeffs, -2 * mp.log(t)) / t

        return mp.quad(f, pts)


def test_far_1d_pair_entries_match_mpmath():
    # far tent pieces cancel in closed form; entries must keep 12 digits anyway
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 2400)
    cells = np.asarray(mesh.cells)
    rng = np.random.default_rng(5)
    for w in (order_weights(1), order_weights(2), alpha_coeffs(2, 1).alpha[1:]):
        A = _convolution_matrix(w, mesh).toarray()
        i, l = np.nonzero(np.triu(A, 1))  # i < l: cell l is right of cell i
        for k in rng.choice(i.size, 30, replace=False):
            ref = _far_pair_mpmath_oracle(w, cells[l[k]], cells[i[k]], 1.0)
            assert abs(A[i[k], l[k]] / ref - 1) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("form", ["I", "G", "Q"])
def test_assemble_makes_one_pair_pass_per_matrix(form, m, monkeypatch):
    calls = []

    def spy(name):
        real = getattr(eigen, name)

        def counted(w, mesh, *rest):
            calls.append(name)
            return real(w, mesh, *rest)

        return counted

    for name in ("_difference_matrix", "_convolution_matrix"):
        monkeypatch.setattr(eigen, name, spy(name))
    led = alpha_coeffs(m, 1)
    half = 0.4 * combined_kernel(led).r0  # inside B_(r0/2), diameter below one
    small = mesh_intervals(DomainSpec(1, (Interval(-half, half),)), 12)
    wide = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 12)
    for mesh in (small, wide) if form != "Q" else (small,):
        calls.clear()
        assemble(form, led, mesh)
        conv = ["_convolution_matrix"] if form != "Q" and mesh.domain.diameter() >= 1.0 else []
        assert calls == ["_difference_matrix"] + conv


def test_uniform_1d_mesh_evaluates_one_pair_per_offset(monkeypatch):
    sizes = []

    def spy(w, a1, *rest):
        sizes.append(np.size(a1))
        return cell_pair_tent_integral(w, a1, *rest)

    monkeypatch.setattr(eigen, "cell_pair_tent_integral", spy)
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 300)
    _difference_matrix(order_weights(2), mesh)
    _convolution_matrix(order_weights(2), mesh)
    assert len(sizes) == 2 and max(sizes) <= mesh.n_cells - 1


def test_lattice_evaluates_only_offsets_in_range(monkeypatch):
    sizes = []

    def spy(w, a1, *rest):
        sizes.append(np.size(a1))
        return cell_pair_tent_integral(w, a1, *rest)

    monkeypatch.setattr(eigen, "cell_pair_tent_integral", spy)
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 301)
    _difference_matrix(order_weights(1), mesh)
    _convolution_matrix(order_weights(1), mesh)
    k, h = np.arange(1, 301), 1.2 / 301  # offsets and width; 1/h = 250.8 keeps every offset off the boundary
    assert sizes == [np.count_nonzero((k - 1) * h < 1.0), np.count_nonzero((k + 1) * h > 1.0)]


@pytest.mark.parametrize("dim", [1, 2])
def test_stiffness_is_exactly_symmetric(dim):
    # the pair driver writes both triangles with one value, so no symmetrization is needed
    if dim == 1:
        wide = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 120)
        small = mesh_intervals(QUARTER, 60)
    else:
        wide = mesh_rectangles(DomainSpec(2, (Disk(0.0, 0.0, 0.6),)), 0.3)
        small = mesh_rectangles(DomainSpec(2, (Disk(0.0, 0.0, 0.2),)), 0.1)
        assert any(c[4] for c in wide.cells) and any(c[4] for c in small.cells)
    assert wide.domain.diameter() >= 1.0  # the convolution part is assembled too
    led = alpha_coeffs(2, dim)
    for mats in (assemble("I", led, wide), assemble("G", led, wide), assemble("Q", led, small)):
        K = mats.parts.toarray()
        assert np.array_equal(K, K.T)


def test_first_order_form_decomposes_into_g_plus_mass():
    led = alpha_coeffs(1, 1)
    mesh = mesh_intervals(QUARTER, 50)
    mats_i = assemble("I", led, mesh)
    mats_g = assemble("G", led, mesh)
    recon = led.alpha[0] * np.diag(mats_i.mass) + led.alpha[1] * mats_g.parts.toarray()
    K = mats_i.parts.toarray()
    assert np.allclose(K, recon, atol=1e-13 * np.max(np.abs(K)))


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


@pytest.mark.parametrize("form", ["I", "G", "Q"])
def test_assemble_refuses_a_ledger_of_another_dimension(form):
    # alpha depends on N: on the 0.3 square at h = 0.05 the 1D ledger gave lambda_1 = 82.61 against 49.38
    meshes = {1: mesh_intervals(DomainSpec(1, (Interval(-0.2, 0.2),)), 20),
              2: mesh_rectangles(DomainSpec(2, (Rect(-0.1, -0.1, 0.1, 0.1),)), 0.05)}
    for dim, mesh in meshes.items():
        for ledger in (alpha_coeffs(2, 3 - dim), None):
            with pytest.raises(PreconditionError, match="ledger of the mesh's dimension"):
                assemble(form, ledger, mesh)
        assert assemble(form, alpha_coeffs(2, dim), mesh).n == mesh.n_cells


def test_q_form_positive_semidefinite():
    led = alpha_coeffs(2, 1)
    mesh = mesh_intervals(QUARTER, 120)
    K = assemble("Q", led, mesh).parts.toarray()
    assert np.linalg.eigvalsh(K)[0] >= -1e-8 * np.max(np.abs(K))


def _q_shift(led):
    """c in Q_m = I_m + c M: -2 omega_N int_r0^1 h_m(t) dt / t, minus twice the kernel on r0 < |z| < 1."""
    ck = combined_kernel(led)
    return -2.0 * omega(led.dim) * integrate.quad(lambda t: polyval(-2.0 * math.log(t), ck.poly) / t, ck.r0, 1.0, epsabs=1e-15)[0]


@pytest.mark.parametrize("m, domain", [
    (2, DomainSpec(1, (Interval(-0.2, 0.2),))),
    (4, DomainSpec(2, (Rect(-0.16, -0.16, 0.16, 0.16),))),
    (4, DomainSpec(2, (Disk(0.0, 0.0, 0.2),))),
])
def test_q_is_i_plus_a_mass_shift(m, domain):
    # inside B_(r0/2) no two points are more than r0 apart, so cutting the kernel at r0 instead of
    # one takes the annulus r0 < |z| < 1 from every self-energy and changes nothing else
    led = alpha_coeffs(m, domain.dim)
    mesh = mesh_intervals(domain, 200) if domain.dim == 1 else mesh_rectangles(domain, 0.04)  # 64 and 88 cells
    assert combined_kernel(led).r0 < 1.0
    Q, I = assemble("Q", led, mesh).parts.toarray(), assemble("I", led, mesh).parts.toarray()
    c = _q_shift(led)
    assert abs(c) > 1.0
    assert np.max(np.abs(Q - I - c * np.diag(mesh.cell_measure))) <= 1e-13 * np.max(np.abs(Q))


def test_q_equals_i_where_the_positivity_radius_is_one():
    # 2D, m = 2: r0 = 1, so the shift is zero and Q is I bit for bit, clipped cells included
    led = alpha_coeffs(2, 2)
    mesh = _disk_mesh()
    assert mesh.n_cells == 88 and combined_kernel(led).r0 == 1.0
    assert np.array_equal(assemble("Q", led, mesh).parts.toarray(), assemble("I", led, mesh).parts.toarray())


def test_q_form_on_a_disk_is_psd_and_solves():
    led = alpha_coeffs(4, 2)
    mesh = _disk_mesh()
    mats = assemble("Q", led, mesh)
    K = mats.parts.toarray()
    assert np.linalg.eigvalsh(K)[0] >= -1e-8 * np.max(np.abs(K))
    res = eigensolve(mats, 2)
    assert np.allclose(res.eigenvalues, scipy.linalg.eigh(K, np.diag(mats.mass), eigvals_only=True)[:2], rtol=1e-10)
    assert np.all(res.vectors[:, 0] >= -1e-8 * np.max(np.abs(res.vectors[:, 0])))


def _diagonal_form(diag):
    """FormMatrices of a diagonal stiffness and unit mass: one lattice cell, no off-lattice pairs."""
    n = len(diag)
    parts = eigen.StiffnessParts(np.array(diag), np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.zeros(1),
                                 scipy.sparse.csr_array((n, n)))
    return eigen.FormMatrices(parts, np.ones(n))


def test_psd_check_accepts_exactly_the_margin():
    # lambda_min(K, M) >= -1e-8 max|K| / max M passes, below fails
    eigen._check_psd(_diagonal_form([1.0, 0.5, -0.5e-8]))
    with pytest.raises(NumericalError, match="lambda_min=-2.000e-08"):
        eigen._check_psd(_diagonal_form([1.0, 0.5, -2e-8]))


def test_indefinite_q_stiffness_is_a_numerical_error(monkeypatch, tmp_path):
    # the message reports lambda_min(K, M); on the 88-cell disk the mass is not uniform
    real = eigen._difference_matrix

    def negated(w, mesh):
        parts = real(w, mesh)
        return dataclasses.replace(parts, diag=-parts.diag, table=-parts.table, off=-parts.off)

    monkeypatch.setattr(eigen, "_difference_matrix", negated)
    disk = DomainSpec(2, (Disk(0.0, 0.0, 0.2),))
    # the CLI's target width is the diameter over round(sqrt(cells)): 100 cells give the 88-cell disk
    for domain, mesh, cells in ((QUARTER, mesh_intervals(QUARTER, 60), 60), (disk, _disk_mesh(), 100)):
        led = alpha_coeffs(2, domain.dim)
        mass = mesh.cell_measure
        assert (np.ptp(mass) > 0.1 * np.max(mass)) == (domain.dim == 2)
        stiff = -real(led.alpha[1:], mesh).toarray() + (led.alpha[0] + _q_shift(led)) * np.diag(mass)
        lam_min = scipy.linalg.eigh(stiff, np.diag(mass), eigvals_only=True)[0]
        assert lam_min < -1e-8 * np.max(np.abs(stiff)) / np.max(mass)
        with pytest.raises(NumericalError, match=re.escape(f"lambda_min={lam_min:.3e}")):
            assemble("Q", led, mesh)
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(domain_to_dict(domain)))
        argv = ["eig", "--form", "Q", "--m", "2", "--domain", str(path), "--cells", str(cells), "--count", "1",
                "--out", str(tmp_path / "eig.csv")]
        assert cli.main(argv) == 4


def test_q_check_peak_memory_stays_with_the_i_form():
    # the PSD check is a k = 1 Lanczos run on the parts: the dense Cholesky check peaked at 256 MB on this mesh
    mesh = mesh_intervals(QUARTER, 4000)
    led = alpha_coeffs(2, 1)
    peaks = {}
    for form in ("I", "Q"):
        tracemalloc.start()
        try:
            eigensolve(assemble(form, led, mesh), 1)
            peaks[form] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["Q"] <= peaks["I"] + 1e6


def test_q_check_solve_serves_the_first_eigenpair(monkeypatch):
    # the PSD check's k = 1 Lanczos run is the one eigensolve(mats, 1) needs: one eigsh call, not two
    calls = []
    real = scipy.sparse.linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    mats = assemble("Q", alpha_coeffs(2, 1), mesh_intervals(QUARTER, 200))
    res = eigensolve(mats, 1)
    assert calls == [1]
    fresh = eigensolve(dataclasses.replace(mats), 1)  # a copy starts without the kept solve
    assert calls == [1, 1]
    assert np.array_equal(res.eigenvalues, fresh.eigenvalues) and np.array_equal(res.vectors, fresh.vectors)
    eigensolve(mats, 2)
    assert calls == [1, 1, 2]


# ---------------------------------------------------------------------------
# eigensolving


def test_eigensolve_basic_properties():
    led = alpha_coeffs(2, 1)
    mesh = mesh_intervals(QUARTER, 150)
    mats = assemble("I", led, mesh)
    res = eigensolve(mats, 6)
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)
    assert res.eigenvalues[0] >= -1e-8 * np.max(np.abs(mats.parts.toarray()))  # even m
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
    K = mats.parts.toarray()
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = rng.normal(size=mesh.n_cells)
        rq = (w @ K @ w) / (w @ (mats.mass * w))
        assert rq >= res.eigenvalues[0] - 1e-8


def test_eigensolve_count_bounds():
    led = alpha_coeffs(1, 1)
    mesh = mesh_intervals(QUARTER, 10)
    mats = assemble("I", led, mesh)
    with pytest.raises(PreconditionError):
        eigensolve(mats, 0)
    with pytest.raises(PreconditionError):
        eigensolve(mats, 11)


def test_eigensolve_rejects_non_finite_matrix(monkeypatch):
    def one_nan(*args):
        values = cell_pair_tent_integral(*args)
        values[0] = np.nan  # the first integer offset
        return values

    monkeypatch.setattr(eigen, "cell_pair_tent_integral", one_nan)
    led = alpha_coeffs(1, 1)
    mats = assemble("I", led, mesh_intervals(QUARTER, 10))
    with pytest.raises(NumericalError, match="non-finite"):
        eigensolve(mats, 2)


def _lanczos_problem(name):
    """(form matrices, k) of the four problems the Lanczos solver is checked on."""
    if name == "interval-2400":
        return assemble("I", alpha_coeffs(1, 1), mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 2400)), 6
    if name == "square-400":
        mesh = mesh_rectangles(DomainSpec(2, (Rect(0.0, 0.0, 0.5, 0.5),)), 0.025)
        assert mesh.n_cells == 400
        return assemble("I", alpha_coeffs(2, 2), mesh), 3
    if name == "disk-88":
        mesh = mesh_rectangles(DomainSpec(2, (Disk(0.0, 0.0, 0.2),)), 0.04)
        assert mesh.n_cells == 88
        return assemble("Q", alpha_coeffs(2, 2), mesh), 3
    # the fk split: two equal pieces whose weak coupling leaves a near-degenerate pair
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.2, -0.1), Interval(0.1, 0.2))), 400)
    return assemble("Q", alpha_coeffs(2, 1), mesh), 3


@pytest.mark.parametrize("name", ["interval-2400", "square-400", "disk-88", "fk-split"])
def test_lanczos_matches_dense_eigh(name):
    mats, k = _lanczos_problem(name)
    res = eigensolve(mats, k)
    d = 1.0 / np.sqrt(mats.mass)
    B = d[:, None] * mats.parts.toarray() * d[None, :]
    vals, vecs = scipy.linalg.eigh(0.5 * (B + B.T), subset_by_index=[0, k - 1])
    assert np.all(np.abs(res.eigenvalues - vals) <= 1e-10 * np.abs(vals))
    # eigenspaces: clusters of (numerically) equal eigenvalues, compared by their projectors
    if name == "square-400":
        assert abs(vals[2] - vals[1]) <= 1e-12 * vals[2]  # the square's double eigenvalue
    if name == "fk-split":
        assert 0.0 < vals[1] - vals[0] < 0.1 * vals[0]
    U = res.vectors / d[:, None]  # orthonormal in the variables of B
    for cluster in np.split(np.arange(k), np.flatnonzero(np.diff(vals) > 1e-8 * np.abs(vals[1:])) + 1):
        V = vecs[:, cluster]
        outside = U[:, cluster] - V @ (V.T @ U[:, cluster])  # ||P_U - P_V||_F = sqrt(2) ||(I - P_V) U||_F
        assert math.sqrt(2.0) * np.linalg.norm(outside) <= 1e-8
    again = eigensolve(mats, k)
    assert np.array_equal(again.eigenvalues, res.eigenvalues) and np.array_equal(again.vectors, res.vectors)


def test_eigensolve_peak_memory_stays_linear():
    # Lanczos applies K from its O(n) parts: about 1.0 MB traced at 2400 cells, where one dense matrix is 46 MB
    mats = assemble("I", alpha_coeffs(1, 1), mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 2400))
    tracemalloc.start()
    try:
        eigensolve(mats, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def _operator_mesh(name, scale):
    """The meshes the stiffness operator is checked on; 1D domains dilated by scale (Q needs them inside B_(r0/2))."""
    f = 0.0317
    pieces = {
        "uniform-interval": ((-0.6, 0.6),),
        "gapped-split": ((f - 0.6, f - 0.3), (f + 0.3, f + 0.6)),  # the fk split at diameter 1.2
        "incommensurate-pieces": ((-0.6, 0.1), (0.2137, 0.6)),  # a second width: off-lattice cells in 1D
    }
    if name in pieces:
        cells = {"uniform-interval": 300, "gapped-split": 60, "incommensurate-pieces": 40}[name]
        return mesh_intervals(DomainSpec(1, tuple(Interval(scale * a, scale * b) for a, b in pieces[name])), cells)
    if name == "square-400":
        return mesh_rectangles(DomainSpec(2, (Rect(-0.25, -0.25, 0.25, 0.25),)), 0.025)
    if name == "l-shaped-union":
        return mesh_rectangles(DomainSpec(2, (Rect(-0.2, -0.2, 0.2, 0.0), Rect(-0.2, 0.0, 0.0, 0.2))), 0.025)
    return _disk_mesh()


@pytest.mark.parametrize("name", ["uniform-interval", "gapped-split", "incommensurate-pieces", "square-400",
                                  "l-shaped-union", "disk-88"])
@pytest.mark.parametrize("form", ["I", "G", "Q"])
def test_stiffness_operator_matches_the_dense_matrix(form, name):
    mesh = _operator_mesh(name, 0.4 if form == "Q" else 1.0)
    led = alpha_coeffs(2, mesh.domain.dim)
    mats = assemble(form, led, mesh)
    K = mats.parts.toarray()
    assert np.array_equal(K, K.T)
    if name == "disk-88":
        assert mesh.n_cells == 88 and mats.parts.off.nnz > 0
    if name == "incommensurate-pieces":
        assert mats.parts.off.nnz > 0
    rng = np.random.default_rng(7)
    for x in (rng.standard_normal(mesh.n_cells), rng.standard_normal((mesh.n_cells, 3))):
        ref = K @ x
        got = mats.parts @ x
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    dense_scale = float(np.max(np.sum(np.abs(K), axis=1)))
    assert abs(eigen._residual_scale(mats.parts) - dense_scale) <= 1e-14 * dense_scale
    v = rng.standard_normal(mesh.n_cells)
    assert form_energy(mats, v) == pytest.approx(v @ K @ v, rel=1e-14)


def test_lanczos_memory_does_not_grow_with_the_square_of_the_mesh():
    # 20,000 cells: a dense stiffness or B alone would take 3.2 GB; the parts and the Lanczos basis take O(n)
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.6),)), 20000)
    assert _lattice_size(mesh) == mesh.n_cells  # else the off-lattice pairs alone would take gigabytes
    tracemalloc.start()
    try:
        mats = assemble("I", alpha_coeffs(1, 1), mesh)
        res = eigensolve(mats, 3)  # never builds the dense matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.diff(res.eigenvalues) > 0.0)
    assert peak < 16e6


def test_lanczos_no_convergence_is_a_numerical_error(monkeypatch, tmp_path):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    mats = assemble("I", alpha_coeffs(1, 1), mesh_intervals(QUARTER, 40))
    with pytest.raises(NumericalError, match="No convergence"):
        eigensolve(mats, 3)
    domain = tmp_path / "quarter.json"
    domain.write_text(json.dumps(domain_to_dict(QUARTER)))
    argv = ["eig", "--form", "I", "--m", "1", "--domain", str(domain), "--cells", "40", "--count", "3",
            "--out", str(tmp_path / "eig.csv")]
    assert cli.main(argv) == 4


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
    S = _difference_matrix(order_weights(1), mesh).toarray()
    St = _difference_matrix(order_weights(1), mesh_t).toarray()
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
    length = DomainSpec(1, (Interval(-0.02 * math.pi, 0.02 * math.pi),))  # the measure of a disk of radius 0.2
    disk = DomainSpec(2, (Disk(0.0, 0.0, 0.2),))
    for ledger, domains in ((alpha_coeffs(2, 2), [disk, length]), (led, [length, disk]), (led, [disk])):
        with pytest.raises(PreconditionError, match="dimension"):
            faber_krahn_compare(ledger, domains, 20)  # a length against an area


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
    S = _difference_matrix(order_weights(m), mesh).toarray()
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


def test_2d_whole_domain_energy_cross_check(monkeypatch):
    # (1_Omega, 1_Omega)_1 = 2 int_Omega int_{B1(x) \ Omega} q_1, computed
    # independently from the ray geometry of the domain itself
    from loglap import pointwise
    from loglap.pointwise import h_regional

    monkeypatch.setattr(pointwise, "N_ANGLES", 96)

    dom = DomainSpec(2, (Rect(-0.2, -0.15, 0.2, 0.15),))
    mesh = mesh_rectangles(dom, 0.05)
    S = _difference_matrix(order_weights(1), mesh).toarray()
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
            acc += h_regional(1, [xv, yv], dom)
    area_cell = (0.4 / nx) * (0.3 / ny)
    rhs = 2.0 * acc * area_cell
    assert lhs == pytest.approx(rhs, rel=2e-2)


def test_2d_far_pair_convolution_matches_tensor_gauss():
    from loglap.eigen import _pair_values_2d
    from loglap.quadrature import panel_rule

    dom = DomainSpec(2, (Rect(0, 0, 0.3, 0.3), Rect(1.4, 0.0, 1.7, 0.3)))
    mesh = mesh_rectangles(dom, 0.3)
    targets = np.arange(1, mesh.n_cells)  # the far rect may mesh into several cells
    A = _pair_values_2d(order_weights(1), mesh, np.zeros_like(targets), targets, 1.0, np.inf, order=10)
    n1, w1 = panel_rule(np.linspace(0.0, 0.3, 5), 12)
    n2, w2 = panel_rule(np.linspace(1.4, 1.7, 5), 12)
    X1, Y1, X2, Y2 = np.meshgrid(n1, n1, n2, n1, indexing="ij")
    W = (w1[:, None, None, None] * w1[None, :, None, None]
         * w2[None, None, :, None] * w1[None, None, None, :])
    ref = float(np.sum(W / ((X1 - X2) ** 2 + (Y1 - Y2) ** 2)))
    got = float(np.sum(A))
    assert got == pytest.approx(ref, rel=1e-12)


def test_2d_near_pair_difference_matches_tensor_gauss():
    from loglap.eigen import _pair_values_2d
    from loglap.quadrature import panel_rule

    dom = DomainSpec(2, (Rect(0, 0, 0.2, 0.2), Rect(0.25, 0.0, 0.45, 0.2)))
    mesh = mesh_rectangles(dom, 0.2)
    S01 = -2.0 * _pair_values_2d(order_weights(1), mesh, np.array([0]), np.array([1]), 0.0, 1.0, order=10)[0]
    n1, w1 = panel_rule(np.linspace(0.0, 0.2, 7), 12)
    n2, w2 = panel_rule(np.linspace(0.25, 0.45, 7), 12)
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
    assert res.eigenvalues[0] >= -1e-8 * np.max(np.abs(mats.parts.toarray()))
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)


# ---------------------------------------------------------------------------
# 2D pair engine: far point-pair sums, near closed form and polar path


def _disk_mesh(r=0.2, h=0.04, centre=(0.0, 0.0)):
    return mesh_rectangles(DomainSpec(2, (Disk(centre[0], centre[1], r),)), h)


def test_chord_rule_weights_give_the_clipped_areas():
    # exact geometry: the weights of box cap disk integrate its area (compared with the box's
    # circle_box_area, not the cell measure, which also holds any merged sliver)
    def worst_error(centres, h):
        worst = 0.0
        for cx, cy in centres:
            mesh = _disk_mesh(h=h, centre=(cx, cy))
            disk = mesh.domain.pieces[0]
            boxes = np.array([c[:4] for c in mesh.cells if c[4]])
            _, _, wts = eigen._chord_rule(boxes, disk, 6)
            areas = np.array([circle_box_area(disk, *box) for box in boxes])
            worst = max(worst, float(np.max(np.abs(wts.sum(axis=1) - areas) / areas)))
        return worst

    rng = np.random.default_rng(0)
    tangent = (0.06317071082430645, -0.09945229996597038)  # a cell edge 2e-17 inside the tangent line
    assert worst_error([tangent] + rng.uniform(-0.1, 0.1, size=(300, 2)).tolist(), 0.04) <= 1e-12  # reads 5.9e-14
    # coarse meshes put the disk's extremes near the cells' panels (4, 5 and 6 cells across: 2.3e-12;
    # 3 across reads 8.9e-11 and 2 across, one quadrant per cell, 4.3e-8)
    for across in (4, 5, 6):
        assert worst_error(rng.uniform(-0.1, 0.1, size=(10, 2)), 0.4 / across) <= 1e-10


def test_far_square_entries_match_the_closed_form():
    # far pairs of unclipped boxes: the 6 x 6 point-pair sum against rect_pair_integral_2d
    square = mesh_rectangles(DomainSpec(2, (Rect(0.013, -0.021, 0.513, 0.479),)), 0.025)
    wide = mesh_rectangles(DomainSpec(2, (Rect(0.0, 0.0, 1.6, 0.6),)), 0.1)
    row_0 = (np.zeros(square.n_cells - 1, dtype=int), np.arange(1, square.n_cells))
    for mesh, (i, l), lo, hi in ((square, row_0, 0.0, 1.0), (wide, np.triu_indices(wide.n_cells, k=1), 1.0, np.inf)):
        cells = np.asarray(mesh.cells)
        far = np.flatnonzero(eigen._far_pairs(cells, i, l, lo, hi))[::3]
        assert far.size >= 50
        for w in (order_weights(1), order_weights(2), alpha_coeffs(2, 2).alpha[1:]):
            got = eigen._pair_values_2d(w, mesh, i[far], l[far], lo, hi)
            ref = np.array([rect_pair_integral_2d(w, cells[a], cells[b], lo, hi) for a, b in zip(i[far], l[far])])
            assert np.max(np.abs(got / ref - 1.0)) <= 1e-10


def test_near_square_entries_are_the_closed_form():
    # near pairs of unclipped boxes (touching ones included) take rect_pair_integral_2d itself
    mesh = mesh_rectangles(DomainSpec(2, (Rect(0.0, 0.0, 0.5, 0.5),)), 0.025)
    cells = np.asarray(mesh.cells)
    w = alpha_coeffs(2, 2).alpha[1:]
    l = np.array([1, 2, 20, 21, 22, 40, 41])
    i = np.zeros_like(l)
    assert not np.any(eigen._far_pairs(cells, i, l, 0.0, 1.0))
    got = eigen._pair_values_2d(w, mesh, i, l, 0.0, 1.0)
    assert np.array_equal(got, [rect_pair_integral_2d(w, cells[0], cells[k], 0.0, 1.0) for k in l])


def test_pair_value_does_not_depend_on_its_batch():
    mesh = _disk_mesh(centre=(0.031, -0.017))
    cells = np.asarray(mesh.cells)
    i, l = np.triu_indices(mesh.n_cells, k=1)
    far = eigen._far_pairs(cells, i, l, 0.0, 1.0)
    clipped = cells[i, 4] + cells[l, 4]
    assert all(np.any(far & (clipped == c)) for c in (0, 1, 2))  # far pairs of every kind
    w = alpha_coeffs(2, 2).alpha[1:]
    batch = eigen._pair_values_2d(w, mesh, i, l, 0.0, 1.0)
    pick = np.random.default_rng(3).choice(i.size, 60, replace=False)
    pick = np.concatenate([pick, np.flatnonzero(far & (clipped == 2))[:5], np.flatnonzero(~far)[:5]])
    alone = [eigen._pair_values_2d(w, mesh, i[k : k + 1], l[k : k + 1], 0.0, 1.0)[0] for k in pick]
    assert np.array_equal(batch[pick], alone)


def test_far_pairs_on_the_polar_path_match_the_point_pair_sum():
    # the wedge rule splits where the circle crosses a clipped target box; without that split
    # these entries err by up to 1.3e-3 at the default order
    mesh = _disk_mesh()
    disk = mesh.domain.pieces[0]
    cells = np.asarray(mesh.cells)
    i, l = np.nonzero(np.ones((mesh.n_cells, mesh.n_cells), dtype=bool))
    keep = (cells[i, 4] == 0) & (cells[l, 4] > 0) & eigen._far_pairs(cells, i, l, 0.0, 1.0)
    i, l = i[keep][::7], l[keep][::7]
    w = alpha_coeffs(2, 2).alpha[1:]
    far = eigen._pair_values_2d(w, mesh, i, l, 0.0, 1.0)
    polar = np.array([eigen._polar_pair_value(w, cells, disk, a, b, 0.0, 1.0, 6) for a, b in zip(i, l)])
    assert np.max(np.abs(polar / far - 1.0)) <= 1e-8


@pytest.mark.parametrize("kind", ["clipped-unclipped", "clipped-clipped"])
def test_touching_pairs_agree_when_swapped(kind):
    # the outer cell carries exact-geometry points whether or not it is clipped, so swapping the two
    # cells of a touching pair moves its value by at most 1.7e-5 / 2.1e-5 (clipped-unclipped /
    # clipped-clipped) at the default order and 7.1e-6 / 2.8e-6 at outer order 10, where the wedge
    # order sets the floor; 1.4% and 2.2% when clipped outer cells dropped their points outside the disk
    mesh = _disk_mesh(r=0.15, h=0.05)
    disk = mesh.domain.pieces[0]
    cells = np.asarray(mesh.cells)
    w = alpha_coeffs(2, 2).alpha[1:]
    i, l = np.triu_indices(mesh.n_cells, k=1)
    touching = np.array([eigen._pair_grading(cells[a], cells[b]) != (0, 0) for a, b in zip(i, l)])
    both = 2 if kind == "clipped-clipped" else 1
    pairs = [(a, b) for a, b in zip(i[touching], l[touching]) if cells[a, 4] + cells[b, 4] == both]
    assert len(pairs) >= 10
    for order, tol in ((6, 5e-5), (10, 1e-5)):
        worst = max(
            abs(eigen._polar_pair_value(w, cells, disk, a, b, 0.0, 1.0, order)
                / eigen._polar_pair_value(w, cells, disk, b, a, 0.0, 1.0, order) - 1.0)
            for a, b in pairs
        )
        assert worst <= tol


def _grid_symmetries(mesh):
    """Per symmetry x -> +-x, y -> +-y, x <-> y about the disk centre, the cell permutation it induces."""
    disk = mesh.domain.pieces[0]
    cells = np.asarray(mesh.cells)
    side = cells[0, 2] - cells[0, 0]
    rel = (cells[:, :4] - [disk.cx, disk.cy, disk.cx, disk.cy]) / side
    index = {tuple(np.round(box, 6) + 0.0): k for k, box in enumerate(rel)}
    x0, y0, x1, y1 = rel.T
    perms = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for swap in (False, True):
                ax0, ax1 = (x0, x1) if sx > 0 else (-x1, -x0)
                ay0, ay1 = (y0, y1) if sy > 0 else (-y1, -y0)
                image = np.column_stack([ay0, ax0, ay1, ax1] if swap else [ax0, ay0, ax1, ay1])
                perm = np.array([index[tuple(np.round(box, 6) + 0.0)] for box in image])
                assert np.array_equal(cells[perm, 4], cells[:, 4])
                perms.append(perm)
    return perms


@pytest.mark.parametrize("centre", [(0.0, 0.0), (0.031, -0.017)])
def test_pair_matrix_is_invariant_under_the_grid_symmetries(centre):
    # near pairs with a clipped cell share one value per orbit, computed on the pair rebuilt from its key;
    # evaluated on each pair's own cells they broke this by 1.0e-5 of max|P| (reads 9.9e-12)
    mesh = _disk_mesh(centre=centre)
    P = _pair_matrix(alpha_coeffs(2, 2).alpha[1:], mesh, 0.0, 1.0).toarray()
    for perm in _grid_symmetries(mesh):
        assert np.max(np.abs(P[np.ix_(perm, perm)] - P)) <= 1e-10 * np.max(np.abs(P))


def test_polar_path_runs_once_per_orbit(monkeypatch):
    calls = []
    real = eigen._polar_pair_value

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(eigen, "_polar_pair_value", spy)
    w = alpha_coeffs(2, 2).alpha[1:]
    for mesh, expected in ((_disk_mesh(), 32), (_disk_mesh(centre=(0.031, -0.017)), 32),
                           (_disk_mesh(r=0.15, h=0.05), 21)):  # 248, 248 and 156 pairs on the polar path
        calls.clear()
        _pair_matrix(w, mesh, 0.0, 1.0)
        assert len(calls) == expected


def _orbit_count(mesh, i, l):
    """Distinct orbits of the unordered pairs {i, l} under the grid symmetries, counted on cell indices."""
    images = np.array([np.sort(np.column_stack([perm[i], perm[l]]), axis=1) for perm in _grid_symmetries(mesh)])
    best = images[0]
    for image in images[1:]:
        smaller = (image[:, 0] < best[:, 0]) | ((image[:, 0] == best[:, 0]) & (image[:, 1] < best[:, 1]))
        best = np.where(smaller[:, None], image, best)
    return len(np.unique(best, axis=0))


@pytest.mark.parametrize("centre", [(0.0, 0.0), (0.031, -0.017)])
def test_far_pairs_with_a_clipped_cell_run_once_per_orbit(monkeypatch, centre):
    sizes = []
    real = eigen._far_values

    def spy(w, rules, i, l):
        sizes.append(i.size)
        return real(w, rules, i, l)

    mesh = _disk_mesh(centre=centre)
    cells = np.asarray(mesh.cells)
    i, l = np.triu_indices(mesh.n_cells, k=1)
    keep = ((cells[i, 4] > 0) | (cells[l, 4] > 0)) & eigen._far_pairs(cells, i, l, 0.0, 1.0)
    i, l = i[keep], l[keep]
    orbits = _orbit_count(mesh, i, l)
    assert (i.size, orbits) == (1810, 237)  # the 88-cell disk of the galerkin-2d benchmark
    monkeypatch.setattr(eigen, "_far_values", spy)
    values = eigen._pair_values_2d(alpha_coeffs(2, 2).alpha[1:], mesh, i, l, 0.0, 1.0)
    assert sum(sizes) == orbits
    P = np.zeros((mesh.n_cells, mesh.n_cells))
    P[i, l] = P[l, i] = values
    for perm in _grid_symmetries(mesh):  # one value per orbit, bit for bit
        assert np.array_equal(P[np.ix_(perm, perm)], P)


def _mirror_class_values_agree(mesh, P):
    """Whether P is one value per mirror class (|dx|, |dy|) of lattice steps, sorted for square cells."""
    centres, sides, cls, _ = eigen._cell_classes(mesh)
    members, steps = eigen._lattice(centres, sides, cls)
    i, l = np.triu_indices(members.size, k=1)
    key = np.abs(steps[l] - steps[i])
    if np.round(sides[members[0], 0], 14) == np.round(sides[members[0], 1], 14):
        key = np.sort(key, axis=1)
    _, group = np.unique(key, axis=0, return_inverse=True)
    group = group.ravel()
    values = P[members[i], members[l]]
    first = np.zeros(group.max() + 1)
    first[group[::-1]] = values[::-1]  # each class's value at its first pair
    return members.size, np.array_equal(values, first[group])


def test_mirror_class_entries_are_equal_bit_for_bit():
    square = mesh_rectangles(DomainSpec(2, (Rect(0.013, -0.021, 0.813, 0.779),)), 0.04)
    w = alpha_coeffs(2, 2).alpha[1:]
    for lo, hi in ((0.0, 1.0), (1.0, np.inf)):
        assert _mirror_class_values_agree(square, _pair_matrix(w, square, lo, hi).toarray()) == (400, True)
    for centre in ((0.0, 0.0), (0.031, -0.017)):
        disk = _disk_mesh(centre=centre)
        P = _pair_matrix(w, disk, 0.0, 1.0).toarray()
        assert _mirror_class_values_agree(disk, P) == (60, True)
        for perm in _grid_symmetries(disk):  # lattice classes and clipped orbits together
            assert np.array_equal(P[np.ix_(perm, perm)], P)


def test_unequal_cell_sides_keep_transposed_offsets_apart():
    mesh = mesh_rectangles(DomainSpec(2, (Rect(0.0, 0.0, 0.5, 0.4),)), 0.06)  # 9 x 7 cells, sides 0.0556 x 0.0571
    centres, sides, cls, _ = eigen._cell_classes(mesh)
    members, steps = eigen._lattice(centres, sides, cls)
    assert members.size == mesh.n_cells and sides[0, 0] < sides[0, 1]
    group, grid = eigen._mirror_classes(np.asarray(mesh.cells), sides, members, steps)
    keys = np.rint((grid[1:, :2] - grid[0, :2]) / sides[0]).astype(int)
    assert len(keys) == 9 * 7 - 1  # every (|dx|, |dy|) but (0, 0): (dx, dy) and (dy, dx) apart
    P = _pair_matrix(alpha_coeffs(2, 2).alpha[1:], mesh, 0.0, 1.0).toarray()
    assert _mirror_class_values_agree(mesh, P) == (63, True)
    at = {tuple(s): k for k, s in enumerate(steps)}
    base = at[(3, 3)]
    value = lambda dx, dy: P[base, at[(3 + dx, 3 + dy)]]
    assert value(2, 3) == value(-2, 3) == value(2, -3) == value(-2, -3)
    assert abs(value(3, 2) / value(2, 3) - 1.0) > 1e-3  # the transposed offset is another geometry


def _tensor_gauss_pair(w, A, B, order=10):
    """int_A int_B k_w by one order^4 tensor Gauss-Legendre sum (quadrature.panel_rule), on two far boxes."""
    from loglap.quadrature import panel_rule

    (ax, awx), (ay, awy), (bx, bwx), (by, bwy) = (panel_rule(np.array(e), order) for e in
                                                  ([A[0], A[2]], [A[1], A[3]], [B[0], B[2]], [B[1], B[3]]))
    d2 = (ax[:, None, None, None] - bx[None, None, :, None]) ** 2 + (ay[None, :, None, None] - by[None, None, None, :]) ** 2
    tau = -np.log(d2)
    k = np.polynomial.polynomial.polyval(tau, w) / d2
    W = awx[:, None, None, None] * awy[None, :, None, None] * bwx[None, None, :, None] * bwy[None, None, None, :]
    return float(np.sum(k * W))


def test_far_entries_stay_within_the_threshold_error_in_every_band():
    # squares of side 0.5: 100 and 1600 cells reach the bands of 6, 5 and 4 points per axis, 10,000 cells
    # the band of 3.  The oracle is a 10 x 10 x 10 x 10 Gauss sum (1e-15 here); rect_pair_integral_2d at
    # order 24 cannot judge these entries, as on diagonal offsets of the 1600-cell square it is off by up
    # to 2.4e-11 itself
    weights = [order_weights(m) for m in (1, 2, 3)] + [alpha_coeffs(m, 2).alpha[1:] for m in (1, 2, 3)]
    worst = {}
    for across in (10, 40, 100):
        mesh = mesh_rectangles(DomainSpec(2, (Rect(0.0, 0.0, 0.5, 0.5),)), 0.5 / across)
        cells = np.asarray(mesh.cells)
        i, l = np.zeros(mesh.n_cells - 1, dtype=int), np.arange(1, mesh.n_cells)
        keep = eigen._far_pairs(cells, i, l, 0.0, 1.0)
        i, l = i[keep], l[keep]
        band = eigen._far_orders(cells, i, l, 6)
        gap, diam, _ = eigen._gaps(cells, i, l)
        pick = []
        for q in np.unique(band):  # each band's nearest pairs, where its error peaks, and a spread of the rest
            nearest = np.flatnonzero(band == q)[np.argsort((gap / diam)[band == q], kind="stable")]
            pick += [nearest[:12], nearest[12 :: max(1, nearest.size // 20)]]
        pick = np.concatenate(pick)
        for w in weights:
            got = eigen._pair_values_2d(w, mesh, i[pick], l[pick], 0.0, 1.0)
            ref = np.array([_tensor_gauss_pair(w, cells[a], cells[b]) for a, b in zip(i[pick], l[pick])])
            for q in np.unique(band):
                err = np.abs(got / ref - 1.0)[band[pick] == q]
                worst[q] = max(worst.get(q, 0.0), float(err.max()))
    assert sorted(worst) == [3, 4, 5, 6]
    # the nearest band keeps the 6 x 6 rule and its error: 4e-12 at offset (2, 2) for m = 2 on 1600 cells,
    # up to 3.2e-11 at (3, 0) for m = 3 on 100 cells; the farther bands stay within the first of those
    # (they read 9.1e-13, 4.4e-13 and 5.3e-13 for 5, 4 and 3 points per axis)
    assert worst[6] <= 4e-11
    assert max(worst[3], worst[4], worst[5]) <= 4e-12


def test_clipped_self_energies_run_once_per_orbit(monkeypatch):
    calls = []
    real = eigen._self_energy_2d

    def spy(w, cell, *rest):
        calls.append(cell)
        return real(w, cell, *rest)

    mesh = _disk_mesh()
    w = alpha_coeffs(2, 2).alpha[1:]
    monkeypatch.setattr(eigen, "_self_energy_2d", spy)
    diag = eigen._self_energies(w, mesh)
    assert len(calls) == 4  # 28 clipped cells
    for perm in _grid_symmetries(mesh):
        assert np.array_equal(diag[perm], diag)
    cells = np.asarray(mesh.cells)
    clipped = np.flatnonzero(cells[:, 4])
    own = np.array([real(w, cells[k], mesh.domain.pieces[0]) for k in clipped])
    assert np.max(np.abs(diag[clipped] / own - 1.0)) <= 1e-12


def test_pair_matrix_matches_brute_force_beside_a_disk():
    # the rect's gap to the disk column is half a cell side, the grading threshold, so a pair's value must
    # come from the pair rebuilt from its key; on the first orbit member's own cells, a batch and the
    # single-pair calls differ by 8.2e-9 of max|P|
    mesh = mesh_rectangles(DomainSpec(2, (Disk(0.0, 0.0, 0.2), Rect(0.22, -0.06, 0.30, 0.06))), 0.04)
    w = alpha_coeffs(2, 2).alpha[1:]
    P = _pair_matrix(w, mesh, 0.0, 1.0).toarray()
    ref = _pair_matrix_by_brute_force(w, mesh, 0.0, 1.0)
    assert np.max(np.abs(P - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_pair_matrix_temporaries_stay_within_the_chunk_budget(monkeypatch):
    # far sums and near rays run in chunks of _CHUNK elements: the 2D evaluator adds a fixed budget
    # to what _pair_matrix holds without it (the matrix and its index arrays), whatever the number of pairs
    mesh = _disk_mesh(h=0.02)
    assert mesh.n_cells == 344
    w = alpha_coeffs(2, 2).alpha[1:]

    def traced_peak():
        tracemalloc.start()
        try:
            _pair_matrix(w, mesh, 0.0, 1.0).toarray()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = traced_peak()
    monkeypatch.setitem(eigen._ENGINES, 2, lambda w, mesh, i, l, lo, hi: np.zeros(len(i)))
    baseline = traced_peak()
    assert baseline >= 8 * mesh.n_cells ** 2
    assert peak - baseline <= 32 * 8 * eigen._CHUNK


def test_two_rectangle_union_is_one_lattice():
    # (0.65 - 0.35) / 0.005 rounds to 60.00000000000001: read as 60 columns, the second piece stays on the first's grid
    union = DomainSpec(2, (Rect(0.0, 0.0, 0.3, 0.2), Rect(0.35, 0.05, 0.65, 0.25)))
    mesh = mesh_rectangles(union, 0.005)
    assert mesh.n_cells == _lattice_size(mesh) == 4800
    assert assemble("I", alpha_coeffs(2, 2), mesh).parts.off.nnz == 0


def test_off_lattice_pair_search_works_in_row_blocks(monkeypatch):
    # a two-width split whose second piece lies wholly off the lattice: the
    # candidate pairs are range-tested in row blocks, so a search that keeps
    # nothing (all pairs nearer than 1) stays within one block's allowance,
    # not the 8 n_off n bytes of every candidate at once
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.45, 0.0), Interval(0.0137, 0.45))), 8000)
    centres, sides, cls, _ = eigen._cell_classes(mesh)
    members, _ = eigen._lattice(centres, sides, cls)
    n_off = mesh.n_cells - members.size
    assert n_off > 0.45 * mesh.n_cells
    tracemalloc.start()
    try:
        i, _, _ = eigen._off_lattice_pairs(centres, sides, cls, members, 1.0, np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert i.size == 0
    assert peak < 64 * eigen._PAIR_BLOCK < 0.1 * 8 * n_off * mesh.n_cells
    # the block size does not change the pairs, their order or the groups
    mesh = mesh_intervals(DomainSpec(1, (Interval(-0.6, 0.1), Interval(0.2137, 0.6))), 400)
    centres, sides, cls, _ = eigen._cell_classes(mesh)
    members, _ = eigen._lattice(centres, sides, cls)
    whole = eigen._off_lattice_pairs(centres, sides, cls, members, 0.0, 1.0)
    monkeypatch.setattr(eigen, "_PAIR_BLOCK", 1)  # one row per block
    by_rows = eigen._off_lattice_pairs(centres, sides, cls, members, 0.0, 1.0)
    assert whole[0].size > 10000
    assert all(np.array_equal(a, b) for a, b in zip(whole, by_rows))
