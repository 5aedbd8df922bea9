"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with -s to see the lines; every tolerance is fixed here, nothing is
calibrated at runtime.  Wall-clock budgets are asserted alongside the
numerical claims.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from loglap.coeffs import (
    EULER_GAMMA,
    alpha_coeffs,
    c_dim,
    c_ns,
    kappa1,
    kappa_series,
    rho,
)
from loglap.domains import DomainSpec, Interval, mesh_intervals
from loglap.eigen import (
    _convolution_matrix,
    assemble,
    eigensolve,
    faber_krahn_compare,
    form_energy,
    k_form_first_eig,
    rearrange_decreasing,
)
from loglap.expansion import _central_region, run_study, shifted_expansion_check
from loglap.grid import gaussian_bump, gaussian_derivative_bump
from loglap.kernels import order_weights
from loglap.pointwise import apply_K_batch, apply_L_batch, regional_repr, riesz_batch
from loglap.spectral import apply_symbol, derivative_in_order

mp.mp.dps = 40


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _mp_kappa(i, s, N):
    s = mp.mpf(s)
    k1 = 2 ** (-2 * s) * mp.pi ** (-mp.mpf(N) / 2) * mp.gamma((N - 2 * s) / 2) / mp.gamma(1 + s)
    return k1 if i == 1 else k1 / (mp.pi ** (-mp.mpf(N) / 2) * mp.gamma(mp.mpf(N) / 2))


def _richardson_derivative(f, order, h=mp.mpf("1e-3"), levels=2):
    def diff(step):
        total = mp.mpf(0)
        for i in range(order + 1):
            total += (-1) ** i * mp.binomial(order, i) * f((mp.mpf(order) / 2 - i) * step)
        return total / step ** order

    vals = [diff(h / 2 ** j) for j in range(levels + 1)]
    for lev in range(1, levels + 1):
        fac = mp.mpf(4) ** lev
        vals = [(fac * vals[j + 1] - vals[j]) / (fac - 1) for j in range(len(vals) - 1)]
    return float(vals[0])


def test_criterion_1_coefficient_ledger():
    t0 = time.time()
    worst_first = 0.0
    for N in (1, 2, 3):
        led = alpha_coeffs(1, N)
        worst_first = max(
            worst_first,
            abs(led.alpha[0] - rho(N)),
            abs(led.alpha[1] - c_dim(N)),
        )
    ok = worst_first <= 1e-12

    worst_fd = 0.0
    for N in (1, 2, 3):
        ser = kappa_series(N, 6)
        for order in range(1, 7):
            fd1 = _richardson_derivative(lambda s: _mp_kappa(1, s, N), order)
            fd2 = _richardson_derivative(lambda s: _mp_kappa(2, s, N), order)
            worst_fd = max(
                worst_fd,
                abs(ser.kappa1_deriv(order) - fd1) / max(abs(fd1), 1e-300),
                abs(ser.kappa2_deriv(order) - fd2) / max(abs(fd2), 1e-300),
            )
    ok = ok and worst_fd <= 1e-6

    worst_c = 0.0
    for N in (1, 2, 3):
        for s in (0.1, 0.25, 0.4):
            direct = (
                2.0 ** (2 * s) * math.pi ** (-N / 2) * s * math.gamma((N + 2 * s) / 2) / math.gamma(1 - s)
            )
            worst_c = max(worst_c, abs(kappa1(-s, N) * s - direct) / abs(direct))
    ok = ok and worst_c <= 1e-12
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"ledger exact to {worst_first:.1e}, FD match {worst_fd:.1e}, "
                   f"c_Ns identity {worst_c:.1e}, {elapsed:.2f}s < 1s")


def test_criterion_2_symbol_equivalence():
    t0 = time.time()
    u = gaussian_derivative_bump(dim=1)  # [-20, 20], 4096 nodes, mean zero
    n = u.shape[0]
    idx = np.arange(n // 4, 3 * n // 4)
    xs = u.axes()[0][idx][:, None]
    worst = 0.0
    for m in (1, 2, 3):
        quad_vals, _, _ = apply_L_batch(m, u, xs)
        ref = apply_symbol(u, "log", m)
        rel = float(np.max(np.abs(quad_vals - ref.values[idx])) / np.max(np.abs(ref.values)))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    _report(2, ok, f"quadrature vs spectral m=1..3 rel sup {worst:.2e} <= 1e-3, "
                   f"{elapsed:.1f}s < 60s")


def test_criterion_3_expansion_orders():
    t0 = time.time()
    u = gaussian_derivative_bump(dim=1)
    slopes = {}
    ok = True
    for side in ("fraclap", "riesz"):
        for n in range(4):
            s = run_study(side, n, u).fitted_slope
            slopes[(side, n)] = s
            ok = ok and n + 0.8 <= s <= n + 1.2
    for n in range(3):
        s = shifted_expansion_check(u, 0.5, n).fitted_slope
        slopes[("shifted", n)] = s
        ok = ok and n + 0.8 <= s <= n + 1.2
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    detail = ", ".join(f"{k[0][:4]}/n={k[1]}:{v:.2f}" for k, v in slopes.items())
    _report(3, ok, f"slopes in [n+0.8, n+1.2] ({detail}), {elapsed:.1f}s < 30s")


def test_criterion_4_derivative_definition():
    t0 = time.time()
    u = gaussian_derivative_bump(dim=1)
    worst = 0.0
    for m in (1, 2):
        d = derivative_in_order(u, m, 0.0, 1e-3)
        ref = apply_symbol(u, "log", m)
        worst = max(worst, float(np.max(np.abs(d.values - ref.values)) / np.max(np.abs(ref.values))))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(4, ok, f"m-th order differences match log symbols to {worst:.2e} <= 1e-4, "
                   f"{elapsed:.1f}s < 10s")


def test_criterion_5_riesz_limit():
    t0 = time.time()
    u = gaussian_bump(dim=1, halfwidth=6.0, nodes=2048, width=1.0)
    xs = np.linspace(-2.5, 2.5, 101)[:, None]
    l1_vals, _, _ = apply_L_batch(1, u, xs)
    errs = {}
    for s in (1e-2, 1e-3):
        r_vals, _, _ = riesz_batch(s, u, xs)
        quot = (r_vals - u(xs[:, 0])) / s
        errs[s] = float(np.max(np.abs(quot + l1_vals)))
    ratio = errs[1e-2] / errs[1e-3]
    fitted_c = errs[1e-3] / 1e-3
    elapsed = time.time() - t0
    ok = 8.0 <= ratio <= 12.0 and elapsed < 30.0
    _report(5, ok, f"quotient error ~ C*s with C={fitted_c:.3f}, "
                   f"error ratio {ratio:.2f} in [8, 12], {elapsed:.1f}s < 30s")


def test_criterion_6_eigenvalues():
    t0 = time.time()
    dom = DomainSpec(1, (Interval(-0.25, 0.25),))
    ok = True
    details = []
    for m in (1, 2):
        led = alpha_coeffs(m, 1)
        lam = {}
        for cells in (200, 400):
            res = eigensolve(assemble("I", led, mesh_intervals(dom, cells)), 5)
            ok = ok and bool(np.all(np.diff(res.eigenvalues) >= -1e-12))
            lam[cells] = res.eigenvalues
        drift = abs(lam[400][0] - lam[200][0]) / abs(lam[400][0])
        ok = ok and drift <= 0.02
        details.append(f"m={m} drift {drift:.3%}")
        if m == 2:
            scale = float(np.max(np.abs(lam[400])))
            ok = ok and lam[400][0] >= -1e-8 * scale
            details.append(f"lambda_2,1={lam[400][0]:.4f}>=0")
        resq = eigensolve(assemble("Q", led, mesh_intervals(dom, 200)), 1)
        v = resq.vectors[:, 0]
        ok = ok and bool(np.all(v >= -1e-6 * np.max(np.abs(v))))
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _report(6, ok, f"ascending spectra, {'; '.join(details)}, Q eigvectors "
                   f"sign-constant, {elapsed:.1f}s < 120s")


def test_criterion_7_dominant_kernel_problem():
    t0 = time.time()
    dom = DomainSpec(1, (Interval(-0.25, 0.25),))
    mesh = mesh_intervals(dom, 200)
    ok = True
    mus = []
    for m in (1, 2, 3):
        conv = _convolution_matrix(order_weights(m), mesh).toarray()
        ok = ok and float(np.max(np.abs(conv))) == 0.0
        res = k_form_first_eig(m, mesh, k=2)
        mus.append(res.eigenvalues[0])
        ok = ok and res.eigenvalues[0] > 0.0
        v = res.vectors[:, 0]
        ok = ok and bool(np.all(v >= -1e-6 * np.max(np.abs(v))))
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _report(7, ok, f"mu_1 = {['%.3f' % m_ for m_ in mus]} all > 0, convolution part "
                   f"exactly zero, eigvectors sign-constant, {elapsed:.1f}s < 120s")


def test_criterion_8_faber_krahn():
    t0 = time.time()
    led = alpha_coeffs(2, 1)
    a, g = 0.1, 0.02
    ball = DomainSpec(1, (Interval(-a, a),))
    split = DomainSpec(1, (Interval(-g - a, -g), Interval(g, g + a)))
    rows = faber_krahn_compare(led, [ball, split], cells_per_unit=2000)  # 400 cells each
    gap = (rows[1].lambda1 - rows[0].lambda1) / rows[0].lambda1
    ok = rows[0].reference_min and gap >= 0.01
    res = eigensolve(assemble("Q", led, mesh_intervals(ball, 400)), 1)
    v = res.vectors[:, 0]
    order = np.argsort(np.abs(mesh_intervals(ball, 400).centers()), kind="stable")
    monotone = bool(np.all(np.diff(v[order]) <= 1e-6 * np.max(np.abs(v))))
    ok = ok and monotone
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _report(8, ok, f"split exceeds ball by {gap:.1%} >= 1%, ball eigvector radially "
                   f"non-increasing, {elapsed:.1f}s < 120s")


def test_criterion_9_rearrangement():
    t0 = time.time()
    led = alpha_coeffs(2, 1)
    dom = DomainSpec(1, (Interval(-0.12, 0.12),))
    mesh = mesh_intervals(dom, 96)
    mats = assemble("Q", led, mesh)
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(20):
        v = rng.uniform(0.0, 1.0, mesh.n_cells)
        vr = rearrange_decreasing(v, mesh)
        e0, e1 = form_energy(mats, v), form_energy(mats, vr)
        if e1 > e0 + 1e-10 * max(abs(e0), 1.0):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 30.0
    _report(9, ok, f"rearranged Q energy never increased over 20 seeded trials "
                   f"({violations} violations), {elapsed:.1f}s < 30s")


def test_criterion_10_representation_equality():
    t0 = time.time()
    u = gaussian_bump(dim=1, halfwidth=2.0, nodes=1024, width=0.5)
    rng = np.random.default_rng(7)
    cases = 0
    worst_margin = -np.inf
    ok = True
    while cases < 20:
        m = int(rng.integers(1, 4))
        left = float(rng.uniform(-1.9, -0.5))
        right = float(rng.uniform(0.5, 1.9))
        if rng.uniform() < 0.5:
            gap_lo = float(rng.uniform(-0.3, 0.0))
            gap_hi = float(rng.uniform(0.05, 0.3))
            dom = DomainSpec(1, (Interval(left, gap_lo), Interval(gap_hi, right)))
        else:
            dom = DomainSpec(1, (Interval(left, right),))
        x0 = float(rng.uniform(left + 0.05, right - 0.05))
        if not dom.contains([x0]):
            continue
        ra = regional_repr(m, u, [x0], dom)
        values, bound, _ = apply_K_batch(m, u, [x0])
        budget = ra.truncation_bound + bound
        diff = abs(ra.value - values[0])
        worst_margin = max(worst_margin, diff - budget)
        ok = ok and diff <= budget
        cases += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(10, ok, f"|regional - direct| within combined budgets on 20 seeded cases "
                    f"(worst excess {worst_margin:.2e}), {elapsed:.1f}s < 60s")
