"""Fourier-multiplier path: symbols, Parseval, zero-mode policy, compositions."""

import dataclasses
import math

import numpy as np
import pytest

from loglap import PreconditionError, spectral
from loglap.grid import GridFunction, gaussian_bump, gaussian_derivative_bump
from loglap.spectral import (
    apply_symbol,
    derivative_in_order,
    log_norm,
    transform,
)


@pytest.fixture(scope="module")
def bump():
    return gaussian_derivative_bump(dim=1, nodes=1024, halfwidth=10.0)


def _symbol(kind, param, xi):
    return float(spectral._multiplier(kind, param, np.array([float(xi)]))[0])


def test_symbol_values():
    for m in (1, 2, 5):
        assert _symbol("log", m, 1.0) == 0.0
    assert _symbol("log", 2, math.exp(0.5)) == pytest.approx(1.0, rel=1e-14)
    assert _symbol("frac", 0.5, 2.0) == pytest.approx(2.0, rel=1e-15)
    assert _symbol("riesz", 0.5, 2.0) == pytest.approx(0.5, rel=1e-15)
    # zero mode: the identity orders keep it, every other symbol drops it
    assert _symbol("log", 0, 0.0) == 1.0
    assert _symbol("frac", 0.0, 0.0) == 1.0
    assert _symbol("frac", 0.3, 0.0) == 0.0
    assert _symbol("log", 1, 0.0) == 0.0
    assert _symbol("riesz", 0.3, 0.0) == 0.0


def test_identity_orders(bump):
    out = apply_symbol(bump, "log", 0)
    assert np.max(np.abs(out.values - bump.values)) < 1e-12 * bump.sup_norm()
    out2 = apply_symbol(bump, "frac", 0.0)
    assert np.max(np.abs(out2.values - bump.values)) < 1e-12 * bump.sup_norm()


def test_frac_riesz_inverse_on_mean_zero(bump):
    s = 0.3
    w = apply_symbol(apply_symbol(bump, "frac", s), "riesz", s)
    assert np.max(np.abs(w.values - bump.values)) < 1e-6 * bump.sup_norm()


def test_zero_mode_policy():
    g = gaussian_bump(dim=1, nodes=512, halfwidth=10.0)  # nonzero mean
    with pytest.raises(PreconditionError):
        apply_symbol(g, "log", 1)
    out = apply_symbol(g, "log", 1, allow_mean=True)
    assert np.all(np.isfinite(out.values))
    apply_symbol(g, "frac", 0.2)  # nonsingular at 0 for s > 0: no policy needed


def test_support_precondition():
    n = 256
    h = 20.0 / n
    vals = np.ones(n)  # support fills the whole periodic box
    u = GridFunction(1, (-10.0,), (h,), (n,), vals, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        apply_symbol(u, "frac", 0.1, allow_mean=True)


def test_parseval_and_realness(bump):
    out, residue = apply_symbol(bump, "log", 1, return_residue=True)
    assert residue <= 1e-10
    # Parseval: grid L2 of the output equals the weighted spectral sum
    xi = np.abs(2.0 * math.pi * np.fft.fftfreq(bump.shape[0], d=bump.spacing[0]))
    mult = np.zeros_like(xi)
    mult[xi > 0] = 2.0 * np.log(xi[xi > 0])
    coefficients = np.fft.fftn(bump.values) * bump.cell_volume
    dxi = 2.0 * math.pi / bump.periods[0]
    spectral_l2 = math.sqrt(np.sum(np.abs(mult * coefficients) ** 2) * dxi / (2 * math.pi))
    assert out.l2_norm() == pytest.approx(spectral_l2, rel=1e-10)


def test_residue_guard_stays_live(monkeypatch):
    u = gaussian_derivative_bump(dim=1)
    _, residue = apply_symbol(u, "frac", 1.0, return_residue=True)
    # the imaginary part a full-lattice inverse carries, relative to the output's L2 norm
    xi = np.abs(2.0 * math.pi * np.fft.fftfreq(u.shape[0], d=u.spacing[0]))
    full = np.fft.ifftn(xi ** 2 * np.fft.fftn(u.values))
    ref = math.sqrt(np.sum(full.imag ** 2) / np.sum(full.real ** 2))
    assert residue == pytest.approx(ref, rel=1e-2)

    # an antisymmetric part of relative size eps is read back as residue eps and refused above 1e-10
    real_transform = spectral.transform
    eps = 1e-11

    def skewed(v):
        spec = real_transform(v)
        return dataclasses.replace(spec, asymmetry=spec.asymmetry + 1j * eps * spec.coefficients)

    monkeypatch.setattr(spectral, "transform", skewed)
    _, residue = apply_symbol(u, "frac", 1.0, return_residue=True)
    assert residue == pytest.approx(eps, rel=1e-3)
    eps = 1e-9
    with pytest.raises(PreconditionError, match="imaginary residue"):
        apply_symbol(u, "frac", 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_high_orders_pass_the_residue_guard(dim):
    # the residue is measured against the output, which grows with the order like the residue
    # does (1D: frac s = 2 reads 7.7e-11, log m = 8 1.7e-13; 2D: 2.3e-14 and 4.4e-15)
    u = gaussian_derivative_bump(dim=dim)
    for kind, param in (("frac", 2.0), ("log", 8)):
        out, residue = apply_symbol(u, kind, param, return_residue=True)
        assert 0.0 < residue <= 1e-10
        assert np.all(np.isfinite(out.values))


@pytest.mark.parametrize("shape", [(64,), (63,), (48, 45), (48, 46)])
def test_transform_splits_the_real_half_lattice(shape):
    rng = np.random.default_rng(len(shape) + shape[-1])
    values = rng.standard_normal(shape)
    u = GridFunction(len(shape), (0.0,) * len(shape), (0.1,) * len(shape), shape, values, 1.0, 1.0)
    spec = transform(u)
    cols = shape[-1] // 2 + 1
    full = np.fft.fftn(values) * u.cell_volume
    assert spec.coefficients.shape == spec.asymmetry.shape == full[..., :cols].shape
    assert np.allclose(spec.coefficients + spec.asymmetry, full[..., :cols], rtol=0, atol=1e-15 * np.max(np.abs(full)))
    assert np.max(np.abs(spec.asymmetry)) < 1e-14 * np.max(np.abs(full))
    assert np.allclose(spec.frequencies[-1], 2.0 * math.pi * np.fft.rfftfreq(shape[-1], d=0.1))
    assert np.allclose(spec.invert(np.ones(spec.xi_norm().shape)), values, rtol=0, atol=1e-14)
    # Parseval on the half lattice: columns other than 0 and Nyquist count twice
    assert spec.norm(spec.coefficients) == pytest.approx(u.l2_norm(), rel=1e-13)


def test_log_norm_basics(bump):
    zero = bump.with_values(np.zeros(bump.shape), const=0.0)
    assert log_norm(zero, 3) == 0.0
    assert log_norm(bump, 0) == pytest.approx(bump.l2_norm(), rel=1e-10)
    norms = [log_norm(bump, m) for m in range(4)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))  # ln(e+|xi|) >= 1


def test_semigroup_composition(bump):
    s1, s2 = 0.15, 0.25
    lhs = apply_symbol(apply_symbol(bump, "frac", s1), "frac", s2)
    rhs = apply_symbol(bump, "frac", s1 + s2)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-8 * max(rhs.sup_norm(), 1.0)


def test_single_shell_spectrum_fixed_by_frac_killed_by_log():
    # box chosen so |xi| = 1 lies exactly on the lattice: L = 16 pi, k = 8
    n = 1024
    L = 16.0 * math.pi
    h = L / n
    x = -L / 2 + h * np.arange(n)
    u_vals = np.cos(x)  # spectrum exactly on the shell |xi| = 1
    u = GridFunction(1, (-L / 2,), (h,), (n,), u_vals, 1.0, 2.0)
    # fills the box: bypass the support guard by building the shell directly
    spec_fix = np.fft.fft(u_vals)
    keep = np.zeros_like(spec_fix)
    freqs = 2 * math.pi * np.fft.fftfreq(n, d=h)
    for idx in np.nonzero(np.isclose(np.abs(freqs), 1.0))[0]:
        keep[idx] = spec_fix[idx]
    assert np.max(np.abs(keep - spec_fix)) < 1e-9 * np.max(np.abs(spec_fix))
    for s in (0.2, 0.45):
        mult = np.abs(freqs) ** (2 * s)
        out = np.fft.ifft(mult * spec_fix).real
        assert np.max(np.abs(out - u_vals)) < 1e-10 * np.max(np.abs(u_vals))
    for m in (1, 2):
        mult = np.zeros_like(freqs)
        pos = np.abs(freqs) > 0
        mult[pos] = (2 * np.log(np.abs(freqs[pos]))) ** m
        out = np.fft.ifft(mult * spec_fix).real
        assert np.max(np.abs(out)) < 1e-10 * np.max(np.abs(u_vals))


def test_derivative_in_order_matches_log_symbol(bump):
    for m, tol in ((1, 1e-5), (2, 1e-5)):
        d = derivative_in_order(bump, m, 0.0, 1e-3)
        ref = apply_symbol(bump, "log", m)
        rel = np.max(np.abs(d.values - ref.values)) / np.max(np.abs(ref.values))
        assert rel < tol


def test_derivative_step_convergence(bump):
    ref = apply_symbol(bump, "log", 1)
    errs = []
    for step in (4e-3, 2e-3, 1e-3):
        d = derivative_in_order(bump, 1, 0.0, step)
        errs.append(np.max(np.abs(d.values - ref.values)))
    # O(step^2): halving the step shrinks the error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_derivative_zero_input(bump):
    zero = bump.with_values(np.zeros(bump.shape), const=0.0)
    d = derivative_in_order(zero, 2, 0.0, 1e-3)
    assert np.max(np.abs(d.values)) == 0.0


def test_derivative_range_violation(bump):
    with pytest.raises(PreconditionError):
        derivative_in_order(bump, 2, -0.49, 0.02)  # stencil leaves (-N/2, 2]
    with pytest.raises(PreconditionError):
        derivative_in_order(bump, 1, 0.0, -1e-3)


def test_shifted_symbol_range(bump):
    with pytest.raises(PreconditionError):
        apply_symbol(bump, "frac", 2.5)
    with pytest.raises(PreconditionError):
        apply_symbol(bump, "riesz", 0.6)  # >= N/2 in 1D
