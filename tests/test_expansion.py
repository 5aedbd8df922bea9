"""Order-expansion remainders: slopes, signs, quotients, ledger consistency."""

import math

import numpy as np
import pytest

from loglap import NumericalError, PreconditionError
from loglap.expansion import (
    DEFAULT_S_SAMPLES,
    RemainderStudy,
    _central_region,
    remainder,
    run_study,
    shifted_expansion_check,
    slope_fit,
)
from loglap.grid import gaussian_bump, gaussian_derivative_bump
from loglap.pointwise import apply_L_batch
from loglap.spectral import apply_symbol


@pytest.fixture(scope="module")
def bump():
    return gaussian_derivative_bump(dim=1)


def test_remainder_zero_input(bump):
    zero = bump.with_values(np.zeros(bump.shape), const=0.0)
    out = remainder("fraclap", 2, 0.1, zero)
    assert np.max(np.abs(out.values)) == 0.0


def test_zeroth_remainder_vanishes_with_s(bump):
    sups = []
    for s in (0.1, 0.01, 0.001):
        out = remainder("fraclap", 0, s, bump)
        sups.append(np.max(np.abs(out.values)))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 1e-2 * bump.sup_norm()


def test_first_riesz_remainder_next_term_dominance(bump):
    # ||R_1(s)|| ~ s^2/2 ||L_2 u|| to within 5% at small s
    s = 1e-3
    region = _central_region(bump)
    R = remainder("riesz", 1, s, bump).values[region]
    L2 = apply_symbol(bump, "log", 2).values[region]
    assert np.max(np.abs(R)) / s ** 2 == pytest.approx(0.5 * np.max(np.abs(L2)), rel=0.05)


def test_remainder_preconditions(bump):
    with pytest.raises(PreconditionError):
        remainder("fraclap", 2, 0.3, bump)  # s > 1/4
    with pytest.raises(PreconditionError):
        remainder("fraclap", 5, 0.1, bump)
    with pytest.raises(PreconditionError):
        remainder("sideways", 1, 0.1, bump)
    g = gaussian_bump(dim=1, nodes=512, halfwidth=10.0)
    with pytest.raises(PreconditionError):
        remainder("fraclap", 1, 0.1, g)  # nonzero mean


@pytest.mark.parametrize("side", ["fraclap", "riesz"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_slopes_are_n_plus_one(bump, side, n):
    st = run_study(side, n, bump)
    assert n + 0.8 <= slope_fit(st) <= n + 1.2


def test_study_transforms_input_once(bump, monkeypatch):
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or fftn(*a, **k))
    run_study("fraclap", 1, bump)
    assert len(calls) == 1


def test_riesz_and_fraclap_first_terms_opposite(bump):
    # (Phi_s*u - u) = -((-Delta)^s u - u) + O(s^2)
    region = _central_region(bump)
    s = 2.0 ** -8
    r_r = remainder("riesz", 0, s, bump).values[region]
    r_f = remainder("fraclap", 0, s, bump).values[region]
    cancel = np.max(np.abs(r_r + r_f))
    size = np.max(np.abs(r_f))
    assert cancel < 0.02 * size  # the sum is one order smaller in s


def test_shifted_reduces_to_fraclap_at_zero(bump):
    st0 = run_study("fraclap", 1, bump)
    sts = shifted_expansion_check(bump, 0.0, 1)
    assert np.allclose(st0.sup_norms, sts.sup_norms, rtol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_shifted_base_half_slopes(bump, n):
    st = shifted_expansion_check(bump, 0.5, n)
    assert n + 0.8 <= st.fitted_slope <= n + 1.2


def test_shifted_convergence_zeroth_order(bump):
    # B^s u -> B^(s0) u in sup norm as s -> s0
    st = shifted_expansion_check(bump, 0.5, 0)
    assert all(a > b for a, b in zip(st.sup_norms, st.sup_norms[1:]))


def test_ledger_consistency_with_symbol_partial_sums(bump):
    # replacing the exact-symbol partial sum by the quadrature ledger
    # operators moves the remainder norm by at most 1e-3 relative
    s = 2.0 ** -6
    region = _central_region(bump)
    idx = np.arange(bump.shape[0])[region[0]]
    xs = bump.axes()[0][idx][:, None]
    for n in (1, 2):
        r_sym = remainder("fraclap", n, s, bump).values[region]
        bs = apply_symbol(bump, "frac", s).values[region]
        partial = bump.values[region].copy()
        for j in range(1, n + 1):
            lj, _, _ = apply_L_batch(j, bump, xs)
            partial = partial + s ** j / math.factorial(j) * lj
        r_led = bs - partial
        ns, nl = np.max(np.abs(r_sym)), np.max(np.abs(r_led))
        assert abs(nl - ns) <= 1e-3 * ns


@pytest.mark.parametrize("m", [1, 2])
def test_quotient_convergence_to_log_operator(bump, m):
    # m! R_(m-1)(s)/s^m -> L_m u with error <= C s; C fitted and stable
    region = _central_region(bump)
    lm = apply_symbol(bump, "log", m).values[region]
    samples = (2.0 ** -6, 2.0 ** -7, 2.0 ** -8)
    errs = []
    for s in samples:
        r = remainder("fraclap", m - 1, s, bump).values[region]
        errs.append(np.max(np.abs(math.factorial(m) * r / s ** m - lm)))
    cs = [e / s for e, s in zip(errs, samples)]
    fitted_c = max(cs)
    assert all(e <= fitted_c * s * 1.0001 for e, s in zip(errs, samples))
    assert max(cs) / min(cs) < 1.5  # the constant is stable, so error ~ C s


def test_study_requires_enough_samples(bump):
    with pytest.raises(PreconditionError):
        run_study("fraclap", 1, bump, s_samples=(0.1, 0.05, 0.025))


def test_study_sample_ordering_enforced():
    with pytest.raises(PreconditionError):
        RemainderStudy(
            side="fraclap",
            n=1,
            s0=0.0,
            s_samples=(0.01, 0.1),
            sup_norms=(1.0, 1.0),
            l2_norms=(1.0, 1.0),
            fitted_slope=2.0,
        )
