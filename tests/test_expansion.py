"""Order-expansion remainders: slopes, signs, quotients, ledger consistency."""

import math

import mpmath
import numpy as np
import pytest

from loglap import NumericalError, PreconditionError
from loglap.expansion import (
    DEFAULT_S_SAMPLES,
    _central_region,
    _exp_tail,
    remainder,
    run_study,
    shifted_expansion_check,
)
from loglap.grid import GridFunction, gaussian_bump, gaussian_derivative_bump
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
    assert n + 0.8 <= st.fitted_slope <= n + 1.2


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


@pytest.mark.parametrize("n", [-1, -3])
@pytest.mark.parametrize("side", ["fraclap", "shifted"])
def test_study_refuses_negative_orders(bump, side, n):
    with pytest.raises(PreconditionError, match="expansion order"):
        run_study(side, n, bump, s0=0.5)


# -- the exponential tail against a high-precision oracle ------------------------


def _mp_tail(x: float, n: int) -> float:
    # 130 digits: at 40 a tail such as x^5/120 at x = 1e-12 cancels away
    with mpmath.workdps(130):
        X = mpmath.mpf(x)
        return float(mpmath.exp(X) - sum(X ** j / mpmath.factorial(j) for j in range(n + 1)))


_SMALL_X = [0.0] + [sg * a for a in (1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0) for sg in (1.0, -1.0)]


@pytest.mark.parametrize("n", range(5))
def test_exp_tail_series_branch_matches_mpmath(n):
    got = _exp_tail(np.array(_SMALL_X), n)
    for x, g in zip(_SMALL_X, got):
        ref = _mp_tail(x, n)
        assert abs(g - ref) <= 2e-15 * abs(ref), (x, g, ref)


@pytest.mark.parametrize("n", range(5))
def test_exp_tail_exp_branch_matches_mpmath(n):
    xs = [sg * a for a in (1.0 + 1e-9, 1.1, 1.7, 2.5) for sg in (1.0, -1.0)]
    got = _exp_tail(np.array(xs), n)
    for x, g in zip(xs, got):
        ref = _mp_tail(x, n)
        assert abs(g - ref) <= 1e-13 * abs(ref), (x, g, ref)


def test_exp_tail_mixed_branches_and_shape():
    x = np.array([[0.3, -1.5], [2.0, -1e-4]])
    got = _exp_tail(x, 2)
    assert got.shape == x.shape
    for xv, g in zip(x.ravel(), got.ravel()):
        assert abs(g - _mp_tail(xv, 2)) <= 1e-13 * abs(_mp_tail(xv, 2))


# -- the real half lattice against a full-lattice reference ----------------------


def _bump_2d():
    # odd last axis: the half lattice keeps (45 // 2 + 1) = 23 columns
    h = 0.125
    shape = (48, 45)
    origin = (-3.0, -2.75)
    x = origin[0] + h * np.arange(shape[0])
    y = origin[1] + h * np.arange(shape[1])
    vals = x[:, None] * np.exp(-(x[:, None] ** 2 + y[None, :] ** 2) / 0.25)
    return GridFunction(2, origin, (h, h), shape, vals, 1.0, 10.0)


def _full_lattice_values(side, n, s, u, s0=0.0):
    freqs = [2.0 * np.pi * np.fft.fftfreq(m, d=h) for m, h in zip(u.shape, u.spacing)]
    xi = np.sqrt(sum(f ** 2 for f in np.meshgrid(*freqs, indexing="ij")))
    pos = xi > 0.0
    L = np.zeros_like(xi)
    L[pos] = 2.0 * np.log(xi[pos])
    if side == "riesz":
        mult = _exp_tail(-s * L, n)
    else:
        mult = _exp_tail((s - s0) * L, n)
    if side == "shifted":
        mult[pos] *= xi[pos] ** (2.0 * s0)
    mult[~pos] = 0.0
    return np.fft.ifftn(mult * np.fft.fftn(u.values)).real


@pytest.fixture(scope="module", params=["1d", "2d"])
def lattice_bump(request):
    return gaussian_derivative_bump(dim=1, nodes=1024, halfwidth=10.0) if request.param == "1d" else _bump_2d()


@pytest.mark.parametrize("side", ["fraclap", "riesz"])
@pytest.mark.parametrize("n", [0, 2])
def test_half_lattice_remainder_matches_full_lattice(lattice_bump, side, n):
    for s in (0.25, 2.0 ** -6):
        ref = _full_lattice_values(side, n, s, lattice_bump)
        got = remainder(side, n, s, lattice_bump).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "side,s0", [("fraclap", 0.0), ("riesz", 0.0), ("shifted", 0.5), ("shifted", -0.25), ("shifted", 1.5)]
)
def test_half_lattice_study_matches_full_lattice(lattice_bump, side, s0):
    u = lattice_bump
    st = run_study(side, 1, u, s0=s0)
    region = _central_region(u)
    for s, sup, l2 in zip(st.s_samples, st.sup_norms, st.l2_norms):
        core = _full_lattice_values(side, 1, s0 + s if side == "shifted" else s, u, s0=s0)[region]
        ref_sup = np.max(np.abs(core))
        ref_l2 = np.sqrt(np.sum(core ** 2) * u.cell_volume)
        assert abs(sup - ref_sup) <= 1e-13 * ref_sup
        assert abs(l2 - ref_l2) <= 1e-13 * ref_l2


@pytest.mark.parametrize("side", ["fraclap", "riesz", "shifted"])
def test_study_inverts_on_the_half_lattice(lattice_bump, side, monkeypatch):
    u = lattice_bump
    widths = []
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda a, *r, **k: widths.append(a.shape) or irfftn(a, *r, **k))
    monkeypatch.setattr(np.fft, "ifftn", lambda *a, **k: pytest.fail("full-lattice inverse transform"))
    st = run_study(side, 1, u, s0=0.5 if side == "shifted" else 0.0)
    assert len(widths) == len(st.s_samples)
    assert all(w[:-1] == u.shape[:-1] and w[-1] == u.shape[-1] // 2 + 1 for w in widths)
