"""Special-function layer: closed forms vs independent oracles.

Oracles used here: mpmath evaluation of the kappa formulas, by Taylor
expansion and by Richardson finite differences, both independent of the
series-exponentiation path, and mpmath polygamma plus direct series
summation for the polygamma values inside the log series.
"""

import math

import mpmath as mp
import pytest

from loglap import PreconditionError
from loglap.coeffs import (
    EULER_GAMMA,
    _log_kappa2_coeffs,
    alpha_coeffs,
    c_dim,
    c_ns,
    kappa1,
    kappa2,
    kappa2_frac,
    kappa2_riesz,
    kappa_ns,
    kappa_series,
    omega,
    rho,
)

mp.mp.dps = 40


def _mp_kappa1(s, N):
    s = mp.mpf(s)
    return 2 ** (-2 * s) * mp.pi ** (-mp.mpf(N) / 2) * mp.gamma((N - 2 * s) / 2) / mp.gamma(1 + s)


def _mp_kappa2(s, N):
    return _mp_kappa1(s, N) / _mp_kappa1(0, N)


def _fd_derivative(f, order, h=mp.mpf("1e-3"), levels=2):
    """Central difference of given order with Richardson extrapolation."""

    def diff(step):
        total = mp.mpf(0)
        for i in range(order + 1):
            total += (-1) ** i * mp.binomial(order, i) * f((mp.mpf(order) / 2 - i) * step)
        return total / step ** order

    vals = [diff(h / 2 ** j) for j in range(levels + 1)]
    for lev in range(1, levels + 1):
        fac = mp.mpf(4) ** lev
        vals = [(fac * vals[j + 1] - vals[j]) / (fac - 1) for j in range(len(vals) - 1)]
    return vals[0]


# ---------------------------------------------------------------------------
# polygamma values the series is built from
#
# The Taylor coefficients of ln kappa2 are a_1 = -rho_N and, for k >= 1,
# a_(k+1) = ((-1)^(k+1) psi^(k)(N/2) - psi^(k)(1)) / (k+1)!, so every
# polygamma value the ledgers use is read back from rho and the log series.


def _mp_log_coeff(N, k):
    # a_(k+1) from mpmath's polygamma; the -2s ln2 term adds to a_1 only
    z = mp.mpf(N) / 2
    a = ((-1) ** (k + 1) * mp.polygamma(k, z) - mp.polygamma(k, 1)) / mp.factorial(k + 1)
    return a - 2 * mp.log(2) if k == 0 else a


def test_digamma_at_one_is_minus_gamma():
    # oracle: numeric differentiation of ln Gamma
    h = 1e-6
    fd = (math.lgamma(1 + h) - math.lgamma(1 - h)) / (2 * h)
    psi1 = rho(2) - 2 * math.log(2) + EULER_GAMMA
    assert psi1 == pytest.approx(-EULER_GAMMA, abs=1e-14)
    assert psi1 == pytest.approx(fd, abs=1e-9)


def test_trigamma_at_half_is_pi_squared_over_two():
    # oracle: psi'(1/2) = sum (n + 1/2)^-2; a_2 at N = 1 is (psi'(1/2) - pi^2/6) / 2
    series = sum((n + 0.5) ** -2 for n in range(200000))
    series += 1.0 / 200000.5  # integral tail
    trigamma = 2.0 * _log_kappa2_coeffs(1, 2)[2] + math.pi ** 2 / 6
    assert trigamma == pytest.approx(math.pi ** 2 / 2, rel=1e-14)
    assert trigamma == pytest.approx(series, rel=1e-10)


def test_recurrence_steps_to_three_halves():
    # psi(3/2) = psi(1/2) + 2 carries over to rho
    assert rho(3) == pytest.approx(rho(1) + 2.0, rel=1e-15)


@pytest.mark.parametrize("k", range(0, 13))
@pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 7, 8, 11])
def test_polygamma_matches_scipy(k, j):
    # psi^(k)(j/2) and psi^(k)(1), taken from scipy, against mpmath
    got = _log_kappa2_coeffs(j, k + 1)[k + 1]
    assert got == pytest.approx(float(_mp_log_coeff(j, k)), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("k", range(0, 13))
@pytest.mark.parametrize("j", range(1, 12))
def test_polygamma_recurrence_invariant(k, j):
    # Gamma(z + 1 - s) = (z - s) Gamma(z - s) gives kappa1(s, N + 2) =
    # kappa1(s, N) (z - s) / pi, so ln kappa2 gains ln(1 - s/z), z = N/2
    z = j / 2.0
    lhs = _log_kappa2_coeffs(j + 2, k + 1)[k + 1]
    rhs = _log_kappa2_coeffs(j, k + 1)[k + 1] - z ** (-k - 1) / (k + 1)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# kappa evaluation


def test_kappa1_special_values():
    assert kappa1(0.0, 1) == pytest.approx(1.0, rel=1e-15)
    assert kappa1(0.0, 2) == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_c_ns_quarter_matches_direct_gamma():
    # c_{1,1/4} = 0.25 sqrt(2/pi) via the direct formula and via kappa1(-s) s
    direct = 0.25 * math.sqrt(2.0 / math.pi)
    assert c_ns(0.25, 1) == pytest.approx(direct, rel=1e-14)
    assert kappa1(-0.25, 1) * 0.25 == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
def test_c_ns_identity_with_kappa1(N, s):
    direct = 2.0 ** (2 * s) * math.pi ** (-N / 2) * s * math.gamma((N + 2 * s) / 2) / math.gamma(1 - s)
    assert kappa1(-s, N) * s == pytest.approx(direct, rel=1e-12)
    assert c_ns(s, N) == pytest.approx(direct, rel=1e-12)


def test_kappa1_domain_enforced():
    with pytest.raises(PreconditionError):
        kappa1(0.5, 1)
    with pytest.raises(PreconditionError):
        kappa1(-0.6, 1)
    kappa1(0.9, 3)  # min(N/2, 1) = 1 for N = 3


def test_split_constants_extend_past_kappa_interval():
    # frac normalizations exist for all s in (0,1) even when kappa1 does not
    assert c_ns(0.75, 1) > 0.0
    assert kappa2_frac(0.75, 1) > 0.0
    with pytest.raises(PreconditionError):
        kappa_ns(0.6, 1)  # >= N/2
    with pytest.raises(PreconditionError):
        c_ns(1.0, 1)


def test_riesz_ball_mass_identity():
    # kappa_{N,s} * omega_N / (2s) = kappa2(s)
    for N in (1, 2):
        for s in (0.05, 0.2, 0.45 if N == 1 else 0.9):
            lhs = kappa_ns(s, N) * omega(N) / (2 * s)
            assert lhs == pytest.approx(kappa2_riesz(s, N), rel=1e-13)


# ---------------------------------------------------------------------------
# Taylor series


def test_kappa_series_low_order_values():
    ser = kappa_series(1, 4)
    assert ser.kappa2_coeffs[0] == pytest.approx(1.0, abs=0.0)
    assert ser.kappa1_deriv(1) == pytest.approx(2 * EULER_GAMMA, rel=1e-13)
    assert ser.kappa2_deriv(1) == pytest.approx(-rho(1), rel=1e-13)
    ser2 = kappa_series(2, 4)
    assert ser2.kappa2_deriv(1) == pytest.approx(-rho(2), rel=1e-13)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_kappa2_coeffs_are_normalized_kappa1(N):
    ser = kappa_series(N, 8)
    for j in range(9):
        assert ser.kappa2_coeffs[j] * ser.kappa1_coeffs[0] == pytest.approx(
            ser.kappa1_coeffs[j], rel=1e-14, abs=1e-300
        )


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("order", range(1, 7))
def test_series_derivatives_match_richardson_fd(N, order):
    ser = kappa_series(N, 6)
    fd1 = float(_fd_derivative(lambda s: _mp_kappa1(s, N), order))
    fd2 = float(_fd_derivative(lambda s: _mp_kappa2(s, N), order))
    assert ser.kappa1_deriv(order) == pytest.approx(fd1, rel=1e-6)
    assert ser.kappa2_deriv(order) == pytest.approx(fd2, rel=1e-6)


@pytest.mark.parametrize("N", range(1, 13))
def test_series_coefficients_match_mpmath_taylor(N):
    ser = kappa_series(N, 10)
    with mp.workdps(40):
        ref = mp.taylor(lambda s: _mp_kappa1(s, N), 0, 10)
        ref2 = [c / ref[0] for c in ref]
    for j in range(11):
        assert ser.kappa1_coeffs[j] == pytest.approx(float(ref[j]), rel=2e-13)
        assert ser.kappa2_coeffs[j] == pytest.approx(float(ref2[j]), rel=2e-13)


def test_series_order_cap():
    with pytest.raises(PreconditionError):
        kappa_series(1, 11)


# ---------------------------------------------------------------------------
# rho and the ledger


def test_rho_values():
    assert rho(1) == pytest.approx(-2 * EULER_GAMMA, rel=1e-14)
    assert rho(2) == pytest.approx(2 * math.log(2) - 2 * EULER_GAMMA, rel=1e-13)
    for N in (1, 2, 3, 5):
        assert rho(N) == pytest.approx(-kappa_series(N, 2).kappa2_deriv(1), rel=1e-13)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_first_order_ledger_is_rho_c(N):
    led = alpha_coeffs(1, N)
    assert led.alpha[0] == rho(N)
    assert led.alpha[1] == pytest.approx(c_dim(N), rel=1e-15)


def test_second_order_ledger_n1_closed_forms():
    led = alpha_coeffs(2, 1)
    assert led.alpha[2] == pytest.approx(2.0, rel=1e-14)
    assert led.alpha[1] == pytest.approx(-4 * EULER_GAMMA, rel=1e-13)
    assert led.alpha[0] == pytest.approx(math.pi ** 2 / 3 + 4 * EULER_GAMMA ** 2, rel=1e-13)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("m", range(1, 7))
def test_leading_weight_and_fd_ledger(N, m):
    led = alpha_coeffs(min(m, 8), N)
    assert led.alpha[m] == pytest.approx(m * c_dim(N), rel=1e-13)
    # full ledger from Richardson derivatives of the mp kappa functions
    a0 = (-1.0) ** m * float(_fd_derivative(lambda s: _mp_kappa2(s, N), m))
    assert led.alpha[0] == pytest.approx(a0, rel=1e-6, abs=1e-9)
    for j in range(1, m + 1):
        k1 = c_dim(N) if m == j else float(_fd_derivative(lambda s: _mp_kappa1(s, N), m - j))
        expect = m * (-1.0) ** (m + j) * math.comb(m - 1, j - 1) * k1
        assert led.alpha[j] == pytest.approx(expect, rel=1e-6, abs=1e-9)


def test_ledger_order_bounds():
    with pytest.raises(PreconditionError):
        alpha_coeffs(0, 1)
    with pytest.raises(PreconditionError):
        alpha_coeffs(9, 1)


def test_omega_values():
    assert omega(1) == pytest.approx(2.0, rel=1e-15)
    assert omega(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert omega(3) == pytest.approx(4 * math.pi, rel=1e-15)
