"""Special-function layer and coefficient ledgers.

Everything downstream is driven by two analytic families in the order
variable s,

    kappa1(s) = 2^(-2s) pi^(-N/2) Gamma((N-2s)/2) / Gamma(1+s),
    kappa2(s) = kappa1(s) / kappa1(0),

and by their Taylor coefficients at s = 0.  The weights of the m-order
logarithmic Laplacian as a combination of the zero-order kernel operators
K_0..K_m are

    alpha_0 = (-1)^m kappa2^(m)(0),
    alpha_j = m (-1)^(m+j) C(m-1, j-1) kappa1^(m-j)(0),   j = 1..m,

so that alpha_m = m*kappa1(0) > 0 always dominates.  The Taylor series are
obtained by exponentiating the series of

    ln kappa2(s) = -2s ln2 + ln Gamma((N-2s)/2) - ln Gamma(N/2) - ln Gamma(1+s),

whose derivatives at 0 reduce to polygamma values at N/2 and 1, taken from
scipy.special (digamma and polygamma, accurate to a few ulp there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import digamma, polygamma

from .errors import PreconditionError

EULER_GAMMA = 0.5772156649015329

_MAX_SERIES_ORDER = 10
_MAX_LEDGER_ORDER = 8


def omega(N: int) -> float:
    """Surface measure of the unit sphere in R^N: 2 pi^(N/2) / Gamma(N/2)."""
    if N < 1:
        raise PreconditionError("dimension must be >= 1")
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def c_dim(N: int) -> float:
    """kappa1(0) = pi^(-N/2) Gamma(N/2), the constant multiplying K_1 at order 1."""
    if N < 1:
        raise PreconditionError("dimension must be >= 1")
    return math.pi ** (-N / 2.0) * math.gamma(N / 2.0)


def rho(N: int) -> float:
    """2 ln2 + psi(N/2) - gamma, the zero-order weight of the first-order operator."""
    return 2.0 * math.log(2.0) + float(digamma(N / 2.0)) - EULER_GAMMA


def _check_s_domain(s: float, N: int) -> None:
    bound = min(N / 2.0, 1.0)
    if not -bound < s < bound:
        raise PreconditionError(
            f"s={s} outside the smoothness interval (-{bound}, {bound}) for N={N}"
        )


def _kappa1_raw(s: float, N: int) -> float:
    # Gamma formula without the smoothness-interval guard; poles at s = N/2
    # and s = -1, -2, ... are the caller's responsibility
    return (
        2.0 ** (-2.0 * s)
        * math.pi ** (-N / 2.0)
        * math.gamma((N - 2.0 * s) / 2.0)
        / math.gamma(1.0 + s)
    )


def kappa1(s: float, N: int) -> float:
    """2^(-2s) pi^(-N/2) Gamma((N-2s)/2) / Gamma(1+s) for |s| < min(N/2, 1)."""
    if N < 1:
        raise PreconditionError("dimension must be >= 1")
    _check_s_domain(s, N)
    return _kappa1_raw(s, N)


def kappa2(s: float, N: int) -> float:
    """kappa2(s) = kappa1(s)/kappa1(0); equals one at s = 0."""
    return kappa1(s, N) / c_dim(N)


def kappa_ns(s: float, N: int) -> float:
    """Riesz normalization kappa_{N,s} = kappa1(s) * s for 0 < s < N/2."""
    if not 0.0 < s < N / 2.0:
        raise PreconditionError(f"Riesz order must lie in (0, N/2), got s={s}")
    return _kappa1_raw(s, N) * s


def kappa2_riesz(s: float, N: int) -> float:
    """kappa2(s) = kappa_{N,s} omega_N / (2s), the unit-ball Riesz mass, 0 < s < N/2."""
    if not 0.0 < s < N / 2.0:
        raise PreconditionError(f"Riesz order must lie in (0, N/2), got s={s}")
    return _kappa1_raw(s, N) / c_dim(N)


def c_ns(s: float, N: int) -> float:
    """Fractional-Laplacian normalization c_{N,s} = kappa1(-s) * s for 0 < s < 1."""
    if not 0.0 < s < 1.0:
        raise PreconditionError(f"fractional order must lie in (0, 1), got s={s}")
    return _kappa1_raw(-s, N) * s


def kappa2_frac(s: float, N: int) -> float:
    """kappa2(-s) = c_{N,s} omega_N / (2s), the outer-shell fractional mass, 0 < s < 1."""
    if not 0.0 < s < 1.0:
        raise PreconditionError(f"fractional order must lie in (0, 1), got s={s}")
    return _kappa1_raw(-s, N) / c_dim(N)


@dataclass(frozen=True)
class KappaSeries:
    """Taylor coefficients kappa_i^(j)(0)/j! of kappa1 and kappa2 at s = 0."""

    dim: int
    order: int
    kappa1_coeffs: tuple[float, ...]
    kappa2_coeffs: tuple[float, ...]

    def kappa1_deriv(self, j: int) -> float:
        """kappa1^(j)(0) (derivative, not the scaled coefficient)."""
        return self.kappa1_coeffs[j] * math.factorial(j)

    def kappa2_deriv(self, j: int) -> float:
        return self.kappa2_coeffs[j] * math.factorial(j)


def _log_kappa2_coeffs(N: int, M: int) -> list[float]:
    # a_k = (d^k/ds^k ln kappa2)(0) / k!; a_1 = -rho_N,
    # a_k = ((-1)^k psi^(k-1)(N/2) - psi^(k-1)(1)) / k! for k >= 2
    a = [0.0] * (M + 1)
    if M >= 1:
        a[1] = -rho(N)
    for k in range(2, M + 1):
        a[k] = float((-1.0) ** k * polygamma(k - 1, N / 2.0) - polygamma(k - 1, 1.0)) / math.factorial(k)
    return a


def _exp_series(a: list[float]) -> list[float]:
    # b = exp(a) as power series with a[0] = 0: k b_k = sum_{i=1..k} i a_i b_{k-i}
    M = len(a) - 1
    b = [1.0] + [0.0] * M
    for k in range(1, M + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += i * a[i] * b[k - i]
        b[k] = acc / k
    return b


def kappa_series(N: int, M: int) -> KappaSeries:
    """Taylor series of kappa1 and kappa2 at s = 0 up to order M <= 10."""
    if N < 1:
        raise PreconditionError("dimension must be >= 1")
    if not 0 <= M <= _MAX_SERIES_ORDER:
        raise PreconditionError(f"series order must be in [0, {_MAX_SERIES_ORDER}], got {M}")
    b = _exp_series(_log_kappa2_coeffs(N, M))
    c0 = c_dim(N)
    return KappaSeries(
        dim=N,
        order=M,
        kappa1_coeffs=tuple(c0 * bk for bk in b),
        kappa2_coeffs=tuple(b),
    )


@dataclass(frozen=True)
class CoeffLedger:
    """Weights alpha_0..alpha_m expressing the m-order operator over K_0..K_m."""

    dim: int
    m: int
    alpha: tuple[float, ...]
    rho: float
    series: KappaSeries = field(repr=False)

    def __post_init__(self):
        if len(self.alpha) != self.m + 1:
            raise ValueError("ledger must hold exactly m+1 weights")


def alpha_coeffs(m: int, N: int) -> CoeffLedger:
    """Coefficient ledger of the m-order logarithmic Laplacian, m <= 8.

    alpha_0 = (-1)^m kappa2^(m)(0) and
    alpha_j = m (-1)^(m+j) C(m-1, j-1) kappa1^(m-j)(0) for j = 1..m.
    For m = 1 this reduces to (rho_N, c_N).
    """
    if not isinstance(m, int) or m < 1 or m > _MAX_LEDGER_ORDER:
        raise PreconditionError(f"ledger order must be an integer in [1, {_MAX_LEDGER_ORDER}], got {m}")
    ser = kappa_series(N, max(m, 1))
    alpha = [0.0] * (m + 1)
    alpha[0] = (-1.0) ** m * ser.kappa2_deriv(m)
    for j in range(1, m + 1):
        alpha[j] = m * (-1.0) ** (m + j) * math.comb(m - 1, j - 1) * ser.kappa1_deriv(m - j)
    return CoeffLedger(dim=N, m=m, alpha=tuple(alpha), rho=rho(N), series=ser)
