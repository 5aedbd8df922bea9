"""Order-expansion experiments: Taylor remainders of B^s in the order s.

Both operator families have lattice symbols that are entire in s through
L = 2 ln|xi|:

    fractional side:  |xi|^(2s)  = e^(sL)
    Riesz side:       |xi|^(-2s) = e^(-sL)

so the order-n remainder after subtracting the partial sum of log-Laplacian
terms is the exponential tail sum_{j>n} (±sL)^j / j!.  The tail is summed
directly (never as a difference of nearly equal numbers), which keeps the
remainder accurate far below the cancellation floor of the naive form and
makes the fitted slopes of log ||R_n(s)|| vs log s clean n+1 lines.

Shifted base points s0 use R = tail((s-s0) L, n) * |xi|^(2 s0), the symbol
form of expanding around B^(s0) u.

The ledger ties in through a separate consistency check: replacing the
exact-symbol partial sum by the quadrature evaluation of the ledger
operators must not move the remainder norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .grid import GridFunction
from .spectral import SpectrumGrid, _check_support, _check_zero_mode, transform

DEFAULT_S_SAMPLES = tuple(2.0 ** (-k) for k in range(4, 13))
_SATURATION_FLOOR = 10.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RemainderStudy:
    side: str  # 'fraclap', 'riesz' or 'shifted'
    n: int
    s0: float
    s_samples: tuple[float, ...]
    sup_norms: tuple[float, ...]
    l2_norms: tuple[float, ...]
    fitted_slope: float

    def __post_init__(self):
        s = np.asarray(self.s_samples)
        if s.size and not np.all(np.diff(s) < 0):
            raise PreconditionError("order samples must be strictly decreasing")
        if not all(np.isfinite(self.sup_norms)) or not all(np.isfinite(self.l2_norms)):
            raise PreconditionError("remainder norms must be finite")


def _exp_tail(x: np.ndarray, n: int) -> np.ndarray:
    """e^x - sum_{j<=n} x^j/j! as a directly summed tail for small |x|."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) <= 1.0
    xs = x[small]
    term = xs ** (n + 1) / math.factorial(n + 1)
    acc = term.copy()
    for j in range(n + 2, n + 40):
        term = term * xs / j
        acc += term
        if np.all(np.abs(term) <= 1e-20 * np.maximum(np.abs(acc), 1e-300)):
            break
    out[small] = acc
    xl = x[~small]
    if xl.size:
        partial = np.zeros_like(xl)
        for j in range(n + 1):
            partial += xl ** j / math.factorial(j)
        out[~small] = np.exp(xl) - partial
    return out


def _central_region(u: GridFunction) -> tuple[slice, ...]:
    return tuple(slice(n // 4, 3 * n // 4) for n in u.shape)


def _log_lattice(spec: SpectrumGrid) -> tuple[np.ndarray, np.ndarray]:
    """|xi| on the lattice and L = 2 ln|xi| (zero at xi = 0)."""
    xi = spec.xi_norm()
    L = np.zeros_like(xi)
    pos = xi > 0.0
    L[pos] = 2.0 * np.log(xi[pos])
    return xi, L


def _remainder_values(side: str, n: int, s: float, spec: SpectrumGrid, xi, L, s0: float = 0.0) -> np.ndarray:
    pos = xi > 0.0
    if side == "fraclap":
        mult = _exp_tail(s * L, n)
    elif side == "riesz":
        mult = _exp_tail(-s * L, n)
    elif side == "shifted":
        mult = _exp_tail((s - s0) * L, n)
        mult[pos] *= xi[pos] ** (2.0 * s0)
    else:
        raise PreconditionError(f"unknown expansion side {side!r}")
    mult[~pos] = 0.0
    out = np.fft.ifftn(mult * spec.coefficients) / spec.cell_volume
    return out.real


def remainder(side: str, n: int, s: float, u: GridFunction) -> GridFunction:
    """R_n(s) = B^(+/-s) u - sum_{j<=n} (+/-1)^j s^j/j! L_j u, all exact-symbol.

    The fraclap side uses B^s, the riesz side the convolution B^-s; signs are
    carried by the symbol tails.  Requires a mean-zero bump and 0 < s <= 1/4.
    """
    if side not in ("fraclap", "riesz"):
        raise PreconditionError("remainder sides are 'fraclap' and 'riesz'")
    if not 0.0 < s <= 0.25:
        raise PreconditionError("order parameter restricted to (0, 1/4]")
    if n > 4 or n < 0:
        raise PreconditionError("expansion order restricted to 0..4")
    _check_support(u)
    spec = transform(u)
    _check_zero_mode(u, spec, allow_mean=False)
    return u.with_values(_remainder_values(side, n, s, spec, *_log_lattice(spec)))


def _norms(vals: np.ndarray, u: GridFunction, region) -> tuple[float, float]:
    core = vals[region]
    sup = float(np.max(np.abs(core)))
    l2 = float(np.sqrt(np.sum(core ** 2) * u.cell_volume))
    return sup, l2


def run_study(
    side: str,
    n: int,
    u: GridFunction,
    s_samples=DEFAULT_S_SAMPLES,
    s0: float = 0.0,
) -> RemainderStudy:
    """Remainder norms over the central grid half and the fitted decay slope."""
    if side == "shifted":
        if not -u.dim / 2.0 + 0.25 <= s0 <= 2.0:
            raise PreconditionError("shifted base point outside (-N/2 + margin, 2]")
    _check_support(u)
    spec = transform(u)
    _check_zero_mode(u, spec, allow_mean=False)
    xi, L = _log_lattice(spec)
    region = _central_region(u)
    sups, l2s = [], []
    for s in s_samples:
        vals = _remainder_values(side, n, float(s) if side != "shifted" else s0 + float(s), spec, xi, L, s0=s0)
        a, b = _norms(vals, u, region)
        sups.append(a)
        l2s.append(b)
    slope = _fit_slope(np.asarray(s_samples, dtype=float), np.asarray(sups), u)
    return RemainderStudy(
        side=side,
        n=n,
        s0=s0,
        s_samples=tuple(float(s) for s in s_samples),
        sup_norms=tuple(sups),
        l2_norms=tuple(l2s),
        fitted_slope=slope,
    )


def _fit_slope(s: np.ndarray, norms: np.ndarray, u: GridFunction) -> float:
    if s.size < 5 or math.log10(s.max() / s.min()) < 2.0:
        raise PreconditionError("slope fits need >= 5 samples spanning >= 2 decades")
    floor = _SATURATION_FLOOR * max(u.sup_norm(), 1.0)
    if np.all(norms <= floor):
        raise NumericalError("remainder saturated at the precision floor; no slope")
    coeffs = np.polyfit(np.log(s), np.log(np.maximum(norms, 1e-300)), 1)
    return float(coeffs[0])


def slope_fit(study: RemainderStudy) -> float:
    """Least-squares slope of log sup-norm vs log s (n+1 for analytic remainders)."""
    return study.fitted_slope


def shifted_expansion_check(u: GridFunction, s0: float, n: int, s_samples=DEFAULT_S_SAMPLES) -> RemainderStudy:
    """Remainder study for the base-point expansion of B^s around s0."""
    return run_study("shifted", n, u, s_samples=s_samples, s0=s0)
