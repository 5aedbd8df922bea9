"""Order-expansion experiments: Taylor remainders of B^s in the order s.

Both operator families have lattice symbols that are entire in s through
L = 2 ln|xi|:

    fractional side:  |xi|^(2s)  = e^(sL)
    Riesz side:       |xi|^(-2s) = e^(-sL)

so the order-n remainder after subtracting the partial sum of log-Laplacian
terms is the exponential tail sum_{j>n} (±sL)^j / j!.  The tail is summed
directly (never as a difference of nearly equal numbers), which keeps the
remainder accurate far below the cancellation floor of the naive form and
makes the fitted slopes of log ||R_n(s)|| vs log s clean n+1 lines.  For
|x| <= 1 it is x^(n+1) sum_k x^k/(n+1+k)!, summed by Horner's rule with one
term count per sample; |x| > 1 falls back to e^x minus the partial sum.

Shifted base points s0 use R = tail((s-s0) L, n) * |xi|^(2 s0), the symbol
form of expanding around B^(s0) u; the factor |xi|^(2 s0) is formed once per
study.

A study transforms its input once and inverts each sample's real
multiplier with ``SpectrumGrid.invert``; the lattice layout stays in
``spectral``.

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
from .spectral import SpectrumGrid, _spectrum

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


def _tail_terms(a: float, n: int) -> int:
    """Terms of the tail series to keep for |x| <= a <= 1.

    Term k is x^(n+1+k)/(n+1+k)!; the first dropped one is at most 1e-20 of
    the first kept one, and at most 38 terms are summed.
    """
    ratio, k = 1.0, 0
    while k < 38 and ratio > 1e-20:
        k += 1
        ratio *= a / (n + 1 + k)
    return k


def _exp_tail(x: np.ndarray, n: int) -> np.ndarray:
    """e^x - sum_{j<=n} x^j/j! as a directly summed tail for small |x|.

    For |x| <= 1 the tail is x^(n+1) sum_k x^k/(n+1+k)!, the sum by Horner's
    rule with one term count for the whole array and the power by repeated
    multiplication (libm pow is slow on negative bases).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) <= 1.0
    xs = x[small]
    a = float(np.max(np.abs(xs), initial=0.0))
    coef = [1 / math.factorial(n + 1 + k) for k in range(_tail_terms(a, n))]
    acc = np.full_like(xs, coef[-1])
    for c in coef[-2::-1]:
        acc *= xs
        acc += c
    for _ in range(n + 1):
        acc *= xs
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


def _half_lattice(side: str, spec: SpectrumGrid, s0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """L = 2 ln|xi| and the real factor every sample's tail multiplies.

    The factor is |xi|^(2 s0) on the shifted side and 1 otherwise, formed
    once per study, and 0 at xi = 0, where every side's multiplier vanishes.
    """
    if side not in ("fraclap", "riesz", "shifted"):
        raise PreconditionError(f"unknown expansion side {side!r}")
    xi = spec.xi_norm()
    pos = xi > 0.0
    L = np.zeros_like(xi)
    L[pos] = 2.0 * np.log(xi[pos])
    factor = pos.astype(float)
    if side == "shifted":
        factor[pos] = xi[pos] ** (2.0 * s0)
    return L, factor


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
    spec = _spectrum(u, allow_mean=False)
    t = -s if side == "riesz" else s
    L, factor = _half_lattice(side, spec)
    return u.with_values(spec.invert(_exp_tail(t * L, n) * factor))


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
    if n < 0:
        raise PreconditionError("expansion order must be >= 0")
    if side == "shifted":
        if not -u.dim / 2.0 + 0.25 <= s0 <= 2.0:
            raise PreconditionError("shifted base point outside (-N/2 + margin, 2]")
    spec = _spectrum(u, allow_mean=False)
    L, factor = _half_lattice(side, spec, s0)
    region = _central_region(u)
    sups, l2s = [], []
    sign = -1.0 if side == "riesz" else 1.0
    for s in s_samples:
        vals = spec.invert(_exp_tail(sign * float(s) * L, n) * factor)
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


def shifted_expansion_check(u: GridFunction, s0: float, n: int, s_samples=DEFAULT_S_SAMPLES) -> RemainderStudy:
    """Remainder study for the base-point expansion of B^s around s0."""
    return run_study("shifted", n, u, s_samples=s_samples, s0=s0)
