"""Fourier-multiplier application on the periodic grid.

The operators here act by pointwise multiplication on the discrete Fourier
lattice xi_k = 2 pi k / (box length):

    log kind   (2 ln|xi|)^m        m-order logarithmic Laplacian
    frac kind  |xi|^(2s)           fractional Laplacian / general order B^s
    riesz kind |xi|^(-2s)          Riesz convolution

using the continuous symbol at the lattice points.  Singular symbols (log,
riesz, frac with s < 0) get multiplier zero at xi = 0; callers must supply
mean-zero input or pass an explicit allow_mean flag, which isolates the
non-integrable symbol singularity rather than silently corrupting results.

This module is the independent oracle for the pointwise quadrature path and
the engine behind the order-expansion experiments; it also provides the
logarithmic Sobolev norm |||u|||_m with weight (ln(e + |xi|))^m.

Only this module knows the lattice layout.  ``transform`` makes one forward
FFT and keeps the real half lattice (shape[-1]//2 + 1 columns on the last
axis): the conjugate-symmetric part (F(k) + conj F(-k)) / 2, all a real
output uses, and the antisymmetric rounding (F(k) - conj F(-k)) / 2.  Every
real multiplier is inverted by ``SpectrumGrid.invert``; the Parseval norm of
the multiplied antisymmetric part is exactly the L2 norm of the imaginary
part a full-lattice inverse would carry, ``apply_symbol``'s residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .grid import GridFunction

_ZERO_MODE_TOL = 1e-8
_IMAG_RESIDUE_TOL = 1e-10
_BS_RANGE_HI = 2.0


@dataclass(frozen=True)
class SpectrumGrid:
    """Discrete Fourier data of a real grid function on the real half lattice."""

    dim: int
    shape: tuple[int, ...]
    frequencies: tuple[np.ndarray, ...]  # rfftfreq on the last axis
    coefficients: np.ndarray  # (F(k) + conj F(-k)) / 2, continuous-FT normalization
    asymmetry: np.ndarray  # (F(k) - conj F(-k)) / 2: forward-transform rounding
    cell_volume: float
    periods: tuple[float, ...]

    def xi_norm(self) -> np.ndarray:
        if self.dim == 1:
            return np.abs(self.frequencies[0])
        fx, fy = np.meshgrid(*self.frequencies, indexing="ij")
        return np.hypot(fx, fy)

    def invert(self, mult: np.ndarray) -> np.ndarray:
        """Grid values of the inverse transform of mult * coefficients (mult real, even)."""
        out = np.fft.irfftn(mult * self.coefficients, s=self.shape, axes=tuple(range(self.dim)))
        return out / self.cell_volume

    def norm(self, values: np.ndarray, weight=1.0) -> float:
        """Parseval norm (sum weight |X|^2 dxi / (2 pi)^N)^(1/2) of X with |X(-k)| = |X(k)|.

        Each half-lattice column other than 0 and Nyquist counts twice.
        """
        k = np.arange(self.shape[-1] // 2 + 1)
        twice = np.where((k == 0) | (2 * k == self.shape[-1]), 1.0, 2.0)
        total = np.sum(twice * weight * np.abs(values) ** 2) / float(np.prod(self.periods))
        return float(np.sqrt(total))


def transform(u: GridFunction) -> SpectrumGrid:
    """One forward FFT with continuous normalization, split on the real half lattice."""
    full = np.fft.fftn(u.values) * u.cell_volume
    cols = u.shape[-1] // 2 + 1
    half = full[..., :cols]
    mirror = np.conj(full[np.ix_(*[-np.arange(m) % n for m, n in zip(half.shape, u.shape)])])
    freqs = tuple(2.0 * math.pi * np.fft.fftfreq(n, d=h) for n, h in zip(u.shape[:-1], u.spacing[:-1]))
    freqs += (2.0 * math.pi * np.fft.rfftfreq(u.shape[-1], d=u.spacing[-1]),)
    return SpectrumGrid(
        dim=u.dim,
        shape=u.shape,
        frequencies=freqs,
        coefficients=0.5 * (half + mirror),
        asymmetry=0.5 * (half - mirror),
        cell_volume=u.cell_volume,
        periods=tuple(float(p) for p in u.periods),
    )


def _is_singular_kind(kind: str, param) -> bool:
    if kind == "log":
        return int(param) != 0
    if kind == "riesz":
        return True
    if kind == "frac":
        return float(param) < 0.0
    raise PreconditionError(f"unknown symbol kind {kind!r}")


def _check_support(u: GridFunction) -> None:
    # periodization control: the essential support (1e-3 of the sup) must fit
    # in half the box; operator outputs keep small nonlocal tails, so a
    # machine-precision reading would forbid legitimate compositions
    mask = np.abs(u.values) > 1e-3 * max(u.sup_norm(), 1e-300)
    if not np.any(mask):
        return
    idx = np.nonzero(mask)
    for ax in range(u.dim):
        width = (idx[ax].max() - idx[ax].min()) * u.spacing[ax]
        if width > 0.5 * u.periods[ax] + 1e-12:
            raise PreconditionError(
                "support exceeds half the box; enlarge the box to control aliasing"
            )


def _spectrum(u: GridFunction, allow_mean: bool) -> SpectrumGrid:
    """Support check, transform and (unless allow_mean) the zero-mode check."""
    _check_support(u)
    spec = transform(u)
    mean_mass = abs(spec.coefficients[(0,) * u.dim])
    if not allow_mean and mean_mass > _ZERO_MODE_TOL * max(u.l1_norm(), 1e-300):
        raise PreconditionError(
            "singular symbol on a non-mean-zero input; pass allow_mean=True to override"
        )
    return spec


def _multiplier(kind: str, param, xi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(xi)
    pos = xi > 0.0
    if kind == "log":
        m = int(param)
        out[pos] = (2.0 * np.log(xi[pos])) ** m
        if m == 0:
            out[~pos] = 1.0
    elif kind == "frac":
        s = float(param)
        out[pos] = xi[pos] ** (2.0 * s)
        if s == 0.0:
            out[~pos] = 1.0
    elif kind == "riesz":
        s = float(param)
        out[pos] = xi[pos] ** (-2.0 * s)
    else:
        raise PreconditionError(f"unknown symbol kind {kind!r}")
    return out


def apply_symbol(
    u: GridFunction,
    kind: str,
    param,
    allow_mean: bool = False,
    return_residue: bool = False,
):
    """Inverse transform of symbol * u-hat on the discrete frequency lattice.

    Returns the real output as a new GridFunction.  The imaginary residue,
    the Parseval norm of symbol * asymmetry relative to the grid L2 norm of
    the output, is available with return_residue=True and is asserted below
    1e-10.
    """
    if kind == "frac" and not -u.dim / 2.0 < float(param) <= _BS_RANGE_HI:
        raise PreconditionError(f"frac symbol restricted to s in (-N/2, {_BS_RANGE_HI}]")
    if kind == "riesz" and not 0.0 < float(param) < u.dim / 2.0:
        raise PreconditionError("riesz symbol restricted to s in (0, N/2)")
    spec = _spectrum(u, allow_mean or not _is_singular_kind(kind, param))
    mult = _multiplier(kind, param, spec.xi_norm())
    # the output's L2 norm, by Parseval
    residue = spec.norm(mult * spec.asymmetry) / max(spec.norm(mult * spec.coefficients), 1e-300)
    if residue > _IMAG_RESIDUE_TOL:
        raise PreconditionError(f"imaginary residue {residue:.2e} exceeds tolerance")
    result = u.with_values(spec.invert(mult))
    if return_residue:
        return result, residue
    return result


def log_norm(u: GridFunction, m: int) -> float:
    """Discrete |||u|||_m with spectral weight (ln(e + |xi|))^m.

    m = 0 reduces to the grid L2 norm by Parseval.
    """
    if m < 0:
        raise PreconditionError("norm order must be nonnegative")
    spec = transform(u)
    return spec.norm(spec.coefficients, np.log(math.e + spec.xi_norm()) ** m)


def _central_weights(m: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights of the central finite difference for d^m/ds^m."""
    K = (m + 1) // 2
    offsets = np.arange(-K, K + 1, dtype=float)
    p = offsets.size
    A = np.vander(offsets, p, increasing=True).T  # A[q, j] = offsets[j]^q
    rhs = np.zeros(p)
    rhs[m] = math.factorial(m)
    w = np.linalg.solve(A, rhs)
    return offsets, w / step ** m


def derivative_in_order(u: GridFunction, m: int, s0: float, step: float) -> GridFunction:
    """m-th central difference of s -> B^s u at s0, applied in frequency space."""
    if m < 1:
        raise PreconditionError("derivative order must be >= 1")
    if step <= 0.0:
        raise PreconditionError("step must be positive")
    offsets, w = _central_weights(m, step)
    s_lo = s0 + float(offsets[0]) * step
    s_hi = s0 + float(offsets[-1]) * step
    if s_lo <= -u.dim / 2.0 or s_hi > _BS_RANGE_HI:
        raise PreconditionError("difference stencil leaves the valid order range")
    spec = _spectrum(u, allow_mean=False)
    xi = spec.xi_norm()
    mult = np.zeros_like(xi)
    pos = xi > 0.0
    lam = xi[pos]
    for off, wj in zip(offsets, w):
        mult[pos] += wj * lam ** (2.0 * (s0 + off * step))
    return u.with_values(spec.invert(mult))
