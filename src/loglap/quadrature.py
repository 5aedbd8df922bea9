"""Panel Gauss-Legendre rules, the one place that puts Gauss nodes on panels.

panel_rule maps the unit rule onto panels, row by row over any leading
axes; angle_rule splits angular integrals at the directions of known kinks
(box corners, circle crossings, tent breakpoints).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def _gauss_unit(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]


def panel_rule(boundaries, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights over consecutive panels.

    Boundaries (..., K+1) give nodes and weights (..., K * order); every
    leading index is an independent row, computed as it would be alone.
    """
    b = np.asarray(boundaries, dtype=float)
    g, gw = _gauss_unit(order)
    lo = b[..., :-1, None]
    width = b[..., 1:, None] - lo
    shape = b.shape[:-1] + ((b.shape[-1] - 1) * order,)  # explicit, so zero rows work
    return (lo + width * g).reshape(shape), (width * gw).reshape(shape)


def angle_rule(dx, dy, order: int, ref=None) -> tuple[np.ndarray, np.ndarray]:
    """Angular Gauss nodes and weights split at the directions of kink offsets (dx, dy).

    dx, dy (..., K) are the kinks' offsets from the source point.  With
    ref=None the panels run between consecutive kink directions, taken in
    [0, 2 pi), around the full circle: K panels per row.  Otherwise they
    cover the wedge between the extreme kinks, K - 1 panels, with directions
    measured from the angle ref (...,); the wedge must lie within pi of ref.
    A single row (1D offsets) drops exact duplicate directions; in a batch
    they give zero-width panels, which carry zero weight.
    """
    ang = np.arctan2(dy, dx)
    if ref is None:
        ang = ang % (2.0 * math.pi)
    else:
        ref = np.asarray(ref, dtype=float)[..., None]
        ang = (ang - ref + math.pi) % (2.0 * math.pi) - math.pi
    ang = np.unique(ang) if ang.ndim == 1 else np.sort(ang, axis=-1)
    if ref is None:
        return panel_rule(np.concatenate([ang, ang[..., :1] + 2.0 * math.pi], axis=-1), order)
    phi, wts = panel_rule(ang, order)
    return ref + phi, wts


def dyadic_log_panels(tau_max: float, max_panels: int = 40) -> np.ndarray:
    """Panel boundaries 0, ln2, 2 ln2, ... covering [0, tau_max].

    In the radial variable t = e^(-tau) each panel is one dyadic decade
    [2^-(k+1), 2^-k], so geometric refinement toward the singularity.
    """
    ln2 = np.log(2.0)
    k = min(int(np.ceil(tau_max / ln2)), max_panels)
    b = ln2 * np.arange(k + 1)
    b[-1] = tau_max
    return b
