"""The domain-split form of K_m and its geometric correction h_{m,Omega}.

Splitting the defining integral at a domain boundary leaves a multiple of
u(x) whose weight depends only on the geometry of Omega around x; for a
centered ball of radius r < 1 it is the closed shell integral
omega_N (-2 ln r)^m / (2m).  The split and the direct evaluation agree
within the analytic truncation budgets.
"""

import math

import numpy as np

from loglap import DomainSpec, Interval, apply_K_batch, gaussian_bump, regional_repr
from loglap.coeffs import omega
from loglap.domains import Disk
from loglap.pointwise import h_regional, weighted_l1_norm

print("== h_{m,Omega} for centered balls ==")
for m in (1, 2, 3):
    for r in (0.3, 0.7):
        dom = DomainSpec(1, (Interval(-r, r),))
        got = h_regional(m, [0.0], dom)
        expect = omega(1) * (-2.0 * math.log(r)) ** m / (2.0 * m)
        print(f"m={m} r={r}: {got:.10f} (closed form {expect:.10f})")
dom2 = DomainSpec(2, (Disk(0.0, 0.0, 0.4),))
print(f"2D disk, m=2: {h_regional(2, [0.0, 0.0], dom2):.10f} "
      f"(closed form {omega(2) * (2 * math.log(1 / 0.4)) ** 2 / 4:.10f})")

print("\n== split form vs direct evaluation ==")
u = gaussian_bump(dim=1, halfwidth=2.0, nodes=1024, width=0.5)
dom = DomainSpec(1, (Interval(-1.5, 0.3), Interval(0.5, 1.8)))
for m in (1, 2):
    for x0 in (-0.4, 1.0):
        ra = regional_repr(m, u, [x0], dom)
        values, bound, _ = apply_K_batch(m, u, [x0])
        print(f"m={m} x={x0:+.1f}: split {ra.value:+.8f}, direct {values[0]:+.8f}, "
              f"gap {abs(ra.value - values[0]):.1e} <= budget {ra.truncation_bound + bound:.1e}")

print("\n== weighted integrability norm ==")
n, h = 4097, 1.0 / 4096
from loglap.grid import GridFunction

box = GridFunction(1, (0.0,), (h,), (n,), np.ones(n), 1.0, 0.0)
print(f"||1_[0,1]||_(L1_(0,1)) = {weighted_l1_norm(box, 0.0, 1.0):.8f} (ln 2 = {math.log(2):.8f})")
