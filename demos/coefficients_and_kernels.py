"""Walk through the coefficient layer: kappa series, ledgers, kernel radii.

The order-m operator is a weighted sum of zero-order kernel operators,
L_m = sum_j alpha_j K_j, and everything about the weights follows from the
Taylor series of two ratios of Gamma functions at s = 0.
"""

import math

from loglap import alpha_coeffs, combined_kernel, kappa_series
from loglap.coeffs import EULER_GAMMA, c_dim, omega, rho
from loglap.kernels import order_weights, radial_antiderivative

print("== kappa Taylor series at s = 0 ==")
for N in (1, 2):
    ser = kappa_series(N, 4)
    print(f"N={N}: kappa1 coeffs {[f'{c:+.6f}' for c in ser.kappa1_coeffs]}")
    print(f"     kappa2 coeffs {[f'{c:+.6f}' for c in ser.kappa2_coeffs]}")
print(f"check: kappa1'(0) in 1D = 2*gamma = {2 * EULER_GAMMA:.10f}")

print("\n== coefficient ledgers ==")
for N in (1, 2):
    for m in (1, 2, 3):
        led = alpha_coeffs(m, N)
        print(f"N={N} m={m}: alpha = {[f'{a:+.6f}' for a in led.alpha]}")
print(f"first order is always (rho_N, c_N): rho_1={rho(1):.6f}, c_1={c_dim(1):.6f}")

print("\n== combined kernel and its radii ==")
for N in (1, 2):
    for m in (1, 2, 3):
        ck = combined_kernel(alpha_coeffs(m, N))
        print(f"N={N} m={m}: positivity radius r0={ck.r0:.10f}, monotone radius rm={ck.rm:.10f}")
print(f"the m=2, N=1 radius is exp(-gamma) = {math.exp(-EULER_GAMMA):.10f}")

print("\n== radial kernel integrals ==")
# a kernel is its weight vector w: q(t) = t^(-N) sum_k w_k (-2 ln t)^k
w = order_weights(2)
tau = -2.0 * math.log(0.5)
print(f"q_2(1/2) in 1D = {sum(wk * tau**k for k, wk in enumerate(w)) / 0.5:.6f}")
mass = omega(1) * (radial_antiderivative(w, 1.0) - radial_antiderivative(w, math.exp(-1)))
print(f"shell mass int_(1/e<|z|<1) q_2 dz = {mass:.6f} (= omega_1 * 2^2/4 = 2)")
