"""m-order logarithmic Laplacians: coefficients, kernels, quadrature, spectra.

The package is organized around the operator family with Fourier symbol
(2 ln|xi|)^m, obtained as the m-th derivative in the order s of the
fractional Laplacian at s = 0:

    coeffs     kappa Taylor series and the alpha coefficient ledger
    kernels    kernel weight vectors, radial antiderivative, radii of h_m, cell-pair closed forms
    grid       sampled compactly supported functions with Holder metadata
    pointwise  batch singular quadrature for K_n, L_m, (-Delta)^s, Phi_s*
    spectral   FFT symbol application (the independent oracle) and log-norms
    expansion  Taylor-remainder studies of B^s in the order
    domains    interval/rectangle/disk geometry and meshes
    eigen      Galerkin forms I_m, G_m, Q_m, eigensolving, rearrangement
    cli        command-line front end and file formats
"""

from .coeffs import CoeffLedger, KappaSeries, alpha_coeffs, c_dim, kappa1, kappa_series, rho
from .domains import Disk, DomainSpec, Interval, Mesh, Rect, mesh_intervals, mesh_rectangles
from .eigen import EigenResult, FormMatrices, assemble, eigensolve, faber_krahn_compare, k_form_first_eig, rearrange_decreasing
from .errors import LoglapError, NumericalError, PreconditionError
from .expansion import RemainderStudy, remainder, run_study, shifted_expansion_check
from .grid import GridFunction, box_indicator, gaussian_bump, gaussian_derivative_bump, load_grid, save_grid
from .kernels import CombinedKernel, combined_kernel
from .pointwise import EvalReport, apply_K_batch, apply_L_batch, frac_lap_batch, regional_repr, riesz_batch, weighted_l1_norm
from .spectral import SpectrumGrid, apply_symbol, derivative_in_order, log_norm

__all__ = [
    "CoeffLedger", "KappaSeries", "alpha_coeffs", "c_dim", "kappa1", "kappa_series", "rho",
    "Disk", "DomainSpec", "Interval", "Mesh", "Rect", "mesh_intervals", "mesh_rectangles",
    "EigenResult", "FormMatrices", "assemble", "eigensolve", "faber_krahn_compare",
    "k_form_first_eig", "rearrange_decreasing",
    "LoglapError", "NumericalError", "PreconditionError",
    "RemainderStudy", "remainder", "run_study", "shifted_expansion_check",
    "GridFunction", "box_indicator", "gaussian_bump", "gaussian_derivative_bump", "load_grid", "save_grid",
    "CombinedKernel", "combined_kernel",
    "EvalReport", "apply_K_batch", "apply_L_batch", "frac_lap_batch", "regional_repr", "riesz_batch", "weighted_l1_norm",
    "SpectrumGrid", "apply_symbol", "derivative_in_order", "log_norm",
]
__version__ = "0.1.0"
