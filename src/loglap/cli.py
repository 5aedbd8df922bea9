"""Command-line front end and structured file I/O.

Subcommands expose the library's experiments: coefficient tables, kernel
radii, operator application (quadrature or FFT), Dirichlet eigenvalues,
ball-minimality comparisons, and order-expansion studies.  Grids and domains
travel as JSON (schemas in grid.py / domains.py); an output grid is written
from its array buffer as compact JSON with shortest round-trip floats, and
input is read by grid.read_json (orjson, and the standard json module for
what orjson refuses), so NaN and Infinity tokens parse and then exit 3.
Tabular results are CSV with a header row and 17 significant digits.

Exit codes: 0 success, 2 usage, 3 precondition violation or I/O error,
4 numerical failure.  --threads splits the nodes of a 2D quadrature apply
over worker threads (default and cap: the CPUs this process may run on; a
value below 1 exits 2); a 1D apply is one lattice convolution and ignores it.
The threads run in parallel, since the 2D interpolant and the radial sums are
numpy array work that releases the GIL, and a node's value does not depend on
the thread it ran on, so the output is the same bytes for any thread count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import coeffs as _coeffs
from . import eigen as _eigen
from . import expansion as _expansion
from . import pointwise as _pointwise
from . import spectral as _spectral
from .domains import domain_from_dict, mesh_intervals, mesh_rectangles
from .errors import LoglapError, NumericalError, PreconditionError
from .grid import gaussian_derivative_bump, load_grid, read_json, save_grid
from .kernels import combined_kernel

_FMT = "%.17g"


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _positive_int(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return val


def _nonnegative_int(text: str) -> int:
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return val


def _write_csv(path, header, rows):
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="", encoding="utf-8")
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow([_FMT % float(v) if isinstance(v, (int, float, np.floating)) else v for v in row])
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# subcommands


def cmd_coeffs(args) -> int:
    led = _coeffs.alpha_coeffs(args.order, args.dim)
    ser = led.series
    rows = [("rho", led.rho), ("c_N", _coeffs.c_dim(args.dim))]
    rows += [(f"alpha_{j}", led.alpha[j]) for j in range(args.order + 1)]
    rows += [(f"kappa1_taylor_{j}", ser.kappa1_coeffs[j]) for j in range(len(ser.kappa1_coeffs))]
    rows += [(f"kappa2_taylor_{j}", ser.kappa2_coeffs[j]) for j in range(len(ser.kappa2_coeffs))]
    _write_csv(args.out, ["quantity", "value"], rows)
    return 0


def cmd_radii(args) -> int:
    ck = combined_kernel(_coeffs.alpha_coeffs(args.m, args.dim))
    _write_csv(args.out, ["quantity", "value"], [("r0", ck.r0), ("rm", ck.rm)])
    return 0


def _apply_quad(args, u):
    """Every node of u: one lattice convolution in 1D, one point batch per worker thread in 2D."""
    batch = {"K": _pointwise.apply_K_batch, "L": _pointwise.apply_L_batch,
             "fraclap": _pointwise.frac_lap_batch, "riesz": _pointwise.riesz_batch}[args.op]
    param = args.m if args.op in ("K", "L") else args.s
    if u.dim == 1:
        values, bound, _ = batch(param, u, None)
        return values, bound, "lattice"
    workers = min(args.threads or _cpu_count(), _cpu_count(), u.values.size)
    parts = np.array_split(u.nodes(), workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda xs: batch(param, u, xs), parts))
    return np.concatenate([r[0] for r in results]), max(r[1] for r in results), "pointwise"


def cmd_apply(args) -> int:
    if args.op in ("K", "L") and args.m is None:
        raise PreconditionError("operators K and L need --m")
    if args.op in ("fraclap", "riesz") and args.s is None:
        raise PreconditionError("fraclap and riesz need --s")
    u = load_grid(args.grid)
    if args.method == "fft":
        kind = {"L": "log", "fraclap": "frac", "riesz": "riesz"}.get(args.op)
        if kind is None:
            raise PreconditionError("the FFT method applies L, fraclap or riesz (K has no plain symbol)")
        param = args.m if args.op == "L" else args.s
        result = _spectral.apply_symbol(u, kind, param, allow_mean=args.allow_mean)
        sidecar = {"method": "fft", "truncation_bound": 0.0, "note": "lattice-symbol application"}
    else:
        vals, bound, path = _apply_quad(args, u)
        result = u.with_values(vals)
        sidecar = {"method": "quad", "truncation_bound": bound, "path": path, "nodes": int(vals.size)}
    save_grid(result, args.out)
    if args.sidecar:
        with open(args.sidecar, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh)
    return 0


def _domain_mesh(domain, cells):
    if domain.dim == 1:
        return mesh_intervals(domain, cells)
    return mesh_rectangles(domain, domain.diameter() / max(2, int(round(cells ** 0.5))))


def cmd_eig(args) -> int:
    domain = domain_from_dict(read_json(args.domain))
    mesh = _domain_mesh(domain, args.cells)
    ledger = _coeffs.alpha_coeffs(args.m, domain.dim)
    mats = _eigen.assemble(args.form, ledger, mesh)  # G takes its order from ledger.m
    res = _eigen.eigensolve(mats, args.count)
    rows = [(k + 1, v) for k, v in enumerate(res.eigenvalues)]
    _write_csv(args.out, ["k", "lambda_k"], rows)
    return 0


def cmd_fk(args) -> int:
    domains = [domain_from_dict(read_json(p)) for p in args.domains]
    ledger = _coeffs.alpha_coeffs(args.m, domains[0].dim)
    rows = _eigen.faber_krahn_compare(ledger, domains, args.cells_per_unit)
    _write_csv(
        args.out,
        ["domain", "is_ball", "measure", "lambda1", "reference_min"],
        [(args.domains[r.index], int(r.is_ball), r.measure, r.lambda1, int(r.reference_min)) for r in rows],
    )
    return 0


def cmd_expand(args) -> int:
    u = gaussian_derivative_bump(dim=1)
    study = _expansion.run_study(args.side, args.n, u, s0=args.s0 if args.side == "shifted" else 0.0)
    rows = [(s, a, b) for s, a, b in zip(study.s_samples, study.sup_norms, study.l2_norms)]
    rows.append(("fitted_slope", study.fitted_slope, ""))
    _write_csv(args.out, ["s", "sup_norm", "l2_norm"], rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="loglap", description="m-order logarithmic Laplacian toolkit")
    p.add_argument("--threads", type=_positive_int, default=None, help="worker threads of a 2D quadrature apply (default and cap: the process's CPUs)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("coeffs", help="coefficient ledger and kappa Taylor series")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--order", type=_positive_int, required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_coeffs)

    r = sub.add_parser("radii", help="positivity and monotonicity radii of the combined kernel")
    r.add_argument("--dim", type=int, required=True)
    r.add_argument("--m", type=_positive_int, required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_radii)

    a = sub.add_parser("apply", help="apply an operator to a grid file")
    a.add_argument("--op", choices=["K", "L", "fraclap", "riesz"], required=True)
    a.add_argument("--m", type=_positive_int, default=None)
    a.add_argument("--s", type=float, default=None)
    a.add_argument("--method", choices=["quad", "fft"], default="quad")
    a.add_argument("--grid", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--sidecar", default=None)
    a.add_argument("--allow-mean", action="store_true")
    a.set_defaults(func=cmd_apply)

    e = sub.add_parser("eig", help="Dirichlet eigenvalues of I_m, G_m or Q_m")
    e.add_argument("--form", choices=["I", "G", "Q"], required=True)
    e.add_argument("--m", type=_positive_int, required=True)
    e.add_argument("--domain", required=True)
    e.add_argument("--cells", type=_positive_int, required=True)
    e.add_argument("--count", type=_positive_int, required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eig)

    f = sub.add_parser("fk", help="equal-measure first-eigenvalue comparison (ball flagged)")
    f.add_argument("--m", type=_positive_int, required=True)
    f.add_argument("--domains", nargs="+", required=True)
    f.add_argument("--cells-per-unit", type=_positive_int, required=True)
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_fk)

    x = sub.add_parser("expand", help="order-expansion remainder study")
    x.add_argument("--side", choices=["fraclap", "riesz", "shifted"], required=True)
    x.add_argument("--n", type=_nonnegative_int, required=True)
    x.add_argument("--s0", type=float, default=0.5)
    x.add_argument("--out", default=None)
    x.set_defaults(func=cmd_expand)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except LoglapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
