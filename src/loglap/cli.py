"""Command-line front end and structured file I/O.

Subcommands expose the library's experiments: coefficient tables, kernel
radii, operator application (quadrature or FFT), Dirichlet eigenvalues,
ball-minimality comparisons, and order-expansion studies.  Grids and domains
travel as JSON (schemas in grid.py / domains.py); tabular results are CSV
with a header row and 17 significant digits.

Exit codes: 0 success, 2 usage, 3 precondition violation, 4 numerical
failure.  Worker threads come from --threads or LOGLAP_THREADS.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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
from .grid import gaussian_derivative_bump, grid_from_dict, grid_to_dict
from .kernels import combined_kernel
from .quadrature import dyadic_log_panels

_FMT = "%.17g"


def _fmt(x) -> str:
    return _FMT % float(x)


def _positive_int(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return val


def _write_csv(path, header, rows):
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="", encoding="utf-8")
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, (int, float, np.floating)) else v for v in row])
    finally:
        if out is not sys.stdout:
            out.close()


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise PreconditionError(f"{path} is not a valid JSON file: {exc}") from exc


def _load_grid_file(path, seed):
    u = grid_from_dict(_read_json(path))
    u.validate_holder(seed=seed)
    return u


def _load_domain_file(path):
    return domain_from_dict(_read_json(path))


def _worker_count(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("LOGLAP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise PreconditionError(f"LOGLAP_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


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


_QUAD_CHUNK_BYTES = 64 * 2**20  # quadrature working set of one apply chunk


def _quad_point_bytes(dim: int) -> int:
    """Working set per point: a radial context peaks at about six float64 arrays over its nodes."""
    panels = dyadic_log_panels(-math.log(_pointwise.INNER_CUT), _pointwise.MAX_DECADES).size - 1 + _pointwise.OUTER_PANELS
    return 6 * 8 * (2 if dim == 1 else _pointwise.N_ANGLES) * panels * _pointwise.PANEL_ORDER


def _apply_quad(args, u, nodes):
    workers = _worker_count(args)
    count = nodes.shape[0]
    per_chunk = max(1, _QUAD_CHUNK_BYTES // _quad_point_bytes(u.dim))
    chunks = np.array_split(np.arange(count), max(1, min(count, max(workers, math.ceil(count / per_chunk)))))

    def run(idx):
        pts = nodes[idx]
        if args.op == "K":
            vals, bounds, _ = _pointwise.k_values_batch([args.m], u, pts)
            return vals[args.m], bounds[args.m]
        if args.op == "L":
            vals, bound, _ = _pointwise.apply_L_batch(args.m, u, pts)
            return vals, bound
        if args.op == "fraclap":
            vals, bound, _ = _pointwise.frac_lap_batch(args.s, u, pts)
            return vals, bound
        vals, bound, _ = _pointwise.riesz_batch(args.s, u, pts)
        return vals, bound

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run, chunks))
    values = np.concatenate([r[0] for r in results])
    bound = max(r[1] for r in results)
    return values, bound


def cmd_apply(args) -> int:
    if args.op in ("K", "L") and args.m is None:
        raise PreconditionError("operators K and L need --m")
    if args.op in ("fraclap", "riesz") and args.s is None:
        raise PreconditionError("fraclap and riesz need --s")
    u = _load_grid_file(args.grid, args.seed)
    if args.method == "fft":
        kind = {"L": "log", "fraclap": "frac", "riesz": "riesz"}.get(args.op)
        if kind is None:
            raise PreconditionError("the FFT method applies L, fraclap or riesz (K has no plain symbol)")
        param = args.m if args.op == "L" else args.s
        out = _spectral.apply_symbol(u, kind, param, allow_mean=args.allow_mean)
        sidecar = {"method": "fft", "truncation_bound": 0.0, "note": "lattice-symbol application"}
        values = out.values
    else:
        axes = u.axes()
        if u.dim == 1:
            nodes = axes[0][:, None]
        else:
            gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
            nodes = np.stack([gx.ravel(), gy.ravel()], axis=1)
        vals, bound = _apply_quad(args, u, nodes)
        values = vals.reshape(u.shape)
        sidecar = {"method": "quad", "truncation_bound": bound}
    result = u.with_values(values)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(grid_to_dict(result), fh)
    if args.sidecar:
        with open(args.sidecar, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh)
    return 0


def _domain_mesh(domain, cells):
    if domain.dim == 1:
        return mesh_intervals(domain, cells)
    return mesh_rectangles(domain, domain.diameter() / max(2, int(round(cells ** 0.5))))


def cmd_eig(args) -> int:
    domain = _load_domain_file(args.domain)
    mesh = _domain_mesh(domain, args.cells)
    ledger = _coeffs.alpha_coeffs(args.m, domain.dim)
    if args.form == "G":
        mats = _eigen.assemble("G", None, mesh, order=args.m)
    else:
        mats = _eigen.assemble(args.form, ledger, mesh)
    res = _eigen.eigensolve(mats, args.count)
    rows = [(k + 1, v) for k, v in enumerate(res.eigenvalues)]
    _write_csv(args.out, ["k", "lambda_k"], rows)
    return 0


def cmd_fk(args) -> int:
    domains = [_load_domain_file(p) for p in args.domains]
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
    if args.side == "shifted":
        study = _expansion.shifted_expansion_check(u, args.s0, args.n)
    else:
        study = _expansion.run_study(args.side, args.n, u)
    rows = [(s, a, b) for s, a, b in zip(study.s_samples, study.sup_norms, study.l2_norms)]
    rows.append(("fitted_slope", study.fitted_slope, ""))
    _write_csv(args.out, ["s", "sup_norm", "l2_norm"], rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="loglap", description="m-order logarithmic Laplacian toolkit")
    p.add_argument("--threads", type=int, default=None, help="worker threads (default: machine parallelism)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized validation sampling")
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
    x.add_argument("--n", type=int, required=True)
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
