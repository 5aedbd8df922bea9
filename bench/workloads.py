"""Seeded inputs, jobs and oracles of the four benchmark workloads.

A workload is built in two steps.  ``setup`` writes the workload's input
files (grids and domains as JSON, in the schemas the CLI reads) into a
scratch directory and loads the ones that public-API jobs take as objects;
the program only ever sees these generated inputs.  ``jobs`` then lists the
work of one pass: each job makes one call into loglap, either through
``loglap.cli.main([...])`` in-process or through a public function, and
checks the output against an oracle that does not share the code path
under test.  A job fails if it raises, returns a nonzero exit code or fails
its oracle.

The seed moves evaluation points and geometric offsets only.  Problem sizes
are fixed per profile: ``full`` is what the benchmark measures, ``tiny`` is a
seconds-long variant used by the benchmark's own smoke tests.

Every module of loglap is reached through its module object (``cli.main``,
``pointwise.apply_L_batch``), never through a name imported into this file,
so that the traced run sees every call.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.fft
import scipy.special

from loglap import cli, expansion, grid, pointwise, spectral

WORKLOADS = ("galerkin-1d", "galerkin-2d", "pointwise-apply", "spectral-2d")

PROFILES = {
    "full": {
        # 2400 cells: above the 2000-cell dense limit, so eigensolve takes the
        # shift-invert branch; diameter 1.2 > 1 builds the convolution matrices
        "g1_cells": 2400,
        "g1_fk_cells_per_unit": 2000,
        # the CLI turns --cells into a target width diameter/round(sqrt(cells)):
        # 784 gives 20 x 20 = 400 square cells, 100 gives 88 disk cells
        "g2_square_cells": 784,
        "g2_disk_cells": 100,
        "g2_fk_cells_per_unit": 20,
        "pw_nodes": 4096,
        "pw_halfwidth": 20.0,
        "pw2d_nodes": 256,
        "pw2d_halfwidth": 4.0,
        "pw2d_points": 16,
        "sp_nodes": 512,
        "sp_halfwidth": 20.0,
    },
    "tiny": {
        "g1_cells": 240,
        "g1_fk_cells_per_unit": 200,
        "g2_square_cells": 64,
        "g2_disk_cells": 36,
        "g2_fk_cells_per_unit": 12,
        "pw_nodes": 1024,
        "pw_halfwidth": 10.0,
        "pw2d_nodes": 64,
        "pw2d_halfwidth": 4.0,
        "pw2d_points": 4,
        "sp_nodes": 128,
        "sp_halfwidth": 10.0,
    },
}

# 1D Galerkin entries are closed forms, so lambda_1 reproduces to round-off.
# 2D entries carry a known near-pair quadrature bias of about 5.4e-4 in
# lambda_1; 2e-3 admits an exact-assembly fix and still rejects a broken matrix.
LAMBDA_TOL = {1: 1e-8, 2: 2e-3}
FK_MIN_EXCESS = 0.01
QUAD_VS_FFT_TOL = 1e-3
SPECTRAL_TOL = 1e-10
DERIVATIVE_TOL = 1e-4
DERIVATIVE_STEP = 1e-3
SLOPE_WINDOW = 0.2
PW_BATCH = 8  # apply_L_batch points per call; about 13 MB of samples per point
PW_OPS = (("L", "--m", "1"), ("L", "--m", "2"), ("L", "--m", "3"),
          ("fraclap", "--s", "0.1"), ("riesz", "--s", "0.1"))

REFERENCE_FILE = Path(__file__).with_name("reference.json")


class OracleError(AssertionError):
    """A job's output disagrees with its oracle."""


@dataclass
class Job:
    """One call into loglap plus its oracle check.

    ``run`` returns evidence as a dict of named deviations (for example
    ``{"lambda1_rel_dev": 3e-13}``); it raises on any failure.
    """

    name: str
    run: Callable[[], dict]


@dataclass
class Workload:
    name: str
    seed: int
    profile: str
    workdir: Path
    sizes: dict
    threads: int
    inputs: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)
    io_bytes: int = 0  # bytes of the files CLI jobs read and wrote


# ---------------------------------------------------------------------------
# input files


def _write_json(path: Path, data) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _interval_domain(*pieces) -> dict:
    return {"dim": 1, "pieces": [{"type": "interval", "a": a, "b": b} for a, b in pieces]}


def _holder_constant(values: np.ndarray, h: float) -> float:
    """1.5 x the largest grid slope, including the drop to zero at the box edge."""
    worst = max(float(np.max(np.abs(np.diff(values, axis=ax)))) for ax in range(values.ndim))
    edge = max(float(np.max(np.abs(np.take(values, i, axis=ax))))
               for ax in range(values.ndim) for i in (0, -1))
    return 1.5 * max(worst, edge) / h


def _bump_grid(dim: int, nodes: int, halfwidth: float, width: float, center) -> dict:
    """Mean-zero odd bump (x1 - c1) exp(-|x - c|^2 / width^2) on the periodic box."""
    h = 2.0 * halfwidth / nodes
    axis = np.arange(nodes) * h - halfwidth
    if dim == 1:
        x = axis - center[0]
        values = x * np.exp(-(x ** 2) / width ** 2)
    else:
        x = axis[:, None] - center[0]
        y = axis[None, :] - center[1]
        values = x * np.exp(-(x ** 2 + y ** 2) / width ** 2)
    return {
        "dim": dim,
        "origin": [-halfwidth] * dim,
        "spacing": [h] * dim,
        "shape": [nodes] * dim,
        "holder": {"alpha": 1.0, "const": _holder_constant(values, h)},
        "values": values.reshape(-1).tolist(),
    }


def setup(name: str, seed: int, workdir: Path, threads: int, profile: str = "full") -> Workload:
    """Write the workload's seeded inputs into ``workdir`` and list its jobs.

    ``threads`` is the --threads value of the quadrature apply jobs.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng(seed)
    w = Workload(name, seed, profile, Path(workdir), PROFILES[profile], threads)
    w.workdir.mkdir(parents=True, exist_ok=True)
    {"galerkin-1d": _setup_galerkin_1d, "galerkin-2d": _setup_galerkin_2d,
     "pointwise-apply": _setup_pointwise, "spectral-2d": _setup_spectral}[name](w, rng)
    return w


def _setup_galerkin_1d(w: Workload, rng) -> None:
    c = float(rng.uniform(-0.2, 0.2))
    # fk domains must stay inside B_(rm/2) with rm = 0.5615 (m = 2, N = 1)
    f = float(rng.uniform(-0.05, 0.05))
    d = w.workdir
    eig = _write_json(d / "interval.json", _interval_domain((c - 0.6, c + 0.6)))
    ball = _write_json(d / "ball.json", _interval_domain((f - 0.1, f + 0.1)))
    split = _write_json(d / "split.json", _interval_domain((f - 0.2, f - 0.1), (f + 0.1, f + 0.2)))
    s = w.sizes
    w.jobs = [
        Job("eig-I-m1", lambda: _eig_job(w, "eig-I-m1", ["--form", "I", "--m", "1"], eig, s["g1_cells"], 1)),
        Job("fk-m2", lambda: _fk_job(w, "fk-1d-m2", [ball, split], s["g1_fk_cells_per_unit"], 1)),
        Job("coeffs", lambda: _coeffs_job(w, 1, 2)),
        Job("radii", lambda: _radii_job(w, 1)),
    ]


def _setup_galerkin_2d(w: Workload, rng) -> None:
    # Q and fk domains must stay inside B_(r0/2) = B_(1/2) for m = 2, N = 2.
    # The disks stay at the origin, the reference ball of the fk comparison:
    # off-centre disks can fail mesh_rectangles' own partition check (see
    # README.md, "Known defect"), so only the squares move with the seed.
    sq, fk = (rng.uniform(-0.1, 0.1, 2) for _ in range(2))
    side = math.sqrt(math.pi) * 0.15  # square with the area of the r = 0.15 disk
    d = w.workdir
    square = _write_json(d / "square.json", {"dim": 2, "pieces": [
        {"type": "rect", "x0": sq[0], "y0": sq[1], "x1": sq[0] + 0.5, "y1": sq[1] + 0.5}]})
    disk20 = _write_json(d / "disk.json", {"dim": 2, "pieces": [
        {"type": "disk", "cx": 0.0, "cy": 0.0, "r": 0.2}]})
    disk15 = _write_json(d / "fk_disk.json", {"dim": 2, "pieces": [
        {"type": "disk", "cx": 0.0, "cy": 0.0, "r": 0.15}]})
    square15 = _write_json(d / "fk_square.json", {"dim": 2, "pieces": [
        {"type": "rect", "x0": fk[0] - side / 2, "y0": fk[1] - side / 2,
         "x1": fk[0] + side / 2, "y1": fk[1] + side / 2}]})
    s = w.sizes
    w.jobs = [
        Job("eig-I-m2-square", lambda: _eig_job(w, "eig-I-m2-square", ["--form", "I", "--m", "2"], square, s["g2_square_cells"], 2)),
        Job("eig-Q-m2-disk", lambda: _eig_job(w, "eig-Q-m2-disk", ["--form", "Q", "--m", "2"], disk20, s["g2_disk_cells"], 2)),
        Job("fk-m2", lambda: _fk_job(w, "fk-2d-m2", [disk15, square15], s["g2_fk_cells_per_unit"], 2)),
    ]


def _setup_pointwise(w: Workload, rng) -> None:
    s = w.sizes
    c = float(rng.uniform(-0.5, 0.5))
    g1 = _write_json(w.workdir / "bump1d.json", _bump_grid(1, s["pw_nodes"], s["pw_halfwidth"], 0.25, [c]))
    g2 = _write_json(w.workdir / "bump2d.json", _bump_grid(2, s["pw2d_nodes"], s["pw2d_halfwidth"], 0.5, [0.0, 0.0]))
    u2 = grid.load_grid(g2)
    points = rng.uniform(-0.75, 0.75, size=(s["pw2d_points"], 2))
    w.inputs.update(grid1d=g1, u2=u2, points=points)
    fft_out = w.inputs["fft_out"] = {}
    jobs = []
    for op in PW_OPS:
        tag = op[0] + op[2]
        jobs.append(Job(f"apply-fft-{tag}", lambda op=op, tag=tag: _apply_fft_job(w, op, tag, fft_out)))
        jobs.append(Job(f"apply-quad-{tag}", lambda op=op, tag=tag: _apply_quad_job(w, op, tag, fft_out)))
    oracle2d = {}
    jobs.append(Job("symbol-2d-L2", lambda: _symbol_2d_job(w, oracle2d)))
    for start in range(0, len(points), PW_BATCH):
        jobs.append(Job(f"apply_L_batch-2d-{start}",
                        lambda start=start: _pointwise_2d_job(w, points[start:start + PW_BATCH], oracle2d)))
    w.jobs = jobs


def _setup_spectral(w: Workload, rng) -> None:
    s = w.sizes
    c = rng.uniform(-1.0, 1.0, 2)
    path = _write_json(w.workdir / "bump2d.json", _bump_grid(2, s["sp_nodes"], s["sp_halfwidth"], 0.25, c))
    u = grid.load_grid(path)
    w.inputs.update(grid2d=path, u=u)
    logs = {}
    jobs = [Job(f"run_study-{side}-n{n}", lambda side=side, n=n: _study_job(w, side, n))
            for side in ("fraclap", "riesz") for n in range(4)]
    jobs.append(Job("shifted_expansion_check-s0.5", lambda: _shifted_job(w)))
    jobs += [Job(f"apply_symbol-log-m{m}", lambda m=m: _symbol_job(w, m, logs)) for m in (1, 2, 3)]
    jobs += [Job(f"derivative_in_order-m{m}", lambda m=m: _derivative_job(w, m, logs)) for m in (1, 2)]
    jobs.append(Job("log_norm-m2", lambda: _log_norm_job(w, 2)))
    jobs.append(Job("cli-apply-fft-L1", lambda: _cli_fft_2d_job(w)))
    jobs += [Job(f"cli-expand-{side}", lambda side=side: _expand_job(w, side)) for side in ("fraclap", "riesz", "shifted")]
    w.jobs = jobs


# ---------------------------------------------------------------------------
# helpers shared by jobs


def run_cli(w: Workload, argv) -> None:
    """loglap.cli.main in-process; a nonzero exit is a failure.

    Every Path argument is a file the command reads or writes; their sizes
    after the call add up to the job's file I/O.
    """
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    w.io_bytes += sum(os.path.getsize(a) for a in argv if isinstance(a, Path) and a.exists())
    if code != 0:
        raise OracleError(f"loglap {' '.join(map(str, argv))} exited with {code}")


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _read_values(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return np.asarray(data["values"], dtype=float).reshape(data["shape"])


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _rel_sup(a: np.ndarray, b: np.ndarray, scale: float | None = None) -> float:
    scale = float(np.max(np.abs(b))) if scale is None else scale
    return float(np.max(np.abs(a - b))) / max(scale, 1e-300)


@functools.cache
def _references() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def reference(profile: str, key: str) -> float:
    return float(_references()[profile][key])


def _lambda_dev(w: Workload, key: str, value: float, dim: int) -> float:
    ref = reference(w.profile, key)
    dev = abs(value - ref) / abs(ref)
    _check(dev <= LAMBDA_TOL[dim], f"{key}: lambda_1 = {value!r} vs reference {ref!r} (rel {dev:.2e})")
    return dev


# ---------------------------------------------------------------------------
# Galerkin jobs


def _eig_job(w: Workload, key: str, form, domain: Path, cells: int, dim: int) -> dict:
    out = w.workdir / f"{key}.csv"
    run_cli(w, ["eig", *form, "--domain", domain, "--cells", cells, "--count", 3, "--out", out])
    lam = np.array([float(r[1]) for r in _read_csv(out)])
    _check(lam.size == 3 and bool(np.all(np.diff(lam) >= -1e-12 * abs(lam[-1]))), f"{key}: spectrum not ascending: {lam}")
    return {"lambda1_rel_dev": _lambda_dev(w, key, float(lam[0]), dim)}


def _fk_job(w: Workload, key: str, domains, cells_per_unit: int, dim: int) -> dict:
    """The ball is domain 0.  fk flags every single-piece domain as a ball,
    so the ball is found by its index, not by the flag."""
    out = w.workdir / f"{key}.csv"
    run_cli(w, ["fk", "--m", 2, "--domains", *domains, "--cells-per-unit", cells_per_unit, "--out", out])
    rows = _read_csv(out)
    lam = [float(r[3]) for r in rows]
    _check(len(lam) == len(domains), f"{key}: expected {len(domains)} rows, got {len(lam)}")
    _check(rows[0][4] == "1", f"{key}: the ball is not flagged as the reference minimum")
    for other in lam[1:]:
        _check(other >= (1.0 + FK_MIN_EXCESS) * lam[0], f"{key}: {other!r} does not exceed the ball's {lam[0]!r} by 1%")
    devs = [_lambda_dev(w, f"{key}-{i}", v, dim) for i, v in enumerate(lam)]
    return {"lambda1_rel_dev": max(devs)}


def _rho(dim: int) -> float:
    return 2.0 * math.log(2.0) + float(scipy.special.digamma(dim / 2.0)) - float(np.euler_gamma)


def _kappa1(s: float, dim: int) -> float:
    return 2.0 ** (-2.0 * s) * math.pi ** (-dim / 2.0) * scipy.special.gamma((dim - 2.0 * s) / 2.0) / scipy.special.gamma(1.0 + s)


def _coeffs_job(w: Workload, dim: int, order: int) -> dict:
    """Ledger of order 2 against closed forms and a finite difference of kappa2."""
    out = w.workdir / "coeffs.csv"
    run_cli(w, ["coeffs", "--dim", dim, "--order", order, "--out", out])
    got = {r[0]: float(r[1]) for r in _read_csv(out)}
    c_n = math.pi ** (-dim / 2.0) * math.gamma(dim / 2.0)
    rho = _rho(dim)
    h = 1e-4
    kappa2_dd = (_kappa1(h, dim) - 2.0 * _kappa1(0.0, dim) + _kappa1(-h, dim)) / (h * h * c_n)
    expect = {"rho": (rho, 1e-12), "c_N": (c_n, 1e-12), "alpha_2": (2.0 * c_n, 1e-12),
              "alpha_1": (2.0 * rho * c_n, 1e-12), "kappa1_taylor_1": (-rho * c_n, 1e-12),
              "alpha_0": (kappa2_dd, 1e-6)}
    for key, (value, tol) in expect.items():
        dev = abs(got[key] - value) / max(abs(value), 1.0)
        _check(dev <= tol, f"coeffs: {key} = {got[key]!r}, expected {value!r}")
    return {}


def _radii_job(w: Workload, dim: int) -> dict:
    """For m = 2 the combined kernel is linear in -2 ln t: r0 = rm = exp(rho/2)."""
    out = w.workdir / "radii.csv"
    run_cli(w, ["radii", "--dim", dim, "--m", 2, "--out", out])
    got = {r[0]: float(r[1]) for r in _read_csv(out)}
    r0 = math.exp(_rho(dim) / 2.0)
    for key in ("r0", "rm"):
        _check(abs(got[key] - r0) <= 1e-12, f"radii: {key} = {got[key]!r}, expected {r0!r}")
    return {}


# ---------------------------------------------------------------------------
# spectral oracle: the continuous symbol on the DFT lattice, via scipy.fft


def _lattice(shape, spacing):
    freqs = [2.0 * math.pi * scipy.fft.fftfreq(n, d=h) for n, h in zip(shape, spacing)]
    if len(freqs) == 1:
        return np.abs(freqs[0]), freqs
    return np.hypot(freqs[0][:, None], freqs[1][None, :]), freqs


def _symbol(kind: str, param: float, xi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(xi)
    pos = xi > 0.0
    if kind == "L":
        out[pos] = (2.0 * np.log(xi[pos])) ** int(param)
    elif kind == "fraclap":
        out[pos] = xi[pos] ** (2.0 * param)
    else:
        out[pos] = xi[pos] ** (-2.0 * param)
    return out


def symbol_oracle(values: np.ndarray, spacing, kind: str, param: float) -> np.ndarray:
    xi, _ = _lattice(values.shape, spacing)
    return scipy.fft.ifftn(_symbol(kind, param, xi) * scipy.fft.fftn(values)).real


# ---------------------------------------------------------------------------
# pointwise jobs


def _apply_fft_job(w: Workload, op, tag: str, fft_out: dict) -> dict:
    out = w.workdir / f"fft-{tag}.json"
    fft_out.pop(tag, None)
    run_cli(w, ["apply", "--op", op[0], op[1], op[2], "--method", "fft", "--grid", w.inputs["grid1d"], "--out", out])
    got = _read_values(out)
    with open(w.inputs["grid1d"], encoding="utf-8") as fh:
        data = json.load(fh)
    want = symbol_oracle(np.asarray(data["values"]), data["spacing"], op[0], float(op[2]))
    err = _rel_sup(got, want)
    _check(err <= SPECTRAL_TOL, f"apply fft {tag}: differs from the symbol oracle by {err:.2e}")
    fft_out[tag] = got
    return {}


def _apply_quad_job(w: Workload, op, tag: str, fft_out: dict, threads: int | None = None) -> dict:
    out = w.workdir / f"quad-{tag}.json"
    run_cli(w, ["--threads", threads or w.threads, "apply", "--op", op[0], op[1], op[2],
             "--method", "quad", "--grid", w.inputs["grid1d"], "--out", out])
    got = _read_values(out)
    _check(tag in fft_out, f"apply quad {tag}: no FFT result to compare with")
    n = got.size
    core = slice(n // 4, 3 * n // 4)
    err = _rel_sup(got[core], fft_out[tag][core])
    _check(err <= QUAD_VS_FFT_TOL, f"apply quad {tag}: differs from FFT by {err:.2e} on the central half")
    return {"oracle_rel_err": err}


def _trig_eval(values: np.ndarray, spacing, origin, mult: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolant of ifft(mult * fft(values)) at off-grid points."""
    _, freqs = _lattice(values.shape, spacing)
    coef = mult * scipy.fft.fftn(values) / values.size
    px = np.exp(1j * freqs[0][None, :] * (points[:, 0:1] - origin[0]))
    py = np.exp(1j * freqs[1][None, :] * (points[:, 1:2] - origin[1]))
    return np.einsum("pi,ij,pj->p", px, coef, py).real


def _symbol_2d_job(w: Workload, oracle: dict) -> dict:
    u2 = w.inputs["u2"]
    got = spectral.apply_symbol(u2, "log", 2).values
    want = symbol_oracle(u2.values, u2.spacing, "L", 2)
    err = _rel_sup(got, want)
    _check(err <= SPECTRAL_TOL, f"apply_symbol 2D: differs from the symbol oracle by {err:.2e}")
    xi, _ = _lattice(u2.shape, u2.spacing)
    oracle.update(scale=float(np.max(np.abs(want))), mult=_symbol("L", 2, xi))
    return {}


def _pointwise_2d_job(w: Workload, points: np.ndarray, oracle: dict) -> dict:
    u2 = w.inputs["u2"]
    got, _, _ = pointwise.apply_L_batch(2, u2, points)
    _check("mult" in oracle, "apply_L_batch 2D: no spectral oracle this pass")
    want = _trig_eval(u2.values, u2.spacing, u2.origin, oracle["mult"], points)
    err = _rel_sup(np.asarray(got), want, oracle["scale"])
    _check(err <= QUAD_VS_FFT_TOL, f"apply_L_batch 2D: differs from the spectral value by {err:.2e}")
    return {"oracle_rel_err": err}


# ---------------------------------------------------------------------------
# spectral and expansion jobs


def _slope_dev(label: str, slope: float, n: int) -> dict:
    dev = abs(slope - (n + 1))
    _check(dev <= SLOPE_WINDOW, f"{label}: fitted slope {slope!r} outside [{n + 0.8}, {n + 1.2}]")
    return {"slope_dev": dev}


def _study_job(w: Workload, side: str, n: int) -> dict:
    study = expansion.run_study(side, n, w.inputs["u"])
    return _slope_dev(f"run_study {side} n={n}", study.fitted_slope, n)


def _shifted_job(w: Workload) -> dict:
    study = expansion.shifted_expansion_check(w.inputs["u"], 0.5, 2)
    return _slope_dev("shifted_expansion_check", study.fitted_slope, 2)


def _symbol_job(w: Workload, m: int, logs: dict) -> dict:
    u = w.inputs["u"]
    logs.pop(m, None)
    got = spectral.apply_symbol(u, "log", m).values
    want = symbol_oracle(u.values, u.spacing, "L", m)
    err = _rel_sup(got, want)
    _check(err <= SPECTRAL_TOL, f"apply_symbol log m={m}: differs from the symbol oracle by {err:.2e}")
    logs[m] = want
    return {}


def _derivative_job(w: Workload, m: int, logs: dict) -> dict:
    """d^m/ds^m |xi|^(2s) at s = 0 is the log symbol (2 ln|xi|)^m."""
    got = spectral.derivative_in_order(w.inputs["u"], m, 0.0, DERIVATIVE_STEP).values
    _check(m in logs, f"derivative_in_order m={m}: no log-symbol result this pass")
    err = _rel_sup(got, logs[m])
    _check(err <= DERIVATIVE_TOL, f"derivative_in_order m={m}: differs from the log symbol by {err:.2e}")
    return {}


def _log_norm_job(w: Workload, m: int) -> dict:
    u = w.inputs["u"]
    got = spectral.log_norm(u, m)
    xi, _ = _lattice(u.shape, u.spacing)
    coef = scipy.fft.fftn(u.values) * u.cell_volume
    dxi = float(np.prod([2.0 * math.pi / p for p in u.periods]))
    want = math.sqrt(float(np.sum(np.log(math.e + xi) ** m * np.abs(coef) ** 2)) * dxi / (2.0 * math.pi) ** u.dim)
    err = abs(got - want) / want
    _check(err <= SPECTRAL_TOL, f"log_norm m={m}: {got!r} vs {want!r}")
    return {}


def _cli_fft_2d_job(w: Workload) -> dict:
    out = w.workdir / "fft2d-L1.json"
    run_cli(w, ["apply", "--op", "L", "--m", 1, "--method", "fft", "--grid", w.inputs["grid2d"], "--out", out])
    u = w.inputs["u"]
    err = _rel_sup(_read_values(out), symbol_oracle(u.values, u.spacing, "L", 1))
    _check(err <= SPECTRAL_TOL, f"cli apply fft 2D: differs from the symbol oracle by {err:.2e}")
    return {}


def _expand_job(w: Workload, side: str) -> dict:
    out = w.workdir / f"expand-{side}.csv"
    run_cli(w, ["expand", "--side", side, "--n", 2, "--s0", 0.5, "--out", out])
    rows = _read_csv(out)
    slope = next(float(r[1]) for r in rows if r[0] == "fitted_slope")
    return _slope_dev(f"expand {side}", slope, 2)


def serial_quad_job(w: Workload) -> dict:
    """The 1D quadrature ``apply --op L --m 2`` job on one thread.

    Run after a pass of ``pointwise-apply``, whose FFT job is its oracle.
    """
    return _apply_quad_job(w, PW_OPS[1], "L2", w.inputs["fft_out"], threads=1)
