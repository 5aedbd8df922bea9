"""Per-layer counters for the traced run and the metrics derived from them.

The layers are loglap's modules.  Self times come from spans (spans.py);
counts are recorded by hooks at the same boundaries.  Every metric is per
pass: totals over the traced passes divided by their number.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse.linalg

import spans

# name -> (unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = {
    "eigen.self_s": ("s", "lower"),
    "eigen.assemble_self_s": ("s", "lower"),
    "eigen.eigensolve_self_s": ("s", "lower"),
    "eigen.pair_integrals": ("count", "lower"),
    "eigen.pair_reuse_ratio": ("ratio", "higher"),
    "eigen.cells": ("count", "higher"),
    "eigen.shift_invert_solves": ("count", "lower"),
    "eigen.matrix_mb": ("MB", "lower"),
    "eigen.lambda1_rel_dev": ("rel", "lower"),
    "kernels.self_s": ("s", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.radial_evals": ("count", "lower"),
    "pointwise.self_s": ("s", "lower"),
    "pointwise.points": ("count", "higher"),
    "pointwise.s_per_point_1d": ("s/point", "lower"),
    "pointwise.s_per_point_2d": ("s/point", "lower"),
    "pointwise.serial_s": ("s", "lower"),
    "pointwise.oracle_rel_err": ("rel", "lower"),
    "grid.self_s": ("s", "lower"),
    "grid.eval_s": ("s", "lower"),
    "grid.eval_points": ("count", "lower"),
    "grid.validate_s": ("s", "lower"),
    "spectral.self_s": ("s", "lower"),
    "spectral.fft_calls": ("count", "lower"),
    "spectral.fft_points": ("count", "lower"),
    "expansion.self_s": ("s", "lower"),
    "expansion.studies": ("count", "higher"),
    "expansion.slope_dev": ("abs", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.io_bytes": ("B", "lower"),
    "domains.self_s": ("s", "lower"),
    "domains.mesh_s": ("s", "lower"),
    "domains.cells": ("count", "higher"),
    "coeffs.self_s": ("s", "lower"),
    "coeffs.calls": ("count", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

EVIDENCE = {"lambda1_rel_dev": "eigen.lambda1_rel_dev", "oracle_rel_err": "pointwise.oracle_rel_err",
            "slope_dev": "expansion.slope_dev"}


def _outermost(span) -> bool:
    return span.parent is None or span.parent.layer != span.layer


def install(tracer: spans.Tracer) -> None:
    """Wrap loglap for tracing, with the counting hooks the metrics need."""
    from loglap import eigen
    from loglap.grid import GridFunction

    def assemble_cells(span, args, kwargs):
        mesh = args[2] if len(args) > 2 else kwargs["mesh"]
        tracer.count("eigen.cells", mesh.n_cells)

    def mesh_cells(span, result):
        tracer.count("domains.cells", result.n_cells)

    def eval_points(span, args, kwargs):
        grid_fn = args[0]
        tracer.count("grid.eval_points", np.size(args[1]) // grid_fn.dim)

    def pointwise_points(span, args, kwargs):
        if _outermost(span) and len(args) > 2 and isinstance(args[1], GridFunction):
            span.attrs = (args[1].dim, np.atleast_2d(np.asarray(args[2], dtype=float)).shape[0])

    def radial_evals(span, args, kwargs):
        tracer.count("kernels.radial_evals", max((np.size(a) for a in args if isinstance(a, (np.ndarray, float, int))), default=0))

    def matrix(args, kwargs):
        n = args[1].n_cells
        tracer.count("eigen.pair_base", n * (n - 1) // 2)
        tracer.count("eigen.matrix_bytes", 8 * n * n)

    def pair_1d(args, kwargs):
        tracer.count("eigen.pair_integrals", np.broadcast(*args[1:5]).size)

    def fft(args, kwargs):
        tracer.count("spectral.fft_calls")
        tracer.count("spectral.fft_points", np.size(args[0]))

    hooks = {
        "eigen.assemble": (assemble_cells, None),
        "domains.mesh_intervals": (None, mesh_cells),
        "domains.mesh_rectangles": (None, mesh_cells),
        "grid.GridFunction.__call__": (eval_points, None),
        "pointwise": (pointwise_points, None),
        "kernels": (radial_evals, None),
    }
    counters = [
        (eigen, "_difference_matrix", matrix),
        (eigen, "_convolution_matrix", matrix),
        (eigen, "_inner_cell_integral_2d", lambda a, k: tracer.count("eigen.pair_integrals")),
        (eigen, "cell_pair_tent_integral", pair_1d),
        (scipy.sparse.linalg, "eigsh", lambda a, k: tracer.count("eigen.shift_invert_solves")),
        (sys.modules["numpy.fft"], "fftn", fft),
        (sys.modules["numpy.fft"], "ifftn", fft),
    ]
    tracer.install(hooks, counters)


def per_job(done: list, self_s: list, passes: int) -> dict:
    """Per job: wall and self time by layer (and by eigen entry point), per pass."""
    out: dict = {}
    for s, t in zip(done, self_s):
        job = s
        while job is not None and not (job.layer == "bench" and job.name != "bench.pass"):
            job = job.parent
        if job is None:
            continue
        row = out.setdefault(job.name[len("bench."):], defaultdict(float))
        if s is job:
            row["wall"] += (s.end - s.start) / passes
        key = s.name if s.name in ("eigen.assemble", "eigen.eigensolve") else s.layer
        row[key] += t / passes
    return out


def derive(done: list, self_s: list, counts, passes: int, traced_walls, untraced_wall: float,
           io_bytes: int, evidence: dict, serial_s: float) -> dict:
    """Per-pass layer metrics from the finished spans, their self times and the counts."""
    by_layer, by_name, inclusive = defaultdict(float), defaultdict(float), defaultdict(float)
    calls = Counter()
    per_point = {1: [0.0, 0], 2: [0.0, 0]}
    for s, t in zip(done, self_s):
        by_layer[s.layer] += t
        by_name[s.name] += t
        calls[s.layer] += 1
        calls[s.name] += 1
        if _outermost(s):
            inclusive[s.name] += s.end - s.start
        if s.attrs is not None:
            dim, points = s.attrs
            per_point[dim][0] += s.end - s.start
            per_point[dim][1] += points
    c = counts
    wall = math.fsum(traced_walls) / passes
    out = {f"{layer}.self_s": by_layer[layer] / passes for layer in spans.LAYERS}
    out.update({
        "eigen.assemble_self_s": by_name["eigen.assemble"] / passes,
        "eigen.eigensolve_self_s": by_name["eigen.eigensolve"] / passes,
        "eigen.pair_integrals": c["eigen.pair_integrals"] / passes,
        "eigen.pair_reuse_ratio": 1.0 - c["eigen.pair_integrals"] / c["eigen.pair_base"] if c["eigen.pair_base"] else 0.0,
        "eigen.cells": c["eigen.cells"] / passes,
        "eigen.shift_invert_solves": c["eigen.shift_invert_solves"] / passes,
        "eigen.matrix_mb": c["eigen.matrix_bytes"] / 1e6 / passes,
        "kernels.calls": calls["kernels"] / passes,
        "kernels.radial_evals": c["kernels.radial_evals"] / passes,
        "pointwise.points": (per_point[1][1] + per_point[2][1]) / passes,
        "pointwise.s_per_point_1d": per_point[1][0] / per_point[1][1] if per_point[1][1] else 0.0,
        "pointwise.s_per_point_2d": per_point[2][0] / per_point[2][1] if per_point[2][1] else 0.0,
        "pointwise.serial_s": serial_s,
        "grid.eval_s": by_name["grid.GridFunction.__call__"] / passes,
        "grid.eval_points": c["grid.eval_points"] / passes,
        "grid.validate_s": inclusive["grid.GridFunction.validate_holder"] / passes,
        "spectral.fft_calls": c["spectral.fft_calls"] / passes,
        "spectral.fft_points": c["spectral.fft_points"] / passes,
        "expansion.studies": calls["expansion.run_study"] / passes,
        "cli.io_bytes": io_bytes / passes,
        "domains.mesh_s": (inclusive["domains.mesh_intervals"] + inclusive["domains.mesh_rectangles"]) / passes,
        "domains.cells": c["domains.cells"] / passes,
        "coeffs.calls": calls["coeffs"] / passes,
        "bench.self_s": by_layer["bench"] / passes,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.spans": len(done) / passes,
    })
    for key, name in EVIDENCE.items():
        out[name] = evidence.get(key, 0.0)
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(set(out) ^ set(PER_LAYER))}")
    return out
