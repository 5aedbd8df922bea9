"""Command-line front end: outputs, file round trips, exit codes."""

import collections
import csv
import json
import math
import random
import re

import numpy as np
import orjson
import pytest

from loglap.cli import main
from loglap.coeffs import EULER_GAMMA
from loglap.domains import Disk, DomainSpec, Interval, domain_to_dict
from loglap.grid import (
    GridFunction, estimate_holder_constant, gaussian_derivative_bump, grid_from_dict, grid_to_dict, read_json, save_grid,
)
from loglap.pointwise import apply_L_batch
from loglap.spectral import apply_symbol


@pytest.fixture()
def bump_file(tmp_path):
    u = gaussian_derivative_bump(dim=1, nodes=512, halfwidth=10.0)
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(grid_to_dict(u)))
    return path


@pytest.fixture()
def quarter_file(tmp_path):
    d = DomainSpec(1, (Interval(-0.25, 0.25),))
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(domain_to_dict(d)))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_coeffs_first_order_values(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--dim", "1", "--order", "1", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    table = {r[0]: float(r[1]) for r in rows}
    assert table["alpha_0"] == pytest.approx(-2 * EULER_GAMMA, rel=1e-12)
    assert table["alpha_1"] == pytest.approx(1.0, rel=1e-12)
    assert table["rho"] == pytest.approx(-2 * EULER_GAMMA, rel=1e-12)


def test_coeffs_dim_two(tmp_path):
    out = tmp_path / "c2.csv"
    assert main(["coeffs", "--dim", "2", "--order", "1", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    table = {r[0]: float(r[1]) for r in rows}
    assert table["alpha_1"] == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_coeffs_order_zero_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--dim", "1", "--order", "0"])
    assert exc.value.code == 2


def test_radii_second_order(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["radii", "--dim", "1", "--m", "2", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    table = {r[0]: float(r[1]) for r in rows}
    assert table["r0"] == pytest.approx(0.5614594836, rel=1e-9)
    assert table["rm"] == pytest.approx(0.5614594836, rel=1e-9)


def test_grid_round_trip_bit_exact(bump_file, tmp_path):
    data = json.loads(bump_file.read_text())
    u = grid_from_dict(data)
    back = grid_to_dict(u)
    assert back["values"] == data["values"]


def test_apply_zero_grid(tmp_path):
    n, h = 128, 0.05
    zero = {
        "dim": 1,
        "origin": [-3.2],
        "spacing": [h],
        "shape": [n],
        "holder": {"alpha": 1.0, "const": 0.0},
        "values": [0.0] * n,
    }
    src = tmp_path / "zero.json"
    src.write_text(json.dumps(zero))
    out = tmp_path / "out.json"
    assert main(["apply", "--op", "L", "--m", "1", "--method", "quad",
                 "--grid", str(src), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert all(v == 0.0 for v in result["values"])


def test_apply_output_is_the_json_text_of_the_result(bump_file, tmp_path):
    out = tmp_path / "L1.json"
    assert main(["apply", "--op", "L", "--m", "1", "--method", "fft",
                 "--grid", str(bump_file), "--out", str(out)]) == 0
    u = grid_from_dict(json.loads(bump_file.read_text()))
    result = u.with_values(apply_symbol(u, "log", 1).values)
    want = tmp_path / "want.json"
    save_grid(result, want)
    assert out.read_bytes() == want.read_bytes()
    got = np.array(json.loads(out.read_bytes())["values"])
    assert np.array_equal(got.view(np.uint64), result.values.view(np.uint64))


def test_apply_quad_vs_fft_agree(bump_file, tmp_path):
    outs = {}
    for method in ("quad", "fft"):
        out = tmp_path / f"L_{method}.json"
        code = main(["apply", "--op", "L", "--m", "1", "--method", method,
                     "--grid", str(bump_file), "--out", str(out),
                     "--sidecar", str(tmp_path / f"{method}.side.json")])
        assert code == 0
        outs[method] = np.array(json.loads(out.read_text())["values"])
    n = outs["quad"].size
    core = slice(n // 4, 3 * n // 4)
    diff = np.max(np.abs(outs["quad"][core] - outs["fft"][core]))
    assert diff <= 1e-3 * np.max(np.abs(outs["fft"]))
    side = json.loads((tmp_path / "quad.side.json").read_text())
    assert side["path"] == "lattice" and side["nodes"] == n
    u = grid_from_dict(json.loads(bump_file.read_text()))
    assert side["truncation_bound"] == apply_L_batch(1, u, u.axes()[0][:3, None])[1] > 0.0


def test_apply_quad_2d_runs_one_batch_per_thread_in_ray_blocks(tmp_path, monkeypatch):
    # a 2D grid goes to pointwise in one batch per thread, which the radial
    # pass runs in blocks of whole points' rays; a 1D grid is one lattice convolution
    from loglap import pointwise

    x = np.linspace(-1.0, 1.0, 5)
    vals = ((1.0 - x[:, None] ** 2) * (1.0 - x[None, :] ** 2)) ** 2  # zero on the box faces
    h = (x[1] - x[0],) * 2
    u = GridFunction(2, (-1.0, -1.0), h, vals.shape, vals, 1.0, estimate_holder_constant(vals, h, 1.0))
    src = tmp_path / "bump2d.json"
    src.write_text(json.dumps(grid_to_dict(u)))
    sizes = []
    batch = pointwise.apply_L_batch
    whole, _, _ = batch(2, u, u.nodes())

    def spy(m, u, xs, **opts):
        sizes.append(len(xs))
        return batch(m, u, xs, **opts)

    monkeypatch.setattr(pointwise, "apply_L_batch", spy)
    monkeypatch.setattr(pointwise, "_RAY_BLOCK", 6 * pointwise.N_ANGLES)  # 13 and 12 points in blocks of 6
    out, side = tmp_path / "L.json", tmp_path / "L.side.json"
    assert main(["--threads", "2", "apply", "--op", "L", "--m", "2", "--method", "quad",
                 "--grid", str(src), "--out", str(out), "--sidecar", str(side)]) == 0
    assert sum(sizes) == u.values.size and len(sizes) == 2
    assert np.array_equal(np.array(json.loads(out.read_text())["values"]), whole)
    sidecar = json.loads(side.read_text())
    assert sidecar["path"] == "pointwise" and sidecar["nodes"] == u.values.size


def test_threads_are_positive_and_capped_at_the_cpus(tmp_path, monkeypatch):
    # a serial stand-in for the pool records the worker count it is asked for;
    # no real pool is started, whatever --threads says
    from loglap import cli

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            return map(fn, parts)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    x = np.linspace(-1.0, 1.0, 5)
    vals = ((1.0 - x[:, None] ** 2) * (1.0 - x[None, :] ** 2)) ** 2  # zero on the box faces
    h = (x[1] - x[0],) * 2
    u = GridFunction(2, (-1.0, -1.0), h, vals.shape, vals, 1.0, estimate_holder_constant(vals, h, 1.0))
    src = tmp_path / "bump2d.json"
    src.write_text(json.dumps(grid_to_dict(u)))
    apply = ["apply", "--op", "fraclap", "--s", "0.2", "--grid", str(src), "--out", str(tmp_path / "out.json")]
    outputs = []
    for threads in (["--threads", "100000"], [], ["--threads", "2"]):
        assert main([*threads, *apply]) == 0
        outputs.append((tmp_path / "out.json").read_text())
    assert asked == [3, 3, 2] and outputs[0] == outputs[1] == outputs[2]
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", bad, *apply])
        assert exc.value.code == 2
    assert len(asked) == 3


def test_threads_write_the_same_bytes_as_one_thread(tmp_path, monkeypatch):
    # a real pool of two workers: each point's value does not depend on the
    # batch it falls in, so the output file is byte for byte the serial one
    from concurrent.futures import ThreadPoolExecutor

    from loglap import cli

    asked = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)  # the cap, on a machine with one CPU too
    x = np.linspace(-1.0, 1.0, 7)
    vals = ((1.0 - x[:, None] ** 2) * (1.0 - x[None, :] ** 2)) ** 2  # zero on the box faces
    h = (x[1] - x[0],) * 2
    u = GridFunction(2, (-1.0, -1.0), h, vals.shape, vals, 1.0, estimate_holder_constant(vals, h, 1.0))
    src = tmp_path / "bump2d.json"
    src.write_text(json.dumps(grid_to_dict(u)))
    for op in (["--op", "L", "--m", "2"], ["--op", "riesz", "--s", "0.3"]):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}.json"
            assert main(["--threads", threads, "apply", *op, "--method", "quad", "--grid", str(src), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
    assert asked == [1, 2, 1, 2]


def test_apply_riesz_out_of_range_exit_code(bump_file, tmp_path):
    code = main(["apply", "--op", "riesz", "--s", "0.6", "--method", "quad",
                 "--grid", str(bump_file), "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_apply_k_fft_mismatch(bump_file, tmp_path):
    code = main(["apply", "--op", "K", "--m", "1", "--method", "fft",
                 "--grid", str(bump_file), "--out", str(tmp_path / "x.json")])
    assert code == 3


@pytest.mark.parametrize("command", [
    ["eig", "--form", "I", "--m", "1", "--domain", "{bad}", "--cells", "10", "--count", "1"],
    ["apply", "--op", "L", "--m", "1", "--grid", "{bad}", "--out", "{out}"],
], ids=["domain", "grid"])
def test_malformed_json_exit_code(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "pieces": [')
    argv = [a.format(bad=bad, out=tmp_path / "x.json") for a in command]
    assert main(argv) == 3
    assert "not a valid JSON file" in capsys.readouterr().err


@pytest.mark.parametrize("kind,field,value", [
    ("grid", "dim", "x"),
    ("grid", "values", "string"),
    ("domain", "a", "zero"),
], ids=["grid-dim", "grid-values", "domain-piece"])
def test_non_numeric_field_exit_code(bump_file, quarter_file, tmp_path, capsys, kind, field, value):
    src = bump_file if kind == "grid" else quarter_file
    data = json.loads(src.read_text())
    if field == "values":
        data["values"][3] = value
    elif field == "a":
        data["pieces"][0]["a"] = value
    else:
        data[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    if kind == "grid":
        argv = ["apply", "--op", "L", "--m", "1", "--grid", str(bad), "--out", str(tmp_path / "x.json")]
    else:
        argv = ["eig", "--form", "I", "--m", "1", "--domain", str(bad), "--cells", "10", "--count", "1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"malformed {kind} file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("piece", [
    {"type": "interval", "a": -math.inf, "b": 0.25},
    {"type": "rect", "x0": 0.0, "y0": 0.0, "x1": math.nan, "y1": 0.2},
    {"type": "disk", "cx": 0.0, "cy": 0.0, "r": math.nan},
    {"type": "disk", "cx": math.nan, "cy": 0.0, "r": 0.2},
], ids=["interval-a-inf", "rect-x1-nan", "disk-r-nan", "disk-cx-nan"])
def test_non_finite_domain_exit_code(tmp_path, capsys, piece):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1 if piece["type"] == "interval" else 2, "pieces": [piece]}))  # NaN/Infinity tokens
    assert main(["eig", "--form", "I", "--m", "1", "--domain", str(bad), "--cells", "10", "--count", "1"]) == 3
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["quad", "fft"])
@pytest.mark.parametrize("field, value", [
    ("origin", math.nan), ("origin", math.inf), ("spacing", math.nan), ("spacing", math.inf),
    ("const", math.nan), ("const", math.inf),
])
def test_non_finite_grid_exit_code(bump_file, tmp_path, capsys, method, field, value):
    data = json.loads(bump_file.read_text())
    if field == "const":
        data["holder"]["const"] = value
    else:
        data[field] = [value]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    argv = ["apply", "--op", "L", "--m", "1", "--method", method, "--grid", str(bad), "--out", str(tmp_path / "x.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["quad", "fft"])
@pytest.mark.parametrize("origin, spacing, shape", [([0.0], [1e308], [4]), ([-1e308], [1e308], [3])],
                         ids=["last-node", "period"])
def test_overflowing_grid_box_exit_code(tmp_path, capsys, method, origin, spacing, shape):
    # finite origin and spacing whose box does not fit in a float
    grid = {"dim": 1, "origin": origin, "spacing": spacing, "shape": shape,
            "holder": {"alpha": 1.0, "const": 1.0}, "values": [0.0] * shape[0]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(grid))
    argv = ["apply", "--op", "L", "--m", "1", "--method", method, "--grid", str(bad), "--out", str(tmp_path / "x.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "grid box extent must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["quad", "fft"])
@pytest.mark.parametrize("origin", [0.0, 1.0])
def test_subnormal_spacing_exit_code(tmp_path, capsys, method, origin):
    # 1e-3 of the spacing rounds to 0, and at origin 1.0 the four nodes coincide
    grid = {"dim": 1, "origin": [origin], "spacing": [5e-324], "shape": [4],
            "holder": {"alpha": 1.0, "const": 1.0}, "values": [0.0] * 4}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(grid))
    argv = ["apply", "--op", "L", "--m", "1", "--method", method, "--grid", str(bad), "--out", str(tmp_path / "x.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "spacing is too small" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["quad", "fft"])
@pytest.mark.parametrize("values, spacing, message", [
    ([0.0, 1e308, -1e308, 0.0], [1.0], "divided differences must be finite"),
    ([0.0, 1.0, 1.0, 0.0], [1e-310], "divided differences must be finite"),
    ([[0.0, 1e308], [0.0, -1e308]], [1.0, 1.0], "divided differences must be finite"),
    # finite divided differences whose spline coefficients, or samples, overflow
    ([0.0, 1e308, 0.0, 0.0], [1.0], "infinite spline slopes"),
    ([0.0, 0.0, 1e308, 0.0, 0.0, 0.0], [1.0], "infinite spline slopes"),
    ([0.0, 1.7e308, 1.7e308, 0.0, 0.0, 0.0], [1.0], "infinite spline slopes"),
    (np.where(np.arange(25) == 12, 1.7e308, 0.0).reshape(5, 5), [1.0, 1.0], "infinite spline slopes"),
    (np.where(np.arange(16) == 5, 1.7e308, 0.0).reshape(4, 4), [1.0, 1.0], "infinite spline slopes"),
], ids=["overflowing-difference", "subnormal-spacing", "2d", "infinite-slope-4-nodes", "infinite-slope-6-nodes",
        "infinite-samples-6-nodes", "infinite-slope-2d-5x5", "infinite-slope-2d-4x4"])
def test_overflowing_divided_differences_exit_code(tmp_path, capsys, method, values, spacing, message):
    # the spline's coefficients or samples would be infinite: the spline solve raised a ValueError traceback
    dim = len(spacing)
    grid = {"dim": dim, "origin": [0.0] * dim, "spacing": spacing, "shape": list(np.shape(values)),
            "holder": {"alpha": 1.0, "const": 1.0}, "values": np.ravel(values).tolist()}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(grid))
    argv = ["apply", "--op", "L", "--m", "1", "--method", method, "--grid", str(bad), "--out", str(tmp_path / "x.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


_BEYOND_FLOAT = 10 ** 400  # an integer literal that no float holds


@pytest.mark.parametrize("method", ["quad", "fft"])
@pytest.mark.parametrize("field", ["origin", "spacing", "alpha", "const"])
def test_integer_beyond_float_range_in_grid_exit_code(tmp_path, capsys, method, field):
    # float() and math.isfinite raised OverflowError, which escaped as a traceback
    grid = {"dim": 1, "origin": [0.0], "spacing": [0.5], "shape": [4],
            "holder": {"alpha": 1.0, "const": 1.0}, "values": [0.0] * 4}
    if field in ("alpha", "const"):
        grid["holder"][field] = _BEYOND_FLOAT
    else:
        grid[field] = [_BEYOND_FLOAT]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(grid))
    argv = ["apply", "--op", "L", "--m", "1", "--method", method, "--grid", str(bad), "--out", str(tmp_path / "x.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "malformed grid file" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["quad", "fft"])
def test_spacing_beyond_the_holder_sample_range_is_a_valid_grid(tmp_path, method):
    # 1e-3 of the spacing exceeds 1, the top of the sampled distances: the range was reversed
    grid = {"dim": 1, "origin": [-1.0], "spacing": [1e15], "shape": [3],
            "holder": {"alpha": 1.0, "const": 1.0}, "values": [0.0] * 3}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    out = tmp_path / "out.json"
    assert main(["apply", "--op", "L", "--m", "1", "--method", method, "--grid", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["shape"] == [3]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("op", [["L", "--m", "1"], ["K", "--m", "2"], ["fraclap", "--s", "0.3"], ["riesz", "--s", "0.2"]],
                         ids=["L1", "K2", "fraclap", "riesz"])
@pytest.mark.parametrize("origin, spacing, const", [(-1.0, 2.5e299, 1.0), (0.0, 1e-120, 1e300), (-1.0, 2e307, 1.0)],
                         ids=["spacing-2.5e299", "spacing-1e-120", "spacing-2e307"])
def test_extreme_spacing_quad_apply_is_finite(tmp_path, op, origin, spacing, const):
    # the lattice pass divided the cell coefficients by h^p and formed (t - j h)^p: it warned of
    # overflow and invalid values, then exited 3 on its own non-finite output; at spacing 2e307 the
    # sum of two cell edges overflowed and bincount raised a ValueError
    grid = {"dim": 1, "origin": [origin], "spacing": [spacing], "shape": [8],
            "holder": {"alpha": 1.0, "const": const}, "values": [0.0, 0.1, 0.4, 0.9, 0.9, 0.4, 0.1, 0.0]}
    path, out = tmp_path / "grid.json", tmp_path / "out.json"
    path.write_text(json.dumps(grid))
    assert main(["apply", "--op", *op, "--method", "quad", "--grid", str(path), "--out", str(out)]) == 0
    values = json.loads(out.read_text())["values"]
    assert len(values) == 8 and all(math.isfinite(v) for v in values)


def _first_eigenvalue(tmp_path, piece) -> float:
    path, out = tmp_path / "domain.json", tmp_path / "eig.csv"
    path.write_text(json.dumps({"dim": 2, "pieces": [piece]}))
    assert main(["eig", "--form", "I", "--m", "1", "--domain", str(path), "--cells", "10", "--count", "1",
                 "--out", str(out)]) == 0
    return float(_read_csv(out)[1][0][1])


@pytest.mark.parametrize("kind", ["disk", "square"])
def test_tiny_domains_continue_the_decade_step(tmp_path, kind):
    # below a measure of about 1e-20 the residual bound, fixed at 1e-6 |K| while Kv grows like
    # |Omega|^(-1/2), fell below rounding: r = 1e-10 exited 4
    def piece(r, c=0.0):
        if kind == "disk":
            return {"type": "disk", "cx": c, "cy": c, "r": r}
        return {"type": "rect", "x0": c, "y0": c, "x1": c + r, "y1": c + r}

    lam = [_first_eigenvalue(tmp_path, piece(r)) for r in (1e-8, 1e-9, 1e-10)]
    assert lam[2] == pytest.approx(2.0 * lam[1] - lam[0], rel=1e-4)
    if kind == "disk":  # cells of about 3000 ulps of their coordinates resolve the same disk
        assert _first_eigenvalue(tmp_path, piece(1e-12, 1.0)) == pytest.approx(_first_eigenvalue(tmp_path, piece(1e-12)),
                                                                              rel=1e-4)


@pytest.mark.parametrize("cx, cy, r", [(1.0, 1.0, 2e-16), (1000.0, 0.0, 1e-11)])
def test_unresolvable_tiny_disk_exit_code(tmp_path, capsys, cx, cy, r):
    # cells a fraction of an ulp (or 58 ulps) of their coordinates wide: their bounds are rounding, and
    # r = 2e-16 at (1, 1) gave lambda_1 = 61.65 against 146.11 for the same disk at the origin
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "pieces": [{"type": "disk", "cx": cx, "cy": cy, "r": r}]}))
    assert main(["eig", "--form", "I", "--m", "1", "--domain", str(bad), "--cells", "10", "--count", "1"]) == 3
    err = capsys.readouterr().err
    assert "too narrow to resolve" in err and "Traceback" not in err


@pytest.mark.parametrize("piece, message", [
    ({"type": "interval", "a": -_BEYOND_FLOAT, "b": 0.25}, "malformed domain file"),
    ({"type": "interval", "a": -1e308, "b": 1e-300}, "mesh cells must have diameter below the unit cutoff"),
    ({"type": "interval", "a": 1e-154, "b": 1.79e308}, "mesh cells must have diameter below the unit cutoff"),
    ({"type": "disk", "cx": 0.0, "cy": 0.0, "r": 1.79e308}, "finite positive radius and area"),
    ({"type": "disk", "cx": 0.0, "cy": 0.0, "r": 1e155}, "finite positive radius and area"),
    ({"type": "disk", "cx": 0.0, "cy": 0.0, "r": 1e-310}, "finite positive radius and area"),
    ({"type": "disk", "cx": 0.0, "cy": 0.0, "r": 5e-324}, "finite positive radius and area"),
    ({"type": "disk", "cx": 1.0, "cy": 1.0, "r": 1e-17}, "finite positive radius and area"),  # cx +- r == cx
], ids=["interval-integer-beyond-float", "interval-1e308-long", "interval-1.79e308-long",
        "disk-r-1.79e308", "disk-r-1e155", "disk-r-1e-310", "disk-r-5e-324", "disk-r-below-an-ulp-of-centre"])
def test_domain_beyond_float_range_exit_code(tmp_path, capsys, piece, message):
    # each ended in a traceback: float() of the integer, round(inf) of a cell count, a NaN grid step, r ** 2
    # overflowing, or a mesh with no cell kept
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1 if piece["type"] == "interval" else 2, "pieces": [piece]}))
    assert main(["eig", "--form", "I", "--m", "1", "--domain", str(bad), "--cells", "10", "--count", "1"]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


_FUZZ_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-154, -1e-154, 1e154, -1e154, 1.79e308, -1.79e308,
              math.nan, math.inf, -math.inf, _BEYOND_FLOAT, -_BEYOND_FLOAT, 10 ** 20, True, False, None, "0.5",
              0.1, -0.1, 0.2, 0.3, 1.0, 2, 3, 7]
_FUZZ_GRIDS = [
    {"dim": 1, "origin": [-1.0], "spacing": [0.25], "shape": [8], "holder": {"alpha": 1.0, "const": 4.0},
     "values": [0.0, 0.1, 0.4, 0.9, 0.9, 0.4, 0.1, 0.0]},
    {"dim": 2, "origin": [-1.0, -1.0], "spacing": [0.5, 0.5], "shape": [4, 4], "holder": {"alpha": 1.0, "const": 4.0},
     "values": [0.0] * 5 + [0.5, 0.5, 0.0, 0.0, 0.5, 0.5] + [0.0] * 5},
    # at spacing 1 a value near the float limit passes the divided-difference check and reaches the spline solve
    {"dim": 1, "origin": [-4.0], "spacing": [1.0], "shape": [8], "holder": {"alpha": 1.0, "const": 4.0},
     "values": [0.0, 0.1, 0.4, 0.9, 0.9, 0.4, 0.1, 0.0]},
    {"dim": 2, "origin": [-2.0, -2.0], "spacing": [1.0, 1.0], "shape": [5, 5], "holder": {"alpha": 1.0, "const": 4.0},
     "values": [0.0] * 6 + [0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0, 0.5, 0.5, 0.5] + [0.0] * 6},
]
_FUZZ_DOMAINS = [
    {"dim": 1, "pieces": [{"type": "interval", "a": -0.2, "b": 0.2}]},
    {"dim": 1, "pieces": [{"type": "interval", "a": -0.25, "b": -0.05}, {"type": "interval", "a": 0.05, "b": 0.25}]},
    {"dim": 2, "pieces": [{"type": "rect", "x0": -0.2, "y0": -0.2, "x1": 0.2, "y1": 0.2}]},
    {"dim": 2, "pieces": [{"type": "disk", "cx": 0.0, "cy": 0.0, "r": 0.2}]},
    {"dim": 2, "pieces": [{"type": "disk", "cx": 0.0, "cy": 0.0, "r": 0.1},
                          {"type": "rect", "x0": 0.15, "y0": -0.05, "x1": 0.3, "y1": 0.05}]},
]


def _json_paths(node, path=()):
    """The path of every value in a JSON tree, containers included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in children:
        yield from _json_paths(v, path + (k,))


def _mutated(data, rng):
    """A copy of a valid file with one to three edits: a pool value or a rescaled float, a list one too short or
    too long, or a missing key."""
    data = json.loads(json.dumps(data))
    for _ in range(rng.randint(1, 3)):
        *up, key = rng.choice(list(_json_paths(data))[1:])
        parent = data
        for k in up:
            parent = parent[k]
        target, move = parent[key], rng.random()
        if isinstance(target, list) and move < 0.25 and target:
            target.pop()
        elif isinstance(target, list) and move < 0.5:
            target.append(rng.choice(_FUZZ_POOL))
        elif isinstance(parent, dict) and move < 0.15:
            del parent[key]
        elif isinstance(target, float) and move < 0.4:
            parent[key] = target * rng.choice([1e-300, 1e-150, 1e-15, 1e15, 1e150, 1e300])
        else:
            parent[key] = rng.choice(_FUZZ_POOL)
    return data


def _fuzz_argv(rng, tmp_path):
    """One apply, eig or fk command line on files mutated from small valid ones (most cases), at most 20 cells."""

    def write(name, templates):
        data = rng.choice(templates)
        path = tmp_path / name
        path.write_text(json.dumps(_mutated(data, rng) if rng.random() < 0.9 else data))  # NaN/Infinity tokens
        return str(path)

    command = rng.choice(["apply", "eig", "fk"])
    if command == "apply":
        op = rng.choice(["K", "L", "fraclap", "riesz"])
        param = ["--m", str(rng.choice([0, 1, 2]))] if op in ("K", "L") else ["--s", str(rng.choice([0.25, 0.5, 1.5]))]
        return ["apply", "--op", op, *param, "--method", rng.choice(["quad", "fft"]),
                "--grid", write("grid.json", _FUZZ_GRIDS), "--out", str(tmp_path / "out.json")]
    if command == "eig":
        return ["eig", "--form", rng.choice("IGQ"), "--m", str(rng.choice([1, 2])), "--domain", write("d.json", _FUZZ_DOMAINS),
                "--cells", str(rng.choice([0, 1, 4, 12, 20])), "--count", str(rng.choice([1, 2])), "--out", str(tmp_path / "e.csv")]
    return ["fk", "--m", str(rng.choice([1, 2])), "--domains", write("d0.json", _FUZZ_DOMAINS), write("d1.json", _FUZZ_DOMAINS),
            "--cells-per-unit", str(rng.choice([1, 3, 5])), "--out", str(tmp_path / "fk.csv")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fuzzed_input_files_exit_with_a_documented_code(tmp_path, capsys):
    # bad numbers, wrong lengths and missing keys in grid and domain files end in an exit code, never a traceback
    # nor a RuntimeWarning
    rng = random.Random(2026)
    codes = collections.Counter()
    for _ in range(300):
        argv = _fuzz_argv(rng, tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error
            code = exc.code
        except Exception as exc:
            files = [open(a).read() for a in argv if a.endswith(".json") and not a.endswith("out.json")]
            pytest.fail(f"{argv[0]} raised {type(exc).__name__}: {exc} on {files}")
        assert code in (0, 2, 3, 4), argv
        codes[code] += 1
    capsys.readouterr()
    assert codes[0] > 0 and codes[3] > 0  # the fuzz reaches both working and rejected inputs


def test_fuzz_corpus_reads_as_the_json_module(tmp_path):
    # the input files of test_fuzzed_input_files_exit_with_a_documented_code, from the same seed
    rng = random.Random(2026)
    counts = collections.Counter()
    for _ in range(300):
        for path in [a for a in _fuzz_argv(rng, tmp_path) if a.endswith(".json") and not a.endswith("out.json")]:
            raw = open(path, "rb").read()
            expected = repr(json.loads(raw.decode("utf-8")))
            assert repr(read_json(path)) == expected, raw
            long_digits = re.search(rb"\d{19}", raw) is not None  # orjson reads integers beyond 64 bits as floats
            try:
                fast = repr(orjson.loads(raw))
            except orjson.JSONDecodeError:
                counts["refused"] += 1
                continue
            counts["long digits" if long_digits else "accepted"] += 1
            if not long_digits:
                assert fast == expected, raw
    assert counts["accepted"] > 0 and counts["refused"] > 0 and counts["long digits"] > 0, counts


@pytest.mark.parametrize("command", [
    ["apply", "--op", "L", "--m", "1", "--grid", "{tmp}/absent.json", "--out", "{tmp}/x.json"],
    ["coeffs", "--dim", "1", "--order", "1", "--out", "{tmp}/absent/c.csv"],
], ids=["missing-grid", "out-in-missing-dir"])
def test_io_error_exit_code(tmp_path, capsys, command):
    assert main([a.format(tmp=tmp_path) for a in command]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_expand_saturated_remainder_exit_code(tmp_path, capsys):
    assert main(["expand", "--side", "fraclap", "--n", "12", "--out", str(tmp_path / "ex.csv")]) == 4
    assert "remainder saturated" in capsys.readouterr().err


def test_eig_command_ascending(quarter_file, tmp_path):
    out = tmp_path / "eig.csv"
    assert main(["eig", "--form", "Q", "--m", "2", "--domain", str(quarter_file),
                 "--cells", "120", "--count", "5", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    vals = [float(r[1]) for r in rows]
    assert len(vals) == 5
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_fk_command_flags_ball(tmp_path):
    ball = tmp_path / "ball.json"
    split = tmp_path / "split.json"
    ball.write_text(json.dumps(domain_to_dict(DomainSpec(1, (Interval(-0.1, 0.1),)))))
    split.write_text(json.dumps(domain_to_dict(
        DomainSpec(1, (Interval(-0.12, -0.02), Interval(0.02, 0.12))))))
    out = tmp_path / "fk.csv"
    assert main(["fk", "--m", "2", "--domains", str(ball), str(split),
                 "--cells-per-unit", "500", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    by_file = {r[0]: r for r in rows}
    assert by_file[str(ball)][4] == "1"  # reference_min
    assert float(by_file[str(split)][3]) > float(by_file[str(ball)][3])


def test_fk_command_refuses_mixed_dimensions(tmp_path, capsys):
    disk = tmp_path / "disk.json"
    line = tmp_path / "line.json"
    disk.write_text(json.dumps(domain_to_dict(DomainSpec(2, (Disk(0.0, 0.0, 0.2),)))))
    line.write_text(json.dumps(domain_to_dict(DomainSpec(1, (Interval(-0.02 * math.pi, 0.02 * math.pi),)))))
    out = tmp_path / "fk.csv"
    assert main(["fk", "--m", "2", "--domains", str(disk), str(line), "--cells-per-unit", "20", "--out", str(out)]) == 3
    assert "dimension" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["-1", "-3"])
def test_expand_negative_order_usage_error(tmp_path, n):
    # -3 used to die in factorial() with a traceback and -1 to exit 0 with a meaningless slope
    out = tmp_path / "ex.csv"
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--side", "fraclap", "--n", n, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_expand_command(tmp_path):
    out = tmp_path / "ex.csv"
    assert main(["expand", "--side", "fraclap", "--n", "1", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    slope = float(rows[-1][1])
    assert 1.8 <= slope <= 2.2


def test_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["coeffs", "--dim", "1", "--order", "2", "--out", str(a)])
    main(["coeffs", "--dim", "1", "--order", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_seventeen_digit_csv(tmp_path):
    from loglap.coeffs import rho

    out = tmp_path / "c.csv"
    main(["coeffs", "--dim", "1", "--order", "1", "--out", str(out)])
    _, rows = _read_csv(out)
    table = {r[0]: r[1] for r in rows}
    assert table["rho"] == "%.17g" % rho(1)
    assert float(table["rho"]) == rho(1)  # 17 significant digits round-trip
