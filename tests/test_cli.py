"""Command-line front end: outputs, file round trips, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from loglap.cli import main
from loglap.coeffs import EULER_GAMMA
from loglap.domains import DomainSpec, Interval, domain_to_dict
from loglap.grid import gaussian_derivative_bump, grid_from_dict, grid_to_dict


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
    assert side["truncation_bound"] >= 0.0


def test_apply_quad_chunks_stay_under_byte_budget(bump_file, tmp_path, monkeypatch):
    from loglap import cli, pointwise

    sizes = []
    batch = pointwise.apply_L_batch

    def spy(m, u, xs, **opts):
        sizes.append(len(xs))
        return batch(m, u, xs, **opts)

    monkeypatch.setattr(pointwise, "apply_L_batch", spy)
    monkeypatch.setattr(cli, "_QUAD_CHUNK_BYTES", 40 * cli._quad_point_bytes(1))
    out = tmp_path / "L.json"
    assert main(["--threads", "2", "apply", "--op", "L", "--m", "2", "--method", "quad",
                 "--grid", str(bump_file), "--out", str(out)]) == 0
    u = grid_from_dict(json.loads(bump_file.read_text()))
    assert sum(sizes) == u.shape[0] and len(sizes) > 2
    assert max(sizes) * cli._quad_point_bytes(1) <= cli._QUAD_CHUNK_BYTES
    whole, _, _ = batch(2, u, u.axes()[0][:, None])
    assert np.array_equal(np.array(json.loads(out.read_text())["values"]), whole)


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


def test_threads_env_fallback(bump_file, tmp_path, monkeypatch):
    monkeypatch.setenv("LOGLAP_THREADS", "2")
    out = tmp_path / "t.json"
    assert main(["apply", "--op", "L", "--m", "1", "--method", "quad",
                 "--grid", str(bump_file), "--out", str(out)]) == 0
    monkeypatch.setenv("LOGLAP_THREADS", "nope")
    code = main(["apply", "--op", "L", "--m", "1", "--method", "quad",
                 "--grid", str(bump_file), "--out", str(out)])
    assert code == 3


def test_seventeen_digit_csv(tmp_path):
    from loglap.coeffs import rho

    out = tmp_path / "c.csv"
    main(["coeffs", "--dim", "1", "--order", "1", "--out", str(out)])
    _, rows = _read_csv(out)
    table = {r[0]: r[1] for r in rows}
    assert table["rho"] == "%.17g" % rho(1)
    assert float(table["rho"]) == rho(1)  # 17 significant digits round-trip
