"""The benchmark's own tests, kept out of the library's test suite.

    python3 -m pytest bench/checks.py -q

They check the self-time arithmetic on synthetic span trees, that the
tracer wraps and restores loglap, the metric-name grammar of BENCHMARK.json,
and a tiny-size pass of every workload, traced and untraced.
"""

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=None, thread=1, layer="x"):
    s = spans.Span(name, layer, start, parent, thread)
    s.end = end
    return s


def test_self_time_of_nested_spans():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 4.0, 6.0, root)
    c = _span("c", 2.0, 3.0, a)
    tree = [root, a, b, c]
    got = dict(zip("rabc", spans.self_times(tree)))
    assert got == pytest.approx({"r": 5.0, "a": 2.0, "b": 2.0, "c": 1.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_shares_concurrent_threads():
    root = _span("root", 0.0, 10.0)
    w1 = _span("w1", 2.0, 8.0, root, thread=2)
    w2 = _span("w2", 4.0, 8.0, root, thread=3)
    leaf = _span("leaf", 5.0, 6.0, w2, thread=3)
    tree = [root, w1, w2, leaf]
    got = dict(zip(["root", "w1", "w2", "leaf"], spans.self_times(tree)))
    # [4, 8] has two exposed threads except [5, 6], where w2 is covered by leaf
    assert got == pytest.approx({"root": 4.0, "w1": 2.0 + 1.5 + 0.5, "w2": 1.5, "leaf": 0.5})
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_wraps_imported_names_and_restores_them():
    import numpy as np
    from loglap import eigen, kernels

    original = kernels.radial_antiderivative
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        assert eigen.radial_antiderivative is kernels.radial_antiderivative is not original
        with tracer.span("bench.probe", "bench"):
            eigen._radial_segment(1, np.array([0.1]), np.array([0.5]), 0.0, 1.0)
    finally:
        tracer.uninstall()
    assert eigen.radial_antiderivative is kernels.radial_antiderivative is original
    names = [(s.name, s.layer, s.parent.name if s.parent else None) for s in tracer.spans]
    assert names == [("bench.probe", "bench", None)] + [("kernels.radial_antiderivative", "kernels", "bench.probe")] * 2
    assert tracer.counts["kernels.radial_evals"] == 2


def test_benchmark_json_names():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert NAME.match(name), name
    for m in metrics:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass(workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)], profile="tiny")
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.END_TO_END if not trace else {k: v[0] for k, v in layers.PER_LAYER.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) + m["bench.self_s"]
        assert layer_sum == pytest.approx(m["trace.wall_s"], rel=0.05)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
