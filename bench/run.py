"""loglap benchmark: one workload per run, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports loglap, numpy and scipy and writes the workload's seeded
input files under ``.bench_out/`` in the checkout; it is sampled three times
(this process and two fresh interpreters, see setup_probe.py) and reported
as the median ``setup_s``.  The run then repeats passes over the workload's
jobs back to back, starting another pass only while it is expected to end
within S seconds (at least one pass).  Every job's output is checked by an
oracle (workloads.py).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (one pass, as the
sum of each job's median over the passes), ``setup_s`` and ``peak_rss_mb``
(ru_maxrss of this process).  ``--trace 1``
runs one untraced pass, then traced passes, and reports the per-layer
metrics of layers.py; on ``pointwise-apply`` it also times the 1D
quadrature ``apply --op L --m 2`` job once on one thread.

Lines before the last describe the run (environment, each metric with its
unit, quartiles and sample count, the error rate with its base); the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  Run details and, with tracing, the spans go to ``.bench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import pin  # noqa: E402  (pins thread pools before numpy loads)
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
OUT_DIR = pin.ROOT / ".bench_out"


def run_pass(w: workloads.Workload, tracer: spans.Tracer | None, evidence: dict, job_walls: dict):
    """One pass over the jobs; returns (wall seconds, attempted, failed).

    Each job's wall seconds are appended to ``job_walls[job.name]``.
    """
    failed = 0
    start = time.perf_counter()
    outer = tracer.begin("bench.pass", "bench") if tracer else None
    for job in w.jobs:
        span = tracer.begin(f"bench.{job.name}", "bench") if tracer else None
        job_start = time.perf_counter()
        try:
            for key, value in job.run().items():
                evidence[key] = max(evidence.get(key, 0.0), value)
        except Exception:  # a failed job is counted, reported and the pass goes on
            failed += 1
            print(f"job {w.name}/{job.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
        finally:
            job_walls.setdefault(job.name, []).append(time.perf_counter() - job_start)
            if span is not None:
                tracer.end(span)
    if outer is not None:
        tracer.end(outer)
    return time.perf_counter() - start, len(w.jobs), failed


def run_passes(w, seconds: float, tracer, evidence, walls: list, totals: list, job_walls: dict) -> None:
    """Passes until another would be expected to end after ``seconds``."""
    start = time.perf_counter()
    while True:
        wall, attempted, failed = run_pass(w, tracer, evidence, job_walls)
        walls.append(wall)
        totals[0] += attempted
        totals[1] += failed
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def probe_setup(name: str, seed: int, workdir: Path, profile: str) -> float:
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed), str(workdir), profile]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (pin.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(pin.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def pass_estimate(job_walls: dict, walls: list) -> dict:
    """``wall_s``: the sum over jobs of each job's median wall time.

    A slow moment of the shared host then costs only the job it falls in, not
    the whole pass; q1 and q3 are the sums of the per-job quartiles, and
    ``samples`` are the measured pass walls.
    """
    per_job = [summary(v) for v in job_walls.values()]
    return {**{k: math.fsum(s[k] for s in per_job) for k in ("median", "q1", "q3")},
            "n": len(walls), "samples": walls, "stat": "sum of per-job medians over passes:"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, profile: str = "full") -> int:
    args = parse_args(argv)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    try:
        w = workloads.setup(args.workload, args.seed, scratch / "inputs", pin.THREADS, profile)
        setup_samples = [time.perf_counter() - T0]
        setup_samples += [probe_setup(args.workload, args.seed, scratch / f"probe{i}", profile)
                          for i in range(SETUP_PROBES)]
        evidence: dict = {}
        walls: list = []
        totals = [0, 0]
        if args.trace:
            result = traced_run(w, args.seconds, evidence, totals)
        else:
            run_passes(w, args.seconds, None, evidence, walls, totals, job_walls := {})
            result = {
                "wall_s": pass_estimate(job_walls, walls),
                "setup_s": summary(setup_samples),
                "peak_rss_mb": summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
                "job_walls": job_walls,
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = totals
    units = END_TO_END if not args.trace else {k: v[0] for k, v in layers.PER_LAYER.items()}
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "profile": profile, "nproc": pin.NPROC, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "commit": git_commit(),
        "threads": pin.THREADS, "LOGLAP_THREADS": os.environ["LOGLAP_THREADS"],
        "blas_threads": {v: os.environ[v] for v in pin.BLAS_VARS},
        "jobs_per_pass": len(w.jobs), "setup_samples": len(setup_samples),
    }
    print("env " + json.dumps(env))
    for name, unit in units.items():
        s = result[name]
        if isinstance(s, dict):
            print(f"{name} = {s['median']!r} {unit} ({s.get('stat', 'median of')} {s['n']}; q1 {s['q1']!r}, q3 {s['q3']!r})")
        else:
            print(f"{name} = {s!r} {unit}")
    print(f"error_rate = {failed / attempted!r} ({failed} failed / {attempted} attempted jobs)")
    metrics = {name: {"value": (result[name]["median"] if isinstance(result[name], dict) else result[name]),
                      "unit": unit} for name, unit in units.items()}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "evidence": evidence, "attempted": attempted, "failed": failed}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def traced_run(w, seconds: float, evidence: dict, totals: list) -> dict:
    """One untraced pass, then traced passes within the time left; per-layer metrics."""
    start = time.perf_counter()
    untraced: list = []
    run_passes(w, 0.0, None, evidence, untraced, totals, {})
    tracer = spans.Tracer()
    layers.install(tracer)
    io_before = w.io_bytes
    traced: list = []
    try:
        run_passes(w, max(seconds - (time.perf_counter() - start), 0.0), tracer, evidence, traced, totals, {})
    finally:
        tracer.uninstall()
    io_bytes = w.io_bytes - io_before
    serial_s = 0.0
    if w.name == "pointwise-apply":
        t = time.perf_counter()
        try:
            workloads.serial_quad_job(w)
            serial_s = time.perf_counter() - t
        except Exception:
            totals[1] += 1
            print(f"serial baseline failed:\n{traceback.format_exc()}", file=sys.stderr)
        totals[0] += 1
    done = [s for s in tracer.spans if s.end is not None]
    self_s = spans.self_times(done)
    result = layers.derive(done, self_s, tracer.counts, len(traced), traced, untraced[0], io_bytes, evidence, serial_s)
    layer_sum = math.fsum(result[f"{layer}.self_s"] for layer in spans.LAYERS) + result["bench.self_s"]
    print(f"trace check: layer self times + bench.self_s = {layer_sum!r} s, traced wall = "
          f"{result['trace.wall_s']!r} s over {len(traced)} traced passes")
    for job, row in layers.per_job(done, self_s, len(traced)).items():
        parts = ", ".join(f"{k} {v:.4g}" for k, v in sorted(row.items(), key=lambda kv: -kv[1]) if k != "wall")
        print(f"job {job}: wall {row['wall']:.4g} s; self s: {parts}")
    write_spans(done, OUT_DIR / f"{w.name}-seed{w.seed}-spans.json")
    return result


def write_spans(done: list, path: Path) -> None:
    index = {id(s): i for i, s in enumerate(done)}
    rows = [[s.name, s.layer, s.start, s.end, index.get(id(s.parent)), s.thread] for s in done]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent", "thread"], "spans": rows}, fh)


if __name__ == "__main__":
    sys.exit(main())
