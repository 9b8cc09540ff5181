"""One fresh interpreter running one workload; prints one JSON line.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SIZE

MODE is ``setup`` (import and build the inputs, then exit), ``measure``
(untraced passes for SECONDS, each followed by a set-up sample: a ``setup``
worker started and waited for, so the samples span the run) or ``trace``
(untraced and traced passes in turn, at least one of each). A pass runs every
op of the workload once. ``run.py`` starts this script with ``src/`` on
PYTHONPATH.
"""

import time

STARTED = time.perf_counter()  # before numpy, scipy and wreathlab are imported

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
ERRORS: list[str] = []  # the first few failed ops, with their tracebacks


def run_pass(ops, tracer=None) -> tuple[float, int]:
    """Run every op once; return (wall seconds, failed ops)."""
    failed = 0
    start = time.perf_counter()
    for op in ops:
        try:
            if tracer is None:
                op.run()
            else:
                with tracer.span(f"op.{op.name}"):
                    extra = op.run()
                tracer.counts[tracer.group].update(extra or {})
        except Exception:  # a raise from the library or a failed check: count it, keep going
            failed += 1
            if len(ERRORS) < 5:
                ERRORS.append(f"{op.name}: {traceback.format_exc(limit=3)}")
    return time.perf_counter() - start, failed


def setup_sample(workload: str, seed: int, size: str) -> float:
    """Set-up time of one fresh ``setup`` worker; this process waits for it."""
    argv = [sys.executable, os.path.abspath(__file__), "setup", workload, str(seed), "0", size]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def traced_pass(ops, tracer, group: int) -> tuple[float, int, dict]:
    """One pass with the wrappers on; returns (wall seconds, failed ops, per-layer metrics)."""
    tracer.group = group
    tracer.install()
    try:
        wall, failed = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    stats = tracer.group_stats(group)
    metrics = tracing.pass_metrics(stats, tracer.counts[group])
    metrics["trace.wall_s"] = wall
    metrics["trace.uncovered_s"] = wall - tracer.top_level_seconds(group)
    metrics["trace.spans"] = sum(calls for calls, _, _ in stats.values())
    return wall, failed, metrics


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
    }


def _blas_threads():
    """OpenBLAS's own thread count, asked through its C API; None if unknown."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(mode: str, workload: str, seed: int, seconds: float, size: str) -> dict:
    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()  # setup is traced too: hosts.wreath_truncation runs there

    import wreathlab
    import workloads

    if not os.path.abspath(wreathlab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"wreathlab imported from {wreathlab.__file__}, not from {ROOT}/src")
    os.makedirs(WORK_DIR, exist_ok=True)
    ops = workloads.build(workload, seed, size, WORK_DIR)
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s, "env": environment()}
    if mode == "setup":
        return result

    if tracer is not None:
        tracer.uninstall()
    walls, traced_walls, per_pass, rounds, setups = [], [], [], [], [setup_s]
    attempted = failed = 0
    start = time.perf_counter()
    # a round (a pass and a set-up sample, or a pass and a traced pass) starts only
    # if a round of median length still ends within SECONDS, so a run takes SECONDS
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        wall, bad = run_pass(ops)
        walls.append(wall)
        attempted, failed = attempted + len(ops), failed + bad
        if tracer is not None:
            wall, bad, metrics = traced_pass(ops, tracer, len(traced_walls))
            traced_walls.append(wall)
            per_pass.append(metrics)
            attempted, failed = attempted + len(ops), failed + bad
        else:
            setups.append(setup_sample(workload, seed, size))
        rounds.append(time.perf_counter() - round_start)

    result.update(
        attempted=attempted,
        failed=failed,
        errors=ERRORS,
        walls=walls,
        setups=setups if tracer is None else [],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        layer = tracing.median_metrics(per_pass)
        setup_stats = tracer.group_stats("setup")
        layer["hosts.wreath_truncation.s"] = setup_stats.get("hosts.wreath_truncation", (0, 0.0, 0.0))[1]
        layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        missing = sorted(workloads.LAYERS[workload] - tracer.fired())
        uncovered_share = layer["trace.uncovered_s"] / layer["trace.wall_s"]
        result.update(
            per_layer=layer,
            traced_walls=traced_walls,
            missing_spans=missing,
            unexpected_spans=sorted(tracer.fired() - workloads.LAYERS[workload] - {f"op.{op.name}" for op in ops}),
            trace_ok=not missing and uncovered_share <= 0.01,
        )
        tracer.write_spans(os.path.join(WORK_DIR, f"spans-{workload}.csv"))
    return result


if __name__ == "__main__":
    mode, workload, seed, seconds, size = sys.argv[1:6]
    print(json.dumps(main(mode, workload, int(seed), float(seconds), size)))
