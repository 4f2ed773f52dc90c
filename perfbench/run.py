"""Benchmark of jointrisk on three seeded workloads.

    python3 perfbench/run.py --workload scalar-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
workload is a closed loop with one client in one process: an op starts only
after the previous one has finished.  The workload's fixed op list (one pass)
is repeated until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones.  Either way every output is checked, and the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Details
(environment, per-op latencies, self-time shares, problems) go to
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import os

# _grid_sum's matrix-vector products go to OpenBLAS, which would otherwise
# spread each product over one thread per core (up to 64): one client, one core
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("scalar-grid", "report-mix", "axioms-small")
# the host-speed probe whose work resembles each workload's (see hostspeed.py)
PROBE = {"scalar-grid": "arrays", "report-mix": "arrays", "axioms-small": "calls"}
# probes on each side of an op that set the slowdown its latency is divided by
PROBE_WINDOW = 2
SETUP_PROBE = "arrays"
SETUP_PROBES = 5
DEFAULT_SEED = 0
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
SETUP_CMD = "import jointrisk, jointrisk.cli; print(jointrisk.__file__)"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timed_import(cmd: list[str], env: dict) -> float:
    """Wall time of one import in a fresh interpreter.

    The wait blocks (``subprocess.run`` with a timeout polls in steps of up
    to 50 ms, which would quantize the figure); a timer kills a child that
    hangs.
    """
    t0 = time.perf_counter()
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    killer.start()
    try:
        returncode = child.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if returncode != 0:
        raise RuntimeError(f"importing jointrisk failed with exit code {returncode}")
    return elapsed


def measure_setup() -> tuple[float, dict]:
    """Median time of a fresh interpreter importing jointrisk and jointrisk.cli.

    One untimed import first writes the bytecode caches, which an installed
    package already has.  Each import is scaled by the host-speed probes
    run just before and after it, like every other timing; the child runs
    on the parent's one CPU.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", SETUP_CMD]
    first = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if first.returncode != 0:
        raise RuntimeError(f"importing jointrisk failed:\n{first.stderr}")
    if Path(first.stdout.strip()).resolve() != SRC / "jointrisk" / "__init__.py":
        raise RuntimeError(f"jointrisk was imported from {first.stdout.strip()}, not from {SRC}")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probes = [hostspeed.probe(SETUP_PROBE) for _ in range(SETUP_PROBES)]
        raw.append(_timed_import(cmd, env))
        probes += [hostspeed.probe(SETUP_PROBE) for _ in range(SETUP_PROBES)]
        scaled.append(raw[-1] / hostspeed.slowdown(SETUP_PROBE, probes))
    return statistics.median(scaled), {"setup_raw_s": raw, "setup_scaled_s": scaled}


def _sysconf(name: int) -> int | None:
    # glibc's _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE, which os.sysconf does not name
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        value = libc.sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": _sysconf(191),
        "l3_bytes": _sysconf(194),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_op(op):
    try:
        return op()
    except Exception as exc:  # a failing op is counted, and the run goes on
        return exc


def _output(result):
    return result if isinstance(result, BaseException) else result[0]


def timed_pass(ops, verifier, tracer=None, pass_id=0, probe=None, probes=None) -> list[float]:
    """Latency of each op in one pass; with ``probe``, that host-speed probe
    runs before each op and its time is appended to ``probes``."""
    latencies = []
    for j, op in enumerate(ops):
        if tracer is not None:
            tracer.op = pass_id * len(ops) + j
        if probe is not None:
            probes.append(hostspeed.probe(probe))
        t0 = time.perf_counter()
        result = run_op(op)
        latencies.append(time.perf_counter() - t0)
        verifier.verify(j, result)
    return latencies


def scaled(latencies, probes, kind: str) -> list[float]:
    """Each op latency divided by the host slowdown the probes around it measured.

    Probe j runs just before op j, so op j's window is probes j-w .. j+w, cut
    at the ends of the pass.
    """
    w = PROBE_WINDOW
    return [t / hostspeed.slowdown(kind, probes[max(0, j - w):j + w + 1]) for j, t in enumerate(latencies)]


def end_to_end(ops, verifier, seconds: float, probe: str) -> tuple[dict, dict]:
    raw, probe_times = [], []
    t_start = time.perf_counter()
    while not raw or time.perf_counter() - t_start < seconds:
        probe_times.append([])
        raw.append(timed_pass(ops, verifier, probe=probe, probes=probe_times[-1]))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Every pass runs the same ops, so each figure is taken per pass and then
    # the median over the run's passes is reported.  Each latency is first
    # divided by the host slowdown measured around it (see hostspeed.py): the
    # host drifts between fast and slow phases, some shorter than a pass and
    # some longer than a whole run, and no statistic over one run's passes
    # removes the long ones.
    passes = [scaled(p, pr, probe) for p, pr in zip(raw, probe_times)]
    metrics = {
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "op_p50_ms": (statistics.median(statistics.median(p) for p in passes) * 1e3, "ms"),
        "op_p90_ms": (statistics.median(statistics.quantiles(p, n=10, method="inclusive")[8] for p in passes) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    detail = {"passes": len(passes), "host_slowdown": [hostspeed.slowdown(probe, pr) for pr in probe_times],
              "pass_wall_raw_s": [sum(p) for p in raw], "pass_wall_s": [sum(p) for p in passes],
              "op_latency_raw_ms": [[op.label] + [p[j] * 1e3 for p in raw] for j, op in enumerate(ops)],
              "probe_ms": [[t * 1e3 for t in pr] for pr in probe_times],
              "op_latency_ms": [[op.label] + [p[j] * 1e3 for p in passes] for j, op in enumerate(ops)]}
    return metrics, detail


def per_layer(ops, verifier, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from spans import Instrumentation, Tracer

    tracer = Tracer()
    untraced, traced = [], []
    t_start = time.perf_counter()
    while not untraced or not traced or time.perf_counter() - t_start < seconds:
        if len(untraced) <= len(traced):
            untraced.append(sum(timed_pass(ops, verifier)))
        else:
            with Instrumentation(tracer):
                traced.append(sum(timed_pass(ops, verifier, tracer, len(traced))))
    n = len(traced)
    self_ms = {k: v / 1e6 / n for k, v in tracer.self_ns().items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    gaps = [out["results"]["scalar"]["formulation_gap"] for op, out in zip(ops, verifier.outputs)
            if getattr(op, "measure", None) == "scalar" and isinstance(out, dict)]

    def ms(name):
        return (self_ms.get(name, 0.0), "ms")

    def count(name):
        return (counts.get(name, 0.0), "count")

    metrics = {
        "scalar_risk.survival_form_ms": ms("scalar_risk.survival_form"),
        "scalar_risk.ls_form_ms": ms("scalar_risk.ls_form"),
        "scalar_risk.axiom_suite_self_ms": ms("scalar_risk.axiom_suite"),
        "scalar_risk.cells": count("scalar_risk.cells"),
        "scalar_risk.gamma_calls": count("scalar_risk.gamma_calls"),
        "scalar_risk.formulation_gap_max": (max(gaps, default=0.0), "ratio"),
        "signed.gamma_signed_2d_ms": ms("signed.gamma_signed_2d"),
        "signed.cells": count("signed.cells"),
        "copula.cdf_calls": count("copula.cdf_calls"),
        "copula.cdf_points": count("copula.cdf_points"),
        "copula.cdf_self_ms": (counts.get("copula.cdf_ns", 0.0) / 1e6, "ms"),
        "copula.gof_ms": ms("copula.gof"),
        "copula.frechet_ms": ms("copula.frechet"),
        "copula.grid_points": count("copula.grid_points"),
        "copula.kendall_ms": ms("copula.kendall"),
        "copula.kendall_pairs": count("copula.kendall_pairs"),
        "copula.kendall_peak_mb": (tracer.kendall_peak_bytes / 2**20, "MB"),
        "copula.resolve_ms": ms("copula.resolve"),
        "distortion.blend_ms": ms("distortion.blend"),
        "distortion.blend_calls": count("distortion.blend_calls"),
        "portfolio.ingest_ms": ms("portfolio.ingest"),
        "portfolio.scenarios": count("portfolio.scenarios"),
        "vector_risk.h_vector_ms": ms("vector_risk.h_vector"),
        "vector_risk.mixture_ms": ms("vector_risk.mixture"),
        "vector_risk.mtce_ms": ms("vector_risk.mtce"),
        "vector_risk.mtdrm_ms": ms("vector_risk.mtdrm"),
        "cli.run_self_ms": ms("cli.run"),
        "cli.render_ms": ms("cli.render"),
        "trace.overhead_pct": ((statistics.fmean(traced) / statistics.fmean(untraced) - 1.0) * 100.0, "%"),
    }
    pass_ms = statistics.fmean(traced) * 1e3
    shares = {k: round(v / pass_ms, 4) for k, v in sorted(self_ms.items(), key=lambda kv: -kv[1])}
    tracer.write(spans_path)
    detail = {"traced_passes": n, "untraced_passes": len(untraced), "traced_pass_wall_s": traced,
              "untraced_pass_wall_s": untraced, "self_time_share": shares, "spans": len(tracer.spans),
              "spans_file": spans_path.name}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    # one client on one CPU: the probes and the work they scale (the setup
    # imports run in children, which inherit this) share one vCPU, whose
    # speed can differ from the other's at the same moment
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "jointrisk" / "__init__.py").is_file():
        print(f"error: no jointrisk package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    setup_s, setup_detail = measure_setup() if args.trace == 0 else (None, {})

    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops = workloads.build(args.workload, args.seed, Path(tmp))
        verifier = checks.Verifier(ops)
        if args.trace:
            metrics, detail = per_layer(ops, verifier, args.seconds, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, detail = end_to_end(ops, verifier, args.seconds, PROBE[args.workload])
            metrics = {"setup_s": (setup_s, "s"), **metrics}
            detail = {**setup_detail, **detail}
        stored = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
        expected = stored.get(args.workload)
        if args.seed == DEFAULT_SEED:
            verifier.golden(expected, ops, verifier.outputs, separate=False)
        else:
            golden_dir = Path(tmp) / "default-seed"
            golden_dir.mkdir()
            golden_ops = workloads.build(args.workload, DEFAULT_SEED, golden_dir)
            results = [_output(run_op(op)) for op in golden_ops]
            verifier.golden(expected, golden_ops, results, separate=True)

    error_rate = verifier.failed / verifier.attempted
    env = environment(nproc)
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "ops": [op.label for op in ops], "attempted": verifier.attempted,
              "failed": verifier.failed, "error_rate": error_rate, "problems": verifier.problems,
              "metrics": values, **detail}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in verifier.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in {**metrics, "error_rate": (error_rate, "ratio")}.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
