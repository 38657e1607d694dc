"""Benchmark of the ofc library: four workloads, end to end or traced by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fit2d --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched.
``--trace 1`` alternates untraced and traced rounds of ops and reports per-layer
metrics (see ``spans.py``), plus the tracing overhead.  Either way the
report goes to standard output and its last line is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the command exits 2 and prints no result.  Any
failed op or output check makes the command exit 1.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOADS = ("fit2d", "fit3d", "cv", "score")

# name -> unit of what BENCHMARK.json lists as end to end
END_TO_END = {"setup_s": "s", "op_s": "s", "fbeta_heldout": "ratio", "peak_rss_mb": "MB"}


def import_library() -> None:
    """Import ``ofc`` from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import ofc
    except ImportError as exc:
        print(f"bench: cannot import ofc from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(ofc.__file__).resolve().is_relative_to(SRC):
        print(f"bench: ofc was imported from {ofc.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def cold_import_s() -> float:
    """Seconds a fresh interpreter takes to import ``ofc`` (numpy, scipy too)."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "t = time.perf_counter(); import ofc; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout)


def _blas() -> dict:
    """BLAS build info and its live thread count, read and never set."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(wl, seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": _git_commit(),
        "workload": wl.name,
        "seed": seed,
        "sizes": wl.sizes,
    }


def tail(values) -> tuple:
    """The highest percentile with at least ten samples above it, else the max."""
    p = math.floor(100 * (1 - 10 / len(values)))
    if p <= 50:
        return "max", max(values)
    return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def per_kind(times: dict) -> float:
    """Mean over kinds of op of each kind's median time."""
    return statistics.mean(statistics.median(v) for v in times.values())


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run; returns (report lines, result dict)."""
    import_library()
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.make(name, seed, tiny, workdir)
        setup_times, setup_ids = [], []
        for k in range(SETUP_REPEATS):
            import_s = cold_import_s()
            start = time.perf_counter()
            if tracer:
                tracer.op = -1 - k
                setup_ids.append(tracer.op)
                with spans.installed(tracer):
                    inputs = wl.setup()
            else:
                inputs = wl.setup()
            setup_times.append(import_s + time.perf_counter() - start)
        wl.reference(inputs)

        # A round is one op on each input item; traced runs alternate
        # untraced and traced rounds, and per-layer metrics are per round.
        outputs = []  # every good op's output
        first = {}  # item -> its first good output, which later ops must match
        plain_s, traced_s = defaultdict(list), defaultdict(list)  # item -> op seconds
        traced_rounds = []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds

        def another_round(done: int) -> bool:
            """Until the deadline, unless less than half a round would fit."""
            if done < (2 if trace else 1):
                return True
            times = plain_s or traced_s
            round_s = len(inputs) * per_kind(times) if times else 0.0
            return deadline - time.perf_counter() > 0.5 * round_s

        rounds = 0
        while another_round(rounds):
            traced = trace and rounds % 2 == 1
            clean = True
            for kind, item in enumerate(inputs):
                attempted += 1
                try:
                    start = time.perf_counter()
                    if traced:
                        tracer.op = rounds
                        with spans.installed(tracer):
                            out = wl.op(item)
                    else:
                        out = wl.op(item)
                    took = time.perf_counter() - start
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    clean = False
                    continue
                if kind in first and out.digest != first[kind].digest:
                    out.problems.append("output differs from the run's first op on this input")
                if out.problems:
                    print(f"bench: op {attempted} failed its checks: {out.problems}",
                          file=sys.stderr)
                    failed += 1
                    clean = False
                    continue
                first.setdefault(kind, out)
                outputs.append(out)
                (traced_s if traced else plain_s)[kind].append(took)
            if traced and clean:
                traced_rounds.append(rounds)
            rounds += 1
        if tracer:
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")

    lines = [f"bench {name} seed={seed} seconds={seconds} trace={int(trace)} tiny={int(tiny)}",
             "machine " + json.dumps(provenance(wl, seed))]
    metrics = {}

    def show(metric, unit, values, value=None):
        label, hi = tail(values)
        value = statistics.median(values) if value is None else value
        lines.append(f"  {metric:28s} {value:<14.6g} {label} {hi:<12.6g} "
                     f"n={len(values):<4d} {unit}")

    if len(first) == len(inputs) and plain_s and (traced_rounds or not trace):
        if trace:
            layer = spans.layer_metrics(tracer, traced_rounds, setup_ids)
            layer["trace.overhead"] = per_kind(traced_s) / per_kind(plain_s) - 1
            for metric, (unit, _) in spans.LAYER_METRICS.items():
                metrics[metric] = {"value": layer[metric], "unit": unit}
                lines.append(f"  {metric:28s} {layer[metric]:<14.6g} {unit}")
        else:
            quality = statistics.mean(first[kind].quality for kind in range(len(inputs)))
            metrics = {
                "setup_s": statistics.median(setup_times),
                "op_s": per_kind(plain_s),
                "fbeta_heldout": quality,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
            show("setup_s", "s", setup_times)
            show("op_s", "s", [t for v in plain_s.values() for t in v], metrics["op_s"]["value"])
            if len(inputs) > 1:
                for kind, times in plain_s.items():
                    show(f"op_s[{kind}]", "s", times)
            for key in outputs[0].timings:
                show(key, "s", [t for o in outputs for t in o.timings[key]])
            for key in outputs[0].rates:
                show(key, "1/s", [o.rates[key] for o in outputs])
            lines.append(f"  {wl.quality_name:28s} {quality:<14.6g} ratio")
            lines.append(f"  {'peak_rss_mb':28s} {metrics['peak_rss_mb']['value']:<14.6g} MB")
    lines.append(f"  {'failed_frac':28s} {failed / attempted:<14.6g} ratio "
                 f"({failed} of {attempted} ops)")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
