"""Smoke test of the benchmark: every workload once at tiny sizes.

Run from the root of a checkout::

    python3 bench/smoke.py

It checks that each workload runs without a failed op, untraced and
traced; that every metric ``BENCHMARK.json`` names is emitted with its
unit; and that every per-layer metric is non-zero on the workloads where
its layer does work (and the training layers are zero on ``score``), so a
renamed import cannot silently zero a layer.  Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import math
import sys

import run

FITS = ("fit2d", "fit3d", "cv")
# per-layer metric -> workloads on which it must be non-zero.  Metrics that
# may legitimately read 0 anywhere (rejections, restarts, convergence,
# rebound, failed cells, overhead) are not listed.
EXPECTED = {
    **{m: FITS for m in (
        "solver.reinit_s", "solver.reinit_calls", "solver.step_s", "solver.step_calls",
        "solver.train_self_s", "solver.iterations", "solver.energy_final",
        "energy.descent_s", "energy.evaluate_s", "field.laplacian_s",
        "density.kde_s", "density.kde_calls", "density.kde_work", "density.kde_reuse",
        "classifier.fit_s", "classifier.fit_self_s", "data.gen_s",
    )},
    **{m: ("cv",) for m in (
        "harness.cells", "harness.cell_s", "harness.busy_frac", "harness.self_s",
        "harness.nb_s", "harness.nb_repeat",
    )},
    "classifier.predict_s": FITS + ("score",),
    "field.interpolate_s": FITS + ("score",),
    "classifier.frontier_s": ("fit2d", "score"),
    "classifier.frontier_calls": ("fit2d", "score"),
    "classifier.load_s": ("score",),
}
# layers that must do no work on a workload
ABSENT = {"score": ("solver.", "energy.", "density.", "harness.", "data.")}


def check_emitted(result: dict, declared: list, what: str) -> list:
    problems = []
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        problems.append(f"{what}: emitted {sorted(got)}, declared {sorted(m['name'] for m in declared)}")
    for m in declared:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"]:
            problems.append(f"{what}: {m['name']} has unit {entry.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{what}: {m['name']} has value {entry.get('value')!r}")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.SETUP_REPEATS = 1
    problems = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            what = f"{name} trace={int(trace)}"
            _, result = run.run(name, seed=1, seconds=0, trace=trace, tiny=True)
            if not result["correct"] or result["failed"]:
                problems.append(f"{what}: {result['failed']} of {result['attempted']} ops failed")
            declared = bench["per_layer" if trace else "end_to_end"]
            problems += check_emitted(result, declared, what)
            print(f"smoke: {what} ran", flush=True)
            if not trace:
                zeros = [m for m, v in result["metrics"].items() if v["value"] == 0]
                problems += [f"{what}: end-to-end {m} is 0" for m in zeros]
                continue
            values = {m: v["value"] for m, v in result["metrics"].items()}
            for metric, workloads in EXPECTED.items():
                if name in workloads and not values.get(metric):
                    problems.append(f"{what}: {metric} did not fire")
            for prefix in ABSENT.get(name, ()):
                problems += [f"{what}: {m} = {v} on a workload without that layer"
                             for m, v in values.items() if m.startswith(prefix) and v]
    for p in problems:
        print("smoke: FAIL " + p, file=sys.stderr)
    print(f"smoke: {'FAILED' if problems else 'passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
