"""Outside-in span tracing for the benchmark.

Every traced name is a public function of one ``ofc`` module, wrapped at
the attribute its caller looks up: ``train`` calls ``step`` through
``ofc.solver``'s globals, ``fit`` calls ``estimate_pair`` through
``ofc.classifier``'s, and the experiment driver calls ``fit`` under its own
alias ``ofc.harness.ofc_fit``.  The span name is ``<module>.<what>``, and the
module is the layer.  Nothing in ``src/ofc`` is edited; the wrappers are
installed for one traced op at a time and removed afterwards, so untraced
ops run the library exactly as users do.

Spans live in memory and are written out when the run ends.  Each thread
keeps its own stack of open spans; a span opened on a pool thread with an
empty stack is parented to the span open on the thread that created the
tracer (the experiment driver, blocked in ``pool.map``).
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    error: str = ""
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1  # stamped on every span; the runner sets it per round
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        sp = Span(sid, name, parent.sid if parent else None, self.op, time.perf_counter())
        stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps(asdict(sp)) + "\n")


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes() if hasattr(a, "tobytes") else repr(a).encode())
    return h.hexdigest()


# Hooks run after the span has closed, so their cost is not charged to it.


def _kde_info(sp, args, kwargs, result):
    model, grid = args[0], args[1]
    sp.info["work"] = len(model.samples) * math.prod(grid.shape)
    sp.info["key"] = _digest(model.samples, grid)


def _dataset_info(sp, args, kwargs, result):
    data = args[0]
    sp.info["key"] = _digest(data.points, data.labels)


def _train_info(sp, args, kwargs, result):
    _, trace = result
    energies = [r.energy for r in trace.records]
    sp.info.update(
        iterations=len(trace.records),
        converged=trace.status == "converged",
        restarted=trace.restarted,
        energy_final=energies[-1] if energies else math.nan,
        energy_min=min(energies) if energies else math.nan,
    )


def _experiment_info(sp, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    sp.info.update(
        workers=spec.workers,
        cells=len(result.outcomes) + len(result.failures),
        failed=len(result.failures),
    )


# (owner, attribute, span name, hook).  An owner "pkg.mod:Class" wraps a
# method on the class, which is where ``self.evaluate`` is looked up.
TARGETS = (
    ("ofc.data", "gen_db", "data.gen_db", None),
    ("ofc.data", "kfold", "data.kfold", None),
    ("ofc.harness", "kfold", "data.kfold", None),
    ("ofc.classifier", "estimate_pair", "density.estimate_pair", None),
    ("ofc.density", "density_on_grid", "density.kde", _kde_info),
    ("ofc.classifier", "train", "solver.train", _train_info),
    ("ofc.solver", "step", "solver.step", None),
    ("ofc.solver", "reinitialize", "solver.reinit", None),
    ("ofc.solver", "laplacian", "field.laplacian", None),
    ("ofc.energy:MeasureEnergy", "descent_direction", "energy.descent", None),
    ("ofc.energy:MeasureEnergy", "evaluate", "energy.evaluate", None),
    ("ofc.classifier", "fit", "classifier.fit", None),
    ("ofc.harness", "ofc_fit", "classifier.fit", None),
    ("ofc.classifier", "predict", "classifier.predict", None),
    ("ofc.harness", "ofc_predict", "classifier.predict", None),
    ("ofc.classifier", "interpolate", "field.interpolate", None),
    ("ofc.classifier", "frontier", "classifier.frontier", None),
    ("ofc.classifier", "frontier_csv", "classifier.frontier_csv", None),
    ("ofc.classifier", "load", "classifier.load", None),
    ("ofc.harness", "run_experiment", "harness.run_experiment", _experiment_info),
    ("ofc.harness", "naive_bayes_fit", "harness.nb_fit", _dataset_info),
    ("ofc.harness", "naive_bayes_predict", "harness.nb_predict", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _traced(tracer: Tracer, name: str, original, hook):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            result = original(*args, **kwargs)
        if hook is not None:
            hook(sp, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it.

    A target whose attribute no longer exists raises AttributeError, so a
    renamed function fails the traced run instead of zeroing its layer.
    """
    undo = []
    try:
        for owner_path, attr, name, hook in TARGETS:
            owner = _owner(owner_path)
            original = getattr(owner, attr)
            setattr(owner, attr, _traced(tracer, name, original, hook))
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _covered(span: Span, children: list) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    ):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "solver.reinit_s": ("s", "lower"),
    "solver.reinit_calls": ("count", "lower"),
    "solver.step_s": ("s", "lower"),
    "solver.step_calls": ("count", "lower"),
    "solver.step_rejected": ("count", "lower"),
    "solver.train_self_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.converged_frac": ("ratio", "higher"),
    "solver.restarts": ("count", "lower"),
    "solver.energy_final": ("ratio", "lower"),
    "solver.energy_rebound": ("ratio", "lower"),
    "energy.descent_s": ("s", "lower"),
    "energy.evaluate_s": ("s", "lower"),
    "field.laplacian_s": ("s", "lower"),
    "field.interpolate_s": ("s", "lower"),
    "density.kde_s": ("s", "lower"),
    "density.kde_calls": ("count", "lower"),
    "density.kde_work": ("count", "lower"),
    "density.kde_reuse": ("ratio", "higher"),
    "harness.cells": ("count", "higher"),
    "harness.cells_failed": ("count", "lower"),
    "harness.cell_s": ("s", "lower"),
    "harness.busy_frac": ("ratio", "higher"),
    "harness.self_s": ("s", "lower"),
    "harness.nb_s": ("s", "lower"),
    "harness.nb_repeat": ("ratio", "lower"),
    "classifier.fit_s": ("s", "lower"),
    "classifier.fit_self_s": ("s", "lower"),
    "classifier.predict_s": ("s", "lower"),
    "classifier.frontier_s": ("s", "lower"),
    "classifier.frontier_calls": ("count", "lower"),
    "classifier.load_s": ("s", "lower"),
    "data.gen_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _op_metrics(spans: list, children: dict) -> dict:
    """Layer metrics of one traced round of ops (every value is per round)."""
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def total(name):
        return sum(sp.dur for sp in by_name[name])

    def self_total(name):
        return sum(sp.dur - _covered(sp, children[sp.sid]) for sp in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    steps = by_name["solver.step"]
    trains = [sp.info for sp in by_name["solver.train"]]
    kdes = by_name["density.kde"]
    runs = by_name["harness.run_experiment"]
    nb_fits = by_name["harness.nb_fit"]
    cells = sum(sp.info.get("cells", 0) for sp in runs)
    # a cell's busy time: the driver's direct children, minus fold splitting
    cell_spans = [
        c for sp in runs for c in children[sp.sid] if c.name != "data.kfold"
    ]
    cell_busy = sum(c.dur for c in cell_spans)
    capacity = sum(sp.dur * sp.info.get("workers", 1) for sp in runs)
    rebounds = [
        (t["energy_final"] - t["energy_min"]) / t["energy_min"]
        for t in trains
        if t["energy_min"] > 0
    ]
    return {
        "solver.reinit_s": total("solver.reinit"),
        "solver.reinit_calls": len(by_name["solver.reinit"]),
        "solver.step_s": self_total("solver.step"),
        "solver.step_calls": len(steps),
        "solver.step_rejected": sum(sp.error == "StepRejectedError" for sp in steps),
        "solver.train_self_s": self_total("solver.train"),
        "solver.iterations": sum(t["iterations"] for t in trains),
        "solver.converged_frac": ratio(sum(t["converged"] for t in trains), len(trains)),
        "solver.restarts": sum(t["restarted"] for t in trains),
        "solver.energy_final": ratio(sum(t["energy_final"] for t in trains), len(trains)),
        "solver.energy_rebound": ratio(sum(rebounds), len(rebounds)),
        "energy.descent_s": total("energy.descent"),
        "energy.evaluate_s": total("energy.evaluate"),
        "field.laplacian_s": total("field.laplacian"),
        "field.interpolate_s": total("field.interpolate"),
        "density.kde_s": total("density.kde"),
        "density.kde_calls": len(kdes),
        "density.kde_work": sum(sp.info["work"] for sp in kdes),
        "density.kde_reuse": ratio(len({sp.info["key"] for sp in kdes}), len(kdes)),
        "harness.cells": cells,
        "harness.cells_failed": sum(sp.info.get("failed", 0) for sp in runs),
        "harness.cell_s": ratio(cell_busy, cells),
        "harness.busy_frac": ratio(cell_busy, capacity),
        "harness.self_s": self_total("harness.run_experiment"),
        "harness.nb_s": total("harness.nb_fit") + total("harness.nb_predict"),
        "harness.nb_repeat": ratio(len(nb_fits), len({sp.info["key"] for sp in nb_fits})),
        "classifier.fit_s": total("classifier.fit"),
        "classifier.fit_self_s": self_total("classifier.fit"),
        "classifier.predict_s": total("classifier.predict"),
        "classifier.frontier_s": total("classifier.frontier"),
        "classifier.frontier_calls": len(by_name["classifier.frontier"]),
        "classifier.load_s": total("classifier.load"),
    }


def layer_metrics(tracer: Tracer, round_ids, setup_ids) -> dict:
    """Median over traced rounds of each layer metric; data.gen_s per set-up.

    trace.overhead comes from the runner.
    """
    children = defaultdict(list)
    by_op = defaultdict(list)
    for sp in tracer.spans:
        children[sp.parent].append(sp)
        by_op[sp.op].append(sp)
    per_op = [_op_metrics(by_op[i], children) for i in round_ids]
    out = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    out["data.gen_s"] = statistics.median(
        sum(sp.dur for sp in by_op[i] if sp.name.startswith("data.")) for i in setup_ids
    )
    return out
