"""The benchmark's four workloads: inputs from a seed, one op, output checks.

Every call into ``ofc`` goes through the module attribute the library's own
callers look up (``classifier.fit``, ``harness.run_experiment``), so the
tracer in ``spans.py`` sees the benchmark's calls like the library's own.

Why each workload exists is written up in ``bench/README.md``.  In short:
``fit2d`` is the 2-D training path (redistancing-bound), ``fit3d`` the 3-D
one (KDE and the 3-D stencil show), ``cv`` the experiment driver (thread
pool, repeated KDE), and ``score`` the read side (load, predict, frontier)
with no training code at all.
"""
from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from ofc import classifier, data, field, harness, metrics, solver


@dataclass
class OpOutput:
    """What one op produced, for the metrics and the output checks."""

    timings: dict = dc_field(default_factory=dict)  # name -> list of seconds
    rates: dict = dc_field(default_factory=dict)  # name -> items per second
    quality: float = 0.0  # held-out F-beta of this op
    digest: str = ""  # must be identical across the ops of one run
    problems: list = dc_field(default_factory=list)  # failed output checks

    def time(self, name, start):
        self.timings.setdefault(name, []).append(time.perf_counter() - start)


def f_beta(truth, predicted, beta=1.0) -> float:
    counts = metrics.confusion_from_predictions(truth, predicted)
    return metrics.metrics_from_counts(counts, beta=beta).f_beta


class Workload:
    """One workload; ``sizes`` goes into the report's machine block."""

    name = ""
    quality_name = ""  # what OpOutput.quality is called in the report

    def setup(self) -> list:
        """Generate the inputs, one item per kind of op; timed as set-up.

        A run goes round the items in order, one op on each, so a workload
        whose whole pass is long (``fit2d``'s four databases) still gives
        many short ops to take medians of.
        """
        raise NotImplementedError

    def reference(self, inputs) -> None:
        """Compute what the output checks compare against; untimed."""

    def op(self, item) -> OpOutput:
        raise NotImplementedError


def _fold0(dataset, folds, seed):
    train_idx, test_idx = data.kfold(dataset, folds, seed=seed)[0]
    return dataset.subset(train_idx), dataset.subset(test_idx)


DBS = (1, 2, 3, 4)


class Fit2d(Workload):
    """fit + predict + frontier on fold 0 of one of the four 2-D databases."""

    name = "fit2d"
    quality_name = "f1_heldout"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.cfg = (
            solver.TrainConfig(resolution=32, max_iter=60, reinit_every=20)
            if tiny
            else solver.TrainConfig(resolution=64, max_iter=400, reinit_every=50)
        )
        self.sizes = {"dbs": list(DBS), "folds": 5, "resolution": self.cfg.resolution,
                      "max_iter": self.cfg.max_iter, "reinit_every": self.cfg.reinit_every}

    def setup(self):
        return [_fold0(data.gen_db(db, seed=self.seed), 5, self.seed) for db in DBS]

    def op(self, item) -> OpOutput:
        train, test = item
        out = OpOutput()
        t = time.perf_counter()
        model, _ = classifier.fit(train, self.cfg)
        out.time("fit_s", t)
        t = time.perf_counter()
        labels = classifier.predict(model, test.points)
        out.time("predict_s", t)
        t = time.perf_counter()
        lines = classifier.frontier(model)  # raises on a degenerate model
        out.time("frontier_s", t)
        if not lines:
            out.problems.append("empty frontier")
        out.quality = f_beta(test.labels, labels)
        out.digest = hashlib.sha256(model.u.values.tobytes()).hexdigest()
        return out


class Fit3d(Workload):
    """fit + predict on fold 0 of a 3-D torus against a Gaussian blob."""

    name = "fit3d"
    quality_name = "f1_heldout"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n_pos, self.n_neg = (2_000, 8_000) if tiny else (20_000, 80_000)
        self.cfg = (
            solver.TrainConfig(resolution=20, max_iter=30, reinit_every=30)
            if tiny
            else solver.TrainConfig(resolution=32, max_iter=200)
        )
        self.sizes = {"positives": self.n_pos, "negatives": self.n_neg, "folds": 5,
                      "resolution": self.cfg.resolution, "max_iter": self.cfg.max_iter}

    def setup(self):
        rng = np.random.default_rng(self.seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, self.n_pos)
        radius = 2.0 + rng.normal(0.0, 0.5, self.n_pos)
        pos = np.column_stack(
            [radius * np.cos(theta), radius * np.sin(theta), rng.normal(0.0, 0.5, self.n_pos)]
        )
        neg = rng.normal(0.0, 1.0, (self.n_neg, 3))
        labels = np.arange(self.n_pos + self.n_neg) < self.n_pos
        return [_fold0(data.LabeledDataset(np.vstack([pos, neg]), labels), 5, self.seed)]

    def op(self, item) -> OpOutput:
        train, test = item
        out = OpOutput()
        t = time.perf_counter()
        model, _ = classifier.fit(train, self.cfg)
        out.time("fit_s", t)
        t = time.perf_counter()
        labels = classifier.predict(model, test.points)
        out.time("predict_s", t)
        if model.degenerate:
            out.problems.append("degenerate model")
        out.quality = f_beta(test.labels, labels)
        out.digest = hashlib.sha256(model.u.values.tobytes()).hexdigest()
        return out


class CrossValidation(Workload):
    """One repetition of 3-fold CV of ofc and naive Bayes at three betas."""

    name = "cv"
    quality_name = "fbeta_cv_mean"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.cfg = (
            solver.TrainConfig(resolution=16, max_iter=20, reinit_every=10)
            if tiny
            else solver.TrainConfig(resolution=32, max_iter=200)
        )
        self.betas = (0.5, 1.0, 2.0)
        self.sizes = {"db": 4, "classifiers": ["ofc", "nb"], "betas": list(self.betas),
                      "repetitions": 1, "folds": 3, "workers": 2,
                      "resolution": self.cfg.resolution, "max_iter": self.cfg.max_iter}

    def setup(self):
        return [harness.ExperimentSpec(
            data=data.gen_db(4, seed=self.seed),
            classifiers=("ofc", "nb"),
            repetitions=1,
            folds=3,
            betas=self.betas,
            seed=self.seed,
            ofc=self.cfg,
            workers=2,
        )]

    def op(self, spec) -> OpOutput:
        out = OpOutput()
        result = harness.run_experiment(spec)
        expected = len(spec.classifiers) * len(spec.betas) * spec.repetitions * spec.folds
        produced = len(result.outcomes) + len(result.failures)
        if produced != expected:
            out.problems.append(f"{produced} cells reported, {expected} expected")
        out.problems.extend(f"cell failed: {f}" for f in result.failures)
        rows = [r for r in result.summary() if r.classifier == "ofc"]
        if len(rows) != len(spec.betas):
            out.problems.append(f"ofc summary has {len(rows)} rows, {len(spec.betas)} expected")
        out.quality = float(np.mean([r.f_beta_mean for r in rows])) if rows else 0.0
        out.digest = hashlib.sha256(result.raw_csv().encode()).hexdigest()
        return out


# SphereLattice() on a 2-D box: period extent/4 per axis, radius 0.3 * period.
SCORE_BOX = 4.0
SCORE_PERIOD = 2.0 * SCORE_BOX / 4
SCORE_RADIUS = 0.3 * SCORE_PERIOD
SCORE_LOOPS = 16


def lattice_signed_distance(points) -> np.ndarray:
    """Signed distance to the 4x4 lattice of discs, positive inside."""
    centers = -SCORE_BOX + (np.arange(4) + 0.5) * SCORE_PERIOD
    best = np.full(len(points), -np.inf)
    for cx in centers:
        for cy in centers:
            d = SCORE_RADIUS - np.hypot(points[:, 0] - cx, points[:, 1] - cy)
            np.maximum(best, d, out=best)
    return best


class Score(Workload):
    """load + predict + frontier + frontier_csv of a saved 16-loop model."""

    name = "score"
    quality_name = "f1_heldout"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.resolution, self.n_points = (64, 10_000) if tiny else (256, 1_000_000)
        self.workdir = workdir
        self.sizes = {"resolution": self.resolution, "points": self.n_points,
                      "loops": SCORE_LOOPS}

    def setup(self):
        """Build and save the model without training; draw the query points."""
        grid = field.GridSpec(((-SCORE_BOX, SCORE_BOX),) * 2, self.resolution)
        u = field.init_shape(grid, field.SphereLattice())
        model = classifier.TrainedClassifier(
            u=u, kind="f_measure", beta=1.0, k=1.0,
            config=solver.TrainConfig(resolution=self.resolution, init=field.SphereLattice()),
            densities_hash="0" * 64, degenerate=False,
        )
        fd, path = tempfile.mkstemp(suffix=".model", dir=self.workdir)
        os.close(fd)
        classifier.save(model, path)
        rng = np.random.default_rng(self.seed)
        points = rng.uniform(-SCORE_BOX, SCORE_BOX, (self.n_points, 2))
        return [(path, points)]

    def reference(self, inputs) -> None:
        """Exact labels, and the points more than one cell from the frontier."""
        (_, points), = inputs
        sd = lattice_signed_distance(points)
        cell = 2.0 * SCORE_BOX / self.resolution
        self.truth, self.far = sd >= 0, np.abs(sd) > np.sqrt(2.0) * cell

    def op(self, item) -> OpOutput:
        path, points = item
        truth, far = self.truth, self.far
        out = OpOutput()
        t = time.perf_counter()
        model = classifier.load(path)
        out.time("load_s", t)
        t = time.perf_counter()
        labels = classifier.predict(model, points)
        out.time("predict_s", t)
        out.rates["predict_pts_per_s"] = len(points) / out.timings["predict_s"][-1]
        t = time.perf_counter()
        lines = classifier.frontier(model)
        out.time("frontier_s", t)
        t = time.perf_counter()
        text = classifier.frontier_csv(model)
        out.time("frontier_csv_s", t)
        wrong = int(np.count_nonzero((labels != truth) & far))
        if wrong:
            out.problems.append(f"{wrong} labels away from the frontier disagree with the lattice")
        closed = sum(len(p) > 2 and np.array_equal(p[0], p[-1]) for p in lines)
        if len(lines) != SCORE_LOOPS or closed != SCORE_LOOPS:
            out.problems.append(f"frontier has {len(lines)} lines, {closed} closed; want {SCORE_LOOPS} loops")
        blocks = text.strip().count("\n\n") + 1
        if blocks != SCORE_LOOPS:
            out.problems.append(f"frontier_csv has {blocks} blocks, want {SCORE_LOOPS}")
        out.quality = f_beta(truth, labels)
        out.digest = hashlib.sha256(labels.tobytes() + text.encode()).hexdigest()
        return out


def make(name: str, seed: int, tiny: bool, workdir: str):
    if name == "fit2d":
        return Fit2d(seed, tiny)
    if name == "fit3d":
        return Fit3d(seed, tiny)
    if name == "cv":
        return CrossValidation(seed, tiny)
    if name == "score":
        return Score(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
