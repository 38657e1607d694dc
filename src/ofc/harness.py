"""Baselines and the repeated cross-validation experiment driver.

Two reference classifiers accompany the level-set model: a Gaussian Naive
Bayes baseline and a brute-force 1-D threshold sweep that serves as the
ground-truth optimum on one-dimensional problems.  `run_experiment`
repeats stratified k-fold cross-validation for every requested classifier
and beta, pools the confusion counts of each test fold, turns them into
fold metrics, and reports mean +- std across repetitions.

The unit of work is one (repetition, fold) split, run serially.  Work
that does not depend on beta runs once per split: the level-set class
densities, which every beta then trains on, and the naive Bayes fit and
predictions.  Outcomes come out in repetition, fold, classifier, beta
order, so results do not depend on anything but the spec.  The cell
count, wall time and number of failed cells are logged at INFO level on
the ``ofc.harness`` logger.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import densities_for, fit as ofc_fit, predict as ofc_predict
from .data import (
    TOY_NEG_COUNT,
    TOY_NEG_MEAN,
    TOY_POS_COUNT,
    TOY_POS_MEAN,
    TOY_SIGMA,
    LabeledDataset,
    kfold,
)
from .density import DensityPair
from .energy import check_measure
from .errors import DegenerateDataError, DegenerateModelError, DimensionError, OfcError
from .field import GridSpec, ScalarField
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    check_positive,
    confusion_from_predictions,
    metrics_from_counts,
)
from .solver import TrainConfig

logger = logging.getLogger(__name__)

_SQRT_HALF = math.sqrt(0.5)


def _normal_cdf(z):
    """Standard normal CDF: a float for a scalar, an array for an array."""
    if np.ndim(z) == 0:
        return 0.5 * math.erfc(-float(z) * _SQRT_HALF)
    z = np.asarray(z, dtype=float)
    cdf = [0.5 * math.erfc(-v * _SQRT_HALF) for v in z.ravel().tolist()]
    return np.array(cdf).reshape(z.shape)


# ---------------------------------------------------------------------------
# analytic 1-D toy problem


@dataclass(frozen=True)
class AnalyticToy:
    """Two 1-D Gaussian classes with closed-form tail integrals.

    Thresholding at tau (positive class where x >= tau) gives exact
    expected confusion counts, making this the reference problem for
    threshold sweeps and solver calibration.
    """

    pos_mean: float = TOY_POS_MEAN
    neg_mean: float = TOY_NEG_MEAN
    sigma: float = TOY_SIGMA
    p_count: float = TOY_POS_COUNT
    n_count: float = TOY_NEG_COUNT
    lo: float = -2.0
    hi: float = 6.0

    def counts_at(self, tau) -> ConfusionCounts:
        tau = float(tau)
        fn = self.p_count * _normal_cdf((tau - self.pos_mean) / self.sigma)
        fp = self.n_count * _normal_cdf((self.neg_mean - tau) / self.sigma)
        return ConfusionCounts(
            tp=self.p_count - fn, fn=fn, fp=fp, tn=self.n_count - fp
        )

    def metrics_at(self, tau, beta: float = 1.0) -> MetricsReport:
        return metrics_from_counts(self.counts_at(tau), beta=beta)

    def density_pair(self, resolution: int = 1024) -> DensityPair:
        grid = GridSpec(bounds=((self.lo, self.hi),), resolution=resolution)
        x = grid.axes()[0]
        norm = self.sigma * np.sqrt(2.0 * np.pi)
        gauss = lambda m: np.exp(-0.5 * ((x - m) / self.sigma) ** 2) / norm
        return DensityPair(
            f_pos=ScalarField(grid, gauss(self.pos_mean)),
            f_neg=ScalarField(grid, gauss(self.neg_mean)),
            p_count=self.p_count,
            n_count=self.n_count,
        )

    def bayes_threshold(self) -> float:
        """Where count-scaled densities cross (the accuracy optimum)."""
        mid = 0.5 * (self.pos_mean + self.neg_mean)
        gap = self.pos_mean - self.neg_mean
        return mid + self.sigma**2 * np.log(self.n_count / self.p_count) / gap


# ---------------------------------------------------------------------------
# Gaussian Naive Bayes baseline


@dataclass(frozen=True)
class NaiveBayesModel:
    """Per-feature Gaussian class conditionals plus class priors."""

    pos_mean: np.ndarray
    pos_var: np.ndarray
    neg_mean: np.ndarray
    neg_var: np.ndarray
    log_prior_ratio: float  # log P(+) - log P(-)


def naive_bayes_fit(data: LabeledDataset, var_floor: float = 1e-9) -> NaiveBayesModel:
    pos, neg = data.positives(), data.negatives()
    if len(pos) < 2 or len(neg) < 2:
        raise DegenerateDataError(
            f"naive Bayes needs at least 2 samples per class, got "
            f"{len(pos)} positive and {len(neg)} negative"
        )
    stats = []
    for name, pts in (("positive", pos), ("negative", neg)):
        var = np.maximum(pts.var(axis=0), var_floor)
        if (var <= 0).any():
            raise DegenerateDataError(f"{name} class has a zero-variance feature")
        stats.append((pts.mean(axis=0), var))
    return NaiveBayesModel(
        pos_mean=stats[0][0],
        pos_var=stats[0][1],
        neg_mean=stats[1][0],
        neg_var=stats[1][1],
        log_prior_ratio=float(np.log(len(pos)) - np.log(len(neg))),
    )


def naive_bayes_decision(m: NaiveBayesModel, points) -> np.ndarray:
    """Log-posterior difference log P(+|x) - log P(-|x) per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))

    def log_like(mean, var):
        return -0.5 * (
            np.log(2.0 * np.pi * var) + (pts - mean) ** 2 / var
        ).sum(axis=1)

    return (
        m.log_prior_ratio
        + log_like(m.pos_mean, m.pos_var)
        - log_like(m.neg_mean, m.neg_var)
    )


def naive_bayes_predict(m: NaiveBayesModel, points) -> np.ndarray:
    """True where the positive class is at least as probable (ties positive)."""
    return naive_bayes_decision(m, points) >= 0


# ---------------------------------------------------------------------------
# brute-force threshold oracle (1-D)


def _metric_curves(tp, fn, fp, tn, beta, metric):
    if metric == "f_beta":
        b2 = beta * beta
        den = (1.0 + b2) * tp + b2 * fn + fp
        return np.where(tp > 0, (1.0 + b2) * tp / np.where(den > 0, den, 1.0), 0.0)
    if metric == "accuracy":
        return (tp + tn) / (tp + fn + fp + tn)
    raise ValueError(f"unknown metric {metric!r}")


def threshold_oracle(source, beta: float = 1.0, steps: int = 2000, metric: str = "f_beta"):
    """Best single threshold for labeling x >= tau positive.

    ``source`` is a 1-D LabeledDataset (empirical counts) or an
    AnalyticToy (exact tail integrals).  Sweeps ``steps`` equally spaced
    taus and returns (tau*, metrics at tau*); ties resolve to the
    smallest tau.
    """
    check_positive("beta", beta)
    if steps < 2:
        raise ValueError(f"need at least 2 sweep steps, got {steps}")
    if isinstance(source, AnalyticToy):
        taus = np.linspace(source.lo, source.hi, steps)
        fn = source.p_count * _normal_cdf((taus - source.pos_mean) / source.sigma)
        fp = source.n_count * _normal_cdf((source.neg_mean - taus) / source.sigma)
        tp = source.p_count - fn
        tn = source.n_count - fp
    else:
        if source.dim != 1:
            raise DimensionError(
                f"threshold sweep needs 1-D data, got {source.dim}-D"
            )
        x = source.points[:, 0]
        taus = np.linspace(x.min(), x.max(), steps)
        pos = np.sort(source.positives()[:, 0])
        neg = np.sort(source.negatives()[:, 0])
        tp = len(pos) - np.searchsorted(pos, taus, side="left")
        fp = len(neg) - np.searchsorted(neg, taus, side="left")
        fn = len(pos) - tp
        tn = len(neg) - fp
    curve = _metric_curves(
        tp.astype(float), fn.astype(float), fp.astype(float), tn.astype(float),
        beta, metric,
    )
    best = int(np.argmax(curve))  # first maximum: smallest tau wins ties
    tau = float(taus[best])
    counts = ConfusionCounts(
        tp=float(tp[best]), fn=float(fn[best]), fp=float(fp[best]), tn=float(tn[best])
    )
    return tau, metrics_from_counts(counts, beta=beta)


# ---------------------------------------------------------------------------
# experiment driver


_KNOWN_CLASSIFIERS = ("ofc", "nb", "oracle")


@dataclass(frozen=True)
class ExperimentSpec:
    """One cross-validated comparison: dataset x classifiers x betas.

    ``workers`` is still accepted and must be at least 1, so existing
    specs and config files keep working, but it no longer changes how the
    experiment runs: every (repetition, fold) task runs in the calling
    thread.
    """

    data: LabeledDataset
    classifiers: tuple = ("ofc", "nb")
    repetitions: int = 10
    folds: int = 10
    betas: tuple = (1.0,)
    seed: int = 0
    ofc: TrainConfig = field(default_factory=TrainConfig)
    ofc_measure: str = "f_measure"
    ofc_bandwidth: float = None  # type: ignore[assignment]
    oracle_steps: int = 2000
    workers: int = 1

    def __post_init__(self):
        for c in self.classifiers:
            if c not in _KNOWN_CLASSIFIERS:
                raise ValueError(
                    f"unknown classifier {c!r}; choose from {_KNOWN_CLASSIFIERS}"
                )
        # a repeat would train and report the same cells twice
        for name in ("classifiers", "betas"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.betas:
            raise ValueError("beta grid must be nonempty")
        for b in self.betas:
            check_positive("beta", b)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        check_measure(self.ofc_measure, self.ofc.descent)


@dataclass(frozen=True)
class FoldOutcome:
    classifier: str
    beta: float
    repetition: int
    fold: int
    counts: ConfusionCounts
    report: MetricsReport


@dataclass(frozen=True)
class CellFailure:
    classifier: str
    beta: float
    repetition: int
    fold: int
    message: str


@dataclass(frozen=True)
class SummaryRow:
    classifier: str
    beta: float
    f_beta_mean: float
    f_beta_std: float
    accuracy_mean: float
    accuracy_std: float
    recall_mean: float
    recall_std: float
    precision_mean: float
    precision_std: float
    folds_used: int


# the MetricsReport fields the tables report, in column order, and the
# SummaryRow fields of their mean and std across repetitions
_REPORTED = ("f_beta", "accuracy", "recall", "precision")
_SUMMARIZED = tuple(f"{name}_{stat}" for name in _REPORTED for stat in ("mean", "std"))

RAW_HEADER = ",".join(
    ["classifier", "beta", "repetition", "fold", "tp", "fn", "fp", "tn"]
    + [f"{name}_pct" for name in _REPORTED]
)
SUMMARY_HEADER = ",".join(
    ["classifier", "beta"] + [f"{name}_pct" for name in _SUMMARIZED] + ["folds_used"]
)


@dataclass
class ExperimentResult:
    """Per-fold outcomes plus failures; aggregation happens on demand."""

    spec: ExperimentSpec
    outcomes: list
    failures: list

    def summary(self) -> list:
        rows = []
        for clf in self.spec.classifiers:
            for beta in self.spec.betas:
                cells = [
                    o for o in self.outcomes
                    if o.classifier == clf and o.beta == beta
                ]
                if not cells:
                    continue
                per_rep = []
                for rep in sorted({o.repetition for o in cells}):
                    fold_reports = [o.report for o in cells if o.repetition == rep]
                    per_rep.append(
                        [
                            float(np.mean([getattr(r, m) for r in fold_reports]))
                            for m in _REPORTED
                        ]
                    )
                arr = np.array(per_rep)
                stds = arr.std(axis=0, ddof=1) if len(per_rep) > 1 else np.zeros(len(_REPORTED))
                stats = np.column_stack([arr.mean(axis=0), stds]).ravel().tolist()
                rows.append(SummaryRow(
                    classifier=clf, beta=beta, folds_used=len(cells),
                    **dict(zip(_SUMMARIZED, stats)),
                ))
        return rows

    def raw_csv(self) -> str:
        lines = [
            "# one row per classifier x beta x repetition x test fold",
            "# confusion counts pooled over the fold's test points",
            RAW_HEADER,
        ]
        for o in self.outcomes:
            c = o.counts
            lines.append(",".join(
                [o.classifier, repr(o.beta), str(o.repetition), str(o.fold),
                 repr(c.tp), repr(c.fn), repr(c.fp), repr(c.tn)]
                + [repr(100 * getattr(o.report, name)) for name in _REPORTED]
            ))
        for f in self.failures:
            lines.append(
                f"# failed: {f.classifier},beta={f.beta!r},rep={f.repetition},"
                f"fold={f.fold}: {f.message}"
            )
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        lines = [
            "# fold metrics averaged per repetition; mean/std across repetitions",
            SUMMARY_HEADER,
        ]
        for s in self.summary():
            lines.append(",".join(
                [s.classifier, repr(s.beta)]
                + [repr(100 * getattr(s, name)) for name in _SUMMARIZED]
                + [str(s.folds_used)]
            ))
        return "\n".join(lines) + "\n"

    def sweep_csv(self) -> str:
        """Mean F_beta per beta, one column per classifier (plot-ready)."""
        rows = self.summary()
        clfs = list(self.spec.classifiers)
        lines = ["beta," + ",".join(clfs)]
        for beta in self.spec.betas:
            cells = []
            for clf in clfs:
                match = [
                    r for r in rows if r.classifier == clf and r.beta == beta
                ]
                cells.append(repr(100 * match[0].f_beta_mean) if match else "")
            lines.append(f"{beta!r}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def _attempt(work):
    """(result, None), or (None, failure message) when ``work`` raises."""
    try:
        return work(), None
    except (OfcError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _run_cell(spec: ExperimentSpec, clf, beta, train_data, test_data, shared):
    """Confusion counts of one classifier at one beta.

    ``shared`` is what the classifier computed once for every beta: the
    class densities for "ofc", the test predictions for "nb".
    """
    if clf == "ofc":
        cfg = replace(spec.ofc, beta=beta)
        model, _ = ofc_fit(train_data, cfg, measure=spec.ofc_measure, densities=shared)
        if model.degenerate:
            raise DegenerateModelError(
                "the trained field never changes sign: the model answers one class"
            )
        predicted = ofc_predict(model, test_data.points)
    elif clf == "nb":
        predicted = shared
    else:  # oracle, at the threshold that maximizes the experiment's measure
        metric = "accuracy" if spec.ofc_measure == "accuracy" else "f_beta"
        tau, _ = threshold_oracle(train_data, beta=beta, steps=spec.oracle_steps, metric=metric)
        predicted = test_data.points[:, 0] >= tau
    return confusion_from_predictions(test_data.labels, predicted)


def _run_fold(spec: ExperimentSpec, rep: int, fold_n: int, train_data, test_data) -> list:
    """A FoldOutcome or CellFailure per classifier x beta of one split.

    The work that does not depend on beta runs once, and its failure is
    reported in every beta cell of that classifier.
    """
    shared = {}  # classifier -> (result, failure message)
    if "ofc" in spec.classifiers:
        shared["ofc"] = _attempt(
            lambda: densities_for(train_data, spec.ofc, spec.ofc_bandwidth)
        )
    if "nb" in spec.classifiers:
        shared["nb"] = _attempt(
            lambda: naive_bayes_predict(naive_bayes_fit(train_data), test_data.points)
        )
    produced = []
    for clf in spec.classifiers:
        common, common_error = shared.get(clf, (None, None))
        for beta in spec.betas:

            def cell():
                counts = _run_cell(spec, clf, beta, train_data, test_data, common)
                report = metrics_from_counts(counts, beta=beta)
                return FoldOutcome(clf, beta, rep, fold_n, counts, report)

            outcome, error = _attempt(cell) if common_error is None else (None, common_error)
            produced.append(outcome or CellFailure(clf, beta, rep, fold_n, error))
    return produced


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Cross-validate every classifier; never abort on a single cell.

    Cells come out in repetition, fold, classifier, beta order.
    """
    started = time.monotonic()
    produced = []
    for rep in range(spec.repetitions):
        folds = kfold(spec.data, spec.folds, seed=spec.seed + rep)
        for fold_n, (train_idx, test_idx) in enumerate(folds):
            produced += _run_fold(
                spec, rep, fold_n, spec.data.subset(train_idx), spec.data.subset(test_idx)
            )
    outcomes = [p for p in produced if isinstance(p, FoldOutcome)]
    failures = [p for p in produced if isinstance(p, CellFailure)]
    logger.info(
        "experiment: %d cells in %.1fs (%d failed)",
        len(produced), time.monotonic() - started, len(failures),
    )
    return ExperimentResult(spec=spec, outcomes=outcomes, failures=failures)
