"""Confusion counts, classification measures and the smoothed impulse.

Counts are real-valued, so the same measure formulas serve hard
predictions and the smoothed fractions of the energy
(:meth:`ofc.energy.MeasureEnergy.evaluate` with ``return_fractions``).
The smoothed impulse d is the derivative of the smoothed step H:

    H(y) = 1/2 * (1 + (2/pi) * arctan(y / eps))
    d(y) = (1/pi) * eps / (eps**2 + y**2)

This module imports no other ``ofc`` module but :mod:`ofc.errors`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyConfusionError


def smoothed_delta(y, eps: float):
    """Derivative of the smoothed step H; even, mass 1, peak 1/(pi*eps)."""
    y = np.asarray(y)
    return (eps / np.pi) / (eps**2 + y**2)


@dataclass
class ConfusionCounts:
    """True/false positive/negative masses (not necessarily integers)."""

    tp: float
    fp: float
    fn: float
    tn: float

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < -1e-9:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
            setattr(self, name, max(v, 0.0))

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class MetricsReport:
    """Sensitivity measures for one confusion table at one beta."""

    beta: float
    f_beta: float
    accuracy: float
    recall: float
    precision: float
    epsilon: float
    degenerate: bool = False


def check_positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is positive and finite.

    The energy squares beta and eps, so a value whose square overflows is
    refused too.
    """
    value = float(value)
    if not (value > 0 and np.isfinite(value * value)):
        raise ValueError(
            f"{name} must be positive and finite, with a finite square; got {value}"
        )


def metrics_from_counts(counts: ConfusionCounts, beta: float = 1.0) -> MetricsReport:
    """All measures from one confusion table.

    A table with tp == 0 is degenerate, not an error: recall, precision and
    F-beta are 0 and the misclassification ratio epsilon is infinite.
    """
    check_positive("beta", beta)
    if counts.total <= 0:
        raise EmptyConfusionError("confusion table is empty")
    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    accuracy = (tp + tn) / counts.total
    if tp > 0:
        recall = tp / (tp + fn)
        precision = tp / (tp + fp)
        b2 = beta * beta
        f_beta = (1.0 + b2) * recall * precision / (b2 * precision + recall)
        epsilon = (b2 * fn + fp) / tp
        degenerate = False
    else:
        recall = precision = f_beta = 0.0
        epsilon = np.inf
        degenerate = True
    return MetricsReport(beta, f_beta, accuracy, recall, precision, epsilon, degenerate)


def confusion_from_predictions(labels, predictions) -> ConfusionCounts:
    """Hard counts from boolean arrays (True = positive class)."""
    labels = np.asarray(labels, dtype=bool)
    predictions = np.asarray(predictions, dtype=bool)
    if labels.shape != predictions.shape:
        raise ValueError(
            f"labels have shape {labels.shape}, predictions {predictions.shape}"
        )
    return ConfusionCounts(
        tp=float(np.sum(labels & predictions)),
        fp=float(np.sum(~labels & predictions)),
        fn=float(np.sum(labels & ~predictions)),
        tn=float(np.sum(~labels & ~predictions)),
    )
