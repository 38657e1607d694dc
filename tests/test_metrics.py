"""Confusion algebra and measure formulas, checked against hand oracles."""
import numpy as np
import pytest

from ofc.errors import EmptyConfusionError
from ofc.metrics import (
    ConfusionCounts,
    confusion_from_predictions,
    metrics_from_counts,
    smoothed_delta,
)


def test_delta_is_derivative_of_heaviside():
    y = np.linspace(-3.0, 3.0, 61)
    eps, h = 0.7, 1e-6
    step = lambda v: 0.5 * (1.0 + (2.0 / np.pi) * np.arctan(np.asarray(v) / eps))
    fd = (step(y + h) - step(y - h)) / (2 * h)
    np.testing.assert_allclose(smoothed_delta(y, eps), fd, rtol=1e-6)


def test_delta_even_and_unit_mass():
    y = np.linspace(0.0, 2000.0, 200001)
    np.testing.assert_array_equal(smoothed_delta(y, 0.5), smoothed_delta(-y, 0.5))
    yy = np.concatenate([-y[:0:-1], y])
    assert np.trapezoid(smoothed_delta(yy, 0.5), yy) == pytest.approx(1.0, abs=1e-3)
    # Python scalars in, 0-d results out, equal to the array path
    assert smoothed_delta(0.0, 0.5) == pytest.approx(1.0 / (np.pi * 0.5))
    assert smoothed_delta(0.5, 0.5) == pytest.approx(0.5 / (np.pi * 0.5))
    assert np.ndim(smoothed_delta(1.5, 0.5)) == 0
    assert smoothed_delta(1.5, 0.5) == smoothed_delta(np.array([1.5]), 0.5)[0]


def _counts_from_rates(recall, precision, n_pos, n_neg):
    """Rebuild a confusion table from recall/precision and class sizes."""
    tp = recall * n_pos
    fp = tp * (1.0 / precision - 1.0)
    return ConfusionCounts(tp=tp, fp=fp, fn=n_pos - tp, tn=n_neg - fp)


def test_published_style_rows_reproduced():
    # Two imbalanced-ring rows: measures recomputed from their own
    # recall/precision must land on the tabulated percentages.
    m = metrics_from_counts(_counts_from_rates(0.7825, 0.2145, 1000, 10000), beta=1.0)
    assert 100 * m.f_beta == pytest.approx(33.67, abs=0.05)
    assert 100 * m.accuracy == pytest.approx(71.97, abs=0.05)
    assert 100 * m.recall == pytest.approx(78.25, abs=0.05)
    assert 100 * m.precision == pytest.approx(21.45, abs=0.05)

    m = metrics_from_counts(_counts_from_rates(0.0081, 0.1637, 1000, 10000), beta=1.0)
    assert 100 * m.f_beta == pytest.approx(1.54, abs=0.05)
    assert 100 * m.accuracy == pytest.approx(90.61, abs=0.05)


def test_f_beta_epsilon_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tp, fp, fn, tn = rng.uniform(0.5, 100.0, size=4)
        beta = rng.uniform(0.05, 20.0)
        m = metrics_from_counts(ConfusionCounts(tp, fp, fn, tn), beta=beta)
        b2 = beta * beta
        assert m.f_beta == pytest.approx((1 + b2) / (1 + b2 + m.epsilon), rel=1e-12)


def test_f_beta_limits_are_recall_and_precision():
    c = ConfusionCounts(tp=30.0, fp=20.0, fn=70.0, tn=880.0)
    assert metrics_from_counts(c, beta=100.0).f_beta == pytest.approx(0.3, abs=1e-2)
    assert metrics_from_counts(c, beta=0.01).f_beta == pytest.approx(0.6, abs=1e-2)


def test_f_monotone_in_epsilon():
    rng = np.random.default_rng(11)
    tables = [ConfusionCounts(*rng.uniform(0.5, 50.0, size=4)) for _ in range(30)]
    reports = [metrics_from_counts(c, beta=2.0) for c in tables]
    by_eps = sorted(reports, key=lambda m: m.epsilon)
    assert [m.f_beta for m in by_eps] == sorted((m.f_beta for m in reports), reverse=True)


def test_zero_tp_is_degenerate_not_error():
    m = metrics_from_counts(ConfusionCounts(0.0, 5.0, 10.0, 85.0))
    assert m.degenerate
    assert m.f_beta == 0.0 and m.recall == 0.0 and m.precision == 0.0
    assert np.isinf(m.epsilon)
    assert m.accuracy == pytest.approx(0.85)


def test_empty_confusion_rejected():
    with pytest.raises(EmptyConfusionError):
        metrics_from_counts(ConfusionCounts(0.0, 0.0, 0.0, 0.0))


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1.0, fp=0.0, fn=0.0, tn=1.0)


def test_bad_beta_rejected():
    for beta in (0.0, float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError):
            metrics_from_counts(ConfusionCounts(1.0, 1.0, 1.0, 1.0), beta=beta)


def test_confusion_from_predictions():
    labels = np.array([True, True, True, False, False, False, False])
    preds = np.array([True, True, False, True, False, False, False])
    c = confusion_from_predictions(labels, preds)
    assert (c.tp, c.fp, c.fn, c.tn) == (2.0, 1.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        confusion_from_predictions(labels, preds[:-1])

