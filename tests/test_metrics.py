"""Confusion algebra and measure formulas, checked against hand oracles."""
import numpy as np
import pytest

from ofc.errors import EmptyConfusionError, GridMismatchError
from ofc.field import GridSpec, ScalarField
from ofc.metrics import (
    ConfusionCounts,
    MetricsReport,
    confusion_from_predictions,
    metrics_from_counts,
    smoothed_confusion,
    smoothed_delta,
    smoothed_heaviside,
)
from toy1d import N_COUNT, P_COUNT, tail_counts, toy_pair

def test_heaviside_partition_exact():
    y = np.linspace(-40.0, 40.0, 1001)
    h = smoothed_heaviside(y, eps=0.3)
    np.testing.assert_array_equal(h + smoothed_heaviside(-y, eps=0.3), np.ones_like(y))
    assert smoothed_heaviside(0.0, eps=0.3) == 0.5
    # Python scalars in, 0-d results out, equal to the array path
    assert smoothed_heaviside(0.3, eps=0.3) == pytest.approx(0.75)
    assert np.ndim(smoothed_heaviside(1.5, eps=0.3)) == 0
    assert smoothed_heaviside(1.5, eps=0.3) == smoothed_heaviside(np.array([1.5]), eps=0.3)[0]


def test_heaviside_limits():
    assert smoothed_heaviside(100.0, eps=0.01) > 0.999
    assert smoothed_heaviside(-100.0, eps=0.01) < 0.001


def test_delta_is_derivative_of_heaviside():
    y = np.linspace(-3.0, 3.0, 61)
    eps, h = 0.7, 1e-6
    fd = (smoothed_heaviside(y + h, eps) - smoothed_heaviside(y - h, eps)) / (2 * h)
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


# the toy's bounds widened to hold both classes' tails
WIDE = ((-4.0, 8.0),)


def test_smoothed_confusion_partition_identities():
    pair = toy_pair(1536, bounds=WIDE)
    grid = pair.grid
    x = grid.axes()[0]
    u = ScalarField(grid, np.sin(x))  # multiple crossings
    c = smoothed_confusion(u, pair, eps=0.2)
    mass_pos = P_COUNT * np.trapezoid(pair.f_pos.values, x)
    mass_neg = N_COUNT * np.trapezoid(pair.f_neg.values, x)
    assert c.tp + c.fn == pytest.approx(mass_pos, rel=1e-12)
    assert c.fp + c.tn == pytest.approx(mass_neg, rel=1e-12)


def test_smoothed_confusion_matches_analytic_tails():
    pair = toy_pair(1536, bounds=WIDE)
    tau = 3.956
    u = ScalarField(pair.grid, pair.grid.axes()[0] - tau)
    # eps well under the grid spacing: the arctan step has heavy tails, and
    # its bias on the counts is linear in eps.
    m = metrics_from_counts(smoothed_confusion(u, pair, eps=0.001))
    # Oracle: exact Gaussian tail masses on either side of tau.
    tp, _, _, tn = tail_counts(tau)
    acc = (tp + tn) / (P_COUNT + N_COUNT)
    assert m.accuracy == pytest.approx(acc, abs=1e-3)
    assert m.recall == pytest.approx(tp / P_COUNT, abs=2e-3)


def test_smoothed_confusion_grid_mismatch():
    pair = toy_pair(64, bounds=WIDE)
    grid_b = GridSpec(bounds=WIDE, resolution=65)
    u = ScalarField(grid_b, np.zeros(grid_b.shape))
    with pytest.raises(GridMismatchError):
        smoothed_confusion(u, pair, eps=0.1)


def test_smoothed_confusion_bad_eps():
    pair = toy_pair(64, bounds=WIDE)
    u = ScalarField(pair.grid, np.zeros(pair.grid.shape))
    with pytest.raises(ValueError):
        smoothed_confusion(u, pair, eps=0.0)
