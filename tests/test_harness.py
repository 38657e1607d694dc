"""Baselines, the threshold sweep oracle, and the experiment driver."""
import logging
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import ofc.classifier
import ofc.density
import ofc.harness
from ofc.data import LabeledDataset, gen_db, gen_toy1d, kfold
from ofc.errors import DegenerateDataError, DimensionError
from ofc.harness import (
    ExperimentSpec,
    naive_bayes_decision,
    naive_bayes_fit,
    naive_bayes_predict,
    run_experiment,
    threshold_oracle,
)
from ofc.metrics import confusion_from_predictions, metrics_from_counts
from ofc.solver import TrainConfig


def nb_threshold(model, lo, hi):
    return brentq(lambda t: naive_bayes_decision(model, [[t]])[0], lo, hi)


# ---------------------------------------------------------------------------
# runtime dependencies


# a whole run: a 2-D fit, its predictions and frontier, and a 1-D experiment
# with every classifier
WHOLE_RUN = """
import numpy as np
from ofc import ExperimentSpec, TrainConfig, fit, frontier, gen_db, gen_toy1d, predict
from ofc import run_experiment
data = gen_db(4).subset(np.arange(0, 11000, 20))
model, _ = fit(data, TrainConfig(resolution=16, max_iter=50))
predict(model, data.points)
frontier(model)
toy = gen_toy1d(0).subset(np.arange(0, 51000, 50))
spec = ExperimentSpec(data=toy, classifiers=("ofc", "nb", "oracle"), repetitions=1,
                      folds=2, ofc=TrainConfig(resolution=16, max_iter=50))
assert not run_experiment(spec).failures
"""


def test_import_does_not_load_scipy():
    src = str(Path(ofc.harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    loaded = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    for run in ("import ofc", WHOLE_RUN):
        done = subprocess.run(
            [sys.executable, "-c", f"{run}\n{loaded}"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Gaussian Naive Bayes


def test_naive_bayes_toy_threshold_matches_bayes_rule():
    model = naive_bayes_fit(gen_toy1d(seed=0))
    assert nb_threshold(model, 3.0, 5.0) == pytest.approx(3.956, abs=0.05)


def test_naive_bayes_symmetric_classes_split_at_zero():
    rng = np.random.default_rng(5)
    pts = np.vstack(
        [rng.normal(1.0, 1.0, (4000, 1)), rng.normal(-1.0, 1.0, (4000, 1))]
    )
    data = LabeledDataset(pts, np.arange(8000) < 4000)
    model = naive_bayes_fit(data)
    assert nb_threshold(model, -1.0, 1.0) == pytest.approx(0.0, abs=0.05)


def test_naive_bayes_predict_is_decision_sign():
    data = gen_toy1d(seed=2).subset(np.arange(0, 51000, 17))
    model = naive_bayes_fit(data)
    pts = np.linspace(-2.0, 6.0, 50)[:, None]
    np.testing.assert_array_equal(
        naive_bayes_predict(model, pts), naive_bayes_decision(model, pts) >= 0
    )


def test_naive_bayes_zero_variance_guard():
    pts = np.array([[1.0, 0.5], [1.0, 0.7], [2.0, 0.1], [2.1, 0.2]])
    labels = np.array([True, True, False, False])
    data = LabeledDataset(pts, labels)
    # first feature of the positive class is constant; the floor keeps it finite
    model = naive_bayes_fit(data)
    assert np.isfinite(naive_bayes_decision(model, pts)).all()


def reference_nb_decision(model, points):
    """naive_bayes_decision by the row-wise formula over (n, d) points."""
    pts = np.atleast_2d(points)

    def log_like(mean, var):
        return -0.5 * (np.log(2.0 * np.pi * var) + (pts - mean) ** 2 / var).sum(axis=1)

    return (model.log_prior_ratio + log_like(model.pos_mean, model.pos_var)
            - log_like(model.neg_mean, model.neg_var))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_naive_bayes_matches_the_row_wise_formulas(dim):
    rng = np.random.default_rng(dim)
    scale = rng.uniform(0.1, 10.0, dim)
    pts = rng.normal(size=(3000, dim)) * scale
    data = LabeledDataset(pts, rng.random(3000) < 0.2 + 0.6 * (pts[:, 0] > 0))
    model = naive_bayes_fit(data)
    for cls, mean, var in ((data.positives(), model.pos_mean, model.pos_var),
                           (data.negatives(), model.neg_mean, model.neg_var)):
        # the sums run in another order, so the moments agree to rounding
        np.testing.assert_allclose(mean, cls.mean(axis=0), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(var, cls.var(axis=0), rtol=1e-12)
    queries = rng.normal(size=(500, dim)) * 3.0 * scale
    for q in (queries, np.asfortranarray(queries), np.repeat(queries, 2, axis=0)[::2]):
        before = q.copy()
        assert naive_bayes_decision(model, q).tobytes() == reference_nb_decision(model, q).tobytes()
        assert q.tobytes() == before.tobytes()


def test_naive_bayes_refuses_points_of_another_width():
    model = naive_bayes_fit(gen_db(4).subset(np.arange(0, 11000, 20)))
    for width in (1, 3):
        with pytest.raises(DimensionError, match=f"points have {width} features"):
            naive_bayes_decision(model, np.zeros((4, width)))


def test_naive_bayes_needs_two_samples_per_class():
    data = LabeledDataset(np.array([[0.0], [1.0], [2.0]]), np.array([True, False, False]))
    with pytest.raises(DegenerateDataError):
        naive_bayes_fit(data)


# ---------------------------------------------------------------------------
# threshold oracle


def test_oracle_tie_breaks_to_smallest_tau():
    pos = np.linspace(2.0, 3.0, 6)[:, None]
    neg = np.linspace(0.0, 1.0, 10)[:, None]
    data = LabeledDataset(np.vstack([pos, neg]), np.arange(16) < 6)
    tau, report = threshold_oracle(data)
    assert report.f_beta == 1.0
    # every tau in (1, 2] separates the classes; the oracle takes the gap's middle
    assert tau == 1.5


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.one_of(
                st.integers(-3, 3).map(float),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    ),
    beta=st.sampled_from((0.5, 1.0, 2.0)),
)
def test_oracle_is_the_exact_empirical_optimum(points, beta):
    x = np.array([p for p, _ in points])
    labels = np.array([lab for _, lab in points])
    data = LabeledDataset(x[:, None], labels)
    # every labeling a threshold can make: x >= t for each value, and none
    cuts = [*np.unique(x), np.inf]
    brute = [
        metrics_from_counts(confusion_from_predictions(labels, x >= t), beta=beta)
        for t in cuts
    ]
    for metric, best in (
        ("f_beta", max(r.f_beta for r in brute)),
        ("accuracy", max(r.accuracy for r in brute)),
    ):
        tau, report = threshold_oracle(data, beta=beta, metric=metric)
        assert getattr(report, metric) == pytest.approx(best, rel=1e-12, abs=1e-15)
        # the returned tau attains the reported optimum
        attained = metrics_from_counts(confusion_from_predictions(labels, x >= tau), beta)
        assert attained == report


def test_oracle_large_beta_floods_toward_recall():
    data = gen_toy1d(seed=0)
    tau1, _ = threshold_oracle(data, beta=1.0)
    tau100, rep100 = threshold_oracle(data, beta=100.0)
    assert tau100 < tau1
    assert rep100.recall >= 0.99


def test_oracle_accuracy_metric_agrees_with_naive_bayes():
    data = gen_toy1d(seed=0)
    tau_acc, _ = threshold_oracle(data, metric="accuracy")
    model = naive_bayes_fit(data)
    two_steps = 2 * (data.points.max() - data.points.min()) / 199  # about 1% of the data's range
    assert abs(tau_acc - nb_threshold(model, 3.0, 5.0)) <= two_steps


def test_oracle_input_validation():
    data2d = LabeledDataset(np.zeros((6, 2)) + np.arange(6)[:, None], np.arange(6) < 3)
    with pytest.raises(DimensionError):
        threshold_oracle(data2d)
    data1d = small_separable()
    with pytest.raises(ValueError):
        threshold_oracle(data1d, beta=0.0)
    with pytest.raises(ValueError, match="finite"):
        threshold_oracle(data1d, beta=float("inf"))
    with pytest.raises(ValueError):
        threshold_oracle(data1d, metric="auc")


# ---------------------------------------------------------------------------
# experiment driver


def small_separable(n=30, seed=9):
    rng = np.random.default_rng(seed)
    pos = rng.normal(4.0, 0.3, (n // 2, 1))
    neg = rng.normal(0.0, 0.3, (n - n // 2, 1))
    return LabeledDataset(np.vstack([pos, neg]), np.arange(n) < n // 2)


FAST_OFC = TrainConfig(resolution=64, max_iter=100, reinit_every=25)


def test_experiment_spec_validation():
    data = small_separable()
    with pytest.raises(ValueError):
        ExperimentSpec(data=data, classifiers=("svm",))
    with pytest.raises(ValueError):
        ExperimentSpec(data=data, repetitions=0)
    with pytest.raises(ValueError):
        ExperimentSpec(data=data, betas=())
    with pytest.raises(ValueError):
        ExperimentSpec(data=data, betas=(0.0,))
    with pytest.raises(ValueError, match="finite"):
        ExperimentSpec(data=data, betas=(1.0, float("nan")))
    with pytest.raises(ValueError):
        ExperimentSpec(data=data, workers=0)


def test_experiment_spec_rejects_repeated_cells():
    data = small_separable()
    with pytest.raises(ValueError, match="classifiers must not repeat"):
        ExperimentSpec(data=data, classifiers=("nb", "nb"))
    with pytest.raises(ValueError, match="betas must not repeat"):
        ExperimentSpec(data=data, betas=(1.0, 2.0, 1))


def test_experiment_smoke_two_rows_no_failures():
    spec = ExperimentSpec(
        data=small_separable(),
        classifiers=("nb", "oracle"),
        repetitions=1,
        folds=2,
        seed=4,
    )
    result = run_experiment(spec)
    assert not result.failures
    rows = result.summary()
    assert [r.classifier for r in rows] == ["nb", "oracle"]
    assert all(r.folds_used == 2 for r in rows)
    # naive Bayes separates the wide gap perfectly; the oracle's threshold
    # sits in the middle of the training data's gap, so a test point may
    # still fall on its wrong side
    by_name = {r.classifier: r for r in rows}
    assert by_name["nb"].f_beta_mean == pytest.approx(1.0)
    assert by_name["oracle"].f_beta_mean > 0.9
    assert all(r.f_beta_std == 0.0 for r in rows)


def test_oracle_cells_maximize_the_experiment_measure():
    # at a 1:50 imbalance the accuracy optimum lies well right of F1's
    data = gen_toy1d(seed=0).subset(np.arange(0, 51000, 10))
    spec = ExperimentSpec(data=data, classifiers=("oracle",), repetitions=1, folds=2,
                          seed=3, ofc_measure="accuracy")
    cell = run_experiment(spec).outcomes[0]
    train_idx, test_idx = kfold(data, 2, seed=3)[0]
    train, test = data.subset(train_idx), data.subset(test_idx)
    tau, _ = threshold_oracle(train, metric="accuracy")
    assert tau != threshold_oracle(train)[0]
    assert (cell.repetition, cell.fold) == (0, 0)
    assert cell.counts == confusion_from_predictions(test.labels, test.points[:, 0] >= tau)


def test_experiment_includes_level_set_classifier():
    spec = ExperimentSpec(
        data=small_separable(60),
        classifiers=("ofc",),
        repetitions=1,
        folds=3,
        ofc=FAST_OFC,
        seed=1,
    )
    result = run_experiment(spec)
    assert not result.failures
    (row,) = result.summary()
    assert row.classifier == "ofc"
    assert row.f_beta_mean > 0.99  # wide margin between the classes


def test_experiment_summary_recomputable_from_raw_csv():
    spec = ExperimentSpec(
        data=small_separable(50, seed=3),
        classifiers=("nb", "oracle"),
        repetitions=3,
        folds=2,
        betas=(0.5, 1.0),
        seed=7,
    )
    result = run_experiment(spec)
    rows = {}  # (clf, beta, rep) -> fold f_beta values
    for line in result.raw_csv().splitlines():
        if line.startswith("#") or line.startswith("classifier"):
            continue
        parts = line.split(",")
        key = (parts[0], float(parts[1]), int(parts[2]))
        rows.setdefault(key, []).append(float(parts[8]) / 100.0)
    for s in result.summary():
        reps = sorted(r for (c, b, r) in rows if c == s.classifier and b == s.beta)
        per_rep = [np.mean(rows[(s.classifier, s.beta, r)]) for r in reps]
        assert s.f_beta_mean == pytest.approx(np.mean(per_rep), rel=1e-12)
        assert s.f_beta_std == pytest.approx(np.std(per_rep, ddof=1), rel=1e-12)


def test_experiment_is_deterministic_across_runs_and_workers():
    spec = ExperimentSpec(
        data=small_separable(40, seed=2),
        classifiers=("ofc", "nb", "oracle"),
        repetitions=2,
        folds=2,
        betas=(0.5, 1.0),
        seed=11,
        ofc=TrainConfig(resolution=16, max_iter=20),
        workers=4,
    )
    first = run_experiment(spec)
    again = run_experiment(spec)
    serial = run_experiment(replace(spec, workers=1))
    assert not first.failures
    assert {o.classifier for o in first.outcomes} == {"ofc", "nb", "oracle"}
    assert first.raw_csv() == again.raw_csv() == serial.raw_csv()
    assert first.summary_csv() == again.summary_csv() == serial.summary_csv()


def test_experiment_records_failures_without_aborting():
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.normal(3.0, 1.0, (2, 1)), rng.normal(0.0, 1.0, (38, 1))])
    data = LabeledDataset(pts, np.arange(40) < 2)
    # each training fold holds one positive: too few for naive Bayes, but
    # the threshold oracle still runs
    spec = ExperimentSpec(
        data=data, classifiers=("nb", "oracle"), repetitions=1, folds=2, seed=0
    )
    result = run_experiment(spec)
    assert len(result.failures) == 2  # one per fold
    assert all("DegenerateDataError" in f.message for f in result.failures)
    assert [r.classifier for r in result.summary()] == ["oracle"]


def test_experiment_logs_its_wall_time_to_three_digits(caplog):
    # a run of a few tens of milliseconds must not log "in 0.0s"
    data = gen_db(4, seed=0)
    spec = ExperimentSpec(
        data=data.subset(np.arange(0, len(data.labels), 5)), repetitions=1, folds=2,
        ofc=TrainConfig(resolution=16),
    )
    with caplog.at_level(logging.INFO, logger="ofc.harness"):
        started = time.monotonic()
        run_experiment(spec)
        elapsed = time.monotonic() - started
    [message] = [r.getMessage() for r in caplog.records if r.name == "ofc.harness"]
    logged = re.fullmatch(r"experiment: 4 cells in (\S+)s \(0 failed\)", message)
    # the logged time lies within the measured one, up to its rounding to
    # three digits (at most 0.5 %)
    assert logged and 0.5 * elapsed < float(logged[1]) <= 1.005 * elapsed


def test_experiment_spec_refuses_the_oracle_on_multi_feature_data():
    data = LabeledDataset(np.arange(12.0).reshape(6, 2), np.arange(6) < 3)
    with pytest.raises(ValueError, match="2-D"):
        ExperimentSpec(data=data, classifiers=("nb", "oracle"))
    assert ExperimentSpec(data=data, classifiers=("nb",)).classifiers == ("nb",)


def test_experiment_beta_sweep_csv():
    spec = ExperimentSpec(
        data=small_separable(40, seed=6),
        classifiers=("nb",),
        repetitions=1,
        folds=2,
        betas=(0.5, 1.0, 2.0),
        seed=3,
    )
    result = run_experiment(spec)
    lines = result.sweep_csv().splitlines()
    assert lines[0] == "beta,nb"
    assert len(lines) == 4
    for line, beta in zip(lines[1:], (0.5, 1.0, 2.0)):
        b, val = line.split(",")
        assert float(b) == beta
        assert 0.0 <= float(val) <= 100.0


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that every call is counted."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_experiment_estimates_densities_and_naive_bayes_once_per_fold(monkeypatch):
    kde = counting(monkeypatch, ofc.density, "density_on_grid")
    nb = counting(monkeypatch, ofc.harness, "naive_bayes_fit")
    spec = ExperimentSpec(
        data=small_separable(60, seed=4),
        classifiers=("ofc", "nb"),
        repetitions=2,
        folds=3,
        betas=(0.5, 1.0, 2.0),
        ofc=TrainConfig(resolution=16, max_iter=10),
        seed=2,
    )
    result = run_experiment(spec)
    assert not result.failures
    assert len(result.outcomes) == 2 * 3 * 2 * 3
    assert len(kde) == 2 * 6  # two classes per (repetition, fold)
    assert len(nb) == 6
    order = [(o.repetition, o.fold, o.classifier, o.beta) for o in result.outcomes]
    assert order == [
        (rep, fold, clf, beta)
        for rep in range(2) for fold in range(3)
        for clf in ("ofc", "nb") for beta in (0.5, 1.0, 2.0)
    ]


def test_experiment_density_failure_fails_every_beta_of_the_fold(monkeypatch):
    # constant positives: the level-set densities cannot be estimated
    # (zero variance) while naive Bayes floors the variance and the
    # threshold sweep does not care
    rng = np.random.default_rng(1)
    pts = np.vstack([np.full((12, 1), 4.0), rng.normal(0.0, 0.3, (18, 1))])
    data = LabeledDataset(pts, np.arange(30) < 12)
    pairs = counting(monkeypatch, ofc.classifier, "estimate_pair")
    spec = ExperimentSpec(
        data=data,
        classifiers=("ofc", "nb", "oracle"),
        repetitions=1,
        folds=2,
        betas=(0.5, 1.0, 2.0),
        ofc=TrainConfig(resolution=16, max_iter=10),
        seed=0,
    )
    result = run_experiment(spec)
    assert len(pairs) == 2  # one attempt per fold, not one per beta
    assert [(f.classifier, f.beta, f.fold) for f in result.failures] == [
        ("ofc", beta, fold) for fold in range(2) for beta in (0.5, 1.0, 2.0)
    ]
    messages = {f.message for f in result.failures}
    assert len(messages) == 1
    (message,) = messages
    assert message.startswith("DegenerateDataError: positive class:")
    assert [(o.classifier, o.fold) for o in result.outcomes] == [
        (clf, fold) for fold in range(2) for clf in ("nb", "oracle") for _ in range(3)
    ]


def one_class_fit(monkeypatch):
    """Make every level-set fit in run_experiment return a one-class model."""
    fit = ofc.harness.ofc_fit

    def fake_fit(*args, **kwargs):
        model, trace = fit(*args, **kwargs)
        u = model.u.with_values(-np.abs(model.u.values) - 1.0)
        return replace(model, u=u, degenerate=True), trace

    monkeypatch.setattr(ofc.harness, "ofc_fit", fake_fit)


def test_degenerate_model_fails_its_cell(monkeypatch):
    spec = ExperimentSpec(
        data=small_separable(40, seed=2),
        classifiers=("ofc", "nb"),
        repetitions=1,
        folds=2,
        betas=(0.5, 1.0),
        ofc=TrainConfig(resolution=16, max_iter=10),
        seed=3,
    )
    honest = run_experiment(spec)
    one_class_fit(monkeypatch)
    result = run_experiment(spec)
    assert [(f.classifier, f.beta, f.fold) for f in result.failures] == [
        ("ofc", beta, fold) for fold in range(2) for beta in (0.5, 1.0)
    ]
    assert all(f.message.startswith("DegenerateModelError: ") for f in result.failures)
    assert result.outcomes == [o for o in honest.outcomes if o.classifier == "nb"]
    assert [r.classifier for r in result.summary()] == ["nb", "nb"]


def test_fit_on_shared_densities_matches_fit():
    from ofc.classifier import densities_for, fit

    data = small_separable(60, seed=5)
    cfg = TrainConfig(resolution=32, max_iter=40, reinit_every=10, beta=2.0)
    alone, _ = fit(data, cfg)
    shared, trace = fit(data, cfg, densities=densities_for(data, cfg))
    assert shared.u.values.tobytes() == alone.u.values.tobytes()
    assert trace.phase_seconds["kde"] == 0.0  # no KDE ran
    assert shared.densities_hash == alone.densities_hash
