"""Baselines, the threshold sweep oracle, and the experiment driver."""
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

import ofc.classifier
import ofc.density
import ofc.harness
from ofc.data import LabeledDataset, gen_toy1d, kfold
from ofc.errors import DegenerateDataError, DimensionError
from ofc.harness import (
    AnalyticToy,
    ExperimentSpec,
    _normal_cdf,
    naive_bayes_decision,
    naive_bayes_fit,
    naive_bayes_predict,
    run_experiment,
    threshold_oracle,
)
from ofc.metrics import confusion_from_predictions
from ofc.solver import TrainConfig


def nb_threshold(model, lo, hi):
    return brentq(lambda t: naive_bayes_decision(model, [[t]])[0], lo, hi)


# ---------------------------------------------------------------------------
# normal CDF and the runtime dependencies


def test_import_does_not_load_scipy():
    src = str(Path(ofc.harness.__file__).resolve().parents[1])
    code = (
        "import sys; import ofc; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


def test_normal_cdf_matches_ndtr():
    z = np.linspace(-8.0, 8.0, 4001)
    got = _normal_cdf(z)
    assert isinstance(got, np.ndarray) and got.shape == z.shape
    np.testing.assert_allclose(got, ndtr(z), rtol=1e-13, atol=0)
    grid = _normal_cdf(z.reshape(1, -1, 1))
    assert grid.shape == (1, z.size, 1)
    for v in (-8.0, -1.5, 0.0, 0.3, 8.0, np.float64(2.5)):
        cdf = _normal_cdf(v)
        assert type(cdf) is float
        assert cdf == pytest.approx(float(ndtr(v)), rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# analytic toy


def test_analytic_toy_counts_are_tail_integrals():
    toy = AnalyticToy()
    counts = toy.counts_at(toy.pos_mean)  # half of the positives kept
    assert counts.tp == pytest.approx(500.0)
    assert counts.fn == pytest.approx(500.0)
    assert counts.tp + counts.fn == pytest.approx(1000.0)
    assert counts.fp + counts.tn == pytest.approx(50000.0)


def test_analytic_toy_bayes_threshold():
    assert AnalyticToy().bayes_threshold() == pytest.approx(3.956, abs=1e-3)


def test_analytic_toy_density_pair_normalized():
    from ofc.field import integrate

    pair = AnalyticToy().density_pair(resolution=2048)
    assert integrate(pair.f_pos) == pytest.approx(1.0, abs=2e-3)
    assert integrate(pair.f_neg) == pytest.approx(1.0, abs=2e-3)


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
    # first feature of the positive class is constant
    with pytest.raises(DegenerateDataError):
        naive_bayes_fit(data, var_floor=0.0)
    model = naive_bayes_fit(data)  # default floor keeps it finite
    assert np.isfinite(naive_bayes_decision(model, pts)).all()


def test_naive_bayes_needs_two_samples_per_class():
    data = LabeledDataset(np.array([[0.0], [1.0], [2.0]]), np.array([True, False, False]))
    with pytest.raises(DegenerateDataError):
        naive_bayes_fit(data)


# ---------------------------------------------------------------------------
# threshold oracle


def test_oracle_analytic_self_consistency():
    toy = AnalyticToy()
    tau, report = threshold_oracle(toy, steps=2000)
    tau_fine, _ = threshold_oracle(toy, steps=20000)
    one_step = (toy.hi - toy.lo) / 1999
    assert abs(tau_fine - tau) < one_step
    assert 0.35 <= report.f_beta <= 0.45  # frozen: ~0.399 at the optimum


def test_oracle_tie_breaks_to_smallest_tau():
    pos = np.linspace(2.0, 3.0, 6)[:, None]
    neg = np.linspace(0.0, 1.0, 10)[:, None]
    data = LabeledDataset(np.vstack([pos, neg]), np.arange(16) < 6)
    tau, report = threshold_oracle(data, steps=301)
    assert report.f_beta == 1.0
    taus = np.linspace(0.0, 3.0, 301)
    assert tau == taus[taus > 1.0][0]  # first sweep point past the negatives


def test_oracle_large_beta_floods_toward_recall():
    toy = AnalyticToy()
    tau1, _ = threshold_oracle(toy, beta=1.0)
    tau100, rep100 = threshold_oracle(toy, beta=100.0)
    assert tau100 < tau1
    assert rep100.recall >= 0.99


def test_oracle_accuracy_metric_agrees_with_naive_bayes():
    data = gen_toy1d(seed=0)
    steps = 200
    tau_acc, _ = threshold_oracle(data, steps=steps, metric="accuracy")
    model = naive_bayes_fit(data)
    two_steps = 2 * (data.points.max() - data.points.min()) / (steps - 1)
    assert abs(tau_acc - nb_threshold(model, 3.0, 5.0)) <= two_steps


def test_oracle_curves_have_textbook_shapes():
    # Over a rising threshold: precision climbs, recall falls, F1 rises
    # once then falls once.
    toy = AnalyticToy()
    taus = np.linspace(1.0, 6.0, 400)
    reports = [toy.metrics_at(t) for t in taus]
    precision = np.array([r.precision for r in reports])
    recall = np.array([r.recall for r in reports])
    f1 = np.array([r.f_beta for r in reports])
    assert np.all(np.diff(precision) >= -1e-12)
    assert np.all(np.diff(recall) <= 1e-12)
    rising = (np.diff(f1) > 0).astype(int)
    assert np.sum(np.abs(np.diff(rising))) == 1


def test_oracle_input_validation():
    data2d = LabeledDataset(np.zeros((6, 2)) + np.arange(6)[:, None], np.arange(6) < 3)
    with pytest.raises(DimensionError):
        threshold_oracle(data2d)
    toy = AnalyticToy()
    with pytest.raises(ValueError):
        threshold_oracle(toy, steps=1)
    with pytest.raises(ValueError):
        threshold_oracle(toy, beta=0.0)
    with pytest.raises(ValueError, match="finite"):
        threshold_oracle(toy, beta=float("inf"))
    with pytest.raises(ValueError):
        threshold_oracle(toy, metric="auc")


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
    # naive Bayes separates the wide gap perfectly; the sweep picks the
    # smallest optimal threshold, which sits flush against the largest
    # training negative, so a test negative may spill just past it
    by_name = {r.classifier: r for r in rows}
    assert by_name["nb"].f_beta_mean == pytest.approx(1.0)
    assert by_name["oracle"].f_beta_mean > 0.9
    assert all(r.f_beta_std == 0.0 for r in rows)


def test_oracle_cells_maximize_the_experiment_measure():
    # at a 1:50 imbalance the accuracy optimum lies well right of F1's
    data = gen_toy1d(seed=0).subset(np.arange(0, 51000, 10))
    spec = ExperimentSpec(data=data, classifiers=("oracle",), repetitions=1, folds=2,
                          seed=3, ofc_measure="accuracy", oracle_steps=200)
    cell = run_experiment(spec).outcomes[0]
    train_idx, test_idx = kfold(data, 2, seed=3)[0]
    train, test = data.subset(train_idx), data.subset(test_idx)
    tau, _ = threshold_oracle(train, steps=200, metric="accuracy")
    assert tau != threshold_oracle(train, steps=200)[0]
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
    pts = rng.normal(0.0, 1.0, (40, 2))
    pts[:20] += 3.0
    data = LabeledDataset(pts, np.arange(40) < 20)
    # the threshold sweep cannot run on 2-D data; naive Bayes can
    spec = ExperimentSpec(
        data=data, classifiers=("nb", "oracle"), repetitions=1, folds=2, seed=0
    )
    result = run_experiment(spec)
    assert len(result.failures) == 2  # one per fold
    assert all("DimensionError" in f.message for f in result.failures)
    assert [r.classifier for r in result.summary()] == ["nb"]


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
