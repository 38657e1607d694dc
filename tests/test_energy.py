"""Energy functional: value wiring, first variation, descent directions."""
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofc.density import DensityPair
from ofc import energy as energy_module
from ofc.energy import MeasureEnergy
from ofc.errors import VanishingPositiveMassError
from ofc.field import GridSpec, ScalarField, _quadrature_weights, integrate
from ofc.metrics import ConfusionCounts, metrics_from_counts, smoothed_delta
from toy1d import BAYES_TAU, N_COUNT, P_COUNT, TOY_BOUNDS, normal_pdf, tail_counts, toy_pair


def threshold_field(pair, tau):
    return ScalarField(pair.grid, pair.grid.axes()[0] - tau)


def analytic_epsilon(tau, beta=1.0):
    """Misclassification ratio of the region x > tau, from Gaussian tails."""
    tp, fn, fp, _ = tail_counts(tau)
    return (beta**2 * fn + fp) / tp


def test_energy_is_count_ratio_times_epsilon():
    pair = toy_pair(512)
    x = pair.grid.axes()[0]
    u = ScalarField(pair.grid, np.sin(1.7 * x) + 0.2 * x - 0.5)
    for beta in (0.5, 1.0, 2.0):
        energy = MeasureEnergy(pair, eps=0.05, beta=beta)
        (a, b, c), _, _ = textbook(energy, u)
        counts = ConfusionCounts(
            tp=pair.p_count * a,
            fn=pair.p_count * b,
            fp=pair.n_count * c,
            tn=pair.n_count * (integrate(pair.f_neg) - c),
        )
        eps_ratio = metrics_from_counts(counts, beta=beta).epsilon
        assert (N_COUNT / P_COUNT) * energy.evaluate(u) == pytest.approx(
            eps_ratio, rel=1e-12
        )


def test_threshold_sweep_minimum_matches_analytic_ratio():
    pair = toy_pair(2048)
    spacing = pair.grid.spacing[0]
    energy = MeasureEnergy(pair, eps=spacing)
    taus = np.linspace(2.8, 3.8, 201)
    e_curve = [energy.evaluate(threshold_field(pair, t)) for t in taus]
    oracle_curve = [analytic_epsilon(t) for t in taus]
    i_e, i_o = int(np.argmin(e_curve)), int(np.argmin(oracle_curve))
    assert abs(taus[i_e] - taus[i_o]) <= 0.02
    assert 3.25 <= taus[i_o] <= 3.31  # frozen location of the analytic optimum


def test_accuracy_energy_minimized_at_density_crossing():
    pair = toy_pair(2048)
    # The minimum is shallow; a narrow step keeps the smoothing bias (linear
    # in eps via the arctan tails) below the sweep tolerance.
    energy = MeasureEnergy(pair, eps=0.001, kind="accuracy")
    taus = np.linspace(3.0, 5.0, 401)
    curve = [energy.evaluate(threshold_field(pair, t)) for t in taus]
    # Oracle: count-scaled densities cross where exp(2x - 4) == 50.
    assert taus[int(np.argmin(curve))] == pytest.approx(BAYES_TAU, abs=0.02)
    assert BAYES_TAU == pytest.approx(3.956, abs=0.001)


def g_mean(e, a, b, c):
    """Minus the geometric mean of recall and specificity: g = -sqrt(A * (1 - C))."""
    g = -math.sqrt(a * (1.0 - c))
    return g, (g / (2.0 * a), 0.0, -g / (2.0 * (1.0 - c)))


@pytest.fixture
def with_g_mean(monkeypatch):
    # a measure no built-in shares: g_B = 0, nonlinear in A and in C
    monkeypatch.setitem(energy_module._MEASURES, "g_mean", g_mean)


@pytest.mark.usefixtures("with_g_mean")
@pytest.mark.parametrize("kind,beta", [("f_measure", 1.0), ("f_measure", 3.0), ("accuracy", 1.0),
                                       ("g_mean", 1.0)])
def test_gradient_matches_central_differences(kind, beta):
    pair = toy_pair(512)
    grid = pair.grid
    x = grid.axes()[0]
    eps = 1.5 * grid.spacing[0]
    energy = MeasureEnergy(pair, eps=eps, kind=kind, beta=beta)
    u = ScalarField(grid, (x - 3.2) + 0.1 * np.sin(2.0 * x))
    g = energy.gradient(u)
    band = smoothed_delta(u.values, eps)
    centers = x[band > 0.005 * band.max()]
    rng = np.random.default_rng(3)
    width = 2.0 * grid.spacing[0]
    step = 1e-5
    for c in rng.choice(centers, size=20, replace=False):
        v = np.exp(-0.5 * ((x - c) / width) ** 2)
        fd = (
            energy.evaluate(u.with_values(u.values + step * v))
            - energy.evaluate(u.with_values(u.values - step * v))
        ) / (2 * step)
        predicted = integrate(u.with_values(g.values * v))
        assert fd == pytest.approx(predicted, rel=1e-3)


def test_all_positive_field_has_unit_energy():
    # Predicting everything positive misclassifies every negative and no
    # positive: E = (k*0 + 1)/1 once the smoothing width is negligible.
    pair = toy_pair(2048)
    energy = MeasureEnergy(pair, eps=1e-6)
    u = ScalarField(pair.grid, np.ones(pair.grid.shape))
    assert abs(energy.evaluate(u) - 1.0) <= 1e-6


def test_perfect_separation_has_zero_energy():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=1024)
    x = grid.axes()[0]
    tri = lambda c, w: np.maximum(0.0, 1.0 - np.abs(x - c) / w) / w
    pair = DensityPair(
        f_pos=ScalarField(grid, tri(0.5, 0.5)),
        f_neg=ScalarField(grid, tri(4.5, 0.5)),
        p_count=500,
        n_count=500,
    )
    energy = MeasureEnergy(pair, eps=1e-9)
    u = ScalarField(grid, 2.0 - x)  # positive exactly over the positive support
    assert energy.evaluate(u) <= 1e-6


def test_accuracy_gradient_zero_when_count_scaled_densities_match():
    # N*f_neg == P*f_pos everywhere makes every point a fixed point of the
    # misclassification flow.
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=256)
    x = grid.axes()[0]
    phi = normal_pdf(x, 2.0)
    pair = DensityPair(
        f_pos=ScalarField(grid, phi),
        f_neg=ScalarField(grid, phi),
        p_count=700,
        n_count=700,
    )
    energy = MeasureEnergy(pair, eps=0.05, kind="accuracy")
    u = ScalarField(grid, np.sin(1.3 * x))
    assert np.all(energy.gradient(u).values == 0.0)


def test_gradient_vanishes_where_densities_balance():
    # The variation changes sign exactly where f_neg == (k + E) * f_pos; for
    # the two toy Gaussians that point is x = (4 - log(k + E)) / 2.
    pair = toy_pair(2048)
    x = pair.grid.axes()[0]
    energy = MeasureEnergy(pair, eps=1.5 * pair.grid.spacing[0])
    u = threshold_field(pair, 3.23)
    g = np.abs(energy.gradient(u).values)
    x_balance = 0.5 * (4.0 - np.log(energy.k + energy.evaluate(u)))
    at_balance = g[np.argmin(np.abs(x - x_balance))]
    # the balance point falls between nodes; one spacing leaves a small rest
    assert at_balance <= 0.05 * g.max()


def test_energy_unchanged_by_reinitialization():
    # Rebuilding u as a signed distance keeps every sign, so with a narrow
    # step the classified regions -- and hence the energy -- are unchanged.
    from ofc.solver import reinitialize

    pair = toy_pair(1024)
    x = pair.grid.axes()[0]
    u = ScalarField(pair.grid, 5.0 * (x - 3.0) + 0.3 * np.sin(2.0 * x))
    energy = MeasureEnergy(pair, eps=1e-8)
    e0 = energy.evaluate(u)
    e1 = energy.evaluate(reinitialize(u))
    assert abs(e1 - e0) <= 1e-6 * abs(e0)


def test_surrogate_direction_is_scaled_gradient():
    pair = toy_pair(512)
    x = pair.grid.axes()[0]
    u = ScalarField(pair.grid, x - 3.1 + 0.05 * np.cos(3.0 * x))
    beta, eps = 2.0, 0.05
    energy = MeasureEnergy(pair, eps=eps, beta=beta)
    g_surrogate = energy.descent_direction(u, kind="G")
    # Same zero set: G equals A**2 times the variation of the energy whose
    # k is replaced by beta**2, the k of a pair with equal class counts.
    reference = MeasureEnergy(replace(pair, n_count=pair.p_count), eps=eps, beta=beta)
    h = 0.5 * (1.0 + (2.0 / np.pi) * np.arctan(u.values / eps))
    a = integrate(u.with_values(h * pair.f_pos.values))
    np.testing.assert_allclose(
        g_surrogate.values,
        a**2 * reference.gradient(u).values,
        rtol=1e-12,
        atol=1e-15 * np.abs(g_surrogate.values).max(),
    )


@pytest.mark.parametrize("kind, descent", [("f_measure", "derivative"), ("f_measure", "G"),
                                            ("accuracy", "derivative")])
def test_fractions_from_evaluate_reproduce_descent(kind, descent):
    # train hands each field's (A, B, C) from evaluate to the next step
    pair = toy_pair(512)
    x = pair.grid.axes()[0]
    u = ScalarField(pair.grid, x - 3.1 + 0.05 * np.cos(3.0 * x))
    energy = MeasureEnergy(pair, eps=0.05, kind=kind)
    value, fractions = energy.evaluate(u, return_fractions=True)
    assert value == energy.evaluate(u)
    assert len(fractions) == 3
    np.testing.assert_array_equal(
        energy.descent_direction(u, descent, fractions).values,
        energy.descent_direction(u, descent).values,
    )


def textbook(energy, u):
    """(A, B, C), gradient and "G" direction from H and its impulse under `integrate`."""
    pair, eps = energy.pair, energy.eps
    fp, fn = pair.f_pos.values, pair.f_neg.values
    h = 0.5 * (1.0 + (2.0 / np.pi) * np.arctan(np.asarray(u.values) / eps))
    delta = smoothed_delta(u.values, eps)
    a = integrate(u.with_values(h * fp))
    b = integrate(u.with_values((1.0 - h) * fp))
    c = integrate(u.with_values(h * fn))
    if energy.kind == "accuracy":
        return (a, b, c), delta * (pair.n_count * fn - pair.p_count * fp), None
    e = (energy.k * b + c) / a
    gradient = delta * (fn - (energy.k + e) * fp) / a
    b2 = energy.beta**2
    surrogate = delta * ((fn - b2 * fp) * a - fp * (c + b2 * b))
    return (a, b, c), gradient, surrogate


def assert_close_to_max(got, expected, rel=1e-12):
    assert np.abs(got - expected).max() <= rel * np.abs(expected).max()


@pytest.mark.parametrize("kind, descent", [("f_measure", "derivative"), ("f_measure", "G"),
                                            ("accuracy", "derivative")])
def test_folded_forms_match_textbook(kind, descent):
    # fractions as arctan sums, scalars folded into the impulse's numerator
    rng = np.random.default_rng(11)
    grid = GridSpec(bounds=((-1.0, 2.0), (0.0, 0.5)), resolution=(24, 17))
    for trial in range(5):
        pair = DensityPair(
            f_pos=ScalarField(grid, rng.uniform(0.0, 2.0, grid.shape)),
            f_neg=ScalarField(grid, rng.uniform(0.0, 2.0, grid.shape)),
            p_count=int(rng.integers(10, 1000)),
            n_count=int(rng.integers(10, 100000)),
        )
        u = ScalarField(grid, rng.normal(0.2, 0.5, grid.shape))
        energy = MeasureEnergy(pair, eps=0.05 * (trial + 1), kind=kind, beta=0.5 + trial)
        fractions, gradient, surrogate = textbook(energy, u)
        value, got = energy.evaluate(u, return_fractions=True)
        np.testing.assert_allclose(got, fractions, rtol=1e-12, atol=0)
        if kind == "accuracy":
            expected = pair.p_count * fractions[1] + pair.n_count * fractions[2]
        else:
            a, b, c = fractions
            expected = (energy.k * b + c) / a
        assert value == pytest.approx(expected, rel=1e-12)
        assert_close_to_max(energy.gradient(u).values, gradient)
        direction = energy.descent_direction(u, descent, got).values
        assert_close_to_max(direction, gradient if descent == "derivative" else surrogate)


@pytest.mark.usefixtures("with_g_mean")
@pytest.mark.parametrize("kind", ["f_measure", "accuracy", "g_mean"])
def test_small_step_against_gradient_lowers_energy(kind):
    pair = toy_pair(512)
    u = threshold_field(pair, 2.9)
    energy = MeasureEnergy(pair, eps=0.05, kind=kind)
    d = energy.descent_direction(u, kind="derivative")
    e0 = energy.evaluate(u)
    stepped = u.with_values(u.values - (0.01 / np.abs(d.values).max()) * d.values)
    assert energy.evaluate(stepped) < e0


def test_surrogate_step_lowers_its_own_energy():
    # "G" is a positive multiple of the variation of the k = beta**2 energy,
    # so that is the quantity it must push down.
    pair = toy_pair(512)
    u = threshold_field(pair, 2.9)
    energy = MeasureEnergy(pair, eps=0.05, beta=1.0)
    surrogate = MeasureEnergy(replace(pair, n_count=pair.p_count), eps=0.05, beta=1.0)
    d = energy.descent_direction(u, kind="G")
    stepped = u.with_values(u.values - (0.01 / np.abs(d.values).max()) * d.values)
    assert surrogate.evaluate(stepped) < surrogate.evaluate(u)


def test_stationarity_residual_smaller_near_optimum():
    pair = toy_pair(2048)
    energy = MeasureEnergy(pair, eps=pair.grid.spacing[0])
    near = energy.stationarity_residual(threshold_field(pair, 3.28))
    far = energy.stationarity_residual(threshold_field(pair, 2.5))
    assert near < 0.05 * far


def test_stationarity_residual_band_definition():
    pair = toy_pair(512)
    energy = MeasureEnergy(pair, eps=0.05)
    u = threshold_field(pair, 3.0)
    delta = smoothed_delta(u.values, 0.05)
    mask = delta > 1e-3 * delta.max()
    expected = np.abs(energy.gradient(u).values[mask]).max()
    assert energy.stationarity_residual(u) == expected


def test_vanishing_positive_mass():
    pair = toy_pair(128)
    sunk = ScalarField(pair.grid, np.full(pair.grid.shape, -1e12))
    energy = MeasureEnergy(pair, eps=0.05)
    with pytest.raises(VanishingPositiveMassError):
        energy.evaluate(sunk)
    with pytest.raises(VanishingPositiveMassError):
        energy.gradient(sunk)
    with pytest.raises(VanishingPositiveMassError):
        energy.descent_direction(sunk, "G")
    # The accuracy energy has no ratio to blow up: a fully negative field
    # misclassifies (almost) the whole positive class and nothing else.
    acc = MeasureEnergy(pair, eps=0.05, kind="accuracy")
    assert acc.evaluate(sunk) == pytest.approx(P_COUNT, rel=2e-3)


def test_sign_pattern_energy_is_the_measure_of_the_sign_pattern():
    pair = toy_pair(512)
    x = pair.grid.axes()[0]
    u = ScalarField(pair.grid, np.sin(1.7 * x) + 0.2 * x - 0.5)
    w = pair.grid.spacing[0] * np.r_[0.5, np.ones(len(x) - 2), 0.5]
    inside = u.values >= 0
    a = (w * pair.f_pos.values)[inside].sum()
    b = (w * pair.f_pos.values)[~inside].sum()
    c = (w * pair.f_neg.values)[inside].sum()
    energy = MeasureEnergy(pair, eps=0.05, beta=2.0)
    assert energy.sign_pattern_energy(u) == pytest.approx((energy.k * b + c) / a, rel=1e-12)
    # the G descent minimizes F-beta at k = beta**2
    assert energy.sign_pattern_energy(u, "G") == pytest.approx((4.0 * b + c) / a, rel=1e-12)
    acc = MeasureEnergy(pair, eps=0.05, kind="accuracy")
    assert acc.sign_pattern_energy(u) == pytest.approx(P_COUNT * b + N_COUNT * c, rel=1e-12)
    # only the sign counts: a rescaled field with the same signs scores the same
    assert energy.sign_pattern_energy(u.with_values(7.0 * u.values)) == energy.sign_pattern_energy(u)


def test_sign_pattern_energy_of_an_all_negative_field():
    pair = toy_pair(128)
    sunk = ScalarField(pair.grid, np.full(pair.grid.shape, -1.0))
    assert MeasureEnergy(pair, eps=0.05).sign_pattern_energy(sunk) == math.inf
    assert MeasureEnergy(pair, eps=0.05).sign_pattern_energy(sunk, "G") == math.inf
    acc = MeasureEnergy(pair, eps=0.05, kind="accuracy")
    assert acc.sign_pattern_energy(sunk) == pytest.approx(P_COUNT * integrate(pair.f_pos), rel=1e-12)


# ---------------------------------------------------------------------------
# the exact minimizer of the sign-pattern energy

# (measure, descent) pairs that training accepts
OBJECTIVES = [("f_measure", "derivative"), ("f_measure", "G"), ("accuracy", "derivative")]


def random_pair(shape, seed):
    """Random densities on a grid of ``shape`` nodes, with a node of no
    positive mass, a node of no mass, a denormal positive value whose ratio
    overflows, and two nodes of equal ratio among them."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(bounds=((0.0, 1.0),) * len(shape), resolution=tuple(n - 1 for n in shape))
    fp, fn = rng.random((2,) + shape)
    fp.flat[0] = 0.0
    fp.flat[1] = fn.flat[1] = 0.0
    fp.flat[2], fn.flat[2] = 1e-310, 1.0
    fn.flat[3:5] = 2.0 * fp.flat[3:5]
    return DensityPair(
        f_pos=ScalarField(grid, fp),
        f_neg=ScalarField(grid, fn),
        p_count=int(rng.integers(1, 100)),
        n_count=int(rng.integers(1, 1000)),
    )


def brute_force_minimum(pair, kind, beta, descent):
    """Lowest sign-pattern energy over every subset of the grid's nodes."""
    w = functools.reduce(np.multiply.outer, [
        h * np.r_[0.5, np.ones(n - 2), 0.5] for h, n in zip(pair.grid.spacing, pair.grid.shape)
    ])
    fp, fn = (pair.f_pos.values * w).ravel(), (pair.f_neg.values * w).ravel()
    subsets = (np.arange(2**fp.size)[:, None] >> np.arange(fp.size)) & 1
    a, c = subsets @ fp, subsets @ fn
    b = fp.sum() - a
    if kind == "accuracy":
        return (pair.p_count * b + pair.n_count * c).min()
    k = beta**2 * pair.p_count / pair.n_count if descent == "derivative" else beta**2
    with np.errstate(all="ignore"):
        return np.where(a < 1e-12, np.inf, (k * b + c) / a).min()


def mask_field(grid, mask):
    return ScalarField(grid, np.where(mask, 1.0, -1.0))


@pytest.mark.parametrize("kind, descent", OBJECTIVES)
@pytest.mark.parametrize("shape", [(12,), (4, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimum_mask_scores_the_brute_force_minimum(kind, descent, shape, seed):
    pair = random_pair(shape, seed)
    for beta in (0.5, 1.0, 2.0):
        energy = MeasureEnergy(pair, eps=0.05, kind=kind, beta=beta)
        mask = energy._optimum_mask(descent)
        assert mask.shape == pair.grid.shape
        score = energy.sign_pattern_energy(mask_field(pair.grid, mask), descent)
        assert score == pytest.approx(brute_force_minimum(pair, kind, beta, descent), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_no_mask_scores_below_the_optimum(data):
    shape = data.draw(st.sampled_from([(40,), (7, 6), (4, 3, 3)]))
    pair = random_pair(shape, data.draw(st.integers(0, 2**32 - 1)))
    kind, descent = data.draw(st.sampled_from(OBJECTIVES))
    energy = MeasureEnergy(pair, eps=0.05, kind=kind, beta=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    optimum = energy._optimum_mask(descent)
    best = energy.sign_pattern_energy(mask_field(pair.grid, optimum), descent)
    size = optimum.size
    flips = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    mask = optimum ^ flips.reshape(shape)
    assert energy.sign_pattern_energy(mask_field(pair.grid, mask), descent) >= best - 1e-12 * abs(best)


def uncached_optimum_mask(pair, k=None):
    """The sorted-prefix optimum's node mask, computed from the densities
    afresh: the best prefix of the nodes in stable order of weighted f- over
    weighted f+, scored as F-beta at ``k``, or as accuracy with ``k`` None."""
    w = _quadrature_weights(pair.grid)
    weighted = np.stack([pair.f_pos.values * w, pair.f_neg.values * w]).reshape(2, -1)
    half_pos = (0.5 * weighted.sum(axis=1)).tolist()[0]
    a, c = weighted
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        order = np.argsort(c / a, kind="stable")
    pos, neg = np.cumsum(a[order]), np.cumsum(c[order])
    if k is None:
        score = pair.p_count * (2.0 * half_pos - pos) + pair.n_count * neg
    else:
        score = np.full(pos.shape, np.inf)
        np.divide(k * (2.0 * half_pos - pos) + neg, pos, out=score, where=pos >= 1e-12)
    mask = np.zeros(a.size, dtype=bool)
    mask[order[:int(np.argmin(score)) + 1]] = True
    return mask.reshape(pair.grid.shape)


def mirrored_pair(shape, seed):
    """Random densities on a grid of ``shape`` nodes, each its own mirror
    image through the grid's centre, so nodes tie in ratio in pairs; some
    nodes hold no mass and some hold negative mass only."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(bounds=((0.0, 1.0),) * len(shape), resolution=tuple(n - 1 for n in shape))
    mirrored = lambda f: f + np.flip(f)
    fp, fn = (mirrored(f) for f in rng.random((2,) + shape))
    no_pos, no_mass = (mirrored(rng.random(shape) < p) for p in (0.2, 0.1))
    fp[no_pos | no_mass] = 0.0
    fn[no_mass] = 0.0
    return DensityPair(
        f_pos=ScalarField(grid, fp),
        f_neg=ScalarField(grid, fn),
        p_count=int(rng.integers(1, 100)),
        n_count=int(rng.integers(1, 1000)),
    )


@pytest.mark.parametrize("shape", [(41,), (9, 8), (5, 4, 6)])
@pytest.mark.parametrize("seed", range(10))
def test_optimum_descends_to_the_sorted_prefix_score(shape, seed, monkeypatch):
    pair = mirrored_pair(shape, seed)
    iterates = []
    objective = MeasureEnergy._objective

    def scored(self, descent, a, b, c):
        try:
            result = objective(self, descent, a, b, c)
        except VanishingPositiveMassError:
            iterates.append(math.inf)
            raise
        iterates.append(result[0])
        return result

    for kind, descent in OBJECTIVES:
        for beta in (0.1, 0.5, 1.0, 2.0, 10.0):
            energy = MeasureEnergy(pair, eps=0.05, kind=kind, beta=beta)
            iterates.clear()
            with monkeypatch.context() as patch:
                patch.setattr(MeasureEnergy, "_objective", scored)
                mask = energy._optimum_mask(descent)
            # every set kept scores strictly lower than the one before it,
            # and the iteration ends on the first set that does not
            *kept, last = iterates
            assert all(later < earlier for earlier, later in zip(kept, kept[1:]))
            assert not last < kept[-1]
            best = energy._mask_energy(mask, descent)
            assert best == kept[-1]
            k = None if kind == "accuracy" else energy.k if descent == "derivative" else beta**2
            reference = energy._mask_energy(uncached_optimum_mask(pair, k), descent)
            assert best <= reference + 1e-12 * abs(reference)


def test_constructor_validation():
    pair = toy_pair(64)
    with pytest.raises(ValueError):
        MeasureEnergy(pair, eps=0.05, kind="gini")
    with pytest.raises(ValueError):
        MeasureEnergy(pair, eps=-0.05)
    for bad in (float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            MeasureEnergy(pair, eps=bad)
    # beta**2 is finite, but beta**2 * p_count overflows
    with pytest.raises(ValueError, match="k must be positive and finite"):
        MeasureEnergy(pair, eps=0.05, beta=1e154)
    # beta**2 underflows, so k would be 0
    with pytest.raises(ValueError, match=r"beta 1e-170 is too small for 1000.0 positives"):
        MeasureEnergy(pair, eps=0.05, beta=1e-170)
    with pytest.raises(ValueError):
        MeasureEnergy(pair, eps=0.05, beta=0.0)
    with pytest.raises(ValueError, match="finite"):
        MeasureEnergy(pair, eps=0.05, beta=float("nan"))
    with pytest.raises(ValueError):
        MeasureEnergy(pair, eps=0.05).descent_direction(
            threshold_field(pair, 3.0), kind="mystery"
        )
    with pytest.raises(ValueError):
        MeasureEnergy(pair, eps=0.05, kind="accuracy").descent_direction(
            threshold_field(pair, 3.0), kind="G"
        )


def test_default_k_is_squared_beta_times_class_ratio():
    pair = toy_pair(64)
    assert MeasureEnergy(pair, eps=0.05, beta=2.0).k == pytest.approx(
        4.0 * P_COUNT / N_COUNT, rel=1e-15
    )
