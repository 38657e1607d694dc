"""Training loop: stepping, reinitialization, convergence, restarts, traces."""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtr

from ofc.density import DensityPair
from ofc.energy import MeasureEnergy
from ofc.errors import (
    GridMismatchError,
    StepRejectedError,
    VanishingPositiveMassError,
)
from ofc.field import (
    Box,
    GridSpec,
    ScalarField,
    SphereLattice,
    gradient_magnitude,
    init_shape,
    laplacian,
)
from ofc.solver import (
    TrainConfig,
    _flood_slices,
    auto_time_step,
    default_resolution,
    has_sign_change,
    reinitialize,
    resolved_lambda,
    step,
    train,
)
from ofc.classifier import frontier

P_COUNT, N_COUNT = 1000.0, 50000.0
TOY_BOUNDS = ((-2.0, 6.0),)


def toy_pair(resolution=1024):
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=resolution)
    x = grid.axes()[0]
    phi = lambda m: np.exp(-0.5 * (x - m) ** 2) / np.sqrt(2 * np.pi)
    return DensityPair(
        f_pos=ScalarField(grid, phi(3.0)),
        f_neg=ScalarField(grid, phi(1.0)),
        p_count=P_COUNT,
        n_count=N_COUNT,
    )


def balanced_pair(resolution=256):
    """Identical class densities and counts: every field is a fixed point."""
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=resolution)
    x = grid.axes()[0]
    phi = np.exp(-0.5 * (x - 2.0) ** 2) / np.sqrt(2 * np.pi)
    return DensityPair(
        f_pos=ScalarField(grid, phi),
        f_neg=ScalarField(grid, phi),
        p_count=500,
        n_count=500,
    )


def sweep_best_threshold(score):
    """Brute-force threshold oracle on analytic Gaussian tails."""
    taus = np.linspace(-2.0, 6.0, 2000)
    fn = P_COUNT * ndtr(taus - 3.0)
    tp = P_COUNT - fn
    fp = N_COUNT * ndtr(1.0 - taus)
    tn = N_COUNT - fp
    return taus[int(np.argmax(score(tp, fn, fp, tn)))]


def toy_accuracy(tau):
    """Fraction of the two classes labeled correctly by the region x > tau."""
    return (P_COUNT * ndtr(3.0 - tau) + N_COUNT * ndtr(tau - 1.0)) / (
        P_COUNT + N_COUNT
    )


RIGHT_BOX = Box(lo=(3.0,), hi=(6.0,))


@pytest.fixture(scope="module")
def toy():
    pair = toy_pair()
    eps = 1.5 * max(pair.grid.spacing)
    return pair, eps


@pytest.fixture(scope="module")
def trained_f1(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    base = auto_time_step(init_shape(pair.grid, RIGHT_BOX), energy, TrainConfig())
    cfg = TrainConfig(init=RIGHT_BOX, dt=base / 10, reinit_every=300, max_iter=8000)
    model, trace = train(pair, energy, cfg)
    return model, trace, energy, cfg


@pytest.fixture(scope="module")
def trained_accuracy(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps, kind="accuracy")
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=300, max_iter=12000)
    model, trace = train(pair, energy, cfg)
    return model, trace


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    TrainConfig()  # defaults are valid
    TrainConfig(lam=0.0)  # diffusion may be switched off
    for bad in (
        dict(beta=0.0),
        dict(beta=float("nan")),
        dict(beta=float("inf")),
        dict(dt=-1.0),
        dict(dt=float("nan")),
        dict(lam=-0.1),
        dict(eps_h=0.0),
        dict(tol=0.0),
        dict(reinit_every=0),
        dict(max_iter=0),
        dict(resolution=2),
        dict(descent="steepest"),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_default_resolution_by_dimension():
    assert default_resolution(1) == 1024
    assert default_resolution(2) == 128
    assert default_resolution(3) == 64
    assert default_resolution(5) == 16


def test_resolved_lambda():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=100)
    h = max(grid.spacing)
    assert resolved_lambda(TrainConfig(), grid) == pytest.approx(0.1 * h * h)
    assert resolved_lambda(TrainConfig(lam=0.7), grid) == 0.7
    assert resolved_lambda(TrainConfig(lam=0.0), grid) == 0.0


# ---------------------------------------------------------------------------
# single steps


def test_auto_time_step_is_half_cell_per_unit_descent(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = init_shape(pair.grid, RIGHT_BOX)
    scale = float(np.abs(energy.descent_direction(u).values).max())
    assert auto_time_step(u, energy, TrainConfig()) == pytest.approx(
        0.5 * min(pair.grid.spacing) / scale
    )


def test_auto_time_step_on_zero_descent_is_one():
    pair = balanced_pair()
    energy = MeasureEnergy(pair, eps=0.05, kind="accuracy")
    u = ScalarField(pair.grid, np.sin(pair.grid.axes()[0]))
    assert auto_time_step(u, energy, TrainConfig()) == 1.0


def test_step_fixed_point_without_diffusion():
    pair = balanced_pair()
    energy = MeasureEnergy(pair, eps=0.05, kind="accuracy")
    u = ScalarField(pair.grid, np.sin(pair.grid.axes()[0]))
    out = step(u, energy, pair, TrainConfig(lam=0.0), dt=0.3)
    assert np.array_equal(out.values, u.values)


def test_step_pure_diffusion_contracts():
    # Zero force, positive lambda: one explicit heat step, which both
    # matches the stencil directly and lowers the sup norm of a sine mode.
    pair = balanced_pair()
    grid = pair.grid
    energy = MeasureEnergy(pair, eps=0.05, kind="accuracy")
    u = ScalarField(grid, np.sin(2.0 * grid.axes()[0]))
    cfg = TrainConfig(lam=0.05)
    out = step(u, energy, pair, cfg, dt=0.01)
    expected = u.values + 0.01 * 0.05 * laplacian(u).values
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-15)
    interior = np.abs(out.values[2:-2])
    assert interior.max() < np.abs(u.values[2:-2]).max()


def test_step_rejects_oversized_updates(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = init_shape(pair.grid, RIGHT_BOX)
    with pytest.raises(StepRejectedError):
        step(u, energy, pair, TrainConfig(), dt=1e9)


def test_step_with_nan_update_raises(toy):
    # the guard passes a nan update on, and building the field refuses it
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = init_shape(pair.grid, RIGHT_BOX)
    with pytest.raises(ValueError, match="finite"):
        step(u, energy, pair, TrainConfig(), dt=float("nan"))


def test_step_requires_matching_grid_and_dt(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = init_shape(pair.grid, RIGHT_BOX)
    other_grid = GridSpec(bounds=TOY_BOUNDS, resolution=17)
    other = ScalarField(other_grid, np.zeros(other_grid.shape))
    with pytest.raises(GridMismatchError):
        step(other, energy, pair, TrainConfig(), dt=0.1)
    with pytest.raises(ValueError):
        step(u, energy, pair, TrainConfig())  # dt unresolved


def test_one_step_lowers_energy(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = ScalarField(pair.grid, pair.grid.axes()[0] - 2.0)
    dt = auto_time_step(u, energy, TrainConfig()) / 10
    stepped = step(u, energy, pair, TrainConfig(lam=0.0), dt=dt)
    assert energy.evaluate(stepped) < energy.evaluate(u)


# ---------------------------------------------------------------------------
# reinitialization


def test_reinitialize_recovers_line_distance():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=512)
    x = grid.axes()[0]
    d = reinitialize(ScalarField(grid, 5.0 * (x - 3.0)))
    np.testing.assert_allclose(d.values, x - 3.0, rtol=0, atol=1e-6)


def test_reinitialize_idempotent_within_a_cell():
    grid = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=65)
    mesh = grid.mesh()
    u = ScalarField(grid, 3.0 * (np.hypot(*mesh) - 1.0))
    once = reinitialize(u)
    twice = reinitialize(once)
    cell = max(grid.spacing)
    assert float(np.abs(twice.values - once.values).max()) <= 0.25 * cell


def random_bump_field(grid, rng):
    mesh = grid.mesh()
    vals = np.zeros(grid.shape)
    for _ in range(6):
        c = rng.uniform(-1.5, 1.5, size=2)
        s = rng.uniform(0.3, 0.8)
        amp = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        vals += amp * np.exp(
            -((mesh[0] - c[0]) ** 2 + (mesh[1] - c[1]) ** 2) / (2 * s * s)
        )
    return ScalarField(grid, vals - vals.mean())


def test_reinitialize_restores_unit_gradient_on_random_fields():
    grid = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=65)
    cell = max(grid.spacing)
    rng = np.random.default_rng(0)
    for _ in range(3):
        u = random_bump_field(grid, rng)
        d = reinitialize(u)
        # sign preserved at every node
        assert np.array_equal(u.values >= 0, d.values >= 0)
        away = np.abs(d.values) > 2.0 * cell
        away[:2, :] = away[-2:, :] = False
        away[:, :2] = away[:, -2:] = False
        gm = gradient_magnitude(d).values[away]
        assert np.mean((gm > 0.9) & (gm < 1.1)) >= 0.95


def test_reinitialize_single_sign_passthrough():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=64)
    u = ScalarField(grid, np.ones(grid.shape))
    assert reinitialize(u) is u
    assert not has_sign_change(u)


def test_reinitialize_preserves_predictions_3d():
    grid = GridSpec(bounds=((-1.0, 1.0),) * 3, resolution=25)
    mesh = grid.mesh()
    u = ScalarField(
        grid, np.sin(3 * mesh[0]) + 0.7 * np.cos(2.5 * mesh[1]) * np.sin(2 * mesh[2]) + 0.1
    )
    d = reinitialize(u)
    assert np.array_equal(u.values >= 0, d.values >= 0)


def ball_distance_error(dim, half_width, resolution):
    """Largest |reinitialized - exact| over all nodes, in cells, for a ball
    of radius 0.8 centred in [-half_width, half_width]^dim."""
    grid = GridSpec(bounds=((-half_width, half_width),) * dim, resolution=resolution)
    exact = 0.8 - np.sqrt(sum(m * m for m in grid.mesh()))
    d = reinitialize(ScalarField(grid, 3.0 * exact))
    return float(np.abs(d.values - exact).max()) / max(grid.spacing)


def test_reinitialize_circle_within_a_quarter_cell():
    assert ball_distance_error(2, 2.0, 65) <= 0.25


def test_reinitialize_sphere_within_half_a_cell():
    assert ball_distance_error(3, 1.5, 32) <= 0.5


def test_reinitialize_1d_matches_nearest_crossing():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=200)
    x = grid.axes()[0]
    u = np.sin(3.0 * x) + 0.3
    a, b = u[:-1], u[1:]
    edge = (a > 0) != (b > 0)
    crossings = x[:-1][edge] + a[edge] / (a[edge] - b[edge]) * grid.spacing[0]
    assert len(crossings) >= 6
    nearest = np.abs(x[:, None] - crossings[None, :]).min(axis=1)
    d = reinitialize(ScalarField(grid, u))
    np.testing.assert_allclose(
        d.values, np.where(u >= 0, nearest, -nearest), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("dim, resolution", [(1, 200), (2, 65), (3, 20)])
def test_reinitialize_same_bytes_on_cold_and_warm_slice_cache(dim, resolution):
    grid = GridSpec(bounds=((-2.0, 2.0),) * dim, resolution=resolution)
    rng = np.random.default_rng(dim)
    u = ScalarField(grid, sum(np.sin(rng.uniform(1, 3) * m + rng.uniform(0, 6)) for m in grid.mesh()))
    _flood_slices.cache_clear()
    cold = reinitialize(u).values.tobytes()
    assert _flood_slices.cache_info().currsize > 0
    warm = reinitialize(u).values.tobytes()
    assert _flood_slices.cache_info().hits > 0
    assert warm == cold


def test_reinitialize_threads_agree_bytewise():
    grid = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=65)
    u = random_bump_field(grid, np.random.default_rng(1))
    expected = reinitialize(u).values.tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(
                pool.map(lambda _: reinitialize(u).values.tobytes(), range(8), timeout=60)
            )
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected] * 8


# ---------------------------------------------------------------------------
# full training runs on the 1-D toy problem


def test_train_accuracy_toy_converges_to_bayes_threshold(trained_accuracy):
    model, trace = trained_accuracy
    assert trace.status == "converged"
    crossings = frontier(model)
    assert len(crossings) == 1
    assert 3.91 <= crossings[0] <= 4.01


def test_train_f_measure_toy_matches_threshold_oracle(trained_f1):
    model, trace, _, _ = trained_f1
    assert trace.status == "converged"
    tau_star = sweep_best_threshold(
        lambda tp, fn, fp, tn: np.where(tp > 0, 2 * tp / (2 * tp + fn + fp), 0.0)
    )
    crossings = frontier(model)
    assert len(crossings) == 1
    assert abs(crossings[0] - tau_star) <= 0.05


def test_train_f_measure_accuracy_close_to_best_possible(trained_f1):
    # Maximizing F1 costs well under one point of accuracy here.
    model, _, _, _ = trained_f1
    tau = frontier(model)[0]
    best = toy_accuracy(2.0 + 0.5 * np.log(N_COUNT / P_COUNT))
    assert toy_accuracy(tau) >= best - 0.01


def test_converged_run_has_small_stationarity_residual(trained_f1):
    model, trace, energy, cfg = trained_f1
    assert energy.stationarity_residual(model.u) <= 2.0 * cfg.tol / trace.final_dt


def test_frontier_sits_where_densities_balance(trained_f1):
    # At the converged crossing, f_neg ~= (k + E) * f_pos.  The smoothing
    # width keeps this from holding to machine precision; 1% is calibrated.
    model, _, energy, _ = trained_f1
    pair = energy.pair
    vals = model.u.values
    adjacent = np.zeros(vals.shape, dtype=bool)
    crossing = (vals[:-1] > 0) != (vals[1:] > 0)
    adjacent[:-1] |= crossing
    adjacent[1:] |= crossing
    e_val = energy.evaluate(model.u)
    residual = np.abs(
        pair.f_neg.values - (energy.k + e_val) * pair.f_pos.values
    ) / np.maximum(pair.f_pos.values, pair.f_neg.values)
    assert residual[adjacent].max() <= 0.01


def test_sign_flip_raises_stationarity_residual(trained_f1):
    model, _, energy, _ = trained_f1
    x = model.u.grid.axes()[0]
    flipped = model.u.values.copy()
    flipped[x > 5.0] *= -1.0
    assert energy.stationarity_residual(
        model.u.with_values(flipped)
    ) > energy.stationarity_residual(model.u)


def test_train_g_direction_optimizes_its_surrogate(toy):
    # The alternative descent direction drops the 1/A**2 factor and scales
    # the miss term by beta**2 instead of k, so its stationary threshold is
    # the sweep optimum of (b + c)/a, not the F1 optimum.
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    base = auto_time_step(init_shape(pair.grid, RIGHT_BOX), energy, TrainConfig())
    cfg = TrainConfig(
        init=RIGHT_BOX, dt=base / 30, reinit_every=300, max_iter=12000, descent="G"
    )
    model, trace = train(pair, energy, cfg)
    taus = np.linspace(-2.0, 6.0, 2000)
    a = ndtr(3.0 - taus)
    ratio = np.where(a > 1e-9, (ndtr(taus - 3.0) + ndtr(1.0 - taus)) / a, np.inf)
    tau_g = taus[int(np.argmin(ratio))]
    crossings = frontier(model)
    assert len(crossings) == 1
    assert abs(crossings[0] - tau_g) <= 0.05


def test_train_lattice_offsets_agree(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    base = auto_time_step(init_shape(pair.grid, RIGHT_BOX), energy, TrainConfig())
    first = []
    for off in (0.0, 0.17, 0.31):
        cfg = TrainConfig(
            init=SphereLattice(offset=(off,)),
            dt=base / 10,
            reinit_every=300,
            max_iter=12000,
        )
        model, _ = train(pair, energy, cfg)
        first.append(frontier(model)[0])
    assert max(first) - min(first) <= 0.01


def test_train_separable_classes_perfectly():
    grid = GridSpec(bounds=((-1.0, 6.0),), resolution=1024)
    x = grid.axes()[0]
    tri = lambda c, w: np.maximum(0.0, 1.0 - np.abs(x - c) / w) / w
    pair = DensityPair(
        f_pos=ScalarField(grid, tri(0.5, 0.5)),
        f_neg=ScalarField(grid, tri(4.5, 0.5)),
        p_count=500,
        n_count=500,
    )
    energy = MeasureEnergy(pair, eps=1.5 * max(grid.spacing))
    box = Box(lo=(-0.9,), hi=(2.0,))
    base = auto_time_step(init_shape(grid, box), energy, TrainConfig())
    cfg = TrainConfig(init=box, dt=base / 10, reinit_every=300, max_iter=6000)
    model, _ = train(pair, energy, cfg)
    vals = model.u.values
    assert np.all(vals[(x >= 0.0) & (x <= 1.0)] > 0)  # every positive kept
    assert np.all(vals[(x >= 4.0) & (x <= 5.0)] < 0)  # every negative excluded


def test_train_without_diffusion_descends_monotonically(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    base = auto_time_step(init_shape(pair.grid, RIGHT_BOX), energy, TrainConfig())
    cfg = TrainConfig(
        init=RIGHT_BOX, dt=base / 10, lam=0.0, reinit_every=300, max_iter=600
    )
    _, trace = train(pair, energy, cfg)
    e = np.array([r.energy for r in trace.records])
    plain = ~np.array([r.reinit for r in trace.records[1:]])
    drops = (e[1:] <= e[:-1] + 1e-9)[plain]
    assert drops.mean() >= 0.95


def test_train_restarts_when_initialization_misses_positive_mass():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=1024)
    x = grid.axes()[0]
    tri = lambda c, w: np.maximum(0.0, 1.0 - np.abs(x - c) / w) / w
    # positive support inside a default lattice sphere, so the restart works
    pair = DensityPair(
        f_pos=ScalarField(grid, tri(3.0, 0.4)),
        f_neg=ScalarField(grid, tri(-0.5, 0.5)),
        p_count=100,
        n_count=100,
    )
    energy = MeasureEnergy(pair, eps=1e-15)  # no smoothing leakage into A
    far_box = Box(lo=(-1.9,), hi=(-1.7,))
    cfg = TrainConfig(init=far_box, dt=1e-6, max_iter=2)
    model, trace = train(pair, energy, cfg)
    assert trace.restarted
    assert len(trace.records) >= 1
    assert all(np.isfinite(r.energy) for r in trace.records)


def test_train_raises_when_restart_also_misses_positive_mass():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=1024)
    x = grid.axes()[0]
    tri = lambda c, w: np.maximum(0.0, 1.0 - np.abs(x - c) / w) / w
    # positive support tucked between default lattice spheres
    pair = DensityPair(
        f_pos=ScalarField(grid, tri(2.0, 0.3)),
        f_neg=ScalarField(grid, tri(-0.5, 0.5)),
        p_count=100,
        n_count=100,
    )
    energy = MeasureEnergy(pair, eps=1e-15)
    cfg = TrainConfig(init=Box(lo=(-1.9,), hi=(-1.7,)), dt=1e-6, max_iter=2)
    with pytest.raises(VanishingPositiveMassError):
        train(pair, energy, cfg)


def test_train_reports_max_iter(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=300, max_iter=3)
    model, trace = train(pair, energy, cfg)
    assert trace.status == "max-iter"
    assert len(trace.records) == 3
    assert not trace.restarted


def test_train_integrates_each_field_once(toy, monkeypatch):
    # evaluate's (A, B, C) of a field are reused by the next step
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    dt = auto_time_step(init_shape(pair.grid, RIGHT_BOX), energy, TrainConfig()) / 10
    calls = []
    original = MeasureEnergy._fractions

    def counted(self, u):
        calls.append(u)
        return original(self, u)

    monkeypatch.setattr(MeasureEnergy, "_fractions", counted)
    cfg = TrainConfig(init=RIGHT_BOX, dt=dt, reinit_every=4, max_iter=10)
    _, trace = train(pair, energy, cfg)
    assert len(trace.records) == 10
    assert len(calls) == 1 + 10  # the starting field, then one per iterate


def test_train_rejects_tiny_grids():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=3)
    f = ScalarField(grid, np.ones(grid.shape))
    pair = DensityPair(f_pos=f, f_neg=f, p_count=1, n_count=1)
    with pytest.raises(ValueError):
        train(pair, MeasureEnergy(pair, eps=0.05), TrainConfig())


def test_trace_csv_layout(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=2, max_iter=5)
    _, trace = train(pair, energy, cfg)
    lines = trace.to_csv().splitlines()
    header = [l for l in lines if l.startswith("# ")]
    for key in ("beta=", "measure=", "descent=", "dt=", "lambda=", "eps_h=",
                "tol=", "reinit_every=", "max_iter=", "seed=", "status=",
                "restarted=", "final_dt="):
        assert any(key in h for h in header), key
    rows = lines[len(header):]
    assert rows[0] == "iteration,energy,max_update,reinit"
    assert len(rows) == 1 + len(trace.records)
    it, e_val, upd, re_flag = rows[1].split(",")
    assert int(it) == 1 and np.isfinite(float(e_val)) and float(upd) >= 0
    assert re_flag in ("0", "1")
    # iteration 2 and 4 hit the cadence
    assert [r.reinit for r in trace.records] == [False, True, False, True, False]


def test_train_is_deterministic(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=50, max_iter=120)
    m1, t1 = train(pair, energy, cfg)
    m2, t2 = train(pair, energy, cfg)
    assert t1.to_csv() == t2.to_csv()
    assert m1.u.values.tobytes() == m2.u.values.tobytes()
