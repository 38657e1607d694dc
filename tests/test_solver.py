"""Training loop: stepping, reinitialization, convergence, restarts, traces."""
import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofc import solver
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
    edge_crossings,
    gradient_magnitude,
    init_shape,
    laplacian,
)
from ofc.solver import (
    TrainConfig,
    auto_time_step,
    config_to_text,
    default_resolution,
    has_sign_change,
    reinitialize,
    step,
    train,
)
from ofc.classifier import frontier
from toy1d import (
    RIGHT_BOX,
    SWEEP_TAUS,
    TOY_BOUNDS,
    cold_dt,
    normal_pdf,
    tail_counts,
    train_energy,
)


def balanced_pair(resolution=256):
    """Identical class densities and counts: every field is a fixed point."""
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=resolution)
    phi = normal_pdf(grid.axes()[0], 2.0)
    return DensityPair(
        f_pos=ScalarField(grid, phi),
        f_neg=ScalarField(grid, phi),
        p_count=500,
        n_count=500,
    )


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    TrainConfig()  # defaults are valid
    TrainConfig(lam=0.0)  # diffusion may be switched off
    for bad in (
        dict(beta=0.0),
        dict(beta=float("nan")),
        dict(beta=float("inf")),
        dict(beta=1e200),
        dict(dt=-1.0),
        dict(dt=float("nan")),
        dict(lam=-0.1),
        dict(eps_h=0.0),
        dict(eps_h=1e200),
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


def test_resolved_defaults_come_from_the_grid():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=100)
    h = max(grid.spacing)
    cfg = solver.resolved_config(TrainConfig(), grid)
    assert cfg.lam == pytest.approx(0.1 * h * h)
    assert cfg.eps_h == pytest.approx(1.5 * h)
    assert cfg.resolution == 100 and cfg.dt is None
    assert solver.resolved_config(TrainConfig(lam=0.7), grid).lam == 0.7
    assert solver.resolved_config(TrainConfig(lam=0.0), grid).lam == 0.0
    assert solver.resolved_config(TrainConfig(eps_h=0.3), grid).eps_h == 0.3
    assert solver.resolved_config(TrainConfig(resolution=100), grid).resolution == 100
    # a grid whose axes differ has no one cell count to record or to match
    uneven = GridSpec(bounds=TOY_BOUNDS * 2, resolution=(8, 16))
    assert solver.resolved_config(TrainConfig(), uneven).resolution is None
    with pytest.raises(ValueError, match=r"resolution 8 .* cells per axis \(8, 16\)"):
        solver.resolved_config(TrainConfig(resolution=8), uneven)


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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_auto_time_step_keeps_explicit_diffusion_stable(data):
    # an anisotropic grid in 1-D to 3-D, random densities and field
    dim = data.draw(st.integers(1, 3))
    widths = [data.draw(st.floats(1e-3, 1e3)) for _ in range(dim)]
    grid = GridSpec(bounds=tuple((0.0, w) for w in widths),
                    resolution=tuple(data.draw(st.integers(4, 12)) for _ in range(dim)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pair = DensityPair(ScalarField(grid, rng.random(grid.shape) + 0.01),
                       ScalarField(grid, rng.random(grid.shape) + 0.01), p_count=30, n_count=70)
    energy = MeasureEnergy(pair, eps=1.5 * max(grid.spacing))
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    scale = data.draw(st.one_of(st.none(), st.just(0.0), st.floats(1e-3, 1e3)))
    cfg = TrainConfig(lam=None if scale is None else scale * max(grid.spacing) ** 2)
    lam = solver.resolved_config(cfg, grid).lam
    dt = auto_time_step(u, energy, cfg)
    free = 0.5 * min(grid.spacing) / float(np.abs(energy.descent_direction(u).values).max())
    if lam == 0.0:
        assert dt == free
    else:
        assert dt == min(free, 1.0 / (2.0 * lam * sum(h**-2 for h in grid.spacing)))
        # at that dt, diffusion alone does not amplify the checkerboard mode,
        # the Laplacian's fastest
        flat = replace(pair, f_neg=pair.f_pos, n_count=pair.p_count)
        accuracy = MeasureEnergy(flat, eps=energy.eps, kind="accuracy")
        h = min(grid.spacing)  # the amplitude, so no step nears the 10-cell guard
        checker = ScalarField(grid, h * (-1.0) ** np.indices(grid.shape).sum(axis=0))
        dt = auto_time_step(checker, accuracy, cfg)
        after = step(step(checker, accuracy, cfg, dt), accuracy, cfg, dt)
        assert np.abs(after.values).max() <= h * (1.0 + 1e-9)


def test_step_fixed_point_without_diffusion():
    pair = balanced_pair()
    energy = MeasureEnergy(pair, eps=0.05, kind="accuracy")
    u = ScalarField(pair.grid, np.sin(pair.grid.axes()[0]))
    out = step(u, energy, TrainConfig(lam=0.0), dt=0.3)
    assert np.array_equal(out.values, u.values)


def test_step_pure_diffusion_contracts():
    # Zero force, positive lambda: one explicit heat step, which both
    # matches the stencil directly and lowers the sup norm of a sine mode.
    pair = balanced_pair()
    grid = pair.grid
    energy = MeasureEnergy(pair, eps=0.05, kind="accuracy")
    u = ScalarField(grid, np.sin(2.0 * grid.axes()[0]))
    cfg = TrainConfig(lam=0.05)
    out = step(u, energy, cfg, dt=0.01)
    expected = u.values + 0.01 * 0.05 * laplacian(u).values
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-15)
    interior = np.abs(out.values[2:-2])
    assert interior.max() < np.abs(u.values[2:-2]).max()


def test_step_rejects_oversized_updates(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = init_shape(pair.grid, RIGHT_BOX)
    with pytest.raises(StepRejectedError):
        step(u, energy, TrainConfig(), dt=1e9)


def test_step_with_nan_update_raises(toy):
    # the guard passes a nan update on, and building the field refuses it
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = init_shape(pair.grid, RIGHT_BOX)
    with pytest.raises(ValueError, match="finite"):
        step(u, energy, TrainConfig(), dt=float("nan"))


def test_step_with_non_finite_diffusion_raises_without_halving(toy):
    # the Laplacian of nodes alternating at +-1e308 overflows: the public
    # kernel refuses to return it, and step refuses the step at once
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = ScalarField(pair.grid, np.where(np.arange(pair.grid.shape[0]) % 2, 1e308, -1e308))
    with np.errstate(over="ignore"):  # the values are under test, not the warnings
        with pytest.raises(ValueError, match="finite"):
            laplacian(u)
        with pytest.raises(ValueError, match="finite"):
            step(u, energy, TrainConfig(lam=0.05), dt=0.01)


def test_step_requires_matching_grid_and_dt(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = init_shape(pair.grid, RIGHT_BOX)
    other_grid = GridSpec(bounds=TOY_BOUNDS, resolution=17)
    other = ScalarField(other_grid, np.zeros(other_grid.shape))
    with pytest.raises(GridMismatchError):
        step(other, energy, TrainConfig(), dt=0.1)
    with pytest.raises(ValueError):
        step(u, energy, TrainConfig())  # dt unresolved


def test_one_step_lowers_energy(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    u = ScalarField(pair.grid, pair.grid.axes()[0] - 2.0)
    dt = cold_dt(pair, u)
    stepped = step(u, energy, TrainConfig(lam=0.0), dt=dt)
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


def test_reinitialize_zero_node_inside_the_positive_class():
    """u = 0 is the positive class: a zero node among positives is no seed
    and lies at a positive distance from the boundary."""
    grid = GridSpec(bounds=((0.0, 4.0),), resolution=4)
    d = reinitialize(ScalarField(grid, np.array([1.0, 0.0, 1.0, -1.0, -1.0])))
    np.testing.assert_allclose(d.values, [2.5, 1.5, 0.5, -0.5, -1.5], rtol=0, atol=1e-12)


def test_reinitialize_keeps_every_class_on_integer_fields():
    rng = np.random.default_rng(4)
    for shape in [(41,), (13, 17), (7, 8, 9)]:
        grid = GridSpec(bounds=((-1.0, 1.0),) * len(shape), resolution=tuple(n - 1 for n in shape))
        v = rng.integers(-2, 3, size=shape).astype(float)
        d = reinitialize(ScalarField(grid, v)).values
        assert np.array_equal(d >= 0, v >= 0)
        # a zero node is at distance 0 exactly when a neighbour is negative
        seed = np.zeros(shape, dtype=bool)
        for ax in range(v.ndim):
            neg = np.moveaxis(v < 0, ax, 0)
            near = np.moveaxis(seed, ax, 0)
            near[1:] |= neg[:-1]
            near[:-1] |= neg[1:]
        zero = v == 0
        assert zero.any() and (zero & ~seed).any()
        assert np.array_equal(d[zero] == 0, seed[zero])


# each input has more nodes x seeds than one tile takes
@pytest.mark.parametrize("dim, resolution, wavenumber", [
    pytest.param(1, 20000, 400, id="1-20000"),
    pytest.param(2, 128, 4, id="2-128"),
    pytest.param(3, 20, 1, id="3-20"),
])
def test_reinitialize_tiled_matches_one_tile_search(
    dim, resolution, wavenumber, monkeypatch
):
    """Tiled redistancing matches the one-tile search to 1e-12 cell."""
    grid = GridSpec(bounds=((-2.0, 2.0),) * dim, resolution=resolution)
    rng = np.random.default_rng(dim)
    u = ScalarField(grid, sum(
        np.sin(wavenumber * rng.uniform(1, 3) * m + rng.uniform(0, 6)) for m in grid.mesh()
    ))
    offsets = solver._axis_crossing_offsets(u.values, grid.spacing)
    seeds = np.count_nonzero(np.isfinite(np.stack(offsets)).any(axis=0))
    assert u.values.size * seeds > solver._EXACT_MAX_PAIRS
    tiled = reinitialize(u).values
    monkeypatch.setattr(solver, "_EXACT_MAX_PAIRS", np.inf)
    np.testing.assert_allclose(
        tiled, reinitialize(u).values, rtol=0, atol=1e-12 * max(grid.spacing)
    )


def test_reinitialize_threads_agree_bytewise():
    small = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=65)
    large = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=128)
    mesh = large.mesh()
    fields = (
        random_bump_field(small, np.random.default_rng(1)),  # one tile
        ScalarField(large, np.sin(4.0 * mesh[0]) + np.cos(3.0 * mesh[1])),  # tiled
    )
    expected = [reinitialize(u).values.tobytes() for u in fields]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(
                lambda i: reinitialize(fields[i % 2]).values.tobytes(), range(16), timeout=60
            ))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 8


def all_pairs_redistance(u):
    """Signed distance from each node to the nearest seed foot, by a loop
    over the nodes that measures every foot: the reference for the search."""
    coords = np.stack(u.grid.mesh()).reshape(u.grid.dim, -1).T
    offsets = solver._axis_crossing_offsets(u.values, u.grid.spacing)
    feet, plane = [], {}
    for i, x in enumerate(coords):
        off = np.array([o.flat[i] for o in offsets])
        if np.isinf(off).all():
            continue
        if (off == 0).any():  # u is zero at the node
            feet.append(x)
            plane[i] = 0.0
            continue
        recip = 1.0 / off
        inv = float(recip @ recip)
        feet.append(x + recip / inv)
        plane[i] = 1.0 / np.sqrt(inv)
    feet = np.array(feet)
    dist = np.array([
        plane[i] if i in plane else np.sqrt(((feet - x) ** 2).sum(axis=1)).min()
        for i, x in enumerate(coords)
    ]).reshape(u.values.shape)
    return np.where(u.values >= 0, dist, -dist)


# the grid far from the origin checks that rounding in the product stays
# at the scale of the grid, not of its coordinates
@pytest.mark.parametrize("dim, resolution, centre", [
    (1, 200, 0.0), (2, 40, 0.0), (3, 12, 0.0), (2, 40, 1e6),
])
def test_reinitialize_search_matches_all_pairs_reference(dim, resolution, centre, monkeypatch):
    grid = GridSpec(bounds=((centre - 2.0, centre + 2.0),) * dim, resolution=resolution)
    rng = np.random.default_rng(dim)
    u = ScalarField(grid, sum(np.sin(rng.uniform(1, 3) * m + rng.uniform(0, 6)) for m in grid.mesh()))
    expected = all_pairs_redistance(u)
    atol = 1e-12 * max(grid.spacing)
    np.testing.assert_allclose(reinitialize(u).values, expected, rtol=0, atol=atol)
    monkeypatch.setattr(solver, "_EXACT_MAX_PAIRS", 0)  # tiled at any size
    np.testing.assert_allclose(reinitialize(u).values, expected, rtol=0, atol=atol)


def fresh_mesh_redistance(u):
    """The one-tile search with the node coordinates built afresh from the
    grid's mesh, and a foot computed at every node before the seeds' feet
    are picked out: the reference for the cached coordinates."""
    grid = u.grid
    coords = np.stack(grid.mesh())
    offsets = []
    for ax, h in enumerate(grid.spacing):
        lo, hi, cross, t = edge_crossings(u.values, ax)
        off = np.full(u.values.shape, np.inf)
        off[lo][cross] = t * h
        far = np.full(cross.shape, np.inf)
        far[cross] = (1.0 - t) * h
        up = off[hi]
        off[hi] = np.where(far < np.abs(up), -far, up)
        offsets.append(off)
    with np.errstate(all="ignore"):
        foot = np.stack([1.0 / o for o in offsets])
        inv = (foot * foot).sum(axis=0)
        plane = 1.0 / np.sqrt(inv)
        foot /= inv
        foot += coords
        np.copyto(foot, coords, where=np.isinf(inv))
    centre = 0.5 * (np.array(grid.bounds)[:, 0] + np.array(grid.bounds)[:, 1])
    feet = foot[:, inv > 0].T - centre
    free = np.isinf(plane)
    points = coords[:, free].T - centre
    rows = np.hstack([points, np.ones((len(points), 1))])
    cols = np.vstack([-2.0 * feet.T, np.einsum("ij,ij->i", feet, feet)])
    gap = points - feet[np.argmin(rows @ cols, axis=1)]
    plane[free] = np.sqrt(np.einsum("ij,ij->i", gap, gap))
    return np.where(u.values >= 0, plane, -plane)


@pytest.mark.parametrize("resolution, max_iter", [(64, 400), (32, 200)])
def test_reinitialize_on_trained_fields_matches_the_fresh_mesh_reference(
    resolution, max_iter, monkeypatch
):
    # the fields train redistances at the benchmark's fit2d and cv sizes
    from ofc.classifier import fit
    from ofc.data import gen_db

    fields, original = [], solver.reinitialize
    monkeypatch.setattr(solver, "reinitialize", lambda u: fields.append(u) or original(u))
    for db in (2, 4):
        fit(gen_db(db, seed=1), TrainConfig(resolution=resolution, max_iter=max_iter))
    assert len(fields) >= 4
    for u in fields:
        assert original(u).values.tobytes() == fresh_mesh_redistance(u).tobytes()


def _blas_products_digests(u_path) -> list:
    """Hashes of a field redistanced as one tile, of a tiled one at 129^2 nodes,
    and of whole fits at 33^2 and 65^2 nodes, each of which runs matrix
    products on every step."""
    from ofc.classifier import fit
    from ofc.data import gen_db

    grid = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=65)
    large = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=128)
    mesh = large.mesh()
    arrays = [
        reinitialize(ScalarField(grid, np.load(u_path))).values,
        reinitialize(ScalarField(large, np.sin(4.0 * mesh[0]) + np.cos(3.0 * mesh[1]))).values,
    ]
    data = gen_db(4, seed=0)
    for resolution, max_iter in ((32, 200), (64, 400)):
        model, _ = fit(data, TrainConfig(resolution=resolution, max_iter=max_iter))
        arrays.append(model.u.values)
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]


def test_reinitialize_and_fit_same_bytes_with_one_blas_thread(tmp_path):
    grid = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=65)
    u = random_bump_field(grid, np.random.default_rng(2))
    np.save(tmp_path / "u.npy", u.values)
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import sys\n"
        "from test_solver import _blas_products_digests\n"
        "print(' '.join(_blas_products_digests(sys.argv[1])))\n"
    )
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, tests]))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "u.npy")], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.split() == _blas_products_digests(tmp_path / "u.npy")


# ---------------------------------------------------------------------------
# full training runs on the 1-D toy problem


def test_converged_run_has_small_stationarity_residual(trained_f1):
    model, trace, energy, _ = trained_f1
    assert energy.stationarity_residual(model.u) <= 2.0 * model.config.tol / trace.final_dt


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
    pair, _ = toy
    cfg = TrainConfig(
        init=RIGHT_BOX, dt=cold_dt(pair, n=30), reinit_every=300, max_iter=12000, descent="G"
    )
    model, trace = train(pair, cfg)
    tp, fn, fp, _ = tail_counts(SWEEP_TAUS)
    a, b, c = tp / pair.p_count, fn / pair.p_count, fp / pair.n_count
    ratio = np.where(a > 1e-9, (b + c) / a, np.inf)
    tau_g = SWEEP_TAUS[int(np.argmin(ratio))]
    crossings = frontier(model)
    assert len(crossings) == 1
    assert abs(crossings[0] - tau_g) <= 0.05


def test_train_lattice_offsets_agree(toy):
    pair, _ = toy
    dt = cold_dt(pair)
    first = []
    for off in (0.0, 0.17, 0.31):
        cfg = TrainConfig(
            init=SphereLattice(offset=(off,)),
            dt=dt,
            reinit_every=300,
            max_iter=12000,
        )
        model, _ = train(pair, cfg)
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
    box = Box(lo=(-0.9,), hi=(2.0,))
    dt = cold_dt(pair, init_shape(grid, box))
    cfg = TrainConfig(init=box, dt=dt, reinit_every=300, max_iter=6000)
    model, _ = train(pair, cfg)
    vals = model.u.values
    assert np.all(vals[(x >= 0.0) & (x <= 1.0)] > 0)  # every positive kept
    assert np.all(vals[(x >= 4.0) & (x <= 5.0)] < 0)  # every negative excluded


def test_train_without_diffusion_descends_monotonically(toy):
    pair, _ = toy
    cfg = TrainConfig(
        init=RIGHT_BOX, dt=cold_dt(pair), lam=0.0, reinit_every=300, max_iter=600
    )
    _, trace = train(pair, cfg)
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
    far_box = Box(lo=(-1.9,), hi=(-1.7,))
    # eps_h this small lets no smoothing leak into A
    cfg = TrainConfig(init=far_box, dt=1e-6, eps_h=1e-15, max_iter=2)
    model, trace = train(pair, cfg)
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
    cfg = TrainConfig(init=Box(lo=(-1.9,), hi=(-1.7,)), dt=1e-6, eps_h=1e-15, max_iter=2)
    with pytest.raises(VanishingPositiveMassError):
        train(pair, cfg)


def test_train_reports_max_iter(toy):
    pair, _ = toy
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=300, max_iter=3)
    model, trace = train(pair, cfg)
    assert trace.status == "max-iter"
    assert len(trace.records) == 3
    assert not trace.restarted


def test_train_integrates_each_field_once(toy, monkeypatch):
    # evaluate's (A, B, C) of a field are reused by the next step
    pair, _ = toy
    dt = cold_dt(pair)
    calls = []
    original = MeasureEnergy._fractions

    def counted(self, u):
        calls.append(u)
        return original(self, u)

    monkeypatch.setattr(MeasureEnergy, "_fractions", counted)
    cfg = TrainConfig(init=RIGHT_BOX, dt=dt, reinit_every=4, max_iter=10)
    _, trace = train(pair, cfg)
    assert len(trace.records) == 10
    # the starting field, one per iterate, and the result, redistanced after
    # iteration 10 for its final energy
    assert len(calls) == 1 + 10 + 1


@pytest.mark.parametrize("max_iter, expected", [(100, 2), (120, 3)])
def test_train_redistances_the_result_once(toy, monkeypatch, max_iter, expected):
    # the closing redistancing is skipped when the last iteration did it
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    dt = cold_dt(pair)
    calls = []
    original = solver.reinitialize

    def counted(u):
        calls.append(u)
        return original(u)

    monkeypatch.setattr(solver, "reinitialize", counted)
    cfg = TrainConfig(init=RIGHT_BOX, dt=dt, tol=1e-300, reinit_every=50, max_iter=max_iter)
    model, trace = train(pair, cfg)
    assert len(trace.records) == max_iter
    assert len(calls) == expected
    assert trace.records[-1].reinit == (max_iter % 50 == 0)
    assert trace.final_energy == energy.evaluate(model.u)


def test_train_rejects_tiny_grids():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=3)
    f = ScalarField(grid, np.ones(grid.shape))
    pair = DensityPair(f_pos=f, f_neg=f, p_count=1, n_count=1)
    with pytest.raises(ValueError):
        train(pair, TrainConfig())


def test_trace_csv_layout(toy):
    pair, _ = toy
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=2, max_iter=5)
    _, trace = train(pair, cfg)
    lines = trace.to_csv().splitlines()
    header = [l for l in lines if l.startswith("# ")]
    for key in ("beta=", "measure=", "descent=", "dt=", "lam=", "eps_h=",
                "tol=", "reinit_every=", "max_iter=", "seed=", "status=",
                "restarted=", "final_dt=", "final_energy=", "dt_halvings=",
                "stationarity_residual=", "energy_ascent="):
        assert any(key in h for h in header), key
    rows = lines[len(header):]
    assert rows[0] == "iteration,energy,max_update,reinit"
    assert len(rows) == 1 + len(trace.records)
    it, e_val, upd, re_flag = rows[1].split(",")
    assert int(it) == 1 and np.isfinite(float(e_val)) and float(upd) >= 0
    assert re_flag in ("0", "1")
    # iteration 2 and 4 hit the cadence
    assert [r.reinit for r in trace.records] == [False, True, False, True, False]


def test_trace_header_and_model_config_record_the_energy_beta(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps, beta=3.0)
    model, trace = train(pair, TrainConfig(beta=3.0, init=RIGHT_BOX, max_iter=5))
    assert model.beta == model.config.beta == 3.0
    assert model.config.eps_h == eps
    assert model.config.lam == 0.1 * max(pair.grid.spacing) ** 2
    assert trace.header == {
        "measure": "f_measure", "k": repr(energy.k), **config_to_text(model.config),
    }
    assert "# beta=3.0" in trace.to_csv().splitlines()


def test_default_config_resolves_every_default():
    from ofc.classifier import densities_for
    from ofc.data import gen_db

    pair = densities_for(gen_db(4, seed=0), TrainConfig(resolution=32))
    model, trace = train(pair)
    for name in ("dt", "lam", "eps_h", "resolution"):
        assert getattr(model.config, name) is not None, name
    assert model.config.resolution == 32
    assert model.config.eps_h == 1.5 * max(pair.grid.spacing)
    assert trace.header == {
        "measure": "f_measure", "k": repr(model.k), **config_to_text(model.config),
    }


def test_explicit_settings_reach_the_model_unchanged(toy):
    pair, _ = toy
    cfg = TrainConfig(beta=2.0, eps_h=0.5, lam=0.01, init=RIGHT_BOX, max_iter=5)
    for measure in ("f_measure", "accuracy"):
        model, trace = train(pair, cfg, measure)
        assert model.config == replace(cfg, dt=model.config.dt, resolution=1024)
        assert model.beta == 2.0 and model.kind == measure
        assert trace.header["beta"] == "2.0" and trace.header["eps_h"] == "0.5"
        assert trace.header["lam"] == "0.01"


def test_train_is_deterministic(toy):
    pair, _ = toy
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=50, max_iter=120)
    m1, t1 = train(pair, cfg)
    m2, t2 = train(pair, cfg)
    assert t1.to_csv() == t2.to_csv()
    assert m1.u.values.tobytes() == m2.u.values.tobytes()


# ---------------------------------------------------------------------------
# run diagnostics in the trace


def test_trace_diagnostics_describe_the_returned_field(toy):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    # a first dt far above the guard's limit is halved until steps pass
    cfg = TrainConfig(init=RIGHT_BOX, dt=1e9, reinit_every=50, max_iter=20)
    model, trace = train(pair, cfg)
    assert trace.dt_halvings > 0
    assert trace.final_dt == 1e9 * 0.5 ** trace.dt_halvings
    assert trace.stationarity_residual == energy.stationarity_residual(model.u)
    text = trace.to_csv()
    assert f"# dt_halvings={trace.dt_halvings}\n" in text
    assert f"# stationarity_residual={trace.stationarity_residual!r}\n" in text
    assert f"# energy_ascent={int(trace.energy_ascent)}\n" in text


def test_energy_ascent_flags_a_rebound(monkeypatch):
    # from the lattice, db2's classifier is best at iteration 200 and scores
    # worse at 250
    from ofc.classifier import fit
    from ofc.data import gen_db

    scores = _spy_scores(monkeypatch)
    cfg = TrainConfig(resolution=64, max_iter=400, reinit_every=50, init=SphereLattice())
    _, trace = fit(gen_db(2, seed=0), cfg)
    assert trace.status == "converged"
    assert len(trace.records) < 400
    assert trace.records[-1].reinit
    assert trace.energy_ascent
    assert scores[-1] > min(scores) == trace.sign_pattern_energy
    # scores[0] is the start's, checkpoint 0
    assert trace.best_iteration == 50 * scores.index(min(scores))
    assert trace.final_energy == trace.records[trace.best_iteration - 1].energy


def test_energy_ascent_unset_while_the_energy_falls():
    from ofc.classifier import fit
    from ofc.data import gen_db

    cfg = TrainConfig(resolution=64, max_iter=100, init=SphereLattice())
    _, trace = fit(gen_db(3, seed=0), cfg)
    energies = [r.energy for r in trace.records]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert trace.final_energy == energies[-1]
    assert not trace.energy_ascent
    assert "# energy_ascent=0\n" in trace.to_csv()


# ---------------------------------------------------------------------------
# stopping on the sign-pattern energy and keeping the best field


def _spy_scores(monkeypatch) -> list:
    """The sign-pattern energy of every field train scores, in order."""
    scores = []
    original = MeasureEnergy.sign_pattern_energy

    def spy(self, u, descent="derivative"):
        scores.append(original(self, u, descent))
        return scores[-1]

    monkeypatch.setattr(MeasureEnergy, "sign_pattern_energy", spy)
    return scores


@pytest.mark.parametrize("db", [2, 4])
def test_returned_field_scores_lowest_of_every_checkpoint(db, monkeypatch):
    # from the lattice, both stop on a rising score at iteration 100
    from ofc.classifier import densities_for, fit
    from ofc.data import gen_db

    data = gen_db(db, seed=0)
    scores = _spy_scores(monkeypatch)
    cfg = TrainConfig(resolution=32, max_iter=400, reinit_every=50, init=SphereLattice())
    model, trace = fit(data, cfg)
    assert trace.status == "converged" and len(trace.records) == 100
    assert len(scores) >= 3
    assert all(trace.sign_pattern_energy <= s for s in scores)
    text = trace.to_csv()
    assert f"# sign_pattern_energy={trace.sign_pattern_energy!r}\n" in text
    assert f"# best_iteration={trace.best_iteration}\n" in text
    energy = MeasureEnergy(densities_for(data, model.config), eps=model.config.eps_h)
    assert energy.sign_pattern_energy(model.u) == trace.sign_pattern_energy


@pytest.mark.parametrize("db", [1, 2, 3, 4])
def test_a_run_from_the_optimum_ends_at_its_first_checkpoint(db):
    # the start scores lowest, so the first checkpoint is the first above
    # the one before it, and it is returned: the start never is
    from ofc.classifier import fit
    from ofc.data import gen_db

    _, trace = fit(gen_db(db, seed=0), TrainConfig(resolution=64, max_iter=400))
    assert len(trace.records) == trace.best_iteration == TrainConfig().reinit_every
    assert trace.status == "converged"
    assert not trace.energy_ascent


def test_a_cv_sized_run_from_the_optimum_ends_at_its_first_checkpoint():
    # a run whose second checkpoint scores below its first; from the
    # optimum it still ends at its first
    from ofc.classifier import fit
    from ofc.data import gen_db, kfold

    data = gen_db(2, seed=4)
    train_idx, _ = kfold(data, 3, seed=4)[0]
    cfg = TrainConfig(resolution=32, max_iter=200, beta=1.0)
    _, trace = fit(data.subset(train_idx), cfg)
    assert len(trace.records) == trace.best_iteration == TrainConfig().reinit_every
    assert trace.status == "converged"


def test_a_checkpoint_above_the_start_is_returned_not_the_start(toy, monkeypatch):
    pair, _ = toy
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=5, max_iter=50)
    checkpoint, _ = train(pair, replace(cfg, max_iter=5))
    original, scores = MeasureEnergy.sign_pattern_energy, []

    def start_scores_lowest(self, u, descent="derivative"):
        scores.append(original(self, u, descent))
        return -1.0 if len(scores) == 1 else scores[-1]

    monkeypatch.setattr(MeasureEnergy, "sign_pattern_energy", start_scores_lowest)
    model, trace = train(pair, cfg)
    assert trace.status == "converged" and len(trace.records) == 5
    assert trace.best_iteration == 5 and not trace.energy_ascent
    assert trace.sign_pattern_energy == scores[1]
    assert model.u.values.tobytes() == checkpoint.u.values.tobytes()
    assert model.u.values.tobytes() != init_shape(pair.grid, RIGHT_BOX).values.tobytes()


@pytest.mark.parametrize("db", [1, 2, 3, 4])
def test_a_lattice_run_goes_past_its_first_checkpoint(db, monkeypatch):
    from ofc.classifier import fit
    from ofc.data import gen_db

    scores = _spy_scores(monkeypatch)
    cfg = TrainConfig(resolution=32, max_iter=200, init=SphereLattice())
    _, trace = fit(gen_db(db, seed=0), cfg)
    assert scores[1] < scores[0]
    assert len(trace.records) > cfg.reinit_every


def test_falling_scores_return_the_last_field(monkeypatch):
    from ofc.classifier import fit
    from ofc.data import gen_db

    scores = _spy_scores(monkeypatch)
    cfg = TrainConfig(resolution=64, max_iter=100, init=SphereLattice())
    _, trace = fit(gen_db(3, seed=0), cfg)
    assert scores == sorted(scores, reverse=True)
    assert trace.status == "max-iter"
    assert trace.best_iteration == 100
    assert not trace.energy_ascent


@pytest.mark.parametrize("run", ["trained_accuracy", "trained_f1"])
def test_toy_runs_converge_on_their_last_field(run, request):
    # the acceptance 02 and 03 runs: the scores never rise, so the tol rule
    # still stops them and the last field is returned
    trace = request.getfixturevalue(run).trace
    assert trace.status == "converged"
    assert all(r.max_update < TrainConfig().tol for r in trace.records[-5:])
    assert trace.best_iteration == trace.records[-1].iteration
    assert not trace.energy_ascent


def test_restart_clears_the_kept_field(toy, monkeypatch):
    # the lattice a restart starts from scores worse than the box's field at
    # iteration 5, so a kept box field would stop the run at iteration 10;
    # scores are the box start, iteration 5, the lattice start, iteration 10
    pair, eps = toy
    original, calls = solver.step, []

    def step_that_loses_the_mass_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 7:
            raise VanishingPositiveMassError("forced")
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "step", step_that_loses_the_mass_once)
    scores = _spy_scores(monkeypatch)
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=5, max_iter=12)
    _, trace = train(pair, cfg)
    assert trace.restarted
    assert scores[3] > scores[1]
    assert trace.status == "max-iter"
    assert trace.best_iteration > 7


def test_restart_mid_run_numbers_and_times_every_iteration(toy, monkeypatch):
    pair, eps = toy
    energy = MeasureEnergy(pair, eps=eps)
    original, calls = solver.step, []

    def step_that_loses_the_mass_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 7:
            raise VanishingPositiveMassError("forced")
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "step", step_that_loses_the_mass_once)
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=5, max_iter=12)
    model, trace = train(pair, cfg)
    assert trace.restarted
    assert [r.iteration for r in trace.records] == list(range(1, 13))
    assert [r.reinit for r in trace.records].count(True) == 2
    assert list(trace.phase_seconds) == ["start", "step", "evaluate", "reinit"]
    assert all(s > 0.0 for s in trace.phase_seconds.values())
    # the model keeps the first start's dt; the run goes on at the lattice's
    assert model.config.dt == auto_time_step(init_shape(pair.grid, RIGHT_BOX), energy, cfg)
    lattice = init_shape(pair.grid, SphereLattice())
    assert trace.final_dt == auto_time_step(lattice, energy, cfg)


def test_default_start_is_the_redistanced_optimum(toy):
    pair, eps = toy
    model, trace = train(pair, TrainConfig(max_iter=1))
    energy = MeasureEnergy(pair, eps=eps)
    mask = ScalarField(pair.grid, np.where(energy._optimum_mask(), 1.0, -1.0))
    assert has_sign_change(mask)
    assert not trace.restarted
    assert model.config.dt == auto_time_step(reinitialize(mask), energy, model.config)


def test_a_start_without_a_sign_change_falls_back_to_the_lattice():
    # equal densities and counts: every node set scores W+/A, so the
    # optimum takes the whole grid
    pair = balanced_pair()
    energy = train_energy(pair)
    assert energy._optimum_mask().all()
    model, trace = train(pair, TrainConfig(max_iter=1))
    lattice = init_shape(pair.grid, SphereLattice())
    assert not trace.restarted
    assert model.config.dt == auto_time_step(lattice, energy, model.config)


@pytest.mark.parametrize("init", [None, SphereLattice()])
@pytest.mark.parametrize("db", [1, 2, 3, 4])
def test_optimality_gap_is_not_negative(db, init):
    from ofc.classifier import fit
    from ofc.data import gen_db

    _, trace = fit(gen_db(db, seed=0), TrainConfig(resolution=32, max_iter=200, init=init))
    optimum = trace.sign_pattern_energy - trace.optimality_gap
    assert trace.optimality_gap >= -1e-12 * abs(optimum)
    assert f"# optimality_gap={trace.optimality_gap!r}\n" in trace.to_csv()


def test_restart_at_the_start_records_the_lattice_dt():
    grid = GridSpec(bounds=TOY_BOUNDS, resolution=1024)
    x = grid.axes()[0]
    tri = lambda c, w: np.maximum(0.0, 1.0 - np.abs(x - c) / w) / w
    # the box holds none of the positive mass, so sizing its dt fails
    pair = DensityPair(
        f_pos=ScalarField(grid, tri(3.0, 0.4)),
        f_neg=ScalarField(grid, tri(-0.5, 0.5)),
        p_count=100,
        n_count=100,
    )
    energy = MeasureEnergy(pair, eps=1e-15)
    cfg = TrainConfig(init=Box(lo=(-1.9,), hi=(-1.7,)), eps_h=1e-15, max_iter=2)
    model, trace = train(pair, cfg)
    dt = auto_time_step(init_shape(grid, SphereLattice()), energy, cfg)
    assert trace.restarted
    assert model.config.dt == dt
    assert trace.header["dt"] == repr(dt)
    assert [r.iteration for r in trace.records] == [1, 2]


@pytest.mark.parametrize("reinit_every", [20, 50])
@pytest.mark.parametrize("db", [1, 2, 3, 4])
def test_kept_field_is_the_lower_of_the_final_field_and_the_checkpoint_before(
    db, reinit_every, monkeypatch
):
    # 130 iterations end between redistancings, so a run that reaches them
    # closes on one more; from the lattice at reinit_every=50, db1's closing
    # field scores above its checkpoint at 100, and at 20 below the one at 120
    from ofc.classifier import fit
    from ofc.data import gen_db

    scores = _spy_scores(monkeypatch)
    cfg = TrainConfig(resolution=32, max_iter=130, reinit_every=reinit_every,
                      init=SphereLattice())
    _, trace = fit(gen_db(db, seed=0), cfg)
    # the start, checkpoint 0, and at least two trained checkpoints
    assert len(scores) >= 3
    before, final = scores[-2:]
    assert trace.energy_ascent == (before < final)
    assert trace.sign_pattern_energy == min(before, final)
    if before < final:
        assert trace.best_iteration == reinit_every * (len(scores) - 2)
    else:
        assert trace.best_iteration == trace.records[-1].iteration


def test_model_records_the_cell_count_of_the_grid_it_trained_on():
    from ofc.classifier import densities_for, fit
    from ofc.data import gen_toy1d

    data = gen_toy1d(seed=1).subset(np.arange(0, 51000, 100))
    pair = densities_for(data, TrainConfig(resolution=256))
    model, trace = train(pair, TrainConfig(max_iter=5))
    assert model.config.resolution == 256
    assert trace.header["resolution"] == "256"
    refit, _ = fit(data, model.config)
    assert refit.grid.resolution == (256,)


def test_trace_times_each_phase_outside_its_text():
    from ofc.classifier import fit
    from ofc.data import gen_db

    _, trace = fit(gen_db(4, seed=0), TrainConfig(resolution=32, max_iter=60))
    assert list(trace.phase_seconds) == ["kde", "start", "step", "evaluate", "reinit"]
    assert all(s > 0.0 for s in trace.phase_seconds.values())
    assert "kde" not in trace.to_csv() and "seconds" not in trace.to_csv()
    assert trace == replace(trace, phase_seconds={})
