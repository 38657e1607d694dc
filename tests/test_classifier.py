"""End-to-end model: fit, predict, frontier export, persistence."""
from pathlib import Path

import numpy as np
import pytest

from ofc.data import LabeledDataset, gen_db, gen_toy1d
from ofc.density import DensityPair
from ofc.errors import (
    DegenerateDataError,
    DegenerateModelError,
    ModelFormatError,
    VersionMismatchError,
)
from ofc.classifier import (
    PredictionResult,
    TrainedClassifier,
    _marching_squares,
    _stitch,
    densities_for,
    density_fingerprint,
    fit,
    frontier,
    frontier_csv,
    load,
    predict,
    predict_full,
    save,
)
from ofc.field import Box, GridSpec, ScalarField, Sphere, SphereLattice, init_shape
from ofc.solver import TrainConfig, reinitialize, train


def manual_model(u, degenerate=False, config=None):
    return TrainedClassifier(
        u=u,
        kind="f_measure",
        beta=1.0,
        k=0.02,
        config=config or TrainConfig(),
        densities_hash="0" * 64,
        degenerate=degenerate,
    )


def line_model(tau=3.0):
    grid = GridSpec(bounds=((-2.0, 6.0),), resolution=1024)
    return manual_model(ScalarField(grid, grid.axes()[0] - tau))


@pytest.fixture(scope="module")
def toy_fit():
    data = gen_toy1d(seed=1).subset(np.arange(0, 51000, 10))  # 5100 points
    cfg = TrainConfig(resolution=256, max_iter=60, reinit_every=20)
    return data, fit(data, cfg)


# ---------------------------------------------------------------------------
# fit


def test_fit_wires_data_to_model(toy_fit):
    data, (model, trace) = toy_fit
    assert not model.degenerate
    assert model.kind == "f_measure"
    assert model.k == pytest.approx(data.n_pos / data.n_neg, rel=1e-12)
    assert len(trace.records) == 60 and trace.status == "max-iter"
    # grid covers the data with a 10% margin on each side
    lo, hi = data.points.min(), data.points.max()
    assert model.grid.mins[0] <= lo and model.grid.maxs[0] >= hi
    labels = predict(model, data.points)
    assert labels.dtype == bool and labels.shape == (len(data.points),)


def test_fit_2d_smoke():
    data = gen_db(1, seed=0).subset(np.arange(1200))
    cfg = TrainConfig(resolution=48, max_iter=40, reinit_every=20)
    model, trace = fit(data, cfg)
    assert model.grid.dim == 2
    assert not model.degenerate
    assert all(np.isfinite(r.energy) for r in trace.records)


def test_fit_single_class_data_errors():
    pts = np.array([[0.1], [0.2], [0.3], [0.4]])
    data = LabeledDataset(points=pts, labels=np.ones(4, dtype=bool))
    with pytest.raises(DegenerateDataError):
        fit(data, TrainConfig(resolution=16, max_iter=2))


@pytest.mark.parametrize("measure, descent", [
    ("f_measure", "derivative"), ("accuracy", "derivative"), ("f_measure", "G"),
])
def test_fit_is_densities_for_then_train(measure, descent):
    data = gen_db(4, seed=0)
    cfg = TrainConfig(resolution=32, max_iter=130, reinit_every=20, descent=descent)
    model, trace = fit(data, cfg, measure)
    again, again_trace = train(densities_for(data, cfg), cfg, measure)
    assert model.u.values.tobytes() == again.u.values.tobytes()
    assert trace.to_csv() == again_trace.to_csv()
    assert model.config == again.config
    assert model.densities_hash == again.densities_hash


def test_fit_rejects_densities_at_another_resolution():
    data = gen_db(4, seed=0)
    coarse = densities_for(data, TrainConfig(resolution=32))
    with pytest.raises(ValueError, match=r"resolution 64 .* cells per axis \(32, 32\)"):
        fit(data, TrainConfig(resolution=64, max_iter=5), densities=coarse)


def test_fit_is_deterministic():
    data = gen_toy1d(seed=3).subset(np.arange(0, 51000, 25))
    cfg = TrainConfig(resolution=128, max_iter=30, reinit_every=10)
    m1, t1 = fit(data, cfg)
    m2, t2 = fit(data, cfg)
    assert m1.densities_hash == m2.densities_hash
    assert m1.u.values.tobytes() == m2.u.values.tobytes()
    assert t1.to_csv() == t2.to_csv()


# ---------------------------------------------------------------------------
# predict


def test_predict_signs_and_tie_break():
    model = line_model(tau=3.0)
    labels = predict(model, [[2.5], [3.0], [3.5]])
    # u(2.5) < 0, u(3.0) == 0 resolves positive, u(3.5) > 0
    assert labels.tolist() == [False, True, True]


def test_predict_full_flags_out_of_bounds_points():
    model = line_model()
    result = predict_full(model, [[0.0], [7.5], [-3.0]])
    assert isinstance(result, PredictionResult)
    assert result.clamped.tolist() == [False, True, True]
    # clamped evaluation: u pinned to the nearest edge value
    assert result.values[1] == pytest.approx(3.0)
    assert result.labels.tolist() == [False, True, False]


def test_predict_is_predict_full_labels():
    grid = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=33)
    mesh = grid.mesh()
    model = manual_model(ScalarField(grid, np.hypot(*mesh) - 1.0 + 0.3 * np.sin(2 * mesh[0])))
    # points inside the grid, on its nodes and edges, and outside it
    pts = np.random.default_rng(3).uniform(-3.0, 3.0, size=(2000, 2))
    pts = np.vstack([pts, [[-2.0, 2.0], [2.0, 0.0], [-3.0, 5.0], [0.0, -2.5]]])
    labels = predict(model, pts)
    assert labels.dtype == bool and labels.shape == (len(pts),)
    np.testing.assert_array_equal(labels, predict_full(model, pts).labels)
    for p in ([0.5, 0.25], [2.5, -0.5], (0.0, 1.0)):
        np.testing.assert_array_equal(predict(model, p), predict_full(model, p).labels)
        assert predict(model, p).shape == (1,)


def test_predictions_depend_only_on_sign():
    grid = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=65)
    mesh = grid.mesh()
    u = ScalarField(grid, np.hypot(*mesh) - 1.0 + 0.3 * np.sin(2 * mesh[0]))
    model = manual_model(u)
    doubled = manual_model(u.with_values(2.0 * u.values))
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(500, 2))
    np.testing.assert_array_equal(predict(model, pts), predict(doubled, pts))
    # the rebuilt distance field keeps every node's sign, hence every
    # node-coordinate prediction
    rebuilt = manual_model(reinitialize(u))
    axes = grid.axes()
    nodes = np.stack(
        [axes[0][rng.integers(0, 65, 400)], axes[1][rng.integers(0, 65, 400)]],
        axis=1,
    )
    np.testing.assert_array_equal(predict(model, nodes), predict(rebuilt, nodes))


# ---------------------------------------------------------------------------
# frontier


def test_frontier_1d_single_threshold():
    assert frontier(line_model(tau=3.0)) == [3.0]
    off_node = frontier(line_model(tau=3.0001))
    assert len(off_node) == 1
    assert off_node[0] == pytest.approx(3.0001, abs=1e-12)


def test_frontier_1d_alternation():
    grid = GridSpec(bounds=((-2.0, 6.0),), resolution=1024)
    x = grid.axes()[0]
    model = manual_model(ScalarField(grid, np.sin(1.5 * (x - 0.25))))
    taus = frontier(model)
    assert len(taus) >= 3
    probes = (
        [grid.mins[0]]
        + [0.5 * (a + b) for a, b in zip(taus, taus[1:])]
        + [grid.maxs[0]]
    )
    labels = predict(model, np.array(probes)[:, None])
    assert all(labels[i] != labels[i + 1] for i in range(len(labels) - 1))


def test_frontier_1d_zero_node_counts_as_positive():
    """Thresholds lie where predict changes class, with u = 0 positive."""
    grid = GridSpec(bounds=((0.0, 4.0),), resolution=4)
    for values, expected in [
        ((-1.0, 1.0, 0.0, 1.0, 1.0), [0.5]),
        ((1.0, -1.0, 0.0, -1.0, -1.0), [0.5, 2.0]),  # one threshold at the zero node
    ]:
        assert frontier(manual_model(ScalarField(grid, np.array(values)))) == expected


def test_frontier_1d_matches_per_edge_reference():
    grid = GridSpec(bounds=((-1.0, 2.0),), resolution=40)
    x = grid.axes()[0]
    rng = np.random.default_rng(6)
    for trial in range(20):
        # integers put exact zeros on nodes and equal values on edges
        v = rng.integers(-2, 3, size=grid.shape).astype(float)
        if trial % 2:
            v = v * rng.uniform(0.1, 1.0, size=grid.shape)
        expected = sorted({
            float(x[i] + v[i] / (v[i] - v[i + 1]) * (x[i + 1] - x[i]))
            for i in range(len(v) - 1) if (v[i] >= 0) != (v[i + 1] >= 0)
        })
        assert frontier(manual_model(ScalarField(grid, v))) == expected


def test_frontier_2d_circle():
    grid = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=129)
    mesh = grid.mesh()
    model = manual_model(ScalarField(grid, 1.0 - np.hypot(*mesh)))
    lines = frontier(model)
    assert len(lines) == 1
    ring = lines[0]
    assert np.array_equal(ring[0], ring[-1])  # closed loop
    radii = np.hypot(ring[:, 0], ring[:, 1])
    cell = max(grid.spacing)
    assert np.all(np.abs(radii - 1.0) <= cell)
    # vertex count on the order of the circumference over the cell size
    assert len(ring) > 2 * np.pi / cell / 2


def test_frontier_2d_open_curve_spans_domain():
    grid = GridSpec(bounds=((-1.0, 1.0), (-1.0, 1.0)), resolution=64)
    mesh = grid.mesh()
    model = manual_model(ScalarField(grid, mesh[0] - 0.2 * np.sin(mesh[1])))
    lines = frontier(model)
    assert len(lines) == 1
    ys = lines[0][:, 1]
    assert ys.min() == pytest.approx(-1.0) and ys.max() == pytest.approx(1.0)


def test_frontier_3d_edge_midpoints():
    grid = GridSpec(bounds=((-1.0, 1.0),) * 3, resolution=17)
    mesh = grid.mesh()
    model = manual_model(ScalarField(grid, 0.8 - np.sqrt(sum(m * m for m in mesh))))
    pts = frontier(model)
    assert pts.shape[1] == 3
    r = np.sqrt((pts**2).sum(axis=1))
    cell = max(grid.spacing)
    assert np.all(np.abs(r - 0.8) <= cell)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_frontier_and_reinitialize_beyond_the_float_maximum_apart(dim):
    """Neighbours at +-1e308 differ by more than the float maximum; the
    boundary between them still lies half way, at x0 = 1.5."""
    grid = GridSpec(bounds=((0.0, 4.0),) * dim, resolution=4)
    x0 = grid.mesh()[0]
    model = manual_model(ScalarField(grid, np.where(x0 < 1.5, 1e308, -1e308)))
    fr = frontier(model)
    if dim == 1:
        assert fr == [1.5]
    elif dim == 2:
        assert len(fr) == 1 and (fr[0][:, 0] == 1.5).all()
    else:
        assert (fr[:, 0] == 1.5).all()
    np.testing.assert_allclose(reinitialize(model.u).values, 1.5 - x0, rtol=0, atol=1e-12)


def test_marching_squares_saddle_beyond_the_float_maximum():
    """The corner sum of this saddle overflows; its sign is still positive,
    so the two positive corners are cut off separately, as at small scale."""
    grid = GridSpec(bounds=((0.0, 1.0), (0.0, 1.0)), resolution=1)
    corners = np.array([[1.0, -0.1], [-0.1, 1.0]])
    small = _marching_squares(ScalarField(grid, corners))
    large = _marching_squares(ScalarField(grid, 1e308 * corners))
    assert len(small) == len(large) == 2
    for a, b in zip(small, large):
        np.testing.assert_allclose(a, b, rtol=1e-15)


def test_frontier_degenerate_model_errors():
    grid = GridSpec(bounds=((-2.0, 6.0),), resolution=64)
    model = manual_model(
        ScalarField(grid, -np.ones(grid.shape)), degenerate=True
    )
    with pytest.raises(DegenerateModelError):
        frontier(model)
    # predict still answers (everything negative)
    assert not predict(model, [[0.0]])[0]


def test_frontier_csv_blocks():
    text = frontier_csv(line_model(tau=3.0))
    assert text == "3.0\n"
    grid = GridSpec(bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=33)
    mesh = grid.mesh()
    model = manual_model(ScalarField(grid, 1.0 - np.hypot(*mesh)))
    text = frontier_csv(model)
    assert "\n\n" not in text.strip()  # a single circle: one block
    first = text.splitlines()[0].split(",")
    assert len(first) == 2
    float(first[0]), float(first[1])  # parseable coordinates


def _reference_edge_zero(p, q, a, b):
    den = a - b
    t = 0.5 if den == 0.0 else a / den
    return (float(p[0] + t * (q[0] - p[0])), float(p[1] + t * (q[1] - p[1])))


_REFERENCE_CASES = {
    1: [(0, 3)], 2: [(0, 1)], 3: [(1, 3)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(2, 3)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(0, 3)],
}


def reference_segments(u):
    """Marching squares one cell at a time, cells in row-major order."""
    x, y = u.grid.axes()
    v = u.values
    segments = []
    for i in range(v.shape[0] - 1):
        for j in range(v.shape[1] - 1):
            corners = [
                ((x[i], y[j]), v[i, j]),
                ((x[i + 1], y[j]), v[i + 1, j]),
                ((x[i + 1], y[j + 1]), v[i + 1, j + 1]),
                ((x[i], y[j + 1]), v[i, j + 1]),
            ]
            case = sum(1 << c for c, (_, val) in enumerate(corners) if val >= 0)
            if case in (0, 15):
                continue
            ends = [(0, 1), (1, 2), (3, 2), (0, 3)]
            edges = {
                e: _reference_edge_zero(corners[p][0], corners[q][0], corners[p][1], corners[q][1])
                for e, (p, q) in enumerate(ends)
            }
            if case in (5, 10):
                center_pos = sum(val for _, val in corners) >= 0
                pairs = [(0, 1), (2, 3)] if (case == 5) == center_pos else [(0, 3), (1, 2)]
            else:
                pairs = _REFERENCE_CASES[case]
            segments.extend((edges[a], edges[b]) for a, b in pairs)
    return segments


def test_marching_squares_matches_per_cell_reference():
    rng = np.random.default_rng(5)
    grid = GridSpec(bounds=((-1.0, 2.0), (-0.5, 0.5)), resolution=(17, 12))
    saddles = 0
    for trial in range(20):
        # integers put exact zeros on nodes and equal values on edges
        vals = rng.integers(-2, 3, size=grid.shape).astype(float)
        if trial % 2:
            vals = vals * rng.uniform(0.1, 1.0, size=grid.shape)
        u = ScalarField(grid, vals)
        pos = vals >= 0
        saddles += int((
            (pos[:-1, :-1] == pos[1:, 1:]) & (pos[1:, :-1] == pos[:-1, 1:])
            & (pos[:-1, :-1] != pos[1:, :-1])
        ).sum())
        expected = _stitch(reference_segments(u))
        got = _marching_squares(u)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
    assert saddles > 100
    assert (vals == 0).any()


def reference_stitch(segments):
    """Chains joined through a dict keyed by end-point tuples: open chains
    first, from their end points in sorted order, then loops."""
    by_point = {}
    for idx, (p, q) in enumerate(segments):
        by_point.setdefault(p, []).append(idx)
        by_point.setdefault(q, []).append(idx)
    used = [False] * len(segments)

    def walk(start_idx, start_point):
        used[start_idx] = True
        p, q = segments[start_idx]
        chain = [start_point, q if p == start_point else p]
        while True:
            candidates = [k for k in by_point.get(chain[-1], []) if not used[k]]
            if not candidates:
                return chain
            k = candidates[0]
            used[k] = True
            p, q = segments[k]
            chain.append(q if p == chain[-1] else p)

    polylines = []
    for point in sorted(by_point):
        if len(by_point[point]) == 1 and not used[by_point[point][0]]:
            polylines.append(walk(by_point[point][0], point))
    for idx in range(len(segments)):
        if not used[idx]:
            polylines.append(walk(idx, segments[idx][0]))
    return [np.array(chain) for chain in polylines]


def test_stitch_matches_the_point_dict_reference():
    rng = np.random.default_rng(8)
    grid = GridSpec(bounds=((-1.0, 2.0), (-0.5, 0.5)), resolution=(17, 12))
    fields = [rng.integers(-2, 3, size=grid.shape).astype(float) for _ in range(10)]
    ring = GridSpec(bounds=((-4.0, 4.0),) * 2, resolution=64)
    fields.append(rng.integers(-1, 2, size=grid.shape) * rng.uniform(0.1, 1.0, size=grid.shape))
    for vals, g in [(v, grid) for v in fields] + [(None, ring)]:
        u = init_shape(g) if vals is None else ScalarField(g, vals)
        segments = reference_segments(u)
        got, expected = _stitch(segments), reference_stitch(segments)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
    assert _stitch([]) == reference_stitch([]) == []


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(toy_fit, tmp_path):
    _, (model, _) = toy_fit
    path = tmp_path / "model.ofc"
    save(model, path)
    back = load(path)
    assert back.kind == model.kind
    assert back.beta == model.beta
    assert back.k == model.k
    assert back.degenerate == model.degenerate
    assert back.densities_hash == model.densities_hash
    assert back.config == model.config
    assert back.grid == model.grid
    assert back.u.values.tobytes() == model.u.values.tobytes()
    rng = np.random.default_rng(11)
    pts = rng.uniform(-4.0, 8.0, size=(1000, 1))
    np.testing.assert_array_equal(predict(model, pts), predict(back, pts))


def test_save_load_preserves_init_shapes(tmp_path):
    grid = GridSpec(bounds=((-2.0, 6.0),), resolution=64)
    u = ScalarField(grid, grid.axes()[0] - 3.0)
    shapes = [
        None,
        Sphere(center=(1.0,), radius=0.5),
        Box(lo=(0.5,), hi=(4.5,)),
        SphereLattice(),
        SphereLattice(period=(2.0,), radius=0.4, offset=(0.1,)),
    ]
    for n, shape in enumerate(shapes):
        model = manual_model(u, config=TrainConfig(init=shape))
        path = tmp_path / f"m{n}.ofc"
        save(model, path)
        assert load(path).config.init == shape


def test_save_load_save_is_byte_stable(tmp_path):
    data = gen_toy1d(seed=1).subset(np.arange(0, 51000, 100))
    cfg = TrainConfig(beta=2, lam=0, tol=1, resolution=16, max_iter=np.int64(5))
    model, _ = fit(data, cfg)
    first, second = tmp_path / "first.ofc", tmp_path / "second.ofc"
    save(model, first)
    save(load(first), second)
    assert second.read_bytes() == first.read_bytes()
    assert "\nbeta=2.0\n" in first.read_text()
    assert "\nconfig.beta=2.0\n" in first.read_text()


# Version-1 model files, each from a 20-iteration fit at resolution 16 on
# every 100th point of gen_toy1d(seed=1), written before the model writer,
# reader and trace header shared one text form of TrainConfig.
GOLDEN = Path(__file__).resolve().parent / "data"
_LAM, _EPS = 0.028161997991661122, 0.7960181874884362
GOLDEN_V1 = {
    "default": ("f_measure", TrainConfig(
        dt=1.0231411477022, lam=_LAM, eps_h=_EPS, reinit_every=5, max_iter=20,
        resolution=16)),
    "sphere": ("f_measure", TrainConfig(
        beta=2.0, dt=0.39784097682226927, lam=_LAM, eps_h=_EPS, max_iter=20,
        resolution=16, init=Sphere(center=(1.2896599559483888,), radius=1.768929305529858),
        seed=4, descent="G")),
    "box": ("f_measure", TrainConfig(
        dt=0.001, lam=0.0, eps_h=_EPS, tol=1e-4, max_iter=20, resolution=16,
        init=Box(lo=(-2.2481986551113273,), hi=(1.2896599559483888,)))),
    "lattice": ("f_measure", TrainConfig(
        beta=0.5, dt=1.0317708320581054, lam=_LAM, eps_h=0.75, max_iter=20, resolution=16,
        init=SphereLattice(period=(1.768929305529858,), radius=0.5, offset=(0.125,)))),
    "accuracy": ("accuracy", TrainConfig(
        dt=0.0035257068060467337, lam=_LAM, eps_h=_EPS, max_iter=20, resolution=16)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_V1))
def test_golden_v1_model_loads_and_resaves_byte_identically(tmp_path, name):
    path = GOLDEN / f"v1_{name}.ofc"
    model = load(path)
    kind, config = GOLDEN_V1[name]
    assert model.kind == kind and (model.k is None) == (kind == "accuracy")
    assert model.config == config
    assert model.beta == config.beta
    save(model, tmp_path / "again.ofc")
    assert (tmp_path / "again.ofc").read_bytes() == path.read_bytes()


def test_load_rejects_truncated_file(toy_fit, tmp_path):
    _, (model, _) = toy_fit
    path = tmp_path / "model.ofc"
    save(model, path)
    text = path.read_text()
    for cut in (len(text) // 2, 40):
        clipped = tmp_path / f"clipped{cut}.ofc"
        clipped.write_text(text[:cut])
        with pytest.raises(ModelFormatError):
            load(clipped)


@pytest.mark.parametrize("old, new, message", [
    ("\nkind=f_measure\n", "\nkind=f_measure\nkind=f_measure\n", "repeats 'kind'"),
    ("\nbeta=1.0\n", "\nbeta=3.0\n", "config.beta=1.0"),
    ("\ndegenerate=0\n", "\ndegenerate=1\n", "degenerate=1 disagrees"),
])
def test_load_rejects_facts_that_disagree(tmp_path, old, new, message):
    text = (GOLDEN / "v1_default.ofc").read_text()
    assert text.count(old) == 1
    path = tmp_path / "edited.ofc"
    path.write_text(text.replace(old, new))
    with pytest.raises(ModelFormatError, match=message):
        load(path)


@pytest.mark.parametrize("name, old, new, message", [
    ("default", "\nkind=f_measure\n", "\nkind=gini\n", "unknown energy kind 'gini'"),
    ("default", "\ndegenerate=0\n", "\ndegenerate=2\n", "degenerate=2 is neither 0 nor 1"),
    ("accuracy", "\nk=none\n", "\nk=0.5\n", "k=0.5 does not fit kind=accuracy"),
    ("default", "\nk=0.028225806451612902\n", "\nk=none\n", "k=none does not fit"),
    ("default", "\nk=0.028225806451612902\n", "\nk=-0.5\n", "k must be positive"),
    ("default", "\nk=0.028225806451612902\n", "\nk=inf\n", "k must be positive"),
    ("default", "\nk=0.028225806451612902\n", "\nk=nan\n", "k must be positive"),
])
def test_load_rejects_facts_it_cannot_use(tmp_path, name, old, new, message):
    from ofc.cli import main

    text = (GOLDEN / f"v1_{name}.ofc").read_text()
    assert text.count(old) == 1
    path = tmp_path / "edited.ofc"
    path.write_text(text.replace(old, new))
    with pytest.raises(ModelFormatError, match=message):
        load(path)
    assert main(["frontier", "--model", str(path), "--out", str(tmp_path / "f.csv")]) == 2


def test_load_rejects_a_one_sign_field_not_marked_degenerate(tmp_path):
    from ofc.cli import main

    grid = GridSpec(((0.0, 1.0),), 4)
    path = tmp_path / "one_sign.ofc"
    save(manual_model(ScalarField(grid, -np.ones(5))), path)
    with pytest.raises(ModelFormatError, match="degenerate=0 disagrees"):
        load(path)
    assert main(["frontier", "--model", str(path), "--out", str(tmp_path / "f.csv")]) == 2


def test_load_rejects_newer_version(tmp_path):
    path = tmp_path / "future.ofc"
    path.write_text("ofc-model 2\nkind=f_measure\n")
    with pytest.raises(VersionMismatchError):
        load(path)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello,world\n1,2\n")
    with pytest.raises(ModelFormatError):
        load(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ModelFormatError):
        load(empty)


def test_density_fingerprint_sensitivity():
    grid = GridSpec(bounds=((0.0, 1.0),), resolution=8)
    ones = ScalarField(grid, np.ones(grid.shape))
    base = DensityPair(f_pos=ones, f_neg=ones, p_count=5, n_count=9)
    same = DensityPair(f_pos=ones, f_neg=ones, p_count=5, n_count=9)
    other_count = DensityPair(f_pos=ones, f_neg=ones, p_count=6, n_count=9)
    bumped = DensityPair(
        f_pos=ones.with_values(ones.values + 1e-12), f_neg=ones, p_count=5, n_count=9
    )
    assert density_fingerprint(base) == density_fingerprint(same)
    assert density_fingerprint(base) != density_fingerprint(other_count)
    assert density_fingerprint(base) != density_fingerprint(bumped)
