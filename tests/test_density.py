import numpy as np
import pytest
from scipy.special import ndtr

from ofc.data import LabeledDataset
from ofc.density import (
    DensityPair,
    KdeModel,
    _axis_lattice,
    density_on_grid,
    estimate_pair,
    fit_kde,
)
from ofc.errors import DegenerateDataError, EmptyMassError, GridMismatchError
from ofc.field import GridSpec, ScalarField, integrate


def naive_density(samples, bandwidth, grid):
    """Direct per-sample reference evaluation."""
    mesh = grid.mesh()
    out = np.zeros(grid.shape)
    for x in samples:
        k = np.ones(grid.shape)
        for i, m in enumerate(mesh):
            z = (m - x[i]) / bandwidth[i]
            k *= np.exp(-0.5 * z**2) / (bandwidth[i] * np.sqrt(2 * np.pi))
        out += k
    out /= len(samples)
    f = ScalarField(grid, out)
    return ScalarField(grid, out / integrate(f))


def reference_density(model, grid):
    """density_on_grid with the binning done one corner at a time, through
    per-axis left-bin and fraction lists and np.ravel_multi_index."""
    inside = np.ones(len(model.samples), dtype=bool)
    lefts, fracs, lattice_shape, smoothers = [], [], [], []
    for i, ax in enumerate(grid.axes()):
        bins, g, std = _axis_lattice(*grid.bounds[i], grid.spacing[i], model.bandwidth[i])
        t = (model.samples[:, i] - bins[0]) / g
        inside &= (t >= 0) & (t <= len(bins) - 1)
        left = np.clip(np.floor(t), 0, len(bins) - 2)
        lefts.append(left.astype(np.intp))
        fracs.append(t - left)
        lattice_shape.append(len(bins))
        z = (ax[:, None] - bins[None, :]) / std
        smoothers.append(np.exp(-0.5 * z**2) / (std * np.sqrt(2 * np.pi)))
    lefts = [a[inside] for a in lefts]
    fracs = [a[inside] for a in fracs]
    counts = np.zeros(lattice_shape)
    flat = counts.reshape(-1)
    for corner in np.ndindex(*(2,) * grid.dim):
        index = np.ravel_multi_index([a + c for a, c in zip(lefts, corner)], lattice_shape)
        weight = np.ones(len(index))
        for frac, c in zip(fracs, corner):
            weight *= frac if c else 1 - frac
        flat += np.bincount(index, weight, minlength=flat.size)
    vals = counts
    for k in smoothers:
        vals = np.tensordot(vals, k, axes=([0], [1]))
    vals /= len(model.samples)
    return vals / integrate(ScalarField(grid, vals))


class TestFitKde:
    def test_scott_rule_1d(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(size=(100, 1))
        model = fit_kde(samples)
        sigma = samples.std(axis=0, ddof=1)
        assert model.bandwidth == pytest.approx(sigma * 100 ** (-1.0 / 5.0))
        # 100 ** (-1/5) is about 0.398
        assert model.bandwidth[0] == pytest.approx(0.3981071705534972 * sigma[0])

    def test_scott_rule_uses_dimension(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(size=(500, 2))
        model = fit_kde(samples)
        sigma = samples.std(axis=0, ddof=1)
        assert model.bandwidth == pytest.approx(sigma * 500 ** (-1.0 / 6.0))

    def test_explicit_bandwidth(self):
        samples = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        assert fit_kde(samples, 0.5).bandwidth.tolist() == [0.5, 0.5]
        assert fit_kde(samples, (0.5, 0.25)).bandwidth.tolist() == [0.5, 0.25]
        assert KdeModel(samples, 0.5).bandwidth.tolist() == [0.5, 0.5]

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            fit_kde(np.array([[1.0]]))
        with pytest.raises(DegenerateDataError):
            fit_kde(np.full((10, 1), 2.0))
        # an explicit bandwidth rescues constant data
        model = fit_kde(np.full((10, 1), 2.0), 0.3)
        assert model.bandwidth[0] == 0.3

    def test_bad_bandwidth(self):
        samples = np.linspace(0, 1, 10)[:, None]
        with pytest.raises(DegenerateDataError):
            fit_kde(samples, 0.0)
        with pytest.raises(DegenerateDataError):
            fit_kde(samples, -1.0)
        for bad in (0.0, -1.0, float("nan"), float("inf"), 1e200):
            with pytest.raises(DegenerateDataError):
                KdeModel(samples, bad)


class TestDensityOnGrid:
    def test_unit_mass(self):
        rng = np.random.default_rng(21)
        samples = rng.normal(size=(200, 2))
        grid = GridSpec(((-8.0, 8.0), (-8.0, 8.0)), (64, 64))
        f = density_on_grid(fit_kde(samples), grid)
        assert abs(integrate(f) - 1.0) <= 1e-9

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(22)
        samples = rng.normal(size=(37, 2))
        grid = GridSpec(((-5.0, 5.0), (-4.0, 4.0)), (17, 13))
        model = fit_kde(samples)
        fast = density_on_grid(model, grid)
        ref = naive_density(model.samples, model.bandwidth, grid)
        # binning error; about 0.010 of the peak here
        assert np.abs(fast.values - ref.values).max() <= 0.02 * ref.values.max()

    def test_matches_naive_evaluation_3d(self):
        rng = np.random.default_rng(27)
        samples = rng.normal(size=(60, 3))
        grid = GridSpec(((-4.0, 4.0),) * 3, (12, 12, 12))
        model = fit_kde(samples)
        fast = density_on_grid(model, grid)
        ref = naive_density(model.samples, model.bandwidth, grid)
        assert np.abs(fast.values - ref.values).max() <= 0.02 * ref.values.max()

    def test_samples_beyond_reach_leave_no_mass(self):
        # more than 8 bandwidths outside, on either side and along either axis
        rng = np.random.default_rng(28)
        grid = GridSpec(((0.0, 1.0), (0.0, 2.0)), (16, 16))
        bw = 0.1
        far = 9.5 * bw + rng.uniform(0.0, 2 * bw, size=10)
        inner = rng.uniform(0.0, 1.0, size=10)
        for pts in (
            np.column_stack([1.0 + far, inner]),
            np.column_stack([0.0 - far, inner]),
            np.column_stack([inner, 2.0 + far]),
        ):
            with pytest.raises(EmptyMassError, match="samples fall outside the bounds"):
                density_on_grid(KdeModel(pts, bw), grid)

    def test_bandwidth_far_wider_than_the_grid_is_named(self):
        # every sample lies inside; the kernel spreads its mass far past the grid
        rng = np.random.default_rng(30)
        grid = GridSpec(((0.0, 1.0), (0.0, 2.0)), (16, 16))
        pts = rng.uniform(0.0, 1.0, size=(10, 2))
        with pytest.raises(EmptyMassError, match=r"the bandwidth \[1\.e\+150 1\.e\+150\] is far wider"):
            density_on_grid(KdeModel(pts, 1e150), grid)

    def test_samples_a_few_bandwidths_outside_still_count(self):
        rng = np.random.default_rng(29)
        grid = GridSpec(((0.0, 1.0), (0.0, 1.0)), (16, 16))
        bw = 0.1
        pts = np.column_stack([1.0 + 3 * bw + rng.uniform(0.0, 0.05, 20), rng.uniform(0, 1, 20)])
        f = density_on_grid(KdeModel(pts, bw), grid)
        assert abs(integrate(f) - 1.0) <= 1e-9
        assert (f.values > 0).all()
        # the tail rises towards the samples along every row
        assert (np.diff(f.values, axis=0) > 0).all()

    def test_unit_equivariance(self):
        # c * X on the c-scaled grid is the same density in units of c
        rng = np.random.default_rng(30)
        samples = rng.normal(size=(200, 2))
        grid = GridSpec(((-4.0, 4.0), (-3.0, 5.0)), (32, 32))
        base = density_on_grid(fit_kde(samples), grid).values
        for c in (1e-2, 3.7, 255.0):
            scaled_grid = GridSpec(tuple((c * lo, c * hi) for lo, hi in grid.bounds), (32, 32))
            scaled = density_on_grid(fit_kde(c * samples), scaled_grid).values
            assert np.abs(scaled * c**2 - base).max() <= 1e-12 * base.max()

    def test_bandwidth_far_below_a_cell_is_a_quarter_cell(self):
        rng = np.random.default_rng(31)
        samples = rng.uniform(0.0, 1.0, size=(50, 2))
        grid = GridSpec(((0.0, 1.0), (0.0, 1.0)), (20, 20))
        quarter = density_on_grid(KdeModel(samples, 0.25 / 20), grid)
        tiny = density_on_grid(KdeModel(samples, 1e-9), grid)
        assert np.array_equal(tiny.values, quarter.values)
        assert abs(integrate(tiny) - 1.0) <= 1e-9

    def test_bandwidth_far_above_the_grid_is_nearly_flat(self):
        # the lattice stays small however wide the kernel is
        rng = np.random.default_rng(32)
        samples = rng.normal(size=(50, 2))
        grid = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (16, 16))
        model = KdeModel(samples, 1e4)
        f = density_on_grid(model, grid)
        ref = naive_density(model.samples, model.bandwidth, grid)
        assert np.abs(f.values - ref.values).max() <= 1e-6 * ref.values.max()

    def test_separated_clusters_split_mass(self):
        rng = np.random.default_rng(24)
        left = rng.normal(-5.0, 0.5, size=500)
        right = rng.normal(5.0, 0.5, size=500)
        samples = np.concatenate([left, right])[:, None]
        grid = GridSpec(((-8.0, 8.0),), (1600,))
        model = fit_kde(samples)
        f = density_on_grid(model, grid)
        x = grid.axes()[0]
        k = int(np.flatnonzero(x == 0.0)[0])
        left_mass = np.trapezoid(f.values[: k + 1], dx=grid.spacing[0])
        # per-sample kernel tail mass left of zero
        oracle = ndtr((0.0 - model.samples[:, 0]) / model.bandwidth[0]).mean()
        assert left_mass == pytest.approx(oracle, abs=0.01)
        assert left_mass == pytest.approx(0.5, abs=0.01)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(25)
        pos = rng.normal(2.0, 0.7, size=(300, 1))
        grid = GridSpec(((-7.0, 7.0),), (700,))
        f_pos = density_on_grid(fit_kde(pos), grid)
        f_neg = density_on_grid(fit_kde(-pos), grid)
        assert np.allclose(f_pos.values, f_neg.values[::-1], atol=1e-9)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(26)
        samples = rng.normal(size=(150, 2))
        shift = np.array([3.25, -1.5])
        g0 = GridSpec(((-5.0, 5.0), (-5.0, 5.0)), (40, 40))
        g1 = GridSpec(tuple((lo + s, hi + s) for (lo, hi), s in zip(g0.bounds, shift)), (40, 40))
        model = fit_kde(samples)
        f0 = density_on_grid(model, g0)
        f1 = density_on_grid(KdeModel(samples + shift, model.bandwidth), g1)
        assert np.allclose(f0.values, f1.values, atol=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bytes_match_the_per_corner_binning_reference(self, dim):
        rng = np.random.default_rng(50 + dim)
        grid = GridSpec(tuple((-2.0 - i, 1.5 + 0.5 * i) for i in range(dim)),
                        tuple(rng.integers(4, 12, dim)))
        model = KdeModel(rng.normal(size=(300, dim)), rng.uniform(0.2, 0.8, dim))
        lattices = [_axis_lattice(*grid.bounds[i], grid.spacing[i], model.bandwidth[i])[0]
                    for i in range(dim)]
        first = np.array([b[0] for b in lattices])
        last = np.array([b[-1] for b in lattices])
        # samples on the lattice's ends, on the grid's upper bounds, and just
        # past the lattice (dropped)
        edges = np.vstack([first, last, np.where(np.eye(dim, dtype=bool), last, 0.0),
                           np.where(np.eye(dim, dtype=bool), first, 0.0),
                           grid.maxs, last + 1e-9, first - 1e-9])
        for samples in (model.samples, np.vstack([model.samples, edges])):
            m = KdeModel(samples, model.bandwidth)
            got = density_on_grid(m, grid).values
            assert got.tobytes() == reference_density(m, grid).tobytes()

    def test_dimension_mismatch(self):
        samples = np.zeros((10, 2))
        samples[:, 0] = np.arange(10)
        samples[:, 1] = np.arange(10) * 0.5
        grid = GridSpec(((0.0, 1.0),), (8,))
        with pytest.raises(GridMismatchError):
            density_on_grid(fit_kde(samples), grid)

    def test_empty_mass(self):
        samples = np.full((10, 1), 1000.0) + np.arange(10)[:, None]
        grid = GridSpec(((0.0, 1.0),), (16,))
        with pytest.raises(EmptyMassError):
            density_on_grid(fit_kde(samples, 0.01), grid)


class TestEstimatePair:
    def test_pair_fields_and_counts(self):
        rng = np.random.default_rng(31)
        pos = rng.normal(2.0, 1.0, size=(80, 1))
        neg = rng.normal(-2.0, 1.0, size=(160, 1))
        data = LabeledDataset(
            np.vstack([pos, neg]), np.arange(240) < 80
        )
        grid = GridSpec(((-8.0, 8.0),), (200,))
        pair = estimate_pair(data, grid)
        assert (pair.p_count, pair.n_count) == (80, 160)
        assert abs(integrate(pair.f_pos) - 1.0) <= 1e-9
        assert abs(integrate(pair.f_neg) - 1.0) <= 1e-9

    def test_error_names_class(self):
        pts = np.vstack([np.full((5, 1), 1.0), np.linspace(-1, 0, 5)[:, None]])
        data = LabeledDataset(pts, np.arange(10) < 5)
        grid = GridSpec(((-2.0, 2.0),), (16,))
        with pytest.raises(DegenerateDataError, match="positive class"):
            estimate_pair(data, grid)

    def test_grid_mismatch_in_pair(self):
        g1 = GridSpec(((0.0, 1.0),), (8,))
        g2 = GridSpec(((0.0, 2.0),), (8,))
        f1 = ScalarField(g1, np.ones(9))
        f2 = ScalarField(g2, np.ones(9))
        with pytest.raises(GridMismatchError):
            DensityPair(f1, f2, 1, 1)
