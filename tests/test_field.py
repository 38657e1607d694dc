import numpy as np
import pytest
from scipy.special import ndtr

from ofc.errors import (
    GridMismatchError,
    InvalidShapeError,
    OutOfDomainError,
    ParseError,
)
from ofc.field import (
    Box,
    GridSpec,
    ScalarField,
    Sphere,
    SphereLattice,
    field_from_text,
    field_to_text,
    gradient_magnitude,
    init_shape,
    integrate,
    interpolate,
    laplacian,
    read_field,
    write_field,
    write_pgm,
)


def grid_1d(lo=-6.0, hi=6.0, res=1200):
    return GridSpec(((lo, hi),), (res,))


class TestGridSpec:
    def test_nodes_and_spacing(self):
        g = GridSpec(((0.0, 1.0), (0.0, 2.0)), (32, 64))
        assert g.shape == (33, 65)
        assert g.spacing == (1.0 / 32, 2.0 / 64)
        assert g.dim == 2

    def test_scalar_resolution_broadcasts(self):
        g = GridSpec(((0.0, 1.0), (0.0, 1.0)), 16)
        assert g.resolution == (16, 16)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(((1.0, 1.0),), (8,))
        with pytest.raises(ValueError):
            GridSpec(((2.0, 1.0),), (8,))

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(((0.0, 1.0),), (0,))
        with pytest.raises(ValueError):
            GridSpec(((0.0, 1.0),), (8, 8))

    def test_from_points_margin(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        g = GridSpec.from_points(pts, 8, margin=0.1)
        assert g.bounds[0] == pytest.approx((-0.1, 1.1))
        assert g.bounds[1] == pytest.approx((-0.2, 2.2))

    def test_field_shape_checked(self):
        g = GridSpec(((0.0, 1.0),), (4,))
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros(4))
        with pytest.raises(ValueError):
            ScalarField(g, np.full(5, np.nan))


class TestIntegrate:
    def test_constant_is_exact(self):
        g = GridSpec(((0.0, 1.0), (0.0, 1.0)), (32, 32))
        f = ScalarField(g, np.ones(g.shape))
        assert integrate(f) == 1.0

    def test_standard_normal_mass(self):
        g = grid_1d()
        x = g.axes()[0]
        f = ScalarField(g, np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi))
        val = integrate(f)
        assert abs(val - 1.0) <= 1e-6
        # trapezoid should sit on top of the true truncated mass
        exact = ndtr(6.0) - ndtr(-6.0)
        assert abs(val - exact) <= 1e-7

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = GridSpec(((-1.0, 2.0), (0.0, 1.0)), (12, 9))
        f = ScalarField(g, rng.normal(size=g.shape))
        h = ScalarField(g, rng.normal(size=g.shape))
        a, b = 2.5, -1.25
        combined = ScalarField(g, a * f.values + b * h.values)
        assert integrate(combined) == pytest.approx(
            a * integrate(f) + b * integrate(h), rel=1e-12, abs=1e-12
        )

    def test_affine_integrand_is_exact(self):
        # the trapezoidal rule integrates affine functions without error
        g = GridSpec(((0.0, 2.0),), (5,))
        x = g.axes()[0]
        f = ScalarField(g, 3.0 * x + 1.0)
        assert integrate(f) == pytest.approx(3.0 * 2.0 + 2.0, rel=1e-14)


class TestInterpolate:
    def test_bilinear_unit_cell(self):
        g = GridSpec(((0.0, 1.0), (0.0, 1.0)), (1, 1))
        f = ScalarField(g, np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert interpolate(f, (0.5, 0.5)) == pytest.approx(0.25)

    def test_exact_at_nodes(self):
        rng = np.random.default_rng(0)
        g = GridSpec(((-1.0, 1.0), (0.0, 3.0)), (7, 5))
        f = ScalarField(g, rng.normal(size=g.shape))
        ax0, ax1 = g.axes()
        for i in (0, 3, 7):
            for j in (0, 2, 5):
                assert interpolate(f, (ax0[i], ax1[j])) == pytest.approx(
                    f.values[i, j], rel=1e-13, abs=1e-13
                )

    def test_clamped_outside(self):
        g = GridSpec(((0.0, 1.0),), (4,))
        f = ScalarField(g, g.axes()[0] ** 2)
        assert interpolate(f, (2.0,)) == pytest.approx(1.0)
        assert interpolate(f, (-3.0,)) == pytest.approx(0.0)

    def test_out_of_domain_raises(self):
        g = GridSpec(((0.0, 1.0),), (4,))
        f = ScalarField(g, np.zeros(5))
        with pytest.raises(OutOfDomainError):
            interpolate(f, (1.5,), clamp=False)

    def test_batch_shape(self):
        g = GridSpec(((0.0, 1.0),), (4,))
        f = ScalarField(g, g.axes()[0])
        out = interpolate(f, np.array([[0.1], [0.9]]))
        assert out.shape == (2,)
        assert out == pytest.approx([0.1, 0.9])

    def test_bounded_by_cell_corners(self):
        rng = np.random.default_rng(42)
        g = GridSpec(((-2.0, 2.0), (1.0, 4.0)), (9, 11))
        f = ScalarField(g, rng.normal(size=g.shape))
        pts = np.column_stack(
            [rng.uniform(-2, 2, size=200), rng.uniform(1, 4, size=200)]
        )
        vals = interpolate(f, pts)
        h = np.asarray(g.spacing)
        base = np.minimum(
            np.floor((pts - g.mins) / h).astype(int), np.array(g.resolution) - 1
        )
        for p, v, (i, j) in zip(pts, vals, base):
            corners = f.values[i : i + 2, j : j + 2]
            assert corners.min() - 1e-12 <= v <= corners.max() + 1e-12


class TestStencils:
    def test_laplacian_kills_affine_interior(self):
        g = GridSpec(((0.0, 1.0), (0.0, 2.0)), (10, 14))
        xx, yy = g.mesh()
        f = ScalarField(g, 2.0 + 3.0 * xx - 1.5 * yy)
        lap = laplacian(f).values
        assert np.allclose(lap[1:-1, 1:-1], 0.0, atol=1e-10)

    def test_laplacian_quadratic(self):
        g = GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (16, 16))
        xx, yy = g.mesh()
        f = ScalarField(g, xx**2 + yy**2)
        lap = laplacian(f).values
        assert np.allclose(lap[1:-1, 1:-1], 4.0, atol=1e-9)

    def test_laplacian_neumann_mirror(self):
        # constant fields are annihilated everywhere, boundary included
        g = GridSpec(((0.0, 1.0),), (8,))
        f = ScalarField(g, np.full(9, 3.0))
        assert np.allclose(laplacian(f).values, 0.0)

    @pytest.mark.parametrize(
        "bounds, res",
        [
            (((0.0, 1.0),), (9,)),
            (((0.0, 1.0), (-2.0, 3.0)), (7, 12)),
            (((0.0, 0.5), (-1.0, 2.0), (0.0, 7.0)), (5, 6, 9)),
            (((0.0, 1.0), (-2.0, 3.0)), (2, 3)),
            (((0.0, 0.5), (-1.0, 2.0), (0.0, 7.0)), (3, 2, 4)),
        ],
    )
    def test_laplacian_matches_reflect_padded_stencil(self, bounds, res):
        g = GridSpec(bounds, res)
        v = np.random.default_rng(len(res)).normal(size=g.shape)
        ref = np.zeros(g.shape)
        for ax, h in enumerate(g.spacing):
            pad = [(1, 1) if i == ax else (0, 0) for i in range(g.dim)]
            p = np.pad(v, pad, mode="reflect")
            lo = np.take(p, np.arange(0, g.shape[ax]), axis=ax)
            hi = np.take(p, np.arange(2, g.shape[ax] + 2), axis=ax)
            ref += (lo - 2.0 * v + hi) / h**2
        lap = laplacian(ScalarField(g, v)).values
        np.testing.assert_allclose(lap, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_gradient_magnitude_affine(self):
        g = GridSpec(((0.0, 1.0), (0.0, 1.0)), (8, 8))
        xx, yy = g.mesh()
        f = ScalarField(g, 3.0 * xx + 4.0 * yy)
        gm = gradient_magnitude(f).values
        assert np.allclose(gm, 5.0, atol=1e-10)

    def test_gradient_magnitude_distance(self):
        g = GridSpec(((-2.0, 2.0), (-2.0, 2.0)), (64, 64))
        xx, yy = g.mesh()
        r = np.sqrt(xx**2 + yy**2)
        gm = gradient_magnitude(ScalarField(g, r)).values
        away = r > 8 * max(g.spacing)
        assert np.abs(gm[away] - 1.0).max() <= 0.05


class TestInitShape:
    def test_circle_values(self):
        g = GridSpec(((-2.0, 2.0), (-2.0, 2.0)), (16, 16))
        u = init_shape(g, Sphere((0.0, 0.0), 1.0))
        assert interpolate(u, (0.0, 0.0)) == pytest.approx(1.0)
        assert interpolate(u, (2.0, 0.0)) == pytest.approx(-1.0)

    def test_box_values(self):
        g = GridSpec(((-3.0, 3.0), (-3.0, 3.0)), (24, 24))
        u = init_shape(g, Box((0.0, 0.0), (2.0, 2.0)))
        assert interpolate(u, (1.0, 1.0)) == pytest.approx(1.0)
        assert interpolate(u, (3.0, 1.0)) == pytest.approx(-1.0)
        assert interpolate(u, (3.0, 3.0)) == pytest.approx(-np.sqrt(2.0))

    def test_invalid_shapes(self):
        g = GridSpec(((-1.0, 1.0),), (8,))
        with pytest.raises(InvalidShapeError):
            init_shape(g, Sphere((0.0,), 0.0))
        with pytest.raises(InvalidShapeError):
            init_shape(g, Sphere((5.0,), 1.0))
        with pytest.raises(InvalidShapeError):
            init_shape(g, Box((0.5,), (0.5,)))

    def test_default_lattice_crosses_every_period(self):
        g = GridSpec(((0.0, 10.0), (0.0, 10.0)), (128, 128))
        u = init_shape(g)
        period = (g.maxs - g.mins) / 4.0
        ax0, ax1 = g.axes()
        for i in range(4):
            for j in range(4):
                in0 = (ax0 >= i * period[0]) & (ax0 <= (i + 1) * period[0])
                in1 = (ax1 >= j * period[1]) & (ax1 <= (j + 1) * period[1])
                block = u.values[np.ix_(in0, in1)]
                assert block.max() > 0 and block.min() < 0

    def test_unit_gradient_away_from_kinks(self):
        # the distance field is non-smooth on the medial axis (sphere
        # centers, midplanes between lattice spheres); central differences
        # see those kinks, so near-tie nodes are excluded from the check
        g = GridSpec(((0.0, 10.0), (0.0, 10.0)), (128, 128))
        h = max(g.spacing)
        for shape in (Sphere((5.0, 5.0), 2.0), None):
            u = init_shape(g, shape)
            gm = gradient_magnitude(u).values
            if shape is None:
                centers = np.array(
                    [
                        (1.25 + 2.5 * i, 1.25 + 2.5 * j)
                        for i in range(4)
                        for j in range(4)
                    ]
                )
                radius = 0.75
            else:
                centers = np.array([shape.center])
                radius = shape.radius
            xx, yy = g.mesh()
            dists = np.sqrt(
                (xx[..., None] - centers[:, 0]) ** 2
                + (yy[..., None] - centers[:, 1]) ** 2
            )
            srt = np.sort(dists, axis=-1)
            near_tie = (
                (srt[..., 1] - srt[..., 0] < 4 * h) if len(centers) > 1 else np.zeros(xx.shape, bool)
            )
            near_apex = srt[..., 0] < 4 * h
            smooth = ~near_tie & ~near_apex & (np.abs(u.values) > 2 * h)
            smooth[:2, :] = smooth[-2:, :] = False
            smooth[:, :2] = smooth[:, -2:] = False
            assert np.abs(gm[smooth] - 1.0).max() <= 0.1


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        g = GridSpec(((-1.5, 2.25), (0.0, 1.0)), (6, 4))
        f = ScalarField(g, rng.normal(size=g.shape))
        path = tmp_path / "field.txt"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_header_layout(self):
        g = GridSpec(((0.0, 1.0),), (2,))
        f = ScalarField(g, np.array([1.0, 2.0, 3.0]))
        text = field_to_text(f)
        assert text.splitlines()[0] == "dim 1; axis 0: 0.0 1.0 3;"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            field_from_text("")
        with pytest.raises(ParseError):
            field_from_text("dim 1; axis 0: 0.0 1.0 3;\n1.0\n2.0\n")
        with pytest.raises(ParseError):
            field_from_text("dim 2; axis 0: 0.0 1.0 3;\n1.0\n2.0\n3.0\n")
        with pytest.raises(ParseError):
            field_from_text("dim 1; axis 0: 0.0 1.0 3;\n1.0\nBAD\n3.0\n")
        with pytest.raises(ParseError):
            field_from_text("grid 1; axis 0: 0.0 1.0 3;\n1.0\n")

    def test_pgm_output(self, tmp_path):
        g = GridSpec(((0.0, 1.0), (0.0, 1.0)), (2, 1))
        f = ScalarField(g, np.array([[0.0, 255.0], [51.0, 102.0], [153.0, 204.0]]))
        path = tmp_path / "f.pgm"
        write_pgm(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "3 2"
        assert lines[2] == "255"
        assert lines[3] == "255 102 204"
        assert lines[4] == "0 51 153"

    def test_pgm_1d_is_one_row(self, tmp_path):
        g = GridSpec(((0.0, 1.0),), (3,))
        f = ScalarField(g, np.array([2.0, -1.0, 0.5, 3.0]))
        path = tmp_path / "f.pgm"
        write_pgm(f, path)
        assert path.read_text() == "P2\n4 1\n255\n191 0 96 255\n"

    def test_pgm_rejects_3d(self, tmp_path):
        from ofc.errors import DimensionError

        g = GridSpec(((0.0, 1.0),) * 3, (2, 2, 2))
        f = ScalarField(g, np.zeros((3, 3, 3)))
        with pytest.raises(DimensionError):
            write_pgm(f, tmp_path / "f.pgm")
