"""Scalar fields on regular node-centered grids.

Everything downstream (densities, energies, the gradient flow) lives on
one of these grids, so this module owns the quadrature, interpolation,
finite-difference stencils, the class boundary's crossings of the grid
edges, signed-distance initializations and the text serialization formats.

One multilinear cell map gives, per corner of a point's cell, the flat
node index and the weight; :func:`interpolate` gathers node values through
it, and the KDE's linear binning (:mod:`ofc.density`) scatters sample
weights through it.

The Laplacian, run on every training step, gathers each node's two
neighbours per axis through one cached index table per grid shape and
weights them in one product, a fixed three calls whose cost grows with the
nodes alone, so no grid size needs a kernel of its own.

Every field's values are checked to be finite.  The check first takes the
dot product of the values with themselves, one BLAS call: a finite result
proves every value finite.  Only a non-finite one, from a non-finite value
or from squares that overflow, makes it test each value.  The one exception
is a training step (:func:`ofc.solver.step`): the descent direction and the
Laplacian it builds its update from are not checked on their own, because a
non-finite value in either makes the update non-finite, and the step checks
the update once.

A grid builds its node coordinates and its bounds as read-only arrays once,
on first use, since redistancing, interpolation and the initial shapes read
them on every call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DimensionError,
    InvalidShapeError,
    NonFiniteError,
    ParseError,
)


_MARGIN = 0.1  # of a point cloud's range, added per side by from_points


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned grid: ``resolution[i]`` cells, ``resolution[i] + 1`` nodes per axis.

    Parameters
    ----------
    bounds : tuple of (lo, hi) pairs, one per axis.
    resolution : int or tuple of int
        Cell count per axis; a scalar is broadcast to every axis.
    """

    bounds: tuple
    resolution: tuple

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if not bounds:
            raise ValueError("grid needs at least one axis")
        res = self.resolution
        if np.isscalar(res):
            res = (int(res),) * len(bounds)
        res = tuple(int(r) for r in res)
        if len(res) != len(bounds):
            raise ValueError(f"resolution has {len(res)} axes, bounds {len(bounds)}")
        for (lo, hi) in bounds:
            # a width that overflows would make the spacing and every node inf
            if not (hi > lo and math.isfinite(hi - lo)):
                raise ValueError(f"invalid axis bounds ({lo}, {hi})")
        for r in res:
            if r < 1:
                raise ValueError(f"resolution must be >= 1 cell, got {r}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "resolution", res)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    # cached per instance: the training loop asks for both on every step
    @functools.cached_property
    def shape(self) -> tuple:
        """Node count per axis."""
        return tuple(r + 1 for r in self.resolution)

    @functools.cached_property
    def spacing(self) -> tuple:
        return tuple((hi - lo) / r for (lo, hi), r in zip(self.bounds, self.resolution))

    # read-only, built once per grid: every redistancing and every query
    # batch reads them
    @functools.cached_property
    def mins(self) -> np.ndarray:
        return _read_only(np.array([lo for lo, _ in self.bounds]))

    @functools.cached_property
    def maxs(self) -> np.ndarray:
        return _read_only(np.array([hi for _, hi in self.bounds]))

    @functools.cached_property
    def _nodes(self) -> np.ndarray:
        """Node coordinates, one slab of ``shape`` per axis (read-only)."""
        return _read_only(np.stack(self.mesh()))

    def axes(self) -> list:
        """Node coordinates per axis."""
        return [np.linspace(lo, hi, n) for (lo, hi), n in zip(self.bounds, self.shape)]

    def mesh(self) -> list:
        return np.meshgrid(*self.axes(), indexing="ij")

    @classmethod
    def from_points(cls, points: np.ndarray, resolution) -> "GridSpec":
        """Bounding box of ``points`` expanded by a tenth of the range per side."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # per-feature columns, by the column rule in ofc.data's docstring
        cols = np.ascontiguousarray(pts.T)
        lo, hi = cols.min(axis=1), cols.max(axis=1)
        with np.errstate(over="ignore"):
            width = hi - lo
            # a constant feature still needs a usable axis
            pad = np.where(width > 0, _MARGIN * width, np.maximum(1.0, np.abs(lo)) * _MARGIN)
            lo, hi = lo - pad, hi + pad
            if not np.isfinite(hi - lo).all():
                raise DataError("a feature's padded range overflows a float; rescale the data")
        return cls(tuple(zip(lo, hi)), resolution)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class ScalarField:
    """Real values sampled at every grid node (C-order array of ``grid.shape``)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid nodes {self.grid.shape}")
        # vdot, unlike a ufunc reduction, raises no floating-point warning
        # when it overflows
        if not math.isfinite(np.vdot(vals, vals)) and not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        self.values = vals

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values)


class _Unchecked(ScalarField):
    """A field that skips the finiteness check, as do the fields derived
    from it through :meth:`with_values`.

    A training step hands its u to the public kernels as one: a non-finite
    value in their results makes the step's update non-finite, and the step
    checks that once.
    """

    def __post_init__(self):
        pass

    def with_values(self, values: np.ndarray) -> "_Unchecked":
        return _Unchecked(self.grid, values)


@functools.lru_cache(maxsize=64)
def _quadrature_weights(grid: GridSpec) -> np.ndarray:
    """Trapezoidal weights: product of per-axis vectors with half-weighted ends."""
    out = None
    for n, h in zip(grid.shape, grid.spacing):
        wx = np.full(n, h)
        wx[0] *= 0.5
        wx[-1] *= 0.5
        out = wx if out is None else np.multiply.outer(out, wx)
    return out


def integrate(f: ScalarField) -> float:
    """Trapezoidal integral of ``f`` over the whole domain."""
    return float(np.sum(f.values * _quadrature_weights(f.grid)))


def interpolate(f: ScalarField, points):
    """Multilinear interpolation at one point ``(d,)`` or a batch ``(n, d)``.

    Out-of-domain queries are clamped to the boundary.  Queries containing
    nan or infinity raise :class:`NonFiniteError`.
    """
    grid = f.grid
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != grid.dim:
        raise DimensionError(f"points have {pts.shape[1]} coords, grid has {grid.dim}")
    if not np.isfinite(pts).all():
        raise NonFiniteError("query points must be finite")
    # columns in cell units: a copy, since they are rescaled in place
    cols = np.array(pts.T, order="C")
    for col, lo, hi, h in zip(cols, grid.mins, grid.maxs, grid.spacing):
        np.clip(col, lo, hi, out=col)
        col -= lo
        col /= h
    vals = f.values.ravel()
    out = np.zeros(len(pts))
    for index, weight in _cell_corners(cols, grid.shape):
        out += weight * vals[index]
    return float(out[0]) if single else out


def _cell_corners(t, shape: tuple):
    """The multilinear cell map of points given in cell units of a C-order
    grid of ``shape`` nodes and lying within it; ``t[ax]`` holds their
    coordinates along axis ``ax``.

    Yields, for each corner of the unit cell in C order, each point's flat
    C-order node index and its multilinear weight, the product of its
    per-axis factors in axis order.  A point on an upper bound lies in the
    last cell, at fraction 1.
    """
    strides = np.cumprod((1,) + tuple(shape[:0:-1]))[::-1].tolist()
    origin, factors = 0, []
    for x, n, stride in zip(t, shape, strides):
        base = np.minimum(np.floor(x).astype(np.intp), n - 2)
        frac = x - base
        factors.append((1.0 - frac, frac))
        origin = origin + base * stride
    for corner in np.ndindex(*(2,) * len(shape)):
        weight = factors[0][corner[0]]
        for factor, c in zip(factors[1:], corner[1:]):
            weight = weight * factor[c]
        yield origin + np.dot(corner, strides), weight


def laplacian(f: ScalarField) -> ScalarField:
    """Central-difference Laplacian with mirrored ghost nodes (zero normal flux).

    Each node gets ``-2 * sum(h**-2) * v`` plus, per axis, ``h**-2`` times
    the sum of its two neighbours along that axis.  A mirrored ghost node
    equals the end node's inner neighbour, so the end rows count that
    neighbour twice.
    """
    grid = f.grid
    if min(grid.shape) < 3:
        raise ValueError("laplacian needs at least 3 nodes per axis")
    v = f.values
    weights, centre = _laplacian_weights(grid.spacing)
    # fancy indexing, not np.take: np.take copies a read-only index array
    # on every call
    out = (weights @ v.ravel()[_neighbours(grid.shape)]).reshape(v.shape)
    out += centre * v
    return f.with_values(out)


@functools.lru_cache(maxsize=4)  # a 65^3 table holds 13 MB
def _neighbours(shape: tuple) -> np.ndarray:
    """Read-only ``(2 * d, nodes)`` table of flat C-order node indices: per
    axis, each node's lower and then upper neighbour along it.

    At an end node the inner neighbour stands in for the mirrored ghost node.
    """
    index = np.arange(math.prod(shape)).reshape(shape)
    rows = []
    for ax, n in enumerate(shape):
        i = np.arange(n)
        for along in (np.abs(i - 1), n - 1 - np.abs(n - 2 - i)):
            rows.append(np.take(index, along, axis=ax).ravel())
    return _read_only(np.stack(rows))


@functools.lru_cache(maxsize=64)
def _laplacian_weights(spacing: tuple) -> tuple:
    """The weights of :func:`_neighbours`' rows, each axis's ``h**-2`` twice
    (read-only), and the centre weight ``-2 * sum(h**-2)``."""
    c = [1.0 / (h * h) for h in spacing]
    return _read_only(np.repeat(c, 2)), -2.0 * sum(c)


def gradient_magnitude(f: ScalarField) -> ScalarField:
    """Euclidean norm of the finite-difference gradient.

    Central differences at interior nodes, one-sided at the boundary.
    """
    grid = f.grid
    if min(grid.shape) < 3:
        raise ValueError("gradient needs at least 3 nodes per axis")
    parts = np.gradient(f.values, *grid.spacing, edge_order=1)
    if grid.dim == 1:
        parts = [parts]
    return ScalarField(grid, np.sqrt(sum(p**2 for p in parts)))


def edge_crossings(values: np.ndarray, axis: int) -> tuple:
    """Where the class boundary, ``u >= 0`` against ``u < 0``, crosses the
    grid edges along ``axis``: ``(lo, hi, cross, t)``.

    lo and hi index each edge's lower and upper node, cross marks the edges
    whose nodes differ in class, and on those, in C order, u interpolates
    to 0 at the fraction ``t = a / (a - b)`` of the way from the lower node
    (value a) to the upper one (value b): 0 at a zero lower node, 1 at a
    zero upper one.  Halving a and b keeps ``a - b`` finite.
    """
    lead = (slice(None),) * axis
    lo, hi = lead + (slice(None, -1),), lead + (slice(1, None),)
    positive = values >= 0
    cross = positive[lo] != positive[hi]
    a, b = values[lo][cross], values[hi][cross]
    # v - v / 2 is v / 2 exactly for a normal v, and is not 0 for any v != 0
    a, b = a - 0.5 * a, b - 0.5 * b
    return lo, hi, cross, a / (a - b)


# ---------------------------------------------------------------------------
# signed-distance initializations (positive inside)


@dataclass(frozen=True)
class Sphere:
    """Ball (interval/disc/ball by dimension)."""

    center: tuple
    radius: float


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by opposite corners."""

    lo: tuple
    hi: tuple


@dataclass(frozen=True)
class SphereLattice:
    """Union of equal spheres centered on a regular lattice.

    ``period`` and ``radius`` default to extent/4 per axis and 0.3 * min
    period, which keeps the spheres disjoint and puts a sign change inside
    every lattice cell.  ``offset`` shifts all centers (scalar or per axis).
    """

    period: tuple = None
    radius: float = None
    offset: tuple = 0.0


def _sphere_values(mesh: list, center: np.ndarray, radius: float) -> np.ndarray:
    d2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
    return radius - np.sqrt(d2)


def _check_inside(grid: GridSpec, point: np.ndarray, what: str):
    if ((point < grid.mins) | (point > grid.maxs)).any():
        raise InvalidShapeError(f"{what} {tuple(point)} lies outside the grid bounds")


def _lattice_axes(grid: GridSpec, shape: SphereLattice):
    """Per axis, the lattice's centre coordinates, whose product is its
    centres; and its radius."""
    extent = grid.maxs - grid.mins
    period = np.asarray(shape.period, dtype=float) if shape.period is not None else extent / 4.0
    if np.isscalar(shape.offset):
        offset = np.full(grid.dim, float(shape.offset))
    else:
        offset = np.asarray(shape.offset, dtype=float)
    if (period <= 0).any():
        raise InvalidShapeError("lattice period must be positive")
    radius = float(shape.radius) if shape.radius is not None else 0.3 * float(period.min())
    if radius <= 0:
        raise InvalidShapeError("lattice radius must be positive")
    per_axis = [
        grid.mins[i] + (np.arange(max(1, int(np.ceil(extent[i] / period[i])))) + 0.5) * period[i]
        + offset[i]
        for i in range(grid.dim)
    ]
    for i, coords in enumerate(per_axis):
        outside = coords[(coords < grid.mins[i]) | (coords > grid.maxs[i])]
        if outside.size:
            center = np.array([c[0] for c in per_axis])
            center[i] = outside[0]
            _check_inside(grid, center, "lattice center")
    return per_axis, radius


InitShape = Sphere | Box | SphereLattice


def init_shape(grid: GridSpec, shape=None) -> ScalarField:
    """Signed-distance field for ``shape`` (positive inside, zero on the boundary).

    ``shape`` may be a :class:`Sphere`, :class:`Box` or :class:`SphereLattice`;
    ``None`` selects the default lattice, whose zero set crosses every region
    of the domain.
    """
    if shape is None:
        shape = SphereLattice()
    if isinstance(shape, Sphere):
        if shape.radius <= 0:
            raise InvalidShapeError(f"sphere radius must be positive, got {shape.radius}")
        center = np.asarray(shape.center, dtype=float)
        if center.shape != (grid.dim,):
            raise InvalidShapeError("sphere center dimension does not match the grid")
        _check_inside(grid, center, "sphere center")
        return ScalarField(grid, _sphere_values(grid._nodes, center, float(shape.radius)))
    if isinstance(shape, Box):
        lo = np.asarray(shape.lo, dtype=float)
        hi = np.asarray(shape.hi, dtype=float)
        if lo.shape != (grid.dim,) or hi.shape != (grid.dim,):
            raise InvalidShapeError("box corner dimension does not match the grid")
        if (hi <= lo).any():
            raise InvalidShapeError("box is degenerate (hi <= lo on some axis)")
        _check_inside(grid, lo, "box corner")
        _check_inside(grid, hi, "box corner")
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        q = [np.abs(m - c) - hw for m, c, hw in zip(grid._nodes, center, half)]
        outside = np.sqrt(sum(np.maximum(qi, 0.0) ** 2 for qi in q))
        inside = np.minimum(functools.reduce(np.maximum, q), 0.0)
        return ScalarField(grid, -(outside + inside))
    if isinstance(shape, SphereLattice):
        per_axis, radius = _lattice_axes(grid, shape)
        # The union's value, the max over centres of r - |x - c|, is r minus
        # the root of the least squared distance to a centre.  The centres
        # are a product of per-axis rows, so that least sum of per-axis
        # squares sums the per-axis least squares.  Rounding is monotone, so
        # both steps give the per-centre max exactly.
        d2 = 0
        for ax, (x, c) in enumerate(zip(grid.axes(), per_axis)):
            near = np.min((x[:, None] - c) ** 2, axis=1)
            d2 = d2 + near.reshape((-1,) + (1,) * (grid.dim - 1 - ax))
        return ScalarField(grid, radius - np.sqrt(d2))
    raise InvalidShapeError(f"unsupported shape {type(shape).__name__}")


# ---------------------------------------------------------------------------
# serialization


def shape_to_text(shape) -> str:
    """One-line text form of an init shape; ``None`` is "default"."""
    def seq(v):
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        return "|".join(repr(float(c)) for c in arr)

    if shape is None:
        return "default"
    if isinstance(shape, Sphere):
        return f"sphere;center={seq(shape.center)};radius={float(shape.radius)!r}"
    if isinstance(shape, Box):
        return f"box;lo={seq(shape.lo)};hi={seq(shape.hi)}"
    if isinstance(shape, SphereLattice):
        period = "none" if shape.period is None else seq(shape.period)
        radius = "none" if shape.radius is None else repr(float(shape.radius))
        # offset may be a scalar (same shift on every axis) or a tuple; a
        # trailing "|" marks the single-component tuple form
        if np.isscalar(shape.offset):
            offset = repr(float(shape.offset))
        else:
            arr = np.atleast_1d(np.asarray(shape.offset, dtype=float))
            offset = seq(arr) + ("|" if arr.size == 1 else "")
        return f"lattice;period={period};radius={radius};offset={offset}"
    raise ValueError(f"cannot encode init shape {shape!r}")


def shape_from_text(text: str):
    """Inverse of :func:`shape_to_text`."""
    if text == "default":
        return None
    name, _, rest = text.partition(";")
    kv = dict(item.split("=", 1) for item in rest.split(";") if item)

    def seq(s):
        return tuple(float(c) for c in s.split("|"))

    if name == "sphere":
        return Sphere(center=seq(kv["center"]), radius=float(kv["radius"]))
    if name == "box":
        return Box(lo=seq(kv["lo"]), hi=seq(kv["hi"]))
    if name == "lattice":
        period = None if kv["period"] == "none" else seq(kv["period"])
        radius = None if kv["radius"] == "none" else float(kv["radius"])
        raw = kv["offset"]
        if "|" in raw:
            offset = tuple(float(c) for c in raw.split("|") if c)
        else:
            offset = float(raw)
        return SphereLattice(period=period, radius=radius, offset=offset)
    raise ParseError(f"unknown init shape {name!r}")


def field_to_text(f: ScalarField) -> str:
    """Text form: one header line, then node values in row-major order."""
    parts = [f"dim {f.grid.dim};"]
    for i, ((lo, hi), n) in enumerate(zip(f.grid.bounds, f.grid.shape)):
        parts.append(f" axis {i}: {lo!r} {hi!r} {n};")
    lines = ["".join(parts)]
    lines.extend(repr(float(v)) for v in f.values.ravel())
    return "\n".join(lines) + "\n"


def field_from_text(text: str) -> ScalarField:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty field text")
    header = lines[0]
    chunks = [c.strip() for c in header.split(";") if c.strip()]
    if not chunks or not chunks[0].startswith("dim "):
        raise ParseError(f"bad field header: {header!r}")
    try:
        dim = int(chunks[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad field header: {header!r}") from exc
    if len(chunks) != dim + 1:
        raise ParseError(f"header declares dim {dim} but has {len(chunks) - 1} axes")
    bounds, shape = [], []
    for i, chunk in enumerate(chunks[1:]):
        toks = chunk.replace(":", " ").split()
        if len(toks) != 5 or toks[0] != "axis" or toks[1] != str(i):
            raise ParseError(f"bad axis entry: {chunk!r}")
        try:
            lo, hi, n = float(toks[2]), float(toks[3]), int(toks[4])
        except ValueError as exc:
            raise ParseError(f"bad axis entry: {chunk!r}") from exc
        if n < 2:
            raise ParseError(f"axis {i} needs at least 2 nodes, got {n}")
        bounds.append((lo, hi))
        shape.append(n)
    grid = GridSpec(tuple(bounds), tuple(n - 1 for n in shape))
    try:
        vals = np.array([float(t) for line in lines[1:] for t in line.split()])
    except ValueError as exc:
        raise ParseError("non-numeric field value") from exc
    expected = int(np.prod(shape))
    if vals.size != expected:
        raise ParseError(f"expected {expected} values, found {vals.size}")
    return ScalarField(grid, vals.reshape(shape))


def write_pgm(f: ScalarField, path):
    """8-bit ASCII graymap of a 1-D or 2-D field.

    Values are mapped affinely from [min, max] to [0, 255] (a constant field
    is all 0); columns follow axis 0 and rows run top-to-bottom along
    decreasing axis 1, so the image is oriented like a conventional x/y
    plot.  A 1-D field is a single row.
    """
    if f.grid.dim > 2:
        raise DimensionError("graymap export is defined for 1-D and 2-D fields only")
    vals = f.values.reshape(f.grid.shape[0], -1)
    lo, hi = vals.min(), vals.max()
    if hi > lo:
        gray = np.rint((vals - lo) / (hi - lo) * 255.0).astype(int)
    else:
        gray = np.zeros(vals.shape, dtype=int)
    # rows: axis-1 index descending; columns: axis-0 index ascending
    img = gray.T[::-1]
    with open(path, "w") as fh:
        fh.write(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n")
        for row in img:
            fh.write(" ".join(str(v) for v in row) + "\n")
