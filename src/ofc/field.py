"""Scalar fields on regular node-centered grids.

Everything downstream (densities, energies, the gradient flow) lives on
one of these grids, so this module owns the quadrature, interpolation,
finite-difference stencils, signed-distance initializations and the text
serialization formats.

The Laplacian runs on every training step, on grids small enough that
each whole-array numpy call costs about as much as the arithmetic in it.
It is therefore written as few passes: the centre term, then per axis one
sum of the two neighbour slices and one correction of the two end rows,
with the weights and index tuples cached per grid shape and spacing.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    DimensionError,
    GridMismatchError,
    InvalidShapeError,
    NonFiniteError,
    OutOfDomainError,
    ParseError,
)


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
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
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

    @property
    def mins(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.bounds])

    @property
    def maxs(self) -> np.ndarray:
        return np.array([hi for _, hi in self.bounds])

    def axes(self) -> list:
        """Node coordinates per axis."""
        return [np.linspace(lo, hi, n) for (lo, hi), n in zip(self.bounds, self.shape)]

    def mesh(self) -> list:
        return np.meshgrid(*self.axes(), indexing="ij")

    @classmethod
    def from_points(cls, points: np.ndarray, resolution, margin: float = 0.1) -> "GridSpec":
        """Bounding box of ``points`` expanded by ``margin`` of the range per side."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        width = hi - lo
        # a constant feature still needs a usable axis
        pad = np.where(width > 0, margin * width, np.maximum(1.0, np.abs(lo)) * margin)
        return cls(tuple(zip(lo - pad, hi + pad)), resolution)


@dataclass(eq=False)
class ScalarField:
    """Real values sampled at every grid node (C-order array of ``grid.shape``)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid nodes {self.grid.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        self.values = vals

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values)


def _require_same_grid(a: ScalarField, b: ScalarField):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


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


def interpolate(f: ScalarField, points, clamp: bool = True):
    """Multilinear interpolation at one point ``(d,)`` or a batch ``(n, d)``.

    Out-of-domain queries are clamped to the boundary unless ``clamp`` is
    False, in which case they raise :class:`OutOfDomainError`.  Queries
    containing nan or infinity raise :class:`NonFiniteError`.
    """
    grid = f.grid
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != grid.dim:
        raise DimensionError(f"points have {pts.shape[1]} coords, grid has {grid.dim}")
    if not np.isfinite(pts).all():
        raise NonFiniteError("query points must be finite")
    lo, hi = grid.mins, grid.maxs
    if clamp:
        pts = np.clip(pts, lo, hi)
    elif ((pts < lo) | (pts > hi)).any():
        raise OutOfDomainError("query point outside grid bounds")
    h = np.asarray(grid.spacing)
    t = (pts - lo) / h
    base = np.minimum(np.floor(t).astype(int), np.array(grid.resolution) - 1)
    frac = t - base
    out = np.zeros(len(pts))
    for corner in product((0, 1), repeat=grid.dim):
        w = np.ones(len(pts))
        idx = []
        for ax, c in enumerate(corner):
            w *= frac[:, ax] if c else 1.0 - frac[:, ax]
            idx.append(base[:, ax] + c)
        out += w * f.values[tuple(idx)]
    return float(out[0]) if single else out


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
    centre, axes = _laplacian_stencil(grid.shape, grid.spacing)
    out = v * centre
    for c, mid, up, down, c2, ends, inner in axes:
        s = v[up] + v[down]
        s *= c
        rows = out[mid]  # a view: adding in place writes through to out
        rows += s
        rows = out[ends]
        rows += c2 * v[inner]
    return ScalarField(grid, out)


@functools.lru_cache(maxsize=64)
def _laplacian_stencil(shape: tuple, spacing: tuple):
    """Centre weight and, per axis, the weights and index tuples of :func:`laplacian`.

    Per axis: ``h**-2``; the interior rows and their upper and lower
    neighbours; ``2 * h**-2``; the two end rows and their inner neighbours
    (one row broadcast to both ends on a 3-node axis).
    """
    axes = []
    for ax, (n, h) in enumerate(zip(shape, spacing)):
        lead = (slice(None),) * ax
        c = 1.0 / (h * h)
        inner = slice(1, 2) if n == 3 else slice(1, n - 1, n - 3)
        axes.append((
            c,
            lead + (slice(1, -1),),
            lead + (slice(2, None),),
            lead + (slice(None, -2),),
            2.0 * c,
            lead + (slice(None, None, n - 1),),
            lead + (inner,),
        ))
    return -2.0 * sum(a[0] for a in axes), tuple(axes)


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


def _lattice_centers(grid: GridSpec, shape: SphereLattice):
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
    centers = np.array(list(product(*per_axis)))
    for c in centers:
        _check_inside(grid, c, "lattice center")
    return centers, radius


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
        return ScalarField(grid, _sphere_values(grid.mesh(), center, float(shape.radius)))
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
        mesh = grid.mesh()
        q = [np.abs(m - c) - hw for m, c, hw in zip(mesh, center, half)]
        outside = np.sqrt(sum(np.maximum(qi, 0.0) ** 2 for qi in q))
        inside = np.minimum(functools.reduce(np.maximum, q), 0.0)
        return ScalarField(grid, -(outside + inside))
    if isinstance(shape, SphereLattice):
        centers, radius = _lattice_centers(grid, shape)
        mesh = grid.mesh()
        vals = np.full(grid.shape, -np.inf)
        for c in centers:
            vals = np.maximum(vals, _sphere_values(mesh, c, radius))
        return ScalarField(grid, vals)
    raise InvalidShapeError(f"unsupported shape {type(shape).__name__}")


# ---------------------------------------------------------------------------
# serialization


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


def write_field(f: ScalarField, path):
    with open(path, "w") as fh:
        fh.write(field_to_text(f))


def read_field(path) -> ScalarField:
    with open(path) as fh:
        return field_from_text(fh.read())


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
