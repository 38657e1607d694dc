"""User-facing classifier: fit on labeled points, predict, persist, export.

A trained model is an immutable bundle of the decision field u, the
measure it was trained for, the resolved config, and a fingerprint of the
training densities.  Class assignment is sign(u) with exact zero resolving
to the positive class: in imbalance problems the positive class is the
costly miss, so boundary points favor detection.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import LabeledDataset
from .density import DensityPair, estimate_pair
from .energy import MeasureEnergy
from .errors import (
    DegenerateModelError,
    ModelFormatError,
    VersionMismatchError,
)
from .field import (
    Box,
    GridSpec,
    ScalarField,
    Sphere,
    SphereLattice,
    field_from_text,
    field_to_text,
    interpolate,
)
from .solver import TrainConfig, default_resolution, train

_FORMAT_NAME = "ofc-model"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainedClassifier:
    """Decision field plus everything needed to reproduce its metrics."""

    u: ScalarField
    kind: str  # energy the field minimizes: "f_measure" | "accuracy"
    beta: float
    k: float | None
    config: TrainConfig
    densities_hash: str
    degenerate: bool  # u never changes sign: the model answers one class

    @property
    def grid(self) -> GridSpec:
        return self.u.grid


def density_fingerprint(d: DensityPair) -> str:
    """sha256 over the grid, both density arrays, and the class counts."""
    h = hashlib.sha256()
    h.update(repr(d.grid).encode())
    h.update(np.ascontiguousarray(d.f_pos.values).tobytes())
    h.update(np.ascontiguousarray(d.f_neg.values).tobytes())
    h.update(f"{d.p_count!r},{d.n_count!r}".encode())
    return h.hexdigest()


def densities_for(data: LabeledDataset, cfg: TrainConfig = None, bandwidth=None) -> DensityPair:
    """Both class densities on the grid `fit` trains on.

    The grid spans the data bounds plus a 10% margin per side, at
    ``cfg.resolution`` cells per axis (or the per-dimension default).  The
    pair depends on cfg only through its resolution, so one pair serves
    every beta.
    """
    if cfg is None:
        cfg = TrainConfig()
    res = cfg.resolution if cfg.resolution is not None else default_resolution(data.dim)
    grid = GridSpec.from_points(data.points, resolution=res, margin=0.1)
    return estimate_pair(data, grid, bandwidth=bandwidth)


def fit(
    data: LabeledDataset,
    cfg: TrainConfig = None,
    measure: str = "f_measure",
    bandwidth=None,
    densities: DensityPair = None,
):
    """Grid from the data bounds (+10% margin), densities, energy, solve.

    ``densities`` reuses a pair from :func:`densities_for` on the same
    data and resolution (``bandwidth`` is then unused) instead of
    estimating it again.  Returns (TrainedClassifier, EvolutionTrace).
    """
    if cfg is None:
        cfg = TrainConfig()
    pair = densities if densities is not None else densities_for(data, cfg, bandwidth)
    eps = cfg.eps_h if cfg.eps_h is not None else 1.5 * max(pair.grid.spacing)
    energy = MeasureEnergy(pair, eps=eps, kind=measure, beta=cfg.beta)
    return train(pair, energy, cfg)


class PredictionResult(NamedTuple):
    labels: np.ndarray  # bool, True = positive class
    values: np.ndarray  # interpolated u
    clamped: np.ndarray  # bool, True where the point fell outside the grid


def predict_full(m: TrainedClassifier, points) -> PredictionResult:
    """Labels plus decision values and an out-of-bounds flag per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.atleast_1d(interpolate(m.u, pts, clamp=True))
    clamped = ((pts < m.grid.mins) | (pts > m.grid.maxs)).any(axis=1)
    return PredictionResult(values >= 0, values, clamped)


def predict(m: TrainedClassifier, points) -> np.ndarray:
    """True where the model assigns the positive class (u >= 0)."""
    return predict_full(m, points).labels


def frontier(m: TrainedClassifier):
    """The zero level set of the decision field, in feature coordinates.

    1-D: sorted list of threshold floats.  2-D: list of polylines, each an
    (n, 2) array, closed loops repeating their first vertex.  Higher
    dimensions: one (n, dim) array of sign-change edge midpoints.
    """
    if m.degenerate:
        raise DegenerateModelError("decision field never changes sign")
    if m.grid.dim == 1:
        return _thresholds_1d(m.u)
    if m.grid.dim == 2:
        return _marching_squares(m.u)
    return _edge_midpoints(m.u)


def _thresholds_1d(u: ScalarField) -> list:
    x = u.grid.axes()[0]
    v = u.values
    out = []
    for i in range(len(v) - 1):
        a, b = v[i], v[i + 1]
        if a == 0.0:
            out.append(float(x[i]))
        elif (a > 0) != (b > 0) and b != 0.0:
            t = a / (a - b)
            out.append(float(x[i] + t * (x[i + 1] - x[i])))
    if v[-1] == 0.0:
        out.append(float(x[-1]))
    return sorted(set(out))


def _edge_zeros(x0, x1, y0, y1, a, b):
    """Zero crossings of u on grid edges from (x0, y0), value a, to (x1, y1), value b.

    All six arguments broadcast against each other.  The point is linear
    interpolation at ``t = a / (a - b)``, or the edge midpoint when
    ``a == b``; the result has shape ``a.shape + (2,)``.
    """
    den = a - b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(den == 0.0, 0.5, a / den)
    return np.stack([x0 + t * (x1 - x0), y0 + t * (y1 - y0)], axis=-1)


# Corner bits: 1=(i,j), 2=(i+1,j), 4=(i+1,j+1), 8=(i,j+1); edges 0..3 run
# (i,j)-(i+1,j), (i+1,j)-(i+1,j+1), (i,j+1)-(i+1,j+1), (i,j)-(i,j+1).
# Row ``case`` lists the cell's segments as edge pairs, -1 padded.  Rows 5
# and 10 are the saddles with a non-negative corner average; a saddle with a
# negative one joins its edges the other way, which is the other saddle's row.
_CASES = np.array([
    [(-1, -1), (-1, -1)],  # 0
    [(0, 3), (-1, -1)], [(0, 1), (-1, -1)], [(1, 3), (-1, -1)],
    [(1, 2), (-1, -1)], [(0, 1), (2, 3)], [(0, 2), (-1, -1)],
    [(2, 3), (-1, -1)], [(2, 3), (-1, -1)], [(0, 2), (-1, -1)],
    [(0, 3), (1, 2)], [(1, 2), (-1, -1)], [(1, 3), (-1, -1)],
    [(0, 1), (-1, -1)], [(0, 3), (-1, -1)],
    [(-1, -1), (-1, -1)],  # 15
])


def _marching_squares(u: ScalarField) -> list:
    x, y = u.grid.axes()
    v = u.values
    # zero points on the axis-0 edges (i,j)-(i+1,j) and axis-1 edges (i,j)-(i,j+1)
    xs, ys = x[:, None], y[None, :]
    on_x = _edge_zeros(xs[:-1], xs[1:], ys, ys, v[:-1, :], v[1:, :])
    on_y = _edge_zeros(xs, xs, ys[:, :-1], ys[:, 1:], v[:, :-1], v[:, 1:])
    # edges 0..3 of every cell, cells in row-major order
    edges = np.stack([on_x[:, :-1], on_y[1:, :], on_x[:, 1:], on_y[:-1, :]]).reshape(4, -1, 2)
    c00, c10, c11, c01 = v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]
    case = (
        (c00 >= 0) * 1 + (c10 >= 0) * 2 + (c11 >= 0) * 4 + (c01 >= 0) * 8
    ).ravel()
    # saddle split by the sign of the corner average, summed in corner order
    centre_neg = ((((c00 + c10) + c11) + c01) < 0).ravel()
    swap = ((case == 5) | (case == 10)) & centre_neg
    case[swap] = 15 - case[swap]
    cells = np.flatnonzero((case != 0) & (case != 15))
    pairs = _CASES[case[cells]].reshape(-1, 2)  # two slots per cell, in cell order
    keep = pairs[:, 0] >= 0
    pairs, cell = pairs[keep], np.repeat(cells, 2)[keep]
    ends = np.stack([edges[pairs[:, 0], cell], edges[pairs[:, 1], cell]], axis=1)
    segments = [(tuple(p), tuple(q)) for p, q in ends.tolist()]
    return _stitch(segments)


def _stitch(segments: list) -> list:
    """Join shared endpoints into polylines; open chains first, then loops."""
    by_point = {}
    for idx, (p, q) in enumerate(segments):
        by_point.setdefault(p, []).append(idx)
        by_point.setdefault(q, []).append(idx)
    used = [False] * len(segments)

    def walk(start_idx, start_point):
        used[start_idx] = True
        p, q = segments[start_idx]
        nxt = q if p == start_point else p
        chain = [start_point, nxt]
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
        if len(by_point[point]) == 1:
            idx = by_point[point][0]
            if not used[idx]:
                polylines.append(walk(idx, point))
    for idx in range(len(segments)):
        if not used[idx]:
            polylines.append(walk(idx, segments[idx][0]))
    return [np.array(chain) for chain in polylines]


def _edge_midpoints(u: ScalarField) -> np.ndarray:
    grid = u.grid
    mesh = grid.mesh()
    v = u.values
    points = []
    for ax in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax], hi[ax] = slice(None, -1), slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        a, b = v[lo], v[hi]
        cross = (a >= 0) != (b >= 0)
        mid = [0.5 * (c[lo][cross] + c[hi][cross]) for c in mesh]
        points.append(np.stack(mid, axis=-1))
    return np.concatenate(points, axis=0)


def frontier_csv(m: TrainedClassifier) -> str:
    """Vertex coordinates, one polyline per blank-line-separated block."""
    fr = frontier(m)
    blocks = []
    if m.grid.dim == 1:
        blocks = [[repr(t)] for t in fr]
    elif m.grid.dim == 2:
        blocks = [
            [f"{float(p[0])!r},{float(p[1])!r}" for p in line] for line in fr
        ]
    else:
        blocks = [[",".join(repr(float(c)) for c in p) for p in fr]]
    return "\n\n".join("\n".join(b) for b in blocks) + "\n"


def _encode_shape(shape) -> str:
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


def _decode_shape(text: str):
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
    raise ModelFormatError(f"unknown init shape {name!r}")


def _opt(value, parse):
    return None if value == "none" else parse(value)


def save(m: TrainedClassifier, path) -> None:
    cfg = m.config
    lines = [
        f"{_FORMAT_NAME} {_FORMAT_VERSION}",
        f"kind={m.kind}",
        f"beta={m.beta!r}",
        f"k={'none' if m.k is None else repr(m.k)}",
        f"degenerate={int(m.degenerate)}",
        f"densities_hash={m.densities_hash}",
        f"config.beta={cfg.beta!r}",
        f"config.dt={'none' if cfg.dt is None else repr(cfg.dt)}",
        f"config.lam={'none' if cfg.lam is None else repr(cfg.lam)}",
        f"config.eps_h={'none' if cfg.eps_h is None else repr(cfg.eps_h)}",
        f"config.tol={cfg.tol!r}",
        f"config.reinit_every={cfg.reinit_every}",
        f"config.max_iter={cfg.max_iter}",
        f"config.resolution={'none' if cfg.resolution is None else cfg.resolution}",
        f"config.init={_encode_shape(cfg.init)}",
        f"config.seed={cfg.seed}",
        f"config.descent={cfg.descent}",
        "field:",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(field_to_text(m.u))


def load(path) -> TrainedClassifier:
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != _FORMAT_NAME:
        raise ModelFormatError(f"{path}: not a {_FORMAT_NAME} file")
    try:
        version = int(head[1])
    except ValueError:
        raise ModelFormatError(f"{path}: bad version {head[1]!r}") from None
    if version > _FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version} is newer than supported "
            f"{_FORMAT_VERSION}"
        )
    kv = {}
    field_start = None
    for n, line in enumerate(lines[1:], start=1):
        if line == "field:":
            field_start = n + 1
            break
        key, sep, value = line.partition("=")
        if not sep:
            raise ModelFormatError(f"{path}: malformed line {n + 1}: {line!r}")
        kv[key] = value
    if field_start is None:
        raise ModelFormatError(f"{path}: missing field section (truncated?)")
    try:
        u = field_from_text("\n".join(lines[field_start:]) + "\n")
        cfg = TrainConfig(
            beta=float(kv["config.beta"]),
            dt=_opt(kv["config.dt"], float),
            lam=_opt(kv["config.lam"], float),
            eps_h=_opt(kv["config.eps_h"], float),
            tol=float(kv["config.tol"]),
            reinit_every=int(kv["config.reinit_every"]),
            max_iter=int(kv["config.max_iter"]),
            resolution=_opt(kv["config.resolution"], int),
            init=_decode_shape(kv["config.init"]),
            seed=int(kv["config.seed"]),
            descent=kv["config.descent"],
        )
        return TrainedClassifier(
            u=u,
            kind=kv["kind"],
            beta=float(kv["beta"]),
            k=_opt(kv["k"], float),
            config=cfg,
            densities_hash=kv["densities_hash"],
            degenerate=bool(int(kv["degenerate"])),
        )
    except VersionMismatchError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing entry {exc} (truncated?)") from None
    except Exception as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
