"""User-facing classifier: fit on labeled points, predict, persist, export.

A trained model is an immutable bundle of the decision field u, the
measure it was trained for, the config :func:`ofc.solver.train` resolved
and ran, and a fingerprint of the training densities.  Class assignment is
sign(u) with exact zero resolving to the positive class: in imbalance
problems the positive class is the costly miss, so boundary points favor
detection.

A model file holds the config as ``config.<field>=<text>`` lines in the
text form of :func:`ofc.solver.config_to_text`, which the trace header
holds too.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .density import DensityPair, estimate_pair
from .energy import check_measure
from .errors import (
    DegenerateModelError,
    ModelFormatError,
    VersionMismatchError,
)
from .field import (
    GridSpec,
    ScalarField,
    edge_crossings,
    field_from_text,
    field_to_text,
    interpolate,
)
from .metrics import check_positive
from .solver import (
    TrainConfig,
    config_from_text,
    config_to_text,
    default_resolution,
    has_sign_change,
    resolved_config,
    train,
)

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
    grid = GridSpec.from_points(data.points, resolution=res)
    return estimate_pair(data, grid, bandwidth=bandwidth)


def fit(
    data: LabeledDataset,
    cfg: TrainConfig = None,
    measure: str = "f_measure",
    bandwidth=None,
    densities: DensityPair = None,
):
    """:func:`densities_for` and then :func:`~ofc.solver.train`, which
    resolves cfg's defaults on the densities' grid.

    ``densities`` reuses a pair from :func:`densities_for` on the same
    data and resolution (``bandwidth`` is then unused) instead of
    estimating it again.  Returns (TrainedClassifier, EvolutionTrace); the
    trace's ``phase_seconds`` gains the KDE time as "kde" (0 on reuse).
    """
    kde_s, pair = 0.0, densities
    if pair is None:
        start = time.perf_counter()
        pair = densities_for(data, cfg, bandwidth)
        kde_s = time.perf_counter() - start
    model, trace = train(pair, cfg, measure)
    trace.phase_seconds = {"kde": kde_s, **trace.phase_seconds}
    return model, trace


def predict(m: TrainedClassifier, points) -> np.ndarray:
    """True where the model assigns the positive class (u >= 0)."""
    return interpolate(m.u, np.atleast_2d(points)) >= 0


def frontier(m: TrainedClassifier):
    """The zero level set of the decision field, in feature coordinates.

    It crosses the grid edges whose nodes differ in predicted class, u = 0
    counting as positive.  1-D: sorted list of threshold floats.  2-D: list
    of polylines, each an (n, 2) array, closed loops repeating their first
    vertex.  Higher dimensions: one (n, dim) array of the crossed edges'
    midpoints.
    """
    if m.degenerate:
        raise DegenerateModelError("decision field never changes sign")
    if m.grid.dim == 1:
        return _thresholds_1d(m.u)
    if m.grid.dim == 2:
        return _marching_squares(m.u)
    return _edge_midpoints(m.u)


def _edge_points(u: ScalarField, axes: list, axis: int, midpoints: bool = False):
    """The mask of the grid edges along ``axis`` that the class boundary
    crosses (:func:`~ofc.field.edge_crossings`), and on those, in C order,
    its (n, dim) linearly interpolated points, or the edges' midpoints."""
    _, _, cross, t = edge_crossings(u.values, axis)
    nodes = np.nonzero(cross)
    points = np.stack([x[i] for x, i in zip(axes, nodes)], axis=-1)
    x0, x1 = axes[axis][nodes[axis]], axes[axis][nodes[axis] + 1]
    points[:, axis] = 0.5 * (x0 + x1) if midpoints else x0 + t * (x1 - x0)
    return cross, points


def _thresholds_1d(u: ScalarField) -> list:
    return sorted(set(_edge_points(u, u.grid.axes(), 0)[1][:, 0].tolist()))


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
    v = u.values
    axes = u.grid.axes()
    # boundary points on the crossed axis-0 edges (i,j)-(i+1,j) and axis-1
    # edges (i,j)-(i,j+1); the cases below read no other edge
    on = []
    for ax in (0, 1):
        cross, points = _edge_points(u, axes, ax)
        full = np.zeros(cross.shape + (2,))
        full[cross] = points
        on.append(full)
    on_x, on_y = on
    # edges 0..3 of every cell, cells in row-major order
    edges = np.stack([on_x[:, :-1], on_y[1:, :], on_x[:, 1:], on_y[:-1, :]]).reshape(4, -1, 2)
    c00, c10, c11, c01 = v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]
    case = (
        (c00 >= 0) * 1 + (c10 >= 0) * 2 + (c11 >= 0) * 4 + (c01 >= 0) * 8
    ).ravel()
    # saddle split by the sign of the corner average, summed in corner order;
    # quarter values keep the sum finite and, being exact, its sign
    w = 0.25 * v
    centre_neg = ((((w[:-1, :-1] + w[1:, :-1]) + w[1:, 1:]) + w[:-1, 1:]) < 0).ravel()
    swap = ((case == 5) | (case == 10)) & centre_neg
    case[swap] = 15 - case[swap]
    cells = np.flatnonzero((case != 0) & (case != 15))
    pairs = _CASES[case[cells]].reshape(-1, 2)  # two slots per cell, in cell order
    keep = pairs[:, 0] >= 0
    pairs, cell = pairs[keep], np.repeat(cells, 2)[keep]
    return _stitch(np.stack([edges[pairs[:, 0], cell], edges[pairs[:, 1], cell]], axis=1))


def _stitch(ends) -> list:
    """Join segments, (S, 2, 2) end points, into polylines where they share
    a point: open chains first, from their end points in sorted order, then
    loops, each from the first end of its first unused segment."""
    points = np.asarray(ends, dtype=float).reshape(-1, 2)
    # equal points get one id; ids ascend in lexicographic point order
    unique, ids = np.unique(points, axis=0, return_inverse=True)
    ids = ids.ravel().tolist()
    touching = [[] for _ in unique]  # id -> segments
    for end, point in enumerate(ids):
        touching[point].append(end >> 1)
    used = [False] * (len(ids) // 2)

    def walk(end):
        """End indices (2 * segment + side) of the chain leaving ``end``."""
        used[end >> 1] = True
        chain = [end, end ^ 1]
        while True:
            here = ids[chain[-1]]
            for k in touching[here]:
                if not used[k]:
                    break
            else:
                return chain
            used[k] = True
            chain.append(2 * k + (ids[2 * k] == here))

    chains = [walk(2 * segs[0] + (ids[2 * segs[0]] != point))
              for point, segs in enumerate(touching)
              if len(segs) == 1 and not used[segs[0]]]
    chains += [walk(2 * k) for k in range(len(used)) if not used[k]]
    return [np.take(points, chain, axis=0) for chain in chains]


def _edge_midpoints(u: ScalarField) -> np.ndarray:
    axes = u.grid.axes()
    return np.concatenate([_edge_points(u, axes, ax, midpoints=True)[1] for ax in range(len(axes))])


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


def save(m: TrainedClassifier, path) -> None:
    lines = [
        f"{_FORMAT_NAME} {_FORMAT_VERSION}",
        f"kind={m.kind}",
        f"beta={m.beta!r}",
        f"k={'none' if m.k is None else repr(m.k)}",
        f"degenerate={int(m.degenerate)}",
        f"densities_hash={m.densities_hash}",
        *(f"config.{name}={text}" for name, text in config_to_text(m.config).items()),
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
        if key in kv:
            raise ModelFormatError(f"{path}: line {n + 1} repeats {key!r}")
        kv[key] = value
    if field_start is None:
        raise ModelFormatError(f"{path}: missing field section (truncated?)")
    try:
        u = field_from_text("\n".join(lines[field_start:]) + "\n")
        config = config_from_text(
            {k.removeprefix("config."): v for k, v in kv.items() if k.startswith("config.")}
        )
        # a known measure and a descent it takes, the resolution of the
        # field's grid (as train resolves it), a k that training could have
        # set for the measure, a 0/1 flag
        check_measure(kv["kind"], config.descent)
        resolved_config(config, u.grid)
        k = None if kv["k"] == "none" else float(kv["k"])
        if (k is None) != (kv["kind"] == "accuracy"):
            raise ValueError(f"k={kv['k']} does not fit kind={kv['kind']}")
        if k is not None:
            check_positive("k", k)
        if kv["degenerate"] not in ("0", "1"):
            raise ValueError(f"degenerate={kv['degenerate']} is neither 0 nor 1")
        m = TrainedClassifier(
            u=u,
            kind=kv["kind"],
            beta=float(kv["beta"]),
            k=k,
            config=config,
            densities_hash=kv["densities_hash"],
            degenerate=kv["degenerate"] == "1",
        )
    except VersionMismatchError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing entry {exc} (truncated?)") from None
    except Exception as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    # the model states some facts twice; a file whose copies disagree is corrupt
    if m.beta != m.config.beta:
        raise ModelFormatError(f"{path}: beta={m.beta!r} but config.beta={m.config.beta!r}")
    if m.degenerate == has_sign_change(m.u):
        raise ModelFormatError(f"{path}: degenerate={int(m.degenerate)} disagrees with the field")
    return m
