"""Training loop for the level-set classifier.

Unless the config names an initial shape, the decision field starts at
the exact minimizer of the sign-pattern energy on the grid
(:meth:`~ofc.energy.MeasureEnergy._optimum_mask`): +1 on the optimal node
set and -1 off it, redistanced.  That puts the front where the densities
want it in a few matrix products, so the flow below only refines it.  It
then evolves by explicit descent steps

    u <- u - dt * (descent_direction - lambda * laplacian(u))

from a dt within the explicit-diffusion limit (:func:`auto_time_step`),
with a CFL-like guard (a step moving any node by more than 10 cell widths
is rejected and dt halved) and periodic rebuilding of u as a signed
distance function, every ``reinit_every`` iterations.  Two rules declare
convergence:

- the sup-norm update stays below tol for 5 consecutive iterations;
- a redistanced field scores strictly higher than the checkpoint before it.

The score is the sign-pattern energy
(:meth:`~ofc.energy.MeasureEnergy.sign_pattern_energy`), the measure that
the classifier sign(u) attains, so redistancing does not change it.  The
start is checkpoint 0: it is scored like every checkpoint but never
returned.  A run that starts at the optimum cannot score lower later, so
it ends at its first redistancing, and returns that field, unless that
field ties with the start.  The run
returns its final field, redistanced, or the trained checkpoint before it,
whichever scores lower, and its trace reports how far that field scores
above the grid's optimum.  ``_start`` builds and times u and dt for the
first start and for the one restart; ``_settle`` redistances, evaluates and
times a field in every iteration and at the closing checkpoint.

A step checks that its update is finite once, on the field it returns; the
descent direction and the Laplacian it is built from skip their own checks
(:class:`~ofc.field._Unchecked`).  The grid's node coordinates and bounds,
which the initial shapes and every redistancing read, are built once per
grid and cached on it (:class:`~ofc.field.GridSpec`).

Reinitialization is a closest-point transform.  Its seeds are the nodes
on grid edges that cross the class boundary (:func:`~ofc.field.edge_crossings`),
and each seed gets a foot point: the nearest point of the plane through
the zero crossings on its edges.
Every other node then takes the distance to its nearest foot, found
exactly by one search that compares nodes with feet through one small
matrix product per chunk of nodes.  Up to ``_EXACT_MAX_PAIRS`` (nodes x
seeds) every node meets every foot.  Above it the grid is split into
tiles of about ``_TILE_NODES`` nodes, and each tile meets only the feet
that a bound on the tile's box cannot rule out, so the cost no longer
grows with nodes x seeds.  The sign of u is preserved at every node, so
the classifier is unchanged.

TrainConfig has one text form, derived from its fields and annotations by
:func:`config_to_text` and :func:`config_from_text`.  ``train`` alone fills
in a run's defaults, once (:func:`resolved_config`, and dt in
``_start``), and builds its energy from them; its steps, trace header and
model read that config.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, get_type_hints

import numpy as np

from .density import DensityPair
from .energy import _DESCENTS, MeasureEnergy
from .errors import (
    GridMismatchError,
    StepRejectedError,
    VanishingPositiveMassError,
)
from .field import (
    InitShape,
    ScalarField,
    SphereLattice,
    _Unchecked,
    edge_crossings,
    init_shape,
    laplacian,
    shape_from_text,
    shape_to_text,
)
from .metrics import check_positive

_CONSECUTIVE_FOR_CONVERGENCE = 5
_MAX_DT_HALVINGS = 80
_MIN_CELLS_PER_AXIS = 4
# reinitialize searches a grid of up to this many (nodes x seeds) pairs as
# one tile and splits a larger one into tiles.  Below it tiles do not pay:
# on the 65^2 fields of default fits (0.9-1.7M pairs) one tile takes
# 1.3-2.2 ms and tiles 1.6-2.9 ms.  Above it they do: on the 129^2 fields of
# default fits (7.1-13.7M pairs) one tile takes 7.2-14.0 ms and tiles
# 5.7-8.4 ms, with the same output.  Median ms of one call on 2 cores, one
# tile / tiled:
#   2-D 129^2, sin(4x) + cos(3y),   1,293 seeds:   21 / 7.2
#   2-D 257^2, same field,          2,591 seeds:  132 / 28
#   1-D 20,001 nodes, sine field,   1,274 seeds:   15 / 3.3
#   3-D  33^3, fit3d field,         4,202 seeds:  121 / 39
#   3-D  65^3, default lattice,    31,232 seeds:    - / 493
#   3-D  65^3, fit3d data field,   19,665 seeds:    - / 477
_EXACT_MAX_PAIRS = 1 << 22
# elements of the (nodes x feet) product formed at a time
_EXACT_CHUNK = 1 << 16
# nodes per tile above _EXACT_MAX_PAIRS, and the relative slack on the
# squared distance bounds that prune a tile's feet, for rounding
_TILE_NODES = 1 << 9
_TILE_SLACK = 1e-12


def default_resolution(dim: int) -> int:
    """Per-axis cell count giving a workable grid at each dimension."""
    return {1: 1024, 2: 128, 3: 64}.get(dim, 16)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    dt, lam and eps_h default to None: :func:`train` resolves them once,
    from the grid (lam = 0.1 * max spacing squared, eps_h = 1.5 * max
    spacing; see :func:`resolved_config`) and the initial descent (dt =
    0.5 * min spacing / max |descent|, capped for lam > 0 at the
    explicit-diffusion limit 1 / (2 * lam * sum(h**-2)); see
    :func:`auto_time_step`).  resolution=None picks the
    per-dimension default; a set one must match the grid.  init=None starts
    from the exact minimizer of the sign-pattern energy, redistanced, or
    from the default sphere lattice when that minimizer takes every node or
    none.  seed is recorded in the model and the trace header and changes
    no result: training draws no random numbers.

    A run stops at max_iter, after 5 consecutive updates below tol, or at
    the first redistancing whose field scores above the one before it on
    the sign-pattern energy, the start counting as the first.  reinit_every
    is therefore also the period of that check.  A run from the optimum
    ends at its first redistancing (unless that ties with the start), so it
    takes exactly reinit_every steps: reinit_every is the length of its
    flow, and max_iter only binds below it.  The default of 10 follows from
    dt, which lets the fastest node move at most half a cell per step (less
    where the diffusion limit caps dt): 10 steps refine the optimum's front
    by at most 5 cells.
    """

    beta: float = 1.0
    dt: float = None  # type: ignore[assignment]
    lam: float = None  # type: ignore[assignment]
    eps_h: float = None  # type: ignore[assignment]
    tol: float = 1e-5
    reinit_every: int = 10
    max_iter: int = 2000
    resolution: int = None  # type: ignore[assignment]
    init: InitShape = None  # type: ignore[assignment]
    seed: int = 0
    descent: str = "derivative"

    def __post_init__(self):
        # a number field holds a Python number, so its text depends on the value alone
        for name, parse in CONFIG_PARSERS.items():
            v = getattr(self, name)
            if v is not None and parse in (float, int):
                object.__setattr__(self, name, float(v) if parse is float else operator.index(v))
        check_positive("beta", self.beta)
        for name in ("dt", "lam", "eps_h", "tol"):
            v = getattr(self, name)
            if v is not None and (not math.isfinite(v) or v <= 0):
                if name == "lam" and v == 0.0:
                    continue  # lambda may be switched off entirely
                raise ValueError(f"{name} must be positive, got {v}")
        if self.eps_h is not None and not math.isfinite(self.eps_h * self.eps_h):
            # the impulse's denominator is eps_h**2 + u**2
            raise ValueError(f"eps_h must have a finite square, got {self.eps_h}")
        for name in ("reinit_every", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.resolution is not None and self.resolution < _MIN_CELLS_PER_AXIS:
            raise ValueError(
                f"resolution must be at least {_MIN_CELLS_PER_AXIS} cells per axis"
            )
        if self.descent not in _DESCENTS:
            raise ValueError(f"descent must be one of {_DESCENTS}, got {self.descent!r}")


# TrainConfig field -> parser of its text form, in field order, by annotation
_HINTS = get_type_hints(TrainConfig)
_PARSE = {float: float, int: int, str: str, InitShape: shape_from_text}
CONFIG_PARSERS = {f.name: _PARSE[_HINTS[f.name]] for f in fields(TrainConfig)}


def config_to_text(cfg: TrainConfig) -> dict:
    """Every field of cfg in order, as text: repr for a number, a string as
    is, "none" for None, and the shape code (None is "default") for init."""
    text = {}
    for name, parse in CONFIG_PARSERS.items():
        v = getattr(cfg, name)
        if parse is shape_from_text:
            text[name] = shape_to_text(v)
        elif v is None:
            text[name] = "none"
        else:
            text[name] = v if parse is str else repr(v)
    return text


def config_from_text(text: dict) -> TrainConfig:
    """Inverse of :func:`config_to_text`; a missing field raises KeyError."""
    return TrainConfig(**{
        name: None if text[name] == "none" else parse(text[name])
        for name, parse in CONFIG_PARSERS.items()
    })


class TraceRecord(NamedTuple):
    iteration: int
    energy: float
    max_update: float
    reinit: bool


class _Iterate(NamedTuple):
    """A field of the run, its evaluation, and at a checkpoint, where it was
    redistanced, its sign-pattern energy as score (None elsewhere).  The
    start, checkpoint 0, has only its iteration and score: u None marks it
    as never returned."""

    iteration: int
    u: ScalarField
    energy: float
    fractions: tuple
    score: float


@dataclass
class EvolutionTrace:
    """Per-iteration history of one training run plus resolved settings.

    The diagnostics describe the returned field and the whole run: its
    energy, its largest gradient on the band around its zero set, how
    often the step guard halved dt, the iteration and sign-pattern energy
    of the returned field, how far that energy lies above its exact
    minimum on the grid, and whether the run's last field scored above
    it.  ``phase_seconds`` holds wall times per phase; being timings, they
    stay out of :meth:`to_csv` and out of comparisons.
    """

    records: list[TraceRecord]
    status: str  # "converged" | "max-iter"
    restarted: bool
    final_dt: float
    final_energy: float  # of the returned field, after its last redistancing
    dt_halvings: int
    stationarity_residual: float  # MeasureEnergy.stationarity_residual of the result
    energy_ascent: bool  # the last field's sign-pattern energy is above the returned one's
    best_iteration: int  # the iteration that produced the returned field
    sign_pattern_energy: float  # MeasureEnergy.sign_pattern_energy of the result
    optimality_gap: float  # sign_pattern_energy minus its exact minimum on the grid
    header: dict
    # phase -> seconds: "start", "step", "evaluate" and "reinit" from train,
    # "kde" from fit
    phase_seconds: dict = field(default_factory=dict, compare=False)

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.header.items()]
        # a footer line per diagnostic field, in field order; a float's str
        # is its repr, and a bool is written as 0 or 1
        for f in fields(self):
            if f.name not in ("records", "header", "phase_seconds"):
                value = getattr(self, f.name)
                lines.append(f"# {f.name}={int(value) if isinstance(value, bool) else value}")
        lines.append("iteration,energy,max_update,reinit")
        for r in self.records:
            lines.append(f"{r.iteration},{r.energy!r},{r.max_update!r},{int(r.reinit)}")
        return "\n".join(lines) + "\n"


def resolved_config(cfg: TrainConfig, grid) -> TrainConfig:
    """The config :func:`train` runs on ``grid``, but for dt.

    cfg with unset eps_h and lam from the grid's largest spacing, and as
    resolution the grid's cell count (None when its axes differ), which a
    set resolution must equal (ValueError).  dt stays as set: train sizes
    an unset one on its starting field (:func:`auto_time_step`).
    """
    h, cells = max(grid.spacing), set(grid.resolution)
    res = cells.pop() if len(cells) == 1 else None
    if cfg.resolution not in (None, res):
        raise ValueError(f"resolution {cfg.resolution} disagrees with the grid's "
                         f"cells per axis {grid.resolution}")
    return replace(cfg, eps_h=1.5 * h if cfg.eps_h is None else cfg.eps_h,
                   lam=0.1 * h**2 if cfg.lam is None else cfg.lam, resolution=res)


def auto_time_step(u: ScalarField, e: MeasureEnergy, cfg: TrainConfig) -> float:
    """Half a cell width per unit descent, measured at the starting field,
    and for lam > 0 at most the explicit-diffusion limit 1 / (2 * lam *
    sum(h**-2)).

    Past that limit a step amplifies the grid's checkerboard mode, until
    the step guard rejects one and halves dt.  lam is cfg's, or resolved on
    u's grid as :func:`step` resolves it.
    """
    scale = float(np.abs(e.descent_direction(u, cfg.descent).values).max())
    dt = 1.0 if scale == 0.0 else 0.5 * min(u.grid.spacing) / scale
    lam = cfg.lam if cfg.lam is not None else resolved_config(cfg, u.grid).lam
    if lam > 0.0:
        dt = min(dt, 1.0 / (2.0 * lam * sum(h**-2 for h in u.grid.spacing)))
    return dt


def step(
    u: ScalarField,
    e: MeasureEnergy,
    cfg: TrainConfig,
    dt: float = None,
    fractions: tuple = None,
) -> ScalarField:
    """One explicit update; raises StepRejectedError when the guard trips,
    and ValueError when the update's direction is not finite.

    ``fractions`` are u's (A, B, C) when already known, e.g. from
    ``e.evaluate(u, return_fractions=True)``.  A cfg with lam None is
    resolved on the energy's grid, as :func:`train` resolves it.
    """
    if u.grid != e.pair.grid:
        raise GridMismatchError("field and densities live on different grids")
    if dt is None:
        dt = cfg.dt
    if dt is None:
        raise ValueError("dt is unresolved; pass it explicitly or set cfg.dt")
    # The descent array is fresh, so the update is built in it in place.
    # Neither it nor the Laplacian is checked on its own: a non-finite value
    # in either makes the largest move non-finite, which no smaller dt can
    # mend, and the returned field is checked.
    w = _Unchecked(u.grid, u.values)
    change = e.descent_direction(w, cfg.descent, fractions).values
    lam = cfg.lam if cfg.lam is not None else resolved_config(cfg, u.grid).lam
    if lam != 0.0:
        diffusion = laplacian(w).values
        diffusion *= lam
        change -= diffusion
    # scaling by |dt| is monotone, so it commutes with the max exactly
    worst = max(float(change.max()), -float(change.min()))
    if not math.isfinite(worst):
        raise ValueError("descent and diffusion values must be finite")
    worst *= abs(dt)
    limit = 10.0 * max(u.grid.spacing)
    if worst > limit:
        raise StepRejectedError(
            f"step of {worst:.3e} exceeds {limit:.3e} (10 cell widths)"
        )
    change *= dt
    np.subtract(u.values, change, out=change)
    return u.with_values(change)


def has_sign_change(u: ScalarField) -> bool:
    return bool((u.values >= 0).any() and (u.values < 0).any())


def _axis_crossing_offsets(values: np.ndarray, spacing) -> np.ndarray:
    """Per axis, one slab of ``values.shape``: each node's signed offset along
    that axis to the nearer boundary crossing on its two incident edges (inf
    when neither crosses)."""
    out = np.full((len(spacing),) + values.shape, np.inf)
    for ax, (off, h) in enumerate(zip(out, spacing)):
        lo, hi, cross, t = edge_crossings(values, ax)
        off[lo][cross] = t * h
        # views: writing to them writes through to out
        up = off[hi]
        near, far = up[cross], (1.0 - t) * h
        up[cross] = np.where(far < np.abs(near), -far, near)
    return out


def _nearest_feet(rows: np.ndarray, feet: np.ndarray) -> np.ndarray:
    """Index into ``feet`` (S, d) of the nearest foot of each of the points
    whose rows ``[x, 1]`` (N, d + 1) are given.

    |x - f|^2 = |x|^2 + (-2f . x + |f|^2), and |x|^2 is the same along a row,
    so the row minima of [x, 1] @ [-2f, |f|^2] are the nearest feet.  Rounding
    in that product can only swap feet whose distances agree to about
    eps * |x|^2, so callers centre both sets on the grid and measure the
    distance to the chosen foot directly.
    """
    cols = np.vstack([-2.0 * feet.T, np.einsum("ij,ij->i", feet, feet)])
    out = np.empty(len(rows), dtype=np.intp)
    chunk = max(1, _EXACT_CHUNK // len(feet))
    for i in range(0, len(rows), chunk):
        np.argmin(rows[i:i + chunk] @ cols, axis=1, out=out[i:i + chunk])
    return out


def _tiles(axes: list, feet: np.ndarray):
    """Yield each tile's node slices and the feet that can be nearest to one
    of its nodes.

    Every axis is split evenly into runs of about ``_TILE_NODES ** (1 / d)``
    nodes.  Let ``ub`` be the smallest distance from a foot to the farthest
    point of a tile's box: that foot lies within ``ub`` of every node of the
    tile, so a foot farther than ``ub`` from the whole box is no node's
    nearest.
    """
    side = round(_TILE_NODES ** (1 / len(axes)))
    edges, near, far = [], [], []
    for ax, f in zip(axes, feet.T):
        e = np.linspace(0, len(ax), -(-len(ax) // side) + 1).round().astype(np.intp)
        mid, half = 0.5 * (ax[e[1:] - 1] + ax[e[:-1]]), 0.5 * (ax[e[1:] - 1] - ax[e[:-1]])
        # squared distance from each foot to each run of nodes, farthest and nearest
        a = f - mid[:, None]
        b = np.abs(a, out=a) + half[:, None]
        far.append(np.square(b, out=b))
        a -= half[:, None]
        np.maximum(a, 0.0, out=a)
        near.append(np.square(a, out=a))
        edges.append(e)
    # one row of tiles along the last axis at a time: (tiles, feet) arrays
    for lead in np.ndindex(*(len(e) - 1 for e in edges[:-1])):
        row_near = sum((n[i] for n, i in zip(near, lead)), near[-1])
        ub = sum((r[i] for r, i in zip(far, lead)), far[-1]).min(axis=1, keepdims=True)
        keep = row_near <= ub * (1 + _TILE_SLACK)
        box = tuple(slice(e[i], e[i + 1]) for e, i in zip(edges, lead))
        for j, run in enumerate(zip(edges[-1][:-1], edges[-1][1:])):
            yield box + (slice(*run),), np.compress(keep[j], feet, axis=0)


def _plane_feet(values: np.ndarray, spacing, coords: np.ndarray):
    """Each node's distance to the plane through the zero crossings on its
    edges (inf on a node without any), and the feet (S, d) of the seeds, the
    nodes with such a plane, in C order."""
    with np.errstate(all="ignore"):
        # 0 where no incident edge crosses, inf where the boundary meets the node
        normal = _axis_crossing_offsets(values, spacing)
        np.divide(1.0, normal, out=normal)
        inv = (normal * normal).sum(axis=0)
        plane = 1.0 / np.sqrt(inv)
        seeds = inv > 0
        # the plane through a seed's crossings has normal 1 / offset; its foot
        # lies at x + (1 / offset) / inv, which is x itself on a zero node
        inv, at = inv[seeds], coords[:, seeds]
        feet = normal[:, seeds]
        feet /= inv
        feet += at
        np.copyto(feet, at, where=np.isinf(inv))
    return plane, feet.T


def reinitialize(u: ScalarField) -> ScalarField:
    """Rebuild u as the signed distance to its own zero level set.

    The sign at every node is preserved, so predictions are unchanged.  A
    field without any sign change has no zero set and is returned as is.
    """
    negative = u.values < 0
    if not negative.any() or negative.all():
        return u
    coords = u.grid._nodes
    plane, feet = _plane_feet(u.values, u.grid.spacing, coords)
    free = np.isinf(plane)
    centre = 0.5 * (u.grid.mins + u.grid.maxs)
    feet -= centre
    if u.values.size * len(feet) <= _EXACT_MAX_PAIRS:
        tiles = [((slice(None),) * u.grid.dim, feet)]
    else:
        tiles = _tiles([ax - c for ax, c in zip(u.grid.axes(), centre)], feet)
    dist = plane  # a seed keeps its distance to the plane
    for box, near in tiles:
        todo = free[box]
        # each free node's row [x - centre, 1]: its points are gathered and
        # centred as contiguous (d, n) columns, faster than row by row, and
        # copied into the rows
        points = np.compress(todo.ravel(), coords[(slice(None),) + box].reshape(u.grid.dim, -1),
                             axis=1)
        points -= centre[:, None]
        rows = np.ones((points.shape[1], u.grid.dim + 1))
        rows[:, :-1] = points.T
        gap = points.T - np.take(near, _nearest_feet(rows, near), axis=0)
        dist[box][todo] = np.sqrt(np.einsum("ij,ij->i", gap, gap))
    np.negative(dist, out=dist, where=negative)
    return u.with_values(dist)


def _start(e: MeasureEnergy, cfg: TrainConfig, restarted: bool, optimum, seconds):
    """u and dt from ``cfg.init``, or from the default lattice on the restart.
    With init None, u is +1 on the ``optimum`` mask and -1 off it,
    redistanced, or the default lattice when that has no sign change.  The
    time taken, failed or not, is added to ``seconds``."""
    t0 = time.perf_counter()
    try:
        if restarted or cfg.init is not None:
            u = init_shape(e.pair.grid, SphereLattice() if restarted else cfg.init)
        else:
            u = reinitialize(ScalarField(e.pair.grid, np.where(optimum, 1.0, -1.0)))
            if not has_sign_change(u):
                u = init_shape(e.pair.grid, SphereLattice())
        return u, cfg.dt if cfg.dt is not None else auto_time_step(u, e, cfg)
    finally:
        seconds["start"] += time.perf_counter() - t0


def _settle(u, e, cfg, iteration, checkpoint, seconds) -> _Iterate:
    """Iteration ``iteration``'s field u, redistanced and scored at a
    checkpoint, and evaluated; each phase's time is added to ``seconds``."""
    t0 = time.perf_counter()
    if checkpoint:
        u = reinitialize(u)
    t1 = time.perf_counter()
    energy, fractions = e.evaluate(u, return_fractions=True)
    seconds["reinit"] += t1 - t0
    seconds["evaluate"] += time.perf_counter() - t1
    score = e.sign_pattern_energy(u, cfg.descent) if checkpoint else None
    return _Iterate(iteration, u, energy, fractions, score)


def train(pair: DensityPair, cfg: TrainConfig = None, measure: str = "f_measure"):
    """Evolve a decision field to a minimizer of the ``measure`` energy of
    ``pair``, built from cfg with its unset eps_h and lam resolved.

    Returns (TrainedClassifier, EvolutionTrace).  Hitting max_iter is
    reported in the trace status, never raised.  The classifier holds the
    final field or the trained checkpoint before it, whichever scores lower on the
    sign-pattern energy of the objective ``cfg.descent`` minimizes (the
    final field wins a tie).  The start is scored as checkpoint 0, which
    the first redistanced field is compared with, and is never held.  With
    ``cfg.init`` None the run starts at that energy's exact minimizer (see
    :func:`_start`), so it ends at its first redistancing unless that ties
    with the start.  If the positive
    region loses all its density mass, at the start or in an iteration, the
    run restarts once from the default sphere lattice, keeping its records
    and forgetting its checkpoints; the lattice is the new checkpoint 0.  A
    second loss, or one at the closing checkpoint, is raised.
    The model and trace header record the resolved config with the first
    start's dt.
    """
    from .classifier import TrainedClassifier, density_fingerprint

    if min(pair.grid.resolution) < _MIN_CELLS_PER_AXIS:
        raise ValueError(f"training needs at least {_MIN_CELLS_PER_AXIS} cells per axis")
    cfg = resolved_config(TrainConfig() if cfg is None else cfg, pair.grid)
    e = MeasureEnergy(pair, eps=cfg.eps_h, kind=measure, beta=cfg.beta)
    snapshot = None  # the settings this run optimises, as steps, model and trace read them
    records: list[TraceRecord] = []
    status = "max-iter"
    restarted = False
    u = None  # no field before the start, nor after the positive mass vanished
    dt_halvings = 0
    seconds = {"start": 0.0, "step": 0.0, "evaluate": 0.0, "reinit": 0.0}
    t0 = time.perf_counter()
    optimum = e._optimum_mask(cfg.descent)
    seconds["start"] += time.perf_counter() - t0
    while len(records) < cfg.max_iter:
        it = len(records) + 1
        try:
            if u is None:
                u, dt = _start(e, cfg, restarted, optimum, seconds)
                if snapshot is None:
                    snapshot = replace(cfg, dt=dt)
                fractions = None  # (A, B, C) of u once its evaluate has run
                consecutive = 0
                # the last checkpoint; the start is checkpoint 0, scored but never kept
                prev = _Iterate(it - 1, None, None, None, e.sign_pattern_energy(u, cfg.descent))
            t0 = time.perf_counter()
            halvings = 0
            while True:
                try:
                    u_new = step(u, e, snapshot, dt, fractions)
                    break
                except StepRejectedError:
                    halvings += 1
                    if halvings > _MAX_DT_HALVINGS:
                        raise
                    dt *= 0.5
                    dt_halvings += 1
            max_update = float(np.abs(u_new.values - u.values).max())
            seconds["step"] += time.perf_counter() - t0
            cur = _settle(u_new, e, cfg, it, it % cfg.reinit_every == 0, seconds)
        except VanishingPositiveMassError:
            if restarted:
                raise
            restarted, u = True, None
            continue
        u, fractions = cur.u, cur.fractions
        records.append(TraceRecord(it, cur.energy, max_update, cur.score is not None))
        if cur.score is not None:
            if cur.score > prev.score:
                status = "converged"
                break
            prev = cur
        consecutive = consecutive + 1 if max_update < cfg.tol else 0
        if consecutive >= _CONSECUTIVE_FOR_CONVERGENCE:
            status = "converged"
            break
    # the run ends on a checkpoint: its last iteration's or a closing one
    last = cur if cur.score is not None else _settle(u, e, cfg, it, True, seconds)
    kept = prev if prev.u is not None and prev.score < last.score else last
    k = "none" if e.k is None else repr(e.k)
    trace = EvolutionTrace(
        records, status, restarted, dt, kept.energy,
        dt_halvings=dt_halvings,
        stationarity_residual=e.stationarity_residual(kept.u, kept.fractions),
        energy_ascent=kept is not last,
        best_iteration=kept.iteration,
        sign_pattern_energy=kept.score,
        optimality_gap=kept.score - e._mask_energy(optimum, cfg.descent),
        header={"measure": e.kind, "k": k, **config_to_text(snapshot)},
        phase_seconds=seconds,
    )
    model = TrainedClassifier(
        u=kept.u,
        kind=e.kind,
        beta=e.beta,
        k=e.k,
        config=snapshot,
        densities_hash=density_fingerprint(pair),
        degenerate=not has_sign_change(kept.u),
    )
    return model, trace
