"""Training loop for the level-set classifier.

The decision field evolves by explicit descent steps

    u <- u - dt * (descent_direction - lambda * laplacian(u))

with a CFL-like guard (a step moving any node by more than 10 cell widths
is rejected and dt halved), periodic rebuilding of u as a signed distance
function, and convergence declared when the sup-norm update stays below
tol for 5 consecutive iterations.

Reinitialization is a closest-point transform.  It locates the zero
crossings exactly on grid edges and gives each node next to one (a seed)
a foot point: the nearest point of the plane through its crossings.
Every other node then takes the distance to the nearest of those feet,
found by one of two searches:

- an exhaustive search, which compares each node with every foot through
  one small matrix product per chunk of nodes and is exact; its cost grows
  with nodes x seeds;
- jump flooding, which offers each node the feet of its neighbours at
  halving strides; it costs O(N log N) for N nodes, but can settle up to a
  fifth of a cell farther than the nearest foot.

The exhaustive search runs up to ``_EXACT_MAX_PAIRS`` (nodes x seeds):
there it is exact and also faster, because the flood's many small numpy
passes cost more than the product.  Above it the flood runs, whose cost
does not grow with the seeds.  The sign of u is preserved at every node,
so the classifier is unchanged.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .density import DensityPair
from .energy import MeasureEnergy
from .errors import (
    GridMismatchError,
    StepRejectedError,
    VanishingPositiveMassError,
)
from .field import (
    InitShape,
    ScalarField,
    SphereLattice,
    init_shape,
    laplacian,
)
from .metrics import check_beta

_CONSECUTIVE_FOR_CONVERGENCE = 5
# the trace flags an energy ascent when the returned field's energy is above
# the lowest recorded one by more than this fraction of it
_ASCENT_MARGIN = 1e-3
_MAX_DT_HALVINGS = 80
_MIN_CELLS_PER_AXIS = 4
# reinitialize searches all (nodes x seeds) pairs up to this many and jump
# floods above.  Median ms of one call on 2 cores, search and flood:
#   2-D  65^2, fit2d fields,    1-4M pairs:    2.0-4.4    5.7-6.6
#   2-D  33^2, cv fields,       0.2M pairs:    0.5-1.2    1.6-6.0
#   2-D 129^2, sine fields,    19.6M pairs:   15         24
#                              42.6M pairs:   34         22
#   3-D  25^3, sine fields,    40.1M pairs:   32         43
#                              91.7M pairs:   47         38
#   3-D  33^3, sine fields,     160M pairs:  122        152
#                               368M pairs:  234        119
#   3-D  33^3, fit3d fields, 25-42M pairs:   28-38     109-124
# The break-even count grows with the grid, since the flood's cost per node
# grows with log N and the search's with the seeds alone; a constant at the
# smallest break-even measured keeps the search off the grids where it loses.
_EXACT_MAX_PAIRS = 1 << 24
# elements of the (nodes x feet) product formed at a time
_EXACT_CHUNK = 1 << 16


def default_resolution(dim: int) -> int:
    """Per-axis cell count giving a workable grid at each dimension."""
    return {1: 1024, 2: 128, 3: 64}.get(dim, 16)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    dt, lam and eps_h default to None, meaning: resolve from the grid
    (lam = 0.1 * max spacing squared, eps_h = 1.5 * max spacing) and from
    the initial descent direction (dt = 0.5 * min spacing / max |descent|).
    resolution=None picks the per-dimension default.  init=None starts
    from the default sphere lattice.
    """

    beta: float = 1.0
    dt: float = None  # type: ignore[assignment]
    lam: float = None  # type: ignore[assignment]
    eps_h: float = None  # type: ignore[assignment]
    tol: float = 1e-5
    reinit_every: int = 50
    max_iter: int = 2000
    resolution: int = None  # type: ignore[assignment]
    init: InitShape = None  # type: ignore[assignment]
    seed: int = 0
    descent: str = "derivative"

    def __post_init__(self):
        check_beta(self.beta)
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
        if self.descent not in ("derivative", "G"):
            raise ValueError(f"descent must be 'derivative' or 'G', got {self.descent!r}")


class TraceRecord(NamedTuple):
    iteration: int
    energy: float
    max_update: float
    reinit: bool


@dataclass
class EvolutionTrace:
    """Per-iteration history of one training run plus resolved settings.

    The diagnostics describe the returned field and the whole run: its
    energy, its largest gradient on the band around its zero set, how
    often the step guard halved dt, and whether the energy ended above
    the run's lowest recorded energy.
    """

    records: list[TraceRecord]
    status: str  # "converged" | "max-iter"
    restarted: bool
    final_dt: float
    final_energy: float  # of the returned field, after its last redistancing
    dt_halvings: int
    stationarity_residual: float  # MeasureEnergy.stationarity_residual of the result
    energy_ascent: bool  # final_energy above the lowest record's by > _ASCENT_MARGIN
    header: dict

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.header.items()]
        lines.append(f"# status={self.status}")
        lines.append(f"# restarted={int(self.restarted)}")
        lines.append(f"# final_dt={self.final_dt!r}")
        lines.append(f"# final_energy={self.final_energy!r}")
        lines.append(f"# dt_halvings={self.dt_halvings}")
        lines.append(f"# stationarity_residual={self.stationarity_residual!r}")
        lines.append(f"# energy_ascent={int(self.energy_ascent)}")
        lines.append("iteration,energy,max_update,reinit")
        for r in self.records:
            lines.append(f"{r.iteration},{r.energy!r},{r.max_update!r},{int(r.reinit)}")
        return "\n".join(lines) + "\n"


def resolved_lambda(cfg: TrainConfig, grid) -> float:
    if cfg.lam is not None:
        return cfg.lam
    return 0.1 * max(grid.spacing) ** 2


def auto_time_step(u: ScalarField, e: MeasureEnergy, cfg: TrainConfig) -> float:
    """Half a cell width per unit descent, measured at the starting field."""
    scale = float(np.abs(e.descent_direction(u, cfg.descent).values).max())
    if scale == 0.0:
        return 1.0
    return 0.5 * min(u.grid.spacing) / scale


def step(
    u: ScalarField,
    e: MeasureEnergy,
    d: DensityPair,
    cfg: TrainConfig,
    dt: float = None,
    fractions: tuple = None,
) -> ScalarField:
    """One explicit update; raises StepRejectedError when the guard trips.

    ``fractions`` are u's (A, B, C) when already known, e.g. from
    ``e.evaluate(u, return_fractions=True)``.
    """
    if u.grid != d.grid:
        raise GridMismatchError("field and densities live on different grids")
    if dt is None:
        dt = cfg.dt
    if dt is None:
        raise ValueError("dt is unresolved; pass it explicitly or set cfg.dt")
    # the descent array is fresh, so the update is built in it in place
    change = e.descent_direction(u, cfg.descent, fractions).values
    lam = resolved_lambda(cfg, u.grid)
    if lam != 0.0:
        diffusion = laplacian(u).values
        diffusion *= lam
        change -= diffusion
    change *= dt
    limit = 10.0 * max(u.grid.spacing)
    worst = max(float(change.max()), -float(change.min()))
    if worst > limit:
        raise StepRejectedError(
            f"step of {worst:.3e} exceeds {limit:.3e} (10 cell widths)"
        )
    np.subtract(u.values, change, out=change)
    return u.with_values(change)


def has_sign_change(u: ScalarField) -> bool:
    return bool((u.values >= 0).any() and (u.values < 0).any())


def _axis_crossing_offsets(values: np.ndarray, spacing) -> list[np.ndarray]:
    """Per axis: each node's signed offset along that axis to the nearer
    zero crossing on its two incident edges (inf when neither edge crosses)."""
    out = []
    for ax in range(values.ndim):
        lo = [slice(None)] * values.ndim
        hi = [slice(None)] * values.ndim
        lo[ax], hi[ax] = slice(None, -1), slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        a, b = values[lo], values[hi]
        cross = ((a > 0) != (b > 0)) | (a == 0) | (b == 0)
        t = np.divide(a, a - b, out=np.zeros_like(a), where=a != b)
        h = spacing[ax]
        far = np.where(b == 0, 0.0, (1.0 - t) * h)
        off = np.full(values.shape, np.inf)
        off[lo] = np.where(cross, t * h, np.inf)
        up = off[hi]
        off[hi] = np.where(cross & (far < np.abs(up)), -far, up)
        out.append(off)
    return out


@functools.lru_cache(maxsize=64)
def _flood_slices(shape: tuple, step: int) -> tuple:
    """Index tuples of every non-zero offset in {-step, 0, step}^d that fits the grid.

    Each entry is (dst, foot_dst, foot_src): the nodes that receive, and
    the receiving and offering nodes with the leading coordinate axis of
    ``foot`` and ``coords`` kept whole.
    """
    out = []
    for off in np.ndindex(*(3,) * len(shape)):
        shifts = [(o - 1) * step for o in off]
        if not any(shifts) or any(abs(k) >= n for k, n in zip(shifts, shape)):
            continue
        dst = tuple(slice(max(0, -k), n - max(0, k)) for k, n in zip(shifts, shape))
        src = tuple(slice(max(0, k), n - max(0, -k)) for k, n in zip(shifts, shape))
        out.append((dst, (slice(None),) + dst, (slice(None),) + src))
    return tuple(out)


def _flood_pass(foot, d2, coords, free, step: int) -> bool:
    """Offer every node the feet of its neighbours at offsets in {-step, 0, step}^d.

    A free node adopts a neighbour's foot when that foot is strictly
    closer; ``foot`` and ``d2`` are updated in place.  Returns whether any
    node changed.
    """
    changed = False
    for dst, foot_dst, foot_src in _flood_slices(d2.shape, step):
        offered = foot[foot_src]
        diff = coords[foot_dst] - offered
        diff *= diff
        cand = diff.sum(axis=0)
        better = cand < d2[dst]
        better &= free[dst]
        if better.any():
            changed = True
            np.copyto(d2[dst], cand, where=better)
            np.copyto(foot[foot_dst], offered, where=better)
    return changed


def _nearest_feet(points: np.ndarray, feet: np.ndarray) -> np.ndarray:
    """Index into ``feet`` (S, d) of the nearest foot of each of ``points`` (N, d).

    |x - f|^2 = |x|^2 + (-2f . x + |f|^2), and |x|^2 is the same along a row,
    so the row minima of [x, 1] @ [-2f, |f|^2] are the nearest feet.  Rounding
    in that product can only swap feet whose distances agree to about
    eps * |x|^2, so callers centre both sets on the grid and measure the
    distance to the chosen foot directly.
    """
    rows = np.hstack([points, np.ones((len(points), 1))])
    cols = np.vstack([-2.0 * feet.T, np.einsum("ij,ij->i", feet, feet)])
    out = np.empty(len(points), dtype=np.intp)
    chunk = max(1, _EXACT_CHUNK // len(feet))
    for i in range(0, len(points), chunk):
        np.argmin(rows[i:i + chunk] @ cols, axis=1, out=out[i:i + chunk])
    return out


def reinitialize(u: ScalarField) -> ScalarField:
    """Rebuild u as the signed distance to its own zero level set.

    The sign at every node is preserved, so predictions are unchanged.  A
    field without any sign change has no zero set and is returned as is.
    """
    if not has_sign_change(u):
        return u
    coords = np.stack(u.grid.mesh())
    with np.errstate(all="ignore"):
        # 0 where no incident edge crosses, inf on a node where u is zero
        recip = np.stack([1.0 / o for o in _axis_crossing_offsets(u.values, u.grid.spacing)])
        inv = (recip * recip).sum(axis=0)
        plane = 1.0 / np.sqrt(inv)
        # the plane through a seed's crossings has normal recip; its foot
        # lies at x + recip / inv, which is x itself on a zero node
        foot = np.where(np.isinf(inv), coords, coords + recip / inv)
    seed = inv > 0
    free = ~seed
    if u.values.size * np.count_nonzero(seed) <= _EXACT_MAX_PAIRS:
        centre = 0.5 * (u.grid.mins + u.grid.maxs)
        points = coords[:, free].T - centre
        feet = foot[:, seed].T - centre
        gap = points - feet[_nearest_feet(points, feet)]
        dist = plane  # inf on the free nodes until they are filled in
        dist[free] = np.sqrt(np.einsum("ij,ij->i", gap, gap))
    else:
        foot[:, free] = np.inf
        d2 = np.where(seed, plane * plane, np.inf)
        step = 1 << max(0, (max(d2.shape) - 1).bit_length() - 1)
        while step > 1:
            _flood_pass(foot, d2, coords, free, step)
            step //= 2
        while _flood_pass(foot, d2, coords, free, 1):
            pass
        dist = np.where(seed, plane, np.sqrt(d2))
    return u.with_values(np.where(u.values >= 0, dist, -dist))


def train(d: DensityPair, e: MeasureEnergy, cfg: TrainConfig):
    """Evolve a decision field to a minimizer of the energy.

    Returns (TrainedClassifier, EvolutionTrace).  Hitting max_iter is
    reported in the trace status, never raised.  If the positive region
    loses all its density mass, training restarts once from the default
    sphere lattice before giving up.
    """
    from .classifier import TrainedClassifier, density_fingerprint

    grid = d.grid
    if min(grid.resolution) < _MIN_CELLS_PER_AXIS:
        raise ValueError(
            f"training needs at least {_MIN_CELLS_PER_AXIS} cells per axis"
        )
    lam = resolved_lambda(cfg, grid)
    restarted = False

    def fresh_start(init):
        u0 = init_shape(grid, init)
        return u0, cfg.dt if cfg.dt is not None else auto_time_step(u0, e, cfg)

    try:
        u, dt = fresh_start(cfg.init)
    except VanishingPositiveMassError:
        restarted = True
        u, dt = fresh_start(SphereLattice())
    dt0 = dt
    header = {
        "beta": repr(cfg.beta),
        "k": repr(e.k) if e.kind == "f_measure" else "",
        "measure": e.kind,
        "descent": cfg.descent,
        "dt": repr(dt),
        "lambda": repr(lam),
        "eps_h": repr(e.eps),
        "tol": repr(cfg.tol),
        "reinit_every": cfg.reinit_every,
        "max_iter": cfg.max_iter,
        "seed": cfg.seed,
    }

    records: list[TraceRecord] = []
    status = "max-iter"
    consecutive = 0
    dt_halvings = 0
    it = 0
    fractions = None  # (A, B, C) of u once its evaluate has run
    while it < cfg.max_iter:
        it += 1
        try:
            halvings = 0
            while True:
                try:
                    u_new = step(u, e, d, cfg, dt, fractions)
                    break
                except StepRejectedError:
                    halvings += 1
                    if halvings > _MAX_DT_HALVINGS:
                        raise
                    dt *= 0.5
                    dt_halvings += 1
            max_update = float(np.abs(u_new.values - u.values).max())
            did_reinit = it % cfg.reinit_every == 0
            u = reinitialize(u_new) if did_reinit else u_new
            energy_val, fractions = e.evaluate(u, return_fractions=True)
        except VanishingPositiveMassError:
            if restarted:
                raise
            restarted = True
            u, dt = fresh_start(SphereLattice())
            fractions = None
            consecutive = 0
            it -= 1
            continue
        records.append(TraceRecord(it, energy_val, max_update, did_reinit))
        consecutive = consecutive + 1 if max_update < cfg.tol else 0
        if consecutive >= _CONSECUTIVE_FOR_CONVERGENCE:
            status = "converged"
            break
    final_energy = records[-1].energy
    if not records[-1].reinit:  # the last iteration may have redistanced already
        u = reinitialize(u)
        final_energy, fractions = e.evaluate(u, return_fractions=True)
    lowest = min(r.energy for r in records)
    trace = EvolutionTrace(
        records, status, restarted, dt, final_energy,
        dt_halvings=dt_halvings,
        stationarity_residual=e.stationarity_residual(u, fractions),
        energy_ascent=final_energy - lowest > _ASCENT_MARGIN * abs(lowest),
        header=header,
    )
    snapshot = replace(cfg, dt=dt0, lam=lam, eps_h=e.eps)
    model = TrainedClassifier(
        u=u,
        kind=e.kind,
        beta=e.beta,
        k=e.k if e.kind == "f_measure" else None,
        config=snapshot,
        densities_hash=density_fingerprint(d),
        degenerate=not has_sign_change(u),
    )
    return model, trace
