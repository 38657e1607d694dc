"""Gaussian-kernel density estimates evaluated on grids.

Estimates are binned (Wand 1994; Fan & Marron 1994).  Each sample spreads
its unit weight over the 2^d corners of its cell of a bin lattice with
linear weights, and the bin counts are smoothed by one (nodes x bins)
Gaussian matrix per axis.  Along an axis with node spacing h and bandwidth
bw the lattice spacing is g = max(h / ceil(h / bw), bw / 2), so
bw / 2 <= g <= bw.  The lattice reaches 8 bandwidths past the grid on each
side; a sample farther out would put less than 1e-15 of its mass on the
grid and is dropped.  Linear binning adds g^2 / 6 to a sample's variance on
average, so the smoothing kernel's standard deviation is
sqrt(bw^2 - g^2 / 6).  Against the exact sum of every sample's product
kernel at every node, the largest error is 0.6 % of the density's maximum
on db1-db4 at 32^2 and 64^2 cells and on a 3-D torus at 32^3.  The
binning scatters through the multilinear cell map that interpolation
gathers through, with one ``np.bincount`` per cell corner.

A bandwidth below a quarter cell is widened to a quarter cell.  A narrower
kernel falls between the nodes, so what the nodes see of it depends on
where its sample sits between them more than on the data, and the lattice
would need more than 4 bins per cell.  With at most 4 bins per cell and 17
bins of padding per side, each axis of the lattice stays within a small
multiple of its node count however narrow or wide the kernel is.  Their
product need not: 200 normal samples in 5-D at 4 cells per axis (3,125
nodes) give 31-39 bins per axis, a lattice of 36-54 M bins.

Grid densities are renormalized to unit mass under the grid's own
trapezoidal quadrature, which keeps downstream count identities exact.

A :class:`DensityPair` is frozen and holds read-only copies of its
densities.  What every energy on it reads (the quadrature-weighted stack,
which scores node sets, the stacked densities, which build flows, and the
fingerprint) it builds once, on first use, and caches, so the betas
trained on one pair share that work and the cache cannot go stale.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import DegenerateDataError, EmptyMassError, GridMismatchError
from .field import (
    GridSpec,
    ScalarField,
    _cell_corners,
    _quadrature_weights,
    _read_only,
    integrate,
)

_REACH = 8.0  # bandwidths past the grid that the bin lattice extends
_MIN_BW_CELLS = 0.25  # narrowest kernel, in cells of its axis
_MAX_BANDWIDTH = math.sqrt(np.finfo(float).max)  # widest whose square is finite


@dataclass
class KdeModel:
    """Samples plus one Gaussian bandwidth per axis (a scalar serves every axis)."""

    samples: np.ndarray
    bandwidth: np.ndarray

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        bw = np.asarray(self.bandwidth, dtype=float)
        self.bandwidth = np.broadcast_to(bw, (self.dim,)).copy()
        _check_bandwidth(self.bandwidth, DegenerateDataError)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def _check_bandwidth(bandwidth, error=ValueError) -> None:
    """Raise ``error`` unless every bandwidth is positive and finite, with a
    finite square: the lattice takes bw**2."""
    bw = np.asarray(bandwidth, dtype=float)
    if not ((bw > 0) & (bw <= _MAX_BANDWIDTH)).all():
        raise error(f"bandwidth must be positive and finite, with a finite square; got {bw}")


def fit_kde(samples: np.ndarray, bandwidth=None) -> KdeModel:
    """Fit a product-Gaussian KDE.

    ``bandwidth`` may be None (Scott's rule per axis: sample std times
    ``m ** (-1 / (d + 4))``), a scalar, or one value per axis.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.ndim != 2 or len(pts) < 2:
        raise DegenerateDataError("KDE needs at least 2 samples")
    if not np.isfinite(pts).all():
        raise DegenerateDataError("KDE samples must be finite")
    m, d = pts.shape
    if bandwidth is None:
        # a spread that overflows gives a bandwidth that KdeModel refuses
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = np.ascontiguousarray(pts.T).std(axis=1, ddof=1)
        if (sigma == 0).any():
            raise DegenerateDataError(
                "zero variance along an axis; pass an explicit bandwidth"
            )
        bandwidth = sigma * m ** (-1.0 / (d + 4))
    return KdeModel(pts, bandwidth)


def _axis_lattice(lo: float, hi: float, h: float, bw: float):
    """Bin positions and spacing along one axis, and the smoothing kernel's std."""
    bw = max(bw, _MIN_BW_CELLS * h)
    g = max(h / np.ceil(h / bw), bw / 2)
    half = int(np.ceil(((hi - lo) / 2 + _REACH * bw) / g))
    # centred on the grid, so a mirrored grid gets the mirrored lattice
    bins = (lo + hi) / 2 + g * np.arange(-half, half + 1)
    return bins, g, np.sqrt(bw**2 - g**2 / 6)


def density_on_grid(model: KdeModel, grid: GridSpec) -> ScalarField:
    """Estimate the KDE at every node and renormalize to unit grid mass."""
    if grid.dim != model.dim:
        raise GridMismatchError(
            f"grid is {grid.dim}-D but the KDE has {model.dim}-D samples"
        )
    m = len(model.samples)
    inside = np.ones(m, dtype=bool)
    cells, lattice_shape, smoothers = [], [], []
    for i, ax in enumerate(grid.axes()):
        bins, g, std = _axis_lattice(*grid.bounds[i], grid.spacing[i], model.bandwidth[i])
        t = (model.samples[:, i] - bins[0]) / g
        inside &= (t >= 0) & (t <= len(bins) - 1)
        cells.append(t)
        lattice_shape.append(len(bins))
        z = (ax[:, None] - bins[None, :]) / std
        smoothers.append(np.exp(-0.5 * z**2) / (std * np.sqrt(2 * np.pi)))
    counts = np.zeros(lattice_shape)
    flat = counts.reshape(-1)
    # linear binning: each sample's unit weight split over its cell's corners
    for index, weight in _cell_corners([t[inside] for t in cells], lattice_shape):
        flat += np.bincount(index, weight, minlength=flat.size)
    # contracting the leading axis each time leaves the node axes in order
    vals = counts
    for k in smoothers:
        vals = np.tensordot(vals, k, axes=([0], [1]))
    vals /= m
    f = ScalarField(grid, vals)
    mass = integrate(f)
    if mass < 1e-12:
        lo, hi = grid.mins, grid.maxs
        if ((model.samples >= lo) & (model.samples <= hi)).all():
            cause = (f"the bandwidth {model.bandwidth} is far wider than the grid "
                     f"({hi - lo} across)")
        else:
            cause = "samples fall outside the bounds"
        raise EmptyMassError(f"density mass {mass:g} on the grid; {cause}")
    return ScalarField(grid, vals / mass)


@dataclass(frozen=True)
class DensityPair:
    """Per-class grid densities plus the class counts that scale them.

    The pair keeps read-only copies of both densities' values, so the
    arrays it derives from them and caches can never disagree with them.
    """

    f_pos: ScalarField
    f_neg: ScalarField
    p_count: int
    n_count: int

    def __post_init__(self):
        if self.f_pos.grid != self.f_neg.grid:
            raise GridMismatchError("class densities live on different grids")
        if self.p_count <= 0 or self.n_count <= 0:
            raise ValueError("class counts must be positive")
        for name in ("f_pos", "f_neg"):
            f = getattr(self, name)
            object.__setattr__(self, name, ScalarField(f.grid, _read_only(f.values.copy())))

    @property
    def grid(self) -> GridSpec:
        return self.f_pos.grid

    # built once per pair: each beta trained on it reads them
    @functools.cached_property
    def _weighted(self) -> np.ndarray:
        """The quadrature-weighted densities, rows (f+, f-) flattened:
        region masses are one product with it."""
        w = _quadrature_weights(self.grid)
        return _read_only(np.stack([self.f_pos.values * w, self.f_neg.values * w]).reshape(2, -1))

    @functools.cached_property
    def _half_mass(self) -> tuple:
        """Half the total of each row of :attr:`_weighted`."""
        return tuple((0.5 * self._weighted.sum(axis=1)).tolist())

    @functools.cached_property
    def _stacked(self) -> np.ndarray:
        """The densities, rows (f-, f+) flattened: a flow's numerator is one
        product with (1, q)."""
        return _read_only(np.stack([self.f_neg.values, self.f_pos.values]).reshape(2, -1))

    @functools.cached_property
    def _fingerprint(self) -> str:
        """sha256 over the grid, both density arrays, and the class counts."""
        h = hashlib.sha256()
        h.update(repr(self.grid).encode())
        h.update(self.f_pos.values.tobytes())
        h.update(self.f_neg.values.tobytes())
        h.update(f"{self.p_count!r},{self.n_count!r}".encode())
        return h.hexdigest()


def estimate_pair(data: LabeledDataset, grid: GridSpec, bandwidth=None) -> DensityPair:
    """KDE both classes of ``data`` on ``grid``.

    ``bandwidth`` applies to both classes (None keeps per-class Scott's
    rule).  Failures are re-raised with the offending class named.
    """
    fields = {}
    for name, pts in (("positive", data.positives()), ("negative", data.negatives())):
        try:
            fields[name] = density_on_grid(fit_kde(pts, bandwidth), grid)
        except (DegenerateDataError, EmptyMassError) as exc:
            raise type(exc)(f"{name} class: {exc}") from None
    return DensityPair(fields["positive"], fields["negative"], data.n_pos, data.n_neg)
