"""Datasets: synthetic generators, CSV/skin ingestion, fold splitting.

Synthetic generator parameters are frozen constants so that every figure
and experiment is reproducible from a seed alone.  The four 2-D databases
share one negative class (an isotropic unit Gaussian at the origin) and
differ in positive-class geometry and imbalance:

==  =========================================================  ============
id  positive class                                             sizes (+/-)
==  =========================================================  ============
1   ring, radius 2.0, radial noise 0.5                         5000 / 5000
2   three Gaussian modes interleaved with the negative modes   1000 / 10000
3   half-annulus (horseshoe), radius 3.0, thickness 0.5        1000 / 10000
4   ring as in 1                                               1000 / 10000
==  =========================================================  ============

Database 2 uses unit-variance modes on alternating sites of a 3x2 lattice
with spacing 3; its negative class is the three remaining sites instead of
the shared origin Gaussian.

Points are ``(n, d)`` arrays: n is large and d small.  numpy walks such an
array one d-element row at a time in a reduction over axis 0, a boolean or
integer index along axis 0, and elementwise work against a ``(d,)`` row, at
several times the cost of the same work on whole columns.  So the library
selects rows with ``np.compress`` and ``np.take``, and does per-feature
reductions and elementwise work on the contiguous ``(d, n)`` columns
``np.ascontiguousarray(points.T)``, where a sum over one column is also a
pairwise sum.  For d = 1 the columns are a view of the points, so code that
writes to them copies them first.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientClassError,
    InvalidDatabaseError,
    NonFiniteError,
    ParseError,
)

TOY_POS_MEAN = 3.0
TOY_NEG_MEAN = 1.0
TOY_SIGMA = 1.0
TOY_POS_COUNT = 1000
TOY_NEG_COUNT = 50000

RING_RADIUS = 2.0
RING_SIGMA = 0.5
DB2_SPACING = 3.0
DB2_SIGMA = 1.0
DB2_NEG_SITES = ((0.0, 0.0), (2.0, 0.0), (1.0, 1.0))  # in lattice units
DB2_POS_SITES = ((1.0, 0.0), (0.0, 1.0), (2.0, 1.0))
HORSESHOE_RADIUS = 3.0
HORSESHOE_THICKNESS = 0.5

SKIN_EXPECTED_COUNTS = (50859, 194198)  # (positive/skin, negative/non-skin)


@dataclass
class LabeledDataset:
    """Points ``(n, d)`` with boolean labels (True marks the positive class)."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        labels = np.asarray(self.labels, dtype=bool)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if labels.shape != (len(pts),):
            raise ValueError("labels length does not match points")
        if not np.isfinite(pts).all():
            raise NonFiniteError("points must be finite")
        self.points = pts
        self.labels = labels

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_pos(self) -> int:
        return int(self.labels.sum())

    @property
    def n_neg(self) -> int:
        return int(len(self.labels) - self.labels.sum())

    def positives(self) -> np.ndarray:
        return np.compress(self.labels, self.points, axis=0)

    def negatives(self) -> np.ndarray:
        return np.compress(~self.labels, self.points, axis=0)

    def subset(self, idx) -> "LabeledDataset":
        """The points and labels that ``idx`` selects as an index of the labels."""
        # the row numbers numpy's indexing selects: a mask becomes its True
        # rows, which np.take would read as the indices 0 and 1
        rows = np.arange(len(self.labels))[idx]
        return LabeledDataset(np.take(self.points, rows, axis=0), self.labels[rows])


def _shuffled(points, labels, rng) -> LabeledDataset:
    order = rng.permutation(len(labels))
    return LabeledDataset(np.take(points, order, axis=0), labels[order])


def gen_toy1d(seed: int = 0) -> LabeledDataset:
    """Two overlapping 1-D Gaussians with a 1:50 class imbalance."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(TOY_POS_MEAN, TOY_SIGMA, size=(TOY_POS_COUNT, 1))
    neg = rng.normal(TOY_NEG_MEAN, TOY_SIGMA, size=(TOY_NEG_COUNT, 1))
    points = np.vstack([pos, neg])
    labels = np.arange(len(points)) < len(pos)
    return _shuffled(points, labels, rng)


def _ring(rng, count):
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    radius = RING_RADIUS + rng.normal(0.0, RING_SIGMA, size=count)
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def _horseshoe(rng, count):
    theta = rng.uniform(0.0, np.pi, size=count)
    radius = HORSESHOE_RADIUS + rng.uniform(
        -0.5 * HORSESHOE_THICKNESS, 0.5 * HORSESHOE_THICKNESS, size=count
    )
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


def _modes(rng, sites, count):
    centers = DB2_SPACING * np.asarray(sites)
    which = rng.integers(0, len(centers), size=count)
    return centers[which] + rng.normal(0.0, DB2_SIGMA, size=(count, 2))


def gen_db(which: int, seed: int = 0) -> LabeledDataset:
    """One of the four synthetic 2-D databases described in the module docs."""
    rng = np.random.default_rng(seed)
    if which == 1:
        pos = _ring(rng, 5000)
        neg = rng.normal(0.0, 1.0, size=(5000, 2))
    elif which == 2:
        pos = _modes(rng, DB2_POS_SITES, 1000)
        neg = _modes(rng, DB2_NEG_SITES, 10000)
    elif which == 3:
        pos = _horseshoe(rng, 1000)
        neg = rng.normal(0.0, 1.0, size=(10000, 2))
    elif which == 4:
        pos = _ring(rng, 1000)
        neg = rng.normal(0.0, 1.0, size=(10000, 2))
    else:
        raise InvalidDatabaseError(f"unknown database id {which!r} (expected 1..4)")
    points = np.vstack([pos, neg])
    labels = np.arange(len(points)) < len(pos)
    return _shuffled(points, labels, rng)


def _read_table(path, drop_column=None):
    """Numeric CSV rows as an ``(n, d)`` array, plus the cells of ``drop_column``.

    Blank rows are skipped and every row must be as wide as the first.
    Every cell outside ``drop_column`` must be a number, except in a first
    row that fails to parse: that row is a header and is skipped.
    """
    rows = []
    with open(path, newline="") as fh:
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if any(c.strip() for c in row):
                    rows.append((lineno, [c.strip() for c in row]))
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0][1])
    keep = list(range(width))
    if drop_column is not None:
        if width < 2:
            raise ParseError(f"{path}: need at least one feature and a label column")
        if not -width <= drop_column < width:
            raise ParseError(f"{path}: label column {drop_column} out of range")
        del keep[drop_column]
    points, dropped = [], []
    for pos, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            points.append([float(row[i]) for i in keep])
        except ValueError:
            if pos == 0:
                continue  # header row
            raise ParseError(f"{path}:{lineno}: non-numeric feature") from None
        if drop_column is not None:
            dropped.append(row[drop_column])
    if not points:
        raise ParseError(f"{path}: no data rows")
    return np.array(points), dropped


def load_csv(path, label_column: int = -1, positive_value: str = "1") -> LabeledDataset:
    """Read labeled points from a CSV file.

    Every column except ``label_column`` is a numeric feature; the label
    matches ``positive_value`` (string comparison after stripping).  A first
    row that does not parse as numbers is treated as a header.
    """
    points, labels = _read_table(path, label_column)
    return LabeledDataset(points, np.array([c == positive_value for c in labels]))


def load_points(path, drop_column: int = None) -> np.ndarray:
    """Read unlabeled points ``(n, d)`` from a CSV file.

    Every column except ``drop_column`` (if given) is a numeric feature.  A
    first row that does not parse as numbers is treated as a header.
    """
    return _read_table(path, drop_column)[0]


def write_csv(data: LabeledDataset, path):
    """Write features plus a trailing 1/0 label column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for pt, lab in zip(data.points, data.labels):
            writer.writerow([repr(float(v)) for v in pt] + [int(lab)])


def load_skin(path) -> LabeledDataset:
    """Read the tab-separated B/G/R skin-pixel file (label 1 = skin = positive).

    Warns when the totals differ from the canonical counts
    ``SKIN_EXPECTED_COUNTS`` and rejects labels other than 1/2 or channel
    values outside [0, 255].
    """
    points, labels = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            toks = line.split()
            if len(toks) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 columns, got {len(toks)}")
            try:
                b, g, r, label = (int(t) for t in toks)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-integer value") from None
            if label not in (1, 2):
                raise ParseError(f"{path}:{lineno}: label must be 1 or 2, got {label}")
            if not all(0 <= c <= 255 for c in (b, g, r)):
                raise ParseError(f"{path}:{lineno}: channel value outside [0, 255]")
            points.append((b, g, r))
            labels.append(label == 1)
    if not points:
        raise ParseError(f"{path}: no data rows")
    data = LabeledDataset(np.array(points, dtype=float), np.array(labels))
    counts = (data.n_pos, data.n_neg)
    if counts != SKIN_EXPECTED_COUNTS:
        warnings.warn(
            f"skin file has counts {counts}, expected {SKIN_EXPECTED_COUNTS}",
            stacklevel=2,
        )
    return data


def kfold(data: LabeledDataset, folds: int, seed: int = 0):
    """Split into ``folds`` stratified (train_idx, test_idx) pairs.

    Each class is shuffled separately and its indices are dealt across
    folds, so per-fold class counts differ by at most one.
    """
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    n = len(data.labels)
    rng = np.random.default_rng(seed)
    groups = [np.flatnonzero(data.labels), np.flatnonzero(~data.labels)]
    for g in groups:
        if len(g) < folds:
            raise InsufficientClassError(
                f"a class has {len(g)} samples, fewer than {folds} folds"
            )
    splits = [np.array_split(rng.permutation(g), folds) for g in groups]
    out = []
    for chunks in zip(*splits):  # fold f's chunk of each class
        test = np.sort(np.concatenate(chunks))
        train = np.ones(n, dtype=bool)
        train[test] = False
        out.append((np.flatnonzero(train), test))
    return out
