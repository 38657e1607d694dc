"""The paper's 1-D toy problem, exactly: positives N(3, 1) x 1000 against
negatives N(1, 1) x 50000, every number taken from ``ofc.data``'s TOY_*
constants.

Tests take the analytic density pair, its Gaussian-tail confusion counts,
the Bayes threshold, the starting box right of the positive mean and the
cold step from here; ``conftest.py`` trains the two cold runs on it once
per session.
"""
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from ofc.classifier import TrainedClassifier
from ofc.data import TOY_NEG_COUNT, TOY_NEG_MEAN, TOY_POS_COUNT, TOY_POS_MEAN, TOY_SIGMA
from ofc.density import DensityPair
from ofc.energy import MeasureEnergy
from ofc.field import Box, GridSpec, ScalarField, init_shape
from ofc.solver import EvolutionTrace, TrainConfig, _resolved, auto_time_step

P_COUNT, N_COUNT = float(TOY_POS_COUNT), float(TOY_NEG_COUNT)
TOY_BOUNDS = ((-2.0, 6.0),)
# the brute-force threshold sweep of the oracle checks
SWEEP_TAUS = np.linspace(*TOY_BOUNDS[0], 2000)
# the start of the cold runs: everything right of the positive mean
RIGHT_BOX = Box(lo=(TOY_POS_MEAN,), hi=(TOY_BOUNDS[0][1],))
# where the count-scaled densities cross: the accuracy-optimal threshold
BAYES_TAU = 0.5 * (TOY_POS_MEAN + TOY_NEG_MEAN) + TOY_SIGMA**2 / (
    TOY_POS_MEAN - TOY_NEG_MEAN
) * np.log(N_COUNT / P_COUNT)


def normal_pdf(x, mean):
    """The density of N(mean, TOY_SIGMA**2) at x."""
    return np.exp(-0.5 * ((x - mean) / TOY_SIGMA) ** 2) / (TOY_SIGMA * np.sqrt(2 * np.pi))


def toy_pair(resolution=1024, bounds=TOY_BOUNDS) -> DensityPair:
    """The exact class densities of the toy on a 1-D grid."""
    grid = GridSpec(bounds=bounds, resolution=resolution)
    x = grid.axes()[0]
    return DensityPair(
        f_pos=ScalarField(grid, normal_pdf(x, TOY_POS_MEAN)),
        f_neg=ScalarField(grid, normal_pdf(x, TOY_NEG_MEAN)),
        p_count=P_COUNT,
        n_count=N_COUNT,
    )


def tail_counts(tau):
    """(tp, fn, fp, tn) of the region x > tau, from exact Gaussian tails."""
    return (
        P_COUNT * ndtr((TOY_POS_MEAN - tau) / TOY_SIGMA),
        P_COUNT * ndtr((tau - TOY_POS_MEAN) / TOY_SIGMA),
        N_COUNT * ndtr((TOY_NEG_MEAN - tau) / TOY_SIGMA),
        N_COUNT * ndtr((tau - TOY_NEG_MEAN) / TOY_SIGMA),
    )


def toy_accuracy(tau):
    """Fraction of the two classes labeled correctly by the region x > tau."""
    tp, _, _, tn = tail_counts(tau)
    return (tp + tn) / (P_COUNT + N_COUNT)


def train_energy(pair: DensityPair) -> MeasureEnergy:
    """The F1 energy that train builds for pair, on the eps it resolves."""
    return MeasureEnergy(pair, eps=_resolved(TrainConfig(), pair.grid).eps_h)


def cold_dt(pair: DensityPair, u: ScalarField = None, n: int = 10) -> float:
    """1/n of the automatic step from u, by default the right box's field."""
    if u is None:
        u = init_shape(pair.grid, RIGHT_BOX)
    return auto_time_step(u, train_energy(pair), TrainConfig()) / n


class ToyRun(NamedTuple):
    """One cold training run, the energy it descends, and the seconds its
    step sizing and training took."""

    model: TrainedClassifier
    trace: EvolutionTrace
    energy: MeasureEnergy
    seconds: float
