"""Class densities and the misclassification energy they induce.

The training objective never sees individual samples: both classes are
compressed into kernel-density estimates on a grid, and every candidate
decision region is scored by integrating those densities over it.  This
demo estimates the densities of a 1-D toy problem (1000 positives around
3, 50000 negatives around 1), sweeps simple threshold classifiers through
the F1 and accuracy energies, and checks the minima against closed-form
optima computed from Gaussian tails.

Run:  python3 demos/02_densities_and_energy.py
"""
import numpy as np
from scipy.special import ndtr

from ofc import (
    GridSpec,
    MeasureEnergy,
    ScalarField,
    TrainConfig,
    estimate_pair,
    gen_toy1d,
    integrate,
    resolved_config,
)
from ofc.data import TOY_NEG_COUNT, TOY_NEG_MEAN, TOY_POS_COUNT, TOY_POS_MEAN, TOY_SIGMA


def main():
    data = gen_toy1d(seed=0)
    grid = GridSpec(bounds=((-2.0, 6.0),), resolution=1024)
    pair = estimate_pair(data, grid)
    print(f"dataset: {data.n_pos} positives, {data.n_neg} negatives")
    print(f"density masses (should both be 1): "
          f"{integrate(pair.f_pos):.6f}, {integrate(pair.f_neg):.6f}")

    x = grid.axes()[0]
    eps = resolved_config(TrainConfig(), grid).eps_h  # the width training uses
    taus = np.linspace(2.0, 5.0, 301)

    def energy_curve(kind):
        e = MeasureEnergy(pair, eps=eps, kind=kind)
        return [e.evaluate(ScalarField(grid, x - t)) for t in taus]

    f1_curve = energy_curve("f_measure")
    acc_curve = energy_curve("accuracy")
    f1_tau = taus[int(np.argmin(f1_curve))]
    acc_tau = taus[int(np.argmin(acc_curve))]

    # Closed-form references from exact Gaussian tails.
    sweep = np.linspace(2.0, 5.0, 30001)
    fn = TOY_POS_COUNT * ndtr((sweep - TOY_POS_MEAN) / TOY_SIGMA)
    fp = TOY_NEG_COUNT * ndtr((TOY_NEG_MEAN - sweep) / TOY_SIGMA)
    tp = TOY_POS_COUNT - fn
    f1_ref = sweep[np.argmax(2 * tp / (2 * tp + fn + fp))]
    # equal widths: the count-scaled densities cross at one point
    acc_ref = 0.5 * (TOY_POS_MEAN + TOY_NEG_MEAN) + TOY_SIGMA**2 / (
        TOY_POS_MEAN - TOY_NEG_MEAN) * np.log(TOY_NEG_COUNT / TOY_POS_COUNT)

    print("\nthreshold sweep through the energies (lower = better):")
    print(f"  F1 energy minimum at tau = {f1_tau:.3f}  "
          f"(exact-tail optimum {f1_ref:.3f})")
    print(f"  accuracy energy minimum at tau = {acc_tau:.3f}  "
          f"(analytic crossing {acc_ref:.3f})")
    print("\nThe ~0.7 gap between the two optima is the whole point: with a")
    print("1:50 imbalance the accuracy-optimal frontier sacrifices most of")
    print("the positive class, while the F1 frontier moves toward it.")


if __name__ == "__main__":
    main()
