"""Training the decision field on the 1-D toy problem, both objectives.

Instead of sweeping thresholds (demo 02), here the decision field itself
evolves under the energy's gradient flow until it stops moving.  With
analytic densities the converged zero crossing can be compared against
brute-force optima: the accuracy run should land where count-scaled
densities cross (~3.956) and the F1 run substantially to its left.

Run:  python3 demos/03_toy_training.py
"""
import numpy as np
from dataclasses import replace
from pathlib import Path
from scipy.special import ndtr

from ofc import (
    Box,
    DensityPair,
    GridSpec,
    MeasureEnergy,
    ScalarField,
    TrainConfig,
    auto_time_step,
    frontier,
    init_shape,
    resolved_config,
    train,
)
from ofc.data import TOY_NEG_COUNT, TOY_NEG_MEAN, TOY_POS_COUNT, TOY_POS_MEAN, TOY_SIGMA

OUT = Path(__file__).parent / "out"
P, N = float(TOY_POS_COUNT), float(TOY_NEG_COUNT)
MU_P, MU_N, SIGMA = TOY_POS_MEAN, TOY_NEG_MEAN, TOY_SIGMA


def analytic_pair(resolution=1024):
    grid = GridSpec(bounds=((-2.0, 6.0),), resolution=resolution)
    x = grid.axes()[0]
    phi = lambda m: np.exp(-0.5 * ((x - m) / SIGMA) ** 2) / (SIGMA * np.sqrt(2 * np.pi))
    return DensityPair(
        f_pos=ScalarField(grid, phi(MU_P)),
        f_neg=ScalarField(grid, phi(MU_N)),
        p_count=P,
        n_count=N,
    )


def run(kind):
    pair = analytic_pair()
    init = Box(lo=(MU_P,), hi=(6.0,))
    cfg = TrainConfig(init=init, reinit_every=300, max_iter=12000)
    if kind == "f_measure":
        # a tenth of the automatic step, sized on the energy train builds
        energy = MeasureEnergy(pair, eps=resolved_config(cfg, pair.grid).eps_h)
        cfg = replace(cfg, dt=auto_time_step(init_shape(pair.grid, init), energy, cfg) / 10)
    model, trace = train(pair, cfg, kind)
    (tau,) = frontier(model)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"03_trace_{kind}.csv"
    path.write_text(trace.to_csv())
    print(f"{kind:10s}: crossing {tau:.4f}  ({trace.status} after "
          f"{len(trace.records)} iterations; trace -> {path})")
    return tau


def main():
    acc_tau = run("accuracy")
    f1_tau = run("f_measure")

    taus = np.linspace(-2.0, 6.0, 20001)
    fn = P * ndtr((taus - MU_P) / SIGMA)
    tp = P - fn
    fp = N * ndtr((MU_N - taus) / SIGMA)
    f1_ref = taus[np.argmax(2 * tp / (2 * tp + fn + fp))]
    # equal widths: the count-scaled densities cross at one point
    acc_ref = 0.5 * (MU_P + MU_N) + SIGMA**2 / (MU_P - MU_N) * np.log(N / P)
    accuracy = lambda t: (P * ndtr((MU_P - t) / SIGMA) + N * ndtr((t - MU_N) / SIGMA)) / (P + N)

    print(f"\nreference optima: accuracy {acc_ref:.4f}, F1 {f1_ref:.4f}")
    print(f"accuracy cost of maximizing F1 instead: "
          f"{100 * (accuracy(acc_ref) - accuracy(f1_tau)):.2f} points")
    print(f"F1 side of the trade: the F1-optimal frontier recalls "
          f"{100 * ndtr((MU_P - f1_ref) / SIGMA):.1f}% of positives, the "
          f"accuracy-optimal one only {100 * ndtr((MU_P - acc_tau) / SIGMA):.1f}%")


if __name__ == "__main__":
    main()
