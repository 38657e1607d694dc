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
    train,
)
from ofc.solver import _resolved

OUT = Path(__file__).parent / "out"
P, N = 1000.0, 50000.0


def analytic_pair(resolution=1024):
    grid = GridSpec(bounds=((-2.0, 6.0),), resolution=resolution)
    x = grid.axes()[0]
    phi = lambda m: np.exp(-0.5 * (x - m) ** 2) / np.sqrt(2 * np.pi)
    return DensityPair(
        f_pos=ScalarField(grid, phi(3.0)),
        f_neg=ScalarField(grid, phi(1.0)),
        p_count=P,
        n_count=N,
    )


def run(kind):
    pair = analytic_pair()
    init = Box(lo=(3.0,), hi=(6.0,))
    cfg = TrainConfig(init=init, reinit_every=300, max_iter=12000)
    if kind == "f_measure":
        # a tenth of the automatic step, sized on the energy train builds
        energy = MeasureEnergy(pair, eps=_resolved(cfg, pair.grid).eps_h)
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
    fn = P * ndtr(taus - 3.0)
    tp = P - fn
    fp = N * ndtr(1.0 - taus)
    f1_ref = taus[np.argmax(2 * tp / (2 * tp + fn + fp))]
    acc_ref = 2.0 + 0.5 * np.log(N / P)
    accuracy = lambda t: (P * ndtr(3.0 - t) + N * ndtr(t - 1.0)) / (P + N)

    print(f"\nreference optima: accuracy {acc_ref:.4f}, F1 {f1_ref:.4f}")
    print(f"accuracy cost of maximizing F1 instead: "
          f"{100 * (accuracy(acc_ref) - accuracy(f1_tau)):.2f} points")
    print(f"F1 side of the trade: the F1-optimal frontier recalls "
          f"{100 * ndtr(3.0 - f1_ref):.1f}% of positives, the "
          f"accuracy-optimal one only {100 * ndtr(3.0 - acc_tau):.1f}%")


if __name__ == "__main__":
    main()
