"""A 2-D frontier that no threshold rule could draw.

Database 4 surrounds a dense Gaussian blob of negatives with a sparse ring
of positives (1:10 imbalance).  The level-set classifier has no parametric
form to fight: its frontier is a closed curve around the blob, near the
ring's middle radius.  Everything outside it is positive, the empty outer
region included, because there the ring's density tail outweighs the
blob's.  This demo fits the model, exports the frontier polylines and the
decision-field heatmap, and prints the confusion metrics next to a
Gaussian Naive Bayes baseline, which collapses on this geometry.

Run:  python3 demos/04_ring_frontier.py
"""
import numpy as np
from pathlib import Path

from ofc import (
    TrainConfig,
    confusion_from_predictions,
    fit,
    frontier,
    frontier_csv,
    gen_db,
    kfold,
    metrics_from_counts,
    naive_bayes_fit,
    naive_bayes_predict,
    predict,
    write_pgm,
)

OUT = Path(__file__).parent / "out"


def report(name, labels, predicted):
    m = metrics_from_counts(confusion_from_predictions(labels, predicted))
    print(f"  {name:12s} F1 {100 * m.f_beta:6.2f}   Rec {100 * m.recall:6.2f}   "
          f"Pre {100 * m.precision:6.2f}   Acc {100 * m.accuracy:6.2f}")


def main():
    OUT.mkdir(exist_ok=True)
    data = gen_db(4, seed=0)
    train_idx, test_idx = kfold(data, 10, seed=0)[0]
    tr, te = data.subset(train_idx), data.subset(test_idx)
    print(f"training on {len(tr.labels)} points "
          f"({tr.n_pos} positive), testing on {len(te.labels)}")

    model, trace = fit(tr, TrainConfig(resolution=64, max_iter=400, reinit_every=50))
    nb = naive_bayes_fit(tr)

    print("\nheld-out fold metrics (%):")
    report("level set", te.labels, predict(model, te.points))
    report("naive Bayes", te.labels, naive_bayes_predict(nb, te.points))

    lines = frontier(model)
    radii = [np.hypot(*line.mean(axis=0)) for line in lines]
    print(f"\nfrontier: {len(lines)} closed curves "
          f"(centroid radii {', '.join(f'{r:.2f}' for r in radii)})")

    front_path = OUT / "04_frontier.csv"
    front_path.write_text(frontier_csv(model))
    pgm_path = OUT / "04_field.pgm"
    write_pgm(model.u, pgm_path)
    print(f"wrote {front_path} (polyline vertices, blank line between curves)")
    print(f"wrote {pgm_path} (decision field; mid-gray is the frontier)")


if __name__ == "__main__":
    main()
