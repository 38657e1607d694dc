"""Level-set classifiers that maximize the F-beta measure (or accuracy) directly.

The library estimates one density per class on a regular grid, forms a
misclassification energy whose minimizers are optimal decision regions,
and evolves a signed decision field under the energy's gradient flow.

Typical use::

    from ofc import fit, predict, TrainConfig, gen_db

    model, trace = fit(gen_db(4), TrainConfig(resolution=64, max_iter=400))
    labels = predict(model, points)
"""

from .classifier import (
    TrainedClassifier,
    densities_for,
    density_fingerprint,
    fit,
    frontier,
    frontier_csv,
    load,
    predict,
    save,
)
from .data import (
    LabeledDataset,
    gen_db,
    gen_toy1d,
    kfold,
    load_csv,
    load_skin,
    write_csv,
)
from .density import DensityPair, KdeModel, density_on_grid, estimate_pair, fit_kde
from .energy import MeasureEnergy
from .errors import DataError, NumericalError, OfcError
from .field import (
    Box,
    GridSpec,
    ScalarField,
    Sphere,
    SphereLattice,
    gradient_magnitude,
    init_shape,
    integrate,
    interpolate,
    laplacian,
    write_pgm,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    NaiveBayesModel,
    SummaryRow,
    naive_bayes_decision,
    naive_bayes_fit,
    naive_bayes_predict,
    run_experiment,
    threshold_oracle,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    confusion_from_predictions,
    metrics_from_counts,
    smoothed_delta,
)
from .solver import (
    EvolutionTrace,
    TrainConfig,
    auto_time_step,
    default_resolution,
    reinitialize,
    resolved_config,
    step,
    train,
)

__all__ = [
    # fields and geometry
    "Box",
    "GridSpec",
    "ScalarField",
    "Sphere",
    "SphereLattice",
    "gradient_magnitude",
    "init_shape",
    "integrate",
    "interpolate",
    "laplacian",
    "write_pgm",
    # data
    "LabeledDataset",
    "gen_db",
    "gen_toy1d",
    "kfold",
    "load_csv",
    "load_skin",
    "write_csv",
    # densities and energy
    "DensityPair",
    "KdeModel",
    "MeasureEnergy",
    "density_on_grid",
    "estimate_pair",
    "fit_kde",
    # solver
    "EvolutionTrace",
    "TrainConfig",
    "auto_time_step",
    "default_resolution",
    "reinitialize",
    "resolved_config",
    "step",
    "train",
    # classifier
    "TrainedClassifier",
    "densities_for",
    "density_fingerprint",
    "fit",
    "frontier",
    "frontier_csv",
    "load",
    "predict",
    "save",
    # metrics
    "ConfusionCounts",
    "MetricsReport",
    "confusion_from_predictions",
    "metrics_from_counts",
    "smoothed_delta",
    # baselines and experiments
    "ExperimentResult",
    "ExperimentSpec",
    "NaiveBayesModel",
    "SummaryRow",
    "naive_bayes_decision",
    "naive_bayes_fit",
    "naive_bayes_predict",
    "run_experiment",
    "threshold_oracle",
    # errors
    "DataError",
    "NumericalError",
    "OfcError",
]

__version__ = "0.1.0"
