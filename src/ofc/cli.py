"""Command-line front end: generate data, train, predict, export, evaluate.

Subcommands
-----------
gen         write a synthetic dataset to CSV (features + trailing 1/0 label)
train       fit a level-set classifier on a CSV, save the model (and trace)
predict     label the rows of a CSV with a saved model
eval        run a cross-validated comparison described by a key=value file
sweep-beta  like eval, but emit mean F_beta per beta (one classifier column)
frontier    export a model's decision frontier as CSV
field       export a model's decision field as an ASCII PGM heatmap

Exit codes: 0 success, 1 usage error (running out of memory included),
2 data error, 3 numerical failure.
A flag or config key left out keeps the library's own default.
Every command that consumes randomness takes ``--seed``; two runs with the
same arguments and seed write byte-identical files.
"""
from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .classifier import fit, frontier_csv, load, predict, save
from .data import (
    LabeledDataset,
    gen_db,
    gen_toy1d,
    load_csv,
    load_points,
    load_skin,
    write_csv,
)
from .errors import (
    DataError,
    DegenerateModelError,
    DimensionError,
    ModelFormatError,
    NumericalError,
    ParseError,
)
from .energy import _DESCENTS, _MEASURES
from .field import write_pgm
from .harness import ExperimentSpec, run_experiment
from .solver import CONFIG_PARSERS, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_DATASET_NAMES = ("toy", "db1", "db2", "db3", "db4")


# ---------------------------------------------------------------------------
# shared helpers


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _given(args, names) -> dict:
    """The flags among ``names`` that the user set; the rest keep library defaults."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _load_dataset(source: str, seed: int, subsample: int = None,
                  **csv_options) -> LabeledDataset:
    """A dataset name (toy, db1..db4), ``skin:<path>``, or a CSV path.

    ``csv_options`` go to :func:`load_csv`; ``subsample`` keeps the first rows.
    """
    if subsample is not None and subsample < 1:
        raise ValueError(f"subsample must be at least 1, got {subsample}")
    if source == "toy":
        data = gen_toy1d(seed)
    elif source in _DATASET_NAMES:
        data = gen_db(int(source[2:]), seed)
    elif source.startswith("skin:"):
        data = load_skin(source[len("skin:"):])
    else:
        data = load_csv(source, **csv_options)
    if subsample is not None and subsample < len(data.labels):
        data = data.subset(np.arange(subsample))
    return data


# ---------------------------------------------------------------------------
# key=value experiment configuration


def _parse_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ParseError(f"{path}:{lineno}: empty key or value")
            if key in out:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _names(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(","))


# Config keys and their parsers, by where the value goes.  A key missing
# from the file is left out, so the library's own default applies.
_DATA_KEYS = {
    "data": str, "subsample": int, "label_column": int,
    "positive_value": str, "data_seed": int,
}
# TrainConfig's fields, but the spec's betas and seed set beta and seed
_TRAIN_KEYS = {
    k: parse for k, parse in CONFIG_PARSERS.items() if k not in ("init", "beta", "seed")
}
_SPEC_KEYS = {
    "classifiers": _names, "repetitions": int, "folds": int, "betas": _floats,
    "seed": int, "workers": int, "measure": str, "bandwidth": float,
}
_SPEC_FIELDS = {"measure": "ofc_measure", "bandwidth": "ofc_bandwidth"}


def _parse_keys(path, cfg: dict, table: dict) -> dict:
    out = {}
    for key, parse in table.items():
        if key in cfg:
            try:
                out[key] = parse(cfg[key])
            except ValueError as exc:
                raise ParseError(f"{path}: key {key!r}: {exc}") from None
    return out


def _spec_from_config(path, seed_override=None, betas_override=None) -> ExperimentSpec:
    cfg = _parse_config_file(path)
    unknown = sorted(set(cfg).difference(_DATA_KEYS, _TRAIN_KEYS, _SPEC_KEYS))
    if unknown:
        raise ParseError(f"{path}: unknown keys {', '.join(unknown)}")
    if "data" not in cfg:
        raise ParseError(f"{path}: missing required key 'data'")
    data_kw, train_kw, spec_kw = (
        _parse_keys(path, cfg, t) for t in (_DATA_KEYS, _TRAIN_KEYS, _SPEC_KEYS)
    )
    if seed_override is not None:
        spec_kw["seed"] = seed_override
    if betas_override is not None:
        spec_kw["betas"] = betas_override
    seed = spec_kw.get("seed", ExperimentSpec.seed)
    data = _load_dataset(
        data_kw.pop("data"), seed=data_kw.pop("data_seed", seed), **data_kw
    )
    return ExperimentSpec(
        data=data,
        ofc=TrainConfig(seed=seed, **train_kw),
        **{_SPEC_FIELDS.get(k, k): v for k, v in spec_kw.items()},
    )


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_gen(args) -> int:
    data = _load_dataset(args.db, args.seed, subsample=args.subsample)
    write_csv(data, args.out)
    print(
        f"wrote {len(data.labels)} rows ({data.n_pos} positive, "
        f"{data.n_neg} negative) to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


# train flags, by the call they go to
_CSV_FLAGS = ("label_column", "positive_value")
_FIT_FLAGS = ("measure", "bandwidth")
_TRAIN_FLAGS = tuple(k for k in CONFIG_PARSERS if k != "init")


def _cmd_train(args) -> int:
    data = load_csv(args.data, **_given(args, _CSV_FLAGS))
    model, trace = fit(
        data, TrainConfig(**_given(args, _TRAIN_FLAGS)), **_given(args, _FIT_FLAGS)
    )
    save(model, args.out)
    if args.trace is not None:
        _write_text(args.trace, trace.to_csv())
    status = f"{trace.status}, degenerate" if model.degenerate else trace.status
    print(
        f"trained on {len(data.labels)} rows: {status} after "
        f"{len(trace.records)} iterations, energy {trace.final_energy:.6g}; "
        f"dt halvings {trace.dt_halvings}, stationarity residual "
        f"{trace.stationarity_residual:.3g}, energy ascent "
        f"{'yes' if trace.energy_ascent else 'no'}; returned the field of iteration "
        f"{trace.best_iteration}, sign-pattern energy {trace.sign_pattern_energy:.6g}, "
        f"optimality gap {trace.optimality_gap:.3g}",
        file=sys.stderr,
    )
    seconds = ", ".join(f"{phase} {s:.3g}" for phase, s in trace.phase_seconds.items())
    print(f"seconds: {seconds}", file=sys.stderr)
    if model.degenerate:
        raise DegenerateModelError(
            f"the field in {args.out} never changes sign: the model answers one class"
        )
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load(args.model)
    labels = predict(model, load_points(args.data, drop_column=args.label_column))
    _write_text(args.out, "label\n" + "".join(f"{int(v)}\n" for v in labels))
    print(
        f"labeled {len(labels)} rows ({int(labels.sum())} positive) to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _report_failures(result, out) -> int:
    """Print each failed cell; a run in which every cell failed is a
    numerical failure, although its outputs are written."""
    for failure in result.failures:
        print(f"cell failed: {failure}", file=sys.stderr)
    if not result.outcomes:
        raise NumericalError(f"every cell failed; {out} holds no result")
    return EXIT_OK


def _cmd_eval(args) -> int:
    spec = _spec_from_config(args.config, seed_override=args.seed)
    result = run_experiment(spec)
    _write_text(args.out, result.summary_csv())
    if args.raw is not None:
        _write_text(args.raw, result.raw_csv())
    return _report_failures(result, args.out)


def _cmd_sweep_beta(args) -> int:
    betas = _floats(args.betas) if args.betas else None
    spec = _spec_from_config(args.config, seed_override=args.seed,
                             betas_override=betas)
    result = run_experiment(spec)
    _write_text(args.out, result.sweep_csv())
    return _report_failures(result, args.out)


def _cmd_frontier(args) -> int:
    model = load(args.model)
    _write_text(args.out, frontier_csv(model))
    return EXIT_OK


def _cmd_field(args) -> int:
    write_pgm(load(args.model).u, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


# help of each TrainConfig field's flag; the flag's type is its text parser
_TRAIN_HELP = {
    "beta": "F_beta weight",
    "dt": "time step (default: auto from the initial descent)",
    "lam": "smoothing weight (default: 0.1 * max spacing^2, set once per run from the grid)",
    "eps_h": "step smoothing width (default: 1.5 * max spacing, set once per run from the grid)",
    "tol": "stop when the max nodal update falls below this",
    "reinit_every": "redistance the field every this many iterations",
    "max_iter": "stop after this many iterations",
    "resolution": "grid cells per axis (default: per-dimension choice)",
    "seed": "recorded in the model's config",
    "descent": "descent direction: energy derivative or the G surrogate",
}


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """Training flags; each one left out keeps the library's default."""
    p.add_argument("--measure", choices=tuple(_MEASURES),
                   help="objective to minimize")
    for name in _TRAIN_FLAGS:
        choices = {"choices": _DESCENTS} if name == "descent" else {}
        p.add_argument("--" + name.replace("_", "-"), type=CONFIG_PARSERS[name],
                       help=_TRAIN_HELP[name], **choices)
    p.add_argument("--bandwidth", type=float,
                   help="kernel bandwidth override for both class densities")
    p.add_argument("--label-column", type=int,
                   help="index of the label column (default: last)")
    p.add_argument("--positive-value",
                   help="label string marking the positive class")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofc",
        description="Level-set classifiers that maximize F_beta directly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset to CSV")
    p.add_argument("--db", choices=_DATASET_NAMES, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subsample", type=int, default=None,
                   help="keep only the first N rows")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="fit a level-set classifier on a CSV")
    p.add_argument("--data", required=True, help="labeled CSV file")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--trace", default=None, help="write per-iteration CSV here")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="label CSV rows with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="numeric CSV of points")
    p.add_argument("--out", required=True, help="labels CSV to write")
    p.add_argument("--label-column", type=int, default=None,
                   help="ignore this column of the input (default: none)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="cross-validated comparison from a config file")
    p.add_argument("--config", required=True, help="key=value experiment file")
    p.add_argument("--out", required=True, help="summary CSV to write")
    p.add_argument("--raw", default=None, help="also write per-fold rows here")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config file's seed")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep-beta", help="mean F_beta per beta, per classifier")
    p.add_argument("--config", required=True, help="key=value experiment file")
    p.add_argument("--out", required=True, help="sweep CSV to write")
    p.add_argument("--betas", default=None,
                   help="comma-separated beta grid overriding the config")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config file's seed")
    p.set_defaults(func=_cmd_sweep_beta)

    p = sub.add_parser("frontier", help="export the decision frontier as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("field", help="export the decision field as a PGM heatmap")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_field)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage problems
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # library progress lines (e.g. the experiment summary) go to stderr
    handler = logging.StreamHandler(sys.stderr)
    log = logging.getLogger("ofc")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (DataError, ModelFormatError, DimensionError, OSError,
            UnicodeDecodeError) as exc:
        print(f"ofc: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, DegenerateModelError) as exc:
        print(f"ofc: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"ofc: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # e.g. a --resolution whose grid does not fit
        print(f"ofc: usage error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
