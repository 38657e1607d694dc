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

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every command that consumes randomness takes ``--seed``; two runs with the
same arguments and seed write byte-identical files.
"""
from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .classifier import fit, frontier_csv, load, predict, save
from .data import LabeledDataset, gen_db, gen_toy1d, load_csv, load_skin, write_csv
from .errors import (
    DataError,
    DegenerateModelError,
    DimensionError,
    ModelFormatError,
    NumericalError,
    ParseError,
)
from .harness import ExperimentSpec, run_experiment
from .solver import TrainConfig

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


def _named_dataset(name: str, seed: int) -> LabeledDataset:
    if name == "toy":
        return gen_toy1d(seed)
    return gen_db(int(name[2:]), seed)


def _load_dataset(source: str, seed: int, label_column: int,
                  positive_value: str, subsample: int = None) -> LabeledDataset:
    """A dataset name (toy, db1..db4), ``skin:<path>``, or a CSV path."""
    if source in _DATASET_NAMES:
        data = _named_dataset(source, seed)
    elif source.startswith("skin:"):
        data = load_skin(source[len("skin:"):])
    else:
        data = load_csv(source, label_column=label_column,
                        positive_value=positive_value)
    if subsample is not None and subsample < len(data.labels):
        data = data.subset(np.arange(subsample))
    return data


def _read_points(path, label_column=None) -> np.ndarray:
    """Numeric CSV rows as points; ``label_column`` (if any) is dropped."""
    if label_column is not None:
        return load_csv(path, label_column=label_column).points
    import csv as _csv

    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(_csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                if not rows and lineno == 1:
                    continue  # header row
                raise ParseError(f"{path}:{lineno}: non-numeric value") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"{path}: rows have inconsistent column counts")
    return np.array(rows)


def _train_config(args, beta=None) -> TrainConfig:
    return TrainConfig(
        beta=args.beta if beta is None else beta,
        dt=args.dt,
        lam=args.lam,
        eps_h=args.eps_h,
        tol=args.tol,
        reinit_every=args.reinit_every,
        max_iter=args.max_iter,
        resolution=args.resolution,
        seed=args.seed,
        descent=args.descent,
    )


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


def _conv(path, key, value, kind):
    try:
        return kind(value)
    except ValueError:
        raise ParseError(
            f"{path}: key {key!r} needs a {kind.__name__}, got {value!r}"
        ) from None


_CONFIG_KEYS = frozenset(
    {
        "data", "subsample", "label_column", "positive_value", "data_seed",
        "classifiers", "repetitions", "folds", "betas", "seed", "workers",
        "oracle_steps", "measure", "bandwidth", "resolution", "max_iter",
        "reinit_every", "dt", "lam", "eps_h", "tol", "descent",
    }
)


def _spec_from_config(path, seed_override=None, betas_override=None) -> ExperimentSpec:
    cfg = _parse_config_file(path)
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise ParseError(f"{path}: unknown keys {', '.join(unknown)}")
    if "data" not in cfg:
        raise ParseError(f"{path}: missing required key 'data'")

    def geti(key, default):
        return _conv(path, key, cfg[key], int) if key in cfg else default

    def getf(key, default):
        return _conv(path, key, cfg[key], float) if key in cfg else default

    seed = seed_override if seed_override is not None else geti("seed", 0)
    data = _load_dataset(
        cfg["data"],
        seed=geti("data_seed", seed),
        label_column=geti("label_column", -1),
        positive_value=cfg.get("positive_value", "1"),
        subsample=geti("subsample", None) if "subsample" in cfg else None,
    )
    if betas_override is not None:
        betas = betas_override
    else:
        betas = tuple(
            _conv(path, "betas", b.strip(), float)
            for b in cfg.get("betas", "1.0").split(",")
        )
    train_cfg = TrainConfig(
        dt=getf("dt", None),
        lam=getf("lam", None),
        eps_h=getf("eps_h", None),
        tol=getf("tol", 1e-5),
        reinit_every=geti("reinit_every", 50),
        max_iter=geti("max_iter", 2000),
        resolution=geti("resolution", None),
        seed=seed,
        descent=cfg.get("descent", "derivative"),
    )
    return ExperimentSpec(
        data=data,
        classifiers=tuple(c.strip() for c in cfg.get("classifiers", "ofc,nb").split(",")),
        repetitions=geti("repetitions", 10),
        folds=geti("folds", 10),
        betas=betas,
        seed=seed,
        ofc=train_cfg,
        ofc_measure=cfg.get("measure", "f_measure"),
        ofc_bandwidth=getf("bandwidth", None),
        oracle_steps=geti("oracle_steps", 2000),
        workers=geti("workers", 1),
    )


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_gen(args) -> int:
    data = _named_dataset(args.db, args.seed)
    if args.subsample is not None and args.subsample < len(data.labels):
        data = data.subset(np.arange(args.subsample))
    write_csv(data, args.out)
    print(
        f"wrote {len(data.labels)} rows ({data.n_pos} positive, "
        f"{data.n_neg} negative) to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    data = load_csv(args.data, label_column=args.label_column,
                    positive_value=args.positive_value)
    model, trace = fit(
        data, _train_config(args), measure=args.measure, bandwidth=args.bandwidth
    )
    save(model, args.out)
    if args.trace is not None:
        _write_text(args.trace, trace.to_csv())
    print(
        f"trained on {len(data.labels)} rows: {trace.status} after "
        f"{len(trace.records)} iterations, energy {trace.records[-1].energy:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load(args.model)
    points = _read_points(args.data, label_column=args.label_column)
    labels = predict(model, points)
    _write_text(args.out, "label\n" + "".join(f"{int(v)}\n" for v in labels))
    print(
        f"labeled {len(labels)} rows ({int(labels.sum())} positive) to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    spec = _spec_from_config(args.config, seed_override=args.seed)
    result = run_experiment(spec)
    _write_text(args.out, result.summary_csv())
    if args.raw is not None:
        _write_text(args.raw, result.raw_csv())
    for failure in result.failures:
        print(f"cell failed: {failure}", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep_beta(args) -> int:
    betas = tuple(float(b) for b in args.betas.split(",")) if args.betas else None
    if betas is not None and any(b <= 0 for b in betas):
        raise ValueError("--betas values must be positive")
    spec = _spec_from_config(args.config, seed_override=args.seed,
                             betas_override=betas)
    result = run_experiment(spec)
    _write_text(args.out, result.sweep_csv())
    for failure in result.failures:
        print(f"cell failed: {failure}", file=sys.stderr)
    return EXIT_OK


def _cmd_frontier(args) -> int:
    model = load(args.model)
    _write_text(args.out, frontier_csv(model))
    return EXIT_OK


def _cmd_field(args) -> int:
    model = load(args.model)
    u = model.u
    if u.grid.dim > 2:
        raise DimensionError(
            f"heatmap export supports 1-D and 2-D fields, got {u.grid.dim}-D"
        )
    values = u.values if u.grid.dim == 2 else u.values[:, None]
    width, height = values.shape
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    if span > 0:
        pixels = np.rint((values - lo) / span * 255).astype(int)
        zero_gray = int(np.clip(round((0.0 - lo) / span * 255), 0, 255))
    else:
        pixels = np.full(values.shape, 128, dtype=int)
        zero_gray = 128
    bounds = " x ".join(f"[{a!r}, {b!r}]" for a, b in u.grid.bounds)
    lines = [
        "P2",
        f"# decision field over {bounds}",
        f"# u in [{lo!r}, {hi!r}]; gray 0 = min, 255 = max; zero level at gray {zero_gray}",
        f"{width} {height}",
        "255",
    ]
    # image rows run top to bottom: last axis descending, first axis = columns
    for row in range(height):
        lines.append(" ".join(str(v) for v in pixels[:, height - 1 - row]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measure", choices=("f_measure", "accuracy"),
                   default="f_measure", help="objective to minimize")
    p.add_argument("--beta", type=float, default=1.0, help="F_beta weight")
    p.add_argument("--resolution", type=int, default=None,
                   help="grid cells per axis (default: per-dimension choice)")
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--reinit-every", type=int, default=50,
                   help="redistance the field every this many iterations")
    p.add_argument("--dt", type=float, default=None,
                   help="time step (default: auto from the initial descent)")
    p.add_argument("--lam", type=float, default=None,
                   help="smoothing weight (default: 0.1 * max spacing^2)")
    p.add_argument("--eps-h", type=float, default=None,
                   help="step smoothing width (default: 1.5 * max spacing)")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="stop when the max nodal update falls below this")
    p.add_argument("--descent", choices=("derivative", "G"), default="derivative",
                   help="descent direction: energy derivative or the G surrogate")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="kernel bandwidth override for both class densities")


def _csv_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--label-column", type=int, default=-1,
                   help="index of the label column (default: last)")
    p.add_argument("--positive-value", default="1",
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
    p.add_argument("--seed", type=int, default=0)
    _csv_input_flags(p)
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
    except (DataError, ModelFormatError, DimensionError, OSError) as exc:
        print(f"ofc: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, DegenerateModelError) as exc:
        print(f"ofc: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"ofc: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
