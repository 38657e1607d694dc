"""End-to-end command-line checks: every subcommand, exit codes, determinism."""
from dataclasses import replace

import numpy as np
import pytest

from ofc.cli import main
from ofc.data import LabeledDataset, load_csv, write_csv


def run(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def separable_csv(workdir):
    rng = np.random.default_rng(1)
    pos = rng.normal(4.0, 0.3, size=30)
    neg = rng.normal(0.0, 0.3, size=30)
    pts = np.concatenate([pos, neg])[:, None]
    labels = np.concatenate([np.ones(30, bool), np.zeros(30, bool)])
    path = workdir / "separable.csv"
    write_csv(LabeledDataset(pts, labels), path)
    return path


@pytest.fixture(scope="module")
def model_1d(workdir, separable_csv):
    path = workdir / "model1d.txt"
    rc = run(
        "train", "--data", separable_csv, "--out", path,
        "--trace", workdir / "trace1d.csv",
        "--resolution", 64, "--max-iter", 150, "--reinit-every", 25,
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def model_2d(workdir):
    data = workdir / "db4small.csv"
    assert run("gen", "--db", "db4", "--seed", 1, "--out", data,
               "--subsample", 300) == 0
    path = workdir / "model2d.txt"
    rc = run(
        "train", "--data", data, "--out", path,
        "--resolution", 16, "--max-iter", 20, "--reinit-every", 10,
    )
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_loadable_csv(tmp_path):
    out = tmp_path / "toy.csv"
    assert run("gen", "--db", "toy", "--seed", 0, "--out", out,
               "--subsample", 500) == 0
    data = load_csv(out)
    assert data.points.shape == (500, 1)
    assert 0 < data.n_pos < 500  # imbalanced but both classes present


def test_gen_2d_database(tmp_path):
    out = tmp_path / "db3.csv"
    assert run("gen", "--db", "db3", "--seed", 0, "--out", out,
               "--subsample", 300) == 0
    data = load_csv(out)
    assert data.points.shape == (300, 2)


def test_gen_deterministic_per_seed(tmp_path):
    paths = [tmp_path / n for n in ("a.csv", "b.csv", "c.csv")]
    assert run("gen", "--db", "db1", "--seed", 7, "--out", paths[0],
               "--subsample", 100) == 0
    assert run("gen", "--db", "db1", "--seed", 7, "--out", paths[1],
               "--subsample", 100) == 0
    assert run("gen", "--db", "db1", "--seed", 8, "--out", paths[2],
               "--subsample", 100) == 0
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b
    assert a != c


def test_gen_rejects_unknown_database(tmp_path, capsys):
    assert run("gen", "--db", "db9", "--out", tmp_path / "x.csv") == 1
    assert "db9" in capsys.readouterr().err


def test_gen_unwritable_path_is_data_error(tmp_path):
    assert run("gen", "--db", "toy", "--out", tmp_path / "no" / "dir.csv") == 2


@pytest.mark.parametrize("subsample", [0, -5])
def test_gen_subsample_below_one_is_usage_error(tmp_path, capsys, subsample):
    out = tmp_path / "x.csv"
    assert run("gen", "--db", "toy", "--out", out, "--subsample", subsample) == 1
    assert "subsample must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / predict


def test_train_writes_model_and_trace(workdir, model_1d):
    assert model_1d.exists()
    trace = (workdir / "trace1d.csv").read_text()
    assert trace.startswith("# ")
    assert "iteration,energy,max_update,reinit" in trace


def test_predict_round_trip(workdir, model_1d, separable_csv):
    out = workdir / "labels.csv"
    assert run("predict", "--model", model_1d, "--data", separable_csv,
               "--label-column", -1, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "label"
    got = np.array([int(v) for v in lines[1:]], dtype=bool)
    truth = load_csv(separable_csv).labels
    assert got.shape == truth.shape
    assert np.mean(got == truth) >= 0.97


def test_predict_feature_only_csv(tmp_path, model_1d):
    src = tmp_path / "points.csv"
    src.write_text("x\n-0.5\n0.1\n3.9\n4.2\n")
    out = tmp_path / "labels.csv"
    assert run("predict", "--model", model_1d, "--data", src, "--out", out) == 0
    assert out.read_text() == "label\n0\n0\n1\n1\n"


def test_train_missing_file_is_data_error(tmp_path):
    assert run("train", "--data", tmp_path / "absent.csv",
               "--out", tmp_path / "m.txt") == 2


def test_train_invalid_flag_value_is_usage_error(tmp_path, separable_csv, capsys):
    for beta in ("-1.0", "nan", "inf", "1e200"):
        assert run("train", "--data", separable_csv, "--out", tmp_path / "m.txt",
                   "--beta", beta) == 1
        assert "beta must be positive and finite" in capsys.readouterr().err
    # a beta whose square underflows is refused by name, with the class counts
    assert run("train", "--data", separable_csv, "--out", tmp_path / "m.txt",
               "--beta", "1e-170") == 1
    assert ("beta 1e-170 is too small for 30 positives and 30 negatives: "
            "k = beta**2 * 30 / 30 underflows to 0") in capsys.readouterr().err
    # squares that overflow: eps_h**2 in the energy, bandwidth**2 in the KDE
    assert run("train", "--data", separable_csv, "--out", tmp_path / "m.txt",
               "--eps-h", "1e200") == 1
    assert "eps_h must have a finite square" in capsys.readouterr().err
    assert run("train", "--data", separable_csv, "--out", tmp_path / "m.txt",
               "--bandwidth", "1e200") == 2
    assert "bandwidth must be positive and finite, with a finite square" in (
        capsys.readouterr().err)
    assert not (tmp_path / "m.txt").exists()
    # a subnormal square leaves k positive, so the run goes ahead
    assert run("train", "--data", separable_csv, "--out", tmp_path / "tiny.txt",
               "--beta", "1e-160") in (0, 3)
    assert "too small" not in capsys.readouterr().err


def test_train_out_of_memory_is_usage_error(tmp_path, separable_csv, monkeypatch,
                                            capsys):
    import ofc.cli

    def oversized_fit(data, cfg, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(ofc.cli, "fit", oversized_fit)
    assert run("train", "--data", separable_csv, "--out", tmp_path / "m.txt",
               "--resolution", 100000) == 1
    err = capsys.readouterr().err
    assert "usage error: out of memory: Unable to allocate 74.5 GiB" in err
    assert "Traceback" not in err


def test_train_without_flags_uses_library_defaults(tmp_path, separable_csv, monkeypatch):
    import ofc.cli
    from ofc.solver import TrainConfig

    seen = {}

    def fake_fit(data, cfg, **kwargs):
        seen.update(cfg=cfg, kwargs=kwargs)
        raise ValueError("stop here")

    monkeypatch.setattr(ofc.cli, "fit", fake_fit)
    assert run("train", "--data", separable_csv, "--out", tmp_path / "m.txt") == 1
    assert seen == {"cfg": TrainConfig(), "kwargs": {}}


def test_degenerate_training_run_exits_numerical(tmp_path, separable_csv,
                                                 monkeypatch, capsys):
    import ofc.cli
    from ofc.classifier import fit, load

    def one_class_fit(data, cfg, **kwargs):
        model, trace = fit(data, cfg, **kwargs)
        model = replace(model, u=model.u.with_values(-np.abs(model.u.values) - 1.0),
                        degenerate=True)
        return model, trace

    monkeypatch.setattr(ofc.cli, "fit", one_class_fit)
    model, trace = tmp_path / "m.txt", tmp_path / "t.csv"
    assert run("train", "--data", separable_csv, "--out", model, "--trace", trace,
               "--resolution", 16, "--max-iter", 5) == 3
    err = capsys.readouterr().err
    assert "max-iter, degenerate after 5 iterations" in err
    assert "numerical failure" in err and "never changes sign" in err
    assert load(model).degenerate  # model and trace are still written
    assert trace.read_text().startswith("# ")


def test_train_prints_the_run_diagnostics(tmp_path, separable_csv, capsys):
    trace = tmp_path / "t.csv"
    assert run("train", "--data", separable_csv, "--out", tmp_path / "m.txt",
               "--trace", trace, "--resolution", 16, "--max-iter", 5, "--dt", 1e6) == 0
    err = capsys.readouterr().err
    header = dict(line[2:].split("=", 1) for line in trace.read_text().splitlines()
                  if line.startswith("# "))
    assert int(header["dt_halvings"]) > 0
    assert f"dt halvings {header['dt_halvings']}," in err
    residual = float(header["stationarity_residual"])
    assert f"stationarity residual {residual:.3g}," in err
    assert "energy ascent " + ("yes" if header["energy_ascent"] == "1" else "no") in err


def test_train_prints_the_returned_field_and_phase_times(tmp_path, separable_csv, capsys):
    trace = tmp_path / "t.csv"
    assert run("train", "--data", separable_csv, "--out", tmp_path / "m.txt",
               "--trace", trace, "--resolution", 16, "--max-iter", 5) == 0
    err = capsys.readouterr().err
    header = dict(line[2:].split("=", 1) for line in trace.read_text().splitlines()
                  if line.startswith("# "))
    score, gap = float(header["sign_pattern_energy"]), float(header["optimality_gap"])
    assert (f"returned the field of iteration {header['best_iteration']}, "
            f"sign-pattern energy {score:.6g}, optimality gap {gap:.3g}") in err
    times = err.split("seconds: ", 1)[1].splitlines()[0]
    assert [part.split()[0] for part in times.split(", ")] == [
        "kde", "start", "step", "evaluate", "reinit"
    ]
    assert "seconds" not in trace.read_text()


def test_frontier_of_degenerate_model_is_numerical_error(tmp_path):
    from ofc.classifier import TrainedClassifier, save
    from ofc.field import GridSpec, ScalarField
    from ofc.solver import TrainConfig

    grid = GridSpec(bounds=((0.0, 1.0),), resolution=8)
    one_class = TrainedClassifier(
        u=ScalarField(grid, np.ones(grid.shape)),
        kind="f_measure", beta=1.0, k=0.5, config=TrainConfig(),
        densities_hash="0" * 64, degenerate=True,
    )
    path = tmp_path / "degenerate.txt"
    save(one_class, path)
    assert run("frontier", "--model", path, "--out", tmp_path / "f.csv") == 3


def test_predict_on_malformed_model_is_data_error(tmp_path, separable_csv):
    junk = tmp_path / "junk.txt"
    junk.write_text("not a model\n")
    assert run("predict", "--model", junk, "--data", separable_csv,
               "--label-column", -1, "--out", tmp_path / "l.csv") == 2


def test_predict_on_non_finite_points_is_data_error(tmp_path, model_1d, capsys):
    src = tmp_path / "points.csv"
    src.write_text("x\n0.1\nnan\n")
    assert run("predict", "--model", model_1d, "--data", src,
               "--out", tmp_path / "l.csv") == 2
    assert "data error" in capsys.readouterr().err


def test_predict_with_wrong_width_is_data_error(tmp_path, model_2d, capsys):
    src = tmp_path / "points.csv"
    src.write_text("0.1,0.2,0.3\n1.0,1.1,1.2\n")
    assert run("predict", "--model", model_2d, "--data", src,
               "--out", tmp_path / "l.csv") == 2
    err = capsys.readouterr().err
    assert "data error" in err and "3 coords, grid has 2" in err


def test_train_on_non_finite_points_is_data_error(tmp_path, capsys):
    src = tmp_path / "train.csv"
    src.write_text("0.1,1\ninf,0\n0.2,0\n")
    assert run("train", "--data", src, "--out", tmp_path / "m.txt") == 2
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# frontier / field


def test_frontier_crosses_the_class_gap(tmp_path, model_1d):
    out = tmp_path / "front.csv"
    assert run("frontier", "--model", model_1d, "--out", out) == 0
    taus = [float(v) for v in out.read_text().split()]
    assert taus == sorted(taus)
    assert any(1.0 < t < 3.0 for t in taus)


def test_field_pgm_1d(tmp_path, model_1d):
    out = tmp_path / "u.pgm"
    assert run("field", "--model", model_1d, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "P2"
    body = [l for l in lines[1:] if not l.startswith("#")]
    assert body[0] == "65 1"  # 64 cells -> 65 nodes, one row
    assert body[1] == "255"
    pixels = [int(v) for v in body[2].split()]
    assert len(pixels) == 65
    assert min(pixels) == 0 and max(pixels) == 255


def test_field_pgm_is_the_library_writer(tmp_path, model_2d):
    from ofc.classifier import load
    from ofc.field import write_pgm

    out, ref = tmp_path / "cli.pgm", tmp_path / "lib.pgm"
    assert run("field", "--model", model_2d, "--out", out) == 0
    write_pgm(load(model_2d).u, ref)
    assert out.read_bytes() == ref.read_bytes()


def test_field_pgm_2d(tmp_path, model_2d):
    out = tmp_path / "u2.pgm"
    assert run("field", "--model", model_2d, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "P2"
    body = [l for l in lines[1:] if not l.startswith("#")]
    assert body[0] == "17 17"
    rows = [[int(v) for v in r.split()] for r in body[2:]]
    assert len(rows) == 17
    assert all(len(r) == 17 and all(0 <= v <= 255 for v in r) for r in rows)


# ---------------------------------------------------------------------------
# eval / sweep-beta


def eval_config(path, csv_path, **overrides):
    base = {
        "data": csv_path,
        "classifiers": "nb,oracle",
        "repetitions": 2,
        "folds": 2,
        "betas": "0.5,1.0",
        "seed": 5,
        "workers": 2,
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def test_eval_writes_summary_and_raw(tmp_path, separable_csv, capsys):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv)
    out, raw = tmp_path / "summary.csv", tmp_path / "raw.csv"
    assert run("eval", "--config", cfg, "--out", out, "--raw", raw) == 0
    err = capsys.readouterr().err
    assert "experiment: 16 cells in " in err and "(0 failed)" in err
    data_rows = [
        l for l in out.read_text().splitlines()
        if l and not l.startswith(("#", "classifier"))
    ]
    assert len(data_rows) == 4  # 2 classifiers x 2 betas
    assert {r.split(",")[0] for r in data_rows} == {"nb", "oracle"}
    raw_rows = [
        l for l in raw.read_text().splitlines()
        if l and not l.startswith(("#", "classifier"))
    ]
    assert len(raw_rows) == 16  # x 2 repetitions x 2 folds


def test_eval_reruns_are_byte_identical(tmp_path, separable_csv):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv)
    outs = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    raws = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for o, r in zip(outs, raws):
        assert run("eval", "--config", cfg, "--out", o, "--raw", r) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert raws[0].read_bytes() == raws[1].read_bytes()


def test_eval_seed_flag_changes_fold_assignment(tmp_path):
    toy = tmp_path / "toy.csv"
    assert run("gen", "--db", "toy", "--seed", 0, "--out", toy,
               "--subsample", 800) == 0
    cfg = eval_config(tmp_path / "exp.cfg", toy, classifiers="nb",
                      repetitions=1, folds=4, betas="1.0")
    raws = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    assert run("eval", "--config", cfg, "--out", tmp_path / "s1.csv",
               "--raw", raws[0]) == 0
    assert run("eval", "--config", cfg, "--out", tmp_path / "s2.csv",
               "--raw", raws[1], "--seed", 9) == 0
    assert raws[0].read_bytes() != raws[1].read_bytes()


def test_eval_unknown_config_key_is_data_error(tmp_path, separable_csv):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv, typo_key="1")
    assert run("eval", "--config", cfg, "--out", tmp_path / "s.csv") == 2


def test_eval_non_finite_beta_is_usage_error(tmp_path, separable_csv, capsys):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv, betas="nan")
    out = tmp_path / "s.csv"
    assert run("eval", "--config", cfg, "--out", out) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_eval_oracle_on_multi_feature_data_is_usage_error(tmp_path, capsys):
    cfg = eval_config(tmp_path / "exp.cfg", "db4")
    out = tmp_path / "s.csv"
    assert run("eval", "--config", cfg, "--out", out) == 1
    assert "got 2-D" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("keys", [
    {"classifiers": "ofc", "measure": "gini"},
    {"classifiers": "ofc,nb", "measure": "gini"},
    {"classifiers": "ofc", "measure": "accuracy", "descent": "G"},
])
def test_eval_bad_measure_is_usage_error(tmp_path, separable_csv, capsys, keys):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv, **keys)
    out = tmp_path / "s.csv"
    assert run("eval", "--config", cfg, "--out", out) == 1
    assert "cell failed" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "sweep-beta"])
@pytest.mark.parametrize("keys", [{"classifiers": "nb, nb"}, {"betas": "1.0,1"}])
def test_repeated_cells_are_usage_error(tmp_path, separable_csv, capsys, command, keys):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv, **keys)
    out = tmp_path / "s.csv"
    assert run(command, "--config", cfg, "--out", out) == 1
    assert "must not repeat" in capsys.readouterr().err
    assert not out.exists()


def test_train_flags_come_from_the_config_parsers():
    from ofc.cli import build_parser
    from ofc.energy import _DESCENTS
    from ofc.solver import CONFIG_PARSERS

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    actions = sub.choices["train"]._actions
    for name, parse in CONFIG_PARSERS.items():
        flags = [a for a in actions if a.dest == name]
        if name == "init":
            assert not flags
            continue
        assert len(flags) == 1, name
        assert flags[0].option_strings == ["--" + name.replace("_", "-")]
        assert flags[0].type is parse and flags[0].default is None
    (descent,) = [a for a in actions if a.dest == "descent"]
    assert tuple(descent.choices) == _DESCENTS


def test_eval_subsample_below_one_is_usage_error(tmp_path, separable_csv):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv, subsample=0)
    assert run("eval", "--config", cfg, "--out", tmp_path / "s.csv") == 1


def test_eval_missing_data_key_is_data_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("classifiers = nb\n")
    assert run("eval", "--config", cfg, "--out", tmp_path / "s.csv") == 2


@pytest.mark.parametrize("command", ["eval", "sweep-beta"])
def test_every_cell_failing_is_numerical_failure(tmp_path, separable_csv, capsys, command):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv, classifiers="ofc",
                      repetitions=1, bandwidth="1e200")
    out = tmp_path / "out.csv"
    assert run(command, "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.count("cell failed: ") == 4  # 2 betas x 2 folds
    assert "numerical failure: every cell failed" in err
    assert out.exists()  # written all the same


@pytest.mark.parametrize("command", ["eval", "sweep-beta"])
def test_some_cells_failing_still_succeeds(tmp_path, separable_csv, capsys, command):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv, classifiers="nb,ofc",
                      repetitions=1, bandwidth="1e200")
    assert run(command, "--config", cfg, "--out", tmp_path / "out.csv") == 0
    assert capsys.readouterr().err.count("cell failed: ") == 4  # ofc's, not nb's


@pytest.mark.parametrize("command", ["eval", "sweep-beta"])
def test_degenerate_models_are_failed_cells(tmp_path, separable_csv, capsys,
                                            monkeypatch, command):
    import ofc.harness

    fit = ofc.harness.ofc_fit

    def one_class_fit(*args, **kwargs):
        model, trace = fit(*args, **kwargs)
        return replace(model, degenerate=True), trace

    monkeypatch.setattr(ofc.harness, "ofc_fit", one_class_fit)
    for classifiers, code in (("nb,ofc", 0), ("ofc", 3)):
        cfg = eval_config(tmp_path / "exp.cfg", separable_csv, classifiers=classifiers,
                          repetitions=1, resolution=16, max_iter=10)
        assert run(command, "--config", cfg, "--out", tmp_path / "out.csv") == code
        err = capsys.readouterr().err
        assert err.count("cell failed: ") == 4  # ofc's 2 betas x 2 folds
        assert err.count("DegenerateModelError: ") == 4


def test_sweep_beta_one_row_per_beta(tmp_path, separable_csv):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv, classifiers="nb",
                      repetitions=1)
    out = tmp_path / "sweep.csv"
    assert run("sweep-beta", "--config", cfg, "--out", out,
               "--betas", "0.5,1.0,2.0") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,nb"
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.5, 1.0, 2.0]
    assert all(0.0 <= float(l.split(",")[1]) <= 100.0 for l in lines[1:])


def test_sweep_beta_rejects_nonpositive_beta(tmp_path, separable_csv):
    cfg = eval_config(tmp_path / "exp.cfg", separable_csv, classifiers="nb")
    assert run("sweep-beta", "--config", cfg, "--out", tmp_path / "s.csv",
               "--betas", "-1.0") == 1


# ---------------------------------------------------------------------------
# top-level behavior


def test_undecodable_input_is_data_error(tmp_path, model_1d, separable_csv, capsys):
    binary = tmp_path / "binary.bin"
    binary.write_bytes(bytes(range(256)) * 4)
    out = tmp_path / "out.txt"
    commands = [
        ("train", "--data", binary, "--out", out),
        ("predict", "--model", model_1d, "--data", binary, "--out", out),
        ("predict", "--model", binary, "--data", separable_csv, "--out", out),
        ("eval", "--config", binary, "--out", out),
    ]
    for cmd in commands:
        assert run(*cmd) == 2, cmd
        assert "data error" in capsys.readouterr().err


def test_help_exits_cleanly():
    assert run("--help") == 0


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1
