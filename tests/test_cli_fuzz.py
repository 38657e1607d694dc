"""Fuzzed command-line inputs: every run ends in an exit code, never a traceback.

Malformed CSVs, non-finite values, wrong widths, truncated model files and
bad config values must exit 1 (usage), 2 (data) or 3 (numerical).
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ofc.cli import main  # noqa: E402
from ofc.data import LabeledDataset, write_csv  # noqa: E402

FUZZ = settings(max_examples=30, deadline=None)
EXIT_CODES = {0, 1, 2, 3}
SMALL_TRAIN = ("--resolution", "16", "--max-iter", "5", "--reinit-every", "5")

NUMBERS = st.sampled_from(["0", "1", "-2.5", "3e2", "0.125", "4"])
BAD_FEATURES = st.sampled_from(["x", "nan", "inf", "-inf", "1e400", "", "1..2", "--1"])
NON_FINITE = ("nan", "inf", "-inf", "1e400")
# config values: no digits (no huge repetition or grid counts), no comment
# or line breaks (the key keeps exactly this value)
WORDS = st.text(
    st.characters(blacklist_categories=("Cs", "Nd"), blacklist_characters="#\n\r"),
    max_size=8,
)
TOKENS = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "1e200", "-1", "0", "0.0", "1", "2", "3", "1.5",
     "x", ",", "1,,2", "1,nan", "ofc,zz", "G", "accuracy", "derivative"]
)
INT_KEYS = ("subsample", "label_column", "data_seed", "repetitions", "folds",
            "seed", "workers", "reinit_every", "max_iter", "resolution")
FLOAT_KEYS = ("dt", "lam", "eps_h", "tol", "bandwidth")
CONFIG_KEYS = INT_KEYS + FLOAT_KEYS + (
    "positive_value", "classifiers", "betas", "measure", "descent",
)


def run(*args) -> int:
    rc = main([str(a) for a in args])
    assert rc in EXIT_CODES
    return rc


def parses(kind, text) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def separable_csv(workdir):
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal(4.0, 0.3, 30), rng.normal(0.0, 0.3, 30)])[:, None]
    labels = np.arange(60) < 30
    path = workdir / "separable.csv"
    write_csv(LabeledDataset(pts, labels), path)
    return path


@pytest.fixture(scope="module")
def model_1d(workdir, separable_csv):
    path = workdir / "model.txt"
    assert run("train", "--data", separable_csv, "--out", path, *SMALL_TRAIN) == 0
    return path


@FUZZ
@given(text=st.text(max_size=200))
def test_any_csv_text_ends_in_an_exit_code(workdir, model_1d, text):
    src = workdir / "any.csv"
    src.write_text(text, encoding="utf-8", newline="")
    run("train", "--data", src, "--out", workdir / "any_model.txt", *SMALL_TRAIN)
    run("predict", "--model", model_1d, "--data", src, "--out", workdir / "any.out")


@st.composite
def corrupted_tables(draw):
    """Rows of (feature, label) with one malformed row after the first."""
    n = draw(st.integers(2, 8))
    rows = [[draw(NUMBERS), draw(st.sampled_from(["0", "1"]))] for _ in range(n)]
    i = draw(st.integers(1, n - 1))
    how = draw(st.sampled_from(["feature", "extra cell", "missing cell"]))
    if how == "feature":
        rows[i][0] = draw(BAD_FEATURES)
    elif how == "extra cell":
        rows[i].append(draw(NUMBERS))
    else:
        rows[i] = rows[i][:1]
    return "".join(",".join(r) + "\n" for r in rows)


@FUZZ
@given(text=corrupted_tables())
def test_malformed_csv_is_rejected(workdir, model_1d, text):
    src = workdir / "bad.csv"
    src.write_text(text)
    assert run("train", "--data", src, "--out", workdir / "bad_model.txt",
               *SMALL_TRAIN) in {1, 2, 3}
    assert run("predict", "--model", model_1d, "--data", src, "--label-column", -1,
               "--out", workdir / "bad.out") in {1, 2, 3}


@FUZZ
@given(width=st.integers(2, 5), rows=st.integers(1, 4), header=st.booleans())
def test_wrong_width_points_are_data_errors(workdir, model_1d, width, rows, header):
    src = workdir / "wide.csv"
    lines = [",".join("c" for _ in range(width))] if header else []
    lines += [",".join(str(0.5 * (r + c)) for c in range(width)) for r in range(rows)]
    src.write_text("\n".join(lines) + "\n")
    assert run("predict", "--model", model_1d, "--data", src,
               "--out", workdir / "wide.out") == 2


@FUZZ
@given(data=st.data())
def test_truncated_model_is_rejected(workdir, model_1d, separable_csv, data):
    text = model_1d.read_text()
    cut = data.draw(st.integers(0, len(text) - 1))
    src = workdir / "truncated.txt"
    src.write_text(text[:cut])
    # cut before the last value line starts: the field has too few values
    incomplete = cut <= text.rstrip("\n").rfind("\n")
    commands = [
        ("predict", "--model", src, "--data", separable_csv, "--label-column", -1,
         "--out", workdir / "t.out"),
        ("frontier", "--model", src, "--out", workdir / "t.csv"),
        ("field", "--model", src, "--out", workdir / "t.pgm"),
    ]
    for cmd in commands:
        rc = run(*cmd)
        if incomplete:
            assert rc == 2, (cmd[0], cut)


@FUZZ
@given(key=st.sampled_from(CONFIG_KEYS), value=st.one_of(TOKENS, WORDS))
def test_bad_config_value_ends_in_an_exit_code(workdir, separable_csv, key, value):
    cfg = {
        "data": separable_csv, "classifiers": "nb", "repetitions": 1, "folds": 2,
        "betas": "1.0", "resolution": 16, "max_iter": 5,
    }
    cfg[key] = value
    path = workdir / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    rc = run("eval", "--config", path, "--out", workdir / "summary.csv")
    if (key in INT_KEYS and not parses(int, value.strip())) or (
        key in FLOAT_KEYS and not parses(float, value.strip())
    ):
        assert rc == 2  # the value is not a number: a config parse error
    if key == "betas" and value in NON_FINITE:
        assert rc == 1
