import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofc.data import (
    LabeledDataset,
    gen_db,
    gen_toy1d,
    kfold,
    load_csv,
    load_points,
    load_skin,
    write_csv,
)
from ofc.errors import InsufficientClassError, InvalidDatabaseError, ParseError


class TestGenerators:
    def test_toy_counts_and_means(self):
        data = gen_toy1d(seed=5)
        assert data.dim == 1
        assert data.n_pos == 1000
        assert data.n_neg == 50000
        assert data.positives().mean() == pytest.approx(3.0, abs=0.15)
        assert data.negatives().mean() == pytest.approx(1.0, abs=0.05)
        assert data.positives().std() == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize(
        "which,n_pos,n_neg",
        [(1, 5000, 5000), (2, 1000, 10000), (3, 1000, 10000), (4, 1000, 10000)],
    )
    def test_db_counts(self, which, n_pos, n_neg):
        data = gen_db(which, seed=1)
        assert data.dim == 2
        assert (data.n_pos, data.n_neg) == (n_pos, n_neg)

    def test_db1_ring_radius(self):
        data = gen_db(1, seed=2)
        radius = np.linalg.norm(data.positives(), axis=1)
        assert radius.mean() == pytest.approx(2.0, abs=0.05)

    def test_db3_horseshoe_geometry(self):
        data = gen_db(3, seed=3)
        pos = data.positives()
        radius = np.linalg.norm(pos, axis=1)
        assert radius.min() >= 3.0 - 0.25 - 1e-9
        assert radius.max() <= 3.0 + 0.25 + 1e-9
        assert pos[:, 1].min() >= -1e-9  # half annulus sits in the upper half plane

    def test_determinism(self):
        a, b = gen_db(4, seed=9), gen_db(4, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        c = gen_db(4, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_unknown_db(self):
        with pytest.raises(InvalidDatabaseError):
            gen_db(7)


def _laid_out(points, layout):
    """``points`` with the same values, C-ordered, F-ordered or strided."""
    if layout == "C":
        return np.ascontiguousarray(points)
    if layout == "F":
        return np.asfortranarray(points)
    spread = np.zeros((2 * len(points), 2 * points.shape[1]))
    spread[::2, ::2] = points
    return spread[::2, ::2]


class TestRowSelection:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 30),
        d=st.sampled_from([1, 2, 3]),
        layout=st.sampled_from(["C", "F", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_indexing_byte_for_byte(self, n, d, layout, seed):
        rng = np.random.default_rng(seed)
        points = _laid_out(rng.normal(size=(n, d)), layout)
        data = LabeledDataset(points, rng.random(n) < 0.5)
        assert data.points is points  # the layout reaches the selection
        pts, labels = data.points, data.labels
        pairs = [(data.positives(), pts[labels]), (data.negatives(), pts[~labels])]
        indices = rng.integers(-n, n, size=rng.integers(0, 2 * n))
        mask = rng.random(n) < 0.5
        for idx in (indices, mask):
            part = data.subset(idx)
            pairs += [(part.points, pts[idx]), (part.labels, labels[idx])]
        for got, want in pairs:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_subset_refuses_what_numpy_indexing_refuses(self):
        data = gen_db(1, seed=0).subset(np.arange(10))
        for idx in (np.ones(9, dtype=bool), np.ones(11, dtype=bool), np.array([10]),
                    np.array([-11])):
            with pytest.raises(IndexError):
                data.points[idx]
            with pytest.raises(IndexError):
                data.subset(idx)


class TestKfold:
    def test_partition(self):
        data = gen_db(4, seed=0)
        splits = kfold(data, 10, seed=3)
        assert len(splits) == 10
        n = len(data.labels)
        seen = np.zeros(n, dtype=int)
        for train, test in splits:
            assert np.intersect1d(train, test).size == 0
            assert len(train) + len(test) == n
            seen[test] += 1
        assert (seen == 1).all()

    def test_stratified_balance(self):
        data = gen_db(4, seed=0)
        splits = kfold(data, 10, seed=3)
        pos_counts = [data.labels[test].sum() for _, test in splits]
        assert max(pos_counts) - min(pos_counts) <= 1

    def test_seed_controls_split(self):
        data = gen_db(1, seed=0)
        a = kfold(data, 5, seed=1)
        b = kfold(data, 5, seed=1)
        c = kfold(data, 5, seed=2)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
        assert any(not np.array_equal(x[1], y[1]) for x, y in zip(a, c))

    def test_insufficient_class(self):
        data = LabeledDataset(np.arange(10.0)[:, None], np.arange(10) < 3)
        with pytest.raises(InsufficientClassError):
            kfold(data, 5)


class TestCsv:
    def test_round_trip(self, tmp_path):
        data = gen_db(1, seed=4).subset(np.arange(50))
        path = tmp_path / "data.csv"
        write_csv(data, path)
        back = load_csv(path)
        assert np.array_equal(back.points, data.points)
        assert np.array_equal(back.labels, data.labels)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y,label\n1.0,2.0,1\n3.0,4.0,0\n")
        data = load_csv(path)
        assert len(data.labels) == 2
        assert data.labels.tolist() == [True, False]

    def test_label_column_and_positive_value(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("yes,1.0,2.0\nno,3.0,4.0\n")
        data = load_csv(path, label_column=0, positive_value="yes")
        assert data.labels.tolist() == [True, False]
        assert data.points[1].tolist() == [3.0, 4.0]

    def test_bad_feature_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,1\n2.0,0\noops,1\n")
        with pytest.raises(ParseError, match=":3:"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_label_column_out_of_range(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,1\n")
        with pytest.raises(ParseError):
            load_csv(path, label_column=5)

    def test_load_points_header_and_dropped_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,label,y\n\n1.0,a,2.0\n3.0,b,4.0\n")
        assert load_points(path, drop_column=1).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert load_points(path, drop_column=-2).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ParseError, match=":3:"):
            load_points(path)  # the label column is not numeric

    def test_load_points_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0,5.0\n")
        with pytest.raises(ParseError, match=r"ragged\.csv:3: expected 2 columns, got 3"):
            load_points(path)

    def test_oversized_field_is_parse_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("1.0,1\n" + "9" * 200_000 + ",0\n")
        with pytest.raises(ParseError, match="field larger than field limit"):
            load_csv(path)


class TestSkin:
    def test_load_and_mapping(self, tmp_path, recwarn):
        path = tmp_path / "skin.txt"
        path.write_text("74\t85\t123\t1\n253\t164\t10\t2\n0\t255\t128\t1\n")
        with pytest.warns(UserWarning, match="counts"):
            data = load_skin(path)
        assert data.n_pos == 2 and data.n_neg == 1
        assert data.points[0].tolist() == [74.0, 85.0, 123.0]
        assert ((data.points >= 0) & (data.points <= 255)).all()

    def test_bad_label(self, tmp_path):
        path = tmp_path / "skin.txt"
        path.write_text("74\t85\t123\t3\n")
        with pytest.raises(ParseError, match=":1:"):
            load_skin(path)

    def test_out_of_range_channel(self, tmp_path):
        path = tmp_path / "skin.txt"
        path.write_text("300\t85\t123\t1\n")
        with pytest.raises(ParseError):
            load_skin(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "skin.txt"
        path.write_text("74\t85\tx\t1\n")
        with pytest.raises(ParseError):
            load_skin(path)
