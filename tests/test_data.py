"""Tests for dataset ingestion, generators, and splitting."""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsquash.data import (
    Dataset,
    _read_in_one_pass,
    _read_per_cell,
    axis_cell_indices,
    friedman1_mean,
    gen_axis_partition,
    gen_friedman1,
    load_csv,
    read_numeric_csv,
    split,
    write_csv,
)
from rfsquash.errors import DataError


class TestDataset:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="responses length"):
            Dataset(np.zeros(3), np.zeros((4, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([1.0, np.nan]), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.zeros(2), np.array([[1.0], [np.inf]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(0), np.zeros((0, 1)))

    def test_rejects_wrong_shapes_and_name_counts(self):
        with pytest.raises(ValueError, match="features must be 2-D"):
            Dataset(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="responses must be 1-D"):
            Dataset(np.zeros((3, 1)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="1 feature names for 2 columns"):
            Dataset(np.zeros(3), np.zeros((3, 2)), ("a",))

    def test_arrays_are_immutable(self):
        ds = gen_friedman1(5, 0.0, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.responses[0] = 1.0

    def test_default_feature_names(self):
        ds = Dataset(np.zeros(2) + 1, np.ones((2, 3)))
        assert ds.feature_names == ("x1", "x2", "x3")

    def test_fingerprint_tracks_content(self):
        a = gen_friedman1(20, 0.0, seed=0)
        b = gen_friedman1(20, 0.0, seed=0)
        c = gen_friedman1(20, 0.0, seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, "y")
        assert ds.n_rows == 3
        assert ds.n_features == 2
        assert ds.feature_names == ("a", "b")
        np.testing.assert_array_equal(ds.responses, [3, 6, 9])
        np.testing.assert_array_equal(ds.features, [[1, 2], [4, 5], [7, 8]])

    def test_response_column_position_is_free(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y,a\n1,2\n3,4\n")
        ds = load_csv(path, "y")
        np.testing.assert_array_equal(ds.responses, [1, 3])
        np.testing.assert_array_equal(ds.features, [[2], [4]])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,2\n3,abc\n")
        with pytest.raises(DataError, match=r"row 2.*column 'y'"):
            load_csv(path, "y")

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, "y")

    def test_empty_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", "y")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="'y' not found"):
            load_csv(path, "y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path, "y")

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, "y")

    def test_repeated_header_name(self, tmp_path):
        # the one-pass reader declines the file, and the per-cell one names it
        path = tmp_path / "t.csv"
        path.write_text("a,a,y\n1,2,3\n")
        assert _read_in_one_pass(path) is None
        with pytest.raises(DataError, match="duplicate column names in header"):
            load_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2 has 1 fields"):
            load_csv(path, "y")

    def test_round_trip_is_identity(self, tmp_path):
        # round-trip oracle: write then reload reproduces every value
        ds = gen_friedman1(40, 1.3, seed=11)
        path = tmp_path / "rt.csv"
        write_csv(ds, path, response_column="y")
        back = load_csv(path, "y")
        np.testing.assert_allclose(back.responses, ds.responses, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.features, ds.features, rtol=0, atol=1e-12)
        assert back.feature_names == ds.feature_names

    def test_round_trip_extreme_magnitudes(self, tmp_path):
        values = np.array([1e-300, -1e300, 3.141592653589793e-17, 0.0, 7.1e250])
        ds = Dataset(values, values.reshape(-1, 1), ("v",))
        path = tmp_path / "extreme.csv"
        write_csv(ds, path)
        back = load_csv(path, "y")
        np.testing.assert_array_equal(back.responses, values)
        np.testing.assert_array_equal(back.features[:, 0], values)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,y\n1,2\n\n3,4\n", "row 2 has 0 fields, expected 2"),
            ("a,y\r\n1,2\r\n3,4\r\n\r\n", "row 3 has 0 fields, expected 2"),
            ("a,y\n1,2\n   \n", "row 2 has 1 fields, expected 2"),
            ("a,y\n\n\n", "row 1 has 0 fields, expected 2"),
            ("a,y\n1,2\n#3,4\n", "non-numeric value '#3' at row 2, column 'a'"),
            ("a,y\n1,nan\n", "non-finite value 'nan' at row 1, column 'y'"),
        ],
    )
    def test_lines_the_one_pass_would_misread_keep_their_errors(self, tmp_path, text, message):
        # np.loadtxt skips blank lines (and warns when no other line is left)
        # and reads nan; "#" would be a comment but for comments=None
        path = tmp_path / "t.csv"
        path.write_text(text, newline="")
        assert _read_in_one_pass(path) is None
        with pytest.raises(DataError) as info:
            read_numeric_csv(path)
        assert str(info.value) == message

    def test_cell_past_the_csv_field_limit_is_still_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,0." + "0" * csv.field_size_limit() + "5\n")
        with pytest.raises(DataError, match=r"field larger than field limit \(\d+\) at line 2"):
            read_numeric_csv(path)

    def test_header_name_past_the_csv_field_limit_is_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a" * (csv.field_size_limit() + 1) + ",y\n1,2\n")
        with pytest.raises(DataError, match=r"field larger than field limit \(\d+\) at line 1"):
            read_numeric_csv(path)

    def test_file_that_is_not_utf8_names_the_byte_offset(self, tmp_path):
        # past the text reader's decoding chunk, whose own offsets restart
        path = tmp_path / "t.csv"
        data = b"a,y\n" + b"0.125,0.5\n" * 1000 + b"1,2\xff\n"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        assert offset > 8192
        with pytest.raises(DataError) as info:
            read_numeric_csv(path)
        assert str(info.value) == f"{path} is not UTF-8: byte 0xff at offset {offset}"

    @pytest.mark.parametrize("ended", [True, False])
    @pytest.mark.parametrize("newline", ["\r\n", "\n"])
    def test_written_files_take_the_one_pass(self, tmp_path, newline, ended):
        # lone \r line ends go through the per-cell reader
        ds = gen_friedman1(25, 1.0, seed=4)
        path = tmp_path / "w.csv"
        write_csv(ds, path)
        text = path.read_bytes().decode().replace("\r\n", newline)
        path.write_text(text if ended else text[: -len(newline)], newline="")
        header, values = _read_in_one_pass(path)
        assert header == list(ds.feature_names) + ["y"]
        assert values.tobytes() == np.column_stack([ds.features, ds.responses]).tobytes()

    def test_written_bytes_are_pinned(self, tmp_path):
        """SHA-256 of a write_csv file holding extreme magnitudes, -0.0 and a
        subnormal, pinned so that any drift in the written format fails here."""
        base = gen_friedman1(30, 1.0, seed=5)
        extreme = np.array(
            [1e-300, -1e300, 5e-324, -0.0, 0.1, 1 / 3, 2.0**53,
             np.finfo(np.float64).max, -2.5e-8, 123456789.125] * 3
        )
        ds = Dataset(
            base.responses,
            np.column_stack([base.features, extreme]),
            tuple(f"c{j}" for j in range(11)),
        )
        path = tmp_path / "w.csv"
        write_csv(ds, path, response_column="target")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1a4e3d2b92c4fd07c107183051467b9c70b636ea3ae24265a3be44910b85f58d"
        )

    def test_rows_match_the_format_spec_rendering(self, tmp_path):
        # write_csv renders each row with one %-format; every cell must come
        # out as str.format's "{:.17g}" would write it
        values = np.array([-0.0, 5e-324, np.finfo(np.float64).max, 1e16, 0.1, 1 / 3])
        ds = Dataset(values[::-1].copy(), np.column_stack([values, -values]), ("a", "b"))
        path = tmp_path / "w.csv"
        write_csv(ds, path)
        expected = "a,b,y\r\n" + "".join(
            ",".join("{:.17g}".format(cell) for cell in row) + "\r\n"
            for row in np.column_stack([ds.features, ds.responses]).tolist()
        )
        assert path.read_bytes() == expected.encode()


_CELL_FORMS = (repr, "{:.17g}".format, "{:.3g}".format, "{:e}".format, " {} ".format)
# float() reads the first three (to non-finite values), "1_000", the
# full-width "12" and " 2.5\t"; np.loadtxt reads only the first three and
# " 2.5\t". Neither reads the rest, though loadtxt would read "5#6" as 5 with
# "#" as its comment mark.
_ODD_CELLS = ("nan", "inf", "-Infinity", "1_000", "\uff11\uff12", '"1.5"', " 2.5\t",
              "", "#3", "5#6", "0x10")
_ODD_LINES = ("", "   ", "# comment", "1")
_LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def _csv_texts(draw):
    """A headered numeric CSV text with up to two injected oddities."""
    width = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = [
        [draw(st.sampled_from(_CELL_FORMS))(draw(finite)) for _ in range(width)]
        for _ in range(draw(st.integers(1, 5)))
    ]
    lines = [",".join(f"c{j}" for j in range(width))]
    lines[0] = draw(st.sampled_from(["", "\ufeff"])) + lines[0]
    lines += [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines) - 1))
        kind = draw(st.sampled_from(["cell", "line", "ragged"]))
        if kind == "cell":
            cells = lines[at].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_ODD_CELLS))
            lines[at] = ",".join(cells)
        elif kind == "line":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(_ODD_LINES)))
        else:
            lines[at] = lines[at].rpartition(",")[0] if width > 1 else lines[at] + ",0"
    if draw(st.booleans()):
        ends = [draw(st.sampled_from(_LINE_ENDS))] * len(lines)
    else:
        ends = [draw(st.sampled_from(_LINE_ENDS)) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(read, path):
    try:
        header, values = read(path)
    except DataError as exc:
        return str(exc)
    return header, values.shape, values.tobytes()


@settings(max_examples=400, deadline=None)
@given(text=_csv_texts())
def test_read_numeric_csv_matches_the_per_cell_reader(tmp_path_factory, text):
    """Whichever parser reads a file, the header and the values are those of
    the per-cell reader, bit for bit, or the error message is its message."""
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(read_numeric_csv, path) == _outcome(_read_per_cell, path)


class TestFriedman1:
    def test_noiseless_matches_formula(self):
        ds = gen_friedman1(50, 0.0, seed=3)
        x = ds.features
        expected = (
            10 * np.sin(np.pi * x[:, 0] * x[:, 1])
            + 20 * (x[:, 2] - 0.5) ** 2
            + 10 * x[:, 3]
            + 5 * x[:, 4]
        )
        np.testing.assert_allclose(ds.responses, expected, atol=1e-12, rtol=0)

    def test_deterministic(self):
        a = gen_friedman1(100, 0.7, seed=5)
        b = gen_friedman1(100, 0.7, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.responses, b.responses)

    def test_shape(self):
        ds = gen_friedman1(7, 0.0, seed=0)
        assert ds.n_rows == 7
        assert ds.n_features == 10

    def test_mean_against_independent_monte_carlo(self):
        # Independent oracle: estimate E[y] from a separately coded draw with
        # a different generator stream, compare within 3 standard errors.
        n = 100_000
        ds = gen_friedman1(n, 0.0, seed=21)
        oracle_rng = np.random.default_rng(987654321)
        u = oracle_rng.random((200_000, 5))
        oracle_y = (
            10 * np.sin(np.pi * u[:, 0] * u[:, 1])
            + 20 * (u[:, 2] - 0.5) ** 2
            + 10 * u[:, 3]
            + 5 * u[:, 4]
        )
        se = np.sqrt(oracle_y.var() / n + oracle_y.var() / u.shape[0])
        assert abs(ds.responses.mean() - oracle_y.mean()) < 3 * se

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_sd"):
            gen_friedman1(10, -0.1, seed=0)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            gen_friedman1(0, 0.0, seed=0)

    def test_friedman1_mean_helper_matches(self):
        ds = gen_friedman1(10, 0.0, seed=4)
        np.testing.assert_allclose(friedman1_mean(ds.features), ds.responses, atol=1e-12)


class TestAxisPartition:
    def test_single_threshold_definition(self):
        ds = gen_axis_partition(500, [(0, 0.5)], [2.0, 4.0], seed=0)
        low = ds.features[:, 0] <= 0.5
        np.testing.assert_array_equal(ds.responses[low], 2.0)
        np.testing.assert_array_equal(ds.responses[~low], 4.0)

    def test_codomain_two_features(self):
        ds = gen_axis_partition(
            300, [(0, 0.5), (1, 0.5)], [1.0, 2.0, 3.0, 4.0], seed=1
        )
        assert set(np.unique(ds.responses)) <= {1.0, 2.0, 3.0, 4.0}

    def test_cell_ordering(self):
        thresholds = [(0, 0.5), (1, 0.5)]
        x = np.array([[0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]])
        np.testing.assert_array_equal(axis_cell_indices(x, thresholds), [0, 1, 2, 3])

    def test_point_on_cut_belongs_to_lower_interval(self):
        idx = axis_cell_indices(np.array([[0.5]]), [(0, 0.5)])
        assert idx[0] == 0

    def test_cell_fraction_binomial_oracle(self):
        n = 4000
        ds = gen_axis_partition(n, [(0, 0.5), (1, 0.5)], [1.0, 2.0, 3.0, 4.0], seed=7)
        in_cell = (ds.features[:, 0] <= 0.5) & (ds.features[:, 1] <= 0.5)
        frac = in_cell.mean()
        assert abs(frac - 0.25) < 3 * np.sqrt(0.25 * 0.75 / n)

    def test_value_count_mismatch(self):
        with pytest.raises(ValueError, match="leaf values for 2 cells"):
            gen_axis_partition(10, [(0, 0.5)], [1.0, 2.0, 3.0], seed=0)

    def test_duplicate_threshold_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            gen_axis_partition(10, [(0, 0.5), (0, 0.5)], [1.0, 2.0, 3.0], seed=0)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            gen_axis_partition(10, [], [1.0], seed=0)

    def test_extra_feature_dims(self):
        ds = gen_axis_partition(20, [(0, 0.5)], [1.0, 2.0], seed=0, p=4)
        assert ds.n_features == 4

    def test_deterministic(self):
        a = gen_axis_partition(50, [(1, 0.3)], [0.0, 1.0], seed=9)
        b = gen_axis_partition(50, [(1, 0.3)], [0.0, 1.0], seed=9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_multiple_cuts_same_feature(self):
        ds = gen_axis_partition(200, [(0, 0.3), (0, 0.7)], [1.0, 2.0, 3.0], seed=2)
        x0 = ds.features[:, 0]
        np.testing.assert_array_equal(ds.responses[x0 <= 0.3], 1.0)
        np.testing.assert_array_equal(ds.responses[(x0 > 0.3) & (x0 <= 0.7)], 2.0)
        np.testing.assert_array_equal(ds.responses[x0 > 0.7], 3.0)


class TestSplit:
    def test_sizes(self):
        ds = gen_friedman1(10, 0.0, seed=0)
        pair = split(ds, 0.2, seed=1)
        assert pair.test.n_rows == 2
        assert pair.train.n_rows == 8

    def test_deterministic(self):
        ds = gen_friedman1(30, 0.5, seed=0)
        a = split(ds, 0.3, seed=4)
        b = split(ds, 0.3, seed=4)
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.test.responses, b.test.responses)

    def test_multiset_union_equals_source(self):
        # multiset-equality oracle: sort all rows of both parts and compare
        ds = gen_friedman1(25, 1.0, seed=2)
        pair = split(ds, 0.4, seed=8)
        combined = np.vstack([pair.train.features, pair.test.features])
        combined_y = np.concatenate([pair.train.responses, pair.test.responses])
        order_a = np.lexsort(combined.T)
        order_b = np.lexsort(ds.features.T)
        np.testing.assert_array_equal(combined[order_a], ds.features[order_b])
        np.testing.assert_array_equal(combined_y[order_a], ds.responses[order_b])

    def test_fraction_bounds(self):
        ds = gen_friedman1(10, 0.0, seed=0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                split(ds, bad, seed=0)

    def test_degenerate_split(self):
        ds = gen_friedman1(2, 0.0, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            split(ds, 0.01, seed=0)
