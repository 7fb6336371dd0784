"""Container validation and file round trips."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

from madkit import data as data_module
from madkit.data import (
    CsvFormatError,
    DetectorModel,
    GpdParameters,
    ModelFormatError,
    SeriesMatrix,
    SmoothConfig,
    _read_labels_bulk,
    _read_labels_rows,
    as_labels,
    load_csv,
    load_headerless,
    load_labels,
    load_model,
    save_csv,
    save_model,
    split,
    write_table,
)
from madkit.scoring import ScatterFit


def make_matrix(n=3, t=10, seed=0):
    rng = np.random.default_rng(seed)
    return SeriesMatrix(
        names=[f"x{i}" for i in range(n)],
        values=rng.standard_normal((n, t)),
    )


# ---------------------------------------------------------------------------
# SeriesMatrix


def test_matrix_shape_properties():
    m = make_matrix(n=4, t=7)
    assert m.n_vars == 4
    assert m.n_times == 7
    assert m.values.dtype == np.float64


def test_matrix_rejects_wrong_name_count():
    with pytest.raises(ValueError, match="names"):
        SeriesMatrix(names=["a"], values=np.zeros((2, 5)))


def test_matrix_rejects_duplicate_names():
    with pytest.raises(ValueError, match="unique"):
        SeriesMatrix(names=["a", "a"], values=np.zeros((2, 5)))


def test_matrix_rejects_1d_values():
    with pytest.raises(ValueError, match="2-D"):
        SeriesMatrix(names=["a"], values=np.zeros(5))


def test_matrix_accepts_one_observation_not_none():
    # one column is one smoothing window's output; a file needs two rows
    assert SeriesMatrix(names=["a"], values=np.zeros((1, 1))).n_times == 1
    with pytest.raises(ValueError, match="need at least one observation"):
        SeriesMatrix(names=["a"], values=np.zeros((1, 0)))


def test_matrix_names_nonfinite_position():
    values = np.zeros((2, 4))
    values[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"'b'.*position 2"):
        SeriesMatrix(names=["a", "b"], values=values)


def test_matrix_rejects_infinity():
    values = np.ones((1, 3))
    values[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        SeriesMatrix(names=["a"], values=values)


def test_matrix_slice_time_takes_columns():
    m = make_matrix(n=2, t=10)
    sub = m.slice_time(3, 8)
    assert sub.n_times == 5
    assert np.array_equal(sub.values, m.values[:, 3:8])


def test_matrix_has_no_period_field():
    with pytest.raises(TypeError, match="period_seconds"):
        SeriesMatrix(names=["a"], values=np.zeros((1, 3)), period_seconds=1.0)


def test_matrix_has_no_time_offset_field():
    # the smoothed timeline's shift lives in DetectionResult.time_offset
    with pytest.raises(TypeError, match="time_offset"):
        SeriesMatrix(names=["a"], values=np.zeros((1, 3)), time_offset=0)


# ---------------------------------------------------------------------------
# labels and splitting


def test_labels_accept_only_zero_one():
    labels = as_labels(np.array([0, 1, 1, 0]))
    assert labels.dtype == np.int8
    assert labels.tolist() == [0, 1, 1, 0]
    assert as_labels(np.array([True, False])).tolist() == [1, 0]
    for bad in ([0, 2], [0.5, 1.0], [-1, 1], [0.0, np.nan]):
        with pytest.raises(ValueError, match="only 0 and 1"):
            as_labels(np.array(bad))


def test_labels_reject_empty_and_2d(tmp_path):
    with pytest.raises(ValueError, match="1-D"):
        as_labels(np.zeros((2, 2), dtype=int))
    # an empty label column is a file without data rows, rejected as read
    path = tmp_path / "empty.csv"
    path.write_text("a,label\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_csv(path, label_column="label")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_labels(path, "label")


BAD_LABELS = {
    "two": [0, 2],
    "fraction": [0.5, 1.0],
    "negative": [-1, 1],
    "two-d": [[0, 1], [1, 0]],
}


@pytest.mark.parametrize("bad", BAD_LABELS.values(), ids=BAD_LABELS.keys())
def test_label_consumers_reject_non_binary(tmp_path, bad):
    # one check guards every function that takes labels; a fraction is
    # rejected, not truncated to 0
    from madkit.importance import assemble_explain_dataset
    from madkit.metrics import confusion, extract_clusters, ric

    bad = np.array(bad)
    good = np.array([0, 1])
    matrix = make_matrix(n=2, t=2)
    calls = [
        lambda: confusion(bad, good),
        lambda: confusion(good, bad),
        lambda: extract_clusters(bad),
        lambda: ric(bad, extract_clusters(good)),
        lambda: assemble_explain_dataset(matrix, bad, (0, 2)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="only 0 and 1|1-D"):
            call()


def test_split_spec_minimum():
    m = make_matrix(n=2, t=5)
    with pytest.raises(ValueError, match="at least 2"):
        split(m, 1)
    train, test = split(m, 2)
    assert (train.n_times, test.n_times) == (2, 3)


def test_split_halves_align():
    m = make_matrix(n=2, t=10)
    train, test = split(m, 6)
    assert train.n_times == 6
    assert test.n_times == 4
    assert np.array_equal(
        np.hstack([train.values, test.values]), m.values
    )


def test_split_requires_test_columns():
    m = make_matrix(n=2, t=5)
    with pytest.raises(ValueError, match="no test columns"):
        split(m, 5)


# ---------------------------------------------------------------------------
# CSV ingestion


def test_csv_round_trip_is_exact(tmp_path):
    # repr() of a float64 round-trips bit for bit
    m = make_matrix(n=3, t=50, seed=7)
    path = tmp_path / "m.csv"
    save_csv(m, path)
    back, labels = load_csv(path)
    assert labels is None
    assert back.names == m.names
    assert np.array_equal(back.values, m.values)


def test_csv_round_trip_with_labels(tmp_path):
    m = make_matrix(n=2, t=20, seed=1)
    lv = (np.arange(20) % 3 == 0).astype(int)
    path = tmp_path / "m.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_table(fh, [*m.names, "label"], [*m.values, lv])
    back, labels2 = load_csv(path, label_column="label")
    assert np.array_equal(back.values, m.values)
    assert np.array_equal(labels2, lv)


def test_write_table_rejects_columns_of_unequal_length():
    fh = io.StringIO()
    with pytest.raises(ValueError, match="write_table needs columns of one length"):
        write_table(fh, ["a", "b"], [np.zeros(3), np.zeros(2)])
    assert fh.getvalue() == ""


def test_csv_bad_cell_is_located(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match=r"line 3, column 'b'.*'oops'"):
        load_csv(path)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 3 has 1 fields"):
        load_csv(path)


def test_csv_rejects_duplicate_header(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,a\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="duplicate header"):
        load_csv(path)


def test_csv_rejects_nonfinite_cell(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("a\n1.0\nnan\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="non-finite"):
        load_csv(path)


def test_csv_rejects_empty_and_headerless_data(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="empty"):
        load_csv(empty)
    no_rows = tmp_path / "norows.csv"
    no_rows.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_csv(no_rows)


def test_csv_label_cells_must_be_binary(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_text("a,label\n1.0,0\n2.0,0.5\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="must be '0' or '1'"):
        load_csv(path, label_column="label")


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("a\n1.0\n2.0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="no column named"):
        load_csv(path, label_column="label")


# (file text, label column, expected): the names and the rows of values in
# file order, or the exception type and its message, which every
# CsvFormatError prefixes with "{path}: "
CSV_CORPUS = {
    "blank_lines": ("a,b\n\n1,2\n\n3,4\n\n", None, (["a", "b"], [[1, 2], [3, 4]])),
    "whitespace_line": (
        "a,b\n1,2\n   \n3,4\n", None,
        (CsvFormatError, "line 3 has 1 fields, expected 2"),
    ),
    "whitespace_line_one_column": (
        "a\n1\n  \n3\n", None,
        (CsvFormatError, "line 3, column 'a': cannot parse '  ' as a real"),
    ),
    "hash_line": (
        "a,b\n1,2\n# note\n3,4\n", None,
        (CsvFormatError, "line 3 has 1 fields, expected 2"),
    ),
    "hash_cell": (
        "a\n1\n#2\n", None,
        (CsvFormatError, "line 3, column 'a': cannot parse '#2' as a real"),
    ),
    "hash_header": ("#a,b\n1,2\n3,4\n", None, (["#a", "b"], [[1, 2], [3, 4]])),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", None, (["a", "b"], [[1, 2], [3, 4]])),
    "bare_cr": ("a,b\r1,2\r3,4\r", None, (["a", "b"], [[1, 2], [3, 4]])),
    "no_final_newline": ("a,b\n1,2\n3,4", None, (["a", "b"], [[1, 2], [3, 4]])),
    # the header's own lines are skipped, and the row bound counts every
    # line end that numpy splits at
    "quoted_header_lf": ('"a\nb",c\n1,2\n3,4\n', None, (["a\nb", "c"], [[1, 2], [3, 4]])),
    "quoted_header_cr": ('"a\rb",c\n1,2\n3,4\n', None, (["a\rb", "c"], [[1, 2], [3, 4]])),
    "mixed_line_ends": (
        "a,b\r\n1,2\n\r\n3,4\r5,6\n", None, (["a", "b"], [[1, 2], [3, 4], [5, 6]]),
    ),
    "more_blank_lines_than_rows": (
        "a,b\n\n\n\n1,2\n\n\n\n3,4\n\n\n", None, (["a", "b"], [[1, 2], [3, 4]]),
    ),
    "bare_cr_body": ("a,b\n1,2\r3,4\r5,6\n", None, (["a", "b"], [[1, 2], [3, 4], [5, 6]])),
    "quoted_cells": ('"a","b"\n1,"2"\n"3",4\n', None, (["a", "b"], [[1, 2], [3, 4]])),
    "underscore_digits": ("a\n1_0\n2\n", None, (["a"], [[10], [2]])),
    "padded_cells": ("a,b\n 1 ,2\n3,\t4\n", None, (["a", "b"], [[1, 2], [3, 4]])),
    "plus_sign": ("a\n+1\n-2\n", None, (["a"], [[1], [-2]])),
    "unicode_digits": ("a\n\u0661\n\uff12\n", None, (["a"], [[1], [2]])),
    "nan": (
        "a,b\n1,2\nnan,4\n", None,
        (CsvFormatError, "line 3, column 'a': non-finite value"),
    ),
    "inf": (
        "a,b\n1,-inf\n3,4\n", None,
        (CsvFormatError, "line 2, column 'b': non-finite value"),
    ),
    "overflow": (
        "a\n1\n1e400\n", None,
        (CsvFormatError, "line 3, column 'a': non-finite value"),
    ),
    "empty_cell": (
        "a,b,c\n1,,3\n4,5,6\n", None,
        (CsvFormatError, "line 2, column 'b': cannot parse '' as a real"),
    ),
    "trailing_comma": (
        "a,b\n1,2,\n3,4,\n", None,
        (CsvFormatError, "line 2 has 3 fields, expected 2"),
    ),
    "single_data_row": (
        "a,b\n1,2\n", None, (ValueError, "need at least two observations"),
    ),
    "duplicate_header": (
        "a,b,a\n1,2,3\n4,5,6\n", None,
        (CsvFormatError, "duplicate header names ['a']"),
    ),
    "one_column": ("a\n1\n2\n", None, (["a"], [[1], [2]])),
    "header_only": ("a,b\n\n", None, (CsvFormatError, "no data rows")),
    "header_only_one_column": ("a\n", None, (CsvFormatError, "no data rows")),
    "every_row_too_wide": (
        "a,b\n1,2,3\n4,5,6\n", None,
        (CsvFormatError, "line 2 has 3 fields, expected 2"),
    ),
    "bad_cell_after_blank_lines": (
        "a,b\n1,2\n\n\n3,x\n", None,
        (CsvFormatError, "line 5, column 'b': cannot parse 'x' as a real"),
    ),
    "ragged_row_after_blank_lines": (
        "a,b\n1,2\n\n\n3\n", None,
        (CsvFormatError, "line 5 has 1 fields, expected 2"),
    ),
    "bad_label_after_blank_lines": (
        "a,label\n1,0\n\n\n3,2\n", "label",
        (CsvFormatError, "line 5, column 'label': label must be '0' or '1', got '2'"),
    ),
    "short_row_before_label": (
        "a,b,label\n1,2,0\n3\n", "label",
        (CsvFormatError, "line 3 has 1 fields, expected 3"),
    ),
    "label_column_split_off": (
        "a,label,b\n1,0,2\n3,1,4\n", "label", (["a", "b"], [[1, 2], [3, 4]]),
    ),
    # the label column is read first, so its checks decide: the header
    # before the body, and the first faulty line
    "header_only_without_label_column": (
        "a,b\n", "flag", (CsvFormatError, "no column named 'flag'"),
    ),
    "bad_label_before_ragged_row": (
        "a,flag\n1,2\n3\n", "flag",
        (CsvFormatError, "line 2, column 'flag': label must be '0' or '1', got '2'"),
    ),
    "label_only": ("flag\n0\n1\n", "flag", (ValueError, "need at least one variable")),
}


@pytest.mark.parametrize("case", sorted(CSV_CORPUS))
def test_csv_corpus(tmp_path, case):
    text, label_column, expected = CSV_CORPUS[case]
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    if not isinstance(expected[0], list):
        kind, message = expected
        with pytest.raises(kind) as info:
            load_csv(path, label_column=label_column)
        prefix = f"{path}: " if kind is CsvFormatError else ""
        assert str(info.value) == prefix + message
        return
    names, rows = expected
    matrix, labels = load_csv(path, label_column=label_column)
    assert matrix.names == names
    assert np.array_equal(matrix.values, np.array(rows, dtype=float).T)
    assert (labels is None) == (label_column is None)


# corpus files that numpy's reader must take, not leave to the csv module:
# their header lines and line ends test its skiprows and max_rows
ROW_BOUND_CASES = (
    "bare_cr", "bare_cr_body", "blank_lines", "crlf", "mixed_line_ends",
    "more_blank_lines_than_rows", "quoted_header_cr", "quoted_header_lf",
)


@pytest.mark.parametrize("case", sorted(CSV_CORPUS))
def test_csv_corpus_fast_reader_matches_csv_module(tmp_path, monkeypatch, case):
    # numpy's reader, given the path, the header's line count and a bound
    # on the rows, reads each file it takes as the csv-module reader does
    text, label_column, _ = CSV_CORPUS[case]
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    taken = []
    fast = data_module._read_body_fast

    def spy(*args):
        values = fast(*args)
        taken.append(values is not None)
        return values

    def outcome():
        try:
            matrix, _ = load_csv(path, label_column=label_column)
        except Exception as exc:
            return type(exc), str(exc)
        return matrix.names, matrix.values.tobytes(), matrix.values.shape

    monkeypatch.setattr(data_module, "_read_body_fast", spy)
    got = outcome()
    if case in ROW_BOUND_CASES:
        assert taken == [True]
    monkeypatch.setattr(data_module, "_read_body_fast", lambda *args: None)
    assert got == outcome()


LABEL_FILES = {
    "empty": ("", "empty file"),
    "duplicate": ("t,flag,t\n0,1,0\n", "duplicate header names ['t']"),
    "no_column": ("t,f\n0,1\n", "no column named 'flag'"),
    "header_only": ("t,flag\n", "no data rows"),
    "short_row": ("t,flag\n0,1\n1\n", "line 3 has 1 fields, expected 2"),
    "long_row": ("t,flag\n0,1,2\n", "line 2 has 3 fields, expected 2"),
    "bad_label": (
        "t,flag\n0,1\n\n2, 0\n",
        "line 4, column 'flag': label must be '0' or '1', got ' 0'",
    ),
}


@pytest.mark.parametrize("case", sorted(LABEL_FILES))
def test_load_labels_shares_load_csv_messages(tmp_path, case):
    text, message = LABEL_FILES[case]
    path = tmp_path / "labels.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CsvFormatError) as got:
        load_labels(path, "flag")
    assert str(got.value) == f"{path}: {message}"
    with pytest.raises(CsvFormatError) as want:
        load_csv(path, label_column="flag")
    assert str(want.value) == str(got.value)


def test_load_labels_reads_one_column(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"t,flag,s\r\n0,1,x\r\n\r\n1,0,\r\n2,1,\"a,b\"")
    labels = load_labels(path, "flag")
    assert labels.dtype == np.int8
    assert labels.tolist() == [1, 0, 1]


_FIELD_LIMIT = csv.field_size_limit()

# file bytes -> whether the bulk reader takes the file; load_labels(path,
# "flag") must give the row reader's labels or its error either way
LABEL_EDGE_FILES = {
    "label_first": (b"flag,a,b\n1,x,y\n0,2,3\n", True),
    "label_middle": (b"a,flag,b\n1,1,y\n2,0,3\n3,1,\n", True),
    "label_last": (b"a,b,flag\n1,x,0\n,,1\n", True),
    "label_only": (b"flag\n0\n1\n1\n", True),
    "blank_lines": (b"a,flag\n\n1,1\n\n\n2,0\n", True),
    "blank_lines_at_end": (b"a,flag\n1,1\n2,0\n\n\n", True),
    "no_final_newline": (b"a,flag\n1,0\n2,1", True),
    "utf8_cells": ("a,flag\n\u00e9\u20ac,1\n".encode("utf-8"), True),
    "utf8_bom": (b"\xef\xbb\xbfa,flag\n1,1\n", True),
    "utf8_bom_on_label": (b"\xef\xbb\xbfflag,a\n1,1\n", False),
    "empty": (b"", False),
    "blank_header": (b"\n1\n", False),
    "duplicate_header": (b"flag,a,flag\n1,2,3\n", False),
    "no_column": (b"a,b\n1,2\n", False),
    "header_only": (b"a,flag\n", False),
    "header_and_blank_lines": (b"a,flag\n\n\n", False),
    "ragged_short": (b"a,flag\n1,0\n1\n", False),
    "ragged_long": (b"a,flag\n1,0\n1,0,2\n", False),
    "ragged_rows_balance": (b"a,flag\n1,0,\n1\n", False),
    "commas_of_a_later_row": (b"a,flag,b\n1,0,2,1,3\nz\n", False),
    "commas_of_an_earlier_row": (b"a,flag,b\nz\n1,0,2,1,3\n", False),
    "space_in_cell": (b"a,flag\n1, 0\n", False),
    "double_zero": (b"a,flag\n1,00\n", False),
    "two": (b"a,flag\n1,2\n", False),
    "empty_cell": (b"a,flag\n1,\n", False),
    "space_line": (b"flag\n1\n \n0\n", False),
    "crlf": (b"a,flag\r\n1,1\r\n\r\n2,0\r\n", True),
    "crlf_blank_lines": (b"a,flag\r\n\r\n\r\n1,1\r\n\r\n\r\n2,0\r\n", True),
    "crlf_header_lf_body": (b"a,flag\r\n1,1\n2,0\n", True),
    "crlf_label_first": (b"flag,a\r\n1,2\r\n0,\r\n", True),
    "mixed_line_ends": (b"a,flag\n1,1\r\n2,0\n\r\n3,1\r\n", True),
    "bare_cr": (b"a,flag\r1,1\r2,0\r", False),
    "cr_in_cell": (b"a,flag\n1\r2,1\n", False),
    "cr_in_label_cell": (b"a,flag\n1,1\r\n2,0\r3\n", False),
    "cr_in_header": (b"a\r,flag\n1,1\n", False),
    "cr_last_byte": (b"a,flag\n1,1\n2,0\r", False),
    "cr_last_byte_after_blank_line": (b"flag,a\n\n1,0\r", False),
    "cr_before_crlf": (b"a,flag\n1,1\r\r\n", False),
    "header_only_crlf": (b"a,flag\r\n", False),
    "quoted_comma": (b'a,flag\n"1,5",1\n2,0\n', False),
    "quoted_label": (b'a,flag\n1,"1"\n', False),
    "nul_byte": (b"a,flag\n1\x00,0\n", False),
    "invalid_utf8": (b"a,flag\n\xff,1\n", False),
    "field_over_limit": (
        b"a,flag\n" + b"x" * (_FIELD_LIMIT + 1) + b",1\n", False
    ),
    "line_at_limit": (
        b"a,flag\n" + b"x" * (_FIELD_LIMIT - 2) + b",1\n", True
    ),
    "crlf_line_at_limit": (
        b"a,flag\r\n" + b"x" * (_FIELD_LIMIT - 2) + b",1\r\n", True
    ),
    "crlf_line_over_limit": (
        b"a,flag\r\n" + b"x" * (_FIELD_LIMIT - 1) + b",1\r\n", False
    ),
    "empty_label_at_end": (b"a,flag\n1,0\n1,", False),
}


@pytest.mark.parametrize(
    "data, line",
    [
        (b"a,flag\n1,0\n" + b"1" * (_FIELD_LIMIT + 1) + b",1\n", 3),
        (b"a," + b"f" * (_FIELD_LIMIT + 1) + b"\n1,0\n", 1),
    ],
    ids=["body", "header"],
)
@pytest.mark.parametrize(
    "read",
    [
        lambda path: load_csv(path),
        lambda path: load_csv(path, label_column="flag"),
        lambda path: load_labels(path, "flag"),
    ],
    ids=["load_csv", "load_csv_labels", "load_labels"],
)
def test_field_over_limit_is_a_format_error(tmp_path, data, line, read):
    # the csv module's own error, not a traceback of another type
    path = tmp_path / "big.csv"
    path.write_bytes(data)
    with pytest.raises(
        CsvFormatError, match=f"line {line}: field larger than field limit"
    ):
        read(path)


def _read_outcome(read, path):
    """``read(path, "flag")`` as labels, or as the error it raised."""
    try:
        return read(path, "flag").tolist()
    except Exception as exc:  # the row reader's own errors, whatever type
        return type(exc), str(exc)


def _load_csv_outcome(path):
    """``load_csv(path, "flag")`` as its names, the bits, shape and layout
    of its values and its labels, or as the error it raised."""
    try:
        matrix, labels = load_csv(path, label_column="flag")
    except Exception as exc:
        return type(exc), str(exc)
    values = matrix.values
    return (
        matrix.names, values.tobytes(), values.shape,
        values.flags.f_contiguous, labels.dtype, labels.tolist(),
    )


def _check_load_csv(path, want, monkeypatch):
    """``load_csv(path, "flag")`` gives the row label reader's labels or
    error ``want``, and the csv-module body reader's matrix or cell error."""
    got = _load_csv_outcome(path)
    with monkeypatch.context() as patch:
        patch.setattr(data_module, "_read_body_fast", lambda *args: None)
        assert got == _load_csv_outcome(path)
    if isinstance(want, tuple):
        assert got == want
    elif len(got) > 2:
        assert got[-2:] == (np.int8, want)
    return len(got) > 2


def _check_edge_file(tmp_path, monkeypatch, case):
    data, bulk = LABEL_EDGE_FILES[case]
    path = tmp_path / "labels.csv"
    path.write_bytes(data)
    want = _read_outcome(_read_labels_rows, path)
    assert _read_outcome(load_labels, path) == want
    _check_load_csv(path, want, monkeypatch)
    # a bad header too is declined, for the row reader to raise
    taken = _read_labels_bulk(io.BytesIO(data), "flag", path) is not None
    assert taken == bulk
    if bulk:
        assert load_labels(path, "flag").dtype == np.int8


@pytest.mark.parametrize("case", sorted(LABEL_EDGE_FILES))
def test_load_labels_bulk_matches_row_reader(tmp_path, monkeypatch, case):
    _check_edge_file(tmp_path, monkeypatch, case)


# body blocks so small that lines, the line_at_limit case and multi-byte
# UTF-8 cells straddle them
SMALL_LABEL_BLOCKS = (1, 7, 64)


@pytest.mark.parametrize("block", SMALL_LABEL_BLOCKS)
@pytest.mark.parametrize("case", sorted(LABEL_EDGE_FILES))
def test_load_labels_bulk_matches_row_reader_across_blocks(
    tmp_path, monkeypatch, case, block
):
    monkeypatch.setattr(data_module, "_LABEL_BLOCK", block)
    _check_edge_file(tmp_path, monkeypatch, case)


def _check_random_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(20)
    quirks = [b"", b" 0", b"00", b"2", b'"1"', b"1\x00", b"\xff"]
    taken = declined = matrices = 0
    for i in range(300):
        width = int(rng.integers(1, 5))
        label = int(rng.integers(0, width))
        names = [b"c%d" % c for c in range(width)]
        names[label] = b"flag"
        lines = [b",".join(names)]
        for _ in range(int(rng.integers(0, 12))):
            kind = rng.random()
            if kind < 0.1:
                lines.append(b"")
                continue
            cells = [b"%d" % rng.integers(0, 100) for _ in range(width)]
            cells[label] = b"%d" % rng.integers(0, 2)
            if kind < 0.12:
                cells[label] = quirks[rng.integers(0, len(quirks))]
            elif kind < 0.13:
                cells.append(b"9")
            elif kind < 0.14 and width > 1:
                cells.pop()
            elif kind < 0.2:
                cells[(label + 1) % width] += "\u00e9".encode("utf-8")
            lines.append(b",".join(cells))
        end = [b"\n", b"\r\n"][int(rng.random() < 0.05)]
        data = end.join(lines) + (end if rng.random() < 0.8 else b"")
        if rng.random() < 0.05:
            data = b"\xef\xbb\xbf" + data
        path = tmp_path / f"labels{i}.csv"
        path.write_bytes(data)
        want = _read_outcome(_read_labels_rows, path)
        assert _read_outcome(load_labels, path) == want, data
        matrices += _check_load_csv(path, want, monkeypatch)
        accepted = _read_labels_bulk(io.BytesIO(data), "flag", path) is not None
        taken += accepted
        declined += not accepted
    # both paths ran on a good share of the files, and load_csv read a
    # good share to a matrix
    assert taken > 100 and declined > 50, (taken, declined)
    assert matrices > 50, matrices


def test_load_labels_bulk_matches_row_reader_on_random_files(tmp_path, monkeypatch):
    _check_random_files(tmp_path, monkeypatch)


@pytest.mark.parametrize("block", SMALL_LABEL_BLOCKS)
def test_load_labels_bulk_matches_row_reader_on_random_files_across_blocks(
    tmp_path, monkeypatch, block
):
    monkeypatch.setattr(data_module, "_LABEL_BLOCK", block)
    _check_random_files(tmp_path, monkeypatch)


def test_load_labels_memory_stays_near_the_output_size(tmp_path):
    # the whole file and per-byte masks of it would take tens of bytes per
    # label; one body block at a time takes a fixed amount beside them
    n = 200_000
    rng = np.random.default_rng(9)
    rows = zip(rng.gamma(2.0, 1.0, n).tolist(), rng.integers(0, 2, n).tolist())
    path = tmp_path / "pred.csv"
    path.write_text(
        "timestamp,score,flag\n"
        + "".join(f"{i},{s:.17g},{f}\n" for i, (s, f) in enumerate(rows)),
        encoding="utf-8",
    )
    tracemalloc.start()
    try:
        labels = load_labels(path, "flag")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.size == n
    assert peak < 2 * labels.nbytes + 8 * data_module._LABEL_BLOCK, peak


def test_load_labels_memory_on_short_lines_stays_near_the_output_size(tmp_path):
    # 2-byte lines: the per-line index arrays, not the block, would
    # dominate if a block were bounded in bytes alone
    n = 200_000
    rng = np.random.default_rng(9)
    path = tmp_path / "truth.csv"
    path.write_bytes(
        b"label\n" + b"".join(b"%d\n" % v for v in rng.integers(0, 2, n).tolist())
    )
    with open(path, "rb") as fh:
        assert _read_labels_bulk(fh, "label", path) is not None
    tracemalloc.start()
    try:
        labels = load_labels(path, "label")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.size == n
    assert peak < 2 * labels.nbytes + 8 * data_module._LABEL_BLOCK, peak


@pytest.mark.parametrize("tail", [b"\n" + b"2,1\n" * 10, b""], ids=["rows", "eof"])
def test_load_labels_bulk_takes_a_line_longer_than_a_shrunk_run(tmp_path, tail):
    # 20,000 short lines shrink the runs of a block to fewer bytes than the
    # 100,000-byte line after them, which then makes a run of its own, up
    # to its newline or to the end of the file
    data = b"a,flag\n" + b"1,0\n" * 20_000 + b"x" * 100_000 + b",1" + tail
    path = tmp_path / "labels.csv"
    path.write_bytes(data)
    assert _read_labels_bulk(io.BytesIO(data), "flag", path) is not None
    assert np.array_equal(load_labels(path, "flag"), _read_labels_rows(path, "flag"))


def test_load_csv_reads_a_well_formed_labelled_file_with_numpy(
    tmp_path, monkeypatch
):
    # what each reader returned, by name; the row reader must not run
    returned = {}

    def spy(name):
        real = getattr(data_module, name)

        def call(*args):
            returned.setdefault(name, []).append(out := real(*args))
            return out

        monkeypatch.setattr(data_module, name, call)

    for name in ("_read_labels_bulk", "_read_body_fast", "_read_labels_rows"):
        spy(name)
    rng = np.random.default_rng(5)
    values = rng.standard_normal((50, 3))
    labels = rng.integers(0, 2, 50)
    path = tmp_path / "labelled.csv"
    path.write_text(
        "a,flag,b,c\n"
        + "".join(
            f"{a!r},{f},{b!r},{c!r}\n"
            for (a, b, c), f in zip(values.tolist(), labels.tolist())
        ),
        encoding="utf-8",
    )
    matrix, got = load_csv(path, label_column="flag")
    assert [type(out) for out in returned.pop("_read_labels_bulk")] == [np.ndarray]
    assert [type(out) for out in returned.pop("_read_body_fast")] == [np.ndarray]
    assert returned == {}
    assert matrix.names == ["a", "b", "c"]
    assert np.array_equal(matrix.values, values.T)
    assert got.tolist() == labels.tolist()


def test_csv_reals_keep_every_bit(tmp_path):
    # the same bits whichever parser reads the body: "1_0" sends the
    # second file through the csv module
    cells = ["0.1", "5e-324", "-0.0", "1.7976931348623157e308", "2.2e-308"]
    want = np.array([float(c) for c in cells])
    for extra in ("7", "1_0"):
        path = tmp_path / f"bits_{extra}.csv"
        path.write_text("a\n" + "\n".join(cells + [extra]) + "\n", encoding="utf-8")
        got = load_csv(path)[0].values[0, :-1]
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), extra


def test_csv_values_are_column_major(tmp_path):
    # downstream matrix products see the same layout whichever parser ran
    for cell in ("7", "1_0"):
        path = tmp_path / "layout.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n", encoding="utf-8")
        assert load_csv(path)[0].values.flags.f_contiguous


def test_headerless_errors_give_file_line_numbers(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("1,2\n\n3,x\n", encoding="utf-8")
    with pytest.raises(CsvFormatError) as info:
        load_headerless(path)
    assert str(info.value) == f"{path}: line 3, column 'v2': cannot parse 'x' as a real"


def test_headerless_loader_rejects_a_file_of_blank_lines(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("\n  \n\t\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_headerless(path)


def test_headerless_loader_rejects_a_single_row(tmp_path):
    # a file holds a series of two rows at least, as load_csv's do
    path = tmp_path / "plain.txt"
    path.write_text("\n1.0 2.0\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^need at least two observations$"):
        load_headerless(path)


def test_headerless_loader_handles_tabs_and_spaces(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("1.0\t2.0\n3.0 4.0\n5.0,6.0\n", encoding="utf-8")
    m = load_headerless(path)
    assert m.names == ["v1", "v2"]
    assert np.array_equal(m.values, np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))


# ---------------------------------------------------------------------------
# GpdParameters and DetectorModel


def test_gpd_parameters_validation():
    with pytest.raises(ValueError, match="delta"):
        GpdParameters(gamma=0.1, delta=0.0, l=1.0, t_l=10, t_total=100, loglik=0.0)
    with pytest.raises(ValueError, match="t_l"):
        GpdParameters(gamma=0.1, delta=1.0, l=1.0, t_l=200, t_total=100, loglik=0.0)


@pytest.mark.parametrize("field", ["gamma", "delta", "l", "loglik"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gpd_parameters_reject_non_finite(field, bad):
    values = dict(gamma=0.1, delta=1.0, l=1.0, t_l=10, t_total=100, loglik=-3.0)
    values[field] = bad
    with pytest.raises(ValueError, match="finite"):
        GpdParameters(**values)


def make_model(threshold_kind="mvt", gpd=None, vif_trace=((1, 12.5),)):
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    return DetectorModel(
        retained=[0, 2],
        smooth=SmoothConfig(3, "median"),
        scatter=ScatterFit(mu=np.array([0.1, -0.2]), sigma=sigma),
        threshold_kind=threshold_kind,
        k=2.5,
        gpd=gpd,
        vif_trace=list(vif_trace),
    )


def test_model_counts_original_variables():
    model = make_model(vif_trace=[(1, 12.5)])
    assert model.n_original == 3


def test_model_pot_requires_gpd():
    with pytest.raises(ValueError, match="gpd"):
        make_model(threshold_kind="pot")


def test_model_rejects_nonpositive_threshold():
    with pytest.raises(ValueError, match="positive"):
        DetectorModel(
            retained=[0, 1],
            smooth=SmoothConfig(1, "mean"),
            scatter=ScatterFit(mu=np.zeros(2), sigma=np.eye(2)),
            threshold_kind="mvt",
            k=0.0,
        )


@pytest.mark.parametrize("k", [np.inf, np.nan])
def test_model_rejects_non_finite_threshold(k):
    with pytest.raises(ValueError, match="threshold k must be positive and finite"):
        DetectorModel(
            retained=[0, 1],
            smooth=SmoothConfig(1, "mean"),
            scatter=ScatterFit(mu=np.zeros(2), sigma=np.eye(2)),
            threshold_kind="mvt",
            k=k,
        )


def test_model_rejects_an_empty_retained_set():
    # a model that scores no variable gives every point distance 0
    with pytest.raises(ValueError, match="model must retain at least one variable"):
        DetectorModel(
            retained=[],
            smooth=SmoothConfig(1, "mean"),
            scatter=ScatterFit(mu=np.zeros(2), sigma=np.eye(2)),
            threshold_kind="mvt",
            k=1.0,
            vif_trace=[(0, 10.0), (1, 10.0)],
        )


def test_model_rejects_overlapping_trace():
    with pytest.raises(ValueError, match="overlap"):
        make_model(vif_trace=[(0, 9.0)])


def test_model_indices_must_number_every_variable_once():
    # retained and removed together are 0 .. n - 1, each exactly once
    for retained, removed in (
        ([0, 2], []),  # variable 1 missing
        ([0, 3], [1]),  # 3 out of range for 3 variables
        ([-1, 0], [1]),  # negative
        ([0, 0], [1]),  # repeated
        ([0, 2], [1, 1]),  # repeated in the trace
    ):
        with pytest.raises(ValueError, match="once each"):
            DetectorModel(
                retained=retained,
                smooth=SmoothConfig(1, "mean"),
                scatter=ScatterFit(mu=np.zeros(2), sigma=np.eye(2)),
                threshold_kind="mvt",
                k=1.0,
                vif_trace=[(i, 10.0) for i in removed],
            )


def test_model_file_round_trip(tmp_path):
    gpd = GpdParameters(
        gamma=0.123456789012345,
        delta=1.0 / 3.0,
        l=9.87654321,
        t_l=1000,
        t_total=100000,
        loglik=-1234.5678,
    )
    model = make_model(threshold_kind="pot", gpd=gpd, vif_trace=[(1, 37.25)])
    path = tmp_path / "model.txt"
    save_model(model, path)

    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "madkit-model v2"

    back = load_model(path)
    assert back.retained == model.retained
    assert back.smooth == model.smooth
    assert back.threshold_kind == "pot"
    assert back.k == model.k
    assert back.vif_trace == model.vif_trace
    assert np.array_equal(back.scatter.mu, model.scatter.mu)
    assert np.array_equal(back.scatter.sigma, model.scatter.sigma)
    assert back.gpd.gamma == gpd.gamma
    assert back.gpd.delta == gpd.delta
    assert back.gpd.l == gpd.l
    assert back.gpd.t_l == gpd.t_l
    assert back.gpd.t_total == gpd.t_total


def test_model_round_trip_rescoring_is_bit_identical(tmp_path):
    # the cholesky factor is recomputed on load from the exact same sigma,
    # so scoring through a reloaded model gives bit-identical results
    from madkit.scoring import score_all

    model = make_model()
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)

    rng = np.random.default_rng(3)
    data = rng.standard_normal((2, 200))
    assert np.array_equal(
        score_all(model.scatter, data), score_all(back.scatter, data)
    )


def test_model_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "model.txt"
    save_model(make_model(), path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("madkit-model v2", "madkit-model v9"))
    with pytest.raises(ModelFormatError, match="unsupported model format"):
        load_model(path)


def test_model_load_rejects_truncation(tmp_path):
    path = tmp_path / "model.txt"
    save_model(make_model(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:4]) + "\n", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_model_load_rejects_corrupt_field(tmp_path):
    path = tmp_path / "model.txt"
    save_model(make_model(), path)
    text = path.read_text(encoding="utf-8").replace("h: 3", "h: three")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError, match="corrupted"):
        load_model(path)


def test_model_load_rejects_non_spd_sigma(tmp_path):
    model = make_model()
    path = tmp_path / "model.txt"
    save_model(model, path)
    # flip the sign of the sigma diagonal
    lines = path.read_text(encoding="utf-8").splitlines()
    sigma_start = lines.index("sigma_rows: 2") + 1
    first = lines[sigma_start].split(",")
    first[0] = "-" + first[0]
    lines[sigma_start] = ",".join(first)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="positive definite"):
        load_model(path)


FROZEN_V1_MODEL = """madkit-model v1
threshold_kind: mvt
h: 3
filter_kind: median
k: 2.5
retained: 0,2
vif_trace: 1,37.25
mu: 0.10000000000000001,-0.20000000000000001
sigma_rows: 2
2,0.5
0.5,1
"""


def test_model_v1_file_still_loads_and_rescores(tmp_path):
    from madkit.pipeline import apply_detector

    path = tmp_path / "model.txt"
    path.write_text(FROZEN_V1_MODEL, encoding="utf-8")
    back = load_model(path)
    model = make_model(vif_trace=[(1, 37.25)])
    assert back.names is None
    assert back.vif_trace == model.vif_trace
    assert np.array_equal(back.scatter.mu, model.scatter.mu)
    assert np.array_equal(back.scatter.sigma, model.scatter.sigma)
    test = make_matrix(n=3, t=50, seed=4)
    got, _ = apply_detector(back, test)
    want, _ = apply_detector(model, test)
    assert np.array_equal(got.scores, want.scores)


# a POT model whose first variable's name holds a comma and whose one
# removed variable was exactly collinear
FROZEN_V2_MODEL = """madkit-model v2
threshold_kind: pot
h: 3
filter_kind: median
k: 2.5
names: ["flow,in", "temp", "p"]
retained: 0,2
vif_trace: 1,inf
mu: 0.10000000000000001,-0.20000000000000001
sigma_rows: 2
2,0.5
0.5,1
gpd: 0.125,0.33333333333333331,3.25,40,1000,-12.75
"""


def frozen_v2_model():
    gpd = GpdParameters(
        gamma=0.125, delta=1 / 3, l=3.25, t_l=40, t_total=1000, loglik=-12.75
    )
    model = make_model(threshold_kind="pot", gpd=gpd, vif_trace=[(1, math.inf)])
    model.names = ["flow,in", "temp", "p"]
    return model


def test_model_v2_file_is_frozen_byte_for_byte(tmp_path):
    model = frozen_v2_model()
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert path.read_bytes() == FROZEN_V2_MODEL.encode("utf-8")

    path.write_text(FROZEN_V2_MODEL, encoding="utf-8")
    back = load_model(path)
    assert back.threshold_kind == "pot"
    assert back.smooth == SmoothConfig(3, "median")
    assert back.k == 2.5
    assert back.names == ["flow,in", "temp", "p"]
    assert back.retained == [0, 2]
    assert back.vif_trace == [(1, math.inf)]
    assert np.array_equal(back.scatter.mu, model.scatter.mu)
    assert np.array_equal(back.scatter.sigma, model.scatter.sigma)
    assert back.gpd == model.gpd


def test_cli_score_rejects_an_empty_mu_field(tmp_path, capsys):
    # an empty field parses as no reals: a centre for none of the two
    # retained variables, which the model refuses by name
    from madkit.cli import main

    path = tmp_path / "model.txt"
    mu = "mu: 0.10000000000000001,-0.20000000000000001\n"
    path.write_text(FROZEN_V2_MODEL.replace(mu, "mu:\n"), encoding="utf-8")
    data = tmp_path / "data.csv"
    values = np.arange(30.0).reshape(3, 10)
    save_csv(SeriesMatrix(names=["flow,in", "temp", "p"], values=values), data)
    capsys.readouterr()
    assert main(["score", "--model", str(path), "--data", str(data)]) == 10
    assert capsys.readouterr().err == (
        f"error [ingest]: {path}: invalid model contents: "
        "mu length must equal the variable count\n"
    )


@pytest.mark.parametrize("retained", ["0,,2", "0,2,", ",0,2"])
def test_model_load_rejects_empty_retained_cell(tmp_path, capsys, retained):
    # such a line once loaded as [0, 2]; no model retains zero variables,
    # so a saved file never has an empty cell there
    from madkit.cli import main

    path = tmp_path / "model.txt"
    text = FROZEN_V2_MODEL.replace("retained: 0,2\n", f"retained: {retained}\n")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError, match="corrupted model file"):
        load_model(path)
    data = tmp_path / "data.csv"
    values = np.arange(30.0).reshape(3, 10)
    save_csv(SeriesMatrix(names=["flow,in", "temp", "p"], values=values), data)
    capsys.readouterr()
    assert main(["score", "--model", str(path), "--data", str(data)]) == 10
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]") and "corrupted model file" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (FROZEN_V2_MODEL.replace("\n2,0.5\n", "\n2\n"), "sigma block is not 2 x 2"),
        (FROZEN_V2_MODEL[: FROZEN_V2_MODEL.index("0.5,1\n")], "truncated sigma block"),
        (FROZEN_V2_MODEL.replace(",-12.75\n", "\n"), "malformed gpd field"),
    ],
    ids=["short-sigma-row", "missing-sigma-row", "five-gpd-cells"],
)
def test_score_rejects_a_malformed_sigma_block_or_gpd_line(
    tmp_path, capsys, text, message
):
    from madkit.cli import main

    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)
    data = tmp_path / "data.csv"
    values = np.arange(30.0).reshape(3, 10)
    save_csv(SeriesMatrix(names=["flow,in", "temp", "p"], values=values), data)
    capsys.readouterr()
    assert main(["score", "--model", str(path), "--data", str(data)]) == 10
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]") and message in err


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ("h: 3\nfilter_kind: median\n", "filter_kind: median\nh: 3\n", "'h'"),
        ("k: 2.5\n", "k: 2.5\nk: 2.5\n", "'names'"),
    ],
    ids=["swapped", "repeated"],
)
def test_model_load_rejects_fields_out_of_order(tmp_path, old, new, expected):
    path = tmp_path / "model.txt"
    path.write_text(FROZEN_V2_MODEL.replace(old, new), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=f"expected {expected} field"):
        load_model(path)


@pytest.mark.parametrize(
    "old, new, leftover",
    [
        ("0.5,1\n", "0.5,1\n1,1\n", "1,1"),  # a third row under sigma_rows: 2
        ("-12.75\n", "-12.75\njunk: 1\n", "junk: 1"),
        ("-12.75\n", "-12.75\n" + FROZEN_V2_MODEL.splitlines()[-1] + "\n", "gpd: "),
    ],
    ids=["sigma-row", "junk", "second-gpd"],
)
def test_model_load_rejects_leftover_lines(tmp_path, old, new, leftover):
    path = tmp_path / "model.txt"
    path.write_text(FROZEN_V2_MODEL.replace(old, new), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=f"unexpected line '{leftover}"):
        load_model(path)


def test_model_gpd_only_on_pot(tmp_path):
    gpd = frozen_v2_model().gpd
    for kind in ("mvt", "chi2"):
        with pytest.raises(ValueError, match="gpd"):
            make_model(threshold_kind=kind, gpd=gpd)
    path = tmp_path / "model.txt"
    text = FROZEN_V2_MODEL.replace("threshold_kind: pot", "threshold_kind: mvt")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError, match="invalid model contents: .*gpd"):
        load_model(path)


def test_model_v2_keeps_names_with_commas(tmp_path):
    names = ["a,b", 'say "x"', "\u00e9t\u00e9"]
    model = make_model(vif_trace=[(1, 37.25)])
    model.names = names
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert load_model(path).names == names
    model.names = None  # unknown names survive a round trip too
    save_model(model, path)
    assert load_model(path).names is None
    text = path.read_text(encoding="utf-8")
    for bad in ("5", '"abc"', '["a", "b"]', "[1, 2, 3]", "[1"):
        path.write_text(text.replace("names: null", f"names: {bad}"))
        with pytest.raises(ModelFormatError):
            load_model(path)


def test_model_load_missing_file(tmp_path):
    with pytest.raises(ModelFormatError, match="cannot read"):
        load_model(tmp_path / "absent.txt")
