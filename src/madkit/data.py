"""Typed containers and file I/O for multivariate time-series detection.

The central container is :class:`SeriesMatrix`, an ``n x T`` matrix of real
observations (one row per variable, one column per timestamp).  Ground-truth
and predicted anomaly labels are 1-D ``int8`` arrays of 0s and 1s, checked
by :func:`as_labels`.  A fitted detector is a :class:`DetectorModel`, which
can be serialized to a versioned text file and reloaded without losing
precision.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import warnings
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .scoring import ScatterFit, SingularCovarianceError

MODEL_FORMAT_HEADER = "madkit-model v2"
_MODEL_FORMAT_V1 = "madkit-model v1"  # no names line; still loads

THRESHOLD_KINDS = ("mvt", "pot", "chi2")
FILTER_KINDS = ("mean", "median")


@dataclass(frozen=True)
class SmoothConfig:
    """Window length ``h`` (1 disables smoothing) and filter kind."""

    h: int = 1
    kind: str = "median"

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("window length h must be at least 1")
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"kind must be one of {FILTER_KINDS}")


class CsvFormatError(ValueError):
    """Raised when a delimited input file cannot be parsed."""


class ModelFormatError(ValueError):
    """Raised when a model file is unreadable, truncated, or wrong version."""


@dataclass
class SeriesMatrix:
    """An ``n x T`` block of real-valued observations.

    Parameters
    ----------
    names : list of str
        Unique variable names, one per row.
    values : ndarray, shape (n, T)
        Finite float64 observations. Treated as immutable after construction.
    """

    names: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array (variables x time)")
        n, t = self.values.shape
        if n < 1:
            raise ValueError("need at least one variable")
        if t < 2:
            raise ValueError("need at least two observations")
        if len(self.names) != n:
            raise ValueError(f"{len(self.names)} names for {n} rows")
        if len(set(self.names)) != n:
            raise ValueError("variable names must be unique")
        if not np.isfinite(self.values).all():
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(
                f"non-finite value for variable {self.names[bad[0]]!r} "
                f"at position {bad[1]}"
            )

    @property
    def n_vars(self) -> int:
        return self.values.shape[0]

    @property
    def n_times(self) -> int:
        return self.values.shape[1]

    def slice_time(self, start: int, stop: int) -> "SeriesMatrix":
        """Return columns ``start:stop`` as a new matrix."""
        return SeriesMatrix(
            names=list(self.names), values=self.values[:, start:stop]
        )


def as_labels(vec, what: str = "labels") -> np.ndarray:
    """``vec`` as a 1-D ``int8`` array of 0/1 labels.

    Raises ``ValueError`` unless ``vec`` is 1-D and every entry is exactly
    0 or 1; ``0.5`` or ``2`` is an error, never truncated or wrapped.
    """
    arr = np.asarray(vec)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be 1-D")
    if arr.dtype.kind in "biu":  # two reductions, no temporaries
        binary = arr.size == 0 or (arr.min() >= 0 and arr.max() <= 1)
    else:
        binary = ((arr == 0) | (arr == 1)).all()
    if not binary:
        raise ValueError(f"{what} must contain only 0 and 1")
    return arr.astype(np.int8, copy=False)


def split(matrix: SeriesMatrix, train_end: int) -> tuple[SeriesMatrix, SeriesMatrix]:
    """Split a matrix into (training, test) halves at column ``train_end``."""
    if train_end < 2:
        raise ValueError("train_end must be at least 2")
    if not train_end < matrix.n_times:
        raise ValueError(
            f"train_end {train_end} leaves no test columns (T = {matrix.n_times})"
        )
    return matrix.slice_time(0, train_end), matrix.slice_time(train_end, matrix.n_times)


@dataclass
class GpdParameters:
    """Generalized Pareto tail fit attached to a POT-thresholded model."""

    gamma: float
    delta: float
    l: float
    t_l: int
    t_total: int
    loglik: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma, self.delta, self.l, self.loglik))):
            raise ValueError("gamma, delta, l and loglik must be finite")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.t_l < 1 or self.t_total < self.t_l:
            raise ValueError("need 1 <= t_l <= t_total")


@dataclass
class DetectorModel:
    """Everything needed to score and flag new data.

    ``smooth`` is the smoothing the model was fitted with; new data gets
    the same.  ``retained`` indexes into the original variable order; ``scatter``
    is in the reduced (retained) order.  ``vif_trace`` records the removed
    variables as ``(original_index, vif_at_removal)`` pairs, in removal
    order; a VIF may be ``inf`` (exact collinearity) but never ``nan``.
    ``names`` are the fitted data's variable names in original
    order, or ``None`` when unknown (a model read from a v1 file).
    """

    retained: list[int]
    smooth: SmoothConfig
    scatter: ScatterFit
    threshold_kind: str
    k: float
    gpd: GpdParameters | None = None
    vif_trace: list[tuple[int, float]] = field(default_factory=list)
    names: list[str] | None = None

    def __post_init__(self):
        m = len(self.retained)
        if m < 1:
            raise ValueError("model must retain at least one variable")
        removed = [i for i, _ in self.vif_trace]
        if sorted([*self.retained, *removed]) != list(range(self.n_original)):
            raise ValueError(
                "retained and removed variables must number 0 .. "
                f"{self.n_original - 1} once each, with no gap or overlap"
            )
        if self.threshold_kind not in THRESHOLD_KINDS:
            raise ValueError(f"threshold_kind must be one of {THRESHOLD_KINDS}")
        if self.scatter.m != m:
            raise ValueError("scatter size must match retained count")
        if any(math.isnan(vif) for _, vif in self.vif_trace):
            raise ValueError(
                "VIFs in vif_trace must be finite, or inf for exact collinearity"
            )
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError("threshold k must be positive and finite")
        if (self.threshold_kind == "pot") != (self.gpd is not None):
            raise ValueError("a POT model needs gpd parameters; no other has them")
        if self.names is not None and not (
            isinstance(self.names, list)
            and len(self.names) == self.n_original
            and all(isinstance(name, str) for name in self.names)
        ):
            raise ValueError("names must list one string per original variable")

    @property
    def n_original(self) -> int:
        """Variable count of the data this model was fitted on."""
        return len(self.retained) + len(self.vif_trace)


# ---------------------------------------------------------------------------
# delimited text ingestion


def _read_header(reader, path) -> list[str]:
    """The header row of a CSV; it must exist and repeat no name."""
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(f"{path}: empty file") from None
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise CsvFormatError(f"{path}: duplicate header names {dupes}")
    return header


def _csv_format_error(exc: csv.Error, reader, path) -> CsvFormatError:
    """The csv module's own error (a field over ``csv.field_size_limit()``,
    say) as a :class:`CsvFormatError` at the line ``reader`` stopped on."""
    return CsvFormatError(f"{path}: line {reader.line_num}: {exc}")


def _column_index(header, column, path) -> int:
    if column not in header:
        raise CsvFormatError(f"{path}: no column named {column!r}")
    return header.index(column)


def _check_widths(rows, lines, width, path):
    """Reject a row whose field count differs from the header's."""
    for row, line in zip(rows, lines):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: line {line} has {len(row)} fields, expected {width}"
            )


def _parse_cells(rows, lines, names, path):
    """Convert equal-width string rows to a float64 matrix with located
    errors; ``rows[r]`` came from line ``lines[r]`` of the file."""
    try:
        values = np.array(rows, dtype=np.float64)
    except ValueError:
        # slow path only to name the offending cell
        for row, line in zip(rows, lines):
            for c, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: line {line}, column {names[c]!r}: "
                        f"cannot parse {cell!r} as a real"
                    ) from None
        raise
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise CsvFormatError(
            f"{path}: line {lines[r]}, column {names[c]!r}: non-finite value"
        )
    return values


def _read_body_fast(
    path, skiprows: int, usecols: list[int], width: int
) -> np.ndarray | None:
    """Parse columns ``usecols`` of file ``path`` after its first
    ``skiprows`` lines with numpy's C reader.

    Returns the ``(T, len(usecols))`` body, or ``None`` when the csv-module
    path must decide instead: a cell numpy will not read (quoted, ``1_0``,
    Unicode digits, empty), a ragged or empty body, or a non-finite value.
    Every body this accepts, that path reads to the same bits.  numpy
    checks row widths only when it reads all ``width`` columns, so a caller
    that drops one must have checked the widths itself.  Given the path,
    numpy reads the file in blocks, and given a bound on the rows, it
    allocates the result once.
    """
    # one more than the \n and \r bytes: never fewer than the lines numpy
    # splits the file into, at \n, \r and \r\n
    with open(path, "rb") as fh:
        blocks = iter(functools.partial(fh.read, 1 << 16), b"")
        lines = 1 + sum(b.count(b"\n") + b.count(b"\r") for b in blocks)
    try:
        with warnings.catch_warnings():
            # "no data", and blank lines that do not count toward max_rows
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                str(path), delimiter=",", comments=None, dtype=np.float64,
                ndmin=2, usecols=None if len(usecols) == width else usecols,
                skiprows=skiprows, max_rows=lines - skiprows, encoding="utf-8",
            )
    except ValueError:
        return None
    if values.shape[0] == 0 or values.shape[1] != len(usecols):
        return None
    if not np.isfinite(values).all():
        return None
    return values


def load_csv(
    path, label_column: str | None = None
) -> tuple[SeriesMatrix, np.ndarray | None]:
    """Load a header-bearing CSV of real-valued columns.

    Parameters
    ----------
    path : str or Path
        CSV file with a header row; every non-label cell must parse as a
        finite real.
    label_column : str, optional
        Name of a 0/1 ground-truth column to split off.  Its cells must be
        exactly ``"0"`` or ``"1"``.

    Returns
    -------
    (SeriesMatrix, int8 ndarray or None)

    Notes
    -----
    The label column, if any, is read first by :func:`load_labels`, with
    its checks and messages.  The other columns are parsed by
    ``np.loadtxt`` from the file's path, past the header's lines and into
    one array of its final size; a body it does not accept goes through
    the ``csv`` module, which reads it to the same bits or names the
    offending line and cell.  Error messages give the file's own line
    numbers, blank lines included.
    """
    path = Path(path)
    labels = None if label_column is None else load_labels(path, label_column)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = _read_header(reader, path)
            keep = [c for c, name in enumerate(header) if name != label_column]
            names = [header[c] for c in keep]
            values = _read_body_fast(path, reader.line_num, keep, len(header))
            if values is not None:
                return SeriesMatrix(names=names, values=values.T), labels
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            rows, lines = [], []
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
        except csv.Error as exc:
            raise _csv_format_error(exc, reader, path) from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    _check_widths(rows, lines, len(header), path)
    # a label cell is "0" or "1", so it parses and never names an error
    values = _parse_cells(rows, lines, header, path).take(keep, axis=1)
    return SeriesMatrix(names=names, values=values.T), labels


# bytes of a label file's body that load_labels reads at once
_LABEL_BLOCK = 1 << 18
# entries of a per-line index array that _label_cells may build (64 KiB of
# intp), small enough for malloc to serve from its heap, not a fresh mapping
_LABEL_ROWS = 1 << 13


def load_labels(path, column: str) -> np.ndarray:
    """Read the 0/1 column ``column`` of a header-bearing CSV as int8.

    This is the one reader of a label column: it checks the header, the
    row widths and the label cells, and :func:`load_csv` takes its labels,
    checks and messages from here.  The other columns are not parsed.

    A well-formed file is scanned by :func:`_read_labels_bulk` in blocks
    of whole lines, so that beside the labels it holds one reused buffer
    of about ``2 * _LABEL_BLOCK`` bytes, a mask as long, and index arrays
    of at most ``_LABEL_ROWS`` entries.  Lines may end in ``\\n`` or
    ``\\r\\n``.  Any other file (a bad header, a ragged row, a label cell
    other than ``0``/``1``, no data rows, a quote or NUL byte, a ``\\r``
    not followed by ``\\n``, invalid UTF-8, a line over
    ``csv.field_size_limit()``) goes to the row-by-row reader,
    :func:`_read_labels_rows`, which raises the error with the file's own
    line number.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        labels = _read_labels_bulk(fh, column, path)
    return labels if labels is not None else _read_labels_rows(path, column)


def _read_labels_bulk(fh, column: str, path) -> np.ndarray | None:
    """The labels in binary file ``fh``, or ``None`` unless the header is
    good, every non-blank body line has the header's field count, every
    label cell is the one byte ``0`` or ``1``, there is at least one, and
    the csv module would split each line at its commas alone (no quote or
    NUL byte, no ``\\r`` but in a ``\\r\\n`` line end, valid UTF-8, no line
    over the field size limit).  The csv module reads those files to the
    same labels.  The body is read ``_LABEL_BLOCK`` bytes at a time into
    one buffer, completed to the end of a line, and checked block by block
    (exact, as no UTF-8 sequence holds a ``\\n``)."""
    limit = csv.field_size_limit()
    # limit + 2 bytes hold a line of limit bytes and its \r\n; a line cut
    # off there fails the length check or ends in a lone \r
    line = fh.readline(limit + 2).removesuffix(b"\n").removesuffix(b"\r")
    if len(line) > limit or b"\r" in line or not _plain_text(line, len(line)):
        return None
    try:
        header = _read_header(csv.reader([line.decode("utf-8")]), path)
        ci = _column_index(header, column, path)
    except CsvFormatError:
        return None  # the row reader raises it, or meets a fault first
    labels = bytearray()
    buf = bytearray(2 * _LABEL_BLOCK)
    mask = np.empty(len(buf), dtype=bool)
    while n := fh.readinto(memoryview(buf)[:_LABEL_BLOCK]):
        tail = fh.readline(limit + 2)
        if n + len(tail) > len(buf):  # a line longer than the block
            buf.extend(bytes(n + len(tail) - len(buf)))
            mask = np.empty(len(buf), dtype=bool)
        buf[n : n + len(tail)] = tail
        n += len(tail)
        if not _plain_text(buf, n) or not _label_block(
            buf, n, mask, len(header), ci, limit, labels
        ):
            return None
    return np.frombuffer(labels, dtype=np.int8) if labels else None


def _plain_text(raw, n: int) -> bool:
    """Whether ``raw[:n]`` is UTF-8 with no quote or NUL byte."""
    if raw.find(b'"', 0, n) >= 0 or raw.find(b"\0", 0, n) >= 0:
        return False
    if n and np.frombuffer(raw, np.uint8, n).max() >= 0x80:
        try:
            str(memoryview(raw)[:n], "utf-8")
        except UnicodeDecodeError:
            return False
    return True


def _label_block(buf, n, mask, width, ci, limit, labels) -> bool:
    """Append ``label == 1`` for each non-blank line of ``buf[:n]``, whole
    lines of a file body, to ``labels``; ``False`` unless every line passes
    :func:`_read_labels_bulk`'s checks.  The lines go to :func:`_label_cells`
    in runs of at most ``most`` newlines, so that no index array it builds
    has more than ``_LABEL_ROWS`` entries."""
    view = np.frombuffer(buf, np.uint8, n)
    crlf = buf.find(b"\r", 0, n) >= 0
    most = max(1, _LABEL_ROWS // max(1, width - 1) - 1)
    lo, size = 0, n
    while lo < n:
        # the lines that end in the next size bytes, or else the next line
        hi = n if lo + size >= n else (
            buf.rfind(b"\n", lo, lo + size) + 1
            or buf.find(b"\n", lo + size, n) + 1
            or n
        )
        newlines = np.equal(view[lo:hi], ord("\n"), out=mask[: hi - lo])
        lines = np.count_nonzero(newlines)
        if lines > most:
            size = (hi - lo) * most // lines
            continue
        cells = _label_cells(view[lo:hi], newlines, width, ci, limit, crlf)
        if cells is None:
            return False
        labels += memoryview(cells)
        lo = hi
    return True


def _label_cells(raw, newlines, width: int, ci: int, limit: int, crlf: bool):
    """``label == 1`` for each non-blank line of ``raw``, a ``uint8`` array
    of whole lines of a file body, or ``None`` unless all pass
    :func:`_read_labels_bulk`'s checks.  ``newlines`` is the mask
    ``raw == "\\n"``; it is overwritten.  ``crlf`` tells whether ``raw``
    may hold a ``\\r``."""
    ends = np.flatnonzero(newlines)
    starts = np.concatenate(([0], ends + 1))
    if crlf:
        # raw ends in a \n or at the end of the file, so raw[-1] is read
        # for a line end at 0 only when it is no \r
        if raw[-1] == ord("\r"):
            return None
        cr = raw[ends - 1] == ord("\r")
        if np.count_nonzero(cr) != np.count_nonzero(
            np.equal(raw, ord("\r"), out=newlines)
        ):
            return None  # a \r that no \n follows
        ends -= cr
    ends = np.append(ends, raw.size)
    if (ends - starts).max() > limit:
        return None
    body = ends > starts  # blank lines are skipped
    starts, ends = starts[body], ends[body]
    # row r must hold the r-th block of width - 1 commas, and then it
    # holds no others
    commas = np.flatnonzero(np.equal(raw, ord(","), out=newlines))
    if commas.size != starts.size * (width - 1):
        return None
    commas = commas.reshape(starts.size, width - 1)
    if width > 1 and (
        (commas[:, 0] < starts).any() or (commas[:, -1] >= ends).any()
    ):
        return None
    cell_starts = commas[:, ci - 1] + 1 if ci > 0 else starts
    cell_ends = commas[:, ci] if ci < width - 1 else ends
    cells = raw[cell_ends - 1]  # in range also where a cell is empty
    if (cell_ends - cell_starts != 1).any() or (
        (cells != ord("0")) & (cells != ord("1"))
    ).any():
        return None
    return cells == ord("1")


def _read_labels_rows(path, column: str) -> np.ndarray:
    """:func:`load_labels` row by row through the ``csv`` module: the path
    for every file the bulk reader declines, its test oracle, and the one
    place a label cell is rejected."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = _read_header(reader, path)
            ci = _column_index(header, column, path)
            width = len(header)
            labels = bytearray()
            # one test per good row; the checks run only on a bad one
            for row in reader:
                if len(row) != width or row[ci] not in ("0", "1"):
                    if not row:
                        continue
                    _check_widths([row], [reader.line_num], width, path)
                    raise CsvFormatError(
                        f"{path}: line {reader.line_num}, column {column!r}: "
                        f"label must be '0' or '1', got {row[ci]!r}"
                    )
                labels.append(row[ci] == "1")
        except csv.Error as exc:
            raise _csv_format_error(exc, reader, path) from None
    if not labels:
        raise CsvFormatError(f"{path}: no data rows")
    return np.frombuffer(labels, dtype=np.int8)


def load_headerless(path, name_prefix: str = "v") -> SeriesMatrix:
    """Load a headerless delimited numeric file (comma or whitespace).

    This is the adapter for plain text dumps such as server-monitoring
    datasets: delimiters are normalized to commas and variables are named
    ``v1 .. vn`` by column position.
    """
    path = Path(path)
    rows, lines = [], []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            normalized = line.replace("\t", ",").replace(" ", ",")
            rows.append([c for c in normalized.split(",") if c != ""])
            lines.append(number)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    names = [f"{name_prefix}{i + 1}" for i in range(len(rows[0]))]
    _check_widths(rows, lines, len(names), path)
    values = _parse_cells(rows, lines, names, path)
    return SeriesMatrix(names=names, values=values.T)


def save_csv(matrix: SeriesMatrix, path) -> None:
    """Write a matrix as CSV.

    Reals are written with ``repr``, which round-trips float64 exactly, so
    ``load_csv(save_csv(m))`` reproduces ``m.values`` bit for bit.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_table(fh, list(matrix.names), list(matrix.values))


# cells write_table formats at once: 4,096 rows of a three-column table
_TABLE_CELLS = 3 << 12


def write_table(fh, header: list[str], columns) -> None:
    """Write ``header`` and then the rows of ``columns``, equal-length 1-D
    arrays, to text file ``fh`` in ``csv.writer``'s bytes: ``\\r\\n`` line
    ends, a float cell as its ``repr``, any other cell as a decimal
    integer.  Each ``%``-format call renders at most ``_TABLE_CELLS``
    cells (at least one row), so memory does not grow with the table."""
    if len({len(column) for column in columns}) != 1:
        raise ValueError("write_table needs columns of one length")
    csv.writer(fh).writerow(header)
    width, n = len(columns), len(columns[0])
    line = ",".join("%r" if c.dtype.kind == "f" else "%d" for c in columns) + "\r\n"
    step = max(1, _TABLE_CELLS // width)
    for i in range(0, n, step):
        rows = min(step, n - i)
        cells = [0] * (rows * width)
        for c, column in enumerate(columns):
            cells[c::width] = column[i : i + rows].tolist()
        fh.write(line * rows % tuple(cells))


# ---------------------------------------------------------------------------
# model serialization

_REAL = "%.17g"  # round-trips IEEE754 double exactly
# a model file's fields, in file order (a v1 file has no names line); the
# sigma rows follow, and a POT model ends in a gpd line
_MODEL_KEYS = (
    "threshold_kind", "h", "filter_kind", "k", "names",
    "retained", "vif_trace", "mu", "sigma_rows",
)
# the type of each GpdParameters field, in the gpd line's order
_GPD_TYPES = [int if f.type == "int" else float for f in fields(GpdParameters)]


def _fmt_reals(vec) -> str:
    return ",".join(_REAL % v for v in np.asarray(vec, dtype=np.float64))


def _parse_reals(text: str) -> np.ndarray:
    if text == "":
        return np.empty(0)
    return np.array([float(c) for c in text.split(",")], dtype=np.float64)


def save_model(model: DetectorModel, path) -> None:
    """Write a model as versioned, self-describing UTF-8 text."""
    values = (
        model.threshold_kind,
        model.smooth.h,
        model.smooth.kind,
        _REAL % model.k,
        json.dumps(model.names),  # JSON: commas survive
        ",".join(map(str, model.retained)),
        ";".join(f"{i}," + _REAL % v for i, v in model.vif_trace),
        _fmt_reals(model.scatter.mu),
        len(model.retained),
    )
    lines = [MODEL_FORMAT_HEADER]
    lines += [f"{key}: {value}" for key, value in zip(_MODEL_KEYS, values, strict=True)]
    lines += map(_fmt_reals, model.scatter.sigma)
    if model.gpd is not None:
        gpd = zip(_GPD_TYPES, astuple(model.gpd))
        cells = [str(v) if t is int else _REAL % v for t, v in gpd]
        lines.append("gpd: " + ",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _take(lines, key: str, path) -> str:
    if not lines:
        raise ModelFormatError(f"{path}: truncated model file, missing {key!r}")
    line = lines.pop(0)
    prefix = key + ":"
    if not line.startswith(prefix):
        raise ModelFormatError(f"{path}: expected {key!r} field, got {line!r}")
    return line[len(prefix) :].strip()


def load_model(path) -> DetectorModel:
    """Load a model written by :func:`save_model`; v1 files have no names.
    A non-blank line left after the last field is an error."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"{path}: cannot read model file: {exc}") from exc
    lines = [ln for ln in raw.splitlines() if ln.strip() != ""]
    if not lines:
        raise ModelFormatError(f"{path}: empty model file")
    header = lines.pop(0)
    if header not in (MODEL_FORMAT_HEADER, _MODEL_FORMAT_V1):
        raise ModelFormatError(
            f"{path}: unsupported model format {header!r}, "
            f"expected {MODEL_FORMAT_HEADER!r}"
        )
    keys = [k for k in _MODEL_KEYS if k != "names" or header == MODEL_FORMAT_HEADER]
    try:
        text = {key: _take(lines, key, path) for key in keys}
        m = int(text["sigma_rows"])
        if len(lines) < m:
            raise ModelFormatError(f"{path}: truncated sigma block")
        rows = [_parse_reals(lines.pop(0)) for _ in range(m)]
        if m < 1 or any(row.size != m for row in rows):
            raise ModelFormatError(f"{path}: sigma block is not {m} x {m}")
        sigma = np.array(rows)
        gpd = None
        if lines and lines[0].startswith("gpd:"):
            cells = _take(lines, "gpd", path).split(",")
            if len(cells) != len(_GPD_TYPES):
                raise ModelFormatError(f"{path}: malformed gpd field")
            gpd = [t(c) for t, c in zip(_GPD_TYPES, cells)]
        if lines:
            raise ModelFormatError(f"{path}: unexpected line {lines[0]!r}")
        h, k = int(text["h"]), float(text["k"])
        mu = _parse_reals(text["mu"])
        names = json.loads(text["names"]) if "names" in text else None
        retained = [int(c) for c in text["retained"].split(",")]
        pairs = [item.split(",") for item in text["vif_trace"].split(";")]
        vif_trace = [(int(i), float(v)) for i, v in pairs] if text["vif_trace"] else []
    except (ValueError, IndexError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"{path}: corrupted model file: {exc}") from exc
    try:
        return DetectorModel(
            retained=retained,
            smooth=SmoothConfig(h, text["filter_kind"]),
            scatter=ScatterFit(mu=mu, sigma=sigma),
            threshold_kind=text["threshold_kind"],
            k=k,
            gpd=None if gpd is None else GpdParameters(*gpd),
            vif_trace=vif_trace,
            names=names,
        )
    except SingularCovarianceError as exc:
        raise ModelFormatError(
            f"{path}: stored sigma is not positive definite"
        ) from exc
    except ValueError as exc:
        raise ModelFormatError(f"{path}: invalid model contents: {exc}") from exc
