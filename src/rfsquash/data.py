"""Dataset container, CSV ingestion, synthetic generators, and train/test splitting.

All features are continuous; categorical inputs must be encoded numerically
before ingestion. Rows with missing or non-finite values are rejected, never
imputed.

The accepted CSV dialect is that of ``csv.reader`` with ``float`` on every
cell. A file's body is parsed in one C pass (``np.loadtxt``); any file that
pass does not reproduce exactly (blank lines, quoted cells, non-finite
values and every malformed file among them) goes through the per-cell
reader, so values and error messages are the same either way.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Dataset:
    """A regression dataset: continuous response plus a continuous feature matrix.

    Parameters
    ----------
    responses : np.ndarray
        Response vector of shape (N,).
    features : np.ndarray
        Row-major feature matrix of shape (N, p).
    feature_names : tuple of str
        One label per feature column.

    Instances are immutable: the underlying arrays are marked read-only so a
    Dataset can be shared freely across threads.
    """

    responses: np.ndarray
    features: np.ndarray
    feature_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        responses = np.ascontiguousarray(self.responses, dtype=np.float64)
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if responses.ndim != 1:
            raise ValueError(f"responses must be 1-D, got shape {responses.shape}")
        n, p = features.shape
        if n < 1 or p < 1:
            raise ValueError(f"dataset must have N >= 1 and p >= 1, got N={n}, p={p}")
        if responses.shape[0] != n:
            raise ValueError(
                f"responses length {responses.shape[0]} != feature rows {n}"
            )
        if not np.all(np.isfinite(responses)):
            raise ValueError("responses contain non-finite values")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        names = tuple(self.feature_names) or tuple(f"x{j + 1}" for j in range(p))
        if len(names) != p:
            raise ValueError(f"{len(names)} feature names for {p} columns")
        responses.setflags(write=False)
        features.setflags(write=False)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New Dataset holding the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(self.responses[rows], self.features[rows], self.feature_names)

    def fingerprint(self) -> int:
        """64-bit content hash used to pair model files with their training data."""
        h = hashlib.sha256()
        h.update(np.int64(self.n_rows).tobytes())
        h.update(np.int64(self.n_features).tobytes())
        h.update(self.responses.tobytes())
        h.update(self.features.tobytes())
        h.update("\x1f".join(self.feature_names).encode("utf-8"))
        return int.from_bytes(h.digest()[:8], "little")


@dataclass(frozen=True)
class SplitPair:
    """Disjoint train/test partition of one source dataset."""

    train: Dataset
    test: Dataset


def read_numeric_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a headered all-numeric CSV into (column names, value matrix).

    The body is parsed in one C pass; a file that pass does not reproduce
    exactly goes through the per-cell reader, which gives the same values and
    raises every error below.

    Raises
    ------
    DataError
        Missing file, empty file, duplicate header names, ragged row, or a
        non-numeric / non-finite cell (the error names the offending 1-based
        data row and the column).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    parsed = _read_in_one_pass(path)
    return parsed if parsed is not None else _read_per_cell(path)


def _read_in_one_pass(path: Path) -> tuple[list[str], np.ndarray] | None:
    """The header through ``csv`` and the body through one ``np.loadtxt``, or
    None unless that provably equals :func:`_read_per_cell`'s result.

    ``loadtxt`` skips empty lines (one csv row each, an error), rejects
    quotes, ``_`` and non-ASCII digits that ``float`` accepts, and reads
    nan/inf; so the result counts only with one row per line, one column per
    header name and every value finite. Both parsers round correctly, so
    accepted values are bit-identical.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            body = fh.read()
    except UnicodeDecodeError:  # the per-cell reader raises it from its own offset
        return None
    # a body of blank lines would make loadtxt warn "input contained no data"
    if header is None or not body or body.isspace():
        return None
    header = [name.strip() for name in header]
    if len(set(header)) != len(header):
        return None
    # loadtxt takes each item as one line and rejects a \r anywhere but at an
    # item's end; csv, which also ends lines at \r\n and a lone \r, then sees
    # the same lines, less a last empty one
    lines = body.split("\n")
    # csv refuses a field past its size limit, which loadtxt would read
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    rows = len(lines) - (lines[-1] == "")
    if values.shape != (rows, len(header)) or not np.isfinite(values).all():
        return None
    return header, values


def _read_per_cell(path: Path) -> tuple[list[str], np.ndarray]:
    """:func:`read_numeric_csv` one cell at a time through ``float``: the
    fallback for files the one-pass parser does not accept, and its oracle."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        header = [name.strip() for name in header]
        if len(set(header)) != len(header):
            raise DataError(f"duplicate column names in header of {path}")
        rows: list[list[float]] = []
        for row_no, raw in enumerate(reader, start=1):
            if len(raw) != len(header):
                raise DataError(
                    f"row {row_no} has {len(raw)} fields, expected {len(header)}"
                )
            parsed = []
            for col_idx, cell in enumerate(raw):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"non-numeric value {cell.strip()!r} at row {row_no}, "
                        f"column {header[col_idx]!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"non-finite value {cell.strip()!r} at row {row_no}, "
                        f"column {header[col_idx]!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"no data rows in {path}")
    return header, np.array(rows, dtype=np.float64)


def load_csv(path: str | Path, response_column: str) -> Dataset:
    """Read a UTF-8, comma-separated, headered CSV into a Dataset.

    The named response column is extracted; every remaining column becomes a
    feature, in header order. Every cell must parse as a finite float.

    Raises
    ------
    DataError
        Anything :func:`read_numeric_csv` rejects, plus a missing response
        column.
    """
    header, values = read_numeric_csv(path)
    if response_column not in header:
        raise DataError(
            f"response column {response_column!r} not found in {path} "
            f"(columns: {', '.join(header)})"
        )
    resp_idx = header.index(response_column)
    feature_cols = [i for i in range(len(header)) if i != resp_idx]
    feature_names = tuple(header[i] for i in feature_cols)
    return Dataset(values[:, resp_idx], values[:, feature_cols], feature_names)


def write_csv(dataset: Dataset, path: str | Path, response_column: str = "y") -> None:
    """Write a Dataset as CSV: feature columns in order, response column last.

    Values are printed with 17 significant digits so that
    ``load_csv(write_csv(d))`` reproduces every float exactly.
    """
    table = np.column_stack([dataset.features, dataset.responses]).tolist()
    row = ",".join(["{:.17g}"] * (dataset.n_features + 1)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(dataset.feature_names) + [response_column])
        # the rows csv.writer would write: no cell needs quoting, and its
        # line terminator is \r\n
        fh.write("".join([row.format(*cells) for cells in table]))


def gen_friedman1(n: int, noise_sd: float, seed: int) -> Dataset:
    """Friedman #1 synthetic regression benchmark.

    Ten features uniform on [0, 1]; the response is

        y = 10 sin(pi x1 x2) + 20 (x3 - 0.5)^2 + 10 x4 + 5 x5 + eps

    with eps ~ Normal(0, noise_sd^2). Features x6..x10 carry no signal.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    rng = np.random.default_rng(seed)
    x = rng.random((n, 10))
    y = friedman1_mean(x)
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=n)
    return Dataset(y, x)


def friedman1_mean(x: np.ndarray) -> np.ndarray:
    """Noise-free Friedman #1 regression function, rows of x in [0,1]^10."""
    x = np.asarray(x, dtype=np.float64)
    return (
        10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
    )


def _group_thresholds(
    thresholds: list[tuple[int, float]],
) -> dict[int, np.ndarray]:
    """Group cutpoints by feature index; features and cuts sorted ascending."""
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    if len(set(thresholds)) != len(thresholds):
        raise ValueError("duplicate (feature, cutpoint) entries in thresholds")
    grouped: dict[int, list[float]] = {}
    for feat, cut in thresholds:
        if feat < 0:
            raise ValueError(f"feature index must be non-negative, got {feat}")
        grouped.setdefault(int(feat), []).append(float(cut))
    return {f: np.array(sorted(cuts)) for f, cuts in sorted(grouped.items())}


def axis_cell_count(thresholds: list[tuple[int, float]]) -> int:
    """Number of rectangular cells induced by a set of axis-aligned cutpoints."""
    grouped = _group_thresholds(thresholds)
    count = 1
    for cuts in grouped.values():
        count *= len(cuts) + 1
    return count


def axis_cell_indices(
    x: np.ndarray, thresholds: list[tuple[int, float]]
) -> np.ndarray:
    """Cell index of each row of x under the axis partition.

    Per feature, interval i holds points with exactly i cutpoints strictly
    below them (a point on a cutpoint belongs to the lower interval, matching
    the tree convention that x <= threshold goes left). Cells are numbered in
    row-major order over features sorted by index, lowest interval first.
    """
    grouped = _group_thresholds(thresholds)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    idx = np.zeros(x.shape[0], dtype=np.int64)
    for feat, cuts in grouped.items():
        interval = np.searchsorted(cuts, x[:, feat], side="left")
        # side="left" counts cuts strictly below x; x == cut stays below it
        idx = idx * (len(cuts) + 1) + interval
    return idx


def gen_axis_partition(
    n: int,
    thresholds: list[tuple[int, float]],
    leaf_values: list[float],
    seed: int,
    p: int | None = None,
) -> Dataset:
    """Noiseless dataset whose regression function is a perfect axis-aligned tree.

    Features are uniform on [0, 1]^p; the response of a row equals the
    ``leaf_values`` entry of the cell containing it (cell numbering documented
    at :func:`axis_cell_indices`).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    grouped = _group_thresholds(thresholds)
    n_cells = axis_cell_count(thresholds)
    if len(leaf_values) != n_cells:
        raise ValueError(
            f"{len(leaf_values)} leaf values for {n_cells} cells induced by thresholds"
        )
    min_p = max(grouped) + 1
    if p is None:
        p = min_p
    elif p < min_p:
        raise ValueError(f"p={p} too small for thresholds touching feature {max(grouped)}")
    rng = np.random.default_rng(seed)
    x = rng.random((n, p))
    values = np.asarray(leaf_values, dtype=np.float64)
    y = values[axis_cell_indices(x, thresholds)]
    return Dataset(y, x)


def split(dataset: Dataset, test_fraction: float, seed: int) -> SplitPair:
    """Deterministic shuffled train/test split.

    The test part receives ``round(N * test_fraction)`` rows; both parts must
    be non-empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = dataset.n_rows
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise ValueError(
            f"degenerate split: N={n}, test_fraction={test_fraction} "
            f"gives test size {n_test}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return SplitPair(
        train=dataset.subset(perm[n_test:]),
        test=dataset.subset(perm[:n_test]),
    )
