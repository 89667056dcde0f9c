"""Citation datasets and the empirical Leimkuhler polygon.

A dataset is a multiset of non-negative integer citation counts.  With
counts sorted descending and s_i the cumulative sum of the top i
counts, the empirical curve is the polygon through (i/n, s_i/s_n) with
K(0) = 0.  Cumulative sums are taken in integer arithmetic, so the
polygon vertices carry no accumulation error beyond the final
division.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curves import Family

__all__ = [
    "DataError",
    "CitationDataset",
    "EmpiricalCurve",
    "DescriptiveStats",
    "ingest",
    "empirical_curve",
    "descriptive_stats",
    "dispersion_index",
    "sample_synthetic",
]


class DataError(ValueError):
    """Invalid or unparseable input data.

    Attributes
    ----------
    line_number : int or None
        1-based line of the offending record, when known.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def _as_int(value):
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if not isinstance(value, (int, np.integer)):
        raise DataError(f"count {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True, eq=False)
class CitationDataset:
    """Citation counts sorted descending, with the total precomputed.

    counts_desc is a read-only 1-D numpy array: int64, or object
    holding Python ints when any count is at least 2**63.  Any sequence
    of integers or integer-valued floats (or an array of them) is
    accepted and copied; any other value raises DataError.  total is
    the exact sum as a Python int.  Two datasets are equal when their
    labels and their sorted counts are.
    """

    counts_desc: np.ndarray
    label: str = ""
    total: int = field(init=False, repr=False)

    def __post_init__(self):
        values = self.counts_desc
        if (isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind == "f"
                and np.all((values == np.trunc(values)) & (abs(values) < 2.0**63))):
            # integral floats below 2**63, checked in one pass: nan and inf
            # fail it, and take the path below for its message
            values = values.astype(np.int64)
        if not (isinstance(values, np.ndarray) and values.ndim == 1
                and np.can_cast(values.dtype, np.int64)):
            # np.array makes floats of ints at or above 2**63, so each
            # count becomes a Python int first, and those counts keep them
            values = [_as_int(c) for c in values]
        try:
            counts = np.array(values, dtype=np.int64)
        except OverflowError:
            counts = np.array(values, dtype=object)
        if counts.size < 1:
            raise DataError("dataset needs at least one count")
        if counts.min() < 0:
            raise DataError("counts must be non-negative")
        if not np.all(counts[:-1] >= counts[1:]):
            counts.sort()
            counts = counts[::-1]
        counts.flags.writeable = False
        # an int64 sum cannot wrap while max * n < 2**63
        if counts.dtype == np.int64 and int(counts[0]) * counts.size < 2**63:
            total = int(counts.sum())
        else:
            total = sum(counts.tolist())
        object.__setattr__(self, "counts_desc", counts)
        object.__setattr__(self, "total", total)

    def __eq__(self, other):
        if not isinstance(other, CitationDataset):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.counts_desc, other.counts_desc)

    def __hash__(self):
        counts = self.counts_desc
        key = counts.tobytes() if counts.dtype == np.int64 else tuple(counts.tolist())
        return hash((self.label, key))

    @property
    def n(self):
        return len(self.counts_desc)


@dataclass(frozen=True, eq=False)
class EmpiricalCurve:
    """Polygon through (i/n, s_i/s_n), i = 0..n.

    u and k are read-only 1-D float64 arrays of one length, the
    abscissas and ordinates of the vertices; any sequences or arrays
    passed in are copied.  Every vertex lies in the unit square.  Two
    curves are equal when all their vertices are.
    """

    u: np.ndarray
    k: np.ndarray
    # (ends, top) where empirical_curve built the curve, else None: the
    # read-only vertex indices of the ends of its runs of equal counts,
    # the only vertices its indices need, and the position among them of
    # the first largest K - u; equality and hashing ignore it
    _runs = None

    def __post_init__(self):
        self._own(np.array(self.u, dtype=float), np.array(self.k, dtype=float))

    @classmethod
    def _of(cls, u, k):
        # a curve that takes over the new float arrays u and k, uncopied
        curve = object.__new__(cls)
        curve._own(u, k)
        return curve

    def _own(self, u, k):
        if u.ndim != 1 or u.shape != k.shape:
            raise ValueError(f"u and k must be 1-D and of one length, got {u.shape}, {k.shape}")
        for values in (u, k):
            # NaN fails both comparisons
            if not (values.min(initial=0.0) >= 0.0 and values.max(initial=1.0) <= 1.0):
                raise ValueError("curve vertices must lie in the unit square")
            values.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "k", k)

    def __eq__(self, other):
        if not isinstance(other, EmpiricalCurve):
            return NotImplemented
        return np.array_equal(self.u, other.u) and np.array_equal(self.k, other.k)

    def __hash__(self):
        return hash((self.u.tobytes(), self.k.tobytes()))

    def interpolate(self, u):
        """Piecewise-linear K at arbitrary u in [0, 1]; exact at knots."""
        arr = np.asarray(u, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("u must lie in [0, 1]")
        # np.interp copies read-only vertex arrays whole; handed only the
        # vertices j - 1 and j that bracket each point, it finds the same
        # segment for each and gives the same values
        j = np.searchsorted(self.u, arr, side="right")
        near = np.union1d(j - 1, j)
        near = near[(near >= 0) & (near < self.u.size)]
        out = np.interp(arr, self.u[near], self.k[near]) if arr.size else np.empty(arr.shape)
        return float(out) if np.ndim(u) == 0 else out


@dataclass(frozen=True)
class DescriptiveStats:
    """Summary statistics of a citation dataset.

    dispersion_index is variance/mean, or NaN when the mean is zero.
    """

    n: int
    total: int
    min: int
    max: int
    mean: float
    variance: float
    dispersion_index: float


def _parse_count(token, line_number):
    try:
        value = int(token)
    except ValueError:
        raise DataError(f"expected a non-negative integer, got {token!r}", line_number) from None
    if value < 0:
        raise DataError(f"negative count {value}", line_number)
    return value


def _read_lines(stream):
    counts = []
    first_data_line = True
    for line_number, raw in enumerate(stream, start=1):
        token = raw.strip()
        if not token:
            continue
        if first_data_line:
            first_data_line = False
            # a non-numeric leading line is treated as a header
            try:
                int(token)
            except ValueError:
                continue
        counts.append(_parse_count(token, line_number))
    return counts


# numpy opens a path through np.lib._datasource, which decompresses files
# with these suffixes and looks for a missing file under each of them
_DATASOURCE_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _numpy_counts(source):
    """Counts of a "lines" text stream or file, parsed by numpy in one
    call, or None where numpy's result does not stand for the per-line
    parser's.

    It stands only for ASCII text (numpy 2.4's loadtxt reads some other
    letters as digits) with one non-negative int64 on each non-blank
    line; ndmin=2 keeps "1 2" from passing as two lines.  A file is
    decoded as ASCII, so other text raises UnicodeDecodeError here.  All
    else goes to _read_lines, the only source of line-numbered errors,
    header skipping and counts at or above 2**63.
    """
    with warnings.catch_warnings():
        # loadtxt warns on input with no data, which the per-line parser reports
        warnings.simplefilter("error", UserWarning)
        try:
            values = np.loadtxt(source, dtype=np.int64, comments=None, ndmin=2,
                                encoding="ascii")
        except (ValueError, UserWarning, OSError):  # UnicodeDecodeError is a ValueError
            return None
    return values[:, 0] if values.shape[1] == 1 and values.min() >= 0 else None


def _read_lines_fast(text):
    """Counts of a "lines" text: numpy's parse where it stands, else the
    per-line parser's (see _numpy_counts)."""
    counts = _numpy_counts(io.StringIO(text)) if text.isascii() else None
    return _read_lines(io.StringIO(text, newline=None)) if counts is None else counts


def _read_csv(stream, column):
    reader = csv.DictReader(stream)
    try:
        if reader.fieldnames is None:
            raise DataError("empty CSV input")
        if column not in reader.fieldnames:
            raise DataError(f"column {column!r} not found among {reader.fieldnames}")
        return [_parse_count((row[column] or "").strip(), reader.line_num) for row in reader]
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise DataError(str(exc), reader.reader.line_num) from None


def ingest(source, format="lines", column=None, label=None):
    """Read a citation dataset from a file or stream.

    Parameters
    ----------
    source : str, Path, or text stream
        Path to a UTF-8 text file, or an open text stream.
    format : {"lines", "csv"}
        "lines" expects one non-negative integer per line (blank lines
        ignored, one leading non-numeric header line tolerated), with
        lines ending at "\n", "\r\n" or "\r" as in a file opened in
        text mode.  numpy parses the whole text in one call, reading a
        path once; text it does not cover exactly (not ASCII, a header,
        no data, a count at or above 2**63) falls back to a per-line
        parser.
        "csv" reads the named integer column of an RFC-4180 file.
    column : str, optional
        Column name, required for format="csv".
    label : str, optional
        Dataset label; defaults to the file name when reading a path.

    Returns
    -------
    CitationDataset
        counts_desc is a read-only int64 array, or an object array of
        Python ints when a count is at least 2**63.

    Raises
    ------
    DataError
        On unreadable, undecodable, empty, malformed, or negative input
        (a CSV field over the csv module's size limit too); parse errors
        carry the 1-based line number.
    ValueError
        On an unknown format, or csv without a column name.
    """
    if format not in ("lines", "csv"):
        raise ValueError(f"format must be 'lines' or 'csv', got {format!r}")
    if format == "csv" and not column:
        raise ValueError("csv format requires a column name")

    text = counts = None
    if isinstance(source, (str, Path)):
        path = Path(source)
        if label is None:
            label = path.name
        if format == "lines" and path.is_file() and path.suffix not in _DATASOURCE_SUFFIXES:
            counts = _numpy_counts(path)  # an ASCII file is read once, by numpy
        if counts is None:
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise DataError(f"cannot read {path}: {exc}") from exc

    try:
        if format == "csv":
            counts = _read_csv(source if text is None else io.StringIO(text), column)
        elif text is not None:
            counts = _read_lines(io.StringIO(text, newline=None))  # numpy's parse did not stand
        elif counts is None:
            counts = _read_lines_fast(source.read())
    except UnicodeDecodeError as exc:  # a stream of bytes that are not its encoding
        raise DataError(f"cannot read {label or 'stream'}: {exc}") from None
    if not len(counts):
        raise DataError("no counts found in input")
    return CitationDataset(counts, label=label or "")


def empirical_curve(dataset):
    """Empirical Leimkuhler polygon of a dataset.

    Raises
    ------
    DataError
        If the dataset total is zero (the curve is undefined).
    """
    total = dataset.total
    if total <= 0:
        raise DataError("dataset total is zero; the empirical curve is undefined")
    n = dataset.n
    # the polygon is straight along each run of equal counts, so its
    # indices need only vertex 0, each vertex where the count changes,
    # and vertex n; found before k and u, its n-byte mask stays off
    # their peak
    counts = dataset.counts_desc
    ends = np.concatenate(([0], np.flatnonzero(counts[1:] != counts[:-1]) + 1, [n]))
    ends.flags.writeable = False
    # K - u rises along the counts above the mean, total / n, and nowhere
    # else, so its first maximum is at the end of the runs of those
    # counts; for integers c > total / n is c > total // n, exactly
    top = int(np.count_nonzero(counts[ends[:-1]] > total // n))
    # int64 sums convert to float exactly below 2**53, so s / total rounds
    # as it does for Python ints; larger totals take Python ints
    if total >= 2**53:
        counts = counts.astype(object)
    k = np.concatenate(([0.0], np.cumsum(counts) / total)).astype(float, copy=False)
    u = np.arange(n + 1, dtype=float)
    u /= n  # in place: one array of each at 10^6 vertices
    curve = EmpiricalCurve._of(u, k)
    object.__setattr__(curve, "_runs", (ends, top))
    return curve


def dispersion_index(variance, mean):
    """Variance-to-mean ratio; NaN when the mean is zero."""
    if mean == 0:
        return math.nan
    return variance / mean


def descriptive_stats(dataset, ddof=0):
    """Summary statistics of the counts.

    Parameters
    ----------
    dataset : CitationDataset
    ddof : int
        Variance divisor is n - ddof; 0 (population variance) by
        default, 1 for the sample variance.

    Returns
    -------
    DescriptiveStats

    Raises
    ------
    DataError
        If the dataset has too few counts for the divisor, n - ddof <= 0.
    """
    counts = dataset.counts_desc.astype(float)
    if dataset.n - ddof <= 0:
        raise DataError("variance divisor n - ddof must be positive")
    mean = float(counts.mean())
    variance = float(counts.var(ddof=ddof))
    return DescriptiveStats(
        n=dataset.n,
        total=dataset.total,
        min=int(dataset.counts_desc[-1]),
        max=int(dataset.counts_desc[0]),
        mean=mean,
        variance=variance,
        dispersion_index=dispersion_index(variance, mean),
    )


def _round_half_up(x):
    return np.floor(x + 0.5).astype(np.int64)


def sample_synthetic(family, n, seed, theta=None, sigma=1.0, alpha=None, beta=None,
                     scale=1000.0, label=None):
    """Draw an integer citation dataset from a base or mixture law.

    Continuous draws are scaled by `scale` and rounded half-up to
    integers; the rounding convention is part of the contract so
    round-trip estimator tests are reproducible.

    Parameters
    ----------
    family : Family or str
        One of power (theta), pareto (theta, sigma), pg (alpha, beta),
        pig (alpha, beta).
    n : int
        Number of sources, at least 1.
    seed : int
        Generator seed; identical seeds give identical datasets.
    theta, sigma, alpha, beta : float
        Family parameters; sigma is the Pareto scale.
    scale : float
        Magnitude applied to continuous draws before rounding.

    Returns
    -------
    CitationDataset
    """
    family = Family(family)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    given = {"theta": theta, "sigma": sigma, "alpha": alpha, "beta": beta, "scale": scale}
    for name, value in given.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    uniforms = rng.random(n)

    if family is Family.POWER:
        if theta is None or theta <= 0:
            raise ValueError("power sampling needs theta > 0")
        draws = uniforms**theta
    elif family is Family.PARETO:
        if theta is None or not (0.0 < theta < 1.0):
            raise ValueError("pareto sampling needs 0 < theta < 1")
        if sigma <= 0:
            raise ValueError("pareto sampling needs sigma > 0")
        draws = sigma * (1.0 - uniforms) ** (-theta)
    elif family in (Family.PG, Family.PIG):
        if alpha is None or beta is None or alpha <= 0 or beta <= 0:
            raise ValueError(f"{family.value} sampling needs alpha > 0 and beta > 0")
        if family is Family.PG:
            draws = uniforms ** rng.gamma(alpha, 1.0 / beta, n)
        else:
            draws = uniforms ** rng.wald(alpha, beta, n)
    else:
        raise ValueError(f"sampling is not supported for family {family.value!r}")

    counts = _round_half_up(scale * draws)
    if label is None:
        label = f"synthetic-{family.value}-n{n}-seed{seed}"
    return CitationDataset(counts, label=label)
