"""Tests for dataset ingestion and the empirical polygon."""

import dataclasses
import gzip
import io
import math
import random
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leimkuhler.curves import evaluate, power
from leimkuhler.empirical import (
    CitationDataset,
    DataError,
    EmpiricalCurve,
    descriptive_stats,
    dispersion_index,
    _read_lines,
    _read_lines_fast,
    empirical_curve,
    ingest,
    sample_synthetic,
)


class TestIngest:
    def test_lines(self):
        ds = ingest(io.StringIO("3\n1\n2\n"))
        assert ds.counts_desc.tolist() == [3, 2, 1]
        assert ds.counts_desc.dtype == np.int64
        assert ds.n == 3
        assert ds.total == 6

    def test_lines_blank_lines_ignored(self):
        ds = ingest(io.StringIO("\n3\n\n1\n2\n\n"))
        assert ds.counts_desc.tolist() == [3, 2, 1]

    def test_lines_header_skipped(self):
        ds = ingest(io.StringIO("citations\n3\n1\n"))
        assert ds.counts_desc.tolist() == [3, 1]
        assert ds.counts_desc.dtype == np.int64

    def test_lines_malformed_reports_line_number(self):
        with pytest.raises(DataError, match="line 2"):
            ingest(io.StringIO("3\nx\n"))

    def test_lines_negative_rejected(self):
        with pytest.raises(DataError, match="negative"):
            ingest(io.StringIO("3\n-1\n"))

    def test_lines_empty_rejected(self):
        with pytest.raises(DataError, match="no counts"):
            ingest(io.StringIO(""))
        with pytest.raises(DataError, match="no counts"):
            ingest(io.StringIO("header-only\n"))

    def test_csv(self):
        text = "journal,citations\na,0\nb,0\nc,5\n"
        ds = ingest(io.StringIO(text), format="csv", column="citations")
        assert ds.counts_desc.tolist() == [5, 0, 0]
        assert ds.counts_desc.dtype == np.int64
        assert ds.total == 5

    def test_csv_quoted_fields(self):
        text = 'name,citations\n"x, y",7\nz,2\n'
        ds = ingest(io.StringIO(text), format="csv", column="citations")
        assert ds.counts_desc.tolist() == [7, 2]

    def test_csv_missing_column(self):
        with pytest.raises(DataError, match="'cites' not found"):
            ingest(io.StringIO("a,b\n1,2\n"), format="csv", column="cites")

    def test_csv_requires_column(self):
        with pytest.raises(ValueError, match="column"):
            ingest(io.StringIO("a\n1\n"), format="csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            ingest(io.StringIO("1\n"), format="json")

    def test_path_input(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("4\n3\n2\n1\n")
        ds = ingest(path)
        assert ds.counts_desc.tolist() == [4, 3, 2, 1]
        assert ds.counts_desc.dtype == np.int64
        assert not ds.counts_desc.flags.writeable
        assert ds.label == "counts.txt"

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest(tmp_path / "absent.txt")

    def test_csv_and_lines_agree(self, tmp_path):
        lines = ingest(io.StringIO("5\n1\n3\n"))
        text = "citations\n5\n1\n3\n"
        csv_ds = ingest(io.StringIO(text), format="csv", column="citations")
        assert lines.counts_desc.tolist() == csv_ds.counts_desc.tolist()
        assert lines == csv_ds


def _parsed(parser, text):
    try:
        return [int(c) for c in parser(text)]
    except DataError as exc:
        return str(exc), exc.line_number


def _ingested(source):
    try:
        return sorted(int(c) for c in ingest(source).counts_desc)
    except DataError as exc:
        return str(exc), exc.line_number


def _numpy_lines(text, ndmin=2):
    return np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=ndmin)


# lines that are mostly counts, padded with whitespace int() strips,
# and otherwise junk over an alphabet where int() and np.loadtxt differ
_PAD = st.sampled_from(["", " ", "\t", "\x0c", "\xa0", " \t "])
_NUMBER = st.builds(lambda pad, sign, n, tail: pad + sign + str(n) + tail,
                    _PAD, st.sampled_from(["", "", "", "+", "-"]),
                    st.integers(0, 1000) | st.integers(0, 2**64), _PAD)
_JUNK = st.text(alphabet="0123456789+-_.#aZ \t\x0c\xa0\u0663\uff15\u01fe", max_size=6)
_LINE = st.one_of(_NUMBER, _JUNK, st.just(""), st.just("citations"))


def _text(line):
    return st.builds(
        lambda lines, cut: "".join(line + end for line, end in lines)[:cut or None],
        st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
        st.sampled_from([0, 0, -1]),
    )


# texts of counts and blank lines alone reach the numpy path more often
_TEXT = _text(_LINE) | _text(_NUMBER | st.just(""))


class TestIngestFastPath:
    """numpy's one-call parse must give what the per-line parser gives."""

    @settings(deadline=None, max_examples=300)
    @given(_TEXT)
    def test_agrees_with_per_line_parser(self, text):
        per_line = _parsed(lambda t: _read_lines(io.StringIO(t, newline=None)), text)
        assert _parsed(_read_lines_fast, text) == per_line

    @settings(deadline=None, max_examples=150)
    @given(_TEXT)
    def test_file_agrees_with_its_text(self, text):
        # numpy reads a path itself; what it does not cover is read again
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "counts.txt"
            path.write_bytes(text.encode("utf-8"))
            from_text = _ingested(io.StringIO(path.read_text(encoding="utf-8")))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _ingested(path) == from_text

    def test_ascii_file_is_read_once_by_numpy(self, tmp_path, monkeypatch):
        path = tmp_path / "counts.txt"
        path.write_bytes(b"3\r\n1\n\n2\r")
        monkeypatch.setattr(Path, "read_text", lambda *args, **kwargs: pytest.fail("read again"))
        assert ingest(path).counts_desc.tolist() == [3, 2, 1]

    @pytest.mark.parametrize("data, expected", [
        ("5\n\u01fe\n7\n".encode("utf-8"), "line 2: expected a non-negative integer"),
        ("\u0663\n1\n".encode("utf-8"), [1, 3]),
        (b"", "no counts"),
        (b" \n\t\n", "no counts"),
        (b"citations\n3\n", [3]),
        (f"{2**63}\n1\n".encode(), [1, 2**63]),
        (b"3\n-1\n", "line 2: negative count -1"),
    ], ids=["non-ascii letter", "non-ascii digit", "empty", "blank", "header", "2^63",
            "negative"])
    def test_file_falls_back_to_per_line_parser(self, data, expected, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt's no-data warning stays inside
            got = _ingested(path)
        assert got == expected if isinstance(expected, list) else expected in got[0]

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_bytes(b"3\n\xe9\n")
        with pytest.raises(DataError, match="cannot read"):
            ingest(path)

    def test_compressed_file_is_not_opened(self, tmp_path):
        # numpy would decompress these, and open one in place of a missing file
        data = gzip.compress(b"3\n1\n")
        (tmp_path / "counts.txt.gz").write_bytes(data)
        for name in ("counts.txt.gz", "counts.txt"):
            with pytest.raises(DataError, match="cannot read"):
                ingest(tmp_path / name)

    def test_plain_text_takes_numpy_path(self):
        counts = _read_lines_fast("3\n 1\r\n\n\t2 \n")
        assert isinstance(counts, np.ndarray) and counts.tolist() == [3, 1, 2]

    def test_two_values_on_one_line(self):
        # with ndmin=1, loadtxt reads a one-line "1 2" as two counts
        assert _numpy_lines("1 2\n", ndmin=1).tolist() == [1, 2]
        # the per-line parser takes that line as a header
        assert _read_lines_fast("1 2\n") == []
        with pytest.raises(DataError, match="no counts"):
            ingest(io.StringIO("1 2\n"))
        with pytest.raises(DataError, match="line 2: expected a non-negative integer"):
            ingest(io.StringIO("5\n1 2\n"))

    def test_forms_only_int_accepts(self):
        # int() reads underscores and non-ASCII digits; loadtxt refuses them
        for text, value in (("1_000\n", 1000), ("\u0663\n", 3), ("\uff15\n", 5)):
            with pytest.raises(ValueError):
                _numpy_lines(text)
            assert ingest(io.StringIO(text)).counts_desc.tolist() == [value]

    def test_header_line(self):
        with pytest.raises(ValueError):
            _numpy_lines("citations\n3\n1\n")
        assert _read_lines_fast("citations\n3\n1\n") == [3, 1]

    def test_non_ascii_letter_is_not_a_digit(self):
        # numpy 2.4's loadtxt reads U+01FE as the digit value 462;
        # non-ASCII text never takes the numpy path
        with pytest.raises(DataError, match="line 2: expected a non-negative integer"):
            ingest(io.StringIO("5\n\u01fe\n7\n"))

    def test_line_ends(self):
        # loadtxt refuses a bare "\r"; lines then end as in a text-mode file
        with pytest.raises(ValueError):
            _numpy_lines("1\r2\r")
        assert ingest(io.StringIO("1\r2\r", newline="")).counts_desc.tolist() == [2, 1]
        assert ingest(io.StringIO("1\r\n\r\n2\r\n")).counts_desc.tolist() == [2, 1]

    def test_negative_and_oversized_counts(self):
        with pytest.raises(DataError, match="line 2: negative count -1"):
            ingest(io.StringIO("3\n-1\n"))
        assert _read_lines_fast("-0\n+4\n").tolist() == [0, 4]
        assert _read_lines_fast(f"{2**63}\n1\n") == [2**63, 1]


class TestCitationDataset:
    def test_sorts_descending(self):
        ds = CitationDataset((1, 5, 3))
        assert ds.counts_desc.tolist() == [5, 3, 1]
        assert ds.counts_desc.dtype == np.int64
        assert not ds.counts_desc.flags.writeable

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            CitationDataset(())

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            CitationDataset((3, -1))

    def test_shuffled_inputs_give_equal_datasets(self):
        rng = random.Random(406)
        counts = [rng.randint(0, 50) for _ in range(40)]
        shuffled = counts[:]
        rng.shuffle(shuffled)
        a, b = CitationDataset(counts), CitationDataset(np.array(shuffled))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, CitationDataset(tuple(shuffled))}) == 1
        assert a != CitationDataset(counts, label="other")
        assert a != CitationDataset(counts[1:] + [51])
        big = CitationDataset((2**70, 3, 2**64))
        assert big == CitationDataset([3, 2**64, 2**70]) and hash(big) == hash(CitationDataset([3, 2**64, 2**70]))

    def test_counts_cannot_be_written(self):
        source = np.array([1, 3])
        ds = CitationDataset(source)
        source[0] = 9
        assert ds.counts_desc.tolist() == [3, 1]
        with pytest.raises(ValueError):
            ds.counts_desc[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.counts_desc = np.array([0])
        assert not CitationDataset((2**63, 1)).counts_desc.flags.writeable

    @pytest.mark.parametrize("counts, bad", [
        ([2.7, 1.2], "2.7"),
        (np.array([2.0, 2.7]), "2.7"),
        ([3, math.nan], "nan"),
        ([math.inf], "inf"),
        (["3", "2"], "'3'"),
        ([3, "2"], "'2'"),
    ])
    def test_rejects_non_integral_counts(self, counts, bad):
        with pytest.raises(DataError, match=f"count .*{re.escape(bad)}.* is not an integer"):
            CitationDataset(counts)

    @pytest.mark.parametrize("counts, expected, dtype", [
        ([2.0, 5.0], [5, 2], np.int64),
        (np.array([1.0, 3.0]), [3, 1], np.int64),
        ([np.int32(4), np.uint8(7), np.int64(1)], [7, 4, 1], np.int64),
        ([np.uint64(2**63), 1], [2**63, 1], object),
        ([float(2**64), 2**63, 1.0], [2**64, 2**63, 1], object),
    ])
    def test_accepts_integral_counts(self, counts, expected, dtype):
        ds = CitationDataset(counts)
        assert ds.counts_desc.tolist() == expected
        assert ds.counts_desc.dtype == dtype
        assert ds.total == sum(expected)

    def test_integral_float_array_matches_int_array(self):
        counts = np.random.default_rng(0).integers(0, 2**52, size=1000)
        floats = CitationDataset(counts.astype(float))
        ints = CitationDataset(counts)
        assert floats.counts_desc.dtype == np.int64
        assert np.array_equal(floats.counts_desc, ints.counts_desc)
        assert floats.total == ints.total

    @pytest.mark.parametrize("bad, error", [
        (2.7, "is not an integer"),
        (np.nan, "is not an integer"),
        (np.inf, "is not an integer"),
        (-1.0, "must be non-negative"),
        (2.0**63, None),
    ])
    def test_float_array_checked_as_each_count(self, bad, error):
        # a float array that fails the one-pass check takes the per-count
        # path of a list of the same numpy floats, message and all
        def outcome(counts):
            try:
                ds = CitationDataset(counts)
            except DataError as exc:
                return str(exc)
            return ds.counts_desc.tolist(), ds.counts_desc.dtype, ds.total

        array = np.array([3.0, bad])
        got = outcome(array)
        assert got == outcome(list(array))
        if error is None:
            assert got == ([2**63, 3], object, 2**63 + 3)
        else:
            assert error in got

    def test_total_is_an_exact_int(self):
        ds = CitationDataset(np.array([4, 3, 2, 1], dtype=np.int32))
        assert ds.counts_desc.dtype == np.int64
        assert type(ds.total) is int and ds.total == 10


class TestEmpiricalCurve:
    def test_known_polygon(self):
        curve = empirical_curve(CitationDataset((4, 3, 2, 1)))
        coords = list(zip(curve.u.tolist(), curve.k.tolist()))
        assert coords == [(0.0, 0.0), (0.25, 0.4), (0.5, 0.7), (0.75, 0.9), (1.0, 1.0)]
        assert curve.u.size - 1 == 4  # one segment per source

    def test_single_source(self):
        curve = empirical_curve(CitationDataset((5,)))
        assert list(zip(curve.u.tolist(), curve.k.tolist())) == [(0.0, 0.0), (1.0, 1.0)]

    def test_equal_counts_give_diagonal(self):
        curve = empirical_curve(CitationDataset((2, 2)))
        assert list(zip(curve.u.tolist(), curve.k.tolist())) == [
            (0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]

    def test_zero_total_rejected(self):
        with pytest.raises(DataError, match="total is zero"):
            empirical_curve(CitationDataset((0, 0)))

    def test_polygon_invariants_hold_for_random_datasets(self):
        rng = random.Random(404)
        for _ in range(50):
            n = rng.randint(1, 60)
            counts = [rng.randint(0, 100) for _ in range(n)]
            if sum(counts) == 0:
                counts[0] = 1
            curve = empirical_curve(CitationDataset(tuple(counts)))
            k = curve.k
            u = curve.u
            assert k[0] == 0.0 and k[-1] == 1.0
            assert np.all(np.diff(k) >= -1e-15)
            # slopes nonincreasing because counts are sorted descending
            slopes = np.diff(k) / np.diff(u)
            assert np.all(np.diff(slopes) <= 1e-9)

    def test_permutation_invariance(self):
        rng = random.Random(405)
        counts = [rng.randint(0, 50) for _ in range(30)]
        counts[0] += 1
        shuffled = counts[:]
        rng.shuffle(shuffled)
        a = empirical_curve(CitationDataset(tuple(counts)))
        b = empirical_curve(CitationDataset(tuple(shuffled)))
        assert a == b

    def test_interpolate_exact_at_knots(self):
        curve = empirical_curve(CitationDataset((4, 3, 2, 1)))
        for u, k in zip(curve.u.tolist(), curve.k.tolist()):
            assert curve.interpolate(u) == k

    def test_interpolate_midpoints(self):
        curve = empirical_curve(CitationDataset((4, 3, 2, 1)))
        assert curve.interpolate(0.125) == pytest.approx(0.2)
        got = curve.interpolate(np.array([0.375, 0.625]))
        assert got == pytest.approx([0.55, 0.8])

    def test_interpolate_rejects_out_of_range(self):
        curve = empirical_curve(CitationDataset((4, 3, 2, 1)))
        with pytest.raises(ValueError):
            curve.interpolate(1.5)
        with pytest.raises(ValueError):
            curve.interpolate(float("nan"))

    def test_interpolate_at_no_points_is_empty(self):
        # as np.interp and evaluate(model, []) give it: an empty float array
        curve = empirical_curve(CitationDataset((4, 3, 2, 1)))
        for u in ([], np.array([]), np.empty((0, 2))):
            got = curve.interpolate(u)
            assert isinstance(got, np.ndarray)
            assert (got.dtype, got.shape) == (np.float64, np.shape(u))

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_interpolate_is_np_interp_on_writeable_copies(self, data):
        # uneven polygons, some with repeated abscissas, at random points
        # and at the knots: interpolate hands np.interp only the vertices
        # that bracket the points, and must give its values bit for bit
        unit = st.floats(0.0, 1.0)
        inner = data.draw(st.lists(unit, max_size=30))
        inner += data.draw(st.lists(st.sampled_from(inner), max_size=10)) if inner else []
        u = np.array([0.0, *sorted(inner), 1.0])
        k = np.array(data.draw(st.lists(unit, min_size=u.size, max_size=u.size)))
        curve = EmpiricalCurve(u, k)
        x = np.array(data.draw(st.lists(unit, max_size=40)) + u.tolist())
        data.draw(st.randoms()).shuffle(x)
        expected = np.interp(x, u.copy(), k.copy())
        assert curve.interpolate(x).tobytes() == expected.tobytes()
        for point in x[:5].tolist():
            assert curve.interpolate(point) == float(np.interp(point, u, k))

    def test_interpolate_does_not_copy_the_polygon(self):
        # np.interp copies read-only vertex arrays whole; a 257-point
        # interpolate on 10^6 vertices stays well below one 8 MB array
        n = 10**6
        curve = EmpiricalCurve(np.arange(n + 1) / n, np.sqrt(np.arange(n + 1) / n))
        x = np.linspace(0.0, 1.0, 257)
        curve.interpolate(x)
        tracemalloc.start()
        try:
            got = curve.interpolate(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < curve.u.nbytes / 16
        assert got.tobytes() == np.interp(x, curve.u.copy(), curve.k.copy()).tobytes()

    def test_vertices_must_be_two_columns_in_the_unit_square(self):
        curve = EmpiricalCurve([0.0, 0.25, 1.0], [0.0, 0.4, 1.0])
        assert (curve.u.dtype, curve.k.dtype) == (np.float64, np.float64)
        assert (curve.u.tolist(), curve.k.tolist()) == ([0.0, 0.25, 1.0], [0.0, 0.4, 1.0])
        with pytest.raises(ValueError, match="one length"):
            EmpiricalCurve([0.0, 0.5, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="1-D"):
            EmpiricalCurve([[0.0, 1.0]], [[0.0, 1.0]])
        for u, k in (([0.5], [1.2]), ([-0.1], [0.0]), ([0.5], [math.nan]), ([math.nan], [0.5])):
            with pytest.raises(ValueError, match="unit square"):
                EmpiricalCurve(u, k)

    def test_vertices_cannot_be_written(self):
        u, k = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.75, 1.0])
        curve = EmpiricalCurve(u, k)
        u[1], k[1] = 0.25, 0.5
        assert (curve.u.tolist(), curve.k.tolist()) == ([0.0, 0.5, 1.0], [0.0, 0.75, 1.0])
        for values in (curve.u, curve.k):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[1] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            curve.u = u

    def test_equal_vertices_give_equal_curves(self):
        curve = empirical_curve(CitationDataset((4, 3, 2, 1)))
        same = EmpiricalCurve([0.0, 0.25, 0.5, 0.75, 1.0], (0.0, 0.4, 0.7, 0.9, 1.0))
        assert curve == same and hash(curve) == hash(same)
        assert len({curve, same, EmpiricalCurve(curve.u, curve.k)}) == 1
        assert curve != EmpiricalCurve(curve.u, [0.0, 0.4, 0.7, 0.95, 1.0])
        assert curve != EmpiricalCurve(curve.u[:-1], curve.k[:-1])

    def test_polygon_is_built_without_a_second_copy(self):
        # empirical_curve hands the arrays it builds to the curve: at its
        # peak it holds about one u and one k, where copies would add two
        dataset = CitationDataset(np.arange(200_000) % 97)
        empirical_curve(dataset)
        tracemalloc.start()
        try:
            curve = empirical_curve(dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * curve.u.nbytes
        assert not (curve.u.flags.writeable or curve.k.flags.writeable)
        assert curve == EmpiricalCurve(np.arange(dataset.n + 1) / dataset.n, curve.k)


class TestDescriptiveStats:
    def test_basic(self):
        stats = descriptive_stats(CitationDataset((4, 3, 2, 1)))
        assert stats.n == 4
        assert stats.total == 10
        assert stats.min == 1
        assert stats.max == 4
        assert stats.mean == 2.5
        assert stats.variance == pytest.approx(1.25)
        assert stats.dispersion_index == pytest.approx(0.5)

    def test_constant_counts(self):
        stats = descriptive_stats(CitationDataset((2, 2, 2)))
        assert stats.variance == 0.0
        assert stats.dispersion_index == 0.0

    def test_zero_mean_gives_nan_dispersion(self):
        stats = descriptive_stats(CitationDataset((0, 0)))
        assert stats.mean == 0.0
        assert math.isnan(stats.dispersion_index)

    def test_sample_variance_option(self):
        stats = descriptive_stats(CitationDataset((4, 3, 2, 1)), ddof=1)
        assert stats.variance == pytest.approx(5.0 / 3.0)

    def test_dispersion_arithmetic(self):
        assert dispersion_index(273.90, 13.81) == pytest.approx(19.8335, abs=5e-4)

    def test_ddof_too_large(self):
        with pytest.raises(ValueError):
            descriptive_stats(CitationDataset((3,)), ddof=1)


class TestSampleSynthetic:
    def test_deterministic(self):
        a = sample_synthetic("power", 50, seed=7, theta=2.0)
        b = sample_synthetic("power", 50, seed=7, theta=2.0)
        assert a.counts_desc.tolist() == b.counts_desc.tolist()
        assert a.counts_desc.dtype == np.int64

    def test_different_seeds_differ(self):
        a = sample_synthetic("power", 50, seed=7, theta=2.0)
        b = sample_synthetic("power", 50, seed=8, theta=2.0)
        assert a.counts_desc.tolist() != b.counts_desc.tolist()

    def test_power_inversion_traced(self):
        # the single draw must be round(scale * u**theta) for the
        # generator's first uniform
        u = float(np.random.default_rng(11).random(1)[0])
        ds = sample_synthetic("power", 1, seed=11, theta=2.0, scale=1000.0)
        assert ds.counts_desc[0] == int(math.floor(1000.0 * u**2.0 + 0.5))

    def test_pareto_mean_matches_law(self):
        # mean of sigma (1-U)**(-theta) is sigma/(1-theta) = 2
        ds = sample_synthetic("pareto", 10_000, seed=21, theta=0.5, sigma=1.0, scale=1000.0)
        mean = ds.total / ds.n / 1000.0
        assert abs(mean - 2.0) / 2.0 < 0.10

    def test_power_curve_convergence(self):
        # the empirical polygon of power-law samples approaches the
        # parametric curve as n grows
        ds = sample_synthetic("power", 100_000, seed=31, theta=2.0)
        curve = empirical_curve(ds)
        sup = np.max(np.abs(curve.k - evaluate(power(2.0), curve.u)))
        assert sup < 0.01

    def test_mixture_families_sample(self):
        for family in ("pg", "pig"):
            ds = sample_synthetic(family, 200, seed=5, alpha=2.0, beta=1.0)
            assert ds.n == 200
            assert ds.total > 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sample_synthetic("power", 10, seed=1)
        with pytest.raises(ValueError):
            sample_synthetic("power", 0, seed=1, theta=1.0)
        with pytest.raises(ValueError):
            sample_synthetic("pareto", 10, seed=1, theta=1.5)
        with pytest.raises(ValueError):
            sample_synthetic("pg", 10, seed=1, alpha=1.0)
        with pytest.raises(ValueError):
            sample_synthetic("gpig", 10, seed=1, alpha=1.0, beta=1.0)

    @pytest.mark.parametrize("family, params, name", [
        ("power", {"theta": math.nan}, "theta"),
        ("power", {"theta": math.inf}, "theta"),
        ("pareto", {"theta": 0.5, "sigma": math.inf}, "sigma"),
        ("pg", {"alpha": math.inf, "beta": 1.0}, "alpha"),
        ("pig", {"alpha": 1.0, "beta": math.nan}, "beta"),
        ("power", {"theta": 2.0, "scale": math.inf}, "scale"),
        ("power", {"theta": 2.0, "scale": math.nan}, "scale"),
    ])
    def test_rejects_non_finite_parameters(self, family, params, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sample_synthetic(family, 10, seed=1, **params)
