"""Tests for dataset ingestion and the empirical polygon."""

import io
import math
import random

import numpy as np
import pytest

from leimkuhler.curves import evaluate, power
from leimkuhler.empirical import (
    CitationDataset,
    DataError,
    descriptive_stats,
    dispersion_index,
    empirical_curve,
    ingest,
    sample_synthetic,
)


class TestIngest:
    def test_lines(self):
        ds = ingest(io.StringIO("3\n1\n2\n"))
        assert ds.counts_desc == (3, 2, 1)
        assert ds.n == 3
        assert ds.total == 6

    def test_lines_blank_lines_ignored(self):
        ds = ingest(io.StringIO("\n3\n\n1\n2\n\n"))
        assert ds.counts_desc == (3, 2, 1)

    def test_lines_header_skipped(self):
        ds = ingest(io.StringIO("citations\n3\n1\n"))
        assert ds.counts_desc == (3, 1)

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
        assert ds.counts_desc == (5, 0, 0)
        assert ds.total == 5

    def test_csv_quoted_fields(self):
        text = 'name,citations\n"x, y",7\nz,2\n'
        ds = ingest(io.StringIO(text), format="csv", column="citations")
        assert ds.counts_desc == (7, 2)

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
        assert ds.counts_desc == (4, 3, 2, 1)
        assert ds.label == "counts.txt"

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest(tmp_path / "absent.txt")

    def test_csv_and_lines_agree(self, tmp_path):
        lines = ingest(io.StringIO("5\n1\n3\n"))
        text = "citations\n5\n1\n3\n"
        csv_ds = ingest(io.StringIO(text), format="csv", column="citations")
        assert lines.counts_desc == csv_ds.counts_desc


class TestCitationDataset:
    def test_sorts_descending(self):
        ds = CitationDataset((1, 5, 3))
        assert ds.counts_desc == (5, 3, 1)

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            CitationDataset(())

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            CitationDataset((3, -1))


class TestEmpiricalCurve:
    def test_known_polygon(self):
        curve = empirical_curve(CitationDataset((4, 3, 2, 1)))
        coords = [(p.u, p.k_value) for p in curve.points]
        assert coords == [(0.0, 0.0), (0.25, 0.4), (0.5, 0.7), (0.75, 0.9), (1.0, 1.0)]
        assert curve.source_n == 4

    def test_single_source(self):
        curve = empirical_curve(CitationDataset((5,)))
        assert [(p.u, p.k_value) for p in curve.points] == [(0.0, 0.0), (1.0, 1.0)]

    def test_equal_counts_give_diagonal(self):
        curve = empirical_curve(CitationDataset((2, 2)))
        assert [(p.u, p.k_value) for p in curve.points] == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]

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
            k = curve.k_values()
            u = curve.u_values()
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
        for p in curve.points:
            assert curve.interpolate(p.u) == p.k_value

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
        assert a.counts_desc == b.counts_desc

    def test_different_seeds_differ(self):
        a = sample_synthetic("power", 50, seed=7, theta=2.0)
        b = sample_synthetic("power", 50, seed=8, theta=2.0)
        assert a.counts_desc != b.counts_desc

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
        u = curve.u_values()
        sup = np.max(np.abs(curve.k_values() - evaluate(power(2.0), u)))
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
