"""Property tests of the empirical polygon and its indices."""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leimkuhler.empirical import CitationDataset, EmpiricalCurve, empirical_curve, ingest
from leimkuhler.indices import empirical_indices

# count magnitudes whose totals fall below 2**53, between 2**53 and
# 2**63, and above 2**63
COUNTS = st.sampled_from([1000, 2**50, 2**62, 2**70]).flatmap(
    lambda top: st.lists(st.integers(0, top), min_size=1, max_size=60)
).filter(lambda counts: sum(counts) > 0)


@settings(deadline=None)
@given(COUNTS)
def test_vertices_are_correctly_rounded_ratios(counts):
    curve = empirical_curve(CitationDataset(tuple(counts)))
    desc = sorted(counts, reverse=True)
    n, total = len(desc), sum(desc)
    # Python int division is correctly rounded at any size
    assert curve.u.tolist() == [i / n for i in range(n + 1)]
    assert curve.k.tolist() == [0.0] + [s / total for s in accumulate(desc)]


@settings(deadline=None)
@given(COUNTS)
def test_polygon_and_index_invariants(counts):
    curve = empirical_curve(CitationDataset(tuple(counts)))
    u, k = curve.u, curve.k
    assert (k[0], k[-1]) == (0.0, 1.0)
    # slopes are at most n, each vertex carries one rounding, and n <= 60
    slopes = np.diff(k) / np.diff(u)
    assert np.all(np.diff(slopes) <= 1e-12)

    report = empirical_indices(curve, r_values=(1.0,))
    assert 0.0 <= report.gini <= 1.0
    assert abs(report.generalized_gini[0][1] - report.gini) <= 1e-12
    # the first exact argmax: the vertex after the counts above the mean
    top = sum(c * len(counts) > sum(counts) for c in counts)
    assert (report.pietra, report.pietra_argmax_u) == (k[top] - u[top], u[top])
    assert report.pietra >= float(np.max(k - u)) - 1e-15


# few distinct counts, each repeated, so that most vertices lie inside runs
TIED_COUNTS = st.tuples(
    st.lists(st.sampled_from([0, 1, 7, 1000, 2**50, 2**62, 2**70]), min_size=1, max_size=4,
             unique=True),
    st.lists(st.integers(0, 3), min_size=1, max_size=400),
).map(lambda drawn: [drawn[0][i % len(drawn[0])] for i in drawn[1]]).filter(
    lambda counts: sum(counts) > 0)


@settings(deadline=None)
@given(TIED_COUNTS, st.sampled_from([0.3, 0.5, 2.0, 2.5]))
def test_run_end_indices_match_every_vertex(counts, r):
    curve = empirical_curve(CitationDataset(tuple(counts)))
    runs = empirical_indices(curve, r_values=(r, 1.0))
    every = empirical_indices(EmpiricalCurve(curve.u, curve.k), r_values=(r, 1.0))
    assert abs(runs.gini - every.gini) <= 1e-13
    assert abs(runs.pietra - every.pietra) <= 1e-13
    for (_, a), (_, b) in zip(runs.generalized_gini, every.generalized_gini):
        assert abs(a - b) <= 1e-13


# np.array([2**63, 1]) is float64 and an int64 sum wraps above 2**63 - 1,
# so each of these must keep exact ints and a non-float dtype
@pytest.mark.parametrize("counts, dtype", [
    ((2**63, 1), object),
    ((2**64 + 1, 2**63), object),
    ((2**62,) * 3, np.int64),
])
def test_int64_edge_stays_exact(counts, dtype):
    dataset = CitationDataset(counts)
    desc = sorted(counts, reverse=True)
    assert dataset.counts_desc.dtype == dtype
    assert dataset.counts_desc.tolist() == desc
    assert all(type(c) is int for c in dataset.counts_desc.tolist())
    assert type(dataset.total) is int and dataset.total == sum(counts)
    assert empirical_curve(dataset).k.tolist() == (
        [0.0] + [s / sum(desc) for s in accumulate(desc)])


def test_int64_edge_ingest_stays_exact(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text(f"3\n{2**63}\n1\n")
    dataset = ingest(path)
    desc = [2**63, 3, 1]
    assert dataset.counts_desc.dtype == object
    assert dataset.counts_desc.tolist() == desc
    assert dataset.total == 2**63 + 4
    assert dataset == CitationDataset(desc, label="counts.txt")
    assert empirical_curve(dataset).k.tolist() == (
        [0.0] + [s / sum(desc) for s in accumulate(desc)])
