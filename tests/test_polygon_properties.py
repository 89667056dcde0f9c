"""Property tests of the empirical polygon and its indices."""

from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leimkuhler.empirical import CitationDataset, empirical_curve
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
    assert curve.u_values().tolist() == [i / n for i in range(n + 1)]
    assert curve.k_values().tolist() == [0.0] + [s / total for s in accumulate(desc)]


@settings(deadline=None)
@given(COUNTS)
def test_polygon_and_index_invariants(counts):
    curve = empirical_curve(CitationDataset(tuple(counts)))
    u, k = curve.u_values(), curve.k_values()
    assert (k[0], k[-1]) == (0.0, 1.0)
    # slopes are at most n, each vertex carries one rounding, and n <= 60
    slopes = np.diff(k) / np.diff(u)
    assert np.all(np.diff(slopes) <= 1e-12)

    report = empirical_indices(curve, r_values=(1.0,))
    assert 0.0 <= report.gini <= 1.0
    assert abs(report.generalized_gini[0][1] - report.gini) <= 1e-12
    top = int(np.argmax(k - u))
    assert (report.pietra, report.pietra_argmax_u) == (k[top] - u[top], u[top])
