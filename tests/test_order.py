"""Tests for curve comparison and parameter-monotonicity checks."""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from leimkuhler import order
from leimkuhler.curves import (
    Family,
    _even_grid,
    _Points,
    evaluate,
    gp,
    gpg,
    pareto,
    pg,
    pig,
    power,
)
from leimkuhler.order import (
    DominanceResult,
    PropositionCase,
    PropositionCheck,
    Relation,
    check_proposition,
    leimkuhler_compare,
)
from tests.test_curves import draw_model

_GRID = np.linspace(0.0, 1.0, 257)


def _brentq_roots(a, b, tol, xtol):
    # an independent root of K_a - K_b on each bracket of the default
    # grid where the gap changes sign outside the dead band
    gap = lambda v: float(evaluate(a, v) - evaluate(b, v))
    roots, last_u, last_sign = [], None, 0
    for u, g in zip(_GRID, evaluate(a, _GRID) - evaluate(b, _GRID)):
        if abs(g) <= tol:
            continue
        if last_sign and (g > 0) != (last_sign > 0):
            roots.append(brentq(gap, last_u, float(u), xtol=xtol))
        last_u, last_sign = float(u), g
    return roots


def _count_evaluate_calls(monkeypatch):
    calls = []
    real = order.evaluate
    monkeypatch.setattr(order, "evaluate", lambda *args: calls.append(1) or real(*args))
    return calls


_MIRROR = {
    Relation.FIRST_DOMINATES: Relation.SECOND_DOMINATES,
    Relation.SECOND_DOMINATES: Relation.FIRST_DOMINATES,
    Relation.CROSSING: Relation.CROSSING,
    Relation.EQUAL: Relation.EQUAL,
}


class TestDominanceResult:
    def test_crossing_requires_points(self):
        with pytest.raises(ValueError):
            DominanceResult(Relation.CROSSING, 0.1, ())
        with pytest.raises(ValueError):
            DominanceResult(Relation.EQUAL, 0.0, (0.5,))

    def test_valid_combinations(self):
        DominanceResult(Relation.CROSSING, 0.1, (0.4,))
        DominanceResult(Relation.FIRST_DOMINATES, 0.1, ())


class TestLeimkuhlerCompare:
    def test_steeper_power_dominates(self):
        result = leimkuhler_compare(power(1.0), power(2.0))
        assert result.relation is Relation.SECOND_DOMINATES
        assert result.crossing_points == ()
        assert result.max_gap > 0.05

    def test_power_pareto_crossing(self):
        result = leimkuhler_compare(power(1.0), pareto(0.9), tol=1e-10)
        assert result.relation is Relation.CROSSING
        assert len(result.crossing_points) == 1
        # independent root of K_power - K_pareto on the bracket where
        # the sign flips
        gap = lambda v: (1.0 - (1.0 - v) ** 2.0) - v**0.1
        root = brentq(gap, 0.5, 1.0 - 1e-12, xtol=1e-13)
        assert result.crossing_points[0] == pytest.approx(root, abs=2e-10)

    def test_identical_models_equal(self):
        model = pg(0.701, 0.102)
        result = leimkuhler_compare(model, model)
        assert result.relation is Relation.EQUAL
        assert result.max_gap == 0.0

    def test_dead_band_absorbs_tiny_gaps(self):
        result = leimkuhler_compare(power(1.0), power(1.0 + 1e-12), tol=1e-6)
        assert result.relation is Relation.EQUAL

    def test_antisymmetry_over_random_pairs(self):
        rng = random.Random(2024)
        families = list(Family)
        for _ in range(40):
            a = draw_model(rng, rng.choice(families))
            b = draw_model(rng, rng.choice(families))
            ab = leimkuhler_compare(a, b, grid_size=129, tol=1e-9)
            ba = leimkuhler_compare(b, a, grid_size=129, tol=1e-9)
            # negating the gap is exact, and so is every step of the
            # refinement under it
            assert ba.relation is _MIRROR[ab.relation]
            assert ba.max_gap == ab.max_gap
            assert ba.crossing_points == ab.crossing_points

    def test_crossing_iff_points_located(self):
        rng = random.Random(77)
        families = list(Family)
        for _ in range(40):
            a = draw_model(rng, rng.choice(families))
            b = draw_model(rng, rng.choice(families))
            result = leimkuhler_compare(a, b, grid_size=65)
            assert (result.relation is Relation.CROSSING) == bool(result.crossing_points)

    def test_crossing_points_bracket_sign_changes(self):
        result = leimkuhler_compare(power(1.0), pareto(0.9), tol=1e-9)
        for point in result.crossing_points:
            left = float(evaluate(power(1.0), np.array([point - 1e-6]))[0]
                         - evaluate(pareto(0.9), np.array([point - 1e-6]))[0])
            right = float(evaluate(power(1.0), np.array([point + 1e-6]))[0]
                          - evaluate(pareto(0.9), np.array([point + 1e-6]))[0])
            assert left * right < 0

    def test_crossing_points_match_brentq(self):
        # every crossing is the secant root of a bracket within tol, so
        # it agrees with an independent brentq root of the gap on the
        # same grid bracket
        rng = random.Random(6060)
        families = list(Family)
        tol = 1e-9
        checked = with_pagb = 0
        for i in range(40):
            a = draw_model(rng, Family.PAGB if i % 2 == 0 else rng.choice(families))
            b = draw_model(rng, rng.choice(families))
            result = leimkuhler_compare(a, b, tol=tol)
            if result.relation is not Relation.CROSSING:
                continue
            roots = _brentq_roots(a, b, tol, xtol=1e-14)
            assert len(roots) == len(result.crossing_points), (a, b)
            for got, root in zip(result.crossing_points, roots):
                assert got == pytest.approx(root, abs=2e-10), (a, b)
            checked += 1
            with_pagb += Family.PAGB in (a.family, b.family)
        assert checked >= 10 and with_pagb >= 5, (checked, with_pagb)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_crossing_points_within_tol_at_other_tolerances(self, tol):
        rng = random.Random(int(-np.log10(tol)))
        families = list(Family)
        checked = 0
        for _ in range(60):
            a = draw_model(rng, rng.choice(families))
            b = draw_model(rng, rng.choice(families))
            result = leimkuhler_compare(a, b, tol=tol)
            if result.relation is not Relation.CROSSING:
                continue
            roots = _brentq_roots(a, b, tol, xtol=1e-15)
            assert len(roots) == len(result.crossing_points), (a, b)
            # where the gap is shallow at a root, its rounding, not the
            # refinement, decides where the sign changes
            h = 1e-6
            slopes = [abs(float(evaluate(a, r + h) - evaluate(b, r + h))
                          - float(evaluate(a, r - h) - evaluate(b, r - h))) / (2.0 * h)
                      for r in roots if h < r < 1.0 - h]
            if len(slopes) < len(roots) or min(slopes) < 1e-3:
                continue
            for got, root in zip(result.crossing_points, roots):
                assert got == pytest.approx(root, abs=tol / 2), (a, b)
            checked += 1
        assert checked >= 15, checked

    def test_crossing_takes_at_most_three_rounds(self, monkeypatch):
        # two evaluate calls for the grid and two per round; an even
        # round, then a secant round that lands, end this one
        calls = _count_evaluate_calls(monkeypatch)
        result = leimkuhler_compare(power(1.0), pareto(0.9), tol=1e-9)
        assert len(result.crossing_points) == 1
        assert len(calls) <= 2 + 2 * 3

    def test_missed_secant_round_falls_back_to_even(self, monkeypatch):
        # the crossing near u = 0.006 sits where the Pareto curve bends
        # sharply, so the first secant round misses it
        a, b = pareto(0.9), power(150.0)
        calls = _count_evaluate_calls(monkeypatch)
        result = leimkuhler_compare(a, b, tol=1e-9)
        assert len(calls) > 2 + 2 * 2
        monkeypatch.undo()
        (root,) = _brentq_roots(a, b, 1e-9, xtol=1e-15)
        (got,) = result.crossing_points
        assert got == pytest.approx(root, abs=2e-10)

    def test_refinement_ends_below_float_spacing(self):
        # tol is below the spacing of floats at the crossing: refinement
        # ends at adjacent floats
        a, b = pareto(0.5774343932997369), power(3.820715573046934)
        result = leimkuhler_compare(a, b, tol=1e-18)
        (root,) = _brentq_roots(a, b, 1e-18, xtol=1e-15)
        (got,) = result.crossing_points
        assert got == pytest.approx(root, abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            leimkuhler_compare(power(1.0), power(2.0), grid_size=8)
        for size in (257.0, 100.5, "257", None):
            with pytest.raises(TypeError, match="grid_size"):
                leimkuhler_compare(power(1.0), power(2.0), grid_size=size)
        with pytest.raises(ValueError):
            leimkuhler_compare(power(1.0), power(2.0), tol=0.0)
        with pytest.raises(TypeError):
            leimkuhler_compare(power(1.0), "power")

    @pytest.mark.parametrize("others, relation", [
        ((), Relation.EQUAL),
        ((1e-12,), Relation.EQUAL),
        ((0.5,), Relation.FIRST_DOMINATES),
        ((-0.5, -1e-12), Relation.SECOND_DOMINATES),
    ])
    def test_nan_gap_is_skipped_by_the_classification(self, monkeypatch, others, relation):
        # a NaN gap makes max_gap NaN, but the dominance test looks past
        # it, at the gaps beyond the dead band on either side
        def gap(a, b, u):
            values = np.zeros(u.size)
            values[40] = np.nan
            values[100:100 + len(others)] = others
            return values

        monkeypatch.setattr(order, "_curve_gap", gap)
        result = leimkuhler_compare(power(1.0), power(2.0))
        assert (result.relation, result.crossing_points) == (relation, ())
        assert math.isnan(result.max_gap)

    def test_zero_max_gap_is_positive_zero(self, monkeypatch):
        # max_gap is max |gap|: +0.0 even where every gap inside is -0.0,
        # of which numpy's max and min may both return -0.0
        monkeypatch.setattr(order, "_curve_gap", lambda a, b, u: np.full(u.size, -0.0))
        result = leimkuhler_compare(power(1.0), power(2.0))
        assert result.relation is Relation.EQUAL
        assert (result.max_gap, math.copysign(1.0, result.max_gap)) == (0.0, 1.0)


def clipped_refine_crossing(a, b, lo, hi, gap_lo, gap_hi, tol):
    """_refine_crossing as it was before its rounds took math.nextafter,
    minimum and maximum for np.clip and a one-ufunc sign test: the
    reference for its bits."""
    secant = False
    while hi - lo > tol and np.nextafter(lo, hi) < hi:
        if secant and hi - lo > (order._REFINE_POINTS + 1) * tol:
            u = np.clip(order._secant_root(lo, hi, gap_lo, gap_hi) + tol * order._SECANT_STEPS,
                        lo, hi)
        else:
            u = lo + (hi - lo) * order._EVEN_FRACTIONS
        gap = order._curve_gap(a, b, _Points(u))
        changed = (gap == 0.0) | ((gap > 0.0) != (gap_lo > 0.0))
        first = int(np.argmax(changed)) if changed.any() else gap.size
        if first < gap.size:
            if gap[first] == 0.0:
                return float(u[first])
            hi, gap_hi = float(u[first]), float(gap[first])
        if first > 0:
            lo, gap_lo = float(u[first - 1]), float(gap[first - 1])
        secant = not secant
    return order._secant_root(lo, hi, gap_lo, gap_hi)


def _outcome(a, b, **kwargs):
    """leimkuhler_compare's result with max_gap and the crossings as
    bits, or the message of the ValueError it raised."""
    try:
        result = leimkuhler_compare(a, b, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.relation, np.float64(result.max_gap).tobytes(), [
        np.float64(x).tobytes() for x in result.crossing_points]


class TestDefaultGrid:
    def test_table_is_a_fresh_grid_and_read_only(self):
        grid = _even_grid(0.0, 1.0, 257)
        fresh = _Points(grid[1:-1])
        table = order._GRID_POINTS
        assert order._GRID.tobytes() == grid.tobytes()
        assert (table.size, table.inside, table.ends.size) == (fresh.size, fresh.inside, 0)
        for got, want in ((order._GRID, grid), (table.u, fresh.u), (table.log_u, fresh.log_u),
                          (table.log1m_u, fresh.log1m_u)):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[1] = 0.5

    def test_default_grid_matches_a_grid_built_per_call(self, monkeypatch):
        # 257 points read the table, any other size builds its grid: a
        # table built per call gives the same answers
        rng = random.Random(88)
        pairs = [(draw_model(rng, Family.PAGB), draw_model(rng, rng.choice(list(Family))))
                 for _ in range(20)]
        got = [_outcome(a, b) for a, b in pairs]
        monkeypatch.setattr(order, "_GRID_SIZE", -1)
        assert got == [_outcome(a, b) for a, b in pairs]


class TestRefinementRounds:
    """_refine_crossing against its reference copy, bit for bit, with
    the arguments either way round."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-18])
    def test_seeded_draws(self, monkeypatch, tol):
        rng = random.Random(int(-np.log10(tol)) + 500)
        families = list(Family)
        pairs = [(draw_model(rng, Family.PAGB if i % 3 == 0 else rng.choice(families)),
                  draw_model(rng, rng.choice(families))) for i in range(60)]
        pairs += [(pareto(0.9), power(150.0)), (power(1.0), pareto(0.9))]
        pairs += [(b, a) for a, b in pairs]
        got = [_outcome(a, b, tol=tol) for a, b in pairs]
        monkeypatch.setattr(order, "_refine_crossing", clipped_refine_crossing)
        want = [_outcome(a, b, tol=tol) for a, b in pairs]
        assert got == want
        assert sum(relation is Relation.CROSSING for relation, *_ in got) >= 20

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-18])
    def test_gaps_with_exact_zeros_and_nans(self, monkeypatch, sign, tol):
        # sign -1 is the gap with the arguments swapped.  Finite gaps match
        # the reference bit for bit.  Where a NaN band ends a bracket, the
        # reference takes the NaN secant root, and fails or returns a NaN
        # crossing; the round goes even instead, and the crossings are finite
        finite_shapes = [
            lambda u: np.where(u < 0.3, 1.0, np.where(u < 0.31, 0.0, -1.0)),
            lambda u: np.round(np.sin(37.0 * u), 1),
            lambda u: np.sign(u - 0.123456789) * (u - 0.123456789) ** 2,
        ]
        nan_shapes = [
            lambda u: np.where(u < 0.3, 1.0, np.where(u < 0.31, np.nan, -1.0)),
            lambda u: np.where(u < 0.3, -1.0, np.where(u < 0.31, np.nan, 1.0)),
            lambda u: np.where((u > 0.6) & (u < 0.6004), np.nan, u - 0.5),
            lambda u: np.where(np.round(np.sin(91.0 * u), 1) == 0.0, np.nan, np.sin(91.0 * u)),
        ]
        model = power(1.0)
        for shape in finite_shapes:
            monkeypatch.setattr(order, "_curve_gap", lambda a, b, points: sign * shape(points.u))
            got = _outcome(model, model, tol=tol)
            with monkeypatch.context() as patch:
                patch.setattr(order, "_refine_crossing", clipped_refine_crossing)
                assert got == _outcome(model, model, tol=tol)
        for shape in nan_shapes:
            monkeypatch.setattr(order, "_curve_gap", lambda a, b, points: sign * shape(points.u))
            result = leimkuhler_compare(model, model, tol=tol)
            assert result.relation is Relation.CROSSING
            # max_gap is NaN where the grid meets the band
            assert math.isnan(result.max_gap) == np.isnan(shape(order._GRID)).any()
            assert all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in result.crossing_points)
            assert list(result.crossing_points) == sorted(result.crossing_points)
            with monkeypatch.context() as patch:
                patch.setattr(order, "_refine_crossing", clipped_refine_crossing)
                want = _outcome(model, model, tol=tol)
            if want[0] is Relation.CROSSING and not np.isnan(
                    np.frombuffer(b"".join(want[2]))).any():
                assert _outcome(model, model, tol=tol) == want

    def test_bracket_ending_on_a_nan_gap(self, monkeypatch):
        # the gap of 1 falls to -1 through a NaN band at [0.3, 0.31): each
        # crossing lies within tol of the band, or within a float spacing
        # where tol is finer
        monkeypatch.setattr(order, "_curve_gap", lambda a, b, points: np.where(
            points.u < 0.3, 1.0, np.where(points.u < 0.31, np.nan, -1.0)))
        for tol in (1e-3, 1e-9, 1e-18):
            (x,) = leimkuhler_compare(power(1.0), power(1.0), tol=tol).crossing_points
            slack = max(tol, math.ulp(0.31))
            assert 0.3 - slack <= x <= 0.31 + slack, tol


class TestCheckProposition:
    def test_gamma_mixture_rises_with_shape(self):
        rng = random.Random(31)
        for _ in range(25):
            params = {"alpha": rng.uniform(0.05, 5.0), "beta": rng.uniform(0.02, 10.0)}
            delta = rng.uniform(0.01, 2.0)
            outcome = check_proposition("P3_pg_alpha", params, delta)
            assert outcome.holds, (params, delta, outcome.witness)

    def test_gamma_mixture_falls_with_rate(self):
        rng = random.Random(32)
        for _ in range(25):
            params = {"alpha": rng.uniform(0.05, 5.0), "beta": rng.uniform(0.02, 10.0)}
            delta = rng.uniform(0.01, 2.0)
            outcome = check_proposition("P3_pg_beta", params, delta)
            assert outcome.holds, (params, delta, outcome.witness)

    def test_inverse_gaussian_mixture_rises_with_both(self):
        rng = random.Random(33)
        for case in ("P4_pig_alpha", "P4_pig_beta"):
            for _ in range(25):
                params = {"alpha": rng.uniform(0.2, 20.0), "beta": rng.uniform(0.1, 20.0)}
                delta = rng.uniform(0.01, 2.0)
                outcome = check_proposition(case, params, delta)
                assert outcome.holds, (case, params, delta, outcome.witness)

    def test_curve_falls_as_exponent_grows(self):
        rng = random.Random(34)
        for _ in range(25):
            kappa = rng.uniform(0.05, 0.9)
            params = {
                "kappa": kappa,
                "alpha": rng.uniform(0.05, 5.0),
                "beta": rng.uniform(0.02, 10.0),
            }
            delta = rng.uniform(0.01, 1.0 - kappa)
            outcome = check_proposition(PropositionCase.P5_KAPPA, params, delta)
            assert outcome.holds, (params, delta, outcome.witness)

    def test_direction_pins(self):
        # concrete curve values on either side of each movement
        k = lambda m, u: float(evaluate(m, np.array([u]))[0])
        assert k(pg(2.0, 1.0), 0.5) > k(pg(1.0, 1.0), 0.5)
        assert k(pg(1.0, 3.0), 0.5) < k(pg(1.0, 1.0), 0.5)
        assert k(pig(2.0, 1.0), 0.5) > k(pig(1.0, 1.0), 0.5)
        assert k(pig(1.0, 2.0), 0.5) > k(pig(1.0, 1.0), 0.5)
        assert k(gpg(0.6, 1.0, 1.0), 0.5) < k(gpg(0.3, 1.0, 1.0), 0.5)

    def test_witness_reporting(self):
        from leimkuhler.order import _find_violation

        u = np.array([0.1, 0.2, 0.3])
        k_base = np.array([0.5, 0.6, 0.7])
        k_moved = np.array([0.51, 0.59, 0.71])
        witness = _find_violation(u, k_base, k_moved, +1)
        assert witness == (0.2, 0.6, 0.59)
        assert _find_violation(u, k_base, k_moved, -1) == (0.1, 0.5, 0.51)
        assert _find_violation(u, k_base, k_base, +1) is None

    def test_successful_check_has_no_witness(self):
        outcome = check_proposition("P3_pg_alpha", {"alpha": 1.0, "beta": 1.0}, 0.5)
        assert outcome == PropositionCheck(True, None)

    def test_rejects_bad_arguments(self):
        params = {"alpha": 1.0, "beta": 1.0}
        with pytest.raises(ValueError):
            check_proposition("P3_pg_alpha", params, 0.0)
        with pytest.raises(ValueError):
            check_proposition("P3_pg_alpha", params, -0.1)
        with pytest.raises(ValueError):
            check_proposition("nonsense", params, 0.1)
        with pytest.raises(ValueError):
            check_proposition("P3_pg_alpha", {"alpha": 1.0}, 0.1)
        with pytest.raises(ValueError):
            check_proposition("P3_pg_alpha", params, 0.1, grid_size=4)
        for size in (257.0, 100.5):
            with pytest.raises(TypeError, match="grid_size"):
                check_proposition("P3_pg_alpha", params, 0.1, grid_size=size)
        with pytest.raises(ValueError):
            check_proposition("P5_kappa", {"kappa": 0.8, "alpha": 1.0, "beta": 1.0}, 0.5)
