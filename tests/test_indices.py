"""Tests for the concentration indices."""

import math
import random
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from leimkuhler import indices
from leimkuhler.curves import (
    Family,
    evaluate,
    gp,
    gpg,
    gpig,
    make_model,
    pagb,
    pareto,
    pg,
    pig,
    power,
)
from leimkuhler.empirical import (
    CitationDataset,
    EmpiricalCurve,
    empirical_curve,
    ingest,
    sample_synthetic,
)
from leimkuhler.indices import (
    CLOSED_FORM,
    QUADRATURE,
    SEARCH,
    IndexReport,
    _de_integrate,
    empirical_indices,
    generalized_gini,
    gini,
    gini_via_mixture,
    model_indices,
    pietra,
)
from leimkuhler.specfun import ConvergenceError
from perfbench.workloads import FIXED_MODELS
from tests.test_curves import draw_model

BUNDLED = Path(__file__).resolve().parents[1] / "demos" / "data" / "citations_synthetic.txt"


def quad_gini(model):
    """The Gini as 2 int_0^1 K du - 1 by QUADPACK, a check of G_1 that
    shares no code with the library's closed forms and tanh-sinh rule.
    Where quad's error estimate does not reach 1e-10, the mixture
    average of the base family's Gini (gini_via_mixture) stands in."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        area, err = quad(lambda u: float(evaluate(model, u)), 0.0, 1.0,
                         epsabs=1e-12, epsrel=1e-12, limit=200)
    if 2.0 * err <= 1e-10:
        return 2.0 * area - 1.0
    return gini_via_mixture(model, tol=1e-10)


# the per-segment reference for the empirical G_r: each segment's integral
# in closed form from its own intercept and slope
def _segment_weighted_integral(u, k, r):
    # exact integral of (1-u)**(r-1) * K(u) over each segment [u_i, u_i+1]
    # of the polygon through the vertices (u, k), K(u) = a + b u on it, via
    # the substitution t = 1 - u; each power is taken once per vertex, and
    # one at a time, as the vertices may number 10^6
    b = np.diff(k) / np.diff(u)
    a = k[:-1] - b * u[:-1]
    t = 1.0 - u
    w = t**r
    term1 = (a + b) * (w[:-1] - w[1:]) / r
    w = t ** (r + 1.0)
    term2 = b * (w[:-1] - w[1:]) / (r + 1.0)
    return term1 - term2


def rank_weight_generalized_gini(counts, r):
    """G_r of the polygon of `counts` to 40 digits, summed over the runs
    of equal counts, on each of which the polygon is one straight line:
    G_r + 1 = sum over runs of c n/s ((n - i)**(r+1) - (n - j)**(r+1)) / n**(r+1)
    for a run of count c over the ranks i <= rank < j (from 0, counts
    descending) and the total s."""
    counts = np.sort(np.asarray(counts, dtype=np.int64))[::-1]
    n, total = counts.size, int(counts.sum())
    negated, starts = np.unique(-counts, return_index=True)
    ends = [*starts[1:], n]
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        acc = mpmath.mpf(0)
        for c, i, j in zip(-negated, starts, ends):
            acc += int(c) * (mpmath.mpf(n - int(i)) ** (r + 1) - mpmath.mpf(n - int(j)) ** (r + 1))
        return acc * n / (total * mpmath.mpf(n) ** (r + 1)) - 1


class TestGini:
    def test_closed_form_pins(self):
        # references verified against 40-digit quadrature of 2*int(K)-1
        pins = [
            (power(3.832), 0.6570644718792867),
            (power(2.767), 0.580448919655968),
            (gp(2.5, 0.7), 0.61395521588356449),
            (pareto(0.645), 0.47601476014760147),
            (pareto(0.606), 0.43472022955523676),
            (pg(0.701, 0.102), 0.5915382646195355),
            (pg(0.392, 0.055), 0.5025675715686309),
        ]
        for model, expected in pins:
            value, method = gini(model)
            assert method == CLOSED_FORM
            assert value == pytest.approx(expected, abs=1e-12), model.family

    def test_quadrature_pins(self):
        pins = [
            (pig(9.305, 2.227), 0.60113647593505488),
            (pig(14.035, 1.029), 0.518811406771376),
            (gpg(0.554, 1.514, 0.596), 0.60697893815125311),
            (gpig(0.799, 10.765, 0.742), 0.51656836912058347),
            (pagb(2.0, 3.0, -5.0), 0.45783744278909632),
            (pagb(1.2, 0.8, 3.5), 0.22744749710543569),
        ]
        for model, expected in pins:
            value, method = gini(model)
            assert method == QUADRATURE
            assert value == pytest.approx(expected, abs=1e-9), model.family

    def test_closed_matches_quadrature(self):
        rng = random.Random(515)
        for family in (Family.POWER, Family.GP, Family.PARETO, Family.PG):
            for _ in range(25):
                model = draw_model(rng, family)
                closed = gini(model, method="closed_form").value
                quadrature = gini(model, method="quadrature").value
                assert closed == pytest.approx(quadrature, abs=1e-8), model.param_values()

    def test_power_limit_is_zero(self):
        assert gini(power(1e-12)).value == pytest.approx(0.0, abs=1e-12)

    def test_pareto_is_exact(self):
        # theta/(2 - theta) itself, not its log-gamma form, which is ulps
        # off and far off relative to the value as theta -> 0
        for theta in (1e-12, 1e-6, 0.5, 1.0 - 1e-9):
            assert gini(pareto(theta)).value == theta / (2.0 - theta), theta

    def test_monotone_in_theta(self):
        thetas = [0.05 * k for k in range(1, 40)]
        power_vals = [gini(power(t)).value for t in thetas]
        assert all(a < b for a, b in zip(power_vals, power_vals[1:]))
        pareto_vals = [gini(pareto(t / 41.0)).value for t in range(1, 41)]
        assert all(a < b for a, b in zip(pareto_vals, pareto_vals[1:]))

    def test_in_unit_interval_for_random_draws(self):
        rng = random.Random(616)
        for family in Family:
            for _ in range(5):
                value = gini(draw_model(rng, family)).value
                assert 0.0 <= value <= 1.0

    def test_method_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            gini(power(1.0), method="guess")
        with pytest.raises(ValueError, match="closed-form"):
            gini(pig(2.0, 1.0), method="closed_form")
        with pytest.raises(ValueError, match="tol"):
            gini(power(1.0), tol=0.0)


class TestGeneralizedGini:
    def test_reduces_to_gini_at_unit_r(self):
        rng = random.Random(717)
        for family in Family:
            for _ in range(5):
                model = draw_model(rng, family)
                reference = quad_gini(model)
                g1 = generalized_gini(model, 1.0).value
                g = gini(model).value
                assert abs(g1 - reference) <= 1e-9, (family, model.param_values())
                assert abs(g - reference) <= 1e-9, (family, model.param_values())

    def test_closed_form_pins(self):
        assert generalized_gini(power(2.0), 1.0).value == pytest.approx(0.5, abs=1e-14)
        assert generalized_gini(power(2.0), 2.0).value == pytest.approx(0.8, abs=1e-14)
        assert generalized_gini(pareto(0.5), 1.0).value == pytest.approx(1.0 / 3.0, abs=1e-12)
        got = generalized_gini(pareto(0.645), 0.5)
        assert got.method == CLOSED_FORM
        assert got.value == pytest.approx(0.25006394120141227, abs=1e-12)
        assert generalized_gini(pg(0.701, 0.102), 0.5).value == pytest.approx(
            0.31894327180175264, abs=1e-12)
        assert generalized_gini(pg(0.701, 0.102), 2.0).value == pytest.approx(
            1.0445787587900756, abs=1e-12)
        for r, expected in ((0.5, 0.33832361773538244), (2.0, 1.0409993141238642)):
            got = generalized_gini(gp(2.5, 0.7), r)
            assert got.method == CLOSED_FORM
            assert got.value == pytest.approx(expected, abs=1e-9), r

    def test_gp_reduces_to_power_at_unit_kappa(self):
        for theta in (0.3, 2.5, 40.0):
            for r in (0.05, 0.5, 1.0, 2.0, 3.7):
                got = generalized_gini(gp(theta, 1.0), r).value
                assert got == pytest.approx(generalized_gini(power(theta), r).value,
                                            abs=1e-14), (theta, r)

    def test_quadrature_pins(self):
        pins = [
            (pig(9.305, 2.227), 0.5, 0.32638680694658379),
            (pig(9.305, 2.227), 2.0, 1.0520910850232776),
            (pagb(2.0, 3.0, -5.0), 0.5, 0.23918088313978883),
        ]
        for model, r, expected in pins:
            got = generalized_gini(model, r)
            assert got.method == QUADRATURE
            assert got.value == pytest.approx(expected, abs=1e-9), (model.family, r)

    def test_closed_matches_quadrature(self):
        rng = random.Random(818)
        for family in (Family.POWER, Family.PARETO, Family.PG, Family.GP):
            for _ in range(10):
                model = draw_model(rng, family)
                for r in (0.05, 0.5, 1.0, 2.0, 3.7):
                    closed = generalized_gini(model, r, method="closed_form").value
                    quadrature = generalized_gini(model, r, method="quadrature").value
                    assert closed == pytest.approx(quadrature, abs=1e-8), (
                        model.param_values(), r)

    def test_rejects_bad_r(self):
        for r in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="r must be"):
                generalized_gini(power(1.0), r)

    def test_unreachable_tolerance_raises_with_the_partial_result(self):
        with pytest.raises(ConvergenceError) as caught:
            generalized_gini(pagb(0.05, 0.05, 50.0), 1.0, tol=1e-300)
        assert math.isfinite(caught.value.partial_value)
        assert math.isfinite(caught.value.abs_error_estimate)
        assert caught.value.abs_error_estimate > 1e-300

    def test_requested_closed_form_reraises_its_failure(self):
        # pg's incomplete gamma underflows at alpha = 1e4; "auto" falls back
        model = pg(1e4, 10.0)
        with pytest.raises(ArithmeticError, match="incomplete gamma underflowed"):
            generalized_gini(model, 1.0, method="closed_form")
        got = generalized_gini(model, 1.0)
        assert got.method == QUADRATURE
        assert got.value == pytest.approx(0.99800379319146, abs=1e-12)


class TestPietra:
    def test_power_closed_form(self):
        got = pietra(power(1.0))
        assert got.method == CLOSED_FORM
        assert got.value == pytest.approx(0.25, abs=1e-14)
        assert got.argmax_u == pytest.approx(0.5, abs=1e-14)

    def test_power_pins(self):
        assert pietra(power(3.832)).value == pytest.approx(0.5257370498254195, abs=1e-12)
        assert pietra(power(2.767)).value == pytest.approx(0.45482824967860797, abs=1e-12)

    def test_power_limit_is_zero(self):
        assert pietra(power(1e-9)).value == pytest.approx(0.0, abs=1e-9)

    def test_pareto_corrected_closed_form(self):
        got = pietra(pareto(0.606))
        assert got.method == CLOSED_FORM
        assert got.value == pytest.approx(0.3307336764643958, abs=1e-12)
        assert got.argmax_u == pytest.approx(0.21503146621612529, abs=1e-12)

    def test_closed_matches_search(self):
        rng = random.Random(919)
        for family in (Family.POWER, Family.PARETO):
            for _ in range(20):
                model = draw_model(rng, family)
                closed = pietra(model, method="closed_form")
                searched = pietra(model, tol=1e-12, method="search")
                assert closed.value == pytest.approx(searched.value, abs=1e-9)
                assert closed.argmax_u == pytest.approx(searched.argmax_u, abs=1e-5)

    def test_search_pins(self):
        pins = [
            (pig(9.305, 2.227), 0.45365307708129937, 0.290047),
            (pig(14.035, 1.029), 0.38121845385199216, 0.300131),
            (gp(2.5, 0.7), 0.47273244759792426, 0.35196183794764338),
            (gpg(0.554, 1.514, 0.596), 0.46072810276609039, 0.30225859450223075),
            (gpig(0.799, 10.765, 0.742), 0.3812801301591192, 0.29554707150045487),
            (pagb(2.0, 3.0, -5.0), 0.35254253521898479, 0.18153266616609801),
        ]
        for model, expected, argmax in pins:
            got = pietra(model, tol=1e-10)
            assert got.method == SEARCH
            assert got.value == pytest.approx(expected, abs=1e-9), model.family
            assert got.argmax_u == pytest.approx(argmax, abs=1e-5), model.family

    def test_argmax_precision_follows_tol(self):
        coarse = pietra(pig(9.305, 2.227), tol=1e-3)
        fine = pietra(pig(9.305, 2.227), tol=1e-12)
        assert abs(coarse.argmax_u - fine.argmax_u) <= 2e-3


def _quad_generalized_gini(model, r):
    # independent reference by QUADPACK, which takes the algebraic
    # weight (1-u)**(r-1) as t**(r-1) in t = 1 - u
    value, _ = quad(lambda t: evaluate(model, 1.0 - t), 0.0, 1.0, weight="alg",
                    wvar=(r - 1.0, 0.0), epsabs=1e-12, epsrel=1e-12, limit=200)
    return r * (r + 1.0) * value - 1.0


class TestTanhSinhQuadrature:
    def test_integrates_endpoint_singularities(self):
        # integrals of 1/sqrt(1-u), log(u) and 1/sqrt(u), each singular
        # at one end; the first needs the complement c, as 1 - u has no
        # digits left near u = 1
        value, err = _de_integrate(lambda u, c: c**-0.5, 1e-12)
        assert value == pytest.approx(2.0, abs=1e-12) and err < 1e-12
        value, _ = _de_integrate(lambda u, c: np.log(u), 1e-12)
        assert value == pytest.approx(-1.0, abs=1e-12)
        value, _ = _de_integrate(lambda u, c: u**-0.5, 1e-12)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_non_finite_integrand_has_infinite_error(self):
        _, err = _de_integrate(lambda u, c: np.full_like(u, np.nan), 1e-10)
        assert err == math.inf

    def test_matches_adaptive_quadrature_oracle(self):
        rng = random.Random(4404)
        models = [draw_model(rng, family)
                  for family in (Family.GP, Family.PIG, Family.GPG, Family.GPIG, Family.PAGB)
                  for _ in range(3)]
        # pagb at the fit's lowest shift, and at the box corner where the
        # bundled pagb fit ends
        models += [pagb(2.0, 3.0, -200.0), pagb(1e4, 6692.0, -200.0)]
        for model in models:
            for r in (0.5, 1.0, 2.0):
                got = (gini(model, method="quadrature").value if r == 1.0
                       else generalized_gini(model, r, method="quadrature").value)
                expected = _quad_generalized_gini(model, r)
                assert got == pytest.approx(expected, abs=1e-10), (model, r)

    def test_steep_layer_near_zero(self):
        # pg(500, 0.05) rises to 0.63 by u = 1e-4; the pg closed forms
        # overflow here, so every index takes the numeric route
        model = pg(500.0, 0.05)
        report = model_indices(model, r_values=(0.5, 1.0, 2.0))
        assert report.method_tags["gini"] == QUADRATURE
        g1 = dict(report.generalized_gini)[1.0]
        assert abs(g1 - report.gini) <= 1e-9

        alpha, beta = mpmath.mpf(500), mpmath.mpf("0.05")

        def k(u):
            log_tail = mpmath.log1p(-u)
            return -mpmath.expm1(log_tail - alpha * mpmath.log1p(-log_tail / beta))

        breaks = [0, mpmath.mpf("1e-5"), mpmath.mpf("1e-4"), mpmath.mpf("1e-3"), 1]
        with mpmath.workdps(30):
            for r, value in report.generalized_gini:
                reference = r * (r + 1) * mpmath.quad(lambda u: (1 - u) ** (r - 1) * k(u),
                                                      breaks) - 1
                assert abs(value - float(reference)) <= 1e-10, r

    def test_each_round_is_one_vector_call(self, monkeypatch):
        sizes = []

        def counted(model, u):
            sizes.append(np.size(u))
            return evaluate(model, u)

        monkeypatch.setattr(indices, "evaluate", counted)
        model = pagb(2.0, 3.0, -5.0)
        for call in (lambda: gini(model), lambda: generalized_gini(model, 0.5),
                     lambda: pietra(model)):
            sizes.clear()
            call()
            assert 3 <= len(sizes) <= 9
            assert min(sizes) >= 8


class TestMixtureGini:
    def test_pg_three_routes_agree(self):
        model = pg(0.701, 0.102)
        closed = gini(model, method="closed_form").value
        quadrature = gini(model, method="quadrature").value
        mixture = gini_via_mixture(model)
        assert closed == pytest.approx(quadrature, abs=1e-8)
        assert closed == pytest.approx(mixture, abs=1e-8)

    def test_mixture_route_matches_quadrature(self):
        models = [
            pig(9.305, 2.227),
            gpg(0.554, 1.514, 0.596),
            gpig(0.799, 10.765, 0.742),
            pagb(2.0, 3.0, -5.0),
        ]
        for model in models:
            direct = gini(model, method="quadrature").value
            mixture = gini_via_mixture(model)
            assert direct == pytest.approx(mixture, abs=1e-7), model.family

    def test_rejects_non_mixture_family(self):
        with pytest.raises(ValueError, match="not a mixture"):
            gini_via_mixture(power(1.0))


class TestModelIndices:
    def test_report_shape(self):
        report = model_indices(pg(0.701, 0.102), r_values=(0.5, 1.0, 2.0))
        assert report.gini == pytest.approx(0.5915382646195355, abs=1e-10)
        assert [r for r, _ in report.generalized_gini] == [0.5, 1.0, 2.0]
        assert report.method_tags["gini"] == CLOSED_FORM
        assert report.method_tags["pietra"] == SEARCH

    def test_generalized_gini_tag_follows_route_taken(self):
        # the pg kernel underflows here, so every r falls back to quadrature
        model = pg(500.0, 500.0)
        assert all(generalized_gini(model, r).method == QUADRATURE for r in (0.5, 1.0, 2.0))
        report = model_indices(model, r_values=(0.5, 1.0, 2.0))
        assert report.method_tags["gini"] == QUADRATURE
        assert report.method_tags["generalized_gini"] == QUADRATURE
        assert model_indices(pg(0.701, 0.102)).method_tags["generalized_gini"] == CLOSED_FORM

    def test_gini_is_the_unit_r_entry(self, monkeypatch):
        # one tanh-sinh quadrature per G_r, and none more for the Gini;
        # gp takes the closed form for every index but the Pietra
        calls = []

        def counted(f, tol):
            calls.append(tol)
            return _de_integrate(f, tol)

        monkeypatch.setattr(indices, "_de_integrate", counted)
        report = model_indices(pig(9.305, 2.227), r_values=(0.5, 1.0, 2.0))
        assert len(calls) == 3
        assert report.gini == dict(report.generalized_gini)[1.0]
        calls.clear()
        report = model_indices(gp(2.5, 0.7), r_values=(0.5, 1.0, 2.0))
        assert calls == []
        assert report.method_tags["gini"] == report.method_tags["generalized_gini"] == CLOSED_FORM

    def test_gini_without_unit_r(self):
        report = model_indices(pig(9.305, 2.227), r_values=(0.5, 2.0))
        assert report.gini == gini(pig(9.305, 2.227)).value
        assert report.method_tags["gini"] == QUADRATURE

    def test_invariant_enforced(self):
        with pytest.raises(ValueError, match="disagrees"):
            IndexReport(gini=0.5, generalized_gini=((1.0, 0.6),), pietra=0.3,
                        pietra_argmax_u=0.4, method_tags={})
        with pytest.raises(ValueError, match="outside"):
            IndexReport(gini=1.5, generalized_gini=(), pietra=0.3,
                        pietra_argmax_u=0.4, method_tags={})


def _bits(value):
    return float(value).hex()


class TestSharedQuadratureLevels:
    # model_indices evaluates each tanh-sinh level once and shares it
    # among its r values; each index must still be what the function
    # that computes it alone gives, bit for bit

    @pytest.mark.parametrize("r_values", [(0.5, 1.0, 2.0), (0.3, 2.5), (2.0, 0.75, 1.0, 0.5)])
    def test_matches_the_single_index_functions_bit_for_bit(self, r_values):
        # the 15 pinned models of the benchmark's model sweep cover every
        # family; pg(500, 0.05)'s closed forms fail and fall back
        models = [make_model(family, **params) for family, params in FIXED_MODELS]
        assert {model.family for model in models} == set(Family)
        models.append(pg(500.0, 0.05))
        for model in models:
            report = model_indices(model, r_values)
            gen = [generalized_gini(model, r) for r in r_values]
            assert [(r, _bits(v)) for r, v in report.generalized_gini] == [
                (r, _bits(v.value)) for r, v in zip(r_values, gen)]
            g, p = gini(model), pietra(model)
            assert _bits(report.gini) == _bits(g.value)
            assert (_bits(report.pietra), _bits(report.pietra_argmax_u)) == (
                _bits(p.value), _bits(p.argmax_u))
            assert report.method_tags["gini"] == g.method
            assert report.method_tags["pietra"] == p.method
        assert report.method_tags["gini"] == QUADRATURE
        assert all(v.method == QUADRATURE for v in gen)

    def test_each_level_is_evaluated_once_per_call(self, monkeypatch):
        # pagb(2, 3, -5): four tanh-sinh levels serve all three r, and
        # the Pietra search takes seven grids; a second call shares
        # nothing with the first
        calls = []
        real = indices.evaluate
        monkeypatch.setattr(indices, "evaluate", lambda *args: calls.append(1) or real(*args))
        model_indices(pagb(2.0, 3.0, -5.0))
        assert len(calls) == 11
        model_indices(pagb(2.0, 3.0, -5.0))
        assert len(calls) == 22


class TestEmpiricalIndices:
    def test_known_polygon(self):
        report = empirical_indices(empirical_curve(CitationDataset((4, 3, 2, 1))))
        assert report.gini == pytest.approx(0.25, abs=1e-15)
        assert report.pietra == pytest.approx(0.2, abs=1e-15)
        assert report.pietra_argmax_u == pytest.approx(0.5, abs=1e-15)

    def test_generalized_exact_segment_values(self):
        # references from 40-digit per-segment integration
        report = empirical_indices(empirical_curve(CitationDataset((4, 3, 2, 1))),
                                   r_values=(0.5, 1.0, 2.0))
        values = dict(report.generalized_gini)
        assert values[0.5] == pytest.approx(0.1487710226273589, abs=1e-12)
        assert values[1.0] == pytest.approx(0.25, abs=1e-12)
        assert values[2.0] == pytest.approx(0.375, abs=1e-12)

    def test_unit_r_matches_gini_for_random_datasets(self):
        rng = random.Random(111)
        for _ in range(30):
            counts = [rng.randint(0, 40) for _ in range(rng.randint(2, 50))]
            counts[0] += 1
            report = empirical_indices(empirical_curve(CitationDataset(tuple(counts))),
                                       r_values=(1.0,))
            assert report.generalized_gini[0][1] == report.gini

    def test_matches_vertex_loop_reference(self):
        # per-vertex loops as the reference; only the summation order
        # differs, so sums agree to a few ulps per vertex
        rng = random.Random(112)
        for _ in range(20):
            counts = [rng.randint(0, 1000) for _ in range(rng.randint(1, 2000))]
            counts[0] += 1
            curve = empirical_curve(CitationDataset(tuple(counts)))
            report = empirical_indices(curve, r_values=(0.3, 1.0, 2.5))
            points = list(zip(curve.u.tolist(), curve.k.tolist()))
            area = 0.0
            for (u0, k0), (u1, k1) in zip(points, points[1:]):
                area += (u1 - u0) * (k0 + k1) / 2.0
            assert report.gini == pytest.approx(min(max(2.0 * area - 1.0, 0.0), 1.0), abs=1e-12)
            best, best_u = 0.0, 0.0
            for u, k in points:
                if k - u > best:
                    best, best_u = k - u, u
            assert (report.pietra, report.pietra_argmax_u) == (best, best_u)
            for r, value in report.generalized_gini:
                total = sum(_segment_weighted_integral(np.array([u0, u1]), np.array([k0, k1]), r)[0]
                            for (u0, k0), (u1, k1) in zip(points, points[1:]))
                assert value == pytest.approx(r * (r + 1.0) * total - 1.0, abs=1e-12)

    @pytest.mark.parametrize("dataset", [
        lambda: ingest(BUNDLED),
        lambda: sample_synthetic("pg", 10**5, 1, alpha=0.7, beta=0.1),
        lambda: sample_synthetic("pg", 10**5, 2, alpha=0.7, beta=0.1),
        lambda: sample_synthetic("pareto", 20000, 0, theta=0.5),
    ], ids=["bundled", "pg-1e5-seed-1", "pg-1e5-seed-2", "pareto-2e4-seed-0"])
    def test_matches_rank_weight_reference(self, dataset):
        counts = dataset().counts_desc
        report = empirical_indices(empirical_curve(CitationDataset(counts)),
                                   r_values=(0.3, 0.5, 1.0, 2.0, 2.5))
        for r, value in report.generalized_gini:
            ref = rank_weight_generalized_gini(counts, r)
            assert abs((value - ref) / ref) <= 1e-12, r

    def test_polygon_off_the_corners_matches_segment_reference(self):
        # a slice of a polygon starts above (0, 0) and ends below (1, 1),
        # so the end terms of the sum by parts do not vanish
        rng = random.Random(113)
        counts = sorted((rng.randint(0, 500) for _ in range(400)), reverse=True)
        whole = empirical_curve(CitationDataset(tuple(counts)))
        curve = EmpiricalCurve(whole.u[40:-60], whole.k[40:-60])
        u, k = curve.u, curve.k
        assert u[0] > 0.0 and k[0] > 0.0 and u[-1] < 1.0 and k[-1] < 1.0
        report = empirical_indices(curve, r_values=(0.3, 0.5, 1.0, 2.0, 2.5))
        for r, value in report.generalized_gini:
            total = float(np.sum(_segment_weighted_integral(u, k, r)))
            assert value == pytest.approx(r * (r + 1.0) * total - 1.0, abs=1e-12)

    def test_even_counts_give_zero(self):
        # over its run ends the polygon is the diagonal's two vertices, so
        # every index is 0 with no rounding (G_2 of 1000 sevens summed over
        # every vertex is -1.1e-16, outside the index's range)
        for counts in [(1,) * 4, (7,) * 1000]:
            report = empirical_indices(empirical_curve(CitationDataset(counts)),
                                       r_values=(0.3, 0.5, 1.0, 2.0, 2.5))
            assert report.gini == 0.0
            assert all(value == 0.0 for _, value in report.generalized_gini)
            assert (report.pietra, report.pietra_argmax_u) == (0.0, 0.0)

    @pytest.mark.parametrize("counts, argmax", [
        ((10,) + (7,) * 50 + (4,), 1 / 52),
        ((3, 2, 2, 2, 1), 0.2),
    ])
    def test_pietra_argmax_is_first_on_a_flat_run(self, counts, argmax):
        # where a run's count equals the mean, K - u is flat along it and
        # its float maximum lands anywhere in the run; the reported argmax
        # is the run's first vertex, the end of the counts above the mean
        curve = empirical_curve(CitationDataset(counts))
        report = empirical_indices(curve)
        assert report.pietra_argmax_u == argmax
        assert report.pietra == float(curve.interpolate(argmax)) - argmax
        assert report.pietra >= float(np.max(curve.k - curve.u)) - 1e-15

    def test_pietra_argmax_of_a_curve_without_run_ends_is_the_float_argmax(self):
        curve = empirical_curve(CitationDataset((10,) + (7,) * 50 + (4,)))
        plain = EmpiricalCurve(curve.u, curve.k)
        top = int(np.argmax(curve.k - curve.u))
        report = empirical_indices(plain)
        assert (report.pietra, report.pietra_argmax_u) == (curve.k[top] - curve.u[top], curve.u[top])

    @pytest.mark.parametrize("counts", [
        (5,),
        (9,) + (0,) * 9,
        (2**54, 2**53 + 1, 3, 3, 0),
        (2**64, 2**63, 2**63, 5, 5, 0),
        (2**70,) * 3 + (1, 1, 0),
    ], ids=["n-1", "one-nonzero", "above-2**53", "above-2**63", "ties-above-2**63"])
    def test_run_ends_match_every_vertex(self, counts):
        dataset = CitationDataset(counts)
        curve = empirical_curve(dataset)
        ends, top = curve._runs
        desc = sorted(counts, reverse=True)
        changes = [i for i in range(1, len(desc)) if desc[i] != desc[i - 1]]
        assert ends.tolist() == [0, *changes, len(desc)]
        assert not ends.flags.writeable
        assert ends[top] == sum(c * len(desc) > sum(desc) for c in desc)
        plain = EmpiricalCurve(curve.u, curve.k)
        assert plain._runs is None
        assert plain == curve and hash(plain) == hash(curve)
        r_values = (0.3, 0.5, 1.0, 2.0, 2.5)
        runs, every = empirical_indices(curve, r_values), empirical_indices(plain, r_values)
        for a, b in [(runs.gini, every.gini), (runs.pietra, every.pietra),
                     (runs.pietra_argmax_u, every.pietra_argmax_u),
                     *zip(dict(runs.generalized_gini).values(),
                          dict(every.generalized_gini).values())]:
            assert abs(a - b) <= 1e-15

    def test_single_dominant_source(self):
        for counts, value, argmax in [((1, 0, 0, 0), 0.75, 0.25), ((9,) + (0,) * 9, 0.9, 0.1)]:
            report = empirical_indices(empirical_curve(CitationDataset(counts)))
            assert report.gini == pytest.approx(value, abs=1e-15)
            assert (report.pietra, report.pietra_argmax_u) == (value, argmax)

    @pytest.mark.parametrize("r_values", [(0.5, 0.0), (-1.0,), (2.0, math.nan), (math.inf,)])
    def test_rejects_bad_r(self, r_values):
        curve = empirical_curve(CitationDataset((4, 3, 2, 1)))
        with pytest.raises(ValueError, match="positive and finite"):
            empirical_indices(curve, r_values)

    def test_rejects_degenerate_curve(self):
        curve = empirical_curve(CitationDataset((5,)))
        trimmed = type(curve)(curve.u[:1], curve.k[:1])
        with pytest.raises(ValueError, match="at least 2"):
            empirical_indices(trimmed)
