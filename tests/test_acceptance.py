"""End-to-end verification suite.

Each test function checks one externally visible guarantee of the
package, so a verbose test run prints one pass or fail line per
guarantee: pinned index values on the closed-form and numeric paths,
dual-route agreement between closed forms and independent numeric
oracles, curve validity and ordering properties over random draws,
fit recovery, the empirical pipeline on a hand-checked dataset, and
the special-function identities.  Reference values are frozen here
on purpose; they must never be regenerated from the code under test.
"""

import io
import math
import random
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from leimkuhler import specfun
from leimkuhler.curves import (
    Family,
    evaluate,
    gamma_mixing_density,
    gp,
    gpg,
    gpig,
    inverse_gaussian_mixing_density,
    pagb,
    pareto,
    pg,
    pig,
    power,
    tilted_beta_mixing_density,
    validate_curve,
)
from leimkuhler.empirical import (
    EmpiricalCurve,
    dispersion_index,
    empirical_curve,
    ingest,
    sample_synthetic,
)
from leimkuhler.fit import FitConfig, fit
from leimkuhler.indices import empirical_indices, generalized_gini, gini, gini_via_mixture, pietra
from leimkuhler.order import check_proposition
from tests.oracles import leimkuhler_from_quantile, mixture_curve_numeric
from tests.test_curves import draw_model
from tests.test_indices import quad_gini

FIT_CONFIG = FitConfig(multistart_count=4, seed=11)


def test_gini_closed_form_matches_pinned_reference_values():
    pins = [
        (power(3.832), 0.6571, 5e-4),
        (power(2.767), 0.5804, 5e-4),
        (pareto(0.645), 0.4756, 1e-3),
        (pareto(0.606), 0.4344, 1e-3),
        (pg(0.701, 0.102), 0.5910, 1e-3),
        (pg(0.392, 0.055), 0.5021, 1e-3),
    ]
    for model, expected, tol in pins:
        got = gini(model, method="closed_form").value
        assert abs(got - expected) <= tol, (model.family.value, model.param_values(), got)


def test_gini_and_pietra_numeric_paths_match_pinned_reference_values():
    gini_pins = [
        (pig(9.305, 2.227), 0.6011),
        (pig(14.035, 1.029), 0.5188),
        (gpg(0.554, 1.514, 0.596), 0.6071),
        (gpig(0.799, 10.765, 0.742), 0.5165),
    ]
    for model, expected in gini_pins:
        got = gini(model, method="quadrature").value
        assert abs(got - expected) <= 1e-3, (model.family.value, got)

    pietra_pins = [
        (pig(9.305, 2.227), 0.4536),
        (pig(14.035, 1.029), 0.3812),
    ]
    for model, expected in pietra_pins:
        got = pietra(model).value
        assert abs(got - expected) <= 1e-3, (model.family.value, got)

    # the pareto value must come out of both independent routes
    closed = pietra(pareto(0.606), method="closed_form").value
    searched = pietra(pareto(0.606), method="search").value
    assert abs(closed - 0.3305) <= 1e-3, closed
    assert abs(searched - 0.3305) <= 1e-3, searched

    assert abs(pietra(power(3.832)).value - 0.526) <= 2e-3


def test_gini_closed_forms_agree_with_quadrature_across_random_draws():
    rng = random.Random(9101)
    for family in (Family.POWER, Family.GP, Family.PARETO, Family.PG):
        for _ in range(200):
            model = draw_model(rng, family)
            closed = gini(model, method="closed_form").value
            quadrature = gini(model, method="quadrature").value
            assert abs(closed - quadrature) <= 1e-8, (family.value, model.param_values())

    # third, fully independent route for the gamma mixture: average the
    # base-family gini over the mixing density
    rng = random.Random(9102)
    for _ in range(200):
        model = draw_model(rng, Family.PG)
        closed = gini(model, method="closed_form").value
        averaged = gini_via_mixture(model)
        assert abs(closed - averaged) <= 1e-8, model.param_values()


def test_mixture_closed_forms_agree_with_numeric_mixing_oracle():
    u_grid = np.linspace(0.02, 0.98, 33)
    shapes = (0.6, 1.0, 2.5)
    rates = (0.3, 1.0, 4.0)
    kappa = 0.7
    shift = -5.0

    def check(model, base, density, support, kappa_arg, tol):
        for u in u_grid:
            ref = mixture_curve_numeric(base, density, support, float(u), kappa=kappa_arg)
            got = float(evaluate(model, u))
            assert abs(got - ref) <= tol, (model.family.value, model.param_values(), u)

    for a in shapes:
        for b in rates:
            check(pg(a, b), Family.POWER, gamma_mixing_density(a, b),
                  (0.0, math.inf), None, 1e-7)
            check(pig(a, b), Family.POWER, inverse_gaussian_mixing_density(a, b),
                  (0.0, math.inf), None, 1e-7)
            check(gpg(kappa, a, b), Family.GP, gamma_mixing_density(a, b),
                  (0.0, math.inf), kappa, 1e-7)
            check(gpig(kappa, a, b), Family.GP, inverse_gaussian_mixing_density(a, b),
                  (0.0, math.inf), kappa, 1e-7)
            check(pagb(a, b, shift), Family.PARETO, tilted_beta_mixing_density(a, b, shift),
                  (0.0, 1.0), None, 1e-7)
            # zero shift reduces the mixing law to a plain beta density;
            # with both density exponents below one the oracle integrand is
            # singular at both endpoints and quadpack warns about its own
            # extrapolation even though the value meets the tolerance
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                check(pagb(a, b, 0.0), Family.PARETO, tilted_beta_mixing_density(a, b, 0.0),
                      (0.0, 1.0), None, 1e-8)


def test_quantile_construction_reproduces_power_and_pareto_curves():
    u_grid = np.linspace(0.0, 1.0, 33)
    for theta in (0.5, 2.0, 3.832):
        model = power(theta)
        for u in u_grid:
            ref = leimkuhler_from_quantile(lambda y: (1.0 + theta) * y**theta, 1.0, float(u))
            assert abs(float(evaluate(model, u)) - ref) <= 1e-6, (theta, u)
    for theta in (0.3, 0.606):
        model = pareto(theta)
        mean = 1.0 / (1.0 - theta)
        for u in u_grid:
            ref = leimkuhler_from_quantile(lambda y: (1.0 - y) ** (-theta), mean, float(u))
            assert abs(float(evaluate(model, u)) - ref) <= 1e-6, (theta, u)


def test_random_models_always_produce_valid_curves():
    rng = random.Random(9106)
    for family in Family:
        for _ in range(200):
            model = draw_model(rng, family)
            report = validate_curve(model, grid_size=512)
            assert report.is_valid, (family.value, model.param_values(), report.violations)


def test_parameter_shift_orderings_hold_across_random_draws():
    rng = random.Random(9107)
    for case in ("P3_pg_alpha", "P3_pg_beta"):
        for _ in range(100):
            params = {"alpha": rng.uniform(0.05, 5.0), "beta": rng.uniform(0.02, 10.0)}
            outcome = check_proposition(case, params, rng.uniform(0.01, 2.0))
            assert outcome.holds, (case, params, outcome.witness)
    for case in ("P4_pig_alpha", "P4_pig_beta"):
        for _ in range(100):
            params = {"alpha": rng.uniform(0.2, 20.0), "beta": rng.uniform(0.1, 20.0)}
            outcome = check_proposition(case, params, rng.uniform(0.01, 2.0))
            assert outcome.holds, (case, params, outcome.witness)
    for _ in range(100):
        kappa = rng.uniform(0.05, 0.9)
        params = {
            "kappa": kappa,
            "alpha": rng.uniform(0.05, 5.0),
            "beta": rng.uniform(0.02, 10.0),
        }
        outcome = check_proposition("P5_kappa", params, rng.uniform(0.01, 1.0 - kappa))
        assert outcome.holds, (params, outcome.witness)


def test_family_and_index_consistency_identities():
    # order one of the weighted index recovers the plain one, 2 int K - 1,
    # here by QUADPACK (or the mixture average where quad falls short)
    rng = random.Random(9108)
    for family in Family:
        for _ in range(6):
            model = draw_model(rng, family)
            plain = quad_gini(model)
            weighted = generalized_gini(model, 1.0).value
            assert abs(weighted - plain) <= 1e-9, (family.value, model.param_values())
            assert abs(gini(model).value - plain) <= 1e-9, (family.value, model.param_values())

    # unit exponent collapses the generalized power family to the base one
    u_grid = np.linspace(0.0, 1.0, 512)
    for theta in (0.3, 1.7, 4.2):
        gap = np.max(np.abs(evaluate(gp(theta, 1.0), u_grid) - evaluate(power(theta), u_grid)))
        assert gap <= 1e-14, theta

    # unit shape makes the gamma mixture an exponential mixture
    u_interior = u_grid[:-1]
    log_remainder = np.log1p(-u_interior)
    for beta in (0.1, 1.0, 5.0):
        expected = 1.0 - (1.0 - u_interior) * beta / (beta - log_remainder)
        gap = np.max(np.abs(evaluate(pg(1.0, beta), u_interior) - expected))
        assert gap <= 1e-14, beta
        assert float(evaluate(pg(1.0, beta), 1.0)) == 1.0


def test_fit_recovers_generating_parameters_and_descends_monotonically():
    cases = [
        (power(2.0), 500),
        (power(0.6), 257),
        (gp(2.5, 0.7), 257),
        (gp(1.2, 0.35), 257),
        (pareto(0.645), 257),
        (pareto(0.3), 257),
        (pg(0.701, 0.102), 257),
        (pg(1.5, 2.0), 257),
        (pig(9.305, 2.227), 257),
        (pig(2.0, 5.0), 257),
        (gpg(0.554, 1.514, 0.596), 257),
        (gpg(0.8, 1.0, 1.0), 257),
        (gpig(0.799, 10.765, 0.742), 257),
        (gpig(0.5, 3.0, 2.0), 257),
        (pagb(2.0, 3.0, -5.0), 257),
        (pagb(1.2, 0.8, 3.5), 257),
    ]
    for truth, n_points in cases:
        u = np.linspace(0.0, 1.0, n_points + 1)
        k = evaluate(truth, u)
        curve = EmpiricalCurve(u, k)
        result = fit(curve, truth.family, FIT_CONFIG)
        assert result.sse <= 1e-12, (truth.family.value, truth.param_values(), result.sse)
        for est, true in zip(result.model.param_values(), truth.param_values()):
            scale = max(1.0, abs(true))
            assert abs(est - true) <= 1e-6 * scale, (truth.family.value, est, true)
        history = result.objective_history
        assert all(a >= b for a, b in zip(history, history[1:])), truth.family.value

    # noisy synthetic data: the generating exponent comes back within 5%
    data = sample_synthetic("power", n=5000, seed=42, theta=3.0)
    result = fit(empirical_curve(data), "power", FIT_CONFIG)
    assert abs(result.model.params.theta - 3.0) / 3.0 <= 0.05
    history = result.objective_history
    assert all(a >= b for a, b in zip(history, history[1:]))


def test_small_dataset_pipeline_and_dispersion_arithmetic():
    dataset = ingest(io.StringIO("4\n3\n2\n1\n"))
    curve = empirical_curve(dataset)
    expected = [(0.0, 0.0), (0.25, 0.4), (0.5, 0.7), (0.75, 0.9), (1.0, 1.0)]
    assert curve.u.size == curve.k.size == len(expected)
    for u, k, (eu, ek) in zip(curve.u, curve.k, expected):
        assert u == pytest.approx(eu, abs=1e-15)
        assert k == pytest.approx(ek, abs=1e-15)

    report = empirical_indices(curve)
    assert report.pietra == pytest.approx(0.2, abs=1e-12)
    # trapezoids: 2 * (0.25 * (0.2 + 0.55 + 0.8 + 0.95)) - 1
    assert report.gini == pytest.approx(0.25, abs=1e-12)

    assert dispersion_index(273.90, 13.81) == pytest.approx(19.83, abs=0.01)


def test_special_function_identities_hold_on_sweeps():
    rng = random.Random(9110)
    for _ in range(300):
        a = rng.uniform(-10.0, 10.0)
        if abs(a) < 1e-3:
            continue
        x = rng.uniform(0.1, 50.0)
        g = specfun.upper_incomplete_gamma(a, x).value
        g1 = specfun.upper_incomplete_gamma(a + 1.0, x).value
        assert abs(a * g + x**a * math.exp(-x) - g1) <= 1e-10 * abs(g1), (a, x)

    for _ in range(200):
        a = rng.uniform(0.5, 20.0)
        b = rng.uniform(0.5, 20.0)
        c = rng.uniform(0.1, 50.0)
        lhs = specfun.kummer_1f1(a, b, -c).value
        rhs = math.exp(-c) * specfun.kummer_1f1(b - a, b, c).value
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs), (a, b, c)

    for _ in range(300):
        a = rng.uniform(0.1, 30.0)
        b = rng.uniform(0.1, 30.0)
        x = rng.random()
        total = (
            specfun.regularized_incomplete_beta(a, b, x).value
            + specfun.regularized_incomplete_beta(b, a, 1.0 - x).value
        )
        assert abs(total - 1.0) <= 1e-12, (a, b, x)
