"""Tests for the parametric curve families."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leimkuhler import curves, specfun
from leimkuhler.curves import (
    CurveModel,
    Family,
    ParamVector,
    evaluate,
    gamma_mixing_density,
    gp,
    gpg,
    gpig,
    inverse_gaussian_mixing_density,
    make_model,
    pagb,
    pareto,
    pg,
    pig,
    power,
    tilted_beta_mixing_density,
    validate_curve,
)
from tests.oracles import leimkuhler_from_quantile, lorenz_to_leimkuhler, mixture_curve_numeric

ALL_FAMILY_EXAMPLES = [
    power(3.832),
    gp(2.5, 0.7),
    pareto(0.645),
    pg(0.701, 0.102),
    pig(9.305, 2.227),
    gpg(0.554, 1.514, 0.596),
    gpig(0.799, 10.765, 0.742),
    pagb(2.0, 3.0, -5.0),
]


def draw_model(rng, family):
    """A random valid model of the given family."""
    if family is Family.POWER:
        return power(rng.uniform(0.05, 8.0))
    if family is Family.GP:
        return gp(rng.uniform(0.05, 8.0), rng.uniform(0.05, 1.0))
    if family is Family.PARETO:
        return pareto(rng.uniform(0.02, 0.98))
    if family is Family.PG:
        return pg(rng.uniform(0.05, 5.0), rng.uniform(0.02, 10.0))
    if family is Family.PIG:
        return pig(rng.uniform(0.2, 20.0), rng.uniform(0.1, 20.0))
    if family is Family.GPG:
        return gpg(rng.uniform(0.05, 1.0), rng.uniform(0.05, 5.0), rng.uniform(0.02, 10.0))
    if family is Family.GPIG:
        return gpig(rng.uniform(0.05, 1.0), rng.uniform(0.2, 20.0), rng.uniform(0.1, 20.0))
    if family is Family.PAGB:
        return pagb(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), rng.uniform(-30.0, 10.0))
    raise AssertionError(family)


class TestCurveModel:
    def test_factories_round_trip(self):
        model = gpg(0.5, 1.2, 0.3)
        assert model.family is Family.GPG
        assert model.param_names() == ("kappa", "alpha", "beta")
        assert model.param_values() == (0.5, 1.2, 0.3)

    def test_family_from_string(self):
        model = make_model("pig", alpha=2.0, beta=1.0)
        assert model.family is Family.PIG

    def test_rejects_wrong_parameter_set(self):
        with pytest.raises(ValueError, match="takes parameters"):
            CurveModel(Family.POWER, ParamVector(theta=1.0, kappa=0.5))
        with pytest.raises(ValueError, match="takes parameters"):
            CurveModel(Family.PG, ParamVector(alpha=1.0))

    def test_rejects_out_of_box_parameters(self):
        with pytest.raises(ValueError):
            power(0.0)
        with pytest.raises(ValueError):
            power(-1.0)
        with pytest.raises(ValueError):
            pareto(1.0)
        with pytest.raises(ValueError):
            pareto(0.0)
        with pytest.raises(ValueError):
            gp(1.0, 1.5)
        with pytest.raises(ValueError):
            gp(1.0, 0.0)
        with pytest.raises(ValueError):
            pg(1.0, -2.0)
        with pytest.raises(ValueError):
            pig(math.inf, 1.0)
        with pytest.raises(ValueError):
            pagb(1.0, 1.0, math.nan)

    def test_param_vector_present(self):
        assert ParamVector(theta=2.0).present() == {"theta": 2.0}


def masked_evaluate(model, u):
    """evaluate through a boolean gather and scatter of the interior points,
    the reference that the whole-array evaluation must match bit for bit."""
    arr = np.asarray(u, dtype=float)
    out = np.empty_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    out[arr == 0.0] = 0.0
    out[arr == 1.0] = 1.0
    if interior.any():
        out[interior] = curves._EVAL[model.family](curves._Points(arr[interior]), model.params)
    return out


class TestEvaluate:
    def test_endpoints_exact(self):
        for model in ALL_FAMILY_EXAMPLES:
            assert evaluate(model, 0.0) == 0.0
            assert evaluate(model, 1.0) == 1.0

    def test_scalar_and_array_agree(self):
        model = pg(0.701, 0.102)
        u = np.array([0.0, 0.2, 0.8, 1.0])
        vec = evaluate(model, u)
        assert vec.shape == (4,)
        for i, ui in enumerate(u):
            assert evaluate(model, float(ui)) == vec[i]

    def test_pinned_values(self):
        # reference values computed with 50-digit arithmetic
        pins = [
            (power(3.832), 0.1, 0.39896494097168852),
            (power(3.832), 0.3, 0.82155115993300558),
            (power(3.832), 0.7, 0.99702525390695648),
            (gp(2.5, 0.7), 0.3, 0.76653060017285652),
            (gp(2.5, 0.7), 0.9, 0.99977516742691455),
            (pareto(0.645), 0.2, 0.56476223528311064),
            (pg(0.701, 0.102), 0.3, 0.75598768577588159),
            (pg(0.701, 0.102), 0.7, 0.94977960228779015),
            (pig(9.305, 2.227), 0.3, 0.75347005452180087),
            (pig(9.305, 2.227), 0.7, 0.9628458661408452),
            (gpg(0.554, 1.514, 0.596), 0.5, 0.90083923977198131),
            (gpig(0.799, 10.765, 0.742), 0.5, 0.83514658250797798),
            (pagb(2.0, 3.0, -5.0), 0.25, 0.59638834181538014),
            (pagb(2.0, 3.0, -5.0), 0.75, 0.89341397329280116),
            (pagb(1.2, 0.8, 3.5), 0.4, 0.55463466237723873),
        ]
        for model, u, expected in pins:
            got = evaluate(model, u)
            assert got == pytest.approx(expected, rel=1e-13), (model.family, u)

    def test_accurate_near_zero(self):
        # expm1/log1p forms keep full relative accuracy at tiny u
        pins = [
            (power(3.832), 4.8319999999907419e-12),
            (pg(0.701, 0.102), 7.8725490195471019e-12),
            (pig(9.305, 2.227), 1.0304999999771173e-11),
        ]
        for model, expected in pins:
            assert evaluate(model, 1e-12) == pytest.approx(expected, rel=1e-12)

    def test_accurate_near_one(self):
        got = evaluate(pg(0.701, 0.102), 1.0 - 1e-12)
        assert got == pytest.approx(0.99999999999998034, rel=1e-13)

    def test_gp_reduces_to_power_at_unit_kappa(self):
        rng = random.Random(101)
        u = np.linspace(0.0, 1.0, 1001)
        for _ in range(20):
            theta = rng.uniform(0.05, 8.0)
            diff = evaluate(gp(theta, 1.0), u) - evaluate(power(theta), u)
            assert np.max(np.abs(diff)) <= 1e-14

    def test_pg_unit_alpha_is_exponential_mixture(self):
        # gamma with shape 1 is the exponential mixing law, whose mixture
        # curve has the elementary form 1 - (1-u) beta/(beta - log(1-u))
        for beta in (0.102, 1.0, 7.5):
            model = pg(1.0, beta)
            for u in (1e-9, 0.2, 0.5, 0.95, 1.0 - 1e-9):
                logub = math.log1p(-u)
                expected = -math.expm1(logub + math.log(beta) - math.log(beta - logub))
                assert abs(evaluate(model, u) - expected) <= 1e-14

    def test_gpg_reduces_to_pg_at_unit_kappa(self):
        u = np.linspace(0.0, 1.0, 501)
        diff = evaluate(gpg(1.0, 0.7, 0.1), u) - evaluate(pg(0.7, 0.1), u)
        assert np.max(np.abs(diff)) <= 1e-14

    def test_gpig_reduces_to_pig_at_unit_kappa(self):
        u = np.linspace(0.0, 1.0, 501)
        diff = evaluate(gpig(1.0, 9.305, 2.227), u) - evaluate(pig(9.305, 2.227), u)
        assert np.max(np.abs(diff)) <= 1e-14

    def test_curve_above_diagonal(self):
        # concavity with K(0)=0, K(1)=1 forces K(u) >= u
        rng = random.Random(202)
        u = np.linspace(0.0, 1.0, 201)
        for family in Family:
            for _ in range(10):
                model = draw_model(rng, family)
                k = evaluate(model, u)
                assert np.all(k >= u - 1e-12), (family, model.param_values())

    def test_rejects_out_of_range_u(self):
        model = power(1.0)
        with pytest.raises(ValueError, match="must lie in"):
            evaluate(model, -0.1)
        with pytest.raises(ValueError, match="must lie in"):
            evaluate(model, 1.1)
        with pytest.raises(ValueError, match="must lie in"):
            evaluate(model, np.array([0.5, math.nan]))
        for bad in (math.nan, math.inf, -math.inf, -1e-300, 1.0 + 2.0**-52):
            with pytest.raises(ValueError, match="must lie in"):
                evaluate(model, bad)
            with pytest.raises(ValueError, match="must lie in"):
                evaluate(model, np.array([0.0, 0.5, bad, 1.0]))

    def test_matches_masked_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        inner = np.concatenate((rng.random(40), [1e-300, 1e-30, 1.0 - 2.0**-53]))
        arrays = [
            inner,
            np.concatenate(([0.0], inner)),
            np.concatenate((inner[:20], [1.0, -0.0, 0.0], inner[20:])),
            np.concatenate((inner, [1.0])),
            np.linspace(0.0, 1.0, 257),
            np.array([0.0, 1.0, 1.0, -0.0, 0.0]),
            np.array([]),
            np.linspace(0.0, 1.0, 12).reshape(3, 4),
        ]
        models = ALL_FAMILY_EXAMPLES + [pagb(1e4, 6692.0, -200.0), pagb(0.5, 1.5, 4.0)]
        for model in models:
            for u in arrays:
                got, ref = evaluate(model, u), masked_evaluate(model, u)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (model, u)
            for u in (0.0, -0.0, 1.0, 0.3):
                got = evaluate(model, u)
                assert type(got) is float
                assert np.array(got).tobytes() == masked_evaluate(model, u).tobytes()


class TestMixtureIdentities:
    """Closed-form mixture families against direct numeric mixing."""

    U_POINTS = (0.05, 0.35, 0.8)

    def test_pg_matches_gamma_mixture(self):
        alpha, beta = 0.701, 0.102
        density = gamma_mixing_density(alpha, beta)
        model = pg(alpha, beta)
        for u in self.U_POINTS:
            ref = mixture_curve_numeric(Family.POWER, density, (0.0, math.inf), u)
            assert evaluate(model, u) == pytest.approx(ref, abs=5e-9)

    def test_pig_matches_inverse_gaussian_mixture(self):
        alpha, beta = 9.305, 2.227
        density = inverse_gaussian_mixing_density(alpha, beta)
        model = pig(alpha, beta)
        for u in self.U_POINTS:
            ref = mixture_curve_numeric(Family.POWER, density, (0.0, math.inf), u)
            assert evaluate(model, u) == pytest.approx(ref, abs=5e-9)

    def test_gpg_matches_gamma_mixture_of_gp(self):
        kappa, alpha, beta = 0.554, 1.514, 0.596
        density = gamma_mixing_density(alpha, beta)
        model = gpg(kappa, alpha, beta)
        for u in self.U_POINTS:
            ref = mixture_curve_numeric(Family.GP, density, (0.0, math.inf), u, kappa=kappa)
            assert evaluate(model, u) == pytest.approx(ref, abs=5e-9)

    def test_gpig_matches_inverse_gaussian_mixture_of_gp(self):
        kappa, alpha, beta = 0.799, 10.765, 0.742
        density = inverse_gaussian_mixing_density(alpha, beta)
        model = gpig(kappa, alpha, beta)
        for u in self.U_POINTS:
            ref = mixture_curve_numeric(Family.GP, density, (0.0, math.inf), u, kappa=kappa)
            assert evaluate(model, u) == pytest.approx(ref, abs=5e-9)

    def test_pagb_matches_tilted_beta_mixture_of_pareto(self):
        alpha, beta, shift = 2.0, 3.0, -5.0
        density = tilted_beta_mixing_density(alpha, beta, shift)
        model = pagb(alpha, beta, shift)
        for u in self.U_POINTS:
            ref = mixture_curve_numeric(Family.PARETO, density, (0.0, 1.0), u)
            assert evaluate(model, u) == pytest.approx(ref, abs=5e-9)

    def test_pagb_zero_shift_is_plain_beta_mixture(self):
        alpha, beta = 1.2, 0.8
        density = tilted_beta_mixing_density(alpha, beta, 0.0)
        model = pagb(alpha, beta, 0.0)
        for u in self.U_POINTS:
            ref = mixture_curve_numeric(Family.PARETO, density, (0.0, 1.0), u)
            assert evaluate(model, u) == pytest.approx(ref, abs=5e-9)

    def test_mixture_concentrates_to_base_curve(self):
        # gamma(1000 theta0, 1000) is nearly a point mass at theta0
        theta0 = 2.0
        density = gamma_mixing_density(1000.0 * theta0, 1000.0)
        ref = mixture_curve_numeric(Family.POWER, density, (0.0, math.inf), 0.4)
        assert evaluate(power(theta0), 0.4) == pytest.approx(ref, abs=1e-3)

    def test_mixture_rejects_unnormalized_density(self):
        with pytest.raises(ValueError, match="integrates to"):
            mixture_curve_numeric(Family.POWER, lambda t: math.exp(-t) * 2.0, (0.0, math.inf), 0.5)

    def test_mixture_gp_base_needs_kappa(self):
        density = gamma_mixing_density(1.0, 1.0)
        with pytest.raises(ValueError, match="kappa"):
            mixture_curve_numeric(Family.GP, density, (0.0, math.inf), 0.5)


class TestGenericConstructions:
    def test_quantile_route_recovers_power_curve(self):
        # quantile (1+theta) y**theta has mean 1 and power-curve concentration
        theta = 3.832
        model = power(theta)
        for u in (0.1, 0.5, 0.9, 1.0):
            ref = leimkuhler_from_quantile(lambda y: (1.0 + theta) * y**theta, 1.0, u)
            assert evaluate(model, u) == pytest.approx(ref, abs=1e-9)

    def test_quantile_route_recovers_pareto_curve(self):
        # unit-scale Pareto tails: quantile (1-y)**(-1/a), mean a/(a-1)
        a = 1.0 / 0.645
        model = pareto(0.645)
        mean = a / (a - 1.0)
        for u in (0.1, 0.5, 0.9):
            ref = leimkuhler_from_quantile(lambda y: (1.0 - y) ** (-1.0 / a), mean, u)
            assert evaluate(model, u) == pytest.approx(ref, abs=1e-8)

    def test_quantile_route_power_mean_third(self):
        # quantile y**2 has mean 1/3 and gives K(0.5) = 1 - 0.5**3
        ref = leimkuhler_from_quantile(lambda y: y * y, 1.0 / 3.0, 0.5)
        assert ref == pytest.approx(0.875, abs=1e-9)
        assert evaluate(power(2.0), 0.5) == pytest.approx(ref, abs=1e-9)

    def test_quantile_route_pareto_half(self):
        ref = leimkuhler_from_quantile(lambda y: (1.0 - y) ** (-0.5), 2.0, 0.25)
        assert ref == pytest.approx(0.5, abs=1e-8)

    def test_quantile_route_endpoints(self):
        assert leimkuhler_from_quantile(lambda y: 2.0 * y, 1.0, 0.0) == 0.0
        assert leimkuhler_from_quantile(lambda y: 2.0 * y, 1.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_quantile_route_rejects_bad_mean(self):
        with pytest.raises(ValueError, match="mean"):
            leimkuhler_from_quantile(lambda y: 1.0, 0.0, 0.5)

    def test_lorenz_duality(self):
        # L(v) = v**(1+theta) is the Lorenz curve dual to the power curve
        for theta in (1.0, 2.5):
            model = power(theta)
            for u in (0.0, 0.25, 0.6, 1.0):
                got = lorenz_to_leimkuhler(lambda v: v ** (1.0 + theta), u)
                assert got == pytest.approx(evaluate(model, u), abs=1e-14)

    def test_lorenz_identity_curve(self):
        assert lorenz_to_leimkuhler(lambda v: v, 0.3) == pytest.approx(0.3, abs=1e-15)


class TestVectorKummer:
    def test_array_route_matches_mpmath(self):
        zs = np.array([-40.0, -7.3, -0.5, 0.0, 0.4, 3.0, 25.0])
        for a, b in [(3.0, 5.0), (0.8, 2.0), (1.5, 1.5)]:
            vec, _ = specfun._kummer_series(a, b, zs)
            for z, got in zip(zs, vec):
                with mpmath.workdps(30):
                    ref = float(mpmath.hyp1f1(a, b, float(z)))
                assert got == pytest.approx(ref, rel=1e-12)


@settings(deadline=None, max_examples=500)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 2000))
def test_even_grid_is_linspace_bit_for_bit(a, b, n):
    # subnormal brackets and differences that overflow included
    lo, hi = min(a, b), max(a, b)
    if not lo < hi:
        return
    with np.errstate(all="ignore"):
        got, expected = curves._even_grid(lo, hi, n), np.linspace(lo, hi, n)
    assert got.tobytes() == expected.tobytes()


class TestValidateCurve:
    def test_all_families_valid_over_random_draws(self):
        rng = random.Random(303)
        for family in Family:
            for _ in range(15):
                model = draw_model(rng, family)
                report = validate_curve(model)
                assert report.is_valid, (family, model.param_values(), report.violations)

    def test_detects_convexity(self, monkeypatch):
        # a convex shape must be flagged by the second-difference check
        monkeypatch.setitem(curves._EVAL, Family.POWER, lambda points, p: points.u**3)
        report = validate_curve(power(1.0))
        assert not report.is_valid
        assert any(v.prop == "concave" for v in report.violations)

    def test_detects_decrease(self, monkeypatch):
        monkeypatch.setitem(curves._EVAL, Family.POWER, lambda points, p: np.sin(6.0 * points.u))
        report = validate_curve(power(1.0))
        assert any(v.prop == "monotone" for v in report.violations)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="grid_size"):
            validate_curve(power(1.0), grid_size=2)

    def test_rejects_a_grid_size_that_is_not_an_integer(self):
        # 100.5 would make a grid of 101 points with a short last step
        for size in (100.5, 512.0, "512"):
            with pytest.raises(TypeError, match="grid_size"):
                validate_curve(power(1.0), grid_size=size)
        assert validate_curve(power(1.0), grid_size=np.int64(100)).is_valid


@settings(deadline=None)
@given(st.sampled_from(list(Family)), st.integers(0, 2**32 - 1))
def test_validate_curve_passes_random_draws(family, seed):
    model = draw_model(random.Random(seed), family)
    report = validate_curve(model)
    assert report.is_valid, (model, report.violations[:3])


@settings(deadline=None)
@given(st.sampled_from([Family.PG, Family.PIG, Family.GPG, Family.GPIG, Family.PAGB]),
       st.floats(12.0, 14.0), st.floats(0.05, 8.0), st.floats(0.05, 1.0),
       st.floats(0.02, 0.98), st.floats(-200.0, 100.0))
def test_validate_curve_passes_nested_limit_models(family, log_c, theta, kappa, m, shift):
    # mixing laws of concentration c = 1/cv^2 in [1e12, 1e14] around the
    # exponent theta (pagb: alpha + beta = c, mean exponent m), where the
    # fit reports a nested limit
    c = 10.0**log_c
    model = {
        Family.PG: pg(c, c / theta),
        Family.PIG: pig(theta, c * theta),
        Family.GPG: gpg(kappa, c, c / theta),
        Family.GPIG: gpig(kappa, theta, c * theta),
        Family.PAGB: pagb((1.0 - m) * c, m * c, shift),
    }[family]
    report = validate_curve(model)
    assert report.is_valid, (model, report.violations[:3])
