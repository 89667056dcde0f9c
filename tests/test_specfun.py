"""Tests for the special-function routines.

Frozen reference values were computed with independent oracles noted
inline (adaptive quadrature of the defining integral, an erfc power
series, exact polynomial expansions).  Property sweeps cross-check
against mpmath at high precision.
"""

import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest

from leimkuhler import specfun
from leimkuhler.curves import pg
from leimkuhler.empirical import empirical_curve, ingest
from leimkuhler.indices import generalized_gini

BUNDLED = Path(__file__).resolve().parents[1] / "demos" / "data" / "citations_synthetic.txt"


mpmath.mp.dps = 40


def mp_gamma(a, x):
    return float(mpmath.gammainc(a, x, mpmath.inf))


class TestUpperIncompleteGamma:
    def test_positive_shape_series_pin(self):
        # sqrt(pi)*erfc(1), erfc from an independent power series: 0.2788055852806621
        res = specfun.upper_incomplete_gamma(0.5, 1.0)
        assert res.value == pytest.approx(0.2788055852806621, rel=1e-12)
        assert res.method == "scipy"

    def test_negative_shape_pin(self):
        # adaptive quadrature of t**-1.5 * exp(-t) on (1, inf): 0.17814771178156
        res = specfun.upper_incomplete_gamma(-0.5, 1.0)
        assert res.value == pytest.approx(0.17814771178156, rel=1e-11)
        assert res.method == "continued_fraction"

    def test_shape_one_is_exp(self):
        res = specfun.upper_incomplete_gamma(1.0, 1.0)
        assert res.value == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_zero_shape_is_e1(self):
        # E1(1) = 0.21938393439552026 (series pin)
        res = specfun.upper_incomplete_gamma(0.0, 1.0)
        assert res.value == pytest.approx(0.21938393439552026, rel=1e-12)

    def test_small_x_recurrence_route(self):
        res = specfun.upper_incomplete_gamma(-2.5, 0.1)
        assert res.method == "recurrence"
        assert res.value == pytest.approx(mp_gamma(-2.5, 0.1), rel=1e-11)

    def test_routes_between_a_quarter_and_a_half(self):
        # below x = 1/2 the recurrence keeps more digits than the continued
        # fraction, save within 1/64 of an integer shape, where the
        # continued fraction serves
        rng = random.Random(24)
        routed, cf = [], []
        for _ in range(600):
            a, x = rng.uniform(-3.0, 0.5), rng.uniform(0.25, 0.5)
            ref = mpmath.gammainc(a, x, mpmath.inf)
            res = specfun.upper_incomplete_gamma(a, x)
            assert abs(mpmath.mpf(res.value) - ref) <= res.abs_error_estimate
            assert res.method == ("continued_fraction" if abs(a - round(a)) < 1.0 / 64.0
                                  else "recurrence")
            routed.append(float(abs(mpmath.mpf(res.value) / ref - 1)))
            cf.append(float(abs(mpmath.mpf(specfun._gamma_q_cf(a, x)[0]) / ref - 1)))
        assert max(routed) <= max(cf)
        assert sum(routed) <= sum(cf) / 4.0

    def test_recurrence_identity_sweep(self):
        # a*Gamma(a,x) + x**a*exp(-x) == Gamma(a+1,x)
        rng = random.Random(42)
        for _ in range(300):
            a = rng.uniform(-10.0, 10.0)
            if abs(a) < 1e-3:
                continue
            x = rng.uniform(0.1, 50.0)
            g = specfun.upper_incomplete_gamma(a, x).value
            g1 = specfun.upper_incomplete_gamma(a + 1.0, x).value
            lhs = a * g + x**a * math.exp(-x)
            assert abs(lhs - g1) <= 1e-10 * abs(g1)

    def test_against_mpmath_sweep(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rng.uniform(-20.0, 20.0)
            if abs(a) < 1e-4:
                continue
            x = math.exp(rng.uniform(math.log(1e-6), math.log(200.0)))
            res = specfun.upper_incomplete_gamma(a, x)
            ref = mp_gamma(a, x)
            if ref == 0.0:
                continue
            assert abs(res.value - ref) <= 1e-11 * abs(ref)

    def test_integer_shapes(self):
        for a in (-7, -3, -1, 2, 6):
            for x in (0.05, 0.8, 12.0):
                res = specfun.upper_incomplete_gamma(float(a), x)
                assert res.value == pytest.approx(mp_gamma(a, x), rel=5e-12)

    def test_error_estimate_is_sane(self):
        res = specfun.upper_incomplete_gamma(-3.3, 2.0)
        assert res.abs_error_estimate < 1e-10 * abs(res.value) + 1e-300
        assert abs(res.value - mp_gamma(-3.3, 2.0)) <= 10 * res.abs_error_estimate + 1e-16 * abs(res.value)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.upper_incomplete_gamma(1.0, 0.0)
        with pytest.raises(ValueError):
            specfun.upper_incomplete_gamma(1.0, -2.0)
        with pytest.raises(ValueError):
            specfun.upper_incomplete_gamma(math.nan, 1.0)

    def test_overflow_is_reported(self):
        with pytest.raises(OverflowError):
            specfun.upper_incomplete_gamma(-200.0, 1e-8)


class TestRegularizedIncompleteBeta:
    def test_exact_polynomial_pin(self):
        # I_x(2,3) = x^2 (6 - 8x + 3x^2), exact at x = 1/4: 0.26171875
        res = specfun.regularized_incomplete_beta(2.0, 3.0, 0.25)
        assert res.value == pytest.approx(0.26171875, abs=1e-14)
        assert res.method == "scipy"

    def test_uniform_case(self):
        for x in (0.0, 0.125, 0.5, 0.9, 1.0):
            assert specfun.regularized_incomplete_beta(1.0, 1.0, x).value == pytest.approx(x, abs=1e-14)

    def test_symmetric_midpoint(self):
        assert specfun.regularized_incomplete_beta(2.0, 2.0, 0.5).value == pytest.approx(0.5, abs=1e-14)

    def test_symmetry_identity_sweep(self):
        # I_x(a,b) + I_{1-x}(b,a) == 1
        rng = random.Random(11)
        for _ in range(300):
            a = rng.uniform(0.1, 30.0)
            b = rng.uniform(0.1, 30.0)
            x = rng.random()
            s = (
                specfun.regularized_incomplete_beta(a, b, x).value
                + specfun.regularized_incomplete_beta(b, a, 1.0 - x).value
            )
            assert abs(s - 1.0) <= 1e-12

    def test_against_mpmath(self):
        rng = random.Random(5)
        for _ in range(100):
            a = rng.uniform(0.2, 20.0)
            b = rng.uniform(0.2, 20.0)
            x = rng.random()
            res = specfun.regularized_incomplete_beta(a, b, x)
            ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
            assert abs(res.value - ref) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            specfun.regularized_incomplete_beta(1.0, 2.0, 1.5)
        for a, b in ((math.inf, 2.0), (2.0, math.inf), (math.nan, 2.0), (2.0, math.nan)):
            with pytest.raises(ValueError):
                specfun.regularized_incomplete_beta(a, b, 0.5)


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class TestScipyRoutesAgainstMpmath:
    """The stated relative bound of each scipy route covers its error
    against mpmath on the ranges over which the bound was measured."""

    def assert_bounded(self, res, ref):
        assert res.method == "scipy"
        assert abs(mpmath.mpf(res.value) - ref) <= res.abs_error_estimate

    def test_incomplete_gamma(self):
        rng = random.Random(21)
        for i in range(400):
            a = rng.uniform(0.5, 100.0) if i % 2 else log_uniform(rng, 0.5, 100.0)
            x = log_uniform(rng, 1e-3, 316.0)
            res = specfun.upper_incomplete_gamma(a, x)
            self.assert_bounded(res, mpmath.gammainc(a, x, mpmath.inf))

    def test_exponential_integral(self):
        rng = random.Random(22)
        for _ in range(400):
            x = log_uniform(rng, 1e-4, 300.0)
            self.assert_bounded(specfun.upper_incomplete_gamma(0.0, x), mpmath.e1(x))

    def test_incomplete_beta(self):
        rng = random.Random(23)
        for _ in range(400):
            a, b = log_uniform(rng, 1e-2, 1e2), log_uniform(rng, 1e-2, 1e2)
            x = rng.random()
            res = specfun.regularized_incomplete_beta(a, b, x)
            self.assert_bounded(res, mpmath.betainc(a, b, 0, x, regularized=True))

    def test_gamma_of_the_shape_overflows(self):
        # Gamma(a) overflows past a = 171.6; the product is taken in logs
        for a, x in ((172.0, 400.0), (180.0, 600.0)):
            res = specfun.upper_incomplete_gamma(a, x)
            self.assert_bounded(res, mpmath.gammainc(a, x, mpmath.inf))
        with pytest.raises(OverflowError):
            specfun.upper_incomplete_gamma(200.0, 150.0)

    def test_underflowed_q_takes_the_continued_fraction(self):
        # Q(150, 1400) is about 2e-400 while Gamma(150, 1400) is about 6e-140
        res = specfun.upper_incomplete_gamma(150.0, 1400.0)
        assert res.method == "continued_fraction"
        ref = mpmath.gammainc(150, 1400, mpmath.inf)
        assert abs(mpmath.mpf(res.value) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("alpha, beta", [(0.701, 0.102), (0.392, 0.055)])
    def test_pg_closed_form_generalized_gini(self, alpha, beta):
        # G_r = r alpha x**alpha Gamma(-alpha, x) e**x at x = (1 + r) beta;
        # the x below 1/2 take the recurrence from a scipy pivot
        for r in (0.5, 1.0, 2.0):
            res = generalized_gini(pg(alpha, beta), r, method="closed_form")
            x = (1.0 + r) * beta
            ref = r * alpha * mpmath.mpf(x) ** alpha * mpmath.gammainc(-alpha, x, mpmath.inf) * mpmath.exp(x)
            assert abs(mpmath.mpf(res.value) - ref) <= 1e-14 * ref


class TestKummer1F1:
    def test_exponential_pin(self):
        # 1F1(1;2;z) = (e^z - 1)/z; at z=1 that is e - 1
        res = specfun.kummer_1f1(1.0, 2.0, 1.0)
        assert res.value == pytest.approx(math.e - 1.0, rel=1e-13)
        assert res.method == "series"

    def test_a_equals_b_is_exp(self):
        for z in (-30.0, -2.5, 0.7, 40.0):
            assert specfun.kummer_1f1(3.3, 3.3, z).value == pytest.approx(math.exp(z), rel=1e-12)

    def test_unit_at_zero(self):
        res = specfun.kummer_1f1(4.2, 1.7, 0.0)
        assert res.value == 1.0

    def test_negative_argument_uses_transform(self):
        res = specfun.kummer_1f1(2.5, 3.5, -4.0)
        assert res.method == "transform"
        # mpmath pin
        assert res.value == pytest.approx(0.08762891080996535, rel=1e-12)

    def test_transform_self_consistency(self):
        # 1F1(a;b;z) == e^z * 1F1(b-a;b;-z)
        rng = random.Random(9)
        for _ in range(200):
            a = rng.uniform(0.5, 20.0)
            b = rng.uniform(0.5, 20.0)
            z = rng.uniform(-50.0, 50.0)
            lhs = specfun.kummer_1f1(a, b, z).value
            rhs = math.exp(z) * specfun.kummer_1f1(b - a, b, -z).value
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    def test_against_mpmath_sweep(self):
        # value must sit within a small multiple of its own error estimate
        rng = random.Random(13)
        for _ in range(150):
            a = rng.uniform(0.5, 30.0)
            b = rng.uniform(0.5, 30.0)
            z = rng.uniform(-80.0, 80.0)
            res = specfun.kummer_1f1(a, b, z)
            ref = float(mpmath.hyp1f1(a, b, z))
            assert abs(res.value - ref) <= max(10 * res.abs_error_estimate, 1e-10 * abs(ref))

    def test_strong_domain_accuracy(self):
        # direct positive series (z >= 0) and positive transformed series
        # (z < 0 with b >= a) carry full relative accuracy
        rng = random.Random(17)
        for _ in range(150):
            b = rng.uniform(0.5, 30.0)
            if rng.random() < 0.5:
                a, z = rng.uniform(0.5, 30.0), rng.uniform(0.0, 80.0)
            else:
                a, z = rng.uniform(0.1, 1.0) * b, rng.uniform(-80.0, 0.0)
            res = specfun.kummer_1f1(a, b, z)
            ref = float(mpmath.hyp1f1(a, b, z))
            assert abs(res.value - ref) <= 1e-10 * abs(ref)

    def test_deep_negative_argument(self):
        # the regime that appears in fitted hypergeometric-mixture curves
        res = specfun.kummer_1f1(14.0, 25.1, -34.7)
        ref = float(mpmath.hyp1f1(14.0, 25.1, -34.7))
        assert res.value == pytest.approx(ref, rel=1e-10)

    def test_far_negative_argument_sums_in_scaled_form(self):
        # the Kummer-transformed sum 1F1(b - a; b; -z) passes the double
        # range below z = -709 although 1F1 itself is small there
        for a, b in ((1.0, 2.0), (0.5, 3.5), (14.0, 25.1), (3.0, 7.0), (-2.5, 1.0)):
            for z in (-710.0, -800.0, -5000.0):
                res = specfun.kummer_1f1(a, b, z)
                ref = float(mpmath.hyp1f1(a, b, z))
                assert res.value == pytest.approx(ref, rel=1e-12), (a, b, z)
                assert res.method == "transform"
        assert specfun.kummer_1f1(1.0, 2.0, -800.0).value == pytest.approx(1.0 / 800.0, rel=1e-12)

    def test_subnormal_scale_sums_in_scaled_form(self):
        # below z = -708.4 exp(z) is subnormal, although the transformed
        # sum 1F1(b - a; b; -z) may still be finite: scaling that sum by
        # it read 0.0 at (60, 100, -800) and lost digits at -740
        for a, b in ((60.0, 100.0), (7.3, 2.1), (0.2, 0.3)):
            for z in (-720.0, -740.0, -800.0, -5000.0):
                ref = mpmath.hyp1f1(a, b, z)
                res = specfun.kummer_1f1(a, b, z)
                assert abs(res.value - ref) <= 1e-12 * abs(ref), (a, b, z)

    def test_element_values_do_not_depend_on_the_call(self):
        # an element rescales at the term where its own magnitude sum
        # passes exp(_RESCALE), whatever else is in the call, so each
        # value is the one it has alone
        z = np.array([-3.0, -300.0, -420.0, -550.0, -700.0, -720.0, -800.0, 2.0])
        for a, b in ((1.0, 2.0), (60.0, 100.0), (7.3, 2.1), (0.2, 0.3)):
            together, _ = specfun._kummer_series(a, b, z)
            alone = [specfun._kummer_series(a, b, z[i:i + 1])[0][0] for i in range(z.size)]
            assert together.tolist() == alone, (a, b)

    def test_overflow_raises(self):
        # both values grow like e^800, past the double range
        for a, b, z in ((1.0, 2.0, 800.0), (-2.5, 1.0, 800.0)):
            with pytest.raises(OverflowError):
                specfun.kummer_1f1(a, b, z)
        # the witness raises where the magnitude sum passes the double
        # range, long before the 25,000 terms the sum would need
        with pytest.raises(OverflowError):
            specfun.kummer_1f1(1.0, 2.0, 25000.0)
        with pytest.raises(OverflowError):
            specfun._kummer_series(1.0, 2.0, np.array([25000.0, 1.0]))

    def test_direct_sums_rescale_up_to_the_double_range(self):
        # 1F1(1; 2; z) = (e^z - 1) / z
        for z in (450.0, 700.0, 715.0):
            res = specfun.kummer_1f1(1.0, 2.0, z)
            exact = mpmath.expm1(z) / z
            assert abs(res.value - exact) <= min(res.abs_error_estimate, 1e-14 * exact), z

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.kummer_1f1(1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            specfun.kummer_1f1(1.0, 2.0, math.inf)

    def test_error_estimate_covers_accumulated_rounding(self):
        # thousands of terms: the rounding they carry, not the last term,
        # sets the error, and the estimate must cover it without
        # overstating it wildly
        for a, b in ((0.2, 0.3), (7.3, 2.1)):
            for z in (-709.5, -5000.0, -12000.0):
                res = specfun.kummer_1f1(a, b, z)
                error = abs(float(mpmath.mpf(res.value) - mpmath.hyp1f1(a, b, z)))
                assert error <= res.abs_error_estimate <= 1e3 * error, (a, b, z)


# the cut below which the transformed sum was summed in scaled form,
# where exp(-x) is subnormal
SCALED_FROM = 708.4


def scaled_transform(sa, b, x, grad=False):
    """exp(-x) * 1F1(sa; b; x) for large x, where the sum alone
    overflows.

    The Taylor series runs as in _kummer_series, but the partial sum
    and the current term are multiplied by exp(-_RESCALE) whenever the
    sum passes exp(_RESCALE), and each element counts its rescalings m.
    The result is the scaled sum times exp(m * _RESCALE - x), whose
    exponent is exact in floating point.  With grad, the derivative sums
    of _TermSums are rescaled with the terms and returned third.
    """
    shrink = math.exp(-specfun._RESCALE)
    term = np.ones_like(x)
    total = np.ones_like(x)
    total_abs = np.ones_like(x)
    rescales = np.zeros_like(x)
    sums = specfun._TermSums(sa, b, x.size) if grad else None
    for k in range(specfun._MAX_ITER):
        term = term * ((sa + k) / ((b + k) * (k + 1.0))) * x
        total = total + term
        total_abs = total_abs + np.abs(term)
        if grad:
            sums.add(term)
        big = total_abs > math.exp(specfun._RESCALE)
        if big.any():
            term[big] *= shrink
            total[big] *= shrink
            total_abs[big] *= shrink
            rescales[big] += 1.0
            if grad:
                sums.scale(big, shrink)
        if k > 2 and not (np.abs(term) > 1e-17 * np.abs(total)).any():
            break
    else:
        raise specfun.ConvergenceError("1F1 series did not converge")
    scale = np.exp(rescales * specfun._RESCALE - x)
    value = scale * total
    err = scale * (np.abs(term) + ((k + 1) * specfun._EPS) * total_abs) + specfun._EPS * np.abs(value)
    return (value, err, scale * sums.derivatives()) if grad else (value, err)


@np.errstate(over="ignore", invalid="ignore")
def per_term_series(a, b, z, grad=False):
    """_kummer_series with the stop test applied to every element after
    every term, and the transformed sum scaled by exp(-x) below
    SCALED_FROM or summed by scaled_transform beyond it or where it
    overflows: the reference its witness stop rule and its rescaling
    by magnitude must reproduce wherever no magnitude sum passes
    exp(_RESCALE)."""
    z = np.asarray(z, dtype=float)
    value = np.empty_like(z)
    err = np.empty_like(z)
    deriv = np.empty((3, z.size))
    neg = z < 0
    scaled = z < -SCALED_FROM
    for mask, sa, sign in ((~neg, a, 1.0), (neg & ~scaled, b - a, -1.0)):
        if not mask.any():
            continue
        x = sign * z[mask]
        term = np.ones_like(x)
        total = np.ones_like(x)
        total_abs = np.ones_like(x)
        sums = specfun._TermSums(sa, b, x.size)
        for k in range(specfun._MAX_ITER):
            term = term * ((sa + k) / ((b + k) * (k + 1.0))) * x
            total = total + term
            total_abs = total_abs + np.abs(term)
            if grad:
                sums.add(term)
            if k > 2 and not (np.abs(term) > 1e-17 * np.abs(total)).any():
                break
        else:
            raise specfun.ConvergenceError("1F1 series did not converge")
        finite = np.isfinite(total)
        if sign > 0 and not finite.all():
            raise OverflowError("1F1 series overflowed")
        series_err = np.abs(term) + ((k + 1) * specfun._EPS) * total_abs
        dsum = sums.derivatives()
        if sign > 0:
            value[mask], err[mask], deriv[:, mask] = total, series_err, dsum
        else:
            scale = np.exp(-x)
            value[mask] = scale * total
            err[mask] = scale * series_err + specfun._EPS * np.abs(value[mask])
            deriv[:, mask] = scale * dsum * specfun._FLIP
            scaled[np.flatnonzero(mask)[~finite]] = True
    if scaled.any():
        value[scaled], err[scaled], scaled_deriv = scaled_transform(b - a, b, -z[scaled], True)
        deriv[:, scaled] = scaled_deriv * specfun._FLIP
    return (value, err, deriv) if grad else (value, err)


def rescaling_shifts(a, b, z):
    """Each element's shift in _taylor_sum, _RESCALE times its rescalings."""
    shifts = np.zeros_like(z)
    for mask, sa, sign in ((z >= 0, a, 1.0), (z < 0, b - a, -1.0)):
        if mask.any():
            shifts[mask] = specfun._taylor_sum(sa, b, sign * z[mask])[4]
    return shifts


def pagb_arguments(u, alpha, beta, shift):
    """(a, b, z) of pagb's numerator and denominator series."""
    return beta, alpha + beta, np.append(shift + np.log(u), shift)


class TestKummerSeriesStopRule:
    def assert_matches_reference(self, a, b, z, grad=False):
        result = specfun._kummer_series(a, b, z, grad)
        reference = per_term_series(a, b, z, grad)
        for got, ref in zip(result, reference):
            assert np.array_equal(got, ref), (a, b)

    def test_pagb_on_the_bundled_polygon(self):
        u = empirical_curve(ingest(BUNDLED)).u[1:]
        for params in ((1e4, 6692.0, -200.0), (2.0, 3.0, -5.0)):
            self.assert_matches_reference(*pagb_arguments(u, *params))

    def test_seeded_pagb_draws_with_both_signs_of_z(self):
        rng = np.random.default_rng(71)
        for _ in range(12):
            u = np.concatenate((rng.random(300), 10.0 ** rng.uniform(-30, -1, 20)))
            alpha, beta = rng.uniform(0.2, 50.0, 2)
            shift = rng.uniform(0.5, 40.0)
            a, b, z = pagb_arguments(u, alpha, beta, shift)
            assert (z > 0).any() and (z < 0).any()
            self.assert_matches_reference(a, b, z)

    def test_single_elements_and_zero(self):
        for a, b, z in ((2.5, 3.5, [-4.0]), (1.0, 2.0, [1.0]), (4.2, 1.7, [0.0]),
                        (3.0, 5.0, [-1.0, 0.0, 0.5, 7.0])):
            self.assert_matches_reference(a, b, np.array(z))

    def test_alternating_terms_where_the_largest_argument_stops_first(self):
        # 1F1(-2.3; 1; x) vanishes near x = 2.9677: that element's relative
        # test needs more terms than the one at the larger x
        root = 2.9677394649658573
        for a, b, z in ((3.3, 1.0, [-root, -root - 0.3, -2.0]),
                        (-2.3, 1.0, [root, root + 0.3, 2.0])):
            self.assert_matches_reference(a, b, np.array(z))

    def test_overflow_and_scaled_transform_paths(self):
        for z in ([800.0, 1.0], [1.0, 800.0]):
            with pytest.raises(OverflowError):
                specfun._kummer_series(1.0, 2.0, np.array(z))
            with pytest.raises(OverflowError):
                per_term_series(1.0, 2.0, np.array(z))
        z = np.array([-3.0, -800.0, -5000.0, 2.0])
        for a, b in ((1.0, 2.0), (0.2, 0.3), (7.3, 2.1)):
            value, err = specfun._kummer_series(a, b, z)
            ref_value, ref_err = per_term_series(a, b, z)
            assert np.array_equal(value, ref_value), (a, b)
            # -3 is now summed with -800 and -5000 and shares their term
            # count, so only its estimate moves, and it still covers the error
            assert np.array_equal(err[1:], ref_err[1:]), (a, b)
            assert ref_err[0] < err[0], (a, b)
            assert abs(mpmath.mpf(value[0]) - mpmath.hyp1f1(a, b, z[0])) <= err[0], (a, b)

    def test_values_and_derivative_rows_of_seeded_pagb_draws(self):
        # pagb-like shifts keep every magnitude sum below exp(_RESCALE), so
        # nothing rescales and values, estimates and grad rows are the
        # reference's bit for bit
        rng = np.random.default_rng(29)
        for _ in range(20):
            u = np.concatenate((rng.random(200), 10.0 ** rng.uniform(-30, -1, 20)))
            alpha, beta = rng.uniform(0.2, 50.0, 2)
            a, b, z = pagb_arguments(u, alpha, beta, rng.uniform(-200.0, 100.0))
            assert not rescaling_shifts(a, b, z).any()
            self.assert_matches_reference(a, b, z, grad=True)

    def test_rescaled_sums_carry_their_derivative_rows(self):
        # far enough below zero the transformed sums pass exp(_RESCALE), so
        # the derivative sums are rescaled with them
        for a, b, z in ((3.0, 5.0, [-900.0]), (7.0, 12.0, [-800.0, -720.0])):
            z = np.array(z)
            assert rescaling_shifts(a, b, z).all()
            self.assert_matches_reference(a, b, z, grad=True)

    def test_witness_rescales_as_the_arrays_do(self, monkeypatch):
        # its stop index is then the final one: with sa >= 0 one witness
        # run serves the call, however far the sum passes the double range
        runs = []
        witness = specfun._witness_stop
        monkeypatch.setattr(specfun, "_witness_stop",
                            lambda *args: runs.append(args) or witness(*args))
        for z in (-420.0, -5000.0, -12000.0):
            runs.clear()
            specfun._kummer_series(1.0, 2.0, np.array([z, -3.0]))
            assert len(runs) == 1, z

    def test_rescaled_elements_against_mpmath(self):
        # the pairs of the scaled-form tests, plus (-40.5, 1.5), whose
        # transformed sum 1F1(42; 1.5; x) passes the double range near
        # x = 400, above the old cut at -708.4
        z = np.array([-405.0, -700.0, -709.0, -2000.0, -9000.0])
        pairs = ((1.0, 2.0), (0.5, 3.5), (14.0, 25.1), (3.0, 7.0), (-2.5, 1.0),
                 (60.0, 100.0), (7.3, 2.1), (0.2, 0.3), (-40.5, 1.5))
        for a, b in pairs:
            value, err = specfun._kummer_series(a, b, z)
            shift = rescaling_shifts(a, b, z)
            assert (shift[z <= -709.0] > 0).all(), (a, b)
            for zi, v, e, rescaled in zip(z, value, err, shift > 0):
                ref = mpmath.hyp1f1(a, b, zi)
                if rescaled:
                    assert abs(v - ref) <= 1e-13 * abs(ref), (a, b, zi)
                assert abs(v - ref) <= e, (a, b, zi)
        assert specfun._taylor_sum(42.0, 1.5, np.array([700.0]))[4][0] >= 800.0


@np.errstate(over="ignore", invalid="ignore")
def masked_kummer_series(a, b, z, grad=False):
    """_kummer_series as it was before a sign class that holds every z
    skipped its gather and scatter: the reference for its bits."""
    z = np.asarray(z, dtype=float)
    value = np.empty_like(z)
    err = np.empty_like(z)
    deriv = np.empty((3, z.size)) if grad else None
    neg = z < 0
    for mask, sa, sign in ((~neg, a, 1.0), (neg, b - a, -1.0)):
        if not mask.any():
            continue
        x = sign * z[mask]
        total, term, total_abs, n, shift, dsum = specfun._taylor_sum(
            sa, b, x, grad, specfun._LOG_MAX if sign > 0 else math.inf)
        series_err = np.abs(term) + (n * specfun._EPS) * total_abs
        if sign < 0 or np.ndim(shift):
            scale = np.exp(shift - x if sign < 0 else shift)
            total, series_err = scale * total, scale * series_err
            dsum = scale * dsum if grad else None
        if sign < 0:
            series_err += specfun._EPS * np.abs(total)
        elif not np.isfinite(total).all():
            raise OverflowError("1F1 series overflowed")
        value[mask], err[mask] = total, series_err
        if grad:
            deriv[:, mask] = dsum if sign > 0 else dsum * specfun._FLIP
    return (value, err, deriv) if grad else (value, err)


class TestKummerSeriesSignClasses:
    """_kummer_series against its masked reference copy, bit for bit,
    where every z has one sign, and where z has both."""

    @staticmethod
    def arguments(signs, size, rng):
        negative, positive = rng.uniform(-40.0, 0.0, size), rng.uniform(0.0, 30.0, size)
        if signs == "negative":
            return negative
        if signs == "non-negative":
            positive[0] = 0.0
            return positive
        # half of each sign, or one element of either
        return np.where(rng.random(size) < 0.5, negative, positive)

    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("signs, sizes", [
        ("negative", (2, 700)), ("non-negative", (2, 700)), ("mixed", (2, 700)), ("mixed", (1, 2)),
    ])
    def test_matches_the_masked_series(self, grad, signs, sizes):
        rng = np.random.default_rng(sizes[0] + len(signs))
        for size in [6826, *rng.integers(*sizes, 15)]:
            z = self.arguments(signs, size, rng)
            if signs == "mixed" and size > 1:
                assert (z < 0).any() and (z >= 0).any()
            # pagb's parameters: a = beta, b = alpha + beta
            a = rng.uniform(0.2, 5.0)
            b = a + rng.uniform(0.2, 5.0)
            for got, want in zip(specfun._kummer_series(a, b, z, grad),
                                 masked_kummer_series(a, b, z, grad)):
                assert got.tobytes() == want.tobytes(), (a, b, z)


class TestLogGamma:
    def test_half_integer(self):
        assert specfun.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_factorial(self):
        assert specfun.log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            specfun.log_gamma(0.0)
        with pytest.raises(ValueError):
            specfun.log_gamma(-1.5)
