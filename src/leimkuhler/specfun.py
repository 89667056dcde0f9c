"""Special functions used by the curve and index routines.

Each routine returns a :class:`SpecFunResult`: the value, an absolute
error estimate and a tag naming the method.  scipy.special, imported
inside the functions that call it, gives Gamma(a, x) for a >= 1/2 as
Q(a, x) * Gamma(a), E1(x) = Gamma(0, x) and I_x(a, b), tagged "scipy".
There the estimate is |value| times a stated relative bound (plus the
rounding of the logs where Gamma(a) overflows), three to seven times
the worst error against 40-digit mpmath over 20,000 random draws:
5e-13 for Gamma(a, x), a in [1/2, 100], x in [1e-3, 316]; 1e-14 for
E1, x in [1e-4, 300]; 2e-13 for I_x(a, b), a, b in [1e-2, 1e2].
Outside those ranges it is unmeasured.

The rest is plain floating point, with working error estimates
(truncation plus accumulated rounding), not rigorous bounds:
Gamma(a, x) for a < 1/2, negative shapes included (the convergent
integral of t**(a-1)*exp(-t) on (x, inf), x > 0), by a Lentz continued
fraction or a downward recurrence from a scipy route, and Kummer's 1F1
series, rescaled by magnitude where it would overflow, with its
parameter derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecFunResult",
    "ConvergenceError",
    "log_gamma",
    "upper_incomplete_gamma",
    "regularized_incomplete_beta",
    "kummer_1f1",
]

_EPS = 2.220446049250313e-16
_TINY = 1e-300
_MAX_ITER = 20000
# the smallest normal double; a Q below it has lost digits
_NORMAL_MIN = 2.2250738585072014e-308
# stated relative error bounds of the scipy routes (module docstring)
_GAMMA_RTOL = 5e-13
_E1_RTOL = 1e-14
_BETA_RTOL = 2e-13


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance.

    Carries the partial value and the running error estimate so callers
    can decide whether the result is still usable.
    """

    def __init__(self, message, partial_value=None, abs_error_estimate=None):
        super().__init__(message)
        self.partial_value = partial_value
        self.abs_error_estimate = abs_error_estimate


@dataclass(frozen=True)
class SpecFunResult:
    """Value plus diagnostic metadata for a special-function evaluation."""

    value: float
    abs_error_estimate: float
    method: str  # 'scipy' | 'series' | 'continued_fraction' | 'recurrence' | 'transform'

    def __float__(self):
        return self.value


def log_gamma(a):
    """Natural log of the gamma function for a > 0."""
    if not (a > 0) or not math.isfinite(a):
        raise ValueError(f"log_gamma requires a > 0, got {a}")
    return math.lgamma(a)


# ---------------------------------------------------------------------------
# upper incomplete gamma


def _gamma_q_cf(a, x):
    """Upper Q(a, x)*Gamma(a) = Gamma(a, x) by Lentz continued fraction.

    Serves the shapes scipy lacks, a < 1/2 (negative included) at
    x >= 1/2, and a >= 1/2 far above the diagonal x = a + 1, where Q
    itself falls below the normal double range.
    """
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            pre = math.exp(a * math.log(x) - x)
            if math.isinf(pre):
                raise OverflowError("incomplete gamma prefactor overflowed")
            if pre == 0.0:
                # true value sits below the double range
                return 0.0, 1e-308
            value = pre * h
            return value, abs(value) * (abs(delta - 1.0) + _EPS * i)
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def _gamma_from_q(a, x):
    """Gamma(a, x) = Q(a, x) * Gamma(a) for a >= 1/2, taken in logs
    where Gamma(a) overflows."""
    from scipy.special import gamma, gammaincc

    q = float(gammaincc(a, x))
    if q < _NORMAL_MIN:
        # Q has lost digits or all of them, which happens only far above
        # x = a + 1, where the continued fraction converges
        return SpecFunResult(*_gamma_q_cf(a, x), "continued_fraction")
    gam = float(gamma(a))
    if math.isfinite(gam):
        value = gam * q
        return SpecFunResult(value, _GAMMA_RTOL * value, "scipy")
    log_gam, log_q = math.lgamma(a), math.log(q)
    # math.exp raises OverflowError where Gamma(a, x) itself overflows
    value = math.exp(log_gam + log_q)
    return SpecFunResult(value, value * (_GAMMA_RTOL + _EPS * (log_gam - log_q)), "scipy")


def upper_incomplete_gamma(a, x):
    """Upper incomplete gamma function Gamma(a, x) for real a and x > 0.

    Parameters
    ----------
    a : float
        Shape; may be negative or zero.
    x : float
        Lower integration limit; must be positive.

    Returns
    -------
    SpecFunResult

    Notes
    -----
    For a >= 1/2 the value is scipy's Q(a, x) times Gamma(a) (in logs
    where Gamma(a) overflows) on both sides of the diagonal x = a + 1,
    save far above it, where Q falls below the normal double range and
    the continued fraction below takes over; at a = 0 it is scipy's
    E1(x).  For smaller (including negative) shapes the continued
    fraction is evaluated directly at a whenever x >= 1/2, and from
    x = 1/4 up within 1/64 of an integer shape; it stays accurate there
    while the downward recurrence

        Gamma(a, x) = (Gamma(a + 1, x) - x**a * exp(-x)) / a

    amplifies rounding by roughly x/|a| per step, and by about
    1/|a - round(a)| at its step through the shape nearest zero.
    Elsewhere below x = 1/2 the recurrence is the more accurate route
    (on [1/4, 1/2) it keeps about one more digit than the continued
    fraction) and is seeded with an evaluation at a pivot shape in
    [1/2, 3/2), never at a tiny positive shape where
    Gamma(a)*(1 - P(a, x)) would cancel catastrophically.  A chain
    through an integer shape pivots on Gamma(0, x) = E1(x) instead,
    where the recurrence would divide by zero.  Conditioning cliff:
    shapes within ~1e-8 of a negative integer (or of zero) are
    inherently ill-conditioned for x < 1/4; the error estimate reports
    the blow-up honestly.
    """
    if not (x > 0) or not math.isfinite(x) or not math.isfinite(a):
        raise ValueError(f"upper_incomplete_gamma requires finite a and x > 0, got a={a}, x={x}")

    if a >= 0.5:
        return _gamma_from_q(a, x)

    if a == 0:
        from scipy.special import exp1

        value = float(exp1(x))
        return SpecFunResult(value, _E1_RTOL * value, "scipy")

    if x >= 0.5 or (x >= 0.25 and abs(a - round(a)) < 1.0 / 64.0):
        value, err = _gamma_q_cf(a, x)
        return SpecFunResult(value, err, "continued_fraction")

    # x < 1/2, a < 1/2: walk the recurrence down from a pivot shape in
    # [1/2, 3/2), or from E1(x) when a is a negative integer.
    pivot = 0.0 if a == math.floor(a) else a + math.ceil(0.5 - a)
    res = upper_incomplete_gamma(pivot, x)
    value, err = res.value, res.abs_error_estimate

    logx = math.log(x)
    shape = pivot
    while shape > a + 0.5:
        shape -= 1.0
        t = math.exp(shape * logx - x)
        if math.isinf(t):
            raise OverflowError("x**a * exp(-x) overflowed in gamma recurrence")
        value = (value - t) / shape
        err = (err + _EPS * t) / abs(shape) + _EPS * abs(value)
        if math.isinf(value):
            raise OverflowError("Gamma(a, x) overflowed in downward recurrence")
    return SpecFunResult(value, err, "recurrence")


# ---------------------------------------------------------------------------
# regularized incomplete beta


def regularized_incomplete_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by scipy.special.

    Parameters
    ----------
    a, b : float
        Positive, finite shape parameters.
    x : float
        Point in [0, 1].

    Returns
    -------
    SpecFunResult
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"regularized_incomplete_beta requires finite a, b > 0, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"regularized_incomplete_beta requires 0 <= x <= 1, got x={x}")
    from scipy.special import betainc

    value = float(betainc(a, b, x))
    return SpecFunResult(value, _BETA_RTOL * value, "scipy")


# ---------------------------------------------------------------------------
# confluent hypergeometric 1F1


# a sum, its last term and its magnitude sum are multiplied by
# exp(-_RESCALE) whenever the magnitude sum passes exp(_RESCALE)
_RESCALE = 400.0
_BIG, _SHRINK = math.exp(_RESCALE), math.exp(-_RESCALE)
# the log of the largest double
_LOG_MAX = math.log(np.finfo(float).max)
# signs that turn the derivative sums of exp(-x) S(x) into those in z = -x
_FLIP = np.array([[-1.0], [-1.0], [1.0]])


@np.errstate(over="ignore", invalid="ignore")
def _kummer_series(a, b, z, grad=False):
    """Elementwise 1F1(a; b; z_i) for b > 0, with the Kummer transform
    1F1(a; b; z) = exp(z) * 1F1(b - a; b; -z) applied where z < 0.

    Each sign class, with series parameter sa (a, or b - a) and
    x = |z| >= 0, runs the Taylor series to the first term index k > 2
    at which every element's term is at most 1e-17 of its partial sum.
    That index comes from a witness element summed alone in Python
    floats, which round like numpy's float64; the arrays then run the
    same recurrence up to it in place, with no test per term.  With
    sa >= 0 no term is negative and term_k / sum_k grows with x, so the
    element with the largest x stops last and is the witness.  With
    sa < 0 the terms alternate and no element is sure to stop last.
    For either class one test over all elements at the witness's stop
    finds any element still running; the largest of those becomes the
    next witness and the sum goes on from there, so the stop index is
    always the one a test of every term would give.

    Each element is rescaled by its own magnitude sum (see _taylor_sum),
    so no transformed sum overflows and no value depends on the others
    in the call; error estimates and the last bits of derivative rows
    do, through the shared stop index.  A direct value past the double
    range raises OverflowError rather than warning: from the witness
    once its shift passes _LOG_MAX, which ends a far argument within a
    few hundred terms, or else from the check of the values.

    Returns (values, abs error estimates); the estimate adds the last
    term and the rounding that accumulates over the n terms summed,
    n * eps times the sum of term magnitudes.

    With grad, which needs a > 0 and b - a > 0, a third array holds in
    its rows, for each value F, dF/dz - m F and the derivatives of F with
    respect to m = a/b and to lam = 1/b at fixed m, the coordinates in
    which pagb is fitted.  They are summed along the same terms (see
    _TermSums); the values do not change.
    """
    z = np.asarray(z, dtype=float)
    value = np.empty_like(z)
    err = np.empty_like(z)
    deriv = np.empty((3, z.size)) if grad else None
    neg = z < 0
    for mask, sa, sign in ((~neg, a, 1.0), (neg, b - a, -1.0)):
        count = np.count_nonzero(mask)
        if not count:
            continue
        if count == z.size:  # every z in one class: no gather and no scatter
            mask = slice(None)
        x = sign * z[mask]
        total, term, total_abs, n, shift, dsum = _taylor_sum(
            sa, b, x, grad, _LOG_MAX if sign > 0 else math.inf)
        series_err = np.abs(term) + (n * _EPS) * total_abs
        # a direct sum that never rescaled is its own value
        if sign < 0 or np.ndim(shift):
            scale = np.exp(shift - x if sign < 0 else shift)
            total, series_err = scale * total, scale * series_err
            dsum = scale * dsum if grad else None
        if sign < 0:
            # the rounding of exp(-x)
            series_err += _EPS * np.abs(total)
        elif not np.isfinite(total).all():
            raise OverflowError("1F1 series overflowed")
        value[mask], err[mask] = total, series_err
        if grad:
            # exp(-x) S(x) with x = -z has slope m F - exp(-x) (S' - (1 - m) S)
            # in z, its series in the mean 1 - m
            deriv[:, mask] = dsum if sign > 0 else dsum * _FLIP
    return (value, err, deriv) if grad else (value, err)


class _TermSums:
    """Derivative sums of the 1F1(sa; b; x) series, sa > 0.

    Term t_j of the series is t_(j-1) (sa + j - 1) / ((b + j - 1) j) x,
    and the three sums are over t_j times scalars that depend on j alone:

        C_j = j (1 - mu) lam / (1 + j lam), summing to S' - mu S, the
              slope in x beyond mu times the sum S,
        A_j = sum_(i<j) 1/(mu + i lam), the derivative of log t_j with
              respect to mu = sa/b,
        B_j = sum_(i<j) i (1 - mu) / ((mu + i lam)(1 + i lam)), that with
              respect to lam = 1/b at fixed mu.

    C_j is t_j's share of (sa/b) (1F1(sa+1; b+1; x) - 1F1(sa; b; x)),
    which is S' - mu S.  No sum cancels, however small lam is: in sa and
    b the derivatives cancel as lam -> 0, and S' and mu S agree to about
    lam.  The terms are kept in a block of rows, and each full block is
    summed into the three sums with one matrix product.
    """

    def __init__(self, sa, b, size):
        self.sa, self.b = sa, b
        self.j = 0  # terms t_1 .. t_j are summed, A_(j+1) - b/(sa+j) and B_j kept
        self.a_j = self.b_j = 0.0
        # a block of at most 16 terms and 8 MB
        self.rows = np.empty((max(1, min(16, (1 << 20) // size)), size))
        self.filled = 0
        self.sums = np.zeros((3, size))

    def add(self, term):
        """Take the next term, t_(j+1) after t_j (t_0 = 1 adds nothing)."""
        self.rows[self.filled] = term
        self.filled += 1
        if self.filled == len(self.rows):
            self.flush()

    def flush(self):
        if not self.filled:
            return
        sa, b = self.sa, self.b
        i = np.arange(self.j, self.j + self.filled, dtype=float)
        a = self.a_j + np.cumsum(b / (sa + i))
        c = self.b_j + np.cumsum(i * (b - sa) * b / ((sa + i) * (b + i)))
        slope = (i + 1.0) * (b - sa) / (b * (b + i + 1.0))
        self.sums += np.array((slope, a, c)) @ self.rows[:self.filled]
        self.j += self.filled
        self.a_j, self.b_j = a[-1], c[-1]
        self.filled = 0

    def scale(self, mask, factor):
        self.flush()
        self.sums[:, mask] *= factor

    def derivatives(self):
        """Rows S' - mu S, dS/dmu and dS/dlam of the series sum S."""
        self.flush()
        return self.sums


def _taylor_sum(sa, b, x, grad=False, log_limit=math.inf):
    """Taylor series of 1F1(sa; b; x_i), x_i >= 0, stopped by the witness
    rule of _kummer_series, with each element's term, sum, magnitude sum
    and derivative sums multiplied by exp(-_RESCALE), and _RESCALE added
    to its shift, whenever its magnitude sum passes exp(_RESCALE); the
    series is the sum times exp(shift), an exponent exact in floating
    point.  As |term_j| grows with x, the arrays are tested for that
    only once a witness has rescaled, and a witness whose own rescalings
    pass log_limit raises OverflowError.  Returns (sums, last terms,
    sums of term magnitudes, terms summed, shifts, derivatives); the
    shifts are the scalar 0.0 until something rescales, and the
    derivatives are the rows of _TermSums.derivatives with grad, else
    None."""
    term = np.ones_like(x)
    total = np.ones_like(x)
    signed = sa < 0
    # without negative terms the sum is its own magnitude sum
    total_abs = total.copy() if signed else total
    shift = 0.0
    sums = _TermSums(sa, b, x.size) if grad else None
    k, w, rescaling = 0, int(np.argmax(x)), False
    while True:
        carried = map(float, (x[w], term[w], total[w], total_abs[w]))
        stop, passed = _witness_stop(sa, b, k, *carried, log_limit)
        rescaling |= passed
        for j in range(k, stop + 1):
            term *= (sa + j) / ((b + j) * (j + 1.0))
            term *= x
            total += term
            if signed:
                total_abs += np.abs(term)
            if grad:
                sums.add(term)
            if rescaling and (big := total_abs > _BIG).any():
                for part in (term, total, total_abs) if signed else (term, total):
                    part[big] *= _SHRINK
                shift = shift + _RESCALE * big
                if grad:
                    sums.scale(big, _SHRINK)
        k = stop + 1
        running = np.abs(term) > 1e-17 * np.abs(total)
        if not running.any():
            return total, term, total_abs, k, shift, sums.derivatives() if grad else None
        w = int(np.flatnonzero(running)[np.argmax(x[running])])


def _witness_stop(sa, b, k, x, term, total, total_abs, log_limit=math.inf):
    """First index from k on, and past 2, at which the scalar series at x,
    carried into index k as (term, total, total_abs) and rescaled as in
    _taylor_sum, meets the stop test; and whether it rescaled.  Raises
    OverflowError once its rescalings add up to more than log_limit."""
    signed = sa < 0
    passed = False
    for k in range(k, _MAX_ITER):
        term = term * ((sa + k) / ((b + k) * (k + 1.0))) * x
        total = total + term
        # without negative terms the sum is its own magnitude sum
        total_abs = total_abs + abs(term) if signed else total
        if total_abs > _BIG:
            log_limit -= _RESCALE
            if log_limit < 0:
                raise OverflowError("1F1 series overflowed")
            term, total, total_abs = term * _SHRINK, total * _SHRINK, total_abs * _SHRINK
            passed = True
        if k > 2 and not abs(term) > 1e-17 * abs(total):
            return k, passed
    raise ConvergenceError("1F1 series did not converge")


def kummer_1f1(a, b, z):
    """Kummer confluent hypergeometric function 1F1(a; b; z).

    Parameters
    ----------
    a : float
    b : float
        Must be positive (the denominator parameter never hits a pole).
    z : float

    Returns
    -------
    SpecFunResult

    Notes
    -----
    Negative arguments are routed through the Kummer transform
    1F1(a; b; z) = exp(z) * 1F1(b - a; b; -z), which avoids the
    catastrophic cancellation of the alternating direct series whenever
    b >= a.  For z < 0 with a > b both routes alternate in sign and the
    attainable relative accuracy degrades; abs_error_estimate reports
    the loss honestly in that corner.
    """
    if not (b > 0) or not math.isfinite(b):
        raise ValueError(f"kummer_1f1 requires b > 0, got b={b}")
    if not (math.isfinite(a) and math.isfinite(z)):
        raise ValueError("kummer_1f1 requires finite a and z")
    value, err = _kummer_series(a, b, np.array([z], dtype=float))
    return SpecFunResult(float(value[0]), float(err[0]), "series" if z >= 0 else "transform")
