"""Parametric Leimkuhler curve families.

A Leimkuhler curve K(u) gives the fraction of total citations held by
the most-cited fraction u of sources.  Every family here satisfies
K(0) = 0, K(1) = 1, K nondecreasing and concave on [0, 1].

Three base families have elementary forms (power, generalized power,
Pareto) and five arise by mixing a base family's exponent over a
continuous density (gamma, inverse-Gaussian, or an exponentially
tilted beta), which yields the pg/pig/gpg/gpig/pagb closed forms.
pg, pig, gpg and gpig share one kernel, fed one function per mixing law.

Numerical conventions: log(1 - u) is always computed as log1p(-u), and
curve values near the endpoints go through expm1 so that K stays
accurate when it is close to 0 or 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import specfun

__all__ = [
    "Family",
    "ParamVector",
    "CurveModel",
    "Violation",
    "ValidationReport",
    "power",
    "gp",
    "pareto",
    "pg",
    "pig",
    "gpg",
    "gpig",
    "pagb",
    "make_model",
    "evaluate",
    "validate_curve",
    "gamma_mixing_density",
    "inverse_gaussian_mixing_density",
    "tilted_beta_mixing_density",
]


class Family(str, Enum):
    """Tags for the eight curve families."""

    POWER = "power"
    GP = "gp"
    PARETO = "pareto"
    PG = "pg"
    PIG = "pig"
    GPG = "gpg"
    GPIG = "gpig"
    PAGB = "pagb"


# parameter names per family, in reporting order
PARAM_NAMES = {
    Family.POWER: ("theta",),
    Family.GP: ("theta", "kappa"),
    Family.PARETO: ("theta",),
    Family.PG: ("alpha", "beta"),
    Family.PIG: ("alpha", "beta"),
    Family.GPG: ("kappa", "alpha", "beta"),
    Family.GPIG: ("kappa", "alpha", "beta"),
    Family.PAGB: ("alpha", "beta", "shift"),
}


@dataclass(frozen=True)
class ParamVector:
    """Named curve parameters; a field is set only if its family uses it."""

    theta: float | None = None
    kappa: float | None = None
    alpha: float | None = None
    beta: float | None = None
    shift: float | None = None

    def present(self):
        """Mapping of the fields that are set."""
        return {k: v for k, v in self.__dict__.items() if v is not None}

    def as_tuple(self, family):
        """Values in the family's reporting order."""
        return tuple(getattr(self, name) for name in PARAM_NAMES[family])


def _check_positive(name, value):
    if not (value > 0) or not math.isfinite(value):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class CurveModel:
    """A curve family plus a validated parameter vector."""

    family: Family
    params: ParamVector

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        names = PARAM_NAMES[family]
        present = self.params.present()
        if set(present) != set(names):
            raise ValueError(
                f"family {family.value!r} takes parameters {sorted(names)}, got {sorted(present)}"
            )
        p = self.params
        if family in (Family.POWER, Family.GP):
            _check_positive("theta", p.theta)
        if family is Family.PARETO:
            if not (0.0 < p.theta < 1.0):
                raise ValueError(f"pareto theta must lie in (0, 1), got {p.theta}")
        if family in (Family.GP, Family.GPG, Family.GPIG):
            if not (0.0 < p.kappa <= 1.0):
                raise ValueError(f"kappa must lie in (0, 1], got {p.kappa}")
        if family in (Family.PG, Family.PIG, Family.GPG, Family.GPIG, Family.PAGB):
            _check_positive("alpha", p.alpha)
            _check_positive("beta", p.beta)
        if family is Family.PAGB and not math.isfinite(p.shift):
            raise ValueError(f"shift must be finite, got {p.shift}")

    def param_names(self):
        return PARAM_NAMES[self.family]

    def param_values(self):
        return self.params.as_tuple(self.family)


def make_model(family, **params):
    """Build a CurveModel from a family tag and keyword parameters."""
    return CurveModel(Family(family), ParamVector(**params))


def power(theta):
    """Power curve K(u) = 1 - (1-u)**(1+theta), theta > 0."""
    return make_model(Family.POWER, theta=float(theta))


def gp(theta, kappa):
    """Generalized power curve K(u) = 1 - (1-u**kappa)(1-u)**theta."""
    return make_model(Family.GP, theta=float(theta), kappa=float(kappa))


def pareto(theta):
    """Pareto curve K(u) = u**(1-theta), 0 < theta < 1."""
    return make_model(Family.PARETO, theta=float(theta))


def pg(alpha, beta):
    """Power curve with gamma-mixed exponent (shape alpha, rate beta)."""
    return make_model(Family.PG, alpha=float(alpha), beta=float(beta))


def pig(alpha, beta):
    """Power curve with inverse-Gaussian-mixed exponent (mean alpha, shape beta)."""
    return make_model(Family.PIG, alpha=float(alpha), beta=float(beta))


def gpg(kappa, alpha, beta):
    """Generalized power curve with gamma-mixed exponent."""
    return make_model(Family.GPG, kappa=float(kappa), alpha=float(alpha), beta=float(beta))


def gpig(kappa, alpha, beta):
    """Generalized power curve with inverse-Gaussian-mixed exponent."""
    return make_model(Family.GPIG, kappa=float(kappa), alpha=float(alpha), beta=float(beta))


def pagb(alpha, beta, shift):
    """Pareto curve with exponentially tilted beta-mixed exponent.

    K(u) = 1F1(beta; alpha+beta; shift + log u) / 1F1(beta; alpha+beta; shift).
    shift = 0 recovers the plain beta mixture.
    """
    return make_model(Family.PAGB, alpha=float(alpha), beta=float(beta), shift=float(shift))


# ---------------------------------------------------------------------------
# evaluation


_NO_ENDS = np.empty(0, dtype=np.intp)


def _even_grid(lo, hi, n):
    """np.linspace(lo, hi, n) for lo < hi and n >= 2, bit for bit: the
    same float operations, without linspace's per-call overhead."""
    step = (hi - lo) / (n - 1)
    u = np.arange(n, dtype=float)
    if step == 0.0:
        # a step below the smallest subnormal: scale first, as linspace does
        u /= n - 1
        u *= hi - lo
    else:
        u *= step
    u += lo
    u[-1] = hi
    return u


def _grid_size(n, least):
    """n as an int of at least least; any non-integer, 257.0 too, is a TypeError."""
    try:
        n = operator.index(n)
    except TypeError:
        raise TypeError(f"grid_size must be an integer, got {n!r}") from None
    if n < least:
        raise ValueError(f"grid_size must be at least {least}, got {n}")
    return n


class _Points:
    """Points u in [0, 1], checked once, as the kernels take them.

    The kernels see the points inside (0, 1), as u, with log u and
    log(1 - u) computed when first used.  At the others, the ends, K is
    0 and 1 whatever the parameters: k_ends holds those values.  A
    caller that evaluates many curves on one set of points, as a fit
    does, builds this once.  Sorted points, as a polygon's, keep those
    inside in one slice of the input, a view; others are gathered.
    """

    __slots__ = ("size", "u", "inside", "ends", "k_ends", "_log_u", "_log1m_u")

    def __init__(self, u):
        arr = np.asarray(u, dtype=float).ravel()
        self.size = arr.size
        self.inside, self.ends, self.k_ends = slice(None), _NO_ENDS, _NO_ENDS
        if arr.size:
            lo, hi = arr.min(), arr.max()
            # NaN fails both comparisons
            if not (lo >= 0.0 and hi <= 1.0):
                raise ValueError("u must lie in [0, 1]")
            if not (lo > 0.0 and hi < 1.0):
                inside = (arr > 0.0) & (arr < 1.0)
                self.ends = np.flatnonzero(~inside)
                at = np.flatnonzero(inside)
                if at.size and at[-1] - at[0] + 1 == at.size:
                    inside = slice(at[0], at[-1] + 1)
                self.inside = inside
                # K(1) = 1 and K(0) = 0, for u = -0.0 as well
                self.k_ends = (arr[self.ends] == 1.0).astype(float)
        self.u = arr[self.inside]
        self._log_u = self._log1m_u = None

    @property
    def log_u(self):
        if self._log_u is None:
            self._log_u = np.log(self.u)
        return self._log_u

    @property
    def log1m_u(self):
        if self._log1m_u is None:
            self._log1m_u = np.log1p(-self.u)
        return self._log1m_u

    def join(self, inner, at_ends):
        """Values at every point from those inside and those at the ends."""
        if not self.ends.size:
            return inner
        out = np.empty(self.size)
        out[self.inside] = inner
        out[self.ends] = at_ends
        return out


def _gamma_law(logub, alpha, beta, grad=False):
    # Theta ~ gamma(shape alpha, rate beta): M = (1 - log(1-u)/beta)**-alpha
    q = np.log1p(-logub / beta)
    log_m = -alpha * q
    return (log_m, -q, (alpha / beta) * logub / (logub - beta)) if grad else log_m


def _invgauss_law(logub, alpha, beta, grad=False):
    # Theta ~ inverse Gaussian(mean alpha, shape beta):
    # log M = (beta/alpha) * (1 - sqrt(1 - 2 alpha^2 log(1-u) / beta)),
    # written through m = -2 alpha^2 log(1-u)/beta >= 0 to avoid the
    # sqrt(1+m)-1 cancellation at small m; its derivatives are
    # log M/(alpha s) and (log M/beta) m/(2 s (1+s)), s = sqrt(1+m)
    m = -2.0 * alpha * alpha * logub / beta
    s = np.sqrt(1.0 + m)
    log_m = -(beta / alpha) * m / (1.0 + s)
    if not grad:
        return log_m
    return log_m, log_m / (alpha * s), (log_m / beta) * m / (2.0 * s * (1.0 + s))


# Each kernel returns K, a new array, at the points inside (0, 1) of a
# _Points, and with grad also the tuple of its derivatives with respect
# to the family's parameters in PARAM_NAMES order; pagb's are with
# respect to m = beta/(alpha+beta), lam = 1/(alpha+beta) and the shift,
# the coordinates it is fitted in.


def _eval_power(points, p, grad=False):
    logub = points.log1m_u
    k = -np.expm1((1.0 + p.theta) * logub)
    if not grad:
        return k
    d_theta = k - 1.0
    d_theta *= logub  # in place: a fit may hold 10^6 points
    return k, (d_theta,)


def _eval_gp(points, p, grad=False):
    logu, logub = points.log_u, points.log1m_u
    a = np.expm1(p.kappa * logu)
    b = np.exp(p.theta * logub)
    k = 1.0 + a * b
    return (k, (a * b * logub, logu * (1.0 + a) * b)) if grad else k


def _eval_pareto(points, p, grad=False):
    logu = points.log_u
    k = np.exp((1.0 - p.theta) * logu)
    return (k, (-logu * k,)) if grad else k


def _mixture(law):
    """The kernel of pg and pig, K = 1 - (1 - u) M, or with kappa of gpg
    and gpig, K = 1 + (u**kappa - 1) M, whose exponent Theta is mixed
    over law: law(logub, alpha, beta) gives log M, M = E[(1 - u)**Theta]
    at logub = log(1 - u), and with grad its alpha and beta derivatives
    too.  K - 1 is dK per unit of log M."""

    def kernel(points, p, grad=False):
        logub = points.log1m_u
        if p.kappa is None:
            if not grad:
                return -np.expm1(logub + law(logub, p.alpha, p.beta))
            log_m, d_alpha, d_beta = law(logub, p.alpha, p.beta, grad)
            k = -np.expm1(logub + log_m)
            k_mix = k - 1.0
            return k, (k_mix * d_alpha, k_mix * d_beta)
        logu = points.log_u
        a = np.expm1(p.kappa * logu)
        if not grad:
            return 1.0 + a * np.exp(law(logub, p.alpha, p.beta))
        log_m, d_alpha, d_beta = law(logub, p.alpha, p.beta, grad)
        mix = np.exp(log_m)
        k_mix = a * mix
        return 1.0 + k_mix, (logu * (1.0 + a) * mix, k_mix * d_alpha, k_mix * d_beta)

    return kernel


def _eval_pagb(points, p, grad=False):
    # numerator and denominator 1F1(beta; alpha+beta; .) in one series call
    z = np.append(p.shift + points.log_u, p.shift)
    if not grad:
        values, _ = specfun._kummer_series(p.beta, p.alpha + p.beta, z)
        return values[:-1] / values[-1]
    values, _, deriv = specfun._kummer_series(p.beta, p.alpha + p.beta, z, grad)
    k = values[:-1] / values[-1]
    # rows dF/dz - m F, dF/dm and dF/dlam: z moves one for one with the
    # shift, and the m F parts cancel from the ratio's derivative
    d_k = deriv[:, :-1] / values[-1] - np.outer(deriv[:, -1] / values[-1], k)
    return k, (d_k[1], d_k[2], d_k[0])


_EVAL = {
    Family.POWER: _eval_power,
    Family.GP: _eval_gp,
    Family.PARETO: _eval_pareto,
    Family.PG: _mixture(_gamma_law),
    Family.PIG: _mixture(_invgauss_law),
    Family.GPG: _mixture(_gamma_law),
    Family.GPIG: _mixture(_invgauss_law),
    Family.PAGB: _eval_pagb,
}


def evaluate(model, u, grad=False):
    """Evaluate K(u) for a curve model.

    Parameters
    ----------
    model : CurveModel
    u : float, array_like or _Points
        Points in [0, 1].  A _Points checks them, and computes their
        logs, once for many calls.
    grad : bool
        Also give the derivatives of K with respect to the family's
        parameters, in PARAM_NAMES order; pagb's are with respect to
        m = beta/(alpha+beta), lam = 1/(alpha+beta) and the shift.

    Returns
    -------
    float or ndarray
        K(u), with K(0) = 0 and K(1) = 1 exactly.  With grad, the tuple
        of K and its derivative columns, 1-d arrays at the points inside
        (0, 1) alone, in their order: at 0 and 1 K is fixed.

    Notes
    -----
    The family's formula runs on the points inside (0, 1); the ends
    are then given their value of K, 0 or 1.  The formulas are
    elementwise, and pagb's series stops at the same term for any set
    of points with the same values.
    """
    points = u if isinstance(u, _Points) else _Points(u)
    kernel = _EVAL[model.family]
    if grad:
        return kernel(points, model.params, grad=True)
    inner = kernel(points, model.params) if points.u.size else np.empty(0)
    out = points.join(inner, points.k_ends)
    if u is points:
        return out
    shape = np.shape(u)
    return float(out[0]) if shape == () else out.reshape(shape)


# ---------------------------------------------------------------------------
# mixing densities


def gamma_mixing_density(alpha, beta):
    """Gamma density (shape alpha, rate beta) on (0, inf), as a callable."""
    _check_positive("alpha", alpha)
    _check_positive("beta", beta)
    lognorm = alpha * math.log(beta) - math.lgamma(alpha)

    def density(theta):
        if theta <= 0:
            return 0.0
        return math.exp(lognorm + (alpha - 1.0) * math.log(theta) - beta * theta)

    return density


def inverse_gaussian_mixing_density(alpha, beta):
    """Inverse-Gaussian density (mean alpha, shape beta) on (0, inf)."""
    _check_positive("alpha", alpha)
    _check_positive("beta", beta)

    def density(theta):
        if theta <= 0:
            return 0.0
        return math.sqrt(beta / (2.0 * math.pi * theta**3)) * math.exp(
            -beta * (theta - alpha) ** 2 / (2.0 * alpha * alpha * theta)
        )

    return density


def tilted_beta_mixing_density(alpha, beta, shift):
    """Exponentially tilted beta density on (0, 1):
    g(theta) proportional to theta**(alpha-1) (1-theta)**(beta-1) exp(-shift*theta).

    The normalizer is B(alpha, beta) * 1F1(alpha; alpha+beta; -shift).
    This is the mixing density whose Pareto mixture gives the pagb
    family; shift = 0 reduces it to the Beta(alpha, beta) density.
    """
    _check_positive("alpha", alpha)
    _check_positive("beta", beta)
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift}")
    logbeta = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
    norm = logbeta + math.log(specfun.kummer_1f1(alpha, alpha + beta, -shift).value)

    def density(theta):
        if theta <= 0.0 or theta >= 1.0:
            return 0.0
        return math.exp(
            (alpha - 1.0) * math.log(theta)
            + (beta - 1.0) * math.log1p(-theta)
            - shift * theta
            - norm
        )

    return density


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    """A single violated curve property at a grid location."""

    prop: str
    u: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_curve: empty violations means a valid curve."""

    violations: tuple

    @property
    def is_valid(self):
        return not self.violations


def validate_curve(model, grid_size=512):
    """Check the defining curve properties on a uniform grid.

    Verifies K(0) = 0 and K(1) = 1, monotonicity of forward
    differences (tolerance -1e-12), and concavity of second differences
    (tolerance 1e-10).

    Returns
    -------
    ValidationReport
    """
    u = _even_grid(0.0, 1.0, _grid_size(grid_size, 3))
    k = evaluate(model, u)
    violations = []
    if k[0] != 0.0:
        violations.append(Violation("endpoint", 0.0, f"K(0) = {k[0]!r}"))
    if k[-1] != 1.0:
        violations.append(Violation("endpoint", 1.0, f"K(1) = {k[-1]!r}"))
    bad = ~np.isfinite(k)
    for i in np.flatnonzero(bad):
        violations.append(Violation("finite", float(u[i]), f"K = {k[i]!r}"))
    if not bad.any():
        d1 = np.diff(k)
        for i in np.flatnonzero(d1 < -1e-12):
            violations.append(
                Violation("monotone", float(u[i + 1]), f"forward difference {d1[i]:.3e}")
            )
        d2 = np.diff(k, 2)
        for i in np.flatnonzero(d2 > 1e-10):
            violations.append(
                Violation("concave", float(u[i + 1]), f"second difference {d2[i]:.3e}")
            )
    return ValidationReport(tuple(violations))
