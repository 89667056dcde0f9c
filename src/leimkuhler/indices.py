"""Concentration indices over Leimkuhler curves.

Three indices are provided.  The Gini index is twice the area between
the curve and the diagonal, 2*integral(K) - 1.  The generalized Gini
weights the area toward the most-cited sources,
r(r+1)*integral((1-u)**(r-1) K(u)) - 1, and reduces to the Gini at
r = 1.  The Pietra index is the maximum vertical distance max(K(u)-u).

All three share one dispatch: closed forms are used where the curve
family admits them (method tag "closed_form"); other families, and
closed forms that fail numerically at extreme parameters, take the
numeric route, and the tag names the route actually taken.  The
numeric routes evaluate the curve on arrays, one `evaluate` call per
round: the two Gini indices integrate by the tanh-sinh (double
exponential) rule of Takahasi and Mori, and the Pietra index refines a
grid bracket around the maximum of K(u) - u.  The mixture families
also support an independent route that averages the base family's
Gini over the mixing density with scipy's adaptive quadrature, used
as a cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun
from .curves import Family, evaluate
from .specfun import ConvergenceError

__all__ = [
    "CLOSED_FORM",
    "QUADRATURE",
    "SEARCH",
    "IndexValue",
    "PietraValue",
    "IndexReport",
    "gini",
    "generalized_gini",
    "pietra",
    "gini_via_mixture",
    "model_indices",
    "empirical_indices",
]

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"
SEARCH = "search"

DEFAULT_R_VALUES = (0.5, 1.0, 2.0)


class IndexValue(NamedTuple):
    value: float
    method: str


class PietraValue(NamedTuple):
    value: float
    argmax_u: float
    method: str


@dataclass(frozen=True)
class IndexReport:
    """Gini, generalized Gini, and Pietra values with method tags.

    generalized_gini is a tuple of (r, value) pairs.  Construction
    checks the defining invariants: gini and pietra lie in [0, 1] and
    any r = 1 entry agrees with gini to 1e-9.
    """

    gini: float
    generalized_gini: tuple
    pietra: float
    pietra_argmax_u: float
    method_tags: dict

    def __post_init__(self):
        if not (-1e-12 <= self.gini <= 1.0 + 1e-12):
            raise ValueError(f"gini {self.gini} outside [0, 1]")
        if not (-1e-12 <= self.pietra <= 1.0 + 1e-12):
            raise ValueError(f"pietra {self.pietra} outside [0, 1]")
        if not (0.0 <= self.pietra_argmax_u <= 1.0):
            raise ValueError(f"pietra argmax {self.pietra_argmax_u} outside [0, 1]")
        for r, value in self.generalized_gini:
            if r == 1.0 and abs(value - self.gini) > 1e-9:
                raise ValueError(
                    f"generalized Gini at r=1 ({value}) disagrees with gini ({self.gini})"
                )


def _check_tol(tol):
    if not (tol > 0) or not math.isfinite(tol):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _range_check(value, lo, hi, tol, what):
    if value < lo - max(tol, 1e-9) or value > hi + max(tol, 1e-9):
        raise ArithmeticError(f"{what} = {value} falls outside [{lo}, {hi}]")
    return min(max(value, lo), hi)


def _dispatch(model, method, numeric_tag, closed_families, closed, numeric):
    """Run the route that `method` selects and return (result, tag).

    "auto" takes the closed form for `closed_families` and the numeric
    route otherwise; a closed form that fails numerically (ArithmeticError
    or ConvergenceError) falls back to the numeric route under "auto"
    and raises when the closed form was requested explicitly.
    """
    if method not in ("auto", CLOSED_FORM, numeric_tag):
        raise ValueError(f"unknown method {method!r}")
    if method == CLOSED_FORM or (method == "auto" and model.family in closed_families):
        try:
            return closed(), CLOSED_FORM
        except (ArithmeticError, ConvergenceError):
            if method == CLOSED_FORM:
                raise
    return numeric(), numeric_tag


def _gp_gini_closed(theta, kappa):
    lg = specfun.log_gamma
    term = 2.0 * math.exp(lg(kappa + 1.0) + lg(theta + 1.0) - lg(theta + kappa + 2.0))
    return term + (theta - 1.0) / (theta + 1.0)


def _pg_scaled_gamma(alpha, x):
    # alpha * x**alpha * Gamma(-alpha, x) * e**x, the PG index kernel
    g = specfun.upper_incomplete_gamma(-alpha, x)
    if g.value <= 0.0:
        raise ArithmeticError(f"incomplete gamma underflowed for alpha={alpha}, x={x}")
    return alpha * math.exp(alpha * math.log(x) + x + math.log(g.value))


_GINI_CLOSED_FAMILIES = (Family.POWER, Family.GP, Family.PARETO, Family.PG)


def _gini_closed(model):
    p = model.params
    if model.family is Family.POWER:
        return p.theta / (2.0 + p.theta)
    if model.family is Family.GP:
        return _gp_gini_closed(p.theta, p.kappa)
    if model.family is Family.PARETO:
        return p.theta / (2.0 - p.theta)
    if model.family is Family.PG:
        return _pg_scaled_gamma(p.alpha, 2.0 * p.beta)
    raise ValueError(f"no closed-form Gini for family {model.family.value!r}")


# tanh-sinh nodes on (0, 1): t runs over [-_DE_T, _DE_T] and
# u = 1 / (1 + exp(-pi sinh t)).  The smallest node, about 6e-38, puts
# pagb's 1F1 argument shift + log u only 86 below its shift: for the
# fit's shifts (down to -200) far above -709, where the Kummer series
# sum overflows and has to be summed again in scaled form.
_DE_T = 4.0
_DE_MIN_LEVELS = 3
_DE_MAX_LEVEL = 8


def _de_level(level):
    # the nodes that are new at step 2**-level, with their complements
    # 1 - u (each computed directly, so both are accurate near their own
    # endpoint) and the weights du/dt = pi cosh(t) u (1 - u)
    if level == 0:
        t = np.arange(-_DE_T, _DE_T + 0.5)
    else:
        half = np.arange(2.0 ** -level, _DE_T, 2.0 ** (1 - level))
        t = np.concatenate((-half[::-1], half))
    s = np.pi * np.sinh(t)
    u = 1.0 / (1.0 + np.exp(-s))
    c = 1.0 / (1.0 + np.exp(s))
    return u, c, np.pi * np.cosh(t) * u * c


_DE_LEVELS = tuple(_de_level(level) for level in range(_DE_MAX_LEVEL + 1))


def _de_integrate(f, tol):
    """Integral of f over (0, 1) by the tanh-sinh (double exponential) rule.

    f(u, c) takes an array of nodes u and their complements c = 1 - u
    and returns the integrand there; it is called once per level on the
    level's new nodes.  The step halves from one level to the next until
    two successive levels differ by less than tol, after at least
    _DE_MIN_LEVELS levels.  Returns (value, error estimate): the last
    difference between levels, or inf when a sum is not finite.
    """
    total, value, err = 0.0, math.nan, math.inf
    for level, (u, c, w) in enumerate(_DE_LEVELS):
        total += float(np.dot(f(u, c), w))
        previous, value = value, total * 2.0 ** -level
        err = abs(value - previous) if math.isfinite(value) else math.inf
        if level + 1 >= _DE_MIN_LEVELS and err < tol:
            break
    return value, err


def _gini_quadrature(model, tol):
    value, err = _de_integrate(lambda u, c: evaluate(model, u), tol / 2.0)
    if not 2.0 * err <= tol:
        raise ConvergenceError(
            f"gini quadrature error estimate {2 * err:.3e} exceeds tol {tol:.3e}",
            2.0 * value - 1.0, 2.0 * err)
    return 2.0 * value - 1.0


def gini(model, tol=1e-10, method="auto"):
    """Gini index of a parametric curve.

    Parameters
    ----------
    model : CurveModel
    tol : float
        Absolute error budget for the quadrature route, which is the
        tanh-sinh rule refined until two successive levels differ by
        less than tol; ConvergenceError if they never do.
    method : {"auto", "closed_form", "quadrature"}
        "auto" uses the closed form when the family has one (power,
        gp, pareto, pg) and quadrature otherwise.  When the closed
        form fails numerically at extreme parameters (the pg kernel
        underflows for very large alpha*beta), "auto" falls back to
        quadrature and tags the result accordingly; requesting
        "closed_form" explicitly raises instead.

    Returns
    -------
    IndexValue
        (value, method) with value in [0, 1].
    """
    _check_tol(tol)
    value, tag = _dispatch(model, method, QUADRATURE, _GINI_CLOSED_FAMILIES,
                           lambda: _gini_closed(model),
                           lambda: _gini_quadrature(model, tol))
    return IndexValue(_range_check(value, 0.0, 1.0, tol, "gini"), tag)


_GEN_GINI_CLOSED_FAMILIES = (Family.POWER, Family.PARETO, Family.PG)


def _generalized_gini_closed(model, r):
    p = model.params
    if model.family is Family.POWER:
        return r * p.theta / (1.0 + r + p.theta)
    if model.family is Family.PARETO:
        lg = specfun.log_gamma
        return math.exp(lg(2.0 + r) + lg(2.0 - p.theta) - lg(2.0 + r - p.theta)) - 1.0
    if model.family is Family.PG:
        return r * _pg_scaled_gamma(p.alpha, (1.0 + r) * p.beta)
    raise ValueError(f"no closed-form generalized Gini for family {model.family.value!r}")


def _generalized_gini_quadrature(model, r, tol):
    # integral((1-u)**(r-1) K) = 1/r - integral((1-u)**(r-1) (1 - K)); the
    # second integrand is at most (1-u)**r, because a concave K lies above
    # the diagonal, so it vanishes at u = 1 for every r > 0 and the rule
    # needs no nodes closer to 1 than its last one
    scale = r * (r + 1.0)
    value, err = _de_integrate(lambda u, c: c ** (r - 1.0) * (1.0 - evaluate(model, u)),
                               tol / (2.0 * scale))
    if not scale * err <= tol:
        raise ConvergenceError(
            f"generalized Gini quadrature error estimate {scale * err:.3e} "
            f"exceeds tol {tol:.3e}", r - scale * value, scale * err)
    return r - scale * value


def generalized_gini(model, r, tol=1e-10, method="auto"):
    """Generalized Gini index G_r; G_1 is the ordinary Gini.

    Parameters
    ----------
    model : CurveModel
    r : float
        Weighting exponent, r > 0.  Values below 1 emphasize the
        most-cited sources; the index ranges over [0, r].
    tol : float
        Absolute error budget for the quadrature route: the tanh-sinh
        rule applied to the weighted gap (1-u)**(r-1) (1 - K(u)), which
        stays bounded for every r > 0.
    method : {"auto", "closed_form", "quadrature"}
        "auto" uses the closed form for power, pareto and pg (falling
        back to quadrature when it fails numerically) and quadrature
        otherwise.

    Returns
    -------
    IndexValue
    """
    _check_tol(tol)
    if not (r > 0) or not math.isfinite(r):
        raise ValueError(f"r must be positive and finite, got {r}")
    value, tag = _dispatch(model, method, QUADRATURE, _GEN_GINI_CLOSED_FAMILIES,
                           lambda: _generalized_gini_closed(model, r),
                           lambda: _generalized_gini_quadrature(model, r, tol))
    return IndexValue(_range_check(value, 0.0, r, tol, "generalized gini"), tag)


_GRID_POINTS = 65


def _grid_max(f, tol):
    # maximize a concave f on [0, 1]: each round evaluates f on a grid
    # over the bracket in one call and keeps the two cells around the
    # best point, until the grid spacing is within tol
    lo, hi = 0.0, 1.0
    while True:
        u = np.linspace(lo, hi, _GRID_POINTS)
        values = f(u)
        best = int(np.argmax(values))
        if hi - lo <= tol * (_GRID_POINTS - 1):
            return float(values[best]), float(u[best])
        lo, hi = float(u[max(best - 1, 0)]), float(u[min(best + 1, _GRID_POINTS - 1)])


_PIETRA_CLOSED_FAMILIES = (Family.POWER, Family.PARETO)


def _pietra_closed(model):
    p = model.params
    if model.family is Family.POWER:
        complement = math.exp(-math.log1p(p.theta) / p.theta)
        return p.theta * complement / (1.0 + p.theta), 1.0 - complement
    if model.family is Family.PARETO:
        argmax = math.exp(math.log1p(-p.theta) / p.theta)
        return p.theta * argmax / (1.0 - p.theta), argmax
    raise ValueError(f"no closed-form Pietra for family {model.family.value!r}")


def pietra(model, tol=1e-10, method="auto"):
    """Pietra index: the maximum vertical gap between curve and diagonal.

    Parameters
    ----------
    model : CurveModel
    tol : float
        Argument precision of the search route.  Rounding in K(u) - u
        limits the argmax to about 1e-8 near a flat maximum, however
        small tol is; the value itself is accurate to rounding.
    method : {"auto", "closed_form", "search"}
        Closed forms exist for the power and pareto families; all
        other families use the search, which evaluates K(u) - u on a
        grid of 65 points, keeps the two cells around the largest
        value and repeats on them until the grid spacing is within
        tol.  It converges to the unique maximum because K(u) - u is
        concave.

    Returns
    -------
    PietraValue
        (value, argmax_u, method).
    """
    _check_tol(tol)
    (value, argmax), tag = _dispatch(
        model, method, SEARCH, _PIETRA_CLOSED_FAMILIES,
        lambda: _pietra_closed(model),
        lambda: _grid_max(lambda u: evaluate(model, u) - u, tol))
    return PietraValue(_range_check(value, 0.0, 1.0, tol, "pietra"), argmax, tag)


_MIXTURES = {
    Family.PG: ("gamma", "power"),
    Family.PIG: ("invgauss", "power"),
    Family.GPG: ("gamma", "gp"),
    Family.GPIG: ("invgauss", "gp"),
    Family.PAGB: ("tilted_beta", "pareto"),
}


def gini_via_mixture(model, tol=1e-8):
    """Gini of a mixture family as the mixing-density average of the
    base family's Gini.

    Because the Gini functional is linear in the curve, the Gini of a
    mixture curve is the expectation of the base Gini over the mixing
    density.  This route is independent of both the closed forms and
    the direct curve quadrature, so it serves as a cross-check oracle.

    Parameters
    ----------
    model : CurveModel
        One of the mixture families (pg, pig, gpg, gpig, pagb).
    tol : float
        Absolute error budget.

    Returns
    -------
    float
    """
    from scipy.integrate import quad

    _check_tol(tol)
    if model.family not in _MIXTURES:
        raise ValueError(f"family {model.family.value!r} is not a mixture family")
    weight, base = _MIXTURES[model.family]
    p = model.params

    if base == "power":
        base_gini = lambda t: t / (2.0 + t)
    elif base == "gp":
        base_gini = lambda t: _gp_gini_closed(t, p.kappa)
    else:
        base_gini = lambda t: t / (2.0 - t)

    if weight == "tilted_beta":
        from .curves import tilted_beta_mixing_density

        density = tilted_beta_mixing_density(p.alpha, p.beta, p.shift)
        value, err = quad(lambda t: base_gini(t) * density(t), 0.0, 1.0,
                          epsabs=tol / 2.0, epsrel=1e-12, limit=400)
    else:
        if weight == "gamma":
            from .curves import gamma_mixing_density

            density = gamma_mixing_density(p.alpha, p.beta)
        else:
            from .curves import inverse_gaussian_mixing_density

            density = inverse_gaussian_mixing_density(p.alpha, p.beta)

        # map (0, inf) to (0, 1) through theta = t/(1-t)
        def integrand(t):
            theta = t / (1.0 - t)
            return base_gini(theta) * density(theta) / (1.0 - t) ** 2

        value, err = quad(integrand, 0.0, 1.0, epsabs=tol / 2.0, epsrel=1e-12, limit=400)

    if err > tol:
        raise ConvergenceError(
            f"mixture Gini error estimate {err:.3e} exceeds tol {tol:.3e}", value, err)
    return _range_check(value, 0.0, 1.0, tol, "mixture gini")


def model_indices(model, r_values=DEFAULT_R_VALUES, tol=1e-10):
    """Full index report for a parametric curve model."""
    g = gini(model, tol=tol)
    gen = [(float(r), generalized_gini(model, float(r), tol=tol)) for r in r_values]
    p = pietra(model, tol=tol)
    # closed_form only when every r took the closed form
    gen_tag = (CLOSED_FORM if all(v.method == CLOSED_FORM for _, v in gen) else QUADRATURE)
    return IndexReport(
        gini=g.value,
        generalized_gini=tuple((r, v.value) for r, v in gen),
        pietra=p.value,
        pietra_argmax_u=p.argmax_u,
        method_tags={"gini": g.method, "generalized_gini": gen_tag, "pietra": p.method},
    )


def _segment_weighted_integral(u0, k0, u1, k1, r):
    # exact integral of (1-u)**(r-1) * K(u) over [u0, u1] for the
    # linear segment K(u) = a + b u, via the substitution t = 1 - u
    b = (k1 - k0) / (u1 - u0)
    a = k0 - b * u0
    t0, t1 = 1.0 - u0, 1.0 - u1
    term1 = (a + b) * (t0**r - t1**r) / r
    term2 = b * (t0 ** (r + 1.0) - t1 ** (r + 1.0)) / (r + 1.0)
    return term1 - term2


def _polygon_gini(u, k):
    """Gini of the polygon through the vertices (u_i, k_i), u ascending
    from 0 to 1; the trapezoid rule is exact on it."""
    return 2.0 * float(np.trapezoid(k, u)) - 1.0


def empirical_indices(curve, r_values=DEFAULT_R_VALUES):
    """Index report for an empirical polygon.

    The Gini uses the trapezoid rule, which is exact on the polygon;
    the Pietra is the exact vertex maximum of K - u (the maximum of a
    piecewise-linear function over each segment is attained at an
    endpoint); the generalized Gini integrates the weighted integrand
    segment by segment in closed form, which remains exact for r < 1
    where the weight (1-u)**(r-1) is unbounded at u = 1.

    Parameters
    ----------
    curve : EmpiricalCurve
    r_values : iterable of float
        Exponents for the generalized Gini entries.

    Returns
    -------
    IndexReport
    """
    u, k = curve.u_values(), curve.k_values()
    if u.size < 2:
        raise ValueError("empirical curve needs at least 2 points")
    gini_value = _polygon_gini(u, k)

    # the first largest gap; the origin vertex has gap 0, so a polygon
    # that never rises above the diagonal reports (0, 0)
    gaps = k - u
    top = int(np.argmax(gaps))

    gen = []
    for r in r_values:
        r = float(r)
        if not (r > 0) or not math.isfinite(r):
            raise ValueError(f"r must be positive and finite, got {r}")
        total = float(np.sum(_segment_weighted_integral(u[:-1], k[:-1], u[1:], k[1:], r)))
        gen.append((r, r * (r + 1.0) * total - 1.0))

    return IndexReport(
        gini=min(max(gini_value, 0.0), 1.0),
        generalized_gini=tuple(gen),
        pietra=float(gaps[top]),
        pietra_argmax_u=float(u[top]),
        method_tags={"gini": QUADRATURE, "generalized_gini": QUADRATURE, "pietra": SEARCH},
    )
