"""Concentration indices over Leimkuhler curves.

Three indices are provided.  The generalized Gini weights the area
between the curve and the diagonal toward the most-cited sources,
G_r = r(r+1)*integral((1-u)**(r-1) K(u)) - 1; the Gini index, twice
the area, 2*integral(K) - 1, is its r = 1 member and is computed as
G_1.  The Pietra index is the maximum vertical distance max(K(u)-u).

Each index has one route per method: a table of closed forms keyed by
curve family (method tag "closed_form"), and one numeric route for the
families the table lacks and for closed forms that fail numerically at
extreme parameters; the tag names the route actually taken.  The
numeric routes evaluate the curve on arrays, one `evaluate` call per
round: G_r integrates by the tanh-sinh (double exponential) rule of
Takahasi and Mori, one round per level of nodes, and the Pietra index
refines a grid bracket around the maximum of K(u) - u.  The levels'
nodes are the same for every r, so model_indices evaluates each level
once and shares it among its r values.  The mixture families also
support an independent route that averages the base family's Gini over
the mixing density with scipy's adaptive quadrature, used as a
cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun
from .curves import (
    Family,
    ParamVector,
    _even_grid,
    evaluate,
    gamma_mixing_density,
    inverse_gaussian_mixing_density,
    tilted_beta_mixing_density,
)
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
    any r = 1 entry agrees with gini to 1e-9.  model_indices and
    empirical_indices give the r = 1 entry and the Gini one value, so
    there the check holds by construction; it is the check on reports
    parsed back from JSON.
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


def _check_r(r):
    if not (r > 0) or not math.isfinite(r):
        raise ValueError(f"r must be positive and finite, got {r}")


def _range_check(value, lo, hi, tol, what):
    if value < lo - max(tol, 1e-9) or value > hi + max(tol, 1e-9):
        raise ArithmeticError(f"{what} = {value} falls outside [{lo}, {hi}]")
    return min(max(value, lo), hi)


def _dispatch(model, method, numeric_tag, closed_forms, numeric, *args):
    """Run the route that `method` selects and return (result, tag).

    The closed form is closed_forms[model.family](model.params, *args),
    and the numeric route is numeric(), which takes no arguments.
    "auto" takes the closed form when the family has one and the
    numeric route otherwise; a closed form that fails numerically
    (ArithmeticError or ConvergenceError) falls back to the numeric
    route under "auto" and raises when the closed form was requested
    explicitly, as does a request for a closed form the family lacks.
    """
    if method not in ("auto", CLOSED_FORM, numeric_tag):
        raise ValueError(f"unknown method {method!r}")
    closed = closed_forms.get(model.family)
    if method == CLOSED_FORM and closed is None:
        raise ValueError(f"family {model.family.value!r} has no closed-form index")
    if closed is not None and method != numeric_tag:
        try:
            return closed(model.params, *args), CLOSED_FORM
        except (ArithmeticError, ConvergenceError):
            if method == CLOSED_FORM:
                raise
    return numeric(), numeric_tag


def _gp_generalized_gini(theta, kappa, r):
    # r (theta - 1)/(r + theta) + r (r + 1) B(kappa + 1, r + theta), since
    # 1 - K = (1 - u**kappa)(1 - u)**theta; at kappa = 1 it is power's
    lg = specfun.log_gamma
    term = r * (r + 1.0) * math.exp(
        lg(kappa + 1.0) + lg(theta + r) - lg(theta + kappa + (r + 1.0)))
    return term + r * (theta - 1.0) / (theta + r)


def _pareto_generalized_gini(p, r):
    # the Gini theta/(2 - theta) is kept exact: through log-gammas it is
    # a few ulps off, and far off relative to it at theta near 0
    if r == 1.0:
        return p.theta / (2.0 - p.theta)
    lg = specfun.log_gamma
    return math.exp(lg(2.0 + r) + lg(2.0 - p.theta) - lg(2.0 + r - p.theta)) - 1.0


def _pg_scaled_gamma(alpha, x):
    # alpha * x**alpha * Gamma(-alpha, x) * e**x, the PG index kernel
    g = specfun.upper_incomplete_gamma(-alpha, x)
    if g.value <= 0.0:
        raise ArithmeticError(f"incomplete gamma underflowed for alpha={alpha}, x={x}")
    return alpha * math.exp(alpha * math.log(x) + x + math.log(g.value))


# G_r in closed form, (params, r) -> value
_GENERALIZED_GINI_CLOSED = {
    Family.POWER: lambda p, r: r * p.theta / (1.0 + r + p.theta),
    Family.GP: lambda p, r: _gp_generalized_gini(p.theta, p.kappa, r),
    Family.PARETO: _pareto_generalized_gini,
    Family.PG: lambda p, r: r * _pg_scaled_gamma(p.alpha, (1.0 + r) * p.beta),
}


# tanh-sinh nodes on (0, 1): t runs over [-_DE_T, _DE_T] and
# u = 1 / (1 + exp(-pi sinh t)).  The smallest node, about 6e-38, puts
# pagb's 1F1 argument shift + log u only 86 below its shift, so with the
# fit's shifts (down to -200) the argument stays at or above -286,
# where _taylor_sum never rescales the Kummer series.
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


def _level_gaps(model):
    # gap(u) = 1 - K(u) on a level's nodes u, evaluated at its first
    # request and kept for the life of gap; u is one of the _DE_LEVELS
    # arrays, which live as long as the module, so its id names the level
    gaps = {}

    def gap(u):
        if id(u) not in gaps:
            gaps[id(u)] = 1.0 - evaluate(model, u)
        return gaps[id(u)]

    return gap


def _generalized_gini_quadrature(r, tol, gap):
    # integral((1-u)**(r-1) K) = 1/r - integral((1-u)**(r-1) (1 - K)); the
    # second integrand is at most (1-u)**r, because a concave K lies above
    # the diagonal, so it vanishes at u = 1 for every r > 0 and the rule
    # needs no nodes closer to 1 than its last one
    scale = r * (r + 1.0)
    value, err = _de_integrate(lambda u, c: c ** (r - 1.0) * gap(u), tol / (2.0 * scale))
    if not scale * err <= tol:
        raise ConvergenceError(
            f"generalized Gini quadrature error estimate {scale * err:.3e} "
            f"exceeds tol {tol:.3e}", r - scale * value, scale * err)
    return r - scale * value


def _generalized_gini(model, r, tol, method, gap):
    # generalized_gini, its quadrature reading 1 - K from gap
    _check_tol(tol)
    _check_r(r)
    value, tag = _dispatch(model, method, QUADRATURE, _GENERALIZED_GINI_CLOSED,
                           lambda: _generalized_gini_quadrature(r, tol, gap), r)
    return IndexValue(_range_check(value, 0.0, r, tol, "generalized gini"), tag)


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
        stays bounded for every r > 0, refined until two successive
        levels differ by less than tol; ConvergenceError if they never
        do.
    method : {"auto", "closed_form", "quadrature"}
        "auto" uses the closed form for power, gp, pareto and pg and
        quadrature otherwise.  When the closed form fails numerically at
        extreme parameters (the pg kernel underflows for very large
        alpha*beta), "auto" falls back to quadrature and tags the result
        accordingly; requesting "closed_form" explicitly raises instead.

    Returns
    -------
    IndexValue
        (value, method) with value in [0, r].
    """
    return _generalized_gini(model, r, tol, method, _level_gaps(model))


def gini(model, tol=1e-10, method="auto"):
    """Gini index of a parametric curve, 2*integral(K) - 1.

    This is generalized_gini(model, 1.0, tol, method): the same closed
    forms (power, gp, pareto, pg), the same quadrature and the same
    fallback rules.

    Returns
    -------
    IndexValue
        (value, method) with value in [0, 1].
    """
    return generalized_gini(model, 1.0, tol, method)


_GRID_POINTS = 65


def _grid_max(f, tol):
    # maximize a concave f on [0, 1]: each round evaluates f on a grid
    # over the bracket in one call and keeps the two cells around the
    # best point, until the grid spacing is within tol
    lo, hi = 0.0, 1.0
    while True:
        u = _even_grid(lo, hi, _GRID_POINTS)
        values = f(u)
        best = int(np.argmax(values))
        if hi - lo <= tol * (_GRID_POINTS - 1):
            return float(values[best]), float(u[best])
        lo, hi = float(u[max(best - 1, 0)]), float(u[min(best + 1, _GRID_POINTS - 1)])


def _power_pietra(p):
    complement = math.exp(-math.log1p(p.theta) / p.theta)
    return p.theta * complement / (1.0 + p.theta), 1.0 - complement


def _pareto_pietra(p):
    argmax = math.exp(math.log1p(-p.theta) / p.theta)
    return p.theta * argmax / (1.0 - p.theta), argmax


# the Pietra index in closed form, params -> (value, argmax)
_PIETRA_CLOSED = {Family.POWER: _power_pietra, Family.PARETO: _pareto_pietra}


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
        model, method, SEARCH, _PIETRA_CLOSED,
        lambda: _grid_max(lambda u: evaluate(model, u) - u, tol))
    return PietraValue(_range_check(value, 0.0, 1.0, tol, "pietra"), argmax, tag)


# each mixture family's mixing density constructor, and the base family
# whose exponent theta the density mixes (gp's kappa is the mixture's)
_MIXTURES = {
    Family.PG: (gamma_mixing_density, Family.POWER),
    Family.PIG: (inverse_gaussian_mixing_density, Family.POWER),
    Family.GPG: (gamma_mixing_density, Family.GP),
    Family.GPIG: (inverse_gaussian_mixing_density, Family.GP),
    Family.PAGB: (tilted_beta_mixing_density, Family.PARETO),
}


def gini_via_mixture(model, tol=1e-8):
    """Gini of a mixture family as the mixing-density average of the
    base family's Gini.

    Because the Gini functional is linear in the curve, the Gini of a
    mixture curve is the expectation of the base Gini over the mixing
    density.  This route is independent of the mixture's own closed
    form and of the direct curve quadrature, so it serves as a
    cross-check oracle.

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
    mixing_density, base = _MIXTURES[model.family]
    p = model.params

    def base_gini(theta):
        return _GENERALIZED_GINI_CLOSED[base](ParamVector(theta=theta, kappa=p.kappa), 1.0)

    if mixing_density is tilted_beta_mixing_density:
        density = mixing_density(p.alpha, p.beta, p.shift)
        value, err = quad(lambda t: base_gini(t) * density(t), 0.0, 1.0,
                          epsabs=tol / 2.0, epsrel=1e-12, limit=400)
    else:
        density = mixing_density(p.alpha, p.beta)

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
    """Full index report for a parametric curve model.

    The Gini is the r = 1 entry when 1.0 is among r_values, and is
    computed as G_1 otherwise.  Every G_r that takes the quadrature
    route, the Gini's included, reads 1 - K at the nodes of each
    tanh-sinh level from one evaluation of the level, made when an r
    first needs it; each r keeps its own sum, stop test and error
    check, so the values are those of generalized_gini and gini.
    """
    gap = _level_gaps(model)
    gen = [(float(r), _generalized_gini(model, float(r), tol, "auto", gap)) for r in r_values]
    g = dict(gen).get(1.0) or _generalized_gini(model, 1.0, tol, "auto", gap)
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


def _polygon_vertices(curve):
    # the vertices that the polygon's indices read, and the position among
    # them of the Pietra's vertex (None: the first largest K - u): the run
    # ends where empirical_curve recorded them, every vertex otherwise
    if curve._runs is None:
        return curve.u, curve.k, None
    ends, top = curve._runs
    return curve.u[ends], curve.k[ends], top


def _polygon_generalized_ginis(u, k, r_values, gini):
    # G_r of the polygon through the vertices (u, k) for each r, integrated
    # by parts in t = 1 - u: with the slope b_i = dk/dt of each segment,
    #   r(r+1) int (1-u)**(r-1) K du
    #     = sum_i b_i (t_(i+1)**(r+1) - t_i**(r+1)) + (r+1)(t_0**r k_0 - t_n**r k_n),
    # one power per vertex.  On a run of equal counts the slope is one
    # value and its terms telescope, so the vertices can be the run ends
    # alone, and the cost grows with the number of distinct counts.  The
    # slopes, shared by every r, are taken against the same rounded t as
    # the powers (against u they lose digits); G_1 is the trapezoid Gini
    t = 1.0 - u
    slopes = np.diff(k) / np.diff(t)
    values = []
    for r in r_values:
        if r == 1.0:
            values.append(gini)
            continue
        weighted = np.diff(t ** (r + 1.0))
        weighted *= slopes
        ends = (r + 1.0) * (t[0] ** r * k[0] - t[-1] ** r * k[-1])
        values.append(float(np.sum(weighted) + ends - 1.0))
    return values


def _polygon_gini(curve):
    """Gini of an empirical polygon by the trapezoid rule, which is exact
    on it, over the vertices that _polygon_vertices selects."""
    u, k, _ = _polygon_vertices(curve)
    return 2.0 * float(np.trapezoid(k, u)) - 1.0


def empirical_indices(curve, r_values=DEFAULT_R_VALUES):
    """Index report for an empirical polygon.

    For a curve from empirical_curve every index reads only the ends of
    its runs of equal counts, along which the polygon is straight, so
    the cost grows with the number of distinct counts; a curve built
    from vertex arrays reads every vertex.  The Gini is the trapezoid
    rule, exact on the polygon.  The Pietra is the largest K - u, which
    lies at a vertex, and its argmax the first such vertex: the end of
    the counts above the mean, an exact integer rule, for a curve from
    empirical_curve, else the first float maximum.  The generalized
    Gini integrates the weighted polygon by parts in closed form, which
    stays exact for r < 1, where the weight (1-u)**(r-1) is unbounded
    at u = 1: the slopes of the segments are computed once, and each r
    takes one power of 1 - u per vertex read.  Its r = 1 entry is the
    trapezoid Gini itself.

    Parameters
    ----------
    curve : EmpiricalCurve
    r_values : iterable of float
        Exponents for the generalized Gini entries.

    Returns
    -------
    IndexReport
    """
    if curve.u.size < 2:
        raise ValueError("empirical curve needs at least 2 points")
    r_values = [float(r) for r in r_values]
    for r in r_values:
        _check_r(r)
    gini_value = min(max(_polygon_gini(curve), 0.0), 1.0)

    # the first largest gap; the origin vertex has gap 0, so a polygon
    # that never rises above the diagonal reports (0, 0)
    u, k, top = _polygon_vertices(curve)
    gaps = k - u
    if top is None:
        top = int(np.argmax(gaps))

    gen = _polygon_generalized_ginis(u, k, r_values, gini_value)
    return IndexReport(
        gini=gini_value,
        generalized_gini=tuple(zip(r_values, gen)),
        pietra=float(gaps[top]),
        pietra_argmax_u=float(u[top]),
        method_tags={"gini": QUADRATURE, "generalized_gini": QUADRATURE, "pietra": SEARCH},
    )
