"""Nonlinear least-squares fitting of curve families to empirical polygons.

The objective is the sum of squared vertical gaps between the
empirical polygon vertices (i/n, s_i/s_n), i = 1..n, and the
parametric curve.  Each start runs a bounded Levenberg-Marquardt
method (Moré 1978, see _run_start) inside the parameter box, with the
analytic Jacobian: curves.evaluate with grad gives K and its
derivatives from one pass over the points.  Scale parameters (theta,
alpha, beta) are fitted on a log scale, the Pareto theta and kappa as
raw values between their bounds.  pagb is searched in m =
beta/(alpha+beta) in (0, 1), lam = 1/(alpha+beta) in [1e-14, 100] and
the raw shift in [-200, 100].  The residual points are checked, and
their logs computed, once per fit; at u = 1 (and u = 0) K is fixed, so
those residuals stay out of the search.

The solver sees the Jacobian J and the residuals r only through the
Gram of [J r], reduced to a p x p R and a p-vector z (_compress; Bjorck
1996, ch. 2), so a step costs O(p^3), not O(n p^2); the SSE and the
history come from the full residuals.  The convergence test below and
the standard errors read the Gram of the winning start's last point,
R mapped into the parameters by the chain rule of _jacobian; only the
error metrics take one more, values-only, evaluation.  Their rank cut,
a singular-value ratio of 100 n eps (1.5e-10 at n = 6826), holds on R
as on J: one Gram resolves a ratio only to the square root of eps, but
below 1e-4 _compress turns J onto its eigenvectors first, so that each
singular value of R keeps its own digits, as an SVD of J gives them.

Each fit is restarted from a deterministic seeded Latin-hypercube of
initial points plus a method-of-moments start; the best final
objective wins.  The starts run in turn and stop early once one
reaches an SSE of 1e-15, or once at least 4 have produced residuals,
the nested starts below have all run, and 3 end on the best one's
minimum: within 1e-10 relative of its SSE and within 1e-6 of its end
point in every search coordinate, or at a nested limit with it.  So
FitConfig.multistart_count is an upper bound on the sampled starts.
The answer is the end point of the start with the lowest SSE.

On more than 2^15 residual points the fit starts coarse (after
Gratton, Sartenaer & Toint 2008).  It fits the thinned polygon of every
s-th residual point, s = ceil(m / 2^12) for m points, and the two end
vertices, by all the rules here and with the same config, and then
makes one run on the full polygon from that fit's answer.  The thinned
polygon has about 4,097 vertices and its minimum lies within the
rounding of the full polygon's SSE or a few steps from it, so the full
run, at s times the cost per evaluation, makes few steps.  Where the
thinned fit raises, the starts above run on the full polygon.

A fit is converged when it is exact, its SSE at most n (4 eps)^2 for n
residuals (each within the rounding of a K of at most 1), or when the
relative offset of Bates & Watts (1981) is at most 1e-3:
RO = (|Q1^T r| / sqrt p) / (|r - Q1 Q1^T r| / sqrt(m - p)) over the m
residuals inside (0, 1), where the p columns of Q1 span those of the
Jacobian J.  RO compares the part of the residuals that a step could
still remove with the part no step reaches, so it depends on neither
the scale of the data nor the number of points.  It is large where the
SSE would fall beyond an edge of the box, also where that SSE is at
rounding level (flat or single-spike data); a rank-deficient J, whose
parameters are not identified, gives no RO and reads not converged
unless the fit is exact.  Standard errors are given only for a
converged fit whose J has full rank.

The mixtures nest simpler families in the limit where the mixing law
collapses to a point mass: pagb nests pareto as lam -> 0, pg and pig
nest power as their alpha and beta grow with the mean fixed, and gpg
and gpig nest gp the same way.  alpha and beta run up to 1e14 so that
these limits lie inside the box, and with more than one start the
fits of the nested families seed further starts there.  pig's start
at the power fit and gpig's at the gp fit sit one heterogeneity step
off the point mass (_heterogeneity_step), or on it where the step
does not fit, so a mixture still reaches its limit; pg and gpg stay
on it, as the same step with a gamma law made their fits take more
residual evaluations.  A fit whose
mixing law has a squared coefficient of variation of at most 1e-12
sits at its nested limit: FitResult.nested_limit names that family,
converged is False and std_errors is None.  Given those fits, a start
ends at its first accepted step onto the nested limit with an SSE
within 1e-10 relative of the limit family's fit (the last family
nested, see _ends_at_limit).

Model comparison uses the consistent Akaike criterion computed from
the Gaussian profile likelihood of the residuals, CAIC =
p(1 + log n) - 2 log l; lower is preferred.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import PARAM_NAMES, CurveModel, Family, ParamVector, _Points, evaluate
from .empirical import EmpiricalCurve
from .indices import _polygon_gini
from .specfun import ConvergenceError

__all__ = [
    "FitConfig",
    "FitResult",
    "FitMetrics",
    "ModelComparison",
    "fit",
    "fit_metrics",
    "standard_errors",
    "caic",
    "compare_models",
]

_EPS = float(np.finfo(float).eps)
_RELATIVE_OFFSET_CUT = 1e-3  # Bates & Watts's suggested cut
# see _compress: below 1e-8 of the largest, an eigenvalue of the scaled
# Gram keeps fewer than 8 good digits; below 100 eps it is rounding
_GRAM_REFINE = 1e-8
_GRAM_CUT = 100.0 * _EPS
_RO_STOP = 1e-6  # a start ends at a relative offset this small (_run_start)
# a fit on m > _THIN_ABOVE residual points fits every s-th of them first,
# s = ceil(m / _THIN_SIZE)
_THIN_ABOVE = 2**15
_THIN_SIZE = 2**12


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the least-squares iteration and multistart.

    max_iterations sets the evaluation budget of each start: the solver
    evaluates at most max_iterations * (p + 1) points for p parameters,
    each with its Jacobian.  A start stops after a step shorter than
    step_tolerance (step_tolerance + |t|) in its search coordinates t.

    multistart_count is an upper bound on the number of sampled starts
    (see the module docstring); with more than one, a mixture adds 1 to
    5 starts at the fits of the families it nests, made with this same
    config once per family and polygon in a call of fit or compare_models.
    """

    max_iterations: int = 200
    step_tolerance: float = 1e-13
    multistart_count: int = 16
    seed: int = 0
    variance_divisor: str = "n_minus_p"
    caic_counts_variance: bool = False

    def __post_init__(self):
        if self.max_iterations < 1 or self.multistart_count < 1:
            raise ValueError("iteration and start counts must be at least 1")
        if not (self.step_tolerance > 0):
            raise ValueError("step_tolerance must be positive")
        if self.variance_divisor not in ("n", "n_minus_p"):
            raise ValueError(f"variance_divisor must be 'n' or 'n_minus_p', "
                             f"got {self.variance_divisor!r}")


class FitMetrics(NamedTuple):
    mse: float
    max_abs: float
    mae: float


@dataclass(frozen=True)
class FitResult:
    """Outcome of one family fit.

    std_errors is a tuple of per-parameter standard errors, or None
    when the fit is not converged or the Jacobian at the optimum is rank
    deficient.  converged is False at a nested limit; elsewhere it is
    True for an exact fit or a relative offset of at most 1e-3 (see the
    module docstring).
    sse is the SSE of model.  objective_history records the SSE of the
    start point and of each accepted step of the winning start, ends at
    sse and never increases; iterations counts its steps.  Above 2^15
    points both cover the one full-polygon run alone, from the thinned
    polygon's fit (see the module docstring).

    nested_limit is derived from the fitted parameters alone: the
    family a mixture has reduced to (pareto for pagb, power for pg and
    pig, gp for gpg and gpig) when the squared coefficient of variation
    of its mixing law is at most 1e-12, else None.  The model stays the
    finite mixture the search ended at; at alpha, beta near 1e14 its
    curve is within about 1e-12 of the nested family's.
    """

    model: CurveModel
    std_errors: tuple | None
    sse: float
    mse: float
    max_abs: float
    mae: float
    caic: float
    converged: bool
    iterations: int
    objective_history: tuple

    @property
    def nested_limit(self):
        """The Family this mixture fit has reduced to, or None."""
        # derived from the model, so the JSON report needs no field for it
        return _nested_limit(self.model)


class ModelComparison(NamedTuple):
    """Ranked fit results plus per-family failures (family tag, message)."""

    results: tuple
    failures: tuple


class _Bound(NamedTuple):
    lo: float
    hi: float
    log: bool  # fitted as log(value) rather than the value itself


_THETA = _Bound(1e-8, 1e6, True)
_PARETO_THETA = _Bound(1e-12, 1.0 - 1e-9, False)
_KAPPA = _Bound(1e-12, 1.0, False)
_MIX = _Bound(1e-8, 1e14, True)
_SHIFT = _Bound(-200.0, 100.0, False)

_BOUNDS = {
    Family.POWER: (_THETA,),
    Family.GP: (_THETA, _KAPPA),
    Family.PARETO: (_PARETO_THETA,),
    Family.PG: (_MIX, _MIX),
    Family.PIG: (_MIX, _MIX),
    Family.GPG: (_KAPPA, _MIX, _MIX),
    Family.GPIG: (_KAPPA, _MIX, _MIX),
    Family.PAGB: (_MIX, _MIX, _SHIFT),
}

# pagb is searched in the mean m = beta/(alpha+beta) and the spread
# lam = 1/(alpha+beta) of its mixed exponent, and the shift: lam = 0 is
# the pareto limit, a short step away on a linear scale.  The box maps
# into the alpha, beta box of _MIX.
_PAGB_SEARCH = (_Bound(1e-6, 1.0 - 1e-6, False), _Bound(1e-14, 100.0, False), _SHIFT)

# nested pairs: the fits of the families on the right seed each mixture's
# search, and the last of them is its limit as the mixing law collapses to
# a point mass (gpg and gpig are pg and pig at kappa = 1)
_NESTED = {
    Family.PAGB: (Family.PARETO,),
    Family.PG: (Family.POWER,),
    Family.PIG: (Family.POWER,),
    Family.GPG: (Family.PG, Family.GP),
    Family.GPIG: (Family.PIG, Family.GP),
}
_LIMIT_CV2 = 1e-12

# what a failed fit raises: a failure in compare_models, no nested start
_FIT_ERRORS = (ValueError, RuntimeError, OverflowError)

# the multistart stops once its starts keep landing on one minimum (after
# Boender & Rinnooy Kan 1987): see _starts_agree; _AGREE_RTOL also bounds
# the limit stop, _ends_at_limit
_AGREE_MIN_STARTS = 4
_AGREE_COUNT = 3
_AGREE_RTOL = 1e-10
_AGREE_SPREAD = 1e-6

# multistart sampling ranges; "log" ranges are sampled log-uniformly
_SAMPLING_BOX = {
    Family.POWER: (("log", 0.05, 50.0),),
    Family.GP: (("log", 0.05, 50.0), ("linear", 0.05, 0.999)),
    Family.PARETO: (("linear", 0.02, 0.98),),
    Family.PG: (("log", 0.05, 20.0), ("log", 0.02, 20.0)),
    Family.PIG: (("log", 0.2, 30.0), ("log", 0.05, 30.0)),
    Family.GPG: (("linear", 0.05, 0.999), ("log", 0.05, 20.0), ("log", 0.02, 20.0)),
    Family.GPIG: (("linear", 0.05, 0.999), ("log", 0.2, 30.0), ("log", 0.05, 30.0)),
    Family.PAGB: (("log", 0.2, 10.0), ("log", 0.2, 10.0), ("linear", -40.0, 10.0)),
}


def _make_model(family, raw):
    return CurveModel(family, ParamVector(**dict(zip(PARAM_NAMES[family], raw))))


def _mixing_cv2(model):
    """Squared coefficient of variation of a mixture's mixing law."""
    p = model.params
    if model.family in (Family.PG, Family.GPG):
        return 1.0 / p.alpha  # gamma, shape alpha
    if model.family in (Family.PIG, Family.GPIG):
        return p.alpha / p.beta  # inverse Gaussian, mean alpha, shape beta
    # beta(alpha, beta) before its tilt, which moves the mean by about the
    # shift times the variance
    return p.beta / (p.alpha * (p.alpha + p.beta + 1.0))


def _nested_limit(model):
    if model.family in _NESTED and _mixing_cv2(model) <= _LIMIT_CV2:
        return _NESTED[model.family][-1]
    return None


def _search_bounds(family):
    return _PAGB_SEARCH if family is Family.PAGB else _BOUNDS[family]


def _search_values(family, raw):
    # the searched quantities before any log: pagb's (m, lam, shift), else raw
    if family is Family.PAGB:
        alpha, beta, shift = raw
        return (beta / (alpha + beta), 1.0 / (alpha + beta), shift)
    return tuple(raw)


class _Grid:
    """The residual points u of one fit, checked and split once by
    curves._Points, and the empirical K at those inside (0, 1).

    Every start and the final evaluation share the points' logs.  At
    u = 0 and u = 1, K is fixed: those residuals are constant, their
    Jacobian rows are 0, and they stay out of the least-squares problem.
    """

    def __init__(self, u, k_emp):
        self.points = _Points(u)
        self.k = k_emp[self.points.inside]
        r_ends = self.points.k_ends - k_emp[self.points.ends]
        self.sse_ends = float(r_ends @ r_ends)
        self.firsts = {}  # start point -> its first Gram, made before its run


def _residuals(family, raw, points, k_emp):
    """Residuals of the model at raw against k_emp on points, with the
    derivative columns of K there (see curves.evaluate), or None when
    the evaluation fails or either is not finite."""
    model = _make_model(family, raw)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            r, dk = evaluate(model, points, grad=True)
        except (ConvergenceError, OverflowError, ArithmeticError):
            return None
        r -= k_emp  # K, a new array
        # a finite sum of squares rules out inf and nan; an overflow is checked again
        if math.isfinite(r @ r + sum(d @ d for d in dk)) or (
                np.isfinite(r).all() and all(np.isfinite(d).all() for d in dk)):
            return r, dk
    return None


def _log_scale(family, raw):
    # d value / d t of each search coordinate t: the value where t is its log, else 1
    return np.where(_BOXES[family][0], _search_values(family, raw), 1.0)


def _jacobian(family, raw, dk, search):
    """Residual Jacobian at raw from the derivative columns dk of
    evaluate: in search coordinates if search, else in the parameters.

    A search coordinate is its value, or the log of it; pagb's curve is
    differentiated in its search values (m, lam, shift), which map onto
    alpha and beta by the chain rule without cancelling at small lam.
    In search coordinates a single column of dk is scaled in place and
    returned as a view, as a fit may hold 10^6 points: dk then serves
    this Jacobian alone.  fit maps the R of a Gram in search coordinates
    into the parameters the same way, from its columns over _log_scale.
    """
    if search:
        J = np.array(dk).T if len(dk) > 1 else dk[0][:, np.newaxis]
        J *= _log_scale(family, raw)
        return J
    if family is Family.PAGB:
        m, lam, _ = _search_values(family, raw)
        d_m, d_lam, d_shift = dk
        # m = beta lam and lam = 1/(alpha + beta)
        dk = (-lam * (m * d_m + lam * d_lam), lam * ((1.0 - m) * d_m - lam * d_lam), d_shift)
    return np.array(dk).T


def _heuristic_start(family, gini_emp):
    # method-of-moments power exponent, embedded into each family
    theta0 = min(max(2.0 * gini_emp / (1.0 - gini_emp), 0.05), 1e4)
    return {
        Family.POWER: (theta0,),
        Family.GP: (theta0, 0.95),
        Family.PARETO: (min(max(2.0 * gini_emp / (1.0 + gini_emp), 0.02), 0.98),),
        Family.PG: (1.0, 1.0 / theta0),
        Family.PIG: (theta0, 1.0),
        Family.GPG: (0.7, 1.0, 1.0 / theta0),
        Family.GPIG: (0.7, theta0, 1.0),
        Family.PAGB: (1.0, 1.0, 0.0),
    }[family]


def _latin_hypercube(d, n, seed):
    """n seeded Latin-hypercube points in (0, 1]^d: the same draws as
    scipy.stats.qmc.LatinHypercube(d, seed=seed).random(n)."""
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - jitter) / n


def _multistart_points(family, gini_emp, config):
    starts = [_heuristic_start(family, gini_emp)]
    box = _SAMPLING_BOX[family]
    for row in _latin_hypercube(len(box), config.multistart_count - 1, config.seed):
        starts.append(tuple(
            math.exp(math.log(lo) + f * (math.log(hi) - math.log(lo))) if kind == "log"
            else lo + f * (hi - lo) for f, (kind, lo, hi) in zip(row, box)))
    return starts


def _point_mass(family, theta):
    # mixing parameters at the _MIX cap of a law collapsed onto theta
    if family in (Family.PG, Family.GPG):
        scale = _MIX.hi / max(theta, 1.0)
        return (theta * scale, scale)  # gamma with mean alpha/beta
    return (theta, _MIX.hi)  # inverse Gaussian with mean alpha


def _heterogeneity_step(family, nested, params, grid):
    """pig's or gpig's start one heterogeneity step off the point mass
    at params, the fit of nested (power or gp) on grid, or None where
    the step does not fit.

    A law of mean theta and small variance s2 mixes K into about
    K(theta) + s2/2 d2K/dtheta2 (Cox 1983).  For power and gp,
    dK/dtheta = (K - 1) log(1 - u), so d2K/dtheta2 is dK/dtheta log(1 - u),
    and s2 solves the one-column least squares r + s2/2 d2K/dtheta2 ~ 0
    on the nested fit's residuals r.  The inverse Gaussian of mean theta
    and variance s2 has shape theta^3/s2.  There is no step where s2 is
    not positive, the shape leaves the _MIX box, or the mixture's SSE is
    above the nested fit's.  The mixture's Gram there goes into
    grid.firsts, so that the start's run does not evaluate it again.
    """
    got = _residuals(nested, params, grid.points, grid.k)
    if got is None:
        return None
    r, (d_theta, *_) = got
    h = d_theta * grid.points.log1m_u
    hh = float(h @ h)
    s2 = -2.0 * float(r @ h) / hh if hh > 0.0 else 0.0
    if not s2 > 0.0:
        return None
    theta, *kappa = params
    start = (*kappa, theta, theta**3 / s2)
    if not _MIX.lo <= start[-1] <= _MIX.hi:
        return None
    first = _gram(family, _raw_of(family, _start_t(family, start)), grid)
    if first is None or first[2] > r @ r:
        return None
    grid.firsts[start] = first
    return start


def _nested_starts(family, curve, config, fitted, grid):
    """Starts at the fits of the families nested in family, taken from
    fitted or made there (see _fit_once); grid holds the fit's residual
    points."""
    starts = []
    for nested in _NESTED[family]:
        try:
            params = _fit_once(curve, nested, config, fitted).model.param_values()
        except _FIT_ERRORS:
            continue
        if nested is Family.PARETO:
            # pagb on the lam floor, its mean exponent at 1 - theta
            scale = 1.0 / _PAGB_SEARCH[1].lo
            starts.append((params[0] * scale, (1.0 - params[0]) * scale, 0.0))
        elif nested in (Family.POWER, Family.GP):
            # the gamma step raised pg's and gpg's calls: they keep the point mass
            step = family in (Family.PIG, Family.GPIG) and _heterogeneity_step(
                family, nested, params, grid)
            theta, *kappa = params
            starts.append(step or (*kappa, *_point_mass(family, theta)))
        else:
            # pg and pig are gpg and gpig on the kappa cap
            starts += [(kappa, *params) for kappa in (0.35, 0.65, 0.9, 0.999)]
    return starts


def _starts_agree(family, outcomes):
    """The multistart stop rule.

    outcomes holds the (raw, history, ...) of each start that produced
    residuals.  The rule holds once there are at least _AGREE_MIN_STARTS
    of them and _AGREE_COUNT end on the best one's minimum: their SSE
    within _AGREE_RTOL relative of the best, and their end point within
    _AGREE_SPREAD of the best one's in every search coordinate (by
    _gap), or, where the best sits at a nested limit and the mixing
    parameters are not identified, at that limit too.  The spread keeps
    starts strung along a flat valley towards a box edge, which end at
    nearly one SSE far apart, from counting as one minimum.
    """
    if len(outcomes) < _AGREE_MIN_STARTS:
        return False
    best_raw, best_history, *_ = min(outcomes, key=lambda outcome: outcome[1][-1])
    cut = best_history[-1] * (1.0 + _AGREE_RTOL)
    at_limit = _nested_limit(_make_model(family, best_raw)) is not None
    best = _search_values(family, best_raw)

    def on_best_minimum(raw):
        if at_limit:
            return _nested_limit(_make_model(family, raw)) is not None
        return all(_gap(b, x, y) <= _AGREE_SPREAD for b, x, y in zip(
            _search_bounds(family), _search_values(family, raw), best))

    return sum(history[-1] <= cut and on_best_minimum(raw)
               for raw, history, *_ in outcomes) >= _AGREE_COUNT


def _compress(J, r, turn=True):
    """The Gram of [J r] as (R, z, r^T r): R^T R = J^T J, R^T z = J^T r.

    With D the column norms of J (1 for a zero column), the scaled Gram
    D^-1 J^T J D^-1 = V L V^T gives R = L^1/2 V^T D and z = L^-1/2 V^T
    D^-1 J^T r, the components of r on an orthonormal basis of the span
    of J's columns.  Where the smallest eigenvalue is below _GRAM_REFINE
    of the largest (columns close to parallel, as along the valley to a
    nested limit), J is turned onto V first, so that the Gram of J D^-1 V
    gives each eigenvalue to its own rounding, as an SVD of J would.  z
    is 0 on eigenvalues of at most _GRAM_CUT of the largest.  Returns
    None where the Gram overflows.
    """
    a = J.T @ J
    d = np.sqrt(a.diagonal())
    if not np.isfinite(d).all():
        return None
    d[d == 0.0] = 1.0
    lam, v = np.linalg.eigh(a / (d[:, np.newaxis] * d))
    if turn and lam[0] < _GRAM_REFINE * lam[-1]:
        R, z, rr = _compress(J @ (v / d[:, np.newaxis]), r, turn=False)
        return R @ (v.T * d), z, rr
    root = np.sqrt(np.maximum(lam, 0.0))
    z = v.T @ ((J.T @ r) / d)
    z = np.divide(z, root, out=np.zeros_like(z), where=lam > _GRAM_CUT * lam[-1])
    return root[:, np.newaxis] * v.T * d, z, float(r @ r)


def _box_minimum(M, z, lam, lo, hi):
    """The minimum of |M y + z|^2 + lam |y|^2, lam > 0, on the box lo <= y
    <= hi: the best of the minima over the spans of the 3^p faces of the
    box (each coordinate free, at lo or at hi) that lie in the box.  They
    are solved together, each by QR of its 2p-row problem with the bound
    columns moved to the right-hand side, as M's small singular values
    need."""
    # each coordinate at lo (-1), free (0) or at hi (1)
    faces = np.array(list(itertools.product((-1, 0, 1), repeat=lo.size)))
    free = faces == 0
    fixed = np.where(free, 0.0, np.where(faces < 0, lo, hi))
    eye = np.eye(lo.size)
    a = np.concatenate([M * free[:, np.newaxis, :],
                        np.where(free[:, :, np.newaxis], math.sqrt(lam) * eye, eye)], axis=1)
    q, r = np.linalg.qr(a)
    b = np.concatenate([-z - fixed @ M.T, fixed], axis=1)
    y = np.linalg.solve(r, q.transpose(0, 2, 1) @ b[..., np.newaxis])[..., 0]
    y = np.where(free, y, fixed)  # the solve keeps the bounds only to rounding
    y = y[((lo <= y) & (y <= hi)).all(axis=1)]  # the corners always lie in the box
    return y[np.argmin(((y @ M.T + z) ** 2).sum(axis=1) + lam * (y * y).sum(axis=1))]


def _lm_step(M, z, radius, lo, hi):
    """The Levenberg-Marquardt step y in lo <= y <= hi for the linear
    problem |M y + z|^2, and the drop in |M y + z|^2 it gives.

    A coordinate on a bound that the gradient M^T z pushes against stays
    there.  In the others the damping lam is (100 eps)^2 of M's largest
    squared singular value, or larger where that leaves the trust region
    |y| <= radius: Newton's method on 1/|y(lam)| - 1/radius brings |y|
    within 10% of radius (Moré & Sorensen 1983).  A step that leaves the
    box is _box_minimum's at that damping, or at |M^T z| / radius where
    that leaves the trust region.
    """
    g = z @ M
    free = ~(((lo == 0.0) & (g > 0.0)) | ((hi == 0.0) & (g < 0.0)))
    y = np.zeros(lo.size)
    if free.any():
        u, sigma, wt = np.linalg.svd(M if free.all() else M[:, free], full_matrices=False)
        s = sigma * sigma
        beta = sigma * (u.T @ z)  # M^T z on the rows of wt
        lam = (100.0 * _EPS) ** 2 * s[0] or 1.0  # M = 0 has step 0 at any damping
        w = beta / (s + lam)
        for _ in range(10):
            q = math.sqrt(w @ w)
            if q <= 1.1 * radius:
                break
            lam += (q / radius - 1.0) / ((w / q) @ (w / q / (s + lam)))
            w = beta / (s + lam)
        y[free] = -(w @ wt)
        if (y < lo).any() or (y > hi).any():
            lo, hi = np.where(free, lo, 0.0), np.where(free, hi, 0.0)
            y = _box_minimum(M, z, lam, lo, hi)
            if math.sqrt(y @ y) > 1.1 * radius:  # |y| <= |M^T z| / lam on the box
                y = _box_minimum(M, z, math.sqrt(g[free] @ g[free]) / radius, lo, hi)
    my = M @ y
    return y, -float((2.0 * z + my) @ my)


def _ends_at_limit(family, raw, sse, limit_sse):
    """The limit stop rule: raw is at the nested limit of family and sse
    within _AGREE_RTOL relative of limit_sse, the SSE of the limit
    family's own fit.  Steps on move only the last digits of the SSE and
    the unidentified mixing parameters, and cannot end below that fit."""
    return (abs(sse - limit_sse) <= _AGREE_RTOL * limit_sse
            and _nested_limit(_make_model(family, raw)) is not None)


def _to_t(family, values):
    # search coordinates of searched values (_search_values): each value or its log
    return np.array([math.log(x) if b.log else x for b, x in zip(_search_bounds(family), values)])


def _box(family):
    # a family's search box as arrays (_BOXES): log mask, box in t, parameter box
    lo, hi, log = np.array(_search_bounds(family)).T
    raw_lo, raw_hi, _ = np.array(_BOUNDS[family]).T
    return log == 1.0, _to_t(family, lo), _to_t(family, hi), raw_lo, raw_hi


_BOXES = {family: _box(family) for family in Family}


def _start_t(family, raw0):
    # the search coordinates of raw0 clipped into the parameter box, then the
    # search box (np.minimum of np.maximum: np.clip's values without its overhead)
    _, t_lo, t_hi, raw_lo, raw_hi = _BOXES[family]
    t = _to_t(family, _search_values(family, np.minimum(np.maximum(raw0, raw_lo), raw_hi)))
    return np.minimum(np.maximum(t, t_lo), t_hi)


def _raw_of(family, t):
    # the parameters at search coordinates t, clipped into the parameter box
    log, _, _, raw_lo, raw_hi = _BOXES[family]
    values = np.where(log, np.exp(t), t)
    if family is Family.PAGB:
        m, lam, shift = values
        values = ((1.0 - m) / lam, m / lam, shift)
    return tuple(np.minimum(np.maximum(values, raw_lo), raw_hi).tolist())


def _gram(family, raw, grid):
    # _compress's Gram at raw on grid in search coordinates, or None where it fails
    got = _residuals(family, raw, grid.points, grid.k)
    return got and _compress(_jacobian(family, raw, got[1], search=True), got[0])


def _run_start(family, raw0, grid, config, limit_sse):
    """Bounded Levenberg-Marquardt least squares from raw0 (Moré 1978)
    on the residual points of grid.

    Returns (raw, history, gram), history being the SSE of the start
    point and of each accepted step and gram _compress's (R, z, r^T r) at
    raw in search coordinates, from which fit takes its convergence test
    and standard errors; or None when the start point has no residuals.
    A start whose point is in grid.firsts takes its first Gram from there.
    Each step is _lm_step's on the Gram of _compress, in the search
    coordinates t scaled by D, the largest column norms of J met so far;
    the trust radius starts at |D t0| and follows the ratio of each
    step's SSE drop to its predicted one.  A step that lowers the SSE is
    taken.  The start ends:

    - at a relative offset |z| / sqrt p over rho / sqrt(m - p) of at
      most _RO_STOP, m residuals, which leaves the SSE within about
      _RO_STOP^2 p / (m - p) relative of the minimum's, or where the
      drop |z|^2 a step could give is below sqrt(m) eps r^T r, the
      rounding of a sum of m squares, which the SSE cannot resolve;
    - after a step shorter than step_tolerance (step_tolerance + |t|);
    - after max_iterations (p + 1) residual evaluations;
    - given limit_sse, the SSE of the fit of family's nested limit, at
      its first accepted step that meets _ends_at_limit.
    """
    _, t_lo, t_hi, *_ = _BOXES[family]
    t = _start_t(family, raw0)
    got = grid.firsts.get(tuple(raw0)) or _gram(family, _raw_of(family, t), grid)
    if got is None:
        return None
    history = [got[2] + grid.sse_ends]
    m, p, tol = grid.k.size, t.size, config.step_tolerance
    scale = np.sqrt(np.add.reduce(got[0] * got[0], axis=0))  # as np.linalg.norm(axis=0)
    scale[scale == 0.0] = 1.0
    radius = math.sqrt((scale * t) @ (scale * t)) or 1.0
    for _ in range(config.max_iterations * (p + 1) - 1):
        R, z, rr = got
        zz = float(z @ z)
        if m > p and (m - p) * zz <= _RO_STOP**2 * p * (rr - zz) or zz <= math.sqrt(m) * _EPS * rr:
            break
        scale = np.maximum(scale, np.sqrt(np.add.reduce(R * R, axis=0)))
        lo_y, hi_y = scale * (t_lo - t), scale * (t_hi - t)
        y, drop = _lm_step(R / scale, z, radius, lo_y, hi_y)
        step = y / scale
        done = math.sqrt(step @ step) < tol * (tol + math.sqrt(t @ t))
        # a step onto a face of the box lands on its bounds exactly
        t_new = np.where(y <= lo_y, t_lo, np.where(y >= hi_y, t_hi,
                                                   np.minimum(np.maximum(t + step, t_lo), t_hi)))
        new = _gram(family, _raw_of(family, t_new), grid)
        size = math.sqrt(y @ y)
        gain = -math.inf if new is None else rr - new[2]
        if gain < 0.25 * drop:
            radius = 0.25 * size
        elif gain > 0.75 * drop and size > 0.95 * radius:
            radius *= 2.0
        if gain > 0.0:
            t, got = t_new, new
            history.append(new[2] + grid.sse_ends)
            done = done or (limit_sse is not None
                            and _ends_at_limit(family, _raw_of(family, t), history[-1], limit_sse))
        if done:
            break
    return _raw_of(family, t), tuple(history), got


def _gap(bound, value, edge):
    # distance to a bound, relative in value on a log scale, else to the span
    return abs(math.log(value / edge)) if bound.log else abs(value - edge) / (bound.hi - bound.lo)


def standard_errors(jacobian, sse, n, p, variance_divisor="n_minus_p"):
    """Parameter standard errors from the Jacobian at the optimum.

    As in fit, the Jacobian is reduced to the p x p R of its Gram (R^T R
    = J^T J, see _compress), and an SVD of R gives the rank cut and the
    covariance diagonal.

    Parameters
    ----------
    jacobian : ndarray of shape (n, p)
        Residual Jacobian in original parameter coordinates.
    sse : float
        Sum of squared residuals at the optimum.
    n, p : int
        Number of residuals and parameters.
    variance_divisor : {"n_minus_p", "n"}
        Residual variance estimate is sse divided by this quantity.

    Returns
    -------
    tuple of float, or None
        Square roots of the covariance diagonal, or None when the
        Jacobian is rank deficient: its smallest singular value at most
        100 eps times its row count times its largest.
    """
    sigma2 = _residual_variance(sse, n, p, variance_divisor)
    J = np.asarray(jacobian, dtype=float)
    if J.ndim != 2 or J.shape[0] < J.shape[1]:
        raise ValueError("jacobian must have at least as many rows as columns")
    gram = _compress(J, np.zeros(J.shape[0]))
    if gram is None:
        raise ValueError("the Gram of the jacobian must be finite")
    return _standard_errors(_reduced_svd(gram[0], J.shape[0]), sigma2)


def _residual_variance(sse, n, p, variance_divisor):
    if variance_divisor not in ("n", "n_minus_p"):
        raise ValueError(f"variance_divisor must be 'n' or 'n_minus_p', "
                         f"got {variance_divisor!r}")
    divisor = n if variance_divisor == "n" else n - p
    if divisor <= 0:
        raise ValueError("variance divisor must be positive")
    return sse / divisor


def _reduced_svd(R, m):
    """The singular values and right singular vectors of the p x p R of
    an m-row Jacobian J's Gram (_compress), which are J's, or None where
    J is rank deficient: its smallest singular value at most 100 m eps
    of its largest, within the rounding of the largest."""
    _, s, vt = np.linalg.svd(R)
    return (s, vt) if s[-1] > s[0] * max(m, s.size) * _EPS * 100.0 else None


def _standard_errors(svd, sigma2):
    if svd is None:
        return None
    s, vt = svd
    cov_diag = (vt.T**2 / s**2).sum(axis=1) * sigma2
    return tuple(float(math.sqrt(max(c, 0.0))) for c in cov_diag)


def _relative_offset(svd, z, rr, m):
    """Relative offset (Bates & Watts 1981) of m residuals r to the span
    of the p columns of their Jacobian, from its Gram (R, z, rr = r^T r)
    and _reduced_svd's svd of R: the rms of r's p components z along an
    orthonormal basis of that span over the rms of its m - p components
    across it, whose squares sum to rr - z^T z.  It is inf where the
    Jacobian is rank deficient, with no p-dimensional tangent plane to
    judge by, or where m = p leaves no room across it."""
    p, zz = z.size, float(z @ z)
    if svd is None or m == p or not rr > zz:
        return math.inf
    return math.sqrt(zz / p) / math.sqrt((rr - zz) / (m - p))


def caic(sse, n, p, count_variance_param=False):
    """Consistent Akaike information criterion of a least-squares fit.

    Uses the Gaussian profile likelihood of the residuals:
    log l = -(n/2) (log(2 pi sse/n) + 1), and the penalty
    k (1 + log n) with k the number of curve parameters, optionally
    plus one for the residual variance.

    Returns negative infinity for a perfect fit (sse = 0), which ranks
    ahead of every finite value.
    """
    if sse < 0 or n < 1 or p < 1:
        raise ValueError("need sse >= 0, n >= 1, p >= 1")
    k = p + (1 if count_variance_param else 0)
    if sse == 0.0:
        return -math.inf
    log_likelihood = -(n / 2.0) * (math.log(2.0 * math.pi * sse / n) + 1.0)
    return k * (1.0 + math.log(n)) - 2.0 * log_likelihood


def _metrics(r):
    return FitMetrics(
        mse=float(np.mean(r**2)),
        max_abs=float(np.max(np.abs(r))),
        mae=float(np.mean(np.abs(r))),
    )


def fit_metrics(curve, model):
    """MSE, maximum absolute error, and MAE of a model against the
    polygon vertices (the fixed origin vertex excluded)."""
    return _metrics(evaluate(model, curve.u[1:]) - curve.k[1:])


def fit(curve, family, config=FitConfig(), *, _fitted=None):
    """Fit one curve family to an empirical polygon.

    Parameters
    ----------
    curve : EmpiricalCurve
    family : Family or str
    config : FitConfig

    Returns
    -------
    FitResult
        The end point of the start with the lowest SSE (the module
        docstring gives the starts, their stop rules and the converged
        flag).  A mixture fits each family it nests once, with config,
        to seed its starts (gpg fits pg, which fits power, and gp).
        Above 2^15 points the thinned polygon's fit is the one start,
        and a mixture fits its limit family for the limit stop.

    Raises
    ------
    ValueError
        If the polygon has fewer vertices than parameters + 1.
    RuntimeError
        If every start fails to produce residuals.
    """
    # _fitted: the fits made so far in this call of compare_models (see _fit_once)
    family = Family(family)
    # residuals skip the fixed origin vertex
    u, k_emp = curve.u[1:], curve.k[1:]
    p = len(PARAM_NAMES[family])
    if u.size < p + 1:
        raise ValueError(f"need at least {p + 1} residual points to fit "
                         f"{family.value!r}, got {u.size}")
    grid = _Grid(u, k_emp)
    fitted = {} if _fitted is None else _fitted

    starts, nested = None, []
    if u.size > _THIN_ABOVE:
        # coarse to fine: the thinned polygon's fit is the one start
        keep = np.r_[0, 1:u.size:-(-u.size // _THIN_SIZE), u.size]
        thin = EmpiricalCurve._of(curve.u[keep], curve.k[keep])
        try:
            starts = [_fit_once(thin, family, config, fitted.setdefault("thinned", {}))
                      .model.param_values()]
        except _FIT_ERRORS:
            pass
    if starts is None:
        gini_emp = min(max(_polygon_gini(curve.u, curve.k), 1e-6), 1.0 - 1e-6)
        starts = _multistart_points(family, gini_emp, config)
        if family in _NESTED and config.multistart_count > 1:
            nested = _nested_starts(family, curve, config, fitted, grid)
            starts[1:1] = nested
    limit_sse = None
    if family in _NESTED and config.multistart_count > 1:
        try:
            limit_sse = _fit_once(curve, _NESTED[family][-1], config, fitted).sse
        except _FIT_ERRORS:
            pass
    outcomes = []  # (raw, history, gram) of each start that produced residuals
    for i, start in enumerate(starts):
        outcome = _run_start(family, start, grid, config, limit_sse)
        if outcome is None:
            continue
        outcomes.append(outcome)
        # the nested starts all run: starts seeded by one nested fit can
        # agree on a basin that another nested fit's start improves on
        if outcome[1][-1] <= 1e-15 or i >= len(nested) and _starts_agree(family, outcomes):
            break
    if not outcomes:
        raise RuntimeError(f"all fit starts failed for family {family.value!r}")

    raw, history, (R, z, rr) = min(outcomes, key=lambda outcome: outcome[1][-1])
    sse = history[-1]
    model = _make_model(family, raw)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        metrics = _metrics(evaluate(model, grid.points) - k_emp)
    converged, errors = False, None
    if _nested_limit(model) is None:
        # the winner's last Gram gives the relative offset and, with R in
        # the parameters, the rank cut and the standard errors; a nested
        # limit has neither, as its mixing parameters are not identified
        R = _jacobian(family, raw, tuple((R / _log_scale(family, raw)).T), search=False)
        svd = _reduced_svd(R, grid.k.size)
        converged = (sse <= u.size * (4.0 * _EPS) ** 2
                     or _relative_offset(svd, z, rr, grid.k.size) <= _RELATIVE_OFFSET_CUT)
        if converged:
            errors = _standard_errors(
                svd, _residual_variance(sse, u.size, p, config.variance_divisor))
    return FitResult(
        model=model,
        std_errors=errors,
        sse=sse,
        mse=metrics.mse,
        max_abs=metrics.max_abs,
        mae=metrics.mae,
        caic=caic(sse, u.size, p, config.caic_counts_variance),
        converged=converged,
        iterations=len(history) - 1,
        objective_history=history,
    )


def _fit_once(curve, family, config, fitted):
    """The fit of family to curve from fitted, a dict of the fits made
    so far in one call: made there with fit on first use, and kept with
    the error it raised, if any, which is raised again on every later
    use.  fit keeps a thinned polygon's fits in fitted["thinned"]."""
    if family not in fitted:
        try:
            # through fit, so that a wrapper of fit (perfbench's tracer) sees it
            fitted[family] = fit(curve, family, config, _fitted=fitted)
        except _FIT_ERRORS as exc:
            fitted[family] = exc
    if isinstance(fitted[family], Exception):
        raise fitted[family]
    return fitted[family]


def compare_models(curve, families, config=FitConfig()):
    """Fit several families and rank them by CAIC.

    Ties break by MSE, then by fewer parameters.  Families whose fit
    raises are recorded in the failures list rather than aborting the
    comparison.  Each family is fitted once: the fits made so far are
    handed down to the mixtures that nest them, so every result equals
    that family's own fit.

    Returns
    -------
    ModelComparison
        results: FitResult tuple sorted best first;
        failures: (family tag, message) pairs.

    Raises
    ------
    RuntimeError
        If every requested family fails.
    """
    if not families:
        raise ValueError("need at least one family")
    results = []
    failures = []
    fitted = {}
    for family in families:
        family = Family(family)
        try:
            results.append(_fit_once(curve, family, config, fitted))
        except _FIT_ERRORS as exc:
            failures.append((family.value, str(exc)))
    if not results:
        raise RuntimeError(f"all families failed: {failures}")
    results.sort(key=lambda fr: (fr.caic, fr.mse, len(fr.model.param_names())))
    return ModelComparison(tuple(results), tuple(failures))
