"""Nonlinear least-squares fitting of curve families to empirical polygons.

The objective is the sum of squared vertical gaps between the
empirical polygon vertices (i/n, s_i/s_n), i = 1..n, and the
parametric curve.  Minimization runs a damped least-squares iteration
in unconstrained coordinates: positive parameters are optimized on a
log scale, interval-bounded parameters through a logit, and the pagb
shift directly.  Each fit is restarted from a deterministic seeded
Latin-hypercube of initial points plus a method-of-moments start, and
the best final objective wins.

Model comparison uses the consistent Akaike criterion computed from
the Gaussian profile likelihood of the residuals, CAIC =
p(1 + log n) - 2 log l; lower is preferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.stats import qmc

from .curves import PARAM_NAMES, CurveModel, Family, ParamVector, evaluate
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
_LAMBDA_MAX = 1e12
_SSE_FLOOR = 1e-30


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the least-squares iteration and multistart.

    gradient_tolerance is the convergence verification threshold: a
    result is flagged converged only when the final gradient infinity
    norm is at or below it.  The iteration itself always runs to
    numerical exhaustion, so tightening this value never changes the
    estimate, only the flag.
    """

    max_iterations: int = 200
    gradient_tolerance: float = 1e-6
    step_tolerance: float = 1e-13
    multistart_count: int = 16
    seed: int = 0
    variance_divisor: str = "n_minus_p"
    caic_counts_variance: bool = False

    def __post_init__(self):
        if self.max_iterations < 1 or self.multistart_count < 1:
            raise ValueError("iteration and start counts must be at least 1")
        if not (self.gradient_tolerance > 0) or not (self.step_tolerance > 0):
            raise ValueError("tolerances must be positive")
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
    when the Jacobian at the optimum is rank deficient.  converged is
    False when the gradient criterion was not met or the optimum sits
    on a parameter-box boundary.  objective_history records the SSE of
    the accepted iterates of the winning start and never increases.
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


class ModelComparison(NamedTuple):
    """Ranked fit results plus per-family failures (family tag, message)."""

    results: tuple
    failures: tuple


# parameter transforms: positive parameters on a log scale with box
# caps, interval parameters through a scaled logit, shift directly
class _Log(NamedTuple):
    lo: float
    hi: float

    def to_raw(self, t):
        return min(max(math.exp(min(t, 700.0)), self.lo), self.hi)

    def to_t(self, raw):
        return math.log(min(max(raw, self.lo), self.hi))


class _Logit(NamedTuple):
    lo: float
    hi: float

    def to_raw(self, t):
        x = 1.0 / (1.0 + math.exp(-t)) if t > -700.0 else 0.0
        return min(max(x, self.lo), self.hi)

    def to_t(self, raw):
        x = min(max(raw, max(self.lo, 1e-15)), min(self.hi, 1.0 - 1e-16))
        return math.log(x / (1.0 - x))


class _Linear(NamedTuple):
    lo: float
    hi: float

    def to_raw(self, t):
        return min(max(t, self.lo), self.hi)

    def to_t(self, raw):
        return min(max(raw, self.lo), self.hi)


_THETA = _Log(1e-8, 1e6)
_PARETO_THETA = _Logit(1e-12, 1.0 - 1e-9)
_KAPPA = _Logit(1e-12, 1.0)
_MIX = _Log(1e-8, 1e4)
_SHIFT = _Linear(-200.0, 100.0)

_TRANSFORMS = {
    Family.POWER: (_THETA,),
    Family.GP: (_THETA, _KAPPA),
    Family.PARETO: (_PARETO_THETA,),
    Family.PG: (_MIX, _MIX),
    Family.PIG: (_MIX, _MIX),
    Family.GPG: (_KAPPA, _MIX, _MIX),
    Family.GPIG: (_KAPPA, _MIX, _MIX),
    Family.PAGB: (_MIX, _MIX, _SHIFT),
}

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


def _residuals(family, raw, u, k_emp):
    model = _make_model(family, raw)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            k = evaluate(model, u)
        except (ConvergenceError, OverflowError, ArithmeticError):
            return None
    if not np.all(np.isfinite(k)):
        return None
    return k - k_emp


def _fd_jacobian(resid, x, r0, lo, hi):
    """Finite-difference Jacobian of resid at x, where r0 = resid(x).

    Central differences, one-sided in a coordinate where a central step
    would leave [lo, hi].  None when any residual evaluation fails.
    """
    J = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = math.sqrt(_EPS) * (1.0 + abs(x[j]))
        up_ok = x[j] + h <= hi[j]
        down_ok = x[j] - h >= lo[j]
        up = x.copy()
        if up_ok and down_ok:
            down = x.copy()
            up[j] += h
            down[j] -= h
            r_up, r_down = resid(up), resid(down)
            if r_up is None or r_down is None:
                return None
            J[:, j] = (r_up - r_down) / (2.0 * h)
        else:
            step = h if up_ok else -h
            up[j] += step
            r_up = resid(up)
            if r_up is None:
                return None
            J[:, j] = (r_up - r0) / step
    return J


def _heuristic_start(family, gini_emp):
    # method-of-moments power exponent, embedded into each family
    theta0 = min(max(2.0 * gini_emp / (1.0 - gini_emp), 0.05), 1e4)
    if family is Family.POWER:
        return (theta0,)
    if family is Family.GP:
        return (theta0, 0.95)
    if family is Family.PARETO:
        return (min(max(2.0 * gini_emp / (1.0 + gini_emp), 0.02), 0.98),)
    if family is Family.PG:
        return (1.0, 1.0 / theta0)
    if family is Family.PIG:
        return (theta0, 1.0)
    if family is Family.GPG:
        return (0.7, 1.0, 1.0 / theta0)
    if family is Family.GPIG:
        return (0.7, theta0, 1.0)
    if family is Family.PAGB:
        return (1.0, 1.0, 0.0)
    raise ValueError(f"unsupported family {family!r}")


def _multistart_points(family, gini_emp, config):
    starts = [_heuristic_start(family, gini_emp)]
    extra = config.multistart_count - 1
    if extra > 0:
        box = _SAMPLING_BOX[family]
        sampler = qmc.LatinHypercube(d=len(box), seed=config.seed)
        for row in sampler.random(extra):
            point = []
            for frac, (kind, lo, hi) in zip(row, box):
                if kind == "log":
                    point.append(math.exp(math.log(lo) + frac * (math.log(hi) - math.log(lo))))
                else:
                    point.append(lo + frac * (hi - lo))
            starts.append(tuple(point))
    return starts


_NESTED_2PARAM = {Family.GPG: Family.PG, Family.GPIG: Family.PIG}


def _nested_warm_starts(family, curve, config):
    # the generalized mixtures reduce to their 2-parameter nested
    # family at the exponent bound, so that fit seeds the search
    nested = _NESTED_2PARAM[family]
    sub = replace(config, multistart_count=min(config.multistart_count, 6))
    try:
        warm = fit(curve, nested, sub)
    except (ValueError, RuntimeError, ConvergenceError, OverflowError):
        return []
    a, b = warm.model.param_values()
    return [(kap, a, b) for kap in (0.35, 0.65, 0.9, 0.999)]


class _LmOutcome(NamedTuple):
    raw: tuple
    sse: float
    history: tuple
    iterations: int
    gradient_ok: bool


def _run_lm(family, raw0, u, k_emp, config):
    transforms = _TRANSFORMS[family]
    unbounded = np.full(len(transforms), np.inf)

    def raw_of(t):
        return tuple(tr.to_raw(x) for tr, x in zip(transforms, t))

    def resid(t):
        return _residuals(family, raw_of(t), u, k_emp)

    t = np.array([tr.to_t(x) for tr, x in zip(transforms, raw0)])
    r = resid(t)
    if r is None:
        return None
    sse = float(r @ r)
    history = [sse]
    lam = 1e-3
    iterations = 0
    # iterate past the verification threshold so the estimate does not
    # depend on how loose the convergence flag is
    g_stop = min(config.gradient_tolerance, 1e-12)

    for _ in range(config.max_iterations):
        iterations += 1
        J = _fd_jacobian(resid, t, r, -unbounded, unbounded)
        moved = False
        if J is None:
            break
        g = J.T @ r
        if np.max(np.abs(g)) <= g_stop:
            break
        A = J.T @ J
        diag = np.clip(np.diag(A).copy(), 1e-12, None)
        accepted = False
        delta = None
        while lam <= _LAMBDA_MAX:
            try:
                delta = np.linalg.solve(A + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            r_new = resid(t + delta)
            if r_new is not None:
                sse_new = float(r_new @ r_new)
                if sse_new < sse:
                    t = t + delta
                    r = r_new
                    sse = sse_new
                    history.append(sse)
                    lam = max(lam / 3.0, 1e-12)
                    accepted = True
                    break
            lam *= 4.0
        if not accepted:
            break
        moved = True
        if sse <= _SSE_FLOOR:
            break
        if np.linalg.norm(delta) <= config.step_tolerance * (1.0 + np.linalg.norm(t)):
            break

    gradient_ok = sse <= _SSE_FLOOR
    if not gradient_ok:
        # J belongs to t unless the last iteration took a step
        if moved:
            J = _fd_jacobian(resid, t, r, -unbounded, unbounded)
        if J is not None:
            gradient_ok = bool(np.max(np.abs(J.T @ r)) <= config.gradient_tolerance)

    return _LmOutcome(raw_of(t), sse, tuple(history), iterations, gradient_ok)


def _near_boundary(family, raw):
    for tr, value in zip(_TRANSFORMS[family], raw):
        span = tr.hi - tr.lo
        if isinstance(tr, _Log):
            if value >= tr.hi * (1.0 - 1e-9) or value <= tr.lo * (1.0 + 1e-9):
                return True
        elif value >= tr.hi - 1e-9 * span or value <= tr.lo + 1e-9 * span:
            return True
    return False


def standard_errors(jacobian, sse, n, p, variance_divisor="n_minus_p"):
    """Parameter standard errors from the Jacobian at the optimum.

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
        Jacobian is rank deficient.
    """
    if variance_divisor not in ("n", "n_minus_p"):
        raise ValueError(f"variance_divisor must be 'n' or 'n_minus_p', "
                         f"got {variance_divisor!r}")
    divisor = n if variance_divisor == "n" else n - p
    if divisor <= 0:
        raise ValueError("variance divisor must be positive")
    J = np.asarray(jacobian, dtype=float)
    if J.ndim != 2 or J.shape[0] < J.shape[1]:
        raise ValueError("jacobian must have at least as many rows as columns")
    _, s, vt = np.linalg.svd(J, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= s[0] * max(J.shape) * _EPS * 100.0:
        return None
    sigma2 = sse / divisor
    cov_diag = (vt.T**2 / s**2).sum(axis=1) * sigma2
    return tuple(float(math.sqrt(max(c, 0.0))) for c in cov_diag)


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
    return _metrics(evaluate(model, curve.u_values()[1:]) - curve.k_values()[1:])


def fit(curve, family, config=FitConfig()):
    """Fit one curve family to an empirical polygon.

    Parameters
    ----------
    curve : EmpiricalCurve
    family : Family or str
    config : FitConfig

    Returns
    -------
    FitResult
        Best result over all starts; converged is False if no start
        met the gradient criterion or the optimum hit a parameter
        bound.

    Raises
    ------
    ValueError
        If the polygon has fewer vertices than parameters + 1.
    RuntimeError
        If every start fails to produce residuals.
    """
    family = Family(family)
    u_all, k_all = curve.u_values(), curve.k_values()
    # residuals skip the fixed origin vertex
    u, k_emp = u_all[1:], k_all[1:]
    p = len(PARAM_NAMES[family])
    if u.size < p + 1:
        raise ValueError(f"need at least {p + 1} residual points to fit "
                         f"{family.value!r}, got {u.size}")

    gini_emp = min(max(_polygon_gini(u_all, k_all), 1e-6), 1.0 - 1e-6)
    starts = _multistart_points(family, gini_emp, config)
    if family in _NESTED_2PARAM and config.multistart_count > 1:
        starts[1:1] = _nested_warm_starts(family, curve, config)
    best = None
    for start in starts:
        outcome = _run_lm(family, start, u, k_emp, config)
        if outcome is None:
            continue
        if best is None or outcome.sse < best.sse:
            best = outcome
        if best.sse <= 1e-15:
            break
    if best is None:
        raise RuntimeError(f"all fit starts failed for family {family.value!r}")

    model = _make_model(family, best.raw)
    k_fit = evaluate(model, u)
    metrics = _metrics(k_fit - k_emp)
    # standard errors in original coordinates, one-sided at a box edge
    transforms = _TRANSFORMS[family]
    zeros = np.zeros(u.size)
    J = _fd_jacobian(lambda x: _residuals(family, tuple(map(float, x)), u, zeros),
                     np.array(best.raw), k_fit,
                     np.array([tr.lo for tr in transforms]),
                     np.array([tr.hi for tr in transforms]))
    errors = None
    if J is not None:
        errors = standard_errors(J, best.sse, u.size, p,
                                 variance_divisor=config.variance_divisor)
    converged = best.gradient_ok and not _near_boundary(family, best.raw)
    return FitResult(
        model=model,
        std_errors=errors,
        sse=best.sse,
        mse=metrics.mse,
        max_abs=metrics.max_abs,
        mae=metrics.mae,
        caic=caic(best.sse, u.size, p, config.caic_counts_variance),
        converged=converged,
        iterations=best.iterations,
        objective_history=best.history,
    )


def compare_models(curve, families, config=FitConfig()):
    """Fit several families and rank them by CAIC.

    Ties break by MSE, then by fewer parameters.  Families whose fit
    raises are recorded in the failures list rather than aborting the
    comparison.

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
    for family in families:
        family = Family(family)
        try:
            results.append(fit(curve, family, config))
        except (ValueError, RuntimeError, ConvergenceError, OverflowError) as exc:
            failures.append((family.value, str(exc)))
    if not results:
        raise RuntimeError(f"all families failed: {failures}")
    results.sort(key=lambda fr: (fr.caic, fr.mse, len(fr.model.param_names())))
    return ModelComparison(tuple(results), tuple(failures))
