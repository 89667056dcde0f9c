"""Slow numeric reference constructions of Leimkuhler curves.

The tests check the library's closed forms against these: a curve from
a quantile function by adaptive quadrature, the Lorenz-to-Leimkuhler
duality, and a mixture curve as a quadrature of its base curve over
the mixing density.  They share no code with `leimkuhler.curves.evaluate`.
The fit's convergence test and standard errors, which it takes from a
p x p Gram, are checked against a thin SVD of the n x p Jacobian.
"""

import math

import numpy as np

from leimkuhler.curves import Family
from leimkuhler.specfun import ConvergenceError


def leimkuhler_from_quantile(quantile, mean, u, tol=1e-10):
    """Leimkuhler curve value from a distribution's quantile function.

    Computes K(u) = (1/mean) * integral of quantile(y) dy over
    (1-u, 1) by adaptive quadrature.

    Parameters
    ----------
    quantile : callable
        Quantile function F^{-1}(y) of the citation distribution,
        defined on (0, 1); an integrable endpoint singularity at y = 1
        is handled.
    mean : float
        Mean of the distribution; must be positive.
    u : float
        Point in [0, 1].
    tol : float
        Absolute error target for the integral.

    Returns
    -------
    float
    """
    from scipy.integrate import quad

    if not (mean > 0) or not math.isfinite(mean):
        raise ValueError(f"mean must be positive and finite, got {mean}")
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u}")
    if u == 0.0:
        return 0.0
    value, err = quad(quantile, 1.0 - u, 1.0, epsabs=tol * 0.5, epsrel=1e-12, limit=400)
    if not math.isfinite(value):
        raise ValueError("quantile integral is not finite")
    if err > tol:
        raise ConvergenceError(
            f"quantile integral error estimate {err:.3e} exceeds tol {tol:.3e}",
            value / mean,
            err / mean,
        )
    return value / mean


def lorenz_to_leimkuhler(lorenz, u):
    """Convert a Lorenz curve value to the dual Leimkuhler value,
    K(u) = 1 - L(1-u)."""
    return 1.0 - lorenz(1.0 - u)


def _base_curve_value(base_family, u, theta, kappa):
    base_family = Family(base_family)
    if base_family is Family.POWER:
        return -math.expm1((1.0 + theta) * math.log1p(-u))
    if base_family is Family.PARETO:
        return math.exp((1.0 - theta) * math.log(u))
    if base_family is Family.GP:
        if kappa is None:
            raise ValueError("GP base needs the fixed kappa argument")
        return 1.0 + math.expm1(kappa * math.log(u)) * math.exp(theta * math.log1p(-u))
    raise ValueError(f"unsupported base family {base_family!r}")


def mixture_curve_numeric(base_family, mixing_density, support, u, tol=1e-9, kappa=None):
    """Numeric mixture curve: integrate K_base(u; theta) against a
    mixing density over theta.

    This is the slow reference construction the closed-form mixture
    families are tested against.

    Parameters
    ----------
    base_family : Family or str
        One of power, gp, pareto.  GP also needs `kappa`.
    mixing_density : callable
        Density g(theta); must integrate to 1 over `support`.
    support : tuple of float
        Integration interval (lo, hi); hi may be inf.
    u : float
        Point in [0, 1].
    tol : float
        Absolute error target.
    kappa : float, optional
        Fixed kappa for a GP base curve.

    Returns
    -------
    float
    """
    from scipy.integrate import quad

    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u}")
    lo, hi = support
    norm, norm_err = quad(mixing_density, lo, hi, epsabs=tol * 0.1, epsrel=1e-12, limit=400)
    if abs(norm - 1.0) > max(10.0 * tol, 1e-8):
        raise ValueError(f"mixing density integrates to {norm!r}, not 1, over {support}")
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return 1.0

    def integrand(theta):
        return _base_curve_value(base_family, u, theta, kappa) * mixing_density(theta)

    value, err = quad(integrand, lo, hi, epsabs=tol * 0.5, epsrel=1e-12, limit=400)
    if err > tol:
        raise ConvergenceError(
            f"mixture integral error estimate {err:.3e} exceeds tol {tol:.3e}", value, err
        )
    return value


def svd_convergence_test(jacobian, r, variance):
    """Relative offset, rank decision and standard errors of a
    least-squares fit from one thin SVD of its n x p Jacobian.

    The relative offset (Bates & Watts 1981) is the rms of the p
    components of the residuals r along the left singular vectors over
    the rms of the n - p components across them, projected out of r; it
    is inf where the Jacobian is rank deficient (a singular-value ratio
    of at most 100 n eps) or n = p, or no residual lies across.  The
    standard errors are the square roots of variance times the diagonal
    of (J^T J)^-1, or None where the rank is deficient.

    Returns
    -------
    (float, bool, tuple or None)
        The offset, whether J has full rank, and the standard errors.
    """
    J, r = np.asarray(jacobian, dtype=float), np.asarray(r, dtype=float)
    n, p = J.shape
    u, s, vt = np.linalg.svd(J, full_matrices=False)
    full_rank = bool(s[-1] > s[0] * n * np.finfo(float).eps * 100.0)
    if not full_rank:
        return math.inf, False, None
    along = u.T @ r
    across = r - u @ along
    spread = math.sqrt(across @ across / (n - p)) if n > p else 0.0
    offset = math.sqrt(along @ along / p) / spread if spread > 0.0 else math.inf
    errors = tuple(float(x) for x in np.sqrt(variance * (vt.T**2 / s**2).sum(axis=1)))
    return offset, True, errors
