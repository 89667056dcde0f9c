"""Pointwise comparison of Leimkuhler curves.

Two curves over the same unit interval are ordered when one lies on
or above the other everywhere; the higher curve describes the more
concentrated population.  leimkuhler_compare classifies a pair of
models as ordered, equal within tolerance, or crossing, and locates
each crossing by refining its bracket on grids of interior points,
each grid evaluated in one call per model.  check_proposition
verifies the known monotonicity of the mixture families in their
mixing parameters: for the gamma mixture the curve rises pointwise in
the shape parameter and falls in the rate parameter, for the
inverse-Gaussian mixture it rises in both, and raising the
generalized exponent lowers it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import CurveModel, evaluate, gpg, pg, pig

__all__ = [
    "Relation",
    "DominanceResult",
    "PropositionCase",
    "PropositionCheck",
    "leimkuhler_compare",
    "check_proposition",
]

_MIN_GRID = 16
# interior points per round of crossing refinement
_REFINE_POINTS = 64
# float slack for pointwise inequalities that hold with certainty in
# exact arithmetic
_INEQ_SLACK = 1e-12


class Relation(str, enum.Enum):
    FIRST_DOMINATES = "first_dominates"
    SECOND_DOMINATES = "second_dominates"
    CROSSING = "crossing"
    EQUAL = "equal"


@dataclass(frozen=True)
class DominanceResult:
    """Outcome of comparing two curves.

    max_gap is the largest absolute vertical gap seen on the grid.
    crossing_points holds the refined u locations of sign changes and
    is nonempty exactly when relation is crossing.
    """

    relation: Relation
    max_gap: float
    crossing_points: tuple

    def __post_init__(self):
        if (self.relation is Relation.CROSSING) != bool(self.crossing_points):
            raise ValueError("crossing relation and crossing_points disagree")


class PropositionCase(str, enum.Enum):
    P3_PG_ALPHA = "P3_pg_alpha"
    P3_PG_BETA = "P3_pg_beta"
    P4_PIG_ALPHA = "P4_pig_alpha"
    P4_PIG_BETA = "P4_pig_beta"
    P5_KAPPA = "P5_kappa"


class PropositionCheck(NamedTuple):
    """holds is True when the inequality held at every grid point;
    witness is the violating (u, k_first, k_second) otherwise."""

    holds: bool
    witness: tuple | None


def _curve_gap(a, b, u):
    return evaluate(a, u) - evaluate(b, u)


def _refine_crossing(a, b, lo, hi, sign_lo, tol):
    # sign change of K_a - K_b is bracketed in (lo, hi); each round
    # evaluates _REFINE_POINTS interior points in one call per model and
    # keeps the cell of the first sign change, until the bracket is
    # within tol
    while hi - lo > tol:
        u = np.linspace(lo, hi, _REFINE_POINTS + 2)
        gap = _curve_gap(a, b, u[1:-1])
        changed = (gap == 0.0) | ((gap > 0.0) != (sign_lo > 0))
        first = int(np.argmax(changed)) if changed.any() else gap.size
        if first < gap.size and gap[first] == 0.0:
            return float(u[first + 1])
        lo, hi = float(u[first]), float(u[first + 1])
    return 0.5 * (lo + hi)


def leimkuhler_compare(a, b, grid_size=257, tol=1e-9):
    """Classify the pointwise order of two curve models.

    Parameters
    ----------
    a, b : CurveModel
    grid_size : int
        Number of evaluation points spanning [0, 1]; at least 16.
    tol : float
        Dead band on curve differences: gaps within tol count as
        equality.  Crossing locations are also refined to this
        u-precision.

    Returns
    -------
    DominanceResult
        first_dominates when a is on or above b everywhere and above
        it somewhere beyond the dead band; second_dominates for the
        mirror case; equal when every gap is within the dead band;
        crossing otherwise, with the sign-change locations.

    Notes
    -----
    The classification is antisymmetric: swapping the arguments swaps
    the dominance relations and preserves max_gap and the crossing
    locations.
    """
    if not isinstance(a, CurveModel) or not isinstance(b, CurveModel):
        raise TypeError("leimkuhler_compare expects two CurveModel values")
    if grid_size < _MIN_GRID:
        raise ValueError(f"grid_size must be at least {_MIN_GRID}, got {grid_size}")
    if not (tol > 0):
        raise ValueError("tol must be positive")

    u = np.linspace(0.0, 1.0, grid_size)
    gap = _curve_gap(a, b, u)
    max_gap = float(np.max(np.abs(gap)))

    above = gap > tol
    below = gap < -tol
    if not above.any() and not below.any():
        return DominanceResult(Relation.EQUAL, max_gap, ())
    if not below.any():
        return DominanceResult(Relation.FIRST_DOMINATES, max_gap, ())
    if not above.any():
        return DominanceResult(Relation.SECOND_DOMINATES, max_gap, ())

    # successive grid points outside the dead band with opposite signs
    # bracket a crossing
    outside = np.flatnonzero(~(np.abs(gap) <= tol))
    positive = gap[outside] > 0.0
    crossings = tuple(
        _refine_crossing(a, b, float(u[outside[i]]), float(u[outside[i + 1]]),
                         1 if positive[i] else -1, tol)
        for i in np.flatnonzero(positive[1:] != positive[:-1]))
    return DominanceResult(Relation.CROSSING, max_gap, crossings)


# each case: required parameter names, model builder, varied name,
# +1 when the curve must rise pointwise as the parameter grows
_CASES = {
    PropositionCase.P3_PG_ALPHA: (("alpha", "beta"), pg, "alpha", +1),
    PropositionCase.P3_PG_BETA: (("alpha", "beta"), pg, "beta", -1),
    PropositionCase.P4_PIG_ALPHA: (("alpha", "beta"), pig, "alpha", +1),
    PropositionCase.P4_PIG_BETA: (("alpha", "beta"), pig, "beta", +1),
    PropositionCase.P5_KAPPA: (("kappa", "alpha", "beta"), gpg, "kappa", -1),
}


def _find_violation(u, k_base, k_moved, direction, slack=_INEQ_SLACK):
    # direction +1 requires k_moved >= k_base - slack pointwise
    shortfall = direction * (k_moved - k_base)
    bad = np.nonzero(shortfall < -slack)[0]
    if bad.size == 0:
        return None
    i = int(bad[0])
    return (float(u[i]), float(k_base[i]), float(k_moved[i]))


def check_proposition(prop, base_params, delta, grid_size=257):
    """Verify pointwise monotonicity of a mixture curve in one
    parameter.

    Parameters
    ----------
    prop : PropositionCase or str
        Which parameter movement to check.
    base_params : mapping
        Parameter values of the base model, keyed by name.
    delta : float
        Positive increment applied to the varied parameter.
    grid_size : int
        Number of grid points, at least 16.

    Returns
    -------
    PropositionCheck
        holds=True with witness=None when the expected inequality held
        at every grid point; otherwise the first violating
        (u, k_base, k_moved) triple.
    """
    prop = PropositionCase(prop)
    if not (delta > 0):
        raise ValueError("delta must be positive")
    if grid_size < _MIN_GRID:
        raise ValueError(f"grid_size must be at least {_MIN_GRID}, got {grid_size}")
    names, build, varied, direction = _CASES[prop]
    missing = set(names) - set(base_params)
    if missing:
        raise ValueError(f"base_params missing {sorted(missing)}")
    base_kwargs = {name: float(base_params[name]) for name in names}
    moved_kwargs = dict(base_kwargs)
    moved_kwargs[varied] += delta

    base = build(**base_kwargs)
    moved = build(**moved_kwargs)
    u = np.linspace(0.0, 1.0, grid_size)
    k_base = evaluate(base, u)
    k_moved = evaluate(moved, u)
    witness = _find_violation(u, k_base, k_moved, direction)
    return PropositionCheck(witness is None, witness)
