"""Pointwise comparison of Leimkuhler curves.

Two curves over the same unit interval are ordered when one lies on
or above the other everywhere; the higher curve describes the more
concentrated population.  leimkuhler_compare classifies a pair of
models as ordered, equal within tolerance, or crossing, and locates
each crossing by refining its bracket on grids of interior points,
each grid evaluated in one call per model on shared points.  Rounds
alternate between an even grid across the bracket and a grid finer
than the tolerance around the bracket's secant root (Dekker 1969;
Brent 1973, ch. 4), so a crossing takes about two rounds; each
crossing is the secant root of a bracket no wider than the
tolerance, and so within it of a sign change.  check_proposition
verifies the known monotonicity of the mixture families in their
mixing parameters: for the gamma mixture the curve rises pointwise in
the shape parameter and falls in the rate parameter, for the
inverse-Gaussian mixture it rises in both, and raising the
generalized exponent lowers it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import CurveModel, _even_grid, _grid_size, _Points, evaluate, gpg, pg, pig

__all__ = [
    "Relation",
    "DominanceResult",
    "PropositionCase",
    "PropositionCheck",
    "leimkuhler_compare",
    "check_proposition",
]

_MIN_GRID = 16
# the default grid and its points inside (0, 1), logs included: a table
# that every default compare reads, read-only so that a write raises
_GRID_SIZE = 257
_GRID = _even_grid(0.0, 1.0, _GRID_SIZE)
_GRID_POINTS = _Points(_GRID[1:-1])
for _table in (_GRID, _GRID_POINTS.u, _GRID_POINTS.log_u, _GRID_POINTS.log1m_u):
    _table.flags.writeable = False
# interior points per round of crossing refinement: an even round puts
# them at these fractions of the bracket, a secant round at these
# multiples of tol around the secant root, so that neighbours are
# closer than tol
_REFINE_POINTS = 64
_EVEN_FRACTIONS = np.arange(1, _REFINE_POINTS + 1) / (_REFINE_POINTS + 1)
_SECANT_STEPS = 0.999 * (np.arange(_REFINE_POINTS) - 0.5 * (_REFINE_POINTS - 1))
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
    crossing_points holds the u locations of sign changes, each the
    secant root of a bracket no wider than the tolerance, and is
    nonempty exactly when relation is crossing.
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


def _curve_gap(a, b, points):
    return evaluate(a, points) - evaluate(b, points)


def _secant_root(lo, hi, gap_lo, gap_hi):
    # in [lo, hi] for gaps of opposite signs, and bit for bit the same
    # when both gaps are negated
    return lo + (hi - lo) * (gap_lo / (gap_lo - gap_hi))


def _refine_crossing(a, b, lo, hi, gap_lo, gap_hi, tol):
    # the gap K_a - K_b changes sign from gap_lo at lo to gap_hi at hi.
    # Rounds alternate between even and secant grids, and each keeps the
    # first sign change.  A secant round ends the refinement when the
    # sign change falls among its points; one that misses still trims
    # the bracket.  A bracket that one even round ends gets an even one.
    # Below the spacing of floats, refinement ends at adjacent floats.
    secant = False
    while hi - lo > tol and math.nextafter(lo, hi) < hi:
        if secant and hi - lo > (_REFINE_POINTS + 1) * tol:
            u = np.minimum(np.maximum(
                _secant_root(lo, hi, gap_lo, gap_hi) + tol * _SECANT_STEPS, lo), hi)
        else:
            u = lo + (hi - lo) * _EVEN_FRACTIONS
        gap = _curve_gap(a, b, _Points(u))
        # a gap of 0 or of the other sign than gap_lo, which is never 0;
        # a NaN gap counts only after a positive gap_lo
        changed = ~(gap > 0.0) if gap_lo > 0.0 else gap >= 0.0
        first = int(changed.argmax())
        if changed[first]:
            if gap[first] == 0.0:
                return float(u[first])
            hi, gap_hi = float(u[first]), float(gap[first])
        # where no gap changed, first is 0 and the last point is the new lo
        if first > 0 or not changed[0]:
            lo, gap_lo = float(u[first - 1]), float(gap[first - 1])
        secant = not secant
    return _secant_root(lo, hi, gap_lo, gap_hi)


def leimkuhler_compare(a, b, grid_size=_GRID_SIZE, tol=1e-9):
    """Classify the pointwise order of two curve models.

    Parameters
    ----------
    a, b : CurveModel
    grid_size : int
        Number of evaluation points spanning [0, 1]; at least 16.
    tol : float
        Dead band on curve differences: gaps within tol count as
        equality.  Crossing locations are also refined to this
        u-precision, or to adjacent floats where tol is finer.

    Returns
    -------
    DominanceResult
        first_dominates when a is on or above b everywhere and above
        it somewhere beyond the dead band; second_dominates for the
        mirror case; equal when every gap is within the dead band;
        crossing otherwise, with the sign-change locations.

    Notes
    -----
    Successive grid points outside the dead band with opposite signs
    bracket a crossing.  Its bracket is refined in rounds of 64 points:
    even rounds space them evenly across it, secant rounds just under
    tol apart around its secant root, which ends the refinement when
    the sign change falls among them.  Each crossing is the secant
    root of a final bracket no wider than tol that holds a sign change,
    or a point where the gap is exactly 0, so it lies within tol of a
    sign change.

    The classification is antisymmetric: swapping the arguments swaps
    the dominance relations and preserves max_gap and the crossing
    locations, bit for bit.
    """
    if not isinstance(a, CurveModel) or not isinstance(b, CurveModel):
        raise TypeError("leimkuhler_compare expects two CurveModel values")
    grid_size = _grid_size(grid_size, _MIN_GRID)
    if not (tol > 0):
        raise ValueError("tol must be positive")

    u, points = _GRID, _GRID_POINTS
    if grid_size != _GRID_SIZE:
        u = _even_grid(0.0, 1.0, grid_size)
        points = _Points(u[1:-1])
    # K(0) = 0 and K(1) = 1 for every model: the gap is 0 at both ends
    gap = np.zeros(grid_size)
    gap[1:-1] = _curve_gap(a, b, points)
    # abs makes a zero max_gap +0.0.  max and min carry a NaN gap into
    # max_gap; the dominance test skips it, so fmax and fmin take over
    top, bottom = float(gap.max()), float(gap.min())
    max_gap = abs(max(top, -bottom))
    if math.isnan(max_gap):
        top, bottom = float(np.fmax.reduce(gap)), float(np.fmin.reduce(gap))

    above, below = top > tol, bottom < -tol
    if not above and not below:
        return DominanceResult(Relation.EQUAL, max_gap, ())
    if not below:
        return DominanceResult(Relation.FIRST_DOMINATES, max_gap, ())
    if not above:
        return DominanceResult(Relation.SECOND_DOMINATES, max_gap, ())

    # successive grid points outside the dead band with opposite signs
    # bracket a crossing
    outside = np.flatnonzero(~(np.abs(gap) <= tol))
    positive = gap[outside] > 0.0
    flips = np.flatnonzero(positive[1:] != positive[:-1])
    crossings = tuple(
        _refine_crossing(a, b, float(u[lo]), float(u[hi]), float(gap[lo]), float(gap[hi]), tol)
        for lo, hi in zip(outside[flips], outside[flips + 1]))
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
    grid_size = _grid_size(grid_size, _MIN_GRID)
    names, build, varied, direction = _CASES[prop]
    missing = set(names) - set(base_params)
    if missing:
        raise ValueError(f"base_params missing {sorted(missing)}")
    base_kwargs = {name: float(base_params[name]) for name in names}
    moved_kwargs = dict(base_kwargs)
    moved_kwargs[varied] += delta

    base = build(**base_kwargs)
    moved = build(**moved_kwargs)
    u = _even_grid(0.0, 1.0, grid_size)
    points = _Points(u)
    k_base = evaluate(base, points)
    k_moved = evaluate(moved, points)
    witness = _find_violation(u, k_base, k_moved, direction)
    return PropositionCheck(witness is None, witness)
