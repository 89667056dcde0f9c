"""Tour of the parametric Leimkuhler curve families.

Every model maps a source fraction u in [0, 1] to the fraction K(u)
of total citations held by the top u of sources.  The package ships
three base families (power, generalized power, pareto) and five
mixture families built by averaging a base curve over a mixing
density on its shape parameter (gamma, inverse-Gaussian, or tilted
beta).  This script evaluates each family, checks the defining curve
properties on a fine grid, and verifies two nesting identities and
the mixture interpretation numerically.

Run:  python3 demos/02_curve_families.py
"""

import math

import numpy as np
from scipy.integrate import quad

from leimkuhler import (
    evaluate,
    gamma_mixing_density,
    gp,
    gpg,
    gpig,
    pagb,
    pareto,
    pg,
    pig,
    power,
    validate_curve,
)

SHOWCASE = [
    (power(3.832), "single exponent, the heaviest concentration here"),
    (gp(3.832, 0.5), "adds an exponent kappa on u, lifting the low end"),
    (pareto(0.606), "heavy tail, linear-in-log form"),
    (pg(0.701, 0.102), "power curve averaged over gamma-distributed exponents"),
    (pig(9.305, 2.227), "power curve averaged over inverse-Gaussian exponents"),
    (gpg(0.554, 1.514, 0.596), "generalized power averaged over a gamma law"),
    (gpig(0.799, 10.765, 0.742), "generalized power averaged over an inverse-Gaussian law"),
    (pagb(2.0, 3.0, -5.0), "pareto curve averaged over a tilted beta law"),
]


def main():
    print("-- the eight families at a glance --")
    grid = (0.1, 0.25, 0.5, 0.9)
    header = "family   params" + " " * 34 + "".join(f"K({u})".rjust(9) for u in grid)
    print(header)
    for model, blurb in SHOWCASE:
        params = ", ".join(f"{n}={v:g}" for n, v in
                           zip(model.param_names(), model.param_values()))
        values = "".join(f"{float(evaluate(model, u)):9.4f}" for u in grid)
        print(f"{model.family.value:8s} {params:39s}{values}")
        print(f"         ({blurb})")

    print("\n-- defining properties on a 512-point grid --")
    print("every curve must start at 0, end at 1, increase, and be concave")
    for model, _ in SHOWCASE:
        report = validate_curve(model, grid_size=512)
        status = "valid" if report.is_valid else f"INVALID: {report.violations}"
        print(f"{model.family.value:8s} {status}")

    print("\n-- nesting identities --")
    u = np.linspace(0.0, 1.0, 101)
    gap = float(np.max(np.abs(evaluate(gp(2.7, 1.0), u) - evaluate(power(2.7), u))))
    print(f"gp with kappa=1 equals the power curve:       max gap {gap:.2e}")
    beta = 0.8
    interior = u[:-1]
    exponential_mix = 1.0 - (1.0 - interior) * beta / (beta - np.log1p(-interior))
    gap = float(np.max(np.abs(evaluate(pg(1.0, beta), interior) - exponential_mix)))
    print(f"pg with alpha=1 equals the exponential mix:   max gap {gap:.2e}")

    print("\n-- the mixture interpretation, checked numerically --")
    alpha, beta = 0.701, 0.102
    density = gamma_mixing_density(alpha, beta)
    closed = float(evaluate(pg(alpha, beta), 0.3))
    # the power curve 1 - (1 - u)**(1 + theta) at u = 0.3, averaged over
    # the gamma density of theta
    numeric, _ = quad(lambda theta: -math.expm1((1.0 + theta) * math.log1p(-0.3))
                      * density(theta), 0.0, math.inf, epsabs=5e-10, epsrel=1e-12, limit=400)
    print(f"pg({alpha}, {beta}) at u=0.3:    closed form {closed:.12f}")
    print(f"gamma-average of power curves:   quadrature  {numeric:.12f}")
    print(f"difference {abs(closed - numeric):.2e}: the closed form is exactly")
    print("the gamma-weighted average of power curves, evaluated stably.")


if __name__ == "__main__":
    main()
