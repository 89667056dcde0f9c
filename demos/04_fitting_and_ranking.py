"""Fit every curve family to the bundled dataset and rank the fits.

Fitting minimizes the sum of squared gaps between the empirical
polygon and the model curve at the observed source fractions, via
the package's own bounded Levenberg-Marquardt least squares inside
the parameter box, restarted from several points.  Models are ranked
by CAIC, which penalizes parameters more strongly than plain AIC, so
a mixture family only wins when the extra flexibility pays for
itself.  The script prints the ranked table and writes the full JSON
report plus a plot-ready CSV under demos/output/.

Run:  python3 demos/04_fitting_and_ranking.py
"""

import math
from pathlib import Path

import numpy as np

from leimkuhler import FitConfig, build_report, export_plot_data, ingest, render_json, render_table
from leimkuhler.curves import Family, evaluate
from leimkuhler.empirical import empirical_curve

DATA = Path(__file__).resolve().parent / "data" / "citations_synthetic.txt"
OUTPUT = Path(__file__).resolve().parent / "output"


def relative_offset(curve, model):
    """Bates & Watts's relative offset of the fit's residuals to the span
    of its Jacobian's columns: the rms of the part a Gauss-Newton step
    could still remove over the rms of the rest.  fit reads a fit
    converged when it is at most 1e-3 (or the fit is exact)."""
    u, k = curve.u[1:], curve.k[1:]
    values, columns = evaluate(model, u, grad=True)  # at u inside (0, 1)
    J, r = np.column_stack(columns), values - k[u < 1.0]
    n, p = J.shape
    q, s, _ = np.linalg.svd(J, full_matrices=False)
    if n == p or s[-1] <= s[0] * n * np.finfo(float).eps * 100.0:
        return math.inf  # no room across J's columns, or no p-dimensional span
    along = q.T @ r
    across = r - q @ along
    return math.sqrt(along @ along / p) / math.sqrt(across @ across / (n - p))


def flag_reason(curve, result):
    """Why a fit is flagged as not converged."""
    if result.nested_limit is not None:
        # the mixing law has collapsed to a point mass
        return f"nested limit: {result.nested_limit.value}"
    return f"relative offset {relative_offset(curve, result.model):.3g} > 1e-3"


def main():
    dataset = ingest(DATA)
    families = tuple(f.value for f in Family)
    config = FitConfig(multistart_count=4, seed=0)
    print(f"fitting {len(families)} families to {dataset.label} "
          f"({dataset.n} journals)...\n")
    report = build_report(dataset, families, config)

    print(render_table(report))

    best, best_indices = report.per_model[0]
    print(f"best by CAIC: {best.model.family.value} with "
          f"gini {best_indices.gini:.4f} vs empirical "
          f"{report.empirical_indices.gini:.4f}")
    curve = empirical_curve(dataset)
    flagged = [r for r, _ in report.per_model if not r.converged]
    if flagged:
        print("flagged as not converged:")
        for result in flagged:
            print(f"  {result.model.family.value}: {flag_reason(curve, result)}")
        print("such fits stay in the ranking without standard errors; one at the")
        print("simpler family a mixture reduces to, or one whose SSE would still fall")
        print("beyond an edge of the parameter box, describes no sampling spread,")
        print("so read its estimates skeptically.")

    OUTPUT.mkdir(exist_ok=True)
    json_path = OUTPUT / "analysis_report.json"
    json_path.write_bytes(render_json(report))
    print(f"\nwrote {json_path}")

    models = [result.model for result, _ in report.per_model[:3]]
    csv_path = OUTPUT / "curves.csv"
    csv_path.write_bytes(export_plot_data(curve, models, resolution=201))
    print(f"wrote {csv_path} (empirical polygon + top three fits, 201 points)")


if __name__ == "__main__":
    main()
