"""Print one SHA-256 digest over the program's numeric answers.

The digest covers, bit for bit:

- each family's fit to the bundled data set with the default FitConfig
  (parameters, SSE, standard errors, converged flag, iterations and
  objective history);
- the same for each family's fit with FitConfig(multistart_count=4) to
  the sets on which the mixtures reach the families they nest: the
  bundled data, the counts (7, 3, 2, 1), power samples of 2000 (seed 1,
  theta 3) and 500 (seed 3, theta 1.5) and pg samples of 2000 (seeds 2
  and 5, alpha 0.7, beta 0.1);
- the same for the pg sample of 100000 (seed 1, alpha 0.7, beta 0.1),
  above the 2**15 points from which fit fits a thinned polygon first;
- the empirical polygon's interpolate at its knots i/n, for the bundled
  data, the counts (7, 3, 2, 1) and (2**60, 3, 1) (a total above 2**53,
  summed in Python ints) and the pg sample of 100000 (seed 1);
- model_indices and a 4097-point evaluate on [0, 1] of each of the 15
  pinned models of the benchmark's model sweep;
- model_indices of the sweep's 32 seeded draws at seed 1 (pagb shifts
  down to -30) and of the eight default-config fits to the bundled
  data (pagb at its pareto limit, shift -200);
- evaluate with grad=True, K and each derivative column, on the same
  4097 points for the 15 pinned models and the 32 seed-1 draws;
- leimkuhler_compare of each of the 1081 pairs of the sweep's 47 models,
  the 15 pinned and the 32 seed-1 draws (relation, max_gap and crossing
  points), and the five check_proposition results of the sweep, with
  their default grids and tolerance.

Two checkouts whose digests agree give the same answers; a change meant
to be numerically neutral (a speed-up, a refactor) should leave it as
it is.  Run from the repository root:

    PYTHONPATH=src python3 scripts/answers_digest.py

With --lines it prints the answer lines themselves, one per line, in
place of the digest, so that the outputs of two checkouts can be
compared with diff to name the answers that moved.

The script sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy loads.  A fit's last bits depend on
the order in which the BLAS sums, and so on its thread count; with one
thread, two people running the digest on the same checkout get the
same result.

It takes about as long as fitting all eight families twice.
"""

import argparse
import hashlib
import itertools
import os
import sys
from pathlib import Path

# one BLAS thread, as the benchmark runs: the last bits of a fit depend on
# the order in which the BLAS sums, and so on its thread count
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from leimkuhler.curves import Family, evaluate, make_model  # noqa: E402
from leimkuhler.empirical import (  # noqa: E402
    CitationDataset,
    empirical_curve,
    ingest,
    sample_synthetic,
)
from leimkuhler.fit import FitConfig, fit  # noqa: E402
from leimkuhler.indices import empirical_indices, model_indices  # noqa: E402
from leimkuhler.order import check_proposition, leimkuhler_compare  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BUNDLED,
    FIXED_MODELS,
    PROPOSITIONS,
    sweep_draws,
)

GRID = np.linspace(0.0, 1.0, 4097)
NESTED_SETS = (
    ("(7, 3, 2, 1)", lambda: CitationDataset((7, 3, 2, 1))),
    ("power-2000 seed 1", lambda: sample_synthetic("power", 2000, 1, theta=3.0)),
    ("power-500 seed 3", lambda: sample_synthetic("power", 500, 3, theta=1.5)),
    ("pg-2000 seed 2", lambda: sample_synthetic("pg", 2000, 2, alpha=0.7, beta=0.1)),
    ("pg-2000 seed 5", lambda: sample_synthetic("pg", 2000, 5, alpha=0.7, beta=0.1)),
)
LARGE_SET = ("pg-100000 seed 1", lambda: sample_synthetic("pg", 10**5, 1, alpha=0.7, beta=0.1))
INDEX_SETS = (
    ("(7, 3, 2, 1)", lambda: CitationDataset((7, 3, 2, 1))),
    LARGE_SET,
)
INDEX_R = (0.3, 0.5, 1.0, 2.0, 2.5)
POLYGON_SETS = (
    *INDEX_SETS,
    ("(2**60, 3, 1)", lambda: CitationDataset((2**60, 3, 1))),
)


def _exact(value):
    """The value with every float, numpy or not, as its hex string."""
    if isinstance(value, (tuple, list)):
        return tuple(_exact(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _index_line(label, report):
    return repr(_exact((*label, report.gini, report.generalized_gini, report.pietra,
                       report.pietra_argmax_u, sorted(report.method_tags.items()))))


def _knot_line(label, dataset):
    knots = np.arange(dataset.n + 1) / dataset.n
    return repr((label, empirical_curve(dataset).interpolate(knots).tobytes().hex()))


def _grad_line(model):
    k, columns = evaluate(model, GRID, grad=True)
    return " ".join(column.tobytes().hex() for column in (k, *columns))


def _fits(curve, config):
    return [fit(curve, family, config) for family in Family]


def _fit_lines(results, *label):
    for family, result in zip(Family, results):
        yield repr(_exact((*label, family.value, result.model.param_values(), result.sse,
                           result.std_errors, result.converged, result.iterations,
                           result.objective_history)))


def answer_lines():
    """One line per answer."""
    bundled = ingest(ROOT / BUNDLED)
    curve = empirical_curve(bundled)
    bundled_fits = _fits(curve, FitConfig())
    yield from _fit_lines(bundled_fits)
    four = FitConfig(multistart_count=4)
    yield from _fit_lines(_fits(curve, four), "bundled")
    for label, dataset in (*NESTED_SETS, LARGE_SET):
        yield from _fit_lines(_fits(empirical_curve(dataset()), four), label)
    yield _index_line(("bundled",), empirical_indices(curve, INDEX_R))
    for label, dataset in INDEX_SETS:
        yield _index_line((label,), empirical_indices(empirical_curve(dataset()), INDEX_R))
    yield _knot_line("bundled", bundled)
    for label, dataset in POLYGON_SETS:
        yield _knot_line(label, dataset())
    models = [make_model(family, **params) for family, params in FIXED_MODELS]
    for (family, params), model in zip(FIXED_MODELS, models):
        yield _index_line((family, sorted(params.items())), model_indices(model))
        yield evaluate(model, GRID).tobytes().hex()
        yield _grad_line(model)
    draws = sweep_draws(1, 4)
    draw_models = [make_model(family, **params) for family, params in draws]
    for (family, params), model in zip(draws, draw_models):
        yield _index_line(("draw", family, sorted(params.items())), model_indices(model))
        yield _grad_line(model)
    for result in bundled_fits:
        model = result.model
        yield _index_line(("bundled fit", model.family.value, *model.param_values()),
                          model_indices(model))
    for (i, a), (j, b) in itertools.combinations(enumerate(models + draw_models), 2):
        result = leimkuhler_compare(a, b)
        yield repr(_exact((i, j, result.relation.value, result.max_gap,
                           result.crossing_points)))
    for case, params, delta in PROPOSITIONS:
        yield repr(_exact((case, sorted(params.items()), delta,
                           *check_proposition(case, params, delta))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lines", action="store_true",
                        help="print each answer line instead of the digest")
    if parser.parse_args().lines:
        for line in answer_lines():
            print(line, flush=True)
        return
    digest = hashlib.sha256()
    for line in answer_lines():
        digest.update(line.encode("ascii") + b"\n")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
