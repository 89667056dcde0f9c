"""Print one SHA-256 digest over the program's numeric answers.

The digest covers, bit for bit:

- each family's fit to the bundled data set with the default FitConfig
  (parameters, SSE, standard errors, converged flag, iterations and
  objective history);
- model_indices and a 4097-point evaluate on [0, 1] of each of the 15
  pinned models of the benchmark's model sweep.

Two checkouts whose digests agree give the same answers; a change meant
to be numerically neutral (a speed-up, a refactor) should leave it as
it is.  Run from the repository root:

    PYTHONPATH=src python3 scripts/answers_digest.py

It takes about as long as fitting all eight families once.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from leimkuhler.curves import Family, evaluate, make_model  # noqa: E402
from leimkuhler.empirical import empirical_curve, ingest  # noqa: E402
from leimkuhler.fit import fit  # noqa: E402
from leimkuhler.indices import model_indices  # noqa: E402
from perfbench.workloads import BUNDLED, FIXED_MODELS  # noqa: E402

GRID = np.linspace(0.0, 1.0, 4097)


def _exact(value):
    """The value with every float, numpy or not, as its hex string."""
    if isinstance(value, (tuple, list)):
        return tuple(_exact(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def answer_lines():
    """One line per answer."""
    curve = empirical_curve(ingest(ROOT / BUNDLED))
    for family in Family:
        result = fit(curve, family)
        yield repr(_exact((family.value, result.model.param_values(), result.sse,
                           result.std_errors, result.converged, result.iterations,
                           result.objective_history)))
    for family, params in FIXED_MODELS:
        model = make_model(family, **params)
        report = model_indices(model)
        yield repr(_exact((family, sorted(params.items()), report.gini,
                           report.generalized_gini, report.pietra, report.pietra_argmax_u,
                           sorted(report.method_tags.items()))))
        yield evaluate(model, GRID).tobytes().hex()


def main():
    digest = hashlib.sha256()
    for line in answer_lines():
        digest.update(line.encode("ascii") + b"\n")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
