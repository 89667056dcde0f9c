"""Check that the stop rules of `fit` keep the answers of the full run.

`fit` stops its starts once 3 of at least 4 agree on the best SSE within
1e-10 relative, and ends a mixture's start at its first step onto the
nested limit at the SSE of the limit family's fit, within 1e-10
relative.  This script fits all eight families twice on each set below,
once as `fit` runs and once with every start run to the solver's own
end, and compares:

- the bundled data, (7, 3, 2, 1), (5, 5, 5, 5) and (1, 0, 0, 0) with the
  default FitConfig;
- 20 seeded sample_synthetic draws of 500 per generator (power, pareto,
  pg, pig), parameters drawn from the draw's seed, with the default
  FitConfig;
- one draw of 100,000 per generator (seed 0), on which `fit` fits a
  thinned polygon first and then makes one run on the full polygon from
  that fit's answer, with the default FitConfig;
- the benchmark's smoke input, every 20th line of the bundled data, with
  FitConfig(multistart_count=2).

Above 2^15 points the second fit turns the stop rules off in the fit of
the thinned polygon as well, so the comparison covers that fit and the
one full-polygon run together.

It prints one line per set, the worst relative SSE excess of the early
stops over the full run, and every fit whose converged flag, nested
limit or failure differs.  It exits 1 when an SSE exceeds the full
run's by more than 1e-10 relative or a flag differs.  Run from the
repository root:

    PYTHONPATH=src python3 scripts/multistart_gate.py [--draws N]
        [--save PATH] [--against PATH]

It also counts the residual evaluations (calls of the fit module's
`_residuals`) of each fit as `fit` runs it, split into those on a
thinned polygon and those on the full one, and prints their totals per
family over all sets.

--save writes one JSON record per fit as `fit` runs it: the SSE, the
converged flag, the nested limit, whether standard errors are given,
the failure, if any, and the residual evaluations: in all, on the
thinned polygon and on the full one.  --against compares the fits with
records saved by another checkout (say, the parent commit): it prints
the worst relative SSE rise over those records, every change of a flag,
a nested limit, the presence of standard errors or a failure, and each
family's residual evaluations, in all, thinned and full, next to the
saved ones (n/a where the records hold none), and exits 1 when an SSE
is higher than the saved one by more than 1e-10 relative.

It sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1
before numpy loads, as a fit's last bits depend on the BLAS thread
count, so its output does not depend on the machine's cores.

It takes a few minutes, most of it in the full runs of the 100,000-point
draws.
"""

import argparse
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path
from unittest import mock

# one BLAS thread, as the benchmark runs: the last bits of a fit depend on
# the order in which the BLAS sums, and so on its thread count
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from leimkuhler.curves import Family  # noqa: E402
from leimkuhler.empirical import (  # noqa: E402
    CitationDataset,
    empirical_curve,
    ingest,
    sample_synthetic,
)
from leimkuhler.fit import FitConfig  # noqa: E402
from perfbench.workloads import BUNDLED, SMOKE_STRIDE  # noqa: E402

fit_module = importlib.import_module("leimkuhler.fit")

SSE_RTOL = 1e-10
# the residual evaluations of a record: in all, on a thinned polygon, on the full one
CALL_KEYS = ("calls", "thin_calls", "full_calls")
SAMPLE_N = 500
LARGE_N = 100_000  # above the size from which fit thins the polygon
# parameter ranges of the synthetic draws, sampled uniformly
GENERATORS = {
    "power": {"theta": (0.5, 5.0)},
    "pareto": {"theta": (0.2, 0.9)},
    "pg": {"alpha": (0.3, 3.0), "beta": (0.05, 2.0)},
    "pig": {"alpha": (0.5, 15.0), "beta": (0.2, 10.0)},
}


def draw(generator, n, seed):
    """(label, dataset) of a seeded draw, its parameters drawn from seed."""
    rng = np.random.default_rng(seed)
    params = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in GENERATORS[generator].items()}
    label = f"{generator} seed {seed} " + " ".join(
        f"{name}={value:.3g}" for name, value in params.items())
    return label, sample_synthetic(generator, n, seed, **params)


def gate_sets(draws):
    """(label, counts, config) of every set the gate covers."""
    yield "bundled", ingest(ROOT / BUNDLED), FitConfig()
    for counts in ((7, 3, 2, 1), (5, 5, 5, 5), (1, 0, 0, 0)):
        yield str(counts), CitationDataset(counts), FitConfig()
    for generator in GENERATORS:
        for seed in range(draws):
            yield *draw(generator, SAMPLE_N, seed), FitConfig()
    for generator in GENERATORS:
        label, dataset = draw(generator, LARGE_N, 0)
        yield f"{label} n={LARGE_N}", dataset, FitConfig()
    # as the benchmark writes it: every SMOKE_STRIDE-th line of the file
    lines = (ROOT / BUNDLED).read_text(encoding="utf-8").split()
    smoke = CitationDataset(tuple(map(int, lines[::SMOKE_STRIDE])))
    yield "bundled smoke", smoke, FitConfig(multistart_count=2)


def fit_all(curve, config):
    """family -> FitResult, or the failure's type and message, and
    family -> the residual evaluations of its fit, as a dict of their
    number in all, on a thinned polygon and on the full one.

    As in compare_models, each family is fitted once in a call, and the
    mixtures take the fits they nest from the same call.  Family lists
    every nested family before the mixtures that nest it, so each count
    is that of the family's own fit.
    """
    results, calls, fitted = {}, {}, {}
    residuals = fit_module._residuals
    full_size = curve.u.size - 1  # the residual points, the origin left out
    count = {}

    def counted(family, raw, points, k_emp):
        key = "full_calls" if points.size == full_size else "thin_calls"
        count[key] += 1
        return residuals(family, raw, points, k_emp)

    with mock.patch.object(fit_module, "_residuals", counted):
        for family in Family:
            count = {"thin_calls": 0, "full_calls": 0}
            try:
                results[family] = fit_module._fit_once(curve, family, config, fitted)
            except (ValueError, RuntimeError, ArithmeticError) as exc:
                results[family] = f"{type(exc).__name__}: {exc}"
            calls[family] = {"calls": count["thin_calls"] + count["full_calls"], **count}
    return results, calls


def rise(sse, reference):
    """Relative rise of an SSE over a reference SSE."""
    if reference > 0:
        return sse / reference - 1.0
    return 0.0 if sse == 0 else math.inf


def record(label, family, result, calls):
    """The saved record of one fit, as --save writes it."""
    if isinstance(result, str):
        return {"set": label, "family": family.value, "sse": None, "converged": None,
                "nested_limit": None, "std_errors": None, "failure": result, **calls}
    limit = result.nested_limit
    return {"set": label, "family": family.value, "sse": result.sse,
            "converged": result.converged, "nested_limit": limit and limit.value,
            "std_errors": result.std_errors is not None, "failure": None, **calls}


def calls_per_family(records, key):
    """family tag -> total residual evaluations of the records under key
    (calls, thin_calls or full_calls), or None where a record holds no
    such count (saved by an older script)."""
    totals = {}
    for r in records:
        calls = r.get(key)
        total = totals.get(r["family"], 0)
        totals[r["family"]] = None if calls is None or total is None else total + calls
    return totals


def compare_records(records, saved):
    """The worst relative SSE rise of records over saved, and the lines
    naming every other field that changed."""
    saved = {(r["set"], r["family"]): r for r in saved}
    worst, changes = (-math.inf, None), []
    for new in records:
        name = f"{new['set']} {new['family']}"
        old = saved.get((new["set"], new["family"]))
        if old is None:
            changes.append(f"{name}: not in the saved records")
            continue
        if new["sse"] is not None and old["sse"] is not None:
            worst = max(worst, (rise(new["sse"], old["sse"]), name), key=lambda w: w[0])
        for field in ("converged", "nested_limit", "std_errors", "failure"):
            if new[field] != old[field]:
                changes.append(f"{name}: {field} {old[field]!r} -> {new[field]!r}")
    return worst, changes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--draws", type=int, default=20,
                        help="seeded draws per generator (default 20)")
    parser.add_argument("--save", type=Path, metavar="PATH",
                        help="write one JSON record per fit as fit runs it")
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="compare the fits with records written by --save")
    args = parser.parse_args()

    worst = (-math.inf, None)
    mismatches = []
    fits = 0
    records = []
    for label, dataset, config in gate_sets(args.draws):
        curve = empirical_curve(dataset)
        start = time.perf_counter()
        early, calls = fit_all(curve, config)
        early_s = time.perf_counter() - start
        with mock.patch.object(fit_module, "_starts_agree", lambda *args: False), \
                mock.patch.object(fit_module, "_ends_at_limit", lambda *args: False):
            start = time.perf_counter()
            full, _ = fit_all(curve, config)
            full_s = time.perf_counter() - start
        set_worst = -math.inf
        for family in Family:
            a, b = early[family], full[family]
            fits += 1
            records.append(record(label, family, a, calls[family]))
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    mismatches.append(f"{label} {family.value}: {a!r} vs full {b!r}")
                continue
            value = rise(a.sse, b.sse)
            set_worst = max(set_worst, value)
            worst = max(worst, (value, f"{label} {family.value}"), key=lambda w: w[0])
            flags = (a.converged, a.nested_limit), (b.converged, b.nested_limit)
            if flags[0] != flags[1]:
                mismatches.append(f"{label} {family.value}: converged, nested_limit "
                                  f"{flags[0]} vs full {flags[1]}")
        print(f"{label}: worst excess {set_worst:+.2e}, {early_s:.2f} s vs full {full_s:.2f} s",
              flush=True)

    print(f"{fits} fits; worst relative SSE excess {worst[0]:+.3e} ({worst[1]})")
    for key in CALL_KEYS:
        totals = calls_per_family(records, key)
        print(f"residual {key.replace('_', ' ')}: {sum(totals.values())};",
              ", ".join(f"{family} {calls}" for family, calls in totals.items()))
    for line in mismatches:
        print("flag mismatch:", line)
    breach = worst[0] > SSE_RTOL or mismatches
    print("FAIL" if breach else "PASS")
    if args.save:
        args.save.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    if args.against:
        saved = json.loads(args.against.read_text())
        worst_rise, changes = compare_records(records, saved)
        print(f"against {args.against}: worst relative SSE rise "
              f"{worst_rise[0]:+.3e} ({worst_rise[1]})")
        for key in CALL_KEYS:
            totals, saved_totals = calls_per_family(records, key), calls_per_family(saved, key)
            print(f"residual {key.replace('_', ' ')} (saved):", ", ".join(
                f"{family} {calls} ({'n/a' if saved_totals.get(family) is None else saved_totals[family]})"
                for family, calls in totals.items()))
        for line in changes:
            print("changed:", line)
        against_breach = worst_rise[0] > SSE_RTOL
        print("FAIL" if against_breach else "PASS", "against the saved records")
        breach = breach or against_breach
    return 1 if breach else 0


if __name__ == "__main__":
    sys.exit(main())
