"""Correctness checks and the quality record of each workload.

Checks run after the timed passes, on the outputs of the last pass.
Each workload's function returns (checks, quality); a check is a dict
with name, ok and detail, and a failed check counts as a failed
operation.  The quality record keeps the numbers a speed-up must not
change, next to the timings.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from workloads import FAMILIES, PROPOSITIONS, R_VALUES

SSE_RELATIVE_SLACK = 1e-10

# (family, params, expected, tolerance) from tests/test_acceptance.py
GINI_PINS = (
    ("power", {"theta": 3.832}, 0.6571, 5e-4),
    ("power", {"theta": 2.767}, 0.5804, 5e-4),
    ("pareto", {"theta": 0.645}, 0.4756, 1e-3),
    ("pareto", {"theta": 0.606}, 0.4344, 1e-3),
    ("pg", {"alpha": 0.701, "beta": 0.102}, 0.5910, 1e-3),
    ("pg", {"alpha": 0.392, "beta": 0.055}, 0.5021, 1e-3),
    ("pig", {"alpha": 9.305, "beta": 2.227}, 0.6011, 1e-3),
    ("pig", {"alpha": 14.035, "beta": 1.029}, 0.5188, 1e-3),
    ("gpg", {"kappa": 0.554, "alpha": 1.514, "beta": 0.596}, 0.6071, 1e-3),
    ("gpig", {"kappa": 0.799, "alpha": 10.765, "beta": 0.742}, 0.5165, 1e-3),
)
PIETRA_PINS = (
    ("pig", {"alpha": 9.305, "beta": 2.227}, 0.4536, 1e-3),
    ("pig", {"alpha": 14.035, "beta": 1.029}, 0.3812, 1e-3),
    ("pareto", {"theta": 0.606}, 0.3305, 1e-3),
    ("power", {"theta": 3.832}, 0.526, 2e-3),
)
G1_TOLERANCE = 1e-9
MIXTURE_TOLERANCE = 1e-8
MIXTURES = ("pg", "pig", "gpg", "gpig", "pagb")


def _check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _index_record(report):
    return {
        "gini": report.gini,
        "generalized_gini": [list(pair) for pair in report.generalized_gini],
        "pietra": report.pietra,
        "pietra_argmax_u": report.pietra_argmax_u,
        "method_tags": dict(report.method_tags),
    }


def _fit_record(result, indices=None):
    record = {
        "params": dict(zip(result.model.param_names(), result.model.param_values())),
        "sse": result.sse,
        "caic": result.caic,
        "converged": result.converged,
        "iterations": result.iterations,
    }
    if indices is not None:
        record["indices"] = _index_record(indices)
    return record


def _without_created_at(blob):
    document = json.loads(blob)
    document["metadata"].pop("created_at", None)
    return document


def report_bundled(out, spec, baseline, lk):
    report = out["report"]
    fits = {result.model.family.value: (result, indices) for result, indices in report.per_model}
    reference = baseline["reference_sse"][spec["mode"]]
    checks = [_check("all families fitted", sorted(fits) == sorted(FAMILIES),
                     f"fitted {sorted(fits)}, failures {report.metadata.get('failures')}")]
    for family in FAMILIES:
        if family in fits:
            sse = fits[family][0].sse
            limit = reference[family] * (1.0 + SSE_RELATIVE_SLACK)
            checks.append(_check(f"sse {family} no worse than seed", sse <= limit,
                                 f"sse {sse!r}, seed {reference[family]!r}"))
    checks.append(_check("parse_report(render_json(r)) round-trips",
                         _without_created_at(lk.report.render_json(out["parsed"]))
                         == _without_created_at(out["json"])))
    rows = list(csv.reader(io.StringIO(out["csv"].decode("utf-8"))))
    checks.append(_check("export_plot_data has every model column",
                         len(rows) == 258 and len(rows[0]) == 2 + 2 * len(fits),
                         f"{len(rows)} rows, {len(rows[0])} columns"))

    pagb, pareto = fits.get("pagb"), fits.get("pareto")
    quality = {
        "ranking": list(report.ranking),
        "families": {family: _fit_record(result, indices)
                     for family, (result, indices) in fits.items()},
        "empirical_indices": _index_record(report.empirical_indices),
    }
    if pagb and pareto:
        alpha, _, shift = pagb[0].model.param_values()
        quality["known_defect_pagb"] = {
            "description": "pagb nests pareto but stops at the parameter-box corner",
            "at_box_corner": alpha >= 1e4 * (1.0 - 1e-9) and shift <= -200.0 + 1e-9,
            "sse_pagb": pagb[0].sse,
            "sse_pareto": pareto[0].sse,
            "pagb_worse_than_pareto": pagb[0].sse > pareto[0].sse,
            "converged": pagb[0].converged,
        }
    return checks, quality


def large_n(out, spec, baseline, lk):
    stats, indices, result = out["stats"], out["indices"], out["fit"]
    checks = [
        _check("count total is exact", stats.total == spec["total"],
               f"{stats.total} vs {spec['total']}"),
        _check("count n", stats.n == spec["n"], f"{stats.n} vs {spec['n']}"),
        _check("empirical gini matches independent trapezoid",
               abs(indices.gini - spec["gini"]) <= 1e-9, f"{indices.gini!r} vs {spec['gini']!r}"),
        _check("power fit has finite sse", math.isfinite(result.sse), repr(result.sse)),
    ]
    quality = {
        "stats": {"n": stats.n, "total": stats.total, "mean": stats.mean,
                  "variance": stats.variance},
        "empirical_indices": _index_record(indices),
        "fit_power": _fit_record(result),
        "input_sha256": spec["sha256"],
    }
    return checks, quality


def _value(text, key):
    match = re.search(rf"^{re.escape(key)}=(\S+)", text, re.MULTILINE)
    return float(match.group(1)) if match else math.nan


def cli_cold(out, spec, baseline, lk):
    checks = [_check(f"cli {name} exit code 0", done["returncode"] == 0,
                     f"exit {done['returncode']}: {done['stderr'][-300:]}")
              for name, done in out.items()]
    stats_text = out["stats"]["stdout"]
    checks.append(_check("cli stats n and total",
                         _value(stats_text, "n") == spec["n"]
                         and _value(stats_text, "total") == spec["total"], stats_text))
    gini = _value(out["indices"]["stdout"], "gini")
    checks.append(_check("cli indices gini in [0, 1]", 0.0 <= gini <= 1.0, repr(gini)))
    model_text = out["indices_model"]["stdout"]
    checks.append(_check("cli indices --model pig holds its pins",
                         abs(_value(model_text, "gini") - 0.6011) <= 1e-3
                         and abs(_value(model_text, "pietra") - 0.4536) <= 1e-3, model_text))
    files = {name: done.get("file") for name, done in out.items()}
    sim_lines = (files["simulate"] or "").split()
    checks.append(_check("cli simulate writes n counts", len(sim_lines) == spec["simulate_n"],
                         f"{len(sim_lines)} lines"))
    try:
        fitted = json.loads(files["fit"] or "null")["per_model"][0]
        fit_ok = fitted["family"] == "power" and math.isfinite(float(fitted["sse"]))
    except (TypeError, ValueError, KeyError, IndexError):
        fitted, fit_ok = None, False
    checks.append(_check("cli fit writes a power report", fit_ok))
    header = (files["export_plot"] or "").split("\n", 1)[0]
    checks.append(_check("cli export-plot reads the models", header == "u,empirical,power,resid_power",
                         header))
    quality = {"stats": stats_text.split(), "fit_power": fitted and {
        "params": fitted["params"], "sse": fitted["sse"], "caic": fitted["caic"],
        "converged": fitted["converged"], "iterations": fitted["iterations"]}}
    return checks, quality


def _same_model(model, family, params):
    return (model.family.value == family
            and all(math.isclose(getattr(model.params, k), v) for k, v in params.items()))


def model_sweep(out, spec, baseline, lk):
    models = [lk.curves.make_model(family, **params) for family, params in spec["models"]]
    reports = out["indices"]
    checks = []
    for pins, attr in ((GINI_PINS, "gini"), (PIETRA_PINS, "pietra")):
        for family, params, expected, tol in pins:
            got = [getattr(r, attr) for m, r in zip(models, reports) if _same_model(m, family, params)]
            checks.append(_check(f"{attr} pin {family} {params}",
                                 len(got) == 1 and abs(got[0] - expected) <= tol, repr(got)))
    g1_index = R_VALUES.index(1.0)
    for model, report in zip(models, reports):
        label = f"{model.family.value} {model.param_values()}"
        g1 = report.generalized_gini[g1_index][1]
        checks.append(_check(f"G1 equals gini {label}", abs(g1 - report.gini) <= G1_TOLERANCE,
                             f"{g1!r} vs {report.gini!r}"))
        if model.family.value in MIXTURES:
            oracle = lk.indices.gini_via_mixture(model)
            checks.append(_check(f"gini matches mixture oracle {label}",
                                 abs(report.gini - oracle) <= MIXTURE_TOLERANCE,
                                 f"{report.gini!r} vs {oracle!r}"))
    for model, validity in zip(models, out["validity"]):
        checks.append(_check(f"valid curve {model.family.value} {model.param_values()}",
                             validity.is_valid, repr(validity.violations[:3])))
    for (case, _, _), outcome in zip(PROPOSITIONS, out["propositions"]):
        checks.append(_check(f"proposition {case} holds", outcome.holds, repr(outcome.witness)))

    relations = {}
    for outcome in out["relations"]:
        relations[outcome.relation.value] = relations.get(outcome.relation.value, 0) + 1
    quality = {
        "models": [{"family": m.family.value, "params": dict(zip(m.param_names(), m.param_values())),
                    **_index_record(r)} for m, r in zip(models, reports)],
        "relations": relations,
    }
    return checks, quality


CHECKS = {
    "report-bundled": report_bundled,
    "large-n": large_n,
    "cli-cold": cli_cold,
    "model-sweep": model_sweep,
}
