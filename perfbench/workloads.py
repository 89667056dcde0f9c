"""The four benchmark workloads: inputs from a seed, warm-up and one pass.

Input generation runs in the parent process and uses numpy only, so a
change to the program cannot change the inputs.  Warm-up and pass
functions run in the worker process and reach the program only through
the module objects in ``lk`` (``lk.fit`` is the module, fetched with
``importlib.import_module``).  ``call`` counts each call into the
program as one attempted operation.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import numpy as np

WORKLOADS = ("report-bundled", "large-n", "cli-cold", "model-sweep")
FAMILIES = ("power", "gp", "pareto", "pg", "pig", "gpg", "gpig", "pagb")
BUNDLED = Path("demos") / "data" / "citations_synthetic.txt"
R_VALUES = (0.5, 1.0, 2.0)

# large-n: n counts from pg(alpha, beta), scaled and rounded half-up
LARGE_N = {"full": 1_000_000, "smoke": 20_000}
LARGE_ALPHA, LARGE_BETA, LARGE_SCALE = 0.7, 0.1, 1000.0
LARGE_FIT = {"multistart_count": 4, "seed": 0}

# report-bundled: the default FitConfig() in full mode; the smoke input
# is every SMOKE_STRIDE-th line of the bundled file
REPORT_FIT = {"full": {}, "smoke": {"multistart_count": 2}}
SMOKE_STRIDE = 20

SIMULATE_N = {"full": 1000, "smoke": 200}
CLI_COMMANDS = ("stats", "indices", "indices_model", "simulate", "fit", "export_plot")

# model-sweep: pinned models of tests/test_acceptance.py and the demo
# models of demos/02_curve_families.py (15 distinct)
FIXED_MODELS = (
    ("power", {"theta": 3.832}),
    ("power", {"theta": 2.767}),
    ("pareto", {"theta": 0.645}),
    ("pareto", {"theta": 0.606}),
    ("pg", {"alpha": 0.701, "beta": 0.102}),
    ("pg", {"alpha": 0.392, "beta": 0.055}),
    ("pig", {"alpha": 9.305, "beta": 2.227}),
    ("pig", {"alpha": 14.035, "beta": 1.029}),
    ("gpg", {"kappa": 0.554, "alpha": 1.514, "beta": 0.596}),
    ("gpig", {"kappa": 0.799, "alpha": 10.765, "beta": 0.742}),
    ("gp", {"theta": 3.832, "kappa": 0.5}),
    ("pagb", {"alpha": 2.0, "beta": 3.0, "shift": -5.0}),
    ("gp", {"theta": 2.7, "kappa": 1.0}),
    ("power", {"theta": 2.7}),
    ("pg", {"alpha": 1.0, "beta": 0.8}),
)
# parameter ranges of tests/test_curves.py::draw_model
DRAW_RANGES = {
    "power": {"theta": (0.05, 8.0)},
    "gp": {"theta": (0.05, 8.0), "kappa": (0.05, 1.0)},
    "pareto": {"theta": (0.02, 0.98)},
    "pg": {"alpha": (0.05, 5.0), "beta": (0.02, 10.0)},
    "pig": {"alpha": (0.2, 20.0), "beta": (0.1, 20.0)},
    "gpg": {"kappa": (0.05, 1.0), "alpha": (0.05, 5.0), "beta": (0.02, 10.0)},
    "gpig": {"kappa": (0.05, 1.0), "alpha": (0.2, 20.0), "beta": (0.1, 20.0)},
    "pagb": {"alpha": (0.2, 5.0), "beta": (0.2, 5.0), "shift": (-30.0, 10.0)},
}
DRAWS_PER_FAMILY = {"full": 4, "smoke": 1}
DRAW_JITTER = 0.2
SWEEP_GRID = {"full": 4097, "smoke": 257}
PROPOSITIONS = (
    ("P3_pg_alpha", {"alpha": 0.701, "beta": 0.102}, 0.5),
    ("P3_pg_beta", {"alpha": 0.701, "beta": 0.102}, 0.5),
    ("P4_pig_alpha", {"alpha": 9.305, "beta": 2.227}, 1.0),
    ("P4_pig_beta", {"alpha": 9.305, "beta": 2.227}, 1.0),
    ("P5_kappa", {"kappa": 0.554, "alpha": 1.514, "beta": 0.596}, 0.2),
)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_counts(path, counts):
    Path(path).write_text("\n".join(map(str, counts)) + "\n", encoding="utf-8")


def large_counts(seed, n):
    """n counts from pg(0.7, 0.1): u**theta with theta ~ Gamma(0.7, rate 0.1)."""
    rng = np.random.default_rng(seed)
    uniforms = rng.random(n)
    thetas = rng.gamma(shape=LARGE_ALPHA, scale=1.0 / LARGE_BETA, size=n)
    return np.floor(LARGE_SCALE * uniforms**thetas + 0.5).astype(np.int64)


def trapezoid_gini(counts):
    """Gini of the empirical polygon, computed independently of the program."""
    desc = np.sort(np.asarray(counts, dtype=np.int64))[::-1]
    k = np.concatenate(([0.0], np.cumsum(desc) / float(desc.sum())))
    return float(2.0 * np.sum((k[1:] + k[:-1]) / 2.0) / desc.size - 1.0)


def sweep_draws(seed, per_family):
    """Seeded draws per family, one near the centre of each stratum.

    Each parameter's range is cut into per_family strata.  Every stratum
    is used once, in a seeded order, at a seeded point within
    DRAW_JITTER of a stratum's width around its centre.  The pagb index
    cost grows steeply as the shift falls, so draws spread over whole
    strata would make the pass length swing from seed to seed.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for family, ranges in DRAW_RANGES.items():
        columns = {}
        for name, (lo, hi) in ranges.items():
            offsets = 0.5 + DRAW_JITTER * (rng.random(per_family) - 0.5)
            strata = rng.permutation(per_family) + offsets
            columns[name] = lo + strata * (hi - lo) / per_family
        for i in range(per_family):
            draws.append((family, {name: float(col[i]) for name, col in columns.items()}))
    return draws


def make_inputs(workload, seed, mode, root, work):
    """Write the workload's input files into work; return the input spec."""
    bundled = Path(root) / BUNDLED
    spec = {"mode": mode}
    if workload == "report-bundled":
        path = bundled
        if mode == "smoke":
            path = Path(work) / "bundled-smoke.txt"
            lines = bundled.read_text(encoding="utf-8").split()
            _write_counts(path, lines[::SMOKE_STRIDE])
        spec.update(path=str(path), sha256=sha256(path), fit=REPORT_FIT[mode])
    elif workload == "large-n":
        counts = large_counts(seed, LARGE_N[mode])
        path = Path(work) / "large-n.txt"
        _write_counts(path, counts.tolist())
        spec.update(path=str(path), sha256=sha256(path), n=int(counts.size),
                    total=sum(counts.tolist()), gini=trapezoid_gini(counts), fit=LARGE_FIT)
    elif workload == "cli-cold":
        counts = [int(c) for c in bundled.read_text(encoding="utf-8").split()]
        spec.update(path=str(bundled), sha256=sha256(bundled), n=len(counts),
                    total=sum(counts), simulate_n=SIMULATE_N[mode], seed=seed, work=str(work))
    elif workload == "model-sweep":
        models = list(FIXED_MODELS) + sweep_draws(seed, DRAWS_PER_FAMILY[mode])
        spec.update(models=models, grid=SWEEP_GRID[mode])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


# ---------------------------------------------------------------------------
# worker side


class Ops:
    """Attempted and failed operation counts of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)


def load(workload, spec, lk):
    """The part of set-up that belongs to the workload: inputs in memory."""
    if workload == "model-sweep":
        make = lk.curves.make_model
        return {"models": [make(family, **params) for family, params in spec["models"]],
                "grid": np.linspace(0.0, 1.0, spec["grid"])}
    Path(spec["path"]).read_bytes()
    return {}


def warm_up(workload, spec, lk, loaded):
    """Untimed work that lets allocators and lazy imports settle."""
    if workload == "large-n":
        lk.empirical.empirical_curve(lk.empirical.ingest(spec["path"]))
    elif workload == "model-sweep":
        for model in loaded["models"]:
            lk.curves.evaluate(model, 0.5)


def report_bundled_pass(spec, lk, loaded, ops, runner):
    call = ops.call
    dataset = call(lk.empirical.ingest, spec["path"])
    report = call(lk.report.build_report, dataset, FAMILIES, lk.fit.FitConfig(**spec["fit"]))
    blob = call(lk.report.render_json, report)
    table = call(lk.report.render_table, report)
    parsed = call(lk.report.parse_report, blob)
    curve = call(lk.empirical.empirical_curve, dataset)
    csv = call(lk.report.export_plot_data, curve, [r.model for r, _ in report.per_model])
    return {"report": report, "json": blob, "table": table, "parsed": parsed, "csv": csv}


def large_n_pass(spec, lk, loaded, ops, runner):
    call = ops.call
    dataset = call(lk.empirical.ingest, spec["path"])
    stats = call(lk.empirical.descriptive_stats, dataset)
    curve = call(lk.empirical.empirical_curve, dataset)
    indices = call(lk.indices.empirical_indices, curve, R_VALUES)
    result = call(lk.fit.fit, curve, "power", lk.fit.FitConfig(**spec["fit"]))
    csv = call(lk.report.export_plot_data, curve, [result.model])
    return {"stats": stats, "indices": indices, "fit": result, "csv": csv}


def cli_commands(spec):
    work = Path(spec["work"])
    sim, fit_json, plot = work / "sim.txt", work / "fit.json", work / "plot.csv"
    return tuple(zip(CLI_COMMANDS, (
        ["stats", spec["path"]],
        ["indices", spec["path"]],
        ["indices", "--model", "pig", "--params", "alpha=9.305,beta=2.227"],
        ["simulate", "--family", "pg", "--n", str(spec["simulate_n"]), "--seed", str(spec["seed"]),
         "--alpha", str(LARGE_ALPHA), "--beta", str(LARGE_BETA), "--out", str(sim)],
        ["fit", str(sim), "--model", "power", "--json", str(fit_json)],
        ["export-plot", str(sim), "--models-from", str(fit_json), "--out", str(plot)],
    )))


def cli_cold_pass(spec, lk, loaded, ops, runner):
    outputs = {}
    for name, argv in cli_commands(spec):
        ops.attempted += 1
        done = runner(name, argv)
        if done["returncode"] != 0:
            ops.failed += 1
        outputs[name] = done
    return outputs


def model_sweep_pass(spec, lk, loaded, ops, runner):
    call = ops.call
    models, grid = loaded["models"], loaded["grid"]
    indices, validity = [], []
    for model in models:
        indices.append(call(lk.indices.model_indices, model, R_VALUES))
        validity.append(call(lk.curves.validate_curve, model))
        call(lk.curves.evaluate, model, grid)
    relations = [call(lk.order.leimkuhler_compare, a, b)
                 for a, b in itertools.combinations(models, 2)]
    propositions = [call(lk.order.check_proposition, case, params, delta)
                    for case, params, delta in PROPOSITIONS]
    return {"indices": indices, "validity": validity, "relations": relations,
            "propositions": propositions}


PASSES = {
    "report-bundled": report_bundled_pass,
    "large-n": large_n_pass,
    "cli-cold": cli_cold_pass,
    "model-sweep": model_sweep_pass,
}

