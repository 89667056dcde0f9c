"""Spans around calls into the leimkuhler modules, recorded from outside.

The tracer replaces selected public functions with wrappers that record
a span (name, start, end, parent, attribute) per call.  Every reference
to an original function held by any ``leimkuhler`` module is replaced,
so calls between modules (``report`` calling ``fit.compare_models``,
``fit`` calling ``curves.evaluate``, ``curves`` calling
``specfun.kummer_1f1``) are traced as well as the benchmark's own calls.
Spans are kept in memory; ``layer_metrics`` turns the spans of one pass
into per-layer numbers.

Modules are fetched with ``importlib.import_module``: the package
attribute ``leimkuhler.fit`` is the re-exported function ``fit``, not
the module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

from workloads import CLI_COMMANDS, FAMILIES

LAYER_MODULES = ("empirical", "fit", "indices", "curves", "specfun", "order", "report", "cli")


def clock():
    """CLOCK_MONOTONIC in seconds; comparable between processes on one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["u"]))


def _fit_attr(args, kwargs, result):
    return (result.model.family.value, int(result.iterations))


def _model_indices_attr(args, kwargs, result):
    tags = result.method_tags
    n_gen = len(result.generalized_gini)
    numeric = (tags["gini"] != "closed_form") + (tags["pietra"] != "closed_form")
    numeric += n_gen * (tags["generalized_gini"] != "closed_form")
    return (args[0].family.value, int(numeric), 2 + n_gen)


# (module, function, attribute extractor)
TRACED = (
    ("empirical", "ingest", None),
    ("empirical", "descriptive_stats", None),
    ("empirical", "empirical_curve", None),
    ("empirical", "sample_synthetic", None),
    ("indices", "empirical_indices", None),
    ("indices", "model_indices", _model_indices_attr),
    ("indices", "gini", None),
    ("indices", "generalized_gini", None),
    ("indices", "pietra", None),
    ("fit", "fit", _fit_attr),
    ("fit", "compare_models", None),
    ("curves", "evaluate", _points),
    ("curves", "validate_curve", None),
    ("specfun", "kummer_1f1", None),
    ("order", "leimkuhler_compare", None),
    ("order", "check_proposition", None),
    ("report", "build_report", None),
    ("report", "render_json", None),
    ("report", "parse_report", None),
    ("report", "render_table", None),
    ("report", "export_plot_data", None),
)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, attr]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False

    def _wrap(self, name, fn, attr_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if attr_of is not None:
                    span[4] = attr_of(args, kwargs, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap the TRACED functions everywhere the leimkuhler modules refer to them."""
        importlib.import_module("leimkuhler")
        for module_name, func_name, attr_of in TRACED:
            module = importlib.import_module(f"leimkuhler.{module_name}")
            original = getattr(module, func_name)
            wrapped = self._wrap(f"{module_name}.{func_name}", original, attr_of)
            for name, loaded in list(sys.modules.items()):
                if name != "leimkuhler" and not name.startswith("leimkuhler."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapped)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name (used for ``cli.main``)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def take(self):
        """Return the spans recorded so far and start a new list."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


def dump_spans(spans, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)


def merge_spans(groups):
    """Concatenate span lists, re-basing each list's parent indices."""
    merged = []
    for spans in groups:
        offset = len(merged)
        for name, start, end, parent, attr in spans:
            merged.append([name, start, end, parent + offset if parent >= 0 else -1, attr])
    return merged


def layer_metrics(spans):
    """Per-layer numbers of one pass: inclusive times, self times and counts."""
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    def outermost(i, name):
        found = None
        for a in ancestors(i):
            if spans[a][0] == name:
                found = a
        return found

    for i, (name, _, _, _, attr) in enumerate(spans):
        module = name.split(".", 1)[0]
        add(f"{module}.self_s", dur[i] - child_time[i])
        if name == "fit.fit":
            if outermost(i, "fit.fit") is None:
                family, iterations = attr if attr else (None, 0)
                if family:
                    add(f"fit.{family}_s", dur[i])
                    add(f"fit.{family}.iterations", iterations)
        elif name == "curves.evaluate":
            add("curves.evaluate_s", dur[i])
            add("curves.evaluate_points", attr or 0)
            top_fit = outermost(i, "fit.fit")
            if top_fit is not None and spans[top_fit][4]:
                family = spans[top_fit][4][0]
                add(f"fit.{family}.evaluate_calls", 1)
                add(f"fit.{family}.evaluate_s", dur[i])
            if any(spans[a][0].startswith("indices.") for a in ancestors(i)):
                add("indices.evaluate_calls", 1)
        elif name == "indices.model_indices":
            if attr:
                family, numeric, total = attr
                add(f"indices.model_indices.{family}_s", dur[i])
                add("indices.numeric_values", numeric)
                add("indices.all_values", total)
        elif name == "specfun.kummer_1f1":
            add("specfun.kummer_1f1_calls", 1)
        elif module != "cli":
            add(f"{name}_s", dur[i])

    out = {}
    for family in FAMILIES:
        total = m.get(f"fit.{family}_s", 0.0)
        out[f"fit.{family}_s"] = total
        out[f"fit.{family}.self_s"] = total - m.get(f"fit.{family}.evaluate_s", 0.0)
        out[f"fit.{family}.evaluate_calls"] = int(m.get(f"fit.{family}.evaluate_calls", 0))
        out[f"fit.{family}.iterations"] = int(m.get(f"fit.{family}.iterations", 0))
        out[f"indices.model_indices.{family}_s"] = m.get(f"indices.model_indices.{family}_s", 0.0)
    for key in ("empirical.ingest_s", "empirical.descriptive_stats_s",
                "empirical.empirical_curve_s", "indices.empirical_indices_s",
                "indices.gini_s", "indices.generalized_gini_s", "indices.pietra_s",
                "curves.evaluate_s", "curves.validate_curve_s",
                "order.leimkuhler_compare_s", "order.check_proposition_s",
                "report.build_report_s", "report.render_json_s", "report.parse_report_s",
                "report.render_table_s", "report.export_plot_data_s"):
        out[key] = m.get(key, 0.0)
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = 0.0
    for key in ("indices.evaluate_calls", "curves.evaluate_points", "specfun.kummer_1f1_calls"):
        out[key] = int(m.get(key, 0))
    all_values = m.get("indices.all_values", 0)
    out["indices.quadrature_share"] = m.get("indices.numeric_values", 0) / all_values if all_values else 0.0
    for module in LAYER_MODULES:
        out[f"{module}.self_s"] = m.get(f"{module}.self_s", 0.0)
    return out
