"""Report assembly and serialization.

An AnalysisReport bundles everything one analysis produces: dataset
statistics, empirical indices, per-family fit results with model
indices at the fitted parameters, and the CAIC ranking.  The report
serializes to a versioned JSON document with deterministic key order
and 12-significant-digit reals, each record's fields listed once for
both directions; renders as a fixed-width text table with standard
errors beneath the estimates; and exports plot-ready CSV curves.

JSON cannot represent non-finite reals, so infinities and NaN are
written as the string markers "inf", "-inf", and "nan"; an
unavailable standard-error set is written as null.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .curves import PARAM_NAMES, Family, evaluate, make_model
from .empirical import DataError, DescriptiveStats, descriptive_stats, empirical_curve
from .fit import FitConfig, FitResult, compare_models
from .indices import DEFAULT_R_VALUES, IndexReport, empirical_indices, model_indices

__all__ = [
    "SCHEMA_VERSION",
    "AnalysisReport",
    "build_report",
    "render_json",
    "parse_report",
    "render_table",
    "export_plot_data",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AnalysisReport:
    """Complete result bundle of one dataset analysis.

    per_model pairs each FitResult with the IndexReport of its fitted
    model; ranking lists the same families best first.
    """

    dataset_stats: DescriptiveStats
    empirical_indices: IndexReport
    per_model: tuple
    ranking: tuple
    metadata: dict

    def __post_init__(self):
        fitted = sorted(result.model.family.value for result, _ in self.per_model)
        if sorted(self.ranking) != fitted:
            raise ValueError("ranking must be a permutation of the fitted families")


def _timestamp(created_at):
    # the report time as an ISO 8601 UTC string, to the second
    if created_at is None:
        epoch = os.environ.get("SOURCE_DATE_EPOCH")
        if epoch is None:
            created_at = datetime.now(timezone.utc)
        else:
            try:
                created_at = datetime.fromtimestamp(int(epoch), timezone.utc)
            except (ValueError, OverflowError, OSError):
                raise DataError(f"SOURCE_DATE_EPOCH must be an integer count of "
                                f"seconds, got {epoch!r}") from None
    elif created_at.tzinfo is None:
        raise ValueError("created_at must be a timezone-aware datetime")
    return created_at.astimezone(timezone.utc).isoformat(timespec="seconds")


def build_report(dataset, families, config=FitConfig(), r_values=DEFAULT_R_VALUES,
                 index_tol=1e-9, created_at=None):
    """Run the full analysis pipeline over a dataset.

    Fits every requested family, computes empirical and per-model
    indices, and assembles the ranked report.  Families whose fit
    fails are recorded under metadata["failures"] and left out of the
    ranking.

    metadata["created_at"] comes from `created_at`, a timezone-aware
    datetime, when given; otherwise from the SOURCE_DATE_EPOCH
    environment variable (seconds since the Unix epoch) when set, so
    that equal inputs give byte-identical JSON; otherwise from the
    clock.
    """
    timestamp = _timestamp(created_at)
    stats = descriptive_stats(dataset)
    curve = empirical_curve(dataset)
    empirical = empirical_indices(curve, r_values=r_values)
    comparison = compare_models(curve, families, config)
    per_model = tuple(
        (result, model_indices(result.model, r_values=r_values, tol=index_tol))
        for result in comparison.results
    )
    ranking = tuple(result.model.family.value for result in comparison.results)
    metadata = {
        "tool_version": __version__,
        "created_at": timestamp,
        "dataset_label": dataset.label,
        "config": dict(sorted(asdict(config).items())),
        "r_values": [float(r) for r in r_values],
        "failures": [list(pair) for pair in comparison.failures],
    }
    return AnalysisReport(stats, empirical, per_model, ranking, metadata)


def _encode_real(x):
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def _decode_real(value):
    if isinstance(value, str) and value not in ("nan", "inf", "-inf"):
        raise ValueError(f"unrecognized numeric marker {value!r}")
    return float(value)


# Each record's fields, in document order, as (key, encode, decode):
# the key names both the JSON member and the dataclass field.
_STATS_FIELDS = (
    ("n", int, int),
    ("total", int, int),
    ("min", int, int),
    ("max", int, int),
    ("mean", _encode_real, _decode_real),
    ("variance", _encode_real, _decode_real),
    ("dispersion_index", _encode_real, _decode_real),
)
_INDEX_FIELDS = (
    ("gini", _encode_real, _decode_real),
    ("generalized_gini", lambda pairs: [[_encode_real(r), _encode_real(v)] for r, v in pairs],
     lambda pairs: tuple((_decode_real(r), _decode_real(v)) for r, v in pairs)),
    ("pietra", _encode_real, _decode_real),
    ("pietra_argmax_u", _encode_real, _decode_real),
    ("method_tags", lambda tags: dict(sorted(tags.items())), dict),
)
# a fit's plain fields; its family, params, std_errors and indices are
# written out in _fit_payload and _fit_from_payload
_FIT_FIELDS = (
    ("sse", _encode_real, _decode_real),
    ("mse", _encode_real, _decode_real),
    ("max_abs", _encode_real, _decode_real),
    ("mae", _encode_real, _decode_real),
    ("caic", _encode_real, _decode_real),
    ("converged", bool, bool),
    ("iterations", int, int),
    ("objective_history", lambda values: [_encode_real(v) for v in values],
     lambda values: tuple(_decode_real(v) for v in values)),
)


def _encode(record, fields):
    return {key: encode(getattr(record, key)) for key, encode, _ in fields}


def _decode(payload, fields):
    return {key: decode(payload[key]) for key, _, decode in fields}


def _fit_payload(result, indices):
    names = result.model.param_names()
    errors = None if result.std_errors is None else {
        name: _encode_real(se) for name, se in zip(names, result.std_errors)}
    return {
        "family": result.model.family.value,
        "params": {name: _encode_real(v)
                   for name, v in zip(names, result.model.param_values())},
        "std_errors": errors,
        **_encode(result, _FIT_FIELDS),
        "indices": _encode(indices, _INDEX_FIELDS),
    }


def _fit_from_payload(payload):
    family = Family(payload["family"])
    params = {name: _decode_real(v) for name, v in payload["params"].items()}
    model = make_model(family, **params)
    errors = None if payload["std_errors"] is None else tuple(
        _decode_real(payload["std_errors"][name]) for name in PARAM_NAMES[family])
    result = FitResult(model=model, std_errors=errors, **_decode(payload, _FIT_FIELDS))
    return result, IndexReport(**_decode(payload["indices"], _INDEX_FIELDS))


def render_json(report):
    """Serialize a report to UTF-8 JSON bytes.

    Key order is fixed by construction and every real is written with
    12 significant digits, so equal reports give byte-identical
    output.
    """
    document = {
        "schema_version": SCHEMA_VERSION,
        "metadata": report.metadata,
        "dataset_stats": _encode(report.dataset_stats, _STATS_FIELDS),
        "empirical_indices": _encode(report.empirical_indices, _INDEX_FIELDS),
        "per_model": [_fit_payload(result, indices)
                      for result, indices in report.per_model],
        "ranking": list(report.ranking),
    }
    return (json.dumps(document, indent=2, allow_nan=False) + "\n").encode("utf-8")


def parse_report(data):
    """Rebuild an AnalysisReport from render_json output.

    Raises
    ------
    DataError
        On bytes that are not UTF-8, text that is not JSON, a schema
        version other than SCHEMA_VERSION, or a malformed document.
    """
    try:
        document = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"not a JSON report: {exc}") from None
    if not isinstance(document, dict):
        raise DataError(f"a report is a JSON object, got {type(document).__name__}")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(f"unsupported schema version {version!r}, "
                        f"expected {SCHEMA_VERSION}")
    try:
        stats = DescriptiveStats(**_decode(document["dataset_stats"], _STATS_FIELDS))
        per_model = tuple(_fit_from_payload(entry) for entry in document["per_model"])
        return AnalysisReport(
            dataset_stats=stats,
            empirical_indices=IndexReport(**_decode(document["empirical_indices"],
                                                    _INDEX_FIELDS)),
            per_model=per_model,
            ranking=tuple(document["ranking"]),
            metadata=document["metadata"],
        )
    # ValueError: a bad real marker, or values that a record's own checks reject
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"malformed report: {type(exc).__name__} {exc}") from None


# render_table's metric columns: header, width, and the cell of one
# (FitResult, IndexReport) pair
_METRIC_COLUMNS = (
    ("MSE", 10, lambda result, indices: format(result.mse, ".3e")),
    ("MAX", 10, lambda result, indices: format(result.max_abs, ".3e")),
    ("MAE", 10, lambda result, indices: format(result.mae, ".3e")),
    ("CAIC", 12, lambda result, indices: format(result.caic, ".2f")),
    ("Gini", 8, lambda result, indices: format(indices.gini, ".4f")),
    ("Pietra", 8, lambda result, indices: format(indices.pietra, ".4f")),
)


def render_table(report):
    """Fixed-width text table of the ranked fits.

    One row per model carries the parameter estimates and the error
    metrics; the row beneath repeats the standard errors in
    parentheses, or names the nested limit a mixture fit has reached.
    A short dataset header precedes the table.
    """
    stats = report.dataset_stats
    empirical = report.empirical_indices
    lines = [
        f"dataset: {report.metadata.get('dataset_label', '')}  "
        f"n={stats.n}  total={stats.total}  mean={stats.mean:.2f}  "
        f"dispersion={stats.dispersion_index:.2f}",
        f"empirical: gini={empirical.gini:.4f}  pietra={empirical.pietra:.4f}",
        "",
    ]

    ordered = list(report.per_model)
    max_params = max((len(r.model.param_names()) for r, _ in ordered), default=1)
    est_rows, err_rows = [], []
    for result, _ in ordered:
        names = result.model.param_names()
        cells = [f"{name}={value:.6g}"
                 for name, value in zip(names, result.model.param_values())]
        if result.std_errors is not None:
            errs = [f"({se:.3g})" for se in result.std_errors]
        elif result.nested_limit is not None:
            errs = [f"(nested limit: {result.nested_limit.value})"]
        else:
            errs = ["(unavailable)"] * len(names)
        cells += [""] * (max_params - len(cells))
        errs += [""] * (max_params - len(errs))
        est_rows.append(cells)
        err_rows.append(errs)

    fam_width = max([len("family")] + [len(r.model.family.value) for r, _ in ordered])
    param_widths = [
        max([len("parameters") if j == 0 else 0]
            + [len(row[j]) for row in est_rows]
            + [len(row[j]) for row in err_rows])
        for j in range(max_params)
    ]

    def format_row(family, params, metrics):
        cells = [family.ljust(fam_width)]
        cells += [params[j].ljust(param_widths[j]) for j in range(max_params)]
        cells += [m.rjust(width) for m, (_, width, _) in zip(metrics, _METRIC_COLUMNS)]
        return "  ".join(cells).rstrip()

    header = format_row("family", ["parameters"] + [""] * (max_params - 1),
                        [name for name, _, _ in _METRIC_COLUMNS])
    lines += [header, "-" * len(header)]
    for (result, indices), cells, errs in zip(ordered, est_rows, err_rows):
        metrics = [cell(result, indices) for _, _, cell in _METRIC_COLUMNS]
        lines.append(format_row(result.model.family.value, cells, metrics))
        lines.append(format_row("", errs, ()))
    return "\n".join(lines) + "\n"


def _model_column_names(models):
    names = []
    seen = {}
    for model in models:
        tag = model.family.value
        seen[tag] = seen.get(tag, 0) + 1
        names.append(tag if seen[tag] == 1 else f"{tag}_{seen[tag]}")
    return names


def export_plot_data(curve, models, resolution=257):
    """CSV bytes with the empirical polygon and fitted curves.

    Columns: u, empirical, one K column per model named by family tag
    (deduplicated with _2, _3 suffixes), then one residual column
    (empirical minus fitted) per model.  The empirical column
    interpolates the polygon and is exact at the knots i/n.  Output is
    RFC 4180 CSV with LF line endings.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    u = np.linspace(0.0, 1.0, resolution)
    empirical = curve.interpolate(u)
    columns = [u, empirical]
    names = _model_column_names(models)
    fitted = [evaluate(model, u) for model in models]
    columns.extend(fitted)
    columns.extend(empirical - k for k in fitted)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["u", "empirical"] + names + [f"resid_{n}" for n in names])
    for row in zip(*columns):
        writer.writerow([f"{value:.12g}" for value in row])
    return buffer.getvalue().encode("utf-8")
