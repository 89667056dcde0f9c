"""Tests for report assembly, serialization, and exports."""

import csv
import io
import json
import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leimkuhler.curves import pagb, pg, power
from leimkuhler.empirical import (
    CitationDataset,
    DescriptiveStats,
    empirical_curve,
    sample_synthetic,
)
from leimkuhler.fit import FitConfig, FitResult
from leimkuhler.indices import IndexReport
from leimkuhler.report import (
    SCHEMA_VERSION,
    AnalysisReport,
    build_report,
    export_plot_data,
    parse_report,
    render_json,
    render_table,
)

FAST = FitConfig(multistart_count=4, seed=3)


def make_fit_result(theta=2.0, std_errors=(0.01,), caic=-150.0):
    return FitResult(
        model=power(theta),
        std_errors=std_errors,
        sse=1e-4,
        mse=2.5e-7,
        max_abs=1e-3,
        mae=4e-4,
        caic=caic,
        converged=True,
        iterations=12,
        objective_history=(0.5, 1e-4),
    )


def make_index_report(gini=0.5):
    return IndexReport(
        gini=gini,
        generalized_gini=((0.5, gini * 0.55), (1.0, gini), (2.0, gini * 1.6)),
        pietra=gini * 0.75,
        pietra_argmax_u=0.3,
        method_tags={"gini": "closed_form", "generalized_gini": "closed_form",
                     "pietra": "closed_form"},
    )


def make_report(per_model=None, ranking=None):
    stats = DescriptiveStats(n=4, total=10, min=1, max=4, mean=2.5,
                             variance=1.25, dispersion_index=0.5)
    if per_model is None:
        per_model = ((make_fit_result(), make_index_report()),)
        ranking = ("power",)
    return AnalysisReport(
        dataset_stats=stats,
        empirical_indices=make_index_report(0.25),
        per_model=per_model,
        ranking=ranking if ranking is not None else (),
        metadata={"tool_version": "0.1.0", "created_at": "2026-08-19T00:00:00+00:00",
                  "dataset_label": "example", "config": {}, "r_values": [0.5, 1.0, 2.0],
                  "failures": []},
    )


class TestAnalysisReport:
    def test_ranking_must_match_fitted_families(self):
        with pytest.raises(ValueError):
            make_report(per_model=((make_fit_result(), make_index_report()),),
                        ranking=("pareto",))

    def test_empty_report_is_valid(self):
        report = make_report(per_model=(), ranking=())
        assert report.per_model == ()


class TestRenderJson:
    def test_deterministic_bytes(self):
        report = make_report()
        assert render_json(report) == render_json(report)

    def test_schema_version_present(self):
        document = json.loads(render_json(make_report()))
        assert document["schema_version"] == SCHEMA_VERSION

    def test_twelve_significant_digits(self):
        result = make_fit_result(theta=2.0 / 3.0)
        report = make_report(per_model=((result, make_index_report()),),
                             ranking=("power",))
        document = json.loads(render_json(report))
        serialized = document["per_model"][0]["params"]["theta"]
        assert serialized == float(f"{2.0 / 3.0:.12g}")
        assert abs(serialized - 2.0 / 3.0) < 1e-12

    def test_unavailable_std_errors_serialize_as_null(self):
        result = make_fit_result(std_errors=None)
        report = make_report(per_model=((result, make_index_report()),),
                             ranking=("power",))
        document = json.loads(render_json(report))
        assert document["per_model"][0]["std_errors"] is None

    def test_empty_per_model_gives_empty_array(self):
        document = json.loads(render_json(make_report(per_model=(), ranking=())))
        assert document["per_model"] == []
        assert document["ranking"] == []

    def test_negative_infinity_caic_marker(self):
        result = make_fit_result(caic=-math.inf)
        report = make_report(per_model=((result, make_index_report()),),
                             ranking=("power",))
        document = json.loads(render_json(report))
        assert document["per_model"][0]["caic"] == "-inf"


class TestRoundTrip:
    def test_byte_identity(self):
        report = make_report()
        blob = render_json(report)
        assert render_json(parse_report(blob)) == blob

    def test_fields_survive(self):
        report = make_report()
        parsed = parse_report(render_json(report))
        assert parsed.dataset_stats == report.dataset_stats
        assert parsed.ranking == report.ranking
        result, indices = parsed.per_model[0]
        assert result.model.family.value == "power"
        assert result.model.params.theta == pytest.approx(2.0, rel=1e-12)
        assert result.std_errors == (0.01,)
        assert result.converged is True
        assert indices.gini == pytest.approx(0.5, rel=1e-12)

    def test_special_values_survive(self):
        result = make_fit_result(std_errors=None, caic=-math.inf)
        report = make_report(per_model=((result, make_index_report()),),
                             ranking=("power",))
        parsed = parse_report(render_json(report))
        round_result, _ = parsed.per_model[0]
        assert round_result.std_errors is None
        assert round_result.caic == -math.inf

    def test_built_report_round_trips(self):
        dataset = sample_synthetic("power", n=400, seed=8, theta=2.0)
        report = build_report(dataset, ["power", "pareto"], FAST)
        blob = render_json(report)
        assert render_json(parse_report(blob)) == blob

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([10, 1000, 2**62, 2**70]).flatmap(
        lambda top: st.lists(st.integers(0, top), min_size=2, max_size=30)
    ).filter(lambda counts: sum(counts) > 0))
    def test_random_small_datasets_round_trip(self, counts):
        report = build_report(CitationDataset(tuple(counts)), ("power",),
                              FitConfig(multistart_count=1),
                              created_at=datetime(2026, 1, 1, tzinfo=timezone.utc))
        blob = render_json(report)
        parsed = parse_report(blob)
        assert render_json(parsed) == blob
        # floats carry 12 significant digits; the integer fields are exact
        stats = parsed.dataset_stats
        assert (stats.n, stats.total, stats.min, stats.max) == (
            len(counts), sum(counts), min(counts), max(counts))

    def test_schema_mismatch_rejected(self):
        document = json.loads(render_json(make_report()))
        document["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            parse_report(json.dumps(document))

    def test_malformed_documents_rejected(self):
        document = json.loads(render_json(make_report()))
        del document["dataset_stats"]["total"]
        for bad, named in (({"schema_version": SCHEMA_VERSION}, "dataset_stats"),
                           ([1, 2], "JSON object"), (document, "total")):
            with pytest.raises(ValueError, match=named):
                parse_report(json.dumps(bad))

    def test_accepts_str_and_bytes(self):
        blob = render_json(make_report())
        assert parse_report(blob.decode("utf-8")).ranking == ("power",)
        assert parse_report(blob).ranking == ("power",)


class TestRenderTable:
    def test_single_model_layout(self):
        text = render_table(make_report())
        lines = text.splitlines()
        data_lines = [line for line in lines if line.startswith("power")]
        assert len(data_lines) == 1
        position = lines.index(data_lines[0])
        assert "(0.01)" in lines[position + 1]
        assert "MSE" in text and "CAIC" in text and "Pietra" in text

    def test_metric_columns_present(self):
        text = render_table(make_report())
        row = next(line for line in text.splitlines() if line.startswith("power"))
        assert "2.500e-07" in row
        assert "-150.00" in row
        assert "0.5000" in row

    def test_perfect_fit_renders_minus_inf(self):
        result = make_fit_result(caic=-math.inf)
        report = make_report(per_model=((result, make_index_report()),),
                             ranking=("power",))
        row = next(line for line in render_table(report).splitlines()
                   if line.startswith("power"))
        assert "-inf" in row

    def test_unavailable_errors_labelled(self):
        result = make_fit_result(std_errors=None)
        report = make_report(per_model=((result, make_index_report()),),
                             ranking=("power",))
        assert "(unavailable)" in render_table(report)

    def test_nested_limit_labelled(self):
        result = replace(make_fit_result(std_errors=None), model=pagb(6e13, 4e13, -40.0),
                         converged=False)
        report = make_report(per_model=((result, make_index_report()),),
                             ranking=("pagb",))
        text = render_table(report)
        assert text.count("(nested limit: pareto)") == 1
        assert "(unavailable)" not in text
        # the JSON keeps the parameters, from which the limit follows
        assert render_table(parse_report(render_json(report))) == text

    def test_whole_layout_pinned(self):
        # one fit with standard errors, one at a nested limit and one
        # whose errors are unavailable; the JSON round trip prints the
        # same bytes
        with_errors = make_fit_result(theta=2.0 / 3.0, std_errors=(0.0123,), caic=-151.25)
        nested = replace(make_fit_result(std_errors=None, caic=-148.5),
                         model=pagb(6e13, 4e13, -40.0), converged=False,
                         mse=1.25e-6, mae=3.5e-4)
        unavailable = replace(make_fit_result(std_errors=None, caic=-147.0),
                              model=pg(1.5, 0.25), max_abs=2.5e-3)
        report = make_report(
            per_model=((with_errors, make_index_report(0.5)),
                       (nested, make_index_report(0.4)),
                       (unavailable, make_index_report(0.45))),
            ranking=("power", "pagb", "pg"))
        expected = "\n".join([
            "dataset: example  n=4  total=10  mean=2.50  dispersion=0.50",
            "empirical: gini=0.2500  pietra=0.1875",
            "",
            "family  parameters                                               MSE"
            "         MAX         MAE          CAIC      Gini    Pietra",
            "-" * 126,
            "power   theta=0.666667                                     2.500e-07"
            "   1.000e-03   4.000e-04       -151.25    0.5000    0.3750",
            "        (0.0123)",
            "pagb    alpha=6e+13             beta=4e+13     shift=-40   1.250e-06"
            "   1.000e-03   3.500e-04       -148.50    0.4000    0.3000",
            "        (nested limit: pareto)",
            "pg      alpha=1.5               beta=0.25                  2.500e-07"
            "   2.500e-03   4.000e-04       -147.00    0.4500    0.3375",
            "        (unavailable)           (unavailable)",
        ]) + "\n"
        assert render_table(report) == expected
        assert render_table(parse_report(render_json(report))) == expected

    def test_fixed_width_alignment(self):
        dataset = sample_synthetic("power", n=300, seed=4, theta=2.5)
        report = build_report(dataset, ["power", "pareto", "pg"], FAST)
        lines = render_table(report).splitlines()
        header = next(line for line in lines if line.startswith("family"))
        rows = [line for line in lines
                if line.split() and line.split()[0] in ("power", "pareto", "pg")]
        assert len(rows) == 3
        edge = header.index("MSE") + len("MSE")
        for row in rows:
            # right-justified column: a value ends exactly at the
            # header's right edge
            assert row[edge - 1] != " "
            assert row[edge] == " "
            float(row[:edge].split()[-1])


class TestExportPlotData:
    def test_polygon_only_pins(self):
        dataset = CitationDataset((4, 3, 2, 1))
        curve = empirical_curve(dataset)
        rows = list(csv.reader(io.StringIO(export_plot_data(curve, [], 5).decode())))
        assert rows[0] == ["u", "empirical"]
        u = [float(r[0]) for r in rows[1:]]
        k = [float(r[1]) for r in rows[1:]]
        assert u == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert k == [0.0, 0.4, 0.7, 0.9, 1.0]

    def test_fitted_and_residual_columns(self):
        dataset = CitationDataset((4, 3, 2, 1))
        curve = empirical_curve(dataset)
        blob = export_plot_data(curve, [power(1.0)], 5)
        rows = list(csv.reader(io.StringIO(blob.decode())))
        assert rows[0] == ["u", "empirical", "power", "resid_power"]
        for row in rows[1:]:
            u, emp, fitted, resid = (float(x) for x in row)
            assert fitted == pytest.approx(2.0 * u - u * u, abs=1e-15)
            assert resid == pytest.approx(emp - fitted, abs=1e-15)

    def test_knot_values_exact(self):
        dataset = CitationDataset((5, 3, 1, 1))
        curve = empirical_curve(dataset)
        rows = list(csv.reader(io.StringIO(export_plot_data(curve, [], 9).decode())))
        values = {float(r[0]): float(r[1]) for r in rows[1:]}
        assert values[0.25] == 0.5
        assert values[0.5] == 0.8
        assert values[0.75] == 0.9
        assert values[1.0] == 1.0

    def test_duplicate_families_disambiguated(self):
        dataset = CitationDataset((4, 3, 2, 1))
        curve = empirical_curve(dataset)
        blob = export_plot_data(curve, [power(1.0), power(2.0)], 3)
        header = blob.decode().splitlines()[0].split(",")
        assert header == ["u", "empirical", "power", "power_2",
                          "resid_power", "resid_power_2"]

    def test_resolution_two_gives_endpoints(self):
        dataset = CitationDataset((4, 3, 2, 1))
        curve = empirical_curve(dataset)
        rows = export_plot_data(curve, [], 2).decode().splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("0,")
        assert rows[2].startswith("1,")

    def test_lf_line_endings(self):
        dataset = CitationDataset((4, 3, 2, 1))
        blob = export_plot_data(empirical_curve(dataset), [], 3)
        assert b"\r" not in blob
        assert blob.endswith(b"\n")

    def test_rejects_resolution_below_two(self):
        dataset = CitationDataset((4, 3, 2, 1))
        with pytest.raises(ValueError):
            export_plot_data(empirical_curve(dataset), [], 1)


class TestBuildReport:
    def test_ranking_follows_per_model_order(self):
        dataset = sample_synthetic("power", n=400, seed=8, theta=2.0)
        report = build_report(dataset, ["pareto", "power"], FAST)
        assert report.ranking == tuple(
            result.model.family.value for result, _ in report.per_model)
        caics = [result.caic for result, _ in report.per_model]
        assert caics == sorted(caics)

    def test_metadata_contents(self):
        dataset = sample_synthetic("power", n=300, seed=2, theta=1.5)
        report = build_report(dataset, ["power"], FAST)
        metadata = report.metadata
        assert metadata["dataset_label"] == "synthetic-power-n300-seed2"
        assert metadata["config"]["multistart_count"] == 4
        assert metadata["r_values"] == [0.5, 1.0, 2.0]
        assert "created_at" in metadata
        assert metadata["failures"] == []

    def test_created_at_argument_and_source_date_epoch(self, monkeypatch):
        dataset = sample_synthetic("power", n=300, seed=2, theta=1.5)
        stamp = datetime(2026, 3, 1, 12, 30, 5, tzinfo=timezone(timedelta(hours=2)))
        report = build_report(dataset, ["power"], FAST, created_at=stamp)
        assert report.metadata["created_at"] == "2026-03-01T10:30:05+00:00"
        with pytest.raises(ValueError, match="timezone"):
            build_report(dataset, ["power"], FAST, created_at=datetime(2026, 3, 1))

        monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
        first = render_json(build_report(dataset, ["power"], FAST))
        second = render_json(build_report(dataset, ["power"], FAST))
        assert first == second
        assert json.loads(first)["metadata"]["created_at"] == "1970-01-02T00:00:00+00:00"
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1.5e9")
        with pytest.raises(ValueError, match="SOURCE_DATE_EPOCH"):
            build_report(dataset, ["power"], FAST)

    def test_failed_family_recorded_not_fatal(self):
        dataset = CitationDataset((3, 2, 1))
        report = build_report(dataset, ["power", "gpig"], FAST)
        assert report.ranking == ("power",)
        assert len(report.metadata["failures"]) == 1
        assert report.metadata["failures"][0][0] == "gpig"

    def test_model_indices_match_fitted_parameters(self):
        dataset = sample_synthetic("power", n=500, seed=6, theta=2.0)
        report = build_report(dataset, ["power"], FAST)
        result, indices = report.per_model[0]
        theta = result.model.params.theta
        assert indices.gini == pytest.approx(theta / (2.0 + theta), rel=1e-12)
