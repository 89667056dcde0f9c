"""Tests for the command-line interface.

Every test drives main() in process and checks the exit-code
contract: 0 success, 1 usage error, 2 I/O or data error, 3 numerical
failure.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leimkuhler import cli
from leimkuhler.cli import main
from leimkuhler.curves import Family
from leimkuhler.empirical import ingest
from leimkuhler.fit import FitConfig
from leimkuhler.report import build_report, parse_report, render_json
from leimkuhler.specfun import ConvergenceError


def write_counts(path, counts):
    path.write_text("".join(f"{c}\n" for c in counts), encoding="utf-8")
    return str(path)


def parsed_lines(text):
    values = {}
    for line in text.splitlines():
        for token in line.split():
            if "=" in token and not token.startswith("("):
                key, _, value = token.rpartition("=")
                values[key] = value
    return values


@pytest.fixture()
def counts_file(tmp_path):
    return write_counts(tmp_path / "counts.txt", [4, 3, 2, 1])


@pytest.fixture()
def power_file(tmp_path):
    path = str(tmp_path / "power.txt")
    rc = main(["simulate", "--family", "power", "--n", "300", "--seed", "2",
               "--theta", "3.0", "--out", path])
    assert rc == 0
    return path


class TestStats:
    def test_basic_counts(self, counts_file, capsys):
        assert main(["stats", counts_file]) == 0
        out = parsed_lines(capsys.readouterr().out)
        assert out["n"] == "4"
        assert out["total"] == "10"
        assert out["mean"] == "2.5"
        assert out["variance"] == "1.25"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "absent.txt")
        assert main(["stats", path]) == 2
        assert path in capsys.readouterr().err

    def test_csv_column_matches_lines(self, counts_file, tmp_path, capsys):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text("journal,citations\na,4\nb,3\nc,2\nd,1\n",
                            encoding="utf-8")
        assert main(["stats", counts_file]) == 0
        from_lines = parsed_lines(capsys.readouterr().out)
        assert main(["stats", str(csv_path), "--format", "csv",
                     "--column", "citations"]) == 0
        from_csv = parsed_lines(capsys.readouterr().out)
        assert from_csv == from_lines

    def test_over_limit_csv_field_exit_2(self, tmp_path, capsys):
        # the csv module rejects a field above 131,072 characters
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("journal,citations\na,4\nb," + "9" * 200_000 + "\nc,2\n",
                            encoding="utf-8")
        assert main(["stats", str(csv_path), "--format", "csv", "--column", "citations"]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "line 3" in err

    def test_undecodable_stdin_exit_2(self, monkeypatch, capsys):
        for argv in (["stats", "-"], ["stats", "-", "--format", "csv", "--column", "c"]):
            stream = io.TextIOWrapper(io.BytesIO(b"c\n4\n\xff\n"), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stream)
            assert main(argv) == 2
            assert "data error: cannot read stdin" in capsys.readouterr().err

    def test_csv_without_column_usage_error(self, counts_file, capsys):
        assert main(["stats", counts_file, "--format", "csv"]) == 1
        assert "column" in capsys.readouterr().err

    def test_stdin_dash(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("4\n3\n2\n1\n"))
        assert main(["stats", "-"]) == 0
        assert parsed_lines(capsys.readouterr().out)["n"] == "4"

    def test_ddof_changes_variance(self, counts_file, capsys):
        assert main(["stats", counts_file, "--ddof", "1"]) == 0
        out = parsed_lines(capsys.readouterr().out)
        assert abs(float(out["variance"]) - 5.0 / 3.0) < 1e-10


class TestFit:
    def test_power_recovery_table(self, power_file, capsys):
        rc = main(["fit", power_file, "--model", "power", "--multistart", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "power" in out
        assert "theta=" in out

    def test_json_report_parameter_recovery(self, tmp_path):
        data_path = str(tmp_path / "power1000.txt")
        assert main(["simulate", "--family", "power", "--n", "1000",
                     "--seed", "2", "--theta", "3.0", "--out", data_path]) == 0
        json_path = str(tmp_path / "report.json")
        rc = main(["fit", data_path, "--model", "power", "--multistart", "2",
                   "--json", json_path])
        assert rc == 0
        report = parse_report(open(json_path, "rb").read())
        result, _ = report.per_model[0]
        assert abs(result.model.params.theta - 3.0) / 3.0 < 0.05
        assert result.converged

    def test_json_to_stdout(self, power_file, capsys):
        rc = main(["fit", power_file, "--model", "power", "--multistart", "2",
                   "--json", "-"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 1
        assert document["ranking"] == ["power"]

    def test_table_plus_json(self, power_file, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        rc = main(["fit", power_file, "--model", "power", "--multistart", "2",
                   "--json", str(json_path), "--table"])
        assert rc == 0
        assert "theta=" in capsys.readouterr().out
        assert json_path.exists()

    def test_json_bytes_reproducible_under_source_date_epoch(self, power_file, tmp_path,
                                                              monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        blobs = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            assert main(["fit", power_file, "--model", "power", "--multistart", "2",
                         "--json", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["metadata"]["created_at"] == "2023-11-14T22:13:20+00:00"

    def test_bad_source_date_epoch_exit_2(self, power_file, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "yesterday")
        assert main(["fit", power_file, "--model", "power", "--json", "-"]) == 2
        assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err

    def test_all_families_ranked(self, power_file, tmp_path):
        json_path = str(tmp_path / "report.json")
        rc = main(["fit", power_file, "--all", "--multistart", "1",
                   "--json", json_path])
        assert rc == 0
        report = parse_report(open(json_path, "rb").read())
        assert len(report.ranking) == 8
        assert sorted(report.ranking) == sorted(f.value for f in Family)
        caics = [result.caic for result, _ in report.per_model]
        assert caics == sorted(caics)

    def test_unknown_family_usage_error(self, counts_file, capsys):
        assert main(["fit", counts_file, "--model", "bogus"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_model_and_all_conflict(self, counts_file):
        assert main(["fit", counts_file, "--model", "power", "--all"]) == 1

    def test_model_flag_required(self, counts_file):
        assert main(["fit", counts_file]) == 1

    def test_zero_multistart_usage_error(self, counts_file, capsys):
        assert main(["fit", counts_file, "--model", "power", "--multistart", "0"]) == 1
        assert "start counts" in capsys.readouterr().err

    def test_exit_3_when_no_fit_converges(self, tmp_path, capsys):
        path = str(tmp_path / "mixture.txt")
        assert main(["simulate", "--family", "pg", "--n", "400", "--seed", "5",
                     "--alpha", "0.7", "--beta", "0.1", "--out", path]) == 0
        rc = main(["fit", path, "--model", "pg", "--multistart", "2",
                   "--json", str(tmp_path / "r.json")])
        assert rc == 3
        assert "converge" in capsys.readouterr().err


class TestIndices:
    def read_gini(self, capsys):
        return float(parsed_lines(capsys.readouterr().out)["gini"])

    def test_power_closed_form_value(self, capsys):
        assert main(["indices", "--model", "power",
                     "--params", "theta=3.832"]) == 0
        assert abs(self.read_gini(capsys) - 0.6571) < 5e-4

    def test_power_gamma_mixture_value(self, capsys):
        assert main(["indices", "--model", "pg",
                     "--params", "alpha=0.701,beta=0.102"]) == 0
        assert abs(self.read_gini(capsys) - 0.5910) < 1e-3

    def test_uniform_counts_give_zero(self, tmp_path, capsys):
        path = write_counts(tmp_path / "flat.txt", [1, 1, 1, 1])
        assert main(["indices", path]) == 0
        out = parsed_lines(capsys.readouterr().out)
        assert float(out["gini"]) == 0.0
        assert float(out["pietra"]) == 0.0

    def test_both_sources_usage_error(self, counts_file):
        rc = main(["indices", counts_file, "--model", "power",
                   "--params", "theta=2"])
        assert rc == 1

    def test_neither_source_usage_error(self):
        assert main(["indices"]) == 1

    def test_model_without_params(self):
        assert main(["indices", "--model", "power"]) == 1

    def test_bad_params_rejected(self):
        assert main(["indices", "--model", "power", "--params", "theta=abc"]) == 1
        assert main(["indices", "--model", "power", "--params", "3.832"]) == 1
        assert main(["indices", "--model", "power", "--params", "theta=-2"]) == 1

    def test_unknown_model_rejected(self, capsys):
        assert main(["indices", "--model", "weibull", "--params", "theta=2"]) == 1
        assert "weibull" in capsys.readouterr().err

    def test_r_list_controls_output(self, capsys):
        assert main(["indices", "--model", "power", "--params", "theta=2",
                     "--r", "1"]) == 0
        out = capsys.readouterr().out
        assert "generalized_gini[r=1]" in out
        assert "r=2" not in out
        lines = parsed_lines(out)
        assert abs(float(lines["generalized_gini[r=1]"])
                   - float(lines["gini"])) < 1e-9

    def test_nonpositive_r_rejected(self):
        assert main(["indices", "--model", "power", "--params", "theta=2",
                     "--r=-1"]) == 1

    @pytest.mark.parametrize("flag", ["--r=inf", "--r=1,nan", "--tol=nan", "--tol=-1",
                                      "--tol=inf", "--tol=0"])
    def test_non_finite_or_nonpositive_flag_is_a_usage_error(self, flag, capsys):
        assert main(["indices", "--model", "power", "--params", "theta=2", flag]) == 1
        assert "positive and finite" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        flags = ["simulate", "--family", "pig", "--n", "50", "--seed", "7",
                 "--alpha", "2.0", "--beta", "1.5"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_n_zero_usage_error(self, tmp_path):
        rc = main(["simulate", "--family", "power", "--n", "0",
                   "--theta", "2", "--out", str(tmp_path / "x.txt")])
        assert rc == 1

    def test_unwritable_path_exit_2(self, tmp_path):
        rc = main(["simulate", "--family", "power", "--n", "5", "--theta", "2",
                   "--out", str(tmp_path / "no-such-dir" / "x.txt")])
        assert rc == 2

    def test_roundtrip_through_stats(self, tmp_path, capsys):
        path = str(tmp_path / "sim.txt")
        assert main(["simulate", "--family", "power", "--n", "80", "--seed", "3",
                     "--theta", "2.5", "--out", path]) == 0
        assert main(["stats", path]) == 0
        assert parsed_lines(capsys.readouterr().out)["n"] == "80"

    def test_missing_required_param(self, tmp_path, capsys):
        rc = main(["simulate", "--family", "pg", "--n", "10",
                   "--alpha", "1.0", "--out", str(tmp_path / "x.txt")])
        assert rc == 1
        assert "beta" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path):
        rc = main(["simulate", "--family", "gpig", "--n", "10",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 1

    def test_stdout_output(self, capsys):
        rc = main(["simulate", "--family", "power", "--n", "6", "--seed", "1",
                   "--theta", "2", "--out", "-"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(line.isdigit() for line in lines)

    @pytest.mark.parametrize("extra", [["--theta", "inf"], ["--theta", "nan"],
                                       ["--theta", "2", "--scale", "inf"],
                                       ["--theta", "2", "--scale", "nan"]])
    def test_non_finite_parameter_usage_error(self, tmp_path, capsys, extra):
        rc = main(["simulate", "--family", "power", "--n", "10",
                   "--out", str(tmp_path / "x.txt")] + extra)
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err

    def test_scale_changes_counts(self, capsys):
        flags = ["simulate", "--family", "power", "--n", "20", "--seed", "4",
                 "--theta", "2", "--out", "-"]
        outputs = []
        for extra in ([], ["--scale", "1000"], ["--scale", "10"]):
            assert main(flags + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[2] != outputs[0]
        assert sum(map(int, outputs[2].split())) < sum(map(int, outputs[0].split()))


class TestExportPlot:
    def two_model_report(self, counts_path, json_path):
        dataset = ingest(counts_path)
        report = build_report(dataset, ("power", "gp"),
                              FitConfig(multistart_count=2, seed=0))
        json_path.write_bytes(render_json(report))
        return str(json_path)

    def test_column_count(self, counts_file, tmp_path, capsys):
        report_path = self.two_model_report(counts_file, tmp_path / "r.json")
        rc = main(["export-plot", counts_file, "--models-from", report_path,
                   "--resolution", "9"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        assert len(header) == 1 + 1 + 2 + 2
        assert header[:2] == ["u", "empirical"]
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_resolution_two_rows(self, counts_file, capsys):
        rc = main(["export-plot", counts_file, "--resolution", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0,")
        assert lines[2].startswith("1,")

    def test_zero_models(self, counts_file, capsys):
        rc = main(["export-plot", counts_file, "--resolution", "5"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "u,empirical"

    def test_schema_mismatch_exit_2(self, counts_file, tmp_path, capsys):
        report_path = self.two_model_report(counts_file, tmp_path / "r.json")
        document = json.loads(open(report_path).read())
        document["schema_version"] = 999
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(document), encoding="utf-8")
        rc = main(["export-plot", counts_file, "--models-from", str(bad_path)])
        assert rc == 2
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [{"schema_version": 1}, [1, 2]])
    def test_malformed_report_exit_2(self, counts_file, tmp_path, capsys, document):
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(document), encoding="utf-8")
        rc = main(["export-plot", counts_file, "--models-from", str(bad_path)])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", [b"not json\n", b'{"schema_version": \xff}'],
                             ids=["not-json", "not-utf-8"])
    def test_undecodable_report_exit_2(self, counts_file, tmp_path, capsys, blob):
        bad_path = tmp_path / "bad.json"
        bad_path.write_bytes(blob)
        rc = main(["export-plot", counts_file, "--models-from", str(bad_path)])
        assert rc == 2
        assert "data error: not a JSON report" in capsys.readouterr().err

    def test_report_with_a_bad_parameter_exit_2(self, counts_file, tmp_path, capsys):
        report_path = self.two_model_report(counts_file, tmp_path / "r.json")
        document = json.loads(open(report_path).read())
        document["per_model"][0]["params"]["theta"] = -1.0
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(document), encoding="utf-8")
        rc = main(["export-plot", counts_file, "--models-from", str(bad_path)])
        assert rc == 2
        assert "data error: malformed report" in capsys.readouterr().err

    def test_missing_report_exit_2(self, counts_file, tmp_path):
        rc = main(["export-plot", counts_file,
                   "--models-from", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_resolution_too_small(self, counts_file):
        assert main(["export-plot", counts_file, "--resolution", "1"]) == 1

    def test_output_file(self, counts_file, tmp_path):
        out_path = tmp_path / "plot.csv"
        rc = main(["export-plot", counts_file, "--resolution", "3",
                   "--out", str(out_path)])
        assert rc == 0
        text = out_path.read_bytes().decode("utf-8")
        assert text.startswith("u,empirical\n")
        assert "\r" not in text


class TestConfigFile:
    def write_config(self, tmp_path, text, name="conf.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def fitted_config(self, power_file, tmp_path, argv, capsys):
        json_path = str(tmp_path / "out.json")
        rc = main(argv + ["fit", power_file, "--model", "power",
                          "--json", json_path])
        assert rc == 0
        capsys.readouterr()
        return json.loads(open(json_path).read())["metadata"]["config"]

    def test_file_supplies_defaults(self, power_file, tmp_path, capsys):
        conf = self.write_config(
            tmp_path,
            "# fit settings\n\nseed=9\nmultistart_count=2\n")
        config = self.fitted_config(power_file, tmp_path,
                                    ["--config", conf], capsys)
        assert config["seed"] == 9
        assert config["multistart_count"] == 2
        assert config["max_iterations"] == 200

    def test_flag_overrides_file(self, power_file, tmp_path, capsys):
        conf = self.write_config(tmp_path, "seed=9\nmultistart_count=2\n")
        json_path = str(tmp_path / "out.json")
        rc = main(["--config", conf, "fit", power_file, "--model", "power",
                   "--seed", "4", "--json", json_path])
        assert rc == 0
        config = json.loads(open(json_path).read())["metadata"]["config"]
        assert config["seed"] == 4
        assert config["multistart_count"] == 2

    def test_env_var_names_default_config(self, power_file, tmp_path,
                                          monkeypatch, capsys):
        conf = self.write_config(tmp_path, "seed=7\nmultistart_count=2\n")
        monkeypatch.setenv("LEIMKUHLER_CONFIG", conf)
        config = self.fitted_config(power_file, tmp_path, [], capsys)
        assert config["seed"] == 7

    def test_config_flag_beats_env(self, power_file, tmp_path,
                                   monkeypatch, capsys):
        env_conf = self.write_config(tmp_path, "seed=7\nmultistart_count=2\n",
                                     name="env.txt")
        flag_conf = self.write_config(tmp_path, "seed=9\nmultistart_count=2\n",
                                      name="flag.txt")
        monkeypatch.setenv("LEIMKUHLER_CONFIG", env_conf)
        config = self.fitted_config(power_file, tmp_path,
                                    ["--config", flag_conf], capsys)
        assert config["seed"] == 9

    def test_unknown_key_rejected(self, counts_file, tmp_path, capsys):
        conf = self.write_config(tmp_path, "jitter=5\n")
        assert main(["--config", conf, "stats", counts_file]) == 1
        assert "jitter" in capsys.readouterr().err

    def test_bad_value_rejected(self, counts_file, tmp_path):
        conf = self.write_config(tmp_path, "max_iterations=abc\n")
        assert main(["--config", conf, "stats", counts_file]) == 1

    def test_missing_config_file(self, counts_file, tmp_path):
        rc = main(["--config", str(tmp_path / "absent.conf"),
                   "stats", counts_file])
        assert rc == 1

    def test_r_values_from_config(self, tmp_path, capsys):
        conf = self.write_config(tmp_path, "r_values=0.5,1\n")
        rc = main(["--config", conf, "indices", "--model", "power",
                   "--params", "theta=2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "generalized_gini[r=0.5]" in out
        assert "generalized_gini[r=1]" in out
        assert "r=2" not in out

    def test_malformed_line_rejected(self, counts_file, tmp_path, capsys):
        conf = self.write_config(tmp_path, "seed 9\n")
        assert main(["--config", conf, "stats", counts_file]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_bad_format_rejected_when_read(self, counts_file, tmp_path, capsys):
        conf = self.write_config(tmp_path, "seed=3\nformat=xml\n")
        for argv in (["stats", counts_file],
                     ["simulate", "--family", "power", "--n", "5", "--theta", "2",
                      "--out", str(tmp_path / "sim.txt")]):
            assert main(["--config", conf] + argv) == 1
            err = capsys.readouterr().err
            assert f"{conf}:2" in err
            assert "xml" in err

    def test_boolean_key_gives_the_flag_s_report(self, power_file, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        conf = self.write_config(tmp_path, "caic_counts_variance=yes\n")
        blobs = []
        for name, head, tail in (("file.json", ["--config", conf], []),
                                 ("flag.json", [], ["--caic-count-variance"])):
            path = tmp_path / name
            assert main(head + ["fit", power_file, "--model", "power", "--multistart", "2",
                                "--json", str(path)] + tail) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["metadata"]["config"]["caic_counts_variance"] is True

    def test_format_key_reads_csv_as_the_flag_does(self, tmp_path, capsys):
        csv_path = str(tmp_path / "counts.csv")
        Path(csv_path).write_text("journal,citations\na,4\nb,3\nc,2\nd,1\n",
                                  encoding="utf-8")
        assert main(["stats", csv_path, "--format", "csv", "--column", "citations"]) == 0
        from_flag = capsys.readouterr().out
        conf = self.write_config(tmp_path, "format=csv\n")
        assert main(["--config", conf, "stats", csv_path, "--column", "citations"]) == 0
        assert capsys.readouterr().out == from_flag
        assert parsed_lines(from_flag)["total"] == "10"

    def test_resolution_from_config(self, counts_file, tmp_path, capsys):
        conf = self.write_config(tmp_path, "resolution=3\n")
        assert main(["--config", conf, "export-plot", counts_file]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        conf = self.write_config(tmp_path, "resolution=1\n")
        assert main(["--config", conf, "export-plot", counts_file]) == 1
        assert "resolution" in capsys.readouterr().err

    def test_gradient_tolerance_is_gone(self, power_file, tmp_path, capsys):
        # convergence is judged by a scale-free relative offset, with no knob
        conf = self.write_config(tmp_path, "gradient_tolerance=1e-6\n")
        assert main(["--config", conf, "fit", power_file, "--model", "power"]) == 1
        assert "gradient_tolerance" in capsys.readouterr().err
        assert main(["fit", power_file, "--model", "power",
                     "--gradient-tolerance", "1e-6"]) == 1
        assert "--gradient-tolerance" in capsys.readouterr().err
        config = self.fitted_config(power_file, tmp_path, [], capsys)
        assert "gradient_tolerance" not in config

    def test_zero_multistart_count_rejected(self, counts_file, tmp_path, capsys):
        conf = self.write_config(tmp_path, "multistart_count=0\n")
        assert main(["--config", conf, "fit", counts_file, "--model", "power"]) == 1
        assert "start counts" in capsys.readouterr().err


class TestParser:
    def test_numerical_failure_exit_3(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise ConvergenceError("quadrature did not converge")

        monkeypatch.setattr(cli, "model_indices", failing)
        assert main(["indices", "--model", "power", "--params", "theta=2"]) == 3
        assert "numerical error: quadrature did not converge" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag(self, counts_file):
        assert main(["stats", counts_file, "--bogus"]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("subcommand",
                             ["stats", "fit", "indices", "simulate", "export-plot"])
    def test_subcommand_help_exits_0(self, subcommand, capsys):
        with pytest.raises(SystemExit) as done:
            main([subcommand, "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: leimkuhler {subcommand}")


def fresh_python(code):
    """Run code in a new interpreter that imports the package from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate serves only the numeric test oracles, which import
    # it when called; the package and the command must not pay for it, or
    # for scipy.optimize or scipy.special, on import
    done = fresh_python(
        "import sys, leimkuhler, leimkuhler.cli; "
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate imported'; "
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'; "
        "assert 'scipy.special' not in sys.modules, 'scipy.special imported'")
    assert done.returncode == 0, done.stderr


def test_pig_indices_command_in_a_fresh_process():
    # only the pg closed form below (1 + r) beta = 1/2 reaches scipy.special;
    # pig's indices are summed by the package's own quadrature
    done = fresh_python(
        "import sys; from leimkuhler.cli import main; "
        "code = main(['indices', '--model', 'pig', '--params', 'alpha=9.305,beta=2.227']); "
        "assert 'scipy.special' not in sys.modules, 'scipy.special imported'; "
        "sys.exit(code)")
    assert done.returncode == 0, done.stderr
    assert "gini" in done.stdout.lower()


def test_fit_command_in_a_fresh_process(counts_file):
    # the fit's own solver works on the Gram: a power fit loads neither
    # scipy.optimize nor scipy.special
    done = fresh_python(
        "import sys; from leimkuhler.cli import main; "
        f"code = main(['fit', {counts_file!r}, '--model', 'power', '--multistart', '2']); "
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'; "
        "assert 'scipy.special' not in sys.modules, 'scipy.special imported'; "
        "sys.exit(code)")
    assert done.returncode == 0, done.stderr
    assert "power" in done.stdout
