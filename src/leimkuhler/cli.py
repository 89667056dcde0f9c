"""Command-line front end.

Subcommands: stats, fit, indices, simulate, export-plot.  Exit codes
follow one contract everywhere: 0 success, 1 usage error, 2 I/O or
data error, 3 numerical failure.  The type of the exception a command
raises picks its code, in main alone: DataError and OSError give 2,
UsageError and any other ValueError 1, ArithmeticError and RuntimeError
3.  So the library's own checks of values serve the command as they are.

argparse checks the flags.  A key=value config file (documented in the
README), named by --config or the LEIMKUHLER_CONFIG environment
variable, supplies defaults: each key is the argparse destination of
its flag, and main fills every flag the user left unset from the file.
fit builds its FitConfig from the flags named after FitConfig's fields.
The file is checked line by line when it is read; the library checks
the ranges of the values it is given.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from .curves import Family, make_model
from .empirical import (
    DataError,
    descriptive_stats,
    empirical_curve,
    ingest,
    sample_synthetic,
)
from .fit import FitConfig
from .indices import empirical_indices, model_indices
from .report import (
    build_report,
    export_plot_data,
    parse_report,
    render_json,
    render_table,
)

__all__ = ["UsageError", "main"]

ENV_CONFIG = "LEIMKUHLER_CONFIG"
FAMILY_TAGS = tuple(f.value for f in Family)
_FORMATS = ("lines", "csv")


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _positive_float(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text.strip()!r}")
    return value


def _parse_r_list(text):
    try:
        values = tuple(_positive_float(part) for part in text.split(",") if part.strip())
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad r list {text!r}: {exc}") from None
    if not values:
        raise UsageError("empty r list")
    return values


def _parse_format(text):
    if text not in _FORMATS:
        raise ValueError(f"format must be 'lines' or 'csv', got {text!r}")
    return text


_CONFIG_PARSERS = {
    "max_iterations": int,
    "step_tolerance": float,
    "multistart_count": int,
    "seed": int,
    "variance_divisor": str,
    "caic_counts_variance": _parse_bool,
    "r_values": _parse_r_list,
    "format": _parse_format,
    "resolution": int,
}


def _load_config_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value.strip())
        except (ValueError, TypeError, UsageError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _given(args, names):
    # the flags among names that the command line or the config file set,
    # so that the library states every default once
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _open_dataset(args):
    stdin = args.input == "-"
    return ingest(sys.stdin if stdin else args.input, label="stdin" if stdin else None,
                  **_given(args, ("format", "column")))


def _write_bytes(path, blob):
    if path == "-":
        sys.stdout.write(blob.decode("utf-8"))
    else:
        Path(path).write_bytes(blob)


def _fmt(value):
    return f"{value:.12g}"


def _print_index_report(report):
    tags = report.method_tags
    print(f"gini={_fmt(report.gini)} ({tags.get('gini', '')})")
    for r, value in report.generalized_gini:
        print(f"generalized_gini[r={_fmt(r)}]={_fmt(value)}")
    print(f"pietra={_fmt(report.pietra)} argmax_u={_fmt(report.pietra_argmax_u)} "
          f"({tags.get('pietra', '')})")


def cmd_stats(args):
    dataset = _open_dataset(args)
    stats = descriptive_stats(dataset, ddof=args.ddof)
    for field in fields(stats):
        value = getattr(stats, field.name)
        print(f"{field.name}={_fmt(value) if isinstance(value, float) else value}")
    return 0


def cmd_fit(args):
    families = FAMILY_TAGS if args.all else (args.model,)
    config = FitConfig(**_given(args, (field.name for field in fields(FitConfig))))
    dataset = _open_dataset(args)
    report = build_report(dataset, families, config, **_given(args, ("r_values",)))
    if args.json is not None:
        _write_bytes(args.json, render_json(report))
    if args.table or args.json is None:
        sys.stdout.write(render_table(report))
    if all(not result.converged for result, _ in report.per_model):
        print("error: no fit converged", file=sys.stderr)
        return 3
    return 0


def _parse_params(text):
    params = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"expected name=value in --params, got {chunk!r}")
        name, _, value = chunk.partition("=")
        params[name.strip()] = float(value)
    if not params:
        raise UsageError("empty --params")
    return params


def cmd_indices(args):
    has_dataset = args.input is not None
    has_model = args.model is not None
    if has_dataset == has_model:
        raise UsageError("give exactly one of a dataset input or "
                         "--model with --params")
    if has_model:
        if args.params is None:
            raise UsageError("--model requires --params")
        try:
            model = make_model(Family(args.model), **_parse_params(args.params))
        except TypeError as exc:  # a parameter name the family does not take
            raise UsageError(f"bad --params: {exc}") from exc
        report = model_indices(model, **_given(args, ("r_values", "tol")))
    else:
        curve = empirical_curve(_open_dataset(args))
        report = empirical_indices(curve, **_given(args, ("r_values",)))
    _print_index_report(report)
    return 0


def cmd_simulate(args):
    dataset = sample_synthetic(args.family, n=args.n, seed=args.seed,
                               **_given(args, ("theta", "sigma", "alpha", "beta", "scale")))
    text = "\n".join(map(str, dataset.counts_desc.tolist())) + "\n"
    _write_bytes(args.out, text.encode("utf-8"))
    return 0


def cmd_export_plot(args):
    curve = empirical_curve(_open_dataset(args))
    models = []
    if args.models_from is not None:
        report = parse_report(Path(args.models_from).read_bytes())
        models = [result.model for result, _ in report.per_model]
    _write_bytes(args.out, export_plot_data(curve, models, **_given(args, ("resolution",))))
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise UsageError(message)


def _add_input_arguments(parser, nargs=None):
    parser.add_argument("input", nargs=nargs, help="dataset path, or - for stdin")
    parser.add_argument("--format", choices=_FORMATS, default=None,
                        help="input format (default lines)")
    parser.add_argument("--column", default=None,
                        help="column name for csv input")


def _add_r_argument(parser):
    parser.add_argument("--r", dest="r_values", type=_parse_r_list,
                        help="comma-separated generalized-Gini orders")


def _add_fit_arguments(parser):
    parser.add_argument("--max-iterations", dest="max_iterations", type=int)
    parser.add_argument("--step-tolerance", dest="step_tolerance", type=float)
    parser.add_argument("--multistart", dest="multistart_count", type=int,
                        help="most starts per fit (default 16); a fit stops once "
                             "3 of at least 4 starts agree on the best minimum: "
                             "SSE within 1e-10 relative, end point within 1e-6")
    parser.add_argument("--seed", dest="seed", type=int)
    parser.add_argument("--variance-divisor", dest="variance_divisor",
                        choices=("n", "n_minus_p"))
    parser.add_argument("--caic-count-variance", dest="caic_counts_variance",
                        action="store_const", const=True, default=None,
                        help="count the residual variance as a parameter in CAIC")


def build_parser():
    parser = _Parser(prog="leimkuhler",
                     description="Citation-concentration analysis with "
                                 "Leimkuhler curves.")
    parser.add_argument("--config", default=None,
                        help=f"config file path (default ${ENV_CONFIG})")
    commands = parser.add_subparsers(dest="subcommand", required=True,
                                     parser_class=_Parser)

    stats = commands.add_parser("stats", help="descriptive statistics")
    _add_input_arguments(stats)
    stats.add_argument("--ddof", type=int, default=0, choices=(0, 1),
                       help="variance divisor is n - ddof")
    stats.set_defaults(handler=cmd_stats)

    fit_cmd = commands.add_parser("fit", help="fit curve families and rank them")
    _add_input_arguments(fit_cmd)
    which = fit_cmd.add_mutually_exclusive_group(required=True)
    which.add_argument("--model", choices=FAMILY_TAGS, help="fit this family")
    which.add_argument("--all", action="store_true", help="fit every family")
    fit_cmd.add_argument("--json", default=None,
                         help="write the JSON report to this path (- for stdout)")
    fit_cmd.add_argument("--table", action="store_true",
                         help="print the text table even when --json is given")
    _add_r_argument(fit_cmd)
    _add_fit_arguments(fit_cmd)
    fit_cmd.set_defaults(handler=cmd_fit)

    indices = commands.add_parser("indices", help="concentration indices")
    _add_input_arguments(indices, nargs="?")
    indices.add_argument("--model", choices=FAMILY_TAGS,
                         help="parametric family instead of a dataset")
    indices.add_argument("--params", default=None,
                         help="comma-separated name=value pairs")
    _add_r_argument(indices)
    indices.add_argument("--tol", type=_positive_float, default=None,
                         help="numeric tolerance for model indices (default 1e-10)")
    indices.set_defaults(handler=cmd_indices)

    simulate = commands.add_parser("simulate", help="generate a synthetic dataset")
    simulate.add_argument("--family", required=True,
                          help="power (--theta), pareto (--theta, --sigma), "
                               "pg or pig (--alpha, --beta)")
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", required=True,
                          help="output path (- for stdout)")
    simulate.add_argument("--theta", type=float, default=None)
    simulate.add_argument("--sigma", type=float, default=None)
    simulate.add_argument("--alpha", type=float, default=None)
    simulate.add_argument("--beta", type=float, default=None)
    simulate.add_argument("--scale", type=float, default=None)
    simulate.set_defaults(handler=cmd_simulate)

    export = commands.add_parser("export-plot", help="plot-ready CSV export")
    _add_input_arguments(export)
    export.add_argument("--models-from", dest="models_from", default=None,
                        help="JSON report whose fitted models to include")
    export.add_argument("--resolution", type=int, default=None)
    export.add_argument("--out", default="-",
                        help="output path (- for stdout)")
    export.set_defaults(handler=cmd_export_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config_path = args.config or os.environ.get(ENV_CONFIG)
        file_config = _load_config_file(config_path) if config_path else {}
        for key, value in file_config.items():
            if key in vars(args) and getattr(args, key) is None:
                setattr(args, key, value)
        return args.handler(args)
    except DataError as exc:  # before ValueError, which it subclasses
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
