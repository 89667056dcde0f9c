"""Run the leimkuhler CLI under the span tracer.

Usage: PERFBENCH_SPANS=FILE python3 perfbench/traced_cli.py <cli arguments>

The traced counterpart of ``python -m leimkuhler.cli``: it imports the
CLI, wraps the library functions, runs ``cli.main`` inside a
``cli.main`` span and writes the spans to FILE before exiting with the
CLI's exit code.
"""

import importlib
import os
import sys

cli = importlib.import_module("leimkuhler.cli")

import tracer  # noqa: E402  (after leimkuhler, so its import cost is not counted first)


def main():
    trace = tracer.Tracer()
    trace.install()
    trace.enabled = True
    try:
        code = trace.span("cli.main", cli.main, sys.argv[1:])
    finally:
        trace.enabled = False
        tracer.dump_spans(trace.take(), os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
