"""One benchmark worker: a fresh process that sets up, runs passes and checks.

Usage: python3 perfbench/worker.py SPEC.json [--setup-only]

The worker imports leimkuhler from the checkout's ``src`` before any
other non-standard module, so the reported import time is what a user
pays.  As soon as the inputs are loaded it prints one line
``{"ready": <CLOCK_MONOTONIC>, "import_s": ...}``; with --setup-only it
then exits.  Otherwise it runs the timed passes (untraced, or an
untraced reference pass followed by traced passes), records peak RSS,
runs the correctness checks and writes its result to
``<work>/result.json``.
"""

import functools
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAYERS = ("curves", "empirical", "fit", "indices", "order", "report", "specfun")


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Modules:
    """The library modules, by layer name (lk.fit is the module, not the function).

    The package's own import loads all of them; the CLI module runs only
    in the cli-cold child processes.
    """

    def __init__(self):
        self.package = importlib.import_module("leimkuhler")
        for name in LAYERS:
            setattr(self, name, importlib.import_module(f"leimkuhler.{name}"))


def run_passes(pass_once, seconds, ops, segments=None):
    """Run passes back to back until `seconds` have elapsed; at least one.

    Returns the raw pass times, the rescaled ones, the kernel times and
    the last output.  With a `segments` factory (of calibrate.Segments) each pass is timed
    in rescaled segments and pass_once gets its Segments; without one
    pass_once gets None, the rescaled times are None and there are no
    kernel times.
    """
    samples, rescaled, kernel_s, out = [], [], [], None
    start = clock()
    while True:
        gc.collect()
        timed = segments() if segments else None
        t0 = clock()
        if timed:
            timed.start()
        try:
            out = pass_once(timed)
        except Exception:
            ops.failed += 1
            traceback.print_exc()
        finally:
            if timed:
                timed.stop()
                kernel_s.extend(timed.kernel_s)
        samples.append(timed.work_s if timed else clock() - t0)
        rescaled.append(timed.ref_s if timed else None)
        if clock() - start >= seconds:
            return samples, rescaled, kernel_s, out


def cli_runner(spec, span_files=None, segments=None):
    """Run one CLI command in a fresh interpreter; return its exit code, output and time.

    With a span_files list the command runs under traced_cli.py and the
    path of its span file is appended to the list.  With segments, a
    segment is cut after each command, while no child process runs.
    """
    env = dict(os.environ)
    env.pop("LEIMKUHLER_CONFIG", None)
    src = str(Path(spec["root"]) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def run(name, argv):
        if span_files is not None:
            span_path = Path(spec["work"]) / f"spans-{len(span_files)}.json"
            env["PERFBENCH_SPANS"] = str(span_path)
            span_files.append(span_path)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "leimkuhler.cli", *argv]
        t0 = clock()
        proc = subprocess.run(cmd, cwd=spec["root"], env=env, capture_output=True,
                              text=True, timeout=120)
        elapsed = clock() - t0
        if segments:
            segments.cut()
        done = {"returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr, "seconds": elapsed}
        if name in ("simulate", "fit", "export_plot"):
            target = Path(argv[-1])
            done["file"] = target.read_text(encoding="utf-8") if target.exists() else None
        return done

    return run


def median_dict(dicts):
    """Per-key median over passes; counts keep an observed whole value."""
    out = {}
    for key in dicts[0]:
        values = [d[key] for d in dicts]
        whole = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if whole else statistics.median(values)
    return out


def curve_peak_mb(lk, path):
    dataset = lk.empirical.ingest(path)
    gc.collect()
    tracemalloc.start()
    try:
        lk.empirical.empirical_curve(dataset)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv):
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    workload = spec["workload"]
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    t0 = clock()
    lk = Modules()
    import_s = clock() - t0
    imported = Path(lk.package.__file__).resolve()
    if imported.parent.parent != src.resolve():
        print(f"leimkuhler imported from {imported}, not from {src}", file=sys.stderr)
        return 3

    sys.path.insert(0, str(HERE))
    import calibrate
    import checks
    import tracer
    import workloads

    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    loaded = workloads.load(workload, spec["inputs"], lk)
    print(json.dumps({"ready": clock(), "import_s": import_s}), flush=True)
    if "--setup-only" in argv:
        return 0

    inputs = spec["inputs"]
    cli_spec = {**inputs, "root": spec["root"]}
    ops = workloads.Ops()
    pass_fn = workloads.PASSES[workload]

    def untraced_pass(segments):
        return pass_fn(inputs, lk, loaded, ops, cli_runner(cli_spec, segments=segments))

    workloads.warm_up(workload, inputs, lk, loaded)
    import numpy
    import scipy

    result = {"leimkuhler_file": str(imported),
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if not spec["trace"]:
        # cli-cold's work runs in child processes: cut between commands
        segments = functools.partial(calibrate.Segments, timer=workload != "cli-cold")
        calibrate.measure()
        samples, rescaled, kernel_s, out = run_passes(untraced_pass, spec["seconds"], ops,
                                                      segments)
        result["rescaled_samples"] = rescaled
        result["kernel_median_s"] = statistics.median(kernel_s)
        usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    else:
        reference, _, _, _ = run_passes(untraced_pass, 0.0, ops)
        trace = tracer.Tracer()
        trace.install()
        span_files = []
        runner = cli_runner(cli_spec, span_files)
        per_pass, all_spans = [], []

        def traced_pass(_):
            span_files.clear()
            trace.enabled = True
            try:
                out = pass_fn(inputs, lk, loaded, ops, runner)
            finally:
                trace.enabled = False
                groups = [trace.take()] + [json.loads(p.read_text(encoding="utf-8"))
                                           for p in span_files if p.exists()]
                merged = tracer.merge_spans(groups)
                per_pass.append(tracer.layer_metrics(merged))
                all_spans.append(merged)
            if workload == "cli-cold":
                per_pass[-1].update({f"cli.{name}_s": done["seconds"] for name, done in out.items()})
            return out

        samples, _, _, out = run_passes(traced_pass, spec["seconds"], ops)
        layers = median_dict(per_pass)
        layers["trace.overhead_s"] = statistics.median(samples) - statistics.median(reference)
        path = inputs.get("path")
        layers["empirical.empirical_curve_peak_mb"] = curve_peak_mb(lk, path) if path else 0.0
        result["layers"] = layers
        result["reference_samples"] = reference
        trace_dir = HERE / ".work"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump_spans(all_spans, trace_dir / f"last-trace-{workload}.json")

    result["samples"] = samples
    if workload == "cli-cold" and out:
        result["cli_seconds"] = {name: done["seconds"] for name, done in out.items()}
    checks_run, quality = [], {}
    if out is not None:
        try:
            checks_run, quality = checks.CHECKS[workload](out, inputs, baseline, lk)
        except Exception:
            traceback.print_exc()
            checks_run = [{"name": "checks ran", "ok": False, "detail": traceback.format_exc()}]
    else:
        checks_run = [{"name": "a pass completed", "ok": False, "detail": ""}]
    ops.attempted += len(checks_run)
    ops.failed += sum(not c["ok"] for c in checks_run)
    result.update(attempted=ops.attempted, failed=ops.failed, checks=checks_run, quality=quality)
    Path(spec["work"], "result.json").write_text(json.dumps(result, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
