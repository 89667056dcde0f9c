"""Benchmark of the leimkuhler pipeline: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: report-bundled, large-n, cli-cold, model-sweep (see
perfbench/README.md).  The run generates the workload's inputs from the
seed, times the set-up of fresh processes, then runs passes in a fresh
worker process for S seconds (a closed loop: one client, passes back to
back) and checks the outputs.  With --trace 0 the result line carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run.  --smoke runs tiny inputs.  A human-readable summary and the full
record (samples, checks, quality numbers) go to standard error; the last
line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
RUN_TIMEOUT_S = 170.0
# one client on one CPU: no BLAS or OpenMP thread pools in the workers
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import clock  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def benchmark_metrics():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def start_worker(spec_path, setup_only, deadline):
    """Start a worker; return (process, setup seconds, import seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path)]
    if setup_only:
        cmd.append("--setup-only")
    started = clock()
    env = {**os.environ, **SINGLE_THREAD}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited during set-up with code {proc.wait(deadline - clock())}")
        ready = json.loads(line)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready["ready"] - started, ready["import_s"]


def finish(proc, deadline):
    try:
        code = proc.wait(max(deadline - clock(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"worker failed with exit code {code}")


def run(args):
    deadline = clock() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "leimkuhler" / "__init__.py").is_file():
        raise RuntimeError(f"no leimkuhler package under {ROOT / 'src'}")
    if not (ROOT / workloads.BUNDLED).is_file():
        raise RuntimeError(f"bundled dataset {workloads.BUNDLED} is missing")
    bench = benchmark_metrics()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    mode = "smoke" if args.smoke else "full"
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, mode, ROOT, work)
        spec = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                "root": str(ROOT), "work": str(work), "inputs": inputs}
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        calibrate.pin_to_one_cpu()
        calibrate.measure()
        setup, setup_raw, imports = [], [], []
        for _ in range(SETUP_PROBES):
            before = calibrate.measure()
            proc, setup_s, import_s = start_worker(spec_path, True, deadline)
            finish(proc, deadline)
            after = calibrate.measure()
            setup.append(calibrate.rescale(setup_s, before, after))
            setup_raw.append(setup_s)
            imports.append(import_s)
        proc, worker_setup_s, import_s = start_worker(spec_path, False, deadline)
        finish(proc, deadline)
        imports.append(import_s)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = result["samples"]
    if args.trace:
        values = dict(result["layers"])
        values["import.leimkuhler_s"] = statistics.median(imports)
        declared = bench["per_layer"]
    else:
        values = {"wall_s": statistics.median(result["rescaled_samples"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mode": mode,
        "closed_loop": {"clients": 1, "processes": 1, "passes": len(samples)},
        "pass_samples_s": samples, "rescaled_pass_samples_s": result.get("rescaled_samples"),
        "setup_samples_s": setup_raw, "rescaled_setup_samples_s": setup,
        "worker_setup_s": worker_setup_s, "import_samples_s": imports,
        "kernel_median_s": result.get("kernel_median_s"), "kernel_ref_s": calibrate.CAL_REF_S,
        "error_rate": result["failed"] / max(result["attempted"], 1),
        "attempted": result["attempted"], "failed": result["failed"],
        "leimkuhler_file": result["leimkuhler_file"],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), **result["versions"]},
        "inputs": {k: v for k, v in inputs.items() if k in ("sha256", "n", "total", "mode")},
        "checks_failed": [c for c in result["checks"] if not c["ok"]],
        "checks_passed": len([c for c in result["checks"] if c["ok"]]),
        "quality": result["quality"],
    }
    for key in ("cli_seconds", "reference_samples"):
        if key in result:
            record[key] = result[key]
    return record, metrics


def main(argv=None):
    args = parse_args(argv)
    try:
        record, metrics = run(args)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=1, default=str), file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload:15s} {name:42s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload:15s} {'error_rate':42s} {record['error_rate']:.6g} "
          f"({record['failed']}/{record['attempted']})", file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
