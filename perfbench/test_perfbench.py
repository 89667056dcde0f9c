"""Self-test of the benchmark, on the tiny inputs of --smoke.

Run from the root of the repository (takes about two minutes):

    python3 -m pytest perfbench/test_perfbench.py

Every workload, untraced and traced, must print every metric that
BENCHMARK.json names, with its unit, and pass all its checks.  The
timer of calibrate.Segments cuts inside a long call and never counts
kernel time as work.  Counts
from the traced run repeat exactly, and without the program the
benchmark fails without printing a result.
"""

import functools
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def smoke_result(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit_and_every_check_passes(workload, trace):
    result, stderr = smoke_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert metric["value"] > 0 or trace
    assert f"{workload:15s} error_rate" in stderr
    assert '"checks_failed": []' in stderr


def test_traced_counts_repeat_exactly():
    first, _ = smoke_result("report-bundled", 1)
    again = json.loads(run(ROOT, "report-bundled", 1).stdout.strip().splitlines()[-1])
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: again["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["fit.pagb.evaluate_calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run(tmp_path, "report-bundled", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_segments_cut_inside_a_long_call_and_never_count_kernel_time():
    segments = calibrate.Segments(timer=True)
    segments.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 2.5:
        pass
    elapsed = time.perf_counter() - t0
    segments.stop()
    inside = segments.kernel_s[1:-1]
    assert len(inside) >= 2
    assert abs(segments.work_s + sum(inside) - elapsed) < 0.05
    speeds = [calibrate.CAL_REF_S / k for k in segments.kernel_s]
    assert min(speeds) * segments.work_s <= segments.ref_s <= max(speeds) * segments.work_s
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_IGN
