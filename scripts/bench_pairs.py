"""Compare the benchmark's end-to-end metrics of a parent revision and
the working tree in alternating pairs of runs.

The script exports REV with `git archive`, and the working tree's
tracked and untracked-but-not-ignored files, into two fresh
directories, so that both sides run from the same kind of checkout:
perfbench's wall_s has been seen to move by 5% with the checkout
directory alone.  For each workload and seed it then runs

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

once in each directory, the parent first on odd seeds and the change
first on even ones.  For each workload and end-to-end metric of
BENCHMARK.json it prints the parent's and the change's medians, the
parent's interquartile range, the number of pairs in which the change
is better, and, "per pair", the median and interquartile range of the
change's run over the parent's in each pair, less 1.  It then lists
every run that failed: a non-zero exit, no result line, or a result
with failed operations.

Read the per-pair figure for the size of a change.  The two runs of a
pair run back to back, so the machine's drift between pairs, which
moves the medians of both sides by several percent from one set of
pairs to the next, mostly cancels in their ratio; its IQR shows how
far single pairs spread.  The medians, the parent's IQR and the count
of better pairs stay for the benchmark's own rule: a gain needs the
change better in nine of ten pairs and a median better by more than
the parent's IQR.  Run from the repository root:

    python3 scripts/bench_pairs.py --parent REV [--workloads W,...]
        [--pairs N] [--first-seed S] [--workdir DIR]

By default it runs ten pairs (seeds 1 to 10) of each of the four
workloads, about half an hour.  The two copies go into a temporary
directory that is removed at the end, or into --workdir, a new
directory that is kept.  Progress goes to standard error.  The script
changes nothing in the checkout, perfbench/ included.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the run length of BENCHMARK.json, the same for both sides
SECONDS = 15
WORKLOADS = ("report-bundled", "large-n", "cli-cold", "model-sweep")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_revision(rev, dest):
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", "--format=tar", rev),
                   check=True)


def export_working_tree(dest):
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode("utf-8").split("\0"):
        source = ROOT / name
        # a file deleted from the tree but still in the index is skipped
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(tree, workload, seed):
    """(metrics or None, failure or None) of one benchmark run in tree."""
    # the workers put the tree's src first; an inherited path is not wanted
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if result["failed"] or not result["correct"]:
        return metrics, f"{result['failed']} of {result['attempted']} operations failed"
    return metrics, None


def quartile_range(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(workload, pairs, declared):
    """One line per metric over the pairs in which both runs gave metrics."""
    complete = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not complete:
        print(f"{workload:15s} no pair in which both runs gave metrics")
        return
    for metric in declared:
        name = metric["name"]
        parent = [p[name] for p, _ in complete]
        change = [c[name] for _, c in complete]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        before, after = statistics.median(parent), statistics.median(change)
        ratios = [c / p - 1.0 for p, c in zip(parent, change) if p]
        per_pair = (f"{statistics.median(ratios):+7.2%} (IQR {quartile_range(ratios):.2%})"
                    if ratios else "n/a")
        unit = metric["unit"]
        print(f"{workload:15s} {name:12s} parent {before:10.4f} {unit}  change {after:10.4f} {unit} "
              f"({(after - before) / before:+7.2%})  parent IQR {quartile_range(parent):.4f}  "
              f"change better in {wins}/{len(complete)}  per pair {per_pair}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default all four)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workdir", default=None,
                        help="new directory for the two copies, kept at the end")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = set(workloads) - set(WORKLOADS)
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs must be >= 1")

    if args.workdir is None:
        holder = tempfile.TemporaryDirectory(prefix="bench-pairs-")
        base = Path(holder.name)
    else:
        holder, base = None, Path(args.workdir)
        base.mkdir(parents=True)
    try:
        trees = {"parent": base / "parent", "change": base / "change"}
        export_revision(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        failures = []
        for workload in workloads:
            pairs = []
            for seed in range(args.first_seed, args.first_seed + args.pairs):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                got = {}
                for side in order:
                    got[side], failure = run_once(trees[side], workload, seed)
                    shown = " ".join(f"{k}={v:.4g}" for k, v in (got[side] or {}).items())
                    print(f"{workload} seed {seed} {side}: {failure or shown}", file=sys.stderr)
                    if failure:
                        failures.append(f"{workload} seed {seed} {side}: {failure}")
                pairs.append((got["parent"], got["change"]))
            summarize(workload, pairs, declared)
        print("failed runs:" if failures else "failed runs: none")
        for failure in failures:
            print(f"  {failure}")
        return 1 if failures else 0
    finally:
        if holder is not None:
            holder.cleanup()


if __name__ == "__main__":
    sys.exit(main())
