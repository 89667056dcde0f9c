"""The demo scripts run to the end against the package in src.

Each runs in its own process on a copy of demos/, so that the files
demo 04 writes stay out of the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run(tmp_path):
    demos = shutil.copytree(ROOT / "demos", tmp_path / "demos",
                            ignore=shutil.ignore_patterns("output"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scripts = sorted(demos.glob("0*.py"))
    assert len(scripts) == 5
    for script in scripts:
        done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, f"{script.name}:\n{done.stderr}"
    assert (demos / "output").is_dir()
