"""The benchmark's tiny run, untraced and traced, on a copy of the checkout.

The traced run wraps program functions by name (``forward_step``,
``run_backward``, ``invert_step``, ``mean_field_gradient``, ...), so a
refactor that renames or drops one of them fails here.  The copy keeps the
run's working files out of the source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_runs")
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def run_tiny(checkout, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
         "--seed", "7", "--seconds", "1", "--trace", trace],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_benchmark_run_is_correct(checkout, trace):
    run_tiny(checkout, "mix-ref", trace)


def test_tiny_swiss_benchmark_run_is_correct(checkout):
    # the one workload whose argv passes --kind swiss --noise and runs the s=0 log branch
    run_tiny(checkout, "swiss-ref", "0")


def test_tiny_swiss_benchmark_traced_run_is_correct(checkout):
    # the traced hooks read each invert_step residual as a scalar; this runs
    # them over the s=0 inner loop
    run_tiny(checkout, "swiss-ref", "1")
