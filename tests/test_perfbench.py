"""Smoke run of the benchmark harness, so that it cannot rot unnoticed."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fk5_short_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fk5", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


def test_vdm5_short_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vdm5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


def test_traced_compute_run_reaches_every_layer():
    # the tracer binds package names from outside; a renamed or moved
    # function would leave its layer with no calls
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute", "--seed", "2",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    for name in ("polycore.addsub.calls", "hecke.delete.calls", "ddo.apply_c.calls"):
        assert result["metrics"][name]["value"] > 0, name


def test_traced_fk5_run_is_correct():
    # the tracer patches Poly's printer methods by name, and its hook on
    # schubert.schubert_polynomial names a function that has left src/;
    # neither may break a traced run
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fk5", "--seed", "2",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
