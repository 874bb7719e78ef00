"""Benchmark smoke test: the traced pass of ``bench/run.py`` reads layer
functions by name (``pauli.stabilizer_projector``, ``zpblinalg.kernel``
and the like), so a renamed or deleted one would stop it with a KeyError.
The params and distance passes also check the first block of seed-0
reports against their reference digests.  It runs here on a copy of the checkout, so
nothing is written under the repository's ``bench/``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["verify-small", "params-mixed", "distance-deep"])
def test_traced_workload_runs_on_a_copy(tmp_path, workload):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    # the benchmark imports eaqring from the copy's src/ and nowhere else
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = {p: p.stat().st_mtime_ns for p in (ROOT / "bench").rglob("*")}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--trace", "1", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert (tmp_path / "bench" / "out").is_dir()
    assert {p: p.stat().st_mtime_ns for p in (ROOT / "bench").rglob("*")} == before
