"""The benchmark's own checks.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the
repository root (they are not part of the ``tests/`` suite).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_perturbed_golden_counts_as_failed(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    golden_path = tmp_path / "perfbench" / "golden.json"
    goldens = json.loads(golden_path.read_text())
    cells = goldens["fine-epoch"]["seeds"]["7"]
    first = sorted(cells)[0]
    cells[first] = "0" * 64
    golden_path.write_text(json.dumps(goldens))

    proc = _run(["--workload", "fine-epoch", "--seed", "7",
                 "--seconds", "0", "--trace", "0"], cwd=tmp_path)

    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # One pass over six cells: only the perturbed cell may fail, so the
    # other five matched their stored goldens.
    assert result["attempted"] == 6
    assert result["failed"] == 1
    assert result["correct"] is False
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_layer_metrics_match_benchmark_json():
    metrics = run.layer_metrics(tracing.Tracer(), passes=1, overhead=1.0)
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: unit for k, (_v, unit) in metrics.items()} == expected


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run(["--workload", "fine-epoch", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
