"""Smoke test of the end-to-end benchmark (tiny inputs, about 20 s).

Run from the repository root::

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + list(WORKLOADS))
    assert all(UNIT.match(m["unit"])
               for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert all(0 <= m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert "setup_s" in [m["name"] for m in BENCH["end_to_end"]]


def check_output(proc, catalog, workloads):
    """Every metric of ``catalog`` printed, with its unit, per workload."""
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= len(workloads)
    prefix = len(workloads) > 1
    expected = {(f"{w}.{m['name']}" if prefix else m["name"]): m["unit"]
                for w in workloads for m in catalog}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    for metric in catalog:
        printed = re.compile(
            rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
            rf"{re.escape(metric['unit'])}\s", re.M)
        assert len(printed.findall(proc.stdout)) == len(workloads), metric


def test_every_workload_prints_every_end_to_end_metric():
    proc = run_bench("--smoke", "--seconds", "0", "--trace", "0")
    check_output(proc, BENCH["end_to_end"], list(WORKLOADS))


def test_a_traced_run_prints_every_per_layer_metric():
    # search reaches the most layers: pool, publish, cache, batching.
    proc = run_bench("--smoke", "--seconds", "0", "--trace", "1",
                     "--workload", "search")
    check_output(proc, BENCH["per_layer"], ["search"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "fig2", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
