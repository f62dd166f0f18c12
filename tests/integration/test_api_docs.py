"""Freshness check: docs/API.md must match the current public surface."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_api_reference_is_fresh():
    # Run as documented: from the repository root, without PYTHONPATH.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "gen_api_docs.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_api_reference_covers_every_package():
    text = (REPO_ROOT / "docs" / "API.md").read_text()
    for pkg in (
        "repro.dag",
        "repro.sim",
        "repro.core",
        "repro.speedup",
        "repro.workloads",
        "repro.metrics",
        "repro.theory",
        "repro.experiments",
        "repro.obs",
    ):
        assert f"## `{pkg}`" in text
