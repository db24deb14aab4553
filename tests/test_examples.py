"""The example scripts built on the simulator API run end to end.

Each runs as a subprocess with its own pipeline cache and temp dir, so
an example can neither replay a stale cache entry nor leave files
behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,expect",
    [
        ("accelerator_sim.py", "bitmod-lossy"),
        ("policy_demo.py", "modeled generative request"),
    ],
)
def test_example_runs(script, expect, tmp_path):
    path = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = dict(
        os.environ,
        PYTHONPATH=path,
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        TMPDIR=str(tmp_path),
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert expect in proc.stdout
