"""Every demo script, and every ``python`` block of the README, runs to
completion against the package in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
    re.MULTILINE | re.DOTALL,
)


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))]
)
def test_readme_python_block_runs(block):
    proc = _run_python(["-c", block])
    assert proc.returncode == 0, proc.stderr
