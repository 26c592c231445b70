"""numpy is the only runtime dependency: scipy, hypothesis and pytest are
test-only and must never load with the package or its CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TEST_ONLY = ("scipy", "hypothesis", "pytest")


def test_package_and_cli_load_no_test_only_module():
    code = (
        "import json, sys\n"
        "import closest_string, closest_string.cli\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {TEST_ONLY!r})))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []
