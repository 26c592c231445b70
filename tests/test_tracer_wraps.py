"""The benchmark's tracer wraps module attributes by name, so a rename or
deletion in the package would break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPS
    for module, attr, _ in spans.WRAPS:
        target = importlib.import_module(f"closest_string.{module}")
        assert callable(getattr(target, attr, None)), f"{module}.{attr}"
