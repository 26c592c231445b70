"""The benchmark's tracer wraps module attributes by name and reads counts
from their arguments and results, so a rename, a deletion or a signature
change in the package would break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

from closest_string import Alphabet, GeneratorConfig, generate_uniform, serialize_instance

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.WRAPS
    for module, attr, _ in spans.WRAPS:
        target = importlib.import_module(f"closest_string.{module}")
        assert callable(getattr(target, attr, None)), f"{module}.{attr}"


def test_recorders_fill_their_counts(tmp_path):
    spans = _load_spans()
    modules = {
        name: importlib.import_module(f"closest_string.{name}")
        for name in {module for module, _, _ in spans.WRAPS}
    }
    inst = generate_uniform(
        GeneratorConfig(m=5, n=12, alphabet=Alphabet.from_string("ACGT"), seed=1)
    )
    f = tmp_path / "inst.csp"
    f.write_text(serialize_instance(inst))
    tracer = spans.Tracer(modules)
    tracer.install()
    tracer.active = True
    try:
        modules["bench"].measure_instance(
            inst, 1, alg="c", theta=0.9, retries=8, exact="bnb",
            time_limit=60.0, node_limit=2_000_000,
        )
        assert modules["cli"].main(["solve", "--alg", "bnb", "--in", str(f)]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()

    assert [(s.name, s.error) for s in tracer.spans if s.error] == []

    def infos(name):
        found = [s.info for s in tracer.spans if s.name == name]
        assert found, f"no {name} span"
        return found

    # Rounding builds a model for every solve it makes, so a refactor that
    # stopped calling build_csp_lp would read as zero lp.build_s.
    def through_rounding(name):
        return [
            s for s in tracer.spans
            if s.name == name and s.parent >= 0
            and tracer.spans[s.parent].name.startswith("rounding.")
        ]

    solves = through_rounding("lp.solve_lp")
    assert solves and len(through_rounding("lp.build_csp_lp")) == len(solves)
    for info in infos("lp.solve_lp"):
        assert info["pivots"] >= 0
    for info in infos("simplex.solve_bounded"):
        assert info["pivots"] >= 0 and info["tableau_bytes"] > 0
    for info in infos("exact.branch_and_bound"):
        assert info["nodes"] >= 0
