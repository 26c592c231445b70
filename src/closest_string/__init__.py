"""Closest string problem toolkit.

Find a center string minimizing the maximum Hamming distance to a set of
equal-length strings: an LP relaxation with a self-contained
bounded-variable simplex, iterative rounding heuristics built on it,
exact oracles for verification, seeded instance generation, and a
benchmark harness.
"""

from .bench import BenchRow, InstanceRecord, make_row, measure_batch, run_bench, rows_to_csv
from .core import (
    Alphabet,
    CenterString,
    Instance,
    hamming_distance,
    objective,
    validate_instance,
)
from .errors import CapacityError, FormatError, LpFailureError
from .exact import ExactResult, branch_and_bound, brute_force_center, dual_bound
from .instances import (
    GeneratorConfig,
    generate_uniform,
    parse_instance,
    serialize_instance,
)
from .lp import EPSILON, LpModel, LpSolution, build_csp_lp, lp_lower_bound, solve_lp
from .rounding import (
    Fix,
    RoundingIteration,
    RoundingResult,
    RoundingTrace,
    algorithm_a,
    algorithm_b,
    algorithm_c,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BenchRow",
    "CapacityError",
    "CenterString",
    "EPSILON",
    "ExactResult",
    "Fix",
    "FormatError",
    "GeneratorConfig",
    "Instance",
    "InstanceRecord",
    "LpFailureError",
    "LpModel",
    "LpSolution",
    "RoundingIteration",
    "RoundingResult",
    "RoundingTrace",
    "algorithm_a",
    "algorithm_b",
    "algorithm_c",
    "branch_and_bound",
    "brute_force_center",
    "build_csp_lp",
    "dual_bound",
    "generate_uniform",
    "hamming_distance",
    "lp_lower_bound",
    "make_row",
    "measure_batch",
    "objective",
    "parse_instance",
    "rows_to_csv",
    "run_bench",
    "serialize_instance",
    "solve_lp",
    "validate_instance",
]
