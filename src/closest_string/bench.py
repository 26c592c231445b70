"""Benchmark batches: LP value, heuristic objective, optional exact optimum.

Per (m, n) entry a batch of seeded instances is generated (instance i uses
seed XOR i), each is measured, and one row of averages is emitted. The LP
column averages per-instance ceilings, while the max distance error
compares heuristic objectives against the *fractional* LP optima, so
sub-integer errors are representable. The LP column is the rounding
driver's own first (root) solve, so ``lp_ms`` is part of ``alg_ms``.
Timing averages exclude the first instance of a batch (warm-up) whenever
the batch has more than one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import Alphabet, Instance
from .errors import CapacityError
from .exact import ExactResult, branch_and_bound, brute_force_center
from .instances import GeneratorConfig, generate_uniform
from .lp import build_csp_lp, solve_lp  # noqa: F401 (traced by perfbench/spans.py)
from .rounding import RoundingResult, algorithm_a, algorithm_b, algorithm_c

CSV_HEADER = (
    "m,n,batch,lp_avg,alg_avg,exact_avg,max_dist_error,lp_ms,alg_ms,exact_ms"
)

HEURISTICS = ("a", "b", "c")
EXACT_SOLVERS = ("brute", "bnb")


@dataclass(frozen=True)
class InstanceRecord:
    """Measurements for one generated instance."""

    seed: int
    lp_value: float
    lp_bound: int
    alg_objective: int
    alg_certified: bool
    exact_optimum: int | None
    lp_ms: float
    alg_ms: float
    exact_ms: float | None

    @property
    def dist_error(self) -> float:
        return abs(self.alg_objective - self.lp_value)


@dataclass(frozen=True)
class BenchRow:
    """One emitted table row: averages over a batch at fixed (m, n)."""

    m: int
    n: int
    batch: int
    lp_avg: float
    alg_avg: float
    exact_avg: float | None
    max_dist_error: float
    lp_ms: float
    alg_ms: float
    exact_ms: float | None


def run_solver(
    inst: Instance,
    name: str,
    theta: float,
    retries: int,
    time_limit: float,
    node_limit: int,
    lower_bound: int = 0,
) -> RoundingResult | ExactResult:
    """Run the solver called ``name``: a rounding heuristic from HEURISTICS
    or an exact oracle from EXACT_SOLVERS, each given the options it takes.
    Only bnb takes ``lower_bound``; brute stays independent of the LP."""
    if name == "a":
        return algorithm_a(inst)
    if name == "b":
        return algorithm_b(inst, theta)
    if name == "c":
        return algorithm_c(inst, theta, retries)
    if name == "brute":
        return brute_force_center(inst, node_limit=node_limit)
    if name == "bnb":
        return branch_and_bound(inst, time_limit=time_limit, lower_bound=lower_bound)
    raise ValueError(f"unknown solver {name!r}")


def measure_instance(
    inst: Instance,
    seed: int,
    alg: str,
    theta: float,
    retries: int,
    exact: str | None,
    time_limit: float,
    node_limit: int,
) -> InstanceRecord:
    """Heuristic run, with its root LP, and optional exact solve for one
    instance."""
    if alg not in HEURISTICS or exact not in (*EXACT_SOLVERS, None):
        raise ValueError(f"need a heuristic and an optional exact solver: {alg!r}, {exact!r}")
    t0 = time.perf_counter()
    res = run_solver(inst, alg, theta, retries, time_limit, node_limit)
    alg_ms = (time.perf_counter() - t0) * 1000.0

    exact_optimum: int | None = None
    exact_ms: float | None = None
    if exact is not None:
        t0 = time.perf_counter()
        try:
            er = run_solver(
                inst, exact, theta, retries, time_limit, node_limit, res.lp_bound
            )
        except CapacityError:
            er = None
        exact_ms = (time.perf_counter() - t0) * 1000.0
        if er is not None and er.certified:
            exact_optimum = er.optimum

    return InstanceRecord(
        seed=seed,
        lp_value=res.root_lp.dvalue,
        lp_bound=res.lp_bound,
        alg_objective=res.center.objective,
        alg_certified=res.exact_certified,
        exact_optimum=exact_optimum,
        lp_ms=res.root_lp_ms,
        alg_ms=alg_ms,
        exact_ms=exact_ms,
    )


def measure_batch(
    m: int,
    n: int,
    alphabet: Alphabet,
    batch: int,
    seed: int,
    alg: str = "c",
    theta: float = 0.9,
    retries: int = 8,
    exact: str | None = None,
    time_limit: float = 60.0,
    node_limit: int = 2_000_000,
) -> list[InstanceRecord]:
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    records = []
    for i in range(batch):
        inst_seed = seed ^ i
        inst = generate_uniform(GeneratorConfig(m=m, n=n, alphabet=alphabet, seed=inst_seed))
        records.append(
            measure_instance(
                inst, inst_seed, alg, theta, retries, exact, time_limit, node_limit
            )
        )
    return records


def make_row(m: int, n: int, records: list[InstanceRecord]) -> BenchRow:
    batch = len(records)
    timed = records[1:] if batch > 1 else records
    have_exact = all(r.exact_optimum is not None for r in records)
    exact_times = [r.exact_ms for r in timed if r.exact_ms is not None]
    return BenchRow(
        m=m,
        n=n,
        batch=batch,
        lp_avg=sum(r.lp_bound for r in records) / batch,
        alg_avg=sum(r.alg_objective for r in records) / batch,
        exact_avg=(
            sum(r.exact_optimum for r in records) / batch if have_exact else None  # type: ignore[misc]
        ),
        max_dist_error=max(r.dist_error for r in records),
        lp_ms=sum(r.lp_ms for r in timed) / len(timed),
        alg_ms=sum(r.alg_ms for r in timed) / len(timed),
        exact_ms=(
            sum(exact_times) / len(exact_times) if exact_times else None
        ),
    )


def run_bench(
    m_list: list[int],
    n_list: list[int],
    alphabet: Alphabet,
    batch: int = 3,
    seed: int = 0,
    alg: str = "c",
    theta: float = 0.9,
    retries: int = 8,
    exact: str | None = None,
    time_limit: float = 60.0,
    node_limit: int = 2_000_000,
) -> list[BenchRow]:
    """One row per (m, n) pair, in the order the flag lists give."""
    rows = []
    for m in m_list:
        for n in n_list:
            records = measure_batch(
                m, n, alphabet, batch, seed, alg, theta, retries,
                exact, time_limit, node_limit,
            )
            rows.append(make_row(m, n, records))
    return rows


def _fmt(value: float | None, fmt: str) -> str:
    return "" if value is None else format(value, fmt)


def rows_to_csv(rows: list[BenchRow]) -> str:
    """Fixed column order and float formats, so output bytes are stable."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.m),
                    str(r.n),
                    str(r.batch),
                    format(r.lp_avg, ".2f"),
                    format(r.alg_avg, ".2f"),
                    _fmt(r.exact_avg, ".2f"),
                    format(r.max_dist_error, ".2f"),
                    format(r.lp_ms, ".1f"),
                    format(r.alg_ms, ".1f"),
                    _fmt(r.exact_ms, ".1f"),
                ]
            )
        )
    return "\n".join(lines) + "\n"
