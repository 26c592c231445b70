"""Iterative LP rounding: build an integral center by repeatedly solving
the relaxation and permanently pinning the most confident positions.

Three drivers share one engine:

* ``algorithm_a``  pins a single position per LP re-solve (the largest
  fractional value anywhere), so it performs exactly n solves.
* ``algorithm_b``  pins, per solve, every position holding a value at or
  above a threshold theta; when none qualifies it falls back to the single
  argmax pin. Between 1 and n solves.
* ``algorithm_c``  runs the threshold driver while recording, for each
  argmax-branch pin, the winning value (``first``) and the runner-up
  symbol (``second``). If the result is not certified optimal against the
  LP ceiling, it retries from the least confident argmax pins with the
  runner-up symbol pre-pinned, and keeps the best center found.

Tie-breaking is everywhere "lowest position index, then alphabet order",
so identical inputs give identical traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import CenterString, Instance, objective
from .errors import LpFailureError
from .lp import LpSolution, build_csp_lp, lp_lower_bound, solve_lp
from .simplex import OPTIMAL

BRANCH_THRESHOLD = "threshold"
BRANCH_ARGMAX = "argmax"
# A position pinned before a retry run's first solve.
BRANCH_PRESET = "preset"

# Values exactly at theta must qualify despite floating-point noise.
_THETA_SLACK = 1e-9


@dataclass(frozen=True)
class Fix:
    """One position pinned to one symbol, with the LP value that chose it."""

    position: int
    symbol: str
    value: float
    branch: str


@dataclass(frozen=True)
class RoundingIteration:
    """One LP solve and the pins applied right after it."""

    dvalue: float
    fixes: tuple[Fix, ...]


@dataclass(frozen=True)
class RoundingTrace:
    """Per-run record: every position appears in exactly one fix set.

    ``first`` maps argmax-pinned positions to the fractional value of the
    chosen symbol at pin time; ``second`` maps them to the runner-up
    symbol. Threshold pins are confident and are not recorded there.
    """

    iterations: tuple[RoundingIteration, ...]
    first: Mapping[int, float]
    second: Mapping[int, str]

    @property
    def lp_solves(self) -> int:
        return len(self.iterations)


@dataclass(frozen=True)
class RoundingResult:
    """A driver's center and trace, plus the root LP its first solve made
    and that solve's wall time in ms, model build included."""

    center: CenterString
    trace: RoundingTrace
    root_lp: LpSolution = field(compare=False)
    root_lp_ms: float = field(compare=False)

    def __post_init__(self) -> None:
        if self.center.objective < self.lp_bound:
            raise ValueError("center objective fell below the LP lower bound")

    @property
    def lp_bound(self) -> int:
        return lp_lower_bound(self.root_lp)

    @property
    def exact_certified(self) -> bool:
        """The center meets the LP ceiling, so it is optimal."""
        return self.center.objective == self.lp_bound


def _check_theta(theta: float) -> None:
    # Below 0.5 two symbols of one position could both qualify.
    if not 0.5 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0.5, 1.0], got {theta}")


def solve_relaxation(
    inst: Instance, fixed: Mapping[int, str] | None = None
) -> LpSolution:
    """Optimal LP relaxation of ``inst`` with ``fixed`` positions pinned: the
    one place where a non-optimal LP status becomes LpFailureError."""
    sol = solve_lp(build_csp_lp(inst, fixed))
    if sol.status != OPTIMAL:
        raise LpFailureError(
            f"LP solve failed with status {sol.status!r}", status=sol.status
        )
    return sol


def _argmax_pin(
    x: np.ndarray, unfixed: np.ndarray, alphabet
) -> tuple[int, str, float, str | None]:
    """Largest fractional value over unfixed positions.

    Returns (position, symbol, value, runner_up). Flat argmax over the
    position-major matrix realizes the lowest-position-then-alphabet tie
    order. ``runner_up`` is None for one-symbol alphabets.
    """
    masked = np.where(unfixed[:, None], x, -np.inf)
    flat = int(np.argmax(masked))
    position, a = divmod(flat, x.shape[1])
    value = float(x[position, a])
    if x.shape[1] == 1:
        runner_up = None
    else:
        row = x[position].copy()
        row[a] = -np.inf
        runner_up = alphabet.symbols[int(np.argmax(row))]
    return position, alphabet.symbols[a], value, runner_up


def _round_once(
    inst: Instance,
    theta: float | None,
    preset: dict[int, str] | None = None,
) -> RoundingResult:
    """One full rounding pass.

    ``theta`` None means single-pin mode (one argmax pin per solve);
    otherwise threshold batch mode. ``preset`` positions are pinned before
    the first solve and recorded in the first iteration's fix set.
    """
    n = inst.n
    alphabet = inst.alphabet
    fixed: dict[int, str] = dict(preset or {})
    unfixed = np.ones(n, dtype=bool)
    for j in fixed:
        unfixed[j] = False
    preset_pending = sorted(fixed)
    iterations: list[RoundingIteration] = []
    first: dict[int, float] = {}
    second: dict[int, str] = {}

    def trace() -> RoundingTrace:
        return RoundingTrace(
            tuple(iterations), MappingProxyType(first), MappingProxyType(second)
        )

    t0 = time.perf_counter()
    while True:
        try:
            sol = solve_relaxation(inst, fixed)
        except LpFailureError as exc:
            exc.trace = trace()
            raise
        if not iterations:
            root, root_ms = sol, (time.perf_counter() - t0) * 1000.0
        fixes: list[Fix] = []
        for j in preset_pending:
            fixes.append(
                Fix(j, fixed[j], float(sol.value(fixed[j], j)), BRANCH_PRESET)
            )
        preset_pending = []

        if unfixed.any():
            if theta is not None:
                row_best = sol.x.max(axis=1)
                batch = np.where(unfixed & (row_best >= theta - _THETA_SLACK))[0]
                for j in batch:
                    a = int(np.argmax(sol.x[j]))
                    fixes.append(
                        Fix(int(j), alphabet.symbols[a],
                            float(sol.x[j, a]), BRANCH_THRESHOLD)
                    )
            if theta is None or not any(f.branch == BRANCH_THRESHOLD for f in fixes):
                j, symbol, value, runner_up = _argmax_pin(sol.x, unfixed, alphabet)
                fixes.append(Fix(j, symbol, value, BRANCH_ARGMAX))
                first[j] = value
                if runner_up is not None:
                    second[j] = runner_up

        for f in fixes:
            if f.branch != BRANCH_PRESET:
                fixed[f.position] = f.symbol
                unfixed[f.position] = False
        iterations.append(RoundingIteration(sol.dvalue, tuple(fixes)))
        if not unfixed.any():
            break

    center = objective("".join(fixed[j] for j in range(n)), inst)
    return RoundingResult(center, trace(), root, root_ms)


def algorithm_a(inst: Instance) -> RoundingResult:
    """Single-pin iterative rounding: exactly n LP solves, one pin each."""
    return _round_once(inst, theta=None)


def algorithm_b(inst: Instance, theta: float = 0.9) -> RoundingResult:
    """Threshold batch rounding: pin all values >= theta per solve, with a
    single-argmax fallback when no position qualifies."""
    _check_theta(theta)
    return _round_once(inst, theta=theta)


def algorithm_c(
    inst: Instance, theta: float = 0.9, retries: int = 8
) -> RoundingResult:
    """Threshold rounding plus second-best retries.

    If the base run's objective already equals the LP ceiling it is
    returned as certified. Otherwise the ``retries`` least confident
    argmax pins (smallest ``first`` value, then lowest position) are each
    retried with the runner-up symbol pre-pinned, and the best center over
    all runs wins; ties keep the earliest run.
    """
    _check_theta(theta)
    if retries < 1:
        raise ValueError(f"retries must be >= 1, got {retries}")
    base = _round_once(inst, theta=theta)
    if base.exact_certified:
        return base

    base_trace = base.trace
    candidates = sorted(
        (k for k in base_trace.first if k in base_trace.second),
        key=lambda k: (base_trace.first[k], k),
    )[:retries]
    best = base
    for k in candidates:
        retry = _round_once(inst, theta=theta, preset={k: base_trace.second[k]})
        if retry.center.objective < best.center.objective:
            best = replace(best, center=retry.center, trace=retry.trace)
    return best
