"""Iterative LP rounding: build an integral center by repeatedly solving
the relaxation and permanently pinning the most confident positions.

One loop serves all three drivers. After each solve it pins every free
position whose best value is at least a threshold theta; when none is, it
pins the single largest value over the free positions, and that argmax
pin records its position's runner-up symbol.

* ``algorithm_a``  is that pass with no threshold (theta = inf): one
  argmax pin per solve, so exactly n solves.
* ``algorithm_b``  is the threshold pass: between 1 and n solves.
* ``algorithm_c``  runs the threshold pass. If the result is not certified
  optimal against the LP ceiling, it retries from the least confident
  argmax pins with their runner-up symbol pre-pinned, and keeps the best
  center found. A retry stops at the first solve whose ceiling reaches
  the best objective so far, since it could then only tie or lose, and
  the retries stop once the best center meets the root LP ceiling.

Each re-solve warm-starts the simplex from the argmax rounding of the
previous solve, and each retry's first solve from that of the base run's
root; the root itself starts from the column consensus.

Tie-breaking is everywhere "lowest position index, then alphabet order",
so identical inputs give identical traces.

A failed LP solve raises LpFailureError carrying the trace made before it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import CenterString, Instance, objective
from .errors import LpFailureError
from .lp import LpSolution, build_csp_lp, lp_lower_bound, solve_lp

BRANCH_THRESHOLD = "threshold"
BRANCH_ARGMAX = "argmax"
# A position pinned before a retry run's first solve.
BRANCH_PRESET = "preset"

# Values exactly at theta must qualify despite floating-point noise.
_THETA_SLACK = 1e-9


@dataclass(frozen=True)
class Fix:
    """One position pinned to one symbol, with the LP value that chose it.

    An argmax pin also names the runner-up symbol of its position (None for
    a one-symbol alphabet): ``algorithm_c`` retries with it.
    """

    position: int
    symbol: str
    value: float
    branch: str
    runner_up: str | None = None


@dataclass(frozen=True)
class RoundingIteration:
    """One LP solve, the pins applied right after it, and the simplex
    pivots the solve took."""

    dvalue: float
    fixes: tuple[Fix, ...]
    lp_pivots: int = field(compare=False)


@dataclass(frozen=True)
class RoundingTrace:
    """Per-run record: every position appears in exactly one fix set."""

    iterations: tuple[RoundingIteration, ...]

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


def _round_once(
    inst: Instance,
    theta: float,
    preset: dict[int, str] | None = None,
    start: np.ndarray | None = None,
    cutoff: int | None = None,
) -> RoundingResult | None:
    """One full rounding pass.

    After each solve, every free position whose best value is at least
    ``theta`` is pinned to that symbol; when none is, the single largest
    value over the free positions is, and that argmax pin records its
    runner-up symbol. ``theta`` = inf pins one position per solve.
    ``preset`` positions are pinned before the first solve and recorded,
    with value 1.0, in the first iteration's fix set. The first solve
    starts from ``start`` (default: the column consensus), every later
    one from the argmax rounding of the solve before it.

    With a ``cutoff`` the pass returns None as soon as a solve's LP
    ceiling reaches it. Every pin in force at a solve stays in the final
    center, so that center's objective is at least each solve's ceiling:
    a pass that returns None could not have ended below ``cutoff``.
    """
    symbols = inst.alphabet.symbols
    fixes = [Fix(j, a, 1.0, BRANCH_PRESET) for j, a in sorted((preset or {}).items())]
    fixed = {f.position: f.symbol for f in fixes}
    iterations: list[RoundingIteration] = []
    t0 = time.perf_counter()
    while True:
        model = build_csp_lp(inst, fixed)
        try:
            sol = solve_lp(model, start=start)
        except LpFailureError as exc:
            exc.trace = RoundingTrace(tuple(iterations))
            raise
        if cutoff is not None and lp_lower_bound(sol) >= cutoff:
            return None
        if not iterations:
            root, root_ms = sol, (time.perf_counter() - t0) * 1000.0
        free = model.pins < 0
        if free.any():
            # Row-wise argmax over the free positions; pinned rows read -inf.
            masked = np.where(free[:, None], sol.x, -np.inf)
            best = masked.argmax(axis=1)
            top = masked[np.arange(inst.n), best]
            confident = np.flatnonzero(top >= theta - _THETA_SLACK)
            for j in confident:
                fixes.append(
                    Fix(int(j), symbols[best[j]], float(top[j]), BRANCH_THRESHOLD)
                )
            if not confident.size:
                # First maximum in position-major order: lowest position,
                # then alphabet order.
                j = int(np.argmax(top))
                a = best[j]
                masked[j, a] = -np.inf
                runner_up = symbols[int(np.argmax(masked[j]))] if len(symbols) > 1 else None
                fixes.append(Fix(j, symbols[a], float(top[j]), BRANCH_ARGMAX, runner_up))
        fixed.update((f.position, f.symbol) for f in fixes)
        iterations.append(RoundingIteration(sol.dvalue, tuple(fixes), sol.iterations))
        if len(fixed) == inst.n:
            break
        fixes = []
        start = sol.x.argmax(axis=1)

    center = objective("".join(fixed[j] for j in range(inst.n)), inst)
    return RoundingResult(center, RoundingTrace(tuple(iterations)), root, root_ms)


def algorithm_a(inst: Instance) -> RoundingResult:
    """Single-pin iterative rounding: exactly n LP solves, one pin each."""
    return _round_once(inst, theta=math.inf)


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
    argmax pins (smallest value, then lowest position) are each retried
    with their runner-up symbol pre-pinned, and the best center over
    all runs wins; ties keep the earliest run. Each retry warm-starts from
    the argmax rounding of the base run's root LP. A retry that can no
    longer beat the best center is cut short, and once the best center
    meets the LP ceiling no retry is started, so neither changes the
    result.
    """
    _check_theta(theta)
    if retries < 1:
        raise ValueError(f"retries must be >= 1, got {retries}")
    base = _round_once(inst, theta=theta)
    candidates = sorted(
        (f for it in base.trace.iterations for f in it.fixes if f.runner_up is not None),
        key=lambda f: (f.value, f.position),
    )[:retries]
    root_start = base.root_lp.x.argmax(axis=1)
    best = base
    for f in candidates:
        if best.exact_certified:
            break
        retry = _round_once(
            inst, theta=theta, preset={f.position: f.runner_up},
            start=root_start, cutoff=best.center.objective,
        )
        if retry is not None and retry.center.objective < best.center.objective:
            best = replace(best, center=retry.center, trace=retry.trace)
    return best
