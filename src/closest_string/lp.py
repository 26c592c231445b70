"""LP relaxation of the closest-string integer program.

Variables: one x(a, j) in [0, 1] per symbol ``a`` and position ``j``
(position-major order), plus the distance variable d. Constraints: each
position's x values sum to one, and for each string i,
n - sum_j x(s_i[j], j) <= d. Positions may be pinned to a symbol, encoded
as coinciding bounds so the variable indexing never changes between the
repeated solves the rounding drivers perform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Alphabet, Instance
from .simplex import OPTIMAL, solve_bounded

# Feasibility / optimality tolerance used across the LP layer.
EPSILON = 1e-6


@dataclass(frozen=True)
class LpModel:
    """Relaxation of one instance with an optional set of pinned positions."""

    instance: Instance
    fixed: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for position, symbol in self.fixed:
            if not 0 <= position < self.instance.n:
                raise ValueError(f"fixed position {position} out of range")
            if symbol not in self.instance.alphabet:
                raise ValueError(
                    f"fixed symbol {symbol!r} not in alphabet "
                    f"{''.join(self.instance.alphabet.symbols)!r}"
                )
            if position in seen:
                raise ValueError(f"position {position} fixed more than once")
            seen.add(position)

    @property
    def k(self) -> int:
        return len(self.instance.alphabet)

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def m(self) -> int:
        return self.instance.m

    @property
    def num_x_vars(self) -> int:
        return self.n * self.k

    @property
    def d_index(self) -> int:
        return self.num_x_vars

    def var_index(self, symbol: str, position: int) -> int:
        if not 0 <= position < self.n:
            raise ValueError(f"position {position} out of range")
        return position * self.k + self.instance.alphabet.index(symbol)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper bounds over the x variables plus d (last entry)."""
        lower = np.zeros(self.num_x_vars + 1)
        upper = np.ones(self.num_x_vars + 1)
        upper[self.d_index] = float(self.n)
        for position, symbol in self.fixed:
            base = position * self.k
            upper[base : base + self.k] = 0.0
            chosen = base + self.instance.alphabet.index(symbol)
            lower[chosen] = 1.0
            upper[chosen] = 1.0
        return lower, upper


@dataclass(frozen=True)
class LpSolution:
    """Fractional optimum of an LpModel.

    ``x`` is the (n, k) matrix of position/symbol values; ``dvalue`` the
    minimized distance variable. ``status`` is one of ``optimal``,
    ``infeasible``, ``numeric-failure``.
    """

    alphabet: Alphabet
    x: np.ndarray
    dvalue: float
    status: str
    iterations: int

    def value(self, symbol: str, position: int) -> float:
        return float(self.x[position, self.alphabet.index(symbol)])


def build_csp_lp(
    inst: Instance, fixed: Mapping[int, str] | None = None
) -> LpModel:
    """Relaxation for ``inst`` with the given positions pinned."""
    pairs = tuple(sorted((int(j), str(a)) for j, a in (fixed or {}).items()))
    return LpModel(instance=inst, fixed=pairs)


def solve_lp(model: LpModel, *, max_iterations: int | None = None) -> LpSolution:
    """Minimize d over the relaxation; deterministic for a given model.

    The constraint rows always admit a basic feasible start built from the
    first input string (pinned positions overriding its characters), so no
    auxiliary phase is needed. The returned vertex is verified against the
    model's constraints within EPSILON; violations surface as a
    ``numeric-failure`` status, never as a silently wrong optimum.
    """
    inst = model.instance
    n, m, k = model.n, model.m, model.k
    nx = model.num_x_vars
    d_col = nx
    s0 = nx + 1
    ncols = nx + 1 + m
    nrows = n + m
    codes = inst.codes

    A = np.zeros((nrows, ncols))
    for j in range(n):
        A[j, j * k : (j + 1) * k] = 1.0
    string_rows = n + np.repeat(np.arange(m), n)
    x_cols = np.tile(np.arange(n) * k, m) + codes.ravel()
    A[string_rows, x_cols] = 1.0
    A[n:, d_col] = 1.0
    A[n + np.arange(m), s0 + np.arange(m)] = -1.0
    b = np.concatenate([np.ones(n), np.full(m, float(n))])
    c = np.zeros(ncols)
    c[d_col] = 1.0

    x_lower, x_upper = model.bounds()
    lower = np.concatenate([x_lower, np.zeros(m)])
    upper = np.concatenate([x_upper, np.full(m, float(n))])

    # Crash basis: the center given by string 0 (pinned symbols overriding)
    # is feasible with d at the worst distance; slack of the worst row stays
    # nonbasic at zero.
    anchor = codes[0].copy()
    for position, symbol in model.fixed:
        anchor[position] = inst.alphabet.index(symbol)
    dist = (codes != anchor[None, :]).sum(axis=1)
    worst = int(np.argmax(dist))
    basis = np.empty(nrows, dtype=np.int64)
    basis[:n] = np.arange(n) * k + anchor
    basis[n] = d_col
    basis[n + 1 :] = s0 + np.array([i for i in range(m) if i != worst], dtype=np.int64)

    result = solve_bounded(
        A, b, c, lower, upper, basis, max_iterations=max_iterations
    )
    if result.status != OPTIMAL:
        bad = np.full((n, k), np.nan)
        bad.flags.writeable = False
        return LpSolution(
            alphabet=inst.alphabet,
            x=bad,
            dvalue=float("nan"),
            status=result.status,
            iterations=result.iterations,
        )

    xmat = result.x[:nx].reshape(n, k).copy()
    dvalue = float(result.x[d_col])
    position_sums = xmat.sum(axis=1)
    string_dists = n - xmat[np.arange(n)[None, :], codes].sum(axis=1)
    ok = (
        bool(np.all(np.abs(position_sums - 1.0) <= EPSILON))
        and bool(np.all(string_dists <= dvalue + EPSILON))
        and abs(dvalue - float(string_dists.max())) <= EPSILON
    )
    xmat.flags.writeable = False
    return LpSolution(
        alphabet=inst.alphabet,
        x=xmat,
        dvalue=dvalue,
        status=OPTIMAL if ok else "numeric-failure",
        iterations=result.iterations,
    )


def lp_lower_bound(sol: LpSolution) -> int:
    """Ceiling of the fractional optimum, guarded against float overshoot.

    Valid integer lower bound on the exact optimum: an integral center's
    distance is an integer no smaller than the relaxation's value.
    """
    if sol.status != OPTIMAL:
        raise ValueError(
            f"lower bound undefined for LP status {sol.status!r}"
        )
    return max(0, math.ceil(sol.dvalue - EPSILON))
