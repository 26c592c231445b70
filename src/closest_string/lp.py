"""LP relaxation of the closest-string integer program.

Variables: one x(a, j) in [0, 1] per symbol ``a`` and position ``j``
(position-major order), plus the distance variable d. Constraints: each
position's x values sum to one, and for each string i,
n - sum_j x(s_i[j], j) <= d. Positions may be pinned to a symbol; a pinned
position has no variables or row of its own, since its x values are known:
each string row's right-hand side counts it as a match or a mismatch.
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

    Only the free positions enter the simplex: f assignment rows and the m
    string rows over f*k x columns, d and one slack per string. The
    constraint rows always admit a basic feasible start built from the
    first input string, so no auxiliary phase is needed. The returned
    vertex, pinned rows one-hot, is verified against the model's
    constraints within EPSILON; violations surface as a
    ``numeric-failure`` status, never as a silently wrong optimum.
    """
    inst = model.instance
    n, m, k = model.n, model.m, model.k
    codes = inst.codes
    pins = np.full(n, -1, dtype=np.int64)
    for position, symbol in model.fixed:
        pins[position] = inst.alphabet.index(symbol)
    free = np.flatnonzero(pins < 0)
    f = free.size
    free_codes = codes[:, free]
    nx = f * k
    d_col = nx
    s0 = nx + 1
    ncols = nx + 1 + m
    nrows = f + m

    A = np.zeros((nrows, ncols))
    A[np.repeat(np.arange(f), k), np.arange(nx)] = 1.0
    string_rows = f + np.repeat(np.arange(m), f)
    x_cols = np.tile(np.arange(f) * k, m) + free_codes.ravel()
    A[string_rows, x_cols] = 1.0
    A[f:, d_col] = 1.0
    A[f + np.arange(m), s0 + np.arange(m)] = -1.0
    # String i's row: sum of its free x values + d - slack = n - (pins it matches).
    rhs = n - (codes == pins[None, :]).sum(axis=1)
    b = np.concatenate([np.ones(f), rhs])
    c = np.zeros(ncols)
    c[d_col] = 1.0
    lower = np.zeros(ncols)
    upper = np.concatenate([np.ones(nx), np.full(1 + m, float(n))])

    # Crash basis: the center given by string 0 on the free positions is
    # feasible with d at the worst distance, pinned mismatches included;
    # slack of the worst row stays nonbasic at zero.
    anchor = free_codes[0]
    dist = rhs - (free_codes == anchor[None, :]).sum(axis=1)
    worst = int(np.argmax(dist))
    basis = np.empty(nrows, dtype=np.int64)
    basis[:f] = np.arange(f) * k + anchor
    basis[f] = d_col
    basis[f + 1 :] = s0 + np.array([i for i in range(m) if i != worst], dtype=np.int64)

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

    xmat = np.zeros((n, k))
    xmat[free] = result.x[:nx].reshape(f, k)
    pinned = np.flatnonzero(pins >= 0)
    xmat[pinned, pins[pinned]] = 1.0
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
