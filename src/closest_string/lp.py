"""LP relaxation of the closest-string integer program.

Variables: one x(a, j) in [0, 1] per symbol ``a`` and position ``j``
(position-major order), plus the distance variable d. Constraints: each
position's x values sum to one, and for each string i,
n - sum_j x(s_i[j], j) <= d. Pins are one vector of alphabet indices, -1 at
a free position, which the model checks and copies. A pinned position has
no variables or row of its own, since its x values are known: each string
row's right-hand side counts it as a match or a mismatch, and the solution
sets its row exactly one-hot.

Every solve starts from a crash basis built around an integral start center:
by default the column consensus, or a center the caller already has (the
rounding drivers pass the previous solve's argmax rounding). The simplex
receives that basis's tableau, written down in closed form.

The solution also carries the string rows' optimal duals, read off the
simplex's final reduced costs of the slack columns. As string weights they
give the weighted-consensus bound that ``exact.dual_bound`` rechecks and
branch and bound prunes with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Alphabet, Instance
from .errors import CapacityError, LpFailureError
from .simplex import solve_bounded

# Feasibility / optimality tolerance used across the LP layer.
EPSILON = 1e-6

# Largest dense simplex tableau, in cells, a solve may allocate. One solve
# peaks at 10 to 15 bytes per cell under tracemalloc (the 8-byte tableau
# plus the temporaries of its crash build; a pivot's update touches only a
# few rows), so this caps it near 0.5 GB.
MAX_TABLEAU_CELLS = 1 << 25


def _check_indices(name: str, vector: object, n: int, low: int, k: int) -> np.ndarray:
    """``vector`` as an array, once it is n integers in [low, k)."""
    vector = np.asarray(vector)
    integral = vector.shape == (n,) and np.issubdtype(vector.dtype, np.integer)
    if not (integral and np.all((vector >= low) & (vector < k))):
        raise ValueError(f"{name} must be {n} integers in [{low}, {k})")
    return vector


@dataclass(frozen=True, eq=False)
class LpModel:
    """Relaxation of one instance with an optional set of pinned positions.

    ``pins`` is the model's own read-only copy of the caller's (n,) vector
    of pinned alphabet indices, -1 at a free position.
    """

    instance: Instance
    pins: np.ndarray

    def __post_init__(self) -> None:
        pins = _check_indices("pins", self.pins, self.n, -1, self.k).astype(np.int64)
        pins.flags.writeable = False
        object.__setattr__(self, "pins", pins)

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
    minimized distance variable; ``iterations`` the simplex pivots taken.
    ``weights`` is the read-only (m,) vector of the string rows' duals, in
    input-string order: each slack column's reduced cost, clipped at 0.
    When d is basic (any dvalue > 0) they sum to 1 within EPSILON, and the
    weighted-consensus bound sum_j (1 - max_a sum_{i: s_i[j] = a} w_i)
    equals dvalue on an unpinned model.
    """

    alphabet: Alphabet
    x: np.ndarray
    dvalue: float
    iterations: int
    weights: np.ndarray

    def value(self, symbol: str, position: int) -> float:
        return float(self.x[position, self.alphabet.index(symbol)])


def build_csp_lp(inst: Instance, pins: np.ndarray | None = None) -> LpModel:
    """Relaxation for ``inst`` with the positions of ``pins`` (alphabet
    indices, -1 where free) pinned; by default none is."""
    return LpModel(inst, np.full(inst.n, -1) if pins is None else pins)


def solve_lp(model: LpModel, *, start: np.ndarray | None = None) -> LpSolution:
    """Minimize d over the relaxation; deterministic for a given model and
    start.

    Only the free positions enter the simplex: f assignment rows and the m
    string rows over f*k x columns, d and one slack per string. Any
    integral center gives a basic feasible start, so no auxiliary phase is
    needed. ``start`` is that center as n alphabet indices (pinned
    positions are ignored); by default each free column takes its most
    frequent symbol, ties to the lowest index. The optimal value does not
    depend on the start, though the optimal vertex may. The returned
    vertex, pinned rows one-hot, is verified against the model's
    constraints within EPSILON. Raises LpFailureError when the simplex
    fails or the vertex fails verification, never returning a silently
    wrong optimum, and CapacityError, before allocating, when the tableau
    would exceed MAX_TABLEAU_CELLS.
    """
    inst = model.instance
    n, m, k = model.n, model.m, model.k
    codes = inst.codes
    pins = model.pins
    free = np.flatnonzero(pins < 0)
    f = free.size
    nx = f * k
    d_col = nx
    s0 = nx + 1
    ncols = nx + 1 + m
    cells = (f + m) * (ncols + 1)
    if cells > MAX_TABLEAU_CELLS:
        raise CapacityError("LP tableau", "cells", cells, MAX_TABLEAU_CELLS)
    free_codes = codes[:, free]
    x_cols = np.arange(f) * k + free_codes

    if start is None:
        anchor = np.bincount(x_cols.ravel(), minlength=nx).reshape(f, k).argmax(axis=1)
    else:
        anchor = _check_indices("start", start, n, 0, k)[free]
    # Each string's distance to the start center, pinned mismatches included.
    match = free_codes == anchor[None, :]
    dist = n - (codes == pins[None, :]).sum(axis=1) - match.sum(axis=1)
    worst = int(np.argmax(dist))
    order = np.concatenate([[worst], np.delete(np.arange(m), worst)])

    # Crash basis: the start's x on the free positions, d, and every slack
    # but the worst string's. Its tableau T = B^-1 [A | b] keeps the
    # assignment rows. M[i] is string i's row (free x + d - slack i = n -
    # pins matched) minus the assignment rows where it matches the start,
    # so its right-hand side is dist[i]. The d row is M[worst], and each
    # other basic slack's row is M[worst] - M[i].
    T = np.zeros((f + m, ncols + 1))
    T[np.repeat(np.arange(f), k), np.arange(nx)] = 1.0
    T[:f, ncols] = 1.0
    M = T[f:]
    M[:, :nx][np.repeat(match[order], k, axis=1)] = -1.0
    M[np.arange(m)[:, None], x_cols[order]] += 1.0
    M[:, d_col] = 1.0
    M[np.arange(m), s0 + order] = -1.0
    M[:, ncols] = dist[order]
    np.subtract(M[0], M[1:], out=M[1:])
    basis = np.concatenate([np.arange(f) * k + anchor, [d_col], s0 + order[1:]])

    c = np.zeros(ncols)
    c[d_col] = 1.0
    upper = np.concatenate([np.ones(nx), np.full(1 + m, float(n))])
    result = solve_bounded(T, c, upper, basis)
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
    if not ok:
        raise LpFailureError(
            f"LP: vertex fails verification after {result.iterations} pivots"
        )
    xmat.flags.writeable = False
    # String i's row holds slack column s0 + i with coefficient -1, so that
    # column's reduced cost is the row's dual.
    weights = np.maximum(result.reduced_costs[s0:], 0.0)
    weights.flags.writeable = False
    return LpSolution(
        alphabet=inst.alphabet, x=xmat, dvalue=dvalue, iterations=result.iterations,
        weights=weights,
    )


def lp_lower_bound(sol: LpSolution) -> int:
    """Ceiling of the fractional optimum, guarded against float overshoot.

    Valid integer lower bound on the exact optimum: an integral center's
    distance is an integer no smaller than the relaxation's value.
    """
    return max(0, math.ceil(sol.dvalue - EPSILON))
