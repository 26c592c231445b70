"""Exact solvers: exhaustive enumeration and a depth-first branch and bound,
plus the weighted-consensus lower bound that branch and bound prunes with
and stops at.

Both solvers restrict center characters at position j to the characters
appearing in column j, which is lossless: swapping an out-of-column
character for any in-column one never increases any string's distance.
``_column_symbols`` derives each column's characters once, in alphabet
order. Symbol a there mismatches the strings ``codes[:, j, None] != a``,
which give branch and bound's child order, weights and floors.

The bound: for string weights w >= 0 with total W > 0, every center c has
max_i d(c, s_i) >= sum_i w_i d(c, s_i) / W >= L(w), where
L(w) = sum_j (W - max_a sum_{i: s_i[j] = a} w_i) / W, since column j costs
the weighted strings at least that much whatever c[j] is. With the LP's
optimal duals as w (``LpSolution.weights``), L(w) is the LP value.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import CenterString, Instance, objective
from .errors import CapacityError
from .lp import build_csp_lp, solve_lp  # noqa: F401 (traced by perfbench/spans.py)

# Why a search stopped: it tried every candidate, ran out of time, or its
# incumbent reached the lower bound its string weights give (dual_bound).
STOP_EXHAUSTED = "exhausted"
STOP_TIMEOUT = "timeout"
STOP_LOWER_BOUND = "lower-bound"
STOP_REASONS = (STOP_EXHAUSTED, STOP_TIMEOUT, STOP_LOWER_BOUND)

# Cells per chunk of brute force's distance table (strings x centers).
_CHUNK_CELLS = 1 << 20

# Work between two deadline checks of branch and bound, counted as one unit
# per node plus one per string the node touches.
_CLOCK_WORK = 4096

# String weights are scaled to sum to this before rounding to integers, so
# every bound test is exact integer arithmetic.
_WEIGHT_SCALE = 1 << 20


@dataclass(frozen=True)
class ExactResult:
    """Outcome of a complete (or timed-out) exact search.

    ``stop_reason`` is one of STOP_REASONS; the center is certified optimal
    unless the search timed out.
    """

    center: CenterString
    nodes_explored: int
    stop_reason: str

    def __post_init__(self) -> None:
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")

    @property
    def optimum(self) -> int:
        return self.center.objective

    @property
    def certified(self) -> bool:
        return self.stop_reason != STOP_TIMEOUT


def _column_symbols(codes: np.ndarray) -> list[np.ndarray]:
    """Each column's distinct codes in ascending (alphabet) order."""
    ordered = np.sort(codes, axis=0)
    distinct = np.ones(ordered.shape, dtype=bool)
    distinct[1:] = ordered[1:] != ordered[:-1]
    return [col[keep] for col, keep in zip(ordered.T, distinct.T)]


def _result(inst: Instance, best_codes: np.ndarray, nodes: int, stop: str) -> ExactResult:
    center = objective(inst.alphabet.decode(best_codes)[0], inst)
    return ExactResult(center=center, nodes_explored=nodes, stop_reason=stop)


def brute_force_center(
    inst: Instance, node_limit: int = 2_000_000
) -> ExactResult:
    """Enumerate every center over the per-column character sets.

    The enumeration order is mixed-radix, most significant digit first,
    with each column's candidates in alphabet order; the first optimum in
    that order wins, so results are deterministic. Raises CapacityError
    (naming the required node count) when the grid exceeds ``node_limit``
    and ValueError when that limit is negative.

    Only columns with more than one symbol are enumerated. They split into
    a low block, the longest suffix whose centers fit one chunk of about
    2^20 / m, and a high block. The (m, low) table of every low-block
    center's distances is built once; each high-block prefix adds its
    distances to it and takes the max over strings, so memory stays
    bounded by the chunk whatever the grid size.
    """
    if node_limit < 0:
        raise ValueError(f"node limit must be a non-negative count, got {node_limit}")
    codes = inst.codes
    m = inst.m
    col_codes = _column_symbols(codes)
    # A column with one symbol takes it: that costs no string a mismatch and
    # adds a radix-1 digit, which leaves the enumeration order unchanged.
    varying = [j for j, cc in enumerate(col_codes) if len(cc) > 1]
    radices = [len(col_codes[j]) for j in varying]
    total = math.prod(radices)
    if total > node_limit:
        raise CapacityError("enumeration", "centers", total, node_limit)

    # Distances are at most len(varying).
    dtype = np.int16 if len(varying) < np.iinfo(np.int16).max else np.int32
    # mismatch[t][i, d]: string i differs from digit d of varying column t.
    mismatch = [(codes[:, j, None] != col_codes[j]).astype(dtype) for j in varying]

    # Low block: the longest suffix of varying columns whose centers fit one
    # chunk; each prefix over the other (high) columns is one chunk.
    rows = max(1, _CHUNK_CELLS // m)
    split, low_size = len(varying), 1
    while split > 0 and low_size * radices[split - 1] <= rows:
        split -= 1
        low_size *= radices[split]
    # Successive broadcast adds in C order, each prepending a more
    # significant column: the last column varies fastest, as in the
    # enumeration order, and the inner loop runs over the long axis.
    table = np.zeros((m, 1), dtype=dtype)
    for mis in reversed(mismatch[split:]):
        table = (mis[:, :, None] + table[:, None, :]).reshape(m, -1)

    best_obj, best_index = inst.n + 1, 0
    dists = np.empty_like(table)
    for prefix, digits in enumerate(itertools.product(*map(range, radices[:split]))):
        offset = np.zeros(m, dtype=dtype)
        for mis, d in zip(mismatch, digits):
            offset += mis[:, d]
        np.add(table, offset[:, None], out=dists)
        obj = dists.max(axis=0)
        pos = int(np.argmin(obj))
        if int(obj[pos]) < best_obj:
            best_obj, best_index = int(obj[pos]), prefix * low_size + pos

    best_codes = codes[0].copy()
    for t in range(len(varying) - 1, -1, -1):
        best_index, d = divmod(best_index, radices[t])
        best_codes[varying[t]] = col_codes[varying[t]][d]
    return _result(inst, best_codes, total, STOP_EXHAUSTED)


def _integer_weights(inst: Instance, weights: np.ndarray) -> np.ndarray:
    """``weights`` scaled to sum to _WEIGHT_SCALE and rounded to the nearest
    non-negative int64; all zeros when they sum to 0. Rounding costs only
    tightness: any non-negative integers give a valid bound."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (inst.m,) or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError(f"weights must be {inst.m} finite non-negative numbers")
    total = w.sum()
    if not 0.0 < total < np.inf:
        return np.zeros(inst.m, dtype=np.int64)
    return np.rint(w / total * _WEIGHT_SCALE).astype(np.int64)


def _children(codes: np.ndarray, w: np.ndarray) -> tuple[list, list, list]:
    """Per column: its symbols ranked by descending frequency (ties in
    alphabet order), the strings each one mismatches, and their exact
    weight under the int64 ``w``. The lightest is the column's floor: W
    minus the heaviest weight of strings sharing a symbol."""
    symbols, misses, child_w = [], [], []
    for j, present in enumerate(_column_symbols(codes)):
        mismatch = codes[:, j, None] != present
        rank = np.argsort(mismatch.sum(axis=0), kind="stable")
        mismatch = mismatch[:, rank]
        symbols.append(present[rank].tolist())
        misses.append([np.flatnonzero(col).tolist() for col in mismatch.T])
        child_w.append((w @ mismatch).tolist())
    return symbols, misses, child_w


def _ceil_bound(floors: int, total: int) -> int:
    """⌈L(w)⌉ from the sum of the column floors and the total weight W of
    the integer weights; 0 when W = 0."""
    return -(-floors // total) if total else 0


def dual_bound(inst: Instance, weights: np.ndarray) -> int:
    """Lower bound on the optimum from non-negative string weights: the
    ceiling of the weighted-consensus bound L(w) for ``weights`` rounded to
    integers, computed in integer arithmetic in O(mn) for a fixed alphabet.

    Any weights give a valid bound, and 0 when they are all zero; with the
    root LP's duals (``LpSolution.weights``) it equals ``lp_lower_bound``,
    so it rechecks that bound without an LP solver.
    """
    w = _integer_weights(inst, weights)
    return _ceil_bound(sum(map(min, _children(inst.codes, w)[2])), int(w.sum()))


def branch_and_bound(
    inst: Instance,
    time_limit: float = 60.0,
    incumbent: CenterString | None = None,
    weights: np.ndarray | None = None,
) -> ExactResult:
    """Depth-first search over positions with mismatch-count pruning.

    A node is cut as soon as some string's partial mismatch count reaches
    the incumbent objective. Given string ``weights`` (such as the root
    LP's duals, ``LpSolution.weights``), a node is also cut when the
    weighted mismatches on its path, plus each later column's least
    weighted mismatch, show that no center below it beats the incumbent:
    the ``dual_bound`` test applied to the rest of the tree. That removes
    only subtrees with no strictly better center, so the incumbents found,
    and the result apart from ``nodes_explored``, are those of the search
    without weights. The initial incumbent is the search's own first leaf
    (each column's most frequent symbol, ties in alphabet order), or
    ``incumbent`` (such as a rounding heuristic's center) when it is
    strictly better; only a strictly better leaf replaces it, so with no
    ``incumbent`` the result is the first optimum in child order. The
    search stops as soon as the incumbent reaches the lower bound its
    weights give, ``dual_bound(inst, weights)`` (0 without weights). Any
    non-negative weights give a valid bound, so that stop certifies the
    optimum; with the root LP's duals the bound is the LP ceiling. On
    timeout the incumbent comes back with ``certified=False`` rather than
    an error; ``time_limit`` may be ``inf`` but not NaN or negative
    (ValueError). The search keeps its path on an explicit stack, so its
    depth is not limited by Python's recursion limit.
    """
    if math.isnan(time_limit) or time_limit < 0:
        raise ValueError(
            f"time limit must be a non-negative number of seconds, got {time_limit}"
        )
    codes = inst.codes
    n = inst.n
    w = np.zeros(inst.m, dtype=np.int64) if weights is None else _integer_weights(inst, weights)

    # Children ordered by descending column frequency (ties: alphabet order)
    # so good incumbents appear early; each child lists the strings it
    # mismatches, the only counts it changes.
    symbols, misses, child_w = _children(codes, w)

    # Weighted cut: a child at depth j is cut when the weight of the strings
    # its path and itself mismatch, plus rest[j + 1] (the least any
    # completion adds), exceeds (best - 1) * W; then every center below it
    # has a weighted mean distance, and so a largest distance, of at least
    # best. At depth 0 this is the dual_bound test, and the search stops
    # once the incumbent reaches that bound. With W = 0, such as with no
    # weights, the cut never fires and the bound is 0.
    total_w = int(w.sum())
    rest = [*itertools.accumulate(map(min, reversed(child_w)), initial=0)][::-1]
    lower = _ceil_bound(rest[0], total_w)

    # The first incumbent is the search's own first leaf: each column's
    # first child, its most frequent symbol (ties in alphabet order).
    best_codes = np.array([ranked[0] for ranked in symbols], dtype=codes.dtype)
    best = int(np.count_nonzero(codes != best_codes, axis=1).max())
    if incumbent is not None:
        given = objective(incumbent.chars, inst)
        if given.objective < best:
            best = given.objective
            best_codes = inst.alphabet.encode([given.chars])[0]

    clock = time.monotonic
    deadline = clock() + time_limit
    width = [len(ranked) for ranked in symbols]
    mis = [0] * inst.m  # each string's mismatches on the current path
    partial = [0] * n
    tried = [0] * n  # children tried so far at each depth on the path
    path_max = [0] * n  # largest mismatch count on the path down to each depth
    path_w = [0] * n  # weight of the mismatches on the path down to each depth
    limit = (best - 1) * total_w
    nodes = 0
    work_left = _CLOCK_WORK
    j = 0
    stop = STOP_LOWER_BOUND if best <= lower else None
    while stop is None:
        c = tried[j]
        if c == width[j]:
            if j == 0:
                stop = STOP_EXHAUSTED
                break
            j -= 1
            for i in misses[j][tried[j] - 1]:
                mis[i] -= 1
            continue
        tried[j] = c + 1
        nodes += 1
        child_misses = misses[j][c]
        work_left -= 1 + len(child_misses)
        if work_left < 0:
            if clock() > deadline:
                stop = STOP_TIMEOUT
                break
            work_left = _CLOCK_WORK
        new_max = path_max[j]
        for i in child_misses:
            if mis[i] >= new_max:
                new_max = mis[i] + 1
        if new_max >= best:
            continue
        weight = path_w[j] + child_w[j][c]
        if weight + rest[j + 1] > limit:
            continue
        partial[j] = symbols[j][c]
        if j == n - 1:
            best = new_max
            best_codes = np.array(partial, dtype=codes.dtype)
            limit = (best - 1) * total_w
            if best <= lower:
                stop = STOP_LOWER_BOUND
            continue
        for i in child_misses:
            mis[i] += 1
        j += 1
        tried[j] = 0
        path_max[j] = new_max
        path_w[j] = weight

    return _result(inst, best_codes, nodes, stop)
