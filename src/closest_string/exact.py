"""Exact solvers: exhaustive enumeration and a depth-first branch and bound.

Both restrict center characters at position j to the characters appearing
in column j, which is lossless: swapping an out-of-column character for
any in-column one never increases any string's distance.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import CenterString, Instance, objective
from .errors import CapacityError
from .lp import build_csp_lp, solve_lp  # noqa: F401 (traced by perfbench/spans.py)

# Why a search stopped: it tried every candidate, ran out of time, or its
# incumbent reached the lower bound it was given.
STOP_EXHAUSTED = "exhausted"
STOP_TIMEOUT = "timeout"
STOP_LOWER_BOUND = "lower-bound"
STOP_REASONS = (STOP_EXHAUSTED, STOP_TIMEOUT, STOP_LOWER_BOUND)

# Cells per chunk of brute force's distance table (strings x centers) and
# of the pairwise comparison that seeds branch and bound.
_CHUNK_CELLS = 1 << 20

# Work between two deadline checks of branch and bound, counted as one unit
# per node plus one per string the node touches.
_CLOCK_WORK = 4096


@dataclass(frozen=True)
class ExactResult:
    """Outcome of a complete (or timed-out) exact search.

    ``stop_reason`` is one of STOP_REASONS; the center is certified optimal
    unless the search timed out.
    """

    center: CenterString
    optimum: int
    nodes_explored: int
    stop_reason: str

    def __post_init__(self) -> None:
        if self.optimum != self.center.objective:
            raise ValueError("optimum must equal the center's objective")
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")

    @property
    def certified(self) -> bool:
        return self.stop_reason != STOP_TIMEOUT


def brute_force_center(
    inst: Instance, node_limit: int = 2_000_000
) -> ExactResult:
    """Enumerate every center over the per-column character sets.

    The enumeration order is mixed-radix, most significant digit first,
    with each column's candidates in alphabet order; the first optimum in
    that order wins, so results are deterministic. Raises CapacityError
    (naming the required node count) when the grid exceeds ``node_limit``.

    Only columns with more than one symbol are enumerated. They split into
    a low block, the longest suffix whose centers fit one chunk of about
    2^20 / m, and a high block. The (m, low) table of every low-block
    center's distances is built once; each high-block prefix adds its
    distances to it and takes the max over strings, so memory stays
    bounded by the chunk whatever the grid size.
    """
    codes = inst.codes
    m = inst.m
    ordered = np.sort(codes, axis=0)
    distinct = np.ones(ordered.shape, dtype=bool)
    distinct[1:] = ordered[1:] != ordered[:-1]
    col_codes = [col[keep] for col, keep in zip(ordered.T, distinct.T)]
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
    mismatch = [(codes[:, j, None] != col_codes[j][None, :]).astype(dtype) for j in varying]

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
    center = objective(inst.alphabet.decode(best_codes)[0], inst)
    return ExactResult(
        center=center,
        optimum=center.objective,
        nodes_explored=total,
        stop_reason=STOP_EXHAUSTED,
    )


def branch_and_bound(
    inst: Instance,
    time_limit: float = 60.0,
    lower_bound: int = 0,
    incumbent: CenterString | None = None,
) -> ExactResult:
    """Depth-first search over positions with mismatch-count pruning.

    A node is cut as soon as some string's partial mismatch count reaches
    the incumbent objective. The initial incumbent is the best input
    string used as a center, or ``incumbent`` (such as a rounding
    heuristic's center) when it is strictly better. The search stops
    as soon as the incumbent reaches ``lower_bound``, which must be a
    valid lower bound on the optimum (such as the LP ceiling,
    ``lp_lower_bound``). On timeout the incumbent comes back with
    ``certified=False`` rather than an error. The search keeps its path
    on an explicit stack, so its depth is not limited by Python's
    recursion limit.
    """
    codes = inst.codes
    n = inst.n

    # Children ordered by descending column frequency (ties: alphabet order)
    # so good incumbents appear early; each child lists the strings it
    # mismatches, the only counts it changes.
    symbols: list[list[int]] = []
    misses: list[list[list[int]]] = []
    for col in codes.T:
        freq = Counter(col.tolist())
        ranked = sorted(freq, key=lambda a: (-freq[a], a))
        symbols.append(ranked)
        misses.append([np.flatnonzero(col != ch).tolist() for ch in ranked])

    # Each input string's distance to the farthest other: n minus its fewest
    # matches. Matches are summed over symbols as products of 0/1 indicator
    # matrices (exact in float32 below 2^24), a block of rows at a time so
    # each product holds at most _CHUNK_CELLS cells.
    rows = max(1, _CHUNK_CELLS // inst.m)
    dtype = np.float32 if n < 1 << 24 else np.float64
    fewest = [
        sum(
            (codes[i : i + rows] == a).astype(dtype) @ (codes == a).astype(dtype).T
            for a in np.unique(codes)
        ).min(axis=1)
        for i in range(0, inst.m, rows)
    ]
    input_objs = n - np.concatenate(fewest).astype(np.int64)
    best = int(input_objs.min())
    best_codes = codes[int(np.argmin(input_objs))].copy()
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
    nodes = 0
    work_left = _CLOCK_WORK
    j = 0
    stop = STOP_LOWER_BOUND if best <= lower_bound else None
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
        partial[j] = symbols[j][c]
        if j == n - 1:
            best = new_max
            best_codes = np.array(partial, dtype=codes.dtype)
            if best <= lower_bound:
                stop = STOP_LOWER_BOUND
            continue
        for i in child_misses:
            mis[i] += 1
        j += 1
        tried[j] = 0
        path_max[j] = new_max

    center = objective(inst.alphabet.decode(best_codes)[0], inst)
    return ExactResult(
        center=center,
        optimum=center.objective,
        nodes_explored=nodes,
        stop_reason=stop,
    )
