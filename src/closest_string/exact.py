"""Exact solvers: exhaustive enumeration and a depth-first branch and bound.

Both restrict center characters at position j to the characters appearing
in column j, which is lossless: swapping an out-of-column character for
any in-column one never increases any string's distance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import CenterString, Instance, objective
from .errors import CapacityError
from .lp import build_csp_lp, solve_lp  # noqa: F401 (traced by perfbench/spans.py)

PROOF_ENUMERATION = "enumeration"
PROOF_BRANCH_AND_BOUND = "branch-and-bound"

_CHUNK = 1 << 16


@dataclass(frozen=True)
class ExactResult:
    """Outcome of a complete (or timed-out) exact search."""

    center: CenterString
    optimum: int
    nodes_explored: int
    proof: str
    certified: bool

    def __post_init__(self) -> None:
        if self.optimum != self.center.objective:
            raise ValueError("optimum must equal the center's objective")


def brute_force_center(
    inst: Instance, node_limit: int = 2_000_000
) -> ExactResult:
    """Enumerate every center over the per-column character sets.

    The enumeration order is mixed-radix, most significant digit first,
    with each column's candidates in alphabet order; the first optimum in
    that order wins, so results are deterministic. Raises CapacityError
    (naming the required node count) when the grid exceeds ``node_limit``.
    """
    codes = inst.codes
    col_codes = [np.unique(col) for col in codes.T]
    # A column with one symbol takes it: that costs no string a mismatch and
    # adds a radix-1 digit, which leaves the enumeration order unchanged.
    varying = [j for j, cc in enumerate(col_codes) if len(cc) > 1]
    radices = [len(col_codes[j]) for j in varying]
    total = 1
    for r in radices:
        total *= r
    if total > node_limit:
        raise CapacityError(required=total, limit=node_limit)

    # Strides for decoding a flat index into per-column digit choices.
    v = len(varying)
    strides = np.empty(v, dtype=np.int64)
    acc = 1
    for t in range(v - 1, -1, -1):
        strides[t] = acc
        acc *= radices[t]
    radix_arr = np.array(radices, dtype=np.int64)
    vcodes = codes[:, varying]

    best_obj = inst.n + 1
    best_codes = codes[0].copy()
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = (idx[:, None] // strides[None, :]) % radix_arr[None, :]
        grid = np.empty((stop - start, v), dtype=np.int16)
        for t, j in enumerate(varying):
            grid[:, t] = col_codes[j][digits[:, t]]
        obj = np.zeros(stop - start, dtype=np.int32)
        for row in vcodes:
            np.maximum(obj, (grid != row[None, :]).sum(axis=1), out=obj)
        pos = int(np.argmin(obj))
        if int(obj[pos]) < best_obj:
            best_obj = int(obj[pos])
            best_codes[varying] = grid[pos]

    center = objective(inst.alphabet.decode(best_codes)[0], inst)
    return ExactResult(
        center=center,
        optimum=center.objective,
        nodes_explored=total,
        proof=PROOF_ENUMERATION,
        certified=True,
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
    early once the incumbent reaches ``lower_bound``, which must be a
    valid lower bound on the optimum (such as the LP ceiling,
    ``lp_lower_bound``). On timeout the incumbent comes back with
    ``certified=False`` rather than an error.
    """
    codes = inst.codes
    n, m = inst.n, inst.m

    # Children ordered by descending column frequency (ties: alphabet order)
    # so good incumbents appear early.
    order: list[list[int]] = []
    for j in range(n):
        vals, counts = np.unique(codes[:, j], return_counts=True)
        ranked = sorted(zip(vals.tolist(), counts.tolist()), key=lambda t: (-t[1], t[0]))
        order.append([v for v, _ in ranked])

    pairwise = (codes[:, None, :] != codes[None, :, :]).sum(axis=2)
    input_objs = pairwise.max(axis=1)
    best = int(input_objs.min())
    best_codes = codes[int(np.argmin(input_objs))].copy()
    if incumbent is not None:
        given = objective(incumbent.chars, inst)
        if given.objective < best:
            best = given.objective
            best_codes = inst.alphabet.encode([given.chars])[0]

    cols = codes.T.tolist()
    deadline = time.monotonic() + time_limit
    mis = [0] * m
    partial = [0] * n
    nodes = 0
    timed_out = False

    def descend(j: int, cur_max: int) -> None:
        nonlocal best, best_codes, nodes, timed_out
        if timed_out or best <= lower_bound:
            return
        if j == n:
            if cur_max < best:
                best = cur_max
                best_codes = np.array(partial, dtype=np.int16)
            return
        col = cols[j]
        for ch in order[j]:
            nodes += 1
            if nodes % 4096 == 0 and time.monotonic() > deadline:
                timed_out = True
                return
            new_max = cur_max
            for i in range(m):
                if col[i] != ch:
                    mis[i] += 1
                    if mis[i] > new_max:
                        new_max = mis[i]
            if new_max < best:
                partial[j] = ch
                descend(j + 1, new_max)
            for i in range(m):
                if col[i] != ch:
                    mis[i] -= 1
            if timed_out:
                return

    descend(0, 0)

    center = objective(inst.alphabet.decode(best_codes)[0], inst)
    return ExactResult(
        center=center,
        optimum=center.objective,
        nodes_explored=nodes,
        proof=PROOF_BRANCH_AND_BOUND,
        certified=not timed_out,
    )
