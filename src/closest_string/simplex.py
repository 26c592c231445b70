"""Dense bounded-variable primal simplex on a caller-built tableau.

Solves

    min  c . x
    s.t. A x = b,   0 <= x <= upper

given the tableau T = B^-1 [A | b] of a starting basis B whose basic
solution is feasible. Nonbasic variables rest at 0 or at their upper bound.

Pivot selection is largest reduced cost (ties: lowest column index) with a
permanent switch to Bland's rule once 2 * (rows + cols) consecutive
degenerate steps accumulate, which guarantees termination. The tableau is
kept dense: problem sizes here stay in the low thousands of columns.
A solve that returns is optimal; any failed check raises LpFailureError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpFailureError

_BASIC, _AT_LOWER, _AT_UPPER = 0, 1, 2

# Feasibility slack allowed on the caller's starting point.
_START_TOL = 1e-7
# Smallest reduced cost that still improves the objective.
_OPT_TOL = 1e-6
# Smallest tableau entry treated as nonzero, and smallest step treated as
# a move.
_PIVOT_TOL = 1e-9


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int


def solve_bounded(
    T: np.ndarray,
    c: np.ndarray,
    upper: np.ndarray,
    basis: np.ndarray,
    *,
    max_iterations: int | None = None,
) -> SimplexResult:
    """Run the simplex loop; returns a vertex minimizer.

    ``T`` is the (rows, cols + 1) tableau B^-1 [A | b] of ``basis``, which
    lists one column per row; it is pivoted in place. Its last column, the
    basic values with every nonbasic variable at 0, must lie within
    [0, upper] (a caller contract, checked up front). A wrong answer is
    never returned silently: reaching ``max_iterations`` pivots or an
    unbounded entering column raises LpFailureError.
    """
    T = np.asarray(T, dtype=float)
    c = np.asarray(c, dtype=float)
    upper = np.asarray(upper, dtype=float)
    nrows, ncols = T.shape[0], T.shape[1] - 1
    basis = np.asarray(basis, dtype=np.int64).copy()
    if basis.shape != (nrows,) or len(set(basis.tolist())) != nrows:
        raise ValueError("basis must name one distinct column per row")
    if max_iterations is None:
        max_iterations = 25 * (nrows + ncols) + 100

    vstat = np.full(ncols, _AT_LOWER, dtype=np.int8)
    vstat[basis] = _BASIC

    xB = T[:, ncols].copy()
    if (xB < -_START_TOL).any() or (xB > upper[basis] + _START_TOL).any():
        raise ValueError("starting basis is not primal feasible")

    z = c - c[basis] @ T[:, :ncols]
    z[basis] = 0.0

    bland = False
    degenerate_run = 0
    bland_trigger = 2 * (nrows + ncols)
    iterations = 0

    while True:
        nonbasic_lo = (vstat == _AT_LOWER) & (z < -_OPT_TOL)
        nonbasic_up = (vstat == _AT_UPPER) & (z > _OPT_TOL)
        eligible = np.where(nonbasic_lo | nonbasic_up)[0]
        if eligible.size == 0:
            break
        if iterations >= max_iterations:
            raise LpFailureError(
                f"simplex: iteration cap of {max_iterations} pivots reached"
            )
        if bland:
            enter = int(eligible[0])
        else:
            enter = int(eligible[np.argmax(np.abs(z[eligible]))])
        sigma = 1.0 if vstat[enter] == _AT_LOWER else -1.0
        ys = sigma * T[:, enter]

        # Ratio test: how far can the entering variable move before a basic
        # variable hits a bound, or it reaches its own opposite bound?
        delta = np.full(nrows, np.inf)
        dec = ys > _PIVOT_TOL
        inc = ys < -_PIVOT_TOL
        delta[dec] = xB[dec] / ys[dec]
        delta[inc] = (upper[basis[inc]] - xB[inc]) / (-ys[inc])
        np.maximum(delta, 0.0, out=delta)
        flip = upper[enter]
        row_min = float(delta.min()) if nrows else np.inf

        if flip < row_min - 1e-12:
            # The entering variable reaches its other bound first: bound
            # flip, no basis change. flip is finite here (it is below
            # row_min, and an infinite flip cannot be).
            xB -= flip * ys
            vstat[enter] = _AT_UPPER if vstat[enter] == _AT_LOWER else _AT_LOWER
            iterations += 1
            degenerate_run = 0
            continue

        if not np.isfinite(row_min):
            raise LpFailureError(
                f"simplex: column {enter} is unbounded after {iterations} pivots"
            )

        ties = np.where(delta <= row_min + 1e-12)[0]
        row = int(ties[np.argmin(basis[ties])])
        leave = int(basis[row])
        step = row_min
        if step <= _PIVOT_TOL:
            degenerate_run += 1
            if degenerate_run >= bland_trigger:
                bland = True
        else:
            degenerate_run = 0

        enter_bound = 0.0 if vstat[enter] == _AT_LOWER else upper[enter]
        xB -= step * ys
        vstat[leave] = _AT_LOWER if ys[row] > 0 else _AT_UPPER
        basis[row] = enter
        vstat[enter] = _BASIC
        xB[row] = enter_bound + sigma * step

        # |T[row, enter]| = |ys[row]| > _PIVOT_TOL: only such rows have a
        # finite ratio, and row_min is finite here.
        T[row, :] /= T[row, enter]
        colvals = T[:, enter].copy()
        colvals[row] = 0.0
        T -= np.outer(colvals, T[row, :])
        zcoef = z[enter]
        if zcoef != 0.0:
            z -= zcoef * T[row, :ncols]
        T[:, enter] = 0.0
        T[row, enter] = 1.0
        z[enter] = 0.0
        iterations += 1

    at_upper = np.flatnonzero(vstat == _AT_UPPER)
    x = np.zeros(ncols)
    x[at_upper] = upper[at_upper]
    x[basis] = np.clip(T[:, ncols] - T[:, at_upper] @ upper[at_upper], 0.0, upper[basis])
    return SimplexResult(
        x=x,
        objective=float(c @ x),
        iterations=iterations,
    )
