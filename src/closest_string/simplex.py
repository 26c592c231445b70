"""Dense bounded-variable primal simplex on a caller-built tableau.

Solves

    min  c . x
    s.t. A x = b,   0 <= x <= upper

given the tableau T = B^-1 [A | b] of a starting basis B whose basic
solution is feasible. Nonbasic variables rest at 0 or at their upper bound.

Pivot selection is largest reduced cost (ties: lowest column index) with a
permanent switch to Bland's rule once 2 * (rows + cols) consecutive
degenerate steps accumulate, which guarantees termination. The tableau is
stored dense, but a pivot reads and updates only the rows where its
entering column is nonzero: in the closest-string LP that is one
assignment row plus the string rows, a small share of the tableau. At
that size a pivot costs numpy calls, not cells, so the loop reads the
entering column once, keeps the basic variables' upper bounds as an array
and updates all its rows in one subtraction.
A solve that returns is optimal, and reports the final reduced costs
(for a slack column, its row's dual value); any failed check raises
LpFailureError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpFailureError

# Feasibility slack allowed on the caller's starting point.
_START_TOL = 1e-7
# Smallest reduced cost that still improves the objective.
_OPT_TOL = 1e-6
# Smallest tableau entry treated as nonzero, and smallest step treated as
# a move.
_PIVOT_TOL = 1e-9


@dataclass
class SimplexResult:
    """A vertex minimizer and what reaching it cost: ``iterations`` counts
    every step, ``bound_flips`` those that moved a nonbasic variable to its
    other bound, ``degenerate_steps`` the basis changes that moved no
    variable, and ``bland_switched`` says whether Bland's rule took over.
    ``reduced_costs`` is the final (cols,) vector c - c_B B^-1 A: 0 on the
    basic columns, >= 0 at a lower bound and <= 0 at an upper bound (within
    the optimality tolerance)."""

    x: np.ndarray
    objective: float
    iterations: int
    bound_flips: int
    degenerate_steps: int
    bland_switched: bool
    reduced_costs: np.ndarray


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

    xB = T[:, ncols].copy()
    ub = upper[basis]  # upper bounds of the basic variables, row by row
    if (xB < -_START_TOL).any() or (xB > ub + _START_TOL).any():
        raise ValueError("starting basis is not primal feasible")

    # sign[j] is +1 for a nonbasic column at its lower bound, -1 at its
    # upper bound and 0 when basic, so sign * z is negative exactly where
    # moving the column off its bound lowers the objective.
    sign = np.ones(ncols)
    sign[basis] = 0.0
    z = c - c[basis] @ T[:, :ncols]
    z[basis] = 0.0
    ratios = np.empty(nrows)

    bland = False
    degenerate_run = 0
    bland_trigger = 2 * (nrows + ncols)
    iterations = bound_flips = degenerate_steps = 0

    while True:
        dj = sign * z
        if bland:
            enter = int((dj < -_OPT_TOL).argmax())
        else:
            enter = int(dj.argmin())
        if not dj[enter] < -_OPT_TOL:
            break
        if iterations >= max_iterations:
            raise LpFailureError(
                f"simplex: iteration cap of {max_iterations} pivots reached"
            )
        sigma = sign[enter]
        # Only the rows where the entering column is nonzero take part in
        # the ratio test or change in the update below.
        nz = T[:, enter].nonzero()[0]
        col = T[nz, enter]
        ys = sigma * col
        x_nz = xB[nz]

        # Ratio test: how far can the entering variable move before a basic
        # variable hits a bound, or it reaches its own opposite bound?
        # A row whose |ys| is at most _PIVOT_TOL sets no limit.
        rate = np.abs(ys)
        room = np.where(ys > 0.0, x_nz, ub[nz] - x_nz)
        delta = ratios[: nz.size]
        delta.fill(np.inf)
        np.divide(room, rate, out=delta, where=rate > _PIVOT_TOL)
        np.maximum(delta, 0.0, out=delta)
        flip = upper[enter]
        row_min = float(np.minimum.reduce(delta, initial=np.inf))

        if flip < row_min - 1e-12:
            # The entering variable reaches its other bound first: bound
            # flip, no basis change. flip is finite here (it is below
            # row_min, and an infinite flip cannot be).
            xB[nz] = x_nz - flip * ys
            sign[enter] = -sigma
            iterations += 1
            bound_flips += 1
            degenerate_run = 0
            continue

        if row_min == np.inf:
            raise LpFailureError(
                f"simplex: column {enter} is unbounded after {iterations} pivots"
            )

        ties = (delta <= row_min + 1e-12).nonzero()[0]
        t = int(ties[0]) if ties.size == 1 else int(ties[np.argmin(basis[nz[ties]])])
        row = int(nz[t])
        leave = int(basis[row])
        step = row_min
        if step <= _PIVOT_TOL:
            degenerate_steps += 1
            degenerate_run += 1
            if degenerate_run >= bland_trigger:
                bland = True
        else:
            degenerate_run = 0

        enter_bound = 0.0 if sigma > 0 else upper[enter]
        xB[nz] = x_nz - step * ys
        sign[leave] = 1.0 if ys[t] > 0 else -1.0
        basis[row] = enter
        ub[row] = upper[enter]
        sign[enter] = 0.0
        xB[row] = enter_bound + sigma * step

        # |col[t]| = |ys[t]| > _PIVOT_TOL: only such rows have a finite
        # ratio, and row_min is finite here. With the pivot entry zeroed,
        # one subtraction updates every nz row: the pivot row loses 0 times
        # itself, and the entering column becomes exactly the unit vector
        # (each other entry minus itself times 1).
        pivot = T[row]
        pivot /= col[t]
        col[t] = 0.0
        T[nz] -= col[:, None] * pivot
        zcoef = z[enter]
        if zcoef != 0.0:
            z -= zcoef * pivot[:ncols]
        z[enter] = 0.0
        iterations += 1

    at_upper = np.flatnonzero(sign < 0)
    x = np.zeros(ncols)
    x[at_upper] = upper[at_upper]
    x[basis] = np.clip(T[:, ncols] - T[:, at_upper] @ upper[at_upper], 0.0, ub)
    return SimplexResult(
        x=x,
        objective=float(c @ x),
        iterations=iterations,
        bound_flips=bound_flips,
        degenerate_steps=degenerate_steps,
        bland_switched=bland,
        reduced_costs=z,
    )
