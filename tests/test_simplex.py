import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from closest_string import LpFailureError
from closest_string.simplex import solve_bounded


def _solve_with_slack_basis(A_ub, b_ub, c, upper):
    """Convert A_ub x <= b_ub, 0 <= x <= upper into equalities with slack
    columns. The all-slack basis is the identity, so its tableau is simply
    [A | b]; it is feasible because b_ub >= 0 in every test below.
    """
    A_ub = np.asarray(A_ub, dtype=float)
    m, n = A_ub.shape
    T = np.hstack([A_ub, np.eye(m), np.asarray(b_ub, float)[:, None]])
    hi = np.concatenate([upper, np.full(m, np.inf)])
    cc = np.concatenate([c, np.zeros(m)])
    basis = np.arange(n, n + m)
    return solve_bounded(T, cc, hi, basis)


def test_simple_box_lp():
    # max x + y inside the unit box under x + y <= 1.5
    res = _solve_with_slack_basis(
        A_ub=[[1.0, 1.0]],
        b_ub=[1.5],
        c=[-1.0, -1.0],
        upper=np.ones(2),
    )
    assert_allclose(res.objective, -1.5, atol=1e-9)


def test_bound_flip_path():
    # Optimum pushes x to its upper bound without the constraint binding.
    res = _solve_with_slack_basis(
        A_ub=[[1.0, 0.0]],
        b_ub=[10.0],
        c=[-1.0, 0.0],
        upper=np.array([2.0, 1.0]),
    )
    assert_allclose(res.x[0], 2.0, atol=1e-9)
    assert_allclose(res.objective, -2.0, atol=1e-9)


def test_iteration_cap_raises():
    res = _solve_with_slack_basis(
        A_ub=[[1.0, 1.0]],
        b_ub=[1.5],
        c=[-1.0, -1.0],
        upper=np.ones(2),
    )
    assert res.iterations > 0
    with pytest.raises(LpFailureError, match="iteration cap of 0 pivots"):
        solve_bounded(
            np.array([[1.0, 1.0, 1.0, 1.5]]),
            np.array([-1.0, -1.0, 0.0]),
            np.array([1.0, 1.0, np.inf]),
            np.array([2]),
            max_iterations=0,
        )


def test_unbounded_column_raises():
    # min -x subject to -x <= 1: x grows without limit.
    with pytest.raises(LpFailureError, match="column 0 is unbounded after 0 pivots"):
        _solve_with_slack_basis(
            A_ub=[[-1.0]], b_ub=[1.0], c=[-1.0],
            upper=np.array([np.inf]),
        )


def test_rejects_bad_basis():
    with pytest.raises(ValueError):
        solve_bounded(
            np.hstack([np.eye(2), np.ones((2, 1))]), np.zeros(2),
            np.ones(2), np.array([0, 0]),
        )


def test_rejects_infeasible_start():
    # Basic values are the tableau's last column: -1 is below its bound 0,
    # 3 above its bound 2.
    for rhs in (-1.0, 3.0):
        with pytest.raises(ValueError, match="not primal feasible"):
            solve_bounded(
                np.array([[1.0, 1.0, rhs]]), np.zeros(2),
                np.array([2.0, 2.0]), np.array([0]),
            )


def test_random_boxes_match_scipy():
    # Independent oracle: scipy's HiGHS on random box-constrained programs.
    rng = np.random.default_rng(4242)
    for trial in range(40):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        A_ub = rng.integers(0, 4, size=(m, n)).astype(float)
        b_ub = rng.integers(1, 10, size=m).astype(float)
        c = rng.integers(-5, 6, size=n).astype(float)
        upper = rng.integers(1, 4, size=n).astype(float)
        res = _solve_with_slack_basis(A_ub, b_ub, c, upper)
        ref = linprog(
            c, A_ub=A_ub, b_ub=b_ub, bounds=list(zip(np.zeros(n), upper)),
            method="highs",
        )
        assert ref.status == 0, f"oracle failed on trial {trial}"
        assert_allclose(res.objective, ref.fun, atol=1e-7)


def test_deterministic_repeat():
    rng = np.random.default_rng(7)
    A_ub = rng.integers(0, 3, size=(3, 5)).astype(float)
    b_ub = rng.integers(1, 8, size=3).astype(float)
    c = rng.integers(-4, 5, size=5).astype(float)
    upper = np.full(5, 2.0)
    first = _solve_with_slack_basis(A_ub, b_ub, c, upper)
    second = _solve_with_slack_basis(A_ub, b_ub, c, upper)
    assert first.iterations == second.iterations
    assert np.array_equal(first.x, second.x)
