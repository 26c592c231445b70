import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from closest_string import LpFailureError
from closest_string.simplex import solve_bounded


def _solve_with_slack_basis(A_ub, b_ub, c, lower, upper):
    """Convert A_ub x <= b_ub into equalities with slack columns.

    Assumes lower bounds of 0 keep the all-slack basis feasible (b_ub >= 0),
    which holds for every test below.
    """
    A_ub = np.asarray(A_ub, dtype=float)
    m, n = A_ub.shape
    A = np.hstack([A_ub, np.eye(m)])
    lo = np.concatenate([lower, np.zeros(m)])
    hi = np.concatenate([upper, np.full(m, np.inf)])
    cc = np.concatenate([c, np.zeros(m)])
    basis = np.arange(n, n + m)
    return solve_bounded(A, np.asarray(b_ub, float), cc, lo, hi, basis)


def test_simple_box_lp():
    # max x + y inside the unit box under x + y <= 1.5
    res = _solve_with_slack_basis(
        A_ub=[[1.0, 1.0]],
        b_ub=[1.5],
        c=[-1.0, -1.0],
        lower=np.zeros(2),
        upper=np.ones(2),
    )
    assert_allclose(res.objective, -1.5, atol=1e-9)


def test_bound_flip_path():
    # Optimum pushes x to its upper bound without the constraint binding.
    res = _solve_with_slack_basis(
        A_ub=[[1.0, 0.0]],
        b_ub=[10.0],
        c=[-1.0, 0.0],
        lower=np.zeros(2),
        upper=np.array([2.0, 1.0]),
    )
    assert_allclose(res.x[0], 2.0, atol=1e-9)
    assert_allclose(res.objective, -2.0, atol=1e-9)


def test_pinned_variable_never_moves():
    res = _solve_with_slack_basis(
        A_ub=[[1.0, 1.0]],
        b_ub=[2.0],
        c=[-1.0, -1.0],
        lower=np.array([0.0, 0.25]),
        upper=np.array([1.0, 0.25]),
    )
    assert_allclose(res.x[1], 0.25, atol=1e-12)
    assert_allclose(res.x[0], 1.0, atol=1e-9)


def test_iteration_cap_raises():
    res = _solve_with_slack_basis(
        A_ub=[[1.0, 1.0]],
        b_ub=[1.5],
        c=[-1.0, -1.0],
        lower=np.zeros(2),
        upper=np.ones(2),
    )
    assert res.iterations > 0
    with pytest.raises(LpFailureError, match="iteration cap of 0 pivots"):
        solve_bounded(
            np.hstack([[[1.0, 1.0]], np.eye(1)]),
            np.array([1.5]),
            np.array([-1.0, -1.0, 0.0]),
            np.zeros(3),
            np.array([1.0, 1.0, np.inf]),
            np.array([2]),
            max_iterations=0,
        )


def test_singular_starting_basis_raises():
    # Columns 0 and 1 are parallel, so they cannot form a basis.
    with pytest.raises(LpFailureError, match="starting basis is singular"):
        solve_bounded(
            np.array([[1.0, 2.0, 1.0, 0.0], [2.0, 4.0, 0.0, 1.0]]),
            np.ones(2), np.zeros(4), np.zeros(4), np.full(4, np.inf),
            np.array([0, 1]),
        )


def test_unbounded_column_raises():
    # min -x subject to -x <= 1: x grows without limit.
    with pytest.raises(LpFailureError, match="column 0 is unbounded after 0 pivots"):
        _solve_with_slack_basis(
            A_ub=[[-1.0]], b_ub=[1.0], c=[-1.0],
            lower=np.zeros(1), upper=np.array([np.inf]),
        )


def test_rejects_bad_basis():
    with pytest.raises(ValueError):
        solve_bounded(
            np.eye(2), np.ones(2), np.zeros(2),
            np.zeros(2), np.ones(2), np.array([0, 0]),
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
        res = _solve_with_slack_basis(A_ub, b_ub, c, np.zeros(n), upper)
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
    first = _solve_with_slack_basis(A_ub, b_ub, c, np.zeros(5), upper)
    second = _solve_with_slack_basis(A_ub, b_ub, c, np.zeros(5), upper)
    assert first.iterations == second.iterations
    assert np.array_equal(first.x, second.x)
