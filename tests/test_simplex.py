import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import closest_string.lp as lp
from closest_string import (
    Alphabet,
    GeneratorConfig,
    LpFailureError,
    algorithm_a,
    algorithm_c,
    generate_uniform,
)
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


def test_reduced_costs_are_the_duals():
    # min -x1 - x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6: optimum (1.6, 1.2)
    # with duals 0.4 and 0.2 on the two rows, the slacks' reduced costs.
    res = _solve_with_slack_basis(
        A_ub=[[1.0, 2.0], [3.0, 1.0]], b_ub=[4.0, 6.0], c=[-1.0, -1.0],
        upper=np.array([10.0, 10.0]),
    )
    assert_allclose(res.x[:2], [1.6, 1.2], atol=1e-12)
    assert_allclose(res.reduced_costs, [0.0, 0.0, 0.4, 0.2], atol=1e-12)


def test_reduced_costs_satisfy_optimality_on_random_boxes():
    rng = np.random.default_rng(98)
    for _ in range(100):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 10))
        A = rng.integers(-2, 4, size=(m, n)).astype(float)
        upper = rng.integers(1, 4, size=n).astype(float)
        res = _solve_with_slack_basis(
            A, rng.integers(0, 6, size=m), rng.integers(-5, 6, size=n).astype(float), upper
        )
        z, x = res.reduced_costs[:n], res.x[:n]
        # A column off its lower bound cannot have z > 0, nor one off its
        # upper bound z < 0, or moving it would lower the objective.
        assert np.all(z[x > 1e-9] <= 1e-6)
        assert np.all(z[x < upper - 1e-9] >= -1e-6)


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


def _dense_reference(T, c, upper, basis):
    """The simplex with a rank-1 update of the whole tableau per pivot and
    boolean masks for pricing: the reference the row-sparse kernel must
    reproduce step for step. Returns (x, iterations)."""
    T = np.array(T, dtype=float)
    c = np.asarray(c, dtype=float)
    upper = np.asarray(upper, dtype=float)
    nrows, ncols = T.shape[0], T.shape[1] - 1
    basis = np.array(basis, dtype=np.int64)
    lower_, upper_, basic_ = 1, 2, 0
    vstat = np.full(ncols, lower_, dtype=np.int8)
    vstat[basis] = basic_
    xB = T[:, ncols].copy()
    z = c - c[basis] @ T[:, :ncols]
    z[basis] = 0.0
    bland, degenerate_run, iterations = False, 0, 0
    while True:
        eligible = np.where(
            ((vstat == lower_) & (z < -1e-6)) | ((vstat == upper_) & (z > 1e-6))
        )[0]
        if eligible.size == 0:
            break
        enter = int(eligible[0] if bland else eligible[np.argmax(np.abs(z[eligible]))])
        sigma = 1.0 if vstat[enter] == lower_ else -1.0
        ys = sigma * T[:, enter]
        delta = np.full(nrows, np.inf)
        dec, inc = ys > 1e-9, ys < -1e-9
        delta[dec] = xB[dec] / ys[dec]
        delta[inc] = (upper[basis[inc]] - xB[inc]) / (-ys[inc])
        np.maximum(delta, 0.0, out=delta)
        row_min = float(delta.min()) if nrows else np.inf
        if upper[enter] < row_min - 1e-12:
            xB -= upper[enter] * ys
            vstat[enter] = upper_ if vstat[enter] == lower_ else lower_
            iterations += 1
            degenerate_run = 0
            continue
        ties = np.where(delta <= row_min + 1e-12)[0]
        row = int(ties[np.argmin(basis[ties])])
        leave = int(basis[row])
        if row_min <= 1e-9:
            degenerate_run += 1
            bland = bland or degenerate_run >= 2 * (nrows + ncols)
        else:
            degenerate_run = 0
        enter_bound = 0.0 if vstat[enter] == lower_ else upper[enter]
        xB -= row_min * ys
        vstat[leave] = lower_ if ys[row] > 0 else upper_
        basis[row] = enter
        vstat[enter] = basic_
        xB[row] = enter_bound + sigma * row_min
        T[row, :] /= T[row, enter]
        colvals = T[:, enter].copy()
        colvals[row] = 0.0
        T -= np.outer(colvals, T[row, :])
        if z[enter] != 0.0:
            z -= z[enter] * T[row, :ncols]
        T[:, enter] = 0.0
        T[row, enter] = 1.0
        z[enter] = 0.0
        iterations += 1
    at_upper = np.flatnonzero(vstat == upper_)
    x = np.zeros(ncols)
    x[at_upper] = upper[at_upper]
    x[basis] = np.clip(T[:, ncols] - T[:, at_upper] @ upper[at_upper], 0.0, upper[basis])
    return x, iterations


def _assert_matches_dense_reference(T, c, upper, basis):
    x_ref, iterations_ref = _dense_reference(T, c, upper, basis)
    res = solve_bounded(np.array(T, dtype=float), c, upper, basis)
    assert res.iterations == iterations_ref
    # Bitwise equal; only the sign of a zero may differ.
    assert (res.x + 0.0).tobytes() == (x_ref + 0.0).tobytes()
    assert res.bound_flips + res.degenerate_steps <= res.iterations


def test_row_sparse_kernel_matches_dense_reference_on_random_boxes():
    rng = np.random.default_rng(99)
    for _ in range(150):
        m, n = int(rng.integers(1, 8)), int(rng.integers(2, 12))
        # Sparse rows and zero right-hand sides make degenerate steps and
        # columns that touch few rows.
        A = rng.integers(-2, 4, size=(m, n)) * (rng.random((m, n)) < 0.5)
        b = rng.integers(0, 6, size=m)
        T = np.hstack([A, np.eye(m), b[:, None]]).astype(float)
        c = np.concatenate([rng.integers(-5, 6, size=n), np.zeros(m)]).astype(float)
        upper = np.concatenate([rng.integers(1, 4, size=n), np.full(m, np.inf)])
        _assert_matches_dense_reference(T, c, upper.astype(float), np.arange(n, n + m))


def test_row_sparse_kernel_matches_dense_reference_on_lp_tableaux(monkeypatch):
    captured = []
    kernel = lp.solve_bounded

    def capturing(T, c, upper, basis):
        captured.append((T.copy(), c, upper, basis))
        return kernel(T, c, upper, basis)

    monkeypatch.setattr(lp, "solve_bounded", capturing)
    for alg, m, n, chars, seed in (
        (algorithm_c, 6, 15, "ABCDEFGH", 3),
        (algorithm_a, 8, 20, "01", 4),
        (algorithm_c, 10, 40, "ACGT", 5),
    ):
        alg(generate_uniform(
            GeneratorConfig(m=m, n=n, alphabet=Alphabet.from_string(chars), seed=seed)
        ))
    assert len(captured) >= 20
    for args in captured:
        _assert_matches_dense_reference(*args)


def test_reports_bound_flips_degenerate_steps_and_bland_switch():
    res = _solve_with_slack_basis(
        A_ub=[[1.0, 0.0]], b_ub=[10.0], c=[-1.0, 0.0], upper=np.array([2.0, 1.0]),
    )
    assert (res.bound_flips, res.degenerate_steps, res.bland_switched) == (1, 0, False)

    # Beale's example cycles under the largest-coefficient rule; after
    # 2 * (3 + 7) degenerate steps Bland's rule takes over and ends it.
    T = np.array([
        [1, 0, 0, 0.25, -8, -1, 9, 0],
        [0, 1, 0, 0.5, -12, -0.5, 3, 0],
        [0, 0, 1, 0, 0, 1, 0, 1],
    ])
    c = np.array([0, 0, 0, -0.75, 20, -0.5, 6])
    res = solve_bounded(T, c, np.full(7, np.inf), np.array([0, 1, 2]))
    assert res.bland_switched
    assert res.degenerate_steps >= 20
    assert_allclose(res.objective, -1.25, atol=1e-9)
    _assert_matches_dense_reference(T, c, np.full(7, np.inf), np.array([0, 1, 2]))
