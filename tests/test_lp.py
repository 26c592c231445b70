import numpy as np
import pytest
from numpy.testing import assert_allclose

from closest_string import (
    Alphabet,
    GeneratorConfig,
    LpSolution,
    brute_force_center,
    build_csp_lp,
    generate_uniform,
    lp_lower_bound,
    solve_lp,
    validate_instance,
)

EPS = 1e-6


def _random_instance(rng, m_hi=4, n_hi=7, alphabets=("01", "ACGT")):
    m = int(rng.integers(1, m_hi))
    n = int(rng.integers(1, n_hi))
    alpha = Alphabet.from_string(str(rng.choice(alphabets)))
    seed = int(rng.integers(0, 2**32))
    return generate_uniform(GeneratorConfig(m=m, n=n, alphabet=alpha, seed=seed))


def test_model_shape_two_singletons():
    model = build_csp_lp(validate_instance(["0", "1"]))
    assert (model.n, model.m, model.k) == (1, 2, 2)
    assert model.fixed == ()


def test_model_rejects_foreign_fixed_symbol():
    inst = validate_instance(["00", "11"])
    with pytest.raises(ValueError):
        build_csp_lp(inst, {0: "Z"})


def test_model_rejects_out_of_range_position():
    inst = validate_instance(["00", "11"])
    with pytest.raises(ValueError):
        build_csp_lp(inst, {5: "0"})


def test_solve_symmetric_midpoint():
    sol = solve_lp(build_csp_lp(validate_instance(["0", "1"])))
    assert sol.status == "optimal"
    assert_allclose(sol.dvalue, 0.5, atol=EPS)
    assert_allclose(sol.value("0", 0), 0.5, atol=EPS)
    assert_allclose(sol.value("1", 0), 0.5, atol=EPS)


def test_solve_pinned_matches_grid_oracle():
    # With position 0 pinned to '0', only x = x('0', 1) is free and the
    # distances are 1 - x and 1 + x. A 1e-3 grid gives the oracle optimum.
    xs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    oracle = float(np.min(np.maximum(1.0 - xs, 1.0 + xs)))
    assert oracle == 1.0

    inst = validate_instance(["00", "11"])
    sol = solve_lp(build_csp_lp(inst, {0: "0"}))
    assert sol.status == "optimal"
    assert_allclose(sol.dvalue, oracle, atol=EPS)
    assert_allclose(sol.value("0", 1), 0.0, atol=EPS)


def test_solve_single_string_is_integral_zero():
    inst = validate_instance(["GATTACA"])
    sol = solve_lp(build_csp_lp(inst))
    assert sol.status == "optimal"
    assert_allclose(sol.dvalue, 0.0, atol=EPS)
    for j, ch in enumerate("GATTACA"):
        assert_allclose(sol.value(ch, j), 1.0, atol=EPS)


def test_two_string_closed_form_n_half():
    for n in (2, 3, 6, 9, 12):
        inst = validate_instance(["0" * n, "1" * n])
        sol = solve_lp(build_csp_lp(inst))
        assert_allclose(sol.dvalue, n / 2, atol=EPS)


def test_lower_bound_rounds_up():
    sol = solve_lp(build_csp_lp(validate_instance(["0", "1"])))
    assert sol.dvalue == pytest.approx(0.5)
    assert lp_lower_bound(sol) == 1


def test_lower_bound_epsilon_guard():
    alpha = Alphabet.from_string("01")
    base = solve_lp(build_csp_lp(validate_instance(["0", "1"])))
    overshoot = LpSolution(
        alphabet=alpha, x=base.x, dvalue=3.0000000004, status="optimal",
        iterations=0,
    )
    assert lp_lower_bound(overshoot) == 3
    integral = LpSolution(
        alphabet=alpha, x=base.x, dvalue=175.0, status="optimal", iterations=0
    )
    assert lp_lower_bound(integral) == 175


def test_lower_bound_requires_optimal_status():
    alpha = Alphabet.from_string("01")
    sol = LpSolution(
        alphabet=alpha, x=np.zeros((1, 2)), dvalue=float("nan"),
        status="numeric-failure", iterations=0,
    )
    with pytest.raises(ValueError):
        lp_lower_bound(sol)


def _check_feasible(inst, sol):
    assert sol.status == "optimal"
    sums = sol.x.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= EPS)
    dists = inst.n - sol.x[np.arange(inst.n)[None, :], inst.codes].sum(axis=1)
    assert np.all(dists <= sol.dvalue + EPS)
    assert abs(sol.dvalue - dists.max()) <= EPS
    assert np.all(sol.x >= -EPS) and np.all(sol.x <= 1 + EPS)


def test_feasibility_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        inst = _random_instance(rng)
        _check_feasible(inst, solve_lp(build_csp_lp(inst)))


def test_relaxation_bound_below_exact_optimum():
    rng = np.random.default_rng(515)
    for _ in range(40):
        inst = _random_instance(rng)
        sol = solve_lp(build_csp_lp(inst))
        assert lp_lower_bound(sol) <= brute_force_center(inst).optimum


def test_monotone_under_fixing():
    rng = np.random.default_rng(99)
    for _ in range(40):
        inst = _random_instance(rng, m_hi=5, n_hi=8)
        base = solve_lp(build_csp_lp(inst))
        j = int(rng.integers(0, inst.n))
        a = str(rng.choice(list(inst.alphabet.symbols)))
        pinned = solve_lp(build_csp_lp(inst, {j: a}))
        assert pinned.dvalue >= base.dvalue - EPS


def test_pinned_respected_in_solution():
    inst = validate_instance(["ACAC", "TGCA", "ACGT"])
    sol = solve_lp(build_csp_lp(inst, {1: "G", 3: "T"}))
    assert sol.status == "optimal"
    # Pinned rows are exactly one-hot, not merely within EPS.
    assert np.array_equal(sol.x[1], [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(sol.x[3], [0.0, 0.0, 0.0, 1.0])


def test_optimum_matches_external_lp_oracle():
    # Rebuild the relaxation independently and hand it to scipy's HiGHS:
    # the fractional optima must agree.
    from scipy.optimize import linprog

    rng = np.random.default_rng(777)
    for _ in range(30):
        inst = _random_instance(rng, m_hi=6, n_hi=10)
        # Pin a random subset of positions, from none up to all of them.
        pinned = rng.permutation(inst.n)[: int(rng.integers(0, inst.n + 1))]
        fixed = {
            int(j): str(rng.choice(list(inst.alphabet.symbols))) for j in pinned
        }
        sol = solve_lp(build_csp_lp(inst, fixed))

        n, m, k = inst.n, inst.m, len(inst.alphabet)
        nx = n * k
        c = np.zeros(nx + 1)
        c[nx] = 1.0
        A_eq = np.zeros((n, nx + 1))
        for j in range(n):
            A_eq[j, j * k : (j + 1) * k] = 1.0
        A_ub = np.zeros((m, nx + 1))
        for i in range(m):
            for j in range(n):
                A_ub[i, j * k + inst.codes[i, j]] = -1.0
            A_ub[i, nx] = -1.0
        b_ub = np.full(m, -float(n))
        bounds = [(0.0, 1.0)] * nx + [(0.0, None)]
        for j, a in fixed.items():
            for idx, sym in enumerate(inst.alphabet.symbols):
                pin = 1.0 if sym == a else 0.0
                bounds[j * k + idx] = (pin, pin)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                      b_eq=np.ones(n), bounds=bounds, method="highs")
        assert ref.status == 0
        assert sol.status == "optimal"
        assert abs(sol.dvalue - ref.fun) <= 1e-7


def test_solve_deterministic():
    inst = generate_uniform(
        GeneratorConfig(m=5, n=9, alphabet=Alphabet.from_string("ACGT"), seed=11)
    )
    a = solve_lp(build_csp_lp(inst))
    b = solve_lp(build_csp_lp(inst))
    assert a.iterations == b.iterations
    assert a.dvalue == b.dvalue
    assert np.array_equal(a.x, b.x)
