from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import closest_string.lp
from closest_string import (
    Alphabet,
    CapacityError,
    EPSILON,
    GeneratorConfig,
    LpFailureError,
    LpModel,
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
    assert model.pins.tolist() == [-1]


def test_model_rejects_foreign_fixed_symbol():
    inst = validate_instance(["00", "11"])
    with pytest.raises(ValueError, match="pins must be"):
        build_csp_lp(inst, np.array([2, -1]))


def test_model_rejects_out_of_range_position():
    # Pinning position 5 of a length-2 instance needs a vector of length 6.
    inst = validate_instance(["00", "11"])
    pins = np.full(6, -1)
    pins[5] = 0
    with pytest.raises(ValueError, match="pins must be"):
        build_csp_lp(inst, pins)


def test_model_rejects_bad_pin_vectors():
    inst = validate_instance(["ACG", "TTT"])
    for bad in ([0, 1], [0.0, 1.0, 2.0], [0, -2, 1], [0, 4, 1]):
        with pytest.raises(ValueError, match="pins must be 3 integers in \\[-1, 4\\)"):
            build_csp_lp(inst, np.array(bad))
        with pytest.raises(ValueError, match="pins must be"):
            LpModel(inst, np.array(bad))


def test_model_keeps_its_own_read_only_pins():
    # Rounding writes to its vector between solves; a built model must not
    # see those writes.
    inst = validate_instance(["ACG", "TTT"])
    pins = np.array([1, -1, -1])
    model = build_csp_lp(inst, pins)
    pins[1] = 3
    pins[0] = -1
    assert model.pins.tolist() == [1, -1, -1]
    assert not model.pins.flags.writeable
    assert solve_lp(model).x[0].tolist() == [0.0, 1.0, 0.0, 0.0]


def test_solve_symmetric_midpoint():
    sol = solve_lp(build_csp_lp(validate_instance(["0", "1"])))
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
    sol = solve_lp(build_csp_lp(inst, np.array([0, -1])))
    assert_allclose(sol.dvalue, oracle, atol=EPS)
    assert_allclose(sol.value("0", 1), 0.0, atol=EPS)


def test_solve_single_string_is_integral_zero():
    inst = validate_instance(["GATTACA"])
    sol = solve_lp(build_csp_lp(inst))
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
        alphabet=alpha, x=base.x, dvalue=3.0000000004, iterations=0, weights=base.weights,
    )
    assert lp_lower_bound(overshoot) == 3
    integral = LpSolution(
        alphabet=alpha, x=base.x, dvalue=175.0, iterations=0, weights=base.weights,
    )
    assert lp_lower_bound(integral) == 175


def test_tableau_capacity_checked_before_solving(monkeypatch):
    # Four free positions over ACGT and 3 strings: (4 + 3) * (4 * 4 + 3 + 2) cells.
    model = build_csp_lp(validate_instance(["ACGTA", "AGGTC", "ACGAG"]), np.array([0, -1, -1, -1, -1]))
    cells = 7 * 21

    def no_simplex(*args, **kwargs):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(closest_string.lp, "solve_bounded", no_simplex)
    monkeypatch.setattr(closest_string.lp, "MAX_TABLEAU_CELLS", cells - 1)
    with pytest.raises(CapacityError) as err:
        solve_lp(model)
    assert err.value.required == cells and err.value.limit == cells - 1
    assert str(err.value) == f"LP tableau needs {cells} cells, above the limit of {cells - 1}"
    monkeypatch.setattr(closest_string.lp, "MAX_TABLEAU_CELLS", cells)
    with pytest.raises(AssertionError, match="the simplex ran"):
        solve_lp(model)


def test_unverified_vertex_raises(monkeypatch):
    # A simplex vertex off the model's constraints never becomes a solution.
    real = closest_string.lp.solve_bounded

    def off_constraint(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x[0] += 0.5
        return res

    monkeypatch.setattr(closest_string.lp, "solve_bounded", off_constraint)
    with pytest.raises(LpFailureError, match="vertex fails verification"):
        solve_lp(build_csp_lp(validate_instance(["0", "1"])))


def _check_feasible(inst, sol):
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
        pins = np.full(inst.n, -1)
        pins[int(rng.integers(0, inst.n))] = int(rng.integers(0, len(inst.alphabet)))
        pinned = solve_lp(build_csp_lp(inst, pins))
        assert pinned.dvalue >= base.dvalue - EPS


def test_pinned_respected_in_solution():
    inst = validate_instance(["ACAC", "TGCA", "ACGT"])
    sol = solve_lp(build_csp_lp(inst, np.array([-1, 2, -1, 3])))
    # Pinned rows are exactly one-hot, not merely within EPS.
    assert np.array_equal(sol.x[1], [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(sol.x[3], [0.0, 0.0, 0.0, 1.0])


def _random_pins(rng, inst):
    """A pin vector over a random subset of positions, from none up to all,
    each pinned to a random symbol's index."""
    pins = np.full(inst.n, -1)
    pinned = rng.permutation(inst.n)[: int(rng.integers(0, inst.n + 1))]
    pins[pinned] = rng.integers(0, len(inst.alphabet), size=pinned.size)
    return pins


def _highs_value(inst, pins):
    """The relaxation rebuilt independently and solved by scipy's HiGHS."""
    from scipy.optimize import linprog

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
            A_ub[i, j * k + int(inst.codes[i, j])] = -1.0
        A_ub[i, nx] = -1.0
    b_ub = np.full(m, -float(n))
    bounds = [(0.0, 1.0)] * nx + [(0.0, None)]
    for j in np.flatnonzero(pins >= 0):
        for idx in range(k):
            pin = 1.0 if idx == pins[j] else 0.0
            bounds[j * k + idx] = (pin, pin)
    ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                  b_eq=np.ones(n), bounds=bounds, method="highs")
    assert ref.status == 0
    return ref.fun


def test_optimum_matches_external_lp_oracle():
    # The fractional optima of our simplex and of HiGHS must agree.
    rng = np.random.default_rng(777)
    for _ in range(30):
        inst = _random_instance(rng, m_hi=6, n_hi=10)
        pins = _random_pins(rng, inst)
        sol = solve_lp(build_csp_lp(inst, pins))
        assert abs(sol.dvalue - _highs_value(inst, pins)) <= 1e-7


def test_value_independent_of_start():
    # Any integral start center, symbols absent from their column included,
    # reaches the same optimum value as the default consensus start.
    rng = np.random.default_rng(4242)
    for _ in range(40):
        inst = _random_instance(rng, m_hi=6, n_hi=10, alphabets=("01", "ACGT", "ABCDEFGH"))
        pins = _random_pins(rng, inst)
        model = build_csp_lp(inst, pins)
        default = solve_lp(model)
        ref = _highs_value(inst, pins)
        for _ in range(3):
            start = rng.integers(0, len(inst.alphabet), size=inst.n)
            sol = solve_lp(model, start=start)
            for j in np.flatnonzero(pins >= 0):
                one_hot = np.zeros(len(inst.alphabet))
                one_hot[pins[j]] = 1.0
                assert np.array_equal(sol.x[j], one_hot)
            assert abs(sol.dvalue - default.dvalue) <= EPS
            assert abs(sol.dvalue - ref) <= EPS


def test_start_must_be_a_center_over_the_alphabet():
    model = build_csp_lp(validate_instance(["ACG", "TTT"]))
    for bad in ([0, 1], [0, 1, 4], [0, -1, 2], [0.0, 1.0, 2.0]):
        with pytest.raises(ValueError, match="start must be"):
            solve_lp(model, start=np.array(bad))


def test_consensus_start_saves_root_pivots():
    # The old crash basis started from input string 0; the column consensus
    # starts closer to the optimum. Pivot counts are deterministic.
    acgt = Alphabet.from_string("ACGT")
    consensus = string0 = 0
    for seed in range(10):
        inst = generate_uniform(GeneratorConfig(m=10, n=80, alphabet=acgt, seed=seed))
        model = build_csp_lp(inst)
        consensus += solve_lp(model).iterations
        string0 += solve_lp(model, start=inst.codes[0]).iterations
    assert consensus < string0


def test_solve_deterministic():
    inst = generate_uniform(
        GeneratorConfig(m=5, n=9, alphabet=Alphabet.from_string("ACGT"), seed=11)
    )
    a = solve_lp(build_csp_lp(inst))
    b = solve_lp(build_csp_lp(inst))
    assert a.iterations == b.iterations
    assert a.dvalue == b.dvalue
    assert np.array_equal(a.x, b.x)


@st.composite
def lp_cases(draw):
    """A small instance over 01, ACGT or ABCDEFGH, a pin vector over any
    subset of positions (none to all), and a start center or None."""
    chars = draw(st.sampled_from(["01", "ACGT", "ABCDEFGH"]))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(
        st.text(alphabet=chars, min_size=n, max_size=n), min_size=m, max_size=m
    ))
    inst = validate_instance(rows, Alphabet.from_string(chars))
    pins = np.array(draw(st.lists(
        st.integers(-1, len(chars) - 1), min_size=n, max_size=n
    )))
    start = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, len(chars) - 1), min_size=n, max_size=n).map(np.array),
    ))
    return inst, pins, start


def _reference_tableau(inst, pins, basis):
    """B^-1 [A | b] by an LU solve, with A and b built entry by entry: one
    assignment row per free position, then string i's row (its free x
    values + d - slack i = n - the pins it matches)."""
    n, m, k = inst.n, inst.m, len(inst.alphabet)
    codes = inst.codes
    free = np.flatnonzero(pins < 0)
    f = free.size
    nx = f * k
    A = np.zeros((f + m, nx + 1 + m))
    for p in range(f):
        A[p, p * k : (p + 1) * k] = 1.0
    for i in range(m):
        for p, j in enumerate(free):
            A[f + i, p * k + int(codes[i, j])] = 1.0
        A[f + i, nx] = 1.0
        A[f + i, nx + 1 + i] = -1.0
    b = np.concatenate([np.ones(f), n - (codes == pins[None, :]).sum(axis=1)])
    return np.linalg.solve(A[:, basis], np.column_stack([A, b]))


@settings(max_examples=150, deadline=None)
@given(lp_cases())
def test_crash_tableau_equals_lu_reference(case):
    inst, pins, start = case
    real = closest_string.lp.solve_bounded
    seen = []

    def capture(T, c, upper, basis, **kwargs):
        seen.append((T.copy(), np.array(basis)))
        return real(T, c, upper, basis, **kwargs)

    with mock.patch.object(closest_string.lp, "solve_bounded", capture):
        solve_lp(build_csp_lp(inst, pins), start=start)
    (T, basis), = seen
    assert np.array_equal(T, _reference_tableau(inst, pins, basis))


@settings(max_examples=150, deadline=None)
@given(lp_cases())
def test_value_matches_highs(case):
    inst, pins, start = case
    sol = solve_lp(build_csp_lp(inst, pins), start=start)
    assert abs(sol.dvalue - _highs_value(inst, pins)) <= EPSILON


@settings(max_examples=150, deadline=None)
@given(lp_cases())
def test_weights_are_the_string_rows_duals(case):
    # Duality: the pinned mismatches and each free column's least weighted
    # mismatch, weighted by the duals, add up to the LP value.
    inst, pins, start = case
    sol = solve_lp(build_csp_lp(inst, pins), start=start)
    w = sol.weights
    assert w.shape == (inst.m,)
    assert np.all(w >= 0)
    if sol.dvalue > EPSILON:  # d is basic, so its reduced cost 1 - sum(w) is 0
        assert abs(w.sum() - 1.0) <= EPSILON
    value = 0.0
    for j, column in enumerate(zip(*inst.strings)):
        if pins[j] >= 0:
            pinned = inst.alphabet.symbols[pins[j]]
            value += sum(wi for wi, a in zip(w, column) if a != pinned)
        else:
            value += w.sum() - max(
                sum(wi for wi, a in zip(w, column) if a == b) for b in set(column)
            )
    assert abs(value - sol.dvalue) <= EPSILON
