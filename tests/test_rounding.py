import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import closest_string.rounding as rounding
from closest_string import (
    Alphabet,
    GeneratorConfig,
    LpFailureError,
    algorithm_a,
    algorithm_b,
    algorithm_c,
    brute_force_center,
    generate_uniform,
    validate_instance,
)
from closest_string.lp import build_csp_lp, lp_lower_bound, solve_lp
from closest_string.rounding import BRANCH_ARGMAX, BRANCH_PRESET, BRANCH_THRESHOLD


def _seeded(m, n, chars, seed):
    return generate_uniform(
        GeneratorConfig(m=m, n=n, alphabet=Alphabet.from_string(chars), seed=seed)
    )


class TestAlgorithmA:
    def test_two_opposed_strings_optimal(self):
        inst = validate_instance(["00", "11"])
        res = algorithm_a(inst)
        assert res.center.objective == 1
        assert res.center.objective == brute_force_center(inst).optimum

    def test_tie_breaks_by_alphabet_order(self):
        # LP midpoint 0.5/0.5; position-then-alphabet order picks '0'.
        res = algorithm_a(validate_instance(["0", "1"]))
        assert res.center.chars == "0"
        assert res.center.objective == 1
        assert brute_force_center(validate_instance(["0", "1"])).optimum == 1

    def test_identical_strings(self):
        inst = validate_instance(["TAG", "TAG", "TAG"])
        res = algorithm_a(inst)
        assert res.center.chars == "TAG"
        assert res.center.objective == 0
        assert res.exact_certified

    def test_exactly_n_lp_solves_one_fix_each(self):
        inst = _seeded(3, 7, "ACGT", 5)
        res = algorithm_a(inst)
        assert res.trace.lp_solves == inst.n
        for it in res.trace.iterations:
            assert len(it.fixes) == 1
            assert it.fixes[0].branch == BRANCH_ARGMAX

    def test_two_string_exactness_sample(self):
        # m=2 always lands on the exact optimum.
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            chars = str(rng.choice(["01", "ACGT"]))
            inst = _seeded(2, n, chars, int(rng.integers(0, 2**32)))
            res = algorithm_a(inst)
            assert res.center.objective == brute_force_center(inst).optimum

    def test_three_binary_strings_error_at_most_one(self):
        rng = np.random.default_rng(78)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            inst = _seeded(3, n, "01", int(rng.integers(0, 2**32)))
            res = algorithm_a(inst)
            assert res.center.objective - brute_force_center(inst).optimum <= 1


class TestAlgorithmB:
    def test_identical_strings_single_batch(self):
        inst = validate_instance(["CAT", "CAT"])
        res = algorithm_b(inst, 0.9)
        assert res.center.objective == 0
        assert res.trace.lp_solves == 1
        assert all(f.branch == BRANCH_THRESHOLD for f in res.trace.iterations[0].fixes)

    def test_argmax_fallback_below_threshold(self):
        res = algorithm_b(validate_instance(["0", "1"]), 0.9)
        assert res.center.chars == "0"
        assert res.center.objective == 1
        assert res.trace.iterations[0].fixes[0].branch == BRANCH_ARGMAX

    def test_theta_validation(self):
        inst = validate_instance(["0", "1"])
        with pytest.raises(ValueError):
            algorithm_b(inst, 0.4)
        with pytest.raises(ValueError):
            algorithm_b(inst, 0.5)
        with pytest.raises(ValueError):
            algorithm_b(inst, 1.2)

    def test_theta_boundary_value_qualifies(self):
        # Values exactly at theta count: identical strings give x = 1.0.
        res = algorithm_b(validate_instance(["GG", "GG"]), 1.0)
        assert res.trace.lp_solves == 1
        assert res.center.objective == 0

    def test_solve_count_between_one_and_n(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            inst = _seeded(
                int(rng.integers(2, 5)), int(rng.integers(2, 9)), "ACGT",
                int(rng.integers(0, 2**32)),
            )
            res = algorithm_b(inst)
            assert 1 <= res.trace.lp_solves <= inst.n


class TestAlgorithmC:
    def test_certified_base_run_returned_unchanged(self):
        inst = validate_instance(["CAT", "CAT", "CAT"])
        b = algorithm_b(inst, 0.9)
        assert b.exact_certified
        calls = 0
        original = rounding.solve_lp

        def counting(model, **kwargs):
            nonlocal calls
            calls += 1
            return original(model, **kwargs)

        rounding.solve_lp, calls = counting, 0
        try:
            c = algorithm_c(inst, 0.9)
        finally:
            rounding.solve_lp = original
        assert c.center == b.center
        assert c.trace == b.trace
        assert c.exact_certified
        # one base run only: no retry solves happened
        assert calls == b.trace.lp_solves

    def test_never_worse_than_b(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            inst = _seeded(
                int(rng.integers(2, 6)), int(rng.integers(2, 10)),
                str(rng.choice(["01", "ACGT"])), int(rng.integers(0, 2**32)),
            )
            rb = algorithm_b(inst, 0.9)
            rc = algorithm_c(inst, 0.9)
            assert rc.center.objective <= rb.center.objective

    def test_seeded_instance_error_at_most_one(self):
        # Oracle optimum computed by brute_force_center ahead of time.
        inst = _seeded(5, 8, "ACGT", 7)
        assert inst.strings == (
            "TGGTGTTA", "ACCTTACT", "ATACTCCC", "GCTCCGGG", "GTTTGGCT",
        )
        oracle = brute_force_center(inst)
        assert oracle.optimum == 5
        res = algorithm_c(inst)
        assert res.center.objective - oracle.optimum <= 1

    def test_retries_validation(self):
        inst = validate_instance(["0", "1"])
        with pytest.raises(ValueError):
            algorithm_c(inst, 0.9, retries=0)

    def test_preset_branch_recorded_on_retry_win(self):
        # Find an instance where a retry strictly improves on the base run,
        # then check its winning trace carries the preset pin.
        rng = np.random.default_rng(31337)
        found = False
        for _ in range(300):
            inst = _seeded(
                int(rng.integers(3, 6)), int(rng.integers(3, 10)),
                str(rng.choice(["01", "ACGT"])), int(rng.integers(0, 2**32)),
            )
            rb = algorithm_b(inst, 0.9)
            rc = algorithm_c(inst, 0.9)
            if rc.center.objective < rb.center.objective:
                found = True
                presets = [
                    f
                    for it in rc.trace.iterations
                    for f in it.fixes
                    if f.branch == BRANCH_PRESET
                ]
                assert len(presets) == 1
                assert presets[0].value == pytest.approx(1.0)
                break
        assert found, "no retry improvement found in the sample"


def test_argmax_pins_record_their_runner_up():
    # An argmax pin names its position's runner-up symbol; threshold pins
    # are confident and name none.
    res = algorithm_a(validate_instance(["0", "1"]))
    (fix,) = res.trace.iterations[0].fixes
    assert (fix.value, fix.runner_up) == (pytest.approx(0.5), "1")

    rng = np.random.default_rng(17)
    for _ in range(10):
        inst = _seeded(
            int(rng.integers(2, 5)), int(rng.integers(2, 9)), "ACGT",
            int(rng.integers(0, 2**32)),
        )
        res = algorithm_b(inst, 0.9)
        for it in res.trace.iterations:
            for f in it.fixes:
                if f.branch == BRANCH_ARGMAX:
                    assert f.runner_up in inst.alphabet
                    assert f.runner_up != f.symbol
                else:
                    assert f.runner_up is None


def test_every_position_fixed_exactly_once():
    rng = np.random.default_rng(90)
    for run in (algorithm_a, algorithm_b, algorithm_c):
        inst = _seeded(
            int(rng.integers(2, 5)), int(rng.integers(2, 9)), "ACGT",
            int(rng.integers(0, 2**32)),
        )
        res = run(inst)
        positions = [
            f.position for it in res.trace.iterations for f in it.fixes
        ]
        assert sorted(positions) == list(range(inst.n))
        assert len(res.center.chars) == inst.n
        assert all(c in inst.alphabet for c in res.center.chars)


def test_certification_implies_lp_bound_match():
    rng = np.random.default_rng(91)
    for _ in range(20):
        inst = _seeded(
            int(rng.integers(2, 5)), int(rng.integers(2, 9)), "01",
            int(rng.integers(0, 2**32)),
        )
        res = algorithm_c(inst)
        assert res.center.objective >= res.lp_bound
        if res.exact_certified:
            assert res.center.objective == res.lp_bound
            assert res.center.objective == brute_force_center(inst).optimum


def test_deterministic_traces():
    inst = _seeded(4, 8, "ACGT", 321)
    for run in (algorithm_a, algorithm_b, algorithm_c):
        r1, r2 = run(inst), run(inst)
        assert r1.center == r2.center
        assert r1.trace == r2.trace
        assert r1.lp_bound == r2.lp_bound


def test_solves_warm_start_and_record_their_pivots(monkeypatch):
    # Each re-solve starts from the argmax rounding of the solve before it;
    # each retry's first solve from the base run's root; the root from the
    # default consensus. Every iteration records its solve's pivots.
    inst = _seeded(6, 20, "ACGT", 8)
    calls = []
    original = rounding.solve_lp

    def spying(model, **kwargs):
        sol = original(model, **kwargs)
        calls.append((kwargs.get("start"), sol))
        return sol

    monkeypatch.setattr(rounding, "solve_lp", spying)
    b = algorithm_b(inst, 0.9)
    assert not b.exact_certified
    assert [it.lp_pivots for it in b.trace.iterations] == [
        sol.iterations for _, sol in calls
    ]
    assert b.trace.iterations[0].lp_pivots == b.root_lp.iterations
    assert calls[0][0] is None
    for (_, prev), (start, _) in zip(calls, calls[1:]):
        assert np.array_equal(start, prev.x.argmax(axis=1))

    runs = []
    round_once = rounding._round_once

    def spying_run(inst, theta, preset=None, start=None, cutoff=None):
        runs.append(start)
        return round_once(inst, theta, preset, start, cutoff)

    monkeypatch.setattr(rounding, "_round_once", spying_run)
    algorithm_c(inst, 0.9, retries=2)
    assert len(runs) == 3 and runs[0] is None
    for start in runs[1:]:
        assert np.array_equal(start, b.root_lp.x.argmax(axis=1))


def test_lp_failure_carries_the_trace_so_far(monkeypatch):
    inst = _seeded(6, 20, "ACGT", 8)
    assert algorithm_b(inst, 0.9).trace.lp_solves > 3
    calls = []
    original = rounding.solve_lp

    def failing_third(model, **kwargs):
        calls.append(model)
        if len(calls) == 3:
            raise LpFailureError("simplex: iteration cap of 0 pivots reached")
        return original(model, **kwargs)

    monkeypatch.setattr(rounding, "solve_lp", failing_third)
    with pytest.raises(LpFailureError, match="iteration cap") as err:
        algorithm_b(inst, 0.9)
    assert err.value.trace.lp_solves == 2
    assert len(calls) == 3


def _uncut_algorithm_c(inst, theta, retries):
    """algorithm_c with every retry run to its end and no early exit: the
    reference the cut retries must reproduce."""
    base = rounding._round_once(inst, theta)
    if base.exact_certified:
        return base
    candidates = sorted(
        (f for it in base.trace.iterations for f in it.fixes if f.runner_up is not None),
        key=lambda f: (f.value, f.position),
    )[:retries]
    start = base.root_lp.x.argmax(axis=1)
    best = base
    for f in candidates:
        retry = rounding._round_once(inst, theta, {f.position: f.runner_up}, start)
        if retry.center.objective < best.center.objective:
            best = replace(best, center=retry.center, trace=retry.trace)
    return best


@settings(max_examples=80, deadline=None)
@given(
    chars=st.sampled_from(["01", "ACGT", "ABCDEFGH"]),
    m=st.integers(2, 10),
    n=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    retries=st.integers(1, 8),
)
# Instances where a retry improves on the base run and later retries are
# then cut or skipped; most small instances are certified at once.
@example(chars="ACGT", m=6, n=12, seed=1, retries=8)
@example(chars="ABCDEFGH", m=6, n=12, seed=6, retries=8)
def test_cut_retries_match_the_uncut_reference(chars, m, n, seed, retries):
    inst = _seeded(m, n, chars, seed)
    got = algorithm_c(inst, 0.9, retries)
    want = _uncut_algorithm_c(inst, 0.9, retries)
    assert got.center == want.center
    assert got.trace == want.trace
    assert [it.lp_pivots for it in got.trace.iterations] == [
        it.lp_pivots for it in want.trace.iterations
    ]
    assert got.exact_certified == want.exact_certified


def test_round_once_cutoff_returns_none_once_a_ceiling_reaches_it(monkeypatch):
    ceilings = []
    original = rounding.solve_lp

    def spying(model, **kwargs):
        sol = original(model, **kwargs)
        ceilings.append(lp_lower_bound(sol))
        return sol

    monkeypatch.setattr(rounding, "solve_lp", spying)
    rng = np.random.default_rng(23)
    for theta in (math.inf, 0.9, math.inf, 0.9):
        inst = _seeded(
            int(rng.integers(3, 8)), int(rng.integers(6, 16)), "ACGT",
            int(rng.integers(0, 2**32)),
        )
        preset = {int(rng.integers(0, inst.n)): "C"}
        ceilings.clear()
        full = rounding._round_once(inst, theta, preset)
        reached = list(ceilings)
        for cutoff in range(reached[0] - 1, full.center.objective + 2):
            ceilings.clear()
            cut = rounding._round_once(inst, theta, preset, cutoff=cutoff)
            hits = [t for t, ceiling in enumerate(reached) if ceiling >= cutoff]
            if hits:
                assert cut is None
                assert len(ceilings) == hits[0] + 1
            else:
                assert ceilings == reached
                assert cut.center == full.center and cut.trace == full.trace


def test_preset_pinning_every_position_takes_one_solve():
    inst = validate_instance(["0", "1"])
    for theta in (math.inf, 0.9):
        res = rounding._round_once(inst, theta, {0: "1"})
        (it,) = res.trace.iterations
        assert it.fixes == (rounding.Fix(0, "1", 1.0, BRANCH_PRESET),)
        assert res.center.chars == "1"


def _reference_argmax_pin(x, unfixed, alphabet):
    """The single-pin rule as two modes computed it: flat argmax over the
    unfixed rows, and the runner-up of the winning row."""
    masked = np.where(unfixed[:, None], x, -np.inf)
    flat = int(np.argmax(masked))
    position, a = divmod(flat, x.shape[1])
    value = float(x[position, a])
    if x.shape[1] == 1:
        runner_up = None
    else:
        row = x[position].copy()
        row[a] = -np.inf
        runner_up = alphabet.symbols[int(np.argmax(row))]
    return position, alphabet.symbols[a], value, runner_up


def _reference_round_once(inst, theta, preset=None):
    """Rounding pass with a separate single-pin mode (``theta`` None) and
    the argmax pins' values and runner-ups kept in ``first``/``second``
    maps. Returns (center, [(dvalue, pivots, fixes)], first, second)."""
    n = inst.n
    alphabet = inst.alphabet
    fixed = dict(preset or {})
    unfixed = np.ones(n, dtype=bool)
    for j in fixed:
        unfixed[j] = False
    preset_pending = sorted(fixed)
    iterations, first, second = [], {}, {}
    start = None
    while True:
        sol = solve_lp(build_csp_lp(inst, fixed), start=start)
        fixes = []
        for j in preset_pending:
            fixes.append((j, fixed[j], float(sol.value(fixed[j], j)), BRANCH_PRESET))
        preset_pending = []
        if unfixed.any():
            if theta is not None:
                row_best = sol.x.max(axis=1)
                batch = np.where(unfixed & (row_best >= theta - 1e-9))[0]
                for j in batch:
                    a = int(np.argmax(sol.x[j]))
                    fixes.append(
                        (int(j), alphabet.symbols[a], float(sol.x[j, a]), BRANCH_THRESHOLD)
                    )
            if theta is None or not any(f[3] == BRANCH_THRESHOLD for f in fixes):
                j, symbol, value, runner_up = _reference_argmax_pin(sol.x, unfixed, alphabet)
                fixes.append((j, symbol, value, BRANCH_ARGMAX))
                first[j] = value
                if runner_up is not None:
                    second[j] = runner_up
        for j, symbol, _, branch in fixes:
            if branch != BRANCH_PRESET:
                fixed[j] = symbol
                unfixed[j] = False
        iterations.append((repr(sol.dvalue), sol.iterations, fixes))
        if not unfixed.any():
            break
        start = sol.x.argmax(axis=1)
    return "".join(fixed[j] for j in range(n)), iterations, first, second


@st.composite
def _rounding_case(draw):
    chars = draw(st.sampled_from(["01", "ACGT", "ABCDEFGH"]))
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 16))
    inst = _seeded(m, n, chars, draw(st.integers(0, 2**32 - 1)))
    theta = draw(st.sampled_from([math.inf, 0.51, 0.9, 1.0]))
    preset = draw(
        st.dictionaries(st.integers(0, n - 1), st.sampled_from(chars), max_size=2)
    )
    return inst, theta, preset


@settings(max_examples=80, deadline=None)
@given(_rounding_case())
def test_one_loop_matches_the_two_mode_reference(case):
    inst, theta, preset = case
    got = rounding._round_once(inst, theta, preset)
    center, iterations, first, second = _reference_round_once(
        inst, None if theta == math.inf else theta, preset
    )
    assert got.center.chars == center
    assert [
        (repr(it.dvalue), it.lp_pivots,
         [(f.position, f.symbol, repr(f.value), f.branch) for f in it.fixes])
        for it in got.trace.iterations
    ] == [
        (dvalue, pivots, [(j, a, repr(v), branch) for j, a, v, branch in fixes])
        for dvalue, pivots, fixes in iterations
    ]
    fixes = [f for it in got.trace.iterations for f in it.fixes]
    assert {f.position: f.value for f in fixes if f.branch == BRANCH_ARGMAX} == first
    assert {f.position: f.runner_up for f in fixes if f.runner_up is not None} == second
