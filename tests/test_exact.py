import itertools
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closest_string import (
    Alphabet,
    CapacityError,
    GeneratorConfig,
    algorithm_c,
    branch_and_bound,
    brute_force_center,
    build_csp_lp,
    generate_uniform,
    lp_lower_bound,
    objective,
    solve_lp,
    validate_instance,
)
from closest_string import exact


def _seeded(m, n, chars, seed):
    return generate_uniform(
        GeneratorConfig(m=m, n=n, alphabet=Alphabet.from_string(chars), seed=seed)
    )


# Small instances for the property tests: m 1-8, n 1-9 over three alphabets,
# cut to the longest column prefix whose grid a Python reference enumerates
# quickly.
_GRID_CAP = 3000


@st.composite
def small_instances(draw):
    chars = draw(st.sampled_from(["01", "ACGT", "ABCDEFGH"]))
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 9))
    rows = draw(st.lists(
        st.text(alphabet=chars, min_size=n, max_size=n), min_size=m, max_size=m
    ))
    size, keep = 1, 0
    for col in zip(*rows):
        size *= len(set(col))
        if size > _GRID_CAP:
            break
        keep += 1
    return validate_instance([r[:keep] for r in rows], Alphabet.from_string(chars))


def _reference_center(inst):
    """First optimum of a plain enumeration over the sorted column sets."""
    order = inst.alphabet.index
    sets = [sorted(set(col), key=order) for col in zip(*inst.strings)]
    best, best_obj, count = None, None, 0
    for cand in itertools.product(*sets):
        count += 1
        obj = max(sum(a != b for a, b in zip(cand, s)) for s in inst.strings)
        if best_obj is None or obj < best_obj:
            best, best_obj = "".join(cand), obj
    return best, best_obj, count


class TestBruteForce:
    def test_single_string(self):
        res = brute_force_center(validate_instance(["ACGT"]))
        assert res.optimum == 0
        assert res.center.chars == "ACGT"
        assert res.certified

    def test_cross_pair(self):
        # all four centers: 00 -> 1, 01 -> 1, 10 -> 1, 11 -> 1
        res = brute_force_center(validate_instance(["01", "10"]))
        assert res.optimum == 1
        assert res.nodes_explored == 4

    def test_forced_columns(self):
        # columns 1-2 are forced to A, C; column 3 offers G, T, C
        res = brute_force_center(validate_instance(["ACG", "ACT", "ACC"]))
        assert res.optimum == 1
        assert res.nodes_explored == 3

    def test_capacity_error_names_required_count(self):
        inst = _seeded(8, 30, "ACGT", 13)
        with pytest.raises(CapacityError) as err:
            brute_force_center(inst, node_limit=1000)
        assert err.value.required > 1000
        assert str(err.value.required) in str(err.value)

    def test_matches_full_grid_on_small_alphabets(self):
        # Column restriction is lossless: the optimum over the full sigma^n
        # grid equals the column-restricted optimum.
        rng = np.random.default_rng(5150)
        for _ in range(20):
            chars = str(rng.choice(["01", "012"]))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            inst = _seeded(m, n, chars, int(rng.integers(0, 2**32)))
            restricted = brute_force_center(inst)
            full = min(
                objective("".join(t), inst).objective
                for t in itertools.product(chars, repeat=n)
            )
            assert restricted.optimum == full

    def test_memory_scales_with_varying_columns_only(self):
        # Two strings of length 600 that differ in 16 columns: 2^16 centers.
        # Only those 16 columns are enumerated, so a 65,536-row chunk stays
        # small whatever the length.
        rng = np.random.default_rng(16)
        a = rng.integers(0, 4, size=600)
        b = a.copy()
        varying = rng.choice(600, size=16, replace=False)
        b[varying] = (a[varying] + 1) % 4
        inst = validate_instance(
            ["".join("ACGT"[c] for c in s) for s in (a, b)], Alphabet.from_string("ACGT")
        )
        tracemalloc.start()
        try:
            res = brute_force_center(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.nodes_explored == 1 << 16
        assert peak < 32 * 2**20
        assert res.optimum == branch_and_bound(inst).optimum == 8

    def test_memory_bounded_for_many_strings(self):
        # 3000 strings with 14 varying binary columns: one unchunked
        # distance table over all 2^14 centers would take 94 MiB; chunks
        # sized by m keep the peak small.
        rng = np.random.default_rng(3000)
        codes = np.zeros((3000, 20), dtype=np.int64)
        codes[:, 3:17] = rng.integers(0, 2, size=(3000, 14))
        inst = validate_instance(["".join("01"[c] for c in row) for row in codes])
        tracemalloc.start()
        try:
            res = brute_force_center(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert res.nodes_explored == 1 << 14
        # Independent check: every center's distance to every string as a
        # product of 0/1 matrices, first optimum in enumeration order.
        varying = codes[:, 3:17].astype(float)
        centers = ((np.arange(1 << 14)[:, None] >> np.arange(13, -1, -1)) & 1).astype(float)
        worst = np.concatenate([
            (block @ (1 - varying).T + (1 - block) @ varying.T).max(axis=1)
            for block in np.array_split(centers, 16)
        ])
        assert res.optimum == worst.min()
        assert res.center.chars[3:17] == "".join(str(int(c)) for c in centers[worst.argmin()])

    def test_stop_reason_is_exhausted(self):
        assert brute_force_center(validate_instance(["01", "10"])).stop_reason == "exhausted"

    @settings(max_examples=150, deadline=None)
    @given(small_instances(), st.sampled_from(["tiny", "small", "default"]))
    def test_matches_itertools_reference(self, inst, chunk):
        # The chunk sizes force every split between the high and low blocks:
        # one row per chunk, a few rows, and everything in one table.
        cells = {"tiny": 1, "small": 3 * inst.m, "default": exact._CHUNK_CELLS}[chunk]
        center, optimum, count = _reference_center(inst)
        with mock.patch.object(exact, "_CHUNK_CELLS", cells):
            res = brute_force_center(inst)
        assert res.center.chars == center
        assert res.optimum == optimum
        assert res.nodes_explored == count


class TestBranchAndBound:
    @settings(max_examples=150, deadline=None)
    @given(small_instances(), st.data())
    def test_certified_optimum_for_any_valid_bound(self, inst, data):
        _, optimum, _ = _reference_center(inst)
        bound = data.draw(st.integers(0, optimum))
        incumbent = data.draw(st.one_of(
            st.none(),
            st.text(alphabet="".join(inst.alphabet.symbols), min_size=inst.n, max_size=inst.n)
            .map(lambda chars: objective(chars, inst)),
        ))
        res = branch_and_bound(inst, lower_bound=bound, incumbent=incumbent)
        assert res.certified
        assert res.optimum == optimum
        assert res.stop_reason == ("lower-bound" if bound == optimum else "exhausted")

    @settings(max_examples=150, deadline=None)
    @given(small_instances(), st.sampled_from(["tiny", "small", "default"]))
    def test_first_incumbent_matches_broadcast_reference(self, inst, chunk):
        # A lower bound of n stops the search before its first node, so the
        # result is the first incumbent: the first input string with the
        # smallest largest distance. The chunk sizes force one row per
        # comparison block, a few rows, and all rows at once.
        cells = {"tiny": 1, "small": 3 * inst.n, "default": exact._CHUNK_CELLS}[chunk]
        codes = inst.codes
        reference = (codes[:, None, :] != codes[None, :, :]).sum(axis=2).max(axis=1)
        with mock.patch.object(exact, "_CHUNK_CELLS", cells):
            res = branch_and_bound(inst, lower_bound=inst.n)
        assert res.nodes_explored == 0
        assert res.center.chars == inst.strings[int(np.argmin(reference))]
        assert res.optimum == reference.min()

    def test_first_incumbent_memory_bounded(self):
        # 1500 x 40 binary: an (m, m, n) comparison would take 86 MiB.
        inst = _seeded(1500, 40, "01", 3)
        tracemalloc.start()
        try:
            res = branch_and_bound(inst, time_limit=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert res.stop_reason == "timeout"

    def test_zero_time_limit_returns_at_once_for_many_strings(self):
        # The deadline check counts the strings each node touches, about 750
        # here, as well as the nodes; checking every 4096 nodes whatever
        # their cost overshot a zero limit by some 0.3 s at this size.
        inst = _seeded(1500, 40, "01", 3)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            res = branch_and_bound(inst, time_limit=0)
            elapsed.append(time.perf_counter() - start)
            assert res.stop_reason == "timeout"
            assert res.nodes_explored < 16
        assert min(elapsed) < 0.1

    def test_stop_reason_exhausted(self):
        res = branch_and_bound(validate_instance(["00", "11"]))
        assert res.stop_reason == "exhausted"
        assert res.certified

    def test_stop_reason_lower_bound(self):
        inst = validate_instance(["00", "11"])
        res = branch_and_bound(inst, lower_bound=1)
        assert res.stop_reason == "lower-bound"
        assert res.certified and res.optimum == 1
        assert res.nodes_explored < branch_and_bound(inst).nodes_explored

    def test_deep_instance_times_out_without_recursion(self, deep_instance):
        inst = deep_instance
        res = branch_and_bound(inst, time_limit=1)
        assert res.stop_reason == "timeout"
        assert not res.certified
        assert len(res.center.chars) == inst.n
        assert res.optimum == objective(res.center.chars, inst).objective
        assert 20 <= res.optimum <= 40

    def test_two_opposed_strings(self):
        res = branch_and_bound(validate_instance(["00", "11"]))
        assert res.optimum == 1
        assert res.certified
        assert res.optimum == brute_force_center(validate_instance(["00", "11"])).optimum

    def test_identical_strings_prune_everything(self):
        inst = validate_instance(["GATA"] * 5)
        res = branch_and_bound(inst)
        assert res.optimum == 0
        assert res.certified
        assert res.nodes_explored <= inst.n * len(inst.alphabet)

    def test_cross_oracle_equality(self):
        inst = _seeded(4, 10, "01", 99)
        assert branch_and_bound(inst).optimum == brute_force_center(inst).optimum

    def test_cross_oracle_random_sample(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            inst = _seeded(
                int(rng.integers(1, 6)), int(rng.integers(1, 10)),
                str(rng.choice(["01", "ACGT"])), int(rng.integers(0, 2**32)),
            )
            bb = branch_and_bound(inst)
            assert bb.certified
            assert bb.optimum == brute_force_center(inst).optimum

    def test_lp_root_bound_does_not_change_answer(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            inst = _seeded(3, 8, "ACGT", int(rng.integers(0, 2**32)))
            plain = branch_and_bound(inst)
            bound = lp_lower_bound(solve_lp(build_csp_lp(inst)))
            bounded = branch_and_bound(inst, lower_bound=bound)
            assert plain.optimum == bounded.optimum
            assert plain.center == bounded.center
            assert bounded.certified
            assert bounded.nodes_explored <= plain.nodes_explored

    def test_heuristic_incumbent_keeps_the_optimum(self):
        rng = np.random.default_rng(62)
        for _ in range(15):
            inst = _seeded(
                int(rng.integers(2, 6)), int(rng.integers(2, 10)),
                str(rng.choice(["01", "ACGT"])), int(rng.integers(0, 2**32)),
            )
            res = algorithm_c(inst)
            bb = branch_and_bound(inst, lower_bound=res.lp_bound, incumbent=res.center)
            assert bb.certified
            assert bb.optimum == brute_force_center(inst).optimum
            assert bb.optimum <= res.center.objective

    def test_certified_incumbent_ends_search_at_once(self):
        inst = _seeded(5, 30, "ACGT", 2)
        res = algorithm_c(inst)
        assert res.exact_certified
        bb = branch_and_bound(inst, lower_bound=res.lp_bound, incumbent=res.center)
        assert bb.certified
        assert bb.nodes_explored == 0
        assert bb.center == res.center

    def test_worse_incumbent_is_ignored(self):
        inst = _seeded(4, 10, "01", 99)
        plain = branch_and_bound(inst)
        # The complement of string 0 is at distance n from it, which no
        # input string exceeds.
        worst = objective(inst.strings[0].translate(str.maketrans("01", "10")), inst)
        assert worst.objective == inst.n
        assert min(objective(s, inst).objective for s in inst.strings) < inst.n
        seeded = branch_and_bound(inst, incumbent=worst)
        assert seeded == plain

    def test_timeout_returns_uncertified_incumbent(self):
        inst = _seeded(8, 40, "ACGT", 3)
        res = branch_and_bound(inst, time_limit=0.0)
        assert not res.certified
        assert res.optimum == res.center.objective
        # incumbent is a real center: never better than the true optimum
        # (cannot verify optimality here, but feasibility holds)
        assert len(res.center.chars) == inst.n
