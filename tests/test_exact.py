import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closest_string import (
    Alphabet,
    CapacityError,
    ExactResult,
    GeneratorConfig,
    algorithm_c,
    branch_and_bound,
    brute_force_center,
    build_csp_lp,
    dual_bound,
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


def test_result_rejects_inconsistent_fields():
    center = objective("01", validate_instance(["00", "11"]))
    with pytest.raises(ValueError, match="unknown stop reason"):
        ExactResult(center, 0, "done")


def test_exact_cli_node_counts():
    # The exact counts of the benchmark's exact-cli workload, recomputed as
    # its ``solve --alg brute`` and ``--alg bnb`` calls make them: 10x9 ACGT
    # seeds 0-59, bnb given the root LP's weights. A change in either
    # search's order, pruning or stop bound shows here.
    brute = bnb = 0
    for seed in range(60):
        inst = _seeded(10, 9, "ACGT", seed)
        root = solve_lp(build_csp_lp(inst))
        brute += brute_force_center(inst).nodes_explored
        bnb += branch_and_bound(inst, weights=root.weights).nodes_explored
    assert (brute, bnb) == (8_558_848, 23_820)


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
        # Any non-negative weights give a valid bound, which the search
        # stops at exactly when it equals the optimum.
        _, optimum, _ = _reference_center(inst)
        weights = _weights_for(inst, data)
        incumbent = data.draw(st.one_of(
            st.none(),
            st.text(alphabet="".join(inst.alphabet.symbols), min_size=inst.n, max_size=inst.n)
            .map(lambda chars: objective(chars, inst)),
        ))
        res = branch_and_bound(inst, incumbent=incumbent, weights=weights)
        assert res.certified
        assert res.optimum == optimum
        bound = dual_bound(inst, weights)
        assert res.stop_reason == ("lower-bound" if bound == optimum else "exhausted")

    @settings(max_examples=150, deadline=None)
    @given(small_instances(), st.data())
    def test_first_incumbent_matches_broadcast_reference(self, inst, data):
        # The first incumbent is the search's first leaf, each column's most
        # frequent symbol with ties in alphabet order. The search stops
        # before its first node exactly when that leaf meets the weights'
        # bound, and then returns it.
        codes = inst.codes
        counts = (codes[:, :, None] == np.arange(len(inst.alphabet))).sum(axis=0)
        reference = counts.argmax(axis=1)
        consensus = (codes != reference).sum(axis=1).max()
        weights = _weights_for(inst, data)
        res = branch_and_bound(inst, weights=weights)
        assert (res.nodes_explored == 0) == (consensus <= dual_bound(inst, weights))
        if res.nodes_explored == 0:
            assert res.center.chars == inst.alphabet.decode(reference[None])[0]
            assert res.optimum == consensus

    def test_returns_first_optimum_in_child_order(self):
        # Children run from a column's most frequent symbol to its least
        # (ties in alphabet order), the first incumbent is the first leaf,
        # and only a strictly better center replaces it; weights cut only
        # subtrees with nothing better. So the answer is the first optimum
        # of that order.
        rng = np.random.default_rng(1600)
        for chars in ("01", "ACGT"):
            for _ in range(200):
                inst = _seeded(
                    int(rng.integers(1, 6)), int(rng.integers(1, 7)), chars,
                    int(rng.integers(0, 2**32)),
                )
                codes = inst.codes
                ranked = [
                    sorted(set(col), key=lambda a: (-col.count(a), inst.alphabet.index(a)))
                    for col in zip(*inst.strings)
                ]
                grid = inst.alphabet.encode(["".join(t) for t in itertools.product(*ranked)])
                grid_objs = (grid[:, None, :] != codes[None]).sum(axis=2).max(axis=1)
                expected = inst.alphabet.decode(grid[int(np.argmin(grid_objs))])[0]
                for weights in (None, solve_lp(build_csp_lp(inst)).weights):
                    res = branch_and_bound(inst, time_limit=math.inf, weights=weights)
                    assert res.center.chars == expected

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
        # Equal weights bound the optimum below by n / 2 = 1.
        inst = validate_instance(["00", "11"])
        res = branch_and_bound(inst, weights=[1, 1])
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
            weights = solve_lp(build_csp_lp(inst)).weights
            bounded = branch_and_bound(inst, weights=weights)
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
            bb = branch_and_bound(inst, incumbent=res.center, weights=res.root_lp.weights)
            assert bb.certified
            assert bb.optimum == brute_force_center(inst).optimum
            assert bb.optimum <= res.center.objective

    def test_certified_incumbent_ends_search_at_once(self):
        inst = _seeded(5, 30, "ACGT", 2)
        res = algorithm_c(inst)
        assert res.exact_certified
        bb = branch_and_bound(inst, incumbent=res.center, weights=res.root_lp.weights)
        assert bb.certified
        assert bb.nodes_explored == 0
        assert bb.center == res.center

    def test_worse_incumbent_is_ignored(self):
        inst = _seeded(4, 10, "01", 99)
        plain = branch_and_bound(inst)
        # The complement of string 0 is at distance n from it, the most any
        # center can be, so it never beats the first leaf.
        worst = objective(inst.strings[0].translate(str.maketrans("01", "10")), inst)
        assert worst.objective == inst.n
        assert min(objective(s, inst).objective for s in inst.strings) < inst.n
        seeded = branch_and_bound(inst, incumbent=worst)
        assert seeded == plain

    @pytest.mark.parametrize("limit", [float("nan"), -1.0, -math.inf])
    def test_nan_or_negative_time_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="time limit"):
            branch_and_bound(validate_instance(["00", "11"]), time_limit=limit)

    def test_infinite_time_limit_means_no_limit(self):
        res = branch_and_bound(_seeded(5, 8, "ACGT", 7), time_limit=math.inf)
        assert res.certified

    def test_timeout_returns_uncertified_incumbent(self):
        inst = _seeded(8, 40, "ACGT", 3)
        res = branch_and_bound(inst, time_limit=0.0)
        assert not res.certified
        assert res.optimum == res.center.objective
        # incumbent is a real center: never better than the true optimum
        # (cannot verify optimality here, but feasibility holds)
        assert len(res.center.chars) == inst.n


def _weights_for(inst, data):
    """Root LP duals, or non-negative integers or floats with zeros among
    them, or all zeros."""
    kind = data.draw(st.sampled_from(["lp", "int", "float", "zero"]))
    if kind == "lp":
        return solve_lp(build_csp_lp(inst)).weights
    if kind == "zero":
        return np.zeros(inst.m)
    values = st.integers(0, 5) if kind == "int" else st.floats(0.0, 1.0)
    return np.array(data.draw(st.lists(values, min_size=inst.m, max_size=inst.m)))


class TestDualBound:
    @settings(max_examples=150, deadline=None)
    @given(small_instances(), st.data())
    def test_valid_and_equal_to_the_lp_ceiling(self, inst, data):
        _, optimum, _ = _reference_center(inst)
        root = solve_lp(build_csp_lp(inst))
        assert dual_bound(inst, root.weights) == lp_lower_bound(root)
        weights = _weights_for(inst, data)
        assert 0 <= dual_bound(inst, weights) <= optimum

    def test_all_zero_weights_give_zero(self):
        assert dual_bound(_seeded(6, 12, "ACGT", 1), np.zeros(6)) == 0

    def test_two_opposed_strings(self):
        # Each column costs weight 1 of 2 whatever the center: L = n / 2.
        inst = validate_instance(["000", "111"])
        assert dual_bound(inst, [3, 3]) == 2
        # Lopsided weights give a weaker but still valid bound.
        assert dual_bound(inst, [1, 0]) == 0

    @pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, -1.0, 1.0], [np.nan, 1.0, 1.0]])
    def test_rejects_bad_weights(self, weights):
        inst = validate_instance(["00", "11", "01"])
        with pytest.raises(ValueError, match="weights"):
            dual_bound(inst, weights)
        with pytest.raises(ValueError, match="weights"):
            branch_and_bound(inst, weights=weights)


class TestWeightedBranchAndBound:
    @settings(max_examples=150, deadline=None)
    @given(small_instances(), st.data())
    def test_same_result_in_no_more_nodes(self, inst, data):
        # The weighted search may stop at its bound where the plain one
        # exhausts the tree, with the same center.
        _, optimum, _ = _reference_center(inst)
        incumbent = data.draw(st.one_of(
            st.none(),
            st.text(alphabet="".join(inst.alphabet.symbols), min_size=inst.n, max_size=inst.n)
            .map(lambda chars: objective(chars, inst)),
        ))
        weights = _weights_for(inst, data)
        plain = branch_and_bound(inst, incumbent=incumbent)
        weighted = branch_and_bound(inst, incumbent=incumbent, weights=weights)
        assert weighted.center == plain.center
        assert weighted.optimum == plain.optimum == optimum
        assert weighted.nodes_explored <= plain.nodes_explored

    def test_lp_weights_certify_10x20_in_few_nodes(self):
        # Without weights each of these runs past 30 s; the root LP's duals
        # certify all five at their LP ceiling in about 16,100 nodes.
        nodes = 0
        for seed in range(5):
            inst = _seeded(10, 20, "ACGT", seed)
            res = branch_and_bound(
                inst, time_limit=60, weights=solve_lp(build_csp_lp(inst)).weights
            )
            assert res.stop_reason == "lower-bound"
            nodes += res.nodes_explored
        assert nodes < 50_000

    def test_bench_instance_certified_from_heuristic_center(self):
        # The one 10x80 bench instance algorithm c leaves uncertified (LP
        # ceiling 46, center 47): the weighted search proves 47 optimal.
        inst = _seeded(10, 80, "ACGT", 1)
        res = algorithm_c(inst)
        assert (res.lp_bound, res.center.objective) == (46, 47)
        bb = branch_and_bound(
            inst, time_limit=60, incumbent=res.center, weights=res.root_lp.weights
        )
        assert bb.stop_reason == "exhausted"
        assert bb.optimum == 47
        assert bb.nodes_explored < 500_000

    def test_identical_strings_zero_total_weight(self):
        # d* = 0, so L(w) = 0 whatever the weights: the root LP's duals here
        # are e_0, and all-zero weights (W = 0) skip the weighted cut.
        inst = validate_instance(["GATA"] * 5)
        root = solve_lp(build_csp_lp(inst))
        assert dual_bound(inst, root.weights) == 0
        plain = branch_and_bound(inst)
        for weights in (root.weights, np.zeros(5)):
            assert branch_and_bound(inst, weights=weights) == plain

    def test_zero_weights_search_as_without(self):
        inst = _seeded(6, 9, "ACGT", 4)
        assert branch_and_bound(inst, weights=np.zeros(6)) == branch_and_bound(inst)
