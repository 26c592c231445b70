import itertools
import tracemalloc

import numpy as np
import pytest

from closest_string import (
    Alphabet,
    CapacityError,
    GeneratorConfig,
    branch_and_bound,
    brute_force_center,
    build_csp_lp,
    generate_uniform,
    lp_lower_bound,
    objective,
    solve_lp,
    validate_instance,
)


def _seeded(m, n, chars, seed):
    return generate_uniform(
        GeneratorConfig(m=m, n=n, alphabet=Alphabet.from_string(chars), seed=seed)
    )


class TestBruteForce:
    def test_single_string(self):
        res = brute_force_center(validate_instance(["ACGT"]))
        assert res.optimum == 0
        assert res.center.chars == "ACGT"
        assert res.certified and res.proof == "enumeration"

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


class TestBranchAndBound:
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

    def test_timeout_returns_uncertified_incumbent(self):
        inst = _seeded(8, 40, "ACGT", 3)
        res = branch_and_bound(inst, time_limit=0.0)
        assert not res.certified
        assert res.optimum == res.center.objective
        # incumbent is a real center: never better than the true optimum
        # (cannot verify optimality here, but feasibility holds)
        assert len(res.center.chars) == inst.n
