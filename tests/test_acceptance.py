"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest -s tests/test_acceptance.py`` to watch the lines appear; a
plain ``pytest`` run shows them for failing criteria only. Criteria 1-4
and 6 share three seeded instance suites, computed once per session.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from closest_string import (
    Alphabet,
    GeneratorConfig,
    algorithm_a,
    algorithm_c,
    brute_force_center,
    build_csp_lp,
    generate_uniform,
    lp_lower_bound,
    solve_lp,
)
from closest_string.bench import measure_batch, make_row
from closest_string.cli import main

DNA = Alphabet.from_string("ACGT")
BINARY = Alphabet.from_string("01")


def _report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@dataclass(frozen=True)
class SuiteRecord:
    m: int
    n: int
    k: int
    seed: int
    lp_bound: int
    optimum: int
    heuristic_objective: int
    certified: bool


def _measure(inst, seed, heuristic):
    sol = solve_lp(build_csp_lp(inst))
    res = heuristic(inst)
    oracle = brute_force_center(inst)
    return SuiteRecord(
        m=inst.m,
        n=inst.n,
        k=len(inst.alphabet),
        seed=seed,
        lp_bound=lp_lower_bound(sol),
        optimum=oracle.optimum,
        heuristic_objective=res.center.objective,
        certified=res.exact_certified,
    )


@pytest.fixture(scope="module")
def suite_two_strings():
    """200 seeded m=2 instances per alphabet size in {2, 4}, n in 2..12."""
    t0 = time.perf_counter()
    records = []
    for alphabet in (BINARY, DNA):
        rng = np.random.default_rng(1000 + len(alphabet))
        for i in range(200):
            n = 2 + (i % 11)
            seed = int(rng.integers(0, 2**63))
            inst = generate_uniform(
                GeneratorConfig(m=2, n=n, alphabet=alphabet, seed=seed)
            )
            records.append(_measure(inst, seed, algorithm_a))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def suite_three_binary():
    """500 seeded m=3 binary instances, n in 2..12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2000)
    records = []
    for i in range(500):
        n = 2 + (i % 11)
        seed = int(rng.integers(0, 2**63))
        inst = generate_uniform(GeneratorConfig(m=3, n=n, alphabet=BINARY, seed=seed))
        records.append(_measure(inst, seed, algorithm_a))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def suite_mixed_small():
    """1000 seeded instances, m in 2..5, n in 2..10, alphabet size 2 or 4."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3000)
    records = []
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 11))
        alphabet = BINARY if rng.integers(0, 2) == 0 else DNA
        seed = int(rng.integers(0, 2**63))
        inst = generate_uniform(GeneratorConfig(m=m, n=n, alphabet=alphabet, seed=seed))
        records.append(_measure(inst, seed, algorithm_c))
    return records, time.perf_counter() - t0


def test_criterion_1_two_string_exactness(suite_two_strings):
    records, elapsed = suite_two_strings
    misses = [r for r in records if r.heuristic_objective != r.optimum]
    _report(
        1,
        "m=2 single-pin rounding always exact",
        not misses,
        f"{len(records) - len(misses)}/{len(records)} exact, {elapsed:.1f}s",
    )


def test_criterion_2_three_binary_error_bound(suite_three_binary):
    records, elapsed = suite_three_binary
    misses = [r for r in records if r.heuristic_objective - r.optimum > 1]
    _report(
        2,
        "m=3 binary error at most one",
        not misses,
        f"{len(records) - len(misses)}/{len(records)} within one, {elapsed:.1f}s",
    )


def test_criterion_3_within_one_rate(suite_mixed_small):
    records, elapsed = suite_mixed_small
    violations = [r for r in records if r.heuristic_objective - r.optimum > 1]
    for r in violations:
        print(
            "counterexample: "
            f"m={r.m} n={r.n} k={r.k} seed={r.seed} "
            f"objective={r.heuristic_objective} optimum={r.optimum}"
        )
    rate = 1.0 - len(violations) / len(records)
    _report(
        3,
        "threshold+retry rounding within one in >= 99%",
        rate >= 0.99,
        f"rate {rate:.1%}, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_4_lp_bound_sandwich(
    suite_two_strings, suite_three_binary, suite_mixed_small
):
    records = suite_two_strings[0] + suite_three_binary[0] + suite_mixed_small[0]
    bad = [
        r
        for r in records
        if not (r.lp_bound <= r.optimum <= r.heuristic_objective)
    ]
    _report(
        4,
        "ceil(LP) <= optimum <= heuristic on every oracle-solved instance",
        not bad,
        f"{len(records)} instances checked",
    )


def test_criterion_5_table_scale_batch():
    t0 = time.perf_counter()
    records = measure_batch(
        m=10, n=300, alphabet=DNA, batch=3, seed=0, alg="c",
        theta=0.9, retries=8,
    )
    row = make_row(10, 300, records)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(row.lp_avg - 175.0) <= 3.0
        and row.alg_avg - row.lp_avg <= 1.0
        and all(r.dist_error <= 1.5 for r in records)
        and elapsed < 300.0
    )
    _report(
        5,
        "desk-scale batch at m=10, n=300, 4 symbols",
        ok,
        f"lp_avg={row.lp_avg:.2f} alg_avg={row.alg_avg:.2f} "
        f"max_err={row.max_dist_error:.2f} elapsed={elapsed:.1f}s",
    )


def test_criterion_6_certification(suite_mixed_small):
    records, _ = suite_mixed_small
    unsound = [
        r for r in records if r.certified and r.heuristic_objective != r.optimum
    ]
    rng = np.random.default_rng(6000)
    certified = 0
    trials = 20
    for _ in range(trials):
        seed = int(rng.integers(0, 2**63))
        inst = generate_uniform(GeneratorConfig(m=10, n=50, alphabet=DNA, seed=seed))
        if algorithm_c(inst).exact_certified:
            certified += 1
    rate = certified / trials
    detail = (
        f"soundness {len(records) - len(unsound)}/{len(records)}, "
        f"certification rate at m=10,n=50: {rate:.0%} (target >= 50%, reported)"
    )
    _report(6, "certificates are sound", not unsound, detail)


def test_criterion_7_simplex_unit_suite():
    eps = 1e-6
    from closest_string import validate_instance

    sol = solve_lp(build_csp_lp(validate_instance(["0", "1"])))
    midpoint_ok = (
        abs(sol.dvalue - 0.5) <= eps
        and abs(sol.value("0", 0) - 0.5) <= eps
        and abs(sol.value("1", 0) - 0.5) <= eps
    )

    pinned = solve_lp(build_csp_lp(validate_instance(["00", "11"]), np.array([0, -1])))
    pinned_ok = abs(pinned.dvalue - 1.0) <= eps

    single = solve_lp(build_csp_lp(validate_instance(["GATTACA"])))
    single_ok = abs(single.dvalue - 0.0) <= eps

    rng = np.random.default_rng(7000)
    monotone_ok = True
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 8))
        alphabet = BINARY if rng.integers(0, 2) == 0 else DNA
        inst = generate_uniform(
            GeneratorConfig(m=m, n=n, alphabet=alphabet, seed=int(rng.integers(0, 2**63)))
        )
        base = solve_lp(build_csp_lp(inst))
        pins = np.full(n, -1)
        j = int(rng.integers(0, n))
        pins[j] = int(rng.integers(0, len(inst.alphabet)))
        pinned_sol = solve_lp(build_csp_lp(inst, pins))
        if pinned_sol.dvalue < base.dvalue - eps:
            monotone_ok = False
            break

    ok = midpoint_ok and pinned_ok and single_ok and monotone_ok
    _report(
        7,
        "simplex unit suite and monotonicity under pinning",
        ok,
        f"midpoint={midpoint_ok} pinned={pinned_ok} integral={single_ok} "
        f"monotone(100)={monotone_ok}",
    )


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    inst_file = tmp_path / "det.csp"
    assert main([
        "gen", "--m", "5", "--n", "12", "--alphabet", "ACGT",
        "--seed", "77", "--out", str(inst_file),
    ]) == 0
    twin = tmp_path / "det2.csp"
    assert main([
        "gen", "--m", "5", "--n", "12", "--alphabet", "ACGT",
        "--seed", "77", "--out", str(twin),
    ]) == 0
    gen_ok = inst_file.read_bytes() == twin.read_bytes()

    solver_ok = True
    for alg in ("a", "b", "c", "brute", "bnb"):
        reports = []
        for _ in range(2):
            assert main([
                "solve", "--alg", alg, "--in", str(inst_file), "--format", "json",
            ]) == 0
            report = json.loads(capsys.readouterr().out)
            report.pop("millis")  # wall time is the one non-deterministic field
            reports.append(report)
        if reports[0] != reports[1]:
            solver_ok = False
            break

    bench_args = [
        "bench", "--m-list", "3", "--n-list", "8", "--alphabet", "01",
        "--batch", "2", "--seed", "5", "--algs", "c,brute",
    ]
    bench_rows = []
    for _ in range(2):
        assert main(bench_args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        bench_rows.append([",".join(l.split(",")[:7]) for l in lines])
    bench_ok = bench_rows[0] == bench_rows[1]

    _report(
        8,
        "identical inputs give identical reports (wall time aside)",
        gen_ok and solver_ok and bench_ok,
        f"gen={gen_ok} solve={solver_ok} bench={bench_ok}",
    )
