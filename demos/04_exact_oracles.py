"""
Exact oracles: enumeration and branch and bound
===============================================

Two independent exact solvers back every quality claim. Enumeration
walks all centers built from the characters appearing in each column
(provably enough), with a hard node budget. Branch and bound explores
positions depth first, cutting a subtree as soon as some string's
partial mismatch count reaches the incumbent, or, given the LP's dual
string weights, as soon as the weighted mismatches rule out beating it.
Each result says why the search stopped: it exhausted the tree, hit its
time limit, or reached the lower bound its string weights give.
"""

from closest_string import (
    Alphabet,
    CapacityError,
    GeneratorConfig,
    branch_and_bound,
    brute_force_center,
    build_csp_lp,
    dual_bound,
    generate_uniform,
    lp_lower_bound,
    solve_lp,
    validate_instance,
)

inst = generate_uniform(
    GeneratorConfig(m=4, n=12, alphabet=Alphabet.from_string("01"), seed=11)
)
print("instance:", *inst.strings, sep="\n  ")

bf = brute_force_center(inst)
print(
    f"\nenumeration: optimum={bf.optimum} center={bf.center.chars} "
    f"nodes={bf.nodes_explored}"
)

bb = branch_and_bound(inst)
print(
    f"branch&bound: optimum={bb.optimum} center={bb.center.chars} "
    f"nodes={bb.nodes_explored} stop={bb.stop_reason} certified={bb.certified}"
)
assert bf.optimum == bb.optimum

# Enumeration refuses instances beyond its budget instead of hanging.
wide = generate_uniform(
    GeneratorConfig(m=8, n=40, alphabet=Alphabet.from_string("ACGT"), seed=1)
)
try:
    brute_force_center(wide, node_limit=100_000)
except CapacityError as exc:
    print("\ncapacity guard:", exc)

# Branch and bound accepts a wall-clock budget and string weights. Given
# the LP's dual weights, it cuts every subtree whose weighted mismatches
# show it holds nothing better, and it stops once the incumbent meets the
# bound those weights give: dual_bound, the LP ceiling recomputed from the
# weights in integer arithmetic, with no LP solver. Any non-negative
# weights give a valid bound, so that stop is a proof of optimality.
root = solve_lp(build_csp_lp(wide))
ceiling = lp_lower_bound(root)
print(f"\nLP ceiling {ceiling}; dual bound from its weights {dual_bound(wide, root.weights)}")
fast = branch_and_bound(wide, time_limit=2.0, weights=root.weights)
print(
    f"bounded search on the wide instance: objective={fast.optimum} "
    f"stop={fast.stop_reason} certified={fast.certified} nodes={fast.nodes_explored}"
)

trivial = validate_instance(["GATTACA"] * 3)
print("identical strings:", branch_and_bound(trivial).optimum, "(no search needed)")
