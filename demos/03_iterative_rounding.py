"""
Iterative rounding: three strategies
====================================

Instead of randomized rounding, the LP is re-solved after permanently
pinning the most confident positions:

* ``algorithm_a`` pins one position per solve (n solves total),
* ``algorithm_b`` pins every position at or above a threshold per solve,
  falling back to the single best pin when none qualifies,
* ``algorithm_c`` additionally records each fallback pin's runner-up
  symbol and retries from the least confident pins when the first answer
  is not provably optimal.

When a center's objective equals the LP ceiling, it is certified exact.
"""

from closest_string import (
    Alphabet,
    GeneratorConfig,
    algorithm_a,
    algorithm_b,
    algorithm_c,
    brute_force_center,
    generate_uniform,
)

inst = generate_uniform(
    GeneratorConfig(m=5, n=8, alphabet=Alphabet.from_string("ACGT"), seed=7)
)
print("instance:", *inst.strings, sep="\n  ")

oracle = brute_force_center(inst)
print("\nexhaustive optimum:", oracle.optimum, f"({oracle.center.chars})")

for name, run in (("a", algorithm_a), ("b", algorithm_b), ("c", algorithm_c)):
    res = run(inst)
    print(
        f"algorithm_{name}: center={res.center.chars} "
        f"objective={res.center.objective} lp_bound={res.lp_bound} "
        f"certified={res.exact_certified} lp_solves={res.trace.lp_solves}"
    )

# The trace shows each LP solve, the simplex pivots it took (each
# re-solve warm-starts from the previous solve's rounding) and what it pinned.
res = algorithm_b(inst)
print("\nthreshold-run trace:")
for step, it in enumerate(res.trace.iterations, start=1):
    pins = ", ".join(
        f"{f.position}->{f.symbol}[{f.branch}@{f.value:.2f}]" for f in it.fixes
    )
    print(f"  solve {step}: d={it.dvalue:.3f} pivots={it.lp_pivots}  pinned {pins}")
