"""
The LP relaxation and its lower bound
=====================================

The integer program behind the closest string problem assigns one 0-1
variable x(a, j) per symbol and position, with each position summing to
one and every string's mismatch count held at or below the distance
variable d. Relaxing x to [0, 1] gives an LP whose optimum, rounded up,
is a certified lower bound on the true optimum.
"""

import numpy as np

from closest_string import build_csp_lp, lp_lower_bound, solve_lp, validate_instance

# Two maximally opposed singleton strings: the relaxation splits each
# position half and half, so the fractional optimum is 0.5.
inst = validate_instance(["0", "1"])
sol = solve_lp(build_csp_lp(inst))
print("S = {0, 1}")
print("  fractional optimum d =", sol.dvalue)
print("  x('0', 0) =", sol.value("0", 0), " x('1', 0) =", sol.value("1", 0))
print("  integer lower bound  =", lp_lower_bound(sol))

# Pinning a position shrinks the feasible region; the optimum can only
# grow. Pins are one vector of alphabet indices, -1 at a free position. A
# pinned position's x values are known, so it leaves the LP: each string
# row counts it as a match or a mismatch. Each pin of iterative rounding
# thus makes its next solve smaller.
inst = validate_instance(["00", "11"])
free = solve_lp(build_csp_lp(inst))
pinned = solve_lp(build_csp_lp(inst, np.array([inst.alphabet.index("0"), -1])))
print("\nS = {00, 11}")
print("  free optimum   =", free.dvalue)
print("  pins [0, -1]   =", pinned.dvalue)

# A larger random-looking instance: the vertex solution is mostly
# integral, which is what iterative rounding exploits.
inst = validate_instance(["ACGTAC", "ATGTAC", "ACGTTT", "GCGTAA"])
sol = solve_lp(build_csp_lp(inst))
fractional = sum(
    1 for j in range(inst.n) for a in inst.alphabet
    if 1e-6 < sol.value(a, j) < 1 - 1e-6
)
print("\n4 strings of length 6:")
print("  d =", round(sol.dvalue, 6), " ceil =", lp_lower_bound(sol))
print("  fractional entries in the vertex:", fractional)
print("  simplex iterations:", sol.iterations)
