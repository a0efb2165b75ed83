"""Defining a code and checking the three no-string conditions.

A code is fixed by a prime p, four symplectic pairs (alpha, beta, gamma,
delta) in F_p^2, and an inversion parity.  This script builds the two
workhorse examples, verifies that their generator families actually
commute, and walks through the algebraic conditions that rule out string
logical operators.
"""

from qupitcube import d3_code, d5_code, theorem1_report, verify_translation_commutation
from qupitcube.reference import minimal_string_determinants_by_matrices, rel_transition

# --- a valid code must have commuting generators -------------------------
d5 = d5_code("S")
print("p=5 code, pairs:", d5.pairs)
violations = verify_translation_commutation(d5)
print("translation commutation violations:", violations or "none")

# scaling the inversion images by anything with s^2 != 1 breaks it
bad = verify_translation_commutation(d5, scale_override=2)
print(f"with scale 2 instead of +-1: {len(bad)} overlaps fail, e.g.", bad[0])

# --- condition 1: deformability -------------------------------------------
# all six pairwise symplectic products nonzero, so string supports can be
# pressed flat by stabilizer multiplication
rpt = theorem1_report(d5)
print("\ndeformable(d5):", rpt.deformability)

# --- condition 2: no width-1 string ---------------------------------------
# det(T - T^-1) per direction, where T is the site-to-site transition matrix
# T(num | den) = T(den)^-1 T(num).  The report reads the determinants off the
# six symplectic products; the dense matrix route of the reference oracles
# builds the matrices and agrees
a, b, g, d = d5.pairs
print("T(delta alpha | gamma beta) =", rel_transition((d, a), (g, b), d5.p).tolist())
dets = rpt.details["width1_determinants"]
assert dets == minimal_string_determinants_by_matrices(d5)
print("width-1 determinants:", dets)
print("no minimal string:", rpt.minimal_string)

# --- condition 3: squared pairings ----------------------------------------
# the squared symplectic products of complementary pairings must differ.
# For this code the (alpha beta | gamma delta) pairing gives 1^2 vs 4^2,
# equal mod 5 though different over the integers; the report carries the
# ambiguity instead of hiding it, and the segment solver (demo 02) settles
# the no-string question regardless.
print("pairing squares:", rpt.squares)
print("\nfull report: overall =", rpt.overall)
for d in rpt.discrepancies:
    print("discrepancy:", d)

# --- the p=3 codes pass conditions 1-2 and fail condition 3 ---------------
for variant in (0, 1):
    rpt3 = theorem1_report(d3_code("S", variant=variant))
    print(f"\np=3 variant {variant}: deformable={rpt3.deformability}, "
          f"width-1={rpt3.minimal_string}, squares={rpt3.squares}")
