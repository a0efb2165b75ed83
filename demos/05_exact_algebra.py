"""Exact phase algebra: commutation phases, projectors, inversion.

Everything here runs in exact arithmetic: monomial phases live in Z_p, and
an operator sum maps phased monomials omega^c X^x Z^z to integer
numerators over one common denominator.  Sums are compared after applying
1 + omega + ... + omega^(p-1) = 0.  No floating point is involved anywhere,
and every identity printed is also asserted.
"""

from qupitcube import d3_code
from qupitcube.algebra import PhasedPauli, PowerTable, generator_pauli
from qupitcube.reference import (
    build_projector,
    commutator_exponent,
    inversion_conjugate,
    op_add,
    op_is_zero,
    op_mul,
    operator_identity,
    pauli_mul,
    pauli_power,
)

p = 3
site = ((0, 0, 0),)
X = PhasedPauli(p, site, (1,), (0,))
Z = PhasedPauli(p, site, (0,), (1,))

# --- the commutation phase law --------------------------------------------------
xz = pauli_mul(X, Z)
zx = pauli_mul(Z, X)
assert (xz.phase, zx.phase) == (0, p - 1) and commutator_exponent(X, Z) == 1
print(f"X Z -> exponents {xz.x + xz.z}, phase omega^{xz.phase}")
print(f"Z X -> exponents {zx.x + zx.z}, phase omega^{zx.phase}  "
      f"(X Z = Z X omega, so the reversed order costs omega^-1)")
print("commutator exponent <X, Z> =", commutator_exponent(X, Z))

xz_p = pauli_power(xz, p)
assert xz_p.is_identity()
print(f"(XZ)^{p} is the exact identity:", xz_p.is_identity())

# --- syndrome projectors ----------------------------------------------------------
# the origin cube generator on its eight sites; every operator below is the
# identity elsewhere, so the identities hold on any torus
code = d3_code("A")
s = generator_pauli(code)
projectors = [build_projector(s, r) for r in range(p)]

total = projectors[0]
for P in projectors[1:]:
    total = op_add(total, P)
complete = total == operator_identity(p, s.sites)
idempotent = op_mul(projectors[1], projectors[1]) == projectors[1]
orthogonal = op_is_zero(op_mul(projectors[1], projectors[2]))
assert complete and idempotent and orthogonal
print("\nsum of the three projectors is the identity:", complete)
print("P(s,1)^2 = P(s,1):", idempotent)
print("P(s,1) P(s,2) = 0:", orthogonal)
print("a projector keeps", len(projectors[1].terms), "phased monomial terms with "
      f"coefficients like {next(iter(projectors[1].terms.values()))}/{projectors[1].den}")
print("  the sum of all three has", len(total.terms), "terms but only",
      len(total.canonical()[1]), "monomial once 1 + omega + omega^2 = 0 is applied")

# --- inversion action on the syndrome label ----------------------------------------
conj = inversion_conjugate(projectors[1], (0.5, 0.5, 0.5))
assert conj == projectors[2]
print("\nantisymmetric code: inversion maps P(s,1) to P(s,2):",
      conj == projectors[2])
for parity in "SA":
    out = PowerTable(d3_code(parity)).inversion_action(r=1)
    assert out["matches"]
    print(f"parity {parity}: P(s,1) -> P(s,{out['expected_r']}), verified:",
          out["matches"])
