"""Classifying parameter tuples up to equivalence.

Permutations of the four pairs, a global SL(2, p) rotation, and a global
scalar never change the code; negating every pair swaps the symmetric and
antisymmetric families in the bulk.  Orbits under that group organize the
whole deformable parameter space.
"""

from qupitcube import scan_theorem1
from qupitcube.classify import classify_orbits
from qupitcube.reference import enumerate_deformable, group_generators, orbit_canonical

# --- enumeration sizes -------------------------------------------------------
for p in (2, 3, 5):
    print(f"p={p}: {len(enumerate_deformable(p))} deformable ordered tuples")

# --- the group in action ------------------------------------------------------
t = ((1, 0), (0, 1), (1, 1), (1, 2))
print("\ntuple:", t)
for name, fn, bulk_only in group_generators(3):
    tag = " (bulk/even only)" if bulk_only else ""
    print(f"  {name:22s} -> {fn(t)}{tag}")
print("canonical form:", orbit_canonical(t, 3))

# --- p=3: two orbits per parity -----------------------------------------------
rep = classify_orbits(3, "S")
print(f"\np=3: {rep['orbit_count']} orbits")
for o in rep["orbits"]:
    t1 = o["theorem1"]
    print(f"  representative {o['representative']}  size {o['orbit_size']}  "
          f"width-1 ok {all(t1['minimal_string'])}  squares {t1['squares']}")

# --- p=5: the no-string candidates ---------------------------------------------
out = scan_theorem1(classify_orbits(5), oracle_wmax=1)
print(f"\np=5: {out['orbit_count']} orbits; literal three-condition passes:",
      len(out["literal_pass"]))
print("orbits passing conditions 1-2 with the solver confirming the 2w bound:")
for e in out["cond12_oracle_pass"]:
    print("  ", e["representative"])
ref = orbit_canonical(((1, 0), (0, 1), (1, 1), (3, 2)), 5)
print("the (3,-3) reference orbit", ref, "is among them:",
      ref in {tuple(tuple(x) for x in e["representative"])
              for e in out["cond12_oracle_pass"]})
