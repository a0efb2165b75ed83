"""Planar logical operators and encoded qudits on tori.

Noncontractible planes tiled with the generator's face labels commute
with every stabilizer when the tiling wraps consistently.  How many of
the four translated tilings survive depends only on the parities of the
two in-plane dimensions: 4 when both are even, 2 when one is, 1 when
none are (via products of tilings).
"""

import numpy as np

from qupitcube import TorusCode, d3_code, d5_code, encoded_qudit_count
from qupitcube.logical import encoded_qudit_table
from qupitcube.reference import (
    census_operators,
    commutation_exponent,
    planar_census,
    product_of_all_generators,
)

code = d3_code("A")

# --- the 4 / 2 / 1 pattern ----------------------------------------------------
print("census for the antisymmetric p=3 code:")
for dims in ((4, 4, 4), (4, 4, 3), (4, 3, 3), (3, 3, 3)):
    census = planar_census(TorusCode(code, dims))
    counts = {k: v["count"] for k, v in census.items()}
    print(f"  torus {dims}: {counts}")

# --- the global relation of antisymmetric codes --------------------------------
prod = product_of_all_generators(TorusCode(code, (3, 4, 5)))
print("\nantisymmetric: product of all generators is the identity:",
      prod.is_identity())
print("symmetric p=5: product is uniform, pair",
      set(product_of_all_generators(TorusCode(d5_code('S'), (2, 2, 2))).support.values()))

# --- encoded qudits change with the system size ---------------------------------
table = encoded_qudit_table(code, sizes=range(2, 5))
print("\nencoded qudits k by torus size (antisymmetric p=3):")
for dims in sorted(table)[:9]:
    print(f"  {dims}: k = {table[dims]}")
print("k is never 0 for the antisymmetric family:",
      all(k >= 1 for k in table.values()))

# --- commutation between transverse planes certify logical content --------------
dims = (4, 4, 4)
torus = TorusCode(code, dims)
ops = []
for normal in range(3):
    ops.extend(census_operators(torus, normal))
table = np.array([[commutation_exponent(a, b) for b in ops] for a in ops])
print(f"\n{len(ops)} plane operators on {dims}; pairwise commutation exponents:")
print(table)
print("some exponent is nonzero, so a logical qudit is certified:", bool(table.any()))
print("k on this torus:", encoded_qudit_count(torus))
