"""Measuring string segments exactly with the constraint solver.

A candidate string segment of width w and length l is a strip of unknown
symplectic pairs; every cube generator overlapping the strip but not its
two anchor cross-sections imposes one linear constraint.  The solver
computes the solution space over F_p and flags a nontrivial segment when
solutions reach both ends of the strip.
"""

from qupitcube import CodeParams, d3_code, d5_code, max_nontrivial_length
from qupitcube.codes import PauliConfig, generator_config
from qupitcube.oracle import SegmentGeometry
from qupitcube.reference import (
    build_segment_constraints,
    canonical_reduction,
    flatten_segment,
    kink_profile,
    width1_criterion,
)

# --- the constraint system at a glance -------------------------------------
d3 = d3_code("S")
system = build_segment_constraints(d3, SegmentGeometry("flat", 2, 3, (0, 1)))
print("w=2, l=3 strip:", system.shape[0], "constraints on",
      system.shape[1], "unknowns")

# --- p=2 cannot avoid strings ----------------------------------------------
p2 = CodeParams(2, (1, 0), (0, 1), (1, 1), (1, 0))
rpt = max_nontrivial_length(p2, width=1, l_max=8)
print("\np=2 tuple, width 1: nontrivial lengths", rpt.nontrivial_lengths)
print("a witness operator:", sorted(rpt.witness.support.items())[:4], "...")

# --- the p=3 code obeys the w+1 bound ---------------------------------------
print("\np=3 code, both strip kinds:")
for w in range(1, 5):
    for kind in ("flat", "cornered"):
        out = max_nontrivial_length(d3, w, kind=kind)
        print(f"  w={w:d} {kind:8s} max nontrivial length = "
              f"{out.max_nontrivial_length}  (bound w+1 = {w + 1})")

# --- the p=5 code obeys the 2w bound ----------------------------------------
d5 = d5_code("S")
print("\np=5 code (3,-3):")
for w in range(1, 4):
    out = max_nontrivial_length(d5, w, kind="cornered")
    print(f"  w={w:d} cornered max = {out.max_nontrivial_length}, "
          f"aspect ratio = {out.aspect_ratio}  (bound 2w = {2 * w})")

# --- width-1 determinant test against the solver ----------------------------
print("\nwidth-1 cross-check (p=3):", width1_criterion(d3))

# --- block reduction reproduces the direct solve -----------------------------
red = canonical_reduction(d5, width=2, length=5)
print("\nblock reduction w=2, l=5: rank", red.rank, "| direct rank",
      red.direct_rank, "| nullspace dim", red.nullspace_dim,
      "| Krylov bound holds:", red.krylov_bound_ok)

# --- constructive flattening -------------------------------------------------
# a kinked-surface operator, hidden under a stabilizer product that fills
# the box; flattening strips the stabilizer part off again
box = (3, 3, 3)
surface = PauliConfig(5)
for q in sorted(kink_profile(box))[:6]:
    surface.add(q, (2, 1))
cloaked = surface.mul(generator_config(d5, (0, 0, 0))).mul(
    generator_config(d5, (1, 1, 1)))
flat = flatten_segment(d5, cloaked, box)
print("\nflattening a 3x3x3 box configuration:")
print("  support before:", len(cloaked.support), "sites; after:",
      len(flat.support), "sites, all on the kinked profile:",
      all(q in kink_profile(box) for q in flat.support))
