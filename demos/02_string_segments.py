"""Measuring string segments exactly with the constraint solver.

A candidate string segment of width w and length l is a strip of unknown
symplectic pairs; every cube generator overlapping the strip but not its
two anchor cross-sections imposes one linear constraint.  The solver
computes the solution space over F_p and flags a nontrivial segment when
solutions reach both ends of the strip.
"""

from qupitcube import CodeParams, d3_code, d5_code, scan_width
from qupitcube.codes import PauliConfig, generator_config
from qupitcube.oracle import SegmentGeometry, sections
from qupitcube.reference import (
    build_segment_constraints,
    canonical_reduction,
    config_mul,
    flatten_segment,
    kink_profile,
    width1_criterion,
)

# --- the constraint system at a glance -------------------------------------
# a strip is a cross-section of sites repeated along one axis; here two
# sites in a row along y, repeated at x = 0, 1, 2
d3 = d3_code("S")
strip = SegmentGeometry(0, ((0, 0, 0), (0, 1, 0)), 3)
system = build_segment_constraints(d3, strip)
print("w=2, l=3 strip:", system.shape[0], "constraints on",
      system.shape[1], "unknowns")
print("the named cross-sections at width 3:", len(sections(3, "flat")), "flat,",
      len(sections(3, "cornered")), "cornered; the first cornered one:",
      sections(3, "cornered")[0])

# --- p=2 cannot avoid strings ----------------------------------------------
p2 = CodeParams(2, (1, 0), (0, 1), (1, 1), (1, 0))
rpt = scan_width(p2, 1, l_max=8, kinds=("flat",))["flat"]
print("\np=2 tuple, width 1: nontrivial lengths", rpt.nontrivial_lengths)
print("a witness operator:", sorted(rpt.witness.support.items())[:4], "...")

# --- the p=3 code obeys the w+1 bound ---------------------------------------
print("\np=3 code, both strip kinds:")
for w in range(1, 5):
    for kind, out in scan_width(d3, w).items():
        print(f"  w={w:d} {kind:8s} max nontrivial length = "
              f"{out.max_nontrivial_length}  (bound w+1 = {w + 1})")

# --- the p=5 code obeys the 2w bound ----------------------------------------
d5 = d5_code("S")
print("\np=5 code (3,-3):")
for w in range(1, 4):
    out = scan_width(d5, w, kinds=("cornered",))["cornered"]
    print(f"  w={w:d} cornered max = {out.max_nontrivial_length}, "
          f"aspect ratio = {out.aspect_ratio}  (bound 2w = {2 * w})")

# --- width-1 determinant test against the solver ----------------------------
print("\nwidth-1 cross-check (p=3):", width1_criterion(d3))

# --- block reduction reproduces the direct solve -----------------------------
red = canonical_reduction(d5, SegmentGeometry(0, ((0, 0, 0), (0, 1, 0)), 5))
print("\nblock reduction w=2, l=5: rank", red.rank, "| direct rank",
      red.direct_rank, "| nullspace dim", red.nullspace_dim,
      "| Krylov bound holds:", red.krylov_bound_ok)
print("the transfer block every column shares:")
print(red.transfer_block)

# --- constructive flattening -------------------------------------------------
# a kinked-surface operator, hidden under a stabilizer product that fills
# the box; flattening strips the stabilizer part off again
box = (3, 3, 3)
surface = PauliConfig(5)
for q in sorted(kink_profile(box))[:6]:
    surface.add(q, (2, 1))
cloaked = config_mul(config_mul(surface, generator_config(d5, (0, 0, 0))),
                     generator_config(d5, (1, 1, 1)))
flat = flatten_segment(d5, cloaked, box)
print("\nflattening a 3x3x3 box configuration:")
print("  support before:", len(cloaked.support), "sites; after:",
      len(flat.support), "sites, all on the kinked profile:",
      all(q in kink_profile(box) for q in flat.support))
