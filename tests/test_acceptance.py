"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to stream the
ACCEPTANCE lines).  Everything here is exact arithmetic; the stated time
limits are asserted with wall clocks.
"""

import json
import random
import subprocess
import sys
import time

import numpy as np

from qupitcube import reference
from qupitcube.classify import classify_orbits
from qupitcube.codes import (
    CodeParams,
    d3_code,
    d5_code,
    verify_translation_commutation,
)
from qupitcube.conditions import theorem1_report
from qupitcube.logical import TorusCode, encoded_qudit_count
from qupitcube.reference import planar_census, product_of_all_generators, rel_transition
from qupitcube.algebra import PowerTable, verify_commutation_law
from qupitcube.oracle import ORIENTATIONS, SegmentGeometry, scan_width, sections
from qupitcube.reference import (
    build_segment_constraints,
    canonical_reduction,
    enumerate_deformable,
    group_generators,
    orbit_canonical,
    solve_segment,
    verify_witness,
    width1_criterion,
)
from conftest import random_code, random_deformable_tuple

D3_TUPLE = ((1, 0), (0, 1), (1, 1), (1, 2))
D3_TUPLE_B = ((1, 0), (0, 1), (1, 1), (2, 1))
D5_TUPLE = ((1, 0), (0, 1), (1, 1), (3, 2))   # (3, -3) mod 5


def _verdict(n: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {n} failed: {description}"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qupitcube", *args],
                          capture_output=True, text=True)


def test_criterion_01_p2_impossibility():
    t0 = time.monotonic()
    count = len(enumerate_deformable(2))
    elapsed = time.monotonic() - t0
    out = run_cli("scan", "--p", "2")
    report = json.loads(out.stdout)
    ok = (count == 0 and elapsed < 1.0 and out.returncode == 0
          and report["results"]["deformable_count"] == 0)
    _verdict(1, "p=2 scan finds 0 deformable tuples in < 1 s", ok)


def test_criterion_02_d3_classification():
    t0 = time.monotonic()
    expected = {orbit_canonical(D3_TUPLE, 3), orbit_canonical(D3_TUPLE_B, 3)}
    ok = True
    for parity in "SA":
        rep = classify_orbits(3, parity)
        reps = {tuple(tuple(x) for x in o["representative"]) for o in rep["orbits"]}
        ok = ok and rep["orbit_count"] == 2 and reps == expected
    out = run_cli("classify", "--p", "3")
    elapsed = time.monotonic() - t0
    cli_ok = out.returncode == 0 and \
        json.loads(out.stdout)["results"]["orbit_count"] == 2
    _verdict(2, "p=3 classification: exactly 2 orbits per parity with the "
                "expected representatives, < 10 s",
             ok and cli_ok and elapsed < 10.0)


def test_criterion_03_d3_conditions():
    ok = True
    for t in (D3_TUPLE, D3_TUPLE_B):
        rpt = theorem1_report(CodeParams(3, *t))
        ok = ok and rpt.deformability and all(rpt.minimal_string) \
            and not any(rpt.squares)
    _verdict(3, "both p=3 representatives pass deformability and the width-1 "
                "determinant test but fail the squared-pairing condition", ok)


def test_criterion_04_d3_string_bound():
    t0 = time.monotonic()
    code = d3_code("S")
    ok = True
    for w in range(1, 7):
        for kind in ("flat", "cornered"):
            m = scan_width(code, w, kinds=(kind,))[kind].max_nontrivial_length
            if m is not None and m > w + 1:
                ok = False
    elapsed = time.monotonic() - t0
    _verdict(4, "p=3 code: nontrivial segment length <= w+1 for w=1..6, all "
                "orientations, flat and cornered, < 5 min",
             ok and elapsed < 300.0)


def test_criterion_05_d5_no_string():
    t0 = time.monotonic()
    code = CodeParams(5, *D5_TUPLE, parity="S")
    ok = True
    for w in range(1, 5):
        for kind in ("flat", "cornered"):
            m = scan_width(code, w, kinds=(kind,))[kind].max_nontrivial_length
            if m is not None and m > 2 * w:
                ok = False
    elapsed = time.monotonic() - t0
    # the literal squared-pairing evaluation carries its discrepancy entry;
    # the segment solver above is the acceptance gate
    rpt5 = theorem1_report(code)
    has_note = any(d["kind"] == "condition3-reading-mismatch"
                   for d in rpt5.discrepancies)
    _verdict(5, "p=5 code (3,-3): nontrivial segment length <= 2w for w=1..4 "
                "with the squared-pairing discrepancy reported, < 10 min",
             ok and has_note and elapsed < 600.0)


def test_criterion_06_generator_consistency():
    ok = True
    for code in (d3_code, lambda par: d3_code(par, variant=1), d5_code):
        for parity in "SA":
            ok = ok and verify_translation_commutation(code(parity)) == []
    _verdict(6, "generator commutes with all 26 overlapping translates for "
                "both parities of the reference codes", ok)


def test_criterion_07_width1_crosscheck():
    ok = True
    for t in enumerate_deformable(3):
        out = width1_criterion(CodeParams(3, *t))
        ok = ok and out["aggregate_agreement"]
    rng = random.Random(2024)
    sample = rng.sample(enumerate_deformable(5), 500)
    det_zero = 0
    for t in sample:
        out = width1_criterion(CodeParams(5, *t))
        ok = ok and out["aggregate_agreement"]
        if not all(out["det_nonzero"]):
            det_zero += 1
    # both sides of the equivalence must actually occur in the sample
    _verdict(7, "width-1 determinant test and segment solver agree on every "
                "deformable tuple at p=3 and on 500 sampled tuples at p=5, "
                "fixing the polarity det != 0 => no string",
             ok and det_zero > 0)


def test_criterion_08_reduction_pipeline_equality():
    ok = True
    for code in (d3_code("S"), d5_code("S")):
        for w in range(1, 5):
            for l in range(2, 9):
                geom = SegmentGeometry(*sections(w, "flat")[0], l)  # along x, width along y
                red = canonical_reduction(code, geom)
                sol = solve_segment(code, geom)
                ok = ok and red.nullspace_dim == sol.nullspace_dim \
                    and red.agrees_with_direct
    # one constraint row per anchor-avoiding generator: 2(w+1)(l-1) rows on
    # 2wl unknowns, hence 12 x 12 at w=2, l=3
    system = build_segment_constraints(d3_code("S"), SegmentGeometry(*sections(2, "flat")[0], 3))
    w, l = 2, 3
    shape_ok = system.shape == (2 * (w + 1) * (l - 1), 2 * w * l)
    _verdict(8, "block reduction and direct solver agree on nullspace "
                "dimension for w<=4, l<=8 on both reference codes; the "
                "w=2, l=3 system has shape 2(w+1)(l-1) x 2wl",
             ok and shape_ok)


def test_criterion_09_planar_census_parity_table():
    expected = {(0, 0): 4, (0, 1): 2, (1, 0): 2, (1, 1): 1}
    ok = True
    tori = ((2, 2, 2), (3, 3, 3), (4, 4, 3), (4, 3, 3), (5, 4, 2), (5, 5, 4),
            (4, 4, 4), (2, 3, 4))
    for code in (d3_code("S"), d3_code("A"), d5_code("S"), d5_code("A")):
        for dims in tori:
            census = planar_census(TorusCode(code, dims))
            for normal in range(3):
                u, v = [a for a in range(3) if a != normal]
                got = census[f"normal_{'xyz'[normal]}"]["count"]
                if got != expected[(dims[u] % 2, dims[v] % 2)]:
                    ok = False
    _verdict(9, "planar census counts 4 / 2 / 1 by in-plane parity on tori "
                "with sides 2..5", ok)


def test_criterion_10_antisymmetric_global_relation():
    ok = True
    sizes = range(2, 6)
    for code in (d3_code("A"), d5_code("A")):
        for lx in sizes:
            for ly in sizes:
                for lz in sizes:
                    torus = TorusCode(code, (lx, ly, lz))
                    if not product_of_all_generators(torus).is_identity():
                        ok = False
                    if encoded_qudit_count(torus) < 1:
                        ok = False
    _verdict(10, "antisymmetric codes: product of all generators is the "
                 "identity and k >= 1 on every torus with sides 2..5", ok)


def test_criterion_11_exact_algebra_identities():
    t0 = time.monotonic()
    ok = all(verify_commutation_law(p) for p in (3, 5, 7))
    # the p = 7 tuple has sum(a * b) = 2 mod 7, so its A code would expose
    # any phase convention in which negating the labels is not inversion
    p7 = CodeParams(7, (1, 0), (0, 1), (1, 1), (3, 5), "A")
    codes = [d3_code("S"), d3_code("A"), d5_code("S"), d5_code("A"), p7]
    for code in codes:
        table = PowerTable(code)
        proj = table.projector_identities()
        ok = ok and all(proj.values())
        for r in range(code.p):
            out = table.inversion_action(r=r)
            expected_r = r if code.parity == "S" else (-r) % code.p
            ok = ok and out["matches"] and out["expected_r"] == expected_r
    elapsed = time.monotonic() - t0
    _verdict(11, "p=3, 5 and 7 on the cube generator's eight sites (d3 and "
                 "d5 S/A, one p=7 A code): commutation phase law, projector "
                 "idempotence/orthogonality/completeness, and the inversion "
                 "action P(s,r) -> P(s,-+r) per parity, < 1 min",
             ok and elapsed < 60.0)


def test_criterion_12a_divisibility_chain_1000():
    rng = random.Random(12001)
    ok = True
    for _ in range(1000):
        p = rng.choice((3, 5, 7))
        T = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(2)],
                     dtype=np.int64)
        v = np.array([rng.randrange(p), rng.randrange(p)], dtype=np.int64)
        mv = reference.krylov_min_poly(T, v, p)
        mt = reference.matrix_min_poly(T, p)
        chi = reference.char_poly_2x2(T, p)
        ok = ok and reference.poly_divides(mv, mt, p) and reference.poly_divides(mt, chi, p)
    _verdict(12, "property suite: krylov | matrix | characteristic "
                 "divisibility chain, 1000 cases", ok)


def test_criterion_12b_transition_identities_1000():
    rng = random.Random(12002)
    ok = True
    for _ in range(1000):
        p = rng.choice((3, 5, 7))
        a, b, g, d = random_deformable_tuple(rng, p)
        ident = rel_transition((a, g), (a, g), p)
        ok = ok and (ident == np.eye(2, dtype=int)).all()
        t1 = rel_transition((g, d), (a, b), p)
        t2 = rel_transition((b, a), (g, d), p)
        chain = rel_transition((b, a), (a, b), p)
        ok = ok and (reference.mat_mul(t1, t2, p) == chain).all()
        ok = ok and (reference.mat_inverse(t1, p) == rel_transition((a, b), (g, d), p)).all()
    _verdict(12, "property suite: transition-matrix identities, 1000 cases", ok)


def test_criterion_12c_witness_reverification_1000():
    rng = random.Random(12003)
    ok = True
    witnesses = 0
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        code = random_code(rng, p)
        kind = rng.choice(("flat", "cornered"))
        w = rng.randrange(1, 3) if kind == "flat" else 2
        # at width 2 each orientation has one cornered family, its corner 1
        length, orientation = rng.randrange(2, 5), rng.choice(((0, 1), (1, 2), (2, 0), (1, 0)))
        geom = SegmentGeometry(*sections(w, kind)[ORIENTATIONS.index(orientation)], length)
        sol = solve_segment(code, geom)
        if sol.witness is not None:
            witnesses += 1
            ok = ok and verify_witness(code, geom, sol.witness)
    _verdict(12, f"property suite: solver witnesses re-verified against every "
                 f"anchor-avoiding generator, 1000 cases "
                 f"({witnesses} witnesses)", ok and witnesses >= 100)


def test_criterion_12d_orbit_invariance_1000():
    rng = random.Random(12004)
    ok = True
    for _ in range(1000):
        p = rng.choice((3, 5))
        t = random_deformable_tuple(rng, p)
        actions = [fn for _, fn, bulk in group_generators(p) if not bulk]
        base = theorem1_report(CodeParams(p, *t)).overall
        u = t
        for _ in range(rng.randrange(1, 4)):
            u = rng.choice(actions)(u)
        ok = ok and theorem1_report(CodeParams(p, *u)).overall == base
    _verdict(12, "property suite: three-condition verdict constant along "
                 "group orbits, 1000 cases", ok)
