"""Orbit enumeration and classification under the equivalence group."""

import random
import time
import tracemalloc

import numpy as np
import pytest

from qupitcube import classify
from qupitcube.classify import _orbit_counts, classify_orbits, scan_theorem1
from qupitcube.reference import (
    enumerate_deformable,
    group_generators,
    orbit,
    orbit_canonical,
    orbits_by_walk,
    primitive_root,
)
from qupitcube.codes import CodeParams
from qupitcube.conditions import theorem1, theorem1_report
from qupitcube.oracle import scan_width
from conftest import random_deformable_tuple

D3_TUPLE = ((1, 0), (0, 1), (1, 1), (1, 2))
D3_TUPLE_B = ((1, 0), (0, 1), (1, 1), (2, 1))
D5_TUPLE = ((1, 0), (0, 1), (1, 1), (3, 2))


def test_enumeration_counts():
    assert len(enumerate_deformable(2)) == 0
    assert len(enumerate_deformable(3)) == 384      # 8 * 6 * 4 * 2
    assert len(enumerate_deformable(5)) == 92160    # 24 * 20 * 16 * 12


def test_primitive_roots():
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3


def test_group_generator_examples():
    gens = {name: fn for name, fn, _ in group_generators(5)}
    swapped = gens["swap-alpha-beta"](D3_TUPLE)
    assert swapped == ((0, 1), (1, 0), (1, 1), (1, 2))

    scaled = gens["scalar-2"](D5_TUPLE)
    assert scaled == ((2, 0), (0, 2), (2, 2), (1, 4))

    shear = gens["sl2-((1, 1), (0, 1))"]
    assert shear(((0, 1), (0, 1), (0, 1), (0, 1)))[0] == (1, 1)


def test_parity_flip_is_involution():
    gens = {name: fn for name, fn, _ in group_generators(5)}
    flip = gens["parity-flip"]
    assert flip(flip(D5_TUPLE)) == D5_TUPLE


def test_orbit_canonical_invariance():
    rng = random.Random(67)
    for p in (3, 5):
        actions = [fn for _, fn, bulk in group_generators(p) if not bulk]
        for _ in range(50 if p == 3 else 20):
            t = random_deformable_tuple(rng, p)
            canon = orbit_canonical(t, p)
            assert orbit_canonical(canon, p) == canon       # idempotent
            u = t
            for _ in range(rng.randrange(1, 6)):
                u = rng.choice(actions)(u)
            assert orbit_canonical(u, p) == canon


def test_normal_form_matches_breadth_first_orbits():
    # every representative and orbit size against the BFS closure
    for p in (3, 5):
        rep = classify_orbits(p)
        covered = 0
        for entry in rep["orbits"]:
            canon = tuple(tuple(x) for x in entry["representative"])
            members = orbit(canon, p)
            assert min(members) == canon
            assert len(members) == entry["orbit_size"]
            covered += len(members)
            for u in sorted(members)[::97]:
                assert orbit_canonical(u, p) == canon
        assert covered == rep["deformable_count"] == len(enumerate_deformable(p))
    # p=7: BFS orbits of a seeded sample
    sizes = {tuple(tuple(x) for x in o["representative"]): o["orbit_size"]
             for o in classify_orbits(7)["orbits"]}
    rng = random.Random(71)
    for _ in range(3):
        t = random_deformable_tuple(rng, 7)
        members = orbit(t, 7)
        canon = orbit_canonical(t, 7)
        assert canon == min(members)
        assert sizes[canon] == len(members)


def test_orbit_keys_match_the_walk():
    for p in (2, 3, 5, 7, 11):
        got = [(tuple(tuple(x) for x in o["representative"]), o["orbit_size"])
               for o in classify_orbits(p)["orbits"]]
        assert got == orbits_by_walk(p), p


def test_orbit_key_chunks_equal_one_pass(monkeypatch):
    whole = {p: _orbit_counts(p) for p in (5, 7)}
    assert classify.MAX_KEY_BYTES // 200 >= 6 ** 4 * 5        # p = 7 is one chunk
    monkeypatch.setattr(classify, "MAX_KEY_BYTES", 7 * 200)   # 7 forms a chunk
    for p, counts in whole.items():
        assert np.array_equal(_orbit_counts(p), counts), p


def test_orbit_keys_hold_one_chunk_at_a_time():
    # 24.5 MiB here: 13.6 MiB of keys, one 8 MiB chunk and the counts;
    # one chunk of all 1,784,592 normal forms peaks at 276 MiB
    tracemalloc.start()
    try:
        counts = _orbit_counts(19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    assert np.count_nonzero(counts) == 8286


def test_classify_at_p13_is_fast():
    # on a 2-core x86_64 VM: 0.8-1.5 s walking the orbits one at a time,
    # about 0.2 s keying every normal form in one array pass
    t0 = time.perf_counter()
    rep = classify_orbits(13)
    assert time.perf_counter() - t0 < 0.6
    assert rep["orbit_count"] == 1630


def test_theorem1_over_p13_representatives_is_fast():
    # on a 2-core x86_64 VM: 60-110 ms building a CodeParams and three
    # 2x2 transition matrices per representative, about 22 ms reading
    # each report off its six symplectic products
    reps = [tuple(tuple(x) for x in e["representative"])
            for e in classify_orbits(13)["orbits"]]
    assert len(reps) == 1630
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for rep in reps:
            theorem1(rep, 13)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.045


def test_orbit_canonical_rejects_non_deformable():
    with pytest.raises(ValueError):
        orbit_canonical(((1, 0), (0, 1), (1, 1), (2, 2)), 3)


def scan_theorem1_each_code(report, oracle_wmax):
    """``scan_theorem1``'s oracle lists from one ``scan_width`` per
    representative and width."""
    passing = []
    for entry in report["orbits"]:
        t1 = entry["theorem1"]
        if not (t1["deformability"] and t1["minimal_string"] and all(t1["minimal_string"])):
            continue
        code = CodeParams(report["p"], *(tuple(x) for x in entry["representative"]),
                          parity=report["parity"])
        widths, ok = {}, True
        for w in range(1, oracle_wmax + 1):
            for kind, rpt in scan_width(code, w).items():
                m = widths[f"{kind}-w{w}"] = rpt.max_nontrivial_length
                ok = ok and (m is None or m <= 2 * w)
        if ok:
            passing.append({"representative": entry["representative"],
                            "oracle_max_lengths": widths})
    return passing


def test_scan_theorem1_matches_one_scan_per_representative():
    for p in (3, 5, 7):
        for parity in "SA":
            report = classify_orbits(p, parity)
            for wmax in (1, 2, 3):
                out = scan_theorem1(report, oracle_wmax=wmax)
                assert out["cond12_oracle_pass"] == scan_theorem1_each_code(report, wmax), \
                    (p, parity, wmax)


@pytest.mark.parametrize("parity", ["S", pytest.param("A", marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: theorem1_report ignores parity, and 8 of 24 "
    "(p = 7) and 96 of 256 (p = 11) A literal passers have a segment longer than 2w"))])
def test_symmetric_literal_passers_have_no_long_segments(parity):
    # every S representative passing the three literal conditions passes the
    # solver's 2w bound to width 2 (also all 608 at p = 13); for A codes
    # 8 of 24 and 96 of 256 do not, the parity defect of theorem1_report
    for p, count in ((7, 24), (11, 256)):
        out = scan_theorem1(classify_orbits(p, parity), oracle_wmax=2)
        confirmed = [entry["representative"] for entry in out["cond12_oracle_pass"]]
        assert len(out["literal_pass"]) == count
        assert all(rep in confirmed for rep in out["literal_pass"]), p


def test_scan_theorem1_at_p11_to_width_3_is_fast():
    # on a 2-core x86_64 VM: 1.1-2.0 s with one scan per representative and
    # width, 0.12-0.19 s with one stack of representatives per width
    report = classify_orbits(11)
    t0 = time.perf_counter()
    out = scan_theorem1(report, oracle_wmax=3)
    assert time.perf_counter() - t0 < 0.6
    assert len(out["cond12_oracle_pass"]) == 490


def test_classification_p11():
    p = 11
    rep = classify_orbits(p)
    assert rep["orbit_count"] == 750
    total = (p * p - 1) * (p * p - p) * (p - 1) ** 3 * (p - 2)
    assert total == 118_800_000
    assert sum(o["orbit_size"] for o in rep["orbits"]) == rep["deformable_count"] == total


def test_classification_p17():
    rep = classify_orbits(17)
    assert rep["orbit_count"] == 5178
    assert sum(o["orbit_size"] for o in rep["orbits"]) == rep["deformable_count"]


def test_classification_p3():
    for parity in "SA":
        rep = classify_orbits(3, parity)
        assert rep["deformable_count"] == 384
        assert rep["orbit_count"] == 2
        sizes = [o["orbit_size"] for o in rep["orbits"]]
        assert sum(sizes) == 384
        group_order = 24 * 24  # permutations x (scalars * SL(2,3) = SL(2,3))
        assert all(group_order % s == 0 for s in sizes)
        reps = {tuple(tuple(x) for x in o["representative"]) for o in rep["orbits"]}
        assert reps == {orbit_canonical(D3_TUPLE, 3), orbit_canonical(D3_TUPLE_B, 3)}


def test_classification_refuses_unknown_parities():
    # the report would carry the parity, and scan_theorem1 fail on it later
    for parity in ("Q", "s", None):
        with pytest.raises(ValueError, match="parity must be 'S' or 'A'"):
            classify_orbits(3, parity)


def test_classification_p2_empty():
    rep = classify_orbits(2)
    assert rep["orbit_count"] == 0 and rep["orbits"] == []


def test_classification_p5_partition():
    rep = classify_orbits(5)
    sizes = [o["orbit_size"] for o in rep["orbits"]]
    assert sum(sizes) == 92160
    # permutations (24) x {a M : a in F5*, M in SL(2,5)} (240)
    group_order = 24 * 240
    assert all(group_order % s == 0 for s in sizes)
    reps = {tuple(tuple(x) for x in o["representative"]) for o in rep["orbits"]}
    assert orbit_canonical(D5_TUPLE, 5) in reps


def test_verdicts_constant_on_orbits_p3():
    for t in (D3_TUPLE, D3_TUPLE_B):
        base = theorem1_report(CodeParams(3, *t)).as_dict()
        members = orbit(t, 3)
        for u in sorted(members)[::17]:   # spot-check a spread of members
            got = theorem1_report(CodeParams(3, *u))
            assert got.overall == base["overall"]
            assert got.deformability == base["deformability"]
        assert len(members) == 192


def test_deformability_preserved_exhaustive_p3():
    actions = [fn for _, fn, _ in group_generators(3)]
    for t in enumerate_deformable(3):
        for act in actions:
            assert theorem1_report(CodeParams(3, *act(t))).deformability


def test_scan_theorem1_p3_and_p2():
    out = scan_theorem1(classify_orbits(3), oracle_wmax=1)
    assert out["literal_pass"] == []
    assert len(out["cond12_oracle_pass"]) == 2   # both orbits obey the 2w bound
    assert scan_theorem1(classify_orbits(3), oracle_wmax=1) == out
    out2 = scan_theorem1(classify_orbits(2))
    assert out2["literal_pass"] == [] and out2["cond12_oracle_pass"] == []
    # no width, no solver run: refused rather than reported as confirmed
    with pytest.raises(ValueError, match="width >= 1"):
        scan_theorem1(classify_orbits(3), oracle_wmax=0)


def test_scan_theorem1_p5_contains_reference_orbit():
    out = scan_theorem1(classify_orbits(5), oracle_wmax=1)
    passing = {tuple(tuple(x) for x in e["representative"])
               for e in out["cond12_oracle_pass"]}
    assert orbit_canonical(D5_TUPLE, 5) in passing
