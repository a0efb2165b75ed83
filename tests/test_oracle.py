"""Segment solver: constraint systems, scans, reduction, flattening."""

import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qupitcube import cli, fp, oracle, transfer
from qupitcube.classify import classify_orbits
from qupitcube.codes import CodeParams, PauliConfig, d3_code, d5_code
from qupitcube.oracle import (
    ORIENTATIONS,
    DegenerateGeometryError,
    SegmentGeometry,
    SegmentReport,
    scan_widths,
    sections,
)
from qupitcube.reference import (
    FlattenError,
    PivotError,
    PrerequisiteError,
    base_matrix,
    build_segment_constraints,
    canonical_reduction,
    config_mul,
    config_scale,
    flatten_segment,
    generator_config,
    in_box_cubes,
    is_stabilizer_combination,
    kink_profile,
    pair_system,
    rel_transition,
    scan_family,
    solve_segment,
    strip_transfer,
    verify_witness,
    width1_criterion,
)
from conftest import random_code, random_deformable_tuple

P2_TUPLE = CodeParams(2, (1, 0), (0, 1), (1, 1), (1, 0))


def strips(width, length, kind):
    """Every strip of a kind at one width and length, in ``sections`` order."""
    return [SegmentGeometry(axis, section, length) for axis, section in sections(width, kind)]


def flat_strip(width, length, orientation=(0, 1)):
    return strips(width, length, "flat")[ORIENTATIONS.index(orientation)]


def scan(params, width, l_max=None, kind="flat"):
    return scan_widths(params, [width], l_max, (kind,))[width][kind]


def test_constraint_matrix_shapes():
    d3 = d3_code()
    for w, l in ((1, 2), (2, 3), (3, 5), (2, 8)):
        system = build_segment_constraints(d3, flat_strip(w, l))
        assert system.shape == (2 * (w + 1) * (l - 1), 2 * w * l)


def test_width1_system_matches_block_form():
    # the four rows of the w=1, l=2 system are the displayed 2x2 block
    # matrix [[T_gb, T_da], [T_da, T_gb]], up to row order, for symmetric codes
    for code in (d3_code("S"), d5_code("S")):
        p = code.p
        a, b, g, d = code.pairs
        system = build_segment_constraints(code, flat_strip(1, 2))
        t_gb = base_matrix(g, b, p)
        t_da = base_matrix(d, a, p)
        block = np.block([[t_gb, t_da], [t_da, t_gb]]) % p
        mine = sorted(map(tuple, system.tolist()))
        theirs = sorted(map(tuple, block.tolist()))
        assert mine == theirs


def test_degenerate_geometries():
    origin, step = (0, 0, 0), (0, 1, 0)
    SegmentGeometry(0, (origin, step), 2)
    with pytest.raises(DegenerateGeometryError):
        SegmentGeometry(0, (origin,), 1)
    with pytest.raises(DegenerateGeometryError):
        SegmentGeometry(0, (origin, step), -3)
    with pytest.raises(DegenerateGeometryError):
        SegmentGeometry(0, (), 3)
    for axis in (-1, 3, 1.5, None):
        with pytest.raises(ValueError, match="axis must be"):
            SegmentGeometry(axis, (origin,), 3)
    with pytest.raises(ValueError, match="repeats"):
        SegmentGeometry(0, (origin, step, origin), 3)
    with pytest.raises(ValueError, match="must be 0 on axis 1"):
        SegmentGeometry(1, (origin, step), 3)
    with pytest.raises(ValueError, match="must be 0 on axis 2"):
        SegmentGeometry(2, ((0, 0, -1),), 3)


def test_sections_are_connected_cross_sections_in_scan_order():
    for w in range(1, 17):
        flat, cornered = sections(w, "flat"), sections(w, "cornered")
        assert len(flat) == 6 and len(cornered) == 6 * (w - 1)
        for axis, section in flat + cornered:
            assert len(section) == len(set(section)) == w
            assert all(q[axis] == 0 for q in section)
            # edge-connected: a walk by unit steps reaches every site
            reached, todo = {section[0]}, [section[0]]
            while todo:
                q = todo.pop()
                for r in section:
                    if r not in reached and sum(abs(a - b) for a, b in zip(q, r)) == 1:
                        reached.add(r)
                        todo.append(r)
            assert reached == set(section), section
        assert [axis for axis, _ in flat] == [la for la, _ in ORIENTATIONS]
        for i, (la, wa) in enumerate(ORIENTATIONS):
            ba = 3 - la - wa
            assert flat[i][1] == tuple(tuple(k * (a == wa) for a in range(3)) for k in range(w))
            if w > 1:
                # corner 1 is the flat section along the bend axis, site for site
                assert cornered[i * (w - 1)] == flat[ORIENTATIONS.index((la, ba))]


def test_solve_segment_reference_codes():
    d3 = d3_code()
    sol = solve_segment(d3, flat_strip(1, 3, (1, 0)))
    assert sol.nullspace_dim == 0 and not sol.nontrivial and sol.witness is None

    # width-1 strings exist for the degenerate p=2 tuple at every length
    for length in (2, 4, 8):
        assert any(solve_segment(P2_TUPLE, g).nontrivial
                   for g in strips(1, length, "flat"))


def test_scan_bounds_quick():
    for parity in "SA":
        for variant in (0, 1):
            d3 = d3_code(parity, variant=variant)
            for w in (1, 2, 3):
                for kind in ("flat", "cornered"):
                    rpt = scan(d3, w, kind=kind)
                    if rpt.max_nontrivial_length is not None:
                        assert rpt.max_nontrivial_length <= w + 1
    for parity in "SA":
        d5 = d5_code(parity)
        for w in (1, 2):
            for kind in ("flat", "cornered"):
                rpt = scan(d5, w, kind=kind)
                if rpt.max_nontrivial_length is not None:
                    assert rpt.max_nontrivial_length <= 2 * w


def test_scan_unbounded_for_degenerate_tuple():
    l_max = 9
    rpt = scan(P2_TUPLE, 1, l_max=l_max)
    assert rpt.max_nontrivial_length == l_max       # grows with the scan horizon
    assert rpt.nontrivial_lengths == list(range(2, l_max + 1))
    assert rpt.aspect_ratio == Fraction(l_max, 1)
    assert rpt.witness is not None


def test_scan_monotonicity():
    for code, w, kind in ((d5_code(), 3, "cornered"), (d3_code(), 3, "flat"),
                          (P2_TUPLE, 1, "flat")):
        rpt = scan(code, w, kind=kind)
        found = set(rpt.nontrivial_lengths)
        for l in found:
            if l > 2:
                assert l - 1 in found


def dense_scan(params, width, kind, l_max=None):
    """The length-by-length scan by ``solve_segment``: the transfer scan's oracle."""
    l_max = 2 * width + 4 if l_max is None else l_max
    dims, found = {}, []
    witness = witness_geom = None
    for length in range(2, l_max + 1):
        geoms = strips(width, length, kind)
        if not geoms:
            break
        sols = [solve_segment(params, g) for g in geoms]
        dims[length] = max(s.nullspace_dim for s in sols)
        hit = next((s for s in sols if s.nontrivial), None)
        if hit is not None:
            found.append(length)
            witness, witness_geom = hit.witness, hit.geometry
    max_len = max(found) if found else None
    return SegmentReport(width, kind, list(range(2, l_max + 1)), dims, found, max_len,
                         None if max_len is None else Fraction(max_len, width),
                         witness, witness_geom)


def assert_scan_matches_dense(params, width, kind, l_max=None):
    rpt = scan(params, width, l_max=l_max, kind=kind)
    want = dense_scan(params, width, kind, l_max)
    assert rpt.as_dict() == want.as_dict()
    assert rpt.witness_geometry == want.witness_geometry
    if rpt.witness is not None:
        assert verify_witness(params, rpt.witness_geometry, rpt.witness)
    return rpt


def test_transfer_scan_matches_dense_solver():
    rng = random.Random(73)
    codes = [d3_code("S"), d3_code("A"), d5_code("S"), d5_code("A")]
    codes += [CodeParams(p, *random_deformable_tuple(rng, p), parity=rng.choice("SA"))
              for p in (3, 5, 7)]
    witnesses = 0
    for code in codes:
        for w in (1, 2, 3):
            for kind in ("flat", "cornered"):
                witnesses += assert_scan_matches_dense(code, w, kind).witness is not None
    assert witnesses >= 10


def pivot_fails(code, axis, section):
    """True when the family's first column block is rank deficient, so its
    transfer recursion has free columns ``z_g``."""
    return strip_transfer(code, axis, section)[1].shape[1] > 0


def test_transfer_scan_handles_rank_deficient_pivot_blocks():
    mixed = CodeParams(3, (1, 2), (1, 1), (1, 2), (1, 1))
    degenerate = CodeParams(2, (1, 0), (1, 0), (1, 0), (1, 0))
    fails = {code: [pivot_fails(code, *f) for f in sections(2, "flat")]
             for code in (mixed, degenerate, P2_TUPLE)}
    assert sum(fails[mixed]) == 2
    assert all(fails[degenerate]) and not any(fails[P2_TUPLE])
    for code in fails:
        for w in (1, 2):
            for kind in ("flat", "cornered"):
                assert_scan_matches_dense(code, w, kind, l_max=7)


def test_transfer_scan_matches_dense_solver_on_rank_deficient_tuples():
    # the witness must be canonicalised to fp.nullspace's basis to match
    # the dense solver on these three
    for code, kind in ((CodeParams(2, (0, 1), (0, 1), (0, 1), (0, 1)), "flat"),
                       (CodeParams(2, (0, 1), (0, 1), (0, 1), (0, 1)), "cornered"),
                       (CodeParams(3, (0, 2), (0, 1), (0, 2), (0, 1)), "cornered")):
        assert_scan_matches_dense(code, 2, kind, l_max=7)
    rng = random.Random(97)
    checked = witnesses = 0
    while checked < 24:
        p = rng.choice((2, 3, 5))
        code = random_code(rng, p)
        w = rng.choice((1, 2))
        kind = "flat" if w == 1 else rng.choice(("flat", "cornered"))
        if not any(pivot_fails(code, *f) for f in sections(w, kind)):
            continue
        witnesses += assert_scan_matches_dense(code, w, kind, l_max=7).witness is not None
        checked += 1
    assert witnesses >= 12


def count_stacks(monkeypatch):
    """Record (W, members) of every stacked elimination and length loop:
    2W pivot columns of a run padded to width W."""
    stacks, loops = [], []
    rref_stack, scan = fp.mat_rref_stack, transfer.scan

    def counting_stack(M, p, n_pivot_cols):
        stacks.append((n_pivot_cols // 2, M.shape[0]))
        return rref_stack(M, p, n_pivot_cols)

    def counting_loop(A, F, v, p, l_max):
        loops.append((A.shape[1] // 2, A.shape[0]))
        return scan(A, F, v, p, l_max)

    monkeypatch.setattr(fp, "mat_rref_stack", counting_stack)
    monkeypatch.setattr(transfer, "scan", counting_loop)
    return stacks, loops


D5_FLAGS = ["--p", "5", "--alpha", "1,0", "--beta", "0,1", "--gamma", "1,1", "--delta", "3,2"]


def test_scan_runs_one_family_per_inversion_class(monkeypatch):
    # width 1: the six flat strips are three single-site cross-sections, one
    # per length axis.  Width w >= 2: six flat classes; each corner-1
    # family is a flat strip, and the other 6(w - 2) cornered families pair
    # up under inversion, 3w classes in all.  Both kinds to width 16 have
    # 3 + 3 * (2 + ... + 16) = 408 classes among 816 families.  Each run of
    # width_groups is one stacked elimination with one member per class of
    # its widths, and for a deformable code one length loop whose stack
    # holds every class: widths 1-5 share one, and each wider width has its own
    stacks, loops = count_stacks(monkeypatch)
    for wmax, classes in ((4, 30), (16, 408)):
        stacks.clear()
        loops.clear()
        assert cli.main(["strings", *D5_FLAGS, "--wmax", str(wmax)]) == 0
        runs = oracle.width_groups(range(1, wmax + 1), 1)
        assert runs == [tuple(range(1, min(wmax, 5) + 1))] + [(w,) for w in range(6, wmax + 1)]
        assert [w for w, _ in stacks] == [max(run) for run in runs]
        assert sum(members for _, members in stacks) == classes
        assert loops == stacks
        for run, (_, members) in zip(runs, stacks):
            heads = [h for w in run for h in oracle._width_stack(w).heads]
            assert len({oracle._inversion_class(*h) for h in heads}) == len(heads)
            assert len(heads) == members == len(oracle._group(run, oracle.KINDS).heads)


def test_deformable_strings_to_width_4_is_one_stack(monkeypatch):
    # a deformable code's four widths take one elimination and one length
    # loop, not one of each per width, with --kind and --lmax too, and also
    # for a code whose strings keep its members in the loop to the horizon
    stacks, loops = count_stacks(monkeypatch)
    string_code = ["--p", "5", "--alpha", "1,1", "--beta", "1,3", "--gamma", "2,0",
                   "--delta", "2,3"]
    for flags in (D5_FLAGS, [*D5_FLAGS, "--parity", "A"], string_code):
        for extra in ([], ["--kind", "cornered"], ["--lmax", "9"]):
            stacks.clear()
            loops.clear()
            assert cli.main(["strings", *flags, "--wmax", "4", *extra]) == 0
            assert len(stacks) == len(loops) == 1, (flags, extra)


MIXED = CodeParams(3, (1, 2), (1, 1), (1, 2), (1, 1))


def stack_codes():
    """d3, d5, tuples with free columns and seeded random codes at p = 2-11."""
    rng = random.Random(151)
    codes = [d3_code("S"), d3_code("A"), d5_code("S"), d5_code("A"), MIXED, P2_TUPLE,
             CodeParams(3, (1, 0), (1, 0), (1, 0), (1, 0), "A"),
             CodeParams(2, (0, 1), (0, 1), (0, 1), (0, 1))]
    for p, (one, other) in zip((2, 3, 5, 7, 11), ("SA", "AS", "SA", "AS", "SA")):
        codes.append(random_code(rng, p, one))
        codes.append(random_code(rng, p, other) if p == 2 else
                     CodeParams(p, *random_deformable_tuple(rng, p), parity=other))
    return codes


def same_span(X, Y, p):
    return X.shape == Y.shape and (fp.mat_rref(X, p)[0] == fp.mat_rref(Y, p)[0]).all()


def by_modulus(codes):
    groups = {}
    for code in codes:
        groups.setdefault(code.p, []).append(code)
    return list(groups.values())


def test_stacked_scan_matches_each_family_scan():
    # the length loop, stacked over all codes of a modulus and on
    # free-column members alone, against the kernel recursion, member by
    # member, with the kernel each hands on to the witness; MIXED stacks mix
    # both kinds of member
    assert [sum(pivot_fails(MIXED, *h) for h in oracle._width_stack(w).heads)
            for w in (2, 3)] == [2, 4]
    assert [len(oracle._width_stack(w).heads) for w in (2, 3)] == [6, 9]
    kinds = set()
    for group in by_modulus(stack_codes()):
        want = {}  # (code, width, head) -> the oracle at the default horizon
        for w in range(1, 7):
            stack = oracle._group((w,), oracle.KINDS)
            assert stack.heads == oracle._width_stack(w).heads
            transfers = {code: [strip_transfer(code, *head) for head in stack.heads]
                         for code in group}
            for l_max in (2, 2 * w + 4, 64):
                # the oracle's kernel grows with the length: only time to gain
                # from free-column codes at l_max 64 above width 3
                codes = [code for code in group if not (
                    l_max == 64 and w > 3 and any(F.shape[1] for _, F, _ in transfers[code]))]
                dims, nontrivial, last = oracle._scan_stack(codes, stack, l_max)
                assert dims.shape == nontrivial.shape == (len(codes), len(stack.heads), l_max - 1)
                for c, code in enumerate(codes):
                    for h, (A, F, v) in enumerate(transfers[code]):
                        d, hits, (_, _, kernel) = scan_family(code.p, A, F, v, l_max)
                        if l_max == 2 * w + 4:
                            want[code, w, h] = d, hits, A, F, kernel
                        assert dims[c, h].tolist() == d, (code, w, l_max, h)
                        assert nontrivial[c, h].tolist() == hits, (code, w, l_max, h)
                        kinds.add((F.shape[1] > 0, any(hits)))
                        if any(hits):
                            A2, F2, kernel2 = last(c, h)
                            assert (A2 == A).all() and (F2 == F).all()
                            assert same_span(kernel2, kernel, code.p), (code, w, l_max, h)
        # widths 1-6 in one stack padded to width 6, each to its own horizon
        run = oracle._group(tuple(range(1, 7)), oracle.KINDS)
        widths = run.width.tolist()
        dims, nontrivial, last = oracle._scan_stack(group, run, 2 * run.width + 4)
        assert dims.shape == (len(group), len(widths), 15)
        for c, code in enumerate(group):
            for member, w in enumerate(widths):
                d, hits, A, F, kernel = want[code, w, member - widths.index(w)]
                assert dims[c, member].tolist() == d + [0] * (15 - len(d)), (code, member)
                assert nontrivial[c, member].tolist() == hits + [False] * (15 - len(d))
                if any(hits):
                    A2, F2, kernel2 = last(c, member)
                    assert (A2 == A).all() and (F2 == F).all()
                    assert same_span(kernel2, kernel, code.p), (code, member)
    assert kinds >= {(False, False), (False, True), (True, True)}


def test_multi_width_scan_equals_each_width_scan(monkeypatch):
    # runs of widths padded to their widest, across the default budget's run
    # boundary after width 5, and all of widths 1-7 in one run padded to 7;
    # MIXED and (1,0)^4 put free-column members in padded runs
    rng = random.Random(181)
    codes = [d3_code("S"), d3_code("A"), d5_code("S"), d5_code("A"), MIXED,
             CodeParams(3, (1, 0), (1, 0), (1, 0), (1, 0))]
    codes += [CodeParams(p, *random_deformable_tuple(rng, p), parity=rng.choice("SA"))
              for p in (3, 5, 7, 11, 13)]
    options = ((None, oracle.KINDS), (9, oracle.KINDS), (None, ("cornered",)),
               (12, ("cornered", "flat")), (None, ("flat",)))
    widths = range(1, 8)
    assert oracle.width_groups(widths, 1) == [(1, 2, 3, 4, 5), (6,), (7,)]
    witnesses = 0
    for code in codes:
        for l_max, kinds in options:
            if code.pairs == ((1, 0),) * 4 and l_max != 9:
                continue  # each of its members scans alone, up to length 18
            each = {w: scan_widths(code, [w], l_max, kinds)[w] for w in widths}
            for budget in (oracle.MAX_GROUP_CELLS, 2**30):
                monkeypatch.setattr(oracle, "MAX_GROUP_CELLS", budget)
                reports = scan_widths(code, widths, l_max, kinds)
                assert list(reports) == list(widths)
                for w in widths:
                    assert list(reports[w]) == list(kinds)
                    for kind, rpt in reports[w].items():
                        want = each[w][kind]
                        assert rpt.as_dict() == want.as_dict(), (code, w, l_max, kind, budget)
                        assert rpt.witness_geometry == want.witness_geometry
                        witnesses += rpt.witness is not None
    assert witnesses >= 50


def each_code_scan(codes, width):
    out = []
    for code in codes:
        reports = scan_widths(code, [width])[width]
        out.append({kind: rpt.max_nontrivial_length for kind, rpt in reports.items()})
    return out


def scan_codes_at(codes, width):
    return [lengths[width] for lengths in oracle.scan_codes(codes, [width])]


def test_scan_codes_matches_each_code_scan_on_every_orbit():
    seen = set()
    for p in (3, 5, 7):
        for parity in "SA":
            codes = [CodeParams(p, *(tuple(x) for x in entry["representative"]), parity=parity)
                     for entry in classify_orbits(p, parity)["orbits"]]
            for w in (1, 2, 3):
                assert scan_codes_at(codes, w) == each_code_scan(codes, w), (p, parity, w)
            seen |= {m for lengths in scan_codes_at(codes, 3) for m in lengths.values()}
    # at width 3, segments no longer than w + 1 and segments up to the horizon
    assert seen == {3, 4, 10}


def test_scan_codes_matches_each_code_scan_with_free_columns():
    # each modulus of stack_codes() as one stack: (1,0)^4 and MIXED put
    # free-column members next to full-rank ones
    groups = by_modulus(stack_codes())
    assert any(MIXED in group and len(group) > 2 for group in groups)
    for group in groups:
        for w in (1, 2, 3, 4):
            assert scan_codes_at(group, w) == each_code_scan(group, w), (group[0].p, w)
    assert oracle.scan_codes([], [2]) == []
    assert [r[2] for r in oracle.scan_codes(iter([d3_code()]), iter([2]))] == \
        each_code_scan([d3_code()], 2)


def test_scan_codes_refuses_mixed_moduli_and_bad_scans():
    with pytest.raises(ValueError, match="one modulus"):
        oracle.scan_codes([d3_code(), d5_code()], [1])
    with pytest.raises(ValueError):
        oracle.scan_codes([d5_code()], [0])
    with pytest.raises(ValueError):
        oracle.scan_codes([d5_code()], [1, oracle.MAX_STRIP_WIDTH + 1])


def test_scans_refuse_an_empty_width_list():
    # no width scanned would read as "no string"
    for scan in (lambda: scan_widths(d5_code(), []), lambda: oracle.scan_codes([d5_code()], []),
                 lambda: oracle.scan_codes([], iter([]))):
        with pytest.raises(ValueError, match="at least one width"):
            scan()


def test_scans_refuse_widths_and_lengths_that_are_not_integers():
    # a bool width would key a report True; floats failed inside range
    d5 = d5_code()
    for scan in (lambda: scan_widths(d5, [True]), lambda: scan_widths(d5, [1, True]),
                 lambda: scan_widths(d5, [2.0]), lambda: oracle.scan_codes([d5], [2.0]),
                 lambda: scan_widths(d5, [2], l_max=5.5), lambda: scan_widths(d5, [2], l_max=True),
                 lambda: oracle.check_scan_bounds(True), lambda: oracle.check_scan_bounds(2, "9")):
        with pytest.raises(ValueError, match="need an integer"):
            scan()
    assert scan_widths(d5, [np.int64(2)], l_max=np.int64(6)) == scan_widths(d5, [2], l_max=6)


def test_scan_codes_drops_codes_after_their_first_long_run():
    # every representative at p = 5 (S) and p = 7 (A); those with a segment
    # longer than 2w have one at width 1.  Widths 1 and 2 share the first
    # run of the 18 p = 5 codes, so an entry keeps both; the 98 p = 7 codes
    # scan width 1 alone.  Scanned alone, a code's one run holds widths 1-3.
    widths = [1, 2, 3]
    ends = set()
    for p, parity, first in ((5, "S", (1, 2)), (7, "A", (1,))):
        codes = [CodeParams(p, *(tuple(x) for x in entry["representative"]), parity=parity)
                 for entry in classify_orbits(p, parity)["orbits"]]
        assert oracle.width_groups(widths, len(codes))[0] == first
        assert oracle.width_groups(widths, 1) == [(1, 2, 3)]
        for code, got in zip(codes, oracle.scan_codes(codes, widths)):
            each = {w: {kind: rpt.max_nontrivial_length
                        for kind, rpt in scan_widths(code, [w])[w].items()} for w in widths}
            long = [w for w in widths if oracle.has_long_segment({w: each[w]})]
            assert not long or long[0] in first, code
            kept = first if long else widths
            assert got == {w: each[w] for w in kept}, code
            assert oracle.scan_codes([code], widths) == [each], code
            ends.add((p, kept[-1]))
    assert ends == {(5, 2), (5, 3), (7, 1), (7, 3)}


def test_scan_codes_chunks_equal_one_stack(monkeypatch):
    # the p = 3 codes of stack_codes(), free columns included, and the orbits
    codes = [code for code in stack_codes() if code.p == 3]
    codes += [CodeParams(3, *(tuple(x) for x in entry["representative"]))
              for entry in classify_orbits(3)["orbits"]]
    assert oracle._codes_per_stack(oracle._group((3,), oracle.KINDS)) >= len(codes)
    whole = {w: oracle.scan_codes(codes, [w]) for w in (1, 2, 3)}
    sizes = []
    scan_stack = oracle._scan_stack

    def counting(codes, group, l_max):
        sizes.append(len(codes))
        return scan_stack(codes, group, l_max)

    monkeypatch.setattr(oracle, "_scan_stack", counting)
    monkeypatch.setattr(oracle, "MAX_STACK_BYTES", 1)
    for w, expected in whole.items():
        sizes.clear()
        assert oracle.scan_codes(codes, [w]) == expected, w
        assert sizes == [1] * len(codes)


def test_scan_codes_holds_one_chunk_at_a_time():
    # tracemalloc puts one stack of all 1,630 p = 13 representatives at
    # width 3 at 59 MiB, and chunks of MAX_STACK_BYTES at 3.2 MiB
    codes = [CodeParams(13, *(tuple(x) for x in entry["representative"]))
             for entry in classify_orbits(13)["orbits"]]
    assert len(codes) == 1630
    oracle.scan_codes(codes[:2], [3])  # the width's template is built once and kept
    tracemalloc.start()
    try:
        found = oracle.scan_codes(codes, [3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == len(codes)
    assert oracle._codes_per_stack(oracle._group((3,), oracle.KINDS)) < len(codes)
    assert peak < 8 * 2**20, peak


def arbitrary_blocks(rng):
    """Six members' blocks (p, A, F, v) without free columns for each p, n
    and k: any A, nilpotent and zero ones included, and k leftover rows."""
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            for k in (0, 1, 2, 3):
                A = rng.integers(0, p, (6, n, n))
                A[0], A[1] = np.eye(n, k=1, dtype=np.int64), 0
                v = rng.integers(0, p, (6, k, n)) * (rng.random((6, k, n)) < 0.6)
                v[:2] = 0
                yield p, A, np.zeros((6, n, 0), dtype=np.int64), v


def test_transfer_loop_matches_family_scan_on_arbitrary_blocks():
    # any A, nilpotent and zero ones included, and 0-3 leftover rows: the
    # stacked loop against the kernel recursion with no free columns, also
    # at lengths whose kernel is nonzero while A^(l-1) maps it to zero
    rng = np.random.default_rng(173)
    killed = 0
    for p, A, F, v in arbitrary_blocks(rng):
        for l_max in (2, 5, 12):
            dims, nontrivial, last_Q = transfer.scan(A, F, v, p, l_max)
            for b in range(6):
                d, hits, (_, _, kernel) = scan_family(p, A[b], F[b], v[b], l_max)
                assert dims[b].tolist() == d, (p, A[b], v[b], l_max)
                assert nontrivial[b].tolist() == hits, (p, A[b], v[b], l_max)
                if any(hits):
                    Q = last_Q[b]
                    assert same_span(Q[:, np.diagonal(Q) == 1].T, kernel, p)
                killed += sum(bool(x) and not h for x, h in zip(d, hits))
    assert killed > 100
    # the blocks of random two-block systems, whose first block is often
    # rank deficient, each alone, with the kernel of a run to the last
    # nontrivial length
    seen = set()
    for p in (2, 3, 5):
        for _ in range(100):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            M = rng.integers(0, p, (m, 2 * n)) * (rng.random((m, 2 * n)) < 0.5)
            A, F, v = transfer.transfer(M, n, p)
            for l_max in (2, 7):
                blocks = A[None], F[None], v[None]
                dims, nontrivial, _ = transfer.scan(*blocks, p, l_max)
                d, hits, (_, _, kernel) = scan_family(p, A, F, v, l_max)
                assert dims[0].tolist() == d, (p, M, l_max)
                assert nontrivial[0].tolist() == hits, (p, M, l_max)
                if any(hits):
                    length = max(l for l, hit in enumerate(hits, 2) if hit)
                    Q = transfer.scan(*blocks, p, length)[2][0]
                    assert same_span(Q[:, np.diagonal(Q) == 1].T, kernel, p), (p, M, l_max)
                seen.add((min(F.shape[1], 2), any(hits), all(hits)))
    # free columns: hits at every length, hits that stop, and none
    assert seen >= {(1, True, True), (1, True, False), (1, False, False), (2, True, True),
                    (2, False, False)}


def test_transfer_loop_with_a_horizon_per_member_equals_one_loop_per_horizon():
    # each member to its own horizon in one stack, against a stack of that
    # member alone; past its horizon a member reads zero and False
    rng = np.random.default_rng(179)
    for p, A, F, v in arbitrary_blocks(rng):
        for horizons in (rng.integers(2, 13, 6), np.array([2, 12, 2, 7, 12, 3])):
            dims, nontrivial, last_Q = transfer.scan(A, F, v, p, horizons)
            assert dims.shape == nontrivial.shape == (6, horizons.max() - 1)
            for b, l_max in enumerate(horizons.tolist()):
                d, hits, Q = transfer.scan(A[b:b + 1], F[b:b + 1], v[b:b + 1], p, l_max)
                assert (dims[b, :l_max - 1] == d[0]).all(), (p, A[b], v[b], l_max)
                assert (nontrivial[b, :l_max - 1] == hits[0]).all(), (p, A[b], v[b], l_max)
                assert not dims[b, l_max - 1:].any() and not nontrivial[b, l_max - 1:].any()
                assert (last_Q[b] == Q[0]).all()


def test_stack_members_leave_once_their_first_column_vanishes(monkeypatch):
    # every member the length loop carries still has N = A^(l-1) Q nonzero;
    # d5 has no string, so its loop ends long before l_max
    calls = []
    add_row = transfer._add_row

    def checking(X, j, p):
        if j == 0:  # a step's first row; later rows may empty the kernel
            n = X.shape[2]  # no free columns: rows k..k+n hold N, then Q
            assert X[:, -2 * n:-n].any(axis=(1, 2)).all()
            calls.append(X.shape[0])
        return add_row(X, j, p)

    monkeypatch.setattr(transfer, "_add_row", checking)
    for w in (1, 2, 3, 4):
        calls.clear()
        scan_widths(d5_code(), [w], l_max=64)
        assert calls and len(calls) < 2 * w + 4
    calls.clear()
    assert scan(P2_TUPLE, 1, l_max=9).max_nontrivial_length == 9
    assert len(calls) == 8


def test_free_column_scan_holds_one_kernel_at_a_time():
    # every family of (1,0)^4 at p = 3 has w free columns, so its kernel
    # grows with the length: at width 8 and l_max = 64 each ends 520 x 520,
    # and the 24 classes' kernels together take about 50 MiB
    code = CodeParams(3, (1, 0), (1, 0), (1, 0), (1, 0))
    scan_widths(code, [8], l_max=2)  # the width's template is built once and kept
    tracemalloc.start()
    try:
        reports = scan_widths(code, [8], l_max=64)[8]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.max_nontrivial_length for r in reports.values()] == [64, 64]
    assert all(r.witness is not None for r in reports.values())
    assert peak < 32 * 2**20, peak


def test_free_column_scan_to_width_11_is_fast(capsys):
    # on a 2-core x86_64 VM the per-family kernel recursion took 11-12 s
    one_zero = ["--p", "3", "--alpha", "1,0", "--beta", "1,0", "--gamma", "1,0", "--delta", "1,0"]
    t0 = time.perf_counter()
    assert cli.main(["strings", *one_zero, "--wmax", "11"]) == 0
    assert time.perf_counter() - t0 < 6
    assert '"max_nontrivial_length": 26' in capsys.readouterr().out


def test_scan_at_the_largest_modulus():
    p = 1048573  # the largest prime <= fp.MAX_MODULUS
    assert fp.check_prime(p) == p
    rng = random.Random(167)
    codes = [CodeParams(p, (1, 0), (0, 1), (1, 1), (3, 2), parity) for parity in "SA"]
    codes += [CodeParams(p, *random_deformable_tuple(rng, p), parity=parity) for parity in "SA"]
    codes += [CodeParams(p, (1, 0), (0, 1), (1, 1), (p - 1, 0)),  # delta ~ alpha
              CodeParams(p, (1, 0), (1, 0), (1, 0), (1, 0), "A")]
    for code in codes:
        for w in (1, 2):
            for kind in ("flat", "cornered"):
                assert_scan_matches_dense(code, w, kind, l_max=6)
    flags = ["--p", str(p), "--alpha", "1,0", "--beta", "0,1", "--gamma", "1,1",
             "--delta", "3,2"]
    t0 = time.perf_counter()
    assert cli.main(["strings", *flags, "--wmax", "3"]) == 0
    assert time.perf_counter() - t0 < 0.5


def cornered_families(w):
    """((la, wa, c), (axis, section)) of each cornered family at width w, by
    ``sections``' order: orientations in turn, corners 1..w-1 within each."""
    return zip([(la, wa, c) for la, wa in ORIENTATIONS for c in range(1, w)],
               sections(w, "cornered"))


def inversion_partner(w, la, wa, c):
    """The family point inversion maps the cornered family (la, wa, c) onto,
    in closed form: (la, ba, w - c + 1), and the flat strip along the bend
    axis ba when c = 1."""
    ba = 3 - la - wa
    if c == 1:
        return sections(w, "flat")[ORIENTATIONS.index((la, ba))]
    return sections(w, "cornered")[ORIENTATIONS.index((la, ba)) * (w - 1) + w - c]


def test_cornered_families_scan_like_their_inversion_partners():
    rng = random.Random(131)
    pairs = 0
    for p in (2, 3, 5, 7):
        for parity in "SA":
            # one deformable code (none exists at p = 2) and one arbitrary
            codes = [random_code(rng, p, parity) if p == 2 else
                     CodeParams(p, *random_deformable_tuple(rng, p), parity=parity),
                     random_code(rng, p, parity)]
            for code in codes:
                for w in range(2, 7):
                    for (la, wa, c), family in cornered_families(w):
                        partner = inversion_partner(w, la, wa, c)
                        assert oracle._inversion_class(*partner) == oracle._inversion_class(*family)
                        mine = scan_family(p, *strip_transfer(code, *family), 2 * w + 4)[:2]
                        theirs = scan_family(p, *strip_transfer(code, *partner), 2 * w + 4)[:2]
                        assert mine == theirs, (code, family)
                        pairs += 1
    assert pairs == 4 * 2 * 2 * 6 * (1 + 2 + 3 + 4 + 5)


def test_pair_system_matches_whole_strip_assembly():
    rng = random.Random(137)
    codes = [d3_code("S"), d5_code("A"), P2_TUPLE,
             *(random_code(rng, p) for p in (2, 3, 5, 7))]
    for code in codes:
        for w in range(1, 7):
            for kind in ("flat", "cornered"):
                for geom in strips(w, 2, kind):
                    mine = pair_system(code, geom.axis, geom.section)
                    theirs = build_segment_constraints(code, geom)
                    assert mine.shape[1] == theirs.shape[1] == 4 * len(geom.section)
                    r_mine, piv_mine = fp.mat_rref(mine, code.p)
                    r_theirs, piv_theirs = fp.mat_rref(theirs, code.p)
                    assert piv_mine == piv_theirs, (code, geom)
                    assert (r_mine[:len(piv_mine)] == r_theirs[:len(piv_theirs)]).all()


def test_class_heads_have_their_representatives_sites():
    # scan_widths gives the witness family its class representative's kernel:
    # the first family of each inversion class within a kind must have the
    # exact cross-section list of the geometry that was scanned for it
    for kinds in (("flat", "cornered"), ("cornered", "flat"), ("cornered",), ("flat",)):
        for width in range(1, 17):
            representative = {}
            for kind in kinds:
                heads = set()
                for family in sections(width, kind):
                    key = oracle._inversion_class(*family)
                    first = representative.setdefault(key, family)
                    if key not in heads:
                        heads.add(key)
                        assert family == first, (kinds, family)


def test_scan_needs_both_end_columns():
    # a recursion whose solutions all vanish on the last column: v forces
    # x_{g+1} = 0 while the free columns z_g fill the first one
    eye, zero = np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
    dims, nontrivial, _ = transfer.scan(zero[None], eye[None], eye[None], 3, 5)
    assert dims.tolist() == [[2, 2, 2, 2]] and not nontrivial.any()
    assert scan_family(3, zero, eye, eye, 5)[:2] == (dims[0].tolist(), nontrivial[0].tolist())


def test_scan_refuses_unknown_kinds():
    for kind in ("flta", "both", ""):
        with pytest.raises(ValueError, match="kind must be"):
            scan_widths(d5_code(), [2], kinds=(kind,))
        with pytest.raises(ValueError, match="kind must be"):
            sections(2, kind)


def test_width1_cornered_scan_is_empty():
    rpt = scan(d3_code(), 1, kind="cornered")
    assert rpt.max_nontrivial_length is None and rpt.nullspace_dims == {}


def test_witness_reverification():
    rng = random.Random(59)
    checked = 0
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        code = random_code(rng, p)
        kind = rng.choice(("flat", "cornered"))
        w = rng.randrange(1, 3) if kind == "flat" else 2
        # at width 2 each orientation has one cornered family, its corner 1
        length, orientation = rng.randrange(2, 5), rng.choice(((0, 1), (1, 2), (2, 0)))
        geom = strips(w, length, kind)[ORIENTATIONS.index(orientation)]
        sol = solve_segment(code, geom)
        if sol.witness is not None:
            assert verify_witness(code, geom, sol.witness)
            checked += 1
    assert checked >= 20


def test_positive_dimension_when_deformability_fails_on_an_edge():
    # a proportional pair leaves a direction with an underdetermined chain
    cases = [
        P2_TUPLE,
        CodeParams(3, (1, 0), (0, 1), (1, 1), (2, 0)),   # delta ~ alpha
        CodeParams(5, (1, 0), (0, 1), (1, 1), (2, 2)),   # delta ~ gamma
    ]
    for code in cases:
        for length in (2, 4, 6):
            assert any(solve_segment(code, g).nullspace_dim > 0
                       for g in strips(1, length, "flat"))


def test_canonical_reduction_matches_solver():
    for code in (d3_code(), d5_code("A")):
        for w in (1, 2, 3):
            for l in (2, 3, 5, 6):
                red = canonical_reduction(code, flat_strip(w, l))
                sol = solve_segment(code, flat_strip(w, l))
                assert red.nullspace_dim == sol.nullspace_dim
                assert red.agrees_with_direct
                assert red.krylov_bound_ok


def test_canonical_reduction_width1_blocks():
    # the eliminated w=1, l=2 system carries the relative transition block
    for code in (d3_code("S"), d5_code("S")):
        p = code.p
        a, b, g, d = code.pairs
        red = canonical_reduction(code, flat_strip(1, 2))
        t_named = rel_transition((d, a), (g, b), p)
        assert (red.transfer_block == t_named).all()
        residual_named = (rel_transition((g, b), (d, a), p) - t_named) % p
        assert fp.mat_rank(red.residual, p) == fp.mat_rank(residual_named, p)


def test_canonical_reduction_cornered():
    geom = strips(3, 4, "cornered")[0]  # orientation (0, 1), corner 1
    red = canonical_reduction(d5_code(), geom)
    sol = solve_segment(d5_code(), geom)
    assert red.nullspace_dim == sol.nullspace_dim


def test_canonical_reduction_pivot_failure():
    degenerate = CodeParams(2, (1, 0), (1, 0), (1, 0), (1, 0))
    with pytest.raises(PivotError):
        canonical_reduction(degenerate, flat_strip(1, 3))


def test_width1_criterion_agreement():
    out = width1_criterion(d3_code())
    assert all(out["det_nonzero"]) and all(out["oracle_no_string"])
    assert out["aggregate_agreement"] and out["multiset_agreement"]
    assert out["polarity"] == "det-nonzero-implies-no-string"
    with pytest.raises(PrerequisiteError):
        width1_criterion(P2_TUPLE)


def test_flatten_already_flat():
    d5 = d5_code()
    box = (2, 2, 3)
    cfg = PauliConfig(5)
    for q in sorted(kink_profile(box))[:3]:
        cfg.add(q, (1, 2))
    assert flatten_segment(d5, cfg, box) == cfg


def test_flatten_stabilizer_product():
    d5 = d5_code()
    box = (3, 3, 3)
    prod = config_mul(generator_config(d5, (0, 0, 0)), generator_config(d5, (1, 1, 1)))
    flat = flatten_segment(d5, prod, box)
    profile = kink_profile(box)
    assert all(q in profile for q in flat.support)
    diff = config_mul(flat, config_scale(prod, 5 - 1))
    assert is_stabilizer_combination(d5, diff, box)


def test_flatten_two_by_two_box():
    rng = random.Random(61)
    d5 = d5_code()
    box = (2, 2, 4)
    cfg = PauliConfig(5)
    for c in in_box_cubes(box):
        k = rng.randrange(5)
        if k:
            cfg = config_mul(cfg, config_scale(generator_config(d5, c), k))
    profile = sorted(kink_profile(box))
    for q in profile[:4]:
        cfg.add(q, (rng.randrange(5), rng.randrange(5)))
    flat = flatten_segment(d5, cfg, box)
    assert not flat.is_identity()
    assert all(q in kink_profile(box) for q in flat.support)
    diff = config_mul(flat, config_scale(cfg, 5 - 1))
    assert is_stabilizer_combination(d5, diff, box)


def test_stabilizer_combination_rejects_support_outside_box():
    d5 = d5_code()
    box = (3, 3, 3)
    gen = generator_config(d5, (0, 0, 0))
    assert is_stabilizer_combination(d5, gen, box)
    far = gen.copy()
    far.add((9, 9, 9), (1, 0))
    assert not is_stabilizer_combination(d5, far, box)


def test_flatten_blocking_site():
    cfg = PauliConfig(2)
    cfg.add((0, 1, 1), (1, 0))
    with pytest.raises(FlattenError) as err:
        flatten_segment(P2_TUPLE, cfg, (2, 2, 3))
    assert err.value.site is not None

    outside = PauliConfig(2)
    outside.add((5, 5, 5), (1, 0))
    with pytest.raises(ValueError):
        flatten_segment(P2_TUPLE, outside, (2, 2, 3))


def test_report_serialization():
    rpt = scan(d3_code(), 2, l_max=4)
    d = rpt.as_dict()
    assert d["width"] == 2 and set(d["nullspace_dims"]) == {"2", "3", "4"}
