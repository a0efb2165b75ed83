"""Transition matrices and the three no-string conditions."""

import random
from itertools import product

import numpy as np
import pytest

from qupitcube import cli, reference
from qupitcube.classify import classify_orbits
from qupitcube.codes import CodeParams, d3_code, d5_code, symplectic_product
from qupitcube.conditions import (
    SingularDenominatorError,
    corner_determinant_check,
    theorem1_report,
)
from qupitcube.reference import base_matrix, group_generators, rel_transition
from conftest import random_code, random_deformable_tuple, random_pair


def test_base_matrix_examples():
    assert (base_matrix((1, 0), (1, 1), 5) == [[1, 0], [1, 4]]).all()
    assert reference.mat_det(base_matrix((1, 0), (2, 0), 5), 5) == 0  # proportional rows
    assert (base_matrix((0, 1), (1, 1), 3) == [[0, 2], [1, 2]]).all()


def test_base_matrix_determinant_convention():
    # det T(A, C) = <C, A>, uniformly
    rng = random.Random(41)
    for p in (3, 5, 7):
        for _ in range(350):
            a, c = random_pair(rng, p), random_pair(rng, p)
            assert reference.mat_det(base_matrix(a, c, p), p) == symplectic_product(c, a, p)


def test_rel_transition_matches_dense_oracles():
    # T(num | den) by the adjugate against a dense inverse and product; the
    # matrices m and n are T(den) and T(num), so den and num are their rows
    # with the second entry negated
    def check(m, n, p):
        den, num = (tuple((a, -b) for a, b in rows) for rows in (m, n))
        M = base_matrix(*den, p)
        assert (M == np.array(m) % p).all(), (m, p)
        if reference.mat_det(M, p):
            want = reference.mat_mul(reference.mat_inverse(M, p), base_matrix(*num, p), p)
            assert (rel_transition(num, den, p) == want).all(), (m, n, p)
        else:
            with pytest.raises(SingularDenominatorError):
                rel_transition(num, den, p)
            with pytest.raises(reference.SingularMatrixError):
                reference.mat_inverse(M, p)

    for p in (2, 3, 5):
        mats = [((a, b), (c, d)) for a, b, c, d in product(range(p), repeat=4)]
        for m, n in zip(mats, mats[1:] + mats[:1]):
            check(m, n, p)
    # seeded matrices to p = 31, unreduced entries and singular ones included
    rng = random.Random(53)
    for p in (7, 11, 13, 17, 19, 23, 29, 31):
        singular = 0
        for _ in range(200):
            a, b, c = (rng.randrange(-2 * p, 2 * p) for _ in range(3))
            d = rng.randrange(-2 * p, 2 * p)
            if rng.random() < 0.25:  # second row a multiple of the first
                k = rng.randrange(p)
                c, d = k * a, k * b
            m = ((a, b), (c, d))
            n = tuple(tuple(rng.randrange(-p, 2 * p) for _ in range(2)) for _ in range(2))
            check(m, n, p)
            singular += reference.mat_det(m, p) == 0
        assert singular > 0


def test_rel_transition_identities():
    rng = random.Random(43)
    for p in (3, 5, 7):
        for _ in range(350):
            t = random_deformable_tuple(rng, p)
            a, b, g, d = t
            assert (rel_transition((a, g), (a, g), p) == np.eye(2, dtype=int)).all()
            # chain rule: the left factor's numerator is the right factor's
            # denominator, and the outer pairs survive
            t1 = rel_transition((g, d), (a, b), p)
            t2 = rel_transition((b, a), (g, d), p)
            assert (reference.mat_mul(t1, t2, p) == rel_transition((b, a), (a, b), p)).all()
            xy = rel_transition((a, b), (g, d), p)
            assert (reference.mat_inverse(xy, p) == rel_transition((g, d), (a, b), p)).all()
            # swapping both rows of numerator and denominator changes nothing
            assert (xy == rel_transition((b, a), (d, g), p)).all()


def test_rel_transition_singular_denominator():
    with pytest.raises(SingularDenominatorError):
        rel_transition(((1, 0), (0, 1)), ((1, 1), (2, 2)), 5)


def test_deformability_examples():
    # every nonzero 4-tuple at p = 2 fails
    pairs2 = [(1, 0), (0, 1), (1, 1)]
    for a in pairs2:
        for b in pairs2:
            for g in pairs2:
                for d in pairs2:
                    code = CodeParams(2, a, b, g, d)
                    assert not theorem1_report(code).deformability

    d5 = d5_code()
    assert theorem1_report(d5).deformability
    prods = [symplectic_product(x, y, 5)
             for i, x in enumerate(d5.pairs) for y in d5.pairs[i + 1:]]
    assert prods == [1, 1, 2, 4, 2, 4]

    assert not theorem1_report(CodeParams(5, (1, 0), (0, 1), (1, 1), (1, 1))).deformability


def test_minimal_string_examples():
    assert theorem1_report(d3_code()).minimal_string == (True, True, True)
    # evaluated exactly; frozen after a solver cross-check at width 1
    d5 = d5_code()
    assert theorem1_report(d5).minimal_string == (True, True, True)
    # not defined without deformability
    assert theorem1_report(CodeParams(2, (1, 0), (0, 1), (1, 1), (1, 0))).minimal_string is None


def test_involution_gives_zero_determinant():
    # an involution T = T^-1 makes T - T^-1 vanish identically
    T = np.array([[0, 1], [1, 0]], dtype=np.int64)
    p = 5
    diff = (T - reference.mat_inverse(T, p)) % p
    assert reference.mat_det(diff, p) == 0


def test_pairing_squares_examples():
    assert theorem1_report(d3_code()).squares == (False, False, False)

    d5 = d5_code()
    rpt = theorem1_report(d5)
    flags, detail = rpt.squares, rpt.details["pairing_squares"]
    assert flags == (False, True, True)
    assert detail[0]["pairing"] == "alphabeta|gammadelta"
    assert detail[0]["squares_mod_p"] == (1, 1)      # 1^2 = 4^2 mod 5
    assert detail[0]["distinct_integer"] is True     # 1 != 16 in Z

    # <a,b> = 2 and <g,d> = 3 at p = 7: squares 4 vs 2 differ
    code7 = CodeParams(7, (1, 0), (0, 2), (1, 1), (4, 0))
    assert symplectic_product(code7.alpha, code7.beta, 7) == 2
    assert symplectic_product(code7.gamma, code7.delta, 7) == 3
    assert theorem1_report(code7).squares[0] is True
    assert theorem1_report(code7).details["pairing_squares"][0]["squares_mod_p"] == (4, 2)


def test_theorem1_report_aggregation():
    rpt2 = theorem1_report(CodeParams(2, (1, 0), (0, 1), (1, 1), (1, 0)))
    assert not rpt2.deformability and rpt2.minimal_string is None
    assert rpt2.overall is False

    rpt3 = theorem1_report(d3_code())
    assert rpt3.deformability and all(rpt3.minimal_string)
    assert not all(rpt3.squares) and rpt3.overall is False

    rpt5 = theorem1_report(d5_code())
    assert rpt5.deformability and all(rpt5.minimal_string)
    assert rpt5.squares == (False, True, True)
    kinds = {d["kind"] for d in rpt5.discrepancies}
    assert "condition3-reading-mismatch" in kinds


def test_deformability_invariant_under_group():
    rng = random.Random(47)
    for p in (3, 5):
        gens = [fn for _, fn, bulk in group_generators(p) if not bulk]
        for _ in range(150):
            t = random_deformable_tuple(rng, p)
            g = rng.choice(gens)
            assert theorem1_report(CodeParams(p, *g(t))).deformability


def test_overall_verdict_orbit_invariant_sample():
    rng = random.Random(53)
    for p in (3, 5):
        gens = [fn for _, fn, bulk in group_generators(p) if not bulk]
        for _ in range(100):
            t = random_deformable_tuple(rng, p)
            base = theorem1_report(CodeParams(p, *t)).overall
            u = t
            for _ in range(rng.randrange(1, 5)):
                u = rng.choice(gens)(u)
            assert theorem1_report(CodeParams(p, *u)).overall == base


def test_corner_determinant_check_reference_codes():
    for code in (d3_code(), d5_code()):
        out = corner_determinant_check(code)
        assert out["nonzero"]
        assert {"computed_det", "claimed_det", "match"} <= set(out)


def _corner(fn, code):
    try:
        return fn(code)
    except SingularDenominatorError as exc:
        return str(exc)


def test_corner_determinant_matches_the_block_product():
    # every code at p = 2 and 3 and seeded ones to p = 13, deformable or
    # not; the closed form raises the matrix route's error, message and all
    codes = [CodeParams(p, *t) for p in (2, 3)
             for t in product([c for c in product(range(p), repeat=2) if c != (0, 0)],
                              repeat=4)]
    rng = random.Random(3001)
    codes += [random_code(rng, p) for p in (5, 7, 11, 13) for _ in range(500)]
    seen = set()
    for code in codes:
        got = _corner(corner_determinant_check, code)
        assert got == _corner(reference.corner_determinant_by_matrices, code), code
        if isinstance(got, str):
            seen.add("raises")
            continue
        a, b, g, d = code.pairs
        w02, w03 = symplectic_product(a, g, code.p), symplectic_product(a, d, code.p)
        if w03:
            assert got["match"] == (pow(w02, 3, code.p) == 1), code
        seen.add((theorem1_report(code).deformability, w03 != 0, got["match"]))
    assert seen >= {"raises", (False, True, True), (False, True, False),
                    (True, True, True), (True, True, False), (False, False, True)}


def test_minimal_string_determinants_are_recorded():
    d3 = d3_code()
    dets = reference.minimal_string_determinants_by_matrices(d3)
    assert len(dets) == 3 and all(0 <= d < 3 for d in dets)
    rpt = theorem1_report(d3)
    assert rpt.details["width1_determinants"] == dets


def test_theorem1_matches_matrix_route_on_orbit_representatives():
    for p in (3, 5, 7, 11, 13):
        for entry in classify_orbits(p)["orbits"]:
            code = CodeParams(p, *(tuple(x) for x in entry["representative"]))
            want = cli._dumps(reference.theorem1_report_by_matrices(code).as_dict())
            assert cli._dumps(theorem1_report(code).as_dict()) == want, (p, code)
            assert cli._dumps(entry["theorem1"]) == want, (p, code)


def test_theorem1_matches_matrix_route_on_random_tuples():
    rng = random.Random(2401)
    deformable = 0
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(600):
            code = random_code(rng, p)
            got = theorem1_report(code)
            want = reference.theorem1_report_by_matrices(code)
            assert cli._dumps(got.as_dict()) == cli._dumps(want.as_dict()), code
            assert got == want, code
            deformable += got.deformability
    assert 0 < deformable < 3600


def _outcome(fn, code):
    try:
        return fn(code)
    except (SingularDenominatorError, reference.SingularMatrixError) as exc:
        return type(exc)


def test_determinants_match_the_matrix_route():
    # the closed form reads the determinants exactly when all six W are
    # nonzero, and then equals the matrix route; elsewhere that route
    # raises on a proportional denominator or a singular T, or returns a
    # list, and the report carries none
    codes = [CodeParams(p, *t) for p in (2, 3)
             for t in product([c for c in product(range(p), repeat=2) if c != (0, 0)],
                              repeat=4)]
    rng = random.Random(2402)
    codes += [random_code(rng, p) for p in (5, 7, 11, 13) for _ in range(500)]
    seen = set()
    for code in codes:
        want = _outcome(reference.minimal_string_determinants_by_matrices, code)
        got = theorem1_report(code).details["width1_determinants"]
        pairs = code.pairs
        all_w = all(symplectic_product(pairs[i], pairs[j], code.p)
                    for i in range(4) for j in range(i + 1, 4))
        assert got == (want if all_w else None), code
        seen.add((all_w, want if isinstance(want, type) else list))
    assert seen == {(True, list), (False, list), (False, SingularDenominatorError),
                    (False, reference.SingularMatrixError)}
