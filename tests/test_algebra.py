"""Exact phase algebra: products, projectors, inversion action."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest

from qupitcube import algebra
from qupitcube.algebra import (
    NotOrderPError,
    PhasedPauli,
    PowerTable,
    generator_pauli,
    verify_commutation_law,
)
from qupitcube.reference import (
    OperatorSum,
    add_monomial,
    build_projector,
    commutator_exponent,
    inversion_conjugate,
    op_add,
    op_is_zero,
    op_mul,
    operator_identity,
    pauli_from_config,
    pauli_inverse,
    pauli_mul,
    pauli_power,
    verify_inversion_action_by_sums,
    verify_projector_identities_by_sums,
)
from qupitcube.reference import commutation_exponent as config_commutation
from qupitcube.codes import (
    CodeParams,
    InvalidCenterError,
    PauliConfig,
    d3_code,
    d5_code,
    generator_config,
)

ONE_SITE = ((0, 0, 0),)
P7_CODE = CodeParams(7, (1, 0), (0, 1), (1, 1), (3, 5), "A")


def _x(p):
    return PhasedPauli(p, ONE_SITE, (1,), (0,))


def _z(p):
    return PhasedPauli(p, ONE_SITE, (0,), (1,))


def test_pauli_mul_normal_ordering():
    p = 3
    xz = pauli_mul(_x(p), _z(p))
    assert (xz.x, xz.z, xz.phase) == ((1,), (1,), 0)   # already normal ordered

    # the commutation law X Z = Z X omega forces Z X = omega^-1 X Z
    zx = pauli_mul(_z(p), _x(p))
    assert (zx.x, zx.z, zx.phase) == ((1,), (1,), p - 1)

    u = PhasedPauli(p, ONE_SITE, (2,), (1,), 1)
    assert pauli_mul(u, pauli_inverse(u)).is_identity()


def test_commutation_law_is_exact():
    # S_a S_b = S_b S_a omega^<a,b>, checked monomial by monomial
    for p in (3, 5, 7):
        assert verify_commutation_law(p)
    p = 3
    x, z = _x(p), _z(p)
    assert commutator_exponent(x, z) == 1
    lhs = pauli_mul(x, z)
    rhs = pauli_mul(z, x)
    assert lhs == PhasedPauli(p, ONE_SITE, rhs.x, rhs.z, (rhs.phase + 1) % p)
    assert commutator_exponent(x, x) == 0


def test_commutator_matches_configuration_computation():
    rng = random.Random(73)
    for _ in range(1000):
        p = rng.choice((3, 5))
        dims = (2, 2, 2)
        sites = tuple(product(range(2), repeat=3))
        a = PauliConfig(p, dims)
        b = PauliConfig(p, dims)
        for _ in range(rng.randrange(1, 5)):
            a.add(tuple(rng.randrange(2) for _ in range(3)),
                  (rng.randrange(p), rng.randrange(p)))
            b.add(tuple(rng.randrange(2) for _ in range(3)),
                  (rng.randrange(p), rng.randrange(p)))
        ua, ub = pauli_from_config(a, sites), pauli_from_config(b, sites)
        assert commutator_exponent(ua, ub) == config_commutation(a, b)


def test_generator_commutators_cross_module():
    code = d5_code("A")
    dims = (4, 4, 4)
    sites = tuple(product(range(4), repeat=3))
    g0 = generator_config(code, (0, 0, 0), dims)
    g1 = generator_config(code, (1, 1, 0), dims)
    assert commutator_exponent(pauli_from_config(g0, sites),
                               pauli_from_config(g1, sites)) == 0


def test_pauli_power_examples():
    p = 5
    xz = pauli_mul(_x(p), _z(p))
    assert pauli_power(xz, 5).is_identity()     # binomial phase p(p-1)/2 = 0 mod p
    u = PhasedPauli(p, ONE_SITE, (3,), (2,), 4)
    assert pauli_power(u, 0).is_identity()
    assert pauli_power(u, 1) == u


def test_pauli_mul_associative():
    rng = random.Random(79)
    sites = ((0, 0, 0), (0, 0, 1))
    for _ in range(200):
        p = rng.choice((3, 5))
        ops = [PhasedPauli(p, sites,
                           (rng.randrange(p), rng.randrange(p)),
                           (rng.randrange(p), rng.randrange(p)),
                           rng.randrange(p)) for _ in range(3)]
        assert pauli_mul(pauli_mul(ops[0], ops[1]), ops[2]) == \
            pauli_mul(ops[0], pauli_mul(ops[1], ops[2]))


def _sum(p, sites, *terms):
    out = OperatorSum(p, sites)
    for mono, coeff in terms:
        add_monomial(out, mono, coeff)
    return out


def test_cyclotomic_reduction():
    # the two relations of Q(omega), through phase-only operator sums
    for p in (3, 5):
        def omega(k):
            return PhasedPauli(p, ONE_SITE, (0,), (0,), k)
        # omega * omega^(p-1) = omega^p = 1
        prod = op_mul(_sum(p, ONE_SITE, (omega(1), 1)), _sum(p, ONE_SITE, (omega(p - 1), 1)))
        assert prod == operator_identity(p, ONE_SITE)
        # 1 + omega + ... + omega^(p-1) = 0, although every term is nonzero
        total = _sum(p, ONE_SITE, *((omega(c), 1) for c in range(p)))
        assert len(total.terms) == p
        assert op_is_zero(total)
        assert total == OperatorSum(p, ONE_SITE)


def _dense(op: OperatorSum) -> np.ndarray:
    """The operator sum as a p^n x p^n complex matrix, with Z X = omega^-1 X Z."""
    p = op.p
    w = np.exp(2j * np.pi / p)
    X = np.roll(np.eye(p), -1, axis=0)          # X|j> = |j-1>
    Z = np.diag(w ** np.arange(p))
    assert np.allclose(Z @ X, X @ Z / w)
    out = np.zeros((p ** len(op.sites),) * 2, dtype=complex)
    for (x, z, phase), n in op.terms.items():
        term = np.eye(1)
        for a, b in zip(x, z):
            term = np.kron(term, np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b))
        out += n / op.den * w ** phase * term
    return out


def _random_sum(rng, p, sites, n_terms):
    return _sum(p, sites, *(
        (PhasedPauli(p, sites, tuple(rng.randrange(p) for _ in sites),
                     tuple(rng.randrange(p) for _ in sites), rng.randrange(p)),
         Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)))
        for _ in range(n_terms)))


def test_operator_sums_match_dense_matrices():
    rng = random.Random(89)
    two_sites = ((0, 0, 0), (0, 1, 0))
    for p, site_sets in ((3, (ONE_SITE, two_sites)), (5, (ONE_SITE, two_sites)),
                         (7, (ONE_SITE,))):
        for sites in site_sets:
            for _ in range(15):
                a = _random_sum(rng, p, sites, rng.randrange(1, 6))
                b = _random_sum(rng, p, sites, rng.randrange(1, 6))
                assert np.allclose(_dense(op_mul(a, b)), _dense(a) @ _dense(b))
                assert (a == b) == np.allclose(_dense(a), _dense(b))
                # a plus a multiple of (1 + omega + ... + omega^(p-1)) M is a
                mono = PhasedPauli(p, sites, tuple(rng.randrange(p) for _ in sites),
                                   tuple(rng.randrange(p) for _ in sites))
                zero = _sum(p, sites, *((replace(mono, phase=c), Fraction(2, 3))
                                        for c in range(p)))
                assert op_is_zero(zero) and np.allclose(_dense(zero), 0)
                shifted = op_add(a, zero)
                assert shifted.terms != a.terms
                assert shifted == a and np.allclose(_dense(shifted), _dense(a))
                diff = op_add(a, _sum(p, sites, *((PhasedPauli(p, sites, *key), Fraction(-n, b.den))
                                                   for key, n in b.terms.items())))
                assert op_is_zero(diff) == np.allclose(_dense(diff), 0) == (a == b)


def _fractions(op):
    """The terms as Fractions, each numerator over the sum's denominator."""
    return {key: Fraction(n, op.den) for key, n in op.terms.items()}


def _fraction_product(a, b):
    """Reference product: one Fraction product and sum per term pair."""
    out = {}
    for u, cu in _fractions(a).items():
        for v, cv in _fractions(b).items():
            key = pauli_mul(PhasedPauli(a.p, a.sites, *u), PhasedPauli(a.p, a.sites, *v)).key()
            out[key] = out.get(key, 0) + cu * cv
    return {key: c for key, c in out.items() if c}


def _fraction_canonical(op):
    """Reference canonical form, summed in Fractions."""
    p = op.p
    gathered = {}
    for (x, z, phase), coeff in _fractions(op).items():
        gathered.setdefault((x, z), [Fraction(0)] * p)[phase] += coeff
    out = {}
    for mono, vec in gathered.items():
        reduced = tuple(c - vec[p - 1] for c in vec[:p - 1])
        if any(reduced):
            out[mono] = reduced
    return out


def _mixed_sum(rng, p, sites, n_terms, dens=range(1, 5)):
    # few distinct monomials, so keys collide and numerators cancel
    monos = [(tuple(rng.randrange(p) for _ in sites), tuple(rng.randrange(p) for _ in sites))
             for _ in range(3)]
    return _sum(p, sites, *(
        (PhasedPauli(p, sites, *rng.choice(monos), rng.randrange(p)),
         Fraction(rng.randrange(-4, 5), rng.choice(dens)))
        for _ in range(n_terms)))


def _scaled(op, k):
    out = OperatorSum(op.p, op.sites)
    out.den = op.den * k
    out.terms = {key: n * k for key, n in op.terms.items()}
    return out


def test_integer_products_and_canonical_forms_match_fractions():
    rng = random.Random(97)
    for p in (3, 5, 7, 11):
        for sites in (ONE_SITE, ((0, 0, 0), (1, 0, 0))):
            for _ in range(20):
                a = _mixed_sum(rng, p, sites, rng.randrange(0, 8))
                b = _mixed_sum(rng, p, sites, rng.randrange(0, 8))
                # coprime denominators, mixed within one sum and across two
                c = _mixed_sum(rng, p, sites, rng.randrange(1, 8), dens=(3, 7, 10, 11))
                d = _mixed_sum(rng, p, sites, rng.randrange(1, 8), dens=(13,))
                prod = op_mul(a, b)
                assert _fractions(prod) == _fraction_product(a, b)
                fc, fd = _fractions(c), _fractions(d)
                total = {key: fc.get(key, 0) + fd.get(key, 0) for key in fc.keys() | fd.keys()}
                assert _fractions(op_add(c, d)) == {key: coeff for key, coeff in total.items() if coeff}
                for op in (a, b, prod, op_add(a, b), c, d, op_add(c, d), op_mul(c, d)):
                    assert type(op.den) is int and op.den > 0
                    assert all(type(n) is int and n for n in op.terms.values())
                    den, form = op.canonical()
                    assert den > 0 and gcd(den, *(n for vec in form.values() for n in vec)) == 1
                    assert all(type(n) is int for vec in form.values() for n in vec)
                    assert {mono: tuple(Fraction(n, den) for n in vec)
                            for mono, vec in form.items()} == _fraction_canonical(op)
                    for k in (2, 3, p):
                        scaled = _scaled(op, k)
                        assert scaled.canonical() == (den, form)
                        assert scaled == op and op_is_zero(scaled) == op_is_zero(op)


def test_projector_checks_form_p_squared_monomial_products(monkeypatch):
    # the projectors' terms pair up p^4 times, but only the p^2 monomial
    # pairs s^m s^k occur: after one call of the product rule builds the
    # power table, one array call forms all p^2, and the projector and
    # inversion verdicts read the table's counts without forming more
    calls = []
    rule = algebra._monomial_mul

    def counted(u, v, p):
        out = rule(u, v, p)
        calls.append(np.shape(out[0])[:-1])  # the shape of the product table
        return out

    monkeypatch.setattr(algebra, "_monomial_mul", counted)
    for p, code in ((3, d3_code("A")), (5, d5_code("S")), (7, P7_CODE),
                    (11, replace(P7_CODE, p=11, parity="S")), (31, replace(P7_CODE, p=31))):
        calls.clear()
        table = algebra.PowerTable(code)
        assert calls == [(p,), (p, p)]
        calls.clear()
        assert table.projector_identities() == {
            "idempotent": True, "orthogonal": True, "complete": True}
        for r in range(p):
            assert table.inversion_action(r)["matches"]
        assert calls == []
        # each new table forms its powers and products again
        assert PowerTable(code).projector_identities()["complete"]
        assert PowerTable(code).inversion_action(r=1)["matches"]
        assert calls == [(p,), (p, p)] * 2
    # tables share nothing: one built after the others forms its own
    calls.clear()
    PowerTable(d3_code("S")).projector_identities()
    assert calls == [(3,), (3, 3)]


def _broken_rules():
    """Product rules and power tables that are wrong, by name.

    Negating or dropping the phase leaves a twisted group algebra, in
    which the projectors are still projectors; a cubed phase breaks
    associativity, and a power table that starts at s instead of 1
    breaks idempotence and completeness.
    """
    rule, powers = algebra._monomial_mul, algebra._powers

    def with_phase(f):
        def wrong(u, v, p):
            x, z, c = rule(u, v, p)
            return (x, z, f(c, p))
        return wrong

    def off_by_one(s):
        return tuple(np.roll(column, -1, axis=0) for column in powers(s))

    return {
        "phase -c": ("_monomial_mul", with_phase(lambda c, p: -c % p)),
        "phase dropped": ("_monomial_mul", with_phase(lambda c, p: 0)),
        "phase cubed": ("_monomial_mul", with_phase(lambda c, p: c ** 3 % p)),
        "powers from s": ("_powers", off_by_one),
    }


def test_batched_projector_checks_match_operator_sums(monkeypatch):
    # the count-array verdicts against the term-pair operator sums, under
    # the real product rule (every verdict true) and under broken ones
    rng = random.Random(101)
    codes = [d3_code(parity) for parity in "SA"] + [d5_code(parity) for parity in "SA"]
    # the broken rules see each random tuple in one parity, which bounds
    # the time the oracle's p^4 term pairs take
    some_codes = list(codes)
    for p in (3, 5, 7, 11, 13):
        for i in range(10):
            pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(4)]
            pairs = [pair if any(pair) else (1, 0) for pair in pairs]
            codes += [CodeParams(p, *pairs, parity) for parity in "SA"]
            some_codes.append(codes[-1 - i % 2])
    for code in codes:
        out = PowerTable(code).projector_identities()
        assert out == verify_projector_identities_by_sums(code)
        assert out == {"idempotent": True, "orthogonal": True, "complete": True}
    verdicts = set()
    for name, (attr, broken) in _broken_rules().items():
        with monkeypatch.context() as m:
            m.setattr(algebra, attr, broken)
            for code in some_codes:
                out = PowerTable(code).projector_identities()
                assert out == verify_projector_identities_by_sums(code), (name, code)
                verdicts.update(out.items())
    assert verdicts == {(key, value) for key in ("idempotent", "orthogonal", "complete")
                        for value in (True, False)}


def test_inversion_verdicts_match_operator_sums(monkeypatch):
    # the verdict read off the power table's counts against the conjugated
    # operator sum, for every label r, under the real product rule and
    # under broken ones
    rng = random.Random(103)
    codes = [d3_code(parity) for parity in "SA"] + [d5_code(parity) for parity in "SA"]
    for p in (3, 5, 7, 11, 13, 31):
        for _ in range(2):
            pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(4)]
            pairs = [pair if any(pair) else (0, 1) for pair in pairs]
            codes += [CodeParams(p, *pairs, parity) for parity in "SA"]
    matches = set()
    for name, (attr, broken) in [("real rule", (None, None)), *_broken_rules().items()]:
        with monkeypatch.context() as m:
            if broken is not None:
                m.setattr(algebra, attr, broken)
            for code in codes:
                table = algebra.PowerTable(code)
                for r in range(code.p):
                    out = table.inversion_action(r)
                    assert out == verify_inversion_action_by_sums(code, r), (name, code, r)
                    assert out == PowerTable(code).inversion_action(r)
                    matches.add(out["matches"])
                    if broken is None:
                        assert out["matches"]
    assert matches == {True, False}


def test_commutation_law_is_computed_once_per_process(monkeypatch):
    rule = algebra._monomial_mul
    calls = []

    def counted(u, v, p):
        calls.append(p)
        return rule(u, v, p)

    def wrong(u, v, p):  # phase +z.x' in place of -z.x'
        x, z, c = rule(u, v, p)
        return (x, z, -c % p)

    verify_commutation_law.cache_clear()
    try:
        monkeypatch.setattr(algebra, "_monomial_mul", counted)
        assert verify_commutation_law(5)
        formed = len(calls)
        assert formed > 0
        assert verify_commutation_law(5) and len(calls) == formed
        monkeypatch.setattr(algebra, "_monomial_mul", wrong)
        assert verify_commutation_law(5)  # the verdict computed above
        verify_commutation_law.cache_clear()
        assert not verify_commutation_law(5)
        assert not verify_commutation_law(7, trials=50, seed=3)
    finally:
        verify_commutation_law.cache_clear()


def test_commutation_law_rejects_bad_moduli():
    for p in (2, 9, 37):
        with pytest.raises(ValueError):
            verify_commutation_law(p)
    with pytest.raises(ValueError, match="p <= 31"):
        PowerTable(replace(P7_CODE, p=37)).projector_identities()


def test_commutation_law_refuses_no_trials():
    # zero trials would pass without forming one product
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials >= 1"):
            verify_commutation_law(5, trials=trials)
    assert verify_commutation_law(5, trials=1)


def test_commutation_law_refuses_trials_that_are_not_integers():
    # range() and reshape() inside would raise a TypeError on these; and a
    # verdict cached for trials=1 must not answer trials=True
    assert verify_commutation_law(5, trials=1)
    for trials in (1.5, True, "3", 2.0):
        with pytest.raises(ValueError, match="integer trials >= 1"):
            verify_commutation_law(5, trials=trials)
    assert verify_commutation_law(5, trials=np.int64(3))


def test_inversion_action_refuses_labels_that_are_not_integers():
    # numpy would read True as a mask and report a false violation
    table = PowerTable(d5_code())
    for r in (True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match="must be an integer"):
            table.inversion_action(r)
    assert table.inversion_action(np.int64(2)) == table.inversion_action(2)
    assert table.inversion_action(2)["matches"]


def test_projector_canonical_form():
    # P(XZ, 2) at p = 3, with (XZ)^2 = omega^-1 X^2 Z^2:
    # (1/3)(1 + omega^2 XZ + omega^4 omega^-1 X^2 Z^2)
    #   = (1/3)(1 + (-1 - omega) XZ + X^2 Z^2)
    p = 3
    P = build_projector(PhasedPauli(p, ONE_SITE, (1,), (1,)), 2)
    assert P.den == 3 and set(P.terms.values()) == {1}
    assert P.canonical() == (3, {
        ((0,), (0,)): (1, 0),
        ((1,), (1,)): (-1, -1),
        ((2,), (2,)): (1, 0),
    })


def test_projector_identities_reference_codes():
    for parity in "SA":
        out = PowerTable(d3_code(parity)).projector_identities()
        assert out == {"idempotent": True, "orthogonal": True, "complete": True}


def test_projector_sum_is_identity():
    code = d3_code("S")
    s = generator_pauli(code)
    total = build_projector(s, 0)
    for r in (1, 2):
        total = op_add(total, build_projector(s, r))
    assert total == operator_identity(3, s.sites)


def test_operator_sum_canonical_equality():
    p = 3
    sites = ONE_SITE
    a = OperatorSum(p, sites)
    add_monomial(a, _x(p), Fraction(1, 2))
    add_monomial(a, _z(p))
    add_monomial(a, _x(p), Fraction(1, 2))
    b = OperatorSum(p, sites)
    add_monomial(b, _z(p))
    add_monomial(b, _x(p))
    assert a == b
    add_monomial(b, _x(p), Fraction(-1))
    add_monomial(b, _x(p))
    assert a == b


def test_inversion_action_examples():
    assert PowerTable(d3_code("S")).inversion_action(r=1)["matches"]
    out = PowerTable(d3_code("A")).inversion_action(r=1)
    assert out["expected_r"] == 2 and out["matches"]
    out0 = PowerTable(d3_code("A")).inversion_action(r=0)
    assert out0["expected_r"] == 0 and out0["matches"]


def test_inversion_conjugate_is_permutation_only():
    code = d3_code("A")
    s = generator_pauli(code)
    P = build_projector(s, 1)
    conj = inversion_conjugate(P, (0.5, 0.5, 0.5))
    assert conj.den == P.den
    assert sorted(conj.terms.values()) == sorted(P.terms.values())
    with pytest.raises(InvalidCenterError, match="centre component 0.3 is not a half-integer"):
        inversion_conjugate(P, (0.3, 0.5, 0.5))


def test_inversion_conjugate_rejects_centres_off_the_cube():
    # the generator lives on the eight cube sites; only the cube centre
    # maps them onto themselves
    P = build_projector(generator_pauli(d5_code("A")), 1)
    for center in ((1.5, 0.5, 0.5), (0, 0, 0), (0.5, 0.5, 1)):
        with pytest.raises(InvalidCenterError, match="onto themselves"):
            inversion_conjugate(P, center)


def test_p5_runs_without_guard():
    # no size guard: p = 5 needs no opt-in
    code = d5_code("S")
    assert PowerTable(code).projector_identities() == {
        "idempotent": True, "orthogonal": True, "complete": True}
    s = generator_pauli(code)
    P = build_projector(s, 0)
    assert op_mul(P, P) == P


def test_rejects_even_modulus():
    with pytest.raises(ValueError):
        PhasedPauli(2, ONE_SITE, (1,), (0,))
    with pytest.raises(ValueError):
        OperatorSum(2, ONE_SITE)


def test_monomials_always_have_order_p():
    # at odd p the accumulated normal-ordering phase over p factors is
    # p(p-1)/2 * (z . x) = 0 mod p, so NotOrderPError stays a guard rail
    rng = random.Random(83)
    for _ in range(100):
        p = rng.choice((3, 5, 7))
        u = PhasedPauli(p, ONE_SITE, (rng.randrange(p),), (rng.randrange(p),),
                        rng.randrange(p))
        assert pauli_power(u, p).is_identity()
    assert isinstance(NotOrderPError("x"), ValueError)


def test_power_tables_that_do_not_close_are_refused(monkeypatch):
    # one call of the product rule gives every s^m s; each must land on the
    # next row, and the phases must sum to zero at s^p
    rule = algebra._monomial_mul
    u = PhasedPauli(5, ONE_SITE, (1,), (2,), 3)
    x, z, c = algebra._powers(u)
    assert (x.tolist(), z.tolist()) == ([[0], [1], [2], [3], [4]], [[0], [2], [4], [1], [3]])
    assert [pauli_power(u, m).phase for m in range(5)] == c.tolist()

    def exponent_moved(a, b, p):
        x, z, c = rule(a, b, p)
        return (x + 1) % p, z, c

    def extra_phase(a, b, p):  # one more omega where the rule's phase is 0
        x, z, c = rule(a, b, p)
        return x, z, c + (c == 0)

    for broken in (exponent_moved, extra_phase):
        monkeypatch.setattr(algebra, "_monomial_mul", broken)
        with pytest.raises(NotOrderPError):
            algebra._powers(u)
        with pytest.raises(NotOrderPError):
            build_projector(u, 1)
