"""Orbit classification of deformable parameter tuples.

Two codes are equivalent when their defining tuples are related by a
permutation of (alpha, beta, gamma, delta), by a common left action of
SL(2, p), or by a common nonzero scalar.  Negating every pair maps a
symmetric code to the antisymmetric one on the same tuple; it is valid
in the bulk and at even lengths only, so it is left out of fixed-parity
orbits (where it is redundant anyway, since -I lies in SL(2, p)).

SL(2, p) acts freely on deformable tuples, since alpha and beta are not
proportional.  So each SL(2, p) class has exactly one normal form with
alpha = (0, 1) and beta = (-<alpha, beta>, 0), read off from the
symplectic products, and an orbit is the union of the classes of its
permuted and scaled copies.  Orbits are named by their lexicographically
least member, which is the least of those normal forms, and counted
without enumerating tuples.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .codes import CodeParams, Pair, symplectic_product
from .conditions import theorem1_report
from .fp import check_prime, fp_inv
from .oracle import check_scan_bounds, scan_codes

Tuple4 = tuple[Pair, Pair, Pair, Pair]

# Largest modulus ``classify_orbits`` accepts: its ``seen`` set ends up
# holding all (p-1)^4 (p-2) normal forms, 4.9 M and gigabytes at p = 23.
MAX_CLASSIFY_MODULUS = 19


def _normal_form(t: Tuple4, p: int) -> Tuple4:
    """The unique SL(2, p)-image of ``t`` with alpha = (0, 1), beta = (-w, 0).

    With w = <alpha, beta>, the image of a pair v is
    (-<alpha, v>, -<beta, v> / w), because SL(2, p) preserves the
    symplectic product.  Requires w != 0.
    """
    a, b = t[0], t[1]
    w_inv = fp_inv(symplectic_product(a, b, p), p)
    return tuple(((-symplectic_product(a, v, p)) % p,
                  (-symplectic_product(b, v, p) * w_inv) % p) for v in t)


def _orbit_normal_forms(t: Tuple4, p: int) -> set[Tuple4]:
    """Normal forms of the SL(2, p) classes that make up the orbit of ``t``.

    These are the normal forms of c * sigma(t) over the 24 permutations
    sigma and the scalars c.  Scaling by c multiplies every symplectic
    product by c^2, so it multiplies the first coordinates of the normal
    form by c^2 and leaves the second ones alone.
    """
    if any(symplectic_product(u, v, p) == 0 for u, v in combinations(t, 2)):
        raise ValueError(f"tuple {t} is not deformable mod {p}")
    squares = {c * c % p for c in range(1, p)}
    forms = [_normal_form(s, p) for s in permutations(t)]
    return {tuple(((q * x) % p, y) for x, y in nf) for nf in forms for q in squares}


def classify_orbits(p: int, parity: str = "S") -> dict:
    """Partition the deformable tuples at modulus p into equivalence orbits.

    Walks the normal forms alpha = (0, 1), beta = (-w, 0), gamma and delta
    with both coordinates nonzero and not proportional, one orbit at a
    time; there are (p-1)^4 (p-2) of them.  SL(2, p) acts freely, so each
    normal form stands for p(p^2 - 1) tuples.  Attaches the
    three-condition report of each orbit representative for the
    requested parity.  Refuses p > ``MAX_CLASSIFY_MODULUS``.
    """
    p = check_prime(p)
    if p > MAX_CLASSIFY_MODULUS:
        raise ValueError(f"classification is limited to p <= {MAX_CLASSIFY_MODULUS}, "
                         f"got p = {p}")
    sl2_order = p * (p * p - 1)
    units = range(1, p)
    mixed = [(x, y) for x in units for y in units]
    forms = (((0, 1), (p - w, 0), g, d) for w in units for g in mixed for d in mixed
             if symplectic_product(g, d, p))
    seen: set[Tuple4] = set()
    orbits: dict[Tuple4, int] = {}
    for t in forms:
        if t in seen:
            continue
        members = _orbit_normal_forms(t, p)
        seen |= members
        orbits[min(members)] = len(members) * sl2_order
    entries = []
    for canon in sorted(orbits):
        rep = CodeParams(p, *canon, parity=parity)
        rpt = theorem1_report(rep)
        entries.append({
            "representative": [list(x) for x in canon],
            "orbit_size": orbits[canon],
            "theorem1": rpt.as_dict(),
            "parity_note": "symmetric and antisymmetric codes on this tuple are "
                           "bulk/even-length equivalent",
        })
    return {
        "p": p,
        "parity": parity,
        "deformable_count": (p - 1) ** 4 * (p - 2) * sl2_order,
        "orbit_count": len(orbits),
        "orbits": entries,
    }


def scan_theorem1(report: dict, oracle_wmax: int = 2) -> dict:
    """Split orbit representatives by the literal three-condition verdict.

    ``report`` is a ``classify_orbits`` report; its modulus and parity
    are the scan's.  Returns the representatives passing all three
    conditions and, as the operationally meaningful list, those passing
    conditions 1 and 2 whose string bound max length <= 2w is confirmed
    by the segment solver up to width ``oracle_wmax``, which must lie in
    1..``oracle.MAX_STRIP_WIDTH``.

    The solver runs once per width over all representatives still in the
    list (``oracle.scan_codes``), not once per representative.
    """
    check_scan_bounds(oracle_wmax)
    p, parity = report["p"], report["parity"]
    literal_pass = []
    candidates = []
    for entry in report["orbits"]:
        t1 = entry["theorem1"]
        if t1["overall"]:
            literal_pass.append(entry["representative"])
        if t1["deformability"] and t1["minimal_string"] and all(t1["minimal_string"]):
            candidates.append(entry["representative"])
    codes = [CodeParams(p, *(tuple(x) for x in rep), parity=parity) for rep in candidates]
    # the max lengths of each candidate still passing, by its index
    passing = {i: {} for i in range(len(codes))}
    for w in range(1, oracle_wmax + 1):
        live = list(passing)
        for i, lengths in zip(live, scan_codes([codes[i] for i in live], w)):
            passing[i].update((f"{kind}-w{w}", m) for kind, m in lengths.items())
            if any(m is not None and m > 2 * w for m in lengths.values()):
                del passing[i]
    return {
        "p": p,
        "orbit_count": report["orbit_count"],
        "deformable_count": report["deformable_count"],
        "literal_pass": literal_pass,
        "cond12_oracle_pass": [{"representative": candidates[i], "oracle_max_lengths": widths}
                               for i, widths in passing.items()],
    }
