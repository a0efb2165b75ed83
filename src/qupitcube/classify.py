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
least member, which is the least of those normal forms.  One array pass
keys every normal form by its orbit's least member, read off from its
six symplectic products, and the orbits are counted from those keys.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .codes import CodeParams
from .conditions import theorem1
from .fp import check_prime, fp_inv
from .oracle import check_scan_bounds, has_long_segment, scan_codes

# Bytes of normal forms that ``_orbit_counts`` keys at once, at about 200
# bytes of int64 products and keys per form: p <= 7 is one chunk.  In a
# fresh interpreter on a 2-core x86_64 VM, classify_orbits(17) takes 0.38 s
# at 54 MB peak RSS and classify_orbits(19) 0.67 s at 69 MB, about half of
# it these keys and half the theorem-1 reports.
MAX_KEY_BYTES = 8 * 2**20

# Largest modulus ``classify_orbits`` accepts: at p = 19 its keys take
# 14 MB, and its report holds 8,286 orbits in 18 MB of JSON.
MAX_CLASSIFY_MODULUS = 19


def _orbit_counts(p: int) -> np.ndarray:
    """Normal forms per orbit, indexed by the key of the orbit's least member.

    The normal form ((0, 1), (x1, 0), (x2, y2), (x3, y3)) has the key
    x1 p^4 + X2 p^2 + X3 with pair keys Xv = xv p + yv, so keys order
    like tuples.  With W the symplectic products of a normal form, that
    of c sigma(t) is ((0, 1), (-q W'01, 0), (-q W'0v, -W'1v / W'01) for
    v = 2, 3), W' = W permuted by sigma and q = c^2.  For each of the 12
    ordered pairs sigma(0), sigma(1), the least over q minimises -q W'01
    alone, and the least over the order of the last two pairs puts the
    smaller pair key first.  The key of the orbit is the least over the
    12.  Every product is nonzero, so W'ji = p - W'ij.
    """
    units, r = np.arange(1, p), np.arange(p)
    squares = sorted({c * c % p for c in range(1, p)})
    q = np.array([0] + [min(squares, key=lambda s: s * x % p) for x in range(1, p)])
    inv = np.array([0] + [fp_inv(-x, p) for x in range(1, p)])
    # the pair key of v at ((W'10 p + W'v0) p + W'v1), and p^2 times beta'
    pair_key = ((q[:, None, None] * r[:, None] % p) * p
                + r * inv[:, None, None] % p).ravel()
    lead = (q * r % p) * p**2
    g0, g1, d0, d1 = (a.ravel() for a in np.meshgrid(units, units, units, units,
                                                     indexing="ij"))
    g_d = (g0 * d1 - g1 * d0) % p
    g0, g1, d0, d1, g_d = (a[g_d != 0] for a in (g0, g1, d0, d1, g_d))
    keys = np.empty((p - 1) * len(g_d), dtype=np.int64)
    step = MAX_KEY_BYTES // 200
    for lo in range(0, len(keys), step):
        w, n = np.divmod(np.arange(lo, min(lo + step, len(keys))), len(g_d))
        w += 1
        W = {(0, 1): w, (0, 2): p - g0[n], (0, 3): p - d0[n],
             (1, 2): (p - w) * g1[n] % p, (1, 3): (p - w) * d1[n] % p, (2, 3): g_d[n]}
        W.update({(j, i): p - v for (i, j), v in W.items()})
        least = p**5
        for a, b in permutations(range(4), 2):
            X, Y = (pair_key[(W[b, a] * p + W[v, a]) * p + W[v, b]]
                    for v in range(4) if v not in (a, b))
            least = np.minimum(least, (lead[W[b, a]] + np.minimum(X, Y)) * p**2
                               + np.maximum(X, Y))
        keys[lo:lo + step] = least
    return np.bincount(keys)


def classify_orbits(p: int, parity: str = "S") -> dict:
    """Partition the deformable tuples at modulus p into equivalence orbits.

    Keys each normal form alpha = (0, 1), beta = (-w, 0), gamma and delta
    (both coordinates nonzero, gamma and delta not proportional; there are
    (p-1)^4 (p-2) of them) by its orbit's least member in one array pass
    (``_orbit_counts``), and counts them per key.  SL(2, p) acts freely,
    so each normal form stands for p(p^2 - 1) tuples.  Attaches the
    three-condition report of each orbit representative,
    ``conditions.theorem1`` of its pairs.  That report does not depend on
    ``parity`` today: both parities get the same entry (ROADMAP item 1).
    Refuses p > ``MAX_CLASSIFY_MODULUS`` and a parity other than "S" or "A".
    """
    p = check_prime(p)
    if p > MAX_CLASSIFY_MODULUS:
        raise ValueError(f"classification is limited to p <= {MAX_CLASSIFY_MODULUS}, "
                         f"got p = {p}")
    if parity not in ("S", "A"):
        raise ValueError(f"parity must be 'S' or 'A', got {parity!r}")
    sl2_order = p * (p * p - 1)
    counts = _orbit_counts(p)
    entries = []
    for key in np.flatnonzero(counts).tolist():
        b, X, Y = key // p**4, key // p**2 % p**2, key % p**2
        canon = ((0, 1), (b, 0), divmod(X, p), divmod(Y, p))
        entries.append({
            "representative": [list(x) for x in canon],
            "orbit_size": int(counts[key]) * sl2_order,
            "theorem1": theorem1(canon, p).as_dict(),
            "parity_note": "symmetric and antisymmetric codes on this tuple are "
                           "bulk/even-length equivalent",
        })
    return {
        "p": p,
        "parity": parity,
        "deformable_count": (p - 1) ** 4 * (p - 2) * sl2_order,
        "orbit_count": len(entries),
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

    The solver runs over all representatives at once (``oracle.scan_codes``),
    not once per representative, and drops each after the run of widths in
    which it first has a segment longer than 2w.
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
    lengths = scan_codes(codes, range(1, oracle_wmax + 1))
    return {
        "p": p,
        "orbit_count": report["orbit_count"],
        "deformable_count": report["deformable_count"],
        "literal_pass": literal_pass,
        "cond12_oracle_pass": [
            {"representative": rep,
             "oracle_max_lengths": {f"{kind}-w{w}": m for w, by_kind in per_width.items()
                                    for kind, m in by_kind.items()}}
            for rep, per_width in zip(candidates, lengths) if not has_long_segment(per_width)],
    }
