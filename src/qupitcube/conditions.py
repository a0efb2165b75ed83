"""The three algebraic no-string conditions, read off the symplectic products.

For two symplectic pairs A and C the base matrix is

    T(A, C) = [[A1, -A2],
               [C1, -C2]],        det T(A, C) = <C, A>.

Relative transition matrices T(num | den) = T(den)^-1 T(num) propagate
the unknown boundary pair of a string segment from one site to the next.
A code admits no width-1 string segment in a given direction when
det(T - T^-1) != 0 for that direction's transition matrix, and no string
of any width when additionally all squared symplectic products of
complementary pairings differ.  No matrix is built here: the oracles in
``reference`` build T(A, C) (``base_matrix``) and T(num | den)
(``rel_transition``).

Every condition is a function of the six symplectic products
W[i, j] = <pair i, pair j> (i < j, and W[j, i] = -W[i, j]).  For
T = T(n0 n1 | d0 d1), write N = W[n0, n1], D = W[d0, d1] and
S = W[d0, n1] - W[d1, n0].  Its determinant is d = N / D, and the
adjugate of T(d0, d1) gives its trace t = S / D.  Cayley--Hamilton,
T^2 - t T + d I = 0, gives T^-1 = (t I - T) / d, so
T - T^-1 = ((d + 1) T - t I) / d and

    det(T - T^-1) = ((d + 1)^2 d - (d + 1) t^2 + t^2) / d^2
                  = ((d + 1)^2 - t^2) / d = ((N + D)^2 - S^2) / (N D).

``theorem1`` reads deformability, the pairing squares and these three
determinants off one W per code, the determinants only for deformable
codes, every W nonzero, where every inverse above exists.
``corner_determinant_check`` reads the corner block off W too.  Each
zero-row numerator of that block is rank one,
T(x 0 | gamma alpha) = u (x1, -x2) with u = T(gamma, alpha)^-1 e1,
so T_int = u (d1, -d2) + v (a1, -a2) with v = -T(beta delta | gamma alpha) u
and det T_int = det[u v] <a, d> = -(W03 / W02)^2; the paper's claimed
<a,g><a,d><d,a> is W02 W03 W30 = -W02 W03^2.  So a
``corner-determinant-mismatch`` is reported exactly when W03 != 0 and
W02^3 != 1.  The matrix routes are the oracles
``reference.minimal_string_determinants_by_matrices`` and
``reference.corner_determinant_by_matrices``, on dense inverses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .codes import CodeParams, symplectic_product


class SingularDenominatorError(ValueError):
    """Raised when a transition denominator pair is symplectically degenerate."""


PAIR_NAMES = ("alpha", "beta", "gamma", "delta")

# The three direction-resolved transition matrices for the width-1 test,
# as (numerator pair indices, denominator pair indices) into
# (alpha, beta, gamma, delta).
WIDTH1_TRANSITIONS = (
    ((3, 0), (2, 1)),   # T(delta alpha | gamma beta)
    ((0, 1), (3, 2)),   # T(alpha beta  | delta gamma)
    ((0, 3), (2, 1)),   # T(alpha delta | gamma beta)
)

# The six symplectic products W[i, j], i < j, in report order.
PRODUCTS = tuple(combinations(range(4), 2))

# Complementary pairings for the squared-product condition.
PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _products(pairs, p: int) -> dict[tuple[int, int], int]:
    """W[i, j] = <pair i, pair j> mod p for every ordered i != j."""
    W = {(i, j): symplectic_product(pairs[i], pairs[j], p) for i, j in PRODUCTS}
    W.update({(j, i): -w % p for (i, j), w in list(W.items())})
    return W


def _width1_determinants(W: dict, p: int) -> list[int]:
    """det(T - T^-1) = ((N + D)^2 - S^2) / (N D) per direction, for a W
    with every entry nonzero."""
    dets = []
    for (n0, n1), (d0, d1) in WIDTH1_TRANSITIONS:
        N, D, S = W[n0, n1], W[d0, d1], W[d0, n1] - W[d1, n0]
        dets.append(((N + D) ** 2 - S * S) * pow(N * D, -1, p) % p)
    return dets


def _pairing_squares(W: dict, p: int) -> list[dict]:
    out = []
    for (i, j), (k, l) in PAIRINGS:
        u, v = W[i, j], W[k, l]
        out.append({
            "pairing": f"{PAIR_NAMES[i]}{PAIR_NAMES[j]}|{PAIR_NAMES[k]}{PAIR_NAMES[l]}",
            "products": (u, v),
            "squares_mod_p": ((u * u) % p, (v * v) % p),
            "distinct_mod_p": (u * u) % p != (v * v) % p,
            "distinct_integer": u * u != v * v,
        })
    return out


@dataclass
class TheoremReport:
    """Aggregate verdict of the three no-string conditions, with audit data."""

    deformability: bool
    minimal_string: tuple[bool, bool, bool] | None
    squares: tuple[bool, bool, bool]
    overall: bool
    details: dict = field(default_factory=dict)
    discrepancies: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "deformability": self.deformability,
            "minimal_string": list(self.minimal_string) if self.minimal_string else None,
            "squares": list(self.squares),
            "overall": self.overall,
            "details": self.details,
            "discrepancies": self.discrepancies,
        }


def theorem1(pairs, p: int) -> TheoremReport:
    """All three conditions on (alpha, beta, gamma, delta) mod prime p, read
    off the six symplectic products with every intermediate recorded.

    ``overall`` is the conjunction; codes failing deformability short out
    the width-1 determinants (they are not defined there).  A pairing
    whose mod-p and integer readings disagree is listed as a discrepancy
    rather than silently resolved.
    """
    W = _products(pairs, p)
    deform = all(W.values())
    squares_detail = _pairing_squares(W, p)
    squares = tuple(e["distinct_mod_p"] for e in squares_detail)
    discrepancies = [
        {"kind": "condition3-reading-mismatch", "pairing": e["pairing"],
         "mod_p": e["distinct_mod_p"], "integer": e["distinct_integer"]}
        for e in squares_detail if e["distinct_mod_p"] != e["distinct_integer"]
    ]
    details = {
        "symplectic_products": {f"{PAIR_NAMES[i]}{PAIR_NAMES[j]}": W[i, j] for i, j in PRODUCTS},
        "pairing_squares": squares_detail,
        "width1_determinants": _width1_determinants(W, p) if deform else None,
    }
    minimal = tuple(d != 0 for d in details["width1_determinants"]) if deform else None
    overall = deform and all(minimal) and all(squares)
    return TheoremReport(deform, minimal, squares, overall, details, discrepancies)


def theorem1_report(params: CodeParams) -> TheoremReport:
    """``theorem1`` of a code's pairs and modulus; the parity plays no part."""
    return theorem1(params.pairs, params.p)


def corner_determinant_check(params: CodeParams) -> dict:
    """The determinant of the corner transition block
    T_int = T(delta 0 | gamma alpha) - T(beta delta | gamma alpha) T(alpha 0 | gamma alpha),
    -(W03 / W02)^2, beside the paper's claimed closed form W02 W03 W30.
    Raises SingularDenominatorError when W02 = <alpha, gamma> = 0.  Callers
    surface a mismatch as a discrepancy instead of asserting it.
    """
    p = params.p
    a, _, g, _ = params.pairs
    W = _products(params.pairs, p)
    if W[0, 2] == 0:
        raise SingularDenominatorError(f"denominator pairs {(g, a)} are proportional mod {p}")
    det = -(W[0, 3] * pow(W[0, 2], -1, p)) ** 2 % p
    claimed = W[0, 2] * W[0, 3] * W[3, 0] % p
    return {
        "computed_det": det,
        "claimed_det": claimed,
        "match": det == claimed,
        "nonzero": det != 0 and claimed != 0,
    }
