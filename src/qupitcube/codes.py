"""Cubic-lattice qupit codes: generators, Pauli configurations, commutation.

A code lives on the simple cubic lattice with one prime-dimensional qupit
per site.  Each unit cube carries a single stabilizer generator whose
eight vertex labels are symplectic pairs in F_p^2.  Four independent
pairs (alpha, beta, gamma, delta) sit at a vertex and its three positive
neighbours; the inversion images through the cube centre carry the same
pairs scaled by +1 (symmetric code) or -1 (antisymmetric code):

    (0,0,0) alpha     (1,1,1) s*alpha
    (1,0,0) beta      (0,1,1) s*beta
    (0,1,0) gamma     (1,0,1) s*gamma
    (0,0,1) delta     (1,1,0) s*delta

Every module places generators on sites through this one: ``cube_sites``,
``cubes_touching`` and ``generator_labels``, the (8, 2) label array in
``VERTICES`` order, where row 7 - i, the inversion image of vertex i, is
s times row i (``reference.build_generator`` states the same layout as a
dict, for the oracles).

Pauli operators are kept phase-free here: commutation questions depend
only on the symplectic data (the exact phase algebra lives in
:mod:`qupitcube.algebra`).  Between translates of one generator they are
sums of entries of the 8 x 8 label Gram matrix (``label_gram``).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .fp import check_prime

Site = tuple[int, int, int]
Pair = tuple[int, int]

VERTICES: tuple[Site, ...] = tuple(product((0, 1), repeat=3))

# 26 nonzero offsets at which two cube generators can overlap.
NEIGHBOR_OFFSETS: tuple[Site, ...] = tuple(
    o for o in product((-1, 0, 1), repeat=3) if o != (0, 0, 0)
)


def symplectic_product(a: Pair, b: Pair, p: int) -> int:
    """The antisymmetric form a1*b2 - a2*b1 mod p.

    Vanishes exactly when one argument is a scalar multiple of the other
    (for nonzero arguments), which is what makes it the commutation
    obstruction between generalized Paulis.
    """
    return (a[0] * b[1] - a[1] * b[0]) % p


@dataclass(frozen=True)
class CodeParams:
    """Defining data of a code: modulus, four pairs, and the inversion parity.

    ``parity`` is "S" (generator fixed by inversion) or "A" (generator
    inverted to its own negation).
    """

    p: int
    alpha: Pair
    beta: Pair
    gamma: Pair
    delta: Pair
    parity: str = "S"

    def __post_init__(self):
        p = check_prime(self.p)
        object.__setattr__(self, "p", p)
        if self.parity not in ("S", "A"):
            raise ValueError(f"parity must be 'S' or 'A', got {self.parity!r}")
        for name in ("alpha", "beta", "gamma", "delta"):
            a = getattr(self, name)
            try:
                x, z = a
            except (TypeError, ValueError):
                x = z = None
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       for v in (x, z)):
                raise ValueError(f"pair {name} must hold exactly two integers, got {a!r}")
            pair = (int(x) % p, int(z) % p)
            if pair == (0, 0):
                raise ValueError(f"pair {name} must be nonzero mod {p}")
            object.__setattr__(self, name, pair)

    @property
    def pairs(self) -> tuple[Pair, Pair, Pair, Pair]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @property
    def sign(self) -> int:
        """Inversion scale factor: 1 for symmetric, p - 1 for antisymmetric."""
        return 1 if self.parity == "S" else self.p - 1

    def with_parity(self, parity: str) -> "CodeParams":
        return CodeParams(self.p, self.alpha, self.beta, self.gamma, self.delta, parity)

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "gamma": list(self.gamma),
            "delta": list(self.delta),
            "parity": self.parity,
        }


def params_from_dict(d: dict) -> CodeParams:
    """Build CodeParams from the parameter-file layout: a JSON object with
    an integer p, four pairs of two integers each, and an optional parity.
    Anything else, an unknown field included, raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"parameter file must hold a JSON object, got {type(d).__name__}")
    unknown = [repr(key) for key in d
               if key not in ("p", "alpha", "beta", "gamma", "delta", "parity")]
    if unknown:
        raise ValueError(f"parameter file has unknown fields {', '.join(unknown)}")
    try:
        return CodeParams(d["p"], d["alpha"], d["beta"], d["gamma"], d["delta"],
                          d.get("parity", "S"))
    except KeyError as e:
        raise ValueError(f"parameter file is missing field {e.args[0]!r}") from None
    except TypeError as e:
        raise ValueError(f"parameter file: {e}") from None


def load_params(path) -> CodeParams:
    """Read a code-parameter file (JSON with fields p, alpha..delta, parity)."""
    with open(path) as f:
        return params_from_dict(json.load(f))


def is_integer(value) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_dims(dims) -> Site:
    """Torus dimensions as three ints, each at least 2; no side is rounded."""
    dims = tuple(dims)
    if not all(is_integer(L) for L in dims):
        raise ValueError(f"torus dims must be integers, got {dims!r}")
    dims = tuple(int(L) for L in dims)
    if len(dims) != 3 or any(L < 2 for L in dims):
        raise ValueError(f"torus dims must be three sizes >= 2, got {dims}")
    return dims


class PauliConfig:
    """Finitely supported, phase-free Pauli operator on the cubic lattice.

    Maps sites to nonzero symplectic pairs.  With ``dims`` set, sites are
    wrapped into the torus at insertion so supports are canonical.
    """

    __slots__ = ("p", "dims", "support")

    def __init__(self, p: int, dims: Site | None = None,
                 support: dict[Site, Pair] | None = None):
        self.p = check_prime(p)
        self.dims = None if dims is None else check_dims(dims)
        self.support: dict[Site, Pair] = {}
        if support:
            for site, pair in support.items():
                self.add(site, pair)

    def _wrap(self, site) -> Site:
        x, y, z = (int(c) for c in site)
        if self.dims is None:
            return (x, y, z)
        return (x % self.dims[0], y % self.dims[1], z % self.dims[2])

    def add(self, site, pair: Pair) -> None:
        """Accumulate a pair at a site (sitewise addition mod p)."""
        site = self._wrap(site)
        cur = self.support.get(site, (0, 0))
        new = ((cur[0] + pair[0]) % self.p, (cur[1] + pair[1]) % self.p)
        if new == (0, 0):
            self.support.pop(site, None)
        else:
            self.support[site] = new

    def copy(self) -> "PauliConfig":
        out = PauliConfig(self.p, self.dims)
        out.support = dict(self.support)
        return out

    def is_identity(self) -> bool:
        return not self.support

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliConfig) and self.p == other.p
                and self.dims == other.dims and self.support == other.support)

    def __repr__(self) -> str:
        return f"PauliConfig(p={self.p}, dims={self.dims}, weight={len(self.support)})"


def cube_sites(c: Site) -> list[Site]:
    """The 8 sites of the cube at ``c``, in ``VERTICES`` order."""
    return [(c[0] + v[0], c[1] + v[1], c[2] + v[2]) for v in VERTICES]


def cubes_touching(sites, avoid=()) -> list[Site]:
    """The sorted cubes that touch ``sites`` and no site in ``avoid``."""
    avoid = set(avoid)
    candidates = {(q[0] - v[0], q[1] - v[1], q[2] - v[2]) for q in sites for v in VERTICES}
    return [c for c in sorted(candidates) if not avoid or avoid.isdisjoint(cube_sites(c))]


def generator_labels(params: CodeParams) -> np.ndarray:
    """The origin cube generator's labels as an (8, 2) int64 array in
    ``VERTICES`` order: alpha, delta, gamma and beta at vertices 0, 1, 2
    and 4, and at 7 - i, the inversion image of vertex i, s times the
    label at i."""
    s, p = params.sign, params.p
    a, b, g, d = params.pairs
    sa, sb, sg, sd = ((s * x % p, s * z % p) for x, z in params.pairs)
    return np.array([a, d, g, sb, b, sg, sd, sa], dtype=np.int64)


def label_gram(labels: np.ndarray) -> np.ndarray:
    """G = X Z^T - Z X^T of (8, 2) labels, unreduced: entry (i, j) is the
    symplectic product of the labels on vertices i and j."""
    XZ = np.outer(labels[:, 0], labels[:, 1])
    return XZ - XZ.T


@functools.cache
def _pair_incidence() -> np.ndarray:
    """(26, 64): row o marks the vertex pairs (i, j), at column 8 i + j,
    with v_i - v_j equal to the o-th of ``NEIGHBOR_OFFSETS``, which run
    through the base-3 digits of o + (1, 1, 1) save 13, the zero offset.
    Built at the first call and kept, read only."""
    digits = np.array(VERTICES) @ (9, 3, 1)
    offsets = (digits[:, None] - digits + 13).ravel()
    incidence = (np.delete(np.arange(27), 13)[:, None] == offsets).astype(np.int64)
    incidence.flags.writeable = False
    return incidence


def neighbor_exponents(labels: np.ndarray, p: int) -> np.ndarray:
    """Exponent e_o with G T_o(G) = T_o(G) G omega^e_o, per offset o of
    ``NEIGHBOR_OFFSETS``, for the generator G with these (8, 2) labels.

    The translate T_o(G) holds label j at v_j + o, which meets G's label i
    exactly where v_i - v_j = o, so e_o sums the Gram entries [i, j] over
    those pairs.  ``reference.translation_exponents`` walks the support
    site by site.
    """
    return _pair_incidence() @ label_gram(labels).ravel() % p


def verify_translation_commutation(params: CodeParams) -> list[tuple[Site, int]]:
    """Commutation exponents of the generator against its 26 neighbours.

    Returns the list of (offset, exponent) entries with nonzero exponent;
    an empty list certifies a consistent (abelian) generator family, since
    generators further apart never overlap.
    """
    exponents = neighbor_exponents(generator_labels(params), params.p).tolist()
    return [(off, e) for off, e in zip(NEIGHBOR_OFFSETS, exponents) if e != 0]


# Reference codes used throughout the tests and narrative examples.
def d3_code(parity: str = "S", variant: int = 0) -> CodeParams:
    """The two p=3 representatives: delta = (1,2) (variant 0) or (2,1)."""
    delta = (1, 2) if variant == 0 else (2, 1)
    return CodeParams(3, (1, 0), (0, 1), (1, 1), delta, parity)


def d5_code(parity: str = "S") -> CodeParams:
    """The p=5 no-string code with delta = (3, -3) = (3, 2) mod 5."""
    return CodeParams(5, (1, 0), (0, 1), (1, 1), (3, 2), parity)
