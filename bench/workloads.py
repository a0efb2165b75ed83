"""Seeded operations for each workload, with the known answers they are checked against.

An op is one ``qupitcube`` command line.  Inputs come only from the seed
and from this file: deformable tuples are drawn here by rejection
sampling (all six symplectic products nonzero), never through
``classify.enumerate_deformable``, so a change to the enumerator cannot
change what is measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

# Hand-written known answers.  Every check below cites one entry; an op
# with no entry is checked for determinism only.
KNOWN_ANSWERS = {
    "d5-no-long-segment": (
        "d5 (S and A) has no nontrivial string segment longer than 2w",
        "README.md, reference codes; tests/test_acceptance.py criterion 05"),
    "orbit-count": (
        "p=2 has no deformable tuple; p=3 has 2 orbits per parity, p=5 has 18",
        "README.md, Classification; criteria 01 and 02"),
    "census": (
        "planar census is 4 / 2 / 1 by the parity of the in-plane sides",
        "README.md, Logical operators on tori; criterion 09"),
    "a-parity-relation": (
        "A-parity codes have k >= 1 and the product of all generators is the identity",
        "src/qupitcube/logical.py, product_of_all_generators; criterion 10"),
    "projectors": (
        "syndrome projectors are idempotent, orthogonal and complete",
        "README.md, Phase-exact algebra; criterion 11"),
    "inversion": (
        "inversion maps P(s, r) to P(s, r) for S codes and to P(s, -r) for A codes",
        "README.md, Phase-exact algebra; criterion 11"),
}

# Defects known when the benchmark was written, each with the answer it
# breaks.  A wrong verdict that a defect predicts is listed by op and
# counted as a known-defect verdict, not as failed, and does not make the
# run incorrect; any other wrong verdict does both.
KNOWN_DEFECTS = {
    "ROADMAP 5a": ("inversion",
                   "normal-ordered X^a Z^b phases: for an A code with "
                   "c = 2 * sum(a_v * b_v) != 0 (mod p), inversion maps P(s, r) "
                   "to P(s, -r - c)"),
}

D3 = ((1, 0), (0, 1), (1, 1), (1, 2))
D3_B = ((1, 0), (0, 1), (1, 1), (2, 1))
D5 = ((1, 0), (0, 1), (1, 1), (3, 2))


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[tuple[str, str]]] | None = None
    defect: str | None = None  # KNOWN_DEFECTS key predicted to hit this op


def symplectic(a, b, p: int) -> int:
    return (a[0] * b[1] - a[1] * b[0]) % p


def draw_deformable(rng: random.Random, p: int):
    while True:
        t = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(4))
        if all(symplectic(t[i], t[j], p) for i in range(4) for j in range(i + 1, 4)):
            return t


def code_argv(p: int, t, parity: str) -> tuple[str, ...]:
    out = ["--p", str(p)]
    for name, (a, b) in zip(("alpha", "beta", "gamma", "delta"), t):
        out += [f"--{name}", f"{a},{b}"]
    return (*out, "--parity", parity)


def dims_arg(dims) -> str:
    return "x".join(map(str, dims))


# ---------------------------------------------------------------------------
# Known-answer checks: each returns (answer key, message) per wrong verdict


def check_no_long_segment(report: dict) -> list[tuple[str, str]]:
    wrong = []
    for w, per_kind in report["results"]["widths"].items():
        for kind, rpt in per_kind.items():
            m = rpt["max_nontrivial_length"]
            if m is not None and m > 2 * int(w):
                wrong.append(("d5-no-long-segment", f"{kind} w={w}: length {m} > 2w"))
    return wrong


def check_orbit_count(expected: int, key: str):
    def check(report: dict) -> list[tuple[str, str]]:
        got = report["results"][key]
        if got != expected:
            return [("orbit-count", f"{key} {got}, expected {expected}")]
        return []
    return check


def check_torus(dims, parity: str):
    def check(report: dict) -> list[tuple[str, str]]:
        res = report["results"]
        if not res["abelian"]:
            return [("census", "generator family reported non-abelian")]
        wrong = []
        for normal in range(3):
            u, v = [dims[a] for a in range(3) if a != normal]
            expected = {0: 4, 1: 2, 2: 1}[u % 2 + v % 2]
            got = res["census"][f"normal_{'xyz'[normal]}"]["count"]
            if got != expected:
                wrong.append(("census", f"normal {'xyz'[normal]}: {got}, expected {expected}"))
        if parity == "A":
            if res["encoded_qudits"] < 1:
                wrong.append(("a-parity-relation", f"k = {res['encoded_qudits']}"))
            if not res["product_of_all_generators_identity"]:
                wrong.append(("a-parity-relation", "product of all generators is not the identity"))
        return wrong
    return check


def check_algebra(p: int, parity: str, r: int):
    def check(report: dict) -> list[tuple[str, str]]:
        res = report["results"]
        wrong = [("projectors", f"not {name}")
                 for name, ok in sorted(res["projectors"].items()) if not ok]
        inv = res["inversion_action"]
        expected_r = r if parity == "S" else (-r) % p
        if inv["expected_r"] != expected_r or not inv["matches"]:
            wrong.append(("inversion", f"P(s,{r}) is not mapped to P(s,{expected_r})"))
        return wrong
    return check


# ---------------------------------------------------------------------------
# Workloads


def strings_ops(rng: random.Random) -> list[Op]:
    ops = [Op(f"strings-d5-{par}", ("strings", *code_argv(5, D5, par), "--wmax", "4",
                                     "--expect-no-string"), check_no_long_segment)
           for par in "SA"]
    # about half of random deformable codes carry strings up to the 2w+4
    # horizon, so the draw mixes both kinds and the witness path runs
    for p in (5, 7):
        for i in range(6):
            t = draw_deformable(rng, p)
            ops.append(Op(f"strings-p{p}-{i}",
                          ("strings", *code_argv(p, t, rng.choice("SA")), "--wmax", "2")))
    return ops


def classify_ops(rng: random.Random) -> list[Op]:
    # Fixed inputs: the seed orders the passes only.  p=5 carries the
    # cost, so the median op is a p=5 enumeration and orbit closure;
    # scan's oracle at width 2 runs many tiny solver strips.
    orbits = {3: 2, 5: 18}
    ops = [Op(f"classify-p{p}-{par}", ("classify", "--p", str(p), "--parity", par),
              check_orbit_count(orbits[p], "orbit_count"))
           for p in (3, 5) for par in "SA"]
    ops.append(Op("scan-p5", ("scan", "--p", "5", "--oracle-wmax", "2"),
                  check_orbit_count(orbits[5], "orbit_count")))
    return ops


# One op per entry.  Entries hold shapes of (nearly) equal volume, so the
# cost of a pass barely depends on which one the seed picks; the seed
# also orders the sides, which decides the census tier of each plane.
TORUS_SHAPES = (
    ((7, 7, 8),), ((7, 7, 7), (6, 7, 8)),
    ((4, 6, 6), (3, 6, 8)), ((4, 5, 6), (3, 5, 8)), ((3, 5, 7),), ((5, 5, 5),),
    ((4, 5, 5),), ((4, 4, 6), (3, 4, 8), (2, 6, 8)), ((4, 4, 5), (2, 5, 8)),
    ((3, 4, 6), (2, 6, 6), (3, 3, 8)), ((2, 5, 6), (3, 4, 5)),
    ((4, 4, 4), (2, 4, 8)), ((3, 3, 4), (2, 3, 6)), ((3, 3, 3),), ((2, 3, 4),),
    ((2, 3, 3),), ((2, 2, 2),),
)
TORUS_CODES = ((3, D3), (3, D3_B), (5, D5))


def tori_ops(rng: random.Random) -> list[Op]:
    ops = []
    flip = rng.randrange(2)
    for i, shapes in enumerate(TORUS_SHAPES):
        dims = rng.choice(list(permutations(rng.choice(shapes))))
        p, t = rng.choice(TORUS_CODES)
        parity = "SA"[(i + flip) % 2]
        ops.append(Op(f"logical-{i}", ("logical", *code_argv(p, t, parity),
                                       "--dims", dims_arg(dims)),
                      check_torus(dims, parity)))
    p, t = rng.choice(TORUS_CODES)
    dims = rng.choice(list(permutations((2, 2, 3))))
    parity = rng.choice("SA")
    ops.append(Op("logical-ktable", ("logical", *code_argv(p, t, parity),
                                     "--dims", dims_arg(dims), "--ktable", "4"),
                  check_torus(dims, parity)))
    return ops


ALGEBRA_DIMS = ((2, 2, 2), (3, 3, 3), (4, 4, 4))
# Draws per (p, parity, dims).  An algebra op costs about 20, 70 and
# 270 ms at p = 3, 5 and 7 on any of these tori, against a few ms for a
# check; the counts keep these ops near three seconds a pass, the median
# op a check and p90 a p=5 algebra op.
CHECK_DRAWS = 12
ALGEBRA_DRAWS = {3: 3, 5: 2, 7: 1}


def _algebra_op(op_id: str, p: int, t, parity: str, dims, r: int) -> Op:
    argv = ["algebra", *code_argv(p, t, parity), "--dims", dims_arg(dims), "--r", str(r)]
    # the operator-sum guard refuses p > 3 or more than 8 sites unless lifted
    if p > 3 or dims[0] * dims[1] * dims[2] > 8:
        argv.append("--allow-large")
    c = 2 * sum(a * b for a, b in t) % p
    defect = "ROADMAP 5a" if parity == "A" and c else None
    return Op(op_id, tuple(argv), check_algebra(p, parity, r), defect)


def verdicts_ops(rng: random.Random) -> list[Op]:
    ops = []
    for p, t in ((3, D3), (5, D5)):
        for par in "SA":
            ops.append(Op(f"check-ref-p{p}-{par}", ("check", *code_argv(p, t, par))))
            ops.append(_algebra_op(f"algebra-ref-p{p}-{par}", p, t, par, (2, 2, 2), 1))
    for p in (3, 5, 7):
        for par in "SA":
            for i in range(CHECK_DRAWS):
                ops.append(Op(f"check-p{p}-{par}-{i}",
                              ("check", *code_argv(p, draw_deformable(rng, p), par))))
            for dims in ALGEBRA_DIMS:
                for i in range(ALGEBRA_DRAWS[p]):
                    ops.append(_algebra_op(
                        f"algebra-p{p}-{par}-{dims_arg(dims)}-{i}", p,
                        draw_deformable(rng, p), par, dims, rng.randrange(1, p)))
    return ops


# Each workload is one or more op families, and each family draws from
# its own seeded stream.  The torus ops ride in verdicts: a workload of
# their own would not leave the runs long enough to be steady.
WORKLOADS = {"strings": (strings_ops,), "classify": (classify_ops,),
             "verdicts": (verdicts_ops, tori_ops)}


def build(name: str, seed: int) -> list[Op]:
    return [op for family in WORKLOADS[name]
            for op in family(random.Random(f"{family.__name__}:{seed}"))]
