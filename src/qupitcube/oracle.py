"""Exact decision procedure for nontrivial logical string segments.

A candidate segment lives on a strip (``SegmentGeometry``): a
cross-section of w lattice sites repeated at l positions along a
coordinate axis.  The scan runs over two named families of
cross-sections (``sections``): flat (a row of sites, so the strip lies in
one lattice plane) and cornered (an L bent around an edge).  The
segment's unknowns are the symplectic pairs on the strip.  Every cube
generator that overlaps the strip while staying clear of the two anchor
cross-sections (one lattice step beyond each end) imposes one linear
constraint: the total symplectic product between the generator's labels
and the unknowns on the shared sites must vanish.  The solution space of
that system is computed exactly over F_p.

A solution is counted as a nontrivial segment when the solution space
projects nonzero onto BOTH end columns of the strip.  Over a field a
linear space is never the union of two proper subspaces, so this is
equivalent to the existence of a single witness acting at both ends,
which is the operational stand-in for "every equivalent segment stays
connected between the anchors".

Length scans do not solve one system per length: the strip system is
translation invariant, so the elimination of a family's length-2 system
decides every length through ``transfer``, whether or not the code is
deformable.  One stack (``_scan_stack``) does this for every family of a
run of widths and for many codes at once: one gather of the codes'
labels into a stack of length-2 systems, one stacked elimination
(``fp.mat_rref_stack``) and one ``transfer.scan`` on the members without
free columns, and one ``transfer.scan`` on each member with them.  The
systems of a run are padded to its widest width (``_Group``): a
narrower family gets dummy columns, pinned in the first block, that
change its scan only by a constant nullspace dimension, and each width
keeps its own length horizon.  ``width_groups`` cuts the widths into
runs by size alone, so small stacks merge and a large one (a wide
width, or many codes) runs alone.  ``scan_widths`` stacks one code's
families and adds witnesses; ``scan_codes`` stacks every code of a
list, a chunk of them at a time within ``MAX_STACK_BYTES``, reports only
the maximal lengths, and drops a code once it has a segment longer than
2w.  The tests compare the
scan with the dense per-strip solver ``reference.solve_segment``, the
loop with the kernel recursion ``reference.scan_family``, padded runs
with one width at a time, and ``scan_codes`` with ``scan_widths``.

Column layout: sites are ordered along the strip (length-major, then
cross-section); each site contributes two adjacent columns holding
(z-exponent, x-exponent).  With that order the width-1 constraint blocks
are literally the 2x2 base matrices [[g1, -g2], ...] of the transition
formalism.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import fp, transfer
from .codes import (
    VERTICES,
    CodeParams,
    PauliConfig,
    Site,
    cube_sites,
    cubes_touching,
    generator_labels,
    is_integer,
)


class DegenerateGeometryError(ValueError):
    """Raised for strips too small to separate the two anchors."""


ORIENTATIONS: tuple[tuple[int, int], ...] = tuple(permutations(range(3), 2))
KINDS = ("flat", "cornered")
Section = tuple[Site, ...]

# Widest strip and longest length horizon ``scan_widths`` scans.  Measured
# from a fresh interpreter on a 2-core x86_64 VM whose speed swings by up
# to 1.5x: ``strings --wmax 16`` takes 0.57-0.63 s per parity on d5 at
# 38 MB, with or without ``--lmax 64`` (a family leaves the stacked length
# loop once its first column vanishes), and ``--wmax 16 --lmax 64``
# 0.86-1.16 s on the p = 2 string code at 39 MB.  Families with free
# columns are not bounded as tightly: the length loop's state grows with
# the length, and on the p = 3 tuple (1,0)^4 ``--wmax 8`` takes 0.37-0.43 s
# at 33 MB, ``--wmax 12`` 1.0-1.9 s at 42 MB, ``--wmax 16`` 3.6-6.5 s at
# 63 MB and ``--wmax 16 --lmax 64`` 12-13 s at 125 MB.
MAX_STRIP_WIDTH = 16
MAX_STRIP_LENGTH = 64

# Bytes of length-2 systems and length-loop state that one ``scan_codes``
# stack may hold (``_codes_per_stack``).  Over all 1,630 p = 13
# representatives on a 2-core x86_64 VM, widths 1-4 took no less time in
# 8 MiB stacks than in 4 MiB ones, and up to 45 % more in 1 MiB ones.
MAX_STACK_BYTES = 4 * 2**20

# Cells of padded length-2 systems, over all codes, up to which a run of
# consecutive widths shares one ``_scan_stack`` (``width_groups``): for one
# code, widths 1-5 and then one width per stack.  In process on a 2-core
# x86_64 VM, best of 20-30 interleaved runs, one stack per width (a budget
# of 0) took the 14 ``strings`` command lines of the benchmark's seed 1
# from 21-22 to 28-30 ms in all (1.33x): d5 ``--wmax 4`` from 3.5 to
# 5.0-5.1 ms and each ``--wmax 2`` line from 1.15 to 1.5 ms.  d5's
# ``scan_widths`` alone took 2.7-3.3 against 4.2-5.9 ms at widths 1-4 and
# read the same within 10 % at widths 1-8, as did ``scan --p 5``.  2^15
# read the same within 2 %, 2^13 up to 7 % slower at widths 6-8, and one
# stack for every width, whose padded cells grow as W^4, slower than 2^14
# from width 7 on and 1.8x slower at width 16 (earlier measurements).
MAX_GROUP_CELLS = 2**14


@dataclass(frozen=True)
class SegmentGeometry:
    """A strip: the cross-section ``section`` translated along ``axis`` to
    positions 0..length-1.

    ``section`` lists the cross-section's sites, each at 0 on the axis, in
    column order.  ``sections`` names the flat and cornered families the
    scan runs over.
    """

    axis: int
    section: Section
    length: int

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis!r}")
        if not self.section or self.length < 2:
            raise DegenerateGeometryError(
                f"need a nonempty section and length >= 2, got "
                f"{len(self.section)} sites, l={self.length}")
        if len(set(self.section)) != len(self.section):
            raise ValueError(f"section repeats a site: {self.section}")
        if any(q[self.axis] for q in self.section):
            raise ValueError(f"section sites must be 0 on axis {self.axis}: {self.section}")

    def column_sites(self, j: int) -> list[Site]:
        """The cross section at length position j."""
        return [_shift(q, self.axis, j) for q in self.section]

    def support(self) -> list[Site]:
        """All strip sites, length-major then cross-section order."""
        return [q for j in range(self.length) for q in self.column_sites(j)]


def _shift(q: Site, axis: int, j: int) -> Site:
    return tuple(c + j * (a == axis) for a, c in enumerate(q))


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be 'flat' or 'cornered', got {kind!r}")


def sections(width: int, kind: str) -> list[tuple[int, Section]]:
    """The (axis, section) families of a kind at one width, for each
    ``ORIENTATIONS`` (length axis la, width axis wa) in order.

    A flat section runs ``width`` sites along wa.  A cornered one runs c
    sites along wa and then bends along the remaining axis ba, one family
    per corner c = 1..width-1.  c = 1 is the flat section along ba, same
    sites in the same order: a width-2 "cornered" report is a flat one,
    and no genuine L exists below width 3.  Point inversion maps
    (la, wa, c) to (la, ba, width - c + 1).
    """
    _check_kind(kind)
    corners = (width,) if kind == "flat" else range(1, width)
    out = []
    for la, wa in ORIENTATIONS:
        ba = 3 - la - wa
        for c in corners:
            straight = [_shift((0, 0, 0), wa, i) for i in range(c)]
            bend = [_shift(straight[-1], ba, k) for k in range(1, width - c + 1)]
            out.append((la, tuple(straight + bend)))
    return out


def _vector_to_config(params: CodeParams, sites: list[Site], vec: np.ndarray) -> PauliConfig:
    cfg = PauliConfig(params.p)
    for t, q in enumerate(sites):
        pair = (int(vec[2 * t + 1]), int(vec[2 * t]))  # columns hold (z, x)
        if pair != (0, 0):
            cfg.add(q, pair)
    return cfg


def _ends_witness(basis: np.ndarray, n: int, p: int):
    """A vector of the span nonzero on both end column blocks (the first and
    the last ``n`` columns), if one exists.

    Both projections nonzero is sufficient: a space over F_p is never the
    union of two proper subspaces, and u + v repairs a vector vanishing
    at one end.
    """
    on1 = [v for v in basis if v[:n].any()]
    on2 = [v for v in basis if v[-n:].any()]
    if not on1 or not on2:
        return None
    u, v = on1[0], on2[0]
    if u[-n:].any():
        return u
    if v[:n].any():
        return v
    return (u + v) % p


@dataclass
class SegmentReport:
    """Scan result over lengths: largest nontrivial length and aspect ratio."""

    width: int
    kind: str
    lengths_scanned: list[int]
    nullspace_dims: dict[int, int]
    nontrivial_lengths: list[int]
    max_nontrivial_length: int | None
    aspect_ratio: Fraction | None
    witness: PauliConfig | None = None
    witness_geometry: SegmentGeometry | None = None

    def as_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = [{"site": list(q), "pair": list(pair)}
                       for q, pair in sorted(self.witness.support.items())]
        return {
            "width": self.width,
            "kind": self.kind,
            "lengths_scanned": self.lengths_scanned,
            "nullspace_dims": {str(l): d for l, d in sorted(self.nullspace_dims.items())},
            "nontrivial_lengths": self.nontrivial_lengths,
            "max_nontrivial_length": self.max_nontrivial_length,
            "aspect_ratio": None if self.aspect_ratio is None else
                [self.aspect_ratio.numerator, self.aspect_ratio.denominator],
            "witness": witness,
        }


def _template(axis: int, section: Section) -> np.ndarray:
    """Where the generator's labels land in the length-2 system of a strip
    family, independent of the code: a cube at length position -1 or +1
    that meets the strip meets an anchor, so the rows are the cubes at 0
    whose footprint meets the cross-section.  Entry (row, t) is the index
    in ``VERTICES`` of that cube's vertex on support site t (the section,
    then its shift along ``axis``), or ``len(VERTICES)`` where the cube
    misses the site.
    """
    support = [*section, *(_shift(q, axis, 1) for q in section)]
    index = {q: t for t, q in enumerate(support)}
    cubes = [c for c in cubes_touching(section) if c[axis] == 0]
    T = np.full((len(cubes), len(support)), len(VERTICES), dtype=np.intp)
    for r, c in enumerate(cubes):
        for k, q in enumerate(cube_sites(c)):
            if q in index:
                T[r, index[q]] = k
    return T


# Where a padded ``_Group`` template pins a dummy site: ``_PIN`` on its z
# column and ``_PIN + 1`` on its x column (``_labels``).
_PIN = len(VERTICES) + 1


def _labels(codes: list[CodeParams]) -> np.ndarray:
    """Each code's ``codes.generator_labels`` (x, z) as rows (x, -z) mod p,
    in ``VERTICES`` order, then a zero row for the sites a cube misses and
    the two pins (1, 0) and (0, -1), as a (C, len(VERTICES) + 3, 2) stack
    for codes of one modulus: gathered by a ``_template``, or a ``_Group``'s
    padded one, they land on the (z, x) columns of each site."""
    out = np.zeros((len(codes), _PIN + 2, 2), dtype=np.int64)
    out[:, :len(VERTICES)] = [generator_labels(code) for code in codes]
    out[:, _PIN:] = np.eye(2, dtype=np.int64)
    out[:, :, 1] *= -1
    return out % codes[0].p


def _transfer_witness(params: CodeParams, geom: SegmentGeometry, A: np.ndarray,
                      F: np.ndarray, kernel: np.ndarray) -> PauliConfig:
    """The witness ``reference.solve_segment`` reports, from a kernel basis
    at ``geom.length`` in the parameter coordinates of ``transfer.scan``.

    Each basis row (x_{l-1}, z_{l-2}, ..., z_0) unrolls to the strip
    solution's columns x_{l-1}, ..., x_0.  The solutions are then put in
    the form ``fp.nullspace`` returns, which is unique for the space: each
    vector is 1 at its own last nonzero column and 0 there in the others.
    That is the reduced echelon form of the column-reversed basis, with
    rows and columns reversed back.
    """
    p = params.p
    columns = transfer.unroll(kernel, A.T, F.T, geom.length - 1, p)
    R, _ = fp.mat_rref(columns[:, ::-1].reshape(len(kernel), -1)[:, ::-1], p)
    basis = R[:kernel.shape[0], ::-1][::-1]
    return _vector_to_config(params, geom.support(), _ends_witness(basis, len(A), p))


def _scan_stack(codes: list[CodeParams], group: _Group, l_max):
    """``(dims, nontrivial, last)`` of a stack of (code, strip family)
    members: every code of ``codes``, all of one modulus, on every member
    family of ``group``, with the length horizon ``l_max``, one for all or
    one per family.  ``dims`` and ``nontrivial`` are (C, H, L - 1) arrays
    of the nullspace dimension and nontriviality at lengths 2..L, for the
    largest horizon L, zero and False past a member's own horizon, and
    ``last(c, h)`` is the ``(A, F, kernel)`` that ``_transfer_witness``
    needs at member (c, h)'s last nontrivial length.

    One gather of the codes' labels assembles every member's padded
    length-2 system and one ``fp.mat_rref_stack`` eliminates them all.  The
    members whose first block has full rank share one ``transfer.scan``,
    and their Q are kept.  A width-w member of a group padded to width W
    has A and v zero on its 2(W - w) dummy columns, so x_{l-1} is free
    there and adds 2(W - w) to the nullspace dimension at every length,
    and nothing else changes; its A and Q are cropped to its real columns.
    A member whose ``F`` has columns has a kernel that grows with the
    length, so it runs ``transfer.scan`` alone, on the rows and columns of
    its real sites, and only the witness's member runs again, to its last
    nontrivial length, for its Q.
    """
    p = codes[0].p
    H, m, n = group.template.shape
    real = np.tile(2 * group.width, len(codes))  # each member's real columns per block
    horizon = np.tile(np.broadcast_to(l_max, (H,)), len(codes))
    systems = _labels(codes)[:, group.template].reshape(-1, m, 2 * n)
    R, pivoted = fp.mat_rref_stack(systems, p, n)
    full = pivoted.all(axis=1)
    stacked = transfer.transfer_blocks(R[full], list(range(n)), n, p)
    dims = np.zeros((len(R), horizon.max(initial=2) - 1), dtype=np.int64)
    nontrivial = np.zeros(dims.shape, dtype=bool)
    d, hits, last_Q = transfer.scan(*stacked, p, horizon[full])
    reached = np.arange(2, d.shape[1] + 2) <= horizon[full, None]
    dims[full, :d.shape[1]] = d - (n - real[full, None]) * reached
    nontrivial[full, :d.shape[1]] = hits

    def alone(b: int):
        w2 = int(real[b])
        S = R[b:b + 1]
        if w2 < n:  # the real pivot rows, then the leftover ones: the pins sit between
            r = int(pivoted[b, :w2].sum())
            S = S[:, [*range(r), *range(r + n - w2, m)]][:, :, [*range(w2), *range(n, n + w2)]]
        return transfer.transfer_blocks(S, np.flatnonzero(pivoted[b, :w2]).tolist(), w2, p)

    blocks = {b: alone(b) for b in np.flatnonzero(~full).tolist()}
    for b, (A, F, v) in blocks.items():
        l = horizon[b] - 1
        dims[b, :l], nontrivial[b, :l], _ = transfer.scan(A, F, v, p, horizon[b])

    def last(c: int, h: int):
        b = c * H + h
        if full[b]:
            j, w2 = full[:b].sum(), real[b]  # b's place in the stack
            A, F, Q = stacked[0][j, :w2, :w2], stacked[1][j, :w2], last_Q[j, :w2, :w2]
        else:
            length = int(np.flatnonzero(nontrivial[b])[-1]) + 2
            (A,), (F,), _ = blocks[b]
            Q = transfer.scan(*blocks[b], p, length)[2][0]
        return A, F, Q[:, np.diagonal(Q) == 1].T

    shape = (len(codes), H, dims.shape[1])
    return dims.reshape(shape), nontrivial.reshape(shape), last


def check_scan_bounds(width: int, l_max: int | None = None) -> None:
    """Refuse a scan outside widths 1..``MAX_STRIP_WIDTH`` or a length
    horizon outside 2..``MAX_STRIP_LENGTH``: an empty scan would report
    "no string" without solving anything.  Both must be integers, bools
    refused."""
    if not is_integer(width):
        raise ValueError(f"string scans need an integer width, got {width!r}")
    if l_max is not None and not is_integer(l_max):
        raise ValueError(f"string scans need an integer length, got {l_max!r}")
    if width < 1:
        raise ValueError(f"string scans need width >= 1, got {width}")
    if width > MAX_STRIP_WIDTH:
        raise ValueError(f"string scans are limited to width <= {MAX_STRIP_WIDTH}, "
                         f"got {width}")
    if l_max is not None and l_max < 2:
        raise ValueError(f"string scans need length >= 2, got {l_max}")
    if l_max is not None and l_max > MAX_STRIP_LENGTH:
        raise ValueError(f"string scans are limited to length <= {MAX_STRIP_LENGTH}, "
                         f"got {l_max}")


def _check_widths(widths, l_max: int | None = None) -> list[int]:
    """``widths`` sorted and unique; refuses an empty list, and each width
    ``check_scan_bounds`` refuses, before equal values (1, True, 1.0) merge."""
    widths = list(widths)
    if not widths:
        raise ValueError("string scans need at least one width")
    for width in widths:
        check_scan_bounds(width, l_max)
    return sorted(set(widths))


def _inversion_class(axis: int, section: Section) -> tuple:
    """Length axis and cross-section up to translation and point inversion,
    which maps the cube generator to +-itself and swaps the anchors: the
    families of one class have equal nullspace dimensions and nontriviality."""
    def normal(sign: int) -> tuple:
        low = [min(sign * q[a] for q in section) for a in range(3)]
        return tuple(sorted(tuple(sign * q[a] - low[a] for a in range(3)) for q in section))

    return axis, min(normal(1), normal(-1))


@dataclass(frozen=True)
class _WidthStack:
    """The code-independent geometry of one width's scan.

    ``heads`` are the first family of each ``_inversion_class`` in
    ``sections`` order, flat before cornered; the first family of a class
    within either kind alone is the same head.  ``members[kind]`` gives the
    head index of each of that kind's families, in ``sections`` order.
    Every head's ``_template`` has ``cubes`` rows.
    """

    heads: tuple[tuple[int, Section], ...]
    members: dict[str, tuple[int, ...]]
    cubes: int


@functools.cache
def _width_stack(width: int) -> _WidthStack:
    """Built at the first scan of a width and kept: at most
    ``MAX_STRIP_WIDTH`` entries, read only."""
    heads, index, members = [], {}, {}
    for kind in KINDS:
        members[kind] = []
        for family in sections(width, kind):
            key = _inversion_class(*family)
            if key not in index:
                index[key] = len(heads)
                heads.append(family)
            members[kind].append(index[key])
    return _WidthStack(tuple(heads), {k: tuple(v) for k, v in members.items()},
                       len(_template(*heads[0])))


def _used(width: int, kinds) -> list[int]:
    """The heads of ``_width_stack(width)`` that the kinds' families need."""
    return sorted({h for kind in kinds for h in _width_stack(width).members[kind]})


def _padded_rows(widths) -> int:
    """Rows of a padded group's systems: a width's cubes, then its pins."""
    return max(_width_stack(w).cubes + 2 * (max(widths) - w) for w in widths)


@dataclass(frozen=True)
class _Group:
    """The code-independent geometry of one ``_scan_stack``: the heads the
    kinds need at each of ``widths``, padded to the widest, W.

    A width-w head keeps its cube rows and the columns of its w sites at
    the front of each block of W sites.  The W - w dummy sites of the first
    block get one pin row each per column, after the cube rows, so the
    padded first block has full rank exactly when the head's own has; the
    dummy sites of the second block stay free.  ``template`` (H, M, 2W)
    stacks the padded ``_template``s.  ``width[h]`` and ``heads[h]`` are
    member h's width and family, and ``rows[w][kind]`` gives the member of
    each of that kind's families at width w, in ``sections`` order.
    """

    template: np.ndarray
    width: np.ndarray
    heads: tuple[tuple[int, Section], ...]
    rows: dict[int, dict[str, tuple[int, ...]]]


@functools.cache
def _group(widths: tuple[int, ...], kinds: tuple[str, ...]) -> _Group:
    """Built at the first scan of a run of widths and kept: at most one per
    run within 1..``MAX_STRIP_WIDTH`` and tuple of kinds, read only."""
    W = max(widths)
    heads, width, rows = [], [], {}
    for w in widths:
        stack, used = _width_stack(w), _used(w, kinds)
        member = {h: len(heads) + i for i, h in enumerate(used)}
        rows[w] = {kind: tuple(member[h] for h in stack.members[kind]) for kind in kinds}
        heads += [stack.heads[h] for h in used]
        width += [w] * len(used)
    template = np.full((len(heads), _padded_rows(widths), 2 * W), len(VERTICES), dtype=np.intp)
    for T, family, w in zip(template, heads, width):
        cubes = _template(*family)
        m, pins = len(cubes), np.arange(2 * (W - w))
        T[:m, :w], T[:m, W:W + w] = cubes[:, :w], cubes[:, w:]
        T[m + pins, w + pins // 2] = _PIN + pins % 2
    template.flags.writeable = False
    width = np.array(width, dtype=np.int64)
    width.flags.writeable = False
    return _Group(template, width, tuple(heads), rows)


def width_groups(widths, count: int, kinds=KINDS) -> list[tuple[int, ...]]:
    """``widths`` cut into runs of consecutive entries that one
    ``_scan_stack`` of ``count`` codes scans together: a run grows while its
    padded length-2 systems hold at most ``MAX_GROUP_CELLS`` cells, so a
    width too large to share a stack runs alone.  Decided from the sizes
    alone."""
    runs, members = [], 0  # the last run's members
    for w in widths:
        heads = len(_used(w, kinds))
        if runs:
            run = (*runs[-1], w)
            if count * (members + heads) * _padded_rows(run) * 4 * max(run) <= MAX_GROUP_CELLS:
                runs[-1], members = run, members + heads
                continue
        runs.append((w,))
        members = heads
    return runs


def _horizon(width, l_max: int | None):
    """A width's length horizon: ``l_max``, by default 2w + 4."""
    return 2 * width + 4 if l_max is None else l_max


def _scan_group(codes: list[CodeParams], group: _Group, l_max: int | None):
    """One ``_scan_stack`` of ``codes`` over ``group``, reduced per width
    and kind, each width to its own horizon l_max (default 2w + 4).

    Returns ``(by_width, nontrivial, last)``.  ``by_width[w][kind]`` holds
    the kind's nullspace dimensions and nontriviality at lengths 2..l_max,
    per code, as (C, l_max - 1) arrays: the max and the any over its
    families, ``None`` dimensions for a kind without families.  It also
    holds the kind's families as members of the stack, in ``sections``
    order.
    """
    dims, nontrivial, last = _scan_stack(codes, group, _horizon(group.width, l_max))
    by_width = {}
    for w, by_kind in group.rows.items():
        l = _horizon(w, l_max) - 1
        by_width[w] = {kind: (dims[:, rows, :l].max(axis=1) if rows else None,
                              nontrivial[:, rows, :l].any(axis=1), rows)
                       for kind, rows in by_kind.items()}
    return by_width, nontrivial, last


def scan_widths(params: CodeParams, widths, l_max: int | None = None,
                kinds=KINDS) -> dict[int, dict[str, SegmentReport]]:
    """One report per kind at each of ``widths``, in increasing order:
    lengths 2..l_max (default 2w + 4, past both the w+1 and the 2w bounds)
    over all orientations and corners.

    Each ``_inversion_class`` the kinds need at a width is scanned once, as
    one member of the ``_scan_stack`` of its run of ``width_groups``; the
    reports equal ``reference.solve_segment``'s length by length.  Width-1
    cornered reports are empty.  Refuses scans beyond ``MAX_STRIP_WIDTH``
    or ``MAX_STRIP_LENGTH``, an empty width list, and any kind but "flat"
    or "cornered".
    """
    widths = _check_widths(widths, l_max)
    kinds = tuple(kinds)
    for kind in kinds:
        _check_kind(kind)
    out = {}
    for run in width_groups(widths, 1, kinds):
        out.update(_run_reports(params, _group(run, kinds), l_max))
    return out


def _run_reports(params: CodeParams, group: _Group, l_max: int | None):
    """``scan_widths``' reports at the widths of one ``_group``; the
    stack's arrays go when it returns."""
    by_width, nontrivial, last = _scan_group([params], group, l_max)
    out = {}
    for width, by_kind in by_width.items():
        lengths = list(range(2, _horizon(width, l_max) + 1))
        reports = out[width] = {}
        for kind, (dims, hits, rows) in by_kind.items():
            found = [l for l, hit in zip(lengths, hits[0]) if hit]
            max_len = max(found, default=None)
            witness = witness_geom = None
            if max_len is not None:
                # as the length-by-length scan: the first nontrivial family at
                # the last hit (its own last one); it heads its class within the
                # kind, so it has the sites of the head that was scanned for it
                r = next(r for r in rows if nontrivial[0, r, max_len - 2])
                witness_geom = SegmentGeometry(*group.heads[r], max_len)
                witness = _transfer_witness(params, witness_geom, *last(0, r))
            reports[kind] = SegmentReport(
                width=width,
                kind=kind,
                lengths_scanned=lengths,
                nullspace_dims={} if dims is None else dict(zip(lengths, dims[0].tolist())),
                nontrivial_lengths=found,
                max_nontrivial_length=max_len,
                aspect_ratio=None if max_len is None else Fraction(max_len, width),
                witness=witness,
                witness_geometry=witness_geom,
            )
    return out


def _codes_per_stack(group: _Group) -> int:
    """How many codes one ``_scan_stack`` of ``group`` takes within
    ``MAX_STACK_BYTES``.  A member's int64 padded length-2 system (m, 2n)
    is held about four times over by the gather and the elimination, and
    the length loop's constraint rows, N and Q, (m + n, n), about three
    times over with the products and the last Q: tracemalloc puts a
    one-width stack's peak within 20 % below that estimate at widths 1-4."""
    H, m, n = group.template.shape
    member = 8 * (4 * m * 2 * n + 3 * (m + 2 * n) * n)
    return max(1, MAX_STACK_BYTES // (H * member))


def has_long_segment(lengths: dict[int, dict[str, int | None]]) -> bool:
    """Whether a ``scan_codes`` entry has a segment longer than 2w at a width w."""
    return any(m is not None and m > 2 * w
               for w, by_kind in lengths.items() for m in by_kind.values())


def scan_codes(codes, widths) -> list[dict[int, dict[str, int | None]]]:
    """Each code's ``max_nontrivial_length`` per width and kind, as
    ``scan_widths(code, widths)`` reports it, without witnesses, up to the
    run of widths in which the code first has a segment longer than 2w:
    it is dropped after that run.

    The codes, all of one modulus, are scanned together: one
    ``_scan_stack`` per run of ``width_groups`` of the widths left and the
    codes still scanned, and chunk of ``_codes_per_stack`` codes, in order.
    Refuses mixed moduli and the widths ``_check_widths`` refuses.
    """
    widths = _check_widths(widths)
    codes = list(codes)
    if len({code.p for code in codes}) > 1:
        raise ValueError(f"scan_codes needs codes of one modulus, got "
                         f"{sorted({code.p for code in codes})}")
    out = [{} for _ in codes]
    live = list(range(len(codes)))
    while live and widths:
        run = width_groups(widths, len(live), KINDS)[0]
        group = _group(run, KINDS)
        size = _codes_per_stack(group)
        for lo in range(0, len(live), size):
            chunk = live[lo:lo + size]
            by_width = _scan_group([codes[c] for c in chunk], group, None)[0]
            for width, by_kind in by_width.items():
                for kind, (_, hits, _) in by_kind.items():
                    # each code's last nontrivial length, from the reversed hits; 0 for none
                    lasts = np.where(hits.any(axis=1),
                                     _horizon(width, None) - hits[:, ::-1].argmax(axis=1), 0)
                    for c, m in zip(chunk, lasts.tolist()):
                        out[c].setdefault(width, {})[kind] = m or None
        live = [c for c in live if not has_long_segment(out[c])]
        widths = widths[len(run):]
    return out
