"""Reference oracles: direct, slow computations the tests hold the fast paths to.

Nothing here runs on the command line's path.  This module imports the
production modules and never the reverse, and ``qupitcube.cli`` never
loads it; ``tests/test_reference.py`` checks both.  Each oracle, the
production code it checks, and the tests that compare them:

- ``build_segment_constraints`` assembles a strip's whole constraint
  matrix, one row per cube generator that meets the strip and neither
  anchor (``anchors``).  At length 2 it checks the row space of
  ``pair_system``, the rows ``oracle._scan_stack`` gathers per family
  (``test_oracle.test_pair_system_matches_whole_strip_assembly``,
  ``test_oracle.test_constraint_matrix_shapes``,
  ``test_oracle.test_width1_system_matches_block_form``).
- ``solve_segment`` solves one strip by a dense nullspace of that whole
  matrix.  Run at every length on every ``oracle.sections`` family
  (``test_oracle.dense_scan``) it checks each ``oracle.scan_width``
  report, witness included, deformable or not
  (``test_oracle.test_transfer_scan_*``).
- ``verify_witness`` rebuilds every anchor-avoiding cube generator as a
  configuration and tests commutation, independent of the constraint
  matrix.  It checks the witnesses of ``solve_segment`` and
  ``oracle.scan_width`` (``test_oracle.test_transfer_scan_*``,
  ``test_oracle.test_witness_reverification``,
  ``test_acceptance.test_criterion_12c_witness_reverification_1000``).
- ``canonical_reduction`` rebuilds the rank of a strip system from its
  transfer blocks and compares it with a direct elimination and with the
  Krylov bound.  It checks ``strip_transfer``
  (``test_oracle.test_canonical_reduction_*``,
  ``test_acceptance.test_criterion_08_*``), the per-family
  ``transfer.transfer`` whose blocks ``scan_family`` scans.  It raises
  ``PivotError`` when the first column block is rank deficient (``F`` has
  columns), where its rank formula does not hold.
- ``scan_family`` scans one family's lengths by the kernel recursion:
  the kernel basis in the transfer parameters, cut by a nullspace and
  grown by the free columns at each length.  It checks the length loop
  ``transfer.scan`` on arbitrary blocks, with free columns and without
  (``test_oracle.test_transfer_loop_matches_family_scan_*``,
  ``test_oracle.test_scan_needs_both_end_columns``), and each (code,
  family) member of ``oracle._scan_stack`` with the kernel it hands on
  to the witness
  (``test_oracle.test_stacked_scan_matches_each_family_scan``).
  It also shows that point inversion keeps a family's scan
  (``test_oracle.test_cornered_families_scan_like_their_inversion_partners``).
- ``width1_matrices`` builds the three width-1 transition matrices
  T(num | den) by ``rel_transition``, the adjugate of the ``base_matrix``
  T(den) times T(num), and
  ``minimal_string_determinants_by_matrices`` takes det(T - T^-1) from
  them by ``mat_inverse`` and ``mat_det``.  ``theorem1_report_by_matrices``
  builds the whole three-condition report on that route.  They check
  ``conditions.theorem1``, which reads every entry off the six symplectic
  products, byte for byte, the determinants wherever all six are nonzero
  (``test_conditions.test_theorem1_matches_matrix_route_*``,
  ``test_conditions.test_determinants_match_the_matrix_route``).
- ``corner_determinant_by_matrices`` forms the corner block T_int as the
  literal product of dense inverses and base matrices.  It checks
  ``conditions.corner_determinant_check``, which reads the block's
  determinant off the symplectic products, value for value and
  exception for exception
  (``test_conditions.test_corner_determinant_matches_the_block_product``).
- ``width1_criterion`` sets the width-1 determinants of
  ``conditions.theorem1_report`` against
  ``solve_segment`` (``test_oracle.test_width1_criterion_agreement``,
  ``test_acceptance.test_criterion_07_*``).
- ``flatten_segment`` and ``is_stabilizer_combination`` deform a box
  configuration onto the kinked surface profile by in-box generators and
  decide span membership.  They back the segment solver's restriction to
  flat and cornered strips, the shapes that profile is made of
  (``test_oracle.test_flatten_*``,
  ``test_oracle.test_stabilizer_combination_rejects_support_outside_box``).
  ``generator_rows`` scatters the generators of a list of cubes into
  rows, site by site, for them, for ``layer_relation_by_nullspace`` and
  for the dense torus matrix of ``test_logical``; ``config_row`` writes
  a configuration in its column layout (as in
  ``test_logical.test_check_abelian_matches_dense``).  Through
  ``layer_relation_by_nullspace``, ``generator_rows`` checks the
  length-2 rows that ``logical._layer_relation`` lays on the identity
  and the cyclic shift
  (``test_logical.test_layer_relation_matches_dense_nullspace``).
- ``enumerate_deformable`` lists every deformable tuple, and ``orbit``
  closes a tuple breadth-first under ``group_generators``.  They check
  ``classify.classify_orbits`` and ``orbit_canonical``, which names an
  orbit by the least of ``orbit_normal_forms``, the normal forms
  (``normal_form``) of its permuted and scaled copies
  (``test_classify.test_normal_form_matches_breadth_first_orbits`` and the
  other ``test_classify`` tests,
  ``test_conditions.test_*_invariant_*``,
  ``test_acceptance.test_criterion_01_*``, ``_07_*`` and ``_12d_*``).
- ``orbits_by_walk`` walks the normal forms one orbit at a time with
  ``orbit_normal_forms`` and a set of those already seen.  It checks the
  representatives and orbit sizes that ``classify._orbit_counts`` counts
  from one array pass of orbit keys
  (``test_classify.test_orbit_keys_match_the_walk``).
- ``solve`` and the polynomials through ``matrix_min_poly`` give minimal
  polynomials by Krylov sequences.  No production code uses them; they
  check the Cayley--Hamilton divisibility chain that the Krylov bound of
  ``canonical_reduction`` rests on (``test_fp.test_*min_poly*``,
  ``test_fp.test_divisibility_chain_and_krylov_independence``,
  ``test_fp.test_poly_division``, ``test_fp.test_solve_consistency``,
  ``test_acceptance.test_criterion_12a_*``).
- ``mat_mul``, ``mat_det`` and ``mat_inverse`` are dense products and
  eliminations of any square size.  They check the adjugate of
  ``rel_transition``
  (``test_conditions.test_rel_transition_matches_dense_oracles``)
  and the transition identities (``test_conditions``,
  ``test_acceptance.test_criterion_12b_*``, ``test_fp``).
- ``commutation_exponent`` sums the symplectic form over the shared
  sites of two configurations; ``verify_witness`` uses it.
  ``translation_exponents_by_shift`` applies it to copies of a generator
  shifted by ``config_shift``, and ``translation_exponents`` walks the
  generator's support site by site; ``config_mul`` and ``config_scale``
  multiply and scale configurations for the tests and demo 02.  Together
  they check the label Gram matrix's ``codes.neighbor_exponents``, on
  the open lattice and folded on tori (``logical._folded_exponents``),
  ``codes.verify_translation_commutation``,
  ``logical.TorusCode.check_abelian`` and ``logical.commutation_table``
  (``test_codes.test_translation_exponents_match_shifted_copies``,
  ``test_logical.test_census_candidates_match_planar_operators``,
  ``test_logical.test_census_tables_from_plane_arrays_match_configurations``,
  ``test_logical.test_census_operators_reverify_per_generator``).
- ``inversion_image`` reflects a configuration through a (half-)lattice
  centre.  It checks the inversion symmetry that
  ``codes.build_generator`` builds in (``test_codes.test_inversion_*``,
  ``test_codes.test_generator_inversion_invariant``).
- ``is_logical`` takes the syndrome on the whole torus by rolled copies
  of the configuration, and ``build_planar_operator`` (with
  ``PlanarPattern`` and ``face_tile``) tiles one plane as a
  configuration, one site at a time; ``tiled_candidates`` multiplies
  the tilings into the nine census candidates by ``config_mul``.  They
  check the plane arrays of ``logical._census_planes`` and the verdicts
  ``logical._census_verdicts`` gathers from the label Gram matrix
  (``test_logical.test_census_candidates_match_planar_operators``,
  ``test_logical.test_is_logical_matches_dense_syndrome``).
  ``census_by_rolls``, the one census oracle, runs the tier search on
  them.  It checks ``logical.plane_census``'s entries and operators,
  and so the proof that a plain tiling always decides, on sides 2-16
  (``test_logical.test_census_reads_only_side_parities``).
  ``planar_census`` and ``census_operators`` are views of
  ``logical.plane_census`` for the tests and demo 04 (``test_logical``,
  ``test_acceptance.test_criterion_09_*``); ``plane_config`` turns the
  census's plane arrays into the configurations ``census_operators``
  returns.  Through it, ``commutation_exponent`` checks the tables the
  command line takes straight from the plane arrays
  (``test_logical.test_census_tables_from_plane_arrays_match_configurations``).
- ``product_of_all_generators`` multiplies every cube generator of a
  torus.  It checks the bit ``cli.cmd_logical`` reads off the label sum
  (``test_cli.test_logical_identity_bit_matches_the_product``) and is
  checked against the dense torus matrix
  (``test_logical.test_product_of_all_generators_matches_dense_row_sum``).
- ``layer_relation_by_nullspace`` is the layer relation W as the dense
  nullspace of [B1; B0]^T, 2m x 2m for m cubes per layer.  It checks
  the row space of ``logical._layer_relation``, which
  ``transfer.periodic_states`` gives along one cube row
  (``test_logical.test_layer_relation_matches_dense_nullspace``).
  ``left_kernel_dim_by_composition`` composes W layer by layer around
  the torus.  It checks ``logical._left_kernel_dim`` on tori too large
  for the dense rank, degenerate tuples included
  (``test_logical.test_transfer_k_matches_composition_sweep``).
- ``build_projector`` builds one syndrome projector P(s, r) as an
  operator sum from the rows of the power table ``algebra._powers``
  gives, the table an ``algebra.PowerTable`` is built on.  It and the
  operator sums below reach the product rule, ``algebra._monomial_mul``,
  through the ``algebra`` module at each call, so a rule a test
  substitutes there reaches both routes.
- An ``OperatorSum`` is a rational combination of phased monomials:
  integer numerators keyed by (x, z, phase) over one positive
  denominator, which products multiply, so no step leaves the integers.
  The only relation among keys, 1 + omega + ... + omega^(p-1) = 0, is
  applied once, in ``canonical()``, when sums are compared.
  ``op_mul``, ``op_add``, ``op_is_zero`` and ``operator_identity`` are
  its term-pair product, sum, zero test and identity; the command line
  never needs them.  The tests and demo 05 check the sums against dense
  matrices and fractions with them (``test_algebra.test_operator_sums_*``,
  ``test_algebra.test_integer_products_*``).
- ``verify_projector_identities_by_sums`` multiplies the p projectors
  term pair by term pair by ``op_mul`` and compares ``canonical()``
  forms.  It checks the verdicts that
  ``algebra.PowerTable.projector_identities`` reads off one integer count
  array, under the real product rule and broken ones
  (``test_algebra.test_batched_projector_checks_match_operator_sums``).
- ``verify_inversion_action_by_sums`` conjugates P(s, r) by
  ``inversion_conjugate``, which re-indexes each term's sites, and
  compares ``canonical()`` forms with P(s, r) or P(s, -r).  It checks the verdicts that
  ``algebra.PowerTable.inversion_action`` reads off the table's counts,
  for every label r, under the real product rule and broken ones
  (``test_algebra.test_inversion_verdicts_match_operator_sums``).
- ``identity_pauli`` is the identity monomial on a site tuple,
  ``pauli_mul`` applies the product rule to two monomials, ``pauli_power``
  and ``pauli_inverse`` (the (p - 1)-th power) repeat it,
  ``commutator_exponent`` is the summed symplectic form of two monomials,
  ``pauli_from_config`` lifts a configuration to a phase-0 monomial, and
  ``add_monomial`` adds one to an ``OperatorSum``.  The tests and demo 05
  use them to state the algebra's identities one operator at a time
  (``test_algebra``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import gcd, lcm

import numpy as np

from . import algebra, fp
from .algebra import (
    CUBE_CENTER,
    MAX_ALGEBRA_MODULUS,
    PhasedPauli,
    _check_odd_prime,
    _inversion_perm,
    generator_pauli,
)
from .codes import (
    CodeParams,
    InvalidCenterError,
    Pair,
    PauliConfig,
    Site,
    VERTICES,
    build_generator,
    check_dims,
    cube_sites,
    cubes_touching,
    doubled_center,
    generator_config,
    scale_pair,
    symplectic_product,
)
from .conditions import (
    PAIR_NAMES,
    PAIRINGS,
    WIDTH1_TRANSITIONS,
    SingularDenominatorError,
    TheoremReport,
    theorem1_report,
)
from .logical import CENSUS_TIERS, TorusCode, _sweep_axes, plane_census
from .oracle import (
    SegmentGeometry,
    Section,
    _ends_witness,
    _labels,
    _template,
    _vector_to_config,
)
from .transfer import transfer


def verify_witness(params: CodeParams, geom: SegmentGeometry, witness: PauliConfig) -> bool:
    """Re-check a witness against every anchor-avoiding generator.

    Independent of the constraint matrix: generators are rebuilt as
    configurations and tested through the commutation exponent.
    """
    anchor1, anchor2 = anchors(geom)
    for c in cubes_touching(witness.support, avoid=anchor1 | anchor2):
        if commutation_exponent(generator_config(params, c), witness) != 0:
            return False
    return True


def anchors(geom: SegmentGeometry) -> tuple[set[Site], set[Site]]:
    """The two anchor cross-sections, one step beyond each strip end."""
    return set(geom.column_sites(-1)), set(geom.column_sites(geom.length))


# ---------------------------------------------------------------------------
# Dense segment solver


def build_segment_constraints(params: CodeParams, geom: SegmentGeometry) -> np.ndarray:
    """One scalar row per generator overlapping the strip but not the anchors.

    A row pairs the generator symplectically with the (z, x) unknowns: its
    (x, z) labels land on the (z, x) columns with the second one negated.
    """
    support = geom.support()
    index = {q: t for t, q in enumerate(support)}
    anchor1, anchor2 = anchors(geom)
    cubes = cubes_touching(support, avoid=anchor1 | anchor2)
    rows = generator_rows(params, cubes, index.get, len(support))
    rows[:, 1::2] = (-rows[:, 1::2]) % params.p
    return rows


@dataclass
class SegmentSolution:
    """Verdict for one strip: solution space size, nontriviality, and a witness."""

    geometry: SegmentGeometry
    nullspace_dim: int
    nontrivial: bool
    witness: PauliConfig | None


def solve_segment(params: CodeParams, geom: SegmentGeometry) -> SegmentSolution:
    """Solve the constraint system and decide nontriviality for one strip."""
    basis = fp.nullspace(build_segment_constraints(params, geom), params.p)
    vec = _ends_witness(basis, 2 * len(geom.section), params.p)
    witness = None if vec is None else _vector_to_config(params, geom.support(), vec)
    return SegmentSolution(geom, basis.shape[0], vec is not None, witness)


# ---------------------------------------------------------------------------
# Canonical block reduction


def pair_system(params: CodeParams, axis: int, section: Section) -> np.ndarray:
    """The length-2 system of a strip family, gathered from its
    ``oracle._template`` as ``oracle._scan_stack`` gathers a whole stack.
    ``build_segment_constraints`` is the oracle."""
    T = _template(axis, section)
    return _labels([params])[0, T].reshape(len(T), -1)


def strip_transfer(params: CodeParams, axis: int,
                   section: Section) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``transfer`` blocks ``(A, F, v)`` of a strip family's
    ``pair_system``.  The cubes at each length position act on the two
    column blocks they meet alike, so the blocks hold at every length."""
    M = pair_system(params, axis, section)
    return transfer(M, M.shape[1] // 2, params.p)


class PivotError(ValueError):
    """Raised when block elimination meets a rank-deficient pivot block
    (possible only when deformability fails)."""


@dataclass
class ReductionResult:
    """Outcome of the structured block elimination of a strip system."""

    transfer_block: np.ndarray
    leftover_block: np.ndarray
    residual: np.ndarray
    rank: int
    nullspace_dim: int
    direct_rank: int
    agrees_with_direct: bool
    krylov_bound_ok: bool


def canonical_reduction(params: CodeParams, geom: SegmentGeometry) -> ReductionResult:
    """Block-eliminate the strip system into upper block-triangular form.

    Constraint rows split by the length coordinate of their cube; every
    group touches only two adjacent column blocks through the same pair
    of blocks, so eliminating each group against its own column block
    (``strip_transfer``) leaves an identity block, one transfer block T
    feeding the next column, and one block of leftover rows v, the same
    for every group.  The leftover rows propagate to the final column
    block, whose rank fixes the rank of the whole system:

        rank = 2w(l-1) + rank(residual)
             <= 2w(l-1) + rank(Krylov stack of the leftover rows).

    The rank is compared with a direct elimination of the full system.
    Raises PivotError when a pivot block is rank deficient, which can
    only happen for codes failing deformability.
    """
    p, length = params.p, geom.length
    A, F, v = strip_transfer(params, geom.axis, geom.section)
    ncols = A.shape[0]
    if F.shape[1]:
        raise PivotError(f"pivot block of the width-{len(geom.section)} strip "
                         f"along axis {geom.axis} has rank < {ncols}")
    krylov = [v]  # v A^i; the residual takes i < l-1, the Krylov stack i < 2w
    while len(krylov) < max(length - 1, ncols):
        krylov.append((krylov[-1] @ A) % p)
    residual = np.concatenate(krylov[:length - 1][::-1], axis=0)  # v A^(l-2), ..., v

    rank = ncols * (length - 1) + fp.mat_rank(residual, p)
    direct_rank = fp.mat_rank(build_segment_constraints(params, geom), p)
    krylov_rank = fp.mat_rank(np.concatenate(krylov[:ncols], axis=0), p)

    return ReductionResult(
        transfer_block=(-A) % p,
        leftover_block=v,
        residual=residual,
        rank=rank,
        nullspace_dim=ncols * length - rank,
        direct_rank=direct_rank,
        agrees_with_direct=rank == direct_rank,
        krylov_bound_ok=rank <= ncols * (length - 1) + krylov_rank,
    )


def scan_family(p: int, A: np.ndarray, F: np.ndarray, v: np.ndarray, l_max: int):
    """``(dims, nontrivial, (A, F, kernel))`` of one strip family from its
    ``strip_transfer`` blocks: the nullspace dimension and nontriviality at
    lengths 2..l_max, and what ``oracle._transfer_witness`` needs at the
    last nontrivial length.

    A length-l solution is fixed by the parameters (x_{l-1}, z_{l-2}, ...,
    z_0) of the transfer recursion, and distinct parameters give distinct
    solutions, since z_g is part of x_g.  One length more puts the
    constraint ``v x_0 = 0`` on the old first column and prepends the new
    first column ``A x_0 + F z`` with z free: the kernel basis (rows, in
    parameter coordinates) is cut by one nullspace and grows by an identity
    block for z.  Its row count is the nullspace dimension, and the length
    is nontrivial when the kernel's first and last columns are both nonzero.
    Only the kernel of the last nontrivial length is kept.  The kernel
    recursion multiplies the whole kernel, about f l x f l, at every
    length; ``transfer.scan`` keeps the reduced constraint space instead.
    """
    n, f = F.shape
    kernel = np.eye(n, dtype=np.int64)  # length 1: the parameters are x_0
    first = kernel                      # each basis row's first column x_0
    dims, nontrivial, last = [0] * (l_max - 1), [False] * (l_max - 1), None
    for i in range(l_max - 1):  # length i + 2
        if not kernel.shape[0]:
            break  # then F has no columns, and no longer strip has a solution
        coeffs = fp.nullspace((v @ first.T) % p, p)
        first = np.concatenate([((coeffs @ first) % p @ A.T) % p, F.T])
        cut = (coeffs @ kernel) % p
        kernel = np.zeros((cut.shape[0] + f, cut.shape[1] + f), dtype=np.int64)
        kernel[:cut.shape[0], :cut.shape[1]] = cut
        kernel[cut.shape[0]:, cut.shape[1]:] = np.eye(f, dtype=np.int64)
        dims[i] = kernel.shape[0]
        nontrivial[i] = bool(first.any() and kernel[:, :n].any())
        if nontrivial[i]:
            last = kernel
    return dims, nontrivial, (A, F, last)


class PrerequisiteError(ValueError):
    """Raised when a check is asked for a code that fails deformability."""


def base_matrix(a: Pair, c: Pair, p: int) -> np.ndarray:
    """T(a, c) = [[a1, -a2], [c1, -c2]] mod p."""
    return np.array([[a[0], -a[1]], [c[0], -c[1]]], dtype=np.int64) % p


def rel_transition(num: tuple[Pair, Pair], den: tuple[Pair, Pair], p: int) -> np.ndarray:
    """T(num | den) = T(den)^-1 T(num): the adjugate of T(den) over its
    determinant -<den[0], den[1]>.  Raises SingularDenominatorError when
    <den[0], den[1]> = 0."""
    w = symplectic_product(den[0], den[1], p)
    if w == 0:
        raise SingularDenominatorError(f"denominator pairs {den} are proportional mod {p}")
    (a, b), (c, d) = base_matrix(*den, p)
    return np.array([[d, -b], [-c, a]]) @ base_matrix(*num, p) % p * pow(-w, -1, p) % p


def width1_matrices(params: CodeParams) -> list:
    """The three direction transition matrices entering the width-1 test."""
    pairs = params.pairs
    return [rel_transition((pairs[n0], pairs[n1]), (pairs[d0], pairs[d1]), params.p)
            for (n0, n1), (d0, d1) in WIDTH1_TRANSITIONS]


def minimal_string_determinants_by_matrices(params: CodeParams) -> list[int]:
    """det(T - T^-1) for each direction matrix, by dense inverses and
    determinants.

    Raises SingularDenominatorError while building the matrices, then
    fp.SingularMatrixError for the first T that is not invertible.
    """
    p = params.p
    return [mat_det(T - mat_inverse(T, p), p) for T in width1_matrices(params)]


def corner_determinant_by_matrices(params: CodeParams) -> dict:
    """``conditions.corner_determinant_check`` by the literal block product
    T_int = T(delta 0 | gamma alpha) - T(beta delta | gamma alpha) T(alpha 0 | gamma alpha),
    each factor a dense inverse of T(gamma, alpha) times a base matrix.

    Raises SingularDenominatorError, as the closed form does, when
    T(gamma, alpha) is singular.
    """
    p = params.p
    a, b, g, d = params.pairs
    zero: Pair = (0, 0)
    try:
        inverse = mat_inverse(base_matrix(g, a, p), p)
    except fp.SingularMatrixError:
        raise SingularDenominatorError(
            f"denominator pairs {(g, a)} are proportional mod {p}") from None
    t_d0, t_bd, t_a0 = (mat_mul(inverse, base_matrix(*num, p), p)
                        for num in ((d, zero), (b, d), (a, zero)))
    det = mat_det(t_d0 - mat_mul(t_bd, t_a0, p), p)
    claimed = (symplectic_product(a, g, p) * symplectic_product(a, d, p)
               * symplectic_product(d, a, p)) % p
    return {
        "computed_det": det,
        "claimed_det": claimed,
        "match": det == claimed,
        "nonzero": det != 0 and claimed != 0,
    }


def theorem1_report_by_matrices(params: CodeParams) -> TheoremReport:
    """The three-condition report with each product taken from the pairs
    where it is needed, and the width-1 determinants by matrices."""
    p, pairs = params.p, params.pairs
    prods = {f"{PAIR_NAMES[i]}{PAIR_NAMES[j]}": symplectic_product(pairs[i], pairs[j], p)
             for i, j in combinations(range(4), 2)}
    deform = all(prods.values())
    squares_detail = []
    for (i, j), (k, l) in PAIRINGS:
        u = symplectic_product(pairs[i], pairs[j], p)
        v = symplectic_product(pairs[k], pairs[l], p)
        squares_detail.append({
            "pairing": f"{PAIR_NAMES[i]}{PAIR_NAMES[j]}|{PAIR_NAMES[k]}{PAIR_NAMES[l]}",
            "products": (u, v),
            "squares_mod_p": ((u * u) % p, (v * v) % p),
            "distinct_mod_p": (u * u) % p != (v * v) % p,
            "distinct_integer": u * u != v * v,
        })
    squares = tuple(e["distinct_mod_p"] for e in squares_detail)
    discrepancies = [
        {"kind": "condition3-reading-mismatch", "pairing": e["pairing"],
         "mod_p": e["distinct_mod_p"], "integer": e["distinct_integer"]}
        for e in squares_detail if e["distinct_mod_p"] != e["distinct_integer"]
    ]
    dets = minimal_string_determinants_by_matrices(params) if deform else None
    minimal = tuple(d != 0 for d in dets) if deform else None
    details = {"symplectic_products": prods, "pairing_squares": squares_detail,
               "width1_determinants": dets}
    overall = deform and all(minimal) and all(squares)
    return TheoremReport(deform, minimal, squares, overall, details, discrepancies)


def width1_criterion(params: CodeParams, lengths=range(2, 7)) -> dict:
    """Compare the width-1 determinant test against the segment solver.

    Evaluates det(T - T^-1) for the three direction matrices and runs the
    solver at width 1 over the given lengths for each length axis.  The
    determinant test asserts det != 0 implies no width-1 string; the
    returned flags record whether the solver agrees, in aggregate and as
    unordered per-direction multisets (the direction-to-matrix pairing is
    convention dependent).
    """
    report = theorem1_report(params)
    if not report.deformability:
        raise PrerequisiteError("width-1 criterion needs a deformable code")
    dets = report.details["width1_determinants"]
    det_nonzero = [d != 0 for d in dets]
    oracle_no_string = []
    for axis in range(3):
        hit = False
        for length in lengths:
            if solve_segment(params, SegmentGeometry(axis, ((0, 0, 0),), length)).nontrivial:
                hit = True
                break
        oracle_no_string.append(not hit)
    return {
        "determinants": dets,
        "det_nonzero": det_nonzero,
        "oracle_no_string": oracle_no_string,
        "aggregate_agreement": all(det_nonzero) == all(oracle_no_string),
        "multiset_agreement": sorted(det_nonzero) == sorted(oracle_no_string),
        "polarity": "det-nonzero-implies-no-string",
    }


# ---------------------------------------------------------------------------
# Constructive flattening


class FlattenError(ValueError):
    """Raised when a configuration cannot be deformed onto the target
    profile; carries the first blocking site."""

    def __init__(self, site: Site, message: str | None = None):
        self.site = site
        super().__init__(message or f"cannot eliminate support at site {site}")


def config_row(config: PauliConfig, index, n_sites: int) -> np.ndarray | None:
    """A configuration in ``generator_rows``' column layout, or None when
    ``index`` gives some support site no column."""
    vec = np.zeros(2 * n_sites, dtype=np.int64)
    for q, pair in config.support.items():
        t = index(q)
        if t is None:
            return None
        vec[2 * t], vec[2 * t + 1] = pair
    return vec


def kink_profile(box: tuple[int, int, int]) -> set[Site]:
    """Target support after flattening a (w, h, l) box: the bottom row of
    each cross section plus the far column above its end, for all lengths."""
    w, h, l = box
    prof = set()
    for z in range(l):
        for x in range(w):
            prof.add((x, 0, z))
        for y in range(1, h):
            prof.add((w - 1, y, z))
    return prof


def in_box_cubes(box: tuple[int, int, int]) -> list[Site]:
    w, h, l = box
    return [(x, y, z) for x in range(w - 1) for y in range(h - 1) for z in range(l - 1)]


def box_sites(box: tuple[int, int, int]) -> list[Site]:
    w, h, l = box
    return [(x, y, z) for x in range(w) for y in range(h) for z in range(l)]


def in_box_generator_matrix(params: CodeParams, box: tuple[int, int, int]):
    """Matrix of in-box generator vectors over the box coordinates.

    Returns (matrix, cubes, index); rows are generators, and ``index`` maps
    each box site, in ``box_sites`` order, to its column pair
    (x-exponent then z-exponent).
    """
    index = {q: t for t, q in enumerate(box_sites(box))}
    cubes = in_box_cubes(box)
    return generator_rows(params, cubes, index.get, len(index)), cubes, index


def is_stabilizer_combination(params: CodeParams, config: PauliConfig,
                              box: tuple[int, int, int]) -> bool:
    """Exact span membership of a config in the in-box generators; False
    when the config has support outside the box."""
    M, _, index = in_box_generator_matrix(params, box)
    vec = config_row(config, index.get, len(index))
    if vec is None:
        return False
    return fp.mat_rank(np.concatenate([M, vec.reshape(1, -1)]), params.p) == fp.mat_rank(M, params.p)


def flatten_segment(params: CodeParams, config: PauliConfig,
                    box: tuple[int, int, int]) -> PauliConfig:
    """Deform a box-supported configuration onto the kinked surface profile.

    Multiplies by in-box generators only, so the result is exactly
    equivalent to the input.  Flat inputs are returned unchanged.  When
    no in-box combination clears the off-profile support (inevitably so
    for some inputs when deformability fails), FlattenError names the
    first site that cannot be eliminated.
    """
    w, h, l = box
    if min(box) < 1:
        raise ValueError(f"box must be positive, got {box}")
    for q in config.support:
        if not (0 <= q[0] < w and 0 <= q[1] < h and 0 <= q[2] < l):
            raise ValueError(f"config has support outside the box at {q}")
    profile = kink_profile(box)
    if all(q in profile for q in config.support):
        return config.copy()

    p = params.p
    M, cubes, index = in_box_generator_matrix(params, box)
    target = (-config_row(config, index.get, len(index))) % p
    off = [(q, t) for q, t in index.items() if q not in profile]

    def build_rows(n):
        # the generators' (x, z) columns at the first n off-profile sites
        cols = [j for _, t in off[:n] for j in (2 * t, 2 * t + 1)]
        return M[:, cols].T, target[cols]

    coeffs = solve(*build_rows(len(off)), p)
    if coeffs is None:
        for n in range(1, len(off) + 1):
            if solve(*build_rows(n), p) is None:
                raise FlattenError(off[n - 1][0])
        raise FlattenError(off[-1][0])  # unreachable; defensive

    out = config.copy()
    for j, c in enumerate(cubes):
        x = int(coeffs[j])
        if x:
            out = config_mul(out, config_scale(generator_config(params, c), x))
    leftover = [q for q in out.support if q not in profile]
    if leftover:
        raise FlattenError(sorted(leftover)[0], "elimination left off-profile support")
    return out


# ---------------------------------------------------------------------------
# Tuple enumeration and breadth-first orbits


SL2_GENERATORS = (((1, 1), (0, 1)), ((0, -1), (1, 0)))

Tuple4 = tuple[Pair, Pair, Pair, Pair]


def nonzero_pairs(p: int) -> list[Pair]:
    return [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]


def enumerate_deformable(p: int) -> list[Tuple4]:
    """All ordered 4-tuples of nonzero, pairwise non-proportional pairs.

    Pairwise non-proportionality is exactly the deformability condition
    (all six symplectic products nonzero).  Empty for p = 2: there are
    only three nontrivial pairs up to scale.
    """
    p = fp.check_prime(p)
    pairs = nonzero_pairs(p)
    out = []
    for a in pairs:
        for b in pairs:
            if symplectic_product(a, b, p) == 0:
                continue
            for g in pairs:
                if symplectic_product(a, g, p) == 0 or symplectic_product(b, g, p) == 0:
                    continue
                for d in pairs:
                    if (symplectic_product(a, d, p) and symplectic_product(b, d, p)
                            and symplectic_product(g, d, p)):
                        out.append((a, b, g, d))
    return out


def primitive_root(p: int) -> int:
    """Smallest primitive root mod p (p prime)."""
    if p == 2:
        return 1
    order = p - 1
    factors = []
    n, d = order, 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found for {p}")


def _apply_matrix(t: Tuple4, M, p: int) -> Tuple4:
    return tuple(
        (((M[0][0] * a[0] + M[0][1] * a[1]) % p, (M[1][0] * a[0] + M[1][1] * a[1]) % p))
        for a in t
    )


def _apply_scalar(t: Tuple4, c: int, p: int) -> Tuple4:
    return tuple(((a[0] * c) % p, (a[1] * c) % p) for a in t)


def _swap(t: Tuple4, i: int) -> Tuple4:
    out = list(t)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def group_generators(p: int) -> list[tuple[str, callable, bool]]:
    """Equivalence-group generators as (name, action, bulk_only) triples.

    Adjacent transpositions generate the permutation action; the two
    SL(2, p) generators plus a primitive-root scalar generate the matrix
    action; the global negation is the bulk/even-length parity flip.
    """
    gens: list[tuple[str, callable, bool]] = []
    for i, name in ((0, "swap-alpha-beta"), (1, "swap-beta-gamma"), (2, "swap-gamma-delta")):
        gens.append((name, (lambda t, i=i: _swap(t, i)), False))
    for M in SL2_GENERATORS:
        gens.append((f"sl2-{M}", (lambda t, M=M: _apply_matrix(t, M, p)), False))
    r = primitive_root(p)
    gens.append((f"scalar-{r}", (lambda t: _apply_scalar(t, r, p)), False))
    gens.append(("parity-flip", (lambda t: _apply_scalar(t, p - 1, p)), True))
    return gens


def orbit(t: Tuple4, p: int) -> set[Tuple4]:
    """Breadth-first closure of a tuple under the fixed-parity generators."""
    actions = [fn for _, fn, bulk in group_generators(p) if not bulk]
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for u in frontier:
            for act in actions:
                v = act(u)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def normal_form(t: Tuple4, p: int) -> Tuple4:
    """The unique SL(2, p)-image of ``t`` with alpha = (0, 1), beta = (-w, 0).

    With w = <alpha, beta>, the image of a pair v is
    (-<alpha, v>, -<beta, v> / w), because SL(2, p) preserves the
    symplectic product.  Requires w != 0.
    """
    a, b = t[0], t[1]
    w_inv = fp.fp_inv(symplectic_product(a, b, p), p)
    return tuple(((-symplectic_product(a, v, p)) % p,
                  (-symplectic_product(b, v, p) * w_inv) % p) for v in t)


def orbit_normal_forms(t: Tuple4, p: int) -> set[Tuple4]:
    """Normal forms of the SL(2, p) classes that make up the orbit of ``t``.

    These are the normal forms of c * sigma(t) over the 24 permutations
    sigma and the scalars c.  Scaling by c multiplies every symplectic
    product by c^2, so it multiplies the first coordinates of the normal
    form by c^2 and leaves the second ones alone.
    """
    if any(symplectic_product(u, v, p) == 0 for u, v in combinations(t, 2)):
        raise ValueError(f"tuple {t} is not deformable mod {p}")
    squares = {c * c % p for c in range(1, p)}
    forms = [normal_form(s, p) for s in permutations(t)]
    return {tuple(((q * x) % p, y) for x, y in nf) for nf in forms for q in squares}


def orbit_canonical(t: Tuple4, p: int) -> Tuple4:
    """Lexicographically least member of the orbit of a deformable tuple.

    Every orbit member is some c * M * sigma(t).  The least one has
    alpha = (0, 1) and second component of beta 0, so it is the least
    normal form over the permutations sigma and scalars c.
    """
    return min(orbit_normal_forms(t, p))


def orbits_by_walk(p: int) -> list[tuple[Tuple4, int]]:
    """(representative, orbit size) of every orbit at modulus p, in order.

    Walks the normal forms alpha = (0, 1), beta = (-w, 0), gamma and
    delta one orbit at a time, and skips those already in a visited
    orbit.  Each normal form stands for p(p^2 - 1) tuples.
    """
    units = range(1, p)
    mixed = [(x, y) for x in units for y in units]
    forms = (((0, 1), (p - w, 0), g, d) for w in units for g in mixed for d in mixed
             if symplectic_product(g, d, p))
    seen: set[Tuple4] = set()
    orbits: dict[Tuple4, int] = {}
    for t in forms:
        if t not in seen:
            members = orbit_normal_forms(t, p)
            seen |= members
            orbits[min(members)] = len(members) * p * (p * p - 1)
    return sorted(orbits.items())


# ---------------------------------------------------------------------------
# Dense square matrices over F_p


def mat_mul(A, B, p: int) -> np.ndarray:
    """Exact matrix product mod p."""
    return (fp.normalize(A, p) @ fp.normalize(B, p)) % p



def mat_det(M, p: int) -> int:
    """Determinant of a square matrix over F_p."""
    A = fp.normalize(M, p).copy()
    m, n = A.shape
    if m != n:
        raise ValueError(f"determinant needs a square matrix, got {m}x{n}")
    det = 1
    for c in range(n):
        nz = np.nonzero(A[c:, c])[0]
        if nz.size == 0:
            return 0
        pr = c + int(nz[0])
        if pr != c:
            A[[c, pr]] = A[[pr, c]]
            det = (-det) % p
        piv = int(A[c, c])
        det = (det * piv) % p
        inv = fp.fp_inv(piv, p)
        below = np.nonzero(A[c + 1:, c])[0]
        if below.size:
            rows = c + 1 + below
            factors = (A[rows, c] * inv) % p
            A[rows] = (A[rows] - np.outer(factors, A[c])) % p
    return det


def mat_inverse(M, p: int) -> np.ndarray:
    """Inverse of a square matrix over F_p.  Raises SingularMatrixError."""
    M = fp.normalize(M, p)
    m, n = M.shape
    if m != n:
        raise ValueError(f"inverse needs a square matrix, got {m}x{n}")
    aug = np.concatenate([M, np.eye(n, dtype=np.int64)], axis=1)
    R, pivot_cols = fp.mat_rref(aug, p)
    if pivot_cols[:n] != list(range(n)):
        raise fp.SingularMatrixError(f"matrix is singular mod {p}")
    return R[:, n:]


# ---------------------------------------------------------------------------
# Linear solve and polynomials over F_p (coefficient lists, lowest degree
# first, trimmed so the leading coefficient is nonzero; zero is ``[0]``)


def solve(A, b, p: int) -> np.ndarray | None:
    """One exact solution of ``A x = b`` over F_p, or ``None`` if inconsistent.

    Free variables are set to 0.
    """
    A = fp.normalize(A, p)
    b = fp.normalize(b, p).reshape(-1)
    m, n = A.shape
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivot_cols = fp.mat_rref(aug, p)
    if n in pivot_cols:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivot_cols):
        x[c] = R[i, n]
    return x


def poly_trim(c: list[int], p: int) -> list[int]:
    c = [int(x) % p for x in c]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c if c else [0]


def poly_is_zero(c: list[int]) -> bool:
    return all(x == 0 for x in c)


def poly_deg(c: list[int]) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return -1 if poly_is_zero(c) else len(c) - 1


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if poly_is_zero(a) or poly_is_zero(b):
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out, p)


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ``a / b`` over F_p."""
    a = poly_trim(a, p)
    b = poly_trim(b, p)
    if poly_is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(1, len(a) - len(b) + 1)
    r = list(a)
    inv_lead = fp.fp_inv(b[-1], p)
    while not poly_is_zero(r) and len(r) >= len(b):
        shift = len(r) - len(b)
        coef = (r[-1] * inv_lead) % p
        q[shift] = coef
        for i, x in enumerate(b):
            r[shift + i] = (r[shift + i] - coef * x) % p
        r = poly_trim(r, p)
    return poly_trim(q, p), r


def poly_divides(a: list[int], b: list[int], p: int) -> bool:
    """True when ``a`` divides ``b`` exactly over F_p."""
    if poly_is_zero(a):
        return poly_is_zero(b)
    _, r = poly_divmod(b, a, p)
    return poly_is_zero(r)


def poly_monic(a: list[int], p: int) -> list[int]:
    a = poly_trim(a, p)
    if poly_is_zero(a):
        return a
    inv = fp.fp_inv(a[-1], p)
    return [(x * inv) % p for x in a]


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = poly_trim(a, p), poly_trim(b, p)
    while not poly_is_zero(b):
        _, r = poly_divmod(a, b, p)
        a, b = b, r
    return poly_monic(a, p)


def poly_lcm(a: list[int], b: list[int], p: int) -> list[int]:
    if poly_is_zero(a) or poly_is_zero(b):
        return [0]
    g = poly_gcd(a, b, p)
    q, _ = poly_divmod(poly_mul(a, b, p), g, p)
    return poly_monic(q, p)


def poly_eval_mat(c: list[int], T, p: int) -> np.ndarray:
    """Evaluate the polynomial at a square matrix (Horner), mod p."""
    T = fp.normalize(T, p)
    n = T.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for coef in reversed(poly_trim(c, p)):
        out = (out @ T + coef * np.eye(n, dtype=np.int64)) % p
    return out


def char_poly_2x2(T, p: int) -> list[int]:
    """Characteristic polynomial x^2 - tr(T) x + det(T) of a 2x2 block."""
    T = fp.normalize(T, p)
    if T.shape != (2, 2):
        raise ValueError("closed form is for 2x2 matrices only")
    tr = int(T[0, 0] + T[1, 1]) % p
    det = int(T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]) % p
    return [det, (-tr) % p, 1]


def krylov_min_poly(T, v, p: int) -> list[int]:
    """Least-degree monic m with m(T) v = 0.

    The Krylov vectors v, Tv, ..., T^(d-1)v are linearly independent when
    the result has degree d.  The zero vector yields the constant 1.
    """
    T = fp.normalize(T, p)
    v = fp.normalize(v, p).reshape(-1)
    if not v.any():
        return [1]
    rows = [v]
    while True:
        nxt = (T @ rows[-1]) % p
        K = np.stack(rows, axis=1)  # n x k, columns are Krylov vectors
        coeffs = solve(K, nxt, p)
        if coeffs is not None:
            k = len(rows)
            return poly_trim([(-int(coeffs[i])) % p for i in range(k)] + [1], p)
        rows.append(nxt)


def matrix_min_poly(T, p: int) -> list[int]:
    """Least-degree monic m with m(T) = 0, via lcm of per-basis-vector polys."""
    T = fp.normalize(T, p)
    n = T.shape[0]
    m = [1]
    for i in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        m = poly_lcm(m, krylov_min_poly(T, e, p), p)
        if poly_deg(m) == n:
            break
    return m


# ---------------------------------------------------------------------------
# Pauli configurations: commutation, translates, inversion


def check_compatible(a: PauliConfig, b: PauliConfig) -> None:
    if a.p != b.p:
        raise ValueError(f"modulus mismatch: {a.p} vs {b.p}")
    if a.dims != b.dims:
        raise ValueError(f"torus mismatch: {a.dims} vs {b.dims}")


def config_mul(a: PauliConfig, b: PauliConfig) -> PauliConfig:
    """Phase-free product: sitewise sum of exponent pairs."""
    check_compatible(a, b)
    out = a.copy()
    for site, pair in b.support.items():
        out.add(site, pair)
    return out


def config_scale(a: PauliConfig, c: int) -> PauliConfig:
    out = PauliConfig(a.p, a.dims)
    for site, pair in a.support.items():
        out.add(site, scale_pair(pair, c, a.p))
    return out


def config_shift(a: PauliConfig, offset: Site) -> PauliConfig:
    out = PauliConfig(a.p, a.dims)
    for (x, y, z), pair in a.support.items():
        out.add((x + offset[0], y + offset[1], z + offset[2]), pair)
    return out


def commutation_exponent(a: PauliConfig, b: PauliConfig) -> int:
    """Exponent e with A B = B A omega^e, summed over shared sites."""
    check_compatible(a, b)
    small, big = (a, b) if len(a.support) <= len(b.support) else (b, a)
    e = 0
    for site, pair in small.support.items():
        other = big.support.get(site)
        if other is not None:
            e += pair[0] * other[1] - pair[1] * other[0]
    e %= a.p
    if small is b:
        e = (-e) % a.p
    return e


def translation_exponents(g: PauliConfig, offsets) -> list[int]:
    """Commutation exponent e_o with G T_o(G) = T_o(G) G omega^e_o, per offset o.

    The translate T_o(G) holds at site s what G holds at s - o (folded on
    a torus), so each exponent is read off G's own support, one site at a
    time, and no shifted copy is built.
    """
    p, dims, support = g.p, g.dims, g.support
    out = []
    for ox, oy, oz in offsets:
        e = 0
        for (x, y, z), (ax, az) in support.items():
            q = (x - ox, y - oy, z - oz)
            if dims is not None:
                q = (q[0] % dims[0], q[1] % dims[1], q[2] % dims[2])
            b = support.get(q)
            if b is not None:
                e += ax * b[1] - az * b[0]
        out.append(e % p)
    return out


def translation_exponents_by_shift(g: PauliConfig, offsets) -> list[int]:
    """``translation_exponents`` from shifted copies of ``g``."""
    return [commutation_exponent(g, config_shift(g, o)) for o in offsets]


def generator_rows(params: CodeParams, cubes, index, n_sites: int) -> np.ndarray:
    """One int64 row per cube generator over 2 * ``n_sites`` columns.

    ``index(site)`` gives the site's column pair (x-exponent at 2t,
    z-exponent at 2t + 1), or None to leave the site out.  Labels landing
    on the same site are summed mod p.
    """
    labels = build_generator(params)
    M = np.zeros((len(cubes), 2 * n_sites), dtype=np.int64)
    for r, c in enumerate(cubes):
        for q, v in zip(cube_sites(c), VERTICES):
            t, g = index(q), labels[v]
            if t is not None:
                M[r, 2 * t] += g[0]
                M[r, 2 * t + 1] += g[1]
    return M % params.p


def inversion_image(config: PauliConfig, center) -> PauliConfig:
    """Reflect a configuration through a lattice or dual-lattice centre.

    ``center`` components may be integers or half-integers.  Pairs are
    carried unchanged; only sites move (site -> 2*center - site).  On a
    torus, a half-integer component along an odd-length axis is rejected:
    such a reflection has a fixed site under wrap and cannot pair the
    lattice consistently.
    """
    c2 = doubled_center(center)
    if config.dims is not None:
        for axis, L in enumerate(config.dims):
            if L % 2 == 1 and c2[axis] % 2 == 1:
                raise InvalidCenterError(
                    f"dual-lattice inversion along axis {axis} is misaligned on odd length {L}")
    out = PauliConfig(config.p, config.dims)
    for (x, y, z), pair in config.support.items():
        out.add((c2[0] - x, c2[1] - y, c2[2] - z), pair)
    return out


# ---------------------------------------------------------------------------
# Encoded qudits on tori


def layer_relation_by_nullspace(params: CodeParams, dims) -> np.ndarray:
    """W = {(a, b) : a B1 + b B0 = 0} as the dense nullspace of [B1; B0]^T.

    The cubes of layer 0 across the sweep axis of ``logical._sweep_axes``,
    in the order of ``logical._layer_relation``, act on site layer 0
    through B0 and on site layer 1 through B1.
    """
    a, u, v = _sweep_axes(dims)
    du, dv = dims[u], dims[v]
    m = du * dv

    def index(site):
        return site[a] * m + (site[u] % du) * dv + site[v] % dv

    cubes = []
    for cu, cv in product(range(du), range(dv)):
        c = [0, 0, 0]
        c[u], c[v] = cu, cv
        cubes.append(tuple(c))
    B = generator_rows(params, cubes, index, 2 * m)
    return fp.nullspace(np.vstack([B[:, 2 * m:], B[:, :2 * m]]).T, params.p)


def left_kernel_dim_by_composition(params: CodeParams, dims) -> int:
    """The relation count of ``logical._left_kernel_dim`` by composing W.

    Layer coefficients lambda_0..lambda_{L-1} multiply to the identity iff
    every cyclically consecutive pair (a, b) lies in W
    (``layer_relation_by_nullspace``).  W is composed with itself L - 1
    times: Q is the relation between the first and last layer, and h the
    dimension of the sequences with both ends zero.  Closing the cycle
    adds the dimension of Q on the diagonal.  It eliminates 2m x 2m and
    larger matrices, m the cubes per layer, where the dense rank would
    need the whole n x 2n generator matrix.
    """
    p = params.p
    W = layer_relation_by_nullspace(params, dims)
    m = W.shape[1] // 2
    Wa, Wb = W[:, :m], W[:, m:]
    Q, h = W, 0
    for _ in range(dims[_sweep_axes(dims)[0]] - 1):
        q = len(Q)
        # (alpha, beta) with alpha Q_last = beta W_first
        N = fp.nullspace(np.vstack([Q[:, m:], (-Wa) % p]).T, p)
        image = np.hstack([N[:, :q] @ Q[:, :m], N[:, q:] @ Wb]) % p
        R, pivots = fp.mat_rref(image, p)
        Q = R[:len(pivots)]
        h += len(N) - len(pivots)
    return h + len(Q) - fp.mat_rank(Q[:, :m] - Q[:, m:], p)


# ---------------------------------------------------------------------------
# Planar operators on tori


def product_of_all_generators(torus: TorusCode) -> PauliConfig:
    """Sitewise product over every cube generator on the torus, one
    generator at a time: the zero configuration for antisymmetric codes
    (the global relation behind their guaranteed encoded qudit), a
    uniform configuration otherwise."""
    out = PauliConfig(torus.params.p, torus.dims)
    for c in product(*map(range, torus.dims)):
        for site, pair in generator_config(torus.params, c, torus.dims).support.items():
            out.add(site, pair)
    return out


def is_logical(config: PauliConfig, torus: TorusCode) -> bool:
    """True when the configuration commutes with every cube generator.

    The syndrome at cube c sums, over the cube's vertices u, the
    symplectic product of the label at u with the config at c + u, so it
    is a sum of the config array rolled by -u.
    """
    p, dims = torus.params.p, torus.dims
    C = np.zeros((*dims, 2), dtype=np.int64)
    for site, pair in config.support.items():
        C[tuple(c % L for c, L in zip(site, dims))] = pair
    e = np.zeros(dims, dtype=np.int64)
    for u, (lx, lz) in build_generator(torus.params).items():
        shifted = np.roll(C, tuple(-c for c in u), axis=(0, 1, 2))
        e += lx * shifted[..., 1] - lz * shifted[..., 0]
    return not (e % p).any()


@dataclass(frozen=True)
class PlanarPattern:
    """A tiled plane through the origin: normal axis and tile translation."""

    normal_axis: int
    translation: tuple[int, int] = (0, 0)

    @property
    def plane_axes(self) -> tuple[int, int]:
        u, v = [a for a in range(3) if a != self.normal_axis]
        return (u, v)


def build_planar_operator(params: CodeParams, pattern: PlanarPattern, dims) -> tuple[PauliConfig, bool]:
    """Tile a plane of the torus with the pattern.

    Labels are assigned by absolute coordinate parity, so on a plane with
    an odd dimension the wrap breaks the periodicity; the returned flag
    reports such a seam (the configuration itself is still well formed).
    """
    dims = check_dims(dims)
    u, v = pattern.plane_axes
    tile = face_tile(params, pattern.normal_axis)
    cfg = PauliConfig(params.p, dims)
    ta, tb = pattern.translation
    for cu in range(dims[u]):
        for cv in range(dims[v]):
            site = [0, 0, 0]
            site[u] = cu
            site[v] = cv
            cfg.add(tuple(site), tile[((cu + ta) % 2, (cv + tb) % 2)])
    seam = dims[u] % 2 == 1 or dims[v] % 2 == 1
    return cfg, seam


def face_tile(params: CodeParams, normal_axis: int) -> dict[tuple[int, int], tuple]:
    """Tile entries from the zero-side face of the cube generator.

    Keyed by in-plane vertex offsets; the entry diagonal to alpha carries
    the code's inversion sign, which is what makes the tiling commute
    with every generator on a seamless torus.
    """
    labels = build_generator(params)
    u, v = [a for a in range(3) if a != normal_axis]
    tile = {}
    for vert, g in labels.items():
        if vert[normal_axis] == 0:
            tile[(vert[u], vert[v])] = g
    return tile


def tiled_candidates(params: CodeParams, normal: int, dims) -> list[PauliConfig]:
    """The nine census candidates of one normal axis as configurations:
    the four translated tilings of ``build_planar_operator``, the paper
    pairing of their products (periodic across one direction), and the
    product of all four (uniform)."""
    base = [build_planar_operator(params, PlanarPattern(normal, t), dims)[0]
            for t in ((0, 0), (1, 0), (0, 1), (1, 1))]
    pairs = [config_mul(base[i], base[j]) for i, j in ((0, 1), (2, 3), (0, 2), (1, 3))]
    return base + pairs + [config_mul(pairs[0], pairs[1])]


def census_by_rolls(torus: TorusCode) -> dict[str, tuple[dict, list[PauliConfig], list]]:
    """``logical.plane_census`` with each ``tiled_candidates`` judged by
    ``is_logical`` on the whole torus, one tier search per normal axis;
    the operators it counts are configurations.  Each normal also gives
    every candidate's verdicts, as (logical, nonempty) pairs."""
    out = {}
    for normal in range(3):
        candidates = tiled_candidates(torus.params, normal, torus.dims)
        verdicts = [(is_logical(c, torus), not c.is_identity()) for c in candidates]
        tier, ok = next((tier, ok) for tier, indices in CENSUS_TIERS
                        if (ok := [k for k in indices if all(verdicts[k])]))
        u, v = [a for a in range(3) if a != normal]
        entry = {"count": len(ok), "tier": tier, "transpose": False,
                 "in_plane_dims": (torus.dims[u], torus.dims[v])}
        out[f"normal_{'xyz'[normal]}"] = (entry, [candidates[k] for k in ok], verdicts)
    return out


def planar_census(torus: TorusCode) -> dict:
    """Count valid plane-operator constructions for each orientation."""
    return {name: entry for name, (entry, _) in plane_census(torus).items()}


def plane_config(torus: TorusCode, normal: int, plane: np.ndarray) -> PauliConfig:
    """The (L_u, L_v, 2) plane array as a configuration on site layer 0."""
    u, v = [a for a in range(3) if a != normal]
    support = {}
    for cu, row in enumerate(plane.tolist()):
        for cv, pair in enumerate(row):
            if pair != [0, 0]:
                site = [0, 0, 0]
                site[u], site[v] = cu, cv
                support[tuple(site)] = tuple(pair)
    return PauliConfig(torus.params.p, torus.dims, support)


def census_operators(torus: TorusCode, normal: int) -> list[PauliConfig]:
    """The logical plane operators the census counts for one orientation,
    as configurations."""
    planes = plane_census(torus)[f"normal_{'xyz'[normal]}"][1]
    return [plane_config(torus, normal, plane) for plane in planes]


# ---------------------------------------------------------------------------
# Phased Paulis and syndrome projectors


# The product rule and the power table are looked up on ``algebra`` at
# each call, so a rule the tests substitute there reaches these oracles too.


class _Products(dict):
    """``algebra._monomial_mul`` of each ((x, z), (x', z')) tuple pair
    looked up, formed once."""

    def __init__(self, p: int):
        self.p = p

    def __missing__(self, uv: tuple) -> tuple:
        (xu, zu), (xv, zv) = uv
        x, z, c = algebra._monomial_mul((np.array(xu), np.array(zu)),
                                        (np.array(xv), np.array(zv)), self.p)
        out = self[uv] = (tuple(x.tolist()), tuple(z.tolist()), int(c))
        return out


def _key_mul(u: tuple, v: tuple, products: _Products) -> tuple:
    """Normal-ordered product of (x, z, phase) keys."""
    x, z, c = products[u[:2], v[:2]]
    return (x, z, (u[2] + v[2] + c) % products.p)


def commutator_exponent(u: PhasedPauli, v: PhasedPauli) -> int:
    """e with u v = v u omega^e; the summed sitewise symplectic product."""
    if u.p != v.p or u.sites != v.sites:
        raise ValueError("operands must share modulus and site set")
    return sum(xu * zv - zu * xv for xu, zu, xv, zv in zip(u.x, u.z, v.x, v.z)) % u.p


def pauli_from_config(config: PauliConfig, sites) -> PhasedPauli:
    """Lift a phase-free configuration on ``sites`` to a phase-0 monomial."""
    sites = tuple(sites)
    idx = {q: i for i, q in enumerate(sites)}
    x = [0] * len(sites)
    z = [0] * len(sites)
    for q, pair in config.support.items():
        x[idx[q]], z[idx[q]] = pair
    return PhasedPauli(config.p, sites, tuple(x), tuple(z))


def identity_pauli(p: int, sites) -> PhasedPauli:
    sites = tuple(sites)
    return PhasedPauli(p, sites, (0,) * len(sites), (0,) * len(sites))


def pauli_mul(u: PhasedPauli, v: PhasedPauli) -> PhasedPauli:
    """Normal-ordered product u v."""
    if u.p != v.p or u.sites != v.sites:
        raise ValueError("operands must share modulus and site set")
    return PhasedPauli(u.p, u.sites, *_key_mul(u.key(), v.key(), _Products(u.p)))


def pauli_power(u: PhasedPauli, m: int) -> PhasedPauli:
    if m < 0:
        raise ValueError("power must be nonnegative")
    out = identity_pauli(u.p, u.sites)
    for _ in range(m):
        out = pauli_mul(out, u)
    return out


def pauli_inverse(u: PhasedPauli) -> PhasedPauli:
    return pauli_power(u, u.p - 1) if not u.is_identity() else u


class OperatorSum:
    """Finite rational combination of phased monomials.

    ``terms`` maps (x, z, phase) keys, standing for omega^phase X^x Z^z,
    to nonzero integer numerators over the positive integer ``den``.
    Keys that differ only in phase are dependent, so equality compares
    ``canonical()`` forms.
    """

    __slots__ = ("p", "sites", "den", "terms")

    def __init__(self, p: int, sites):
        self.p = _check_odd_prime(p)
        self.sites = tuple(sites)
        self.den = 1
        self.terms: dict = {}

    def _accumulate(self, key, n: int) -> None:
        new = self.terms.get(key, 0) + n
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def canonical(self) -> tuple[int, dict]:
        """The unique form (d, {(x, z): numerators}) of Q(omega) coefficients.

        Each tuple holds numerators over d on the basis omega^0..omega^(p-2):
        the phase-(p-1) one is subtracted from the others, which is
        1 + omega + ... + omega^(p-1) = 0.  Zero tuples are dropped and d
        shares no factor with all numerators, so zero alone is (1, {}).
        """
        p = self.p
        gathered: dict = {}
        for (x, z, phase), n in self.terms.items():
            gathered.setdefault((x, z), [0] * p)[phase] += n
        out = {}
        for mono, vec in gathered.items():
            last = vec[p - 1]
            if any(n != last for n in vec[:p - 1]):
                out[mono] = [n - last for n in vec[:p - 1]]
        g = gcd(self.den, *(n for vec in out.values() for n in vec))
        return self.den // g, {mono: tuple(n // g for n in vec) for mono, vec in out.items()}

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorSum) and self.p == other.p
                and self.sites == other.sites
                and self.canonical() == other.canonical())

    def __repr__(self) -> str:
        return f"OperatorSum(p={self.p}, terms={len(self.terms)})"


def inversion_conjugate(P: OperatorSum, center) -> OperatorSum:
    """Conjugate by the inversion permutation about a (half-)lattice centre.

    Site permutations carry no phase: each term's exponent vectors are
    re-indexed; phases, numerators and ``den`` are kept.  Raises
    InvalidCenterError unless the centre maps P's sites onto themselves.
    """
    perm = _inversion_perm(P.sites, center)
    out = OperatorSum(P.p, P.sites)
    out.den = P.den
    for (x, z, phase), n in P.terms.items():
        out._accumulate((tuple(x[i] for i in perm), tuple(z[i] for i in perm), phase), n)
    return out


def build_projector(s: PhasedPauli, r: int) -> OperatorSum:
    """P(s, r) = (1/p) sum_m (omega^r s)^m, from the rows of s's power
    table; requires s^p = identity exactly."""
    p = s.p
    out = OperatorSum(p, s.sites)
    out.den = p
    x, z, c = algebra._powers(s)
    for m, (xm, zm, cm) in enumerate(zip(x.tolist(), z.tolist(), c.tolist())):
        out._accumulate((tuple(xm), tuple(zm), (cm + r * m) % p), 1)
    return out


def add_monomial(op: OperatorSum, mono: PhasedPauli, coeff=1) -> None:
    """Add coeff * mono to ``op`` in place, for an integer or rational coeff."""
    if mono.p != op.p or mono.sites != op.sites:
        raise ValueError("monomial does not match this operator sum")
    den = lcm(op.den, coeff.denominator)
    if den != op.den:
        k = den // op.den
        op.terms, op.den = {key: n * k for key, n in op.terms.items()}, den
    op._accumulate(mono.key(), coeff.numerator * (den // coeff.denominator))


def operator_identity(p: int, sites) -> OperatorSum:
    out = OperatorSum(p, sites)
    add_monomial(out, identity_pauli(p, sites))
    return out


def op_mul(a: OperatorSum, b: OperatorSum, products: _Products | None = None) -> OperatorSum:
    """Exact product: the monomial product rule per term pair, numerators
    summed over the product of the operands' denominators."""
    if a.p != b.p or a.sites != b.sites:
        raise ValueError("operator sums must share modulus and sites")
    p = a.p
    products = products if products is not None else _Products(p)
    right = [((x, z), c, n) for (x, z, c), n in b.terms.items()]
    acc: dict = {}
    for (xu, zu, cu), nu in a.terms.items():
        u = (xu, zu)
        for v, cv, nv in right:
            x, z, c = products[u, v]
            key = (x, z, (cu + cv + c) % p)
            acc[key] = acc.get(key, 0) + nu * nv
    out = OperatorSum(p, a.sites)
    out.den = a.den * b.den
    out.terms = {key: n for key, n in acc.items() if n}
    return out


def op_add(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Exact sum, over the least common multiple of the denominators."""
    if a.p != b.p or a.sites != b.sites:
        raise ValueError("operator sums must share modulus and sites")
    out = OperatorSum(a.p, a.sites)
    out.den = lcm(a.den, b.den)
    for op in (a, b):
        for key, n in op.terms.items():
            out._accumulate(key, n * (out.den // op.den))
    return out


def op_is_zero(a: OperatorSum) -> bool:
    return not a.canonical()[1]


def verify_projector_identities_by_sums(params: CodeParams) -> dict:
    """Idempotence, orthogonality, completeness of {P(s, r)} for the cube
    generator, each product summed term pair by term pair by ``op_mul``
    and compared by ``canonical()`` forms."""
    p = _check_odd_prime(params.p, MAX_ALGEBRA_MODULUS)
    products = _Products(p)
    s = generator_pauli(params)
    projectors = [build_projector(s, r) for r in range(p)]
    idempotent = all(op_mul(P, P, products) == P for P in projectors)
    orthogonal = all(
        op_is_zero(op_mul(projectors[r], projectors[q], products))
        for r in range(p) for q in range(p) if r != q)
    total = projectors[0]
    for P in projectors[1:]:
        total = op_add(total, P)
    complete = total == operator_identity(p, s.sites)
    return {"idempotent": idempotent, "orthogonal": orthogonal, "complete": complete}


def verify_inversion_action_by_sums(params: CodeParams, r: int = 1) -> dict:
    """Conjugating P(s, r) by inversion about the cube centre, as operator
    sums: ``inversion_conjugate`` of P(s, r) compared by ``canonical()``
    forms with P(s, r) for symmetric codes and P(s, -r) for antisymmetric
    ones.  The syndrome label r must lie in 0..p-1."""
    p = _check_odd_prime(params.p, MAX_ALGEBRA_MODULUS)
    if not 0 <= r < p:
        raise ValueError(f"syndrome label r must be in 0..{p - 1}, got {r}")
    s = generator_pauli(params)
    conj = inversion_conjugate(build_projector(s, r), CUBE_CENTER)
    expect_r = r if params.parity == "S" else (-r) % p
    return {"r": r, "expected_r": expect_r, "matches": conj == build_projector(s, expect_r)}
