"""Planar logical operators, global relations, encoded-qudit counts."""

import random
import time
from itertools import product

import numpy as np
import pytest

from conftest import random_code, random_deformable_tuple, scale_generators
from qupitcube import codes, fp, logical, transfer
from qupitcube.codes import (
    CodeParams,
    PauliConfig,
    d3_code,
    d5_code,
)
from qupitcube.logical import (
    MAX_TORUS_SITES,
    InvalidCodeError,
    TorusCode,
    commutation_table,
    encoded_qudit_count,
    encoded_qudit_table,
    plane_census,
)
from qupitcube.reference import (
    PlanarPattern,
    build_planar_operator,
    census_by_rolls,
    census_operators,
    commutation_exponent,
    config_mul,
    config_row,
    config_shift,
    face_tile,
    generator_config,
    generator_rows,
    is_logical,
    layer_relation_by_nullspace,
    left_kernel_dim_by_composition,
    planar_census,
    plane_config,
    product_of_all_generators,
    tiled_candidates,
)

ALL_CODES = [d3_code("S"), d3_code("A"), d5_code("S"), d5_code("A")]


def pairwise_table(configs):
    """The commutation exponent of every ordered pair of configurations."""
    return np.array([[commutation_exponent(a, b) for b in configs] for a in configs])


def dense_generator_matrix(code, dims):
    """The reference n x 2n torus matrix: one row per cube, (x, z) per site."""
    def index(site):
        x, y, z = (c % L for c, L in zip(site, dims))
        return (x * dims[1] + y) * dims[2] + z

    n = dims[0] * dims[1] * dims[2]
    return generator_rows(code, list(product(*map(range, dims))), index, n)


def dense_k(code, dims):
    return dims[0] * dims[1] * dims[2] - fp.mat_rank(dense_generator_matrix(code, dims), code.p)


def sweep_k(code, dims):
    """``encoded_qudit_count``'s sweep along the longest side, on sides of
    1 too, which a TorusCode refuses."""
    a, u, v = logical._sweep_axes(dims)
    return logical._left_kernel_dims(code, dims[u], dims[v], [dims[a]],
                                     logical._row_transfer(codes.generator_labels(code),
                                                           code.p, (a, u, v), dims[v]))[0]


def torus_k(code, dims):
    return encoded_qudit_count(TorusCode(code, dims))


def seeded_cases(seed, count):
    """Arbitrary codes at p = 2, 3, 5, 7, both parities, on sides 2-6."""
    rng = random.Random(seed)
    return [(random_code(rng, rng.choice((2, 3, 5, 7))),
             tuple(rng.randint(2, 6) for _ in range(3))) for _ in range(count)]


def test_face_tile_uses_each_label_once():
    code = d3_code("S")
    tile = face_tile(code, 2)
    assert set(tile) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert sorted(tile.values()) == sorted(code.pairs)


def test_build_planar_operator_tiles():
    code = d5_code("S")
    cfg, seam = build_planar_operator(code, PlanarPattern(2), (2, 2, 2))
    assert not seam
    assert len(cfg.support) == 4
    assert sorted(cfg.support.values()) == sorted(code.pairs)

    # unit translation of the tile is the translated configuration
    t0, _ = build_planar_operator(code, PlanarPattern(2, translation=(0, 0)), (4, 4, 2))
    t1, _ = build_planar_operator(code, PlanarPattern(2, translation=(1, 0)), (4, 4, 2))
    assert t1 == config_shift(t0, (1, 0, 0))

    _, seam = build_planar_operator(code, PlanarPattern(2), (3, 4, 2))
    assert seam      # odd in-plane dimension wraps inconsistently


def test_is_logical_examples():
    code = d5_code("S")
    torus = TorusCode(code, (4, 4, 4))
    assert is_logical(generator_config(code, (1, 2, 3), (4, 4, 4)), torus)

    single_x = PauliConfig(5, dims=(4, 4, 4), support={(0, 0, 0): (1, 0)})
    assert not is_logical(single_x, torus)

    d3 = d3_code("S")
    torus3 = TorusCode(d3, (4, 4, 4))
    cfg, seam = build_planar_operator(d3, PlanarPattern(2), (4, 4, 4))
    assert not seam and is_logical(cfg, torus3)


@pytest.mark.parametrize("code", ALL_CODES, ids=["d3S", "d3A", "d5S", "d5A"])
def test_census_parity_table(code):
    expected = {(0, 0): 4, (0, 1): 2, (1, 0): 2, (1, 1): 1}
    for dims in ((4, 4, 4), (4, 4, 3), (4, 3, 3), (3, 3, 3), (2, 2, 2), (5, 4, 2)):
        census = planar_census(TorusCode(code, dims))
        for normal in range(3):
            u, v = [a for a in range(3) if a != normal]
            entry = census[f"normal_{'xyz'[normal]}"]
            assert entry["count"] == expected[(dims[u] % 2, dims[v] % 2)], (dims, normal)


def test_census_depends_only_on_parities():
    code = d3_code("A")
    for L in (2, 4, 6):
        census = planar_census(TorusCode(code, (L, L, 3)))
        assert census["normal_z"]["count"] == 4
        assert census["normal_x"]["count"] == 2
    for L in (3, 5):
        census = planar_census(TorusCode(code, (L, L, 4)))
        assert census["normal_z"]["count"] == 1


def test_product_of_all_generators():
    for code in (d3_code("A"), d5_code("A")):
        for dims in ((2, 2, 2), (3, 4, 5), (3, 3, 3)):
            assert product_of_all_generators(TorusCode(code, dims)).is_identity()

    prod = product_of_all_generators(TorusCode(d5_code("S"), (2, 3, 2)))
    assert set(prod.support.values()) == {(0, 3)}   # 2 * (sum of pairs) mod 5
    assert len(prod.support) == 2 * 3 * 2


def test_encoded_qudit_count():
    code = d5_code("A")
    torus = TorusCode(code, (2, 2, 2))
    k = encoded_qudit_count(torus)
    assert k == dense_k(code, (2, 2, 2))
    assert k >= 1

    table = encoded_qudit_table(d3_code("A"), sizes=range(2, 5))
    assert all(k >= 1 for k in table.values())
    assert len(set(table.values())) > 1   # k changes with system size


def test_dense_torus_size_limit():
    # construction is lazy: nothing here builds a generator matrix
    assert MAX_TORUS_SITES == 4096
    assert TorusCode(d3_code("S"), (16, 16, 16)).n == MAX_TORUS_SITES
    with pytest.raises(ValueError, match="limited to 4096"):
        TorusCode(d3_code("S"), (17, 16, 16))
    # the table checks every torus before computing any
    with pytest.raises(ValueError, match="limited to 4096"):
        encoded_qudit_table(d3_code("S"), sizes=range(2, 18))


def test_encoded_qudit_count_rejects_nonabelian(monkeypatch):
    # an inversion scale s with s^2 != 1 breaks translation commutation
    scale_generators(monkeypatch, logical, 2)
    torus = TorusCode(d5_code("S"), (3, 3, 3))
    with pytest.raises(InvalidCodeError):
        encoded_qudit_count(torus)


def test_generator_rows_symplectically_orthogonal():
    for code in ALL_CODES:
        for dims in ((2, 2, 2), (3, 4, 2), (5, 3, 3)):
            assert TorusCode(code, dims).check_abelian()


def test_rank_invariant_under_row_operations():
    code = d3_code("A")
    M = dense_generator_matrix(code, (3, 3, 2))
    p = code.p
    rng = random.Random(71)
    R = M.copy()
    for _ in range(20):
        i, j = rng.randrange(len(R)), rng.randrange(len(R))
        if i != j:
            R[i] = (R[i] + rng.randrange(1, p) * R[j]) % p
    assert fp.mat_rank(R, p) == fp.mat_rank(M, p) == 3 * 3 * 2 - torus_k(code, (3, 3, 2))


def test_commutation_table_structure():
    code = d3_code("S")
    dims = (4, 4, 4)
    ops = census_operators(TorusCode(code, dims), 2)
    assert len(ops) == 4
    table = pairwise_table(ops)
    assert (np.diag(table) == 0).all()
    assert ((table + table.T) % code.p == 0).all()
    # parallel planes of one orientation commute
    assert not table.any()


def test_census_operators_reverify_per_generator():
    # independent of the vectorized matrix check: every counted operator
    # commutes with every single cube generator, rebuilt as a configuration
    code = d5_code("A")
    dims = (3, 4, 2)
    from qupitcube.reference import commutation_exponent

    torus = TorusCode(code, dims)
    for normal in range(3):
        for op in census_operators(torus, normal):
            for x in range(dims[0]):
                for y in range(dims[1]):
                    for z in range(dims[2]):
                        g = generator_config(code, (x, y, z), dims)
                        assert commutation_exponent(op, g) == 0


def test_transverse_operators_certify_encoded_qudit():
    # some pair of plane operators with different normals fails to commute
    # on an even torus, so neither is a stabilizer element
    code = d3_code("S")
    dims = (4, 4, 4)
    torus = TorusCode(code, dims)
    ops = []
    for normal in range(3):
        ops.extend(census_operators(torus, normal))
    table = pairwise_table(ops)
    assert table.any()


def test_sweep_k_matches_dense_rank():
    cases = seeded_cases(131, 60)
    # p | L along the sweep axis, each axis the longest, and ties
    cases += [(d3_code("S"), (3, 6, 3)), (d3_code("A"), (3, 6, 3)),
              (d5_code("S"), (5, 2, 5)), (d5_code("A"), (5, 2, 5)),
              (d3_code("A"), (6, 3, 2)), (d3_code("S"), (2, 3, 6)),
              (d5_code("A"), (4, 4, 4)), (d5_code("S"), (2, 5, 5))]
    for code, dims in cases:
        assert torus_k(code, dims) == dense_k(code, dims), (code, dims)


# (1,0)^4 is X on all eight vertices; the others are tuples whose
# periodic part is smaller than the kernel of the transfer's leftover rows
NON_DEFORMABLE = [CodeParams(3, (1, 0), (1, 0), (1, 0), (1, 0), "S"),
                  CodeParams(2, (1, 0), (1, 0), (1, 0), (1, 0), "A"),
                  CodeParams(5, (1, 0), (0, 1), (1, 0), (0, 1), "S"),
                  CodeParams(3, (2, 0), (0, 1), (2, 2), (1, 1), "S"),
                  CodeParams(3, (0, 1), (0, 2), (2, 0), (1, 2), "S"),
                  CodeParams(5, (0, 1), (1, 2), (4, 2), (4, 4), "A"),
                  CodeParams(7, (5, 0), (2, 2), (1, 5), (1, 6), "A")]


def transfer_shapes(monkeypatch):
    """Record (dim x, columns of F, dim ker v, dim V*) of each periodic part."""
    seen, periodic_part = [], transfer.periodic_part

    def spy(A, F, v, p):
        out = periodic_part(A, F, v, p)
        seen.append((len(A), F.shape[1], len(fp.nullspace(v, p)), len(out[0])))
        return out

    monkeypatch.setattr(transfer, "periodic_part", spy)
    return seen


def test_periodic_dim_counts_cyclic_sequences_by_enumeration():
    # every periodic sequence x_0..x_{l-1} with M [x_{j+1}; x_j] = 0 for all
    # j (cyclically), enumerated for each l <= L, against transfer.transfer
    # and one periodic_dims call over the lengths L, ..., 1; periodic_states
    # gives a basis of them at each l
    rng = random.Random(173)
    seen = set()
    for p, n, L in [(2, 1, 5), (2, 2, 3), (2, 3, 4), (2, 4, 3), (3, 1, 4), (3, 2, 3),
                    (3, 3, 2), (5, 1, 4), (5, 2, 2), (2, 3, 1), (3, 2, 1)]:
        lengths = range(L, 0, -1)
        seqs = [np.array(list(product(range(p), repeat=n * l)),
                         dtype=np.int64).reshape(p ** (n * l), l, n) for l in lengths]
        for _ in range(40):
            rows = rng.randrange(0, 2 * n + 1)
            M = np.array([[rng.randrange(p) for _ in range(2 * n)] for _ in range(rows)],
                         dtype=np.int64).reshape(rows, 2 * n)
            if rows and rng.random() < 0.3:  # a row on one block only
                M[0, :n] = 0
            A, F, v = transfer.transfer(M, n, p)
            dims = transfer.periodic_dims(A, F, v, lengths, p)
            for l, seq, dim in zip(lengths, seqs, dims):
                pairs = np.concatenate([np.roll(seq, -1, axis=1), seq], axis=2)
                count = int((~(pairs @ M.T % p).any(axis=(1, 2))).sum())
                assert p ** dim == count, (p, n, l, M)
                # and periodic_states spans them: dim independent solutions
                basis = transfer.periodic_states(A, F, v, l, p)
                pairs = np.concatenate([np.roll(basis, -1, axis=1), basis], axis=2)
                assert basis.shape == (dim, l, n) and not (pairs @ M.T % p).any()
                assert fp.mat_rank(basis.reshape(dim, l * n), p) == dim, (p, n, l, M)
            Ab, Bb, _ = transfer.periodic_part(A, F, v, p)
            seen.add((F.shape[1] > 0, len(Bb) > 0, len(Ab) < len(fp.nullspace(v, p))))
    assert seen >= {(True, True, False), (False, False, True), (True, False, True)}


def test_transfer_k_matches_dense_rank_on_small_sides(monkeypatch):
    # sides 1-6 at p = 2..11, deformable or not: the layer transfer along u
    # and the theta transfer along the sweep axis, both closed cyclically
    seen = transfer_shapes(monkeypatch)
    rng = random.Random(163)
    cases = [(random_code(rng, p), tuple(rng.randint(1, 6) for _ in range(3)))
             for p in (2, 3, 5, 7, 11) for _ in range(24)]
    cases += [(code, dims) for code in NON_DEFORMABLE
              for dims in ((1, 1, 1), (1, 4, 1), (2, 1, 3), (3, 6, 5), (5, 5, 4), (6, 3, 5))]
    cases += [(code, (1, 1, 6)) for code in ALL_CODES]
    for code, dims in cases:
        assert sweep_k(code, dims) == dense_k(code, dims), (code, dims)
    # free columns at both levels, and a periodic part cut below ker v
    assert any(f for _, f, _, _ in seen[0::2]) and any(f for _, f, _, _ in seen[1::2])
    assert any(kernel > periodic for _, _, kernel, periodic in seen)


def test_layer_relation_matches_dense_nullspace():
    rng = random.Random(167)
    cases = [(random_code(rng, p), tuple(rng.randint(1, 6) for _ in range(3)))
             for p in (2, 3, 5, 7) for _ in range(10)]
    cases += [(code, (4, 3, 5)) for code in NON_DEFORMABLE + ALL_CODES]
    for code, dims in cases:
        a, u, v = logical._sweep_axes(dims)
        row_transfer = logical._row_transfer(codes.generator_labels(code), code.p,
                                             (a, u, v), dims[v])
        W = logical._wrapped_relation(row_transfer, dims[u], dims[v], code.p)
        dense = layer_relation_by_nullspace(code, dims)
        assert W.shape == dense.shape, (code, dims)
        assert fp.mat_rank(W, code.p) == len(W)
        assert np.array_equal(fp.mat_rref(W, code.p)[0], fp.mat_rref(dense, code.p)[0])


def test_transfer_k_matches_composition_sweep():
    # tori too large for the dense rank, where the composition sweep is the oracle
    cases = [(d5_code("S"), (8, 8, 8)), (d5_code("A"), (10, 9, 12)),
             (d3_code("A"), (12, 12, 12)), (d3_code("S"), (11, 8, 10)),
             (NON_DEFORMABLE[0], (8, 8, 8)), (NON_DEFORMABLE[1], (9, 10, 8)),
             (NON_DEFORMABLE[3], (12, 10, 11)), (NON_DEFORMABLE[6], (10, 10, 10)),
             (NON_DEFORMABLE[0], (256, 4, 4)), (NON_DEFORMABLE[3], (1024, 2, 2))]
    for code, dims in cases:
        k = torus_k(code, dims)
        assert k == left_kernel_dim_by_composition(code, dims), (code, dims)


def test_encoded_qudits_at_the_torus_cap_take_under_a_tenth_of_a_second():
    for parity in "SA":
        code = d5_code(parity)
        encoded_qudit_count(TorusCode(code, (2, 2, 2)))  # first-call costs
        start = time.perf_counter()
        k = encoded_qudit_count(TorusCode(code, (16, 16, 16)))
        assert time.perf_counter() - start < 0.1
        assert k == 4


def test_k_table_matches_per_torus_sweep():
    # one layer relation per cross-section, closed once per length along
    # the first axis, against the sweep along each torus's longest side
    for code in ALL_CODES + NON_DEFORMABLE:
        for sizes in (range(2, 7), (2, 5, 3)):
            table = encoded_qudit_table(code, sizes=sizes)
            assert list(table) == list(product(sizes, repeat=3))
            for dims, k in table.items():
                assert k == torus_k(code, dims), (code, dims)


def test_k_table_builds_one_row_transfer_per_short_side(monkeypatch):
    # the row transfer depends on the axes and the short cross-section side
    # only: sides 2..6 give 5 with L_y >= L_z and 4 with L_y < L_z; and all
    # of them read the one label array the table builds
    row_transfer, keys = logical._row_transfer, []
    generator_labels, built = logical.generator_labels, []

    def counted(labels, p, axes, dv):
        keys.append((axes, dv))
        return row_transfer(labels, p, axes, dv)

    def labels_counted(params):
        built.append(params)
        return generator_labels(params)

    monkeypatch.setattr(logical, "_row_transfer", counted)
    monkeypatch.setattr(logical, "generator_labels", labels_counted)
    encoded_qudit_table(d5_code("S"), sizes=range(2, 7))
    assert len(keys) == len(set(keys)) == 9
    assert built == [d5_code("S")]
    assert set(keys) == ({((0, 1, 2), dv) for dv in range(2, 7)}
                         | {((0, 2, 1), dv) for dv in range(2, 6)})


def test_k_table_of_sides_2_to_16_takes_under_three_seconds():
    rng = random.Random(179)
    for parity in "SA":
        code = d5_code(parity)
        encoded_qudit_table(code, sizes=(2,))  # first-call costs
        start = time.perf_counter()
        table = encoded_qudit_table(code, sizes=range(2, 17))
        assert time.perf_counter() - start < 3
        assert len(table) == 15 ** 3
        for dims in rng.sample(sorted(table), 20):
            assert table[dims] == torus_k(code, dims), (parity, dims)


@pytest.mark.parametrize("scale", [None, 2, 3])
def test_k_table_abelian_check_matches_per_torus(monkeypatch, scale):
    # the table decides abelian-ness on sides capped at 3; it must raise
    # exactly when some torus of its cube fails check_abelian
    if scale is not None:
        scale_generators(monkeypatch, logical, scale)
    rng = random.Random(181)
    codes = [random_code(rng, rng.choice((2, 3, 5, 7) if scale is None else (5, 7)))
             for _ in range(4)] + [d5_code("S")]
    size_sets = [(L,) for L in range(2, 7)] + [(2, L) for L in range(3, 7)]
    size_sets += [(3, 4), (4, 6), (2, 5, 3), tuple(range(2, 7))]
    seen = set()
    for code in codes:
        abelian = {dims: TorusCode(code, dims).check_abelian()
                   for dims in product(range(2, 7), repeat=3)}
        for sizes in size_sets:
            expected = all(abelian[dims] for dims in product(sizes, repeat=3))
            try:
                encoded_qudit_table(code, sizes=sizes)
                got = True
            except InvalidCodeError:
                got = False
            assert got == expected, (code, sizes)
            seen.add(got)
    assert seen == ({True} if scale is None else {True, False})


def test_census_tables_from_plane_arrays_match_configurations():
    # the command line takes each table straight from the census's plane
    # arrays; the pairwise commutation exponents rebuild it from configurations
    for code in ALL_CODES:
        for dims in product(range(2, 9), repeat=3):
            torus = TorusCode(code, dims)
            for normal, (entry, planes) in enumerate(plane_census(torus).values()):
                assert planes.shape == (entry["count"], *entry["in_plane_dims"], 2)
                configs = [plane_config(torus, normal, plane) for plane in planes]
                assert (commutation_table(planes, code.p).tolist()
                        == pairwise_table(configs).tolist()), (code, dims, normal)


@pytest.mark.parametrize("scale", [None, 2, 3])
def test_check_abelian_matches_dense(monkeypatch, scale):
    # every inversion scale with s^2 = 1 gives an abelian family; other
    # scales break commutation on most tori
    if scale is not None:
        scale_generators(monkeypatch, logical, scale)
    seen = set()
    rng = random.Random(137)
    for _ in range(40):
        code = random_code(rng, rng.choice((2, 3, 5, 7) if scale is None else (5, 7)))
        dims = tuple(rng.randint(2, 5) for _ in range(3))
        n = dims[0] * dims[1] * dims[2]
        index = dict(zip(product(*map(range, dims)), range(n))).get
        M = np.array([config_row(generator_config(code, c, dims, scale_override=scale), index, n)
                      for c in product(*map(range, dims))])
        X, Z = M[:, 0::2], M[:, 1::2]
        dense = not ((X @ Z.T - Z @ X.T) % code.p).any()
        assert TorusCode(code, dims).check_abelian() == dense, (code, dims)
        seen.add(dense)
    assert seen == ({True} if scale is None else {True, False})


def test_is_logical_matches_dense_syndrome():
    rng = random.Random(139)
    seen = set()
    cases = seeded_cases(139, 30) + [(c, (4, 3, 2)) for c in ALL_CODES]
    for code, dims in cases:
        torus = TorusCode(code, dims)
        M = dense_generator_matrix(code, dims)
        configs = [op for normal in range(3) for op in census_operators(torus, normal)]
        configs.append(generator_config(code, (1, 0, 1), dims))
        for _ in range(3):
            configs.append(PauliConfig(code.p, dims, {
                tuple(rng.randrange(L) for L in dims): (rng.randrange(code.p),
                                                        rng.randrange(code.p))
                for _ in range(rng.randint(1, 4))}))
        for cfg in configs:
            vec = np.zeros(2 * torus.n, dtype=np.int64)
            for (x, y, z), pair in cfg.support.items():
                t = (x * dims[1] + y) * dims[2] + z
                vec[2 * t], vec[2 * t + 1] = pair
            dense = not ((M[:, 0::2] @ vec[1::2] - M[:, 1::2] @ vec[0::2]) % code.p).any()
            assert is_logical(cfg, torus) == dense, (code, dims, cfg.support)
            seen.add(dense)
    assert seen == {True, False}


def test_census_candidates_match_planar_operators():
    # each of the nine candidates per normal, built as a plane array and
    # judged by the two cube layers touching the plane, against the tiled
    # configuration and the whole-torus syndrome
    seen = set()
    cases = seeded_cases(157, 20) + [(c, (3, 4, 2)) for c in ALL_CODES]
    cases += [(d5_code("A"), (5, 2, 4)), (d3_code("S"), (2, 3, 5))]
    for code, dims in cases:
        torus = TorusCode(code, dims)
        logical_, nonempty = logical._census_verdicts(torus)
        for normal in range(3):
            expected = tiled_candidates(code, normal, dims)
            planes = logical._census_planes(torus, normal, list(range(9)))
            configs = [plane_config(torus, normal, plane) for plane in planes]
            assert configs == expected, (code, dims, normal)
            for k, cfg in enumerate(expected):
                verdict = bool(logical_[normal, k])
                assert verdict == is_logical(cfg, torus), (code, dims, normal, k)
                assert nonempty[normal, k] == (not cfg.is_identity())
                seen.add(verdict)
            assert (commutation_table(planes, code.p).tolist()
                    == pairwise_table(configs).tolist())
    assert seen == {True, False}
    assert commutation_table(np.zeros((0, 3, 4, 2), dtype=np.int64), 5).shape == (0, 0)


def test_census_reads_only_side_parities():
    # the census gathers its verdicts on the reduced torus, sides 2 + L mod 2;
    # entries equal that torus's, and entries, operators and every
    # candidate's verdicts equal the tiled configurations judged on the
    # whole torus
    rng = random.Random(191)
    seen = set()
    for p in (2, 3, 5, 7, 11):
        for _ in range(16):
            code = random_code(rng, p)
            dims = (17, 17, 17)
            while dims[0] * dims[1] * dims[2] > MAX_TORUS_SITES:
                dims = tuple(rng.randint(2, 16) for _ in range(3))
            torus = TorusCode(code, dims)
            census = plane_census(torus)
            oracle = census_by_rolls(torus)
            reduced = plane_census(TorusCode(code, tuple(2 + L % 2 for L in dims)))
            logical_, nonempty = logical._census_verdicts(torus)
            for normal, (name, (entry, planes)) in enumerate(census.items()):
                oracle_entry, oracle_ops, verdicts = oracle[name]
                assert entry == oracle_entry, (code, dims, name)
                assert ([plane_config(torus, normal, plane) for plane in planes]
                        == oracle_ops), (code, dims, name)
                assert ({**entry, "in_plane_dims": None}
                        == {**reduced[name][0], "in_plane_dims": None}), (code, dims, name)
                seen.add(entry["tier"])
                # is_logical and is_identity of each of the nine tiled_candidates
                assert logical_[normal].tolist() == [ok for ok, _ in verdicts], (code, dims, name)
                assert nonempty[normal].tolist() == [ne for _, ne in verdicts], (code, dims, name)
    assert seen == {"base", "pair-products", "full-product"}


def near_face_sums(code, normal):
    """F, the sum of the four near-face labels l(a, b) across ``normal``,
    and R_u(b) = l(0, b) + l(1, b) and R_v(a) = l(a, 0) + l(a, 1), mod p."""
    u, v = [a for a in range(3) if a != normal]
    l = codes.generator_labels(code)[(4 >> u) * np.arange(2)[:, None] + (4 >> v) * np.arange(2)]
    return l.sum((0, 1)) % code.p, l.sum(0) % code.p, l.sum(1) % code.p


def test_plain_tilings_decide_every_census():
    # the three cases of the logical module docstring, on all eight
    # side-parity patterns: some tier of plain tilings holds a logical,
    # nonempty candidate, and every even x even plane reads base with
    # count 4, for every tuple at p = 2, seeded codes at p = 3-31 and
    # codes built for the F = 0 and R_u = R_v = 0 branches
    units = [(0, 1), (1, 0), (1, 1)]
    codes = [CodeParams(2, *t, parity) for t in product(units, repeat=4) for parity in "SA"]
    rng = random.Random(197)
    codes += [random_code(rng, p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
              for _ in range(6)]
    f_zero = CodeParams(5, (1, 0), (0, 1), (1, 1), (3, 3), "S")
    r_zero = CodeParams(5, (1, 0), (4, 0), (4, 0), (1, 0), "S")
    assert all(not near_face_sums(f_zero, normal)[0].any() for normal in range(3))
    # R_u = R_v = 0 makes the face labels, and so all eight, proportional
    assert not any(r.any() for r in near_face_sums(r_zero, 2))
    seen = set()
    for code in codes + [f_zero, r_zero]:
        for dims in product((2, 3), repeat=3):
            for entry, planes in plane_census(TorusCode(code, dims)).values():
                odd = sum(L % 2 for L in entry["in_plane_dims"])
                assert entry["tier"] is not None and entry["transpose"] is False
                assert len(planes) == entry["count"] > 0, (code, dims)
                if not odd:
                    assert (entry["tier"], entry["count"]) == ("base", 4), (code, dims)
                seen.add((odd, entry["tier"], code in (f_zero, r_zero)))
    # both odd: F = 0 leaves a pair product, and R_u = R_v = 0 the base tilings
    assert seen >= {(1, "base", False), (1, "pair-products", False),
                    (2, "full-product", False), (2, "pair-products", True),
                    (2, "base", True)}


def test_product_of_all_generators_matches_dense_row_sum():
    for code, dims in seeded_cases(149, 30) + [(c, (3, 2, 4)) for c in ALL_CODES]:
        torus = TorusCode(code, dims)
        total = dense_generator_matrix(code, dims).sum(axis=0) % code.p
        expected = PauliConfig(code.p, dims)
        for t, site in enumerate(product(*map(range, dims))):
            expected.add(site, (int(total[2 * t]), int(total[2 * t + 1])))
        assert product_of_all_generators(torus) == expected, (code, dims)


def test_k_of_symmetric_code_equals_k_of_its_antisymmetric_complement():
    # -1 on the odd sublattice maps S(a, b, c, d) to A(a, -b, -c, -d) up to
    # an overall sign on odd cubes; only tori with every side even have
    # that sublattice
    rng = random.Random(151)
    even = [(2, 2, 2), (2, 4, 6), (4, 4, 4), (6, 2, 4), (4, 8, 2), (8, 8, 8)]
    odd = [(3, 3, 3), (3, 4, 5), (2, 2, 3), (5, 5, 5)]
    differs = 0
    for p in (3, 5, 7):
        for _ in range(3):
            a, b, c, d = random_deformable_tuple(rng, p)
            neg = [((-x) % p, (-z) % p) for x, z in (b, c, d)]
            sym = CodeParams(p, a, b, c, d, "S")
            anti = CodeParams(p, a, *neg, "A")
            for dims in even:
                assert (encoded_qudit_count(TorusCode(sym, dims))
                        == encoded_qudit_count(TorusCode(anti, dims))), (sym, dims)
            differs += sum(encoded_qudit_count(TorusCode(sym, dims))
                           != encoded_qudit_count(TorusCode(anti, dims)) for dims in odd)
    assert differs > 0
