"""Planar logical operators, global relations, encoded-qudit counts."""

import random

import numpy as np
import pytest

from qupitcube.codes import PauliConfig, d3_code, d5_code, generator_config
from qupitcube.logical import (
    MAX_TORUS_SITES,
    InvalidCodeError,
    PlanarPattern,
    TorusCode,
    build_planar_operator,
    census_operators,
    encoded_qudit_count,
    encoded_qudit_table,
    face_tile,
    is_logical,
    logical_commutation_table,
    planar_census,
    product_of_all_generators,
)

ALL_CODES = [d3_code("S"), d3_code("A"), d5_code("S"), d5_code("A")]


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
    assert t1 == t0.shift((1, 0, 0))

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
    assert k == torus.n - torus.rank
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


def test_encoded_qudit_count_rejects_nonabelian():
    torus = TorusCode(d5_code("S"), (2, 2, 2))
    M = torus.generator_matrix.copy()
    M[0] = 0
    M[0, 0] = 1   # a bare X breaks commutation
    torus._matrix = M
    torus._rank = None
    with pytest.raises(InvalidCodeError):
        encoded_qudit_count(torus)


def test_generator_rows_symplectically_orthogonal():
    for code in ALL_CODES:
        for dims in ((2, 2, 2), (3, 4, 2), (5, 3, 3)):
            assert TorusCode(code, dims).check_abelian()


def test_rank_invariant_under_row_operations():
    from qupitcube import fp

    code = d3_code("A")
    torus = TorusCode(code, (3, 3, 2))
    M = torus.generator_matrix
    p = code.p
    rng = random.Random(71)
    R = M.copy()
    for _ in range(20):
        i, j = rng.randrange(len(R)), rng.randrange(len(R))
        if i != j:
            R[i] = (R[i] + rng.randrange(1, p) * R[j]) % p
    assert fp.mat_rank(R, p) == fp.mat_rank(M, p)


def test_commutation_table_structure():
    code = d3_code("S")
    dims = (4, 4, 4)
    ops = census_operators(TorusCode(code, dims), 2)
    assert len(ops) == 4
    table = logical_commutation_table(ops)
    assert (np.diag(table) == 0).all()
    assert ((table + table.T) % code.p == 0).all()
    # parallel planes of one orientation commute
    assert not table.any()


def test_census_operators_reverify_per_generator():
    # independent of the vectorized matrix check: every counted operator
    # commutes with every single cube generator, rebuilt as a configuration
    code = d5_code("A")
    dims = (3, 4, 2)
    from qupitcube.codes import commutation_exponent

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
    table = logical_commutation_table(ops)
    assert table.any()
