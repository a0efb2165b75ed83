"""Code model: generators, configurations, commutation, inversion."""

import json
import random
from itertools import product

import numpy as np
import pytest

from qupitcube import codes
from qupitcube.codes import (
    NEIGHBOR_OFFSETS,
    VERTICES,
    CodeParams,
    PauliConfig,
    check_dims,
    cubes_touching,
    d3_code,
    d5_code,
    generator_labels,
    load_params,
    neighbor_exponents,
    symplectic_product,
    verify_translation_commutation,
)
from qupitcube.logical import TorusCode, _folded_exponents
from qupitcube.reference import (
    InvalidCenterError,
    build_generator,
    commutation_exponent,
    config_mul,
    config_row,
    config_scale,
    config_shift,
    generator_config,
    generator_rows,
    inversion_image,
    translation_exponents,
)
from conftest import random_code, random_pair, scale_generators


def test_symplectic_product_examples():
    assert symplectic_product((1, 0), (0, 1), 5) == 1
    for p in (3, 5, 7):
        for v in ((1, 2), (4, 1), (2, 2)):
            assert symplectic_product(v, v, p) == 0
    assert symplectic_product((1, 1), (3, 2), 5) == 4  # 1*2 - 1*3 = -1


def test_symplectic_bilinearity_antisymmetry():
    rng = random.Random(5)
    for p in (3, 5, 7):
        for _ in range(1000):
            a, b, c = (random_pair(rng, p) for _ in range(3))
            k = rng.randrange(p)
            ab = symplectic_product(a, b, p)
            assert symplectic_product(b, a, p) == (-ab) % p
            # linear in the second slot
            kc_plus_b = ((k * c[0] + b[0]) % p, (k * c[1] + b[1]) % p)
            assert symplectic_product(a, kc_plus_b, p) == \
                (k * symplectic_product(a, c, p) + ab) % p
            # and in the first
            ka_plus_c = ((k * a[0] + c[0]) % p, (k * a[1] + c[1]) % p)
            assert symplectic_product(ka_plus_c, b, p) == \
                (k * ab + symplectic_product(c, b, p)) % p


def test_proportionality_lemma_exhaustive():
    # <a, b> = 0 iff b is a multiple of a, for all nonzero pairs at p = 3, 5
    for p in (3, 5):
        pairs = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
        for a in pairs:
            multiples = {((k * a[0]) % p, (k * a[1]) % p) for k in range(p)}
            for b in pairs + [(0, 0)]:
                assert (symplectic_product(a, b, p) == 0) == (b in multiples)


def test_code_params_validation():
    with pytest.raises(ValueError):
        CodeParams(4, (1, 0), (0, 1), (1, 1), (1, 2))
    with pytest.raises(ValueError):
        CodeParams(3, (0, 0), (0, 1), (1, 1), (1, 2))
    with pytest.raises(ValueError):
        CodeParams(3, (1, 0), (0, 1), (1, 1), (1, 2), parity="X")
    code = CodeParams(3, (4, 3), (0, 1), (1, 1), (1, 2))
    assert code.alpha == (1, 0)  # reduced mod p


def test_check_dims_refuses_sides_that_are_not_integers():
    assert check_dims((np.int64(4), 3, np.int32(2))) == (4, 3, 2)
    assert all(type(L) is int for L in check_dims(np.array([5, 4, 3])))
    for dims in ((2.7, 3, 3), ("4", "4", "4"), (4.0, 4, 4), (True, 3, 3)):
        with pytest.raises(ValueError, match="integers"):
            check_dims(dims)
        with pytest.raises(ValueError, match="integers"):
            TorusCode(d3_code(), dims)
        with pytest.raises(ValueError, match="integers"):
            PauliConfig(3, dims=dims)
    with pytest.raises(ValueError, match=">= 2"):
        check_dims((1, 3, 3))


def test_build_generator_examples():
    def label(code, v):
        return tuple(generator_labels(code)[VERTICES.index(v)].tolist())

    assert label(d5_code("S"), (1, 1, 1)) == (1, 0)   # symmetric: alpha again
    assert label(d5_code("A"), (1, 1, 0)) == (2, 3)   # -(3,2) mod 5
    assert label(d3_code("A"), (1, 1, 1)) == (2, 0)   # -(1,0) mod 3


def test_generator_inversion_invariant():
    # the inversion image of vertex i is vertex 7 - i: VERTICES reversed
    assert [tuple(1 - c for c in v) for v in VERTICES] == list(VERTICES[::-1])
    rng = random.Random(23)
    for p in (3, 5, 7):
        for _ in range(50):
            code = random_code(rng, p)
            labels = generator_labels(code)
            assert (labels[::-1] == code.sign * labels % p).all(), code


def test_generator_labels_match_the_vertex_dict():
    # the production array, built straight from the pairs, against the
    # dict that states the layout vertex by vertex
    rng = random.Random(53)
    for p in (2, 3, 5, 7, 11, 13):
        for parity in "SA":
            for _ in range(10):
                code = random_code(rng, p, parity)
                labels = generator_labels(code)
                gen = build_generator(code)
                assert labels.dtype == np.int64 and labels.shape == (8, 2)
                assert labels.tolist() == [list(gen[v]) for v in VERTICES], code


def test_commutation_exponent_examples(d5):
    a = PauliConfig(5, support={(0, 0, 0): (1, 2)})
    b = PauliConfig(5, support={(3, 3, 3): (2, 1)})
    assert commutation_exponent(a, b) == 0  # disjoint supports

    s = d5.sign
    c = PauliConfig(5, support={(0, 0, 0): (1, 2)})
    d = PauliConfig(5, support={(0, 0, 0): ((s * 1) % 5, (s * 2) % 5)})
    assert commutation_exponent(c, d) == 0  # proportional pairs

    g0 = generator_config(d5)
    g1 = config_shift(g0, (1, 0, 0))
    assert commutation_exponent(g0, g1) == 0  # face overlap telescopes


def test_commutation_antisymmetric():
    rng = random.Random(29)
    for _ in range(200):
        p = rng.choice((3, 5))
        a = PauliConfig(p)
        b = PauliConfig(p)
        for _ in range(rng.randrange(1, 6)):
            a.add((rng.randrange(3), rng.randrange(3), rng.randrange(3)),
                  (rng.randrange(p), rng.randrange(p)))
            b.add((rng.randrange(3), rng.randrange(3), rng.randrange(3)),
                  (rng.randrange(p), rng.randrange(p)))
        assert commutation_exponent(a, b) == (-commutation_exponent(b, a)) % p


def test_translation_commutation_reference_codes():
    for make in (d3_code, d5_code):
        for parity in "SA":
            assert verify_translation_commutation(make(parity)) == []
    assert verify_translation_commutation(d3_code("S", variant=1)) == []


def gram_exponent(exponents, o, dims, p):
    """The exponent at offset o that the label Gram matrix gives: the
    neighbour exponent on the open lattice, the folded class sum on a
    torus, and 0 where o meets no neighbour offset."""
    if dims is None:
        return dict(zip(NEIGHBOR_OFFSETS, exponents.tolist())).get(o, 0)
    folded = _folded_exponents(exponents, dims, p)
    for c in NEIGHBOR_OFFSETS:
        if all((a - b) % L == 0 for a, b, L in zip(c, o, dims)):
            return int(folded[sum(a % min(L, 3) * w for a, L, w in zip(c, dims, (9, 3, 1)))])
    return 0


@pytest.mark.parametrize("scale", [None, 2, 3])
def test_translation_exponents_match_shifted_copies(monkeypatch, scale):
    # every offset of [-2, 2]^3, on the open lattice and on tori with
    # sides 2-5, where offsets fold and labels sum on wrapped sites: the
    # label Gram matrix's neighbour exponents, folded on tori, and the
    # commutation violations against the site walk over the translates
    if scale is not None:
        scale_generators(monkeypatch, codes, scale)
    rng = random.Random(47)
    offsets = list(product(range(-2, 3), repeat=3))
    nonzero = False
    for _ in range(40):
        code = random_code(rng, rng.choice((2, 3, 5, 7) if scale is None else (5, 7)))
        dims = tuple(rng.randint(2, 5) for _ in range(3))
        exponents = neighbor_exponents(codes.generator_labels(code), code.p)
        for on in (None, dims):
            g = generator_config(code, dims=on, scale_override=scale)
            exps = translation_exponents(g, offsets)
            assert [gram_exponent(exponents, o, on, code.p) for o in offsets] == exps, (code, on)
            nonzero = nonzero or any(exps)
        g = generator_config(code, scale_override=scale)
        walked = translation_exponents(g, NEIGHBOR_OFFSETS)
        assert verify_translation_commutation(code) == [
            (o, e) for o, e in zip(NEIGHBOR_OFFSETS, walked) if e]
    assert nonzero == (scale is not None)


def test_translation_commutation_bad_scale(monkeypatch):
    # scale 2 at p = 5: faces pick up (s^2 - 1) <a, b> = 3 <a, b> != 0
    scale_generators(monkeypatch, codes, 2)
    bad = verify_translation_commutation(d5_code("S"))
    assert bad
    offsets = {o for o, _ in bad}
    assert (1, 0, 0) in offsets
    exps = dict(bad)
    assert exps[(1, 0, 0)] == (3 * symplectic_product((1, 0), (0, 1), 5)) % 5


def test_torus_stabilizer_group_abelian():
    rng = random.Random(31)
    for code in (d3_code("A"), d5_code("S")):
        dims = (4, 3, 2)
        gens = [generator_config(code, (x, y, z), dims)
                for x in range(4) for y in range(3) for z in range(2)]
        for _ in range(50):
            a = config_mul(rng.choice(gens), rng.choice(gens))
            b = config_mul(config_mul(rng.choice(gens), rng.choice(gens)), rng.choice(gens))
            assert commutation_exponent(a, b) == 0


def test_inversion_image_examples():
    for parity in "SA":
        code = d5_code(parity)
        gen = generator_config(code)
        img = inversion_image(gen, (0.5, 0.5, 0.5))
        expected = gen if parity == "S" else config_scale(gen, 4)
        assert img == expected

    cfg = PauliConfig(3, support={(0, 0, 0): (1, 0)})
    moved = inversion_image(cfg, (1, 0, 0))
    assert moved.support == {(2, 0, 0): (1, 0)}

    with pytest.raises(InvalidCenterError, match="centre component 0.3 is not a half-integer"):
        inversion_image(cfg, (0.3, 0, 0))

    on_torus = PauliConfig(3, dims=(3, 4, 4), support={(0, 0, 0): (1, 0)})
    with pytest.raises(InvalidCenterError, match="misaligned on odd length 3"):
        inversion_image(on_torus, (0.5, 0.5, 0.5))
    ok = inversion_image(on_torus, (1, 0.5, 0.5))
    assert ok.support == {(2, 1, 1): (1, 0)}


def test_generator_rows_match_generator_config():
    # on a side of 2 every cube spans that axis, so every row's far face wraps
    for code in (d3_code("S"), d3_code("A"), d5_code("S"), d5_code("A")):
        for dims in ((2, 2, 2), (2, 3, 4), (3, 2, 5)):
            sites = sorted(product(*map(range, dims)))

            def index(q):
                return sites.index(tuple(c % L for c, L in zip(q, dims)))

            rows = generator_rows(code, sites, index, len(sites))
            assert rows.shape == (len(sites), 2 * len(sites))
            for c, row in zip(sites, rows):
                vec = np.zeros(2 * len(sites), dtype=np.int64)
                for q, pair in generator_config(code, c, dims).support.items():
                    vec[2 * index(q):2 * index(q) + 2] = pair
                assert (row == vec).all(), (code, dims, c)


def test_config_row_layout():
    sites = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    index = {q: t for t, q in enumerate(sites)}.get
    cfg = PauliConfig(5, support={(1, 0, 0): (2, 3), (0, 1, 0): (0, 4)})
    assert config_row(cfg, index, len(sites)).tolist() == [0, 0, 2, 3, 0, 4]
    cfg.add((9, 9, 9), (1, 0))
    assert config_row(cfg, index, len(sites)) is None


def test_cubes_touching():
    assert len(cubes_touching([(0, 0, 0)])) == 8
    assert cubes_touching([(0, 0, 0)], avoid=[(1, 1, 1)]) == [
        (-1, -1, -1), (-1, -1, 0), (-1, 0, -1), (-1, 0, 0),
        (0, -1, -1), (0, -1, 0), (0, 0, -1)]


def test_torus_wrapping_canonical():
    cfg = PauliConfig(5, dims=(2, 2, 2))
    cfg.add((2, 3, -1), (1, 0))
    assert cfg.support == {(0, 1, 1): (1, 0)}
    cfg.add((0, 1, 1), (4, 0))
    assert cfg.is_identity()


def test_params_file_roundtrip(tmp_path):
    code = d5_code("A")
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code.as_dict()))
    loaded = load_params(path)
    assert loaded == code
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 5, "alpha": [1, 0]}))
    with pytest.raises(ValueError):
        load_params(bad)
