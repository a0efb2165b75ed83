import os
import random
from pathlib import Path

import pytest

from qupitcube.codes import CodeParams, d3_code, d5_code

# the CLI tests run qupitcube in subprocesses, which import it from this checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture
def d3():
    return d3_code("S")


@pytest.fixture
def d5():
    return d5_code("S")


def random_pair(rng: random.Random, p: int):
    while True:
        pair = (rng.randrange(p), rng.randrange(p))
        if pair != (0, 0):
            return pair


def random_deformable_tuple(rng: random.Random, p: int):
    """Rejection-sample a pairwise non-proportional 4-tuple (p >= 3)."""
    from qupitcube.codes import symplectic_product

    while True:
        t = tuple(random_pair(rng, p) for _ in range(4))
        ok = all(symplectic_product(t[i], t[j], p) != 0
                 for i in range(4) for j in range(i + 1, 4))
        if ok:
            return t


def random_code(rng: random.Random, p: int, parity=None) -> CodeParams:
    """Any nonzero 4-tuple, deformable or not."""
    parity = parity or rng.choice("SA")
    return CodeParams(p, random_pair(rng, p), random_pair(rng, p),
                      random_pair(rng, p), random_pair(rng, p), parity)
