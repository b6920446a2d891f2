"""Pins of the seed -> permutation map of `PNO.from_seed`, and of its
sign-free `apply` against the signed form.

Every state, measurement and Bell reference trial draws its hidden
permutation through `from_seed`, so a change to the derivation would change
every seeded report. The golden digests are sha256 over repr(perm) + "\\n"
for seeds 0..99 at each size, recorded from the stdlib Fisher-Yates shuffle
random.Random(seed).shuffle(list(range(size))).
"""

import hashlib
import random

import pytest

from rationalqm.lattice import PNO

PERM_DIGESTS = {
    1: "3e56fbe65c2ee3b061642ae3f3cd1fff1483f94b8d0dfdfe95c9c96c82e48b16",
    2: "01680e81039d243e486b0de5472da5f1efb5224e80121622739023a016d61357",
    4: "becc3dd6904933c4dce2f0ccc2a9c3570e61cca732eb43d4b87545758524909e",
    360: "9423e0c2bc318a0ddfa7d358c85b8edd78e1eca9ca70569e7ed283c22b2f4971",
    1024: "9a8d3b40e89f82faedc39a3a1c0f18a543438179535ffb02b65804ba5b3b6ca5",
}


@pytest.mark.parametrize("size", sorted(PERM_DIGESTS))
def test_seed_to_permutation_pinned(size):
    digest = hashlib.sha256()
    for seed in range(100):
        xi = PNO.from_seed(seed, size)
        assert xi.size == size and xi.signs is None
        digest.update(repr(xi.perm).encode() + b"\n")
    assert digest.hexdigest() == PERM_DIGESTS[size]


@pytest.mark.parametrize("size", [1, 2, 5, 360])
def test_sign_free_apply_matches_signed_apply(size):
    rng = random.Random(size)
    for seed in range(20):
        perm = PNO.from_seed(seed, size).perm
        s = tuple(rng.choice((1, -1)) for _ in range(size))
        assert PNO(perm).apply(s) == PNO(perm, signs=(1,) * size).apply(s)
