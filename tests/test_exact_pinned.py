"""Pins of the table-driven certificate path to reference forms and to the
certificates it produced before the tables existed.

The reference forms below are the straightforward Fraction versions of
cosine_sign and of cos^2, which the tests read from the niven_cosine
certificate; the golden digests are sha256 of repr() of
every certificate in two fixed input sets, recorded from the Fraction-based
implementation.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from rationalqm.exact import RationalAngle, itc_verdict, niven_cosine

from certificates import certified_cos_squared

# cos(2pi * t) at the reduced turn-denominators where it is rational,
# written out here rather than imported.
REFERENCE_COS = {1: Fraction(1), 2: Fraction(-1), 3: Fraction(-1, 2),
                 4: Fraction(0), 6: Fraction(1, 2)}

NIVEN_DIGEST = "70a42b03c5aec01d5a70009c462e4de574ace9838d0dcc054e4874e38593b264"
ITC_DIGEST = "d670ba85674e39121f8b93a443f88962e53e9dd133dd997977fd1af9b010b5ab"


QUARTER, THREE_QUARTERS = Fraction(1, 4), Fraction(3, 4)


def reference_cosine_sign(t: Fraction) -> int:
    """Sign of cos(2pi * t) by Fraction comparison with the quarter turns."""
    if t == QUARTER or t == THREE_QUARTERS:
        return 0
    return 1 if (t < QUARTER or t > THREE_QUARTERS) else -1


def reference_cos_squared(t: Fraction):
    """(1 + cos 2phi)/2 with the doubled angle reduced by RationalAngle."""
    doubled = RationalAngle(2 * t).turns.denominator
    if doubled in REFERENCE_COS:
        return (1 + REFERENCE_COS[doubled]) / 2
    return None


def reduced_turns(max_denominator: int):
    for d in range(1, max_denominator + 1):
        for n in range(d):
            if math.gcd(n, d) == 1:
                yield Fraction(n, d)


def test_sign_and_cos_squared_match_reference_forms():
    mismatches = []
    for t in reduced_turns(1000):
        angle = RationalAngle(t)
        if (angle.cosine_sign() != reference_cosine_sign(t)
                or certified_cos_squared(angle) != reference_cos_squared(t)):
            mismatches.append(t)
    assert mismatches == []


def itc_inputs():
    """10,000 verdict inputs drawn like the ITC acceptance scan, with the
    interior angle cycling through the three regimes (rational cosine,
    rational cosine-squared, generic), then the three hand-built exceptions
    and two degenerate triangles."""
    rng = random.Random(20261018)
    rational, surd = (1, 2, 3, 4, 6), (8, 12)
    for i in range(10_000):
        qa, qb = rng.randint(2, 30), rng.randint(2, 30)
        cos_ab = Fraction(rng.randint(-(qa - 1), qa - 1), qa)
        cos_bc = Fraction(rng.randint(-(qb - 1), qb - 1), qb)
        regime = i % 3
        while True:
            if regime == 0:
                d = rng.choice(rational)
            elif regime == 1:
                d = rng.choice(surd)
            else:
                d = rng.randint(5, 360)
            t = Fraction(rng.randrange(d), d)
            if regime < 2 and t.denominator == d:
                break
            if regime == 2 and t.denominator not in rational + surd:
                break
        yield cos_ab, cos_bc, t
    yield Fraction(0), Fraction(1, 3), Fraction(1, 8)
    yield Fraction(0), Fraction(1, 3), Fraction(3, 8)
    yield Fraction(1, 7), Fraction(0), Fraction(1, 12)
    yield Fraction(1), Fraction(1, 3), Fraction(1, 7)
    yield Fraction(2, 5), Fraction(-1), Fraction(1, 8)


def niven_digest() -> str:
    h = hashlib.sha256()
    for t in reduced_turns(360):
        h.update(repr(niven_cosine(RationalAngle(t))).encode())
        h.update(b"\n")
    return h.hexdigest()


def itc_digest() -> str:
    h = hashlib.sha256()
    for cos_ab, cos_bc, t in itc_inputs():
        h.update(repr(itc_verdict(cos_ab, cos_bc, RationalAngle(t))).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("digest,expected", [
    (niven_digest, NIVEN_DIGEST), (itc_digest, ITC_DIGEST)],
    ids=["niven", "itc"])
def test_certificates_match_golden_digest(digest, expected):
    assert digest() == expected


if __name__ == "__main__":
    print(niven_digest())
    print(itc_digest())
