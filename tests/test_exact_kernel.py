"""The integer kernel of the certificates: `_extract_square_factor` against
a plain loop over all 25 primes up to 97, the nine tabled `niven_cosine`
certificates against freshly built ones, and the `Surd` radicand checks."""

import dataclasses
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rationalqm import exact
from rationalqm.exact import (ExactCosine, RationalAngle, Surd,
                              _extract_square_factor, _surd, niven_cosine)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def reference_square_factor(n: int) -> tuple:
    """Divide out p^2 for every prime p <= 97 in turn, then test the rest
    for a perfect square."""
    s = 1
    for p in SMALL_PRIMES:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
    root = math.isqrt(n)
    if root * root == n:
        return s * root, 1
    return s, n


def _primes_up_to(n: int) -> list:
    return [p for p in range(2, n + 1) if all(p % k for k in range(2, math.isqrt(p) + 1))]


class TestExtractSquareFactor:
    def test_every_n_up_to_200000(self):
        bad = [n for n in range(1, 200_001)
               if _extract_square_factor(n) != reference_square_factor(n)]
        assert bad == []

    def test_prime_squares_times_m(self):
        for p in _primes_up_to(101):
            for m in list(range(1, 40)) + [97 * 89, 2 ** 20 * 101, 101 ** 3]:
                n = p * p * m
                assert _extract_square_factor(n) == reference_square_factor(n), n

    def test_square_of_a_prime_above_97_stays_in_the_radicand(self):
        # 101^2 is not divided out, and 101^2 * 7167894 is not a square
        assert _extract_square_factor(73119686694) == (1, 73119686694)
        assert reference_square_factor(73119686694) == (1, 73119686694)

    def test_n_below_one_raises_at_once(self):
        # In a child process with a timeout, so that a loop that never ends
        # fails this test rather than hanging the suite.
        script = """
from rationalqm.exact import _extract_square_factor
for n in (0, -1, -4):
    try:
        _extract_square_factor(n)
    except ValueError as exc:
        assert str(exc) == f"need n >= 1, got {n}", exc
    else:
        raise SystemExit(f"no ValueError for n = {n}")
"""
        src = Path(exact.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", script], timeout=20, check=True,
                       env=dict(os.environ, PYTHONPATH=path))

    def test_seeded_itc_radicands(self):
        # n*d of r*cos^2 as the third-side core forms it, sides p/q and u/v
        rng = random.Random(20)
        for _ in range(2000):
            q, v = rng.randint(2, 20_000), rng.randint(2, 20_000)
            p, u = rng.randint(1 - q, q - 1), rng.randint(1 - v, v - 1)
            c2 = rng.choice([Fraction(1, 2), Fraction(3, 4), Fraction(1, 4), Fraction(1)])
            n = (q * q - p * p) * (v * v - u * u) * c2.numerator
            d = (q * v) ** 2 * c2.denominator
            g = math.gcd(n, d)
            radicand = (n // g) * (d // g)
            assert _extract_square_factor(radicand) == reference_square_factor(radicand)


RATIONAL_COSINES = {1: Fraction(1), 2: Fraction(-1), 3: Fraction(-1, 2),
                    4: Fraction(0), 6: Fraction(1, 2)}
SURD_COS_SQUARES = {8: Fraction(1, 2), 12: Fraction(3, 4)}


def _reduced_turns(d: int) -> list:
    return [Fraction(n, d) for n in range(d) if math.gcd(n, d) == 1]


class TestTabledCertificates:
    @pytest.mark.parametrize("d", sorted(RATIONAL_COSINES))
    def test_rational_certificates(self, d):
        for turns in _reduced_turns(d):
            cert = niven_cosine(RationalAngle(turns))
            assert cert == ExactCosine.from_rational(RATIONAL_COSINES[d])

    @pytest.mark.parametrize("d", sorted(SURD_COS_SQUARES))
    def test_surd_certificates(self, d):
        c2 = SURD_COS_SQUARES[d]
        for turns in _reduced_turns(d):
            angle = RationalAngle(turns)
            sign = 1 if math.cos(2 * math.pi * turns) > 0 else -1
            cert = niven_cosine(angle)
            assert cert == _surd(0, 1, sign, c2.numerator, c2.denominator)
            # cos = sign * sqrt(c2) = sign/2 * sqrt(2) at d = 8, sqrt(3) at 12
            assert cert.surd == Surd(Fraction(0), Fraction(sign, 2), 4 * c2)

    def test_nine_shared_frozen_certificates(self):
        certs = {id(niven_cosine(RationalAngle(t))): niven_cosine(RationalAngle(t))
                 for d in (*RATIONAL_COSINES, *SURD_COS_SQUARES)
                 for t in _reduced_turns(d)}
        assert len(certs) == 9
        for cert in certs.values():
            with pytest.raises(dataclasses.FrozenInstanceError):
                cert.rational = Fraction(2)
            if cert.surd is not None:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    cert.surd.b = Fraction(1)


NOT_POSITIVE = "surd radicand must be a positive integer, got {}"
SQUARE = "surd radicand {} is a perfect square"


class TestSurdRadicand:
    @pytest.mark.parametrize("d, message", [
        (Fraction(-2), NOT_POSITIVE), (-2, NOT_POSITIVE),
        (Fraction(0), NOT_POSITIVE), (0, NOT_POSITIVE),
        (Fraction(1, 2), NOT_POSITIVE),
        (Fraction(4), SQUARE), (4, SQUARE),
    ])
    def test_rejected_with_its_message(self, d, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(d))}$"):
            Surd(Fraction(1), Fraction(1, 3), d)

    @pytest.mark.parametrize("d", [Fraction(-2), -2, Fraction(0), 0,
                                   Fraction(1, 2), Fraction(4), 4, 3])
    @pytest.mark.parametrize("b", [Fraction(0), 0])
    def test_any_radicand_without_a_radical(self, d, b):
        assert Surd(Fraction(1), b, d).d == d
