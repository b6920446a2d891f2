"""Exact certificates checked against sympy's minimal polynomials.

The oracle shares no code and no tables with rationalqm.exact: every
cosine is handed to sympy as cos(2*pi*k/n), and an equality a == b is
decided by the minimal polynomial of a - b being x.
"""

import math
import random
import re
from fractions import Fraction

import sympy

from rationalqm.cli import main
from rationalqm.exact import (CosineKind, RationalAngle, itc_verdict,
                              niven_cosine)

X = sympy.Symbol("x")


def sym(value: Fraction) -> sympy.Rational:
    return sympy.Rational(value.numerator, value.denominator)


def sym_cos(turns: Fraction):
    return sympy.cos(2 * sympy.pi * sym(turns))


def degree(expr) -> int:
    return sympy.degree(sympy.minimal_polynomial(expr, X), X)


def is_zero(expr) -> bool:
    return sympy.minimal_polynomial(expr, X) == X


def certificate_value(cert):
    """The exact value a rational or surd certificate claims."""
    if cert.kind is CosineKind.RATIONAL:
        return sym(cert.rational)
    s = cert.surd
    return sym(s.a) + sym(s.b) * sympy.sqrt(sym(s.d))


def test_rational_exactly_at_degree_one():
    # Lehmer (1933): cos(2*pi*k/n) with gcd(k, n) = 1 and n >= 3 has degree
    # phi(n)/2 over the rationals.
    rng = random.Random(1933)
    for n in range(1, 41):
        k = rng.choice([k for k in range(n) if math.gcd(k, n) == 1])
        turns = Fraction(k, n)
        cert = niven_cosine(RationalAngle(turns))
        deg = degree(sym_cos(turns))
        assert deg == (1 if n <= 2 else sympy.totient(n) // 2), n
        assert cert.is_rational == (deg == 1), n
        if cert.kind is CosineKind.IRRATIONAL_BY_NIVEN:
            # the certificate claims cos^2 of the witness is irrational
            assert degree(sym_cos(cert.witness.turns) ** 2) > 1, n
        else:
            assert is_zero(sym_cos(turns) - certificate_value(cert)), n


def test_surds_at_eighths_and_twelfths():
    for d in (8, 12):
        for k in range(d):
            if math.gcd(k, d) != 1:
                continue
            cert = niven_cosine(RationalAngle(Fraction(k, d)))
            assert cert.kind is CosineKind.IRRATIONAL_SURD
            assert is_zero(sym_cos(Fraction(k, d)) - certificate_value(cert))


def sym_third_side(cos_ab: Fraction, cos_bc: Fraction, turns: Fraction):
    a, b = sym(cos_ab), sym(cos_bc)
    return a * b + sympy.sqrt((1 - a ** 2) * (1 - b ** 2)) * sym_cos(turns)


def test_itc_exceptions_are_exact():
    exceptions = [
        (Fraction(0), Fraction(1, 3), Fraction(1, 8), Fraction(2, 3)),
        (Fraction(0), Fraction(1, 3), Fraction(3, 8), Fraction(-2, 3)),
        (Fraction(1, 7), Fraction(0), Fraction(1, 12), Fraction(6, 7)),
    ]
    for cos_ab, cos_bc, turns, expected in exceptions:
        verdict = itc_verdict(cos_ab, cos_bc, RationalAngle(turns))
        assert verdict.possible and verdict.third_side.rational == expected
        assert is_zero(sym_third_side(cos_ab, cos_bc, turns) - sym(expected))


def test_sampled_surd_verdicts_are_exact():
    rng = random.Random(8128)
    surds = 0
    while surds < 40:
        qa, qb = rng.randint(2, 30), rng.randint(2, 30)
        cos_ab = Fraction(rng.randint(-(qa - 1), qa - 1), qa)
        cos_bc = Fraction(rng.randint(-(qb - 1), qb - 1), qb)
        d = rng.choice((1, 2, 3, 4, 6, 8, 12))
        turns = Fraction(rng.randrange(d), d)
        third = itc_verdict(cos_ab, cos_bc, RationalAngle(turns)).third_side
        assert third.kind is not CosineKind.IRRATIONAL_BY_NIVEN
        surds += third.kind is CosineKind.IRRATIONAL_SURD
        assert is_zero(sym_third_side(cos_ab, cos_bc, turns)
                       - certificate_value(third)), (cos_ab, cos_bc, turns)


def test_scan_script_prints_only_exact_exceptions(capsys):
    assert main(["scan-exceptions", "--max-den", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = re.compile(r"cos_ab=(\S+), cos_bc=(\S+), phi=(\S+) turns -> (\S+)$")
    found = [row.match(line).groups() for line in lines[:-1]]
    assert lines[-1] == f"{len(found)} exceptional triangles found"
    assert len(found) == 64
    for cos_ab, cos_bc, turns, printed in found:
        exact = sym_third_side(Fraction(cos_ab), Fraction(cos_bc), Fraction(turns))
        assert is_zero(exact - sym(Fraction(printed))), (cos_ab, cos_bc, turns)
