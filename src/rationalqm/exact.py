"""Exact arithmetic over rationals and quadratic surds, with certified
rationality decisions for cosines of rational-turn angles and for the
third side of a spherical triangle.

Angles are always carried as fractions of a full turn (phi / 2pi), never as
float radians: the rationality classification is a statement about the turn
fraction, and floats would destroy it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

import mpmath

# Reduced turn-denominators at which cos(phi) is itself rational
# (phi an exact multiple of 60 or 90 degrees).
RATIONAL_COS_DENOMINATORS = frozenset({1, 2, 3, 4, 6})

# Reduced turn-denominators at which cos^2(phi) is rational; the extra
# members come from the half-angle identity cos^2(phi) = (1 + cos 2phi)/2.
RATIONAL_COS_SQ_DENOMINATORS = frozenset({1, 2, 3, 4, 6, 8, 12})

# cos(2pi * n/d) for reduced n/d with d in RATIONAL_COS_DENOMINATORS is
# independent of n, so a denominator-keyed table suffices.
_COS_BY_DENOMINATOR = {
    1: Fraction(1),
    2: Fraction(-1),
    3: Fraction(-1, 2),
    4: Fraction(0),
    6: Fraction(1, 2),
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class MixedRadicalError(ArithmeticError):
    """Raised when an operation would need more than one radical per value."""


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction. Decimals are rejected."""
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal notation not allowed, use p/q: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
    except ValueError:
        raise ValueError(f"not a finite fraction p/q: {text!r}") from None


@dataclass(frozen=True)
class RationalAngle:
    """An angle stored as a reduced fraction of a full turn, in [0, 1)."""

    turns: Fraction

    def __post_init__(self):
        object.__setattr__(self, "turns", Fraction(self.turns) % 1)

    @classmethod
    def from_string(cls, text: str) -> "RationalAngle":
        return cls(parse_fraction(text))

    @property
    def denominator(self) -> int:
        return self.turns.denominator

    def double(self) -> "RationalAngle":
        return RationalAngle(2 * self.turns)

    def cosine_sign(self) -> int:
        """Sign of cos(2pi * turns): +1, -1, or 0 on the quarter turns."""
        t = self.turns
        if t == Fraction(1, 4) or t == Fraction(3, 4):
            return 0
        return 1 if (t < Fraction(1, 4) or t > Fraction(3, 4)) else -1

    def radians(self, prec: int = 200) -> mpmath.mpf:
        with mpmath.workprec(prec):
            return 2 * mpmath.pi * mpmath.mpf(self.turns.numerator) / self.turns.denominator


def is_perfect_square(r: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None.

    Returns sqrt(r) as a Fraction iff numerator and denominator are both
    perfect squares of integers.
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError(f"is_perfect_square: negative input {r}")
    pn = math.isqrt(r.numerator)
    pd = math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None


def _extract_square_factor(n: int) -> tuple[int, int]:
    """Write n = s^2 * n0 with s as large as small-prime factoring finds.

    The remainder n0 is guaranteed not to be a perfect square (final isqrt
    check), which is all the Surd certificate requires; n0 need not be
    squarefree.
    """
    s = 1
    for p in _SMALL_PRIMES:
        p2 = p * p
        while n % p2 == 0:
            n //= p2
            s *= p
    root = math.isqrt(n)
    if root * root == n:
        return s * root, 1
    return s, n


@dataclass(frozen=True)
class Surd:
    """The value a + b*sqrt(d), with d a positive non-square integer (as a
    Fraction) whenever b != 0."""

    a: Fraction
    b: Fraction
    d: Fraction

    def __post_init__(self):
        if self.b != 0:
            if self.d <= 0 or self.d.denominator != 1:
                raise ValueError(f"surd radicand must be a positive integer, got {self.d}")
            if is_perfect_square(self.d) is not None:
                raise ValueError(f"surd radicand {self.d} is a perfect square")

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def multiply(self, other: "Surd") -> "Surd":
        """Product of two surds over the same radical; mixed radicals are
        rejected rather than widened to a field tower."""
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise MixedRadicalError(
                f"cannot multiply surds over sqrt({self.d}) and sqrt({other.d})")
        d = self.d if self.b != 0 else other.d
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        if b == 0:
            return Surd(a, Fraction(0), Fraction(0))
        return Surd(a, b, d)

    def square(self) -> "Surd":
        return self.multiply(self)

    def numeric(self, prec: int = 200) -> mpmath.mpf:
        with mpmath.workprec(prec):
            out = mpmath.mpf(self.a.numerator) / self.a.denominator
            if self.b != 0:
                out += (mpmath.mpf(self.b.numerator) / self.b.denominator
                        * mpmath.sqrt(int(self.d)))
            return out


def make_surd(a: Fraction, b: Fraction, radicand: Fraction) -> Union[Fraction, Surd]:
    """Canonicalise a + b*sqrt(radicand).

    Collapses to a plain Fraction when the value is rational; otherwise
    normalises the radicand to a non-square positive integer, pulling
    denominators and small square factors into the coefficient.
    """
    a, b, radicand = Fraction(a), Fraction(b), Fraction(radicand)
    if radicand < 0:
        raise ValueError(f"negative radicand {radicand}")
    if b == 0 or radicand == 0:
        return a
    root = is_perfect_square(radicand)
    if root is not None:
        return a + b * root
    # sqrt(p/q) = sqrt(p*q) / q
    p, q = radicand.numerator, radicand.denominator
    coeff = b / q
    s, n0 = _extract_square_factor(p * q)
    return Surd(a, coeff * s, Fraction(n0))


class CosineKind(Enum):
    RATIONAL = "rational"
    IRRATIONAL_SURD = "irrational-surd"
    IRRATIONAL_BY_NIVEN = "irrational-by-niven"


@dataclass(frozen=True)
class ExactCosine:
    """Tri-state exact cosine value: a rational, a quadratic surd, or a
    certified irrational whose witness angle has irrational cosine-squared."""

    kind: CosineKind
    rational: Optional[Fraction] = None
    surd: Optional[Surd] = None
    witness: Optional[RationalAngle] = None
    # For a certified-irrational value of the form a + sqrt(r) * cos(witness)
    # (a spherical third side), the rational pieces a and r; left as None when
    # the value is cos(witness) itself.
    cross_base: Optional[Fraction] = None
    cross_radicand: Optional[Fraction] = None

    @classmethod
    def from_rational(cls, value: Fraction) -> "ExactCosine":
        return cls(CosineKind.RATIONAL, rational=Fraction(value))

    @classmethod
    def from_surd(cls, value: Union[Fraction, Surd]) -> "ExactCosine":
        if isinstance(value, Fraction) or value.is_rational:
            rat = value if isinstance(value, Fraction) else value.a
            return cls.from_rational(rat)
        return cls(CosineKind.IRRATIONAL_SURD, surd=value)

    @classmethod
    def by_niven(cls, witness: RationalAngle,
                 cross_base: Optional[Fraction] = None,
                 cross_radicand: Optional[Fraction] = None) -> "ExactCosine":
        if witness.denominator in RATIONAL_COS_SQ_DENOMINATORS:
            raise ValueError(
                f"witness {witness.turns} has rational cosine-squared; "
                "not a valid irrationality certificate")
        return cls(CosineKind.IRRATIONAL_BY_NIVEN, witness=witness,
                   cross_base=cross_base, cross_radicand=cross_radicand)

    @property
    def is_rational(self) -> bool:
        return self.kind is CosineKind.RATIONAL

    def numeric(self, prec: int = 200) -> mpmath.mpf:
        with mpmath.workprec(prec):
            if self.kind is CosineKind.RATIONAL:
                return mpmath.mpf(self.rational.numerator) / self.rational.denominator
            if self.kind is CosineKind.IRRATIONAL_SURD:
                return self.surd.numeric(prec)
            value = mpmath.cos(self.witness.radians(prec))
            if self.cross_radicand is not None:
                r = self.cross_radicand
                base = self.cross_base or Fraction(0)
                value = (mpmath.mpf(base.numerator) / base.denominator
                         + mpmath.sqrt(mpmath.mpf(r.numerator) / r.denominator)
                         * value)
            return value

    def describe(self) -> str:
        if self.kind is CosineKind.RATIONAL:
            return f"{self.rational} (rational)"
        if self.kind is CosineKind.IRRATIONAL_SURD:
            s = self.surd
            return f"{s.a} + {s.b}*sqrt({s.d}) (irrational surd)"
        return (f"irrational: cos^2 of {self.witness.turns} turn is irrational "
                f"(reduced denominator {self.witness.denominator} not in "
                f"{sorted(RATIONAL_COS_SQ_DENOMINATORS)})")


def niven_cosine(angle: RationalAngle) -> ExactCosine:
    """Exact classification of cos(2pi * angle.turns).

    Rational exactly when the reduced turn-denominator is in {1,2,3,4,6};
    a quadratic surd when only cos^2 is rational (denominators 8, 12);
    otherwise certified irrational with the angle itself as witness.
    """
    d = angle.denominator
    if d in RATIONAL_COS_DENOMINATORS:
        return ExactCosine.from_rational(_COS_BY_DENOMINATOR[d])
    c2 = cos_squared(angle)
    if c2 is not None:
        sign = angle.cosine_sign()
        return ExactCosine.from_surd(make_surd(Fraction(0), Fraction(sign), c2))
    return ExactCosine.by_niven(angle)


def cos_squared(angle: RationalAngle) -> Optional[Fraction]:
    """cos^2(phi) as an exact rational when one exists, via the half-angle
    identity cos^2(phi) = (1 + cos 2phi)/2 and the rational-cosine table."""
    doubled = angle.double()
    if doubled.denominator in RATIONAL_COS_DENOMINATORS:
        return (1 + _COS_BY_DENOMINATOR[doubled.denominator]) / 2
    return None


def _check_cosine_range(name: str, value: Fraction) -> Fraction:
    value = Fraction(value)
    if abs(value) > 1:
        raise ValueError(f"|{name}| must be <= 1, got {value}")
    return value


def spherical_third_side(cos_ab: Fraction, cos_bc: Fraction,
                         phi_c: RationalAngle) -> ExactCosine:
    """Exact classification of the third-side cosine of a spherical triangle,

        cos t_AC = cos t_AB * cos t_BC + sin t_AB * sin t_BC * cos phi_C,

    where phi_C is the interior angle at the shared vertex and the sines are
    the nonnegative roots of rational quantities.
    """
    cos_ab = _check_cosine_range("cos_ab", cos_ab)
    cos_bc = _check_cosine_range("cos_bc", cos_bc)
    base = cos_ab * cos_bc
    r = (1 - cos_ab ** 2) * (1 - cos_bc ** 2)
    if r == 0:
        # A pole: one sine factor vanishes, third side rational regardless.
        return ExactCosine.from_rational(base)

    classified = niven_cosine(phi_c)
    if classified.kind is CosineKind.RATIONAL:
        c = classified.rational
        if c == 0:
            return ExactCosine.from_rational(base)
        sign = 1 if c > 0 else -1
        return ExactCosine.from_surd(make_surd(base, Fraction(sign), r * c * c))

    c2 = cos_squared(phi_c)
    if c2 is not None:
        # cos phi_C = sign * sqrt(c2); the second term is sign * sqrt(r * c2),
        # rational iff r * c2 is a perfect square.
        sign = phi_c.cosine_sign()
        return ExactCosine.from_surd(make_surd(base, Fraction(sign), r * c2))

    # Generic case: cos^2 phi_C irrational, so sqrt(r) * cos phi_C cannot be
    # rational (its square r * cos^2 phi_C would force cos^2 phi_C rational).
    return ExactCosine.by_niven(phi_c, cross_base=base, cross_radicand=r)


@dataclass(frozen=True)
class TriangleVerdict:
    """Whether all three sides of the triangle can simultaneously have
    rational cosines given a rational-turn interior angle."""

    possible: bool
    third_side: ExactCosine
    reason: str


def itc_verdict(cos_ab: Fraction, cos_bc: Fraction,
                phi_c: RationalAngle) -> TriangleVerdict:
    """Impossible-triangle check: decide whether the configuration admits a
    rational third-side cosine, with a checkable certificate either way."""
    cos_ab = _check_cosine_range("cos_ab", cos_ab)
    cos_bc = _check_cosine_range("cos_bc", cos_bc)
    if abs(cos_ab) == 1 or abs(cos_bc) == 1:
        third = ExactCosine.from_rational(cos_ab * cos_bc)
        return TriangleVerdict(possible=True, third_side=third, reason="degenerate")
    third = spherical_third_side(cos_ab, cos_bc, phi_c)
    if third.is_rational:
        return TriangleVerdict(
            possible=True, third_side=third,
            reason=f"third side has rational cosine {third.rational}")
    if third.kind is CosineKind.IRRATIONAL_SURD:
        return TriangleVerdict(
            possible=False, third_side=third,
            reason="third-side cosine is a non-rational quadratic surd")
    return TriangleVerdict(
        possible=False, third_side=third,
        reason="cos^2 of the interior angle is irrational, so the cross term "
               "cannot be rational")
