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
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
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

# cos^2(2pi * n/d) for reduced n/d with d in RATIONAL_COS_SQ_DENOMINATORS,
# by the half-angle identity: the doubled angle 2n/d has reduced denominator
# d for odd d and d/2 for even d, since gcd(n, d) = 1.
_COS_SQ_BY_DENOMINATOR = {
    d: (1 + _COS_BY_DENOMINATOR[d if d % 2 else d // 2]) / 2
    for d in RATIONAL_COS_SQ_DENOMINATORS
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction.

    After stripping surrounding whitespace the text must be an optional sign,
    ASCII digits, and optionally '/' and ASCII digits. Decimals, exponents,
    digit separators and non-ASCII digits are all rejected.
    """
    text = text.strip()
    if "." in text:
        raise ValueError(f"decimal notation not allowed, use p/q: {text!r}")
    num, slash, den = text.partition("/")
    unsigned = num[1:] if num[:1] in ("+", "-") else num
    if not _is_digits(unsigned) or (slash and not _is_digits(den)):
        raise ValueError(f"not a finite fraction p/q: {text!r}")
    denominator = int(den) if slash else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), denominator)


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class RationalAngle:
    """An angle stored as a reduced fraction of a full turn, in [0, 1).

    Only exact turns are accepted: an int or a Fraction. A float, Decimal or
    string raises TypeError rather than being rounded to a nearby fraction.
    """

    turns: Fraction

    def __post_init__(self):
        turns = self.turns
        if isinstance(turns, Fraction):
            if 0 <= turns.numerator < turns.denominator:
                return
        elif not isinstance(turns, int):
            raise TypeError(
                f"angle turns must be an int or a Fraction, got {type(turns).__name__}")
        object.__setattr__(self, "turns", Fraction(turns) % 1)

    @classmethod
    def from_string(cls, text: str) -> "RationalAngle":
        return cls(parse_fraction(text))

    @property
    def denominator(self) -> int:
        return self.turns.denominator

    def cosine_sign(self) -> int:
        """Sign of cos(2pi * turns): +1, -1, or 0 on the quarter turns.

        For turns n/d in [0, 1) this compares 4n with d and 3d.
        """
        q, d = 4 * self.turns.numerator, self.turns.denominator
        if q == d or q == 3 * d:
            return 0
        return 1 if (q < d or q > 3 * d) else -1

    def radians(self, prec: int = 200) -> mpmath.mpf:
        import mpmath
        with mpmath.workprec(prec):
            return 2 * mpmath.pi * mpmath.mpf(self.turns.numerator) / self.turns.denominator


def is_perfect_square(r: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None.

    Returns sqrt(r) as a Fraction iff numerator and denominator are both
    perfect squares of integers.
    """
    r = _as_fraction(r)
    n, d = r.numerator, r.denominator
    if n < 0:
        raise ValueError(f"is_perfect_square: negative input {r}")
    pn = math.isqrt(n)
    pd = math.isqrt(d)
    if pn * pn == n and pd * pd == d:
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

    def numeric(self, prec: int = 200) -> mpmath.mpf:
        import mpmath
        with mpmath.workprec(prec):
            out = mpmath.mpf(self.a.numerator) / self.a.denominator
            if self.b != 0:
                out += (mpmath.mpf(self.b.numerator) / self.b.denominator
                        * mpmath.sqrt(int(self.d)))
            return out


def _surd(a: Fraction, b: Union[int, Fraction], p: int, q: int) -> Union[Fraction, Surd]:
    """Canonical a + b*sqrt(p/q) for b != 0 and a reduced p/q > 0: a Fraction
    when rational, else a Surd over a non-square integer radicand."""
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return a + b * Fraction(rp, rq)
    # sqrt(p/q) = sqrt(p*q) / q
    s, n0 = _extract_square_factor(p * q)
    return Surd(a, b * Fraction(s, q), Fraction(n0))


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
        return cls(CosineKind.RATIONAL, rational=_as_fraction(value))

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
        import mpmath
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
    c2 = _COS_SQ_BY_DENOMINATOR.get(d)
    if c2 is None:
        return ExactCosine.by_niven(angle)
    return ExactCosine.from_surd(
        _surd(Fraction(0), angle.cosine_sign(), c2.numerator, c2.denominator))


def cos_squared(angle: RationalAngle) -> Optional[Fraction]:
    """cos^2(phi) as an exact rational when one exists, read from the
    half-angle table by the reduced turn-denominator."""
    return _COS_SQ_BY_DENOMINATOR.get(angle.denominator)


def _check_cosine_range(name: str, value: Fraction) -> Fraction:
    value = _as_fraction(value)
    if abs(value.numerator) > value.denominator:
        raise ValueError(f"|{name}| must be <= 1, got {value}")
    return value


def spherical_third_side(cos_ab: Fraction, cos_bc: Fraction,
                         phi_c: RationalAngle) -> ExactCosine:
    """Exact classification of the third-side cosine of a spherical triangle,

        cos t_AC = cos t_AB * cos t_BC + sin t_AB * sin t_BC * cos phi_C,

    where phi_C is the interior angle at the shared vertex and the sines are
    the nonnegative roots of rational quantities.
    """
    return _third_side(_check_cosine_range("cos_ab", cos_ab),
                       _check_cosine_range("cos_bc", cos_bc), phi_c)


def _third_side(cos_ab: Fraction, cos_bc: Fraction,
                phi_c: RationalAngle) -> ExactCosine:
    """spherical_third_side on cosines already checked to lie in [-1, 1].

    With cos_ab = p/q and cos_bc = u/v, the sine product squared is
    r = (q^2 - p^2)(v^2 - u^2) / (qv)^2; it stays in integers and becomes a
    Fraction only where it enters the certificate.
    """
    p, q = cos_ab.numerator, cos_ab.denominator
    u, v = cos_bc.numerator, cos_bc.denominator
    base = Fraction(p * u, q * v)
    r_num = (q * q - p * p) * (v * v - u * u)
    if r_num == 0:
        # A pole: one sine factor vanishes, third side rational regardless.
        return ExactCosine.from_rational(base)
    r_den = (q * v) ** 2

    c2 = _COS_SQ_BY_DENOMINATOR.get(phi_c.denominator)
    if c2 is None:
        # Generic case: cos^2 phi_C irrational, so sqrt(r) * cos phi_C cannot
        # be rational (its square r * cos^2 phi_C would force cos^2 phi_C
        # rational).
        return ExactCosine.by_niven(phi_c, cross_base=base,
                                    cross_radicand=Fraction(r_num, r_den))
    sign = phi_c.cosine_sign()
    if sign == 0:
        return ExactCosine.from_rational(base)
    # cos phi_C = sign * sqrt(c2); the second term is sign * sqrt(r * c2),
    # rational iff r * c2 is a perfect square.
    n, d = r_num * c2.numerator, r_den * c2.denominator
    g = math.gcd(n, d)
    return ExactCosine.from_surd(_surd(base, sign, n // g, d // g))


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
    if (abs(cos_ab.numerator) == cos_ab.denominator
            or abs(cos_bc.numerator) == cos_bc.denominator):
        third = ExactCosine.from_rational(cos_ab * cos_bc)
        return TriangleVerdict(possible=True, third_side=third, reason="degenerate")
    third = _third_side(cos_ab, cos_bc, phi_c)
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
