"""Exact arithmetic over rationals and quadratic surds, with certified
rationality decisions for cosines of rational-turn angles and for the
third side of a spherical triangle.

Angles are always carried as fractions of a full turn (phi / 2pi), never as
floats: the rationality classification is a statement about the turn
fraction, and floats would destroy it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

# cos(2pi * n/d) for reduced n/d is rational exactly at these d (phi an
# exact multiple of 60 or 90 degrees), and there it is independent of n, so
# a denominator-keyed table suffices.
_COS_BY_DENOMINATOR = {
    1: Fraction(1),
    2: Fraction(-1),
    3: Fraction(-1, 2),
    4: Fraction(0),
    6: Fraction(1, 2),
}

# cos^2(2pi * n/d) for reduced n/d, rational exactly at these d: the keys
# above and, by the half-angle identity cos^2(phi) = (1 + cos 2phi)/2, 8 and
# 12. The doubled angle 2n/d has reduced denominator d for odd d and d/2 for
# even d, since gcd(n, d) = 1.
_COS_SQ_BY_DENOMINATOR = {
    d: (1 + _COS_BY_DENOMINATOR[d if d % 2 else d // 2]) / 2
    for d in (1, 2, 3, 4, 6, 8, 12)
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_SMALL_PRIMES_PRODUCT = math.prod(_SMALL_PRIMES)


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


def parse_integer(text: str) -> int:
    """Parse an optional sign and ASCII digits, as `parse_fraction` does."""
    text = text.strip()
    if not _is_digits(text[1:] if text[:1] in ("+", "-") else text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# The frozen records of this module write their own __init__: it checks its
# arguments and stores each field, in field order, by item assignment into
# the instance __dict__, where the generated one makes a separate
# object.__setattr__ call per field to get past the frozen __setattr__.
# dataclass still generates eq, hash, repr and the field list that replace
# and fields read.
@dataclass(frozen=True, init=False)
class RationalAngle:
    """An angle stored as a reduced fraction of a full turn, in [0, 1).

    Only exact turns are accepted: an int or a Fraction. A float, Decimal or
    string raises TypeError rather than being rounded to a nearby fraction.
    """

    turns: Fraction

    def __init__(self, turns: Fraction):
        if isinstance(turns, Fraction):
            if not 0 <= turns.numerator < turns.denominator:
                turns = Fraction(turns) % 1
        elif isinstance(turns, int):
            turns = Fraction(turns) % 1
        else:
            raise TypeError(
                f"angle turns must be an int or a Fraction, got {type(turns).__name__}")
        self.__dict__["turns"] = turns

    def cosine_sign(self) -> int:
        """Sign of cos(2pi * turns): +1, -1, or 0 on the quarter turns.

        For turns n/d in [0, 1) this compares 4n with d and 3d.
        """
        q, d = 4 * self.turns.numerator, self.turns.denominator
        if q == d or q == 3 * d:
            return 0
        return 1 if (q < d or q > 3 * d) else -1


def _extract_square_factor(n: int) -> tuple[int, int]:
    """Write n = s^2 * n0 with s as large as small-prime factoring finds.

    Only the primes <= 97 that divide n are tried, read off
    gcd(n, 2*3*...*97). The remainder n0 is guaranteed not to be a perfect
    square (final isqrt check), which is all the Surd certificate requires;
    n0 need not be squarefree. n must be >= 1: no s divides out of 0.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s = 1
    g = math.gcd(n, _SMALL_PRIMES_PRODUCT)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p:
            continue
        g //= p
        p2 = p * p
        while n % p2 == 0:
            n //= p2
            s *= p
    root = math.isqrt(n)
    if root * root == n:
        return s * root, 1
    return s, n


@dataclass(frozen=True, init=False)
class Surd:
    """The value a + b*sqrt(d), with d a positive non-square integer (as a
    Fraction) whenever b != 0."""

    a: Fraction
    b: Fraction
    d: Fraction

    def __init__(self, a: Fraction, b: Fraction, d: Fraction):
        if b:
            n = d.numerator
            if n <= 0 or d.denominator != 1:
                raise ValueError(f"surd radicand must be a positive integer, got {d}")
            if math.isqrt(n) ** 2 == n:
                raise ValueError(f"surd radicand {d} is a perfect square")
        state = self.__dict__
        state["a"] = a
        state["b"] = b
        state["d"] = d


class CosineKind(Enum):
    RATIONAL = "rational"
    IRRATIONAL_SURD = "irrational-surd"
    IRRATIONAL_BY_NIVEN = "irrational-by-niven"


@dataclass(frozen=True, init=False)
class ExactCosine:
    """Tri-state exact cosine value: a rational, a quadratic surd, or a
    certified irrational whose witness angle has irrational cosine-squared."""

    kind: CosineKind
    rational: Fraction | None = None
    surd: Surd | None = None
    witness: RationalAngle | None = None
    # For a certified-irrational value of the form a + sqrt(r) * cos(witness)
    # (a spherical third side), the rational pieces a and r; left as None when
    # the value is cos(witness) itself.
    cross_base: Fraction | None = None
    cross_radicand: Fraction | None = None

    def __init__(self, kind: CosineKind, rational: Fraction | None = None,
                 surd: Surd | None = None,
                 witness: RationalAngle | None = None,
                 cross_base: Fraction | None = None,
                 cross_radicand: Fraction | None = None):
        state = self.__dict__
        state["kind"] = kind
        state["rational"] = rational
        state["surd"] = surd
        state["witness"] = witness
        state["cross_base"] = cross_base
        state["cross_radicand"] = cross_radicand

    @classmethod
    def from_rational(cls, value: Fraction) -> "ExactCosine":
        return cls(CosineKind.RATIONAL, value)

    @classmethod
    def by_niven(cls, witness: RationalAngle,
                 cross_base: Fraction | None = None,
                 cross_radicand: Fraction | None = None) -> "ExactCosine":
        if witness.turns.denominator in _COS_SQ_BY_DENOMINATOR:
            raise ValueError(
                f"witness {witness.turns} has rational cosine-squared; "
                "not a valid irrationality certificate")
        return cls(CosineKind.IRRATIONAL_BY_NIVEN, None, None, witness,
                   cross_base, cross_radicand)

    @property
    def is_rational(self) -> bool:
        return self.kind is CosineKind.RATIONAL

    def describe(self) -> str:
        if self.kind is CosineKind.RATIONAL:
            return f"{self.rational} (rational)"
        if self.kind is CosineKind.IRRATIONAL_SURD:
            s = self.surd
            return f"{s.a} + {s.b}*sqrt({s.d}) (irrational surd)"
        return (f"irrational: cos^2 of {self.witness.turns} turn is irrational "
                f"(reduced denominator {self.witness.turns.denominator} not in "
                f"{sorted(_COS_SQ_BY_DENOMINATOR)})")


def _surd(a_num: int, a_den: int, sign: int, p: int, q: int) -> ExactCosine:
    """Certificate of a + sign*sqrt(p/q) for a = a_num/a_den and p/q > 0:
    rational exactly when p*q is a perfect square, else a Surd over a
    non-square integer radicand."""
    # sqrt(p/q) = sqrt(p*q) / q = (s/q) * sqrt(n0)
    s, n0 = _extract_square_factor(p * q)
    if n0 == 1:
        return ExactCosine.from_rational(
            Fraction(a_num * q + sign * s * a_den, a_den * q))
    return ExactCosine(CosineKind.IRRATIONAL_SURD, None,
                       Surd(Fraction(a_num, a_den), Fraction(sign * s, q),
                            Fraction(n0)))


# Every certificate niven_cosine gives outside the Niven case, built once:
# a rational keyed by its denominator d, a surd keyed by (d, cosine sign).
# Certificates are frozen, so every call may share them.
_NIVEN_TABLE = {
    **{d: ExactCosine.from_rational(c) for d, c in _COS_BY_DENOMINATOR.items()},
    **{(d, sign): _surd(0, 1, sign, c2.numerator, c2.denominator)
       for d, c2 in _COS_SQ_BY_DENOMINATOR.items()
       if d not in _COS_BY_DENOMINATOR for sign in (1, -1)},
}


def niven_cosine(angle: RationalAngle) -> ExactCosine:
    """Exact classification of cos(2pi * angle.turns).

    Rational exactly when the reduced turn-denominator is in {1,2,3,4,6};
    a quadratic surd when only cos^2 is rational (denominators 8, 12);
    otherwise certified irrational with the angle itself as witness.
    """
    d = angle.turns.denominator
    if d in _COS_BY_DENOMINATOR:
        return _NIVEN_TABLE[d]
    if d in _COS_SQ_BY_DENOMINATOR:
        return _NIVEN_TABLE[d, angle.cosine_sign()]
    return ExactCosine.by_niven(angle)


def _cosine_terms(name: str, value: Fraction) -> tuple[int, int]:
    """Numerator and denominator of a side cosine, checked to be exact (an
    int or a Fraction, as for RationalAngle) and to lie in [-1, 1]."""
    if not isinstance(value, (Fraction, int)):
        raise TypeError(
            f"{name} must be an int or a Fraction, got {type(value).__name__}")
    p, q = value.numerator, value.denominator
    if abs(p) > q:
        raise ValueError(f"|{name}| must be <= 1, got {value}")
    return p, q


def spherical_third_side(cos_ab: Fraction, cos_bc: Fraction,
                         phi_c: RationalAngle) -> ExactCosine:
    """Exact classification of the third-side cosine of a spherical triangle,

        cos t_AC = cos t_AB * cos t_BC + sin t_AB * sin t_BC * cos phi_C,

    where phi_C is the interior angle at the shared vertex and the sines are
    the nonnegative roots of rational quantities: for cos_ab = p/q and
    cos_bc = u/v, the sine product squared r = (q^2 - p^2)(v^2 - u^2) / (qv)^2.
    """
    p, q = _cosine_terms("cos_ab", cos_ab)
    u, v = _cosine_terms("cos_bc", cos_bc)
    r_num = (q * q - p * p) * (v * v - u * u)
    c2 = _COS_SQ_BY_DENOMINATOR.get(phi_c.turns.denominator)
    if r_num and c2 is None:
        # Generic case: cos^2 phi_C irrational, so sqrt(r) * cos phi_C cannot
        # be rational (its square r * cos^2 phi_C would force cos^2 phi_C
        # rational).
        return ExactCosine.by_niven(phi_c, cross_base=Fraction(p * u, q * v),
                                    cross_radicand=Fraction(r_num, (q * v) ** 2))
    if r_num == 0 or c2 == 0:
        # A pole (one sine factor vanishes) or cos phi_C = 0: the second term
        # vanishes, so the third side is rational.
        return ExactCosine.from_rational(Fraction(p * u, q * v))
    # cos phi_C = sign * sqrt(c2); the second term is sign * sqrt(r * c2),
    # rational iff r * c2 is a perfect square.
    n, d = r_num * c2.numerator, (q * v) ** 2 * c2.denominator
    g = math.gcd(n, d)
    return _surd(p * u, q * v, phi_c.cosine_sign(), n // g, d // g)


@dataclass(frozen=True, init=False)
class TriangleVerdict:
    """Whether all three sides of the triangle can simultaneously have
    rational cosines given a rational-turn interior angle."""

    possible: bool
    third_side: ExactCosine
    reason: str

    def __init__(self, possible: bool, third_side: ExactCosine, reason: str):
        state = self.__dict__
        state["possible"] = possible
        state["third_side"] = third_side
        state["reason"] = reason


def itc_verdict(cos_ab: Fraction, cos_bc: Fraction,
                phi_c: RationalAngle) -> TriangleVerdict:
    """Impossible-triangle check: decide whether the configuration admits a
    rational third-side cosine, with a checkable certificate either way."""
    third = spherical_third_side(cos_ab, cos_bc, phi_c)
    possible = third.is_rational
    # A pole makes the verdict possible: the third side is cos_ab * cos_bc.
    if possible and (cos_ab in (1, -1) or cos_bc in (1, -1)):
        reason = "degenerate"
    elif possible:
        reason = f"third side has rational cosine {third.rational}"
    elif third.kind is CosineKind.IRRATIONAL_SURD:
        reason = "third-side cosine is a non-rational quadratic surd"
    else:
        reason = ("cos^2 of the interior angle is irrational, so the cross term "
                  "cannot be rational")
    return TriangleVerdict(possible, third, reason)


def _product_kernel(x: int, y: int) -> int:
    """The squarefree kernel of x*y, for squarefree x and y."""
    g = math.gcd(x, y)
    return (x // g) * (y // g)


def exceptional_triangles(max_den: int, turns: Sequence[RationalAngle]
                          ) -> Iterator[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """(cos_ab, cos_bc, turns, third side) for each triangle with side
    cosines p/q in (-1, 1), 2 <= q <= max_den, and an angle from `turns`
    whose third side is rational yet not the product of its sides; by side
    a, then side b, then angle in the order given.

    At an angle with rational cos^2 = c_n/c_d and cos != 0, sides a = p/q
    and b = u/v have a rational third side exactly when b's kernel (the
    squarefree part of v^2 - u^2) is that of x*z, with x the kernel of
    q^2 - p^2 and z (1, 2 or 3) that of c_n*c_d. Other angles give an
    irrational third side, or a*b. So each a visits one bucket of sides per
    angle, and one isqrt gives each candidate's third side
    (p*u*c_d +- sqrt(R)) / (q*v*c_d), R = (q^2 - p^2)(v^2 - u^2)*c_n*c_d > 0,
    never a*b. An R that is not a square would refute this: RuntimeError.
    """
    sides = [c for q in range(2, max_den + 1) for p in range(1 - q, q)
             if (c := Fraction(p, q)).denominator == q]
    # Squarefree part of every k <= 2N, and so of q^2 - p^2 = (q - p)(q + p).
    kernel = list(range(2 * max_den + 1))
    for square in (i * i for i in range(2, math.isqrt(2 * max_den) + 1)):
        for k in range(square, len(kernel), square):
            while kernel[k] % square == 0:
                kernel[k] //= square
    side_kernels = [_product_kernel(kernel[c.denominator - c.numerator],
                                    kernel[c.denominator + c.numerator])
                    for c in sides]
    buckets: dict[int, list[int]] = {}
    for j, x in enumerate(side_kernels):
        buckets.setdefault(x, []).append(j)
    # (t, z, c_n*c_d, c_d, sign) for each angle t; cos^2 is None where
    # irrational and 0 where cos is 0, and then there is no bucket to visit.
    angle_terms = [(t, _extract_square_factor(c2.numerator * c2.denominator)[1],
                    c2.numerator * c2.denominator, c2.denominator,
                    phi.cosine_sign())
                   for t, phi in enumerate(turns)
                   if (c2 := _COS_SQ_BY_DENOMINATOR.get(phi.turns.denominator))]
    for a, x in zip(sides, side_kernels):
        p, q = a.numerator, a.denominator
        # A bucket side of smaller denominator is the mirror of a listed
        # pair, so skipping those costs no more than the output.
        for j, t, cc, c_d, sign in sorted(
                (j, t, cc, c_d, sign) for t, z, cc, c_d, sign in angle_terms
                for j in buckets.get(_product_kernel(x, z), ())
                if sides[j].denominator >= q):
            b, phi = sides[j], turns[t]
            u, v = b.numerator, b.denominator
            square = (q * q - p * p) * (v * v - u * u) * cc
            root = math.isqrt(square)
            if root * root != square:
                raise RuntimeError(f"{a}, {b}, {phi.turns} turns: R is not a square")
            yield a, b, phi.turns, Fraction(p * u * c_d + sign * root, q * v * c_d)
