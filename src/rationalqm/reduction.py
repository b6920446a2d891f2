"""Integer-pair representation of bit strings, the halving state-reduction
dynamics, and 2-adic diagnostics.

A length-L string over {+1, -1} is the difference of two bitwise
complementary base-2 integers: the +1 positions are the 1-digits of `plus`,
the -1 positions the 1-digits of `minus`, with the string's first bit in the
most significant digit. Halving truncates the least significant digit, so
after L-1 steps the single surviving digit is the string's first bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .lattice import validate_bits


class AlreadyReducedError(ValueError):
    """The integer pair has width 1 and cannot be halved further."""


@dataclass(frozen=True)
class IntegerPair:
    plus: int
    minus: int
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        mask = (1 << self.width) - 1
        if self.plus ^ self.minus != mask:
            raise ValueError(
                f"plus={self.plus:b} and minus={self.minus:b} are not bitwise "
                f"complementary at width {self.width}")

    def bit_strings(self) -> tuple[str, str]:
        return (format(self.plus, f"0{self.width}b"),
                format(self.minus, f"0{self.width}b"))


def to_integer_pair(s: Sequence[int]) -> IntegerPair:
    bits = validate_bits(s)
    if not bits:
        raise ValueError("empty bit string")
    plus = 0
    for b in bits:
        plus = (plus << 1) | (1 if b == 1 else 0)
    mask = (1 << len(bits)) - 1
    return IntegerPair(plus=plus, minus=plus ^ mask, width=len(bits))


def reduce_step(p: IntegerPair) -> IntegerPair:
    """Divide both integers by two (truncating the last base-2 digit)."""
    if p.width < 2:
        raise AlreadyReducedError("width-1 pair is already fully reduced")
    return IntegerPair(plus=p.plus >> 1, minus=p.minus >> 1, width=p.width - 1)


@dataclass(frozen=True)
class ReductionTrace:
    """The halving dynamics from `initial` down to width 1.

    `steps` (the L pairs from `initial` to the width-1 pair) is built each
    time it is read, so a caller that needs only the outcome pays O(L).
    """

    initial: IntegerPair
    outcome: int

    @property
    def step_count(self) -> int:
        return self.initial.width - 1

    @property
    def steps(self) -> List[IntegerPair]:
        pair = self.initial
        steps = [pair]
        while pair.width > 1:
            pair = reduce_step(pair)
            steps.append(pair)
        return steps


def measure(s: Sequence[int]) -> ReductionTrace:
    """Run the halving dynamics to completion and read off the outcome.

    L-1 halvings leave the most significant digit, i.e. the first bit of the
    string (which, for a xi-permuted state, is the bit xi selected).
    """
    pair = to_integer_pair(s)
    outcome = 1 if pair.plus >> (pair.width - 1) else -1
    return ReductionTrace(initial=pair, outcome=outcome)


def two_adic_valuation(n: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    return (n & -n).bit_length() - 1


def two_adic_distance(a: int, b: int) -> Fraction:
    """2^(-v) where v is the 2-adic valuation of a - b; 0 when equal."""
    if a == b:
        return Fraction(0)
    return Fraction(1, 2 ** two_adic_valuation(a - b))

