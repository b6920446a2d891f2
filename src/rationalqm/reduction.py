"""Integer-pair representation of bit strings and the halving
state-reduction dynamics.

A length-L string over {+1, -1} is the difference of two bitwise
complementary base-2 integers, `plus` (stored) and `minus` (derived): the +1
positions are the 1-digits of `plus`, the -1 positions those of `minus`, with
the string's first bit in the most significant digit. Halving truncates the
least significant digit, so after L-1 steps the surviving digit is the first bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .lattice import validate_bits


@dataclass(frozen=True)
class IntegerPair:
    plus: int
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.plus < 1 << self.width:
            raise ValueError(f"plus={self.plus} does not fit in width {self.width}")

    @property
    def minus(self) -> int:
        return self.plus ^ ((1 << self.width) - 1)

    def bit_strings(self) -> tuple[str, str]:
        return (format(self.plus, f"0{self.width}b"),
                format(self.minus, f"0{self.width}b"))


_DIGIT = {1: "1", -1: "0"}


def to_integer_pair(s: Sequence[int]) -> IntegerPair:
    bits = validate_bits(s)
    if not bits:
        raise ValueError("empty bit string")
    # One base-2 parse, linear in L; shifting in one bit at a time is O(L^2).
    plus = int("".join(map(_DIGIT.__getitem__, bits)), 2)
    return IntegerPair(plus=plus, width=len(bits))


@dataclass(frozen=True)
class ReductionTrace:
    """The halving dynamics from `initial` down to width 1.

    `steps` (the L pairs from `initial` to the width-1 pair) is built each
    time it is read, so a caller that needs only the outcome pays O(L).
    """

    initial: IntegerPair

    @property
    def outcome(self) -> int:
        # L-1 halvings leave the most significant digit: the string's first bit.
        return 1 if self.initial.plus >> (self.initial.width - 1) else -1

    @property
    def step_count(self) -> int:
        return self.initial.width - 1

    @property
    def steps(self) -> List[IntegerPair]:
        # Step k halves both integers k times: the first width - k digits.
        plus, width = self.initial.plus, self.initial.width
        return [IntegerPair(plus=plus >> k, width=width - k) for k in range(width)]


def measure(s: Sequence[int]) -> ReductionTrace:
    """Run the halving dynamics to completion; its outcome is the string's
    first bit (which, for a xi-permuted state, is the bit xi selected)."""
    return ReductionTrace(initial=to_integer_pair(s))

