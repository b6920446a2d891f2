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

    @property
    def outcome(self) -> int:
        # width-1 halvings leave the most significant digit: the first bit.
        return 1 if self.plus >> (self.width - 1) else -1

    @property
    def step_count(self) -> int:
        return self.width - 1

    @property
    def steps(self) -> List[IntegerPair]:
        # Built on each read, so reading only the outcome costs O(L). Step k
        # halves both integers k times: the first width - k digits.
        return [IntegerPair(plus=self.plus >> k, width=self.width - k)
                for k in range(self.width)]


_DIGIT = {1: "1", -1: "0"}


def to_integer_pair(s: Sequence[int]) -> IntegerPair:
    bits = validate_bits(s)
    if not bits:
        raise ValueError("empty bit string")
    # One base-2 parse, linear in L; shifting in one bit at a time is O(L^2).
    plus = int("".join(map(_DIGIT.__getitem__, bits)), 2)
    return IntegerPair(plus=plus, width=len(bits))


def measure(s: Sequence[int]) -> IntegerPair:
    """The halving dynamics of `s`: its integer pair, whose `steps` run to
    width 1 and whose `outcome` is the string's first bit (which, for a
    xi-permuted state, is the bit xi selected)."""
    return to_integer_pair(s)
