"""The discretised sphere at granularity L: lattice points, their length-L
bit strings over {+1, -1}, and the permutation/negation operators that give
the lattice its complex and quaternionic structure.
"""

from __future__ import annotations

import io
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

Bits = tuple[int, ...]


def validate_bits(s: Sequence[int]) -> Bits:
    out = tuple(s)
    if not all(b in (1, -1) for b in out):
        raise ValueError(f"bit string entries must be +1 or -1, got {out}")
    return out


def negate(s: Sequence[int]) -> Bits:
    return tuple(-b for b in s)


@dataclass(frozen=True)
class PNO:
    """Permutation/negation operator: output[i] = signs[i] * input[perm[i]].

    `signs` defaults to None, meaning every sign is +1: then `apply` is a
    pure reordering, which is what the hidden permutation xi of a state is.
    Every perm given to the constructor is checked; only `from_seed`, whose
    perm is its own Fisher-Yates shuffle of 0..size-1, skips the check.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...] | None = None

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        if self.signs is not None and (len(self.signs) != n or
                                       not all(x in (1, -1) for x in self.signs)):
            raise ValueError("signs must be +1/-1 of matching length")

    @classmethod
    def from_seed(cls, seed: int, size: int) -> "PNO":
        """The sign-free operator on length-`size` strings whose perm is
        random.Random(seed)'s shuffle of 0..size-1: the same (seed, size)
        always gives the same perm, and uniform seeds give perms uniform over
        the symmetric group. Seeds must be >= 0: `random.Random` seeds with
        abs(seed), so -s would give the permutation of s. The size is a
        lattice string length, so a bad one is reported as L."""
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if size < 1:
            raise ValueError(f"L must be positive, got {size}")
        perm = list(range(size))
        random.Random(seed).shuffle(perm)
        xi = object.__new__(cls)  # skips __post_init__: a shuffle is a permutation
        xi.__dict__.update(perm=tuple(perm), signs=None)
        return xi

    @property
    def size(self) -> int:
        return len(self.perm)

    def apply(self, s: Sequence[int]) -> Bits:
        perm = self.perm
        if len(s) != len(perm):
            raise ValueError(f"operator arity {len(perm)} != string length {len(s)}")
        if self.signs is None:
            return tuple(s[j] for j in perm)
        return tuple(sign * s[j] for sign, j in zip(self.signs, perm))


# The length-2 generator: i{a1, a2} = {-a2, a1}, so i^2 is global negation.
I_GENERATOR = PNO(perm=(1, 0), signs=(-1, 1))

# Length-4 quaternion units.
QUATERNIONS = {
    "I": PNO(perm=(2, 3, 0, 1), signs=(1, 1, -1, -1)),
    "J": PNO(perm=(1, 0, 3, 2), signs=(1, -1, -1, 1)),
    "K": PNO(perm=(3, 2, 1, 0), signs=(-1, 1, -1, 1)),
}


def zeta(s: Sequence[int], k: int = 1) -> Bits:
    """k-fold cyclic left shift; one application is a rotation by 2pi/L."""
    bits = validate_bits(s)
    if not bits:
        return bits
    k %= len(bits)
    return bits[k:] + bits[:k]


def ones_fraction(s: Sequence[int]) -> Fraction:
    bits = validate_bits(s)
    if not bits:
        raise ValueError("empty bit string")
    return Fraction(sum(1 for b in bits if b == 1), len(bits))


@dataclass(frozen=True)
class LatticePoint:
    """A point on the granularity-L sphere: cos^2(theta/2) = m/L, phi = 2pi*n/L.

    At the poles (m = 0 or m = L) all longitudes are the same point, so n is
    normalised to 0 there.
    """

    m: int
    n: int
    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be positive, got {self.L}")
        if not 0 <= self.m <= self.L:
            raise ValueError(f"m must be in [0, L], got m={self.m}, L={self.L}")
        if not 0 <= self.n < self.L:
            raise ValueError(f"n must be in [0, L), got n={self.n}, L={self.L}")
        if self.m in (0, self.L):
            object.__setattr__(self, "n", 0)

    @property
    def ones(self) -> Fraction:
        return Fraction(self.m, self.L)

    @property
    def cos_theta(self) -> Fraction:
        return Fraction(2 * self.m - self.L, self.L)


def block_string(m: int, L: int) -> Bits:
    """m leading +1s followed by L - m trailing -1s."""
    if not 0 <= m <= L:
        raise ValueError(f"m must be in [0, L], got m={m}, L={L}")
    return (1,) * m + (-1,) * (L - m)


def canonical_bitstring(p: LatticePoint) -> Bits:
    """zeta^n applied to the block string of p; ones fraction stays m/L."""
    return zeta(block_string(p.m, p.L), p.n)


def build_spinorial_circle(L: int) -> list[Bits]:
    """The 2L strings on the phi in {0, pi} great circle for L a power of two.

    Built inductively from the two half-length circles: starting from the
    all-ones string, the second half is stepped forward through its circle,
    then the first half backward, each in runs of L/2 steps, until the cycle
    closes after 2L strings (the first half ends up rotated by a full 4pi
    relative to the second).
    """
    if L < 2 or L & (L - 1) != 0:
        raise ValueError(f"L must be a power of two >= 2, got {L}")
    if L == 2:
        circle = [(1, 1)]
        for _ in range(3):
            circle.append(I_GENERATOR.apply(circle[-1]))
        return circle
    half = build_spinorial_circle(L // 2)
    size = len(half)  # == L
    out = []
    p = q = 0
    out.append(half[p] + half[q])
    steps_per_run = L // 2
    for run in range(4):
        for _ in range(steps_per_run):
            if run % 2 == 0:
                q = (q + 1) % size
            else:
                p = (p - 1) % size
            out.append(half[p] + half[q])
    if out[-1] != out[0]:
        raise RuntimeError(f"spinorial circle at L={L} does not close")
    return out[:-1]


def interpolated_circle(L: int) -> list[Bits]:
    """Monotone block strings for m = L down to 0, the phi = 0 meridian at a
    general L; latitudes are cos(theta) = 2m/L - 1."""
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    return [block_string(m, L) for m in range(L, -1, -1)]


def lattice_size(L: int) -> int:
    """Number of distinct lattice points at granularity L: L - 1 rings of L
    longitudes plus the two poles."""
    if L < 1:
        raise ValueError(f"L must be positive, got {L}")
    return L * (L - 1) + 2


def iter_lattice(L: int) -> Iterable[LatticePoint]:
    """All distinct lattice points at granularity L (one point per pole)."""
    for m in range(L + 1):
        for n in (0,) if m in (0, L) else range(L):
            yield LatticePoint(m, n, L)


def lattice_to_csv(L: int, out: io.TextIOBase) -> int:
    """Dump the full lattice as CSV; returns the number of rows written.

    The rows are those of `csv.writer` (excel dialect: no field needs
    quoting, lines end in \\r\\n) for the points of `iter_lattice`, with
    the bits of `canonical_bitstring` space separated. The bits of (m, n)
    are L consecutive tokens of the block string written twice, so each row
    is one slice of a string built once per latitude. Rows go out 64 to a
    `write`, so no piece grows with the lattice's size beyond one row's.
    """
    count = lattice_size(L)
    out.write("m,n,L,cos_theta,bits\r\n")
    for m in range(L + 1):
        tokens = (["1"] * m + ["-1"] * (L - m)) * 2
        doubled = " ".join(tokens)
        starts = list(accumulate((len(t) + 1 for t in tokens), initial=0))
        c = Fraction(2 * m - L, L)
        tail = f"{L},{c.numerator}/{c.denominator},"
        longitudes = (0,) if m in (0, L) else range(L)
        for i in range(0, len(longitudes), 64):
            out.write("".join(f"{m},{n},{tail}{doubled[starts[n]:starts[n + L] - 1]}\r\n"
                              for n in longitudes[i:i + 64]))
    return count
