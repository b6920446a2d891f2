"""One- and two-qubit states as length-L bit strings with a hidden
permutation xi.

The hidden permutation plays the role of global phase: states are
equivalence classes of bit strings mod xi, but a concrete xi picks out a
specific ordered string and thereby fixes the measurement outcome.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .lattice import Bits, LatticePoint, block_string, canonical_bitstring, zeta


class LatticeUnrealisableError(ValueError):
    """Requested parameters do not land on the length-L lattice."""


@dataclass(frozen=True)
class HiddenPermutation:
    """A permutation of 0..size-1, reproducibly derived from a seed.

    Same (seed, size) always yields the same permutation; uniform seeds give
    permutations uniform over the symmetric group (Fisher-Yates shuffle).
    An explicit permutation may be supplied instead of a seed, which is how
    the matched partner permutation of a perspective swap is represented.
    Seeds must be >= 0: `random.Random` seeds with abs(seed), so -s would
    give the permutation of s.
    """

    size: int
    seed: Optional[int] = None
    perm: Tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.perm is None:
            if self.seed is None:
                raise ValueError("need a seed or an explicit permutation")
            if self.seed < 0:
                raise ValueError(f"seed must be >= 0, got {self.seed}")
            rng = random.Random(self.seed)
            perm = list(range(self.size))
            rng.shuffle(perm)
            object.__setattr__(self, "perm", tuple(perm))
        else:
            object.__setattr__(self, "perm", tuple(self.perm))
            if sorted(self.perm) != list(range(self.size)):
                raise ValueError("perm is not a permutation of 0..size-1")

    @classmethod
    def from_seed(cls, seed: int, size: int) -> "HiddenPermutation":
        return cls(size=size, seed=seed)

    def apply(self, s: Sequence[int]) -> Bits:
        """output[i] = input[perm[i]]; a pure reordering, no sign flips."""
        if len(s) != self.size:
            raise ValueError(f"permutation size {self.size} != string length {len(s)}")
        return tuple(s[j] for j in self.perm)


@dataclass(frozen=True)
class QubitState:
    point: LatticePoint
    xi: HiddenPermutation
    string: Bits


def make_qubit(point: LatticePoint, xi: HiddenPermutation) -> QubitState:
    if xi.size != point.L:
        raise ValueError(f"xi acts on {xi.size} positions but L = {point.L}")
    return QubitState(point=point, xi=xi, string=xi.apply(canonical_bitstring(point)))


@dataclass(frozen=True)
class TwoQubitParams:
    """Lattice fractions describing a two-qubit state.

    top_ones = cos^2(theta1/2); cond_plus/cond_minus are the bottom string's
    +1 fractions conditional on the top bit being +1 / -1 (cos^2(theta2/2)
    and cos^2(theta3/2)); the shifts are the phase fractions phi/2pi of the
    top string and of the two bottom sub-blocks.
    """

    top_ones: Fraction
    cond_plus: Fraction
    cond_minus: Fraction
    top_shift: Fraction = Fraction(0)
    shift_plus: Fraction = Fraction(0)
    shift_minus: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("top_ones", "cond_plus", "cond_minus"):
            v = Fraction(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0 <= v <= 1:
                raise LatticeUnrealisableError(f"{name} = {v} not in [0, 1]")
        for name in ("top_shift", "shift_plus", "shift_minus"):
            object.__setattr__(self, name, Fraction(getattr(self, name)) % 1)


@dataclass(frozen=True)
class TwoQubitState:
    top: Bits
    bottom: Bits
    xi: HiddenPermutation
    params: TwoQubitParams
    L: int
    top_canonical: Bits
    bottom_canonical: Bits

    def outcome_pair(self) -> Tuple[int, int]:
        """The joint measurement outcome: both strings read at the position
        the common xi maps to the front."""
        return self.top[0], self.bottom[0]


def _require_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise LatticeUnrealisableError(
            f"lattice-unrealisable parameters: {what} = {value} is not an integer")
    return value.numerator


def _sub_block(length: int, ones: Fraction, shift: Fraction, what: str) -> Bits:
    if length == 0:
        return ()
    k = _require_integer(ones * length, f"{what} +1 count ({ones} of {length})")
    s = _require_integer(shift * length, f"{what} shift ({shift} of {length})")
    return zeta(block_string(k, length), s)


def canonical_two_qubit_strings(params: TwoQubitParams, L: int) -> Tuple[Bits, Bits]:
    """The unpermuted (top, bottom) layout for the given lattice fractions."""
    m1 = _require_integer(params.top_ones * L, f"top +1 count ({params.top_ones} of {L})")
    top = _sub_block(L, params.top_ones, params.top_shift, "top")
    plus_block = _sub_block(m1, params.cond_plus, params.shift_plus, "bottom(+) sub-block")
    minus_block = _sub_block(L - m1, params.cond_minus, params.shift_minus,
                             "bottom(-) sub-block")
    bottom = [0] * L
    ip = im = 0
    for i, b in enumerate(top):
        if b == 1:
            bottom[i] = plus_block[ip]
            ip += 1
        else:
            bottom[i] = minus_block[im]
            im += 1
    return top, tuple(bottom)


def make_two_qubit(params: TwoQubitParams, L: int,
                   xi: HiddenPermutation) -> TwoQubitState:
    """Build the correlated pair of strings and apply the common xi to both."""
    if xi.size != L:
        raise ValueError(f"xi acts on {xi.size} positions but L = {L}")
    top_c, bottom_c = canonical_two_qubit_strings(params, L)
    return TwoQubitState(top=xi.apply(top_c), bottom=xi.apply(bottom_c), xi=xi,
                         params=params, L=L,
                         top_canonical=top_c, bottom_canonical=bottom_c)


def singlet_params(cos_theta_ab: Fraction) -> TwoQubitParams:
    """Singlet layout: equatorial top string; bottom carries colatitude
    pi - theta_AB over the top's +1 half and theta_AB over the -1 half."""
    cos_theta_ab = Fraction(cos_theta_ab)
    if abs(cos_theta_ab) > 1:
        raise ValueError(f"|cos theta_AB| must be <= 1, got {cos_theta_ab}")
    sin_half_sq = (1 - cos_theta_ab) / 2
    cos_half_sq = (1 + cos_theta_ab) / 2
    return TwoQubitParams(top_ones=Fraction(1, 2),
                          cond_plus=sin_half_sq, cond_minus=cos_half_sq)


def make_singlet(cos_theta_ab: Fraction, L: int,
                 xi: HiddenPermutation) -> TwoQubitState:
    if L % 2 != 0:
        raise LatticeUnrealisableError(
            f"lattice-unrealisable parameters: singlet needs even L, got {L}")
    return make_two_qubit(singlet_params(cos_theta_ab), L, xi)


def exact_singlet_correlation(cos_theta_ab: Fraction, L: int) -> Fraction:
    """Position-averaged product of the unpermuted singlet strings; equals
    sin^2(theta/2) - cos^2(theta/2) = -cos(theta_AB) by construction."""
    top, bottom = canonical_two_qubit_strings(singlet_params(cos_theta_ab), L)
    return Fraction(sum(a * b for a, b in zip(top, bottom)), L)


def _params_from_counts(top_c: Bits, bottom_c: Bits) -> TwoQubitParams:
    L = len(top_c)
    m = sum(1 for b in top_c if b == 1)
    c_pp = sum(1 for a, b in zip(top_c, bottom_c) if a == 1 and b == 1)
    c_mp = sum(1 for a, b in zip(top_c, bottom_c) if a == -1 and b == 1)
    cond_plus = Fraction(c_pp, m) if m else Fraction(0)
    cond_minus = Fraction(c_mp, L - m) if L - m else Fraction(0)
    return TwoQubitParams(top_ones=Fraction(m, L),
                          cond_plus=cond_plus, cond_minus=cond_minus)


def swap_perspective(state: TwoQubitState) -> TwoQubitState:
    """Present the same pair with the roles of the two qubits exchanged.

    The ordered strings of the result are exactly the input's (bottom, top);
    the partner permutation xi' is constructed by explicitly matching the
    swapped canonical layout against those strings, pair type by pair type.
    """
    L = state.L
    new_top, new_bottom = state.bottom, state.top
    params = _params_from_counts(state.bottom_canonical, state.top_canonical)
    top_c, bottom_c = canonical_two_qubit_strings(params, L)

    # Bucket canonical positions by their (top, bottom) pair type, then hand
    # one out for each target position of the same type.
    buckets: dict = {}
    for j in range(L):
        buckets.setdefault((top_c[j], bottom_c[j]), []).append(j)
    perm = []
    for i in range(L):
        key = (new_top[i], new_bottom[i])
        if not buckets.get(key):
            raise ValueError(
                f"no matching partner permutation exists: pair type {key} exhausted")
        perm.append(buckets[key].pop())
    xi_prime = HiddenPermutation(size=L, perm=tuple(perm))
    return TwoQubitState(top=new_top, bottom=new_bottom, xi=xi_prime,
                         params=params, L=L,
                         top_canonical=top_c, bottom_canonical=bottom_c)


def counterfactual_setting_change(state: TwoQubitState,
                                  new_params: TwoQubitParams) -> TwoQubitState:
    """Rebuild only the bottom string for a new setting, keeping xi and the
    top qubit's parameters; the top string is asserted bit-identical."""
    params = TwoQubitParams(top_ones=state.params.top_ones,
                            top_shift=state.params.top_shift,
                            cond_plus=new_params.cond_plus,
                            cond_minus=new_params.cond_minus,
                            shift_plus=new_params.shift_plus,
                            shift_minus=new_params.shift_minus)
    changed = make_two_qubit(params, state.L, state.xi)
    if changed.top != state.top:
        raise RuntimeError("locality violated: top string changed")
    return changed


def two_qubit_to_json(state: TwoQubitState) -> dict:
    """Record of a two-qubit state for a JSON report: L, params as exact
    fractions, xi seed (when seed-derived), and the two ordered strings."""
    p = state.params
    return {
        "L": state.L,
        "params": {
            "top_ones": p.top_ones,
            "cond_plus": p.cond_plus,
            "cond_minus": p.cond_minus,
            "top_shift": p.top_shift,
            "shift_plus": p.shift_plus,
            "shift_minus": p.shift_minus,
        },
        "xi_seed": state.xi.seed,
        "top": state.top,
        "bottom": state.bottom,
    }


def qubit_to_json(state: QubitState) -> dict:
    """Record of a one-qubit state for a JSON report."""
    return {
        "L": state.point.L,
        "m": state.point.m,
        "n": state.point.n,
        "xi_seed": state.xi.seed,
        "string": state.string,
    }
