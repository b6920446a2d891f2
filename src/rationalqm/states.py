"""One- and two-qubit states as length-L bit strings with a hidden
permutation xi.

The hidden permutation plays the role of global phase: states are
equivalence classes of bit strings mod xi, but a concrete xi picks out a
specific ordered string and thereby fixes the measurement outcome. xi is a
sign-free `PNO`, usually made by `PNO.from_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Tuple

from .lattice import (PNO, Bits, LatticePoint, block_string, canonical_bitstring,
                      zeta)

# Another name for xi's type, the sign-free `PNO`.
HiddenPermutation = PNO


class LatticeUnrealisableError(ValueError):
    """Requested parameters do not land on the length-L lattice."""

    exit_code = 3  # the CLI's exit status for this error


@dataclass(frozen=True)
class QubitState:
    point: LatticePoint
    xi: PNO
    string: Bits


def _check_xi(xi: PNO) -> None:
    if xi.signs is not None:
        raise ValueError("xi must be a sign-free permutation, got a signed PNO")


def make_qubit(point: LatticePoint, xi: PNO) -> QubitState:
    _check_xi(xi)
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
    xi: PNO
    params: TwoQubitParams

    @property
    def L(self) -> int:
        return len(self.top)

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
    k = _require_integer(ones * length, f"{what} +1 count ({ones} of {length})")
    s = _require_integer(shift * length, f"{what} shift ({shift} of {length})")
    return zeta(block_string(k, length), s)


def canonical_two_qubit_strings(params: TwoQubitParams, L: int) -> Tuple[Bits, Bits]:
    """The unpermuted (top, bottom) layout for the given lattice fractions:
    the bottom(+) sub-block fills the top's +1 positions in order, and the
    bottom(-) sub-block its -1 positions."""
    top = _sub_block(L, params.top_ones, params.top_shift, "top")
    m1 = top.count(1)
    plus = iter(_sub_block(m1, params.cond_plus, params.shift_plus, "bottom(+) sub-block"))
    minus = iter(_sub_block(L - m1, params.cond_minus, params.shift_minus,
                            "bottom(-) sub-block"))
    return top, tuple([next(plus) if b == 1 else next(minus) for b in top])


def make_two_qubit(params: TwoQubitParams, L: int,
                   xi: PNO) -> TwoQubitState:
    """Build the correlated pair of strings and apply the common xi to both."""
    _check_xi(xi)
    top_c, bottom_c = canonical_two_qubit_strings(params, L)
    return TwoQubitState(top=xi.apply(top_c), bottom=xi.apply(bottom_c), xi=xi,
                         params=params)


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
                 xi: PNO) -> TwoQubitState:
    return make_two_qubit(singlet_params(cos_theta_ab), L, xi)


def exact_singlet_correlation(cos_theta_ab: Fraction, L: int) -> Fraction:
    """Position-averaged product of the unpermuted singlet strings; equals
    sin^2(theta/2) - cos^2(theta/2) = -cos(theta_AB) by construction."""
    top, bottom = canonical_two_qubit_strings(singlet_params(cos_theta_ab), L)
    return Fraction(sum(a * b for a, b in zip(top, bottom)), L)


def counterfactual_setting_change(state: TwoQubitState,
                                  new_params: TwoQubitParams) -> TwoQubitState:
    """Rebuild only the bottom string for a new setting, keeping xi and the
    top qubit's parameters; the top string is asserted bit-identical."""
    params = replace(new_params, top_ones=state.params.top_ones,
                     top_shift=state.params.top_shift)
    changed = make_two_qubit(params, state.L, state.xi)
    if changed.top != state.top:
        raise RuntimeError("locality violated: top string changed")
    return changed
