"""Exact-arithmetic state simulator on the discretised sphere: rational
cosine certificates, bit-string states with a hidden permutation, halving
measurement dynamics, and correlation experiments at desk scale."""

__version__ = "0.1.0"

from .exact import (ExactCosine, RationalAngle, Surd, TriangleVerdict,
                    cos_squared, is_perfect_square, itc_verdict, niven_cosine,
                    spherical_third_side)
from .lattice import (LatticePoint, PNO, apply_i, build_spinorial_circle,
                      canonical_bitstring, interpolated_circle, ones_fraction,
                      zeta)
from .reduction import (IntegerPair, ReductionTrace, measure, reduce_step,
                        to_integer_pair, two_adic_distance)
from .states import (QubitState, TwoQubitParams, TwoQubitState,
                     counterfactual_setting_change, make_qubit, make_singlet,
                     make_two_qubit, swap_perspective)
