#!/usr/bin/env python3
"""Scan for exceptional spherical triangles with rational third sides.

The third-side cosine of a triangle with rational side cosines and a
rational-turn interior angle is generically irrational. This scan enumerates
the exceptions at interior angles whose cosine-squared is rational (turn
denominators 8 and 12), where the cross term sqrt(r) * cos(phi) can collapse
to a rational whenever r * cos^2(phi) is a perfect square.
"""

import argparse
import sys
from fractions import Fraction

from rationalqm.exact import RationalAngle, spherical_third_side


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-den", type=int, default=12,
                    help="largest denominator for the side cosines")
    ap.add_argument("--turns", default="1/8,3/8,1/12,5/12",
                    help="comma-separated interior angles in turns")
    args = ap.parse_args()

    angles = [RationalAngle.from_string(t) for t in args.turns.split(",")]
    found = 0
    for qa in range(2, args.max_den + 1):
        for pa in range(-qa + 1, qa):
            cos_ab = Fraction(pa, qa)
            if cos_ab.denominator != qa:
                continue
            for qb in range(qa, args.max_den + 1):
                for pb in range(-qb + 1, qb):
                    cos_bc = Fraction(pb, qb)
                    if cos_bc.denominator != qb:
                        continue
                    for phi in angles:
                        out = spherical_third_side(cos_ab, cos_bc, phi)
                        if out.is_rational and cos_ab * cos_bc != out.rational:
                            found += 1
                            print(f"cos_ab={cos_ab}, cos_bc={cos_bc}, "
                                  f"phi={phi.turns} turns -> {out.rational}")
    print(f"{found} exceptional triangles found")
    return 0


if __name__ == "__main__":
    sys.exit(main())
