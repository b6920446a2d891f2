"""Physics demonstrations on the discretised sphere: interferometer
definability, uncertainty relations and the Bell harness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .exact import ExactCosine, RationalAngle, niven_cosine
from .lattice import LatticePoint

CosineValue = Union[Fraction, float]


# ---------------------------------------------------------------------------
# Mach-Zehnder interferometer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MZReport:
    phi: RationalAngle
    inside_definable: bool
    inside_certificate: str
    output_definable: bool
    output_certificate: ExactCosine
    output_probabilities: Tuple[CosineValue, CosineValue]  # (sin^2, cos^2) of phi/2


def mz_simulate(phi: RationalAngle) -> MZReport:
    """Two-beamsplitter state algebra with exact definability certificates.

    Inside the interferometer the squared amplitudes are 1/2 and the phase is
    a rational turn fraction, so the inside basis, the which-path basis that
    delayed choice demands with the second beamsplitter out, is always
    definable for a rational-turn input. The output basis, demanded with it
    in, needs cos^2(phi/2), hence cos(phi), rational; the two demands only
    coincide on the exceptional angles.
    """
    cert = niven_cosine(phi)
    if cert.is_rational:
        c = cert.rational
        probs: Tuple[CosineValue, CosineValue] = ((1 - c) / 2, (1 + c) / 2)
    else:
        # From the turn folded into [0, 1/2]: within 5 ulp for denominators
        # <= 400, where math.sin(math.pi * t) ** 2 is up to 667 ulp off.
        u = min(phi.turns, 1 - phi.turns)
        probs = (math.sin(math.pi * u) ** 2,
                 math.sin(math.pi * (Fraction(1, 2) - u)) ** 2)
    return MZReport(
        phi=phi,
        inside_definable=True,
        inside_certificate=(f"squared amplitudes 1/2 rational; phase "
                            f"{phi.turns} of a turn rational"),
        output_definable=cert.is_rational,
        output_certificate=cert,
        output_probabilities=probs,
    )


# ---------------------------------------------------------------------------
# Uncertainty
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UncertaintyReport:
    cosines: Tuple[CosineValue, CosineValue, CosineValue]
    sigma_product: float             # sin(theta') * sin(theta''), correctly rounded
    mu_abs: CosineValue              # |cos(theta)|
    holds: bool
    rational_flags: Tuple[bool, bool, bool]
    niven_note: str


def _sqrt_float(x: Fraction) -> float:
    """The float nearest sqrt(x), for a Fraction x >= 0."""
    n, d = x.numerator, x.denominator
    k = max(0, 56 - (n.bit_length() - d.bit_length()) // 2)  # r has >= 56 bits
    num = n << 2 * k
    r = math.isqrt(num // d)
    if r * r * d != num:
        r |= 1  # a sticky bit below the 53 kept, so r rounds as the true root
    return r / (1 << k)  # int division rounds once, subnormal results too


def uncertainty_check(cosines: Sequence[CosineValue],
                      tol: Optional[CosineValue] = None) -> UncertaintyReport:
    """Check sin(theta')*sin(theta'') >= |cos(theta)| for a direction given
    by its three direction cosines (squares summing to one).

    Every input is taken as the exact Fraction it equals, and both the
    unit-sum check and the verdict are decided exactly within `tol`: 0 when
    all three cosines are Fractions, 2^-150 otherwise.
    """
    if len(cosines) != 3:
        raise ValueError("need exactly three direction cosines")
    flags = tuple(isinstance(v, Fraction) for v in cosines)
    if not all(f or math.isfinite(v) for f, v in zip(flags, cosines)):
        raise ValueError("direction cosines must be finite, got "
                         + ", ".join(str(v) for v in cosines))
    if tol is None:
        tol = 0 if all(flags) else Fraction(1, 2 ** 150)
    tol = Fraction(tol)
    c, cp, cpp = map(Fraction, cosines)
    if abs(c * c + cp * cp + cpp * cpp - 1) > tol:
        raise ValueError("direction cosines do not have unit square sum")
    # Within a tolerance |cp| or |cpp| may exceed 1 and make this negative.
    lhs_sq = max(Fraction(0), (1 - cp * cp) * (1 - cpp * cpp))
    bound = abs(c) - tol
    note = ("all three direction cosines rational: only possible on the "
            "exceptional angle set" if all(flags) else
            "spin values along two axes are not simultaneously rational off "
            "the exceptional angle set")
    return UncertaintyReport(cosines=tuple(cosines), mu_abs=abs(cosines[0]),
                             sigma_product=_sqrt_float(lhs_sq),
                             holds=bound <= 0 or lhs_sq >= bound * bound,
                             rational_flags=flags, niven_note=note)


@dataclass(frozen=True)
class AggregateReport:
    samples: int
    seed: Optional[int]
    bound: float                 # sqrt(mean sigma'^2) * sqrt(mean sigma''^2)
    mean_abs_cos: float
    holds: bool                  # bound >= 1/2
    degenerate: bool             # every sample sits on the equality case


def aggregate_directions(directions: Iterable[Tuple[float, float]],
                         seed: Optional[int] = None) -> AggregateReport:
    """Aggregate the squared-deviation bound over (cos_theta, phi_radians)
    direction samples, read once from any iterable."""
    n = 0
    sum_sp = sum_spp = sum_abs = 0.0
    degenerate = True
    for n, (c, phi) in enumerate(directions, 1):
        s = math.sqrt(max(0.0, 1.0 - c * c))
        cp = s * math.cos(phi)
        cpp = s * math.sin(phi)
        sp = 1.0 - cp * cp
        spp = 1.0 - cpp * cpp
        sum_sp += sp
        sum_spp += spp
        sum_abs += abs(c)
        if abs(sp * spp - c * c) > 1e-12:
            degenerate = False
    if n == 0:
        raise ValueError("need at least one direction")
    bound = math.sqrt(sum_sp / n) * math.sqrt(sum_spp / n)
    mean_abs = sum_abs / n
    return AggregateReport(samples=n, seed=seed, bound=bound,
                           mean_abs_cos=mean_abs, holds=bound >= 0.5,
                           degenerate=degenerate)


def position_momentum_aggregate(M: int, seed: int) -> AggregateReport:
    """Sample M directions uniform in cos(theta) (so mean |cos| -> 1/2) and
    uniform in azimuth, then aggregate the deviation-product bound."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    directions = ((rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2 * math.pi))
                  for _ in range(M))
    return aggregate_directions(directions, seed=seed)


# ---------------------------------------------------------------------------
# Lattice snapping of nominal settings
# ---------------------------------------------------------------------------

def snap_to_lattice(target_cos: Union[Fraction, float], L: int) -> LatticePoint:
    """The phi = 0 lattice point with even m whose cos(theta) = 2m/L - 1 is
    nearest the target (ties to the m/2 that is even).

    Even m gives both half-length sub-blocks of a singlet's bottom string an
    integer +1 count. The grid spacing is then 4/L, so the snap moves the
    cosine by at most 2/L.
    """
    if L < 2 or L % 2 != 0:
        raise ValueError(f"L must be even and >= 2, got {L}")
    target = Fraction(target_cos)
    if abs(target) > 1:
        raise ValueError(f"|target_cos| must be <= 1, got {target_cos}")
    return LatticePoint(2 * round((target + 1) * L / 4), 0, L)


# ---------------------------------------------------------------------------
# Bell harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairStats:
    label: str
    relative_turns: Fraction
    nominal_cos: float
    snapped_cos: Fraction
    trials: int
    seed: int
    correlation: float
    std_error: float
    predicted_nominal: float     # -cos of the nominal relative angle
    predicted_snapped: Fraction  # -cos of the snapped lattice angle


@dataclass(frozen=True)
class BellReport:
    L: int
    trials_per_pair: int
    seed: int
    pairs: List[PairStats]
    bell_quantity: float
    bell_quantity_nominal: float

    @property
    def violates(self) -> bool:
        return self.bell_quantity > 1.0


def _pair_seed(seed: int, index: int) -> int:
    # Disjoint deterministic streams per sub-ensemble; needs seed >= 0,
    # because random.Random seeds with abs() and would fold -s onto s.
    return seed * 1_000_003 + index


# Most 32-bit lanes per round, each holding up to 32 // (b + 1) draws;
# bounds the big ints a round holds. At 2^14 glibc's malloc gave a pair's
# freed ints back and faulted them in again: about 370 minor page faults per
# README-setting bell op (ru_minflt), 0.07-0.09 at 2^12. A pair runs as fast
# at 2^12 as at 2^11, and about 6% faster than at 2^13.
_MAX_LANES = 1 << 12


def _singlet_product_sum(L: int, k: int, trials: int,
                         rng: random.Random) -> int:
    """Return sum(-1 if k <= rng.randrange(L) < L - k else 1
    for _ in range(trials)), drawing exactly the same numbers from `rng`.

    That interval is where the snapped singlet's strings disagree: at even
    m = L - 2k their trial product is -1 on [k, L - k) and +1 elsewhere.
    randrange(L) redraws getrandbits(b), b = L.bit_length(), while the result
    is >= L, and getrandbits(b) is the top b bits of one Mersenne Twister
    word. getrandbits(32 * n) packs the next n words, least significant
    first. A round reads f such integers and packs them into n 32-bit lanes
    of up to 32 // (b + 1) fields: field i holds its word's draw at bits
    [32 - b - i(b + 1), 32 - i(b + 1)) of the lane, and the bit above each
    draw, field 0's being the next lane's bit 0, is clear. Adding 2^b - c to
    every field carries into that bit exactly where the draw is >= c. So the
    carries count the draws below L, and the carries of the XOR of the sums
    for k and L - k those in [k, L - k). A round draws no more words than
    there are trials left and counts every word it draws, so the stream
    stops on the same word as the loop.
    """
    b = L.bit_length()  # bell_run keeps b <= 31
    width = b + 1
    fields = 32 // width  # 3 at b = 9, 1 for every b >= 16
    total = 0
    shape = None
    while trials > 0:
        n = min(_MAX_LANES, max(1, trials // fields))
        f = min(fields, trials // n)
        if (n, f) != shape:
            shape = n, f
            ones = int.from_bytes(b"\1\0\0\0" * n, "little")  # 1 in every lane
            draw_mask = ones * ((1 << b) - 1) << (32 - b)
            # v at the low bit of each of the f fields of every lane; v = 2^b
            # is the field's carry bit. No field reaches a lane's bit 0, so
            # the lanes' copies do not overlap.
            carry_mask, off_k, off_end, off_L = (
                ones * sum(v << (32 - b - i * width) for i in range(f))
                for v in (1 << b, (1 << b) - k, (1 << b) - (L - k), (1 << b) - L))
        words = 0
        for i in range(f):
            words |= (rng.getrandbits(32 * n) & draw_mask) >> i * width
        accepted = f * n - ((words + off_L) & carry_mask).bit_count()
        inside = (((words + off_k) ^ (words + off_end)) & carry_mask).bit_count()
        total += accepted - 2 * inside
        trials -= accepted
    return total


def _singlet_pair_correlation(relative_turns: Fraction, L: int, trials: int,
                              stream_seed: int, label: str) -> PairStats:
    # A rational cosine is reported and snapped exact: only it can tie in
    # the snap, and math.cos can miss it by an ulp.
    cert = niven_cosine(RationalAngle(relative_turns))
    if cert.is_rational:
        target = cert.rational
        nominal_cos = float(target)
    else:
        target = nominal_cos = math.cos(2 * math.pi * float(relative_turns))
    point = snap_to_lattice(target, L)
    snapped_cos = point.cos_theta

    # A uniform hidden permutation sends a uniformly random source position
    # to the front, and the halving dynamics reads exactly that position on
    # both strings; sampling the position directly draws from the same
    # distribution without materialising the full permutation each trial.
    total = _singlet_product_sum(L, (L - point.m) // 2, trials,
                                 random.Random(stream_seed))
    corr = total / trials
    se = math.sqrt(max(0.0, 1.0 - corr * corr) / trials)
    return PairStats(label=label, relative_turns=relative_turns,
                     nominal_cos=nominal_cos, snapped_cos=snapped_cos,
                     trials=trials, seed=stream_seed,
                     correlation=corr, std_error=se,
                     predicted_nominal=-nominal_cos,
                     predicted_snapped=-snapped_cos)


def bell_run(nominal_a: Fraction, nominal_b: Fraction, nominal_c: Fraction,
             L: int, trials_per_pair: int, seed: int) -> BellReport:
    """Three independent singlet sub-ensembles, one per setting pair, each at
    the snapped relative angle; returns the per-pair correlations and the
    Bell quantity |Co(A,B) - Co(A,C)| - Co(B,C)."""
    if trials_per_pair < 100:
        raise ValueError(
            f"trials_per_pair = {trials_per_pair} < 100 is statistically meaningless")
    if L.bit_length() > 31:  # an L too wide for a lane is reported before the seed
        raise ValueError(f"L = {L} needs {L.bit_length()} bits per draw; at most "
                         f"31 fit a 32-bit lane with its carry bit")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    pairs = [_singlet_pair_correlation((Fraction(t1) - Fraction(t2)) % 1, L,
                                       trials_per_pair, _pair_seed(seed, idx), label)
             for idx, (label, t1, t2) in enumerate([("AB", nominal_a, nominal_b),
                                                    ("AC", nominal_a, nominal_c),
                                                    ("BC", nominal_b, nominal_c)])]
    ab, ac, bc = pairs
    return BellReport(
        L=L, trials_per_pair=trials_per_pair, seed=seed, pairs=pairs,
        bell_quantity=abs(ab.correlation - ac.correlation) - bc.correlation,
        bell_quantity_nominal=(abs(ab.predicted_nominal - ac.predicted_nominal)
                               - bc.predicted_nominal))


def single_trial_outcomes(cos_theta_ab: Fraction, L: int,
                          xi_seed: int) -> Tuple[int, int]:
    """Full-machinery reference path for one Bell trial: build the singlet,
    permute both strings with the same hidden permutation, and run the
    halving measurement on each."""
    from .lattice import PNO
    from .reduction import measure
    from .states import make_singlet
    xi = PNO.from_seed(xi_seed, L)
    state = make_singlet(cos_theta_ab, L, xi)
    return measure(state.top).outcome, measure(state.bottom).outcome

