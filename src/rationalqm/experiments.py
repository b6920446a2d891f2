"""Physics demonstrations on the discretised sphere: interferometer
definability, delayed choice, uncertainty relations, counterfactual
non-commutativity, and the Bell harness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from .exact import (ExactCosine, RationalAngle, TriangleVerdict, itc_verdict,
                    niven_cosine)
from .lattice import LatticePoint
from .states import (HiddenPermutation, canonical_two_qubit_strings,
                     make_singlet, singlet_params)

if TYPE_CHECKING:
    import mpmath

PRECISION_BITS = 200
# A float is exactly 2^-150, and mpmath compares with floats exactly, so the
# tolerance needs no mpmath import until a numeric check runs.
RESIDUAL_TOL = 2.0 ** -150

CosineValue = Union[Fraction, float, "mpmath.mpf"]


class SnapInfeasibleError(ValueError):
    """No lattice latitude lies within the requested tolerance."""


def _mpf(x: CosineValue) -> mpmath.mpf:
    import mpmath
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _cis(angle: RationalAngle) -> mpmath.mpc:
    import mpmath
    return mpmath.exp(1j * angle.radians(PRECISION_BITS))


# ---------------------------------------------------------------------------
# Mach-Zehnder interferometer and delayed choice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MZReport:
    phi: RationalAngle
    inside_definable: bool
    inside_certificate: str
    output_definable: bool
    output_certificate: ExactCosine
    output_probabilities: Tuple[CosineValue, CosineValue]  # (sin^2, cos^2) of phi/2
    numeric_residual: float


def mz_simulate(phi: RationalAngle) -> MZReport:
    """Two-beamsplitter state algebra with exact definability certificates.

    Inside the interferometer the squared amplitudes are 1/2 and the phase is
    a rational turn fraction, so the inside basis is always definable for a
    rational-turn input. The output basis needs cos^2(phi/2), hence cos(phi),
    rational; the two demands only coincide on the exceptional angles.
    """
    import mpmath
    with mpmath.workprec(PRECISION_BITS):
        e = _cis(phi)
        amp_keep = (1 + e) / 2   # port that reproduces the input at phi = 0
        amp_cross = (1 - e) / 2
        half = phi.radians(PRECISION_BITS) / 2
        residual = max(abs(abs(amp_cross) ** 2 - mpmath.sin(half) ** 2),
                       abs(abs(amp_keep) ** 2 - mpmath.cos(half) ** 2))
        if not residual < RESIDUAL_TOL:
            raise ArithmeticError(
                f"interferometer probabilities off by {float(residual):.3g} "
                f"at phi = {phi.turns} of a turn")

    cert = niven_cosine(phi)
    if cert.is_rational:
        c = cert.rational
        probs: Tuple[CosineValue, CosineValue] = ((1 - c) / 2, (1 + c) / 2)
    else:
        with mpmath.workprec(PRECISION_BITS):
            probs = (mpmath.sin(half) ** 2, mpmath.cos(half) ** 2)
    return MZReport(
        phi=phi,
        inside_definable=True,
        inside_certificate=(f"squared amplitudes 1/2 rational; phase "
                            f"{phi.turns} of a turn rational"),
        output_definable=cert.is_rational,
        output_certificate=cert,
        output_probabilities=probs,
        numeric_residual=float(residual),
    )


@dataclass(frozen=True)
class DelayedChoiceReport:
    phi: RationalAngle
    second_mirror_in: bool
    demanded: str
    satisfied: bool
    certificate: ExactCosine


def delayed_choice(phi: RationalAngle, second_mirror_in: bool) -> DelayedChoiceReport:
    """Which rationality condition the configuration demands of the phase.

    Mirror in: the output basis demands cos(phi) rational. Mirror out: the
    which-path basis demands only the turn fraction rational, which a
    rational-turn input satisfies by construction.
    """
    cert = niven_cosine(phi)
    if second_mirror_in:
        return DelayedChoiceReport(phi=phi, second_mirror_in=True,
                                   demanded="cos(phi) rational",
                                   satisfied=cert.is_rational, certificate=cert)
    return DelayedChoiceReport(phi=phi, second_mirror_in=False,
                               demanded="phi/2pi rational",
                               satisfied=True, certificate=cert)


# ---------------------------------------------------------------------------
# Uncertainty
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UncertaintyReport:
    cosines: Tuple[CosineValue, CosineValue, CosineValue]
    sigma_product: CosineValue       # sin(theta') * sin(theta'')
    mu_abs: CosineValue              # |cos(theta)|
    holds: bool
    rational_flags: Tuple[bool, bool, bool]
    niven_note: str


def uncertainty_check(cosines: Sequence[CosineValue],
                      tol: Optional[mpmath.mpf] = None) -> UncertaintyReport:
    """Check sin(theta')*sin(theta'') >= |cos(theta)| for a direction given
    by its three direction cosines (squares summing to one).

    Exact Fraction inputs are compared exactly via squares; numeric inputs
    at 200-bit precision within `tol` (default 2^-150).
    """
    import mpmath
    if len(cosines) != 3:
        raise ValueError("need exactly three direction cosines")
    tol = RESIDUAL_TOL if tol is None else tol
    exact = all(isinstance(c, Fraction) for c in cosines)
    c, cp, cpp = cosines
    if exact:
        if c * c + cp * cp + cpp * cpp != 1:
            raise ValueError("direction cosines do not have unit square sum")
        lhs_sq = (1 - cp * cp) * (1 - cpp * cpp)
        rhs_sq = c * c
        holds = lhs_sq >= rhs_sq
        with mpmath.workprec(PRECISION_BITS):
            sigma = mpmath.sqrt(_mpf(lhs_sq))
        mu = abs(c)
    else:
        if not all(mpmath.isfinite(v) for v in cosines):
            raise ValueError("direction cosines must be finite, got "
                             + ", ".join(str(v) for v in cosines))
        with mpmath.workprec(PRECISION_BITS):
            mc, mcp, mcpp = _mpf(c), _mpf(cp), _mpf(cpp)
            if abs(mc ** 2 + mcp ** 2 + mcpp ** 2 - 1) > tol:
                raise ValueError("direction cosines do not have unit square sum")
            sigma = mpmath.sqrt((1 - mcp ** 2) * (1 - mcpp ** 2))
            mu = abs(mc)
            holds = bool(sigma >= mu - tol)
    flags = tuple(isinstance(v, Fraction) for v in cosines)
    note = ("all three direction cosines rational: only possible on the "
            "exceptional angle set" if all(flags) else
            "spin values along two axes are not simultaneously rational off "
            "the exceptional angle set")
    return UncertaintyReport(cosines=tuple(cosines), sigma_product=sigma,
                             mu_abs=mu, holds=holds,
                             rational_flags=flags, niven_note=note)


@dataclass(frozen=True)
class AggregateReport:
    samples: int
    seed: Optional[int]
    bound: float                 # sqrt(mean sigma'^2) * sqrt(mean sigma''^2)
    mean_abs_cos: float
    holds: bool                  # bound >= 1/2
    degenerate: bool             # every sample sits on the equality case


def aggregate_directions(directions: Sequence[Tuple[float, float]],
                         seed: Optional[int] = None) -> AggregateReport:
    """Aggregate the squared-deviation bound over explicit (cos_theta,
    phi_radians) direction samples."""
    if not directions:
        raise ValueError("need at least one direction")
    sum_sp = sum_spp = sum_abs = 0.0
    degenerate = True
    for c, phi in directions:
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
    n = len(directions)
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
    directions = [(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2 * math.pi))
                  for _ in range(M)]
    return aggregate_directions(directions, seed=seed)


# ---------------------------------------------------------------------------
# Nominal settings and lattice snapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NominalSetting:
    target_cos: float
    neighborhood: Fraction
    snapped: LatticePoint

    @property
    def exact_cos(self) -> Fraction:
        return self.snapped.cos_theta


def snap_to_lattice(target_cos: float, L: int,
                    epsilon: Optional[Fraction] = None,
                    parity: Optional[int] = None) -> NominalSetting:
    """Nearest lattice latitude cos(theta) = 2m/L - 1 to the target.

    `parity`, when given, restricts m to that parity (needed when a
    half-length sub-block must carry an integer count); the grid spacing is
    then 4/L instead of 2/L.
    """
    if not -1.0 <= target_cos <= 1.0:
        raise ValueError(f"|target_cos| must be <= 1, got {target_cos}")
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    epsilon = Fraction(2, L) if epsilon is None else Fraction(epsilon)
    exact_target = Fraction(target_cos)
    raw = (exact_target + 1) * L / 2
    if parity is None:
        m = round(raw)
        m = min(max(m, 0), L)
    else:
        m = 2 * round((raw - parity) / 2) + parity
        m = min(max(m, parity), L - (L - parity) % 2)
    err = abs(Fraction(2 * m - L, L) - exact_target)
    if err > epsilon:
        raise SnapInfeasibleError(
            f"nearest lattice cos differs from target by {float(err):.3g} "
            f"> epsilon {float(epsilon):.3g} at L={L}")
    return NominalSetting(target_cos=target_cos, neighborhood=epsilon,
                          snapped=LatticePoint(m, 0, L))


def exact_setting(cos: Fraction) -> NominalSetting:
    """A setting whose exact lattice cosine equals the given rational: uses
    the smallest granularity 2q that realises cos = p/q on the latitude grid."""
    cos = Fraction(cos)
    if abs(cos) > 1:
        raise ValueError(f"|cos| must be <= 1, got {cos}")
    L = 2 * cos.denominator
    m = cos.numerator + cos.denominator
    return NominalSetting(target_cos=float(cos), neighborhood=Fraction(0),
                          snapped=LatticePoint(m, 0, L))


# ---------------------------------------------------------------------------
# Stern-Gerlach counterfactual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SGReport:
    cos_ab: Fraction
    cos_bc: Fraction
    phi_b: RationalAngle
    verdict: TriangleVerdict

    @property
    def definable(self) -> bool:
        return self.verdict.possible

    @property
    def degenerate(self) -> bool:
        return self.verdict.reason == "degenerate"


def sg_counterfactual(setting_ab: NominalSetting, setting_bc: NominalSetting,
                      phi_b: RationalAngle) -> SGReport:
    """Whether the order-swapped run of two sequential analysers is
    simultaneously definable with the real one: needs the third relative
    cosine rational, decided by the impossible-triangle check."""
    verdict = itc_verdict(setting_ab.exact_cos, setting_bc.exact_cos, phi_b)
    return SGReport(cos_ab=setting_ab.exact_cos, cos_bc=setting_bc.exact_cos,
                    phi_b=phi_b, verdict=verdict)


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


# Most 32-bit words drawn per round; bounds the big ints a round holds. At
# 2^14 words glibc's malloc gave a pair's freed ints back to the system and
# faulted them in again for the next pair (about 270 minor page faults per
# bell op, unless an earlier import had moved its thresholds); at 2^13 words
# none showed, and a trial costs no more.
_MAX_LANES = 1 << 13


def _sum_at_uniform_positions(values: Sequence[int], trials: int,
                              rng: random.Random) -> int:
    """Return sum(values[rng.randrange(L)] for _ in range(trials)), with
    L = len(values), drawing exactly the same numbers from `rng`.

    randrange(L) redraws getrandbits(k), k = L.bit_length(), while the result
    is >= L, and getrandbits(k) is one Mersenne Twister word shifted right by
    32 - k. getrandbits(32 * n) packs the next n words, least significant
    first, so a round reads n words as one int and holds each draw in the low
    k bits of its 32-bit lane. Adding 2^k - c to every lane sets bit k
    exactly in the lanes whose draw is >= c, so one add, one mask and one
    bit_count count the lanes below c. With c at each boundary between runs
    of equal values, and at L, a round costs one count per run. A round
    draws no more words than there are trials left, so it never reads past
    the last accepted draw.
    """
    L = len(values)
    if L < 1:
        raise ValueError("need at least one value to sample from")
    k = L.bit_length()
    if k > 31:
        raise ValueError(f"L = {L} needs {k} bits per draw; at most 31 fit "
                         f"a 32-bit lane with its carry bit")
    # Runs of equal values: run j holds run_values[j] on [cuts[j-1], cuts[j]).
    starts = [i for i in range(1, L) if values[i] != values[i - 1]]
    run_values = [values[0]] + [values[i] for i in starts]
    cuts = starts + [L]
    total = 0
    lanes = 0
    while trials > 0:
        n = min(trials, _MAX_LANES)
        if n != lanes:
            lanes = n
            ones = ((1 << (32 * n)) - 1) // 0xFFFFFFFF  # 1 in every lane
            draw_mask = ones * ((1 << k) - 1)
            carry_mask = ones << k
            offsets = [ones * ((1 << k) - c) for c in cuts]
        draws = (rng.getrandbits(32 * n) >> (32 - k)) & draw_mask
        below = [n - ((draws + off) & carry_mask).bit_count() for off in offsets]
        accepted = below[-1]
        previous = 0
        for value, count in zip(run_values, below):
            total += value * (count - previous)
            previous = count
        trials -= accepted
    return total


def _singlet_pair_correlation(relative_turns: Fraction, L: int, trials: int,
                              stream_seed: int, label: str) -> PairStats:
    nominal_cos = math.cos(2 * math.pi * float(relative_turns))
    setting = snap_to_lattice(nominal_cos, L, parity=L % 2)
    snapped_cos = setting.exact_cos
    top, bottom = canonical_two_qubit_strings(singlet_params(snapped_cos), L)

    # A uniform hidden permutation sends a uniformly random source position
    # to the front, and the halving dynamics reads exactly that position on
    # both strings; sampling the position directly draws from the same
    # distribution without materialising the full permutation each trial.
    products = [a * b for a, b in zip(top, bottom)]
    total = _sum_at_uniform_positions(products, trials, random.Random(stream_seed))
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
    if L % 2 != 0:
        raise ValueError(f"singlet construction needs even L, got {L}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    labels = [("AB", nominal_a, nominal_b),
              ("AC", nominal_a, nominal_c),
              ("BC", nominal_b, nominal_c)]
    pairs = []
    for idx, (label, t1, t2) in enumerate(labels):
        delta = (Fraction(t1) - Fraction(t2)) % 1
        pairs.append(_singlet_pair_correlation(
            delta, L, trials_per_pair, _pair_seed(seed, idx), label))
    co = {p.label: p.correlation for p in pairs}
    pred = {p.label: p.predicted_nominal for p in pairs}
    quantity = abs(co["AB"] - co["AC"]) - co["BC"]
    quantity_nominal = abs(pred["AB"] - pred["AC"]) - pred["BC"]
    return BellReport(L=L, trials_per_pair=trials_per_pair, seed=seed,
                      pairs=pairs, bell_quantity=quantity,
                      bell_quantity_nominal=quantity_nominal)


def single_trial_outcomes(cos_theta_ab: Fraction, L: int,
                          xi_seed: int) -> Tuple[int, int]:
    """Full-machinery reference path for one Bell trial: build the singlet,
    permute both strings with the same hidden permutation, and run the
    halving measurement on each."""
    from .reduction import measure
    xi = HiddenPermutation.from_seed(xi_seed, L)
    state = make_singlet(cos_theta_ab, L, xi)
    return measure(state.top).outcome, measure(state.bottom).outcome

