"""The benchmark workloads: seeded inputs, the timed op, and an output
check that shares no code with the package it checks.

Every workload is a repeating sequence of *rounds*. A round holds a fixed
number of ops of each kind (the mix shares below), in an order shuffled by
the seed. Windows of the timed phase are whole rounds, so each window carries
the same mix and the per-window throughput does not depend on which ops the
seed happened to put into it. The seed chooses the concrete parameters
(points, hidden-permutation seeds, fractions); the cost of an op depends on
its kind and L, not on those parameters.

The inputs of round k come from a generator seeded with (workload, seed, k)
alone, so the same seed gives the same inputs, and a round's inputs are made
before any of its ops is timed. Rounds are made one at a time rather than
stored up front, so the benchmark's own memory stays the same however many
rounds a run gets through, and no round is replayed: an input repeats only
where the workload's distribution repeats it. Each run reports its measured
input-repeat rate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Oracle tables, written out here rather than imported from the package
# ---------------------------------------------------------------------------

# cos(2 pi t) for reduced turn fractions t with these denominators.
COS_BY_DENOMINATOR = {1: Fraction(1), 2: Fraction(-1), 3: Fraction(-1, 2),
                      4: Fraction(0), 6: Fraction(1, 2)}
# Denominators at which cos^2 is rational but cos is not (half-angle identity).
SURD_DENOMINATORS = (8, 12)
ITC_EXCLUDED = frozenset(COS_BY_DENOMINATOR) | frozenset(SURD_DENOMINATORS)

# The hand-built acceptance exceptions: (cos_ab, cos_bc, interior turns,
# expected rational third-side cosine).
ITC_EXCEPTIONS = (
    (Fraction(0), Fraction(1, 3), Fraction(1, 8), Fraction(2, 3)),
    (Fraction(0), Fraction(1, 3), Fraction(3, 8), Fraction(-2, 3)),
    (Fraction(1, 7), Fraction(0), Fraction(1, 12), Fraction(6, 7)),
)

# Two-sided tail of a standard normal beyond 5 standard deviations.
P_BEYOND_5_SIGMA = 5.733e-7


def _cos_sign(t: Fraction) -> int:
    """Sign of cos(2 pi t) for t in [0, 1)."""
    if t in (Fraction(1, 4), Fraction(3, 4)):
        return 0
    return 1 if t < Fraction(1, 4) or t > Fraction(3, 4) else -1


def _cos_squared(t: Fraction) -> Optional[Fraction]:
    """cos^2(2 pi t) when rational, else None (t reduced, in [0, 1))."""
    d = t.denominator
    if d in COS_BY_DENOMINATOR:
        return COS_BY_DENOMINATOR[d] ** 2
    if d in SURD_DENOMINATORS:
        return (1 + COS_BY_DENOMINATOR[(2 * t % 1).denominator]) / 2
    return None


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _canonical_row(m: int, n: int, L: int) -> str:
    """The CSV bits field of point (m, n): m +1s then L - m -1s, rotated
    left by n, space separated."""
    block = ["1"] * m + ["-1"] * (L - m)
    return " ".join(block[n:] + block[:n])


def _mean_check(total: int, count: int, mean: float, variance: float,
                sigmas: float) -> bool:
    """Whether a sum of `count` draws with the given mean and per-draw
    variance sits within `sigmas` standard deviations of its expectation."""
    spread = sigmas * math.sqrt(count * variance)
    return abs(total - count * mean) <= spread + 1e-9


class Workload:
    """One workload. Subclasses set the class attributes and implement
    `_make_round`, `run` and `check`."""

    name = ""
    why = ""
    op = ""                   # what one op is
    round_mix: Tuple = ()     # (kind, L or None, ops per round)
    warmup_rounds = 1         # untimed rounds before measuring
    trace_rounds = 1          # rounds a traced run processes

    def __init__(self, api: Any, seed: int, workdir: Path):
        self.api = api
        self.seed = seed
        self.workdir = workdir
        self.counts: Counter = Counter()

    # -- inputs ------------------------------------------------------------
    def _make_round(self, rng: random.Random) -> List[tuple]:
        raise NotImplementedError

    def ops(self, index: int) -> Sequence[tuple]:
        """The ops of round `index`, made from the seed and the index."""
        return self._make_round(random.Random(f"{self.name}:{self.seed}:{index}"))

    def repeat_key(self, op: tuple) -> Any:
        """What a cache keyed on this op's input would key on."""
        return op

    # -- the timed call and its check --------------------------------------
    def run(self, op: tuple) -> Any:
        raise NotImplementedError

    def check(self, op: tuple, out: Any) -> Optional[str]:
        """None when the output is right, else a one-line reason."""
        raise NotImplementedError

    def finish(self) -> List[Tuple[str, int]]:
        """Run-level statistical checks: (reason, ops failed) per failure."""
        return []

    def spec(self) -> Dict[str, Any]:
        total = sum(k for _, _, k in self.round_mix)
        return {
            "why": self.why,
            "op": self.op,
            "ops_per_round": total,
            "mix": [{"kind": kind, "L": L, "share": round(k / total, 4)}
                    for kind, L, k in self.round_mix],
            "inputs": "round k made from (workload, seed, k) before its ops are timed",
            "warmup_rounds": self.warmup_rounds,
            "trace_rounds": self.trace_rounds,
        }

    # -- helpers -----------------------------------------------------------
    def _cli(self, argv: List[str]) -> Tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.api.cli.main(argv)
        return code, out.getvalue()


# ---------------------------------------------------------------------------
# certify: exact certificates, nothing else
# ---------------------------------------------------------------------------

NIVEN, ITC, ITC_EXCEPTION = 0, 1, 2


class Certify(Workload):
    name = "certify"
    why = ("exact only: Fraction arithmetic, square tests and surd "
           "canonicalisation; lattice, states and reduction stay idle")
    op = ("one certificate: niven_cosine(RationalAngle(n/d)) with reduced "
          "d <= 1000, or itc_verdict(cos_ab, cos_bc, RationalAngle(t)) with "
          "side-cosine denominators 2-30")
    round_mix = (("niven_cosine", None, 5),
                 ("itc_verdict angle denominator in {1,2,3,4,6}", None, 2),
                 ("itc_verdict generic angle denominator 5-360", None, 9),
                 ("itc_verdict angle denominator 8 or 12", None, 3),
                 ("itc_verdict acceptance exception (8 or 12)", None, 1))
    warmup_rounds = 100
    trace_rounds = 500

    def _make_round(self, rng: random.Random) -> List[tuple]:
        n_niven, n_rational, n_generic, n_surd, n_exception = (
            k for _, _, k in self.round_mix)
        ops: List[tuple] = []
        for _ in range(n_niven):
            d = rng.randint(1, 1000)
            n = rng.randrange(d)
            while math.gcd(n, d) != 1:
                n = rng.randrange(d)
            ops.append((NIVEN, n, d, 0, 0, 0, 0))
        for _ in range(n_rational):
            d = rng.choice(sorted(COS_BY_DENOMINATOR))
            ops.append(self._itc(rng, self._coprime_turn(rng, d)))
        for _ in range(n_generic):
            while True:
                d = rng.randint(5, 360)
                t = Fraction(rng.randrange(1, d), d)
                if t.denominator not in ITC_EXCLUDED:
                    break
            ops.append(self._itc(rng, t))
        for _ in range(n_surd):
            d = rng.choice(SURD_DENOMINATORS)
            ops.append(self._itc(rng, self._coprime_turn(rng, d)))
        for _ in range(n_exception):
            a, b, t, _ = rng.choice(ITC_EXCEPTIONS)
            ops.append((ITC_EXCEPTION, a.numerator, a.denominator, b.numerator,
                        b.denominator, t.numerator, t.denominator))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _coprime_turn(rng: random.Random, d: int) -> Fraction:
        return rng.choice([Fraction(k, d) for k in range(d) if math.gcd(k, d) == 1])

    @staticmethod
    def _itc(rng: random.Random, t: Fraction) -> tuple:
        sides = []
        for _ in range(2):
            q = rng.randint(2, 30)
            sides.append(Fraction(rng.randint(-(q - 1), q - 1), q))
        a, b = sides
        return (ITC, a.numerator, a.denominator, b.numerator, b.denominator,
                t.numerator, t.denominator)

    def run(self, op: tuple) -> Any:
        exact = self.api.exact
        if op[0] == NIVEN:
            return exact.niven_cosine(exact.RationalAngle(Fraction(op[1], op[2])))
        return exact.itc_verdict(Fraction(op[1], op[2]), Fraction(op[3], op[4]),
                                 exact.RationalAngle(Fraction(op[5], op[6])))

    def check(self, op: tuple, out: Any) -> Optional[str]:
        if op[0] == NIVEN:
            return self._check_niven(Fraction(op[1], op[2]) % 1, out)
        return self._check_itc(op, out)

    @staticmethod
    def _check_niven(t: Fraction, cert: Any) -> Optional[str]:
        d = t.denominator
        kind = cert.kind.value
        if d in COS_BY_DENOMINATOR:
            if kind != "rational" or cert.rational != COS_BY_DENOMINATOR[d]:
                return f"niven {t}: expected rational {COS_BY_DENOMINATOR[d]}"
            return None
        if d in SURD_DENOMINATORS:
            s = cert.surd
            if (kind != "irrational-surd" or s.a != 0
                    or s.b * s.b * s.d != _cos_squared(t)
                    or (s.b > 0) != (_cos_sign(t) > 0)):
                return f"niven {t}: expected surd with square {_cos_squared(t)}"
            return None
        if kind != "irrational-by-niven" or cert.witness.turns != t:
            return f"niven {t}: expected a Niven irrationality certificate"
        return None

    def _check_itc(self, op: tuple, verdict: Any) -> Optional[str]:
        a, b = Fraction(op[1], op[2]), Fraction(op[3], op[4])
        t = Fraction(op[5], op[6]) % 1
        c2 = _cos_squared(t)
        root = None if c2 is None else _rational_sqrt((1 - a * a) * (1 - b * b) * c2)
        possible = root is not None
        if verdict.possible != possible:
            return f"itc {a},{b},{t}: possible={verdict.possible}, expected {possible}"
        if possible:
            value = a * b + _cos_sign(t) * root
            if not verdict.third_side.is_rational or verdict.third_side.rational != value:
                return f"itc {a},{b},{t}: third side is not {value}"
            if op[0] == ITC_EXCEPTION:
                expected = next(e[3] for e in ITC_EXCEPTIONS if e[:3] == (a, b, t))
                if value != expected:
                    return f"itc exception {a},{b},{t}: expected {expected}"
        elif verdict.third_side.is_rational:
            return f"itc {a},{b},{t}: impossible verdict with a rational third side"
        return None


# ---------------------------------------------------------------------------
# export: cli serialisation of the same lattice and reduction code
# ---------------------------------------------------------------------------

STATE_COS = ("1", "1/2", "0", "-1/2", "-1")


class Export(Workload):
    name = "export"
    why = ("lattice and reduction used the other way round: every point and "
           "every trace bit is written out; the only workload where cli "
           "serialisation has real self time")
    op = ("one cli.main call: sphere --L L --csv PATH; measure --json PATH; "
          "or state --singlet-cos c --json -")
    # Sorted by latency: state, sphere 16, measure 256, sphere 32, measure
    # 1024, sphere 64. The p50 rank falls mid-way through measure at L=256
    # and the p90 rank four fifths of the way through measure at L=1024.
    # One sphere op at L=64 per round keeps the largest CSV in the mix
    # without letting its time, which swings most with the host's speed,
    # set the p90 or most of the throughput.
    round_mix = (("sphere", 16, 2), ("sphere", 32, 2), ("sphere", 64, 1),
                 ("state", 360, 6), ("measure", 256, 4), ("measure", 1024, 5))
    warmup_rounds = 1
    trace_rounds = 2

    def _make_round(self, rng: random.Random) -> List[tuple]:
        ops = []
        for kind, L, count in self.round_mix:
            for _ in range(count):
                if kind == "sphere":
                    ops.append(("sphere", L))
                elif kind == "measure":
                    ops.append(("measure", L, rng.randint(1, L - 1), rng.randrange(L),
                                rng.getrandbits(32)))
                else:
                    ops.append(("state", L, rng.choice(STATE_COS), rng.getrandbits(32)))
        rng.shuffle(ops)
        return ops

    def run(self, op: tuple) -> Any:
        if op[0] == "sphere":
            path = self.workdir / "sphere.csv"
            argv = ["sphere", "--L", str(op[1]), "--csv", str(path)]
        elif op[0] == "measure":
            _, L, m, n, seed = op
            path = self.workdir / "measure.json"
            argv = ["measure", "--m", str(m), "--n", str(n), "--L", str(L),
                    "--seed", str(seed), "--json", str(path)]
        else:
            _, L, cos, seed = op
            path = None
            argv = ["state", f"--singlet-cos={cos}", "--L", str(L),
                    "--seed", str(seed), "--json", "-"]
        code, stdout = self._cli(argv)
        return code, stdout, path

    def check(self, op: tuple, out: Any) -> Optional[str]:
        code, stdout, path = out
        data = path.read_text() if path is not None and path.exists() else ""
        self.counts["cli.bytes_out"] += len(stdout.encode()) + len(data.encode())
        if code != 0:
            self.counts["cli.exit_nonzero"] += 1
            return f"{op[0]}: exit code {code}"
        if op[0] == "sphere":
            return self._check_sphere(op[1], stdout, data)
        if op[0] == "measure":
            return self._check_measure(op, data)
        return self._check_state(op, stdout)

    @staticmethod
    def _check_sphere(L: int, stdout: str, data: str) -> Optional[str]:
        expected_rows = L * (L - 1) + 2
        if not stdout.startswith(f"lattice at L={L}: {expected_rows} points"):
            return f"sphere L={L}: summary line does not report {expected_rows} points"
        lines = data.splitlines()
        if not lines or lines[0] != "m,n,L,cos_theta,bits":
            return f"sphere L={L}: missing CSV header"
        rows = lines[1:]
        if len(rows) != expected_rows:
            return f"sphere L={L}: {len(rows)} CSV rows, expected {expected_rows}"
        seen = set()
        for row in rows:
            m_text, n_text, l_text, cos_text, bits = row.split(",")
            m, n = int(m_text), int(n_text)
            if int(l_text) != L or not 0 <= m <= L or not 0 <= n < L:
                return f"sphere L={L}: bad row {row[:40]!r}"
            if cos_text != _frac_text(Fraction(2 * m - L, L)):
                return f"sphere L={L}: row ({m},{n}) has cos_theta {cos_text}"
            if bits != _canonical_row(m, n, L):
                return f"sphere L={L}: row ({m},{n}) is not the rotated block string"
            seen.add((m, n))
        if len(seen) != expected_rows:
            return f"sphere L={L}: {len(seen)} distinct points, expected {expected_rows}"
        return None

    @staticmethod
    def _check_measure(op: tuple, data: str) -> Optional[str]:
        _, L, m, n, seed = op
        report = json.loads(data)["report"]
        string = report["string"]
        if len(string) != L or string.count(1) != m or string.count(-1) != L - m:
            return f"measure ({m},{n},{L}): string is not {m} of {L} +1s"
        trace = report["trace"]
        if len(trace) != L or report["step_count"] != L - 1:
            return f"measure ({m},{n},{L}): trace has {len(trace)} entries"
        plus0 = "".join("1" if b == 1 else "0" for b in string)
        flip = str.maketrans("01", "10")
        for k, entry in enumerate(trace):
            width = L - k
            if entry != f"{plus0[:width]}.-{plus0[:width].translate(flip)}.":
                return f"measure ({m},{n},{L}): trace step {k} is not the halved pair"
        outcome = report["outcome"]
        if outcome != string[0] or trace[-1] != ("1.-0." if outcome == 1 else "0.-1."):
            return f"measure ({m},{n},{L}): outcome {outcome} is not the last trace digit"
        return None

    @staticmethod
    def _check_state(op: tuple, stdout: str) -> Optional[str]:
        _, L, cos_text, seed = op
        payload, _ = json.JSONDecoder().raw_decode(stdout)
        report = payload["report"]
        cos = Fraction(cos_text)
        top, bottom = report["top"], report["bottom"]
        if report["L"] != L or report["xi_seed"] != seed:
            return f"state L={L}: report has L={report['L']}, seed={report['xi_seed']}"
        if len(top) != L or len(bottom) != L or top.count(1) != L // 2:
            return f"state L={L}: top string is not half +1s"
        if report["params"]["cond_plus"] != _frac_text((1 - cos) / 2):
            return f"state L={L}: cond_plus is not (1 - cos)/2"
        if sum(a * b for a, b in zip(top, bottom)) != -cos * L:
            return f"state cos={cos} L={L}: position-averaged product is not -cos"
        return None


# ---------------------------------------------------------------------------
# bell: the paper's headline experiment at the README settings
# ---------------------------------------------------------------------------

BELL_TRIALS = 100_000
BELL_SIGMAS = 5


class Bell(Workload):
    name = "bell"
    why = ("the headline Bell run at the README settings: the per-trial "
           "sampler loop in experiments, canonical strings built once per pair")
    op = ("one cli.main call: bell --angles 0,1/6,1/3 --L 360 --trials 100000 "
          "--seed s --json PATH with a per-op seed")
    round_mix = (("bell", 360, 1),)
    warmup_rounds = 2
    trace_rounds = 5

    def _make_round(self, rng: random.Random) -> List[tuple]:
        return [("bell", rng.getrandbits(32))]

    def run(self, op: tuple) -> Any:
        path = self.workdir / "bell.json"
        code, stdout = self._cli(
            ["bell", "--angles", "0,1/6,1/3", "--L", "360", "--trials",
             str(BELL_TRIALS), "--seed", str(op[1]), "--json", str(path)])
        return code, stdout, path

    def check(self, op: tuple, out: Any) -> Optional[str]:
        code, stdout, path = out
        data = path.read_text() if path.exists() else ""
        self.counts["cli.bytes_out"] += len(stdout.encode()) + len(data.encode())
        if code != 0:
            self.counts["cli.exit_nonzero"] += 1
            return f"bell: exit code {code}"
        report = json.loads(data)["report"]
        pairs = report["pairs"]
        if [p["label"] for p in pairs] != ["AB", "AC", "BC"] or report["L"] != 360:
            return "bell: report does not hold the pairs AB, AC, BC at L=360"
        for p in pairs:
            predicted = Fraction(p["predicted_snapped"])
            if p["trials"] != BELL_TRIALS:
                return f"bell {p['label']}: {p['trials']} trials"
            if not _mean_check(round(p["correlation"] * BELL_TRIALS), BELL_TRIALS,
                               float(predicted), float(1 - predicted ** 2),
                               BELL_SIGMAS):
                return (f"bell {p['label']}: correlation {p['correlation']:+.4f} is "
                        f"not within {BELL_SIGMAS} sigma of {predicted}")
        co = {p["label"]: p["correlation"] for p in pairs}
        if abs(report["bell_quantity"] - (abs(co["AB"] - co["AC"]) - co["BC"])) > 1e-12:
            return "bell: Bell quantity does not match the pair correlations"
        return None

    def spec(self) -> Dict[str, Any]:
        out = super().spec()
        out["statistical_checks"] = (
            f"per pair {BELL_SIGMAS} sigma two-sided (false alarm "
            f"{P_BEYOND_5_SIGMA:.1e} per pair; below 1% for any run of fewer "
            "than 5,800 ops)")
        return out


WORKLOADS = {w.name: w for w in (Certify, Export, Bell)}
