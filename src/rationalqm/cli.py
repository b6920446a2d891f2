"""Command-line surface: every construction and experiment behind a
subcommand, with reproducible seeds and machine-readable reports.

Exit codes: 0 success, 2 invalid configuration or flags, 3 parameters that
do not land on the length-L lattice. Fractions on the command line are
always 'p/q' strings, never decimals.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import enum
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import __version__
from .exact import RationalAngle, itc_verdict, niven_cosine, parse_fraction
from .experiments import (SnapInfeasibleError, bell_run, delayed_choice,
                          exact_setting, mz_simulate,
                          position_momentum_aggregate, sg_counterfactual,
                          uncertainty_check)
from .lattice import (LatticePoint, canonical_bitstring, iter_lattice,
                      lattice_size, lattice_to_csv)
from .reduction import measure
from .states import (HiddenPermutation, LatticeUnrealisableError, make_qubit,
                     make_singlet, qubit_to_json, two_qubit_to_json)

SCHEMA_VERSION = 1

# Exact types, so that subclasses such as str-valued Enums are converted.
_JSON_LEAVES = frozenset((str, int, float, bool, type(None)))


def to_jsonable(obj: Any) -> Any:
    """Recursively convert reports to JSON-friendly values; fractions become
    'p/q' strings so exactness survives the round trip."""
    if type(obj) in _JSON_LEAVES:
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "_mpf_"):  # an mpmath.mpf, told without importing mpmath
        return float(obj)
    return obj


def build_manifest(args: argparse.Namespace, outputs: List[str]) -> Dict[str, Any]:
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "json", "csv") and v is not None}
    return {
        "command": args.command,
        "config": to_jsonable(config),
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }


def emit(args: argparse.Namespace, report: Any, summary_lines: List[str]) -> None:
    outputs = []
    if getattr(args, "csv", None):
        outputs.append(str(args.csv))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "manifest": build_manifest(args, outputs),
        "report": to_jsonable(report),
    }
    if getattr(args, "json", None) is not None:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
    for line in summary_lines:
        print(line)


def _frac(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _angle(text: str) -> RationalAngle:
    return RationalAngle(_frac(text))


def _csv_path(text: str) -> str:
    if text == "-":
        raise argparse.ArgumentTypeError("'-' is not accepted: CSV goes to a file, "
                                         "never to stdout")
    return text


def _signs(bits) -> str:
    """A +1/-1 string written as '+' and '-' characters."""
    return "".join("+" if b == 1 else "-" for b in bits)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sphere(args) -> int:
    count = lattice_size(args.L)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            lattice_to_csv(args.L, fh)
    report = {"L": args.L, "points": count, "rows": None}
    lines = [f"lattice at L={args.L}: {count} points"]
    if args.L <= 8:  # every point is listed only on small lattices
        points = [(p, canonical_bitstring(p)) for p in iter_lattice(args.L)]
        report["rows"] = [{"m": p.m, "n": p.n, "cos_theta": p.cos_theta,
                           "bits": list(bits)} for p, bits in points]
        lines += [f"  m={p.m:>2} n={p.n:>2} cos_theta={p.cos_theta}  {_signs(bits)}"
                  for p, bits in points]
    if args.csv:
        lines.append(f"csv written to {args.csv}")
    emit(args, report, lines)
    return 0


def cmd_niven(args) -> int:
    cert = niven_cosine(args.turns)
    emit(args, {"turns": args.turns.turns, "cosine": cert},
         [f"cos phi = {cert.describe()}"])
    return 0


def cmd_itc(args) -> int:
    verdict = itc_verdict(args.cos_ab, args.cos_bc, args.turns)
    emit(args, verdict,
         [f"possible = {verdict.possible}",
          f"third side: {verdict.third_side.describe()}",
          f"reason: {verdict.reason}"])
    return 0


def cmd_state(args) -> int:
    xi = HiddenPermutation.from_seed(args.seed, args.L)
    if args.singlet_cos is not None:
        state = make_singlet(args.singlet_cos, args.L, xi)
        record = two_qubit_to_json(state)
        lines = [f"singlet at cos theta_AB = {args.singlet_cos}, L={args.L}, "
                 f"seed={args.seed}",
                 "top:    " + _signs(state.top),
                 "bottom: " + _signs(state.bottom)]
    else:
        if args.m is None:
            raise ValueError("state needs --m (or --singlet-cos)")
        point = LatticePoint(args.m, args.n, args.L)
        state = make_qubit(point, xi)
        record = qubit_to_json(state)
        lines = [f"qubit at (m={args.m}, n={args.n}, L={args.L}), seed={args.seed}",
                 "string: " + _signs(state.string)]
    emit(args, record, lines)
    return 0


def cmd_measure(args) -> int:
    xi = HiddenPermutation.from_seed(args.seed, args.L)
    state = make_qubit(LatticePoint(args.m, args.n, args.L), xi)
    trace = measure(state.string)
    # Halving drops the last digit of both integers, so step k shows the
    # first L - k digits of the initial pair.
    plus, minus = trace.initial.bit_strings()
    steps = [f"{plus[:w]}.-{minus[:w]}." for w in range(len(plus), 0, -1)]
    report = {
        "m": args.m, "n": args.n, "L": args.L, "seed": args.seed,
        "string": list(state.string),
        "trace": steps,
        "outcome": trace.outcome,
        "step_count": trace.step_count,
    }
    emit(args, report,
         ["trace: " + " -> ".join(steps),
          f"outcome: {'+1' if trace.outcome == 1 else '-1'} "
          f"after {trace.step_count} halving steps"])
    return 0


def cmd_mz(args) -> int:
    report = mz_simulate(args.turns)
    p_sin, p_cos = report.output_probabilities
    emit(args, report,
         [f"inside definable: {report.inside_definable} "
          f"({report.inside_certificate})",
          f"output definable: {report.output_definable} "
          f"({report.output_certificate.describe()})",
          f"output probabilities (sin^2, cos^2 of phi/2): ({p_sin}, {p_cos})"])
    return 0


def cmd_delayed_choice(args) -> int:
    report = delayed_choice(args.turns, args.mirror == "in")
    emit(args, report,
         [f"configuration demands: {report.demanded}",
          f"satisfied: {report.satisfied} ({report.certificate.describe()})"])
    return 0


def cmd_uncertainty(args) -> int:
    if args.cosines:
        report = uncertainty_check([parse_fraction(part)
                                    for part in args.cosines.split(",")])
        emit(args, report,
             [f"sigma' * sigma'' = {float(report.sigma_product):.6f} "
              f">= |mu| = {float(report.mu_abs):.6f}: {report.holds}",
              report.niven_note])
    else:
        if args.samples is None:
            raise ValueError("uncertainty needs --cosines or --samples")
        report = position_momentum_aggregate(args.samples, args.seed)
        emit(args, report,
             [f"aggregate bound = {report.bound:.6f} >= 1/2: {report.holds}",
              f"mean |cos theta| = {report.mean_abs_cos:.6f} over "
              f"{report.samples} samples (seed {report.seed})"])
    return 0


def cmd_sg(args) -> int:
    report = sg_counterfactual(exact_setting(args.cos_ab),
                               exact_setting(args.cos_bc), args.phi_b)
    emit(args, report,
         [f"swapped-order world definable: {report.definable}"
          + (" (degenerate)" if report.degenerate else ""),
          f"third side: {report.verdict.third_side.describe()}",
          f"reason: {report.verdict.reason}"])
    return 0


def cmd_bell(args) -> int:
    if args.config:
        overrides = parse_config_file(args.config)
        for key in ("angles", "L", "trials", "seed"):
            if key in overrides and getattr(args, key, None) is None:
                setattr(args, key, overrides[key])
    missing = [k for k in ("angles", "L", "trials", "seed")
               if getattr(args, k, None) is None]
    if missing:
        raise ValueError(f"bell needs {', '.join(missing)} via flags or --config")
    angles = [parse_fraction(t) for t in args.angles.split(",")]
    if len(angles) != 3:
        raise ValueError(f"bell needs exactly three angles, got {len(angles)}: "
                         f"{args.angles!r}")
    a, b, c = angles
    report = bell_run(a, b, c, args.L, args.trials, args.seed)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("label,relative_turns,nominal_cos,snapped_cos,trials,"
                     "correlation,std_error,predicted_nominal,predicted_snapped\n")
            for p in report.pairs:
                fh.write(f"{p.label},{p.relative_turns},{p.nominal_cos!r},"
                         f"{p.snapped_cos},{p.trials},{p.correlation!r},"
                         f"{p.std_error!r},{p.predicted_nominal!r},"
                         f"{p.predicted_snapped}\n")
    lines = [f"Bell run at L={report.L}, {report.trials_per_pair} trials/pair, "
             f"seed {report.seed}"]
    for p in report.pairs:
        lines.append(f"  Co({p.label}) = {p.correlation:+.4f} +- {p.std_error:.4f} "
                     f"(predicted {p.predicted_nominal:+.4f})")
    lines.append(f"Bell quantity = {report.bell_quantity:.4f} "
                 f"(nominal prediction {report.bell_quantity_nominal:.4f}; "
                 f"bound 1 {'violated' if report.violates else 'respected'})")
    if args.csv:
        lines.append(f"csv written to {args.csv}")
    emit(args, report, lines)
    return 0


def parse_config_file(path: str) -> Dict[str, Any]:
    """Plain-text key=value config: angles (comma-separated turn fractions),
    L, trials, seed. Blank lines and '#' comments ignored."""
    out: Dict[str, Any] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("L", "trials", "seed"):
            out[key] = int(value)
        elif key == "angles":
            out[key] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# argparse takes an argument starting with '-' for an option unless it looks
# like a negative number ('-digits' or a decimal); widen that test to 'p/q'
# and comma-separated fractions, so '--cos-ab -1/3' parses as a value.
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?(,[-+]?\d+(/\d+)?)*$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rationalqm",
        description="Exact-arithmetic simulator on the discretised sphere")
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.set_defaults(func=func)
        p.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH", help="write JSON report (default stdout)")
        return p

    p = add("sphere", cmd_sphere, "enumerate the lattice at granularity L")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--csv", metavar="PATH", type=_csv_path)

    p = add("niven", cmd_niven, "classify cos of a rational-turn angle")
    p.add_argument("--turns", type=_angle, required=True)

    p = add("itc", cmd_itc, "impossible-triangle verdict")
    p.add_argument("--cos-ab", dest="cos_ab", type=_frac, required=True)
    p.add_argument("--cos-bc", dest="cos_bc", type=_frac, required=True)
    p.add_argument("--turns", type=_angle, required=True,
                   help="interior angle as a fraction of a turn")

    p = add("state", cmd_state, "dump a state as bit strings")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--singlet-cos", dest="singlet_cos", type=_frac, default=None,
                   help="dump a two-qubit singlet at this cos theta_AB instead")

    p = add("measure", cmd_measure, "run the halving measurement dynamics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("mz", cmd_mz, "interferometer definability report")
    p.add_argument("--turns", type=_angle, required=True)

    p = add("delayed-choice", cmd_delayed_choice,
            "which rationality condition the configuration demands")
    p.add_argument("--turns", type=_angle, required=True)
    p.add_argument("--mirror", choices=("in", "out"), required=True)

    p = add("uncertainty", cmd_uncertainty, "deviation-product inequality")
    p.add_argument("--cosines", default=None,
                   help="three direction cosines, comma separated")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("sg", cmd_sg, "counterfactual swapped-order definability")
    p.add_argument("--cos-ab", dest="cos_ab", type=_frac, required=True)
    p.add_argument("--cos-bc", dest="cos_bc", type=_frac, required=True)
    p.add_argument("--phi-b", dest="phi_b", type=_angle, required=True)

    p = add("bell", cmd_bell, "three-correlation Bell harness")
    p.add_argument("--angles", default=None,
                   help="three nominal directions as turn fractions, e.g. 0,1/6,1/3")
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", metavar="PATH",
                   help="key=value config file (angles, L, trials, seed)")
    p.add_argument("--csv", metavar="PATH", type=_csv_path)

    return parser


# Built on the first call to main and reused: parse_args keeps no state
# between calls, since each call returns a fresh Namespace.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (LatticeUnrealisableError, SnapInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
