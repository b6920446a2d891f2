"""Command-line surface: every construction and experiment behind a
subcommand, with reproducible seeds and machine-readable reports.

Exit codes: 0 success, 2 invalid configuration or flags, 3 parameters that
do not land on the length-L lattice. Fractions on the command line are
always 'p/q' strings, never decimals.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import os
import re
import sys
from collections.abc import Callable
from fractions import Fraction

from . import __version__
from .exact import (RationalAngle, exceptional_triangles, itc_verdict,
                    niven_cosine, parse_fraction, parse_integer)

SCHEMA_VERSION = 1


def to_jsonable(obj: object) -> object:
    """The kinds of report value that JSON has no form for: a Fraction
    becomes its 'p/q' string, so exactness survives the round trip; an Enum
    its value; a dataclass instance the dict of its fields; a `measure` trace
    the list of its steps. Anything else raises TypeError. `json_chunks`
    calls this once per such value, by its module-level name, and writes a
    trace itself."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, _HalvingTrace):
        return obj[:]
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


class _HalvingTrace:
    """The halving steps of an integer pair, as the `measure` report lists
    them. Halving drops the last digit of both integers, so step k is the
    first L - k digits of the initial pair. Only the two initial digit
    strings are held, and a slice builds its own steps; being only '0',
    '1', '.' and '-', each step is its own JSON encoding between quotes."""

    def __init__(self, pair: object) -> None:
        self.plus, self.minus = pair.bit_strings()

    def __len__(self) -> int:
        return len(self.plus)

    def __getitem__(self, k: slice) -> list[str]:
        p, m = self.plus, self.minus
        return [f"{p[:w]}.-{m[:w]}." for w in range(len(p), 0, -1)[k]]


def json_chunks(obj: object) -> list[str]:
    """Pieces whose concatenation is `json.dumps(obj, indent=2, sort_keys=True,
    default=to_jsonable)`, byte for byte, except that a dict key that is not
    a string raises TypeError. A list of ints, or a `measure` trace, is
    written 64 items to a piece, so no piece but a single long string grows
    with the report."""
    from json import dumps
    from json.encoder import encode_basestring_ascii
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append, encode_basestring_ascii, dumps)
    return chunks


def _write_json(o: object, newline: str, append: Callable[[str], None],
                quote: Callable[[str], str], scalar: Callable[[object], str]) -> None:
    # `newline` is a line break and the indent of the current level. A
    # module-level function, not a closure over `chunks`: a closure that
    # calls itself is a reference cycle, and would keep every report's
    # chunks alive until the cycle collector runs. `scalar` is json.dumps.
    if isinstance(o, str):
        append(quote(o))
    elif type(o) is int:
        append(int.__repr__(o))
    elif type(o) is Fraction:
        append('"' + to_jsonable(o) + '"')
    elif o is None or isinstance(o, (int, float)):
        append(scalar(o))
    elif isinstance(o, (list, tuple, _HalvingTrace)):
        if not o:
            append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        append("[" + inner)
        mark = None
        if type(o) is _HalvingTrace:
            mark = '"'
        elif all(type(x) is int for x in o):
            mark, o = "", list(map(int.__repr__, o))
        if mark is not None:
            sep = mark + sep + mark
            append(mark)
            for i in range(0, len(o), 64):
                if i:
                    append(sep)
                append(sep.join(o[i:i + 64]))
            append(mark)
        else:
            for i, x in enumerate(o):
                if i:
                    append(sep)
                _write_json(x, inner, append, quote, scalar)
        append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        append("{" + inner)
        for i, (key, value) in enumerate(sorted(o.items())):
            if i:
                append(sep)
            append(quote(key) + ": ")
            _write_json(value, inner, append, quote, scalar)
        append(newline + "}")
    else:
        _write_json(to_jsonable(o), newline, append, quote, scalar)


def _utf8_name(path: str) -> str:
    """A file name as its UTF-8 bytes spell it, whatever the locale decoded
    argv to: the C locale makes each non-ASCII byte a lone surrogate."""
    return os.fsencode(path).decode("utf-8", "surrogateescape")


def build_manifest(args: argparse.Namespace, outputs: list[str]) -> dict[str, object]:
    import datetime
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "json", "csv") and v is not None}
    if "config" in config:
        config["config"] = _utf8_name(config["config"])
    return {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [_utf8_name(path) for path in outputs],
    }


def emit(args: argparse.Namespace, report: object, summary_lines: list[str]) -> None:
    outputs = [str(args.csv)] if getattr(args, "csv", None) else []
    if getattr(args, "json", None) is not None:
        chunks = json_chunks({
            "schema_version": SCHEMA_VERSION,
            "manifest": build_manifest(args, outputs),
            "report": report,
        })
        chunks.append("\n")
        if args.json == "-":
            sys.stdout.writelines(chunks)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
    for line in summary_lines + [f"csv written to {path}" for path in outputs]:
        print(line)


def _argument_type(parse: Callable[[str], object]) -> Callable[[str], object]:
    def convert(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_frac, _int = _argument_type(parse_fraction), _argument_type(parse_integer)


def _angle(text: str) -> RationalAngle:
    return RationalAngle(_frac(text))


def _angles(text: str) -> list[RationalAngle]:
    angles: list[RationalAngle] = []
    for part in text.split(","):
        angle = _angle(part)
        if angle in angles:  # turns are reduced mod 1
            raise argparse.ArgumentTypeError(
                f"angle {part} repeats {angle.turns} turns (mod 1)")
        angles.append(angle)
    return angles


def _csv_path(text: str) -> str:
    if text in ("", "-"):
        raise argparse.ArgumentTypeError(f"{text!r} is not accepted: CSV goes to "
                                         "a file, never to stdout")
    return text


def _check_distinct_outputs(args: argparse.Namespace) -> None:
    """No two of --config, --csv and --json PATH may name one file: an output
    would overwrite the config that replays the run, or the JSON report the
    CSV that its manifest lists as an output. Two existing paths are
    compared as files, so a hard link counts; otherwise by name."""
    named = [(flag, path) for flag in ("--config", "--csv", "--json")
             if (path := getattr(args, flag[2:], None))
             and (flag, path) != ("--json", "-")]  # --json - is stdout
    for i, (flag, path) in enumerate(named):
        for other, other_path in named[i + 1:]:
            try:
                same = os.path.samefile(path, other_path)
            except OSError:
                same = os.path.realpath(path) == os.path.realpath(other_path)
            if same:
                raise ValueError(
                    f"{flag} {path} and {other} {other_path} name the same file")


def _signs(bits) -> str:
    """A +1/-1 string written as '+' and '-' characters."""
    return "".join("+" if b == 1 else "-" for b in bits)


# ---------------------------------------------------------------------------
# Subcommands: each returns its report and its summary lines, and `main`
# emits them.
# ---------------------------------------------------------------------------

def cmd_sphere(args) -> tuple[object, list[str]]:
    from .lattice import (canonical_bitstring, iter_lattice, lattice_size,
                          lattice_to_csv)
    count = lattice_size(args.L)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            lattice_to_csv(args.L, fh)
    report = {"L": args.L, "points": count, "rows": None}
    lines = [f"lattice at L={args.L}: {count} points"]
    if args.L <= 8:  # every point is listed only on small lattices
        points = [(p, canonical_bitstring(p)) for p in iter_lattice(args.L)]
        report["rows"] = [{"m": p.m, "n": p.n, "cos_theta": p.cos_theta,
                           "bits": bits} for p, bits in points]
        lines += [f"  m={p.m:>2} n={p.n:>2} cos_theta={p.cos_theta}  {_signs(bits)}"
                  for p, bits in points]
    return report, lines


def cmd_niven(args) -> tuple[object, list[str]]:
    cert = niven_cosine(args.turns)
    return {"turns": args.turns.turns, "cosine": cert}, [f"cos phi = {cert.describe()}"]


def cmd_itc(args) -> tuple[object, list[str]]:
    verdict = itc_verdict(args.cos_ab, args.cos_bc, args.turns)
    return verdict, [f"possible = {verdict.possible}",
                     f"third side: {verdict.third_side.describe()}",
                     f"reason: {verdict.reason}"]


def cmd_scan_exceptions(args) -> tuple[object, list[str]]:
    """The triangles of `exact.exceptional_triangles`, listed one a line."""
    if args.max_den < 2:
        raise ValueError(f"--max-den must be >= 2, got {args.max_den}")
    found = [{"cos_ab": a, "cos_bc": b, "turns": t, "third_side": c}
             for a, b, t, c in exceptional_triangles(args.max_den, args.turns)]
    lines = [f"cos_ab={t['cos_ab']}, cos_bc={t['cos_bc']}, "
             f"phi={t['turns']} turns -> {t['third_side']}" for t in found]
    lines.append(f"{len(found)} exceptional triangles found")
    return {"max_den": args.max_den, "triangles": found}, lines


def cmd_state(args) -> tuple[object, list[str]]:
    from .lattice import PNO, LatticePoint
    from .states import make_qubit, make_singlet
    xi = PNO.from_seed(args.seed, args.L)
    if args.singlet_cos is not None:
        state = make_singlet(args.singlet_cos, args.L, xi)
        record = {"L": args.L, "params": state.params, "xi_seed": args.seed,
                  "top": state.top, "bottom": state.bottom}
        return record, [f"singlet at cos theta_AB = {args.singlet_cos}, L={args.L}, "
                        f"seed={args.seed}",
                        "top:    " + _signs(state.top),
                        "bottom: " + _signs(state.bottom)]
    point = LatticePoint(args.m, args.n, args.L)
    state = make_qubit(point, xi)
    record = {"L": point.L, "m": point.m, "n": point.n, "xi_seed": args.seed,
              "string": state.string}
    return record, [f"qubit at (m={point.m}, n={point.n}, L={point.L}), "
                    f"seed={args.seed}", "string: " + _signs(state.string)]


def cmd_measure(args) -> tuple[object, list[str]]:
    from .lattice import PNO, LatticePoint
    from .reduction import measure
    from .states import make_qubit
    point = LatticePoint(args.m, args.n, args.L)
    state = make_qubit(point, PNO.from_seed(args.seed, args.L))
    trace = measure(state.string)
    steps = _HalvingTrace(trace)
    report = {
        "m": point.m, "n": point.n, "L": point.L, "seed": args.seed,
        "string": state.string,
        "trace": steps,
        "outcome": trace.outcome,
        "step_count": trace.step_count,
    }
    # stdout shows the initial and the width-1 pair; --json holds every step.
    return report, [f"trace: {steps.plus}.-{steps.minus}. -> ... -> "
                    f"{steps.plus[0]}.-{steps.minus[0]}.",
                    f"outcome: {'+1' if trace.outcome == 1 else '-1'} "
                    f"after {trace.step_count} halving steps"]


def cmd_mz(args) -> tuple[object, list[str]]:
    from .experiments import mz_simulate
    report = mz_simulate(args.turns)
    p_sin, p_cos = report.output_probabilities
    return report, [f"inside definable: {report.inside_definable} "
                    f"({report.inside_certificate})",
                    f"output definable: {report.output_definable} "
                    f"({report.output_certificate.describe()})",
                    f"output probabilities (sin^2, cos^2 of phi/2): ({p_sin}, {p_cos})"]


def cmd_delayed_choice(args) -> tuple[object, list[str]]:
    from .experiments import mz_simulate
    mz = mz_simulate(args.turns)
    mirror_in = args.mirror == "in"
    report = {"phi": mz.phi, "second_mirror_in": mirror_in,
              "demanded": "cos(phi) rational" if mirror_in else "phi/2pi rational",
              "satisfied": mz.output_definable if mirror_in else mz.inside_definable,
              "certificate": mz.output_certificate}
    return report, [f"configuration demands: {report['demanded']}",
                    f"satisfied: {report['satisfied']} "
                    f"({mz.output_certificate.describe()})"]


def cmd_uncertainty(args) -> tuple[object, list[str]]:
    from .experiments import position_momentum_aggregate, uncertainty_check
    if args.cosines is not None:
        report = uncertainty_check([parse_fraction(part)
                                    for part in args.cosines.split(",")])
        return report, [f"sigma' * sigma'' = {report.sigma_product:.6f} "
                        f">= |mu| = {float(report.mu_abs):.6f}: {report.holds}",
                        report.niven_note]
    report = position_momentum_aggregate(args.samples, args.seed)
    return report, [f"aggregate bound = {report.bound:.6f} >= 1/2: {report.holds}",
                    f"mean |cos theta| = {report.mean_abs_cos:.6f} over "
                    f"{report.samples} samples (seed {report.seed})"]


def cmd_sg(args) -> tuple[object, list[str]]:
    verdict = itc_verdict(args.cos_ab, args.cos_bc, args.phi_b)
    report = {"cos_ab": args.cos_ab, "cos_bc": args.cos_bc, "phi_b": args.phi_b,
              "verdict": verdict}
    return report, [f"swapped-order world definable: {verdict.possible}"
                    + (" (degenerate)" if verdict.reason == "degenerate" else ""),
                    f"third side: {verdict.third_side.describe()}",
                    f"reason: {verdict.reason}"]


def cmd_bell(args) -> tuple[object, list[str]]:
    from .experiments import bell_run
    overrides = parse_config_file(args.config) if args.config else {}
    for key, value in overrides.items():  # a flag given on the command line wins
        if getattr(args, key) is None:
            setattr(args, key, value)
    missing = [k for k in ("angles", "L", "trials", "seed") if getattr(args, k) is None]
    if missing:
        raise ValueError(f"bell needs {', '.join(missing)} via flags or --config")
    angles = [parse_fraction(t) for t in args.angles.split(",")]
    if len(angles) != 3:
        raise ValueError(f"bell needs exactly three angles, got {len(angles)}: "
                         f"{args.angles!r}")
    a, b, c = angles
    report = bell_run(a, b, c, args.L, args.trials, args.seed)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
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
    return report, lines


def parse_config_file(path: str) -> dict[str, object]:
    """Plain-text key=value config: angles (comma-separated turn fractions),
    L, trials, seed. Blank lines and '#' comments ignored; a key may appear
    only once. The file is read as UTF-8 whatever the locale."""
    out: dict[str, object] = {}
    with open(path, encoding="utf-8") as f:
        text = f.read()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("L", "trials", "seed"):
            value = parse_integer(value)
        elif key != "angles":
            raise ValueError(f"unknown config key {key!r}")
        if key in out:
            raise ValueError(f"config key {key!r} is given twice")
        out[key] = value
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
    p.add_argument("--L", type=_int, required=True)
    p.add_argument("--csv", metavar="PATH", type=_csv_path)

    p = add("niven", cmd_niven, "classify cos of a rational-turn angle")
    p.add_argument("--turns", type=_angle, required=True)

    p = add("itc", cmd_itc, "impossible-triangle verdict")
    p.add_argument("--cos-ab", dest="cos_ab", type=_frac, required=True)
    p.add_argument("--cos-bc", dest="cos_bc", type=_frac, required=True)
    p.add_argument("--turns", type=_angle, required=True,
                   help="interior angle as a fraction of a turn")

    p = add("scan-exceptions", cmd_scan_exceptions,
            "list triangles whose third side is rational only by exception")
    p.add_argument("--max-den", dest="max_den", type=_int, default=12,
                   help="largest denominator for the side cosines")
    p.add_argument("--turns", type=_angles, default="1/8,3/8,1/12,5/12",
                   help="comma-separated interior angles in turns")

    p = add("state", cmd_state, "dump a state as bit strings")
    form = p.add_mutually_exclusive_group(required=True)
    form.add_argument("--m", type=_int, default=None)
    p.add_argument("--n", type=_int, default=0)
    p.add_argument("--L", type=_int, required=True)
    p.add_argument("--seed", type=_int, required=True)
    form.add_argument("--singlet-cos", dest="singlet_cos", type=_frac, default=None,
                      help="dump a two-qubit singlet at this cos theta_AB instead")

    p = add("measure", cmd_measure, "run the halving measurement dynamics")
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--n", type=_int, default=0)
    p.add_argument("--L", type=_int, required=True)
    p.add_argument("--seed", type=_int, required=True)

    p = add("mz", cmd_mz, "interferometer definability report")
    p.add_argument("--turns", type=_angle, required=True)

    p = add("delayed-choice", cmd_delayed_choice,
            "which rationality condition the configuration demands")
    p.add_argument("--turns", type=_angle, required=True)
    p.add_argument("--mirror", choices=("in", "out"), required=True)

    p = add("uncertainty", cmd_uncertainty, "deviation-product inequality")
    form = p.add_mutually_exclusive_group(required=True)
    form.add_argument("--cosines", default=None,
                      help="three direction cosines, comma separated")
    form.add_argument("--samples", type=_int, default=None)
    p.add_argument("--seed", type=_int, default=0)

    p = add("sg", cmd_sg, "counterfactual swapped-order definability")
    p.add_argument("--cos-ab", dest="cos_ab", type=_frac, required=True)
    p.add_argument("--cos-bc", dest="cos_bc", type=_frac, required=True)
    p.add_argument("--phi-b", dest="phi_b", type=_angle, required=True)

    p = add("bell", cmd_bell, "three-correlation Bell harness")
    p.add_argument("--angles", default=None,
                   help="three nominal directions as turn fractions, e.g. 0,1/6,1/3")
    p.add_argument("--L", type=_int, default=None)
    p.add_argument("--trials", type=_int, default=None)
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument("--config", metavar="PATH",
                   help="key=value config file (angles, L, trials, seed)")
    p.add_argument("--csv", metavar="PATH", type=_csv_path)

    return parser


# Built on the first call to main and reused: parse_args keeps no state
# between calls, since each call returns a fresh Namespace.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_distinct_outputs(args)
        report, lines = args.func(args)
        emit(args, report, lines)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0
