import enum
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from rationalqm import cli
from rationalqm.cli import main, parse_config_file, to_jsonable
from rationalqm.lattice import LatticePoint
from rationalqm.reduction import reduce_step, to_integer_pair
from rationalqm.states import HiddenPermutation, make_qubit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_measure_report(m, n, L, seed):
    """The measure report as formatted step by step from checked IntegerPairs."""
    state = make_qubit(LatticePoint(m, n, L), HiddenPermutation.from_seed(seed, L))
    pair = to_integer_pair(state.string)
    steps = [pair]
    while pair.width > 1:
        pair = reduce_step(pair)
        steps.append(pair)
    trace = []
    for step in steps:
        plus_bits, minus_bits = step.bit_strings()
        trace.append(f"{plus_bits}.-{minus_bits}.")
    return {"m": m, "n": n, "L": L, "seed": seed, "string": list(state.string),
            "trace": trace, "outcome": 1 if pair.plus == 1 else -1,
            "step_count": len(steps) - 1}


class TestSubcommands:
    def test_sphere(self, capsys):
        code, out, _ = run(capsys, "sphere", "--L", "4")
        assert code == 0
        assert "lattice at L=4: 14 points" in out

    def test_sphere_csv(self, capsys, tmp_path):
        path = tmp_path / "lattice.csv"
        code, out, _ = run(capsys, "sphere", "--L", "4", "--csv", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,n,L,cos_theta,bits"
        assert len(lines) == 15

    def test_niven(self, capsys):
        code, out, _ = run(capsys, "niven", "--turns", "1/6")
        assert code == 0
        assert "cos phi = 1/2 (rational)" in out

    def test_niven_irrational(self, capsys):
        code, out, _ = run(capsys, "niven", "--turns", "1/5")
        assert code == 0
        assert "irrational" in out

    def test_itc(self, capsys):
        code, out, _ = run(capsys, "itc", "--cos-ab", "3/5", "--cos-bc", "4/5",
                           "--turns", "1/360")
        assert code == 0
        assert "possible = False" in out

    def test_state_qubit(self, capsys):
        code, out, _ = run(capsys, "state", "--m", "2", "--n", "0", "--L", "4",
                           "--seed", "1")
        assert code == 0
        assert "qubit at (m=2, n=0, L=4)" in out

    def test_state_singlet(self, capsys):
        code, out, _ = run(capsys, "state", "--singlet-cos", "1/2", "--L", "8",
                           "--seed", "1")
        assert code == 0
        assert "singlet at cos theta_AB = 1/2" in out

    def test_measure(self, capsys):
        code, out, _ = run(capsys, "measure", "--m", "2", "--n", "1", "--L", "4",
                           "--seed", "0")
        assert code == 0
        assert "trace:" in out and "outcome:" in out
        assert out.count("->") == 3

    @pytest.mark.parametrize("m,n,L", [(0, 0, 1), (1, 0, 1), (1, 1, 2),
                                       (2, 1, 4), (100, 37, 256)])
    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1])
    def test_measure_report_matches_pairwise_trace(self, capsys, tmp_path,
                                                   m, n, L, seed):
        path = tmp_path / "measure.json"
        code, out, _ = run(capsys, "measure", "--m", str(m), "--n", str(n),
                           "--L", str(L), "--seed", str(seed), "--json", str(path))
        assert code == 0
        expected = reference_measure_report(m, n, L, seed)
        assert json.loads(path.read_text())["report"] == expected
        sign = "+1" if expected["outcome"] == 1 else "-1"
        assert out == ("trace: " + " -> ".join(expected["trace"]) + "\n"
                       f"outcome: {sign} after {L - 1} halving steps\n")

    def test_state_reports(self, capsys):
        code, out, _ = run(capsys, "state", "--singlet-cos", "1/2", "--L", "8",
                           "--seed", "1", "--json")
        assert code == 0
        assert json.loads(out[:out.rindex("}") + 1])["report"] == {
            "L": 8, "xi_seed": 1,
            "params": {"top_ones": "1/2", "cond_plus": "1/4", "cond_minus": "3/4",
                       "top_shift": "0/1", "shift_plus": "0/1",
                       "shift_minus": "0/1"},
            "top": [1, -1, 1, -1, -1, 1, -1, 1],
            "bottom": [-1, 1, -1, 1, -1, 1, 1, -1]}
        code, out, _ = run(capsys, "state", "--m", "2", "--n", "1", "--L", "4",
                           "--seed", "9", "--json")
        assert code == 0
        assert json.loads(out[:out.rindex("}") + 1])["report"] == {
            "L": 4, "m": 2, "n": 1, "xi_seed": 9, "string": [1, -1, -1, 1]}

    def test_mz(self, capsys):
        code, out, _ = run(capsys, "mz", "--turns", "1/4")
        assert code == 0
        assert "output definable: True" in out
        assert "(1/2, 1/2)" in out

    def test_delayed_choice(self, capsys):
        code, out, _ = run(capsys, "delayed-choice", "--turns", "1/5",
                           "--mirror", "in")
        assert code == 0
        assert "satisfied: False" in out

    def test_uncertainty_cosines(self, capsys):
        code, out, _ = run(capsys, "uncertainty", "--cosines", "0,3/5,4/5")
        assert code == 0
        assert "True" in out

    def test_uncertainty_aggregate(self, capsys):
        code, out, _ = run(capsys, "uncertainty", "--samples", "2000",
                           "--seed", "3")
        assert code == 0
        assert ">= 1/2: True" in out

    def test_sg(self, capsys):
        code, out, _ = run(capsys, "sg", "--cos-ab", "3/5", "--cos-bc", "3/5",
                           "--phi-b", "1/2")
        assert code == 0
        assert "definable: True" in out

    def test_bell(self, capsys):
        code, out, _ = run(capsys, "bell", "--angles", "0,1/6,1/3", "--L", "360",
                           "--trials", "500", "--seed", "7")
        assert code == 0
        assert "Bell quantity" in out
        assert "Co(AB)" in out


class TestExitCodes:
    def test_bad_flag(self, capsys):
        code, _, _ = run(capsys, "niven", "--nope")
        assert code == 2

    def test_decimal_fraction_rejected(self, capsys):
        code, _, err = run(capsys, "niven", "--turns", "0.5")
        assert code == 2

    def test_negative_decimal_rejected_as_decimal(self, capsys):
        code, _, err = run(capsys, "niven", "--turns", "-0.5")
        assert code == 2
        assert "decimal notation not allowed" in err

    def test_bell_missing_parameters(self, capsys):
        code, _, err = run(capsys, "bell", "--angles", "0,1/6,1/3")
        assert code == 2
        assert "bell needs" in err

    def test_state_missing_m(self, capsys):
        code, _, err = run(capsys, "state", "--L", "4", "--seed", "1")
        assert code == 2

    def test_unrealisable_singlet(self, capsys):
        code, _, err = run(capsys, "state", "--singlet-cos", "1/2", "--L", "6",
                           "--seed", "1")
        assert code == 3
        assert "lattice-unrealisable" in err

    @pytest.mark.parametrize("argv", [
        ("niven", "--turns", "1/0"),
        ("itc", "--cos-ab", "1/0", "--cos-bc", "1/2", "--turns", "1/4"),
        ("bell", "--angles", "0,1/0,1/3", "--L", "360", "--trials", "1000",
         "--seed", "1"),
    ])
    def test_zero_denominator(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2

    @pytest.mark.parametrize("cosines", ["nan,0,1", "inf,0,1", "0,-inf,1"])
    def test_non_finite_cosines(self, capsys, cosines):
        code, _, err = run(capsys, "uncertainty", "--cosines", cosines)
        assert code == 2
        assert "finite" in err

    def test_negative_bell_seed(self, capsys):
        code, _, err = run(capsys, "bell", "--angles", "0,1/6,1/3", "--L", "360",
                           "--trials", "1000", "--seed", "-1")
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("L", ["0", "-2"])
    def test_sphere_needs_positive_L(self, capsys, tmp_path, L):
        path = tmp_path / "lattice.csv"
        code, out, err = run(capsys, "sphere", "--L", L, "--csv", str(path))
        assert code == 2
        assert "positive" in err and out == ""
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ("state", "--m", "3", "--n", "1", "--L", "12", "--seed", "-5"),
        ("state", "--singlet-cos", "1/2", "--L", "8", "--seed", "-1"),
        ("measure", "--m", "3", "--n", "1", "--L", "12", "--seed", "-5"),
        ("uncertainty", "--samples", "50", "--seed", "-2"),
    ])
    def test_negative_seed(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "seed must be >= 0" in err

    def test_decimal_cosines_rejected(self, capsys):
        code, _, err = run(capsys, "uncertainty", "--cosines", "0.6,0.8,0")
        assert code == 2
        assert "decimal" in err

    @pytest.mark.parametrize("literal", ["1e-1", "1E3", "1_0", "\u0661/\u0662"])
    @pytest.mark.parametrize("argv", [
        ("niven", "--turns", "{}"),
        ("itc", "--cos-ab", "{}", "--cos-bc", "1/2", "--turns", "1/4"),
        ("sg", "--cos-ab", "1/2", "--cos-bc", "1/2", "--phi-b", "{}"),
        ("uncertainty", "--cosines", "0,{},1"),
        ("bell", "--angles", "0,{},1/3", "--L", "360", "--trials", "1000",
         "--seed", "1"),
    ], ids=["niven", "itc", "sg", "uncertainty", "bell"])
    def test_only_ascii_p_over_q(self, capsys, argv, literal):
        code, _, err = run(capsys, *(arg.format(literal) for arg in argv))
        assert code == 2
        assert "not a finite fraction p/q" in err

    @pytest.mark.parametrize("literal", ["1e-1", "1_0", "\u0661/\u0662"])
    def test_only_ascii_p_over_q_in_config(self, capsys, tmp_path, literal):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text(f"angles = 0,{literal},1/3\nL = 360\ntrials = 1000\n"
                       "seed = 1\n", encoding="utf-8")
        code, _, err = run(capsys, "bell", "--config", str(cfg))
        assert code == 2
        assert "not a finite fraction p/q" in err

    @pytest.mark.parametrize("angles", ["0,1/6", "0,1/6,1/3,1/2"])
    def test_bell_needs_three_angles(self, capsys, angles):
        code, _, err = run(capsys, "bell", "--angles", angles, "--L", "360",
                           "--trials", "1000", "--seed", "1")
        assert code == 2
        assert "exactly three angles" in err

    @pytest.mark.parametrize("argv", [
        ("sphere", "--L", "4"),
        ("bell", "--angles", "0,1/6,1/3", "--L", "360", "--trials", "1000",
         "--seed", "1"),
    ], ids=["sphere", "bell"])
    def test_csv_dash_rejected(self, capsys, tmp_path, monkeypatch, argv):
        # '-' is stdout for --json but never for --csv: no file named '-'
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--csv", "-")
        assert code == 2
        assert "--csv" in err and out == ""
        assert list(tmp_path.iterdir()) == []

    def test_tiny_bell_run(self, capsys):
        code, _, err = run(capsys, "bell", "--angles", "0,1/6,1/3", "--L", "360",
                           "--trials", "10", "--seed", "1")
        assert code == 2


class TestJsonReports:
    def test_schema_and_manifest(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "niven", "--turns", "1/6", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert payload["manifest"]["command"] == "niven"
        assert payload["manifest"]["tool_version"]
        assert payload["report"]["cosine"]["rational"] == "1/2"

    def test_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "niven", "--turns", "1/6", "--json")
        assert code == 0
        payload = json.loads(out[:out.rindex("}") + 1])
        assert payload["report"]["turns"] == "1/6"

    def test_report_deterministic_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(capsys, "bell", "--angles", "0,1/6,1/3",
                             "--L", "360", "--trials", "500", "--seed", "9",
                             "--json", str(p))
            assert code == 0
        a, b = (json.loads(p.read_text()) for p in paths)
        assert a["report"] == b["report"]
        assert a["manifest"]["seed"] == b["manifest"]["seed"] == 9

    def test_bell_csv(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        code, _, _ = run(capsys, "bell", "--angles", "0,1/6,1/3", "--L", "360",
                         "--trials", "500", "--seed", "9", "--csv", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("label,relative_turns,nominal_cos")
        assert len(lines) == 4
        assert lines[1].startswith("AB,")


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("# comment\nangles = 0,1/6,1/3\nL = 360\n"
                       "trials = 500\nseed = 4\n")
        out = parse_config_file(str(cfg))
        assert out == {"angles": "0,1/6,1/3", "L": 360, "trials": 500, "seed": 4}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("angles 0,1/6,1/3\n")
        with pytest.raises(ValueError):
            parse_config_file(str(cfg))

    def test_bell_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("angles = 0,1/6,1/3\nL = 360\ntrials = 500\nseed = 4\n")
        code, out, _ = run(capsys, "bell", "--config", str(cfg))
        assert code == 0
        assert "Bell run at L=360, 500 trials/pair, seed 4" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("angles = 0,1/6,1/3\nL = 360\ntrials = 500\nseed = 4\n")
        code, out, _ = run(capsys, "bell", "--config", str(cfg), "--seed", "12")
        assert code == 0
        assert "seed 12" in out


class TestToJsonable:
    def test_fractions_and_tuples(self):
        assert to_jsonable({"x": Fraction(2, 4), "y": (1, 2)}) == {
            "x": "1/2", "y": [1, 2]}

    def test_leaves(self):
        class Kind(str, enum.Enum):
            RATIONAL = "rational"

        out = to_jsonable([True, None, Kind.RATIONAL, Fraction(-3, 6),
                           mpmath.mpf(0.25), 7, 1.5, "s"])
        assert out == [True, None, "rational", "-1/2", 0.25, 7, 1.5, "s"]
        assert [type(v) for v in out] == [bool, type(None), str, str, float,
                                         int, float, str]


class TestNegativeFractionValues:
    """A negative 'p/q' may follow its flag as a separate argument; it used
    to work only in the '--flag=-p/q' form."""

    @pytest.mark.parametrize("argv,flag,value", [
        (("niven",), "--turns", "-7/3"),
        (("itc", "--cos-bc", "1/2", "--turns", "1/4"), "--cos-ab", "-1/3"),
        (("itc", "--cos-ab", "1/2", "--turns", "1/4"), "--cos-bc", "-1/3"),
        (("itc", "--cos-ab", "1/2", "--cos-bc", "1/2"), "--turns", "-1/8"),
        (("state", "--L", "8", "--seed", "1"), "--singlet-cos", "-1/2"),
        (("mz",), "--turns", "-1/5"),
        (("delayed-choice", "--mirror", "in"), "--turns", "-1/6"),
        (("uncertainty",), "--cosines", "-3/5,0,4/5"),
        (("sg", "--cos-bc", "3/5", "--phi-b", "1/2"), "--cos-ab", "-1/2"),
        (("sg", "--cos-ab", "3/5", "--phi-b", "1/2"), "--cos-bc", "-1/2"),
        (("sg", "--cos-ab", "3/5", "--cos-bc", "3/5"), "--phi-b", "-1/2"),
        (("bell", "--L", "360", "--trials", "500", "--seed", "3"),
         "--angles", "-1/6,0,1/6"),
    ], ids=lambda v: v if isinstance(v, str) and v.startswith("--") else None)
    def test_separate_value_matches_equals_form(self, capsys, argv, flag, value):
        joined = run(capsys, *argv, f"{flag}={value}")
        separate = run(capsys, *argv, flag, value)
        assert joined[0] == 0
        assert separate == joined


_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def run_masked(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, _TIMESTAMP.sub('"timestamp": ""', out), err


class TestParserReuse:
    """main builds its parser once per process; every call must behave as
    if the parser were new."""

    ARGVS = [
        ("niven", "--turns", "1/6", "--json", "-"),
        ("niven", "--nope"),                                         # argparse error
        ("niven", "--turns", "1/5", "--json", "-"),
        ("state", "--singlet-cos", "1/2", "--L", "8", "--seed", "1", "--json", "-"),
        ("state", "--L", "4", "--seed", "1"),                        # ValueError
        ("state", "--m", "2", "--n", "1", "--L", "4", "--seed", "9", "--json", "-"),
        ("state", "--singlet-cos", "1/2", "--L", "6", "--seed", "1"),  # unrealisable
        ("sphere", "--L", "3", "--json", "-"),
        ("--help",),
        ("itc", "--cos-ab", "3/5", "--cos-bc", "4/5", "--turns", "1/360", "--json", "-"),
        ("itc", "--help"),
        ("itc", "--cos-ab", "-1/3", "--cos-bc", "1/2", "--turns", "1/4", "--json", "-"),
        ("measure", "--m", "2", "--n", "1", "--L", "4", "--seed", "0", "--json", "-"),
        ("mz", "--turns", "1/4", "--json", "-"),
        ("delayed-choice", "--turns", "1/5", "--mirror", "in", "--json", "-"),
        ("delayed-choice", "--turns", "1/5", "--mirror", "sideways"),
        ("uncertainty", "--cosines", "0,3/5,4/5", "--json", "-"),
        ("uncertainty", "--samples", "200", "--seed", "3", "--json", "-"),
        ("uncertainty", "--json", "-"),                              # ValueError
        ("sg", "--cos-ab", "3/5", "--cos-bc", "3/5", "--phi-b", "1/2", "--json", "-"),
        ("bell", "--config", "{cfg}", "--json", "-"),
        ("bell", "--angles", "0,1/6,1/3"),                           # nothing kept from --config
        ("bell", "--angles", "0,1/6,1/3", "--L", "360", "--trials", "500",
         "--seed", "7", "--json", "-"),
        ("nope",),
        ("niven", "--turns", "1/6", "--json", "-"),
    ]

    def test_cached_parser_matches_fresh_parser(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("angles = 0,1/6,1/3\nL = 360\ntrials = 500\nseed = 4\n")
        argvs = [[a.format(cfg=cfg) for a in argv] for argv in self.ARGVS]
        monkeypatch.setattr(cli, "_parser", None)
        cached = [run_masked(capsys, *argvs[0])]
        parser = cli._parser
        cached += [run_masked(capsys, *argv) for argv in argvs[1:]]
        assert parser is not None and cli._parser is parser
        assert {code for code, _, _ in cached} == {0, 2, 3}
        for argv, got in zip(argvs, cached):
            monkeypatch.setattr(cli, "_parser", None)
            assert got == run_masked(capsys, *argv), argv


def test_plain_commands_do_not_import_mpmath():
    src = Path(cli.__file__).resolve().parents[1]
    script = """
import contextlib, io, json, sys
import rationalqm
import rationalqm.cli as cli
argvs = [
    ["sphere", "--L", "4", "--json", "-"],
    ["niven", "--turns", "1/5", "--json", "-"],
    ["itc", "--cos-ab", "3/5", "--cos-bc", "4/5", "--turns", "1/8", "--json", "-"],
    ["state", "--singlet-cos", "1/2", "--L", "8", "--seed", "1", "--json", "-"],
    ["measure", "--m", "2", "--n", "1", "--L", "4", "--seed", "0", "--json", "-"],
    ["bell", "--angles", "0,1/6,1/3", "--L", "360", "--trials", "500",
     "--seed", "7", "--json", "-"],
    ["delayed-choice", "--turns", "1/5", "--mirror", "in", "--json", "-"],
    ["sg", "--cos-ab", "3/5", "--cos-bc", "3/5", "--phi-b", "1/2", "--json", "-"],
    ["uncertainty", "--samples", "100", "--seed", "1", "--json", "-"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
loaded_before_mz = "mpmath" in sys.modules
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    mz_code = cli.main(["mz", "--turns", "1/5", "--json", "-"])
import mpmath
print(json.dumps({"codes": codes, "loaded_before_mz": loaded_before_mz,
                  "mz_code": mz_code, "mz_out": buf.getvalue(),
                  "quarter": cli.to_jsonable(mpmath.mpf("0.25"))}))
"""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 9
    assert result["loaded_before_mz"] is False
    assert result["mz_code"] == 0
    payload, _ = json.JSONDecoder().raw_decode(result["mz_out"])
    assert payload["report"] == {
        "inside_certificate": "squared amplitudes 1/2 rational; phase 1/5 of a "
                              "turn rational",
        "inside_definable": True,
        "numeric_residual": 0.0,
        "output_certificate": {"cross_base": None, "cross_radicand": None,
                               "kind": "irrational-by-niven", "rational": None,
                               "surd": None, "witness": {"turns": "1/5"}},
        "output_definable": False,
        "output_probabilities": [0.3454915028125263, 0.6545084971874737],
        "phi": {"turns": "1/5"},
    }
    assert result["quarter"] == 0.25
