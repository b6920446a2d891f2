import ast
import enum
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from rationalqm import cli
from rationalqm.cli import main, parse_config_file, to_jsonable
from rationalqm.lattice import PNO, LatticePoint
from rationalqm.reduction import IntegerPair, to_integer_pair
from rationalqm.states import make_qubit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_measure_report(m, n, L, seed):
    """The measure report as formatted step by step from checked IntegerPairs."""
    state = make_qubit(LatticePoint(m, n, L), PNO.from_seed(seed, L))
    pair = to_integer_pair(state.string)
    steps = [pair]
    while pair.width > 1:
        pair = IntegerPair(plus=pair.plus >> 1, width=pair.width - 1)
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
        lines = path.read_text(encoding="utf-8").strip().splitlines()
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

    def test_niven_full_turn_reported_as_zero(self, capsys):
        code, out, _ = run(capsys, "niven", "--turns", "1", "--json", "-")
        payload, end = json.JSONDecoder().raw_decode(out)
        assert code == 0 and payload["report"]["turns"] == "0/1"
        assert out[end:].strip() == "cos phi = 1 (rational)"

    def test_itc(self, capsys):
        code, out, _ = run(capsys, "itc", "--cos-ab", "3/5", "--cos-bc", "4/5",
                           "--turns", "1/360")
        assert code == 0
        assert "possible = False" in out

    def test_itc_degenerate_third_side(self, capsys):
        code, out, _ = run(capsys, "itc", "--cos-ab", "1", "--cos-bc", "3/5",
                           "--turns", "1/5")
        assert code == 0
        assert "third side: 3/5 (rational)" in out.splitlines()

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
        trace = reference_measure_report(2, 1, 4, 0)["trace"]
        assert out == (f"trace: {trace[0]} -> ... -> {trace[-1]}\n"
                       "outcome: -1 after 3 halving steps\n")

    # L = 63, 64, 65 and 129 sit around the report's 64-step pieces.
    @pytest.mark.parametrize("m,n,L", [(0, 0, 1), (1, 0, 1), (1, 1, 2),
                                       (2, 1, 4), (21, 5, 63), (32, 0, 64),
                                       (40, 7, 65), (64, 100, 129),
                                       (100, 37, 256)])
    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1])
    def test_measure_report_matches_pairwise_trace(self, capsys, tmp_path,
                                                   m, n, L, seed):
        path = tmp_path / "measure.json"
        code, out, _ = run(capsys, "measure", "--m", str(m), "--n", str(n),
                           "--L", str(L), "--seed", str(seed), "--json", str(path))
        assert code == 0
        expected = reference_measure_report(m, n, L, seed)
        text = path.read_text(encoding="utf-8")
        payload = {"schema_version": cli.SCHEMA_VERSION,
                   "manifest": json.loads(text)["manifest"], "report": expected}
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        sign = "+1" if expected["outcome"] == 1 else "-1"
        first, last = expected["trace"][0], expected["trace"][-1]
        assert out == (f"trace: {first} -> ... -> {last}\n"
                       f"outcome: {sign} after {L - 1} halving steps\n")

    def test_measure_without_json_builds_no_step(self, capsys):
        expected = reference_measure_report(300, 17, 1024, 5)

        def refuse(self, k):
            raise AssertionError("a trace step was built")

        with mock.patch.object(cli._HalvingTrace, "__getitem__", refuse):
            code, out, _ = run(capsys, "measure", "--m", "300", "--n", "17",
                               "--L", "1024", "--seed", "5")
        assert code == 0
        first, last = expected["trace"][0], expected["trace"][-1]
        assert out == (f"trace: {first} -> ... -> {last}\n"
                       "outcome: +1 after 1023 halving steps\n")

    def test_measure_stdout_is_linear_in_L(self, capsys):
        # the JSON report holds every step; stdout only the first and last
        L = 1024
        code, out, _ = run(capsys, "measure", "--m", "300", "--n", "17",
                           "--L", str(L), "--seed", "5")
        assert code == 0
        assert len(out.encode()) <= 3 * L + 100

    @pytest.mark.parametrize("m,n", [(0, 3), (4, 1)])
    def test_pole_reports_its_normalised_n(self, capsys, m, n):
        # every longitude of a pole is the same point, whose n is 0
        code, out, _ = run(capsys, "measure", "--m", str(m), "--n", str(n),
                           "--L", "4", "--seed", "1", "--json", "-")
        assert code == 0
        report = json.loads(out[:out.rindex("}") + 1])["report"]
        assert report == reference_measure_report(m, 0, 4, 1)
        code, out, _ = run(capsys, "state", "--m", str(m), "--n", str(n),
                           "--L", "4", "--seed", "1", "--json", "-")
        assert code == 0
        assert json.loads(out[:out.rindex("}") + 1])["report"]["n"] == 0
        assert f"qubit at (m={m}, n=0, L=4), seed=1" in out

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

    def test_mirror_image_bell_settings_agree(self, capsys):
        # relative turns 1/4 and 3/4 both have cosine 0, a snapping tie at L = 2
        lines = []
        for angles in ("0,1/4,1/2", "0,3/4,1/2"):
            code, out, _ = run(capsys, "bell", "--angles", angles, "--L", "2",
                               "--trials", "1000", "--seed", "1")
            assert code == 0
            lines.append(out.splitlines()[-1])
        assert lines[0] == lines[1]


class TestExitCodes:
    def test_plain_value_error_exits_2(self, capsys, monkeypatch):
        def fail(args):
            raise ValueError("plain failure")
        monkeypatch.setattr(cli, "cmd_niven", fail)
        monkeypatch.setattr(cli, "_parser", None)  # rebuilt with the patched command
        code, out, err = run(capsys, "niven", "--turns", "1/6")
        assert (code, out, err) == (2, "", "error: plain failure\n")

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
        assert "one of the arguments --m --singlet-cos is required" in err

    @pytest.mark.parametrize("argv,message", [
        (("state", "--m", "2", "--L", "8", "--seed", "1", "--singlet-cos", "1/2"),
         "argument --singlet-cos: not allowed with argument --m"),
        (("uncertainty", "--cosines", "1,0,0", "--samples", "5"),
         "argument --samples: not allowed with argument --cosines"),
        (("uncertainty", "--seed", "3"),
         "one of the arguments --cosines --samples is required"),
    ], ids=["state-both", "uncertainty-both", "uncertainty-neither"])
    def test_exactly_one_form(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("argv,message", [
        (("bell", "--config", "{cfg}"), "unknown config key 'bogus'"),
        (("uncertainty", "--cosines", "0,1"), "need exactly three direction cosines"),
        (("uncertainty", "--samples", "0"), "M must be >= 1, got 0"),
        (("state", "--singlet-cos", "2", "--L", "8", "--seed", "1"),
         "|cos theta_AB| must be <= 1, got 2"),
    ], ids=["config-key", "three-cosines", "samples", "singlet-cos"])
    def test_guard_message_exits_2(self, capsys, tmp_path, argv, message):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("angles = 0,1/6,1/3\nbogus = 1\n", encoding="utf-8")
        code, out, err = run(capsys, *(arg.format(cfg=cfg) for arg in argv))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_empty_cosines_rejected(self, capsys):
        code, out, err = run(capsys, "uncertainty", "--cosines", "")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("L", ["0", "-4"])
    @pytest.mark.parametrize("argv", [
        ("state", "--m", "0", "--seed", "0"),
        ("state", "--singlet-cos", "1/2", "--seed", "0"),
        ("measure", "--m", "0", "--seed", "0"),
    ], ids=["state-qubit", "state-singlet", "measure"])
    def test_L_must_be_positive(self, capsys, argv, L):
        code, out, err = run(capsys, *argv, "--L", L)
        assert code == 2 and out == ""
        assert err == f"error: L must be positive, got {L}\n"

    @pytest.mark.parametrize("argv,message", [
        (("--cos-ab", "2", "--cos-bc", "1/3"), "|cos_ab| must be <= 1, got 2"),
        (("--cos-ab", "1/2", "--cos-bc", "-3/2"), "|cos_bc| must be <= 1, got -3/2"),
    ])
    def test_sg_names_the_cosine_out_of_range(self, capsys, argv, message):
        code, out, err = run(capsys, "sg", *argv, "--phi-b", "1/5")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

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

    @pytest.mark.parametrize("argv", [
        ("sphere", "--L", "4"),
        ("bell", "--angles", "0,1/6,1/3", "--L", "360", "--trials", "1000",
         "--seed", "1"),
    ], ids=["sphere", "bell"])
    def test_csv_empty_path_rejected(self, capsys, tmp_path, monkeypatch, argv):
        # an empty path names no file: the run would write none, yet exit 0
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--csv", "", "--json", "-")
        assert (code, out) == (2, "")
        assert "argument --csv: '' is not accepted" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("csv_path,json_path", [
        ("same.out", "same.out"), ("x", "./x"), ("./x", "x"), ("d/../x", "x"),
    ])
    @pytest.mark.parametrize("argv", [
        ("sphere", "--L", "3"),
        ("bell", "--angles", "0,1/6,1/3", "--L", "360", "--trials", "1000",
         "--seed", "1"),
    ], ids=["sphere", "bell"])
    @pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
    def test_csv_and_json_on_one_file_rejected(self, capsys, tmp_path, monkeypatch,
                                               argv, csv_path, json_path, exists):
        # The JSON report would overwrite the CSV its manifest lists: exit 2
        # before any work, and the file is neither created nor truncated.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        if exists:
            Path(json_path).write_text("kept\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, "--csv", csv_path, "--json", json_path)
        assert code == 2 and out == ""
        assert "--csv" in err and "--json" in err and "same file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["d", Path(json_path).name] if exists else ["d"])
        if exists:
            assert Path(json_path).read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("csv_path,json_path", [("a", "b"), ("b", "a")])
    @pytest.mark.parametrize("argv", [
        ("sphere", "--L", "4"),
        ("bell", "--angles", "0,1/6,1/3", "--L", "360", "--trials", "1000",
         "--seed", "1"),
    ], ids=["sphere", "bell"])
    def test_csv_and_json_through_a_hard_link_rejected(self, capsys, tmp_path,
                                                       monkeypatch, argv,
                                                       csv_path, json_path):
        # Two names of one file differ as paths, so they are compared as files.
        monkeypatch.chdir(tmp_path)
        Path("a").touch()
        os.link("a", "b")
        code, out, err = run(capsys, *argv, "--csv", csv_path, "--json", json_path)
        assert code == 2 and out == ""
        assert f"--csv {csv_path} and --json {json_path} name the same file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]
        assert Path("a").read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("output", ["--json", "--csv"])
    @pytest.mark.parametrize("config_path,output_path,link", [
        ("run.cfg", "run.cfg", False), ("run.cfg", "./run.cfg", False),
        ("./run.cfg", "run.cfg", False), ("run.cfg", "other.cfg", True),
    ], ids=["same-name", "dot-slash-output", "dot-slash-config", "hard-link"])
    def test_output_on_the_config_file_rejected(self, capsys, tmp_path, monkeypatch,
                                                output, config_path, output_path,
                                                link):
        # The report would overwrite the config that replays the run: exit 2
        # before any file is opened, and the config keeps its bytes.
        monkeypatch.chdir(tmp_path)
        config = b"angles = 0,1/6,1/3\nL = 8\ntrials = 100\nseed = 1\n"
        Path("run.cfg").write_bytes(config)
        if link:
            os.link("run.cfg", output_path)
        code, out, err = run(capsys, "bell", "--config", config_path,
                             output, output_path)
        assert (code, out) == (2, "")
        assert err == (f"error: --config {config_path} and {output} {output_path} "
                       "name the same file\n")
        assert Path("run.cfg").read_bytes() == config
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {"run.cfg", Path(output_path).name})

    @pytest.mark.parametrize("argv", [
        ("sphere", "--L", "3"),
        ("bell", "--angles", "0,1/6,1/3", "--L", "360", "--trials", "1000",
         "--seed", "1"),
        ("bell", "--config", "run.cfg"),
    ], ids=["sphere", "bell", "bell-config"])
    def test_csv_and_json_on_two_files_both_written(self, capsys, tmp_path,
                                                    monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        config = "angles = 0,1/6,1/3\nL = 8\ntrials = 100\nseed = 1\n"
        Path("run.cfg").write_text(config, encoding="utf-8")
        code, _, _ = run(capsys, *argv, "--csv", "x", "--json", "y")
        assert code == 0
        manifest = json.loads(Path("y").read_text(encoding="utf-8"))["manifest"]
        assert manifest["outputs"] == ["x"]
        assert Path("x").read_text(encoding="utf-8").count("\n") > 1
        assert Path("run.cfg").read_text(encoding="utf-8") == config

    @pytest.mark.parametrize("literal", ["1_0", "\u0664", "1e1", "4.0"])
    @pytest.mark.parametrize("argv", [
        ("sphere", "--L", "{}"),
        ("state", "--m", "{}", "--L", "8", "--seed", "1"),
        ("state", "--m", "1", "--n", "{}", "--L", "8", "--seed", "1"),
        ("measure", "--m", "1", "--L", "{}", "--seed", "1"),
        ("measure", "--m", "1", "--L", "8", "--seed", "{}"),
        ("uncertainty", "--samples", "{}"),
        ("uncertainty", "--samples", "10", "--seed", "{}"),
        ("bell", "--angles", "0,1/6,1/3", "--L", "{}", "--trials", "1000",
         "--seed", "1"),
        ("bell", "--angles", "0,1/6,1/3", "--L", "8", "--trials", "{}",
         "--seed", "1"),
        ("scan-exceptions", "--max-den", "{}"),
    ], ids=["sphere-L", "state-m", "state-n", "measure-L", "measure-seed",
            "samples", "samples-seed", "bell-L", "bell-trials", "max-den"])
    def test_only_ascii_integers(self, capsys, argv, literal):
        code, out, err = run(capsys, *(arg.format(literal) for arg in argv))
        assert code == 2 and out == ""
        assert "not an integer" in err

    @pytest.mark.parametrize("line", ["L = 3_60", "trials = \u0665\u0660\u0660",
                                      "seed = 1e1"])
    def test_only_ascii_integers_in_config(self, capsys, tmp_path, line):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text(f"angles = 0,1/6,1/3\nL = 360\ntrials = 500\nseed = 4\n{line}\n",
                       encoding="utf-8")
        code, out, err = run(capsys, "bell", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "not an integer" in err

    def test_tiny_bell_run(self, capsys):
        code, _, err = run(capsys, "bell", "--angles", "0,1/6,1/3", "--L", "360",
                           "--trials", "10", "--seed", "1")
        assert code == 2


class TestScanExceptions:
    def test_json_report_holds_the_printed_triangles(self, capsys):
        code, out, _ = run(capsys, "scan-exceptions", "--max-den", "5", "--json", "-")
        assert code == 0
        payload, end = json.JSONDecoder().raw_decode(out)
        lines = out[end:].strip().splitlines()
        triangles = payload["report"]["triangles"]
        assert payload["report"]["max_den"] == 5 and len(triangles) == 64
        assert lines[-1] == "64 exceptional triangles found"
        assert lines[:-1] == [
            f"cos_ab={Fraction(t['cos_ab'])}, cos_bc={Fraction(t['cos_bc'])}, "
            f"phi={Fraction(t['turns'])} turns -> {Fraction(t['third_side'])}"
            for t in triangles]

    @pytest.mark.parametrize("turns", ["1.5", "1/0", "1/8,x", ""])
    def test_bad_turns_exit_2(self, capsys, turns):
        code, out, err = run(capsys, "scan-exceptions", "--turns", turns)
        assert code == 2 and out == ""
        assert "--turns" in err and "Traceback" not in err

    @pytest.mark.parametrize("max_den", ["1", "0", "-3"])
    def test_max_den_below_2_exits_2(self, capsys, max_den):
        # no side cosine p/q with q >= 2 exists there, so "0 triangles
        # found" would be an answer to a scan that never ran
        code, out, err = run(capsys, "scan-exceptions", "--max-den", max_den)
        assert code == 2 and out == ""
        assert err == f"error: --max-den must be >= 2, got {max_den}\n"

    @pytest.mark.parametrize("turns,repeat", [
        ("1/8,9/8", "angle 9/8 repeats 1/8"), ("1/8,3/8,-7/8", "angle -7/8 repeats 1/8"),
        ("0,1", "angle 1 repeats 0"), ("1/12,2/24", "angle 2/24 repeats 1/12"),
    ])
    def test_repeated_turn_exits_2(self, capsys, turns, repeat):
        # angles are reduced mod 1, so a repeat would list each triangle twice
        code, out, err = run(capsys, "scan-exceptions", "--max-den", "6",
                             "--turns", turns)
        assert (code, out) == (2, "")
        assert f"argument --turns: {repeat} turns (mod 1)" in err

    def test_negative_turns_is_a_value(self, capsys):
        # -1/8 of a turn is the angle 7/8
        code, out, _ = run(capsys, "scan-exceptions", "--max-den", "5",
                           "--turns", "-1/8")
        assert code == 0 and "phi=7/8 turns" in out
        assert (code, out) == run(capsys, "scan-exceptions", "--max-den", "5",
                                  "--turns", "7/8")[:2]


class TestJsonReports:
    def test_schema_and_manifest(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "niven", "--turns", "1/6", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
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
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in paths)
        assert a["report"] == b["report"]
        assert a["manifest"]["seed"] == b["manifest"]["seed"] == 9

    def test_bell_csv(self, capsys, tmp_path):
        path = tmp_path / "pairs.csv"
        code, _, _ = run(capsys, "bell", "--angles", "0,1/6,1/3", "--L", "360",
                         "--trials", "500", "--seed", "9", "--csv", str(path))
        assert code == 0
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("label,relative_turns,nominal_cos")
        assert len(lines) == 4
        assert lines[1].startswith("AB,")


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("# comment\nangles = 0,1/6,1/3\nL = 360\n"
                       "trials = 500\nseed = 4\n", encoding="utf-8")
        out = parse_config_file(str(cfg))
        assert out == {"angles": "0,1/6,1/3", "L": 360, "trials": 500, "seed": 4}
        cfg.write_text("L = 3_60\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not an integer"):
            parse_config_file(str(cfg))

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("angles 0,1/6,1/3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_config_file(str(cfg))

    @pytest.mark.parametrize("key,lines", [
        ("seed", "seed = 1\nseed = 2\n"), ("angles", "angles = 0,1/6,1/3\nangles=0,1/4,1/2\n"),
        ("L", "L = 360\n# L = 8\nL = 360\n"),
    ])
    def test_repeated_key_rejected(self, capsys, tmp_path, key, lines):
        # keeping the last value would run a setting that one line contradicts
        others = {"angles": "0,1/6,1/3", "L": "360", "trials": "500", "seed": "4"}
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in others.items() if k != key)
                       + lines, encoding="utf-8")
        with pytest.raises(ValueError, match=f"config key '{key}' is given twice"):
            parse_config_file(str(cfg))
        code, out, err = run(capsys, "bell", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: config key '{key}' is given twice\n")

    def test_bell_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("angles = 0,1/6,1/3\nL = 360\ntrials = 500\nseed = 4\n",
                       encoding="utf-8")
        code, out, _ = run(capsys, "bell", "--config", str(cfg))
        assert code == 0
        assert "Bell run at L=360, 500 trials/pair, seed 4" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("angles = 0,1/6,1/3\nL = 360\ntrials = 500\nseed = 4\n",
                       encoding="utf-8")
        code, out, _ = run(capsys, "bell", "--config", str(cfg), "--seed", "12")
        assert code == 0
        assert "seed 12" in out

    def test_replays_under_the_c_locale(self, capsys, tmp_path):
        # A config is read, and the reports written, as UTF-8 whatever the
        # locale: under C with no coercion the default encoding is ASCII,
        # which cannot decode the theta in the config's comment.
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("# theta = \u03b8_AB\nangles = 0,1/6,1/3\nL = 360\n"
                       "trials = 500\nseed = 4\n", encoding="utf-8")
        env = dict(src_env(), LC_ALL="C", LANG="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "rationalqm", "bell", "--config", str(cfg),
             "--csv", "c.csv", "--json", "c.json"],
            capture_output=True, cwd=tmp_path, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        code, out, _ = run(capsys, "bell", "--config", str(cfg))
        assert proc.stdout.decode("ascii") == out + "csv written to c.csv\n"
        report = json.loads((tmp_path / "c.json").read_text(encoding="utf-8"))
        assert report["manifest"]["config"]["seed"] == 4
        assert (tmp_path / "c.csv").read_text(encoding="utf-8").count("\n") == 4

    @pytest.mark.parametrize("argv", [
        ["sphere", "--L", "4", "--csv", 'd\u00e9"j.csv', "--json", "-"],
        ["bell", "--config", "\u03b8.cfg", "--csv", 'd\u00e9"j.csv', "--json", "-"],
    ], ids=["sphere", "bell"])
    def test_manifest_names_files_the_same_under_every_locale(self, tmp_path, argv):
        # The C locale decodes argv's non-ASCII bytes to lone surrogates, and
        # UTF-8 mode decodes them to the name; the manifest records both as
        # the name. argv and file names go to the child as UTF-8 bytes, so
        # the verdict is the same whatever the locale of this process.
        c_locale = {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0",
                    "PYTHONCOERCECLOCALE": "0"}
        runs = []
        for name, env in (("c", c_locale), ("utf8", {"PYTHONUTF8": "1"})):
            cwd = os.path.join(os.fsencode(tmp_path), name.encode())
            os.mkdir(cwd)
            with open(os.path.join(cwd, "\u03b8.cfg".encode()), "wb") as fh:
                fh.write(b"angles = 0,1/6,1/3\nL = 8\ntrials = 100\nseed = 1\n")
            proc = subprocess.run(
                [sys.executable, "-m", "rationalqm", *(a.encode() for a in argv)],
                capture_output=True, cwd=cwd, env=dict(src_env(), **env), timeout=60)
            with open(os.path.join(cwd, 'd\u00e9"j.csv'.encode()), "rb") as fh:
                csv = fh.read()
            out = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', proc.stdout)
            runs.append((proc.returncode, proc.stderr, out, csv))
        assert runs[0] == runs[1]
        code, err, out, _ = runs[0]
        assert (code, err) == (0, b"")
        report, _ = json.JSONDecoder().raw_decode(out.decode("utf-8"))
        assert report["manifest"]["outputs"] == ['d\u00e9"j.csv']
        if argv[0] == "bell":
            assert report["manifest"]["config"]["config"] == "\u03b8.cfg"


def encode(obj):
    """A value as `emit` encodes it, decoded back."""
    return json.loads("".join(cli.json_chunks(obj)))


class TestToJsonable:
    def test_fractions_and_tuples(self):
        assert encode({"x": Fraction(2, 4), "y": (1, 2)}) == {
            "x": "1/2", "y": [1, 2]}

    def test_leaves(self):
        class Kind(str, enum.Enum):
            RATIONAL = "rational"

        out = encode([True, None, Kind.RATIONAL, Fraction(-3, 6), 7, 1.5, "s"])
        assert out == [True, None, "rational", "-1/2", 7, 1.5, "s"]
        assert [type(v) for v in out] == [bool, type(None), str, str, int,
                                         float, str]

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="set is not JSON serialisable"):
            json.dumps({"x": {1, 2}}, default=to_jsonable)


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
        cfg.write_text("angles = 0,1/6,1/3\nL = 360\ntrials = 500\nseed = 4\n",
                       encoding="utf-8")
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


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, keeping
    the caller's path."""
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


PROBE = """
import ast, contextlib, io, sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
argvs, preload = ast.literal_eval(sys.argv[1])
for name in preload:
    __import__(name)

def step(name, code=0):
    return (name, code,
            sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("rationalqm.")),
            [m for m in ("json", "datetime", "pathlib", "typing") if m in sys.modules])

steps = [step("start")]
import rationalqm.cli as cli
cli.build_parser()
steps.append(step("build_parser"))
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        steps.append(step(argv[0], cli.main(argv)))
print(repr(steps))
"""


def probe(argvs, cwd, preload=()):
    """Run `argvs` through `main` in one fresh `python -S` interpreter that
    cannot import mpmath, after importing `preload`. Returns one step for the
    start, one for building the parser and one per argv: (name, exit code,
    the loaded rationalqm modules, which of json, datetime, pathlib and
    typing are loaded). Without `site` no `.pth` file loads a module first,
    and the script imports no json, so the first report shows loading it."""
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, repr((argvs, list(preload)))],
                          capture_output=True, encoding="utf-8", env=src_env(),
                          cwd=cwd, timeout=60, check=True)
    steps = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert [name for name, _, _, _ in steps] == ["start", "build_parser"] + [a[0] for a in argvs]
    assert [code for _, code, _, _ in steps] == [0] * len(steps)
    return steps


PARSING = ["cli", "exact"]
EXPERIMENTS = ["cli", "exact", "experiments", "lattice"]


@pytest.mark.parametrize("argvs,expected", [
    # Each command's modules include the previous one's, so a single process
    # shows what each command adds.
    ([["niven", "--turns", "1/6", "--json", "-"],
      ["itc", "--cos-ab", "3/5", "--cos-bc", "4/5", "--turns", "1/8"],
      ["sg", "--cos-ab", "3/5", "--cos-bc", "3/5", "--phi-b", "1/2"],
      ["scan-exceptions", "--max-den", "4"],
      ["sphere", "--L", "4", "--json", "-"],
      ["state", "--singlet-cos", "1/2", "--L", "8", "--seed", "1"],
      ["measure", "--m", "2", "--n", "1", "--L", "4", "--seed", "0"]],
     [PARSING] * 5 + [PARSING + ["lattice"], PARSING + ["lattice", "states"],
                      PARSING + ["lattice", "reduction", "states"]]),
    ([["bell", "--angles", "0,1/6,1/3", "--L", "360", "--trials", "500",
       "--seed", "7", "--json", "-"]], [PARSING, EXPERIMENTS]),
    ([["mz", "--turns", "1/5"]], [PARSING, EXPERIMENTS]),
    ([["uncertainty", "--samples", "100", "--seed", "1"]], [PARSING, EXPERIMENTS]),
    ([["delayed-choice", "--turns", "1/5", "--mirror", "in"]], [PARSING, EXPERIMENTS]),
], ids=["exact-lattice-states-reduction", "bell", "mz", "uncertainty",
        "delayed-choice"])
def test_commands_load_only_their_modules(argvs, expected, tmp_path):
    """Parsing loads only `exact`; each command loads the package modules it
    calls. `json` and `datetime` are loaded by the first report written, not
    by importing the CLI, building its parser or a command without one."""
    steps = probe(argvs, tmp_path)
    assert [modules for _, _, modules, _ in steps] == [[]] + expected
    first_json = next((i for i, argv in enumerate(argvs, 2) if "--json" in argv),
                      len(steps))
    reports = [sorted({"json", "datetime"} & set(loaded)) for _, _, _, loaded in steps]
    assert reports == ([[]] * first_json
                       + [["datetime", "json"]] * (len(steps) - first_json))


def _stdlib_imports():
    """Every module but `typing` that src/ imports by absolute name, at module
    level or inside a function: the standard library modules the package
    uses."""
    names = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return sorted(names - {"typing"})


def test_no_command_loads_pathlib_or_typing(tmp_path):
    """No command imports `pathlib` or `typing`. `typing` is checked against
    a baseline taken after importing the standard library modules that src/
    imports, so a Python whose standard library loads `typing` itself fails
    nothing that src/ did."""
    (tmp_path / "b.cfg").write_text("angles = 0,1/6,1/3\nL = 8\ntrials = 100\n"
                                    "seed = 1\n", encoding="utf-8")
    argvs = [
        ["sphere", "--L", "4", "--csv", "s.csv", "--json", "-"],
        ["niven", "--turns", "1/5"],
        ["itc", "--cos-ab", "3/5", "--cos-bc", "4/5", "--turns", "1/8", "--json", "-"],
        ["scan-exceptions", "--max-den", "4"],
        ["state", "--singlet-cos", "1/2", "--L", "8", "--seed", "1", "--json", "-"],
        ["measure", "--m", "2", "--n", "1", "--L", "4", "--seed", "0",
         "--json", "m.json"],
        ["mz", "--turns", "1/5"],
        ["delayed-choice", "--turns", "1/5", "--mirror", "in"],
        ["uncertainty", "--samples", "100", "--seed", "1"],
        ["uncertainty", "--cosines", "0,3/5,4/5"],
        ["sg", "--cos-ab", "3/5", "--cos-bc", "3/5", "--phi-b", "1/2"],
        ["bell", "--config", "b.cfg", "--csv", "b.csv", "--json", "-"],
    ]
    steps = probe(argvs, tmp_path, preload=_stdlib_imports())
    baseline = "typing" in steps[0][3]
    for name, _, _, loaded in steps:
        assert "pathlib" not in loaded, name
        assert ("typing" in loaded) == baseline, name
    assert sorted(f.name for f in tmp_path.iterdir()) == ["b.cfg", "b.csv",
                                                          "m.json", "s.csv"]


class TestModuleEntryPoint:
    """`python -m rationalqm` passes main's exit code to the shell."""

    @staticmethod
    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "rationalqm", *argv],
                              capture_output=True, encoding="utf-8", timeout=60,
                              env=src_env())

    def test_success_prints_what_main_prints(self, capsys):
        proc = self.run_module("niven", "--turns", "1/6")
        code, out, _ = run(capsys, "niven", "--turns", "1/6")
        assert proc.returncode == code == 0
        assert proc.stdout == out and out
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv,code", [
        (("sphere", "--L", "0"), 2),
        (("state", "--singlet-cos", "1/3", "--L", "8", "--seed", "1"), 3),
    ])
    def test_failure_exit_code(self, argv, code):
        proc = self.run_module(*argv)
        assert proc.returncode == code
        assert proc.stderr and "Traceback" not in proc.stderr
