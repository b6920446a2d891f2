"""Property test of the CLI contract: for any argv built from the flags of a
subcommand, `main` exits 0, 2 or 3 without raising, a successful run's
`--json -` output parses, and `--csv -` never leaves a file named '-'. Each
command draws every flag of its row in the command table. Sizes stay small
(L <= 32, trials <= 1000, scan-exceptions --max-den <= 4); how the commands
behave in memory at huge L is not covered here."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalqm.cli import build_parser, main

from cli_stdout import json_stdout


def p_over_q(f):
    return f"{f.numerator}/{f.denominator}"


turns = st.fractions(-2, 2, max_denominator=24).map(p_over_q)
cosine = st.fractions(-1, 1, max_denominator=12).map(p_over_q)
even_L = st.integers(1, 16).map(lambda k: 2 * k)
plane = st.fractions(-4, 4, max_denominator=6)
seed = st.integers(0, 2 ** 32).map(str)
# Values that some flag of some command must reject.
bad_value = st.sampled_from(["1/0", "0.5", "-0.5", "1e-1", "1_0", "x", "", "-",
                             "0", "-1", "33", "3/2", "-7/3", "0,1/2", "up"])


@st.composite
def flag_values(draw, forms, bad):
    """A valid flag set drawn from one of `forms` (dicts of flag to value
    strategy), then, one time in two, one flag dropped or given a value
    drawn from `bad`."""
    options = draw(st.one_of([st.fixed_dictionaries(form) for form in forms]))
    names = sorted(options)
    change = draw(st.sampled_from(["none", "none", "drop", "bad"]))
    if change != "none":
        name = draw(st.sampled_from(names))
        if change == "drop":
            del options[name]
        else:
            options[name] = draw(bad)
    return [t for name in names if name in options
            for t in (name, str(options[name]))]


def unit_vector(a, b):
    """The rational point of the unit sphere over (a, b) by inverse
    stereographic projection."""
    r = a * a + b * b + 1
    return ",".join(p_over_q(c) for c in (2 * a / r, 2 * b / r, (r - 2) / r))


# One L per example, so that m and n are drawn within it.
lattice_L = st.shared(st.integers(1, 32), key="L")
lattice_point = {"--L": lattice_L,
                 "--m": lattice_L.flatmap(lambda L: st.integers(0, L)),
                 "--n": lattice_L.flatmap(lambda L: st.integers(0, L - 1)),
                 "--seed": seed}
BELL_CONFIG = "angles = 0,1/6,1/3\nL = 8\ntrials = 100\nseed = 1\n"

# Each command's forms: the flag sets of a valid run.
COMMANDS = {
    "sphere": [{"--L": st.integers(1, 32), "--csv": st.sampled_from(["sphere.csv", "-"])}],
    "niven": [{"--turns": turns}],
    "itc": [{"--cos-ab": cosine, "--cos-bc": cosine, "--turns": turns}],
    "state": [lattice_point, {"--singlet-cos": cosine, "--L": even_L, "--seed": seed}],
    "measure": [lattice_point],
    "mz": [{"--turns": turns}],
    "delayed-choice": [{"--turns": turns, "--mirror": st.sampled_from(["in", "out"])}],
    "uncertainty": [{"--cosines": st.builds(unit_vector, plane, plane)},
                    {"--samples": st.integers(1, 1000), "--seed": seed}],
    "sg": [{"--cos-ab": cosine, "--cos-bc": cosine, "--phi-b": turns}],
    "scan-exceptions": [{"--max-den": st.integers(-1, 4),
                         "--turns": st.lists(turns, min_size=1, max_size=3).map(",".join)}],
    # the config holds every setting, so a run that drops a flag reads it there
    "bell": [{"--angles": st.lists(turns, min_size=3, max_size=3).map(",".join),
              "--L": even_L, "--trials": st.integers(100, 1000), "--seed": seed,
              "--config": st.just("bell.cfg"),
              "--csv": st.sampled_from(["bell.csv", "-"])}],
}


def test_each_command_draws_the_flags_of_its_table_row():
    """A flag added to the command table is fuzzed as soon as it is added.
    `--json`, which the reader adds to every command, is in every argv."""
    assert {command: set().union(*forms) for command, forms in COMMANDS.items()} == {
        command: set(flags) for command, (_, _, _, flags) in build_parser().items()}


# A bad value that is too big for a flag's size cap is left out there.
BAD_VALUES = {"scan-exceptions": bad_value.filter(lambda v: v != "33")}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_main_keeps_its_contract(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where --csv writes, whatever its value
    (tmp_path / "bell.cfg").write_text(BELL_CONFIG, encoding="utf-8")

    @settings(max_examples=40, deadline=None)
    @given(flag_values(COMMANDS[command], BAD_VALUES.get(command, bad_value)))
    def check(flags):
        argv = [command, "--json", "-"] + flags
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        if code == 0:
            payload, _ = json_stdout(out.getvalue())
            assert payload["manifest"]["command"] == command
        else:
            assert err.getvalue(), argv
        assert not (tmp_path / "-").exists(), argv

    check()
