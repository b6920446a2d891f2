"""Property test of the CLI contract: for any argv built from the flags of a
subcommand, `main` exits 0, 2 or 3 without raising, a successful run's
`--json -` output parses, and `--csv -` never leaves a file named '-'.
Sizes stay small (L <= 32, trials <= 1000, scan-exceptions --max-den <= 4);
how the commands behave in memory at huge L is not covered here."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalqm.cli import main


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
def flag_values(draw, flags, bad):
    """A valid flag set drawn from `flags` (a strategy for a dict of flag to
    value), then, one time in two, one flag dropped or given a value drawn
    from `bad`."""
    options = draw(flags)
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


@st.composite
def lattice_point(draw):
    L = draw(st.integers(1, 32))
    return {"--L": L, "--m": draw(st.integers(0, L)),
            "--n": draw(st.integers(0, L - 1)), "--seed": draw(seed)}


def fixed(**options):
    return st.fixed_dictionaries(options)


COMMANDS = {
    "sphere": fixed(**{"--L": st.integers(1, 32),
                       "--csv": st.sampled_from(["sphere.csv", "-"])}),
    "niven": fixed(**{"--turns": turns}),
    "itc": fixed(**{"--cos-ab": cosine, "--cos-bc": cosine, "--turns": turns}),
    "state": st.one_of(
        lattice_point(),
        fixed(**{"--singlet-cos": cosine, "--L": even_L, "--seed": seed})),
    "measure": lattice_point(),
    "mz": fixed(**{"--turns": turns}),
    "delayed-choice": fixed(**{"--turns": turns,
                               "--mirror": st.sampled_from(["in", "out"])}),
    "uncertainty": st.one_of(
        fixed(**{"--cosines": st.builds(unit_vector, plane, plane)}),
        fixed(**{"--samples": st.integers(1, 1000), "--seed": seed})),
    "sg": fixed(**{"--cos-ab": cosine, "--cos-bc": cosine, "--phi-b": turns}),
    "scan-exceptions": fixed(**{"--max-den": st.integers(-1, 4),
                                "--turns": st.lists(turns, min_size=1, max_size=3)
                                .map(",".join)}),
    "bell": fixed(**{"--angles": st.lists(turns, min_size=3, max_size=3)
                     .map(",".join),
                     "--L": even_L, "--trials": st.integers(100, 1000),
                     "--seed": seed,
                     "--csv": st.sampled_from(["bell.csv", "-"])}),
}


# A bad value that is too big for a flag's size cap is left out there.
BAD_VALUES = {"scan-exceptions": bad_value.filter(lambda v: v != "33")}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_main_keeps_its_contract(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where --csv writes, whatever its value

    @settings(max_examples=40, deadline=None)
    @given(flag_values(COMMANDS[command], BAD_VALUES.get(command, bad_value)))
    def check(flags):
        argv = [command, "--json", "-"] + flags
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        if code == 0:
            payload, _ = json.JSONDecoder().raw_decode(out.getvalue())
            assert payload["manifest"]["command"] == command
        else:
            assert err.getvalue(), argv
        assert not (tmp_path / "-").exists(), argv

    check()
