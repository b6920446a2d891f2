"""Golden guard on the whole CLI: every entry of the table in
`golden_cases.py` must give its pinned exit code and digests. To see the new
values of an entry, run that module as a script."""

import pytest

from golden_cases import CASES, GOLDEN, outcome


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, tmp_path):
    assert outcome(CASES[name], tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("name", sorted(name for name in CASES if GOLDEN[name][0] == 2))
def test_refusals_do_not_depend_on_the_terminal_width(name, columns, tmp_path,
                                                      monkeypatch):
    # A usage line wrapped to the terminal would move these digests.
    monkeypatch.setenv("COLUMNS", columns)
    assert outcome(CASES[name], tmp_path) == GOLDEN[name]
