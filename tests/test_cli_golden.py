"""Golden guard on the whole CLI: every entry of the table in
`golden_cases.py` must give its pinned exit code and digests. To see the new
values of an entry, run that module as a script."""

import pytest

from golden_cases import CASES, GOLDEN, outcome


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, tmp_path):
    assert outcome(CASES[name], tmp_path) == GOLDEN[name]
