"""The stdout of a `--json -` run, split into its JSON payload and the
summary lines after it: the one place the CLI tests split it."""

import json


def json_stdout(out):
    """A `--json -` run's stdout as (its JSON payload, the summary lines after
    it). The JSON comes first, and only its newline and whole lines follow."""
    payload, end = json.JSONDecoder().raw_decode(out)
    assert out[end:end + 1] == "\n" and out.endswith("\n")
    return payload, out[end + 1:].splitlines()
