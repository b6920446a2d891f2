"""Hypothesis draws the same examples on every CI run.

Where the `CI` variable is set, as GitHub Actions sets it, the "ci" profile
is loaded: `derandomize` derives each test's examples from the test itself,
no example database carries inputs from one run to the next, and a failure
prints the blob that replays it. The profile keeps every other setting that
is in force, and no example count changes. Local runs keep random
exploration; `CI=1 python -m pytest` replays what CI runs.
"""

import os

from hypothesis import settings

settings.register_profile("ci", parent=settings(), derandomize=True,
                          database=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
