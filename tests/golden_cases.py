"""The CLI's golden table: for each argv in CASES, the exit code and the
sha256 digests of stdout, stderr and every file the run writes are pinned in
GOLDEN (the first 16 hex digits; empty output pins as ""). The manifest
timestamp is masked before hashing; nothing else is.

A pinned entry changes only with a change of behaviour that is meant and
named. This module needs only the standard library and rationalqm. Run as a
script, it prints the table for the current code, and exits 1 after naming
every entry that differs from GOLDEN:

    python tests/golden_cases.py

Locale policy: no report byte depends on the locale, and every entry but one
is pinned once. The exception is `sphere-L4-escaped-csv-name`, whose CSV file
name `dé"j.csv` is outside ASCII. The golden table runs `main` in process, so
`open()` encodes that name with the filesystem encoding. Where it can (UTF-8,
the default on every CI interpreter), the entry pins the file written. Where
it cannot (ASCII, in the C locale with UTF-8 mode off: `LC_ALL=C LANG=C
PYTHONUTF8=0 PYTHONCOERCECLOCALE=0`), `open()` raises `UnicodeEncodeError`, a
`ValueError`, so `main` exits 2 before writing anything, and the entry pins
that exit and its error message. A name typed in the shell reaches `main`
through `surrogateescape` and opens under either encoding, and
`test_manifest_names_files_the_same_under_every_locale` in test_cli.py
checks that such a run writes the same bytes, its manifest included, under
the C locale and under UTF-8.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
from pathlib import Path

from rationalqm.cli import main

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

CASES = {
    "sphere-L1": ["sphere", "--L", "1", "--json", "-"],
    "sphere-L4-csv": ["sphere", "--L", "4", "--csv", "sphere.csv", "--json", "-"],
    "sphere-L64": ["sphere", "--L", "64", "--json", "sphere.json"],
    "sphere-L-separator": ["sphere", "--L", "1_0"],
    "sphere-L4-escaped-csv-name": ["sphere", "--L", "4", "--csv", 'dé"j.csv',
                                   "--json", "-"],
    "measure-L4": ["measure", "--m", "2", "--n", "1", "--L", "4", "--seed", "0",
                   "--json", "-"],
    "measure-pole-m0": ["measure", "--m", "0", "--n", "3", "--L", "4", "--seed", "1",
                        "--json", "-"],
    "measure-pole-mL": ["measure", "--m", "4", "--n", "1", "--L", "4", "--seed", "2",
                        "--json", "-"],
    "measure-L1024": ["measure", "--m", "300", "--n", "17", "--L", "1024",
                      "--seed", "5", "--json", "measure.json"],
    "state-qubit": ["state", "--m", "3", "--n", "1", "--L", "8", "--seed", "7",
                    "--json", "-"],
    "state-pole": ["state", "--m", "0", "--n", "3", "--L", "4", "--seed", "1"],
    "state-seed-arabic-digit": ["state", "--m", "1", "--L", "4", "--seed", "٣"],
    "state-singlet-L8": ["state", "--singlet-cos", "1/2", "--L", "8", "--seed", "1",
                         "--json", "-"],
    "state-singlet-L360": ["state", "--singlet-cos", "-1/3", "--L", "360",
                           "--seed", "9", "--json", "state.json"],
    "state-singlet-L360-stdout": ["state", "--singlet-cos", "1/2", "--L", "360",
                                  "--seed", "3", "--json", "-"],
    "state-unrealisable": ["state", "--singlet-cos", "1/3", "--L", "8", "--seed", "1"],
    "state-singlet-odd-L": ["state", "--singlet-cos", "0", "--L", "7", "--seed", "1"],
    "bell-readme": ["bell", "--angles", "0,1/6,1/3", "--L", "360",
                    "--trials", "100000", "--seed", "7", "--csv", "bell.csv",
                    "--json", "-"],
    "bell-L2": ["bell", "--angles", "0,1/6,1/3", "--L", "2", "--trials", "1000",
                "--seed", "1"],
    "bell-L3": ["bell", "--angles", "0,1/6,1/3", "--L", "3", "--trials", "1000",
                "--seed", "1"],
    "bell-L362-tie": ["bell", "--angles", "0,1/4,1/2", "--L", "362",
                      "--trials", "20000", "--seed", "5", "--json", "-"],
    "bell-L1024-niven": ["bell", "--angles", "0,1/5,2/7", "--L", "1024",
                         "--trials", "17000", "--seed", "3", "--csv", "bell.csv",
                         "--json", "-"],
    "bell-L2147483646": ["bell", "--angles", "0,1/6,1/3", "--L", "2147483646",
                         "--trials", "1000", "--seed", "9", "--json", "-"],
    "bell-L2-fields10": ["bell", "--angles", "0,1/6,1/3", "--L", "2",
                         "--trials", "100000", "--seed", "5", "--json", "-"],
    "bell-L6-fields8": ["bell", "--angles", "0,1/6,1/3", "--L", "6",
                        "--trials", "100000", "--seed", "5", "--json", "-"],
    "bell-L10-fields6": ["bell", "--angles", "0,1/6,1/3", "--L", "10",
                         "--trials", "100000", "--seed", "5", "--json", "-"],
    "bell-L18-fields5": ["bell", "--angles", "0,1/6,1/3", "--L", "18",
                         "--trials", "100000", "--seed", "5", "--json", "-"],
    "bell-L34-fields4": ["bell", "--angles", "0,1/6,1/3", "--L", "34",
                         "--trials", "100000", "--seed", "5", "--json", "-"],
    "mz-rational": ["mz", "--turns", "1/4", "--json", "-"],
    "mz-niven": ["mz", "--turns", "1/5", "--json", "-"],
    "delayed-choice-in": ["delayed-choice", "--turns", "1/5", "--mirror", "in",
                          "--json", "-"],
    "delayed-choice-out": ["delayed-choice", "--turns", "1/8", "--mirror", "out"],
    "uncertainty-cosines": ["uncertainty", "--cosines", "0,3/5,4/5", "--json", "-"],
    "uncertainty-samples": ["uncertainty", "--samples", "1000", "--seed", "2",
                            "--json", "-"],
    "sg": ["sg", "--cos-ab", "3/5", "--cos-bc", "4/5", "--phi-b", "1/4", "--json", "-"],
    "sg-degenerate": ["sg", "--cos-ab", "1", "--cos-bc", "1/3", "--phi-b", "1/5"],
    "itc-niven": ["itc", "--cos-ab", "3/5", "--cos-bc", "4/5", "--turns", "1/360",
                  "--json", "-"],
    "itc-surd": ["itc", "--cos-ab", "-1/3", "--cos-bc", "1/3", "--turns", "1/8",
                 "--json", "-"],
    "itc-rational-angle": ["itc", "--cos-ab", "1/3", "--cos-bc", "1/2", "--turns", "1/6",
                           "--json", "-"],
    "itc-possible": ["itc", "--cos-ab", "0", "--cos-bc", "1/3", "--turns", "1/8",
                     "--json", "-"],
    "itc-surd-large-primes": ["itc", "--cos-ab", "1/101", "--cos-bc", "2/103",
                              "--turns", "1/8", "--json", "-"],
    "niven-rational": ["niven", "--turns", "1/6", "--json", "-"],
    "niven-surd": ["niven", "--turns", "3/8"],
    "niven-irrational": ["niven", "--turns", "-7/3", "--json", "-"],
    "scan-exceptions-5": ["scan-exceptions", "--max-den", "5"],
    "scan-exceptions-default": ["scan-exceptions"],
    "scan-exceptions-turns": ["scan-exceptions", "--max-den", "7", "--turns", "1/8,1/12"],
    "scan-exceptions-40": ["scan-exceptions", "--max-den", "40", "--json", "scan.json"],
}

# name: (exit code, stdout sha256, stderr sha256, {written file: sha256})
GOLDEN = {
    'bell-L10-fields6': (0, 'd7bf359872c1a320', '', {}),
    'bell-L18-fields5': (0, '9a8db56fbdf5335f', '', {}),
    'bell-L2-fields10': (0, '1d343147c4748c4d', '', {}),
    'bell-L34-fields4': (0, '5380ccba73d707bb', '', {}),
    'bell-L6-fields8': (0, '935f045945b6d256', '', {}),
    'bell-L1024-niven': (0, '711508b8553b4ddd', '', {'bell.csv': 'aa7021d951c7dd03'}),
    'bell-L2147483646': (0, 'cea9fe048150d4b4', '', {}),
    'bell-L2': (0, '402982ed6fde252d', '', {}),
    'bell-L3': (2, '', 'f5679eda53bf2387', {}),
    'bell-L362-tie': (0, '7dac588bd69d9cd2', '', {}),
    'bell-readme': (0, 'ce25f9c9fc67a9ca', '', {'bell.csv': 'de3a2d37d9381600'}),
    'delayed-choice-in': (0, '260efacb8e4bb804', '', {}),
    'delayed-choice-out': (0, 'c2c3e32b239a69d6', '', {}),
    'itc-niven': (0, 'beb4f6b827a16f4a', '', {}),
    'itc-possible': (0, 'fd551d397b0dba5c', '', {}),
    'itc-rational-angle': (0, 'c9d624d195f12d96', '', {}),
    'itc-surd': (0, '3141728e1b7b1ac2', '', {}),
    'itc-surd-large-primes': (0, '46b4015802b267db', '', {}),
    'measure-L1024': (0, 'ba587d65d3ef7be1', '', {'measure.json': '77fed3252b690bc1'}),
    'measure-L4': (0, 'f64eb1cc8d326e14', '', {}),
    'measure-pole-m0': (0, '7712f5ebf42a846f', '', {}),
    'measure-pole-mL': (0, '6054a06a06a75ed8', '', {}),
    'mz-niven': (0, 'f0f1ce097b94fc23', '', {}),
    'mz-rational': (0, '621e7bbaeab77a3b', '', {}),
    'niven-irrational': (0, 'e46588da5f2420e9', '', {}),
    'niven-rational': (0, 'bb2207613e61694a', '', {}),
    'niven-surd': (0, '5031d6718c749033', '', {}),
    'scan-exceptions-40': (0, '2dfb03777efb42cc', '', {'scan.json': 'ab94e324012bc98d'}),
    'scan-exceptions-5': (0, 'd15c22fcb8418495', '', {}),
    'scan-exceptions-default': (0, 'eb092993deb04a17', '', {}),
    'scan-exceptions-turns': (0, '89eeabb1a78573c7', '', {}),
    'sg': (0, 'c7a52e3c51a93df2', '', {}),
    'sg-degenerate': (0, '76a6e7ae1533ec9b', '', {}),
    'sphere-L-separator': (2, '', 'f7ae39e8c1f908ac', {}),
    'sphere-L1': (0, 'b36f12841258eabf', '', {}),
    'sphere-L4-escaped-csv-name': (0, 'e7b0807867030806', '', {'dé"j.csv': '3b72d7a5989c152b'}),
    'sphere-L4-csv': (0, 'bcae915aff713e63', '', {'sphere.csv': '3b72d7a5989c152b'}),
    'sphere-L64': (0, '9e1f7597ee824fdb', '', {'sphere.json': 'f7f0efd28d961139'}),
    'state-pole': (0, '427dba3063dbf93a', '', {}),
    'state-qubit': (0, 'b1a66982df4337c2', '', {}),
    'state-seed-arabic-digit': (2, '', '54c2260cc265d9d2', {}),
    'state-singlet-L360': (0, 'f54af0e94145ead3', '', {'state.json': 'db3fd91a773d1696'}),
    'state-singlet-L360-stdout': (0, '16b4ff43a1a0332f', '', {}),
    'state-singlet-L8': (0, 'be5d0cb3e7329bcf', '', {}),
    'state-singlet-odd-L': (3, '', '453b6d4bcf03ed52', {}),
    'state-unrealisable': (3, '', '41c483e9242a0ee7', {}),
    'uncertainty-cosines': (0, '4257a7b1156a3ad4', '', {}),
    'uncertainty-samples': (0, 'bdb247be7e1fd4c0', '', {}),
}

try:
    os.fsencode(CASES["sphere-L4-escaped-csv-name"][4])
except UnicodeEncodeError:
    GOLDEN["sphere-L4-escaped-csv-name"] = (2, '', '49c0e02669078564', {})


def _sha(data: bytes) -> str:
    if not data:
        return ""
    return hashlib.sha256(_TIMESTAMP.sub(b'"timestamp": "-"', data)).hexdigest()[:16]


def outcome(argv, workdir: Path):
    """Run `argv` in `workdir` and digest what it printed and wrote."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    files = {p.name: _sha(p.read_bytes()) for p in sorted(workdir.iterdir())}
    return (code, _sha(out.getvalue().encode()), _sha(err.getvalue().encode()), files)


if __name__ == "__main__":
    import tempfile
    differ = []
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            got = outcome(CASES[name], Path(tmp))
        print(f"    {name!r}: {got!r},")
        if got != GOLDEN.get(name):
            differ.append(name)
    for name in differ:
        print(f"differs from GOLDEN: {name}", file=sys.stderr)
    sys.exit(1 if differ else 0)
