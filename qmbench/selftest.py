"""Self-test of the benchmark's output checks.

Runs one round of each workload with correct outputs, then again with a
wrong output injected into chosen ops (a flipped verdict, a truncated CSV,
a flipped measure outcome, a shifted correlation, a non-zero exit code, a
raised exception), and shows that exactly those ops are counted as failed.
Also checks that the latency reservoir keeps a uniform sample, with its
chunk scales applied, once more latencies arrive than it holds. Run from
the root of a source checkout:

    python3 qmbench/selftest.py

Exits 0 when every injected fault is caught and no correct output is
rejected, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from typing import Any, Callable, Optional

from run import OUT, Reservoir, Runner, load_package, percentile
from workloads import ITC, WORKLOADS, ITC_EXCEPTION


def _flip_verdict(op: tuple, out: Any) -> Optional[Any]:
    if op[0] in (ITC, ITC_EXCEPTION):
        return dataclasses.replace(out, possible=not out.possible)
    return None


def _corrupt_export(op: tuple, out: Any) -> Optional[Any]:
    code, stdout, path = out
    if op[0] == "sphere":
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        return out
    if op[0] == "measure":
        payload = json.loads(path.read_text())
        payload["report"]["outcome"] *= -1
        path.write_text(json.dumps(payload))
        return out
    return None


def _shift_bell(op: tuple, out: Any) -> Optional[Any]:
    code, stdout, path = out
    payload = json.loads(path.read_text())
    pair = payload["report"]["pairs"][0]
    pair["correlation"] += 0.05
    path.write_text(json.dumps(payload))
    return out


def _exit_code(op: tuple, out: Any) -> Optional[Any]:
    code, stdout, path = out
    return 2, stdout, path


def _raise(op: tuple, out: Any) -> Optional[Any]:
    raise ValueError("injected failure")


def inject(api: Any, name: str, corrupt: Optional[Callable]) -> tuple:
    """Run round 0 of a workload with `corrupt` applied to every output;
    returns (attempted, failed, ops corrupted)."""
    workdir = OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](api, seed=0, workdir=workdir)
    run = workload.run
    corrupted = 0

    def tampered(op: tuple) -> Any:
        nonlocal corrupted
        out = run(op)
        if corrupt is None:
            return out
        try:
            bad = corrupt(op, out)
        except ValueError:
            corrupted += 1
            raise
        if bad is None:
            return out
        corrupted += 1
        return bad

    workload.run = tampered
    runner = Runner(workload)
    runner.run_round()
    return runner.attempted, runner.failed, corrupted


def reservoir_overflow() -> bool:
    """Far more latencies than slots: the sample keeps its size and stays
    uniform (its median within 4 standard errors of the true one), and
    chunk scales multiply the right samples."""
    reservoir = Reservoir(400, random.Random(0))
    for i in range(100_000):
        reservoir.add(float(i), i // 50_000)
    plain = reservoir.sorted()
    scaled = reservoir.sorted([1.0, -1.0])
    uniform = abs(percentile(plain, 0.5) - 50_000) <= 4 * 100_000 * 0.5 / 400 ** 0.5
    second_tag = sum(1 for x in plain if x >= 50_000)
    return (len(plain) == 400 and reservoir.count == 100_000 and uniform
            and sum(1 for x in scaled if x < 0) == second_tag)


def main() -> int:
    api = load_package()
    cases = [
        ("certify", None, "correct outputs pass"),
        ("certify", _flip_verdict, "flipped itc verdict"),
        ("export", None, "correct outputs pass"),
        ("export", _corrupt_export, "truncated CSV, flipped measure outcome"),
        ("export", _exit_code, "non-zero exit code"),
        ("bell", None, "correct outputs pass"),
        ("bell", _shift_bell, "correlation shifted by 0.05"),
        ("bell", _raise, "op raises"),
    ]
    ok = True
    for name, corrupt, what in cases:
        attempted, failed, corrupted = inject(api, name, corrupt)
        passed = failed == corrupted and (corrupt is None or corrupted > 0)
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {what}: "
              f"{failed}/{attempted} ops failed, {corrupted} corrupted")
    passed = reservoir_overflow()
    ok &= passed
    print(f"[{'PASS' if passed else 'FAIL'}] reservoir: 100,000 latencies into 400 slots "
          f"stay a uniform sample, scaled by chunk")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
