"""Closed-loop benchmark of the rationalqm package.

Run from the root of a source checkout:

    python3 qmbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One caller on one thread: each op is issued only after the previous one has
returned. Inputs come from --seed; each round's inputs are made before any
of its ops is timed. An untimed warm-up runs first. Every op's output is
checked outside the timed region; an op that raises, exits non-zero or fails
its check counts as failed.

With --trace 0 the run measures the end-to-end metrics for --seconds. Its
times are quoted at a reference speed of the host (see OpTimes); the raw
times go to the run record beside them. With --trace 1 it runs a fixed
number of rounds untraced, then the same rounds with the layer trace on, and
reports the per-layer metrics, so two traced runs at one seed give identical
counts. The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. A fuller record, with provenance and the
workload spec, goes to qmbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 21
MIN_WINDOWS = 10
MIN_OPS = 100
WINDOWS_PER_RUN = 20       # target window count; 10 still fit in a run twice as slow as the warm-up
HARD_STOP_S = 150.0        # end the timed phase here whatever the minimums say
RESERVOIR_SIZE = 65_536    # latency samples kept (768 KiB with their chunk tags)
REF_NOMINAL_S = 1e-3       # reference-work time at which scaled figures are quoted
REF_INTERVAL_S = 0.02      # op time between two timings of the reference work
REF_AROUND = 2             # reference timings each side of a chunk that set its scale

# Executed in a fresh interpreter: times the import of the package and the
# construction of the CLI parser, the set-up every op depends on.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rationalqm
from rationalqm import cli
cli.build_parser()
elapsed = time.perf_counter() - t0
print(repr(elapsed), rationalqm.__file__)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, broken set-up)."""


# ---------------------------------------------------------------------------
# Set-up and provenance
# ---------------------------------------------------------------------------

def load_package() -> SimpleNamespace:
    """Import rationalqm from this checkout's src/ and nowhere else."""
    init = SRC / "rationalqm" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import rationalqm
    from rationalqm import cli, exact, experiments, lattice, reduction, states
    if Path(rationalqm.__file__).resolve() != init.resolve():
        raise BenchError(f"imported rationalqm from {rationalqm.__file__}")
    return SimpleNamespace(package=rationalqm, cli=cli, exact=exact,
                           experiments=experiments, lattice=lattice,
                           reduction=reduction, states=states)


def setup_probe() -> float:
    """Import-plus-parser time of one fresh interpreter."""
    expected = (SRC / "rationalqm" / "__init__.py").resolve()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    if Path(fields[1]).resolve() != expected:
        raise BenchError(f"set-up probe imported {fields[1]}")
    return float(fields[0])


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(api: SimpleNamespace) -> Dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rationalqm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src") if rev else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_rev": rev or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "rationalqm_version": api.package.__version__,
    }


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Reservoir:
    """A uniform sample of at most `capacity` of the latencies added
    (Vitter's algorithm R), each tagged with the chunk it fell in. Every
    latency is kept until the buffer is full; after that each new one
    replaces a random slot with the right probability. The buffer is
    allocated up front, so the benchmark's memory does not grow with the
    number of ops a run completes."""

    def __init__(self, capacity: int, rng: random.Random) -> None:
        self.values = array("d", bytes(8 * capacity))
        self.tags = array("I", bytes(4 * capacity))
        self.count = 0      # latencies added, kept or not
        self._rng = rng

    def add(self, value: float, tag: int) -> None:
        slot = self.count
        if slot >= len(self.values):
            slot = self._rng.randrange(self.count + 1)
        if slot < len(self.values):
            self.values[slot] = value
            self.tags[slot] = tag
        self.count += 1

    def sorted(self, scales: Optional[List[float]] = None) -> List[float]:
        """The kept latencies in ascending order, each multiplied by the
        scale of its chunk when `scales` is given."""
        kept = range(min(self.count, len(self.values)))
        if scales is None:
            return sorted(self.values[i] for i in kept)
        return sorted(self.values[i] * scales[self.tags[i]] for i in kept)


def reference_work() -> int:
    """A fixed piece of pure-Python work (integer arithmetic, small-object
    allocation, string joining) that uses nothing from the package."""
    acc = 0
    parts = []
    for i in range(5000):
        acc += (i * 7919) % 1013
        parts.append(str(acc))
    return len(",".join(parts))


class OpTimes:
    """Op latencies of the timed phase and the host's speed while they ran.

    The shared host slows every instruction by up to 1.7x in phases that
    last from seconds to minutes, far more than the benchmark's bounds. So
    the reference work is timed after every REF_INTERVAL_S of op time and
    at the end of every window. The ops between two reference timings form
    a chunk. A chunk's scale is REF_NOMINAL_S over the median of the
    REF_AROUND reference timings on each side of it. A time multiplied by
    its chunk's scale is quoted at the speed at which the reference work
    takes REF_NOMINAL_S: a host phase slows the ops and the reference alike
    and leaves the scaled time in place, while a change to the package moves
    the ops only."""

    def __init__(self, seed: int) -> None:
        self.latencies = Reservoir(RESERVOIR_SIZE, random.Random(f"reservoir:{seed}"))
        self.refs: List[float] = []          # refs[c] opens chunk c, refs[c + 1] closes it
        self.chunk_busy: List[float] = [0.0]
        self.window_chunks: List[int] = []   # chunks closed by the end of each window
        self._time_reference()

    def add(self, seconds: float) -> None:
        self.latencies.add(seconds, len(self.chunk_busy) - 1)
        self.chunk_busy[-1] += seconds
        if self.chunk_busy[-1] >= REF_INTERVAL_S:
            self._time_reference()
            self.chunk_busy.append(0.0)

    def _time_reference(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.refs.append(time.perf_counter() - t0)

    def end_window(self) -> None:
        if self.chunk_busy[-1] > 0.0:
            self._time_reference()
            self.chunk_busy.append(0.0)
        self.window_chunks.append(len(self.chunk_busy) - 1)

    def scales(self) -> List[float]:
        """Each chunk's scale; the last entry belongs to the empty chunk
        after the final window."""
        refs = self.refs
        return [REF_NOMINAL_S / statistics.median(
                    refs[max(0, c + 1 - REF_AROUND):c + 1 + REF_AROUND])
                for c in range(len(self.chunk_busy))]

    def window_busy(self, scales: Optional[List[float]] = None) -> List[float]:
        """Each window's busy time, scaled chunk by chunk when `scales` is given."""
        out, first = [], 0
        for last in self.window_chunks:
            out.append(sum(self.chunk_busy[c] * (1.0 if scales is None else scales[c])
                           for c in range(first, last)))
            first = last
        return out


class Runner:
    """Issues the ops of consecutive rounds, checks each output, and keeps
    the failure tally."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.next_round = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}
        self.rounds_made = 0

    def run_round(self, times: Optional[OpTimes] = None,
                  tracer=None) -> Tuple[int, float]:
        """Run one round; returns (ops, busy seconds)."""
        wl = self.workload
        clock = time.perf_counter
        busy = 0.0
        ops = wl.ops(self.next_round)
        self.next_round += 1
        self.rounds_made = max(self.rounds_made, self.next_round)
        for op in ops:
            if tracer is not None:
                tracer.op = self.attempted
            t0 = clock()
            try:
                out = wl.run(op)
                error = None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            busy += dt
            if times is not None:
                times.add(dt)
            if error is None:
                try:
                    error = wl.check(op, out)
                except Exception as exc:  # a malformed output fails its op
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if error is not None:
                self._fail(error, 1)
        return len(ops), busy

    def _fail(self, reason: str, count: int) -> None:
        self.failed += count
        if len(self.reasons) < 20 or reason in self.reasons:
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    def finish(self) -> None:
        for reason, count in self.workload.finish():
            self._fail(reason, count)

    def repeat_rate(self) -> float:
        """Share of the distinct rounds' ops whose input key an earlier op
        already had. Counted after measuring, so that the bookkeeping does
        not add to the run's memory or time."""
        wl = self.workload
        seen: set = set()
        repeats = total = 0
        for index in range(self.rounds_made):
            for op in wl.ops(index):
                key = wl.repeat_key(op)
                repeats += key in seen
                seen.add(key)
                total += 1
        return repeats / total if total else 0.0


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def timed_phase(runner: Runner, seconds: float, seed: int) -> Dict[str, Any]:
    """Warm up, then run whole-round windows until `seconds` have passed.

    The set-up probes run between windows, so that their median spans the
    same stretch of machine time as the ops rather than one short burst.
    Every time reported is scaled by the host speed of its chunk (a set-up
    probe by that of the chunk before it); the raw figures go into the
    detail.
    """
    wl = runner.workload
    setup_probe()  # untimed: fills the bytecode cache
    warm_ops, warm_busy = 0, 0.0
    for _ in range(wl.warmup_rounds):
        n, busy = runner.run_round()
        warm_ops, warm_busy = warm_ops + n, warm_busy + busy
    round_s = warm_busy / wl.warmup_rounds
    rounds_per_window = max(1, round(seconds / WINDOWS_PER_RUN / max(round_s, 1e-9)))

    times = OpTimes(seed)
    window_ops: List[int] = []
    raw_setup: List[float] = []
    setup_chunks: List[int] = []      # the chunk whose scale applies to each probe
    start = time.perf_counter()
    while True:
        ops = 0
        for _ in range(rounds_per_window):
            ops += runner.run_round(times)[0]
        times.end_window()
        window_ops.append(ops)
        if len(raw_setup) < SETUP_REPEATS:
            raw_setup.append(setup_probe())
            setup_chunks.append(times.window_chunks[-1] - 1)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if elapsed >= seconds and len(window_ops) >= MIN_WINDOWS and times.latencies.count >= MIN_OPS:
            break
    timed_wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(raw_setup) < SETUP_REPEATS:
        raw_setup.append(setup_probe())
        setup_chunks.append(times.window_chunks[-1] - 1)
    scales = times.scales()
    windows = [n / b for n, b in zip(window_ops, times.window_busy(scales))]
    raw_windows = [n / b for n, b in zip(window_ops, times.window_busy())]
    setup = [x * scales[c] for x, c in zip(raw_setup, setup_chunks)]
    ordered = times.latencies.sorted(scales)
    raw_ordered = times.latencies.sorted()
    p90 = percentile(ordered, 0.90)
    return {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": statistics.median(windows),
        "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mib": peak_rss_mib,
        "detail": {
            "warmup_ops": warm_ops,
            "timed_ops": times.latencies.count,
            "p90_samples": len(ordered),
            "samples_above_p90": sum(1 for x in ordered if x > p90),
            "windows": len(windows),
            "rounds_per_window": rounds_per_window,
            "window_ops_s": windows,
            "reference_timings": len(times.refs),
            "scale_quartiles": statistics.quantiles(scales, n=4),
            "setup_samples_s": setup,
            "timed_wall_s": timed_wall_s,
            "raw": {
                "setup_s": statistics.median(raw_setup),
                "throughput_ops_s": statistics.median(raw_windows),
                "latency_p50_ms": percentile(raw_ordered, 0.50) * 1e3,
                "latency_p90_ms": percentile(raw_ordered, 0.90) * 1e3,
            },
        },
    }


def traced_phase(runner: Runner) -> Tuple[Dict[str, float], Any]:
    from tracer import Tracer

    wl = runner.workload
    for _ in range(wl.warmup_rounds):
        runner.run_round()
    first = runner.next_round

    def one_pass(tracer=None) -> float:
        runner.next_round = first
        return sum(runner.run_round(tracer=tracer)[1] for _ in range(wl.trace_rounds))

    # Untraced passes on both sides of the traced one, so a drift in machine
    # speed during the run does not show up as tracing overhead.
    untraced = one_pass()
    wl.counts.clear()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    traced_counts = dict(wl.counts)
    untraced = (untraced + one_pass()) / 2
    metrics = tracer.layer_metrics(traced)
    metrics["cli.bytes_out"] = traced_counts.get("cli.bytes_out", 0)
    metrics["cli.exit_nonzero"] = traced_counts.get("cli.exit_nonzero", 0)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    return metrics, tracer


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = load_spec()
    api = load_package()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](api, args.seed, workdir)
    runner = Runner(workload)
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(api), "spec": workload.spec(),
    }

    if args.trace:
        values, tracer = traced_phase(runner)
        runner.finish()
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        declared = spec["per_layer"]
    else:
        values = timed_phase(runner, args.seconds, args.seed)
        runner.finish()
        record["detail"] = values.pop("detail")
        declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record.update({
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "input_repeat_rate": runner.repeat_rate(),
        "failure_reasons": runner.reasons, "metrics": metrics,
    })
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rationalqm {record['provenance']['rationalqm_version']}  "
          f"python {record['provenance']['python']}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        d = record["detail"]
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in d["raw"].items()))
        print(f"  p90 from {d['p90_samples']} samples of {d['timed_ops']} timed ops "
              f"({d['samples_above_p90']} above); "
              f"{d['windows']} windows; setup median of {SETUP_REPEATS}")
    print(f"  failed_frac {record['failed_frac']:.6g} ({runner.failed}/{runner.attempted}); "
          f"input repeat rate {record['input_repeat_rate']:.3f}")
    for reason, count in runner.reasons.items():
        print(f"  FAILED x{count}: {reason}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
