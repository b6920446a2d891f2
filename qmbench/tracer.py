"""Outside-in layer trace of the rationalqm package.

The tracer wraps a fixed list of public functions by rebinding each name on
its defining module and on every loaded rationalqm module that imported it;
nothing in the package source changes. Each call records a span (name,
layer, op id, start, end, parent) in memory. A layer's self time is the sum
over its spans of the span duration minus the time covered by its child
spans (including the wrapper's own bookkeeping for those children). Counts
of work are taken from arguments and results at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("exact", "lattice", "states", "reduction", "experiments", "cli")

# (module, attribute path) of every wrapped function. Per-step helpers such
# as reduce_step stay unwrapped: a span per halving step would swamp the
# trace and distort the self times it is meant to measure.
WRAPPED = (
    ("exact", "niven_cosine"), ("exact", "itc_verdict"),
    ("exact", "spherical_third_side"),
    ("lattice", "canonical_bitstring"), ("lattice", "block_string"),
    ("lattice", "zeta"), ("lattice", "lattice_to_csv"),
    ("states", "HiddenPermutation.from_seed"), ("states", "make_qubit"),
    ("states", "make_two_qubit"), ("states", "make_singlet"),
    ("reduction", "measure"), ("reduction", "to_integer_pair"),
    ("experiments", "bell_run"), ("experiments", "single_trial_outcomes"),
    ("cli", "main"), ("cli", "to_jsonable"),
)

COUNT_NAMES = (
    "exact.cert.rational", "exact.cert.surd", "exact.cert.niven",
    "lattice.points", "lattice.bits", "states.perm_positions",
    "reduction.halving_steps", "reduction.trace_bits", "experiments.trials",
)

_CERT_COUNT = {"rational": "exact.cert.rational",
               "irrational-surd": "exact.cert.surd",
               "irrational-by-niven": "exact.cert.niven"}

# Span record fields.
NAME, LAYER, OP, START, END, PARENT, COVERED = range(7)


class Tracer:
    """Span recorder; `install` patches the package, `uninstall` restores it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == "rationalqm"]
        for module_name, path in WRAPPED:
            owner = sys.modules[f"rationalqm.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                func = self._wrap(path, module_name, original.__func__)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, classmethod(func))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(path, module_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, layer: str, func: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            t_in = clock()
            parent = stack[-1] if stack else None
            if parent is not None and spans[parent][NAME] == name:
                # Direct recursion (to_jsonable) stays inside the outer span.
                return func(*args, **kwargs)
            record = [name, layer, tracer.op, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                parent_layer = None if parent is None else spans[parent][LAYER]
                after(tracer.counts, parent_layer, args, kwargs, result)
            if parent is not None:
                spans[parent][COVERED] += clock() - t_in
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- results -----------------------------------------------------------
    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for span in self.spans:
            calls[span[LAYER]] += 1
            self_s[span[LAYER]] += span[END] - span[START] - span[COVERED]
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.self_share"] = self_s[layer] / wall_s if wall_s else 0.0
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        verdicts = self.counts["exact.verdicts"]
        out["exact.possible_frac"] = (self.counts["exact.possible"] / verdicts
                                      if verdicts else 0.0)
        return out

    def write_spans(self, path: Path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,op,name,layer,start_s,end_s,parent\n")
            for i, s in enumerate(self.spans):
                parent = "" if s[PARENT] is None else s[PARENT]
                fh.write(f"{i},{s[OP]},{s[NAME]},{s[LAYER]},{s[START] - origin:.9f},"
                         f"{s[END] - origin:.9f},{parent}\n")


# -- counts taken at span boundaries ------------------------------------------

def _count_niven(counts, parent_layer, args, kwargs, result) -> None:
    if parent_layer != "exact":
        counts[_CERT_COUNT[result.kind.value]] += 1


def _count_itc(counts, parent_layer, args, kwargs, result) -> None:
    if parent_layer != "exact":
        counts[_CERT_COUNT[result.third_side.kind.value]] += 1
        counts["exact.verdicts"] += 1
        counts["exact.possible"] += bool(result.possible)


def _count_canonical(counts, parent_layer, args, kwargs, result) -> None:
    counts["lattice.points"] += 1
    counts["lattice.bits"] += len(result)


def _count_permutation(counts, parent_layer, args, kwargs, result) -> None:
    counts["states.perm_positions"] += result.size


def _count_measure(counts, parent_layer, args, kwargs, result) -> None:
    counts["reduction.halving_steps"] += result.step_count
    counts["reduction.trace_bits"] += sum(pair.width for pair in result.steps)


def _count_bell(counts, parent_layer, args, kwargs, result) -> None:
    counts["experiments.trials"] += sum(p.trials for p in result.pairs)


def _count_single_trial(counts, parent_layer, args, kwargs, result) -> None:
    counts["experiments.trials"] += 1


_AFTER: Dict[str, Callable] = {
    "niven_cosine": _count_niven,
    "itc_verdict": _count_itc,
    "canonical_bitstring": _count_canonical,
    "HiddenPermutation.from_seed": _count_permutation,
    "measure": _count_measure,
    "bell_run": _count_bell,
    "single_trial_outcomes": _count_single_trial,
}
