"""The benchmark's view of the package, checked in tier-1.

`qmbench/tracer.py` reaches the package from outside: it rebinds public
names such as `reduction.measure` and counts work from their results. It is
loaded here from its file, as it stands, and installed around one CLI call.
"""

import importlib.util
from pathlib import Path

# Tracer.install wraps names in each of these modules, so all must be loaded.
from rationalqm import cli, exact, experiments, lattice, reduction, states  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "qmbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qmbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_measure(tmp_path, capsys):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["measure", "--m", "5", "--n", "3", "--L", "16", "--seed", "2",
                         "--json", str(tmp_path / "measure.json")])
        metrics = tracer.layer_metrics(1.0)
        assert code == 0
        # L - 1 halvings, and the trace's pairs of widths 16, 15, ..., 1
        assert metrics["reduction.halving_steps"] == 15
        assert metrics["reduction.trace_bits"] == 136
        assert metrics["states.perm_positions"] == 16
    finally:
        tracer.uninstall()
    assert not hasattr(reduction.measure, "__wrapped__")
    assert "outcome:" in capsys.readouterr().out
