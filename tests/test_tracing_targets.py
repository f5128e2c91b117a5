"""The per-layer tracer in ``perfbench/tracing.py`` patches functions by
name; every name it lists must still exist, or ``perfbench/run.py --trace 1``
breaks.  Its counters also read attributes of what the traced calls return
(``GSReport.counts`` and ``generator_counts``, ``TrivialityResult.steps``,
``StabilityReport.enumerated``, ``RuleSet.rules``), so one installed run
reads them all.  The module is loaded by path."""

import importlib.util
from pathlib import Path

from opalg import cli, gsbasis

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    missing = []
    for layer, qual, _kind in tracing.TARGETS:
        home = tracing.LAYERS[layer]
        cls_name, _, meth = qual.rpartition(".")
        if cls_name:
            cls = getattr(home, cls_name, None)
            found = cls is not None and meth in cls.__dict__
        else:
            found = callable(getattr(home, qual, None))
        if not found:
            missing.append(f"{layer}.{qual}")
    assert not missing, f"tracer targets not found: {missing}"


def test_installed_tracer_reads_what_the_traced_calls_return(capsys):
    tracing = _load_tracing()
    check_gs = gsbasis.check_gs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gsbasis.check_gs is not check_gs
        assert cli.main(["check-gs", "--catalog", "diff:1", "--gens", "z1*z2 - 1", "--bounds", "2,1"]) == 1
        assert cli.main(["check-type", "--catalog", "rb:1", "--bounds", "2,1"]) == 0
        # check-gs verdicts keep no trace; compositions counts its steps
        assert cli.main(["compositions", "--catalog", "diff:1", "--gens", "z1*z2 - 1", "--bounds", "2,1"]) == 1
        metrics = {name: value for name, (value, _unit) in tracer.metrics().items()}
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert gsbasis.check_gs is check_gs
    assert metrics["cli.main.calls"] == 3
    assert metrics["gsbasis.check_gs.calls"] == 1
    assert metrics["rewrite.check_rb_type.calls"] == 1
    assert metrics["gsbasis.generators"] > 0
    assert 0 < metrics["gsbasis.records_reduced"] <= metrics["gsbasis.records"]
    assert metrics["gsbasis.reduction_steps"] > 0
    assert metrics["rewrite.rules_compiled"] > 0
    assert metrics["opi.check_lm_stability.calls"] > 0
    assert "opi.stability_assignments" in metrics
