"""The bench tracer (bench/tracer.py) wraps torictate entry points named by
string. A refactor that renames or moves one of them breaks the traced bench
run; this test names the target that no longer resolves instead."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    tracer = _tracer()
    targets = [t for _, ts, _, _ in tracer.LAYERS for t in ts] + list(tracer.DIMS_TARGETS)
    assert targets
    missing = []
    for target in targets:
        parts = target.split(".")
        module = importlib.import_module("torictate." + parts[0])
        owner = getattr(module, parts[1], None)
        # a method must be defined on the class itself, where the tracer patches it
        found = owner if len(parts) == 2 else vars(owner).get(parts[2]) if owner is not None else None
        if not callable(found):
            missing.append(target)
    assert missing == []
