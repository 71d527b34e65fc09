"""perfbench/tracer.py patches the functions it times at every name their
callers look them up by; a name the package drops or renames would fail only
the benchmark's own run.  This resolves each of those names here."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()
# install() also counts tau evaluations at TauSpec.__call__
PATCHED = [*tracer.SPANS, *tracer.COUNTS,
           (("ponomap.gauge:TauSpec",), "__call__", "gauge.tau_evals")]


def test_every_traced_name_resolves():
    missing = []
    for owners, attr, name in PATCHED:
        for spec in owners:
            owner = tracer._owner(spec)
            # the lookup Tracer._patch makes
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if not callable(fn):
                missing.append(f"{spec}.{attr} ({name})")
    assert not missing
