"""The benchmark's tracer (perfbench/spans.py) wraps the package's entry
points by module attribute.  These tests fail when a rename removes an
entry point it wraps, or when a call in the reduction chain goes through a
name bound at import time, which the wrappers cannot see."""

import importlib.util
from pathlib import Path

from heisenkep import galois

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in _spans_module()._targets()
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_reduction_chain_is_traced():
    tracer = _spans_module().Tracer(enabled=True)
    tracer.install()
    try:
        galois.o3r_operator()
    finally:
        tracer.uninstall()
    for name in ("variational.gauge_transform", "variational.cyclic_to_scalar",
                 "variational.exp_substitution"):
        assert tracer.calls[name] >= 1, name
