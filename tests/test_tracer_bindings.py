"""The benchmark tracer wraps each traced call at the attribute through which
its consumer reaches it (``bench/tracer.py``, ``Tracer._targets``).  A
refactor that drops one of those bindings breaks every traced benchmark run,
so the bindings are checked here, with the other fast tests.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_bound_on_its_owner():
    targets = load_tracer().Tracer()._targets()
    assert targets
    unbound = [(span, getattr(owner, "__name__", repr(owner)), attr)
               for span, owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert unbound == []
