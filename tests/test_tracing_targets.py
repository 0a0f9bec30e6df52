"""The benchmark's tracer wraps ccsim entry points by name; each must exist."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(name, attr) for name, owner, attr in tracing.entry_points()
               if attr not in vars(owner)]
    assert not missing
