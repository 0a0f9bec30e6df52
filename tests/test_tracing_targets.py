"""The benchmark's tracer wraps ccsim entry points by name; each must exist."""

import importlib.util
import os

from ccsim import CollectiveClockProtocol, ProtocolAdapter, TwoPhaseCommitProtocol

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_entry_point_exists():
    tracing = load_tracing()
    missing = [(name, attr) for name, owner, attr in tracing.entry_points()
               if attr not in vars(owner)]
    assert not missing


def test_outcome_hooks_read_by_the_layer_metrics_exist():
    # perfbench/layers.py counts cc.parks from the park outcomes of cc's
    # begin_collective and finish_collective, and twophase.commit_ratio from
    # 2pc's begin_collective and barrier_step: a renamed hook reads as zero.
    outcome_hooks = load_tracing()._OUTCOME_HOOKS
    for protocol, hooks in ((CollectiveClockProtocol, ("begin_collective", "finish_collective")),
                            (TwoPhaseCommitProtocol, ("begin_collective", "barrier_step"))):
        for name in hooks:
            assert name in outcome_hooks, name
            assert callable(vars(ProtocolAdapter).get(name)), name
            assert name in vars(protocol), (protocol.name, name)
