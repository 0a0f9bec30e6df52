"""Named protocol mutants, each with the one check that must catch it.

A mutant replaces one hook through ``monkeypatch``; no source is edited.
Each row names the case the explorer searches and the message that every
failure of the search must carry. A mutant that passes, or that fails some
other way, shows that the named check can no longer fail, or that another
check now catches the mutant first.
"""

import pytest

from ccsim import CollectiveClockProtocol, explore_small
from ccsim.runtime import FINISHED
from ccsim.scenario import Op

from conftest import op_coll, op_icoll, scenario


def x_mixed():
    """explore-small's cc shape: ranks x, y, z = 0, 1, 2, groups a = {x, y}
    and b = {y, z}; a non-blocking allreduce on a spans y's barrier on b."""
    sc = scenario(3, comms={"a": (0, 1), "b": (1, 2)}, name="x-mixed-shape")
    p = sc.programs
    p[0] += [op_icoll(0, "q0", comm="a", kind="allreduce", reduce_op="sum", data=[1]),
             Op(rank=0, op="wait", request_id="q0")]
    p[1] += [op_icoll(1, "q0", comm="a", kind="allreduce", reduce_op="sum", data=[2]),
             op_coll(1, comm="b"), Op(rank=1, op="wait", request_id="q0")]
    p[2] += [op_coll(2, comm="b")]
    return sc


def cc_take_input_never_resumes(self, sim, rank):
    """Applies the queued updates, but a risen target never un-parks the rank."""
    if self.has_input(sim, rank):
        self._apply_queue(sim, rank.id, finished=rank.stage == FINISHED)
    return False


# (owner, hook, mutant, case, algorithm, what every failure must say)
MUTANTS = [
    pytest.param(CollectiveClockProtocol, "take_input", cc_take_input_never_resumes,
                 x_mixed, "cc", "started but incomplete at safe state",
                 id="cc-parked-rank-never-resumes"),
]


@pytest.mark.parametrize("owner, hook, mutant, case, algorithm, message", MUTANTS)
def test_only_the_named_check_catches_the_mutant(monkeypatch, owner, hook, mutant, case,
                                                 algorithm, message):
    assert explore_small(case(), algorithm).passed
    monkeypatch.setattr(owner, hook, mutant)
    errors = [failure["error"] for failure in explore_small(case(), algorithm).failures]
    assert errors
    assert [e for e in errors if message not in e] == []
