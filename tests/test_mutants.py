"""Named mutants, each with the one check that must catch it.

A mutant replaces one hook through ``monkeypatch``; no source is edited.
Each row names a search, which returns the failure messages of a run of
checks, and the message that every failure must carry. The search passes
before the mutant is applied. A mutant that passes, or that fails some
other way, shows that the named check can no longer fail, or that another
check now catches the mutant first.
"""

import pytest

from ccsim import (
    CheckpointCoordinator,
    CollectiveClockProtocol,
    Simulator,
    compare,
    explore_small,
)
from ccsim.runtime import BLOCKED_RECV, BLOCKED_SEND, FINISHED
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


def p2p_pair():
    """Rank 0 sends to rank 1, which computes first: either half may post first
    and block."""
    sc = scenario(2, name="p2p-pair")
    sc.programs[0] += [Op(rank=0, op="send", peer=1, tag=0, data=[7])]
    sc.programs[1] += [Op(rank=1, op="compute", ticks=1), Op(rank=1, op="recv", peer=0, tag=0)]
    return sc


def explored(case, algorithm):
    """The error of every failing path of an exhaustive search of ``case``."""
    return lambda: [f["error"] for f in explore_small(case(), algorithm).failures]


def compared(case, seeds=range(4)):
    """One message per ``compare`` row that it flags failed, for cc and no
    checkpoint: criterion 2, no protocol traffic outside a round."""
    return lambda: [f"compare flags cc seed {row['seed']}"
                    for row in compare(case(), seeds, algorithms=("cc",)) if row["ok"] is False]


def cc_take_input_never_resumes(self, sim, rank):
    """Applies the queued updates, but a risen target never un-parks the rank."""
    if self.has_input(sim, rank):
        self._apply_queue(sim, rank.id, finished=rank.stage == FINISHED)
    return False


def cc_commit_uncounted(self, sim, rank, st, g):
    """Commits like cc, but a call during a round is not counted as a drain
    collective, so the cascade bound reads 0."""
    seq = st.clock[g] = st.clock[g] + 1
    if sim.round_pending and seq > st.targets[g]:
        st.targets[g] = seq
        self._send_updates(sim, rank.id, st, g, seq)


def cc_commit_outside_rounds(self, sim, rank, st, g):
    """Raises targets and sends updates on every call, as if a round were
    always pending."""
    seq = st.clock[g] = st.clock[g] + 1
    if seq > st.targets[g]:
        st.targets[g] = seq
        self._send_updates(sim, rank.id, st, g, seq)


def coordinator_never_requests_at_the_end(self, sim):
    """Declares a pending round once quiescent, but never requests a round
    once every rank has finished."""
    if self.requested and not self.declared and sim.protocol.quiescent(sim):
        self.declare_safe_state(sim)
        return True
    return False


_enabled = Simulator._enabled


def runtime_blocked_post_enabled(self, rank):
    """A rank blocked in a send or recv counts as enabled."""
    return rank.stage in (BLOCKED_SEND, BLOCKED_RECV) or _enabled(self, rank)


# (owner, hook, mutant, search, what every failure must say)
MUTANTS = [
    pytest.param(CollectiveClockProtocol, "take_input", cc_take_input_never_resumes,
                 explored(x_mixed, "cc"), "started but incomplete at safe state",
                 id="cc-parked-rank-never-resumes"),
    pytest.param(CheckpointCoordinator, "handle_idle", coordinator_never_requests_at_the_end,
                 explored(x_mixed, "cc"), "checkpoint round never declared a safe state",
                 id="coordinator-never-requests-at-the-end"),
    pytest.param(CollectiveClockProtocol, "_commit", cc_commit_uncounted,
                 explored(x_mixed, "cc"), "update cascade",
                 id="cc-drain-collectives-uncounted"),
    pytest.param(Simulator, "_enabled", runtime_blocked_post_enabled,
                 explored(p2p_pair, "none"), "stepped in stage",
                 id="runtime-blocked-post-enabled"),
    pytest.param(CollectiveClockProtocol, "_commit", cc_commit_outside_rounds,
                 compared(x_mixed), "compare flags cc",
                 id="cc-updates-outside-rounds"),
]


@pytest.mark.parametrize("owner, hook, mutant, search, message", MUTANTS)
def test_only_the_named_check_catches_the_mutant(monkeypatch, owner, hook, mutant, search,
                                                 message):
    assert search() == []
    monkeypatch.setattr(owner, hook, mutant)
    errors = search()
    assert errors
    assert [e for e in errors if message not in e] == []
