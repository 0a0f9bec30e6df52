"""Shared scenario builders and manual-driving helpers."""

from ccsim import CheckpointCoordinator, ScenarioProgram, Simulator, make_protocol, run
from ccsim.scenario import Op


def op_coll(rank, comm="world", kind="barrier", root=None, reduce_op=None, data=None):
    return Op(rank=rank, op="coll", comm=comm, kind=kind, root=root,
              reduce_op=reduce_op, data=data)


def op_icoll(rank, request_id, comm="world", kind="barrier", root=None,
             reduce_op=None, data=None):
    return Op(rank=rank, op="icoll", comm=comm, kind=kind, root=root,
              reduce_op=reduce_op, data=data, request_id=request_id)


def scenario(world_size, comms=None, name="test", preamble=True):
    sc = ScenarioProgram(world_size=world_size, comms=comms or {}, name=name)
    if preamble and comms:
        for cid in sorted(comms):
            for rank in range(world_size):
                sc.programs[rank].append(Op(rank=rank, op="comm_create", new_comm=cid))
    return sc


def drained_request_scenario():
    """Two ranks: an ibarrier q0, a world barrier, then the wait on q0. A cc
    checkpoint at step 2 (seed 3) drains q0 before rank 0 reaches its wait."""
    sc = scenario(2)
    for r in range(2):
        sc.programs[r] += [op_icoll(r, "q0"), op_coll(r), Op(rank=r, op="wait", request_id="q0")]
    return sc


def none_labelled_snapshot():
    """The cc snapshot that drains q0 in ``drained_request_scenario``, relabelled
    as algorithm 'none' with its policy and protocol rows: no run writes it, as
    'none' takes no checkpoints, and its rank 0 would wait on a request that a
    'none' restart does not rebuild."""
    image = run(drained_request_scenario(), "cc", seed=3, ckpt=("at_step", 2)).snapshot
    image.algorithm, image.policy = "none", {}
    for row in image.per_rank:
        row["protocol"] = {}
    return image


def same_member_set_scenario():
    """Two ranks, communicators a and b over the same two ranks, whose
    non-blocking collectives the ranks start in opposite orders."""
    sc = scenario(2, comms={"a": (0, 1), "b": (0, 1)}, name="x-same-set")
    p = sc.programs
    p[0] += [op_icoll(0, "qa", comm="a"), op_icoll(0, "qb", comm="b"),
             Op(rank=0, op="waitall", request_ids=["qa", "qb"])]
    p[1] += [op_icoll(1, "qb", comm="b"), op_icoll(1, "qa", comm="a"),
             Op(rank=1, op="waitall", request_ids=["qa", "qb"])]
    return sc


def wide_payload_scenario(kind):
    """Two ranks and one collective whose result is outside int64: an
    allreduce sum of 2**62 on each rank (2**63), or a bcast of 2**64."""
    sc = scenario(2, name=f"wide-{kind}")
    for r in range(2):
        if kind == "allreduce":
            sc.programs[r].append(op_coll(r, kind="allreduce", reduce_op="sum", data=[2**62]))
        else:
            sc.programs[r].append(op_coll(r, kind="bcast", root=0,
                                          data=[2**64] if r == 0 else None))
    return sc


def build(sc, algorithm="none", seed=0, placement=None, record=True):
    """Simulator plus coordinator wired for manual driving."""
    sc.validate()
    sim = Simulator(sc, make_protocol(algorithm), seed=seed, record=record)
    coordinator = None
    if algorithm != "none":
        coordinator = CheckpointCoordinator(placement)
        sim.coordinator = coordinator
    return sim, coordinator


def drive(sim, coordinator=None, pick=min, request_when=None, max_steps=100_000):
    """Run the loop with an explicit actor-choice policy.

    ``request_when(sim)`` fires the checkpoint request the first time it
    holds, checked before every step.
    """
    requested = False
    while True:
        if (request_when is not None and not requested
                and coordinator is not None and request_when(sim)):
            coordinator.request_checkpoint(sim)
            requested = True
        enabled = sim.runnable()
        if not enabled:
            return sim
        sim.step_actor(pick(enabled))
        max_steps -= 1
        assert max_steps > 0, "drive() exceeded its step budget"


def drive_held(sim, holds, max_steps=100_000):
    """Step every schedulable actor except ranks held at an op boundary.

    ``holds`` maps rank id to a program counter: that rank is not scheduled
    while sitting at START with pc >= the bound. Returns when only held or
    blocked ranks remain, leaving the runtime at a precise instant.
    """
    from ccsim.runtime import START as START_STAGE

    while True:
        enabled = [
            r for r in sim.enabled_actors()
            if not (r in holds and sim.ranks[r].stage == START_STAGE
                    and sim.ranks[r].pc >= holds[r])
        ]
        if not enabled:
            return sim
        sim.step_actor(min(enabled))
        max_steps -= 1
        assert max_steps > 0, "drive_held() exceeded its step budget"
