"""Offline and online checking.

Everything here works on artifacts (scenarios, traces, snapshot images) with
no privileged view of the runtime internals, so each check is an independent
route to the property it guards:

* happens-before acyclicity over executed blocking collective instances;
* static point-to-point crossing legality (a matched pair may not straddle a
  blocking collective on a communicator containing both endpoints);
* safe-state soundness of a snapshot against its trace;
* replay equivalence of checkpoint/restart against the uninterrupted run;
* bounded clock skew between members of a blocking-only group.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from .clock import GroupKey
from .coordinator import restart
from .scenario import ScenarioProgram, WORLD, encode


@dataclass
class Verdict:
    check: str
    passed: bool
    detail: dict = field(default_factory=dict)
    scenario: str = ""
    seed: int | None = None

    def to_json_line(self) -> str:
        return encode(
            {"check": self.check, "scenario": self.scenario, "seed": self.seed,
             "pass": self.passed, "detail": self.detail})


# --------------------------------------------------------------------------
# Happens-before
# --------------------------------------------------------------------------


def hb_lists_from_trace(trace) -> list:
    """Per-rank ordered (group label, instance number) of blocking collectives."""
    per_rank: dict[int, list] = {}
    for ev in trace:
        if ev["event"] == "coll_enter":
            d = ev["detail"]
            per_rank.setdefault(ev["rank"], []).append((d["group"], d["num"]))
    if not per_rank:
        return []
    return [per_rank.get(r, []) for r in range(max(per_rank) + 1)]


def check_hb_acyclic(trace, scenario="", seed=None) -> Verdict:
    """Program-order edges per rank between consecutive blocking instances;
    the transitive closure is a DAG iff this base graph is. Sorted insertion
    makes the search, and the cycle it names, a function of the graph alone."""
    preds: dict = {}
    for sequence in hb_lists_from_trace(trace):
        for node in sequence:
            preds.setdefault(node, set())
        for a, b in zip(sequence, sequence[1:]):
            preds[b].add(a)
    graph = TopologicalSorter(dict.fromkeys(sorted(preds), ()))
    for node in sorted(preds):
        graph.add(node, *sorted(preds[node]))
    detail = {"nodes": len(preds)}
    try:
        graph.prepare()
    except CycleError as exc:  # args[1] is a closed walk along the edges
        detail["cycle"] = [list(n) for n in exc.args[1]]
    return Verdict("hb_acyclic", "cycle" not in detail, detail, scenario, seed)


# --------------------------------------------------------------------------
# Point-to-point crossing legality (static)
# --------------------------------------------------------------------------


def _instance(program, comm_id: str, pc: int) -> int:
    """The ``Op.instance`` of the call at pc; only a violation reads it."""
    return sum(op.op in ("coll", "icoll") and op.comm == comm_id
               or op.op == "comm_create" and comm_id == WORLD for op in program[:pc])


def check_crossing_legality(scenario: ScenarioProgram, seed=None) -> Verdict:
    """No matched send/recv pair may straddle a blocking collective instance
    on a communicator containing both endpoints, in either direction.

    A channel's k-th send and k-th recv match. With a and b the counts of
    blocking calls each end makes on a shared communicator before its post
    (a comm_create counts on world), the pair straddles the instances that
    both ends call from min(a, b) up to max(a, b). A violation names each by
    the sender's ``Op.instance`` number, which counts icolls too.
    """
    blocking = []  # per rank: comm id -> pcs of its blocking calls
    channels: dict = {}  # (src, dst, tag, comm) -> (send pcs, recv pcs)
    for rank, program in enumerate(scenario.programs):
        pcs: dict = {}
        for i, op in enumerate(program):
            kind = op.op
            if kind == "coll":
                pcs.setdefault(op.comm, []).append(i)
            elif kind == "comm_create":
                pcs.setdefault(WORLD, []).append(i)
            elif kind == "send":
                channels.setdefault((rank, op.peer, op.tag, op.comm), ([], []))[0].append(i)
            elif kind == "recv":
                channels.setdefault((op.peer, rank, op.tag, op.comm), ([], []))[1].append(i)
        blocking.append(pcs)

    violations = []
    for (src, dst, _, _), (send_pcs, recv_pcs) in sorted(channels.items()):
        shared = [WORLD] + [cid for cid, members in scenario.comms.items()
                            if src in members and dst in members]
        for send_pc, recv_pc in zip(send_pcs, recv_pcs):
            for cid in shared:
                src_pcs, dst_pcs = blocking[src].get(cid, ()), blocking[dst].get(cid, ())
                a, b = bisect_left(src_pcs, send_pc), bisect_left(dst_pcs, recv_pc)
                for k in range(min(a, b), min(max(a, b), len(src_pcs), len(dst_pcs))):
                    instance = _instance(scenario.programs[src], cid, src_pcs[k])
                    violations.append({"send": [src, send_pc], "recv": [dst, recv_pc],
                                       "comm": cid, "instance": instance})
    return Verdict("crossing_legality", not violations,
                   {"violations": violations}, scenario.name, seed)


# --------------------------------------------------------------------------
# Safe-state soundness from artifacts
# --------------------------------------------------------------------------


def _members_of(snapshot, comm_id):
    if comm_id == WORLD:
        return tuple(range(snapshot.scenario.world_size))
    return tuple(snapshot.comms_created[comm_id])


def check_safe_state(snapshot, trace, scenario="", seed=None) -> Verdict:
    """Validate the two safe-state invariants plus clock agreement.

    Uses only the serialized snapshot and the event trace up to the
    ``safe_state`` marker: every blocking instance any member entered must be
    returned by all members, every initiated non-blocking instance must be
    globally complete, no point-to-point may be in flight, and each rank's
    counter must equal the final target for every group it belongs to.
    """
    problems = []
    marker = None
    for i, ev in enumerate(trace):
        if ev["event"] == "safe_state":
            marker = i
            break
    if marker is None:
        return Verdict("safe_state", False, {"problems": ["no safe_state event in trace"]},
                       scenario, seed)
    pre = trace[:marker]

    entered: dict = {}
    returned: dict = {}
    initiated: dict = {}
    nb_complete = set()
    tb_entered: dict = {}
    tb_resolved = set()
    tb_aborted = set()
    posts = {"send": {}, "recv": {}}
    matches: dict = {}
    for ev in pre:
        name, rank, d = ev["event"], ev["rank"], ev["detail"]
        key = (d.get("comm"), d.get("instance"))
        if name == "coll_enter":
            entered.setdefault(key, set()).add(rank)
        elif name == "coll_return":
            returned.setdefault(key, set()).add(rank)
        elif name == "icoll_init":
            initiated.setdefault(key, set()).add(rank)
        elif name == "icoll_complete":
            nb_complete.add(key)
        elif name == "tb_enter":
            tb_entered.setdefault(key, set()).add(rank)
        elif name == "tb_complete":
            tb_resolved.add(key)
        elif name == "tb_abort":
            tb_aborted.add((rank,) + key)
        elif name == "send_post":
            pkey = (rank, d["peer"], d["tag"], d["comm"])
            posts["send"][pkey] = posts["send"].get(pkey, 0) + 1
        elif name == "recv_post":
            pkey = (d["peer"], rank, d["tag"], d["comm"])
            posts["recv"][pkey] = posts["recv"].get(pkey, 0) + 1
        elif name == "p2p_match":
            pkey = (d["src"], d["dst"], d["tag"], d["comm"])
            matches[pkey] = matches.get(pkey, 0) + 1

    for key, who in sorted(entered.items()):
        members = set(_members_of(snapshot, key[0]))
        done = returned.get(key, set())
        if done != members:
            problems.append(f"instance {key} entered by {sorted(who)} but returned only by "
                            f"{sorted(done)} of {sorted(members)}")
    for key, who in sorted(initiated.items()):
        members = set(_members_of(snapshot, key[0]))
        if key not in nb_complete or who != members:
            problems.append(f"non-blocking instance {key} initiated by {sorted(who)} "
                            f"but not globally complete")
    for key, who in sorted(tb_entered.items()):
        if key in tb_resolved:
            continue
        for rank in sorted(who):
            if (rank,) + key not in tb_aborted:
                problems.append(f"rank {rank} still inside trivial barrier {key}")
    for kind in ("send", "recv"):
        for pkey, count in sorted(posts[kind].items()):
            if matches.get(pkey, 0) < count:
                problems.append(f"{kind} posts unmatched at snapshot: {pkey}")

    groups: dict = {}  # label -> members: each label is parsed once per call

    def members_of_label(label):
        if label not in groups:
            groups[label] = GroupKey.from_label(label).members
        return groups[label]

    targets = snapshot.final_targets
    for row in snapshot.per_rank:
        clock = row.get("protocol", {}).get("clock")
        if clock is None:
            continue
        rank = row["rank"]
        for label, tgt in targets.items():
            if rank in members_of_label(label) and clock.get(label, 0) != tgt:
                problems.append(f"rank {rank} SEQ {clock.get(label, 0)} != TARGET {tgt} "
                                f"for group {{{label}}}")
        for label, seq in clock.items():
            if rank in members_of_label(label) and seq > 0 and targets.get(label, 0) != seq:
                problems.append(f"rank {rank} group {{{label}}} SEQ {seq} missing from targets")
        for rid, rec in row.get("protocol", {}).get("incomplete_requests", {}).items():
            if rec["state"] not in ("globally_complete", "consumed"):
                problems.append(f"request {rid} on rank {rank} is {rec['state']} in snapshot")

    return Verdict("safe_state", not problems, {"problems": problems}, scenario, seed)


# --------------------------------------------------------------------------
# Replay equivalence
# --------------------------------------------------------------------------


def check_replay_equivalence(checkpointed, uninterrupted: dict, placement) -> Verdict:
    """Checkpoint + restart vs. the uninterrupted run's checksums: they must
    agree. ``checkpointed`` is the RunResult that took the snapshot, and
    ``placement`` only the text the verdict prints. The resumed run (release
    path) must match too, which is strictly stronger."""
    detail = {"placement": str(placement)}
    name, seed = checkpointed.scenario_name, checkpointed.seed
    if checkpointed.snapshot is None:
        return Verdict("replay_equivalence", False,
                       {"problems": ["no snapshot taken"], **detail}, name, seed)
    restarted = restart(checkpointed.snapshot, record=False)
    restarted.run()
    detail["resumed_matches"] = checkpointed.checksums == uninterrupted
    detail["restarted_matches"] = restarted.checksums() == uninterrupted
    return Verdict("replay_equivalence",
                   detail["resumed_matches"] and detail["restarted_matches"], detail, name, seed)


# --------------------------------------------------------------------------
# Clock skew (blocking-only groups)
# --------------------------------------------------------------------------


def check_clock_skew(trace, scenario="", seed=None) -> Verdict:
    """Members of a group used only by blocking collectives never drift more
    than one count apart at any scheduler step."""
    # A group whose counter is ever bumped at a non-blocking initiation is out
    # of scope: initiations do not synchronize, so members may legally drift.
    nb_steps = {(ev["step"], ev["rank"]) for ev in trace if ev["event"] == "icoll_init"}
    skip = set()
    values: dict = {}
    worst = 0
    offender = None
    for ev in trace:
        if ev["event"] != "seq_inc":
            continue
        label = ev["detail"]["group"]
        if (ev["step"], ev["rank"]) in nb_steps:
            skip.add(label)
            continue
        if label in skip:
            continue
        if label not in values:
            values[label] = dict.fromkeys(GroupKey.from_label(label).members, 0)
        values[label][ev["rank"]] = ev["detail"]["value"]
        spread = max(values[label].values()) - min(values[label].values())
        if spread > worst:
            worst, offender = spread, label
        if spread > 1:
            return Verdict("clock_skew", False,
                           {"group": label, "spread": spread, "at_step": ev["step"]},
                           scenario, seed)
    return Verdict("clock_skew", True, {"max_spread": worst, "group": offender},
                   scenario, seed)
