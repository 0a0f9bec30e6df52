"""Offline verifier checks."""

import ast
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from ccsim import (
    GroupKey,
    Op,
    check_clock_skew,
    check_crossing_legality,
    check_hb_acyclic,
    check_replay_equivalence,
    check_safe_state,
    checksum_fold,
    generate_workload,
    run,
)
from ccsim.scenario import WORLD

from conftest import op_coll, op_icoll, scenario


def coll_enters(per_rank):
    """A trace of the coll_enter events of each rank's (group, num) sequence."""
    return [{"step": 0, "rank": rank, "event": "coll_enter",
             "detail": {"group": group, "num": num}}
            for rank, sequence in enumerate(per_rank) for group, num in sequence]


class TestHappensBefore:
    def test_single_group_chain_is_acyclic(self):
        per_rank = [[("0,1", 1), ("0,1", 2), ("0,1", 3)],
                    [("0,1", 1), ("0,1", 2), ("0,1", 3)]]
        verdict = check_hb_acyclic(coll_enters(per_rank))
        assert verdict.passed
        assert verdict.detail["nodes"] == 3

    def test_fig2_run_is_acyclic(self):
        result = run("fig2", algorithm="cc", seed=11, ckpt=("trigger", "fig2-instant"))
        verdict = check_hb_acyclic(result.sim.trace)
        assert verdict.passed

    def test_hand_built_cycle_is_reported(self):
        # A before B on rank X, B before C on rank Y, C before A on rank Z
        a, b, c = ("gx", 1), ("gy", 1), ("gz", 1)
        per_rank = [[a, b], [b, c], [c, a]]
        verdict = check_hb_acyclic(coll_enters(per_rank))
        assert not verdict.passed
        cycle = [tuple(n) for n in verdict.detail["cycle"]]
        assert set(cycle) >= {a, b, c}

    def test_two_rank_cycle_reported(self):
        verdict = check_hb_acyclic(coll_enters([[("a", 1), ("b", 1)], [("b", 1), ("a", 1)]]))
        assert not verdict.passed


def _reference_find_cycle(adjacency):
    """The cycle ``check_hb_acyclic`` names, as its hand-written depth-first
    search found it before it used graphlib: nodes and successors in sorted
    order, the cycle as a closed walk along the edges."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in adjacency}
    parent = {}
    for start in sorted(adjacency):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(adjacency[start])))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, WHITE) == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(adjacency.get(nxt, ())))))
                    advanced = True
                    break
                if color.get(nxt) == GRAY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def _reference_hb_detail(per_rank):
    adjacency = {}
    for sequence in per_rank:
        for node in sequence:
            adjacency.setdefault(node, set())
        for a, b in zip(sequence, sequence[1:]):
            adjacency[a].add(b)
    detail = {"nodes": len(adjacency)}
    cycle = _reference_find_cycle(adjacency)
    if cycle:
        detail["cycle"] = [list(n) for n in cycle]
    return detail


# 2-4 ranks, each a sequence of (group, num) nodes drawn from a small pool,
# so that ranks share nodes and orders often disagree.
_hb_sequences = st.lists(
    st.lists(st.tuples(st.sampled_from(["0,1", "1,2", "0,1,2", "0,2,3"]), st.integers(1, 3)),
             max_size=6),
    min_size=2, max_size=4)


class TestHappensBeforeReference:
    @given(_hb_sequences)
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_detail_matches_the_depth_first_search(self, per_rank):
        verdict = check_hb_acyclic(coll_enters(per_rank))
        want = _reference_hb_detail(per_rank)
        assert verdict.detail == want
        assert verdict.passed == ("cycle" not in want)
        if not verdict.passed:
            edges = {(a, b) for seq in per_rank for a, b in zip(seq, seq[1:])}
            walk = [tuple(n) for n in verdict.detail["cycle"]]
            assert len(walk) >= 2 and walk[0] == walk[-1]
            assert all(step in edges for step in zip(walk, walk[1:]))

    def test_the_strategy_finds_cycles(self):
        found = []

        @given(_hb_sequences)
        @settings(derandomize=True, max_examples=100, deadline=None)
        def collect(per_rank):
            found.append("cycle" in _reference_hb_detail(per_rank))

        collect()
        assert any(found) and not all(found)


# Events the check must skip, and detail fields it must not read; the
# explorer memoises its verdict on the (group, num) lists alone.
_other_events = st.lists(st.tuples(
    st.integers(0, 3),
    st.sampled_from(["coll_return", "icoll_init", "seq_inc", "send_post", "safe_state"]),
    st.sampled_from(["0,1", "1,2", "0,1,2"]), st.integers(0, 3)), max_size=8)


class TestHappensBeforeReadsOnlyItsLists:
    @given(_hb_sequences, _other_events, st.randoms(use_true_random=False),
           st.dictionaries(st.sampled_from(["comm", "instance", "value", "step"]),
                           st.integers(0, 5), max_size=3))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_other_events_and_fields_leave_the_verdict(self, per_rank, others, rng, extra):
        bare = coll_enters(per_rank)
        queues = [[ev for ev in bare if ev["rank"] == r] for r in range(len(per_rank))]
        noisy = []
        while any(queues):  # ranks interleaved at random, each rank's order kept
            queue = rng.choice([q for q in queues if q])
            ev = queue.pop(0)
            noisy.append(dict(ev, step=len(noisy), detail=dict(extra, **ev["detail"])))
        for rank, name, group, num in others:
            noisy.insert(rng.randint(0, len(noisy)), {
                "step": 0, "rank": rank, "event": name,
                "detail": {"group": group, "num": num, "comm": "g", "instance": num}})
        assert check_hb_acyclic(noisy).to_json_line() == check_hb_acyclic(bare).to_json_line()


class TestCrossingLegality:
    def _pair_scenario(self, send_pos, recv_pos):
        """Rank 0 sends to rank 1 around a world barrier placed mid-program."""
        sc = scenario(2)
        p0 = [op_coll(0), op_coll(0)]
        p0.insert(send_pos, Op(rank=0, op="send", peer=1, data=[1]))
        p1 = [op_coll(1), op_coll(1)]
        p1.insert(recv_pos, Op(rank=1, op="recv", peer=0))
        sc.programs[0] += p0
        sc.programs[1] += p1
        return sc

    def test_pair_on_same_side_is_legal(self):
        assert check_crossing_legality(self._pair_scenario(0, 0)).passed
        assert check_crossing_legality(self._pair_scenario(1, 1)).passed
        assert check_crossing_legality(self._pair_scenario(2, 2)).passed

    def test_send_before_recv_after_is_illegal(self):
        verdict = check_crossing_legality(self._pair_scenario(0, 1))
        assert not verdict.passed
        assert verdict.detail["violations"]

    def test_recv_before_send_after_is_illegal(self):
        verdict = check_crossing_legality(self._pair_scenario(1, 0))
        assert not verdict.passed

    def test_collective_on_disjoint_comm_does_not_constrain(self):
        # the barrier separating the pair is on a communicator that does not
        # contain the receiver, so the pair may straddle it
        sc = scenario(3, comms={"g": (0, 2)})
        sc.programs[0] += [Op(rank=0, op="send", peer=1, data=[1]),
                           op_coll(0, comm="g")]
        sc.programs[2] += [op_coll(2, comm="g")]
        sc.programs[1] += [Op(rank=1, op="recv", peer=0)]
        assert check_crossing_legality(sc).passed

    def test_generated_workloads_are_legal(self):
        for seed in range(5):
            sc = generate_workload(seed, ranks=6, groups=2, ops=40, p2p_ratio=0.4)
            assert check_crossing_legality(sc).passed

    def test_a_violation_names_the_runtime_instance(self):
        # The ibarrier is world instance 0, so the straddled barrier is instance 1.
        sc = scenario(2)
        sc.programs[0] += [op_icoll(0, "q0"), Op(rank=0, op="send", peer=1, data=[1]),
                           op_coll(0), Op(rank=0, op="wait", request_id="q0")]
        sc.programs[1] += [op_icoll(1, "q0"), op_coll(1), Op(rank=1, op="recv", peer=0),
                           Op(rank=1, op="wait", request_id="q0")]
        sc.validate()
        assert sc.programs[0][2].instance == sc.programs[1][1].instance == 1
        assert check_crossing_legality(sc).detail["violations"] == [
            {"send": [0, 1], "recv": [1, 2], "comm": "world", "instance": 1}]


def _reference_crossing_violations(scenario):
    """``check_crossing_legality``'s violations as computed before it found
    each rank's blocking positions in one scan: a rescan of the program for
    every matched pair and shared communicator. A violation's instance is
    the runtime's: the sender's coll, icoll and comm_create calls on the
    communicator before the straddled call."""
    def blocking_positions(rank, comm_id):
        return [i for i, op in enumerate(scenario.programs[rank])
                if (op.op == "coll" and op.comm == comm_id)
                or (op.op == "comm_create" and comm_id == WORLD)]

    def instance(rank, comm_id, pos):
        return sum(1 for op in scenario.programs[rank][:pos]
                   if (op.op in ("coll", "icoll") and op.comm == comm_id)
                   or (op.op == "comm_create" and comm_id == WORLD))

    sends, recvs = {}, {}
    for rank, program in enumerate(scenario.programs):
        for i, op in enumerate(program):
            if op.op == "send":
                sends.setdefault((rank, op.peer, op.tag, op.comm), []).append(i)
            elif op.op == "recv":
                recvs.setdefault((op.peer, rank, op.tag, op.comm), []).append(i)
    violations = []
    for key in sorted(set(sends) | set(recvs)):
        src, dst, _, _ = key
        for send_pos, recv_pos in zip(sends.get(key, []), recvs.get(key, [])):
            shared = [WORLD] + [cid for cid, members in scenario.comms.items()
                                if src in members and dst in members]
            for cid in shared:
                src_positions = blocking_positions(src, cid)
                dst_positions = blocking_positions(dst, cid)
                for k in range(min(len(src_positions), len(dst_positions))):
                    a, b = src_positions[k], dst_positions[k]
                    if (send_pos < a and recv_pos > b) or (send_pos > a and recv_pos < b):
                        violations.append({"send": [src, send_pos], "recv": [dst, recv_pos],
                                           "comm": cid, "instance": instance(src, cid, a)})
    return violations


@st.composite
def _p2p_programs(draw):
    """2-4 ranks of random sends, recvs, blocking and non-blocking barriers
    on world or on two communicators, and communicator creations; not
    necessarily runnable. An icoll is no blocking call: it never separates a pair."""
    n = draw(st.integers(2, 4))
    comms = {"a": tuple(range(n)), "b": tuple(draw(st.sets(st.integers(0, n - 1),
                                                           min_size=2, max_size=n)))}
    sc = scenario(n, comms=comms, preamble=False)
    for rank in range(n):
        for i in range(draw(st.integers(0, 12))):
            what = draw(st.sampled_from(["send", "recv", "send", "recv", "coll", "icoll",
                                         "create"]))
            if what in ("coll", "icoll"):
                comm = draw(st.sampled_from([WORLD] + [c for c in comms if rank in comms[c]]))
                sc.programs[rank].append(op_coll(rank, comm=comm) if what == "coll"
                                         else op_icoll(rank, f"q{i}", comm=comm))
            elif what == "create":
                sc.programs[rank].append(Op(rank=rank, op="comm_create",
                                            new_comm=draw(st.sampled_from(sorted(comms)))))
            else:
                peer = draw(st.sampled_from([r for r in range(n) if r != rank]))
                sc.programs[rank].append(Op(rank=rank, op=what, peer=peer,
                                            tag=draw(st.integers(0, 1)),
                                            comm=draw(st.sampled_from([WORLD, "a"])),
                                            data=[1] if what == "send" else None))
    return sc


class TestCrossingLegalityReference:
    @given(_p2p_programs())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_violations_match_the_rescanning_version(self, sc):
        verdict = check_crossing_legality(sc)
        want = _reference_crossing_violations(sc)
        assert verdict.detail["violations"] == want
        assert verdict.passed == (not want)

    def test_the_strategy_finds_violations(self):
        found = []

        @given(_p2p_programs())
        @settings(derandomize=True, max_examples=100, deadline=None)
        def collect(sc):
            found.append(bool(_reference_crossing_violations(sc)))

        collect()
        assert any(found) and not all(found)


class TestSafeState:
    def _result(self):
        sc = generate_workload(17, ranks=5, groups=2, ops=40,
                               nonblocking_ratio=0.3, p2p_ratio=0.2)
        return run(sc, "cc", seed=6, ckpt=("at_step", 60))

    def test_real_snapshot_passes(self):
        result = self._result()
        verdict = check_safe_state(result.snapshot, result.sim.trace)
        assert verdict.passed, verdict.detail

    def test_step_zero_snapshot_vacuously_safe(self):
        sc = scenario(2)
        for r in range(2):
            sc.programs[r].append(op_coll(r))
        result = run(sc, "cc", seed=0, ckpt=("at_step", 0))
        assert check_safe_state(result.snapshot, result.sim.trace).passed

    def test_missing_return_fails_invariant(self):
        # a broadcast where the root returned but a receiver had not must not
        # be a snapshot point; simulate by stripping one return pre-marker
        result = self._result()
        trace = list(result.sim.trace)
        marker = next(i for i, ev in enumerate(trace) if ev["event"] == "safe_state")
        removable = next(i for i, ev in enumerate(trace[:marker])
                         if ev["event"] == "coll_return")
        corrupted = trace[:removable] + trace[removable + 1:]
        verdict = check_safe_state(result.snapshot, corrupted)
        assert not verdict.passed
        assert any("returned only by" in p for p in verdict.detail["problems"])

    def test_incomplete_nonblocking_fails(self):
        result = self._result()
        trace = [ev for ev in result.sim.trace if ev["event"] != "icoll_complete"]
        has_nb = any(ev["event"] == "icoll_init" for ev in result.sim.trace)
        assert has_nb
        verdict = check_safe_state(result.snapshot, trace)
        assert not verdict.passed

    def test_clock_disagreement_fails(self):
        result = self._result()
        snapshot = result.snapshot
        label = next(iter(snapshot.final_targets))
        snapshot.final_targets[label] += 1
        verdict = check_safe_state(snapshot, result.sim.trace)
        assert not verdict.passed
        snapshot.final_targets[label] -= 1

    def test_no_marker_fails(self):
        result = self._result()
        trace = [ev for ev in result.sim.trace if ev["event"] != "safe_state"]
        assert not check_safe_state(result.snapshot, trace).passed

    # One doctored snapshot or trace per rule below, which that rule alone rejects.

    @staticmethod
    def _only_problem(snapshot, trace):
        verdict = check_safe_state(snapshot, trace)
        assert not verdict.passed
        [problem] = verdict.detail["problems"]
        return problem

    @staticmethod
    def _before_marker(trace, rank, event, **detail):
        marker = next(i for i, ev in enumerate(trace) if ev["event"] == "safe_state")
        return trace[:marker] + [{"step": trace[marker]["step"], "rank": rank,
                                  "event": event, "detail": detail}] + trace[marker:]

    def test_rank_left_inside_a_trivial_barrier_fails(self):
        result = self._result()
        trace = self._before_marker(result.sim.trace, 0, "tb_enter", comm="world", instance=99)
        problem = self._only_problem(result.snapshot, trace)
        assert problem == "rank 0 still inside trivial barrier ('world', 99)"

    def test_unmatched_post_fails(self):
        result = self._result()
        trace = self._before_marker(result.sim.trace, 0, "send_post", peer=1, tag=99,
                                    comm="world")
        problem = self._only_problem(result.snapshot, trace)
        assert problem == "send posts unmatched at snapshot: (0, 1, 99, 'world')"

    def test_target_for_a_group_missing_from_a_clock_fails(self):
        result = self._result()
        label = GroupKey((0,), 7).label()
        result.snapshot.final_targets[label] = 1
        problem = self._only_problem(result.snapshot, result.sim.trace)
        assert problem == f"rank 0 SEQ 0 != TARGET 1 for group {{{label}}}"

    def test_clock_entry_for_a_group_missing_from_the_targets_fails(self):
        result = self._result()
        label = GroupKey((0,), 7).label()
        result.snapshot.per_rank[0]["protocol"]["clock"][label] = 1
        problem = self._only_problem(result.snapshot, result.sim.trace)
        assert problem == f"rank 0 group {{{label}}} SEQ 1 missing from targets"

    def test_pending_request_in_snapshot_fails(self):
        result = self._result()
        result.snapshot.per_rank[0]["protocol"]["incomplete_requests"]["q99"] = {
            "state": "pending", "payload": None, "op_index": 0}
        problem = self._only_problem(result.snapshot, result.sim.trace)
        assert problem == "request q99 on rank 0 is pending in snapshot"


class TestReplayEquivalence:
    @staticmethod
    def _verdict(sc, algorithm, seed, placement):
        base = run(sc, algorithm, seed=seed, record=False, checks=False)
        ck = run(sc, algorithm, seed=seed, ckpt=placement, record=False, checks=False)
        return check_replay_equivalence(ck, base.checksums, placement)

    def test_blocking_only_cc(self):
        sc = generate_workload(21, ranks=5, groups=2, ops=40, p2p_ratio=0.2)
        assert self._verdict(sc, "cc", 1, ("at_step", 30)).passed

    def test_nonblocking_heavy_cc(self):
        sc = generate_workload(22, ranks=5, groups=2, ops=40,
                               nonblocking_ratio=0.6)
        assert self._verdict(sc, "cc", 2, ("at_step", 25)).passed

    def test_blocking_2pc_with_aborted_barrier(self):
        sc = generate_workload(23, ranks=4, groups=2, ops=30, p2p_ratio=0.2)
        base = run(sc, "2pc", seed=3, record=False, checks=False).checksums
        found_abort = False
        for step in (5, 9, 13, 17, 21):
            probe = run(sc, "2pc", seed=3, ckpt=("at_step", step))
            assert check_replay_equivalence(probe, base, ("at_step", step)).passed
            if any(row["protocol"]["aborted_barrier_log"]
                   for row in probe.snapshot.per_rank):
                found_abort = True
        assert found_abort, "no placement aborted a barrier; widen the sweep"

    def test_run_without_a_snapshot_fails(self):
        sc = generate_workload(21, ranks=5, groups=2, ops=40, p2p_ratio=0.2)
        base = run(sc, "cc", seed=1, record=False, checks=False)
        verdict = check_replay_equivalence(base, base.checksums, None)
        assert not verdict.passed
        assert verdict.detail == {"problems": ["no snapshot taken"], "placement": "None"}


class TestChecksumFold:
    def test_order_independent(self):
        a = checksum_fold(checksum_fold(0, 3, [1, 2]), 7, [9])
        b = checksum_fold(checksum_fold(0, 7, [9]), 3, [1, 2])
        assert a == b

    def test_sensitive_to_payload_and_position(self):
        assert checksum_fold(0, 3, [1]) != checksum_fold(0, 3, [2])
        assert checksum_fold(0, 3, [1]) != checksum_fold(0, 4, [1])


class TestClockSkew:
    def test_real_cc_trace_within_one(self):
        sc = generate_workload(31, ranks=6, groups=3, ops=60)
        result = run(sc, "cc", seed=4)
        assert check_clock_skew(result.sim.trace).passed

    def test_synthetic_drift_detected(self):
        trace = [
            {"step": 1, "rank": 0, "event": "seq_inc", "detail": {"group": "0,1", "value": 1}},
            {"step": 2, "rank": 0, "event": "seq_inc", "detail": {"group": "0,1", "value": 2}},
        ]
        verdict = check_clock_skew(trace)
        assert not verdict.passed
        assert verdict.detail["spread"] == 2

    def test_nonblocking_groups_exempt(self):
        trace = [
            {"step": 1, "rank": 0, "event": "icoll_init",
             "detail": {"comm": "g", "instance": 0, "kind": "barrier", "request": "q"}},
            {"step": 1, "rank": 0, "event": "seq_inc", "detail": {"group": "0,1", "value": 1}},
            {"step": 2, "rank": 0, "event": "icoll_init",
             "detail": {"comm": "g", "instance": 1, "kind": "barrier", "request": "q2"}},
            {"step": 2, "rank": 0, "event": "seq_inc", "detail": {"group": "0,1", "value": 2}},
        ]
        assert check_clock_skew(trace).passed


def test_verify_imports_neither_driver_nor_cli():
    """verify is imported by driver and cli; an import back, even a late one
    inside a function, would make a cycle."""
    path = pathlib.Path(__file__).resolve().parent.parent / "src" / "ccsim" / "verify.py"
    parts = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                dotted.append(node.module)
            parts.update(part for name in dotted for part in name.split("."))
    assert not parts & {"driver", "cli"}, sorted(parts & {"driver", "cli"})
