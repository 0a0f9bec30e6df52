"""Exhaustive small-instance exploration."""

import contextlib
import hashlib
import math
import random
from collections import deque
from functools import partial

import pytest

import test_acceptance
from ccsim import (
    CheckpointCoordinator,
    InvalidConfigurationError,
    ScenarioProgram,
    SimulationError,
    Simulator,
    explore,
    explore_small,
    make_protocol,
)
from ccsim.clock import GroupKey
from ccsim.explore import CKPT_ACTION, ExplorationResult, _Bundle, _finish_path
from ccsim.runtime import COMPLETE, CONSUMED, PENDING
from ccsim.scenario import Op
from ccsim.verify import Verdict, hb_lists_from_trace

from conftest import op_coll, op_icoll, same_member_set_scenario, scenario


def tiny_two_group():
    sc = scenario(3, comms={"a": (0, 1), "b": (1, 2)})
    sc.programs[0] += [op_coll(0, comm="a"), op_coll(0, comm="a")]
    sc.programs[1] += [op_coll(1, comm="a"), op_coll(1, comm="b"), op_coll(1, comm="a")]
    sc.programs[2] += [op_coll(2, comm="b")]
    return sc


class TestBounds:
    def test_rank_bound_enforced(self):
        sc = scenario(5)
        with pytest.raises(InvalidConfigurationError):
            explore_small(sc)

    def test_event_bound_enforced(self):
        sc = scenario(2)
        sc.programs[0] += [op_coll(0)] * 13
        sc.programs[1] += [op_coll(1)] * 13
        with pytest.raises(InvalidConfigurationError):
            explore_small(sc)

    def test_state_bound_fails_the_paths_past_it(self, monkeypatch):
        monkeypatch.setattr(explore, "MAX_STATES", 2)
        errors = {f["error"] for f in explore_small(tiny_two_group()).failures}
        assert errors == {"exploration exceeded 2 distinct states"}


class TestExhaustiveCc:
    def test_every_branch_declares_and_stays_acyclic(self):
        result = explore_small(tiny_two_group(), algorithm="cc")
        assert result.passed, result.failures[:2]
        assert result.paths > 0
        assert result.rounds_declared == result.paths

    def test_nonblocking_branches_covered(self):
        sc = scenario(2, comms={"g": (0, 1)})
        for r in range(2):
            sc.programs[r] += [op_icoll(r, "q0", comm="g"), op_coll(r),
                               Op(rank=r, op="wait", request_id="q0")]
        result = explore_small(sc, algorithm="cc")
        assert result.passed, result.failures[:2]
        assert result.rounds_declared == result.paths

    def test_p2p_branches_covered(self):
        sc = scenario(3)
        sc.programs[0] += [op_coll(0), Op(rank=0, op="send", peer=1, data=[4]),
                           op_coll(0)]
        sc.programs[1] += [op_coll(1), Op(rank=1, op="recv", peer=0), op_coll(1)]
        sc.programs[2] += [op_coll(2), op_coll(2)]
        result = explore_small(sc, algorithm="cc")
        assert result.passed, result.failures[:2]

    def test_cascade_bound_holds_everywhere(self):
        result = explore_small(tiny_two_group(), algorithm="cc")
        assert result.passed
        assert result.update_bound_worst <= 1.0


class TestExhaustiveTpc:
    def test_every_branch_declares(self):
        result = explore_small(tiny_two_group(), algorithm="2pc")
        assert result.passed, result.failures[:2]
        assert result.rounds_declared == result.paths


class TestNoCheckpoint:
    def test_protocol_without_checkpoints_explores_interleavings_only(self):
        result = explore_small(tiny_two_group(), algorithm="none")
        assert result.passed, result.failures[:2]
        assert result.paths > 0
        assert result.rounds_declared == 0


def unequal_group_counts():
    # rank 0 runs one more collective on the shared group than rank 1
    sc = scenario(2, comms={"g": (0, 1)})
    sc.programs[0] += [op_coll(0, comm="g"), op_coll(0, comm="g")]
    sc.programs[1] += [op_coll(1, comm="g")]
    return sc


class TestFindsRealViolations:
    def test_unequal_group_counts_reported(self):
        # some interleavings deadlock, others trip the finished-below-target
        # check, and exploration must surface them rather than hang
        result = explore_small(unequal_group_counts(), algorithm="cc")
        assert not result.passed
        assert result.failures

    def test_failures_replay_from_their_path(self):
        sc = unequal_group_counts()
        result = explore_small(sc, algorithm="cc")
        assert result.failures
        for failure in result.failures:
            sim = Simulator(sc, make_protocol("cc"))
            sim.coordinator = CheckpointCoordinator(placement=("at_step", math.inf))
            with pytest.raises(SimulationError) as raised:
                for action in failure["path"]:
                    sim.runnable()
                    if action == CKPT_ACTION:
                        sim.coordinator.request_checkpoint(sim)
                    else:
                        sim.step_actor(action)
                sim.runnable()
            assert str(raised.value) == failure["error"]


def item2_reproduction():
    """Unfenced point-to-point next to a barrier on a sub-group (ROADMAP item
    2): some checkpoint placements deadlock under both protocols."""
    sc = scenario(3, comms={"g": (1, 2)}, name="item2")
    sc.programs[0].append(Op(rank=0, op="recv", peer=1))
    sc.programs[1] += [op_coll(1, comm="g"), Op(rank=1, op="send", peer=0, data=[7])]
    sc.programs[2].append(op_coll(2, comm="g"))
    return sc


def data_collectives():
    """Two ranks: a non-blocking allreduce spans a blocking bcast, so forks
    happen while an instance with outputs is still incomplete."""
    sc = scenario(2, name="x-data")
    for r in range(2):
        sc.programs[r] += [
            op_icoll(r, "q0", kind="allreduce", reduce_op="sum", data=[r + 1]),
            op_coll(r, kind="bcast", root=1, data=[7] if r == 1 else None),
            Op(rank=r, op="wait", request_id="q0")]
    return sc


def request_polling():
    """Two ranks poll a barrier and an allreduce with test and waitany, and
    rank 1 computes for two ticks: the ops whose state the pc does not fix."""
    sc = scenario(2, name="x-test")
    for r in range(2):
        sc.programs[r] += [
            op_icoll(r, "q0"),
            op_icoll(r, "q1", kind="allreduce", reduce_op="sum", data=[r]),
            Op(rank=r, op="test", request_id="q0")]
        if r == 1:
            sc.programs[r].append(Op(rank=r, op="compute", ticks=2))
        sc.programs[r] += [op_coll(r), Op(rank=r, op="waitany", request_ids=["q0", "q1"]),
                           Op(rank=r, op="wait", request_id="q1")]
    return sc


def two_world_barriers():
    """Three ranks, each with two world barriers: under 2pc a round aborts
    the trivial barrier that some ranks have entered."""
    sc = scenario(3, name="w2")
    for r in range(3):
        sc.programs[r] += [op_coll(r), op_coll(r)]
    return sc


def criterion5_cases():
    """(algorithm, scenario) for each case of the criterion-5 acceptance test."""
    return test_acceptance.TestCriterion5Exhaustive()._cases()


def criterion5_case(name):
    """The criterion-5 scenario called name."""
    return next(sc for _, sc in criterion5_cases() if sc.name == name)


def replayed(sc, algorithm, path):
    """A fresh runtime driven from the root along path; the coordinator acts
    before each action, and at the end, whenever no rank can step, as on the
    explorer's visit."""
    bundle = _Bundle.root(sc, algorithm)
    for action in path:
        bundle.sim.runnable()
        bundle.apply(action)
    bundle.sim.runnable()
    return bundle


def replay_search(sc, algorithm, per_path_check=None):
    """The explorer before it forked nodes: stateless, VeriSoft-style. Each
    stack entry is an action path, replayed on a fresh runtime from the root.
    Kept here as the oracle of explore_small; ``forks`` counts the paths
    pushed, one per node copy that a search run to its end makes. Each path
    end gets a happens-before memo of its own, so every path runs the check."""
    result, visited, stack = ExplorationResult(), set(), [[]]
    while stack:
        bundle = _Bundle.root(sc, algorithm)
        try:
            for action in stack.pop():
                bundle.sim.runnable()
                bundle.apply(action)
            while True:
                actions = bundle.choices()
                if not actions:
                    _finish_path(result, bundle, per_path_check, {})
                    break
                if len(actions) > 1:
                    key = explore._state_key(bundle)
                    if key in visited:
                        result.dedup_hits += 1
                        break
                    visited.add(key)
                    result.states += 1
                    result.forks += len(actions) - 1
                    stack.extend(bundle.path + [action] for action in actions[1:])
                bundle.apply(actions[0])
        except SimulationError as exc:
            result.failures.append({"path": bundle.path, "error": str(exc)})
            if len(result.failures) > 25:
                return result
    return result


def value(obj):
    """Everything obj holds, as plain data that compares by value: a fork
    must equal a replay in every field, not only in those the state key
    reads. The scenario is shared by every runtime and stands for itself."""
    if obj is None or isinstance(obj, (bool, int, float, str, Op, GroupKey, ScenarioProgram)):
        return obj
    if isinstance(obj, (list, tuple, deque)):
        return [value(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, dict):
        return {key: value(v) for key, v in obj.items()}
    if isinstance(obj, random.Random):
        return obj.getstate()
    fields = getattr(type(obj), "__slots__", None) or vars(obj)
    return (type(obj).__name__,
            {name: getattr(obj, name) if name in _PLAIN else value(getattr(obj, name))
             for name in fields})


_PLAIN = {"trace", "program"}  # lists of plain dicts and of Ops: == compares their values


def _observed(bundle):
    """What a fork and a replay must agree on after continuing: state key,
    trace, checksums, counters and the coordinator's round fields."""
    sim = bundle.sim
    return (explore._state_key(bundle), sim.trace, sim.checksums(),
            sim.counters.to_dict(), value(sim.coordinator))


def _continue_both(fork, replay, action):
    """Apply action to both, then the same first choices up to the next
    branching node or the end: both must get there in the same state, or
    raise the same error."""
    errors = []
    for bundle in (fork, replay):
        try:
            bundle.apply(action)
            while len(actions := bundle.choices()) == 1:
                bundle.apply(actions[0])
        except SimulationError as exc:
            errors.append(str(exc))
    assert len(errors) in (0, 2) and errors[:1] == errors[1:], (fork.path, errors)
    assert fork.path == replay.path
    assert _observed(fork) == _observed(replay), fork.path


class TestFork:
    """Simulator.fork against a fresh runtime replayed along the same path."""

    # Every criterion-5 case, x-world-dup included, is also checked at every
    # branching node and path end against the whole replay search (TestReplayOracle).
    CASES = {"x-same-set": ("cc", same_member_set_scenario),
             "item2/cc": ("cc", item2_reproduction), "item2/2pc": ("2pc", item2_reproduction),
             "unequal/cc": ("cc", unequal_group_counts), "x-data/cc": ("cc", data_collectives),
             "x-test/cc": ("cc", request_polling), "w2/2pc": ("2pc", two_world_barriers)}

    @pytest.mark.parametrize("name", CASES)
    def test_fork_continues_like_a_replay_at_every_branching_node(self, name, monkeypatch):
        algorithm, build = self.CASES[name]
        sc = build()
        checked = set()
        real_fork = _Bundle.fork

        def checked_fork(node):
            path = tuple(node.path)
            if path not in checked:  # the first fork of each branching node
                checked.add(path)
                before, fork = value(node.sim), real_fork(node)
                assert value(fork.sim) == value(replayed(sc, algorithm, path).sim) == before
                actions = fork.choices()
                with contextlib.suppress(SimulationError):
                    fork.apply(actions[0])
                # checked before the fork reads its wake marks: a shared dirty set shows here
                assert value(node.sim) == before, path
                for action in actions:
                    _continue_both(real_fork(node), replayed(sc, algorithm, path), action)
                assert value(node.sim) == before, path  # the forks left it alone
            return real_fork(node)

        monkeypatch.setattr(_Bundle, "fork", checked_fork)
        result = explore_small(sc, algorithm)
        assert len(checked) == result.states > 0

    def test_settled_instances_and_consumed_requests_are_shared(self):
        # Three ranks: a world barrier all return from, then icoll q0, wait q0,
        # icoll q1, a world barrier A and icoll q2. Rank 2 has entered A and
        # not returned; only rank 0 has initiated q2.
        sc = scenario(3, name="x-share")
        for r in range(3):
            sc.programs[r] += [op_coll(r), op_icoll(r, "q0"), Op(rank=r, op="wait", request_id="q0"),
                               op_icoll(r, "q1"), op_coll(r), op_icoll(r, "q2"),
                               Op(rank=r, op="waitall", request_ids=["q1", "q2"])]
        node = replayed(sc, "cc", [0, 1, 2] * 5 + [0, 1, 2, 0, 1, 0])
        sim = node.sim
        settled, returning, initiated = ([sim.instances["world", i] for i in keys]
                                         for keys in ((0, 1, 2), (3,), (4,)))
        assert all(inst.complete for inst in settled) and settled[0].returned == {0, 1, 2}
        assert returning[0].complete and returning[0].returned == {0, 1}
        assert not initiated[0].complete and initiated[0].entered == {0}
        requests = sim.ranks[0].requests
        assert [requests[rid].state for rid in ("q0", "q1", "q2")] == [CONSUMED, COMPLETE, PENDING]
        before = value(sim)
        twin = sim.fork()
        for inst in settled:
            assert twin.instances["world", inst.index] is inst
        for inst in returning + initiated:  # live: entered and not complete, or not yet returned
            assert twin.instances["world", inst.index] is not inst
        assert twin.ranks[2].blocked_ref is twin.instances["world", 3]
        for rank, copy in zip(sim.ranks, twin.ranks):
            assert copy.requests["q0"] is rank.requests["q0"]
            assert copy.requests["q1"] is not rank.requests["q1"]
        assert twin.ranks[0].requests["q2"] is not requests["q2"]
        assert value(twin) == before
        fork, replay = _Bundle(twin, list(node.path)), replayed(sc, "cc", node.path)
        for rank_id in (2, 1, 2):  # rank 2 leaves A; ranks 1 and 2 complete q2
            _continue_both(fork, replay, rank_id)
        assert fork.sim.ranks[0].requests["q2"].state == COMPLETE
        assert value(sim) == before

    def test_aborted_barrier_held_by_two_ranks_stays_one_object(self):
        sc = scenario(3)
        for r in range(3):
            sc.programs[r] += [op_coll(r), op_coll(r)]
        node = _Bundle.root(sc, "2pc")
        for action in (0, 1, CKPT_ACTION):  # ranks 0 and 1 enter the barrier, 2 never does
            node.sim.runnable()
            node.apply(action)
        held = [rank.blocked_ref for rank in node.sim.ranks[:2]]
        assert held[0] is held[1] and held[0].aborted
        assert not node.sim.protocol.tb_instances  # held only by the ranks
        node.sim.runnable()
        before = value(node.sim)
        fork = node.fork()
        twins = [rank.blocked_ref for rank in fork.sim.ranks[:2]]
        assert twins[0] is twins[1] and twins[0] is not held[0]
        assert value(fork.sim) == before
        _continue_both(fork, replayed(sc, "2pc", node.path), 0)  # rank 0 leaves it, stopped
        assert fork.sim.ranks[0].blocked_ref is None and twins[0] is fork.sim.ranks[1].blocked_ref
        assert value(node.sim) == before

    def test_queued_updates_are_copied(self, monkeypatch):
        nodes = []
        real_key = explore._state_key

        def keep(bundle):
            if not nodes and any(st.update_queue for st in bundle.sim.protocol.states):
                nodes.append(bundle.fork())
            return real_key(bundle)

        monkeypatch.setattr(explore, "_state_key", keep)
        explore_small(same_member_set_scenario(), "cc")
        (node,) = nodes
        waiting = next(r for r, st in enumerate(node.sim.protocol.states) if st.update_queue)
        before = value(node.sim)
        fork = node.fork()
        assert fork.sim.protocol.states[waiting].update_queue \
            is not node.sim.protocol.states[waiting].update_queue
        assert value(fork.sim) == before
        _continue_both(fork, replayed(same_member_set_scenario(), "cc", node.path), waiting)
        assert not fork.sim.protocol.states[waiting].update_queue  # applied in the fork
        assert value(node.sim) == before

    def test_forked_runs_draw_like_the_original(self):
        sc = criterion5_case("x-world-dup")
        node = replayed(sc, "cc", [0, 1, CKPT_ACTION])
        before = value(node.sim)
        runs = [node.fork().sim.run(), node.fork().sim.run(),
                replayed(sc, "cc", node.path).sim.run()]
        assert value(runs[0]) == value(runs[1]) == value(runs[2])
        assert value(node.sim) == before


class TestNoRngCopy:
    def test_explorer_forks_copy_no_rng_state(self, monkeypatch):
        # The explorer never calls run(), so no runtime it forks has an rng.
        calls = []
        real_getstate = random.Random.getstate

        def counted(rng):
            calls.append(rng)
            return real_getstate(rng)

        monkeypatch.setattr(random.Random, "getstate", counted)
        result = explore_small(criterion5_case("x-mixed"), "cc")
        assert result.passed and result.forks > 0
        assert calls == []


class TestChoices:
    """choices() builds a list of its own to add the checkpoint action: the
    scheduler's ready list, which runnable() returns, is left as it was."""

    @pytest.mark.parametrize("name", ["x-same-set", "item2/cc", "item2/2pc", "x-data/cc"])
    def test_checkpoint_action_stays_out_of_the_ready_list(self, name, monkeypatch):
        algorithm, build = TestFork.CASES[name]
        real_choices = _Bundle.choices
        checked = []

        def choices(bundle):
            actions = real_choices(bundle)
            if actions and actions[-1] == CKPT_ACTION:
                sim = bundle.sim
                ready = sim.enabled_actors()
                assert CKPT_ACTION not in ready, bundle.path
                assert ready == [r.id for r in sim.ranks if sim._enabled(r)] == actions[:-1]
                checked.append(bundle.path)
            return actions

        monkeypatch.setattr(_Bundle, "choices", choices)
        explore_small(build(), algorithm)
        assert checked


class TestPinnedCounts:
    """The search's counts on each small case outside criterion 5 (which pins
    its own). A change to the state key moves explore_small and its replay
    oracle together, so only pinned counts show it."""

    CASES = dict(TestFork.CASES, **{"x-test/cc": ("cc", request_polling),
                                    "w2/2pc": ("2pc", two_world_barriers)})
    COUNTS = {  # (paths, states, forks, dedup_hits)
        "item2/cc": (28, 101, 162, 106), "item2/2pc": (10, 50, 62, 18),
        "unequal/cc": (0, 38, 45, 26), "x-data/cc": (30, 48, 56, 27),
        "x-test/cc": (174, 466, 531, 358), "w2/2pc": (168, 732, 981, 814),
    }
    FAILING = {"item2/cc", "item2/2pc", "unequal/cc"}

    @pytest.mark.parametrize("name", COUNTS)
    def test_search_counts(self, name):
        algorithm, build = self.CASES[name]
        result = explore_small(build(), algorithm)
        assert (result.paths, result.states, result.forks, result.dedup_hits) == self.COUNTS[name]
        assert result.passed == (name not in self.FAILING), result.failures[:2]
        if result.passed:
            assert result.rounds_declared == result.paths
            assert result.update_bound_worst <= 1.0


def whole_state(sim):
    """value(sim) without the path artifacts that dedup may merge: the step
    count, the trace, and the coordinator's round steps and stored snapshot."""
    fields = value(sim)[1]
    del fields["step"], fields["trace"]
    if sim.coordinator is not None:
        coord = fields["coordinator"][1]
        del coord["requested_step"], coord["declared_step"], coord["snapshot"]
    return fields


class TestStateKeyGuard:
    """The state key is complete: two nodes that the search merges under one
    key hold the same whole state, not only the same key."""

    CASES = {"x-groups": ("cc", partial(criterion5_case, "x-groups")),
             "x-same-set": ("cc", same_member_set_scenario),
             "x-world-dup": ("cc", partial(criterion5_case, "x-world-dup")),
             "item2/cc": ("cc", item2_reproduction), "item2/2pc": ("2pc", item2_reproduction),
             "x-test/cc": ("cc", request_polling), "w2/2pc": ("2pc", two_world_barriers)}

    @pytest.mark.parametrize("name", CASES)
    def test_merged_nodes_hold_the_same_state(self, name, monkeypatch):
        algorithm, build = self.CASES[name]
        real_key = explore._state_key
        first, hits = {}, []

        def key(bundle):
            k, state = real_key(bundle), whole_state(bundle.sim)
            if k in first:
                assert state == first[k], (bundle.path, first[k], state)
                hits.append(bundle.path)
            else:
                first[k] = state
            return k

        monkeypatch.setattr(explore, "_state_key", key)
        result = explore_small(build(), algorithm)
        assert len(hits) == result.dedup_hits > 0


def _fingerprint(sim, coordinator):
    """What a path's end shows a per-path check, as comparable data."""
    trace = hashlib.sha256("\n".join(sim.trace_lines()).encode()).hexdigest()
    coord = None if coordinator is None else value(coordinator)
    return trace, sim.checksums(), sim.step, sim.counters.to_dict(), coord


class TestReplayOracle:
    """explore_small against the root-replay search it replaced."""

    @pytest.mark.parametrize("case", range(5), ids=[
        sc.name for _, sc in criterion5_cases()])
    def test_criterion5_case_matches_replay_search(self, case, monkeypatch):
        algorithm, sc = criterion5_cases()[case]
        self._compare(sc, algorithm, monkeypatch)

    @pytest.mark.parametrize("algorithm", ["cc", "2pc"])
    def test_failing_cases_match_replay_search(self, algorithm, monkeypatch):
        result = self._compare(item2_reproduction(), algorithm, monkeypatch)
        assert result.failures
        if algorithm == "cc":
            assert self._compare(unequal_group_counts(), algorithm, monkeypatch).failures

    @staticmethod
    def _compare(sc, algorithm, monkeypatch):
        real_key = explore._state_key
        runs = []
        for search in (explore_small, replay_search):
            nodes, ends = [], []

            def key(bundle):
                nodes.append((tuple(bundle.path), real_key(bundle)))
                return nodes[-1][1]

            monkeypatch.setattr(explore, "_state_key", key)
            result = search(sc, algorithm, lambda sim, coord: ends.append(_fingerprint(sim, coord)))
            runs.append((result, nodes, ends))
        (new, new_nodes, new_ends), (old, old_nodes, old_ends) = runs

        def summary(r):
            return (r.states, r.paths, r.rounds_declared, r.max_depth, r.failures,
                    r.update_bound_worst, r.dedup_hits)

        assert summary(new) == summary(old)
        if len(new.failures) <= 25:  # a search cut at the failure cap leaves nodes unforked
            assert new.forks == old.forks
        assert new_nodes == old_nodes  # every branching node, in the same order
        assert new_ends == old_ends    # every per_path_check call, in the same order
        assert len(new_ends) == new.paths and new.paths + len(new.failures) > 0
        return new


class TestHappensBeforeMemo:
    """explore_small checks happens-before once per distinct per-rank
    (group, num) order, and every path end still gets that order's verdict."""

    @staticmethod
    def _counted(monkeypatch, check):
        orders = []

        def counted(trace, *args):
            orders.append(tuple(map(tuple, hb_lists_from_trace(trace))))
            return check(trace, *args)

        monkeypatch.setattr(explore, "check_hb_acyclic", counted)
        return orders

    @pytest.mark.parametrize("case", range(5), ids=[sc.name for _, sc in criterion5_cases()])
    def test_one_check_per_distinct_order(self, case, monkeypatch):
        algorithm, sc = criterion5_cases()[case]
        orders = self._counted(monkeypatch, explore.check_hb_acyclic)
        result = explore_small(sc, algorithm)
        assert result.passed and result.paths > 1
        # every completed path enters its collectives in program order
        assert len(orders) == len(set(orders)) == 1

    @pytest.mark.parametrize("algorithm", ["cc", "2pc"])
    def test_a_failing_check_fails_every_path_as_unmemoised(self, algorithm, monkeypatch):
        sc = criterion5_case("x-same-set" if algorithm == "cc" else "x-blocking")

        def failing(trace, *args):
            lists = hb_lists_from_trace(trace)
            return Verdict("hb_acyclic", False, {"nodes": sum(map(len, lists)),
                                                 "first": [list(seq[0]) for seq in lists]})

        orders = self._counted(monkeypatch, failing)
        memoised = explore_small(sc, algorithm)
        calls = len(orders)
        unmemoised = replay_search(sc, algorithm)
        assert memoised.failures == unmemoised.failures
        assert memoised.failures[0]["error"].startswith("happens-before cycle: {'nodes'")
        assert calls == len(set(orders)) == 1
        assert len(orders) - calls == unmemoised.paths > 1
