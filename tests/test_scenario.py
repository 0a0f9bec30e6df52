"""Scenario format, validation, and the workload generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsim import (
    GenParams,
    GenerationError,
    Op,
    ScenarioProgram,
    ScenarioError,
    builtin_scenario,
    check_crossing_legality,
    generate_workload,
    run,
)

from conftest import op_coll, op_icoll, scenario


class TestFormat:
    def test_jsonl_roundtrip_byte_stable(self):
        sc = generate_workload(3, ranks=5, groups=2, ops=30, p2p_ratio=0.2)
        text = sc.dumps()
        again = ScenarioProgram.loads(text)
        assert again.dumps() == text

    def test_header_required(self):
        with pytest.raises(ScenarioError):
            ScenarioProgram.loads('{"rank": 0, "op": "coll", "kind": "barrier"}')

    @pytest.mark.parametrize("text", [
        '{"type":"scenario","version":1,"world_size":1}\n{"rank": 0, "op": ',
        '{"type":"scenario","version":1}',
        '["scenario"]',
    ], ids=["bad-json-line", "no-world-size", "not-an-object"])
    def test_unreadable_text_rejected(self, text):
        with pytest.raises(ScenarioError):
            ScenarioProgram.loads(text)

    def test_unknown_field_rejected(self):
        sc = scenario(1)
        sc.programs[0].append(op_coll(0))
        lines = sc.dumps().splitlines()
        lines[1] = lines[1].replace('"op"', '"flavor"')
        with pytest.raises(ScenarioError):
            ScenarioProgram.loads("\n".join(lines))

    def test_file_io(self, tmp_path):
        sc = builtin_scenario("fig2")
        path = tmp_path / "fig2.jsonl"
        sc.dump(path)
        assert ScenarioProgram.load(path).dumps() == sc.dumps()


class TestValidation:
    def test_duplicate_members_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioProgram(world_size=3, comms={"g": (1, 1)}).validate()

    def test_member_outside_world_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioProgram(world_size=2, comms={"g": (0, 5)}).validate()

    def test_use_before_create_rejected(self):
        sc = ScenarioProgram(world_size=2, comms={"g": (0, 1)})
        sc.programs[0].append(op_coll(0, comm="g"))
        with pytest.raises(ScenarioError, match="before its comm_create"):
            sc.validate()

    def test_missing_creator_rejected(self):
        sc = ScenarioProgram(world_size=2, comms={"g": (0, 1)})
        sc.programs[0].append(Op(rank=0, op="comm_create", new_comm="g"))
        sc.programs[0].append(op_coll(0, comm="g"))
        with pytest.raises(ScenarioError, match="missing on ranks"):
            sc.validate()

    def test_nonmember_use_rejected(self):
        sc = scenario(3, comms={"g": (0, 1)})
        sc.programs[2].append(op_coll(2, comm="g"))
        with pytest.raises(ScenarioError):
            sc.validate()

    def test_root_must_be_member(self):
        sc = scenario(3, comms={"g": (0, 1)})
        sc.programs[0].append(op_coll(0, comm="g", kind="bcast", root=2, data=[1]))
        with pytest.raises(ScenarioError, match="root"):
            sc.validate()

    def test_request_id_reuse_rejected(self):
        sc = scenario(2)
        sc.programs[0] += [op_icoll(0, "q0"), op_icoll(0, "q0")]
        with pytest.raises(ScenarioError, match="reused"):
            sc.validate()

    def test_wait_on_unknown_request_rejected(self):
        sc = scenario(2)
        sc.programs[0].append(Op(rank=0, op="wait", request_id="nope"))
        with pytest.raises(ScenarioError, match="unknown request"):
            sc.validate()

    def test_self_p2p_rejected(self):
        sc = scenario(2)
        sc.programs[0].append(Op(rank=0, op="send", peer=0, data=[1]))
        with pytest.raises(ScenarioError):
            sc.validate()


class TestGenerator:
    def test_fixed_seed_byte_identical(self):
        a = generate_workload(11, ranks=8, groups=3, ops=60, p2p_ratio=0.3)
        b = generate_workload(11, ranks=8, groups=3, ops=60, p2p_ratio=0.3)
        assert a.dumps() == b.dumps()

    def test_blocking_only_when_ratio_zero(self):
        sc = generate_workload(5, ranks=6, groups=2, ops=50, nonblocking_ratio=0.0)
        assert not any(op.op == "icoll" for op in sc.ops())

    def test_no_p2p_when_ratio_zero(self):
        sc = generate_workload(5, ranks=6, groups=2, ops=50, p2p_ratio=0.0)
        assert not any(op.op in ("send", "recv") for op in sc.ops())

    def test_mixed_workload_is_legal_and_runs(self):
        for seed in range(4):
            sc = generate_workload(seed, ranks=7, groups=3, ops=70,
                                   nonblocking_ratio=0.3, p2p_ratio=0.25)
            assert check_crossing_legality(sc).passed
            result = run(sc, "none", seed=seed, checks=False)
            assert result.sim.all_finished()

    def test_equal_collective_counts_per_group(self):
        sc = generate_workload(13, ranks=6, groups=3, ops=60, nonblocking_ratio=0.2)
        for cid in list(sc.comms) + ["world"]:
            members = sc.comm_members(cid)
            counts = {
                r: sum(1 for op in sc.programs[r]
                       if op.op in ("coll", "icoll") and op.comm == cid)
                for r in members
            }
            assert len(set(counts.values())) == 1, (cid, counts)

    def test_all_requests_eventually_waited(self):
        sc = generate_workload(19, ranks=6, groups=2, ops=80, nonblocking_ratio=0.5)
        for rank, program in enumerate(sc.programs):
            created = {op.request_id for op in program if op.op == "icoll"}
            waited = set()
            for op in program:
                if op.op in ("wait", "test") and op.request_id:
                    waited.add(op.request_id)
                if op.op in ("waitall", "waitany") and op.request_ids:
                    waited.update(op.request_ids)
            assert created <= waited

    def test_p2p_rounds_fenced_by_world_barriers(self):
        sc = generate_workload(23, ranks=8, groups=2, ops=90, p2p_ratio=0.5)
        saw_p2p = False
        for rank, program in enumerate(sc.programs):
            for i, op in enumerate(program):
                if op.op not in ("send", "recv"):
                    continue
                saw_p2p = True
                after = [o for o in program[i + 1:]
                         if o.op in ("coll", "icoll", "comm_create")]
                assert after and after[0].op == "coll" and after[0].comm == "world", \
                    f"rank {rank} op {i} not followed by a world fence"
        assert saw_p2p

    def test_bad_params_rejected(self):
        with pytest.raises(GenerationError):
            GenParams(ranks=0).check()
        with pytest.raises(GenerationError):
            GenParams(ranks=100).check()
        with pytest.raises(GenerationError):
            GenParams(nonblocking_ratio=1.5).check()

    @given(seed=st.integers(0, 2**32), ranks=st.integers(2, 12),
           groups=st.integers(0, 4), ops=st.integers(10, 120),
           nb=st.sampled_from([0.0, 0.25, 0.5]),
           p2p=st.sampled_from([0.0, 0.2, 0.4]))
    @settings(max_examples=60, deadline=None)
    def test_any_parameters_yield_legal_runnable_scenarios(
            self, seed, ranks, groups, ops, nb, p2p):
        sc = generate_workload(seed, ranks=ranks, groups=groups, ops=ops,
                               nonblocking_ratio=nb, p2p_ratio=p2p)
        assert sc.dumps() == generate_workload(
            seed, ranks=ranks, groups=groups, ops=ops,
            nonblocking_ratio=nb, p2p_ratio=p2p).dumps()
        assert check_crossing_legality(sc).passed
        result = run(sc, "none", seed=seed % 1000, record=False, checks=False)
        assert result.sim.all_finished()


class TestBuiltins:
    def test_fig2_shape(self):
        sc = builtin_scenario("fig2")
        assert sc.world_size == 7
        assert sc.comms == {"g12": (1, 2), "g23": (2, 3),
                            "g345": (3, 4, 5), "g56": (5, 6)}
        counts = {}
        for op in sc.ops():
            if op.op == "coll" and op.comm != "world":
                counts[op.comm] = counts.get(op.comm, 0) + 1
        assert counts == {"g12": 10, "g23": 14, "g345": 9, "g56": 8}

    def test_bcast_invariant2_shape(self):
        sc = builtin_scenario("bcast-invariant2")
        assert sc.world_size == 3
        kinds = [op.kind for op in sc.programs[0] if op.op == "coll"]
        assert kinds[0] == "bcast"

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError):
            builtin_scenario("nope")
