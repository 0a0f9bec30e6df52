"""Scenario format, validation, and the workload generator."""

import copy
import json
import pickle
import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsim import (
    GenerationError,
    Op,
    ScenarioProgram,
    ScenarioError,
    SimulationError,
    Simulator,
    SnapshotImage,
    builtin_scenario,
    check_crossing_legality,
    generate_workload,
    load_scenario,
    restart,
    run,
)
from ccsim.scenario import BUILTIN_SCENARIOS, _json_line, _op_fields

from conftest import (
    drained_request_scenario,
    op_coll,
    op_icoll,
    same_member_set_scenario,
    scenario,
    wide_payload_scenario,
)


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
        '{"type":"scenario","version":1,"world_size":"two"}',
        '{"type":"scenario","version":1,"world_size":2,"comms":[[0,1]]}',
        '{"type":"scenario","version":1,"world_size":2,"comms":{"g":5}}',
        '{"type":"scenario","version":1,"world_size":2}\n{"rank":"0","op":"coll","kind":"barrier"}',
        '{"type":"scenario","version":1,"world_size":1}\n{"op":"compute","ticks":1}',
        '{"type":"scenario","version":1,"world_size":1}\n{"rank":0,"op":"compute","ticks":"3"}',
        '{"type":"scenario","version":1,"world_size":2}\n{"rank":0,"op":"send","peer":1,"data":"ab"}'
        '\n{"rank":1,"op":"recv","peer":0}',
        '{"type":"scenario","version":1,"world_size":1}'
        '\n{"rank":0,"op":"coll","kind":"allreduce","reduce_op":"sum","data":"x"}',
        '{"type":"scenario","version":1,"world_size":1025}',
    ], ids=["bad-json-line", "no-world-size", "not-an-object", "world-size-str",
            "comms-list", "comm-members-int", "op-rank-str", "op-no-rank", "ticks-str",
            "send-data-str", "coll-data-str", "world-size-above-limit"])
    def test_unreadable_text_rejected(self, text):
        with pytest.raises(ScenarioError):
            ScenarioProgram.loads(text)

    @pytest.mark.parametrize("fields, message", [
        ({}, r"scenario field 'world_size' cannot be None"),
        ({"world_size": True}, r"scenario field 'world_size' cannot be True"),
        ({"world_size": 2, "comms": [[0, 1]]}, r"scenario field 'comms' cannot be \[\[0, 1\]\]"),
        ({"world_size": 2, "comms": {"g": 0}}, r"scenario field 'comms' cannot be \{'g': 0\}"),
        ({"world_size": 2, "comms": {"g": [[0], 1]}}, r"communicator g member outside world"),
        ({"world_size": 2, "name": 5}, r"scenario field 'name' cannot be 5"),
        ({"world_size": 2, "meta": []}, r"scenario field 'meta' cannot be \[\]"),
    ], ids=["no-world-size", "world-size-bool", "comms-list", "member-int", "member-list",
            "name-int", "meta-list"])
    def test_header_fault_fails_closed(self, fields, message):
        # The loader checks only what building the scenario needs; validate the rest.
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            ScenarioProgram.loads(json.dumps({"type": "scenario", "version": 1, **fields}))

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_version_that_only_equals_1_rejected(self, version):
        header = '{"type":"scenario","version":%s,"world_size":1}' % version
        with pytest.raises(ScenarioError, match=r"^unsupported scenario version (True|1\.0)$"):
            ScenarioProgram.loads(header)

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

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes('{"type":"scenario","version":1,"world_size":1,"name":"caf\u00e9"}\n'
                         .encode("latin-1"))
        with pytest.raises(ScenarioError, match=r"^scenario file is not UTF-8 text: "):
            ScenarioProgram.load(path)


def _reference_dumps(sc):
    """The scenario encoding spelled out field by field: rank and op always,
    every other field unless None, comm unless "world", tag unless 0; each
    line one json.dumps with sorted keys and compact separators."""
    def line(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    header = {"type": "scenario", "version": 1, "name": sc.name,
              "world_size": sc.world_size,
              "comms": {cid: list(m) for cid, m in sorted(sc.comms.items())}}
    if sc.meta:
        header["meta"] = sc.meta
    lines = [line(header)]
    for op in sc.ops():
        obj = {"rank": op.rank, "op": op.op}
        for f in fields(op):
            value = getattr(op, f.name)
            if f.name in ("rank", "op") or value is None:
                continue
            if (f.name, value) in (("comm", "world"), ("tag", 0)):
                continue
            obj[f.name] = value
        lines.append(line(obj))
    return "\n".join(lines) + "\n"


def _every_field_scenario():
    """Two ranks whose ops between them set every optional op field."""
    sc = scenario(2, comms={"g": (0, 1)})
    for r in range(2):
        sc.programs[r] += [
            Op(rank=r, op="icoll", comm="g", kind="bcast", root=0,
               data=[5] if r == 0 else [], request_id="q0"),
            Op(rank=r, op="icoll", kind="allreduce", reduce_op="max", data=[r], request_id="q1"),
            Op(rank=r, op="waitall", request_ids=["q0", "q1"]),
            Op(rank=r, op="compute", ticks=3),
            Op(rank=r, op="send", peer=1 - r, tag=4, data=[]) if r == 0
            else Op(rank=r, op="recv", peer=0, tag=4),
            Op(rank=r, op="coll", comm="world", kind="barrier", tag=0),
        ]
    sc.validate()
    return sc


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)
_OP_KEYS = [f.name for f in fields(Op)] + ["type", "flavor"]
_OP_VALUES = (st.none() | st.booleans() | st.integers(-1, 3) | st.text(max_size=2)
              | st.lists(st.integers(0, 2) | st.text(max_size=1), max_size=2))


class TestCodec:
    @given(seed=st.integers(0, 2**32), ranks=st.integers(1, 12),
           groups=st.integers(0, 4), ops=st.integers(1, 120),
           nb=st.sampled_from([0.0, 0.25, 0.5]),
           p2p=st.sampled_from([0.0, 0.2, 0.4]))
    @settings(max_examples=40, deadline=None)
    def test_generated_dumps_match_reference_encoding(self, seed, ranks, groups, ops, nb, p2p):
        sc = generate_workload(seed, ranks=ranks, groups=groups, ops=ops,
                               nonblocking_ratio=nb, p2p_ratio=p2p)
        text = sc.dumps()
        assert text == _reference_dumps(sc)
        assert ScenarioProgram.loads(text) == sc

    @pytest.mark.parametrize("make", [
        _every_field_scenario, *(partial(builtin_scenario, name) for name in BUILTIN_SCENARIOS),
        drained_request_scenario, same_member_set_scenario,
        partial(wide_payload_scenario, "allreduce"), partial(wide_payload_scenario, "bcast"),
    ], ids=["every-field", *BUILTIN_SCENARIOS, "drained-request", "same-member-set",
            "wide-allreduce", "wide-bcast"])
    def test_built_dumps_match_reference_encoding(self, make):
        sc = make()
        sc.validate()
        text = sc.dumps()
        assert text == _reference_dumps(sc)
        assert ScenarioProgram.loads(text) == sc

    def test_every_optional_field_is_written(self):
        keys = set()
        for line in _every_field_scenario().dumps().splitlines()[1:]:
            keys |= json.loads(line).keys()
        assert keys == {f.name for f in fields(Op)}

    @pytest.mark.parametrize("line, field", [
        ('{"rank":0,"op":"compute","ticks":1,"flavor":1}', "flavor"),
        ('{"op":"compute","ticks":1}', "rank"),
        ('{"rank":0,"ticks":1}', "op"),
        ('{"rank":0,"op":"compute","ticks":1,"comm":null}', "comm"),
        ('{"rank":0,"op":"compute","ticks":1,"tag":null}', "tag"),
        ('{"rank":true,"op":"compute","ticks":1}', "rank"),
        ('{"rank":0,"op":"compute","ticks":1,"data":[1,"2"]}', "data"),
        ('{"rank":0,"op":"waitall","request_ids":["q0",1]}', "request_ids"),
    ], ids=["unknown-key", "no-rank", "no-op", "comm-null", "tag-null", "rank-bool",
            "data-str-element", "request-ids-int-element"])
    def test_single_fault_names_its_field(self, line, field):
        if field in ("comm", "tag", "data", "request_ids"):  # typed by validate alone
            _op_fields(json.loads(line), set())
        else:
            with pytest.raises(ScenarioError, match=f"'{field}'"):
                _op_fields(json.loads(line), set())
        with pytest.raises(ScenarioError, match=f"^line 2: .*'{field}'"):
            ScenarioProgram.loads('{"type":"scenario","version":1,"world_size":1}\n' + line)

    @pytest.mark.parametrize("obj", [
        {"type": "op", "rank": 0, "op": "compute", "ticks": 2, "comm": "world"},
        {"rank": 0, "op": "coll", "kind": "barrier"},
        {"type": "op", "rank": 0, "op": "compute", "ticks": "2"},
    ], ids=["with-type", "plain", "bad-ticks"])
    def test_from_json_obj_leaves_its_argument_unchanged(self, obj):
        before = copy.deepcopy(obj)
        try:
            _op_fields(obj, set())
        except ScenarioError:
            pass
        assert obj == before and list(obj) == list(before)

    @given(line=st.text(max_size=30) | st.builds(
        lambda value, pad: pad[0] + json.dumps(value) + pad[1], _JSON_VALUES,
        st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " ", "}", "x"]))))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_line_reader_matches_json_loads(self, line):
        try:
            want = json.loads(line)
        except json.JSONDecodeError as exc:
            want = ScenarioError(f"scenario line is not valid JSON: {exc}")
        else:
            if not isinstance(want, dict):
                want = ScenarioError("scenario line is not a JSON object")
        try:
            got = _json_line(line)
        except ScenarioError as exc:
            got = exc
        if isinstance(want, ScenarioError):
            assert isinstance(got, ScenarioError) and str(got) == str(want)
        else:  # dumps compares NaNs and key order too
            assert json.dumps(got) == json.dumps(want)

    @given(obj=st.dictionaries(st.sampled_from(_OP_KEYS), _OP_VALUES, max_size=5)
           | st.fixed_dictionaries({"rank": st.integers(0, 3), "op": st.sampled_from(["coll", "x"])},
                                   optional=dict.fromkeys(_OP_KEYS[2:], _OP_VALUES)))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_op_reader_is_the_same_before_and_after_it_knows_a_key_order(self, obj):
        def outcome(shapes):
            try:
                return Op(*_op_fields(obj, shapes))
            except ScenarioError as exc:
                return str(exc)

        shapes = set()
        cold = outcome(shapes)
        assert outcome(shapes) == cold and outcome(set()) == cold
        if isinstance(cold, Op):
            assert cold == Op(**{k: v for k, v in obj.items() if k != "type"})

    def test_op_errors_name_their_line(self):
        text = ('\n{"type":"scenario","version":1,"world_size":2}\n\n'
                '{"rank":0,"op":"compute","ticks":1}\n  \n'
                '{"rank":1,"op":"compute","ticks":"3"}\n')
        with pytest.raises(ScenarioError, match=r"^line 6: compute needs int ticks >= 1, not '3'$"):
            ScenarioProgram.loads(text)
        with pytest.raises(ScenarioError, match=r"^line 4: op rank 5 outside world of 2$"):
            ScenarioProgram.loads(text.replace('"rank":0', '"rank":5'))
        with pytest.raises(ScenarioError, match=r"^line 4: scenario line is not valid JSON"):
            ScenarioProgram.loads(text.replace('"rank":0', '"rank":'))

    def test_repeated_lines_load_as_ops_of_their_own(self):
        # The reader decodes a repeated line once; each pc still gets its own
        # op, with the facts of that pc.
        sc = scenario(2, comms={"g": (0, 1)})
        for r in range(2):
            sc.programs[r] += [op_coll(r, comm="g", data=[5]), op_coll(r, comm="g", data=[5]),
                               Op(rank=r, op="compute", ticks=2),
                               Op(rank=r, op="compute", ticks=2)]
        sc.validate()
        text = sc.dumps()
        assert len(set(text.splitlines())) < len(text.splitlines())
        loaded = ScenarioProgram.loads(text)
        assert loaded == sc and loaded.dumps() == text
        for program in loaded.programs:
            assert len(set(map(id, program))) == len(program)
            assert [(op.instance, op.num) for op in program] == [
                (0, 1), (0, 1), (1, 2), (None, None), (None, None)]

    def test_an_error_at_a_repeated_line_names_that_line(self):
        text = ('{"type":"scenario","version":1,"world_size":2}\n'
                '{"rank":0,"op":"icoll","kind":"barrier","request_id":"q"}\n\n'
                '{"rank":1,"op":"icoll","kind":"barrier","request_id":"q"}\n'
                '{"rank":0,"op":"icoll","kind":"barrier","request_id":"q"}\n')
        with pytest.raises(ScenarioError, match=r"^line 5: request id q reused on rank 0$"):
            ScenarioProgram.loads(text)

    def test_every_wrongly_typed_op_field_names_its_line(self):
        # The reader checks field names and rank; validate types every other
        # field, and loads names the line of the op it rejected.
        lines = generate_workload(4, ranks=4, groups=2, ops=20, nonblocking_ratio=0.3,
                                  p2p_ratio=0.2).dumps().splitlines()
        cases = 0
        for number, line in enumerate(lines[1:], 2):
            obj = json.loads(line)
            for name, value in obj.items():
                for wrong in (True, 1.5, 7, "x", [], {}):
                    if type(wrong) is type(value):
                        continue
                    mutated = [*lines]
                    mutated[number - 1] = json.dumps({**obj, name: wrong})
                    with pytest.raises(ScenarioError) as exc:
                        ScenarioProgram.loads("\n".join(mutated))
                    assert str(exc.value).startswith(f"line {number}: ")
                    cases += 1
        assert cases > 500


def _pair(ops):
    """A two-rank scenario; ``ops(r)`` is the list of rank r's ops."""
    sc = scenario(2)
    for r in range(2):
        sc.programs[r] += ops(r)
    return sc


# (field the error names, build(value), a value that validates but does not
# load back equal, a value that round-trips)
ROUND_TRIP_FAULTS = [
    ("name", lambda v: ScenarioProgram(world_size=2, name=v), 5, "5"),
    ("world_size", lambda v: ScenarioProgram(world_size=v), True, 1),
    ("world_size", lambda v: ScenarioProgram(world_size=v), 1025, 1024),
    # the writer writes the ops of every program, and the reader files each
    # op under its rank: a program past the world loads back as no program
    ("programs", lambda v: ScenarioProgram(world_size=2, programs=v), [[], [], []], [[], []]),
    ("programs", lambda v: ScenarioProgram(world_size=2, programs=v),
     [[], [], [Op(rank=2, op="compute", ticks=1)]], [[], [Op(rank=1, op="compute", ticks=1)]]),
    ("meta", lambda v: ScenarioProgram(world_size=2, meta=v), {1: "x"}, {"1": "x"}),
    ("meta", lambda v: ScenarioProgram(world_size=2, meta=v), {"a": {2: 3}}, {"a": {"2": 3}}),
    ("meta", lambda v: ScenarioProgram(world_size=2, meta=v), {"a": [{2: 3}]},
     {"a": [{"2": 3}]}),
    ("meta", lambda v: ScenarioProgram(world_size=2, meta=v), {"a": float("nan")}, {"a": 0.5}),
    ("meta", lambda v: ScenarioProgram(world_size=2, meta=v), {"a": float("inf")}, {"a": 1e308}),
    ("meta", lambda v: ScenarioProgram(world_size=2, meta=v), {"a": [float("-inf")]},
     {"a": [-1e308]}),
    ("meta", lambda v: ScenarioProgram(world_size=2, meta=v), {"a": {1, 2}}, {"a": [1, 2]}),
    ("meta", lambda v: ScenarioProgram(world_size=2, meta=v), {"a": b"x"}, {"a": "x"}),
    ("meta", lambda v: ScenarioProgram(world_size=2, meta=v), {"a": 1j}, {"a": None}),
    ("communicator id", lambda v: ScenarioProgram(world_size=2, comms={v: (0, 1)}), 5, "5"),
    ("rank", lambda v: _pair(lambda r: [op_coll(v if r else 0)]), True, 1),
    ("peer", lambda v: _pair(lambda r: [Op(rank=0, op="send", peer=v, data=[1]) if r == 0
                                        else Op(rank=1, op="recv", peer=0)]), True, 1),
    ("root", lambda v: _pair(lambda r: [op_coll(r, kind="bcast", root=v,
                                                data=[1] if r else None)]), True, 1),
    ("ticks", lambda v: _pair(lambda r: [Op(rank=r, op="compute", ticks=v)]), 1.5, 2),
    ("ticks", lambda v: _pair(lambda r: [Op(rank=r, op="compute", ticks=v)]), True, 1),
    ("request_id", lambda v: _pair(lambda r: [op_icoll(r, v), Op(rank=r, op="wait",
                                                                 request_id=v)]), 5, "5"),
    ("request_ids", lambda v: _pair(lambda r: [op_icoll(r, "q0"), Op(rank=r, op="waitall",
                                                                     request_ids=v)]),
     ("q0",), ["q0"]),
    # a list in a field that validate's dict and set lookups hash raised a bare TypeError
    ("comm", lambda v: _pair(lambda r: [op_coll(r, comm=v)]), ["world"], "world"),
    ("comm", lambda v: _pair(lambda r: [Op(rank=0, op="send", peer=1, data=[1], comm=v) if r == 0
                                        else Op(rank=1, op="recv", peer=0, comm=v)]),
     ["world"], "world"),
    ("new_comm", lambda v: ScenarioProgram(world_size=2, comms={"x": (0, 1)}, programs=[
        [Op(rank=r, op="comm_create", new_comm=v)] for r in range(2)]), ["x"], "x"),
    ("request_id", lambda v: _pair(lambda r: [op_icoll(r, "q0"), Op(rank=r, op="wait",
                                                                    request_id=v)]),
     ["q0"], "q0"),
    ("request_ids", lambda v: _pair(lambda r: [op_icoll(r, "q0"), Op(rank=r, op="waitany",
                                                                     request_ids=v)]),
     [["q0"]], ["q0"]),
    # fields the op's kind leaves unused are written and loaded too
    ("peer", lambda v: _pair(lambda r: [Op(rank=r, op="compute", ticks=1, peer=v)]), True, 3),
    ("new_comm", lambda v: _pair(lambda r: [Op(rank=r, op="compute", ticks=1, new_comm=v)]),
     5, "x"),
    ("comm", lambda v: _pair(lambda r: [Op(rank=r, op="compute", ticks=1, comm=v)]), 5, "x"),
    ("request_ids", lambda v: _pair(lambda r: [Op(rank=r, op="compute", ticks=1,
                                                  request_ids=v)]), [1], ["q0"]),
    ("reduce_op", lambda v: _pair(lambda r: [op_coll(r, reduce_op=v)]), 5, "sum"),
    ("root", lambda v: _pair(lambda r: [op_coll(r, kind="allreduce", reduce_op="sum",
                                                root=v, data=[r])]), True, 1),
]


def _case_ids(cases):
    """``field-bad`` per case; a repeated id gets its ordinal appended."""
    seen, ids = Counter(), []
    for case in cases:
        base = f"{case[0]}-{case[2]!r}"
        seen[base] += 1
        ids.append(base if seen[base] == 1 else f"{base}-{seen[base]}")
    return ids


class TestValidation:
    def test_duplicate_members_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioProgram(world_size=3, comms={"g": (1, 1)}).validate()

    def test_member_outside_world_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioProgram(world_size=2, comms={"g": (0, 5)}).validate()

    def test_unhashable_member_rejected(self):
        # The member type check runs before the duplicate check hashes members.
        with pytest.raises(ScenarioError, match="^communicator g member outside world$"):
            ScenarioProgram(world_size=2, comms={"g": ([0], 1)}).validate()

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

    def test_nonmember_local_op_on_communicator_rejected(self):
        # compute names no members, so only the per-communicator user check sees it
        sc = scenario(3, comms={"g": (0, 1)})
        sc.programs[2].append(Op(rank=2, op="compute", comm="g", ticks=1))
        with pytest.raises(ScenarioError, match=r"non-members use communicator g: \[2\]"):
            sc.validate()
        sc = scenario(3, comms={"g": (0, 1)}, preamble=False)
        sc.programs[2].append(Op(rank=2, op="compute", comm="g", ticks=1))
        with pytest.raises(ScenarioError, match="communicator g used but never created"):
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

    @pytest.mark.parametrize("op", ["send", "recv"])
    def test_p2p_peer_must_be_a_member_of_the_communicator(self, op):
        sc = scenario(3, comms={"g": (0, 1)})
        sc.programs[0].append(Op(rank=0, op=op, comm="g", peer=2, data=[1]))
        with pytest.raises(ScenarioError, match=rf"^{op} peer 2 not in g$"):
            sc.validate()

    # well-typed loaded ops that only validate's structural rules reject: an
    # op's error names its line, a scenario-level error keeps its text
    @pytest.mark.parametrize("comms, ops, message", [
        ({}, ['{"rank":0,"op":"comm_create","new_comm":"zz"}'],
         "line 2: comm_create of undeclared 'zz'"),
        ({"g": [0, 1]}, ['{"rank":%d,"op":"comm_create","new_comm":"g","comm":"g"}' % r
                         for r in range(2)],
         "line 2: comm_create is only supported with parent 'world'"),
        ({}, ['{"rank":0,"op":"send","peer":1}', '{"rank":1,"op":"recv","peer":0}'],
         "line 2: send needs data"),
        ({}, ['{"rank":0,"op":"waitall","request_ids":["q9"]}'],
         "line 2: waitall on unknown request 'q9'"),
        ({}, ['{"rank":0,"op":"coll","kind":"barrier","comm":"nope"}'],
         "line 2: op on undeclared communicator 'nope'"),
        ({"g": []}, [], "communicator g has no members"),
    ], ids=["create-undeclared", "create-from-non-world", "send-without-data",
            "waitall-unknown-request", "undeclared-communicator", "empty-communicator"])
    def test_loaded_scenario_breaking_a_structural_rule_rejected(self, comms, ops, message):
        header = json.dumps({"type": "scenario", "version": 1, "world_size": 2, "comms": comms})
        with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}$"):
            ScenarioProgram.loads("\n".join([header, *ops]))

    @pytest.mark.parametrize("field, make, bad, good", ROUND_TRIP_FAULTS,
                             ids=_case_ids(ROUND_TRIP_FAULTS))
    def test_what_the_writer_cannot_round_trip_is_rejected(self, field, make, bad, good):
        sc = make(good)
        sc.validate()
        assert ScenarioProgram.loads(sc.dumps()) == sc
        with pytest.raises(ScenarioError, match=rf"\b{re.escape(field)}\b"):
            make(bad).validate()

    def test_meta_reproductions_fail_validate_not_the_round_trip(self):
        # A NaN used to validate and load back unequal (NaN != NaN); a set
        # used to validate and then make dumps raise TypeError.
        for bad in (float("nan"), {1}):
            sc = ScenarioProgram(world_size=2, meta={"x": bad})
            with pytest.raises(ScenarioError, match=r"^scenario field 'meta' cannot be "):
                sc.validate()
            assert not sc.frozen

    @pytest.mark.parametrize("data", [[1.5], [True], ["x"], (1,)],
                             ids=["float", "bool", "str", "tuple"])
    @pytest.mark.parametrize("shape", ["allreduce", "send"])
    def test_payload_is_a_list_of_ints(self, shape, data):
        def build():
            sc = scenario(2)
            if shape == "allreduce":
                for r in range(2):
                    sc.programs[r].append(op_coll(r, kind="allreduce", reduce_op="sum",
                                                  data=data))
            else:
                sc.programs[0].append(Op(rank=0, op="send", peer=1, data=data))
                sc.programs[1].append(Op(rank=1, op="recv", peer=0))
            return sc

        message = rf"^op field 'data' cannot be {re.escape(repr(data))}$"
        with pytest.raises(ScenarioError, match=message):
            build().validate()
        with pytest.raises(ScenarioError, match=message):
            run(build(), "none", seed=0)

    @pytest.mark.parametrize("tag", [False, 0.0, "0"])
    def test_tag_is_an_int(self, tag):
        sc = scenario(2)
        sc.programs[0].append(Op(rank=0, op="send", peer=1, tag=tag, data=[1]))
        sc.programs[1].append(Op(rank=1, op="recv", peer=0, tag=tag))
        with pytest.raises(ScenarioError, match=rf"^op field 'tag' cannot be {tag!r}$"):
            sc.validate()


def _count_checks(monkeypatch):
    """Count calls of ``validate`` and of its per-op check from now on."""
    calls = {"validate": 0, "op": 0}
    validate, validate_op = ScenarioProgram.validate, ScenarioProgram._validate_op

    def counted_validate(self):
        calls["validate"] += 1
        return validate(self)

    def counted_op(self, *args):
        calls["op"] += 1
        return validate_op(self, *args)

    monkeypatch.setattr(ScenarioProgram, "validate", counted_validate)
    monkeypatch.setattr(ScenarioProgram, "_validate_op", counted_op)
    return calls


class TestFrozen:
    def test_validate_freezes(self):
        sc = generate_workload(4, ranks=4, groups=2, ops=30, nonblocking_ratio=0.25)
        assert sc.frozen and type(sc.programs) is tuple
        assert all(type(p) is tuple for p in sc.programs)
        with pytest.raises(AttributeError):
            sc.programs[0].append(op_coll(0))
        with pytest.raises(TypeError):
            sc.programs[0] += (op_coll(0),)
        for name, value in (("programs", []), ("name", "x"), ("comms", {}),
                            ("meta", {}), ("world_size", 9), ("frozen", False)):
            with pytest.raises(FrozenInstanceError):
                setattr(sc, name, value)
        with pytest.raises(TypeError):
            sc.comms["g"] = (0, 1)
        with pytest.raises(TypeError):
            sc.meta["seed"] = 5
        with pytest.raises(TypeError):
            sc.meta["params"]["ops"] = 1
        with pytest.raises(TypeError):
            sc.meta["params"].update(ops=1)
        with pytest.raises(TypeError):
            del sc.comms[next(iter(sc.comms))]
        assert sc.frozen and sc.name == "gen-4" and sc.meta["params"]["ops"] == 30
        for op in sc.ops():
            assert type(op.data) in (tuple, type(None))
            for name in [f.name for f in fields(Op)] + ["instance", "num"]:
                with pytest.raises(FrozenInstanceError):
                    setattr(op, name, getattr(op, name))
        with pytest.raises(AttributeError):
            next(op for op in sc.ops() if op.data).data.append(1)

    def test_copies_and_pickles_stay_frozen(self):
        sc = builtin_scenario("fig2")
        for twin in (copy.deepcopy(sc), pickle.loads(pickle.dumps(sc))):
            assert twin == sc and twin.dumps() == sc.dumps()
            op = twin.programs[1][5]
            assert (op.instance, op.num) == (1, 2) and type(op.data) is tuple
            with pytest.raises(FrozenInstanceError):
                op.tag = 1

    def test_an_op_at_two_positions_takes_each_positions_facts(self):
        op = op_coll(0)
        first = scenario(2)
        first.programs[0] += [op, op]
        first.programs[1] += [op_coll(1), op_coll(1)]
        first.validate()
        assert [(o.instance, o.num) for o in first.programs[0]] == [(0, 1), (1, 2)]
        second = scenario(2)
        second.programs[0].append(first.programs[0][1])  # instance 1 there, 0 here
        second.programs[1].append(op_coll(1))
        second.validate()
        assert (second.programs[0][0].instance, second.programs[0][0].num) == (0, 1)
        assert first.programs[0][1].instance == 1 and second.programs[0][0] == first.programs[0][1]
        assert run(second, "none", seed=0).sim.all_finished()

    def test_loaded_meta_is_frozen_and_dumps_the_same(self):
        text = ('{"comms":{},"meta":{"tags":[1,[2,3]],"x":{"y":[4]}},"name":"m",'
                '"type":"scenario","version":1,"world_size":1}\n'
                '{"op":"compute","rank":0,"ticks":2}\n')
        sc = ScenarioProgram.loads(text)
        assert sc.frozen and sc.meta == {"tags": (1, (2, 3)), "x": {"y": (4,)}}
        with pytest.raises(AttributeError):
            sc.meta["tags"].append(5)
        with pytest.raises(TypeError):
            sc.meta["x"]["y"] = 1
        assert sc.dumps() == text == _reference_dumps(sc)

    def test_builders_append_before_validate(self):
        sc = scenario(2)
        sc.programs[0].append(op_coll(0))
        first = sc.dumps()
        sc.programs[1].append(op_coll(1))
        sc.name = "built"
        assert not sc.frozen and sc.dumps() != first  # no text kept before freezing
        sc.validate()
        assert sc.frozen and sc.dumps() == _reference_dumps(sc)

    def test_failed_validation_leaves_the_scenario_open(self):
        sc = scenario(2)
        sc.programs[0].append(Op(rank=0, op="wait", request_id="q0"))
        with pytest.raises(ScenarioError):
            sc.validate()
        assert not sc.frozen and type(sc.programs[0]) is list
        sc.programs[0][:] = [op_coll(0)]
        sc.programs[1].append(op_coll(1))
        sc.validate()
        assert sc.frozen

    @pytest.mark.parametrize("make", [_every_field_scenario, lambda: builtin_scenario("fig2"),
                                      lambda: generate_workload(8, ranks=6, groups=3, ops=50,
                                                                p2p_ratio=0.2)],
                             ids=["every-field", "fig2", "generated"])
    def test_second_dumps_is_the_reference_encoding(self, make):
        sc = make()
        first = sc.dumps()
        assert sc.dumps() is first
        assert first == _reference_dumps(sc)

    def test_simulator_and_restart_skip_the_check(self, monkeypatch):
        sc = generate_workload(6, ranks=4, groups=1, ops=24)
        image = run(sc, "cc", seed=2, ckpt=("at_step", 20)).snapshot
        loaded = SnapshotImage.loads(image.dumps())
        calls = _count_checks(monkeypatch)
        sim = Simulator(sc)
        assert all(rank.program is sc.programs[rank.id] for rank in sim.ranks)
        restart(image).run()
        restart(loaded).run()
        assert calls == {"validate": 0, "op": 0}
        sc.validate()  # returns at once
        assert calls == {"validate": 1, "op": 0}
        fresh = scenario(2)
        for r in range(2):
            fresh.programs[r].append(op_coll(r))
        Simulator(fresh)
        Simulator(fresh)
        assert calls == {"validate": 2, "op": 2} and fresh.frozen

    def test_simulator_still_rejects_an_illegal_scenario(self):
        def illegal():
            sc = scenario(3, comms={"g": (0, 1)})
            sc.programs[2].append(op_coll(2, comm="g"))
            return sc

        with pytest.raises(ScenarioError) as direct:
            illegal().validate()
        with pytest.raises(ScenarioError) as via_simulator:
            Simulator(illegal())
        assert str(via_simulator.value) == str(direct.value)


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
            generate_workload(0, ranks=0)
        with pytest.raises(GenerationError):
            generate_workload(0, ranks=100)
        with pytest.raises(GenerationError):
            generate_workload(0, nonblocking_ratio=1.5)

    def test_zero_ops_rejected(self):
        with pytest.raises(GenerationError, match=r"^groups must be >= 0 and ops >= 1$"):
            generate_workload(0, ops=0)

    def test_illegal_output_fails_closed(self, monkeypatch):
        from ccsim import scenario as scenario_module

        build = scenario_module._build_workload

        def with_unknown_wait(*args):
            sc = build(*args)
            sc.programs[0].append(Op(rank=0, op="wait", request_id="nope"))
            return sc

        monkeypatch.setattr(scenario_module, "_build_workload", with_unknown_wait)
        with pytest.raises(GenerationError, match="gen-5 is illegal") as raised:
            generate_workload(5, ranks=4, ops=20)
        assert isinstance(raised.value.__cause__, ScenarioError)

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

    def test_spec_that_is_no_name_path_or_program_rejected(self):
        with pytest.raises(SimulationError, match=r"^cannot interpret scenario spec 42$"):
            load_scenario(42)
