"""Scenario programs: the operation streams that drive the simulator.

A scenario is a world size, a table of declared sub-communicators, and one
operation list per rank. The on-disk form is JSON lines: a single header line
followed by one op per line, rank-major, so a fixed scenario always serializes
to identical bytes.

A builder appends ops to the per-rank lists, then calls ``validate``. A
scenario that passes is frozen: it becomes a ``FrozenScenario``, its programs
tuples of ``FrozenOp``s, its ``comms`` and ``meta`` read-only mappings, and
any later attribute assignment to it or to an op raises. So it never changes:
runtimes, snapshots and forks share it without another check or copy.
"""

from __future__ import annotations

import json
import math
import operator
import random
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field, fields

from .clock import GroupKey
from .errors import GenerationError, ScenarioError

SCENARIO_VERSION = 1
WORLD = "world"
# The largest world ``validate`` accepts. The loader checks it first, as it
# builds one program list per rank before it reads any op.
MAX_WORLD_SIZE = 1024

COLLECTIVE_KINDS = ("barrier", "bcast", "reduce", "allreduce", "gather", "alltoall")
REDUCE_OPS = ("sum", "max")

# Generator mix constants.
COMPUTE_RATIO = 0.15
MAX_GROUP_SIZE = 5

# Scheduler seed under which the built-in scenarios were validated to hit
# their checkpoint trigger window. Runs are reproducible, so one verified
# seed stays verified.
FIG2_SEED = 11
BCAST_INV2_SEED = 3


class _PcFacts:
    __slots__ = ("instance", "num")  # not dataclass fields: the codec and fields(Op) skip them


@dataclass(slots=True)
class Op(_PcFacts):
    """One operation in a rank's program. ``validate`` makes it a ``FrozenOp``
    and sets two facts its rank and pc fix, None where they do not apply:
    ``instance``, its call index on ``comm`` among coll, icoll and comm_create
    calls, and ``num``, a blocking call's 1-based ``coll_enter`` number."""

    rank: int
    op: str
    comm: str = WORLD
    kind: str | None = None
    root: int | None = None
    reduce_op: str | None = None
    peer: int | None = None
    tag: int = 0
    data: list | None = None
    request_id: str | None = None
    request_ids: list | None = None
    ticks: int | None = None
    new_comm: str | None = None

    def to_json_obj(self) -> dict:
        """The op's line: each field that differs from the default the reader fills in."""
        obj = {"rank": self.rank, "op": self.op}
        for (name, default), value in zip(_OP_DEFAULTS.items(), _optional_values(self)):
            if value != default:
                obj[name] = value
        return obj


# The codec's tables, built once. JSON type of each op field; a pair is a
# list of that element type.
_OP_FIELD_TYPES = {
    "rank": int, "op": str, "comm": str, "kind": str, "root": int, "reduce_op": str,
    "peer": int, "tag": int, "data": (list, int), "request_id": str,
    "request_ids": (list, str), "ticks": int, "new_comm": str,
}
_OP_REQUIRED = ("rank", "op")
_OP_OPTIONAL = tuple(f.name for f in fields(Op) if f.name not in _OP_REQUIRED)
_optional_values = operator.attrgetter(*_OP_OPTIONAL)
_OP_DEFAULTS = dict(zip(_OP_OPTIONAL, _optional_values(Op(rank=0, op="compute"))))
_field_items = operator.itemgetter(*_OP_REQUIRED, *_OP_OPTIONAL)
# The one encoder of every exact output (scenario and trace lines, snapshots,
# metrics, verdicts): sorted keys and compact separators, so a fixed value
# always serializes to identical bytes.
encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_scan_once = json.JSONDecoder().scan_once


def _op_fields(obj: dict, shapes: set) -> tuple:
    """The fields, in ``Op`` order, of the op of one decoded line: its field
    names and its int ``rank`` checked, every other field left to
    ``validate``. ``shapes`` holds each key order that has passed the name
    checks; they read only the keys, so ``loads`` passes one set per text and
    runs them once per key order. ``Op(*fields)`` builds the op at a quarter
    of the cost of keywords."""
    shape = tuple(obj)
    if shape not in shapes:
        unknown = obj.keys() - _OP_FIELD_TYPES.keys()
        unknown.discard("type")
        if unknown:
            raise ScenarioError(f"unknown op fields: {sorted(unknown)}")
        for name in _OP_REQUIRED:
            if name not in obj:
                raise ScenarioError(f"op has no {name!r} field")
        shapes.add(shape)
    if type(obj["rank"]) is not int:
        raise ScenarioError(f"op field 'rank' cannot be {obj['rank']!r}")
    return _field_items({**_OP_DEFAULTS, **obj})


def _unused_fields() -> dict:
    """Per op, and per kind for a collective: the optional fields it leaves
    unused (``tag`` and ``data`` are checked for every op), one getter over
    them and their defaults."""
    uses = {"comm_create": ("comm", "new_comm"), "send": ("comm", "peer"),
            "recv": ("comm", "peer"), "wait": ("request_id",), "test": ("request_id",),
            "waitall": ("request_ids",), "waitany": ("request_ids",), "compute": ("ticks",)}
    for kind in COLLECTIVE_KINDS:
        used = ("comm", "kind",
                *(("root",) if kind in ("bcast", "reduce", "gather") else ()),
                *(("reduce_op",) if kind in ("reduce", "allreduce") else ()))
        uses["coll", kind], uses["icoll", kind] = used, (*used, "request_id")
    table = {}
    for key, used in uses.items():
        names = tuple(n for n in _OP_OPTIONAL if n not in used and n not in ("tag", "data"))
        getter = operator.attrgetter(*names)
        table[key] = (names, getter, getter(Op(rank=0, op="compute")))
    return table


_UNUSED_FIELDS = _unused_fields()


def _typed(value, want) -> bool:
    if isinstance(want, tuple):
        return _list_of(value, want[1])
    return type(value) is want


def _list_of(value, item_type) -> bool:
    """Whether ``value`` is a list of exactly ``item_type`` items. A plain loop
    allocates nothing, so it is the cheapest form for short lists."""
    if type(value) is not list:
        return False
    for x in value:
        if type(x) is not item_type:
            return False
    return True


def _check_str(name: str, value):
    """Reject a field a dict or set lookup is about to hash unless it has its
    JSON type, str: an unhashable value would raise a bare TypeError."""
    if type(value) is not str:
        raise ScenarioError(f"op field {name!r} cannot be {value!r}")


def _json_value(value) -> bool:
    """Whether json writes ``value`` and reads it back equal: dicts with str
    keys, lists and tuples of such values, str, int, bool, None and finite
    floats. NaN loads back unequal; a set or other object does not encode."""
    if isinstance(value, dict):
        return all(type(k) is str and _json_value(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(map(_json_value, value))
    if type(value) is float:
        return math.isfinite(value)
    return value is None or type(value) in (str, int, bool)


class FrozenDict(dict):
    """A read-only dict: the ``comms`` and ``meta`` of a validated scenario.
    Being a dict, it compares with plain dicts and json encodes it as one."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a validated scenario's mappings are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return FrozenDict, (dict(self),)


def _freeze(value):
    """``value`` with every nested dict and list made read-only (a list
    becomes a tuple, which json encodes the same)."""
    if isinstance(value, dict):
        return FrozenDict({k: _freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _json_line(line: str) -> dict:
    # The scanner that json.loads calls, without its wrapper. Whatever the
    # scanner cannot take whole (blanks around the value, bad JSON, bytes)
    # goes to json.loads, for the same value or the same error.
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, TypeError, ValueError):
        end = None
    if end != len(line):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario line is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ScenarioError("scenario line is not a JSON object")
    return obj


@dataclass
class ScenarioProgram:
    """World size, declared communicators, and per-rank op lists. Frozen
    once ``validate`` passes (see ``FrozenScenario``)."""

    world_size: int
    comms: dict = field(default_factory=dict)  # comm id -> tuple of world ranks
    programs: list = field(default_factory=list)  # per rank: list[Op], a tuple once frozen
    name: str = "unnamed"
    meta: dict = field(default_factory=dict)

    frozen = False  # True once validate has made this a FrozenScenario
    _text = None    # dumps() of a frozen scenario, built on the first call

    def __post_init__(self):
        self.comms = {cid: tuple(members) for cid, members in self.comms.items()}
        while len(self.programs) < self.world_size:
            self.programs.append([])

    def ops(self):
        for program in self.programs:
            yield from program

    def comm_members(self, comm_id: str) -> tuple:
        if comm_id == WORLD:
            return tuple(range(self.world_size))
        return self.comms[comm_id]

    def group_keys(self) -> dict:
        """Each communicator's clock identity, world included: its member set
        and its ordinal among the communicators over that set, world first,
        then the declared ones by sorted id."""
        keys, used = {}, Counter()
        for cid in (WORLD, *sorted(self.comms)):
            members = frozenset(self.comm_members(cid))
            keys[cid] = GroupKey(tuple(members), used[members])
            used[members] += 1
        return keys

    # ---------------------------------------------------------------- io

    def dumps(self) -> str:
        if self._text is not None:
            return self._text
        header = {
            "type": "scenario",
            "version": SCENARIO_VERSION,
            "name": self.name,
            "world_size": self.world_size,
            "comms": {cid: list(m) for cid, m in sorted(self.comms.items())},
        }
        if self.meta:
            header["meta"] = self.meta
        lines = [encode(header)]
        lines += [encode(op.to_json_obj()) for program in self.programs for op in program]
        text = "\n".join(lines) + "\n"
        if self.frozen:
            vars(self)["_text"] = text
        return text

    @classmethod
    def loads(cls, text: str) -> "ScenarioProgram":
        lines = text.splitlines()
        start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
        if start is None:
            raise ScenarioError("empty scenario file")
        header = _json_line(lines[start])
        if header.get("type") != "scenario":
            raise ScenarioError("first line must be the scenario header")
        if header.get("version") != SCENARIO_VERSION or type(header["version"]) is not int:
            raise ScenarioError(f"unsupported scenario version {header.get('version')}")
        # Only what building the scenario needs; validate checks the rest.
        world_size, comms = header.get("world_size"), header.get("comms", {})
        if type(world_size) is not int or world_size > MAX_WORLD_SIZE:
            raise ScenarioError(f"scenario field 'world_size' cannot be {world_size!r}")
        if type(comms) is not dict or not all(type(m) is list for m in comms.values()):
            raise ScenarioError(f"scenario field 'comms' cannot be {comms!r}")
        scenario = ScenarioProgram(
            world_size=world_size,
            comms=comms,
            name=header.get("name", "unnamed"),
            meta=header.get("meta", {}),
        )
        # Op errors name their 1-based line in the file, blank lines counted.
        numbers = [[] for _ in range(scenario.world_size)]  # per rank, each op's line
        programs, shapes = scenario.programs, set()
        seen = {}  # line -> its op's fields: a program repeats many of its lines
        for number, line in enumerate(lines[start + 1:], start + 2):
            values = seen.get(line)
            if values is None:
                if not line.strip():
                    continue
                try:
                    values = seen[line] = _op_fields(_json_line(line), shapes)
                    if not 0 <= values[0] < scenario.world_size:
                        raise ScenarioError(
                            f"op rank {values[0]} outside world of {scenario.world_size}")
                except ScenarioError as exc:
                    raise ScenarioError(f"line {number}: {exc}") from exc
            programs[values[0]].append(Op(*values))
            numbers[values[0]].append(number)
        try:
            scenario.validate()
        except ScenarioError as exc:
            if exc.at is None:
                raise
            rank, pc = exc.at
            raise ScenarioError(f"line {numbers[rank][pc]}: {exc}") from exc
        return scenario

    @classmethod
    def load(cls, path) -> "ScenarioProgram":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.loads(fh.read())
            except UnicodeDecodeError as exc:
                raise ScenarioError(f"scenario file is not UTF-8 text: {exc}") from exc

    def dump(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())

    # ---------------------------------------------------------- validation

    def validate(self):
        """Check the scenario and freeze it; a frozen one returns at once."""
        if self.frozen:
            return
        # Only a header the writer round-trips: json writes True as true, not
        # 1, and a non-str key as a str, and the loader refuses a larger world.
        for name, ok in (("world_size", type(self.world_size) is int
                          and 0 < self.world_size <= MAX_WORLD_SIZE),
                         ("name", type(self.name) is str),
                         ("meta", isinstance(self.meta, dict) and _json_value(self.meta))):
            if not ok:
                raise ScenarioError(f"scenario field {name!r} cannot be {getattr(self, name)!r}")
        if len(self.programs) != self.world_size:  # the reader files ops under ranks < world_size
            raise ScenarioError(f"{len(self.programs)} programs for a world of {self.world_size}")
        for cid, members in self.comms.items():
            if type(cid) is not str or cid == WORLD:
                raise ScenarioError(f"communicator id {cid!r} is not a str other than 'world'")
            if not members:
                raise ScenarioError(f"communicator {cid} has no members")
            if any(type(r) is not int or not 0 <= r < self.world_size for r in members):
                raise ScenarioError(f"communicator {cid} member outside world")
            if len(set(members)) != len(members):  # after the int check: a set hashes each
                raise ScenarioError(f"communicator {cid} has duplicate members")

        creators: dict[str, set] = {cid: set() for cid in self.comms}
        users: dict[str, set] = {cid: set() for cid in self.comms}
        for rank, program in enumerate(self.programs):
            known_reqs: set = set()
            created_here: set = set()
            last: dict = {}     # comm id -> instance of the rank's last call on it
            entered: dict = {}  # comm id -> num of its last blocking call on it
            for pc, op in enumerate(program):
                if type(op) is FrozenOp:  # validated, maybe at another pc: check a copy
                    op = program[pc] = Op(op.rank, op.op, *(list(v) if type(v) is tuple else v
                                                            for v in _optional_values(op)))
                try:
                    if type(op.rank) is not int or op.rank != rank:
                        raise ScenarioError(f"op field 'rank' cannot be {op.rank!r} in program {rank}")
                    self._validate_op(op, known_reqs, created_here, creators)
                except ScenarioError as exc:
                    exc.at = (rank, pc)
                    raise
                if op.op != "comm_create" and op.comm in users:
                    users[op.comm].add(rank)
                # Freeze each op that passes: its facts hold here even if a later check fails.
                op.instance = op.num = None
                if op.op in ("coll", "icoll", "comm_create"):
                    op.instance = last[op.comm] = last.get(op.comm, -1) + 1
                    if op.op != "icoll":
                        op.num = entered[op.comm] = entered.get(op.comm, 0) + 1
                if op.data is not None:
                    op.data = tuple(op.data)
                if op.request_ids is not None:
                    op.request_ids = tuple(op.request_ids)
                op.__class__ = FrozenOp

        for cid, ranks_seen in creators.items():
            parent = tuple(range(self.world_size))  # creation is collective over world
            if ranks_seen and set(parent) != ranks_seen:
                missing = sorted(set(parent) - ranks_seen)
                raise ScenarioError(f"comm_create({cid}) missing on ranks {missing}")
            members = set(self.comms[cid])
            used_by = users[cid]
            if used_by and not ranks_seen:
                raise ScenarioError(f"communicator {cid} used but never created")
            if not used_by <= members:
                raise ScenarioError(f"non-members use communicator {cid}: {sorted(used_by - members)}")

        vars(self).update(programs=tuple(map(tuple, self.programs)),
                          comms=FrozenDict(self.comms), meta=_freeze(self.meta))
        self.__class__ = FrozenScenario

    def _validate_op(self, op: Op, known_reqs: set, created_here: set, creators: dict):
        # The JSON types of the fields the op's kind uses, so the text of a
        # frozen scenario loads back: a bool equals an int but is written as
        # true. A payload is a list of exact ints, what the checksum folds.
        if op.data is not None and not _list_of(op.data, int):
            raise ScenarioError(f"op field 'data' cannot be {op.data!r}")
        if type(op.tag) is not int:
            raise ScenarioError(f"op field 'tag' cannot be {op.tag!r}")
        if op.op in ("coll", "icoll"):
            if op.kind not in COLLECTIVE_KINDS:
                raise ScenarioError(f"unknown collective kind {op.kind!r}")
            members = self._members_checked(op)
            if op.kind in ("bcast", "reduce", "gather"):
                if type(op.root) is not int or op.root not in members:
                    raise ScenarioError(f"root must be a member of {op.comm}, not {op.root!r}")
            if op.kind in ("reduce", "allreduce") and op.reduce_op not in REDUCE_OPS:
                raise ScenarioError(f"reduce needs op in {REDUCE_OPS}, got {op.reduce_op!r}")
            if op.op == "icoll":
                if not op.request_id or type(op.request_id) is not str:
                    raise ScenarioError(f"icoll needs a str request_id, not {op.request_id!r}")
                if op.request_id in known_reqs:
                    raise ScenarioError(f"request id {op.request_id} reused on rank {op.rank}")
                known_reqs.add(op.request_id)
        elif op.op == "comm_create":
            _check_str("new_comm", op.new_comm)
            if op.new_comm not in self.comms:
                raise ScenarioError(f"comm_create of undeclared {op.new_comm!r}")
            if op.comm != WORLD:
                raise ScenarioError("comm_create is only supported with parent 'world'")
            creators[op.new_comm].add(op.rank)
            created_here.add(op.new_comm)
        elif op.op in ("send", "recv"):
            if type(op.peer) is not int:
                raise ScenarioError(f"{op.op} needs an int peer, not {op.peer!r}")
            if op.peer == op.rank:
                raise ScenarioError("self point-to-point is not supported")
            if op.peer not in self._members_checked(op):
                raise ScenarioError(f"{op.op} peer {op.peer} not in {op.comm}")
            if op.op == "send" and op.data is None:
                raise ScenarioError("send needs data")
        elif op.op in ("wait", "test"):
            _check_str("request_id", op.request_id)
            if op.request_id not in known_reqs:
                raise ScenarioError(f"{op.op} on unknown request {op.request_id!r}")
        elif op.op in ("waitall", "waitany"):
            if not op.request_ids or not _list_of(op.request_ids, str):  # before a set lookup
                raise ScenarioError(f"op field 'request_ids' cannot be {op.request_ids!r}")
            for rid in op.request_ids:
                if rid not in known_reqs:
                    raise ScenarioError(f"{op.op} on unknown request {rid!r}")
        elif op.op == "compute":
            if type(op.ticks) is not int or op.ticks < 1:
                raise ScenarioError(f"compute needs int ticks >= 1, not {op.ticks!r}")
        else:
            raise ScenarioError(f"unknown op {op.op!r}")
        # A field the op leaves unused is written too, so it needs its JSON
        # type unless it keeps its default.
        names, getter, defaults = _UNUSED_FIELDS[
            (op.op, op.kind) if op.op in ("coll", "icoll") else op.op]
        values = getter(op)
        if values != defaults:
            for name, value, default in zip(names, values, defaults):
                if value != default and not _typed(value, _OP_FIELD_TYPES[name]):
                    raise ScenarioError(f"op field {name!r} cannot be {value!r}")
        if op.op != "comm_create" and op.comm != WORLD and op.comm not in created_here:
            # Uses must come after the rank's own creation op.
            if op.comm in self.comms and op.rank in self.comms[op.comm]:
                raise ScenarioError(
                    f"rank {op.rank} uses {op.comm} before its comm_create op"
                )

    def _members_checked(self, op: Op):
        _check_str("comm", op.comm)
        if op.comm == WORLD:
            members = range(self.world_size)  # tests membership like comm_members' tuple
        elif op.comm in self.comms:
            members = self.comms[op.comm]
        else:
            raise ScenarioError(f"op on undeclared communicator {op.comm!r}")
        if op.rank not in members:
            raise ScenarioError(f"rank {op.rank} is not a member of {op.comm}")
        return members


class FrozenOp(Op):
    """A validated op, its ``data`` and ``request_ids`` tuples: any assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to {name!r} of a validated op")

    def __setstate__(self, state):  # copy and pickle restore the slots past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class FrozenScenario(ScenarioProgram):
    """A validated scenario: ``validate`` turns a ``ScenarioProgram`` that
    passes into this class. Its programs are tuples, its ``comms`` and
    ``meta`` read-only, and any attribute assignment raises."""

    frozen = True

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to {name!r} of a validated scenario")


# --------------------------------------------------------------------------
# Built-in scenarios
# --------------------------------------------------------------------------


def _creation_preamble(scenario: ScenarioProgram):
    for cid in sorted(scenario.comms):
        for rank in range(scenario.world_size):
            scenario.programs[rank].append(Op(rank=rank, op="comm_create", new_comm=cid))


def _allreduce(rank, comm, value):
    return Op(rank=rank, op="coll", comm=comm, kind="allreduce", reduce_op="sum", data=[value])


def fig2_scenario() -> ScenarioProgram:
    """Seven ranks over four overlapping groups with a staged catch-up cascade.

    Rank 0 only takes part in communicator creation. Counts per group are
    equal across members; compute padding keeps the interesting trigger
    window wide. The companion trigger predicate is ``fig2-instant``.
    """
    sc = ScenarioProgram(
        world_size=7,
        comms={"g12": (1, 2), "g23": (2, 3), "g345": (3, 4, 5), "g56": (5, 6)},
        name="fig2",
        meta={"trigger": "fig2-instant", "seed": FIG2_SEED},
    )
    _creation_preamble(sc)
    p = sc.programs

    for i in range(5):
        p[1].append(_allreduce(1, "g12", 10 + i))

    for i in range(5):
        p[2].append(_allreduce(2, "g12", 20 + i))
        p[2].append(_allreduce(2, "g23", 30 + i))
    p[2].append(_allreduce(2, "g23", 35))
    p[2].append(_allreduce(2, "g23", 36))

    seq3 = ["g23", "g23", "g345", "g23", "g23", "g345", "g23", "g23"]
    for i, comm in enumerate(seq3):
        p[3].append(_allreduce(3, comm, 40 + i))
    p[3].append(Op(rank=3, op="compute", ticks=40))
    p[3].append(_allreduce(3, "g345", 48))
    p[3].append(_allreduce(3, "g23", 49))

    p[4].append(_allreduce(4, "g345", 50))
    p[4].append(_allreduce(4, "g345", 51))
    p[4].append(Op(rank=4, op="compute", ticks=40))
    p[4].append(_allreduce(4, "g345", 52))

    seq5 = ["g56", "g345", "g56", "g56", "g345"]
    for i, comm in enumerate(seq5):
        p[5].append(_allreduce(5, comm, 60 + i))
    p[5].append(Op(rank=5, op="compute", ticks=40))
    p[5].append(_allreduce(5, "g56", 65))
    p[5].append(_allreduce(5, "g345", 66))

    for i in range(3):
        p[6].append(_allreduce(6, "g56", 70 + i))
    p[6].append(Op(rank=6, op="compute", ticks=40))
    p[6].append(_allreduce(6, "g56", 73))

    sc.validate()
    return sc


def bcast_invariant2_scenario() -> ScenarioProgram:
    """Three ranks; a broadcast is in flight when the checkpoint arrives.

    The root enters the broadcast early while rank 2 is still computing, so a
    request raised at that instant must be deferred until every receiver has
    completed the broadcast. Trigger predicate: ``bcast-started``.
    """
    sc = ScenarioProgram(
        world_size=3,
        name="bcast-invariant2",
        meta={"trigger": "bcast-started", "seed": BCAST_INV2_SEED},
    )
    p = sc.programs
    bcast = lambda r: Op(rank=r, op="coll", kind="bcast", root=0, data=[42] if r == 0 else None)
    p[0].append(bcast(0))
    p[0].append(_allreduce(0, WORLD, 1))
    p[1].append(bcast(1))
    p[1].append(_allreduce(1, WORLD, 2))
    p[2].append(Op(rank=2, op="compute", ticks=40))
    p[2].append(bcast(2))
    p[2].append(_allreduce(2, WORLD, 3))
    sc.validate()
    return sc


BUILTIN_SCENARIOS = {
    "fig2": fig2_scenario,
    "bcast-invariant2": bcast_invariant2_scenario,
}


def builtin_scenario(name: str) -> ScenarioProgram:
    try:
        factory = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ScenarioError(f"unknown built-in scenario {name!r}") from None
    return factory()


# --------------------------------------------------------------------------
# Workload generator
# --------------------------------------------------------------------------


def generate_workload(seed: int, *, ranks: int = 8, groups: int = 3, ops: int = 60,
                      nonblocking_ratio: float = 0.0, p2p_ratio: float = 0.0) -> ScenarioProgram:
    """Produce a validated random scenario within desk-scale bounds.

    Structure guarantees: equal collective counts per group across members,
    every request eventually waited, and every point-to-point burst fenced by
    world barriers so matched pairs can never straddle the collectives that
    bound a safe state. So the result is crossing-legal by construction; it
    is still validated once, and a failure raises ``GenerationError``.
    """
    if not 1 <= ranks <= 64:
        raise GenerationError("ranks must be within [1, 64]")
    if groups < 0 or ops < 1:
        raise GenerationError("groups must be >= 0 and ops >= 1")
    for name, ratio in (("nonblocking_ratio", nonblocking_ratio), ("p2p_ratio", p2p_ratio)):
        if not 0.0 <= ratio <= 1.0:
            raise GenerationError(f"{name} must be within [0, 1]")
    scenario = _build_workload(seed, {"ranks": ranks, "groups": groups, "ops": ops,
                                      "nonblocking_ratio": nonblocking_ratio,
                                      "p2p_ratio": p2p_ratio})
    try:
        scenario.validate()
    except ScenarioError as exc:
        raise GenerationError(f"generated scenario {scenario.name} is illegal: {exc}") from exc
    return scenario


def _build_workload(seed, params: dict) -> ScenarioProgram:
    rng = random.Random(seed)
    n = params["ranks"]
    comms = {}
    seen_sets = set()
    for i in range(params["groups"]):
        if n < 2:
            break
        size = rng.randint(2, min(MAX_GROUP_SIZE, n))
        members = tuple(sorted(rng.sample(range(n), size)))
        if members in seen_sets or len(members) == n:
            continue
        seen_sets.add(members)
        comms[f"g{i}"] = members

    sc = ScenarioProgram(
        world_size=n,
        comms=comms,
        name=f"gen-{seed}",
        meta={"seed": seed, "params": params},
    )
    _creation_preamble(sc)
    budget = params["ops"]
    pending: dict[int, list] = {r: [] for r in range(n)}
    req_counter = [0]
    tag_counter = [0]
    comm_ids = [WORLD] + sorted(comms)

    def emit_collective():
        cid = rng.choice(comm_ids)
        members = sc.comm_members(cid)
        kind = rng.choice(COLLECTIVE_KINDS)
        root = rng.choice(members) if kind in ("bcast", "reduce", "gather") else None
        red = rng.choice(REDUCE_OPS) if kind in ("reduce", "allreduce") else None
        nonblocking = rng.random() < params["nonblocking_ratio"]
        used = 0
        for r in members:
            if kind == "alltoall":
                data = [(r * 7 + j) % 101 for j in range(len(members))]
            elif kind == "bcast":
                data = [(r * 13 + 5) % 101] if r == root else None
            else:
                data = [(r * 11 + len(members)) % 101]
            if nonblocking:
                rid = f"q{req_counter[0]}"
                sc.programs[r].append(Op(
                    rank=r, op="icoll", comm=cid, kind=kind, root=root,
                    reduce_op=red, data=data, request_id=rid,
                ))
                pending[r].append(rid)
            else:
                sc.programs[r].append(Op(
                    rank=r, op="coll", comm=cid, kind=kind, root=root,
                    reduce_op=red, data=data,
                ))
            used += 1
        if nonblocking:
            req_counter[0] += 1
        return used

    def emit_completion():
        used = 0
        for r in range(n):
            if pending[r]:
                if len(pending[r]) == 1:
                    sc.programs[r].append(Op(rank=r, op="wait", request_id=pending[r][0]))
                else:
                    sc.programs[r].append(Op(rank=r, op="waitall", request_ids=list(pending[r])))
                pending[r] = []
                used += 1
        return used

    def emit_fence():
        for r in range(n):
            sc.programs[r].append(Op(rank=r, op="coll", kind="barrier"))
        return n

    def emit_p2p_round():
        # world-barrier fences bracket the pair burst; this keeps checkpoint
        # rounds live (an unmatched partner is always either running or
        # reachable by a target update on the world group).
        used = emit_fence()
        ranks = list(range(n))
        rng.shuffle(ranks)
        npairs = max(1, len(ranks) // 4)
        for _ in range(npairs):
            a, b = ranks.pop(), ranks.pop()
            tag = tag_counter[0] % 5
            tag_counter[0] += 1
            sc.programs[a].append(Op(rank=a, op="send", peer=b, tag=tag, data=[(a * 3 + tag) % 101]))
            sc.programs[b].append(Op(rank=b, op="recv", peer=a, tag=tag))
            used += 2
        used += emit_fence()
        return used

    rounds_since_completion = 0
    while budget > 0:
        roll = rng.random()
        if roll < params["p2p_ratio"] and n >= 2:
            budget -= emit_p2p_round()
        else:
            budget -= emit_collective()
            rounds_since_completion += 1
        if rng.random() < COMPUTE_RATIO:
            r = rng.randrange(n)
            sc.programs[r].append(Op(rank=r, op="compute", ticks=rng.randint(1, 4)))
            budget -= 1
        if rounds_since_completion >= 3:
            budget -= emit_completion()
            rounds_since_completion = 0
    emit_completion()
    return sc
