"""Scenario programs: the operation streams that drive the simulator.

A scenario is a world size, a table of declared sub-communicators, and one
operation list per rank. The on-disk form is JSON lines: a single header line
followed by one op per line, rank-major, so a fixed scenario always serializes
to identical bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields

from .errors import GenerationError, ScenarioError

SCENARIO_VERSION = 1
WORLD = "world"

COLLECTIVE_KINDS = ("barrier", "bcast", "reduce", "allreduce", "gather", "alltoall")
REDUCE_OPS = ("sum", "max")

# Scheduler seed under which the built-in scenarios were validated to hit
# their checkpoint trigger window. Runs are reproducible, so one verified
# seed stays verified.
FIG2_SEED = 11
BCAST_INV2_SEED = 3


@dataclass
class Op:
    """One operation in a rank's program."""

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
        obj = {"rank": self.rank, "op": self.op}
        for f in fields(self):
            if f.name in ("rank", "op"):
                continue
            value = getattr(self, f.name)
            if f.name == "comm" and value == WORLD:
                continue
            if f.name == "tag" and value == 0:
                continue
            if value is not None:
                obj[f.name] = value
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Op":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known - {"type"}
        if unknown:
            raise ScenarioError(f"unknown op fields: {sorted(unknown)}")
        return cls(**{k: v for k, v in obj.items() if k in known})


def _json_line(line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario line is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ScenarioError("scenario line is not a JSON object")
    return obj


@dataclass
class ScenarioProgram:
    """World size, declared communicators, and per-rank op lists."""

    world_size: int
    comms: dict = field(default_factory=dict)  # comm id -> tuple of world ranks
    programs: list = field(default_factory=list)  # per rank: list[Op]
    name: str = "unnamed"
    meta: dict = field(default_factory=dict)

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

    # ---------------------------------------------------------------- io

    def dumps(self) -> str:
        header = {
            "type": "scenario",
            "version": SCENARIO_VERSION,
            "name": self.name,
            "world_size": self.world_size,
            "comms": {cid: list(m) for cid, m in sorted(self.comms.items())},
        }
        if self.meta:
            header["meta"] = self.meta
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        for program in self.programs:
            for op in program:
                lines.append(json.dumps(op.to_json_obj(), sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "ScenarioProgram":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ScenarioError("empty scenario file")
        header = _json_line(lines[0])
        if header.get("type") != "scenario":
            raise ScenarioError("first line must be the scenario header")
        if header.get("version") != SCENARIO_VERSION:
            raise ScenarioError(f"unsupported scenario version {header.get('version')}")
        if "world_size" not in header:
            raise ScenarioError("scenario header has no world_size")
        scenario = cls(
            world_size=int(header["world_size"]),
            comms={cid: tuple(m) for cid, m in header.get("comms", {}).items()},
            name=header.get("name", "unnamed"),
            meta=header.get("meta", {}),
        )
        for line in lines[1:]:
            op = Op.from_json_obj(_json_line(line))
            if not 0 <= op.rank < scenario.world_size:
                raise ScenarioError(f"op rank {op.rank} outside world of {scenario.world_size}")
            scenario.programs[op.rank].append(op)
        scenario.validate()
        return scenario

    @classmethod
    def load(cls, path) -> "ScenarioProgram":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())

    def dump(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())

    # ---------------------------------------------------------- validation

    def validate(self):
        if self.world_size < 1:
            raise ScenarioError("world size must be at least 1")
        for cid, members in self.comms.items():
            if cid == WORLD:
                raise ScenarioError("'world' is reserved")
            if not members:
                raise ScenarioError(f"communicator {cid} has no members")
            if len(set(members)) != len(members):
                raise ScenarioError(f"communicator {cid} has duplicate members")
            if any(not 0 <= r < self.world_size for r in members):
                raise ScenarioError(f"communicator {cid} member outside world")

        creators: dict[str, set] = {cid: set() for cid in self.comms}
        for rank, program in enumerate(self.programs):
            known_reqs: set = set()
            created_here: set = set()
            for op in program:
                if op.rank != rank:
                    raise ScenarioError(f"op rank {op.rank} filed under program {rank}")
                self._validate_op(op, known_reqs, created_here, creators)

        for cid, ranks_seen in creators.items():
            parent = tuple(range(self.world_size))  # creation is collective over world
            if ranks_seen and set(parent) != ranks_seen:
                missing = sorted(set(parent) - ranks_seen)
                raise ScenarioError(f"comm_create({cid}) missing on ranks {missing}")
            members = set(self.comms[cid])
            used_by = {
                op.rank
                for op in self.ops()
                if op.comm == cid and op.op != "comm_create"
            }
            if used_by and not ranks_seen:
                raise ScenarioError(f"communicator {cid} used but never created")
            if not used_by <= members:
                raise ScenarioError(f"non-members use communicator {cid}: {sorted(used_by - members)}")

    def _validate_op(self, op: Op, known_reqs: set, created_here: set, creators: dict):
        if op.op in ("coll", "icoll"):
            if op.kind not in COLLECTIVE_KINDS:
                raise ScenarioError(f"unknown collective kind {op.kind!r}")
            members = self._members_checked(op)
            if op.kind in ("bcast", "reduce", "gather"):
                if op.root not in members:
                    raise ScenarioError(f"root {op.root} not in communicator {op.comm}")
            if op.kind in ("reduce", "allreduce") and op.reduce_op not in REDUCE_OPS:
                raise ScenarioError(f"reduce needs op in {REDUCE_OPS}, got {op.reduce_op!r}")
            if op.op == "icoll":
                if not op.request_id:
                    raise ScenarioError("icoll needs a request_id")
                if op.request_id in known_reqs:
                    raise ScenarioError(f"request id {op.request_id} reused on rank {op.rank}")
                known_reqs.add(op.request_id)
        elif op.op == "comm_create":
            if op.new_comm not in self.comms:
                raise ScenarioError(f"comm_create of undeclared {op.new_comm!r}")
            if op.comm != WORLD:
                raise ScenarioError("comm_create is only supported with parent 'world'")
            creators[op.new_comm].add(op.rank)
            created_here.add(op.new_comm)
        elif op.op in ("send", "recv"):
            if op.peer is None or not 0 <= op.peer < self.world_size:
                raise ScenarioError(f"{op.op} needs a peer inside the world")
            if op.peer == op.rank:
                raise ScenarioError("self point-to-point is not supported")
            self._members_checked(op)
            if op.op == "send" and op.data is None:
                raise ScenarioError("send needs data")
        elif op.op in ("wait", "test"):
            if op.request_id not in known_reqs:
                raise ScenarioError(f"{op.op} on unknown request {op.request_id!r}")
        elif op.op in ("waitall", "waitany"):
            if not op.request_ids:
                raise ScenarioError(f"{op.op} needs request_ids")
            for rid in op.request_ids:
                if rid not in known_reqs:
                    raise ScenarioError(f"{op.op} on unknown request {rid!r}")
        elif op.op == "compute":
            if not op.ticks or op.ticks < 1:
                raise ScenarioError("compute needs ticks >= 1")
        else:
            raise ScenarioError(f"unknown op {op.op!r}")
        if op.op != "comm_create" and op.comm != WORLD and op.comm not in created_here:
            # Uses must come after the rank's own creation op.
            if op.comm in self.comms and op.rank in self.comms[op.comm]:
                raise ScenarioError(
                    f"rank {op.rank} uses {op.comm} before its comm_create op"
                )

    def _members_checked(self, op: Op) -> tuple:
        if op.comm != WORLD and op.comm not in self.comms:
            raise ScenarioError(f"op on undeclared communicator {op.comm!r}")
        members = self.comm_members(op.comm)
        if op.rank not in members:
            raise ScenarioError(f"rank {op.rank} is not a member of {op.comm}")
        return members


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


@dataclass
class GenParams:
    """Bounds and mix knobs for generated workloads (desk scale)."""

    ranks: int = 8
    groups: int = 3
    ops: int = 60
    nonblocking_ratio: float = 0.0
    p2p_ratio: float = 0.0
    compute_ratio: float = 0.15
    max_group_size: int = 5

    def check(self):
        if not 1 <= self.ranks <= 64:
            raise GenerationError("ranks must be within [1, 64]")
        if self.groups < 0 or self.ops < 1:
            raise GenerationError("groups must be >= 0 and ops >= 1")
        for name in ("nonblocking_ratio", "p2p_ratio", "compute_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise GenerationError(f"{name} must be within [0, 1]")


def generate_workload(seed: int, params: GenParams | None = None, **kwargs) -> ScenarioProgram:
    """Produce a legality-checked random scenario.

    Structure guarantees: equal collective counts per group across members,
    every request eventually waited, and every point-to-point burst fenced by
    world barriers so matched pairs can never straddle the collectives that
    bound a safe state.
    """
    params = params or GenParams(**kwargs)
    params.check()
    rng = random.Random(seed)

    for attempt in range(8):
        try:
            scenario = _generate_once(rng, params, seed, attempt)
            scenario.validate()
            from .verify import check_crossing_legality

            verdict = check_crossing_legality(scenario)
            if verdict.passed:
                return scenario
        except ScenarioError:
            continue
    raise GenerationError(f"could not generate a legal scenario for seed {seed}")


def _generate_once(rng, params, seed, attempt) -> ScenarioProgram:
    n = params.ranks
    comms = {}
    seen_sets = set()
    for i in range(params.groups):
        if n < 2:
            break
        size = rng.randint(2, min(params.max_group_size, n))
        members = tuple(sorted(rng.sample(range(n), size)))
        if members in seen_sets or len(members) == n:
            continue
        seen_sets.add(members)
        comms[f"g{i}"] = members

    sc = ScenarioProgram(
        world_size=n,
        comms=comms,
        name=f"gen-{seed}" if attempt == 0 else f"gen-{seed}.{attempt}",
        meta={"seed": seed, "params": {
            "ranks": params.ranks, "groups": params.groups, "ops": params.ops,
            "nonblocking_ratio": params.nonblocking_ratio, "p2p_ratio": params.p2p_ratio,
        }},
    )
    _creation_preamble(sc)
    budget = params.ops
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
        nonblocking = rng.random() < params.nonblocking_ratio
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
            if len(ranks) < 2:
                break
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
        if roll < params.p2p_ratio and n >= 2:
            budget -= emit_p2p_round()
        else:
            budget -= emit_collective()
            rounds_since_completion += 1
        if rng.random() < params.compute_ratio:
            r = rng.randrange(n)
            sc.programs[r].append(Op(rank=r, op="compute", ticks=rng.randint(1, 4)))
            budget -= 1
        if rounds_since_completion >= 3:
            budget -= emit_completion()
            rounds_since_completion = 0
    emit_completion()
    return sc
