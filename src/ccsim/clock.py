"""Group identity and per-group logical clocks.

A communicator is identified globally by the *set* of world ranks behind it
(its group). Two communicators over the same rank set share one identity and
therefore one sequence counter, no matter where or in what order they were
created. Equality is decided on the canonical member tuple; the 64-bit digest
is carried only for display and metrics keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MissingReportError, ProtocolViolationError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(parts) -> int:
    """FNV-1a over a sequence of integers, reduced to 64 bits.

    Stable across runs and platforms (unlike built-in hash()), so it is safe
    to persist in traces and snapshots.
    """
    h = _FNV_OFFSET
    for value in parts:
        for byte in int(value).to_bytes(8, "little", signed=True):
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class GroupKey:
    """Canonical identity of a set of world ranks.

    ``members`` is sorted and deduplicated at construction. ``display_hash``
    never participates in equality, so digest collisions cannot alias two
    distinct groups.
    """

    members: tuple[int, ...]
    display_hash: int = field(compare=False, default=0)

    def __post_init__(self):
        canon = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", canon)
        object.__setattr__(self, "display_hash", fnv1a64(canon))

    def contains(self, rank: int) -> bool:
        return rank in self.members

    @property
    def size(self) -> int:
        return len(self.members)

    def label(self) -> str:
        """Serialization key: comma-joined sorted world ranks."""
        return ",".join(str(r) for r in self.members)

    @classmethod
    def from_label(cls, label: str) -> "GroupKey":
        return cls(tuple(int(x) for x in label.split(",")))

    def __repr__(self):
        return f"GroupKey({{{self.label()}}})"


def compute_ggid(comm) -> GroupKey:
    """Derive the global group id of a communicator.

    Purely local: reads the member table the owning rank already holds, sends
    nothing. ``comm`` needs only a ``members`` attribute (world ranks).
    """
    return GroupKey(tuple(comm.members))


class CollectiveClock:
    """Per-rank map from group identity to its collective sequence number.

    Absent key means zero. Counters are only ever bumped by exactly one.
    """

    __slots__ = ("seq",)

    def __init__(self, seq=None):
        self.seq: dict[GroupKey, int] = dict(seq) if seq else {}

    def get(self, g: GroupKey) -> int:
        return self.seq.get(g, 0)

    def increment(self, g: GroupKey) -> int:
        value = self.seq.get(g, 0) + 1
        self.seq[g] = value
        return value

    def groups(self):
        return self.seq.keys()

    def items(self):
        return self.seq.items()

    def copy(self) -> "CollectiveClock":
        return CollectiveClock(self.seq)

    def to_json(self) -> dict:
        return {g.label(): v for g, v in sorted(self.seq.items(), key=lambda kv: kv[0].members)}

    @classmethod
    def from_json(cls, obj: dict) -> "CollectiveClock":
        return cls({GroupKey.from_label(k): int(v) for k, v in obj.items()})

    def __eq__(self, other):
        return isinstance(other, CollectiveClock) and self.seq == other.seq

    def __repr__(self):
        return f"CollectiveClock({self.to_json()})"


class TargetTable:
    """Per-rank map of target sequence numbers, live only during a round.

    Values are monotone non-decreasing for the duration of one checkpoint
    drain; ``raise_to`` ignores stale values instead of lowering.
    """

    __slots__ = ("target",)

    def __init__(self, target=None):
        self.target: dict[GroupKey, int] = dict(target) if target else {}

    def get(self, g: GroupKey) -> int:
        return self.target.get(g, 0)

    def raise_to(self, g: GroupKey, value: int) -> bool:
        """Apply a target value; returns True if it raised the entry."""
        if value > self.target.get(g, 0):
            self.target[g] = value
            return True
        return False

    def install(self, table: dict):
        self.target = dict(table)

    def clear(self):
        self.target = {}

    def groups(self):
        return self.target.keys()

    def items(self):
        return self.target.items()

    def to_json(self) -> dict:
        return {g.label(): v for g, v in sorted(self.target.items(), key=lambda kv: kv[0].members)}

    @classmethod
    def from_json(cls, obj: dict) -> "TargetTable":
        return cls({GroupKey.from_label(k): int(v) for k, v in obj.items()})

    def __repr__(self):
        return f"TargetTable({self.to_json()})"


def reached_all_targets(clock: CollectiveClock, targets: TargetTable, rank: int) -> bool:
    """True iff this rank's counter equals the target for every group it belongs to.

    Groups the rank is not a member of are ignored. A counter strictly above
    its target means the owner failed to propagate a raise first, which the
    protocol forbids.
    """
    for g, tgt in targets.items():
        if not g.contains(rank):
            continue
        seq = clock.get(g)
        if seq > tgt:
            raise ProtocolViolationError(
                f"rank {rank}: SEQ {seq} exceeds TARGET {tgt} for group {{{g.label()}}};"
                " a raise was not propagated before checking targets"
            )
        if seq != tgt:
            return False
    return True


class KeyValueStore:
    """Per-round store of (group, rank) -> reported sequence number."""

    def __init__(self):
        self.reports = {}
        self.ranks_reported = set()

    def add_report(self, rank_id: int, clock: CollectiveClock):
        if rank_id in self.ranks_reported:
            raise ProtocolViolationError(f"rank {rank_id} reported twice this round")
        self.ranks_reported.add(rank_id)
        for g, seq in clock.items():
            self.reports[(g, rank_id)] = seq


def compute_targets(store: KeyValueStore, expected_ranks: int) -> dict:
    """Targets are per-group maxima over all reports; absent reports count 0.

    Stalls (raises) with a diagnostic if any rank never reported.
    """
    missing = set(range(expected_ranks)) - store.ranks_reported
    if missing:
        raise MissingReportError(
            f"round stalled: no sequence report from ranks {sorted(missing)}"
        )
    targets: dict[GroupKey, int] = {}
    for (g, _rank), seq in store.reports.items():
        if seq > targets.get(g, 0):
            targets[g] = seq
    return targets
