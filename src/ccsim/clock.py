"""Group identity and per-group logical clocks.

A communicator is identified globally by the *set* of world ranks behind it
(its group). Two communicators over the same rank set share one identity and
therefore one sequence counter, no matter where or in what order they were
created. Equality is decided on the canonical member tuple.

A rank's SEQ and TARGET tables are plain ``collections.Counter`` objects keyed
by ``GroupKey``: an absent group counts 0, a commit is ``clock[g] += 1`` and
``a | b`` is the per-group maximum. Read entries as ``clock[g]``, never with
``.get``, which answers ``None`` for an absent group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ProtocolViolationError

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

    ``members`` is sorted and deduplicated at construction; equality and
    hashing use that tuple alone.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))

    def label(self) -> str:
        """Serialization key: comma-joined sorted world ranks."""
        return ",".join(str(r) for r in self.members)

    @classmethod
    def from_label(cls, label: str) -> "GroupKey":
        return cls(tuple(int(x) for x in label.split(",")))

    def __repr__(self):
        return f"GroupKey({{{self.label()}}})"


def by_label(counts) -> dict:
    """A SEQ or TARGET table keyed by group label, in member order."""
    return {g.label(): v for g, v in sorted(counts.items(), key=lambda kv: kv[0].members)}


def reached_all_targets(clock, targets, rank: int) -> bool:
    """True iff this rank's counter equals the target for every group it belongs to.

    Groups the rank is not a member of are ignored. A counter strictly above
    its target means the owner failed to propagate a raise first, which the
    protocol forbids.
    """
    for g, tgt in targets.items():
        if rank not in g.members:
            continue
        seq = clock[g]
        if seq > tgt:
            raise ProtocolViolationError(
                f"rank {rank}: SEQ {seq} exceeds TARGET {tgt} for group {{{g.label()}}};"
                " a raise was not propagated before checking targets"
            )
        if seq != tgt:
            return False
    return True
