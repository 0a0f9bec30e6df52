"""Group identity and per-group logical clocks.

A communicator is identified globally by the *set* of world ranks behind it
(its group) and its ordinal among the declared communicators over that set:
world first, then the rest by sorted id (``ScenarioProgram.group_keys``).
Every rank derives the same ordinal from the scenario, so two communicators
over one rank set keep two sequence counters even when ranks start their
collectives in different orders. Equality is decided on the canonical member
tuple and the ordinal.

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
_PRIME_POWERS = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(9))  # prime**k mod 2^64


def fnv1a64(parts, h: int = _FNV_OFFSET) -> int:
    """FNV-1a 64 over the 8-byte little-endian two's complement of each
    integer's low 64 bits, from state ``h`` (the FNV offset basis by
    default): ``fnv1a64(a + b) == fnv1a64(b, fnv1a64(a))``.

    Stable across runs and platforms (unlike built-in hash()), so it is safe
    to persist in traces and snapshots. Any int is accepted: only its low 64
    bits are read. A zero byte only multiplies by the prime, so a value's
    highest nonzero byte and the zero bytes above it fold in one
    multiplication by a power of the prime.
    """
    for value in parts:
        u, k = value & _MASK64, 8
        while u > 255:
            h = ((h ^ (u & 255)) * _FNV_PRIME) & _MASK64
            u >>= 8
            k -= 1
        h = ((h ^ u) * _PRIME_POWERS[k]) & _MASK64
    return h


@dataclass(frozen=True)
class GroupKey:
    """Canonical identity of a communicator's group.

    ``members`` is sorted and deduplicated at construction; equality and
    hashing use that tuple and ``ordinal``. The label and the hash are built
    once, here: a key is looked up in a SEQ or TARGET table on every commit.
    """

    members: tuple[int, ...]
    ordinal: int = 0

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        label = ",".join(str(r) for r in members)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_label", f"{label}#{self.ordinal}" if self.ordinal else label)
        object.__setattr__(self, "_hash", hash((members, self.ordinal)))

    def __hash__(self):
        return self._hash

    def label(self) -> str:
        """Serialization key: comma-joined sorted world ranks, then ``#ordinal``
        when the ordinal is not 0."""
        return self._label

    @classmethod
    def from_label(cls, label: str) -> "GroupKey":
        members, _, ordinal = label.partition("#")
        return cls(tuple(int(x) for x in members.split(",")), int(ordinal or 0))


def by_label(counts) -> dict:
    """A SEQ or TARGET table keyed by group label, in member order."""
    return {g.label(): v for g, v in
            sorted(counts.items(), key=lambda kv: (kv[0].members, kv[0].ordinal))}


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
