"""Exception hierarchy for the simulator and protocols."""


class SimulationError(Exception):
    """Base class for all simulator failures."""


class InvalidConfigurationError(SimulationError):
    """A valid scenario past the exhaustive explorer's rank or op bounds."""


class ScenarioError(SimulationError):
    """Malformed or internally inconsistent scenario program. ``at`` is the
    (rank, pc) of the op that ``validate`` rejected, None for any other fault."""

    at = None


class GenerationError(SimulationError):
    """Workload generator could not produce a legal scenario."""


class CollectiveMismatchError(SimulationError):
    """Members of one collective instance disagree on what they are calling."""


class DeadlockError(SimulationError):
    """No rank can make progress and at least one rank is not finished."""

    def __init__(self, message, blocked=None):
        super().__init__(message)
        self.blocked = blocked or []


class StuckP2pError(DeadlockError):
    """Deadlock where every blocked rank is stuck on an unmatched send/recv."""


class ProtocolViolationError(SimulationError):
    """A checkpoint-protocol invariant was broken at runtime."""


class UnsupportedOperationError(SimulationError):
    """Operation not supported by the selected algorithm (2PC + non-blocking)."""


class SnapshotLoadError(SimulationError):
    """Snapshot image is corrupt or has an incompatible version."""
