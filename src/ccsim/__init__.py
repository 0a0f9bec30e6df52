"""ccsim: deterministic simulation of checkpoint coordination for collectives.

The package pairs an MPI-like deterministic runtime with two interchangeable
checkpoint protocols (the collective-clock algorithm and the legacy
two-phase-commit baseline), a coordinator with snapshot/restart, an offline
verifier, and a workload harness.
"""

from .clock import GroupKey, by_label, reached_all_targets
from .coordinator import CheckpointCoordinator, SnapshotImage, make_protocol, restart
from .cc import CcState, CollectiveClockProtocol, TargetUpdateMsg
from .driver import RunResult, compare, load_scenario, run, run_restart
from .errors import (
    CollectiveMismatchError,
    DeadlockError,
    GenerationError,
    InvalidConfigurationError,
    ProtocolViolationError,
    ScenarioError,
    SimulationError,
    SnapshotLoadError,
    StuckP2pError,
    UnsupportedOperationError,
)
from .explore import ExplorationResult, explore_small
from .metrics import MetricsReport, collect_metrics
from .runtime import (
    NullProtocol,
    ProtocolAdapter,
    RequestObject,
    Simulator,
    barrier_cost,
    checksum_fold,
    collective_cost,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    Op,
    ScenarioProgram,
    builtin_scenario,
    generate_workload,
)
from .twophase import TwoPhaseCommitProtocol
from .verify import (
    Verdict,
    check_clock_skew,
    check_crossing_legality,
    check_hb_acyclic,
    check_replay_equivalence,
    check_safe_state,
)

__version__ = "0.1.0"
