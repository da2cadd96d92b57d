"""Deterministic simulator, reductions, and trace checkers for crash-prone
shared-memory agreement objects (immediate snapshot, k-immediate snapshot,
set agreement, consensus)."""

from .checkers import (
    CheckReport,
    Verdict,
    check_consensus_linearizable,
    check_is,
    check_theorem1,
    check_xsa,
    object_history,
    validate_trace,
)
from .core import (
    Ctx,
    Instance,
    RandomSchedule,
    ReplaySchedule,
    RunResult,
    SimError,
    run,
    run_random,
)
from .experiments import (
    BlockingReport,
    EquivalenceReport,
    MatrixCell,
    MatrixReport,
    equivalence_zone,
    render_matrix,
    run_blocking_demo,
    run_equivalence_suite,
    run_matrix,
    sweep,
    trial_seed,
)
from .explore import count_runs, enumerate_runs
from .objects import (
    ConsState,
    KisState,
    ObjectError,
    consensus_propose,
    is_write_snapshot,
    kis_commit_batch,
    kis_invoke,
)
from .primitives import (
    BOTTOM,
    Announce,
    ConsProposeStep,
    KisInvokeStep,
    ScanStep,
    WaitAnyStep,
    WriteStep,
)
from .reductions import (
    CATALOG,
    AlgoSpec,
    default_inputs,
    make_instance,
    standard_reports,
    xsa_bound,
)
from .simulation import (
    Partition,
    SimulationCheck,
    build_simulation,
    check_simulation_trace,
    extract_inner_trace,
    make_partition,
    max_concurrent_inside,
    simulate,
)
from .trace import (
    BLOCKED,
    CRASHED,
    RETURNED,
    Event,
    Trace,
    TraceParseError,
    read_schedule,
    read_trace,
    trace_from_jsonl,
    trace_to_jsonl,
    write_schedule,
    write_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
