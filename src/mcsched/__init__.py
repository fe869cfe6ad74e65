"""Mixed-criticality scheduling on identical multiprocessors: fixed-priority
response-time analysis, an event-driven simulator with budget monitoring and
criticality-mode changes, independent trace checkers, and random workload
generation."""

from .model import (
    FormatError,
    LevelOutOfRange,
    MCTask,
    Platform,
    Scenario,
    TaskSet,
    ValidationError,
    dump_scenario,
    dump_taskset,
    id_key,
    load_scenario,
    load_taskset,
    scenario_from_dict,
    scenario_to_dict,
    taskset_from_dict,
    taskset_to_dict,
    validate_scenario,
    validate_taskset,
)
from .analysis import (
    AnalysisResult,
    Divergent,
    InterferenceBound,
    PriorityAssignment,
    dm_fallback,
    interfering_bounds,
    opa_assign,
    total_interfering,
    uniprocessor_rta,
    wcrt,
    workload_ci,
    workload_nc,
)
from .sim import (
    PROTOCOLS,
    REM_ORDERS,
    InconsistentInputs,
    InvalidTarget,
    ModelViolation,
    ProtocolConfig,
    Trace,
    simulate,
    trace_from_jsonl,
)
from .verify import (
    FeasibilityReport,
    ParameterTooLarge,
    PeriodicityReport,
    ReclaimReport,
    Report,
    ResponseReport,
    brute_force_workload,
    check_feasibility,
    check_periodicity,
    check_reclaim,
    check_response_bounds,
    check_run,
    compute_l_intervals,
    enumerate_basic_scenarios,
    level_at,
    metrics,
)
from .gen import (
    GenParams,
    Infeasible,
    SplitMix64,
    child_seed,
    gen_scenario,
    gen_taskset,
    uunifast,
    uunifast_discard,
)

__version__ = "0.1.0"
