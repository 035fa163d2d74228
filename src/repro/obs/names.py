"""Generated registry of span and metric names.  DO NOT EDIT.

Every span/counter/gauge/histogram name emitted anywhere under
``src/repro`` -- regenerate with ``python -m repro analyze
--write-names`` after intentionally adding or renaming one, and CI
runs ``--check-names`` to keep this file fresh.  Import the constants
instead of repeating the strings:

    from repro.obs.names import SPAN_FLOW_PLACE, CTR_CACHE_MISSES

``*_PREFIXES`` lists the registered dynamic-name families: an f-string
name is legal when its literal prefix falls under one of them.
"""


SPAN_BENCH = "bench"
SPAN_CACHE_LOOKUP = "cache.lookup"
SPAN_CHIP = "chip"
SPAN_CHIP_AGGREGATE = "chip.aggregate"
SPAN_CHIP_ASSEMBLE = "chip.assemble"
SPAN_CHIP_BLOCKS = "chip.blocks"
SPAN_CHIP_BUDGET = "chip.budget"
SPAN_ECO_CLOSE = "eco.close"
SPAN_ECO_ROUND = "eco.round"
SPAN_EXPERIMENT = "experiment"
SPAN_FAULT_INJECTED = "fault.injected"
SPAN_FLOW = "flow"
SPAN_FLOW_DETAILED_ROUTE = "flow.detailed_route"
SPAN_FLOW_ECO = "flow.eco"
SPAN_FLOW_GENERATE = "flow.generate"
SPAN_FLOW_OPTIMIZE = "flow.optimize"
SPAN_FLOW_PLACE = "flow.place"
SPAN_FLOW_POWER = "flow.power"
SPAN_OPT_POWER_STAGE = "opt.power_stage"
SPAN_OPT_TIMING_STAGE = "opt.timing_stage"
SPAN_PLACE_GLOBAL = "place.global"
SPAN_PLACE_LEGALIZE = "place.legalize"
SPAN_PLACE_PARTITION = "place.partition"
SPAN_PLACE_SOLVE = "place.solve"
SPAN_SERVICE_POINT = "service.point"
SPAN_SERVICE_REQUEST = "service.request"
SPAN_STA_RETIME = "sta.retime"
SPAN_TASK_CRASH = "task.crash"
SPAN_TASK_GAVE_UP = "task.gave_up"
SPAN_TASK_LAUNCH = "task.launch"
SPAN_TASK_RETRY = "task.retry"
SPAN_TASK_TIMEOUT = "task.timeout"

SPAN_NAMES = (
    SPAN_BENCH,
    SPAN_CACHE_LOOKUP,
    SPAN_CHIP,
    SPAN_CHIP_AGGREGATE,
    SPAN_CHIP_ASSEMBLE,
    SPAN_CHIP_BLOCKS,
    SPAN_CHIP_BUDGET,
    SPAN_ECO_CLOSE,
    SPAN_ECO_ROUND,
    SPAN_EXPERIMENT,
    SPAN_FAULT_INJECTED,
    SPAN_FLOW,
    SPAN_FLOW_DETAILED_ROUTE,
    SPAN_FLOW_ECO,
    SPAN_FLOW_GENERATE,
    SPAN_FLOW_OPTIMIZE,
    SPAN_FLOW_PLACE,
    SPAN_FLOW_POWER,
    SPAN_OPT_POWER_STAGE,
    SPAN_OPT_TIMING_STAGE,
    SPAN_PLACE_GLOBAL,
    SPAN_PLACE_LEGALIZE,
    SPAN_PLACE_PARTITION,
    SPAN_PLACE_SOLVE,
    SPAN_SERVICE_POINT,
    SPAN_SERVICE_REQUEST,
    SPAN_STA_RETIME,
    SPAN_TASK_CRASH,
    SPAN_TASK_GAVE_UP,
    SPAN_TASK_LAUNCH,
    SPAN_TASK_RETRY,
    SPAN_TASK_TIMEOUT,
)
SPAN_PREFIXES = ()

CTR_ANALYZE_RUNS = "analyze.runs"
CTR_CACHE_CORRUPT_DROPS = "cache.corrupt_drops"
CTR_CACHE_DISK_HITS = "cache.disk_hits"
CTR_CACHE_MEMORY_HITS = "cache.memory_hits"
CTR_CACHE_MISSES = "cache.misses"
CTR_CACHE_STORES = "cache.stores"
CTR_CHIP_3D_CONNECTIONS = "chip.3d_connections"
CTR_CHIP_BUILDS = "chip.builds"
CTR_CTS_SUBTREES_BUILT = "cts.subtrees_built"
CTR_CTS_SUBTREES_REUSED = "cts.subtrees_reused"
CTR_ECO_DERIVED_DESIGNS = "eco.derived_designs"
CTR_ECO_LEGALIZE_FAILURES = "eco.legalize_failures"
CTR_ECO_MOVES_APPLIED = "eco.moves_applied"
CTR_ECO_ROUNDS = "eco.rounds"
CTR_ECO_SESSIONS = "eco.sessions"
CTR_FAULTS_INJECTED = "faults.injected"
CTR_FLOW_BLOCKS_REUSED = "flow.blocks_reused"
CTR_FLOW_PLACEMENTS_REUSED = "flow.placements_reused"
CTR_FLOW_VIAS_F2F = "flow.vias.f2f"
CTR_FLOW_VIAS_TSV = "flow.vias.tsv"
CTR_LINT_RUNS = "lint.runs"
CTR_OPT_BUFFERS_INSERTED = "opt.buffers_inserted"
CTR_OPT_CELLS_DOWNSIZED = "opt.cells_downsized"
CTR_OPT_CELLS_UPSIZED = "opt.cells_upsized"
CTR_OPT_FULL_REROUTES = "opt.full_reroutes"
CTR_OPT_HVT_SWAPS = "opt.hvt_swaps"
CTR_OPT_ROUNDS = "opt.rounds"
CTR_PLACE_CELLS_LEGALIZED = "place.cells_legalized"
CTR_PLACE_PARTITIONS_UNBALANCED = "place.partitions_unbalanced"
CTR_PLACE_QP_SOLVES = "place.qp_solves"
CTR_PLACE_SPREAD_CALLS = "place.spread_calls"
CTR_ROUTE_NETS_EXTRACTED_BATCH = "route.nets_extracted_batch"
CTR_ROUTE_NETS_REEXTRACTED = "route.nets_reextracted"
CTR_ROUTE_NETS_REROUTED = "route.nets_rerouted"
CTR_SERVICE_CANCELLED = "service.cancelled"
CTR_SERVICE_COALESCED = "service.coalesced"
CTR_SERVICE_COMPUTED = "service.computed"
CTR_SERVICE_DISCONNECTS = "service.disconnects"
CTR_SERVICE_DROPPED = "service.dropped"
CTR_SERVICE_FAILED = "service.failed"
CTR_SERVICE_POINTS = "service.points"
CTR_SERVICE_REQUESTS = "service.requests"
CTR_SERVICE_RESULT_HITS = "service.result_hits"
CTR_STA_FULL_REBUILDS = "sta.full_rebuilds"
CTR_STA_GRAPH_BUILDS = "sta.graph_builds"
CTR_STA_LEVELS = "sta.levels"
CTR_STA_TOPOLOGY_PATCHES = "sta.topology_patches"
CTR_STA_VECTOR_PASSES = "sta.vector_passes"
CTR_TASKS_CRASHED = "tasks.crashed"
CTR_TASKS_FAILED = "tasks.failed"
CTR_TASKS_RETRIED = "tasks.retried"
CTR_TASKS_TIMED_OUT = "tasks.timed_out"

CTR_NAMES = (
    CTR_ANALYZE_RUNS,
    CTR_CACHE_CORRUPT_DROPS,
    CTR_CACHE_DISK_HITS,
    CTR_CACHE_MEMORY_HITS,
    CTR_CACHE_MISSES,
    CTR_CACHE_STORES,
    CTR_CHIP_3D_CONNECTIONS,
    CTR_CHIP_BUILDS,
    CTR_CTS_SUBTREES_BUILT,
    CTR_CTS_SUBTREES_REUSED,
    CTR_ECO_DERIVED_DESIGNS,
    CTR_ECO_LEGALIZE_FAILURES,
    CTR_ECO_MOVES_APPLIED,
    CTR_ECO_ROUNDS,
    CTR_ECO_SESSIONS,
    CTR_FAULTS_INJECTED,
    CTR_FLOW_BLOCKS_REUSED,
    CTR_FLOW_PLACEMENTS_REUSED,
    CTR_FLOW_VIAS_F2F,
    CTR_FLOW_VIAS_TSV,
    CTR_LINT_RUNS,
    CTR_OPT_BUFFERS_INSERTED,
    CTR_OPT_CELLS_DOWNSIZED,
    CTR_OPT_CELLS_UPSIZED,
    CTR_OPT_FULL_REROUTES,
    CTR_OPT_HVT_SWAPS,
    CTR_OPT_ROUNDS,
    CTR_PLACE_CELLS_LEGALIZED,
    CTR_PLACE_PARTITIONS_UNBALANCED,
    CTR_PLACE_QP_SOLVES,
    CTR_PLACE_SPREAD_CALLS,
    CTR_ROUTE_NETS_EXTRACTED_BATCH,
    CTR_ROUTE_NETS_REEXTRACTED,
    CTR_ROUTE_NETS_REROUTED,
    CTR_SERVICE_CANCELLED,
    CTR_SERVICE_COALESCED,
    CTR_SERVICE_COMPUTED,
    CTR_SERVICE_DISCONNECTS,
    CTR_SERVICE_DROPPED,
    CTR_SERVICE_FAILED,
    CTR_SERVICE_POINTS,
    CTR_SERVICE_REQUESTS,
    CTR_SERVICE_RESULT_HITS,
    CTR_STA_FULL_REBUILDS,
    CTR_STA_GRAPH_BUILDS,
    CTR_STA_LEVELS,
    CTR_STA_TOPOLOGY_PATCHES,
    CTR_STA_VECTOR_PASSES,
    CTR_TASKS_CRASHED,
    CTR_TASKS_FAILED,
    CTR_TASKS_RETRIED,
    CTR_TASKS_TIMED_OUT,
)
CTR_PREFIXES = (
    "analyze.findings.",
    "faults.injected.",
    "lint.findings.",
)

GAUGE_NAMES = ()

HIST_OPT_BUFFERS_PER_BLOCK = "opt.buffers_per_block"

HIST_NAMES = (
    HIST_OPT_BUFFERS_PER_BLOCK,
)
