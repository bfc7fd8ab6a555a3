"""DomainNet: homograph detection for data lake disambiguation.

Reproduction of Leventidis et al., EDBT 2021 (arXiv:2103.09940).

Public surface::

    from repro import DataLake, DetectRequest, HomographIndex, Table

    lake = DataLake([Table.from_columns("zoo", {"name": [...], ...})])
    index = HomographIndex(lake)
    response = index.detect(DetectRequest(measure="betweenness"))
    print(response.ranking.top_values(10))

    index.detect(measure="betweenness")      # served from the score cache
    index.add_table(new_table)               # invalidates graph + caches
    payload = response.to_json()             # round-trips via from_json

Third-party centralities plug in through the measure registry::

    from repro import MeasureOutput, register_measure

    @register_measure("degree")
    def degree(graph, request):
        return MeasureOutput(scores={...}, descending=True)

Sub-packages
------------
``repro.api``
    Stateful :class:`HomographIndex`, measure registry, typed
    request/response objects with JSON serialization.
``repro.core``
    Bipartite graph, LCC / betweenness measures, ranking.
``repro.perf``
    Parallel compute engine: execution backends (serial /
    shared-memory multi-process, per-call or persistent pools),
    chunking, tree reductions.
``repro.serving``
    Serving primitives: single-flight request coalescing used by
    :class:`HomographIndex` to serve concurrent traffic.
``repro.cluster``
    Replicated serving: oplog-based mutation replay, a replica
    supervisor, and a read-balancing router over one snapshot
    (``domainnet cluster``).
``repro.snapshot``
    Snapshot persistence: versioned on-disk artifacts
    (``index.save`` / ``HomographIndex.load``) for millisecond
    cold-starts and runtime lake mount/unmount.
``repro.datalake``
    Tables, lakes, CSV I/O, profiling, catalog statistics.
``repro.domains``
    The D4 domain-discovery baseline (Ota et al., PVLDB 2020).
``repro.bench``
    Benchmark generators: SB, TUS-like, TUS-I injection, adversarial
    homoglyph forging, scale lakes.
``repro.eval``
    Precision/recall metrics and the per-figure experiment runners.
"""

from .core import (
    BipartiteGraph,
    HomographRanking,
    RankedValue,
    RankingPage,
    SkeletonIndex,
    betweenness_score_map,
    betweenness_scores,
    build_graph,
    build_graph_from_columns,
    lcc_score_map,
    lcc_scores,
    normalize_value,
    skeleton,
)
from .datalake import (
    Column,
    DataLake,
    Table,
    dump_lake,
    load_lake,
    read_table,
    write_table,
)
from .api import (
    CacheInfo,
    DetectRequest,
    DetectResponse,
    DuplicateLakeError,
    DuplicateMeasureError,
    HomographIndex,
    Measure,
    MeasureError,
    MeasureOutput,
    UnknownLakeError,
    UnknownMeasureError,
    Workspace,
    WorkspaceError,
    available_measures,
    register_measure,
    unregister_measure,
)
from .perf import (
    ExecutionBackend,
    ExecutionConfig,
    ProcessBackend,
    SerialBackend,
    available_cores,
    resolve_backend,
    use_backend,
)
from .serving import (
    HomographClient,
    HomographHTTPServer,
    JobFailed,
    JobManager,
    JobOverflowError,
    ServiceError,
    ServiceUnavailable,
    SingleFlight,
    UnknownJobError,
    start_server,
)
from .snapshot import (
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotVersionError,
    is_snapshot,
    load_snapshot,
)
from .cluster import (
    ClusterRouter,
    MutationLog,
    OplogError,
    OplogFollower,
    ReplicaSupervisor,
    ReplicaVersionMismatch,
    start_cluster,
)

__version__ = "3.1.0"

__all__ = [
    "BipartiteGraph",
    "CacheInfo",
    "ClusterRouter",
    "Column",
    "DataLake",
    "DetectRequest",
    "DetectResponse",
    "DuplicateLakeError",
    "DuplicateMeasureError",
    "ExecutionBackend",
    "ExecutionConfig",
    "HomographClient",
    "HomographHTTPServer",
    "HomographIndex",
    "HomographRanking",
    "JobFailed",
    "JobManager",
    "JobOverflowError",
    "Measure",
    "MeasureError",
    "MeasureOutput",
    "MutationLog",
    "OplogError",
    "OplogFollower",
    "ProcessBackend",
    "RankedValue",
    "RankingPage",
    "ReplicaSupervisor",
    "ReplicaVersionMismatch",
    "SerialBackend",
    "ServiceError",
    "ServiceUnavailable",
    "SingleFlight",
    "SkeletonIndex",
    "SnapshotCorruptionError",
    "SnapshotError",
    "SnapshotVersionError",
    "Table",
    "UnknownJobError",
    "UnknownLakeError",
    "UnknownMeasureError",
    "Workspace",
    "WorkspaceError",
    "available_cores",
    "available_measures",
    "betweenness_score_map",
    "betweenness_scores",
    "build_graph",
    "build_graph_from_columns",
    "dump_lake",
    "is_snapshot",
    "lcc_score_map",
    "lcc_scores",
    "load_lake",
    "load_snapshot",
    "normalize_value",
    "read_table",
    "register_measure",
    "resolve_backend",
    "skeleton",
    "start_cluster",
    "start_server",
    "unregister_measure",
    "use_backend",
    "write_table",
    "__version__",
]
