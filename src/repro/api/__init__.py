"""Service-ready detection API: stateful index, registry, typed configs.

This package is the public entry point for applications.  It wraps the
batch pipeline in :mod:`repro.core` with the three things a serving
layer needs:

* :class:`HomographIndex` — construct once from a lake, serve many
  queries with per-``(measure, config)`` score caching, single-flight
  coalescing of concurrent duplicate requests, incremental
  ``add_table``/``remove_table``, and an explicit ``close()`` /
  context-manager lifecycle for the persistent worker pool;
* :class:`Workspace` — a named set of indexes (one per lake) sharing
  one persistent worker pool, the in-process core of multi-lake
  serving;
* a pluggable measure registry (:func:`register_measure`) with
  betweenness and LCC as built-ins;
* typed :class:`DetectRequest`/:class:`DetectResponse` objects with
  ``to_json``/``from_json`` round-trip serialization.

See ``docs/serving.md`` for the serving guide and ``docs/api.md`` for
the full reference.
"""

from .index import CacheInfo, HomographIndex
from .measures import (
    DuplicateMeasureError,
    Measure,
    MeasureError,
    MeasureOutput,
    UnknownMeasureError,
    available_measures,
    check_request,
    get_measure,
    register_measure,
    run_measure,
    unregister_measure,
)
from .requests import SCHEMA_VERSION, DetectRequest, DetectResponse
from .workspace import (
    DuplicateLakeError,
    UnknownLakeError,
    Workspace,
    WorkspaceError,
    validate_lake_name,
    validate_lake_quota,
)

__all__ = [
    "CacheInfo",
    "DetectRequest",
    "DetectResponse",
    "DuplicateLakeError",
    "DuplicateMeasureError",
    "HomographIndex",
    "Measure",
    "MeasureError",
    "MeasureOutput",
    "SCHEMA_VERSION",
    "UnknownLakeError",
    "UnknownMeasureError",
    "Workspace",
    "WorkspaceError",
    "available_measures",
    "check_request",
    "get_measure",
    "register_measure",
    "run_measure",
    "unregister_measure",
    "validate_lake_name",
    "validate_lake_quota",
]
