"""Lake artifacts inside a snapshot: CSR graph, vocab, scores, tables.

:mod:`repro.snapshot.store` owns the container (atomic writes, hashes,
format gating); this module knows what actually goes inside one and
how to turn it back into live objects:

* ``graph/indptr.npy`` / ``graph/indices.npy`` — the CSR adjacency,
  written with :func:`numpy.save` and loaded with
  ``np.load(mmap_mode="r")`` so a cold start maps the arrays instead
  of rebuilding them (milliseconds instead of a full graph build);
* ``vocab.json`` — value and attribute vocabularies, in node-id order;
* ``lake.json`` — every table, cell for cell, so a loaded index keeps
  the full mutation surface (``add_table`` after a load rebuilds from
  this lake exactly as a fresh index would).  A load reads its bytes
  but parses them only on the lake's first use (a mutation, ``save``,
  a graph rebuild, iteration or a table lookup); ``len()`` answers
  from the manifest's ``tables`` count until then;
* ``profiles.json`` — the attribute profiles
  (:func:`repro.datalake.profiling.profile_attributes`), precomputed
  for catalog consumers;
* ``scores/NNNN.json`` + ``scores/NNNN.npy`` — the per-``(measure,
  config)`` score cache, one pair per entry: the
  :class:`~repro.api.DetectResponse` envelope (with its embedded
  request) plus the value names in rank order, and the float64
  scores in the same order.  Entries are re-keyed on load so
  pre-warmed configurations answer ``cached=True`` byte-for-byte.
  Format 1 stored each entry as one ``scores/NNNN.json`` holding the
  full ``DetectResponse.to_dict()``; such snapshots still load.

Every loader failure surfaces as a typed
:class:`~repro.snapshot.store.SnapshotError` subclass — a truncated
``.npy``, a vocabulary/CSR size mismatch, or a malformed score payload
never leaks a raw numpy/OS exception to the caller.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..api.requests import DetectResponse
from ..core.graph import BipartiteGraph
from ..core.ranking import HomographRanking
from ..datalake.lake import DataLake
from ..datalake.profiling import profile_attributes
from ..datalake.table import Table
from .store import (
    JOBS_DIRNAME,
    OPLOG_NAME,
    SnapshotCorruptionError,
    load_manifest,
    write_snapshot,
)

#: Relative artifact paths inside a snapshot directory.
INDPTR_FILE = "graph/indptr.npy"
INDICES_FILE = "graph/indices.npy"
VOCAB_FILE = "vocab.json"
LAKE_FILE = "lake.json"
PROFILES_FILE = "profiles.json"
SCORES_DIRNAME = "scores"


@dataclass
class LoadedSnapshot:
    """Everything a snapshot load rehydrates, ready for an index.

    ``graph`` holds mmap-backed CSR arrays when the load used
    ``mmap=True`` (the default): the snapshot directory must then
    outlive the graph.  ``lake`` is deferred: it parses the
    ``lake.json`` bytes read at load time on first use.
    ``responses`` are the pre-warmed score-cache entries, each
    carrying its originating request.
    """

    path: Path
    manifest: Dict[str, object]
    lake: DataLake
    graph: BipartiteGraph
    graph_seconds: float
    prune_candidates: bool
    responses: List[DetectResponse] = field(default_factory=list)


def _score_files(position: int) -> Tuple[str, str]:
    """Relative paths of one score-cache entry: envelope, scores."""
    stem = f"{SCORES_DIRNAME}/{position:04d}"
    return f"{stem}.json", f"{stem}.npy"


def _write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, sort_keys=True), encoding="utf-8"
    )


def build_snapshot(
    target: Union[str, os.PathLike],
    lake: DataLake,
    graph: BipartiteGraph,
    prune_candidates: bool,
    graph_seconds: float = 0.0,
    responses: Sequence[DetectResponse] = (),
) -> Dict[str, object]:
    """Write one snapshot atomically; returns the published manifest.

    ``responses`` become the pre-warmed score cache; entries without
    an embedded request are skipped (they could not be re-keyed on
    load).  The runtime ``jobs/`` area is created so a server pointed
    at the snapshot can spill job results immediately — and when the
    snapshot replaces an earlier one at the same path, the previous
    spill files are carried over (best-effort), so re-publishing a
    served snapshot never discards the async jobs a restarted server
    would otherwise restore.

    The replication ``oplog.jsonl`` a primary may have appended next
    to the previous snapshot is deliberately *not* carried over:
    every logged mutation is already baked into the republished
    artifacts, so the republish starts a fresh oplog epoch and
    replicas re-bootstrap from the new snapshot instead of replaying
    a stale log (see ``docs/cluster.md``).
    """
    import shutil
    import time

    from .. import __version__

    kept = [r for r in responses if r.request is not None]

    def stage(staging: Path) -> Dict[str, object]:
        (staging / "graph").mkdir()
        np.save(staging / INDPTR_FILE, graph.indptr)
        np.save(staging / INDICES_FILE, graph.indices)
        _write_json(staging / VOCAB_FILE, {
            "values": graph.value_names,
            "attributes": graph.attribute_names,
        })
        _write_json(staging / LAKE_FILE, {
            "tables": [
                {
                    "name": table.name,
                    "columns": list(table.columns),
                    "rows": [list(row) for row in table.rows],
                }
                for table in lake
            ],
        })
        _write_json(staging / PROFILES_FILE, [
            {
                "qualified_name": profile.qualified_name,
                "table_name": profile.table_name,
                "column_name": profile.column_name,
                "num_rows": profile.num_rows,
                "num_distinct": profile.num_distinct,
                "num_empty": profile.num_empty,
                "kind": profile.kind,
            }
            for profile in profile_attributes(lake)
        ])
        for position, response in enumerate(kept):
            envelope_file, scores_file = _score_files(position)
            envelope = response.to_dict(top=0)
            del envelope["ranking"]
            values, scores = response.ranking.columns()
            envelope["values"] = values
            _write_json(staging / envelope_file, envelope)
            np.save(
                staging / scores_file, np.asarray(scores, dtype=np.float64)
            )
        jobs_staging = staging / JOBS_DIRNAME
        jobs_staging.mkdir()
        previous_jobs = Path(target) / JOBS_DIRNAME
        if previous_jobs.is_dir():
            for spill in sorted(previous_jobs.glob("*.json")):
                try:
                    shutil.copy2(spill, jobs_staging / spill.name)
                except OSError:  # pragma: no cover - best effort
                    pass
        return {
            "library_version": __version__,
            "created_at": time.time(),
            "prune_candidates": bool(prune_candidates),
            "graph": {
                "num_values": graph.num_values,
                "num_attributes": graph.num_attributes,
                "num_edges": graph.num_edges,
                "graph_seconds": float(graph_seconds),
            },
            "scores": len(kept),
            "tables": len(lake),
        }

    return write_snapshot(target, stage)


def _load_array(
    path: Path, relative: str, mmap: bool, dtype=np.int64
) -> np.ndarray:
    """One stored array, mmap-backed or copied, frozen either way."""
    try:
        array = np.load(
            path, mmap_mode="r" if mmap else None, allow_pickle=False
        )
    except (OSError, ValueError) as error:
        raise SnapshotCorruptionError(
            f"snapshot array {relative!r} cannot be loaded: {error}"
        ) from None
    if array.ndim != 1 or array.dtype != dtype:
        raise SnapshotCorruptionError(
            f"snapshot array {relative!r} has shape {array.shape} and "
            f"dtype {array.dtype}; expected one-dimensional "
            f"{np.dtype(dtype)}"
        )
    # mmap_mode="r" arrays are born read-only; freeze copies too so
    # the PR-2 writeable=False invariant holds on every load path.
    array.flags.writeable = False
    return array


def _load_json(root: Path, relative: str) -> object:
    try:
        return json.loads(
            (root / relative).read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError) as error:
        raise SnapshotCorruptionError(
            f"snapshot artifact {relative!r} cannot be parsed: {error}"
        ) from None


def _deferred_lake(root: Path, manifest: Dict[str, object]) -> DataLake:
    """The stored lake, parsed on first use from the bytes read now.

    The bytes are read here, so the mounted index keeps its lake even
    if the snapshot directory is later deleted or republished.
    """
    count = manifest.get("tables")  # recorded since format 2
    valid = type(count) is int and count >= 0
    if not valid and (count is not None or manifest["format"] >= 2):
        raise SnapshotCorruptionError(
            f"snapshot manifest at {root} carries an invalid "
            f"'tables' count: {count!r}"
        )
    try:
        raw = (root / LAKE_FILE).read_bytes()
    except OSError as error:
        raise SnapshotCorruptionError(
            f"snapshot artifact {LAKE_FILE!r} cannot be read: {error}"
        ) from None
    return DataLake.deferred(lambda: _parse_lake(raw, count), count)


def _parse_lake(raw: bytes, count: Optional[int]) -> List[Table]:
    """The tables of ``lake.json``; any defect is a corruption error."""
    try:
        tables = [
            Table(
                name=entry["name"],
                columns=list(entry["columns"]),
                rows=[list(row) for row in entry["rows"]],
            )
            for entry in json.loads(raw)["tables"]
        ]
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotCorruptionError(
            f"snapshot artifact {LAKE_FILE!r} does not describe a "
            f"lake: {error}"
        ) from None
    if count is not None and len(tables) != count:
        raise SnapshotCorruptionError(
            f"snapshot artifact {LAKE_FILE!r} holds {len(tables)} "
            f"tables; the manifest records {count}"
        )
    return tables


def _columns_response(
    payload: Dict[str, object], scores: np.ndarray
) -> DetectResponse:
    """A format-2 entry: envelope plus value names, float64 scores."""
    values = payload["values"]
    if not isinstance(values, list) or not all(
        type(value) is str for value in values
    ):
        raise ValueError("'values' must be a list of strings")
    if scores.shape != (len(values),):
        raise ValueError(
            f"{len(values)} values but {scores.shape[0]} scores"
        )
    ranking = HomographRanking.from_columns(
        values,
        scores.tolist(),
        descending=bool(payload["descending"]),
        measure=str(payload["measure"]),
    )
    return DetectResponse.from_envelope(payload, ranking)


def _load_responses(
    root: Path, count: int, fmt: int
) -> List[DetectResponse]:
    responses = []
    for position in range(count):
        relative, scores_file = _score_files(position)
        payload = _load_json(root, relative)
        try:
            if fmt >= 2:
                response = _columns_response(payload, _load_array(
                    root / scores_file, scores_file, mmap=False,
                    dtype=np.float64,
                ))
            else:
                response = DetectResponse.from_dict(payload)
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotCorruptionError(
                f"snapshot score entry {relative!r} is not a "
                f"DetectResponse payload: {error}"
            ) from None
        if response.request is None:
            raise SnapshotCorruptionError(
                f"snapshot score entry {relative!r} carries no "
                f"request; it cannot be re-keyed into the cache"
            )
        responses.append(response)
    return responses


def load_snapshot(
    path: Union[str, os.PathLike],
    verify: bool = True,
    mmap: bool = True,
) -> LoadedSnapshot:
    """Rehydrate one snapshot directory into live objects.

    ``verify=True`` (default) checks every manifested file's sha256
    before anything is parsed; ``mmap=True`` maps the CSR arrays
    read-only instead of copying them into memory.  All failures
    raise :class:`~repro.snapshot.store.SnapshotError` subclasses —
    those of ``lake.json``'s content at the lake's first use, since
    the load does not parse it.
    """
    root = Path(path)
    manifest = load_manifest(root, verify=verify)
    graph_meta = manifest.get("graph")
    if not isinstance(graph_meta, dict):
        raise SnapshotCorruptionError(
            f"snapshot manifest at {root} carries no 'graph' block"
        )
    vocab = _load_json(root, VOCAB_FILE)
    try:
        value_names = [str(name) for name in vocab["values"]]
        attribute_names = [str(name) for name in vocab["attributes"]]
    except (KeyError, TypeError) as error:
        raise SnapshotCorruptionError(
            f"snapshot artifact {VOCAB_FILE!r} is not a vocabulary: "
            f"{error}"
        ) from None
    indptr = _load_array(root / INDPTR_FILE, INDPTR_FILE, mmap)
    indices = _load_array(root / INDICES_FILE, INDICES_FILE, mmap)
    try:
        graph = BipartiteGraph.from_csr(
            value_names, attribute_names, indptr, indices
        )
    except ValueError as error:
        raise SnapshotCorruptionError(
            f"snapshot CSR arrays are inconsistent with the "
            f"vocabulary: {error}"
        ) from None
    expected = (
        graph_meta.get("num_values"),
        graph_meta.get("num_attributes"),
        graph_meta.get("num_edges"),
    )
    actual = (graph.num_values, graph.num_attributes, graph.num_edges)
    if expected != actual:
        raise SnapshotCorruptionError(
            f"snapshot graph at {root} is "
            f"{actual[0]} values / {actual[1]} attributes / "
            f"{actual[2]} edges; manifest expects "
            f"{expected[0]} / {expected[1]} / {expected[2]}"
        )
    score_count = manifest.get("scores")
    if not isinstance(score_count, int) or score_count < 0:
        raise SnapshotCorruptionError(
            f"snapshot manifest at {root} carries an invalid "
            f"'scores' count: {score_count!r}"
        )
    return LoadedSnapshot(
        path=root,
        manifest=manifest,
        lake=_deferred_lake(root, manifest),
        graph=graph,
        graph_seconds=float(graph_meta.get("graph_seconds", 0.0)),
        prune_candidates=bool(manifest.get("prune_candidates", True)),
        responses=_load_responses(root, score_count, manifest["format"]),
    )


def jobs_dir(path: Union[str, os.PathLike]) -> Optional[Path]:
    """The runtime job-spill directory inside a snapshot, if usable.

    Creates ``<snapshot>/jobs`` when the snapshot exists but the area
    does not (older snapshots); returns ``None`` for paths that are
    not snapshot directories.
    """
    root = Path(path)
    from .store import is_snapshot

    if not is_snapshot(root):
        return None
    area = root / JOBS_DIRNAME
    try:
        area.mkdir(exist_ok=True)
    except OSError:
        return None
    return area


def oplog_path(path: Union[str, os.PathLike]) -> Optional[Path]:
    """Where a primary's replication oplog lives inside a snapshot.

    Returns ``<snapshot>/oplog.jsonl`` (the file itself may not exist
    yet — :class:`~repro.cluster.MutationLog` creates it), or ``None``
    for paths that are not snapshot directories.  Like ``jobs/``, the
    oplog is runtime state: it is excluded from manifest hashing and
    is *not* carried over when the snapshot is republished.
    """
    root = Path(path)
    from .store import is_snapshot

    if not is_snapshot(root):
        return None
    return root / OPLOG_NAME
