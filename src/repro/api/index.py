"""The stateful :class:`HomographIndex` — construct once, query many.

A service cannot afford to rebuild and rescore from scratch on every
query.  The index keeps the lake, builds the bipartite graph lazily,
caches scores per ``(measure, config)``, and supports incremental
``add_table``/``remove_table``/``replace_table`` that *splice* the
delta into the built graph and patch the cached scores in place —
O(delta) per mutation, bit-identical to a from-scratch rebuild — with
full invalidation as the always-correct fallback::

    from repro import DetectRequest, HomographIndex

    index = HomographIndex(lake)
    response = index.detect(DetectRequest(measure="betweenness",
                                          sample_size=1000, seed=7))
    index.detect(measure="betweenness", sample_size=1000, seed=7)  # cache hit
    index.add_table(new_table)       # CSR splice + scoped score patch
    index.detect(measure="lcc")      # served from the patched cache
    index.last_mutation              # delta stats of the add

Graph construction is deferred until a query (or the ``graph``
property) needs it, so a burst of ``add_table`` calls costs one
rebuild, not N.

The index is a *serving* object: :meth:`detect` is thread-safe, and
concurrent calls for the same ``(measure, config)`` are coalesced into
one computation (single-flight) — the first caller computes, the rest
block and share the result.  When constructed with a persistent
execution config (``ExecutionConfig(n_jobs=4, persistent=True)``) the
index owns one long-lived worker pool shared by every query, which
must be released through the explicit lifecycle::

    with HomographIndex(lake, execution=cfg) as index:
        index.detect(measure="betweenness")   # forks the pool
        index.detect(measure="lcc")           # reuses the warm pool
    # pool and shared-memory export released here

:meth:`asubmit` and :meth:`detect_many` queue requests onto that
shared pool from background threads instead of spinning machinery per
call.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.builder import build_graph
from ..core.communities import MeaningEstimate, estimate_meanings
from ..core.delta import LakeLedger, plan_mutation, table_column_counts
from ..core.errors import HomographClassification, classify_homographs
from ..core.graph import BipartiteGraph
from ..core.ranking import HomographRanking
from ..datalake.lake import DataLake
from ..datalake.table import Table
from ..perf.backends import (
    ExecutionBackend,
    SerialBackend,
    backend_stats,
    resolve_backend,
    use_backend,
)
from ..perf.config import ExecutionConfig
# Submodule import (not the package) keeps repro.api importable from
# repro.serving.http / .client, which import this package in turn.
from ..serving.singleflight import SingleFlight
from .maintenance import affected_nodes, patch_entry
from .measures import run_measure
from .requests import DetectRequest, DetectResponse

#: Threads used by :meth:`HomographIndex.asubmit`/``detect_many`` to
#: drive requests concurrently.  Kernel work happens in the worker
#: *processes*; these threads only orchestrate, so a small pool is
#: plenty.
_DISPATCH_THREADS = 4


@dataclass(frozen=True)
class CacheInfo:
    """Score-cache statistics, in the spirit of ``functools.lru_cache``.

    ``coalesced`` counts calls that joined another caller's in-flight
    computation (single-flight followers); they are neither hits nor
    misses — no cached entry existed yet, but nothing was recomputed.
    """

    hits: int
    misses: int
    size: int
    coalesced: int = 0


@dataclass
class _CacheEntry:
    """One stored score-cache slot.

    ``generation`` records which graph generation the response was
    computed (or last patched) against — the eager-eviction invariant
    is that every live entry's generation equals the index's.
    ``state`` is the measure's opaque maintenance payload
    (``MeasureOutput.state``), ``None`` for snapshot-loaded entries
    and custom measures, which delta mutation therefore evicts.
    """

    response: DetectResponse
    generation: int
    state: Optional[object] = None


def _execute_request(
    graph: BipartiteGraph,
    request: DetectRequest,
    graph_seconds: float = 0.0,
    state_out: Optional[Dict] = None,
) -> DetectResponse:
    """Run one detection request against a pre-built graph (no caching).

    The stateless core of :meth:`HomographIndex.detect`.  ``state_out``,
    when given, receives the measure's maintenance payload under
    ``"state"`` so the caller can patch the result across lake
    mutations.
    """
    start = time.perf_counter()
    output = run_measure(graph, request)
    measure_seconds = time.perf_counter() - start
    if state_out is not None:
        state_out["state"] = output.state
    ranking = HomographRanking(
        output.scores, descending=output.descending, measure=request.measure
    )
    return DetectResponse(
        measure=request.measure,
        ranking=ranking,
        scores=ranking.scores,
        descending=output.descending,
        graph_seconds=graph_seconds,
        measure_seconds=measure_seconds,
        parameters=dict(output.parameters),
        cached=False,
        request=request,
    )


class HomographIndex:
    """A queryable homograph index over a (mutable) data lake.

    Parameters
    ----------
    lake:
        The lake to index; an empty one is created when omitted.  The
        index holds a reference (not a copy): mutate through
        :meth:`add_table`/:meth:`remove_table` so caches stay honest,
        or call :meth:`invalidate` after mutating the lake directly.
    prune_candidates:
        ``True`` (default) applies the paper's preprocessing — drop
        values occurring only once in the whole lake.  ``False`` keeps
        every value node (Example 3.6 reproduction).
    execution:
        Default :class:`~repro.perf.ExecutionConfig` applied to every
        :meth:`detect` call whose request does not carry its own.
        ``None`` (default) scores serially.  ``ExecutionConfig(
        n_jobs=4)`` fans score computations across worker processes
        (one pool per call); add ``persistent=True`` and the index
        keeps one warm pool plus the shared-memory graph export alive
        across calls — release it with :meth:`close` or by using the
        index as a context manager.  Execution never changes scores,
        so it does not participate in the score-cache key.
    backend:
        An externally-owned :class:`~repro.perf.ExecutionBackend` the
        index routes its queries through instead of resolving its own
        from ``execution``.  The owner (e.g. a multi-lake
        :class:`~repro.api.Workspace` sharing one pool across
        indexes) keeps the backend's lifecycle: :meth:`close` releases
        this index's shared-memory graph export but never tears the
        backend down.

    Thread safety
    -------------
    :meth:`detect`, the mutation methods, and the cache accessors may
    be called from multiple threads.  Concurrent ``detect`` calls with
    the same cache key coalesce into a single computation; distinct
    keys run independently (and share the persistent pool, when one is
    configured).
    """

    def __init__(
        self,
        lake: Optional[DataLake] = None,
        prune_candidates: bool = True,
        execution: Optional[ExecutionConfig] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self._lake = lake if lake is not None else DataLake()
        self._prune_candidates = prune_candidates
        self._execution = execution
        self._graph: Optional[BipartiteGraph] = None
        self._graph_seconds = 0.0
        self._unpruned_graph: Optional[BipartiteGraph] = None
        self._score_cache: Dict[Tuple, _CacheEntry] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._coalesced = 0
        # Delta-mutation state: the lake ledger (occurrence counts +
        # rebuild-order ranks) is built lazily before the first delta
        # splice and maintained in O(delta) afterwards; it is dropped
        # whenever the graph is (invalidate / fallback).  The last
        # mutation's delta statistics are kept for stats()/serving.
        self._ledger: Optional[LakeLedger] = None
        self._last_mutation: Optional[Dict[str, object]] = None
        # Serving state: one reentrant lock guards every mutable field
        # above; the single-flight group deduplicates concurrent
        # computations; generation stamps detect() runs so a result
        # computed against a lake that mutated mid-flight is served to
        # its waiters but never stored.
        self._lock = threading.RLock()
        self._singleflight = SingleFlight()
        self._generation = 0
        self._backend: Optional[ExecutionBackend] = backend
        # A backend handed in from outside stays the owner's: the
        # index uses it but must never close it (only release its own
        # graph export on invalidation / close).
        self._owns_backend = backend is None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        # Set by :meth:`load`: the snapshot directory whose mmap-backed
        # CSR arrays the graph may hold views over.  close() drops the
        # graph then, so the directory's file handles are released and
        # the snapshot can be deleted even on strict filesystems.
        self._snapshot_path = None
        # Admission control: detect() calls that passed the closed
        # check are counted here; close() rejects new calls, then
        # waits on `_drained` for the admitted ones to finish before
        # tearing the backend down under them.
        self._active = 0
        self._drained = threading.Condition(self._lock)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_directory(
        cls, directory, prune_candidates: bool = True
    ) -> "HomographIndex":
        """Index every ``*.csv`` table under ``directory``."""
        from ..datalake.csv_io import load_lake

        return cls(load_lake(directory), prune_candidates=prune_candidates)

    # ------------------------------------------------------------------
    # Snapshot persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Dict[str, object]:
        """Publish this index as an on-disk snapshot; returns its manifest.

        Writes the lake, the (lazily built, if needed) CSR graph, the
        vocabularies, attribute profiles, and every cached
        ``(measure, config)`` response into ``path`` atomically — a
        staging directory is hashed, manifested, fsynced, and renamed
        into place, so a crash never leaves a torn snapshot.  Load it
        back with :meth:`load` (or mount it via
        ``Workspace.attach(name, path)``) to skip the graph build and
        serve the cached configurations with ``cached=True``
        immediately.
        """
        from ..snapshot.artifacts import build_snapshot

        with self._lock:
            graph = self.graph  # built lazily under the same RLock
            graph_seconds = self._graph_seconds
            lake = self._lake
            prune = self._prune_candidates
            responses = [
                entry.response for entry in self._score_cache.values()
            ]
        return build_snapshot(
            path,
            lake=lake,
            graph=graph,
            prune_candidates=prune,
            graph_seconds=graph_seconds,
            responses=responses,
        )

    @classmethod
    def load(
        cls,
        path,
        execution: Optional[ExecutionConfig] = None,
        backend: Optional[ExecutionBackend] = None,
        verify: bool = True,
        mmap: bool = True,
    ) -> "HomographIndex":
        """Rehydrate an index from a :meth:`save` snapshot.

        The graph build is skipped: with ``mmap=True`` (default) the
        CSR arrays are mapped read-only straight from the snapshot
        files, so a cold start costs a manifest check plus two mmaps
        instead of a full rebuild.  The score cache is pre-warmed with
        every stored response — repeating a stored configuration
        answers ``cached=True`` with byte-identical payloads.
        ``verify=False`` skips the sha256 content-hash pass (format
        and structural checks still run); ``execution``/``backend``
        mirror the constructor.  Raises a typed
        :class:`~repro.snapshot.SnapshotError` subclass on any
        corrupt, truncated, or future-format snapshot.
        """
        from ..snapshot.artifacts import load_snapshot

        loaded = load_snapshot(path, verify=verify, mmap=mmap)
        index = cls(
            loaded.lake,
            prune_candidates=loaded.prune_candidates,
            execution=execution,
            backend=backend,
        )
        index._graph = loaded.graph
        index._graph_seconds = loaded.graph_seconds
        for response in loaded.responses:
            # Snapshot responses carry no maintenance state (it never
            # serializes), so the first delta mutation evicts them.
            index._score_cache[response.request.cache_key] = _CacheEntry(
                response=response, generation=0, state=None
            )
        index._snapshot_path = loaded.path
        return index

    @property
    def snapshot_path(self):
        """The snapshot directory this index was loaded from, if any."""
        return self._snapshot_path

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def lake(self) -> DataLake:
        """The underlying data lake (held by reference)."""
        return self._lake

    @property
    def prune_candidates(self) -> bool:
        """Whether the paper's min-occurrence pruning is applied."""
        return self._prune_candidates

    @property
    def execution(self) -> Optional[ExecutionConfig]:
        """The index-level default execution configuration."""
        return self._execution

    @property
    def graph(self) -> BipartiteGraph:
        """The bipartite graph, built lazily on first access."""
        with self._lock:
            if self._graph is None:
                start = time.perf_counter()
                self._graph = build_graph(
                    self._lake,
                    min_occurrences=2 if self._prune_candidates else 1,
                )
                self._graph_seconds = time.perf_counter() - start
            return self._graph

    @property
    def graph_seconds(self) -> float:
        """Build time of the current graph (0.0 until first build)."""
        return self._graph_seconds

    @property
    def unpruned_graph(self) -> BipartiteGraph:
        """The full graph with every value node, for error triage.

        Identical to :attr:`graph` when ``prune_candidates=False``;
        otherwise built once on demand and cached until the lake
        changes.
        """
        if not self._prune_candidates:
            return self.graph
        with self._lock:
            if self._unpruned_graph is None:
                self._unpruned_graph = build_graph(self._lake)
            return self._unpruned_graph

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Add a table, splicing the delta into graph and score caches.

        With a built graph the mutation is O(delta): the CSR arrays are
        patched via :meth:`~repro.core.graph.BipartiteGraph.splice_rows`
        and cached scores are maintained in place (bit-identical to a
        rebuild) instead of dropped.  Without one — or when the delta
        planner declines — the caches invalidate as before and the next
        query rebuilds.  :attr:`last_mutation` reports which path ran.
        """
        with self._lock:
            if self._graph is None:
                self._lake.add_table(table)
                self._mutate_fallback("add", table.name, "graph-unbuilt")
                return
            self._ensure_ledger()
            added = table_column_counts(table)
            self._lake.add_table(table)
            self._delta_mutate("add", table.name, [], added)

    def remove_table(self, name: str) -> Table:
        """Remove and return a table; delta semantics of :meth:`add_table`."""
        with self._lock:
            if self._graph is None:
                table = self._lake.remove_table(name)
                self._mutate_fallback("remove", name, "graph-unbuilt")
                return table
            self._ensure_ledger()
            table = self._lake.remove_table(name)
            removed = table_column_counts(table)
            self._delta_mutate("remove", name, removed, [])
            return table

    def replace_table(self, table: Table) -> None:
        """Replace the same-named table; delta semantics of :meth:`add_table`.

        The replace is normalized to "all old columns removed, all new
        columns added" — same-named columns may still differ in content.
        """
        with self._lock:
            if self._graph is None:
                self._lake.replace_table(table)
                self._mutate_fallback("replace", table.name, "graph-unbuilt")
                return
            self._ensure_ledger()
            old = self._lake.table(table.name)
            removed = table_column_counts(old)
            added = table_column_counts(table)
            self._lake.replace_table(table)
            self._delta_mutate("replace", table.name, removed, added)

    @property
    def last_mutation(self) -> Optional[Dict[str, object]]:
        """Delta statistics of the most recent table mutation.

        ``None`` until the first mutation; otherwise a JSON-safe dict
        with ``op``, ``table``, ``delta_values``, ``delta_edges``,
        ``recomputed_sources``, ``splice_seconds``, ``patched_entries``,
        ``evicted_entries``, ``generation``, and ``fallback`` (``None``
        when the splice path ran, else the reason the mutation fell
        back to full invalidation).
        """
        with self._lock:
            return dict(self._last_mutation) if self._last_mutation else None

    def _min_occurrences(self) -> int:
        """The graph build threshold this index uses."""
        return 2 if self._prune_candidates else 1

    def _ensure_ledger(self) -> None:
        """Build the lake ledger (pre-mutation state) if absent."""
        if self._ledger is None:
            self._ledger = LakeLedger.from_lake(self._lake)

    def _patch_backend(self) -> ExecutionBackend:
        """The backend score maintenance runs on.

        A live persistent backend serves the delta recomputes from its
        warm pool and keyed export; otherwise maintenance runs serially
        — the recompute is shipped as a single ordered chunk either
        way, so the backend choice never changes the bits.
        """
        backend = self._backend
        if backend is not None and getattr(backend, "persistent", False):
            return backend
        return SerialBackend()

    def _mutate_fallback(self, op: str, name: str, reason: str) -> None:
        """Record a mutation served by full invalidation (caller locked)."""
        self._ledger = None
        self.invalidate()
        self._last_mutation = {
            "op": op,
            "table": name,
            "fallback": reason,
            "delta_values": None,
            "delta_edges": None,
            "recomputed_sources": None,
            "splice_seconds": None,
            "patched_entries": 0,
            "evicted_entries": 0,
            "generation": self._generation,
        }

    def _delta_mutate(
        self, op: str, name: str, removed: list, added: list
    ) -> None:
        """Splice one applied lake mutation into graph + score caches.

        Called under the lock with the lake already mutated and the
        ledger still describing the pre-mutation state.  Plans the
        splice, patches every cached entry that supports maintenance
        (evicting the rest — including any entry from a superseded
        generation, so a churning lake cannot grow the cache), and
        commits graph, caches, and generation atomically.  Any failure
        degrades to :meth:`_mutate_fallback`, which is always correct.
        """
        start = time.perf_counter()
        try:
            spec = plan_mutation(
                self._graph, self._ledger, self._lake,
                removed, added, self._min_occurrences(),
            )
            if spec is None:
                self._mutate_fallback(op, name, "planner")
                return
            new_graph, delta = self._graph.splice_rows(spec)
        except Exception:
            self._mutate_fallback(op, name, "splice")
            return
        splice_seconds = time.perf_counter() - start

        try:
            mask = affected_nodes(new_graph, delta)
            backend = self._patch_backend()
            new_cache: Dict[Tuple, _CacheEntry] = {}
            patched = evicted = recomputed = 0
            for key, entry in self._score_cache.items():
                if entry.generation != self._generation:
                    evicted += 1  # stale generation: evict eagerly
                    continue
                result = patch_entry(
                    entry.response, entry.state, new_graph, delta,
                    mask, backend,
                )
                if result is None:
                    evicted += 1
                    continue
                new_cache[key] = _CacheEntry(
                    response=result.response,
                    generation=self._generation + 1,
                    state=result.state,
                )
                patched += 1
                recomputed += result.recomputed
        except Exception:
            self._mutate_fallback(op, name, "maintenance")
            return

        old_graph = self._graph
        self._generation += 1
        self._graph = new_graph
        self._graph_seconds = splice_seconds
        self._unpruned_graph = None
        self._score_cache = new_cache
        if self._backend is not None:
            # Only the superseded graph's keyed export is dropped; the
            # pool (and siblings' exports on a shared backend) stay.
            self._backend.invalidate_export(old_graph)
        self._last_mutation = {
            "op": op,
            "table": name,
            "fallback": None,
            "delta_values": delta.delta_values,
            "delta_edges": delta.delta_edges,
            "recomputed_sources": recomputed,
            "splice_seconds": splice_seconds,
            "patched_entries": patched,
            "evicted_entries": evicted,
            "generation": self._generation,
        }

    def invalidate(self) -> None:
        """Drop the graph and score caches (call after direct lake edits).

        Also releases the persistent backend's shared-memory graph
        export, if one is live — the worker pool itself stays warm and
        re-attaches to the next build's export on the next query.
        In-flight :meth:`detect` calls still return to their callers;
        a result is cached only if the graph it scored is still
        current when it lands.
        """
        with self._lock:
            old_graph, self._graph = self._graph, None
            self._graph_seconds = 0.0
            self._unpruned_graph = None
            self._score_cache.clear()
            self._ledger = None
            self._generation += 1
            if self._backend is not None:
                if self._owns_backend:
                    self._backend.invalidate_export()
                elif old_graph is not None:
                    # A shared backend holds sibling indexes' exports
                    # too: drop only the graph this index published.
                    self._backend.invalidate_export(old_graph)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release the serving resources this index owns (idempotent).

        New :meth:`detect`/:meth:`asubmit` calls are rejected with
        :class:`RuntimeError` immediately; calls already admitted
        finish normally (close waits for them).  Queued
        :meth:`asubmit` futures that have not started are cancelled —
        one caught starting in the same instant fails with
        :class:`RuntimeError` instead, so batch callers racing close
        should expect either.  Then the dispatch threads and the
        persistent worker pool shut down (unlinking the pool's
        shared-memory segments).  An externally-owned backend is left
        running — only this index's graph export is released.  Cached
        state and the lake itself remain readable afterwards.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        # Cancel queued futures before draining, so the dispatcher
        # does not keep starting work that the closed flag would only
        # reject one task at a time.  (A future the dispatcher picks
        # up in the instant before cancellation lands fails with
        # RuntimeError instead of CancelledError — see the docs.)
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        with self._lock:
            while self._active > 0:
                self._drained.wait()
            backend, self._backend = self._backend, None
            graph = self._graph
        if executor is not None:
            executor.shutdown(wait=True)
        if backend is not None:
            if self._owns_backend:
                backend.close()
            elif graph is not None:
                backend.invalidate_export(graph)
        if self._snapshot_path is not None:
            # A snapshot-mounted graph holds mmap views over files in
            # the snapshot directory; drop them so the open file
            # handles are released and the directory can be deleted
            # even on Windows-style strict filesystems.  The lake and
            # cached responses stay readable, and the graph would
            # rebuild losslessly from the lake if accessed again.
            with self._lock:
                self._graph = None
                self._unpruned_graph = None

    def __enter__(self) -> "HomographIndex":
        """Enter a ``with`` block; the index itself is the target."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the index (pool, dispatch threads) on block exit."""
        self.close()

    def _serving_backend(self) -> Optional[ExecutionBackend]:
        """The long-lived backend for the index default config, if any.

        Reached from admitted :meth:`detect` calls and the
        :meth:`asubmit` warm-up; :meth:`close` waits for admitted
        calls to drain before releasing the backend, and the guard
        below rejects creation once that drain has completed.
        """
        if self._execution is None and self._owns_backend:
            return None
        with self._lock:
            # Creating a backend is legal while admitted calls are
            # draining (close() will still collect it at swap time),
            # but after the drain completes close() has already taken
            # the backend — creating one then would leak it.
            if self._closed and self._active == 0:
                raise RuntimeError("HomographIndex is closed")
            if self._backend is None:
                self._backend = resolve_backend(self._execution)
            return self._backend

    def _dispatcher(self) -> ThreadPoolExecutor:
        """The lazy thread pool behind :meth:`asubmit`/``detect_many``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("HomographIndex is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=_DISPATCH_THREADS,
                    thread_name_prefix="homograph-index",
                )
            return self._executor

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def _coerce_request(
        self, request: Optional[DetectRequest], overrides: Dict
    ) -> DetectRequest:
        """Normalize the ``detect`` calling conventions to one request."""
        if request is None:
            request = DetectRequest(**overrides)
        elif overrides:
            request = request.with_overrides(**overrides)
        return request

    def detect(
        self,
        request: Optional[DetectRequest] = None,
        **overrides,
    ) -> DetectResponse:
        """Score and rank every value node.

        Accepts a :class:`DetectRequest`, keyword overrides applied on
        top of one, or keywords alone (``detect(measure="lcc")``).
        Responses are cached per ``(measure, config)``: a repeat call
        with the same configuration returns the stored scores with
        ``cached=True`` and does not recompute.

        Thread-safe with single-flight semantics: when several threads
        request the same configuration concurrently, one computes and
        the others block until it finishes, then share its result
        (``cached=True`` for the coalesced callers).
        """
        request = self._coerce_request(request, overrides)
        use_default = request.execution is None and (
            self._execution is not None or not self._owns_backend
        )
        if use_default and self._execution is not None:
            request = request.with_overrides(execution=self._execution)

        with self._lock:
            if self._closed:
                raise RuntimeError("HomographIndex is closed")
            generation = self._generation
            hit = self._score_cache.get(request.cache_key)
            if hit is not None:
                self._cache_hits += 1
                return self._serve(hit.response, cached=True)
            # Admitted: close() now waits for this call to finish
            # instead of tearing the backend down underneath it.
            self._active += 1

        try:
            return self._detect_admitted(request, generation, use_default)
        finally:
            with self._lock:
                self._active -= 1
                if self._active == 0:
                    self._drained.notify_all()

    def _detect_admitted(
        self,
        request: DetectRequest,
        generation: int,
        use_default: bool,
    ) -> DetectResponse:
        """The post-admission body of :meth:`detect`."""
        served_from_cache = [False]

        def compute() -> DetectResponse:
            # The pre-flight cache check and singleflight.do are not
            # atomic: a previous leader may have landed (and been
            # forgotten) in between, so re-check before computing.
            with self._lock:
                hit = self._score_cache.get(request.cache_key)
                if hit is not None:
                    self._cache_hits += 1
                    served_from_cache[0] = True
                    return hit.response
            with self._lock:
                graph = self.graph  # built once, lazily
                # Stamp the generation the graph was *built* under (a
                # mutation between the pre-check and here gives us the
                # fresh graph, whose result is perfectly cacheable).
                built_generation = self._generation
                # Snapshot under the same lock: a mutation racing this
                # read would otherwise pair the old graph with the new
                # (zeroed) build time.
                graph_seconds = self._graph_seconds
            backend = self._serving_backend() if use_default else None
            scope = use_backend(backend) if backend is not None \
                else nullcontext()
            state_box: Dict[str, object] = {}
            with scope:
                response = _execute_request(
                    graph, request, graph_seconds=graph_seconds,
                    state_out=state_box,
                )
            with self._lock:
                self._cache_misses += 1
                # A mutation may have landed while we computed; serve
                # the (then-stale) result but never cache it.
                if self._generation == built_generation:
                    self._score_cache[request.cache_key] = _CacheEntry(
                        response=response,
                        generation=built_generation,
                        state=state_box.get("state"),
                    )
            return response

        response, leader = self._singleflight.do(
            (generation, request.cache_key), compute
        )
        if leader and not served_from_cache[0]:
            return self._serve(response, cached=False)
        if not leader:
            with self._lock:
                self._coalesced += 1
        return self._serve(response, cached=True)

    def is_warm(
        self,
        request: Optional[DetectRequest] = None,
        **overrides,
    ) -> bool:
        """Whether this request would serve without fresh pool work.

        ``True`` when the configuration's response is already cached,
        or when an identical computation is in flight right now — a
        :meth:`detect` call would coalesce onto it as a single-flight
        follower instead of computing.  A snapshot, not a reservation:
        the admission gate uses it as a scheduling hint (warm requests
        are admitted ahead of fresh computations under overload), so a
        rare stale answer costs one mis-prioritized request, nothing
        more.  ``False`` once the index is closed.
        """
        request = self._coerce_request(request, overrides)
        with self._lock:
            if self._closed:
                return False
            if request.cache_key in self._score_cache:
                return True
            generation = self._generation
        return self._singleflight.contains(
            (generation, request.cache_key)
        )

    def asubmit(
        self,
        request: Optional[DetectRequest] = None,
        **overrides,
    ) -> "Future[DetectResponse]":
        """Submit a detection asynchronously; returns a future.

        The request is queued onto the index's dispatch threads and
        executed through :meth:`detect`, so it participates in the
        score cache, single-flight coalescing, and the shared
        persistent pool.  Call ``.result()`` on the returned
        :class:`concurrent.futures.Future` to wait for the response.
        """
        request = self._coerce_request(request, overrides)
        with self._lock:
            if self._closed:
                raise RuntimeError("HomographIndex is closed")
        if request.execution is None:
            # This request will use the index pool: fork it (if
            # persistent and not yet started) on *this* thread, before
            # the dispatcher threads exist — forking from a thread
            # pool risks cloning a sibling's held locks into the
            # child.  A request carrying its own execution never
            # touches the index pool, so don't fork one for it.
            backend = self._serving_backend()
            if backend is not None:
                ensure = getattr(backend, "ensure_started", None)
                if ensure is not None:
                    ensure()
        return self._dispatcher().submit(self.detect, request)

    def detect_many(
        self,
        requests: Sequence[DetectRequest],
    ) -> List[DetectResponse]:
        """Run a batch of requests on the shared machinery.

        Requests are dispatched concurrently (duplicates coalesce via
        single-flight; distinct configurations queue onto the one
        persistent pool when configured) and the responses come back
        aligned with the input order.
        """
        futures = [self.asubmit(request) for request in requests]
        return [future.result() for future in futures]

    @staticmethod
    def _serve(stored: DetectResponse, cached: bool) -> DetectResponse:
        """Copy the mutable parts so callers cannot poison the cache.

        The ranking and its read-only ``scores`` view are shared: a
        ranking is immutable throughout.
        """
        return replace(
            stored,
            parameters=dict(stored.parameters),
            cached=cached,
        )

    # ------------------------------------------------------------------
    # Analysis conveniences (fold the one-off helpers callers grew)
    # ------------------------------------------------------------------
    def estimate_meanings(
        self, value: str, threshold: float = 0.25
    ) -> MeaningEstimate:
        """Cluster a value's attributes into meanings (§6 direction 1)."""
        return estimate_meanings(self.graph, value, threshold=threshold)

    def classify_errors(
        self, values: Iterable[str], **kwargs
    ) -> Dict[str, HomographClassification]:
        """Genuine-vs-error triage (§6 direction 2).

        Uses the index's cached unpruned graph, replacing the old CLI
        pattern of rebuilding the whole graph per call.
        """
        return classify_homographs(
            self._lake, values, graph=self.unpruned_graph, **kwargs
        )

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """One JSON-safe snapshot of the index's serving state.

        Collects what an operator dashboard (or ``GET /stats`` on the
        HTTP front-end) needs in a single locked read: lake size,
        whether the graph is built, the score-cache counters, the
        admission state, and the execution-pool health.  The ``pool``
        block reports ``configured=False`` for serial indexes; for a
        persistent :class:`~repro.perf.ProcessBackend` it includes
        whether the worker pool is alive and how many shared-memory
        segments are exported.
        """
        with self._lock:
            backend = self._backend
            pool: Dict[str, object] = backend_stats(
                backend,
                configured=(
                    self._execution is not None or not self._owns_backend
                ),
            )
            if backend is not None:
                pool["shared"] = not self._owns_backend
                if not self._owns_backend:
                    # Count only this index's export on a shared
                    # backend — siblings' segments are theirs.
                    export_names_for = getattr(
                        backend, "export_names_for", None
                    )
                    names = (
                        export_names_for(self._graph)
                        if export_names_for is not None
                        and self._graph is not None
                        else ()
                    )
                    pool["segments"] = len(names)
            return {
                "tables": len(self._lake),
                "snapshot": (
                    None if self._snapshot_path is None
                    else str(self._snapshot_path)
                ),
                "graph_built": self._graph is not None,
                "graph_seconds": self._graph_seconds,
                "generation": self._generation,
                "closed": self._closed,
                "active_detections": self._active,
                "in_flight_keys": self._singleflight.in_flight(),
                "cache": {
                    "hits": self._cache_hits,
                    "misses": self._cache_misses,
                    "size": len(self._score_cache),
                    "coalesced": self._coalesced,
                },
                "mutation": (
                    dict(self._last_mutation)
                    if self._last_mutation else None
                ),
                "pool": pool,
            }

    def cache_info(self) -> CacheInfo:
        """Hit/miss/coalesce counters (cumulative) and cache size."""
        with self._lock:
            return CacheInfo(
                hits=self._cache_hits,
                misses=self._cache_misses,
                size=len(self._score_cache),
                coalesced=self._coalesced,
            )

    def clear_cache(self) -> None:
        """Drop cached scores without touching the graph."""
        with self._lock:
            self._score_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = "unbuilt" if self._graph is None else repr(self._graph)
        return (
            f"HomographIndex(tables={len(self._lake)}, "
            f"prune={self._prune_candidates}, graph={built}, "
            f"cached_results={len(self._score_cache)})"
        )
