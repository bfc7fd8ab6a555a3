"""Execution backends: in-process serial and shared-memory multi-process.

The contract is deliberately tiny — a backend maps a named kernel over
a list of chunk payloads against one graph::

    backend = resolve_backend(ExecutionConfig(n_jobs=4))
    partials = backend.map_chunks(graph, "brandes", payloads, common)

:class:`SerialBackend` runs the chunks in a plain loop and is the
bit-exact reference.  :class:`ProcessBackend` copies the graph's CSR
arrays (``indptr``/``indices``) into
:mod:`multiprocessing.shared_memory` segments, forks a worker pool that
attaches them zero-copy, and maps the chunk tasks across the pool.
Only the small per-chunk payloads (source ids, sample seeds, value
ranges) cross the pipe; score vectors come back once per chunk and are
reduced caller-side with :func:`tree_sum`.

Two pool lifecycles are supported:

* **per-call** (default): each ``map_chunks`` exports the graph,
  forks a pool, runs, and tears everything down — simple and safe for
  one-shot batch scoring, but it pays ~0.1 s of setup per call;
* **persistent** (``ProcessBackend(persistent=True)``): the pool and
  the graph exports survive across calls, so repeated queries against
  one graph pay the setup cost once.  Exports are keyed to the graph
  *objects*: one backend can hold several live exports at once — this
  is what lets a multi-lake :class:`~repro.api.Workspace` share one
  worker pool across indexes, each serving its own graph.  Scoring a
  graph that has no export yet adds one (the pool itself survives),
  :meth:`ProcessBackend.invalidate_export` releases a single graph's
  export (or all of them) eagerly when the owner knows the graph
  mutated, and a garbage-collected graph releases its export
  automatically.  A persistent backend must be released with
  :meth:`ProcessBackend.close` (or used as a context manager) so its
  shared-memory segments are unlinked deterministically.

Determinism: chunk spans depend only on the work-list length, the job
count, and the configured ``chunk_size`` — never on scheduling — so a
given configuration always produces the same chunking, and pinning
``chunk_size`` makes serial and process results bit-identical.
"""

from __future__ import annotations

import abc
import contextlib
import contextvars
import multiprocessing
import threading
import weakref
from collections import OrderedDict
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import ExecutionConfig, available_cores
from .kernels import GraphContext, get_kernel

#: Tasks per worker when ``chunk_size`` is not pinned: enough slack
#: for load balancing without drowning the queue in tiny messages.
_CHUNKS_PER_JOB = 4


def chunk_spans(
    num_items: int, jobs: int, chunk_size: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Deterministic ``[lo, hi)`` spans covering ``range(num_items)``.

    With ``chunk_size=None`` a serial run gets one span (no overhead)
    and a parallel run gets ``~4 * jobs`` spans for load balancing.
    """
    if num_items <= 0:
        return []
    if chunk_size is None:
        if jobs <= 1:
            chunk_size = num_items
        else:
            chunk_size = max(1, -(-num_items // (_CHUNKS_PER_JOB * jobs)))
    return [
        (lo, min(lo + chunk_size, num_items))
        for lo in range(0, num_items, chunk_size)
    ]


def tree_sum(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise (tree) reduction of partial score vectors.

    Associates the sum as a balanced tree, which keeps float error
    growth logarithmic in the chunk count and — more importantly —
    makes the reduction order a function of the chunk list alone, so
    equal chunkings give bit-identical totals on every backend.
    """
    items = list(arrays)
    if not items:
        raise ValueError("tree_sum of no arrays")
    while len(items) > 1:
        paired = [
            items[i] + items[i + 1]
            for i in range(0, len(items) - 1, 2)
        ]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


class ExecutionBackend(abc.ABC):
    """Maps kernels over chunk payloads; see the module docstring.

    Backends are context managers: ``with resolve_backend(cfg) as b:``
    guarantees :meth:`close` runs, which matters for persistent
    process backends holding a pool and shared-memory segments (it is
    a no-op for serial and per-call process backends).
    """

    #: Effective worker count (1 for serial).
    jobs: int = 1
    #: Pinned chunk size, or ``None`` for the derived default.
    chunk_size: Optional[int] = None

    def spans(self, num_items: int) -> List[Tuple[int, int]]:
        """Chunk spans this backend uses for ``num_items`` work items."""
        return chunk_spans(num_items, self.jobs, self.chunk_size)

    @abc.abstractmethod
    def map_chunks(
        self,
        graph,
        kernel: str,
        payloads: Sequence,
        common: Mapping,
    ) -> List:
        """Run ``kernel`` over every payload, in payload order."""

    def map_sources(
        self,
        graph,
        kernel: str,
        sources: np.ndarray,
        weights: np.ndarray,
        common: Mapping,
    ) -> np.ndarray:
        """Run one accumulator kernel over an explicit source subset.

        The delta-maintenance entry point: the subset is shipped as a
        *single ordered chunk*, so the kernel's sequential float
        accumulation order matches what the same sources contributed
        inside a one-chunk full run — the property that makes patched
        scores bit-identical to a rebuild.  On a persistent process
        backend the call reuses the pool and the graph's keyed export
        (no re-export of unchanged arrays); the result is the partial
        score vector, ``zeros`` when the subset is empty.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 0:
            return np.zeros(graph.num_nodes, dtype=np.float64)
        partials = self.map_chunks(
            graph, kernel, [(sources, np.asarray(weights))], common
        )
        return partials[0]

    def close(self) -> None:
        """Release any long-lived resources (pool, shared memory)."""

    def invalidate_export(self, graph=None) -> None:
        """Drop cached graph exports (call when a graph mutates).

        ``graph=None`` drops every export; passing a graph drops only
        that graph's export, which is how a multi-index owner (e.g. a
        :class:`~repro.api.Workspace` member) invalidates its own
        graph without disturbing siblings sharing the backend.
        """

    def __enter__(self) -> "ExecutionBackend":
        """Enter a ``with`` block; the backend itself is the target."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the backend on ``with``-block exit."""
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution — the bit-exact reference backend."""

    name = "serial"

    def __init__(self, chunk_size: Optional[int] = None) -> None:
        self.jobs = 1
        self.chunk_size = chunk_size

    def map_chunks(self, graph, kernel, payloads, common):
        """Run the kernel over each payload in a plain loop."""
        fn = get_kernel(kernel)
        ctx = GraphContext.from_graph(graph)
        return [fn(ctx, payload, common) for payload in payloads]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SerialBackend(chunk_size={self.chunk_size})"


# ---------------------------------------------------------------------
# Process backend: worker-side state
# ---------------------------------------------------------------------
# Set by the pool initializer in each worker; maps nothing in the
# parent.  ``_WORKER_SHM`` keeps the SharedMemory objects alive for the
# worker's lifetime (dropping them would invalidate the array views).
_WORKER_CTX: Optional[GraphContext] = None
_WORKER_SHM: List = []

# Persistent-pool workers attach lazily per task instead: a small LRU
# of attachments keyed by segment names, so one long-lived pool can
# interleave tasks for several graphs (a workspace of lakes) without
# re-attaching on every swap.  Stale entries (a graph swap in the
# parent) are evicted by capacity; the parent's unlink reclaims the
# memory once the last attachment closes.
_WORKER_EXPORTS: "OrderedDict[Tuple[str, str], Tuple[GraphContext, List]]" = (
    OrderedDict()
)
#: Attachments a persistent worker keeps before evicting the oldest.
_WORKER_EXPORT_CAP = 8


def _open_shared_array(spec):
    """Attach one exported array; returns ``(array, shm_or_None)``.

    Two spec shapes exist (``spec[0]`` is a unique key either way):

    * ``(name, shape, dtype)`` — a shared-memory segment exported by
      :func:`_export_shared_array`; the returned handle must be kept
      alive (and closed) by the caller.
    * ``("file:...", path, offset, shape, dtype)`` — a file-backed
      array (a snapshot's mmap-loaded CSR): the worker maps the file
      read-only itself, no shared memory involved, and the handle
      slot is ``None``.

    Attaching a segment registers it with the resource tracker as if
    this worker owned it; it does not — the parent unlinks once it is
    done — and the duplicate registration makes the tracker spew
    KeyError noise at exit (bpo-39959).  Suppress registration for the
    attach only.
    """
    from multiprocessing import shared_memory

    if len(spec) == 5:
        _key, path, offset, shape, dtype = spec
        array = np.memmap(
            path, dtype=np.dtype(dtype), mode="r",
            offset=offset, shape=shape,
        )
        array.flags.writeable = False
        return array, None
    name, shape, dtype = spec
    try:
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
    except Exception:  # pragma: no cover - tracker is a CPython detail
        resource_tracker = None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        if resource_tracker is not None:
            resource_tracker.register = original_register
    array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    array.flags.writeable = False
    return array, shm


def _attach_shared_array(spec) -> np.ndarray:
    """Attach an array for the worker's whole lifetime (per-call pools)."""
    array, shm = _open_shared_array(spec)
    if shm is not None:
        _WORKER_SHM.append(shm)
    return array


def _worker_init(indptr_spec, indices_spec, num_nodes, num_values) -> None:
    """Per-call pool initializer: attach the CSR export once per worker."""
    global _WORKER_CTX
    _WORKER_CTX = GraphContext(
        indptr=_attach_shared_array(indptr_spec),
        indices=_attach_shared_array(indices_spec),
        num_nodes=num_nodes,
        num_values=num_values,
    )


def _worker_task(task):
    """Per-call pool task: run one kernel chunk against the fixed export."""
    kernel, payload, common = task
    return get_kernel(kernel)(_WORKER_CTX, payload, common)


def _evict_worker_export(key=None) -> None:
    """Drop one attachment (worker side): ``key``, or the LRU entry.

    The array views must be released before ``shm.close()`` —
    closing a segment whose buffer still has exported views raises
    ``BufferError`` — so the GraphContext reference is dropped first.
    """
    if key is None:
        _, stale = _WORKER_EXPORTS.popitem(last=False)
    else:
        stale = _WORKER_EXPORTS.pop(key)
    shms = stale[1]
    del stale  # free the GraphContext so its buffer views are released
    for shm in shms:
        with contextlib.suppress(Exception):
            shm.close()


def _persistent_worker_task(task):
    """Persistent pool task: (re)attach the export named by the task.

    Each task carries the export specs plus the set of exports live in
    the parent; a worker looks its segment names up in the attachment
    LRU and attaches on miss (evicting the oldest entry at capacity).
    Cached attachments whose export the parent has dropped are closed
    eagerly — an unlinked segment's memory is only reclaimed once the
    last attachment closes, so retaining stale generations would pin
    up to the LRU cap's worth of dead graphs.  This is what lets one
    long-lived pool serve many graphs — several lakes' worth,
    interleaved — without a restart, per-task re-attachment, or
    memory retention across graph swaps.
    """
    kernel, payload, common, specs, live_keys = task
    indptr_spec, indices_spec, num_nodes, num_values = specs
    names = (indptr_spec[0], indices_spec[0])
    live = set(live_keys)
    live.add(names)
    for cached in [k for k in _WORKER_EXPORTS if k not in live]:
        _evict_worker_export(cached)
    entry = _WORKER_EXPORTS.get(names)
    if entry is None:
        while len(_WORKER_EXPORTS) >= _WORKER_EXPORT_CAP:
            _evict_worker_export()
        indptr, indptr_shm = _open_shared_array(indptr_spec)
        indices, indices_shm = _open_shared_array(indices_spec)
        entry = (
            GraphContext(
                indptr=indptr,
                indices=indices,
                num_nodes=num_nodes,
                num_values=num_values,
            ),
            # File-backed attachments have no segment handle; their
            # mmap closes when the GraphContext is evicted.
            [s for s in (indptr_shm, indices_shm) if s is not None],
        )
        _WORKER_EXPORTS[names] = entry
    else:
        _WORKER_EXPORTS.move_to_end(names)
    return get_kernel(kernel)(entry[0], payload, common)


def _export_shared_array(array: np.ndarray):
    """Copy an array into a fresh shared-memory segment.

    Returns ``(shm, spec)`` where ``spec`` is the picklable
    ``(name, shape, dtype)`` triple workers attach with.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(
        create=True, size=max(1, array.nbytes)
    )
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    return shm, (shm.name, array.shape, array.dtype.str)


def _export_array(array: np.ndarray):
    """Export one CSR array by the cheapest route; ``(shm, spec)``.

    A file-backed :class:`numpy.memmap` — a snapshot's
    ``np.load(mmap_mode="r")`` array — is *not* copied back through
    shared memory: its spec names the backing file and data offset,
    and each worker maps the same file read-only (the page cache makes
    that one physical copy system-wide).  Anything else is copied into
    a fresh shared-memory segment as before; only then is the first
    slot a live handle the caller must track.
    """
    filename = getattr(array, "filename", None)
    offset = getattr(array, "offset", None)
    if (
        filename is not None
        and offset is not None
        and getattr(array, "mode", None) in ("r", "c")
        and array.ndim == 1
        and array.flags["C_CONTIGUOUS"]
    ):
        spec = (
            f"file:{filename}@{int(offset)}",
            str(filename),
            int(offset),
            array.shape,
            array.dtype.str,
        )
        return None, spec
    return _export_shared_array(array)


def _release_segments(segments) -> None:
    """Close and unlink exported segments (idempotent, best-effort)."""
    for shm in segments:
        with contextlib.suppress(Exception):
            shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        except Exception:  # pragma: no cover - platform quirks
            pass


class _GraphExport:
    """One live shared-memory export: graph ref, task specs, segments."""

    __slots__ = ("ref", "specs", "segments")

    def __init__(self, ref, specs, segments) -> None:
        self.ref = ref
        self.specs = specs
        self.segments = segments


class ProcessBackend(ExecutionBackend):
    """Multi-core execution over a shared-memory worker pool.

    The CSR arrays are shipped to workers via
    :mod:`multiprocessing.shared_memory`; per-chunk traffic is limited
    to the payloads and the returned partials.  Prefers the ``fork``
    start method (cheap on Linux) and falls back to the platform
    default elsewhere.

    With ``persistent=False`` (default) the pool and the export live
    for one ``map_chunks`` call.  With ``persistent=True`` both
    survive across calls: the first call forks the pool and exports
    the graph; later calls against the *same* graph object reuse both,
    and a call against a different graph adds a second live export
    while the pool keeps running — one pool can serve many graphs
    concurrently (the multi-lake ``Workspace`` relies on this).  An
    export is released when its graph is garbage-collected, when the
    owner calls :meth:`invalidate_export`, or at :meth:`close`.
    Persistent backends are thread-safe — the export table is locked,
    and concurrent ``map_chunks`` calls share the pool — and must be
    released with :meth:`close` (or a ``with`` block).
    """

    name = "process"

    def __init__(
        self,
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        persistent: bool = False,
    ) -> None:
        self.jobs = max(1, n_jobs if n_jobs is not None else available_cores())
        self.chunk_size = chunk_size
        self.persistent = persistent
        self._lock = threading.RLock()
        self._pool = None
        # Live exports, keyed by the exporting graph's id().  Each
        # entry holds a weak reference to the graph (its death-watch
        # callback releases the export), the picklable specs tasks
        # carry, and the parent-side SharedMemory handles.
        self._exports: "OrderedDict[int, _GraphExport]" = OrderedDict()
        self._closed = False
        # Concurrency bookkeeping for the persistent path: exports
        # replaced while `_inflight` maps are running are parked in
        # `_retired` and unlinked only once the last map drains, so an
        # in-flight call never loses its segments mid-computation;
        # `close()` waits on `_idle` for the same drain before it
        # terminates the pool.
        self._inflight = 0
        self._retired: List = []
        self._idle = threading.Condition(self._lock)
        # close() barrier: `_closed` flips as soon as a closer commits
        # (rejecting new maps), `_close_complete` only once teardown
        # finished.  A second concurrent close() waits for the first
        # to *complete* instead of returning while segments still
        # exist — callers (backend_scope's finally, HomographIndex
        # teardown, __del__) treat "close() returned" as "resources
        # released".
        self._close_complete = False

    @staticmethod
    def _context():
        """The multiprocessing context (``fork`` where available)."""
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    # ------------------------------------------------------------------
    # Persistent lifecycle
    # ------------------------------------------------------------------
    @property
    def pool_alive(self) -> bool:
        """Whether a persistent worker pool is currently running."""
        return self._pool is not None

    @property
    def export_names(self) -> Tuple[str, ...]:
        """Names of the live shared-memory segments (diagnostics)."""
        with self._lock:
            return tuple(
                shm.name
                for export in self._exports.values()
                for shm in export.segments
            )

    @property
    def _segments(self) -> List:
        """Flat view of every live export's segments (diagnostics)."""
        with self._lock:
            return [
                shm
                for export in self._exports.values()
                for shm in export.segments
            ]

    def export_names_for(self, graph) -> Tuple[str, ...]:
        """Segment names of one graph's live export (empty if none)."""
        with self._lock:
            export = self._exports.get(id(graph))
            if export is None or export.ref() is not graph:
                return ()
            return tuple(shm.name for shm in export.segments)

    def _ensure_pool(self):
        """Fork the persistent pool on first use."""
        if self._pool is None:
            self._pool = self._context().Pool(processes=self.jobs)
        return self._pool

    def ensure_started(self) -> None:
        """Fork the persistent pool now, on the calling thread.

        Serving owners call this before handing work to background
        threads: forking from a thread pool risks inheriting a
        sibling thread's locks in the child (and warns on 3.12+), so
        the fork is best taken on the caller's own thread while the
        process is still single-threaded.  No-op for per-call mode
        (those pools are forked inside each ``map_chunks`` by design)
        and for an already-started or closed backend.
        """
        if not self.persistent:
            return
        with self._lock:
            if not self._closed:
                self._ensure_pool()

    def _ensure_export(self, graph):
        """Reuse or build the shared-memory export for ``graph``.

        Exports are keyed to graph objects via weak references: each
        distinct live graph gets its own export (a workspace of lakes
        shares the one pool), and a graph's death releases its export
        automatically through the weakref callback.
        """
        key = id(graph)
        export = self._exports.get(key)
        if export is not None:
            if export.ref() is graph:
                return export.specs
            # id() reuse: the original graph died (its callback is
            # pending or suppressed) and `graph` recycled the address.
            self._drop_export_locked(key)
        indptr_shm, indptr_spec = _export_array(graph.indptr)
        segments = [s for s in (indptr_shm,) if s is not None]
        indices_shm, indices_spec = _export_array(graph.indices)
        if indices_shm is not None:
            segments.append(indices_shm)
        specs = (
            indptr_spec, indices_spec, graph.num_nodes, graph.num_values
        )

        def _on_collect(_ref, self_ref=weakref.ref(self), key=key):
            backend = self_ref()
            if backend is not None:
                backend._release_dead_export(key)

        self._exports[key] = _GraphExport(
            ref=weakref.ref(graph, _on_collect),
            specs=specs,
            segments=segments,
        )
        return specs

    def _release_dead_export(self, key: int) -> None:
        """Weakref callback target: a graph died, drop its export."""
        with self._lock:
            if not self._closed and key in self._exports:
                self._drop_export_locked(key)

    def _drop_export_locked(self, key: int) -> None:
        """Retire or release one export (caller holds the lock).

        With maps in flight the segments are parked instead of
        unlinked — a worker that has not attached yet would otherwise
        hit ``FileNotFoundError`` mid-call; the last draining map
        unlinks the parked segments.
        """
        export = self._exports.pop(key, None)
        if export is None:
            return
        if self._inflight > 0:
            self._retired.extend(export.segments)
        else:
            _release_segments(export.segments)

    def invalidate_export(self, graph=None) -> None:
        """Release cached exports now (the pool keeps running).

        Called by owners that know a graph changed — e.g.
        ``HomographIndex`` table mutations — so segment memory is
        freed before the next query re-exports.  ``graph=None`` drops
        every export (the single-index spelling); passing a graph
        drops only that graph's export, leaving siblings that share
        the backend untouched.  In-flight calls keep their segments
        until they finish.
        """
        with self._lock:
            if graph is None:
                for key in list(self._exports):
                    self._drop_export_locked(key)
            else:
                key = id(graph)
                export = self._exports.get(key)
                if export is not None and export.ref() in (graph, None):
                    self._drop_export_locked(key)

    def close(self) -> None:
        """Shut the pool down and unlink every exported segment.

        Marks the backend closed first (new ``map_chunks`` calls fail
        fast with ``RuntimeError``), then waits for in-flight calls to
        drain before terminating the pool, so a concurrent ``detect``
        finishes cleanly rather than dying mid-``pool.map``.

        Idempotent *and* a barrier: when two threads race — e.g. an
        index drain and a ``backend_scope`` exit after a failed map —
        the loser blocks until the winner's teardown completes, so
        ``close()`` returning always means the pool is gone and the
        shared-memory segments are unlinked.
        """
        with self._lock:
            if self._closed:
                # Another closer won the race (or a failed map's
                # cleanup already closed us): wait for its teardown to
                # finish so *this* return also means "released".
                while not self._close_complete:
                    self._idle.wait()
                return
            self._closed = True
            while self._inflight > 0:
                self._idle.wait()
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.terminate()
                pool.join()
            for export in self._exports.values():
                _release_segments(export.segments)
            _release_segments(self._retired)
            self._exports = OrderedDict()
            self._retired = []
            self._close_complete = True
            self._idle.notify_all()

    def __del__(self):  # pragma: no cover - GC safety net
        with contextlib.suppress(Exception):
            self.close()

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_chunks(self, graph, kernel, payloads, common):
        """Fan the payloads across worker processes; see the class doc."""
        payloads = list(payloads)
        if not payloads:
            return []
        get_kernel(kernel)  # fail fast in the parent on unknown names
        if kernel == "brandes":
            from . import native

            # Load the native kernel before a pool forks, so workers
            # inherit it instead of each loading (or compiling) it.
            native.library()
        if self.persistent:
            return self._map_persistent(graph, kernel, payloads, common)
        return self._map_per_call(graph, kernel, payloads, common)

    def _map_persistent(self, graph, kernel, payloads, common):
        """Serve one call from the long-lived pool + cached export."""
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "ProcessBackend is closed; create a new backend"
                )
            specs = self._ensure_export(graph)
            pool = self._ensure_pool()
            # Snapshot of every live export's cache key: workers use
            # it to close attachments for exports we have dropped.
            live_keys = tuple(
                (export.specs[0][0], export.specs[1][0])
                for export in self._exports.values()
            )
            self._inflight += 1
        try:
            tasks = [
                (kernel, payload, common, specs, live_keys)
                for payload in payloads
            ]
            return pool.map(_persistent_worker_task, tasks, chunksize=1)
        finally:
            with self._lock:
                self._inflight -= 1
                if self._inflight == 0:
                    if self._retired:
                        _release_segments(self._retired)
                        self._retired = []
                    self._idle.notify_all()

    def _map_per_call(self, graph, kernel, payloads, common):
        """Historical one-shot path: pool and export live for this call."""
        workers = min(self.jobs, len(payloads))
        segments = []
        try:
            indptr_shm, indptr_spec = _export_array(graph.indptr)
            if indptr_shm is not None:
                segments.append(indptr_shm)
            indices_shm, indices_spec = _export_array(graph.indices)
            if indices_shm is not None:
                segments.append(indices_shm)
            ctx = self._context()
            with ctx.Pool(
                processes=workers,
                initializer=_worker_init,
                initargs=(
                    indptr_spec,
                    indices_spec,
                    graph.num_nodes,
                    graph.num_values,
                ),
            ) as pool:
                tasks = [(kernel, payload, common) for payload in payloads]
                return pool.map(_worker_task, tasks, chunksize=1)
        finally:
            _release_segments(segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessBackend(n_jobs={self.jobs}, "
            f"chunk_size={self.chunk_size}, "
            f"persistent={self.persistent})"
        )


def backend_stats(
    backend: Optional[ExecutionBackend], configured: bool
) -> dict:
    """JSON-safe health block for one backend (``None``-safe).

    The shared shape behind every ``pool`` block in
    ``HomographIndex.stats`` / ``Workspace.stats`` / ``GET /stats``,
    so a new diagnostic field lands everywhere at once.
    """
    pool: dict = {"configured": configured}
    if backend is not None:
        pool["backend"] = type(backend).__name__
        pool["jobs"] = backend.jobs
        pool["persistent"] = getattr(backend, "persistent", False)
        pool["alive"] = getattr(backend, "pool_alive", False)
        pool["segments"] = len(getattr(backend, "export_names", ()))
    return pool


# ---------------------------------------------------------------------
# Backend resolution and the serving override
# ---------------------------------------------------------------------
#: Per-thread override installed by :func:`use_backend`; lets an owner
#: of a long-lived backend (e.g. ``HomographIndex``) route the core
#: measures' ``resolve_backend`` calls onto its shared pool without
#: widening every measure signature.
_ACTIVE_BACKEND: contextvars.ContextVar[Optional[ExecutionBackend]] = (
    contextvars.ContextVar("repro_perf_active_backend", default=None)
)


@contextlib.contextmanager
def use_backend(backend: ExecutionBackend) -> Iterator[ExecutionBackend]:
    """Route ``resolve_backend`` onto ``backend`` inside the block.

    Scoped to the current thread (a :mod:`contextvars` variable), so
    concurrent requests on other threads are unaffected.  This is how
    a serving owner keeps one persistent pool shared across the core
    measures without changing their signatures::

        backend = ProcessBackend(n_jobs=4, persistent=True)
        with use_backend(backend):
            betweenness_scores(graph)        # runs on the shared pool
    """
    token = _ACTIVE_BACKEND.set(backend)
    try:
        yield backend
    finally:
        _ACTIVE_BACKEND.reset(token)


def resolve_backend(execution) -> ExecutionBackend:
    """Turn an execution spec into a backend.

    Accepts ``None`` (the serial reference path — unless a
    :func:`use_backend` override is active, which then wins), an
    :class:`ExecutionConfig`, or an already-constructed
    :class:`ExecutionBackend` (returned as-is, so long-lived backends
    can be threaded through APIs that accept configs).

    A backend constructed *here* from a bare config has no owner to
    close it later; call sites that only need it for one computation
    should prefer :func:`backend_scope`, which closes constructed
    backends on exit (releasing a persistent pool nobody could ever
    reuse) while leaving caller-owned instances and overrides alone.
    """
    if isinstance(execution, ExecutionBackend):
        return execution
    active = _ACTIVE_BACKEND.get()
    if active is not None:
        return active
    if execution is None:
        return SerialBackend()
    if execution.resolved_backend == "process":
        return ProcessBackend(
            n_jobs=execution.effective_jobs,
            chunk_size=execution.chunk_size,
            persistent=execution.persistent,
        )
    return SerialBackend(chunk_size=execution.chunk_size)


@contextlib.contextmanager
def backend_scope(execution) -> Iterator[ExecutionBackend]:
    """Resolve a backend for one computation, closing it if owned.

    *Owned* means :func:`resolve_backend` constructed it here from a
    config (or ``None``) — as opposed to an :class:`ExecutionBackend`
    instance passed by the caller or a :func:`use_backend` override,
    both of which stay the caller's responsibility.  Closing owned
    backends keeps a stray ``ExecutionConfig(persistent=True)`` on a
    one-shot call (e.g. carried inside a deserialized
    ``DetectRequest``) from leaking a worker pool and its
    shared-memory segments: with no one holding the instance, the
    pool could never be reused anyway.  The core measures run their
    ``map_chunks`` calls inside this scope.
    """
    owned = (
        not isinstance(execution, ExecutionBackend)
        and _ACTIVE_BACKEND.get() is None
    )
    backend = resolve_backend(execution)
    try:
        yield backend
    finally:
        if owned:
            backend.close()
