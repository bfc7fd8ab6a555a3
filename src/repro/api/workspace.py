"""The multi-lake :class:`Workspace` — one process, many lakes, one pool.

A single :class:`~repro.api.HomographIndex` serves one lake.  A
deployment rarely has one lake: the paper's benchmarks alone are three
(SB, TUS, TUS-I), and the ROADMAP's north star is a server hosting many
tenants.  ``Workspace`` owns a set of *named* indexes and makes them
share one persistent execution backend, so N lakes cost one worker
pool — not N pools — while each lake keeps its own shared-memory CSR
export, score cache, and incremental mutation surface::

    from repro import ExecutionConfig, Workspace

    workspace = Workspace(
        execution=ExecutionConfig(n_jobs=4, persistent=True))
    workspace.attach("zoo", zoo_lake)
    workspace.attach("cars", "path/to/cars/csvs")      # or a directory

    workspace.get("zoo").detect(measure="betweenness")  # shared pool
    workspace.get("cars").detect(measure="lcc")         # same pool
    workspace.close()   # closes every index, then the one pool

Every lake is addressed by its name.  ``detach`` closes an index and
releases its export without disturbing siblings; ``close`` (or a
``with`` block) drains everything and finally tears the shared backend
down.  All methods are thread-safe.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple, Union

from ..datalake.lake import DataLake
from ..perf.backends import (
    ExecutionBackend,
    backend_stats,
    resolve_backend,
)
from ..perf.config import ExecutionConfig
from .index import HomographIndex

#: Lake names must be URL-path-safe: they become ``/lakes/<name>/...``
#: route segments on the HTTP front-end.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class WorkspaceError(RuntimeError):
    """Base class for workspace lifecycle and naming errors."""


class UnknownLakeError(WorkspaceError, KeyError):
    """Raised when a lake name is not attached to the workspace."""

    def __str__(self) -> str:
        """Render like a RuntimeError, not KeyError's quoted repr."""
        return self.args[0] if self.args else ""


class DuplicateLakeError(WorkspaceError):
    """Raised when attaching a lake under a name already in use."""


def validate_lake_quota(quota: Optional[int]) -> Optional[int]:
    """Check that ``quota`` is a legal per-lake admission quota.

    ``None`` (no explicit quota — the server derives one) passes
    through; anything else must be an ``int >= 1``.  Returns the value
    unchanged; raises :class:`ValueError` otherwise.  ``bool`` is
    rejected explicitly — ``True`` is an ``int`` to ``isinstance`` but
    never a sane quota.
    """
    if quota is None:
        return None
    if isinstance(quota, bool) or not isinstance(quota, int) or quota < 1:
        raise ValueError(
            f"invalid lake quota {quota!r}: expected an integer >= 1 "
            "(or None for the server-derived default)"
        )
    return quota


def validate_lake_name(name: str) -> str:
    """Check that ``name`` is a legal (URL-safe) lake name.

    Returns the name unchanged; raises :class:`ValueError` otherwise.
    Legal names start with an alphanumeric and continue with
    alphanumerics, dots, underscores, or dashes (max 64 characters).
    """
    # fullmatch, not match: '$' would tolerate a trailing newline,
    # producing a mounted lake no URL path could ever reach.
    if not isinstance(name, str) or not _NAME_PATTERN.fullmatch(name):
        raise ValueError(
            f"invalid lake name {name!r}: expected 1-64 characters of "
            "[A-Za-z0-9._-] starting with a letter or digit"
        )
    return name


class Workspace:
    """A named set of :class:`HomographIndex` instances sharing one pool.

    Parameters
    ----------
    execution:
        The :class:`~repro.perf.ExecutionConfig` every attached index
        inherits.  When it resolves to a process backend, **one**
        backend instance is created lazily and shared across all
        indexes — each index publishes its own graph export into the
        shared backend's export table, and only the workspace closes
        the backend.  ``None`` (default) scores serially with no
        shared machinery.
    prune_candidates:
        Default for :class:`HomographIndex` construction; ``attach``
        can override per lake.

    Thread safety
    -------------
    ``attach``/``detach``/``get``/``names``/``stats``/``close`` may be
    called concurrently with each other and with queries running on
    the member indexes.
    """

    def __init__(
        self,
        execution: Optional[ExecutionConfig] = None,
        prune_candidates: bool = True,
    ) -> None:
        self._execution = execution
        self._prune_candidates = prune_candidates
        self._lock = threading.RLock()
        self._indexes: "OrderedDict[str, HomographIndex]" = OrderedDict()
        # Explicit per-lake admission quotas (lakes without an entry
        # get the server-derived share); see quota()/set_quota().
        self._quotas: Dict[str, int] = {}
        self._backend: Optional[ExecutionBackend] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Shared backend
    # ------------------------------------------------------------------
    @property
    def execution(self) -> Optional[ExecutionConfig]:
        """The execution configuration shared by every attached index."""
        return self._execution

    @property
    def backend(self) -> Optional[ExecutionBackend]:
        """The shared backend, if one has been created yet."""
        with self._lock:
            return self._backend

    def _shared_backend(self) -> Optional[ExecutionBackend]:
        """Resolve the one workspace-scoped backend (lazily)."""
        if self._execution is None:
            return None
        with self._lock:
            if self._closed:
                # Resolving a backend after close would fork a pool
                # nothing will ever tear down again.
                raise WorkspaceError("Workspace is closed")
            if self._backend is None:
                self._backend = resolve_backend(self._execution)
            return self._backend

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def attach(
        self,
        name: str,
        lake: Union[DataLake, str, "object"],
        prune_candidates: Optional[bool] = None,
        quota: Optional[int] = None,
    ) -> HomographIndex:
        """Mount a lake under ``name``; returns its new index.

        ``lake`` is a :class:`~repro.datalake.DataLake`, a directory
        (``str`` / ``os.PathLike``) of ``*.csv`` tables to load, or a
        snapshot directory written by :meth:`HomographIndex.save`
        (auto-detected by its ``manifest.json``) — the latter mounts
        via :meth:`HomographIndex.load`, skipping the graph build and
        pre-warming the score cache.  Either way the index rides the
        workspace's execution config and shared backend, so its
        queries share the one pool.  ``quota`` optionally pins this
        lake's admission quota (see :meth:`set_quota`) atomically with
        the mount.
        """
        validate_lake_name(name)
        validate_lake_quota(quota)
        prune = (
            self._prune_candidates
            if prune_candidates is None
            else prune_candidates
        )
        index: Optional[HomographIndex] = None
        if not isinstance(lake, DataLake):
            from ..snapshot.store import is_snapshot

            if is_snapshot(lake):
                # The snapshot records its own prune setting; loading
                # happens before the membership lock so a slow load
                # (hash verification) never stalls sibling lookups.
                index = HomographIndex.load(
                    lake,
                    execution=self._execution,
                    backend=self._shared_backend(),
                )
            else:
                from ..datalake.csv_io import load_lake

                lake = load_lake(lake)
        preloaded = index
        try:
            with self._lock:
                if self._closed:
                    raise WorkspaceError("Workspace is closed")
                if name in self._indexes:
                    raise DuplicateLakeError(
                        f"lake {name!r} is already attached"
                    )
                if index is None:
                    index = HomographIndex(
                        lake,
                        prune_candidates=prune,
                        execution=self._execution,
                        backend=self._shared_backend(),
                    )
                self._indexes[name] = index
                if quota is not None:
                    self._quotas[name] = quota
                return index
        except BaseException:
            # A snapshot index that lost the membership race holds
            # mmap handles over its directory: release them instead
            # of leaking them until GC.
            if preloaded is not None:
                preloaded.close()
            raise

    def attach_index(
        self,
        name: str,
        index: HomographIndex,
        quota: Optional[int] = None,
    ) -> None:
        """Mount an existing index under ``name``.

        The index keeps whatever execution machinery it was built
        with (it does *not* join the shared pool); the workspace takes
        over its lifecycle — ``detach``/``close`` will close it.  This
        is how an embedder serves an index it built itself.
        ``quota`` pins the lake's admission quota, as :meth:`attach`
        documents.
        """
        validate_lake_name(name)
        validate_lake_quota(quota)
        with self._lock:
            if self._closed:
                raise WorkspaceError("Workspace is closed")
            if name in self._indexes:
                raise DuplicateLakeError(
                    f"lake {name!r} is already attached"
                )
            self._indexes[name] = index
            if quota is not None:
                self._quotas[name] = quota

    def detach(self, name: str) -> HomographIndex:
        """Unmount ``name``: close its index, release its export.

        Siblings and the shared backend are untouched (the index's
        ``close`` only drops its own graph export on a shared
        backend).  Any explicit admission quota for the name is
        forgotten with it.  Returns the closed index — its lake and
        cached state remain readable.
        """
        with self._lock:
            index = self._indexes.pop(name, None)
            self._quotas.pop(name, None)
        if index is None:
            raise UnknownLakeError(f"no lake named {name!r}")
        index.close()
        return index

    def quota(self, name: str) -> Optional[int]:
        """The explicit admission quota for ``name``, or ``None``.

        ``None`` means no override was set: the HTTP server derives
        the lake's share of the global gate instead (see
        ``docs/serving.md``).  Unknown names also answer ``None`` —
        quotas are advisory scheduling state, not membership.
        """
        with self._lock:
            return self._quotas.get(name)

    def set_quota(self, name: str, quota: Optional[int]) -> None:
        """Pin (or clear, with ``None``) the admission quota of a lake.

        The quota caps how many compute requests the HTTP front-end
        admits concurrently for this lake; the workspace only stores
        it.  Raises :class:`UnknownLakeError` for unattached names and
        :class:`ValueError` for quotas that are not ``None`` or an
        ``int >= 1``.
        """
        validate_lake_quota(quota)
        with self._lock:
            if name not in self._indexes:
                raise UnknownLakeError(f"no lake named {name!r}")
            if quota is None:
                self._quotas.pop(name, None)
            else:
                self._quotas[name] = quota

    def get(self, name: str) -> HomographIndex:
        """The index mounted at ``name`` (raises UnknownLakeError)."""
        with self._lock:
            index = self._indexes.get(name)
        if index is None:
            raise UnknownLakeError(f"no lake named {name!r}")
        return index

    def names(self) -> Tuple[str, ...]:
        """Attached lake names, in attachment order."""
        with self._lock:
            return tuple(self._indexes)

    def __len__(self) -> int:
        """Number of attached lakes."""
        with self._lock:
            return len(self._indexes)

    def __contains__(self, name: object) -> bool:
        """Whether a lake of that name is attached."""
        with self._lock:
            return name in self._indexes

    def __iter__(self) -> Iterator[str]:
        """Iterate over attached lake names (attachment order)."""
        return iter(self.names())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def stats(self) -> Dict[str, object]:
        """One JSON-safe snapshot of the whole workspace.

        ``lakes`` maps each name to its index's
        :meth:`HomographIndex.stats` snapshot; ``pool`` reports the
        shared backend (worker count, liveness, total exported
        segments across all lakes).
        """
        with self._lock:
            members = list(self._indexes.items())
            quotas = dict(self._quotas)
            backend = self._backend
            closed = self._closed
        return {
            "lakes": {name: index.stats() for name, index in members},
            "closed": closed,
            "quotas": quotas,
            "pool": backend_stats(
                backend, configured=self._execution is not None
            ),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every attached index, then the shared backend.

        Idempotent.  Indexes drain their admitted calls as
        :meth:`HomographIndex.close` documents; the shared backend —
        the one worker pool and any remaining shared-memory
        segments — is torn down last, once no index can reach it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            members = list(self._indexes.values())
            backend, self._backend = self._backend, None
        for index in members:
            index.close()
        if backend is not None:
            backend.close()

    def __enter__(self) -> "Workspace":
        """Enter a ``with`` block; the workspace itself is the target."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the workspace (indexes, then pool) on block exit."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace(lakes={list(self.names())!r}, "
            f"closed={self._closed})"
        )
