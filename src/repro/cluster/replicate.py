"""Mutation replay: the durable oplog and the follower that drains it.

Replication in this stack is *replay from artifact*: a replica loads
the same published snapshot the primary serves (PR 6), then converges
onto the primary's live state by replaying the primary's recorded
mutations through the ordinary ``POST /lakes/<name>/tables`` /
``DELETE /lakes/<name>/tables/<t>`` routes — which run the
delta-aware splice path whose bit-exact parity with a full rebuild
is the correctness oracle.  Two pieces implement it:

* :class:`MutationLog` — the primary-side oplog.  A JSONL file next
  to the snapshot (``<snapshot>/oplog.jsonl``), one fsync'd line per
  applied mutation, carrying a monotonically increasing ``seq`` and
  the *exact* mutation payload the primary applied.  The file opens
  with an epoch header; a republished snapshot starts a fresh file
  (and epoch), which followers detect and answer with a
  re-bootstrap.  The HTTP server records into it under its lock (see
  ``HomographHTTPServer``'s ``oplogs`` option) so log order equals
  application order.
* :class:`OplogFollower` — the replica-side sync loop step.  Polls
  the primary's ``GET /lakes/<name>/oplog?since=<applied>`` and
  replays each entry onto the replica via its mutation routes.
  Replay is idempotent (a re-delivered ``add`` of an existing table,
  or ``remove`` of a missing one, counts as already applied), so a
  crash between apply and acknowledge cannot wedge the sync.

The oplog is intentionally *not* a write-ahead log: the primary
appends after the mutation is applied, under the same lock.  A crash
between apply and append loses at most the crashing request (its
client never got a 2xx), and the primary itself recovers its
in-memory state on restart by replaying the log over the snapshot
(``domainnet serve --record-oplog`` does this before serving).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..datalake.table import Table
from ..serving.client import HomographClient, ServiceError

#: Oplog file-format version (the header line's ``"format"`` field).
OPLOG_FORMAT = 1


class OplogError(RuntimeError):
    """A structurally broken oplog (bad header, non-monotonic seq)."""


class MutationLog:
    """A durable, fsync'd JSONL log of applied table mutations.

    The file starts with a header line::

        {"format": 1, "epoch": "<random hex>", "seq": 0}

    followed by one entry per applied mutation::

        {"seq": 1, "op": "add", "table": "t", "columns": {...}}
        {"seq": 2, "op": "remove", "table": "t"}

    ``epoch`` is minted when the file is created; a republished
    snapshot drops the old file (see
    :func:`repro.snapshot.build_snapshot`), so a changed epoch tells
    followers their replayed prefix is meaningless and they must
    re-bootstrap from the new snapshot.  ``seq`` is contiguous from 1
    within an epoch.

    Opening an existing file recovers the epoch and last sequence
    number; a torn final line (crash mid-append) is truncated away.
    Appends flush and ``fsync`` before returning, so an acknowledged
    mutation survives power loss.  Instances are thread-safe; use
    :meth:`exclusive` to bracket an apply-then-append pair so log
    order equals application order.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self._path = Path(path)
        self._lock = threading.RLock()
        self._closed = False
        if self._path.exists():
            self._epoch, self._last_seq = self._recover()
        else:
            self._epoch = uuid.uuid4().hex
            self._last_seq = 0
            self._path.parent.mkdir(parents=True, exist_ok=True)
            header = {
                "format": OPLOG_FORMAT,
                "epoch": self._epoch,
                "seq": 0,
            }
            with open(self._path, "w", encoding="utf-8") as stream:
                stream.write(json.dumps(header, sort_keys=True) + "\n")
                stream.flush()
                os.fsync(stream.fileno())
            # Make the file's *existence* durable too.
            with contextlib.suppress(OSError):
                fd = os.open(self._path.parent, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        self._file = open(self._path, "a", encoding="utf-8")

    def _recover(self) -> "tuple[str, int]":
        """Re-open an existing log: validate, truncate a torn tail."""
        raw = self._path.read_bytes()
        lines = raw.split(b"\n")
        # A well-formed file ends with "\n": the final split piece is
        # empty.  Anything else is a torn append to discard.
        complete, torn = lines[:-1], lines[-1]
        entries: List[dict] = []
        good_bytes = 0
        for line in complete:
            try:
                entry = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                torn = line  # treat the rest as torn
                break
            if not isinstance(entry, dict) or "seq" not in entry:
                torn = line
                break
            entries.append(entry)
            good_bytes += len(line) + 1
        if not entries:
            raise OplogError(
                f"oplog {self._path} carries no valid header line"
            )
        header = entries[0]
        if (
            header.get("format") != OPLOG_FORMAT
            or not isinstance(header.get("epoch"), str)
        ):
            raise OplogError(
                f"oplog {self._path} header is not format "
                f"{OPLOG_FORMAT}: {header!r}"
            )
        last_seq = 0
        for position, entry in enumerate(entries):
            if entry.get("seq") != position:
                raise OplogError(
                    f"oplog {self._path} entry {position} carries "
                    f"seq {entry.get('seq')!r}; the log must be "
                    f"contiguous from 0"
                )
            last_seq = position
        if torn or good_bytes != len(raw):
            with open(self._path, "r+b") as stream:
                stream.truncate(good_bytes)
                stream.flush()
                os.fsync(stream.fileno())
        return header["epoch"], last_seq

    @property
    def path(self) -> Path:
        """Where the log lives on disk."""
        return self._path

    @property
    def epoch(self) -> str:
        """The log's epoch identifier (minted at file creation)."""
        return self._epoch

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest entry (0 = header only)."""
        with self._lock:
            return self._last_seq

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def exclusive(self):
        """The log's re-entrant lock, for apply-then-append brackets."""
        return self._lock

    def append(self, entry: Dict[str, object]) -> int:
        """Durably append one mutation entry; returns its ``seq``.

        ``entry`` is the exact mutation payload (``{"op": "add",
        "table": ..., "columns": ...}`` or ``{"op": "remove",
        "table": ...}``); the sequence number is assigned here.
        """
        with self._lock:
            if self._closed:
                raise OplogError(f"oplog {self._path} is closed")
            seq = self._last_seq + 1
            record = dict(entry)
            record["seq"] = seq
            self._file.write(json.dumps(record, sort_keys=True) + "\n")
            self._file.flush()
            os.fsync(self._file.fileno())
            self._last_seq = seq
            return seq

    def entries(self, since: int = 0) -> List[Dict[str, object]]:
        """Every entry with ``seq > since``, oldest first.

        Reads from disk (not an in-memory mirror) so a fresh
        :class:`MutationLog` over an existing file — the primary
        recovering at startup — sees the full history.
        """
        with self._lock:
            out: List[Dict[str, object]] = []
            with open(self._path, "r", encoding="utf-8") as stream:
                for line in stream:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        break  # torn tail beyond our recovered prefix
                    seq = entry.get("seq")
                    if not isinstance(seq, int) or seq <= since:
                        continue
                    if seq > self._last_seq:
                        break
                    out.append(entry)
            return out

    def read_since(self, since: int = 0) -> Dict[str, object]:
        """The ``GET /lakes/<name>/oplog?since=N`` response payload."""
        with self._lock:
            return {
                "epoch": self._epoch,
                "last_seq": self._last_seq,
                "since": since,
                "entries": self.entries(since),
            }

    def close(self) -> None:
        """Close the append handle (idempotent; reads keep working)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._file.close()

    def __enter__(self) -> "MutationLog":
        """Enter a ``with`` block; the log itself is the target."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the append handle on ``with``-block exit."""
        self.close()


def replay_entry(index, entry: Dict[str, object]) -> bool:
    """Apply one oplog entry directly to a local index; True if applied.

    The in-process twin of :meth:`OplogFollower.sync_once`'s HTTP
    replay — ``domainnet serve --record-oplog`` uses it to recover
    the primary's in-memory state from its own log before serving.
    Replay is idempotent: an ``add`` of a table that already exists,
    or a ``remove`` of one that does not, returns ``False`` instead
    of raising.
    """
    from ..datalake.lake import LakeError

    op = entry.get("op")
    table = entry.get("table")
    if op == "add":
        try:
            index.add_table(
                Table.from_columns(str(table), entry.get("columns"))
            )
        except LakeError:
            return False
        return True
    if op == "remove":
        try:
            index.remove_table(str(table))
        except LakeError:
            return False
        return True
    raise OplogError(f"unknown oplog op {op!r} in entry {entry!r}")


class OplogFollower:
    """Replays a primary lake's oplog onto one replica, over HTTP.

    One follower per (replica, lake).  Each :meth:`sync_once` polls
    the primary's ``GET /lakes/<name>/oplog?since=<applied>`` and
    replays the returned entries onto the replica through its
    ordinary mutation routes — server-side those run the delta-aware
    splice path, so after a drained sync the replica's rankings are
    byte-identical to the primary's (the splice's parity guarantee).

    An epoch change (the primary republished its snapshot, or
    restarted onto a fresh one) resets ``applied_seq`` and reports
    ``needs_bootstrap``: the caller must restart the replica from the
    new snapshot before syncing further — the supervisor does exactly
    that.

    Parameters
    ----------
    primary / replica:
        :class:`~repro.serving.client.HomographClient` handles scoped
        to the same lake on the primary and the replica.  The
        follower owns neither; close them yourself (the supervisor
        does).
    """

    def __init__(
        self, primary: HomographClient, replica: HomographClient
    ) -> None:
        self.primary = primary
        self.replica = replica
        self.applied_seq = 0
        self.epoch: Optional[str] = None
        self.replayed = 0
        self.skipped = 0

    def lag(self) -> int:
        """Entries the primary has that this follower has not applied."""
        feed = self.primary.oplog(since=self.applied_seq)
        return max(0, int(feed["last_seq"]) - self.applied_seq)

    def sync_once(self) -> Dict[str, object]:
        """One poll-and-replay step; returns a progress report.

        The report carries ``applied`` (entries replayed this step),
        ``applied_seq`` (total applied so far), ``last_seq`` (the
        primary's newest), ``lag``, and ``needs_bootstrap`` (the
        primary's epoch changed; nothing was replayed and the replica
        must be re-bootstrapped from the current snapshot).
        """
        feed = self.primary.oplog(since=self.applied_seq)
        epoch = str(feed["epoch"])
        last_seq = int(feed["last_seq"])
        if self.epoch is None:
            self.epoch = epoch
        elif epoch != self.epoch:
            self.epoch = epoch
            self.applied_seq = 0
            return {
                "applied": 0,
                "applied_seq": 0,
                "last_seq": last_seq,
                "lag": last_seq,
                "needs_bootstrap": True,
            }
        applied = 0
        for entry in feed.get("entries", []):
            seq = int(entry["seq"])
            if seq <= self.applied_seq:
                continue
            if self._replay(entry):
                self.replayed += 1
            else:
                self.skipped += 1
            self.applied_seq = seq
            applied += 1
        return {
            "applied": applied,
            "applied_seq": self.applied_seq,
            "last_seq": last_seq,
            "lag": max(0, last_seq - self.applied_seq),
            "needs_bootstrap": False,
        }

    def _replay(self, entry: Dict[str, object]) -> bool:
        """Apply one entry to the replica; False = already applied."""
        op = entry.get("op")
        table = entry.get("table")
        if op == "add":
            try:
                self.replica.add_table(
                    Table.from_columns(str(table), entry.get("columns"))
                )
            except ServiceError as error:
                if error.code == "duplicate-table":
                    return False
                raise
            return True
        if op == "remove":
            try:
                self.replica.remove_table(str(table))
            except ServiceError as error:
                if error.code == "unknown-table":
                    return False
                raise
            return True
        raise OplogError(f"unknown oplog op {op!r} in entry {entry!r}")
