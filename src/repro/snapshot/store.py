"""On-disk snapshot store: atomic directory writes, verified loads.

A snapshot is a plain directory whose contents are described — and
integrity-protected — by a ``manifest.json`` at its root.  This module
owns the *container* concerns so :mod:`repro.snapshot.artifacts` can
deal purely in lake artifacts:

* the typed error surface (:class:`SnapshotError` and friends) —
  loaders never leak raw :class:`OSError` / numpy ``ValueError`` /
  ``KeyError`` at a corrupt snapshot, they raise these instead;
* :func:`write_snapshot`, the atomic publisher: artifacts are staged
  into a temp directory next to the target, every file (and the
  directory itself) is fsynced, the manifest is written last, and one
  ``os.rename`` makes the snapshot visible — a crash mid-build leaves
  either the old snapshot or none, never a torn one;
* :func:`load_manifest`, the verified reader: format-version gate
  (a snapshot from a *newer* library raises
  :class:`SnapshotVersionError` instead of misparsing) and sha256
  content-hash verification of every manifested file.

The manifest schema (format 2)::

    {
      "format": 2,
      "library_version": "2.1.0",
      "created_at": 1723111200.0,
      "prune_candidates": true,
      "graph": {"num_values": ..., "num_attributes": ...,
                "num_edges": ..., "graph_seconds": ...},
      "scores": 2,
      "tables": 4,
      "files": {"graph/indptr.npy": {"bytes": N, "sha256": "..."}, ...}
    }

Format 1 had no ``tables`` count and stored each score-cache entry
as one JSON file (see :mod:`repro.snapshot.artifacts`); this build
reads both.

``files`` covers every artifact the loader reads.  Two pieces of
*runtime* state live inside a snapshot directory and are therefore
never manifested — they may mutate after the build without breaking
verification:

* ``jobs/`` — the :class:`~repro.serving.jobs.JobManager` spill area;
* ``oplog.jsonl`` — the replication mutation log a primary appends to
  (see :mod:`repro.cluster.replicate`).  Republishing a snapshot via
  :func:`write_snapshot` swaps the whole directory, so the oplog is
  intentionally *not* carried over: the republished artifacts already
  contain every logged mutation, and replicas detect the fresh epoch
  and re-bootstrap.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, Union

#: Snapshot layout version written by this build.  Bumped on
#: incompatible layout changes; loaders read every format up to it
#: and reject anything newer.
FORMAT_VERSION = 2

#: The manifest file name; its presence marks a directory as a snapshot.
MANIFEST_NAME = "manifest.json"

#: Runtime subdirectory excluded from manifest hashing (job spill area).
JOBS_DIRNAME = "jobs"

#: Runtime replication log excluded from manifest hashing: the primary
#: appends every applied mutation here (see repro.cluster.replicate).
OPLOG_NAME = "oplog.jsonl"


class SnapshotError(RuntimeError):
    """Base class for every snapshot build/load failure."""


class SnapshotCorruptionError(SnapshotError):
    """A snapshot exists but cannot be trusted.

    Raised for missing or truncated artifact files, content-hash
    mismatches, and unparseable manifests — anything where the bytes
    on disk do not match what the manifest promised.
    """


class SnapshotVersionError(SnapshotError):
    """The snapshot's format version is newer than this build reads."""


def is_snapshot(path: Union[str, os.PathLike]) -> bool:
    """Whether ``path`` looks like a snapshot directory.

    True when it is a directory containing a ``manifest.json`` — the
    cheap dispatch test :meth:`repro.Workspace.attach` uses to decide
    between the snapshot loader and the CSV lake loader.  No
    verification happens here.
    """
    try:
        return Path(path).joinpath(MANIFEST_NAME).is_file()
    except OSError:
        return False


def file_sha256(path: Path) -> str:
    """Streaming sha256 of one file (hex digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _fsync_path(path: Path) -> None:
    """fsync one file or directory, ignoring filesystems that refuse.

    Directory fsync is required for the rename to be durable on POSIX;
    some filesystems (and platforms) reject ``os.open`` on
    directories, in which case the write is still atomic, just not
    crash-durable — the best the platform offers.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def hash_tree(root: Path) -> Dict[str, Dict[str, object]]:
    """The manifest ``files`` table for a staged snapshot directory.

    Walks every regular file under ``root`` except the manifest
    itself, anything under the runtime ``jobs/`` area, and the
    runtime ``oplog.jsonl`` replication log; keys are ``/``-separated
    relative paths so manifests are portable across platforms.
    """
    table: Dict[str, Dict[str, object]] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        relative = path.relative_to(root)
        if relative.name == MANIFEST_NAME and len(relative.parts) == 1:
            continue
        if relative.name == OPLOG_NAME and len(relative.parts) == 1:
            continue
        if relative.parts and relative.parts[0] == JOBS_DIRNAME:
            continue
        table[relative.as_posix()] = {
            "bytes": path.stat().st_size,
            "sha256": file_sha256(path),
        }
    return table


def write_snapshot(
    target: Union[str, os.PathLike],
    stage: Callable[[Path], Dict[str, object]],
) -> Dict[str, object]:
    """Build a snapshot at ``target`` atomically; returns its manifest.

    ``stage`` is called with an empty temporary directory (created
    next to ``target``, so the final rename never crosses a
    filesystem) and must write every artifact file into it, returning
    the manifest *header* — everything except ``format`` and
    ``files``, which this function fills in after hashing the staged
    tree.  Publication order: artifact files → manifest → fsync of
    every file and the staged directory → rename into place (an
    existing snapshot at ``target`` is swapped out and deleted only
    after the new one is visible).
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(
        prefix=f".{target.name}.staging-", dir=target.parent
    ))
    try:
        header = stage(staging)
        manifest: Dict[str, object] = dict(header)
        manifest["format"] = FORMAT_VERSION
        manifest["files"] = hash_tree(staging)
        manifest_path = staging / MANIFEST_NAME
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        for path in sorted(staging.rglob("*")):
            if path.is_file():
                _fsync_path(path)
        _fsync_path(staging)
        previous = None
        if target.exists():
            # os.rename cannot replace a non-empty directory: swap the
            # old snapshot aside first, remove it once the new one is
            # in place.
            previous = Path(tempfile.mkdtemp(
                prefix=f".{target.name}.previous-", dir=target.parent
            ))
            os.rename(target, previous / "snapshot")
        os.rename(staging, target)
        _fsync_path(target.parent)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        return manifest
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def load_manifest(
    path: Union[str, os.PathLike], verify: bool = True
) -> Dict[str, object]:
    """Read (and optionally hash-verify) a snapshot's manifest.

    Raises :class:`SnapshotCorruptionError` when the directory or
    manifest is missing/unparseable or a manifested file is absent,
    resized, or fails its sha256 check, and
    :class:`SnapshotVersionError` when the snapshot was written by a
    newer format than this build reads.  ``verify=False`` skips the
    (full-content) hash pass — the format and structural checks still
    run.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    try:
        raw = manifest_path.read_text(encoding="utf-8")
    except OSError as error:
        raise SnapshotCorruptionError(
            f"no readable snapshot manifest at {manifest_path}: {error}"
        ) from None
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as error:
        raise SnapshotCorruptionError(
            f"snapshot manifest {manifest_path} is not valid JSON: "
            f"{error}"
        ) from None
    if not isinstance(manifest, dict):
        raise SnapshotCorruptionError(
            f"snapshot manifest {manifest_path} must be a JSON object"
        )
    fmt = manifest.get("format")
    if type(fmt) is not int or fmt < 1:
        raise SnapshotCorruptionError(
            f"snapshot manifest {manifest_path} carries no integer "
            f"'format' field >= 1"
        )
    if fmt > FORMAT_VERSION:
        raise SnapshotVersionError(
            f"snapshot at {root} uses format {fmt}, but this build "
            f"reads format <= {FORMAT_VERSION}; upgrade the library "
            f"or rebuild the snapshot"
        )
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise SnapshotCorruptionError(
            f"snapshot manifest {manifest_path} carries no 'files' table"
        )
    for relative, meta in files.items():
        artifact = root / relative
        if not artifact.is_file():
            raise SnapshotCorruptionError(
                f"snapshot artifact {relative!r} is missing from {root}"
            )
        expected_bytes = meta.get("bytes")
        actual_bytes = artifact.stat().st_size
        if actual_bytes != expected_bytes:
            raise SnapshotCorruptionError(
                f"snapshot artifact {relative!r} is {actual_bytes} "
                f"bytes; manifest expects {expected_bytes} (truncated "
                f"or overwritten?)"
            )
        if verify:
            actual = file_sha256(artifact)
            if actual != meta.get("sha256"):
                raise SnapshotCorruptionError(
                    f"snapshot artifact {relative!r} fails its content "
                    f"hash: manifest {meta.get('sha256')!r}, actual "
                    f"{actual!r}"
                )
    return manifest
