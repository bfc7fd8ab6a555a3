"""Execution configuration for the parallel compute engine.

One small value object, :class:`ExecutionConfig`, describes *how* a
score computation should run — which backend, how many worker
processes, how finely the work is chunked — without saying anything
about *what* is computed.  It threads from the public API
(``DetectRequest(execution=...)``, the CLI ``--jobs`` flag) down to the
core measures, which hand their per-source / per-sample / per-value
work lists to the resolved backend.

Execution choice never changes results beyond floating-point
summation order: the serial backend remains the bit-exact reference,
and the process backend is required (and tested) to match it to tight
tolerance — identically, when the chunking is pinned.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional

#: Recognized backend names.  ``auto`` picks ``process`` when more
#: than one worker is requested and ``serial`` otherwise.
BACKEND_NAMES = ("auto", "serial", "process")


def check_count(name: str, value: object, minimum: int) -> None:
    """``value`` must be ``None`` or an integer ``>= minimum``.

    numpy integers pass; ``bool`` does not, though it is an ``int``.
    """
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def available_cores() -> int:
    """CPUs usable by this process (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ExecutionConfig:
    """How a score computation is executed.

    Parameters
    ----------
    backend:
        ``"serial"`` runs everything in-process (the bit-exact
        default), ``"process"`` fans chunks across a worker pool fed
        through shared memory, and ``"auto"`` (default) resolves to
        ``process`` exactly when the effective job count exceeds one.
    n_jobs:
        Worker processes.  ``None`` means *one* under ``auto``/
        ``serial`` (conservative default) and *all available cores*
        under ``process``.
    chunk_size:
        Work items (Brandes sources, RK samples, LCC values) per task.
        ``None`` derives a size from the job count; pin it explicitly
        when bit-identical results across backends are required.
    persistent:
        ``False`` (default) keeps the historical per-call behavior: a
        process backend forks its worker pool inside each
        ``map_chunks`` call and tears it down afterwards.  ``True``
        asks for a *serving* backend whose pool and shared-memory
        graph export stay alive across calls; the owner must then
        release it explicitly (``backend.close()``, or
        ``HomographIndex.close()`` when the config is attached to an
        index).  Serial execution ignores the flag.
    """

    backend: str = "auto"
    n_jobs: Optional[int] = None
    chunk_size: Optional[int] = None
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of {BACKEND_NAMES}"
            )
        check_count("n_jobs", self.n_jobs, 1)
        check_count("chunk_size", self.chunk_size, 1)
        if not isinstance(self.persistent, bool):
            raise TypeError(
                f"persistent must be a bool, got {self.persistent!r}"
            )

    @property
    def effective_jobs(self) -> int:
        """The concrete worker count this configuration asks for."""
        if self.backend == "serial":
            return 1
        if self.n_jobs is not None:
            return self.n_jobs
        return available_cores() if self.backend == "process" else 1

    @property
    def resolved_backend(self) -> str:
        """``auto`` collapsed to a concrete backend name."""
        if self.backend == "auto":
            return "process" if self.effective_jobs > 1 else "serial"
        return self.backend

    def with_overrides(self, **overrides) -> "ExecutionConfig":
        """A copy with some fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization (rides inside DetectRequest.to_dict / from_dict)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return {
            "backend": self.backend,
            "n_jobs": self.n_jobs,
            "chunk_size": self.chunk_size,
            "persistent": self.persistent,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExecutionConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Older payloads without ``persistent`` default to the per-call
        behavior.  An unknown key raises :class:`ValueError` naming
        it, so a misspelling cannot run silently with the defaults.
        """
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ValueError(
                f"unknown execution field(s) {unknown}; expected {known}"
            )
        return cls(
            backend=str(payload.get("backend", "auto")),
            n_jobs=payload.get("n_jobs"),
            chunk_size=payload.get("chunk_size"),
            persistent=payload.get("persistent", False),
        )
