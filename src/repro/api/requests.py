"""Typed request/response objects for the detection API.

Detection used to be configured through a growing pile of keyword
arguments (``measure=``, ``sample_size=``, ``lcc_variant=``, ...).
:class:`DetectRequest` gathers them into one immutable, hashable value
object that doubles as the score-cache key, and :class:`DetectResponse`
carries the outcome with ``to_dict``/``to_json``/``from_json``
round-trip serialization so results can cross process boundaries (CLI
``--json``, services, result stores).

Custom measures registered via :func:`repro.api.register_measure` read
their extra knobs from ``request.options`` (see
:meth:`DetectRequest.option`); the built-in fields cover the paper's
two measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.betweenness import ENDPOINT_MODES
from ..core.lcc import LCC_VARIANTS
from ..core.ranking import HomographRanking, RankedValue, splice_rows
from ..perf.config import ExecutionConfig, check_count

#: Serialization schema version, bumped on incompatible layout changes.
SCHEMA_VERSION = 1


def _check_choice(name: str, value: object, choices: Tuple) -> None:
    if value not in choices:
        raise ValueError(
            f"unknown {name} {value!r}; expected one of {choices}"
        )


def _hashable_option(value: object) -> object:
    """Normalize an option value so requests stay hashable and stable.

    JSON turns tuples into lists; canonicalizing sequences to tuples
    (and mappings to sorted pair tuples) keeps a request equal to its
    serialized round-trip and keeps ``cache_key`` hashable.
    """
    if isinstance(value, Mapping):
        return tuple(
            sorted((str(k), _hashable_option(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_hashable_option(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_hashable_option(v) for v in value))
    return value


@dataclass(frozen=True)
class DetectRequest:
    """Configuration of one detection run.

    Parameters
    ----------
    measure:
        Registered measure name (``"betweenness"``, ``"lcc"``, or any
        third-party registration).
    sample_size:
        Betweenness only: number of sampled sources (an integer >= 1)
        for approximate BC; ``None`` computes exactly.  The paper finds
        ~1% of nodes sufficient (§5.4).
    seed:
        RNG seed (an integer >= 0) for the sampled approximation.
    lcc_variant:
        LCC only: ``"attribute-jaccard"`` (paper implementation) or
        ``"value-neighbors"`` (literal Eq. 1).
    endpoints:
        Betweenness only: ``"all"`` (paper) or ``"values"`` (footnote-2
        variant).
    options:
        Free-form extra knobs for custom measures, stored as a sorted
        tuple of ``(name, value)`` pairs so the request stays hashable.
        A mapping passed here is normalized automatically.
    execution:
        Optional :class:`~repro.perf.ExecutionConfig` choosing the
        execution backend (serial / multi-process, per-call or
        persistent pool) for the built-in measures.  Execution changes
        *how* scores are computed, never *what* they are, so it is
        deliberately excluded from :attr:`cache_key` — a parallel run
        can be served from a cached serial result and vice versa, and
        identical requests differing only in execution coalesce into
        one in-flight computation on a serving index.

    The built-in fields are checked on construction: a bad type
    raises :class:`TypeError`, a bad value :class:`ValueError`.
    ``options`` are checked by their measure's request check, if it
    registered one (:func:`repro.api.check_request`).
    """

    measure: str = "betweenness"
    sample_size: Optional[int] = None
    seed: Optional[int] = None
    lcc_variant: str = "attribute-jaccard"
    endpoints: str = "all"
    options: Tuple[Tuple[str, object], ...] = ()
    execution: Optional[ExecutionConfig] = None

    def __post_init__(self) -> None:
        pairs = (
            self.options.items()
            if isinstance(self.options, Mapping)
            else self.options
        )
        normalized = tuple(
            sorted((str(k), _hashable_option(v)) for k, v in pairs)
        )
        object.__setattr__(self, "options", normalized)
        check_count("sample_size", self.sample_size, 1)
        check_count("seed", self.seed, 0)
        _check_choice("lcc_variant", self.lcc_variant, LCC_VARIANTS)
        _check_choice("endpoints", self.endpoints, ENDPOINT_MODES)
        if isinstance(self.execution, Mapping):
            object.__setattr__(
                self, "execution", ExecutionConfig.from_dict(self.execution)
            )
        elif not isinstance(self.execution, (ExecutionConfig, type(None))):
            raise TypeError(
                f"execution must be a mapping or an ExecutionConfig, "
                f"got {self.execution!r}"
            )

    def option(self, name: str, default: object = None) -> object:
        """Value of an extra knob, for custom measures."""
        for key, value in self.options:
            if key == name:
                return value
        return default

    def with_overrides(self, **overrides) -> "DetectRequest":
        """A copy with some fields replaced."""
        return replace(self, **overrides)

    @property
    def cache_key(self) -> Tuple:
        """Hashable identity of this configuration for score caching."""
        return (
            self.measure,
            self.sample_size,
            self.seed,
            self.lcc_variant,
            self.endpoints,
            self.options,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return {
            "measure": self.measure,
            "sample_size": self.sample_size,
            "seed": self.seed,
            "lcc_variant": self.lcc_variant,
            "endpoints": self.endpoints,
            "options": dict(self.options),
            "execution": (
                self.execution.to_dict() if self.execution else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DetectRequest":
        """Rebuild a request from :meth:`to_dict` output."""
        return cls(
            measure=str(payload.get("measure", "betweenness")),
            sample_size=payload.get("sample_size"),
            seed=payload.get("seed"),
            lcc_variant=str(payload.get("lcc_variant", "attribute-jaccard")),
            endpoints=str(payload.get("endpoints", "all")),
            options=payload.get("options") or (),
            execution=payload.get("execution") or None,
        )


@dataclass
class DetectResponse:
    """Outcome of one detection run, serializable end to end.

    ``ranking`` orders every scored value (best candidate first) and
    ``scores`` is the same data as a map: on every response the
    library builds, the ranking's read-only
    :class:`~repro.core.ranking.RankingScores` view, not a copy.
    ``cached`` marks responses served from a
    :class:`~repro.api.index.HomographIndex` score cache without
    recomputation; their timings are those of the original run.
    """

    measure: str
    ranking: HomographRanking
    scores: Mapping[str, float]
    descending: bool
    graph_seconds: float
    measure_seconds: float
    parameters: Dict[str, object] = field(default_factory=dict)
    cached: bool = False
    request: Optional[DetectRequest] = None

    def top(self, k: int) -> List[RankedValue]:
        """The best ``k`` ranked entries (rank, value, score)."""
        return self.ranking.top(k)

    def top_values(self, k: int) -> List[str]:
        """The best ``k`` value names only."""
        return self.ranking.top_values(k)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _envelope(self) -> Dict[str, object]:
        """Every field of :meth:`to_dict` but the ranking rows."""
        return {
            "schema": SCHEMA_VERSION,
            "measure": self.measure,
            "descending": self.descending,
            "graph_seconds": self.graph_seconds,
            "measure_seconds": self.measure_seconds,
            "cached": self.cached,
            "parameters": dict(self.parameters),
            "request": self.request.to_dict() if self.request else None,
        }

    def to_dict(self, top: Optional[int] = None) -> Dict[str, object]:
        """JSON-safe representation; inverse of :meth:`from_dict`.

        ``top`` truncates the serialized ranking to its best ``top``
        entries (the CLI's ``--json`` uses this to keep payloads small);
        ``None`` serializes everything.
        """
        if top is not None and top < 0:
            raise ValueError("top must be non-negative")
        payload = self._envelope()
        payload["ranking"] = self.ranking.entry_dicts(top)
        return payload

    def to_json_bytes(self, top: Optional[int] = None) -> bytes:
        """``json.dumps(self.to_dict(top=top), sort_keys=True)`` as bytes.

        The ranking rows are spliced from the ranking's memo
        (:meth:`~repro.core.ranking.HomographRanking.encoded_rows`),
        so a cached response encodes each row once, not once per
        request.
        """
        return splice_rows(
            self._envelope(), "ranking", self.ranking.encoded_rows(0, top)
        )

    def to_json(self, indent: Optional[int] = None,
                top: Optional[int] = None) -> str:
        """Serialize :meth:`to_dict` as deterministic (sorted) JSON."""
        return json.dumps(self.to_dict(top=top), indent=indent,
                          sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DetectResponse":
        """Rebuild a response from :meth:`to_dict` output.

        Rejects payloads whose ``schema`` does not match this build's
        :data:`SCHEMA_VERSION`, and rankings whose ranks are not
        ``1..n`` in order (:class:`ValueError`).
        """
        # The version first: a newer layout fails on it, not on a row.
        cls._check_schema(payload)
        descending = bool(payload["descending"])
        measure = str(payload["measure"])
        return cls.from_envelope(payload, HomographRanking.from_rows(
            payload["ranking"], descending=descending, measure=measure
        ))

    @staticmethod
    def _check_schema(payload: Mapping) -> None:
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported DetectResponse schema {schema!r}; "
                f"this build reads schema {SCHEMA_VERSION}"
            )

    @classmethod
    def from_envelope(
        cls, payload: Mapping, ranking: HomographRanking
    ) -> "DetectResponse":
        """A response from :meth:`to_dict` fields and a built ranking.

        Checks ``schema`` as :meth:`from_dict` does;
        ``payload["ranking"]``, if present, is not read (the snapshot
        loader stores the rows as columns beside the envelope).
        """
        cls._check_schema(payload)
        request_payload = payload.get("request")
        return cls(
            measure=str(payload["measure"]),
            ranking=ranking,
            scores=ranking.scores,
            descending=bool(payload["descending"]),
            graph_seconds=float(payload["graph_seconds"]),
            measure_seconds=float(payload["measure_seconds"]),
            parameters=dict(payload.get("parameters") or {}),
            cached=bool(payload.get("cached", False)),
            request=(
                DetectRequest.from_dict(request_payload)
                if request_payload
                else None
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "DetectResponse":
        """Parse a :meth:`to_json` payload back into a response."""
        return cls.from_dict(json.loads(text))
