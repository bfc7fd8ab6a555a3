"""Ranking of homograph candidates (step 3 of the Figure 4 pipeline).

Scores flow in from either measure; the ranking layer knows only the
direction in which "more homograph-like" points: descending for
betweenness centrality (Hypothesis 3.5), ascending for the local
clustering coefficient (Hypothesis 3.4).  Ties break lexicographically
on the value name so rankings are deterministic across runs.

Every JSON body that carries ranking entries (a ``DetectResponse``
payload, a ranking page) is spliced from rows encoded here, once per
ranking: :meth:`HomographRanking.encoded_rows` memoizes each entry's
row text, and :func:`splice_rows` joins a slice of it into the small
sorted-key envelope.  The bytes equal ``json.dumps(payload,
sort_keys=True)`` of the ``to_dict`` form.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

#: ``json.dumps(obj, sort_keys=True)`` without a new encoder per call.
_JSON = json.JSONEncoder(sort_keys=True)


@dataclass(frozen=True)
class RankedValue:
    """One entry of a homograph ranking."""

    rank: int  # 1-based
    value: str
    score: float

    def to_dict(self) -> Dict[str, object]:
        """The entry's JSON row, as every ranking payload carries it."""
        return {"rank": self.rank, "value": self.value, "score": self.score}


def _encode_row(entry: RankedValue) -> str:
    """``json.dumps(entry.to_dict(), sort_keys=True)``, written directly.

    A plain finite float prints as ``float.__repr__``, as the json
    encoder prints it; anything else (``NaN``, ``±Infinity``, a float
    subclass) goes through the encoder itself.
    """
    score = entry.score
    if type(score) is float and math.isfinite(score):
        score_text = float.__repr__(score)
    else:
        score_text = _JSON.encode(score)
    return '{"rank": %d, "score": %s, "value": %s}' % (
        entry.rank, score_text, encode_basestring_ascii(entry.value),
    )


def _join_rows(rows: Sequence[str]) -> str:
    """The JSON list of already-encoded rows."""
    return "[" + ", ".join(rows) + "]"


def splice_rows(
    envelope: Mapping[str, object], key: str, rows: str
) -> bytes:
    """``json.dumps({**envelope, key: ...}, sort_keys=True)`` as bytes.

    ``rows`` is the already-encoded JSON list stored under ``key``;
    every other field is encoded here, in sorted-key order, with the
    separators ``json.dumps`` uses.
    """
    fields = sorted(
        [(name, _JSON.encode(value)) for name, value in envelope.items()]
        + [(key, rows)]
    )
    return (
        "{"
        + ", ".join(f"{_JSON.encode(name)}: {text}" for name, text in fields)
        + "}"
    ).encode("utf-8")


@dataclass(frozen=True)
class RankingPage:
    """One page of a cursor-paginated ranking traversal.

    ``entries`` are consecutive :class:`RankedValue` items in rank
    order; ``next_cursor`` is the opaque token for the following page,
    or ``None`` on the last page; ``total`` is the full ranking size,
    so clients can show progress without walking to the end.
    """

    entries: List[RankedValue]
    next_cursor: Optional[str]
    total: int
    measure: str
    descending: bool
    #: The ranking the page was cut from, and the offset of its first
    #: entry there: :meth:`to_json_bytes` splices that ranking's
    #: encoded rows instead of encoding the entries again.
    ranking: Optional["HomographRanking"] = field(
        default=None, repr=False, compare=False
    )
    start: int = field(default=0, repr=False, compare=False)

    def _envelope(self) -> Dict[str, object]:
        return {
            "measure": self.measure,
            "descending": self.descending,
            "total": self.total,
            "next_cursor": self.next_cursor,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (what ``GET /ranking`` returns)."""
        payload = self._envelope()
        payload["entries"] = [entry.to_dict() for entry in self.entries]
        return payload

    def to_json_bytes(self, **extra: object) -> bytes:
        """``json.dumps({**self.to_dict(), **extra}, sort_keys=True)``.

        UTF-8 bytes, with the entries spliced from the ranking's
        memoized rows; ``extra`` adds top-level fields (the server's
        ``cached`` flag).
        """
        if self.ranking is None:
            rows = _join_rows([_encode_row(e) for e in self.entries])
        else:
            rows = self.ranking.encoded_rows(
                self.start, self.start + len(self.entries)
            )
        return splice_rows({**self._envelope(), **extra}, "entries", rows)


class HomographRanking:
    """An ordered list of candidate values with scores.

    Iterating yields :class:`RankedValue` entries, best candidate first.
    """

    def __init__(
        self,
        scores: Mapping[str, float],
        descending: bool,
        measure: str,
    ) -> None:
        key = (lambda item: (-item[1], item[0])) if descending else (
            lambda item: (item[1], item[0])
        )
        ordered = sorted(scores.items(), key=key)
        self._adopt(
            [
                RankedValue(rank=i + 1, value=value, score=float(score))
                for i, (value, score) in enumerate(ordered)
            ],
            descending,
            measure,
        )

    def _adopt(
        self, entries: List[RankedValue], descending: bool, measure: str
    ) -> None:
        self.measure = measure
        self.descending = descending
        self._entries = entries
        self._by_value: Dict[str, RankedValue] = {
            entry.value: entry for entry in entries
        }
        # The JSON rows of the first len(_rows) entries, in rank order;
        # encoded_rows() grows it under _rows_lock.
        self._rows: List[str] = []
        self._rows_lock = threading.Lock()

    @classmethod
    def from_entries(
        cls,
        entries: Sequence[RankedValue],
        descending: bool,
        measure: str,
    ) -> "HomographRanking":
        """Rebuild a ranking from already-ordered entries.

        Used by deserialization: the stored order is authoritative, so
        no re-sort happens (scores serialized from an approximate run
        must not be re-ranked differently on load).
        """
        ranking = cls.__new__(cls)
        ranking._adopt(list(entries), descending, measure)
        return ranking

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return {
            "measure": self.measure,
            "descending": self.descending,
            "entries": [entry.to_dict() for entry in self._entries],
        }

    def encoded_rows(self, start: int = 0, stop: Optional[int] = None) -> str:
        """The JSON list of entries ``[start:stop]``, as ``json.dumps``.

        Each row is encoded once per ranking and kept: the memo grows
        lazily, under a lock, up to the highest row any caller has
        needed, so later pages and exports of the same (cached)
        ranking are joins of rows already encoded.  ``stop=None``
        means the end of the ranking.
        """
        if start < 0 or (stop is not None and stop < start):
            raise ValueError(f"invalid row range [{start}:{stop}]")
        size = len(self._entries)
        stop = size if stop is None else min(stop, size)
        if len(self._rows) < stop:
            with self._rows_lock:
                done = len(self._rows)
                if done < stop:
                    # One extend of a finished list: readers outside
                    # the lock never see a partly encoded row.
                    self._rows.extend(
                        [_encode_row(e) for e in self._entries[done:stop]]
                    )
        return _join_rows(self._rows[start:stop])

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HomographRanking":
        """Rebuild a ranking serialized by :meth:`to_dict`."""
        entries = [
            RankedValue(
                rank=int(e["rank"]),
                value=str(e["value"]),
                score=float(e["score"]),
            )
            for e in payload["entries"]
        ]
        return cls.from_entries(
            entries,
            descending=bool(payload["descending"]),
            measure=str(payload["measure"]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomographRanking):
            return NotImplemented
        return (
            self.measure == other.measure
            and self.descending == other.descending
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.measure, self.descending, tuple(self._entries)))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RankedValue]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> RankedValue:
        return self._entries[index]

    def top(self, k: int) -> List[RankedValue]:
        """The best ``k`` candidates (all of them if ``k`` exceeds size)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return self._entries[:k]

    def top_values(self, k: int) -> List[str]:
        """Just the value strings of the top ``k`` candidates."""
        return [entry.value for entry in self.top(k)]

    def page(
        self, cursor: Optional[str] = None, limit: int = 100
    ) -> RankingPage:
        """One page of entries for cursor-style pagination.

        ``cursor=None`` starts at the top; every page carries the
        ``next_cursor`` to pass back for the following one (``None``
        once the ranking is exhausted), so a client walks the whole
        ranking in ``limit``-sized slices.  Pages are plain slices of
        the already-materialized entry list — no per-page re-sort or
        full-ranking re-serialization happens.

        Raises :class:`ValueError` on a non-positive ``limit`` or a
        cursor that this ranking did not hand out (tokens are
        ``"<offset>"`` strings; garbage is rejected rather than
        silently clamped).
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if cursor is None:
            start = 0
        else:
            # ASCII digits only: str.isdigit() also admits '١' or '²'.
            if not (
                isinstance(cursor, str)
                and cursor.isascii()
                and cursor.isdigit()
            ):
                raise ValueError(f"invalid ranking cursor {cursor!r}")
            start = int(cursor)
            if start > len(self._entries):
                raise ValueError(
                    f"ranking cursor {cursor!r} is past the end "
                    f"({len(self._entries)} entries)"
                )
        stop = start + limit
        entries = self._entries[start:stop]
        next_cursor = str(stop) if stop < len(self._entries) else None
        return RankingPage(
            entries=entries,
            next_cursor=next_cursor,
            total=len(self._entries),
            measure=self.measure,
            descending=self.descending,
            ranking=self,
            start=start,
        )

    def rank_of(self, value: str) -> Optional[int]:
        """1-based rank of a value, or ``None`` if absent."""
        entry = self._by_value.get(value)
        return entry.rank if entry else None

    def score_of(self, value: str) -> Optional[float]:
        entry = self._by_value.get(value)
        return entry.score if entry else None

    @property
    def values(self) -> List[str]:
        """All values in rank order."""
        return [entry.value for entry in self._entries]


def rank_by_betweenness(scores: Mapping[str, float]) -> HomographRanking:
    """Descending ranking: high BC ⇒ more homograph-like."""
    return HomographRanking(scores, descending=True, measure="betweenness")


def rank_by_lcc(scores: Mapping[str, float]) -> HomographRanking:
    """Ascending ranking: low LCC ⇒ more homograph-like."""
    return HomographRanking(scores, descending=False, measure="lcc")


def format_ranking(
    ranking: HomographRanking,
    k: int = 10,
    labels: Optional[Mapping[str, bool]] = None,
) -> str:
    """Pretty-print the top-k, optionally marking ground-truth homographs.

    Mirrors the paper's §5.3 top-10 listing format.
    """
    lines = [f"top-{k} by {ranking.measure}"]
    for entry in ranking.top(k):
        mark = ""
        if labels is not None:
            mark = "  [homograph]" if labels.get(entry.value) else "  [unambiguous]"
        lines.append(f"{entry.rank:>4}. {entry.value!r} -> {entry.score:.5f}{mark}")
    return "\n".join(lines)
