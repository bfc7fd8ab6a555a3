"""Ranking of homograph candidates (step 3 of the Figure 4 pipeline).

Scores flow in from either measure; the ranking layer knows only the
direction in which "more homograph-like" points: descending for
betweenness centrality (Hypothesis 3.5), ascending for the local
clustering coefficient (Hypothesis 3.4).  Ties break lexicographically
on the value name so rankings are deterministic across runs.

A ranking is stored as two parallel columns in rank order — value
names and scores — and builds :class:`RankedValue` entries only when
they are read.  :meth:`HomographRanking.rank_of`,
:meth:`~HomographRanking.score_of` and the read-only
:class:`RankingScores` mapping share one name → position index, built
on first use.

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
from itertools import count
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

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


def _encode_row(rank: int, value: str, score: float) -> str:
    """``json.dumps(RankedValue(...).to_dict(), sort_keys=True)``, directly.

    A plain finite float prints as ``float.__repr__``, as the json
    encoder prints it; anything else (``NaN``, ``±Infinity``, a float
    subclass) goes through the encoder itself.
    """
    if type(score) is float and math.isfinite(score):
        score_text = float.__repr__(score)
    else:
        score_text = _JSON.encode(score)
    return '{"rank": %d, "score": %s, "value": %s}' % (
        rank, score_text, encode_basestring_ascii(value),
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


class RankedSlice(Sequence[RankedValue]):
    """Entries ``[start:stop]`` of a ranking, each built when read.

    What :meth:`HomographRanking.page` puts in ``RankingPage.entries``:
    a served page is spliced from encoded rows and never reads them.
    Compares equal to any sequence with the same entries.
    """

    __slots__ = ("_ranking", "_positions")

    def __init__(self, ranking: "HomographRanking", start: int, stop: int):
        self._ranking = ranking
        self._positions = range(start, stop)

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, index):
        positions = self._positions[index]
        if isinstance(positions, range):
            return [self._ranking._entry(p) for p in positions]
        return self._ranking._entry(positions)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class RankingPage:
    """One page of a cursor-paginated ranking traversal.

    ``entries`` are consecutive :class:`RankedValue` items in rank
    order (from :meth:`HomographRanking.page`, a :class:`RankedSlice`
    built on access); ``next_cursor`` is the opaque token for the
    following page, or ``None`` on the last page; ``total`` is the
    full ranking size, so clients can show progress without walking
    to the end.
    """

    entries: Sequence[RankedValue]
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
            rows = _join_rows(
                [_encode_row(e.rank, e.value, e.score) for e in self.entries]
            )
        else:
            rows = self.ranking.encoded_rows(
                self.start, self.start + len(self.entries)
            )
        return splice_rows({**self._envelope(), **extra}, "entries", rows)


class RankingScores(Mapping[str, float]):
    """Read-only ``value -> score`` mapping over a ranking's columns.

    What :attr:`DetectResponse.scores <repro.api.DetectResponse>`
    holds: no copy of the scores is made, lookups go through the
    ranking's name index, and iteration runs in rank order.
    """

    __slots__ = ("_ranking",)

    def __init__(self, ranking: "HomographRanking") -> None:
        self._ranking = ranking

    def __getitem__(self, value: str) -> float:
        position = self._ranking._positions().get(value)
        if position is None:
            raise KeyError(value)
        return self._ranking._scores[position]

    def __contains__(self, value: object) -> bool:
        return value in self._ranking._positions()

    def __iter__(self) -> Iterator[str]:
        return iter(self._ranking._values)

    def __len__(self) -> int:
        return len(self._ranking._values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class HomographRanking:
    """An ordered list of candidate values with scores.

    Stored as two parallel columns in rank order: the value names and
    their scores (the same ``float`` objects the entries carry, so
    equality, hashing and row encoding see one set of objects).
    Iterating yields :class:`RankedValue` entries, best candidate
    first, built on access.
    """

    def __init__(
        self,
        scores: Mapping[str, float],
        descending: bool,
        measure: str,
    ) -> None:
        items = scores.items()
        if any(score != score for _, score in items):
            # NaN compares false both ways: keep the tuple key's order.
            key = (lambda item: (-item[1], item[0])) if descending else (
                lambda item: (item[1], item[0])
            )
            ordered = sorted(items, key=key)
        else:
            # The same order in two C-keyed passes: by name, then
            # stably by score (equal scores, -0.0 and 0.0 too, keep
            # name order).
            ordered = sorted(items, key=itemgetter(0))
            ordered.sort(key=itemgetter(1), reverse=descending)
        self._adopt(
            [value for value, _ in ordered],
            [float(score) for _, score in ordered],
            descending,
            measure,
        )

    def _adopt(
        self,
        values: List[str],
        scores: List[float],
        descending: bool,
        measure: str,
    ) -> None:
        if len(values) != len(scores):
            raise ValueError(
                f"{len(values)} values but {len(scores)} scores"
            )
        self.measure = measure
        self.descending = descending
        self._values = values
        self._scores = scores
        # Built on first use, under _lock: the name -> position index
        # behind rank_of/score_of/scores, and the JSON rows of the
        # first len(_rows) entries, which encoded_rows() grows.
        self._index: Optional[Dict[str, int]] = None
        self._rows: List[str] = []
        self._lock = threading.Lock()

    @classmethod
    def from_columns(
        cls,
        values: Sequence[str],
        scores: Sequence[float],
        descending: bool,
        measure: str,
    ) -> "HomographRanking":
        """Adopt value names and scores that are already in rank order.

        Used by deserialization: the stored order is authoritative, so
        no re-sort happens (scores serialized from an approximate run
        must not be re-ranked differently on load).
        """
        ranking = cls.__new__(cls)
        ranking._adopt(list(values), list(scores), descending, measure)
        return ranking

    @classmethod
    def from_entries(
        cls,
        entries: Sequence[RankedValue],
        descending: bool,
        measure: str,
    ) -> "HomographRanking":
        """Rebuild a ranking from entries in rank order.

        Raises :class:`ValueError` unless the ranks are ``1..n`` in
        order.
        """
        _check_ranks([entry.rank for entry in entries])
        return cls.from_columns(
            [entry.value for entry in entries],
            [entry.score for entry in entries],
            descending,
            measure,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return {
            "measure": self.measure,
            "descending": self.descending,
            "entries": self.entry_dicts(),
        }

    def entry_dicts(self, stop: Optional[int] = None) -> List[Dict]:
        """``[entry.to_dict() for entry in self.top(stop)]``, from the columns.

        ``stop=None`` means every entry.
        """
        return [
            {"rank": rank, "value": value, "score": score}
            for rank, value, score in zip(
                count(1), self._values[:stop], self._scores[:stop]
            )
        ]

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
        size = len(self._values)
        stop = size if stop is None else min(stop, size)
        if len(self._rows) < stop:
            with self._lock:
                done = len(self._rows)
                if done < stop:
                    # One extend of a finished list: readers outside
                    # the lock never see a partly encoded row.
                    self._rows.extend([
                        _encode_row(rank, value, score)
                        for rank, value, score in zip(
                            count(done + 1),
                            self._values[done:stop],
                            self._scores[done:stop],
                        )
                    ])
        return _join_rows(self._rows[start:stop])

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HomographRanking":
        """Rebuild a ranking serialized by :meth:`to_dict`.

        Raises :class:`ValueError` unless the entries' ranks are
        ``1..n`` in order.
        """
        return cls.from_rows(
            payload["entries"],
            descending=bool(payload["descending"]),
            measure=str(payload["measure"]),
        )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping],
        descending: bool,
        measure: str,
    ) -> "HomographRanking":
        """A ranking from its JSON rows (``{"rank", "value", "score"}``).

        Raises :class:`ValueError` unless the ranks are ``1..n`` in
        order.
        """
        _check_ranks([int(row["rank"]) for row in rows])
        return cls.from_columns(
            [str(row["value"]) for row in rows],
            [float(row["score"]) for row in rows],
            descending,
            measure,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomographRanking):
            return NotImplemented
        return (
            self.measure == other.measure
            and self.descending == other.descending
            and self._values == other._values
            and self._scores == other._scores
        )

    def __hash__(self) -> int:
        return hash((
            self.measure,
            self.descending,
            tuple(self._values),
            tuple(self._scores),
        ))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[RankedValue]:
        return map(RankedValue, count(1), self._values, self._scores)

    def __getitem__(self, index: int) -> RankedValue:
        return RankedSlice(self, 0, len(self._values))[index]

    def _entry(self, position: int) -> RankedValue:
        return RankedValue(
            position + 1, self._values[position], self._scores[position]
        )

    def top(self, k: int) -> List[RankedValue]:
        """The best ``k`` candidates (all of them if ``k`` exceeds size)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return self[:k]

    def top_values(self, k: int) -> List[str]:
        """Just the value strings of the top ``k`` candidates."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return self._values[:k]

    def page(
        self, cursor: Optional[str] = None, limit: int = 100
    ) -> RankingPage:
        """One page of entries for cursor-style pagination.

        ``cursor=None`` starts at the top; every page carries the
        ``next_cursor`` to pass back for the following one (``None``
        once the ranking is exhausted), so a client walks the whole
        ranking in ``limit``-sized slices.  Pages are plain slices of
        the ranking's columns — no per-page re-sort or full-ranking
        re-serialization happens.

        Raises :class:`ValueError` on a non-positive ``limit`` or a
        cursor that this ranking did not hand out (tokens are
        ``"<offset>"`` strings; garbage is rejected rather than
        silently clamped).
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        size = len(self._values)
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
            if start > size:
                raise ValueError(
                    f"ranking cursor {cursor!r} is past the end "
                    f"({size} entries)"
                )
        stop = start + limit
        return RankingPage(
            entries=RankedSlice(self, start, min(stop, size)),
            next_cursor=str(stop) if stop < size else None,
            total=size,
            measure=self.measure,
            descending=self.descending,
            ranking=self,
            start=start,
        )

    def _positions(self) -> Dict[str, int]:
        """The name -> position index, built once on first use."""
        index = self._index
        if index is None:
            with self._lock:
                index = self._index
                if index is None:
                    index = {
                        value: position
                        for position, value in enumerate(self._values)
                    }
                    self._index = index
        return index

    def rank_of(self, value: str) -> Optional[int]:
        """1-based rank of a value, or ``None`` if absent."""
        position = self._positions().get(value)
        return None if position is None else position + 1

    def score_of(self, value: str) -> Optional[float]:
        position = self._positions().get(value)
        return None if position is None else self._scores[position]

    @property
    def scores(self) -> RankingScores:
        """A read-only ``value -> score`` mapping over this ranking."""
        return RankingScores(self)

    @property
    def values(self) -> List[str]:
        """All values in rank order."""
        return list(self._values)

    def columns(self) -> Tuple[List[str], List[float]]:
        """Copies of the two columns: value names and scores, rank order."""
        return list(self._values), list(self._scores)


def _check_ranks(ranks: List[int]) -> None:
    """Stored ranks must be ``1..n`` in order; a ranking keeps no others."""
    if ranks != list(range(1, len(ranks) + 1)):
        raise ValueError(
            "ranking entries must carry ranks 1..n in order"
        )


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
