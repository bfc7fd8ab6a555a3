"""Pluggable centrality-measure registry.

The detection pipeline is agnostic about *which* per-value score it
ranks; the paper evaluates two (betweenness centrality, Hypothesis 3.5,
and the local clustering coefficient, Hypothesis 3.4) but §6 explicitly
invites others.  This module turns the measure choice into a registry
so third-party centralities slot in without touching the core:

    from repro.api import MeasureOutput, register_measure

    @register_measure("degree")
    def degree_measure(graph, request):
        scores = {
            graph.value_name(v): float(graph.degree(v))
            for v in range(graph.num_values)
        }
        return MeasureOutput(scores=scores, descending=True)

    HomographIndex(lake).detect(measure="degree")

A measure is any callable ``(graph, request) -> MeasureOutput`` (the
:class:`Measure` protocol).  A measure that reads ``request.options``
can register a request check beside it
(``register_measure(name, fn, check=...)``): :func:`check_request`
runs it, so a server refuses options the measure would reject before
any work is queued.  ``descending`` states the direction in
which "more homograph-like" points: ``True`` for betweenness-style
scores (high = suspicious), ``False`` for LCC-style scores (low =
suspicious).  Returning a plain mapping is also accepted and treated as
a descending score map with no parameters.

The two paper measures are registered as built-ins on import, under
their historical names ``"betweenness"`` and ``"lcc"``, alongside
``"rk"`` — the Riondato–Kornaropoulos sampled betweenness (§3.3) with
its knobs carried in ``request.options`` — and
``"skeleton_betweenness"``, the adversarial variant that scores
betweenness over confusable-skeleton classes
(:mod:`repro.core.confusables`) so forged homoglyph collisions become
graph-visible.  On a lake whose values are all their own skeletons the
quotient is the identity and the measure delegates to plain
``"betweenness"``, keeping clean-lake rankings bit-for-bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..core.betweenness import betweenness_score_map
from ..core.graph import BipartiteGraph
from ..core.lcc import lcc_score_map

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .requests import DetectRequest


class MeasureError(ValueError):
    """Base class for measure-registry failures."""


class UnknownMeasureError(MeasureError):
    """Raised when dispatching to a measure name nobody registered."""


class DuplicateMeasureError(MeasureError):
    """Raised when registering a name that is already taken."""


@dataclass(frozen=True)
class MeasureOutput:
    """What a measure hands back to the pipeline.

    ``scores`` maps each value name to its score; ``descending`` is the
    ranking direction (``True``: high score = more homograph-like);
    ``parameters`` records the knobs that produced the scores so results
    stay reproducible once serialized.  ``state`` is an optional opaque
    maintenance payload (raw accumulators, chunk counts) that lets delta
    mutation patch a cached result instead of recomputing it — it never
    serializes and is dropped on snapshot save/load.
    """

    scores: Mapping[str, float]
    descending: bool = True
    parameters: Dict[str, object] = field(default_factory=dict)
    state: Optional[object] = None


@runtime_checkable
class Measure(Protocol):
    """A per-value scoring function over the bipartite graph."""

    def __call__(
        self, graph: BipartiteGraph, request: "DetectRequest"
    ) -> MeasureOutput: ...


#: A measure's request check: ``(request) -> None``, raising
#: ``TypeError``/``ValueError`` on options the measure would reject.
RequestCheck = Callable[["DetectRequest"], object]

#: name -> (measure, its request check or ``None``).
_REGISTRY: Dict[str, Tuple[Measure, Optional[RequestCheck]]] = {}


def register_measure(
    name: str,
    fn: Optional[Measure] = None,
    *,
    replace: bool = False,
    check: Optional[RequestCheck] = None,
) -> Callable:
    """Register ``fn`` under ``name``; usable as a decorator.

    Registering an existing name raises :class:`DuplicateMeasureError`
    unless ``replace=True``.  ``check`` is the measure's request check
    (see :func:`check_request`); a replacement registered without one
    has none.  Returns ``fn`` so the decorator form leaves the function
    usable directly.
    """
    if fn is None:
        return lambda f: register_measure(
            name, f, replace=replace, check=check
        )
    if not callable(fn):
        raise TypeError(f"measure {name!r} must be callable, got {fn!r}")
    if check is not None and not callable(check):
        raise TypeError(
            f"check of measure {name!r} must be callable, got {check!r}"
        )
    if name in _REGISTRY and not replace:
        raise DuplicateMeasureError(
            f"measure {name!r} is already registered; "
            f"pass replace=True to override"
        )
    _REGISTRY[name] = (fn, check)
    return fn


def _entry(name: str) -> Tuple[Measure, Optional[RequestCheck]]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMeasureError(
            f"unknown measure {name!r}; "
            f"registered measures: {available_measures()}"
        ) from None


def unregister_measure(name: str) -> Measure:
    """Remove and return a registered measure (built-ins included)."""
    measure, _ = _entry(name)
    del _REGISTRY[name]
    return measure


def get_measure(name: str) -> Measure:
    """Look up a measure, raising :class:`UnknownMeasureError` if absent."""
    return _entry(name)[0]


def available_measures() -> Tuple[str, ...]:
    """Registered measure names, sorted."""
    return tuple(sorted(_REGISTRY))


def check_request(request: "DetectRequest") -> None:
    """Run the request check registered with ``request.measure``.

    Raises :class:`UnknownMeasureError` for an unregistered measure,
    and the check's ``TypeError``/``ValueError`` for options the
    measure would reject when it runs.  A measure registered without a
    check accepts every request here.
    """
    check = _entry(request.measure)[1]
    if check is not None:
        check(request)


def run_measure(
    graph: BipartiteGraph, request: "DetectRequest"
) -> MeasureOutput:
    """Dispatch ``request`` to its measure and normalize the output."""
    output = get_measure(request.measure)(graph, request)
    if isinstance(output, MeasureOutput):
        return output
    if isinstance(output, Mapping):
        return MeasureOutput(scores=output)
    raise TypeError(
        f"measure {request.measure!r} returned {type(output).__name__}; "
        f"expected MeasureOutput or a score mapping"
    )


# ---------------------------------------------------------------------
# Built-ins: the two measures evaluated in the paper.
# ---------------------------------------------------------------------
@register_measure("betweenness")
def _betweenness_measure(
    graph: BipartiteGraph, request: "DetectRequest"
) -> MeasureOutput:
    """Betweenness centrality (Hypothesis 3.5): homographs score HIGH."""
    state: Dict[str, object] = {}
    scores = betweenness_score_map(
        graph,
        sample_size=request.sample_size,
        seed=request.seed,
        endpoints=request.endpoints,
        execution=request.execution,
        state_out=state,
    )
    return MeasureOutput(
        scores=scores,
        descending=True,
        parameters={
            "sample_size": request.sample_size,
            "seed": request.seed,
            "endpoints": request.endpoints,
        },
        state=state or None,
    )


@register_measure("skeleton_betweenness")
def _skeleton_betweenness_measure(
    graph: BipartiteGraph, request: "DetectRequest"
) -> MeasureOutput:
    """Betweenness over confusable-skeleton classes: homographs score HIGH.

    Values folding to the same skeleton (``repro.core.confusables``)
    are merged into one quotient node before centrality runs, so a
    forged ``ΡARIS`` inherits the bridging position of the class it
    visually imitates.  Every member of a class receives the class
    score; ranking ties then break lexicographically as usual.

    When skeletonization is the identity on the graph's value set the
    measure delegates to the plain ``"betweenness"`` built-in, which
    makes clean-lake rankings bit-for-bit identical.  The quotient
    graph is ephemeral, so the non-identity path always computes
    serially instead of exporting a throwaway graph to a persistent
    worker pool; ``state`` stays ``None`` either way because the
    Brandes delta-patch accumulators describe the quotient, not the
    lake's own graph — a mutation simply evicts and recomputes.
    """
    from ..core.confusables import skeleton

    names = list(graph.value_names)
    skels = [skeleton(name) for name in names]
    if skels == names:
        output = _betweenness_measure(graph, request)
        parameters = dict(output.parameters)
        parameters["skeleton_classes"] = len(names)
        parameters["skeleton_collisions"] = 0
        return MeasureOutput(
            scores=output.scores,
            descending=True,
            parameters=parameters,
            state=None,
        )

    import numpy as np

    from ..perf.backends import SerialBackend, use_backend

    class_ids: Dict[str, int] = {}
    class_names: list = []
    member_class = np.empty(len(names), dtype=np.int64)
    for v, skel in enumerate(skels):
        cid = class_ids.get(skel)
        if cid is None:
            cid = len(class_names)
            class_ids[skel] = cid
            class_names.append(skel)
        member_class[v] = cid

    num_values = graph.num_values
    indptr = graph.indptr
    counts = np.diff(indptr[: num_values + 1])
    rows = np.repeat(member_class, counts)
    cols = graph.indices[: indptr[num_values]] - num_values
    quotient = BipartiteGraph(
        class_names,
        list(graph.attribute_names),
        np.stack([rows, cols], axis=1),
    )

    with use_backend(SerialBackend()):
        class_scores = betweenness_score_map(
            quotient,
            sample_size=request.sample_size,
            seed=request.seed,
            endpoints=request.endpoints,
            execution=None,
        )
    scores = {
        name: class_scores[skel] for name, skel in zip(names, skels)
    }
    class_sizes = np.bincount(member_class)
    return MeasureOutput(
        scores=scores,
        descending=True,
        parameters={
            "sample_size": request.sample_size,
            "seed": request.seed,
            "endpoints": request.endpoints,
            "skeleton_classes": len(class_names),
            "skeleton_collisions": int((class_sizes >= 2).sum()),
        },
        state=None,
    )


@register_measure("lcc")
def _lcc_measure(
    graph: BipartiteGraph, request: "DetectRequest"
) -> MeasureOutput:
    """Local clustering coefficient (Hypothesis 3.4): homographs score LOW."""
    scores = lcc_score_map(
        graph, variant=request.lcc_variant, execution=request.execution
    )
    return MeasureOutput(
        scores=scores,
        descending=False,
        parameters={"variant": request.lcc_variant},
        state={"kind": "lcc", "variant": request.lcc_variant},
    )


#: The largest vertex diameter a graph can have: node ids are int64.
_MAX_VERTEX_DIAMETER = 2**63 - 1


def _rk_options(
    request: "DetectRequest",
) -> Tuple[float, float, float, Optional[int]]:
    """``rk``'s options as ``(epsilon, delta, c, max_samples)``.

    Also the measure's request check: a value that does not convert,
    ``epsilon`` or ``delta`` outside (0, 1), a non-finite ``c``, or
    values whose sample-size bound overflows or divides by zero
    raises ``ValueError`` — the values the sampler cannot run with.
    The bound is taken at the largest vertex diameter a graph can have
    (it grows with the diameter), so no lake can make it fail later.
    """

    def number(name: str, kind: type, default: object):
        value = request.option(name, default)
        if value is None and default is None:
            return None
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"rk option {name}={value!r} does not convert to "
                f"{kind.__name__}"
            ) from None

    epsilon = number("epsilon", float, 0.05)
    delta = number("delta", float, 0.1)
    c = number("c", float, 0.5)
    max_samples = number("max_samples", int, None)
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if not 0.0 < value < 1.0:
            raise ValueError(
                f"rk option {name} must be in (0, 1), got {value!r}"
            )
    if not math.isfinite(c):
        raise ValueError(f"rk option c must be finite, got {c!r}")
    from ..core.approx import sample_size_bound

    try:
        sample_size_bound(epsilon, delta, _MAX_VERTEX_DIAMETER, c=c)
    except (ArithmeticError, ValueError) as error:
        raise ValueError(
            f"rk options epsilon={epsilon!r}, delta={delta!r}, c={c!r} "
            f"give no finite sample size ({type(error).__name__})"
        ) from None
    return epsilon, delta, c, max_samples


@register_measure("rk", check=_rk_options)
def _rk_measure(
    graph: BipartiteGraph, request: "DetectRequest"
) -> MeasureOutput:
    """Riondato–Kornaropoulos sampled betweenness (§3.3's alternative).

    Knobs ride in ``request.options`` (``epsilon``, ``delta``, ``c``,
    ``max_samples``; checked by :func:`_rk_options`); the seed is the
    request seed.  Scores are on the exact-betweenness normalized
    scale, so homographs score HIGH.
    """
    from ..core.approx import riondato_kornaropoulos_bc

    epsilon, delta, c, max_samples = _rk_options(request)
    state: Dict[str, object] = {}
    scores = riondato_kornaropoulos_bc(
        graph,
        epsilon=epsilon,
        delta=delta,
        c=c,
        seed=request.seed,
        max_samples=max_samples,
        execution=request.execution,
        state_out=state,
    )
    score_map = {
        graph.value_name(v): float(scores[v])
        for v in range(graph.num_values)
    }
    return MeasureOutput(
        scores=score_map,
        descending=True,
        parameters={
            "epsilon": epsilon,
            "delta": delta,
            "c": c,
            "seed": request.seed,
            "max_samples": max_samples,
        },
        state=state or None,
    )
