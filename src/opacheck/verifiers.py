"""Deciders for the five opacity properties, with witness extraction.

Each property has one shape: every run of one kind must have an
observation-equivalent run of another kind.  Standard current-state
opacity has no product: it is decided on the system's estimate
automaton, where bad means an estimate inside the secret set.  Each
other property is a row of ``_SPECS``, decided on a product of the
system g, started at all or at the secret initial states, with an
observer, the non-secret core's or the system's, started at the
non-secret initial states.  The row fails exactly when the product
reaches a bad state: a collapsed estimate (for SCSO, with a secret left
state).  A verdict's stats are the sizes of what its row names.

The decider reads only g and its non-secret core ``g._core``, a view
that shares g's states and needs no sort, through their closure tables,
with the int-keyed searches of :mod:`~opacheck.constructions`: estimates
are bit masks, product states are ints, and no automaton but these two
and no labelled structure is built.  It decides by product, not by
property: the rows on one product (SCSO and INF_SSO share theirs) get
one count, which gives its exact sizes and the mask of its collapsed
states, and at most one breadth-first walk, only when a witness is asked
for and some row fails.  The walk stops at the first state bad for
every failing row.  A stopped walk is a prefix of the whole walk, so
each row's first bad state in it is the one it has alone, and its tree
path is a shortest witness.  A CSO witness's run is read off the walk
of g with the automaton of its observation.  A witness labels only its
offending state: ``(x5,{})``, x5 the run's end, or for CSO the estimate,
``{x2}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Any, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .constructions import (
    ObserverSearch,
    ProductSearch,
    _bits,
    cc_label,
    count_product,
    search_observer,
    search_product,
    subset_label,
)
from .model import Automaton, Run

CSO = "CSO"
ISO = "ISO"
SCSO = "SCSO"
SISO = "SISO"
INF_SSO = "INF_SSO"

PROPERTIES = (CSO, ISO, SCSO, SISO, INF_SSO)


@dataclass(frozen=True)
class Witness:
    """A concrete violation: an event sequence, its observation, the
    offending state's label and a replayable run."""

    event_sequence: tuple[str, ...]
    observation: tuple[str, ...]
    offending_state: str
    run: Run


@dataclass(frozen=True)
class Verdict:
    property: str
    holds: bool
    witness: "Witness | None"
    stats: Mapping[str, Any]


def witness_record(witness: "Witness | None") -> "dict | None":
    """JSON-ready form of a witness."""
    if witness is None:
        return None
    return {
        "events": list(witness.event_sequence),
        "observation": list(witness.observation),
        "offending_state": witness.offending_state,
        "run": {"start": witness.run.start, "steps": [list(s) for s in witness.run.steps]},
    }


def verdict_record(verdict: Verdict) -> dict:
    """JSON-ready form of a verdict."""
    return {
        "property": verdict.property,
        "holds": verdict.holds,
        "witness": witness_record(verdict.witness),
        "stats": dict(verdict.stats),
    }


class _Spec(NamedTuple):
    """One product property's row: the product it is decided on and its bad test."""

    secret_roots: bool  # the product starts at g's secret initial states, not at all of them
    core: bool  # the observer is that of the non-secret core, not of g
    secret_only: bool  # a collapsed state is bad only when its left state is secret


_SPECS = {
    ISO: _Spec(True, False, False),
    SCSO: _Spec(False, True, True),
    SISO: _Spec(True, True, False),
    INF_SSO: _Spec(False, True, False),
}


class Structures:
    """The observers the properties are decided on, each searched on first
    use, on ``g._core`` for the core's and on the system ``g`` for the
    rest, and shared from then on."""

    def __init__(self, g: Automaton):
        self.g = g
        self._observers: dict[tuple[bool, int], ObserverSearch] = {}

    def observer_search(self, core: bool, start: Iterable[str]) -> ObserverSearch:
        """The observer of the non-secret core ``g._core`` (``core``) or of
        g, started at the closure of ``start``.  Starts that close alike
        share one search, so ISO's observer is the estimate automaton
        whenever the non-secret initial states close to the initial
        estimate."""
        source = self.g._core if core else self.g
        key = (core, source._closed_images.closure(start))
        if key not in self._observers:
            self._observers[key] = search_observer(source, start)
        return self._observers[key]


def _decide_cso(structures: Structures, witness: bool) -> Verdict:
    """CSO, decided on the estimate automaton of g."""
    observer = structures.observer_search(False, structures.g.initial_states)
    offending = observer.first_within(structures.g._closed_images.secret)
    found = _observation_witness(observer, offending) if witness and offending is not None else None
    stats = dict(zip(("estimate_states", "estimate_transitions"), observer.size))
    return Verdict(CSO, offending is None, found, stats)


def _decide_product(
    structures: Structures, secret_roots: bool, core: bool, rows: Iterable[str], witness: bool
) -> dict[str, Verdict]:
    """The properties ``rows``, all decided on one product: g, started at
    its secret initial states (``secret_roots``) or at all of them, with
    the core's observer (``core``) or g's, started at the non-secret
    initial states."""
    g = structures.g
    secret = g._closed_images.secret
    observer = structures.observer_search(core, g.initial_states - g.secret_states)
    roots = g.initial_states & g.secret_states if secret_roots else g.initial_states
    product = (g, roots, observer.initial, observer.steps)
    count = count_product(*product)
    stats = {}
    if core:
        # G_dss's states are those of the core's estimates, with their core arcs.
        stats["gdss_states"], stats["gdss_transitions"] = _extent(observer.masks, observer.source)
    if secret_roots:
        # ghat's states are the left states of this product, whatever the
        # observer, and ghat keeps every arc out of them.
        stats["ghat_states"], stats["ghat_transitions"] = _extent([count.left], g)
    stats["observer_states"], stats["observer_transitions"] = observer.size
    stats["product_states"], stats["product_transitions"] = count.size
    # left states of the collapsed product states; every product's left automaton is g
    bad = {prop: count.collapsed & secret if _SPECS[prop].secret_only else count.collapsed for prop in rows}
    failing = [mask for mask in bad.values() if mask]
    # A walk stopped at a state bad for every failing row holds each row's first bad state.
    search = search_product(*product, stop=reduce(and_, failing)) if witness and failing else None
    verdicts = {}
    for prop, mask in bad.items():
        found = _product_witness(search, search.first_collapsed(mask)) if witness and mask else None
        verdicts[prop] = Verdict(prop, not mask, found, dict(stats))
    return verdicts


def _extent(masks: Iterable[int], aut: Automaton) -> tuple[int, int]:
    """(states, transitions) of the part of ``aut`` whose states are those
    in ``masks`` and whose arcs are all of ``aut``'s arcs out of them."""
    mask = reduce(or_, masks, 0)
    degree = aut._closed_images.degree
    return mask.bit_count(), sum([degree[i] for i in _bits(mask)])


def check_all(
    g: Automaton, witness: bool = False, properties: Iterable[str] = PROPERTIES
) -> dict[str, Verdict]:
    """Decide ``properties`` (all five by default), sharing the
    constructed structures between them; the verdicts come in the order
    given.  Raises ValueError for an unknown property, or for
    ``properties`` given as one string, before deciding any.  The rows
    on one product are decided together, so SCSO and INF_SSO share its
    count and its walk."""
    if isinstance(properties, str):  # it would split into one-letter names
        raise ValueError(f"bad properties {properties!r}: must be a collection of names, not a string")
    properties = list(properties)
    products: dict[tuple[bool, bool], list[str]] = {}  # the rows on each product
    for prop in properties:
        if prop not in PROPERTIES:
            raise ValueError(f"unknown property: {prop!r}")
        if prop != CSO:
            products.setdefault(_SPECS[prop][:2], []).append(prop)
    structures = Structures(g)
    verdicts = {CSO: _decide_cso(structures, witness)} if CSO in properties else {}
    for (secret_roots, core), rows in products.items():
        verdicts.update(_decide_product(structures, secret_roots, core, rows, witness))
    return {prop: verdicts[prop] for prop in properties}


def check(g: Automaton, prop: str, witness: bool = False) -> Verdict:
    """Decide a single property by identifier."""
    return check_all(g, witness, (prop,))[prop]


def _tree_path(parents: "Mapping | Sequence", node: Hashable) -> tuple[Any, list[tuple[Any, Any]]]:
    """The root above ``node`` in a breadth-first tree and the (label,
    node) steps from that root down to ``node``; ``parents`` maps each
    node to its (parent, label), and each root to None."""
    steps = []
    while parents[node] is not None:
        parent, label = parents[node]
        steps.append((label, node))
        node = parent
    return node, steps[::-1]


def _product_witness(search: ProductSearch, key: int) -> Witness:
    """The path to the product state ``key`` in the breadth-first tree of
    its walk: a shortest product path, ties broken by event order.
    Only the offending state is labelled (bad product states are
    collapsed, so its estimate is the empty one)."""
    start, steps = _tree_path(search.parents, key)
    events = tuple(event for event, _ in steps)
    observation = tuple(event for event in events if event in search.left.observable)
    run = Run(search.left_of(start), tuple((event, search.left_of(dst)) for event, dst in steps))
    return Witness(events, observation, cc_label(run.end, subset_label(())), run)


def _observation_witness(search: ObserverSearch, number: int) -> Witness:
    """Witness for a current-state estimate violation: the observation on
    the tree path to estimate ``number`` of ``search`` (a shortest one),
    plus a shortest run of the search's source realizing it."""
    _, steps = _tree_path(search.parents, number)
    observation = tuple(event for event, _ in steps)
    run = _realize_observation(search.source, observation)
    return Witness(run.events, observation, subset_label(search.subset(number)), run)


def _realize_observation(g: Automaton, observation: tuple[str, ...]) -> Run:
    """Shortest run of ``g`` whose projection equals ``observation``, read
    off the walk of ``g`` with the observation's own automaton, whose
    estimate counts the k events still to observe: 0 (collapsed, where
    the walk stops) once all are, k + 1 (a dead end) on a mismatch."""
    k = len(observation)
    steps = {event: [0] + [k + 1] * (k + 1) for event in g.observable}
    for position, event in enumerate(observation):
        steps[event][k - position] = k - position - 1
    search = search_product(g, g.initial_states, k, steps, stop=-1)
    return _product_witness(search, search.first_collapsed(-1)).run
