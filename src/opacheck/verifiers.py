"""Deciders for the five opacity properties, with witness extraction.

Each property has one shape: every run of one kind must have an
observation-equivalent run of another kind.  ``_SPECS`` gives it as one
row: the roots (all or the secret initial states) where the first kind's
runs start, whose runs the observer follows (the non-secret core's or the
system's), and whether a bad state must have a secret left state.  The
property fails exactly when the product of the system, started at the
roots, with the row's observer, started at the non-secret initial states,
reaches a bad state: a collapsed estimate (for SCSO, with a secret left
state).  Standard current-state opacity has no product: it is decided on
the system's estimate automaton, where bad means an estimate inside the
secret set.  A verdict's stats are the sizes of what its row names.
:class:`Structures` builds each observer and product on first use, so
properties decided together share it.

The decider reads only the system g and its non-secret core
``g._core``, a view that shares g's states and needs no sort, through
their closure tables, with the int-keyed searches of
:mod:`~opacheck.constructions`: estimates are bit masks, product states
are ints, and no automaton but these two and no labelled structure is
built.  A product is decided by its count, which gives its exact sizes
and the mask of its collapsed states; it is walked breadth-first only
when a witness is asked for and a bad state exists, and the walk stops
at the first bad state in discovery order, whose tree path is a
shortest witness.  SCSO and INF_SSO share one walk of the same product: every
SCSO-bad state is INF_SSO-bad and SCSO is decided first, so its walk
holds INF_SSO's first bad state.  A CSO witness's run is read off the
walk of g with the automaton of its observation.  A witness labels only
its offending state: ``(x5,{})``, x5 the run's end, or for CSO the
estimate, ``{x2}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Any, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .constructions import (
    ObserverSearch,
    ProductCount,
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
    """One property's row: its product's roots, its observer and its bad test."""

    roots: "str | None"  # the product's left start: g's "all" or "secret" initial states; None for CSO
    core: bool  # the observer is that of the non-secret core, not of g
    secret_only: bool  # a collapsed state is bad only when its left state is secret


_SPECS = {
    CSO: _Spec(None, False, False),
    ISO: _Spec("secret", False, False),
    SCSO: _Spec("all", True, True),
    SISO: _Spec("secret", True, False),
    INF_SSO: _Spec("all", True, False),
}


class Structures:
    """The structures the properties are decided on, each built from the
    system ``g`` on first use and shared from then on.

    The decider reads an observer search (:meth:`observer_search`), and
    the count of a row's product with it (:meth:`count`) for sizes and
    verdicts; it walks that product (:meth:`walk`) only as far as its
    first bad state, for a witness.  The core's observer is searched on ``g._core``, the
    rest on g, ``Ĝ``'s products started at the secret initial states,
    since ``Ĝ`` keeps every arc out of the states it reaches.
    """

    def __init__(self, g: Automaton):
        self.g = g
        self._observers: dict[tuple[bool, int], ObserverSearch] = {}
        # Keyed by a row's product, spec[:2]: SCSO and INF_SSO share theirs.
        self._counts: dict[tuple, ProductCount] = {}
        self._walks: dict[tuple, ProductSearch] = {}

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

    def count(self, spec: _Spec, obs: ObserverSearch) -> ProductCount:
        key = spec[:2]
        if key not in self._counts:
            self._counts[key] = count_product(*self._product(spec, obs))
        return self._counts[key]

    def walk(self, spec: _Spec, obs: ObserverSearch, bad: int) -> ProductSearch:
        """The row's product with ``obs`` walked at least as far as its first
        state whose left state is in the mask ``bad``: a walk of the product
        that already got there, or a new one that stops there."""
        search = self._walks.get(spec[:2])
        if search is None or search.first_collapsed(bad) is None:
            search = self._walks[spec[:2]] = search_product(*self._product(spec, obs), stop=bad)
        return search

    def _product(self, spec: _Spec, obs: ObserverSearch) -> tuple:
        g = self.g
        roots = g.initial_states & g.secret_states if spec.roots == "secret" else g.initial_states
        return g, roots, obs.initial, obs.steps


def _decide(structures: Structures, prop: str, witness: bool) -> Verdict:
    spec = _SPECS[prop]
    g = structures.g
    secret = g._closed_images.secret
    # CSO observes from all initial states, each product row from the non-secret ones.
    observed_from = g.initial_states if spec.roots is None else g.initial_states - g.secret_states
    observer = structures.observer_search(spec.core, observed_from)
    stats = {}
    if spec.core:
        # G_dss's states are those of the core's estimates, with their core arcs.
        stats["gdss_states"], stats["gdss_transitions"] = _extent(observer.masks, observer.source)
    found = None
    if spec.roots is None:
        stats["estimate_states"], stats["estimate_transitions"] = observer.size
        offending = observer.first_within(secret)
        if witness and offending is not None:
            found = _observation_witness(observer, offending)
        return Verdict(prop, offending is None, found, stats)
    count = structures.count(spec, observer)
    if spec.roots == "secret":
        # ghat's states are the left states of this product, whatever the
        # observer, and ghat keeps every arc out of them.
        stats["ghat_states"], stats["ghat_transitions"] = _extent([count.left], g)
    stats["observer_states"], stats["observer_transitions"] = observer.size
    stats["product_states"], stats["product_transitions"] = count.size
    bad = count.collapsed  # left states of the collapsed product states
    if spec.secret_only:
        bad &= secret  # every product's left automaton is g
    if witness and bad:
        search = structures.walk(spec, observer, bad)
        found = _product_witness(search, search.first_collapsed(bad))
    return Verdict(prop, not bad, found, stats)


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
    ``properties`` given as one string, before deciding any.  They are
    decided in ``PROPERTIES`` order, so SCSO's walk, which holds
    INF_SSO's first bad state, serves both."""
    if isinstance(properties, str):  # it would split into one-letter names
        raise ValueError(f"bad properties {properties!r}: must be a collection of names, not a string")
    properties = list(properties)
    for prop in properties:
        if prop not in _SPECS:
            raise ValueError(f"unknown property: {prop!r}")
    structures = Structures(g)
    verdicts = {prop: _decide(structures, prop, witness) for prop in PROPERTIES if prop in properties}
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
