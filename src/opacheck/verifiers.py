"""Deciders for the five opacity properties, with witness extraction.

Every property is decided the same way: a structure built from the
system reaches a bad state exactly when the property fails.  ``_SPECS``
gives, per property, that structure, the structures whose sizes go in
the verdict's stats, and which of its states are bad.  The strong
properties are decided on products with the observer of the non-secret
core, where bad means a collapsed estimate (for strong current-state
opacity, with a secret left component); standard current-state opacity
on the estimate automaton of the full system, where bad means an
estimate inside the secret set; standard initial-state opacity on the
product of the secret-start part with the observer of the system
restarted at its non-secret initial states.  :class:`Structures` builds
each structure on first use, so properties decided together share it.

The decider runs on the int-keyed structures of
:mod:`~opacheck.constructions`: estimates are bit masks, product states
are ints, and no labelled observer or product is built.  A product is
decided by its count, which gives its exact sizes and the mask of its
collapsed states; it is walked breadth-first only when a witness is
asked for and a bad state exists, and the walk stops at the first bad
state in discovery order, whose tree path is a shortest witness.  SCSO
and INF_SSO share one walk of the same product: every SCSO-bad state is
INF_SSO-bad, so whichever is decided second resumes the walk or finds
its state already discovered.  Labels are made only for a witness's
path.  The labelled structures of :class:`Structures` (``gdss``,
``ghat``, ``observer``, ``cc``, ``cc_hat``) are the five that ``export``
writes, rendered on request and never read by the decider.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Hashable, Iterable, Mapping, Sequence

from .constructions import (
    CCAutomaton,
    CCState,
    ObserverAutomaton,
    ObserverSearch,
    ProductCount,
    ProductSearch,
    _bits,
    build_gdss,
    build_ghat,
    cc_label,
    count_product,
    render_cc,
    render_observer,
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
    offending product state or estimate, and a replayable run."""

    event_sequence: tuple[str, ...]
    observation: tuple[str, ...]
    offending_state: Any
    run: Run


@dataclass(frozen=True)
class Verdict:
    property: str
    holds: bool
    witness: "Witness | None"
    stats: Mapping[str, Any]


def witness_record(witness: "Witness | None") -> "dict | None":
    """JSON-ready form of a witness; labels stand in for structured states."""
    if witness is None:
        return None
    offending = witness.offending_state
    if isinstance(offending, CCState):
        label = cc_label(offending)
    elif isinstance(offending, frozenset):
        label = subset_label(offending)
    else:
        label = str(offending)
    return {
        "events": list(witness.event_sequence),
        "observation": list(witness.observation),
        "offending_state": label,
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


class Structures:
    """The structures the properties are decided on, each built from the
    system ``g`` on first use and shared from then on.

    The decider reads the observer searches (``*observer_search``,
    ``estimates_search``) and the product counts (``cc*_count``) for
    sizes and verdicts, and walks a product (``cc*_search``) only as far
    as its first bad state, for a witness.  The labelled attributes
    (``gdss``, ``ghat``, ``observer``, ``cc``, ``cc_hat``) are the
    structures ``export --structure`` names; the observer and products
    among them are rendered from the searches on first access, and
    rendering a product walks it to the end and never counts it.
    """

    def __init__(self, g: Automaton):
        self.g = g

    @cached_property
    def gdss(self) -> Automaton:
        return build_gdss(self.g)

    @cached_property
    def ghat(self) -> Automaton:
        return build_ghat(self.g)

    @cached_property
    def observer_search(self) -> ObserverSearch:
        """Observer of the non-secret core."""
        return search_observer(self.gdss)

    @cached_property
    def estimates_search(self) -> ObserverSearch:
        """Estimate automaton of the full system."""
        return search_observer(self.g)

    @cached_property
    def iso_observer_search(self) -> ObserverSearch:
        """Observer of the system restarted at its non-secret initial
        states: the estimate automaton itself when those close to the
        same initial estimate as all initial states do."""
        g = self.g
        tables = g._closed_images
        if tables.closure(g.non_secret_initials) == tables.closure(g.initial_states):
            return self.estimates_search
        return search_observer(g, g.non_secret_initials)

    @cached_property
    def ghat_size(self) -> tuple[int, int]:
        """(states, transitions) of ``ghat``, without building it: its
        states are the left states of the secret-start product, whatever
        the observer, and it keeps every arc out of them."""
        reach = self.cc_hat_count.left
        degree = self.g._closed_images.degree
        return reach.bit_count(), sum([degree[i] for i in _bits(reach)])

    # ghat keeps every arc out of the states it reaches, so its products
    # are counted and walked on g's own tables, started at the secret
    # initial states.  They are rendered on ghat, whose events and secret
    # states label the product.

    @cached_property
    def cc_count(self) -> ProductCount:
        return _count(self.g, self.g.initial_states, self.observer_search)

    @cached_property
    def cc_hat_count(self) -> ProductCount:
        return _count(self.g, self.g.secret_initials, self.observer_search)

    @cached_property
    def cc_iso_count(self) -> ProductCount:
        return _count(self.g, self.g.secret_initials, self.iso_observer_search)

    @cached_property
    def cc_search(self) -> ProductSearch:
        return _product(self.g, self.g.initial_states, self.observer_search)

    @cached_property
    def cc_hat_search(self) -> ProductSearch:
        return _product(self.g, self.g.secret_initials, self.observer_search)

    @cached_property
    def cc_iso_search(self) -> ProductSearch:
        return _product(self.g, self.g.secret_initials, self.iso_observer_search)

    @cached_property
    def observer(self) -> ObserverAutomaton:
        return render_observer(self.observer_search)

    @cached_property
    def cc(self) -> CCAutomaton:
        return render_cc(self.cc_search, self.observer)

    @cached_property
    def cc_hat(self) -> CCAutomaton:
        return render_cc(_product(self.ghat, self.ghat.initial_states, self.observer_search), self.observer)


def _count(left: Automaton, roots: Iterable[str], obs: ObserverSearch) -> ProductCount:
    return count_product(left, roots, obs.initial, obs.steps)


def _product(left: Automaton, roots: Iterable[str], obs: ObserverSearch) -> ProductSearch:
    return search_product(left, roots, obs.initial, obs.steps)


# property -> (structures sized in stats, and for a property decided on a
# product: its count, its walk, and whether a collapsed state is bad only
# with a secret left state).  CSO is decided on the estimate automaton.
_SPECS: dict[str, tuple[tuple[str, ...], "tuple[str, str, bool] | None"]] = {
    CSO: (("estimates_search",), None),
    ISO: (
        ("ghat_size", "iso_observer_search", "cc_iso_count"),
        ("cc_iso_count", "cc_iso_search", False),
    ),
    SCSO: (("gdss", "observer_search", "cc_count"), ("cc_count", "cc_search", True)),
    SISO: (
        ("gdss", "ghat_size", "observer_search", "cc_hat_count"),
        ("cc_hat_count", "cc_hat_search", False),
    ),
    INF_SSO: (("gdss", "observer_search", "cc_count"), ("cc_count", "cc_search", False)),
}

# Stats key prefix of each structure.
_STATS_PREFIX = {
    "gdss": "gdss",
    "ghat_size": "ghat",
    "observer_search": "observer",
    "iso_observer_search": "observer",
    "estimates_search": "estimate",
    "cc_count": "product",
    "cc_hat_count": "product",
    "cc_iso_count": "product",
}


def _size(structure: "Automaton | ObserverSearch | ProductCount | tuple[int, int]") -> tuple[int, int]:
    if isinstance(structure, Automaton):
        return len(structure.states), len(structure.transitions)
    if isinstance(structure, (ObserverSearch, ProductCount)):
        return structure.size
    return structure


def _decide(structures: Structures, prop: str, witness: bool) -> Verdict:
    try:
        sized, product = _SPECS[prop]
    except KeyError:
        raise ValueError(f"unknown property: {prop!r}") from None
    stats = {}
    for name in sized:
        prefix = _STATS_PREFIX[name]
        stats[f"{prefix}_states"], stats[f"{prefix}_transitions"] = _size(getattr(structures, name))
    g = structures.g
    found = None
    if product is None:
        search = structures.estimates_search
        offending = search.first_within(g._closed_images.secret)
        if witness and offending is not None:
            found = _observation_witness(search, offending)
        return Verdict(prop, offending is None, found, stats)
    counted, walked, secret_only = product
    bad = getattr(structures, counted).collapsed  # left states of the bad states
    if secret_only:
        bad &= g._closed_images.secret  # every product's left automaton is g
    if witness and bad:
        search = getattr(structures, walked)
        found = _product_witness(search, search.first_collapsed(bad))
    return Verdict(prop, not bad, found, stats)


def check_all(
    g: Automaton, witness: bool = False, properties: Iterable[str] = PROPERTIES
) -> dict[str, Verdict]:
    """Decide ``properties`` (all five by default), in the order given,
    sharing the constructed structures between them.  Raises ValueError
    for an unknown property."""
    structures = Structures(g)
    return {prop: _decide(structures, prop, witness) for prop in properties}


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
    its walk: a shortest product path, ties broken by event-pair order.
    Only the offending state is labelled (bad product states are
    collapsed, so its estimate is None)."""
    start, steps = _tree_path(search.parents, key)
    events = tuple(pair[0] for pair, _ in steps)
    observation = tuple(pair[1] for pair, _ in steps if pair[1] is not None)
    run = Run(search.left_of(start), tuple((pair[0], search.left_of(dst)) for pair, dst in steps))
    return Witness(events, observation, CCState(search.left_of(key), None), run)


def _observation_witness(search: ObserverSearch, number: int) -> Witness:
    """Witness for a current-state estimate violation: the observation on
    the tree path to estimate ``number`` of ``search`` (a shortest one),
    plus a shortest run of the search's source realizing it."""
    _, steps = _tree_path(search.parents, number)
    observation = tuple(event for event, _ in steps)
    run = _realize_observation(search.source, observation)
    return Witness(run.events, observation, search.subset(number), run)


def _realize_observation(g: Automaton, observation: tuple[str, ...]) -> Run:
    """Shortest run of ``g`` whose projection equals ``observation``.

    Breadth-first over (state, consumed-prefix-length) nodes; silent
    transitions keep the prefix length, matching observable transitions
    advance it."""
    target = len(observation)
    parents: dict = dict.fromkeys((state, 0) for state in sorted(g.initial_states))
    queue = deque(parents)
    while queue:
        node = queue.popleft()
        state, consumed = node
        if consumed == target:
            start, steps = _tree_path(parents, node)
            return Run(start[0], tuple((event, dst) for event, (dst, _) in steps))
        for event, dst in g.outgoing(state):
            if event not in g.observable:
                successor = (dst, consumed)
            elif event == observation[consumed]:
                successor = (dst, consumed + 1)
            else:
                continue
            if successor not in parents:
                parents[successor] = (node, event)
                queue.append(successor)
    raise ValueError("observation is not realizable")
