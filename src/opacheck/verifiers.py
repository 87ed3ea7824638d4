"""Deciders for the five opacity properties, with witness extraction.

Every property is decided the same way: a structure built from the
system reaches a bad state exactly when the property fails.  ``_SPECS``
gives, per property, that structure, the structures whose sizes go in
the verdict's stats, and the bad-state predicate.  The strong properties
are decided on products with the observer of the non-secret core, where
bad means a collapsed estimate (for strong current-state opacity, with a
secret left component); standard current-state opacity on the estimate
automaton of the full system, where bad means an estimate inside the
secret set; standard initial-state opacity on the product of the
secret-start part with the observer of the system restarted at its
non-secret initial states.  :class:`Structures` builds each structure on
first use, so properties decided together share it.  Each keeps the
tree of its breadth-first search: the first bad state in discovery
order decides the verdict, and its tree path is a shortest witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Callable, Hashable, Iterable, Mapping

from .constructions import (
    CCAutomaton,
    CCState,
    ObserverAutomaton,
    _observer_from,
    build_cc,
    build_gdss,
    build_ghat,
    build_observer,
    cc_label,
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
    system ``g`` on first use and shared from then on."""

    def __init__(self, g: Automaton):
        self.g = g

    @cached_property
    def gdss(self) -> Automaton:
        return build_gdss(self.g)

    @cached_property
    def ghat(self) -> Automaton:
        return build_ghat(self.g)

    @cached_property
    def observer(self) -> ObserverAutomaton:
        """Observer of the non-secret core."""
        return build_observer(self.gdss)

    @cached_property
    def cc(self) -> CCAutomaton:
        return build_cc(self.g, self.observer)

    @cached_property
    def cc_hat(self) -> CCAutomaton:
        return build_cc(self.ghat, self.observer)

    @cached_property
    def estimates(self) -> ObserverAutomaton:
        """Estimate automaton of the full system."""
        return build_observer(self.g)

    @cached_property
    def iso_observer(self) -> ObserverAutomaton:
        """Observer of the system restarted at its non-secret initial states."""
        return _observer_from(self.g, self.g.non_secret_initials)

    @cached_property
    def cc_iso(self) -> CCAutomaton:
        return build_cc(self.ghat, self.iso_observer)


def _collapsed(g: Automaton, state: CCState) -> bool:
    return state.right is None


# property -> (structure decided on, structures sized in stats, bad(g, state))
_SPECS: dict[str, tuple[str, tuple[str, ...], Callable[[Automaton, Any], bool]]] = {
    CSO: ("estimates", ("estimates",), lambda g, q: q <= g.secret_states),
    ISO: ("cc_iso", ("ghat", "iso_observer", "cc_iso"), _collapsed),
    SCSO: (
        "cc",
        ("gdss", "observer", "cc"),
        lambda g, s: s.right is None and s.left in g.secret_states,
    ),
    SISO: ("cc_hat", ("gdss", "ghat", "observer", "cc_hat"), _collapsed),
    INF_SSO: ("cc", ("gdss", "observer", "cc"), _collapsed),
}

# Stats key prefix of each structure.
_STATS_PREFIX = {
    "gdss": "gdss",
    "ghat": "ghat",
    "observer": "observer",
    "iso_observer": "observer",
    "estimates": "estimate",
    "cc": "product",
    "cc_hat": "product",
    "cc_iso": "product",
}


def _decide(structures: Structures, prop: str, witness: bool) -> Verdict:
    try:
        decided_on, sized, bad = _SPECS[prop]
    except KeyError:
        raise ValueError(f"unknown property: {prop!r}") from None
    stats = {}
    for name in sized:
        structure = getattr(structures, name)
        stats[f"{_STATS_PREFIX[name]}_states"] = len(structure.states)
        # A product counts its arcs; its transitions would be built just to be counted.
        groups = (
            structure.arcs.values() if isinstance(structure, CCAutomaton) else [structure.transitions]
        )
        stats[f"{_STATS_PREFIX[name]}_transitions"] = sum(map(len, groups))
    structure = getattr(structures, decided_on)
    offending = next(filter(partial(bad, structures.g), structure.parents), None)
    found = None
    if witness and offending is not None:
        if isinstance(structure, CCAutomaton):
            found = extract_witness(structure, offending)
        else:
            found = _estimate_witness(structures.g, structure, offending)
    return Verdict(prop, offending is None, found, stats)


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


def _tree_path(parents: Mapping, node: Hashable) -> tuple[Any, list[tuple[Any, Any]]]:
    """The root above ``node`` in a breadth-first tree and the (label,
    node) steps from that root down to ``node``; ``parents`` maps each
    node to its (parent, label), and each root to None."""
    steps = []
    while parents[node] is not None:
        parent, label = parents[node]
        steps.append((label, node))
        node = parent
    return node, steps[::-1]


def extract_witness(cc: CCAutomaton, offending: CCState) -> Witness:
    """The path to ``offending`` in the product's breadth-first tree: a
    shortest product path, ties broken by event-pair order."""
    start, steps = _tree_path(cc.parents, offending)
    events = tuple(pair[0] for pair, _ in steps)
    observation = tuple(pair[1] for pair, _ in steps if pair[1] is not None)
    run = Run(start.left, tuple((pair[0], dst.left) for pair, dst in steps))
    return Witness(events, observation, offending, run)


def _estimate_witness(
    g: Automaton, estimates: ObserverAutomaton, offending: frozenset[str]
) -> Witness:
    """Witness for a current-state estimate violation: the observation
    on the tree path to the estimate ``offending`` (a shortest one), plus
    a shortest run realizing that observation."""
    _, steps = _tree_path(estimates.parents, offending)
    observation = tuple(event for event, _ in steps)
    run = _realize_observation(g, observation)
    return Witness(run.events, observation, offending, run)


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
