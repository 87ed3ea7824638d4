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
first use, so properties decided together share it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Any, Callable, Hashable, Iterable, Mapping

from .constructions import (
    CCAutomaton,
    CCState,
    ObserverAutomaton,
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
        return build_observer(replace(self.g, initial_states=self.g.non_secret_initials))

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
        stats[f"{_STATS_PREFIX[name]}_transitions"] = len(structure.transitions)
    structure = getattr(structures, decided_on)
    is_bad = partial(bad, structures.g)
    holds = not any(map(is_bad, structure.states))
    found = None
    if witness and not holds:
        if isinstance(structure, CCAutomaton):
            found = extract_witness(structure, is_bad)
        else:
            found = _estimate_witness(structures.g, structure, is_bad)
    return Verdict(prop, holds, found, stats)


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


def _shortest_path(
    starts: Iterable[Hashable],
    step: Callable[[Any], Iterable[tuple[Any, Hashable]]],
    goal: Callable[[Any], bool],
) -> "list[tuple[Any, Any]] | None":
    """Shortest path from one of ``starts`` to a node satisfying ``goal``.

    Breadth-first; ``step(node)`` yields (label, successor) pairs, and
    starts and successors are tried in the order given, so the result is
    reproducible.  The path is a list of (label, node) pairs whose first
    label is None; it is None when no reachable node satisfies ``goal``.
    """
    parents: dict = dict.fromkeys(starts)  # node -> (parent, label); None for starts
    queue = deque(parents)
    found = next(filter(goal, parents), None)
    while found is None and queue:
        here = queue.popleft()
        for label, node in step(here):
            if node not in parents:
                parents[node] = (here, label)
                queue.append(node)
                if goal(node):
                    found = node
                    break
    if found is None:
        return None
    path = []
    while parents[found] is not None:
        prev, label = parents[found]
        path.append((label, found))
        found = prev
    path.append((None, found))
    return path[::-1]


def extract_witness(cc: CCAutomaton, bad: Callable[[CCState], bool]) -> Witness:
    """Shortest product path to a state satisfying ``bad``, which the
    caller guarantees is reachable; ties are broken by event-pair order."""
    path = _shortest_path(cc.initial_states, cc.outgoing, bad)
    steps = path[1:]
    events = tuple(pair[0] for pair, _ in steps)
    observation = tuple(pair[1] for pair, _ in steps if pair[1] is not None)
    run = Run(path[0][1].left, tuple((pair[0], dst.left) for pair, dst in steps))
    return Witness(events, observation, path[-1][1], run)


def _estimate_witness(
    g: Automaton, estimates: ObserverAutomaton, bad: Callable[[frozenset[str]], bool]
) -> Witness:
    """Witness for a current-state estimate violation: the shortest
    observation leading to a bad estimate, plus a shortest run realizing
    that observation."""

    def step(subset: frozenset[str]):
        for event in estimates.alphabet:
            successor = estimates.step(subset, event)
            if successor is not None:
                yield event, successor

    path = _shortest_path((estimates.initial,), step, bad)
    observation = tuple(event for event, _ in path[1:])
    run = _realize_observation(g, observation)
    return Witness(run.events, observation, path[-1][1], run)


def _realize_observation(g: Automaton, observation: tuple[str, ...]) -> Run:
    """Shortest run of ``g`` whose projection equals ``observation``.

    Breadth-first over (state, consumed-prefix-length) nodes; silent
    transitions keep the prefix length, matching observable transitions
    advance it."""
    target = len(observation)

    def step(node: tuple[str, int]):
        state, consumed = node
        for event, dst in g.outgoing(state):
            if event not in g.observable:
                yield event, (dst, consumed)
            elif consumed < target and event == observation[consumed]:
                yield event, (dst, consumed + 1)

    starts = [(state, 0) for state in sorted(g.initial_states)]
    path = _shortest_path(starts, step, lambda node: node[1] == target)
    if path is None:
        raise ValueError("observation is not realizable")
    return Run(path[0][1][0], tuple((event, node[0]) for event, node in path[1:]))
