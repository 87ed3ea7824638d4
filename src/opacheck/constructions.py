"""Derived structures used by the verifiers.

Four constructions are provided:

* ``build_gdss``   -- the non-secret core: the part of the system that a
  run can traverse without ever touching a secret state, started from
  the non-secret initial states.
* ``build_ghat``   -- the secret-start restriction: everything reachable
  from the secret initial states.
* ``build_observer`` -- powerset determinization with silent closure;
  its states are the nonempty sets of states consistent with an
  observation.
* ``build_cc``     -- the synchronized product of an automaton with an
  observer: the left side moves like the automaton, the right side
  replays the observation through the observer and collapses to the
  distinguished empty estimate once the observer has no answer.  The
  empty estimate is absorbing.

All outputs are immutable, contain only the part reachable from their
initial states, and order their components lexicographically.  The
observer and the product keep the breadth-first tree of their
construction as ``parents``: in discovery order, each state maps to the
(state, label) it was first reached from, each initial state to None.
A shortest path to any state is read off that tree.

Neither search repeats work per step.  The observer runs no closure
search: each state of the source is a bit, and the source keeps, per
state and observable event, the silent closure of that event's targets
as one int mask (its closed image).  Closure distributes over union, so
a step is the OR of the members' masks, and each distinct mask becomes a
``frozenset`` once, when first reached.  The product groups each left
state's arcs by event once, so a product state looks up the observer's
step once per event, not once per arc.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple

from .model import Automaton, _reach

# An event pair labels a product transition: (sigma, sigma) when sigma is
# observable, (sigma, None) when it is silent on the observer side.
EventPair = tuple[str, "str | None"]


class CCState(NamedTuple):
    """Product state: a system state and the current observer estimate.

    ``right`` is None once no run of the observer's source automaton can
    explain the observation seen so far; this is distinct from any
    observer state, which is always a nonempty set.
    """

    left: str
    right: "frozenset[str] | None"


def subset_label(subset: "Iterable[str] | None") -> str:
    """Render a state subset as ``{x1,x5}``; the empty estimate as ``{}``."""
    return "{" + ",".join(sorted(subset or ())) + "}"


def cc_label(state: CCState) -> str:
    """Render a product state as ``(x4,{x1,x5})``."""
    return f"({state.left},{subset_label(state.right)})"


def pair_label(pair: EventPair) -> str:
    """Render an event pair as ``(a,a)`` or ``(u,eps)``."""
    return f"({pair[0]},{pair[1] if pair[1] is not None else 'eps'})"


@dataclass(frozen=True)
class ObserverAutomaton:
    """Deterministic partial automaton over nonempty state subsets.

    ``initial`` is None when even the empty observation has no
    explanation (no initial state to close over).  ``transitions`` maps
    (subset, event) to the successor subset and is only defined where
    that successor is nonempty.  ``parents`` is the construction's breadth-first tree.
    """

    alphabet: tuple[str, ...]
    initial: "frozenset[str] | None"
    states: tuple[frozenset[str], ...]
    transitions: dict[tuple[frozenset[str], str], frozenset[str]]
    parents: dict[frozenset[str], "tuple[frozenset[str], str] | None"]

    def step(self, subset: frozenset[str], event: str) -> "frozenset[str] | None":
        """Successor subset, or None where the observer is undefined."""
        return self.transitions.get((subset, event))


@dataclass(frozen=True)
class CCAutomaton:
    """Synchronized product of a left automaton with an observer.

    ``arcs`` maps each state to its sorted (event pair, target) arcs;
    ``parents`` is the construction's breadth-first tree.
    """

    event_pairs: tuple[EventPair, ...]
    states: tuple[CCState, ...]
    arcs: dict[CCState, tuple[tuple[EventPair, CCState], ...]]
    initial_states: tuple[CCState, ...]
    left_secret: frozenset[str]
    parents: dict[CCState, "tuple[CCState, EventPair] | None"]

    @cached_property
    def transitions(self) -> tuple[tuple[CCState, EventPair, CCState], ...]:
        """All (source, event pair, target) triples, sorted."""
        # From a list: tuple() of a generator resizes as it grows, fragmenting the heap.
        return tuple([(src, pair, dst) for src in self.states for pair, dst in self.arcs[src]])

    def outgoing(self, state: CCState) -> tuple[tuple[EventPair, CCState], ...]:
        return self.arcs.get(state, ())


def _restrict(
    g: Automaton, initial: frozenset[str], allowed: frozenset[str], secret: frozenset[str]
) -> Automaton:
    """The part of ``g`` reachable from ``initial`` through ``allowed``
    states.

    The alphabet shrinks to the events labelling a surviving transition;
    observability tags are inherited and the surviving states of
    ``secret`` stay secret.
    """
    seen = _reach(initial, lambda state: (t for _, t in g.outgoing(state) if t in allowed))
    kept = [(s, e, t) for (s, e, t) in g.transitions if s in seen and t in seen]
    used_events = {e for _, e, _ in kept}
    return Automaton.build(
        states=seen,
        events=used_events,
        observable=g.observable & used_events,
        transitions=kept,
        initial_states=initial,
        secret_states=secret & seen,
    )


def build_gdss(g: Automaton) -> Automaton:
    """Non-secret core of ``g``.

    Keeps exactly the non-secret states reachable from the non-secret
    initial states along runs that never visit a secret state.  The
    result may be empty.
    """
    return _restrict(g, g.non_secret_initials, g._state_set - g.secret_states, frozenset())


def build_ghat(g: Automaton) -> Automaton:
    """Secret-start restriction of ``g``.

    Keeps everything reachable from the secret initial states (secret or
    not); empty when there is no secret initial state.
    """
    return _restrict(g, g.initial_states & g.secret_states, g._state_set, g.secret_states)


def build_observer(src: Automaton) -> ObserverAutomaton:
    """Powerset observer of ``src``: subsets consistent with observations.

    The initial subset is the silent closure of the initial states (absent
    when that closure is empty); stepping on an observable event takes the
    event image followed by silent closure, and is undefined when that
    image is empty.  Only subsets reachable from the initial one are kept.

    No closure is searched per step: ``src`` caches, per state and
    observable event, the silent closure of that event's targets as a bit
    mask, so a step is the OR of its members' masks.  Each distinct mask
    becomes a subset once, when it is first reached.
    """
    return _observer_from(src, src.initial_states)


def _observer_from(src: Automaton, initial_states: Iterable[str]) -> ObserverAutomaton:
    """The observer of ``src`` restarted at ``initial_states``, built on
    ``src``'s own closure tables."""
    alphabet = tuple(sorted(src.observable))
    closures, images = src._closed_images
    rows = [(event, images[event]) for event in alphabet]
    names = src.states
    subsets: dict[int, frozenset[str]] = {}  # each mask reached so far, as a subset
    members: dict[frozenset[str], list[int]] = {}  # and the subset's bits, ascending
    parents: dict[frozenset[str], "tuple[frozenset[str], str] | None"] = {}
    queue: deque[frozenset[str]] = deque()

    def reach(mask: int, link: "tuple[frozenset[str], str] | None") -> frozenset[str]:
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        subset = subsets[mask] = frozenset([names[i] for i in bits])
        members[subset] = bits
        parents[subset] = link
        queue.append(subset)
        return subset

    initial_mask = 0
    for x in initial_states:
        initial_mask |= closures[x]
    initial = reach(initial_mask, None) if initial_mask else None
    transitions: dict[tuple[frozenset[str], str], frozenset[str]] = {}
    while queue:
        subset = queue.popleft()
        bits = members[subset]
        for event, row in rows:
            mask = 0
            for i in bits:
                mask |= row[i]
            if mask:
                successor = subsets.get(mask) or reach(mask, (subset, event))
                transitions[(subset, event)] = successor
    return ObserverAutomaton(
        alphabet=alphabet,
        initial=initial,
        # names is sorted, so bit order is name order.
        states=tuple(sorted(parents, key=members.__getitem__)),
        transitions=transitions,
        parents=parents,
    )


def build_cc(left: Automaton, obs: ObserverAutomaton) -> CCAutomaton:
    """Synchronized product of ``left`` with an observer.

    Observable events move both sides; the estimate goes to the successor
    subset where the observer is defined and collapses to the empty
    estimate otherwise (including events outside the observer's
    alphabet).  Silent events move only the left side.  The empty
    estimate is absorbing.  Only reachable product states are kept.

    The arcs of each left state are grouped by event once, so a product
    state looks up the observer's step once per event, not once per arc.
    """
    # left.transitions is sorted by (source, event, target), so each
    # group's targets and each state's groups come out in arc order.
    groups: dict[str, list[tuple[EventPair, tuple[str, ...]]]] = {}
    for (state, event), arcs_of_event in groupby(left.transitions, key=itemgetter(0, 1)):
        pair: EventPair = (event, event if event in left.observable else None)
        groups.setdefault(state, []).append((pair, tuple(t for _, _, t in arcs_of_event)))
    step = obs.transitions.get
    new_state = tuple.__new__  # CCState without its Python-level __new__
    initial = tuple(new_state(CCState, (state, obs.initial)) for state in sorted(left.initial_states))
    parents: dict[CCState, "tuple[CCState, EventPair] | None"] = dict.fromkeys(initial)
    arcs: dict[CCState, tuple[tuple[EventPair, CCState], ...]] = {}
    queue = deque(initial)
    while queue:
        src = queue.popleft()
        state, estimate = src
        out = []
        for pair, targets in groups.get(state, ()):
            seen = pair[1]
            # The empty estimate (None) has no step, so it stays empty.
            right = estimate if seen is None else step((estimate, seen))
            for target in targets:
                dst = new_state(CCState, (target, right))
                out.append((pair, dst))
                if dst not in parents:
                    parents[dst] = (src, pair)
                    queue.append(dst)
        arcs[src] = tuple(out)
    # obs.states is sorted, so its order ranks the estimates; None goes first.
    rank = {subset: index for index, subset in enumerate((None, *obs.states))}
    pairs = tuple(
        (event, event if event in left.observable else None) for event in left.events
    )
    return CCAutomaton(
        event_pairs=pairs,
        states=tuple(sorted(parents, key=lambda s: (s.left, rank[s.right]))),
        arcs=arcs,
        initial_states=initial,
        left_secret=left.secret_states,
        parents=parents,
    )
