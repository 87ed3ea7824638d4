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
initial states, and order their components lexicographically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .model import Automaton, unobservable_reach

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


def _subset_key(subset: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(subset))

def _right_key(right: "frozenset[str] | None") -> tuple[str, ...]:
    # The empty string never names a state, so ("",) is a safe slot for
    # the empty estimate in sort keys.
    return ("",) if right is None else tuple(sorted(right))

def _cc_key(state: CCState) -> tuple:
    return (state.left, _right_key(state.right))

def _pair_key(pair: EventPair) -> tuple[str, str]:
    return (pair[0], pair[1] if pair[1] is not None else "")


@dataclass(frozen=True)
class ObserverAutomaton:
    """Deterministic partial automaton over nonempty state subsets.

    ``initial`` is None when even the empty observation has no
    explanation (no initial state to close over).  ``transitions`` maps
    (subset, event) to the successor subset and is only defined where
    that successor is nonempty.
    """

    alphabet: tuple[str, ...]
    initial: "frozenset[str] | None"
    states: tuple[frozenset[str], ...]
    transitions: dict[tuple[frozenset[str], str], frozenset[str]]

    def step(self, subset: frozenset[str], event: str) -> "frozenset[str] | None":
        """Successor subset, or None where the observer is undefined."""
        return self.transitions.get((subset, event))


@dataclass(frozen=True)
class CCAutomaton:
    """Synchronized product of a left automaton with an observer."""

    event_pairs: tuple[EventPair, ...]
    states: tuple[CCState, ...]
    transitions: tuple[tuple[CCState, EventPair, CCState], ...]
    initial_states: tuple[CCState, ...]
    left_secret: frozenset[str]

    @cached_property
    def _out(self) -> dict[CCState, tuple[tuple[EventPair, CCState], ...]]:
        by_src: dict[CCState, list[tuple[EventPair, CCState]]] = {s: [] for s in self.states}
        for src, pair, dst in self.transitions:
            by_src[src].append((pair, dst))
        return {
            s: tuple(sorted(arcs, key=lambda arc: (_pair_key(arc[0]), _cc_key(arc[1]))))
            for s, arcs in by_src.items()
        }

    def outgoing(self, state: CCState) -> tuple[tuple[EventPair, CCState], ...]:
        return self._out.get(state, ())

    def is_left_secret(self, state: CCState) -> bool:
        return state.left in self.left_secret

    @property
    def empty_right_states(self) -> tuple[CCState, ...]:
        """Product states whose estimate has collapsed to empty."""
        return tuple(s for s in self.states if s.right is None)

    @property
    def leaking_secret_states(self) -> tuple[CCState, ...]:
        """Empty-estimate states whose left component is secret."""
        return tuple(s for s in self.empty_right_states if self.is_left_secret(s))


def _restrict(
    g: Automaton, initial: frozenset[str], allowed: frozenset[str], secret: frozenset[str]
) -> Automaton:
    """The part of ``g`` reachable from ``initial`` through ``allowed``
    states.

    The alphabet shrinks to the events labelling a surviving transition;
    observability tags are inherited and the surviving states of
    ``secret`` stay secret.
    """
    seen = set(initial)
    frontier = sorted(seen)
    while frontier:
        state = frontier.pop()
        for _, target in g.outgoing(state):
            if target in allowed and target not in seen:
                seen.add(target)
                frontier.append(target)
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
    """
    alphabet = tuple(sorted(src.observable))
    initial = unobservable_reach(src, src.initial_states)
    if not initial:
        return ObserverAutomaton(alphabet=alphabet, initial=None, states=(), transitions={})

    transitions: dict[tuple[frozenset[str], str], frozenset[str]] = {}
    seen = {initial}
    queue = deque([initial])
    while queue:
        subset = queue.popleft()
        for event in alphabet:
            image: set[str] = set()
            for state in subset:
                image.update(src.successors(state, event))
            if not image:
                continue
            successor = unobservable_reach(src, image)
            transitions[(subset, event)] = successor
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return ObserverAutomaton(
        alphabet=alphabet,
        initial=initial,
        states=tuple(sorted(seen, key=_subset_key)),
        transitions=transitions,
    )


def build_cc(left: Automaton, obs: ObserverAutomaton) -> CCAutomaton:
    """Synchronized product of ``left`` with an observer.

    Observable events move both sides; the estimate goes to the successor
    subset where the observer is defined and collapses to the empty
    estimate otherwise (including events outside the observer's
    alphabet).  Silent events move only the left side.  The empty
    estimate is absorbing.  Only reachable product states are kept.
    """
    initial = tuple(CCState(state, obs.initial) for state in sorted(left.initial_states))
    seen = set(initial)
    queue = deque(initial)
    transitions: set[tuple[CCState, EventPair, CCState]] = set()
    while queue:
        src = queue.popleft()
        for event, target in left.outgoing(src.left):
            if event in left.observable:
                pair: EventPair = (event, event)
                right = None if src.right is None else obs.step(src.right, event)
            else:
                pair = (event, None)
                right = src.right
            dst = CCState(target, right)
            transitions.add((src, pair, dst))
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    pairs = tuple(
        (event, event if event in left.observable else None) for event in left.events
    )
    return CCAutomaton(
        event_pairs=pairs,
        states=tuple(sorted(seen, key=_cc_key)),
        transitions=tuple(
            sorted(transitions, key=lambda tr: (_cc_key(tr[0]), _pair_key(tr[1]), _cc_key(tr[2])))
        ),
        initial_states=initial,
        left_secret=left.secret_states,
    )
