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

The observer and the product are each found by one breadth-first search
on plain ints, and ``build_observer`` and ``build_cc`` render those
searches into the labelled fields above.  The deciders read sizes, the
first bad state and its tree path straight from the searches; labels are
built only for export, for witnesses, and for callers of ``build_*``.

* ``search_observer`` keeps each estimate as a bit mask over the
  source's states and numbers the estimates 1, 2, ... in discovery
  order, 0 standing for the collapsed (empty) estimate.  It runs no
  closure search: the source keeps, per state and observable event, the
  silent closure of that event's targets as one mask (its closed image).
  Closure distributes over union, so a step is the OR of the members'
  masks.
* ``search_product`` keys the state (left state i, estimate e) as the
  int ``e * n + i``, n being the number of left states, so collapsed
  states are the keys below n.  It groups each left state's arcs by
  event once, so a product state looks up the observer's step once per
  event, not once per arc, and it counts arcs instead of storing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

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


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    bits = []
    while mask:
        low = mask & -mask  # the lowest set bit
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


@dataclass(frozen=True)
class ObserverSearch:
    """The observer's breadth-first search, on bit masks.

    Estimates are numbered 1, 2, ... in discovery order, so the initial
    estimate, if any, is number 1.  Number 0 stands for the collapsed
    (empty) estimate: it has no members and no parent, and every step
    from it leads back to 0.  Per number ``i``:

    * ``masks[i]`` is the estimate as a bit mask, bit j standing for
      ``source.states[j]``, and ``members[i]`` lists its bits, ascending;
    * ``steps[event][i]`` is the number of its successor on ``event``,
      0 where the observer is undefined;
    * ``parents[i]`` is the (number, event) it was first reached from.

    ``transitions`` counts the defined steps.
    """

    source: Automaton
    alphabet: tuple[str, ...]
    masks: list[int]
    members: list[list[int]]
    steps: dict[str, list[int]]
    parents: list["tuple[int, str] | None"]
    transitions: int

    @property
    def initial(self) -> int:
        """Number of the initial estimate: 1, or 0 when there is none."""
        return 1 if len(self.masks) > 1 else 0

    @property
    def size(self) -> tuple[int, int]:
        """(states, transitions) of the observer, the collapsed estimate not counted."""
        return len(self.masks) - 1, self.transitions

    def subset(self, number: int) -> frozenset[str]:
        names = self.source.states
        return frozenset([names[i] for i in self.members[number]])

    def first_within(self, states: frozenset[str]) -> "int | None":
        """The first estimate, in discovery order, contained in ``states``."""
        outside = 0
        for i, name in enumerate(self.source.states):
            if name not in states:
                outside |= 1 << i
        return next((i for i, mask in enumerate(self.masks) if i and not mask & outside), None)


def search_observer(src: Automaton, initial_states: "Iterable[str] | None" = None) -> ObserverSearch:
    """Breadth-first search of the observer of ``src``, started at the
    closure of ``initial_states`` (``src``'s own by default).

    No closure is searched per step: ``src`` caches, per state and
    observable event, the silent closure of that event's targets as a bit
    mask, so a step is the OR of its members' masks.
    """
    alphabet = tuple(sorted(src.observable))
    closures, images = src._closed_images
    initial = 0
    for x in src.initial_states if initial_states is None else initial_states:
        initial |= closures[x]
    masks, members, parents = [0], [[]], [None]
    numbers = {}  # mask -> number
    if initial:
        numbers[initial] = 1
        masks.append(initial)
        members.append(_bits(initial))
        parents.append(None)
    steps = {event: [] for event in alphabet}
    rows = [(event, images[event], steps[event]) for event in alphabet]
    transitions = 0
    # members grows while it is walked: each estimate is expanded in
    # discovery order, number 0 first (its members are none, so its steps are 0).
    for number, bits in enumerate(members):
        for event, row, out in rows:
            mask = 0
            for i in bits:
                mask |= row[i]
            if not mask:
                out.append(0)
                continue
            successor = numbers.get(mask)
            if successor is None:
                successor = numbers[mask] = len(masks)
                masks.append(mask)
                members.append(_bits(mask))
                parents.append((number, event))
            out.append(successor)
            transitions += 1
    return ObserverSearch(src, alphabet, masks, members, steps, parents, transitions)


def render_observer(search: ObserverSearch) -> ObserverAutomaton:
    """The labelled observer of a search: each estimate becomes a subset
    of state names, in the search's discovery order."""
    names = search.source.states
    members = search.members
    subsets = [frozenset([names[i] for i in bits]) for bits in members]
    count = len(subsets)
    transitions = {}
    for number in range(1, count):
        for event in search.alphabet:
            successor = search.steps[event][number]
            if successor:
                transitions[(subsets[number], event)] = subsets[successor]
    parents = {
        subsets[number]: None if link is None else (subsets[link[0]], link[1])
        for number, link in enumerate(search.parents)
        if number
    }
    return ObserverAutomaton(
        alphabet=search.alphabet,
        initial=subsets[1] if count > 1 else None,
        # names is sorted, so bit order is name order.
        states=tuple(subsets[i] for i in sorted(range(1, count), key=members.__getitem__)),
        transitions=transitions,
        parents=parents,
    )


def build_observer(src: Automaton) -> ObserverAutomaton:
    """Powerset observer of ``src``: subsets consistent with observations.

    The initial subset is the silent closure of the initial states (absent
    when that closure is empty); stepping on an observable event takes the
    event image followed by silent closure, and is undefined when that
    image is empty.  Only subsets reachable from the initial one are kept.
    This renders :func:`search_observer`.
    """
    return render_observer(search_observer(src))


# Per left state, its arcs grouped by event: (event pair, the observer's
# step row for the event, or None when the event is silent, target indexes).
ArcGroup = tuple[EventPair, "list[int] | None", tuple[int, ...]]


@dataclass(frozen=True)
class ProductSearch:
    """The product's breadth-first search, on int keys.

    The state (left state i, estimate number e) has key ``e * n + i``,
    where n is the number of left states, so the collapsed states are
    exactly the keys below n.  ``parents`` maps each key, in discovery
    order, to the (key, event pair) it was first reached from, and each
    initial key to None.  Arcs are not stored: ``groups`` gives them per
    left state, and ``transitions`` counts them.  ``first_collapsed`` is
    the first collapsed key in discovery order and
    ``first_secret_collapsed`` the first one whose left state is secret,
    each None when there is none.
    """

    left: Automaton
    groups: list[list[ArcGroup]]
    initial_keys: tuple[int, ...]
    parents: dict[int, "tuple[int, EventPair] | None"]
    transitions: int
    first_collapsed: "int | None"
    first_secret_collapsed: "int | None"

    @property
    def size(self) -> tuple[int, int]:
        """(states, transitions) of the product."""
        return len(self.parents), self.transitions

    def left_of(self, key: int) -> str:
        return self.left.states[key % len(self.left.states)]


def search_product(left: Automaton, initial: int, steps: Mapping[str, list[int]]) -> ProductSearch:
    """Breadth-first search of the product of ``left`` with an observer
    given by its initial estimate number (0 for none) and its step rows
    (see :class:`ObserverSearch`).

    The arcs of each left state are grouped by event once, so a product
    state looks up the observer's step once per event, not once per arc.
    """
    names = left.states
    n = len(names)
    index = {x: i for i, x in enumerate(names)}
    # Events outside the observer's alphabet collapse every estimate.
    collapse = [0] * max([2, *map(len, steps.values())])
    groups: list[list[ArcGroup]] = [[] for _ in names]
    degree = [0] * n
    # left.transitions is sorted by (source, event, target), so each
    # group's targets and each state's groups come out in arc order.
    for (state, event), arcs_of_event in groupby(left.transitions, key=itemgetter(0, 1)):
        targets = tuple([index[t] for _, _, t in arcs_of_event])
        if event in left.observable:
            group = ((event, event), steps.get(event, collapse), targets)
        else:
            group = ((event, None), None, targets)
        groups[index[state]].append(group)
        degree[index[state]] += len(targets)
    roots = tuple(initial * n + index[x] for x in sorted(left.initial_states))
    parents: dict[int, "tuple[int, EventPair] | None"] = dict.fromkeys(roots)
    collapsed = [key for key in roots if key < n]
    transitions = 0
    order = list(roots)
    for key in order:  # order grows while it is walked
        estimate, state = divmod(key, n)
        transitions += degree[state]
        for pair, row, targets in groups[state]:
            # Row entry 0 is 0, so the collapsed estimate stays collapsed.
            base = (estimate if row is None else row[estimate]) * n
            for target in targets:
                dst = base + target
                if dst not in parents:
                    parents[dst] = (key, pair)
                    order.append(dst)
                    if dst < n:
                        collapsed.append(dst)
    secret = left.secret_states
    return ProductSearch(
        left=left,
        groups=groups,
        initial_keys=roots,
        parents=parents,
        transitions=transitions,
        first_collapsed=collapsed[0] if collapsed else None,
        first_secret_collapsed=next((key for key in collapsed if names[key] in secret), None),
    )


def render_cc(search: ProductSearch, obs: ObserverAutomaton) -> CCAutomaton:
    """The labelled product of a search, with estimates labelled by
    ``obs``: the observer whose step rows the search used, so that its
    ``parents`` lists the estimates in number order."""
    left = search.left
    names = left.states
    n = len(names)
    labels = (None, *obs.parents)
    # obs.states is sorted, so its order ranks the estimates; None goes first.
    numbers = {subset: number for number, subset in enumerate(labels)}
    rank = [0] * len(labels)
    for position, subset in enumerate(obs.states, 1):
        rank[numbers[subset]] = position
    new_state = tuple.__new__  # CCState without its Python-level __new__
    state = {}
    ranked = {}  # (left state, estimate rank) as one int -> state
    for key in search.parents:
        estimate, x = divmod(key, n)
        state[key] = ranked[x * len(labels) + rank[estimate]] = new_state(
            CCState, (names[x], labels[estimate])
        )
    arcs = {}
    groups = search.groups
    for key, src in state.items():
        estimate, x = divmod(key, n)
        out = []
        for pair, row, targets in groups[x]:
            base = (estimate if row is None else row[estimate]) * n
            for target in targets:
                out.append((pair, state[base + target]))
        arcs[src] = tuple(out)
    pairs = tuple(
        (event, event if event in left.observable else None) for event in left.events
    )
    return CCAutomaton(
        event_pairs=pairs,
        states=tuple([ranked[code] for code in sorted(ranked)]),
        arcs=arcs,
        initial_states=tuple(state[key] for key in search.initial_keys),
        left_secret=left.secret_states,
        parents={
            state[key]: None if link is None else (state[link[0]], link[1])
            for key, link in search.parents.items()
        },
    )


def build_cc(left: Automaton, obs: ObserverAutomaton) -> CCAutomaton:
    """Synchronized product of ``left`` with an observer.

    Observable events move both sides; the estimate goes to the successor
    subset where the observer is defined and collapses to the empty
    estimate otherwise (including events outside the observer's
    alphabet).  Silent events move only the left side.  The empty
    estimate is absorbing.  Only reachable product states are kept.
    This renders :func:`search_product`, run on ``obs``'s steps with its
    subsets numbered in ``parents`` order.
    """
    numbers = {subset: number for number, subset in enumerate(obs.parents, 1)}
    steps = {event: [0] * (len(numbers) + 1) for event in obs.alphabet}
    for (subset, event), successor in obs.transitions.items():
        steps[event][numbers[subset]] = numbers[successor]
    return render_cc(search_product(left, numbers.get(obs.initial, 0), steps), obs)
