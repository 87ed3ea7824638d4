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

The observer is found by one breadth-first search on plain ints, and
the product by a count and a breadth-first walk on plain ints;
``build_observer`` and ``build_cc`` render the searches into the
labelled fields above.  The deciders read sizes from the observer search
and the product count, and walk a product only for a witness, up to its
first bad state.  The labelled structures exist for ``export`` and for
callers of the public ``build_*`` only; a witness labels just its path.

* ``search_observer`` keeps each estimate as a bit mask over the
  source's states and numbers the estimates 1, 2, ... in discovery
  order, 0 standing for the collapsed (empty) estimate.  It runs no
  closure search: the source packs, per state, the silent closure of
  each observable event's targets (its closed image) into one int, one
  slice of bits per event.  Closure distributes over union, so one OR of
  the members' packed rows steps an estimate on every event at once.
* ``count_product`` finds a product's exact sizes and its collapsed
  states without a search: the product's states are the pairs (x, e)
  with x in L_e, one mask of left states per estimate e, and the masks
  grow to a fixpoint through the left automaton's packed rows.
* ``search_product`` keys the state (left state i, estimate e) as the
  int ``e * n + i``, n being the number of left states, so collapsed
  states are the keys below n.  It groups each left state's arcs by
  event once, so a product state looks up the observer's step once per
  event, not once per arc.  Its walk is resumable: it stops at the first
  collapsed state asked for and goes on from there when asked again, so
  the discovery order is that of one whole search.

Both start the product at given left states, so the product of a part of
an automaton that keeps every arc out of its states, such as ``Ĝ``, is
counted and walked on the whole automaton's tables.  The non-secret
core's observer is searched on the automaton's core tables, so the
deciders build neither ``G_dss`` nor ``Ĝ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby
from operator import itemgetter, or_
from typing import Iterable, Iterator, Mapping, NamedTuple

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
    return _restrict(g, g.secret_initials, g._state_set, g.secret_states)


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
      ``source.states[j]``;
    * ``steps[event][i]`` is the number of its successor on ``event``,
      0 where the observer is undefined;
    * ``parents[i]`` is the (number, event) it was first reached from.

    ``transitions`` counts the defined steps.
    """

    source: Automaton
    alphabet: tuple[str, ...]
    masks: list[int]
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
        return frozenset([names[i] for i in _bits(self.masks[number])])

    def first_within(self, within: int) -> "int | None":
        """The first estimate, in discovery order, inside the state mask ``within``."""
        return next((i for i, mask in enumerate(self.masks) if i and not mask & ~within), None)


def search_observer(
    src: Automaton, initial_states: "Iterable[str] | None" = None, core: bool = False
) -> ObserverSearch:
    """Breadth-first search of the observer of ``src``, or of its
    non-secret core (``core``), started at the closure of
    ``initial_states`` (``src``'s own by default).

    No closure is searched per step: ``src`` packs, per state, the silent
    closure of each observable event's targets into one int (see
    :class:`~opacheck.model.ClosedImages`), so one OR over an estimate's
    members steps it on every event, and a shift splits the result.  The
    core too is searched on ``src``'s bits and whole observable alphabet;
    its steps on an event it never uses are all 0.
    """
    alphabet = tuple(sorted(src.observable))
    tables = src._core_images if core else src._closed_images
    packed = tables.packed
    n = len(src.states)
    full = (1 << n) - 1
    initial = tables.closure(src.initial_states if initial_states is None else initial_states)
    masks, parents = [0], [None]
    numbers = {}  # mask -> number
    if initial:
        numbers[initial] = 1
        masks.append(initial)
        parents.append(None)
    steps = {event: [] for event in alphabet}
    rows = [(event, steps[event]) for event in alphabet]
    transitions = 0
    # masks grows while it is walked: each estimate is expanded in
    # discovery order, number 0 first (it has no members, so its steps are 0).
    for number, mask in enumerate(masks):
        image = 0
        while mask:
            low = mask & -mask  # the lowest set bit
            image |= packed[low.bit_length() - 1]
            mask ^= low
        for event, out in rows:
            mask = image & full
            image >>= n
            if not mask:
                out.append(0)
                continue
            successor = numbers.get(mask)
            if successor is None:
                successor = numbers[mask] = len(masks)
                masks.append(mask)
                parents.append((number, event))
            out.append(successor)
            transitions += 1
    return ObserverSearch(src, alphabet, masks, steps, parents, transitions)


def render_observer(search: ObserverSearch) -> ObserverAutomaton:
    """The labelled observer of a search: each estimate becomes a subset
    of state names, in the search's discovery order."""
    names = search.source.states
    members = [_bits(mask) for mask in search.masks]
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


class ProductCount(NamedTuple):
    """Sizes of a product and its collapsed states, found without
    searching it.  ``collapsed`` is the mask of the left states paired
    with the collapsed estimate and ``left`` the mask of the left states
    in any product state, bit i standing for ``left.states[i]``."""

    states: int
    transitions: int
    collapsed: int
    left: int

    @property
    def size(self) -> tuple[int, int]:
        return self.states, self.transitions


def count_product(
    left: Automaton, roots: Iterable[str], initial: int, steps: Mapping[str, list[int]]
) -> ProductCount:
    """Count the product of ``left``, started at its states ``roots``,
    with an observer given by its initial estimate number and a step row
    per observable event of ``left`` (see :class:`ObserverSearch`).

    The product's states are the pairs (x, e) with x in L_e, one mask of
    left states per estimate e.  L_e is closed under ``left``'s silent
    transitions, so the masks are grown to a fixpoint from the closure of
    the roots: each new part of L_e steps on every observable event at
    once through ``left``'s packed rows, and each event's closed image
    joins the mask of the estimate the observer steps to.  Each state
    added brings its left state's out-degree of transitions.
    """
    tables = left._closed_images
    packed, degree = tables.packed, tables.degree
    n = len(left.states)
    full = (1 << n) - 1
    rows = [steps[event] for event in sorted(left.observable)]
    reached = {}  # estimate -> L_e
    root = tables.closure(roots)
    pending = {initial: root} if root else {}  # estimate -> left states to add
    states = transitions = 0
    while pending:  # a pending mask holds only left states not yet in its L_e
        estimate, fresh = pending.popitem()
        reached[estimate] = reached.get(estimate, 0) | fresh
        states += fresh.bit_count()
        image = 0
        while fresh:
            low = fresh & -fresh
            i = low.bit_length() - 1
            image |= packed[i]
            transitions += degree[i]
            fresh ^= low
        for row in rows:
            mask = image & full
            image >>= n
            if mask:
                target = row[estimate]
                mask &= ~reached.get(target, 0)
                if mask:
                    pending[target] = pending.get(target, 0) | mask
    return ProductCount(states, transitions, reached.get(0, 0), reduce(or_, reached.values(), 0))


# Per left state, its arcs grouped by event: (event pair, the observer's
# step row for the event, or None when the event is silent, target indexes).
ArcGroup = tuple[EventPair, "list[int] | None", tuple[int, ...]]


@dataclass(frozen=True)
class ProductSearch:
    """The product's breadth-first search, on int keys, walked only as
    far as asked.

    The state (left state i, estimate number e) has key ``e * n + i``,
    where n is the number of left states, so the collapsed states are
    exactly the keys below n.  ``parents`` maps each key discovered so
    far, in discovery order, to the (key, event pair) it was first
    reached from, and each initial key to None.  ``collapsed`` lists the
    collapsed keys discovered so far, in discovery order.  Arcs are not
    stored: ``groups`` gives them per left state.

    The walk is resumed where it stopped, so walking in steps discovers
    the same keys in the same order as walking at once.
    """

    left: Automaton
    groups: list[list[ArcGroup]]
    initial_keys: tuple[int, ...]
    parents: dict[int, "tuple[int, EventPair] | None"]
    collapsed: list[int]
    _discoveries: Iterator[int]

    def first_collapsed(self, within: int) -> "int | None":
        """The first collapsed key in discovery order whose left state is
        in the mask ``within``, or None.  The walk stops as soon as that
        key is discovered."""
        for key in self.collapsed:
            if within >> key & 1:
                return key
        for key in self._discoveries:
            self.collapsed.append(key)
            if within >> key & 1:
                return key
        return None

    def drain(self) -> None:
        """Walk the rest of the product."""
        self.collapsed.extend(self._discoveries)

    def left_of(self, key: int) -> str:
        return self.left.states[key % len(self.left.states)]


def _walk(n: int, groups: list[list[ArcGroup]], parents: dict, roots: tuple[int, ...]) -> Iterator[int]:
    """The breadth-first search of :class:`ProductSearch`: fills
    ``parents`` in discovery order and yields each collapsed key as it
    is discovered."""
    for key in roots:
        if key < n:
            yield key
    order = list(roots)
    for key in order:  # order grows while it is walked
        estimate, state = divmod(key, n)
        for pair, row, targets in groups[state]:
            # Row entry 0 is 0, so the collapsed estimate stays collapsed.
            base = (estimate if row is None else row[estimate]) * n
            for target in targets:
                dst = base + target
                if dst not in parents:
                    parents[dst] = (key, pair)
                    order.append(dst)
                    if dst < n:
                        yield dst


def search_product(
    left: Automaton, roots: Iterable[str], initial: int, steps: Mapping[str, list[int]]
) -> ProductSearch:
    """Breadth-first search of the product of ``left``, started at its
    states ``roots``, with an observer given by its initial estimate
    number (0 for none) and a step row per observable event of ``left``
    (see :class:`ObserverSearch`).
    Nothing is walked until asked.

    The arcs of each left state are grouped by event once, so a product
    state looks up the observer's step once per event, not once per arc.
    """
    names = left.states
    index = {x: i for i, x in enumerate(names)}
    groups: list[list[ArcGroup]] = [[] for _ in names]
    # left.transitions is sorted by (source, event, target), so each
    # group's targets and each state's groups come out in arc order.
    for (state, event), arcs_of_event in groupby(left.transitions, key=itemgetter(0, 1)):
        targets = tuple([index[t] for _, _, t in arcs_of_event])
        if event in left.observable:
            group = ((event, event), steps[event], targets)
        else:
            group = ((event, None), None, targets)
        groups[index[state]].append(group)
    keys = tuple(initial * len(names) + index[x] for x in sorted(roots))
    parents: dict[int, "tuple[int, EventPair] | None"] = dict.fromkeys(keys)
    return ProductSearch(left, groups, keys, parents, [], _walk(len(names), groups, parents, keys))


def build_cc(left: Automaton, obs: ObserverAutomaton) -> CCAutomaton:
    """Synchronized product of ``left`` with an observer.

    Observable events move both sides; the estimate goes to the successor
    subset where the observer is defined and collapses to the empty
    estimate otherwise (including events outside the observer's
    alphabet).  Silent events move only the left side.  The empty
    estimate is absorbing.  Only reachable product states are kept.
    This renders :func:`search_product`, run on ``obs``'s steps with its
    subsets numbered in ``parents`` order and walked to the end.
    """
    labels = (None, *obs.parents)
    numbers = {subset: number for number, subset in enumerate(labels)}
    steps = {event: [0] * len(labels) for event in {*obs.alphabet, *left.observable}}
    for (subset, event), successor in obs.transitions.items():
        steps[event][numbers[subset]] = numbers[successor]
    search = search_product(left, left.initial_states, numbers[obs.initial], steps)
    search.drain()
    names = left.states
    n = len(names)
    # obs.states is sorted, so its order ranks the estimates; None goes first.
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
