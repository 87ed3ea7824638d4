"""Derived structures used by the verifiers and by ``export``.

The paper's four constructions, each with its function here:

* ``build_gdss``   -- the non-secret core: the part of the system that a
  run can traverse without ever touching a secret state, started from
  the non-secret initial states.
* ``build_ghat``   -- the secret-start restriction: everything reachable
  from the secret initial states.
* ``search_observer`` -- powerset determinization with silent closure;
  its states are the nonempty sets of states consistent with an
  observation.
* ``count_product`` -- the synchronized product of an automaton with an
  observer: the left side moves like the automaton, the right side
  replays the observation through the observer and collapses to the
  distinguished empty estimate once the observer has no answer.  The
  empty estimate is absorbing.

The two restrictions are automata: immutable, reachable from their
initial states, components sorted.  The observer search and the
product's witness walk run on plain ints, and each keeps its
breadth-first tree as ``parents``: in discovery order, each state maps
to the (state, event) it was first reached from, each initial state to
None.  A shortest path to any state is read off that tree.  The deciders
read sizes from the observer search and the product count, and walk a
product only for a witness, up to its first bad state; a witness labels
just its offending state.  ``subset_label``, ``cc_label`` and
``pair_label`` are the one writer of an estimate's, a product state's and
an event pair's label.  Only ``export`` labels a whole observer or
product: ``observer_graph`` and ``product_graph`` render an observer
search and a product count straight into a :class:`Graph`, in label
order, and ``build_structure`` gives each structure ``export`` names.

* ``search_observer`` keeps each estimate as a bit mask over the
  source's states and numbers the estimates 1, 2, ... in discovery
  order, 0 standing for the collapsed (empty) estimate.  It runs no
  closure search: the source packs, per state, the silent closure of
  each observable event's targets (its closed image) into one int, one
  slice of bits per event.  Closure distributes over union, so one OR of
  the members' packed rows steps an estimate on every event at once.
* ``count_product`` finds a product's states without a search: the pairs
  (x, e) with x in L_e, one mask of left states per estimate e.  The masks
  grow to a fixpoint through the left automaton's packed rows, and both
  the deciders and ``export`` read the product off them.
* ``search_product``, the witness walk, keys the state (left state i,
  estimate e) as the int ``e * n + i``, n being the number of left states,
  so collapsed states are the keys below n.  It groups each left state's
  arcs by event once, so a product state looks up the observer's step
  once per event, not once per arc.  It stops as soon as it discovers a
  collapsed state whose left state is in the mask its caller gives, so a
  stopped walk is a prefix of the whole walk, in the same discovery order.

Both start the product at given left states, so the product of a part of
an automaton that keeps every arc out of its states, such as ``Ĝ``, is
counted and walked on the whole automaton's tables.  The non-secret
core's observer is searched on the automaton's ``_core``, which keeps
all of its states, so the deciders build neither ``G_dss`` nor ``Ĝ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import itemgetter, or_
from typing import Iterable, Mapping, NamedTuple

from .model import Automaton, _reach


def subset_label(subset: Iterable[str]) -> str:
    """Render a state subset as ``{x1,x5}``; the empty estimate as ``{}``."""
    return "{" + ",".join(sorted(subset)) + "}"


def cc_label(left: str, estimate_label: str) -> str:
    """Render the product state of the system state ``left`` and the
    estimate labelled ``estimate_label`` as ``(x4,{x1,x5})``."""
    return f"({left},{estimate_label})"


def pair_label(event: str, observable: bool) -> str:
    """Render the event pair labelling a product transition on ``event``:
    ``(a,a)`` when it is observable, ``(u,eps)`` when it is silent on the
    observer side."""
    return f"({event},{event if observable else 'eps'})"


class Graph(NamedTuple):
    """A structure as a labelled graph, in the structure's own order:
    the form :mod:`~opacheck.fileformat` writes."""

    name: str
    states: list[tuple[str, bool]]  # (label, is_secret)
    initial: list[str]
    events: list[tuple[str, bool]]  # (label, is_observable)
    transitions: list[tuple[str, str, str]]  # (source, label, target)


def _restrict(g: Automaton, initial: frozenset[str]) -> Automaton:
    """The part of ``g`` reachable from ``initial``.

    The alphabet shrinks to the events labelling a surviving transition;
    observability tags are inherited and the surviving secret states stay
    secret.
    """
    seen = _reach(initial, g.transitions)
    # A transition out of a reachable state also ends in one.
    kept = [arc for arc in g.transitions if arc[0] in seen]
    used_events = {e for _, e, _ in kept}
    return Automaton.build(
        states=seen,
        events=used_events,
        observable=g.observable & used_events,
        transitions=kept,
        initial_states=initial,
        secret_states=g.secret_states & seen,
    )


def build_gdss(g: Automaton) -> Automaton:
    """Non-secret core of ``g``.

    Keeps exactly the non-secret states reachable from the non-secret
    initial states along runs that never visit a secret state.  The
    result may be empty.
    """
    return _restrict(g._core, g._core.initial_states)


def build_ghat(g: Automaton) -> Automaton:
    """Secret-start restriction of ``g``.

    Keeps everything reachable from the secret initial states (secret or
    not); empty when there is no secret initial state.
    """
    return _restrict(g, g.initial_states & g.secret_states)


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


def search_observer(src: Automaton, initial_states: "Iterable[str] | None" = None) -> ObserverSearch:
    """Breadth-first search of the observer of ``src``, started at the
    closure of ``initial_states`` (``src``'s own by default).

    No closure is searched per step: ``src`` packs, per state, the silent
    closure of each observable event's targets into one int (see
    :class:`~opacheck.model.ClosedImages`), so one OR over an estimate's
    members steps it on every event, and a shift splits the result.  A
    non-secret core keeps its automaton's whole observable alphabet; its
    steps on an event it never uses are all 0.
    """
    alphabet = tuple(sorted(src.observable))
    tables = src._closed_images
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


class ProductCount(NamedTuple):
    """A product's states and its transition count, found without
    searching it.  ``masks`` maps each estimate e the product reaches to
    the mask L_e of the left states paired with it, bit i standing for
    ``left.states[i]``; ``collapsed`` is L_0 and ``left`` the mask of the
    left states in any product state."""

    transitions: int
    masks: dict[int, int]

    @property
    def collapsed(self) -> int:
        return self.masks.get(0, 0)

    @property
    def left(self) -> int:
        return reduce(or_, self.masks.values(), 0)

    @property
    def size(self) -> tuple[int, int]:
        return sum(map(int.bit_count, self.masks.values())), self.transitions


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
    transitions = 0
    while pending:  # a pending mask holds only left states not yet in its L_e
        estimate, fresh = pending.popitem()
        reached[estimate] = reached.get(estimate, 0) | fresh
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
    return ProductCount(transitions, reached)


class ProductSearch(NamedTuple):
    """The product's witness walk: its breadth-first search, on int keys,
    walked until it stopped (see :func:`search_product`).

    The state (left state i, estimate number e) has key ``e * n + i``,
    where n is the number of left states, so the collapsed states are
    exactly the keys below n.  ``parents`` maps each key discovered, in
    discovery order, to the (key, event) it was first reached from,
    and each initial key to None.  ``collapsed`` lists the collapsed keys
    discovered, in discovery order.
    """

    left: Automaton
    parents: dict[int, "tuple[int, str] | None"]
    collapsed: list[int]

    def first_collapsed(self, within: int) -> "int | None":
        """The first collapsed key discovered whose left state is in the
        mask ``within``, or None."""
        return next((key for key in self.collapsed if within >> key & 1), None)

    def left_of(self, key: int) -> str:
        return self.left.states[key % len(self.left.states)]


def search_product(
    left: Automaton, roots: Iterable[str], initial: int, steps: Mapping[str, list[int]], stop: int = 0
) -> ProductSearch:
    """Breadth-first search of the product of ``left``, started at its
    states ``roots``, with an observer given by its initial estimate
    number (0 for none) and a step row per observable event of ``left``
    (see :class:`ObserverSearch`), walked until it discovers a collapsed
    key whose left state is in the mask ``stop`` (a root counts as
    discovered): with 0, the whole product.  A stopped walk is a prefix
    of the whole walk.

    The arcs of each left state are grouped by event once, so a product
    state looks up the observer's step once per event, not once per arc.
    """
    names = left.states
    n = len(names)
    index = {x: i for i, x in enumerate(names)}
    # Per left state: (event, the observer's step row or None when silent, target indexes).
    groups: list[list[tuple[str, "list[int] | None", tuple[int, ...]]]] = [[] for _ in names]
    # left.transitions is sorted by (source, event, target), so each
    # group's targets and each state's groups come out in arc order.
    for (state, event), arcs_of_event in groupby(left.transitions, key=itemgetter(0, 1)):
        targets = tuple([index[t] for _, _, t in arcs_of_event])
        row = steps[event] if event in left.observable else None
        groups[index[state]].append((event, row, targets))
    order = [initial * n + index[x] for x in sorted(roots)]
    parents: dict[int, "tuple[int, str] | None"] = dict.fromkeys(order)
    collapsed = [key for key in order if key < n]
    search = ProductSearch(left, parents, collapsed)
    if search.first_collapsed(stop) is not None:
        return search
    for key in order:  # order grows while it is walked
        estimate, state = divmod(key, n)
        for event, row, targets in groups[state]:
            # Row entry 0 is 0, so the collapsed estimate stays collapsed.
            base = (estimate if row is None else row[estimate]) * n
            for target in targets:
                dst = base + target
                if dst not in parents:
                    parents[dst] = (key, event)
                    order.append(dst)
                    if dst < n:
                        collapsed.append(dst)
                        if stop >> dst & 1:
                            return search
    return search


def _estimate_labels(search: ObserverSearch) -> tuple[list[str], list[int]]:
    """Each estimate's label by number (``{}`` for the collapsed one),
    and the numbers in label order: by member names, the collapsed
    estimate first."""
    names = search.source.states
    members = [_bits(mask) for mask in search.masks]
    labels = [subset_label([names[i] for i in bits]) for bits in members]
    # names is sorted, so bit order is name order.
    return labels, sorted(range(len(members)), key=members.__getitem__)


def observer_graph(search: ObserverSearch) -> Graph:
    """The labelled observer of a search: its estimates as subsets in
    label order, and its defined steps sorted by label."""
    labels, order = _estimate_labels(search)
    transitions = [
        (labels[number], event, labels[successor])
        for event, row in search.steps.items()
        for number, successor in enumerate(row)
        if successor  # row[0] is 0: the collapsed estimate has no steps
    ]
    return Graph(
        "observer",
        [(labels[number], False) for number in order[1:]],
        [labels[1]] if search.initial else [],
        [(event, True) for event in search.alphabet],
        sorted(transitions),
    )


def product_graph(left: Automaton, observer: ObserverSearch) -> Graph:
    """The labelled product of ``left`` with an observer search, read off
    the masks :func:`count_product` finds on the search's own steps.

    Observable events move both sides; the estimate goes to the observer's
    successor where it is defined and collapses to the empty estimate
    otherwise.  Silent events move only the left side.  States, named
    ``(x4,{x1,x5})``, are sorted by left state, then by estimate in label
    order; each state's arcs follow ``left``'s transitions.
    """
    masks = count_product(left, left.initial_states, observer.initial, observer.steps).masks
    estimates, order = _estimate_labels(observer)
    names = left.states
    paired: dict[str, list[int]] = {x: [] for x in names}  # each left state's estimates, in label order
    for estimate in order:
        for i in _bits(masks.get(estimate, 0)):
            paired[names[i]].append(estimate)
    label = {(x, e): cc_label(x, estimates[e]) for x, numbers in paired.items() for e in numbers}
    pairs = {event: pair_label(event, event in left.observable) for event in left.events}
    transitions = []
    # left.transitions is sorted by source, so each left state's arcs come out in arc order.
    for x, arcs in groupby(left.transitions, key=itemgetter(0)):
        arcs = [(pairs[e], observer.steps[e] if e in left.observable else None, t) for _, e, t in arcs]
        for estimate in paired[x]:
            source = label[x, estimate]
            for pair, row, target in arcs:
                # Row entry 0 is 0, so the collapsed estimate stays collapsed.
                transitions.append((source, pair, label[target, estimate if row is None else row[estimate]]))
    secret = left.secret_states
    return Graph(
        "product",
        [(text, x in secret) for (x, _), text in label.items()],
        [label[x, observer.initial] for x in sorted(left.initial_states)],
        [(text, event in left.observable) for event, text in pairs.items()],
        transitions,
    )


# The structures ``export --structure`` writes, by the names it takes.
STRUCTURES = ("gdss", "ghat", "observer", "cc", "cc-hat")


def build_structure(g: Automaton, name: str) -> "Automaton | Graph":
    """The structure of ``g`` named ``name``, one of ``STRUCTURES``: the
    automata ``G_dss`` and ``Ĝ``, or a :class:`Graph` of the non-secret
    core's observer or of the product of g (``cc``) or of ``Ĝ``
    (``cc-hat``) with it.  Raises ValueError for any other name before
    anything is searched."""
    if name not in STRUCTURES:
        raise ValueError(f"unknown structure: {name!r}")
    if name == "gdss":
        return build_gdss(g)
    if name == "ghat":
        return build_ghat(g)
    search = search_observer(g._core)
    if name == "observer":
        # G_dss's observable events are exactly those the core steps on.
        used = [(event, True) for event in search.alphabet if any(search.steps[event])]
        return observer_graph(search)._replace(events=used)
    # cc-hat is walked on ghat, whose events and secret states label the product.
    return product_graph(g if name == "cc" else build_ghat(g), search)
