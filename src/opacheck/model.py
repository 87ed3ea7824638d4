"""Core automaton model: nondeterministic finite automata with a
partially observable alphabet and a set of secret states.

It holds the :class:`Automaton` with its closure tables
(:class:`ClosedImages`), the :class:`Run` a witness carries, and
:func:`validate`.  States and events are opaque strings ordered
lexicographically; every operation iterates in that order so results
are reproducible.  Automaton and Run values are immutable.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

Transition = tuple[str, str, str]


class ValidationError(ValueError):
    """An automaton description is inconsistent and cannot be used.

    ``line`` is the offending line of the file it came from, or None.
    """

    def __init__(self, message: str, line: "int | None" = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class AutomatonWarning(UserWarning):
    """Base class for non-fatal findings during validation."""


class PrunedStatesWarning(AutomatonWarning):
    """Some declared states were unreachable and have been dropped."""

    def __init__(self, pruned: tuple[str, ...]):
        super().__init__("pruned unreachable states: " + ", ".join(pruned))
        self.pruned = pruned


class AllStatesSecretWarning(AutomatonWarning):
    """Every state is secret, so no non-secret behaviour exists at all."""

    def __init__(self) -> None:
        super().__init__("every state is secret; nothing can be kept deniable")


class ClosedImages(NamedTuple):
    """An automaton's states as bit masks, bit i standing for ``states[i]``.

    * ``closures`` maps each state to its silent closure;
    * ``packed[i]`` holds, for each observable event, the closure of the
      event's targets from state i (its closed image): event k of the
      sorted observable alphabet at bits ``k*n`` to ``k*n + n - 1``, n
      being the number of states;
    * ``degree[i]`` counts the transitions leaving state i;
    * ``secret`` is the mask of the secret states.

    Closure distributes over union, so the closed image of a set of
    states on every event at once is the OR of its members' packed rows.
    """

    closures: dict[str, int]
    packed: list[int]
    degree: list[int]
    secret: int

    def closure(self, states: Iterable[str]) -> int:
        """The silent closure of ``states``, as a mask."""
        mask = 0
        for x in states:
            mask |= self.closures[x]
        return mask


@dataclass(frozen=True)
class Automaton:
    """A finite automaton with set-valued transitions.

    ``observable`` is the subset of ``events`` an external observer can
    see; the remaining events are silent.  ``secret_states`` marks the
    states whose visits the system wants to keep deniable.
    ``transitions`` is sorted and free of repeats (:meth:`build` makes it
    so); the product search groups it in that order instead of sorting.
    """

    states: tuple[str, ...]
    events: tuple[str, ...]
    observable: frozenset[str]
    transitions: tuple[Transition, ...]
    initial_states: frozenset[str]
    secret_states: frozenset[str]

    @classmethod
    def build(
        cls,
        states: Iterable[str],
        events: Iterable[str],
        observable: Iterable[str],
        transitions: Iterable[Transition],
        initial_states: Iterable[str],
        secret_states: Iterable[str],
    ) -> "Automaton":
        """Construct with canonical (sorted, deduplicated) field values.

        No semantic checks are performed; use :func:`validate` for
        untrusted descriptions.
        """
        return cls(
            states=tuple(sorted(set(states))),
            events=tuple(sorted(set(events))),
            observable=frozenset(observable),
            transitions=tuple(sorted({(s, e, t) for (s, e, t) in transitions})),
            initial_states=frozenset(initial_states),
            secret_states=frozenset(secret_states),
        )

    @cached_property
    def _core(self) -> "Automaton":
        """The non-secret core: this automaton with every arc into or out of
        a secret state dropped, started at the non-secret initial states.
        It keeps the states, events and secret states, so its bits and
        observable alphabet are this automaton's, and its arcs are a
        sorted subsequence of this automaton's."""
        secret = self.secret_states
        kept = [arc for arc in self.transitions if arc[0] not in secret and arc[2] not in secret]
        return replace(self, transitions=tuple(kept), initial_states=self.initial_states - secret)

    @cached_property
    def _closed_images(self) -> "ClosedImages":
        """The tables of the bit-mask searches (see :class:`ClosedImages`),
        built in one pass over the arcs once the silent closures are known."""
        n = len(self.states)
        index = {x: i for i, x in enumerate(self.states)}
        closures = {x: 1 << i for x, i in index.items()}
        secret = 0
        for x in self.secret_states:
            secret |= 1 << index[x]
        silent = [(s, t) for s, e, t in self.transitions if e not in self.observable]
        changed = bool(silent)
        while changed:  # until no closure grows
            changed = False
            for src, dst in silent:
                if closures[dst] & ~closures[src]:
                    closures[src] |= closures[dst]
                    changed = True
        shift = {event: k * n for k, event in enumerate(sorted(self.observable))}
        packed = [0] * n
        degree = [0] * n
        for src, event, dst in self.transitions:
            i = index[src]
            degree[i] += 1
            if event in shift:
                packed[i] |= closures[dst] << shift[event]
        return ClosedImages(closures, packed, degree, secret)


@dataclass(frozen=True)
class Run:
    """A path through an automaton: a start state and (event, state) steps."""

    start: str
    steps: tuple[tuple[str, str], ...] = ()

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(event for event, _ in self.steps)

    @property
    def end(self) -> str:
        return self.steps[-1][1] if self.steps else self.start


def check_description(states, events, transitions, initial, secret, *, lines=None) -> None:
    """Apply the rules every automaton description must satisfy.

    ``events`` are (name, observable) pairs.  Names must be nonempty
    printable strings, without whitespace or ``#``, so that every name
    reads back from a file as itself.  No state, event, transition, initial
    or secret entry may repeat, and every referenced state and event must
    be declared; a name that cannot be hashed is declared nowhere.  Rules
    are decided with sets, and only a broken description is scanned in
    order: its first broken entry raises :class:`ValidationError`, with
    the entry's line when a file gives each group's ``lines``.
    """
    event_names = [name for name, _ in events]
    groups = (states, event_names, transitions, initial, secret)
    sources, labels, targets = zip(*transitions) if transitions else ((), (), ())
    with suppress(TypeError):  # a name that cannot be hashed, found below
        declared, references = set(states), [*sources, *targets, *initial, *secret]
        if _well_named(states) and _well_named(event_names) and all(len(set(g)) == len(g) for g in groups):
            if declared.issuperset(references) and set(event_names).issuperset(labels):
                return
    at = lines or [[None] * len(group) for group in groups]
    rule = "must be nonempty and printable, without whitespace or '#'"
    for index, kind in enumerate(("state", "event")):
        for name, line in zip(groups[index], at[index]):
            if not _well_named((name,)):
                raise ValidationError(f"bad {kind} name {name!r}: {rule}", line)
    for index, kind in enumerate(("state", "event", "transition", "init entry", "secret entry")):
        seen: set = set()
        for entry, line in zip(groups[index], at[index]):
            if _key(entry) in seen:
                raise ValidationError(f"duplicate {kind} {entry!r}", line)
            seen.add(_key(entry))
    declared, declared_events = set(states), set(event_names)
    for (src, event, dst), line in zip(transitions, at[2]):
        for name in (src, dst):
            if _key(name) not in declared:
                raise ValidationError(f"unknown state {name!r}", line)
        if _key(event) not in declared_events:
            raise ValidationError(f"unknown event {event!r}", line)
    for name, line in zip((*initial, *secret), (*at[3], *at[4])):
        if _key(name) not in declared:
            raise ValidationError(f"unknown state {name!r}", line)


def _well_named(names: Sequence) -> bool:
    """Whether all names are nonempty and printable, without space or ``#``:
    '#' starts a comment, and isprintable() rejects line ends and other whitespace."""
    try:
        joined = "".join(names)
    except TypeError:  # a name that is not a string
        return False
    return all(names) and joined.isprintable() and " " not in joined and "#" not in joined


def _key(entry):
    """``entry``, or a new object if it cannot be hashed: it repeats nothing."""
    try:
        hash(entry)
    except TypeError:
        return object()
    return entry


def validate(
    states: Iterable[str],
    events: Iterable[tuple[str, bool]],
    transitions: Iterable[Transition],
    initial_states: Iterable[str],
    secret_states: Iterable[str] = (),
) -> Automaton:
    """Check a raw automaton description and return a usable Automaton.

    ``events`` are (name, observable) pairs, so the observable/silent
    split is a partition by construction.  Transitions may be any
    3-element sequences and flags any truth values; names are taken as
    given, never converted.  States unreachable from the initial states
    are pruned with a :class:`PrunedStatesWarning`; an automaton whose
    states are all secret is accepted with an
    :class:`AllStatesSecretWarning`.

    Raises :class:`ValidationError` for a group that is not iterable or
    a group of states given as one string, a transition that is not a
    triple or an event that is not a pair, for anything
    :func:`check_description` rejects, and for an empty state set
    (possibly after pruning).
    """
    return _assemble(*_checked(states, events, transitions, initial_states, secret_states))


def _checked(states, events, transitions, initial, secret) -> tuple[tuple, ...]:
    """The five groups in one shape (transitions as tuples, event flags
    as bools, names as given), after :func:`check_description` passed them."""
    kinds = ("states", "events", "transitions", "initial states", "secret states")
    for group, kind in zip((states, events, transitions, initial, secret), kinds):
        try:
            iter(group)
        except TypeError:  # not iterable
            message = f"bad {kind} {group!r}: must be a collection, not {type(group).__name__}"
            raise ValidationError(message) from None
    for group, kind in ((states, "states"), (initial, "initial states"), (secret, "secret states")):
        if isinstance(group, str):  # it would split into one-character names
            raise ValidationError(f"bad {kind} {group!r}: must be a collection of names, not a string")
    groups = (
        tuple(states),
        tuple((name, bool(flag)) for name, flag in _sized(events, 2, "event", "a (name, flag) pair")),
        _sized(transitions, 3, "transition", "a (source, event, target) triple"),
        tuple(initial),
        tuple(secret),
    )
    check_description(*groups)
    return groups


def _sized(entries: Iterable, size: int, kind: str, shape: str) -> tuple[tuple, ...]:
    """``entries`` as tuples of ``size`` items each; a string is one
    malformed entry, not a sequence of names."""
    entries = tuple(entries)
    if {tuple} >= set(map(type, entries)) and {size} >= set(map(len, entries)):
        return entries  # already tuples of the right size: passed through
    sized = []
    for entry in entries:
        try:
            items = tuple(entry)
        except TypeError:  # not iterable
            items = ()
        if len(items) != size or isinstance(entry, str):
            raise ValidationError(f"bad {kind} {entry!r}: must be {shape}")
        sized.append(items)
    return tuple(sized)


def _assemble(states, events, transitions, initial, secret) -> Automaton:
    """Build the automaton of a checked description, pruning and warning
    as :func:`validate` says.  The warnings point at the caller of the
    function that called this one."""
    reachable = _reach(initial, transitions)
    pruned = tuple(sorted(set(states) - reachable))
    if pruned:
        warnings.warn(PrunedStatesWarning(pruned), stacklevel=3)
        # A transition out of a reachable state also ends in one.
        transitions = [t for t in transitions if t[0] in reachable]
    if not reachable:
        raise ValidationError("empty state set: no state is reachable from the initial states")
    if reachable <= set(secret):
        warnings.warn(AllStatesSecretWarning(), stacklevel=3)

    return Automaton.build(
        states=reachable,
        events=(name for name, _ in events),
        observable={name for name, is_obs in events if is_obs},
        transitions=transitions,
        initial_states=initial,
        secret_states=reachable.intersection(secret),
    )


def _reach(sources: Iterable[str], transitions: Iterable[Transition]) -> set[str]:
    """``sources`` and every state reachable from them along ``transitions``."""
    targets: dict[str, list[str]] = {}
    for src, _, dst in transitions:
        targets.setdefault(src, []).append(dst)
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for dst in targets.get(frontier.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen
