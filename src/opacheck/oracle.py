"""Independent deciders for the five opacity properties.

These work straight from the definitions and share no code with the
observer/product constructions but the two functions that write labels.
One table, ``_SHAPES``, gives each property as a pair of subset
estimates indexed by the observation seen so far, and when a pair
violates it:

* ``reach`` tracks every state reachable by some run of the system with
  the current observation, started from the initial states the property
  is about (all of them, or the secret ones).
* the explanation estimate tracks the states reachable by a matching
  run of the kind the property demands: one avoiding secret states
  entirely for the strong properties, any run from a non-secret initial
  state for standard initial-state opacity, and any run at all for
  standard current-state opacity.

An empty explanation estimate is permanent (once an observation has no
matching run, no extension of it has one), so a property fails exactly
when a reachable pair violates.  The pair space is finite, so the
breadth-first search over it is exact, not bounded.  Every violation
test is existential in ``reach``: it holds for a set exactly when it
holds for one of its states.  Witness replay therefore folds the
witness's observation through the same start and step and applies the
same test with ``reach`` narrowed to the end of the witness's own run.

Every set read here is derived from the automaton's six fields on
purpose, and replay checks each run step against the rebuilt adjacency:
a bug in the model's cached members cannot hide in both code paths.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, NamedTuple

from .constructions import cc_label, subset_label
from .model import Automaton, Run

from .verifiers import CSO, INF_SSO, ISO, SCSO, SISO, Witness

_States = frozenset[str]
_Adjacency = dict[str, list[tuple[str, str]]]
_Pair = tuple[_States, _States]


class MalformedWitness(ValueError):
    """The witness is structurally broken (its run does not replay)."""


class _Shape(NamedTuple):
    reach_from: str  # reach's initial states: "all", "secret" or "plain" (see _initials)
    explain_from: str  # likewise for the explanation estimate
    avoid_secrets: bool  # explaining runs must not visit a secret state
    violates: Callable[[_States, _States, _States], bool]  # (secret, reach, explanation)


def _all_secret(secret: _States, reach: _States, explanation: _States) -> bool:
    # With no run at all current-state opacity holds vacuously.
    return bool(reach) and explanation <= secret


def _unexplained(secret: _States, reach: _States, explanation: _States) -> bool:
    return bool(reach) and not explanation


def _secret_unexplained(secret: _States, reach: _States, explanation: _States) -> bool:
    return bool(reach & secret) and not explanation


_SHAPES = {
    CSO: _Shape("all", "all", False, _all_secret),
    ISO: _Shape("secret", "plain", False, _unexplained),
    SCSO: _Shape("all", "plain", True, _secret_unexplained),
    SISO: _Shape("secret", "plain", True, _unexplained),
    INF_SSO: _Shape("all", "plain", True, _unexplained),
}


def _initials(g: Automaton, which: str) -> _States:
    secret = g.secret_states if which != "all" else frozenset()
    return g.initial_states & secret if which == "secret" else g.initial_states - secret


def _adjacency(g: Automaton) -> _Adjacency:
    by_src: _Adjacency = {}
    for src, event, dst in g.transitions:
        by_src.setdefault(src, []).append((event, dst))
    return by_src


def _closure(
    adj: _Adjacency,
    silent: frozenset[str],
    seed: Iterable[str],
    allowed: frozenset[str],
) -> frozenset[str]:
    """States reachable from ``seed`` by silent transitions staying in
    ``allowed``; the seed is filtered through ``allowed`` as well."""
    seen = {s for s in seed if s in allowed}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        for event, dst in adj.get(state, ()):
            if event in silent and dst in allowed and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return frozenset(seen)


def _step(
    adj: _Adjacency,
    silent: frozenset[str],
    subset: frozenset[str],
    event: str,
    allowed: frozenset[str],
) -> frozenset[str]:
    """Estimate after observing ``event`` from ``subset``: the event image
    followed by silent closure, both restricted to ``allowed``."""
    image = {
        dst
        for state in subset
        for (label, dst) in adj.get(state, ())
        if label == event and dst in allowed
    }
    return _closure(adj, silent, image, allowed)


def _start_and_step(
    g: Automaton, adj: _Adjacency, shape: _Shape
) -> tuple[_Pair, Callable[[_Pair, str], _Pair]]:
    """The pair of ``shape`` before any observation, and its step."""
    silent = frozenset(g.events) - g.observable
    everything = frozenset(g.states)
    within = everything - g.secret_states if shape.avoid_secrets else everything

    def step(pair: _Pair, event: str) -> _Pair:
        reach, explanation = pair
        after = _step(adj, silent, reach, event, everything)
        # No test holds on an empty reach, so its explanation is not
        # stepped and reads empty.
        if not after or explanation is reach:
            return after, after
        return after, _step(adj, silent, explanation, event, within)

    reach = _closure(adj, silent, _initials(g, shape.reach_from), everything)
    # Started and restricted like reach, the explanation is reach itself
    # (CSO): share the one estimate so that it is stepped once.
    if shape.explain_from == shape.reach_from and within is everything:
        return (reach, reach), step
    return (reach, _closure(adj, silent, _initials(g, shape.explain_from), within)), step


def _fold(g: Automaton, adj: _Adjacency, shape: _Shape, observation: Iterable[str]) -> _Pair:
    """The (reach, explanation) pair of ``shape`` after the full
    observation; ``adj`` is :func:`_adjacency` of ``g``."""
    pair, step = _start_and_step(g, adj, shape)
    for event in observation:
        pair = step(pair, event)
    return pair


def _holds(g: Automaton, prop: str) -> bool:
    """True when no reachable (reach, explanation) pair violates."""
    shape = _SHAPES[prop]
    start, step = _start_and_step(g, _adjacency(g), shape)
    secret = g.secret_states
    if shape.violates(secret, *start):
        return False
    seen = {start}
    queue = deque(seen)
    observable = tuple(sorted(g.observable))
    while queue:
        pair = queue.popleft()
        for event in observable:
            nxt = step(pair, event)
            # An empty reach means no run produces this observation at all.
            if nxt[0] and nxt not in seen:
                if shape.violates(secret, *nxt):
                    return False
                seen.add(nxt)
                queue.append(nxt)
    return True


def oracle_cso(g: Automaton) -> bool:
    """Exact decision of standard current-state opacity: no reachable
    estimate may sit entirely inside the secret set."""
    return _holds(g, CSO)


def oracle_iso(g: Automaton) -> bool:
    """Exact decision of standard initial-state opacity: the explanation
    side may use any run from a non-secret initial state."""
    return _holds(g, ISO)


def oracle_scso(g: Automaton) -> bool:
    """Exact decision of strong current-state opacity."""
    return _holds(g, SCSO)


def oracle_siso(g: Automaton) -> bool:
    """Exact decision of strong initial-state opacity."""
    return _holds(g, SISO)


def oracle_inf_sso(g: Automaton) -> bool:
    """Exact decision of strong infinite-step opacity: every observation
    of the system must have a fully non-secret explanation."""
    return _holds(g, INF_SSO)


def replay_witness(g: Automaton, witness: Witness, prop: str) -> bool:
    """Re-check a verifier witness against the definitions.

    Raises :class:`MalformedWitness` when the witness is broken (it is
    not a :class:`Witness`, its run is not a :class:`Run` or does not
    replay, fields disagree, or the offending state is not labelled as
    the state the run reaches); returns False when the run replays but
    does not violate the property; True when it is a genuine violation.
    """
    if prop not in _SHAPES:
        raise ValueError(f"unknown property: {prop!r}")

    if not isinstance(witness, Witness):
        raise MalformedWitness(f"a witness is a Witness, not {type(witness).__name__}")
    run = witness.run if isinstance(witness.run, Run) else Run(None)  # no start: malformed
    try:  # a run from outside: steps may not be iterable, or not be pairs
        names = [run.start, *[name for event, state in run.steps for name in (event, state)]]
    except (TypeError, ValueError):
        names = [None]
    if not all(isinstance(name, str) for name in names):
        raise MalformedWitness("a run is a start state and (event, state) steps, all names")
    if run.events != witness.event_sequence:
        raise MalformedWitness("run events disagree with the witness event sequence")
    for event in witness.event_sequence:
        if event not in g.events:
            raise MalformedWitness(f"unknown event {event!r}")
    expected_obs = tuple(e for e in witness.event_sequence if e in g.observable)
    if witness.observation != expected_obs:
        raise MalformedWitness("observation is not the projection of the event sequence")
    if run.start not in g.initial_states:
        raise MalformedWitness("run does not start at an initial state")
    adj = _adjacency(g)
    here = run.start
    for event, state in run.steps:
        if (event, state) not in adj.get(here, ()):
            raise MalformedWitness("run does not replay through the transition relation")
        here = state

    shape = _SHAPES[prop]
    reach, explanation = _fold(g, adj, shape, witness.observation)
    label = subset_label(reach) if prop == CSO else cc_label(run.end, subset_label(()))
    if witness.offending_state != label:
        raise MalformedWitness(f"offending state {witness.offending_state!r} is not {label!r}")
    # The run counts toward reach only when it starts where reach does.
    ends = frozenset({run.end}) if run.start in _initials(g, shape.reach_from) else frozenset()
    return shape.violates(g.secret_states, ends, explanation)
