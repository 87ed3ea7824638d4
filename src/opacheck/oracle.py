"""Independent deciders for the five opacity properties.

These work straight from the definitions and share no code with the
observer/product constructions: each property is decided by a
breadth-first search over pairs of subset estimates indexed by the
observation seen so far.

* ``reach`` tracks every state reachable by some run of the system with
  the current observation (restricted to the relevant initial states).
* the explanation estimate tracks the states reachable by a matching
  run of the kind the property demands: one avoiding secret states
  entirely for the strong properties, or any run from a non-secret
  initial state for the standard initial-state property.

An empty explanation estimate is permanent (once an observation has no
matching run, no extension of it has one), so a property fails exactly
when a pair with nonempty ``reach`` (plus the property's extra shape on
``reach``) and empty explanation is reachable.  The pair space is
finite, so the search is exact, not bounded.

Adjacency is rebuilt here from the raw transition relation on purpose,
and witness replay checks each run step against it too: a bug in the
shared model indexes cannot hide in both code paths.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .model import Automaton

from .verifiers import CSO, INF_SSO, ISO, SCSO, SISO, Witness


class MalformedWitness(ValueError):
    """The witness is structurally broken (its run does not replay)."""


def _adjacency(g: Automaton) -> dict[str, list[tuple[str, str]]]:
    by_src: dict[str, list[tuple[str, str]]] = {}
    for src, event, dst in g.transitions:
        by_src.setdefault(src, []).append((event, dst))
    return by_src


def _closure(
    adj: dict[str, list[tuple[str, str]]],
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
    adj: dict[str, list[tuple[str, str]]],
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


def _pair_search(g, reach0, expl0, expl_allowed, violates) -> bool:
    """True when some reachable (reach, explanation) pair violates."""
    adj = _adjacency(g)
    silent = g.unobservable
    everything = g._state_set
    if violates(reach0, expl0):
        return True
    seen = {(reach0, expl0)}
    queue = deque([(reach0, expl0)])
    observable = tuple(sorted(g.observable))
    while queue:
        reach, expl = queue.popleft()
        for event in observable:
            reach2 = _step(adj, silent, reach, event, everything)
            if not reach2:
                continue  # no run produces this observation at all
            expl2 = _step(adj, silent, expl, event, expl_allowed)
            pair = (reach2, expl2)
            if pair in seen:
                continue
            if violates(reach2, expl2):
                return True
            seen.add(pair)
            queue.append(pair)
    return False


def oracle_scso(g: Automaton) -> bool:
    """Exact decision of strong current-state opacity."""
    adj = _adjacency(g)
    silent = g.unobservable
    non_secret = g._state_set - g.secret_states
    reach0 = _closure(adj, silent, g.initial_states, g._state_set)
    safe0 = _closure(adj, silent, g.non_secret_initials, non_secret)
    return not _pair_search(
        g, reach0, safe0, non_secret, lambda reach, safe: bool(reach & g.secret_states) and not safe
    )


def oracle_siso(g: Automaton) -> bool:
    """Exact decision of strong initial-state opacity."""
    adj = _adjacency(g)
    silent = g.unobservable
    non_secret = g._state_set - g.secret_states
    reach0 = _closure(adj, silent, g.initial_states & g.secret_states, g._state_set)
    safe0 = _closure(adj, silent, g.non_secret_initials, non_secret)
    return not _pair_search(
        g, reach0, safe0, non_secret, lambda reach, safe: bool(reach) and not safe
    )


def oracle_inf_sso(g: Automaton) -> bool:
    """Exact decision of strong infinite-step opacity: every observation
    of the system must have a fully non-secret explanation."""
    adj = _adjacency(g)
    silent = g.unobservable
    non_secret = g._state_set - g.secret_states
    reach0 = _closure(adj, silent, g.initial_states, g._state_set)
    safe0 = _closure(adj, silent, g.non_secret_initials, non_secret)
    return not _pair_search(
        g, reach0, safe0, non_secret, lambda reach, safe: bool(reach) and not safe
    )


def oracle_cso(g: Automaton) -> bool:
    """Exact decision of standard current-state opacity: no reachable
    estimate may sit entirely inside the secret set."""
    adj = _adjacency(g)
    silent = g.unobservable
    everything = g._state_set
    reach = _closure(adj, silent, g.initial_states, everything)
    seen = {reach}
    queue = deque([reach])
    observable = tuple(sorted(g.observable))
    while queue:
        estimate = queue.popleft()
        if estimate <= g.secret_states:
            return False
        for event in observable:
            nxt = _step(adj, silent, estimate, event, everything)
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def oracle_iso(g: Automaton) -> bool:
    """Exact decision of standard initial-state opacity: the explanation
    side may use any run from a non-secret initial state."""
    adj = _adjacency(g)
    silent = g.unobservable
    everything = g._state_set
    reach0 = _closure(adj, silent, g.initial_states & g.secret_states, everything)
    companion0 = _closure(adj, silent, g.non_secret_initials, everything)
    return not _pair_search(
        g, reach0, companion0, everything, lambda reach, companion: bool(reach) and not companion
    )


def _fold_estimates(
    g: Automaton, adj: dict[str, list[tuple[str, str]]], observation
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(reach, safe, companion) after the full observation, from the full
    initial set / non-secret initials respectively; ``adj`` is
    :func:`_adjacency` of ``g``."""
    silent = g.unobservable
    everything = g._state_set
    non_secret = everything - g.secret_states
    reach = _closure(adj, silent, g.initial_states, everything)
    safe = _closure(adj, silent, g.non_secret_initials, non_secret)
    companion = _closure(adj, silent, g.non_secret_initials, everything)
    for event in observation:
        reach = _step(adj, silent, reach, event, everything)
        safe = _step(adj, silent, safe, event, non_secret)
        companion = _step(adj, silent, companion, event, everything)
    return reach, safe, companion


def replay_witness(g: Automaton, witness: Witness, prop: str) -> bool:
    """Re-check a verifier witness against the definitions.

    Raises :class:`MalformedWitness` when the witness is structurally
    broken (run does not replay, fields disagree); returns False when the
    run replays but does not actually violate the property; True when it
    is a genuine violation.
    """
    if prop not in (CSO, ISO, SCSO, SISO, INF_SSO):
        raise ValueError(f"unknown property: {prop!r}")

    run = witness.run
    if run.events != witness.event_sequence:
        raise MalformedWitness("run events disagree with the witness event sequence")
    for event in witness.event_sequence:
        if event not in g._event_set:
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

    # Violation shape.
    if prop in (SCSO, CSO) and run.end not in g.secret_states:
        return False
    if prop in (SISO, ISO) and run.start not in g.secret_states:
        return False

    reach, safe, companion = _fold_estimates(g, adj, witness.observation)
    if prop == CSO:
        return bool(reach) and reach <= g.secret_states
    if prop == ISO:
        return not companion
    return not safe
