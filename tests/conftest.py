import pathlib
import random
import re
import warnings
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import pytest

from opacheck import Run, load, validate
from opacheck.constructions import Graph, cc_label, pair_label, search_observer, subset_label
from opacheck.generate import fuzz_automaton, random_automaton
from opacheck.model import AutomatonWarning

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_NAMES = (
    "cso_but_not_scso",
    "iso_but_not_siso",
    "scso_positive",
    "siso_but_not_scso",
    "siso_negative",
    "no_secrets",
)

# Recorded ground truth for every fixture; the suite asserts both the
# verifiers and the oracles reproduce these verdicts exactly.
EXPECTED_VERDICTS = {
    "cso_but_not_scso": {"CSO": True, "ISO": True, "SCSO": False, "SISO": True, "INF_SSO": False},
    "iso_but_not_siso": {"CSO": True, "ISO": True, "SCSO": True, "SISO": False, "INF_SSO": False},
    "scso_positive": {"CSO": True, "ISO": True, "SCSO": True, "SISO": True, "INF_SSO": True},
    "siso_but_not_scso": {"CSO": False, "ISO": True, "SCSO": False, "SISO": True, "INF_SSO": False},
    "siso_negative": {"CSO": True, "ISO": False, "SCSO": True, "SISO": False, "INF_SSO": False},
    "no_secrets": {"CSO": True, "ISO": True, "SCSO": True, "SISO": True, "INF_SSO": True},
}


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURE_DIR / f"{name}.aut"


def load_fixture(name: str):
    return load(fixture_path(name)).to_automaton()


@pytest.fixture(scope="session")
def cso_not_scso():
    return load_fixture("cso_but_not_scso")


@pytest.fixture(scope="session")
def iso_not_siso():
    return load_fixture("iso_but_not_siso")


@pytest.fixture(scope="session")
def scso_pos():
    return load_fixture("scso_positive")


@pytest.fixture(scope="session")
def siso_not_scso():
    return load_fixture("siso_but_not_scso")


@pytest.fixture(scope="session")
def siso_neg():
    return load_fixture("siso_negative")


@pytest.fixture(scope="session")
def secret_free():
    return load_fixture("no_secrets")


# --- instance families ----------------------------------------------------


def random_instances(n, max_states=6):
    return [fuzz_automaton(base_seed=23, index=i, max_states=max_states) for i in range(n)]


def larger_instances():
    """24 random automata of 20-30 states, mostly silent events."""
    return [
        random_automaton(seed=seed, n_states=20 + seed % 11, n_events=4, obs_ratio=0.3)
        for seed in range(24)
    ]


def wide_automaton(rng, n_states, n_observable, mixed_initial):
    """A random automaton of 4 events, ``n_observable`` of them chosen to
    be observable, with secret ratio 0.3 and density 2.0.  With
    ``mixed_initial`` it has exactly one secret initial state and one or
    two non-secret ones, where the generator alone often leaves no
    secret initial state and so an empty ISO/SISO product."""
    while True:
        base = random_automaton(rng=rng, n_states=n_states, n_events=4, secret_ratio=0.3, density=2.0)
        secret = sorted(base.secret_states)
        plain = sorted(set(base.states) - base.secret_states)
        if not mixed_initial or (secret and plain):
            break
    initial = base.initial_states
    if mixed_initial:
        initial = [rng.choice(secret)] + rng.sample(plain, min(len(plain), rng.randint(1, 2)))
    observable = set(rng.sample(base.events, n_observable))
    events = [(e, e in observable) for e in base.events]
    with warnings.catch_warnings():  # new initial states may leave some unreachable
        warnings.simplefilter("ignore", AutomatonWarning)
        return validate(base.states, events, base.transitions, initial, base.secret_states)


def wide_instances():
    """100 labelled automata of 60-160 states and 1-3 observable events,
    every other one with mixed initial states: 60 of 60-100 states, then
    40 of 100-160."""
    rng = random.Random(11)
    for lo, hi, count in ((60, 100, 60), (100, 160, 40)):
        for i in range(count):
            aut = wide_automaton(rng, rng.randint(lo, hi), rng.randint(1, 3), mixed_initial=bool(i % 2))
            yield f"wide {lo}-{hi} index={i}", aut


def chain_instances():
    """70-state chains (estimates wider than 64 bits), with and without
    secrets and a secret initial state."""
    for backwards in (False, True):
        names, transitions, events = chain(70, lambda i: "a" if i % 8 == 7 else "u")
        if backwards:
            transitions = [(t, e, s) for s, e, t in transitions]
        start = names[-1] if backwards else names[0]
        for secret, initial in (((), [start]), (names[5::10], [start, names[35]])):
            yield validate(names, events, transitions, initial, secret)


def kth_from_end(k):
    """States q0..qk, ``a`` and ``b`` observable and qk secret, reached
    exactly when the k-th observed event from the end is ``a``: q0 loops
    on both events and goes to q1 on ``a``, and each qi goes to qi+1 on
    both.  Its observer has 2^k estimates, one per word of the last k
    observed events."""
    names = [f"q{i}" for i in range(k + 1)]
    transitions = [("q0", "a", "q0"), ("q0", "b", "q0"), ("q0", "a", "q1")]
    transitions += [(names[i], e, names[i + 1]) for i in range(1, k) for e in "ab"]
    return validate(names, [("a", True), ("b", True)], transitions, ["q0"], [names[k]])


def chain(length, event_of):
    """States c00, c01, ... in a line; step i is labelled ``event_of(i)``.
    ``u`` is silent, every other event observable."""
    names = [f"c{i:02d}" for i in range(length)]
    transitions = [(names[i], event_of(i), names[i + 1]) for i in range(length - 1)]
    events = sorted({e for _, e, _ in transitions})
    return names, transitions, [(e, e != "u") for e in events]


# --- brute-force runs ---------------------------------------------------------
#
# Runs, their observations and their steps, read straight off the
# transition list.  The library decides on bit-mask tables and never
# enumerates runs; these are the slow reference the tests compare with.

# Keyed by id, because hashing an automaton costs more than a lookup
# saves; each entry holds its automaton, so no other one reuses the id.
_OUTGOING = {}  # id(aut) -> (aut, {state: ((event, target), ...)})


def outgoing(aut, state):
    """All (event, target) pairs leaving ``state``, sorted."""
    entry = _OUTGOING.get(id(aut))
    if entry is None:
        by_src = {}
        for src, event, dst in aut.transitions:
            by_src.setdefault(src, []).append((event, dst))
        entry = _OUTGOING[id(aut)] = (aut, {x: tuple(pairs) for x, pairs in by_src.items()})
    return entry[1].get(state, ())


def successors(aut, state, event):
    """Targets of ``event``-labelled transitions from ``state``, sorted."""
    return tuple(dst for label, dst in outgoing(aut, state) if label == event)


def visited(run):
    """All states touched by ``run``, in order, including the start."""
    return (run.start,) + tuple(state for _, state in run.steps)


def is_valid(run, aut):
    """True when every step of ``run`` follows a declared transition of ``aut``."""
    if run.start not in aut.states:
        return False
    here = run.start
    for event, state in run.steps:
        if state not in successors(aut, here, event):
            return False
        here = state
    return True


def is_non_secret(run, aut):
    """True when no state ``run`` visits (including the start) is secret."""
    return all(state not in aut.secret_states for state in visited(run))


def project(aut, seq):
    """Erase silent events from ``seq``, preserving order."""
    for event in seq:
        if event not in aut.events:
            raise ValueError(f"unknown event: {event!r}")
    return tuple(event for event in seq if event in aut.observable)


def enumerate_runs(aut, max_len):
    """Yield every run of length at most ``max_len`` from the initial states.

    Order is deterministic: by length, then lexicographically by event
    sequence, breaking ties by start state and visited states.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    level = [Run(state) for state in sorted(aut.initial_states)]
    yield from level
    for _ in range(max_len):
        nxt = []
        for run in level:
            for event, target in outgoing(aut, run.end):
                nxt.append(Run(run.start, run.steps + ((event, target),)))
        if not nxt:
            return
        nxt.sort(key=lambda run: (run.events, run.start, visited(run)))
        yield from nxt
        level = nxt


# --- reference constructions ---------------------------------------------
#
# The observer and the product as first written: a silent-closure search
# for every (subset, event) step, and an observer lookup for every arc,
# each in a record of its own.  The searches must match them: labelled,
# as the Graphs that export writes, and in their breadth-first trees.


class CCState(NamedTuple):
    """Product state: a system state and the current observer estimate.

    ``right`` is None once no run of the observer's source automaton can
    explain the observation seen so far; this is distinct from any
    observer state, which is always a nonempty set.
    """

    left: str
    right: "frozenset[str] | None"


def state_label(state):
    """A CCState labelled as export and witnesses label it: ``(x4,{x1,x5})``."""
    return cc_label(state.left, subset_label(state.right or ()))


def offending_label(aut, run, prop):
    """The offending-state label of a witness with ``run`` for ``prop``:
    for CSO the estimate its observation reaches, stepped on the
    estimate observer, otherwise the collapsed product state at its end."""
    if prop != "CSO":
        return state_label(CCState(run.end, None))
    estimates = search_observer(aut)
    number = estimates.initial
    for event in project(aut, run.events):
        number = estimates.steps[event][number]
    return subset_label(estimates.subset(number))


@dataclass(frozen=True)
class ReferenceObserver:
    """An observer over named subsets; ``transitions`` maps (subset,
    event) to the successor subset where it is defined."""

    alphabet: tuple[str, ...]
    initial: "frozenset[str] | None"
    states: tuple[frozenset[str], ...]
    transitions: dict
    parents: dict


@dataclass(frozen=True)
class ReferenceProduct:
    """A product over ``CCState``s; ``arcs`` maps each state to its
    (event pair, target) arcs."""

    event_pairs: tuple
    states: tuple[CCState, ...]
    arcs: dict
    initial_states: tuple[CCState, ...]
    left_secret: frozenset[str]
    parents: dict

    @property
    def transitions(self):
        return tuple((src, pair, dst) for src in self.states for pair, dst in self.arcs[src])


def step(obs, subset, event):
    """An observer's successor subset, or None where it is undefined."""
    return obs.transitions.get((subset, event))


def silent_closure(aut, sources):
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for event, target in outgoing(aut, frontier.pop()):
            if event not in aut.observable and target not in seen:
                seen.add(target)
                frontier.append(target)
    return frozenset(seen)


def reference_observer(src):
    alphabet = tuple(sorted(src.observable))
    initial = silent_closure(src, src.initial_states) or None
    transitions = {}
    parents = {} if initial is None else {initial: None}
    queue = deque(parents)
    while queue:
        subset = queue.popleft()
        for event in alphabet:
            image = set()
            for state in subset:
                image.update(successors(src, state, event))
            if not image:
                continue
            successor = silent_closure(src, image)
            transitions[(subset, event)] = successor
            if successor not in parents:
                parents[successor] = (subset, event)
                queue.append(successor)
    states = tuple(sorted(parents, key=lambda subset: tuple(sorted(subset))))
    return ReferenceObserver(alphabet, initial, states, transitions, parents)


def reference_cc(left, obs):
    initial = tuple(CCState(state, obs.initial) for state in sorted(left.initial_states))
    parents = dict.fromkeys(initial)
    arcs = {}
    queue = deque(initial)
    while queue:
        src = queue.popleft()
        out = []
        for event, target in outgoing(left, src.left):
            if event in left.observable:
                pair = (event, event)
                right = None if src.right is None else step(obs, src.right, event)
            else:
                pair = (event, None)
                right = src.right
            dst = CCState(target, right)
            out.append((pair, dst))
            if dst not in parents:
                parents[dst] = (src, pair)
                queue.append(dst)
        arcs[src] = tuple(out)
    rank = {subset: index for index, subset in enumerate((None, *obs.states))}
    pairs = tuple((event, event if event in left.observable else None) for event in left.events)
    states = tuple(sorted(parents, key=lambda s: (s.left, rank[s.right])))
    return ReferenceProduct(pairs, states, arcs, initial, left.secret_states, parents)


def reference_graph(structure):
    """A reference observer or product labelled as export labels it."""
    if isinstance(structure, ReferenceObserver):
        label = {q: subset_label(q) for q in structure.states}
        return Graph(
            "observer",
            [(label[q], False) for q in structure.states],
            [] if structure.initial is None else [label[structure.initial]],
            [(e, True) for e in structure.alphabet],
            sorted((label[q], e, label[t]) for (q, e), t in structure.transitions.items()),
        )
    label = {s: state_label(s) for s in structure.states}
    pair = {p: pair_label(p[0], p[1] is not None) for p in structure.event_pairs}
    return Graph(
        "product",
        [(label[s], s.left in structure.left_secret) for s in structure.states],
        [label[s] for s in structure.initial_states],
        [(pair[p], p[1] is not None) for p in structure.event_pairs],
        [(label[s], pair[p], label[t]) for s, p, t in structure.transitions],
    )


# --- reading the labelled structures back -------------------------------------
#
# For names without commas or braces, a Graph's labels parse back into
# the states and event pairs they name.


def cc_state(label):
    """``(x4,{x1,x5})`` as CCState("x4", {x1, x5}); ``(x5,{})`` as CCState("x5", None)."""
    left, _, right = label[1:-2].partition(",{")
    return CCState(left, frozenset(right.split(",")) if right else None)


def event_pair(label):
    """``(a,a)`` as ("a", "a"); ``(u,eps)`` as ("u", None)."""
    event, right = label[1:-1].split(",")
    return event, None if right == "eps" else right


def product_arcs(graph):
    """A product Graph's transitions as (CCState, event pair, CCState)."""
    return [(cc_state(s), event_pair(p), cc_state(t)) for s, p, t in graph.transitions]


def graph_step(graph, state, event):
    """The target of the ``event`` arc out of ``state`` in a
    deterministic Graph, or None."""
    return next((t for s, e, t in graph.transitions if (s, e) == (state, event)), None)


def subset_tree(search):
    """An observer search's breadth-first tree over its estimates' subsets."""
    subset = search.subset
    return {
        subset(number): link and (subset(link[0]), link[1])
        for number, link in enumerate(search.parents)
        if number
    }


def product_tree(walk, observer):
    """A whole product walk's breadth-first tree over CCStates and event
    pairs, its estimates numbered as in ``observer``."""
    n = len(walk.left.states)
    state = lambda key: CCState(walk.left_of(key), observer.subset(key // n) or None)
    pair = lambda event: (event, event if event in walk.left.observable else None)
    return {state(key): link and (state(link[0]), pair(link[1])) for key, link in walk.parents.items()}


# --- tiny DOT grammar checker -------------------------------------------
#
# Accepts the subset of the DOT grammar used by the exporter: a digraph
# with node statements, edge statements and bare attribute assignments,
# every identifier either quoted or a plain word.

_TOKEN_RE = re.compile(
    r'"(?:[^"\\]|\\.)*"'  # quoted identifier
    r"|[A-Za-z0-9_.]+"  # bare identifier
    r"|->|[{}\[\];,=]"
)


def _tokenize_dot(text: str) -> list[str]:
    tokens = []
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        if text[pos : match.start()].strip():
            raise AssertionError(f"stray characters in DOT output: {text[pos:match.start()]!r}")
        tokens.append(match.group())
        pos = match.end()
    if text[pos:].strip():
        raise AssertionError(f"stray characters at end of DOT output: {text[pos:]!r}")
    return tokens


def _is_id(token: str) -> bool:
    return bool(token) and (token.startswith('"') or _TOKEN_RE.fullmatch(token))


def assert_valid_dot(text: str) -> None:
    tokens = _tokenize_dot(text)

    def expect(value):
        if not tokens or tokens[0] != value:
            raise AssertionError(f"expected {value!r}, found {tokens[:3]}")
        tokens.pop(0)

    def take_id():
        if not tokens or tokens[0] in ("{", "}", "[", "]", ";", ",", "=", "->"):
            raise AssertionError(f"expected identifier, found {tokens[:3]}")
        return tokens.pop(0)

    def attr_list():
        expect("[")
        while tokens and tokens[0] != "]":
            take_id()
            expect("=")
            take_id()
            if tokens and tokens[0] == ",":
                tokens.pop(0)
        expect("]")

    expect("digraph")
    if tokens and tokens[0] != "{":
        take_id()
    expect("{")
    while tokens and tokens[0] != "}":
        take_id()
        if tokens and tokens[0] == "=":  # graph attribute like rankdir=LR
            tokens.pop(0)
            take_id()
        elif tokens and tokens[0] == "->":
            tokens.pop(0)
            take_id()
            if tokens and tokens[0] == "[":
                attr_list()
        elif tokens and tokens[0] == "[":  # node statement or node defaults
            attr_list()
        expect(";")
    expect("}")
    assert not tokens, f"trailing tokens: {tokens}"
