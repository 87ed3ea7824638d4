import warnings
from functools import cached_property

import pytest

from opacheck import Automaton, Run, ValidationError, validate
from opacheck.generate import fuzz_automaton
from opacheck.model import AllStatesSecretWarning, PrunedStatesWarning

from conftest import (
    chain_instances,
    enumerate_runs,
    is_non_secret,
    is_valid,
    larger_instances,
    outgoing,
    project,
    visited,
)


def names(aut, mask):
    """The states of ``aut`` whose bits ``mask`` sets."""
    return frozenset(x for i, x in enumerate(aut.states) if mask >> i & 1)


def silent_reach(aut, src):
    """The silent closure of ``src``, read off the closure tables."""
    return names(aut, aut._closed_images.closure(src))


def naive_tables(aut):
    """The closure tables of ``aut`` by definition: every closure a
    fixpoint grown one silent step at a time, and every closed image the
    closure of the event's targets.  Returns each state's closure, each
    (state, observable event)'s closed image and each state's number of
    outgoing arcs."""
    arcs = aut.transitions
    silent = {x: [] for x in aut.states}
    for src, event, dst in arcs:
        if event not in aut.observable:
            silent[src].append(dst)

    def closure(sources):
        current = frozenset(sources)
        while True:
            grown = current.union(*[silent[x] for x in current])
            if grown == current:
                return current
            current = grown

    closures = {x: closure({x}) for x in aut.states}
    images = {
        (x, event): closure({t for s, e, t in arcs if (s, e) == (x, event)})
        for x in aut.states
        for event in aut.observable
    }
    degree = {x: sum(1 for s, _, _ in arcs if s == x) for x in aut.states}
    return closures, images, degree


def count_runs_recursively(aut, state, budget):
    total = 1
    if budget > 0:
        for _, target in outgoing(aut, state):
            total += count_runs_recursively(aut, target, budget - 1)
    return total


def random_instances(n, max_states=6):
    return [fuzz_automaton(base_seed=7, index=i, max_states=max_states) for i in range(n)]


class TestValidate:
    def test_fixture_file_accepted_unpruned(self, cso_not_scso):
        assert len(cso_not_scso.states) == 7
        assert cso_not_scso.observable == frozenset({"a", "b"})
        assert set(cso_not_scso.events) - cso_not_scso.observable == {"u"}
        assert cso_not_scso.initial_states == frozenset({"x0"})
        assert cso_not_scso.secret_states == frozenset({"x4", "x5"})
        assert cso_not_scso.initial_states - cso_not_scso.secret_states == frozenset({"x0"})

    def test_minimal_single_state(self):
        aut = validate(states=["q"], events=[], transitions=[], initial_states=["q"])
        assert aut.states == ("q",)
        assert aut.events == ()
        assert aut.initial_states - aut.secret_states == frozenset({"q"})

    def test_unreachable_state_pruned_with_warning(self):
        with pytest.warns(PrunedStatesWarning) as caught:
            aut = validate(
                states=["a", "b", "orphan"],
                events=[("go", True)],
                transitions=[("a", "go", "b"), ("orphan", "go", "a")],
                initial_states=["a"],
                secret_states=["orphan"],
            )
        assert caught[0].message.pruned == ("orphan",)
        assert aut.states == ("a", "b")
        assert aut.transitions == (("a", "go", "b"),)
        assert aut.secret_states == frozenset()

    def test_all_secret_accepted_with_warning(self):
        with pytest.warns(AllStatesSecretWarning):
            aut = validate(
                states=["q"], events=[], transitions=[], initial_states=["q"], secret_states=["q"]
            )
        assert aut.secret_states == frozenset({"q"})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(states=[], events=[], transitions=[], initial_states=[]),
            dict(states=["a", "a"], events=[], transitions=[], initial_states=["a"]),
            dict(states=["a"], events=[("e", True), ("e", False)], transitions=[], initial_states=["a"]),
            dict(states=["a"], events=[], transitions=[("a", "e", "a")], initial_states=["a"]),
            dict(states=["a"], events=[("e", True)], transitions=[("a", "e", "b")], initial_states=["a"]),
            dict(states=["a"], events=[], transitions=[], initial_states=["b"]),
            dict(states=["a"], events=[], transitions=[], initial_states=["a"], secret_states=["b"]),
            dict(states=["a", "b"], events=[], transitions=[], initial_states=[]),
            # What a file rejects, validate rejects too.
            dict(
                states=["a"],
                events=[("e", True)],
                transitions=[("a", "e", "a"), ("a", "e", "a")],
                initial_states=["a"],
            ),
            dict(states=["a"], events=[], transitions=[], initial_states=["a", "a"]),
            dict(states=["a b"], events=[], transitions=[], initial_states=["a b"]),
            dict(states=["a#b"], events=[], transitions=[], initial_states=["a#b"]),
            # Names that are not strings break the name rule.
            dict(states=[1], events=[], transitions=[], initial_states=[1]),
            dict(states=["a"], events=[(2, True)], transitions=[], initial_states=["a"]),
            # A transition may be any sequence; its states are still checked.
            dict(states=["a"], events=[("e", True)], transitions=[["a", "e", "b"]], initial_states=["a"]),
            # Transitions that are not triples, events that are not (name, flag) pairs.
            dict(states=["a"], events=[("e", True)], transitions=[("a", "e")], initial_states=["a"]),
            dict(states=["a"], events=[("e", True)], transitions=["aea"], initial_states=["a"]),
            dict(states=["a"], events=[("e", True)], transitions=[7], initial_states=["a"]),
            dict(states=["a"], events=[("e",)], transitions=[], initial_states=["a"]),
            dict(states=["a"], events=["ef"], transitions=[], initial_states=["a"]),
            dict(states=["a"], events=[None], transitions=[], initial_states=["a"]),
            # A group of names given as one string would split into letters.
            dict(states="ab", events=[], transitions=[], initial_states=["a"]),
            dict(states=["a"], events=[], transitions=[], initial_states="a"),
            dict(
                states=["ab", "a", "b"],
                events=[("a", True)],
                transitions=[("a", "a", "b"), ("a", "a", "ab")],
                initial_states=["a"],
                secret_states="ab",
            ),
            # A name that cannot be hashed is an undeclared reference.
            dict(states=["a", "b"], events=[("e", True)], transitions=[(["a"], "e", "b")], initial_states=["a"]),
            dict(states=["a"], events=[("e", True)], transitions=[("a", ["e"], "a")], initial_states=["a"]),
            dict(states=["a"], events=[("e", True)], transitions=[("a", "e", {"a": 1})], initial_states=["a"]),
            dict(states=["a"], events=[], transitions=[], initial_states=[["a"]]),
            dict(states=["a"], events=[], transitions=[], initial_states=["a"], secret_states=[{"a"}]),
            # A group that is not iterable is named, as one given as a string is.
            dict(states=["a"], events=[], transitions=7, initial_states=["a"]),
            dict(states=7, events=[], transitions=[], initial_states=["a"]),
            dict(states=["a"], events=7, transitions=[], initial_states=["a"]),
            dict(states=["a"], events=[], transitions=[], initial_states=5),
            dict(states=["a"], events=[], transitions=[], initial_states=["a"], secret_states=5),
        ],
    )
    def test_rejections(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the no-initials case warns before failing
            with pytest.raises(ValidationError):
                validate(**kwargs)


class TestUnobservableReach:
    # The silent closure the decider reads: the closure tables.
    def test_identity_without_silent_events(self, siso_not_scso):
        assert silent_reach(siso_not_scso, {"x1"}) == frozenset({"x1"})

    def test_silent_successor_included(self, cso_not_scso):
        assert silent_reach(cso_not_scso, {"x0"}) == frozenset({"x0", "x1"})

    def test_empty_source(self, cso_not_scso):
        assert silent_reach(cso_not_scso, set()) == frozenset()

    def test_matches_naive_fixpoint(self):
        # The tables of g and of its non-secret core, field by field; the
        # core is g's arcs between non-secret states, from the non-secret
        # initial states, so its secret states have no arcs and close to
        # themselves.  The chains' masks are wider than 64 bits.
        for aut in (*random_instances(300), *larger_instances(), *chain_instances()):
            n = len(aut.states)
            alphabet = sorted(aut.observable)
            core = aut._core
            secret = aut.secret_states
            kept = [(s, e, t) for s, e, t in aut.transitions if s not in secret and t not in secret]
            assert core.transitions == tuple(kept)
            assert core.initial_states == aut.initial_states - aut.secret_states
            for source in (aut, core):
                tables = source._closed_images
                closures, images, degree = naive_tables(source)
                assert list(tables.closures) == list(aut.states)
                for i, x in enumerate(aut.states):
                    assert names(aut, tables.closures[x]) == closures[x]
                    for k, event in enumerate(alphabet):
                        row = tables.packed[i] >> k * n & (1 << n) - 1
                        assert names(aut, row) == images[x, event]
                    assert tables.packed[i] >> len(alphabet) * n == 0
                    assert tables.degree[i] == degree[x]
                assert names(aut, tables.secret) == aut.secret_states

    def test_closure_operator_laws(self):
        for aut in random_instances(30):
            states = list(aut.states)
            small = frozenset(states[: len(states) // 2])
            large = frozenset(states)
            reach_small = silent_reach(aut, small)
            reach_large = silent_reach(aut, large)
            assert small <= reach_small  # extensive
            assert reach_small <= reach_large  # monotone
            assert silent_reach(aut, reach_small) == reach_small  # idempotent


def test_only_the_search_tables_are_cached():
    # Everything else an Automaton answers is computed from its six
    # fields where it is used; the two cached members are the tables the
    # searches read.
    cached = {name for name, member in vars(Automaton).items() if isinstance(member, cached_property)}
    assert cached == {"_core", "_closed_images"}


class TestProject:
    def test_empty(self, cso_not_scso):
        assert project(cso_not_scso, []) == ()

    def test_erases_silent_events(self, cso_not_scso):
        assert project(cso_not_scso, ["u", "a", "a", "b"]) == ("a", "a", "b")

    def test_identity_on_observable(self, siso_not_scso):
        assert project(siso_not_scso, ["a", "b", "b"]) == ("a", "b", "b")

    def test_morphism(self):
        for aut in random_instances(25):
            events = list(aut.events)
            if not events:
                continue
            left = [events[i % len(events)] for i in range(3)]
            right = [events[(i + 1) % len(events)] for i in range(3)]
            assert project(aut, left + right) == project(aut, left) + project(aut, right)


class TestEnumerateRuns:
    def test_zero_length(self, iso_not_siso):
        runs = list(enumerate_runs(iso_not_siso, 0))
        assert runs == [Run("x1"), Run("x2")]

    def test_single_steps(self, iso_not_siso):
        runs = list(enumerate_runs(iso_not_siso, 1))
        assert runs == [
            Run("x1"),
            Run("x2"),
            Run("x2", (("a", "x3"),)),
            Run("x1", (("u", "x2"),)),
        ]

    def test_negative_length_rejected(self, iso_not_siso):
        with pytest.raises(ValueError):
            list(enumerate_runs(iso_not_siso, -1))

    def test_count_matches_recursive_oracle(self):
        for aut in random_instances(20, max_states=4):
            expected = sum(count_runs_recursively(aut, s, 4) for s in aut.initial_states)
            assert sum(1 for _ in enumerate_runs(aut, 4)) == expected

    def test_runs_replay_and_order_is_stable(self):
        for aut in random_instances(20, max_states=4):
            runs = list(enumerate_runs(aut, 3))
            assert runs == list(enumerate_runs(aut, 3))
            previous_len = 0
            for run in runs:
                assert is_valid(run, aut)
                assert len(run.steps) >= previous_len
                previous_len = len(run.steps)


class TestRun:
    def test_visited_and_end(self):
        run = Run("a", (("e", "b"), ("f", "c")))
        assert visited(run) == ("a", "b", "c")
        assert run.events == ("e", "f")
        assert run.end == "c"
        assert Run("a").end == "a"

    def test_validity_and_secrecy(self, cso_not_scso):
        good = Run("x0", (("a", "x2"), ("a", "x5")))
        assert is_valid(good, cso_not_scso)
        assert not is_non_secret(good, cso_not_scso)
        assert is_non_secret(Run("x0", (("a", "x2"), ("b", "x3"))), cso_not_scso)
        assert not is_valid(Run("x0", (("b", "x2"),)), cso_not_scso)

    def test_immutability(self):
        aut = Automaton.build(["a"], [], [], [], ["a"], [])
        with pytest.raises(AttributeError):
            aut.states = ()
