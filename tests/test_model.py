import warnings

import pytest

from opacheck import (
    Automaton,
    Run,
    ValidationError,
    delta_extended,
    enumerate_runs,
    project,
    unobservable_reach,
    validate,
)
from opacheck.generate import fuzz_automaton
from opacheck.model import AllStatesSecretWarning, PrunedStatesWarning


def naive_unobservable_fixpoint(aut, src):
    """Reference closure: expand one silent step at a time until stable."""
    current = set(src)
    while True:
        grown = set(current)
        for state in current:
            for event, target in aut.outgoing(state):
                if event in aut.unobservable:
                    grown.add(target)
        if grown == current:
            return frozenset(current)
        current = grown


def count_runs_recursively(aut, state, budget):
    total = 1
    if budget > 0:
        for _, target in aut.outgoing(state):
            total += count_runs_recursively(aut, target, budget - 1)
    return total


def random_instances(n, max_states=6):
    return [fuzz_automaton(base_seed=7, index=i, max_states=max_states) for i in range(n)]


class TestValidate:
    def test_fixture_file_accepted_unpruned(self, cso_not_scso):
        assert len(cso_not_scso.states) == 7
        assert cso_not_scso.observable == frozenset({"a", "b"})
        assert cso_not_scso.unobservable == frozenset({"u"})
        assert cso_not_scso.initial_states == frozenset({"x0"})
        assert cso_not_scso.secret_states == frozenset({"x4", "x5"})
        assert cso_not_scso.non_secret_initials == frozenset({"x0"})

    def test_minimal_single_state(self):
        aut = validate(states=["q"], events=[], transitions=[], initial_states=["q"])
        assert aut.states == ("q",)
        assert aut.events == ()
        assert aut.non_secret_initials == frozenset({"q"})

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
        ],
    )
    def test_rejections(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the no-initials case warns before failing
            with pytest.raises(ValidationError):
                validate(**kwargs)


class TestUnobservableReach:
    def test_identity_without_silent_events(self, siso_not_scso):
        assert unobservable_reach(siso_not_scso, {"x1"}) == frozenset({"x1"})

    def test_silent_successor_included(self, cso_not_scso):
        assert unobservable_reach(cso_not_scso, {"x0"}) == frozenset({"x0", "x1"})

    def test_empty_source(self, cso_not_scso):
        assert unobservable_reach(cso_not_scso, set()) == frozenset()

    def test_unknown_state_rejected(self, cso_not_scso):
        with pytest.raises(ValueError):
            unobservable_reach(cso_not_scso, {"nope"})

    def test_matches_naive_fixpoint(self):
        for aut in random_instances(40):
            for state in aut.states:
                assert unobservable_reach(aut, {state}) == naive_unobservable_fixpoint(aut, {state})

    def test_closure_operator_laws(self):
        for aut in random_instances(30):
            states = list(aut.states)
            small = frozenset(states[: len(states) // 2])
            large = frozenset(states)
            reach_small = unobservable_reach(aut, small)
            reach_large = unobservable_reach(aut, large)
            assert small <= reach_small  # extensive
            assert reach_small <= reach_large  # monotone
            assert unobservable_reach(aut, reach_small) == reach_small  # idempotent


class TestDeltaExtended:
    def test_exact_sequences(self, cso_not_scso):
        assert delta_extended(cso_not_scso, {"x0"}, ["a", "a"]) == frozenset({"x5"})
        assert delta_extended(cso_not_scso, {"x0"}, ["u", "a", "a"]) == frozenset({"x6"})

    def test_empty_sequence_is_identity(self, scso_pos):
        assert delta_extended(scso_pos, {"x0", "x3"}, []) == frozenset({"x0", "x3"})

    def test_dead_sequence_is_empty(self, cso_not_scso):
        assert delta_extended(cso_not_scso, {"x0"}, ["b"]) == frozenset()

    def test_unknown_event_rejected(self, cso_not_scso):
        with pytest.raises(ValueError):
            delta_extended(cso_not_scso, {"x0"}, ["zz"])

    def test_composition(self):
        for aut in random_instances(25):
            events = list(aut.events)
            if not events:
                continue
            seq = [events[i % len(events)] for i in range(4)]
            whole = delta_extended(aut, aut.initial_states, seq)
            split = delta_extended(aut, delta_extended(aut, aut.initial_states, seq[:2]), seq[2:])
            assert whole == split


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
                assert run.is_valid(aut)
                assert len(run.steps) >= previous_len
                previous_len = len(run.steps)


class TestRun:
    def test_visited_and_end(self):
        run = Run("a", (("e", "b"), ("f", "c")))
        assert run.visited == ("a", "b", "c")
        assert run.events == ("e", "f")
        assert run.end == "c"
        assert Run("a").end == "a"

    def test_validity_and_secrecy(self, cso_not_scso):
        good = Run("x0", (("a", "x2"), ("a", "x5")))
        assert good.is_valid(cso_not_scso)
        assert not good.is_non_secret(cso_not_scso)
        assert Run("x0", (("a", "x2"), ("b", "x3"))).is_non_secret(cso_not_scso)
        assert not Run("x0", (("b", "x2"),)).is_valid(cso_not_scso)

    def test_immutability(self):
        aut = Automaton.build(["a"], [], [], [], ["a"], [])
        with pytest.raises(AttributeError):
            aut.states = ()
