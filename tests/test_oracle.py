import random
import types
from dataclasses import fields, replace

import pytest

from opacheck import (
    Automaton,
    Run,
    Witness,
    check,
    check_all,
    replay_witness,
    validate,
)
from opacheck.constructions import search_observer
from opacheck.generate import fuzz_instances
from opacheck.oracle import (
    _SHAPES,
    MalformedWitness,
    _adjacency,
    _fold,
    oracle_cso,
    oracle_inf_sso,
    oracle_iso,
    oracle_scso,
    oracle_siso,
)
from opacheck.verifiers import PROPERTIES

from conftest import (
    EXPECTED_VERDICTS,
    FIXTURE_NAMES,
    enumerate_runs,
    is_non_secret,
    load_fixture,
    offending_label,
    project,
)

ORACLES = {
    "CSO": oracle_cso,
    "ISO": oracle_iso,
    "SCSO": oracle_scso,
    "SISO": oracle_siso,
    "INF_SSO": oracle_inf_sso,
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_verdicts(name):
    aut = load_fixture(name)
    for prop, expected in EXPECTED_VERDICTS[name].items():
        assert ORACLES[prop](aut) is expected, f"{name} {prop}"


def test_trivial_cases(secret_free, scso_pos):
    # No secrets at all: everything holds.
    for prop in PROPERTIES:
        assert ORACLES[prop](secret_free)
    # No secret initial state: the initial-state properties hold.
    assert oracle_siso(scso_pos)
    assert oracle_iso(scso_pos)


def test_agreement_with_verifiers_on_fuzzed_instances():
    for label, aut in fuzz_instances(250, 6, seed=31415):
        verdicts = check_all(aut)
        for prop in PROPERTIES:
            assert ORACLES[prop](aut) is verdicts[prop].holds, f"{label} {prop}"


def test_no_initial_state_holds_vacuously():
    # With no initial state the system has no run to reveal anything.
    for secret in ([], ["q"], ["p", "q"]):
        aut = Automaton.build(
            ["p", "q"], ["a", "u"], ["a"], [("p", "a", "q"), ("q", "u", "p")], [], secret
        )
        verdicts = check_all(aut)
        for prop in PROPERTIES:
            assert ORACLES[prop](aut) is verdicts[prop].holds is True, f"{secret} {prop}"


def test_oracle_reads_only_the_six_fields():
    # Stripped of every derived member, an automaton still gets the
    # verifiers' verdicts from the oracle, and their witnesses replay.
    fixtures = [(name, load_fixture(name)) for name in FIXTURE_NAMES]
    for label, aut in (*fixtures, *fuzz_instances(300, 6, seed=3)):
        bare = types.SimpleNamespace(**{f.name: getattr(aut, f.name) for f in fields(aut)})
        verdicts = check_all(aut, witness=True)
        for prop in PROPERTIES:
            assert ORACLES[prop](bare) is verdicts[prop].holds, f"{label} {prop}"
            if not verdicts[prop].holds:
                assert replay_witness(bare, verdicts[prop].witness, prop) is True, f"{label} {prop}"


def built_automaton(rng):
    """An automaton made by ``Automaton.build`` without validation: its
    initial subset is random and may be empty, and unreachable states
    are kept."""
    states = [f"x{i}" for i in range(rng.randint(1, 5))]
    events = ["a", "b", "u"][: rng.randint(1, 3)]
    transitions = [
        (rng.choice(states), rng.choice(events), rng.choice(states))
        for _ in range(rng.randint(0, 2 * len(states)))
    ]
    return Automaton.build(
        states,
        events,
        [e for e in events if rng.random() < 0.6],
        transitions,
        [s for s in states if rng.random() < 0.3],
        [s for s in states if rng.random() < 0.4],
    )


def test_agreement_on_directly_built_automata():
    rng = random.Random(4242)
    empty_starts = 0
    for index in range(300):
        aut = built_automaton(rng)
        empty_starts += not aut.initial_states
        verdicts = check_all(aut, witness=True)
        for prop, verdict in verdicts.items():
            assert ORACLES[prop](aut) is verdict.holds, f"{index} {prop}"
            if not verdict.holds:
                assert replay_witness(aut, verdict.witness, prop), f"{index} {prop}"
    assert empty_starts > 0


def test_runs_of_opaque_systems_do_not_replay_as_violations():
    # The search and replay read one table: a run that replays as a
    # violation would be a violating pair the search has to reach.
    for label, aut in fuzz_instances(60, 4, seed=6061):
        holding = [prop for prop in PROPERTIES if ORACLES[prop](aut)]
        for run in enumerate_runs(aut, 5):
            for prop in holding:
                state = offending_label(aut, run, prop)
                witness = Witness(run.events, project(aut, run.events), state, run)
                assert replay_witness(aut, witness, prop) is False, f"{label} {prop} {run}"


def test_inf_sso_implies_scso_on_fuzzed_instances():
    for label, aut in fuzz_instances(250, 6, seed=27182):
        assert not (oracle_inf_sso(aut) and not oracle_scso(aut)), label


def test_safe_set_matches_exhaustive_run_enumeration():
    # Every state in the non-secret estimate after an observation is the
    # endpoint of an actual non-secret run with that projection, and
    # conversely; runs up to |X|*(|obs|+1) steps are enough because
    # silent cycles between observations can be pumped down.
    max_obs_len = 2
    for label, aut in fuzz_instances(20, 3, seed=5551):
        bound = len(aut.states) * (max_obs_len + 1)
        endpoints_by_obs: dict[tuple, set] = {}
        for run in enumerate_runs(aut, bound):
            observation = project(aut, run.events)
            if len(observation) <= max_obs_len and is_non_secret(run, aut):
                endpoints_by_obs.setdefault(observation, set()).add(run.end)
        observations = {
            project(aut, run.events) for run in enumerate_runs(aut, max_obs_len)
        }
        for observation in sorted(obs for obs in observations if len(obs) <= max_obs_len):
            _, safe = _fold(aut, _adjacency(aut), _SHAPES["SCSO"], observation)
            assert safe == frozenset(endpoints_by_obs.get(observation, set())), (
                f"{label} {observation}"
            )


def test_reach_trajectory_matches_estimate_automaton():
    # The oracle's reach component and the estimate observer used by the
    # current-state check walk the same subsets.
    for label, aut in fuzz_instances(40, 5, seed=777):
        estimates = search_observer(aut)
        assert estimates.initial
        frontier = [((), estimates.initial)]
        for _ in range(3):
            nxt = []
            for observation, number in frontier:
                reach, _ = _fold(aut, _adjacency(aut), _SHAPES["CSO"], observation)
                assert reach == estimates.subset(number), label
                for event in estimates.alphabet:
                    successor = estimates.steps[event][number]
                    if successor:
                        nxt.append((observation + (event,), successor))
            frontier = nxt


class TestReplayWitness:
    def test_accepts_genuine_witness(self, cso_not_scso):
        witness = check(cso_not_scso, "SCSO", witness=True).witness
        assert replay_witness(cso_not_scso, witness, "SCSO") is True

    def test_rejects_corrupted_run(self, cso_not_scso):
        witness = check(cso_not_scso, "SCSO", witness=True).witness
        broken = Witness(
            event_sequence=witness.event_sequence,
            observation=witness.observation,
            offending_state=witness.offending_state,
            run=Run("x0", (("a", "x3"), ("a", "x5"))),  # x0 -a-> x3 does not exist
        )
        with pytest.raises(MalformedWitness):
            replay_witness(cso_not_scso, broken, "SCSO")

    def test_rejects_mismatched_observation(self, cso_not_scso):
        witness = check(cso_not_scso, "SCSO", witness=True).witness
        broken = Witness(
            event_sequence=witness.event_sequence,
            observation=("a",),
            offending_state=witness.offending_state,
            run=witness.run,
        )
        with pytest.raises(MalformedWitness):
            replay_witness(cso_not_scso, broken, "SCSO")

    def test_semantic_rejection_is_not_malformed(self, cso_not_scso):
        # A perfectly valid run that simply does not violate the property.
        run = Run("x0", (("a", "x2"),))
        harmless = Witness(("a",), ("a",), "(x2,{})", run)
        assert replay_witness(cso_not_scso, harmless, "SCSO") is False

    @pytest.mark.parametrize(
        "fixture, prop, label",
        [
            ("cso_but_not_scso", "SCSO", "(x2,{})"),
            ("cso_but_not_scso", "SCSO", "(x5,{x5})"),
            ("cso_but_not_scso", "SCSO", ("x5", None)),
            ("cso_but_not_scso", "INF_SSO", None),
            ("siso_but_not_scso", "CSO", "{x1,x2}"),
            ("siso_but_not_scso", "CSO", "(x2,{})"),
            ("siso_but_not_scso", "CSO", frozenset({"x2"})),
            ("siso_negative", "SISO", "(x5,{}) "),
        ],
        ids=[
            "other-state",
            "not-collapsed",
            "tuple",
            "none",
            "other-estimate",
            "product-label-for-cso",
            "frozenset",
            "trailing-space",
        ],
    )
    def test_rejects_tampered_offending_state(self, fixture, prop, label):
        # Everything but the label is the genuine witness's, and still replays.
        aut = load_fixture(fixture)
        witness = check(aut, prop, witness=True).witness
        assert replay_witness(aut, witness, prop) is True
        with pytest.raises(MalformedWitness, match="offending state"):
            replay_witness(aut, replace(witness, offending_state=label), prop)

    @pytest.mark.parametrize(
        "events, run",
        [
            ((), Run("a", (("x",),))),
            (("x",), Run("a", (("x", "b", "c"),))),
            ((), Run(["a"], ())),
            ((["x"],), Run("a", ((["x"], "b"),))),
            ((), Run("a", None)),
            ((), None),
            ((), ("a", ())),
        ],
        ids=["short-step", "long-step", "list-start", "list-event", "no-steps", "no-run", "tuple-run"],
    )
    def test_malformed_run_is_malformed(self, events, run):
        transitions = [("a", "x", "b"), ("b", "u", "a")]
        aut = validate(["a", "b"], [("x", True), ("u", False)], transitions, ["a"], ["b"])
        with pytest.raises(MalformedWitness):
            replay_witness(aut, Witness(events, events, None, run), "SCSO")

    def test_missing_witness_is_malformed(self, cso_not_scso):
        with pytest.raises(MalformedWitness):
            replay_witness(cso_not_scso, None, "SCSO")

    def test_unknown_property_rejected(self, cso_not_scso):
        witness = check(cso_not_scso, "SCSO", witness=True).witness
        with pytest.raises(ValueError):
            replay_witness(cso_not_scso, witness, "K_STEP")

    def test_fuzzed_witnesses_replay(self):
        for label, aut in fuzz_instances(120, 6, seed=808):
            verdicts = check_all(aut, witness=True)
            for prop in PROPERTIES:
                if not verdicts[prop].holds:
                    assert replay_witness(aut, verdicts[prop].witness, prop), f"{label} {prop}"
