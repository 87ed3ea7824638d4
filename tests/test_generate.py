import time
import warnings
from dataclasses import replace

import pytest

from opacheck import generate, validate
from opacheck.generate import (
    fuzz_automaton,
    fuzz_instances,
    random_automaton,
    run_campaign,
    run_instance,
    CampaignReport,
)
from opacheck.model import AutomatonWarning
from opacheck.verifiers import PROPERTIES

from conftest import EXPECTED_VERDICTS, FIXTURE_NAMES, load_fixture, wide_instances


class TestRandomAutomaton:
    def test_same_seed_same_automaton(self):
        assert random_automaton(seed=42) == random_automaton(seed=42)
        assert random_automaton(seed=42) != random_automaton(seed=43)

    def test_zero_secret_ratio(self):
        aut = random_automaton(seed=1, secret_ratio=0.0)
        assert aut.secret_states == frozenset()

    def test_extreme_observation_ratios(self):
        silent = random_automaton(seed=2, obs_ratio=0.0)
        assert silent.observable == frozenset()
        loud = random_automaton(seed=2, obs_ratio=1.0)
        assert loud.observable == frozenset(loud.events)

    def test_all_generated_instances_pass_validation_unpruned(self):
        # Accessibility is built in, so validation never prunes: the
        # declared state count survives, and validating the description
        # again gives the same automaton.
        for base_seed, max_states, index in (
            *((97, 6, i) for i in range(1000)),
            *((7, 8, i) for i in range(500)),
            *((13, 40, i) for i in range(300)),
        ):
            aut = fuzz_automaton(base_seed=base_seed, index=index, max_states=max_states)
            assert len(aut.states) >= 1
            assert aut.initial_states <= frozenset(aut.states)
            # the state names are contiguous, so none were dropped
            assert len(aut.states) == int(max(aut.states)[1:]) + 1
            events = [(e, e in aut.observable) for e in aut.events]
            with warnings.catch_warnings():  # every state may be secret
                warnings.simplefilter("ignore", AutomatonWarning)
                again = validate(aut.states, events, aut.transitions, aut.initial_states, aut.secret_states)
            assert again == aut

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_states=0),
            dict(n_events=0),
            dict(obs_ratio=-0.1),
            dict(secret_ratio=1.5),
            dict(density=-1.0),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            random_automaton(seed=0, **kwargs)

    @pytest.mark.parametrize("max_states, max_events", [(0, 4), (6, 0)])
    def test_fuzz_bounds_below_one_are_named(self, max_states, max_events):
        with pytest.raises(ValueError, match="max_states and max_events"):
            fuzz_automaton(0, 0, max_states, max_events)
        with pytest.raises(ValueError, match="max_states and max_events"):
            next(fuzz_instances(1, max_states, 0, max_events))


class TestCampaign:
    def test_fixture_campaign_matches_recorded_verdicts(self):
        report = CampaignReport()
        for name in FIXTURE_NAMES:
            verdicts = run_instance(name, load_fixture(name), report)
            for prop in PROPERTIES:
                assert verdicts[prop].holds is EXPECTED_VERDICTS[name][prop], f"{name} {prop}"
        assert report.ok
        assert report.count == len(FIXTURE_NAMES)

    def test_wide_campaign_is_clean(self):
        """The oracles, witness replay and the implication lattice agree
        with the decider at 60-160 states of a low-observability shape,
        beyond the reach of the fuzz campaigns."""
        start = time.perf_counter()
        report = run_campaign(wide_instances())
        elapsed = time.perf_counter() - start
        assert report.count == 100
        assert (report.discrepancies, report.implication_violations, report.witness_failures) == ([], [], [])
        assert elapsed < 60, f"{elapsed:.1f} s"

    def test_seeded_campaign_is_reproducible(self):
        first = run_campaign(fuzz_instances(30, 5, seed=12))
        second = run_campaign(fuzz_instances(30, 5, seed=12))
        assert first.holds == second.holds
        assert first.fails == second.fails
        assert first.ok and second.ok

    def test_dropped_witnesses_are_reported_not_raised(self, monkeypatch):
        # A decider that loses its witnesses shows as malformed witnesses.
        def without_witnesses(aut, witness=False):
            verdicts = decide(aut, witness=witness)
            return {prop: replace(verdict, witness=None) for prop, verdict in verdicts.items()}

        decide = generate.check_all
        monkeypatch.setattr(generate, "check_all", without_witnesses)
        report = run_campaign(fuzz_instances(20, 5, 1))
        failing = sum(report.fails.values())
        assert failing and len(report.witness_failures) == failing
        assert all("malformed witness" in line for line in report.witness_failures)

    def test_report_flags_problems(self):
        report = CampaignReport()
        assert report.ok
        report.discrepancies.append("x")
        assert not report.ok
