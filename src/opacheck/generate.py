"""Random automaton generation and the verifier-vs-oracle fuzz campaign."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from . import oracle as oracle_mod
from .model import Automaton
from .verifiers import PROPERTIES, Verdict, check_all


def random_automaton(
    seed: "int | None" = None,
    rng: "random.Random | None" = None,
    n_states: int = 5,
    n_events: int = 3,
    obs_ratio: float = 0.6,
    secret_ratio: float = 0.2,
    density: float = 1.5,
) -> Automaton:
    """Generate a random automaton that is valid by construction.

    Accessibility is guaranteed by construction: a random spanning tree
    rooted at the initial states is laid down first, then ``density * n``
    extra random transitions are drawn, or fewer once every possible
    transition is present.  The same seed always produces the same
    automaton.
    """
    if n_states < 1 or n_events < 1:
        raise ValueError("state and event counts must be >= 1")
    if not (0.0 <= obs_ratio <= 1.0 and 0.0 <= secret_ratio <= 1.0):
        raise ValueError("ratios must lie in [0, 1]")
    if not (math.isfinite(density) and density >= 0.0):
        raise ValueError("density must be a finite number >= 0")
    if not math.isfinite(density * n_states):
        raise ValueError("density times the state count must be finite")
    if rng is None:
        rng = random.Random(seed)

    width = len(str(n_states - 1))
    states = [f"s{i:0{width}d}" for i in range(n_states)]
    width = len(str(n_events - 1))
    events = [f"e{i:0{width}d}" for i in range(n_events)]
    observable = {e for e in events if rng.random() < obs_ratio}
    secret = {s for s in states if rng.random() < secret_ratio}

    n_initial = 1 + rng.randrange(2) if n_states > 1 else 1
    initial = sorted(rng.sample(states, n_initial))

    transitions: set[tuple[str, str, str]] = set()
    reached = list(initial)
    pending = [s for s in states if s not in set(initial)]
    rng.shuffle(pending)
    for state in pending:
        transitions.add((rng.choice(reached), rng.choice(events), state))
        reached.append(state)
    # Once every (source, event, target) triple is drawn, no draw adds one.
    saturated = n_states * n_states * n_events
    for _ in range(int(round(density * n_states))):
        if len(transitions) == saturated:
            break
        transitions.add((rng.choice(states), rng.choice(events), rng.choice(states)))

    return Automaton.build(states, events, observable, transitions, initial, secret)


# Ratio palettes for fuzzing: extremes included so degenerate shapes
# (fully silent, fully secret, secret-free) come up regularly.
_OBS_RATIOS = (0.0, 0.3, 0.5, 0.8, 1.0)
_SECRET_RATIOS = (0.0, 0.2, 0.4, 0.7, 1.0)


def fuzz_automaton(base_seed: int, index: int, max_states: int = 6, max_events: int = 4) -> Automaton:
    """Deterministic random instance ``index`` of a fuzz campaign."""
    if max_states < 1 or max_events < 1:
        raise ValueError(f"max_states and max_events must be >= 1, not {max_states} and {max_events}")
    rng = random.Random(base_seed * 1_000_003 + index)
    return random_automaton(
        rng=rng,
        n_states=rng.randint(1, max_states),
        n_events=rng.randint(1, max_events),
        obs_ratio=rng.choice(_OBS_RATIOS),
        secret_ratio=rng.choice(_SECRET_RATIOS),
        density=rng.uniform(0.5, 2.5),
    )


_ORACLES = {prop: getattr(oracle_mod, f"oracle_{prop.lower()}") for prop in PROPERTIES}

# (premise, conclusion) pairs that must hold on every instance.
IMPLICATIONS = (("SCSO", "CSO"), ("SISO", "ISO"), ("INF_SSO", "SCSO"), ("INF_SSO", "SISO"))


@dataclass
class CampaignReport:
    """Outcome of a fuzz campaign comparing verifiers against oracles."""

    count: int = 0
    holds: dict[str, int] = field(default_factory=lambda: {p: 0 for p in PROPERTIES})
    fails: dict[str, int] = field(default_factory=lambda: {p: 0 for p in PROPERTIES})
    discrepancies: list[str] = field(default_factory=list)
    implication_violations: list[str] = field(default_factory=list)
    witness_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.discrepancies or self.implication_violations or self.witness_failures)


def run_instance(label: str, aut: Automaton, report: CampaignReport) -> dict[str, Verdict]:
    """Check one instance both ways and fold the outcome into ``report``."""
    verdicts = check_all(aut, witness=True)
    report.count += 1
    for prop in PROPERTIES:
        verdict = verdicts[prop]
        report.holds[prop] += verdict.holds
        report.fails[prop] += not verdict.holds
        if verdict.holds != _ORACLES[prop](aut):
            report.discrepancies.append(f"{label}: {prop} verifier={verdict.holds}")
        if not verdict.holds:
            try:
                if not oracle_mod.replay_witness(aut, verdict.witness, prop):
                    report.witness_failures.append(f"{label}: {prop} witness rejected on replay")
            except oracle_mod.MalformedWitness as exc:
                report.witness_failures.append(f"{label}: {prop} malformed witness: {exc}")
    for premise, conclusion in IMPLICATIONS:
        if verdicts[premise].holds and not verdicts[conclusion].holds:
            report.implication_violations.append(f"{label}: {premise} without {conclusion}")
    return verdicts


def run_campaign(instances: Iterable[tuple[str, Automaton]]) -> CampaignReport:
    """Run the full verifier/oracle comparison over ``instances``."""
    report = CampaignReport()
    for label, aut in instances:
        run_instance(label, aut, report)
    return report


def fuzz_instances(count: int, max_states: int, seed: int, max_events: int = 4):
    """The instance stream of a seeded fuzz campaign."""
    for index in range(count):
        yield f"seed={seed} index={index}", fuzz_automaton(seed, index, max_states, max_events)
