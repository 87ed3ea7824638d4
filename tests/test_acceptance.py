"""Acceptance suite.

Each criterion is a single test that prints one ``[acceptance N] PASS/FAIL``
line; run with ``pytest tests/test_acceptance.py -v -s`` to see them all.
Tolerances are exact (boolean) unless a wall-clock bound is stated.
"""

import functools
import time

import pytest

from opacheck import (
    build_gdss,
    check,
    check_all,
    export_dot,
)
from opacheck.generate import IMPLICATIONS, fuzz_instances, random_automaton, run_campaign
from opacheck.constructions import build_structure
from opacheck.verifiers import PROPERTIES

from conftest import CCState, cc_state, enumerate_runs, load_fixture, product_arcs, project, successors
from test_constructions import core_search, observer_words, states_with_observation

CAMPAIGN_SEED = 20260810
CAMPAIGN_SIZE = 1000


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance {number:>2}] FAIL  {summary}")
                raise
            print(f"\n[acceptance {number:>2}] PASS  {summary}")

        return wrapper

    return decorate


@pytest.fixture(scope="session")
def campaign():
    started = time.perf_counter()
    report = run_campaign(fuzz_instances(CAMPAIGN_SIZE, 6, seed=CAMPAIGN_SEED, max_events=4))
    return report, time.perf_counter() - started


@criterion(1, "standard CSO holds but strong CSO fails, leaking (x5,{}), witness 'a a', <1s")
def test_criterion_1():
    aut = load_fixture("cso_but_not_scso")
    started = time.perf_counter()
    cso = check(aut, "CSO")
    scso = check(aut, "SCSO", witness=True)
    elapsed = time.perf_counter() - started
    assert cso.holds is True
    assert scso.holds is False
    assert scso.witness.offending_state == "(x5,{})"
    assert scso.witness.observation == ("a", "a")
    assert elapsed < 1.0


@criterion(2, "standard ISO holds, strong ISO fails, strong CSO holds, <1s")
def test_criterion_2():
    aut = load_fixture("iso_but_not_siso")
    started = time.perf_counter()
    iso = check(aut, "ISO")
    siso = check(aut, "SISO")
    scso = check(aut, "SCSO")
    elapsed = time.perf_counter() - started
    assert iso.holds is True
    assert siso.holds is False
    assert scso.holds is True
    assert elapsed < 1.0


@criterion(3, "strong CSO holds and the product contains (x4,{x1,x5}), <1s")
def test_criterion_3():
    aut = load_fixture("scso_positive")
    started = time.perf_counter()
    scso = check(aut, "SCSO")
    cc = build_structure(aut, "cc")
    dot = export_dot(cc)
    elapsed = time.perf_counter() - started
    assert scso.holds is True
    assert CCState("x4", frozenset({"x1", "x5"})) in [cc_state(label) for label, _ in cc.states]
    assert '"(x4,{x1,x5})"' in dot
    assert elapsed < 1.0


@criterion(4, "strong ISO holds while strong CSO fails, <1s")
def test_criterion_4():
    aut = load_fixture("siso_but_not_scso")
    started = time.perf_counter()
    siso = check(aut, "SISO")
    scso = check(aut, "SCSO")
    elapsed = time.perf_counter() - started
    assert siso.holds is True
    assert scso.holds is False
    assert elapsed < 1.0


@criterion(5, "strong ISO fails with leaking set exactly {(x4,{}), (x5,{})}, <1s")
def test_criterion_5():
    aut = load_fixture("siso_negative")
    started = time.perf_counter()
    siso = check(aut, "SISO")
    cc = build_structure(aut, "cc-hat")
    elapsed = time.perf_counter() - started
    assert siso.holds is False
    leaking = {s for s in map(cc_state, (label for label, _ in cc.states)) if s.right is None}
    assert leaking == {CCState("x4", None), CCState("x5", None)}
    assert elapsed < 1.0


@criterion(6, "1000-instance campaign: verifier and oracle verdicts agree exactly, <60s")
def test_criterion_6(campaign):
    report, elapsed = campaign
    assert report.count == CAMPAIGN_SIZE
    assert report.discrepancies == []
    assert elapsed < 60.0


@criterion(7, "implication suite over the campaign: zero violations")
def test_criterion_7(campaign):
    report, _ = campaign
    assert IMPLICATIONS == (("SCSO", "CSO"), ("SISO", "ISO"), ("INF_SSO", "SCSO"), ("INF_SSO", "SISO"))
    assert report.implication_violations == []


@criterion(8, "every failing verdict's witness passes replay: 100% of the campaign")
def test_criterion_8(campaign):
    report, _ = campaign
    assert sum(report.fails.values()) > 0  # the campaign does exercise failures
    assert report.witness_failures == []


def observer_run(search, observation):
    """Fold an observation from an observer search's initial estimate;
    None if undefined."""
    number = search.initial
    for event in observation:
        number = search.steps[event][number]  # 0, the collapsed estimate, stays 0
    return number or None


@criterion(9, "bounded language invariants at depth 6 on 100 random instances")
def test_criterion_9():
    depth = 6
    for label, aut in fuzz_instances(100, 6, seed=CAMPAIGN_SEED + 1):
        gdss = build_gdss(aut)
        observer = core_search(aut)
        cc = build_structure(aut, "cc")
        arcs = product_arcs(cc)

        # Observer language equals the projected language of the core:
        # accepted words are realizable, projections of bounded runs are
        # accepted.
        for word, subset in observer_words(observer, depth):
            assert states_with_observation(gdss, word) == subset, label
        if gdss.states:
            for run in enumerate_runs(gdss, depth):
                assert observer_run(observer, project(gdss, run.events)) is not None, label

        # Every bounded run of the system lifts to a product path with
        # the same left behaviour...
        states = {cc_state(name) for name, _ in cc.states}
        lifted = set(arcs)
        for run in enumerate_runs(aut, depth):
            number = observer.initial
            here = CCState(run.start, observer.subset(number) or None)
            assert here in states, label
            for event, target in run.steps:
                if event in aut.observable:
                    number = observer.steps[event][number]
                    pair = (event, event)
                else:
                    pair = (event, None)
                nxt = CCState(target, observer.subset(number) or None)
                assert (here, pair, nxt) in lifted, label
                here = nxt
        # ...and conversely each product transition is a transition of the
        # system whose pair components project equally, so every product
        # path satisfies both inclusions.
        for src, (event, right_part), dst in arcs:
            assert dst.left in successors(aut, src.left, event), label
            if event in aut.observable:
                assert right_part == event, label
            else:
                assert right_part is None, label


@criterion(10, "ten-state instances verify in <5s each")
def test_criterion_10():
    for seed in range(10):
        aut = random_automaton(
            seed=seed, n_states=10, n_events=4, obs_ratio=0.5, secret_ratio=0.3, density=2.0
        )
        started = time.perf_counter()
        verdicts = check_all(aut, witness=True)
        elapsed = time.perf_counter() - started
        assert set(verdicts) == set(PROPERTIES)
        assert elapsed < 5.0, f"seed {seed} took {elapsed:.2f}s"
