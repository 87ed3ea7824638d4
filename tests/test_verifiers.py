import hashlib
import json
import pathlib
from dataclasses import replace

import pytest

from opacheck import (
    Run,
    build_cc,
    build_gdss,
    build_ghat,
    build_observer,
    check,
    check_all,
    enumerate_runs,
    load,
    project,
    replay_witness,
    validate,
    Witness,
)
from opacheck.constructions import CCAutomaton, CCState, ObserverAutomaton, render_observer
from opacheck.generate import IMPLICATIONS, fuzz_instances
from opacheck.model import AllStatesSecretWarning
from opacheck.oracle import _SHAPES, _adjacency, _fold
from opacheck.verifiers import PROPERTIES, Structures, Verdict, _realize_observation, verdict_record

from conftest import (
    EXPECTED_VERDICTS,
    FIXTURE_NAMES,
    assert_same_observer,
    chain_instances,
    fixture_path,
    larger_instances,
    load_fixture,
    random_instances,
    reference_cc,
    reference_observer,
)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_verdicts_individual_checks(name):
    aut = load_fixture(name)
    for prop, expected in EXPECTED_VERDICTS[name].items():
        assert check(aut, prop).holds is expected, f"{name} {prop}"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_verdicts_shared_path(name):
    verdicts = check_all(load_fixture(name), witness=True)
    for prop, expected in EXPECTED_VERDICTS[name].items():
        assert verdicts[prop].holds is expected
        if expected:
            assert verdicts[prop].witness is None
        else:
            assert verdicts[prop].witness is not None


def test_check_dispatch(secret_free):
    for prop in PROPERTIES:
        assert check(secret_free, prop).holds
    with pytest.raises(ValueError):
        check(secret_free, "FOO")


def test_scso_witness_details(cso_not_scso):
    verdict = check(cso_not_scso, "SCSO", witness=True)
    assert not verdict.holds
    witness = verdict.witness
    assert witness.observation == ("a", "a")
    assert witness.offending_state == CCState("x5", None)
    assert witness.run.start == "x0"
    assert witness.run.end == "x5"
    assert replay_witness(cso_not_scso, witness, "SCSO")


def test_siso_witness_details(siso_neg):
    verdict = check(siso_neg, "SISO", witness=True)
    assert not verdict.holds
    witness = verdict.witness
    assert witness.event_sequence == ("a", "a")
    assert witness.offending_state == CCState("x5", None)
    assert witness.run.start == "x1"
    assert replay_witness(siso_neg, witness, "SISO")
    # Minimality in path length: every run from the secret start with
    # fewer events still has a fully non-secret explanation, so no
    # shorter witness exists.
    for run in enumerate_runs(build_ghat(siso_neg), len(witness.event_sequence) - 1):
        observation = project(siso_neg, run.events)
        _, safe = _fold(siso_neg, _adjacency(siso_neg), _SHAPES["SISO"], observation)
        assert safe, run


def test_product_witnesses_are_shortest():
    # No run shorter than a witness read off a product violates the
    # property (CSO witnesses are shortest in observations, not events).
    for label, aut in fuzz_instances(300, 5, seed=515):
        for prop, verdict in check_all(aut, witness=True).items():
            if prop == "CSO" or verdict.holds or not verdict.witness.event_sequence:
                continue
            for run in enumerate_runs(aut, len(verdict.witness.event_sequence) - 1):
                shorter = Witness(run.events, project(aut, run.events), None, run)
                assert not replay_witness(aut, shorter, prop), (label, prop, run)


def test_siso_leak_set_is_exact(siso_neg):
    cc = build_cc(build_ghat(siso_neg), build_observer(build_gdss(siso_neg)))
    assert {s for s in cc.states if s.right is None} == {CCState("x4", None), CCState("x5", None)}


def test_witness_only_on_request(cso_not_scso):
    assert check(cso_not_scso, "SCSO").witness is None
    assert check(cso_not_scso, "SCSO", witness=True).witness is not None


def test_initially_bad_state_gives_empty_witness():
    with pytest.warns(AllStatesSecretWarning):
        aut = validate(
            states=["q"],
            events=[("a", True)],
            transitions=[("q", "a", "q")],
            initial_states=["q"],
            secret_states=["q"],
        )
    verdict = check(aut, "SCSO", witness=True)
    assert not verdict.holds
    assert verdict.witness.event_sequence == ()
    assert verdict.witness.observation == ()
    assert verdict.witness.run.start == "q"
    assert replay_witness(aut, verdict.witness, "SCSO")


def test_cso_witness_realizes_observation(siso_not_scso):
    verdict = check(siso_not_scso, "CSO", witness=True)
    assert not verdict.holds
    witness = verdict.witness
    assert witness.observation == ("a",)
    assert witness.offending_state == frozenset({"x2"})
    assert witness.run.is_valid(siso_not_scso)
    assert witness.run.end in siso_not_scso.secret_states
    assert replay_witness(siso_not_scso, witness, "CSO")


def test_iso_witness(siso_neg):
    verdict = check(siso_neg, "ISO", witness=True)
    assert not verdict.holds
    witness = verdict.witness
    assert witness.run.start in siso_neg.initial_states & siso_neg.secret_states
    assert replay_witness(siso_neg, witness, "ISO")


# property -> stats prefix -> the reference structure it sizes
SIZED = {
    "CSO": {"estimate": "estimates"},
    "ISO": {"ghat": "ghat", "observer": "iso_observer", "product": "cc_iso"},
    "SCSO": {"gdss": "gdss", "observer": "observer", "product": "cc"},
    "SISO": {"gdss": "gdss", "ghat": "ghat", "observer": "observer", "product": "cc_hat"},
    "INF_SSO": {"gdss": "gdss", "observer": "observer", "product": "cc"},
}


def test_stats_report_structure_sizes(scso_pos):
    stats = check(scso_pos, "SCSO").stats
    assert stats["gdss_states"] == 4
    assert stats["observer_states"] == 3
    assert stats["product_states"] == 7
    # The decider never builds the labelled structures; its sizes must
    # still be those of the reference constructions.
    for aut in random_instances(200) + larger_instances():
        verdicts = check_all(aut)
        built = reference_structures(aut)
        for prop in SIZED:
            assert dict(verdicts[prop].stats) == reference_stats(built, prop), prop


def test_verdicts_are_deterministic():
    for name in FIXTURE_NAMES:
        records = []
        for _ in range(2):
            aut = load(fixture_path(name)).to_automaton()
            verdicts = check_all(aut, witness=True)
            records.append(
                json.dumps([verdict_record(verdicts[p]) for p in PROPERTIES], sort_keys=True)
            )
        assert records[0] == records[1]


def test_shared_path_matches_individual_checks():
    for index, (label, aut) in enumerate(fuzz_instances(40, 5, seed=99)):
        shared = check_all(aut, witness=True)
        for prop in PROPERTIES:
            alone = check(aut, prop, witness=True)
            assert verdict_record(alone) == verdict_record(shared[prop]), label


def test_implications_on_fuzzed_instances():
    for label, aut in fuzz_instances(250, 6, seed=4242):
        verdicts = check_all(aut)
        for premise, conclusion in IMPLICATIONS:
            assert not (verdicts[premise].holds and not verdicts[conclusion].holds), label


def test_incomparability_witnessed_by_fixtures(iso_not_siso, siso_not_scso):
    # The strong current-state and strong initial-state notions do not
    # imply each other; each fixture separates one direction.
    first = check_all(iso_not_siso)
    assert first["SCSO"].holds and not first["SISO"].holds
    second = check_all(siso_not_scso)
    assert second["SISO"].holds and not second["SCSO"].holds


# --- reference decider ------------------------------------------------------
#
# The decider as first written on the labelled structures: the first bad
# state of a structure's breadth-first tree, sizes from its states and
# counted arcs, and witnesses read off the labelled trees.  The observers
# and products are the reference constructions of conftest.


def reference_structures(g):
    gdss, ghat = build_gdss(g), build_ghat(g)
    observer = reference_observer(gdss)
    iso_observer = reference_observer(replace(g, initial_states=g.non_secret_initials))
    return {
        "gdss": gdss,
        "ghat": ghat,
        "observer": observer,
        "iso_observer": iso_observer,
        "estimates": reference_observer(g),
        "cc": reference_cc(g, observer),
        "cc_hat": reference_cc(ghat, observer),
        "cc_iso": reference_cc(ghat, iso_observer),
    }


def reference_stats(built, prop):
    stats = {}
    for prefix, name in SIZED[prop].items():
        structure = built[name]
        stats[f"{prefix}_states"] = len(structure.states)
        arcs = structure.arcs.values() if isinstance(structure, CCAutomaton) else [structure.transitions]
        stats[f"{prefix}_transitions"] = sum(map(len, arcs))
    return stats


def tree_path(parents, node):
    """The root above ``node`` in a labelled breadth-first tree and the
    (label, node) steps from it down to ``node``."""
    steps = []
    while parents[node] is not None:
        parent, label = parents[node]
        steps.append((label, node))
        node = parent
    return node, steps[::-1]


def reference_product_witness(cc, offending):
    """The tree path to ``offending`` in a labelled product."""
    start, steps = tree_path(cc.parents, offending)
    events = tuple(pair[0] for pair, _ in steps)
    observation = tuple(pair[1] for pair, _ in steps if pair[1] is not None)
    run = Run(start.left, tuple((pair[0], dst.left) for pair, dst in steps))
    return Witness(events, observation, offending, run)


def reference_estimate_witness(g, estimates, offending):
    """The observation on the tree path to the estimate ``offending``,
    realized by a shortest run of ``g``."""
    _, steps = tree_path(estimates.parents, offending)
    observation = tuple(event for event, _ in steps)
    run = _realize_observation(g, observation)
    return Witness(run.events, observation, offending, run)


def reference_check_all(g):
    built = reference_structures(g)
    collapsed = lambda state: state.right is None
    decided_on = {
        "CSO": ("estimates", lambda q: q <= g.secret_states),
        "ISO": ("cc_iso", collapsed),
        "SCSO": ("cc", lambda s: s.right is None and s.left in g.secret_states),
        "SISO": ("cc_hat", collapsed),
        "INF_SSO": ("cc", collapsed),
    }
    verdicts = {}
    for prop, (name, bad) in decided_on.items():
        structure = built[name]
        offending = next(filter(bad, structure.parents), None)
        found = None
        if offending is not None:
            if isinstance(structure, CCAutomaton):
                found = reference_product_witness(structure, offending)
            else:
                found = reference_estimate_witness(g, structure, offending)
        verdicts[prop] = Verdict(prop, offending is None, found, reference_stats(built, prop))
    return verdicts


@pytest.mark.parametrize(
    "family",
    [lambda: random_instances(200), larger_instances, chain_instances],
    ids=["fuzz", "larger", "chains"],
)
def test_matches_reference_decider(family):
    for aut in family():
        verdicts = check_all(aut, witness=True)
        expected = reference_check_all(aut)
        for prop in PROPERTIES:
            assert json.dumps(verdict_record(verdicts[prop])) == json.dumps(
                verdict_record(expected[prop])
            ), prop


def test_decider_builds_no_labelled_structure(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built while deciding")

    automata = {name: load_fixture(name) for name in FIXTURE_NAMES}
    monkeypatch.setattr(ObserverAutomaton, "__init__", refuse)
    monkeypatch.setattr(CCAutomaton, "__init__", refuse)
    for name, aut in automata.items():
        verdicts = check_all(aut, witness=True)
        for prop, expected in EXPECTED_VERDICTS[name].items():
            assert verdicts[prop].holds is expected, (name, prop)
            assert (verdicts[prop].witness is None) is expected, (name, prop)
            if not expected:
                assert replay_witness(aut, verdicts[prop].witness, prop), (name, prop)


# --- counting first, walking only for a witness -------------------------------


def test_iso_observer_is_the_estimates_when_the_starts_close_alike():
    # p reaches the secret initial s silently, so restarting at p alone
    # closes to the same initial estimate.
    silent_start = validate(
        states=["p", "s", "q"],
        events=[("a", True), ("u", False)],
        transitions=[("p", "u", "s"), ("s", "a", "q")],
        initial_states=["p", "s"],
        secret_states=["s"],
    )
    automata = [silent_start, *map(load_fixture, FIXTURE_NAMES), *random_instances(200)]
    shared = 0
    for aut in automata:
        structures = Structures(aut)
        tables = aut._closed_images
        alike = tables.closure(aut.non_secret_initials) == tables.closure(aut.initial_states)
        assert (structures.iso_observer_search is structures.estimates_search) is alike
        shared += alike
        restarted = replace(aut, initial_states=aut.non_secret_initials)
        assert_same_observer(render_observer(structures.iso_observer_search), build_observer(restarted))
    assert 0 < shared < len(automata)


def test_no_walk_without_witness(monkeypatch):
    automata = [*map(load_fixture, FIXTURE_NAMES), *random_instances(200)]
    expected = [{p: v.holds for p, v in check_all(aut, witness=True).items()} for aut in automata]

    def refuse(*args):
        raise AssertionError("a product was walked without a witness asked for")

    monkeypatch.setattr("opacheck.verifiers.search_product", refuse)
    for aut, holds in zip(automata, expected):
        assert {p: v.holds for p, v in check_all(aut).items()} == holds


def recorded_walks(monkeypatch):
    """Every product walk the decider starts, in order, as (left, search)."""
    from opacheck import verifiers

    walks = []
    search_product = verifiers.search_product

    def recording(left, roots, initial, steps):
        walks.append((left, search_product(left, roots, initial, steps)))
        return walks[-1][1]

    monkeypatch.setattr(verifiers, "search_product", recording)
    return walks


def test_walk_stops_at_the_first_bad_state(cso_not_scso, monkeypatch):
    walks = recorded_walks(monkeypatch)
    verdict = check(cso_not_scso, "INF_SSO", witness=True)
    assert not verdict.holds
    [(left, search)] = walks
    assert left is cso_not_scso
    assert len(search.parents) < verdict.stats["product_states"]
    assert search.collapsed == [next(key for key in search.parents if key < len(left.states))]


def test_scso_and_inf_sso_share_one_walk(monkeypatch):
    walks = recorded_walks(monkeypatch)
    both_fail = 0
    for label, aut in fuzz_instances(300, 6, seed=31):
        for order in (("SCSO", "INF_SSO"), ("INF_SSO", "SCSO")):
            walks.clear()
            verdicts = check_all(aut, witness=True, properties=order)
            assert len(walks) <= 1, label
            both_fail += not (verdicts["SCSO"].holds or verdicts["INF_SSO"].holds)
    assert both_fail


# --- pinned decider output -----------------------------------------------------

GOLDEN_VERDICTS = pathlib.Path(__file__).resolve().parent / "golden" / "verdicts.sha256"


def verdict_digest(automata):
    """sha256 of the sorted-key JSON records of ``check_all(aut,
    witness=True)``, one line per verdict, over ``automata`` in order."""
    digest = hashlib.sha256()
    for aut in automata:
        for verdict in check_all(aut, witness=True).values():
            digest.update(json.dumps(verdict_record(verdict), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def verdict_digest_lines():
    """One "group digest" line per fixture, per 500-instance chunk of a
    3,000-instance fuzz stream, and for the larger and chain instances."""
    lines = [f"{name} {verdict_digest([load_fixture(name)])}\n" for name in FIXTURE_NAMES]
    fuzzed = [aut for _, aut in fuzz_instances(3000, 8, seed=7)]
    for start in range(0, len(fuzzed), 500):
        group = f"fuzz-seed7-max8-{start}-{start + 499}"
        lines.append(f"{group} {verdict_digest(fuzzed[start:start + 500])}\n")
    lines.append(f"larger-and-chains {verdict_digest([*larger_instances(), *chain_instances()])}\n")
    return lines


def test_verdicts_match_golden_digests():
    """Verdicts, stats and witnesses stay byte-identical to the recorded ones."""
    assert "".join(verdict_digest_lines()) == GOLDEN_VERDICTS.read_text()
