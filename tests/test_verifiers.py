import hashlib
import json
import pathlib
import random
from collections import deque
from dataclasses import replace

import pytest

from opacheck import (
    Automaton,
    Run,
    build_gdss,
    build_ghat,
    check,
    check_all,
    load,
    replay_witness,
    validate,
    Witness,
)
from opacheck.constructions import Graph, build_structure, search_observer, subset_label
from opacheck.generate import IMPLICATIONS, fuzz_instances
from opacheck.model import AllStatesSecretWarning
from opacheck.oracle import _SHAPES, _adjacency, _fold
from opacheck.verifiers import PROPERTIES, Structures, Verdict, _realize_observation, verdict_record

from conftest import (
    CCState,
    EXPECTED_VERDICTS,
    FIXTURE_NAMES,
    ReferenceProduct,
    cc_state,
    chain_instances,
    enumerate_runs,
    fixture_path,
    is_valid,
    kth_from_end,
    larger_instances,
    load_fixture,
    offending_label,
    outgoing,
    project,
    random_instances,
    reference_cc,
    reference_observer,
    state_label,
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
    assert witness.offending_state == "(x5,{})"
    assert witness.run.start == "x0"
    assert witness.run.end == "x5"
    assert replay_witness(cso_not_scso, witness, "SCSO")


def test_siso_witness_details(siso_neg):
    verdict = check(siso_neg, "SISO", witness=True)
    assert not verdict.holds
    witness = verdict.witness
    assert witness.event_sequence == ("a", "a")
    assert witness.offending_state == "(x5,{})"
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
                state = offending_label(aut, run, prop)
                shorter = Witness(run.events, project(aut, run.events), state, run)
                assert not replay_witness(aut, shorter, prop), (label, prop, run)


def test_siso_leak_set_is_exact(siso_neg):
    cc = build_structure(siso_neg, "cc-hat")
    leaking = {s for s in map(cc_state, (label for label, _ in cc.states)) if s.right is None}
    assert leaking == {CCState("x4", None), CCState("x5", None)}


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
    assert witness.offending_state == "{x2}"
    assert is_valid(witness.run, siso_not_scso)
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


@pytest.mark.parametrize("k", range(2, 11))
def test_kth_observed_event_from_the_end_sizes(k):
    # The estimates are exponential in k and G_dss linear; every property
    # holds, since q0 explains every observation without a secret state.
    g = kth_from_end(k)
    verdicts = check_all(g)
    assert all(verdict.holds for verdict in verdicts.values())
    cso, scso = verdicts["CSO"].stats, verdicts["SCSO"].stats
    assert (cso["estimate_states"], cso["estimate_transitions"]) == (2**k, 2 ** (k + 1))
    assert (scso["gdss_states"], scso["gdss_transitions"]) == (k, 2 * k - 1)
    assert (scso["observer_states"], scso["observer_transitions"]) == (2 ** (k - 1), 2**k)
    assert scso["product_states"] == (k + 3) * 2 ** (k - 2)
    assert scso["product_transitions"] == (k + 2) * 2 ** (k - 1)
    assert len(build_structure(g, "observer").states) == scso["observer_states"]
    assert len(build_structure(g, "cc").states) == scso["product_states"]


def reversed_names(aut):
    """``aut`` with its states renamed so that their sorted order reverses."""
    rename = dict(zip(aut.states, reversed(aut.states)))
    return Automaton.build(
        states=aut.states,
        events=aut.events,
        observable=aut.observable,
        transitions=[(rename[s], e, rename[t]) for s, e, t in aut.transitions],
        initial_states=[rename[x] for x in aut.initial_states],
        secret_states=[rename[x] for x in aut.secret_states],
    )


def test_renaming_the_states_keeps_verdicts_sizes_and_witness_lengths():
    """Reversing the states' order reverses their bits and reorders each
    product walk, but no verdict, size or witness length (a shortest one)
    may change, and every witness of the renamed automaton replays.  The
    chains' masks are wider than 64 bits."""
    for aut in (*random_instances(300), *larger_instances(), *chain_instances()):
        renamed = reversed_names(aut)
        before, after = check_all(aut, witness=True), check_all(renamed, witness=True)
        for prop in PROPERTIES:
            assert (after[prop].holds, after[prop].stats) == (before[prop].holds, before[prop].stats)
            found = after[prop].witness
            if found is not None:
                assert len(found.event_sequence) == len(before[prop].witness.event_sequence)
                assert replay_witness(renamed, found, prop) is True


def copied_state(aut, rng):
    """``aut`` with a copy of a state x picked by ``rng``: the copy has x's
    secret flag and copies of x's out-arcs, and each in-arc of x goes to
    the copy instead with probability one half."""
    x = rng.choice(aut.states)
    copy = x + "~"
    while copy in aut.states:
        copy += "~"
    arcs = [(s, e, copy if t == x and rng.random() < 0.5 else t) for s, e, t in aut.transitions]
    arcs += [(copy, e, t) for s, e, t in aut.transitions if s == x]
    return Automaton.build(
        states=(*aut.states, copy),
        events=aut.events,
        observable=aut.observable,
        transitions=arcs,
        initial_states=aut.initial_states,
        secret_states=aut.secret_states | ({copy} if x in aut.secret_states else set()),
    )


def test_copying_a_state_keeps_verdicts():
    """Mapping the copy back onto x takes each run of the new automaton to
    a run of ``aut`` with the same events and secret visits, and each run
    of ``aut`` lifts back, so no verdict may change; every witness of the
    new automaton replays.  Sizes may grow, so they are not compared."""
    rng = random.Random(2109)
    for aut in (*random_instances(300), *larger_instances(), *chain_instances()):
        copied = copied_state(aut, rng)
        before, after = check_all(aut), check_all(copied, witness=True)
        for prop in PROPERTIES:
            assert after[prop].holds == before[prop].holds, prop
            if not after[prop].holds:
                assert replay_witness(copied, after[prop].witness, prop) is True


def merged_silent_sccs(aut):
    """``aut`` with each strongly connected component of its silent arcs
    between states of the same secret flag merged into its least-named
    state, and the silent self-loops this makes dropped."""
    secret = aut.secret_states
    silent = {x: [] for x in aut.states}
    for s, e, t in aut.transitions:
        if e not in aut.observable and (s in secret) == (t in secret):
            silent[s].append(t)
    reach = {}
    for x in aut.states:
        seen, frontier = {x}, [x]
        while frontier:
            for t in silent[frontier.pop()]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        reach[x] = seen
    # aut.states is sorted, so the first member found is the least-named.
    rep = {x: next(y for y in aut.states if y in reach[x] and x in reach[y]) for x in aut.states}
    # A silent arc between two members of one component becomes a loop.
    made_loop = lambda s, e, t: s != t and rep[s] == rep[t] and e not in aut.observable
    return Automaton.build(
        states=rep.values(),
        events=aut.events,
        observable=aut.observable,
        transitions=[(rep[s], e, rep[t]) for s, e, t in aut.transitions if not made_loop(s, e, t)],
        initial_states=[rep[x] for x in aut.initial_states],
        secret_states=[rep[x] for x in secret],
    )


def test_merging_silent_sccs_keeps_verdicts():
    """Inside a merged component, each state reaches each other by silent
    moves through states of its own flag, so a run of either automaton
    maps to a run of the other with the same observation and the same
    secret visits, and no verdict may change; every witness of the merged
    automaton replays.  Sizes may shrink, so they are not compared."""
    merged_any = False
    for aut in (*random_instances(300), *larger_instances(), *chain_instances()):
        merged = merged_silent_sccs(aut)
        merged_any |= merged != aut
        before, after = check_all(aut), check_all(merged, witness=True)
        for prop in PROPERTIES:
            assert after[prop].holds == before[prop].holds, prop
            if not after[prop].holds:
                assert replay_witness(merged, after[prop].witness, prop) is True
    assert merged_any


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
    iso_observer = reference_observer(replace(g, initial_states=g.initial_states - g.secret_states))
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
        product = isinstance(structure, ReferenceProduct)
        arcs = structure.arcs.values() if product else [structure.transitions]
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
    return Witness(events, observation, state_label(offending), run)


def reference_realize(g, observation):
    """Shortest run of ``g`` whose projection equals ``observation``, or
    None.  Breadth-first over (state, consumed-prefix-length) nodes;
    silent transitions keep the prefix length, matching observable
    transitions advance it."""
    target = len(observation)
    parents = dict.fromkeys((state, 0) for state in sorted(g.initial_states))
    queue = deque(parents)
    while queue:
        node = queue.popleft()
        state, consumed = node
        if consumed == target:
            start, steps = tree_path(parents, node)
            return Run(start[0], tuple((event, dst) for event, (dst, _) in steps))
        for event, dst in outgoing(g, state):
            if event not in g.observable:
                successor = (dst, consumed)
            elif event == observation[consumed]:
                successor = (dst, consumed + 1)
            else:
                continue
            if successor not in parents:
                parents[successor] = (node, event)
                queue.append(successor)
    return None


def reference_estimate_witness(g, estimates, offending):
    """The observation on the tree path to the estimate ``offending``,
    realized by a shortest run of ``g``."""
    _, steps = tree_path(estimates.parents, offending)
    observation = tuple(event for event, _ in steps)
    run = reference_realize(g, observation)
    return Witness(run.events, observation, subset_label(offending), run)


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
            if isinstance(structure, ReferenceProduct):
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


def test_realizer_matches_the_reference():
    """The run read off the product walk is the reference's shortest run,
    on every realizable observation of up to four events."""
    realized = 0
    for aut in [*random_instances(200), *chain_instances()]:
        observer = search_observer(aut)
        level = [((), observer.initial)] if observer.initial else []
        for _ in range(5):
            for observation, _ in level:
                expected = reference_realize(aut, observation)
                assert expected is not None
                assert _realize_observation(aut, observation) == expected, observation
                realized += 1
            level = [
                (observation + (event,), observer.steps[event][number])
                for observation, number in level
                for event in observer.alphabet
                if observer.steps[event][number]
            ]
    assert realized > 1000


def test_decider_builds_no_labelled_structure(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} built while deciding")

    automata = {name: load_fixture(name) for name in FIXTURE_NAMES}
    monkeypatch.setattr(Graph, "__new__", refuse)
    with pytest.raises(AssertionError, match="Graph built"):
        build_structure(automata["scso_positive"], "cc")
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
        plain = aut.initial_states - aut.secret_states
        alike = tables.closure(plain) == tables.closure(aut.initial_states)
        iso_observer = structures.observer_search(False, plain)
        assert (iso_observer is structures.observer_search(False, aut.initial_states)) is alike
        shared += alike
        again = search_observer(replace(aut, initial_states=plain))
        assert (iso_observer.masks, iso_observer.steps) == (again.masks, again.steps)
        assert iso_observer.parents == again.parents
    assert 0 < shared < len(automata)


def test_no_walk_without_witness(monkeypatch):
    automata = [*map(load_fixture, FIXTURE_NAMES), *random_instances(200)]
    expected = [{p: v.holds for p, v in check_all(aut, witness=True).items()} for aut in automata]

    def refuse(*args):
        raise AssertionError("a product was walked without a witness asked for")

    monkeypatch.setattr("opacheck.verifiers.search_product", refuse)
    for aut, holds in zip(automata, expected):
        assert {p: v.holds for p, v in check_all(aut).items()} == holds


def test_iso_and_cso_alone_build_no_core(monkeypatch):
    """Every property is decided on the tables of the system and of its
    ``_core`` view, so neither ``G_dss`` nor the secret-start part is ever
    built; CSO or ISO decided alone does not take the view, and ISO
    counts its one product.  The verdicts are unchanged."""
    from opacheck import constructions, verifiers

    automata = [
        *map(load_fixture, FIXTURE_NAMES),
        *random_instances(200),
        *larger_instances(),
        *chain_instances(),
    ]
    expected = [check_all(aut, witness=True) for aut in automata]

    def refuse(g):
        raise AssertionError("a part of the system was built")

    counted = []
    count_product = verifiers.count_product

    def counting(*args):
        counted.append(args)
        return count_product(*args)

    monkeypatch.setattr(constructions, "build_gdss", refuse)
    monkeypatch.setattr(constructions, "build_ghat", refuse)
    monkeypatch.setattr(verifiers, "count_product", counting)
    for aut, verdicts in zip(automata, expected):
        records = {p: verdict_record(v) for p, v in check_all(aut, witness=True).items()}
        assert records == {p: verdict_record(v) for p, v in verdicts.items()}
        for prop in ("ISO", "CSO"):
            counted.clear()
            fresh = replace(aut)
            assert verdict_record(check(fresh, prop, witness=True)) == verdict_record(verdicts[prop])
            assert len(counted) == (prop == "ISO")
            assert "_core" not in fresh.__dict__


def test_exports_build_only_the_part_they_show(monkeypatch):
    """The observer and cc are built on the system's own tables; only
    cc-hat, gdss and ghat build a part of the system, and only the
    last three search the core's observer, once."""
    from opacheck import constructions

    built = []

    def recording(name):
        build = getattr(constructions, name)
        return lambda *args, **kwargs: built.append(name) or build(*args, **kwargs)

    for name in ("build_gdss", "build_ghat", "search_observer"):
        monkeypatch.setattr(constructions, name, recording(name))
    parts = {
        "observer": ["search_observer"],
        "cc": ["search_observer"],
        "cc-hat": ["search_observer", "build_ghat"],
        "gdss": ["build_gdss"],
        "ghat": ["build_ghat"],
    }
    assert set(parts) == set(constructions.STRUCTURES)
    for aut in map(load_fixture, FIXTURE_NAMES):
        for name, expected in parts.items():
            built.clear()
            build_structure(aut, name)
            assert built == expected, name


def test_unknown_structure_is_rejected_before_any_is_searched(cso_not_scso, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a structure was searched")

    for name in ("build_gdss", "build_ghat", "search_observer"):
        monkeypatch.setattr(f"opacheck.constructions.{name}", refuse)
    for name in ("cc_hat", "CC", "", "gdss "):
        with pytest.raises(ValueError, match=f"unknown structure: {name!r}"):
            build_structure(cso_not_scso, name)


def recorded_walks(monkeypatch):
    """Every product walk the decider starts, in order, as (left, search)."""
    from opacheck import verifiers

    walks = []
    search_product = verifiers.search_product

    def recording(left, roots, initial, steps, stop=0):
        walks.append((left, search_product(left, roots, initial, steps, stop)))
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


def test_verdicts_come_in_the_order_given():
    orders = [
        PROPERTIES[::-1],
        PROPERTIES[2:] + PROPERTIES[:2],
        ("INF_SSO", "CSO"),
        ("SISO", "SCSO", "ISO"),
        *((prop,) for prop in PROPERTIES),
    ]
    for aut in [*map(load_fixture, FIXTURE_NAMES), *random_instances(200)]:
        records = {p: verdict_record(v) for p, v in check_all(aut, witness=True).items()}
        for order in orders:
            verdicts = check_all(aut, witness=True, properties=order)
            assert list(verdicts) == list(order)
            assert [verdict_record(verdicts[p]) for p in order] == [records[p] for p in order]


def test_unknown_property_is_rejected_before_any_is_decided(cso_not_scso, monkeypatch):
    def refuse(*args):
        raise AssertionError("a property was decided")

    monkeypatch.setattr("opacheck.verifiers.search_observer", refuse)
    with pytest.raises(ValueError, match="NOPE"):
        check_all(cso_not_scso, properties=("CSO", "NOPE"))


def test_properties_given_as_one_string_are_rejected(cso_not_scso, monkeypatch):
    # A string would split into one-letter names; the message names it whole.
    def refuse(*args):
        raise AssertionError("a property was decided")

    monkeypatch.setattr("opacheck.verifiers.search_observer", refuse)
    for properties in ("SCSO", "CSO", ""):
        with pytest.raises(ValueError, match=f"bad properties {properties!r}: must be a collection"):
            check_all(cso_not_scso, properties=properties)


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
