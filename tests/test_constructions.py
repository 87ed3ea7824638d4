import itertools
from dataclasses import replace

import pytest

from opacheck import (
    Automaton,
    build_gdss,
    build_ghat,
    validate,
)
from opacheck.constructions import (
    Graph,
    build_structure,
    count_product,
    observer_graph,
    pair_label,
    product_graph,
    search_observer,
    search_product,
)
from opacheck.model import AllStatesSecretWarning
from opacheck.verifiers import Structures, check_all

from conftest import (
    CCState,
    cc_state,
    chain,
    chain_instances,
    enumerate_runs,
    event_pair,
    graph_step,
    is_non_secret,
    is_valid,
    larger_instances,
    outgoing,
    product_arcs,
    product_tree,
    project,
    random_instances,
    reference_cc,
    reference_graph,
    reference_observer,
    state_label,
    subset_tree,
    successors,
)


def bfs_states(aut, sources, allowed):
    """Reference reachability: plain BFS restricted to ``allowed``."""
    seen = {s for s in sources if s in allowed}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        for _, target in outgoing(aut, state):
            if target in allowed and target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def states_with_observation(aut, observation):
    """Reference estimate: all states reachable by some run whose
    projection equals ``observation``, found by a per-observation BFS."""
    target = len(observation)
    seen = {(s, 0) for s in aut.initial_states}
    frontier = list(seen)
    while frontier:
        state, consumed = frontier.pop()
        for event, dst in outgoing(aut, state):
            if event in aut.observable:
                if consumed < target and event == observation[consumed]:
                    node = (dst, consumed + 1)
                else:
                    continue
            else:
                node = (dst, consumed)
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return frozenset(state for state, consumed in seen if consumed == target)


def observer_words(search, depth):
    """All observation words of length <= depth on which an observer
    search is defined, each with the subset it leads to."""
    if not search.initial:
        return []
    frontier = [((), search.initial)]
    words = list(frontier)
    for _ in range(depth):
        frontier = [
            (word + (event,), successor)
            for word, number in frontier
            for event in search.alphabet
            if (successor := search.steps[event][number])
        ]
        words.extend(frontier)
    return [(word, search.subset(number)) for word, number in words]


def core_search(aut):
    """The non-secret core's observer search, as the verifiers run it."""
    return Structures(aut).observer_search(True, aut.initial_states - aut.secret_states)


class TestBuildGdss:
    def test_known_core(self, scso_pos):
        gdss = build_gdss(scso_pos)
        assert gdss.states == ("x0", "x1", "x3", "x5")
        assert gdss.initial_states == frozenset({"x0"})
        assert gdss.secret_states == frozenset()
        assert gdss.events == ("a", "b", "u")
        assert gdss.transitions == (
            ("x0", "a", "x1"),
            ("x0", "u", "x3"),
            ("x3", "a", "x5"),
            ("x5", "b", "x5"),
        )

    def test_secret_free_system_unchanged(self, secret_free):
        gdss = build_gdss(secret_free)
        assert gdss.states == secret_free.states
        assert gdss.transitions == secret_free.transitions
        assert gdss.initial_states == secret_free.initial_states
        assert set(gdss.events) == {e for _, e, _ in secret_free.transitions}

    def test_can_be_empty(self):
        with pytest.warns(AllStatesSecretWarning):
            aut = validate(
                states=["a"],
                events=[],
                transitions=[],
                initial_states=["a"],
                secret_states=["a"],
            )
        gdss = build_gdss(aut)
        assert gdss.states == ()
        assert gdss.transitions == ()

    def test_matches_restricted_bfs(self):
        for aut in random_instances(60):
            gdss = build_gdss(aut)
            allowed = set(aut.states) - set(aut.secret_states)
            assert set(gdss.states) == bfs_states(aut, aut.initial_states - aut.secret_states, allowed)

    def test_states_are_nonsecret_and_witnessed(self):
        for aut in random_instances(30, max_states=5):
            gdss = build_gdss(aut)
            assert not set(gdss.states) & set(aut.secret_states)
            endpoints = set(gdss.initial_states)
            for run in enumerate_runs(gdss, len(gdss.states)):
                endpoints.add(run.end)
                assert is_valid(run, aut)
                assert is_non_secret(run, aut)
            assert endpoints == set(gdss.states)


class TestBuildGhat:
    def test_known_restriction(self, siso_neg):
        ghat = build_ghat(siso_neg)
        assert ghat.states == ("x1", "x3", "x4", "x5")
        assert ghat.initial_states == frozenset({"x1"})
        assert ghat.secret_states == frozenset({"x1"})
        assert ghat.transitions == (
            ("x1", "a", "x3"),
            ("x1", "u", "x3"),
            ("x3", "a", "x5"),
            ("x3", "b", "x4"),
        )

    def test_empty_without_secret_initials(self, scso_pos):
        ghat = build_ghat(scso_pos)
        assert ghat.states == ()
        assert ghat.initial_states == frozenset()

    def test_matches_plain_bfs(self):
        for aut in random_instances(60):
            ghat = build_ghat(aut)
            start = aut.initial_states & aut.secret_states
            assert set(ghat.states) == bfs_states(aut, start, set(aut.states))


class TestBuildObserver:
    # The observer is the core's search; export labels it as a Graph.
    def test_known_observer(self, scso_pos):
        obs = build_structure(scso_pos, "observer")
        assert obs.initial == ["{x0,x3}"]
        assert obs.states == [("{x0,x3}", False), ("{x1,x5}", False), ("{x5}", False)]
        assert graph_step(obs, "{x0,x3}", "a") == "{x1,x5}"
        assert graph_step(obs, "{x0,x3}", "b") is None
        assert graph_step(obs, "{x1,x5}", "b") == "{x5}"
        assert graph_step(obs, "{x5}", "b") == "{x5}"

    def test_deterministic_fully_observable_source(self):
        aut = validate(
            states=["p", "q", "r"],
            events=[("a", True), ("b", True)],
            transitions=[("p", "a", "q"), ("q", "b", "r"), ("r", "a", "r")],
            initial_states=["p"],
        )
        search = search_observer(aut)
        subsets = [search.subset(number) for number in range(1, len(search.masks))]
        assert set(subsets) == {frozenset({s}) for s in "pqr"}
        for event, row in search.steps.items():
            for number, successor in enumerate(row):
                if successor:
                    (src,) = search.subset(number)
                    assert search.subset(successor) == frozenset(successors(aut, src, event))

    def test_empty_source(self):
        with pytest.warns(AllStatesSecretWarning):
            aut = validate(
                states=["p"], events=[], transitions=[], initial_states=["p"], secret_states=["p"]
            )
        search = core_search(aut)
        assert search.initial == 0
        assert search.size == (0, 0)
        assert build_structure(aut, "observer") == Graph("observer", [], [], [], [])

    def test_subsets_nonempty_and_accessible(self):
        for aut in random_instances(40):
            search = core_search(aut)
            assert all(search.masks[1:])
            reached = {search.initial} - {0}
            frontier = list(reached)
            while frontier:
                number = frontier.pop()
                for event in search.alphabet:
                    successor = search.steps[event][number]
                    if successor and successor not in reached:
                        reached.add(successor)
                        frontier.append(successor)
            assert reached == set(range(1, len(search.masks)))

    def test_against_per_observation_oracle(self):
        for aut in random_instances(30, max_states=5):
            gdss = build_gdss(aut)
            search = core_search(aut)
            seen_words = observer_words(search, 4)
            for word, subset in seen_words:
                assert subset == states_with_observation(gdss, word)
            # Unaccepted observations must correspond to no run at all.
            alphabet = search.alphabet
            accepted = {word for word, _ in seen_words}
            for length in range(3):
                for word in itertools.product(alphabet, repeat=length):
                    if word not in accepted:
                        assert not states_with_observation(gdss, word)


class TestBuildCc:
    # The product is one walk of the core's search; export labels it as
    # a Graph, whose labels parse back into CCStates here.
    def test_known_product_states(self, scso_pos, cso_not_scso):
        cc = [cc_state(label) for label, _ in build_structure(scso_pos, "cc").states]
        assert CCState("x4", frozenset({"x1", "x5"})) in cc
        assert not [s for s in cc if s.right is None]

        cc1 = build_structure(cso_not_scso, "cc")
        leaking = [label for label, secret in cc1.states if secret and cc_state(label).right is None]
        assert leaking == ["(x5,{})"]
        assert CCState("x6", None) in [cc_state(label) for label, _ in cc1.states]

    def test_left_without_transitions(self):
        aut = validate(
            states=["p", "q"],
            events=[("a", True)],
            transitions=[("p", "a", "q")],
            initial_states=["p", "q"],
        )
        bare = Automaton.build(["p", "q"], ["a"], ["a"], [], ["p", "q"], [])
        cc = product_graph(bare, search_observer(aut))
        assert [label for label, _ in cc.states] == cc.initial == ["(p,{p,q})", "(q,{p,q})"]
        assert cc.transitions == []

    def test_empty_right_is_absorbing_and_silent_moves_keep_right(self):
        for aut in random_instances(40):
            for src, (event, right_part), dst in product_arcs(build_structure(aut, "cc")):
                if src.right is None:
                    assert dst.right is None
                if right_part is None:
                    assert event in aut.events and event not in aut.observable
                    assert dst.right == src.right
                else:
                    assert event == right_part and event in aut.observable

    def test_product_paths_project_equally(self):
        # Both components of every bounded product path carry the same
        # observation: the silent-erased left word equals the right word.
        for aut in random_instances(25, max_states=5):
            cc = build_structure(aut, "cc")
            leaving = {}
            for src, pair, dst in cc.transitions:
                leaving.setdefault(src, []).append((event_pair(pair), dst))
            frontier = [(state, (), ()) for state in cc.initial]
            for _ in range(4):
                nxt = []
                for state, left_word, right_word in frontier:
                    for (event, right_part), dst in leaving.get(state, ()):
                        extended_left = left_word + (event,)
                        extended_right = (
                            right_word if right_part is None else right_word + (right_part,)
                        )
                        assert project(aut, extended_left) == extended_right
                        nxt.append((dst, extended_left, extended_right))
                frontier = nxt

    def test_left_language_is_preserved(self):
        # Every bounded run of the left automaton lifts to a product path
        # with the same left states, and the lifted estimate component is
        # the deterministic observer trajectory of its observation.
        for aut in random_instances(25, max_states=5):
            search = core_search(aut)
            cc = build_structure(aut, "cc")
            states = {cc_state(label) for label, _ in cc.states}
            arcs = set(product_arcs(cc))
            for run in enumerate_runs(aut, 4):
                number = search.initial
                here = CCState(run.start, search.subset(number) or None)
                assert here in states
                for event, target in run.steps:
                    if event in aut.observable:
                        number = search.steps[event][number]
                        pair = (event, event)
                    else:
                        pair = (event, None)
                    nxt = CCState(target, search.subset(number) or None)
                    assert (here, pair, nxt) in arcs
                    here = nxt

    def test_observer_language_equals_projected_language(self):
        # Bounded in both directions via run enumeration.
        for aut in random_instances(25, max_states=5):
            gdss = build_gdss(aut)
            projected = set()
            if gdss.states:
                for run in enumerate_runs(gdss, 4):
                    projected.add(project(gdss, run.events))
            accepted = {word for word, _ in observer_words(core_search(aut), 4)}
            # Every projection of a bounded run is accepted...
            assert projected <= accepted
            # ...and every accepted word of bounded length is a projection
            # of some run (which may be longer than the word).
            for word in accepted:
                assert states_with_observation(gdss, word)

    def test_initial_states_pair_with_observer_initial(self, iso_not_siso):
        assert build_structure(iso_not_siso, "cc").initial == ["(x1,{x1})", "(x2,{x1})"]

    def test_no_nonsecret_initials_starts_with_empty_estimate(self):
        # With every initial state secret there is no explanation for any
        # observation, so the product starts collapsed already.
        with pytest.warns(AllStatesSecretWarning):
            aut = validate(
                states=["p", "q"],
                events=[("a", True)],
                transitions=[("p", "a", "q")],
                initial_states=["p"],
                secret_states=["p", "q"],
            )
        assert core_search(aut).initial == 0
        cc = build_structure(aut, "cc")
        assert cc.initial == ["(p,{})"]
        assert cc.states == [("(p,{})", True), ("(q,{})", True)]

    def test_order_is_by_labels(self):
        # States sort by left state, then by the sorted names of the
        # estimate (the empty estimate first); arcs by pair, then target.
        def key(state):
            return (state.left, ("",) if state.right is None else tuple(sorted(state.right)))

        for aut in random_instances(40):
            for cc in (build_structure(aut, "cc"), build_structure(aut, "cc-hat")):
                states = [cc_state(label) for label, _ in cc.states]
                assert states == sorted(states, key=key)
                arcs = product_arcs(cc)
                expected = sorted(
                    set(arcs),
                    key=lambda t: (key(t[0]), t[1][0], t[1][1] or "", key(t[2])),
                )
                assert arcs == expected


class TestBreadthFirstTree:
    # The observer and the product keep the tree of their own
    # breadth-first search: one link per state, along an arc, from the
    # initial states, in discovery (so never decreasing depth) order.
    @staticmethod
    def check_tree(parents, states, roots, is_arc):
        assert set(parents) == set(states)
        assert [node for node, link in parents.items() if link is None] == list(roots)
        depth = {}
        for node, link in parents.items():
            if link is None:
                depth[node] = 0
            else:
                parent, label = link
                assert is_arc(parent, label, node)
                depth[node] = depth[parent] + 1
        assert list(depth.values()) == sorted(depth.values())

    def test_observer_tree(self):
        for aut in random_instances(40):
            structures = Structures(aut)
            for search in (
                structures.observer_search(False, aut.initial_states),
                structures.observer_search(True, aut.initial_states - aut.secret_states),
            ):
                parents = dict(enumerate(search.parents))
                del parents[0]  # the collapsed estimate is no state
                roots = (1,) if search.initial else ()
                self.check_tree(
                    parents,
                    range(1, len(search.masks)),
                    roots,
                    lambda q, e, q2: search.steps[e][q] == q2,
                )

    def test_product_tree(self):
        for aut in random_instances(40):
            obs = core_search(aut)
            ghat = build_ghat(aut)
            for left, cc in ((aut, build_structure(aut, "cc")), (ghat, build_structure(aut, "cc-hat"))):
                walk = search_product(left, left.initial_states, obs.initial, obs.steps)
                arcs = set(cc.transitions)
                self.check_tree(
                    product_tree(walk, obs),
                    [cc_state(label) for label, _ in cc.states],
                    [cc_state(label) for label in cc.initial],
                    lambda src, pair, dst: (
                        (state_label(src), pair_label(pair[0], pair[1] is not None), state_label(dst)) in arcs
                    ),
                )


# --- against the reference constructions -----------------------------------
#
# Every observer and product search the verifiers and export run must
# match the reference constructions of conftest: labelled, as Graphs, and
# in its breadth-first tree, discovery order included.


def assert_matches_reference(aut):
    """Every observer and product the verifiers search from ``aut``, and
    the three structures export renders."""
    structures = Structures(aut)
    gdss, ghat = build_gdss(aut), build_ghat(aut)
    plain = aut.initial_states - aut.secret_states
    restarted = replace(aut, initial_states=plain)
    core = structures.observer_search(True, plain)
    estimates = structures.observer_search(False, aut.initial_states)
    iso_observer = structures.observer_search(False, plain)
    expected = {source: reference_observer(source) for source in (aut, gdss, ghat, restarted)}
    searched = [(source, search_observer(source)) for source in expected]
    for source, search in [*searched, (aut, estimates), (restarted, iso_observer), (gdss, core)]:
        assert list(subset_tree(search).items()) == list(expected[source].parents.items())
        # The core is searched on g's alphabet; the exported observer keeps G_dss's.
        graph = build_structure(aut, "observer") if search is core else observer_graph(search)
        assert graph == reference_graph(expected[source])
    for left, search, source in (
        (aut, core, gdss),
        (ghat, core, gdss),
        (ghat, iso_observer, restarted),
        (aut, estimates, aut),
    ):
        product = reference_cc(left, expected[source])
        assert product_graph(left, search) == reference_graph(product)
        walk = search_product(left, left.initial_states, search.initial, search.steps)
        assert list(product_tree(walk, search).items()) == list(product.parents.items())
    assert build_structure(aut, "cc") == reference_graph(reference_cc(aut, expected[gdss]))
    assert build_structure(aut, "cc-hat") == reference_graph(reference_cc(ghat, expected[gdss]))


class TestMatchesReference:
    def test_fuzz_instances(self):
        for aut in random_instances(200):
            assert_matches_reference(aut)

    def test_larger_instances_with_many_silent_events(self):
        for aut in larger_instances():
            assert_matches_reference(aut)

    def test_silent_cycle(self):
        aut = validate(
            states=["p", "q", "r", "s"],
            events=[("a", True), ("u", False)],
            transitions=[
                ("p", "u", "q"),
                ("q", "u", "p"),
                ("q", "a", "r"),
                ("r", "u", "s"),
                ("s", "u", "r"),
                ("s", "a", "p"),
            ],
            initial_states=["p"],
        )
        obs = observer_graph(search_observer(aut))
        assert obs.initial == ["{p,q}"]
        assert graph_step(obs, "{p,q}", "a") == "{r,s}"
        assert graph_step(obs, "{r,s}", "a") == "{p,q}"
        assert_matches_reference(aut)

    def test_event_missing_from_a_subset(self):
        aut = validate(
            states=["p", "q"],
            events=[("a", True), ("b", True)],
            transitions=[("p", "a", "q"), ("q", "b", "p")],
            initial_states=["p"],
        )
        obs = observer_graph(search_observer(aut))
        assert graph_step(obs, "{p}", "b") is None
        assert graph_step(obs, "{q}", "a") is None
        assert obs.transitions == [("{p}", "a", "{q}"), ("{q}", "b", "{p}")]
        assert_matches_reference(aut)

    def test_no_initial_state(self):
        aut = Automaton.build(["p", "q"], ["a"], ["a"], [("p", "a", "q")], [], [])
        search = search_observer(aut)
        assert search.initial == 0 and search.parents == [None]
        obs = observer_graph(search)
        assert obs == Graph("observer", [], [], [("a", True)], [])
        assert obs == reference_graph(reference_observer(aut))
        cc = product_graph(aut, search)
        assert cc == reference_graph(reference_cc(aut, reference_observer(aut)))
        assert cc == Graph("product", [], [], [("(a,a)", True)], [])
        assert_matches_reference(aut)

    @pytest.mark.parametrize("backwards", [False, True], ids=["forwards", "backwards"])
    def test_chain_longer_than_a_machine_word(self, backwards):
        # 70 states, so subsets use bits past 64; every eighth step is
        # observable, the rest silent.  Backwards, each silent step leads
        # to a smaller name, so no single pass in name order closes it.
        names, transitions, events = chain(70, lambda i: "a" if i % 8 == 7 else "u")
        if backwards:
            transitions = [(t, e, s) for s, e, t in transitions]
        aut = validate(names, events, transitions, [names[-1] if backwards else names[0]])
        search = search_observer(aut)
        assert search.size[0] == 9
        assert max(mask.bit_count() for mask in search.masks) == 8
        obs = observer_graph(search)
        tail = obs.initial[0] if backwards else obs.states[-1][0]
        assert "c69" in tail
        assert_matches_reference(aut)

    def test_silent_chain_closes_in_one_subset(self):
        names, transitions, events = chain(70, lambda i: "u")
        aut = validate(names, events + [("a", True)], transitions + [("c69", "a", "c00")], ["c00"])
        obs = observer_graph(search_observer(aut))
        everything = "{" + ",".join(names) + "}"
        assert obs.initial == [everything]
        assert obs.transitions == [(everything, "a", everything)]
        assert_matches_reference(aut)

    def test_declared_observable_event_without_transitions(self):
        aut = validate(
            states=["p", "q"],
            events=[("a", True), ("b", True), ("u", False)],
            transitions=[("p", "a", "q"), ("q", "u", "p")],
            initial_states=["p"],
        )
        search = search_observer(aut)
        assert search.alphabet == ("a", "b")
        assert not any(search.steps["b"])
        cc = product_graph(aut, search)
        assert ("(b,b)", True) in cc.events
        assert all(pair != "(b,b)" for _, pair, _ in cc.transitions)
        assert_matches_reference(aut)


# --- counting a product ------------------------------------------------------
#
# The deciders take a product's sizes and collapsed states from a fixpoint
# over one mask of left states per estimate; the whole breadth-first
# walk must find the same.


def assert_count_matches_walk(aut):
    """Every product the verifiers count from ``aut``, and ``aut`` with
    its own estimate automaton; and the secret-start products counted
    and walked on ``aut``'s own tables, as the verifiers do, against the
    same products on ghat."""
    structures = Structures(aut)
    ghat = build_ghat(aut)
    plain = aut.initial_states - aut.secret_states
    core = structures.observer_search(True, plain)
    iso_observer = structures.observer_search(False, plain)
    estimates = structures.observer_search(False, aut.initial_states)
    for left, obs in ((aut, core), (ghat, core), (ghat, iso_observer), (aut, estimates)):
        count = count_product(left, left.initial_states, obs.initial, obs.steps)
        walk = search_product(left, left.initial_states, obs.initial, obs.steps)
        arcs = sum(len(outgoing(left, walk.left_of(key))) for key in walk.parents)
        assert (count.states, count.transitions) == (len(walk.parents), arcs)
        assert walk.collapsed == [key for key in walk.parents if key < len(left.states)]
        assert count.collapsed == sum(1 << key for key in walk.collapsed)
        assert count.left == sum(1 << left.states.index(x) for x in {walk.left_of(k) for k in walk.parents})
    roots = aut.initial_states & aut.secret_states
    for obs in (core, iso_observer):
        on_g = count_product(aut, roots, obs.initial, obs.steps)
        on_ghat = count_product(ghat, ghat.initial_states, obs.initial, obs.steps)
        assert on_g.size == on_ghat.size
        names = lambda left, mask: [left.states[i] for i in range(len(left.states)) if mask >> i & 1]
        assert names(aut, on_g.collapsed) == names(ghat, on_ghat.collapsed)
        assert names(aut, on_g.left) == list(ghat.states)
        walks = [search_product(aut, roots, obs.initial, obs.steps)]
        walks.append(search_product(ghat, ghat.initial_states, obs.initial, obs.steps))
        order = []
        for walk in walks:
            n = len(walk.left.states)
            label = lambda key: (walk.left_of(key), key // n)
            order.append(
                [(label(key), link and (label(link[0]), link[1])) for key, link in walk.parents.items()]
            )
        assert order[0] == order[1]
    ghat_size = (len(ghat.states), len(ghat.transitions))
    for verdict in check_all(aut, properties=("ISO", "SISO")).values():
        assert (verdict.stats["ghat_states"], verdict.stats["ghat_transitions"]) == ghat_size


class TestCountMatchesWalk:
    def test_fuzz_instances(self):
        for aut in random_instances(200):
            assert_count_matches_walk(aut)

    def test_larger_instances(self):
        for aut in larger_instances():
            assert_count_matches_walk(aut)

    def test_chains_longer_than_a_machine_word(self):
        for aut in chain_instances():
            assert_count_matches_walk(aut)

    def test_silent_cycles(self):
        # Two silent cycles joined by observable steps, with a secret
        # initial state on the second, so that every product is nonempty.
        aut = validate(
            states=["p", "q", "r", "s"],
            events=[("a", True), ("b", True), ("u", False)],
            transitions=[
                ("p", "u", "q"),
                ("q", "u", "p"),
                ("q", "a", "r"),
                ("r", "u", "s"),
                ("s", "u", "r"),
                ("s", "a", "p"),
                ("s", "b", "q"),
            ],
            initial_states=["p", "r"],
            secret_states=["r"],
        )
        assert build_structure(aut, "ghat").states
        assert_count_matches_walk(aut)

    def test_no_initial_state(self):
        aut = Automaton.build(["p", "q"], ["a"], ["a"], [("p", "a", "q")], [], [])
        assert count_product(aut, aut.initial_states, 0, {"a": [0]}) == (0, 0, 0, 0)
        assert_count_matches_walk(aut)

    def test_event_outside_the_observer_alphabet_and_empty_ghat(self):
        # b leads only into the secret s, so the non-secret core's
        # observer has no b and every b-step of the system collapses; no
        # initial state is secret, so ghat is empty.
        aut = validate(
            states=["p", "q", "s"],
            events=[("a", True), ("b", True)],
            transitions=[("p", "a", "q"), ("p", "b", "s"), ("s", "a", "s")],
            initial_states=["p"],
            secret_states=["s"],
        )
        structures = Structures(aut)
        # The search runs on the system's alphabet; the exported observer
        # keeps only the events the core steps on.
        assert build_structure(aut, "observer").events == [("a", True)]
        core = structures.observer_search(True, aut.initial_states - aut.secret_states)
        assert not any(core.steps["b"])
        assert build_structure(aut, "ghat").states == ()
        assert count_product(aut, aut.initial_states, core.initial, core.steps).collapsed == 1 << aut.states.index("s")
        assert count_product(aut, aut.initial_states & aut.secret_states, core.initial, core.steps) == (0, 0, 0, 0)
        assert_count_matches_walk(aut)


# --- stopping a product walk ---------------------------------------------
#
# A witness walk stops at the first bad state it discovers.  Stopped
# anywhere, it must have discovered exactly what the whole walk discovers
# up to that state, in the same order, so that its tree path is the
# whole walk's and a later caller may reuse it.


@pytest.mark.parametrize(
    "instances",
    [lambda: random_instances(200), larger_instances, chain_instances],
    ids=["fuzz", "larger", "chains"],
)
def test_stopped_walk_is_a_prefix_of_the_whole_walk(instances):
    stopped_early = 0
    for aut in instances():
        n = len(aut.states)
        for obs in (core_search(aut), search_observer(aut)):
            args = (aut, aut.initial_states, obs.initial, obs.steps)
            whole = search_product(*args)
            items = list(whole.parents.items())
            roots = sum(link is None for _, link in items)
            for key in whole.collapsed:
                walk = search_product(*args, stop=1 << key)
                # It stops at ``key``, or, for a root, once the roots are in.
                length = max(list(whole.parents).index(key) + 1, roots)
                assert list(walk.parents.items()) == items[:length]
                assert walk.collapsed == [k for k in walk.parents if k < n]
                assert walk.collapsed == whole.collapsed[: len(walk.collapsed)]
                assert walk.first_collapsed(1 << key) == key
                stopped_early += length < len(items)
    assert stopped_early
