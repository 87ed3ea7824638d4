import random
import warnings

import pytest

from opacheck import (
    FormatError,
    ValidationError,
    build_ghat,
    export_dot,
    load,
    parse,
    serialize,
    validate,
)
from opacheck.constructions import STRUCTURES, Graph, build_structure
from opacheck.fileformat import AutomatonDocument, document_of
from opacheck.generate import fuzz_automaton
from opacheck.model import AllStatesSecretWarning, PrunedStatesWarning, check_description

from conftest import FIXTURE_NAMES, assert_valid_dot, fixture_path


MINIMAL = b"opacity-nfa 1\nstate q\ninit q\n"

# Characters a name may be built from; all but the first four break the
# name rule, each in a different way (whitespace, comment, control,
# line separator, byte order mark).
NAME_CHARS = ("a", "{", ",", "é", " ", "\t", "#", "\x07", "\u2028", "\ufeff")


def hostile_description(rng):
    """A raw description with short, often broken or repeated names and
    at least one initial state."""

    def name():
        # Mostly legal and nonempty, so that enough documents are accepted.
        length = 0 if rng.random() < 0.05 else rng.randint(1, 4)
        return "".join(
            rng.choice(NAME_CHARS[:4] if rng.random() < 0.95 else NAME_CHARS)
            for _ in range(length)
        )

    states = [name() for _ in range(rng.randint(1, 4))]
    events = [(name(), rng.random() < 0.5) for _ in range(rng.randint(0, 3))]
    event_names = [e for e, _ in events] or [name()]
    transitions = [
        (rng.choice(states), rng.choice(event_names), rng.choice(states))
        for _ in range(rng.randint(0, 4))
    ]
    if rng.random() < 0.1:
        transitions.append((name(), rng.choice(event_names), rng.choice(states)))
    initial = [rng.choice(states) for _ in range(rng.randint(1, 2))]
    secret = [rng.choice(states) for _ in range(rng.randint(0, 2))]
    return states, events, transitions, initial, secret


class TestParse:
    def test_fixture_file(self):
        doc = parse(fixture_path("cso_but_not_scso").read_bytes())
        assert len(doc.states) == 7
        assert doc.events == (("a", True), ("b", True), ("u", False))
        assert doc.initial == ("x0",)
        assert doc.secret == ("x4", "x5")
        assert ("x0", "u", "x1") in doc.transitions

    def test_minimal_document(self):
        doc = parse(MINIMAL)
        assert doc.states == ("q",)
        assert doc.events == ()
        assert doc.initial == ("q",)

    def test_comments_blank_lines_and_order_insensitivity(self):
        text = b"""
# leading comment
opacity-nfa 1

trans q a q   # trailing comment
init q
event a obs
state q
"""
        doc = parse(text)
        assert doc.transitions == (("q", "a", "q"),)

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            (b"state q\n", "header", 1),
            (b"opacity-nfa 2\nstate q\n", "version", 1),
            (b"opacity-nfa one\n", "version", 1),
            # The version is exactly the ASCII digit 1: no sign, leading
            # zero, underscore, Arabic-Indic or fullwidth digit.
            (b"opacity-nfa +1\n", "bad version '+1'", 1),
            (b"opacity-nfa 01\n", "unsupported format version 01", 1),
            (b"opacity-nfa 0_1\n", "bad version '0_1'", 1),
            ("opacity-nfa \u0661\n".encode(), "bad version '\u0661'", 1),
            ("opacity-nfa \uff11\n".encode(), "bad version '\uff11'", 1),
            (b"opacity-nfa 1\nwibble q\n", "directive", 2),
            (b"opacity-nfa 1\nstate q\nstate q\n", "duplicate state", 3),
            (b"opacity-nfa 1\nstate q\nevent a maybe\n", "'event' takes", 3),
            (b"opacity-nfa 1\nstate q\nevent a obs\nevent a unobs\n", "duplicate event", 4),
            (b"opacity-nfa 1\nstate q\ninit r\n", "unknown state", 3),
            (b"opacity-nfa 1\nstate q\nsecret r\n", "unknown state", 3),
            (b"opacity-nfa 1\nstate q\ntrans q a q\n", "unknown event", 3),
            (b"opacity-nfa 1\nstate q\nevent a obs\ntrans q a q\ntrans q a q\n", "duplicate transition", 5),
            (b"opacity-nfa 1\nstate q\ninit q\ninit q\n", "duplicate init", 4),
            (b"opacity-nfa 1\nstate q\nstate\n", "'state' takes", 3),
            (b"opacity-nfa 1\nstate q\ninit\n", "'init' takes", 3),
            (b"opacity-nfa 1\nstate q\nsecret q q\n", "'secret' takes", 3),
            (b"opacity-nfa 1\nstate q\ntrans q a\n", "'trans' takes", 3),
            (b"opacity-nfa 1\nstate q\nevent a\n", "'event' takes", 3),
            (b"", "header", None),
            # Only \r\n, \r and \n end a line, so a form feed or a
            # vertical tab is blank space within one.
            (b"opacity-nfa 1\n\x0c\nstate q\ninit r\n", "unknown state", 4),
            (b"opacity-nfa 1\r\nstate q\x0bstate p\rinit r\r\n", "'state' takes", 2),
            (b"opacity-nfa 1\r\nstate q\rinit r\r\n", "unknown state", 3),
            # With several broken entries, the first broken rule names its
            # first broken entry: transitions before initial before secret
            # states, repeats before references, a source before its target
            # and its event.
            (b"opacity-nfa 1\nstate q\nevent a obs\ntrans q a r\ntrans s a q\n", "unknown state 'r'", 4),
            (b"opacity-nfa 1\nstate q\nevent a obs\ntrans r a s\n", "unknown state 'r'", 4),
            (b"opacity-nfa 1\nstate q\nevent a obs\ninit r\ntrans q a s\n", "unknown state 's'", 5),
            (
                b"opacity-nfa 1\nstate q\nevent a obs\ntrans q a r\ntrans q a q\ntrans q a q\n",
                "duplicate transition",
                6,
            ),
            (b"opacity-nfa 1\nstate q\nevent a obs\nsecret r\ninit s\n", "unknown state 's'", 5),
            (b"opacity-nfa 1\nstate q\nevent a obs\ntrans q b q\ntrans r a q\n", "unknown event 'b'", 4),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment, line):
        with pytest.raises(FormatError) as info:
            parse(text)
        assert fragment in str(info.value)
        assert info.value.line == line

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x1c", "\x0c"])
    def test_a_comment_runs_to_the_end_of_the_line(self, separator):
        # str.splitlines() ends a line at each of these separators, which
        # would declare state b from inside the comment.
        doc = parse(f"opacity-nfa 1\n# note{separator}state b\nstate a\ninit a\n")
        assert doc.states == ("a",)

    def test_leading_byte_order_mark_is_skipped(self):
        assert parse(b"\xef\xbb\xbf" + MINIMAL) == parse(MINIMAL)
        assert parse("\ufeff" + MINIMAL.decode()) == parse(MINIMAL)

    def test_rejects_non_utf8(self):
        with pytest.raises(FormatError):
            parse(b"\xff\xfe\x00")


class TestDocument:
    def test_shuffled_lists_canonicalize_to_same_bytes(self):
        sorted_doc = AutomatonDocument(
            format_version=1,
            states=("a", "b"),
            events=(("e", True), ("f", False)),
            transitions=(("a", "e", "b"), ("b", "f", "a")),
            initial=("a",),
            secret=("b",),
        )
        shuffled = AutomatonDocument(
            format_version=1,
            states=("b", "a"),
            events=(("f", False), ("e", True)),
            transitions=(("b", "f", "a"), ("a", "e", "b")),
            initial=("a",),
            secret=("b",),
        )
        assert sorted_doc == shuffled
        assert serialize(sorted_doc) == serialize(shuffled)

    def test_bad_names_rejected(self):
        with pytest.raises(FormatError):
            AutomatonDocument(1, ("a b",), (), (), (), ())
        with pytest.raises(FormatError):
            AutomatonDocument(1, ("ok",), (("", True),), (), (), ())
        # '#' starts a comment and would truncate the name on parse.
        with pytest.raises(FormatError):
            AutomatonDocument(1, ("a#b", "c"), (), (), (), ())
        with pytest.raises(FormatError):
            AutomatonDocument(1, ("a\x07b",), (), (), (), ())

    def test_unknown_references_rejected(self):
        with pytest.raises(FormatError):
            AutomatonDocument(1, ("a",), (), (("a", "e", "a"),), (), ())

    def test_version_checked(self):
        with pytest.raises(FormatError):
            AutomatonDocument(2, ("a",), (), (), (), ())

    @pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
    def test_version_is_the_int_one(self, version):
        # Both compare equal to 1, but serialize would write a header
        # that parse rejects.
        with pytest.raises(FormatError, match="unsupported format version"):
            AutomatonDocument(version, ("a",), (), (), ("a",), ())

    @pytest.mark.parametrize(
        "states,events,transitions,initial,error",
        [
            # A name that is not a string is rejected, never converted.
            (("a",), ((1, True),), (), ("a",), "bad event name 1"),
            # Any 3-element sequence is a transition.
            (("a",), (("e", True),), (["a", "e", "a"],), ("a",), None),
            # Entries of another length are rejected with a message.
            (("a",), (("e", True),), (("a", "e"),), ("a",), "bad transition ('a', 'e')"),
            (("a",), (("e",),), (), ("a",), "bad event ('e',)"),
            # A group of names given as one string is rejected, not split.
            ("ab", (), (), ("a",), "bad states 'ab'"),
            (("a",), (), (), "a", "bad initial states 'a'"),
            # A name that cannot be hashed is undeclared, in rule order.
            (("a",), (("e", True),), (("a", "e", ["a"]),), ("a",), "unknown state ['a']"),
            (("a",), (("e", True),), (("a", {"e": 1}, "a"),), ("a",), "unknown event {'e': 1}"),
            (("a",), (), (), (["a"],), "unknown state ['a']"),
            (
                ("a",),
                (("e", True),),
                (("a", "e", ["a"]), ("a", "e", "a"), ("a", "e", "a")),
                ("a",),
                "duplicate transition ('a', 'e', 'a')",
            ),
            # A group that is not iterable is named, as one given as a string is.
            (("a",), (), 7, ("a",), "bad transitions 7"),
            (7, (), (), ("a",), "bad states 7"),
            (("a",), 7, (), ("a",), "bad events 7"),
            (("a",), (), (), 5, "bad initial states 5"),
        ],
        ids=[
            "int-event-name",
            "list-transition",
            "short-transition",
            "unpaired-event",
            "string-states",
            "string-initial",
            "unhashable-target",
            "unhashable-event",
            "unhashable-initial",
            "repeat-before-unhashable",
            "int-transitions",
            "int-states",
            "int-events",
            "int-initial",
        ],
    )
    def test_entry_shapes_match_validate(self, states, events, transitions, initial, error):
        def outcome(build):
            try:
                return build()
            except ValidationError as exc:
                return str(exc)

        from_doc = outcome(
            lambda: AutomatonDocument(1, states, events, transitions, initial, ()).to_automaton()
        )
        from_raw = outcome(lambda: validate(states, events, transitions, initial))
        assert from_doc == from_raw
        if error is None:
            assert from_raw.transitions == (("a", "e", "a"),)
        else:
            assert from_raw.startswith(error)

    @pytest.mark.parametrize("entry", ["validate", "to_automaton"])
    @pytest.mark.parametrize(
        "category,states,secret",
        [(PrunedStatesWarning, ("a", "b"), ()), (AllStatesSecretWarning, ("a",), ("a",))],
        ids=["pruned", "all-secret"],
    )
    def test_warnings_point_at_the_caller(self, entry, category, states, secret):
        doc = AutomatonDocument(1, states, (), (), ("a",), secret)
        with pytest.warns(category) as caught:
            if entry == "validate":
                validate(states, (), (), ("a",), secret)
            else:
                doc.to_automaton()
        assert [w.filename for w in caught] == [__file__]

    def test_description_is_checked_once(self, monkeypatch):
        calls = []

        def counted(*groups):
            calls.append(groups)
            return check_description(*groups)

        monkeypatch.setattr("opacheck.model.check_description", counted)
        monkeypatch.setattr("opacheck.fileformat.check_description", counted)
        load(fixture_path("cso_but_not_scso")).to_automaton()
        assert len(calls) == 1
        validate(("a",), (("e", True),), (("a", "e", "a"),), ("a",))
        assert len(calls) == 2


class TestSerialize:
    def test_canonical_form_is_a_fixpoint(self):
        for name in FIXTURE_NAMES:
            raw = fixture_path(name).read_bytes()
            canonical = serialize(parse(raw))
            assert serialize(parse(canonical)) == canonical

    def test_round_trip_identity_on_random_documents(self):
        for index in range(200):
            doc = document_of(fuzz_automaton(base_seed=11, index=index))
            assert parse(serialize(doc)) == doc

    def test_hostile_names_round_trip_and_share_rules_with_validate(self):
        rng = random.Random(2024)
        accepted = 0
        for _ in range(2000):
            states, events, transitions, initial, secret = hostile_description(rng)
            try:
                doc = AutomatonDocument(1, states, events, transitions, initial, secret)
            except ValidationError as exc:
                doc_error = str(exc)
            else:
                doc_error = None
                accepted += 1
                assert parse(serialize(doc)) == doc
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # pruned or all-secret
                    validate(states, events, transitions, initial, secret)
            except ValidationError as exc:
                assert str(exc) == doc_error
            else:
                assert doc_error is None
        assert 200 <= accepted <= 1800  # both outcomes are well exercised

    def test_serialized_automaton_revalidates(self):
        for index in range(50):
            aut = fuzz_automaton(base_seed=13, index=index)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # all-secret instances warn
                again = parse(serialize(document_of(aut))).to_automaton()
            assert again == aut


class TestExportDot:
    def test_product_contains_named_pair_state(self, scso_pos):
        dot = export_dot(build_structure(scso_pos, "cc"))
        assert '"(x4,{x1,x5})"' in dot
        assert_valid_dot(dot)

    def test_empty_estimate_rendered_as_empty_braces(self, cso_not_scso):
        dot = export_dot(build_structure(cso_not_scso, "cc"))
        assert '"(x5,{})"' in dot
        assert '"(u,eps)"' in dot
        assert '"(a,a)"' in dot

    def test_empty_automaton_is_a_valid_digraph(self, scso_pos):
        dot = export_dot(build_ghat(scso_pos))  # no secret initial states
        assert_valid_dot(dot)
        assert "->" not in dot.replace("rankdir", "")

    def test_every_fixture_and_structure_parses(self):
        for name in FIXTURE_NAMES:
            aut = parse(fixture_path(name).read_bytes()).to_automaton()
            structures = [aut, *(build_structure(aut, name) for name in STRUCTURES)]
            for structure in structures:
                assert_valid_dot(export_dot(structure))

    def test_export_is_deterministic(self, siso_neg):
        cc = build_structure(siso_neg, "cc-hat")
        assert export_dot(cc) == export_dot(cc) == export_dot(build_structure(siso_neg, "cc-hat"))

    def test_entry_marker_is_no_state(self):
        # A state named like the first entry marker stays its own node,
        # and the marker's arrow is the only arrow out of the marker.
        aut = validate(["__start_0", "q"], [("a", True)], [("q", "a", "__start_0")], ["q"], ["__start_0"])
        dot = export_dot(aut)
        assert_valid_dot(dot)
        lines = dot.splitlines()
        nodes = [line.split(" [")[0].strip() for line in lines if line.startswith('  "') and "->" not in line]
        assert len(nodes) == len(set(nodes)) == len(aut.states) + 1
        (marker,) = [line.split(" [")[0].strip() for line in lines if "shape=point" in line]
        assert marker.strip('"') not in aut.states
        assert [line for line in lines if line.startswith(f"  {marker} ->")] == [f'  {marker} -> "q";']

    def test_quotes_and_backslashes_are_escaped(self):
        aut = validate(
            ['a"b', "c\\d"],
            [('e"', True), ("u\\", False)],
            [('a"b', 'e"', "c\\d"), ("c\\d", "u\\", 'a"b')],
            ['a"b'],
            ["c\\d"],
        )
        assert export_dot(aut) == (
            "digraph automaton {\n"
            "  rankdir=LR;\n"
            "  node [shape=circle];\n"
            '  "__start_0" [shape=point, label=""];\n'
            '  "__start_0" -> "a\\"b";\n'
            '  "a\\"b" [label="a\\"b"];\n'
            '  "c\\\\d" [label="c\\\\d", style=filled, fillcolor=lightgray];\n'
            '  "a\\"b" -> "c\\\\d" [label="e\\""];\n'
            '  "c\\\\d" -> "a\\"b" [label="u\\\\", style=dashed];\n'
            "}\n"
        )
        cc = export_dot(build_structure(aut, "cc"))
        assert '  "(c\\\\d,{})" -> "(a\\"b,{})" [label="(u\\\\,eps)", style=dashed];' in cc.splitlines()
        assert_valid_dot(cc)

    def test_endpoint_that_is_no_state_is_quoted(self):
        graph = Graph("g", [("a", False)], ["a"], [("e", True)], [("a", "e", 'b"')])
        assert export_dot(graph).splitlines()[-2] == '  "a" -> "b\\"" [label="e"];'

    @pytest.mark.parametrize(
        "states,events,kind",
        [([("a", False), ("a", True)], [], "states are both named 'a'"), ([], [("e", True)] * 2, "events")],
    )
    def test_repeated_label_rejected(self, states, events, kind):
        for write in (export_dot, document_of):
            with pytest.raises(ValidationError, match=f"two {kind}"):
                write(Graph("g", states, [], events, []))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            export_dot("not a structure")
        with pytest.raises(TypeError):
            document_of("not a structure")


class TestNativeExports:
    def test_observer_document_round_trips(self, scso_pos):
        doc = document_of(build_structure(scso_pos, "observer"))
        assert parse(serialize(doc)) == doc
        assert "{x1,x5}" in doc.states
        assert doc.initial == ("{x0,x3}",)

    def test_cc_document_round_trips(self, cso_not_scso):
        doc = document_of(build_structure(cso_not_scso, "cc"))
        assert parse(serialize(doc)) == doc
        assert "(x5,{})" in doc.states
        assert ("(u,eps)", False) in doc.events
        assert "(x5,{})" in doc.secret

    def test_colliding_event_labels_are_rejected(self):
        # The observable "eps,eps" and the silent "eps,eps,eps" both pair
        # up as "(eps,eps,eps,eps)".
        aut = validate(
            states=["q"],
            events=[("eps,eps", True), ("eps,eps,eps", False)],
            transitions=[("q", "eps,eps", "q"), ("q", "eps,eps,eps", "q")],
            initial_states=["q"],
        )
        cc = build_structure(aut, "cc")
        for render in (document_of, export_dot):
            with pytest.raises(ValidationError, match=r"'\(eps,eps,eps,eps\)'"):
                render(cc)
