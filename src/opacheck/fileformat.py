"""Text format for automata, plus DOT export of all structures.

The on-disk format is line oriented, one directive per line::

    opacity-nfa 1
    state x0
    event a obs
    event u unobs
    init x0
    secret x4
    trans x0 a x1

Blank lines and ``#`` comments are ignored and directives may appear in
any order, but the canonical serialization is fixed: header, then the
states, events, initial states, secret states and transitions, each
group sorted.  Canonical ordering is part of the format so that diffs
between files are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import CCAutomaton, ObserverAutomaton, cc_label, pair_label, subset_label
from .model import Automaton, Transition, validate

FORMAT_MAGIC = "opacity-nfa"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """A document is syntactically or structurally broken."""

    def __init__(self, message: str, line: "int | None" = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _check_name(name: str, kind: str, line: "int | None" = None) -> None:
    # '#' would start a comment and non-printable characters can end a
    # line, so either would make a serialized name parse differently.
    if not name or "#" in name or not name.isprintable() or any(ch.isspace() for ch in name):
        raise FormatError(
            f"bad {kind} name {name!r}: must be nonempty and printable, without whitespace or '#'",
            line,
        )


@dataclass(frozen=True)
class AutomatonDocument:
    """Structured form of an automaton file.

    Construction canonicalizes (sorts) all lists and rejects duplicate
    names, duplicate transitions and references to undeclared names, so
    any two documents describing the same automaton compare equal.
    """

    format_version: int
    states: tuple[str, ...]
    events: tuple[tuple[str, bool], ...]
    transitions: tuple[Transition, ...]
    initial: tuple[str, ...]
    secret: tuple[str, ...]

    def __post_init__(self):
        if self.format_version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {self.format_version}")
        states = tuple(sorted(self.states))
        events = tuple(sorted((str(n), bool(f)) for n, f in self.events))
        transitions = tuple(sorted(tuple(t) for t in self.transitions))
        initial = tuple(sorted(self.initial))
        secret = tuple(sorted(self.secret))
        for name in states:
            _check_name(name, "state")
        for name, _ in events:
            _check_name(name, "event")
        if len(set(states)) != len(states):
            raise FormatError("duplicate state name")
        event_names = [n for n, _ in events]
        if len(set(event_names)) != len(event_names):
            raise FormatError("duplicate event name")
        if len(set(transitions)) != len(transitions):
            raise FormatError("duplicate transition")
        if len(set(initial)) != len(initial) or len(set(secret)) != len(secret):
            raise FormatError("duplicate initial or secret entry")
        declared = set(states)
        declared_events = set(event_names)
        for src, event, dst in transitions:
            if src not in declared or dst not in declared:
                raise FormatError(f"transition {src} {event} {dst} references an undeclared state")
            if event not in declared_events:
                raise FormatError(f"transition {src} {event} {dst} references an undeclared event")
        for name in initial:
            if name not in declared:
                raise FormatError(f"initial state {name!r} is not declared")
        for name in secret:
            if name not in declared:
                raise FormatError(f"secret state {name!r} is not declared")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "secret", secret)

    def to_automaton(self) -> Automaton:
        """Validate and return the described automaton (may warn/raise)."""
        return validate(
            states=self.states,
            events=self.events,
            transitions=self.transitions,
            initial_states=self.initial,
            secret_states=self.secret,
        )


def parse(data: "bytes | str") -> AutomatonDocument:
    """Parse an automaton file; errors carry the offending line number."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not valid UTF-8: {exc}") from None
    else:
        text = data

    states: list[tuple[str, int]] = []
    events: list[tuple[str, bool, int]] = []
    transitions: list[tuple[Transition, int]] = []
    initial: list[tuple[str, int]] = []
    secret: list[tuple[str, int]] = []
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not header_seen:
            if tokens[0] != FORMAT_MAGIC or len(tokens) != 2:
                raise FormatError(f"expected header '{FORMAT_MAGIC} {FORMAT_VERSION}'", lineno)
            try:
                version = int(tokens[1])
            except ValueError:
                raise FormatError(f"bad version {tokens[1]!r}", lineno) from None
            if version != FORMAT_VERSION:
                raise FormatError(f"unsupported format version {version}", lineno)
            header_seen = True
            continue
        directive, args = tokens[0], tokens[1:]
        if directive == "state":
            if len(args) != 1:
                raise FormatError("'state' takes exactly one name", lineno)
            states.append((args[0], lineno))
        elif directive == "event":
            if len(args) != 2 or args[1] not in ("obs", "unobs"):
                raise FormatError("'event' takes a name and 'obs' or 'unobs'", lineno)
            events.append((args[0], args[1] == "obs", lineno))
        elif directive == "init":
            if len(args) != 1:
                raise FormatError("'init' takes exactly one state name", lineno)
            initial.append((args[0], lineno))
        elif directive == "secret":
            if len(args) != 1:
                raise FormatError("'secret' takes exactly one state name", lineno)
            secret.append((args[0], lineno))
        elif directive == "trans":
            if len(args) != 3:
                raise FormatError("'trans' takes source, event and target", lineno)
            transitions.append(((args[0], args[1], args[2]), lineno))
        else:
            raise FormatError(f"unknown directive {directive!r}", lineno)

    if not header_seen:
        raise FormatError(f"missing header '{FORMAT_MAGIC} {FORMAT_VERSION}'")

    # Re-run the document checks with line information available.
    seen_states: set[str] = set()
    for name, lineno in states:
        _check_name(name, "state", lineno)
        if name in seen_states:
            raise FormatError(f"duplicate state {name!r}", lineno)
        seen_states.add(name)
    seen_events: set[str] = set()
    for name, _, lineno in events:
        _check_name(name, "event", lineno)
        if name in seen_events:
            raise FormatError(f"duplicate event {name!r}", lineno)
        seen_events.add(name)
    for (src, event, dst), lineno in transitions:
        if src not in seen_states:
            raise FormatError(f"unknown state {src!r}", lineno)
        if dst not in seen_states:
            raise FormatError(f"unknown state {dst!r}", lineno)
        if event not in seen_events:
            raise FormatError(f"unknown event {event!r}", lineno)
    if len({t for t, _ in transitions}) != len(transitions):
        dupes = [ln for i, (t, ln) in enumerate(transitions) if t in {u for u, _ in transitions[:i]}]
        raise FormatError("duplicate transition", dupes[0])
    for group, kind in ((initial, "init"), (secret, "secret")):
        seen: set[str] = set()
        for name, lineno in group:
            if name not in seen_states:
                raise FormatError(f"unknown state {name!r}", lineno)
            if name in seen:
                raise FormatError(f"duplicate {kind} entry {name!r}", lineno)
            seen.add(name)

    return AutomatonDocument(
        format_version=FORMAT_VERSION,
        states=tuple(n for n, _ in states),
        events=tuple((n, f) for n, f, _ in events),
        transitions=tuple(t for t, _ in transitions),
        initial=tuple(n for n, _ in initial),
        secret=tuple(n for n, _ in secret),
    )


def serialize(doc: AutomatonDocument) -> bytes:
    """Canonical byte form: fixed directive order, sorted groups."""
    lines = [f"{FORMAT_MAGIC} {doc.format_version}"]
    lines.extend(f"state {name}" for name in doc.states)
    lines.extend(f"event {name} {'obs' if flag else 'unobs'}" for name, flag in doc.events)
    lines.extend(f"init {name}" for name in doc.initial)
    lines.extend(f"secret {name}" for name in doc.secret)
    lines.extend(f"trans {src} {event} {dst}" for src, event, dst in doc.transitions)
    return ("\n".join(lines) + "\n").encode("utf-8")


def load(path) -> AutomatonDocument:
    """Read and parse an automaton file from ``path``."""
    with open(path, "rb") as handle:
        return parse(handle.read())


def document_of(aut: Automaton) -> AutomatonDocument:
    """Document form of an automaton value."""
    return AutomatonDocument(
        format_version=FORMAT_VERSION,
        states=aut.states,
        events=tuple((e, e in aut.observable) for e in aut.events),
        transitions=aut.transitions,
        initial=tuple(sorted(aut.initial_states)),
        secret=tuple(sorted(aut.secret_states)),
    )


def observer_document(obs: ObserverAutomaton) -> AutomatonDocument:
    """Flatten an observer to the automaton format; subset states become
    ``{x1,x5}``-style names."""
    return AutomatonDocument(
        format_version=FORMAT_VERSION,
        states=tuple(subset_label(q) for q in obs.states),
        events=tuple((e, True) for e in obs.alphabet),
        transitions=tuple(
            (subset_label(q), event, subset_label(q2))
            for (q, event), q2 in obs.transitions.items()
        ),
        initial=() if obs.initial is None else (subset_label(obs.initial),),
        secret=(),
    )


def cc_document(cc: CCAutomaton) -> AutomatonDocument:
    """Flatten a product to the automaton format; event pairs become
    ``(a,a)``-style names, tagged observable when both sides move."""
    return AutomatonDocument(
        format_version=FORMAT_VERSION,
        states=tuple(cc_label(s) for s in cc.states),
        events=tuple((pair_label(p), p[1] is not None) for p in cc.event_pairs),
        transitions=tuple(
            (cc_label(src), pair_label(pair), cc_label(dst)) for src, pair, dst in cc.transitions
        ),
        initial=tuple(sorted(cc_label(s) for s in cc.initial_states)),
        secret=tuple(sorted(cc_label(s) for s in cc.states if cc.is_left_secret(s))),
    )


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_lines(
    name: str,
    nodes: list[tuple[str, bool]],
    initial: list[str],
    edges: list[tuple[str, str, str, bool]],
) -> str:
    """Assemble a digraph; nodes are (label, is_secret), edges are
    (src, label, dst, is_observable)."""
    out = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=circle];']
    for index, label in enumerate(initial):
        marker = f"__start_{index}"
        out.append(f"  {_quote(marker)} [shape=point, label=\"\"];")
        out.append(f"  {_quote(marker)} -> {_quote(label)};")
    for label, is_secret in nodes:
        attrs = [f"label={_quote(label)}"]
        if is_secret:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgray")
        out.append(f"  {_quote(label)} [{', '.join(attrs)}];")
    for src, label, dst, observable in edges:
        attrs = [f"label={_quote(label)}"]
        if not observable:
            attrs.append("style=dashed")
        out.append(f"  {_quote(src)} -> {_quote(dst)} [{', '.join(attrs)}];")
    out.append("}")
    return "\n".join(out) + "\n"


def export_dot(structure: "Automaton | ObserverAutomaton | CCAutomaton") -> str:
    """Render any of the structures as a deterministic DOT digraph.

    Secret states (or product states with a secret left component) are
    filled, initial states get an entry arrow, silent transitions are
    dashed, subset states are labelled ``{x1,x5}`` and the empty estimate
    ``{}``.
    """
    if isinstance(structure, Automaton):
        return _dot_lines(
            "automaton",
            [(s, s in structure.secret_states) for s in structure.states],
            sorted(structure.initial_states),
            [(s, e, t, e in structure.observable) for s, e, t in structure.transitions],
        )
    if isinstance(structure, ObserverAutomaton):
        edges = sorted(
            (subset_label(q), event, subset_label(q2), True)
            for (q, event), q2 in structure.transitions.items()
        )
        return _dot_lines(
            "observer",
            [(subset_label(q), False) for q in structure.states],
            [] if structure.initial is None else [subset_label(structure.initial)],
            edges,
        )
    if isinstance(structure, CCAutomaton):
        return _dot_lines(
            "product",
            [(cc_label(s), structure.is_left_secret(s)) for s in structure.states],
            [cc_label(s) for s in structure.initial_states],
            [
                (cc_label(src), pair_label(pair), cc_label(dst), pair[1] is not None)
                for src, pair, dst in structure.transitions
            ],
        )
    raise TypeError(f"cannot export {type(structure).__name__}")
