"""Text format for automata, plus export of all structures.

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

:func:`document_of` and :func:`export_dot` write an automaton or a
:class:`~opacheck.constructions.Graph`, the labelled form in which an
observer or a product is exported: subsets are named ``{x1,x5}`` (the
empty estimate ``{}``), product states ``(x4,{x1,x5})``, event pairs
``(a,a)`` or ``(u,eps)``; two equal names are a ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .constructions import Graph
from .model import Automaton, Transition, ValidationError, _assemble, _checked, check_description

FORMAT_MAGIC = "opacity-nfa"
FORMAT_VERSION = 1


# Syntax and description errors are one type, which carries the line.
FormatError = ValidationError


@dataclass(frozen=True)
class AutomatonDocument:
    """Structured form of an automaton file.

    Construction rejects what :func:`~opacheck.model.validate` rejects
    before pruning (malformed entries, bad names, repeated entries,
    undeclared references) and canonicalizes (sorts) all lists, so any
    two documents describing the same automaton compare equal.
    """

    format_version: int
    states: tuple[str, ...]
    events: tuple[tuple[str, bool], ...]
    transitions: tuple[Transition, ...]
    initial: tuple[str, ...]
    secret: tuple[str, ...]

    def __post_init__(self):
        # A bool or a float can equal 1 and would write a header that parse rejects.
        if type(self.format_version) is not int or self.format_version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {self.format_version}")
        groups = _checked(self.states, self.events, self.transitions, self.initial, self.secret)
        for field, group in zip(fields(self)[1:], groups):
            object.__setattr__(self, field.name, tuple(sorted(group)))

    def to_automaton(self) -> Automaton:
        """Return the described automaton, pruning unreachable states and
        warning as :func:`validate` does.  Construction already checked the
        description, so it is not checked again; an empty reachable state
        set still raises :class:`ValidationError`."""
        return _assemble(self.states, self.events, self.transitions, self.initial, self.secret)


# Each directive's argument count and the message for any other count, in
# the order of the AutomatonDocument fields its entries fill.
_DIRECTIVES = {
    "state": (1, "'state' takes exactly one name"),
    "event": (2, "'event' takes a name and 'obs' or 'unobs'"),
    "trans": (3, "'trans' takes source, event and target"),
    "init": (1, "'init' takes exactly one state name"),
    "secret": (1, "'secret' takes exactly one state name"),
}


def parse(data: "bytes | str") -> AutomatonDocument:
    """Parse an automaton file; errors carry the offending line number.

    A leading UTF-8 byte order mark is skipped.  Lines end at ``\r\n``,
    ``\r`` or ``\n`` only, not at a form feed, U+2028 or the other
    breaks of :meth:`str.splitlines`, which would end a comment early.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not valid UTF-8: {exc}") from None
    text = data.removeprefix("\ufeff")

    entries: dict[str, list] = {directive: [] for directive in _DIRECTIVES}
    lines: dict[str, list[int]] = {directive: [] for directive in _DIRECTIVES}
    header_seen = False

    rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(rows, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if not header_seen:
            if tokens[0] != FORMAT_MAGIC or len(tokens) != 2:
                raise FormatError(f"expected header '{FORMAT_MAGIC} {FORMAT_VERSION}'", lineno)
            version = tokens[1]
            if not (version.isascii() and version.isdigit()):  # int() takes "+1", "0_1" and "\u0661"
                raise FormatError(f"bad version {version!r}", lineno)
            if version != str(FORMAT_VERSION):
                raise FormatError(f"unsupported format version {version}", lineno)
            header_seen = True
            continue
        directive, args = tokens[0], tokens[1:]
        if directive not in _DIRECTIVES:
            raise FormatError(f"unknown directive {directive!r}", lineno)
        arity, message = _DIRECTIVES[directive]
        if len(args) != arity or directive == "event" and args[1] not in ("obs", "unobs"):
            raise FormatError(message, lineno)
        if directive == "event":
            args = [args[0], args[1] == "obs"]
        entries[directive].append(args[0] if arity == 1 else tuple(args))
        lines[directive].append(lineno)

    if not header_seen:
        raise FormatError(f"missing header '{FORMAT_MAGIC} {FORMAT_VERSION}'")

    try:
        return AutomatonDocument(FORMAT_VERSION, *entries.values())
    except ValidationError:
        # Only a broken file is checked twice: again, to find the line.
        check_description(*entries.values(), lines=tuple(lines.values()))
        raise


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


def _graph(structure: "Automaton | Graph") -> Graph:
    """``structure`` as a labelled graph; raises ValidationError when two
    of its states or two of its events have the same label."""
    if isinstance(structure, Automaton):
        structure = Graph(
            "automaton",
            [(s, s in structure.secret_states) for s in structure.states],
            sorted(structure.initial_states),
            [(e, e in structure.observable) for e in structure.events],
            list(structure.transitions),
        )
    elif not isinstance(structure, Graph):
        raise TypeError(f"cannot export {type(structure).__name__}")
    for kind, named in (("state", structure.states), ("event", structure.events)):
        if len(dict(named)) < len(named):  # a label repeats; find the first
            seen: set[str] = set()
            for name, _ in named:
                if name in seen:
                    raise ValidationError(f"two {kind}s are both named {name!r}")
                seen.add(name)
    return structure


def document_of(structure: "Automaton | Graph") -> AutomatonDocument:
    """Document form of any structure; secret product states are those
    with a secret left component."""
    graph = _graph(structure)
    return AutomatonDocument(
        format_version=FORMAT_VERSION,
        states=tuple(label for label, _ in graph.states),
        events=tuple(graph.events),
        transitions=tuple(graph.transitions),
        initial=tuple(graph.initial),
        secret=tuple(label for label, is_secret in graph.states if is_secret),
    )


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(structure: "Automaton | Graph") -> str:
    """Render any of the structures as a deterministic DOT digraph.

    Secret states (or product states with a secret left component) are
    filled, initial states get an entry arrow, silent transitions are
    dashed.
    """
    graph = _graph(structure)
    # Each state's label is quoted once; a label that is no state's, where it is used.
    quoted = {label: _quote(label) for label, _ in graph.states}
    attrs = {name: f"label={_quote(name)}" + ("" if obs else ", style=dashed") for name, obs in graph.events}
    out = [f"digraph {graph.name} {{", "  rankdir=LR;", '  node [shape=circle];']
    # Entry markers are nodes too: their prefix starts no state's label.
    prefix = "__start_"
    while any(label.startswith(prefix) for label, _ in graph.states):
        prefix += "_"
    for index, label in enumerate(graph.initial):
        marker = _quote(f"{prefix}{index}")
        out.append(f"  {marker} [shape=point, label=\"\"];")
        out.append(f"  {marker} -> {quoted.get(label) or _quote(label)};")
    for label, is_secret in graph.states:
        fill = ", style=filled, fillcolor=lightgray" if is_secret else ""
        out.append(f"  {quoted[label]} [label={quoted[label]}{fill}];")
    for src, label, dst in graph.transitions:
        src_q, dst_q = quoted.get(src) or _quote(src), quoted.get(dst) or _quote(dst)
        out.append(f"  {src_q} -> {dst_q} [{attrs[label]}];")
    out.append("}")
    return "\n".join(out) + "\n"
