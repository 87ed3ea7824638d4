"""Command line front end.

Exit codes: 0 when everything requested holds (or, for fuzz, when there
are no discrepancies), 1 when a checked property fails or the campaign
found a disagreement, 2 for input or parameter errors.  Each command
returns its exit code and its stdout text, and :func:`main` writes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import generate
from .constructions import STRUCTURES, build_structure
from .fileformat import document_of, export_dot, load, serialize
from .model import AutomatonWarning, ValidationError
from .verifiers import PROPERTIES, check_all, verdict_record


def _token(name: str) -> str:
    """The command-line token of a property name, in any case."""
    return name.lower().replace("_", "-")


_PROPERTY_TOKENS = {_token(p): p for p in PROPERTIES}
_TOKEN_ORDER = tuple(_PROPERTY_TOKENS)


def _load_automaton(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AutomatonWarning)
        aut = load(path).to_automaton()
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    return aut


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device, so that what its
    buffer still holds is not flushed, and does not fail again, at exit.
    An in-memory stdout has no descriptor and needs nothing."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _write(payload: bytes, out) -> tuple[int, str]:
    """Write ``payload`` to the file ``out``; when it is None, return
    ``payload`` as the text for stdout."""
    if out is None:
        return 0, payload.decode("utf-8")
    try:
        with open(out, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    return 0, ""


def _human_verdict(verdict) -> str:
    lines = [f"{verdict.property}: {'holds' if verdict.holds else 'FAILS'}"]
    witness = verdict.witness
    if witness is not None:
        lines.append(f"  witness events:      {' '.join(witness.event_sequence) or '(empty)'}")
        lines.append(f"  witness observation: {' '.join(witness.observation) or '(empty)'}")
        lines.append(f"  offending state:     {witness.offending_state}")
    return "\n".join(lines)


def cmd_check(args) -> tuple[int, str]:
    tokens = [t.strip() for t in args.property.split(",") if t.strip()]
    for token in tokens:
        if _token(token) not in _PROPERTY_TOKENS:
            print(f"error: unknown property {token!r}", file=sys.stderr)
            return 2, ""
    if not tokens:
        print("error: no property selected", file=sys.stderr)
        return 2, ""
    selected = sorted({_PROPERTY_TOKENS[_token(t)] for t in tokens}, key=PROPERTIES.index)
    try:
        aut = _load_automaton(args.file)
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""

    verdicts = check_all(aut, witness=args.witness, properties=selected).values()
    if args.output == "machine":
        lines = [json.dumps(verdict_record(verdict), sort_keys=True) for verdict in verdicts]
    else:
        lines = [_human_verdict(verdict) for verdict in verdicts]
    return (0 if all(verdict.holds for verdict in verdicts) else 1), "\n".join(lines) + "\n"


def cmd_export(args) -> tuple[int, str]:
    try:
        aut = _load_automaton(args.file)
        structure = build_structure(aut, args.structure)
        if not structure.states:
            print(f"warning: {args.structure} is empty for this input", file=sys.stderr)
        if args.format == "dot":
            payload = export_dot(structure).encode("utf-8")
        else:
            payload = serialize(document_of(structure))
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    return _write(payload, args.out)


def cmd_gen(args) -> tuple[int, str]:
    try:
        aut = generate.random_automaton(
            seed=args.seed,
            n_states=args.states,
            n_events=args.events,
            obs_ratio=args.obs_ratio,
            secret_ratio=args.secret_ratio,
            density=args.density,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    payload = serialize(document_of(aut))
    return _write(payload, args.out)


def cmd_fuzz(args) -> tuple[int, str]:
    if args.count < 0 or args.max_states < 1:
        print("error: count must be >= 0 and max-states >= 1", file=sys.stderr)
        return 2, ""
    report = generate.run_campaign(
        generate.fuzz_instances(args.count, args.max_states, args.seed)
    )
    lines = [f"instances: {report.count}", f"{'property':<10} {'holds':>8} {'fails':>8}"]
    for prop in PROPERTIES:
        lines.append(f"{prop:<10} {report.holds[prop]:>8} {report.fails[prop]:>8}")
    problems = report.discrepancies + report.implication_violations + report.witness_failures
    lines.append(f"discrepancies: {len(problems)}")
    lines += (f"  {line}" for line in problems)
    return (0 if report.ok else 1), "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opacheck",
        description="Opacity verification for partially observed automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide opacity properties of an automaton file")
    check.add_argument("file")
    check.add_argument(
        "--property",
        default=",".join(_TOKEN_ORDER),
        help="comma separated subset of: " + ",".join(_TOKEN_ORDER),
    )
    check.add_argument("--witness", action="store_true", help="extract a witness for failures")
    check.add_argument("--output", choices=("human", "machine"), default="human")
    check.set_defaults(fn=cmd_check)

    export = sub.add_parser("export", help="export a constructed structure")
    export.add_argument("file")
    export.add_argument("--structure", required=True, choices=STRUCTURES)
    export.add_argument("--format", choices=("dot", "native"), default="dot")
    export.add_argument("--out", default=None)
    export.set_defaults(fn=cmd_export)

    gen = sub.add_parser("gen", help="generate a random automaton file")
    gen.add_argument("--states", type=int, default=5)
    gen.add_argument("--events", type=int, default=3)
    gen.add_argument("--obs-ratio", type=float, default=0.6)
    gen.add_argument("--secret-ratio", type=float, default=0.2)
    gen.add_argument("--density", type=float, default=1.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(fn=cmd_gen)

    fuzz = sub.add_parser("fuzz", help="compare verifiers against the oracles on random inputs")
    fuzz.add_argument("--count", type=int, default=100)
    fuzz.add_argument("--max-states", type=int, default=6)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.set_defaults(fn=cmd_fuzz)

    return parser


# Built once: parsing keeps no state in the parser, and building it costs
# about as much as deciding a small file.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    code, text = args.fn(args)
    try:
        # Flushed here, so that a failed write shows now, not at exit.
        print(text, end="", flush=True)
    except (OSError, UnicodeEncodeError) as exc:
        # Stdout is full or closed, or its encoding lacks a character.
        _drop_stdout()
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
