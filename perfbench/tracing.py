"""Layer tracing for the traced run, done entirely from outside ``src/``.

While a :class:`Tracer` is installed, the functions each caller looks up
are replaced by timing wrappers at the names the callers use (for
example ``opacheck.cli.check_all`` and ``opacheck.verifiers.build_cc``),
so a span is recorded at every call that crosses into a layer.  Each
span is ``(name, id, parent id, op id, start ns, end ns)``; spans stay in
memory and are written out once, after the loop.  A layer's self time
is its spans' time minus the time of their direct child spans.

Names missing from the program are skipped, so a refactor that removes
one leaves its metrics at zero instead of breaking the run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("model", "fileformat", "constructions", "verifiers", "oracle", "generate", "cli")


def _verdicts(counts, args, result):
    counts["verifiers.verdicts"] += len(result)
    counts["verifiers.failing"] += sum(not v.holds for v in result.values())


def _observer(counts, args, result):
    counts["constructions.observer_states"] += len(result.states)


def _product(counts, args, result):
    counts["constructions.product_states"] += len(result.states)
    counts["constructions.product_transitions"] += len(result.transitions)


def _witness(counts, args, result):
    counts["verifiers.witnesses"] += 1
    counts["verifiers.witness_events"] += len(result.event_sequence)


def _bytes_in(counts, args, result):
    counts["fileformat.bytes_in"] += len(args[0])


def _bytes_out(counts, args, result):
    if isinstance(result, (str, bytes)):  # export_dot and serialize, not the document builders
        counts["fileformat.bytes_out"] += len(result)


def _replay(counts, args, result):
    counts["oracle.replay_rejects"] += not result


_CONSTRUCTIONS = (
    ("build_gdss", "constructions.restrict", None),
    ("build_ghat", "constructions.restrict", None),
    ("build_observer", "constructions.observer", _observer),
    ("build_cc", "constructions.product", _product),
)

# (module, attribute, span name, counter hook): every name a caller looks
# up on the paths the workloads take.
TARGETS = (
    *(("opacheck.verifiers",) + t for t in _CONSTRUCTIONS),
    ("opacheck.verifiers", "check_all", "verifiers.check", _verdicts),
    ("opacheck.verifiers", "extract_witness", "verifiers.witness", _witness),
    ("opacheck.verifiers", "_estimate_witness", "verifiers.witness", _witness),
    ("opacheck.cli", "main", "cli.main", None),
    ("opacheck.cli", "check_all", "verifiers.check", _verdicts),
    ("opacheck.cli", "load", "fileformat.load", None),
    *(("opacheck.cli",) + t for t in _CONSTRUCTIONS),
    ("opacheck.cli", "export_dot", "fileformat.export", _bytes_out),
    ("opacheck.cli", "document_of", "fileformat.export", None),
    ("opacheck.cli", "observer_document", "fileformat.export", None),
    ("opacheck.cli", "cc_document", "fileformat.export", None),
    ("opacheck.cli", "serialize", "fileformat.export", _bytes_out),
    ("opacheck.fileformat", "parse", "fileformat.parse", _bytes_in),
    ("opacheck.fileformat", "validate", "model.validate", None),
    ("opacheck.generate", "validate", "model.validate", None),
    ("opacheck.generate", "check_all", "verifiers.check", _verdicts),
    ("opacheck.generate", "run_instance", "generate.instance", None),
    ("opacheck.generate", "fuzz_automaton", "generate.generate", None),
    ("opacheck.oracle", "replay_witness", "oracle.replay", _replay),
)

# Per-layer metrics by how they come out of the spans: summed span time,
# number of spans, and counters filled by the hooks above.
SPAN_SECONDS = {
    "constructions.product_s": "constructions.product",
    "constructions.observer_s": "constructions.observer",
    "constructions.restrict_s": "constructions.restrict",
    "verifiers.check_s": "verifiers.check",
    "verifiers.witness_s": "verifiers.witness",
    "fileformat.parse_s": "fileformat.parse",
    "fileformat.export_s": "fileformat.export",
    "model.validate_s": "model.validate",
    "oracle.decide_s": "oracle.decide",
    "oracle.replay_s": "oracle.replay",
    "generate.instance_s": "generate.instance",
    "generate.generate_s": "generate.generate",
}
SPAN_COUNTS = {
    "constructions.product_calls": "constructions.product",
    "model.validate_calls": "model.validate",
    "oracle.decide_calls": "oracle.decide",
    "oracle.replays": "oracle.replay",
    "generate.instances": "generate.instance",
    "cli.commands": "cli.main",
}
COUNTERS = (
    "constructions.product_states",
    "constructions.product_transitions",
    "constructions.observer_states",
    "verifiers.witnesses",
    "verifiers.witness_events",
    "fileformat.bytes_in",
    "fileformat.bytes_out",
    "oracle.replay_rejects",
    "cli.stdout_bytes",
)
UNITS = {"ops_per_s": "1/s", "_s": "s", "_ratio": "ratio", "bytes_in": "B", "bytes_out": "B", "stdout_bytes": "B"}


def metric_unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


PER_LAYER = (
    tuple(SPAN_SECONDS)
    + tuple(f"{layer}.self_s" for layer in LAYERS)
    + tuple(SPAN_COUNTS)
    + COUNTERS
    + ("verifiers.fail_ratio", "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_ratio")
)


class Tracer:
    """Span recorder; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self, modules):
        self.modules = modules  # module name -> module object
        self.spans = []
        self.counts = Counter()
        self.stack = [0]
        self.next_id = 1
        self.op = -1
        self._saved = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((name, span_id, parent, self.op, start, end))
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _wrap_main(self, fn):
        traced = self._wrap("cli.main", fn, None)

        def main(argv=None):
            # The workloads capture stdout in a StringIO, so its position
            # tells how much the command printed (characters, which are
            # bytes for the ASCII names the generators use).
            before = sys.stdout.tell()
            try:
                return traced(argv)
            finally:
                self.counts["cli.stdout_bytes"] += sys.stdout.tell() - before

        return main

    def install(self):
        for module_name, attr, span, hook in TARGETS:
            module = self.modules[module_name]
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            wrapped = self._wrap_main(original) if span == "cli.main" else self._wrap(span, original, hook)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)
        # generate keeps direct references to the oracle deciders.
        oracles = getattr(self.modules["opacheck.generate"], "_ORACLES", {})
        for prop, original in list(oracles.items()):
            self._saved.append((oracles, prop, original))
            oracles[prop] = self._wrap("oracle.decide", original, None)

    def uninstall(self):
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
        """Per-layer totals over every recorded span and counter, plus
        the tracing overhead from the two rates of the same ops."""
        total = defaultdict(int)
        calls = Counter()
        child = defaultdict(int)
        for name, _, parent, _, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            child[parent] += end - start
        layer_self = defaultdict(int)
        for name, span_id, _, _, start, end in self.spans:
            layer_self[name.split(".", 1)[0]] += end - start - child[span_id]
        out = {}
        for metric, name in SPAN_SECONDS.items():
            out[metric] = total[name] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        for metric, name in SPAN_COUNTS.items():
            out[metric] = calls[name]
        for metric in COUNTERS:
            out[metric] = self.counts[metric]
        # A witness that raises MalformedWitness is rejected too.
        out["oracle.replay_rejects"] += self.counts["oracle.replay.raised"]
        verdicts = self.counts["verifiers.verdicts"]
        out["verifiers.fail_ratio"] = self.counts["verifiers.failing"] / verdicts if verdicts else 0.0
        out["trace.untraced_ops_per_s"] = untraced_ops_per_s
        out["trace.traced_ops_per_s"] = traced_ops_per_s
        out["trace.overhead_ratio"] = untraced_ops_per_s / traced_ops_per_s
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
