"""The four benchmark workloads: seeded inputs, the timed operation, and
the correctness gate that runs after the timed loop.

Every workload draws its inputs from ``random.Random`` streams derived
from the ``--seed`` argument only; the program under test receives the
generated automata (or the files written from them) and nothing else.
Instance sizes and observable-event counts cycle through a fixed grid
(see ``observable_mix``), so two seeds differ in the random structure
of their instances but not in their size mix.  No instance is ever
skipped, whatever it costs.

A workload object has this life cycle, driven by ``run.py``:

* ``setup()``      -- generate the input pool (and write files); returns
  the number of pool items.  Counted in ``setup_s``.
* ``warm_items()`` -- small inputs for untimed warm-up ops.
* ``fresh(i)``     -- the argument for one op on pool item ``i``, built
  so that no lazily filled index of the program is reused between ops.
* ``op(arg)``      -- the timed operation.
* ``keep(out)``    -- shrink an op's output to what the gate needs; runs
  after the op's clock has stopped.
* ``gate(outputs, visits)`` -- check the kept output of every pool item
  run, given how often the loop ran each (a repeat of an item must
  reproduce it exactly; ``run.py`` checks that); returns the failing
  pool items and the exact structure sizes of the others.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import warnings

PROPERTIES = ("CSO", "ISO", "SCSO", "SISO", "INF_SSO")


def _rng(seed: int, stream: str) -> random.Random:
    """Independent deterministic stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")


def observable_mix(ratios: tuple[float, ...], n_events: int = 4, cycle: int = 200) -> tuple[int, ...]:
    """Observable-event counts for ``cycle`` consecutive pool items.

    ``random_automaton`` makes each event observable with probability
    ``obs_ratio``, so the count is binomial; it is also the largest
    single factor in an instance's cost (each silent event more can
    multiply the observer).  Drawing it per instance would let the share
    of expensive instances, and with it the latency tail, swing from seed
    to seed.  Instead every cycle holds each count in its expected
    proportion, averaged over ``ratios`` (largest remainders), spread
    evenly so that any run of items has nearly the same mix.
    """
    expected = [
        cycle * sum(math.comb(n_events, k) * p**k * (1 - p) ** (n_events - k) for p in ratios) / len(ratios)
        for k in range(n_events + 1)
    ]
    counts = [int(e) for e in expected]
    by_remainder = sorted(range(n_events + 1), key=lambda k: counts[k] - expected[k])
    for k in by_remainder[: cycle - sum(counts)]:
        counts[k] += 1
    return tuple(k for _, k in sorted(((j + 0.5) / c, k) for k, c in enumerate(counts) for j in range(c)))


def _grid(index: int, states: tuple[int, int], mix: tuple[int, ...]):
    """(state count, observable-event count) of pool item ``index``: the
    state counts in turn, each round of them with the next count of
    ``mix``."""
    lo, hi = states
    span = hi - lo + 1
    return lo + index % span, mix[(index // span) % len(mix)]


def stratified_automaton(prog, rng, n_states, n_observable, secret_ratio, density, mixed_initial):
    """A ``random_automaton`` (4 events) re-validated with exactly
    ``n_observable`` observable events, chosen at random.

    With ``mixed_initial`` it also gets exactly one secret and one or two
    non-secret initial states.  ``random_automaton`` alone picks 1-2
    initial states at random, which often leaves no secret initial state
    and so an empty ISO/SISO product.
    """
    while True:
        base = prog.generate.random_automaton(
            rng=rng, n_states=n_states, n_events=4, secret_ratio=secret_ratio, density=density
        )
        secret = sorted(base.secret_states)
        plain = sorted(set(base.states) - base.secret_states)
        if not mixed_initial or (secret and plain):
            break
    initial = base.initial_states
    if mixed_initial:
        initial = [rng.choice(secret)] + rng.sample(plain, min(len(plain), rng.randint(1, 2)))
    observable = set(rng.sample(base.events, n_observable))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", prog.model.AutomatonWarning)
        return prog.model.validate(
            states=base.states,
            events=[(e, e in observable) for e in base.events],
            transitions=base.transitions,
            initial_states=initial,
            secret_states=base.secret_states,
        )


def _run_cli(prog, argv):
    """``opacheck.cli.main(argv)`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = prog.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _write_files(prog, automata, directory, stem):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, aut in enumerate(automata):
        path = os.path.join(directory, f"{stem}-{index:04d}.aut")
        with open(path, "wb") as handle:
            handle.write(prog.fileformat.serialize(prog.fileformat.document_of(aut)))
        paths.append(path)
    return paths


def _replays(oracle, aut, witness, prop) -> bool:
    if witness is None:
        return False
    try:
        return oracle.replay_witness(aut, witness, prop)
    except oracle.MalformedWitness:
        return False


class Workload:
    name = ""

    def __init__(self, prog, seed: int, workdir: str):
        self.prog = prog
        self.seed = seed
        self.workdir = workdir

    def keep(self, out):
        return out


class _VerdictWorkload(Workload):
    """Ops whose output is one JSON verdict record per property, in the
    form ``opacheck check --output machine`` prints, plus an exit code
    (None for library calls, which have none)."""

    def gate(self, outputs, visits):
        oracle = self.prog.oracle
        failing, sizes = set(), {}
        for index, (code, text) in outputs.items():
            aut = self.pool[index]
            expected = {p: getattr(oracle, f"oracle_{p.lower()}")(aut) for p in PROPERTIES}
            found = self._check(aut, expected, code, text)
            if found is None:
                failing.add(index)
            else:
                sizes[index] = found
        return failing, sizes

    def _check(self, aut, expected, code, text):
        """Sizes reported by a sound output, else None."""
        try:
            records = [json.loads(line) for line in text.splitlines()]
        except ValueError:
            return None
        if [r.get("property") for r in records] != list(PROPERTIES):
            return None
        if code is not None and code != (0 if all(r["holds"] for r in records) else 1):
            return None
        sizes = {}
        for record in records:
            prop = record["property"]
            if record["holds"] != expected[prop]:
                return None
            if not record["holds"] and not _replays(
                self.prog.oracle, aut, self._witness(record["witness"]), prop
            ):
                return None
            sizes.update({f"{prop}.{key}": value for key, value in record["stats"].items()})
        return sizes

    def _witness(self, record):
        """Rebuild a witness from its JSON record, for replay."""
        if record is None:
            return None
        run = self.prog.model.Run(
            record["run"]["start"], tuple(tuple(step) for step in record["run"]["steps"])
        )
        return self.prog.verifiers.Witness(
            tuple(record["events"]), tuple(record["observation"]), record["offending_state"], run
        )


class CheckLarge(_VerdictWorkload):
    """Library ``check_all(aut, witness=True)`` on random automata of the
    generator's default shape.

    Every op builds all observers and products in full before looking
    for a bad state, and product construction is the largest share of
    the time: this is where an integer core or an on-the-fly antichain
    decider should show.  SCSO and INF_SSO fail on about 70% of these
    instances, so an early exit has room here too; ISO and SISO products
    are empty on about 70%, because ``random_automaton`` often picks no
    secret initial state.
    """

    name = "check-large"
    POOL = 2200  # one whole grid period: 11 state counts x 200
    STATES = (20, 30)
    MIX = observable_mix((0.5, 0.6, 0.7))

    def _automaton(self, rng, index):
        n_states, n_observable = _grid(index, self.STATES, self.MIX)
        return stratified_automaton(self.prog, rng, n_states, n_observable, 0.2, 1.5, mixed_initial=False)

    def setup(self):
        rng = _rng(self.seed, self.name)
        self.pool = [self._automaton(rng, i) for i in range(self.POOL)]
        return self.POOL

    def warm_items(self):
        rng = _rng(self.seed, self.name + ":warm")
        return [self.prog.generate.random_automaton(rng=rng, n_states=8, n_events=4) for _ in range(5)]

    def fresh(self, index):
        # replace() runs __init__ again, so the copy starts with none of
        # the automaton's cached indexes (_out, _succ, _silent_succ, ...).
        return dataclasses.replace(self.pool[index])

    def op(self, aut):
        return self.prog.verifiers.check_all(aut, witness=True)

    def keep(self, verdicts):
        record = self.prog.verifiers.verdict_record
        return None, "\n".join(json.dumps(record(v), sort_keys=True) for v in verdicts.values())


class CheckLeaky(_VerdictWorkload):
    """``opacheck check FILE --witness --output machine`` on files whose
    automata have exactly one secret and one or two non-secret initial
    states, low observability and many secret states.

    Every op parses and validates a file and prints JSON; the ISO and
    SISO products are never empty, and about 40% of the strong
    properties fail, so witnesses are extracted and replayed.  The tail
    holds large products built only to report a failure, which an early
    exit would skip.
    """

    name = "check-leaky"
    POOL = 2600  # one whole grid period: 13 state counts x 200
    STATES = (12, 24)
    MIX = observable_mix((0.3, 0.35, 0.4))

    def _automaton(self, rng, index):
        n_states, n_observable = _grid(index, self.STATES, self.MIX)
        return stratified_automaton(self.prog, rng, n_states, n_observable, 0.3, 2.0, mixed_initial=True)

    def setup(self):
        rng = _rng(self.seed, self.name)
        self.pool = [self._automaton(rng, i) for i in range(self.POOL)]
        self.paths = _write_files(self.prog, self.pool, self.workdir, "leaky")
        return self.POOL

    def warm_items(self):
        rng = _rng(self.seed, self.name + ":warm")
        automata = [
            stratified_automaton(self.prog, rng, 8, 2, 0.3, 2.0, mixed_initial=True) for _ in range(5)
        ]
        return _write_files(self.prog, automata, self.workdir, "warm")

    def fresh(self, index):
        return self.paths[index]

    def op(self, path):
        return _run_cli(self.prog, ["check", path, "--witness", "--output", "machine"])


class FuzzSmall(Workload):
    """One fuzz-campaign instance per op: ``generate.fuzz_automaton`` then
    ``generate.run_instance``, as ``opacheck fuzz`` and the acceptance
    campaign do.  The oracle comparison and witness replay are part of
    the op here, because they are part of the campaign.

    Products are tiny, so per-call overhead dominates: this workload
    bypasses product-scale optimisations and catches any per-automaton
    set-up cost they add.
    """

    name = "fuzz-small"
    POOL = 5000

    def setup(self):
        # Pool items are the instance numbers of one seeded campaign;
        # each op generates its instance, as the campaign does.
        self.campaign_seed = _rng(self.seed, self.name).randrange(2**31)
        self.report = self.prog.generate.CampaignReport()
        self._problems = 0
        self.size_keys = None
        return self.POOL

    def warm_items(self):
        # Enough instances that set-up is not only the import, whose time
        # swings with the host from one process to the next.
        return [self.POOL + i for i in range(400)]

    def fresh(self, index):
        return index

    def op(self, index):
        generate = self.prog.generate
        aut = generate.fuzz_automaton(self.campaign_seed, index, 6, 4)
        return generate.run_instance(f"index={index}", aut, self.report)

    def keep(self, verdicts):
        # run_instance files what its own checks find in the campaign
        # report; count what this op added.  Sizes are kept as bare
        # values, in the key order of the first op, to keep memory flat.
        report = self.report
        before = self._problems
        self._problems = (
            len(report.discrepancies) + len(report.implication_violations) + len(report.witness_failures)
        )
        sizes = sorted(
            (f"{prop}.{key}", value)
            for prop, verdict in verdicts.items()
            for key, value in verdict.stats.items()
            if key != "wall_time_s"
        )
        keys = tuple(key for key, _ in sizes)
        if self.size_keys is None:
            self.size_keys = keys
        return self._problems - before + (keys != self.size_keys), tuple(value for _, value in sizes)

    def gate(self, outputs, visits):
        failing = {index for index, (new_problems, _) in outputs.items() if new_problems}
        return failing, {index: dict(zip(self.size_keys, sizes)) for index, (_, sizes) in outputs.items()}


class ExportCC(Workload):
    """``opacheck export FILE --structure S --format F`` cycling through
    S in {observer, cc, cc-hat} and F in {dot, native}.

    Exporting needs the whole product, sorted and labelled, so it uses
    the constructions differently from checking; this is the only
    workload that measures the export path of ``fileformat``.  Files
    have mixed initial states so that ``cc-hat`` is never empty.
    """

    name = "export-cc"
    FILES = 300
    STATES = (20, 30)
    MIX = observable_mix((0.5, 0.6, 0.7))
    COMBOS = tuple((s, f) for s in ("observer", "cc", "cc-hat") for f in ("dot", "native"))

    def _automaton(self, rng, index):
        n_states, n_observable = _grid(index, self.STATES, self.MIX)
        return stratified_automaton(self.prog, rng, n_states, n_observable, 0.2, 1.5, mixed_initial=True)

    def setup(self):
        rng = _rng(self.seed, self.name)
        self.pool = [self._automaton(rng, i) for i in range(self.FILES)]
        self.paths = _write_files(self.prog, self.pool, self.workdir, "export")
        self.counted = {}  # output digest -> (nodes, edges), or None if unsound
        return len(self.COMBOS) * self.FILES

    def warm_items(self):
        rng = _rng(self.seed, self.name + ":warm")
        warm = stratified_automaton(self.prog, rng, 8, 2, 0.2, 1.5, mixed_initial=True)
        paths = _write_files(self.prog, [warm], self.workdir, "warm")
        return [(paths[0], s, f) for s, f in self.COMBOS]

    def fresh(self, index):
        structure, fmt = self.COMBOS[index % len(self.COMBOS)]
        return self.paths[index // len(self.COMBOS)], structure, fmt

    def op(self, arg):
        path, structure, fmt = arg
        return (fmt, *_run_cli(self.prog, ["export", path, "--structure", structure, "--format", fmt]))

    def keep(self, out):
        # Counting is done once per distinct output; repeats of an item
        # are compared by digest (run.py).
        fmt, code, stdout = out
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if digest not in self.counted:
            self.counted[digest] = self._counts(fmt, stdout)
        return code, digest

    def _counts(self, fmt, stdout):
        """(nodes, edges) of an export, or None if a native export does not
        re-parse to the same bytes."""
        if fmt == "dot":
            return _dot_counts(stdout)
        fileformat = self.prog.fileformat
        payload = stdout.encode("utf-8")
        try:
            doc = fileformat.parse(payload)
        except fileformat.FormatError:
            return None
        if fileformat.serialize(doc) != payload:
            return None
        return len(doc.states), len(doc.transitions)

    def gate(self, outputs, visits):
        expected, failing, sizes = {}, set(), {}
        for index, (code, digest) in outputs.items():
            path, structure, fmt = self.fresh(index)
            file_index = index // len(self.COMBOS)
            if file_index not in expected:
                expected[file_index] = self._expected_counts(self.pool[file_index])
            got = self.counted[digest]
            # An item the loop ran only once is exported again here: the
            # bytes must be identical on repeat.
            repeated = visits[index] > 1 or self.keep(self.op((path, structure, fmt))) == (code, digest)
            if code != 0 or not repeated or got != expected[file_index][structure]:
                failing.add(index)
            else:
                sizes[index] = {f"{structure}.{fmt}.nodes": got[0], f"{structure}.{fmt}.edges": got[1]}
        return failing, sizes

    def _expected_counts(self, aut):
        """Node and edge counts that ``check_all`` reports per structure."""
        verdicts = self.prog.verifiers.check_all(dataclasses.replace(aut))
        scso, siso = verdicts["SCSO"].stats, verdicts["SISO"].stats
        return {
            "observer": (scso["observer_states"], scso["observer_transitions"]),
            "cc": (scso["product_states"], scso["product_transitions"]),
            "cc-hat": (siso["product_states"], siso["product_transitions"]),
        }


def _dot_counts(text: str) -> tuple[int, int]:
    """(nodes, edges) of an exported digraph, not counting the invisible
    start markers and their entry arrows."""
    nodes = edges = 0
    for line in text.splitlines():
        if not line.startswith('  "') or line.startswith('  "__start_'):
            continue
        if '" -> "' in line:
            edges += 1
        else:
            nodes += 1
    return nodes, edges


WORKLOADS = {w.name: w for w in (CheckLarge, CheckLeaky, FuzzSmall, ExportCC)}
