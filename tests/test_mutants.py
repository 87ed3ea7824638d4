"""The gates' strength, as a table of decider mutants.

Each mutant is a context manager that patches one thing: a field of a
property's row in ``_SPECS``, or one rule, recompiled from its source
with one fragment replaced (the silent closure, the non-secret core, the
CSO witness's estimate, the stop of a product's shared walk).  Each names the gate that must kill it: the
fuzz campaign against the oracles, or a named tier-1 test run in-process
on the patched modules.  A mutant whose target no longer exists fails
its test, so a refactor ports the table instead of dropping a row.

ISO rooted at all initial states is an equivalent mutant: a run from a
non-secret initial state explains itself, so the verdicts and witnesses
stay, and only the stats of the golden output tell it apart.
"""

import inspect
import pathlib
import textwrap
from contextlib import contextmanager

import pytest

from opacheck import model, verifiers
from opacheck.constructions import ObserverSearch
from opacheck.generate import fuzz_instances, run_campaign

TESTS = pathlib.Path(__file__).resolve().parent

CAMPAIGN = "run_campaign(fuzz_instances(2000, 8, 7))"


@contextmanager
def row(prop, **fields):
    """``_SPECS[prop]`` with ``fields`` replaced."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(verifiers._SPECS, prop, verifiers._SPECS[prop]._replace(**fields))
        yield


@contextmanager
def rule(owner, name, old, new):
    """``owner.name``, a function or cached property, recompiled from its
    source with the one fragment ``old`` replaced by ``new``."""
    attribute = vars(owner)[name]
    function = getattr(attribute, "func", attribute)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{name} no longer holds {old!r}"
    namespace = {}
    # Padded so that a traceback through the mutant shows the source's line numbers.
    padded = "\n" * (function.__code__.co_firstlineno - 1) + source.replace(old, new)
    exec(compile(padded, inspect.getsourcefile(function), "exec"), function.__globals__, namespace)
    mutant = namespace[name]
    if hasattr(mutant, "__set_name__"):  # a cached property learns its name from its class
        mutant.__set_name__(owner, name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, mutant)
        yield


MUTANTS = {
    "SCSO without secret_only": (lambda: row("SCSO", secret_only=False), CAMPAIGN),
    "SISO on g's observer": (lambda: row("SISO", core=False), CAMPAIGN),
    "INF_SSO bad only at secret left states": (lambda: row("INF_SSO", secret_only=True), CAMPAIGN),
    "one-sweep closure": (
        lambda: rule(model.Automaton, "_closed_images", "while changed:", "if changed:"),
        CAMPAIGN,
    ),
    "core keeps arcs into secret states": (
        lambda: rule(model.Automaton, "_core", " and arc[2] not in secret", ""),
        CAMPAIGN,
    ),
    "ISO rooted at all initial states": (
        lambda: row("ISO", secret_roots=False),
        "test_cli.py::TestCheck::test_machine_output_matches_golden_file",
    ),
    "CSO witness at the last estimate inside the secret set": (
        lambda: rule(ObserverSearch, "first_within", "enumerate(self.masks)", "reversed([*enumerate(self.masks)])"),
        "test_verifiers.py::test_matches_reference_decider[fuzz]",
    ),
    "shared walk stopped at INF_SSO's first bad state": (
        lambda: rule(verifiers, "_decide_product", "stop=reduce(and_, failing)", "stop=count.collapsed"),
        CAMPAIGN,
    ),
}


def killed(gate):
    """Whether ``gate`` fails on the code as it is now patched: a campaign
    that reports a fault or crashes, or a test that fails."""
    if gate == CAMPAIGN:
        try:
            return not run_campaign(fuzz_instances(2000, 8, 7)).ok
        except Exception:  # a crash stops the campaign, and fails it
            return True
    code = pytest.main([str(TESTS / gate), "-q", "-p", "no:cacheprovider"])
    assert code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED), f"{gate} did not run: {code!r}"
    return code == pytest.ExitCode.TESTS_FAILED


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed_by_its_gate(name):
    mutant, gate = MUTANTS[name]
    with mutant():
        assert killed(gate), f"{name} survives {gate}"
