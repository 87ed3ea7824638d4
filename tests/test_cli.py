import errno
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import opacheck
from opacheck import Run, Witness, check_all, load, replay_witness
from opacheck.cli import main
from opacheck.verifiers import witness_record

from conftest import FIXTURE_NAMES, assert_valid_dot, fixture_path, load_fixture, random_instances

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# Valid, but the observer reaches the subset {a, b} on "o" and the
# subset {a,b} on "p", and both render as "{a,b}".
COLLIDING_LABELS = """opacity-nfa 1
state x
state a
state b
state a,b
event o obs
event p obs
init x
trans x o a
trans x o b
trans x p a,b
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def witness_from_record(payload):
    """A witness rebuilt from its JSON record, as a consumer of
    ``--output machine`` rebuilds it."""
    return Witness(
        event_sequence=tuple(payload["events"]),
        observation=tuple(payload["observation"]),
        offending_state=payload["offending_state"],
        run=Run(
            payload["run"]["start"],
            tuple((e, s) for e, s in payload["run"]["steps"]),
        ),
    )


def test_public_api():
    """Every public name resolves, the version is 0.6.0, both in the
    package and in pyproject.toml, and the labelled observer and product
    types of 0.1 are gone, as are the run helpers nothing in the library
    used, 0.2's product-state type and 0.3's export attributes of the
    decider's structures."""
    for name in opacheck.__all__:
        assert getattr(opacheck, name) is not None, name
    assert len(set(opacheck.__all__)) == len(opacheck.__all__)
    for name in ("ObserverAutomaton", "CCAutomaton", "build_observer", "build_cc"):
        assert name not in opacheck.__all__ and not hasattr(opacheck, name), name
    assert "CCState" not in opacheck.__all__
    for module in (opacheck, opacheck.constructions, opacheck.verifiers):
        assert not hasattr(module, "CCState"), module.__name__
    for name in ("delta_extended", "enumerate_runs", "project", "unobservable_reach"):
        assert name not in opacheck.__all__ and not hasattr(opacheck, name), name
        assert not hasattr(opacheck.model, name), name
    for cls, names in (
        (opacheck.Automaton, ("outgoing", "successors", "_out")),
        (opacheck.Run, ("visited", "is_valid", "is_non_secret")),
    ):
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == opacheck.__version__
    assert opacheck.__version__ == "0.6.0"
    for name in ("gdss", "ghat", "observer", "cc", "cc_hat", "_core_observer", "count", "walk", "_product"):
        assert not hasattr(opacheck.verifiers.Structures, name), name
    for name in ("Graph", "build_gdss", "build_ghat", "observer_graph", "product_graph"):
        assert not hasattr(opacheck.verifiers, name), name


def test_calls_in_one_process_keep_no_state(capsys):
    """main parses with one parser built at import; each call returns its
    own exit code and output, whatever the calls before it were."""
    leaky = str(fixture_path("cso_but_not_scso"))
    human = (GOLDEN / "check_cso_but_not_scso.txt").read_text()
    golden = {
        tuple(line.split()[:3]): line.split()[3:]
        for line in (GOLDEN / "exports.sha256").read_text().splitlines()
    }
    for _ in range(2):
        assert run_cli(capsys, "check", leaky, "--witness") == (1, human, "")
        with pytest.raises(SystemExit) as rejected:
            main(["export", leaky, "--structure", "cc_hat"])
        assert rejected.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'cc_hat'" in captured.err
        code, out, err = run_cli(
            capsys, "export", str(fixture_path("siso_negative")), "--structure", "cc-hat", "--format=native"
        )
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert ([str(code), digest], err) == (golden["siso_negative", "cc-hat", "native"], "")
        # No --witness this time: the earlier call's flag is not kept.
        code, out, _ = run_cli(capsys, "check", leaky)
        verdicts = [line for line in human.splitlines(True) if not line.startswith(" ")]
        assert (code, out) == (1, "".join(verdicts))


def test_witnesses_round_trip_through_their_records():
    """A witness is labelled as its JSON record is, so the Witness a
    consumer rebuilds from ``--output machine`` equals the decider's."""
    instances = [load_fixture(name) for name in FIXTURE_NAMES] + random_instances(200)
    failing = 0
    for aut in instances:
        for prop, verdict in check_all(aut, witness=True).items():
            if verdict.holds:
                continue
            failing += 1
            witness = verdict.witness
            assert isinstance(witness.offending_state, str), prop
            record = json.loads(json.dumps(witness_record(witness)))
            assert witness_from_record(record) == witness, prop
    assert failing


class TestCheck:
    def test_selected_properties_and_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(fixture_path("cso_but_not_scso")), "--property", "cso,scso"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "CSO: holds"
        assert lines[1] == "SCSO: FAILS"

    def test_all_hold_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(fixture_path("no_secrets")))
        assert code == 0
        assert out.count("holds") == 5

    def test_human_witness_output_matches_golden_file(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(fixture_path("cso_but_not_scso")), "--witness")
        assert code == 1
        assert out == (GOLDEN / "check_cso_but_not_scso.txt").read_text()

    def test_machine_output_matches_golden_file(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            str(fixture_path("cso_but_not_scso")),
            "--output",
            "machine",
            "--witness",
        )
        assert code == 1
        assert out == (GOLDEN / "check_cso_but_not_scso.jsonl").read_text()

    def test_witness_from_machine_output_replays(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            str(fixture_path("siso_negative")),
            "--property",
            "siso",
            "--witness",
            "--output",
            "machine",
        )
        assert code == 1
        record = json.loads(out.splitlines()[0])
        assert record["property"] == "SISO" and not record["holds"]
        witness = witness_from_record(record["witness"])
        aut = load(fixture_path("siso_negative")).to_automaton()
        assert replay_witness(aut, witness, "SISO")

    def test_unknown_property_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "check", str(fixture_path("no_secrets")), "--property", "zap")
        assert code == 2
        assert "unknown property" in err

    def test_empty_property_selection_is_an_input_error(self, capsys):
        for selection in ("", ","):
            code, out, err = run_cli(
                capsys, "check", str(fixture_path("no_secrets")), "--property", selection
            )
            assert code == 2
            assert out == ""
            assert err == "error: no property selected\n"

    def test_single_property_machine_output_matches_golden_line(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            str(fixture_path("cso_but_not_scso")),
            "--property",
            "scso",
            "--witness",
            "--output",
            "machine",
        )
        assert code == 1
        golden = (GOLDEN / "check_cso_but_not_scso.jsonl").read_text().splitlines(keepends=True)
        assert out == golden[2]

    @pytest.mark.parametrize("name, prop", [("SCSO", "SCSO"), ("INF_SSO", "INF_SSO"), ("inf_sso", "INF_SSO")])
    def test_property_names_as_printed_are_accepted(self, capsys, name, prop):
        code, out, err = run_cli(
            capsys,
            "check",
            str(fixture_path("cso_but_not_scso")),
            "--property",
            name,
            "--witness",
            "--output",
            "machine",
        )
        assert (code, err) == (1, "")
        golden = (GOLDEN / "check_cso_but_not_scso.jsonl").read_text().splitlines(keepends=True)
        assert out == next(line for line in golden if json.loads(line)["property"] == prop)

    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "nonexistent.aut")
        assert code == 2
        assert "error:" in err

    def test_malformed_file_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.aut"
        bad.write_bytes(b"opacity-nfa 1\nstate q\ninit nope\n")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert "line 3" in err


class TestExport:
    def test_observer_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", str(fixture_path("scso_positive")), "--structure", "observer"
        )
        assert code == 0
        assert_valid_dot(out)
        assert '"{x1,x5}"' in out

    def test_cc_dot_contains_leak(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", str(fixture_path("cso_but_not_scso")), "--structure", "cc"
        )
        assert code == 0
        assert '"(x5,{})"' in out

    def test_gdss_of_secret_free_input_is_isomorphic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "export",
            str(fixture_path("no_secrets")),
            "--structure",
            "gdss",
            "--format",
            "native",
        )
        assert code == 0
        assert out == fixture_path("no_secrets").read_text().replace(
            "# No secret states at all: every opacity property holds vacuously.\n", ""
        )

    def test_empty_structure_warns_but_succeeds(self, capsys):
        code, out, err = run_cli(
            capsys, "export", str(fixture_path("scso_positive")), "--structure", "ghat"
        )
        assert code == 0
        assert "empty" in err
        assert_valid_dot(out)

    def test_written_file_is_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.dot"
        second = tmp_path / "b.dot"
        for out_path in (first, second):
            code, _, _ = run_cli(
                capsys,
                "export",
                str(fixture_path("siso_negative")),
                "--structure",
                "cc-hat",
                "--out",
                str(out_path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        assert b'"(x4,{})"' in first.read_bytes()

    def test_export_bytes_match_golden_digests(self, capsys):
        """sha256 of stdout and the exit code of every fixture, structure
        and format, one line each, as recorded in the golden file."""
        lines = []
        for name in FIXTURE_NAMES:
            for structure in ("gdss", "ghat", "observer", "cc", "cc-hat"):
                for fmt in ("dot", "native"):
                    code, out, _ = run_cli(
                        capsys,
                        "export",
                        str(fixture_path(name)),
                        "--structure",
                        structure,
                        "--format",
                        fmt,
                    )
                    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
                    lines.append(f"{name} {structure} {fmt} {code} {digest}\n")
        assert "".join(lines) == (GOLDEN / "exports.sha256").read_text()

    @pytest.mark.parametrize("fmt", ["dot", "native"])
    def test_colliding_state_labels_are_an_input_error(self, capsys, tmp_path, fmt):
        path = tmp_path / "colliding.aut"
        path.write_text(COLLIDING_LABELS)
        code, out, err = run_cli(
            capsys, "export", str(path), "--structure", "observer", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "'{a,b}'" in err

    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "export",
            str(fixture_path("scso_positive")),
            "--structure",
            "cc",
            "--out",
            str(tmp_path / "missing" / "cc.dot"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class FullDisk(io.TextIOBase):
    """A stdout on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "stdout",
    [FullDisk, lambda: io.TextIOWrapper(io.BytesIO(), encoding="ascii")],
    ids=["full-disk", "ascii"],
)
@pytest.mark.parametrize(
    "argv",
    [["check", "--witness"], ["export", "--structure", "cc"]],
    ids=["check", "export"],
)
def test_failed_stdout_write_is_an_output_error(capsys, monkeypatch, tmp_path, stdout, argv):
    """A write to stdout that fails, for want of space or of a character
    in its encoding, ends in one error line and exit 2, not a traceback
    and exit 1.  CSO fails here, and every output names the state é."""
    path = tmp_path / "accent.aut"
    lines = ["opacity-nfa 1", "state a", "state é", "event x obs", "init a", "secret é", "trans a x é"]
    path.write_text("\n".join(lines) + "\n", "utf-8")
    monkeypatch.setattr(sys, "stdout", stdout())
    code = main([argv[0], str(path), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_command_fault_is_not_an_output_error(monkeypatch):
    """Only a failed write to stdout is reported as one: an OSError
    raised while a command computes propagates."""

    def broken(instances):
        raise OSError(errno.EIO, "not an output fault")

    monkeypatch.setattr(opacheck.generate, "run_campaign", broken)
    with pytest.raises(OSError, match="not an output fault"):
        main(["fuzz", "--count", "1"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_buffered_stdout_is_an_output_error():
    """Run apart with a block-buffered stdout on a full device: what the
    buffer still holds must not be flushed again, and fail again, at
    interpreter exit, which would print a second error and exit 120."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "opacheck.cli", "check", str(fixture_path("siso_negative"))],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=30,
            env=env,
        )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


class TestGen:
    def test_same_seed_same_bytes(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "gen", "--states", "5", "--seed", "42")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_zero_secret_ratio_yields_no_secret_states(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--secret-ratio", "0", "--seed", "3")
        assert code == 0
        assert "secret" not in out

    def test_generated_files_validate(self, capsys, tmp_path):
        for seed in range(0, 1000, 10):
            path = tmp_path / f"g{seed}.aut"
            code, _, _ = run_cli(
                capsys, "gen", "--seed", str(seed), "--states", "6", "--out", str(path)
            )
            assert code == 0
            aut = load(path).to_automaton()
            assert aut.states  # validation succeeded and kept everything

    def test_density_past_saturation_ends(self):
        # 3 states and 1 event allow 9 transitions; once all are drawn the
        # generator stops drawing.  Run apart, so that a hang is cut short.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        argv = ["gen", "--density", "1e12", "--states", "3", "--events", "1"]
        result = subprocess.run(
            [sys.executable, "-m", "opacheck.cli", *argv],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert sum(line.startswith("trans ") for line in result.stdout.splitlines()) == 9

    def test_bad_parameters_are_input_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "--states", "0")
        assert code == 2
        assert "error:" in err
        code, _, err = run_cli(capsys, "gen", "--obs-ratio", "1.5")
        assert code == 2
        for density in ("inf", "nan"):
            code, _, err = run_cli(capsys, "gen", "--density", density)
            assert code == 2
            assert err == "error: density must be a finite number >= 0\n"
        code, _, err = run_cli(capsys, "gen", "--density", "1e308", "--states", "5")
        assert code == 2
        assert err == "error: density times the state count must be finite\n"
        code, out, err = run_cli(capsys, "gen", "--out", str(tmp_path / "missing" / "g.aut"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestFuzz:
    def test_zero_count_is_empty_and_clean(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "0")
        assert code == 0
        assert "instances: 0" in out
        assert "discrepancies: 0" in out

    def test_small_campaign_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "40", "--seed", "5")
        assert code == 0
        assert "discrepancies: 0" in out

    def test_bad_parameters(self, capsys):
        code, _, _ = run_cli(capsys, "fuzz", "--count", "-1")
        assert code == 2
