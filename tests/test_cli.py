"""The command-line front end: thin wrappers, exit codes, byte-stable output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epistemic import (
    DecisionFunction,
    InformationStructure,
    build_counterfactual,
    gamma,
    powerset_field,
    serialize_decisions,
    serialize_structure,
)
from epistemic import cli
from epistemic.cli import main


@pytest.fixture
def d1_path(tmp_path, d1):
    path = tmp_path / "d1.json"
    path.write_text(serialize_structure(d1), "utf-8")
    return str(path)


@pytest.fixture
def d1_cf_path(tmp_path, d1_cf):
    path = tmp_path / "d1cf.json"
    path.write_text(serialize_structure(d1_cf), "utf-8")
    return str(path)


def write_decisions(tmp_path, family, name="decisions.json"):
    path = tmp_path / name
    path.write_text(serialize_decisions(family), "utf-8")
    return str(path)


def gamma_family(d1, overrides=None):
    overrides = overrides or {}
    family = []
    for agent in d1.agents:
        table = {e: overrides.get((agent, e), "0") for e in gamma(d1, agent)}
        family.append(DecisionFunction(agent=agent, kind="gamma", table=table))
    return tuple(family)


def test_validate_partitional(d1_path, capsys):
    assert main(["validate", d1_path]) == 0
    out = capsys.readouterr().out
    assert "classification: partitional" in out


def test_validate_counterfactual(d1_cf_path, capsys):
    assert main(["validate", d1_cf_path]) == 0
    out = capsys.readouterr().out
    assert "classification: kd4" in out
    assert "agent a: serial=yes reflexive=no transitive=yes euclidean=no" in out
    assert "verification: pass" in out


def test_validate_json_mode(d1_path, capsys):
    assert main(["validate", d1_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "partitional"
    assert doc["flags"]["a"]["euclidean"] is True


def test_counterfactual_output_is_byte_identical_to_library(tmp_path, d1_path, d1, capsys):
    out_path = tmp_path / "out.json"
    assert main(["counterfactual", d1_path, "-o", str(out_path)]) == 0
    assert out_path.read_text("utf-8") == serialize_structure(build_counterfactual(d1))
    # stdout path too
    assert main(["counterfactual", d1_path]) == 0
    assert capsys.readouterr().out == serialize_structure(build_counterfactual(d1))


def test_counterfactual_then_validate(tmp_path, d1_path, capsys):
    out_path = tmp_path / "out.json"
    assert main(["counterfactual", d1_path, "-o", str(out_path)]) == 0
    assert main(["validate", str(out_path)]) == 0
    assert "classification: kd4" in capsys.readouterr().out


def test_query_ops(d1_path, d1_cf_path, capsys):
    assert main(["query", d1_path, "--op", "possibility", "--agent", "a", "--state", "w0"]) == 0
    assert capsys.readouterr().out == "w0+w1\n"
    assert main(["query", d1_path, "--op", "belief", "--agent", "b", "--event", "w0,w1"]) == 0
    assert capsys.readouterr().out == "w0\n"
    assert main(["query", d1_path, "--op", "mutual", "--group", "a,b", "--event", "w0,w1"]) == 0
    assert capsys.readouterr().out == "w0\n"
    assert main(["query", d1_path, "--op", "common", "--group", "a,b", "--event", "w0,w1,w2"]) == 0
    assert capsys.readouterr().out == "\n"
    assert main(["query", d1_path, "--op", "component", "--group", "a", "--state", "w0"]) == 0
    assert capsys.readouterr().out == "w0+w1\n"
    assert main([
        "query", d1_cf_path, "--op", "possibility", "--agent", "a",
        "--state", "cf:a:w0:w0+w1+w2+w3",
    ]) == 0
    assert capsys.readouterr().out == "w0+w1+w2+w3\n"


def test_query_missing_flag_is_usage_error(d1_path, capsys):
    assert main(["query", d1_path, "--op", "belief", "--agent", "a"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_stp_pass_and_fail(tmp_path, d1, d1_path, capsys):
    ok = write_decisions(tmp_path, gamma_family(d1), "ok.json")
    assert main(["check-stp", d1_path, ok]) == 0
    assert "holds" in capsys.readouterr().out
    full = frozenset(d1.states)
    bad = write_decisions(
        tmp_path, gamma_family(d1, {("a", full): "1"}), "bad.json"
    )
    assert main(["check-stp", d1_path, bad]) == 1
    assert "stp" in capsys.readouterr().out


def test_check_like_minded(tmp_path, d1, d1_path, capsys):
    ok = write_decisions(tmp_path, gamma_family(d1), "ok.json")
    assert main(["check-like-minded", d1_path, ok]) == 0
    full = frozenset(d1.states)
    bad_family = gamma_family(d1, {("a", full): "1", ("a", frozenset({"w0", "w1"})): "1",
                                   ("a", frozenset({"w2", "w3"})): "1"})
    bad = write_decisions(tmp_path, bad_family, "bad.json")
    assert main(["check-like-minded", d1_path, bad]) == 1
    assert "like-minded" in capsys.readouterr().out


def test_check_agreement(tmp_path, d1, d1_path, capsys):
    ok = write_decisions(tmp_path, gamma_family(d1), "ok.json")
    assert main(["check-agreement", d1_path, ok]) == 0
    out = capsys.readouterr().out
    assert "mode: theorem2" in out and "agreement: pass" in out
    full = frozenset(d1.states)
    cells_x_full_z = gamma_family(
        d1,
        {("a", frozenset({"w0", "w1"})): "1", ("a", frozenset({"w2", "w3"})): "1"},
    )
    bad = write_decisions(tmp_path, cells_x_full_z, "bad.json")
    assert main(["check-agreement", d1_path, bad, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["hypotheses_met"] is False
    assert doc["violations"]


def test_search_exit_codes(d1_path, capsys):
    assert main(["search", d1_path, "--actions", "2"]) == 0
    assert "no disagreement witness" in capsys.readouterr().out
    assert main(["search", d1_path, "--actions", "2", "--relax", "stp"]) == 1
    out = capsys.readouterr().out
    assert "disagreement witness" in out and "profile" in out


def test_search_json_and_threads_match(d1_path, capsys):
    assert main(["search", d1_path, "--actions", "2", "--relax", "stp", "--json"]) == 1
    single = capsys.readouterr().out
    assert main([
        "search", d1_path, "--actions", "2", "--relax", "stp", "--json",
    ]) == 1
    threaded = capsys.readouterr().out
    assert single == threaded
    doc = json.loads(single)
    assert doc["witness"]["relaxed"] == ["stp"]


def test_search_refuses_a_huge_action_count_without_a_traceback(d1_path, capsys):
    assert main(["search", d1_path, "--actions", "99999999999999999999"]) == 2
    assert capsys.readouterr().err == (
        "error: 99999999999999999999 actions give each agent more than the cap of 1000000 tables\n")


def test_search_refuses_a_huge_action_count_under_as_huge_a_cap(d1_path):
    # The cap admits the count, so each agent's table count from the count alone refuses it,
    # before any action name is built. Run with bounded memory, so a build of the names fails
    # fast instead of exhausting the host.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    huge = "99999999999999999999"
    done = subprocess.run(
        [sys.executable, "-c", "import resource, runpy, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                               "sys.argv[0] = 'epistemic'; runpy.run_module('epistemic', run_name='__main__')",
         "search", d1_path, "--actions", huge, "--max-families", huge],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: too many cell assignments for agent 'a'\n")


def test_search_refuses_a_table_count_past_the_printable_digits_without_a_traceback(tmp_path):
    # 12 actions on the 4,095 events of 12 singleton cells' union closure: a count of 4,420 digits
    states = [f"s{k:02d}" for k in range(12)]
    path = tmp_path / "singletons.json"
    path.write_text(serialize_structure(InformationStructure(states, ["a"], {"a": [(s, s) for s in states]})), "utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-m", "epistemic", "search", str(path), "--actions", "12", "--relax", "stp"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: agent 'a' alone admits at least 2**14680 tables, above the cap of 1000000\n")


def test_actions_that_int_cannot_read_are_names(d1_path, capsys):
    # "²" is a digit that int() refuses, so it names one action, as "-1" does; "٣" is a decimal 3
    outputs = {}
    for actions in ("²", "-1", "٣", "3"):
        code = main(["search", d1_path, "--actions", actions, "--relax", "stp", "--json"])
        out, err = capsys.readouterr()
        outputs[actions] = (code, out, err)
    assert outputs["²"] == outputs["-1"] and outputs["²"][0] == 0 and not outputs["²"][2]
    assert json.loads(outputs["²"][1]) == {"witness": None}
    assert outputs["٣"] == outputs["3"]
    assert outputs["3"][0] == 1 and json.loads(outputs["3"][1])["witness"]["relaxed"] == ["stp"]


def test_flaws_report(d1_path, capsys):
    assert main(["flaws", d1_path]) == 0
    out = capsys.readouterr().out
    assert "w0+w1+w2+w3  ->  realized at cf:a:w0:w0+w1+w2+w3" in out
    assert "w0+w1 (agent a)" in out


def test_flaws_json(d1_path, capsys):
    assert main(["flaws", d1_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["agents"]["b"]["not_possible_beliefs"]) == 4
    assert all(item["realized"] for item in doc["agents"]["b"]["not_possible_beliefs"])


def test_usage_errors(tmp_path, d1_path, capsys):
    assert main(["frobnicate", d1_path]) == 2
    capsys.readouterr()
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{", "utf-8")
    assert main(["validate", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_validate_fails_on_damaged_counterfactual(tmp_path, d1_cf, capsys):
    # drop one duplicate-to-state edge; labels and hash still parse, the
    # verifier must catch it
    doc = json.loads(serialize_structure(d1_cf))
    victim = "cf:b:w0:w3"
    doc["relations"]["b"] = [p for p in doc["relations"]["b"] if p[0] != victim]
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(doc), "utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "verification: FAIL" in out and "relations_serial" in out


EXPECTED = Path(__file__).parent / "expected"

# (agent, state, new successors): one row of the d1 counterfactual rewired so
# that a premise of the verifier's derived checks fails. Drift in an actual
# row or a missing duplicate cannot be written as a valid document: the parser
# takes the origin to be the actual-state core and requires complete blocks.
DAMAGES = {
    "empty_row": ("b", "cf:b:w0:w3", []),  # beliefs_in_decision_domain, relations_serial
    "stray_row": ("a", "cf:b:w0:w3", ["w0"]),  # beliefs_in_decision_domain
    "unrealized_event": ("a", "cf:a:w0:w0+w1", ["w2", "w3"]),  # every_domain_event_realized
}


def _damaged_document(text, agent, state, targets):
    doc = json.loads(text)
    rows = [p for p in doc["relations"][agent] if p[0] != state]
    doc["relations"][agent] = rows + [[state, t] for t in targets]
    return json.dumps(doc)


@pytest.mark.parametrize("name", sorted(DAMAGES))
@pytest.mark.parametrize("mode", ["json", "txt"])
def test_validate_output_on_damaged_counterfactual_is_pinned(tmp_path, d1_cf, capsys, name, mode):
    path = tmp_path / "damaged.json"
    path.write_text(_damaged_document(serialize_structure(d1_cf), *DAMAGES[name]), "utf-8")
    assert main(["validate", str(path), *(["--json"] if mode == "json" else [])]) == 1
    assert capsys.readouterr().out == (EXPECTED / f"validate_{name}.{mode}").read_text("utf-8")


def test_one_parser_serves_every_call(tmp_path, d1, d1_path, capsys):
    decisions = write_decisions(tmp_path, gamma_family(d1))
    calls = [
        ["search", d1_path, "--actions", "2", "--relax", "stp", "--json"],
        ["search", d1_path, "--actions", "2", "--relax", "stp"],
        ["search", d1_path, "--actions", "2"],
        ["search", d1_path, "--actions", "2", "--relax", "like_minded", "--mode", "theorem1"],
        ["search", d1_path, "--actions", "2", "--max-families", "0"],
        ["validate", d1_path, "--json"],
        ["validate", d1_path],
        ["check-agreement", d1_path, decisions, "--group", "a", "--json"],
        ["check-agreement", d1_path, decisions],
        ["query", d1_path, "--op", "possibility", "--agent", "a", "--state", "w1"],
        ["query", d1_path, "--op", "possibility"],
        ["search", d1_path, "--relax", "stp"],
        ["frobnicate", d1_path],
        ["flaws", d1_path, "--json"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [run(argv) for argv in calls] == fresh
    assert cli.build_parser() is cli.build_parser()
    codes = [code for code, _, _ in fresh]
    assert codes == [1, 1, 0, 1, 2, 0, 0, 0, 0, 0, 2, 2, 2, 0]
    assert fresh[4][2] == "error: family cap must be positive\n"
    assert fresh[11][2].startswith("usage: epistemic search") and "--actions" in fresh[11][2]


def field_family(d1, ones=()):
    """Both agents' one shared field table over the power set: '1' on ``ones``, '0' elsewhere."""
    table = {e: "1" if e in ones else "0" for e in powerset_field(d1)}
    return tuple(DecisionFunction(agent=a, kind="field", table=table) for a in d1.agents)


_HALVES = (frozenset({"w0", "w1"}), frozenset({"w2", "w3"}))
_FIELD_STP_BREAKS = """\
stp: agent a maps {w0, w1} to '0' but their union w0+w1 to '1'
stp: agent a maps {w0+w1, w2+w3} to '1' but their union w0+w1+w2+w3 to '0'
stp: agent a maps {w2, w3} to '0' but their union w2+w3 to '1'
stp: agent b maps {w0, w1} to '0' but their union w0+w1 to '1'
stp: agent b maps {w0+w1, w2+w3} to '1' but their union w0+w1+w2+w3 to '0'
stp: agent b maps {w2, w3} to '0' but their union w2+w3 to '1'
"""


def test_check_agreement_text_lists_unmet_hypotheses_and_violations(tmp_path, d1, d1_path, capsys):
    halves_one = gamma_family(d1, {("a", _HALVES[0]): "1", ("a", _HALVES[1]): "1"})
    assert main(["check-agreement", d1_path, write_decisions(tmp_path, halves_one)]) == 1
    assert capsys.readouterr().out == (
        "mode: theorem2, group: a,b\n"
        "hypotheses not met (1 violations):\n"
        "  stp: agent a maps {w0+w1, w2+w3} to '1' but their union w0+w1+w2+w3 to '0'\n"
        "profiles checked: 2\n"
        "violation: profile (a->1, b->0) commonly believed at cf:a:w0:w0+w1\n"
        "agreement: FAIL\n"
    )


def test_check_agreement_on_field_decisions_checks_theorem1(tmp_path, d1, d1_path, capsys):
    assert main(["check-agreement", d1_path, write_decisions(tmp_path, field_family(d1, _HALVES))]) == 1
    assert capsys.readouterr().out == (
        "mode: theorem1, group: a,b\n"
        "hypotheses not met (6 violations):\n"
        + "".join("  " + line + "\n" for line in _FIELD_STP_BREAKS.splitlines())
        + "profiles checked: 4\n"
        "violation: profile (a->1, b->0) commonly believed at w0\n"
        "agreement: FAIL\n"
    )
    assert main(["check-agreement", d1_path, write_decisions(tmp_path, field_family(d1), "const.json")]) == 0
    assert capsys.readouterr().out == (
        "mode: theorem1, group: a,b\nhypotheses: met\nprofiles checked: 1\nagreement: pass\n"
    )


def test_check_stp_on_field_tables(tmp_path, d1, d1_path, capsys):
    assert main(["check-stp", d1_path, write_decisions(tmp_path, field_family(d1, _HALVES))]) == 1
    assert capsys.readouterr().out == _FIELD_STP_BREAKS + "sure-thing principle: violated\n"
    assert main(["check-stp", d1_path, write_decisions(tmp_path, field_family(d1), "const.json")]) == 0
    assert capsys.readouterr().out == "sure-thing principle: holds\n"


def test_field_events_over_unknown_states_exit_2(tmp_path, d1, d1_path, capsys):
    """The theorem1 check and like-mindedness read the field against the structure's states;
    the principle's check takes no structure, and reads it."""
    outside = frozenset({"w0", "zz"})
    table = {e: "1" if e == outside else "0" for e in (*powerset_field(d1), frozenset({"zz"}), outside)}
    decisions = write_decisions(tmp_path, tuple(DecisionFunction(a, "field", table) for a in d1.agents))
    for argv in (["check-agreement", d1_path, decisions], ["check-like-minded", d1_path, decisions]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: field events must be non-empty subsets of the state set\n")
    assert main(["check-stp", d1_path, decisions]) == 1
    assert "stp: agent a maps {w0, zz} to '0' but their union w0+zz to '1'" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli(tmp_path, d1_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "epistemic", *argv], capture_output=True, text=True,
                              env=env, timeout=60)
        return done.returncode, done.stdout, done.stderr

    assert run("validate", d1_path) == (0, (
        "structure: 4 states, 2 agents\n"
        "agent a: serial=yes reflexive=yes transitive=yes euclidean=yes\n"
        "agent b: serial=yes reflexive=yes transitive=yes euclidean=yes\n"
        "classification: partitional\n"
    ), "")
    missing = str(tmp_path / "missing.json")
    assert run("validate", missing) == (2, "", f"error: cannot read {missing}: No such file or directory\n")


def test_cli_digest_manifest_runs_on_d1():
    tool = Path(__file__).resolve().parent / "cli_digests.py"
    env = {**os.environ, "PYTHONPATH": str(tool.parent.parent / "src")}
    done = subprocess.run([sys.executable, str(tool), "--d1"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(lines) > 50
    assert {line["exit"] for line in lines} == {0, 1, 2}
    assert all(len(line["stdout"]) == len(line["stderr"]) == 64 and "$TMP" in line["argv"][1] for line in lines)
