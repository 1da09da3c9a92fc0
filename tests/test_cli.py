import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selfsim import mealy
from selfsim.cli import main

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402  (the benchmark's golden commands and relation files)

GOLDEN = workloads.golden_commands()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def test_act_adding_machine():
    code, out, _ = run_cli(["act", "--machine", "builtin:adding", "--word", "a", "--string", "111"])
    assert code == 0 and out == "000\n"


def test_act_on_machine_file(tmp_path):
    path = tmp_path / "machine.txt"
    path.write_text(mealy.emit(mealy.diagram1()), encoding="utf-8")
    code, out, _ = run_cli(["act", "--machine", str(path), "--word", "g", "--string", "200"])
    assert code == 0 and out == "210\n"


def test_orbit_type_diagram1():
    code, out, _ = run_cli(["orbit-type", "--machine", "builtin:diagram1"])
    assert code == 0 and out == "(2,1)\n"


def test_portrait_adding():
    code, out, _ = run_cli(
        ["portrait", "--machine", "builtin:adding", "--word", "a", "--depth", "2"]
    )
    assert code == 0
    assert out == "- (0 1)\n  0 ()\n  1 (0 1)\n"


def test_states_adding():
    code, out, _ = run_cli(
        ["states", "--machine", "builtin:adding", "--word", "a", "--max", "8", "--sep-depth", "6"]
    )
    assert code == 0
    assert out == "a\ne\n# states: 2 (complete)\n"


def test_check_pass_and_fail(tmp_path):
    good = tmp_path / "good.txt"
    # commutator of g with its conjugate by a: a relation of the diagram1 group
    good.write_text("a^-1 g^-1 a g^-1 a^-1 g a g\n# comment\n\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["check", "--machine", "builtin:diagram1", "--relations", str(good), "--depth", "10"]
    )
    assert code == 0 and out.startswith("PASS ")

    mixed = tmp_path / "mixed.txt"
    mixed.write_text("g g^-1\na a\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["check", "--machine", "builtin:diagram1", "--relations", str(mixed), "--depth", "10"]
    )
    assert code == 1
    assert out.splitlines() == ["PASS g g^-1", "FAIL a a"]


def test_witness_finds_moved_string():
    # the base lamp fixes the first level; its third section first moves a letter
    code, out, _ = run_cli(["witness", "--model", "zwrz", "--word", "g1", "--max-depth", "10"])
    assert code == 0 and out == "20\n"


def test_witness_uses_commas_beyond_ten_letters():
    # a lamp difference on the 13-letter machine moves a depth-2 string
    code, out, _ = run_cli(
        ["witness", "--model", "lamplighter:B=2,3", "--word", "z^-1 b1 z b1^-1", "--max-depth", "12"]
    )
    assert code == 0 and out == "0,0\n"
    code, out, _ = run_cli(["witness", "--model", "zwrz", "--word", "e", "--max-depth", "7"])
    assert code == 0 and out == "trivial-to-depth 7\n"


def test_build_recursions_matches_display():
    code, out, _ = run_cli(["build", "--data", "cp-wr-z2:p=2", "--emit", "recursions"])
    assert code == 0
    assert out.splitlines() == ["s = (e, e, s) (0 1)", "a = (a, a s, a b)", "b = (e, e, a)"]


def test_build_file_round_trip(tmp_path):
    path = tmp_path / "zwrz.txt"
    code, _, _ = run_cli(["build", "--data", "zwrz", "--emit", "file", "-o", str(path)])
    assert code == 0
    text = path.read_text(encoding="utf-8")
    assert mealy.emit(mealy.parse(text)) == text


def test_build_dot_output():
    code, out, _ = run_cli(["build", "--data", "zwrz", "--emit", "dot"])
    assert code == 0
    assert out.startswith("digraph {") and "g1 -> a1" in out


def test_inflate_brunner_sidki():
    code, out, _ = run_cli(
        ["inflate", "--machine", "builtin:brunner_sidki", "-k", "2", "--emit", "recursions"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "a = (e, e, a, e) (0 2)(1 3)" in lines
    assert "at = (at, a, e, e)" in lines


def test_concat_degree_eight():
    code, out, _ = run_cli(["concat", "--data", "lamplighter:B=2+zwrz", "--emit", "recursions"])
    assert code == 0
    first = out.splitlines()[0]
    assert first.count(",") == 7  # eight letters


def test_exit_codes_for_errors(tmp_path):
    code, _, err = run_cli(["act", "--machine", "builtin:nonesuch", "--word", "a", "--string", "0"])
    assert code == 2 and "error:" in err
    code, _, _ = run_cli(["act", "--machine", str(tmp_path / "missing.txt"), "--word", "a", "--string", "0"])
    assert code == 2
    code, _, _ = run_cli(["build", "--data", "nonesuch"])
    assert code == 2
    code, _, _ = run_cli(["act", "--machine", "builtin:adding", "--word", "a", "--unknown-flag", "1"])
    assert code == 2
    code, _, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _, _ = run_cli(["act", "--machine", "builtin:adding", "--word", "q", "--string", "0"])
    assert code == 2
    code, _, err = run_cli(["witness", "--model", "zwrz", "--word", "zz", "--max-depth", "3"])
    assert code == 2 and "undeclared state" in err
    # undeclared states are rejected even where no entry is read or they cancel
    (tmp_path / "zz_a.txt").write_text("zz a\n", encoding="utf-8")
    (tmp_path / "zz_cancel.txt").write_text("zz zz^-1\n", encoding="utf-8")
    for argv in (
        ["check", "--machine", "builtin:thmD(2)", "--relations", str(tmp_path / "zz_a.txt"), "--depth", "0"],
        ["check", "--machine", "builtin:thmD(2)", "--relations", str(tmp_path / "zz_cancel.txt"), "--depth", "3"],
        ["act", "--machine", "builtin:adding", "--word", "zz zz^-1", "--string", "01"],
        ["states", "--machine", "builtin:adding", "--word", "zz zz^-1 a", "--max", "4", "--sep-depth", "3"],
        ["portrait", "--machine", "builtin:adding", "--word", "zz zz^-1", "--depth", "2"],
        ["witness", "--model", "zwrz", "--word", "zz zz^-1", "--max-depth", "3"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out, err) == (2, "", "error: undeclared state: 'zz'\n")
    # a negative depth passes no relation, and a separation depth below 1 is no
    # probe at all, so neither may report "PASS" or "complete"
    (tmp_path / "a.txt").write_text("a\n", encoding="utf-8")
    for argv, message in (
        (["check", "--machine", "builtin:adding", "--relations", str(tmp_path / "a.txt"), "--depth", "-3"],
         "depth must be nonnegative"),
        (["states", "--machine", "builtin:diagram2(4)", "--word", "a4", "--max", "16", "--sep-depth", "0"],
         "sep_depth must be at least 1"),
        (["states", "--machine", "builtin:diagram2(4)", "--word", "a4", "--max", "16", "--sep-depth", "-2"],
         "sep_depth must be at least 1"),
    ):
        code, out, err = run_cli(argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(["check", "--machine", "builtin:adding", "--relations", str(tmp_path / "a.txt"), "--depth", "0"])
    assert (code, out) == (0, "PASS a\n")
    # selectors with a missing, unknown or repeated key, or no named copies
    for argv in (
        ["build", "--data", "cp-wr-z2"],
        ["witness", "--model", "zl-wr-zd:l=1", "--word", "g1", "--max-depth", "3"],
        ["build", "--data", "zl-wr-zd:l=1,d=1,x=3"],
        ["build", "--data", "zl-wr-zd:l=1,d=1,l=2"],
        ["build", "--data", "z:junk"],
        ["build", "--data", "zomega:n=0"],
        ["build", "--data", "zomega:n=-1"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
    # a huge alphabet with one short state line is rejected by a count
    huge = tmp_path / "huge.txt"
    huge.write_text("alphabet 1000000000000\nstate a: 0->0 e\n", encoding="utf-8")
    code, out, err = run_cli(["act", "--machine", str(huge), "--word", "a", "--string", "0"])
    assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
    # a non-finite-state machine cannot be exported in the line format
    code, _, err = run_cli(["build", "--data", "cp-wr-z2:p=2", "--emit", "file"])
    assert code == 2 and "closure exceeded" in err
    # nor printed as recursions once sections leave the searchable ball
    code, _, err = run_cli(["build", "--data", "cp-wr-z2:p=13", "--emit", "recursions"])
    assert code == 2 and "closure exceeded" in err
    code, _, _ = run_cli(["inflate", "--machine", "builtin:adding", "-k", "0", "--emit", "recursions"])
    assert code == 2
    # neither can a table whose sections are proper words
    code, _, err = run_cli(["inflate", "--machine", "builtin:thmD(2)", "-k", "1", "--emit", "file"])
    assert code == 2 and "composite" in err


def test_byte_identical_reruns(tmp_path):
    relations = tmp_path / "rel.txt"
    relations.write_text("a a^-1\n", encoding="utf-8")
    invocations = [
        ["act", "--machine", "builtin:adding", "--word", "a a", "--string", "0000"],
        ["orbit-type", "--machine", "builtin:diagram3"],
        ["portrait", "--machine", "builtin:diagram1", "--word", "g", "--depth", "3"],
        ["states", "--machine", "builtin:diagram2(3)", "--word", "a3", "--max", "10", "--sep-depth", "8"],
        ["check", "--machine", "builtin:diagram1", "--relations", str(relations), "--depth", "8"],
        ["witness", "--model", "lamplighter:B=2", "--word", "b", "--max-depth", "8"],
        ["build", "--data", "zwrz-wr-c2", "--emit", "recursions"],
        ["build", "--data", "lamplighter:B=2", "--emit", "dot"],
        ["inflate", "--machine", "builtin:adding", "-k", "2", "--emit", "file"],
        ["concat", "--data", "zwrz+zwrz", "--emit", "recursions"],
    ]
    for argv in invocations:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0


def test_concat_of_two_zwrz_is_degree_six():
    code, out, _ = run_cli(["concat", "--data", "zwrz+zwrz", "--emit", "recursions"])
    assert code == 0
    assert out.splitlines()[0].count(",") == 5


def test_byte_identical_across_processes():
    # interpreter hash randomisation must not leak into any output
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "selfsim.cli", "build", "--data",
             "concat:lamplighter:B=2+zwrz", "--emit", "recursions"],
            capture_output=True, env=env, check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_deep_check_is_an_error_not_a_failure(tmp_path):
    machine = tmp_path / "ab.txt"
    machine.write_text(
        "alphabet 2\nstate a: 0->1 e, 1->0 a\nstate b: 0->1 e, 1->0 b\n", encoding="utf-8"
    )
    relations = tmp_path / "ab.rel"
    relations.write_text("a b^-1\n", encoding="utf-8")
    argv = ["check", "--machine", str(machine), "--relations", str(relations)]
    code, out, err = run_cli(argv + ["--depth", "5000"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", GOLDEN, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_golden_outputs_are_byte_identical(cmd, tmp_path):
    for name, text in workloads.GOLDEN_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, _ = run_cli(workloads.expand(cmd["argv"], tmp_path))
    assert (code, out) == (cmd["exit"], cmd["stdout"])
    for name, text in cmd["files"].items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text
