import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from selfsim import cli, mealy, tree_core
from selfsim.cli import main, recursion_lines
from selfsim.gdata_engine import GData, VirtualEndo, build_representation
from selfsim.wreath_models import ZModel

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402  (the benchmark's golden commands and relation files)

GOLDEN = workloads.golden_commands()
# build in every emit mode on 17 selectors, orbit-type and inflate -k 1|2 in
# every emit mode on 11 builtins, and a few states, portrait and witness runs:
# each argv with the sha256 of its (exit, stdout, stderr) (``_digest``)
PINNED_PATH = Path(__file__).resolve().parent / "cli_digests.json"
PINNED = json.loads(PINNED_PATH.read_text(encoding="utf-8"))


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


@pytest.mark.parametrize(
    "machine, word, string, expected",
    [
        ("builtin:adding", "a", "-", (0, "-\n", "")),
        ("builtin:thmD(10)", "s", "10,0,3", (0, "10,1,3\n", "")),
        (
            "builtin:thmD(10)",
            "s",
            "103",
            (2, "", "error: alphabets beyond 10 letters need comma-separated strings\n"),
        ),
        ("builtin:adding", "a", "5", (2, "", "error: letter 5 out of range for alphabet of 2\n")),
        ("builtin:adding", "a", "1,,0", (2, "", "error: bad letter '' in string '1,,0'\n")),
        ("builtin:adding", "a", "1 0", (2, "", "error: bad letter ' ' in string '1 0'\n")),
        ("builtin:adding", "a", "x", (2, "", "error: bad letter 'x' in string 'x'\n")),
        # past 10 letters a one-letter string is its bare numeral, as printed
        ("builtin:thmD(10)", "s", "5", (0, "6\n", "")),
        ("builtin:thmD(10)", "s", "10", (0, "10\n", "")),
        (
            "builtin:thmD(10)",
            "s",
            "012",
            (2, "", "error: alphabets beyond 10 letters need comma-separated strings\n"),
        ),
        (
            "builtin:thmD(10)",
            "s",
            "+5",
            (2, "", "error: alphabets beyond 10 letters need comma-separated strings\n"),
        ),
    ],
)
def test_act_string_parsing(machine, word, string, expected):
    assert run_cli(["act", "--machine", machine, "--word", word, "--string", string]) == expected


@pytest.mark.parametrize("m", [2, 10, 11, 13, 301])
def test_printed_strings_parse_back(m):
    rng = random.Random(f"strings/{m}")
    strings = [(y,) for y in range(m)]
    strings += [tuple(rng.randrange(m) for _ in range(rng.randint(0, 6))) for _ in range(200)]
    for string in strings:
        assert cli._parse_string(cli._format_string(string, m), m) == string


def test_input_files_may_start_with_a_byte_order_mark(tmp_path):
    # a BOM before the first line changes no output of act or check
    files = {"machine.txt": mealy.emit(mealy.diagram1()), "rel.txt": "a^-1 g^-1 a g^-1 a^-1 g a g\na a\n"}
    runs = []
    for bom in ("", "\ufeff"):
        for name, text in files.items():
            (tmp_path / name).write_text(bom + text, encoding="utf-8")
        machine = str(tmp_path / "machine.txt")
        runs.append([
            run_cli(["act", "--machine", machine, "--word", "g", "--string", "200"]),
            run_cli(["check", "--machine", machine, "--relations", str(tmp_path / "rel.txt"), "--depth", "8"]),
        ])
    assert runs[0] == runs[1]
    assert runs[0][0] == (0, "210\n", "")
    assert runs[0][1] == (1, "PASS a^-1 g^-1 a g^-1 a^-1 g a g\nFAIL a a\n", "")


def test_orbit_type_diagram1():
    code, out, _ = run_cli(["orbit-type", "--machine", "builtin:diagram1"])
    assert code == 0 and out == "(2,1)\n"


def test_portrait_adding():
    code, out, _ = run_cli(
        ["portrait", "--machine", "builtin:adding", "--word", "a", "--depth", "2"]
    )
    assert code == 0
    assert out == "- (0 1)\n  0 ()\n  1 (0 1)\n"


def test_portrait_depth_is_bounded(tmp_path):
    # 2^0 + .. + 2^39 vertices on adding; one vertex per level on one letter
    (tmp_path / "one.txt").write_text("alphabet 1\nstate a: 0->0 a\n", encoding="utf-8")
    for machine, depth in (("builtin:adding", "40"), (str(tmp_path / "one.txt"), "100000")):
        code, out, err = run_cli(["portrait", "--machine", machine, "--word", "a", "--depth", depth])
        assert (code, out) == (2, "")
        assert err == f"error: a depth-{depth} portrait exceeds the limit of 65536 vertices\n"


@pytest.mark.parametrize(
    "machine, word, cap, sep, digest",
    [
        ("thmD(300)", "b", 320, 2, "b6ca7842f9622968c22a1ce637d18b440185b36a2b3643a8c5eb4f1ab6a887a5"),
        ("thmD(2)", "a", 512, 8, "eef64113ca62a404adfa8852c4d5ec0b79d601cbea1d08284271cf3e3fb55ee8"),
        ("thmD(2)", "a", 512, 12, "e0c6293c637b6bc6f753d28747979442b2abe289c7110f6bae55c26869699aad"),
        ("diagram2(4)", "a4", 64, 8, "11ac804a0472395775279739e069f2cf572e19037514a5ac730dc41f7c4730f4"),
    ],
    ids=["thmD(300)-b", "thmD(2)-a-sep8", "thmD(2)-a-sep12", "diagram2(4)-a4"],
)
def test_table_states_keep_their_listing(machine, word, cap, sep, digest):
    # table closures key each distinct code tuple once; the sha256 of each
    # listing was recorded when repeated successors were keyed again
    argv = ["states", "--machine", f"builtin:{machine}", "--word", word, "--max", str(cap), "--sep-depth", str(sep)]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("word", ["g1 g1^-1", "g1^-1 a1 g1^-1 a1^-1 g1 a1 g1 a1^-1"])
def test_witness_ends_at_once_on_an_exactly_trivial_word(word):
    # the first word cancels freely, the second is the identity element of
    # Z wr Z (two conjugate lamps commute): both are trivial at every depth, so
    # the search must end without deepening level by level to 10^12
    start = time.perf_counter()
    code, out, _ = run_cli(["witness", "--model", "zwrz", "--word", word, "--max-depth", str(10**12)])
    assert (code, out) == (0, f"trivial-to-depth {10**12}\n")
    assert time.perf_counter() - start < 1


def test_build_recursions_matches_display():
    code, out, _ = run_cli(["build", "--data", "cp-wr-z2:p=2", "--emit", "recursions"])
    assert code == 0
    assert out.splitlines() == ["s = (e, e, s) (0 1)", "a = (a, a s, a b)", "b = (e, e, a)"]


def test_recursions_with_four_letter_words():
    code, out, _ = run_cli(["build", "--data", "cp-wr-z2:p=7", "--emit", "recursions"])
    assert code == 0
    assert out.splitlines() == [
        "s = (e, e, e, e, e, e, e, s) (0 1 2 3 4 5 6)",
        "a = (a, a s, a s s, a s s s, a s^-1 s^-1 s^-1, a s^-1 s^-1, a s^-1, a b)",
        "b = (e, e, e, e, e, e, e, a)",
    ]


def test_recursions_with_states_outside_the_ball():
    # z's section at 15 has no word of at most SEARCH_LEN letters, so it is
    # the state q7, whose own section at 16 is q7 again
    code, out, _ = run_cli(["build", "--data", "lamplighter:B=2,2,2", "--emit", "recursions"])
    assert code == 0
    assert out.splitlines() == [
        "b1 = (e, b1, e, b1, e, b1, e, b1, e, b1, e, b1, e, b1, e, b1, b1) (0 2)(1 3)(4 6)(5 7)(8 10)(9 11)(12 14)(13 15)",
        "b2 = (e, b2, e, b2, e, b2, e, b2, e, b2, e, b2, e, b2, e, b2, b2) (0 4)(1 5)(2 6)(3 7)(8 12)(9 13)(10 14)(11 15)",
        "b3 = (e, b3, e, b3, e, b3, e, b3, e, b3, e, b3, e, b3, e, b3, b3) (0 8)(1 9)(2 10)(3 11)(4 12)(5 13)(6 14)(7 15)",
        "z = (e, z, e, b1 z b1, e, b2 z b2, e, b1 b2 z b1 b2, e, b3 z b3, e, b1 b3 z b1 b3, e, b2 b3 z b2 b3, e, q7, z) (0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13)(14 15)",
        "q7 = (b1 b2 b3, z b1 b2 b3, b1 b2 b3, b1 z b2 b3, b1 b2 b3, b2 z b1 b3, b1 b2 b3, b1 b2 z b3, b1 b2 b3, b3 z b1 b2, b1 b2 b3, b1 b3 z b2, b1 b2 b3, b2 b3 z b1, b1 b2 b3, b1 b2 b3 z, q7) (0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13)(14 15)",
    ]
    # 80 states outside the ball, found by hundreds of misses
    code, out, _ = run_cli(["build", "--data", "lamplighter:B=11", "--emit", "recursions"])
    assert code == 0 and len(out.splitlines()) == 82
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "198a12fbd8f79e0102168ccd02c161fe0be75f5a807ac88993d7110acea8664b"
    )


def _halving_machine(factor):
    """Z with the index-2 subgroup 2Z and the image ``2m -> factor * m``."""
    model = ZModel()
    endo = VirtualEndo(
        model,
        contains=lambda n: n % 2 == 0,
        image=lambda n: factor * (n // 2),
        transversal=(0, 1),
        coset_index=lambda n: n % 2,
    )
    return build_representation(GData(model, [endo]))


def test_recursion_listing_limit():
    # 3 = a a a lies in the generator ball, so the listing closes at once
    assert recursion_lines(_halving_machine(3)) == ["a = (e, a a a) (0 1)"]
    # with 7 every section leaves the ball and spawns a state whose sections
    # grow again, so the listing stops at MAX_STATES states
    with pytest.raises(ValueError, match=f"exceeded {tree_core.MAX_STATES} states"):
        recursion_lines(_halving_machine(7))


def test_build_file_round_trip(tmp_path):
    path = tmp_path / "zwrz.txt"
    code, _, _ = run_cli(["build", "--data", "zwrz", "--emit", "file", "-o", str(path)])
    assert code == 0
    text = path.read_text(encoding="utf-8")
    assert mealy.emit(mealy.parse(text)) == text


def test_export_keeps_generators_beyond_max_states():
    # 600 generators whose sections stay among them: the closure adds no state
    code, out, _ = run_cli(["build", "--data", "zomega:n=600", "--emit", "file"])
    assert code == 0 and out.count("\nstate ") == 601
    assert out.endswith("state a600: 0->0 a600, 1->1 a600, 2->2 a599\n")


def test_listing_and_inflation_keep_generators_beyond_max_states(tmp_path):
    # a closure never cuts its starts, so every walk over the 600 generators completes
    code, out, _ = run_cli(["build", "--data", "zomega:n=600"])
    assert code == 0 and len(out.splitlines()) == 600
    path = tmp_path / "zomega600.txt"
    code, _, _ = run_cli(["build", "--data", "zomega:n=600", "--emit", "file", "-o", str(path)])
    assert code == 0
    code, out, _ = run_cli(["inflate", "--machine", str(path), "-k", "1", "--emit", "file"])
    assert code == 0 and out.encode() == path.read_bytes()


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
    code, _, err = run_cli(["orbit-type", "--machine", "builtin:thmD(1001)"])
    assert (code, err) == (2, "error: thmD needs 2 <= p <= 1000\n")
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
    # a negative depth passes no relation, also from a file that holds none,
    # and a separation depth below 1 is no probe at all, so neither may report
    # "PASS" or "complete"; --max has the state bound of every other walk
    (tmp_path / "a.txt").write_text("a\n", encoding="utf-8")
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    (tmp_path / "comments.txt").write_text("# none\n\n  # here\n", encoding="utf-8")
    for argv, message in (
        (["check", "--machine", "builtin:adding", "--relations", str(tmp_path / "a.txt"), "--depth", "-3"],
         "depth must be nonnegative"),
        (["check", "--machine", "builtin:adding", "--relations", str(tmp_path / "empty.txt"), "--depth", "-1"],
         "depth must be nonnegative"),
        (["check", "--machine", "builtin:adding", "--relations", str(tmp_path / "comments.txt"), "--depth", "-1"],
         "depth must be nonnegative"),
        (["states", "--machine", "builtin:thmD(2)", "--word", "a", "--max", "513", "--sep-depth", "8"],
         "--max exceeds the limit of 512 states"),
        (["states", "--machine", "builtin:diagram2(4)", "--word", "a4", "--max", "16", "--sep-depth", "0"],
         "sep_depth must be at least 1"),
        (["states", "--machine", "builtin:diagram2(4)", "--word", "a4", "--max", "16", "--sep-depth", "-2"],
         "sep_depth must be at least 1"),
    ):
        code, out, err = run_cli(argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(["check", "--machine", "builtin:adding", "--relations", str(tmp_path / "a.txt"), "--depth", "0"])
    assert (code, out) == (0, "PASS a\n")
    # an alphabet with no state line would make portrait and states walk every letter
    (tmp_path / "huge.txt").write_text("alphabet 1000000000000\n", encoding="utf-8")
    for argv in (
        ["portrait", "--machine", str(tmp_path / "huge.txt"), "--word", "e", "--depth", "1"],
        ["states", "--machine", str(tmp_path / "huge.txt"), "--word", "e", "--max", "4", "--sep-depth", "1"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
    # selectors with a missing, unknown or repeated key, or no or too many named copies
    for argv in (
        ["build", "--data", "cp-wr-z2"],
        ["witness", "--model", "zl-wr-zd:l=1", "--word", "g1", "--max-depth", "3"],
        ["build", "--data", "zl-wr-zd:l=1,d=1,x=3"],
        ["build", "--data", "zl-wr-zd:l=1,d=1,l=2"],
        ["build", "--data", "z:junk"],
        ["build", "--data", "zomega:n=0"],
        ["build", "--data", "zomega:n=-1"],
        ["build", "--data", "zomega:n=1001"],
        ["witness", "--model", "zomega:n=100000000", "--word", "a1", "--max-depth", "3"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
    # a huge alphabet with one short state line is rejected by a count
    huge = tmp_path / "huge.txt"
    huge.write_text("alphabet 1000000000000\nstate a: 0->0 e\n", encoding="utf-8")
    code, out, err = run_cli(["act", "--machine", str(huge), "--word", "a", "--string", "0"])
    assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
    # a non-finite-state machine cannot be exported in the line format
    refused = (2, "", "error: state closure exceeded 512 states; not exportable\n")
    assert run_cli(["build", "--data", "cp-wr-z2:p=2", "--emit", "file"]) == refused
    # nor as a DOT graph, nor into a file, which is then not written
    assert run_cli(["build", "--data", "cp-wr-z2:p=2", "--emit", "dot"]) == refused
    unwritten = tmp_path / "cp-wr-z2.txt"
    assert run_cli(["build", "--data", "cp-wr-z2:p=2", "--emit", "file", "-o", str(unwritten)]) == refused
    assert not unwritten.exists()
    # nor printed as recursions once sections leave the searchable ball
    code, _, err = run_cli(["build", "--data", "cp-wr-z2:p=13", "--emit", "recursions"])
    assert code == 2 and "closure exceeded" in err
    code, _, _ = run_cli(["inflate", "--machine", "builtin:adding", "-k", "0", "--emit", "recursions"])
    assert code == 2
    # an engine machine that is not finite-state has no inflated table
    code, out, err = run_cli(["inflate", "--machine", "builtin:thmD-engine(2)", "-k", "1"])
    assert (code, out, err) == (2, "", "error: state closure exceeded 512 states; not inflatable\n")
    # an inflated alphabet is bounded before its blocks are listed
    start = time.perf_counter()
    code, out, err = run_cli(["inflate", "--machine", "builtin:adding", "-k", "17", "--emit", "file"])
    assert (code, out, err) == (2, "", "error: 2^17 block letters exceed the limit of 65536\n")
    # on a one-letter alphabet every m^k is 1, so the block length is bounded too
    one = tmp_path / "one.txt"
    one.write_text("alphabet 1\nstate a: 0->0 a\n", encoding="utf-8")
    code, out, err = run_cli(["inflate", "--machine", str(one), "-k", "65537", "--emit", "file"])
    assert (code, out, err) == (2, "", "error: blocks of 65537 letters exceed the limit of 65536\n")
    assert time.perf_counter() - start < 0.5  # listing 2^17 blocks takes over a second
    # neither can a table whose sections are proper words
    code, _, err = run_cli(["inflate", "--machine", "builtin:thmD(2)", "-k", "1", "--emit", "file"])
    assert code == 2 and "composite" in err


def test_unexpected_exception_exits_2_with_one_line(monkeypatch):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "_cmd_orbit_type", broken)
    code, out, err = run_cli(["orbit-type", "--machine", "builtin:adding"])
    assert (code, out, err) == (2, "", "error: internal KeyError: 'lost'\n")


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


def _odometer_pair_check(tmp_path, depth: int):
    """``check --depth`` of the relation ``a b^-1`` on two copies of the
    binary odometer, which holds at every depth."""
    machine = tmp_path / "ab.txt"
    machine.write_text(
        "alphabet 2\nstate a: 0->1 e, 1->0 a\nstate b: 0->1 e, 1->0 b\n", encoding="utf-8"
    )
    relations = tmp_path / "ab.rel"
    relations.write_text("a b^-1\n", encoding="utf-8")
    argv = ["check", "--machine", str(machine), "--relations", str(relations)]
    return run_cli(argv + ["--depth", str(depth)])


def test_deep_check_is_an_error_not_a_failure(tmp_path):
    code, out, err = _odometer_pair_check(tmp_path, 5000)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.xfail(
    strict=True,
    reason="_trivial recurses once per level, so a proof past about 990 levels "
    "exits 2 with 'maximum recursion depth exceeded' (ROADMAP item 3)",
)
def test_deep_check_of_the_odometer_pair_passes(tmp_path):
    assert _odometer_pair_check(tmp_path, 5000) == (0, "PASS a b^-1\n", "")


@pytest.mark.parametrize("cmd", GOLDEN, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_golden_outputs_are_byte_identical(cmd, tmp_path):
    for name, text in workloads.GOLDEN_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, _ = run_cli(workloads.expand(cmd["argv"], tmp_path))
    assert (code, out) == (cmd["exit"], cmd["stdout"])
    for name, text in cmd["files"].items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()


def test_pinned_commands_are_byte_identical():
    changed = [" ".join(c["argv"]) for c in PINNED if _digest(run_cli(c["argv"])) != c["sha256"]]
    assert not changed, changed


@pytest.mark.parametrize(
    "argv, message",
    [
        (["witness", "--model", "cp-wr-z2:p=1001", "--word", "s", "--max-depth", "1"],
         "cp-wr-z2 needs 2 <= p <= 1000"),
        (["orbit-type", "--machine", "builtin:thmD-engine(80000)"], "cp-wr-z2 needs 2 <= p <= 1000"),
        (["build", "--data", "zl-wr-zd:l=2000,d=1"], "zl-wr-zd needs 1 <= l, d <= 1000"),
        (["build", "--data", "zl-wr-zd:l=1,d=1001"], "zl-wr-zd needs 1 <= l, d <= 1000"),
        (["orbit-type", "--machine", "builtin:prop31(400000,1)"], "prop31 needs 1 <= l, d <= 1000"),
        (["orbit-type", "--machine", "builtin:prop31(1,1001)"], "prop31 needs 1 <= l, d <= 1000"),
        (["build", "--data", "lamplighter:B=" + ",".join(["2"] * 16)], "lamplighter needs |B| <= 256"),
        # a long factor list stops at the first factor past the bound
        (["build", "--data", "lamplighter:B=" + ",".join(["2"] * 100000)], "lamplighter needs |B| <= 256"),
        (["build", "--data", "lamplighter:B=400000"], "lamplighter needs |B| <= 256"),
        (["build", "--data", "lamplighter:B=257"], "lamplighter needs |B| <= 256"),
        (["orbit-type", "--machine", "builtin:diagram2(400000)"], "diagram2 needs 1 <= n <= 1000"),
        (["orbit-type", "--machine", "builtin:diagram2(1001)"], "diagram2 needs 1 <= n <= 1000"),
        (["concat", "--data", "+".join(["zwrz"] * 5)], "concat joins at most 4 selectors"),
        (["concat", "--data", "+".join(["zwrz"] * 200)], "concat joins at most 4 selectors"),
    ],
)
def test_over_bound_parameters_exit_2_before_building(argv, message):
    start = time.perf_counter()
    assert run_cli(argv) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--data", "lamplighter:B="], "lamplighter selector needs B=<k1,..,kr>"),
        (["build", "--data", "lamplighter:B= , "], "lamplighter selector needs B=<k1,..,kr>"),
        (["build", "--data", "zomega:n=x"], "the zomega selector needs an integer n, got 'x'"),
        (["witness", "--model", "zl-wr-zd:l=1,d=", "--word", "g1", "--max-depth", "1"],
         "the zl-wr-zd selector needs an integer d, got ''"),
        (["build", "--data", "lamplighter:B=2,x"], "the lamplighter selector needs an integer B, got 'x'"),
        (["build", "--data", "lamplighter:B=1"], "the lamplighter selector needs factors of at least 2, got 1"),
        (["build", "--data", "lamplighter:B=0"], "the lamplighter selector needs factors of at least 2, got 0"),
        (["build", "--data", "lamplighter:B=-3"], "the lamplighter selector needs factors of at least 2, got -3"),
        (["build", "--data", "lamplighter:B=2,1"], "the lamplighter selector needs factors of at least 2, got 1"),
        # factor by factor: the bound on |B| is met before the factor that is no integer
        (["build", "--data", "lamplighter:B=300,x"], "lamplighter needs |B| <= 256"),
    ],
)
def test_selector_errors_name_the_selector(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")


def test_bounds_admit_their_largest_values():
    for argv in (
        ["orbit-type", "--machine", "builtin:thmD-engine(1000)"],
        ["orbit-type", "--machine", "builtin:diagram2(1000)"],
        ["build", "--data", "lamplighter:B=256", "--emit", "file"],
        ["concat", "--data", "+".join(["zwrz"] * 4)],
    ):
        code, out, err = run_cli(argv)
        assert code in (0, 2) and "needs" not in err and "at most" not in err, (argv, err)


# argparse's surface: help, usage and errors around every command, each argv
# (as ``shlex.join``) with the sha256 of its (exit, stdout, stderr) at 80
# columns (``_digest``), recorded on Python 3.10-3.12 while every run still
# built the parsers of all nine commands
ARGPARSE_DIGESTS = {
    "-h": "99d0e89dbc67ed7e3457208c3015be5f5a0c795eb299197b4762cdadbdc1229a",
    "--help": "99d0e89dbc67ed7e3457208c3015be5f5a0c795eb299197b4762cdadbdc1229a",
    "": "91bf1655f8a055606f6e4bada40274c4a99bc715859952cee0fdc6cb5df5ae33",
    "bogus": "ca777beb23e138ea3b4184bbaec57c20ed549d747e27a3fedf8a6c09c7194c21",
    "act": "fe5c3d6d9103d5abdd7ff27c9ac9c892b8c6dfb5063d7fec9b06d38c860d74ea",
    "act -h": "225de799de329692fde6bbb2155c55a00f0438fe2f1fb25673881c238e3058f4",
    "states --help": "6b4552d132d2b6439ee070a682de3a8ef912ac7357b460d86f60268255330a40",
    "concat -h": "908dd44fefe3efd82984a36240d6c71dc3276ed47df6c256ac436f47f7c38ef2",
    "build -h": "e7b4bdda700b4532fb7235be5e739a1df8f611f43b774ac095b145ccf20a462d",
    "act --machine builtin:adding --word a --string 111": "79bcaa36eb52fb9a901e4858531d4b9668d0a5166f75055e140031bc5e6e0f6c",
    "act --machine builtin:adding --word a --string 111 extra": "1bb1402721026aa3dcc4dfbfef928e5ee2a1f0e18910195a622b7c64a087619b",
    "act --machine builtin:adding --word a --string 111 --bogus": "60fc3090cc73bbfdd1538718ae19a8b3ddda4d633e4ecaa0bb6aad9e449dcf6a",
    "act --machine builtin:adding --word a": "17831823f137dc180e5ae7c67f39f4f702c91b64d8e2700f23fbdcf97458b0ef",
    "portrait --machine builtin:adding --word a --depth x": "dcfabdb64b411b7d3366c0d7894ff4bb6296bc27b5eab673449ab119b37f9a23",
    "build --data zwrz --emit bogus": "66b846b3672b023e0252fcc44d09dac1383ce4e119ef5c942930f04e6064cc80",
    "--bogus act": "fe5c3d6d9103d5abdd7ff27c9ac9c892b8c6dfb5063d7fec9b06d38c860d74ea",
    "-h act": "99d0e89dbc67ed7e3457208c3015be5f5a0c795eb299197b4762cdadbdc1229a",
    "-- act": "a550569b9b72a242ba1b42407fb4aa22fd35855be4f2c2b320ba8d24652d6b51",
    "ac": "c2ecfed76bc1ada786199e244676ac8af9ec58cd40ba86944cfdd87de70a9284",
    "act --mach builtin:adding --word a --string 111": "79bcaa36eb52fb9a901e4858531d4b9668d0a5166f75055e140031bc5e6e0f6c",
    "witness --model zwrz --word 'g1 a1' --max-depth 10": "c20c606b7cf2283c7babbadd203a9105202b7934867a946ea1cd86b1f22fabba",
    "orbit-type --machine builtin:diagram1": "dd82266cb0b57466e89328b1d9fb3dd1713687ad40df6aa5667b7f66d388235a",
    "check": "c18463dc1c7b645e207943e9f18a8f3a8384616c49c0f844ac95d8212b818e90",
    "inflate --machine builtin:adding -k 2 --emit file": "af728e01f487db55ce0525b161367906c4450cf62c9ffb0b8253307764287e27",
    "states --machine 'builtin:diagram2(4)' --word a4 --max 16 --sep-depth 8": "bf88fecc7aa2d12d45268ae71fd3d8731101b7e366381a473fbb50255db768b8",
    "orbit-type -h": "bec6e9a8bd70619e6e3b619d43767f70f62a36875212a945482f88fd2950d554",
    "portrait -h": "ed447331c13d26147d21c9117920fffb61e21c5bd500cd5a674abc3b0ddd5981",
    "states -h": "6b4552d132d2b6439ee070a682de3a8ef912ac7357b460d86f60268255330a40",
    "check -h": "86a77e52a3072322893bb402bc410da4c85190afe1917e74e9ff74465612433f",
    "witness -h": "735a71a5236fb14b461aaf8a26899a720f3d5c393cefb839191978049cdaa494",
    "inflate -h": "3e35d2b8feedae311f1283958d343069848b1f67ad32342082786d8f00757882",
}
# Python 3.13 wraps usage lines, quotes choices and lists short options
# differently; these entries replace the ones above there.  They do not all
# hold on 3.13.0, which still quotes the choices of an invalid-choice error:
# there `bogus`, `build --data zwrz --emit bogus`, `-- act` and `ac` differ,
# as they did while every run still built the parsers of all nine commands,
# and ARGPARSE_DIGESTS_3130 replaces them
ARGPARSE_DIGESTS_313 = {
    "-h": "86416ac8dd755b8e4f2032ce7047f23ab54f41a4de6f3f001c1490930299c379",
    "--help": "86416ac8dd755b8e4f2032ce7047f23ab54f41a4de6f3f001c1490930299c379",
    "": "bcd8c132dbd62a202a40466401a4d7c2cd37f3dd27a9263c6d7fb1752affd69f",
    "bogus": "46332a98516452be849989881dd9062cc9b58654abbffb68706f5dfcc7c9a94a",
    "states --help": "09cf353acf406fd791d66286435e8663b8173e663a14c0416986ec2ac74253af",
    "concat -h": "819fd701675deaf101bc1f9aec66942acff6459484697fa22322873c907bef3d",
    "build -h": "6bc2b1ce08601b5dcdbb4e85c0dfb655f03a50c65f4880d20d4c1304622f0ab6",
    "act --machine builtin:adding --word a --string 111 extra": "6f494872ed4f901e7de188235460f0e58c57f8c23fff4121532efdd4c3dedf0a",
    "act --machine builtin:adding --word a --string 111 --bogus": "43cb1289ef1f6848324aa89137e74197db1fbbf3275f7b94997d073bf90124bb",
    "build --data zwrz --emit bogus": "85438e40653b9314336b669523c8bff030485033e4c232ae65662450f72651d5",
    "-h act": "86416ac8dd755b8e4f2032ce7047f23ab54f41a4de6f3f001c1490930299c379",
    "-- act": "fe5c3d6d9103d5abdd7ff27c9ac9c892b8c6dfb5063d7fec9b06d38c860d74ea",
    "ac": "6ceab32421d7c496080593f15e8db87769eb5ce6499976e37b8c1f529503439b",
    "check": "b7b6bbe96aef4bc566a540e6d8b2df46c25fa14ead23654e994015eb11afd28c",
    "states -h": "09cf353acf406fd791d66286435e8663b8173e663a14c0416986ec2ac74253af",
    "check -h": "961d324171593006dd0c4c598cb51f15ea40735caed83c4cea892d636e3f1982",
    "inflate -h": "82efe8a5c4262313029db602e6876bb5f1d41b4a8383d490788fbcb7bc3ecdd2",
}
# Python 3.13.0, which quotes the choices of an invalid-choice error and reads
# a leading `--` as the command: recorded there at every width
ARGPARSE_DIGESTS_3130 = {
    "bogus": "88dfbe58d1a4933d20758df8258257e28287e7d584cda4c194e50325ef9d3cbb",
    "build --data zwrz --emit bogus": "66b846b3672b023e0252fcc44d09dac1383ce4e119ef5c942930f04e6064cc80",
    "-- act": "eaef259ebb9e81002a82bfe814337e46db77026b0d808e548f3217809ebc87be",
    "ac": "1b4e4c067c3dff6bad67c1b5de0053c3d49536ddb1e670f3dbbb5d51b58af099",
}


def _quotes_invalid_choices() -> bool:
    """Whether this argparse quotes the choices of an invalid-choice error."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("x", choices=["a"])
    try:
        parser.parse_args(["b"])
    except argparse.ArgumentError as err:
        return "'a'" in str(err)


QUOTES_INVALID_CHOICES = _quotes_invalid_choices()


@pytest.mark.parametrize("columns", ["80", "40", "200", None])
def test_argparse_surface_is_pinned_at_every_width(columns, monkeypatch):
    if sys.version_info >= (3, 14):
        pytest.skip("argparse's text is pinned for Python 3.10-3.13")
    digests = {**ARGPARSE_DIGESTS, **(ARGPARSE_DIGESTS_313 if sys.version_info >= (3, 13) else {})}
    if sys.version_info >= (3, 13) and QUOTES_INVALID_CHOICES:
        digests.update(ARGPARSE_DIGESTS_3130)
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    changed = [text for text, digest in digests.items() if _digest(run_cli(shlex.split(text))) != digest]
    assert not changed, changed


def test_a_run_builds_only_the_parser_of_its_command(monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    (tmp_path / "rel.txt").write_text("a a^-1\n", encoding="utf-8")
    runs = [
        ["act", "--machine", "builtin:adding", "--word", "a", "--string", "111"],
        ["orbit-type", "--machine", "builtin:diagram1"],
        ["portrait", "--machine", "builtin:adding", "--word", "a", "--depth", "2"],
        ["states", "--machine", "builtin:adding", "--word", "a", "--max", "4", "--sep-depth", "3"],
        ["check", "--machine", "builtin:adding", "--relations", str(tmp_path / "rel.txt"), "--depth", "3"],
        ["witness", "--model", "zwrz", "--word", "g1", "--max-depth", "4"],
        ["build", "--data", "zwrz"],
        ["inflate", "--machine", "builtin:adding", "-k", "1"],
        ["concat", "--data", "zwrz+zwrz"],
    ]
    assert [argv[0] for argv in runs] == list(cli._COMMANDS)
    for argv in runs:
        built.clear()
        assert run_cli(argv)[0] == 0, argv
        assert [p.prog for p in built] == [f"selfsim {argv[0]}"], argv
    # help, a missing command and an unknown one list every command
    for argv in (["-h"], [], ["bogus"], ["-h", "act"]):
        built.clear()
        run_cli(argv)
        assert len(built) == 10, argv
    # arguments left over: the command's parser, then the full one for the error
    built.clear()
    assert run_cli(runs[0] + ["extra"])[0] == 2
    assert len(built) == 1 + 10


def _subparser(parser, command):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


@pytest.mark.parametrize("columns", ["40", "80", "200", None])
def test_a_command_parser_prints_the_help_of_its_subparser(columns, monkeypatch):
    # the parser that a named command builds, against the full parser's
    # subparser of that command, which it replaces
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    for command in cli._COMMANDS:
        alone, sub = cli.build_parser(command), _subparser(cli.build_parser(), command)
        assert alone.prog == sub.prog == f"selfsim {command}"
        assert alone.format_help() == sub.format_help(), command
        assert alone.format_usage() == sub.format_usage(), command


# each command's flags with a value each; no handler runs, so no file is read
_PARSE_BASE = {
    "act": [("--machine", "builtin:adding"), ("--word", "a"), ("--string", "111")],
    "orbit-type": [("--machine", "builtin:diagram1")],
    "portrait": [("--machine", "builtin:adding"), ("--word", "a"), ("--depth", "2")],
    "states": [("--machine", "builtin:adding"), ("--word", "a"), ("--max", "4"), ("--sep-depth", "3")],
    "check": [("--machine", "builtin:adding"), ("--relations", "rel.txt"), ("--depth", "3")],
    "witness": [("--model", "zwrz"), ("--word", "g1"), ("--max-depth", "4")],
    "build": [("--data", "zwrz"), ("--emit", "file"), ("-o", "out.txt")],
    "inflate": [("--machine", "builtin:adding"), ("-k", "1"), ("--emit", "dot"), ("--output", "out.txt")],
    "concat": [("--data", "zwrz+zwrz"), ("--emit", "recursions")],
}
_PARSE_EXTRA = {
    "act": [["--string", "-"], ["--string=-"], ["--string", "-1"]],
    "portrait": [["--depth", "-1"], ["--depth", "x"]],
    "states": [["--max", "-1"], ["--ma", "3"]],
    "check": [["--depth", "-1"], ["--depth=-1"]],
    "witness": [["--max-depth", "-3"], ["--ma", "3"], ["--m", "zwrz"]],
    "build": [["--emit", "bogus"], ["--emit", "d"], ["--output"]],
    "inflate": [["-k2"], ["-k", "x"], ["-k=2"], ["-oout.txt"], ["--emit=file"]],
    "concat": [["-o", "a.txt", "--output", "b.txt"]],
}


def _parse_variants(command):
    pairs = _PARSE_BASE[command]
    flat = [x for pair in pairs for x in pair]
    flag, value = pairs[0]
    variants = [
        flat,
        [x for pair in reversed(pairs) for x in pair],  # flags in any order
        [f"{f}={v}" for f, v in pairs],
        [x for f, v in pairs for x in (f[:6] if f.startswith("--") else f, v)],  # --mach
        [x for f, v in pairs for x in ((f, v) if f.startswith("--") else (f + v,))],  # -k2
        [flag, "other", *flat],  # a repeated flag: the last one counts
        [*flat, flag],  # a flag without its value
        flat[2:],  # a required flag missing
        [],
        [*flat, "extra"],
        ["extra", *flat],
        [*flat, "--bogus"],
        [*flat, "--"],
        [*flat, "--", "x"],
        [flag, "--", value, *flat[2:]],
        [*flat[:2], "-h", *flat[2:]],
        [*flat, "--help"],
    ]
    return variants + [flat + extra for extra in _PARSE_EXTRA.get(command, [])]


def test_a_command_parser_parses_as_its_subparser(monkeypatch):
    # main's parse of ``command ...`` against the full parser's parse_args:
    # the same namespace but for ``command``, or the same exit and text
    seen = []
    for _, handler, *_ in cli._COMMANDS.values():
        monkeypatch.setattr(cli, handler, lambda args: seen.append(args) or 0)

    def via_main(argv):
        seen.clear()
        assert main(argv) == 0
        return seen[-1]

    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = parse(argv)
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue()
        return {k: v for k, v in vars(args).items() if k != "command"}

    kinds = set()
    for command in cli._COMMANDS:
        for variant in _parse_variants(command):
            argv = [command, *variant]
            new, old = outcome(via_main, argv), outcome(cli.build_parser().parse_args, argv)
            assert new == old, argv
            kinds.add(new[0] if isinstance(new, tuple) else "parsed")
    assert kinds == {"parsed", 0, 2}


if __name__ == "__main__":
    # re-record the pinned digests from the tree on the path: run this only on
    # the commit whose behaviour is the reference
    for c in PINNED:
        c["sha256"] = _digest(run_cli(c["argv"]))
    lines = ",\n".join(json.dumps(c) for c in PINNED)
    PINNED_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
