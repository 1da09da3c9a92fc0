import pytest

from selfsim import mealy
from selfsim.perm_word import Perm
from selfsim.tree_core import states

DIAGRAM1_FILE = """\
alphabet 3
state a: 0->1 e, 1->0 a, 2->2 e
state g: 0->0 g, 1->1 e, 2->2 a
"""


def _entry_strings(machine, name):
    sections, perm = machine.entry(name)
    return [str(w) for w in sections], perm


def test_identity_only_automaton():
    only_e = mealy.MealyAutomaton(2, [], {}, {})
    machine = mealy.to_machine(only_e)
    assert machine.generators == ()
    assert mealy.emit(only_e).splitlines() == ["alphabet 2", "state e: 0->0 e, 1->1 e"]
    assert mealy.parse(mealy.emit(only_e)) == only_e


def test_to_machine_diagram1():
    machine = mealy.to_machine(mealy.diagram1())
    secs, perm = _entry_strings(machine, "a")
    assert secs == ["e", "a", "e"] and perm == Perm((1, 0, 2))
    secs, perm = _entry_strings(machine, "g")
    assert secs == ["g", "e", "a"] and perm.is_identity()


def test_to_machine_diagram3():
    machine = mealy.to_machine(mealy.diagram3())
    secs, perm = _entry_strings(machine, "s")
    assert secs == ["e"] * 4 and perm == Perm.from_cycles(4, [(0, 2), (1, 3)])
    secs, perm = _entry_strings(machine, "g")
    assert secs == ["g", "e", "as", "as"] and perm.is_identity()
    secs, perm = _entry_strings(machine, "a")
    assert secs == ["e", "a", "e", "e"] and perm == Perm((1, 0, 2, 3))
    secs, perm = _entry_strings(machine, "as")
    assert secs == ["e", "e", "e", "a"] and perm == Perm((0, 1, 3, 2))


def test_non_invertible_state_rejected():
    with pytest.raises(ValueError):
        mealy.MealyAutomaton(2, ["q"], {("q", 0): "e", ("q", 1): "e"}, {("q", 0): 0, ("q", 1): 0})


def test_parse_diagram1_file():
    automaton = mealy.parse(DIAGRAM1_FILE)
    assert automaton.states == ["a", "g"]
    assert automaton == mealy.diagram1()


def test_parse_accepts_comments_and_explicit_identity():
    text = "# automaton\nalphabet 2\nstate e: 0->0 e, 1->1 e\nstate a: 0->1 e, 1->0 a\n"
    assert mealy.parse(text) == mealy.adding_machine()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        mealy.parse("alphabet 2\nstate a: 0->1 e\n")
    with pytest.raises(ValueError, match="line 1"):
        mealy.parse("alphabets 2\n")
    with pytest.raises(ValueError, match="line 3"):
        mealy.parse("alphabet 2\nstate a: 0->1 e, 1->0 a\nstate e: 0->1 e, 1->0 e\n")
    # coverage is a count, not a list of the whole alphabet
    with pytest.raises(ValueError, match="line 2: state a does not cover all letters"):
        mealy.parse("alphabet 1000000000000\nstate a: 0->0 e\n")
    # a state line bounds the alphabet by the file's length, so one is required
    with pytest.raises(ValueError, match="no state line"):
        mealy.parse("alphabet 3\n")


def test_parse_rejects_non_invertible_rows():
    with pytest.raises(ValueError):
        mealy.parse("alphabet 2\nstate a: 0->0 e, 1->0 a\n")


def test_round_trips():
    for build in (mealy.adding_machine, mealy.diagram1, mealy.diagram3, lambda: mealy.diagram2(4)):
        automaton = build()
        assert mealy.parse(mealy.emit(automaton)) == automaton


def test_to_dot_identity():
    only_e = mealy.MealyAutomaton(2, [], {}, {})
    dot = mealy.to_dot(only_e)
    assert dot.startswith("digraph {")
    assert 'e -> e [label="0|0, 1|1"];' in dot


def test_to_dot_diagram1():
    dot = mealy.to_dot(mealy.diagram1())
    assert 'g -> a [label="2|2"];' in dot
    assert 'a -> e [label="0|1, 2|2"];' in dot
    assert dot.count("[shape=circle]") == 2


def test_to_dot_diagram2_chain():
    dot = mealy.to_dot(mealy.diagram2(3))
    assert 'a3 -> a2 [label="2|2"];' in dot
    assert 'a2 -> a1 [label="2|2"];' in dot


def test_builtin_adding():
    machine = mealy.builtin_machine("adding")
    secs, perm = _entry_strings(machine, "a")
    assert secs == ["e", "a"] and perm == Perm((1, 0))


def test_builtin_diagram2():
    machine = mealy.builtin_machine("diagram2(3)")
    assert _entry_strings(machine, "a1") == (["e", "a1", "e"], Perm((1, 0, 2)))
    assert _entry_strings(machine, "a2") == (["a2", "a2", "a1"], Perm.identity(3))
    assert _entry_strings(machine, "a3") == (["a3", "a3", "a2"], Perm.identity(3))


def test_builtin_prime_wreath_table():
    machine = mealy.builtin_machine("thmD(2)")
    assert _entry_strings(machine, "s") == (["e", "e", "s"], Perm((1, 0, 2)))
    assert _entry_strings(machine, "a") == (["a", "a s", "a b"], Perm.identity(3))
    assert _entry_strings(machine, "b") == (["e", "e", "a"], Perm.identity(3))
    p3 = mealy.builtin_machine("thmD(3)")
    assert _entry_strings(p3, "a") == (
        ["a", "a s", "a s s", "a b"],
        Perm.identity(4),
    )


def test_builtin_prop31():
    machine = mealy.builtin_machine("prop31(2,2)")
    assert _entry_strings(machine, "g1") == (["g2", "e", "g1", "a1"], Perm.identity(4))
    assert _entry_strings(machine, "g2") == (["g1", "e", "g2", "e"], Perm.identity(4))
    assert _entry_strings(machine, "a1") == (["e", "a1", "a2", "e"], Perm((1, 0, 2, 3)))
    assert _entry_strings(machine, "a2") == (["a2", "a2", "a1", "e"], Perm.identity(4))
    zwrz = mealy.builtin_machine("prop31(1,1)")
    assert _entry_strings(zwrz, "g1") == (["g1", "e", "a1"], Perm.identity(3))
    assert _entry_strings(zwrz, "a1") == (["e", "a1", "e"], Perm((1, 0, 2)))


def test_builtin_brunner_sidki_sections():
    machine = mealy.builtin_machine("brunner_sidki")
    a = machine.automorphism("a")
    assert str(a.section(0).word) == "e"
    assert str(a.section(1).word) == "u"
    assert _entry_strings(machine, "u") == (["a", "e"], Perm.identity(2))
    assert _entry_strings(machine, "v") == (["at", "a"], Perm.identity(2))


def test_builtin_unknown_and_bad_params():
    with pytest.raises(ValueError):
        mealy.builtin("nonesuch")
    with pytest.raises(ValueError):
        mealy.builtin("diagram2()")
    with pytest.raises(ValueError):
        mealy.builtin("thmD(1)")
    with pytest.raises(ValueError):
        mealy.builtin("adding(3)")


@pytest.mark.parametrize(
    "name, message",
    [
        ("nope", "unknown builtin machine: 'nope'"),
        ("nope(1)", "unknown builtin machine: 'nope'"),
        ("adding(1)", "builtin adding takes no parameters"),
        ("brunner_sidki(1,2)", "builtin brunner_sidki takes no parameters"),
        ("prop31(1)", "usage: prop31(l,d)"),
        ("thmD-engine()", "usage: thmD-engine(p)"),
        ("diagram2(1,2)", "usage: diagram2(n)"),
        ("diagram2(x)", "bad builtin parameters in 'x'"),
    ],
)
def test_builtin_error_texts(name, message):
    with pytest.raises(ValueError) as err:
        mealy.builtin(name)
    assert str(err.value) == message


def test_diagram2_state_counts():
    machine = mealy.builtin_machine("diagram2(5)")
    for i in range(1, 6):
        closure = states(machine.automorphism(f"a{i}"), 32, 8)
        assert len(closure) == i + 1 and not closure.truncated


def test_machine_to_mealy_round_trip():
    for build in (mealy.diagram1, mealy.diagram3):
        automaton = build()
        again = mealy.machine_to_mealy(mealy.to_machine(automaton))
        assert again == automaton


def test_machine_to_mealy_rejects_composite_sections():
    with pytest.raises(ValueError, match="composite"):
        mealy.machine_to_mealy(mealy.builtin_machine("thmD(2)"))
