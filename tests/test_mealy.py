from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim import mealy
from selfsim.gdata_engine import build_representation
from selfsim.perm_word import GroupWord, Perm, parse_word
from selfsim.tree_core import MAX_STATES, TableMachine, _walk, closure, inflate, states
from selfsim.wreath_models import data_by_selector

DIAGRAM1_FILE = """\
alphabet 3
state a: 0->1 e, 1->0 a, 2->2 e
state g: 0->0 g, 1->1 e, 2->2 a
"""


def _entry_strings(machine, name):
    sections, perm = machine.entry(name)
    return [str(w) for w in sections], perm


def test_identity_only_automaton():
    only_e = TableMachine(2, {})
    text = mealy.emit(only_e)
    assert text.splitlines() == ["alphabet 2", "state e: 0->0 e, 1->1 e"]
    again = mealy.parse(text)
    assert again.generators == () and mealy.emit(again) == text


def test_to_machine_diagram1():
    machine = mealy.diagram1()
    secs, perm = _entry_strings(machine, "a")
    assert secs == ["e", "a", "e"] and perm == Perm((1, 0, 2))
    secs, perm = _entry_strings(machine, "g")
    assert secs == ["g", "e", "a"] and perm.is_identity()


def test_to_machine_diagram3():
    machine = mealy.diagram3()
    secs, perm = _entry_strings(machine, "s")
    assert secs == ["e"] * 4 and perm == Perm.from_cycles(4, [(0, 2), (1, 3)])
    secs, perm = _entry_strings(machine, "g")
    assert secs == ["g", "e", "as", "as"] and perm.is_identity()
    secs, perm = _entry_strings(machine, "a")
    assert secs == ["e", "a", "e", "e"] and perm == Perm((1, 0, 2, 3))
    secs, perm = _entry_strings(machine, "as")
    assert secs == ["e", "e", "e", "a"] and perm == Perm((0, 1, 3, 2))


def test_parse_diagram1_file():
    machine = mealy.parse(DIAGRAM1_FILE)
    assert machine.generators == ("a", "g")
    assert mealy.emit(machine) == mealy.emit(mealy.diagram1())


def test_parse_accepts_comments_and_explicit_identity():
    text = "# automaton\nalphabet 2\nstate e: 0->0 e, 1->1 e\nstate a: 0->1 e, 1->0 a\n"
    assert mealy.emit(mealy.parse(text)) == mealy.emit(mealy.adding_machine())


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("alphabet 2\nfoo\n", "line 2: expected 'state <name>: ...'"),
        ("alphabet 2\nstate a 0->1 e\n", "line 2: missing ':' after state name"),
        ("alphabet 2\nstate a:\n", "line 2: bad item ''"),
        ("alphabet 2\nstate a: 0->1 e, 1=>0 a\n", "line 2: bad item '1=>0 a'"),
        ("alphabet 2\nstate a: 0->2 e, 1->0 a\n", "line 2: letter out of range in '0->2 e'"),
        ("alphabet 2\nstate a: 0->1 e, 0->0 a\n", "line 2: duplicate input letter 0"),
        ("alphabet 2\nstate a: 0->1 a, 1->1 a\n", "line 2: outputs of state a are not a permutation"),
        ("alphabet 2\nstate 1a: 0->1 e, 1->0 e\n", "line 2: invalid state name '1a'"),
        (
            "alphabet 2\nstate a: 0->1 e, 1->0 a\nstate a: 0->0 e, 1->1 e\n",
            "line 3: duplicate state a",
        ),
        ("# no alphabet\n\n", "empty automaton file"),
        ("alphabet 2\nstate a: 0->1 zz, 1->0 e\n", "state a: undeclared state 'zz' in section"),
    ],
)
def test_parse_error_texts(text, message):
    with pytest.raises(ValueError) as err:
        mealy.parse(text)
    assert str(err.value) == message


def test_table_machine_shape_errors():
    e = GroupWord.identity()
    with pytest.raises(ValueError) as err:
        TableMachine(2, {"a": ([e], Perm((1, 0)))})
    assert str(err.value) == "state a: expected 2 sections"
    with pytest.raises(ValueError) as err:
        TableMachine(2, {"a": ([e, e], Perm((1, 0, 2)))})
    assert str(err.value) == "state a: root permutation degree mismatch"


_E, _SWAP = GroupWord.identity(), Perm((1, 0))


@pytest.mark.parametrize(
    "table, message",
    [
        # a wrong section count in the first state before an undeclared one in the second
        ({"a": ([_E], _SWAP), "b": ([parse_word("zz"), _E], _SWAP)}, "state a: expected 2 sections"),
        ({"a": ([parse_word("zz")], _SWAP)}, "state a: expected 2 sections"),
        ({"a": ([parse_word("zz"), _E], Perm((1, 0, 2)))}, "state a: root permutation degree mismatch"),
        # a forward reference is declared; the first undeclared name in section order is named
        ({"a": ([parse_word("b yy^-1"), parse_word("zz")], _SWAP), "b": ((_E, _E), _SWAP)},
         "state a: undeclared state 'yy' in section"),
        ({"a": ([parse_word("b"), _E], _SWAP), "b": ((parse_word("a zz xx"), parse_word("xx")), _SWAP)},
         "state b: undeclared state 'zz' in section"),
    ],
)
def test_table_machine_error_order(table, message):
    with pytest.raises(ValueError) as err:
        TableMachine(2, table)
    assert str(err.value) == message


# an alphabet line, mostly well formed, then lines of the format's tokens in
# any order: two-letter rows over the states a and b that often parse, and at
# most one line of free items or other junk
_NAMES = st.sampled_from(["a", "b", "e", "zz", "1a", "a b", ""])
_LETTERS = st.integers(0, 2).map(str) | st.sampled_from(["-1", "x", "10"])
_ITEMS = st.builds("{}->{} {}".format, _LETTERS, _LETTERS, _NAMES) | st.sampled_from(
    ["", "0->", "->1 a", "0 1 a", "0->1"]
)
_AB = st.sampled_from(["a", "b"])
_NEXT = st.sampled_from(["a", "b", "e"])
_ROW = st.builds("state {}: 0->{} {}, 1->{} {}".format, _AB, st.just(0), _NEXT, st.just(1), _NEXT)
_ROW |= st.builds("state {}: 0->{} {}, 1->{} {}".format, _AB, st.just(1), _NEXT, st.just(0), _NEXT)
_JUNK = st.builds("state {}: {}".format, _NAMES, st.lists(_ITEMS, min_size=1, max_size=3).map(", ".join))
_JUNK |= st.sampled_from(["", "# comment", "state", "state a", ":", "alphabet 2"])
_HEADER = st.sampled_from(["alphabet 2", "alphabet 2", "alphabet 2", "alphabet 1", "alphabet x", ""])
_TEXTS = st.builds(
    lambda head, lines: "\n".join([head, *lines]),
    _HEADER,
    st.builds(
        list.__add__,
        st.lists(_ROW, max_size=2, unique_by=lambda line: line.split(":")[0]),
        st.lists(_JUNK, max_size=1),
    ).flatmap(
        st.permutations
    ),
)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(_TEXTS)
def test_parse_fuzz_returns_table_or_value_error(text):
    try:
        machine = mealy.parse(text)
    except ValueError:
        return
    assert isinstance(machine, TableMachine)
    assert mealy.emit(mealy.parse(mealy.emit(machine))) == mealy.emit(machine)


def test_round_trips():
    for build in (mealy.adding_machine, mealy.diagram1, mealy.diagram3, lambda: mealy.diagram2(4)):
        text = mealy.emit(build())
        assert mealy.emit(mealy.parse(text)) == text


def test_to_dot_identity():
    dot = mealy.to_dot(TableMachine(2, {}))
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
        mealy.builtin_machine("nonesuch")
    with pytest.raises(ValueError):
        mealy.builtin_machine("diagram2()")
    with pytest.raises(ValueError):
        mealy.builtin_machine("thmD(1)")
    with pytest.raises(ValueError):
        mealy.builtin_machine("adding(3)")


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
        ("thmD(1001)", "thmD needs 2 <= p <= 1000"),
    ],
)
def test_builtin_error_texts(name, message):
    with pytest.raises(ValueError) as err:
        mealy.builtin_machine(name)
    assert str(err.value) == message


def test_diagram2_state_counts():
    machine = mealy.builtin_machine("diagram2(5)")
    for i in range(1, 6):
        closure = states(machine.automorphism(f"a{i}"), 32, 8)
        assert len(closure) == i + 1 and not closure.truncated


def test_machine_to_mealy_round_trip():
    for build in (mealy.diagram1, mealy.diagram3):
        machine = build()
        assert mealy.emit(mealy.machine_to_mealy(machine)) == mealy.emit(machine)


def test_machine_to_mealy_rejects_composite_sections():
    with pytest.raises(ValueError, match="composite"):
        mealy.machine_to_mealy(mealy.builtin_machine("thmD(2)"))


# reference exports that walk state names: each state is decoded into its
# table entry as the closure reaches it
def _mealy_by_names(machine):
    table = {}

    def successors(name):
        table[name] = machine.entry(name)
        for w in table[name][0]:
            if len(w) > 1 or any(sign < 0 for _, sign in w):
                raise ValueError(f"state {name} has a composite section; export recursions instead")
            yield from (nxt for nxt, _ in w)

    if closure(machine.generators, successors, MAX_STATES)[1]:
        raise ValueError(f"state closure exceeded {MAX_STATES} states; not exportable")
    return TableMachine(machine.alphabet_size, table)


def _inflate_by_names(machine, k):
    blocks = list(product(range(machine.alphabet_size), repeat=k))
    index = {b: i for i, b in enumerate(blocks)}
    table = {}

    def successors(name):
        codes = machine.encode(GroupWord.gen(name))
        walks = [_walk(machine, codes, b) for b in blocks]
        sections = [machine.decode(sec) for sec, _ in walks]
        table[name] = (sections, Perm(index[image] for _, image in walks))
        return [sym for w in sections for sym, _ in w]

    if closure(machine.generators, successors, MAX_STATES)[1]:
        raise ValueError(f"state closure exceeded {MAX_STATES} states; not inflatable")
    return TableMachine(machine.alphabet_size**k, table)


# every built-in, every selector that the CLI tests build and a table whose
# sections hold inverse states: finite-state machines, composite sections
# (thmD, the inverse table), closures past MAX_STATES (thmD-engine, cp-wr-z2,
# lamplighter:B=256) and more generators than MAX_STATES (zomega:n=600)
_EXPORT_BUILTINS = [
    "adding", "diagram1", "diagram2(1)", "diagram2(4)", "diagram3", "brunner_sidki", "thmD(2)", "thmD(3)",
    "thmD(300)", "thmD-engine(2)", "thmD-engine(3)", "prop31(1,1)", "prop31(2,2)", "prop31(2,3)",
]
_EXPORT_SELECTORS = [
    "z", "zomega", "zomega:n=3", "zomega:n=7", "zomega:n=600", "zl-wr-zd:l=1,d=1", "zl-wr-zd:l=2,d=1",
    "zl-wr-zd:l=1,d=2", "zl-wr-zd:l=2,d=2", "zl-wr-zd:l=1,d=3", "cp-wr-z2:p=2", "cp-wr-z2:p=3",
    "cp-wr-z2:p=5", "cp-wr-z2:p=7", "cp-wr-z2:p=13", "zwrz", "zwrz-wr-c2", "lamplighter:B=2",
    "lamplighter:B=3", "lamplighter:B=2,3", "lamplighter:B=2,2,2", "lamplighter:B=11", "lamplighter:B=256",
    "concat:lamplighter:B=2+zwrz", "concat:zwrz+zwrz", "concat:zwrz+zwrz+zwrz+zwrz",
]


def _export_outcome(export, machine):
    """The emitted text or the error of an export, then the machine's state
    names and compiled rows."""
    try:
        text = mealy.emit(export(machine))
    except ValueError as err:
        text = f"error: {err}"
    return text, machine._names, machine._rows


# engines whose index-1 endomorphism carries a generator past MAX_STATES: the
# export raises the walk's error before it names a state or compiles a row
_EXPORT_REFUSED_AT_ONCE = [
    "thmD-engine(2)", "thmD-engine(3)", "cp-wr-z2:p=2", "cp-wr-z2:p=3", "cp-wr-z2:p=5", "cp-wr-z2:p=7",
    "cp-wr-z2:p=13",
]


@pytest.mark.parametrize("name", _EXPORT_BUILTINS + _EXPORT_SELECTORS + ["inverse sections"])
def test_table_exports_match_the_name_level_walks(name):
    def make():
        if name == "inverse sections":  # a = (e, b^-1)(0 1), b = (a, e)
            table = {"a": ((_E, parse_word("b^-1")), _SWAP), "b": ((parse_word("a"), _E), Perm.identity(2))}
            return TableMachine(2, table)
        if name in _EXPORT_BUILTINS:
            return mealy.builtin_machine(name)
        return build_representation(data_by_selector(name))

    got, want = _export_outcome(mealy.machine_to_mealy, make()), _export_outcome(_mealy_by_names, make())
    if name in _EXPORT_REFUSED_AT_ONCE:
        fresh = make()
        assert got == (want[0], fresh._names, fresh._rows) and got[0].startswith("error:")
    else:
        assert got == want
    m = make().alphabet_size
    for k in (1, 2):
        if m**k <= 256:
            got = _export_outcome(lambda machine: inflate(machine, k), make())
            assert got == _export_outcome(lambda machine: _inflate_by_names(machine, k), make()), k


def _index_one_letters(data):
    """Each index-1 endomorphism of the data with the letter of its orbit."""
    letters, offset = [], 0
    for endo in data.endos:
        if endo.index == 1:
            letters.append((endo, offset))
        offset += endo.index
    return letters


@pytest.mark.parametrize("name", ["cp-wr-z2:p=2", "cp-wr-z2:p=3", "thmD-engine(2)"])
def test_index_one_sections_are_endomorphism_images(name):
    """The lemma the export's chain count rests on: a state g's section at
    the letter of an index-1 endomorphism f is the state of f(g), or the
    identity where f(g) is, on every row the name-level walk compiles."""
    if name.startswith("thmD"):
        machine = mealy.builtin_machine(name)
    else:
        machine = build_representation(data_by_selector(name))
    with pytest.raises(ValueError, match="exceeded 512 states"):
        _mealy_by_names(machine)
    letters = _index_one_letters(machine.data)
    assert letters
    ident = machine.model.identity()
    compiled = [c for c in range(0, len(machine._rows), 2) if machine._rows[c] is not None]
    assert len(compiled) > 200
    for c in compiled:
        g = machine._elements[c]
        for endo, letter in letters:
            section, _ = machine._rows[c][letter]
            image = endo.image(g)
            assert (section == ()) if image == ident else ([machine._elements[d] for d in section] == [image])


@pytest.mark.parametrize("selector, stop", [("lamplighter:B=2", "repeat"), ("zomega", "identity")])
def test_chains_that_repeat_or_end_leave_the_export_to_the_walk(selector, stop):
    machine = build_representation(data_by_selector(selector))
    ident = machine.model.identity()
    ends = set()
    for endo, _ in _index_one_letters(machine.data):
        for g in machine.model.generators.values():
            chain = [g]
            while chain[-1] != ident and chain[-1] not in chain[:-1]:
                chain.append(endo.image(chain[-1]))
            ends.add("identity" if chain[-1] == ident else "repeat")
    assert ends == {stop}
    assert not machine._chains_exceed(MAX_STATES)
    want = mealy.emit(_mealy_by_names(build_representation(data_by_selector(selector))))
    assert mealy.emit(mealy.machine_to_mealy(machine)) == want
