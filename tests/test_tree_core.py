import gc
import math
import random
import weakref
from collections import deque
from itertools import product

import pytest

from selfsim import mealy, tree_core
from selfsim.gdata_engine import build_representation
from selfsim.perm_word import GroupWord, Perm, commutator, parse_word
from selfsim.tree_core import (
    _class_key,
    _cyclic_core,
    _level,
    _lift,
    _pass,
    _trivial,
    _UnionMachine,
    Automorphism,
    MAX_STATES,
    StateSet,
    TableMachine,
    apply_word,
    closure,
    equal_to_depth,
    find_moving_string,
    inflate,
    orbit_type,
    portrait,
    root_perm,
    section_word,
    states,
    trivial_to_depth,
)
from selfsim.wreath_models import data_by_selector

from test_gdata_engine import ENGINE_DATA
from test_oracles import _Entries, _random_mealy, transducer_apply


@pytest.fixture
def adding():
    return mealy.builtin_machine("adding")


@pytest.fixture
def diagram1():
    return mealy.builtin_machine("diagram1")


def test_root_perm_examples(adding):
    assert adding.automorphism("e").root_perm().is_identity()
    assert adding.automorphism("a").root_perm() == Perm((1, 0))
    assert adding.automorphism("a a").root_perm().is_identity()


def test_section_examples(adding, diagram1):
    ident = adding.automorphism("e")
    assert ident.section(0).word == GroupWord.identity()
    a = adding.automorphism("a")
    assert a.section(0).word == GroupWord.identity()
    assert a.section(1).word == GroupWord.gen("a")
    assert diagram1.automorphism("g").section(2).word == GroupWord.gen("a")


def test_inverse_symbol_section(adding):
    # (a^-1)_y is the inverse of a's section at the preimage letter
    inv = adding.automorphism("a^-1")
    assert inv.section(0).word == GroupWord.gen("a", -1)
    assert inv.section(1).word == GroupWord.identity()


def test_apply_examples(adding, diagram1):
    assert diagram1.automorphism("e").apply((0, 1, 2)) == (0, 1, 2)
    assert adding.automorphism("a").apply((1, 1, 1)) == (0, 0, 0)
    assert diagram1.automorphism("g").apply((2, 0, 0)) == (2, 1, 0)


def test_apply_rejects_out_of_range(adding):
    with pytest.raises(ValueError, match=r"^letter 2 out of range for alphabet of 2$"):
        adding.automorphism("a").apply((2,))


def test_adding_machine_is_an_odometer(adding):
    # acting k times on 0^n counts to k in binary, least significant digit first
    a = adding.automorphism("a")
    string = (0,) * 6
    for k in range(1, 40):
        string_k = string
        for _ in range(k):
            string_k = a.apply(string_k)
        assert string_k == tuple((k >> i) & 1 for i in range(6))
        string = (0,) * 6


def test_equal_to_depth_examples(adding):
    a = adding.automorphism("a")
    assert equal_to_depth(a, a, 10)
    square = a * a
    ident = adding.automorphism("e")
    assert equal_to_depth(square, ident, 1)
    assert not equal_to_depth(square, ident, 2)


def test_equal_to_depth_cross_machine(adding):
    other = mealy.builtin_machine("adding")
    assert equal_to_depth(adding.automorphism("a"), other.automorphism("a"), 8)
    assert not equal_to_depth(adding.automorphism("a"), other.automorphism("a a"), 8)
    # a = (a, e)(0 1) shares its state name with the adding machine's a = (e, a)(0 1)
    swapped = mealy.parse("alphabet 2\nstate a: 0->1 a, 1->0 e\n")
    assert equal_to_depth(adding.automorphism("a"), swapped.automorphism("a"), 1)
    assert not equal_to_depth(adding.automorphism("a"), swapped.automorphism("a"), 2)


@pytest.mark.parametrize("name", ["diagram1", "diagram3", "thmD(2)"])
def test_cross_machine_equality_matches_single_machine(name):
    one, two = mealy.builtin_machine(name), mealy.builtin_machine(name)
    names = list(one.generators)
    rng = random.Random(17)
    verdicts = set()
    for _ in range(40):
        u = _random_word(rng, names, 6)
        v = u if rng.random() < 0.25 else _random_word(rng, names, 6)
        for depth in range(1, 7):
            single = equal_to_depth(Automorphism(one, u), Automorphism(one, v), depth)
            cross = equal_to_depth(Automorphism(one, u), Automorphism(two, v), depth)
            assert cross is single, (str(u), str(v), depth)
            verdicts.add(single)
    assert verdicts == {True, False}


def test_portrait_examples(adding, diagram1):
    ident = portrait(adding.automorphism("e"), 2)
    assert all(p.is_identity() for p in ident.values())
    assert set(ident) == {(), (0,), (1,)}

    por = portrait(adding.automorphism("a"), 2)
    assert por[()] == Perm((1, 0))
    assert por[(0,)].is_identity()
    assert por[(1,)] == Perm((1, 0))

    root_only = portrait(diagram1.automorphism("g"), 1)
    assert root_only[()].is_identity()


@pytest.mark.parametrize("name", ["adding", "diagram1", "diagram3", "thmD(2)", "brunner_sidki"])
def test_portrait_labels_are_breadth_first_and_lex_within_a_level(name):
    # the ``portrait`` command prints the labels in the order they are built
    machine = mealy.builtin_machine(name)
    rng = random.Random(f"portrait-order/{name}")
    for _ in range(10):
        a = Automorphism(machine, _random_word(rng, list(machine.generators), 6))
        for depth in range(5):
            paths = list(portrait(a, depth))
            assert paths == sorted(paths, key=lambda p: (len(p), p)), (name, depth)
            assert len(paths) == sum(machine.alphabet_size**k for k in range(depth))


def test_automorphisms_are_equal_as_words_over_one_machine(adding):
    a, b = adding.automorphism("a"), Automorphism(adding, GroupWord.gen("a"))
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b, adding.automorphism("a a^-1 a")}) == 1
    assert a != adding.automorphism("a^-1") and a != adding.automorphism("a a")
    assert a != a.word and a.word != a  # a word is no automorphism
    assert a != Automorphism(mealy.builtin_machine("adding"), a.word)  # another build
    assert a != Automorphism(mealy.builtin_machine("diagram1"), a.word)
    assert adding.automorphism("a a^-1") == Automorphism(adding)  # the words reduce
    # equal actions of different words are different automorphisms
    diagram3 = mealy.builtin_machine("diagram3")
    s2 = Automorphism(diagram3, GroupWord.gen("s") ** 2)
    assert equal_to_depth(s2, Automorphism(diagram3), 8) and s2 != Automorphism(diagram3)


def test_states_examples(adding):
    ident = states(adding.automorphism("e"), 10, 6)
    assert len(ident) == 1 and not ident.truncated

    closure = states(adding.automorphism("a"), 10, 6)
    assert len(closure) == 2 and not closure.truncated

    d2 = mealy.builtin_machine("diagram2(4)")
    closure = states(d2.automorphism("a3"), 16, 8)
    words = {str(s.word) for s in closure.states}
    assert words == {"a3", "a2", "a1", "e"}
    assert not closure.truncated


def test_states_truncation_flag(adding):
    out = states(adding.automorphism("a"), 1, 6)
    assert out.truncated and len(out) == 1


def test_orbit_type_examples(diagram1):
    single = mealy.parse("alphabet 3\nstate t: 0->0 e, 1->1 e, 2->2 e\n")
    assert orbit_type(single) == (1, 1, 1)
    assert orbit_type(diagram1) == (2, 1)
    assert orbit_type(mealy.builtin_machine("thmD(3)")) == (3, 1)


@pytest.mark.parametrize(
    "m, cycles, sizes",
    [
        (5, {"x": [(0, 2)], "y": [(3, 4)]}, (2, 1, 2)),
        (4, {"x": [(0, 3)], "y": [(1, 3)]}, (3, 1)),
        (6, {"x": [(0, 4), (1, 5)], "y": [(4, 1)]}, (4, 1, 1)),
    ],
)
def test_orbit_type_of_scattered_orbits(m, cycles, sizes):
    """Orbits that are not blocks of consecutive letters, listed by least letter."""
    ident = [GroupWord.identity()] * m
    table = {name: (ident, Perm.from_cycles(m, cyc)) for name, cyc in cycles.items()}
    assert orbit_type(TableMachine(m, table)) == sizes


def test_inflate_level_one_is_identity_relabel(diagram1):
    flat = inflate(diagram1, 1)
    for name in diagram1.generators:
        secs, perm = diagram1.entry(name)
        fsecs, fperm = flat.entry(name)
        assert tuple(fsecs) == tuple(secs)
        assert fperm == perm


def test_inflate_brunner_sidki():
    bs = mealy.builtin_machine("brunner_sidki")
    doubled = inflate(bs, 2)
    secs, perm = doubled.entry("a")
    assert [str(w) for w in secs] == ["e", "e", "a", "e"]
    assert perm == Perm.from_cycles(4, [(0, 2), (1, 3)])
    secs, perm = doubled.entry("at")
    assert [str(w) for w in secs] == ["at", "a", "e", "e"]
    assert perm.is_identity()


def test_find_moving_string(adding):
    assert find_moving_string(adding.automorphism("e"), 5) is None
    a = adding.automorphism("a")
    assert find_moving_string(a, 5) == (0,)
    assert find_moving_string(a * a, 5) == (0, 0)


def test_adding_machine_level_stabilization(adding):
    for k in range(0, 7):
        power = adding.automorphism("a") ** (2**k)
        assert trivial_to_depth(adding, power.word, k)
        witness = find_moving_string(power, k + 1)
        assert witness is not None and len(witness) == k + 1


def _random_word(rng, names, max_len=10):
    return GroupWord(
        [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    )


def test_homomorphism_inverse_and_section_laws(diagram1):
    rng = random.Random(11)
    names = list(diagram1.generators)
    m = diagram1.alphabet_size
    for _ in range(1000):
        u = _random_word(rng, names)
        v = _random_word(rng, names)
        s = tuple(rng.randrange(m) for _ in range(8))
        au, av = Automorphism(diagram1, u), Automorphism(diagram1, v)
        # composite action
        assert (au * av).apply(s) == av.apply(au.apply(s))
        # inverse law
        assert (au * au.inverse()).apply(s) == s
        # length and prefix preservation
        assert len(au.apply(s)) == len(s)
        assert au.apply(s)[:5] == au.apply(s[:5])
        # section coherence
        y = rng.randrange(m)
        assert au.apply((y,) + s) == (au.root_perm()(y),) + au.section(y).apply(s)


def test_state_closure_of_builtins_within_generators():
    for name in ("adding", "diagram1", "diagram2(3)", "diagram3", "brunner_sidki"):
        machine = mealy.builtin_machine(name)
        declared = set(machine.generators)
        for state in machine.generators:
            closure = states(machine.automorphism(state), 32, 8)
            for aut in closure.states:
                for sym, _ in aut.word:
                    assert sym in declared


# The per-letter section calculus that the compiled rows replaced, kept as the
# reference for the code-tuple passes: every letter reads the machine's entry,
# memoised here since an engine computes its entry anew on each call.


_REFERENCE_ENTRIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _reference_entry(machine, name):
    entries = _REFERENCE_ENTRIES.setdefault(machine, {})
    if name not in entries:
        entries[name] = machine.entry(name)
    return entries[name]


def _reference_root_perm(machine, word):
    images = tuple(range(machine.alphabet_size))
    for name, sign in word:
        _, perm = _reference_entry(machine, name)
        q = perm if sign > 0 else perm.inverse()
        images = tuple(q(i) for i in images)
    return Perm(images)


def _reference_section_word(machine, word, y):
    out = []
    cur = y
    for name, sign in word:
        sections, perm = _reference_entry(machine, name)
        if sign > 0:
            part = sections[cur].letters
            cur = perm(cur)
        else:
            cur = perm.inverse()(cur)
            part = sections[cur].inverse().letters
        for sym in part:
            if out and out[-1] == (sym[0], -sym[1]):
                out.pop()
            else:
                out.append(sym)
    return GroupWord(tuple(out), reduced=True)


def _reference_trivial_depth(machine, word, depth, memo):
    """The largest d <= depth such that the word fixes all strings of length d."""
    if depth == 0 or not word:
        return depth
    key = (word.letters, depth)
    if key not in memo:
        if not _reference_root_perm(machine, word).is_identity():
            memo[key] = 0
        else:
            memo[key] = 1 + min(
                _reference_trivial_depth(
                    machine, _reference_section_word(machine, word, y), depth - 1, memo
                )
                for y in range(machine.alphabet_size)
            )
    return memo[key]


_MEALY_TEXT = """alphabet 3
state x: 0->1 y, 1->2 e, 2->0 x
state y: 0->0 x, 1->2 y, 2->1 e
"""


CROSS_CHECK_MACHINES = [
    "diagram1", "diagram3", "thmD(2)", "mealy-file", "union", "cp-wr-z2:p=2", "zomega"
]


# the sides of each union: two tables, a table and an engine, two engines
UNIONS = {
    "union": ("thmD(2)", "diagram1"),
    "engine union": ("thmD(3)", "cp-wr-z2:p=3"),
    "engine pair": ("cp-wr-z2:p=3", "cp-wr-z2:p=3"),
}


def _cross_check_machine(name):
    """A machine and the state names its random words are drawn from: a
    union, the Mealy file, an ``ENGINE_DATA`` set, an engine by selector or a
    builtin."""
    if name in UNIONS:
        sides = [_cross_check_machine(side)[0] for side in UNIONS[name]]
        machine = _UnionMachine(sides)
        return machine, [(i, n) for i, side in enumerate(sides) for n in side.generators]
    if name == "mealy-file":
        machine = mealy.parse(_MEALY_TEXT)
    elif name in ENGINE_DATA:
        machine = build_representation(ENGINE_DATA[name]())
    elif ":" in name:
        machine = build_representation(data_by_selector(name))
    else:
        machine = mealy.builtin_machine(name)
    return machine, list(machine.generators)


@pytest.mark.parametrize("name", CROSS_CHECK_MACHINES)
def test_compiled_passes_match_per_letter_reference(name):
    machine, names = _cross_check_machine(name)
    m = machine.alphabet_size
    rng = random.Random(f"cross-check/{name}")
    memo = {}
    verdicts = set()
    for i in range(40):
        if i % 2:
            u, v = _random_word(rng, names, 15), _random_word(rng, names, 15)
            word = u * v * u.inverse() * v.inverse()  # fixes the first level more often
        else:
            word = _random_word(rng, names, 60)
        assert root_perm(machine, word) == _reference_root_perm(machine, word), str(word)
        for y in range(m):
            assert section_word(machine, word, y) == _reference_section_word(machine, word, y)
        deepest = _reference_trivial_depth(machine, word, 6, memo)
        depths = list(range(1, 7))
        rng.shuffle(depths)  # prove and refute records in every order
        for d in depths:
            assert trivial_to_depth(machine, word, d) is (d <= deepest), (str(word), d)
            verdicts.add((d > 1, d <= deepest))
    assert {(True, True), (True, False)} <= verdicts


# tables (thmD(300) past 256 letters), the unions, every engine data set, and
# an engine past 256 letters (leaf 0)
ROOT_PERM_MACHINES = [
    "adding", "diagram3", "thmD(2)", "thmD(300)", "mealy-file", *UNIONS,
    *sorted(ENGINE_DATA), "cp-wr-z2:p=257",
]


@pytest.mark.parametrize("name", ROOT_PERM_MACHINES)
def test_root_perm_matches_the_cursor_passes(name):
    # root_perm composes each code's root permutation (``_perm``); the m cursor
    # passes over the rows end at the same images.  On an engine each word also
    # reads states the passes before it named, whose rows are not yet compiled.
    # A union reads each permutation from its side, so the first word compiles
    # no union row, and on engine sides no side row either
    machine, names = _cross_check_machine(name)
    assert (machine._leaf == 0) is (name in ("thmD(300)", "cp-wr-z2:p=257"))
    rng = random.Random(f"root-perm/{name}")
    for i in range(30):
        if machine.model is not None:
            names = [q for q in machine._names if machine._codes[q] in machine._elements]
        word = _random_word(rng, names, 12)
        got = root_perm(machine, word)
        if name in UNIONS and i == 0:
            assert not any(machine._rows), str(word)
            assert not any(row for side in machine.sides if side.model for row in side._rows)
        codes = machine.encode(word)
        assert got == Perm(_pass(machine, codes, y)[1] for y in range(machine.alphabet_size)), str(word)
        assert root_perm(machine, word.inverse()) == got.inverse(), str(word)


def test_depth_one_across_engines_compiles_no_row():
    # equal_to_depth across two machines asks their union, whose root
    # permutations are the sides': at depth 1 no row is compiled and no state
    # is named, as on either engine alone
    sides = [build_representation(data_by_selector("cp-wr-z2:p=3")) for _ in range(2)]
    states_before = [list(side._names) for side in sides]
    assert equal_to_depth(sides[0].automorphism("a s"), sides[1].automorphism("s a"), 1)
    assert not equal_to_depth(sides[0].automorphism("a s"), sides[1].automorphism("s b s"), 1)
    assert [side._names for side in sides] == states_before
    assert not any(row for side in sides for row in side._rows)


@pytest.mark.parametrize("name", CROSS_CHECK_MACHINES)
def test_class_wide_verdicts_match_per_letter_reference(name):
    # checking a conjugate u w^+-1 u^-1 first fills the memo record of w's class
    machine, names = _cross_check_machine(name)
    rng = random.Random(f"class-wide/{name}")
    memo = {}
    verdicts = set()
    for _ in range(30):
        u, v = _random_word(rng, names, 8), _random_word(rng, names, 8)
        word = u * v * u.inverse() * v.inverse() if rng.random() < 0.5 else _random_word(rng, names, 30)
        t = _random_word(rng, names, 8)
        seed = t * (word if rng.random() < 0.5 else word.inverse()) * t.inverse()
        trivial_to_depth(machine, seed, rng.randint(1, 6))
        deepest = _reference_trivial_depth(machine, word, 6, memo)
        depths = list(range(1, 7))
        rng.shuffle(depths)
        for d in depths:
            assert trivial_to_depth(machine, word, d) is (d <= deepest), (str(seed), str(word), d)
        verdicts.add(deepest)
        witness = find_moving_string(Automorphism(machine, word), 6)
        if deepest == 6:
            assert witness is None
        else:
            assert len(witness) == deepest + 1
            assert Automorphism(machine, word).apply(witness) != witness, (str(word), witness)
    assert 0 in verdicts and len(verdicts) > 1


@pytest.mark.parametrize("name", CROSS_CHECK_MACHINES)
def test_shared_memo_answers_like_a_fresh_machine_past_the_leaf(name):
    # one machine answers every question in shuffled order, so records made by
    # deeper or shallower questions, about the word or its class, are read at
    # every depth up to four levels past the leaf; each answer is compared with
    # that of a fresh machine
    machine, names = _cross_check_machine(name)
    leaf = machine._leaf
    rng = random.Random(f"memo-order/{name}")
    words = [_random_word(rng, names, 12) for _ in range(6)]
    for _ in range(6):
        u, v = _random_word(rng, names, 4), _random_word(rng, names, 4)
        words.append(commutator(u, v))
    for g in names[:3]:
        n = _level_order(machine, GroupWord([(g, 1)]), leaf)
        if n <= 64:
            words.append(GroupWord([(g, 1)]) ** n)  # fixes every string of length leaf
    questions = [(word, d) for word in words for d in range(1, leaf + 5)]
    rng.shuffle(questions)
    verdicts = set()
    for word, d in questions:
        fresh = _cross_check_machine(name)[0]
        verdict = trivial_to_depth(machine, word, d)
        assert verdict is trivial_to_depth(fresh, word, d), (str(word), d)
        fresh = _cross_check_machine(name)[0]
        witness = find_moving_string(Automorphism(fresh, word), d)
        assert find_moving_string(Automorphism(machine, word), d) == witness, (str(word), d)
        verdicts.add((d > leaf, verdict))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("name", sorted(set(CROSS_CHECK_MACHINES) | set(ENGINE_DATA)))
def test_trivial_reports_the_depth_it_proved(name):
    # one machine answers every question in shuffled order, so answers are
    # read off records that other questions proved: None exactly where a
    # fresh machine finds the word moving a string of length <= d, else a
    # depth of at least d to which a fresh machine finds it trivial too
    machine, names = _cross_check_machine(name)
    leaf = machine._leaf
    rng = random.Random(f"trivial-depth/{name}")
    words = [_random_word(rng, names, 8) for _ in range(4)]
    words += [commutator(_random_word(rng, names, 3), _random_word(rng, names, 3)) for _ in range(4)]
    for g in names[:3]:
        n = _level_order(machine, GroupWord([(g, 1)]), leaf)
        if n <= 64:
            words.append(GroupWord([(g, 1)]) ** n)  # fixes every string of length leaf
    questions = [(word, d) for word in words for d in range(1, leaf + 4)]
    rng.shuffle(questions)
    answers = set()
    for word, d in questions:
        proven = _trivial(machine, machine.encode(word), d)
        assert (proven is None) is not trivial_to_depth(_cross_check_machine(name)[0], word, d), (str(word), d)
        if proven is not None:
            assert proven >= d, (str(word), d, proven)
            if proven < math.inf:
                assert trivial_to_depth(_cross_check_machine(name)[0], word, proven), (str(word), proven)
        answers.add("moved" if proven is None else "exact" if proven == math.inf else d > leaf)
    assert {"moved", False} <= answers and answers & {True, "exact"}
    # a word that cancels freely is the empty code tuple, proven at every depth
    for _ in range(4):
        word = _random_word(rng, names, 6)
        for d in range(1, leaf + 4):
            assert _trivial(machine, machine.encode(word * word.inverse()), d) == math.inf
    # on an engine, a word for the identity element is proven at every depth
    # from its first record, one level past the leaf
    if machine.model is not None:
        identities = []
        for _ in range(40):
            u = _random_word(rng, names, 6)
            v = machine.short_word(machine.element_of(u))
            if v is not None and (u * v.inverse()).letters:
                identities.append(u * v.inverse())
        # every word for the identity of Z cancels freely
        assert identities or name == "z"
        for word in identities:
            for d in range(leaf + 1, leaf + 4):
                assert _trivial(machine, machine.encode(word), d) == math.inf, (str(word), d)


def _level_order(machine, word, k):
    """The order of the permutation a word induces on the strings of length k."""
    strings = list(product(range(machine.alphabet_size), repeat=k))
    image = {s: apply_word(machine, word, s) for s in strings}
    order = 1
    for s in strings:
        n, t = 1, image[s]
        while t != s:
            n, t = n + 1, image[t]
        order = math.lcm(order, n)
    return order


@pytest.mark.parametrize("name", CROSS_CHECK_MACHINES)
def test_leaf_depths_make_no_record(name):
    # depths up to the leaf compose level tables compiled from rows: a fresh
    # machine keeps an empty memo until a check one level deeper
    machine, names = _cross_check_machine(name)
    leaf = machine._leaf
    assert leaf == {3: 5, 4: 4}[machine.alphabet_size]
    rng = random.Random(f"leaf-depths/{name}")
    memo = {}
    first_signs, verdicts = set(), set()
    for i in range(40):
        head = GroupWord([(rng.choice(names), -1 if i % 2 else 1)])
        word = head * _random_word(rng, names, 12)
        if word:
            first_signs.add(word.letters[0][1])
        assert root_perm(machine, word) == _reference_root_perm(machine, word), str(word)
        deepest = _reference_trivial_depth(machine, word, leaf, memo)
        for d in range(1, leaf + 1):
            assert trivial_to_depth(machine, word, d) is (d <= deepest), (str(word), d)
        verdicts.add(deepest)
    assert machine._triv == {}
    assert first_signs == {1, -1} and 0 in verdicts and len(verdicts) > 1
    # the generator of largest order (at most 64) on the strings of length
    # leaf, raised to that order, fixes every string of length <= leaf
    orders = [(_level_order(machine, GroupWord([(g, 1)]), leaf), g) for g in names]
    order, g = max(pair for pair in orders if pair[0] <= 64)
    fixing = GroupWord([(g, 1)]) ** order
    assert order > 1 and trivial_to_depth(machine, fixing, leaf) and machine._triv == {}
    # one level deeper the verdict is kept under the core's cache_key, and
    # records start one level deeper still
    deepest = _reference_trivial_depth(machine, fixing, leaf + 2, {})
    assert trivial_to_depth(machine, fixing, leaf + 1) is (deepest >= leaf + 1), str(fixing)
    assert list(machine._verdicts) == [machine.cache_key(_cyclic_core(machine.encode(fixing)))]
    assert machine._triv == {}
    assert trivial_to_depth(machine, fixing, leaf + 2) is (deepest == leaf + 2), str(fixing)
    assert machine._triv


def _brute_witness(machine, word, max_depth):
    """The first string of the shortest moved length in ``product`` order."""
    for k in range(1, max_depth + 1):
        for s in product(range(machine.alphabet_size), repeat=k):
            if apply_word(machine, word, s) != s:
                return s
    return None


@pytest.mark.parametrize("name", sorted(set(CROSS_CHECK_MACHINES) | set(ENGINE_DATA)))
def test_witness_is_the_first_moved_string_of_brute_force(name):
    # the witness loop takes the first moved letter or descends into the
    # first section that moves a string; checks up to the leaf read tables.
    # Depth: two levels past the leaf, while m^depth stays within 20,000
    # strings; powers up to 256 letters, so the z engine passes its leaf 8
    machine, names = _cross_check_machine(name)
    m = machine.alphabet_size
    depth = max(d for d in range(1, machine._leaf + 3) if m**d <= 20_000)
    rng = random.Random(f"witness/{name}")
    words = [_random_word(rng, names, 8) for _ in range(12)]
    for g in names:
        n = _level_order(machine, GroupWord([(g, 1)]), machine._leaf)
        words += [GroupWord([(g, 1)]) ** k for k in {n // 2, n, 2 * n} if 0 < k <= 256]
    depths = set()
    for word in words:
        expected = _brute_witness(machine, word, depth)
        assert find_moving_string(Automorphism(machine, word), depth) == expected, str(word)
        depths.add(len(expected) if expected else None)
    assert None in depths and 1 in depths and max(d for d in depths if d) > machine._leaf


def _reference_moving_string(a, max_depth):
    """The witness search that composed no table it could keep: deepening by
    ``_trivial``, then one walk taking at each level the first letter that
    moves or whose section moves a string, and the last letter from the
    level-1 action where there is a leaf."""
    machine = a.machine
    codes = machine.encode(a.word)
    if not codes:
        return None
    k = 0
    for d in range(1, max_depth + 1):
        depth = _trivial(machine, codes, d)
        if depth is None:
            k = d
            break
        if depth >= max_depth:
            break
    string = ()
    while k:
        if k == 1 and machine._leaf:
            action = _level(machine, codes, 1)
            return string + (next(y for y, image in enumerate(action) if image != y),)
        for y in range(machine.alphabet_size):
            sec, image = _pass(machine, codes, y)
            if image != y:
                return string + (y,)
            if not _trivial(machine, sec, k - 1):
                break
        else:
            raise AssertionError("the witness walk reached a trivial subtree")
        string, codes, k = string + (y,), sec, k - 1
    return None


# every builtin table and the engine builtin, thmD(300) and the 512-letter
# inflation of the odometer at leaf 0, every engine data set (degree > 6 at
# leaf 1) and the three unions
WITNESS_MACHINES = [
    "adding", "diagram1", "diagram2(4)", "diagram3", "brunner_sidki", "prop31(2,2)", "thmD(2)",
    "thmD(3)", "thmD(300)", "thmD-engine(2)", "inflate", "mealy-file", *sorted(ENGINE_DATA), *UNIONS,
]
# a base whose power by its level-6 order, 4, moves a string first at depth
# leaf + 2 = 7 on the p = 2 machines, where the random bases miss it; no word
# of ``_witness_words`` does so at depth 6 on the p = 3 machines
_DEEP_BASE = dict.fromkeys(["thmD(2)", "thmD-engine(2)", "cp-wr-z2:p=2", "cp-wr-z2:p=2 inverse"], "a a s^-1")
_NO_LEAF_PLUS_TWO = {"thmD(3)", "cp-wr-z2:p=3", "cp-wr-z2:p=3 inverse", "engine union", "engine pair"}


def _witness_machine(name):
    """A machine of ``WITNESS_MACHINES`` and the state names of its words."""
    if name == "inflate":  # 512 letters: leaf 0
        machine = inflate(mealy.builtin_machine("adding"), 9)
        return machine, list(machine.generators)
    return _cross_check_machine(name)


def _witness_words(name):
    """Words whose searches end at every depth to two levels past the leaf or
    find nothing: the identity, random words and commutators, powers g^(n/2),
    g^n and g^(2n) of the generators and of random words for the order n of
    their action on each level up to leaf + 1 (while m^level <= 4,096 and the
    power has at most 1,024 letters), and on a machine with a model, words
    for its identity element that do not cancel freely.  They are found on a
    machine of their own, so the searches start on fresh ones."""
    machine, names = _witness_machine(name)
    m, leaf = machine.alphabet_size, machine._leaf
    rng = random.Random(f"witness-walk/{name}")
    words = [GroupWord.identity()] + [_random_word(rng, names, 8) for _ in range(8)]
    words += [commutator(_random_word(rng, names, 3), _random_word(rng, names, 3)) for _ in range(4)]
    bases = [GroupWord([(g, 1)]) for g in names[:4]]
    bases += [w for w in (_random_word(rng, names, 4) for _ in range(6)) if w.letters]
    if name in _DEEP_BASE:
        bases.append(parse_word(_DEEP_BASE[name]))
    for base in bases:
        for j in range(1, leaf + 2):
            if m**j > 4096:
                break
            n = _level_order(machine, base, j)
            words += [base**k for k in sorted({n // 2, n, 2 * n}) if 0 < k * len(base.letters) <= 1024]
    if machine.model is not None:
        for _ in range(4):
            u = _random_word(rng, names, 6)
            v = machine.short_word(machine.element_of(u))
            if v is not None and (u * v.inverse()).letters:
                words.append(u * v.inverse())
    return words


def test_witness_machines_cover_every_builtin():
    assert set(mealy._BUILTINS) <= {name.partition("(")[0] for name in WITNESS_MACHINES}


@pytest.mark.parametrize("name", WITNESS_MACHINES)
def test_witness_search_matches_the_walk_it_replaces(name):
    # the search reads a witness no longer than the leaf off the level table
    # it deepened with; the walk it replaced gives the same string, and both
    # leave the same state names, rows, level tables and memo keys, each side
    # on a machine of its own that answers every search in turn, first to two
    # levels past the leaf, then to a random depth
    words = _witness_words(name)
    machine, reference = _witness_machine(name)[0], _witness_machine(name)[0]
    leaf = machine._leaf
    rng = random.Random(f"witness-depths/{name}")
    lengths = set()
    for word in words:
        for depth in (leaf + 2, rng.randint(1, leaf + 2)):
            got = find_moving_string(Automorphism(machine, word), depth)
            assert got == _reference_moving_string(Automorphism(reference, word), depth), (str(word), depth)
            assert machine._names == reference._names, (str(word), depth)
            assert machine._rows == reference._rows, (str(word), depth)
            assert machine._levels == reference._levels, (str(word), depth)
            assert list(machine._triv) == list(reference._triv), (str(word), depth)
            assert machine._verdicts == reference._verdicts, (str(word), depth)
            assert machine._section_tables == reference._section_tables, (str(word), depth)
            lengths.add(len(got) if got else None)
    want = set(range(1, leaf + 2 if name in _NO_LEAF_PLUS_TWO else leaf + 3))
    assert want | {None} <= lengths


@pytest.mark.parametrize("name", ["adding", "thmD(2)", "diagram3", "cp-wr-z2:p=3", "lamplighter:B=2,3"])
def test_witness_within_the_leaf_composes_each_table_once(name, monkeypatch):
    # once its tables are built, a search whose witness has length k <= leaf
    # composes the word's tables at depths 1..k, once each, and walks no cursor
    words = _witness_words(name)
    machine = _witness_machine(name)[0]
    leaf = machine._leaf
    found = {}
    for word in words:
        witness = find_moving_string(Automorphism(machine, word), leaf)
        if witness is not None:
            found.setdefault(len(witness), word)
    assert set(found) == set(range(1, leaf + 1))
    calls = []
    for target in ("_pass", "_level"):
        real = getattr(tree_core, target)
        monkeypatch.setattr(tree_core, target, lambda *args, real=real, target=target: calls.append(target) or real(*args))
    for k, word in sorted(found.items()):
        calls.clear()
        witness = find_moving_string(Automorphism(machine, word), leaf + 2)
        assert len(witness) == k, str(word)
        assert calls == ["_level"] * k, (str(word), k)


def test_alphabet_past_256_letters_decides_every_depth_by_records():
    # 512 letters fit no byte table, so the leaf is 0: depth 1 is decided by
    # the root permutation alone and keeps nothing, and records start at depth 2
    machine = inflate(mealy.builtin_machine("adding"), 9)
    assert machine.alphabet_size == 512 and machine._leaf == 0
    a = GroupWord.gen("a")
    memo = {}
    cases = {a: (0,), a**-1: (0,), a**3: (0,), a**512: (0, 0), a**0: None}
    for word, witness in cases.items():
        assert root_perm(machine, word) == _reference_root_perm(machine, word), str(word)
        deepest = _reference_trivial_depth(machine, word, 3, memo)
        assert deepest == (3 if witness is None else len(witness) - 1)
        for d in (1, 2, 3):
            assert trivial_to_depth(machine, word, d) is (d <= deepest), (str(word), d)
        assert find_moving_string(Automorphism(machine, word), 3) == witness, str(word)
    assert machine._triv


def _record_descent(machine, codes, d, memo):
    """``_trivial`` as it was when records started one level past the leaf,
    on a memo of its own: a word's class record, keyed by ``cache_key`` of
    its class key, holds the sections of the core's cursor passes and the
    depth proven, exact where the core fixes the root and leaves no section
    or where the class key is the empty word's."""
    if d <= 0:
        return d
    if not codes:
        return math.inf
    if d <= machine._leaf:
        action = _level(machine, codes, d)
        return d if action == tree_core._IDENTITY[: len(action)] else None
    core = _cyclic_core(codes)
    record = memo.get(core)
    if record is None:
        key = (machine.cache_key(_class_key(core)), None)
        record = memo.get(key)
        if record is None:
            passes = [_pass(machine, core, y) for y in range(machine.alphabet_size)]
            secs = None if any(end != y for y, (_, end) in enumerate(passes)) else [sec for sec, _ in passes]
            exact = secs is not None and not any(secs) or key[0] == machine.cache_key(())
            record = memo[key] = [math.inf if exact else 0, secs]
        memo[core] = record
    if record[0] >= d:
        return record[0]
    if record[1] is None or any(_record_descent(machine, sec, d - 1, memo) is None for sec in record[1]):
        return None
    record[0] = d
    return d


def _shortest_moved(moved, m, depth):
    """The length of the shortest string of length <= depth that ``moved``
    holds for, or None, level by level over the strings it does not hold for:
    a string moved by a tree automorphism (or told apart by two) is moved by
    every longer one it begins."""
    frontier = [()]
    for k in range(1, depth + 1):
        frontier = [s + (y,) for s in frontier for y in range(m)]
        if any(moved(s) for s in frontier):
            return k
    return None


# the transducer runs a question of at most 64 letters to the deepest depth
# whose strings number at most this
_TRANSDUCER_STRINGS = 2048
# a Mealy file and a copy with its states renamed
_PAIR_TEXT = (_MEALY_TEXT, _MEALY_TEXT.replace("x", "u").replace("y", "v"))
# random Mealy files, the thmD tables (their sections are words, so the
# transducer does not run there), every engine data set, and two unions
# through equal_to_depth: the Mealy pair, and thmD(2) against the engine that
# it realises, whose words agree at every depth
LEAF_PLUS_ONE_CASES = [
    *(f"mealy/{seed}" for seed in range(6)), "thmD(2)", "thmD(3)", *sorted(ENGINE_DATA),
    "mealy pair", "thmD(2) ~ cp-wr-z2:p=2",
]


def _leaf_plus_one_case(name):
    """``(make, questions)``: ``make()`` builds fresh machines, a list of one
    or of the two sides of a union, and each question is a word for each
    side: random words and commutators, powers of generators and of random
    words by the order of their action on levels leaf and leaf + 1, on an
    engine words for its identity element that do not cancel freely, on thmD
    commutators of lamps s^u, and on a union one such word on both sides, or
    on the second side times one of those powers."""
    rng = random.Random(f"leaf-plus-one/{name}")
    if name.startswith("mealy/"):
        m, n = rng.choice((2, 3, 4)), rng.randint(2, 4)
        seed = rng.random()
        # where every section is empty, every check past the root is exact
        while not any(sec for row in _random_mealy(random.Random(seed), m, n)._rows if row for sec, _ in row):
            seed = rng.random()

        def make():
            return [_random_mealy(random.Random(seed), m, n)]
    elif name == "mealy pair":
        def make():
            return [mealy.parse(text) for text in _PAIR_TEXT]
    elif " ~ " in name:
        def make():
            return [_cross_check_machine(side)[0] for side in name.split(" ~ ")]
    else:
        def make():
            return [_cross_check_machine(name)[0]]
    machine = make()[0]
    names, leaf = list(machine.generators), machine._leaf
    words = [_random_word(rng, names, 8) for _ in range(6)]
    words += [commutator(_random_word(rng, names, 3), _random_word(rng, names, 3)) for _ in range(3)]
    if name.startswith("thmD"):
        s = GroupWord.gen("s")
        for _ in range(4):
            u, v = _random_word(rng, ["a", "b"], 4), _random_word(rng, ["a", "b"], 4)
            words.append(commutator(s.conjugate_by(u), s.conjugate_by(v)))
    bases = [GroupWord.gen(g) for g in names[:3]] + [_random_word(rng, names, 3) for _ in range(3)]
    powers = []
    for base, k in product(bases, (leaf, leaf + 1)):
        if base.letters:
            order = _level_order(machine, base, k)
            powers += [base**order] if order * len(base.letters) <= 1024 else []
    words += powers
    if machine.model is not None:
        for _ in range(6):
            u = _random_word(rng, names, 6)
            v = machine.short_word(machine.element_of(u))
            if v is not None and (u * v.inverse()).letters:
                words.append(u * v.inverse())
    if len(make()) == 1:
        return make, [(w,) for w in words]
    # on a union a word on both sides, or on the second side times a power
    # that fixes level leaf or leaf + 1, with the states renamed in the pair
    rename = {"x": "u", "y": "v"} if name == "mealy pair" else dict(zip(names, names))
    questions = []
    for i, w in enumerate(words):
        v = w * rng.choice(powers) if i % 2 else w
        questions.append((w, GroupWord([(rename[q], e) for q, e in v.letters])))
    return make, questions


@pytest.mark.parametrize("name", LEAF_PLUS_ONE_CASES)
def test_leaf_plus_one_matches_the_record_descent_and_the_transducer(name):
    # one machine (or union) answers every question at depths leaf to leaf + 3
    # in shuffled order, so verdicts and records made by other questions are
    # read.  The record descent answers on machines of its own: the same
    # verdict at every depth, and the same proven depth except at leaf + 1,
    # where a verdict proves leaf + 1 where the descent may have proved more,
    # and where a record without its self-sections is exact (inf) while the
    # descent proves a finite depth.  The transducer, where it runs, moves a
    # string of length <= d exactly where the verdict at d is None
    make, questions = _leaf_plus_one_case(name)
    sides, reference = make(), make()
    machine = _UnionMachine(sides) if len(sides) == 2 else sides[0]
    descent = _UnionMachine(reference) if len(sides) == 2 else reference[0]
    leaf, m = machine._leaf, machine.alphabet_size
    entries = [_Entries(side) for side in make()] if not name.startswith("thmD") else None
    rng = random.Random(f"leaf-plus-one-order/{name}")
    asked = [(q, d) for q in questions for d in range(leaf, leaf + 4)]
    rng.shuffle(asked)
    oracle_depth = max(d for d in range(leaf + 4) if m**d <= _TRANSDUCER_STRINGS)
    memo, kinds, shortest, oracle_kinds = {}, set(), {}, set()
    for q, d in asked:
        word = q[0] if len(q) == 1 else _lift(0, q[0]) * _lift(1, q[1]).inverse()
        got = _trivial(machine, machine.encode(word), d)
        want = _record_descent(descent, descent.encode(word), d, memo)
        deeper = got == math.inf and want is not None
        if got is None or d != leaf + 1:
            assert got == want or deeper, (str(word), d, got, want)
        else:
            assert want is not None and got in (leaf + 1, want) or deeper, (str(word), d, got, want)
        if len(q) == 2:
            a, b = (Automorphism(side, w) for side, w in zip(make(), q))
            assert equal_to_depth(a, b, d) is (got is not None), (str(word), d)
        if entries is not None and d <= oracle_depth and len(word.letters) <= 64:
            if q not in shortest:
                if len(q) == 1:
                    moved = lambda s: transducer_apply(entries[0], q[0], s) != s
                else:
                    moved = lambda s: transducer_apply(entries[0], q[0], s) != transducer_apply(entries[1], q[1], s)
                shortest[q] = _shortest_moved(moved, m, oracle_depth)
            assert (got is None) is (shortest[q] is not None and shortest[q] <= d), (str(word), d)
            oracle_kinds.add((d, got is None))
        if d == leaf + 1:
            kinds.add("moved" if got is None else "exact" if got == math.inf else "leaf + 1")
    assert {"moved", "leaf + 1"} <= kinds, kinds
    assert entries is None or {(leaf + 1, True), (leaf + 1, False)} <= oracle_kinds, oracle_kinds


def test_a_fresh_leaf_plus_one_check_makes_no_class_key_pass_or_record(monkeypatch):
    # on thmD(3) (leaf 4) a check at depth 5 composes section tables along
    # the cursors: no class key, no cursor pass and no record.  The verdict is
    # kept under the core's cache_key, so a conjugate of the word, which has
    # the same cyclic core, is answered without building a table
    machine = mealy.builtin_machine("thmD(3)")
    leaf = machine._leaf
    s, a, b = (GroupWord.gen(n) for n in "sab")
    trivial = commutator(s.conjugate_by(a**2 * b**-1), s.conjugate_by(a**-1 * b**2))
    moving = b**3  # fixes level 4 and moves a string of length 5
    calls = []
    for target in ("_class_key", "_pass", "_level"):
        real = getattr(tree_core, target)
        monkeypatch.setattr(tree_core, target, lambda *args, real=real, target=target: calls.append(target) or real(*args))
    for word, verdict in ((trivial, True), (moving, False)):
        calls.clear()
        assert trivial_to_depth(machine, word, leaf) and trivial_to_depth(machine, word, leaf + 1) is verdict
        assert "_class_key" not in calls and "_pass" not in calls and "_level" in calls, str(word)
    assert machine._triv == {} and len(machine._verdicts) == 2 and machine._section_tables
    tables = {c: list(slots) for c, slots in machine._section_tables.items()}
    t = a * b**-1 * s
    for word, verdict in ((trivial, True), (moving, False)):
        calls.clear()
        assert trivial_to_depth(machine, t * word * t.inverse(), leaf + 1) is verdict, str(word)
        assert calls == [], str(word)
    assert machine._section_tables == tables and len(machine._verdicts) == 2


def _recursive_level(machine, codes, k):
    """A reference ``_level`` that rotates the level-(k-1) table of every
    section, the empty word's included."""
    n = machine.alphabet_size ** (k - 1)
    action = tree_core._IDENTITY[: n * machine.alphabet_size]
    tables = machine._levels[k]
    for c in codes:
        table = tables.get(c)
        if table is None:
            if k == 1:
                table = bytes(machine._perm(c))
            else:
                table = bytearray()
                for sec, image in machine._rows[c] or machine._row(c):
                    below = _recursive_level(machine, sec, k - 1)
                    table += below.translate(tree_core._IDENTITY[image * n :] + tree_core._IDENTITY[: image * n])
            table = tables[c] = bytes(table) + tree_core._IDENTITY[len(table) :]
        action = action.translate(table)
    return action


@pytest.mark.parametrize("name", [
    "adding", "diagram1", "diagram2(4)", "diagram3", "brunner_sidki", "thmD(2)", "thmD(3)",
    "thmD-engine(2)", "thmD-engine(3)", "prop31(1,1)", "prop31(2,2)", "prop31(2,3)",
])
def test_level_tables_match_the_recursive_form(name):
    # every level table of each generator and its inverse, built cold on one
    # machine and through a section call per letter on another
    fresh, recursive = mealy.builtin_machine(name), mealy.builtin_machine(name)
    assert fresh._leaf > 0
    for k, g, bit in product(range(1, fresh._leaf + 1), fresh.generators, (0, 1)):
        codes = (fresh._codes[g] | bit,)
        assert _level(fresh, codes, k) == _recursive_level(recursive, codes, k), (g, bit, k)
    assert fresh._levels == recursive._levels and fresh._names == recursive._names


def test_engine_memo_keys_never_equal_code_tuples():
    # on Z^omega the element of a1^6 is the tuple (6,), the code tuple of a4.
    # Past leaf + 1 (the leaf is 5) each word makes a record: a4's core (6,)
    # is an alias of its class record, and a1^6's class record is keyed by
    # ((6,), None), which must not be that alias
    machine = build_representation(data_by_selector("zomega"))
    a1, a2, a3, a4 = (GroupWord.gen(f"a{i}") for i in range(1, 5))
    assert machine.encode(a1 * a2 * a3 * a4) == (0, 2, 4, 6)
    assert machine.element_of(a1**6) == (6,)
    depth = machine._leaf + 2
    assert depth == 7
    assert not trivial_to_depth(machine, a4, depth)
    assert not trivial_to_depth(machine, a1**6, depth)
    records = machine._triv
    assert (6,) in records and ((6,), None) in records
    assert records[(6,)] is not records[((6,), None)]
    fresh = build_representation(data_by_selector("zomega"))
    assert find_moving_string(Automorphism(fresh, a4), depth) == (2, 2, 2, 0)
    assert find_moving_string(Automorphism(fresh, a1**6), depth) == (0, 0)


# Rows compiled at construction (tables) and lifted from the sides' rows
# (unions), each against the formula that compiled them from ``entry``.

ROW_SOURCES = [
    "adding", "diagram1", "diagram2(3)", "diagram3", "brunner_sidki", "thmD(2)", "thmD(300)",
    "prop31(2,2)", "inflate", "mealy-file",
]


def test_row_sources_cover_every_builtin_table():
    builtins = {name.partition("(")[0] for name in ROW_SOURCES[:-2]}
    assert builtins == set(mealy._BUILTINS) - {"thmD-engine"}


@pytest.mark.parametrize("name", ROW_SOURCES)
def test_table_rows_are_the_given_table(name, monkeypatch):
    given = []
    init = TableMachine.__init__

    def spy(self, alphabet_size, table):
        given.append({q: (tuple(secs), perm) for q, (secs, perm) in table.items()})
        init(self, alphabet_size, table)

    monkeypatch.setattr(TableMachine, "__init__", spy)
    if name == "inflate":
        machine = inflate(mealy.builtin_machine("brunner_sidki"), 2)
    elif name == "mealy-file":
        machine = mealy.parse(_MEALY_TEXT)
    else:
        machine = mealy.builtin_machine(name)
    table = given[-1]  # the last table built is the machine's own
    assert machine.generators == tuple(table)
    assert [machine._codes[q] for q in table] == list(range(0, 2 * len(table), 2))
    for q, (secs, perm) in table.items():
        assert machine.entry(q) == (secs, perm), q
        c = machine._codes[q]
        assert machine._row(c) == tuple(zip(map(machine.encode, secs), perm.images)), q
        back = perm.inverse()
        inverse = tuple((machine.encode(secs[back(y)].inverse()), back(y)) for y in range(len(secs)))
        assert machine._row(c | 1) == inverse, q
    assert len(machine._names) == len(table)  # no section named a state past the declared ones


@pytest.mark.parametrize("sides", [("thmD(2)", "diagram1"), ("thmD(3)", "cp-wr-z2:p=3")])
def test_union_rows_lift_the_sides_rows(sides):
    made = [build_representation(data_by_selector(s)) if ":" in s else mealy.builtin_machine(s) for s in sides]
    union = _UnionMachine(made)
    names = [(i, q) for i, side in enumerate(made) for q in side.generators]
    rng = random.Random(f"union-rows/{sides}")
    for word in [GroupWord([(n, 1)]) for n in names] + [_random_word(rng, names, 6) for _ in range(6)]:
        states(Automorphism(union, word), 40, 3)
        trivial_to_depth(union, word, 6)
    # the walks read every generator, and an engine side's states past them
    assert set(names) <= set(union._names)
    assert (len(union._names) > len(names)) == (":" in sides[1])
    for i, q in list(union._names):
        c = union._codes[(i, q)]
        sections, perm = made[i].entry(q)
        want = tuple(zip((union.encode(_lift(i, w)) for w in sections), perm.images))
        assert union._row(c) == want, (i, q)
        assert union.entry((i, q)) == (tuple(_lift(i, w) for w in sections), perm)


def _cyclic_words(codes):
    """Every rotation of the cyclic core of a code word and of its inverse, by
    stripping one end pair at a time and rotating one letter at a time."""
    core = list(codes)
    while len(core) > 1 and core[0] == core[-1] ^ 1:
        core = core[1:-1]
    inverse = [c ^ 1 for c in reversed(core)]
    return {tuple(w[i:] + w[:i]) for w in (core, inverse) for i in range(len(w))} or {()}


def _brute_class_key(codes):
    return min(_cyclic_words(codes))


def test_class_key_small_cases():
    machine = mealy.builtin_machine("thmD(2)")
    s, a, b = (GroupWord.gen(n) for n in "sab")

    def key(word):
        codes = machine.encode(word)
        assert _class_key(codes) == _brute_class_key(codes), str(word)
        return _class_key(codes)

    assert key(GroupWord.identity()) == ()
    assert key(a * b * b.inverse() * a.inverse()) == ()
    assert key(a * b * a.inverse()) == key(b) == machine.encode(b)
    assert key(b.inverse()) == key(b)
    assert key(s) == machine.encode(s)
    assert key(s**2) == machine.encode(s**2)
    assert key((a * b) ** 3) == key((b * a) ** 3) == key((a * b) ** -3) == key((b.inverse() * a.inverse()) ** 3)
    assert key((a * b) ** 3) != key((a * b) ** 2)
    assert key(a * b * s * b.inverse() * a.inverse()) == key(s)
    assert key(a * s * b * a.inverse()) == key(s * b)
    assert key(a * b * a.inverse() * b.inverse()) == key(b * a * b.inverse() * a.inverse())


def test_class_key_matches_brute_force_on_random_words():
    machine = mealy.builtin_machine("thmD(2)")
    names = list(machine.generators)
    rng = random.Random(6)
    classes = set()
    for _ in range(300):
        w, u = _random_word(rng, names, 12), _random_word(rng, names, 6)
        codes = machine.encode(w)
        key = _class_key(codes)
        for word in (w, w ** rng.randint(2, 3), u * w):
            assert _class_key(machine.encode(word)) == _brute_class_key(machine.encode(word)), str(word)
        # conjugates and the inverse share the key ...
        for other in (u * w * u.inverse(), u * w.inverse() * u.inverse(), w.inverse()):
            assert _class_key(machine.encode(other)) == key, (str(w), str(other))
        # ... and words with different keys differ as cyclic words
        v = u * w * u.inverse() if rng.random() < 0.3 else _random_word(rng, names, 4)
        same = _cyclic_words(codes) == _cyclic_words(machine.encode(v))
        assert (_class_key(machine.encode(v)) == key) is same, (str(w), str(v))
        classes.add(same)
    assert classes == {True, False}


def test_machines_are_freed_without_the_cycle_collector():
    word = GroupWord.gen("a") * GroupWord.gen("b") * GroupWord.gen("s", -1)
    gc.disable()
    try:
        for name in ("thmD(2)", "thmD-engine(2)"):
            machine = mealy.builtin_machine(name)
            trivial_to_depth(machine, commutator(word, GroupWord.gen("s")), 6)
            ref = weakref.ref(machine)
            del machine
            assert ref() is None
    finally:
        gc.enable()


def test_closure_is_breadth_first_and_keeps_the_first_of_each_key():
    # 0 -> 1, 2; 1 -> 3, 4; 2 -> 5, 6: level by level, not depth first (0, 1, 3, ..)
    found, more = closure([0], lambda n: [2 * n + 1, 2 * n + 2] if n < 3 else [], 10)
    assert (found, more) == ([0, 1, 2, 3, 4, 5, 6], False)
    # keyed by value mod 3, so 4 goes to 1 and 5 to 2; starts count as reached
    found, more = closure([1, 4, 2], lambda n: [n + 3, n + 4], 10, key=lambda n: n % 3)
    assert (found, more) == ([1, 2, 6], False)
    assert closure([], lambda n: [n], 3) == ([], False)
    # the limit never cuts the starts
    assert closure([7, 8], lambda n: [], 1) == ([7, 8], False)


def test_closure_stops_at_the_first_item_past_the_limit():
    calls = []

    def successors(n):
        calls.append(n)
        return [2 * n, 2 * n + 1]

    assert closure([1], successors, 5) == ([1, 2, 3, 4, 5], True)
    # checking the bound when an item is dequeued would also expand 4 and 5
    assert calls == [1, 2, 3]


def test_states_cap_boundary():
    # a3 -> a3, a3, a2 -> a1 -> e: four states
    for cap, truncated in ((3, True), (4, False), (5, False)):
        d2 = mealy.builtin_machine("diagram2(5)")
        got = states(d2.automorphism("a3"), cap, 4)
        assert [str(s.word) for s in got.states] == ["a3", "a2", "a1", "e"][:cap]
        assert got.truncated is truncated


def test_orbit_larger_than_max_states_is_not_cut():
    assert 600 > MAX_STATES
    assert orbit_type(mealy.builtin_machine("thmD(600)")) == (600, 1)


def _reference_states(a, max_states, sep_depth):
    """The GroupWord loop ``states`` replaced: sections by ``section_word``,
    triviality by ``trivial_to_depth``, and dedup when a word is dequeued."""
    machine = a.machine
    reps, keys, queue = [], set(), deque([a.word])
    while queue:
        word = queue.popleft()
        if machine.model is not None:
            key = machine.cache_key(machine.encode(word))
            if key in keys:
                continue
            keys.add(key)
        elif any(trivial_to_depth(machine, word * r.inverse(), sep_depth) for r in reps):
            continue
        if len(reps) == max_states:
            return reps, True
        reps.append(word)
        queue.extend(section_word(machine, word, y) for y in range(machine.alphabet_size))
    return reps, False


def test_states_match_the_loop_they_replace():
    builtins = ["adding", "diagram1", "diagram2(4)", "diagram3", "brunner_sidki", "prop31(2,2)"]
    builtins += ["thmD(2)", "thmD(3)", "thmD-engine(2)", "thmD-engine(3)"]
    selectors = ["zwrz", "zwrz-wr-c2", "lamplighter:B=2", "concat:lamplighter:B=2+zwrz", "zomega"]
    makers = [(lambda b=b: mealy.builtin_machine(b), 40) for b in builtins]
    makers += [(lambda s=s: build_representation(data_by_selector(s)), 60) for s in selectors]
    rng = random.Random("states-cross-check")
    truncated = complete = 0
    for make, max_cap in makers:
        names = make().generators
        for _ in range(27):
            word = GroupWord(
                (rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))
            )
            cap, sep = rng.randint(1, max_cap), rng.randint(1, 6)
            want = _reference_states(make().automorphism(word), cap, sep)
            got = states(make().automorphism(word), cap, sep)
            assert ([s.word for s in got.states], got.truncated) == want, (word, cap, sep)
            truncated += got.truncated
            complete += not got.truncated
    assert truncated > 50 and complete > 50  # both outcomes are exercised


def _scan_states(a, max_states, sep_depth):
    """``states`` on a machine without a model, keyed by the pairwise scan it
    replaced: each new word is checked against every kept word, in order, by
    ``_trivial`` at ``sep_depth`` on their prefix-cancelled quotient."""
    machine = a.machine
    kept = []

    def key(codes):
        for r in kept:
            n = 0
            while n < min(len(codes), len(r)) and codes[n] == r[n]:
                n += 1
            if _trivial(machine, tuple(c ^ 1 for c in reversed(r[n:])) + codes[n:], sep_depth):
                return r
        kept.append(codes)
        return codes

    def sections(codes):
        return [_pass(machine, codes, y)[0] for y in range(machine.alphabet_size)]

    found, more = closure([machine.encode(a.word)], sections, max_states, key)
    return [machine.decode(c) for c in found], more


# the machines whose closures below meet no two distinct words alike at the leaf
NO_LEAF_MATES = {"adding", "brunner_sidki", "diagram1", "diagram3"}


@pytest.mark.parametrize(
    "name, caps",
    [
        ("adding", (1, 6, 40)),
        ("brunner_sidki", (1, 6, 40)),
        ("diagram1", (1, 6, 40)),
        ("diagram3", (1, 6, 40)),
        ("prop31(2,2)", (1, 6, 40)),
        ("thmD(2)", (1, 6, 40, 120)),
        ("thmD(3)", (1, 6, 40, 120)),
        ("thmD(300)", (1, 3, 8)),  # 300 letters: leaf 0, every depth by records
    ],
)
def test_states_by_level_match_the_pairwise_scan(name, caps, monkeypatch):
    # kept words are grouped by their action at level min(sep_depth, leaf);
    # up to the leaf that action decides alone, without a _trivial call
    leaf = mealy.builtin_machine(name)._leaf
    names = mealy.builtin_machine(name).generators
    rng = random.Random(f"level-states/{name}")
    calls = []
    counted = lambda machine, codes, d: calls.append(d) or _trivial(machine, codes, d)
    seps = sorted({1, leaf, leaf + 1, leaf + 3} - {0})
    outcomes, deep_calls = set(), 0
    for _ in range(3):
        word = _random_word(rng, names, 4)
        for sep, cap in product(seps, caps):
            want = _scan_states(mealy.builtin_machine(name).automorphism(word), cap, sep)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(tree_core, "_trivial", counted)
                got = states(mealy.builtin_machine(name).automorphism(word), cap, sep)
            assert ([a.word for a in got.states], got.truncated) == want, (str(word), sep, cap)
            if sep <= leaf:
                assert calls == [], (str(word), sep, cap)
            deep_calls += len(calls)
            outcomes.add((sep <= leaf, got.truncated))
    # truncated closures on both sides of the leaf (thmD(300) has only one),
    # and the counter sees the record-depth comparisons past the leaf.  Each
    # code tuple is keyed once, so a comparison needs two distinct words alike
    # at the leaf, which these words never meet on the machines of NO_LEAF_MATES
    assert {(sep <= leaf, True) for sep in seps} <= outcomes
    assert (deep_calls > 0) is (name not in NO_LEAF_MATES)


@pytest.mark.parametrize("name", ["thmD(256)", "thmD(257)", "thmD(300)"])
def test_leaf_zero_states_match_the_single_bucket_scan(name):
    # past 256 letters kept words are bucketed by the image of letter 0; one
    # machine per side, as memo records change no answer
    machine, reference = mealy.builtin_machine(name), mealy.builtin_machine(name)
    assert machine._leaf == 0
    rng = random.Random(f"leaf-zero-states/{name}")
    words = [GroupWord.gen("b")] + [_random_word(rng, machine.generators, 4) for _ in range(4)]
    truncated = set()
    for word, sep, cap in product(words, (1, 2, 3), (1, 4, 16, 48)):
        want = _scan_states(reference.automorphism(word), cap, sep)
        got = states(machine.automorphism(word), cap, sep)
        assert ([a.word for a in got.states], got.truncated) == want, (str(word), sep, cap)
        truncated.add(got.truncated)
    assert truncated == {False, True}


@pytest.mark.parametrize("name", sorted(set(CROSS_CHECK_MACHINES) | set(ENGINE_DATA)))
def test_lazy_states_decode_like_the_eager_list(name):
    machine, names = _cross_check_machine(name)
    other = _cross_check_machine(name)[0]
    rng = random.Random(f"lazy-states/{name}")
    truncated = complete = 0
    # the identity closes in one state on every machine
    for word in [GroupWord.identity()] + [_random_word(rng, names, 4) for _ in range(6)]:
        sep = rng.randint(1, 4)
        size = len(states(Automorphism(machine, word), 40, sep))
        # caps below, at and above the closure's size, so both sides of truncation
        for cap in {1, max(1, size - 1), size, size + 1}:
            r = states(Automorphism(machine, word), cap, sep)
            found = r.states.codes
            eager = [machine.decode(c) for c in found]  # the list ``states`` returned
            assert len(r.states) == len(eager) == len(r)
            assert [a.word for a in r.states] == eager
            assert [a.word for a in r.states] == eager  # a second iteration
            assert [r.states[i].word for i in range(-len(eager), len(eager))] == eager + eager
            assert r.states[-1].word == eager[-1] and r.states[0].word == word
            assert all(a.machine is machine for a in r.states)
            assert repr(r.states) == repr(list(r.states))  # as the list printed
            with pytest.raises(IndexError):
                r.states[len(eager)]
            with pytest.raises(TypeError):  # items only, no slices
                r.states[:1]
            # an item read is a member, found where its word first is, as many
            # times as the list holds that word; membership decodes and names
            # no state, and an equal word of another machine is no member
            named = list(machine._names)
            for i in range(len(eager)):
                item = r.states[i]
                assert item in r.states, (str(word), i)
                assert r.states.index(item) == eager.index(eager[i]), (str(word), i)
                assert r.states.index(item, i) == i and r.states.index(item, i - len(eager)) == i
                assert r.states.count(item) == eager.count(eager[i]), (str(word), i)
            assert machine._names == named
            for i in range(len(eager)):  # a fresh item, not read from the states
                fresh = Automorphism(machine, eager[i])
                assert fresh in r.states and r.states.index(fresh) == eager.index(eager[i])
                assert r.states.count(fresh) == eager.count(eager[i])
            assert len(set(r.states)) == len(set(eager))
            stranger = Automorphism(other, eager[0])
            assert stranger not in r.states and eager[0] not in r.states
            assert r.states.count(stranger) == 0
            with pytest.raises(ValueError):
                r.states.index(stranger)
            with pytest.raises(ValueError):  # past the last position of the word
                r.states.index(r.states[-1], len(eager))
            flipped = StateSet(r.states, not r.truncated)  # as benchmarks/run.py's ``wrong``
            assert [a.word for a in flipped.states] == eager
            assert flipped.truncated is not r.truncated
            truncated += r.truncated
            complete += not r.truncated
    assert truncated > 0 and complete > 0


def test_states_decode_only_the_items_read():
    machine = build_representation(data_by_selector("cp-wr-z2:p=3"))
    decoded = []
    decode = machine.decode
    machine.decode = lambda codes: decoded.append(codes) or decode(codes)
    aut = machine.automorphism("a b^-1 a")
    got = states(aut, 240, 1)
    assert got.truncated and len(got.states) == 240 and got.states[0].word == aut.word
    assert len(decoded) == 1
    assert len([a.word for a in got.states]) == 240
    assert len(decoded) == 241


def _pass_states(a, max_states, sep_depth, monkeypatch):
    """``states`` with every item expanded by its m cursor passes (``_pass``),
    one-state items included: the reference for their expansion by rows."""
    machine = a.machine
    walk = tree_core.closure

    def passes(codes):
        return [_pass(machine, codes, y)[0] for y in range(machine.alphabet_size)]

    with monkeypatch.context() as patch:
        patch.setattr(tree_core, "closure", lambda starts, _, limit, key: walk(starts, passes, limit, key))
        return states(a, max_states, sep_depth)


# every builtin table and engine data set, a table+engine union, and thmD(300)
# at leaf 0
ROW_STATES_MACHINES = [
    "adding", "diagram1", "diagram2(4)", "diagram3", "brunner_sidki", "prop31(2,2)", "thmD(2)",
    "thmD(3)", "thmD(300)", "thmD-engine(2)", "engine union", *sorted(ENGINE_DATA),
]


def test_row_states_machines_cover_every_builtin():
    assert set(mealy._BUILTINS) <= {name.partition("(")[0] for name in ROW_STATES_MACHINES}


@pytest.mark.parametrize("name", ROW_STATES_MACHINES)
def test_states_from_rows_match_the_cursor_passes(name, monkeypatch):
    # a one-state item reads its sections from its row, which its first cursor
    # pass compiles too: the same closure and flag, and the same states named
    # and rows compiled, each side on machines of its own.  The starts are one
    # state, one inverse state, the identity and words of two to four letters.
    # thmD(300) stops at 48 states, as in the leaf-zero test above: past about
    # 100, the closure of a^3 checks words of some 300 codes against each
    # other at depth 1, which takes minutes on either expansion
    machine, names = _cross_check_machine(name)
    leaf, model = machine._leaf, machine.model
    top = 48 if leaf == 0 else 120
    rng = random.Random(f"row-states/{name}")
    starts = [GroupWord([(names[0], 1)]), GroupWord([(names[-1], -1)]), GroupWord.identity()]
    while len(starts) < 6:
        word = GroupWord([(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(2, 4))])
        if len(word.letters) > 1:
            starts.append(word)
    seps = (1,) if model is not None else sorted({1, 2, leaf, leaf + 1, leaf + 3} - {0})
    outcomes = set()
    for word, sep in product(starts, seps):
        for cap in (1, rng.randint(2, top - 1), top):
            machine, reference = _cross_check_machine(name)[0], _cross_check_machine(name)[0]
            got = states(Automorphism(machine, word), cap, sep)
            want = _pass_states(Automorphism(reference, word), cap, sep, monkeypatch)
            assert (got.states.codes, got.truncated) == (want.states.codes, want.truncated), (str(word), sep, cap)
            assert machine._names == reference._names, (str(word), sep, cap)
            assert machine._rows == reference._rows, (str(word), sep, cap)
            outcomes.add(got.truncated)
    assert outcomes == {False, True}


@pytest.mark.parametrize("name", sorted(ENGINE_DATA))
def test_identity_elements_end_a_witness_search_at_once(name):
    # u times the inverse of a shortest word for u's element is the model's
    # identity, often without cancelling freely (always in Z): its memo record
    # is proven at every depth, so a search to 10^12 levels ends at once.
    # Random strings of 40 letters, walked by cursor passes, stay fixed
    machine, names = _cross_check_machine(name)
    rng = random.Random(f"identity-elements/{name}")
    words = 0
    for _ in range(16):
        u = _random_word(rng, names, 8) * _random_word(rng, names, 8).inverse()
        v = machine.short_word(machine.element_of(u))
        if v is None or not (u * v.inverse()).letters:
            continue
        word = u * v.inverse()
        words += 1
        assert find_moving_string(Automorphism(machine, word), 10**12) is None, str(word)
        for _ in range(5):
            string = tuple(rng.randrange(machine.alphabet_size) for _ in range(40))
            assert apply_word(machine, word, string) == string, str(word)
    assert (words > 0) is (name != "z")


def test_commutator_depth_ladder():
    # the lamps s^(a^2 b^-1) and s^(a^-1 b^2) of thmD(2) commute at each
    # depth of CI's "Commutator depth ladder", each on a fresh machine
    s, a, b = (GroupWord.gen(n) for n in "sab")
    word = commutator(s.conjugate_by(a**2 * b**-1), s.conjugate_by(a**-1 * b**2))
    for depth in (12, 14, 16, 18):
        assert trivial_to_depth(mealy.builtin_machine("thmD(2)"), word, depth) is True


def test_deep_engine_search():
    # a^27 moves no string of 12 letters on a fresh cp-wr-z2:p=3 engine, as
    # in CI's "Deep engine search"
    machine = build_representation(data_by_selector("cp-wr-z2:p=3"))
    assert find_moving_string(Automorphism(machine, GroupWord.gen("a") ** 27), 12) is None
