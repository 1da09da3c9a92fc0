import gc
import random
import weakref

import pytest

from selfsim import mealy
from selfsim.gdata_engine import build_representation
from selfsim.perm_word import GroupWord, Perm, commutator
from selfsim.tree_core import (
    _class_key,
    _UnionMachine,
    Automorphism,
    equal_to_depth,
    find_moving_string,
    format_orbit_type,
    inflate,
    orbit_type,
    portrait,
    root_perm,
    section_word,
    states,
    trivial_to_depth,
)
from selfsim.wreath_models import data_by_selector, thmD_engine_machine


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
    with pytest.raises(ValueError):
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
    swapped = mealy.to_machine(mealy.parse("alphabet 2\nstate a: 0->1 a, 1->0 e\n"))
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
    assert all(p.is_identity() for p in ident.labels.values())
    assert set(ident.labels) == {(), (0,), (1,)}

    por = portrait(adding.automorphism("a"), 2)
    assert por.labels[()] == Perm((1, 0))
    assert por.labels[(0,)].is_identity()
    assert por.labels[(1,)] == Perm((1, 0))

    root_only = portrait(diagram1.automorphism("g"), 1)
    assert root_only.labels[()].is_identity()


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
    single = mealy.to_machine(
        mealy.MealyAutomaton(3, ["t"], {("t", y): "e" for y in range(3)}, {("t", y): y for y in range(3)})
    )
    assert orbit_type(single) == (1, 1, 1)
    assert orbit_type(diagram1) == (2, 1)
    assert format_orbit_type(orbit_type(diagram1)) == "(2,1)"
    assert orbit_type(mealy.builtin_machine("thmD(3)")) == (3, 1)


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
# reference for the code-tuple passes: every letter reads the machine's entry.


def _reference_root_perm(machine, word):
    images = tuple(range(machine.alphabet_size))
    for name, sign in word:
        _, perm = machine.entry(name)
        q = perm if sign > 0 else perm.inverse()
        images = tuple(q(i) for i in images)
    return Perm(images)


def _reference_section_word(machine, word, y):
    out = []
    cur = y
    for name, sign in word:
        sections, perm = machine.entry(name)
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


def _cross_check_machine(name):
    """A machine and the state names its random words are drawn from."""
    if name == "mealy-file":
        machine = mealy.to_machine(mealy.parse(_MEALY_TEXT))
    elif name == "union":
        sides = (mealy.builtin_machine("thmD(2)"), mealy.builtin_machine("diagram1"))
        machine = _UnionMachine(sides)
        return machine, [(i, n) for i, side in enumerate(sides) for n in side.generators]
    elif name in ("cp-wr-z2:p=2", "zomega"):
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
        rng.shuffle(depths)  # exercise both memo bounds in every order
        for d in depths:
            assert trivial_to_depth(machine, word, d) is (d <= deepest), (str(word), d)
            verdicts.add((d > 1, d <= deepest))
    assert {(True, True), (True, False)} <= verdicts


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


def test_engine_memo_keys_never_equal_code_tuples():
    # on Z^omega the element of a1^6 is the tuple (6,), the code tuple of a4
    machine = build_representation(data_by_selector("zomega"))
    a1, a2, a3, a4 = (GroupWord.gen(f"a{i}") for i in range(1, 5))
    assert machine.encode(a1 * a2 * a3 * a4) == (0, 2, 4, 6)
    assert machine.element_of(a1**6) == (6,)
    assert trivial_to_depth(machine, a4, 3)
    assert not trivial_to_depth(machine, a1**6, 3)


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
        for build in (lambda: mealy.builtin_machine("thmD(2)"), lambda: thmD_engine_machine(2)):
            machine = build()
            trivial_to_depth(machine, commutator(word, GroupWord.gen("s")), 6)
            ref = weakref.ref(machine)
            del machine
            assert ref() is None
    finally:
        gc.enable()
