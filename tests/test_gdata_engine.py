import itertools
import random
import zlib

import pytest

from selfsim import mealy
from selfsim.gdata_engine import (
    MAX_BALL,
    SEARCH_LEN,
    EngineMachine,
    GData,
    SequenceModel,
    VirtualEndo,
    build_representation,
    enumerate_abelian,
    fcore_witness_check,
    schreier,
    lamp_extension_data,
    wreath_by_regular_data,
)
from selfsim.perm_word import GroupWord, Perm, parse_word
from selfsim.tree_core import (
    Automorphism,
    SelfSimilarMachine,
    apply_word,
    equal_to_depth,
    find_moving_string,
    inflate,
    orbit_type,
    root_perm,
    states,
    trivial_to_depth,
)
from selfsim.wreath_models import (
    CosetSpace,
    WreathModel,
    data_by_selector,
    lamplighter_data,
    lamplighter_extension_data,
    prop31_endos,
    z_coset_space,
    z_data,
    zomega_data,
    zwrz_data,
    zwrz_wr_c2_data,
)

from test_constructions import _z_orbits
from test_wreath_models import ALL_DATA, cp_wr_z2_inverse_data


def assert_entry(machine, name, section_texts, perm):
    """Exact, model-level comparison of one state's recursion line."""
    sections, got_perm = machine.entry(name)
    assert got_perm == perm
    assert len(sections) == len(section_texts)
    for got, text in zip(sections, section_texts):
        assert machine.element_of(got) == machine.element_of(parse_word(text))


def test_schreier_values_on_z():
    endo = z_data().endos[0]
    # the identity element leaves every coset in place with a trivial cocycle
    for j, t in enumerate(endo.transversal):
        assert schreier(endo, 0, t) == (0, j)
    assert schreier(endo, 1, 0) == (0, 1)
    assert schreier(endo, 1, 1) == (2, 0)
    assert schreier(endo, 2, 0) == (2, 0)
    assert schreier(endo, 2, 1) == (2, 1)


def test_schreier_cocycle_randomized():
    endo = z_data().endos[0]
    rng = random.Random(3)
    for _ in range(300):
        g, h = rng.randint(-30, 30), rng.randint(-30, 30)
        for t in endo.transversal:
            hg, j = schreier(endo, g, t)
            hh, _ = schreier(endo, h, endo.transversal[j])
            total, _ = schreier(endo, g + h, t)
            assert total == hg + hh


# every kind of endomorphism: whole, index 2, a lifted one, a regular wreath,
# lamps over Z, both C_p wr Z^2 transversals and a concatenation
ENGINE_DATA = {
    **{
        sel: lambda sel=sel: data_by_selector(sel)
        for sel in (
            "z",
            "zwrz",
            "zwrz-wr-c2",
            "zomega",
            "lamplighter:B=2,3",
            "cp-wr-z2:p=2",
            "cp-wr-z2:p=3",
            "concat:lamplighter:B=2+zwrz",
        )
    },
    "cp-wr-z2:p=2 inverse": lambda: cp_wr_z2_inverse_data(2),
    "cp-wr-z2:p=3 inverse": lambda: cp_wr_z2_inverse_data(3),
}


@pytest.mark.parametrize("name", sorted(ENGINE_DATA))
def test_schreier_matches_the_plain_formula(name):
    data = ENGINE_DATA[name]()
    model = data.model
    rng = random.Random(zlib.crc32(name.encode()))
    for endo in data.endos:
        # the identity as a new object where the model makes one
        ts = [model.identity(), *endo.transversal]
        for _ in range(40):
            g = model.random_element(rng)
            for t in ts:
                tg = model.multiply(t, g)
                j = endo.coset_index(tg)
                h = model.multiply(tg, model.invert(endo.transversal[j]))
                assert schreier(endo, g, t) == (h, j)


@pytest.mark.parametrize("name", sorted(ENGINE_DATA))
def test_cache_key_matches_the_identity_started_product(name):
    machine = build_representation(ENGINE_DATA[name]())
    model = machine.model
    for state in machine.generators:  # spawn the states of the generators' sections
        machine.entry(state)
    states = {c: g for c, g in machine._elements.items() if not c & 1}
    assert machine.cache_key(()) == model.identity()
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(100):
        codes = tuple(rng.choice(list(states)) | rng.randrange(2) for _ in range(rng.randint(1, 6)))
        want = model.identity()
        for c in codes:
            want = model.multiply(want, model.invert(states[c ^ 1]) if c & 1 else states[c])
        assert machine.cache_key(codes) == want


class EntryEngine(EngineMachine):
    """The reference for rows compiled from elements: an engine whose rows
    compile from ``entry``, which computes a state's recursion line from its
    element with ``schreier``, ``GroupWord.gen`` and ``Perm`` on every call."""

    def _compile(self, c):
        sections, perm = self.entry(self._names[c >> 1])
        return tuple(zip(map(self.encode, sections), perm.images))

    def entry(self, name):
        g = self._elements.get(self._codes.get(name))
        if g is None:
            raise ValueError(f"undeclared state: {name!r}")
        model = self.model
        images = []
        sections = []
        for endo in self.data.endos:
            offset = len(images)
            for t in endo.transversal:
                h, j = schreier(endo, g, t)
                images.append(offset + j)
                sec = endo.image(h)
                if model.is_identity(sec):
                    sections.append(GroupWord.identity())
                else:
                    sections.append(GroupWord.gen(self.state_of(sec)))
        return tuple(sections), Perm(images)


def _closures_and_searches(machine, rng):
    """A fixed run of truncated ``states`` closures and ``find_moving_string``
    searches on random generator words, which creates engine states."""
    letters = [(gen, sign) for gen in machine.generators for sign in (1, -1)]
    out = []
    for _ in range(6):
        aut = Automorphism(machine, GroupWord(rng.choice(letters) for _ in range(rng.randint(1, 4))))
        found = states(aut, 25, 1)
        out.append(([str(s.word) for s in found.states], found.truncated, find_moving_string(aut, 8)))
    return out


@pytest.mark.parametrize("name", sorted(ENGINE_DATA))
def test_compiled_rows_match_the_entry_formula(name):
    machine = build_representation(ENGINE_DATA[name]())
    reference = EntryEngine(ENGINE_DATA[name]())
    seed = zlib.crc32(name.encode())
    got = _closures_and_searches(machine, random.Random(seed))
    assert got == _closures_and_searches(reference, random.Random(seed))
    assert machine._names == reference._names
    # every state, the ones its entries reach for the first time included
    for state in [n for n in machine._names if machine._codes[n] in machine._elements]:
        assert machine.entry(state) == reference.entry(state)
    assert machine._names == reference._names
    rng = {side: random.Random(seed) for side in (machine, reference)}
    for _ in range(100):
        got = []
        for side in (machine, reference):
            aut = side.automorphism_of(side.model.random_element(rng[side]))
            sections = [str(aut.section(y).word) for y in range(side.alphabet_size)]
            got.append((str(aut.word), aut.root_perm(), sections))
        assert got[0] == got[1]
    assert machine._names == reference._names


def _seeded_words(machine, rng, count):
    """Random generator words of 1-12 letters, every other one a power of one
    letter, which fixes the most levels."""
    letters = [(g, s) for g in machine.generators for s in (1, -1)]
    for i in range(count):
        n = rng.randint(1, 12)
        if i % 2:
            yield GroupWord([rng.choice(letters)]) ** n
        else:
            yield GroupWord(rng.choice(letters) for _ in range(n))


@pytest.mark.parametrize("name", sorted(ENGINE_DATA))
def test_level_tables_match_the_record_path(name):
    # an engine decides depths up to its leaf from level tables; the same data
    # with leaf 1 decides them from memo records, as an engine of degree > 6 does
    machine = build_representation(ENGINE_DATA[name]())
    records = build_representation(ENGINE_DATA[name]())
    records._leaf = 1
    leaf = machine._leaf
    moved = set()
    for word in _seeded_words(machine, random.Random(zlib.crc32(name.encode())), 30):
        for d in range(1, leaf + 3):
            assert trivial_to_depth(machine, word, d) is trivial_to_depth(records, word, d), (str(word), d)
        witness = find_moving_string(Automorphism(machine, word), leaf + 2)
        assert witness == find_moving_string(Automorphism(records, word), leaf + 2), str(word)
        moved.add(len(witness) if witness else None)
    # these words reach the same states on both paths; a word whose element is
    # the identity would not, as tables name every state within leaf - 1
    # levels.  cache_key also files the elements of inverse codes: count states
    counts = [sum(not c & 1 for c in side._elements) for side in (machine, records)]
    assert counts[0] == counts[1]
    assert 1 in moved and max(d for d in moved if d) > 1


class RowPermEngine(EngineMachine):
    """The reference for root permutations: an engine whose ``_perm`` reads
    the compiled row, so reading a permutation compiles its state's row and
    names its section states."""

    def _perm(self, c):
        return SelfSimilarMachine._perm(self, c)


@pytest.mark.parametrize("name", sorted(ENGINE_DATA))
def test_root_permutations_match_the_compiled_rows(name):
    machine = build_representation(ENGINE_DATA[name]())
    reference = RowPermEngine(ENGINE_DATA[name]())
    model = machine.model
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(40):
        g = model.random_element(rng)
        words = [side._word_of(g) for side in (machine, reference)]
        if not words[0]:
            continue
        for compiled in (False, True):  # from the kept cells, then from the row
            if compiled:
                machine._row(words[0][0])
            for flip in (0, 1):  # the state's code and its inverse code
                want = reference._perm(words[1][0] | flip)
                assert machine._perm(words[0][0] | flip) == want, (g, compiled, flip)
    leaf = machine._leaf
    for word in _seeded_words(machine, random.Random(zlib.crc32(name.encode())), 30):
        for d in range(1, leaf + 3):
            assert trivial_to_depth(machine, word, d) is trivial_to_depth(reference, word, d), (str(word), d)
        want = find_moving_string(Automorphism(reference, word), leaf + 2)
        assert find_moving_string(Automorphism(machine, word), leaf + 2) == want, str(word)


@pytest.mark.parametrize("selector", ["z", "cp-wr-z2:p=2", "cp-wr-z2:p=3", "lamplighter:B=2,3"])
def test_depth_one_answers_compile_no_row(selector):
    # a root permutation comes from the cocycle values alone: no row is
    # compiled and no section is named a state
    machine = build_representation(data_by_selector(selector))
    names = list(machine._names)
    letters = [(g, s) for g in machine.generators for s in (1, -1)]
    rng = random.Random(selector)
    moved = 0
    for _ in range(20):
        word = GroupWord(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        witness = find_moving_string(Automorphism(machine, word), 1)
        assert (witness is None) is trivial_to_depth(machine, word, 1)
        assert root_perm(machine, word).is_identity() is (witness is None)
        moved += witness is not None
    assert moved
    assert machine._names == names
    assert all(row is None for row in machine._rows)


LEAVES = {
    "z": 8,
    "zwrz": 5,
    "zomega": 5,
    "cp-wr-z2:p=2": 5,
    "cp-wr-z2:p=3": 4,
    "zwrz-wr-c2": 4,
    "lamplighter:B=2": 3,
    "concat:lamplighter:B=2+zwrz": 1,  # degree 8
    "lamplighter:B=2,3": 1,  # degree 13
}


@pytest.mark.parametrize("selector", sorted(LEAVES))
def test_engine_leaf_by_degree(selector):
    machine = build_representation(data_by_selector(selector))
    assert machine._leaf == LEAVES[selector]


@pytest.mark.parametrize("p, n, witness, most_keys", [(2, 16, None, 300), (3, 9, (1,) + (0,) * 9, 200)])
def test_deep_searches_make_records_below_the_leaf_only(p, n, witness, most_keys):
    # a^(p^k) fixes many levels before it moves; at leaf 1 these searches
    # made 3,615 (a^16) and 1,906 (a^9) memo keys
    machine = build_representation(data_by_selector(f"cp-wr-z2:p={p}"))
    assert find_moving_string(Automorphism(machine, GroupWord.gen("a") ** n), 12) == witness
    assert len(machine._triv) + len(machine._verdicts) <= most_keys


def test_transversal_must_start_at_identity():
    model = z_data().model
    with pytest.raises(ValueError):
        VirtualEndo(model, lambda n: True, lambda n: n, (1, 0), lambda n: n % 2)


def test_adding_machine_from_data():
    machine = build_representation(z_data())
    assert machine.alphabet_size == 2
    assert machine.generators == ("a",)
    assert_entry(machine, "a", ["e", "a"], Perm((1, 0)))


def test_engine_states_memoized_by_element():
    machine = build_representation(z_data())
    two = machine.state_of(2)
    assert machine.state_of(1 + 1) == two
    assert machine.state_of(1) == "a"


def test_new_states_skip_the_names_of_generators():
    # the generator q1 keeps its name, so the first new state is q2
    data = z_data()
    data.model.generators = {"q1": 1}
    machine = build_representation(data)
    assert machine.generators == ("q1",)
    assert machine.state_of(2) == "q2"
    assert machine.state_of(3) == "q3"
    assert machine.state_of(1) == "q1"


def _q1_data() -> GData:
    data = z_data()
    data.model.generators = {"a": 1, "q1": 3}
    return data


# the state named for the identity, each generator and six seeded elements, then
# every other one of these again; new states skip the generator q1
STATE_NAMES = {
    "lamplighter:B=2,3": ["e", "b1", "b2", "z", "q1", "e", "q2", "q3", "q4", "q5", "e", "b2", "q1", "q2", "q4"],
    "zwrz": ["e", "g1", "a1", "q1", "q2", "e", "q3", "q2", "q4", "e", "a1", "q2", "q3", "q4"],
    "cp-wr-z2:p=3": ["e", "s", "a", "b", "q1", "q2", "q3", "q4", "q5", "q6", "e", "a", "q1", "q3", "q5"],
    "zwrz-wr-c2": ["e", "g1", "a1", "s", "q1", "q2", "q3", "q4", "q5", "q6", "e", "a1", "q1", "q3", "q5"],
    "q1": ["e", "a", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "e", "q1", "q3", "q5", "q7"],
}


@pytest.mark.parametrize("name", sorted(STATE_NAMES))
def test_state_of_and_automorphism_of_name_one_state(name):
    data = _q1_data() if name == "q1" else data_by_selector(name)
    machine, model = build_representation(data), data.model
    rng = random.Random(5)
    elems = [model.identity(), *model.generators.values(), *(model.random_element(rng) for _ in range(6))]
    elems += elems[::2]
    got = []
    for i, g in enumerate(elems):
        # either of the two may be the first to meet an element
        auts = [machine.automorphism_of(g)] if i % 2 else []
        state = machine.state_of(g)
        auts.append(machine.automorphism_of(g))
        for a in auts:
            assert a.machine is machine
            assert a.word == (GroupWord.identity() if state == "e" else GroupWord.gen(state))
        got.append(state)
    assert got == STATE_NAMES[name]


def test_words_over_undeclared_names_are_errors():
    # a row (root_perm) and an element (cache_key) are read only for states
    machine = build_representation(z_data())
    for word in (GroupWord.gen("zz"), GroupWord.gen("a") * GroupWord.gen("zz").inverse()):
        with pytest.raises(ValueError, match="^undeclared state: 'zz'$"):
            root_perm(machine, word)
        with pytest.raises(ValueError, match="^undeclared state: 'zz'$"):
            machine.element_of(word)


def test_direct_power_machine_matches_chain():
    machine = build_representation(zomega_data(5))
    assert_entry(machine, "a1", ["e", "a1", "e"], Perm((1, 0, 2)))
    for i in range(2, 6):
        assert_entry(machine, f"a{i}", [f"a{i}", f"a{i}", f"a{i - 1}"], Perm.identity(3))


def test_direct_power_degree_and_orbits():
    data = zomega_data(3)
    assert data.degree == 3
    assert orbit_type(build_representation(data)) == (2, 1)


def test_sequence_model_basics():
    model = SequenceModel(z_data().model, 3)
    assert model.identity() == ()
    assert model.multiply((2, 5), (-2, -5)) == ()
    assert model.shift((7,)) == ()
    assert model.shift((1, 4)) == (4,)
    lifted = zomega_data(3).endos[0]
    assert lifted.contains((2, 5))
    assert not lifted.contains((1, 5))


def test_prop31_engine_reproduces_displayed_generators():
    machine = build_representation(prop31_endos(2, 2))
    assert_entry(machine, "g1", ["g2", "e", "g1", "a1"], Perm.identity(4))
    assert_entry(machine, "g2", ["g1", "e", "g2", "e"], Perm.identity(4))
    assert_entry(machine, "a1", ["e", "a1", "a2", "e"], Perm((1, 0, 2, 3)))
    assert_entry(machine, "a2", ["a2", "a2", "a1", "e"], Perm.identity(4))


def test_engine_agrees_with_mealy_table_for_zwrz():
    engine = build_representation(zwrz_data())
    table = mealy.builtin_machine("diagram1")
    pairs = (("g1", "g"), ("a1", "a"))
    for eng_name, tab_name in pairs:
        assert equal_to_depth(
            engine.automorphism(eng_name), table.automorphism(tab_name), 9
        )


def test_homomorphism_at_tree_level():
    machine = build_representation(zwrz_data())
    model = machine.model
    rng = random.Random(5)
    for _ in range(60):
        g = model.random_element(rng)
        h = model.random_element(rng)
        lhs = machine.automorphism_of(g) * machine.automorphism_of(h)
        rhs = machine.automorphism_of(model.multiply(g, h))
        assert equal_to_depth(lhs, rhs, 8)


def test_root_perms_preserve_orbit_blocks():
    data = prop31_endos(2, 2)
    machine = build_representation(data)
    rng = random.Random(9)
    blocks = []
    offset = 0
    for endo in data.endos:
        blocks.append(range(offset, offset + endo.index))
        offset += endo.index
    for _ in range(100):
        g = data.model.random_element(rng)
        p = machine.automorphism_of(g).root_perm()
        for block in blocks:
            for y in block:
                assert p(y) in block


def test_oracle_inconsistency_is_an_error():
    model = z_data().model
    broken = VirtualEndo(
        model,
        contains=lambda n: n % 2 == 0,
        image=lambda n: n // 2,
        transversal=(0, 1),
        coset_index=lambda n: 0,  # wrong on odd cosets
    )
    data = GData(model, [broken])
    with pytest.raises(ValueError):
        build_representation(data).entry("a")
    # passes read the compiled rows, and compiling a row checks every value
    with pytest.raises(ValueError):
        find_moving_string(build_representation(data).automorphism("a"), 3)
    with pytest.raises(ValueError):
        states(build_representation(data).automorphism("a"), 10, 1)
    # a root permutation alone runs schreier on every letter: an oracle wrong
    # only on the element 2, which the second letter of a meets (t_1 a = 2),
    # is caught at depth 1 too, where no row is compiled
    wrong_at_two = VirtualEndo(
        model,
        contains=lambda n: n % 2 == 0,
        image=lambda n: n // 2,
        transversal=(0, 1),
        coset_index=lambda n: 1 if n == 2 else n % 2,
    )
    for endo in (broken, wrong_at_two):
        data = GData(model, [endo])
        a = GroupWord.gen("a")
        with pytest.raises(ValueError, match="^coset oracle inconsistency"):
            root_perm(build_representation(data), a)
        with pytest.raises(ValueError, match="^coset oracle inconsistency"):
            trivial_to_depth(build_representation(data), a, 1)
        with pytest.raises(ValueError, match="^coset oracle inconsistency"):
            find_moving_string(Automorphism(build_representation(data), a), 1)


# -- wreath product by a regular group --------------------------------------


def test_wreath_by_regular_degree_four():
    data = zwrz_wr_c2_data()
    assert data.degree == 4
    machine = build_representation(data)
    assert set(machine.generators) == {"g1", "a1", "s"}


def test_wreath_by_regular_matches_diagram3():
    engine = build_representation(zwrz_wr_c2_data())
    table = mealy.builtin_machine("diagram3")
    for eng_name, tab_name in (("s", "s"), ("a1", "a"), ("g1", "g")):
        assert equal_to_depth(
            engine.automorphism(eng_name), table.automorphism(tab_name), 8
        )


def test_wreath_by_regular_validates_group():
    data = zwrz_data()
    with pytest.raises(ValueError):
        wreath_by_regular_data(data, [Perm((1, 0)), Perm.identity(2)])
    with pytest.raises(ValueError):
        wreath_by_regular_data(data, [Perm.identity(3), Perm((1, 0, 2))])
    with pytest.raises(ValueError):
        wreath_by_regular_data(data, [Perm.identity(2), Perm((0, 1))])


# S3 acting on itself by right multiplication, identity first
_S3 = list(itertools.permutations(range(3)))
_S3_REGULAR = [Perm(_S3.index(tuple(g[i] for i in x)) for x in _S3) for g in _S3]

# the order-2 group of zwrz-wr-c2, the rotations of 3 points, and S3, whose
# tops do not commute
REGULAR_WREATHS = {
    "zwrz-wr-c2": zwrz_wr_c2_data,
    "C3": lambda: wreath_by_regular_data(
        _z_orbits(3), [Perm.identity(3), Perm((1, 2, 0)), Perm((2, 0, 1))]
    ),
    "S3": lambda: wreath_by_regular_data(_z_orbits(6), _S3_REGULAR),
}


@pytest.mark.parametrize("name", sorted(REGULAR_WREATHS))
def test_tuple_k_tops_match_the_perm_product_formula(name):
    model = REGULAR_WREATHS[name]().model
    index = {p: i for i, p in enumerate(model.perms)}

    def multiply(a, b):  # the formula the top table replaced
        (ga, ka), (gb, kb) = a, b
        p = model.perms[ka]
        base = tuple(model.inner.multiply(ga[r], gb[p(r)]) for r in range(model.s))
        return (base, index[p * model.perms[kb]])

    def invert(a):
        g, k = a
        q = model.perms[k].inverse()
        return (tuple(model.inner.invert(g[q(r)]) for r in range(model.s)), index[q])

    rng = random.Random(f"tuple-k/{name}")
    elements = [model.random_element(rng) for _ in range(60)]
    elements += [(model.random_element(rng)[0], k) for k in range(len(model.perms))]
    elements += list(model.generators.values())
    for ka in range(len(model.perms)):  # every pair of tops
        for kb in range(len(model.perms)):
            a = (model.random_element(rng)[0], ka)
            b = (model.random_element(rng)[0], kb)
            assert model.multiply(a, b) == multiply(a, b)
    for a in elements:
        assert model.invert(a) == invert(a)
        for b in rng.sample(elements, 10):
            assert model.multiply(a, b) == multiply(a, b)


def test_wreath_identity_element_has_trivial_action():
    data = zwrz_wr_c2_data()
    machine = build_representation(data)
    ident = machine.automorphism_of(data.model.identity())
    assert ident.root_perm().is_identity()
    assert trivial_to_depth(machine, ident.word, 10)


# -- lamp extension ----------------------------------------------------------


def test_lamp_extension_degree_and_orbit_type():
    data = lamplighter_extension_data((2,))
    assert data.degree == 5
    assert orbit_type(build_representation(data)) == (4, 1)


def test_lamp_extension_identity_coset():
    data = lamplighter_extension_data((2,))
    endo = data.endos[0]
    assert endo.coset_index(data.model.identity()) == 0


def test_lamp_extension_transversal_decomposition():
    data = lamplighter_extension_data((2,))
    model, endo = data.model, data.endos[0]
    rng = random.Random(17)
    for _ in range(500):
        g = model.random_element(rng)
        j = endo.coset_index(g)
        rep = endo.transversal[j]
        assert endo.contains(model.multiply(g, model.invert(rep)))
    for j, rep in enumerate(endo.transversal):
        assert endo.coset_index(rep) == j
        assert endo.contains(rep) == (j == 0)


def test_enumerate_abelian_order():
    assert enumerate_abelian((2, 3)) == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    assert enumerate_abelian(()) == [()]


def test_lamp_extension_requires_orbit_sizes_at_least_two():
    with pytest.raises(ValueError):
        lamp_extension_data((2,), zwrz_data(), [z_coset_space(), z_coset_space()])


def test_lamp_extension_requires_onto_coset_map():
    space = z_coset_space()
    off = CosetSpace(
        label=space.label,
        translate=space.translate,
        identity_label=space.identity_label,
        lambda_image=space.lambda_image,
        lambda_surjective=False,
    )
    with pytest.raises(ValueError):
        lamp_extension_data((2,), z_data(), [off])


def test_lamp_extension_coset_map_examples():
    space = z_coset_space()
    assert space.lambda_image(6) == 3
    assert space.lambda_image(-4) == -2
    assert space.lambda_image(3) is None
    assert space.translate(space.label(5), -5) == space.identity_label


def test_coset_space_translation_invariant():
    space = z_coset_space()
    model = z_data().model
    rng = random.Random(13)
    for _ in range(300):
        x = model.random_element(rng)
        g = model.random_element(rng)
        assert space.translate(space.label(x), g) == space.label(model.multiply(x, g))
    assert space.label(model.identity()) == space.identity_label


# -- witness checks ----------------------------------------------------------


def test_fcore_witnesses_zwrz():
    machine = build_representation(zwrz_data())
    entries = fcore_witness_check(machine, 100, 20, random.Random(23))
    assert len(entries) == 100
    assert all(w is not None and machine.automorphism_of(g).apply(w) != w for g, w in entries)


def test_concatenated_endos_fix_the_identity():
    data = data_by_selector("concat:lamplighter:B=2+zl-wr-zd:l=1,d=1")
    ident = data.model.identity()
    for endo in data.endos:
        assert endo.contains(ident)
        assert data.model.is_identity(endo.image(ident))


def test_fcore_witness_skips_identity_samples():
    machine = build_representation(z_data())
    entries = fcore_witness_check(machine, 25, 16, random.Random(4))
    assert all(not machine.model.is_identity(g) for g, _ in entries)
    assert all(w is not None and machine.automorphism_of(g).apply(w) != w for g, w in entries)


def test_norm_support_and_total():
    model = WreathModel(1, (3,), 1)
    assert model.mods == (0, 3)  # a free integer slot, then a residue slot mod 3
    # entries that cancel at a point are dropped, and so is a lone zero entry
    assert model.norm_base([((0,), (2, 1)), ((0,), (-2, 2)), ((1,), (0, 0))]) == ()
    # a free-slot sum is not reduced, a residue sum is
    assert model.norm_base([((0,), (2, 2)), ((0,), (5, 2))]) == (((0,), (7, 1)),)
    assert model.coeff_total(((((0,), (4, 2)), ((1,), (3, 2))), (0,))) == (7, 1)
    assert model.coeff_total(model.identity()) == (0, 0)
    # points are sorted in their natural order
    entries = [((10,), (1, 0)), ((9,), (1, 0)), ((2,), (0, 1))]
    assert [p for p, _ in model.norm_base(entries)] == [(2,), (9,), (10,)]


def _reference_ball(machine):
    """The whole radius-SEARCH_LEN generator ball, element -> word, built in
    one pass: the reference that ``short_word``'s lazily grown spheres must
    match."""
    model = machine.model
    ball = {model.identity(): GroupWord.identity()}
    frontier = [model.identity()]
    gens = [(name, machine.element_of(GroupWord.gen(name))) for name in machine.generators]
    for _ in range(SEARCH_LEN):
        new = []
        for x in frontier:
            for name, g in gens:
                for sign in (1, -1):
                    nxt = model.multiply(x, g if sign > 0 else model.invert(g))
                    if nxt not in ball:
                        ball[nxt] = ball[x] * GroupWord.gen(name, sign)
                        new.append(nxt)
        frontier = new
    return ball


SHORT_WORD_DATA = {**ALL_DATA, "concat-lamp-zwrz": lambda: data_by_selector("concat:lamplighter:B=2+zwrz")}


@pytest.mark.parametrize("name", sorted(SHORT_WORD_DATA))
def test_short_word_matches_the_whole_ball(name):
    machine = build_representation(SHORT_WORD_DATA[name]())
    model = machine.model
    ball = _reference_ball(machine)

    def check(elem):
        got, want = machine.short_word(elem), ball.get(elem)
        assert got == want and str(got) == str(want)
        return want is not None

    # on a fresh machine a generator is found in sphere 1, so only radius 1 is built
    assert check(machine.element_of(GroupWord.gen(machine.generators[0])))
    assert machine._radius == 1
    for elem in ball:
        check(elem)
    # random model elements and products of up to SEARCH_LEN + 2 generator
    # letters sample both sides of the radius
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    letters = [(gen, sign) for gen in machine.generators for sign in (1, -1)]
    samples = [model.random_element(rng) for _ in range(300)]
    for _ in range(200):
        word = GroupWord(rng.choice(letters) for _ in range(rng.randint(0, SEARCH_LEN + 2)))
        samples.append(machine.element_of(word))
    found = sum(check(elem) for elem in samples)
    assert 0 < found < len(samples)
    # and the grown levels still give the same words
    for elem in ball:
        check(elem)


def test_short_word_grows_no_sphere_past_the_ball_bound():
    # with n generators, sphere 2 may hold 2n times the 2n words of sphere 1
    for n, word in ((100, "a1 a2"), (200, None)):
        assert (1 + 2 * n + (2 * n) ** 2 > MAX_BALL) is (word is None)
        machine = build_representation(zomega_data(n))
        got = machine.short_word(machine.element_of(parse_word("a1 a2")))
        assert (got and str(got)) == word
        assert machine._radius == (2 if word else 1)


INFLATE_DATA = {
    "lamplighter-3": lambda: lamplighter_data((3,)),
    "zwrz-wr-c2": zwrz_wr_c2_data,
    "lamplighter-2-3": lambda: data_by_selector("lamplighter:B=2,3"),
}


@pytest.mark.parametrize("name", sorted(INFLATE_DATA))
def test_inflated_engine_acts_on_blocks(name):
    # engine sections name states q1, q2, .. that are not generators, so the
    # inflated table must close over them
    machine = build_representation(INFLATE_DATA[name]())
    m, k = machine.alphabet_size, 2
    blocked = inflate(machine, k)
    assert set(machine.generators) < set(blocked.generators)

    def unblock(blocks):
        return tuple(b // m ** (k - 1 - i) % m for b in blocks for i in range(k))

    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    letters = [(gen, sign) for gen in machine.generators for sign in (1, -1)]
    for _ in range(300):
        word = GroupWord(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        blocks = tuple(rng.randrange(m**k) for _ in range(rng.randint(1, 3)))
        assert unblock(apply_word(blocked, word, blocks)) == apply_word(machine, word, unblock(blocks))
