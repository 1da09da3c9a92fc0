"""Cross-construction checks: padded orbits, two-coordinate lamp extensions,
witness sweeps, and the module-level relation invariants of the built-ins."""

import random

import pytest

from selfsim import mealy
from selfsim.gdata_engine import (
    GData,
    VirtualEndo,
    build_representation,
    fcore_witness_check,
    lamp_extension_data,
    wreath_by_regular_data,
)
from selfsim.perm_word import GroupWord, Perm, commutator
from selfsim.tree_core import (
    TableMachine,
    equal_to_depth,
    find_moving_string,
    orbit_type,
    portrait,
    section_word,
    states,
    trivial_to_depth,
)
from selfsim.wreath_models import (
    WreathModel,
    _divide_linear,
    concatenate,
    cp_wr_z2_data,
    data_by_selector,
    fibonacci_states,
    lamplighter_data,
    lamplighter_extension_data,
    prop31_endos,
    z_coset_space,
    z_data,
    zomega_data,
    zwrz_data,
    zwrz_wr_c2_data,
)


def _padded_z_data() -> GData:
    """Index-2 data on Z padded with a full-group orbit, of orbit type (2, 1)."""
    base = z_data()
    model = base.model
    pad = VirtualEndo(model, lambda n: True, lambda n: n, (0,), lambda n: 0)
    return GData(model, [base.endos[0], pad])


def test_z_wr_c2_has_degree_four():
    data = wreath_by_regular_data(_padded_z_data(), [Perm.identity(2), Perm((1, 0))])
    assert data.degree == 4
    machine = build_representation(data)
    a, s = GroupWord.gen("a"), GroupWord.gen("s")
    assert trivial_to_depth(machine, s**2, 10)
    assert trivial_to_depth(machine, commutator(a, a.conjugate_by(s)), 10)
    assert not trivial_to_depth(machine, a, 10)


def test_prime_wreath_witnesses():
    machine = build_representation(cp_wr_z2_data(2))
    entries = fcore_witness_check(machine, 100, 20, random.Random(41))
    assert len(entries) == 100
    assert all(w is not None and machine.automorphism_of(g).apply(w) != w for g, w in entries)


def test_prime_wreath_engine_machine_is_not_finite_state():
    machine = build_representation(cp_wr_z2_data(2))
    closure = states(machine.automorphism("a"), 64, 12)
    assert closure.truncated


def test_level_two_pair_base_commutation():
    machine = mealy.builtin_machine("brunner_sidki")
    at, a = GroupWord.gen("at"), GroupWord.gen("a")
    for k in (1, 2, 3):
        assert trivial_to_depth(machine, commutator(at, at.conjugate_by(a**k)), 10)
    assert not trivial_to_depth(machine, commutator(at, a), 10)


def test_diagram3_relation_invariants():
    machine = mealy.builtin_machine("diagram3")
    s, g = GroupWord.gen("s"), GroupWord.gen("g")
    assert trivial_to_depth(machine, s**2, 12)
    assert trivial_to_depth(machine, commutator(g, g.conjugate_by(s)), 10)


def test_two_coordinate_lamp_extension():
    # two copies of the halving data; the rotation map permutes the coordinates
    data = lamp_extension_data((2,), _two_orbit_z(), [z_coset_space(), z_coset_space()])
    model = data.model
    rng = random.Random(6)
    for _ in range(300):
        x, y, z = (model.random_element(rng) for _ in range(3))
        assert model.multiply(model.multiply(x, y), z) == model.multiply(x, model.multiply(y, z))
        assert model.is_identity(model.multiply(x, model.invert(x)))
    machine = build_representation(data)
    # the entries pin coset_product's letter order: lamp total slowest, then
    # the coset of the first coordinate fastest
    entries = []
    for name in machine.generators:
        sections, perm = machine.entry(name)
        entries.append(" ".join([name, str(perm), *map(str, sections)]))
    assert entries == [
        "b (0 4)(1 5)(2 6)(3 7) e b b b e b b b b",
        "z1a (0 1)(2 3)(4 5)(6 7) e z1a e z1a e q1 e q1 z2a",
        "z2a (0 2)(1 3)(4 6)(5 7) e e z2a z2a e e q2 q2 z1a",
    ]
    assert orbit_type(machine) == (8, 1)
    for _ in range(25):
        g = model.random_element(rng)
        h = model.random_element(rng)
        lhs = machine.automorphism_of(g) * machine.automorphism_of(h)
        assert equal_to_depth(lhs, machine.automorphism_of(model.multiply(g, h)), 5)
    entries = fcore_witness_check(machine, 30, 16, rng)
    assert all(w is not None and machine.automorphism_of(g).apply(w) != w for g, w in entries)


def _two_orbit_z() -> GData:
    base = z_data()
    return GData(base.model, [base.endos[0], base.endos[0]])


# the generators of each lamp data set, by name, element and order:
# ``lamp_data`` names them on either carrier, also ahead of a concatenation
_B = ((((0,), (1,)),), (0,))
LAMP_GENERATORS = [
    (lambda: lamplighter_data((2,)), [("b", _B), ("z", ((), (1,)))]),
    (lambda: lamplighter_data((3,)), [("b", _B), ("z", ((), (1,)))]),
    (lambda: lamplighter_data((2, 3)), [
        ("b1", ((((0,), (1, 0)),), (0,))), ("b2", ((((0,), (0, 1)),), (0,))), ("z", ((), (1,))),
    ]),
    (lambda: lamplighter_data((2, 2, 2)), [
        ("b1", ((((0,), (1, 0, 0)),), (0,))), ("b2", ((((0,), (0, 1, 0)),), (0,))),
        ("b3", ((((0,), (0, 0, 1)),), (0,))), ("z", ((), (1,))),
    ]),
    (lambda: lamplighter_extension_data((2,)), [("b", _B), ("z", ((), (1,)))]),
    (lambda: lamplighter_extension_data((3,)), [("b", _B), ("z", ((), (1,)))]),
    (lambda: lamp_extension_data((2,), _two_orbit_z(), [z_coset_space(), z_coset_space()]), [
        ("b", ((((0, 0), (1,)),), (0, 0))), ("z1a", ((), (1, 0))), ("z2a", ((), (0, 1))),
    ]),
    (lambda: lamp_extension_data((2, 3), z_data(), [z_coset_space()]), [
        ("b1", ((((0,), (1, 0)),), (0,))), ("b2", ((((0,), (0, 1)),), (0,))), ("z", ((), (1,))),
    ]),
    (lambda: data_by_selector("concat:lamplighter:B=2+zl-wr-zd:l=1,d=1"), [
        ("b", ((((0,), (0, 1)),), (0,))), ("z", ((), (1,))), ("g1", ((((0,), (1, 0)),), (0,))),
    ]),
    (lambda: data_by_selector("concat:lamplighter:B=2+zwrz"), [
        ("b", ((((0,), (0, 1)),), (0,))), ("z", ((), (1,))), ("g1", ((((0,), (1, 0)),), (0,))),
    ]),
]


@pytest.mark.parametrize("build, generators", LAMP_GENERATORS)
def test_lamp_generators_by_name_element_and_order(build, generators):
    assert list(build().model.generators.items()) == generators


@pytest.mark.parametrize(
    "build, sizes",
    [
        (z_data, (2,)),
        (lambda: zomega_data(3), (2, 1)),
        (zwrz_data, (2, 1)),
        (lambda: prop31_endos(2, 2), (2, 1, 1)),
        (lambda: cp_wr_z2_data(3), (3, 1)),
        (zwrz_wr_c2_data, (4,)),
        (lambda: lamplighter_data((2,)), (4, 1)),
        (lambda: lamplighter_extension_data((2,)), (4, 1)),
        (lambda: data_by_selector("concat:lamplighter:B=2+zl-wr-zd:l=1,d=1"), (4, 1, 2, 1)),
    ],
)
def test_representation_orbit_type_matches_data(build, sizes):
    data = build()
    assert tuple(e.index for e in data.endos) == sizes
    assert orbit_type(build_representation(data)) == sizes


def test_wreath_by_three_cycle():
    base = z_data()
    pad = VirtualEndo(base.model, lambda n: True, lambda n: n, (0,), lambda n: 0)
    padded = GData(base.model, [base.endos[0], pad, pad])
    rotations = [Perm.identity(3), Perm((1, 2, 0)), Perm((2, 0, 1))]
    data = wreath_by_regular_data(padded, rotations)
    assert data.degree == 6
    model = data.model
    rng = random.Random(12)
    for _ in range(300):
        x, y, z = (model.random_element(rng) for _ in range(3))
        assert model.multiply(model.multiply(x, y), z) == model.multiply(x, model.multiply(y, z))
        assert model.is_identity(model.multiply(x, model.invert(x)))
    machine = build_representation(data)
    for _ in range(25):
        g = model.random_element(rng)
        h = model.random_element(rng)
        lhs = machine.automorphism_of(g) * machine.automorphism_of(h)
        assert equal_to_depth(lhs, machine.automorphism_of(model.multiply(g, h)), 5)
    k1 = machine.automorphism("k1")
    assert trivial_to_depth(machine, (k1**3).word, 8)
    assert not trivial_to_depth(machine, k1.word, 8)


def test_direct_power_of_a_wreath_model():
    from selfsim.gdata_engine import direct_power_data

    data = direct_power_data(zwrz_data(), named_copies=2)
    model = data.model
    rng = random.Random(18)
    for _ in range(200):
        x, y, z = (model.random_element(rng) for _ in range(3))
        assert model.multiply(model.multiply(x, y), z) == model.multiply(x, model.multiply(y, z))
        assert model.is_identity(model.multiply(x, model.invert(x)))
    machine = build_representation(data)
    assert orbit_type(machine) == (2, 1, 1)
    for _ in range(20):
        g = model.random_element(rng)
        h = model.random_element(rng)
        lhs = machine.automorphism_of(g) * machine.automorphism_of(h)
        assert equal_to_depth(lhs, machine.automorphism_of(model.multiply(g, h)), 5)
    entries = fcore_witness_check(machine, 25, 16, rng)
    assert all(w is not None and machine.automorphism_of(g).apply(w) != w for g, w in entries)


@pytest.mark.parametrize("l,d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (2, 3)])
def test_prop31_engine_agrees_with_table(l, d):
    engine = build_representation(prop31_endos(l, d))
    table = mealy.builtin_machine(f"prop31({l},{d})")
    for name in table.generators:
        assert equal_to_depth(engine.automorphism(name), table.automorphism(name), 7)


# built-in finite-state automaton -> the data selector whose exported file it is
DATA_EXPORTS = (
    [("adding", "z")]
    + [(f"diagram2({n})", f"zomega:n={n}") for n in range(1, 9)]
    + [(f"prop31({l},{d})", f"zl-wr-zd:l={l},d={d}") for l in range(1, 6) for d in range(1, 6)]
)


def _exported(selector: str) -> TableMachine:
    return mealy.machine_to_mealy(build_representation(data_by_selector(selector)))


@pytest.mark.parametrize("builtin, selector", DATA_EXPORTS)
def test_builtin_automaton_is_its_data_export(builtin, selector):
    # two finite automata with equal rows act alike at every depth, so this
    # is exact where test_prop31_engine_agrees_with_table stops at depth 7
    assert mealy.emit(mealy.builtin_machine(builtin)) == mealy.emit(_exported(selector))


@pytest.mark.parametrize(
    "builtin, selector, renaming",
    [
        ("diagram1", "zwrz", {"g1": "g", "a1": "a"}),
        ("diagram3", "zwrz-wr-c2", {"g1": "g", "a1": "a", "q1": "as"}),
    ],
)
def test_builtin_automaton_is_its_data_export_renamed(builtin, selector, renaming):
    table, exported = mealy.builtin_machine(builtin), _exported(selector)

    def rename(name: str) -> str:  # the identity "e" and the swap "s" keep their names
        return renaming.get(name, name)

    assert sorted(map(rename, exported.generators)) == sorted(table.generators)
    for name in exported.generators:
        sections, perm = exported.entry(name)
        want_sections, want_perm = table.entry(rename(name))
        assert [rename(str(w)) for w in sections] == [str(w) for w in want_sections]
        assert perm == want_perm


def test_equal_to_depth_rejects_alphabet_mismatch():
    adding = mealy.builtin_machine("adding")
    d1 = mealy.builtin_machine("diagram1")
    with pytest.raises(ValueError):
        equal_to_depth(adding.automorphism("a"), d1.automorphism("a"), 4)


def test_section_rejects_out_of_range_letter():
    adding = mealy.builtin_machine("adding")
    with pytest.raises(ValueError):
        section_word(adding, GroupWord.gen("a"), 2)


def test_engine_rejects_undeclared_state():
    machine = build_representation(z_data())
    with pytest.raises(ValueError):
        machine.entry("zz")


def _z_orbits(s: int) -> GData:
    """s copies of the halving data on Z."""
    base = z_data()
    return GData(base.model, [base.endos[0]] * s)


_SWAPS = [Perm.identity(4), Perm((1, 0, 2, 3)), Perm((0, 1, 3, 2)), Perm((1, 0, 3, 2))]


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: GData(z_data().model, []), "group data needs at least one virtual endomorphism"),
        (lambda: wreath_by_regular_data(_z_orbits(3), [Perm.identity(3), Perm((1, 2, 0)), Perm((1, 0, 2))]),
         "the permutation list is not closed under composition"),
        # a closed group of four permutations whose swaps fix points
        (lambda: wreath_by_regular_data(_z_orbits(4), _SWAPS),
         "not regular: a non-identity element fixes a point"),
        (lambda: lamp_extension_data((2,), _z_orbits(2), [z_coset_space()]),
         "need one coset space per endomorphism"),
        (lambda: lamp_extension_data((2, 1), z_data(), [z_coset_space()]),
         "lamp group orders must all be at least 2"),
        (lambda: lamp_extension_data((), z_data(), [z_coset_space()]),
         "lamp group orders must all be at least 2"),
        (lambda: WreathModel(0, (), 1), "base group needs at least one component"),
        (lambda: WreathModel(0, (1,), 1), "torsion orders must be at least 2"),
        (lambda: WreathModel(1, (), 0), "top dimension must be at least 1"),
        (lambda: _divide_linear({(0, 0): 1}, 3, 0), "polynomial is not in the augmentation ideal"),
        (lambda: fibonacci_states(2, 1), "need n >= 2"),
        (lambda: data_by_selector("concat:zwrz"), "concat needs two selectors joined by '+'"),
        (lambda: concatenate(prop31_endos(600, 1), prop31_endos(401, 1)),
         "concatenation needs at most 1000 base slots"),
        # a name taken on both sides gains the first free suffix
        (lambda: " ".join(data_by_selector("concat:zwrz+zwrz+zwrz").model.generators), "g1 a1 g1_2 g1_3"),
        (lambda: trivial_to_depth(mealy.adding_machine(), GroupWord.gen("zz"), 1),
         "undeclared state: 'zz'"),
        # the identity is no state of an engine
        (lambda: build_representation(z_data()).entry("e"), "undeclared state: 'e'"),
        (lambda: GroupWord([("a", 2)]), "symbol sign must be +1 or -1, got 2"),
        (lambda: trivial_to_depth(mealy.adding_machine(), GroupWord.gen("a"), -1),
         "depth must be nonnegative"),
        (lambda: portrait(mealy.adding_machine().automorphism("a"), -1), "depth must be nonnegative"),
        (lambda: states(mealy.adding_machine().automorphism("a"), 0, 1), "max_states must be at least 1"),
        (lambda: find_moving_string(mealy.adding_machine().automorphism("a"), 0),
         "max_depth must be at least 1"),
        (lambda: orbit_type(TableMachine(2, {})), "orbit_type needs at least one generator"),
        (lambda: mealy.adding_machine().automorphism("a") * mealy.adding_machine().automorphism("a"),
         "cannot multiply automorphisms of different machines"),
        (lambda: TableMachine(0, {}), "alphabet size must be at least 1"),
    ],
)
def test_input_check_texts(call, text):
    try:
        got = call()
    except ValueError as exc:
        got = str(exc)
    assert got == text
