import math
import random
import zlib

import pytest

from selfsim import mealy
from selfsim.gdata_engine import ExtensionModel, build_representation
from selfsim.tree_core import equal_to_depth
from selfsim.wreath_models import (
    WreathModel,
    brunner_sidki_pair,
    data_by_selector,
    decompose,
    fibonacci_states,
    lamplighter_data,
    lamplighter_extension_data,
    poly_mul,
    prop31_endos,
    recompose,
    mixed_base_data,
    cp_wr_z2_data,
    thmD_transversal_comparison,
    z_data,
    zomega_data,
    zwrz_wr_c2_data,
)

ALL_DATA = {
    "z": z_data,
    "zomega": lambda: zomega_data(3),
    "zwrz": lambda: prop31_endos(1, 1),
    "z2-wr-z2": lambda: prop31_endos(2, 2),
    "c2-wr-z2": lambda: cp_wr_z2_data(2),
    "c3-wr-z2": lambda: cp_wr_z2_data(3),
    "zwrz-wr-c2": zwrz_wr_c2_data,
    "lamplighter": lambda: lamplighter_data((2,)),
    "lamp-ext": lambda: lamplighter_extension_data((2,)),
    "mixed-base": lambda: mixed_base_data((2,), 1),
}


def _reference_norm(support, model):
    """A support renormalised by reducing every coefficient, lone or not, and
    dropping zeros; points in the carrier's order (repr for ExtensionModel)."""
    acc = {}
    for point, coeff in support:
        prev = acc.get(point, (0,) * len(model.mods))
        acc[point] = tuple(
            x + y if k == 0 else (x + y) % k for x, y, k in zip(prev, coeff, model.mods)
        )
    items = [kv for kv in acc.items() if any(kv[1])]
    if isinstance(model, ExtensionModel):
        return tuple(sorted(items, key=lambda kv: repr(kv[0])))
    return tuple(sorted(items))


@pytest.mark.parametrize("name", sorted(ALL_DATA))
def test_group_axioms_randomized(name):
    data = ALL_DATA[name]()
    model = data.model
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    e = model.identity()
    assert model.is_identity(e)
    for _ in range(300):
        a = model.random_element(rng)
        b = model.random_element(rng)
        c = model.random_element(rng)
        assert model.multiply(model.multiply(a, b), c) == model.multiply(a, model.multiply(b, c))
        assert model.multiply(a, e) == a and model.multiply(e, a) == a
        assert model.is_identity(model.multiply(a, model.invert(a)))
        assert model.is_identity(model.multiply(model.invert(a), a))
        if hasattr(model, "mods"):
            for g in (model.multiply(a, b), model.invert(a)):
                assert g[0] == _reference_norm(g[0], model)


def _subgroup_samples(model, endo, rng, want):
    out = []
    tries = 0
    while len(out) < want and tries < want * 80:
        tries += 1
        g = model.random_element(rng)
        if endo.contains(g):
            out.append(g)
    assert len(out) == want, "subgroup sampler starved"
    return out


@pytest.mark.parametrize("name", sorted(ALL_DATA))
def test_endomorphisms_are_homomorphisms(name):
    data = ALL_DATA[name]()
    model = data.model
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFF)
    for endo in data.endos:
        xs = _subgroup_samples(model, endo, rng, 60)
        ys = _subgroup_samples(model, endo, rng, 60)
        for x, y in zip(xs, ys):
            assert endo.image(model.multiply(x, y)) == model.multiply(
                endo.image(x), endo.image(y)
            )


@pytest.mark.parametrize("name", sorted(ALL_DATA))
def test_transversal_and_coset_invariants(name):
    data = ALL_DATA[name]()
    model = data.model
    rng = random.Random(zlib.crc32(name.encode()) & 0xFF)
    for endo in data.endos:
        for j, t in enumerate(endo.transversal):
            assert endo.coset_index(t) == j
            assert endo.contains(t) == (j == 0)
        for _ in range(80):
            g = model.random_element(rng)
            h = _subgroup_samples(model, endo, rng, 1)[0]
            assert endo.coset_index(model.multiply(h, g)) == endo.coset_index(g)


# -- wreath elements ---------------------------------------------------------


def test_wreath_multiply_examples():
    model = WreathModel(1, (), 1)
    a = model.base_generator(0)
    x = model.top_generator(0)
    u = model.multiply(a, x)
    assert model.multiply(u, model.identity()) == u
    # conjugation by the top shifts the lamp: x^-1 a x is supported at +1
    conj = model.multiply(model.multiply(model.invert(x), a), x)
    assert conj == ((((1,), (1,)),), (0,))
    # lamps at different positions commute
    assert model.multiply(a, conj) == model.multiply(conj, a)


def test_wreath_associativity_randomized():
    model = WreathModel(2, (3,), 2)
    rng = random.Random(31)
    for _ in range(200):
        a, b, c = (model.random_element(rng) for _ in range(3))
        assert model.multiply(model.multiply(a, b), c) == model.multiply(a, model.multiply(b, c))


def test_combine_requires_matching_top_groups():
    with pytest.raises(ValueError):
        WreathModel.combine(WreathModel(1, (), 1), WreathModel(1, (), 2))


# -- the Z^l wr Z^d endomorphisms --------------------------------------------


def conj_power(model, g, top_coord, n):
    """g conjugated by the n-th power of a top generator."""
    t = model.power(model.top_generator(top_coord), n)
    return model.conjugate(g, t)


def test_prop31_f1_even_odd_rule():
    data = prop31_endos(2, 2)
    model = data.model
    f1 = data.endos[0]
    a1, a2 = model.base_generator(0), model.base_generator(1)
    # even power of the first variable halves and shifts the base index down
    assert f1.image(conj_power(model, a2, 0, 4)) == conj_power(model, a1, 0, 2)
    # odd powers vanish
    assert model.is_identity(f1.image(conj_power(model, a1, 0, 3)))
    # the first base generator wraps to the last
    assert f1.image(a1) == a2


def test_prop31_f2_rotates_variables():
    data = prop31_endos(1, 2)
    model = data.model
    f2 = data.endos[1]
    a1 = model.base_generator(0)
    lamp = model.conjugate(a1, model.multiply(model.power(model.top_generator(0), 2), model.top_generator(1)))
    rotated = f2.image(lamp)
    assert rotated == model.conjugate(
        a1, model.multiply(model.top_generator(0), model.power(model.top_generator(1), 2))
    )
    assert f2.image(model.top_generator(0)) == model.top_generator(1)


def test_prop31_f3_total_exponent():
    data = prop31_endos(2, 2)
    model = data.model
    f3 = data.endos[2]
    a1 = model.base_generator(0)
    spread = model.multiply(model.conjugate(a1, model.top_generator(0)), model.conjugate(a1, model.top_generator(1)))
    assert f3.image(spread) == model.power(model.top_generator(0), 2)
    assert model.is_identity(f3.image(model.base_generator(1)))
    assert model.is_identity(f3.image(model.top_generator(1)))


def test_prop31_d1_has_two_orbits():
    assert prop31_endos(1, 1).orbit_sizes == (2, 1)
    assert prop31_endos(3, 1).orbit_sizes == (2, 1)
    assert prop31_endos(1, 2).orbit_sizes == (2, 1, 1)


# -- Laurent decomposition ----------------------------------------------------


def test_decompose_examples():
    assert decompose({}, 5) == ({}, {}, {})
    assert decompose({(1, 0): 1, (0, 0): -1}, 5) == ({(0, 0): 1}, {}, {})
    P, Q, R = decompose({(1, 1): 1, (0, 0): -1}, 5)
    assert P == {(0, 0): 1} and Q == {(0, 0): 1} and R == {(0, 0): 1}


def test_decompose_rejects_non_ideal():
    with pytest.raises(ValueError):
        decompose({(0, 0): 1}, 3)


def _random_ideal_element(rng, p):
    out = {}
    for _ in range(rng.randint(1, 6)):
        c = rng.randrange(1, p)
        m1 = (rng.randint(-4, 4), rng.randint(-4, 4))
        m2 = (rng.randint(-4, 4), rng.randint(-4, 4))
        out[m1] = out.get(m1, 0) + c
        out[m2] = out.get(m2, 0) - c
    return {k: v % p for k, v in out.items() if v % p}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_decompose_recompose_identity(p):
    rng = random.Random(100 + p)
    for _ in range(500):
        s = _random_ideal_element(rng, p)
        P, Q, R = decompose(s, p)
        assert recompose(P, Q, R, p) == s
        # uniqueness of the shape: P depends on x only, Q on y only
        assert all(n == 0 for (_, n) in P)
        assert all(m == 0 for (m, _) in Q)


def test_poly_mul_commutes():
    a = {(1, 0): 1, (0, 1): 2}
    b = {(0, 0): 1, (1, 1): 2}
    assert poly_mul(a, b, 3) == poly_mul(b, a, 3)


# -- C_p wr Z^2 ---------------------------------------------------------------


def test_prime_wreath_f1_examples():
    data = cp_wr_z2_data(2)
    model = data.model
    f1 = data.endos[0]
    lamp = model.base_generator(0)
    # base exponent xy - 1 maps to the bare lamp
    elem = (((((0, 0), (1,))), ((1, 1), (1,))), (0, 0))
    assert f1.contains(elem) is True
    assert f1.image(elem) == lamp


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_wreath_f1_keeps_the_q_part_of_decompose(p):
    data = cp_wr_z2_data(p)
    model, f1 = data.model, data.endos[0]
    rng = random.Random(f"f1/{p}")
    nonzero = 0
    for _ in range(300):
        g = model.random_element(rng)
        h = model.multiply(g, model.invert(f1.transversal[f1.coset_index(g)]))
        assert f1.contains(h)
        base, top = f1.image(h)
        _, Q, _ = decompose({vec: c for vec, (c,) in h[0]}, p)
        assert {vec: c for vec, (c,) in base} == Q and top == (0, h[1][1])
        nonzero += bool(Q)
    assert nonzero > 100


def test_prime_wreath_f2_example():
    data = cp_wr_z2_data(3)
    model = data.model
    f2 = data.endos[1]
    lamp, y, x = model.generators["s"], model.generators["a"], model.generators["b"]
    # a^x x  |->  a^y y
    src = model.multiply(model.conjugate(lamp, x), x)
    dst = model.multiply(model.conjugate(lamp, y), y)
    assert f2.image(src) == dst


def test_prime_wreath_membership_counts_total_exponent():
    data = cp_wr_z2_data(3)
    model = data.model
    f1 = data.endos[0]
    lamp = model.base_generator(0)
    assert not f1.contains(lamp)
    assert f1.contains(model.power(lamp, 3))
    spread = model.multiply(lamp, model.invert(model.conjugate(lamp, model.generators["b"])))
    assert f1.contains(spread)


def test_prime_wreath_orbit_sizes():
    assert cp_wr_z2_data(2).orbit_sizes == (2, 1)
    assert cp_wr_z2_data(5).orbit_sizes == (5, 1)


def test_prime_wreath_engine_matches_table_for_p2():
    report = thmD_transversal_comparison(2, 12)
    assert report == {"standard": True, "inverse": True}


def test_prime_wreath_engine_matches_table_for_p3_standard_only():
    report = thmD_transversal_comparison(3, 8)
    assert report == {"standard": True, "inverse": False}


def test_fibonacci_state_words():
    elems = fibonacci_states(2, 4)
    assert [str(e.word) for e in elems] == ["a", "a b", "a a b", "a a a b b"]
    elems = fibonacci_states(3, 2)
    assert [str(e.word) for e in elems] == ["a", "a b"]


# -- lamp data carriers --------------------------------------------------------


def test_lamplighter_carriers_agree():
    wreath = build_representation(lamplighter_data((2,)))
    ext = build_representation(lamplighter_extension_data((2,)))
    for name in ("b", "z"):
        assert equal_to_depth(wreath.automorphism(name), ext.automorphism(name), 8)


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2), (2, 3), (5,)])
def test_lamplighter_carriers_have_identical_closures(orders):
    # both carriers must compile to the same automaton, state for state
    wreath = mealy.machine_to_mealy(build_representation(lamplighter_data(orders)))
    ext = mealy.machine_to_mealy(build_representation(lamplighter_extension_data(orders)))
    assert mealy.emit(wreath) == mealy.emit(ext)


def _reference_lamp_endo(model, orders):
    """The contracting lamp endomorphism on ``WreathModel(0, orders, 1)``,
    written out by hand as a reference for ``gdata_engine.lamp_data``: the
    letter of an element counts its lamp total slowest (first coordinate
    fastest), then the parity of its top."""
    radix = [math.prod(orders[:i]) for i in range(len(orders))]

    def contains(g):
        return not any(model.coeff_total(g)) and g[1][0] % 2 == 0

    def chi1(g):
        base, top = g
        entries = [((vec[0] // 2,), coeff) for vec, coeff in base if vec[0] % 2 == 0]
        return (model.norm_base(entries), (top[0] // 2,))

    def coset_index(g):
        lamp = sum(c * r for c, r in zip(model.coeff_total(g), radix))
        return 2 * lamp + g[1][0] % 2

    transversal = []
    for letter in range(2 * math.prod(orders)):
        lamp, parity = divmod(letter, 2)
        b = tuple(lamp // r % k for r, k in zip(radix, orders))
        transversal.append(((((0,), b),) if any(b) else (), (parity,)))
    return contains, chi1, coset_index, transversal


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 3), (2, 2)])
def test_lamp_builder_matches_hand_written_reference(orders):
    # both carriers run the same builder, so the carrier tests cannot see a fault in it
    endo = lamplighter_data(orders).endos[0]
    model = endo.model
    contains, chi1, coset_index, transversal = _reference_lamp_endo(model, orders)
    assert endo.transversal == tuple(transversal)
    rng = random.Random(zlib.crc32(repr(orders).encode()))
    for _ in range(200):
        g = model.random_element(rng)
        h = model.multiply(g, model.invert(transversal[coset_index(g)]))
        assert contains(h)
        for x in (g, h):
            assert endo.coset_index(x) == coset_index(x)
            assert endo.contains(x) == contains(x)
            assert endo.image(x) == chi1(x)


def test_lamplighter_multiple_torsion_orders():
    data = lamplighter_data((2, 3))
    assert data.degree == 13  # 6 lamps * 2 + 1
    machine = build_representation(data)
    assert set(machine.generators) == {"b1", "b2", "z"}


def test_mixed_base_degree_and_generators():
    data = mixed_base_data((2,), 1)
    assert data.degree == 8
    machine = build_representation(data)
    assert set(machine.generators) == {"b", "z", "g1"}


def test_brunner_sidki_alias():
    assert brunner_sidki_pair() == mealy.brunner_sidki_pair()


# -- selectors -----------------------------------------------------------------


def test_selectors_resolve():
    cases = {
        "z": 2,
        "zomega": 3,
        "zl-wr-zd:l=2,d=2": 4,
        "cp-wr-z2:p=2": 3,
        "zwrz": 3,
        "zwrz-wr-c2": 4,
        "lamplighter:B=2": 5,
        "concat:lamplighter:B=2+zwrz": 8,
    }
    for selector, degree in cases.items():
        assert data_by_selector(selector).degree == degree


def test_selector_errors():
    with pytest.raises(ValueError):
        data_by_selector("nonesuch")
    with pytest.raises(ValueError):
        data_by_selector("lamplighter:orders=2")
    with pytest.raises(ValueError):
        data_by_selector("concat:z+zwrz")
    with pytest.raises(ValueError):
        data_by_selector("concat:lamplighter:B=2+zl-wr-zd:l=1,d=2")
    # a missing, unknown or repeated key, or a power with no named copies
    for selector in (
        "cp-wr-z2",
        "zl-wr-zd:l=1",
        "zl-wr-zd:l=1,d=1,x=3",
        "zl-wr-zd:l=1,d=1,l=2",
        "z:junk",
        "zwrz:n=2",
        "zomega:n=0",
        "zomega:n=-1",
    ):
        with pytest.raises(ValueError):
            data_by_selector(selector)
