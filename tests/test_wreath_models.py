import math
import random
import zlib
from operator import neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim import mealy
from selfsim.gdata_engine import (
    CosetSpace,
    ExtensionModel,
    GData,
    VirtualEndo,
    build_representation,
    reduce_coeff,
)
from selfsim.perm_word import GroupWord
from selfsim.tree_core import Automorphism, equal_to_depth, orbit_type
from selfsim.wreath_models import (
    WreathModel,
    _divide_linear,
    _sum_out,
    concatenate,
    data_by_selector,
    decompose,
    fibonacci_states,
    lamplighter_data,
    lamplighter_extension_data,
    prop31_endos,
    cp_wr_z2_data,
    thmD,
    z_coset_space,
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
    "mixed-base": lambda: data_by_selector("concat:lamplighter:B=2+zl-wr-zd:l=1,d=1"),
}


def _reference_norm(support, model):
    """A support renormalised by reducing every coefficient, lone or not, and
    dropping zeros; points in their natural order."""
    acc = {}
    for point, coeff in support:
        prev = acc.get(point, (0,) * len(model.mods))
        acc[point] = tuple(
            x + y if k == 0 else (x + y) % k for x, y, k in zip(prev, coeff, model.mods)
        )
    return tuple(sorted(kv for kv in acc.items() if any(kv[1])))


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


def _parent_wreath_law(model):
    """``WreathModel.multiply`` and ``invert`` as written before the
    carriers' laws over ``SupportModel._merge``: a reference they must match."""

    def shift_base(base, vec):
        return [(tuple(p + v for p, v in zip(point, vec)), coeff) for point, coeff in base]

    def multiply(a, b):
        (b1, t1), (b2, t2) = a, b
        neg_t1 = tuple(-v for v in t1)
        base = model.norm_base(list(b1) + shift_base(b2, neg_t1))
        return (base, tuple(x + y for x, y in zip(t1, t2)))

    def invert(a):
        base, top = a
        shifted = shift_base(
            [(vec, reduce_coeff(map(neg, coeff), model.mods)) for vec, coeff in base], top
        )
        return (model.norm_base(shifted), tuple(-v for v in top))

    return multiply, invert


def _parent_extension_law(model):
    """``ExtensionModel.multiply`` and ``invert`` as written before the
    carriers' laws over ``SupportModel._merge``."""

    def translate_point(labs, tops):
        return tuple(c.translate(lab, g) for c, lab, g in zip(model.cosets, labs, tops))

    def multiply(a, b):
        (phi1, t1), (phi2, t2) = a, b
        t1inv = tuple(model.inner.invert(g) for g in t1)
        moved = [(translate_point(labs, t1inv), coeff) for labs, coeff in phi2]
        phi = model.norm_base(list(phi1) + moved)
        tops = tuple(model.inner.multiply(x, y) for x, y in zip(t1, t2))
        return (phi, tops)

    def invert(a):
        phi, tops = a
        moved = [
            (translate_point(labs, tops), reduce_coeff(map(neg, coeff), model.mods))
            for labs, coeff in phi
        ]
        return (model.norm_base(moved), tuple(model.inner.invert(g) for g in tops))

    return multiply, invert


# carriers of top dimension 1, 2 and 3, width 1 and 2, free and torsion
# slots, and both carrier classes: every shape the carriers' laws tell apart
LAW_CARRIERS = [
    "lamplighter", "lamp-ext", "mixed-base", "c3-wr-z2", "z2-wr-z2", "lamp-ext-s2",
    "zl-wr-zd:l=1,d=3", "zwrz", "lamplighter:B=2,3", "zl-wr-zd:l=2,d=2", "concat:lamplighter:B=2+zwrz",
]


@pytest.mark.parametrize("name", LAW_CARRIERS)
def test_shared_law_matches_parent_laws(name):
    """Each carrier's own ``multiply`` and ``invert`` against the parent laws
    on seeded random elements, on products with the identity on either side,
    and on products that cancel to an empty support."""
    if name == "lamp-ext-s2":  # the carrier of test_two_coordinate_lamp_extension
        model = ExtensionModel(z_data().model, (2,), [z_coset_space(), z_coset_space()])
    elif name not in ALL_DATA:
        model = data_by_selector(name).model
    else:
        model = ALL_DATA[name]().model
    law = _parent_extension_law if isinstance(model, ExtensionModel) else _parent_wreath_law
    multiply, invert = law(model)
    rng = random.Random(zlib.crc32(name.encode()))
    e, cancelled = model.identity(), 0
    for _ in range(300):
        a, b = model.random_element(rng), model.random_element(rng)
        assert model.multiply(a, b) == multiply(a, b)
        assert model.invert(a) == invert(a)
        assert model.multiply(a, e) == a == model.multiply(e, a)
        # the support of a^-1 under b's top cancels a's on either side
        c = (invert(a)[0], b[1])
        for x, y in ((a, c), (c, a)):
            assert model.multiply(x, y) == multiply(x, y), (x, y)
            cancelled += bool(a[0]) and not model.multiply(x, y)[0]
    assert cancelled > 50


def _zigzag(n):
    return 2 * n if n >= 0 else -2 * n - 1


# the integers labelled 0, -1, 1, -2, .. -> 0, 1, 2, 3, ..: a coset space whose
# translation does not keep the order of the labels
ZIGZAG_COSETS = CosetSpace(
    label=_zigzag,
    translate=lambda lab, g: _zigzag((lab // 2 if lab % 2 == 0 else -(lab + 1) // 2) + g),
    identity_label=0,
    lambda_image=lambda lab: None,
)


@st.composite
def _support_model_operands(draw):
    """A ``WreathModel`` with free and torsion slots or a lamp carrier, and
    two elements of it in canonical form."""
    kind = draw(st.sampled_from(["wreath", (2,), (2, 3), "zigzag"]))
    if kind == "wreath":
        torsion = draw(st.sampled_from([(), (2,), (3,), (2, 3)]))
        free = draw(st.integers(0 if torsion else 1, 2))
        model = WreathModel(free, torsion, draw(st.integers(1, 3)))
        points = tops = st.tuples(*[st.integers(-2, 2)] * model.top_dim)
    elif kind == "zigzag":
        model = ExtensionModel(z_data().model, (3,), [ZIGZAG_COSETS])
        points, tops = st.tuples(st.integers(0, 6)), st.tuples(st.integers(-3, 3))
    else:
        model = lamplighter_extension_data(kind).model
        points = tops = st.tuples(st.integers(-3, 3))
    coeffs = st.tuples(*(st.integers(-3, 3) if k == 0 else st.integers(0, k - 1) for k in model.mods))
    elements = st.tuples(st.lists(st.tuples(points, coeffs), max_size=5).map(model.norm_base), tops)
    return model, draw(elements), draw(elements)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_support_model_operands())
def test_merge_law_matches_renormalising_law(operands):
    """``SupportModel._merge``, through each carrier's law, against the law
    that renormalises every product, also with an empty support on either
    side or an identity top on the left.  A ``WreathModel`` is checked against ``_parent_wreath_law``,
    which translates and negates with its own arithmetic; a lamp carrier,
    whose coset labels only the model translates, against its own ``shift``
    with every product renormalised."""
    model, a, b = operands
    mods = model.mods

    def multiply(x, y):
        (phi1, t1), (phi2, t2) = x, y
        moved = model.shift(phi2, model.top_invert(t1))
        return (model.norm_base(list(phi1) + list(moved)), model.top_multiply(t1, t2))

    def invert(x):
        phi, tops = x
        negated = [(point, reduce_coeff(map(neg, coeff), mods)) for point, coeff in phi]
        return (model.norm_base(model.shift(negated, tops)), model.top_invert(tops))

    if isinstance(model, WreathModel):
        multiply, invert = _parent_wreath_law(model)

    for x in (a, ((), a[1]), (a[0], model.top_identity)):
        for y in (b, ((), b[1])):
            assert model.multiply(x, y) == multiply(x, y)
            assert_canonical(model.multiply(x, y))
        assert model.invert(x) == invert(x)
        assert_canonical(model.invert(x))


def assert_canonical(g):
    points = [point for point, _ in g[0]]
    assert all(p < q for p, q in zip(points, points[1:]))
    assert all(any(coeff) for _, coeff in g[0])


# (Z + C_3) wr Z^2 supports of (point, (free, mod 3)) entries, for operands
# that sit apart on either side, are adjacent, touch at one shared point whose
# coefficients sum to zero or not, or interleave
_FIXED = {
    "left": (((-2, 0), (1, 0)), ((-1, 5), (0, 2))),
    "low": (((0, 0), (1, 1)), ((0, 1), (2, 1))),
    "high": (((0, 2), (-1, 0)), ((1, 0), (0, 1))),
    "touch": (((0, 1), (3, 2)), ((1, 0), (1, 1))),
    "cancel": (((0, 1), (-2, 2)), ((1, 0), (1, 1))),
    "odd": (((0, 0), (1, 0)), ((1, 0), (0, 2))),
    "even": (((0, 1), (0, 1)), ((1, 1), (1, 0))),
    "right": (((4, 4), (2, 2)),),
}


@pytest.mark.parametrize(
    "left, right",
    [
        ("low", "high"),  # adjacent
        ("high", "low"),
        ("low", "touch"),  # (0, 1) shared: (2, 1) + (3, 2) = (5, 0)
        ("touch", "low"),
        ("low", "cancel"),  # (0, 1) shared: (2, 1) + (-2, 2) = 0
        ("cancel", "low"),
        ("odd", "even"),  # interleaved
        ("even", "odd"),
        ("left", "right"),  # apart
        ("right", "left"),
    ],
)
def test_merge_law_on_fixed_supports(left, right):
    """Operands of each kind the merge tells apart, under the identity and
    other tops on the left, against ``_parent_wreath_law``."""
    model = WreathModel(1, (3,), 2)
    multiply, invert = _parent_wreath_law(model)
    for name in (left, right):
        assert model.norm_base(_FIXED[name]) == _FIXED[name]
    for dx, dy in ((0, 0), (1, 0), (0, -1), (2, 3)):
        # the left top moves the right support by its inverse: place the
        # right support so that it lands on the fixed points
        y = (tuple(((u + dx, v + dy), c) for (u, v), c in _FIXED[right]), (1, -1))
        x = (_FIXED[left], (dx, dy))
        assert model.multiply(x, y) == multiply(x, y)
        assert_canonical(model.multiply(x, y))
        assert model.invert(x) == invert(x)


# the models of the CI model-arithmetic step, each gated on 2,000 seeded pairs
GATE_MODELS = [
    "cp-wr-z2:p=3", "zwrz", "lamplighter:B=2,3", "zl-wr-zd:l=2,d=2", "zl-wr-zd:l=1,d=3",
    "concat:lamplighter:B=2+zwrz", "zwrz-wr-c2", "zomega", "lamplighter_extension_data((2,))",
]


@pytest.mark.parametrize("name", GATE_MODELS)
def test_model_arithmetic_gate(name):
    """Inverses on 2,000 pairs drawn by ``random.Random(1)`` and associativity
    on 100 triples of them, as the model-arithmetic timing probe draws them."""
    if name == "lamplighter_extension_data((2,))":
        model = lamplighter_extension_data((2,)).model
    else:
        model = data_by_selector(name).model
    rng = random.Random(1)
    pairs = [(model.random_element(rng), model.random_element(rng)) for _ in range(2000)]
    assert all(model.is_identity(model.multiply(a, model.invert(a))) for a, _ in pairs)
    assert all(
        model.multiply(model.multiply(a, b), c) == model.multiply(a, model.multiply(b, c))
        for (a, b), (c, _) in zip(pairs[::20], pairs[1::20])
    )


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
    with pytest.raises(ValueError, match="common top group"):
        concatenate(prop31_endos(1, 1), prop31_endos(1, 2))


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
    assert orbit_type(build_representation(prop31_endos(1, 1))) == (2, 1)
    assert orbit_type(build_representation(prop31_endos(3, 1))) == (2, 1)
    assert orbit_type(build_representation(prop31_endos(1, 2))) == (2, 1, 1)


# -- Laurent decomposition ----------------------------------------------------


def test_decompose_examples():
    assert decompose({}, 5) == ({}, {}, {})
    assert decompose({(1, 0): 1, (0, 0): -1}, 5) == ({(0, 0): 1}, {}, {})
    P, Q, R = decompose({(1, 1): 1, (0, 0): -1}, 5)
    assert P == {(0, 0): 1} and Q == {(0, 0): 1} and R == {(0, 0): 1}


def test_decompose_rejects_non_ideal():
    with pytest.raises(ValueError):
        decompose({(0, 0): 1}, 3)


def recompose(P, Q, R, p):
    """P(x)(x-1) + Q(y)(y-1) + R(x,y)(x-1)(y-1) over Z/p, multiplied out term by
    term: the independent reference that ``decompose`` is checked against."""
    factors = (
        (P, ((1, 0, 1), (0, 0, -1))),
        (Q, ((0, 1, 1), (0, 0, -1))),
        (R, ((1, 1, 1), (1, 0, -1), (0, 1, -1), (0, 0, 1))),
    )
    out = {}
    for poly, terms in factors:
        for (m, n), c in poly.items():
            for dm, dn, sign in terms:
                key = (m + dm, n + dn)
                out[key] = out.get(key, 0) + sign * c
    return {k: v % p for k, v in out.items() if v % p}


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


# -- C_p wr Z^2 ---------------------------------------------------------------


def cp_wr_z2_inverse_data(p: int) -> GData:
    """``cp_wr_z2_data(p)`` with the powers of the lamp's inverse as the first
    map's transversal: the same group, its first orbit's letters relabelled."""
    data = cp_wr_z2_data(p)
    model, f1 = data.model, data.endos[0]
    step = model.invert(model.generators["s"])
    transversal = [model.identity()]
    for _ in range(1, p):
        transversal.append(model.multiply(transversal[-1], step))
    inverse = VirtualEndo(model, f1.contains, f1.image, transversal, lambda g: -f1.coset_index(g) % p)
    return GData(model, [inverse, data.endos[1]])


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


def _reference_f1_image(model, p, g):
    """The Q part of ``decompose`` by dict arithmetic, renormalised."""
    base, top = g
    Q = _divide_linear(_sum_out(((vec, c) for vec, (c,) in base), 1), p, 1)
    return (model.norm_base((vec, (c,)) for vec, c in Q.items()), (0, top[1]))


def _reference_f2_image(model, g):
    """The substitution (x, y) -> (y, xy), renormalised."""
    base, (i, j) = g
    return (model.norm_base([((n, m + n), coeff) for (m, n), coeff in base]), (j, i + j))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_wreath_images_match_the_renormalising_references(p, inverse):
    data = cp_wr_z2_inverse_data(p) if inverse else cp_wr_z2_data(p)
    model, (f1, f2) = data.model, data.endos
    rng = random.Random(f"images/{p}/{inverse}")
    gapped = 0  # Q with a point between two columns of the support
    for _ in range(250):
        g = model.identity()
        for _ in range(rng.randint(1, 3)):
            g = model.multiply(g, model.random_element(rng))
        h = model.multiply(g, model.invert(f1.transversal[f1.coset_index(g)]))
        assert f1.contains(h)
        assert f1.image(h) == _reference_f1_image(model, p, h)
        assert f2.image(g) == _reference_f2_image(model, g)
        assert f2.image(h) == _reference_f2_image(model, h)
        columns = {n for (_, n), _ in h[0]}
        gapped += any(n not in columns for (_, n), _ in f1.image(h)[0])
    assert gapped > 20


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_wreath_f1_rejects_elements_outside_the_subgroup(p):
    data = cp_wr_z2_data(p)
    lamp = data.model.generators["s"]
    assert not data.endos[0].contains(lamp)
    with pytest.raises(ValueError, match="polynomial is not in the augmentation ideal"):
        data.endos[0].image(lamp)


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
    assert orbit_type(build_representation(cp_wr_z2_data(2))) == (2, 1)
    assert orbit_type(build_representation(cp_wr_z2_data(5))) == (5, 1)


def _engine_matches_table(data: GData, p: int, depth: int) -> bool:
    """Whether the engine built from ``data`` and the table ``thmD(p)`` agree
    on each generator, state by state, to the given depth."""
    table, engine = thmD(p), build_representation(data)
    return all(
        equal_to_depth(engine.automorphism(name), Automorphism(table, GroupWord.gen(name)), depth)
        for name in ("s", "a", "b")
    )


def test_prime_wreath_engine_matches_table_for_p2():
    assert _engine_matches_table(cp_wr_z2_data(2), 2, 12)
    assert _engine_matches_table(cp_wr_z2_inverse_data(2), 2, 12)


def test_prime_wreath_engine_matches_table_for_p3_standard_only():
    assert _engine_matches_table(cp_wr_z2_data(3), 3, 8)
    assert not _engine_matches_table(cp_wr_z2_inverse_data(3), 3, 8)


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


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 3), (5,)])
def test_lamplighter_carriers_compute_identical_elements(orders):
    # one (support, tops) law and one point order: both carriers store an
    # element in one canonical form
    wreath = lamplighter_data(orders).model
    ext = lamplighter_extension_data(orders).model
    rng = random.Random(zlib.crc32(repr(orders).encode()))
    for _ in range(500):
        a, b = wreath.random_element(rng), ext.random_element(rng)
        assert wreath.multiply(a, b) == ext.multiply(a, b)
        assert wreath.multiply(b, a) == ext.multiply(b, a)
        assert wreath.invert(a) == ext.invert(a) and wreath.invert(b) == ext.invert(b)


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
    data = data_by_selector("concat:lamplighter:B=2+zl-wr-zd:l=1,d=1")
    assert data.degree == 8
    machine = build_representation(data)
    assert set(machine.generators) == {"b", "z", "g1"}


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
    # a missing, unknown or repeated key, or a power with no or too many named copies
    for selector in (
        "cp-wr-z2",
        "zl-wr-zd:l=1",
        "zl-wr-zd:l=1,d=1,x=3",
        "zl-wr-zd:l=1,d=1,l=2",
        "z:junk",
        "zwrz:n=2",
        "zomega:n=0",
        "zomega:n=-1",
        "zomega:n=1001",
        "zomega:n=100000000",
    ):
        with pytest.raises(ValueError):
            data_by_selector(selector)
