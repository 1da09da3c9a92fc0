"""The paper's claims, proven at every depth rather than to a depth.

Theorem D's relations: certify the degree p+1 table ``thmD(p)`` against the
engine of ``cp_wr_z2_data(p)`` (``_certified``), then read each relation's
element in the engine's group model.  A relation whose element is the identity
holds on the table at every depth, where criterion 4 of
``tests/test_acceptance.py`` checks the same relations to depth 8 to 12.  The
table certifies against the lamp-power transversal at p = 2..7 and against the
powers of the lamp's inverse only at p = 2.

Faithfulness on generator balls: every nontrivial element of a ball is either
witnessed by a string it moves or an exact kernel element (``_ball_check``).
Finite-state data close under sections in a counted set of states, and
``cp-wr-z2:p=2,3`` are certified infinite-state by their top matrix.  README's
"What is proven" table cites these tests.
"""

import itertools

import pytest

from selfsim import mealy
from selfsim.gdata_engine import GData, build_representation
from selfsim.perm_word import GroupWord, commutator
from selfsim.tree_core import MAX_STATES, closure, find_moving_string, section_word, states
from selfsim.wreath_models import cp_wr_z2_data, data_by_selector, thmD

from test_wreath_models import cp_wr_z2_inverse_data


def _certified(table, engine) -> bool:
    """True iff every generator of ``table`` has the root permutation it has
    in ``engine``, and each of its table sections, multiplied out in the
    engine's model, is the element of its engine section at the same letter.

    Then every word acts alike on the two machines at every depth, by
    induction on depth: the word's root permutations agree, and so do the
    elements, hence the actions, of its sections at each letter.  An engine
    acts through its model, so a word whose element is the identity fixes
    every string of the table."""
    if table.generators != engine.generators:
        return False
    for name in table.generators:
        table_secs, table_perm = table.entry(name)
        engine_secs, engine_perm = engine.entry(name)
        if table_perm != engine_perm:
            return False
        for table_sec, engine_sec in zip(table_secs, engine_secs):
            if engine.element_of(table_sec) != engine.element_of(engine_sec):
                return False
    return True


def _criterion_4_relations(p: int) -> list[GroupWord]:
    """``s^p``, ``[a, b]``, the p-th powers of the 25 lamps ``s^(a^i b^j)``
    (|i|, |j| <= 2) and their 300 pairwise commutators."""
    s, a, b = (GroupWord.gen(n) for n in ("s", "a", "b"))
    lamps = [s.conjugate_by(a**i * b**j) for i in range(-2, 3) for j in range(-2, 3)]
    return (
        [s**p, commutator(a, b)]
        + [lamp**p for lamp in lamps]
        + [commutator(u, v) for u, v in itertools.combinations(lamps, 2)]
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_theorem_d_relations_hold_at_every_depth(p):
    table, engine = thmD(p), build_representation(cp_wr_z2_data(p))
    assert table.generators == engine.generators == ("s", "a", "b")
    assert _certified(table, engine)
    relations = _criterion_4_relations(p)
    assert len(relations) == 327
    model = engine.model
    assert all(model.is_identity(engine.element_of(word)) for word in relations)
    # a negative control: the lamp and a top generator do not commute
    s, a = GroupWord.gen("s"), GroupWord.gen("a")
    assert not model.is_identity(engine.element_of(commutator(s, a)))


@pytest.mark.parametrize("p", range(2, 8))
def test_the_inverse_transversal_certifies_only_at_p_2(p):
    # the powers of the lamp certify at p = 2..7, composite ones included.  A
    # lamp of order 2 is its own inverse, so only at p = 2 do the powers of
    # its inverse give the table's coset representatives; past p = 2 some
    # generator's root permutation differs, so the two machines disagree at
    # depth 1 and hence at every depth
    table = thmD(p)
    assert _certified(table, build_representation(cp_wr_z2_data(p)))
    inverse = build_representation(cp_wr_z2_inverse_data(p))
    assert _certified(table, inverse) is (p == 2)
    assert any(table.entry(name)[1] != inverse.entry(name)[1] for name in table.generators) is (p > 2)


# -- faithfulness on generator balls ------------------------------------------


def _ball_check(data: GData, radius: int = 8, depth: int = 12, budget: int = 512):
    """Every nontrivial element of the engine's generator ball, grown by
    ``_grow`` until ``radius`` or its ``MAX_BALL`` bound, sorted three ways,
    each exactly: witnessed (a string of length <= ``depth`` that ``apply``
    moves), kernel (no witness, and the element-keyed closure under sections
    completes within ``budget`` states that all fix the root, so by induction
    on depth every state acts trivially), or undecided.

    Returns the radius reached, the number of nontrivial elements, the number
    witnessed, the kernel elements' words in ball order, the longest witness
    and the undecided elements' words."""
    machine = build_representation(data)
    while machine._radius < radius and machine._grow():
        pass
    ident = data.model.identity()
    witnessed, longest, kernel, undecided = 0, 0, [], []
    for g, word in machine._ball.items():
        if g == ident:
            continue
        a = machine.automorphism_of(g)
        moved = find_moving_string(a, depth)
        if moved is not None:
            assert a.apply(moved) != moved
            witnessed, longest = witnessed + 1, max(longest, len(moved))
            continue
        closed = states(a, budget, 1)
        if not closed.truncated and all(s.root_perm().is_identity() for s in closed.states):
            kernel.append(str(word))
        else:
            undecided.append(str(word))
    return machine._radius, len(machine._ball) - 1, witnessed, kernel, longest, undecided


def _transitive_half_of_zwrz() -> GData:
    # the single virtual endomorphism of the first orbit: a transitive action
    data = data_by_selector("zwrz")
    return GData(data.model, [data.endos[0]])


@pytest.mark.parametrize(
    "build, figures",
    [
        (_transitive_half_of_zwrz, (8, 7536, 7104, 432, ["g1"], 4)),
        (lambda: data_by_selector("zwrz"), (8, 7536, 7536, 0, [], 5)),
        (lambda: data_by_selector("zwrz-wr-c2"), (7, 15861, 15861, 0, [], 4)),
        (lambda: data_by_selector("cp-wr-z2:p=3"), (7, 20602, 20602, 0, [], 5)),
        (lambda: data_by_selector("zomega"), (8, 13072, 13072, 0, [], 8)),
    ],
    ids=["zwrz transitive half", "zwrz", "zwrz-wr-c2", "cp-wr-z2:p=3", "zomega"],
)
def test_generator_balls_are_decided_exactly(build, figures):
    # a radius below 8 is where MAX_BALL stopped the ball.  The transitive
    # half is not faithful ([DS]): its first kernel element is the base
    # generator, where the intransitive data has no kernel element in its ball
    radius, nontrivial, witnessed, kernel, longest, undecided = _ball_check(build())
    assert (radius, nontrivial, witnessed, len(kernel), kernel[:1], longest) == figures
    assert undecided == []


# -- finite-state and infinite-state ------------------------------------------


@pytest.mark.parametrize(
    "selector, count",
    [("zwrz", 3), ("zwrz-wr-c2", 5), ("lamplighter:B=2", 6), ("zomega", 6), ("lamplighter:B=3", 12)],
)
def test_finite_state_data_close_exactly(selector, count):
    # the joint closure of the generators under sections, identity included,
    # keyed by model element, is every state of the machine when it completes
    machine = build_representation(data_by_selector(selector))
    starts = [GroupWord.identity()] + [GroupWord.gen(name) for name in machine.generators]
    found, more = closure(
        starts,
        lambda w: [section_word(machine, w, y) for y in range(machine.alphabet_size)],
        MAX_STATES,
        machine.element_of,
    )
    assert (len(found), more) == (count, False)
    # the Mealy table lists every state but the identity
    assert len(mealy.machine_to_mealy(machine).generators) == count - 1


def _matrix_product(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


@pytest.mark.parametrize("p", [2, 3])
def test_prime_wreath_data_are_not_finite_state(p):
    """The top matrix certificate for ``cp-wr-z2:p=P``.  Let A be the matrix
    whose columns are the tops of f2 of the two top generators.  f2 sends the
    base generator to an identity top, so top(f2(g)) = A top(g), and an
    engine's section of any state h at the letter of f2 is f2(h): the states
    of a top generator g include every f2^k(g), with top A^k top(g).  If
    det(A^k - I) != 0 for every k >= 1 and top(g) != 0, these tops are
    pairwise distinct (A is invertible), so g has infinitely many states.  A
    2x2 integer matrix with an eigenvalue that is a k-th root of unity has
    one of order k with phi(k) <= 2, so k <= 6 is enough to check."""
    data = data_by_selector(f"cp-wr-z2:p={p}")
    model, f2 = data.model, data.endos[-1]
    assert f2.index == 1
    tops = [f2.image(model.top_generator(i))[1] for i in range(2)]
    A = [[tops[0][0], tops[1][0]], [tops[0][1], tops[1][1]]]
    assert A == [[0, 1], [1, 1]]
    assert f2.image(model.generators["s"])[1] == (0, 0)
    power = [[1, 0], [0, 1]]
    for _ in range(6):
        power = _matrix_product(power, A)
        assert (power[0][0] - 1) * (power[1][1] - 1) - power[0][1] * power[1][0] != 0
    machine = build_representation(data)
    last = machine.alphabet_size - 1
    for name in ("a", "b"):
        g = model.generators[name]
        assert g[1] != (0, 0)
        section = section_word(machine, GroupWord.gen(name), last)
        assert machine.element_of(section) == f2.image(g)
    # so the export's verdict is exact, not a budget running out: it follows
    # the f2 chains alone and compiles no row of a fresh engine
    fresh = build_representation(data)
    with pytest.raises(ValueError, match="exceeded 512 states"):
        mealy.machine_to_mealy(fresh)
    assert fresh._names == ["s", "a", "b"] and not any(fresh._rows)
