"""The paper's claims, proven at every depth rather than to a depth.

Theorem D's relations: certify the degree p+1 table ``thmD(p)`` against the
engine of ``cp_wr_z2_data(p)`` (``_certified``), then read each relation's
element in the engine's group model.  A relation whose element is the identity
holds on the table at every depth, where criterion 4 of
``tests/test_acceptance.py`` checks the same relations to depth 8 to 12.
"""

import itertools

import pytest

from selfsim.gdata_engine import build_representation
from selfsim.perm_word import GroupWord, commutator
from selfsim.wreath_models import cp_wr_z2_data, thmD, thmD_transversal_comparison


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_inverse_transversal_certifies_only_at_p_2(p):
    # a lamp of order 2 is its own inverse, so only at p = 2 do the powers of
    # the lamp's inverse give the table's coset representatives; the
    # depth-bounded comparison agrees
    engine = build_representation(cp_wr_z2_data(p, inverse_transversal=True))
    assert _certified(thmD(p), engine) is (p == 2)
    assert thmD_transversal_comparison(p, 4) == {"standard": True, "inverse": p == 2}
