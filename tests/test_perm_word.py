import random
from itertools import permutations

import pytest

from selfsim.perm_word import GroupWord, Perm, commutator, parse_word


def test_identity_composition():
    p = Perm((1, 0))
    assert Perm.identity(2) * p == p
    assert p * Perm.identity(2) == p


def test_involution_squares_to_identity():
    swap = Perm((1, 0))
    assert (swap * swap).is_identity()


def test_transposition_times_cycle():
    # (0 1) followed by (0 1 2) sends 0->1->2, 1->0->1, 2->2->0
    p = Perm.from_cycles(3, [(0, 1)])
    q = Perm.from_cycles(3, [(0, 1, 2)])
    r = p * q
    assert [r(i) for i in range(3)] == [2, 1, 0]
    assert r == Perm.from_cycles(3, [(0, 2)])


def test_inverse_examples():
    assert Perm.identity(3).inverse().is_identity()
    swap = Perm((1, 0))
    assert swap.inverse() == swap
    cycle = Perm.from_cycles(3, [(0, 1, 2)])
    assert cycle.inverse() == Perm.from_cycles(3, [(0, 2, 1)])
    for i in range(3):
        assert cycle.inverse()(cycle(i)) == i


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        Perm((1, 0)) * Perm((0, 1, 2))


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Perm((0, 0))


def test_group_axioms_exhaustive_small_degrees():
    for m in (1, 2, 3, 4, 5):
        perms = [Perm(images) for images in permutations(range(m))]
        ident = Perm.identity(m)
        for p in perms:
            assert p * ident == p and ident * p == p
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()
        # exhaustive associativity through the composition table
        index = {p.images: i for i, p in enumerate(perms)}
        table = [[index[(p * q).images] for q in perms] for p in perms]
        n = len(perms)
        for i in range(n):
            ti = table[i]
            for j in range(n):
                tij = table[ti[j]]
                tj = table[j]
                for k in range(n):
                    assert tij[k] == ti[tj[k]]


def test_group_axioms_randomized_larger_degrees():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(5, 9)
        ps = []
        for _ in range(3):
            images = list(range(m))
            rng.shuffle(images)
            ps.append(Perm(images))
        p, q, r = ps
        assert (p * q) * r == p * (q * r)
        assert (p * p.inverse()).is_identity()


def test_cycle_notation():
    assert str(Perm.identity(4)) == "()"
    assert str(Perm((1, 0, 2))) == "(0 1)"
    assert str(Perm.from_cycles(4, [(0, 2), (1, 3)])) == "(0 2)(1 3)"


def test_word_cancellation():
    a = GroupWord.gen("a")
    assert a * a.inverse() == GroupWord.identity()
    assert not (a * a.inverse())


def test_word_identity_neutral():
    g = GroupWord.gen("g")
    assert GroupWord.identity() * g == g
    assert g * GroupWord.identity() == g


def test_word_partial_cancellation():
    a, b = GroupWord.gen("a"), GroupWord.gen("b")
    out = (a * b) * (b.inverse() * a)
    assert out == a * a
    assert str(out) == "a a"


def test_word_inverse():
    assert GroupWord.identity().inverse() == GroupWord.identity()
    a, b = GroupWord.gen("a"), GroupWord.gen("b")
    assert str(a.inverse()) == "a^-1"
    assert str((a * b.inverse()).inverse()) == "b a^-1"


def test_words_always_reduced_randomized():
    rng = random.Random(21)
    names = ["a", "b", "c"]
    for _ in range(500):
        symbols = [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 14))]
        w = GroupWord(symbols)
        for (n1, s1), (n2, s2) in zip(w.letters, w.letters[1:]):
            assert not (n1 == n2 and s1 == -s2)
        assert w * w.inverse() == GroupWord.identity()
        assert w.inverse() * w == GroupWord.identity()


def test_parse_round_trip():
    for text in ("a", "a b^-1", "g a g^-1 a^-1", "e"):
        word = parse_word(text)
        assert parse_word(str(word)) == word
    assert parse_word("") == GroupWord.identity()
    assert parse_word("e") == GroupWord.identity()
    assert str(GroupWord.identity()) == "e"


def test_parse_rejects_bad_names():
    with pytest.raises(ValueError):
        parse_word("1abc")
    with pytest.raises(ValueError):
        GroupWord.gen("e")


def test_commutator_shape():
    a, b = GroupWord.gen("a"), GroupWord.gen("b")
    assert str(commutator(a, b)) == "a^-1 b^-1 a b"
    assert commutator(a, a) == GroupWord.identity()


def test_power():
    a = GroupWord.gen("a")
    assert a**0 == GroupWord.identity()
    assert str(a**3) == "a a a"
    assert a**-2 == (a * a).inverse()


def _power_by_multiplication(w, n):
    out = GroupWord.identity()
    for _ in range(abs(n)):
        out = out * (w if n > 0 else w.inverse())
    return out


def test_power_matches_repeated_multiplication():
    rng = random.Random(11)
    words = [parse_word(text) for text in ("a b a^-1", "a b a^-1 b^-1", "b a c a^-1 b^-1", "a", "e")]
    for _ in range(200):
        symbols = [(rng.choice("abc"), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
        words.append(GroupWord(symbols))
    for w in words:
        for n in range(-4, 5):
            assert w**n == _power_by_multiplication(w, n), (str(w), n)
