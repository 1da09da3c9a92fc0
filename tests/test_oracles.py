"""Independent oracles for the tree action.

The section calculus in tree_core is checked here against a direct transducer
simulation (no sections, no memoisation) and against brute enumeration of all
short strings.  Both routes must agree everywhere.
"""

import math
import random
import time
import zlib
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim import mealy
from selfsim.perm_word import GroupWord
from selfsim.tree_core import (
    Automorphism,
    _cyclic_core,
    apply_word,
    find_moving_string,
    inflate,
    trivial_to_depth,
)

MACHINES = {
    "adding": mealy.adding_machine,
    "diagram1": mealy.diagram1,
    "diagram2(3)": lambda: mealy.diagram2(3),
    "diagram3": mealy.diagram3,
    "brunner_sidki": mealy.brunner_sidki_pair,
}


def transducer_apply(machine, word, string):
    """Run a signed word through a Mealy table symbol by symbol.

    A positive symbol is the usual Mealy run from that state; a negative one
    runs the inverse transducer, reading output letters and recovering inputs.
    Each state's output letter and next state are read from its stored entry.
    """

    def output(state, y):
        return machine.entry(state)[1](y)

    def transition(state, y):
        return str(machine.entry(state)[0][y])

    for name, sign in word:
        out = []
        state = name
        if sign > 0:
            for y in string:
                out.append(output(state, y) if state != "e" else y)
                state = transition(state, y) if state != "e" else "e"
        else:
            for z in string:
                if state == "e":
                    out.append(z)
                    continue
                y = next(i for i in range(machine.alphabet_size) if output(state, i) == z)
                out.append(y)
                state = transition(state, y)
        string = tuple(out)
    return string


def _random_word(rng, names, max_len):
    return GroupWord(
        [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    )


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_apply_matches_transducer_simulation(name):
    machine = MACHINES[name]()
    names = list(machine.generators)
    m = machine.alphabet_size
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    for _ in range(300):
        word = _random_word(rng, names, 8)
        string = tuple(rng.randrange(m) for _ in range(rng.randint(0, 6)))
        assert apply_word(machine, word, string) == transducer_apply(machine, word, string)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_trivial_to_depth_matches_enumeration(name):
    machine = MACHINES[name]()
    names = list(machine.generators)
    m = machine.alphabet_size
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFF)
    depth = 5 if m <= 3 else 4
    strings = [s for k in range(depth + 1) for s in product(range(m), repeat=k)]
    for _ in range(60):
        word = _random_word(rng, names, 6)
        expected = all(transducer_apply(machine, word, s) == s for s in strings)
        assert trivial_to_depth(machine, word, depth) == expected


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_find_moving_string_matches_enumeration(name):
    machine = MACHINES[name]()
    names = list(machine.generators)
    m = machine.alphabet_size
    rng = random.Random(zlib.crc32(name.encode()) & 0xFF)
    depth = 5 if m <= 3 else 4
    for _ in range(60):
        word = _random_word(rng, names, 6)
        brute = None
        for k in range(1, depth + 1):
            for s in product(range(m), repeat=k):  # lexicographic within each length
                if transducer_apply(machine, word, s) != s:
                    brute = s
                    break
            if brute is not None:
                break
        assert find_moving_string(Automorphism(machine, word), depth) == brute


@pytest.mark.parametrize("name", ["diagram1", "brunner_sidki"])
def test_inflation_acts_blockwise(name):
    machine = MACHINES[name]()
    doubled = inflate(machine, 2)
    m = machine.alphabet_size
    names = list(machine.generators)
    rng = random.Random(len(name))
    for _ in range(150):
        word = _random_word(rng, names, 6)
        flat = tuple(rng.randrange(m) for _ in range(6))
        blocks = tuple(flat[i] * m + flat[i + 1] for i in range(0, 6, 2))
        moved_flat = apply_word(machine, word, flat)
        moved_blocks = apply_word(doubled, word, blocks)
        assert moved_blocks == tuple(
            moved_flat[i] * m + moved_flat[i + 1] for i in range(0, 6, 2)
        )


def _random_mealy(rng, m, n):
    """A Mealy file of n random states over m letters.  The first state and
    any other with probability 1/3 have no section but the identity, so some
    words leave none; each section of the others is the identity with
    probability 1/2."""
    names = [f"q{i}" for i in range(n)]
    lines = [f"alphabet {m}"]
    for q in names:
        images = rng.sample(range(m), m)
        p = 1 if q == "q0" or rng.random() < 1 / 3 else 0.5
        cells = (f"{y}->{images[y]} {'e' if rng.random() < p else rng.choice(names)}" for y in range(m))
        lines.append(f"state {q}: {', '.join(cells)}")
    return mealy.parse("\n".join(lines) + "\n")


class _Entries:
    """A machine's entries, each decoded once, for the transducer."""

    def __init__(self, machine):
        self.alphabet_size = machine.alphabet_size
        self.entry = cache(machine.entry)


def _fixes_to(machine, word, depth):
    """The depth-bounded path with no memo: the word fixes the root and each
    of its sections fixes ``depth - 1`` levels."""
    if depth == 0 or not word:
        return True
    a = Automorphism(machine, word)
    return a.root_perm().is_identity() and all(
        _fixes_to(machine, a.section(y).word, depth - 1) for y in range(machine.alphabet_size)
    )


def _first_moved(entries, word, depth):
    """The lex-least string of the shortest length that the transducer moves,
    among those of length <= depth, or None: a tree automorphism fixes the
    prefixes of a fixed string, so the strings of length ``depth`` decide
    every shorter one, by the prefix that ends at their first moved letter."""
    moved = []
    for s in product(range(entries.alphabet_size), repeat=depth):
        image = transducer_apply(entries, word, s)
        if image != s:
            i = next(i for i in range(depth) if image[i] != s[i])
            moved.append(s[: i + 1])
    return min(moved, key=lambda s: (len(s), s)) if moved else None


@pytest.mark.parametrize("seed", range(4))
def test_exact_records_match_the_depth_bounded_path_and_the_transducer(seed):
    # a record is proven at every depth where its class fixes the root and
    # leaves no section; one machine answers every question, so records are
    # read by later words, and a word whose record is exact ends a witness
    # search at once, at any depth
    rng = random.Random(f"exact-records/{seed}")
    m = (3, 5, 7)[seed % 3]  # leaf 5, 3, 2: records from one level deeper
    machine = _random_mealy(rng, m, rng.randint(2, 4))
    entries = _Entries(machine)
    names = list(machine.generators)
    depth = machine._leaf + 1
    words = [GroupWord.gen(q) ** k for q in names for k in range(2, 2 * m + 1)]
    words += [_random_word(rng, names, 6) for _ in range(10)]
    words += [GroupWord.gen(q) * w * GroupWord.gen(q, -1) for q, w in zip(names, words[:: 2 * m - 1])]
    exact = 0
    for word in words:
        witness = _first_moved(entries, word, depth)
        deepest = depth if witness is None else len(witness) - 1
        depths = list(range(1, depth + 2))
        rng.shuffle(depths)
        for d in depths:
            assert trivial_to_depth(machine, word, d) is _fixes_to(machine, word, d), (str(word), d)
            if d <= depth:
                assert trivial_to_depth(machine, word, d) is (d <= deepest), (str(word), d)
        assert find_moving_string(Automorphism(machine, word), depth) == witness, str(word)
        codes = machine.encode(word)
        record = machine._triv.get(_cyclic_core(codes)) if codes else None
        if record is not None and record[0] == float("inf"):
            exact += 1
            assert witness is None and _fixes_to(machine, word, depth + 2), str(word)
            start = time.perf_counter()
            assert find_moving_string(Automorphism(machine, word), 10**12) is None, str(word)
            assert time.perf_counter() - start < 1
    assert exact > 0


def _order_on_level(entries, word, k):
    """The order of the permutation that the transducer runs on the strings
    of length k."""
    strings = list(product(range(entries.alphabet_size), repeat=k))
    image = {s: transducer_apply(entries, word, s) for s in strings}
    order = 1
    for s in strings:
        n, t = 1, image[s]
        while t != s:
            n, t = n + 1, image[t]
        order = math.lcm(order, n)
    return order


@st.composite
def _mealy_words(draw):
    """A random Mealy file of 2 to 7 letters (leaf 8 down to 2) and 1 to 4
    states, and a word of 1 to 4 letters over its states raised to the order
    of its action on one of the three levels up to the leaf (to the first
    power where that passes 256 letters): such a power fixes the level and
    often moves a string of the next length."""
    m, n = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    machine = _random_mealy(random.Random(draw(st.integers(0, 2**32 - 1))), m, n)
    letters = st.tuples(st.sampled_from(machine.generators), st.sampled_from((1, -1)))
    base = GroupWord(draw(st.lists(letters, min_size=1, max_size=4)))
    level = draw(st.integers(max(0, machine._leaf - 2), machine._leaf))
    order = _order_on_level(_Entries(machine), base, level)
    return machine, base ** (order if order * len(base.letters) <= 256 else 1)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(_mealy_words())
def test_witness_search_matches_the_transducer_on_random_mealy_files(machine_word):
    # every depth up to leaf + 1 while m^depth <= 20,000 (so always here), so
    # the search reads a witness of the leaf's length off a level table, and
    # one a level longer by a walk into a section's table; one machine answers
    # every depth, so the deeper searches read the records of the shallower
    machine, word = machine_word
    depth = max(d for d in range(1, machine._leaf + 2) if machine.alphabet_size**d <= 20_000)
    witness = _first_moved(_Entries(machine), word, depth)
    for d in range(1, depth + 1):
        want = witness if witness is not None and len(witness) <= d else None
        assert find_moving_string(Automorphism(machine, word), d) == want, (str(word), d)
