"""Independent oracles for the tree action.

The section calculus in tree_core is checked here against a direct transducer
simulation (no sections, no memoisation) and against brute enumeration of all
short strings.  Both routes must agree everywhere.
"""

import random
import zlib
from itertools import product

import pytest

from selfsim import mealy
from selfsim.perm_word import GroupWord
from selfsim.tree_core import (
    Automorphism,
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
