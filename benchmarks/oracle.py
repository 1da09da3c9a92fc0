"""Independent checks for Mealy-automaton results.

Nothing here uses selfsim: words are lists of ``(state, sign)`` pairs, an
automaton is two plain dicts, and actions are computed by running the letter
transducer symbol by symbol (the same logic as ``tests/test_oracles.py``).
"""

from __future__ import annotations

from itertools import product


class Automaton:
    """An invertible Mealy automaton: ``out[q, y]`` and ``nxt[q, y]``."""

    def __init__(self, m: int, states: list[str], out: dict, nxt: dict):
        self.m = m
        self.states = states
        self.out = out
        self.nxt = nxt
        self.back = {(q, out[q, y]): y for q in states for y in range(m)}

    @classmethod
    def random(cls, rng, m: int, n_states: int) -> "Automaton":
        states = [f"q{i + 1}" for i in range(n_states)]
        out, nxt = {}, {}
        for q in states:
            images = list(range(m))
            rng.shuffle(images)
            for y in range(m):
                out[q, y] = images[y]
                nxt[q, y] = rng.choice(states + ["e"])
        return cls(m, states, out, nxt)

    def text(self) -> str:
        lines = [f"alphabet {self.m}"]
        for q in self.states:
            items = ", ".join(f"{y}->{self.out[q, y]} {self.nxt[q, y]}" for y in range(self.m))
            lines.append(f"state {q}: {items}")
        return "\n".join(lines) + "\n"

    def apply(self, word, string: tuple) -> tuple:
        for name, sign in word:
            state, moved = name, []
            for z in string:
                if state == "e":
                    moved.append(z)
                elif sign > 0:
                    moved.append(self.out[state, z])
                    state = self.nxt[state, z]
                else:
                    y = self.back[state, z]
                    moved.append(y)
                    state = self.nxt[state, y]
            string = tuple(moved)
        return string

    def section(self, word, y: int) -> list:
        """The word acting below letter ``y``, unreduced."""
        out = []
        for name, sign in word:
            if name == "e":
                continue
            if sign > 0:
                nxt, y = self.nxt[name, y], self.out[name, y]
            else:
                x = self.back[name, y]
                nxt, y = self.nxt[name, x], x
            if nxt != "e":
                out.append((nxt, sign))
        return out

    def signature(self, word, depth: int) -> tuple:
        """The images of all strings of length ``depth``; equal signatures
        mean equal action on every string of length at most ``depth``."""
        return tuple(self.apply(word, s) for s in product(range(self.m), repeat=depth))


def parse_word(text: str) -> list:
    word = []
    for token in text.split():
        if token == "e":
            continue
        if token.endswith("^-1"):
            word.append((token[:-3], -1))
        else:
            word.append((token, 1))
    return word


def word_text(word) -> str:
    return " ".join(n if s > 0 else f"{n}^-1" for n, s in word) or "e"


def fixes_to_depth(automaton: Automaton, word, depth: int) -> bool:
    return all(
        automaton.apply(word, s) == s for s in product(range(automaton.m), repeat=depth)
    )


def check_states_output(automaton: Automaton, word, max_states: int, sep_depth: int, stdout: str) -> bool:
    """Verify ``selfsim states`` output for a Mealy machine.

    The listed words must act pairwise differently to ``sep_depth``, the first
    must act as the input word, the summary must count them, a truncated
    listing must hold exactly ``max_states`` words, and a complete one must
    contain every section of every listed word up to ``sep_depth``.
    """
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("# states: "):
        return False
    listed = [parse_word(line) for line in lines[:-1]]
    summary = f"# states: {len(listed)} ({{}})"
    sigs = [automaton.signature(w, sep_depth) for w in listed]
    if len(set(sigs)) != len(sigs) or not sigs:
        return False
    if sigs[0] != automaton.signature(word, sep_depth):
        return False
    if lines[-1] == summary.format("truncated"):
        return len(listed) == max_states
    if lines[-1] != summary.format("complete"):
        return False
    known = set(sigs)
    return all(
        automaton.signature(automaton.section(w, y), sep_depth) in known
        for w in listed
        for y in range(automaton.m)
    )
