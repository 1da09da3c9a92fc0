"""Finite Mealy automata: a concrete, serialisable source of tree machines.

The file format is line based (``#`` starts a comment):

    alphabet 3
    state a: 0->1 e, 1->0 a, 2->2 e
    state g: 0->0 g, 1->1 e, 2->2 a

Each ``in->out next`` item gives, for one input letter, the output letter and
the next state.  The state ``e`` is reserved for the identity and may be
omitted.  Every state's outputs must form a permutation of the alphabet.
"""

from __future__ import annotations

import re
from collections import deque

from .perm_word import GroupWord, Perm, _validate_name
from .tree_core import MAX_STATES, SelfSimilarMachine, TableMachine
from .wreath_models import thmD, thmD_engine_machine

_ITEM_RE = re.compile(r"(\d+)\s*->\s*(\d+)\s+([A-Za-z_][A-Za-z0-9_]*)\Z")


class MealyAutomaton:
    """An invertible letter transducer over the alphabet ``{0..m-1}``."""

    def __init__(
        self,
        alphabet_size: int,
        states: list[str],
        transition: dict[tuple[str, int], str],
        output: dict[tuple[str, int], int],
    ):
        if alphabet_size < 1:
            raise ValueError("alphabet size must be at least 1")
        if len(set(states)) != len(states):
            raise ValueError("duplicate state names")
        self.alphabet_size = alphabet_size
        self.states = list(states)
        self.transition = dict(transition)
        self.output = dict(output)
        known = set(states) | {"e"}
        for q in states:
            _validate_name(q)
            images = []
            for y in range(alphabet_size):
                if (q, y) not in transition or (q, y) not in output:
                    raise ValueError(f"state {q}: letter {y} not covered")
                if transition[q, y] not in known:
                    raise ValueError(f"state {q}: unknown next state {transition[q, y]!r}")
                images.append(output[q, y])
            Perm(images)  # raises if the state is not invertible

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MealyAutomaton)
            and self.alphabet_size == other.alphabet_size
            and self.states == other.states
            and self.transition == other.transition
            and self.output == other.output
        )

    def __repr__(self) -> str:
        return f"MealyAutomaton(m={self.alphabet_size}, states={self.states})"


def to_machine(automaton: MealyAutomaton) -> TableMachine:
    """One machine generator per non-identity state; sections are the next states."""
    m = automaton.alphabet_size
    table = {}
    for q in automaton.states:
        sections = []
        images = []
        for y in range(m):
            nxt = automaton.transition[q, y]
            sections.append(GroupWord.identity() if nxt == "e" else GroupWord.gen(nxt))
            images.append(automaton.output[q, y])
        table[q] = (sections, Perm(images))
    return TableMachine(m, table)


def parse(text: str) -> MealyAutomaton:
    alphabet = None
    states: list[str] = []
    transition: dict[tuple[str, int], str] = {}
    output: dict[tuple[str, int], int] = {}
    stated = False  # every state line lists every letter, bounding the alphabet
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if alphabet is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "alphabet" or not parts[1].isdigit():
                raise ValueError(f"line {lineno}: expected 'alphabet <m>'")
            alphabet = int(parts[1])
            continue
        if not line.startswith("state "):
            raise ValueError(f"line {lineno}: expected 'state <name>: ...'")
        stated = True
        head, _, body = line[len("state ") :].partition(":")
        name = head.strip()
        if not body:
            raise ValueError(f"line {lineno}: missing ':' after state name")
        rows: dict[int, tuple[int, str]] = {}
        for item in body.split(","):
            match = _ITEM_RE.match(item.strip())
            if not match:
                raise ValueError(f"line {lineno}: bad item {item.strip()!r}")
            y, out, nxt = int(match.group(1)), int(match.group(2)), match.group(3)
            if not (0 <= y < alphabet and 0 <= out < alphabet):
                raise ValueError(f"line {lineno}: letter out of range in {item.strip()!r}")
            if y in rows:
                raise ValueError(f"line {lineno}: duplicate input letter {y}")
            rows[y] = (out, nxt)
        if len(rows) != alphabet:  # rows are range-checked and duplicate-free
            raise ValueError(f"line {lineno}: state {name} does not cover all letters")
        if name == "e":
            if any(rows[y] != (y, "e") for y in range(alphabet)):
                raise ValueError(f"line {lineno}: state 'e' must be the identity")
            continue
        if name in states:
            raise ValueError(f"line {lineno}: duplicate state {name}")
        states.append(name)
        for y, (out, nxt) in rows.items():
            transition[name, y] = nxt
            output[name, y] = out
    if alphabet is None:
        raise ValueError("empty automaton file")
    if not stated:
        raise ValueError("no state line after the alphabet line")
    return MealyAutomaton(alphabet, states, transition, output)


def emit(automaton: MealyAutomaton) -> str:
    m = automaton.alphabet_size
    lines = [f"alphabet {m}"]
    lines.append("state e: " + ", ".join(f"{y}->{y} e" for y in range(m)))
    for q in automaton.states:
        items = ", ".join(
            f"{y}->{automaton.output[q, y]} {automaton.transition[q, y]}"
            for y in range(automaton.alphabet_size)
        )
        lines.append(f"state {q}: {items}")
    return "\n".join(lines) + "\n"


def to_dot(automaton: MealyAutomaton) -> str:
    """Deterministic DOT export; parallel edges are merged and labelled 'in|out'."""
    m = automaton.alphabet_size
    lines = ["digraph {", '  e [shape=doublecircle];']
    for q in automaton.states:
        lines.append(f"  {q} [shape=circle];")
    lines.append(f'  e -> e [label="{", ".join(f"{y}|{y}" for y in range(m))}"];')
    for q in automaton.states:
        groups: dict[str, list[str]] = {}  # in the order each edge first appears
        for y in range(m):
            dst = automaton.transition[q, y]
            groups.setdefault(dst, []).append(f"{y}|{automaton.output[q, y]}")
        for dst, labels in groups.items():
            lines.append(f'  {q} -> {dst} [label="{", ".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _mealy(m: int, rows: dict[str, list[tuple[int, str]]]) -> MealyAutomaton:
    transition = {}
    output = {}
    for q, row in rows.items():
        for y, (out, nxt) in enumerate(row):
            transition[q, y] = nxt
            output[q, y] = out
    return MealyAutomaton(m, list(rows), transition, output)


def adding_machine() -> MealyAutomaton:
    """The binary odometer a = (e, a)(0 1)."""
    return _mealy(2, {"a": [(1, "e"), (0, "a")]})


def diagram1() -> MealyAutomaton:
    """3-letter, 3-state automaton: a = (e, a, e)(0 1), g = (g, e, a)."""
    return _mealy(
        3,
        {
            "a": [(1, "e"), (0, "a"), (2, "e")],
            "g": [(0, "g"), (1, "e"), (2, "a")],
        },
    )


def diagram2(n: int) -> MealyAutomaton:
    """First n generators of the chain a1 = (e, a1, e)(0 1), ai = (ai, ai, a(i-1))."""
    if n < 1:
        raise ValueError("diagram2 needs n >= 1")
    rows = {"a1": [(1, "e"), (0, "a1"), (2, "e")]}
    for i in range(2, n + 1):
        rows[f"a{i}"] = [(0, f"a{i}"), (1, f"a{i}"), (2, f"a{i - 1}")]
    return _mealy(3, rows)


def diagram3() -> MealyAutomaton:
    """5-state, 4-letter automaton: s = (0 2)(1 3), a = (e, a, e, e)(0 1),
    as = (e, e, e, a)(2 3), g = (g, e, as, as)."""
    return _mealy(
        4,
        {
            "s": [(2, "e"), (3, "e"), (0, "e"), (1, "e")],
            "a": [(1, "e"), (0, "a"), (2, "e"), (3, "e")],
            "as": [(0, "e"), (1, "e"), (3, "e"), (2, "a")],
            "g": [(0, "g"), (1, "e"), (2, "as"), (3, "as")],
        },
    )


def brunner_sidki_pair() -> MealyAutomaton:
    """Binary pair a = (e, u)(0 1), at = (v, e) with u = (a, e), v = (at, a).

    The depth-one states u and v encode the level-two recursion; the
    2-inflation of this machine is a degree-4 representation whose group is
    the wreath product of two infinite cyclic groups.
    """
    return _mealy(
        2,
        {
            "a": [(1, "e"), (0, "u")],
            "u": [(0, "a"), (1, "e")],
            "at": [(0, "v"), (1, "e")],
            "v": [(0, "at"), (1, "a")],
        },
    )


def prop31(l: int, d: int) -> MealyAutomaton:
    """Machine for the wreath product of Z^l by Z^d (degree 4; degree 3 when d = 1).

    Base states g1..gl, top states a1..ad; base indices wrap cyclically
    (g0 = gl, a0 = ad).
    """
    if l < 1 or d < 1:
        raise ValueError("prop31 needs l >= 1 and d >= 1")

    def g(i: int) -> str:
        return f"g{(i - 1) % l + 1}"

    def a(i: int) -> str:
        return f"a{(i - 1) % d + 1}"

    rows: dict[str, list[tuple[int, str]]] = {}
    for i in range(1, l + 1):
        row = [(0, g(i - 1)), (1, "e")]
        if d >= 2:
            row.append((2, g(i)))
        row.append((len(row), a(1) if i == 1 else "e"))
        rows[g(i)] = row
    for i in range(1, d + 1):
        if i == 1:
            row = [(1, "e"), (0, a(1))]
        else:
            row = [(0, a(i)), (1, a(i))]
        if d >= 2:
            row.append((2, a(0) if i == 1 else a(i - 1)))
        row.append((len(row), "e"))
        rows[a(i)] = row
    return _mealy(4 if d >= 2 else 3, rows)


_PARAM_RE = re.compile(r"([a-zA-Z_][a-zA-Z0-9_-]*)\((.*)\)\Z")

# name -> (constructor, usage text, or None when it takes no parameters);
# the usage text lists one name per parameter
_BUILTINS = {
    "adding": (adding_machine, None),
    "diagram1": (diagram1, None),
    "diagram2": (diagram2, "diagram2(n)"),
    "diagram3": (diagram3, None),
    "brunner_sidki": (brunner_sidki_pair, None),
    "thmD": (thmD, "thmD(p)"),
    "thmD-engine": (thmD_engine_machine, "thmD-engine(p)"),
    "prop31": (prop31, "prop31(l,d)"),
}


def builtin(name: str):
    """A built-in automaton or machine by name, e.g. ``diagram2(3)`` or ``thmD(2)``.

    Returns a MealyAutomaton where one exists and a plain machine otherwise.
    """
    params: list[int] = []
    match = _PARAM_RE.match(name)
    if match:
        name = match.group(1)
        try:
            params = [int(x) for x in match.group(2).split(",") if x.strip()]
        except ValueError:
            raise ValueError(f"bad builtin parameters in {match.group(2)!r}") from None
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin machine: {name!r}")
    make, usage = _BUILTINS[name]
    if len(params) != (usage.count(",") + 1 if usage else 0):
        raise ValueError(f"usage: {usage}" if usage else f"builtin {name} takes no parameters")
    return make(*params)


def builtin_machine(name: str) -> SelfSimilarMachine:
    got = builtin(name)
    if isinstance(got, MealyAutomaton):
        return to_machine(got)
    return got


def machine_to_mealy(machine: SelfSimilarMachine) -> MealyAutomaton:
    """Close a machine under sections into a Mealy automaton.

    Requires every section to be a single state or the identity; raises for
    composite sections and when the closure exceeds ``MAX_STATES`` (expected
    for non-finite-state machines).
    """
    names = list(machine.generators)
    seen = set(names)
    transition: dict[tuple[str, int], str] = {}
    output: dict[tuple[str, int], int] = {}
    queue = deque(names)
    while queue:
        name = queue.popleft()
        sections, perm = machine.entry(name)
        for y, w in enumerate(sections):
            if len(w.letters) == 0:
                nxt = "e"
            elif len(w.letters) == 1 and w.letters[0][1] == 1:
                nxt = w.letters[0][0]
            else:
                raise ValueError(
                    f"state {name} has a composite section; export recursions instead"
                )
            transition[name, y] = nxt
            output[name, y] = perm(y)
            if nxt != "e" and nxt not in seen:
                if len(seen) >= MAX_STATES:
                    raise ValueError(
                        f"state closure exceeded {MAX_STATES} states; not exportable"
                    )
                seen.add(nxt)
                names.append(nxt)
                queue.append(nxt)
    return MealyAutomaton(machine.alphabet_size, names, transition, output)
