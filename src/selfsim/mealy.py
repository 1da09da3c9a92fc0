"""Finite Mealy automata: tree machines whose sections are single states.

A Mealy automaton is a ``TableMachine`` in which every section is ``e`` or one
state; ``parse`` reads such a table from text and ``emit`` writes it back.
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

from .perm_word import _NAME_RE, GroupWord, Perm
from .tree_core import MAX_STATES, SelfSimilarMachine, TableMachine, closure
from .gdata_engine import build_representation
from .wreath_models import MAX_NAMED_COPIES, cp_wr_z2_data, thmD

_ITEM_RE = re.compile(r"(\d+)\s*->\s*(\d+)\s+([A-Za-z_][A-Za-z0-9_]*)\Z")

Row = list[tuple[int, str]]  # (output letter, next state) for each input letter


def _table(m: int, rows: dict[str, Row]) -> TableMachine:
    """The machine whose state q writes ``rows[q][y][0]`` and moves to ``rows[q][y][1]``."""
    table = {}
    for q, row in rows.items():
        sections = [GroupWord.identity() if nxt == "e" else GroupWord.gen(nxt) for _, nxt in row]
        table[q] = (sections, Perm(out for out, _ in row))
    return TableMachine(m, table)


def parse(text: str) -> TableMachine:
    alphabet = None
    states: dict[str, Row] = {}
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
        head, colon, body = line[len("state ") :].partition(":")
        name = head.strip()
        if not colon:
            raise ValueError(f"line {lineno}: missing ':' after state name")
        if name != "e" and not _NAME_RE.match(name):
            raise ValueError(f"line {lineno}: invalid state name {name!r}")
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
        if len({out for out, _ in rows.values()}) != alphabet:
            raise ValueError(f"line {lineno}: outputs of state {name} are not a permutation")
        states[name] = [rows[y] for y in range(alphabet)]
    if alphabet is None:
        raise ValueError("empty automaton file")
    if not stated:
        raise ValueError("no state line after the alphabet line")
    return _table(alphabet, states)


def emit(machine: TableMachine) -> str:
    """The file text of a table whose sections are single states (``machine_to_mealy``)."""
    m = machine.alphabet_size
    lines = [f"alphabet {m}"]
    lines.append("state e: " + ", ".join(f"{y}->{y} e" for y in range(m)))
    for q in machine.generators:
        sections, perm = machine.entry(q)
        items = ", ".join(f"{y}->{perm(y)} {w}" for y, w in enumerate(sections))
        lines.append(f"state {q}: {items}")
    return "\n".join(lines) + "\n"


def to_dot(machine: TableMachine) -> str:
    """Deterministic DOT export; parallel edges are merged and labelled 'in|out'."""
    m = machine.alphabet_size
    lines = ["digraph {", '  e [shape=doublecircle];']
    for q in machine.generators:
        lines.append(f"  {q} [shape=circle];")
    lines.append(f'  e -> e [label="{", ".join(f"{y}|{y}" for y in range(m))}"];')
    for q in machine.generators:
        sections, perm = machine.entry(q)
        groups: dict[str, list[str]] = {}  # in the order each edge first appears
        for y, w in enumerate(sections):
            groups.setdefault(str(w), []).append(f"{y}|{perm(y)}")
        for dst, labels in groups.items():
            lines.append(f'  {q} -> {dst} [label="{", ".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def adding_machine() -> TableMachine:
    """The binary odometer a = (e, a)(0 1)."""
    return _table(2, {"a": [(1, "e"), (0, "a")]})


def diagram1() -> TableMachine:
    """3-letter, 3-state automaton: a = (e, a, e)(0 1), g = (g, e, a)."""
    return _table(
        3,
        {
            "a": [(1, "e"), (0, "a"), (2, "e")],
            "g": [(0, "g"), (1, "e"), (2, "a")],
        },
    )


def diagram2(n: int) -> TableMachine:
    """First n generators of the chain a1 = (e, a1, e)(0 1), ai = (ai, ai, a(i-1))."""
    if not 1 <= n <= MAX_NAMED_COPIES:
        raise ValueError(f"diagram2 needs 1 <= n <= {MAX_NAMED_COPIES}")
    rows = {"a1": [(1, "e"), (0, "a1"), (2, "e")]}
    for i in range(2, n + 1):
        rows[f"a{i}"] = [(0, f"a{i}"), (1, f"a{i}"), (2, f"a{i - 1}")]
    return _table(3, rows)


def diagram3() -> TableMachine:
    """5-state, 4-letter automaton: s = (0 2)(1 3), a = (e, a, e, e)(0 1),
    as = (e, e, e, a)(2 3), g = (g, e, as, as)."""
    return _table(
        4,
        {
            "s": [(2, "e"), (3, "e"), (0, "e"), (1, "e")],
            "a": [(1, "e"), (0, "a"), (2, "e"), (3, "e")],
            "as": [(0, "e"), (1, "e"), (3, "e"), (2, "a")],
            "g": [(0, "g"), (1, "e"), (2, "as"), (3, "as")],
        },
    )


def brunner_sidki_pair() -> TableMachine:
    """Binary pair a = (e, u)(0 1), at = (v, e) with u = (a, e), v = (at, a).

    The depth-one states u and v encode the level-two recursion; the
    2-inflation of this machine is a degree-4 representation whose group is
    the wreath product of two infinite cyclic groups.
    """
    return _table(
        2,
        {
            "a": [(1, "e"), (0, "u")],
            "u": [(0, "a"), (1, "e")],
            "at": [(0, "v"), (1, "e")],
            "v": [(0, "at"), (1, "a")],
        },
    )


def prop31(l: int, d: int) -> TableMachine:
    """Machine for the wreath product of Z^l by Z^d (degree 4; degree 3 when d = 1).

    Base states g1..gl, top states a1..ad; base indices wrap cyclically
    (g0 = gl, a0 = ad).
    """
    if not (1 <= l <= MAX_NAMED_COPIES and 1 <= d <= MAX_NAMED_COPIES):
        raise ValueError(f"prop31 needs 1 <= l, d <= {MAX_NAMED_COPIES}")

    def g(i: int) -> str:
        return f"g{(i - 1) % l + 1}"

    def a(i: int) -> str:
        return f"a{(i - 1) % d + 1}"

    rows: dict[str, Row] = {}
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
    return _table(4 if d >= 2 else 3, rows)


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
    "thmD-engine": (lambda p: build_representation(cp_wr_z2_data(p)), "thmD-engine(p)"),
    "prop31": (prop31, "prop31(l,d)"),
}


def builtin_machine(name: str) -> SelfSimilarMachine:
    """A built-in machine by name, e.g. ``diagram2(3)`` or ``thmD(2)``."""
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


def machine_to_mealy(machine: SelfSimilarMachine) -> TableMachine:
    """Close a machine under sections into a table whose sections are single states.

    The closure runs over state codes and their rows; only the states of the
    returned table are decoded (``entry``).  Requires every section to be a
    single state or the identity; raises for composite sections and when a
    state beyond the generators would take the closure past ``MAX_STATES``
    (expected for non-finite-state machines).  On an engine the chains of its
    index-1 endomorphisms are counted first (``_chains_exceed``): where they
    alone pass the bound, it raises before any state is named or row compiled.
    """
    if machine.model is not None and machine._chains_exceed(MAX_STATES):
        raise ValueError(f"state closure exceeded {MAX_STATES} states; not exportable")
    rows, names = machine._rows, machine._names

    def successors(c: int):  # one section at a time, so a composite one is reported in order
        for sec, _ in rows[c] or machine._row(c):
            if len(sec) > 1 or sec and sec[0] & 1:
                raise ValueError(f"state {names[c >> 1]} has a composite section; export recursions instead")
            yield from sec

    found, more = closure([machine._codes[g] for g in machine.generators], successors, MAX_STATES)
    if more:
        raise ValueError(f"state closure exceeded {MAX_STATES} states; not exportable")
    return TableMachine(machine.alphabet_size, {names[c >> 1]: machine.entry(names[c >> 1]) for c in found})
