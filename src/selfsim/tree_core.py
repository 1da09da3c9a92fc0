"""Automorphisms of the rooted m-tree presented by wreath recursion.

A machine assigns every declared state a root permutation and a tuple of m
child words (its sections); an automorphism is a reduced word over the states
of one machine.  Composite and inverse words are handled symbolically by the
section calculus

    (gh)_y = g_y h_{y^{sigma(g)}},      (g^-1)_y = (g_{y^{sigma(g)^-1}})^-1,

so elements of non-finite-state representations remain fully manipulable.

Internally a machine works on code tuples: the state numbered i on first sight
is the code 2i and its inverse the code 2i+1, so inversion is ``c ^ 1``.  The
row of a code holds, for each letter y, the code tuple of its section at y and
the image of y.  One cursor pass along a code word from letter y yields the
section of the word at y and, where the cursor ends, the image of y; the m
passes together give every section and the root permutation.  ``GroupWord``
stays the public type: the module functions encode and decode at the boundary.

Equality of tree automorphisms is undecidable in general; everything here is
depth-bounded, and ``trivial_to_depth`` is the one decision procedure: equality
across two machines is triviality on their disjoint union.  Its memo keys a
word by ``cache_key`` of its class under conjugation and inversion (``_record``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

from .perm_word import GroupWord, Perm

String = tuple[int, ...]
Codes = tuple[int, ...]


class SelfSimilarMachine:
    """Base for wreath-recursion machines.

    Subclasses provide ``_compute_entry(name) -> (sections, perm)`` where
    ``sections`` is a tuple of ``alphabet_size`` words over this machine's
    state names.  ``encode`` turns a word into a code tuple, numbering states
    on first sight, and ``decode`` turns it back; a code's row is compiled from
    ``entry`` the first time a pass reads the code.  The triviality memo keys
    a code tuple by ``cache_key`` of its class representative under
    conjugation and inversion: here the representative itself, while a machine
    with an exact group ``model`` (see ``gdata_engine``) returns the model
    element, which also deduplicates its ``states``.
    """

    model = None

    def __init__(self, alphabet_size: int):
        if alphabet_size < 1:
            raise ValueError("alphabet size must be at least 1")
        self.alphabet_size = alphabet_size
        self.generators: tuple[str, ...] = ()
        self._entries: dict[str, tuple[tuple[GroupWord, ...], Perm]] = {}
        self._codes: dict[object, int] = {}  # state name -> its code 2i
        self._names: list = []  # i -> state name
        # code -> ((section codes at y, image of y) for each letter y), or
        # None until a pass first reads the code
        self._rows: list = []
        # cyclic core or (cache_key of its class, None) -> its record (``_record``)
        self._triv: dict[object, list] = {}

    def entry(self, name: str) -> tuple[tuple[GroupWord, ...], Perm]:
        got = self._entries.get(name)
        if got is None:
            got = self._entries[name] = self._compute_entry(name)
        return got

    def _compute_entry(self, name: str) -> tuple[tuple[GroupWord, ...], Perm]:
        raise NotImplementedError

    def encode(self, word: Iterable) -> Codes:
        """The code tuple of a word's ``(name, sign)`` letters."""
        codes = self._codes
        out = []
        for name, sign in word:
            c = codes.get(name)
            if c is None:
                c = codes[name] = 2 * len(self._names)
                self._names.append(name)
                self._rows += (None, None)
            out.append(c if sign > 0 else c | 1)
        return tuple(out)

    def decode(self, codes: Codes) -> GroupWord:
        names = self._names
        return GroupWord(tuple((names[c >> 1], -1 if c & 1 else 1) for c in codes), reduced=True)

    def _row(self, c: int) -> tuple:
        """Compile the row of ``c``: an inverse code reads its state's entry
        through the inverse permutation and the inverted sections."""
        sections, perm = self.entry(self._names[c >> 1])
        if c & 1:
            perm = perm.inverse()
            sections = [sections[x].inverse() for x in perm.images]
        row = self._rows[c] = tuple(zip(map(self.encode, sections), perm.images))
        return row

    def cache_key(self, codes: Codes) -> object:
        """The triviality memo key of a class representative (``_record``)."""
        return codes

    def automorphism(self, word) -> "Automorphism":
        if isinstance(word, str):
            from .perm_word import parse_word

            word = parse_word(word)
        return Automorphism(self, word)


class TableMachine(SelfSimilarMachine):
    """A machine given by an explicit finite recursion table."""

    def __init__(self, alphabet_size: int, table: dict[str, tuple[Sequence[GroupWord], Perm]]):
        super().__init__(alphabet_size)
        self.generators = tuple(table)
        names = set(table)
        for name, (sections, perm) in table.items():
            sections = tuple(sections)
            if len(sections) != alphabet_size:
                raise ValueError(f"state {name}: expected {alphabet_size} sections")
            if perm.degree != alphabet_size:
                raise ValueError(f"state {name}: root permutation degree mismatch")
            for w in sections:
                for sym, _ in w:
                    if sym not in names:
                        raise ValueError(f"state {name}: undeclared state {sym!r} in section")
            self._entries[name] = (sections, perm)

    def _compute_entry(self, name: str):
        raise ValueError(f"undeclared state: {name!r}")


class _UnionMachine(SelfSimilarMachine):
    """Disjoint union of machines over one alphabet: state ``(i, q)`` is state
    ``q`` of ``sides[i]``, so equal names on different sides stay apart."""

    def __init__(self, sides: Sequence[SelfSimilarMachine]):
        super().__init__(sides[0].alphabet_size)
        self.sides = tuple(sides)

    def _compute_entry(self, name):
        i, q = name
        sections, perm = self.sides[i].entry(q)
        return tuple(_lift(i, w) for w in sections), perm


def _lift(i: int, word: GroupWord) -> GroupWord:
    return GroupWord(tuple(((i, name), sign) for name, sign in word), reduced=True)


class Automorphism:
    """A tree automorphism: a reduced word over the states of one machine."""

    __slots__ = ("machine", "word")

    def __init__(self, machine: SelfSimilarMachine, word: GroupWord = GroupWord.identity()):
        self.machine = machine
        self.word = word

    def root_perm(self) -> Perm:
        return root_perm(self.machine, self.word)

    def section(self, y: int) -> "Automorphism":
        return Automorphism(self.machine, section_word(self.machine, self.word, y))

    def apply(self, string: Iterable[int]) -> String:
        return apply_word(self.machine, self.word, tuple(string))

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        if self.machine is not other.machine:
            raise ValueError("cannot multiply automorphisms of different machines")
        return Automorphism(self.machine, self.word * other.word)

    def inverse(self) -> "Automorphism":
        return Automorphism(self.machine, self.word.inverse())

    def __pow__(self, n: int) -> "Automorphism":
        return Automorphism(self.machine, self.word**n)

    def __repr__(self) -> str:
        return f"Automorphism({self.word!s})"


@dataclass
class Portrait:
    """Root permutations of all sections down to (but excluding) a depth."""

    depth: int
    labels: dict[String, Perm]


@dataclass
class StateSet:
    """Result of a depth-bounded state enumeration."""

    states: list[Automorphism]
    truncated: bool

    def __len__(self) -> int:
        return len(self.states)


def _pass(machine: SelfSimilarMachine, codes: Codes, y: int) -> tuple[Codes, int]:
    """The section of a code word at ``y`` and the image of ``y``."""
    rows = machine._rows
    out: list = []
    extend = out.extend
    pop = out.pop
    cur = y
    for c in codes:
        sec, cur = (rows[c] or machine._row(c))[cur]
        if not sec:
            continue
        if out and out[-1] == sec[0] ^ 1:
            # sec is reduced, so once one of its letters stays, the rest stay
            i = 0
            while i < len(sec) and out and out[-1] == sec[i] ^ 1:
                pop()
                i += 1
            extend(sec[i:])
        else:
            extend(sec)
    return tuple(out), cur


def _expand(machine: SelfSimilarMachine, codes: Codes) -> Optional[tuple[Codes, ...]]:
    """All sections of a code word, or None once a cursor ends away from its start."""
    secs = []
    for y in range(machine.alphabet_size):
        sec, end = _pass(machine, codes, y)
        if end != y:
            return None
        secs.append(sec)
    return tuple(secs)


def root_perm(machine: SelfSimilarMachine, word: GroupWord) -> Perm:
    codes = machine.encode(word)
    return Perm(_pass(machine, codes, y)[1] for y in range(machine.alphabet_size))


def section_word(machine: SelfSimilarMachine, word: GroupWord, y: int) -> GroupWord:
    if not 0 <= y < machine.alphabet_size:
        raise ValueError(f"letter {y} out of range for alphabet of {machine.alphabet_size}")
    return machine.decode(_pass(machine, machine.encode(word), y)[0])


def _walk(machine: SelfSimilarMachine, codes: Codes, string: String) -> tuple[Codes, String]:
    """The section of a code word at ``string`` and the image of ``string``."""
    out = []
    for y in string:
        codes, image = _pass(machine, codes, y)
        out.append(image)
    return codes, tuple(out)


def apply_word(machine: SelfSimilarMachine, word: GroupWord, string: String) -> String:
    for y in string:
        if not 0 <= y < machine.alphabet_size:
            raise ValueError(f"letter {y} out of range")
    return _walk(machine, machine.encode(word), string)[1]


def trivial_to_depth(machine: SelfSimilarMachine, word, depth: int) -> bool:
    """True iff the word fixes every string of length <= depth.

    Synchronised recursive descent with one per-machine memo (see
    ``_record``), rather than enumeration of all m^depth strings.  Depth 0
    holds for every word; a negative depth is an error.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if isinstance(word, Automorphism):
        word = word.word
    return _trivial(machine, machine.encode(word), depth)


def _cyclic_core(codes: Codes) -> Codes:
    """A reduced code word with the ``c .. c^1`` pairs stripped from its ends."""
    i, j = 0, len(codes) - 1
    while i < j and codes[i] == codes[j] ^ 1:
        i += 1
        j -= 1
    return codes[i : j + 1] if i else codes


def _least_rotation(codes: Codes) -> Codes:
    """The lexicographically least rotation of a code word, by the linear
    two-pointer scan (the least circular substring of Booth 1980)."""
    n = len(codes)
    twice = codes + codes
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = twice[i + k], twice[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i = max(i + k + 1, j)
            j = i + 1
        else:
            j += k + 1
        k = 0
    return twice[i : i + n]


def _class_key(codes: Codes) -> Codes:
    """The conjugacy-and-inversion class of a reduced code word: the smaller of
    the least rotations of its cyclic core and of that core's inverse."""
    core = _cyclic_core(codes)
    return min(_least_rotation(core), _least_rotation(tuple(c ^ 1 for c in reversed(core))))


def _record(machine: SelfSimilarMachine, codes: Codes) -> list:
    """The memo record of a nonempty code word: ``[deepest depth proven trivial,
    shallowest depth seen nontrivial, section code tuples or None when the root
    moves]``.

    A tree automorphism preserves levels, so a word, its conjugates and its
    inverse fix the same strings to every depth.  A word is looked up by its
    cyclic core; a new core keys its record by ``machine.cache_key`` of its
    class representative (for a machine with a model, the element), shared by
    every core of the class, and expands the core, a shortest word of the class.
    """
    memo = machine._triv
    core = _cyclic_core(codes)
    got = memo.get(core)
    if got is None:
        # a pair holding None never equals a code tuple
        key = (machine.cache_key(_class_key(core)), None)
        got = memo.get(key)
        if got is None:
            secs = _expand(machine, core)
            got = memo[key] = [0, None if secs else 1, secs]
        memo[core] = got
    return got


def _trivial(machine: SelfSimilarMachine, codes: Codes, d: int) -> bool:
    if d <= 0 or not codes:
        return True
    status = _record(machine, codes)
    if status[1] is not None and d >= status[1]:
        return False
    if status[0] >= d:
        return True
    for sec in status[2]:
        if not _trivial(machine, sec, d - 1):
            if status[1] is None or d < status[1]:
                status[1] = d
            return False
    status[0] = d
    return True


def equal_to_depth(a: Automorphism, b: Automorphism, depth: int) -> bool:
    """True iff a and b act identically on all strings of length <= depth."""
    if a.machine is b.machine:
        return trivial_to_depth(a.machine, a.word * b.word.inverse(), depth)
    if a.machine.alphabet_size != b.machine.alphabet_size:
        raise ValueError("cannot compare automorphisms over different alphabets")
    # where a and b agree at the root, (a b^-1)_y = a_y b_y^-1: exact, not an approximation
    union = _UnionMachine((a.machine, b.machine))
    return trivial_to_depth(union, _lift(0, a.word) * _lift(1, b.word).inverse(), depth)


def portrait(a: Automorphism, depth: int) -> Portrait:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    machine = a.machine
    labels: dict[String, Perm] = {}
    frontier: list[tuple[String, Codes]] = [((), machine.encode(a.word))]
    for _ in range(depth):
        next_frontier = []
        for path, codes in frontier:
            passes = [_pass(machine, codes, y) for y in range(machine.alphabet_size)]
            labels[path] = Perm(image for _, image in passes)
            next_frontier.extend((path + (y,), sec) for y, (sec, _) in enumerate(passes))
        frontier = next_frontier
    return Portrait(depth, labels)


def states(a: Automorphism, max_states: int, sep_depth: int) -> StateSet:
    """BFS closure of ``a`` under sections, deduplicated exactly (model) or to depth.

    Stops with ``truncated=True`` once more than ``max_states`` classes appear;
    a truncated result is expected for non-finite-state automorphisms.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    if sep_depth < 1:
        raise ValueError("sep_depth must be at least 1")
    machine = a.machine
    reps: list[Automorphism] = []
    keys: set = set()
    queue = deque([a.word])
    while queue:
        word = queue.popleft()
        if machine.model is not None:
            key = machine.cache_key(machine.encode(word))
            if key in keys:
                continue
            keys.add(key)
        else:
            if any(
                trivial_to_depth(machine, word * r.word.inverse(), sep_depth) for r in reps
            ):
                continue
        if len(reps) == max_states:
            return StateSet(reps, True)
        reps.append(Automorphism(machine, word))
        for y in range(machine.alphabet_size):
            queue.append(section_word(machine, word, y))
    return StateSet(reps, False)


def orbit_type(machine: SelfSimilarMachine) -> tuple[int, ...]:
    """Orbit sizes of the group generated by the root permutations of the
    machine's generators, ordered by each orbit's minimal letter."""
    if not machine.generators:
        raise ValueError("orbit_type needs at least one generator")
    m = machine.alphabet_size
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for name in machine.generators:
        p = root_perm(machine, GroupWord.gen(name))
        for i in range(m):
            ri, rj = find(i), find(p(i))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    orbits: dict[int, int] = {}
    for i in range(m):
        orbits[find(i)] = orbits.get(find(i), 0) + 1
    return tuple(size for _, size in sorted(orbits.items()))


def format_orbit_type(sizes: Sequence[int]) -> str:
    return "(" + ",".join(str(s) for s in sizes) + ")"


def inflate(machine: SelfSimilarMachine, k: int) -> TableMachine:
    """Re-read a degree-m machine as a machine on length-k blocks (degree m^k).

    Blocks are ordered big-endian: block (y_1..y_k) is letter sum(y_i * m^(k-i)).
    """
    if k < 1:
        raise ValueError("inflation level must be at least 1")
    m = machine.alphabet_size
    blocks = list(product(range(m), repeat=k))
    index = {b: i for i, b in enumerate(blocks)}
    table: dict[str, tuple[list[GroupWord], Perm]] = {}
    for name in machine.generators:
        codes = machine.encode(GroupWord.gen(name))
        walks = [_walk(machine, codes, b) for b in blocks]
        sections = [machine.decode(sec) for sec, _ in walks]
        table[name] = (sections, Perm(index[image] for _, image in walks))
    return TableMachine(m**k, table)


def find_moving_string(a: Automorphism, max_depth: int) -> Optional[String]:
    """A shortest string moved by ``a``, or None if trivial to ``max_depth``."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    machine = a.machine
    for k in range(1, max_depth + 1):
        if not trivial_to_depth(machine, a.word, k):
            return _extract_witness(machine, machine.encode(a.word), k)
    return None


def _extract_witness(machine: SelfSimilarMachine, codes: Codes, k: int) -> String:
    passes = [_pass(machine, codes, y) for y in range(machine.alphabet_size)]
    for y, (_, image) in enumerate(passes):
        if image != y:
            return (y,)
    for y, (sec, _) in enumerate(passes):
        if not _trivial(machine, sec, k - 1):
            return (y,) + _extract_witness(machine, sec, k - 1)
    raise AssertionError("witness extraction reached a trivial subtree")
