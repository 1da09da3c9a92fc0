"""Automorphisms of the rooted m-tree presented by wreath recursion.

A machine assigns every declared state a root permutation and a tuple of m
child words (its sections); an automorphism is a reduced word over the states
of one machine.  Composite and inverse words are handled symbolically by the
section calculus

    (gh)_y = g_y h_{y^{sigma(g)}},      (g^-1)_y = (g_{y^{sigma(g)^-1}})^-1,

so elements of non-finite-state representations remain fully manipulable.

Internally a machine works on code tuples: the state numbered i is the code 2i
and its inverse the code 2i+1, so inversion is ``c ^ 1``.  The row of a code
holds, for each letter y, the code tuple of its section at y and the image of y.
It is the one compiled form of a state, and ``entry`` is the row decoded: each
machine compiles rows through ``_compile``, a table at construction, a union
from its sides' rows, an engine from its model element (``gdata_engine``).  One
cursor pass along a code word from letter y yields the section of the word at y
and, where the cursor ends, the image of y.  A code's root permutation alone is
``_perm``: read from the row here, while an engine reads it without compiling
the row, so sections are made only where they are read; ``root_perm`` composes
the codes' permutations.  ``GroupWord`` stays the public type: the module
functions encode and decode at the boundary.

``closure`` is the one bounded breadth-first walk: state enumeration, orbit
types, inflation, Mealy export and recursion listings all use it, and each
stops at the first state past its bound.

Equality of tree automorphisms is undecidable in general; everything here is
depth-bounded, and ``trivial_to_depth`` is the one decision procedure: equality
across two machines is triviality on their disjoint union.  Its memo keys a
word by ``cache_key`` of its class under conjugation and inversion (``_trivial``).
Near the leaves it needs no memo: a word acts on the m^k strings of length k as
a permutation, which fits a byte table while m^k <= 256.  The machine's leaf is
the deepest such k, at most 8 (5 for m = 3, 4 for m = 4, 8 for m = 2, 0 past 256
letters).  Every depth up to it is decided by composing per-code level tables
with ``bytes.translate`` (``_level``), each derived once: at level 1 from the
code's root permutation (``_perm``), deeper from its row.  Depth ``leaf + 1``
is decided from per-code tables of sections at the leaf, its verdict kept by
``cache_key`` of the word's cyclic core (at leaf 0, depth 1 by the root
permutation alone, and nothing kept); records are made from depth
``leaf + 2``.  An engine of degree 7 or more keeps leaf 1 (see
``gdata_engine.EngineMachine``).
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import chain, product
from typing import Iterable, NamedTuple, Optional, Sequence

from .perm_word import GroupWord, Perm, parse_word

String = tuple[int, ...]
Codes = tuple[int, ...]

# the most states a closure (``inflate``, a Mealy export, a recursion listing)
# may reach before it is taken for a machine that is not finite-state; one that
# starts from more states keeps them all and may reach no other
MAX_STATES = 512
# the most letters of an inflated alphabet (m^k blocks of length k) and of a block
MAX_LETTERS = 65536
# the identity level table (``_level``): every byte fixed
_IDENTITY = bytes(range(256))


class SelfSimilarMachine:
    """Base for wreath-recursion machines.

    A subclass gives each state its row, the one compiled form of the state:
    ``_compile(c)`` returns the row of even code c (a table writes its rows at
    construction instead), and ``_row`` keeps it from the first read and
    derives the inverse row; ``_perm(c)`` is the root permutation of code c,
    read from the row here (an engine reads it without the row, see
    ``gdata_engine``).  ``encode`` turns a word into a code tuple,
    numbering states on first sight, and ``decode`` turns it back; ``entry``
    decodes a state's row into ``(sections, perm)``, ``sections`` a tuple of
    ``alphabet_size`` words over this machine's state names.  The triviality
    memo keys a code tuple by ``cache_key`` of its class representative under
    conjugation and inversion: here the representative itself, while a
    machine with an exact group ``model`` (see ``gdata_engine``) returns the
    model element, which also deduplicates its ``states``.  Depths up to
    ``_leaf`` (log_m 256, at most 8; 1 for an engine of degree > 6) are
    decided by level tables derived from the root permutations at level 1 and
    from the rows deeper, without the memo.  Depth ``_leaf + 1`` is decided
    from the level-leaf tables of each code's sections, and its verdict is
    kept by ``cache_key`` of the cyclic core itself (at leaf 0 depth 1 is
    decided by the root permutation and nothing is kept); the memo holds
    records from depth ``_leaf + 2`` down.
    """

    model = None

    def __init__(self, alphabet_size: int):
        if alphabet_size < 1:
            raise ValueError("alphabet size must be at least 1")
        self.alphabet_size = alphabet_size
        self.generators: tuple[str, ...] = ()
        self._codes: dict[object, int] = {}  # state name -> its code 2i
        self._names: list = []  # i -> state name
        # code -> ((section codes at y, image of y) for each letter y), or
        # None until a pass first reads the code
        self._rows: list = []
        # cyclic core or (cache_key of its class, None) -> its record, from
        # depth leaf + 2 (``_trivial``)
        self._triv: dict[object, list] = {}
        # cache_key of a cyclic core -> its depth-(leaf + 1) verdict, 0 where
        # it moves (``_trivial``), and code -> the level-leaf table of its
        # section at each letter, or None until first read (``_section_verdict``)
        self._verdicts: dict[object, float] = {}
        self._section_tables: dict[int, list] = {}
        # the deepest level whose m^k strings fit a byte table, at most 8, and
        # for each level k up to it: code -> its level-k table (``_level``)
        self._leaf = max(k for k in range(9) if alphabet_size**k <= 256)
        self._levels: list[dict[int, bytes]] = [{} for _ in range(self._leaf + 1)]

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

    def entry(self, name) -> tuple[tuple[GroupWord, ...], Perm]:
        """A state's row, decoded into section words and a root permutation."""
        c = self._codes.get(name)
        if c is None:
            raise ValueError(f"undeclared state: {name!r}")
        row = self._row(c)
        return tuple(self.decode(sec) for sec, _ in row), Perm(y for _, y in row)

    def _compile(self, c: int) -> tuple:
        """The row of the state of even code ``c``; here no state has one."""
        raise ValueError(f"undeclared state: {self._names[c >> 1]!r}")

    def _perm(self, c: int) -> tuple[int, ...]:
        """The root permutation of ``c``, image of each letter, read from its row."""
        return tuple(y for _, y in self._rows[c] or self._row(c))

    def _row(self, c: int) -> tuple:
        """The row of ``c``.  A state's row is written when its machine is
        built or by ``_compile`` on first read; where the state sends x to y
        with section w, its inverse sends y to x with section w^-1."""
        row = self._rows[c & ~1]
        if row is None:
            row = self._rows[c & ~1] = self._compile(c & ~1)
        if c & 1:
            inverse = [None] * len(row)
            for x, (sec, y) in enumerate(row):
                inverse[y] = (tuple(d ^ 1 for d in reversed(sec)), x)
            row = self._rows[c] = tuple(inverse)
        return row

    def cache_key(self, codes: Codes) -> object:
        """The triviality memo key of a class representative (``_trivial``)."""
        return codes

    def automorphism(self, word) -> "Automorphism":
        if isinstance(word, str):
            word = parse_word(word)
        return Automorphism(self, word)


class TableMachine(SelfSimilarMachine):
    """A machine given by an explicit finite recursion table, encoded when built."""

    def __init__(self, alphabet_size: int, table: dict[str, tuple[Sequence[GroupWord], Perm]]):
        super().__init__(alphabet_size)
        self.generators = tuple(table)
        self.encode((name, 1) for name in table)  # the declared states take codes 0, 2, ..
        for name, (sections, perm) in table.items():
            secs = tuple(map(self.encode, sections))
            if len(secs) != alphabet_size:
                raise ValueError(f"state {name}: expected {alphabet_size} sections")
            if perm.degree != alphabet_size:
                raise ValueError(f"state {name}: root permutation degree mismatch")
            undeclared = self._names[len(table) :]  # in the order the sections name them
            if undeclared:
                raise ValueError(f"state {name}: undeclared state {undeclared[0]!r} in section")
            self._rows[self._codes[name]] = tuple(zip(secs, perm.images))


class _UnionMachine(SelfSimilarMachine):
    """Disjoint union of machines over one alphabet: state ``(i, q)`` is state
    ``q`` of ``sides[i]``, so equal names on different sides stay apart."""

    def __init__(self, sides: Sequence[SelfSimilarMachine]):
        super().__init__(sides[0].alphabet_size)
        self.sides = tuple(sides)

    def _compile(self, c: int) -> tuple:
        """The row of state ``(i, q)``: the row of ``q`` on side i, lifted."""
        i, q = self._names[c >> 1]
        side = self.sides[i]
        row = side._row(side.encode(((q, 1),))[0])
        return tuple((self.encode(_lift(i, side.decode(sec))), y) for sec, y in row)

    def _perm(self, c: int) -> tuple[int, ...]:
        """The root permutation of ``(i, q)`` or its inverse, read from side i,
        so neither the union nor an engine side compiles a row for it."""
        i, q = self._names[c >> 1]
        side = self.sides[i]
        return side._perm(side.encode(((q, 1),))[0] | (c & 1))


def _lift(i: int, word: GroupWord) -> GroupWord:
    return GroupWord(tuple(((i, name), sign) for name, sign in word), reduced=True)


class Automorphism:
    """A tree automorphism: a reduced word over the states of one machine,
    equal to the same word over the same machine (``equal_to_depth`` compares actions)."""

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

    def __eq__(self, other: object) -> bool:
        same_machine = isinstance(other, Automorphism) and self.machine is other.machine
        return same_machine and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"Automorphism({self.word!s})"


class _Decoded(Sequence):
    """Read-only states over a closure's code tuples: each read, iteration
    included (``Sequence`` iterates through ``__getitem__``), decodes a fresh
    ``Automorphism``, so a caller that reads only the length decodes nothing.
    Membership, ``index`` and ``count`` are ``Sequence``'s, through
    ``Automorphism`` equality: the same word over the same machine."""

    __slots__ = ("machine", "codes")

    def __init__(self, machine: SelfSimilarMachine, codes: list[Codes]):
        self.machine = machine
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> Automorphism:
        return Automorphism(self.machine, self.machine.decode(self.codes[operator.index(i)]))

    def __repr__(self) -> str:
        return repr(list(self))


class StateSet(NamedTuple):
    """Result of a depth-bounded state enumeration.  Each item read from
    ``states`` decodes a fresh ``Automorphism`` (see ``states``)."""

    states: Sequence[Automorphism]
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


def _level(machine: SelfSimilarMachine, codes: Codes, k: int) -> bytes:
    """The action of a code word on the m^k strings of length k <= ``_leaf``:
    byte s is the big-endian number of the image of string s.  A code's table
    is derived once: at level 1 from its root permutation (``_perm``), which
    reads no section, and deeper from its row and the level-(k-1) actions of
    its sections; ``translate`` wants 256 bytes, so the table fixes the bytes
    past m^k.  The word composes its codes' tables, one ``translate`` each."""
    n = machine.alphabet_size ** (k - 1)
    action = _IDENTITY[: n * machine.alphabet_size]
    tables = machine._levels[k]
    for c in codes:
        table = tables.get(c)
        if table is None:
            if k == 1:
                table = bytes(machine._perm(c))
            else:
                table = bytearray()
                # string x r, in the order of x's entries in the row, goes to the
                # image of x followed by the image of r under the section at x: the
                # identity rotated by image m^(k-1) adds that to each byte of below
                for sec, image in machine._rows[c] or machine._row(c):
                    rotated = _IDENTITY[image * n :] + _IDENTITY[: image * n]
                    table += _level(machine, sec, k - 1).translate(rotated)
            table = tables[c] = bytes(table) + _IDENTITY[len(table) :]
        action = action.translate(table)
    return action


def _root(machine: SelfSimilarMachine, codes: Codes) -> Sequence[int]:
    """The image of each letter under the composed root permutations of the
    codes (``_perm``): their level-1 table where there is a leaf, else one by
    one.  No section is read."""
    if machine._leaf:
        return _level(machine, codes, 1)
    images: Sequence[int] = range(machine.alphabet_size)
    for c in codes:
        perm = machine._perm(c)
        images = [perm[x] for x in images]
    return images


def root_perm(machine: SelfSimilarMachine, word: GroupWord) -> Perm:
    """The root permutation of a word (``_root``)."""
    return Perm(_root(machine, machine.encode(word)))


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
    """The image of a string, each letter checked against the alphabet."""
    for y in string:
        if not 0 <= y < machine.alphabet_size:
            raise ValueError(f"letter {y} out of range for alphabet of {machine.alphabet_size}")
    return _walk(machine, machine.encode(word), string)[1]


def trivial_to_depth(machine: SelfSimilarMachine, word, depth: int) -> bool:
    """True iff the word fixes every string of length <= depth.

    Synchronised recursive descent with one per-machine memo (see
    ``_trivial``), rather than enumeration of all m^depth strings.  Depth 0
    holds for every word, and a depth up to the machine's leaf (log_m 256,
    at most 8, and 1 for an engine of degree > 6) is decided from the level
    table of the word (``_level``), without a memo record; depth leaf + 1
    from the level-leaf tables of the sections of its codes, keeping only the
    verdict (at leaf 0, depth 1 from the root permutation, keeping nothing);
    records start at depth leaf + 2.  A negative depth is an error.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return _trivial(machine, machine.encode(word), depth) is not None


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


def _trivial(machine: SelfSimilarMachine, codes: Codes, d: int) -> Optional[float]:
    """The depth to which a code word is proven to fix every string, at least
    d, or None where it moves a string of length <= d (0 is an answer: test
    ``is None``): d for d <= 0, ``inf`` for the empty word, d up to the leaf
    by level tables (``_level``), which write nothing.  Deeper, a word is read
    by its cyclic core, a conjugate, as tree automorphisms preserve levels.
    At leaf + 1 the answer is the verdict of ``_section_verdict``, kept under
    ``cache_key`` of the core (on a machine with a model, its element).
    Deeper, it is the depth of the memo record ``[deepest depth proven
    trivial, section code tuples or None when the root moves]`` of its class,
    which a word, its conjugates and its inverse share: a new core keys it by
    ``cache_key`` of its class representative, and expands the core, a
    shortest word of the class, up to the first cursor pass that ends away
    from its start.  A new record is proven at every depth (``inf``) where
    exact: the core fixes the root and leaves no section, or its class key is
    the empty word's (a model's identity)."""
    if d <= 0:
        return d
    if not codes:
        return float("inf")
    if d <= machine._leaf:
        action = _level(machine, codes, d)
        return d if action == _IDENTITY[: len(action)] else None
    core = _cyclic_core(codes)
    if d == machine._leaf + 1:
        verdicts = machine._verdicts
        key = machine.cache_key(core)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = _section_verdict(machine, core, key)
            if machine._leaf:  # past 256 letters cores are long and many: keep none
                verdicts[key] = verdict
        return verdict or None
    memo = machine._triv
    record = memo.get(core)
    if record is None:
        # a pair holding None never equals a code tuple
        key = (machine.cache_key(_class_key(core)), None)
        record = memo.get(key)
        if record is None:
            secs: Optional[list] = []
            for y in range(machine.alphabet_size):
                sec, end = _pass(machine, core, y)
                if end != y:
                    secs = None
                    break
                secs.append(sec)
            exact = secs is not None and not any(secs)
            exact = exact or key[0] == machine.cache_key(())
            record = memo[key] = [float("inf") if exact else 0, secs]
        memo[core] = record
    if record[0] >= d:
        return record[0]
    if record[1] is None:
        return None
    for sec in record[1]:
        if _trivial(machine, sec, d - 1) is None:
            return None
    record[0] = d
    return d


def _section_verdict(machine: SelfSimilarMachine, core: Codes, key: object) -> float:
    """The depth-(leaf + 1) verdict on a nonempty cyclic core of memo key
    ``key``: 0 where it moves a string, ``inf`` where exact (the key is the
    empty word's, or the root is fixed and every code's section along the
    cursors is empty), else leaf + 1.  A word fixes level leaf + 1 iff it
    fixes the root and each section fixes level leaf, so the cursor from each
    letter composes the level-leaf tables of the codes' sections there, kept
    per code and letter from first use: no class key, cursor pass or section
    word.  At leaf 0 the root alone decides depth 1."""
    if key == machine.cache_key(()):
        return float("inf")
    if any(y != image for y, image in enumerate(_root(machine, core))):
        return 0
    m, leaf = machine.alphabet_size, machine._leaf
    if not leaf:
        return 1
    n = m**leaf
    identity = _IDENTITY[:n]
    rows, tables = machine._rows, machine._section_tables
    exact = True
    for y in range(m):
        action, cur = identity, y
        for c in core:
            sec, image = (rows[c] or machine._row(c))[cur]
            if sec:
                exact = False
                slots = tables.get(c)
                if slots is None:
                    slots = tables[c] = [None] * m
                table = slots[cur]
                if table is None:
                    table = slots[cur] = _level(machine, sec, leaf) + _IDENTITY[n:]
                action = action.translate(table)
            cur = image
        if action != identity:
            return 0
    return float("inf") if exact else leaf + 1


def equal_to_depth(a: Automorphism, b: Automorphism, depth: int) -> bool:
    """True iff a and b act identically on all strings of length <= depth."""
    if a.machine is b.machine:
        return trivial_to_depth(a.machine, a.word * b.word.inverse(), depth)
    if a.machine.alphabet_size != b.machine.alphabet_size:
        raise ValueError("cannot compare automorphisms over different alphabets")
    # where a and b agree at the root, (a b^-1)_y = a_y b_y^-1: exact, not an approximation
    union = _UnionMachine((a.machine, b.machine))
    return trivial_to_depth(union, _lift(0, a.word) * _lift(1, b.word).inverse(), depth)


def portrait(a: Automorphism, depth: int) -> dict[String, Perm]:
    """The root permutation at every vertex above ``depth``, keyed by vertex
    breadth first, lex within a level; raises when these m^0 + .. +
    m^(depth-1) vertices exceed ``MAX_LETTERS``."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    machine = a.machine
    vertices, level = 0, 1
    for _ in range(depth):  # stops within MAX_LETTERS + 1 levels, also for m = 1
        vertices += level
        if vertices > MAX_LETTERS:
            raise ValueError(f"a depth-{depth} portrait exceeds the limit of {MAX_LETTERS} vertices")
        level *= machine.alphabet_size
    labels: dict[String, Perm] = {}
    frontier: list[tuple[String, Codes]] = [((), machine.encode(a.word))]
    for _ in range(depth):
        next_frontier = []
        for path, codes in frontier:
            passes = [_pass(machine, codes, y) for y in range(machine.alphabet_size)]
            labels[path] = Perm(image for _, image in passes)
            next_frontier.extend((path + (y,), sec) for y, (sec, _) in enumerate(passes))
        frontier = next_frontier
    return labels


def closure(starts: Sequence, successors, limit: int, key=None) -> tuple[list, bool]:
    """The first ``limit`` items reached breadth first from ``starts``, keeping
    the first of each ``key`` (the item itself by default), and whether more
    are reachable.  The starts are never cut: the limit is at least their
    number.  It returns on first seeing item ``limit + 1``, so ``successors``
    runs only on items the answer needs."""
    limit = max(limit, len(starts))
    found: list = []
    seen: set = set()
    # the inner loop reads ``found`` while the outer one appends to it
    for item in chain(starts, (nxt for got in found for nxt in successors(got))):
        k = item if key is None else key(item)
        if k not in seen:
            if len(found) == limit:
                return found, True
            seen.add(k)
            found.append(item)
    return found, False


def states(a: Automorphism, max_states: int, sep_depth: int) -> StateSet:
    """BFS closure of ``a`` under sections, deduplicated exactly (model) or to depth.

    On a machine with a model a section is kept by its element, ``cache_key``,
    which the machine computes once per distinct code tuple; on a table, by
    the first kept word acting like it to ``sep_depth``, found once per
    distinct code tuple within the call.  Stops with
    ``truncated=True`` at the first state past ``max_states``; a truncated
    result is expected for non-finite-state automorphisms.  A word of one
    state expands from its row, as its m cursor passes would; a longer word
    takes m cursor passes (``_pass``).  The result keeps
    the found code tuples: each read of an item of ``states`` decodes a fresh
    ``Automorphism``, and ``len`` and ``truncated`` decode nothing.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    if sep_depth < 1:
        raise ValueError("sep_depth must be at least 1")
    machine = a.machine
    if machine.model is not None:
        key = machine.cache_key
    else:
        level = min(sep_depth, machine._leaf)  # words alike to sep_depth are alike at level
        kept: dict[object, list[Codes]] = {}

        @cache  # a repeated code tuple gets the same kept word
        def key(codes: Codes) -> Codes:  # the first kept word acting like codes to sep_depth
            # at leaf 0 the bucket is the image of letter 0, alike for words alike to depth 1
            bucket = _level(machine, codes, level) if level else _pass(machine, codes, 0)[1]
            same = kept.setdefault(bucket, [])
            for r in same:
                # r^-1 codes, a conjugate of codes r^-1, cancels their common prefix
                n, common = 0, min(len(codes), len(r))
                while n < common and codes[n] == r[n]:
                    n += 1
                quotient = tuple(c ^ 1 for c in reversed(r[n:])) + codes[n:]
                if level == sep_depth or _trivial(machine, quotient, sep_depth) is not None:
                    return r
            same.append(codes)
            return codes

    rows, letters = machine._rows, range(machine.alphabet_size)

    def sections(codes: Codes) -> list[Codes]:
        if len(codes) == 1:  # one state: its sections are its row's
            return [sec for sec, _ in rows[codes[0]] or machine._row(codes[0])]
        return [_pass(machine, codes, y)[0] for y in letters]

    found, more = closure([machine.encode(a.word)], sections, max_states, key)
    return StateSet(_Decoded(machine, found), more)


def orbit_type(machine: SelfSimilarMachine) -> tuple[int, ...]:
    """Orbit sizes of the group generated by the root permutations of the
    machine's generators, ordered by each orbit's minimal letter."""
    if not machine.generators:
        raise ValueError("orbit_type needs at least one generator")
    perms = [root_perm(machine, GroupWord.gen(name)) for name in machine.generators]
    seen: set[int] = set()
    sizes = []
    for start in range(machine.alphabet_size):
        if start not in seen:
            orbit = closure([start], lambda i: [p(i) for p in perms], machine.alphabet_size)[0]
            seen.update(orbit)
            sizes.append(len(orbit))
    return tuple(sizes)


def inflate(machine: SelfSimilarMachine, k: int) -> TableMachine:
    """Re-read a degree-m machine as a machine on length-k blocks (degree m^k).

    Blocks are ordered big-endian: block (y_1..y_k) is letter sum(y_i * m^(k-i)).
    The table holds the generators and every state their block sections
    reach: the closure runs over state codes, keeping each state's walks, and
    only the returned table is decoded.  Raises when m^k or k exceeds
    ``MAX_LETTERS`` (for m = 1 every m^k is 1) or the closure ``MAX_STATES``.
    """
    if k < 1:
        raise ValueError("inflation level must be at least 1")
    m = machine.alphabet_size
    if m ** min(k, MAX_LETTERS.bit_length()) > MAX_LETTERS:  # as m**k > MAX_LETTERS for m > 1
        raise ValueError(f"{m}^{k} block letters exceed the limit of {MAX_LETTERS}")
    if k > MAX_LETTERS:
        raise ValueError(f"blocks of {k} letters exceed the limit of {MAX_LETTERS}")
    blocks = list(product(range(m), repeat=k))
    index = {b: i for i, b in enumerate(blocks)}
    walks: dict[int, list[tuple[Codes, String]]] = {}  # state code -> its walk along each block

    def successors(c: int) -> list[int]:
        walks[c] = [_walk(machine, (c,), b) for b in blocks]
        return [x & ~1 for sec, _ in walks[c] for x in sec]

    if closure([machine._codes[g] for g in machine.generators], successors, MAX_STATES)[1]:
        raise ValueError(f"state closure exceeded {MAX_STATES} states; not inflatable")
    table = {}
    for c, walk in walks.items():
        sections = [machine.decode(sec) for sec, _ in walk]
        table[machine._names[c >> 1]] = (sections, Perm(index[image] for _, image in walk))
    return TableMachine(m**k, table)


def find_moving_string(a: Automorphism, max_depth: int) -> Optional[String]:
    """The lex-least string of the shortest length moved by ``a``, or None if
    ``a`` is trivial to ``max_depth``: deepening finds that length k by
    ``proven``, and stops once the depth proven reaches ``max_depth``, so an
    exactly trivial word (``inf``) costs the same at any depth.  A string of
    length k <= leaf is the big-endian digits of the first moved byte of the
    level-k table that ``proven`` keeps; a longer one walks down to the leaf,
    taking the first letter that moves or whose section moves a string."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    machine = a.machine
    codes = machine.encode(a.word)
    m, leaf = machine.alphabet_size, machine._leaf
    action = b""

    def proven(codes: Codes, d: int) -> Optional[float]:  # _trivial, keeping the level table
        nonlocal action
        if not 1 <= d <= leaf:
            return _trivial(machine, codes, d)
        action = _level(machine, codes, d)
        return d if action == _IDENTITY[: len(action)] else None

    for k in range(1, max_depth + 1):
        depth = proven(codes, k)
        if depth is None:
            break
        if depth >= max_depth:
            return None
    string: String = ()
    while k > leaf:  # codes moves a string of length k and fixes all shorter ones
        for y in range(m):
            sec, image = _pass(machine, codes, y)
            if image != y:
                return string + (y,)
            if proven(sec, k - 1) is None:  # action is then the section's table, if k - 1 <= leaf
                break
        else:
            raise AssertionError("the witness walk reached a trivial subtree")
        string, codes, k = string + (y,), sec, k - 1
    s = next(i for i, image in enumerate(action) if image != i)
    return string + tuple(s // m ** (k - 1 - i) % m for i in range(k))
