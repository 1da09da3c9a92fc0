"""From group data to state-closed tree representations.

A group model supplies exact arithmetic (identity, multiply, invert, hashable
canonical elements).  A ``GData`` bundles the model with a list of virtual
endomorphisms: finite-index subgroups ``H_i`` with homomorphisms ``f_i`` into
the whole group and fixed right transversals ``T_i`` (first element always the
identity).  ``build_representation`` turns the data into a lazily generated
machine: orbit ``i`` occupies a contiguous letter block, letter ``(i, j)``
stands for the coset of ``t_ij``, the root permutation of ``g`` sends it to
``(i, coset_index_i(t_ij g))``, and the section there is
``f_i(t_ij g t_ij'^-1)``.

Kernels of such representations are never computed here (they are undecidable
in general); ``fcore_witness_check`` samples nontrivial elements and exhibits
moved strings instead.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Callable, NamedTuple, Optional, Sequence

from .perm_word import GroupWord, Perm
from .tree_core import Automorphism, SelfSimilarMachine, find_moving_string


class GroupModel:
    """Exact group arithmetic over opaque hashable elements.

    Subclasses implement ``identity``, ``multiply``, ``invert`` and
    ``random_element``; elements must be canonical, so ``==`` is exact group
    equality (``is_identity`` compares with ``identity()``) and nontriviality
    of a canonical form certifies nontriviality.
    """

    def __init__(self):
        self.generators: dict[str, object] = {}

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def is_identity(self, g) -> bool:
        return g == self.identity()

    def power(self, g, n: int):
        out = self.identity()
        base = g if n >= 0 else self.invert(g)
        for _ in range(abs(n)):
            out = self.multiply(out, base)
        return out

    def conjugate(self, g, by):
        """Right conjugation ``by^-1 g by``."""
        return self.multiply(self.multiply(self.invert(by), g), by)

    def random_element(self, rng):
        raise NotImplementedError


class VirtualEndo:
    """A finite-index subgroup, a homomorphism out of it, and a right transversal.

    The inverses of the transversal elements are computed once, in
    ``inverses``, for ``schreier``.
    """

    def __init__(
        self,
        model: GroupModel,
        contains: Callable[[object], bool],
        image: Callable[[object], object],
        transversal: Sequence[object],
        coset_index: Callable[[object], int],
    ):
        self.model = model
        self.contains = contains
        self.image = image
        self.transversal = tuple(transversal)
        self.coset_index = coset_index
        if not self.transversal or self.transversal[0] != model.identity():
            raise ValueError("transversal must start with the identity")
        self.inverses = tuple(map(model.invert, self.transversal))

    @classmethod
    def whole(cls, model: GroupModel, image: Callable[[object], object]) -> "VirtualEndo":
        """An endomorphism of the whole group (index 1)."""
        return cls(model, lambda g: True, image, (model.identity(),), lambda g: 0)

    @property
    def index(self) -> int:
        return len(self.transversal)


class GData:
    """A group model together with its list of virtual endomorphisms."""

    def __init__(self, model: GroupModel, endos: Sequence[VirtualEndo]):
        if not endos:
            raise ValueError("group data needs at least one virtual endomorphism")
        self.model = model
        self.endos = tuple(endos)

    @property
    def degree(self) -> int:
        return sum(e.index for e in self.endos)


def schreier(endo: VirtualEndo, g, t) -> tuple[object, int]:
    """The cocycle value ``t g t_j^-1`` and the index j of the coset of ``t g``.

    No product has the identity as a factor: ``t g`` is ``g`` itself when ``t``
    is the first transversal element (the identity), and the value is ``t g``
    itself when j = 0.  ``t_j^-1`` is read from ``endo.inverses``.  The value
    is still checked against the subgroup.
    """
    model = endo.model
    tg = g if t is endo.transversal[0] else model.multiply(t, g)
    j = endo.coset_index(tg)
    h = model.multiply(tg, endo.inverses[j]) if j else tg
    if not endo.contains(h):
        raise ValueError("coset oracle inconsistency: cocycle value escaped the subgroup")
    return h, j


# ``short_word`` searches generator words of at most SEARCH_LEN letters, and
# grows no sphere that could take its ball past MAX_BALL elements: with g
# generators a sphere holds up to 2g times the elements of the one before
SEARCH_LEN = 5
MAX_BALL = 1 << 16


class EngineMachine(SelfSimilarMachine):
    """Lazily generated machine realising a group through its data.

    Every model element reachable by sections becomes a named state, stored
    once as the element of its code; exact model equality keeps word-level
    aliases of one element from spawning new states.  New states are named
    q1, q2, .. in the order that compiled rows first reach them.  A state's
    row is split in two: ``_perm`` reads the root permutation from the cocycle
    values (``schreier``, which checks each one) and keeps them, and
    ``_compile`` turns them into sections, naming their states, only when a
    section is first read, so each state's model arithmetic runs once per
    machine and a depth-1 answer names no state.  ``entry`` decodes the row.
    ``cache_key`` keeps the element of each code tuple it is asked for.
    ``_chains_exceed`` bounds the closure from below by the chains of the
    index-1 endomorphisms, so a Mealy export refuses a machine they carry
    past the state bound before naming any state.
    """

    def __init__(self, data: GData):
        super().__init__(data.degree)
        # a level table of depth k >= 2 compiles all m section rows of each
        # code, where the record descent stops at the first moving section and
        # skips the rows of sections that cancel.  At degree <= 6 (a leaf of
        # 3 or more) the tables still win, since each record below the leaf
        # multiplies out a model element (``cache_key``): on cp-wr-z2:p=3,
        # ``find_moving_string(a^27, 12)`` takes 0.75 s and 1,904 memo keys
        # against 4.9 s and 50,036 at leaf 1, with the same states and rows.
        # Past degree 6 the rows cost more than the records they save
        # (``witness --model lamplighter:B=2,3``, degree 13: 7 rows compiled
        # and 2.7 ms at leaf 2 against 3 rows and 1.2 ms at leaf 1), so only
        # depth 1 is decided by tables there (leaf 2 is degree 7 to 16)
        if self._leaf == 2:
            self._leaf = 1
        self.data = data
        self.model = data.model
        ident = self.model.identity()
        self._elements: dict[int, object] = {}  # code -> element of the letter
        self._keys: dict[tuple, object] = {}  # code tuple -> its element (``cache_key``)
        self._kept: dict[int, list] = {}  # even code -> its cells until ``_compile``
        # element -> its code tuple as a section: (c,) for the state of code c,
        # and () for the identity, which is no state
        self._words: dict[object, tuple] = {ident: ()}
        for name, g in self.model.generators.items():
            if g not in self._words:
                self._add_state(name, g)
        self.generators = tuple(self._names)
        self._fresh = itertools.count(1)
        # short_word's generator ball, element -> lex-least geodesic word, grown
        # one BFS sphere at a time: its outermost sphere and that sphere's radius
        self._ball: dict = {ident: GroupWord.identity()}
        self._sphere, self._radius = dict(self._ball), 0

    def _add_state(self, name: str, elem) -> tuple:
        word = self._words[elem] = self.encode([(name, 1)])
        self._elements[word[0]] = elem
        return word

    def _word_of(self, elem) -> tuple:
        """The code tuple of an element: its state's one code, or () for the
        identity.  An element seen for the first time becomes the next free
        state of q1, q2, .."""
        word = self._words.get(elem)
        if word is None:
            name = f"q{next(self._fresh)}"
            while self._codes.get(name) in self._elements:  # skip names of states
                name = f"q{next(self._fresh)}"
            word = self._add_state(name, elem)
        return word

    def state_of(self, elem) -> str:
        return str(self.decode(self._word_of(elem)))

    def _cells(self, c: int) -> list:
        """The cells of a state, from its element g: ``(f_i, h, (i, j'))`` at
        letter (i, j), where h = t_ij g t_ij'^-1 is the cocycle value, checked
        against H_i (``schreier``), and (i, j') the image of (i, j)."""
        g = self._elements.get(c)
        if g is None:
            return super()._compile(c)
        cells = []
        for endo in self.data.endos:
            offset = len(cells)  # the orbit's letters follow those of the orbits before it
            for t in endo.transversal:
                h, j = schreier(endo, g, t)
                cells.append((endo.image, h, offset + j))
        return cells

    def _perm(self, c: int) -> tuple[int, ...]:
        """The root permutation of a code.  A state with no row yet reads it
        from its cells, kept for ``_compile``, and names no section state; an
        inverse code inverts its state's permutation (``Perm.inverse``)."""
        if self._rows[c & ~1] is not None:
            return super()._perm(c)
        cells = self._kept.get(c & ~1)
        if cells is None:
            cells = self._kept[c & ~1] = self._cells(c & ~1)
        perm = tuple(target for _, _, target in cells)
        return Perm(perm).inverse().images if c & 1 else perm

    def _compile(self, c: int) -> tuple:
        """The row of a state from its cells (kept by ``_perm`` or new): the
        section at letter (i, j) is f_i(h) as a code tuple (``_word_of``)."""
        cells = self._kept.pop(c, None) or self._cells(c)
        return tuple((self._word_of(image(h)), target) for image, h, target in cells)

    def _chains_exceed(self, limit: int) -> bool:
        """Whether the generators and their chains g, f(g), f(f(g)), .. under
        the index-1 endomorphisms f hold more than ``max(limit, generators)``
        elements.  The cell of such an f at its one letter is
        ``schreier(f, g, identity) = (g, 0)``, so the section of state g there
        is f(g): every chain element short of the identity is a state of the
        closure under sections.  A chain stops at the identity or at an element
        already counted; no state is named and no row compiled."""
        limit = max(limit, len(self.generators))
        ident = self.model.identity()
        starts = [self._elements[self._codes[name]] for name in self.generators]
        seen = set(starts)
        for endo in self.data.endos:
            if endo.index == 1:
                for g in starts:
                    while True:
                        g = endo.image(schreier(endo, g, endo.transversal[0])[0])
                        if g == ident or g in seen:
                            break
                        if len(seen) == limit:
                            return True
                        seen.add(g)
        return False

    def element_of(self, word: GroupWord):
        """Exact model element of a word over this machine's states."""
        return self.cache_key(self.encode(word))

    def cache_key(self, codes: tuple) -> object:
        """Exact model element of a code tuple: the memo key of ``_trivial`` and
        ``states``, kept for the machine's life.  The product starts from the
        first code's element; the empty tuple is the identity."""
        elem = self._keys.get(codes)
        if elem is not None:
            return elem
        model = self.model
        elements = self._elements
        for c in codes:
            g = elements.get(c)
            if g is None:  # an inverse code reads its state's element once
                g = elements.get(c ^ 1)
                if g is None:
                    raise ValueError(f"undeclared state: {self._names[c >> 1]!r}")
                g = elements[c] = model.invert(g)
            elem = g if elem is None else model.multiply(elem, g)
        elem = self._keys[codes] = model.identity() if elem is None else elem
        return elem

    def short_word(self, elem) -> Optional[GroupWord]:
        """The lex-least shortest word of at most SEARCH_LEN letters in the
        generators for ``elem`` (generator order, ``+`` before ``-``), or None.

        The ball grows by one sphere only while a lookup misses it, its radius
        is below SEARCH_LEN and it stays within ``MAX_BALL`` (``_grow``).
        """
        while elem not in self._ball and self._radius < SEARCH_LEN and self._grow():
            pass
        return self._ball.get(elem)

    def _grow(self) -> bool:
        """Add the next sphere to ``_ball``, unless it could take the ball past
        ``MAX_BALL`` elements.  Spheres are built in BFS order, which is lex
        order on words, so the first word to reach an element is its lex-least
        geodesic; a neighbour of sphere r lies in sphere r - 1, r or r + 1, so
        an element not yet in the ball is new."""
        ball, last = self._ball, self._sphere
        if len(ball) + 2 * len(self.generators) * len(last) > MAX_BALL:
            return False
        model = self.model
        letters = []
        for name in self.generators:
            g = self._elements[self._codes[name]]
            letters.append((g, GroupWord.gen(name)))
            letters.append((model.invert(g), GroupWord.gen(name, -1)))
        new: dict = {}
        for x, word in last.items():
            for g, letter in letters:
                nxt = model.multiply(x, g)
                if nxt not in ball:
                    ball[nxt] = new[nxt] = word * letter
        self._sphere, self._radius = new, self._radius + 1
        return True

    def automorphism_of(self, elem) -> Automorphism:
        return Automorphism(self, self.decode(self._word_of(elem)))


def build_representation(data: GData) -> EngineMachine:
    return EngineMachine(data)


# ---------------------------------------------------------------------------
# Restricted direct powers: countably many copies, componentwise data plus a
# shift endomorphism on the whole group.
# ---------------------------------------------------------------------------


class SequenceModel(GroupModel):
    """Finitely supported sequences over an inner model (trailing identities trimmed)."""

    def __init__(self, inner: GroupModel, named_copies: int):
        super().__init__()
        self.inner = inner
        for pos in range(named_copies):
            for gname, g in inner.generators.items():
                name = f"{gname}{pos + 1}"
                self.generators[name] = self.embed(g, pos)

    def trim(self, seq) -> tuple:
        seq = list(seq)
        while seq and self.inner.is_identity(seq[-1]):
            seq.pop()
        return tuple(seq)

    def embed(self, g, pos: int) -> tuple:
        return self.trim((self.inner.identity(),) * pos + (g,))

    def identity(self) -> tuple:
        return ()

    def multiply(self, a, b):
        pairs = itertools.zip_longest(a, b, fillvalue=self.inner.identity())
        return self.trim(self.inner.multiply(x, y) for x, y in pairs)

    def invert(self, a):
        return tuple(self.inner.invert(x) for x in a)

    def first(self, g):
        return g[0] if g else self.inner.identity()

    def shift(self, g) -> tuple:
        return self.trim(g[1:])

    def random_element(self, rng):
        return self.trim(self.inner.random_element(rng) for _ in range(rng.randint(0, 4)))


def direct_power_data(data: GData, named_copies: int) -> GData:
    """Data for the restricted direct power: lifted endomorphisms acting on the
    first coordinate plus the left shift, of orbit type (m_1,...,m_s,1)."""
    model = SequenceModel(data.model, named_copies)
    endos = [_lift_endo(model, endo) for endo in data.endos]
    return GData(model, endos + [VirtualEndo.whole(model, model.shift)])


def _lift_endo(model: SequenceModel, endo: VirtualEndo) -> VirtualEndo:
    def image(g):
        return model.trim((endo.image(model.first(g)),) + g[1:])

    return VirtualEndo(
        model,
        contains=lambda g: endo.contains(model.first(g)),
        image=image,
        transversal=tuple(model.embed(t, 0) for t in endo.transversal),
        coset_index=lambda g: endo.coset_index(model.first(g)),
    )


# ---------------------------------------------------------------------------
# Wreath product by a regular finite group: tuples permuted by the top group,
# one endomorphism applying the coordinate maps simultaneously.
# ---------------------------------------------------------------------------


class TupleKModel(GroupModel):
    """s-tuples over an inner model extended by a regular permutation group,
    whose other elements are the generators ``s`` (order 2) or ``k1``, ``k2``, .."""

    def __init__(self, inner: GroupModel, perms: Sequence[Perm]):
        super().__init__()
        self.inner = inner
        self.perms = tuple(perms)
        self.s = self.perms[0].degree
        index = {p: i for i, p in enumerate(self.perms)}
        # the top index of perms[i] * perms[j], and of perms[i]^-1
        self._product = tuple(tuple(index[p * q] for q in self.perms) for p in self.perms)
        self._inverse = tuple(index[p.inverse()] for p in self.perms)
        ident = inner.identity()
        for gname, g in inner.generators.items():
            tup = tuple(g if r == 0 else ident for r in range(self.s))
            self.generators[gname] = (tup, 0)
        for k in range(1, len(self.perms)):
            name = "s" if len(self.perms) == 2 else f"k{k}"
            self.generators[name] = ((ident,) * self.s, k)

    def identity(self):
        return ((self.inner.identity(),) * self.s, 0)

    def multiply(self, a, b):
        (ga, ka), (gb, kb) = a, b
        multiply = self.inner.multiply
        base = tuple(multiply(x, gb[r]) for x, r in zip(ga, self.perms[ka].images))
        return (base, self._product[ka][kb])

    def invert(self, a):
        g, k = a
        q = self._inverse[k]
        invert = self.inner.invert
        return (tuple(invert(g[r]) for r in self.perms[q].images), q)

    def random_element(self, rng):
        base = tuple(self.inner.random_element(rng) for _ in range(self.s))
        return (base, rng.randrange(len(self.perms)))


def coset_product(majors: Sequence, endos: Sequence[VirtualEndo]):
    """Mixed-radix letters for ``majors`` times the coset spaces of ``endos``.

    The letter of ``(b, (x_1, .., x_s))`` counts the major value slowest, then
    the coset indices ``j_i`` of the ``x_i`` with the first fastest:
    ``pos(b) * m_1 ... m_s + j_1 + m_1 * (j_2 + m_2 * (..))``.  Returns the
    transversal as ``(b, (t_1, .., t_s))`` pairs in letter order, and the
    letter function ``(b, xs) -> int``.
    """
    points = enumerate_abelian([endo.index for endo in endos])
    offset = {b: i * len(points) for i, b in enumerate(majors)}
    cells = [
        (b, tuple(endo.transversal[j] for endo, j in zip(endos, js)))
        for b in majors
        for js in points
    ]

    def letter(b, xs) -> int:
        j = 0
        for endo, x in zip(reversed(endos), reversed(xs)):
            j = j * endo.index + endo.coset_index(x)
        return offset[b] + j

    return cells, letter


def wreath_by_regular_data(data: GData, perms: Sequence[Perm]) -> GData:
    """Data for the wreath product by a regular group of degree s = len(endos).

    ``perms`` lists the regular group's elements, identity first; the result
    has a single endomorphism of index ``s * m_1 * ... * m_s``.
    """
    s = len(data.endos)
    perms = tuple(perms)
    if not perms or not perms[0].is_identity():
        raise ValueError("the permutation list must start with the identity")
    if any(p.degree != s for p in perms):
        raise ValueError(f"permutation degree must match the {s} orbits of the data")
    if len(set(perms)) != len(perms) or len(perms) != s:
        raise ValueError("a regular group on s points has exactly s distinct elements")
    for p in perms:
        for q in perms:
            if p * q not in perms:
                raise ValueError("the permutation list is not closed under composition")
        if not p.is_identity() and any(p(i) == i for i in range(s)):
            raise ValueError("not regular: a non-identity element fixes a point")
    model = TupleKModel(data.model, perms)
    cells, letter = coset_product(range(len(perms)), data.endos)

    def contains(a) -> bool:
        g, k = a
        return k == 0 and all(endo.contains(g[i]) for i, endo in enumerate(data.endos))

    def image(a):
        g, _ = a
        return (tuple(endo.image(g[i]) for i, endo in enumerate(data.endos)), 0)

    def coset_index(a) -> int:
        g, k = a
        return letter(k, g)

    transversal = [(base, k) for k, base in cells]
    return GData(model, [VirtualEndo(model, contains, image, transversal, coset_index)])


# ---------------------------------------------------------------------------
# Lamp extensions over parabolic coset spaces: finitely supported B-valued
# maps on s-tuples of cosets, extended by the s-th power of the group.
# ---------------------------------------------------------------------------


class CosetSpace(NamedTuple):
    """Right cosets of a parabolic subgroup, by computable canonical labels.

    ``label`` maps model elements onto labels, constant exactly on cosets;
    ``translate(lab, g)`` is the label of the coset moved by ``g`` on the
    right; ``lambda_image(lab)`` maps the label of a subgroup coset to the
    label of its image coset under the endomorphism, or None when ``lab`` is
    not a subgroup-element label.  The construction below requires the induced
    coset map to be onto, which the supplier asserts via ``lambda_surjective``.
    The labels of one space must be mutually orderable: a lamp carrier sorts
    its support points, tuples of labels, in their natural order.
    """

    label: Callable[[object], object]
    translate: Callable[[object, object], object]
    identity_label: object
    lambda_image: Callable[[object], Optional[object]]
    lambda_surjective: bool = True


def enumerate_abelian(orders: Sequence[int]) -> list[tuple[int, ...]]:
    """All elements of the product of cyclic groups, identity first, mixed radix
    with the first coordinate fastest."""
    return [c[::-1] for c in itertools.product(*(range(k) for k in reversed(orders)))]


def reduce_coeff(values, mods) -> tuple[int, ...]:
    """A coefficient vector in canonical form: slot i reduced mod ``mods[i]``,
    or left as it is where ``mods[i]`` is 0 (a free integer slot)."""
    return tuple([v % k if k else v for v, k in zip(values, mods)])


class SupportModel(GroupModel):
    """Finitely supported maps extended by a top group: the canonical form
    and the support merge that ``wreath_models.WreathModel`` and
    ``ExtensionModel`` share.

    An element is a ``(support, tops)`` pair: ``support`` holds canonical
    ``(point, coeff)`` entries (``norm_base`` under ``mods``: points
    strictly increasing, no zero coefficient) and ``tops`` lies in the top
    group, which moves the points.  With ``shift(phi, t)`` the support ``phi``
    with every point moved by ``t``,

        (phi1, t1) (phi2, t2) = (phi1 + shift(phi2, t1^-1), t1 t2).

    Subclasses set ``mods`` and ``top_identity`` and own ``multiply`` and
    ``invert``: each carrier applies its top law and translates the points
    itself, into a sorted tuple, and passes two nonempty supports to the one
    merge, ``_merge``; neither law renormalises.
    """

    def identity(self):
        return ((), self.top_identity)

    def norm_base(self, entries) -> tuple:
        """The canonical support of ``(point, coeff)`` entries with canonical
        coefficients under ``mods``: entries at one point add slot by slot,
        zero coefficients are dropped, and the points are sorted."""
        acc: dict = {}
        for point, coeff in entries:
            prev = acc.get(point)
            acc[point] = coeff if prev is None else reduce_coeff(map(add, prev, coeff), self.mods)
        return tuple((p, acc[p]) for p in sorted(acc) if any(acc[p]))

    def coeff_total(self, a) -> tuple[int, ...]:
        """The canonical sum of the coefficients of an element's support."""
        if not a[0]:
            return (0,) * len(self.mods)
        return reduce_coeff(map(sum, zip(*(c for _, c in a[0]))), self.mods)

    def _merge(self, phi1, phi2) -> tuple:
        """The canonical sum of a canonical support and a nonempty one: an
        empty ``phi1`` or point ranges that are apart join, others go through
        one linear merge, where a shared point adds its coefficients (one slot
        without ``reduce_coeff``) and drops a zero sum."""
        if not phi1:
            return phi2
        if phi1[-1][0] < phi2[0][0]:
            return phi1 + phi2
        if phi2[-1][0] < phi1[0][0]:
            return phi2 + phi1
        mods = self.mods
        out, i, j = [], 0, 0
        while i < len(phi1) and j < len(phi2):
            (p, c), (q, d) = phi1[i], phi2[j]
            if p < q:
                out.append(phi1[i])
                i += 1
            elif q < p:
                out.append(phi2[j])
                j += 1
            else:
                if len(c) == 1:
                    v, k = c[0] + d[0], mods[0]
                    coeff = (v % k if k else v,)
                else:
                    coeff = reduce_coeff(map(add, c, d), mods)
                if any(coeff):
                    out.append((p, coeff))
                i += 1
                j += 1
        return tuple(out) + phi1[i:] + phi2[j:]


class ExtensionModel(SupportModel):
    """Finitely supported maps from s-tuples of coset labels into a finite
    abelian group, extended by s-tuples of inner elements that translate the
    labels coordinate by coordinate.  Its law is ``SupportModel``'s formula
    through the inner model (``top_multiply``, ``top_invert``) and the coset
    spaces (``shift``)."""

    def __init__(self, inner: GroupModel, orders: Sequence[int], cosets: Sequence[CosetSpace]):
        super().__init__()
        self.inner = inner
        self.mods = tuple(orders)
        self.cosets = tuple(cosets)
        self.s = len(cosets)
        self.top_identity = (inner.identity(),) * self.s

    def top_multiply(self, t1, t2) -> tuple:
        return tuple(self.inner.multiply(x, y) for x, y in zip(t1, t2))

    def top_invert(self, tops) -> tuple:
        return tuple(self.inner.invert(g) for g in tops)

    def shift(self, support, tops) -> tuple:
        # ``translate`` need not keep the order of the labels
        return tuple(sorted(
            (tuple(c.translate(lab, g) for c, lab, g in zip(self.cosets, labs, tops)), coeff)
            for labs, coeff in support
        ))

    def multiply(self, a, b):
        (phi1, t1), (phi2, t2) = a, b
        tops = self.top_multiply(t1, t2)
        if not phi2:
            return (phi1, tops)
        moved = phi2 if t1 == self.top_identity else self.shift(phi2, self.top_invert(t1))
        return (self._merge(phi1, moved), tops)

    def invert(self, a):
        phi, tops = a
        negated = [(p, tuple([-v % k if k else -v for v, k in zip(c, self.mods)])) for p, c in phi]
        if tops == self.top_identity:
            return (tuple(negated), tops)
        return (self.shift(negated, tops), self.top_invert(tops))

    def random_element(self, rng):
        entries = []
        for _ in range(rng.randint(0, 3)):
            labs = tuple(
                c.label(self.inner.random_element(rng)) for c in self.cosets
            )
            coeff = tuple(rng.randrange(k) for k in self.mods)
            entries.append((labs, coeff))
        tops = tuple(self.inner.random_element(rng) for _ in range(self.s))
        return (self.norm_base(entries), tops)


def lamp_extension_data(orders: Sequence[int], data: GData, cosets: Sequence[CosetSpace]) -> GData:
    """Data of orbit type ``(|B| m_1 ... m_s, 1)`` for the lamp extension of a
    group with all orbit sizes at least 2, carried by ``ExtensionModel``.

    Checks the inputs and hands the endomorphisms to ``lamp_data``.
    """
    if len(cosets) != len(data.endos):
        raise ValueError("need one coset space per endomorphism")
    if any(endo.index < 2 for endo in data.endos):
        raise ValueError("lamp extension requires every orbit size to be at least 2")
    for c in cosets:
        if not c.lambda_surjective:
            raise ValueError(
                "the induced coset map must be onto, otherwise contracted lamp"
                " configurations need not have finite support"
            )
    orders = tuple(orders)
    if not orders or any(k < 2 for k in orders):
        raise ValueError("lamp group orders must all be at least 2")
    return lamp_data(ExtensionModel(data.model, orders, cosets), data, cosets)


def lamp_data(model: SupportModel, data: GData, cosets: Sequence[CosetSpace]) -> GData:
    """The two lamp endomorphisms on a carrier ``model`` of the lamp extension.

    A support point of the carrier is an s-tuple of coset labels, a
    coefficient an element of B (residues mod ``model.mods``), and ``tops``
    an s-tuple of elements of ``data.model``.

    The first endomorphism contracts lamp positions along the inverse of the
    induced coset map and applies each ``f_i`` on top; its letters count the
    lamp total slowest, then the cosets of the tops (``coset_product``).  The
    second cyclically rotates the s coordinates (the identity when s = 1).
    Its generators ``b`` (``b1``, ``b2``, ..), unit lamps at the identity labels,
    and ``z`` (``z<i><g>``), g of ``data.model`` in top slot i, go on the carrier.
    """
    s, inner, width = len(cosets), data.model, len(model.mods)
    ident_labels = tuple(c.identity_label for c in cosets)
    for j in range(width):
        unit = tuple(int(i == j) for i in range(width))
        name = "b" if width == 1 else f"b{j + 1}"
        model.generators[name] = (((ident_labels, unit),), model.top_identity)
    for i, (gname, g) in itertools.product(range(s), inner.generators.items()):
        name = "z" if s == 1 and len(inner.generators) == 1 else f"z{i + 1}{gname}"
        model.generators[name] = ((), tuple(g if r == i else inner.identity() for r in range(s)))

    def contains(a) -> bool:
        _, tops = a
        return not any(model.coeff_total(a)) and all(
            endo.contains(g) for endo, g in zip(data.endos, tops)
        )

    def chi1(a):
        phi, tops = a
        entries = []
        for labs, coeff in phi:
            imgs = tuple(c.lambda_image(lab) for c, lab in zip(cosets, labs))
            if all(img is not None for img in imgs):
                entries.append((imgs, coeff))
        newtops = tuple(endo.image(g) for endo, g in zip(data.endos, tops))
        return (model.norm_base(entries), newtops)

    cells, letter = coset_product(enumerate_abelian(model.mods), data.endos)

    def coset_index(a) -> int:
        return letter(model.coeff_total(a), a[1])

    transversal = [(((ident_labels, b),) if any(b) else (), tops) for b, tops in cells]

    def chi2(a):
        phi, tops = a
        if s == 1:
            return a
        # the value at x comes from rot(x) = (x_2..x_s, x_1), so a support
        # point y lands at (y_s, y_1, .., y_{s-1})
        entries = [((labs[-1:] + labs[:-1]), coeff) for labs, coeff in phi]
        return (model.norm_base(entries), tops[1:] + tops[:1])

    endo1 = VirtualEndo(model, contains, chi1, transversal, coset_index)
    return GData(model, [endo1, VirtualEndo.whole(model, chi2)])


# ---------------------------------------------------------------------------
# Witness checks.
# ---------------------------------------------------------------------------


def fcore_witness_check(
    machine: EngineMachine, samples: int, max_depth: int, rng
) -> list[tuple[object, Optional[tuple[int, ...]]]]:
    """One ``(element, witness)`` pair per sampled canonically nontrivial
    element of ``machine.model``: a string it moves, or None (flagged, not
    raised) where it moves none within ``max_depth``."""
    model = machine.model
    entries = []
    attempts = 0
    while len(entries) < samples and attempts < samples * 20:
        attempts += 1
        g = model.random_element(rng)
        if model.is_identity(g):
            continue
        entries.append((g, find_moving_string(machine.automorphism_of(g), max_depth)))
    return entries
