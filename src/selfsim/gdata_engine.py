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
from dataclasses import dataclass, field
from operator import add, neg
from typing import Callable, Optional, Sequence

from .perm_word import GroupWord, Perm
from .tree_core import Automorphism, SelfSimilarMachine, find_moving_string


class GroupModel:
    """Exact group arithmetic over opaque hashable elements.

    Subclasses implement ``identity``, ``multiply``, ``invert`` and
    ``random_element``; elements must be canonical, so ``==`` is exact group
    equality and nontriviality of a canonical form certifies nontriviality.
    """

    name = "group"

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
    """A finite-index subgroup, a homomorphism out of it, and a right transversal."""

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
        self.offsets = tuple(
            sum(e.index for e in self.endos[:i]) for i in range(len(self.endos))
        )

    @property
    def degree(self) -> int:
        return sum(e.index for e in self.endos)

    @property
    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(e.index for e in self.endos)


def schreier(endo: VirtualEndo, g, t) -> tuple[object, int]:
    """The cocycle value ``t g t_j^-1`` and the index j of the coset of ``t g``."""
    model = endo.model
    tg = model.multiply(t, g)
    j = endo.coset_index(tg)
    h = model.multiply(tg, model.invert(endo.transversal[j]))
    if not endo.contains(h):
        raise ValueError("coset oracle inconsistency: cocycle value escaped the subgroup")
    return h, j


# ``short_word`` searches generator words of at most SEARCH_LEN letters
SEARCH_LEN = 5


class EngineMachine(SelfSimilarMachine):
    """Lazily generated machine realising a group through its data.

    Every model element reachable by sections becomes a named state; entries
    are memoised by exact model equality, which keeps word-level aliases of the
    same element from spawning new states.  New states are named q1, q2, ..
    in the order that entry computations first reach them.
    """

    def __init__(self, data: GData):
        super().__init__(data.degree)
        self.data = data
        self.model = data.model
        ident = self.model.identity()
        self._state_elements: dict[str, object] = {"e": ident}
        self._state_names: dict[object, str] = {ident: "e"}
        names = []
        for name, g in self.model.generators.items():
            if g in self._state_names:
                continue
            self._state_elements[name] = g
            self._state_names[g] = name
            names.append(name)
        self.generators = tuple(names)
        self._fresh = itertools.count(1)
        self._code_elements: dict[int, object] = {}  # code -> element of the letter
        self._ball: Optional[dict] = None  # element -> shortest generator word

    def state_of(self, elem) -> str:
        name = self._state_names.get(elem)
        if name is None:
            name = f"q{next(self._fresh)}"
            while name in self._state_elements:
                name = f"q{next(self._fresh)}"
            self._state_names[elem] = name
            self._state_elements[name] = elem
        return name

    def name_of(self, elem) -> Optional[str]:
        """The state name of an element, or None if no state holds it."""
        return self._state_names.get(elem)

    def _compute_entry(self, name: str):
        if name not in self._state_elements:
            raise ValueError(f"undeclared state: {name!r}")
        g = self._state_elements[name]
        model = self.model
        images = []
        sections = []
        for offset, endo in zip(self.data.offsets, self.data.endos):
            for t in endo.transversal:
                h, j = schreier(endo, g, t)
                images.append(offset + j)
                sec = endo.image(h)
                if model.is_identity(sec):
                    sections.append(GroupWord.identity())
                else:
                    sections.append(GroupWord.gen(self.state_of(sec)))
        return tuple(sections), Perm(images)

    def element_of(self, word: GroupWord):
        """Exact model element of a word over this machine's states."""
        return self.cache_key(self.encode(word))

    def cache_key(self, codes: tuple) -> object:
        """Exact model element of a code tuple: the memo key of ``_record`` and ``states``."""
        model = self.model
        elements = self._code_elements
        elem = model.identity()
        for c in codes:
            g = elements.get(c)
            if g is None:
                name = self._names[c >> 1]
                if name not in self._state_elements:
                    raise ValueError(f"undeclared state: {name!r}")
                g = self._state_elements[name]
                g = elements[c] = model.invert(g) if c & 1 else g
            elem = model.multiply(elem, g)
        return elem

    def short_word(self, elem) -> Optional[GroupWord]:
        """A shortest word of length <= SEARCH_LEN in the generators for
        ``elem``, or None if there is none."""
        ball = self._ball
        if ball is None:
            model = self.model
            ball = self._ball = {model.identity(): GroupWord.identity()}
            frontier = [model.identity()]
            gens = [(name, self._state_elements[name]) for name in self.generators]
            for _ in range(SEARCH_LEN):
                new = []
                for x in frontier:
                    for name, g in gens:
                        for sign in (1, -1):
                            nxt = model.multiply(x, g if sign > 0 else model.invert(g))
                            if nxt not in ball:
                                ball[nxt] = ball[x] * GroupWord.gen(name, sign)
                                new.append(nxt)
                frontier = new
        return ball.get(elem)

    def automorphism_of(self, elem) -> Automorphism:
        if self.model.is_identity(elem):
            return Automorphism(self, GroupWord.identity())
        return Automorphism(self, GroupWord.gen(self.state_of(elem)))


def build_representation(data: GData) -> EngineMachine:
    return EngineMachine(data)


# ---------------------------------------------------------------------------
# Restricted direct powers: countably many copies, componentwise data plus a
# shift endomorphism on the whole group.
# ---------------------------------------------------------------------------


class SequenceModel(GroupModel):
    """Finitely supported sequences over an inner model (trailing identities trimmed)."""

    def __init__(self, inner: GroupModel, named_copies: int = 5):
        super().__init__()
        self.inner = inner
        self.name = f"{inner.name}^(omega)"
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
        ident = self.inner.identity()
        n = max(len(a), len(b))
        a = a + (ident,) * (n - len(a))
        b = b + (ident,) * (n - len(b))
        return self.trim(self.inner.multiply(x, y) for x, y in zip(a, b))

    def invert(self, a):
        return tuple(self.inner.invert(x) for x in a)

    def is_identity(self, g) -> bool:
        return g == ()

    def first(self, g):
        return g[0] if g else self.inner.identity()

    def shift(self, g) -> tuple:
        return self.trim(g[1:])

    def random_element(self, rng):
        return self.trim(self.inner.random_element(rng) for _ in range(rng.randint(0, 4)))


def direct_power_data(data: GData, named_copies: int = 5) -> GData:
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
    """s-tuples over an inner model extended by a regular permutation group."""

    def __init__(self, inner: GroupModel, perms: Sequence[Perm], top_names: Sequence[str]):
        super().__init__()
        self.inner = inner
        self.perms = tuple(perms)
        self.s = self.perms[0].degree
        self.name = f"{inner.name} wr K{self.s}"
        self._index = {p: i for i, p in enumerate(self.perms)}
        ident = inner.identity()
        for gname, g in inner.generators.items():
            tup = tuple(g if r == 0 else ident for r in range(self.s))
            self.generators[gname] = (tup, 0)
        for name, p in zip(top_names, self.perms[1:]):
            self.generators[name] = ((ident,) * self.s, self._index[p])

    def identity(self):
        return ((self.inner.identity(),) * self.s, 0)

    def multiply(self, a, b):
        (ga, ka), (gb, kb) = a, b
        p = self.perms[ka]
        base = tuple(self.inner.multiply(ga[r], gb[p(r)]) for r in range(self.s))
        return (base, self._index[p * self.perms[kb]])

    def invert(self, a):
        g, k = a
        q = self.perms[k].inverse()
        base = tuple(self.inner.invert(g[q(r)]) for r in range(self.s))
        return (base, self._index[q])

    def is_identity(self, a) -> bool:
        g, k = a
        return k == 0 and all(self.inner.is_identity(x) for x in g)

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


def wreath_by_regular_data(
    data: GData, perms: Sequence[Perm], top_names: Optional[Sequence[str]] = None
) -> GData:
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
    if top_names is None:
        top_names = ["s"] if len(perms) == 2 else [f"k{i}" for i in range(1, len(perms))]
    model = TupleKModel(data.model, perms, top_names)
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


@dataclass
class CosetSpace:
    """Right cosets of a parabolic subgroup, by computable canonical labels.

    ``label`` maps model elements onto labels, constant exactly on cosets;
    ``translate(lab, g)`` is the label of the coset moved by ``g`` on the
    right; ``lambda_image(lab)`` maps the label of a subgroup coset to the
    label of its image coset under the endomorphism, or None when ``lab`` is
    not a subgroup-element label.  The construction below requires the induced
    coset map to be onto, which the supplier asserts via ``lambda_surjective``.
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
    return tuple(v % k if k else v for v, k in zip(values, mods))


def norm_support(entries, mods, key=None) -> tuple:
    """The canonical support of ``(point, coeff)`` entries whose coefficients
    are canonical under ``mods``: entries at one point add slot by slot, zero
    coefficients are dropped, and the points are sorted by ``key``."""
    acc: dict = {}
    for point, coeff in entries:
        prev = acc.get(point)
        acc[point] = coeff if prev is None else reduce_coeff(map(add, prev, coeff), mods)
    return tuple((p, acc[p]) for p in sorted(acc, key=key) if any(acc[p]))


def support_total(support, mods) -> tuple[int, ...]:
    """The canonical sum of the coefficients of a support."""
    return reduce_coeff((sum(c[i] for _, c in support) for i in range(len(mods))), mods)


class ExtensionModel(GroupModel):
    """Finitely supported maps from s-tuples of coset labels into a finite
    abelian group, extended by s-tuples of inner elements."""

    def __init__(self, inner: GroupModel, orders: Sequence[int], cosets: Sequence[CosetSpace]):
        super().__init__()
        self.inner = inner
        self.mods = self.orders = tuple(orders)
        self.cosets = tuple(cosets)
        self.s = len(cosets)
        self.name = f"B{self.orders} lamps over {inner.name}^{self.s}"
        ident_labels = tuple(c.identity_label for c in self.cosets)
        for j in range(len(self.orders)):
            unit = tuple(1 if i == j else 0 for i in range(len(self.orders)))
            name = "b" if len(self.orders) == 1 else f"b{j + 1}"
            self.generators[name] = (((ident_labels, unit),), self._top_identity())
        single = len(inner.generators) == 1 and self.s == 1
        for i in range(self.s):
            for gname, g in inner.generators.items():
                name = "z" if single else f"z{i + 1}{gname}"
                tops = tuple(
                    g if r == i else inner.identity() for r in range(self.s)
                )
                self.generators[name] = ((), tops)

    def _top_identity(self) -> tuple:
        return (self.inner.identity(),) * self.s

    def norm_base(self, entries) -> tuple:
        # coset labels of different spaces need not be comparable, so sort by repr
        return norm_support(entries, self.mods, key=repr)

    def coeff_total(self, a) -> tuple[int, ...]:
        return support_total(a[0], self.mods)

    def identity(self):
        return ((), self._top_identity())

    def _translate_point(self, labs, tops) -> tuple:
        return tuple(c.translate(lab, g) for c, lab, g in zip(self.cosets, labs, tops))

    def multiply(self, a, b):
        (phi1, t1), (phi2, t2) = a, b
        t1inv = tuple(self.inner.invert(g) for g in t1)
        moved = [(self._translate_point(labs, t1inv), coeff) for labs, coeff in phi2]
        phi = self.norm_base(list(phi1) + moved)
        tops = tuple(self.inner.multiply(x, y) for x, y in zip(t1, t2))
        return (phi, tops)

    def invert(self, a):
        phi, tops = a
        moved = [
            (self._translate_point(labs, tops), reduce_coeff(map(neg, coeff), self.mods))
            for labs, coeff in phi
        ]
        return (self.norm_base(moved), tuple(self.inner.invert(g) for g in tops))

    def is_identity(self, a) -> bool:
        phi, tops = a
        return not phi and all(self.inner.is_identity(g) for g in tops)

    def random_element(self, rng):
        entries = []
        for _ in range(rng.randint(0, 3)):
            labs = tuple(
                c.label(self.inner.random_element(rng)) for c in self.cosets
            )
            coeff = tuple(rng.randrange(k) for k in self.orders)
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
    return lamp_data(ExtensionModel(data.model, orders, cosets), orders, data, cosets)


def lamp_data(model: GroupModel, orders: Sequence[int], data: GData, cosets: Sequence[CosetSpace]) -> GData:
    """The two lamp endomorphisms on a carrier ``model`` of the lamp extension.

    The carrier's elements are ``(support, tops)`` pairs: ``support`` holds
    ``(point, coeff)`` entries, a point being an s-tuple of coset labels and
    ``coeff`` an element of B, canonical under ``model.mods`` (residues mod
    ``orders``); ``model.norm_base`` canonicalises entries (``norm_support``),
    and ``model.coeff_total`` sums the coefficients of an element in B;
    ``tops`` is an s-tuple of elements of ``data.model``.

    The first endomorphism contracts lamp positions along the inverse of the
    induced coset map and applies each ``f_i`` on top; its letters count the
    lamp total slowest, then the cosets of the tops (``coset_product``).  The
    second cyclically rotates the s coordinates (the identity when s = 1).
    """
    s = len(cosets)

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

    cells, letter = coset_product(enumerate_abelian(orders), data.endos)
    ident_labels = tuple(c.identity_label for c in cosets)

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
# Concatenation of wreath-model data over a common top group.
# ---------------------------------------------------------------------------


def concatenate(d1: GData, d2: GData) -> GData:
    """Combine data for two wreath products with the same top group into data
    for the wreath product of the direct sum of their base groups.

    Each endomorphism of one side extends to the combined group by killing the
    other side's base component; transversals and coset indices carry over.
    """
    from .wreath_models import WreathModel

    m1, m2 = d1.model, d2.model
    if not isinstance(m1, WreathModel) or not isinstance(m2, WreathModel):
        raise ValueError("concatenation needs wreath-model data on both sides")
    if m1.top_dim != m2.top_dim:
        raise ValueError("concatenation needs a common top group")
    combined, bridges = WreathModel.combine(m1, m2)
    endos = []
    for (project, embed), data in zip(bridges, (d1, d2)):
        for endo in data.endos:
            endos.append(_bridge_endo(combined, endo, project, embed))
    return GData(combined, endos)


def _bridge_endo(model, endo: VirtualEndo, project, embed) -> VirtualEndo:
    return VirtualEndo(
        model,
        contains=lambda g: endo.contains(project(g)),
        image=lambda g: embed(endo.image(project(g))),
        transversal=tuple(embed(t) for t in endo.transversal),
        coset_index=lambda g: endo.coset_index(project(g)),
    )


# ---------------------------------------------------------------------------
# Witness checks.
# ---------------------------------------------------------------------------


@dataclass
class WitnessReport:
    """Moved strings for sampled nontrivial elements of a represented group."""

    entries: list = field(default_factory=list)  # (element, witness-or-None)
    max_depth: int = 0

    @property
    def all_witnessed(self) -> bool:
        return all(w is not None for _, w in self.entries)

    @property
    def sampled(self) -> int:
        return len(self.entries)


def fcore_witness_check(
    data: GData,
    samples: int,
    max_depth: int,
    rng,
    machine: Optional[EngineMachine] = None,
) -> WitnessReport:
    """Sample canonically nontrivial elements and find strings they move.

    A sample with no witness within ``max_depth`` is flagged, not raised; the
    report says whether every sampled element was witnessed.
    """
    if machine is None:
        machine = build_representation(data)
    report = WitnessReport(max_depth=max_depth)
    attempts = 0
    while len(report.entries) < samples and attempts < samples * 20:
        attempts += 1
        g = data.model.random_element(rng)
        if data.model.is_identity(g):
            continue
        witness = find_moving_string(machine.automorphism_of(g), max_depth)
        report.entries.append((g, witness))
    return report
