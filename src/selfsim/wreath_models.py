"""Exact models for wreath products of abelian groups by free abelian top groups.

An element of ``(Z^l + B) wr Z^d`` is a pair ``(base, top)``: ``top`` lies in
Z^d, and ``base`` is a finitely supported map from monomial exponents in Z^d
to coefficient vectors (``l`` integer slots, then one residue slot per torsion
order).  The top group acts by monomial translation with conjugation written
on the right: ``(a^w)^{x^v} = a^{w x^v}``, so multiplication reads

    (w1, t1) (w2, t2) = (w1 + w2 x^{-t1}, t1 + t2).

``WreathModel`` owns this law and shares the canonical form and the support
merge of ``gdata_engine.SupportModel`` with the lamp carrier.  All elements
are canonical (zero coefficients dropped, residues reduced), so ``==`` is
exact group equality.
"""

from __future__ import annotations

from operator import add, neg, sub
from typing import Sequence

from .gdata_engine import (
    CosetSpace,
    EngineMachine,
    GData,
    GroupModel,
    SupportModel,
    VirtualEndo,
    build_representation,
    direct_power_data,
    lamp_data,
    lamp_extension_data,
    reduce_coeff,
    wreath_by_regular_data,
)
from .perm_word import GroupWord, Perm
from .tree_core import Automorphism, TableMachine


class ZModel(GroupModel):
    """The additive integers with single generator ``a``."""

    def __init__(self):
        super().__init__()
        self.generators = {"a": 1}

    def identity(self) -> int:
        return 0

    def multiply(self, a: int, b: int) -> int:
        return a + b

    def invert(self, a: int) -> int:
        return -a

    def random_element(self, rng) -> int:
        return rng.randint(-40, 40)


def z_data() -> GData:
    """Index-2 data on Z: the doubling subgroup with halving as the endomorphism."""
    model = ZModel()
    endo = VirtualEndo(
        model,
        contains=lambda n: n % 2 == 0,
        image=lambda n: n // 2,
        transversal=(0, 1),
        coset_index=lambda n: n % 2,
    )
    return GData(model, [endo])


def z_coset_space() -> CosetSpace:
    """Cosets of the trivial parabolic subgroup of Z: labels are the integers."""
    return CosetSpace(
        label=lambda g: g,
        translate=lambda lab, g: lab + g,
        identity_label=0,
        lambda_image=lambda lab: lab // 2 if lab % 2 == 0 else None,
        lambda_surjective=True,
    )


# generator a{k} of zomega is a k-long tuple, so n named copies take ~n^2/2
# entries; the same bound holds l and d of ``zl-wr-zd`` (l + d generators of
# width l or d), the base slots of a concatenation and ``diagram2(n)``
MAX_NAMED_COPIES = 1000
# the largest p of ``thmD`` and ``cp-wr-z2``: the table holds about p^2/2 letters
MAX_THMD_P = 1000
# the largest |B| of a lamplighter selector, whose machine has 2|B| + 1 letters
MAX_LAMPS = 256
# the most selectors that ``concat:`` joins
MAX_CONCAT_PARTS = 4


def zomega_data(named_copies: int) -> GData:
    if not 1 <= named_copies <= MAX_NAMED_COPIES:
        raise ValueError(f"zomega needs 1 <= n <= {MAX_NAMED_COPIES} named copies")
    return direct_power_data(z_data(), named_copies)


class WreathModel(SupportModel):
    """Exact arithmetic in ``(Z^free_rank + torsion) wr Z^top_dim``: supports
    map points of Z^top_dim to coefficients, and tops translate the points.
    Its own ``multiply`` and ``invert`` add the tops and translate the points
    inside the product; two nonempty supports go to ``SupportModel._merge``."""

    def __init__(self, free_rank: int, torsion: Sequence[int], top_dim: int):
        super().__init__()
        self.free_rank = free_rank
        self.torsion = tuple(torsion)
        self.top_dim = top_dim
        self.width = free_rank + len(self.torsion)
        if self.width < 1:
            raise ValueError("base group needs at least one component")
        if any(k < 2 for k in self.torsion):
            raise ValueError("torsion orders must be at least 2")
        if top_dim < 1:
            raise ValueError("top dimension must be at least 1")
        self.mods = (0,) * free_rank + self.torsion
        self.top_identity = (0,) * top_dim

    def multiply(self, a, b):
        # the right support moves by -t1; a translation keeps the points in
        # order, so the product needs no renormalising
        (phi1, t1), (phi2, t2) = a, b
        if self.top_dim == 2:
            (x, y), (x2, y2) = t1, t2
            tops = (x + x2, y + y2)
            if phi2 and (x or y):
                phi2 = tuple([((u - x, v - y), c) for (u, v), c in phi2])
        elif self.top_dim == 1:
            (x,), (x2,) = t1, t2
            tops = (x + x2,)
            if phi2 and x:
                phi2 = tuple([((u - x,), c) for (u,), c in phi2])
        else:
            tops = tuple(map(add, t1, t2))
            if phi2 and any(t1):
                phi2 = tuple([(tuple(map(sub, p, t1)), c) for p, c in phi2])
        if not phi2:
            return (phi1, tops)
        return (self._merge(phi1, phi2), tops)

    def invert(self, a):
        # (phi, t)^-1 = (-phi moved by +t, -t)
        phi, top = a
        if self.width == 1:
            k = self.mods[0]
            phi = [(p, (-v % k if k else -v,)) for p, (v,) in phi]
        else:
            phi = [(p, tuple([-v % k if k else -v for v, k in zip(c, self.mods)])) for p, c in phi]
        if self.top_dim == 2:
            x, y = top
            if x or y:
                return (tuple([((u + x, v + y), c) for (u, v), c in phi]), (-x, -y))
        elif self.top_dim == 1:
            (x,) = top
            if x:
                return (tuple([((u + x,), c) for (u,), c in phi]), (-x,))
        elif any(top):
            return (tuple([(tuple(map(add, p, top)), c) for p, c in phi]), tuple(map(neg, top)))
        return (tuple(phi), top)

    def base_generator(self, slot: int):
        unit = tuple(int(i == slot) for i in range(self.width))
        return (((self.top_identity, unit),), self.top_identity)

    def top_generator(self, coord: int):
        return ((), tuple(1 if i == coord else 0 for i in range(self.top_dim)))

    def random_element(self, rng):
        entries = []
        for _ in range(rng.randint(0, 3)):
            vec = tuple(rng.randint(-2, 2) for _ in range(self.top_dim))
            coeff = reduce_coeff([rng.randint(-2, 2) for _ in range(self.width)], self.mods)
            entries.append((vec, coeff))
        top = tuple(rng.randint(-2, 2) for _ in range(self.top_dim))
        return (self.norm_base(entries), top)


# ---------------------------------------------------------------------------
# Concatenation of wreath-model data over a common top group.
# ---------------------------------------------------------------------------


def concatenate(d1: GData, d2: GData) -> GData:
    """Combine data for two wreath products with the same top group into data
    for the wreath product of the direct sum of their base groups.

    The combined base holds the free slots of both sides, then their torsion
    slots.  Each endomorphism of one side extends to the combined group by
    killing the other side's base component; transversals and coset indices
    carry over.  Generators keep their names (a name already taken gains the
    first free suffix ``_2``, ``_3``, ..), and one that equals an earlier
    generator is dropped.
    """
    m1, m2 = d1.model, d2.model
    if not isinstance(m1, WreathModel) or not isinstance(m2, WreathModel):
        raise ValueError("concatenation needs wreath-model data on both sides")
    if m1.top_dim != m2.top_dim:
        raise ValueError("concatenation needs a common top group")
    if m1.width + m2.width > MAX_NAMED_COPIES:
        raise ValueError(f"concatenation needs at most {MAX_NAMED_COPIES} base slots")
    model = WreathModel(m1.free_rank + m2.free_rank, m1.torsion + m2.torsion, m1.top_dim)
    endos: list[VirtualEndo] = []
    seen: set = set()  # the lifted generators, to drop a repeat

    def lift(data: GData, down, up) -> None:
        """Add one side's generators to ``model`` and its endomorphisms to
        ``endos``; ``down`` and ``up`` move a coefficient between the side's
        slots and the combined ones."""

        def project(g):
            base, top = g
            return data.model.norm_base((vec, down(coeff)) for vec, coeff in base), top

        def embed(g):
            base, top = g
            # ``up`` only adds zero slots: the points stay sorted, no coefficient zero
            return tuple([(vec, up(coeff)) for vec, coeff in base]), top

        for name, g in data.model.generators.items():
            lifted = embed(g)
            if lifted in seen:
                continue
            seen.add(lifted)
            if name in model.generators:  # same name from both sides
                n = 2
                while f"{name}_{n}" in model.generators:
                    n += 1
                name = f"{name}_{n}"
            model.generators[name] = lifted
        for endo in data.endos:
            endos.append(
                VirtualEndo(
                    model,
                    contains=lambda g, endo=endo: endo.contains(project(g)),
                    image=lambda g, endo=endo: embed(endo.image(project(g))),
                    transversal=tuple(embed(t) for t in endo.transversal),
                    coset_index=lambda g, endo=endo: endo.coset_index(project(g)),
                )
            )

    l1, l2, r1, r2 = m1.free_rank, m2.free_rank, len(m1.torsion), len(m2.torsion)
    t1, t2 = l1 + l2, l1 + l2 + r1  # where the torsion slots of each side start
    lift(d1, lambda c: c[:l1] + c[t1:t2], lambda c: c[:l1] + (0,) * l2 + c[l1:] + (0,) * r2)
    lift(d2, lambda c: c[l1:t1] + c[t2:], lambda c: (0,) * l1 + c[:l2] + (0,) * r1 + c[l2:])
    return GData(model, endos)


# ---------------------------------------------------------------------------
# Z^l wr Z^d data (degree 4; degree 3 when d = 1).
# ---------------------------------------------------------------------------


def prop31_endos(l: int, d: int) -> GData:
    """Data for ``Z^l wr Z^d``: halve the first top coordinate while rotating the
    base index down (g0 = gl), rotate the variables (d >= 2 only), and read
    total base exponents into the first top coordinate."""
    if not (1 <= l <= MAX_NAMED_COPIES and 1 <= d <= MAX_NAMED_COPIES):
        raise ValueError(f"zl-wr-zd needs 1 <= l, d <= {MAX_NAMED_COPIES}")
    model = WreathModel(l, (), d)
    for i in range(l):
        model.generators[f"g{i + 1}"] = model.base_generator(i)
    for i in range(d):
        model.generators[f"a{i + 1}"] = model.top_generator(i)

    def f1_image(g):
        base, top = g
        entries = []
        for vec, coeff in base:
            if vec[0] % 2 == 0:
                entries.append(((vec[0] // 2,) + vec[1:], coeff[1:] + coeff[:1]))
        return (model.norm_base(entries), (top[0] // 2,) + top[1:])

    f1 = VirtualEndo(
        model,
        contains=lambda g: g[1][0] % 2 == 0,
        image=f1_image,
        transversal=(model.identity(), model.top_generator(0)),
        coset_index=lambda g: g[1][0] % 2,
    )

    def f2_image(g):
        base, top = g
        # rotating the support vectors changes their order, so renormalise
        entries = [(vec[1:] + vec[:1], coeff) for vec, coeff in base]
        return (model.norm_base(entries), top[1:] + top[:1])

    def f3_image(g):
        return ((), (model.coeff_total(g)[0],) + (0,) * (d - 1))

    f2, f3 = VirtualEndo.whole(model, f2_image), VirtualEndo.whole(model, f3_image)
    endos = [f1, f3] if d == 1 else [f1, f2, f3]
    return GData(model, endos)


def zwrz_data() -> GData:
    return prop31_endos(1, 1)


def zwrz_wr_c2_data() -> GData:
    """Degree-4 data for the wreath product of ``Z wr Z`` by the order-2 group."""
    return wreath_by_regular_data(zwrz_data(), [Perm.identity(2), Perm((1, 0))])


# ---------------------------------------------------------------------------
# Laurent polynomials in two variables over Z/p and the ideal decomposition
# s = p(x)(x-1) + q(y)(y-1) + r(x,y)(x-1)(y-1).
# ---------------------------------------------------------------------------

Poly2 = dict[tuple[int, int], int]


def poly_norm(poly: Poly2, p: int) -> Poly2:
    return {k: c % p for k, c in poly.items() if c % p}


def _divide_linear(poly: Poly2, p: int, var: int) -> Poly2:
    """Exact division by (x-1) (var=0) or (y-1) (var=1); raises if not divisible."""
    slices: dict[int, dict[int, int]] = {}
    for key, c in poly_norm(poly, p).items():
        deg, other = (key[var], key[1 - var])
        slices.setdefault(other, {})[deg] = c
    out: Poly2 = {}
    for other in sorted(slices):
        v = slices[other]
        lo, hi = min(v), max(v)
        prev = 0
        for k in range(lo, hi + 1):
            u = (prev - v.get(k, 0)) % p
            if u:
                key = (k, other) if var == 0 else (other, k)
                out[key] = u
            prev = u
        if prev:
            raise ValueError("polynomial is not in the augmentation ideal")
    return out


def _sum_out(entries, var: int) -> Poly2:
    """s(x, 1) for var=0, or s(1, y) for var=1, from the ``((m, n), c)`` entries of s."""
    out: Poly2 = {}
    for key, c in entries:
        k = (key[0], 0) if var == 0 else (0, key[1])
        out[k] = out.get(k, 0) + c
    return out


def decompose(s: Poly2, p: int) -> tuple[Poly2, Poly2, Poly2]:
    """Split an augmentation-ideal element as p(x)(x-1) + q(y)(y-1) + r(x,y)(x-1)(y-1).

    The last term vanishes at x=1 and at y=1, and s(1, 1) = 0, so
    p(x)(x-1) = s(x, 1), q(y)(y-1) = s(1, y) and
    r(x,y)(x-1)(y-1) = s - s(x, 1) - s(1, y).
    """
    s = poly_norm(s, p)
    if sum(s.values()) % p:
        raise ValueError("total coefficient sum is nonzero: not an ideal element")
    sx, sy = _sum_out(s.items(), 0), _sum_out(s.items(), 1)
    rest = dict(s)
    for key, c in (*sx.items(), *sy.items()):
        rest[key] = rest.get(key, 0) - c
    R = _divide_linear(_divide_linear(rest, p, 0), p, 1)
    return _divide_linear(sx, p, 0), _divide_linear(sy, p, 1), R


# ---------------------------------------------------------------------------
# C_p wr Z^2 data of orbit type (p, 1), and the degree p+1 table it realises.
# ---------------------------------------------------------------------------


def cp_wr_z2_data(p: int) -> GData:
    """Data for C_p wr Z^2 at any p from 2 to MAX_THMD_P; the paper's Theorem
    D takes p prime, and nothing here checks faithfulness at a composite p.

    Membership in the index-p subgroup is a zero total base exponent mod p;
    the first map keeps only the q(y)-part of the ideal decomposition, the
    second substitutes (x, y) -> (y, xy).  Generator names follow the states
    of the degree p+1 machine they produce: s (lamp), a (second top
    coordinate), b (first top coordinate).  The first map's transversal is
    the powers of the lamp, so the coset of g is its total exponent mod p;
    another transversal only relabels the letters of that orbit.
    """
    if not 2 <= p <= MAX_THMD_P:
        raise ValueError(f"cp-wr-z2 needs 2 <= p <= {MAX_THMD_P}")
    model = WreathModel(0, (p,), 2)
    model.generators["s"] = model.base_generator(0)
    model.generators["a"] = model.top_generator(1)
    model.generators["b"] = model.top_generator(0)

    def f1_image(g):
        """The Q part of ``decompose``: Q(y)(y-1) = s(1, y), the column sums
        s_n of the support, so q_n = q_(n-1) - s_n, constant between columns."""
        base, top = g
        columns: dict[int, int] = {}
        for (_, n), (c,) in base:
            columns[n] = columns.get(n, 0) + c
        entries, q, prev = [], 0, 0
        for n in sorted(columns):
            if q:
                entries.extend([((0, k), (q,)) for k in range(prev, n)])
            q, prev = (q - columns[n]) % p, n
        if q:
            raise ValueError("polynomial is not in the augmentation ideal")
        return (tuple(entries), (0, top[1]))

    def total(g) -> int:
        """The total base exponent mod p: the coset of g, 0 on the subgroup."""
        n = 0
        for _, (c,) in g[0]:
            n += c
        return n % p

    lamp = model.base_generator(0)
    transversal = [model.identity()]
    for k in range(1, p):
        transversal.append(model.multiply(transversal[-1], lamp))

    f1 = VirtualEndo(
        model,
        contains=lambda g: not total(g),
        image=f1_image,
        transversal=transversal,
        coset_index=total,
    )

    def f2_image(g):
        # (m, n) -> (n, m + n) is a bijection, so no two points merge
        base, (i, j) = g
        return (tuple(sorted(((n, m + n), coeff) for (m, n), coeff in base)), (j, i + j))

    return GData(model, [f1, VirtualEndo.whole(model, f2_image)])


def thmD(p: int) -> TableMachine:
    """Degree p+1 machine s = (e,..,e,s)(0 1 .. p-1), a = (a, a s, .., a s^(p-1), a b),
    b = (e,..,e,a).  Not a Mealy automaton: sections of ``a`` are proper words.
    """
    if not 2 <= p <= MAX_THMD_P:
        raise ValueError(f"thmD needs 2 <= p <= {MAX_THMD_P}")
    m = p + 1
    ident = Perm.identity(m)
    cycle = Perm.from_cycles(m, [tuple(range(p))])
    e = GroupWord.identity()
    a, b, s = GroupWord.gen("a"), GroupWord.gen("b"), GroupWord.gen("s")
    table = {
        "s": ([e] * p + [s], cycle),
        "a": ([a * s**k for k in range(p)] + [a * b], ident),
        "b": ([e] * p + [a], ident),
    }
    return TableMachine(m, table)


def thmD_engine_machine(p: int) -> EngineMachine:
    return build_representation(cp_wr_z2_data(p))


def fibonacci_states(p: int, n: int, machine=None) -> list[Automorphism]:
    """The words a^(F_i) b^(F_(i-1)), i = 1..n, over the degree p+1 machine,
    where F is the Fibonacci sequence 0, 1, 1, 2, 3, ...  These accompany the
    evidence that the representation is not finite-state."""
    if n < 2:
        raise ValueError("need n >= 2")
    if machine is None:
        machine = thmD(p)
    a, b = GroupWord.gen("a"), GroupWord.gen("b")
    out = []
    prev, cur = 0, 1  # F_0, F_1
    for _ in range(n):
        out.append(Automorphism(machine, a**cur * b**prev))
        prev, cur = cur, prev + cur
    return out


# ---------------------------------------------------------------------------
# Lamp extensions over Z: the lamplighter family, on both carriers.
# ---------------------------------------------------------------------------


def lamplighter_extension_data(orders: Sequence[int]) -> GData:
    """The lamp extension of Z (generic carrier): B-valued maps on the integer
    cosets of the trivial parabolic subgroup, extended by Z."""
    return lamp_extension_data(orders, z_data(), [z_coset_space()])


def lamplighter_data(orders: Sequence[int]) -> GData:
    """The same lamp extension of Z carried by the wreath model, so it can be
    concatenated with other wreath-model data over Z.

    A ``WreathModel(0, orders, 1)`` element is a ``(support, tops)`` pair whose
    points and tops are 1-tuples of integers, the labels of ``z_coset_space``,
    so ``lamp_data`` builds the same endomorphisms as for the generic carrier.
    """
    return lamp_data(WreathModel(0, orders, 1), z_data(), [z_coset_space()])


# ---------------------------------------------------------------------------
# Named data selectors (shared by the command line).
# ---------------------------------------------------------------------------


def _int(name: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"the {name} selector needs an integer {key}, got {value!r}") from None


def _int_params(name: str, argstr: str, **defaults) -> dict[str, int]:
    """The integer ``key=value`` parameters of a selector.  Only the keys of
    ``defaults`` are accepted, each once; a default of None marks a required key."""
    kv = {}
    for part in filter(None, (part.strip() for part in argstr.split(","))):
        key, eq, value = (x.strip() for x in part.partition("="))
        if not eq:
            raise ValueError(f"expected key=value, got {part!r}")
        if key not in defaults or key in kv:
            raise ValueError(f"unknown or repeated key {key!r} in the {name} selector")
        kv[key] = _int(name, key, value)
    for key, default in defaults.items():
        if default is None and key not in kv:
            raise ValueError(f"the {name} selector needs {key}=<int>")
    return {key: kv.get(key, default) for key, default in defaults.items()}


def data_by_selector(selector: str) -> GData:
    """Resolve a model selector string to its group data.

    Selectors: ``z``, ``zomega:n=<n>`` (n defaults to 5),
    ``zl-wr-zd:l=<l>,d=<d>``, ``cp-wr-z2:p=<p>``, ``zwrz``, ``zwrz-wr-c2``,
    ``lamplighter:B=<k1,..,kr>`` and ``concat:<sel>+<sel>`` (both sides over
    the same top group, up to ``MAX_CONCAT_PARTS`` parts).
    """
    selector = selector.strip()
    if selector.startswith("concat:"):
        parts = selector[len("concat:") :].split("+")
        if len(parts) < 2:
            raise ValueError("concat needs two selectors joined by '+'")
        if len(parts) > MAX_CONCAT_PARTS:
            raise ValueError(f"concat joins at most {MAX_CONCAT_PARTS} selectors")
        data = data_by_selector(parts[0])
        for part in parts[1:]:
            data = concatenate(data, data_by_selector(part))
        return data
    name, _, argstr = selector.partition(":")
    plain = {"z": z_data, "zwrz": zwrz_data, "zwrz-wr-c2": zwrz_wr_c2_data}
    if name in plain:
        _int_params(name, argstr)
        return plain[name]()
    if name == "zomega":
        return zomega_data(_int_params(name, argstr, n=5)["n"])
    if name == "zl-wr-zd":
        return prop31_endos(**_int_params(name, argstr, l=None, d=None))
    if name == "cp-wr-z2":
        return cp_wr_z2_data(**_int_params(name, argstr, p=None))
    if name == "lamplighter":
        key, _, value = argstr.partition("=")
        if key.strip() != "B" or not value.replace(",", "").strip():
            raise ValueError("lamplighter selector needs B=<k1,..,kr>")
        orders, size = [], 1
        for v in filter(None, map(str.strip, value.split(","))):  # |B| is bounded factor by factor
            k = _int(name, "B", v)
            if k < 2:
                raise ValueError(f"the {name} selector needs factors of at least 2, got {k}")
            orders.append(k)
            size *= k
            if size > MAX_LAMPS:
                raise ValueError(f"lamplighter needs |B| <= {MAX_LAMPS}")
        return lamplighter_data(orders)
    raise ValueError(f"unknown data selector: {selector!r}")
