"""Exact models for wreath products of abelian groups by free abelian top groups.

An element of ``(Z^l + B) wr Z^d`` is a pair ``(base, top)``: ``top`` lies in
Z^d, and ``base`` is a finitely supported map from monomial exponents in Z^d
to coefficient vectors (``l`` integer slots, then one residue slot per torsion
order).  The top group acts by monomial translation with conjugation written
on the right: ``(a^w)^{x^v} = a^{w x^v}``, so multiplication reads

    (w1, t1) (w2, t2) = (w1 + w2 x^{-t1}, t1 + t2).

All elements are canonical (zero coefficients dropped, residues reduced), so
``==`` is exact group equality.
"""

from __future__ import annotations

from operator import neg
from typing import Sequence

from .gdata_engine import (
    CosetSpace,
    EngineMachine,
    GData,
    GroupModel,
    SequenceModel,
    VirtualEndo,
    build_representation,
    concatenate,
    direct_power_data,
    lamp_data,
    lamp_extension_data,
    norm_support,
    reduce_coeff,
    support_total,
    wreath_by_regular_data,
)
from .mealy import brunner_sidki_pair, thmD
from .perm_word import GroupWord, Perm
from .tree_core import Automorphism


class ZModel(GroupModel):
    """The additive integers with single generator ``a``."""

    name = "Z"

    def __init__(self):
        super().__init__()
        self.generators = {"a": 1}

    def identity(self) -> int:
        return 0

    def multiply(self, a: int, b: int) -> int:
        return a + b

    def invert(self, a: int) -> int:
        return -a

    def is_identity(self, g: int) -> bool:
        return g == 0

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


def zomega_data(named_copies: int = 5) -> GData:
    if named_copies < 1:
        raise ValueError("need at least one named copy (n >= 1)")
    return direct_power_data(z_data(), named_copies)


TopVector = tuple[int, ...]


class WreathModel(GroupModel):
    """Exact arithmetic in ``(Z^free_rank + torsion) wr Z^top_dim``."""

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
        self.name = f"(Z^{free_rank}+{self.torsion}) wr Z^{top_dim}"
        self.mods = (0,) * free_rank + self.torsion

    # -- bases (finitely supported maps Z^d -> coefficients) -----------------

    def norm_base(self, entries) -> tuple:
        return norm_support(entries, self.mods)

    def coeff_total(self, a) -> tuple[int, ...]:
        return support_total(a[0], self.mods)

    def _shift_base(self, base, vec: TopVector) -> list:
        return [(tuple(p + v for p, v in zip(point, vec)), coeff) for point, coeff in base]

    # -- group operations -----------------------------------------------------

    def zero_top(self) -> TopVector:
        return (0,) * self.top_dim

    def identity(self):
        return ((), self.zero_top())

    def multiply(self, a, b):
        (b1, t1), (b2, t2) = a, b
        neg_t1 = tuple(-v for v in t1)
        base = self.norm_base(list(b1) + self._shift_base(b2, neg_t1))
        return (base, tuple(x + y for x, y in zip(t1, t2)))

    def invert(self, a):
        base, top = a
        shifted = self._shift_base(
            [(vec, reduce_coeff(map(neg, coeff), self.mods)) for vec, coeff in base], top
        )
        return (self.norm_base(shifted), tuple(-v for v in top))

    def is_identity(self, a) -> bool:
        base, top = a
        return not base and not any(top)

    def base_generator(self, slot: int):
        unit = tuple(int(i == slot) for i in range(self.width))
        return (((self.zero_top(), unit),), self.zero_top())

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

    # -- concatenation support -------------------------------------------------

    @staticmethod
    def combine(m1: "WreathModel", m2: "WreathModel"):
        """A model for the direct sum of the two bases over the common top group,
        with (project, embed) bridges onto each side."""
        if m1.top_dim != m2.top_dim:
            raise ValueError("cannot combine wreath models with different top groups")
        combined = WreathModel(
            m1.free_rank + m2.free_rank, m1.torsion + m2.torsion, m1.top_dim
        )
        l1, l2 = m1.free_rank, m2.free_rank
        r1 = len(m1.torsion)

        def slots1(c):
            return c[:l1] + c[l1 + l2 : l1 + l2 + r1]

        def slots2(c):
            return c[l1 : l1 + l2] + c[l1 + l2 + r1 :]

        def up1(c):
            return c[:l1] + (0,) * l2 + c[l1:] + (0,) * len(m2.torsion)

        def up2(c):
            return (0,) * l1 + c[:l2] + (0,) * r1 + c[l2:]

        def bridge(side, up, down):
            def project(g):
                base, top = g
                return side.norm_base((vec, down(coeff)) for vec, coeff in base), top

            def embed(g):
                base, top = g
                return combined.norm_base((vec, up(coeff)) for vec, coeff in base), top

            return project, embed

        bridges = (bridge(m1, up1, slots1), bridge(m2, up2, slots2))
        for (_, embed), source in zip(bridges, (m1, m2)):
            for name, g in source.generators.items():
                lifted = embed(g)
                if lifted in set(combined.generators.values()):
                    continue
                if name in combined.generators:  # same name from both sides
                    n = 2
                    while f"{name}_{n}" in combined.generators:
                        n += 1
                    name = f"{name}_{n}"
                combined.generators[name] = lifted
        return combined, bridges


# ---------------------------------------------------------------------------
# Z^l wr Z^d data (degree 4; degree 3 when d = 1).
# ---------------------------------------------------------------------------


def prop31_endos(l: int, d: int) -> GData:
    """Data for ``Z^l wr Z^d``: halve the first top coordinate while rotating the
    base index down (g0 = gl), rotate the variables (d >= 2 only), and read
    total base exponents into the first top coordinate."""
    if l < 1 or d < 1:
        raise ValueError("need l >= 1 and d >= 1")
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
                rotated = tuple(coeff[(j + 1) % l] for j in range(l))
                entries.append(((vec[0] // 2,) + vec[1:], rotated))
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
        entries = [
            (tuple(vec[(j + 1) % d] for j in range(d)), coeff) for vec, coeff in base
        ]
        return (model.norm_base(entries), tuple(top[(j + 1) % d] for j in range(d)))

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


def poly_add(a: Poly2, b: Poly2, p: int) -> Poly2:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return poly_norm(out, p)


def poly_scale(a: Poly2, c: int, p: int) -> Poly2:
    return poly_norm({k: v * c for k, v in a.items()}, p)


def poly_mul(a: Poly2, b: Poly2, p: int) -> Poly2:
    out: Poly2 = {}
    for (m1, n1), c1 in a.items():
        for (m2, n2), c2 in b.items():
            k = (m1 + m2, n1 + n2)
            out[k] = out.get(k, 0) + c1 * c2
    return poly_norm(out, p)


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
    """Split an augmentation-ideal element as p(x)(x-1) + q(y)(y-1) + r(x,y)(x-1)(y-1)."""
    s = poly_norm(s, p)
    if sum(s.values()) % p:
        raise ValueError("total coefficient sum is nonzero: not an ideal element")
    # the last term vanishes at x=1 and at y=1: p(x)(x-1) = s(x, 1), q(y)(y-1) = s(1, y)
    P = _divide_linear(_sum_out(s.items(), 0), p, 0)
    Q = _divide_linear(_sum_out(s.items(), 1), p, 1)
    xm1 = {(1, 0): 1, (0, 0): -1}
    ym1 = {(0, 1): 1, (0, 0): -1}
    rem = poly_add(
        s, poly_scale(poly_add(poly_mul(P, xm1, p), poly_mul(Q, ym1, p), p), -1, p), p
    )
    R = _divide_linear(_divide_linear(rem, p, 0), p, 1)
    return P, Q, R


def recompose(P: Poly2, Q: Poly2, R: Poly2, p: int) -> Poly2:
    xm1 = {(1, 0): 1, (0, 0): -1}
    ym1 = {(0, 1): 1, (0, 0): -1}
    out = poly_add(poly_mul(P, xm1, p), poly_mul(Q, ym1, p), p)
    return poly_add(out, poly_mul(poly_mul(R, xm1, p), ym1, p), p)


# ---------------------------------------------------------------------------
# C_p wr Z^2 data of orbit type (p, 1).
# ---------------------------------------------------------------------------


def cp_wr_z2_data(p: int, inverse_transversal: bool = False) -> GData:
    """Data for the wreath product of a prime-order cyclic group by Z^2.

    Membership in the index-p subgroup is a zero total base exponent mod p;
    the first map keeps only the q(y)-part of the ideal decomposition, the
    second substitutes (x, y) -> (y, xy).  Generator names follow the states
    of the degree p+1 machine they produce: s (lamp), a (second top
    coordinate), b (first top coordinate).

    ``inverse_transversal`` switches the coset representatives from powers of
    the lamp to powers of its inverse (see ``thmD_transversal_comparison``).
    """
    if p < 2:
        raise ValueError("need p >= 2")
    model = WreathModel(0, (p,), 2)
    model.generators["s"] = model.base_generator(0)
    model.generators["a"] = model.top_generator(1)
    model.generators["b"] = model.top_generator(0)

    def f1_image(g):
        base, top = g
        Q = _divide_linear(_sum_out(((vec, c) for vec, (c,) in base), 1), p, 1)  # decompose's Q
        return (model.norm_base((vec, (c,)) for vec, c in Q.items()), (0, top[1]))

    lamp = model.base_generator(0)
    step = model.invert(lamp) if inverse_transversal else lamp
    transversal = [model.identity()]
    for k in range(1, p):
        transversal.append(model.multiply(transversal[-1], step))
    sign = -1 if inverse_transversal else 1

    f1 = VirtualEndo(
        model,
        contains=lambda g: model.coeff_total(g)[0] % p == 0,
        image=f1_image,
        transversal=transversal,
        coset_index=lambda g: (sign * model.coeff_total(g)[0]) % p,
    )

    def f2_image(g):
        base, (i, j) = g
        entries = [(((n, m + n)), coeff) for (m, n), coeff in base]
        return (model.norm_base(entries), (j, i + j))

    return GData(model, [f1, VirtualEndo.whole(model, f2_image)])


def thmD_engine_machine(p: int, inverse_transversal: bool = False) -> EngineMachine:
    return build_representation(cp_wr_z2_data(p, inverse_transversal))


def thmD_transversal_comparison(p: int, depth: int = 12) -> dict[str, bool]:
    """Per-ordering agreement of the engine-derived machine with the explicit
    degree p+1 table, state by state to the given depth.

    The table and the data describe the same group but a priori could realise
    different labelled actions; this reports the facts instead of reconciling
    them.  Under the standard ordering (powers of the lamp) the two agree; the
    inverted ordering relabels the lamp block and disagrees for p > 2.
    """
    from .tree_core import equal_to_depth

    table = thmD(p)
    out = {}
    for key, flag in (("standard", False), ("inverse", True)):
        engine = thmD_engine_machine(p, inverse_transversal=flag)
        out[key] = all(
            equal_to_depth(engine.automorphism(name), Automorphism(table, GroupWord.gen(name)), depth)
            for name in ("s", "a", "b")
        )
    return out


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
    orders = tuple(orders)
    model = WreathModel(0, orders, 1)
    for j in range(len(orders)):
        name = "b" if len(orders) == 1 else f"b{j + 1}"
        model.generators[name] = model.base_generator(j)
    model.generators["z"] = model.top_generator(0)
    return lamp_data(model, orders, z_data(), [z_coset_space()])


def mixed_base_data(orders: Sequence[int], l: int) -> GData:
    """Data of degree 2|B| + 4 for ``(Z^l + B) wr Z``: the lamp data over Z
    concatenated with the free-base data over the same top group."""
    return concatenate(lamplighter_data(orders), prop31_endos(l, 1))


# ---------------------------------------------------------------------------
# Named data selectors (shared by the command line).
# ---------------------------------------------------------------------------


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
        kv[key] = value
    for key, default in defaults.items():
        if default is None and key not in kv:
            raise ValueError(f"the {name} selector needs {key}=<int>")
    return {key: int(kv.get(key, default)) for key, default in defaults.items()}


def data_by_selector(selector: str) -> GData:
    """Resolve a model selector string to its group data.

    Selectors: ``z``, ``zomega:n=<n>`` (n defaults to 5),
    ``zl-wr-zd:l=<l>,d=<d>``, ``cp-wr-z2:p=<p>``, ``zwrz``, ``zwrz-wr-c2``,
    ``lamplighter:B=<k1,..,kr>`` and ``concat:<sel>+<sel>`` (both sides over
    the same top group).
    """
    selector = selector.strip()
    if selector.startswith("concat:"):
        parts = selector[len("concat:") :].split("+")
        if len(parts) < 2:
            raise ValueError("concat needs two selectors joined by '+'")
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
        key, eq, value = argstr.partition("=")
        if key.strip() != "B" or not eq:
            raise ValueError("lamplighter selector needs B=<k1,..,kr>")
        orders = tuple(int(v) for v in value.split(",") if v.strip())
        return lamplighter_data(orders)
    raise ValueError(f"unknown data selector: {selector!r}")


__all__ = [
    "CosetSpace",
    "GData",
    "SequenceModel",
    "VirtualEndo",
    "WreathModel",
    "ZModel",
    "brunner_sidki_pair",
    "data_by_selector",
    "decompose",
    "fibonacci_states",
    "lamplighter_data",
    "lamplighter_extension_data",
    "poly_add",
    "poly_mul",
    "prop31_endos",
    "recompose",
    "mixed_base_data",
    "cp_wr_z2_data",
    "thmD_engine_machine",
    "thmD_transversal_comparison",
    "z_coset_space",
    "z_data",
    "zomega_data",
    "zwrz_data",
    "zwrz_wr_c2_data",
]
