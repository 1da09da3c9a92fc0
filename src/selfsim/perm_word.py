"""Permutations of a finite letter set and freely reduced words over named generators.

Conventions used throughout the package:

* permutations act on the right, written ``i ** p`` in prose and ``p(i)`` in
  code, and compose left-to-right: ``(p * q)(i) == q(p(i))``;
* a word is a sequence of ``(name, sign)`` symbols, kept freely reduced, with
  the empty word standing for the identity;
* inverses are written with the suffix ``^-1`` in word text, e.g. ``a b^-1``.

All values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Symbol = tuple[str, int]


class Perm:
    """A bijection of ``{0..m-1}`` stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, m: int) -> "Perm":
        return cls(range(m))

    @classmethod
    def from_cycles(cls, m: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        images = list(range(m))
        for cycle in cycles:
            for i, a in enumerate(cycle):
                images[a] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) != len(other.images):
            raise ValueError("cannot compose permutations of different degrees")
        return Perm(other.images[i] for i in self.images)

    def inverse(self) -> "Perm":
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return Perm(images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimal point, sorted by it."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Perm({self.images!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name) or name == "e":
        raise ValueError(f"invalid generator name: {name!r}")
    return name


def _reduce(symbols: Iterable[Symbol]) -> tuple[Symbol, ...]:
    out: list[Symbol] = []
    for name, sign in symbols:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


class GroupWord:
    """A freely reduced word over named generators; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, symbols: Iterable[Symbol] = (), reduced: bool = False):
        letters = tuple(symbols) if reduced else _reduce(symbols)
        for name, sign in letters:
            if sign not in (1, -1):
                raise ValueError(f"symbol sign must be +1 or -1, got {sign!r}")
        self.letters = letters

    @classmethod
    def identity(cls) -> "GroupWord":
        return _EMPTY

    @classmethod
    def gen(cls, name: str, sign: int = 1) -> "GroupWord":
        _validate_name(name)
        return cls(((name, sign),), reduced=True)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if not self.letters:
            return other
        if not other.letters:
            return self
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(
            tuple((name, -sign) for name, sign in reversed(self.letters)), reduced=True
        )

    def __pow__(self, n: int) -> "GroupWord":
        if n == 0:
            return _EMPTY
        letters = (self if n > 0 else self.inverse()).letters
        # the word is u c u^-1 with c cyclically reduced, so c^|n| needs no reduction
        k, end = 0, len(letters)
        while k < end - k - 1:
            name, sign = letters[end - k - 1]
            if letters[k] != (name, -sign):
                break
            k += 1
        core = letters[k : end - k] * abs(n)
        return GroupWord(letters[:k] + core + letters[end - k :], reduced=True)

    def conjugate_by(self, other: "GroupWord") -> "GroupWord":
        """Right conjugation: ``w.conjugate_by(v) == v^-1 w v``."""
        return other.inverse() * self * other

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(f"{n}" if s > 0 else f"{n}^-1" for n, s in self.letters)

    def __repr__(self) -> str:
        return f"GroupWord({str(self)!r})"


_EMPTY = GroupWord((), reduced=True)


def commutator(u: GroupWord, v: GroupWord) -> GroupWord:
    """``[u, v] = u^-1 v^-1 u v``."""
    return u.inverse() * v.inverse() * u * v


def parse_word(text: str) -> GroupWord:
    """Parse whitespace-separated symbols ``gen`` or ``gen^-1``; ``e`` is the identity."""
    symbols: list[Symbol] = []
    for token in text.split():
        if token == "e":
            continue
        if token.endswith("^-1"):
            name, sign = token[:-3], -1
        else:
            name, sign = token, 1
        _validate_name(name)
        symbols.append((name, sign))
    return GroupWord(symbols)
