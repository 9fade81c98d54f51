"""Exact combinatorics on the cyclic group Z_n.

Residues, cyclic intervals, subsets and permutations in one-line notation.
Every value here is immutable and exact; floating point never enters at
this layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class ParseError(ValueError):
    """Malformed textual input."""


class ModulusMismatchError(ValueError):
    """Operands live in different Z_n."""


class DegenerateIntervalError(ValueError):
    """Empty or full interval where a proper one is required."""


def sym_abs(r: int, n: int) -> int:
    """Absolute value of the representative of r taken from (-n/2, n/2]."""
    if n <= 0:
        raise ValueError("modulus must be positive")
    r %= n
    return r if 2 * r <= n else n - r


@dataclass(frozen=True)
class CyclicInterval:
    """The residues {start, start+1, ..., start+length-1} mod n.

    length == 0 is the empty interval, length == n all of Z_n.  Wrapping is
    allowed: CyclicInterval(10, 9, 2) is {9, 0}.
    """

    n: int
    start: int
    length: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("modulus must be positive")
        if not 0 <= self.start < self.n:
            raise ValueError(f"start {self.start} not a residue mod {self.n}")
        if not 0 <= self.length <= self.n:
            raise ValueError(f"length {self.length} outside [0, {self.n}]")

    @classmethod
    def empty(cls, n: int) -> "CyclicInterval":
        return cls(n, 0, 0)

    @classmethod
    def full(cls, n: int) -> "CyclicInterval":
        return cls(n, 0, n)

    def __len__(self) -> int:
        return self.length

    def __contains__(self, x: int) -> bool:
        return (x - self.start) % self.n < self.length

    def elements(self) -> Iterator[int]:
        for i in range(self.length):
            yield (self.start + i) % self.n

    def wraps(self) -> bool:
        """True when the interval crosses the n-1 / 0 boundary."""
        return self.start + self.length > self.n

    def complement(self) -> "CyclicInterval":
        if self.length == self.n:
            return CyclicInterval.empty(self.n)
        return CyclicInterval(self.n, (self.start + self.length) % self.n,
                              self.n - self.length)

    def to_subset(self) -> "ZnSubset":
        return ZnSubset(self.n, frozenset(self.elements()))


@dataclass(frozen=True)
class ZnSubset:
    """A subset of Z_n, stored as a frozenset of residues."""

    n: int
    members: frozenset

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "members", frozenset(self.members))
        for x in self.members:
            if not 0 <= x < self.n:
                raise ValueError(f"element {x} not a residue mod {self.n}")

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "ZnSubset":
        return cls(n, frozenset(x % n for x in elements))

    @classmethod
    def empty(cls, n: int) -> "ZnSubset":
        return cls(n, frozenset())

    @classmethod
    def full(cls, n: int) -> "ZnSubset":
        return cls(n, frozenset(range(n)))

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x % self.n in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def complement(self) -> "ZnSubset":
        return ZnSubset(self.n, frozenset(range(self.n)) - self.members)

    def indicator(self) -> list:
        ind = [0] * self.n
        for x in self.members:
            ind[x] = 1
        return ind


@dataclass(frozen=True)
class Permutation:
    """A permutation of Z_n in one-line notation: images[i] = sigma(i)."""

    images: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if n == 0:
            raise ValueError("permutation must be nonempty")
        seen = [False] * n
        for i, v in enumerate(self.images):
            if not 0 <= v < n:
                raise ValueError(f"image {v} at index {i} outside [0, {n})")
            if seen[v]:
                raise ValueError(f"duplicate image {v} at index {i}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __call__(self, x: int) -> int:
        return self.images[x % self.n]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(x) = self(other(x))."""
        _check_moduli(self.n, other.n)
        return Permutation(tuple(self.images[v] for v in other.images))

    def reversed_one_line(self) -> "Permutation":
        """The one-line notation read right to left."""
        return Permutation(tuple(reversed(self.images)))


def _check_moduli(n1: int, n2: int) -> None:
    if n1 != n2:
        raise ModulusMismatchError(f"moduli differ: {n1} vs {n2}")


def parse_permutation(text: str) -> Permutation:
    """Parse whitespace- or comma-separated 0-based images."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty input")
    images = []
    for i, tok in enumerate(tokens):
        try:
            images.append(int(tok))
        except ValueError:
            raise ParseError(f"token {tok!r} at index {i} is not an integer") from None
    try:
        return Permutation(tuple(images))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_permutation(p: Permutation) -> str:
    return " ".join(str(v) for v in p.images)


# parse_set refuses larger moduli before building anything of length n
MAX_SET_MODULUS = 1 << 20


def parse_set(text: str) -> ZnSubset:
    """Parse the set format "n: e1 e2 ..." with 0 < n <= MAX_SET_MODULUS."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError("expected 'n: e1 e2 ...'")
    try:
        n = int(head.strip())
    except ValueError:
        raise ParseError(f"modulus {head.strip()!r} is not an integer") from None
    if n <= 0:
        raise ParseError("modulus must be positive")
    if n > MAX_SET_MODULUS:
        raise ParseError(f"modulus {n} exceeds the limit {MAX_SET_MODULUS}")
    elements = []
    for i, tok in enumerate(tail.replace(",", " ").split()):
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"token {tok!r} at index {i} is not an integer") from None
        if not 0 <= v < n:
            raise ParseError(f"element {v} at index {i} outside [0, {n})")
        elements.append(v)
    members = frozenset(elements)
    if len(members) != len(elements):
        raise ParseError("repeated element in set")
    return ZnSubset(n, members)


def serialize_set(s: ZnSubset) -> str:
    return f"{s.n}: " + " ".join(str(x) for x in s)


def components(s: ZnSubset) -> tuple:
    """Minimal decomposition of s into maximal cyclic intervals.

    Returns (count, parts).  The whole circle is a single component; the
    empty set has none.
    """
    n = s.n
    if s.size == n:
        return 1, [CyclicInterval.full(n)]
    ind = s.indicator()
    parts = []
    for x in range(n):
        if ind[x] and not ind[x - 1]:  # ind[-1] is ind[n - 1]: runs wrap
            length = 1
            while ind[(x + length) % n]:
                length += 1
            parts.append(CyclicInterval(n, x, length))
    return len(parts), parts


@dataclass(frozen=True)
class IntervalFlags:
    contiguous: bool
    terminal: bool
    initial: bool
    final: bool


def classify_interval(interval: CyclicInterval) -> IntervalFlags:
    """Structural flags of a proper interval.

    Contiguous: the projection onto [0, n-1] is an integer interval (no
    wrap).  Terminal: the complement is contiguous.  Initial / final:
    terminal and containing 0 / n-1 respectively.
    """
    n = interval.n
    if interval.length == 0 or interval.length == n:
        raise DegenerateIntervalError("flags undefined for empty or full interval")
    contiguous = not interval.wraps()
    terminal = not interval.complement().wraps()
    initial = terminal and 0 in interval
    final = terminal and (n - 1) in interval
    return IntervalFlags(contiguous, terminal, initial, final)


def image_of_interval(p: Permutation, interval: CyclicInterval) -> ZnSubset:
    """{sigma(x) : x in I} as a subset of Z_n."""
    _check_moduli(p.n, interval.n)
    return ZnSubset(p.n, frozenset(p.images[x] for x in interval.elements()))
