"""Exact combinatorics on the cyclic group Z_n.

Residues, cyclic intervals, subsets and permutations in one-line notation,
and the two rules of interval discrepancy that balance and permdisc share:
the n-scaled count of one set in another, and the value and witness of a
prefix profile.  Every value here is immutable and exact; floating point
never enters at this layer.
"""

from __future__ import annotations

import re
import sys
from itertools import chain
from typing import Iterable, Iterator


class InputError(ValueError):
    """Input the library refuses: malformed text, a value out of range,
    operands in different Z_n or a size past a limit.  It is the one error
    the CLI reports as invalid input; any other exception is a fault."""


class _DataclassFields:
    """A record class's fields as dataclasses describes them, made on first
    use.  dataclasses.replace then works on records, as perfbench's tests
    need to forge wrong answers.  Only code that has loaded dataclasses
    looks the attribute up, so the import here loads nothing new."""

    def __get__(self, record, cls):
        from dataclasses import make_dataclass

        cls.__dataclass_fields__ = make_dataclass(
            cls.__name__, cls.__slots__).__dataclass_fields__
        return cls.__dataclass_fields__


class Record:
    """Base of the library's immutable records.  A record names its fields
    in __slots__, in constructor order, and compares by their values.

    Two records are equal when they are of one class with equal field
    tuples, and a record's hash is its field tuple's, as a frozen
    dataclass's is, so sets of records keep their order.  The base
    __init__ takes the fields by position or keyword; a record that
    validates defines its own.  Assigning to a record raises
    AttributeError.  Pickle and copy rebuild a record by calling its class
    on the field tuple.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name, value in kwargs.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values()

    __dataclass_fields__ = _DataclassFields()


def sym_abs(r: int, n: int) -> int:
    """Absolute value of the representative of r taken from (-n/2, n/2]."""
    if n <= 0:
        raise InputError("modulus must be positive")
    r %= n
    return r if 2 * r <= n else n - r


class CyclicInterval(Record):
    """The residues {start, start+1, ..., start+length-1} mod n.

    length == 0 is the empty interval, length == n all of Z_n.  Wrapping is
    allowed: CyclicInterval(10, 9, 2) is {9, 0}.
    """

    __slots__ = ("n", "start", "length")
    n: int
    start: int
    length: int

    def __init__(self, n: int, start: int, length: int) -> None:
        if n <= 0:
            raise InputError("modulus must be positive")
        if not 0 <= start < n:
            raise InputError(f"start {start} not a residue mod {n}")
        if not 0 <= length <= n:
            raise InputError(f"length {length} outside [0, {n}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "length", length)

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


class ZnSubset(Record):
    """A subset of Z_n, stored as a frozenset of residues."""

    __slots__ = ("n", "members")
    n: int
    members: frozenset

    def __init__(self, n: int, members: Iterable[int]) -> None:
        if n <= 0:
            raise InputError("modulus must be positive")
        members = frozenset(members)
        for x in members:
            if not 0 <= x < n:
                raise InputError(f"element {x} not a residue mod {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)

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


class Permutation(Record):
    """A permutation of Z_n in one-line notation: images[i] = sigma(i).

    The images are checked by a loop that names the first bad one.  From
    _NUMPY_IMAGES images on, while numpy is loaded, one pass in numpy
    checks them first, and only images it cannot vouch for go to the loop,
    so a refusal is the loop's either way."""

    __slots__ = ("images",)
    images: tuple

    def __init__(self, images: Iterable[int]) -> None:
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise InputError("permutation must be nonempty")
        if n < _NUMPY_IMAGES or "numpy" not in sys.modules or not _numpy_vouches(images):
            seen = [False] * n
            for i, v in enumerate(images):
                if not 0 <= v < n:
                    raise InputError(f"image {_cut(str(v))} at index {i} outside [0, {n})")
                if seen[v]:
                    raise InputError(f"duplicate image {v} at index {i}")
                seen[v] = True
        object.__setattr__(self, "images", images)

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


# Permutation checks this many images or more in numpy when numpy is
# loaded.  On a 2-core x86-64 machine (medians of 15) the loop took 48-51
# ns an image from n = 150 to 10^4, and the numpy pass about 6 us and then
# 34 ns an image, most of it np.array reading the ints; they broke even at
# n = 384.  At 10^5 the loop took 7.5-8.4 ms and numpy 3.5-3.7 ms.
_NUMPY_IMAGES = 384


def _numpy_vouches(images: tuple) -> bool:
    """Whether numpy shows images to be a permutation of Z_n: one array of
    n integers in [0, n), each value seen.  np.array keeps floats and
    strings out of integer dtypes, where np.fromiter would convert them.
    False sends images to Permutation's loop, which accepts them or raises
    as it would without numpy."""
    import numpy as np

    n = len(images)
    try:
        values = np.array(images)
    except (TypeError, ValueError):  # ragged images, say: the loop judges them
        return False
    if values.dtype.kind != "i" or values.shape != (n,) or values.min() < 0 or values.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[values] = True
    return bool(seen.all())


def _check_moduli(n1: int, n2: int) -> None:
    if n1 != n2:
        raise InputError(f"moduli differ: {n1} vs {n2}")


def _cut(text: str, show=str) -> str:
    """show(text) cut to 40 characters, with ... after it when cut, so that
    a message that echoes an input stays one short line."""
    return show(text[:40]) + ("..." if len(text) > 40 else "")


# Least characters in one slice of the text that _integers splits and converts
_SLICE = 1 << 14

# What text.replace(",", " ").split() splits at: \s matches exactly the
# characters str.split() takes as whitespace
_SEPARATOR = re.compile(r"[\s,]")


def _integer_slices(text: str) -> Iterator[list]:
    """The tokens of text, split at commas and whitespace as
    text.replace(",", " ").split() splits it, as integers, one slice at a
    time.  A slice runs from where the last one ended to just past the first
    separator at or beyond _SLICE characters on, or to the end of the text,
    so no token is cut.  While numpy is loaded, numpy reads each slice that
    _fromstring_values vouches for; every other slice is split and
    converted by int().  The first token that is not an integer raises
    InputError with it, cut, and its index in the whole text."""
    numpy_loaded = "numpy" in sys.modules
    pos, index = 0, 0
    while pos < len(text):
        found = _SEPARATOR.search(text, pos + _SLICE)
        end = found.end() if found else len(text)
        chunk = text[pos:end].replace(",", " ")
        values = _fromstring_values(chunk) if numpy_loaded else None
        if values is None:
            tokens = chunk.split()
            try:
                values = list(map(int, tokens))
            except ValueError:
                i, tok = next((i, tok) for i, tok in enumerate(tokens) if not _is_integer(tok))
                raise InputError(f"token {_cut(tok, repr)} at index {index + i} "
                                 "is not an integer") from None
        pos, index = end, index + len(values)
        yield values


# The class of each byte for _fromstring_values: " " for the whitespace
# that both str.split() and C's isspace() take, "0" for a digit, "+" for a
# sign and "x" for anything else
_BYTE_CLASS = bytes(
    ord(" ") if c in " \t\n\r\x0b\x0c" else ord("0") if "0" <= c <= "9"
    else ord("+") if c in "+-" else ord("x")
    for c in map(chr, range(256)))


def _fromstring_values(chunk: str) -> list | None:
    """The integers of chunk, a slice without commas, as numpy's
    fromstring reads them, or None unless the tokens are sure to read as
    int() reads them.  That takes ASCII whitespace that both str.split()
    and fromstring take, digits and signs, each sign at the start of a
    token and before a digit, as many values as tokens, and no value at an
    int64 bound.  fromstring's separator also matches nothing at all, so
    "1-2" would read as 1 and -2; it skips whitespace after a sign, so
    "- 5" would read as -5; it reads a text with no token as 0; and it
    reads a token past int64 as the int64 maximum."""
    if not chunk.isascii():
        return None
    classes = chunk.encode("ascii").translate(_BYTE_CLASS)
    if b"x" in classes or b"+" in classes and (
            b"0+" in classes or b"++" in classes or b"+ " in classes or classes.endswith(b"+")):
        return None
    import numpy as np

    values = np.fromstring(chunk, dtype=np.int64, sep=" ")
    in_token = np.frombuffer(classes, dtype=np.uint8) != ord(" ")
    tokens = int(in_token[0]) + np.count_nonzero(in_token[1:] > in_token[:-1])
    bounds = np.iinfo(np.int64)
    if len(values) != tokens or values.min() == bounds.min or values.max() == bounds.max:
        return None
    return values.tolist()


def _is_integer(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _integers(text: str) -> tuple:
    """The integers of _integer_slices, straight into one tuple."""
    return tuple(chain.from_iterable(_integer_slices(text)))


def parse_permutation(text: str) -> Permutation:
    """Parse whitespace- or comma-separated 0-based images."""
    images = _integers(text)
    if not images:
        raise InputError("empty input")
    return Permutation(images)


def serialize_permutation(p: Permutation) -> str:
    return " ".join(str(v) for v in p.images)


# parse_set refuses larger moduli before building anything of length n
MAX_SET_MODULUS = 1 << 20


def parse_set(text: str) -> ZnSubset:
    """Parse the set format "n: e1 e2 ..." with 0 < n <= MAX_SET_MODULUS."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise InputError("expected 'n: e1 e2 ...'")
    head = head.strip()
    try:
        n = int(head)
    except ValueError:
        raise InputError(f"modulus {_cut(head, repr)} is not an integer") from None
    if n <= 0:
        raise InputError("modulus must be positive")
    if n > MAX_SET_MODULUS:
        raise InputError(f"modulus {_cut(str(n))} exceeds the limit {MAX_SET_MODULUS}")
    elements = _integers(tail)
    for i, v in enumerate(elements):
        if not 0 <= v < n:
            raise InputError(f"element {_cut(str(v))} at index {i} outside [0, {n})")
    members = frozenset(elements)
    if len(members) != len(elements):
        raise InputError("repeated element in set")
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


class IntervalFlags(Record):
    __slots__ = ("contiguous", "terminal", "initial", "final")
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
        raise InputError("flags undefined for empty or full interval")
    contiguous = not interval.wraps()
    terminal = not interval.complement().wraps()
    initial = terminal and 0 in interval
    final = terminal and (n - 1) in interval
    return IntervalFlags(contiguous, terminal, initial, final)


def image_of_interval(p: Permutation, interval: CyclicInterval) -> ZnSubset:
    """{sigma(x) : x in I} as a subset of Z_n."""
    _check_moduli(p.n, interval.n)
    return ZnSubset(p.n, frozenset(p.images[x] for x in interval.elements()))


def scaled_discrepancy_in(s: ZnSubset, t: ZnSubset) -> int:
    """n * D_T(S) = |n*|S & T| - |S|*|T|| as an exact integer."""
    _check_moduli(s.n, t.n)
    return abs(s.n * len(s.members & t.members) - s.size * t.size)


def profile_witness(g: list) -> tuple:
    """(n * D, witness J) from a prefix profile g(j) = n*P(j) - |S|*(j+1),
    P the prefix count of a set S in Z_n.  Every D_J is a difference
    g(b) - g(a), a wrapping J by D_J = D_{complement(J)}, so n * D is the
    range of g.  J runs from just after g's first minimum to its first
    maximum, and is empty when the range is 0."""
    n = len(g)
    hi, lo = max(g), min(g)
    if hi == lo:
        return 0, CyclicInterval.empty(n)
    top, bottom = g.index(hi), g.index(lo)
    return hi - lo, CyclicInterval(n, (bottom + 1) % n, (top - bottom) % n)
