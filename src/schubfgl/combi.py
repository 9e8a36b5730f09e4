"""Permutations, reduced words and box partitions.

Permutations are stored in one-line notation with values 1..n.
Composition is (u * v)(i) = u(v(i)), so in a product of simple
transpositions s_{i_1} * s_{i_2} * ... * s_{i_r} the rightmost letter
acts first.  A word (i_1, ..., i_r) denotes exactly that product.

The canonical word of a permutation is the lexicographically smallest
reduced word, obtained by repeatedly taking the smallest left descent.
The package never lists all reduced words of one permutation: the
word-class suites (hecke) walk them all at once, and the enumerations
the tests compare against live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

Word = tuple[int, ...]

# Bound of the per-permutation caches: all 872 permutations of S_2..S_6
# fit, more than the fk/differ suites at rank 5 or a Grassmannian
# cross-check ever look up.
_PERM_CACHE_SIZE = 1024


class CapacityError(ValueError):
    """The requested rank exceeds a documented enumeration bound."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation."""

    oneline: tuple[int, ...]

    def __post_init__(self):
        ol = tuple(self.oneline)
        object.__setattr__(self, "oneline", ol)
        if sorted(ol) != list(range(1, len(ol) + 1)):
            raise ValueError(f"not a permutation of 1..{len(ol)}: {ol}")

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))

    # -- basic structure ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        return self.oneline[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("rank mismatch in composition")
        return Permutation(tuple(self.oneline[v - 1] for v in other.oneline))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.oneline, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def length(self) -> int:
        """Number of inversions."""
        ol = self.oneline
        return sum(
            1
            for i in range(len(ol))
            for j in range(i + 1, len(ol))
            if ol[i] > ol[j]
        )

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.oneline, start=1))

    def right_descents(self) -> list[int]:
        ol = self.oneline
        return [i for i in range(1, len(ol)) if ol[i - 1] > ol[i]]

    def left_descents(self) -> list[int]:
        return self.inverse().right_descents()

    def right_mul_simple(self, i: int) -> "Permutation":
        """self * s_i: swap the entries at positions i, i+1."""
        ol = list(self.oneline)
        ol[i - 1], ol[i] = ol[i], ol[i - 1]
        return Permutation(tuple(ol))

    def left_mul_simple(self, i: int) -> "Permutation":
        """s_i * self: swap the values i, i+1 wherever they sit."""
        ol = [i + 1 if v == i else (i if v == i + 1 else v) for v in self.oneline]
        return Permutation(tuple(ol))

    def __repr__(self) -> str:
        return "Permutation(" + ",".join(map(str, self.oneline)) + ")"


# ----------------------------------------------------------------------
# words

def word_to_perm(word: Iterable[int], n: int) -> Permutation:
    ol = list(range(1, n + 1))
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"word letter {i} out of range [1, {n - 1}]")
        ol[i - 1], ol[i] = ol[i], ol[i - 1]
    return Permutation(tuple(ol))


@lru_cache(maxsize=_PERM_CACHE_SIZE)
def canonical_word(w: Permutation) -> Word:
    """The lexicographically smallest reduced word of w."""
    out: list[int] = []
    cur = w
    while not cur.is_identity():
        i = min(cur.left_descents())
        out.append(i)
        cur = cur.left_mul_simple(i)
    return tuple(out)


@lru_cache(maxsize=_PERM_CACHE_SIZE)
def support_of(w: Permutation) -> frozenset[int]:
    """Indices of the simple reflections appearing in reduced words of w."""
    return frozenset(canonical_word(w))


# ----------------------------------------------------------------------
# box partitions

@dataclass(frozen=True)
class BoxPartition:
    """A partition drawn in a k x m box: at most k parts, each at most m.

    Parts are stored padded with zeros to length k, weakly decreasing.
    """

    k: int
    m: int
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if len(parts) > self.k:
            if any(parts[self.k:]):
                raise ValueError(f"more than {self.k} nonzero parts: {parts}")
            parts = parts[: self.k]
        parts = parts + (0,) * (self.k - len(parts))
        for p in parts:
            if not 0 <= p <= self.m:
                raise ValueError(f"part {p} does not lie in [0, {self.m}]: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must weakly decrease: {parts}")
        object.__setattr__(self, "parts", parts)

    def size(self) -> int:
        return sum(self.parts)

    def render(self) -> str:
        return ",".join(map(str, self.parts))

    def __repr__(self) -> str:
        return f"BoxPartition({self.k}x{self.m}: {self.render()})"


def box_partitions(k: int, m: int) -> list[BoxPartition]:
    """All partitions in the k x m box, ordered by (size, parts)."""

    def gen(rows: int, bound: int) -> Iterator[tuple[int, ...]]:
        if rows == 0:
            yield ()
            return
        for first in range(bound, -1, -1):
            for rest in gen(rows - 1, first):
                yield (first,) + rest

    out = [BoxPartition(k, m, parts) for parts in gen(k, m)]
    out.sort(key=lambda lam: (lam.size(), lam.parts))
    return out


def partition_dual(lam: BoxPartition) -> BoxPartition:
    """Complement in the k x m box: dual_i = m - parts[k+1-i]."""
    k, m = lam.k, lam.m
    return BoxPartition(k, m, tuple(m - lam.parts[k - 1 - i] for i in range(k)))


def partition_dual_z(lam: BoxPartition, a: int, b: int) -> BoxPartition:
    """Complement of lam inside the a x b box (lam must fit in it)."""
    parts = lam.parts
    if any(parts[a:]) or (a and parts[0] > b):
        raise ValueError(f"{lam} does not fit in a {a}x{b} box")
    padded = parts[:a] + (0,) * (a - len(parts[:a]))
    return BoxPartition(a, b, tuple(b - padded[a - 1 - i] for i in range(a)))


def partition_leq(lam: BoxPartition, mu: BoxPartition) -> bool:
    """Containment of diagrams, compared part by part."""
    if (lam.k, lam.m) != (mu.k, mu.m):
        raise ValueError("partitions live in different boxes")
    return all(x <= y for x, y in zip(lam.parts, mu.parts))


def partition_to_perm(lam: BoxPartition, n: int) -> Permutation:
    """The minimal-length permutation with descent only at k encoding lam.

    With k rows and column bound n - k, position i <= k gets the value
    parts[k+1-i] + i; the remaining values fill in increasingly.  The
    length of the result is the size of lam.
    """
    k = lam.k
    if lam.m != n - k:
        raise ValueError(f"partition box {lam.k}x{lam.m} does not match (k, n-k)")
    head = [lam.parts[k - i] + i for i in range(1, k + 1)]
    rest = [v for v in range(1, n + 1) if v not in set(head)]
    return Permutation(tuple(head + rest))
