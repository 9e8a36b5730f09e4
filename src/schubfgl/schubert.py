"""Schubert classes from words of push-pull operators.

The top class is the staircase monomial x_1^{n-1} x_2^{n-2} ... x_{n-1}
(coinv.top_staircase_class), the class of the empty word; applying C
along a reduced word produces the class attached to that word.  When
m2 = 0 the braid relations hold, so the polynomial depends only on the
permutation and any reduced word computes it (hecke uses the canonical,
lex-smallest, one); this covers the classical Schubert (additive) and
Grothendieck (multiplicative) cases.  For the full hyperbolic law the result
genuinely depends on the word, which is why the word, not the
permutation, is the argument of record here.

It depends only on the word's commutation class, though: C_i and C_j
commute when |i - j| > 1, since each acts linearly over the polynomials
free of its own two variables.  The class of words equal up to such
swaps is their heap (Cartier-Foata, "Problemes combinatoires de
commutation et rearrangements", LNM 85, 1969; Viennot, "Heaps of
pieces, I", 1986), named here by its Cartier-Foata normal form.  S_5
has 3,061 reduced words but 476 heaps.  So schubert keeps the packed
classes it has computed, keyed by law, rank and the normal form of the
word, and starts each word from the longest prefix whose heap it has
already met; `poly word` and the fk/differ suites (hecke) share the memo.
"""

from __future__ import annotations

import bisect
import sys
from array import array
from collections import OrderedDict
from typing import Sequence

from .coinv import top_staircase_class
from .combi import Word, word_to_perm
from .ddo import OperatorContext, _apply_letter
from .polycore import GradedLayout, term_order

# Bound on the bytes of the arrays _MEMO holds: 2 MiB, the smallest round
# bound above the classes of all 475 nonempty heaps of S_5 under the
# hyperbolic law.  Stored over all 3,061 reduced words with no bound
# (Python 3.11), they take 1,933,480 bytes in 371,496 terms (hyperbolic),
# 1,058,350 bytes in 196,470 terms (Lorentz), 90,915 in 2,983
# (multiplicative) and 82,970 in 1,394 (additive).  Keys take up to 28 of
# the layout's 29 bits and sorted key deltas up to 25, so no narrower
# packing fits them in 1 MiB.  With every class resident, a warm
# `poly word` at n = 5 applies no operator.
_MEMO_BYTES = 2 << 20
# Signed array typecodes, narrowest first, with the value bits each holds.
_TYPECODES = (("b", 7), ("h", 15), ("i", 31), ("q", 63))


def word_class_layout(n: int) -> GradedLayout:
    """The packed layout of every word class of S_n and of its references:
    x fields for the staircase's largest exponent n - 1, which C never
    raises, and mu fields for n(n-1)/2 letters, each raising m1 and m2 by
    at most one.  The coefficients of S and the m2 = 0 classes stay inside
    those bounds, and packing checks them.  At n = 5 the keys take
    5 + 15 + 8 bits, the degree field on top.  One layout per rank lets
    the classes of all words share prefixes.
    """
    return GradedLayout(n, (n - 1).bit_length(), (n * (n - 1) // 2).bit_length())


def heap_keys(word: Word) -> list[Word]:
    """The Cartier-Foata normal form of every nonempty prefix of word.

    A letter's level is one more than the highest level among the
    earlier letters it does not commute with (equal or adjacent
    indices).  The normal form lists the letters by level, and within a
    level in increasing order; two words have the same normal form
    exactly when adjacent commuting letters carry one into the other.
    """
    level: dict[int, int] = {}
    placed: list[tuple[int, int]] = []
    out = []
    for i in word:
        lev = level[i] = 1 + max(level.get(i - 1, 0), level.get(i, 0), level.get(i + 1, 0))
        bisect.insort(placed, (lev, i))
        out.append(tuple([j for _lev, j in placed]))
    return out


def _narrowest(bits: int) -> str | None:
    return next((code for code, limit in _TYPECODES if bits <= limit), None)


class _ClassMemo:
    """(law, rank, heap key) -> packed class, held as a keys array in
    increasing (term) order and a coefficients array aligned to it, each
    of the narrowest signed typecode that holds its values.

    Least recently used first; entries are dropped from that end while
    the arrays hold more than _MEMO_BYTES.  A class whose keys or
    coefficients need more than 63 bits, or whose arrays alone exceed
    the bound, is not stored.
    """

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()
        self.nbytes = 0

    def resume(self, keys: list) -> tuple[int, tuple[array, array] | None]:
        """(k, the arrays of keys[k - 1]'s class) for the largest k held, or (0, None)."""
        for k in range(len(keys), 0, -1):
            entry = self.entries.get(keys[k - 1])
            if entry is not None:
                self.entries.move_to_end(keys[k - 1])
                return k, entry[:2]
        return 0, None

    def put(self, key, layout: GradedLayout, keys: list[int], coeffs: list[int]) -> None:
        # full x fields bound the degree field, so the layout bounds every key
        key_code = _narrowest(layout.deg_shift + (layout.nvars * ((1 << layout.xwidth) - 1)).bit_length())
        coeff_code = _narrowest(max(max(coeffs, default=0), ~min(coeffs, default=0)).bit_length())
        if key_code is None or coeff_code is None:
            return
        keys, coeffs = array(key_code, keys), array(coeff_code, coeffs)
        size = sys.getsizeof(keys) + sys.getsizeof(coeffs)
        if size > _MEMO_BYTES:
            return
        self.entries[key] = keys, coeffs, size
        self.nbytes += size
        while self.nbytes > _MEMO_BYTES:
            self.nbytes -= self.entries.popitem(last=False)[1][2]


_MEMO = _ClassMemo()


def schubert(
    ctx: OperatorContext, word: Word, heaps: list[Word] | None = None
) -> tuple[GradedLayout, Sequence[int], Sequence[int]]:
    """Apply C along a reduced word to the top class, first letter first.

    The word must be reduced: its letter count must equal the length of
    the permutation it multiplies out to.  This returns word_class_layout(n)
    and the class's packed keys in term order and their coefficients: the
    memo's own arrays, which no caller may change, if it holds the class,
    else lists.  The class of the longest prefix whose heap is in the memo
    is reused, and the classes of the longer prefixes are stored.  heaps,
    if given, is heap_keys(word), from a caller that has computed it already.
    """
    word = tuple(word)
    n = ctx.nvars
    layout = word_class_layout(n)
    keys = [(ctx.spec, n, form) for form in (heap_keys(word) if heaps is None else heaps)]
    done, cls = _MEMO.resume(keys)
    # the memo holds heaps of reduced words only, so a word whose heap it holds is one
    if done < len(word) and word_to_perm(word, n).length() != len(word):
        raise ValueError(f"word {word} is not reduced")
    if cls is None:
        cls = term_order(layout.pack(top_staircase_class(n)))
    for k in range(done, len(word)):
        cls = term_order(_apply_letter(ctx.spec, layout, word[k], zip(*cls)))
        _MEMO.put(keys[k], layout, *cls)
    return layout, *cls
