"""Schubert classes from words of push-pull operators.

The top class is the staircase monomial x_1^{n-1} x_2^{n-2} ... x_{n-1}
(coinv.top_staircase_class), the class of the empty word; applying C
along a reduced word produces the class attached to that word.  When
m2 = 0 the braid relations hold, so the polynomial depends only on the
permutation and the canonical (lex-smallest) reduced word computes it;
this covers the classical Schubert (additive) and Grothendieck
(multiplicative) cases.  For the full hyperbolic law the result
genuinely depends on the word, which is why the word, not the
permutation, is the argument of record here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coinv import top_staircase_class
from .combi import Permutation, Word, canonical_word, word_to_perm
from .ddo import OperatorContext, apply_word_packed
from .fgl import FglSpec
from .polycore import PackedLayout, Poly, PolyError


@dataclass(frozen=True)
class SchubertContext:
    spec: FglSpec
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise PolyError("rank must be at least 2")

    def operators(self) -> OperatorContext:
        return OperatorContext(self.spec, self.n)


def schubert(ctx: SchubertContext, word: Word) -> tuple[PackedLayout, dict[int, int]]:
    """Apply C along a reduced word to the top class, first letter first.

    The word must be reduced: its letter count must equal the length of
    the permutation it multiplies out to.  The class stays packed: this
    returns its layout and its packed terms.
    """
    word = tuple(word)
    perm = word_to_perm(word, ctx.n)
    if perm.length() != len(word):
        raise ValueError(f"word {word} is not reduced")
    return apply_word_packed(ctx.operators(), word, top_staircase_class(ctx.n))


def schubert_polynomial(ctx: SchubertContext, word: Word) -> Poly:
    """The class of a reduced word (see schubert) as a Poly."""
    return PackedLayout.unpack(*schubert(ctx, word))


def grothendieck_polynomial(ctx: SchubertContext, w: Permutation) -> Poly:
    """The word-independent class of w in the m2 = 0 degeneration.

    Uses the canonical word of w; with m2 forced to zero the braid
    relations make any reduced word give the same answer.
    """
    if w.n != ctx.n:
        raise ValueError("permutation rank does not match the context")
    flat = SchubertContext(ctx.spec.mu2_zeroed(), ctx.n)
    return schubert_polynomial(flat, canonical_word(w))
