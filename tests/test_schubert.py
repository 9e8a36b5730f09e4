"""Word classes: pinned values, homogeneity, word dependence."""

import pytest

from schubfgl.coinv import normal_form
from schubfgl.coinv import top_staircase_class
from schubfgl.combi import Permutation, support_of
from schubfgl.fgl import ADDITIVE, HYPERBOLIC, MULTIPLICATIVE
from schubfgl.hecke import ideal_delete
from schubfgl.polycore import Poly
from schubfgl.schubert import SchubertContext, grothendieck_polynomial, schubert_polynomial

from oracles import (
    CLASSICAL_SCHUBERT_S3,
    all_permutations,
    oracle_apply_word,
    reduced_words,
    smooth_monomial,
    window_delete,
)


def test_initial_class():
    # the class of the empty word is the top staircase monomial
    assert schubert_polynomial(SchubertContext(HYPERBOLIC, 2), ()) == Poly.variable(2, 1)
    assert schubert_polynomial(SchubertContext(ADDITIVE, 4), ()) == Poly.monomial(4, (3, 2, 1, 0))
    hom, deg = top_staircase_class(4).graded_degree()
    assert hom and deg == 6


def test_word_class_pinned_n2():
    ctx = SchubertContext(HYPERBOLIC, 2)
    got = schubert_polynomial(ctx, (1,))
    assert got == Poly.one(2) - Poly.monomial(2, (1, 1), (0, 1))
    assert schubert_polynomial(ctx, ()) == top_staircase_class(2)


def test_word_class_top_gr24_entry():
    # the word (3,1) lands on the point class of Gr(2,4)
    ctx = SchubertContext(HYPERBOLIC, 4)
    got = normal_form(schubert_polynomial(ctx, (3, 1)), 4)
    assert got == Poly.monomial(4, (2, 2, 0, 0))


def test_non_reduced_word_rejected():
    ctx = SchubertContext(HYPERBOLIC, 3)
    with pytest.raises(ValueError):
        schubert_polynomial(ctx, (1, 1))
    with pytest.raises(ValueError):
        schubert_polynomial(ctx, (1, 2, 1, 2))


def test_homogeneity_over_s4_words():
    for spec in (ADDITIVE, HYPERBOLIC):
        ctx = SchubertContext(spec, 4)
        for w in all_permutations(4):
            for word in reduced_words(w):
                f = schubert_polynomial(ctx, word)
                hom, deg = f.graded_degree()
                assert hom and deg == 6 - len(word)


def test_word_independence_at_mu2_zero():
    for spec in (ADDITIVE, MULTIPLICATIVE):
        ctx = SchubertContext(spec, 4)
        for w in all_permutations(4):
            words = reduced_words(w)
            base = schubert_polynomial(ctx, words[0])
            for word in words[1:]:
                assert schubert_polynomial(ctx, word) == base


def test_word_dependence_at_hyperbolic():
    ctx = SchubertContext(HYPERBOLIC, 3)
    a = schubert_polynomial(ctx, (1, 2, 1))
    b = schubert_polynomial(ctx, (2, 1, 2))
    assert a != b


def test_word_difference_in_window_ideal():
    # hard invariant: differences vanish under window deletion; the
    # literal adjacent-pair deletion leaves a pinned residue already
    # at n = 3
    ctx = SchubertContext(HYPERBOLIC, 3)
    a = schubert_polynomial(ctx, (1, 2, 1))
    b = schubert_polynomial(ctx, (2, 1, 2))
    supp = support_of(Permutation.longest(3))
    diff = a - b
    assert window_delete(diff, supp).is_zero
    residue = ideal_delete(diff, supp)
    assert residue == Poly.monomial(3, (2, 0, 0), (0, 1))

    ctx4 = SchubertContext(HYPERBOLIC, 4)
    literal_failures = 0
    for w in all_permutations(4):
        words = reduced_words(w)
        supp = support_of(w)
        base = schubert_polynomial(ctx4, words[0])
        for word in words[1:]:
            d = schubert_polynomial(ctx4, word) - base
            assert window_delete(d, supp).is_zero
            if not ideal_delete(d, supp).is_zero:
                literal_failures += 1
    assert literal_failures > 0


def test_grothendieck_against_classical_table():
    ctx = SchubertContext(ADDITIVE, 3)
    w0 = Permutation.longest(3)
    for w in all_permutations(3):
        got = grothendieck_polynomial(ctx, w)
        expected = Poly(3, dict(CLASSICAL_SCHUBERT_S3[(w0 * w).oneline]))
        assert got == expected


def test_schubert_matches_divided_difference_oracle():
    # at the additive law every word class equals the classical
    # operator chain applied to the staircase monomial
    ctx = SchubertContext(ADDITIVE, 4)
    top = Poly.monomial(4, (3, 2, 1, 0))
    for w in all_permutations(4):
        for word in reduced_words(w):
            assert schubert_polynomial(ctx, word) == oracle_apply_word(word, top)


def test_grothendieck_word_independent_and_mu2_zeroed():
    ctx = SchubertContext(HYPERBOLIC, 3)
    w = Permutation.longest(3)
    klg = grothendieck_polynomial(ctx, w)
    flat = SchubertContext(MULTIPLICATIVE, 3)
    assert klg == schubert_polynomial(flat, (1, 2, 1))
    assert klg == schubert_polynomial(flat, (2, 1, 2))
    assert grothendieck_polynomial(ctx, Permutation((2, 1, 3))) == schubert_polynomial(
        flat, (1,)
    )


def test_smooth_monomial():
    assert smooth_monomial(2, 4, rows=1) == Poly.monomial(4, (0, 0, 1, 1))
    assert smooth_monomial(2, 4, cols=1) == Poly.monomial(4, (1, 1, 0, 0))
    assert smooth_monomial(2, 4, rows=2) == Poly.one(4)
    assert smooth_monomial(3, 5, cols=2) == Poly.zero(5) + Poly.one(5)
    with pytest.raises(ValueError):
        smooth_monomial(2, 4, rows=1, cols=1)
    with pytest.raises(ValueError):
        smooth_monomial(2, 4)
    with pytest.raises(ValueError):
        smooth_monomial(2, 4, rows=3)
    with pytest.raises(ValueError):
        smooth_monomial(4, 4, rows=1)
