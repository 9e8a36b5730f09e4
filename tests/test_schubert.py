"""Word classes: pinned values, homogeneity, word dependence, heap memo."""

import hashlib
import io
import json
import sys
from array import array

import pytest

from schubfgl import cli
from schubfgl import schubert as word_classes
from schubfgl.cli import main
from schubfgl.coinv import top_staircase_class
from schubfgl.combi import Permutation, support_of
from schubfgl.fgl import ADDITIVE, HYPERBOLIC, LORENTZ, MULTIPLICATIVE, FglSpec
from schubfgl.polycore import GradedLayout, Poly
from schubfgl.ddo import OperatorContext
from schubfgl.schubert import (
    heap_keys,
    schubert,
    word_class_layout,
)

from oracles import (
    CLASSICAL_SCHUBERT_S3,
    all_permutations,
    commutation_classes,
    constant,
    division_apply_c,
    grothendieck_polynomial,
    ideal_delete,
    normal_form,
    oracle_apply_word,
    reduced_words,
    reference_json_obj,
    reference_render_text,
    s5_word_sample,
    schubert_polynomial,
    smooth_monomial,
    window_delete,
)


def test_initial_class():
    # the class of the empty word is the top staircase monomial
    assert schubert_polynomial(OperatorContext(HYPERBOLIC, 2), ()) == Poly.variable(2, 1)
    assert schubert_polynomial(OperatorContext(ADDITIVE, 4), ()) == Poly.monomial(4, (3, 2, 1, 0))
    hom, deg = top_staircase_class(4).graded_degree()
    assert hom and deg == 6


def test_word_class_pinned_n2():
    ctx = OperatorContext(HYPERBOLIC, 2)
    got = schubert_polynomial(ctx, (1,))
    assert got == constant(2, 1) - Poly.monomial(2, (1, 1), (0, 1))
    assert schubert_polynomial(ctx, ()) == top_staircase_class(2)


def test_word_class_top_gr24_entry():
    # the word (3,1) lands on the point class of Gr(2,4)
    ctx = OperatorContext(HYPERBOLIC, 4)
    got = normal_form(schubert_polynomial(ctx, (3, 1)), 4)
    assert got == Poly.monomial(4, (2, 2, 0, 0))


def test_non_reduced_word_rejected():
    ctx = OperatorContext(HYPERBOLIC, 3)
    with pytest.raises(ValueError):
        schubert_polynomial(ctx, (1, 1))
    with pytest.raises(ValueError):
        schubert_polynomial(ctx, (1, 2, 1, 2))


def test_homogeneity_over_s4_words():
    for spec in (ADDITIVE, HYPERBOLIC):
        ctx = OperatorContext(spec, 4)
        for w in all_permutations(4):
            for word in reduced_words(w):
                f = schubert_polynomial(ctx, word)
                hom, deg = f.graded_degree()
                assert hom and deg == 6 - len(word)


def test_word_independence_at_mu2_zero():
    for spec in (ADDITIVE, MULTIPLICATIVE):
        ctx = OperatorContext(spec, 4)
        for w in all_permutations(4):
            words = reduced_words(w)
            base = schubert_polynomial(ctx, words[0])
            for word in words[1:]:
                assert schubert_polynomial(ctx, word) == base


def test_word_dependence_at_hyperbolic():
    ctx = OperatorContext(HYPERBOLIC, 3)
    a = schubert_polynomial(ctx, (1, 2, 1))
    b = schubert_polynomial(ctx, (2, 1, 2))
    assert a != b


def test_word_difference_in_window_ideal():
    # hard invariant: differences vanish under window deletion; the
    # literal adjacent-pair deletion leaves a pinned residue already
    # at n = 3
    ctx = OperatorContext(HYPERBOLIC, 3)
    a = schubert_polynomial(ctx, (1, 2, 1))
    b = schubert_polynomial(ctx, (2, 1, 2))
    supp = support_of(Permutation.longest(3))
    diff = a - b
    assert not window_delete(diff, supp)
    residue = ideal_delete(diff, supp)
    assert residue == Poly.monomial(3, (2, 0, 0), (0, 1))

    ctx4 = OperatorContext(HYPERBOLIC, 4)
    literal_failures = 0
    for w in all_permutations(4):
        words = reduced_words(w)
        supp = support_of(w)
        base = schubert_polynomial(ctx4, words[0])
        for word in words[1:]:
            d = schubert_polynomial(ctx4, word) - base
            assert not window_delete(d, supp)
            if ideal_delete(d, supp):
                literal_failures += 1
    assert literal_failures > 0


def test_grothendieck_against_classical_table():
    ctx = OperatorContext(ADDITIVE, 3)
    w0 = Permutation.longest(3)
    for w in all_permutations(3):
        got = grothendieck_polynomial(ctx, w)
        expected = Poly(3, dict(CLASSICAL_SCHUBERT_S3[(w0 * w).oneline]))
        assert got == expected


def test_schubert_matches_divided_difference_oracle():
    # at the additive law every word class equals the classical
    # operator chain applied to the staircase monomial
    ctx = OperatorContext(ADDITIVE, 4)
    top = Poly.monomial(4, (3, 2, 1, 0))
    for w in all_permutations(4):
        for word in reduced_words(w):
            assert schubert_polynomial(ctx, word) == oracle_apply_word(word, top)


def test_grothendieck_word_independent_and_mu2_zeroed():
    ctx = OperatorContext(HYPERBOLIC, 3)
    w = Permutation.longest(3)
    klg = grothendieck_polynomial(ctx, w)
    flat = OperatorContext(MULTIPLICATIVE, 3)
    assert klg == schubert_polynomial(flat, (1, 2, 1))
    assert klg == schubert_polynomial(flat, (2, 1, 2))
    assert grothendieck_polynomial(ctx, Permutation((2, 1, 3))) == schubert_polynomial(
        flat, (1,)
    )


def test_smooth_monomial():
    assert smooth_monomial(2, 4, rows=1) == Poly.monomial(4, (0, 0, 1, 1))
    assert smooth_monomial(2, 4, cols=1) == Poly.monomial(4, (1, 1, 0, 0))
    assert smooth_monomial(2, 4, rows=2) == constant(4, 1)
    assert smooth_monomial(3, 5, cols=2) == Poly.zero(5) + constant(5, 1)
    with pytest.raises(ValueError):
        smooth_monomial(2, 4, rows=1, cols=1)
    with pytest.raises(ValueError):
        smooth_monomial(2, 4)
    with pytest.raises(ValueError):
        smooth_monomial(2, 4, rows=3)
    with pytest.raises(ValueError):
        smooth_monomial(4, 4, rows=1)


# ----------------------------------------------------------------------
# heaps and the memo of word classes


def _words(n):
    return [word for w in all_permutations(n) for word in reduced_words(w)]


@pytest.fixture
def fresh_memo(monkeypatch):
    """fresh_memo() puts an empty memo in the module for the rest of the
    test and returns it; the module gets its own memo back after the test."""
    def fresh():
        monkeypatch.setattr(word_classes, "_MEMO", word_classes._ClassMemo())
        return word_classes._MEMO

    return fresh


@pytest.fixture
def letters(monkeypatch):
    """The letter of every operator the memo did not spare."""
    calls = []
    real = word_classes._apply_letter

    def counting(spec, layout, i, pairs):
        calls.append(i)
        return real(spec, layout, i, pairs)

    monkeypatch.setattr(word_classes, "_apply_letter", counting)
    return calls


def test_heap_keys_are_the_commutation_classes():
    for n in range(2, 6):
        words = _words(n)
        classes = commutation_classes(words)
        assert set().union(*classes) == set(words)
        key_of = {word: heap_keys(word)[-1] if word else () for word in words}
        for cls in classes:
            keys = {key_of[word] for word in cls}
            # one key per class, and the key is a word of the class
            assert len(keys) == 1 and keys <= cls
        assert len(set(key_of.values())) == len(classes)
        for word in words:
            assert heap_keys(word) == [key_of[word[:k]] for k in range(1, len(word) + 1)]
    assert len(classes) == 476


def as_lists(cls):
    """A class as schubert returns it, with its keys and coefficients as
    lists, so that a class from the memo's arrays compares equal to a
    computed one."""
    layout, keys, coeffs = cls
    return layout, list(keys), list(coeffs)


MEMO_LAWS = (ADDITIVE, MULTIPLICATIVE, HYPERBOLIC, LORENTZ, FglSpec("hyperbolic", mu1=2, mu2=-3))


def test_warm_memo_gives_the_classes_of_a_cleared_one(fresh_memo, letters):
    fresh_memo()
    # one warm pass over every law and rank, so that entries of other
    # laws and ranks sit beside each lookup
    warm = {}
    for n in (2, 3, 4):
        words = _words(n)
        heaps = {heap_keys(word)[-1] for word in words if word}
        for spec in MEMO_LAWS:
            ctx = OperatorContext(spec, n)
            del letters[:]
            for word in words:
                warm[spec, n, word] = as_lists(schubert(ctx, word))
            # every heap of a nonempty prefix is computed once
            assert len(letters) == len(heaps)
    for (spec, n, word), got in warm.items():
        fresh_memo()
        assert as_lists(schubert(OperatorContext(spec, n), word)) == got


def test_warm_memo_on_the_s5_sample(fresh_memo):
    memo = fresh_memo()
    ctx = OperatorContext(HYPERBOLIC, 5)
    sample = s5_word_sample()
    warm = [as_lists(schubert(ctx, word)) for word in sample]
    assert memo.entries
    for word, got in zip(sample, warm):
        fresh_memo()
        assert as_lists(schubert(ctx, word)) == got


def test_memo_bound_and_typecodes(fresh_memo, letters):
    memo = fresh_memo()
    ctx = OperatorContext(HYPERBOLIC, 5)
    words = _words(5)
    for word in words:
        schubert(ctx, word)
    assert 0 < memo.nbytes <= word_classes._MEMO_BYTES
    assert memo.nbytes == sum(size for _keys, _coeffs, size in memo.entries.values())
    # the bound holds the classes of all 475 nonempty heaps
    assert len(memo.entries) == 475
    # 28-bit keys at rank 5, and coefficients that fit one byte
    assert {(k.typecode, c.typecode) for k, c, _size in memo.entries.values()} == {("i", "b")}
    # each class is stored in term order
    for keys, _coeffs, _size in memo.entries.values():
        assert all(a < b for a, b in zip(keys, keys[1:]))
    # so a second pass applies no operator
    del letters[:]
    for word in words:
        schubert(ctx, word)
    assert letters == []


def test_memo_drops_the_least_recently_resumed_entry(fresh_memo, monkeypatch):
    memo = fresh_memo()
    ctx = OperatorContext(HYPERBOLIC, 4)
    words = {"a": (1,), "b": (2,), "c": (3,), "d": (3, 2)}
    key = {name: (HYPERBOLIC, 4, heap_keys(word)[-1]) for name, word in words.items()}
    for word in words.values():
        schubert(ctx, word)
    size = {name: memo.entries[key[name]][2] for name in words}
    bound = max(size["a"] + size["b"] + size["c"], size["a"] + size["c"] + size["d"])
    monkeypatch.setattr(word_classes, "_MEMO_BYTES", bound)
    memo = fresh_memo()
    for name in "abc":
        schubert(ctx, words[name])
    # a full hit on a, stored first, makes b the least recently resumed;
    # d resumes from c and then needs room
    schubert(ctx, words["a"])
    schubert(ctx, words["d"])
    assert list(memo.entries) == [key["a"], key["c"], key["d"]]
    assert memo.nbytes == size["a"] + size["c"] + size["d"] <= bound


@pytest.mark.parametrize("law", ["additive", "multiplicative", "hyperbolic", "lorentz"])
def test_poly_word_bytes_from_a_warm_memo(fresh_memo, letters, law):
    # a class read from the memo prints the bytes of one just computed
    for word in s5_word_sample()[::10]:
        for fmt in ([], ["--json"]):
            argv = ["poly", "word", "--n", "5", "--word", ",".join(map(str, word)),
                    "--fgl", law, *fmt]
            fresh_memo()
            cold = io.StringIO()
            assert main(argv, out=cold) == 0
            del letters[:]
            warm = io.StringIO()
            assert main(argv, out=warm) == 0
            assert letters == [] and warm.getvalue() == cold.getvalue()


@pytest.mark.parametrize("printer, fmt", [("render_packed", []), ("packed_json_text", ["--json"])])
def test_warm_poly_word_prints_the_memo_arrays(fresh_memo, monkeypatch, printer, fmt):
    # a full hit hands the printer the memo's own arrays: no dict is
    # rebuilt, and nothing is sorted or copied on the way
    memo = fresh_memo()
    word = (1, 2, 1, 3, 2, 1)
    argv = ["poly", "word", "--n", "4", "--word", "1,2,1,3,2,1", *fmt]
    cold = io.StringIO()
    assert main(argv, out=cold) == 0
    held = memo.entries[(HYPERBOLIC, 4, heap_keys(word)[-1])]
    real, seen = getattr(cli, printer), []

    def recording(layout, keys, coeffs):
        seen.append((keys, coeffs))
        return real(layout, keys, coeffs)

    monkeypatch.setattr(cli, printer, recording)
    warm = io.StringIO()
    assert main(argv, out=warm) == 0
    assert warm.getvalue() == cold.getvalue()
    ((keys, coeffs),) = seen
    assert keys is held[0] and coeffs is held[1]


def test_suites_leave_the_memo_classes_intact(fresh_memo):
    # the suites read the memo's own arrays on every full hit (hecke edits
    # a dict of its own); each held class is still the one a cleared memo
    # computes
    memo = fresh_memo()
    for _ in range(2):  # the second pass runs on a warm memo
        for suite in ("fk", "differ"):
            assert main(["verify", suite, "--n", "4"], out=io.StringIO()) == 0
    held = {key: (list(keys), list(coeffs)) for key, (keys, coeffs, _size) in memo.entries.items()}
    assert {spec for spec, _n, _heap in held} == {HYPERBOLIC, HYPERBOLIC.mu2_zeroed()}
    for (spec, n, heap), cls in held.items():
        fresh_memo()
        _layout, keys, coeffs = schubert(OperatorContext(spec, n), heap)
        assert (list(keys), list(coeffs)) == cls


@pytest.mark.parametrize("n, word, bound", [
    (5, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1), 2048),  # a class above the bound
    (100, (1, 2, 3, 4, 5, 6, 7), None),  # keys wider than 63 bits
    (3, (), None),  # the empty word, which has no heap
])
def test_classes_the_memo_does_not_serve_print_as_the_reference(
    fresh_memo, monkeypatch, n, word, bound
):
    if bound is not None:
        monkeypatch.setattr(word_classes, "_MEMO_BYTES", bound)
    f = top_staircase_class(n)
    for i in word:
        f = division_apply_c(HYPERBOLIC, i, f)
    text = reference_render_text(f) + "\n"
    obj = json.dumps(reference_json_obj(f), sort_keys=True, indent=2) + "\n"
    for fmt, expected in (([], text), (["--json"], obj)):
        memo = fresh_memo()
        for _ in range(2):  # the second call meets what the first one stored
            out = io.StringIO()
            assert main(["poly", "word", "--n", str(n), "--word", ",".join(map(str, word)), *fmt],
                        out=out) == 0
            assert out.getvalue() == expected
        if word:
            assert (HYPERBOLIC, n, heap_keys(word)[-1]) not in memo.entries


def test_memo_keeps_no_class_above_the_bound(fresh_memo, monkeypatch):
    monkeypatch.setattr(word_classes, "_MEMO_BYTES", 2048)
    ctx = OperatorContext(HYPERBOLIC, 5)
    longest = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)
    stored = []
    for k in range(1, len(longest) + 1):
        memo = fresh_memo()
        _layout, keys, coeffs = schubert(ctx, longest[:k])
        size = sys.getsizeof(array("i", keys)) + sys.getsizeof(array("b", coeffs))
        assert ((HYPERBOLIC, 5, heap_keys(longest)[k - 1]) in memo.entries) == (size <= 2048)
        stored.append(size <= 2048)
        assert memo.nbytes <= 2048
    assert any(stored) and not all(stored)


def test_memo_typecode_limits(fresh_memo):
    memo = fresh_memo()
    layout = word_class_layout(3)
    for c, code in ((-128, "b"), (128, "h"), (-(2**31), "i"), (2**31, "q"), (-(2**63), "q")):
        memo.put(c, layout, [1], [c])
        assert memo.entries[c][1].typecode == code
    memo.put("wide", layout, [1], [2**63])
    assert "wide" not in memo.entries


def test_words_are_checked_whatever_the_memo_holds(fresh_memo):
    # a full hit skips the check: the memo holds only heaps of reduced
    # words, so a word that is not reduced or has a letter out of range
    # never finds its own heap there, even beside stored prefixes
    fresh_memo()
    ctx = OperatorContext(HYPERBOLIC, 4)
    for word in _words(4):
        schubert(ctx, word)
    bad = ((1, 1), (1, 3, 1), (3, 1, 3, 1), (1, 2, 1, 2), (3, 2, 1, 2, 3, 2, 1), (1, 2, 4), (0,))
    for word in bad:
        with pytest.raises(ValueError):
            schubert(ctx, word)
    with pytest.raises(ValueError):
        schubert(OperatorContext(HYPERBOLIC, 3), (3,))


def test_word_class_layout_in_closed_form():
    # x fields as the staircase alone needs, mu fields as one m1 and one m2
    # per letter need
    for n in range(2, 101):
        letters = n * (n - 1) // 2
        assert word_class_layout(n) == GradedLayout(
            n, GradedLayout.fit(top_staircase_class(n), 0).xwidth,
            GradedLayout.fit(Poly.zero(n), letters).muwidth)


def test_s5_word_class_keys_fit_one_digit(fresh_memo):
    # every hyperbolic class of S_5 has keys below 2^30, one CPython digit,
    # and the memo holds them in 32-bit arrays
    memo = fresh_memo()
    ctx = OperatorContext(HYPERBOLIC, 5)
    for word in _words(5):
        layout, keys, _coeffs = schubert(ctx, word)
        assert layout == word_class_layout(5) and max(keys) < 1 << 30
        if word:
            assert memo.entries[(HYPERBOLIC, 5, heap_keys(word)[-1])][0].typecode == "i"


def test_rank_100_word_is_computed_and_not_stored(fresh_memo):
    # keys of 100 7-bit x fields exceed 63 bits; pinned at the layout that
    # sized the fields by the word's own 7 letters
    memo = fresh_memo()
    out = io.StringIO()
    assert main(["poly", "word", "--n", "100", "--word", "1,2,3,4,5,6,7"], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "e1b23b8a77e6661373044adcb352a5a2e4239a5591c534626c745f9da59d971f"
    )
    assert word_class_layout(100) == GradedLayout(100, 7, 13)
    assert not memo.entries and memo.nbytes == 0
