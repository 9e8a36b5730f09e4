"""Permutations, reduced words, and box partitions."""

import math

import pytest

from schubfgl.combi import (
    BoxPartition,
    CapacityError,
    Permutation,
    box_partitions,
    canonical_word,
    partition_dual,
    partition_dual_z,
    partition_leq,
    support_of,
    word_to_perm,
)
from schubfgl.hecke import MAX_ENUM_RANK

from oracles import (
    all_permutations,
    brute_reduced_words,
    is_reduced,
    partition_to_perm,
    reduced_words,
)


def test_compose_convention():
    # (u o v)(i) = u(v(i)): the right factor acts first
    s1 = Permutation((2, 1, 3))
    s2 = Permutation((1, 3, 2))
    assert (s1 * s2).oneline == (2, 3, 1)
    assert (s2 * s1).oneline == (3, 1, 2)


def test_length_and_longest():
    w0 = Permutation.longest(4)
    assert w0.oneline == (4, 3, 2, 1)
    assert w0.length() == 6
    assert Permutation((1, 2, 3)).length() == 0
    assert (w0 * w0).length() == 0


def test_inverse_and_identity():
    w = Permutation((3, 1, 4, 2))
    assert (w * w.inverse()).oneline == (1, 2, 3, 4)
    assert w.inverse().length() == w.length()


def test_word_to_perm_first_letter_first():
    # word (1, 2) multiplies out to s_1 o s_2
    assert word_to_perm((1, 2), 3).oneline == (2, 3, 1)
    assert word_to_perm((2, 1), 3).oneline == (3, 1, 2)
    assert word_to_perm((), 3).oneline == (1, 2, 3)


def test_is_reduced():
    assert is_reduced((1, 2, 1), 3)
    assert not is_reduced((1, 1), 3)
    assert not is_reduced((1, 2, 1, 2), 3)


def test_reduced_words_against_brute_force():
    for n in (2, 3, 4):
        for w in all_permutations(n):
            got = set(reduced_words(w))
            assert got == brute_reduced_words(w.oneline)
            assert all(len(word) == w.length() for word in got)
            assert all(word_to_perm(word, n) == w for word in got)


def test_canonical_word_is_lex_min():
    for w in all_permutations(4):
        words = reduced_words(w)
        assert canonical_word(w) == min(words)


def test_reduced_word_counts_s4():
    # the longest element of S_4 has 16 reduced words
    assert len(reduced_words(Permutation.longest(4))) == 16
    total = sum(len(reduced_words(w)) for w in all_permutations(4))
    assert total == 66


def test_support():
    assert support_of(Permutation((1, 2, 3))) == frozenset()
    assert support_of(Permutation((2, 1, 3))) == frozenset({1})
    assert support_of(Permutation.longest(3)) == frozenset({1, 2})


def test_all_permutations_counts_and_capacity():
    for n in (2, 3, 4, 5):
        assert len(all_permutations(n)) == math.factorial(n)
    with pytest.raises(CapacityError):
        all_permutations(MAX_ENUM_RANK + 1)


def test_box_partition_padding_and_validation():
    lam = BoxPartition(3, 2, (2, 1))
    assert lam.parts == (2, 1, 0)
    assert lam.size() == 3
    with pytest.raises(ValueError):
        BoxPartition(2, 2, (1, 2))
    with pytest.raises(ValueError):
        BoxPartition(2, 2, (3, 0))
    # the range check comes first, so a negative part is named as such
    with pytest.raises(ValueError, match=r"part -1 does not lie in \[0, 2\]"):
        BoxPartition(2, 2, (-1, 0))
    with pytest.raises(ValueError):
        BoxPartition(2, 2, (2, 2, 1))


def test_box_partitions_enumeration():
    for k, m in ((1, 3), (2, 2), (2, 3), (3, 3)):
        parts = box_partitions(k, m)
        assert len(parts) == math.comb(k + m, k)
        assert len(set(p.parts for p in parts)) == len(parts)
        sizes = [p.size() for p in parts]
        assert sizes == sorted(sizes)


def test_partition_dual_involution():
    for lam in box_partitions(2, 3):
        assert partition_dual(partition_dual(lam)) == lam
        assert partition_dual(lam).size() == 6 - lam.size()


def test_partition_dual_z():
    lam = BoxPartition(2, 2, (1, 0))
    inner = partition_dual_z(lam, 1, 2)
    assert (inner.k, inner.m, inner.parts) == (1, 2, (1,))
    with pytest.raises(ValueError):
        partition_dual_z(BoxPartition(2, 2, (2, 1)), 1, 2)


def test_partition_leq():
    a = BoxPartition(2, 2, (1, 0))
    b = BoxPartition(2, 2, (2, 1))
    assert partition_leq(a, b)
    assert not partition_leq(b, a)
    assert partition_leq(a, a)


def test_partition_to_perm_grassmannian():
    for lam in box_partitions(2, 2):
        w = partition_to_perm(lam, 4)
        assert w.length() == lam.size()
        # descent only at position k = 2
        ol = w.oneline
        assert all(ol[i] < ol[i + 1] for i in (0, 2))
    assert partition_to_perm(BoxPartition(2, 2, (2, 2)), 4).oneline == (3, 4, 1, 2)
    with pytest.raises(ValueError):
        partition_to_perm(BoxPartition(2, 3, (1, 0)), 4)
