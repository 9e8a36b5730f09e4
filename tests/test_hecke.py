"""Hecke algebra relations, the ordered product, and its verifiers."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubfgl import ddo, hecke
from schubfgl.coinv import top_staircase_class
from schubfgl.combi import CapacityError, Permutation, word_to_perm
from schubfgl.ddo import OperatorContext, apply_word, random_poly
from schubfgl.fgl import ADDITIVE, HYPERBOLIC, LORENTZ, MULTIPLICATIVE, FglSpec
from schubfgl.hecke import (
    HeckeElem,
    alpha_factor,
    big_product_s,
    hecke_one,
    hecke_times_factor,
    hecke_times_u,
    heckes_equal,
    ideal_delete,
    in_pair_ideal,
    in_window_cone,
    verify_coeff_corollary,
    verify_fk_identity,
    verify_local_identities,
    verify_ybe,
    window_vars,
)
from schubfgl.polycore import PackedLayout, Poly, PolyError

from oracles import (
    all_permutations,
    big_product_double,
    brute_reduced_words,
    demazure_mul,
    hecke_add,
    hecke_scale,
    hecke_u,
    window_delete,
)

LAWS = (ADDITIVE, MULTIPLICATIVE, HYPERBOLIC, LORENTZ)


def hecke_sub(e, f):
    return hecke_add(e, HeckeElem(f.n, f.spec, {w: -c for w, c in f.coeffs.items()}))


def all_words(n):
    return set().union(*(brute_reduced_words(p) for p in permutations(range(1, n + 1))))


@pytest.fixture
def c_calls(monkeypatch):
    """Record the letter of every C_i step of the packed engine, however it
    is reached: apply_c, apply_word and the word walk all go through it."""
    calls = []
    real = ddo._apply_letter

    def counting(spec, layout, i, terms, row_of=ddo._c_row):
        if row_of is ddo._c_row:
            calls.append(i)
        return real(spec, layout, i, terms, row_of)

    monkeypatch.setattr(ddo, "_apply_letter", counting)
    monkeypatch.setattr(hecke, "_apply_letter", counting)
    return calls


def times_word(e, word):
    for j in word:
        e = hecke_times_u(e, j)
    return e


def test_quadratic_relation():
    n = 3
    for spec in (HYPERBOLIC, MULTIPLICATIVE):
        for i in (1, 2):
            u = hecke_u(n, i, spec)
            lhs = hecke_times_u(u, i)
            rhs = hecke_scale(u, -spec.mu1_poly(n))
            assert heckes_equal(lhs, rhs)
    # additive: -m1 specializes to 0, so u_i squares to zero
    u = hecke_u(n, 1, ADDITIVE)
    assert hecke_times_u(u, 1).coeffs == {}


def test_braid_and_commuting_relations():
    one = hecke_one(4, HYPERBOLIC)
    assert heckes_equal(times_word(one, (1, 2, 1)), times_word(one, (2, 1, 2)))
    assert heckes_equal(times_word(one, (1, 3)), times_word(one, (3, 1)))
    # the step from an element, not only from 1
    u2 = hecke_u(4, 2, HYPERBOLIC)
    assert heckes_equal(times_word(u2, (3, 2, 3)), times_word(u2, (2, 3, 2)))


def test_module_relation_deletes_marked_terms():
    n = 3
    one = hecke_one(n, HYPERBOLIC)
    killer = Poly.monomial(n, (1, 1, 0), (0, 1))
    # 1 + killer u_1: the coefficient of u_1 lies in J_{s_1} and is deleted
    assert hecke_times_factor(one, 1, killer).coeffs == one.coeffs
    # the same scalar survives on a basis element whose support misses it
    kept = hecke_times_factor(one, 2, killer)
    assert kept.coefficient(word_to_perm((2,), n)) == killer


def _random_elem(rng: random.Random, n: int, spec: FglSpec) -> HeckeElem:
    perms = all_permutations(n)
    coeffs = {}
    for w in rng.sample(perms, 3):
        coeffs[w] = random_poly(rng, n, terms=3, max_total_deg=3, max_mu=1)
    return hecke_add(HeckeElem(n, spec, {}), HeckeElem(n, spec, coeffs))


def test_algebra_axioms_sampled():
    # the axioms of the reference product the one-step products are checked against
    rng = random.Random(23)
    n = 3
    for spec in (HYPERBOLIC, LORENTZ):
        for _ in range(5):
            a = _random_elem(rng, n, spec)
            b = _random_elem(rng, n, spec)
            c = _random_elem(rng, n, spec)
            assert heckes_equal(
                demazure_mul(demazure_mul(a, b), c), demazure_mul(a, demazure_mul(b, c))
            )
            assert heckes_equal(
                demazure_mul(a, hecke_add(b, c)),
                hecke_add(demazure_mul(a, b), demazure_mul(a, c)),
            )
            one = hecke_one(n, spec)
            assert heckes_equal(demazure_mul(one, a), a)
            assert heckes_equal(demazure_mul(a, one), a)
            assert heckes_equal(hecke_sub(a, a), HeckeElem(n, spec, {}))


@st.composite
def step_inputs(draw):
    """(e, j, g): a reduced element over a random law at n <= 4, a letter
    and a polynomial; about half of the terms carry m2, so reduction bites."""
    n = draw(st.integers(2, 4))
    spec = draw(st.sampled_from(LAWS))
    perms = all_permutations(n)

    def poly():
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            x = draw(st.tuples(*[st.integers(0, 2)] * n))
            mu = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
            terms[(x, mu)] = draw(st.integers(-2, 2))
        return spec.specialize(Poly(n, terms))

    coeffs = {draw(st.sampled_from(perms)): poly() for _ in range(draw(st.integers(0, 4)))}
    e = hecke_add(HeckeElem(n, spec), HeckeElem(n, spec, coeffs))
    return e, draw(st.integers(1, n - 1)), poly()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(step_inputs())
def test_step_matches_general_product(case):
    e, j, g = case
    n, spec = e.n, e.spec
    u = hecke_u(n, j, spec)
    assert hecke_times_u(e, j).coeffs == demazure_mul(e, u).coeffs
    factor = hecke_add(hecke_one(n, spec), hecke_scale(u, g))
    assert hecke_times_factor(e, j, g).coeffs == demazure_mul(e, factor).coeffs


def test_spec_guard():
    with pytest.raises(ValueError):
        hecke_one(3, FglSpec("hyperbolic", None, 2))
    with pytest.raises(ValueError):
        verify_fk_identity(FglSpec("hyperbolic", 1, 3), 2)


def test_delete_semantics():
    n = 3
    f = (
        Poly.monomial(n, (1, 1, 0), (0, 1))
        + Poly.monomial(n, (2, 0, 0), (0, 1))
        + Poly.monomial(n, (1, 0, 1), (0, 1))
        + Poly.monomial(n, (1, 1, 0))
    )
    # literal deletion needs both adjacent variables and the m2 marker
    got = ideal_delete(f, {1})
    assert got == f - Poly.monomial(n, (1, 1, 0), (0, 1))
    # window deletion removes any m2-term quadratic in the window vars
    assert window_vars({1}) == frozenset({1, 2})
    got = window_delete(f, {1})
    assert got == Poly.monomial(n, (1, 0, 1), (0, 1)) + Poly.monomial(n, (1, 1, 0))
    assert ideal_delete(f, set()) == f
    assert window_delete(f, set()) == f


@st.composite
def deletion_inputs(draw):
    """(f, indices): f is mostly multiples of the generators m2 x_j x_{j+1}
    and m2 x_a x_b over the window, so both verdicts come up often."""
    n = draw(st.integers(2, 5))
    indices = draw(st.frozensets(st.integers(1, n - 1)))
    window = sorted(window_vars(indices)) or [1, 2]
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        x = list(draw(st.tuples(*[st.integers(0, 2)] * n)))
        mu = (draw(st.integers(0, 1)), draw(st.integers(0, 2)))
        kind = draw(st.sampled_from(("pair", "window", "any")))
        if kind == "pair" and indices:
            j = draw(st.sampled_from(sorted(indices)))
            x[j - 1] += 1
            x[j] += 1
            mu = (mu[0], max(mu[1], 1))
        elif kind == "window":
            a, b = draw(st.sampled_from(window)), draw(st.sampled_from(window))
            x[a - 1] += 1
            x[b - 1] += 1
            mu = (mu[0], max(mu[1], 1))
        terms[(tuple(x), mu)] = draw(st.integers(-3, 3))
    # a wider layout than f needs, as the walk's is
    layout = PackedLayout.fit(Poly(n, terms), draw(st.integers(0, 300)))
    return Poly(n, terms), indices, layout


@settings(max_examples=300, deadline=None, derandomize=True)
@given(deletion_inputs())
def test_membership_reads_match_deletion(case):
    # the fk/differ verdicts are mask tests on packed keys; the references
    # delete terms of the tuple-keyed polynomial
    f, indices, layout = case
    terms = layout.pack(f)
    assert in_pair_ideal(terms, layout, indices) == ideal_delete(f, indices).is_zero
    assert in_window_cone(terms, layout, indices) == window_delete(f, indices).is_zero


def test_membership_reads_stop_at_first_survivor():
    n = 3

    def reads(f, indices):
        layout = PackedLayout.fit(f, 0)
        terms = layout.pack(f)
        return in_pair_ideal(terms, layout, indices), in_window_cone(terms, layout, indices)

    inside = Poly.monomial(n, (1, 1, 0), (0, 1))
    assert reads(inside, {1}) == (True, True)
    assert reads(inside, set()) == (False, False)
    assert reads(Poly.zero(n), set()) == (True, True)
    # m2 x_1 x_3 is in the window cone of {1, 2} but in no pair ideal
    spread = Poly.monomial(n, (1, 0, 1), (0, 1))
    assert reads(spread, {1, 2}) == (False, True)
    # one unit of a single window field is below degree two, two units are not
    assert reads(Poly.monomial(n, (0, 1, 0), (0, 1)), {1}) == (False, False)
    assert reads(Poly.monomial(n, (0, 2, 0), (0, 1)), {1}) == (False, True)
    # a term without m2 is in neither, whatever its m1 field holds
    assert reads(Poly.monomial(n, (1, 1, 0), (3, 0)), {1}) == (False, False)
    assert reads(inside + Poly.monomial(n, (1, 1, 0), (0, 0)), {1}) == (False, False)


def test_top_coefficient_is_the_staircase_class():
    for spec in (ADDITIVE, HYPERBOLIC, LORENTZ):
        for n in (2, 3, 4):
            s = big_product_s(n, spec)
            top = s.coefficient(Permutation.longest(n))
            assert top == top_staircase_class(n)


def test_double_product_agrees():
    for spec in (HYPERBOLIC, LORENTZ):
        for n in (2, 3, 4):
            assert heckes_equal(big_product_s(n, spec), big_product_double(n, spec))


def test_alpha_factor_bounds():
    assert alpha_factor(3, 3, Poly.variable(3, 1), HYPERBOLIC).coeffs == hecke_one(
        3, HYPERBOLIC
    ).coeffs
    with pytest.raises(ValueError):
        alpha_factor(3, 0, Poly.variable(3, 1), HYPERBOLIC)
    with pytest.raises(ValueError):
        alpha_factor(3, 4, Poly.variable(3, 1), HYPERBOLIC)


def test_fk_identity_small_ranks():
    for spec in (HYPERBOLIC, LORENTZ):
        for n, expected in ((2, 1), (3, 7)):
            rep = verify_fk_identity(spec, n)
            assert rep.passed, rep.summary_lines()
            assert len(rep.findings) == expected
            hard = [c for c in rep.cases if not c.annotated]
            assert hard and all(c.ok for c in hard)
            assert any(c.label.startswith("-D_") for c in hard)
    rep = verify_fk_identity(HYPERBOLIC, 2)
    assert [c.label for c in rep.findings] == [
        "w=(2,1) word=(1,) congruence mod pairs(supp(w0*w))"
    ]
    # the narrower literal reading starts failing only at n = 3
    for n, expected in ((2, 0), (3, 3)):
        rep = verify_fk_identity(HYPERBOLIC, n)
        lit = [c for c in rep.findings if "pairs(supp(w))" in c.label]
        assert len(lit) == expected


def test_fk_identity_exact_at_mu2_zero():
    for spec in (ADDITIVE, MULTIPLICATIVE):
        for n in (2, 3):
            rep = verify_fk_identity(spec, n)
            assert rep.passed and not rep.findings


def test_coeff_corollary():
    for spec in (HYPERBOLIC, LORENTZ):
        for n, expected in ((2, 1), (3, 7)):
            rep = verify_coeff_corollary(spec, n)
            assert rep.passed, rep.summary_lines()
            assert len(rep.findings) == expected
    for spec in (ADDITIVE, MULTIPLICATIVE):
        rep = verify_coeff_corollary(spec, 3)
        assert rep.passed and not rep.findings


def test_local_identities():
    for spec in (ADDITIVE, MULTIPLICATIVE, LORENTZ, HYPERBOLIC):
        for n in (2, 3):
            rep = verify_local_identities(spec, n, cap=8)
            assert rep.passed, rep.summary_lines()
    with pytest.raises(PolyError):
        verify_local_identities(HYPERBOLIC, 2, cap=3)


def test_ybe():
    for spec in (ADDITIVE, HYPERBOLIC):
        for n in (2, 3):
            rep = verify_ybe(spec, n)
            assert rep.passed, rep.summary_lines()


def test_rank_guards():
    for fn in (verify_fk_identity, verify_coeff_corollary, verify_ybe):
        with pytest.raises(CapacityError):
            fn(HYPERBOLIC, 6)
        with pytest.raises(CapacityError):
            fn(HYPERBOLIC, 1)
    with pytest.raises(CapacityError):
        verify_local_identities(HYPERBOLIC, 6, cap=8)


def test_word_walk_applies_one_operator_per_word(c_calls):
    ctx = OperatorContext(ADDITIVE, 5)
    walked = [(w, word) for w, word, _cls in hecke._word_classes(ctx, hecke._walk_layout(5))]
    # every reduced word of S_5 once, in trie (lexicographic) order
    assert [word for _w, word in walked] == sorted(all_words(5))
    assert len(walked) == 3061
    assert all(word_to_perm(word, 5) == w for w, word in walked)
    assert len(c_calls) == 3060


def test_word_walk_classes_match_word_by_word():
    # the packed walk against apply_word, which packs and unpacks per word
    for spec in LAWS:
        for n in (2, 3, 4):
            ctx = OperatorContext(spec, n)
            layout = hecke._walk_layout(n)
            top = top_staircase_class(n)
            for _w, word, cls in hecke._word_classes(ctx, layout):
                assert layout.unpack(cls) == apply_word(ctx, word, top)


def test_fk_identity_shares_prefixes(c_calls):
    rep = verify_fk_identity(HYPERBOLIC, 4)
    assert rep.passed
    assert len(c_calls) == len(all_words(4)) - 1
