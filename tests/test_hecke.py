"""Hecke algebra relations, the ordered product, and its verifiers."""

import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubfgl import ddo, hecke, schubert
from schubfgl.coinv import top_staircase_class
from schubfgl.combi import CapacityError, Permutation, canonical_word, word_to_perm
from schubfgl.ddo import OperatorContext, apply_word
from schubfgl.fgl import ADDITIVE, HYPERBOLIC, LORENTZ, MULTIPLICATIVE, FglSpec
from schubfgl.hecke import (
    MAX_ENUM_RANK,
    MAX_LOCAL_CAP,
    HeckeElem,
    alpha_factor,
    big_product_s,
    hecke_one,
    hecke_times_factor,
    hecke_times_u,
    heckes_equal,
    in_pair_ideal,
    in_window_cone,
    verify_coeff_corollary,
    verify_fk_identity,
    verify_local_identities,
    verify_ybe,
)
from schubfgl.polycore import GradedLayout, Poly, PolyError
from schubfgl.schubert import word_class_layout

from oracles import (
    all_permutations,
    big_product_double,
    brute_reduced_words,
    commutation_classes,
    constant,
    demazure_mul,
    grothendieck_polynomial,
    hecke_add,
    hecke_scale,
    hecke_u,
    hecke_unit,
    ideal_delete,
    sample_poly,
    specialize,
    window_delete,
    word_class_verdicts,
)

LAWS = (ADDITIVE, MULTIPLICATIVE, HYPERBOLIC, LORENTZ)


def packed(layout, spec, e):
    """The element of a reduced tuple-key element {Permutation: Poly}."""
    return HeckeElem(layout, spec, {w: layout.pack(c) for w, c in e.items()})


def tuple_key(e):
    """e's coefficients as {Permutation: Poly}, the oracle's elements."""
    return {w: e.layout.unpack(c) for w, c in e.coeffs.items()}


def hecke_sub(e, f):
    return hecke_add(e, {w: -c for w, c in f.items()})


def all_words(n):
    return set().union(*(brute_reduced_words(p) for p in permutations(range(1, n + 1))))


@pytest.fixture
def c_calls(monkeypatch):
    """Record the letter of every C_i step of the packed engine, however it
    is reached: apply_c, apply_word and the classes of words (schubert)
    all go through it.  The memo of word classes starts empty."""
    calls = []
    real = ddo._apply_letter

    def counting(spec, layout, i, pairs, row_of=ddo._c_row):
        if row_of is ddo._c_row:
            calls.append(i)
        return real(spec, layout, i, pairs, row_of)

    monkeypatch.setattr(ddo, "_apply_letter", counting)
    monkeypatch.setattr(schubert, "_apply_letter", counting)
    monkeypatch.setattr(schubert, "_MEMO", schubert._ClassMemo())
    return calls


def times_word(e, word):
    for j in word:
        e = hecke_times_u(e, j)
    return e


def test_quadratic_relation():
    n = 3
    layout = word_class_layout(n)
    for spec in (HYPERBOLIC, MULTIPLICATIVE):
        for i in (1, 2):
            lhs = hecke_times_u(packed(layout, spec, hecke_u(n, i)), i)
            minus_m1 = specialize(spec, constant(n, -1, (1, 0)))
            assert tuple_key(lhs) == hecke_scale(hecke_u(n, i), minus_m1)
    # additive: -m1 specializes to 0, so u_i squares to zero
    assert hecke_times_u(packed(layout, ADDITIVE, hecke_u(n, 1)), 1).coeffs == {}


def test_braid_and_commuting_relations():
    layout = word_class_layout(4)
    one = hecke_one(layout, HYPERBOLIC)
    assert heckes_equal(times_word(one, (1, 2, 1)), times_word(one, (2, 1, 2)))
    assert heckes_equal(times_word(one, (1, 3)), times_word(one, (3, 1)))
    # the step from an element, not only from 1
    u2 = packed(layout, HYPERBOLIC, hecke_u(4, 2))
    assert heckes_equal(times_word(u2, (3, 2, 3)), times_word(u2, (2, 3, 2)))
    with pytest.raises(ValueError):
        heckes_equal(one, hecke_one(GradedLayout(4, 3, 3), HYPERBOLIC))


def test_module_relation_deletes_marked_terms():
    n = 3
    layout = word_class_layout(n)
    one = hecke_one(layout, HYPERBOLIC)
    killer = layout.pack(Poly.monomial(n, (1, 1, 0), (0, 1)))
    # 1 + killer u_1: the coefficient of u_1 lies in J_{s_1} and is deleted
    assert hecke_times_factor(one, 1, killer).coeffs == one.coeffs
    # the same scalar survives on a basis element whose support misses it
    kept = hecke_times_factor(one, 2, killer)
    assert kept.coeffs[word_to_perm((2,), n)] == killer


def _random_elem(rng: random.Random, n: int) -> dict:
    perms = all_permutations(n)
    coeffs = {}
    for w in rng.sample(perms, 3):
        coeffs[w] = sample_poly(rng, n, terms=3, max_total_deg=3, max_mu=1)
    return hecke_add({}, coeffs)


def test_algebra_axioms_sampled():
    # the axioms of the reference product the one-step products are checked against
    rng = random.Random(23)
    n = 3
    for spec in (HYPERBOLIC, LORENTZ):
        for _ in range(5):
            a, b, c = (_random_elem(rng, n) for _ in range(3))
            assert demazure_mul(demazure_mul(a, b, spec), c, spec) == demazure_mul(
                a, demazure_mul(b, c, spec), spec
            )
            assert demazure_mul(a, hecke_add(b, c), spec) == hecke_add(
                demazure_mul(a, b, spec), demazure_mul(a, c, spec)
            )
            one = hecke_unit(n)
            assert demazure_mul(one, a, spec) == a == demazure_mul(a, one, spec)
            assert hecke_sub(a, a) == {}


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
        return specialize(spec, Poly(n, terms))

    coeffs = {draw(st.sampled_from(perms)): poly() for _ in range(draw(st.integers(0, 4)))}
    return spec, hecke_add({}, coeffs), draw(st.integers(1, n - 1)), poly()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(step_inputs())
def test_step_matches_general_product(case):
    # the packed one-step products against the tuple-key general product
    spec, e, j, g = case
    n = g.nvars
    # x exponents up to 2 + 2 and mu exponents up to 1 + 1 + 1 fit 3-bit fields
    layout = GradedLayout(n, 3, 3)
    elem, u = packed(layout, spec, e), hecke_u(n, j)
    assert tuple_key(hecke_times_u(elem, j)) == demazure_mul(e, u, spec)
    factor = hecke_add(hecke_unit(n), hecke_scale(u, g))
    assert tuple_key(hecke_times_factor(elem, j, layout.pack(g))) == demazure_mul(e, factor, spec)


def test_spec_guard():
    with pytest.raises(ValueError):
        hecke_one(word_class_layout(3), FglSpec("hyperbolic", None, 2))
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
    got = window_delete(f, {1})
    assert got == Poly.monomial(n, (1, 0, 1), (0, 1)) + Poly.monomial(n, (1, 1, 0))
    assert ideal_delete(f, set()) == f
    assert window_delete(f, set()) == f
    # the packed deletion of the elements drops what the reference drops
    layout = word_class_layout(n)
    terms = layout.pack(f)
    kept = {k: terms[k] for k in hecke.ideal_delete(terms, layout, frozenset({1}))}
    assert kept == layout.pack(ideal_delete(f, {1}))


@st.composite
def deletion_inputs(draw):
    """(f, indices): f is mostly multiples of the generators m2 x_j x_{j+1}
    and m2 x_a x_b over the window, so both verdicts come up often."""
    n = draw(st.integers(2, 5))
    indices = draw(st.frozensets(st.integers(1, n - 1)))
    window = sorted({v for j in indices for v in (j, j + 1)}) or [1, 2]
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
    # x exponents up to 4 (a window term on x_a = x_b) need 3-bit fields and
    # mu exponents up to 2 need 2-bit ones; the walk's layout is wider, and
    # its x and mu fields differ
    layout = GradedLayout(n, draw(st.integers(3, 9)), draw(st.integers(2, 9)))
    return Poly(n, terms), indices, layout


@settings(max_examples=300, deadline=None, derandomize=True)
@given(deletion_inputs())
# the smallest key, of x-degree 2, has m2; the larger x_1^2 x_2 has none
@example((Poly(2, {((1, 1), (0, 1)): 1, ((2, 1), (0, 0)): 1}), frozenset({1}), GradedLayout(2, 2, 2)))
def test_membership_reads_match_deletion(case):
    # the fk/differ verdicts and the deletion of the elements are mask
    # tests on packed keys; the references delete terms of the tuple-keyed
    # polynomial
    f, indices, layout = case
    terms = layout.pack(f)
    kept = {k: terms[k] for k in hecke.ideal_delete(terms, layout, indices)}
    assert kept == layout.pack(ideal_delete(f, indices))
    assert in_pair_ideal(terms, layout, indices) == (not ideal_delete(f, indices))
    assert in_window_cone(terms, layout, indices) == (not window_delete(f, indices))


def test_membership_reads_stop_at_first_survivor():
    n = 3

    def reads(f, indices):
        layout, indices = GradedLayout.fit(f, 0), frozenset(indices)
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
            top = s.coeffs[Permutation.longest(n)]
            assert s.layout.unpack(top) == top_staircase_class(n)


def test_double_product_agrees():
    # the packed S against the tuple-key S of the general product
    for spec in (HYPERBOLIC, LORENTZ):
        for n in (2, 3, 4):
            assert tuple_key(big_product_s(n, spec)) == big_product_double(n, spec)


def test_alpha_factor_bounds():
    layout = word_class_layout(3)
    x1 = layout.pack(Poly.variable(3, 1))
    assert alpha_factor(layout, 3, x1, HYPERBOLIC).coeffs == hecke_one(layout, HYPERBOLIC).coeffs
    with pytest.raises(ValueError):
        alpha_factor(layout, 0, x1, HYPERBOLIC)
    with pytest.raises(ValueError):
        alpha_factor(layout, 4, x1, HYPERBOLIC)


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


def test_layouts_hold_every_product(monkeypatch):
    # products are exact, and a field that overflows carries into the next
    # one unseen: a carry out of an x or m1 field breaks "degree field =
    # sum of the x fields", one out of m2 breaks the homogeneity of the
    # hyperbolic coefficients.  Every product _mk_elem meets at the widest
    # inputs of fk and local must show neither, with each field below its
    # maximum
    widest = {}
    real = hecke._mk_elem

    def recording(layout, spec, coeffs):
        shifts, xmask, mw, mumask = layout.fields
        top = widest.setdefault(layout, [0, 0])
        for terms in coeffs.values():
            degrees = set()
            for key in terms:
                xs = [key >> s & xmask for s in shifts]
                m1, m2 = key >> mw & mumask, key & mumask
                assert key >> layout.deg_shift == sum(xs)
                degrees.add(sum(xs) - m1 - 2 * m2)
                top[0] = max(top[0], *xs)
                top[1] = max(top[1], m1, m2)
            assert len(degrees) <= 1
        return real(layout, spec, coeffs)

    monkeypatch.setattr(hecke, "_mk_elem", recording)
    assert verify_local_identities(HYPERBOLIC, MAX_ENUM_RANK, MAX_LOCAL_CAP).passed
    assert verify_fk_identity(HYPERBOLIC, MAX_ENUM_RANK).passed
    assert len(widest) == 2
    for layout, (x, mu) in widest.items():
        assert x < (1 << layout.xwidth) - 1 and mu < (1 << layout.muwidth) - 1, (layout, x, mu)
    assert sorted(widest.values()) == [[4, 5], [126, 243]]


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


def test_word_walk_applies_one_operator_per_heap(c_calls):
    walked = list(hecke._reduced_words(5))
    # every reduced word of S_5 once, in trie (lexicographic) order
    assert [word for _w, word in walked] == sorted(all_words(5))
    assert len(walked) == 3061
    assert all(word_to_perm(word, 5).oneline == oneline for oneline, word in walked)
    list(hecke._word_class_cases(OperatorContext(ADDITIVE, 5), lambda w: {}))
    # one C_i per nonempty heap: the additive classes all fit the memo
    assert len(c_calls) == 475


def test_word_walk_classes_match_word_by_word(monkeypatch):
    # one class computed per commutation class, and it is apply_word of
    # every word of the class, which packs and unpacks per word; the
    # verdict pins cannot see this, since up to n = 5 all reduced words of
    # one w happen to share their verdicts
    for spec in LAWS:
        for n in (2, 3, 4):
            ctx = OperatorContext(spec, n)
            seen = {}

            def recording(context, word, heaps=None):
                layout, keys, coeffs = schubert.schubert(context, word, heaps)
                seen[word] = layout.unpack(dict(zip(keys, coeffs)))
                return layout, keys, coeffs

            monkeypatch.setattr(hecke, "schubert", recording)
            list(hecke._word_class_cases(ctx, lambda w: {}))
            top = top_staircase_class(n)
            classes = commutation_classes(all_words(n))
            assert len(seen) == len(classes)
            for cls in classes:
                (first,) = cls & seen.keys()
                for word in cls:
                    assert seen[first] == apply_word(ctx, word, top)


def test_word_class_cases_match_the_all_words_walk():
    # verdicts per heap on packed references against verdicts per word on
    # the tuple-key ones, for the references of fk and of differ
    for spec in LAWS:
        for n in (2, 3, 4):
            ctx, flat = OperatorContext(spec, n), OperatorContext(spec.mu2_zeroed(), n)
            S, w0 = big_product_s(n, spec), Permutation.longest(n)
            S_double = big_product_double(n, spec)
            for reference, tuple_reference in (
                (lambda w: S.coeffs.get(w0 * w, {}), lambda w: S_double.get(w0 * w, Poly.zero(n))),
                (
                    lambda w: dict(zip(*schubert.schubert(flat, canonical_word(w))[1:])),
                    lambda w: grothendieck_polynomial(ctx, w),
                ),
            ):
                got = list(hecke._word_class_cases(ctx, reference))
                assert got == word_class_verdicts(ctx, tuple_reference)


def test_fk_identity_shares_prefixes(c_calls):
    rep = verify_fk_identity(HYPERBOLIC, 4)
    assert rep.passed
    # one C_i per nonempty heap of S_4, counted without heap keys
    assert len(c_calls) == len(commutation_classes(all_words(4))) - 1
