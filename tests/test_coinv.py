"""Normal forms modulo the symmetric ideal and exact basis expansion."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schubfgl.coinv as coinv
from schubfgl.coinv import (
    BasisDependenceError,
    MAX_REWRITE_RANK,
    MAX_VANDERMONDE_RANK,
    NotInSpanError,
    _monomial_normal_form,
    equals_mod_s,
    expand_in_basis,
    normal_form,
    top_staircase_class,
    vandermonde_check,
    vandermonde_poly,
)
from schubfgl.combi import CapacityError
from schubfgl.ddo import OperatorContext, random_poly
from schubfgl.fgl import ADDITIVE, HYPERBOLIC, LORENTZ, MULTIPLICATIVE
from schubfgl.polycore import Poly, PolyError
from schubfgl.schubert import schubert_polynomial

from oracles import nf_linear_oracle, staircase_monomials


def is_staircase(exps, n: int) -> bool:
    return all(exps[k - 1] <= n - k for k in range(1, n + 1))


def _elementary(n: int, k: int) -> Poly:
    out = Poly.zero(n)
    from itertools import combinations

    for subset in combinations(range(n), k):
        e = [0] * n
        for i in subset:
            e[i] = 1
        out = out + Poly.monomial(n, tuple(e))
    return out


def test_normal_form_pins():
    assert normal_form(Poly.variable(2, 1) + Poly.variable(2, 2), 2).is_zero
    assert normal_form(Poly.monomial(2, (1, 1)), 2).is_zero
    assert normal_form(Poly.variable(2, 1) - Poly.variable(2, 2), 2) == Poly(
        2, {((1, 0), (0, 0)): 2}
    )
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            assert normal_form(_elementary(n, k), n).is_zero


def test_normal_form_matches_linear_algebra_oracle():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(12):
            f = random_poly(rng, n, terms=5, max_total_deg=4, max_mu=1)
            assert normal_form(f, n) == nf_linear_oracle(f, n)


def test_normal_form_idempotent_and_staircase_supported():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(8):
            f = random_poly(rng, n, terms=6, max_total_deg=5)
            nf = normal_form(f, n)
            assert normal_form(nf, n) == nf
            for (exps, _mu) in nf.terms:
                assert is_staircase(exps, n)


def test_normal_form_respects_ring_structure():
    # reduction commutes with sums by construction; product
    # compatibility is the real well-definedness statement
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(8):
            f = random_poly(rng, n, terms=4, max_total_deg=3)
            g = random_poly(rng, n, terms=4, max_total_deg=3)
            assert normal_form(f + g, n) == normal_form(f, n) + normal_form(g, n)
            lhs = normal_form(f * g, n)
            rhs = normal_form(normal_form(f, n) * normal_form(g, n), n)
            assert lhs == rhs


def test_normal_form_preserves_degree():
    f = schubert_polynomial(OperatorContext(HYPERBOLIC, 3), (1, 2))
    hom, deg = f.graded_degree()
    nf = normal_form(f, 3)
    hom2, deg2 = nf.graded_degree()
    assert hom and hom2 and deg == deg2


def test_symmetric_multiples_vanish():
    rng = random.Random(17)
    for n in (2, 3):
        sym = _elementary(n, 1) + _elementary(n, n)
        for _ in range(6):
            g = random_poly(rng, n, terms=4, max_total_deg=3)
            assert normal_form(sym * g, n).is_zero


def test_equals_mod_s():
    assert equals_mod_s(Poly.variable(2, 1), -Poly.variable(2, 2), 2)
    lg = schubert_polynomial(OperatorContext(HYPERBOLIC, 4), (3, 1))
    assert equals_mod_s(lg, Poly.monomial(4, (2, 2, 0, 0)), 4)
    f = Poly.monomial(4, (1, 1, 0, 0))
    g = f - Poly.monomial(4, (2, 2, 0, 0), (0, 1))
    assert not equals_mod_s(f, g, 4)


def test_normal_form_wrong_arity():
    with pytest.raises(PolyError):
        normal_form(Poly.one(2), 3)


def test_staircase_monomials():
    for n in (1, 2, 3, 4, 5):
        mons = staircase_monomials(n)
        assert len(mons) == math.factorial(n)
        assert mons == sorted(mons)
        assert all(is_staircase(e, n) for e in mons)
        assert all(normal_form(Poly.monomial(n, e), n) == Poly.monomial(n, e) for e in mons[:6])


def test_expand_in_basis_identity():
    n = 3
    basis = [Poly.monomial(n, e) for e in staircase_monomials(n)]
    for j, b in enumerate(basis):
        coeffs = expand_in_basis(b, basis, n)
        for k, c in enumerate(coeffs):
            assert c == (Poly.one(0) if k == j else Poly.zero(0))


def test_expand_in_basis_mu_coefficients():
    # a degree gap of one forces a single factor of m1
    n = 3
    basis = [Poly.one(n), Poly.variable(n, 1)]
    f = Poly.one(n) - Poly.monomial(n, (1, 0, 0), (1, 0))
    coeffs = expand_in_basis(f, basis, n)
    assert coeffs[0] == Poly.one(0)
    assert coeffs[1] == Poly.const(0, -1, (1, 0))


def test_expand_in_basis_reassembles():
    rng = random.Random(19)
    n = 3
    basis = [Poly.monomial(n, e) for e in staircase_monomials(n)]
    for _ in range(6):
        f = random_poly(rng, n, terms=5, max_total_deg=3, max_mu=0)
        by_deg: dict = {}
        for (exps, mu), c in f.terms.items():
            d = sum(exps) - mu[0] - 2 * mu[1]
            by_deg.setdefault(d, {})[(exps, mu)] = c
        for terms in by_deg.values():
            part = Poly(n, terms)
            coeffs = expand_in_basis(part, basis, n)
            acc = Poly.zero(n)
            for b, c in zip(basis, coeffs):
                acc = acc + b * c.inject_vars(n, ())
            assert equals_mod_s(acc, part, n)


def test_expand_in_basis_errors():
    n = 3
    with pytest.raises(NotInSpanError):
        expand_in_basis(Poly.variable(n, 1), [Poly.monomial(n, (2, 0, 0))], n)
    with pytest.raises(NotInSpanError):
        expand_in_basis(Poly.variable(n, 1), [Poly(n, {((1, 0, 0), (0, 0)): 2})], n)
    # a negative pivot: divmod rounds toward -inf, the remainder still shows
    with pytest.raises(NotInSpanError):
        expand_in_basis(Poly.variable(n, 1), [Poly(n, {((1, 0, 0), (0, 0)): -2})], n)
    with pytest.raises(BasisDependenceError):
        expand_in_basis(
            Poly.variable(n, 1), [Poly.variable(n, 1), Poly.variable(n, 1)], n
        )
    with pytest.raises(BasisDependenceError):
        expand_in_basis(Poly.one(2), [_elementary(2, 1)], 2)
    with pytest.raises(PolyError):
        expand_in_basis(
            Poly.one(n) + Poly.variable(n, 1), [Poly.one(n)], n
        )


def test_vandermonde_and_top_staircase():
    assert vandermonde_poly(2) == Poly.variable(2, 1) - Poly.variable(2, 2)
    assert top_staircase_class(4) == Poly.monomial(4, (3, 2, 1, 0))
    for n in (2, 3):
        lhs = normal_form(vandermonde_poly(n), n)
        rhs = normal_form(top_staircase_class(n), n) * math.factorial(n)
        assert lhs == rhs


def test_vandermonde_check():
    for spec in (ADDITIVE, MULTIPLICATIVE, LORENTZ, HYPERBOLIC):
        for n in (2, 3):
            cap = n * (n - 1) // 2 + 2
            rep = vandermonde_check(spec, n, cap)
            assert rep.passed, rep.summary_lines()
            assert rep.cases


def test_vandermonde_series_stop_at_top_degree(monkeypatch):
    # degrees above n(n-1)/2 vanish modulo S, so --cap must not add work
    caps = []
    invert = coinv.series_invert_unit

    def recording_invert(f, cap):
        caps.append(cap)
        return invert(f, cap)

    monkeypatch.setattr(coinv, "series_invert_unit", recording_invert)
    rep = vandermonde_check(HYPERBOLIC, 3, 400)
    assert rep.passed and rep.name.endswith("cap=400]")
    assert caps and max(caps) <= 3


def test_vandermonde_inverts_the_kernel_once(monkeypatch):
    # one two-variable series serves every pair (i, j), relabelled
    calls = []
    invert = coinv.series_invert_unit

    def recording_invert(f, cap):
        calls.append((f.nvars, cap))
        return invert(f, cap)

    monkeypatch.setattr(coinv, "series_invert_unit", recording_invert)
    rep = vandermonde_check(HYPERBOLIC, 5, 40)
    assert rep.passed
    assert calls == [(2, 10)]


def test_vandermonde_rank_bound():
    n = MAX_VANDERMONDE_RANK + 1
    with pytest.raises(CapacityError):
        vandermonde_check(ADDITIVE, n, n * (n - 1) // 2 + 2)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def polys(n: int, max_deg: int):
    """Up to four terms, each of x-degree at most max_deg (the oracle's
    linear algebra grows fast with the degree)."""
    exps = st.tuples(*[st.integers(0, max_deg)] * n).filter(lambda e: sum(e) <= max_deg)
    term = st.tuples(exps, st.tuples(st.integers(0, 1), st.integers(0, 1)))
    return st.dictionaries(term, st.integers(-5, 5), max_size=4).map(lambda t: Poly(n, t))


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(1, 3))
    return n, draw(polys(n, 3)), draw(polys(n, 3))


@PROPERTY
@given(poly_pairs())
def test_reducing_factors_first_keeps_the_product_class(case):
    # the identity vandermonde_check and the Grassmannian products rest on
    n, f, g = case
    expected = nf_linear_oracle(f * g, n)
    assert normal_form(f * g, n) == expected
    assert normal_form(normal_form(f, n) * normal_form(g, n), n) == expected


@st.composite
def above_top_monomials(draw):
    n = draw(st.integers(1, 3))
    top = n * (n - 1) // 2
    exps = draw(
        st.tuples(*[st.integers(0, top + 3)] * n).filter(lambda e: top < sum(e) <= top + 3)
    )
    return n, exps


@PROPERTY
@given(above_top_monomials())
def test_monomials_above_top_degree_vanish(case):
    # the rewrite itself, not only the shortcut in normal_form, ends at 0
    n, exps = case
    f = Poly.monomial(n, exps)
    assert nf_linear_oracle(f, n).is_zero
    assert _monomial_normal_form(exps, n) == ()
    assert normal_form(f, n).is_zero


def test_every_rewrite_is_rank_bounded():
    # rank 8: x_8 needs a rewrite, whichever entry point asks for it
    n = MAX_REWRITE_RANK + 1
    x8 = Poly.variable(n, n)
    for call in (
        lambda: normal_form(x8, n),
        lambda: equals_mod_s(x8, Poly.zero(n), n),
        lambda: expand_in_basis(x8, [Poly.one(n)], n),
    ):
        with pytest.raises(CapacityError, match=f"limited to rank {MAX_REWRITE_RANK}, got {n}"):
            call()
    # staircase terms and terms above the top degree need none
    f = Poly.monomial(n, (7, 6, 5, 4, 3, 2, 1, 0), c=3) + Poly.monomial(n, (0,) * 7 + (29,))
    assert normal_form(f, n) == Poly.monomial(n, (7, 6, 5, 4, 3, 2, 1, 0), c=3)


def test_memo_stays_bounded_and_correct(monkeypatch):
    # every monomial of a closure has the root's degree, so one closure
    # holds at most the C(d + n - 1, n - 1) monomials of degree d
    bound = 4
    memo: dict = {}
    monkeypatch.setattr(coinv, "_NF_MEMO", memo)
    monkeypatch.setattr(coinv, "_NF_MEMO_MAX", bound)
    sizes = []
    monomial_nf = coinv._monomial_normal_form

    def recording(exps, n):
        out = monomial_nf(exps, n)
        sizes.append((len(memo), math.comb(sum(exps) + n - 1, n - 1)))
        return out

    monkeypatch.setattr(coinv, "_monomial_normal_form", recording)
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(10):
            f = random_poly(rng, n, terms=5, max_total_deg=4, max_mu=1)
            assert normal_form(f, n) == nf_linear_oracle(f, n)
    assert sizes and all(size <= bound + closure for size, closure in sizes)
    assert max(size for size, _ in sizes) > bound  # the bound was reached


def test_empty_normal_form_is_memoized(monkeypatch):
    # x_1^3 is 0 modulo S at rank 3; its empty entry is read, not recomputed
    monkeypatch.setattr(coinv, "_NF_MEMO", {})
    f = Poly.monomial(3, (3, 0, 0))
    assert normal_form(f, 3).is_zero
    assert coinv._NF_MEMO[(3, 0, 0)] == ()

    def no_rewrite(exps, n):
        raise AssertionError(f"{exps} was rewritten again")

    monkeypatch.setattr(coinv, "_monomial_normal_form", no_rewrite)
    assert normal_form(f, 3).is_zero
