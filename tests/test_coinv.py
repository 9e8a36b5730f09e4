"""Normal forms modulo the symmetric ideal and exact basis expansion."""

import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import schubfgl.coinv as coinv
from schubfgl.coinv import (
    BasisDependenceError,
    MAX_REWRITE_RANK,
    MAX_VANDERMONDE_RANK,
    NotInSpanError,
    expand_in_basis,
    nf_layout,
    reduce_polys,
    top_staircase_class,
    vandermonde_check,
    vandermonde_poly,
)
from schubfgl.combi import CapacityError
from schubfgl.ddo import OperatorContext
from schubfgl.fgl import ADDITIVE, HYPERBOLIC, LORENTZ, MULTIPLICATIVE
from schubfgl.polycore import Poly, PolyError

from oracles import (
    bareiss_solve,
    constant,
    equals_mod_s,
    expanded,
    inject_vars,
    mul_mu,
    nf_linear_oracle,
    normal_form,
    rewrite_normal_form,
    sample_poly,
    schubert_polynomial,
    staircase_monomials,
    vandermonde_product,
)


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
    assert not normal_form(Poly.variable(2, 1) + Poly.variable(2, 2), 2)
    assert not normal_form(Poly.monomial(2, (1, 1)), 2)
    assert normal_form(Poly.variable(2, 1) - Poly.variable(2, 2), 2) == Poly(
        2, {((1, 0), (0, 0)): 2}
    )
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            assert not normal_form(_elementary(n, k), n)


def test_normal_form_matches_linear_algebra_oracle():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(12):
            f = sample_poly(rng, n, terms=5, max_total_deg=4, max_mu=1)
            assert normal_form(f, n) == nf_linear_oracle(f, n)


def test_normal_form_idempotent_and_staircase_supported():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(8):
            f = sample_poly(rng, n, terms=6, max_total_deg=5)
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
            f = sample_poly(rng, n, terms=4, max_total_deg=3)
            g = sample_poly(rng, n, terms=4, max_total_deg=3)
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
            g = sample_poly(rng, n, terms=4, max_total_deg=3)
            assert not normal_form(sym * g, n)


def test_equals_mod_s():
    assert equals_mod_s(Poly.variable(2, 1), -Poly.variable(2, 2), 2)
    lg = schubert_polynomial(OperatorContext(HYPERBOLIC, 4), (3, 1))
    assert equals_mod_s(lg, Poly.monomial(4, (2, 2, 0, 0)), 4)
    f = Poly.monomial(4, (1, 1, 0, 0))
    g = f - Poly.monomial(4, (2, 2, 0, 0), (0, 1))
    assert not equals_mod_s(f, g, 4)


def test_normal_form_wrong_arity():
    with pytest.raises(PolyError):
        normal_form(constant(2, 1), 3)


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
        coeffs = expanded(b, basis, n)
        for k, c in enumerate(coeffs):
            assert c == (constant(0, 1) if k == j else Poly.zero(0))


def test_expand_in_basis_mu_coefficients():
    # a degree gap of one forces a single factor of m1
    n = 3
    basis = [constant(n, 1), Poly.variable(n, 1)]
    f = constant(n, 1) - Poly.monomial(n, (1, 0, 0), (1, 0))
    layout, coeffs = expand_in_basis(f, basis, n)
    # m1^a m2^b is the key a << muwidth | b of a layout in no variables
    assert layout.nvars == 0
    assert coeffs == [{0: 1}, {1 << layout.muwidth: -1}]
    assert [layout.unpack(c) for c in coeffs] == [constant(0, 1), constant(0, -1, (1, 0))]


def test_expand_in_basis_reassembles():
    rng = random.Random(19)
    n = 3
    basis = [Poly.monomial(n, e) for e in staircase_monomials(n)]
    parts = []
    for _ in range(6):
        f = sample_poly(rng, n, terms=5, max_total_deg=3, max_mu=0)
        by_deg: dict = {}
        for (exps, mu), c in f.terms.items():
            d = sum(exps) - mu[0] - 2 * mu[1]
            by_deg.setdefault(d, {})[(exps, mu)] = c
        parts += [Poly(n, terms) for terms in by_deg.values()]
    # graded degrees -4 and -5, carried by m2: the column m1^(top - d)
    # x_1^2 x_2 is 7 or 8 in m1, the largest a 3-bit mu field holds and the
    # first it does not, and wider than every mu exponent of the input
    for d in (-4, -5):
        for _ in range(3):
            terms = {}
            for _ in range(3):
                exps = tuple(rng.randint(0, n - k) for k in range(1, n + 1))
                b2, a = divmod(sum(exps) - d, 2)
                terms[exps, (a, b2)] = rng.choice((-2, -1, 1, 3))
            parts.append(Poly(n, terms))
    for part in parts:
        acc = Poly.zero(n)
        for b, c in zip(basis, expanded(part, basis, n)):
            acc = acc + b * inject_vars(c, n, ())
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
        expand_in_basis(constant(2, 1), [_elementary(2, 1)], 2)
    with pytest.raises(PolyError):
        expand_in_basis(
            constant(n, 1) + Poly.variable(n, 1), [constant(n, 1)], n
        )


def test_a_kept_basis_reduces_once_per_layout_and_keeps_four():
    n = 3
    classes = [Poly.monomial(n, e, (1, 0)) for e in staircase_monomials(n)]
    basis = coinv.Basis(classes)
    assert list(basis) == classes and basis.mu_top == 1
    assert basis.degrees == [sum(e) - 1 for e in staircase_monomials(n)]
    first = basis.reduced(n, 3)
    assert first == reduce_polys(classes, n, 3) and basis.reduced(n, 0) is first
    # mu fields of 3 to 7 bits: five layouts, at most four of them kept
    for mu_top in (8, 16, 32, 64):
        last = basis.reduced(n, mu_top)
        assert last == reduce_polys(classes, n, mu_top) and basis.reduced(n, mu_top) is last
        assert 1 <= len(basis.forms) <= 4
    # the same answers from a kept basis as from a list, warm or cold
    f = Poly.monomial(n, (2, 1, 0), (9, 0), 2) + Poly.monomial(n, (1, 1, 0), (8, 0), -1)
    assert expand_in_basis(f, basis, n) == expand_in_basis(f, classes, n) == expand_in_basis(f, basis, n)


def test_a_kept_basis_keeps_no_error():
    basis = coinv.Basis([constant(3, 1)])
    for _ in range(2):
        with pytest.raises(PolyError, match="expected a polynomial in 2 variables, got 3"):
            basis.reduced(2, 0)
    assert basis.forms == {}
    with pytest.raises(CapacityError):
        coinv.Basis([constant(8, 1), Poly.monomial(8, (0, 0, 0, 0, 1, 7, 7, 7))]).reduced(8, 0)


def test_vandermonde_and_top_staircase():
    assert vandermonde_poly(2) == Poly.variable(2, 1) - Poly.variable(2, 2)
    assert top_staircase_class(4) == Poly.monomial(4, (3, 2, 1, 0))
    for n in (2, 3):
        lhs = normal_form(vandermonde_poly(n), n)
        rhs = normal_form(top_staircase_class(n), n) * math.factorial(n)
        assert lhs == rhs


def test_vandermonde_poly_is_the_product():
    # the determinant expansion against the product multiplied out; the
    # empty product below rank 2 is one
    for n in range(7):
        assert vandermonde_poly(n) == vandermonde_product(n)
    assert vandermonde_poly(0) == constant(0, 1) and vandermonde_poly(1) == constant(1, 1)


@pytest.fixture
def fresh_alternant():
    """An empty cache of reduced alternants, emptied again afterwards, so
    that a patched reduction or alternant reaches no other test."""
    coinv._reduced_alternant.cache_clear()
    yield
    coinv._reduced_alternant.cache_clear()


@pytest.fixture
def fresh_factors():
    """An empty cache of part (b)'s factors, emptied again afterwards, so
    that a patched series reaches no other test."""
    coinv._pair_factors.cache_clear()
    yield
    coinv._pair_factors.cache_clear()


def test_vandermonde_part_a_reads_the_polynomial(monkeypatch, fresh_alternant):
    # one sign flipped in the alternant must fail part (a)
    alternant = vandermonde_poly

    def one_sign_flipped(n):
        f = alternant(n)
        flipped = dict(f.terms)
        key = next(iter(flipped))
        flipped[key] = -flipped[key]
        return Poly(n, flipped)

    monkeypatch.setattr(coinv, "vandermonde_poly", one_sign_flipped)
    for n in (3, 5):
        rep = vandermonde_check(HYPERBOLIC, n, n * (n - 1) // 2 + 1)
        part_a = [c for c in rep.cases if c.label.startswith("part (a)")]
        assert len(part_a) == 1 and not part_a[0].ok
        assert not rep.passed


def test_vandermonde_check():
    for spec in (ADDITIVE, MULTIPLICATIVE, LORENTZ, HYPERBOLIC):
        for n in (2, 3):
            cap = n * (n - 1) // 2 + 2
            rep = vandermonde_check(spec, n, cap)
            assert rep.passed, rep.summary_lines()
            assert rep.cases


def test_vandermonde_series_stop_at_top_degree(monkeypatch, fresh_factors):
    # degrees above n(n-1)/2 vanish modulo S, so --cap must not add work
    caps = []
    series = coinv.chi_difference

    def recording_series(spec, cap):
        caps.append(cap)
        return series(spec, cap)

    monkeypatch.setattr(coinv, "chi_difference", recording_series)
    rep = vandermonde_check(HYPERBOLIC, 3, 400)
    assert rep.passed and rep.name.endswith("cap=400]")
    assert caps and max(caps) <= 3


def test_vandermonde_inverts_the_kernel_once(monkeypatch, fresh_factors):
    # one two-variable series serves every pair (i, j), relabelled, and a
    # second call with the same law and rank takes none
    calls = []
    series = coinv.chi_difference

    def recording_series(spec, cap):
        calls.append((spec, cap))
        return series(spec, cap)

    monkeypatch.setattr(coinv, "chi_difference", recording_series)
    rep = vandermonde_check(HYPERBOLIC, 5, 40)
    assert rep.passed
    assert calls == [(HYPERBOLIC, 10)]
    assert vandermonde_check(HYPERBOLIC, 5, 12).passed
    assert calls == [(HYPERBOLIC, 10)]


def test_vandermonde_reduces_the_alternant_once(monkeypatch, fresh_alternant):
    # part (b) compares with part (a)'s normal form instead of reducing
    # the n! monomials of the alternant again, and a second call at the
    # same rank reduces none
    sizes = []
    reduce = coinv.reduce_packed

    def recording_reduce(terms, layout):
        sizes.append(len(terms))
        return reduce(terms, layout)

    monkeypatch.setattr(coinv, "reduce_packed", recording_reduce)
    assert vandermonde_check(HYPERBOLIC, 5, 11).passed
    assert sizes.count(math.factorial(5)) == 1
    assert vandermonde_check(MULTIPLICATIVE, 5, 12).passed
    assert sizes.count(math.factorial(5)) == 1


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
    assert not nf_linear_oracle(f, n)
    assert not rewrite_normal_form(f, n)
    assert not normal_form(f, n)


def test_every_rewrite_is_rank_bounded():
    # rank 8: x_8 needs a rewrite, whichever entry point asks for it
    n = MAX_REWRITE_RANK + 1
    x8 = Poly.variable(n, n)
    for call in (
        lambda: normal_form(x8, n),
        lambda: equals_mod_s(x8, Poly.zero(n), n),
        lambda: expand_in_basis(x8, [constant(n, 1)], n),
    ):
        with pytest.raises(CapacityError, match=f"limited to rank {MAX_REWRITE_RANK}, got {n}"):
            call()
    # staircase terms and terms above the top degree need none
    f = Poly.monomial(n, (7, 6, 5, 4, 3, 2, 1, 0), c=3) + Poly.monomial(n, (0,) * 7 + (29,))
    assert normal_form(f, n) == Poly.monomial(n, (7, 6, 5, 4, 3, 2, 1, 0), c=3)


def _x_part(exps, n: int) -> int:
    """The x-part of the monomial x^exps in nf_layout(n), its _NF_MEMO key."""
    (key,) = nf_layout(n, 0).pack(Poly.monomial(n, exps), n * (n - 1) // 2)
    return key


def test_memo_stays_bounded_and_correct(monkeypatch):
    # every monomial of a closure has the root's degree, so one closure
    # holds at most the C(d + n - 1, n - 1) monomials of degree d; the
    # bound holds for all ranks together
    bound = 4
    memo: dict = {}
    monkeypatch.setattr(coinv, "_NF_MEMO", memo)
    monkeypatch.setattr(coinv, "_NF_MEMO_MAX", bound)
    sizes = []
    monomial_nf = coinv._monomial_normal_form

    def recording(x, n):
        out = monomial_nf(x, n)
        degree = x >> n * nf_layout(n, 0).xwidth
        sizes.append((sum(map(len, memo.values())), math.comb(degree + n - 1, n - 1)))
        return out

    monkeypatch.setattr(coinv, "_monomial_normal_form", recording)
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(10):
            f = sample_poly(rng, n, terms=5, max_total_deg=4, max_mu=1)
            assert normal_form(f, n) == nf_linear_oracle(f, n)
    assert sizes and all(size <= bound + closure for size, closure in sizes)
    assert max(size for size, _ in sizes) > bound  # the bound was reached
    assert len(memo) > 1  # more than one rank shared it


def test_empty_normal_form_is_memoized(monkeypatch):
    # x_1^3 is 0 modulo S at rank 3; its empty entry is read, not recomputed
    monkeypatch.setattr(coinv, "_NF_MEMO", {})
    f = Poly.monomial(3, (3, 0, 0))
    assert not normal_form(f, 3)
    assert coinv._NF_MEMO[3][_x_part((3, 0, 0), 3)] == ()

    def no_rewrite(x, n):
        raise AssertionError(f"{x} was rewritten again")

    monkeypatch.setattr(coinv, "_monomial_normal_form", no_rewrite)
    assert not normal_form(f, 3)


@st.composite
def monomials_up_to_top(draw, max_n: int):
    n = draw(st.integers(1, max_n))
    top = n * (n - 1) // 2
    exps = draw(st.tuples(*[st.integers(0, top)] * n).filter(lambda e: sum(e) <= top))
    return n, exps


@PROPERTY
@given(monomials_up_to_top(6))
def test_packed_closure_matches_the_tuple_rewrite(case):
    n, exps = case
    nf = rewrite_normal_form(Poly.monomial(n, exps), n)
    layout = nf_layout(n, 0)
    entry = coinv._monomial_normal_form(_x_part(exps, n), n)
    assert layout.unpack(dict(entry)) == nf
    term, want = Poly.monomial(n, exps, (1, 2), -3), mul_mu(nf, 1, 2).scale(-3)
    assert normal_form(term, n) == want
    packed = nf_layout(n, 2)
    assert packed.unpack(coinv.reduce_packed(packed.pack(term, n * (n - 1) // 2), packed)) == want


def _check_closed_form(n: int, exps) -> None:
    """The closed forms answer x^exps exactly when an exponent is >= n or
    the degree is the top, and then as the tuple rewrite does."""
    closed = coinv._closed_form(_x_part(exps, n), n)
    assert (closed is not None) == (any(e >= n for e in exps) or sum(exps) == n * (n - 1) // 2)
    if closed is not None:
        assert nf_layout(n, 0).unpack(dict(closed)) == rewrite_normal_form(Poly.monomial(n, exps), n)


def test_closed_forms_match_the_tuple_rewrite_up_to_rank_5():
    # every monomial of degree <= top at ranks 0-5, 3,238 of them
    for n in range(6):
        top = n * (n - 1) // 2
        for exps in itertools.product(range(top + 1), repeat=n):
            if sum(exps) <= top:
                _check_closed_form(n, exps)
    # the empty product at rank 0 and x_1^0 at rank 1 are their own normal forms
    assert normal_form(constant(0, 2), 0) == constant(0, 2)
    assert normal_form(constant(1, 2), 1) == constant(1, 2)


@st.composite
def closed_form_monomials(draw):
    """A monomial of rank 6 or 7 that a closed form answers: a top-degree
    permutation of delta with a few units moved between variables below n,
    or x_i^n times further units.  The tuple rewrite's closures grow fast
    with the degree at rank 7 (x_7^10 takes about 3 s), so there the
    second kind stays within degree n + 1."""
    n = draw(st.sampled_from((6, 7)))
    if draw(st.booleans()):
        exps = list(draw(st.permutations(range(n))))
        moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for i, j in draw(st.lists(moves, max_size=3)):
            if i != j and exps[i] and exps[j] < n - 1:
                exps[i], exps[j] = exps[i] - 1, exps[j] + 1
    else:
        extra = 1 if n == 7 else n * (n - 1) // 2 - n
        exps = draw(st.lists(st.integers(0, n - 1), max_size=extra).map(
            lambda vs: [vs.count(v) for v in range(n)]))
        exps[draw(st.integers(0, n - 1))] += n
    return n, tuple(exps)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(closed_form_monomials())
def test_closed_forms_match_the_tuple_rewrite_at_ranks_6_and_7(case):
    _check_closed_form(*case)


@st.composite
def polys_at_the_mu_field_edge(draw):
    """Up to four terms at rank 1-6, of x-degree up to top + 2, with mu
    exponents on both sides of the width of top, the least the mu fields
    of reduce_polys get."""
    n = draw(st.integers(1, 6))
    top = n * (n - 1) // 2
    edge = 1 << top.bit_length()
    exps = st.lists(st.integers(0, n - 1), max_size=top + 2).map(
        lambda vs: tuple(map(vs.count, range(n))))
    mu = st.sampled_from((0, 1, edge - 1, edge, 2 * edge + 1))
    terms = st.dictionaries(st.tuples(exps, st.tuples(mu, mu)), st.integers(-5, 5), max_size=4)
    return n, Poly(n, draw(terms))


@PROPERTY
@given(polys_at_the_mu_field_edge())
@example((1, Poly.zero(1)))
@example((6, Poly.zero(6)))
def test_packed_normal_form_matches_the_tuple_rewrite(case):
    n, f = case
    layout, (terms,) = reduce_polys([f], n)
    assert layout.unpack(terms) == rewrite_normal_form(f, n)


@PROPERTY
@given(poly_pairs())
def test_tuple_rewrite_matches_linear_algebra(case):
    # the reference rewrite against the reference linear algebra, n <= 3
    n, f, g = case
    assert rewrite_normal_form(f + g, n) == nf_linear_oracle(f + g, n)


def test_mu_exponents_pass_through_and_must_fit_their_fields():
    # an m1 exponent of 2^40 rides along the rewrite; packed, it needs a 41-bit field
    f = Poly.monomial(3, (1, 2, 0), (1 << 40, 3)) + Poly.monomial(3, (0, 2, 1), (0, 1))
    assert normal_form(f, 3) == rewrite_normal_form(f, 3)
    layout = nf_layout(3, 1 << 40)
    assert layout.unpack(coinv.reduce_packed(layout.pack(f, 3), layout)) == normal_form(f, 3)
    with pytest.raises(PolyError):
        nf_layout(3, (1 << 40) - 1).pack(f, 3)


@st.composite
def integer_systems(draw):
    """Columns and a nonzero target, keyed by row, for expand_packed at
    degree gap 0 (one unknown per column): sparse or dense, tall, square or
    one column wider, with negative entries, and on purpose a column that
    is a combination of two others, a column scaled so the solution is not
    integral, and a target moved off the span."""
    nrows = draw(st.integers(1, 9))
    ncols = draw(st.integers(1, nrows + 1))
    if draw(st.booleans()):  # sparse: about one entry in four
        entry = st.integers(-12, 12).map(lambda v: v if abs(v) <= 3 else 0)
    else:
        entry = st.integers(-9, 9).filter(bool)
    cols = [[draw(entry) for _ in range(nrows)] for _ in range(ncols)]
    for col in cols:  # expand_packed rejects a zero column before eliminating
        if not any(col):
            col[draw(st.integers(0, nrows - 1))] = draw(st.sampled_from((-2, -1, 1, 3)))
    if ncols > 1 and draw(st.booleans()):
        k, i = draw(st.permutations(range(ncols)))[:2]
        j = draw(st.integers(0, ncols - 1).filter(lambda j: j != k))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        dependent = [a * u + b * v for u, v in zip(cols[i], cols[j])]
        if any(dependent):
            cols[k] = dependent
    x = [draw(st.integers(-4, 4)) for _ in range(ncols)]
    target = [sum(xj * col[r] for xj, col in zip(x, cols)) for r in range(nrows)]
    scale = draw(st.sampled_from((1, 1, 2, -3)))
    j = draw(st.integers(0, ncols - 1))
    cols[j] = [scale * v for v in cols[j]]  # solves with x_j / scale
    if draw(st.booleans()):
        target[draw(st.integers(0, nrows - 1))] += draw(st.integers(-2, 2))
    target = {r: v for r, v in enumerate(target) if v}
    assume(target)
    return [{r: v for r, v in enumerate(col) if v} for col in cols], target


@settings(PROPERTY, max_examples=500)
@given(integer_systems())
@example(([{0: -2}], {0: 1}))
@example(([{0: 1, 1: 2}, {0: 2, 1: 4}], {0: 1, 1: 3}))
def test_sparse_expansion_matches_dense_bareiss(system):
    # the solution, or the error kind and message, of the dense solve
    columns, target = system
    layout = nf_layout(3, 0)
    try:
        want = bareiss_solve(columns, target)
    except (NotInSpanError, BasisDependenceError) as exc:
        with pytest.raises(ValueError) as got:
            coinv.expand_packed(layout, target, 0, columns, [0] * len(columns))
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        _, coeffs = coinv.expand_packed(layout, target, 0, columns, [0] * len(columns))
        assert [c.get(0, 0) for c in coeffs] == want
        assert all(set(c) <= {0} for c in coeffs)
