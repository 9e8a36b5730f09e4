"""Core polynomial arithmetic against naive oracles and pinned examples."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubfgl import polycore
from schubfgl.polycore import (
    DivisionFailure,
    PackedLayout,
    Poly,
    PolyError,
    packed_json_obj,
    render_packed,
    series_invert_unit,
)
from schubfgl.ddo import random_poly

from oracles import naive_mul, reference_json_obj, reference_render_text

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def test_add_inverse_and_merge():
    x1 = Poly.variable(2, 1)
    assert (x1 + (-x1)).is_zero
    f = x1 + Poly.monomial(2, (0, 1), (1, 0))
    g = Poly.variable(2, 2)
    total = f + g
    assert total.coefficient((0, 1)) == 1
    assert total.coefficient((0, 1), (1, 0)) == 1
    assert total.coefficient((1, 0)) == 1


def test_mul_pinned():
    # (x_1 - x_2)(1 - m2 x_1 x_2)
    f = Poly.variable(4, 1) - Poly.variable(4, 2)
    g = Poly.one(4) - Poly.monomial(4, (1, 1, 0, 0), (0, 1))
    prod = f * g
    expected = (
        Poly.variable(4, 1)
        - Poly.variable(4, 2)
        - Poly.monomial(4, (2, 1, 0, 0), (0, 1))
        + Poly.monomial(4, (1, 2, 0, 0), (0, 1))
    )
    assert prod == expected
    assert Poly.zero(4) * g == Poly.zero(4)


@st.composite
def poly_triples(draw):
    n = draw(st.integers(0, 4))
    term = st.tuples(
        st.tuples(*[st.integers(0, 3)] * n), st.tuples(st.integers(0, 2), st.integers(0, 2))
    )
    polys = st.dictionaries(term, st.integers(-4, 4), max_size=5).map(lambda t: Poly(n, t))
    return draw(polys), draw(polys), draw(polys)


@PROPERTY
@given(poly_triples())
def test_ring_axioms_against_naive_mul(triple):
    f, g, h = triple
    assert f * g == naive_mul(f, g)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@st.composite
def truncated_products(draw):
    n = draw(st.integers(1, 4))
    term = st.tuples(
        st.tuples(*[st.integers(0, 3)] * n), st.tuples(st.integers(0, 1), st.integers(0, 1))
    )
    f = Poly(n, draw(st.dictionaries(term, st.integers(-3, 3), max_size=8)))
    g = Poly(n, draw(st.dictionaries(term, st.integers(-3, 3), max_size=3)))
    return f, g, draw(st.integers(-2, 8 * n))


@PROPERTY
@given(truncated_products())
def test_mul_truncated_is_truncated_product(case):
    f, g, cap = case
    full = naive_mul(f, g)
    # either operand may be the larger one
    assert f.mul_truncated(g, cap) == (f * g).truncate(cap) == full.truncate(cap)
    assert g.mul_truncated(f, cap) == full.truncate(cap)
    degrees = [sum(exps) for exps, _ in full.terms]
    # a cap above every degree keeps the whole product, one below every degree none of it
    assert f.mul_truncated(g, max(degrees, default=0)) == full
    assert f.mul_truncated(g, min(degrees, default=0) - 1).is_zero
    zero = Poly.zero(f.nvars)
    assert f.mul_truncated(zero, cap).is_zero and zero.mul_truncated(g, cap).is_zero


def test_mul_truncated_pinned_and_nvars_mismatch():
    # (1 + x_1 + x_1 x_2)(1 - x_2) through degree 1; x_1 x_2 - x_1 x_2 cancels at degree 2
    f = Poly.one(2) + Poly.variable(2, 1) + Poly.monomial(2, (1, 1))
    g = Poly.one(2) - Poly.variable(2, 2)
    assert f.mul_truncated(g, 1) == Poly.one(2) + Poly.variable(2, 1) - Poly.variable(2, 2)
    assert f.mul_truncated(g, 2) == Poly.one(2) + Poly.variable(2, 1) - Poly.variable(2, 2)
    assert f.mul_truncated(g, 3) == f * g
    with pytest.raises(PolyError):
        Poly.variable(2, 1).mul_truncated(Poly.variable(3, 1), 5)


def test_nvars_mismatch_rejected():
    with pytest.raises(PolyError):
        Poly.variable(2, 1) + Poly.variable(3, 1)
    with pytest.raises(PolyError):
        Poly.variable(2, 1) * Poly.variable(3, 1)


def test_sigma_involution_and_homomorphism():
    rng = random.Random(5)
    for _ in range(25):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        i = rng.randint(1, 2)
        assert f.sigma(i).sigma(i) == f
        assert (f * g).sigma(i) == f.sigma(i) * g.sigma(i)
        assert (f + g).sigma(i) == f.sigma(i) + g.sigma(i)
    assert Poly.variable(3, 1).sigma(2) == Poly.variable(3, 1)
    assert Poly.monomial(3, (2, 1, 0)).sigma(2) == Poly.monomial(3, (2, 0, 1))


def test_div_diff_pinned_and_multiply_back():
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    assert (x1 - x2).div_diff(1) == Poly.one(2)
    assert (x1 * x1 - x2 * x2).div_diff(1) == x1 + x2
    base = x1 * x2 * (Poly.one(2) - Poly.monomial(2, (1, 1), (0, 1)))
    f = base * (x1 - x2)
    assert f.div_diff(1) == base
    rng = random.Random(7)
    for _ in range(30):
        g = random_poly(rng, 3)
        i = rng.randint(1, 2)
        anti = g - g.sigma(i)
        q = anti.div_diff(i)
        assert q * (Poly.variable(3, i) - Poly.variable(3, i + 1)) == anti


def test_div_diff_failure_on_remainder():
    with pytest.raises(DivisionFailure):
        Poly.one(2).div_diff(1)


def test_series_invert_unit_pinned():
    f = Poly.one(1) - Poly.monomial(1, (1,), (1, 0))
    inv = series_invert_unit(f, 3)
    expected = (
        Poly.one(1)
        + Poly.monomial(1, (1,), (1, 0))
        + Poly.monomial(1, (2,), (2, 0))
        + Poly.monomial(1, (3,), (3, 0))
    )
    assert inv == expected
    assert series_invert_unit(Poly.one(3), 5) == Poly.one(3)
    g = Poly.one(2) - Poly.monomial(2, (0, 1), (1, 0)) - Poly.monomial(2, (1, 1), (0, 1))
    expected2 = (
        Poly.one(2)
        + Poly.monomial(2, (0, 1), (1, 0))
        + Poly.monomial(2, (0, 2), (2, 0))
        + Poly.monomial(2, (1, 1), (0, 1))
    )
    assert series_invert_unit(g, 2) == expected2


def test_series_invert_unit_random_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        tail = random_poly(rng, 2, terms=3).truncate(3)
        # strip the x-degree-0 slice so the constant term is exactly a unit
        tail = Poly(2, {k: c for k, c in tail.terms.items() if sum(k[0]) > 0})
        f = Poly.const(2, rng.choice((1, -1))) + tail
        inv = series_invert_unit(f, 6)
        assert (f * inv).truncate(6) == Poly.one(2)
    with pytest.raises(PolyError):
        series_invert_unit(Poly.variable(2, 1), 4)


def test_graded_degree():
    assert Poly.monomial(4, (2, 2, 0, 0)).graded_degree() == (True, 4)
    # 1 - m2 (x_1 + x_2)^2 + m1^2 m2 x_1^2 x_2^2 is homogeneous of degree 0
    s = Poly.one(4)
    xsum = Poly.variable(4, 1) + Poly.variable(4, 2)
    s = s - (xsum * xsum).mul_mu(0, 1) + Poly.monomial(4, (2, 2, 0, 0), (2, 1))
    assert s.graded_degree() == (True, 0)
    assert (Poly.variable(2, 1) + Poly.const(2, 1, (1, 0))).graded_degree() == (False, None)
    assert Poly.zero(3).graded_degree()[0] is True


def test_homogeneity_preserved_by_mul_and_sigma():
    rng = random.Random(3)
    for _ in range(20):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        f = Poly.monomial(3, (d1, 0, 0)) + Poly.monomial(3, (0, d1, 0), (0, 0))
        g = Poly.monomial(3, (0, d2, 0)) - Poly.monomial(3, (d2, 0, 0))
        hom, deg = (f * g).graded_degree()
        assert hom and (deg == d1 + d2 or (f * g).is_zero)
        assert f.sigma(1).graded_degree() == f.graded_degree()


def test_truncate_idempotent():
    rng = random.Random(17)
    for _ in range(15):
        f = random_poly(rng, 3, terms=6, max_total_deg=6)
        cap = rng.randint(0, 5)
        assert f.truncate(cap).truncate(cap) == f.truncate(cap)
        assert all(sum(xe) <= cap for (xe, _m) in f.truncate(cap).terms)


def test_inject_and_extend_vars():
    f = Poly.variable(2, 1) * Poly.variable(2, 2)
    g = f.inject_vars(4, (3, 4))
    assert g == Poly.monomial(4, (0, 0, 1, 1))
    assert f.inject_vars(3, (1, 2)).nvars == 3
    assert f.inject_vars(3, (1, 2)).coefficient((1, 1, 0)) == 1
    # a polynomial in no variables, such as the kernel constant, extends by ()
    assert Poly.const(0, 2, (1, 0)).inject_vars(3, ()) == Poly.const(3, 2, (1, 0))


def test_text_roundtrip_and_canonical_order():
    rng = random.Random(23)
    for _ in range(25):
        f = random_poly(rng, 4, terms=6)
        assert Poly.parse_text(f.render_text(), 4) == f
        assert f.render_text() == f.render_text()
    sample = Poly.monomial(4, (2, 2, 0, 0), (2, 1), -1)
    assert sample.render_text() == "-1*m1^2*m2^1*x[2,2,0,0]"


def test_json_roundtrip():
    rng = random.Random(29)
    for _ in range(25):
        f = random_poly(rng, 3, terms=6)
        assert Poly.from_json(f.to_json()) == f
    big = Poly.const(2, 10**30)
    obj = big.to_json_obj()
    assert obj["terms"][0]["c"] == str(10**30)
    assert Poly.from_json_obj(obj) == big


# exponents small enough to collide in every field, and the largest and
# smallest values of field widths from 1 to 70 bits
EXPONENTS = st.one_of(
    st.integers(0, 4), st.integers(1, 70).flatmap(lambda k: st.sampled_from((2**k - 1, 2**k)))
)


@st.composite
def printable_polys(draw):
    n = draw(st.integers(0, 6))
    term = st.tuples(st.tuples(*[EXPONENTS] * n), st.tuples(EXPONENTS, EXPONENTS))
    return Poly(n, draw(st.dictionaries(term, st.integers(-10**30, 10**30), max_size=12)))


@PROPERTY
@given(printable_polys(), st.integers(0, 40))
@example(Poly.zero(0), 0)
@example(Poly.zero(5), 3)
def test_printer_matches_tuple_key_reference(f, extra_width):
    text, obj = reference_render_text(f), reference_json_obj(f)
    assert f.render_text() == text
    assert f.to_json_obj() == obj
    # a class printed straight from the engine's keys sits in a wider layout
    layout = PackedLayout(f.nvars, PackedLayout.fit(f, 0).width + extra_width)
    assert render_packed(layout, layout.pack(f)) == text
    assert packed_json_obj(layout, layout.pack(f)) == obj
    assert Poly.parse_text(text, f.nvars) == f
    assert Poly.from_json(f.to_json()) == f


def test_printer_memos_stay_bounded_and_correct(monkeypatch):
    # the memos are kept per layout and emptied when full: two widths at
    # one rank share no entry, and a key seen again after a clear is rebuilt
    bound = 8
    monkeypatch.setattr(polycore, "_KEY_MEMO_MAX", bound)
    polycore._key_memos.cache_clear()
    sizes = []
    missing = polycore._KeyMemo.__missing__

    def recording(memo, key):
        value = missing(memo, key)
        sizes.append(len(memo))
        return value

    monkeypatch.setattr(polycore._KeyMemo, "__missing__", recording)
    rng = random.Random(31)
    for _ in range(30):
        f = random_poly(rng, 3, terms=12, max_total_deg=5, max_mu=2)
        for width in (3, 5):
            layout = PackedLayout(3, width)
            assert render_packed(layout, layout.pack(f)) == reference_render_text(f)
            assert packed_json_obj(layout, layout.pack(f)) == reference_json_obj(f)
    assert sizes and max(sizes) == bound  # the bound was reached, never passed


def test_bool_and_non_int_input_rejected():
    key = ((1, 0), (0, 0))
    for nvars, terms in ((True, {}), (2, {key: True}), (2, {((True, 0), (0, 0)): 1}),
                         (2, {(("1", 0), (0, 0)): 1}), (2, {key: 1.0})):
        with pytest.raises(PolyError):
            Poly(nvars, terms)
    for c in ("1.5", "x", " 1", True, None):
        with pytest.raises(PolyError):
            Poly.from_json_obj({"nvars": 2, "terms": [{"x": [1, 0], "mu": [0, 0], "c": c}]})


def test_specialize_mu():
    f = Poly.monomial(2, (1, 1), (1, 1)) + Poly.variable(2, 1)
    g = f.specialize_mu(mu1=2)
    assert g.coefficient((1, 1), (0, 1)) == 2
    assert f.specialize_mu(mu1=0, mu2=0) == Poly.variable(2, 1)
