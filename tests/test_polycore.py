"""Core polynomial arithmetic against naive oracles and pinned examples."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubfgl import polycore
from schubfgl.polycore import (
    DivisionFailure,
    GradedLayout,
    Poly,
    PolyError,
    packed_json_obj,
    packed_json_text,
    render_packed,
    short_product,
    term_order,
)
from schubfgl.ddo import random_poly
from schubfgl.fgl import FglSpec

from oracles import (
    constant,
    inject_vars,
    mul_mu,
    naive_mul,
    reference_json_obj,
    reference_render_text,
    sample_poly,
    series_invert_unit,
    specialize,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def test_add_inverse_and_merge():
    x1 = Poly.variable(2, 1)
    assert not x1 + (-x1)
    f = x1 + Poly.monomial(2, (0, 1), (1, 0))
    g = Poly.variable(2, 2)
    total = f + g
    assert total.terms.get(((0, 1), (0, 0)), 0) == 1
    assert total.terms.get(((0, 1), (1, 0)), 0) == 1
    assert total.terms.get(((1, 0), (0, 0)), 0) == 1


def test_mul_pinned():
    # (x_1 - x_2)(1 - m2 x_1 x_2)
    f = Poly.variable(4, 1) - Poly.variable(4, 2)
    g = constant(4, 1) - Poly.monomial(4, (1, 1, 0, 0), (0, 1))
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
    # n = 0 is the constant polynomials of expand_in_basis, n = 5 and 6
    # the Vandermonde ranks
    n = draw(st.integers(0, 6))
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
    n = draw(st.integers(0, 6))
    term = st.tuples(
        st.tuples(*[st.integers(0, 3)] * n), st.tuples(st.integers(0, 1), st.integers(0, 1))
    )
    f = Poly(n, draw(st.dictionaries(term, st.integers(-3, 3), max_size=8)))
    g = Poly(n, draw(st.dictionaries(term, st.integers(-3, 3), max_size=3)))
    return f, g, draw(st.integers(-2, 8 * n))


def _short(f: Poly, g: Poly, cap: int) -> Poly:
    """f * g through x-degree cap by the packed short product, in the
    narrowest GradedLayout: x fields just wide enough for cap, mu fields
    for the largest sum of two mu exponents."""
    mu_top = sum(max((max(mu) for _e, mu in h.terms), default=0) for h in (f, g))
    layout = GradedLayout(f.nvars, max(cap, 0).bit_length(), mu_top.bit_length())
    limit = (cap + 1) << layout.deg_shift
    return layout.unpack(short_product(layout.pack(f, cap), layout.pack(g, cap), limit))


@PROPERTY
@given(truncated_products())
def test_short_product_is_truncated_product(case):
    f, g, cap = case
    full = naive_mul(f, g)
    # either operand may be the sorted one
    assert _short(f, g, cap) == _short(g, f, cap) == full.truncate(cap)
    degrees = [sum(exps) for exps, _ in full.terms]
    # a cap at the top degree keeps the whole product, one below every degree none of it
    assert _short(f, g, max(degrees, default=0)) == full
    assert not _short(f, g, min(degrees, default=0) - 1)
    zero = Poly.zero(f.nvars)
    assert not _short(f, zero, cap) and not _short(zero, g, cap)


def test_short_product_pinned_and_at_the_field_edge():
    # (1 + x_1 + x_1 x_2)(1 - x_2) through degree 1; x_1 x_2 - x_1 x_2 cancels at degree 2
    f = constant(2, 1) + Poly.variable(2, 1) + Poly.monomial(2, (1, 1))
    g = constant(2, 1) - Poly.variable(2, 2)
    assert _short(f, g, 1) == _short(f, g, 2) == constant(2, 1) + Poly.variable(2, 1) - Poly.variable(2, 2)
    assert _short(f, g, 3) == f * g
    # cap 3 in 2-bit x fields and 1-bit mu fields: x_1^3 fills its field,
    # and the degree-4 pairs carry out of theirs (x_1^2 x_1^2 with m1 m2,
    # x_2^3 x_1) yet stay at or above the limit
    layout = GradedLayout(2, 2, 1)
    f = Poly.variable(2, 1) + Poly.monomial(2, (2, 0), (1, 0)) + Poly.monomial(2, (0, 3))
    g = Poly.monomial(2, (2, 0), (0, 1)) + Poly.monomial(2, (1, 0))
    got = short_product(layout.pack(f, 3), layout.pack(g, 3), 4 << layout.deg_shift)
    terms = (((2, 0), (0, 0)), ((3, 0), (0, 1)), ((3, 0), (1, 0)))
    assert layout.unpack(got) == naive_mul(f, g).truncate(3) == sum(
        (Poly.monomial(2, e, mu) for e, mu in terms), Poly.zero(2))
    # int order is term order: x-degree, then x_2, x_1, then m1, m2
    assert sorted(got) == [layout.pack(Poly.monomial(2, e, mu), 3).popitem()[0] for e, mu in terms]
    with pytest.raises(PolyError):
        layout.pack(f, 4)  # 4 does not fit a 2-bit field
    with pytest.raises(PolyError):
        layout.pack(Poly.monomial(2, (1, 0), (2, 0)), 3)  # m1^2 does not fit a 1-bit field
    with pytest.raises(PolyError):
        layout.pack(Poly.variable(3, 1), 3)


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
    assert (x1 - x2).div_diff(1) == constant(2, 1)
    assert (x1 * x1 - x2 * x2).div_diff(1) == x1 + x2
    base = x1 * x2 * (constant(2, 1) - Poly.monomial(2, (1, 1), (0, 1)))
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
        constant(2, 1).div_diff(1)


def test_series_invert_unit_pinned():
    f = constant(1, 1) - Poly.monomial(1, (1,), (1, 0))
    inv = series_invert_unit(f, 3)
    expected = (
        constant(1, 1)
        + Poly.monomial(1, (1,), (1, 0))
        + Poly.monomial(1, (2,), (2, 0))
        + Poly.monomial(1, (3,), (3, 0))
    )
    assert inv == expected
    assert series_invert_unit(constant(3, 1), 5) == constant(3, 1)
    g = constant(2, 1) - Poly.monomial(2, (0, 1), (1, 0)) - Poly.monomial(2, (1, 1), (0, 1))
    expected2 = (
        constant(2, 1)
        + Poly.monomial(2, (0, 1), (1, 0))
        + Poly.monomial(2, (0, 2), (2, 0))
        + Poly.monomial(2, (1, 1), (0, 1))
    )
    assert series_invert_unit(g, 2) == expected2


def test_series_invert_unit_random_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        tail = sample_poly(rng, 2, terms=3).truncate(3)
        # strip the x-degree-0 slice so the constant term is exactly a unit
        tail = Poly(2, {k: c for k, c in tail.terms.items() if sum(k[0]) > 0})
        f = constant(2, rng.choice((1, -1))) + tail
        inv = series_invert_unit(f, 6)
        assert (f * inv).truncate(6) == constant(2, 1)
    with pytest.raises(PolyError):
        series_invert_unit(Poly.variable(2, 1), 4)


def test_graded_degree():
    assert Poly.monomial(4, (2, 2, 0, 0)).graded_degree() == (True, 4)
    # 1 - m2 (x_1 + x_2)^2 + m1^2 m2 x_1^2 x_2^2 is homogeneous of degree 0
    s = constant(4, 1)
    xsum = Poly.variable(4, 1) + Poly.variable(4, 2)
    s = s - mul_mu(xsum * xsum, 0, 1) + Poly.monomial(4, (2, 2, 0, 0), (2, 1))
    assert s.graded_degree() == (True, 0)
    assert (Poly.variable(2, 1) + constant(2, 1, (1, 0))).graded_degree() == (False, None)
    assert Poly.zero(3).graded_degree()[0] is True


def test_homogeneity_preserved_by_mul_and_sigma():
    rng = random.Random(3)
    for _ in range(20):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        f = Poly.monomial(3, (d1, 0, 0)) + Poly.monomial(3, (0, d1, 0), (0, 0))
        g = Poly.monomial(3, (0, d2, 0)) - Poly.monomial(3, (d2, 0, 0))
        hom, deg = (f * g).graded_degree()
        assert hom and (deg == d1 + d2 or not f * g)
        assert f.sigma(1).graded_degree() == f.graded_degree()


def test_truncate_idempotent():
    rng = random.Random(17)
    for _ in range(15):
        f = sample_poly(rng, 3, terms=6, max_total_deg=6)
        cap = rng.randint(0, 5)
        assert f.truncate(cap).truncate(cap) == f.truncate(cap)
        assert all(sum(xe) <= cap for (xe, _m) in f.truncate(cap).terms)


@st.composite
def placements(draw):
    """(f in 1-3 variables, distinct targets among n, n, cap or None)."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, min(3, n)))
    at = tuple(draw(st.permutations(range(1, n + 1)))[:m])
    term = st.tuples(st.tuples(*[st.integers(0, 5)] * m), st.tuples(st.integers(0, 3), st.integers(0, 3)))
    f = Poly(m, draw(st.dictionaries(term, st.integers(-4, 4), max_size=6)))
    return f, at, n, draw(st.none() | st.integers(0, 7))


X1X2 = Poly.monomial(2, (1, 1))


@PROPERTY
@given(placements())
@example((X1X2, (3, 4), 4, None))
@example((X1X2, (1, 2), 3, None))
@example((X1X2, (2, 1), 3, 1))
# a polynomial in no variables, such as the kernel constant, is placed by ()
@example((constant(0, 2, (1, 0)), (), 3, None))
def test_pack_at_places_like_the_relabel_oracle(case):
    f, at, n, cap = case
    # 3-bit x fields hold every exponent and cap drawn, 2-bit mu fields every mu
    layout = GradedLayout(n, 3, 2)
    assert layout.pack(f, cap, at) == layout.pack(inject_vars(f, n, at), cap)


def test_pack_at_pinned_and_rejected():
    layout = GradedLayout(4, 2, 1)
    assert layout.pack(X1X2, at=(3, 4)) == layout.pack(Poly.monomial(4, (0, 0, 1, 1)))
    assert layout.pack(constant(0, 1), at=()) == layout.pack(constant(4, 1)) == {0: 1}
    # a repeated target, one out of range, the wrong count
    for at in ((2, 2), (0, 1), (4, 5), (1,), (1, 2, 3)):
        with pytest.raises(PolyError):
            layout.pack(X1X2, at=at)
    # an exponent, a cap or an m1 exponent above its field
    with pytest.raises(PolyError):
        layout.pack(Poly.monomial(2, (4, 0)), at=(1, 2))
    with pytest.raises(PolyError):
        layout.pack(X1X2, 4, (1, 2))
    with pytest.raises(PolyError):
        layout.pack(Poly.monomial(2, (1, 0), (2, 0)), at=(1, 2))


def test_text_roundtrip_and_canonical_order():
    rng = random.Random(23)
    for _ in range(25):
        f = sample_poly(rng, 4, terms=6)
        assert Poly.parse_text(f.render_text(), 4) == f
        assert f.render_text() == f.render_text()
    sample = Poly.monomial(4, (2, 2, 0, 0), (2, 1), -1)
    assert sample.render_text() == "-1*m1^2*m2^1*x[2,2,0,0]"


def test_json_roundtrip():
    rng = random.Random(29)
    for _ in range(25):
        f = sample_poly(rng, 3, terms=6)
        assert Poly.from_json(f.to_json()) == f
    big = constant(2, 10**30)
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
@given(printable_polys(), st.integers(0, 40), st.integers(0, 40))
@example(Poly.zero(0), 0, 0)
@example(Poly.zero(5), 3, 0)
@example(Poly.monomial(2, (3, 1), (1, 2), -5) + Poly.monomial(2, (0, 4)), 0, 7)
def test_printer_matches_tuple_key_reference(f, extra_x, extra_mu):
    text, obj = reference_render_text(f), reference_json_obj(f)
    assert f.render_text() == text
    assert f.to_json_obj() == obj
    # a class printed straight from the engine's keys sits in a wider
    # layout, whose x and mu fields may widen apart (word_class_layout)
    fit = GradedLayout.fit(f, 0)
    layout = GradedLayout(f.nvars, fit.xwidth + extra_x, fit.muwidth + extra_mu)
    keys, coeffs = term_order(layout.pack(f))
    assert render_packed(layout, keys, coeffs) == text
    assert packed_json_obj(layout, keys, coeffs) == obj
    assert packed_json_text(layout, keys, coeffs) == json.dumps(obj, sort_keys=True, indent=2)
    assert Poly.parse_text(text, f.nvars) == f
    assert Poly.from_json(f.to_json()) == f


def test_printer_memos_stay_bounded_and_correct(monkeypatch):
    # the memos are kept per layout and stop storing when full: two layouts
    # at one rank share no entry, and a key past the bound is built anew
    bound = 8
    monkeypatch.setattr(polycore, "_KEY_MEMO_MAX", bound)
    polycore._key_memos.cache_clear()
    polycore._json_memos.cache_clear()
    sizes = []
    missing = polycore._KeyMemo.__missing__

    def recording(memo, key):
        value = missing(memo, key)
        sizes.append(len(memo))
        return value

    monkeypatch.setattr(polycore._KeyMemo, "__missing__", recording)
    rng = random.Random(31)
    for _ in range(30):
        f = sample_poly(rng, 3, terms=12, max_total_deg=5, max_mu=2)
        for layout in (GradedLayout(3, 3, 3), GradedLayout(3, 5, 2)):
            keys, coeffs = term_order(layout.pack(f))
            assert render_packed(layout, keys, coeffs) == reference_render_text(f)
            assert packed_json_obj(layout, keys, coeffs) == reference_json_obj(f)
            assert packed_json_text(layout, keys, coeffs) == json.dumps(
                reference_json_obj(f), sort_keys=True, indent=2)
    assert sizes and max(sizes) == bound  # the bound was reached, never passed


def test_printer_memo_past_its_bound_builds_only_the_overflow(monkeypatch):
    # a class with more distinct keys than the bound prints again building
    # only the keys past the bound, in text and in JSON (one mu part, so the
    # JSON x memo sees every key)
    bound, size = 8, 20
    monkeypatch.setattr(polycore, "_KEY_MEMO_MAX", bound)
    polycore._key_memos.cache_clear()
    polycore._json_memos.cache_clear()
    built = []
    missing = polycore._KeyMemo.__missing__

    def recording(memo, key):
        built.append(key)
        return missing(memo, key)

    monkeypatch.setattr(polycore._KeyMemo, "__missing__", recording)
    f = Poly(1, {((e,), (0, 0)): e + 1 for e in range(size)})
    packed = f.packed()
    for write in (render_packed, packed_json_text):
        first = write(*packed)
        del built[:]
        assert write(*packed) == first
        assert len(built) <= size - bound


def test_bool_and_non_int_input_rejected():
    key = ((1, 0), (0, 0))
    for nvars, terms in ((True, {}), (2, {key: True}), (2, {((True, 0), (0, 0)): 1}),
                         (2, {(("1", 0), (0, 0)): 1}), (2, {key: 1.0})):
        with pytest.raises(PolyError):
            Poly(nvars, terms)
    # the exponent checks: a bool or a negative in the x or mu part
    for exps, mu in (((True, 0), (0, 0)), ((1, 0), (True, 0)), ((1, 0), (0, True)),
                     ((1, -1), (0, 0)), ((1, 0), (-1, 0)), ((1, 0), (0, -2)), ((1, "1"), (0, 0))):
        with pytest.raises(PolyError, match=r"^exponents must be non-negative ints: "):
            Poly(2, {(exps, mu): 1})
    # int subclasses other than bool are exponents
    exponent = type("Exponent", (int,), {})
    assert Poly(2, {((exponent(1), 0), (0, exponent(2))): 3}) == Poly.monomial(2, (1, 0), (0, 2), 3)
    for c in ("1.5", "x", " 1", True, None):
        with pytest.raises(PolyError):
            Poly.from_json_obj({"nvars": 2, "terms": [{"x": [1, 0], "mu": [0, 0], "c": c}]})


def test_specialize_mu():
    f = Poly.monomial(2, (1, 1), (1, 1)) + Poly.variable(2, 1)
    g = specialize(FglSpec("hyperbolic", mu1=2), f)
    assert g.terms.get(((1, 1), (0, 1)), 0) == 2
    assert specialize(FglSpec("hyperbolic", 0, 0), f) == Poly.variable(2, 1)
