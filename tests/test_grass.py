"""Grassmannian product rule and the Gr(2,4) dictionary."""

import pytest

import schubfgl.grass as grass
from schubfgl.coinv import BasisDependenceError, equals_mod_s, normal_form
from schubfgl.combi import BoxPartition, CapacityError, box_partitions
from schubfgl.fgl import ADDITIVE, HYPERBOLIC, LORENTZ, MULTIPLICATIVE
from schubfgl.grass import (
    GR24_ORDER,
    GrassContext,
    RectangleClass,
    all_rectangles,
    chow_k_cross_check,
    class_representative,
    cross_check_gr24,
    dual_root_monomial,
    gr24_basis,
    gr24_smooth_poly,
    gr24_word,
    _gr24_classes,
    _rule_cross_check,
    rect_dual,
    smooth_product,
)
from schubfgl.polycore import Poly
from schubfgl.ddo import OperatorContext
from schubfgl.schubert import schubert_polynomial

from oracles import expansion_rule_cross_check


def _bp(*parts: int) -> BoxPartition:
    return BoxPartition(2, 2, parts)


def test_rect_dual():
    assert rect_dual(RectangleClass(1, 1), 2, 4).parts == (2, 1)
    assert rect_dual(RectangleClass(1, 2), 2, 4).parts == (2, 0)
    assert rect_dual(RectangleClass(2, 1), 2, 4).parts == (1, 1)
    assert rect_dual(RectangleClass(2, 2), 2, 4).parts == (0, 0)
    assert rect_dual(RectangleClass(1, 3), 3, 6).parts == (3, 3, 0)


def test_smooth_product_examples():
    ctx = GrassContext(2, 4, HYPERBOLIC)
    r = RectangleClass(1, 1)
    assert smooth_product(ctx, r, _bp(2, 1)).parts == (0, 0)
    assert smooth_product(ctx, r, _bp(2, 0)) is None
    # multiplying the fundamental class recovers the rectangle's own
    # Schubert class: dim 1 for the 1x1 rectangle, (2,0) for 1x2
    assert smooth_product(ctx, r, _bp(2, 2)).parts == (1, 0)
    assert smooth_product(ctx, RectangleClass(1, 2), _bp(2, 2)).parts == (2, 0)


def test_smooth_product_point_rectangle_is_identity():
    # the full box rectangle multiplies as the unit
    ctx = GrassContext(2, 4, HYPERBOLIC)
    full = RectangleClass(2, 2)
    for lam in box_partitions(2, 2):
        assert smooth_product(ctx, full, lam).parts == lam.parts


def test_smooth_product_weight_drop():
    ctx = GrassContext(2, 5, HYPERBOLIC)
    for r in all_rectangles(2, 5):
        codim = 2 * 3 - r.a * r.b
        for lam in box_partitions(2, 3):
            out = smooth_product(ctx, r, lam)
            if out is not None:
                assert out.size() == lam.size() - codim


def test_validation_errors():
    with pytest.raises(ValueError):
        GrassContext(0, 4, HYPERBOLIC)
    with pytest.raises(ValueError):
        GrassContext(4, 4, HYPERBOLIC)
    with pytest.raises(ValueError):
        RectangleClass(0, 1)
    with pytest.raises(ValueError):
        RectangleClass(3, 1).validate(2, 4)
    ctx = GrassContext(2, 4, HYPERBOLIC)
    with pytest.raises(ValueError):
        smooth_product(ctx, RectangleClass(1, 1), BoxPartition(2, 3, (1,)))


def test_all_rectangles():
    rs = {(r.a, r.b) for r in all_rectangles(2, 4)}
    assert rs == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_gr24_words():
    expected = {
        (0, 0): (3, 1),
        (1, 0): (2, 3, 1),
        (2, 0): (3, 2, 3, 1),
        (1, 1): (1, 2, 3, 1),
        (2, 1): (3, 1, 2, 3, 1),
        (2, 2): (2, 3, 1, 2, 3, 1),
    }
    for parts, word in expected.items():
        assert gr24_word(_bp(*parts)) == word


def test_gr24_basis_table():
    x = lambda *e: Poly.monomial(4, e)
    mu = lambda *e, **kw: Poly.monomial(4, e, kw.get("m", (0, 0)))
    table = {
        (0, 0): x(2, 2, 0, 0),
        (1, 0): x(2, 1, 0, 0) + x(1, 2, 0, 0) - mu(2, 2, 0, 0, m=(1, 0)),
        (2, 0): x(2, 0, 0, 0)
        + x(1, 1, 0, 0)
        + x(0, 2, 0, 0)
        - mu(2, 1, 0, 0, m=(1, 0))
        - mu(1, 2, 0, 0, m=(1, 0))
        - mu(2, 2, 0, 0, m=(0, 1)),
        (1, 1): x(1, 1, 0, 0) - mu(2, 2, 0, 0, m=(0, 1)),
        (2, 1): x(1, 0, 0, 0)
        + x(0, 1, 0, 0)
        - mu(1, 1, 0, 0, m=(1, 0))
        - mu(2, 1, 0, 0, m=(0, 1))
        - mu(1, 2, 0, 0, m=(0, 1))
        - mu(2, 2, 0, 0, m=(1, 1)),
        (2, 2): Poly.one(4)
        - mu(2, 0, 0, 0, m=(0, 1))
        - 2 * mu(1, 1, 0, 0, m=(0, 1))
        - mu(0, 2, 0, 0, m=(0, 1))
        + mu(2, 2, 0, 0, m=(2, 1)),
    }
    basis = gr24_basis(HYPERBOLIC)
    for parts, poly in zip(GR24_ORDER, basis):
        assert poly == table[parts], parts
    # each table row is the normal form of its word class
    ctx = OperatorContext(HYPERBOLIC, 4)
    for parts, poly in zip(GR24_ORDER, basis):
        word = gr24_word(_bp(*parts))
        assert normal_form(schubert_polynomial(ctx, word), 4) == poly


def test_gr24_smooth_polys():
    assert gr24_smooth_poly(RectangleClass(2, 2), HYPERBOLIC) == Poly.one(4)
    assert gr24_smooth_poly(RectangleClass(2, 1), HYPERBOLIC) == Poly.monomial(
        4, (1, 1, 0, 0)
    )
    line = gr24_smooth_poly(RectangleClass(1, 1), HYPERBOLIC)
    assert line == Poly.monomial(4, (2, 1, 0, 0)) + Poly.monomial(
        4, (1, 2, 0, 0)
    ) - Poly.monomial(4, (2, 2, 0, 0), (1, 0))
    # the law matters for the line class
    assert gr24_smooth_poly(RectangleClass(1, 1), ADDITIVE) != line


def test_full_width_smooth_class_uses_dual_roots():
    # at m2 = 0 the dual-root product agrees with the canonical
    # word representative, not with the plain monomial x3 x4
    ctx = GrassContext(2, 4, MULTIPLICATIVE)
    got = gr24_smooth_poly(RectangleClass(1, 2), MULTIPLICATIVE)
    rep = class_representative(ctx, _bp(2, 0))
    assert got == normal_form(rep, 4)
    plain = normal_form(Poly.monomial(4, (0, 0, 1, 1)), 4)
    assert got != plain
    # additive: signs cancel and the plain monomial is recovered
    assert gr24_smooth_poly(RectangleClass(1, 2), ADDITIVE) == normal_form(
        Poly.monomial(4, (0, 0, 1, 1)), 4
    )


def test_dual_root_monomial_properties():
    # one factor per missing column, mu-free leading term
    got = dual_root_monomial(2, 4, 1, ADDITIVE)
    assert got == normal_form(Poly.monomial(4, (0, 0, 1, 1)), 4)
    sq = dual_root_monomial(2, 4, 2, ADDITIVE)
    assert equals_mod_s(
        sq, Poly.monomial(4, (0, 0, 2, 2)), 4
    )


def test_cross_check_gr24():
    for spec in (ADDITIVE, MULTIPLICATIVE, LORENTZ):
        rep = cross_check_gr24(spec)
        assert rep.passed, rep.summary_lines()
        assert len(rep.cases) == 24


def test_class_representative_guard():
    ctx = GrassContext(2, 4, HYPERBOLIC)
    with pytest.raises(ValueError):
        class_representative(ctx, _bp(1, 1))


def test_chow_k_cross_check():
    rep = chow_k_cross_check(2, 4, ADDITIVE)
    assert rep.passed, rep.summary_lines()
    assert len(rep.cases) == 24
    # k(n-k) > 9, then k(n-k) <= 9 above the rewrite rank 7
    for k, n in ((3, 7), (1, 8), (7, 8), (1, 10), (9, 10)):
        with pytest.raises(CapacityError):
            chow_k_cross_check(k, n, ADDITIVE)
    with pytest.raises(ValueError):
        chow_k_cross_check(2, 4, HYPERBOLIC)


def _gr24_inputs(spec, smooth_override=None):
    smooth = {r: gr24_smooth_poly(r, spec) for r in all_rectangles(2, 4)}
    smooth.update(smooth_override or {})
    return GrassContext(2, 4, spec), _gr24_classes(spec), smooth


def _chowk_inputs(k, n, spec):
    ctx = GrassContext(k, n, spec)
    classes = {mu.parts: class_representative(ctx, mu) for mu in box_partitions(k, n - k)}
    smooth = {r: classes[r.as_partition(k, n).parts] for r in all_rectangles(k, n)}
    return ctx, classes, smooth


# plain x3 x4 for the 1x2 rectangle breaks the rule at m1 != 0; x1 x2
# (the 2x1 class) in place of the line also fails cases that predict 0
_PLAIN_1X2 = {RectangleClass(1, 2): Poly.monomial(4, (0, 0, 1, 1))}
_WRONG_LINE = {RectangleClass(1, 1): Poly.monomial(4, (1, 1, 0, 0))}

_RULE_INPUTS = [
    *(
        pytest.param(_gr24_inputs, (spec,), True, id=f"gr24-{spec.label()}")
        for spec in (ADDITIVE, MULTIPLICATIVE, LORENTZ, HYPERBOLIC)
    ),
    *(
        pytest.param(_chowk_inputs, (k, n, spec), True, id=f"chowk-{k}-{n}-{spec.label()}")
        for k, n in ((2, 4), (2, 5), (3, 5))
        for spec in (ADDITIVE, MULTIPLICATIVE)
    ),
    pytest.param(_gr24_inputs, (HYPERBOLIC, _PLAIN_1X2), False, id="gr24-plain-1x2"),
    pytest.param(_gr24_inputs, (HYPERBOLIC, _WRONG_LINE), False, id="gr24-wrong-line"),
]


@pytest.mark.parametrize("make,args,passes", _RULE_INPUTS)
def test_rule_cross_check_matches_expansion_oracle(make, args, passes, monkeypatch):
    ctx, classes, smooth = make(*args)
    expand_in_basis = grass.expand_in_basis
    calls = []

    def counting_expand(*a):
        calls.append(a)
        return expand_in_basis(*a)

    monkeypatch.setattr(grass, "expand_in_basis", counting_expand)
    rep = _rule_cross_check("rule", ctx, classes, smooth)
    assert len(calls) == 1
    got = [(c.label, c.ok) for c in rep.cases]
    assert got == expansion_rule_cross_check(ctx, classes, smooth)
    assert len(got) == len(classes) * len(smooth)
    assert rep.passed == passes


def test_rule_cross_check_rejects_dependent_classes():
    ctx, classes, smooth = _gr24_inputs(HYPERBOLIC)
    twice = dict(classes)
    twice[(1, 1)] = classes[(1, 0)]
    with pytest.raises(BasisDependenceError):
        _rule_cross_check("rule", ctx, twice, smooth)
