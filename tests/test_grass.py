"""Grassmannian product rule, the class words and the smooth classes."""

import pytest

import schubfgl.grass as grass
from schubfgl.coinv import BasisDependenceError, nf_degree, reduce_packed
from schubfgl.combi import (
    BoxPartition,
    CapacityError,
    Permutation,
    box_partitions,
    canonical_word,
    partition_dual,
    word_to_perm,
)
from schubfgl.fgl import ADDITIVE, HYPERBOLIC, LORENTZ, MULTIPLICATIVE, FglSpec
from schubfgl.grass import (
    GR24_ORDER,
    GrassContext,
    RectangleClass,
    all_rectangles,
    chow_k_cross_check,
    class_layout,
    class_words,
    cross_check_gr24,
    grass_classes,
    smooth_class,
    _rule_cross_check,
    rect_dual,
    smooth_product,
)
from schubfgl.polycore import Poly
from schubfgl.ddo import OperatorContext

from oracles import (
    constant,
    GR24_WORDS,
    class_representative,
    dual_root_monomial,
    equals_mod_s,
    expansion_rule_cross_check,
    gr24_smooth_poly,
    gr24_word,
    normal_form,
    partition_to_perm,
    schubert_polynomial,
)

# the Grassmannians verify chowk admits: k(n-k) <= 9 and n <= 7
CHOWK_BOXES = [(k, n) for n in range(2, 8) for k in range(1, n) if k * (n - k) <= 9]
ALL_SPECS = (ADDITIVE, MULTIPLICATIVE, LORENTZ, HYPERBOLIC)


def _bp(*parts: int) -> BoxPartition:
    return BoxPartition(2, 2, parts)


def _smooth_poly(ctx: GrassContext, r: RectangleClass) -> Poly:
    """The packed smooth class, unpacked."""
    return class_layout(ctx.n).unpack(smooth_class(ctx, r))


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
    # the class words of Gr(2,4) are the six pullback words of its resolutions
    assert class_words(2, 4) == GR24_WORDS
    for parts in GR24_ORDER:
        assert class_words(2, 4)[parts] == gr24_word(_bp(*parts))


def test_class_words_are_reduced_words_of_w0_times_dual():
    assert len(CHOWK_BOXES) == 17
    for k, n in CHOWK_BOXES:
        w0 = Permutation.longest(n)
        words = class_words(k, n)
        assert list(words) == [lam.parts for lam in box_partitions(k, n - k)]
        for lam in box_partitions(k, n - k):
            word = words[lam.parts]
            w = word_to_perm(word, n)
            assert w.length() == len(word) == lam.size() + (k * (k - 1) + (n - k) * (n - k - 1)) // 2
            assert w == w0 * partition_to_perm(partition_dual(lam), n), (k, n, lam)


@pytest.mark.parametrize("spec", (ADDITIVE, MULTIPLICATIVE), ids=lambda s: s.label())
def test_classes_at_m2_zero_equal_the_canonical_word_classes(spec):
    for k, n in CHOWK_BOXES:
        ctx = GrassContext(k, n, spec)
        octx = OperatorContext(spec, n)
        classes = grass_classes(ctx)
        for lam in box_partitions(k, n - k):
            rep = class_representative(ctx, lam)
            assert schubert_polynomial(octx, class_words(k, n)[lam.parts]) == rep, (k, n, lam)
            assert class_layout(n).unpack(classes[lam.parts]) == normal_form(rep, n), (k, n, lam)


_MU_BOXES = ((2, 4), (2, 5), (3, 5))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_classes_are_the_oracle_classes_mod_s(spec):
    for k, n in _MU_BOXES:
        octx = OperatorContext(spec, n)
        classes = grass_classes(GrassContext(k, n, spec))
        for parts, word in class_words(k, n).items():
            got = class_layout(n).unpack(classes[parts])
            assert got == normal_form(schubert_polynomial(octx, word), n), (k, n, parts)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_class_mu_exponents_stay_within_top(spec):
    # class_layout holds 4 * top in its mu fields because every class, as
    # its word gives it and in normal form, and every smooth class has m1
    # and m2 exponents <= top; the hyperbolic and lorentz classes of the
    # words reach top
    for k, n in _MU_BOXES:
        ctx = GrassContext(k, n, spec)
        octx = OperatorContext(spec, n)
        top = n * (n - 1) // 2
        words = [schubert_polynomial(octx, word) for word in class_words(k, n).values()]
        nfs = [*grass_classes(ctx).values(), *(smooth_class(ctx, r) for r in all_rectangles(k, n))]
        largest = max(max(mu) for f in words for _x, mu in f.terms)
        assert largest <= top and (largest == top) == (not spec.mu2_is_zero), (k, n)
        assert all(max(mu) <= top for nf in nfs for _x, mu in class_layout(n).unpack(nf).terms), (k, n)


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
        (2, 2): constant(4, 1)
        - mu(2, 0, 0, 0, m=(0, 1))
        - 2 * mu(1, 1, 0, 0, m=(0, 1))
        - mu(0, 2, 0, 0, m=(0, 1))
        + mu(2, 2, 0, 0, m=(2, 1)),
    }
    classes = grass_classes(GrassContext(2, 4, HYPERBOLIC), GR24_ORDER)
    basis = [class_layout(4).unpack(nf) for nf in classes.values()]
    for parts, poly in zip(GR24_ORDER, basis):
        assert poly == table[parts], parts
    # each table row is the normal form of its pullback word's class
    ctx = OperatorContext(HYPERBOLIC, 4)
    for parts, poly in zip(GR24_ORDER, basis):
        word = gr24_word(_bp(*parts))
        assert normal_form(schubert_polynomial(ctx, word), 4) == poly


def test_gr24_smooth_polys():
    ctx = GrassContext(2, 4, HYPERBOLIC)
    assert _smooth_poly(ctx, RectangleClass(2, 2)) == constant(4, 1)
    assert _smooth_poly(ctx, RectangleClass(2, 1)) == Poly.monomial(4, (1, 1, 0, 0))
    line = _smooth_poly(ctx, RectangleClass(1, 1))
    assert equals_mod_s(line, Poly.monomial(4, (2, 1, 0, 0)) + Poly.monomial(
        4, (1, 2, 0, 0)
    ) - Poly.monomial(4, (2, 2, 0, 0), (1, 0)), 4)
    # the law matters for the line class
    assert _smooth_poly(GrassContext(2, 4, ADDITIVE), RectangleClass(1, 1)) != line


_SMOOTH_SPECS = (*ALL_SPECS, FglSpec("hyperbolic", mu1=2), FglSpec("hyperbolic", mu2=0))


@pytest.mark.parametrize("spec", _SMOOTH_SPECS, ids=lambda s: s.label())
def test_smooth_classes_equal_the_gr24_oracle_mod_s(spec):
    ctx = GrassContext(2, 4, spec)
    for r in all_rectangles(2, 4):
        assert equals_mod_s(_smooth_poly(ctx, r), gr24_smooth_poly(r, spec), 4), (r, spec)


def test_smooth_classes_at_m2_zero_are_the_rectangle_classes():
    for k, n in ((2, 4), (2, 5), (3, 5)):
        for spec in (ADDITIVE, MULTIPLICATIVE):
            ctx = GrassContext(k, n, spec)
            classes = grass_classes(ctx)
            for r in all_rectangles(k, n):
                # both normal forms in class_layout(n): congruent means equal
                assert smooth_class(ctx, r) == classes[r.as_partition(k, n).parts], (k, n, r, spec)


def test_full_width_smooth_class_uses_dual_roots():
    # at m2 = 0 the dual-root product agrees with the canonical
    # word representative, not with the plain monomial x3 x4
    ctx = GrassContext(2, 4, MULTIPLICATIVE)
    got = _smooth_poly(ctx, RectangleClass(1, 2))
    rep = class_representative(ctx, _bp(2, 0))
    assert got == normal_form(rep, 4)
    plain = normal_form(Poly.monomial(4, (0, 0, 1, 1)), 4)
    assert got != plain
    # additive: signs cancel and the plain monomial is recovered
    assert _smooth_poly(GrassContext(2, 4, ADDITIVE), RectangleClass(1, 2)) == plain


def test_dual_root_monomial_properties():
    # one factor per missing column, mu-free leading term
    got = dual_root_monomial(2, 4, 1, ADDITIVE)
    assert got == normal_form(Poly.monomial(4, (0, 0, 1, 1)), 4)
    sq = dual_root_monomial(2, 4, 2, ADDITIVE)
    assert equals_mod_s(sq, Poly.monomial(4, (0, 0, 2, 2)), 4)
    # the full-width smooth classes are the dual root monomials: a power
    # of e_b of the last b dual roots
    for spec in ALL_SPECS:
        assert _smooth_poly(GrassContext(2, 4, spec), RectangleClass(1, 2)) == (
            dual_root_monomial(2, 4, 1, spec)
        )
        assert _smooth_poly(GrassContext(3, 5, spec), RectangleClass(1, 2)) == (
            dual_root_monomial(3, 5, 2, spec)
        )


def test_cross_check_gr24():
    for spec in (ADDITIVE, MULTIPLICATIVE, LORENTZ):
        rep = cross_check_gr24(spec)
        assert rep.passed, rep.summary_lines()
        assert len(rep.cases) == 24


def test_class_representative_guard():
    # the canonical-word reference holds only at m2 = 0
    ctx = GrassContext(2, 4, HYPERBOLIC)
    with pytest.raises(ValueError):
        class_representative(ctx, _bp(1, 1))


def _canonical_class_words(k, n):
    w0 = Permutation.longest(n)
    return {
        lam.parts: canonical_word(w0 * partition_to_perm(partition_dual(lam), n))
        for lam in box_partitions(k, n - k)
    }


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_cross_check_tells_the_resolution_words_apart(spec, monkeypatch):
    # canonical words name the same permutations, so at m2 = 0 nothing
    # changes; at m2 != 0 the braid relations fail (Bressler-Evens) and the
    # classes of the canonical words break the rule in 3 of the 24 cases
    monkeypatch.setattr(grass, "class_words", _canonical_class_words)
    rep = cross_check_gr24(spec)
    failed = sum(not case.ok for case in rep.cases)
    assert failed == (0 if spec.mu2_is_zero else 3), rep.summary_lines()


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
    ctx = GrassContext(2, 4, spec)
    layout = class_layout(4)
    smooth = {r: smooth_class(ctx, r) for r in all_rectangles(2, 4)}
    smooth.update({r: reduce_packed(layout.pack(f), layout) for r, f in (smooth_override or {}).items()})
    return ctx, grass_classes(ctx, GR24_ORDER), smooth


def _chowk_inputs(k, n, spec):
    ctx = GrassContext(k, n, spec)
    classes = grass_classes(ctx)
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
    expand_packed = grass.expand_packed
    calls = []

    def counting_expand(*a):
        calls.append(a)
        return expand_packed(*a)

    monkeypatch.setattr(grass, "expand_packed", counting_expand)
    rep = _rule_cross_check("rule", ctx, classes, smooth)
    assert len(calls) == 1
    got = [(c.label, c.ok) for c in rep.cases]
    unpack = class_layout(ctx.n).unpack
    assert got == expansion_rule_cross_check(
        ctx, {parts: unpack(nf) for parts, nf in classes.items()}, {r: unpack(nf) for r, nf in smooth.items()}
    )
    assert len(got) == len(classes) * len(smooth)
    assert rep.passed == passes


def test_rule_cross_check_rejects_dependent_classes():
    ctx, classes, smooth = _gr24_inputs(HYPERBOLIC)
    twice = dict(classes)
    twice[(1, 1)] = classes[(1, 0)]
    with pytest.raises(BasisDependenceError):
        _rule_cross_check("rule", ctx, twice, smooth)
    # deep in the 60-unknown Gr(3,6) system: one class of a degree shared
    # by three becomes 2 * (one other) - 3 * (the third)
    ctx, classes, smooth = _chowk_inputs(3, 6, ADDITIVE)
    layout = class_layout(6)
    by_degree = {}
    for parts, nf in classes.items():
        by_degree.setdefault(nf_degree(layout, nf), []).append(parts)
    lost, one, other = next(ps for ps in by_degree.values() if len(ps) >= 3)[:3]
    combined = dict(classes)
    combined[lost] = {
        key: c for key in classes[one].keys() | classes[other].keys()
        if (c := 2 * classes[one].get(key, 0) - 3 * classes[other].get(key, 0))
    }
    with pytest.raises(BasisDependenceError, match="not linearly independent"):
        _rule_cross_check("rule", ctx, combined, smooth)
