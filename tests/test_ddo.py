"""Divided-difference operators: pinned values, oracles, relations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubfgl import ddo
from schubfgl.ddo import (
    OperatorContext,
    apply_c,
    apply_delta,
    apply_word,
    random_poly,
    relation_reports,
)
from schubfgl.fgl import ADDITIVE, HYPERBOLIC, LORENTZ, MULTIPLICATIVE, FglSpec, diff_kernel, kappa_of
from schubfgl.polycore import GradedLayout, Poly, PolyError

from oracles import (
    classical_ddiff,
    constant,
    division_apply_c,
    division_apply_delta,
    inject_vars,
    naive_mul,
    relation_oracle_reports,
    relation_report,
    sample_poly,
)

ALL = (ADDITIVE, MULTIPLICATIVE, HYPERBOLIC, LORENTZ)


def test_apply_c_pinned():
    ctx2 = OperatorContext(HYPERBOLIC, 2)
    got = apply_c(ctx2, 1, Poly.variable(2, 1))
    assert got == constant(2, 1) - Poly.monomial(2, (1, 1), (0, 1))
    assert apply_c(OperatorContext(ADDITIVE, 2), 1, Poly.variable(2, 1)) == constant(2, 1)
    ctx3 = OperatorContext(HYPERBOLIC, 3)
    got3 = apply_c(ctx3, 1, Poly.monomial(3, (2, 1, 0)))
    assert got3 == Poly.monomial(3, (1, 1, 0)) - Poly.monomial(3, (2, 2, 0), (0, 1))


def test_apply_delta_pinned():
    ctx = OperatorContext(HYPERBOLIC, 2)
    got = apply_delta(ctx, 1, Poly.variable(2, 1))
    expected = (
        -constant(2, 1)
        + Poly.monomial(2, (1, 0), (1, 0))
        + Poly.monomial(2, (1, 1), (0, 1))
    )
    assert got == expected
    assert apply_delta(OperatorContext(ADDITIVE, 2), 1, Poly.variable(2, 1)) == -constant(2, 1)


def test_delta_kills_symmetric():
    rng = random.Random(2)
    for spec in ALL:
        ctx = OperatorContext(spec, 3)
        for _ in range(10):
            g = random_poly(rng, 3)
            sym = g + g.sigma(1)
            assert not apply_delta(ctx, 1, sym)


def test_additive_c_is_classical_divided_difference():
    ctx = OperatorContext(ADDITIVE, 3)
    rng = random.Random(31)
    for _ in range(30):
        f = random_poly(rng, 3)
        i = rng.randint(1, 2)
        assert apply_c(ctx, i, f) == classical_ddiff(f, i)


def test_general_c_matches_kernel_oracle():
    # C_i f = classical divided difference of p(x_i, x_{i+1}) * f
    rng = random.Random(37)
    for spec in ALL:
        ctx = OperatorContext(spec, 3)
        p = diff_kernel(spec)
        for _ in range(15):
            f = random_poly(rng, 3)
            i = rng.randint(1, 2)
            pi = inject_vars(p, 3, (i, i + 1))
            assert apply_c(ctx, i, f) == classical_ddiff(naive_mul(pi, f), i)


def test_degree_drop_on_homogeneous_input():
    rng = random.Random(41)
    for spec in ALL:
        ctx = OperatorContext(spec, 3)
        for d in (1, 2, 3, 4):
            f = Poly.monomial(3, (d, 0, 0)) + Poly.monomial(3, (0, d, 0))
            for op in (apply_c, apply_delta):
                g = op(ctx, 1, f)
                hom, deg = g.graded_degree()
                assert hom and (not g or deg == d - 1)


def test_c_output_is_sigma_symmetric():
    rng = random.Random(43)
    for spec in ALL:
        ctx = OperatorContext(spec, 3)
        for _ in range(10):
            f = random_poly(rng, 3)
            i = rng.randint(1, 2)
            g = apply_c(ctx, i, f)
            assert g.sigma(i) == g


def test_c_linear_over_symmetric_factors():
    rng = random.Random(47)
    for spec in ALL:
        ctx = OperatorContext(spec, 3)
        for _ in range(10):
            g = random_poly(rng, 3)
            h = random_poly(rng, 3)
            i = rng.randint(1, 2)
            sym = h + h.sigma(i)
            assert apply_c(ctx, i, sym * g) == sym * apply_c(ctx, i, g)


def test_apply_word_first_letter_innermost():
    ctx = OperatorContext(HYPERBOLIC, 3)
    rng = random.Random(53)
    for _ in range(10):
        f = random_poly(rng, 3)
        assert apply_word(ctx, (1, 2), f) == apply_c(ctx, 2, apply_c(ctx, 1, f))
    assert apply_word(ctx, (), f) == f


def test_index_validation():
    ctx = OperatorContext(HYPERBOLIC, 3)
    with pytest.raises(PolyError):
        apply_c(ctx, 0, constant(3, 1))
    with pytest.raises(PolyError):
        apply_c(ctx, 3, constant(3, 1))
    with pytest.raises(PolyError):
        OperatorContext(HYPERBOLIC, 1)


def test_delta_identity_sampled_all_specs():
    for spec in ALL:
        reports = relation_reports(OperatorContext(spec, 3), samples=20, seed=0)
        for i in (1, 2):
            assert relation_report(reports, "delta-identity", i).passed


def test_twisted_braid_all_specs():
    for spec in ALL:
        reports = relation_reports(OperatorContext(spec, 3), samples=20, seed=42)
        assert relation_report(reports, "twisted-braid", 1).passed


def test_naive_braid_holds_iff_mu2_free():
    for spec in (ADDITIVE, MULTIPLICATIVE):
        reports = relation_reports(OperatorContext(spec, 3), samples=20, seed=0)
        rep = relation_report(reports, "naive-braid", 1)
        assert rep.passed and not rep.findings
    reports = relation_reports(OperatorContext(HYPERBOLIC, 3), samples=20, seed=0)
    rep = relation_report(reports, "naive-braid", 1)
    assert rep.passed  # failures are annotated, the defect shape is pinned
    assert rep.findings


@pytest.mark.parametrize("spec", ALL + (FglSpec("hyperbolic", mu1=2, mu2=3),), ids=FglSpec.label)
def test_relation_reports_match_the_per_report_oracle(spec):
    # one sample pass against one report at a time, each drawing its own
    # samples and applying whole words: same reports, same order
    for n in (2, 3, 4, 5):
        ctx = OperatorContext(spec, n)
        for samples in (1, 7):
            for seed in (0, 5):
                got = [r.to_json_obj() for r in relation_reports(ctx, samples, seed)]
                want = [r.to_json_obj() for r in relation_oracle_reports(ctx, samples, seed)]
                assert got == want, (n, samples, seed)


def test_relation_reports_take_each_image_once(monkeypatch):
    # per sample: C_i f for each i (n - 1 letters), two two-letter braid
    # sides for each i <= n - 2 (4(n - 2)), D_i f for each i (n - 1)
    letters = []
    apply_letter = ddo._apply_letter

    def counting(spec, layout, i, pairs, row_of=ddo._c_row):
        letters.append(i)
        return apply_letter(spec, layout, i, pairs, row_of)

    monkeypatch.setattr(ddo, "_apply_letter", counting)
    for n in (2, 3, 4, 5):
        for samples in (1, 4):
            letters.clear()
            relation_reports(OperatorContext(HYPERBOLIC, n), samples, seed=0)
            assert len(letters) == (6 * n - 10) * samples, (n, samples)


def test_naive_braid_explicit_counterexample():
    ctx = OperatorContext(HYPERBOLIC, 3)
    f = Poly.monomial(3, (2, 1, 0))
    lhs = apply_word(ctx, (1, 2, 1), f)
    rhs = apply_word(ctx, (2, 1, 2), f)
    assert lhs != rhs
    mu2 = constant(3, 1, (0, 1))
    assert lhs - rhs == mu2 * (apply_c(ctx, 2, f) - apply_c(ctx, 1, f))


def test_commuting_operators():
    rng = random.Random(59)
    ctx = OperatorContext(HYPERBOLIC, 4)
    for _ in range(10):
        f = random_poly(rng, 4)
        assert apply_c(ctx, 1, apply_c(ctx, 3, f)) == apply_c(ctx, 3, apply_c(ctx, 1, f))


# ----------------------------------------------------------------------
# table operators against the division-based reference

# the four laws, then integer specializations whose kernels carry
# coefficients other than +-1 (and a zero coefficient)
SPECS = ALL + (
    FglSpec("hyperbolic", mu1=3, mu2=-2),
    FglSpec("hyperbolic", mu1=0, mu2=5),
    FglSpec("hyperbolic", mu1=-2),
    FglSpec("hyperbolic", mu2=4),
    FglSpec("multiplicative", mu1=-7),
    FglSpec("lorentz", mu2=2),
)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def operator_inputs(draw):
    """(spec, nvars, i, f): i at either end or inside, x-exponents up to 12,
    and some terms with equal exponents of x_i and x_{i+1}."""
    spec = draw(st.sampled_from(SPECS))
    nvars = draw(st.integers(2, 5))
    i = draw(st.sampled_from(sorted({1, nvars - 1, (nvars + 1) // 2})))
    exps = st.integers(0, 12)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        x = draw(st.lists(exps, min_size=nvars, max_size=nvars))
        if draw(st.booleans()):
            x[i] = x[i - 1]
        mu = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[(tuple(x), mu)] = draw(st.integers(-9, 9))
    return spec, nvars, i, Poly(nvars, terms)


@PROPERTY
@given(operator_inputs())
def test_table_c_matches_division(case):
    spec, nvars, i, f = case
    assert apply_c(OperatorContext(spec, nvars), i, f) == division_apply_c(spec, i, f)


@PROPERTY
@given(operator_inputs())
def test_table_delta_matches_division(case):
    spec, nvars, i, f = case
    assert apply_delta(OperatorContext(spec, nvars), i, f) == division_apply_delta(spec, i, f)


@PROPERTY
@given(operator_inputs())
def test_delta_is_kappa_minus_c(case):
    # the two tables come from different product forms, so this is not
    # true by construction
    spec, nvars, i, f = case
    ctx = OperatorContext(spec, nvars)
    kappa = inject_vars(kappa_of(spec), nvars, ())
    assert apply_delta(ctx, i, f) == kappa * f - apply_c(ctx, i, f)


def test_equal_exponent_monomials():
    # d_i kills x_i^a x_{i+1}^a, so only the m1 kernel term survives in
    # C_i and nothing in D_i
    for a in (0, 1, 5, 12):
        f = Poly.monomial(3, (a, a, 2))
        ctx = OperatorContext(HYPERBOLIC, 3)
        assert apply_c(ctx, 1, f) == Poly.monomial(3, (a, a, 2), (1, 0))
        assert not apply_delta(ctx, 1, f)


# ----------------------------------------------------------------------
# the packed engine

@st.composite
def word_inputs(draw):
    """(spec, nvars, word, f) at n <= 4 with words of up to 8 letters.

    The exponents of x and of m1, m2 each lie within 3 of a base that is
    0 or at least 255, so fields wider than a byte come up while C_i,
    which never moves an exponent below the smaller one of its pair,
    keeps the classes small.
    """
    spec = draw(st.sampled_from(SPECS))
    nvars = draw(st.integers(2, 4))
    word = tuple(draw(st.lists(st.integers(1, nvars - 1), max_size=8)))
    x_base, mu_base = (draw(st.sampled_from((0, 255, 256, 300))) for _ in range(2))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        x = tuple(x_base + draw(st.integers(0, 3)) for _ in range(nvars))
        mu = (mu_base + draw(st.integers(0, 2)), mu_base + draw(st.integers(0, 2)))
        terms[(x, mu)] = draw(st.integers(-9, 9))
    return spec, nvars, word, Poly(nvars, terms)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(word_inputs())
def test_packed_engine_matches_division(case):
    spec, nvars, word, f = case
    ctx = OperatorContext(spec, nvars)
    expected = f
    for i in word:
        expected = division_apply_c(spec, i, expected)
    assert apply_word(ctx, word, f) == expected
    for i in set(word):
        assert apply_c(ctx, i, f) == division_apply_c(spec, i, f)
        assert apply_delta(ctx, i, f) == division_apply_delta(spec, i, f)


def test_layout_width_covers_input_and_letters():
    f = Poly.monomial(3, (255, 0, 1), (1, 255))
    assert GradedLayout.fit(f, 0) == GradedLayout(3, 8, 8)
    assert GradedLayout.fit(f, 1) == GradedLayout(3, 9, 9)
    assert GradedLayout.fit(Poly.zero(3), 0) == GradedLayout(3, 1, 1)
    layout = GradedLayout.fit(f, 0)
    assert layout.unpack(layout.pack(f)) == f
    # the x-degree on top, then x_n .. x_1, then m1, then m2
    (key,) = layout.pack(f)
    assert key >> layout.deg_shift == 256
    assert [key >> layout.x_shift(v) & 255 for v in (1, 2, 3)] == [255, 0, 1]
    assert (key >> 8 & 255, key & 255) == (1, 255)
    for narrow in (GradedLayout(3, 7, 8), GradedLayout(3, 8, 7)):
        with pytest.raises(PolyError):
            narrow.pack(f)
    with pytest.raises(PolyError):
        layout.pack(constant(2, 1))
    # C_1 takes m1^255 x_2 to -m1^255 + m1^256 (x_1 + x_2): the one letter
    # needs the ninth bit
    g = Poly.monomial(2, (0, 1), (255, 0))
    assert apply_c(OperatorContext(MULTIPLICATIVE, 2), 1, g) == division_apply_c(MULTIPLICATIVE, 1, g)


def test_one_row_per_law_and_exponent_pair():
    # a row depends on the builder, the law and (a, b) only: every letter
    # of ranks 3-6, each input packed in two layouts, builds it once
    ddo._row.cache_clear()
    rng = random.Random(61)
    builders = ((ddo._c_row, division_apply_c), (ddo._d_row, division_apply_delta))
    met = set()
    for spec in ALL:
        for n in (3, 4, 5, 6):
            for i in range(1, n):
                for _ in range(3):
                    # m1-free, so that one letter's m1 fits the narrowest layout
                    f = sample_poly(rng, n, terms=5, max_total_deg=5, max_mu=0)
                    narrow = GradedLayout.fit(f, 0)
                    for layout in (narrow, GradedLayout(n, narrow.xwidth + 5, narrow.muwidth + 2)):
                        for row_of, oracle in builders:
                            got = ddo._apply_letter(spec, layout, i, layout.pack(f).items(), row_of)
                            assert layout.unpack(got) == oracle(spec, i, f), (spec, n, i, layout)
                            met.update((row_of, spec, x[i - 1], x[i]) for x, _ in f.terms)
    assert ddo._row.cache_info().currsize == len(met)
