"""Formal group law data: sum series, inverses, kernels, kappa."""

import pytest

from schubfgl.fgl import (
    ADDITIVE,
    FglSpec,
    HYPERBOLIC,
    LORENTZ,
    MULTIPLICATIVE,
    chi_difference,
    diff_kernel,
    formal_inverse,
    kappa_of,
)
from schubfgl.polycore import Poly, PolyError

from oracles import (
    constant,
    diff_kernel_series_check,
    fgl_sum_series,
    generic_chi_difference,
    generic_diff_kernel,
    generic_formal_inverse,
    inverse_series_check,
    mul_mu,
    series_invert_unit,
    specialize,
)

ALL = (ADDITIVE, MULTIPLICATIVE, HYPERBOLIC, LORENTZ)
# integer values too: m1 = 0 must keep the constant term of 1/p (0**0 == 1)
SPECIALIZED = ALL + (
    FglSpec("multiplicative", mu1=0),
    FglSpec("multiplicative", mu1=2),
    FglSpec("multiplicative", mu1=-1),
    FglSpec("hyperbolic", mu1=0),
    FglSpec("hyperbolic", mu1=2, mu2=-3),
    FglSpec("lorentz", mu2=-1),
)


def test_sum_series_additive():
    assert fgl_sum_series(ADDITIVE, 5) == Poly.variable(2, 1) + Poly.variable(2, 2)


def test_sum_series_hyperbolic_low_order():
    f = fgl_sum_series(HYPERBOLIC, 4)
    assert f.terms.get(((1, 0), (0, 0)), 0) == 1
    assert f.terms.get(((0, 1), (0, 0)), 0) == 1
    assert f.terms.get(((1, 1), (1, 0)), 0) == -1
    # the degree-3 m2 terms are negative: the rational form
    # (x + y - m1 xy) / (1 + m2 xy) forces it, and so does the
    # degree-4 coefficient below (a positive quadratic term would
    # flip its sign)
    assert f.terms.get(((2, 1), (0, 1)), 0) == -1
    assert f.terms.get(((1, 2), (0, 1)), 0) == -1
    assert f.terms.get(((2, 2), (1, 1)), 0) == 1


def test_sum_series_matches_rational_form():
    for spec in ALL:
        for cap in (4, 8):
            f = fgl_sum_series(spec, cap)
            denom = constant(2, 1) + Poly.monomial(2, (1, 1), (0, 1))
            num = (
                Poly.variable(2, 1)
                + Poly.variable(2, 2)
                - Poly.monomial(2, (1, 1), (1, 0))
            )
            lhs = (specialize(spec, denom) * f).truncate(cap)
            assert lhs == specialize(spec, num).truncate(cap)


def test_sum_series_symmetric_and_unital():
    for spec in ALL:
        f = fgl_sum_series(spec, 7)
        assert f.sigma(1) == f
        x_only = Poly(2, {k: c for k, c in f.terms.items() if k[0][1] == 0})
        assert x_only == Poly.variable(2, 1)


def test_formal_inverse_pinned():
    assert formal_inverse(ADDITIVE, 6) == -Poly.variable(1, 1)
    assert formal_inverse(LORENTZ, 6) == -Poly.variable(1, 1)
    chi = formal_inverse(HYPERBOLIC, 3)
    expected = (
        -Poly.variable(1, 1)
        - Poly.monomial(1, (2,), (1, 0))
        - Poly.monomial(1, (3,), (2, 0))
    )
    assert chi == expected


def test_formal_inverse_satisfies_defining_identity():
    # x + chi - m1 x chi == 0 is F(x, chi(x)) = 0 with the unit
    # denominator cleared
    for spec in ALL:
        cap = 9
        chi = formal_inverse(spec, cap)
        x = Poly.variable(1, 1)
        lhs = (x + chi - specialize(spec, mul_mu(x * chi, 1, 0))).truncate(cap)
        assert not lhs
        assert inverse_series_check(spec, 10)


@pytest.mark.parametrize("spec", SPECIALIZED, ids=FglSpec.label)
def test_formal_inverse_is_the_inverted_unit(spec):
    x = Poly.variable(1, 1)
    unit = specialize(spec, constant(1, 1) - Poly.monomial(1, (1,), (1, 0)))
    for cap in range(1, 13):
        assert formal_inverse(spec, cap) == (-x * series_invert_unit(unit, cap)).truncate(cap)


@pytest.mark.parametrize("spec", SPECIALIZED, ids=FglSpec.label)
def test_chi_difference_is_the_inverted_kernel(spec):
    x, y = Poly.variable(2, 1), Poly.variable(2, 2)
    for cap in range(1, 13):
        expected = ((x - y) * series_invert_unit(diff_kernel(spec), cap)).truncate(cap)
        assert chi_difference(spec, cap) == expected


@pytest.mark.parametrize("spec", SPECIALIZED, ids=FglSpec.label)
def test_closed_forms_are_the_specialized_generic_series(spec):
    assert diff_kernel(spec) == specialize(spec, generic_diff_kernel())
    for cap in range(1, 25):
        assert formal_inverse(spec, cap) == specialize(spec, generic_formal_inverse(cap)), cap
        assert chi_difference(spec, cap) == specialize(spec, generic_chi_difference(cap)), cap


def test_closed_forms_take_zero_to_the_zero_as_one():
    # m1 = 0: the m1-free terms keep their coefficients (0**0 == 1), the others vanish
    spec = FglSpec("multiplicative", mu1=0)
    x, y = Poly.variable(2, 1), Poly.variable(2, 2)
    for cap in (1, 2, 7):
        assert formal_inverse(spec, cap) == -Poly.variable(1, 1)
        assert chi_difference(spec, cap) == x - y
    assert diff_kernel(spec) == constant(2, 1)


def test_closed_forms_reject_caps_below_one():
    for series in (formal_inverse, chi_difference):
        for cap in (0, -3):
            with pytest.raises(PolyError):
                series(HYPERBOLIC, cap)


def test_diff_kernel_closed_forms():
    x, y = Poly.variable(2, 1), Poly.variable(2, 2)
    assert diff_kernel(ADDITIVE) == constant(2, 1)
    assert diff_kernel(MULTIPLICATIVE) == constant(2, 1) - mul_mu(y, 1, 0)
    assert diff_kernel(HYPERBOLIC) == constant(2, 1) - mul_mu(y, 1, 0) - mul_mu(x * y, 0, 1)
    assert diff_kernel(LORENTZ) == constant(2, 1) - mul_mu(x * y, 0, 1)


def test_diff_kernel_series_selfcheck_cap10():
    for spec in ALL:
        assert diff_kernel_series_check(spec, 10)


def test_kappa_table():
    assert not kappa_of(ADDITIVE)
    assert not kappa_of(LORENTZ)
    mu1 = constant(0, 1, (1, 0))
    assert kappa_of(MULTIPLICATIVE) == mu1
    assert kappa_of(HYPERBOLIC) == mu1


def test_degenerations_are_specializations():
    cap = 7
    hyper = fgl_sum_series(HYPERBOLIC, cap)
    m2_zero, m1_zero = FglSpec("hyperbolic", mu2=0), FglSpec("hyperbolic", mu1=0)
    assert specialize(m2_zero, hyper) == fgl_sum_series(MULTIPLICATIVE, cap)
    assert specialize(m1_zero, hyper) == fgl_sum_series(LORENTZ, cap)
    assert specialize(FglSpec("hyperbolic", 0, 0), hyper) == fgl_sum_series(ADDITIVE, cap)
    assert specialize(m2_zero, diff_kernel(HYPERBOLIC)) == diff_kernel(MULTIPLICATIVE)
    assert specialize(m1_zero, diff_kernel(HYPERBOLIC)) == diff_kernel(LORENTZ)


def test_integer_specializations():
    spec = FglSpec("hyperbolic", 2, 3)
    f = fgl_sum_series(spec, 5)
    sym = specialize(spec, fgl_sum_series(HYPERBOLIC, 5))
    assert f == sym
    assert diff_kernel_series_check(spec, 8)
    assert inverse_series_check(spec, 8)


def test_kind_constraints():
    with pytest.raises(ValueError):
        FglSpec("additive", mu1=1)
    with pytest.raises(ValueError):
        FglSpec("multiplicative", mu2=2)
    with pytest.raises(ValueError):
        FglSpec("lorentz", mu1=3)
    with pytest.raises(ValueError):
        FglSpec("elliptic")


def test_labels():
    assert HYPERBOLIC.label() == "hyperbolic"
    assert FglSpec("hyperbolic", 2, None).label() == "hyperbolic,mu1=2"
