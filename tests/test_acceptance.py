"""Acceptance suite: one timed, exact check per headline claim.

Every assertion is exact (tolerance zero); each test also asserts a
wall-clock budget around its core computation.  Run with -v to get one
pass/fail line per criterion.
"""

import math
import time

from schubfgl.coinv import (
    expand_in_basis,
    normal_form,
    vandermonde_check,
)
from schubfgl.combi import BoxPartition
from schubfgl.ddo import (
    OperatorContext,
    delta_identity_check,
    naive_braid_check,
    twisted_braid_check,
)
from schubfgl.fgl import (
    ADDITIVE,
    HYPERBOLIC,
    LORENTZ,
    MULTIPLICATIVE,
    kappa_of,
)
from schubfgl.grass import (
    GR24_ORDER,
    RectangleClass,
    chow_k_cross_check,
    cross_check_gr24,
    gr24_basis,
    gr24_smooth_poly,
    gr24_word,
)
from schubfgl.hecke import (
    verify_coeff_corollary,
    verify_fk_identity,
    verify_local_identities,
    verify_ybe,
)
from schubfgl.polycore import Poly
from schubfgl.schubert import schubert_polynomial

from oracles import (
    all_permutations,
    diff_kernel_series_check,
    reduced_words,
    smooth_monomial,
    staircase_monomials,
)

ALL_SPECS = (ADDITIVE, MULTIPLICATIVE, LORENTZ, HYPERBOLIC)


class _budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"budget exceeded: {self.elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def _displayed_gr24_table() -> dict:
    """The six displayed normal forms, restated independently."""
    x = Poly.monomial
    return {
        (0, 0): x(4, (2, 2, 0, 0)),
        (1, 0): x(4, (2, 1, 0, 0)) + x(4, (1, 2, 0, 0)) - x(4, (2, 2, 0, 0), (1, 0)),
        (2, 0): x(4, (2, 0, 0, 0))
        + x(4, (1, 1, 0, 0))
        + x(4, (0, 2, 0, 0))
        - x(4, (2, 1, 0, 0), (1, 0))
        - x(4, (1, 2, 0, 0), (1, 0))
        - x(4, (2, 2, 0, 0), (0, 1)),
        (1, 1): x(4, (1, 1, 0, 0)) - x(4, (2, 2, 0, 0), (0, 1)),
        (2, 1): x(4, (1, 0, 0, 0))
        + x(4, (0, 1, 0, 0))
        - x(4, (1, 1, 0, 0), (1, 0))
        - x(4, (2, 1, 0, 0), (0, 1))
        - x(4, (1, 2, 0, 0), (0, 1))
        - x(4, (2, 2, 0, 0), (1, 1)),
        (2, 2): Poly.one(4)
        - x(4, (2, 0, 0, 0), (0, 1))
        - 2 * x(4, (1, 1, 0, 0), (0, 1))
        - x(4, (0, 2, 0, 0), (0, 1))
        + x(4, (2, 2, 0, 0), (2, 1)),
    }


def test_criterion_01_gr24_table():
    table = _displayed_gr24_table()
    with _budget(1.0):
        ctx = OperatorContext(HYPERBOLIC, 4)
        for parts in GR24_ORDER:
            word = gr24_word(BoxPartition(2, 2, parts))
            got = normal_form(schubert_polynomial(ctx, word), 4)
            assert got == normal_form(table[parts], 4) == table[parts], parts


def test_criterion_02_line_class_square():
    with _budget(1.0):
        ctx = OperatorContext(HYPERBOLIC, 4)
        lg21 = schubert_polynomial(ctx, gr24_word(BoxPartition(2, 2, (2, 1))))
        coeffs = expand_in_basis(lg21 * lg21, gr24_basis(HYPERBOLIC), 4)
    expected = [
        Poly.zero(0),
        Poly.const(0, -1, (1, 0)),
        Poly.one(0),
        Poly.one(0),
        Poly.zero(0),
        Poly.zero(0),
    ]
    assert coeffs == expected


def test_criterion_03_gr24_product_rule_cross_check():
    with _budget(5.0):
        rep = cross_check_gr24(HYPERBOLIC)
    assert rep.passed, rep.summary_lines()
    assert len(rep.cases) == 24
    assert all(c.ok for c in rep.cases)


def test_criterion_04_chow_and_k_specializations():
    with _budget(30.0):
        for spec in (ADDITIVE, MULTIPLICATIVE):
            for k, n in ((2, 4), (2, 5)):
                rep = chow_k_cross_check(k, n, spec)
                assert rep.passed, rep.summary_lines()
                expected_cases = {(2, 4): 24, (2, 5): 60}[(k, n)]
                assert len(rep.cases) == expected_cases


def test_criterion_05_hecke_core_identity():
    with _budget(60.0):
        for n in (2, 3, 4):
            rep = verify_fk_identity(HYPERBOLIC, n)
            core = [c for c in rep.cases if c.label.startswith("-D_")]
            assert len(core) == n - 1
            assert {c.label for c in core} == {
                f"-D_{i}(S) = S u_{i}" for i in range(1, n)
            }
            assert all(c.ok and not c.annotated for c in core)


def test_criterion_06_per_coefficient_congruence():
    with _budget(60.0):
        findings_by_n = {}
        for n in (2, 3, 4):
            rep = verify_fk_identity(HYPERBOLIC, n)
            assert rep.passed, rep.summary_lines()
            findings_by_n[n] = rep.findings
    # the documented n=2 failure of the supp(w0 w) reading is a
    # finding, not a suite failure
    labels = [c.label for c in findings_by_n[2]]
    assert labels == ["w=(2,1) word=(1,) congruence mod pairs(supp(w0*w))"]
    assert all(c.annotated and not c.ok for c in findings_by_n[2])
    # the narrower literal readings keep producing diagnostics upstream
    assert len(findings_by_n[3]) == 7
    assert len(findings_by_n[4]) == 91


def test_criterion_07_grothendieck_comparison():
    with _budget(60.0):
        for n in (2, 3, 4):
            rep = verify_coeff_corollary(HYPERBOLIC, n)
            assert rep.passed, rep.summary_lines()


def test_criterion_08_local_identities_and_ybe():
    with _budget(30.0):
        for n in (2, 3, 4):
            rep = verify_local_identities(HYPERBOLIC, n, cap=8)
            assert rep.passed, rep.summary_lines()
            rep = verify_ybe(HYPERBOLIC, n)
            assert rep.passed, rep.summary_lines()


def test_criterion_09_vandermonde_congruences():
    with _budget(10.0):
        for n in (2, 3, 4, 5):
            cap = n * (n - 1) // 2 + 2
            rep = vandermonde_check(HYPERBOLIC, n, cap)
            assert rep.passed, rep.summary_lines()


def test_criterion_10_operator_properties():
    with _budget(30.0):
        for n in (3, 4):
            ctx = OperatorContext(HYPERBOLIC, n)
            for i in range(1, n - 1):
                rep = twisted_braid_check(ctx, i, samples=50)
                assert rep.passed and not rep.findings, rep.summary_lines()
        for spec in (ADDITIVE, MULTIPLICATIVE):
            rep = naive_braid_check(OperatorContext(spec, 3), 1, samples=50)
            assert rep.passed and not rep.findings
        rep = naive_braid_check(OperatorContext(HYPERBOLIC, 3), 1, samples=50)
        assert rep.passed, rep.summary_lines()
        assert rep.findings, "expected recorded naive-braid counterexamples"
        for spec in ALL_SPECS:
            for i in (1, 2):
                rep = delta_identity_check(OperatorContext(spec, 3), i, samples=50)
                assert rep.passed and not rep.findings


def test_criterion_11_structural_invariants():
    with _budget(10.0):
        ctx = OperatorContext(HYPERBOLIC, 4)
        for w in all_permutations(4):
            for word in reduced_words(w):
                hom, deg = schubert_polynomial(ctx, word).graded_degree()
                assert hom and deg == 6 - len(word)
        for n in (1, 2, 3, 4, 5):
            assert len(staircase_monomials(n)) == math.factorial(n)
        for n in (2, 3, 4):
            basis = [Poly.monomial(n, e) for e in staircase_monomials(n)]
            for j, b in enumerate(basis):
                coeffs = expand_in_basis(b, basis, n)
                assert all(
                    c == (Poly.one(0) if k == j else Poly.zero(0))
                    for k, c in enumerate(coeffs)
                )
        for spec in ALL_SPECS:
            assert diff_kernel_series_check(spec, 10)
        kap = Poly.const(0, 1, (1, 0))
        assert kappa_of(ADDITIVE) == Poly.zero(0)
        assert kappa_of(MULTIPLICATIVE) == kap
        assert kappa_of(HYPERBOLIC) == kap
        assert kappa_of(LORENTZ) == Poly.zero(0)


def test_criterion_12_smooth_class_symmetry():
    with _budget(1.0):
        # the monomial formulas take no law parameter at all; evaluate
        # once per law anyway and require identical output
        rows = [smooth_monomial(2, 4, rows=1) for _ in ALL_SPECS]
        cols = [smooth_monomial(2, 4, cols=1) for _ in ALL_SPECS]
        assert all(p == rows[0] for p in rows)
        assert all(p == cols[0] for p in cols)
        assert rows[0] == Poly.monomial(4, (0, 0, 1, 1))
        assert cols[0] == Poly.monomial(4, (1, 1, 0, 0))
        line_add = gr24_smooth_poly(RectangleClass(1, 1), ADDITIVE)
        line_hyp = gr24_smooth_poly(RectangleClass(1, 1), HYPERBOLIC)
        assert line_add != line_hyp
