"""A generalized Hecke algebra with polynomial coefficients.

The algebra is the free module over Z[m1, m2][x_1..x_n] on basis
elements u_w indexed by permutations, with multiplication determined by

    u_i u_j = u_j u_i               for |i - j| > 1,
    u_i u_{i+1} u_i = u_{i+1} u_i u_{i+1},
    u_i^2 = -m1 u_i,
    scalars central,
    m2 x_i x_{i+1} u_i = 0.

The last relation generates, for each w, the ideal J_w spanned by terms
divisible by m2 x_j x_{j+1} with j in the support of w.  Since the
generators are monomials, reduction modulo J_w just deletes the
divisible terms, and every element here is kept reduced.

Every product the verifiers take is a product of linear factors
(1 + g u_j), as in the Fomin-Kirillov construction, so the only
multiplication here is one step on the right:

    u_w u_j = u_{w s_j}    if w(j) < w(j+1),
    u_w u_j = -m1 u_w      otherwise,

and e (1 + g u_j) = e + (e u_j) g built on it.  The general product of
two elements, u_w u_v = (-m1)^d u_{w*v} with w*v the Demazure product
and d the length drop, is kept in tests/oracles.py as the reference
these folds are checked against.

The central object is the ordered product

    S(x_1, ..., x_{n-1}) = A_1(x_1) A_2(x_2) ... A_{n-1}(x_{n-1}),
    A_i(x)  = (1 + x u_{n-1}) (1 + x u_{n-2}) ... (1 + x u_i),

whose coefficients recover the push-pull classes: the verifiers below
check -D_i(S) = S u_i, compare the coefficient of u_{w_0 w} with the
class of each reduced word of w, taken from schubert once per heap, and
the local factorization identities the first check rests on.  The
coefficient comparison gates on congruence modulo m2 times the quadratic
cone over the support window; deletion of the adjacent generators alone
is too narrow once n >= 3 and is reported as annotated diagnostics (see
in_window_cone).  Because m2 must stay a visible marker for the deletion
to make sense, the verifiers reject laws that specialize m2 to a nonzero
integer; m2 = 0 degenerations are fine (the ideal vanishes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .combi import (
    CapacityError,
    Permutation,
    Word,
    support_of,
)
from .ddo import OperatorContext, apply_delta
from .fgl import FglSpec, chi_difference, formal_inverse
from .polycore import PackedLayout, Poly, PolyError, _mk
from .report import CheckReport
from .schubert import grothendieck_polynomial, heap_keys, schubert


def ideal_delete(f: Poly, indices: frozenset[int] | set[int]) -> Poly:
    """Delete the terms divisible by m2 x_j x_{j+1} for some j in indices."""
    if not indices:
        return f
    pairs = [(j - 1, j) for j in indices]
    return _mk(f.nvars, {
        (exps, mu): c
        for (exps, mu), c in f.terms.items()
        if not (mu[1] and any(exps[a] and exps[b] for a, b in pairs))
    })


def in_pair_ideal(
    terms: dict[int, int], layout: PackedLayout, indices: frozenset[int] | set[int]
) -> bool:
    """Whether deleting the packed terms divisible by m2 x_j x_{j+1}, j in
    indices, leaves nothing, read up to the first term that survives.

    A term is divisible when its m2 field and the x_j and x_{j+1} fields
    of some j are all nonzero.
    """
    m2_shift = layout.m2_shift
    pairs = [
        (layout.mask << layout.x_shift(j), layout.mask << layout.x_shift(j + 1))
        for j in indices
    ]
    for key in terms:
        if not key >> m2_shift:
            return False
        for lo, hi in pairs:
            if key & lo and key & hi:
                break
        else:
            return False
    return True


def window_vars(indices: frozenset[int] | set[int]) -> frozenset[int]:
    """Variables x_j, x_{j+1} touched by the letters in indices."""
    vs: set[int] = set()
    for j in indices:
        vs.update((j, j + 1))
    return frozenset(vs)


def in_window_cone(
    terms: dict[int, int], layout: PackedLayout, indices: frozenset[int] | set[int]
) -> bool:
    """Whether every packed term is m2 times a monomial of degree >= 2 in
    the variables touched by indices.

    On the key: the m2 field is nonzero, and the window fields, masked
    out of the key, are neither all zero nor one unit of a single field.
    The m2 field is on top, so the smallest key decides the first test;
    the second stops at the first term that fails it.

    The letter j contributes the generator m2 x_j x_{j+1}, an adjacent
    quadratic in the window variables.  Divided differences do not fix
    the span of the adjacent quadratics alone: pushing a class of one
    reduced word towards another smears the generators across the whole
    window (C_1 applied to m2 x_2 x_3 g already produces a bare
    -m2 x_3 g term).  The quadratic cone over the window is stable
    enough for every comparison below, so congruence of word classes is
    taken modulo m2 times that cone.
    """
    if not terms:
        return True
    vs = window_vars(indices)
    window = sum(layout.mask << layout.x_shift(v) for v in vs)
    below_two = {0, *(1 << layout.x_shift(v) for v in vs)}
    # m2 is the top field, so the smallest key has the smallest m2 exponent
    return bool(min(terms) >> layout.m2_shift) and below_two.isdisjoint(
        map(window.__and__, terms)
    )


def _check_spec(spec: FglSpec) -> None:
    if spec.mu2 not in (None, 0):
        raise ValueError(
            "the Hecke algebra needs m2 symbolic or zero; a nonzero integer "
            "specialization erases the marker that drives ideal reduction"
        )


# Bound on the cap of verify_local_identities: its time grows about as
# cap^2.  At n = 5 under the hyperbolic law, the slowest, cap 60 took
# 0.19 s, 120 took 0.73 s and 160 took 1.34 s (in process, one run
# each, 2 shared CPUs, Python 3.11).
MAX_LOCAL_CAP = 120

# Walking every reduced word of S_n is exponential; S_5 (768 words for
# the longest element) is the supported ceiling of the Hecke verifiers.
MAX_ENUM_RANK = 5


def _check_rank(n: int) -> None:
    # reject before any product of alpha factors starts to grow
    if not 2 <= n <= MAX_ENUM_RANK:
        raise CapacityError(
            f"verifier rank n={n} outside the supported range [2, {MAX_ENUM_RANK}]"
        )


@dataclass
class HeckeElem:
    """An element sum_w c_w u_w, coefficients in Z[m1, m2][x_1..x_n].

    Stored coefficients are J_w-reduced and nonzero.
    """

    n: int
    spec: FglSpec
    coeffs: dict[Permutation, Poly] = field(default_factory=dict)

    def coefficient(self, w: Permutation) -> Poly:
        return self.coeffs.get(w, Poly.zero(self.n))

    def truncate(self, cap: int) -> "HeckeElem":
        return _mk_elem(
            self.n, self.spec, {w: c.truncate(cap) for w, c in self.coeffs.items()}
        )


def _mk_elem(n: int, spec: FglSpec, coeffs: dict[Permutation, Poly]) -> HeckeElem:
    clean: dict[Permutation, Poly] = {}
    for w, c in coeffs.items():
        red = ideal_delete(c, support_of(w))
        if not red.is_zero:
            clean[w] = red
    return HeckeElem(n, spec, clean)


def hecke_one(n: int, spec: FglSpec) -> HeckeElem:
    _check_spec(spec)
    return _mk_elem(n, spec, {Permutation.identity(n): Poly.one(n)})


def heckes_equal(e: HeckeElem, f: HeckeElem) -> bool:
    if e.n != f.n or e.spec != f.spec:
        raise ValueError("elements live over different contexts")
    return e.coeffs == f.coeffs


def _times_u_coeffs(e: HeckeElem, j: int) -> dict[Permutation, Poly]:
    """The coefficients of e u_j, not yet reduced."""
    minus_mu1 = -e.spec.mu1_poly(e.n)
    out: dict[Permutation, Poly] = {}
    for w, c in e.coeffs.items():
        if w(j) < w(j + 1):
            w = w.right_mul_simple(j)
        else:
            c = c * minus_mu1
        out[w] = out[w] + c if w in out else c
    return out


def hecke_times_u(e: HeckeElem, j: int) -> HeckeElem:
    """e u_j: u_w u_j = u_{w s_j} when w(j) < w(j+1), and -m1 u_w otherwise."""
    return _mk_elem(e.n, e.spec, _times_u_coeffs(e, j))


def hecke_times_factor(e: HeckeElem, j: int, g: Poly) -> HeckeElem:
    """e (1 + g u_j) = e + (e u_j) g.

    Deletion modulo J_w is linear and J_w is an ideal, so reducing the
    sum once gives what reducing e u_j, its product with g and the sum
    one after another gives.
    """
    out = dict(e.coeffs)
    for w, c in _times_u_coeffs(e, j).items():
        c = c * g
        out[w] = out[w] + c if w in out else c
    return _mk_elem(e.n, e.spec, out)


# ----------------------------------------------------------------------
# the ordered product S and its factors

def _times_alpha(e: HeckeElem, i: int, x: Poly) -> HeckeElem:
    """e A_i(x) = e (1 + x u_{n-1}) ... (1 + x u_i)."""
    for j in range(e.n - 1, i - 1, -1):
        e = hecke_times_factor(e, j, x)
    return e


def alpha_factor(n: int, i: int, x: Poly, spec: FglSpec) -> HeckeElem:
    """A_i(x) = (1 + x u_{n-1}) ... (1 + x u_i); A_n(x) = 1."""
    _check_spec(spec)
    if not 1 <= i <= n:
        raise ValueError(f"factor index {i} out of range [1, {n}]")
    return _times_alpha(hecke_one(n, spec), i, x)


def big_product_s(n: int, spec: FglSpec) -> HeckeElem:
    """S = A_1(x_1) A_2(x_2) ... A_{n-1}(x_{n-1}), one linear factor at a time."""
    acc = hecke_one(n, spec)
    for j in range(1, n):
        acc = _times_alpha(acc, j, Poly.variable(n, j))
    return acc


def _apply_delta_elem(e: HeckeElem, i: int) -> HeckeElem:
    """-D_i applied to every coefficient of e."""
    ctx = OperatorContext(e.spec, e.n)
    return _mk_elem(e.n, e.spec, {w: -apply_delta(ctx, i, c) for w, c in e.coeffs.items()})


# ----------------------------------------------------------------------
# verifiers

def _reduced_words(n: int) -> Iterator[tuple[tuple[int, ...], Word]]:
    """(w in one-line notation, word) for every reduced word of S_n, in trie
    order: word + (i,) is reduced exactly when w(i) < w(i + 1)."""
    stack = [(tuple(range(1, n + 1)), ())]
    while stack:
        w, word = stack.pop()
        yield w, word
        for i in range(n - 1, 0, -1):  # the smallest letter is popped first
            if w[i - 1] < w[i]:
                stack.append((w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:], word + (i,)))


def _word_class_cases(
    ctx: OperatorContext, reference: Callable[[Permutation], Poly]
) -> Iterator[tuple[str, tuple[bool, bool, bool]]]:
    """Compare the class of every reduced word of w with reference(w).

    The verdicts per word say whether the difference vanishes after
    window deletion for supp(w), and after adjacent-pair deletion for
    supp(w) and for supp(w_0 w).  The words of one heap
    (schubert.heap_keys) share w and the class, so the verdicts are taken
    on the class schubert.schubert gives the heap's first word and reused
    for the rest, on packed keys, with each reference packed once per w.
    The cases come ordered by (length, one-line notation) of w, then word.
    """
    w0 = Permutation.longest(ctx.nvars)
    per_w: dict[tuple[int, ...], tuple] = {}  # w -> (packed reference(w), supp(w), supp(w0*w))
    by_heap: dict[Word, tuple[bool, bool, bool]] = {}
    rows = []
    for oneline, word in _reduced_words(ctx.nvars):
        heap = heap_keys(word)[-1] if word else ()
        verdicts = by_heap.get(heap)
        if verdicts is None:
            layout, diff = schubert(ctx, word)
            if oneline not in per_w:
                w = Permutation(oneline)
                per_w[oneline] = layout.pack(reference(w)), support_of(w), support_of(w0 * w)
            ref, supp_w, supp_t = per_w[oneline]
            for key, c in ref.items():
                c = diff.get(key, 0) - c
                if c:
                    diff[key] = c
                else:
                    del diff[key]
            verdicts = by_heap[heap] = (
                in_window_cone(diff, layout, supp_w),
                in_pair_ideal(diff, layout, supp_w),
                in_pair_ideal(diff, layout, supp_t),
            )
        # a reduced word of w has length l(w); words are distinct, so the
        # sort is by (l(w), w, word) and never compares verdicts
        rows.append((len(word), oneline, word, verdicts))
    rows.sort()
    for _length, oneline, word, verdicts in rows:
        yield f"w=({','.join(map(str, oneline))}) word={word}", verdicts


def _add_word_class_cases(
    rep: CheckReport,
    cases: Iterator[tuple[str, tuple[bool, bool, bool]]],
    phrase: str,
    pairs_w_detail: str,
    pairs_t_detail: str,
) -> None:
    """Three cases per word of _word_class_cases: the gating window
    reading, then the two adjacent-pair readings, annotated."""
    pairs = (("supp(w)", pairs_w_detail), ("supp(w0*w)", pairs_t_detail))
    for label, (in_window, *in_pairs) in cases:
        rep.add(f"{label} {phrase} window(supp(w))", in_window)
        for (support, detail), ok in zip(pairs, in_pairs):
            rep.add(f"{label} {phrase} pairs({support})", ok, annotated=True, detail=detail)


def verify_fk_identity(spec: FglSpec, n: int) -> CheckReport:
    """-D_i(S) = S u_i for every i, then the coefficient comparison.

    For each w and each reduced word of w, the class of the word must be
    congruent to the coefficient of u_{w_0 w} in S.  The gating reading
    takes the congruence modulo m2 times the quadratic cone over the
    supp(w) window (see in_window_cone); that reading holds for every
    case up to n = 5.  Two narrower readings, deletion of the adjacent
    generators for supp(w) and for supp(w_0 w), are evaluated as
    annotated cases: the supp(w_0 w) one fails already for n = 2,
    w = s_1 (the coefficient of u_e is 1 while the class of the word
    (1,) is 1 - m2 x_1 x_2, and the empty support deletes nothing), and
    the supp(w) one fails first at n = 3, where the class of the word
    (1, 2) leaves the residue -m2 x_1^2 x_3, divisible by no adjacent
    pair.  At m2 = 0 all three readings coincide with exact equality.
    """
    _check_spec(spec)
    _check_rank(n)
    rep = CheckReport(f"fk-identity[{spec.label()},n={n}]")
    S = big_product_s(n, spec)
    for i in range(1, n):
        rep.add(f"-D_{i}(S) = S u_{i}", heckes_equal(_apply_delta_elem(S, i), hecke_times_u(S, i)))

    w0 = Permutation.longest(n)
    cases = _word_class_cases(OperatorContext(spec, n), lambda w: S.coefficient(w0 * w))
    _add_word_class_cases(
        rep,
        cases,
        "congruence mod",
        "adjacent-pair generators only; fails from n = 3 on "
        "because divided differences leak residues across the window",
        "adjacent-pair generators only; fails when supp(w0*w) "
        "misses indices that the class difference needs",
    )
    return rep


def verify_coeff_corollary(spec: FglSpec, n: int) -> CheckReport:
    """Word classes agree with the m2 = 0 class modulo window deletion.

    For every w and every reduced word, the difference between the class
    of the word and the word-independent m2 = 0 class of w must vanish
    after window deletion for supp(w).  Membership in the adjacent-pair
    ideals for supp(w) and supp(w_0 w) is reported as annotated
    information; both narrower readings fail from n = 3 on, with the
    same residues as the coefficient comparison.
    """
    _check_spec(spec)
    _check_rank(n)
    rep = CheckReport(f"coeff-corollary[{spec.label()},n={n}]")
    ctx = OperatorContext(spec, n)
    cases = _word_class_cases(ctx, lambda w: grothendieck_polynomial(ctx, w))
    detail = "adjacent-pair generators only; reported for information"
    _add_word_class_cases(rep, cases, "difference in", detail, detail)
    return rep


def verify_local_identities(spec: FglSpec, n: int, cap: int) -> CheckReport:
    """The four local factorization identities, as series through degree cap.

    Series are expanded with two guard degrees beyond cap because the
    operator D shifts the effect of a truncated tail down by one degree;
    comparisons then truncate back to cap, where they are exact.

      (0) (1 + x_{i+1} u_i)(1 + chi(x_{i+1}) u_i) = 1
      (1) A_{i+1}(x_{i+1}) = A_i(x_{i+1}) (1 + chi(x_{i+1}) u_i)
      (2) 1 + chi(x_i) u_i = (1 + F(x_{i+1}, chi(x_i)) u_i)(1 + chi(x_{i+1}) u_i)
      (3) -D_i(1 + chi(x_{i+1}) u_i) = (1 + chi(x_{i+1}) u_i) u_i

    (2) and (3) hold modulo the deletion ideal, which the element
    representation applies automatically.  chi and F(x, chi(y)) are
    the closed forms of fgl, taken once per report in one and two
    variables and relabelled for each i.
    """
    _check_spec(spec)
    _check_rank(n)
    if cap < 4:
        raise PolyError("cap below 4 is too weak to distinguish the series")
    if cap > MAX_LOCAL_CAP:
        raise CapacityError(f"the local identities are limited to cap {MAX_LOCAL_CAP}, got {cap}")
    W = cap + 2
    rep = CheckReport(f"local-identities[{spec.label()},n={n},cap={cap}]")
    one = hecke_one(n, spec)
    chi = formal_inverse(spec, W)
    f_chi = chi_difference(spec, W)
    for i in range(1, n):
        xi1 = Poly.variable(n, i + 1)
        chi_i1 = chi.inject_vars(n, (i + 1,))
        chi_factor = hecke_times_factor(one, i, chi_i1)
        lhs0 = hecke_times_factor(hecke_times_factor(one, i, xi1), i, chi_i1)
        rep.add(f"(0) i={i}", heckes_equal(lhs0.truncate(cap), one))

        lhs1 = alpha_factor(n, i + 1, xi1, spec)
        rhs1 = hecke_times_factor(alpha_factor(n, i, xi1, spec), i, chi_i1)
        rep.add(f"(1) i={i}", heckes_equal(lhs1.truncate(cap), rhs1.truncate(cap)))

        lhs2 = hecke_times_factor(one, i, chi.inject_vars(n, (i,)))
        rhs2 = hecke_times_factor(
            hecke_times_factor(one, i, f_chi.inject_vars(n, (i + 1, i))), i, chi_i1
        )
        rep.add(f"(2) i={i}", heckes_equal(lhs2.truncate(cap), rhs2.truncate(cap)))

        lhs3 = _apply_delta_elem(chi_factor, i)
        rhs3 = hecke_times_u(chi_factor, i)
        rep.add(f"(3) i={i}", heckes_equal(lhs3.truncate(cap), rhs3.truncate(cap)))
    return rep


def verify_ybe(spec: FglSpec, n: int) -> CheckReport:
    """A_i(x_i) A_i(x_{i+1}) = A_i(x_{i+1}) A_i(x_i), exactly.

    Coefficients are polynomials, so no truncation is involved.
    """
    _check_spec(spec)
    _check_rank(n)
    rep = CheckReport(f"ybe[{spec.label()},n={n}]")
    for i in range(1, n):
        xi, xi1 = Poly.variable(n, i), Poly.variable(n, i + 1)
        ab = _times_alpha(alpha_factor(n, i, xi, spec), i, xi1)
        ba = _times_alpha(alpha_factor(n, i, xi1, spec), i, xi)
        rep.add(f"i={i}", heckes_equal(ab, ba))
    return rep
