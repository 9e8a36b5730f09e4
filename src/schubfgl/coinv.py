"""Normal forms modulo symmetric polynomials without constant term.

Let S be the ideal of Z[m1, m2][x_1..x_n] generated by the symmetric
polynomials with zero constant term.  Modulo S the complete homogeneous
polynomial h_{n-k+1}(x_1, ..., x_k) vanishes for every k, which yields
the rewriting rule

    x_k^{n-k+1}  ->  -(all other monomials of h_{n-k+1}(x_1..x_k)).

Iterating the rule terminates in the staircase normal form, where the
exponent of x_k is at most n - k.  The n! staircase monomials are a
Z[m1, m2]-basis of the quotient, the rewrite preserves total x-degree,
and the normal form of a product of two normal forms depends only on
the classes of the factors.  All of this powers exact expansion of a
class in a given basis with integer linear algebra.

Monomial normal forms are kept in one bounded memo shared by all calls.
Every rewrite is rank-bounded where it happens: above MAX_REWRITE_RANK
a monomial that needs rewriting raises CapacityError, whether
normal_form or expand_in_basis asked.  Staircase monomials and
monomials above the top degree need none, so they are answered at any
rank.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial
from operator import add

from .combi import CapacityError
from .fgl import FglSpec, chi_difference
from .polycore import MU_ZERO, Poly, PolyError, XExp, _mk
from .report import CheckReport


# A monomial's rewrite can pass through every monomial of its degree: at
# rank 7 and the top degree 21 that is 296,010 monomials, about 5 s and
# 100 MB; at rank 8 and degree 28 it is 6.7 million.  _rewrite holds
# every rewrite to this rank.
MAX_REWRITE_RANK = 7

# At rank 6 the deformed Vandermonde check takes at most 1.2 s, most of
# it filling _NF_MEMO; the multiplicative one took 134 s and 269 MB at
# rank 7.
MAX_VANDERMONDE_RANK = 6


class NotInSpanError(ValueError):
    """The polynomial is not an integral combination of the basis."""


class BasisDependenceError(ValueError):
    """The proposed basis is linearly dependent modulo S."""


# ----------------------------------------------------------------------
# rewriting

# one entry per (k, n) with k <= n: 55 keys reach rank 10
@lru_cache(maxsize=64)
def _replacement_monomials(k: int, n: int) -> tuple[XExp, ...]:
    """Monomials of h_{n-k+1}(x_1..x_k) other than x_k^{n-k+1}.

    Exponent vectors come back in full length n.
    """
    out = []
    for combo in combinations_with_replacement(range(k), n - k + 1):
        if combo[0] == k - 1:  # x_k^{n-k+1} itself
            continue
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(out)


# Normal forms of the monomials met while rewriting, keyed by exponent
# vector (its length is the rank), shared by all calls.  The only
# normal-form cache: emptied before a rewrite once it holds more than
# _NF_MEMO_MAX entries.  An entry may be empty (x_1^n is 0 modulo S).
_NF_MEMO: dict[XExp, tuple[tuple[XExp, int], ...]] = {}
_NF_MEMO_MAX = 1 << 18


def _monomial_normal_form(exps: XExp, n: int) -> tuple[tuple[XExp, int], ...]:
    """Normal form of a single x-monomial as ((staircase exps, coeff), ...).

    A monomial whose last violating variable is x_k rewrites to minus the
    sum of the monomials subs(e) that replace x_k^{n-k+1} by the other
    monomials of h_{n-k+1}(x_1..x_k).  Those leave x_{k+1}..x_n alone and
    lower x_k, so each comes before e when exponents are compared from
    x_n down to x_1.  The rewrite closure of exps that _NF_MEMO lacks is
    collected first, then settled in that order, children before parents.
    """
    memo = _NF_MEMO
    known = memo.get(exps)
    if known is not None:
        return known
    if len(memo) > _NF_MEMO_MAX:
        memo.clear()
    todo = set()
    stack = [exps]
    while stack:
        e = stack.pop()
        if e in memo or e in todo:
            continue
        subs = _rewrite(e, n)
        if subs is None:
            memo[e] = ((e, 1),)
        else:
            todo.add(e)
            stack.extend(subs)
    for e in sorted(todo, key=lambda e: e[::-1]):
        acc: dict[XExp, int] = {}
        for sub in _rewrite(e, n):
            for e2, c2 in memo[sub]:
                acc[e2] = acc.get(e2, 0) - c2
        memo[e] = tuple(sorted((e2, c) for e2, c in acc.items() if c))
    return memo[exps]


def _rewrite(e: XExp, n: int) -> list[XExp] | None:
    """The monomials whose negated sum e rewrites to; None for a staircase e.

    Raises CapacityError when e needs a rewrite above MAX_REWRITE_RANK.
    """
    for k in range(n, 0, -1):
        if e[k - 1] > n - k:
            if n > MAX_REWRITE_RANK:
                raise CapacityError(
                    f"normal forms that rewrite are limited to rank {MAX_REWRITE_RANK}, got {n}"
                )
            base = list(e)
            base[k - 1] -= n - k + 1
            return [tuple(map(add, base, rep)) for rep in _replacement_monomials(k, n)]
    return None


def normal_form(f: Poly, n: int) -> Poly:
    """The staircase normal form of f modulo S.

    Every monomial of x-degree above the top staircase degree n(n-1)/2
    is 0 modulo S (the rewrite keeps the degree and no staircase
    monomial is that high), so such terms are dropped unread.  Other
    terms go through _NF_MEMO; above MAX_REWRITE_RANK a term that is
    not a staircase monomial raises CapacityError.
    """
    if f.nvars != n:
        raise PolyError(f"expected a polynomial in {n} variables, got {f.nvars}")
    top = n * (n - 1) // 2
    memo = _NF_MEMO
    out: dict = {}
    for (exps, mu), c in f.terms.items():
        if sum(exps) > top:
            continue
        nf = memo.get(exps)
        if nf is None:
            nf = _monomial_normal_form(exps, n)
        for e2, c2 in nf:
            key = (e2, mu)
            s = out.get(key, 0) + c * c2
            if s:
                out[key] = s
            else:
                del out[key]
    return _mk(n, out)


# ----------------------------------------------------------------------
# exact expansion in a basis

def _bareiss_echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination; returns (echelon rows, pivot cols).

    Rows carry the augmented column at index ncols.  All intermediate
    entries stay integral (each division is exact by construction).
    """
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, len(m)):
            if m[rr][c]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pc = m[r][c]
        for rr in range(r + 1, len(m)):
            factor = m[rr][c]
            for cc in range(c, ncols + 1):
                m[rr][cc] = (m[rr][cc] * pc - factor * m[r][cc]) // prev
        prev = pc
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def basis_degrees(basis: list[Poly]) -> list[int]:
    """The graded degree of every basis element.

    Raises PolyError unless every element is graded-homogeneous and nonzero.
    """
    degs = []
    for j, b in enumerate(basis):
        homog, deg = b.graded_degree()
        if not homog or deg is None:
            raise PolyError(f"basis element {j} must be graded-homogeneous and nonzero")
        degs.append(deg)
    return degs


def expand_in_basis(f: Poly, basis: list[Poly], n: int) -> list[Poly]:
    """Write f modulo S as an integral Z[m1, m2]-combination of basis classes.

    f and every basis element must be graded-homogeneous; the grading
    pins down which monomials m1^a m2^b may appear in each coefficient
    (a + 2b equals the degree gap).  Returns one constant Poly (zero
    variables) per basis element.  Raises NotInSpanError when no exact
    integral combination exists and BasisDependenceError when the basis
    is linearly dependent modulo S.
    """
    homog, fdeg = f.graded_degree()
    if not homog:
        raise PolyError("expansion requires a graded-homogeneous polynomial")
    degs = basis_degrees(basis)
    nfs = [normal_form(b, n) for b in basis]
    nf_f = normal_form(f, n)
    if nf_f.is_zero:
        return [Poly.zero(0) for _ in basis]

    # Unknowns: one per basis element and admissible (a, b).
    unknowns: list[tuple[int, int, int]] = []
    columns: list[Poly] = []
    for j, (nf_b, bdeg) in enumerate(zip(nfs, degs)):
        if nf_b.is_zero:
            raise BasisDependenceError(f"basis element {j} vanishes modulo S")
        gap = bdeg - fdeg
        if gap < 0:
            continue
        for b2 in range(gap // 2 + 1):
            a = gap - 2 * b2
            unknowns.append((j, a, b2))
            columns.append(nf_b.mul_mu(a, b2))

    coords = sorted(
        {key for col in columns for key in col.terms} | set(nf_f.terms),
    )
    coord_index = {key: i for i, key in enumerate(coords)}
    rows = [[0] * (len(unknowns) + 1) for _ in coords]
    for ci, col in enumerate(columns):
        for key, c in col.terms.items():
            rows[coord_index[key]][ci] = c
    for key, c in nf_f.terms.items():
        rows[coord_index[key]][len(unknowns)] = c

    ech, pivots = _bareiss_echelon(rows, len(unknowns))
    rank = len(pivots)
    for row in ech[rank:]:
        if row[len(unknowns)]:
            raise NotInSpanError("polynomial is not in the span of the basis")
    if rank < len(unknowns):
        raise BasisDependenceError("basis is not linearly independent modulo S")

    sol = [0] * len(unknowns)
    for r in range(rank - 1, -1, -1):
        c = pivots[r]
        acc = ech[r][len(unknowns)]
        for cc in range(c + 1, len(unknowns)):
            acc -= ech[r][cc] * sol[cc]
        sol[c], rem = divmod(acc, ech[r][c])
        if rem:
            raise NotInSpanError("no integral combination exists")

    out = [Poly.zero(0) for _ in basis]
    for (j, a, b2), v in zip(unknowns, sol):
        if v:
            out[j] = out[j] + Poly.const(0, v, (a, b2))
    return out


# ----------------------------------------------------------------------
# Vandermonde congruences

def vandermonde_poly(n: int) -> Poly:
    """The product of (x_i - x_j) over i < j, as its determinant expansion.

    The product is det(x_i^(n-j)) = sum over permutations sigma of
    sgn(sigma) x^sigma(delta), delta = (n-1, ..., 1, 0): n! signed
    monomials, built without a multiplication.  The exponents 0, 1, ...,
    n-1 are placed in turn; a new one is larger than every exponent
    placed before it, so setting it at position p puts it after p
    smaller ones and turns the sign p times.
    """
    signed: list[tuple[XExp, int]] = [((), 1)]
    for d in range(n):
        signed = [
            (exps[:p] + (d,) + exps[p:], -s if p % 2 else s)
            for exps, s in signed
            for p in range(d + 1)
        ]
    return _mk(n, {(exps, MU_ZERO): s for exps, s in signed})


def top_staircase_class(n: int) -> Poly:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}, the top staircase monomial.

    The words of push-pull operators start from it (schubert), and the
    Vandermonde product is n! times it modulo S.
    """
    return Poly.monomial(n, tuple(n - k for k in range(1, n + 1)))


def vandermonde_check(spec: FglSpec, n: int, cap: int) -> CheckReport:
    """Two congruences modulo S.

    (a) The Vandermonde product is congruent to n! times the top
        staircase monomial (independent of the law).  The product is
        reduced once, as its determinant expansion of n! signed
        monomials, so this part multiplies nothing.
    (b) The deformed product of F(x_i, chi(x_j)) over i < j is congruent
        to the Vandermonde product.  Terms above the top staircase degree
        n(n-1)/2 are congruent to zero, so the series is taken through
        that degree only, and cap (which must exceed it) just names the
        report.  F(x, chi(y)) is fgl.chi_difference, in closed form in
        two variables, relabelled for each pair.  normal_form is
        S-linear, so the product is reduced after every factor, each
        multiply is a short product that skips the term pairs above the
        top degree, and the last reduction is compared with the normal
        form of part (a).
    """
    # below rank 2 both products are empty and the check would pass unread
    if n < 2:
        raise CapacityError(
            f"verifier rank n={n} outside the supported range [2, {MAX_VANDERMONDE_RANK}]"
        )
    if n > MAX_VANDERMONDE_RANK:
        raise CapacityError(
            f"the Vandermonde check is limited to rank {MAX_VANDERMONDE_RANK}, got {n}"
        )
    top = n * (n - 1) // 2
    if cap <= top:
        raise PolyError(f"cap must exceed the top staircase degree {top}")
    rep = CheckReport(f"vandermonde[{spec.label()},n={n},cap={cap}]")
    vdm = normal_form(vandermonde_poly(n), n)
    rep.add(
        "part (a): product of (x_i - x_j) = n! * top staircase class",
        vdm == top_staircase_class(n).scale(factorial(n)),
    )

    factor = chi_difference(spec, top)
    prod = Poly.one(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            prod = normal_form(prod.mul_truncated(factor.inject_vars(n, (i, j)), top), n)
    rep.add(
        "part (b): product of F(x_i, chi(x_j)) = product of (x_i - x_j)",
        prod == vdm,
    )
    return rep
