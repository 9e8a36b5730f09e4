"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against plain dicts and
Fractions, not against the library's own arithmetic, so a bug in the
package cannot hide inside its oracle.  There are two exceptions.  The
pair of division-based operators multiply, swap and divide with the
library's generic `Poly` arithmetic: they are the reference for the
table-driven operators in `schubfgl.ddo`, which use none of it.  And
`big_product_double` multiplies the ordered product S one linear factor
at a time with the library's Hecke arithmetic: it is the reference for
`schubfgl.hecke.big_product_s`, which groups the factors into A_i.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from schubfgl.fgl import FglSpec, diff_kernel
from schubfgl.hecke import HeckeElem, hecke_add, hecke_mul, hecke_one, hecke_scale, hecke_u
from schubfgl.polycore import Poly


def naive_mul(f: Poly, g: Poly) -> Poly:
    """Double-loop convolution product."""
    acc: dict = {}
    for (xe, mu), c in f.terms.items():
        for (ye, nu), d in g.terms.items():
            key = (
                tuple(a + b for a, b in zip(xe, ye)),
                (mu[0] + nu[0], mu[1] + nu[1]),
            )
            acc[key] = acc.get(key, 0) + c * d
    return Poly(f.nvars, acc)


def classical_ddiff(f: Poly, i: int) -> Poly:
    """The additive divided difference (f - s_i f) / (x_i - x_{i+1}).

    Works termwise: x^a y^b with a > b contributes the geometric block
    sum_{t=b}^{a-1} x^t y^{a+b-1-t}, the a < b case is its negative,
    and a = b dies.  No polynomial division anywhere.
    """
    acc: dict = {}
    for (xe, mu), c in f.terms.items():
        a, b = xe[i - 1], xe[i]
        if a == b:
            continue
        sign = 1 if a > b else -1
        lo, hi = min(a, b), max(a, b)
        for t in range(lo, hi):
            exps = list(xe)
            exps[i - 1], exps[i] = t, a + b - 1 - t
            key = (tuple(exps), mu)
            acc[key] = acc.get(key, 0) + sign * c
    return Poly(f.nvars, acc)


def _kernel_at(spec: FglSpec, nvars: int, i: int, swapped: bool) -> Poly:
    pos = (i + 1, i) if swapped else (i, i + 1)
    return diff_kernel(spec).inject_vars(nvars, pos)


def division_apply_c(spec: FglSpec, i: int, f: Poly) -> Poly:
    """C_i(f) = (f p - sigma_i(f p)) / (x_i - x_{i+1}) with p = p(x_i, x_{i+1})."""
    fp = f * _kernel_at(spec, f.nvars, i, False)
    return (fp - fp.sigma(i)).div_diff(i)


def division_apply_delta(spec: FglSpec, i: int, f: Poly) -> Poly:
    """D_i(f) = -((f - sigma_i f) p(x_{i+1}, x_i)) / (x_i - x_{i+1})."""
    num = (f - f.sigma(i)) * _kernel_at(spec, f.nvars, i, True)
    return (-num).div_diff(i)


def oracle_apply_word(word, f: Poly) -> Poly:
    """Apply classical divided differences, first letter innermost."""
    for i in word:
        f = classical_ddiff(f, i)
    return f


def brute_reduced_words(oneline: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All reduced words by peeling right descents.

    Appending letter i multiplies on the right by s_i, so the last
    letter of a reduced word is always a right descent.
    """
    n = len(oneline)
    if all(oneline[i] == i + 1 for i in range(n)):
        return {()}
    out: set[tuple[int, ...]] = set()
    for i in range(1, n):
        if oneline[i - 1] > oneline[i]:
            shorter = list(oneline)
            shorter[i - 1], shorter[i] = shorter[i], shorter[i - 1]
            for word in brute_reduced_words(tuple(shorter)):
                out.add(word + (i,))
    return out


def _monomials_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        out.extend((first,) + rest for rest in _monomials_of_degree(n - 1, d - first))
    return out


def _elementary_terms(n: int, k: int) -> list[tuple[int, ...]]:
    out = []
    for subset in combinations(range(n), k):
        exps = [0] * n
        for j in subset:
            exps[j] = 1
        out.append(tuple(exps))
    return out


def nf_linear_oracle(f: Poly, n: int) -> Poly:
    """Normal form modulo the symmetric ideal by plain linear algebra.

    Per mu-monomial and per x-degree d, the degree-d piece of the ideal
    is spanned by monomial multiples of the elementary symmetric
    polynomials.  Eliminating the non-staircase coordinates of that
    span and reducing f against the echelon rows leaves the unique
    staircase-supported representative.
    """
    slices: dict = {}
    for (xe, mu), c in f.terms.items():
        slices.setdefault((mu, sum(xe)), {})[xe] = c

    acc: dict = {}
    for (mu, d), vec in slices.items():
        mons = _monomials_of_degree(n, d)
        is_stair = [all(e[k] <= n - 1 - k for k in range(n)) for e in mons]
        # non-staircase columns first so every pivot lands on one
        order = [j for j, s in enumerate(is_stair) if not s] + [
            j for j, s in enumerate(is_stair) if s
        ]
        col_of = {mons[j]: pos for pos, j in enumerate(order)}
        rows: list[list[Fraction]] = []
        for k in range(1, n + 1):
            if k > d:
                break
            for m in _monomials_of_degree(n, d - k):
                row = [Fraction(0)] * len(mons)
                for e in _elementary_terms(n, k):
                    prod = tuple(a + b for a, b in zip(m, e))
                    row[col_of[prod]] += 1
                rows.append(row)
        # row echelon over the rationals
        pivots: list[tuple[int, list[Fraction]]] = []
        for row in rows:
            for pc, prow in pivots:
                if row[pc]:
                    factor = row[pc]
                    row = [a - factor * b for a, b in zip(row, prow)]
            lead = next((j for j, a in enumerate(row) if a), None)
            if lead is not None:
                inv = row[lead]
                pivots.append((lead, [a / inv for a in row]))
        target = [Fraction(0)] * len(mons)
        for xe, c in vec.items():
            target[col_of[xe]] = Fraction(c)
        for pc, prow in pivots:
            if target[pc]:
                factor = target[pc]
                target = [a - factor * b for a, b in zip(target, prow)]
        for pos, val in enumerate(target):
            if val:
                j = order[pos]
                assert is_stair[j], "reduction left a non-staircase coordinate"
                assert val.denominator == 1, "non-integer normal form"
                acc[(mons[j], mu)] = acc.get((mons[j], mu), 0) + int(val)
    return Poly(n, acc)


# classical Schubert polynomials for S_3, indexed by one-line notation
CLASSICAL_SCHUBERT_S3 = {
    (1, 2, 3): {((0, 0, 0), (0, 0)): 1},
    (2, 1, 3): {((1, 0, 0), (0, 0)): 1},
    (1, 3, 2): {((1, 0, 0), (0, 0)): 1, ((0, 1, 0), (0, 0)): 1},
    (2, 3, 1): {((1, 1, 0), (0, 0)): 1},
    (3, 1, 2): {((2, 0, 0), (0, 0)): 1},
    (3, 2, 1): {((2, 1, 0), (0, 0)): 1},
}


def big_product_double(n: int, spec: FglSpec) -> HeckeElem:
    """S written out factor by factor:
    prod_{j=1}^{n-1} prod_{i=n-1}^{j} (1 + x_j u_i)."""
    acc = hecke_one(n, spec)
    for j in range(1, n):
        xj = Poly.variable(n, j)
        for i in range(n - 1, j - 1, -1):
            acc = hecke_mul(
                acc, hecke_add(hecke_one(n, spec), hecke_scale(hecke_u(n, i, spec), xj))
            )
    return acc
