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

Reduction runs on the packed keys of polycore.GradedLayout (x-degree,
x_n, ..., x_1, m1, m2, most significant first), one int per term: the
one key format of the package, which the operators of ddo and the
printer use too, here in nf_layout's field widths.  A Poly enters once,
through reduce_polys, and its normal form stays packed (a Basis keeps
those of its classes): reduce and table print it as it is, and
expand_packed builds its columns on the same keys and answers packed,
in no variables.  It eliminates fraction-free on sparse rows, one dict
per key: each pivot changes only the rows that hold its column.
Monomial normal forms are kept in one memo per rank, keyed by a key's
x-part and shared by all calls; all ranks together hold at most
_NF_MEMO_MAX (262,144) entries plus one rewrite closure.  Closed forms
(_closed_form) answer an exponent >= n and the top degree unrewritten.
Every rewrite is rank-bounded where it happens: above MAX_REWRITE_RANK
a monomial that needs rewriting raises CapacityError, whichever caller
asked.  Staircase monomials, monomials above the top degree and those
a closed form answers need none, so they are answered at any rank.  An
expansion is bounded by its unknown count: above MAX_EXPAND_UNKNOWNS,
expand_packed raises CapacityError before it builds a column.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, gcd

from .combi import CapacityError
from .fgl import FglSpec, chi_difference
from .polycore import MU_ZERO, GradedLayout, Poly, PolyError, XExp, _mk, short_product
from .report import CheckReport


# A monomial's rewrite can pass through every monomial of its degree
# whose exponents are below n (the closed forms answer the others and the
# top degree): at rank 7 the slowest found, x_5^2 x_6^6 x_7^6, takes about
# 0.6 s and 32 MB in a fresh process; at rank 8 degree 22 alone holds
# 1.6 million monomials.  _rewrite holds every rewrite to this rank.
MAX_REWRITE_RANK = 7

# An expansion has one unknown per basis class and admissible m1^a m2^b,
# and the degree gap, which nothing else bounds, sets how many m1^a m2^b
# there are.  Over the six staircase monomials of rank 3, `expand` on
# m1^e x_1 has 3e + 6 unknowns, and its sparse elimination takes 0.5 ms
# at 66, 1.6 ms at 156 and 5 ms at 300 (2 shared CPUs, Python 3.11); a
# dense system still grows with the cube of the unknowns.  The largest
# expansion of the suites is the Gr(3,6) cross-check, 60 unknowns over
# 192 rows.
MAX_EXPAND_UNKNOWNS = 300

# At rank 7 the deformed Vandermonde check takes 0.18-0.63 s and at most
# 33 MB in a fresh process (four laws, 2 shared CPUs, Python 3.11); at
# rank 8, with MAX_REWRITE_RANK lifted, 1.7 s and 90 MB (multiplicative)
# and 3.3-3.9 s and 180 MB (hyperbolic).
MAX_VANDERMONDE_RANK = 7


class NotInSpanError(ValueError):
    """The polynomial is not an integral combination of the basis."""


class BasisDependenceError(ValueError):
    """The proposed basis is linearly dependent modulo S."""


# ----------------------------------------------------------------------
# rewriting

def nf_layout(n: int, mu_top: int) -> GradedLayout:
    """The GradedLayout of rank n for mu exponents up to mu_top: x fields of
    top.bit_length() bits hold every monomial of degree <= top = n(n-1)/2."""
    return GradedLayout(n, (n * (n - 1) // 2).bit_length(), mu_top.bit_length())


# one entry per (k, n) with k <= n: 55 keys reach rank 10
@lru_cache(maxsize=64)
def _replacement_monomials(k: int, n: int) -> tuple[int, ...]:
    """Monomials of h_{n-k+1}(x_1..x_k) other than x_k^{n-k+1}, as
    x-parts of nf_layout(n) with an empty degree field."""
    shift = nf_layout(n, 0).x_shift
    return tuple(
        sum(1 << shift(i + 1) for i in combo)
        for combo in combinations_with_replacement(range(k), n - k + 1)
        if combo[0] != k - 1  # x_k^{n-k+1} itself
    )


# Normal forms of the monomials met while rewriting, one dict per rank
# keyed by x-part and shared by all calls.  An entry lists (staircase
# x-part, coeff) pairs and may be empty (x_1^n is 0).  All ranks are
# emptied before a rewrite once together they hold more than
# _NF_MEMO_MAX entries.
_Entry = tuple[tuple[int, int], ...]
_NF_MEMO: dict[int, dict[int, _Entry]] = {}
_NF_MEMO_MAX = 1 << 18


def _monomial_normal_form(x: int, n: int) -> _Entry:
    """Normal form of the x-part x (degree <= top), an _NF_MEMO entry.

    Every monomial a rewrite gives keeps the degree and x_{k+1}..x_n and
    lowers x_k, so it is a smaller int: the closure of x that the memo
    lacks is collected, then settled in int order, children first.
    """
    memo = _NF_MEMO.setdefault(n, {})
    known = memo.get(x)
    if known is not None:
        return known
    if sum(map(len, _NF_MEMO.values())) > _NF_MEMO_MAX:
        for rank_memo in _NF_MEMO.values():
            rank_memo.clear()
    todo: dict[int, tuple[int, tuple[int, ...]]] = {}  # member -> its _rewrite
    stack = [x]
    while stack:
        e = stack.pop()
        if e in memo or e in todo:
            continue
        closed = _closed_form(e, n)
        step = None if closed is not None else _rewrite(e, n)
        if step is None:
            memo[e] = ((e, 1),) if closed is None else closed
        else:
            todo[e] = step
            stack.extend([step[0] + rep for rep in step[1]])
    for e, (base, reps) in sorted(todo.items()):
        acc: dict[int, int] = {}
        for rep in reps:
            for e2, c2 in memo[base + rep]:
                acc[e2] = acc.get(e2, 0) - c2
        memo[e] = tuple([(e2, c) for e2, c in acc.items() if c])
    return memo[x]


def _closed_form(x: int, n: int) -> _Entry | None:
    """The normal form of the x-part x where it is known without a rewrite,
    else None: 0 if an exponent is >= n (x_i^n lies in S); at the top degree
    sgn(sigma) x^delta for x = x^sigma(delta), delta = (n-1, ..., 1, 0), and
    0 for any other x (Bernstein, Gelfand and Gelfand, 1973)."""
    top = n * (n - 1) // 2
    width = top.bit_length()
    mask = (1 << width) - 1
    exps = [x >> i * width & mask for i in range(n)]
    if any(e >= n for e in exps):
        return ()
    if x >> n * width != top:
        return None
    if len(set(exps)) < n:
        return ()
    inversions = sum(a < b for i, a in enumerate(exps) for b in exps[i + 1:])
    delta = sum((n - k) << (k - 1) * width for k in range(1, n + 1))
    return ((top << n * width | delta, -1 if inversions % 2 else 1),)


def _rewrite(x: int, n: int) -> tuple[int, tuple[int, ...]] | None:
    """(base, reps): x rewrites to minus the sum of the x-parts base + rep,
    rep in reps (None for a staircase x), for the last violating x_k;
    CapacityError above MAX_REWRITE_RANK."""
    width = (n * (n - 1) // 2).bit_length()
    mask = (1 << width) - 1
    for k in range(n, 0, -1):
        if x >> (k - 1) * width & mask > n - k:
            if n > MAX_REWRITE_RANK:
                raise CapacityError(
                    f"normal forms that rewrite are limited to rank {MAX_REWRITE_RANK}, got {n}"
                )
            return x - ((n - k + 1) << (k - 1) * width), _replacement_monomials(k, n)
    return None


def reduce_packed(terms: dict[int, int], layout: GradedLayout) -> dict[int, int]:
    """The staircase normal form of terms packed in layout, an nf_layout.

    Terms above the top degree n(n-1)/2 are 0 modulo S (a rewrite keeps
    the degree and no staircase monomial is that high) and are dropped
    unread; the others go through _NF_MEMO by their x-part.
    """
    n = layout.nvars
    limit = (n * (n - 1) // 2 + 1) << layout.deg_shift
    mu_bits = 2 * layout.muwidth
    mu_mask = (1 << mu_bits) - 1
    memo = _NF_MEMO.setdefault(n, {})
    out: dict[int, int] = {}
    get = out.get
    misses = []
    for key, c in terms.items():
        if key < limit:
            nf = memo.get(key >> mu_bits)
            if nf is None:
                misses.append(key)
                continue
            mu = key & mu_mask
            for x2, c2 in nf:
                k = x2 << mu_bits | mu
                out[k] = get(k, 0) + c * c2
    # misses smallest first, so each closure reuses those before it; at rank
    # 7 the Vandermonde check makes 9,328 rewrites (multiplicative) either way
    for key in sorted(misses):
        c, mu = terms[key], key & mu_mask
        for x2, c2 in _monomial_normal_form(key >> mu_bits, n):
            k = x2 << mu_bits | mu
            out[k] = get(k, 0) + c * c2
    return {k: c for k, c in out.items() if c}


def reduce_polys(
    polys: list[Poly], n: int, mu_top: int = 0,
) -> tuple[GradedLayout, list[dict[int, int]]]:
    """The staircase normal forms of polys, each packed once into one
    nf_layout(n, m) and reduced there; m is the largest of top = n(n-1)/2,
    mu_top and the mu exponents of polys.

    Terms above the top degree are 0 and are dropped while packing.  Each
    polynomial must have n variables; above MAX_REWRITE_RANK a term that
    needs a rewrite raises CapacityError.
    """
    top = n * (n - 1) // 2
    layout = nf_layout(n, max(top, mu_top, *[m for f in polys for _x, mu in f.terms for m in mu]))
    out = []
    for f in polys:
        if f.nvars != n:
            raise PolyError(f"expected a polynomial in {n} variables, got {f.nvars}")
        out.append(reduce_packed(layout.pack(f, top), layout))
    return layout, out


# ----------------------------------------------------------------------
# exact expansion in a basis

def nf_degree(layout: GradedLayout, terms: dict[int, int]) -> int | None:
    """The graded degree of packed terms, None unless they are nonzero and
    graded-homogeneous."""
    ds, mw = layout.deg_shift, layout.muwidth
    mask = (1 << mw) - 1
    degs = {(k >> ds) - (k >> mw & mask) - 2 * (k & mask) for k in terms}
    return degs.pop() if len(degs) == 1 else None


def basis_degrees(degrees: list[int | None]) -> list[int]:
    """degrees, the graded degree of every basis element or None.

    Raises PolyError unless every element is graded-homogeneous and
    nonzero, i.e. has a degree.
    """
    for j, deg in enumerate(degrees):
        if deg is None:
            raise PolyError(f"basis element {j} must be graded-homogeneous and nonzero")
    return degrees


def expand_packed(
    layout: GradedLayout, target: dict[int, int], tdeg: int,
    nfs: list[dict[int, int]], degs: list[int],
) -> tuple[GradedLayout, list[dict[int, int]]]:
    """target as an integral Z[m1, m2]-combination of nfs: the coefficient
    of each element, packed in GradedLayout(0, xwidth, muwidth) of layout's
    widths, where m1^a m2^b is the key a << muwidth | b.

    target and nfs are normal forms in layout, of graded degrees tdeg and
    degs; the grading pins down which m1^a m2^b may appear in each
    coefficient (a + 2b equals the degree gap), and multiplying by one is
    one int add.  A column term then has mu exponents summing to at most
    top - tdeg, which the mu fields of layout must hold.  Raises
    NotInSpanError when no exact integral combination exists and
    BasisDependenceError when nfs are linearly dependent, and
    CapacityError, before any column is built, when there would be more
    than MAX_EXPAND_UNKNOWNS unknowns.
    """
    coeff_layout = GradedLayout(0, layout.xwidth, layout.muwidth)
    if not target:
        return coeff_layout, [{} for _ in nfs]
    count = sum((bdeg - tdeg) // 2 + 1 for bdeg in degs if bdeg >= tdeg)
    if count > MAX_EXPAND_UNKNOWNS:
        raise CapacityError(
            f"expansion needs {count} unknowns, above the bound of {MAX_EXPAND_UNKNOWNS}:"
            " the degree gap between the input and the basis is too large"
        )
    # unknowns: one per basis element j and admissible m1^a m2^b, none
    # when the gap is negative, as (j, key of m1^a m2^b)
    unknowns: list[tuple[int, int]] = []
    columns: list[dict[int, int]] = []
    for j, (nf_b, bdeg) in enumerate(zip(nfs, degs)):
        if not nf_b:
            raise BasisDependenceError(f"basis element {j} vanishes modulo S")
        gap = bdeg - tdeg
        for b2 in range(gap // 2 + 1):
            shift = (gap - 2 * b2) << layout.muwidth | b2
            unknowns.append((j, shift))
            columns.append({key + shift: c for key, c in nf_b.items()})

    # one sparse row per key, column -> nonzero entry, the target in column width
    width = len(unknowns)
    rows: dict[int, dict[int, int]] = {}
    for ci, col in enumerate((*columns, target)):
        for key, c in col.items():
            rows.setdefault(key, {})[ci] = c

    # fraction-free elimination, column by column: the sparsest row holding
    # the column becomes its pivot row, and only the other rows holding it
    # change, each to (p * row - f * pivot row) / gcd(p, f) over its content
    pivots: list[tuple[int, dict[int, int]]] = []
    rest = list(rows.values())
    for c in range(width):
        hold = [row for row in rest if c in row]
        if not hold:
            continue
        rest = [row for row in rest if c not in row]
        prow = min(hold, key=len)
        p = prow[c]
        pivots.append((c, prow))
        for row in hold:
            if row is not prow:
                f = row[c]
                g = gcd(p, f)
                a, b = p // g, f // g
                new = {k: a * v for k, v in row.items()}
                for k, v in prow.items():
                    new[k] = new.get(k, 0) - b * v
                if new := {k: v for k, v in new.items() if v}:
                    g = gcd(*new.values())
                    rest.append({k: v // g for k, v in new.items()})
    # what is left holds only the target column
    if rest:
        raise NotInSpanError("polynomial is not in the span of the basis")
    if len(pivots) < width:
        raise BasisDependenceError("basis is not linearly independent modulo S")

    # back-substitution, last pivot first: sol[width] = -1 brings the target
    # over, and sol[c] is still 0 when its own row is read
    sol = [0] * width + [-1]
    for c, prow in reversed(pivots):
        sol[c], rem = divmod(-sum([v * sol[k] for k, v in prow.items()]), prow[c])
        if rem:
            raise NotInSpanError("no integral combination exists")

    out: list[dict[int, int]] = [{} for _ in nfs]
    for (j, shift), v in zip(unknowns, sol):
        if v:
            out[j][shift] = v
    return coeff_layout, out


class Basis(tuple):
    """Basis classes for expand_in_basis with their graded degrees (None unless
    graded-homogeneous and nonzero), largest mu exponent and normal forms,
    reduced once per layout: at most four layouts kept, shared, so never changed."""

    def __new__(cls, classes: list[Poly]) -> "Basis":
        self = super().__new__(cls, classes)
        self.degrees = [b.graded_degree()[1] for b in self]
        self.mu_top = max([m for b in self for _x, mu in b.terms for m in mu], default=0)
        self.forms: dict[GradedLayout, tuple[GradedLayout, list[dict[int, int]]]] = {}
        return self

    def reduced(self, n: int, mu_top: int) -> tuple[GradedLayout, list[dict[int, int]]]:
        """reduce_polys(self, n, mu_top), kept per layout unless it raises."""
        layout = nf_layout(n, max(n * (n - 1) // 2, mu_top, self.mu_top))
        if layout not in self.forms:
            if len(self.forms) >= 4:
                self.forms.clear()
            self.forms[layout] = reduce_polys(self, n, mu_top)
        return self.forms[layout]


def expand_in_basis(f: Poly, basis: list[Poly] | Basis, n: int) -> tuple[GradedLayout, list[dict[int, int]]]:
    """Write f modulo S as an integral Z[m1, m2]-combination of basis classes.

    f and every basis element must be graded-homogeneous.  The basis (a Basis
    keeps its forms for later calls) is checked and reduced, then f in the
    same layout, and expand_packed returns the packed coefficients.
    """
    basis = basis if isinstance(basis, Basis) else Basis(basis)
    homog, fdeg = f.graded_degree()
    if not homog:
        raise PolyError("expansion requires a graded-homogeneous polynomial")
    degs = basis_degrees(basis.degrees)
    # mu fields that hold every column and term; fdeg is None only when f is 0
    mu_top = max([n * (n - 1) // 2 - (fdeg or 0), basis.mu_top, *[m for _x, mu in f.terms for m in mu]])
    layout, nfs = basis.reduced(n, mu_top)
    _, (nf_f,) = reduce_polys([f], n, mu_top)
    return expand_packed(layout, nf_f, fdeg, nfs, degs)


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


@lru_cache(maxsize=MAX_VANDERMONDE_RANK)
def _reduced_alternant(n: int) -> dict[int, int]:
    """The Vandermonde product reduced on nf_layout(n, top), part (a) of
    vandermonde_check: the rank alone fixes it.  Shared, so never changed."""
    top = n * (n - 1) // 2
    layout = nf_layout(n, top)
    return reduce_packed(layout.pack(vandermonde_poly(n), top), layout)


@lru_cache(maxsize=4 * MAX_VANDERMONDE_RANK)
def _pair_factors(spec: FglSpec, n: int) -> list[dict[int, int]]:
    """Part (b)'s factors F(x_i, chi(x_j)) on nf_layout(n, top), x_i taking
    its factors from x_n down: at n = 5 (multiplicative) no product then
    holds more than 39 terms before its reduction, against 213 with the pairs
    in lexicographic order.  F(x, chi(y)) is moved by two shifts.  Shared."""
    top = n * (n - 1) // 2
    layout = nf_layout(n, top)
    mw, ds, x = layout.muwidth, layout.deg_shift, layout.x_shift
    factor = [(a, b, (a + b) << ds | m1 << mw | m2, c)
              for ((a, b), (m1, m2)), c in chi_difference(spec, top).terms.items()]
    return [{key + (a << x(i)) + (b << x(j)): c for a, b, key, c in factor}
            for i in range(1, n) for j in range(n, i, -1)]


def vandermonde_check(spec: FglSpec, n: int, cap: int) -> CheckReport:
    """Two congruences modulo S, checked on the keys of nf_layout(n, top).

    (a) The Vandermonde product, reduced once per rank and process as its
        determinant expansion of n! signed monomials, is n! times the top
        staircase monomial (independent of the law).
    (b) The deformed product of F(x_i, chi(x_j)) over i < j is congruent
        to the Vandermonde product.  Terms above the top degree
        top = n(n-1)/2 are 0 modulo S, so F(x, chi(y)) (fgl.chi_difference)
        is taken through top only, and cap, which must exceed it, only
        names the report.  Reducing is S-linear, so each factor is a
        short product through top, reduced at once; the last reduction
        is compared with part (a)'s.  Every factor and kept product has
        x-degree >= a + 2b, so top also bounds the mu exponents.
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
    layout = nf_layout(n, top)
    vdm = _reduced_alternant(n)
    rep.add(
        "part (a): product of (x_i - x_j) = n! * top staircase class",
        vdm == {key: factorial(n) for key in layout.pack(top_staircase_class(n), top)},
    )
    prod = {0: 1}  # the key of 1
    for pair in _pair_factors(spec, n):
        prod = reduce_packed(short_product(prod, pair, (top + 1) << layout.deg_shift), layout)
    rep.add(
        "part (b): product of F(x_i, chi(x_j)) = product of (x_i - x_j)",
        prod == vdm,
    )
    return rep
