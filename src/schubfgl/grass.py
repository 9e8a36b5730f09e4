"""Grassmannian products: smooth classes times resolution classes.

A rectangle b^a inside the k x (n-k) box names a smooth Schubert
variety isomorphic to Gr(a, a+b).  Multiplying its class against the
resolution class of any partition lam collapses combinatorially: the
product is a single class (coefficient one) when lam contains the dual
rectangle, and zero otherwise.  The surviving partition is obtained by
dualizing lam in the ambient box and then dualizing again inside the
a x b box.

Two rules give the polynomials that cross-check the combinatorial rule
(multiply representatives, reduce to normal form, compare with the
predicted class).  The class of lam is the class of one word, its
class word (class_words): the letters of lam's boxes followed by a
reduced word of w_P.  On Gr(2,4) these are the six pullback words of
the resolutions, which stay resolutions after pulling back; that the
rule gives a resolution is known only there.  At m2 = 0 the classes are
word-independent, so the same words check any small Grassmannian
there.  The smooth class of b^a is a product of Chern-class factors in
the roots and the dual roots (smooth_class).  Both stay packed from the
class word to the report, in one layout per rank (class_layout).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .combi import (
    BoxPartition,
    CapacityError,
    Permutation,
    box_partitions,
    canonical_word,
    partition_dual,
    partition_dual_z,
    partition_leq,
    Word,
)
from .coinv import (MAX_REWRITE_RANK, basis_degrees, expand_packed, nf_degree, nf_layout,
                    reduce_packed)
from .ddo import OperatorContext
from .fgl import FglSpec, HYPERBOLIC, formal_inverse
from .polycore import GradedLayout, Poly, PolyError, short_product
from .report import CheckReport
from .schubert import schubert


@dataclass(frozen=True)
class GrassContext:
    """Gr(k, n) with a formal group law attached."""

    k: int
    n: int
    spec: FglSpec

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got k={self.k}, n={self.n}")

    @property
    def m(self) -> int:
        return self.n - self.k


@dataclass(frozen=True)
class RectangleClass:
    """The rectangle partition b^a: a rows of length b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError(f"rectangle needs a, b >= 1, got {self.a}x{self.b}")

    def validate(self, k: int, n: int) -> None:
        if self.a > k or self.b > n - k:
            raise ValueError(
                f"rectangle {self.a}x{self.b} does not fit the {k}x{n - k} box"
            )

    def as_partition(self, k: int, n: int) -> BoxPartition:
        self.validate(k, n)
        return BoxPartition(k, n - k, (self.b,) * self.a)


def rect_dual(r: RectangleClass, k: int, n: int) -> BoxPartition:
    """The smallest partition whose product with b^a survives.

    k - a full rows followed by a rows cut down to n - k - b.
    """
    r.validate(k, n)
    m = n - k
    return BoxPartition(k, m, (m,) * (k - r.a) + (m - r.b,) * r.a)


def smooth_product(
    ctx: GrassContext, r: RectangleClass, lam: BoxPartition
) -> BoxPartition | None:
    """[X_{b^a}] times the class of lam; None is the zero class.

    Nonzero exactly when lam contains rect_dual(r); then the result is
    the double dual: complement lam in the ambient box, then complement
    that inside a x b, padded back to the ambient box.  The point class
    is the all-zero partition, which is distinct from None.
    """
    if (lam.k, lam.m) != (ctx.k, ctx.m):
        raise ValueError(f"{lam} is not drawn in the {ctx.k}x{ctx.m} box")
    threshold = rect_dual(r, ctx.k, ctx.n)
    if not partition_leq(threshold, lam):
        return None
    inner = partition_dual(lam)
    # containment of the dual rectangle bounds the dual of lam by a x b
    dual_z = partition_dual_z(inner, r.a, r.b)
    out = BoxPartition(ctx.k, ctx.m, dual_z.parts)
    codim = ctx.k * ctx.m - r.a * r.b
    if out.size() != lam.size() - codim:
        raise AssertionError(
            f"weight bookkeeping broke: |{out}| != |{lam}| - {codim}"
        )
    return out


# ----------------------------------------------------------------------
# the class words and the smooth classes

# canonical display order of the six Gr(2,4) classes
GR24_ORDER: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2),
)


# one table per box: the 17 boxes verify chowk admits, Gr(2,4) among them, fit
@lru_cache(maxsize=32)
def class_words(k: int, n: int) -> MappingProxyType[tuple[int, ...], Word]:
    """The class word of every partition lam of the k x (n-k) box, keyed by
    its parts, in box_partitions order; a read-only view of one shared table.

    The boxes (r, c) of lam, read by decreasing r + c, give the letters
    k + c - r (within one antidiagonal the letters commute; they are read
    by increasing r).  A reduced word of w_P, the longest element of
    S_k x S_{n-k}, read right to left, follows.  The word is reduced and
    names w0 * w_{dual lam}.  Words are read innermost-first: (2, 3, 1)
    means apply C_2, then C_3, then C_1.
    """
    w_p = Permutation(tuple(range(k, 0, -1)) + tuple(range(n, k, -1)))
    tail = canonical_word(w_p)[::-1]
    words = {}
    for lam in box_partitions(k, n - k):
        boxes = sorted(
            ((r, c) for r, part in enumerate(lam.parts, 1) for c in range(1, part + 1)),
            key=lambda rc: (-rc[0] - rc[1], rc[0]),
        )
        words[lam.parts] = tuple(k + c - r for r, c in boxes) + tail
    return MappingProxyType(words)


def class_layout(n: int) -> GradedLayout:
    """The one layout of the classes and smooth classes of rank n:
    nf_layout(n, 4 * top), top = n(n-1)/2 (see _rule_cross_check)."""
    return nf_layout(n, 4 * (n * (n - 1) // 2))


def grass_classes(
    ctx: GrassContext, order: Iterable[tuple[int, ...]] | None = None
) -> dict[tuple[int, ...], dict[int, int]]:
    """The normal form of the class of every partition of the box, keyed by
    its parts, in order (box_partitions order by default): the class of its
    class word, moved from schubert's layout into class_layout(n), reduced."""
    words = class_words(ctx.k, ctx.n)
    octx = OperatorContext(ctx.spec, ctx.n)
    layout = class_layout(ctx.n)
    return {
        parts: reduce_packed(layout.repack(*schubert(octx, words[parts])), layout)
        for parts in order or words
    }


# one class per (law, box, rectangle); verify gr24 needs four per law
@lru_cache(maxsize=64)
def smooth_class(ctx: GrassContext, r: RectangleClass) -> dict[int, int]:
    """Normal form of the smooth class [X_{b^a}] of Gr(k, n), packed in
    class_layout(n); the dict is shared by every caller:

        (x_1 ... x_k)^(n-k-b) * e_b(chi(x_{k+1}), ..., chi(x_n))^(k-a).

    X_{b^a} = {E_{k-a} in V in E_{k+b}}; the first factor cuts out
    V in E_{k+b}, the second E_{k-a} in V.  The second is written in the
    dual roots chi(x_j): in the plain x_j it breaks the product rule at
    m1 != 0.  chi is truncated at the top staircase degree and everything
    stays packed; e_b is built one variable at a time, and the result is
    reduced after every factor.  Truncating and reducing are exact: higher
    homogeneous components are 0 modulo S.
    """
    k, n = ctx.k, ctx.n
    r.validate(k, n)
    layout = class_layout(n)
    # a staircase monomial, so its own normal form
    plain = layout.pack(Poly.monomial(n, (n - k - r.b,) * k + (0,) * (n - k)))
    top = n * (n - 1) // 2
    cut = (top + 1) << layout.deg_shift
    chi = formal_inverse(ctx.spec, top)
    e = [{0: 1}] + [{}] * r.b  # e_j of the dual roots met so far; {0: 1} is 1
    for v in range(k + 1, n + 1):
        y = layout.pack(chi, top, (v,))
        for j in range(min(r.b, v - k), 0, -1):
            step = dict(y) if j == 1 else short_product(e[j - 1], y, cut)
            for key, c in e[j].items():
                step[key] = step.get(key, 0) + c
            e[j] = reduce_packed(step, layout)
    out = plain
    for _ in range(k - r.a):
        out = reduce_packed(short_product(out, e[r.b], cut), layout)
    return out


def all_rectangles(k: int, n: int) -> list[RectangleClass]:
    return [
        RectangleClass(a, b) for a in range(1, k + 1) for b in range(1, n - k + 1)
    ]


def _rule_cross_check(
    name: str,
    ctx: GrassContext,
    classes: dict[tuple[int, ...], dict[int, int]],
    smooth: dict[RectangleClass, dict[int, int]],
) -> CheckReport:
    """Product rule vs polynomial arithmetic for every (rectangle, lam).

    classes holds the normal form of the class of every partition of the
    box, keyed by its parts, in display order; smooth holds that of each
    rectangle's smooth class; all are packed in class_layout(n) and stay
    packed.  Each product of normal forms is reduced and compared with the
    normal form of the class (or zero) predicted by smooth_product.  That
    reads as an expansion if the classes are independent modulo S: one
    expansion of the class of least graded degree d0 checks it at d0,
    hence at every d >= d0 (m1^(d - d0) maps the degree-d columns one to
    one into the degree-d0 columns).  The layout's mu fields hold 4 * top:
    m1 and m2 exponents are <= top (a class word has at most top letters,
    each raising them by one at most, and a smooth class term of x-degree
    <= top has fewer m1), so a product of two needs 2 * top and the
    expansion top - d0 <= 4 * top, as every term has x-degree >= 0.
    """
    rep = CheckReport(name)
    layout = class_layout(ctx.n)
    top = ctx.n * (ctx.n - 1) // 2
    order = [BoxPartition(ctx.k, ctx.m, parts) for parts in classes]
    basis = list(classes.values())
    try:
        degrees = basis_degrees([nf_degree(layout, nf) for nf in basis])
    except PolyError as exc:
        fixed = [f"m{i} = {v}" for i, v in ((1, ctx.spec.mu1), (2, ctx.spec.mu2)) if v]
        if not fixed:
            raise
        raise PolyError(
            f"{exc}: an integer m1 or m2 breaks the grading of the classes"
            f" (this law sets {', '.join(fixed)}); only 0 keeps it"
        ) from exc
    d0 = min(degrees)
    expand_packed(layout, basis[degrees.index(d0)], d0, basis, degrees)
    nf_of = dict(zip(order, basis))
    nf_of[None] = {}
    for r, smooth_nf in smooth.items():
        for lam in order:
            rule = smooth_product(ctx, r, lam)
            product = short_product(smooth_nf, nf_of[lam], (top + 1) << layout.deg_shift)
            ok = reduce_packed(product, layout) == nf_of[rule]
            rule_txt = rule.render() if rule is not None else "0"
            rep.add(
                f"rect={r.a},{r.b} lam=({lam.render()}) -> {rule_txt}",
                ok,
                detail="" if ok else "product differs from the predicted class modulo S",
            )
    return rep


def cross_check_gr24(spec: FglSpec = HYPERBOLIC) -> CheckReport:
    """Combinatorial rule vs polynomial arithmetic, all 24 Gr(2,4) cases:
    the classes of the class words against the smooth classes."""
    ctx = GrassContext(2, 4, spec)
    return _rule_cross_check(
        f"gr24-cross-check[{spec.label()}]",
        ctx,
        grass_classes(ctx, GR24_ORDER),
        {r: smooth_class(ctx, r) for r in all_rectangles(2, 4)},
    )


def chow_k_cross_check(k: int, n: int, spec: FglSpec) -> CheckReport:
    """Product rule vs polynomial arithmetic at m2 = 0, all (r, lam).

    At m2 = 0 the braid relations hold, so the class of a class word is
    that of any reduced word of w0 * w_{dual lam}.  The smooth class of
    each rectangle is the class of the rectangle's own partition, so this
    covers every rectangle without the smooth-class products.  The
    classes at k > n/2 carry large exponents that the normal form has to
    rewrite (Gr(8,9) took 10 s, Gr(9,10) 75 s), so besides k(n-k) <= 9
    the rank is held to MAX_REWRITE_RANK, the bound of every other
    rewrite.
    """
    if not spec.mu2_is_zero:
        raise ValueError("chow/K cross-check requires an m2 = 0 law")
    if k * (n - k) > 9 or n > MAX_REWRITE_RANK:
        raise CapacityError(
            f"Gr({k},{n}) exceeds the k(n-k) <= 9 bound or the rewrite rank {MAX_REWRITE_RANK}"
        )
    ctx = GrassContext(k, n, spec)
    classes = grass_classes(ctx)
    return _rule_cross_check(
        f"chowk-cross-check[{spec.label()},k={k},n={n}]",
        ctx,
        classes,
        {r: classes[r.as_partition(k, n).parts] for r in all_rectangles(k, n)},
    )
