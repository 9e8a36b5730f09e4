"""Grassmannian products: smooth classes times resolution classes.

A rectangle b^a inside the k x (n-k) box names a smooth Schubert
variety isomorphic to Gr(a, a+b).  Multiplying its class against the
resolution class of any partition lam collapses combinatorially: the
product is a single class (coefficient one) when lam contains the dual
rectangle, and zero otherwise.  The surviving partition is obtained by
dualizing lam in the ambient box and then dualizing again inside the
a x b box.

For Gr(2,4) the six resolution classes have hard-coded pullback words
(the resolutions stay resolutions after pulling back only in this
case), so the combinatorial rule can be cross-checked against honest
polynomial arithmetic: multiply representatives, reduce to normal form,
compare with the predicted class.  At m2 = 0 the classes are
word-independent and every partition has a canonical representative,
which extends the cross-check to any small Grassmannian.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combi import (
    BoxPartition,
    CapacityError,
    Permutation,
    box_partitions,
    partition_dual,
    partition_dual_z,
    partition_leq,
    partition_to_perm,
    Word,
)
from .coinv import MAX_REWRITE_RANK, basis_degrees, expand_in_basis, normal_form
from .ddo import OperatorContext
from .fgl import FglSpec, HYPERBOLIC, formal_inverse
from .polycore import Poly, PolyError
from .report import CheckReport
from .schubert import grothendieck_polynomial, schubert_polynomial


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
# the Gr(2,4) dictionary

# canonical display order of the six classes
GR24_ORDER: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2),
)

_GR24_WORDS: dict[tuple[int, int], Word] = {
    (0, 0): (3, 1),
    (1, 0): (2, 3, 1),
    (2, 0): (3, 2, 3, 1),
    (1, 1): (1, 2, 3, 1),
    (2, 1): (3, 1, 2, 3, 1),
    (2, 2): (2, 3, 1, 2, 3, 1),
}


def gr24_word(lam: BoxPartition) -> Word:
    """The pullback word of the Gr(2,4) resolution class of lam.

    Words are read innermost-first: (2, 3, 1) means apply C_2, then
    C_3, then C_1.
    """
    if (lam.k, lam.m) != (2, 2):
        raise ValueError(f"{lam} is not drawn in the 2x2 box")
    return _GR24_WORDS[(lam.parts[0], lam.parts[1])]


def _gr24_classes(spec: FglSpec) -> dict[tuple[int, ...], Poly]:
    """The six resolution classes by partition, in GR24_ORDER."""
    ctx = OperatorContext(spec, 4)
    return {parts: schubert_polynomial(ctx, _GR24_WORDS[parts]) for parts in GR24_ORDER}


def gr24_basis(spec: FglSpec) -> list[Poly]:
    """Normal forms of the six resolution classes, in GR24_ORDER."""
    return [normal_form(f, 4) for f in _gr24_classes(spec).values()]


def dual_root_monomial(k: int, n: int, power: int, spec: FglSpec) -> Poly:
    """Normal form of (chi(x_{k+1}) ... chi(x_n))^power.

    chi is the formal inverse series; truncating it at the top staircase
    degree is exact because higher homogeneous components are 0 modulo
    S, and so is reducing after every factor.
    """
    chi = formal_inverse(spec, n * (n - 1) // 2)
    out = Poly.one(n)
    for v in range(k + 1, n + 1):
        factor = chi.inject_vars(n, (v,))
        for _ in range(power):
            out = normal_form(out * factor, n)
    return out


def gr24_smooth_poly(r: RectangleClass, spec: FglSpec = HYPERBOLIC) -> Poly:
    """Polynomial representative of the smooth class [X_{b^a}] in Gr(2,4).

    The full-height rectangle family lives in the plain variables
    (x_1 x_2 for b = 1), but the full-width family is a monomial in the
    dual roots: chi(x_3) chi(x_4) for a = 1.  The plain monomial
    x_3 x_4 agrees with it only when chi(x) = -x; at m1 != 0 it drags
    extra m1-multiples of lower classes into every product, while the
    dual-root representative matches the canonical m2 = 0 class of
    (2,0) and keeps each product a single class.  The line (a = b = 1)
    carries its own law-dependent correction term.
    """
    r.validate(2, 4)
    key = (r.a, r.b)
    if key == (2, 2):
        return Poly.one(4)
    if key == (2, 1):
        return Poly.monomial(4, (1, 1, 0, 0))
    if key == (1, 2):
        return dual_root_monomial(2, 4, 1, spec)
    # the line: x_1 x_2 (x_1 + x_2) - m1 x_1^2 x_2^2
    line = (
        Poly.monomial(4, (2, 1, 0, 0))
        + Poly.monomial(4, (1, 2, 0, 0))
        - Poly.monomial(4, (2, 2, 0, 0), (1, 0))
    )
    return spec.specialize(line)


def all_rectangles(k: int, n: int) -> list[RectangleClass]:
    return [
        RectangleClass(a, b) for a in range(1, k + 1) for b in range(1, n - k + 1)
    ]


def _rule_cross_check(
    name: str,
    ctx: GrassContext,
    classes: dict[tuple[int, ...], Poly],
    smooth: dict[RectangleClass, Poly],
) -> CheckReport:
    """Product rule vs polynomial arithmetic for every (rectangle, lam).

    classes holds the class of every partition of the box, keyed by its
    parts, in display order; smooth holds the representative of each
    rectangle's smooth class.  Each product of normal forms is reduced
    and compared with the normal form of the class (or zero) predicted
    by smooth_product.  That reads as an expansion if the classes are
    independent modulo S: one expansion of the class of least graded
    degree d0 checks it at d0, hence at every d >= d0 (m1^(d - d0) maps
    the degree-d columns one to one into the degree-d0 columns).
    """
    rep = CheckReport(name)
    order = [BoxPartition(ctx.k, ctx.m, parts) for parts in classes]
    basis = [normal_form(f, ctx.n) for f in classes.values()]
    try:
        degrees = basis_degrees(basis)
    except PolyError as exc:
        fixed = [f"m{i} = {v}" for i, v in ((1, ctx.spec.mu1), (2, ctx.spec.mu2)) if v]
        if not fixed:
            raise
        raise PolyError(
            f"{exc}: an integer m1 or m2 breaks the grading of the classes"
            f" (this law sets {', '.join(fixed)}); only 0 keeps it"
        ) from exc
    expand_in_basis(basis[degrees.index(min(degrees))], basis, ctx.n)
    nf_of = dict(zip(order, basis))
    nf_of[None] = Poly.zero(ctx.n)
    for r, smooth_poly in smooth.items():
        smooth_nf = normal_form(smooth_poly, ctx.n)
        for lam, lam_nf in zip(order, basis):
            rule = smooth_product(ctx, r, lam)
            ok = normal_form(smooth_nf * lam_nf, ctx.n) == nf_of[rule]
            rule_txt = rule.render() if rule is not None else "0"
            rep.add(
                f"rect={r.a},{r.b} lam=({lam.render()}) -> {rule_txt}",
                ok,
                detail="" if ok else "product differs from the predicted class modulo S",
            )
    return rep


def cross_check_gr24(spec: FglSpec = HYPERBOLIC) -> CheckReport:
    """Combinatorial rule vs polynomial arithmetic, all 24 Gr(2,4) cases.

    The smooth classes are the representatives of gr24_smooth_poly; the
    partition classes come from the hard-coded resolution words.
    """
    return _rule_cross_check(
        f"gr24-cross-check[{spec.label()}]",
        GrassContext(2, 4, spec),
        _gr24_classes(spec),
        {r: gr24_smooth_poly(r, spec) for r in all_rectangles(2, 4)},
    )


def class_representative(ctx: GrassContext, lam: BoxPartition) -> Poly:
    """Representative of the class of lam at m2 = 0.

    The resolution class of lam corresponds to the word of
    w_0 * w_{dual(lam)}; with m2 = 0 any reduced word gives the same
    polynomial, so the word-independent class of that permutation
    (schubert.grothendieck_polynomial) represents the class of lam.
    """
    if not ctx.spec.mu2_is_zero:
        raise ValueError("word-independent representatives need m2 = 0")
    w = Permutation.longest(ctx.n) * partition_to_perm(partition_dual(lam), ctx.n)
    return grothendieck_polynomial(OperatorContext(ctx.spec, ctx.n), w)


def chow_k_cross_check(k: int, n: int, spec: FglSpec) -> CheckReport:
    """Product rule vs polynomial arithmetic at m2 = 0, all (r, lam).

    Both factors use canonical-word representatives, so this covers
    every rectangle, not only the ones with monomial formulas.  The
    representatives at k > n/2 carry large exponents that the normal
    form has to rewrite (Gr(8,9) took 10 s, Gr(9,10) 75 s), so besides
    k(n-k) <= 9 the rank is held to MAX_REWRITE_RANK, the bound of every
    other rewrite.
    """
    if not spec.mu2_is_zero:
        raise ValueError("chow/K cross-check requires an m2 = 0 law")
    if k * (n - k) > 9 or n > MAX_REWRITE_RANK:
        raise CapacityError(
            f"Gr({k},{n}) exceeds the k(n-k) <= 9 bound or the rewrite rank {MAX_REWRITE_RANK}"
        )
    ctx = GrassContext(k, n, spec)
    classes = {mu.parts: class_representative(ctx, mu) for mu in box_partitions(k, n - k)}
    return _rule_cross_check(
        f"chowk-cross-check[{spec.label()},k={k},n={n}]",
        ctx,
        classes,
        {r: classes[r.as_partition(k, n).parts] for r in all_rectangles(k, n)},
    )
