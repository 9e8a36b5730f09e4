"""Divided-difference operators twisted by a formal group law.

Write d_i for the classical divided difference
(f - sigma_i f) / (x_i - x_{i+1}) and p for the difference kernel of
the chosen law.  The push-pull operator and its companion are

    C_i(f) = d_i(p(x_i, x_{i+1}) * f)
    D_i(f) = -p(x_{i+1}, x_i) * d_i(f)

Both are left linear over polynomials free of x_i and x_{i+1}, so each
is fixed by its action on x_i^a x_{i+1}^b.  There d_i is a geometric
block: for a > b

    d_i(x_i^a x_{i+1}^b) = sum_{t=b}^{a-1} x_i^t x_{i+1}^{a+b-1-t},

the case a < b is the negative of the swapped block, and a = b gives
zero.  Each operator's image of x_i^a x_{i+1}^b is therefore a short
fixed table of terms: C_i spreads the three kernel terms over blocks,
D_i multiplies one block by the swapped kernel.  One bounded cache
holds the tables, one per (law, a, b), and each is applied in one pass
over the input terms; no product, swap or division is carried out.  The
two tables come from the two product forms separately, so
D_i = kappa - C_i, with kappa the kernel constant, stays an identity
between independent computations.
Both operators drop graded degree by exactly one on homogeneous input.

The pass runs on packed term keys (polycore.PackedLayout), as in
Monagan-Pearce's sparse multiplication: one int per term holds the
fields m2, m1, x_1, ..., x_n, each wide enough for the input's largest
exponent plus the number of letters.  Each call shifts the table rows
it meets into (key delta, coefficient) pairs for its layout and letter,
so an output term costs one int add.
apply_word_packed packs once and applies every letter; apply_word,
apply_c and apply_delta unpack its result.  The classes of words
(schubert) stay packed for the fk/differ suites and `poly word`.

At m2 = 0 the operators satisfy the braid relations.  For the full
hyperbolic law only the twisted form holds:

    C_i C_{i+1} C_i + m2 C_i = C_{i+1} C_i C_{i+1} + m2 C_{i+1}.

The naive braid relation genuinely fails there (x_1^2 x_2 is a witness),
which is why polynomials produced by words of operators depend on the
word and not just on the permutation.  relation_reports checks both
relations and D_i = kappa - C_i on seeded samples in one pass: it draws
the samples once, takes each C_i f once, and makes one defect comparison
per sample and i, which is the twisted verdict and annotates the naive
case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .fgl import FglSpec, diff_kernel, kappa_of
from .polycore import PackedLayout, Poly, PolyError
from .report import CheckReport

# Bound on the rows _row holds, one per (builder, law, a, b).  C_i never
# raises the largest exponent of one variable, so the word classes of S_n
# only meet a, b < n.  Measured over 40 batches of a benchmark workload
# (seed 1), with the memo of schubert in front: fk5 builds 24 rows and
# reuses them 12,082 times; compute builds 157 and reuses them 8,148
# times, and evicts none.
_TABLE_SIZE = 1024


@dataclass(frozen=True)
class OperatorContext:
    """A formal group law fixed together with the ambient variable count.

    The one context of the operator layer: the C_i and D_i here, and the
    classes of words (schubert) and the suites (hecke) built on them.
    """

    spec: FglSpec
    nvars: int

    def __post_init__(self):
        if self.nvars < 2:
            raise PolyError("operators need at least two variables")


def _check_index(ctx: OperatorContext, i: int) -> None:
    if not 1 <= i <= ctx.nvars - 1:
        raise PolyError(f"operator index {i} out of range [1, {ctx.nvars - 1}]")


def _block(a: int, b: int) -> list[tuple[int, int, int]]:
    """d(x^a y^b) as (x-exponent, y-exponent, sign) triples."""
    if a == b:
        return []
    sign = 1 if a > b else -1
    return [(t, a + b - 1 - t, sign) for t in range(min(a, b), max(a, b))]


def _c_row(spec: FglSpec, a: int, b: int) -> dict:
    """C_i(x_i^a x_{i+1}^b) = d_i(p(x_i, x_{i+1}) x_i^a x_{i+1}^b),
    as {((t, s), mu): coefficient}; coefficients may be zero."""
    acc: dict = {}
    for ((ex, ey), mu), k in diff_kernel(spec).terms.items():
        for t, s, sign in _block(a + ex, b + ey):
            key = ((t, s), mu)
            acc[key] = acc.get(key, 0) + sign * k
    return acc


def _d_row(spec: FglSpec, a: int, b: int) -> dict:
    """D_i(x_i^a x_{i+1}^b) = -p(x_{i+1}, x_i) d_i(x_i^a x_{i+1}^b), as _c_row."""
    acc: dict = {}
    for ((ex, ey), mu), k in diff_kernel(spec).terms.items():
        for t, s, sign in _block(a, b):
            key = ((t + ey, s + ex), mu)
            acc[key] = acc.get(key, 0) - sign * k
    return acc


@lru_cache(maxsize=_TABLE_SIZE)
def _row(row_of, spec: FglSpec, a: int, b: int) -> tuple:
    """row_of(spec, a, b), each nonzero term as (t - a, s - b, d1, d2, r):
    the exponent shifts of x_i, x_{i+1}, m1, m2 and the coefficient."""
    return tuple(
        (t - a, s - b, d1, d2, r) for ((t, s), (d1, d2)), r in row_of(spec, a, b).items() if r
    )


def _apply_letter(
    spec: FglSpec, layout: PackedLayout, i: int, terms: dict[int, int], row_of=_c_row
) -> dict[int, int]:
    """One operator on packed terms, C_i by default: every term's key plus
    each key delta of its row.  A key's x_i and x_{i+1} fields, a above b,
    pick the row, shifted into this layout's fields once per (a, b)."""
    w, lo, m1, m2 = layout.width, layout.x_shift(i + 1), layout.m1_shift, layout.m2_shift
    hi, pair_mask = lo + w, (1 << 2 * w) - 1
    rows: dict[int, tuple] = {}
    out: dict[int, int] = {}
    get = out.get
    for key, c in terms.items():
        ab = key >> lo & pair_mask
        row = rows.get(ab)
        if row is None:
            row = rows[ab] = tuple(
                ((dt << hi) + (ds << lo) + (d1 << m1) + (d2 << m2), r)
                for dt, ds, d1, d2, r in _row(row_of, spec, ab >> w, ab & layout.mask)
            )
        for delta, r in row:
            k = key + delta
            out[k] = get(k, 0) + c * r
    return {k: c for k, c in out.items() if c}


def apply_word_packed(
    ctx: OperatorContext, word: Iterable[int], f: Poly, row_of=_c_row
) -> tuple[PackedLayout, dict[int, int]]:
    """Pack f once and apply the word's letters first to last, C_i by
    default; the result stays packed, as (layout, terms)."""
    word = tuple(word)
    for i in word:
        _check_index(ctx, i)
    if f.nvars != ctx.nvars:
        raise PolyError("polynomial does not live in the context ring")
    layout = PackedLayout.fit(f, len(word))
    terms = layout.pack(f)
    for i in word:
        terms = _apply_letter(ctx.spec, layout, i, terms, row_of)
    return layout, terms


def apply_c(ctx: OperatorContext, i: int, f: Poly) -> Poly:
    """C_i(f), exact polynomial output."""
    return PackedLayout.unpack(*apply_word_packed(ctx, (i,), f))


def apply_delta(ctx: OperatorContext, i: int, f: Poly) -> Poly:
    """D_i(f), exact polynomial output."""
    return PackedLayout.unpack(*apply_word_packed(ctx, (i,), f, _d_row))


def apply_word(ctx: OperatorContext, word: Iterable[int], f: Poly) -> Poly:
    """Apply C along the word left to right: the first letter acts first."""
    return PackedLayout.unpack(*apply_word_packed(ctx, word, f))


def kappa_poly(ctx: OperatorContext) -> Poly:
    return kappa_of(ctx.spec).inject_vars(ctx.nvars, ())


# ----------------------------------------------------------------------
# seeded randomized relation checks

def random_poly(
    rng: random.Random,
    nvars: int,
    terms: int = 4,
    max_total_deg: int = 4,
    coeff_lo: int = -3,
    coeff_hi: int = 3,
    max_mu: int = 1,
) -> Poly:
    """A small random polynomial: up to `terms` terms of total x-degree
    at most 4 with coefficients in [-3, 3] and mu-exponents at most 1."""
    acc: dict = {}
    for _ in range(terms):
        d = rng.randint(0, max_total_deg)
        exps = [0] * nvars
        for _ in range(d):
            exps[rng.randrange(nvars)] += 1
        key = (tuple(exps), (rng.randint(0, max_mu), rng.randint(0, max_mu)))
        acc[key] = acc.get(key, 0) + rng.randint(coeff_lo, coeff_hi)
    return Poly(nvars, acc)


def relation_reports(ctx: OperatorContext, samples: int = 20, seed: int = 0) -> list[CheckReport]:
    """The twisted and naive braid reports for each i in [1, n - 2], then
    the delta reports D_i f = kappa f - C_i f for each i in [1, n - 1].

    One pass over `samples` polynomials drawn from random.Random(seed)
    takes each C_i f once and builds both braid sides from it.  One defect
    comparison per sample, lhs - rhs == m2 (C_{i+1} - C_i) f, is the
    twisted verdict, and it annotates a failing naive case: at m2 = 0 the
    naive relation holds, and in general its defect is the m2 correction.
    """
    n, label = ctx.nvars, ctx.spec.label()
    mu2, kap = ctx.spec.mu2_poly(n), kappa_poly(ctx)
    rng = random.Random(seed)
    fs = [random_poly(rng, n) for _ in range(samples)]
    cs = [[apply_c(ctx, i, f) for i in range(1, n)] for f in fs]  # cs[s][i - 1] = C_i f
    reports = []
    for i in range(1, n - 1):
        twisted = CheckReport(f"twisted-braid[{label},n={n},i={i}]")
        naive = CheckReport(f"naive-braid[{label},n={n},i={i}]")
        for s, c in enumerate(cs):
            lhs = apply_word(ctx, (i + 1, i), c[i - 1])
            rhs = apply_word(ctx, (i, i + 1), c[i])
            defect_ok = lhs - rhs == mu2 * (c[i] - c[i - 1])
            twisted.add(f"sample {s}", defect_ok)
            if lhs == rhs:
                naive.add(f"sample {s}", True, detail="braid holds")
            else:
                naive.add(
                    f"sample {s}",
                    False,
                    annotated=defect_ok,
                    detail="braid fails; defect matches the m2 correction"
                    if defect_ok
                    else "braid fails with an unexplained defect",
                )
        reports += (twisted, naive)
    for i in range(1, n):
        rep = CheckReport(f"delta-identity[{label},n={n},i={i}]")
        for s, (f, c) in enumerate(zip(fs, cs)):
            rep.add(f"sample {s}", apply_delta(ctx, i, f) == kap * f - c[i - 1])
        reports.append(rep)
    return reports
