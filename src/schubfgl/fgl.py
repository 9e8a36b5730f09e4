"""Formal group laws of hyperbolic type.

The two-parameter law over Z[m1, m2] is

    F(x, y) = (x + y - m1*x*y) / (1 + m2*x*y),

with formal inverse chi(x) = -x / (1 - m1*x).  Setting m1 = m2 = 0
gives the additive law x + y, setting m2 = 0 the multiplicative law
x + y - m1*x*y, and setting m1 = 0 the Lorentz law
(x + y) / (1 + m2*x*y).

The difference kernel p is the polynomial with

    1 / F(x, chi(y)) = p(x, y) / (x - y),

concretely p(x, y) = 1 - m1*y - m2*x*y (so the first slot carries the
plain linear variable and the second the inverted one; callers bind the
slots to x_i and x_{i+1} in that order).  The kernel constant

    kappa = (p(x, y) - p(y, x)) / (x - y)

equals m1 for the m2-free slice of the family and 0, m1, m1, 0 for the
additive, multiplicative, hyperbolic and Lorentz laws respectively.

The two series the package needs are written here in closed form:
chi(x) = -sum_{d >= 1} m1^(d-1) x^d, and

    F(x, chi(y)) = (x - y) / p(x, y) = (x - y) * sum_k y^k (m1 + m2*x)^k.

Their terms, and p's, are written with the law's integers substituted
(_specialized, 0**0 = 1); nothing is multiplied out.  F, the generic
series and the self-checks that tie F to chi and p are in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .polycore import Poly, PolyError, _mk

KINDS = ("additive", "multiplicative", "hyperbolic", "lorentz")

# Kinds in which m1 (resp. m2) is forced to vanish.
_MU1_ZERO_KINDS = ("additive", "lorentz")
_MU2_ZERO_KINDS = ("additive", "multiplicative")


@dataclass(frozen=True)
class FglSpec:
    """A formal group law choice plus optional integer specializations.

    mu1/mu2 of None means "keep the parameter symbolic".  A kind that
    forces a parameter to zero accepts only None or 0 for it.
    """

    kind: str
    mu1: int | None = None
    mu2: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown formal group law kind {self.kind!r}")
        if self.kind in _MU1_ZERO_KINDS:
            if self.mu1 not in (None, 0):
                raise ValueError(f"{self.kind} law forces mu1 = 0, got {self.mu1}")
            object.__setattr__(self, "mu1", 0)
        if self.kind in _MU2_ZERO_KINDS:
            if self.mu2 not in (None, 0):
                raise ValueError(f"{self.kind} law forces mu2 = 0, got {self.mu2}")
            object.__setattr__(self, "mu2", 0)

    # -- parameter handling -------------------------------------------

    def mu2_poly(self, nvars: int) -> Poly:
        return _specialized(self, nvars, [((0,) * nvars, 0, 1, 1)])

    @property
    def mu2_is_zero(self) -> bool:
        return self.mu2 == 0

    def mu2_zeroed(self) -> "FglSpec":
        """The m2 = 0 degeneration, keeping the m1 behaviour."""
        if self.kind in _MU2_ZERO_KINDS:
            return self
        if self.kind == "hyperbolic":
            return FglSpec("multiplicative", mu1=self.mu1)
        return FglSpec("additive")

    def label(self) -> str:
        bits = [self.kind]
        if self.mu1 is not None and self.kind not in _MU1_ZERO_KINDS:
            bits.append(f"mu1={self.mu1}")
        if self.mu2 is not None and self.kind not in _MU2_ZERO_KINDS:
            bits.append(f"mu2={self.mu2}")
        return ",".join(bits)


ADDITIVE = FglSpec("additive")
MULTIPLICATIVE = FglSpec("multiplicative")
HYPERBOLIC = FglSpec("hyperbolic")
LORENTZ = FglSpec("lorentz")


def _specialized(spec: FglSpec, nvars: int, terms) -> Poly:
    """The Poly of terms (x-exponents, a, b, c), each c*m1^a*m2^b*x^exps with
    the law's integers substituted (0**0 is 1); terms that then meet are summed."""
    out: dict = {}
    for exps, a, b, c in terms:
        if spec.mu1 is not None:
            c, a = c * spec.mu1 ** a, 0
        if spec.mu2 is not None:
            c, b = c * spec.mu2 ** b, 0
        out[exps, (a, b)] = out.get((exps, (a, b)), 0) + c
    return _mk(nvars, {key: c for key, c in out.items() if c})


def formal_inverse(spec: FglSpec, cap: int) -> Poly:
    """The series chi(x) = -x/(1 - m1*x) through degree cap, 1 variable."""
    if cap < 1:
        raise PolyError("cap must be at least 1")
    return _specialized(spec, 1, (((d,), d - 1, 0, -1) for d in range(1, cap + 1)))


def chi_difference(spec: FglSpec, cap: int) -> Poly:
    """F(x, chi(y)) = (x - y)/p(x, y) through x-degree cap, a 2-variable Poly.

    1/p = sum_k y^k (m1 + m2*x)^k, whose term x^j y^k carries
    C(k, j) m1^(k-j) m2^j; it is needed through degree cap - 1, and each
    such term gives C(k, j) m1^(k-j) m2^j (x^(j+1) y^k - x^j y^(k+1)).
    """
    if cap < 1:
        raise PolyError("cap must be at least 1")
    return _specialized(spec, 2, (
        (exps, k - j, j, sign * comb(k, j))
        for k in range(cap)
        for j in range(min(k, cap - 1 - k) + 1)
        for exps, sign in (((j + 1, k), 1), ((j, k + 1), -1))
    ))


def diff_kernel(spec: FglSpec) -> Poly:
    """p(x, y) with 1/F(x, chi(y)) = p(x, y)/(x - y); a 2-variable Poly.

    Closed forms: 1 (additive), 1 - m1*y (multiplicative),
    1 - m1*y - m2*x*y (hyperbolic), 1 - m2*x*y (lorentz).
    """
    return _specialized(spec, 2, (((0, 0), 0, 0, 1), ((0, 1), 1, 0, -1), ((1, 1), 0, 1, -1)))


def kappa_of(spec: FglSpec) -> Poly:
    """(p(x, y) - p(y, x))/(x - y), a constant returned with zero variables."""
    p = diff_kernel(spec)
    q = (p - p.sigma(1)).div_diff(1)
    const: dict = {}
    for (exps, mu), c in q.terms.items():
        if any(exps):
            raise PolyError("difference kernel asymmetry is not constant")
        const[((), mu)] = c
    return Poly(0, const)
