"""Exact sparse polynomials over Z[m1, m2].

Everything downstream works in the ring Z[m1, m2][x_1, ..., x_n].  A
polynomial is stored as a mapping from term keys to nonzero integer
coefficients, where a term key is the pair (x-exponent vector, (a, b))
and (a, b) are the exponents of m1^a m2^b.  Coefficients are Python
ints, so all arithmetic is exact; floats never appear.

The parameters carry negative weights: deg(x_i) = 1, deg(m1) = -1,
deg(m2) = -2.  The graded degree of a term is therefore

    sum(x-exponents) - a - 2*b.

Term order is graded lex with x_1 < x_2 < ... < x_n (the exponent of
x_n is compared first), then (a, b) lexicographically.  Rendering and
JSON output list terms in this order, so equal polynomials render
identically.  They share one printer, which works on the packed term
keys of PackedLayout (one int per term, the format the operators of
ddo use), so a class computed on packed keys is printed without being
unpacked.  Two memos per layout, keyed by the whole packed key, hold
the key's place in term order as one int and its "*m1^a*m2^b*x[...]"
text, so sorting and printing a term are a dict lookup each.  A memo
is emptied when it reaches _KEY_MEMO_MAX (16,384) entries and the
memos of the last _LAYOUTS_KEPT (16) layouts are kept, so together they
hold at most 524,288 entries; a full pair of memos takes about 3.4 MB
at n = 5.

Instances are treated as immutable: operations return new objects and
never mutate their arguments.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from functools import lru_cache
from typing import Iterable, NamedTuple

XExp = tuple[int, ...]
MuExp = tuple[int, int]
TermKey = tuple[XExp, MuExp]

MU_ZERO: MuExp = (0, 0)


class PolyError(ValueError):
    """Malformed input or a violated arithmetic precondition."""


class DivisionFailure(PolyError):
    """An exact division left a nonzero remainder."""


def _is_int(v) -> bool:
    # bool is an int subclass, but True is not an exponent or a coefficient
    return isinstance(v, int) and not isinstance(v, bool)


def _mk(nvars: int, terms: dict[TermKey, int]) -> "Poly":
    # Internal constructor: keys are trusted, zeros already dropped.
    p = Poly.__new__(Poly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "terms", terms)
    return p


class Poly:
    """A sparse polynomial in Z[m1, m2][x_1, ..., x_nvars]."""

    __slots__ = ("nvars", "terms")

    nvars: int
    terms: dict[TermKey, int]

    def __init__(self, nvars: int, terms: dict[TermKey, int] | None = None):
        if not _is_int(nvars) or nvars < 0:
            raise PolyError(f"nvars must be a non-negative int, got {nvars!r}")
        clean: dict[TermKey, int] = {}
        for key, c in (terms or {}).items():
            exps, mu = key
            exps = tuple(exps)
            mu = tuple(mu)
            if len(exps) != nvars:
                raise PolyError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            if len(mu) != 2:
                raise PolyError(f"mu exponents must be a pair, got {mu}")
            if any(not _is_int(e) or e < 0 for e in exps + mu):
                raise PolyError(f"exponents must be non-negative ints: {exps}, {mu}")
            if not _is_int(c):
                raise PolyError(f"coefficient {c!r} is not an int")
            if c:
                k = (exps, mu)
                clean[k] = clean.get(k, 0) + c
                if not clean[k]:
                    del clean[k]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return _mk(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return _mk(nvars, {((0,) * nvars, MU_ZERO): 1})

    @classmethod
    def const(cls, nvars: int, c: int, mu: MuExp = MU_ZERO) -> "Poly":
        if not c:
            return cls.zero(nvars)
        return _mk(nvars, {((0,) * nvars, tuple(mu)): c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        """x_i, with i in [1, nvars]."""
        if not 1 <= i <= nvars:
            raise PolyError(f"variable index {i} out of range [1, {nvars}]")
        exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return _mk(nvars, {(exps, MU_ZERO): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], mu: MuExp = MU_ZERO, c: int = 1) -> "Poly":
        return cls(nvars, {(tuple(exps), tuple(mu)): c})

    # ------------------------------------------------------------------
    # predicates and accessors

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable-looking container; not usable as a dict key

    def coefficient(self, exps: Iterable[int], mu: MuExp = MU_ZERO) -> int:
        return self.terms.get((tuple(exps), tuple(mu)), 0)

    def graded_degree(self) -> tuple[bool, int | None]:
        """(is_homogeneous, degree) under deg x_i = 1, deg m1 = -1, deg m2 = -2.

        The zero polynomial is homogeneous of every degree: (True, None).
        """
        degs = {sum(exps) - a - 2 * b for (exps, (a, b)) in self.terms}
        if not degs:
            return (True, None)
        if len(degs) == 1:
            return (True, degs.pop())
        return (False, None)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "Poly") -> "Poly":
        return self._add_scaled(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._add_scaled(other, -1)

    def _add_scaled(self, other: "Poly", sign: int) -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + sign * c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _mk(self.nvars, out)

    def __neg__(self) -> "Poly":
        return _mk(self.nvars, {key: -c for key, c in self.terms.items()})

    def scale(self, c: int) -> "Poly":
        if not c:
            return Poly.zero(self.nvars)
        return _mk(self.nvars, {key: c * v for key, v in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[TermKey, int] = {}
        for (ea, ma), ca in a.items():
            for (eb, mb), cb in b.items():
                key = (
                    tuple(x + y for x, y in zip(ea, eb)),
                    (ma[0] + mb[0], ma[1] + mb[1]),
                )
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _mk(self.nvars, out)

    def mul_truncated(self, other: "Poly", cap: int) -> "Poly":
        """(self * other).truncate(cap), forming only the pairs that survive.

        A short product: the larger operand is sorted by x-degree, and each
        term of the smaller one meets only the prefix that fits in cap.
        """
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        ladder = sorted(b.items(), key=lambda kv: sum(kv[0][0]))
        degrees = [sum(exps) for (exps, _), _ in ladder]
        out: dict[TermKey, int] = {}
        for (ea, ma), ca in a.items():
            for (eb, mb), cb in ladder[:bisect_right(degrees, cap - sum(ea))]:
                key = (
                    tuple(x + y for x, y in zip(ea, eb)),
                    (ma[0] + mb[0], ma[1] + mb[1]),
                )
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _mk(self.nvars, out)

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def mul_mu(self, a: int, b: int) -> "Poly":
        """Multiply by m1^a m2^b."""
        if a < 0 or b < 0:
            raise PolyError("mu exponents must be non-negative")
        return _mk(
            self.nvars,
            {(exps, (ma + a, mb + b)): c for (exps, (ma, mb)), c in self.terms.items()},
        )

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise PolyError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    # ------------------------------------------------------------------
    # variable manipulation

    def sigma(self, i: int) -> "Poly":
        """Swap x_i and x_{i+1}, with i in [1, nvars-1]."""
        if not 1 <= i <= self.nvars - 1:
            raise PolyError(f"transposition index {i} out of range [1, {self.nvars - 1}]")
        j = i - 1
        out: dict[TermKey, int] = {}
        for (exps, mu), c in self.terms.items():
            if exps[j] != exps[j + 1]:
                le = list(exps)
                le[j], le[j + 1] = le[j + 1], le[j]
                exps = tuple(le)
            out[(exps, mu)] = c
        return _mk(self.nvars, out)

    def inject_vars(self, nvars: int, positions: Iterable[int]) -> "Poly":
        """Relabel variables: source variable t goes to x_{positions[t-1]}.

        Positions may repeat, which identifies variables.
        """
        pos = tuple(positions)
        if len(pos) != self.nvars:
            raise PolyError("positions must name a target for every variable")
        if any(not 1 <= p <= nvars for p in pos):
            raise PolyError(f"target positions {pos} out of range [1, {nvars}]")
        out: dict[TermKey, int] = {}
        for (exps, mu), c in self.terms.items():
            ne = [0] * nvars
            for t, e in enumerate(exps):
                ne[pos[t] - 1] += e
            key = (tuple(ne), mu)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return _mk(nvars, out)

    def specialize_mu(self, mu1: int | None = None, mu2: int | None = None) -> "Poly":
        """Substitute integer values for m1 and/or m2 (None keeps symbolic)."""
        if mu1 is None and mu2 is None:
            return self
        out: dict[TermKey, int] = {}
        for (exps, (a, b)), c in self.terms.items():
            if mu1 is not None:
                c *= mu1 ** a
                a = 0
            if mu2 is not None:
                c *= mu2 ** b
                b = 0
            if not c:
                continue
            key = (exps, (a, b))
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return _mk(self.nvars, out)

    # ------------------------------------------------------------------
    # degree filtration

    def truncate(self, cap: int) -> "Poly":
        """Drop terms of total x-degree above cap."""
        return _mk(
            self.nvars,
            {key: c for key, c in self.terms.items() if sum(key[0]) <= cap},
        )

    def x_degree_slices(self) -> dict[int, "Poly"]:
        """Split into homogeneous pieces by total x-degree."""
        slices: dict[int, dict[TermKey, int]] = {}
        for key, c in self.terms.items():
            slices.setdefault(sum(key[0]), {})[key] = c
        return {d: _mk(self.nvars, t) for d, t in slices.items()}

    # ------------------------------------------------------------------
    # exact division by x_i - x_{i+1}

    def div_diff(self, i: int) -> "Poly":
        """Divide exactly by (x_i - x_{i+1}); raise DivisionFailure otherwise.

        Synthetic division in x_i: writing f = sum_e f_e(x') x_i^e, the
        quotient coefficients satisfy q_{e-1} = f_e + x_{i+1} q_e going
        down from the top degree, and the remainder f_0 + x_{i+1} q_0
        must vanish.
        """
        if not 1 <= i <= self.nvars - 1:
            raise PolyError(f"division index {i} out of range [1, {self.nvars - 1}]")
        ia, ib = i - 1, i
        levels: dict[int, dict[TermKey, int]] = {}
        for (exps, mu), c in self.terms.items():
            e = exps[ia]
            le = list(exps)
            le[ia] = 0
            levels.setdefault(e, {})[(tuple(le), mu)] = c
        if not levels:
            return Poly.zero(self.nvars)
        top = max(levels)
        quotient: dict[TermKey, int] = {}
        q_cur: dict[TermKey, int] = {}
        for e in range(top, 0, -1):
            nxt: dict[TermKey, int] = dict(levels.get(e, {}))
            for (exps, mu), c in q_cur.items():
                le = list(exps)
                le[ib] += 1
                key = (tuple(le), mu)
                s = nxt.get(key, 0) + c
                if s:
                    nxt[key] = s
                else:
                    nxt.pop(key, None)
            q_cur = nxt
            for (exps, mu), c in q_cur.items():
                if not c:
                    continue
                le = list(exps)
                le[ia] += e - 1
                quotient[(tuple(le), mu)] = c
        remainder: dict[TermKey, int] = dict(levels.get(0, {}))
        for (exps, mu), c in q_cur.items():
            le = list(exps)
            le[ib] += 1
            key = (tuple(le), mu)
            s = remainder.get(key, 0) + c
            if s:
                remainder[key] = s
            else:
                remainder.pop(key, None)
        if remainder:
            raise DivisionFailure(
                f"nonzero remainder dividing by x_{i} - x_{i + 1}"
            )
        return _mk(self.nvars, quotient)

    # ------------------------------------------------------------------
    # rendering and parsing

    def render_text(self) -> str:
        layout = PackedLayout.fit(self, 0)
        return render_packed(layout, layout.pack(self))

    def __repr__(self) -> str:
        return f"Poly({self.nvars}: {self.render_text()})"

    _INT_RE = re.compile(r"-?[0-9]+")
    _TERM_RE = re.compile(
        r"^(-?\d+)(?:\*m1\^(\d+))?(?:\*m2\^(\d+))?\*x\[([0-9,]*)\]$"
    )

    @classmethod
    def parse_text(cls, text: str, nvars: int | None = None) -> "Poly":
        text = text.strip()
        if text == "0":
            if nvars is None:
                raise PolyError("parsing '0' needs an explicit variable count")
            return cls(nvars)  # the checking constructor: nvars may come from --n
        terms: dict[TermKey, int] = {}
        seen_nvars = nvars
        for chunk in text.split(" + "):
            m = cls._TERM_RE.match(chunk.strip())
            if not m:
                raise PolyError(f"unparseable term {chunk!r}")
            c = int(m.group(1))
            a = int(m.group(2) or 0)
            b = int(m.group(3) or 0)
            exps = tuple(int(t) for t in m.group(4).split(",")) if m.group(4) else ()
            if seen_nvars is None:
                seen_nvars = len(exps)
            if len(exps) != seen_nvars:
                raise PolyError("inconsistent variable counts across terms")
            key = (exps, (a, b))
            terms[key] = terms.get(key, 0) + c
        return cls(seen_nvars, terms)

    def to_json_obj(self) -> dict:
        layout = PackedLayout.fit(self, 0)
        return packed_json_obj(layout, layout.pack(self))

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Poly":
        try:
            nvars = obj["nvars"]
            terms: dict[TermKey, int] = {}
            for t in obj["terms"]:
                key = (tuple(t["x"]), tuple(t["mu"]))
                c = t["c"]
                # to_json_obj writes decimal strings; bare JSON integers are fine too
                if isinstance(c, str) and cls._INT_RE.fullmatch(c):
                    c = int(c)
                elif not _is_int(c):
                    raise PolyError(f"coefficient {c!r} is not an integer")
                terms[key] = terms.get(key, 0) + c
        except (KeyError, TypeError) as exc:
            raise PolyError(f"malformed polynomial object: {exc}") from exc
        return cls(nvars, terms)

    @classmethod
    def from_json(cls, text: str) -> "Poly":
        return cls.from_json_obj(json.loads(text))


class PackedLayout(NamedTuple):
    """Term keys of `nvars` variables packed into one int.

    The fields are `width` bits wide, most significant first m2, m1,
    x_1, ..., x_n: x_v sits at shift (n - v) * width, m1 at n * width
    and m2 on top, so `key >> m2_shift` is the m2 exponent.  Adding two
    keys adds their exponents field by field as long as no field
    overflows, so multiplying by a term is one int add.
    """

    nvars: int
    width: int

    @classmethod
    def fit(cls, f: Poly, letters: int) -> "PackedLayout":
        """The narrowest layout for f and its images under `letters` operators.

        C_i and D_i never raise the largest exponent of one variable and
        raise the m1 and m2 exponents by at most one each, so the fields
        hold the largest exponent of f plus the letter count.
        """
        top = max((max(exps + mu) for exps, mu in f.terms), default=0)
        return cls(f.nvars, max(1, (top + letters).bit_length()))

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def m1_shift(self) -> int:
        return self.nvars * self.width

    @property
    def m2_shift(self) -> int:
        return (self.nvars + 1) * self.width

    def x_shift(self, v: int) -> int:
        """Shift of the x_v field, v in [1, nvars]."""
        return (self.nvars - v) * self.width

    @property
    def x_shifts(self) -> list[int]:
        """Shifts of the x_1, ..., x_n fields."""
        return [self.x_shift(v) for v in range(1, self.nvars + 1)]

    def pack(self, f: Poly) -> dict[int, int]:
        if f.nvars != self.nvars:
            raise PolyError("polynomial does not live in the layout's ring")
        w = self.width
        out = {}
        for (exps, (m1, m2)), c in f.terms.items():
            if (m1 | m2 | max(exps, default=0)) >> w:
                raise PolyError(f"exponent above the {w}-bit field of the layout")
            key = m2 << w | m1
            for e in exps:
                key = key << w | e
            out[key] = c
        return out

    def unpack(self, terms: dict[int, int]) -> Poly:
        mask, m1_shift, m2_shift, shifts = self.mask, self.m1_shift, self.m2_shift, self.x_shifts
        return _mk(self.nvars, {
            (tuple([key >> s & mask for s in shifts]), (key >> m1_shift & mask, key >> m2_shift)): c
            for key, c in terms.items()
        })


# Bounds of the printer's memos.  The hyperbolic classes of all 3,061
# reduced words of S_5 hold 10,372 distinct keys in two layouts; a mixed
# session of small calls (`poly`, `reduce`, `expand`, `table`, `grprod`
# at n <= 6) prints in 15 layouts, and with fewer kept it rebuilds
# memos so often that the printer runs slower than with no memo.
_KEY_MEMO_MAX = 16384
_LAYOUTS_KEPT = 16


class _KeyMemo(dict):
    """key -> build(key), emptied wholesale when it holds _KEY_MEMO_MAX entries."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        if len(self) >= _KEY_MEMO_MAX:
            self.clear()
        value = self[key] = self.build(key)
        return value


@lru_cache(maxsize=_LAYOUTS_KEPT)
def _key_memos(layout: PackedLayout) -> tuple[_KeyMemo, _KeyMemo]:
    """(order, text) memos of a layout: order[key] is one int that sorts
    the key into term order (x-degree, x_n down to x_1, m1, m2, packed
    into `width`-bit fields under the degree), text[key] is the key's
    "*m1^a*m2^b*x[...]" suffix."""
    w, mask, m1_shift, m2_shift = layout.width, layout.mask, layout.m1_shift, layout.m2_shift
    shifts = layout.x_shifts

    def order(key: int) -> int:
        exps = [key >> s & mask for s in shifts]
        rank = sum(exps)
        for e in reversed(exps):
            rank = rank << w | e
        return (rank << w | key >> m1_shift & mask) << w | key >> m2_shift

    def text(key: int) -> str:
        a, b = key >> m1_shift & mask, key >> m2_shift
        exps = ",".join([str(key >> s & mask) for s in shifts])
        return f"{f'*m1^{a}' if a else ''}{f'*m2^{b}' if b else ''}*x[{exps}]"

    return _KeyMemo(order), _KeyMemo(text)


def render_packed(layout: PackedLayout, terms: dict[int, int]) -> str:
    """The text of a packed polynomial."""
    order, text = _key_memos(layout)
    keys = sorted(terms, key=order.__getitem__)
    return " + ".join([f"{terms[k]}{text[k]}" for k in keys]) or "0"


def packed_json_obj(layout: PackedLayout, terms: dict[int, int]) -> dict:
    """The JSON object of a packed polynomial."""
    order, _text = _key_memos(layout)
    mask, m1_shift, m2_shift = layout.mask, layout.m1_shift, layout.m2_shift
    shifts = layout.x_shifts
    return {"nvars": layout.nvars, "terms": [
        {"x": [k >> s & mask for s in shifts], "mu": [k >> m1_shift & mask, k >> m2_shift],
         "c": str(terms[k])}
        for k in sorted(terms, key=order.__getitem__)
    ]}


def series_invert_unit(f: Poly, cap: int) -> Poly:
    """Invert f as a power series in the x variables, up to x-degree cap.

    The entire x-degree-0 slice of f must be the constant 1 or -1 (an
    m-dependent constant slice has no polynomial inverse over Z[m1, m2]).
    """
    if cap < 0:
        raise PolyError("cap must be non-negative")
    slices = f.x_degree_slices()
    c0_poly = slices.get(0, Poly.zero(f.nvars))
    unit = c0_poly.coefficient((0,) * f.nvars, MU_ZERO)
    if unit not in (1, -1) or c0_poly != Poly.const(f.nvars, unit):
        raise PolyError("non-unit constant term: x-degree-0 slice must be 1 or -1")
    inv_slices: dict[int, Poly] = {0: Poly.const(f.nvars, unit)}
    for d in range(1, cap + 1):
        acc = Poly.zero(f.nvars)
        for j in range(1, d + 1):
            fj = slices.get(j)
            gdj = inv_slices.get(d - j)
            if fj is not None and gdj is not None:
                acc = acc + fj * gdj
        gd = acc.scale(-unit)
        if not gd.is_zero:
            inv_slices[d] = gd
    out = Poly.zero(f.nvars)
    for g in inv_slices.values():
        out = out + g
    return out
