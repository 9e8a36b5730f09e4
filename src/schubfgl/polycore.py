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
keys of GradedLayout: one int per term, with its fields in term order,
the format the operators of ddo and the products and normal forms of
coinv use.  So plain int order sorts a class, and the printer takes a
class sorted, as its keys and their coefficients: term_order(terms) of
a dict, or a word class as schubert's memo holds it.  A print is one
join over one list, with no Python line run per term: per term the
text of its coefficient, from one process-wide memo, and the text of
its key and the separator, from a memo of the layout keyed by the whole
packed key; only the last term's copy is trimmed.  The text memo holds
a key's "*m1^a*m2^b*x[...] + "; the JSON memo holds what json.dumps(obj,
sort_keys=True, indent=2) writes from the quote after the coefficient
through the next term's opening quote, so no per-term dict is built.  A
memo stores the text of its first _KEY_MEMO_MAX (16,384) keys
and builds that of any later key on each use, the coefficient memo
stores only coefficients below _COEFF_KEPT (2**31) in absolute value,
and the memos of the last _LAYOUTS_KEPT (16) layouts are kept, so all
of them hold at most 2 * 16 * 16,384 + 16,384 = 540,672 entries.

Instances are treated as immutable: operations return new objects and
never mutate their arguments.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from functools import lru_cache
from operator import add
from typing import Iterable, NamedTuple, Sequence

XExp = tuple[int, ...]
MuExp = tuple[int, int]
TermKey = tuple[XExp, MuExp]

MU_ZERO: MuExp = (0, 0)


class PolyError(ValueError):
    """Malformed input or a violated arithmetic precondition."""


class DivisionFailure(PolyError):
    """An exact division left a nonzero remainder."""


# Reading a decimal integer takes time that grows faster than its length
# (Python 3.11, 2 shared CPUs: 0.015 s at 50,000 digits, 0.09 s at
# 100,000 and 0.8 s at 300,000), so no integer of a text or JSON input
# may have more digits than this.
MAX_INPUT_DIGITS = 50_000
_LONG_RUN = re.compile(r"(?<![0-9])[0-9]{%d}[0-9]*" % (MAX_INPUT_DIGITS + 1))


def check_digits(text: str) -> str:
    """text, unless a run of digits in it is longer than MAX_INPUT_DIGITS.

    One scan of the raw text, before any conversion: JSON parsers convert
    bare integers themselves, and a parse_int hook costs a Python call
    per integer.
    """
    long_run = _LONG_RUN.search(text)
    if long_run:
        raise PolyError(
            f"an input integer has {len(long_run[0])} digits, more than the {MAX_INPUT_DIGITS} allowed"
        )
    return text


_INT_TYPES = frozenset({int})


def _is_int(v) -> bool:
    # bool is an int subclass, but True is not an exponent or a coefficient
    return isinstance(v, int) and not isinstance(v, bool)


def _check_nvars(nvars) -> None:
    if not _is_int(nvars) or nvars < 0:
        raise PolyError(f"nvars must be a non-negative int, got {nvars!r}")


def _check_key(nvars: int, exps: tuple, mu: tuple) -> None:
    """That exps and mu are the exponents of a term in nvars variables."""
    if len(exps) != nvars:
        raise PolyError(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
    if len(mu) != 2:
        raise PolyError(f"mu exponents must be a pair, got {mu}")
    ex = exps + mu
    # one set of types and one min per key; the per-element test
    # only names the fault (int subclasses other than bool pass it)
    if not {*map(type, ex)} <= _INT_TYPES or min(ex) < 0:
        if any(not _is_int(e) or e < 0 for e in ex):
            raise PolyError(f"exponents must be non-negative ints: {exps}, {mu}")


def _nonzero(terms: dict[TermKey, int]) -> dict[TermKey, int]:
    """terms without its zero coefficients, in the order it has."""
    return terms if all(terms.values()) else {k: c for k, c in terms.items() if c}


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
        _check_nvars(nvars)
        clean: dict[TermKey, int] = {}
        for key, c in (terms or {}).items():
            exps, mu = key
            exps = tuple(exps)
            mu = tuple(mu)
            _check_key(nvars, exps, mu)
            if type(c) is not int and not _is_int(c):
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

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable-looking container; not usable as a dict key

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
                    tuple(map(add, ea, eb)),
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

    # ------------------------------------------------------------------
    # degree filtration

    def truncate(self, cap: int) -> "Poly":
        """Drop terms of total x-degree above cap."""
        return _mk(
            self.nvars,
            {key: c for key, c in self.terms.items() if sum(key[0]) <= cap},
        )

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

    def packed(self) -> tuple["GradedLayout", list[int], list[int]]:
        """The narrowest layout for self, and self's terms packed in it, in term order."""
        layout = GradedLayout.fit(self, 0)
        return layout, *term_order(layout.pack(self))

    def render_text(self) -> str:
        return render_packed(*self.packed())

    def __repr__(self) -> str:
        return f"Poly({self.nvars}: {self.render_text()})"

    _INT_RE = re.compile(r"-?[0-9]+")
    # [0-9], not \d: check_digits counts ASCII digits, and int() reads them all
    _TERM_RE = re.compile(
        r"^(-?[0-9]+)(?:\*m1\^([0-9]+))?(?:\*m2\^([0-9]+))?\*x\[([0-9,]*)\]$"
    )

    @classmethod
    def parse_text(cls, text: str, nvars: int | None = None) -> "Poly":
        text = check_digits(text).strip()
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
            c, a, b, xs = m.groups()
            # an empty field, as in x[1,,0], fails int(): a pattern that
            # rejected it made parse_text about 10% slower
            try:
                exps = tuple(map(int, xs.split(","))) if xs else ()
            except ValueError:
                raise PolyError(f"unparseable term {chunk!r}") from None
            if seen_nvars is None:
                seen_nvars = len(exps)
            if len(exps) != seen_nvars:
                raise PolyError("inconsistent variable counts across terms")
            key = (exps, (int(a or 0), int(b or 0)))
            terms[key] = terms.get(key, 0) + int(c)
        # the pattern admits only integer exponents and coefficients
        if nvars is not None:
            _check_nvars(nvars)
        return _mk(seen_nvars, _nonzero(terms))

    def to_json_obj(self) -> dict:
        return packed_json_obj(*self.packed())

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Poly":
        try:
            nvars = obj["nvars"]
            _check_nvars(nvars)
            terms: dict[TermKey, int] = {}
            for t in obj["terms"]:
                exps, mu = tuple(t["x"]), tuple(t["mu"])
                key = (exps, mu)
                c = t["c"]
                # to_json_obj writes decimal strings; bare JSON integers are fine too
                if isinstance(c, str) and cls._INT_RE.fullmatch(c):
                    c = int(c)
                elif not _is_int(c):
                    raise PolyError(f"coefficient {c!r} is not an integer")
                # summed before the key's check, so an unhashable exponent
                # reads as a malformed object
                terms[key] = terms.get(key, 0) + c
                _check_key(nvars, exps, mu)
        except (KeyError, TypeError) as exc:
            raise PolyError(f"malformed polynomial object: {exc}") from exc
        return _mk(nvars, _nonzero(terms))

    @classmethod
    def from_json(cls, text: str) -> "Poly":
        return cls.from_json_obj(json.loads(check_digits(text)))


class GradedLayout(NamedTuple):
    """Term keys packed into one int in term order.

    The fields, most significant first, are the x-degree, x_n, ..., x_1
    (`xwidth` bits each), m1 and m2 (`muwidth` bits each): the printer's
    term order, so int order is term order.  The degree field is on top
    and has no width.  The bits from x_1 up are the key's x-part.  With
    the degree on top, "x-degree <= cap" reads
    `key < (cap + 1) << deg_shift`, and adding two keys adds their
    exponents while no field overflows, so multiplying by a term is one
    int add.
    """

    nvars: int
    xwidth: int
    muwidth: int

    @classmethod
    def fit(cls, f: Poly, letters: int) -> "GradedLayout":
        """The narrowest one-width layout for f and its images under
        `letters` operators.

        C_i and D_i never raise the largest exponent of one variable and
        raise the m1 and m2 exponents by at most one each, so the x and mu
        fields hold the largest exponent of f plus the letter count.
        """
        top = max((max(exps + mu) for exps, mu in f.terms), default=0)
        width = max(1, (top + letters).bit_length())
        return cls(f.nvars, width, width)

    @property
    def deg_shift(self) -> int:
        return self.nvars * self.xwidth + 2 * self.muwidth

    def x_shift(self, v: int) -> int:
        """Shift of the x_v field, v in [1, nvars]."""
        return (v - 1) * self.xwidth + 2 * self.muwidth

    @property
    def fields(self) -> tuple[list[int], int, int, int]:
        """(shifts of x_1, ..., x_n, x-field mask, muwidth, mu-field mask):
        what reading the fields of a key takes."""
        mw = self.muwidth
        shifts = [self.x_shift(v) for v in range(1, self.nvars + 1)]
        return shifts, (1 << self.xwidth) - 1, mw, (1 << mw) - 1

    def pack(self, f: Poly, cap: int | None = None, at: tuple[int, ...] | None = None) -> dict[int, int]:
        """f's terms, or those of x-degree at most cap, which the x fields
        must then hold; every exponent must fit its field.  f's variable t
        becomes x_t, or x_{at[t-1]} when at names a distinct target for each."""
        xw, mw = self.xwidth, self.muwidth
        terms = f.terms
        if at is not None:
            # distinct targets in range: all of them are in the intersection
            if len(at) != f.nvars or len(set(at).intersection(range(1, self.nvars + 1))) < f.nvars:
                raise PolyError(f"{f.nvars} variables do not go to distinct x_v at {at} in {self}")
            # x_v takes the exponent of f's variable at.index(v), or the 0 appended
            order = [at.index(v) if v in at else f.nvars for v in range(1, self.nvars + 1)]
            terms = {(tuple([(*exps, 0)[t] for t in order]), mu): c for (exps, mu), c in terms.items()}
        elif f.nvars != self.nvars:
            raise PolyError(f"{f.nvars} variables do not fit {self}")
        if cap is None:
            if any(max(exps, default=0) >> xw for exps, _mu in terms):
                raise PolyError(f"x exponent above the fields of {self}")
            cap = self.nvars << xw  # above every degree the x fields hold
        elif cap >> xw > 0:
            raise PolyError(f"x-degree {cap} does not fit {self}")
        out = {}
        for (exps, (m1, m2)), c in terms.items():
            key = sum(exps)
            if key <= cap:
                if (m1 | m2) >> mw:
                    raise PolyError(f"mu exponent above the fields of {self}")
                for e in reversed(exps):
                    key = key << xw | e
                out[(key << mw | m1) << mw | m2] = c
        return out

    def repack(self, source: "GradedLayout", keys: Iterable[int], coeffs: Iterable[int]) -> dict[int, int]:
        """The terms keys and coeffs, packed in source, packed in this layout
        instead; its fields must be at least as wide as source's."""
        if self.nvars != source.nvars or self.xwidth < source.xwidth or self.muwidth < source.muwidth:
            raise PolyError(f"the fields of {source} do not fit {self}")
        shifts, xmask, mw, mumask = source.fields
        out = {}
        for key, c in zip(keys, coeffs):
            k = key >> source.deg_shift
            for s in reversed(shifts):
                k = k << self.xwidth | key >> s & xmask
            out[(k << self.muwidth | key >> mw & mumask) << self.muwidth | key & mumask] = c
        return out

    def unpack(self, terms: dict[int, int]) -> Poly:
        shifts, xmask, mw, mumask = self.fields
        return _mk(self.nvars, {
            (tuple([key >> s & xmask for s in shifts]), (key >> mw & mumask, key & mumask)): c
            for key, c in terms.items()
        })


def term_order(terms: dict[int, int]) -> tuple[list[int], list[int]]:
    """The keys of packed terms in term order, and their coefficients."""
    keys = sorted(terms)
    return keys, [terms[k] for k in keys]


def short_product(a: dict[int, int], b: dict[int, int], limit: int) -> dict[int, int]:
    """The terms of a * b with keys below limit; a, b in one GradedLayout.

    With limit = (cap + 1) << deg_shift that is the product through
    x-degree cap (a short product, Mulders, AAECC 2000): a pair of higher
    degree has a key >= limit whether or not its lower fields carry.  b's
    keys are sorted once, each term of a meets only the keys below limit
    minus its own, and each pair costs one int add.  The fields must hold
    the exponents of every pair below limit.
    """
    keys, coeffs = term_order(b)
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in zip(keys[:bisect_left(keys, limit - ka)], coeffs):
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


# Bounds of the printer's memos.  The hyperbolic classes of all 3,061
# reduced words of S_5 hold 10,372 distinct keys in one layout; a mixed
# session of small calls (`poly`, `reduce`, `expand`, `table`, `grprod`
# at n <= 6) printed in 14 layouts, and with fewer kept it rebuilt
# memos so often that the printer ran slower than with no memo.  Each
# layout has two memos (text, JSON) and one more memo holds coefficient
# texts, so together they hold at most 2 * 16 * 16,384 + 16,384 =
# 540,672 entries.  They fill lazily: a table of every mu key of an
# m1^1048576 input would hold 1 << 42 entries.
_KEY_MEMO_MAX = 16384
_LAYOUTS_KEPT = 16
_COEFF_KEPT = 1 << 31  # the coefficient memo keeps the texts of |c| below this


class _KeyMemo(dict):
    """key -> build(key), stored for the first _KEY_MEMO_MAX keys and
    built anew for every later one."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self.build(key)
        if len(self) < _KEY_MEMO_MAX:
            self[key] = value
        return value


class _CoeffMemo(_KeyMemo):
    """c -> str(c), stored as _KeyMemo stores it for |c| < _COEFF_KEPT only."""

    __slots__ = ()

    def __missing__(self, c):
        return super().__missing__(c) if -_COEFF_KEPT < c < _COEFF_KEPT else str(c)


_COEFF_TEXT = _CoeffMemo(str)
_JSON_SEP = ',\n    {\n      "c": "'  # ends every JSON memo text


def _join_terms(head: str, sep: str, memo: _KeyMemo, keys: Sequence[int], coeffs: Sequence[int],
                tail: str) -> str:
    """head, each term's coefficient and key texts, and tail; sep is cut off the last key's text."""
    parts = [head] * (2 * len(keys) + 2)
    parts[1:-1:2] = map(_COEFF_TEXT.__getitem__, coeffs)
    parts[2:-1:2] = map(memo.__getitem__, keys)
    parts[-2] = parts[-2][:-len(sep)]
    parts[-1] = tail
    return "".join(parts)


@lru_cache(maxsize=_LAYOUTS_KEPT)
def _key_memos(layout: GradedLayout) -> _KeyMemo:
    """The text memo of a layout: memo[key] is the key's
    "*m1^a*m2^b*x[...]" suffix and the separator " + "."""
    shifts, xmask, mw, mumask = layout.fields

    def text(key: int) -> str:
        a, b = key >> mw & mumask, key & mumask
        exps = ",".join([str(key >> s & xmask) for s in shifts])
        return f"{f'*m1^{a}' if a else ''}{f'*m2^{b}' if b else ''}*x[{exps}] + "

    return _KeyMemo(text)


def render_packed(layout: GradedLayout, keys: Sequence[int], coeffs: Sequence[int]) -> str:
    """The text of a packed polynomial, its keys in term order and their coefficients."""
    return _join_terms("", " + ", _key_memos(layout), keys, coeffs, "") or "0"


def packed_json_obj(layout: GradedLayout, keys: Sequence[int], coeffs: Sequence[int]) -> dict:
    """The JSON object of a packed polynomial, given as render_packed's is."""
    shifts, xmask, mw, mumask = layout.fields
    return {"nvars": layout.nvars, "terms": [
        {"x": [k >> s & xmask for s in shifts], "mu": [k >> mw & mumask, k & mumask], "c": str(c)}
        for k, c in zip(keys, coeffs)
    ]}


@lru_cache(maxsize=_LAYOUTS_KEPT)
def _json_memos(layout: GradedLayout) -> _KeyMemo:
    """The JSON memo of a layout, for a polynomial at the top level:
    memo[key] runs from the quote after a term's coefficient through
    the next term's opening quote."""
    shifts, xmask, mw, mumask = layout.fields

    def text(key: int) -> str:
        exps = ",\n        ".join([str(key >> s & xmask) for s in shifts])
        return (f'",\n      "mu": [\n        {key >> mw & mumask},\n        {key & mumask}\n      ],\n      "x": '
                + (f"[\n        {exps}\n      ]\n    }}" if shifts else "[]\n    }") + _JSON_SEP)

    return _KeyMemo(text)


def packed_json_text(layout: GradedLayout, keys: Sequence[int], coeffs: Sequence[int]) -> str:
    """json.dumps(packed_json_obj(layout, keys, coeffs), sort_keys=True, indent=2)."""
    head = f'{{\n  "nvars": {layout.nvars},\n  "terms": ['
    if not keys:
        return head + "]\n}"
    return _join_terms(head + _JSON_SEP[1:], _JSON_SEP, _json_memos(layout), keys, coeffs, "\n  ]\n}")
