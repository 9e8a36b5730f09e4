"""Batch front end: compute, reduce, expand, multiply, verify.

Subcommands
-----------
poly word    class of a reduced word (text or JSON)
reduce       normal form of a polynomial read from stdin
expand       coordinates of a stdin polynomial over a basis file
grprod       rectangle times partition in a Grassmannian
table gr24   the six Gr(2,4) classes in normal form
verify       run one of the verification suites

Exit status: 0 on success / all checks passed, 1 on verification
failure, 2 on usage errors.  Output is deterministic for a fixed
command line and seed; annotated findings only fail the run under
--strict-literal.  With --json the output bytes are those of
json.dump(obj, sort_keys=True, indent=2) plus a newline, written by one
direct writer (_json_text), which hands each polynomial, a PackedPoly,
to the packed-key writer of polycore; no per-term dict is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

from .coinv import (
    Basis,
    NotInSpanError,
    expand_in_basis,
    reduce_polys,
    vandermonde_check,
)
from .combi import BoxPartition, CapacityError
from .ddo import OperatorContext, relation_reports
from .fgl import FglSpec, KINDS
from .grass import (
    GR24_ORDER,
    GrassContext,
    RectangleClass,
    chow_k_cross_check,
    class_layout,
    class_words,
    cross_check_gr24,
    grass_classes,
    smooth_product,
)
from .hecke import (
    verify_coeff_corollary,
    verify_fk_identity,
    verify_local_identities,
    verify_ybe,
)
from .polycore import GradedLayout, Poly, PolyError, check_digits, packed_json_text, render_packed, term_order
from .report import CheckReport
from .schubert import schubert


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _spec_of(args: argparse.Namespace, default_kind: str = "hyperbolic") -> FglSpec:
    kind = args.fgl if args.fgl is not None else default_kind
    return FglSpec(kind, args.mu1, args.mu2)


def _read_stdin_poly(stdin, nvars: int | None) -> Poly:
    """The polynomial on stdin; nvars (from --n) only sizes a bare '0'."""
    text = stdin.read().strip()
    if not text:
        raise PolyError("no polynomial on stdin")
    if text.startswith("{"):
        try:
            return Poly.from_json(text)
        except RecursionError:
            raise PolyError("the JSON on stdin is nested too deeply") from None
    return Poly.parse_text(text, nvars if text == "0" else None)


class PackedPoly(NamedTuple):
    """A packed polynomial in JSON output, in term order; it is written as
    its packed_json_obj, through polycore.packed_json_text."""

    layout: GradedLayout
    keys: Sequence[int]
    coeffs: Sequence[int]


def _json_text(obj, indent: str = "") -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, with
    each PackedPoly in it written as its packed_json_obj.

    Dict keys must be str; indent is the indent of the line obj starts on.
    With indent set, the stdlib runs its pure-Python encoder, which costs
    more than most calls' mathematics.  A PackedPoly's text is written
    for the top level and indented with one replace.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if type(obj) is PackedPoly:
        text = packed_json_text(*obj)
        return text.replace("\n", "\n" + indent) if indent else text
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join(
            encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())
        )
        # an f-string copies body once; a chain of + would hold three copies
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join(_json_text(v, inner) for v in obj)
        return f"[\n{inner}{body}\n{indent}]"
    # floats and unsupported types behave as in the stdlib
    return json.dumps(obj)


def _emit_json(obj, out) -> None:
    # two writes: a + would copy the whole text once more
    out.write(_json_text(obj))
    out.write("\n")


def _add_fgl_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fgl", choices=KINDS, default=None, help="formal group law")
    p.add_argument("--mu1", type=int, default=None, help="specialize m1 to an integer")
    p.add_argument("--mu2", type=int, default=None, help="specialize m2 to an integer")


# Building the parser costs more than most calls do; parsing leaves it as
# it was, so one parser serves every call in the process.  Parsing with it
# cost 14-36 us a call on the benchmark's command lines, against 2-8 us
# for _read_plain, which reads a plain argv from the same declarations
# (timeit, best of 7, 2 shared CPUs, Python 3.11).  main hands argparse
# only the argvs _read_plain declines, so every usage error and help text
# is argparse's own.
@lru_cache(maxsize=1)
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top parser and the parser of each subcommand by name."""
    top = argparse.ArgumentParser(prog="schubfgl", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("poly", help="compute a polynomial")
    p.set_defaults(run=_cmd_poly)
    p.add_argument("what", choices=("word",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", type=_int_list, required=True, help="e.g. 2,3,1")
    _add_fgl_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="normal form of a stdin polynomial")
    p.set_defaults(run=_cmd_reduce)
    p.add_argument("--n", type=int, default=None, help="rank; defaults to the input's variable count")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("expand", help="coordinates of a stdin polynomial over a basis")
    p.set_defaults(run=_cmd_expand)
    p.add_argument("--basis", required=True, help="JSON file: array of polynomials")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("grprod", help="rectangle class times partition class")
    p.set_defaults(run=_cmd_grprod)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rect", type=_int_list, required=True, help="a,b")
    p.add_argument("--lambda", dest="lam", type=_int_list, required=True, help="partition parts")
    _add_fgl_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="print a stored table")
    p.set_defaults(run=_cmd_table)
    p.add_argument("what", choices=("gr24",))
    _add_fgl_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("what", choices=VERIFY_SUITES)
    p.add_argument("--n", type=int, action="append", default=None, help="rank; repeatable with distinct ranks")
    p.add_argument("--k", type=int, default=2, help="subspace dimension (chowk)")
    _add_fgl_flags(p)
    p.add_argument("--cap", type=int, default=None, help="series truncation degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--strict-literal",
        action="store_true",
        help="count annotated findings as failures",
    )

    return top, sub.choices


@lru_cache(maxsize=16)
def _plain_form(parser: argparse.ArgumentParser):
    """What _read_plain needs of parser, read from its own actions: the
    options it takes by exact string, its positionals in order, its
    required actions, and each dest's default as argparse sets it."""
    defaults = {}
    for action in parser._actions:
        if action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    # help, whose default is SUPPRESS, and any nargs but one value or none
    # are left to argparse
    options = {
        option: action
        for action in parser._actions
        if action.nargs in (None, 0) and action.default is not argparse.SUPPRESS
        for option in action.option_strings
    }
    positionals = [action for action in parser._actions if not action.option_strings]
    required = [action for action in parser._actions if action.required]
    return options, positionals, required, defaults


def _read_plain(parser: argparse.ArgumentParser, cmd: str, argv: Sequence[str]) -> argparse.Namespace | None:
    """parser.parse_known_args(argv, Namespace(cmd=cmd))[0] for argv in plain
    form, None for any other argv.

    Plain form: exact option strings, each value its own token that does
    not start with '-' and passes its type and choices, every required
    argument present, nothing left over.  Each action stores its value
    itself, as under argparse.  Help, abbreviations, --opt=value, negative
    values, --, bad values and missing or extra arguments are not plain.
    """
    options, positionals, required, defaults = _plain_form(parser)
    args = argparse.Namespace(**defaults)
    args.cmd = cmd
    seen = set()
    tokens, slots = iter(argv), iter(positionals)
    try:
        for token in tokens:
            action, option = (options[token], token) if token.startswith("-") else (next(slots), None)
            if action.nargs == 0:
                value = []
            else:
                text = token if option is None else next(tokens)
                if text.startswith("-"):
                    return None
                value = text if action.type is None else action.type(text)
                if action.choices is not None and value not in action.choices:
                    return None
            action(parser, args, value, option)
            seen.add(action)
    except (KeyError, StopIteration, argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return args if seen.issuperset(required) else None


# A class can grow about fivefold per letter of a chain of adjacent
# letters (hyperbolic law), and the text of each term grows with the
# rank.  poly word takes every reduced word up to rank 6 (a fresh
# process prints the longest word there in about 0.24 s in text and
# 0.25 s with --json, start-up included; rank 7 takes about 16 s); above
# it, words of up to 7 letters, which stay under about 0.7 s up to rank 100.
# The library calls under it stay unbounded: the Chow/K representatives
# of Gr(6,7) apply 15-letter words at rank 7 under the m2 = 0 laws, and
# verify chowk --k 6 --n 7 takes about 0.2 s.
MAX_ANY_WORD_RANK = 6
MAX_SHORT_WORD = 7
MAX_WORD_CLASS_RANK = 100


def _cmd_poly(args, out, stdin) -> int:
    n, word = args.n, args.word
    if n > MAX_WORD_CLASS_RANK:
        raise CapacityError(f"poly word is limited to rank {MAX_WORD_CLASS_RANK}, got {n}")
    if n > MAX_ANY_WORD_RANK and len(word) > MAX_SHORT_WORD:
        raise CapacityError(
            f"above rank {MAX_ANY_WORD_RANK} poly word is limited to words of "
            f"{MAX_SHORT_WORD} letters, got {len(word)} at rank {n}"
        )
    cls = schubert(OperatorContext(_spec_of(args), n), word)
    if args.json:
        _emit_json(PackedPoly(*cls), out)
    else:
        out.writelines((render_packed(*cls), "\n"))
    return 0


def _cmd_reduce(args, out, stdin) -> int:
    f = _read_stdin_poly(stdin, args.n)
    n = args.n if args.n is not None else f.nvars
    if n != f.nvars:
        raise PolyError(f"--n {n} does not match the input's {f.nvars} variables")
    layout, (g,) = reduce_polys([f], n)
    if args.json:
        _emit_json(PackedPoly(layout, *term_order(g)), out)
    else:
        out.writelines((render_packed(layout, *term_order(g)), "\n"))
    return 0


# by content, not path: the last four bases, each parsed once and reduced once per layout
@lru_cache(maxsize=4)
def _read_basis(text: str) -> Basis:
    try:
        raw = json.loads(check_digits(text))
    except RecursionError:
        raise PolyError("the basis file is nested too deeply") from None
    if not isinstance(raw, list) or not raw:
        raise PolyError("basis file must be a nonempty JSON array of polynomials")
    # entries may be bare polynomials or rows of `table ... --json`
    if not all(isinstance(obj, dict) for obj in raw):
        raise PolyError("basis file entries must be JSON objects")
    return Basis([Poly.from_json_obj(obj.get("poly", obj)) for obj in raw])


def _cmd_expand(args, out, stdin) -> int:
    with open(args.basis, encoding="utf-8") as fh:
        basis = _read_basis(fh.read())
    f = _read_stdin_poly(stdin, args.n)
    n = args.n if args.n is not None else f.nvars
    layout, coords = expand_in_basis(f, basis, n)
    if args.json:
        _emit_json({"coefficients": [PackedPoly(layout, *term_order(c)) for c in coords]}, out)
    else:
        for i, c in enumerate(coords):
            out.write(f"[{i}] {render_packed(layout, *term_order(c))}\n")
    return 0


def _cmd_grprod(args, out, stdin) -> int:
    if len(args.rect) != 2:
        raise PolyError("--rect takes exactly two integers a,b")
    # the rule itself is law-independent; the context just carries one
    ctx = GrassContext(args.k, args.n, _spec_of(args))
    r = RectangleClass(*args.rect)
    lam = BoxPartition(args.k, args.n - args.k, args.lam)
    result = smooth_product(ctx, r, lam)
    if args.json:
        _emit_json(
            {
                "k": args.k,
                "n": args.n,
                "rect": list(args.rect),
                "lambda": list(lam.parts),
                "result": None if result is None else list(result.parts),
            },
            out,
        )
    else:
        out.write(("0" if result is None else result.render()) + "\n")
    return 0


def _cmd_table(args, out, stdin) -> int:
    layout = class_layout(4)
    classes = grass_classes(GrassContext(2, 4, _spec_of(args)), GR24_ORDER)
    rows = [(key, class_words(2, 4)[key], term_order(terms)) for key, terms in classes.items()]
    if args.json:
        _emit_json([{"lam": list(key), "word": list(word), "poly": PackedPoly(layout, *terms)}
                    for key, word, terms in rows], out)
    else:
        for (a, b), word, terms in rows:
            word_txt = ",".join(map(str, word))
            out.write(f"lam={a},{b} word=({word_txt}) {render_packed(layout, *terms)}\n")
    return 0


# verify braid runs 3n - 5 reports of --samples polynomials each, all from
# one pass over the samples.  At both bounds the hyperbolic law, the slowest,
# took 0.39-0.51 s in process (2 shared CPUs, Python 3.11).  Unbounded, rank
# 1000 took 20 s with one sample and 20,000 samples 25 s, measured when each
# report drew its own samples.
MAX_BRAID_RANK, MAX_BRAID_SAMPLES = 12, 100


def _braid_reports(spec: FglSpec, n: int, args) -> list[CheckReport]:
    if n > MAX_BRAID_RANK or args.samples > MAX_BRAID_SAMPLES:
        raise CapacityError(f"verify braid is limited to rank {MAX_BRAID_RANK} and "
                            f"{MAX_BRAID_SAMPLES} samples, got {n} and {args.samples}")
    return relation_reports(OperatorContext(spec, n), args.samples, args.seed)


# kind -> (ranks run when no --n is given, runner(spec, n, args) -> reports);
# gr24 has a fixed rank, so it runs once with n = None whatever --n says
VERIFY_SUITES = {
    "fk": ((3,), lambda spec, n, args: [verify_fk_identity(spec, n)]),
    "differ": ((3,), lambda spec, n, args: [verify_coeff_corollary(spec, n)]),
    "ybe": ((3,), lambda spec, n, args: [verify_ybe(spec, n)]),
    "local": (
        (2,),
        lambda spec, n, args: [verify_local_identities(spec, n, 8 if args.cap is None else args.cap)],
    ),
    "braid": ((3,), _braid_reports),
    "vandermonde": (
        (2, 3),
        lambda spec, n, args: [
            vandermonde_check(spec, n, n * (n - 1) // 2 + 2 if args.cap is None else args.cap)
        ],
    ),
    "gr24": (None, lambda spec, n, args: [cross_check_gr24(spec)]),
    "chowk": ((4,), lambda spec, n, args: [chow_k_cross_check(args.k, n, spec)]),
}


def _cmd_verify(args, out, stdin) -> int:
    default_kind = "multiplicative" if args.what == "chowk" else "hyperbolic"
    spec = _spec_of(args, default_kind)
    default_ns, runner = VERIFY_SUITES[args.what]
    # each rank runs once: a repeated rank would run the suite again, so
    # the per-rank bounds would not bound the call
    for k, n in enumerate(args.n or ()):
        if n in args.n[:k]:
            raise ValueError(f"verify --n {n} is given more than once")
    ns = (None,) if default_ns is None else args.n or default_ns
    reports = [rep for n in ns for rep in runner(spec, n, args)]
    reports.sort(key=lambda rep: rep.name)

    strict = args.strict_literal
    ok = all(
        all(c.ok for c in rep.cases) if strict else rep.passed for rep in reports
    )
    if args.json:
        _emit_json(
            {
                "passed": ok,
                "strict_literal": strict,
                "reports": [rep.to_json_obj() for rep in reports],
            },
            out,
        )
    else:
        for rep in reports:
            out.writelines(line + "\n" for line in rep.summary_lines())
        out.write(f"overall: {'PASS' if ok else 'FAIL'} ({len(reports)} reports)\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None, out=None, stdin=None) -> int:
    out = out if out is not None else sys.stdout
    stdin = stdin if stdin is not None else sys.stdin
    argv = sys.argv[1:] if argv is None else argv
    # exact integers have any length: the call lifts CPython's cap on
    # int/str conversion (3.10.7 on), parsing included, and restores it
    cap = getattr(sys, "get_int_max_str_digits", None)
    old_cap = cap() if cap else None
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        top, commands = build_parser()
        # a named subcommand goes straight to its own parser (after the plain
        # reader), which is all the top parser would do with it after a pass
        # of its own over argv; the usage errors read the same
        if argv and argv[0] in commands:
            parser = commands[argv[0]]
            args = _read_plain(parser, argv[0], argv[1:])
            if args is None:
                args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(cmd=argv[0]))
                if extras:
                    top.error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            args = top.parse_args(argv)
        return args.run(args, out, stdin)
    except BrokenPipeError:  # the reader left: exit as SIGPIPE would, 128 + 13, and silently
        if out is sys.stdout:  # what stays buffered goes to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 141
    except (PolyError, CapacityError, NotInSpanError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"schubfgl: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cap:
            sys.set_int_max_str_digits(old_cap)


if __name__ == "__main__":
    sys.exit(main())
