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
--strict-literal.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .coinv import (
    NotInSpanError,
    expand_in_basis,
    normal_form,
    vandermonde_check,
)
from .combi import BoxPartition, CapacityError
from .ddo import (
    OperatorContext,
    delta_identity_check,
    naive_braid_check,
    twisted_braid_check,
)
from .fgl import FglSpec, KINDS
from .grass import (
    GR24_ORDER,
    GrassContext,
    RectangleClass,
    chow_k_cross_check,
    cross_check_gr24,
    gr24_basis,
    gr24_word,
    smooth_product,
)
from .hecke import (
    verify_coeff_corollary,
    verify_fk_identity,
    verify_local_identities,
    verify_ybe,
)
from .polycore import Poly, PolyError, packed_json_obj, render_packed
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
        return Poly.from_json(text)
    return Poly.parse_text(text, nvars if text == "0" else None)


def _emit_json(obj, out) -> None:
    json.dump(obj, out, sort_keys=True, indent=2)
    out.write("\n")


def _add_fgl_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fgl", choices=KINDS, default=None, help="formal group law")
    p.add_argument("--mu1", type=int, default=None, help="specialize m1 to an integer")
    p.add_argument("--mu2", type=int, default=None, help="specialize m2 to an integer")


# Building the parser costs more than most calls do; parse_args leaves it
# as it was, so one parser serves every call in the process.
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="schubfgl", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("poly", help="compute a polynomial")
    p.add_argument("what", choices=("word",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", type=_int_list, required=True, help="e.g. 2,3,1")
    _add_fgl_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="normal form of a stdin polynomial")
    p.add_argument("--n", type=int, default=None, help="rank; defaults to the input's variable count")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("expand", help="coordinates of a stdin polynomial over a basis")
    p.add_argument("--basis", required=True, help="JSON file: array of polynomials")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("grprod", help="rectangle class times partition class")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rect", type=_int_list, required=True, help="a,b")
    p.add_argument("--lambda", dest="lam", type=_int_list, required=True, help="partition parts")
    _add_fgl_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="print a stored table")
    p.add_argument("what", choices=("gr24",))
    _add_fgl_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("what", choices=VERIFY_SUITES)
    p.add_argument("--n", type=int, action="append", default=None, help="rank; repeatable")
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

    return top


def _cmd_poly(args, out) -> int:
    layout, terms = schubert(OperatorContext(_spec_of(args), args.n), args.word)
    if args.json:
        _emit_json(packed_json_obj(layout, terms), out)
    else:
        out.write(render_packed(layout, terms) + "\n")
    return 0


def _cmd_reduce(args, out, stdin) -> int:
    f = _read_stdin_poly(stdin, args.n)
    n = args.n if args.n is not None else f.nvars
    if n != f.nvars:
        raise PolyError(f"--n {n} does not match the input's {f.nvars} variables")
    g = normal_form(f, n)
    if args.json:
        _emit_json(g.to_json_obj(), out)
    else:
        out.write(g.render_text() + "\n")
    return 0


def _cmd_expand(args, out, stdin) -> int:
    with open(args.basis, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise PolyError("basis file must be a nonempty JSON array of polynomials")
    # entries may be bare polynomials or rows of `table ... --json`
    if not all(isinstance(obj, dict) for obj in raw):
        raise PolyError("basis file entries must be JSON objects")
    basis = [Poly.from_json_obj(obj.get("poly", obj)) for obj in raw]
    f = _read_stdin_poly(stdin, args.n)
    n = args.n if args.n is not None else f.nvars
    coords = expand_in_basis(f, basis, n)
    if args.json:
        _emit_json({"coefficients": [c.to_json_obj() for c in coords]}, out)
    else:
        for i, c in enumerate(coords):
            out.write(f"[{i}] {c.render_text()}\n")
    return 0


def _cmd_grprod(args, out) -> int:
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


def _cmd_table(args, out) -> int:
    spec = _spec_of(args)
    basis = gr24_basis(spec)
    rows = []
    for key, poly in zip(GR24_ORDER, basis):
        lam = BoxPartition(2, 2, key)
        rows.append({"lam": list(key), "word": list(gr24_word(lam)), "poly": poly})
    if args.json:
        _emit_json(
            [{**row, "poly": row["poly"].to_json_obj()} for row in rows], out
        )
    else:
        for row in rows:
            word = ",".join(map(str, row["word"]))
            out.write(f"lam={row['lam'][0]},{row['lam'][1]} word=({word}) {row['poly'].render_text()}\n")
    return 0


def _braid_reports(spec: FglSpec, n: int, args) -> list[CheckReport]:
    ctx = OperatorContext(spec, n)
    reports = []
    for i in range(1, n - 1):
        reports.append(twisted_braid_check(ctx, i, args.samples, args.seed))
        reports.append(naive_braid_check(ctx, i, args.samples, args.seed))
    for i in range(1, n):
        reports.append(delta_identity_check(ctx, i, args.samples, args.seed))
    return reports


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


def _cmd_verify(args, out) -> int:
    default_kind = "multiplicative" if args.what == "chowk" else "hyperbolic"
    spec = _spec_of(args, default_kind)
    default_ns, runner = VERIFY_SUITES[args.what]
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
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "poly":
            return _cmd_poly(args, out)
        if args.cmd == "reduce":
            return _cmd_reduce(args, out, stdin)
        if args.cmd == "expand":
            return _cmd_expand(args, out, stdin)
        if args.cmd == "grprod":
            return _cmd_grprod(args, out)
        if args.cmd == "table":
            return _cmd_table(args, out)
        if args.cmd == "verify":
            return _cmd_verify(args, out)
    except (PolyError, CapacityError, NotInSpanError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"schubfgl: error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
