"""The package keeps only what its callers use, bounds every cache, and
leaves Poly arithmetic out of every command but `verify braid`."""

import ast
import contextlib
import io
import json
from pathlib import Path

import pytest

from schubfgl.cli import VERIFY_SUITES, main
from schubfgl.polycore import Poly

SRC = Path(__file__).resolve().parent.parent / "src" / "schubfgl"

# Poly.to_json and Poly.truncate: the benchmark tracer patches them by name
# on the class and raises KeyError for a missing one.  Nothing in src/
# truncates a Poly since the Hecke coefficients are packed (the name is
# still read, through HeckeElem.truncate).
UNREFERENCED_ALLOWED = {"to_json", "truncate"}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_defs(tree):
    """(name, is a method) of every function and class the module defines."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, False
        elif isinstance(node, ast.ClassDef):
            # the class itself too, so that no dead alias of a folded type stays
            yield node.name, False
            yield from ((sub.name, True) for sub in node.body if isinstance(sub, ast.FunctionDef))


def test_every_public_function_is_used_in_src():
    # a method counts as used only through an attribute (x.name): a local
    # variable of the same name is no call of it
    trees = _trees()
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unused = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, method in _public_defs(tree)
        if not name.startswith("_") and name not in UNREFERENCED_ALLOWED
        and name not in attrs and (method or name not in names)
    )
    assert not unused, f"public names that nothing in src/ references: {unused}"


def _is_unbounded(deco) -> bool:
    """functools.cache, or lru_cache with maxsize None."""
    target = deco.func if isinstance(deco, ast.Call) else deco
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(deco, ast.Call):
        return False
    sizes = deco.args[:1] + [kw.value for kw in deco.keywords if kw.arg == "maxsize"]
    return any(isinstance(a, ast.Constant) and a.value is None for a in sizes)


def test_no_unbounded_cache():
    unbounded = [
        f"{module}:{node.name}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(map(_is_unbounded, node.decorator_list))
    ]
    assert not unbounded, f"unbounded caches: {unbounded}"


def test_one_normal_form_memo():
    # one reduction: only it reads the monomial memo, and coinv keeps no
    # second dict of normal forms beside it
    trees = _trees()
    readers = sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(sub, ast.Name) and sub.id == "_NF_MEMO" for sub in ast.walk(node))
    )
    assert readers == ["coinv.py:_monomial_normal_form", "coinv.py:reduce_packed"]
    dicts = [
        node.target.id if isinstance(node, ast.AnnAssign) else node.targets[0].id
        for node in trees["coinv.py"].body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict)
    ]
    assert dicts == ["_NF_MEMO"]


def test_one_packed_key_layout():
    # every packed term key has one field order, so one class packs them
    packers = [
        f"{module}:{node.name}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and {"pack", "unpack"} <= {sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)}
    ]
    assert packers == ["polycore.py:GradedLayout"]


# Poly is the type of parsing, printing and the tests; the packed core does
# the arithmetic of every command.  `verify braid` is the one exception:
# ddo.relation_reports and fgl.kappa_of still multiply, subtract, swap and
# divide Polys.
POLY_ARITHMETIC = ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "scale", "sigma",
                   "div_diff", "truncate")
GUARD_LAWS = ("additive", "multiplicative", "hyperbolic", "lorentz", "hyperbolic --mu1 2")


class PolyArithmeticUsed(Exception):
    """Raised by the disabled Poly arithmetic; no handler of the cli catches it."""


def _guarded_calls(basis_file: str, law: str) -> list[tuple[list[str], str]]:
    """(argv, stdin) of one call of every subcommand and every verify suite
    but braid, under law where the command takes one."""
    fgl = ["--fgl", *law.split()]
    calls = [
        (["poly", "word", "--n", "3", "--word", "1,2,1", *fgl], ""),
        (["reduce"], "1*x[3,0,0] + -2*m1^1*x[2,1,0] + 1*m2^1*x[2,2,0]"),
        (["expand", "--basis", basis_file, "--n", "2"], "1*x[1,0] + 3*m1^1*x[0,0]"),
        (["grprod", "--k", "2", "--n", "4", "--rect", "1,1", "--lambda", "2,1", *fgl], ""),
        (["table", "gr24", *fgl], ""),
    ]
    return calls + [(["verify", what, *fgl], "") for what in VERIFY_SUITES if what != "braid"]


def _outcome(argv: list[str], stdin: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, out, io.StringIO(stdin))
        except PolyArithmeticUsed as exc:
            code = f"Poly.{exc}"
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("law", GUARD_LAWS)
def test_no_command_but_braid_does_poly_arithmetic(law, tmp_path, monkeypatch):
    basis = [{"nvars": 2, "terms": [{"x": x, "mu": [0, 0], "c": "1"}]} for x in ([0, 0], [1, 0])]
    basis_file = tmp_path / "basis.json"
    basis_file.write_text(json.dumps(basis))
    calls = _guarded_calls(str(basis_file), law)
    expected = [_outcome(argv, stdin) for argv, stdin in calls]

    def disabled(name):
        def method(*args, **kwargs):
            raise PolyArithmeticUsed(name)
        return method

    for name in POLY_ARITHMETIC:
        monkeypatch.setattr(Poly, name, disabled(name))
    got = [_outcome(argv, stdin) for argv, stdin in calls]
    differ = [" ".join(argv) for (argv, _), a, b in zip(calls, expected, got) if a != b]
    assert not differ, f"calls that do Poly arithmetic: {differ}"
    # the documented exception: when it no longer holds, drop it
    braid, _out, _err = _outcome(["verify", "braid", "--fgl", *law.split()], "")
    assert braid in {f"Poly.{name}" for name in POLY_ARITHMETIC}
