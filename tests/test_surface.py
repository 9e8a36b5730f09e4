"""The package keeps only what its callers use, and bounds every cache."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schubfgl"

# Poly.to_json and Poly.truncate: the benchmark tracer patches them by name
# on the class and raises KeyError for a missing one.  Nothing in src/
# truncates a Poly since the Hecke coefficients are packed (the name is
# still read, through HeckeElem.truncate).
UNREFERENCED_ALLOWED = {"to_json", "truncate"}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_defs(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            # the class itself too, so that no dead alias of a folded type stays
            yield node.name
            yield from (sub.name for sub in node.body if isinstance(sub, ast.FunctionDef))


def test_every_public_function_is_used_in_src():
    trees = _trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _public_defs(tree)
        if not name.startswith("_") and name not in used and name not in UNREFERENCED_ALLOWED
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
