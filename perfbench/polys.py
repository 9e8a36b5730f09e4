"""Plain-dict polynomials for building benchmark inputs and checking outputs.

A polynomial is a dict {(x exponents, (a, b)): nonzero int}, the term
m1^a m2^b x^e.  Parsing and rendering follow the documented CLI formats
but share no code with the package, so a change in how the package
parses or prints cannot make a wrong answer look right.
"""

from __future__ import annotations

import hashlib
import json
import re

_TERM_RE = re.compile(r"^(-?\d+)(?:\*m1\^(\d+))?(?:\*m2\^(\d+))?\*x\[([0-9,]*)\]$")


def add_into(acc: dict, key, c: int) -> None:
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def add(f: dict, g: dict) -> dict:
    out = dict(f)
    for key, c in g.items():
        add_into(out, key, c)
    return out


def mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (xe, (a, b)), c in f.items():
        for (ye, (a2, b2)), d in g.items():
            add_into(out, (tuple(u + v for u, v in zip(xe, ye)), (a + a2, b + b2)), c * d)
    return out


def graded_degree(key) -> int:
    exps, (a, b) = key
    return sum(exps) - a - 2 * b


def from_json_obj(obj: dict) -> dict:
    out: dict = {}
    for t in obj["terms"]:
        add_into(out, (tuple(int(e) for e in t["x"]), tuple(int(m) for m in t["mu"])), int(t["c"]))
    return out


def parse_text(text: str) -> dict:
    text = text.strip()
    out: dict = {}
    if text == "0":
        return out
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk.strip())
        if not m:
            raise ValueError(f"unparseable term {chunk!r}")
        exps = tuple(int(t) for t in m.group(4).split(",")) if m.group(4) else ()
        add_into(out, (exps, (int(m.group(2) or 0), int(m.group(3) or 0))), int(m.group(1)))
    return out


def render_text(f: dict) -> str:
    if not f:
        return "0"
    chunks = []
    for (exps, (a, b)), c in sorted(f.items()):
        s = str(c)
        if a:
            s += f"*m1^{a}"
        if b:
            s += f"*m2^{b}"
        chunks.append(s + "*x[" + ",".join(map(str, exps)) + "]")
    return " + ".join(chunks)


def render_json(f: dict, nvars: int) -> str:
    terms = [{"x": list(e), "mu": list(mu), "c": str(c)} for (e, mu), c in sorted(f.items())]
    return json.dumps({"nvars": nvars, "terms": terms})


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def poly_digest(f: dict) -> str:
    return digest(sorted(f.items()))


def report_digest(verify_json: dict) -> str:
    """Digest of the (check, label, ok, annotated) tuples of a verify report.

    Other report fields are left out so that added fields do not count
    as a changed answer.
    """
    return digest(
        [
            (rep["check"], [(c["label"], c["ok"], c["annotated"]) for c in rep["cases"]])
            for rep in verify_json["reports"]
        ]
    )
