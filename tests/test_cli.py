"""End-to-end command line checks, run in process."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubfgl import cli, coinv, polycore
from schubfgl.cli import (
    MAX_ANY_WORD_RANK,
    MAX_BRAID_RANK,
    MAX_BRAID_SAMPLES,
    MAX_SHORT_WORD,
    MAX_WORD_CLASS_RANK,
    main,
)
from schubfgl.coinv import MAX_EXPAND_UNKNOWNS
from schubfgl.ddo import OperatorContext
from schubfgl.fgl import FglSpec
from schubfgl.hecke import MAX_LOCAL_CAP
from schubfgl.polycore import MAX_INPUT_DIGITS, GradedLayout, Poly, packed_json_obj, term_order
from schubfgl.report import CheckReport
from schubfgl.schubert import schubert

from oracles import all_permutations, constant, division_apply_c, reduced_words, s5_word_sample


def run(argv, stdin_text=None):
    out = io.StringIO()
    stdin = io.StringIO(stdin_text) if stdin_text is not None else None
    code = main(argv, out=out, stdin=stdin)
    return code, out.getvalue()


def test_poly_word_text():
    code, text = run(["poly", "word", "--n", "2", "--word", "1"])
    assert code == 0
    assert text.strip() == "1*x[0,0] + -1*m2^1*x[1,1]"


def test_poly_word_json_roundtrip_through_reduce():
    code, blob = run(["poly", "word", "--n", "2", "--word", "1", "--json"])
    assert code == 0
    obj = json.loads(blob)
    assert obj["nvars"] == 2
    code, text = run(["reduce", "--n", "2"], stdin_text=blob)
    assert code == 0
    assert text.strip() == "1*x[0,0]"


def test_reduce_text_input(tmp_path, capsys):
    code, text = run(["reduce", "--n", "2"], stdin_text="1*x[1,0] + -1*x[0,1]")
    assert code == 0
    assert text.strip() == "2*x[1,0]"
    code, text = run(["reduce"], stdin_text="1*x[1,0] + 1*x[0,1]")
    assert code == 0
    assert text.strip() == "0"
    # reduce reads its own zero output once --n gives the variable count
    code, text = run(["reduce", "--n", "2"], stdin_text="0\n")
    assert (code, text.strip()) == (0, "0")
    code, text = run(["reduce", "--n", "2", "--json"], stdin_text="0")
    assert code == 0
    assert json.loads(text) == {"nvars": 2, "terms": []}
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([Poly.variable(2, 1).to_json_obj()]))
    code, text = run(["expand", "--basis", str(basis), "--n", "2"], stdin_text="0")
    assert (code, text) == (0, "[0] 0\n")
    # a bare 0 without --n, and a nonzero input with a mismatched --n, stay errors
    capsys.readouterr()
    for argv in (["reduce"], ["expand", "--basis", str(basis)]):
        assert run(argv, stdin_text="0") == (2, "")
        assert "parsing '0' needs an explicit variable count" in capsys.readouterr().err
    assert run(["reduce", "--n", "3"], stdin_text="1*x[1,0]") == (2, "")
    assert "--n 3 does not match the input's 2 variables" in capsys.readouterr().err
    # a negative --n on a bare 0 is a usage error, not an internal one
    for n in ("-1", "-2"):
        assert run(["reduce", "--n", n], stdin_text="0") == (2, "")
        assert f"nvars must be a non-negative int, got {n}" in capsys.readouterr().err


def test_reduce_arity_mismatch():
    code, _ = run(["reduce", "--n", "3"], stdin_text="1*x[1,0] + -1*x[0,1]")
    assert code == 2


def test_malformed_exponent_lists_name_the_term(capsys):
    # an empty exponent field is a malformed term, not a bare int() error;
    # the empty list x[] is the one term of no variables
    for text in ("1*x[1,,0]", "1*x[,]", "1*x[1,0,]"):
        assert run(["reduce"], stdin_text=text) == (2, "")
        assert capsys.readouterr().err == f"schubfgl: error: unparseable term {text!r}\n"
    assert run(["reduce"], stdin_text="2*x[]") == (0, "2*x[]\n")


@pytest.mark.parametrize("text, message", [
    ("1*x[1,,0]", "unparseable term '1*x[1,,0]'"),  # an empty field
    ("+1*x[1,0]", "unparseable term '+1*x[1,0]'"),
    ("1*x[1,0] +", "unparseable term '1*x[1,0] +'"),  # a trailing ' +'
    ("1*x[1,0] + 2", "unparseable term '2'"),
    ("1*x[1,0]+1*x[0,1]", "unparseable term '1*x[1,0]+1*x[0,1]'"),
    ("1*m2^1*m1^1*x[1,0]", "unparseable term '1*m2^1*m1^1*x[1,0]'"),  # m2 before m1
    ("1x[1,0]", "unparseable term '1x[1,0]'"),  # a missing '*'
    ("1*m1^1x[1,0]", "unparseable term '1*m1^1x[1,0]'"),
    ("1.5*x[1,0]", "unparseable term '1.5*x[1,0]'"),
    ("1*m1^-1*x[1,0]", "unparseable term '1*m1^-1*x[1,0]'"),
    ("1*x[-1,0]", "unparseable term '1*x[-1,0]'"),
    ("1*x[1,0] + 1*x[1,0,0]", "inconsistent variable counts across terms"),
    ("0", "parsing '0' needs an explicit variable count"),  # a bare 0 without --n
    ("", "no polynomial on stdin"),
])
def test_text_reader_faults_name_themselves(text, message, capsys):
    assert run(["reduce"], stdin_text=text) == (2, "")
    assert capsys.readouterr().err == f"schubfgl: error: {message}\n"


@pytest.mark.parametrize("text", ["١*x[1,0]", "1*m1^١*x[1,0]", "1*m2^١*x[1,0]",
                                  "1*m1^1*m2^١*x[1,0]", "1*x[1,0] + ١٢*x[0,1]"])
def test_text_reader_takes_ascii_digits_only(text, capsys):
    # int() reads Arabic-Indic digits (U+0661 is one), which the digit
    # bound does not count; the JSON reader and the x field reject them too
    assert run(["reduce"], stdin_text=text) == (2, "")
    assert "unparseable term" in capsys.readouterr().err


def test_non_ascii_digits_do_not_pass_the_digit_bound(capsys):
    t0 = time.perf_counter()
    assert run(["reduce"], stdin_text="١" * 200_000 + "*x[1,0]") == (2, "")
    assert time.perf_counter() - t0 < 0.5
    assert "unparseable term" in capsys.readouterr().err


def test_expand_with_basis_file(tmp_path):
    code, table_blob = run(["table", "gr24", "--json"])
    assert code == 0
    rows = json.loads(table_blob)
    assert len(rows) == 6

    # table rows carry extra keys; a bare array of polys works too
    f1 = tmp_path / "basis_rows.json"
    f1.write_text(table_blob)
    f2 = tmp_path / "basis_bare.json"
    f2.write_text(json.dumps([r["poly"] for r in rows]))

    code, sq = run(["poly", "word", "--n", "4", "--word", "3,1,2,3,1", "--json"])
    assert code == 0
    obj = json.loads(sq)
    # square the length-five class by hand: feed expand twice instead
    import schubfgl.polycore as pc

    lg = pc.Poly.from_json_obj(obj)
    blob = json.dumps((lg * lg).to_json_obj())
    for basis_file in (f1, f2):
        code, text = run(
            ["expand", "--basis", str(basis_file), "--n", "4", "--json"],
            stdin_text=blob,
        )
        assert code == 0
        coords = json.loads(text)["coefficients"]
        rendered = [pc.Poly.from_json_obj(c).render_text() for c in coords]
        assert rendered == ["0", "-1*m1^1*x[]", "1*x[]", "1*x[]", "0", "0"]


def test_expand_variable_count_mismatch_exits_2(tmp_path, capsys):
    # the basis is read first: its element names the count it lacks
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([constant(3, 1).to_json_obj()]))
    for argv, stdin, n, got in (
        ([], "1*x[1,0,0,0]", 4, 3),
        (["--n", "3"], "1*x[1,0,0,0]", 3, 4),
    ):
        assert run(["expand", "--basis", str(basis), *argv], stdin_text=stdin) == (2, "")
        assert f"expected a polynomial in {n} variables, got {got}" in capsys.readouterr().err


def test_expand_not_in_span(tmp_path):
    f = tmp_path / "basis.json"
    code, blob = run(["poly", "word", "--n", "2", "--word", "1", "--json"])
    f.write_text(json.dumps([json.loads(blob)]))
    code, _ = run(["expand", "--basis", str(f), "--n", "2"], stdin_text="x1")
    assert code == 2


def test_expand_basis_rows_must_be_objects(tmp_path, capsys):
    for i, rows in enumerate(([5], [[1, 2]])):
        f = tmp_path / f"basis{i}.json"
        f.write_text(json.dumps(rows))
        code, _ = run(["expand", "--basis", str(f), "--n", "2"], stdin_text="x1")
        assert code == 2
        assert "schubfgl: error:" in capsys.readouterr().err


def test_expand_unknowns_bound(tmp_path, capsys):
    # over the six staircase monomials of rank 3, m1^e x_1 has 3e + 6
    # unknowns; without the bound e = 150 ran 3.3 s and larger e for hours
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([Poly.monomial(3, x).to_json_obj() for x in (
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0))]))
    e = (MAX_EXPAND_UNKNOWNS - 6) // 3
    assert 3 * e + 6 == MAX_EXPAND_UNKNOWNS
    code, text = run(["expand", "--basis", str(basis), "--n", "3"], stdin_text=f"1*m1^{e}*x[1,0,0]")
    assert code == 0
    assert text == f"[0] 0\n[1] 1*m1^{e}*x[]\n[2] 0\n[3] 0\n[4] 0\n[5] 0\n"
    t0 = time.perf_counter()
    code, _ = run(["expand", "--basis", str(basis), "--n", "3"], stdin_text=f"1*m1^{e + 1}*x[1,0,0]")
    assert code == 2
    assert time.perf_counter() - t0 < 1.0
    assert (f"schubfgl: error: expansion needs {MAX_EXPAND_UNKNOWNS + 3} unknowns, above the"
            f" bound of {MAX_EXPAND_UNKNOWNS}") in capsys.readouterr().err


def _poly_obj(n, *terms):
    return {"nvars": n, "terms": [{"c": str(c), "mu": [0, 0], "x": list(x)} for c, x in terms]}


def test_expand_keys_its_basis_by_content(tmp_path, monkeypatch):
    # the two bases have texts of one length: only the content tells them apart
    basis = tmp_path / "basis.json"
    unit, x1 = _poly_obj(2, (1, (0, 0))), _poly_obj(2, (1, (1, 0)))
    argv = ["expand", "--basis", str(basis)]
    basis.write_text(json.dumps([unit, x1]))
    assert run(argv, "1*x[1,0]") == (0, "[0] 0\n[1] 1*x[]\n")
    basis.write_text(json.dumps([x1, unit]))
    assert run(argv, "1*x[1,0]") == (0, "[0] 1*x[]\n[1] 0\n")
    # the same content at another path is read, graded and reduced once
    reduced = []
    real = coinv.reduce_polys
    monkeypatch.setattr(coinv, "reduce_polys", lambda polys, *a: reduced.append(len(polys)) or real(polys, *a))
    cli._read_basis.cache_clear()
    copy = tmp_path / "copy.json"
    copy.write_text(basis.read_text())
    for path in (basis, copy, basis):
        assert run(["expand", "--basis", str(path)], "3*x[0,0]") == (0, "[0] 0\n[1] 3*x[]\n")
    assert reduced == [2, 1, 1, 1]  # the basis once, then each target


def test_expand_caches_no_error(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    argv = ["expand", "--basis", str(basis), "--n", "2"]
    for bad, message in (
        ("[{", "Expecting property name enclosed in double quotes: line 1 column 3 (char 2)"),
        (json.dumps([_poly_obj(3, (1, (0, 0, 0)))]), "expected a polynomial in 2 variables, got 3"),
        (json.dumps([_poly_obj(2, (1, (1, 0)), (1, (0, 0)))]),
         "basis element 0 must be graded-homogeneous and nonzero"),
    ):
        basis.write_text(bad)
        for _ in range(2):
            assert run(argv, "1*x[1,0]") == (2, "")
            assert capsys.readouterr().err == f"schubfgl: error: {message}\n"
        basis.write_text(json.dumps([_poly_obj(2, (1, (1, 0)))]))
        assert run(argv, "1*x[1,0]") == (0, "[0] 1*x[]\n")


def test_expand_widens_the_mu_fields_a_target_needs(tmp_path):
    code, blob = run(["table", "gr24", "--fgl", "hyperbolic", "--json"])
    basis = tmp_path / "gr24.json"
    basis.write_text(blob)
    classes = [Poly.from_json_obj(row["poly"]) for row in json.loads(blob)]
    degs = [b.graded_degree()[1] for b in classes]
    widths = []
    # the first call reduces the basis in mu fields of 3 bits; targets of
    # negative graded degree or large m1, m2 exponents need 4 to 6
    for mu, c, j in (((0, 0), 1, 1), ((9, 0), 1, 0), ((3, 0), -2, 2), ((0, 7), 1, 1),
                     ((20, 9), 3, 5), ((0, 0), 1, 1)):
        f = Poly.monomial(4, (0, 0, 0, 0), mu, c) * classes[j]
        text = f.render_text()
        fdeg = f.graded_degree()[1]
        layout, (*nfs, nf_f) = coinv.reduce_polys([*classes, f], 4, 6 - fdeg)
        coeff_layout, want = coinv.expand_packed(layout, nf_f, fdeg, nfs, degs)
        widths.append(layout.muwidth)
        code, out = run(["expand", "--basis", str(basis), "--json"], text)
        assert code == 0
        got = [Poly.from_json_obj(c) for c in json.loads(out)["coefficients"]]
        assert got == [coeff_layout.unpack(c) for c in want]
    assert widths == [3, 4, 3, 5, 6, 3]


def test_expand_errors_are_the_same_with_the_memo_warm(tmp_path, capsys):
    bases = {
        "nested": "[" * 100000 + "]" * 100000,
        "notjson": "[{",
        "empty": "[]",
        "rows": "[5]",
        "malformed": '[{"nvars": 2}]',
        "digits": '[{"nvars": 2, "terms": [{"c": %s, "mu": [0, 0], "x": [1, 0]}]}]' % ("9" * 50001),
        "x1": json.dumps([_poly_obj(2, (1, (0, 0))), _poly_obj(2, (1, (1, 0)))]),
        "inhomog": json.dumps([_poly_obj(2, (1, (0, 0))), _poly_obj(2, (1, (1, 0)), (1, (0, 0)))]),
        "zero": json.dumps([_poly_obj(2, (1, (0, 0))), _poly_obj(2)]),
        "unit": json.dumps([_poly_obj(2, (1, (0, 0)))]),
        "half": json.dumps([_poly_obj(2, (1, (0, 0))), _poly_obj(2, (2, (1, 0)))]),
        "vanish": json.dumps([_poly_obj(2, (1, (0, 0))), _poly_obj(2, (1, (1, 0)), (1, (0, 1)))]),
        "dep": json.dumps([_poly_obj(2, (1, (1, 0))), _poly_obj(2, (-1, (0, 1)))]),
        "rank3": json.dumps([_poly_obj(3, (1, (0, 0, 0)))]),
        "rank8": json.dumps([_poly_obj(8, (1, (0,) * 8)), _poly_obj(8, (1, (0, 0, 0, 0, 1, 7, 7, 7)))]),
        "stair3": json.dumps([_poly_obj(3, (1, x)) for x in (
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0))]),
    }
    for name, text in bases.items():
        (tmp_path / f"{name}.json").write_text(text)
    cases = [(name, [], "1*x[1,0]") for name in ("nested", "notjson", "empty", "rows", "malformed", "digits")] + [
        ("x1", [], ""), ("x1", [], "1*x[1,,0]"), ("x1", [], "0"), ("x1", [], "1*x[1,0] + 1*x[0,0]"),
        ("inhomog", [], "1*x[1,0]"), ("zero", [], "1*x[1,0]"),
        ("x1", [], "1*x[1,0,0]"), ("x1", ["--n", "3"], "1*x[1,0]"),  # the basis's count first
        ("rank3", ["--n", "2"], "1*x[1,0,0]"), ("rank3", [], "1*x[1,0]"),
        ("rank8", [], "1*x[0,0,0,0,0,0,0,1]"), ("stair3", ["--n", "3"], "1*m1^99*x[1,0,0]"),
        ("unit", [], "1*x[1,0]"), ("half", [], "1*x[1,0]"), ("vanish", [], "1*x[1,0]"), ("dep", [], "1*x[1,0]"),
    ]
    messages = [
        "the basis file is nested too deeply",
        "Expecting property name enclosed in double quotes: line 1 column 3 (char 2)",
        "basis file must be a nonempty JSON array of polynomials",
        "basis file entries must be JSON objects",
        "malformed polynomial object: 'terms'",
        "an input integer has 50001 digits, more than the 50000 allowed",
        "no polynomial on stdin",
        "unparseable term '1*x[1,,0]'",
        "parsing '0' needs an explicit variable count",
        "expansion requires a graded-homogeneous polynomial",
        "basis element 1 must be graded-homogeneous and nonzero",
        "basis element 1 must be graded-homogeneous and nonzero",
        "expected a polynomial in 3 variables, got 2",
        "expected a polynomial in 3 variables, got 2",
        "expected a polynomial in 2 variables, got 3",
        "expected a polynomial in 2 variables, got 3",
        "normal forms that rewrite are limited to rank 7, got 8",
        "expansion needs 303 unknowns, above the bound of 300: the degree gap between the input"
        " and the basis is too large",
        "polynomial is not in the span of the basis",
        "no integral combination exists",
        "basis element 1 vanishes modulo S",
        "basis is not linearly independent modulo S",
    ]

    def outcomes():
        got = []
        for name, flags, stdin in cases:
            assert run(["expand", "--basis", str(tmp_path / f"{name}.json"), *flags], stdin) == (2, "")
            got.append(capsys.readouterr().err)
        return got

    cli._read_basis.cache_clear()
    want = [f"schubfgl: error: {m}\n" for m in messages]
    assert outcomes() == want
    # warm: every basis that reads and reduces is kept, in the layout of its rank
    for name, n in (("x1", 2), ("unit", 2), ("half", 2), ("vanish", 2), ("dep", 2), ("stair3", 3), ("rank3", 3)):
        run(["expand", "--basis", str(tmp_path / f"{name}.json"), "--n", str(n)], "0")
    capsys.readouterr()
    assert outcomes() == want


def test_grprod_examples():
    code, text = run(
        ["grprod", "--k", "2", "--n", "4", "--rect", "1,1", "--lambda", "2,0"]
    )
    assert code == 0 and text.strip() == "0"
    code, text = run(
        ["grprod", "--k", "2", "--n", "4", "--rect", "1,1", "--lambda", "2,1"]
    )
    assert code == 0 and text.strip() == "0,0"
    code, text = run(
        ["grprod", "--k", "2", "--n", "4", "--rect", "2,2", "--lambda", "2,1", "--json"]
    )
    assert code == 0
    assert json.loads(text)["result"] == [2, 1]


def test_grprod_bad_rectangle():
    code, _ = run(
        ["grprod", "--k", "2", "--n", "4", "--rect", "3,1", "--lambda", "2,1"]
    )
    assert code == 2


def test_grprod_negative_part_is_named(capsys):
    # `--lambda -1,0` stops in argparse (see USAGE_PINS); the `=` form reaches the partition
    code, _ = run(["grprod", "--k", "2", "--n", "4", "--rect", "1,1", "--lambda=-1,0"])
    assert code == 2
    assert "part -1 does not lie in [0, 2]" in capsys.readouterr().err


def test_table_gr24_text():
    code, text = run(["table", "gr24"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("lam=0,0 word=(3,1) ")
    assert "1*x[2,2,0,0]" in lines[0]


# sha256 of the whole text output, word column included, recorded with the
# six words written out as a table
TABLE_TEXT_SHA256 = {
    "additive": "10a967ad1195f508fc104969b23ce8692ce7e89a82e888a0762154c09b359ef0",
    "multiplicative": "d944b6a11651a662eceed5e69f1ab8bbe9e7a76b5d52512817d6e1e93a78a665",
    "hyperbolic": "9cf729b1f53b9540a165c26f17741965fa7fc20b40b7d513d7afe01600c4858f",
    "lorentz": "c8145d37d765bd0335839dc3b2f11265b9583606eeebb41f73942f10c2599bae",
}


@pytest.mark.parametrize("law", sorted(TABLE_TEXT_SHA256))
def test_table_gr24_text_pinned(law):
    code, text = run(["table", "gr24", "--fgl", law])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_TEXT_SHA256[law]


def test_verify_fk_takes_the_heap_keys_of_each_word_once(monkeypatch):
    # the walk passes each word's heap keys to schubert instead of having
    # them built again; every reduced word of S_3 (the empty one too) once
    from schubfgl import hecke, schubert as schubert_module

    calls = []
    heap_keys = schubert_module.heap_keys

    def counting(word):
        calls.append(tuple(word))
        return heap_keys(word)

    monkeypatch.setattr(hecke, "heap_keys", counting)
    monkeypatch.setattr(schubert_module, "heap_keys", counting)
    code, _ = run(["verify", "fk", "--n", "3", "--json"])
    assert code == 0
    words = [word for w in all_permutations(3) for word in reduced_words(w)]
    assert sorted(calls) == sorted(words) and len(words) == 7


def test_verify_fk_finding_is_annotated():
    code, blob = run(["verify", "fk", "--n", "2", "--json"])
    assert code == 0
    obj = json.loads(blob)
    assert obj["passed"] is True
    reports = obj["reports"]
    assert len(reports) == 1
    rep = reports[0]
    assert rep["check"] == "fk-identity[hyperbolic,n=2]"
    assert rep["passed"] is True
    assert rep["findings"] == ["w=(2,1) word=(1,) congruence mod pairs(supp(w0*w))"]
    code, _ = run(["verify", "fk", "--n", "2", "--strict-literal"])
    assert code == 1


def test_verify_reports_deterministic():
    argv = ["verify", "braid", "--n", "2", "--n", "3", "--json"]
    _, a = run(argv)
    _, b = run(argv)
    assert a == b


@pytest.mark.parametrize("what", list(cli.VERIFY_SUITES))
def test_verify_default_ranks_pass(what):
    # VERIFY_SUITES is the parser's choices for verify
    code, blob = run(["verify", what, "--json"])
    assert code == 0
    obj = json.loads(blob)
    assert obj["passed"] is True and obj["reports"]


def test_verify_ranks_merged_and_sorted_by_name():
    def reports(*ns):
        code, blob = run(["verify", "braid", "--json"] + [a for n in ns for a in ("--n", str(n))])
        assert code == 0
        return json.loads(blob)["reports"]

    merged = sorted(reports(2) + reports(3), key=lambda rep: rep["check"])
    assert reports(2, 3) == merged


def test_verify_usage_errors(capsys):
    code, _ = run(["verify", "fk", "--n", "99"])
    assert code == 2
    code, _ = run(["verify", "local", "--cap", "3"])
    assert code == 2
    code, _ = run(["poly", "word", "--n", "3", "--word", "1,1"])
    assert code == 2
    capsys.readouterr()
    for argv in (["verify", "braid", "--n", "1"], ["poly", "word", "--n", "1", "--word", ""]):
        code, _ = run(argv)
        assert code == 2
        assert "schubfgl: error: operators need at least two variables" in capsys.readouterr().err
    # both products are empty below rank 2; n = -2 used to fail inside Poly
    for n in ("0", "1", "-2"):
        code, _ = run(["verify", "vandermonde", "--n", n])
        assert code == 2
        assert f"verifier rank n={n} outside the supported range [2, 7]" in capsys.readouterr().err
    # an integer m1 or m2 breaks the grading of the classes, which the
    # cross-checks need to pick the class of least degree
    for argv in ("verify gr24 --mu1 2", "verify gr24 --mu2 1",
                 "verify gr24 --fgl multiplicative --mu1 3",
                 "verify chowk --k 2 --n 4 --fgl multiplicative --mu1 2"):
        code, _ = run(argv.split())
        assert code == 2
        err = capsys.readouterr().err
        assert "schubfgl: error: basis element" in err and "Traceback" not in err
    code, _ = run("verify chowk --k 2 --n 4 --fgl multiplicative --mu1 0".split())
    assert code == 0


def test_grading_error_names_the_integer_parameter(capsys):
    for argv, named in (("verify gr24 --mu1 2", "m1 = 2"), ("verify gr24 --mu2 1", "m2 = 1"),
                        ("verify chowk --k 2 --n 4 --fgl multiplicative --mu1 2", "m1 = 2")):
        code, _ = run(argv.split())
        assert code == 2
        err = capsys.readouterr().err
        assert "must be graded-homogeneous and nonzero" in err
        assert f"(this law sets {named}); only 0 keeps it" in err
    code, _ = run("verify gr24 --mu1 0".split())
    assert code == 0


def test_missing_required_arguments_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["poly", "word", "--n", "2"], out=io.StringIO())
    assert e.value.code == 2


def test_word_letter_out_of_range_exits_2(capsys):
    for word in ("5", "0", "1,3"):
        code, _ = run(["poly", "word", "--n", "3", "--word", word])
        assert code == 2
        assert "out of range" in capsys.readouterr().err


def test_samples_must_be_positive(capsys):
    for samples in ("-1", "0"):
        with pytest.raises(SystemExit) as e:
            main(["verify", "braid", "--samples", samples], out=io.StringIO())
        assert e.value.code == 2
        assert "positive" in capsys.readouterr().err


def _reduce_json(x, c):
    return json.dumps({"nvars": 2, "terms": [{"x": x, "mu": [0, 0], "c": c}]})


def test_non_integer_json_input_exits_2(capsys):
    # a float coefficient, a string exponent and a bool exponent
    for blob in (_reduce_json([1, 0], 1.5), _reduce_json(["1", 0], "1"), _reduce_json([True, 0], "1")):
        code, _ = run(["reduce"], stdin_text=blob)
        assert code == 2
        assert "schubfgl: error:" in capsys.readouterr().err
    code, text = run(["reduce"], stdin_text=_reduce_json([1, 0], -3))
    assert (code, text.strip()) == (0, "-3*x[1,0]")


def test_word_class_case_order_n5():
    # the order the cases had when each w's reduced words were enumerated
    # separately: w by (length, one-line notation), then words lexicographically
    readings = ("window(supp(w))", "pairs(supp(w))", "pairs(supp(w0*w))")
    expected = [
        f"w=({','.join(map(str, w.oneline))}) word={word} difference in {reading}"
        for w in sorted(all_permutations(5), key=lambda p: (p.length(), p.oneline))
        for word in reduced_words(w)
        for reading in readings
    ]
    code, blob = run(["verify", "differ", "--n", "5", "--fgl", "additive", "--json"])
    assert code == 0
    (rep,) = json.loads(blob)["reports"]
    assert [c["label"] for c in rep["cases"]] == expected


def test_report_without_cases_does_not_pass():
    rep = CheckReport("empty")
    assert not rep.passed
    rep.add("known discrepancy", False, annotated=True)
    assert rep.passed


def test_summary_lines_render_only_what_is_printed():
    rep = CheckReport("r")
    rep.add("holds", True, detail="braid holds")
    rep.add("known", False, annotated=True, detail="why")
    rep.add("broken", False)
    assert rep.summary_lines() == [
        "[FINDING] r: known (why)",
        "[FAIL] r: broken",
        "r: FAIL (1/3 cases ok, 1 findings)",
    ]


# sha256 of the text output, recorded with a line rendered for every case
# and the passing ones filtered out by the command line: rendering only
# the printed lines must not change a byte
TEXT_SHA256 = {
    "verify fk --n 4": "d83db8be63962e5bd5a849589fd08e079251522c5373060f6a1ed2e4bfb2b381",
    "verify differ --n 4": "4341019151bc9c12cb592410f57018364d84784d531abe6fc42b89ce4ee30c6e",
    "verify braid --n 3": "03d6056bb8b847c8433b1bc98c03bc1d0e09e88ea8fae84201ada858cc06b44c",
}


@pytest.mark.parametrize("argv", sorted(TEXT_SHA256))
def test_verify_text_outputs_pinned(argv):
    code, text = run(argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_SHA256[argv]


# sha256 of the full --json output, recorded with word classes computed
# word by word through the division-based operators: the prefix walk
# and the operator tables must not reorder a case or change a verdict
REPORT_SHA256 = {
    ("fk", "additive"): "dc4bc7f7aa124b1999d59704e53452860d00ef0ebf7bcbd605380123eae9441c",
    ("fk", "multiplicative"): "fe1675a2b6f36e6d5b5093e1214cc7cefa62d67aeab751cf4fd186823628e99e",
    ("fk", "hyperbolic"): "bc408d46737e75e78227bf1328f0e5d06520ea3f4f4771db13236bd487ff1bad",
    ("fk", "lorentz"): "64223e0cf3979187cdabe2776625551a69f2da1d1af5ae55db1c391926f337cc",
    ("differ", "additive"): "c1b67d49bde5fa040fb8a3ab187c208f587c9f7fec8682261af5d4d6dbb7540e",
    ("differ", "multiplicative"): "8575272aaa4700bc6e0b5eb05ebb31dc9b721a568f0bac8dd75e43b5b6410f23",
    ("differ", "hyperbolic"): "d825f45cd702b333b24156e87f05e77b8fd49f996c349d7fc275fd0d40a95e22",
    ("differ", "lorentz"): "d4529556ac5a4404ddea00a2ab31739861d083a8313981b0600b173158e64047",
}


@pytest.mark.parametrize("what,law", sorted(REPORT_SHA256))
def test_word_class_reports_pinned(what, law):
    code, blob = run(["verify", what, "--n", "4", "--fgl", law, "--json"])
    assert code == 0
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_SHA256[(what, law)]


# sha256 of the full --json output at n = 5, the m2 = 0 laws recorded with
# the tuple-keyed operators, hyperbolic and Lorentz with the walk that
# applied one operator per word: taking one class per heap over the 3,061
# reduced words of S_5 must not reorder a case or change a verdict (the
# m2 = 0 runs take a fraction of a second, the others about one)
WALK_N5_SHA256 = {
    ("fk", "additive"): "b9976677fb5eaeb30e8160f14751d4f17e97fd4f1620613b1be274de9563ed2f",
    ("fk", "multiplicative"): "75e741babdf850cf8789f2efabe6d32f1cb8eec5adee132e495a0bf899e424ad",
    ("differ", "additive"): "ee1365f9a3bf918de4f7026eaa5ae7dbff016fe104552a8267ab37ca7d83729a",
    ("differ", "multiplicative"): "fc2c9f7b958c076670a5783327d31c2cc2b4a85abe25c8f450a5dabd4078b2e1",
    ("fk", "hyperbolic"): "c3a653f745147a5dd140a26c6d359e914d5f97e151219ce67bd9011fe75fbcb8",
    ("fk", "lorentz"): "4be123120eb176a303d24daf5b4faf0a24dbb91d51008f7779c6e807cda2cb99",
    ("differ", "hyperbolic"): "5532ee1c1c6349d946bd9ba03377f7f57d79c1ca4596c9c1913f66fd63201115",
    ("differ", "lorentz"): "81ae70699b144825a8153cfc95997a6ef769d5b5eb7cc444c2c0d5afa862926c",
}


@pytest.mark.parametrize("what,law", sorted(WALK_N5_SHA256))
def test_word_class_reports_pinned_n5(what, law):
    code, blob = run(["verify", what, "--n", "5", "--fgl", law, "--json"])
    assert code == 0
    assert hashlib.sha256(blob.encode()).hexdigest() == WALK_N5_SHA256[(what, law)]


# sha256 of the full --json output of `verify braid`, recorded with one
# report per check function, each drawing its own samples and applying
# whole words: one sample pass must not change a case, detail or verdict.
# The key is the command line after `verify braid`.
BRAID_N5_SHA256 = {
    "--n 5 --samples 20 --fgl additive": "4625312e9c6d7db98ddc57d1f9f8b81b6371b7e6e76391176aec0bc032c5a8a6",
    "--n 5 --samples 20 --fgl multiplicative": "2267aa50f49db0391d447a1c36fe2aad41c579b5a3fd53ec79c9ba48bd640564",
    "--n 5 --samples 20 --fgl hyperbolic": "ae386a2b1f66a465fef86f51903e1b73d6bd4ad51a8e1ab9e9390bcf8668c2cc",
    "--n 5 --samples 20 --fgl lorentz": "41fd4d211b30cf532521af9d2f388dd923d69a71ad08d4fb5b072ee88e0fb9be",
    "--n 4 --mu1 2 --mu2 3": "fe274687e359d6703e44b5f7afaf86ec848a54c29d9b2afa7b77ffbe316df194",
}


@pytest.mark.parametrize("args", sorted(BRAID_N5_SHA256))
def test_braid_reports_pinned(args):
    code, blob = run(["verify", "braid", *args.split(), "--json"])
    assert code == 0
    assert hashlib.sha256(blob.encode()).hexdigest() == BRAID_N5_SHA256[args]


def test_poly_word_at_rank_40_pinned():
    # 40 variables: the packed key has 42 fields; recorded with tuple keys
    code, text = run(["poly", "word", "--n", "40", "--word", "1,2,3"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e64fc9e7bcd7e8880fbdf47a4013cde96c00c36adfa6d3caaac479a49018f97d"
    )


S5_WORD_SAMPLE = s5_word_sample()

# sha256 of the concatenated `poly word --n 5` outputs over the sample,
# recorded with the tuple-keyed printer (the additive, lorentz and
# specialized pins with the x-part cache printer): a change to the
# printed term order of a large class fails here, where comparing
# parsed classes would not.  Hyperbolic and lorentz JSON pin every third
# word of the sample; the indented JSON of a large class takes tens of
# milliseconds to write.  The law is the text after --fgl.
POLY_WORD_N5_SHA256 = {
    ("additive", ""): (1, "ebd725538ca4e742e7de770588ee8299826393a918d19f3f5196b8fac5d1d28a"),
    ("hyperbolic", ""): (1, "fdf8ac74c2c94570d7be3468c167e9d69138ac99342d1f69e3f37abd15042273"),
    ("hyperbolic", "--json"): (3, "20ef3e2528677828a8afcac133cda4a8af5c4ff6a415bdf1c14c123afb89dd58"),
    ("hyperbolic --mu1 2 --mu2 -3", ""): (
        1, "6499e8bd2f27c5b6ff7fe6e1b6d18180143894517499a69834b1135282df4cd2"
    ),
    ("lorentz", ""): (1, "e063e0ab8c388f8202c294e9a159291236ab716c544e1bc42972cf9f504f088c"),
    ("lorentz", "--json"): (3, "8cfc4289fbb855be9714e94a0ac36b77a3be3574afe0a4767fc03eb6beff45e0"),
    ("multiplicative", ""): (1, "265a2e5cb78fd154961e7d810d213fa8324ad07adcc1c40a4f3e9da3ecb52566"),
    ("multiplicative", "--json"): (1, "51e8268b100c4be0dfd4721d7ef24d0e51df5ebd6b1267612774b41f6c97ef34"),
}


@pytest.mark.parametrize("law,fmt", sorted(POLY_WORD_N5_SHA256))
def test_poly_word_outputs_pinned_n5(law, fmt):
    step, digest = POLY_WORD_N5_SHA256[(law, fmt)]
    h = hashlib.sha256()
    for word in S5_WORD_SAMPLE[::step]:
        argv = ["poly", "word", "--n", "5", "--word", ",".join(map(str, word))]
        argv += ["--fgl", *law.split()]
        code, text = run(argv + ([fmt] if fmt else []))
        assert code == 0
        h.update(text.encode())
    assert h.hexdigest() == digest


# sha256 of the full --json output, recorded with products built whole
# (series truncated at cap) and reduced once at the end: reducing after
# every multiply must not change a verdict or a printed class
QUOTIENT_SHA256 = {
    "verify gr24 --fgl additive": "be0e250996494f740f88443f94a40e970bd9d0419bfdebb8cc2d6717c996dad7",
    "table gr24 --fgl additive": "b5d9c9ad7c1ed24a043770f97e227da4074cb412a582d8c64d7ca352c1b93d23",
    "verify gr24 --fgl multiplicative": "8c140044f4589bc0414cb5b5d80e32938c6958c428b5738c5c124cdd4d6fecaa",
    "table gr24 --fgl multiplicative": "adecece9c1d095331e19d84b8d2b76c1a9b3a167925c8175454480cdff9cc7fe",
    "verify gr24 --fgl hyperbolic": "5c0b7d0ed53eb9b3018b86ad92ee88f4195a22cb3cbf29f0e9f51dec9488daed",
    "table gr24 --fgl hyperbolic": "aa12be4158462a6f3ee272cc472c3edb5b198c3a5694670bb70e62610b5e3502",
    "verify gr24 --fgl lorentz": "1ec8a74ca1431570584ed3500fd1b3623b92db81504acb11f9a4532f3fc75b90",
    "table gr24 --fgl lorentz": "15125acdabc26dc6996026a3e442e6699621905a09553f0c1fd2a195f56ca507",
    "verify chowk --k 2 --n 4 --fgl additive": "c2f220a598d0a96cd86bb127488c8a89817c5d3287c9e1518076155d11dd69ae",
    "verify chowk --k 2 --n 4 --fgl multiplicative": "6d90c4fadee48b97725179a69bea55e32e490b23301ea2529fab270f0f3b6ca7",
    "verify chowk --k 2 --n 5 --fgl additive": "52d3c02225ac419a0e2ad4d2bfab83286f75c30a6a0f71e0323f99dc30adcbac",
    "verify chowk --k 2 --n 5 --fgl multiplicative": "7911f37199b65a4447ca5336e2cc898e6c2ae16a1f64a3a146d386672cb6a69a",
    "verify chowk --k 2 --n 6 --fgl additive": "e5453f3ce48ca0c79088485f3fb402c73bb6027190281915380ecc57a230f1bf",
    "verify chowk --k 2 --n 6 --fgl multiplicative": "ca1d6474c3d5465dd3e44c1db972a58d6389a6771a334814559840bff7a33053",
    "verify chowk --k 3 --n 6 --fgl additive": "9a12dec9b2439faf1d364b906e0aed590d65b981babf363b4f3e02fb52861f1a",
    "verify chowk --k 3 --n 6 --fgl multiplicative": "e9b5422bc6d6044ea664a1f555c6aa11bdef4d9e68359951a1034d2690d8958e",
    # the other admitted Grassmannians, recorded with the classes of the
    # canonical words of w0 * w_{dual lam}
    "verify chowk --k 1 --n 2 --fgl additive": "2730152854299e280bf364f4c11b9f22982e3a2e6cfe99bdd827f17a38ffc35f",
    "verify chowk --k 1 --n 2 --fgl multiplicative": "7ed9ce3ff1eda99698cdf1b12cf30f205b4d3a6ef6ed3afb5476afa7c06c1cbe",
    "verify chowk --k 1 --n 3 --fgl additive": "45fed392c03aaa52f4078ded98760895fe917cf056be17c3c2e78117358347bf",
    "verify chowk --k 1 --n 3 --fgl multiplicative": "971b98e03db84349a89a02572ef43d62fe914b3ba4896b05f89269b9fc25f6b5",
    "verify chowk --k 2 --n 3 --fgl additive": "9441ad20997a7941de50f9e0a21227a43e620c027486db08804a0990376c2175",
    "verify chowk --k 2 --n 3 --fgl multiplicative": "c1b6aff33948a4df4d328e02796236a1a2a34d9262e7a0b79fda4f68339bffe1",
    "verify chowk --k 1 --n 4 --fgl additive": "5ffa43d6a62555f181a83c3727864fc9b7e37439128ee1aa6edf81bec2f86cb4",
    "verify chowk --k 1 --n 4 --fgl multiplicative": "f0f1d2df240cb32c77f9d2a25ac02dde209e461daccca9052f4204ba7f861da6",
    "verify chowk --k 3 --n 4 --fgl additive": "8c1a0158b199749945cf5995bbcb50fe2cdd84ca1493abe78b98cbfd09f3bac2",
    "verify chowk --k 3 --n 4 --fgl multiplicative": "49017b080c8dc9b852f14b288dd7899784a278ba79184cd0e15e28b34326cd38",
    "verify chowk --k 1 --n 5 --fgl additive": "89ac51d1b485bce496d55dc2ed3c77d6d487de0c2309a4118f93810c0222ec09",
    "verify chowk --k 1 --n 5 --fgl multiplicative": "050e6c54a0989308f99f026ca6b33ccbc5ba423b628acf904fb776b7a165366f",
    "verify chowk --k 3 --n 5 --fgl additive": "df27854ff055e45f5cae2d4817501d0f96d66a127e3fb29aa4f090e463dcb363",
    "verify chowk --k 3 --n 5 --fgl multiplicative": "7dbff1841093e27509f2b83d821323833de5bacf8d33457933812242e7ef6970",
    "verify chowk --k 4 --n 5 --fgl additive": "acf86df3bbc96f90fe8d60b41f12d802f7b0a1cc76861bf0cb02ce2910e15a54",
    "verify chowk --k 4 --n 5 --fgl multiplicative": "172155feb23e7b8c32353e00a3b4ef65a6fb43c64360aae8c799c691e71836e3",
    "verify chowk --k 1 --n 6 --fgl additive": "fe5a124d9ca369b8af17ee2573985ff69da6eab98c7c5a6be09d7c55a92174cc",
    "verify chowk --k 1 --n 6 --fgl multiplicative": "bd738f7c55f6f2206b14225e76f7bbe0363d0480d07cd8af0fcc40ff759e59be",
    "verify chowk --k 4 --n 6 --fgl additive": "de4de2b397f158af0f628588ee6403b6142379577cd404541eabf684d46a7ed4",
    "verify chowk --k 4 --n 6 --fgl multiplicative": "f62de6335f754272865a25981d4f3ea7d14d19d676bf55430f2727fbe6ad8fb7",
    "verify chowk --k 5 --n 6 --fgl additive": "3ef6d62da510240f8e978fe0dbc433087a9ed3c6c3899fc389397da5c0e85bc9",
    "verify chowk --k 5 --n 6 --fgl multiplicative": "b3020f7f6cc96399b55b3f8f44d2ae3e773415181f393504099bfe967241ac8c",
    "verify chowk --k 1 --n 7 --fgl additive": "2ae9ba5887a6e868717e9bf6e9a9d3d648e8c995264f9062efceffb6de7040df",
    "verify chowk --k 1 --n 7 --fgl multiplicative": "fe4269b6697cd3f6121ce0e0c557fdaa76e8aa31091650c53354506a9b166d03",
    "verify chowk --k 6 --n 7 --fgl additive": "672a8d2ce46de05127b82a4e05dff09e5427f6cbd404bb003789f6a5945f744b",
    "verify chowk --k 6 --n 7 --fgl multiplicative": "07e1d32d40ad11c1ecc1b216fcd077af585df5738a3147c7325411739f0bb0a2",
    "verify vandermonde --n 2 --fgl additive": "368fc80929ffca4a9a3d36320a7042363d5bdb3e6f9d512cd3a99165e747ebdb",
    "verify vandermonde --n 3 --fgl additive": "8097c7576d81824abddbf29622858ea90af5586e6a3b10c82893eaaad75eb48a",
    "verify vandermonde --n 4 --fgl additive": "874e9f73f900d8f5c7208c354299d2eb8606a26b15f87a0b7bf46f769c0ea9fc",
    "verify vandermonde --n 2 --fgl multiplicative": "c79bf165d7a672e4ef754a919c18e568bf674f68ba9111ac913b59fe56c3464d",
    "verify vandermonde --n 3 --fgl multiplicative": "8167cf45f864b56bb1c2d2ae1970a0c0d9789894120a916789006bbd64f684b4",
    "verify vandermonde --n 4 --fgl multiplicative": "d1afacf2a99f948e7061c6e34005d4437662707ea4b029091ef629afac089527",
    "verify vandermonde --n 2 --fgl hyperbolic": "77fcbe035dec9f32cfcf999cdf38b93229fe6ef0b9004c15b2893f12d0f0b00c",
    "verify vandermonde --n 3 --fgl hyperbolic": "d87bc7de65fcd6515842526992aa3d448a2ac2195e174eeeb532d8df4a4cd987",
    "verify vandermonde --n 4 --fgl hyperbolic": "d36094fa6d98f7b8c36b8d07da5bc8b5373c936a919271bd4738f8751c4a4938",
    "verify vandermonde --n 2 --fgl lorentz": "37036e69e7c6b1b10c87b89fd724329be192bf9edb9dd8bf6063ccdedb0dc25a",
    "verify vandermonde --n 3 --fgl lorentz": "861d8a44ff2061533eac2d86421aa2508f7e69e70edaa8d375b035243f429ce8",
    "verify vandermonde --n 4 --fgl lorentz": "7cd5528d1af9c9244078446e8a61901a5764b7bf554eea244ee08c5816b088d0",
    "verify vandermonde --n 5 --fgl additive": "ba718dc015229c3333f76df9778d56f7fa189c781fea73daf182875c5473a4cc",
    "verify vandermonde --n 5 --fgl multiplicative": "9dbbaaf85f3cb14d3534343208fc51d86424048f1d74202cc1968d2ecc6f2b43",
    "verify vandermonde --n 5 --fgl hyperbolic": "bc5b6b4aa369d6f7e11783e2dd14bafc067d97ea716698b674219d6ff042ac9b",
    "verify vandermonde --n 5 --fgl lorentz": "daee21177cb33c72a2a34f0f479c61723396b00448c2aa107b6b3dd7e72756de",
    # recorded with chi built by the generic inverter and then specialized;
    # it reaches gr24 through the dual roots of grass.smooth_class
    "verify gr24 --fgl hyperbolic --mu2 0": (
        "d3c89bd10edd517db273f64e4e0cd94e05d7566368421774983d131be4b4a499"
    ),
}


@pytest.mark.parametrize("argv", sorted(QUOTIENT_SHA256))
def test_quotient_ring_outputs_pinned(argv):
    code, blob = run(argv.split() + ["--json"])
    assert code == 0
    assert hashlib.sha256(blob.encode()).hexdigest() == QUOTIENT_SHA256[argv]


# sha256 of the whole output, recorded with one series inverted per pair
# (i, j) and every product formed whole before its normal form: the
# shared two-variable factor and the products cut at the top staircase
# degree must not change a verdict or a printed byte.  The argv is
# followed by --fgl and the law.
VANDERMONDE_SHA256 = {
    ("--n 6", "additive"): "90ed548671994336798d5d5888f0de1c0c54ea4ef04ca4f69b11166e3bbb48fc",
    ("--n 6 --json", "additive"): "928a6dcce7db49f0a8f610212b95d0f909b4488a1ccd8bce0ff7ee32f83e0678",
    ("--n 6", "multiplicative"): "7fb9be1a80c5829f25dc21f0f9f78af1c73f56500c37e33207c21bedc9753fe0",
    ("--n 6 --json", "multiplicative"): "b39e9e406cfc89d89bccc29db274c855a0edb60b13aa621a7b6b31ac47ea2e52",
    ("--n 6", "hyperbolic"): "4f0ab2f799c321df8f8e674418910d49f257344ecf33806dcfdfd1141da503b8",
    ("--n 6 --json", "hyperbolic"): "3c31b25efb29d7e7e04266fb3c3c2d1130bf9bb58298fc9e87c952fd2a943c59",
    ("--n 6", "lorentz"): "b1d37248c1235261e24335dca34c4f7e53a5088e1633a5fddfe4614864c3a85f",
    ("--n 6 --json", "lorentz"): "3a7442fbbabc1376bf74b157d970eb51f8c1c24b63a4884e775e03f3c3cdbd80",
    ("--n 5 --json", "hyperbolic"): "bc5b6b4aa369d6f7e11783e2dd14bafc067d97ea716698b674219d6ff042ac9b",
    ("--n 5", "hyperbolic --mu1 2 --mu2 -3"): (
        "7781e0e23a013995b8504f91ab91439c2def1f482af36a435b3f2dfd575190e6"
    ),
    ("--n 5 --json", "hyperbolic --mu1 2 --mu2 -3"): (
        "62ff4539a0655a12c515fd091123aa1d8ac425520fcd37d6e246396bec9301c8"
    ),
    ("--n 6 --json", "hyperbolic --mu1 2 --mu2 -3"): (
        "6ffe225443653dd137cdc58b46c28d362bece9036e5f93af7d6b93f6a83cf54b"
    ),
    ("--n 4 --cap 40 --json", "lorentz"): (
        "c79a5eb18aa48b7f5eaea6cfbdcf9cf87a73712b28bfe8a52b844ac61934c518"
    ),
    # recorded with the series built by the generic inverter and then
    # specialized: the closed form must specialize the same way
    ("--n 5", "multiplicative --mu1 0"): (
        "96bf1e71e5673253c17a0a50040e32be75675fbe236ccbe51840f5085b2fddeb"
    ),
    ("--n 5 --json", "multiplicative --mu1 0"): (
        "90eab780b26305c817272d03e07a6005b06bc8c0e1c07241567b0e445f09f566"
    ),
    ("--n 5", "lorentz --mu2 5"): (
        "f8bec27a02b0c2ed0d6877ce91db097c36fbbcf9d026e2b8fb26368aa175b357"
    ),
    ("--n 5 --json", "lorentz --mu2 5"): (
        "33e93ff6fe8e22b970c27d5cec79f17ed4f734445a9d016da3cd943d8a33838e"
    ),
}


@pytest.mark.parametrize("args,law", sorted(VANDERMONDE_SHA256))
def test_vandermonde_outputs_pinned(args, law):
    code, blob = run(["verify", "vandermonde", *args.split(), "--fgl", *law.split()])
    assert code == 0
    assert hashlib.sha256(blob.encode()).hexdigest() == VANDERMONDE_SHA256[(args, law)]


# sha256 of the full --json output, recorded with every Hecke product
# taken by the general product of two elements (a Demazure walk over the
# right factor): building them from the step e (1 + g u_j) must not
# change a verdict
HECKE_SHA256 = {
    "verify ybe --n 2 --fgl additive": "adc1193bd65f6244926d5e2b82be73c9711717819c0361b428144350723270e7",
    "verify ybe --n 3 --fgl additive": "0b6f8c958b71758e204ec06f7f590ed00ea80ba414629ec2724b24b62b692953",
    "verify ybe --n 4 --fgl additive": "c35a2afc577f15a010b7ab1780c309596ee52c09a444abd80ea073f5cc24fe85",
    "verify ybe --n 5 --fgl additive": "4717f682be755a00a928cb438b08d6e5ab537efa94efd353e06b592c22e40624",
    "verify local --n 2 --fgl additive": "88606c4bec2382e0f1354e02def4bea92252aa81e8013a034565caecc720562e",
    "verify local --n 3 --fgl additive": "1c13ce8e4f01dd9bd72d86618a386a9f27a69186ab95eeb4ffc5e7d1638010d6",
    "verify local --n 4 --fgl additive": "dcf3d290bdc9bfc256e422bd1eebac54e86b4876fa2c909862ea366c0fdbb392",
    "verify local --n 3 --cap 12 --fgl additive": "7bf19e387a7c7243b5afc410ec72a2d47918a402d53a33be78ce2272114c7b12",
    "verify fk --n 2 --fgl additive": "0ebef6c8b2145d454f231d7264d82fb7deb94979f3e45c0aca0cfd636ba38ac3",
    "verify fk --n 3 --fgl additive": "eb0eaa3ce93fb658e5b98688061ea01eb39e90ce55d353682b42b9ad75918a33",
    "verify differ --n 2 --fgl additive": "b68c3f8075c822381e2d86f2d4ea2448ad569d1872a88e3f043ef4233ed5ae03",
    "verify differ --n 3 --fgl additive": "263097833d903c37a01cd6178a32fe059fdb2906c474953752fb33043288cfef",
    "verify ybe --n 2 --fgl multiplicative": "deaf0de09c0a3e1cd2dde061cee9ab4f1d33307e36aaad3c299686a98e3e7ded",
    "verify ybe --n 3 --fgl multiplicative": "80f302e29541919638ef29c81cea5265c8d2bd312293086a68313fa9cf46f410",
    "verify ybe --n 4 --fgl multiplicative": "e8dc130936ab59fb08acff08093b3432c7f70c97e5235f54e57f58cad9bc820b",
    "verify ybe --n 5 --fgl multiplicative": "01bafa933d57e805c62bd95c5c22db6a1230c4df4eb77079892791ef11834c28",
    "verify local --n 2 --fgl multiplicative": "45be1680f15bea22c79ff06c718aa5361fdf2803b2e91c57a9ee182e7269b98a",
    "verify local --n 3 --fgl multiplicative": "341b6d0fca27507e6f78ef4dddcead0722fe14bcda6c52b04e2a01454df3a685",
    "verify local --n 4 --fgl multiplicative": "46323ad800db009516205e60c7f00b1c3e24fc7262dbc0947a7e8a8a6c0a040b",
    "verify local --n 3 --cap 12 --fgl multiplicative": "c4cb194d361a34657f761a6ef13702d2ae9f55d3277f760646b9f841fef419ee",
    "verify fk --n 2 --fgl multiplicative": "00197a882b23276de465dde1cf191ee5e8c93c98b293ecb5afaadacd40821a85",
    "verify fk --n 3 --fgl multiplicative": "b27757a6083a163cf670374e705bca787916deeef25d0e22e7501e3e9ca50816",
    "verify differ --n 2 --fgl multiplicative": "e89117cb631478d4e3b4e180a9353bba052cb976869968f55cd7021851050bc1",
    "verify differ --n 3 --fgl multiplicative": "611b996fc71467f29b3d1e674b274752a95428d0deb5430301fea1edd4f4e3f4",
    "verify ybe --n 2 --fgl hyperbolic": "f24c4ba2d9f58332ea0a56163c4bde130e59a7dfc76c33230045500c18a31b37",
    "verify ybe --n 3 --fgl hyperbolic": "348ef0829256ace4d80371e53082f029b88d96b0720770414e412c48eb42f01f",
    "verify ybe --n 4 --fgl hyperbolic": "bc9ae9adbc069547a83a8bc4d7260c95ffe92c4bacc5e42b1da129c9794f41b1",
    "verify ybe --n 5 --fgl hyperbolic": "4361794e22f7f3d4c3ce0b983c42769c8943655a6036f9d79e74f13d560e20bb",
    "verify local --n 2 --fgl hyperbolic": "5cd3595887f12f15b5a03328f09eec2a015f2fa5c02a1d6853bc84209ff32bcd",
    "verify local --n 3 --fgl hyperbolic": "43b6a661432509a37033e2c5ec798166f6c0bab3635e99df5288277ae9913098",
    "verify local --n 4 --fgl hyperbolic": "37169df1e7fa41bbc695287bbdcc00f14774ecb99c69dbd754713e0fb24b4253",
    "verify local --n 3 --cap 12 --fgl hyperbolic": "fbd1090f6d8e032f23fc9478a84e1806f49e2f8aff4f39dd467a8d4fe795322a",
    "verify fk --n 2 --fgl hyperbolic": "dd1ecd0c184e55469f5a3eb157b4582b44f864573afff9965a0fc65332cf3983",
    "verify fk --n 3 --fgl hyperbolic": "e2e3b08c38a6de40db897d7191a25618d1df2bc8aba2a63c4fe617a386d3fc23",
    "verify differ --n 2 --fgl hyperbolic": "81bf9f2b96d5be2ce64fc31aa7be9fa8d3fc4ca38f9ec19d62566ef871622ab7",
    "verify differ --n 3 --fgl hyperbolic": "5ff994781b4474e0d72a979fba52a97804a97ccd26b66034547ac11b13421380",
    "verify ybe --n 2 --fgl lorentz": "02a64ad9392008f9756205f6be3552fc84f3b3976d3ae22bef1f809d72588c54",
    "verify ybe --n 3 --fgl lorentz": "b49459e86e69ca56d4a88a7938c375952eb6f0de890bb8b2d0d605d783351477",
    "verify ybe --n 4 --fgl lorentz": "292474acf1ba3f23856bf293b1e9a73dea73eaf0cec70b59a6dfc01a18413927",
    "verify ybe --n 5 --fgl lorentz": "306668948bcfa3034bcd5e724bc4974a3f5e2c312abad6e28d9d6662dad6dea3",
    "verify local --n 2 --fgl lorentz": "3f28c018cf33830429d9452fce9a437f634ee41cf03659cb8a0d2bf139337854",
    "verify local --n 3 --fgl lorentz": "e30f7bded41a02f1cd6609ad41acb50b7df2ae23d42446ac2b8752a450c38439",
    "verify local --n 4 --fgl lorentz": "0ee02984a86538fe0d3268f98157f99b8f20103f30b9e59fd1c106f85186dba3",
    "verify local --n 3 --cap 12 --fgl lorentz": "619a84d3e4a55644b708c7ea4d3d7ec7231d03b9be109d78b0d715a4cafcd438",
    "verify fk --n 2 --fgl lorentz": "0bff6f2ada389fd7ddefbe953c0dbea1f0360f75b3559a811fb7b4ecce0dd1d9",
    "verify fk --n 3 --fgl lorentz": "90353b0792dd6bde7e67418bb72ce62d46d7fe85007940d34c3982bf39509ae6",
    "verify differ --n 2 --fgl lorentz": "b869d57e655e7eeff6acb7acced42c454866b0f340464cda10a33ce71751ea68",
    "verify differ --n 3 --fgl lorentz": "a6d36a18fb2c7888c061feaae6280d3e219206fa844cdb8df09d74470e2179db",
    # recorded with chi and F(x, chi(y)) built by the generic inverter and
    # then specialized: the closed forms must specialize the same way
    "verify local --n 3 --cap 12 --fgl multiplicative --mu1 0": (
        "35a43a1292df8bf2ba650ea48bbc937dd34c4717ff90517384daf722990e0c27"
    ),
    "verify local --n 3 --cap 12 --fgl hyperbolic --mu1 2": (
        "9133eb7b797f129c7e5b276550d04ca5db16c68075985e2adf49956dde9ec52a"
    ),
    "verify local --n 3 --cap 12 --fgl hyperbolic --mu1 -1 --mu2 0": (
        "a8c89dd4bb350c9633312aec1f546b7b7de456996e286340ccf616f6389c531f"
    ),
    # the widest layout the local identities take: rank 5 at the cap bound
    "verify local --n 5 --cap 120 --fgl additive": (
        "6fc63baed79d76575cde23bfd7943dfd6c77e265d43ee885d2398def33974fb7"
    ),
    "verify local --n 5 --cap 120 --fgl multiplicative": (
        "3f2cb03271376b20d3df140598789173db06f6dd3b226049815ccfa9863cc2af"
    ),
    "verify local --n 5 --cap 120 --fgl hyperbolic": (
        "9cab3722de786d1a3d6d9d573b6efd2f0d6f5cf190a03eb93b9f405536e81924"
    ),
    "verify local --n 5 --cap 120 --fgl lorentz": (
        "f8f26f381b40a12265495abb33f5a6b4078726ad0231df47193b7524532802f5"
    ),
}


@pytest.mark.parametrize("argv", sorted(HECKE_SHA256))
def test_hecke_outputs_pinned(argv):
    code, blob = run(argv.split() + ["--json"])
    assert code == 0
    assert hashlib.sha256(blob.encode()).hexdigest() == HECKE_SHA256[argv]


# sha256 of the full --json output under laws that fix m1 or m2 to an
# integer, recorded with every series of fgl built with m1 and m2
# symbolic and specialized afterwards, and with the Grassmannian classes
# unpacked to Polys, repacked and reduced: building the series already
# specialized and keeping the classes packed must not change a byte
SPECIALIZED_SHA256 = {
    "verify gr24 --fgl hyperbolic --mu1 0": (
        "23eb4e754cee746b7e637be4bba92f97f80041c61582c72b72c15cec395678be"
    ),
    "verify gr24 --fgl lorentz --mu2 0": (
        "3db6e2a183e4c2f46c112b0f538d3896ee33d48dbe7c730de08d8bdca898b74e"
    ),
    "verify gr24 --fgl hyperbolic --mu1 0 --mu2 0": (
        "1eeeeb4f20aec7eaaa0885cfa671e83ee49890bb28087ccbd91149b1cc48e3f1"
    ),
    "table gr24 --fgl hyperbolic --mu1 2 --mu2 -3": (
        "194afc32d494517726aab7ee54f133bebfcaf4fec3d5ce08dabfcc3e6d235e30"
    ),
    "table gr24 --fgl multiplicative --mu1 0": (
        "b5d9c9ad7c1ed24a043770f97e227da4074cb412a582d8c64d7ca352c1b93d23"
    ),
    "table gr24 --fgl lorentz --mu2 5": (
        "8ad041a35e8afab567a8014f75ecf4b67c9c17396e977ab9e77eca52e2ae5c21"
    ),
    "verify chowk --k 2 --n 5 --fgl hyperbolic --mu2 0": (
        "d21202ac90731767db44cba30fdb8b26e175b25b68c9a739e5e7b6f743e529e4"
    ),
    "verify chowk --k 2 --n 5 --fgl lorentz --mu2 0": (
        "d53c50f95dfeb298c20e1da01f3e01db48cbd0dbb0eb372ea0717a921a8b70b7"
    ),
    "verify chowk --k 2 --n 5 --fgl multiplicative --mu1 0": (
        "2097abaf67e760598aa2ecb9d7c81696af904725ac2ca972fa3e1b4b720d98f2"
    ),
    "verify chowk --k 3 --n 6 --fgl hyperbolic --mu2 0": (
        "ad30a4f19aa872d1020ffb8e9c3ea9ce685a176ee87612db636dfc4727b76e98"
    ),
    "verify chowk --k 3 --n 6 --fgl lorentz --mu2 0": (
        "e1329e76fcd76bd12ec17755fc25719cfdafaf1bf33824e89531fae638637512"
    ),
    "verify chowk --k 3 --n 6 --fgl multiplicative --mu1 0": (
        "192e767a2ff3670f1010a09abd608cc1692d560058a628af253692dbd9719d79"
    ),
    "poly word --n 5 --word 1,2,1,3,2,1,4,3,2,1 --fgl multiplicative --mu1 0": (
        "157d32f4963fee009cee6982534703ada75d291da7fe6fb4d4ec45511f930728"
    ),
    "poly word --n 5 --word 1,2,1,3,2,1,4,3,2,1 --fgl lorentz --mu2 5": (
        "9242e6b97abd96f250aa4c783ca6e8dbf9b43c8481f39f8f9ed0a8cf74cd0ddc"
    ),
    "verify fk --n 3 --fgl multiplicative --mu1 0": (
        "295a0d0bd824b628efb306ebe6159014a6c5d8acd15d195cdf8aa488f5c75a00"
    ),
    "verify fk --n 3 --fgl hyperbolic --mu1 2": (
        "318206769176ac934ebb49c4b10d889e45e76d1fcd05e84b88b2819820164a74"
    ),
    "verify ybe --n 4 --fgl multiplicative --mu1 0": (
        "77193411fb9eb29e80a2132a47662310d5de3399a489b63c94549d6c35935d3d"
    ),
    "verify ybe --n 4 --fgl hyperbolic --mu1 2": (
        "109e35a9f45169b2886661ce6834c6d137e7f6131e66f510eeeb7854ea216c87"
    ),
}


@pytest.mark.parametrize("argv", sorted(SPECIALIZED_SHA256))
def test_specialized_outputs_pinned(argv):
    code, blob = run(argv.split() + ["--json"])
    assert code == 0
    assert hashlib.sha256(blob.encode()).hexdigest() == SPECIALIZED_SHA256[argv]


def test_verify_gr24_runs_once_whatever_n():
    code, once = run(["verify", "gr24", "--json"])
    assert code == 0
    code, blob = run(["verify", "gr24", "--n", "5", "--n", "6", "--json"])
    assert (code, blob) == (0, once)
    assert len(json.loads(blob)["reports"]) == 1
    code, text = run(["verify", "gr24", "--n", "5", "--n", "6"])
    assert code == 0 and text.endswith("overall: PASS (1 reports)\n")


def test_reduce_above_top_degree_is_zero():
    # no rewriting: a RecursionError and a run of over a minute before
    for text in ("1*x[0,0,3000]", "1*x[0,0,0,0,0,0,0,0,40]"):
        t0 = time.perf_counter()
        code, out = run(["reduce"], stdin_text=text)
        assert (code, out) == (0, "0\n")
        assert time.perf_counter() - t0 < 1.0


def test_capacity_bounds_exit_2(tmp_path, capsys):
    # rank 8: x_5 x_6^7 x_7^7 x_8^7 needs a rewrite, and its degree 22
    # holds C(29, 7) = 1,560,780 monomials
    t0 = time.perf_counter()
    code, _ = run(["reduce"], stdin_text="1*x[0,0,0,0,1,7,7,7]")
    assert code == 2
    assert time.perf_counter() - t0 < 1.0
    assert "limited to rank 7" in capsys.readouterr().err
    # terms that need no rewriting are answered at any rank: x_8^28 lies
    # in S, since 28 >= 8
    code, out = run(["reduce"], stdin_text="1*x[0,0,0,0,0,0,0,28]")
    assert (code, out) == (0, "0\n")
    code, out = run(["reduce"], stdin_text="1*x[0,0,0,0,0,0,0,29] + 3*x[7,6,5,4,3,2,1,0]")
    assert (code, out) == (0, "3*x[7,6,5,4,3,2,1,0]\n")
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([constant(8, 1).to_json_obj()]))
    for argv, stdin_text in ((["expand", "--basis", str(basis)], "1*x[0,0,0,0,0,0,0,1]"),
                             (["verify", "vandermonde", "--n", "8"], None)):
        t0 = time.perf_counter()
        code, _ = run(argv, stdin_text=stdin_text)
        assert code == 2
        assert time.perf_counter() - t0 < 1.0
        assert "limited to rank 7" in capsys.readouterr().err


def _sign(exps) -> int:
    """-1 to the number of pairs i < j with exps[i] < exps[j]: the sign of
    x^exps against x^delta modulo S when exps permutes delta."""
    inversions = 0
    for i in range(len(exps)):
        for j in range(i + 1, len(exps)):
            inversions += exps[i] < exps[j]
    return -1 if inversions % 2 else 1


def test_closed_forms_answer_at_any_rank():
    # above the rewrite rank, x_i^e with e >= n is 0 and a permutation of
    # delta = (n-1, ..., 0) is +-x^delta, both at or below the top degree
    rng = random.Random(8)
    for n in range(8, 13):
        delta = list(range(n - 1, -1, -1))
        power = [rng.randrange(2) for _ in range(n)]
        power[rng.randrange(n)] += n + rng.randrange(3)
        perm = rng.sample(delta, n)
        for exps, want in ((power, "0"), (perm, f"{_sign(perm)}*x[{','.join(map(str, delta))}]")):
            t0 = time.perf_counter()
            code, out = run(["reduce"], stdin_text=f"1*x[{','.join(map(str, exps))}]")
            assert time.perf_counter() - t0 < 1.0
            assert (code, out) == (0, want + "\n")


def test_local_cap_bound_exits_2_at_once(capsys):
    # without the bound, cap 1600 ran for minutes at n = 5
    t0 = time.perf_counter()
    code, _ = run(["verify", "local", "--n", "5", "--cap", str(MAX_LOCAL_CAP + 1)])
    assert code == 2
    assert time.perf_counter() - t0 < 1.0
    assert f"limited to cap {MAX_LOCAL_CAP}, got {MAX_LOCAL_CAP + 1}" in capsys.readouterr().err
    code, text = run(["verify", "local", "--n", "5", "--cap", str(MAX_LOCAL_CAP)])
    assert code == 0 and text.endswith("overall: PASS (1 reports)\n")


def test_braid_bounds(capsys):
    # without them, rank 1000 took 20 s and 20,000 samples 25 s
    for n, samples in ((MAX_BRAID_RANK, 1), (3, MAX_BRAID_SAMPLES)):
        code, _ = run(["verify", "braid", "--n", str(n), "--samples", str(samples)])
        assert code == 0
    limits = f"limited to rank {MAX_BRAID_RANK} and {MAX_BRAID_SAMPLES} samples"
    for n, samples in ((MAX_BRAID_RANK + 1, 20), (3, MAX_BRAID_SAMPLES + 1)):
        t0 = time.perf_counter()
        code, _ = run(["verify", "braid", "--n", str(n), "--samples", str(samples)])
        assert code == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert f"schubfgl: error: verify braid is {limits}, got {n} and {samples}" in err


def test_repeated_verify_rank_exits_2_at_once(capsys):
    # each repeat used to run the suite again: three `--n 12` took 2.1 s
    # against 0.65 s for one, and any count of repeats got past the bounds
    t0 = time.perf_counter()
    code, out = run(["verify", "braid", "--n", "12", "--n", "12", "--samples", "100"])
    assert (code, out) == (2, "")
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == "schubfgl: error: verify --n 12 is given more than once\n"
    code, text = run(["verify", "braid", "--n", "4", "--n", "3"])
    assert code == 0 and text.endswith("overall: PASS (11 reports)\n")
    assert "n=4" in text and "n=3" in text


def test_chowk_rank_bound_exits_2_at_once(capsys):
    # Gr(9,10) took 75 s and Gr(8,9) 10 s before the rank bound
    for argv in (["verify", "chowk", "--k", "9", "--n", "10"],
                 ["verify", "chowk", "--k", "8", "--n", "9", "--fgl", "multiplicative"]):
        t0 = time.perf_counter()
        code, _ = run(argv)
        assert code == 2
        assert time.perf_counter() - t0 < 1.0
        assert "rewrite rank 7" in capsys.readouterr().err


def test_one_parser_serves_every_call():
    # main builds the parser once per process; no argument of one call
    # carries over to the next
    sequence = [
        ["verify", "braid", "--n", "4", "--n", "3", "--json"],
        ["verify", "braid"],
        ["poly", "word", "--n", "3", "--word", "1,2", "--json"],
        ["poly", "word", "--n", "3", "--word", "2"],
        ["verify", "braid", "--fgl", "additive", "--samples", "3"],
        ["verify", "braid"],
        ["table", "gr24", "--fgl", "lorentz"],
        ["grprod", "--k", "2", "--n", "4", "--rect", "1,1", "--lambda", "2,1"],
    ]
    reused = [run(argv) for argv in sequence]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    # `verify braid` after `--n 4 --n 3 --json` runs rank 3 alone, as text
    code, text = reused[1]
    assert code == 0 and text.endswith("overall: PASS (4 reports)\n")
    assert "n=4" not in text and "n=3" in text


def test_deeply_nested_json_input_exits_2(tmp_path, capsys):
    # both used to escape as a RecursionError traceback with exit 1
    nested = "[" * 100000 + "]" * 100000
    code, _ = run(["reduce"], stdin_text='{"nvars": ' + nested + "}")
    assert code == 2
    err = capsys.readouterr().err
    assert err == "schubfgl: error: the JSON on stdin is nested too deeply\n"
    basis = tmp_path / "basis.json"
    basis.write_text(nested)
    code, _ = run(["expand", "--basis", str(basis)], stdin_text="1*x[1,0]")
    assert code == 2
    assert capsys.readouterr().err == "schubfgl: error: the basis file is nested too deeply\n"


HAS_DIGIT_CAP = hasattr(sys, "get_int_max_str_digits")


@contextlib.contextmanager
def digit_cap(limit):
    """CPython's int/str conversion cap set to limit (0: none) inside."""
    if not HAS_DIGIT_CAP:
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_poly_word_beyond_the_digit_cap(fmt):
    # m1 = a 3,000-digit integer: the m1^2 coefficient has 6,000 digits
    mu1 = int("7" * 3000)
    argv = ["poly", "word", "--n", "4", "--word", "3,2,1", "--fgl", "multiplicative", "--mu1", str(mu1)]
    with digit_cap(4300):
        code, text = run(argv + (["--json"] if fmt == "json" else []))
    assert code == 0
    want = Poly.monomial(4, (3, 2, 1, 0))
    for i in (3, 2, 1):
        want = division_apply_c(FglSpec("multiplicative", mu1=mu1), i, want)
    assert want.terms[((2, 2, 1, 0), (0, 0))] == mu1 * mu1
    with digit_cap(0):
        assert len(str(mu1 * mu1)) == 6000
        assert (Poly.from_json(text) if fmt == "json" else Poly.parse_text(text.strip())) == want


def test_reduce_round_trips_a_5000_digit_coefficient():
    with digit_cap(0):
        c = str(-(10**4999 + 17))
    blob = json.dumps({"nvars": 2, "terms": [{"c": c, "mu": [0, 0], "x": [1, 0]}]})
    with digit_cap(4300):
        assert run(["reduce", "--n", "2"], stdin_text=f"{c}*x[1,0]") == (0, f"{c}*x[1,0]\n")
        code, text = run(["reduce", "--n", "2", "--json"], stdin_text=blob)
    assert code == 0 and json.loads(text)["terms"][0]["c"] == c


def _number(digits: int, sign: str = "") -> str:
    return sign + "9" * digits


@pytest.mark.parametrize("sign", ("", "-"))
def test_input_integers_are_held_to_the_digit_bound(tmp_path, capsys, sign):
    # the bound counts digits, not the sign; bound + 1 exits 2 before any conversion
    ok, big = _number(MAX_INPUT_DIGITS, sign), _number(MAX_INPUT_DIGITS + 1, sign)

    def blob(c):
        return f'{{"nvars": 2, "terms": [{{"c": {c}, "mu": [0, 0], "x": [1, 0]}}]}}'

    message = f"has {MAX_INPUT_DIGITS + 1} digits, more than the {MAX_INPUT_DIGITS} allowed"
    for good, bad in (
        (f"{ok}*x[1,0]", f"{big}*x[1,0]"),  # text
        (blob(f'"{ok}"'), blob(f'"{big}"')),  # JSON string
        (blob(ok), blob(big)),  # JSON integer, converted by the parser
        (f"1*m1^{ok}*x[1,0]", f"1*m1^{big}*x[1,0]"),  # an exponent is an input integer too
    ):
        if sign and good.startswith("1*m1^"):
            continue
        code, text = run(["reduce", "--n", "2", "--json"], stdin_text=good)
        assert code == 0, capsys.readouterr().err
        assert run(["reduce", "--n", "2", "--json"], stdin_text=bad)[0] == 2
        assert message in capsys.readouterr().err
    basis = tmp_path / "basis.json"
    basis.write_text(f"[{blob(big)}]")
    assert run(["expand", "--basis", str(basis)], stdin_text="1*x[1,0]")[0] == 2
    assert message in capsys.readouterr().err


@pytest.mark.skipif(not HAS_DIGIT_CAP, reason="interpreter without an int/str digit cap")
def test_main_restores_the_digit_cap():
    with digit_cap(4321):
        assert run(["poly", "word", "--n", "2", "--word", "1"])[0] == 0
        assert sys.get_int_max_str_digits() == 4321
        # a usage error leaves through SystemExit, an input error returns 2
        with pytest.raises(SystemExit):
            main(["poly"])
        assert sys.get_int_max_str_digits() == 4321
        assert run(["reduce"], stdin_text="")[0] == 2
        assert sys.get_int_max_str_digits() == 4321


def _word_argv(n, word, law):
    return ["poly", "word", "--n", str(n), "--word", ",".join(map(str, word)), "--fgl", law]


def test_poly_word_at_the_capacity_bound():
    longest = [j for i in range(1, MAX_ANY_WORD_RANK) for j in range(i, 0, -1)]
    chain = list(range(MAX_ANY_WORD_RANK, 0, -1))[:MAX_SHORT_WORD - 1] + [MAX_ANY_WORD_RANK]
    assert len(chain) == MAX_SHORT_WORD
    for argv in (_word_argv(MAX_ANY_WORD_RANK, longest, "additive"),
                 _word_argv(MAX_ANY_WORD_RANK + 1, chain, "hyperbolic"),
                 _word_argv(MAX_WORD_CLASS_RANK, range(1, MAX_SHORT_WORD + 1), "additive")):
        code, text = run(argv)
        assert code == 0 and text.startswith("1*x[")
    # the bound is the command's: the Gr(6,7) representatives apply
    # 15-letter words at rank 7 through the library
    code, text = run(["verify", "chowk", "--k", "6", "--n", "7", "--fgl", "additive"])
    assert code == 0 and text.endswith("overall: PASS (1 reports)\n")


def test_poly_word_above_the_capacity_bound_exits_2(capsys):
    # the rank-7 longest word took about 16 s and 258 MB
    n = MAX_ANY_WORD_RANK + 1
    longest = [j for i in range(1, n) for j in range(i, 0, -1)]
    chain = list(range(n - 1, 0, -1)) + [n - 1, n - 2]
    assert len(chain) == MAX_SHORT_WORD + 1
    for word in (longest, chain):
        t0 = time.perf_counter()
        code, _ = run(_word_argv(n, word, "hyperbolic"))
        assert code == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            f"schubfgl: error: above rank {MAX_ANY_WORD_RANK} poly word is limited to words of "
            f"{MAX_SHORT_WORD} letters, got {len(word)} at rank {n}\n"
        )
    code, _ = run(_word_argv(MAX_WORD_CLASS_RANK + 1, [1], "additive"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"schubfgl: error: poly word is limited to rank {MAX_WORD_CLASS_RANK}, got {MAX_WORD_CLASS_RANK + 1}\n"
    )


# (exit code, last line of stderr, sha256 of stdout + "\0" + stderr) of
# malformed command lines at an 80-column terminal, recorded while every
# command line still went through the top parser alone.
USAGE_PINS = {
    (): (2, "schubfgl: error: the following arguments are required: cmd",
         "a943446192b3d8be365c1593acd25c2e64de91bd1c6c8a649424ffb1dd328cb7"),
    ("nope",): (2, "schubfgl: error: argument cmd: invalid choice: 'nope' (choose from 'poly', "
                   "'reduce', 'expand', 'grprod', 'table', 'verify')",
                "85243ddbc8040ea41145dc3f61250cb4e1f03a2bae9cf565300637e774822141"),
    ("--help",): (0, "", "403fb56b192a21464ac7a19f8cd3cd8589298f85979b70e7e9dcdd3a8e99cd22"),
    ("poly", "--help"): (0, "", "80d2934588959a4b65e4e1db144ce3b83c535cf2cb9c1ecfc998e4d01cbfaae3"),
    ("poly",): (2, "schubfgl poly: error: the following arguments are required: what, --n, --word",
                "2b81183fd8d3267be5d3774b41a39412ec8e4b48dfeef53840b579ea4060f303"),
    ("poly", "word", "--n", "3", "--word", "1", "--bogus"): (
        2, "schubfgl: error: unrecognized arguments: --bogus",
        "7810fcca08162df5773e7e39e298430f689e7badcdb99293eab0a36980666b4c"),
    ("--n", "x"): (2, "schubfgl: error: argument cmd: invalid choice: 'x' (choose from 'poly', "
                      "'reduce', 'expand', 'grprod', 'table', 'verify')",
                   "a76dd16e75bb921190b815a8763a9c7a3bbfd6b4343424089473a8027ee313a0"),
    ("grprod", "--k", "2", "--n", "4", "--rect", "1,1", "--lambda", "-1,0"): (
        2, "schubfgl grprod: error: argument --lambda: expected one argument",
        "a7ada0bb3bd00028bbb7282f1c54e930985710f2c0f5ef5715e7fd3427b84f66"),
    ("verify", "braid", "--samples", "-1"): (
        2, "schubfgl verify: error: argument --samples: expected a positive integer, got -1",
        "1dcf0bb91d9dc1dbafde28727de1714a9cb7648c737140fe95d3aa1df80ce790"),
    ("poly", "word", "--n", "3", "--word", "1", "extra", "--bogus", "x"): (
        2, "schubfgl: error: unrecognized arguments: extra --bogus x",
        "03446526e3848b6f01d76ea0b32dbc787e1d6951939a4646da1d3e190a3ebf08"),
    ("reduce", "--", "x"): (2, "schubfgl: error: unrecognized arguments: -- x",
                            "f6e9b23ad2b742bdb5c379e2a8785aa159ebfa8073b84f4beb8d53c9cce031a4"),
}


@pytest.mark.parametrize("argv", sorted(USAGE_PINS))
def test_usage_errors_pinned(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # main(None) reads sys.argv[1:]
    monkeypatch.setattr("sys.argv", ["schubfgl", *argv])
    for given_argv in (list(argv), None):
        out = io.StringIO()
        with pytest.raises(SystemExit) as e:
            main(given_argv, out=out)
        captured = capsys.readouterr()
        blob = (captured.out + out.getvalue() + "\0" + captured.err).encode()
        last = captured.err.rstrip("\n").rsplit("\n", 1)[-1]
        assert (e.value.code, last, hashlib.sha256(blob).hexdigest()) == USAGE_PINS[argv]


# values that pass each type the subcommands declare (a new type must be
# added here), and odd tokens: negative numbers, --, help, abbreviations,
# = forms, and values that are empty, bad or hold a space
PLAIN_VALUES = {int: ("0", "3", "12"), cli._int_list: ("1,2", "3", ""), cli._positive_int: ("1", "5"),
                None: ("basis.json",)}
ODD_TOKENS = ("-1", "-5", "-1,0", "--", "-", "-h", "--help", "--wo", "--sam", "--n=5", "--json=1",
              "", "bad", "1,x", "x y")


def _argv_pieces(action):
    """Runs of tokens that give action a valid value: its option alone if it
    takes no value, else its option or its positional slot with each value."""
    values = action.choices or PLAIN_VALUES[action.type]
    if not action.option_strings:
        return [(value,) for value in values]
    if action.nargs == 0:
        return [(option,) for option in action.option_strings]
    return [(option, value) for option in action.option_strings for value in values]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.data())
def test_plain_reader_agrees_with_argparse(data):
    _, commands = cli.build_parser()
    cmd = data.draw(st.sampled_from(sorted(commands)))
    parser = commands[cmd]
    pieces = {action: _argv_pieces(action) for action in parser._actions if "-h" not in action.option_strings}
    valid = [piece for run in pieces.values() for piece in run]
    # odd pieces: an option without its value, an odd token, a bad choice
    odd = [(option,) for action in parser._actions for option in action.option_strings]
    odd += [(token,) for token in ODD_TOKENS]
    chosen = data.draw(st.lists(st.sampled_from(valid), max_size=6))
    # half the argvs hold odd pieces, and half a valid piece of every
    # required action, so that about a quarter are plain
    if data.draw(st.booleans()):
        chosen += data.draw(st.lists(st.sampled_from(odd), min_size=1, max_size=2))
    if data.draw(st.booleans()):
        chosen += [data.draw(st.sampled_from(pieces[action])) for action in pieces if action.required]
    argv = [token for piece in data.draw(st.permutations(chosen)) for token in piece]
    quick = cli._read_plain(parser, cmd, argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = parser.parse_known_args(argv, argparse.Namespace(cmd=cmd))
        except SystemExit:
            parsed = None
    if quick is not None:
        assert parsed == (quick, [])


def test_plain_calls_skip_argparse(tmp_path, monkeypatch):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([Poly.variable(2, 1).to_json_obj()]))
    calls = [
        (["poly", "word", "--n", "3", "--word", "1,2", "--fgl", "lorentz", "--json"], None),
        (["reduce", "--n", "2"], "1*x[1,0] + -1*x[0,1]"),
        (["expand", "--basis", str(basis), "--n", "2", "--json"], "0"),
        (["grprod", "--k", "2", "--n", "4", "--rect", "1,1", "--lambda", "2,1"], None),
        (["table", "gr24", "--mu1", "2"], None),
        (["verify", "braid", "--n", "3", "--n", "4", "--samples", "2", "--seed", "5", "--json"], None),
    ]
    assert [argv[0] for argv, _ in calls] == list(cli.build_parser()[1])
    expected = [run(argv, stdin) for argv, stdin in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a plain command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [run(argv, stdin) for argv, stdin in calls] == expected
    assert all(code == 0 for code, _ in expected)


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["verify", "braid", "--sam", "3"], False),
        (["poly", "word", "--n=5", "--word", "1,2"], False),
        (["poly", "word", "--n", "3", "--word", "1", "--mu1", "-5"], False),
        (["poly", "--help"], False),
        (["verify", "braid", "--n", "4", "--samples", "2", "--n", "3"], True),
        (["verify", "braid", "--n", "3", "--n", "3"], True),
    ],
)
def test_reader_gives_argparse_outputs(argv, plain, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")

    def outputs():
        out = io.StringIO()
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, out.getvalue(), captured.out, captured.err

    assert (cli._read_plain(cli.build_parser()[1][argv[0]], argv[0], argv[1:]) is not None) == plain
    quick = outputs()
    monkeypatch.setattr(cli, "_read_plain", lambda parser, cmd, argv: None)
    assert outputs() == quick


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["schubfgl", "poly", "word", "--n", "2", "--word", "1"])
    assert main() == 0
    assert capsys.readouterr().out == "1*x[0,0] + -1*m2^1*x[1,1]\n"


def _stdlib_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "caf\u00e9 \u2028 \U0001f600", 'a"b\\c\nd\te']
)
JSON_LEAVES = (
    st.none() | st.booleans() | JSON_TEXT | st.integers()
    | st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-(2**64))
    | st.floats()
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.integers(), max_size=5) | st.dictionaries(JSON_TEXT, inner, max_size=5)
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_json_writer_matches_stdlib(obj):
    assert cli._json_text(obj) == _stdlib_json(obj)


def _as_dicts(obj):
    """obj with each PackedPoly in it replaced by its packed_json_obj."""
    if isinstance(obj, cli.PackedPoly):
        return packed_json_obj(*obj)
    if isinstance(obj, dict):
        return {k: _as_dicts(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_dicts(v) for v in obj]
    return obj


def test_json_writer_on_every_object_kind_the_cli_emits():
    hyperbolic = FglSpec("hyperbolic")
    report = cli.VERIFY_SUITES["fk"][1](hyperbolic, 3, None)[0]
    poly = cli.PackedPoly(*Poly.parse_text("3*x[1,0] + -1*m1^2*x[0,0]").packed())
    objs = [
        cli.PackedPoly(*schubert(OperatorContext(hyperbolic, 3), (1, 2))),  # poly word
        poly,  # reduce
        cli.PackedPoly(*Poly.zero(2).packed()),
        {"coefficients": [poly, cli.PackedPoly(*Poly.zero(0).packed())]},  # expand
        {"k": 2, "n": 4, "rect": [1, 1], "lambda": [2, 1], "result": None},  # grprod
        {"k": 2, "n": 4, "rect": [1, 1], "lambda": [1], "result": [2, 1]},
        [{"lam": [2, 1], "word": [3, 1, 2], "poly": poly}],  # table
        {"passed": report.passed, "strict_literal": False, "reports": [report.to_json_obj()]},  # verify
    ]
    for obj in objs:
        assert cli._json_text(obj) == _stdlib_json(_as_dicts(obj))
    out = io.StringIO()
    cli._emit_json(objs[0], out)
    assert out.getvalue() == _stdlib_json(_as_dicts(objs[0])) + "\n"
    for bad in ({"a": {1, 2}}, [object()]):
        with pytest.raises(TypeError):
            cli._json_text(bad)


@st.composite
def packed_polys(draw):
    """A PackedPoly of 0 to 8 variables, in a layout whose fields may be
    wider than its exponents need."""
    n = draw(st.integers(0, 8))
    exps = st.tuples(*[st.integers(0, 7)] * n)
    mu = st.integers(0, 7) | st.integers(0, 2**20)
    coeff = (st.integers(-10**30, 10**30) | st.integers(10**2999, 10**4000)
             | st.integers(-10**4000, -10**2999))
    f = Poly(n, draw(st.dictionaries(st.tuples(exps, st.tuples(mu, mu)), coeff, max_size=6)))
    fit = GradedLayout.fit(f, 0)
    layout = GradedLayout(n, fit.xwidth + draw(st.integers(0, 3)), fit.muwidth + draw(st.integers(0, 40)))
    return cli.PackedPoly(layout, *term_order(layout.pack(f)))


WIDE = GradedLayout(3, 2, 64)
MANY_DIGITS = cli.PackedPoly(
    WIDE, *term_order(WIDE.pack(Poly.monomial(3, (1, 0, 2), (2**40, 3), -(10**3000 + 1))))
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(packed_polys(), packed_polys())
@example(cli.PackedPoly(GradedLayout(0, 1, 1), [], []), cli.PackedPoly(GradedLayout(8, 1, 1), [], []))
@example(MANY_DIGITS, MANY_DIGITS)
def test_packed_polys_are_written_as_their_json_objects(p, q):
    nestings = [
        p,  # poly word, reduce
        [{"lam": [2, 1], "word": [3, 1, 2], "poly": p}, {"lam": [], "word": [], "poly": q}],  # table
        {"coefficients": [p, q]},  # expand
        # a report, with polynomials two levels deeper than any command puts one
        {"passed": True, "reports": [{"cases": [{"detail": p, "ok": True}], "findings": [q]}]},
    ]
    with digit_cap(0):
        for obj in nestings:
            assert cli._json_text(obj) == _stdlib_json(_as_dicts(obj))
            out = io.StringIO()
            cli._emit_json(obj, out)
            assert out.getvalue() == _stdlib_json(_as_dicts(obj)) + "\n"


def _traced_peak(argv, stdin_text=None):
    """(exit code, output, traced peak in bytes) of one in-process call."""
    tracemalloc.start()
    try:
        code, text = run(argv, stdin_text)
        return code, text, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_json_memos_fill_lazily():
    # m1^1048576 takes 21-bit fields: a table of every mu key of the layout
    # would hold 1 << 42 entries.  Traced peak here: 4 kB (Python 3.11).
    f = "1*m1^1048576*x[1,0]"
    assert run(["reduce", "--json"], "1*x[1,0]")[0] == 0  # parser and imports warm
    polycore._json_memos.cache_clear()
    code, text, peak = _traced_peak(["reduce", "--json"], f)
    assert code == 0 and Poly.from_json(text) == Poly.parse_text(f)
    assert peak < 1 << 20


def test_a_5_mb_json_class_is_written_in_bounded_memory():
    # the longest word of S_6: 32,746 terms.  Traced peak 11.7 MB (Python
    # 3.11); building a dict per term and copying the text for the newline
    # took 29.1 MB.
    argv = ["poly", "word", "--n", "6", "--word", "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1", "--json"]
    warm = run(argv)  # the class is computed and kept in the word-class memo
    code, text, peak = _traced_peak(argv)
    assert (code, text) == warm and code == 0 and len(text) == 5_246_195
    assert peak < 20_000_000


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_output_pipe_exits_141_in_silence(capsys):
    # 128 + SIGPIPE, as a writer killed by the signal; 2 is for bad input
    assert main(["poly", "word", "--n", "3", "--word", "1,2"], out=_ClosedPipe()) == 141
    assert capsys.readouterr().err == ""


def test_a_reader_that_closes_the_pipe_early():
    # 2.9 MB of JSON, far more than a pipe buffers: the writer is still
    # writing when the reader closes, and exits without a message or an
    # "Exception ignored" line from the interpreter's last flush
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = [sys.executable, "-m", "schubfgl.cli", "verify", "fk", "--n", "5", "--json"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""
