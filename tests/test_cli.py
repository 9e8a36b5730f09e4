"""End-to-end command line checks, run in process."""

import hashlib
import io
import json

import pytest

from schubfgl import cli
from schubfgl.cli import main
from schubfgl.combi import all_permutations, reduced_words
from schubfgl.report import CheckReport


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


def test_reduce_text_input():
    code, text = run(["reduce", "--n", "2"], stdin_text="1*x[1,0] + -1*x[0,1]")
    assert code == 0
    assert text.strip() == "2*x[1,0]"
    code, text = run(["reduce"], stdin_text="1*x[1,0] + 1*x[0,1]")
    assert code == 0
    assert text.strip() == "0"


def test_reduce_arity_mismatch():
    code, _ = run(["reduce", "--n", "3"], stdin_text="1*x[1,0] + -1*x[0,1]")
    assert code == 2


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


def test_table_gr24_text():
    code, text = run(["table", "gr24"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("lam=0,0 word=(3,1) ")
    assert "1*x[2,2,0,0]" in lines[0]


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
    code, _ = run(["verify", "braid", "--n", "1"])
    assert code == 2
    assert "schubfgl: error: operators need at least two variables" in capsys.readouterr().err


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
