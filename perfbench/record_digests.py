"""Rebuild digests.json: the recorded answers behind the benchmark's checks.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/record_digests.py

It takes a few minutes.  Every word class is compared with the oracle
before its digest is kept, and every rank-3 normal form with
tests/oracles.nf_linear_oracle.  The remaining entries (normal forms at
rank 4, the Gr(2,4) tables, verify reports) are the program's own
answers; record them only from a commit whose answers are trusted.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "tests"))

import oracles  # noqa: E402
import polys  # noqa: E402
import workloads  # noqa: E402
from schubfgl import cli  # noqa: E402
from schubfgl.polycore import Poly  # noqa: E402
from worker import run_op  # noqa: E402


def run(argv, stdin=""):
    rc, out, err, _ = run_op(cli, workloads.Op("record", tuple(argv), stdin, None))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}: {err}")
    return out


def main() -> int:
    refs = workloads.References(oracles, Poly, {})
    digests = {}

    for word in workloads.all_reduced_words(oracles, 5):
        arg = workloads.word_arg(word)
        got = polys.from_json_obj(json.loads(run(("poly", "word", "--n", "5", "--word", arg, "--json"))))
        if got != refs.word_class("hyperbolic", 5, word):
            raise SystemExit(f"class of {arg} differs from the oracle")
        digests[f"fk5 {arg}"] = polys.poly_digest(got)
    refs = workloads.References(oracles, Poly, {})  # drop the cached rank-5 classes

    for law in workloads.LAWS:
        for n in (3, 4):
            for word in workloads.all_reduced_words(oracles, n):
                f = refs.word_class(law, n, word)
                got = polys.from_json_obj(json.loads(run(("reduce", "--json"), polys.render_json(f, n))))
                if n == 3 and got != refs.linear_nf(f, n):
                    raise SystemExit(f"normal form of {law} {word} differs from nf_linear_oracle")
                digests[f"nf {law} {n} {workloads.word_arg(word)}"] = polys.poly_digest(got)
        argv = ("table", "gr24", "--fgl", law, "--json")
        digests[" ".join(argv)] = workloads.table_digest(json.loads(run(argv)))

    for argv in workloads.verify_catalogue() + [workloads.VDM5_ARGV]:
        obj = json.loads(run(argv))
        if not obj["passed"]:
            raise SystemExit(f"{' '.join(argv)} did not pass")
        digests[" ".join(argv)] = polys.report_digest(obj)

    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
