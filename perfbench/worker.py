"""Run one workload in a fresh interpreter; print its measurements as one JSON line.

Started by run.py from the root of a checkout, with src/ on PYTHONPATH.
Ops run in batches until --seconds have passed.  An op's latency is the
time of its `cli.main` call alone; its check runs right after, outside
that interval.  Latencies are kept at the reference speed of
calibrate.py, from loop samples taken before every op.  With --trace 1, odd batches run under the tracer and
even ones without it, so the same run gives the per-layer numbers and
the tracing overhead: the median traced batch time minus the median
untraced one, leaving out the first batch.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# Peak memory is read after this many batches, so that a faster program,
# which fits more batches and fills its caches further, is compared on
# the same work.
RSS_BATCHES = 10


def run_op(cli, op: workloads.Op) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(op.stdin)
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv), out, stdin)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped traceback is a failed op, not a crash
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def check_op(op: workloads.Op, rc, out: str, err: str) -> str | None:
    try:
        return op.check(rc, out, err)
    except (ValueError, KeyError, TypeError, IndexError, AssertionError) as exc:
        return f"output check raised {type(exc).__name__}: {exc}"


def write_bases(cli, refs, out_dir: str) -> dict:
    """`table gr24 --json` per law, written before timing for the expand ops."""
    files = {}
    for law in workloads.LAWS:
        argv = ("table", "gr24", "--fgl", law, "--json")
        rc, out, err, _ = run_op(cli, workloads.Op("grass", argv, "", lambda *a: None))
        if rc != 0 or workloads.table_digest(json.loads(out)) != refs.recorded(" ".join(argv)):
            raise SystemExit(f"perfbench: table gr24 --fgl {law} gave a wrong basis: {err.strip()}")
        path = os.path.join(out_dir, f"gr24-{law}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)
        files[law] = path
    return files


def layer_metrics(tracer: Tracer, traced: int, overhead_s: float, unhandled: int) -> dict:
    calls, self_s = tracer.group_totals()
    names = collections.Counter(tracer.names)
    c = tracer.counts

    def per_batch(x):
        return x / traced

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(module):
        hits, misses = c[f"cache.{module}.hits"], c[f"cache.{module}.misses"]
        return ratio(hits, hits + misses)

    m = {}
    for group, extra in (
        ("ddo.apply_c", ("terms_in", "terms_out")),
        ("ddo.apply_delta", ()),
        ("schubert.schubert_polynomial", ("letters",)),
        ("polycore.mul", ("term_pairs", "terms_out")),
        ("polycore.addsub", ()),
        ("polycore.sigma", ()),
        ("polycore.div_diff", ("terms_in",)),
        ("polycore.truncate", ()),
        ("fgl", ()),
        ("coinv.normal_form", ("terms_in", "terms_out")),
        ("coinv.expand_in_basis", ("unknowns",)),
        ("combi.reduced_words", ()),
        ("hecke.hecke_mul", ("pairs",)),
        ("hecke.delete", ()),
        ("grass", ()),
        ("cli.main", ()),
        ("cli.build_parser", ()),
    ):
        m[f"{group}.calls"] = per_batch(calls[group])
        m[f"{group}.self_s"] = per_batch(self_s[group])
        for key in extra:
            m[f"{group}.{key}"] = per_batch(c[f"{group}.{key}"])
    m["ddo.kernel_cache.hit_ratio"] = hit_ratio("ddo")
    m["schubert.prefix_useful_ratio"] = ratio(len(tracer.prefixes), calls["ddo.apply_c"])
    m["polycore.truncate.keep_ratio"] = ratio(
        c["polycore.truncate.terms_out"], c["polycore.truncate.terms_in"])
    m["polycore.series.self_s"] = per_batch(self_s["polycore.series"])
    m["polycore.io.self_s"] = per_batch(self_s["polycore.io"])
    m["coinv.nf_cache.hit_ratio"] = hit_ratio("coinv")
    m["coinv.nf_cache.size"] = float(tracer.cache_size("coinv"))
    m["combi.cache.hit_ratio"] = hit_ratio("combi")
    m["grass.smooth_product.calls"] = per_batch(names["grass.smooth_product"])
    m["report.cases"] = per_batch(c["report.cases"])
    m["report.findings"] = per_batch(c["report.findings"])
    m["report.render.self_s"] = per_batch(self_s["report.render"])
    m["cli.bad_input_unhandled"] = float(unhandled)
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = per_batch(len(tracer.names))
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "tests"))
    import oracles
    import schubfgl
    from schubfgl import cli
    from schubfgl.polycore import Poly

    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        refs = workloads.References(oracles, Poly, json.load(fh))
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Compute:
        gen = cls(args.seed, refs, write_bases(cli, refs, args.out))
    else:
        gen = cls(args.seed, refs)
    tracer = Tracer(schubfgl) if args.trace else None

    batches = []
    latencies = []  # at the reference speed, see calibrate.py
    by_kind = collections.defaultdict(list)
    attempted = failed = 0
    failures = []
    t_start = time.perf_counter()
    while True:
        ops = gen.batch()
        traced = bool(args.trace) and len(batches) % 2 == 1
        if traced:
            tracer.install()
        batch_s = 0.0
        calib = []
        timed = []
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            calib.append(calibrate.loop_s())
            rc, out, err, dt = run_op(cli, op)
            # checks use the oracles and plain dicts, never a traced function
            problem = check_op(op, rc, out, err)
            attempted += 1
            batch_s += dt
            if problem is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{' '.join(op.argv)}: {problem}")
            elif not traced:
                timed.append((op.kind, dt))
        if traced:
            tracer.uninstall()
        to_ref = calibrate.to_reference(calib)
        for kind, dt in timed:
            latencies.append(dt * to_ref)
            by_kind[kind].append(dt * to_ref)
        batches.append({"traced": traced, "s": batch_s, "ops": len(ops), "to_ref": to_ref})
        if len(batches) <= RSS_BATCHES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        done = time.perf_counter() - t_start >= args.seconds
        # a traced run needs a warm-up batch plus one batch with and one without the tracer
        if done and (not args.trace or len(batches) >= 3):
            break

    probes = []
    for op in workloads.bad_input_probes():
        rc, out, err, _ = run_op(cli, op)
        probes.append({"argv": list(op.argv), "stdin": op.stdin, "exit": rc,
                       "stderr": err.strip()[:200], "ok": op.check(rc, out, err) is None})
    unhandled = sum(not p["ok"] for p in probes)

    result = {
        "batches": batches,
        "latencies_ref_s": latencies,
        "kinds": dict(by_kind),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "probes": probes,
    }
    if tracer is not None:
        # the first batch warms caches and the allocator, so it is not compared
        plain = [b["s"] for b in batches[1:] if not b["traced"]]
        with_tracer = [b["s"] for b in batches if b["traced"]]
        overhead = statistics.median(with_tracer) - statistics.median(plain)
        result["layers"] = layer_metrics(tracer, len(with_tracer), overhead, unhandled)
        tracer.dump(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
