"""schubfgl benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload {fk5,vdm5,compute} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it builds nothing and uses src/
directly.  It times `setup_s` over fresh interpreters, then runs the
workload in one more fresh interpreter (worker.py), one client issuing
CLI calls back to back.  SCHUBFGL_JOBS is removed from the environment
and no --jobs flag is passed, so nothing forks.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it
give the same numbers for a reader, with the environment, the per-kind
latencies and the bad-input probes.  Everything is also written to
.perfbench_out/ in the checkout.  The exit code is 1 when an output is
wrong and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fk5", "vdm5", "compute")
SETUP_SPAWNS = 5
SETUP_LOOPS = 10  # calibration loops right before and right after each spawn
DEADLINE_S = 170.0
# time.monotonic() reads the same system-wide clock in both processes
SETUP_CODE = "import schubfgl.cli as c; c.build_parser(); import time; print(time.monotonic())"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("SCHUBFGL_JOBS", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> float:
    """Seconds from spawning an interpreter until the package is imported
    and the CLI parser is built."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout) - t0


def environment(root: str, seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "schubfgl", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "seed": seed,
    }


def tail_percentile(samples: list) -> tuple:
    """The highest of p98, p90, p50 with at least ten samples beyond it."""
    xs = sorted(samples)
    for p in (98, 90, 50):
        idx = min(len(xs) - 1, int(len(xs) * p / 100))
        if len(xs) - 1 - idx >= 10:
            return p, xs[idx], len(xs) - 1 - idx
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()

    root = os.getcwd()
    for need in (("src", "schubfgl", "cli.py"), ("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(root, *need)):
            return fail(f"{os.path.join(*need)} not found; run from the root of a schubfgl checkout")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)

    setup, setup_ref = [], []
    try:
        for _ in range(SETUP_SPAWNS):
            before = [calibrate.loop_s() for _ in range(SETUP_LOOPS)]
            setup.append(measure_setup(env))
            after = [calibrate.loop_s() for _ in range(SETUP_LOOPS)]
            setup_ref.append(calibrate.to_reference(before + after))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=DEADLINE_S - (time.monotonic() - t_start))
    except subprocess.TimeoutExpired:
        return fail(f"workload {args.workload} did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    env_info = environment(root, args.seed)
    plain = [b for b in res["batches"] if not b["traced"]]
    lat_ms = [x * 1000 for x in res["latencies_ref_s"]]
    lines = [
        f"workload {args.workload}  seed {args.seed}  python {env_info['python']}  "
        f"nproc {env_info['nproc']}  commit {env_info['git_commit']}  src {env_info['src_sha256']}",
        f"untraced batches {len(plain)} of {len(res['batches'])}; ops per batch "
        f"{plain[0]['ops'] if plain else 0}; {len(lat_ms)} checked untraced op samples",
    ]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in res["layers"].items()}
    else:
        lines.append(
            f"timings are at the reference speed (calibrate.py); raw medians: setup_s "
            f"{statistics.median(setup):.6g} s, batch_s {statistics.median(b['s'] for b in plain):.6g} s; "
            f"median factor to the reference {statistics.median(b['to_ref'] for b in plain):.4f}"
        )
        metrics = {
            "setup_s": {"value": statistics.median(s * f for s, f in zip(setup, setup_ref)), "unit": "s"},
            "batch_s": {"value": statistics.median(b["s"] * b["to_ref"] for b in plain), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        tail = tail_percentile(lat_ms)
        if tail:
            lines.append(f"op p{tail[0]} {tail[1]:.4f} ms ({len(lat_ms)} samples, {tail[2]} beyond it)")
        for kind, xs in sorted(res["kinds"].items()):
            lines.append(f"{kind}_p50_ms {statistics.median(xs) * 1000:.4f} ms ({len(xs)} samples)")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    bad = [p for p in res["probes"] if not p["ok"]]
    lines.append(
        f"known defects: {len(bad)} of {len(res['probes'])} bad-input probes did not exit 2 "
        "with a message (reported, not counted as failed ops)"
    )
    for p in bad:
        lines.append(f"  {' '.join(p['argv'])} <<< {p['stdin'][:60]!r}: exit {p['exit']} {p['stderr'][:80]}")
    for f in res["failures"]:
        print(f"perfbench: wrong output: {f}", file=sys.stderr)

    correct = res["failed"] == 0
    summary = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    record = {"env": env_info, "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "setup_s": setup, "setup_to_ref": setup_ref, "lines": lines, "worker": res, "summary": summary}
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
