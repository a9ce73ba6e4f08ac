"""bklab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload paths --seed 1 --seconds 25 --trace 0

Run from the root of a bklab source checkout; bklab is imported from
``src/``.  Every round of the workload runs in a fresh worker process
(``worker.py``), one after another, until ``--seconds`` have passed, with
a reference round (``reference.py``, no bklab code) before the first and
after each; the end-to-end metrics are medians over the rounds of times
scaled by the host speed the reference rounds around each round measured.  ``--trace 1`` instead runs
one untraced round, one traced round (spans around bklab's public
functions, then the ROADMAP cross-check) and, for ``paths``, one untraced
round at one thread; it reports the per-layer metrics and fails any op
whose report digest differs between those rounds.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details, including the environment, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

# Threads per workload, capped at the core count; only matrix cells use them.
WORKLOAD_THREADS = {"paths": 2, "lattice": 1, "sprt": 1}
OP_KINDS = (
    "theorem1_matrix", "last_exit", "series", "bounds",
    "counterexample", "exact", "sprt_sweep", "ville",
)
MAX_RUN_S = 150.0  # start no round that could push a run past 180 s
DEADLINE_S = 170.0  # a round still running this long after the start is killed
REF_REPEATS = 3  # kernel runs per reference round


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; "unknown"
    when the checkout is not a git repository."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def run_round(workload: str, seed: int, threads: int, deadline: float,
              trace_out: str | None = None):
    """One worker process, killed at ``deadline`` (a perf_counter value);
    its parsed result, or None if it crashed or was killed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--threads", str(threads)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    cmd += ["--spawn-time", repr(time.time())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        print("round killed at the run deadline", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def wall(rnd: dict) -> float:
    return sum(op["s"] for op in rnd["ops"])


def kind_seconds(rnd: dict) -> dict:
    out = dict.fromkeys(OP_KINDS, 0.0)
    for op in rnd["ops"]:
        out[op["kind"]] += op["s"]
    return out


def op_failures(rnd: dict) -> list[str]:
    return [f"{op['label']}: {op['error']}" for op in rnd["ops"] if op["error"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reference_round(deadline: float) -> dict:
    """One run of ``reference.py``: its import, kernel and total times."""
    cmd = [sys.executable, os.path.join(HERE, "reference.py"),
           "--repeats", str(REF_REPEATS), "--spawn-time", repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(deadline - time.perf_counter(), 1.0))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_rounds(workload, seed, threads, seconds):
    """Worker rounds back to back until ``seconds`` have passed, with a
    reference round before the first and after every worker round.  Each
    round gets the host speed around it as ``ref_s``, the mean ``total_s``
    of the reference rounds before and after it."""
    rounds, crashed = [], 0
    start = time.perf_counter()
    before = reference_round(start + DEADLINE_S)
    while True:
        t0 = time.perf_counter()
        rnd = run_round(workload, seed, threads, start + DEADLINE_S)
        after = reference_round(start + DEADLINE_S)
        if rnd is None:
            crashed += 1
        else:
            rnd["ref_s"] = (before["total_s"] + after["total_s"]) / 2
            rounds.append(rnd)
        before = after
        now = time.perf_counter()
        if now - start >= seconds or now - start + (now - t0) > MAX_RUN_S:
            return rounds, crashed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "bklab", "__init__.py")):
        print("error: run from the root of a bklab checkout (no src/bklab here)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    threads = min(WORKLOAD_THREADS[args.workload], os.cpu_count() or 1)
    env = environment(args.seed)
    print("env " + json.dumps(env))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failures: list[str] = []
    record = {"env": env, "workload": args.workload, "threads": threads}

    if args.trace == 0:
        rounds, crashed = timed_rounds(args.workload, args.seed, threads, args.seconds)
        if not rounds:
            print("error: no round completed", file=sys.stderr)
            return 1
        n_ops = len(rounds[0]["ops"])
        attempted = n_ops * (len(rounds) + crashed)
        failed = n_ops * crashed
        for rnd in rounds:
            bad = op_failures(rnd)
            failed += len(bad)
            failures += bad
        # Every time is scaled to the nominal host speed of reference.py.
        scale = [reference.NOMINAL_S / r["ref_s"] for r in rounds]
        values = {
            "setup_s": [r["setup_s"] * k for r, k in zip(rounds, scale)],
            "wall_s": [wall(r) * k for r, k in zip(rounds, scale)],
            "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        }
        for kind in OP_KINDS:
            per = [kind_seconds(r)[kind] * k for r, k in zip(rounds, scale)]
            if any(per):
                values[f"{kind}_s"] = per
        values["setup_raw_s"] = [r["setup_s"] for r in rounds]
        values["wall_raw_s"] = [wall(r) for r in rounds]
        values["reference_s"] = [r["ref_s"] for r in rounds]
        print(f"{len(rounds)} rounds of {n_ops} ops at --threads {threads}; median [q1, q3]:")
        for name, vals in values.items():
            q1, q2, q3 = quartiles(vals)
            unit = "MB" if name == "peak_rss_mb" else "s"
            print(f"  {name:22s} {statistics.median(vals):10.4f} {unit:5s} [{q1:.4f}, {q3:.4f}]")
        print(f"  {'fail_rate':22s} {failed / attempted:10.4f} {'ratio':5s} "
              f"({failed} of {attempted} ops)")
        wanted = bench["end_to_end"]
        computed = {k: statistics.median(v) for k, v in values.items()}
        record["rounds"] = rounds
    else:
        deadline = time.perf_counter() + DEADLINE_S
        plain = run_round(args.workload, args.seed, threads, deadline)
        traced = run_round(args.workload, args.seed, threads, deadline,
                           os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        one = run_round(args.workload, args.seed, 1, deadline) if threads > 1 else None
        if plain is None or traced is None or (threads > 1 and one is None):
            print("error: a round of the traced run crashed", file=sys.stderr)
            return 1
        runs = [r for r in (plain, traced, one) if r is not None]
        attempted = sum(len(r["ops"]) for r in runs) + 1  # + the cross-check
        for rnd in runs:
            failures += op_failures(rnd)
        for name, other in (("traced", traced), ("--threads 1", one)):
            if other is None:
                continue
            for a, b in zip(plain["ops"], other["ops"]):
                # an op that raised is already counted; compare the ones that ran
                if a["digest"] and b["digest"] and a["digest"] != b["digest"]:
                    failures.append(f"{b['label']}: {name} report differs from untraced")
        if traced["crosscheck_error"]:
            failures.append(f"cross-check: {traced['crosscheck_error']}")
        failed = len(failures)
        computed = dict(traced["layers"])
        for kind, secs in kind_seconds(plain).items():
            computed[f"op.{kind}_s"] = secs
        computed["cli.speedup_2t"] = (
            kind_seconds(one)["theorem1_matrix"] / kind_seconds(plain)["theorem1_matrix"]
            if one else 0.0
        )
        computed["trace.overhead"] = wall(traced) / wall(plain) - 1.0
        print(f"traced run at --threads {threads}: untraced wall {wall(plain):.3f} s, "
              f"traced {wall(traced):.3f} s, overhead {computed['trace.overhead']:+.3f}")
        for row in traced["crosscheck"]:
            got = ", ".join(f"{v:.3g}" for v in row["measured"])
            ref = ", ".join("n/a" if v is None else f"{v:g}" for v in row["roadmap"])
            print(f"  cross-check {row['what']}: {got}  (ROADMAP: {ref})")
        wanted = bench["per_layer"]
        record["rounds"] = {"untraced": plain, "traced": traced, "threads1": one}

    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
