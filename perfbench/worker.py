"""One round of a workload in a fresh process; prints one JSON line.

Run from the root of a source checkout: bklab is imported from ``src/``.
A fresh process per round means every round pays the imports, the
``bounds._H_SCALE_MEMO`` fills and the ``cached_property`` tables, as a CLI
invocation does.  ``--spawn-time`` is the parent's wall clock just before it
started this process, so ``setup_s`` runs from process start until the first
op can run: imports of numpy, scipy, click and bklab plus spec parsing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--trace-out", default=None, help="trace this round; write spans here")
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import click  # noqa: F401
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import bklab

    if not os.path.abspath(bklab.__file__).startswith(src + os.sep):
        raise SystemExit(f"bklab imported from {bklab.__file__}, not from {src}")
    import workloads

    ops = workloads.build(args.workload, args.seed, args.threads)
    setup_s = time.time() - args.spawn_time

    tracer = None
    if args.trace_out:
        import crosscheck
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    results = []
    for op in ops:
        span = tracer.begin_op(f"op.{op.kind}") if tracer else None
        t0 = time.perf_counter()
        try:
            payload, code, data = op.run()
            seconds = time.perf_counter() - t0
            reason = op.check(payload, code)
            digest = workloads.digest(data)
        except Exception:  # an op that raises is a failed op; the round goes on
            seconds = time.perf_counter() - t0
            reason = traceback.format_exc(limit=3)
            digest = None
        finally:
            if tracer:
                tracer.end_op(span)
        results.append(
            {"kind": op.kind, "label": op.label, "s": seconds, "error": reason, "digest": digest}
        )
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer.spans, args.threads)
        workload_spans = list(tracer.spans)
        try:
            out["crosscheck"] = crosscheck.run(args.workload, tracer, args.seed)
            out["crosscheck_error"] = None
        except Exception:
            out["crosscheck"] = []
            out["crosscheck_error"] = traceback.format_exc(limit=3)
        with open(args.trace_out, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end", "count"],
                       "workload": workload_spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
