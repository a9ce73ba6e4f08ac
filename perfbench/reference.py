"""A fixed reference round that gauges how fast the host runs right now.

    python3 perfbench/reference.py --spawn-time <time.time()> --repeats 3

It runs no bklab code.  Like a worker round it starts a fresh interpreter and
imports numpy, scipy and click; then it runs a kernel of pure-Python
arithmetic, numpy sampling, cumulative sums and sorts, and a JSON dump, the
mix of interpreter, vectorised and allocation work the workloads do.  It
prints one JSON line: ``import_s`` (process start until the imports are
done), ``kernel_s`` (one time per kernel run) and ``total_s`` (process start
until the last kernel run is done).  ``run.py`` runs it before the first
worker round and after every round, and scales the times of a round by
``NOMINAL_S`` over the mean ``total_s`` of the two reference rounds around
it (see NOTES.md, "Steadiness").
"""

from __future__ import annotations

import argparse
import json
import time

# total_s at --repeats 3 on the 2-vCPU Xeon VM of the baseline in a fast
# stretch (its median over 530 rounds was 0.46 s, range 0.31-0.71 s); a
# round run at this host speed is reported in plain seconds.  It only sets
# the scale of the reported figures.
NOMINAL_S = 0.40


def _kernel(np) -> float:
    acc = 0
    for i in range(100_000):
        acc += (i * i) % 7
    gen = np.random.default_rng(12345)
    walk = np.cumsum(gen.standard_normal(1 << 18))
    order = np.sort(np.abs(walk))
    text = json.dumps(order[::4].tolist())
    return acc + len(text) + float(order[-1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--repeats", type=int, required=True)
    args = ap.parse_args()
    import click  # noqa: F401
    import numpy as np
    import scipy  # noqa: F401

    import_s = time.time() - args.spawn_time
    kernel_s = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        _kernel(np)
        kernel_s.append(time.perf_counter() - t0)
    total_s = time.time() - args.spawn_time
    print(json.dumps({"import_s": import_s, "kernel_s": kernel_s, "total_s": total_s}))


if __name__ == "__main__":
    main()
