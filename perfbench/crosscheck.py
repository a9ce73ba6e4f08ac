"""Re-measure the ROADMAP item-1 figures at their sizes, in the traced run.

Each result is printed beside the ROADMAP figure it should reproduce (2
cores, numpy 2.4.6).  Gaps are discussed in NOTES.md.
"""

from __future__ import annotations

import time

import numpy as np

from bklab import distributions, lastexit, rng, sprt

from tracing import SpanIndex

# (total s, draw s, scan s) of last_exit_samples at 2e4 reps, horizon 2^13, a = 0.5
ROADMAP_LAST_EXIT = {
    "rademacher": (3.4, 2.3, 1.4),
    "gaussian:sigma=1": (4.2, 3.7, 0.5),
    "pareto2:beta=1.5": (5.3, 3.1, 2.4),
    "uniform:w=1": (2.9, None, None),
}
# sampler M draws/s (f32, f64)
ROADMAP_SAMPLER = {
    "rademacher": (76, 63),
    "uniform:w=1": (110, 70),
    "gaussian:sigma=1": (59, 46),
    "pareto2:beta=1.5": (62, 38),
}
ROADMAP_REJECTION_S = 8.3  # rejection_rate at 1e5 reps x 2048 steps

LAWS = {
    "paths": ("gaussian:sigma=1", "pareto2:beta=1.5", "uniform:w=1"),
    "lattice": ("rademacher",),
    "sprt": (),
}
SAMPLER_DRAWS = 4096 * 2048  # one replicate block by one step chunk
SAMPLER_CALLS = 3


def run(workload: str, tracer, seed: int) -> list[dict]:
    """Rows of {what, measured, roadmap}; uses ``tracer`` for the draw/scan split."""
    rows = []
    for spec in LAWS[workload]:
        dist = distributions.parse_dist_spec(spec)
        tracer.spans.clear()
        cfg = lastexit.PathConfig(2**13, 20_000, seed)
        lastexit.last_exit_samples(dist, 0.5, cfg)
        ix = SpanIndex(tracer.spans)
        top = ix.named("lastexit.last_exit_samples")
        total = ix.total(top)
        draw = ix.total(ix.named(lambda n: n.startswith("distributions.sample_array.")))
        rows.append({
            "what": f"last_exit_samples {spec} 2e4 x 2^13 a=0.5 (total, draw, scan) s",
            "measured": [total, draw, ix.self_time(top)],
            "roadmap": list(ROADMAP_LAST_EXIT[spec]),
        })
        measured = []
        for dtype in (np.float32, np.float64):
            gen = rng.substream(seed, rng.STREAM_SAMPLE)
            t0 = time.perf_counter()
            for _ in range(SAMPLER_CALLS):
                dist.sample_array(gen, SAMPLER_DRAWS, dtype)
            measured.append(SAMPLER_CALLS * SAMPLER_DRAWS / (time.perf_counter() - t0) / 1e6)
        rows.append({
            "what": f"sample_array {spec} (f32, f64) M draws/s",
            "measured": measured,
            "roadmap": list(ROADMAP_SAMPLER[spec]),
        })
    if workload == "sprt":
        hyp = sprt.HypothesisSet(alphabet=(0.0, 1.0), masses=((0.5, 0.5), (0.25, 0.75)))
        t0 = time.perf_counter()
        sprt.rejection_rate(hyp, 10.0, 0, 100_000, 2048, seed)
        rows.append({
            "what": "rejection_rate 1e5 x 2048 s",
            "measured": [time.perf_counter() - t0],
            "roadmap": [ROADMAP_REJECTION_S],
        })
    tracer.spans.clear()
    return rows
