"""Metric registry and the summary statistics every workload shares.

The registry is the code's side of the manifest agreement check
(``manifest.py``): every metric the benchmark emits is declared here
with its unit, its better direction and, for per-layer metrics, the
layer (named by the program's modules) it measures.
"""

from __future__ import annotations

import math
import statistics

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "qps": ("queries/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "slo_ratio": ("ratio", "higher"),
    "ok_ratio": ("ratio", "higher"),
    "mesh_steps_per_query": ("steps", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: name -> (unit, better, layer)
PER_LAYER = {
    "geometry.build_s": ("s", "lower", "geometry"),
    "geometry.flatten_s": ("s", "lower", "geometry"),
    "geometry.kirkpatrick_round_s": ("s", "lower", "geometry"),
    "geometry.hull3d_insert_s": ("s", "lower", "geometry"),
    "geometry.dk3d_level_s": ("s", "lower", "geometry"),
    "snapshot.write_s": ("s", "lower", "serve.snapshot"),
    "snapshot.read_s": ("s", "lower", "serve.snapshot"),
    "snapshot.mb": ("MiB", "lower", "serve.snapshot"),
    "service.restore_s": ("s", "lower", "serve.service"),
    "service.make_engine_ms": ("ms", "lower", "serve.service"),
    "service.run_batch_ms": ("ms", "lower", "serve.service"),
    "apps.pointloc_search_ms": ("ms", "lower", "apps"),
    "apps.pointloc_finalize_ms": ("ms", "lower", "apps"),
    "apps.intervals_rank_le_b_ms": ("ms", "lower", "apps"),
    "apps.intervals_rank_lt_a_ms": ("ms", "lower", "apps"),
    "apps.linepoly_search_ms": ("ms", "lower", "apps"),
    "apps.linepoly_verify_ms": ("ms", "lower", "apps"),
    "batcher.queue_wait_ms": ("ms", "lower", "serve.batcher"),
    "batcher.flush_size_mean": ("queries", "higher", "serve.batcher"),
    "batcher.deadline_flush_share": ("ratio", "lower", "serve.batcher"),
    "cache.hit_ratio": ("ratio", "higher", "serve.cache"),
    "cache.coalesced_ratio": ("ratio", "higher", "serve.cache"),
    "pool.cold_start_s": ("s", "lower", "serve.pool"),
    "pool.roundtrip_ms": ("ms", "lower", "serve.pool"),
    "pool.overhead_ms": ("ms", "lower", "serve.ipc"),
    "pool.retries": ("count", "lower", "serve.pool"),
    "pool.timeouts": ("count", "lower", "serve.pool"),
    "pool.restarts": ("count", "lower", "serve.pool"),
    "loadgen.lag_p99_ms": ("ms", "lower", "loadgen"),
    "trace.overhead_ratio": ("ratio", "lower", "tracing"),
}

#: the engine-clock spans the applications open, reported per batch as
#: the span's wall time (the core multisearch phases nest inside them)
APP_SPANS = {
    "pointloc:search": "apps.pointloc_search_ms",
    "pointloc:finalize": "apps.pointloc_finalize_ms",
    "intervals:count:rank-le-b": "apps.intervals_rank_le_b_ms",
    "intervals:count:rank-lt-a": "apps.intervals_rank_lt_a_ms",
    "linepoly:search": "apps.linepoly_search_ms",
    "linepoly:verify": "apps.linepoly_verify_ms",
}

#: construction spans whose self time is a per-layer metric
CONSTRUCT_SPANS = {
    "kirkpatrick:round": "geometry.kirkpatrick_round_s",
    "hull3d:insert": "geometry.hull3d_insert_s",
    "dk3d:level": "geometry.dk3d_level_s",
}

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10
#: samples per window of a windowed tail (a quarter second of the serve
#: stream): short windows put a host stall in few of them, and many
#: windows steady their median
TAIL_WINDOW = 250


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def tail(values) -> dict:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    That is the order statistic with exactly ``TAIL_BEYOND`` larger
    samples; its percentile rank is reported with it.  With too few
    samples the maximum is returned and ``beyond`` says how many
    samples actually lie beyond it (zero).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "samples": 0, "beyond": 0}
    if n <= TAIL_BEYOND:
        return {"value": float(ordered[-1]), "percentile": 100.0, "samples": n, "beyond": 0}
    idx = n - TAIL_BEYOND - 1
    return {
        "value": float(ordered[idx]),
        "percentile": round(100.0 * (idx + 1) / n, 4),
        "samples": n,
        "beyond": TAIL_BEYOND,
    }


def windowed_tail(values, window: int = TAIL_WINDOW) -> dict:
    """Median over consecutive windows of ``window`` samples of each
    window's :func:`tail`.

    One host stall delays every request in flight behind it, and a
    single stall per run would otherwise set the whole run's tail; the
    median over windows is the tail a typical stretch of the run shows.
    ``values`` must be in arrival order.  Fewer than two windows' worth
    of samples is one window.
    """
    n_windows = max(1, len(values) // window)
    bounds = [len(values) * k // n_windows for k in range(n_windows + 1)]
    tails = [tail(values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return {
        "value": median([t["value"] for t in tails]),
        "percentile": tails[0]["percentile"],
        "samples_per_window": tails[0]["samples"],
        "windows": n_windows,
        "beyond": tails[0]["beyond"],
        "whole_run": tail(values),
    }


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0
