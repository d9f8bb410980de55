"""One benchmark run: set-ups, the timed loop, the checks and the metrics.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a
separate run: one traced set-up, then the workload with every stream
flush and every other closed-loop batch traced; it reports the
per-layer metrics and writes one Chrome trace.  Every answer is checked
after the timed sections.
"""

from __future__ import annotations

import resource
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.bench.runner import provenance
from repro.mesh.trace import Tracer, ambient

import metrics
import oracles
import spans
from metrics import median, percentile, windowed_tail
from refkernel import RefKernel
from workloads import (
    POOL_VERIFY_ROWS,
    SERVE_BATCH,
    TimedService,
    answers_array,
    build_snapshot,
    deploy,
    query_rows,
    run_bulk,
    run_serve,
    serve_stream,
    structure_inputs,
)

#: answers per run that the corruption self-check re-checks
SELFCHECK_ANSWERS = 256
#: reference slices on each side of a set-up
SETUP_SLICES = 2
#: failures every run record lists, at zero when none happened; an
#: unexpected exception is counted as ``exception:<type>``
FAILURE_KINDS = (
    "Overloaded",
    "BatchFailed",
    "WorkerUnavailable",
    "ServerClosed",
    "mismatch_direct",
    "mismatch_oracle",
)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _summary(values) -> dict:
    return {"n": len(values), "median": median(values), "min": min(values), "max": max(values)}


class BenchRun:
    def __init__(self, wl, seed: int, seconds: float, workdir: Path, manifest: dict) -> None:
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.ref_s = float(manifest["reference"]["slice_s"])
        self.slo_s = float(manifest["slo_ms"][wl.name]) / 1e3
        self.ref = RefKernel()
        for _ in range(3):
            self.ref.slice()
        self.inputs = structure_inputs(wl.kind)
        self.verify_rows = query_rows(wl.kind, np.random.default_rng([seed, 1]), POOL_VERIFY_ROWS)
        self.path = workdir / f"{wl.name}.npz"
        self.failures = Counter(dict.fromkeys(FAILURE_KINDS, 0))
        self.attempted = 0
        self.correct = 0
        self.checks: dict = {}
        self.oracle = None

    # -- host-speed normalization ------------------------------------------

    def normalized(self, raw_s: float, ref_s: float) -> float:
        """A CPU-bound time at reference host speed."""
        return raw_s * self.ref_s / ref_s

    # -- set-up -------------------------------------------------------------

    def timed_setups(self):
        """``wl.setups`` set-ups, each between reference slices."""
        records, dep = [], None
        for _ in range(self.wl.setups):
            if dep is not None:
                dep.close()
                dep = None
            before = [self.ref.slice() for _ in range(SETUP_SLICES)]
            dep = deploy(self.wl, self.inputs, self.path, self.verify_rows)
            try:
                adjacent = before + [self.ref.slice() for _ in range(SETUP_SLICES)]
                records.append(
                    {
                        "raw_s": dep.seconds,
                        "normalized_s": self.normalized(dep.seconds, median(adjacent)),
                        "slices_s": adjacent,
                        "parts_s": dep.parts,
                        "snapshot_id": dep.snapshot.snapshot_id,
                    }
                )
                self.check_deployment(dep)
            except BaseException:
                dep.close()
                raise
        self.checks["snapshot_ids_identical"] = len({r["snapshot_id"] for r in records}) == 1
        return dep, records

    def check_deployment(self, dep) -> None:
        """The first pool reply must equal a direct batch and the oracle."""
        if self.oracle is None:
            self.oracle = oracles.for_kind(self.wl.kind, self.inputs, dep.snapshot)
        direct = answers_array(self.wl.kind, dep.service.run_batch(self.verify_rows)[0])
        if self.oracle.check(self.verify_rows, direct).any():
            self.failures["verify_batch_oracle"] += 1
        if dep.first_reply is not None:
            reply = answers_array(self.wl.kind, dep.first_reply[0])
            if oracles.byte_mismatches(reply, direct).any():
                self.failures["pool_first_reply_mismatch"] += 1

    # -- answer checks ------------------------------------------------------

    def check_answers(self, service, rows: np.ndarray, answers: np.ndarray, direct: bool = True):
        """Mask of answers that are wrong, by byte identity or by the oracle.

        Byte identity compares against one direct ``run_batch`` over the
        same rows; the closed loops, whose answers are direct batches
        already, do so for their first two batches only.
        """
        bad_direct = np.zeros(len(rows), dtype=bool)
        if direct:
            # reversed, so each answer comes from a different batch position
            again = service.run_batch(rows[::-1])[0][::-1]
            bad_direct = oracles.byte_mismatches(answers, answers_array(self.wl.kind, again))
        bad_oracle = self.oracle.check(rows, answers)
        self.failures["mismatch_direct"] += int(bad_direct.sum())
        self.failures["mismatch_oracle"] += int(bad_oracle.sum())
        good = ~(bad_direct | bad_oracle)
        if "corruption" not in self.checks and good.any():
            keep = np.flatnonzero(good)[:SELFCHECK_ANSWERS]
            result = oracles.corruption_selfcheck(
                self.oracle, rows[keep], answers[keep], len(keep) // 2
            )
            self.checks["corruption"] = result
            if not result["ok"]:
                self.failures["corruption_selfcheck"] += 1
        if self.wl.kind == "linepoly":
            self.checks["linepoly_ambiguous"] = self.checks.get(
                "linepoly_ambiguous", 0
            ) + self.oracle.ambiguous(rows)
        return ~good

    def check_serve(self, dep, rows, run):
        """Count failures of one stream; returns the per-request ok mask."""
        n = len(run.requests)
        self.attempted += n
        ok = np.zeros(n, dtype=bool)
        for req in run.requests:
            if req.error is not None:
                self.failures[req.error] += 1
        done = [r for r in run.requests if r.error is None]
        if done:
            idx = np.array([r.index for r in done])
            answers = answers_array(self.wl.kind, [r.result for r in done])
            bad = self.check_answers(dep.service, rows[idx], answers)
            ok[idx[~bad]] = True
        self.correct += int(ok.sum())
        return ok

    def check_closed_loop(self, service, run):
        """Count failures of a closed loop; returns per-batch ok counts."""
        ok_counts = []
        for i, (flush, answers) in enumerate(zip(run.flushes, run.answers)):
            rows = flush.rows
            self.attempted += len(rows)
            if answers is None:
                self.failures[flush.error] += len(rows)
                ok_counts.append(0)
                continue
            bad = self.check_answers(service, rows, answers, direct=i < 2)
            ok_counts.append(int((~bad).sum()))
        self.correct += sum(ok_counts)
        return ok_counts

    # -- end-to-end metrics ---------------------------------------------------

    def batch_times(self, *runs) -> tuple[list[float], list[float]]:
        """Raw and normalized seconds of each closed-loop batch."""
        raw, norm = [], []
        for run in runs:
            s = run.ref_slices
            for i, flush in enumerate(run.flushes):
                raw.append(flush.seconds)
                norm.append(self.normalized(flush.seconds, (s[i] + s[i + 1]) / 2))
        return raw, norm

    def stream_latencies(self, run, done) -> tuple[list[float], list[float], list[float]]:
        """Raw and normalized latency (ms) and busy share of each request.

        The part of a request's latency during which the program was
        answering a batch (the union of the stream's flushes or pool
        round trips) is CPU-bound: it is scaled to reference host speed
        by the slices on both sides of the request's segment.  Timer and
        idle waits stay as measured.  A pool's batches run in its worker,
        on a core the slices (run in this process) do not sample, so its
        latencies stay as measured.
        """
        merged: list[list[float]] = []
        for a, b in sorted((f.t_start, f.t_end) for f in run.flushes if f.t_end > f.t_start):
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        starts = np.array([m[0] for m in merged])
        ends = np.array([m[1] for m in merged])
        cum = np.concatenate([[0.0], np.cumsum(ends - starts)])

        def busy_until(t):
            k = np.searchsorted(starts, t, side="right")
            return cum[k] - np.where(k > 0, np.maximum(ends[np.maximum(k - 1, 0)] - t, 0.0), 0.0)

        due = np.array([r.due for r in done])
        t_done = np.array([r.t_done for r in done])
        busy = busy_until(t_done) - busy_until(due) if merged else np.zeros(len(done))
        s = run.ref_slices
        host = np.array([(s[r.segment] + s[r.segment + 1]) / 2 for r in done])
        raw = t_done - due
        norm = raw - busy + busy * self.ref_s / host if self.wl.front == "batcher" else raw
        return list(raw * 1e3), list(norm * 1e3), list(busy / raw)

    def serve_metrics(self, run, ok, capacity_ok) -> tuple[dict, dict]:
        done = [r for r in run.requests if r.error is None]
        latency_raw_ms, latency_ms, busy_share = self.stream_latencies(run, done)
        in_slo = sum(1 for r in run.requests if ok[r.index] and r.latency <= self.slo_s)
        answered = [f for f in run.flushes if f.results is not None]
        rows = sum(f.rows.shape[0] for f in answered)
        busy = sum(f.seconds for f in answered)
        cap_raw, cap_norm = self.batch_times(*run.capacity)
        lat_tail = windowed_tail(latency_ms)
        lag_ms = [(r.t_submit - r.due) * 1e3 for r in run.requests]
        values = {
            "qps": SERVE_BATCH / median(cap_norm),
            "latency_p50_ms": median(latency_ms),
            "latency_tail_ms": lat_tail["value"],
            "slo_ratio": in_slo / len(run.requests),
            "mesh_steps_per_query": sum(f.steps for c in run.capacity for f in c.flushes)
            / (SERVE_BATCH * len(cap_raw)),
        }
        detail = {
            "qps_raw": SERVE_BATCH / median(cap_raw),
            "capacity_batches": len(cap_raw),
            "capacity_ok": sum(capacity_ok),
            "capacity_reference_slices": _summary([s for c in run.capacity for s in c.ref_slices]),
            "latency_p50_ms_raw": median(latency_raw_ms),
            "latency_tail_ms_raw": windowed_tail(latency_raw_ms)["value"],
            "latency_tail": lat_tail,
            "latency_samples": len(latency_ms),
            "latency_busy_share_p50": median(busy_share),
            "stream_reference_slices": _summary(run.ref_slices),
            "stream_flushes": len(answered),
            "stream_flushed_queries": rows,
            "stream_flush_busy_s": busy,
            "stream_mesh_steps_per_query": sum(f.steps for f in answered) / rows if rows else 0.0,
            "generator_lag_ms": {
                "p50": median(lag_ms),
                "p99": percentile(lag_ms, 99),
                "max": max(lag_ms),
            },
            "server_stats": run.stats,
        }
        return values, detail

    def bulk_metrics(self, run, ok_counts) -> tuple[dict, dict]:
        raw, norm = self.batch_times(run)
        queries = self.wl.batch * len(raw)
        in_slo = sum(ok for ok, t in zip(ok_counts, norm) if t <= self.slo_s)
        lat_tail = windowed_tail([t * 1e3 for t in norm])
        values = {
            "qps": self.wl.batch / median(norm),
            "latency_p50_ms": median(norm) * 1e3,
            "latency_tail_ms": lat_tail["value"],
            "slo_ratio": in_slo / queries,
            "mesh_steps_per_query": sum(f.steps for f in run.flushes) / queries,
        }
        detail = {
            "qps_raw": self.wl.batch / median(raw),
            "latency_p50_ms_raw": median(raw) * 1e3,
            "latency_tail_ms_raw": windowed_tail([t * 1e3 for t in raw])["value"],
            "latency_tail": lat_tail,
            "batches": len(raw),
            "reference_slices": _summary(run.ref_slices),
            "mesh_steps": sum(f.steps for f in run.flushes),
        }
        return values, detail

    # -- the two run modes ------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        wl = self.wl
        dep, setups = self.timed_setups()
        try:
            if wl.open_loop:
                rows, due = serve_stream(wl, self.seed, self.seconds)
                run = run_serve(wl, dep, rows, due, self.ref, self.seed)
                ok = self.check_serve(dep, rows, run)
                capacity_ok = [n for c in run.capacity for n in self.check_closed_loop(dep.service, c)]
                values, detail = self.serve_metrics(run, ok, capacity_ok)
            else:
                run = run_bulk(wl, dep.service, self.seed, self.seconds, self.ref)
                ok_counts = self.check_closed_loop(dep.service, run)
                values, detail = self.bulk_metrics(run, ok_counts)
            pool_stats = dict(dep.pool.stats) if dep.pool is not None else None
        finally:
            dep.close()
        values["setup_s"] = median([r["normalized_s"] for r in setups])
        values["ok_ratio"] = self.correct / self.attempted
        values["peak_rss_mb"] = _peak_rss_mb()
        detail.update(
            setups=setups,
            setup_s_raw=median([r["raw_s"] for r in setups]),
            pool_stats=pool_stats,
        )
        return {name: values[name] for name in metrics.END_TO_END}, detail

    def per_layer(self) -> tuple[dict, dict]:
        wl = self.wl
        public = build_snapshot(wl.kind, self.inputs, self.workdir / f"{wl.name}-public.npz")
        setup_tracer = Tracer("setup")
        with ambient(setup_tracer):
            dep = deploy(wl, self.inputs, self.path, self.verify_rows, tracer=setup_tracer)
        engine_tracer = Tracer("engine")
        tracers = [setup_tracer, engine_tracer]
        requests = None
        try:
            if dep.snapshot.snapshot_id != public.snapshot_id:
                self.failures["traced_build_differs_from_snapshot_call"] += 1
            self.check_deployment(dep)
            if wl.open_loop:
                rows, due = serve_stream(wl, self.seed, self.seconds)
                run = run_serve(wl, dep, rows, due, self.ref, self.seed, tracer=engine_tracer)
                self.check_serve(dep, rows, run)
                for part in run.capacity:
                    self.check_closed_loop(dep.service, part)
                values, detail, requests = self._serve_layers(dep, rows, run, engine_tracer)
                tracers.append(requests)
            else:
                run = run_bulk(wl, dep.service, self.seed, self.seconds, self.ref, tracer=engine_tracer)
                self.check_closed_loop(dep.service, run)
                values, detail = self._bulk_layers(run)
            pool = dep.pool.stats if dep.pool is not None else {}
            for key in ("retries", "timeouts", "restarts"):
                values[f"pool.{key}"] = int(pool.get(key, 0))
            detail["pool_stats"] = dict(pool) or None
        finally:
            dep.close()
        root = setup_tracer.root
        values.update(
            {
                "geometry.build_s": spans.span_wall(root, "geometry:build"),
                "geometry.flatten_s": spans.span_wall(root, "geometry:flatten"),
                **spans.summed_self_times(root, metrics.CONSTRUCT_SPANS),
                "snapshot.write_s": spans.span_wall(root, "snapshot:write"),
                "snapshot.read_s": spans.span_wall(root, "snapshot:read"),
                "snapshot.mb": self.path.stat().st_size / 2**20,
                "service.restore_s": spans.span_wall(root, "service:restore"),
                "pool.cold_start_s": spans.span_wall(root, "pool:cold-start"),
            }
        )
        trace_path = self.workdir / f"trace-{wl.name}-s{self.seed}.json"
        detail["chrome_trace"] = str(trace_path)
        detail["chrome_trace_events"] = spans.write_chrome(trace_path, tracers, requests)
        return {name: values[name] for name in metrics.PER_LAYER}, detail

    def _batch_metrics(self, flushes) -> dict:
        """Service and application self times per traced in-process batch."""
        apps = [spans.app_times(f.span) for f in flushes]
        out = {
            "service.make_engine_ms": median([f.engine_span.wall_s for f in flushes]) * 1e3,
            "service.run_batch_ms": median([f.span.wall_s for f in flushes]) * 1e3,
        }
        for metric in metrics.APP_SPANS.values():
            times = [a[metric] for a in apps if metric in a]
            out[metric] = median(times) * 1e3 if times else 0.0
        return out

    def overhead_ratio(self, *runs) -> float:
        """Median normalized closed-loop batch time, traced over untraced.

        The closed loops trace every other batch, so each traced batch
        has an untraced neighbour run moments before or after it.
        """
        traced, plain = [], []
        for run in runs:
            for flush, norm in zip(run.flushes, self.batch_times(run)[1]):
                (traced if flush.traced else plain).append(norm)
        return median(traced) / median(plain)

    def _serve_layers(self, dep, rows, traced, engine_tracer):
        in_process = self.wl.front == "batcher"
        answered_by = spans.answering_flushes(traced.requests, traced.flushes, rows)
        if in_process:
            batches = traced.flushes
            overhead = 0.0
        else:
            # the pool's batches again, in-process and traced: what the
            # round trip costs beyond the batch itself
            replay = TimedService(dep.service, engine_tracer)
            for flush in traced.flushes:
                with engine_tracer.span("replay"):
                    replay.run_batch(flush.rows, engine=replay.make_engine(flush.rows.shape[0]))
            batches = replay.flushes
            overhead = median([p.seconds - r.seconds for p, r in zip(traced.flushes, batches)]) * 1e3
        coverage = []
        waits = []
        for req, flush in zip(traced.requests, answered_by):
            if req.error is not None:
                continue
            layers = spans.request_layers(req, flush, in_process)
            coverage.append(sum(layers.values()) / req.latency)
            if flush is not None:
                waits.append(layers["batcher.queue_wait"])
        stats = traced.stats
        values = {
            **self._batch_metrics(batches),
            "batcher.queue_wait_ms": median(waits) * 1e3,
            "batcher.flush_size_mean": float(np.mean([f.rows.shape[0] for f in traced.flushes])),
            "batcher.deadline_flush_share": stats["flush_deadline"] / max(stats["batches"], 1),
            "cache.hit_ratio": stats["cache_hits"] / max(stats["queries"], 1),
            "cache.coalesced_ratio": stats["coalesced"] / max(stats["queries"], 1),
            "pool.roundtrip_ms": 0.0 if in_process else median([f.seconds for f in traced.flushes]) * 1e3,
            "pool.overhead_ms": overhead,
            "loadgen.lag_p99_ms": percentile([(r.t_submit - r.due) * 1e3 for r in traced.requests], 99),
            "trace.overhead_ratio": self.overhead_ratio(*traced.capacity),
        }
        requests = spans.request_tracer(traced.requests, answered_by, traced.flushes, in_process)
        return values, {"coverage": _coverage(coverage)}, requests

    def _bulk_layers(self, run):
        traced = [f for f in run.flushes if f.traced]
        coverage = [sum(spans.batch_layers(f).values()) / f.seconds for f in traced]
        values = {
            **self._batch_metrics(traced),
            "batcher.queue_wait_ms": 0.0,
            "batcher.flush_size_mean": 0.0,
            "batcher.deadline_flush_share": 0.0,
            "cache.hit_ratio": 0.0,
            "cache.coalesced_ratio": 0.0,
            "pool.roundtrip_ms": 0.0,
            "pool.overhead_ms": 0.0,
            "loadgen.lag_p99_ms": 0.0,
            "trace.overhead_ratio": self.overhead_ratio(run),
        }
        return values, {"coverage": _coverage(coverage)}


def _coverage(ratios) -> dict:
    """How much of each request's (or batch's) time the layer self-times explain."""
    within = [abs(r - 1.0) <= 0.1 for r in ratios]
    return {
        "samples": len(ratios),
        "min": min(ratios) if ratios else None,
        "median": median(ratios),
        "share_within_10pct": sum(within) / len(within) if within else None,
    }


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path, manifest: dict) -> tuple[dict, dict, bool]:
    """One run; returns ``(result line, full record, correct)``."""
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    bench = BenchRun(wl, seed, seconds, workdir, manifest)
    values, detail = bench.per_layer() if trace else bench.end_to_end()
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    failed = bench.attempted - bench.correct
    correct = failed == 0 and not any(bench.failures.values())
    line = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name][0]} for name, v in values.items()},
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "wall_s": time.perf_counter() - t0,
        "provenance": provenance(),
        "reference": {**manifest["reference"], "slo_ms": manifest["slo_ms"][wl.name]},
        "metrics": line["metrics"],
        "detail": detail,
        "failures": dict(bench.failures),
        "checks": bench.checks,
        "attempted": bench.attempted,
        "failed": failed,
    }
    return line, record, correct
