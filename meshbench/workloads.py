"""The four workloads: fixed structures, seeded queries, set-up, timed loops.

Structures come from a fixed structure seed, so every run pays the same
set-up work; queries come from the run's ``--seed``, and the program
sees only the generated rows.  The program is driven through its public
serving calls only (``snapshot_*``, ``read_snapshot``,
``restore_service``, ``run_batch``, ``BatchingServer``,
``SupervisedServer``, ``WorkerPool``); the wrappers below time those
calls from outside.
"""

from __future__ import annotations

import asyncio
import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.serve import (
    BatchingServer,
    ResultCache,
    ServingError,
    SupervisedServer,
    WorkerPool,
    read_snapshot,
    restore_service,
    snapshot_intervals,
    snapshot_linepoly,
    snapshot_pointloc,
    write_snapshot,
)

STRUCTURE_SEED = 1991

POINTLOC_SITES = 1024
INTERVALS = 16_384
INTERVAL_MAX_LENGTH = 0.004
INTERVAL_QUERY_MAX_LENGTH = 0.02
LINEPOLY_POINTS = 512
LINEPOLY_MAX_CANDIDATES = 32

#: open-loop stream: Poisson arrivals at a fixed rate, a share of which
#: repeat a small hot set (so the result cache and single-flight work)
SERVE_RATE = 1000.0
SERVE_HOT_SHARE = 0.3
SERVE_HOT_SET = 64
SERVE_BATCH = 32
SERVE_DEADLINE_S = 0.02
#: seconds of stream between two reference slices
SERVE_SEGMENT_S = 1.0
#: full batches a serve run pushes through its front back to back
CAPACITY_BATCHES = 64
#: rows of the batch that checks a fresh worker pool's first reply
POOL_VERIFY_ROWS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # pointloc | interval | linepoly
    front: str  # batcher | supervisor | direct
    setups: int  # set-ups per run; setup_s is their median
    batch: int = 0  # closed-loop batch size (direct front only)

    @property
    def open_loop(self) -> bool:
        return self.front != "direct"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pointloc-serve", "pointloc", "batcher", setups=5),
        Workload("pointloc-pool", "pointloc", "supervisor", setups=5),
        Workload("interval-bulk", "interval", "direct", setups=7, batch=4096),
        Workload("linepoly-bulk", "linepoly", "direct", setups=5, batch=256),
    )
}


# -- inputs -------------------------------------------------------------------


def structure_inputs(kind: str) -> dict:
    """The fixed point set / interval set a workload's structure is built on."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    if kind == "pointloc":
        return {"sites": rng.random((POINTLOC_SITES, 2))}
    if kind == "interval":
        lefts = rng.random(INTERVALS)
        return {"lefts": lefts, "rights": lefts + rng.random(INTERVALS) * INTERVAL_MAX_LENGTH}
    if kind == "linepoly":
        v = rng.normal(size=(LINEPOLY_POINTS, 3))
        return {"points": v / np.linalg.norm(v, axis=1, keepdims=True)}
    raise ValueError(f"unknown kind {kind!r}")


def query_rows(kind: str, rng: np.random.Generator, m: int) -> np.ndarray:
    """``m`` fresh canonical query rows of one kind."""
    if kind == "pointloc":
        return rng.random((m, 2))
    if kind == "interval":
        a = rng.random(m)
        return np.stack([a, a + rng.random(m) * INTERVAL_QUERY_MAX_LENGTH], axis=1)
    if kind == "linepoly":
        p0 = rng.uniform(-2.0, 2.0, size=(m, 3))
        return np.hstack([p0, rng.normal(size=(m, 3))])
    raise ValueError(f"unknown kind {kind!r}")


def bulk_batch(wl: Workload, seed: int, i: int) -> np.ndarray:
    """Batch ``i`` of a closed-loop run: a function of ``(seed, i)`` only."""
    return query_rows(wl.kind, np.random.default_rng([seed, i]), wl.batch)


def serve_stream(wl: Workload, seed: int, seconds: float) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, due offsets in s)`` of one open-loop stream.

    The request count is fixed by rate x seconds, so the tail percentile
    a run reports is the same from run to run.
    """
    rng = np.random.default_rng([seed, 0])
    n = max(1, int(round(SERVE_RATE * seconds)))
    due = np.cumsum(rng.exponential(1.0 / SERVE_RATE, n))
    rows = query_rows(wl.kind, rng, n)
    hot = query_rows(wl.kind, rng, SERVE_HOT_SET)
    repeat = rng.random(n) < SERVE_HOT_SHARE
    rows[repeat] = hot[rng.integers(0, SERVE_HOT_SET, int(repeat.sum()))]
    return rows, due - due[0]


def answers_array(kind: str, results) -> np.ndarray:
    if kind == "linepoly":
        return np.stack([np.asarray(r, dtype=np.float64) for r in results])
    return np.array(results, dtype=np.int64)


# -- set-up -------------------------------------------------------------------


def build_snapshot(kind: str, inputs: dict, path):
    """The public one-call build: construct, flatten and write a snapshot."""
    if kind == "pointloc":
        return snapshot_pointloc(path, inputs["sites"], seed=STRUCTURE_SEED)
    if kind == "interval":
        return snapshot_intervals(path, inputs["lefts"], inputs["rights"])
    return snapshot_linepoly(
        path, inputs["points"], seed=STRUCTURE_SEED, max_candidates=LINEPOLY_MAX_CANDIDATES
    )


def build_and_flatten(kind: str, inputs: dict, tracer) -> tuple[dict, dict]:
    """The same build split at its layer boundary, for the traced run.

    Mirrors what ``build_snapshot`` does inside one call, with a
    benchmark span around the construction and one around the
    flattening to snapshot arrays.  The traced run checks that the
    snapshot written from these arrays has the same content id as the
    one-call build.
    """
    if kind == "pointloc":
        from repro.geometry.kirkpatrick import (
            build_kirkpatrick,
            kirkpatrick_snapshot_arrays,
            kirkpatrick_structure,
        )

        with tracer.span("geometry:build"):
            hier = build_kirkpatrick(inputs["sites"], seed=STRUCTURE_SEED)
        with tracer.span("geometry:flatten"):
            return kirkpatrick_snapshot_arrays(*kirkpatrick_structure(hier))
    if kind == "interval":
        from repro.apps.interval_search import (
            interval_count_snapshot_arrays,
            setup_interval_search,
        )

        with tracer.span("geometry:build"):
            setup = setup_interval_search(inputs["lefts"], inputs["rights"])
        with tracer.span("geometry:flatten"):
            return interval_count_snapshot_arrays(setup)
    from repro.geometry.dk3d import build_dk_hierarchy, dk_tangent_snapshot_arrays

    with tracer.span("geometry:build"):
        hier = build_dk_hierarchy(inputs["points"], seed=STRUCTURE_SEED)
    with tracer.span("geometry:flatten"):
        return dk_tangent_snapshot_arrays(hier, max_candidates=LINEPOLY_MAX_CANDIDATES)


@dataclass
class Deployment:
    """One set-up's product: the snapshot, a restored service, maybe a pool."""

    snapshot: object
    service: object
    pool: WorkerPool | None
    seconds: float  # raw set-up wall time
    parts: dict  # raw wall time per step
    first_reply: tuple | None = None  # the pool's first (results, steps)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


def deploy(wl: Workload, inputs: dict, path, verify_rows: np.ndarray, tracer=None) -> Deployment:
    """Build, write, read back, restore, and (pool workload) start the pool.

    With a tracer the build is split into its construction and
    flattening steps (see :func:`build_and_flatten`); without one it is
    the public ``snapshot_*`` call.  Nothing is checked here: the first
    pool reply is returned for the caller to verify outside the timing.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = time.perf_counter()
    if tracer is None:
        written = build_snapshot(wl.kind, inputs, path)
    else:
        arrays, meta = build_and_flatten(wl.kind, inputs, tracer)
        with span("snapshot:write"):
            written = write_snapshot(path, wl.kind, arrays, meta)
    t1 = time.perf_counter()
    with span("snapshot:read"):
        snapshot = read_snapshot(path, expected_id=written.snapshot_id)
    t2 = time.perf_counter()
    with span("service:restore"):
        service = restore_service(snapshot)
    t3 = time.perf_counter()
    pool = reply = None
    if wl.front == "supervisor":
        with span("pool:cold-start"):
            pool = WorkerPool(path, workers=1)
            try:
                reply = pool.submit_batch(verify_rows).result(timeout=120)
            except BaseException:
                pool.close()
                raise
    t4 = time.perf_counter()
    parts = dict(
        build_write_s=t1 - t0, read_s=t2 - t1, restore_s=t3 - t2, pool_cold_start_s=t4 - t3
    )
    return Deployment(snapshot, service, pool, t4 - t0, parts, reply)


# -- instrumented fronts ------------------------------------------------------


@dataclass
class Flush:
    """One batch the program answered: in-process flush, pool round trip,
    or closed-loop batch."""

    t_start: float
    rows: np.ndarray | None = None
    t_end: float = 0.0
    steps: float = 0.0
    results: list | None = None
    error: str | None = None
    traced: bool = False
    engine_span: object = None  # traced make_engine span
    span: object = None  # traced run_batch span

    @property
    def seconds(self) -> float:
        return self.t_end - self.t_start


class TimedService:
    """A service stand-in that times every engine creation and batch.

    ``BatchingServer`` calls ``make_engine`` then ``run_batch`` once per
    flush; the closed loop makes the same two calls per batch.  With a
    tracer, both calls of every ``trace_every``-th batch become spans
    and the tracer is attached to that batch's engine clock, so the
    applications' own spans nest under ``service:run_batch``.  Tracing
    every other batch pairs traced and untraced batches run moments
    apart, which is how the tracing overhead is measured.
    """

    def __init__(self, service, tracer=None, trace_every: int = 1) -> None:
        self._service = service
        self.snapshot_id = service.snapshot_id
        self.kind = service.kind
        self.query_width = service.query_width
        self.tracer = tracer
        self.trace_every = trace_every
        self.flushes: list[Flush] = []

    def _span(self, name: str):
        return self.tracer.span(name) if self.flushes[-1].traced else nullcontext()

    def canonical_queries(self, queries):
        return self._service.canonical_queries(queries)

    def make_engine(self, m: int, **engine_kwargs):
        flush = Flush(t_start=time.perf_counter())
        flush.traced = self.tracer is not None and len(self.flushes) % self.trace_every == 0
        self.flushes.append(flush)
        with self._span("service:make_engine") as span:
            engine = self._service.make_engine(m, **engine_kwargs)
        flush.engine_span = span
        if flush.traced:
            self.tracer.attach(engine.clock)
        return engine

    def run_batch(self, rows, engine=None):
        flush = self.flushes[-1]
        with self._span("service:run_batch") as span:
            results, steps = self._service.run_batch(rows, engine=engine)
        flush.t_end = time.perf_counter()
        flush.rows, flush.steps, flush.results, flush.span = rows, float(steps), results, span
        return results, steps


class TimedPool:
    """A worker-pool stand-in for ``SupervisedServer`` that times round trips.

    A round trip runs from ``submit_batch`` to the moment the pool's
    dispatcher resolves the batch's future.
    """

    def __init__(self, pool: WorkerPool) -> None:
        self._pool = pool
        self.snapshot_path = pool.snapshot_path
        self.snapshot_id = pool.snapshot_id
        self.service_kwargs = pool.service_kwargs
        self.flushes: list[Flush] = []

    def submit_batch(self, rows):
        flush = Flush(t_start=time.perf_counter(), rows=rows)
        future = self._pool.submit_batch(rows)
        self.flushes.append(flush)

        def done(fut, flush=flush):
            flush.t_end = time.perf_counter()
            if not fut.cancelled() and fut.exception() is None:
                flush.results, steps = fut.result()
                flush.steps = float(steps)

        future.add_done_callback(done)
        return future


# -- timed loops ----------------------------------------------------------------


@dataclass
class Request:
    index: int
    segment: int = 0  # the stream segment it was sent in
    due: float = 0.0
    t_submit: float = 0.0
    t_done: float = 0.0
    result: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.t_done - self.due


@dataclass
class BulkRun:
    """A closed loop: batches timed from outside, a slice between them."""

    flushes: list[Flush]
    answers: list[np.ndarray]
    ref_slices: list[float]  # slice i runs before batch i, slice i+1 after it


@dataclass
class ServeRun:
    requests: list[Request]
    ref_slices: list[float]  # slice k runs before segment k, slice k+1 after it
    flushes: list[Flush]  # the stream's flushes or pool round trips
    stats: dict  # the stream front's counters
    capacity: list[BulkRun]  # full batches back to back, before and after


def make_front(wl: Workload, dep: Deployment, tracer=None, trace_every: int = 1):
    """A fresh serving front (empty cache) over a deployment."""
    cache = ResultCache(capacity=1 << 20)
    if wl.front == "batcher":
        timed = TimedService(dep.service, tracer, trace_every)
        front = BatchingServer(
            timed, batch_size=SERVE_BATCH, deadline_s=SERVE_DEADLINE_S, cache=cache
        )
    else:
        timed = TimedPool(dep.pool)
        front = SupervisedServer(
            timed, batch_size=SERVE_BATCH, deadline_s=SERVE_DEADLINE_S, cache=cache
        )
    return front, timed


async def _open_loop(front, rows: np.ndarray, due: np.ndarray, ref) -> tuple[list[Request], list[float]]:
    """The stream in segments of ``SERVE_SEGMENT_S``, a slice between them.

    Each segment keeps its arrival gaps and ends when its last request is
    answered; the slices on both sides of it give the host speed its
    requests were served at.
    """
    segment = (due // SERVE_SEGMENT_S).astype(int)
    requests = [Request(i, int(segment[i])) for i in range(rows.shape[0])]

    async def one(req: Request) -> None:
        req.t_submit = time.perf_counter()
        try:
            req.result = await front.submit(rows[req.index])
        except ServingError as exc:
            req.error = type(exc).__name__
        except Exception as exc:  # counted as a failure, never fatal to the run
            req.error = f"exception:{type(exc).__name__}"
        req.t_done = time.perf_counter()

    slices = [ref.slice()]
    for k in range(int(segment[-1]) + 1):
        tasks = []
        start = time.perf_counter() + 0.005 - k * SERVE_SEGMENT_S
        for i in np.flatnonzero(segment == k):
            req = requests[i]
            req.due = start + due[req.index]
            wait = req.due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            tasks.append(asyncio.create_task(one(req)))
        await asyncio.gather(*tasks)
        slices.append(ref.slice())
    return requests, slices


async def _front_capacity(front, timed, kind: str, batches: list[np.ndarray], ref) -> BulkRun:
    """Full batches through the front back to back, a slice between them.

    Every row is new to the cache, so each batch is one size-triggered
    flush (or pool round trip) plus the front's own per-query work; the
    mesh steps of that flush are the batch's.
    """
    slices = [ref.slice()]
    flushes, answers = [], []
    for rows in batches:
        flush = Flush(t_start=time.perf_counter(), rows=rows)
        try:
            flush.results = await front.submit_many(rows)
        except ServingError as exc:
            flush.error = type(exc).__name__
        except Exception as exc:  # counted as a failure, never fatal to the run
            flush.error = f"exception:{type(exc).__name__}"
        flush.t_end = time.perf_counter()
        if flush.error is None:
            flush.steps, flush.traced = timed.flushes[-1].steps, timed.flushes[-1].traced
        slices.append(ref.slice())
        flushes.append(flush)
        answers.append(None if flush.results is None else answers_array(kind, flush.results))
    return BulkRun(flushes, answers, slices)


def capacity_batches(wl: Workload, seed: int) -> list[np.ndarray]:
    return [
        query_rows(wl.kind, np.random.default_rng([seed, 2, i]), SERVE_BATCH)
        for i in range(CAPACITY_BATCHES)
    ]


def run_serve(wl: Workload, dep: Deployment, rows, due, ref, seed: int, tracer=None) -> ServeRun:
    """One open-loop stream through a fresh front (empty result cache),
    with the closed-loop capacity of a fresh front at full batches
    measured before and after it, so that it samples the host over the
    whole run rather than one moment of it."""
    batches = capacity_batches(wl, seed)
    half = len(batches) // 2

    async def capacity(part):
        front, timed = make_front(wl, dep, tracer, trace_every=2)
        run = await _front_capacity(front, timed, wl.kind, part, ref)
        await front.close()
        return run

    async def serve():
        before = await capacity(batches[:half])
        front, timed = make_front(wl, dep, tracer)
        requests, slices = await _open_loop(front, rows, due, ref)
        await front.close()
        after = await capacity(batches[half:])
        return ServeRun(requests, slices, timed.flushes, dict(front.stats), [before, after])

    quiesce()
    return asyncio.run(serve())


def quiesce() -> None:
    """Collect, then freeze what set-up left alive, before a timed loop.

    Otherwise a full collection walking the set-up's long-lived objects
    (tens of ms) lands at a random point of the timed loop and sets the
    latency tail by itself.  Garbage made while serving is still
    collected, and paid for, as usual.
    """
    gc.collect()
    gc.freeze()


def run_bulk(wl: Workload, service, seed: int, seconds: float, ref, tracer=None) -> BulkRun:
    """Closed loop: one caller, one batch outstanding, a slice between batches.

    With a tracer, every other batch is traced (see :class:`TimedService`).
    """
    timed = TimedService(service, tracer, trace_every=2)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    quiesce()
    slices = [ref.slice()]
    answers = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 3 or time.perf_counter() < deadline:
        rows = bulk_batch(wl, seed, i)
        with span(f"batch#{i}"):
            try:
                timed.run_batch(rows, engine=timed.make_engine(rows.shape[0]))
            except Exception as exc:  # counted as a failure, never fatal to the run
                flush = timed.flushes[-1]
                flush.rows, flush.t_end = rows, time.perf_counter()
                flush.error = f"exception:{type(exc).__name__}"
        flush = timed.flushes[-1]
        answers.append(None if flush.error else answers_array(wl.kind, flush.results))
        flush.results = None
        with span("refkernel:slice"):
            slices.append(ref.slice())
        i += 1
    return BulkRun(timed.flushes, answers, slices)
