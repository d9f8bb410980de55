"""Per-layer times from spans, and the merged Chrome trace of a traced run.

Three sources go into one trace:

* benchmark-side spans: one per request (lag, queue wait, the flush or
  pool round trip that answered it, resolution) or per bulk batch;
* the engine-clock spans the applications open, captured by a tracer
  the benchmark attaches to every engine it hands the program;
* the construction spans, captured under ``ambient()`` during set-up.
"""

from __future__ import annotations

import json

from repro.mesh.trace import Span, Tracer, chrome_doc

from metrics import APP_SPANS


def walk(span: Span):
    yield span
    for child in span.children:
        yield from walk(child)


def self_time(span: Span) -> float:
    return span.wall_s - sum(child.wall_s for child in span.children)


def summed_self_times(root: Span, names: dict[str, str]) -> dict[str, float]:
    """``{metric: summed self time}`` of every span whose name is in ``names``."""
    out = {metric: 0.0 for metric in names.values()}
    for span in walk(root):
        if span.name in names:
            out[names[span.name]] += self_time(span)
    return out


def span_wall(root: Span, name: str) -> float:
    return sum((span.wall_s for span in walk(root) if span.name == name), 0.0)


def app_times(run_batch_span: Span) -> dict[str, float]:
    """Wall time of each application span inside one ``run_batch`` span.

    The core multisearch phases nest inside the application spans, so
    the wall time (not the self time) is the application-and-core layer.
    """
    out: dict[str, float] = {}
    for span in walk(run_batch_span):
        metric = APP_SPANS.get(span.name)
        if metric is not None:
            out[metric] = out.get(metric, 0.0) + span.wall_s
    return out


def batch_layers(flush) -> dict[str, float]:
    """Self time per layer of one traced in-process batch, from its spans.

    They sum to a little less than the batch's timed wall time: what the
    spans leave out is the part of the batch no layer accounts for.
    """
    apps = app_times(flush.span)
    return {
        "service.make_engine": flush.engine_span.wall_s,
        "service.run_batch_self": flush.span.wall_s - sum(apps.values()),
        **apps,
    }


def request_layers(req, flush, in_process: bool) -> dict[str, float]:
    """Self time per layer of one served request, tiling due -> done.

    ``flush`` is the batch that answered the request, or ``None`` for a
    cache hit.  A request that joined a pool batch already in flight
    (single-flight) waits only for the part of the round trip after it
    arrived.
    """
    layers = {"loadgen.lag": req.t_submit - req.due}
    if flush is None:
        layers["cache.hit"] = req.t_done - req.t_submit
        return layers
    joined = max(flush.t_start, req.t_submit)
    layers["batcher.queue_wait"] = joined - req.t_submit
    if in_process:
        layers.update(batch_layers(flush))
    else:
        layers["pool.roundtrip"] = flush.t_end - joined
    layers["batcher.resolve"] = req.t_done - flush.t_end
    return layers


def answering_flushes(requests, flushes, rows) -> list:
    """For each request, the batch that answered it (``None`` = cache hit).

    That is the last batch holding the request's row that finished
    between the request's submit and its answer.
    """
    ends: dict[bytes, list] = {}
    for flush in flushes:
        if flush.rows is None:
            continue
        for row in flush.rows:
            ends.setdefault(row.tobytes(), []).append(flush)
    out = []
    for req in requests:
        match = None
        for flush in ends.get(rows[req.index].tobytes(), ()):
            if req.t_submit <= flush.t_end <= req.t_done:
                match = flush
        out.append(match)
    return out


def request_tracer(requests, answered_by, flushes, in_process: bool) -> Tracer:
    """Benchmark-side spans: one per request, children per layer."""
    tracer = Tracer("requests")
    index = {id(f): k for k, f in enumerate(flushes)}
    for req, flush in zip(requests, answered_by):
        span = Span(f"request#{req.index}", t0=req.due, t1=req.t_done)
        span.children.append(Span("loadgen:lag", t0=req.due, t1=req.t_submit))
        if req.error is not None:
            span.children.append(Span(f"error:{req.error}", t0=req.t_submit, t1=req.t_done))
        elif flush is None:
            span.children.append(Span("cache:hit", t0=req.t_submit, t1=req.t_done))
        else:
            joined = max(flush.t_start, req.t_submit)
            name = "service:flush" if in_process else "pool:roundtrip"
            span.children += [
                Span("batcher:queue-wait", t0=req.t_submit, t1=joined),
                Span(name, t0=joined, t1=flush.t_end, events={f"flush#{index[id(flush)]}": 1}),
                Span("batcher:resolve", t0=flush.t_end, t1=req.t_done),
            ]
        tracer.root.children.append(span)
    return tracer


def write_chrome(path, tracers: list[Tracer], requests: Tracer | None = None) -> int:
    """Merge ``tracers`` on one time origin into one Chrome trace file.

    Requests overlap in time, so each ``request#`` span of the
    ``requests`` tracer gets a lane (thread id) of its own, shared with
    its children, because viewers need spans on one lane to nest.
    Returns the number of events written.
    """
    origin = min(t.root.t0 for t in tracers)
    for tracer in tracers:
        tracer.finish()
        tracer.root.t0 = origin
    doc = chrome_doc(tracers)
    pid = tracers.index(requests) + 1 if requests is not None else None
    lanes: list[float] = []
    tid = 1
    for event in doc["traceEvents"]:
        if event["pid"] != pid:
            continue
        if event["name"].startswith("request#"):
            start = event["ts"]
            lane = next((i for i, end in enumerate(lanes) if end <= start), len(lanes))
            if lane == len(lanes):
                lanes.append(0.0)
            lanes[lane] = start + event["dur"]
            tid = lane + 2
        event["tid"] = tid
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
