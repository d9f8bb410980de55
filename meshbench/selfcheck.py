"""The corrupted-answer self-check, for all three served kinds.

For each kind: build a small structure, answer one batch, show that the
oracle accepts every answer, then corrupt one answer and show that the
oracle and the byte-identity check flag exactly that answer.  Every
benchmark run repeats the corruption check on its own workload's
answers; this covers the kinds a single workload does not.
"""

from __future__ import annotations

import json

import numpy as np

import oracles
from workloads import answers_array, build_snapshot, query_rows


def small_inputs(kind: str, rng: np.random.Generator) -> dict:
    if kind == "pointloc":
        return {"sites": rng.random((128, 2))}
    if kind == "interval":
        lefts = rng.random(512)
        return {"lefts": lefts, "rights": lefts + rng.random(512) * 0.01}
    v = rng.normal(size=(96, 3))
    return {"points": v / np.linalg.norm(v, axis=1, keepdims=True)}


def check_kind(kind: str, workdir) -> dict:
    from repro.serve import restore_service

    rng = np.random.default_rng(7)
    inputs = small_inputs(kind, rng)
    snapshot = build_snapshot(kind, inputs, workdir / f"selfcheck-{kind}.npz")
    service = restore_service(snapshot)
    rows = query_rows(kind, rng, 64)
    answers = answers_array(kind, service.run_batch(rows)[0])
    oracle = oracles.for_kind(kind, inputs, snapshot)
    clean = np.flatnonzero(oracle.check(rows, answers)).tolist()
    result = oracles.corruption_selfcheck(oracle, rows, answers, 17)
    result["clean_flagged"] = clean
    result["ok"] = result["ok"] and not clean
    return result


def main(workdir) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    results = [check_kind(kind, workdir) for kind in ("pointloc", "interval", "linepoly")]
    for result in results:
        print(json.dumps(result))
    ok = all(r["ok"] for r in results)
    print(json.dumps({"selfcheck": "ok" if ok else "failed", "manifest": "agrees"}))
    return 0 if ok else 1
