"""Host kernels shared by the engine primitives and :class:`RecordSet`.

The step clock charges the paper's mesh costs; these functions are the
host-side bookkeeping that moves the arrays underneath.  Kernels that
are a single numpy call (stable argsort, ``a[idx]``, ``a[mask]``,
``ufunc.accumulate``/``.at``, reductions) are written inline at their
call sites.  The three here carry a contract beyond one call and are
used both per array (:class:`~repro.mesh.engine.Region` primitives) and
per dtype block (:class:`~repro.mesh.records.RecordSet` methods).

Inputs are 1-D arrays, or 2-D with a leading record axis (fused dtype
blocks); no kernel mutates its inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["REDUCERS", "identity", "gather", "scatter", "segmented_scan"]

#: the combining ops every scan / reduce / combining write accepts
REDUCERS = {
    "add": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def identity(dtype: np.dtype, op: str):
    """The min/max identity used for exclusive scans and combining fills."""
    if dtype.kind == "f":
        return np.inf if op == "min" else -np.inf
    info = np.iinfo(dtype)
    return info.max if op == "min" else info.min


def gather(table: np.ndarray, idx: np.ndarray, fill=0) -> np.ndarray:
    """Gather rows ``out[i] = table[idx[i]]``; ``idx[i] == -1`` yields ``fill``."""
    live = idx >= 0
    out = np.full((idx.shape[0],) + table.shape[1:], fill, dtype=table.dtype)
    out[live] = table[idx[live]]
    return out


def scatter(values: np.ndarray, dest: np.ndarray, size: int, fill=0) -> np.ndarray:
    """Route row *i* to ``dest[i]``; ``-1`` discards; holes get ``fill``."""
    live = dest >= 0
    out = np.full((size,) + values.shape[1:], fill, dtype=values.dtype)
    out[dest[live]] = values[live]
    return out


def segmented_scan(
    values: np.ndarray, segments: np.ndarray, op: str, inclusive: bool
) -> np.ndarray:
    """Prefix combine restarting wherever the segment id changes.

    Ids need not be sorted, only grouped.  The shapes are load-bearing
    for bit-identity: ``add`` is a *global* cumsum minus the running
    total at the last boundary (NOT a per-segment restart — the float
    rounding differs), and ``min``/``max`` resolve ties through stable
    sort ranks, so among bit-distinct equal values (``-0.0`` vs ``0.0``)
    max picks the latest and min the earliest.  NaN values are not
    supported (their ranks are arbitrary).
    """
    n = values.shape[0]
    if n == 0:
        return values.copy()
    boundary = np.ones(n, dtype=bool)
    boundary[1:] = segments[1:] != segments[:-1]
    seg_index = np.cumsum(boundary) - 1
    if op == "add":
        running = np.cumsum(values)
        offsets = np.concatenate([[0], running[:-1][boundary[1:]]])
        result = running - offsets[seg_index]
        if not inclusive:
            result = result - values
        return result
    # min/max via offset-adjusted rank accumulate: each segment's ranks
    # live in a disjoint integer band, so one global accumulate restarts
    # exactly at every boundary.
    order = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    offset = seg_index * n
    if op == "max":
        run = np.maximum.accumulate(rank + offset) - offset
    else:
        run = np.minimum.accumulate(rank - offset) + offset
    inc = values[order[run]]
    if inclusive:
        return inc
    out = np.empty_like(values)
    out[1:] = inc[:-1]
    out[np.flatnonzero(boundary)] = identity(values.dtype, op)
    return out
