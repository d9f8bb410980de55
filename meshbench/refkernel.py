"""Host-speed reference kernel.

The same code can run 30% faster or slower from one process to the next
on a shared virtual machine: the host's speed drifts, while the ratio of
a workload's time to a fixed reference computation stays nearly
constant.  The benchmark therefore runs one *slice* of this kernel
between timed units (never overlapping them) and reports each CPU-bound
time as ``raw * REFERENCE_SLICE_S / adjacent_slice_time``, i.e. in
seconds "at reference host speed".

The kernel mixes the kinds of work the program spends its time on: a
pure-Python dict/loop pass (like the geometry builders and the line
verification walk), numpy sort/argsort/``add.at`` over arrays (like the
engine primitives on large batches), and many numpy calls on tiny
arrays (like a small serving flush, whose time is per-call overhead).
Without the last part, small-flush timings drift with the host about
1.4 times as much as the kernel does.  Its inputs are fixed, so every
slice does the same work.  It imports nothing from ``repro``: a change
to the program can never change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

#: bump when the kernel's work changes; the reference constant in
#: ``manifest.json`` is only valid for the version it was measured with
KERNEL_VERSION = 1

_NUMPY_N = 30_000
_PYTHON_N = 20_000
_TINY_CALLS = 1_000
_SEED = 20240917


class RefKernel:
    """One fixed ~14 ms unit of mixed Python and numpy work."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_SEED)
        self._keys = rng.integers(0, 1 << 20, _NUMPY_N)
        self._vals = rng.random(_NUMPY_N)
        self._buckets = self._keys & 4095
        self._py_keys = rng.integers(0, 1 << 16, _PYTHON_N).tolist()
        self._tiny = rng.random(32) * 8.0
        self._expected = self._work()

    def _work(self) -> float:
        counts: dict[int, int] = {}
        for key in self._py_keys:
            bucket = key & 1023
            counts[bucket] = counts.get(bucket, 0) + key
        order = np.argsort(self._keys, kind="stable")
        ordered = np.sort(self._vals[order])
        acc = np.zeros(4096)
        np.add.at(acc, self._buckets, ordered)
        tiny = 0.0
        for _ in range(_TINY_CALLS):
            scaled = self._tiny * 0.5 + 1.0
            kept = np.where(scaled > 2.0, scaled, 0.0)
            tiny += float(kept[kept > 3.0].sum())
        return float(sum(counts.values())) + float(acc.sum()) + tiny

    def slice(self) -> float:
        """Run one slice; returns its wall time in seconds."""
        t0 = time.perf_counter()
        value = self._work()
        elapsed = time.perf_counter() - t0
        if value != self._expected:
            raise RuntimeError("reference kernel result changed between slices")
        return elapsed
