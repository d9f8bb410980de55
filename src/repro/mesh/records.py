"""Fused record containers for the engine's host-side fast path.

The counted primitives (:meth:`Region.sort_by`, ``route``, ``rar``, ``raw``,
``compress``) are defined over *records* — tuples of per-processor fields.
The straightforward implementation loops over the fields in Python and
allocates a fresh output array per field per call; for the simulator's hot
loops (Algorithms 1–3 run thousands of primitive calls on small arrays)
that per-field interpreter overhead dominates wall time.

This module is the structure-of-arrays answer:

* :class:`RecordSet` stacks same-dtype fields into one 2-D block, so a
  permutation / gather / scatter over all fields of a dtype is a *single*
  numpy fancy-index instead of one per field.  Mixed dtypes cost one index
  per distinct dtype (typically two: int64 bookkeeping + float64 payload).
* :class:`ArgsortMemo` remembers the most recent stable argsorts keyed on
  key-array identity (plus an equality guard), eliminating the redundant
  ``np.argsort`` when code argsorts a key array and then immediately
  ``sort_by``-s records with the same keys.
* :class:`BufferPool` hands out preallocated, refilled output buffers for
  ``route``/``rar``-style fill arrays, so steady-state loops (e.g. one
  gather per Constrained-Multisearch round) stop allocating.

None of this changes what the primitives compute or charge: fused
operations produce byte-identical arrays and identical step-clock charges;
they only change how the host executes the simulation.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.mesh.kernels import gather, scatter

__all__ = [
    "RecordSet",
    "ArgsortMemo",
    "BufferPool",
    "fused_view",
    "should_fuse",
    "clear_host_caches",
    "memo_counters",
    "drain_memo_counters",
]

#: every live memo/pool, weakly held — so a host (the bench runner between
#: sweep points) can drop all cached buffers and stashed sort orders at
#: once without threading engine references around.
_LIVE_MEMOS: "weakref.WeakSet[ArgsortMemo]" = weakref.WeakSet()
_LIVE_POOLS: "weakref.WeakSet[BufferPool]" = weakref.WeakSet()


def clear_host_caches() -> int:
    """Clear every live :class:`ArgsortMemo` and :class:`BufferPool`.

    Returns the number of caches cleared.  This is a host-memory measure
    only — the caches repopulate on demand and outputs never change; the
    bench runner calls it between sweep points so one point's pooled
    buffers can't inflate the next point's ``peak_rss_kb``.
    """
    cleared = 0
    for cache in (*_LIVE_MEMOS, *_LIVE_POOLS):
        cache.clear()
        cleared += 1
    return cleared


def memo_counters() -> dict[str, int]:
    """Process-wide argsort-memo totals (across all live and dead memos)."""
    return {"hits": ArgsortMemo.total_hits, "misses": ArgsortMemo.total_misses}


def drain_memo_counters() -> dict[str, int]:
    """Read and reset the process-wide memo totals (bench-worker scoping)."""
    out = memo_counters()
    ArgsortMemo.total_hits = 0
    ArgsortMemo.total_misses = 0
    return out


def should_fuse(structure) -> bool:
    """Whether a search structure's fused fast path should engage.

    Packing a structure's vertex records (:func:`fused_view`) and proving
    layout properties over them cost O(E) up front; that only amortizes
    when the structure is searched more than once.  The first sighting
    marks the structure and returns False — a one-shot search keeps the
    plain per-field execution (identical outputs and charges) instead of
    paying setup it can never earn back.  From the second sighting on
    (or once a fused view already exists), returns True.
    """
    if getattr(structure, "_repro_fused", None) is not None:
        return True
    if getattr(structure, "_repro_warm", False):
        return True
    try:
        structure._repro_warm = True
    except (AttributeError, TypeError):
        pass  # unmarkable (frozen/slotted): stay on the per-field path
    return False


class RecordSet:
    """An ordered set of named, equal-length record fields, fused by dtype.

    Fields of the same dtype live as columns of one C-contiguous 2-D block
    ``(n_records, n_fields)`` — record *i* is row *i*, so a permutation /
    gather / scatter over all fields of a dtype is a single row
    fancy-index (numpy's fastest gather: one contiguous memcpy per
    record).  :meth:`field` returns a column *view* (zero copy).

    2-D fields (e.g. ``(n, k)`` adjacency rows) are supported: they occupy
    ``k`` consecutive block columns and view back as an ``(n, k)`` slice.

    A monotone :attr:`version` counter is bumped by every mutating call;
    the per-set argsort memo uses it, so reading fields is free while
    mutating through :meth:`set_field` (or calling :meth:`touch` after
    writing through a view) keeps cached sort orders honest.
    """

    def __init__(
        self,
        fields: dict[str, np.ndarray] | None = None,
        pack: bool = False,
        **kw: np.ndarray,
    ):
        named: dict[str, np.ndarray] = dict(fields or {})
        named.update(kw)
        if not named:
            raise ValueError("RecordSet needs at least one field")
        self._order: list[str] = list(named)
        self._blocks: dict[np.dtype, np.ndarray] = {}
        #: field name -> (block key, first block column, width, shape tail,
        #:               the field's own dtype)
        self._where: dict[str, tuple[np.dtype, int, int, tuple[int, ...], np.dtype]] = {}
        self._packed = bool(pack)
        self.version = 0
        n = -1
        word = np.dtype(np.int64)
        staged: dict[np.dtype, list[tuple[str, np.ndarray, np.dtype]]] = {}
        for name, arr in named.items():
            a = np.asarray(arr)
            if a.ndim == 0 or a.ndim > 2:
                raise ValueError(f"field {name!r} must be 1-D or 2-D, got {a.ndim}-D")
            if n < 0:
                n = a.shape[0]
            elif a.shape[0] != n:
                raise ValueError(
                    f"field {name!r} has length {a.shape[0]}, expected {n}"
                )
            # pack=True: every 8-byte field shares ONE int64 block (floats
            # bit-cast; a same-itemsize .view is lossless), so a whole-set
            # gather touches one cache-line-aligned row per record instead
            # of one row per dtype block.
            if pack and a.dtype.itemsize == word.itemsize:
                staged.setdefault(word, []).append((name, a, a.dtype))
            else:
                staged.setdefault(a.dtype, []).append((name, a, a.dtype))
        self.n = n
        for dtype, cols in staged.items():
            parts: list[np.ndarray] = []
            c = 0
            for name, a, vdt in cols:
                width = 1 if a.ndim == 1 else a.shape[1]
                self._where[name] = (dtype, c, width, a.shape[1:], vdt)
                parts.append(a.reshape(n, width).view(dtype))
                c += width
            self._blocks[dtype] = (
                np.ascontiguousarray(parts[0])
                if len(parts) == 1
                else np.concatenate(parts, axis=1)
            )

    # -- introspection -----------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self._order)

    @property
    def dtypes(self) -> list[np.dtype]:
        return list(self._blocks)

    def block(self, dtype) -> np.ndarray:
        """The fused ``(n, fields)`` block holding every field of ``dtype``."""
        return self._blocks[np.dtype(dtype)]

    def span(self, name: str) -> tuple[np.ndarray, int, int, np.dtype]:
        """``(block, first column, width, view dtype)`` for one field.

        For callers that gather whole block rows themselves (hot loops
        that bypass :class:`RecordSet` construction): slice columns
        ``c : c + width`` out of the gathered rows and ``.view(dtype)``
        them back.
        """
        dtype, c, width, tail, vdt = self._where[name]
        return self._blocks[dtype], c, width, vdt

    def field(self, name: str) -> np.ndarray:
        """A zero-copy view of one field (1-D or ``(n, k)``)."""
        dtype, c, width, tail, vdt = self._where[name]
        block = self._blocks[dtype]
        cols = block[:, c] if not tail else block[:, c : c + width]
        # packed fields: reinterpret the column back as its own dtype —
        # same itemsize, so the view is legal on any strides and lossless.
        return cols if vdt == dtype else cols.view(vdt)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.field(name)

    def __contains__(self, name: str) -> bool:
        return name in self._where

    def arrays(self) -> tuple[np.ndarray, ...]:
        """All fields, in declaration order (views)."""
        return tuple(self.field(name) for name in self._order)

    # -- mutation ----------------------------------------------------------

    def touch(self) -> None:
        """Declare that field contents changed (invalidates cached sorts)."""
        self.version += 1

    def set_field(self, name: str, values: np.ndarray) -> None:
        """Overwrite one field in place (bumps :attr:`version`)."""
        view = self.field(name)
        view[...] = values
        self.touch()

    # -- fused whole-set operations ---------------------------------------

    def _like(self, blocks: dict[np.dtype, np.ndarray], n: int) -> "RecordSet":
        out = object.__new__(RecordSet)
        out._order = self._order
        out._where = self._where
        out._packed = self._packed
        out._blocks = blocks
        out.n = n
        out.version = 0
        return out

    def _check_fill(self, fill) -> None:
        if self._packed and fill != 0:
            raise ValueError(
                "packed RecordSet supports only fill=0 (fill is applied as "
                "a raw word shared by int and bit-cast float fields)"
            )

    def permute(self, order: np.ndarray) -> "RecordSet":
        """Records reordered by ``order`` — one fancy-index per dtype block."""
        return self.take_live(order)

    def select(self, mask: np.ndarray) -> "RecordSet":
        """Records where ``mask`` is true, packed (the ``compress`` body)."""
        mask = np.asarray(mask, dtype=bool)
        blocks = {dt: blk[mask] for dt, blk in self._blocks.items()}
        return self._like(blocks, int(mask.sum()))

    def take(self, idx: np.ndarray, fill=0) -> "RecordSet":
        """Gather ``result[i] = records[idx[i]]``; ``idx == -1`` yields fill.

        This is the ``rar`` body: one gather per dtype block, with the
        fill applied once per block instead of once per field.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if (idx >= 0).all():
            return self.take_live(idx)
        self._check_fill(fill)
        blocks = {dt: gather(blk, idx, fill=fill) for dt, blk in self._blocks.items()}
        return self._like(blocks, int(idx.shape[0]))

    def take_live(self, idx: np.ndarray) -> "RecordSet":
        """:meth:`take` for callers that guarantee every index is in range.

        Skips the liveness mask and fill pass — just the row gathers.
        """
        idx = np.asarray(idx)
        blocks = {dt: blk[idx] for dt, blk in self._blocks.items()}
        return self._like(blocks, int(idx.shape[0]))

    def scatter(self, dest: np.ndarray, size: int, fill=0) -> "RecordSet":
        """Route record *i* to slot ``dest[i]``; ``-1`` discards (``route`` body)."""
        self._check_fill(fill)
        dest = np.asarray(dest, dtype=np.int64)
        blocks = {
            dt: scatter(blk, dest, size, fill=fill) for dt, blk in self._blocks.items()
        }
        return self._like(blocks, size)

    def argsort(self, name: str, memo: "ArgsortMemo | None" = None) -> np.ndarray:
        """Stable argsort by one field, memoized on (field, version)."""
        key = ("recordset", id(self), name, self.version)
        if memo is not None:
            hit = memo.lookup(key)
            if hit is not None:
                return hit
        order = np.argsort(self.field(name), kind="stable")
        if memo is not None:
            order.setflags(write=False)  # shared on later hits — keep it honest
            memo.store(key, order)
        return order


class ArgsortMemo:
    """A tiny LRU of recent stable argsorts.

    Raw-array entries are keyed on the key array's identity and guarded by
    an equality check against a stashed copy, so an in-place mutation of
    the keys can never replay a stale permutation — a miss merely costs
    the argsort that would have run anyway.  :class:`RecordSet` entries
    are keyed on ``(id, field, version)`` and need no copy.
    """

    #: process-wide totals across every memo instance, for bench/profile
    #: attribution (drained per point by ``drain_memo_counters``)
    total_hits = 0
    total_misses = 0

    def __init__(self, capacity: int = 4) -> None:
        self.capacity = capacity
        self._slots: dict[tuple, tuple[np.ndarray | None, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        _LIVE_MEMOS.add(self)

    def _hit(self) -> None:
        self.hits += 1
        ArgsortMemo.total_hits += 1

    def _miss(self) -> None:
        self.misses += 1
        ArgsortMemo.total_misses += 1

    def order_for(self, keys: np.ndarray) -> np.ndarray:
        """Stable argsort of ``keys``, served from the memo when possible."""
        keys = np.asarray(keys)
        key = ("array", id(keys), keys.dtype.str, keys.shape)
        slot = self._slots.get(key)
        if slot is not None:
            guard, order = slot
            if guard is not None and np.array_equal(guard, keys):
                self._hit()
                self._slots[key] = self._slots.pop(key)  # refresh LRU position
                return order
        self._miss()
        order = np.argsort(keys, kind="stable")
        order.setflags(write=False)  # shared on later hits — keep it honest
        self.store(key, order, guard=keys.copy())
        return order

    def lookup(self, key: tuple) -> np.ndarray | None:
        slot = self._slots.get(key)
        if slot is None:
            self._miss()
            return None
        self._hit()
        self._slots[key] = self._slots.pop(key)
        return slot[1]

    def store(self, key: tuple, order: np.ndarray, guard: np.ndarray | None = None) -> None:
        self._slots[key] = (guard, order)
        while len(self._slots) > self.capacity:
            self._slots.pop(next(iter(self._slots)))

    def clear(self) -> None:
        self._slots.clear()


class BufferPool:
    """Reusable output buffers for fill-then-scatter/gather primitives.

    ``route``/``rar`` build their results as ``np.full(shape, fill)`` and
    then overwrite the live slots; in steady-state loops the allocation is
    pure overhead.  ``pool.full(shape, dtype, fill)`` returns the same
    buffer (refilled) on every call with matching shape/dtype.

    Safety contract: a pooled buffer is only valid until the *next*
    ``full`` call with the same shape and dtype.  It is for loop-local
    scratch whose contents are consumed (or copied out) within the
    iteration — exactly the per-round gathers of the fast paths.  Anything
    returned to callers must be a fresh array; use :meth:`persistent` to
    copy out.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        _LIVE_POOLS.add(self)

    def full(self, shape, dtype, fill=0) -> np.ndarray:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        key = (shape, np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        buf[...] = fill
        return buf

    def empty(self, shape, dtype) -> np.ndarray:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        key = (shape, np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    @staticmethod
    def persistent(buf: np.ndarray) -> np.ndarray:
        """Copy a pooled buffer into an ordinary array safe to hand out."""
        return buf.copy()

    def clear(self) -> None:
        self._buffers.clear()


def fused_view(structure) -> RecordSet:
    """A cached :class:`RecordSet` over a search structure's vertex records.

    Packs ``adjacency`` (``(V, d)`` int64), ``level`` (``(V,)`` int64) and
    ``payload`` (``(V, p)`` float64, bit-cast) into ONE block, so a vertex
    gather is a single fancy-index touching one aligned row per vertex —
    the gathers are memory-latency-bound, and one row costs one cache-line
    stream instead of one per dtype block.  The view is cached on the
    structure object and rebuilt if the structure's arrays are replaced;
    in-place mutation of a structure's arrays after first use requires
    dropping the ``_repro_fused`` attribute.
    """
    cached = getattr(structure, "_repro_fused", None)
    if cached is not None:
        view, src = cached
        if (
            src[0] is structure.adjacency
            and src[1] is structure.level
            and src[2] is structure.payload
        ):
            return view
    view = RecordSet(
        adjacency=structure.adjacency,
        level=structure.level,
        payload=structure.payload,
        pack=True,
    )
    try:
        structure._repro_fused = (
            view,
            (structure.adjacency, structure.level, structure.payload),
        )
    except (AttributeError, TypeError):  # frozen/slotted structures: no cache
        pass
    return view
