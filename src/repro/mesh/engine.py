"""The counted-primitive mesh engine.

Algorithms in :mod:`repro.core` are written against :class:`Region`
operations.  Each operation

* **moves real data** — numpy arrays holding one record field per processor
  of the region, in row-major processor order; and
* **charges the global clock** the textbook mesh cost of that operation,
  ``constant * side`` where ``side = max(rows, cols)`` of the region.

The primitives are the standard ones the paper builds on ("a constant
number of standard mesh operations"):

=============  =======================================================
``sort_by``    sort records by key into row-major order (optimal sort)
``route``      send record *i* to processor ``dest[i]`` (a partial
               permutation; sort-based routing)
``rar``        random-access read: every processor reads the record at
               an arbitrary address, concurrent reads allowed (handled
               by the standard sort-and-copy simulation)
``raw``        random-access write with combining (sum/min/max/count)
``scan``       prefix sums in processor order
``reduce``     global reduction, result visible everywhere
``broadcast``  one value to all processors
``compress``   pack the records selected by a mask into a prefix
=============  =======================================================

Honest-parallelism enforcement: inside ``engine.parallel(...)`` branches,
only operations on (sub)regions of the declared branch region are legal,
and the declared regions must be pairwise disjoint.  Memory honesty:
``check_capacity`` asserts the O(1)-records-per-processor invariant at the
points where the paper's proofs claim it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.mesh.clock import CostModel, StepClock
from repro.mesh.faults import invariant, paranoid_default
from repro.mesh.kernels import REDUCERS, gather, identity, scatter, segmented_scan
from repro.mesh.records import ArgsortMemo, BufferPool, RecordSet
from repro.mesh.topology import MeshShape, RegionSpec

__all__ = ["MeshEngine", "Region", "CapacityError", "fast_path_default"]


def fast_path_default() -> bool:
    """Process-wide default for :class:`MeshEngine`'s ``fast_path`` flag.

    Controlled by the ``REPRO_FAST_PATH`` environment variable (unset or
    ``1``/``true``/``on`` = enabled).  The fast path changes host wall
    time only — outputs and step-clock charges are byte-identical, which
    the equivalence suite asserts.
    """
    val = os.environ.get("REPRO_FAST_PATH", "1").strip().lower()
    return val not in ("0", "false", "off", "no", "")


class CapacityError(RuntimeError):
    """Raised when a step would exceed the per-processor memory bound."""


def _check_route_targets(targets: np.ndarray, out_size: int) -> None:
    """Validate route destinations: in range and pairwise distinct.

    The duplicate check is a bincount over the (already range-checked)
    targets — O(n + out_size) instead of the O(n log n) ``np.unique`` sort,
    on the hottest primitive's validation path.  Error messages name the
    first offending routed record and its destination, so a failing call
    is debuggable without re-running under a breakpoint.
    """
    if not targets.size:
        return
    if int(targets.max()) >= out_size:
        bad = int(np.argmax(targets >= out_size))
        raise ValueError(
            f"route destination out of range: record {bad} targets "
            f"{int(targets[bad])} >= output size {out_size}"
        )
    counts = np.bincount(targets, minlength=1)
    if int(counts.max()) > 1:
        dup = int(np.argmax(counts > 1))
        first, second = (int(i) for i in np.flatnonzero(targets == dup)[:2])
        raise ValueError(
            f"route with duplicate destinations: records {first} and {second} "
            f"both target {dup} (use raw for combining writes)"
        )


class MeshEngine:
    """A ``rows x cols`` mesh-connected computer with a step clock."""

    def __init__(
        self,
        shape: int | MeshShape,
        cost_model: CostModel | None = None,
        capacity: int = 16,
        fast_path: bool | None = None,
        paranoid: bool | None = None,
    ) -> None:
        if isinstance(shape, int):
            shape = MeshShape.square(shape)
        self.shape = shape
        self.clock = StepClock(cost_model)
        #: per-processor record capacity used by ``check_capacity`` — the
        #: "O(1) memory per processor" constant.  16 words is generous but
        #: finite; algorithms that would need more records per processor
        #: than this anywhere fail loudly.
        self.capacity = capacity
        #: host-side fast path: fused record blocks, argsort memoization,
        #: buffer reuse.  Byte-identical outputs and charges either way.
        self.fast_path = fast_path_default() if fast_path is None else bool(fast_path)
        #: paranoid mode: invariant assertions at every primitive boundary
        #: (post-sort sortedness, route scatter integrity, transfer batch
        #: integrity) raising :class:`repro.mesh.faults.InvariantViolation`.
        #: Host-side reads only — zero mesh steps, byte-identical outputs.
        self.paranoid = paranoid_default() if paranoid is None else bool(paranoid)
        #: installed :class:`repro.mesh.faults.FaultInjector` (None = off);
        #: consulted after each primitive computes its outputs, before the
        #: paranoid checks, so injected faults are caught at the earliest
        #: boundary a validator covers.
        self.faults = None
        self.argsort_memo = ArgsortMemo()
        self.pool = BufferPool()
        self.root = Region(self, RegionSpec(0, 0, shape.rows, shape.cols))
        self._branch_region: RegionSpec | None = None

    @classmethod
    def for_problem(
        cls,
        n: int,
        capacity: int = 16,
        fast_path: bool | None = None,
        paranoid: bool | None = None,
    ) -> "MeshEngine":
        """Smallest square engine whose mesh holds an ``n``-record problem."""
        return cls(
            MeshShape.for_size(n).side,
            capacity=capacity,
            fast_path=fast_path,
            paranoid=paranoid,
        )

    @property
    def side(self) -> int:
        return self.shape.side

    @property
    def size(self) -> int:
        return self.shape.size

    # -- charging hooks ----------------------------------------------------

    def charge_primitive(
        self, spec: RegionSpec, constant: float, label: str, volume: int = 0
    ) -> None:
        """Charge one counted primitive run on region ``spec``.

        The single point where primitive constants meet the clock:
        ``constant * spec.side`` steps, exactly as the paper charges a
        submesh.  Hierarchical engines (:mod:`repro.mesh.shard`) override
        this to decompose a flat charge into per-chiplet intra-chip
        phases plus a costed off-chip exchange, without touching the
        primitives themselves.
        """
        self.clock.charge(constant * spec.side, label, volume=volume)

    def charge_transfer(
        self, src: RegionSpec, dst: RegionSpec, label: str, volume: int = 0
    ) -> None:
        """Charge an inter-region transfer (cost ~ bounding Manhattan span)."""
        self.clock.charge(
            self.clock.cost.transfer * src.distance_to(dst), label, volume=volume
        )

    def charge_phase(
        self, side: int, constant: float, label: str, volume: int = 0,
        extra: float = 0.0,
    ) -> float:
        """Charge a global algorithm phase proportional to a submesh side.

        The multisearch cores (hierdag, constrained) compute charges at
        phase granularity — ``constant * side + extra`` for a phase run
        on submeshes of the given side — rather than through a Region
        primitive.  Returns the flat-equivalent steps so callers can
        keep per-phase accounting.  Hierarchical engines override this
        to decompose phases whose submeshes span chip boundaries.
        """
        steps = constant * side + extra
        self.clock.charge(steps, label, volume=volume)
        return steps

    # -- parallel sections -------------------------------------------------

    @contextmanager
    def parallel(self, regions: Sequence["Region | RegionSpec"]) -> Iterator["_EngineParallel"]:
        """Open a parallel section over pairwise-disjoint regions.

        Branch bodies may only operate on regions contained in the branch's
        declared region; the elapsed time of the section is the max over
        branches (charged via :meth:`StepClock.parallel`).
        """
        specs = [r.spec if isinstance(r, Region) else r for r in regions]
        for i in range(len(specs)):
            for j in range(i + 1, len(specs)):
                if specs[i].overlaps(specs[j]):
                    raise ValueError(
                        f"parallel regions overlap: {specs[i]} and {specs[j]}"
                    )
        if self._branch_region is not None:
            for spec in specs:
                if not self._branch_region.contains(spec):
                    raise ValueError(
                        f"nested parallel region {spec} escapes enclosing "
                        f"branch region {self._branch_region}"
                    )
        with self.clock.parallel() as section:
            yield _EngineParallel(self, section)

    # -- inter-region data movement ----------------------------------------

    def transfer(
        self,
        src: "Region",
        dst: "Region",
        *arrays: np.ndarray,
        label: str = "transfer",
    ) -> tuple[np.ndarray, ...]:
        """Move record arrays from ``src`` to ``dst`` (cost ~ bounding span).

        The records are assumed packed (a prefix of ``src``); they arrive
        packed in ``dst``.  Capacity of the destination is checked.
        """
        self._check_scope(src.spec)
        self._check_scope(dst.spec)
        out: list[np.ndarray] = []
        for arr in arrays:
            a = np.asarray(arr)
            if a.shape[0] > dst.size * self.capacity:
                raise CapacityError(
                    f"transfer of {a.shape[0]} records exceeds capacity of {dst.spec}"
                )
            out.append(a.copy())
        volume = int(out[0].shape[0]) if out else 0
        self.charge_transfer(src.spec, dst.spec, label, volume=volume)
        result = tuple(out)
        if self.faults is not None:
            result = self.faults.on_transfer(result, label)
        if self.paranoid:
            for i, (a, arr) in enumerate(zip(result, arrays)):
                n_in = int(np.asarray(arr).shape[0])
                if int(a.shape[0]) != n_in:
                    raise invariant(
                        "transfer:batch",
                        f"array {i} arrived with {int(a.shape[0])} of "
                        f"{n_in} records ({src.spec} -> {dst.spec})",
                        clock=self.clock,
                    )
        return result

    def _check_scope(self, spec: RegionSpec) -> None:
        if self._branch_region is not None and not self._branch_region.contains(spec):
            raise RuntimeError(
                f"operation on {spec} outside active parallel branch "
                f"{self._branch_region}"
            )


class _EngineParallel:
    """Yielded by :meth:`MeshEngine.parallel`."""

    def __init__(self, engine: MeshEngine, section) -> None:
        self._engine = engine
        self._section = section

    @contextmanager
    def branch(self, region: "Region | RegionSpec") -> Iterator[None]:
        spec = region.spec if isinstance(region, Region) else region
        outer = self._engine._branch_region
        with self._section.branch():
            self._engine._branch_region = spec
            try:
                yield
            finally:
                self._engine._branch_region = outer

    @property
    def branch_times(self) -> list[float]:
        return self._section.branch_times


class Region:
    """A rectangular submesh view exposing the counted primitives.

    Record arrays passed to primitives are 1-D (or 2-D with leading record
    axis) numpy arrays of length at most ``size``; index *i* lives on the
    region's *i*-th processor in row-major order.
    """

    def __init__(self, engine: MeshEngine, spec: RegionSpec) -> None:
        self.engine = engine
        self.spec = spec

    # -- geometry ----------------------------------------------------------

    @property
    def size(self) -> int:
        return self.spec.size

    @property
    def side(self) -> int:
        return self.spec.side

    def subregion(self, row0: int, col0: int, rows: int, cols: int) -> "Region":
        return Region(self.engine, self.spec.subregion(row0, col0, rows, cols))

    def partition(self, grid_rows: int, grid_cols: int) -> list["Region"]:
        """Cut into a grid of blocks (the paper's submesh partitionings)."""
        from repro.mesh.topology import block_partition

        return [Region(self.engine, s) for s in block_partition(self.spec, grid_rows, grid_cols)]

    # -- cost helpers --------------------------------------------------------

    def _charge(self, constant: float, label: str, volume: int = 0) -> None:
        self.engine._check_scope(self.spec)
        self.engine.charge_primitive(self.spec, constant, label, volume=volume)

    def charge_local(self, steps: int = 1, label: str = "local") -> None:
        """Charge ``steps`` SIMD local steps (side-independent)."""
        self.engine._check_scope(self.spec)
        self.engine.clock.charge(self.engine.clock.cost.local * steps, label)

    def check_capacity(self, count: int, per_proc: int = 1, what: str = "records") -> None:
        """Assert the O(1)-memory-per-processor invariant."""
        limit = self.size * min(per_proc, self.engine.capacity)
        if count > limit:
            raise CapacityError(
                f"{count} {what} exceed capacity {limit} of region {self.spec} "
                f"(per_proc={per_proc})"
            )

    def _check_records(self, *arrays: np.ndarray, per_proc: int | None = None) -> int:
        if not arrays:
            raise ValueError("need at least one record array")
        length = int(np.asarray(arrays[0]).shape[0])
        for a in arrays[1:]:
            if int(np.asarray(a).shape[0]) != length:
                raise ValueError("record arrays must have equal length")
        cap = per_proc if per_proc is not None else self.engine.capacity
        if length > self.size * cap:
            raise CapacityError(
                f"{length} records exceed region {self.spec} capacity (x{cap})"
            )
        return length

    # -- paranoid checks (host-side reads: zero mesh steps, no outputs) ------

    def _paranoid_sorted(self, keys: np.ndarray, label: str) -> None:
        """Post-``sort`` sortedness: keys must arrive nondecreasing."""
        keys = np.asarray(keys)
        if keys.ndim != 1 or keys.shape[0] < 2:
            return
        bad = keys[1:] < keys[:-1]
        if bad.any():
            j = int(np.argmax(bad))
            raise invariant(
                "sort:sorted",
                f"{label!r} output not sorted at position {j}: "
                f"{keys[j]!r} > {keys[j + 1]!r} (region {self.spec})",
                clock=self.engine.clock,
            )

    def _paranoid_stable(self, keys: np.ndarray, order: np.ndarray, label: str) -> None:
        """Post-``argsort`` stability: among equal keys the permutation must
        preserve input order.  This is the payload-permutation check the
        plain sortedness invariant cannot make — swapping two *tied* keys
        leaves ``keys[order]`` nondecreasing but scrambles the records."""
        keys = np.asarray(keys)
        order = np.asarray(order)
        if keys.ndim != 1 or order.shape[0] < 2:
            return
        sk = keys[order]
        tied = sk[1:] == sk[:-1]
        if not tied.any():
            return
        bad = tied & (order[1:] < order[:-1])
        if bad.any():
            j = int(np.argmax(bad))
            raise invariant(
                "sort:stable",
                f"{label!r} permutation swaps tied keys at position {j}: "
                f"records {int(order[j])} and {int(order[j + 1])} both key "
                f"{sk[j]!r} but arrive out of input order (region {self.spec})",
                clock=self.engine.clock,
            )

    def _paranoid_routed(
        self,
        outs: Sequence[np.ndarray],
        ins: Sequence[np.ndarray],
        targets: np.ndarray,
        live: np.ndarray,
        label: str,
    ) -> None:
        """Route scatter integrity: every live record lands intact at its
        destination (targets are a partial permutation by construction)."""
        for out, arr in zip(outs, ins):
            sent = np.asarray(arr)[live]
            arrived = out[targets]
            if not (
                arrived.shape == sent.shape
                and arrived.dtype == sent.dtype
                and np.array_equal(arrived, sent)
            ):
                diff = (
                    arrived.reshape(arrived.shape[0], -1)
                    != sent.reshape(sent.shape[0], -1)
                ).any(axis=1)
                j = int(np.argmax(diff))
                raise invariant(
                    "route:payload",
                    f"{label!r} record {j} arrived corrupted at slot "
                    f"{int(targets[j])} (region {self.spec})",
                    clock=self.engine.clock,
                )

    # -- primitives ----------------------------------------------------------

    def _note_memo(self, memo: ArgsortMemo, hits_before: int) -> None:
        """Annotate the active trace span with the memo's hit/miss."""
        tracer = self.engine.clock.tracer
        if tracer is not None:
            hit = memo.hits > hits_before
            tracer.on_event("argsort-memo:hit" if hit else "argsort-memo:miss")

    def _stable_order(self, keys: np.ndarray) -> np.ndarray:
        """Stable argsort, memoized under ``fast_path``.

        The memo's guard is a value-equality check, so a hit replays the
        exact permutation a fresh argsort would compute (the stable
        permutation is unique); memoized orders are returned read-only to
        keep later hits honest.
        """
        if self.engine.fast_path:
            memo = self.engine.argsort_memo
            before = memo.hits
            order = memo.order_for(np.asarray(keys))
            self._note_memo(memo, before)
            return order
        return np.argsort(np.asarray(keys), kind="stable")

    def argsort(self, keys: np.ndarray, label: str = "sort") -> np.ndarray:
        """Stable sort permutation of the records by key (cost: optimal sort)."""
        n = self._check_records(keys)
        self._charge(self.engine.clock.cost.sort, label, volume=n)
        order = self._stable_order(keys)
        if self.engine.faults is not None:
            order = self.engine.faults.on_sort_order(order, label)
        if self.engine.paranoid and np.asarray(keys).ndim == 1:
            self._paranoid_sorted(np.asarray(keys)[order], label)
            self._paranoid_stable(keys, order, label)
        return order

    def sort_by(
        self, keys: np.ndarray, *arrays: np.ndarray, label: str = "sort"
    ) -> tuple[np.ndarray, ...]:
        """Sort records by key; returns ``(sorted_keys, *permuted_arrays)``."""
        n = self._check_records(keys, *arrays)
        self._charge(self.engine.clock.cost.sort, label, volume=n)
        order = self._stable_order(keys)
        out = [np.asarray(keys)[order]]
        out.extend(np.asarray(a)[order] for a in arrays)
        if self.engine.faults is not None:
            out[0] = self.engine.faults.on_sort_keys(out[0], label)
        if self.engine.paranoid:
            self._paranoid_sorted(out[0], label)
        return tuple(out)

    def sort_records(self, rs: RecordSet, key: str, label: str = "sort") -> RecordSet:
        """Fused :meth:`sort_by`: sort a whole :class:`RecordSet` by one of
        its fields with a single fancy-index per dtype block."""
        n = self._check_records(*rs.arrays())
        self._charge(self.engine.clock.cost.sort, label, volume=n)
        memo = self.engine.argsort_memo if self.engine.fast_path else None
        before = memo.hits if memo is not None else 0
        order = rs.argsort(key, memo=memo)
        if memo is not None:
            self._note_memo(memo, before)
        sorted_rs = rs.permute(order)
        if self.engine.faults is not None:
            keys_view = np.asarray(sorted_rs.field(key))
            perturbed = self.engine.faults.on_sort_keys(keys_view, label)
            if perturbed is not keys_view:
                sorted_rs.set_field(key, perturbed)
        if self.engine.paranoid:
            self._paranoid_sorted(np.asarray(sorted_rs.field(key)), label)
        return sorted_rs

    def route(
        self,
        dest: np.ndarray,
        *arrays: np.ndarray,
        size: int | None = None,
        fill: float = 0,
        label: str = "route",
    ) -> tuple[np.ndarray, ...]:
        """Partial-permutation routing: record *i* lands at slot ``dest[i]``.

        ``dest[i] == -1`` discards record *i*.  Duplicate destinations are a
        programming error (use :meth:`raw` for combining writes).
        """
        dest = np.asarray(dest, dtype=np.int64)
        n = self._check_records(dest, *arrays)
        out_size = self.size if size is None else size
        if out_size > self.size * self.engine.capacity:
            raise CapacityError(f"route output {out_size} exceeds region capacity")
        live = dest >= 0
        targets = dest[live]
        _check_route_targets(targets, out_size)
        self._charge(self.engine.clock.cost.route, label, volume=n)
        outs: list[np.ndarray] = [
            scatter(np.asarray(a), dest, out_size, fill=fill) for a in arrays
        ]
        if self.engine.faults is not None:
            self.engine.faults.on_route_payload(outs, targets, label)
        if self.engine.paranoid:
            self._paranoid_routed(outs, arrays, targets, live, label)
        return tuple(outs)

    def route_records(
        self,
        dest: np.ndarray,
        rs: RecordSet,
        size: int | None = None,
        fill: float = 0,
        label: str = "route",
    ) -> RecordSet:
        """Fused :meth:`route`: one scatter per dtype block of ``rs``."""
        dest = np.asarray(dest, dtype=np.int64)
        n = self._check_records(dest, *rs.arrays())
        out_size = self.size if size is None else size
        if out_size > self.size * self.engine.capacity:
            raise CapacityError(f"route output {out_size} exceeds region capacity")
        live = dest >= 0
        targets = dest[live]
        _check_route_targets(targets, out_size)
        self._charge(self.engine.clock.cost.route, label, volume=n)
        routed = rs.scatter(dest, out_size, fill=fill)
        if self.engine.faults is not None:
            self.engine.faults.on_route_payload(
                [np.asarray(routed.field(name)) for name in routed.names],
                targets,
                label,
            )
        if self.engine.paranoid:
            self._paranoid_routed(
                [np.asarray(routed.field(name)) for name in routed.names],
                [np.asarray(rs.field(name)) for name in rs.names],
                targets,
                live,
                label,
            )
        return routed

    def rar(
        self,
        addresses: np.ndarray,
        *tables: np.ndarray,
        fill: float = 0,
        label: str = "rar",
    ) -> tuple[np.ndarray, ...]:
        """Random-access read: ``result[i] = table[addresses[i]]``.

        Concurrent reads of the same address are allowed — on a real mesh
        this is the standard O(side) simulation (sort requests by address,
        segmented-copy the data, route back).  ``addresses[i] == -1`` yields
        ``fill``.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = self._check_records(addresses)
        for t in tables:
            self._check_records(np.asarray(t))
        self._charge(self.engine.clock.cost.route, label, volume=n)
        live = addresses >= 0
        outs: list[np.ndarray] = []
        for t in tables:
            t = np.asarray(t)
            if live.any() and int(addresses[live].max()) >= t.shape[0]:
                raise ValueError("rar address out of range")
            outs.append(gather(t, addresses, fill=fill))
        return tuple(outs)

    def rar_records(
        self,
        addresses: np.ndarray,
        table: RecordSet,
        fill: float = 0,
        label: str = "rar",
    ) -> RecordSet:
        """Fused :meth:`rar`: one gather per dtype block of ``table``."""
        addresses = np.asarray(addresses, dtype=np.int64)
        n = self._check_records(addresses)
        self._check_records(*table.arrays())
        self._charge(self.engine.clock.cost.route, label, volume=n)
        live = addresses >= 0
        if live.any() and int(addresses[live].max()) >= table.n:
            raise ValueError("rar address out of range")
        return table.take(addresses, fill=fill)

    def raw(
        self,
        addresses: np.ndarray,
        values: np.ndarray,
        size: int,
        combine: str = "add",
        fill: float = 0,
        label: str = "raw",
    ) -> np.ndarray:
        """Random-access write with combining (``add``/``min``/``max``).

        ``addresses[i] == -1`` suppresses the write of record *i*.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        values = np.asarray(values)
        n = self._check_records(addresses, values)
        if size > self.size * self.engine.capacity:
            raise CapacityError(f"raw output {size} exceeds region capacity")
        if combine not in REDUCERS:
            raise ValueError(f"unknown combine {combine!r}")
        self._charge(self.engine.clock.cost.route, label, volume=n)
        live = addresses >= 0
        if live.any() and int(addresses[live].max()) >= size:
            raise ValueError("raw address out of range")
        if combine == "add":
            idx = addresses[live]
            vals = values[live]
            if (
                self.engine.fast_path
                and vals.ndim == 1
                and vals.dtype.kind in "iu"
                and (
                    vals.size == 0
                    # Python ints: np.abs(INT64_MIN) wraps back negative
                    or max(-int(vals.min()), int(vals.max())) * vals.size < 2**53
                )
            ):
                # add.at is unbuffered and slow; a weighted bincount is
                # the same combining write.  It accumulates in float64,
                # which is exact while |sum| stays below 2**53 — guarded
                # above, so the int cast back is lossless.
                out = np.bincount(idx, weights=vals, minlength=size).astype(values.dtype)
                if fill:
                    out += values.dtype.type(fill)
            else:
                out = np.full(size, fill, dtype=values.dtype)
                np.add.at(out, idx, vals)
        else:
            out = np.full(size, identity(values.dtype, combine), dtype=values.dtype)
            REDUCERS[combine].at(out, addresses[live], values[live])
            if self.engine.fast_path:  # loop-local scratch: pooled, not returned
                written = self.engine.pool.full(size, bool, False)
            else:
                written = np.zeros(size, dtype=bool)
            written[addresses[live]] = True
            out[~written] = fill
        return out

    def scan(
        self,
        values: np.ndarray,
        op: str = "add",
        inclusive: bool = True,
        label: str = "scan",
    ) -> np.ndarray:
        """Prefix combine in processor order (snake-order on a real mesh)."""
        values = np.asarray(values)
        n = self._check_records(values)
        if op not in REDUCERS:
            raise ValueError(f"unknown scan op {op!r}")
        self._charge(self.engine.clock.cost.scan, label, volume=n)
        result = REDUCERS[op].accumulate(values)
        if inclusive:
            return result
        out = np.empty_like(result)
        out[1:] = result[:-1]
        out[:1] = 0 if op == "add" else identity(values.dtype, op)  # [:1]: n may be 0
        return out

    def segmented_scan(
        self,
        values: np.ndarray,
        segments: np.ndarray,
        op: str = "add",
        inclusive: bool = True,
        label: str = "segscan",
    ) -> np.ndarray:
        """Prefix combine restarting at every segment boundary.

        ``segments`` holds a segment id per record; a boundary is any
        position whose id differs from its predecessor (ids need not be
        sorted, only grouped).  Same mesh cost as a plain scan — the
        standard segmented-scan simulation carries the segment id with
        the running value.
        """
        values = np.asarray(values)
        segments = np.asarray(segments)
        vol = self._check_records(values, segments)
        if op not in REDUCERS:
            raise ValueError(f"unknown segmented_scan op {op!r}")
        self._charge(self.engine.clock.cost.scan, label, volume=vol)
        return segmented_scan(values, segments, op, inclusive)

    def reduce(self, values: np.ndarray, op: str = "add", label: str = "reduce"):
        """Global reduction; the scalar result is visible to all processors."""
        values = np.asarray(values)
        n = self._check_records(values)
        if op not in REDUCERS:
            raise ValueError(f"unknown reduce op {op!r}")
        self._charge(self.engine.clock.cost.scan, label, volume=n)
        if values.size == 0:
            if op == "add":
                return values.dtype.type(0)
            raise ValueError("min/max reduce of empty array")
        if op == "add":
            return values.sum()
        return values.min() if op == "min" else values.max()

    def broadcast(self, value, label: str = "broadcast"):
        """Deliver one word to every processor of the region."""
        self._charge(self.engine.clock.cost.broadcast, label, volume=1)
        return value

    def compress(
        self, mask: np.ndarray, *arrays: np.ndarray, label: str = "compress"
    ) -> tuple:
        """Pack the records selected by ``mask`` into a prefix.

        Returns ``(count, *packed_arrays)``; packed arrays have length
        ``count``.  (Scan + route on a real mesh.)
        """
        mask = np.asarray(mask, dtype=bool)
        n = self._check_records(mask, *arrays)
        self._charge(self.engine.clock.cost.compress, label, volume=n)
        count = int(mask.sum())
        return (count, *(np.asarray(a)[mask] for a in arrays))

    def compress_records(
        self, mask: np.ndarray, rs: RecordSet, label: str = "compress"
    ) -> tuple[int, RecordSet]:
        """Fused :meth:`compress`: one masked pack per dtype block."""
        mask = np.asarray(mask, dtype=bool)
        n = self._check_records(mask, *rs.arrays())
        self._charge(self.engine.clock.cost.compress, label, volume=n)
        packed = rs.select(mask)
        return packed.n, packed
