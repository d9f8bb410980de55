"""Host-kernel conformance against an array-API reference.

The host kernels under the engine primitives and the fused
:class:`~repro.mesh.records.RecordSet` methods are numpy; their contract
is *byte identity* with the reference behaviour, because every committed
step count and answer rests on it.  This suite drives each kernel through
both of its call sites — the per-array :class:`~repro.mesh.engine.Region`
primitive and the per-dtype-block ``RecordSet`` method — over an
adversarial input battery: empty arrays, tied keys (including ``-0.0``
vs ``0.0`` and all-equal runs), float infinities, int64 values that wrap
the accumulator, max-capacity batches, and every dtype/block shape
``RecordSet`` produces (1-D and 2-D int64, float64, bool).  It compares
dtype, shape and raw bits.

The reference is written only in array-API-standard calls on the
namespace the input advertises (``xp.argsort(stable=True)``,
``xp.take``, ``xp.where``, ``xp.nonzero``, ``xp.cumulative_sum``,
``xp.sum``/``xp.min``/``xp.max``), with per-record loops where the
standard has no primitive (scatter, combining writes, min/max scans).
It is the ``array_api`` parameter in every test id.
"""

import zlib

import numpy as np
import pytest

from repro.mesh.engine import MeshEngine
from repro.mesh.records import RecordSet

#: side of the largest battery case: a full 16-records-per-processor
#: batch on an 8x8 mesh, the engine's max-capacity shape
MAX_CAPACITY = 16 * 8 * 8


def assert_bits(got, want, context=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, f"{context}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{context}: shape {got.shape} != {want.shape}"
    assert got.tobytes() == want.tobytes(), f"{context}: bit patterns differ"


class ArrayApiReference:
    """Each kernel's contract, spelled in array-API-standard calls."""

    @staticmethod
    def stable_argsort(keys):
        xp = keys.__array_namespace__()
        return xp.argsort(keys, stable=True)

    @staticmethod
    def take_live(table, idx):
        xp = table.__array_namespace__()
        return xp.take(table, idx, axis=0)

    @staticmethod
    def take(table, idx, fill=0):
        xp = table.__array_namespace__()
        live = idx >= 0
        gathered = xp.take(table, xp.where(live, idx, xp.zeros_like(idx)), axis=0)
        shape = (idx.shape[0],) + (1,) * (table.ndim - 1)
        return xp.where(
            xp.reshape(live, shape), gathered, xp.full((), fill, dtype=table.dtype)
        )

    @staticmethod
    def scatter(values, dest, size, fill=0):
        xp = values.__array_namespace__()
        out = xp.full((size,) + values.shape[1:], fill, dtype=values.dtype)
        for i in range(values.shape[0]):
            if int(dest[i]) >= 0:
                out[int(dest[i]), ...] = values[i, ...]
        return out

    @staticmethod
    def compress(mask, values):
        xp = values.__array_namespace__()
        return xp.take(values, xp.nonzero(mask)[0], axis=0)

    @staticmethod
    def identity(dtype, op):
        if dtype.kind == "f":
            return np.inf if op == "min" else -np.inf
        return np.iinfo(dtype).max if op == "min" else np.iinfo(dtype).min

    @classmethod
    def combine(cls, addresses, values, size, op, fill):
        """Combining write in record order; adds start from ``fill`` and
        int adds wrap mod 2**64; for min/max the latest of equal values
        wins (visible on bit-distinct ``-0.0``/``0.0``) and untouched
        slots hold ``fill``."""
        xp = values.__array_namespace__()
        start = fill if op == "add" else cls.identity(values.dtype, op)
        out = xp.full(size, start, dtype=values.dtype)
        written = xp.zeros(size, dtype=xp.bool)
        for i in range(values.shape[0]):
            a = int(addresses[i])
            if a < 0:
                continue
            if op == "add":
                out[a : a + 1] += values[i : i + 1]  # array add: wraps silently
            elif (values[i] <= out[a]) if op == "min" else (values[i] >= out[a]):
                out[a] = values[i]
            written[a] = True
        if op == "add":
            return out
        return xp.where(written, out, xp.full((), fill, dtype=values.dtype))

    @classmethod
    def scan(cls, values, op, inclusive):
        """Plain prefix combine; ties among equal values take the latest."""
        xp = values.__array_namespace__()
        if op == "add":
            inc = xp.cumulative_sum(values)
        else:
            inc = xp.empty_like(values)
            for i in range(values.shape[0]):
                v = values[i]
                if i and not ((v <= inc[i - 1]) if op == "min" else (v >= inc[i - 1])):
                    v = inc[i - 1]
                inc[i] = v
        if inclusive:
            return inc
        first = 0 if op == "add" else cls.identity(values.dtype, op)
        return xp.concat([xp.full(min(1, values.shape[0]), first, dtype=values.dtype), inc[:-1]])

    @classmethod
    def segmented_scan(cls, values, segments, op, inclusive):
        """``add`` is the global running sum minus its value just before
        the segment start (not a per-segment restart: the float rounding
        differs); ``max`` keeps the latest of equal values and ``min`` the
        earliest; exclusive scans put the op's identity (0 for add) at
        every segment start."""
        xp = values.__array_namespace__()
        n = values.shape[0]
        starts = [i for i in range(n) if i == 0 or segments[i] != segments[i - 1]]
        if op == "add":
            running = xp.cumulative_sum(values)
            offsets = xp.zeros_like(values)
            for s, e in zip(starts, starts[1:] + [n]):
                if s:
                    offsets[s:e] = running[s - 1]
            result = running - offsets
            return result if inclusive else result - values
        out = xp.empty_like(values)
        best = None
        for i in range(n):
            if i in starts:
                best = None
            if not inclusive:
                out[i] = cls.identity(values.dtype, op) if best is None else best
            v = values[i]
            if best is None or ((v >= best) if op == "max" else (v < best)):
                best = v
            if inclusive:
                out[i] = best
        return out

    @staticmethod
    def reduce(values, op):
        xp = values.__array_namespace__()
        return {"add": xp.sum, "min": xp.min, "max": xp.max}[op](values)


def _value_battery():
    """(tag, values) cases covering every dtype/shape the engine produces."""
    rng = np.random.default_rng(20260808)
    big = rng.integers(-(2**62), 2**62, MAX_CAPACITY)
    cases = [
        ("empty-i64", np.empty(0, dtype=np.int64)),
        ("empty-f64", np.empty(0, dtype=np.float64)),
        ("empty-bool", np.empty(0, dtype=bool)),
        ("empty-2d", np.empty((0, 3), dtype=np.int64)),
        ("one", np.array([7], dtype=np.int64)),
        ("one-negzero", np.array([-0.0])),
        ("ties-i64", np.array([3, 3, 3, 1, 1, 2, 2, 2, 2], dtype=np.int64)),
        ("ties-zeros", np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0])),
        ("all-equal", np.full(64, 5.5)),
        ("specials", np.array([np.inf, -np.inf, 1.0, -0.0, 0.0, -np.inf, np.inf])),
        ("wraparound", np.array([2**62, 2**62, 2**62, -(2**62), 2**62], dtype=np.int64)),
        ("bool", rng.random(33) < 0.5),
        ("rand-f64", rng.standard_normal(257)),
        ("rand-i64", rng.integers(-1000, 1000, 128)),
        ("block-i64", rng.integers(-50, 50, (41, 3))),
        ("block-f64", rng.standard_normal((41, 4))),
        ("max-capacity", big),
        ("max-capacity-f64", rng.standard_normal(MAX_CAPACITY)),
    ]
    return cases


BATTERY = _value_battery()


def _cases(accept=lambda values: True):
    return pytest.mark.parametrize(
        "tag,values",
        [(tag, v) for tag, v in BATTERY if accept(v)],
        ids=[tag for tag, v in BATTERY if accept(v)],
    )


#: sort keys are 1-D
KEYS = _cases(lambda v: v.ndim == 1)
#: combining writes and scans take 1-D numeric values
NUMERIC = _cases(lambda v: v.ndim == 1 and v.dtype != bool)
ALL = _cases()


def _rng_for(tag):
    return np.random.default_rng(zlib.crc32(tag.encode()))


def _engines():
    return [MeshEngine(8, fast_path=fast) for fast in (True, False)]


# one reference today; the parameter keeps it named in every test id
@pytest.fixture(params=[ArrayApiReference], ids=["array_api"])
def reference(request):
    return request.param


class TestKernelConformance:
    @KEYS
    def test_stable_argsort(self, reference, tag, values):
        want = reference.stable_argsort(values)
        for eng in _engines():
            assert_bits(eng.root.argsort(values), want, f"argsort[{tag}]")
            rs = RecordSet(key=values)
            assert_bits(rs.argsort("key"), want, f"RecordSet.argsort[{tag}]")
            (sorted_keys,) = eng.root.sort_records(rs, "key").arrays()
            assert_bits(sorted_keys, values[want], f"sort_records[{tag}]")
        # stability, asserted directly: among tied keys, input order survives
        if values.size:
            sorted_keys = values[want]
            tied = sorted_keys[1:] == sorted_keys[:-1]
            assert not (tied & (want[1:] < want[:-1])).any(), (
                f"argsort[{tag}] scrambles tied keys"
            )

    @ALL
    def test_take_and_take_live(self, reference, tag, values):
        n = values.shape[0]
        rng = _rng_for(tag)
        idx = rng.integers(0, max(n, 1), n).astype(np.int64)
        idx[rng.random(n) < 0.25] = -1
        if n:
            idx[0] = -1  # at least one fill slot
        want = reference.take(values, idx, fill=0)
        (got,) = MeshEngine(8).root.rar(idx, values)
        assert_bits(got, want, f"rar[{tag}]")
        (got,) = RecordSet(v=values).take(idx).arrays()
        assert_bits(got, want, f"RecordSet.take[{tag}]")
        live = rng.permutation(n).astype(np.int64)
        want = reference.take_live(values, live)
        (got,) = RecordSet(v=values).take_live(live).arrays()
        assert_bits(got, want, f"RecordSet.take_live[{tag}]")
        (got,) = RecordSet(v=values).permute(live).arrays()
        assert_bits(got, want, f"RecordSet.permute[{tag}]")

    @ALL
    def test_scatter(self, reference, tag, values):
        n = values.shape[0]
        size = max(n, 1)
        rng = _rng_for(tag)
        dest = rng.permutation(size)[:n].astype(np.int64)
        dest[rng.random(n) < 0.25] = -1
        want = reference.scatter(values, dest, size, fill=0)
        eng = MeshEngine(8)
        (got,) = eng.root.route(dest, values, size=size)
        assert_bits(got, want, f"route[{tag}]")
        (got,) = eng.root.route_records(dest, RecordSet(v=values), size=size).arrays()
        assert_bits(got, want, f"route_records[{tag}]")

    @ALL
    def test_compress(self, reference, tag, values):
        n = values.shape[0]
        eng = MeshEngine(8)
        for mask in (
            _rng_for(tag).random(n) < 0.5,
            np.ones(n, dtype=bool),
            np.zeros(n, dtype=bool),
        ):
            want = reference.compress(mask, values)
            count, got = eng.root.compress(mask, values)
            assert count == want.shape[0]
            assert_bits(got, want, f"compress[{tag}]")
            count, packed = eng.root.compress_records(mask, RecordSet(v=values))
            assert count == want.shape[0]
            assert_bits(packed.field("v"), want, f"compress_records[{tag}]")

    @NUMERIC
    def test_combining_writes(self, reference, tag, values):
        n = values.shape[0]
        size = max(n // 2, 1)
        rng = _rng_for(tag)
        addresses = rng.integers(0, size, n).astype(np.int64)
        addresses[rng.random(n) < 0.25] = -1
        for op, fill in (("add", 0), ("add", 3), ("min", -1), ("max", -1)):
            want = reference.combine(addresses, values, size, op, fill)
            for eng in _engines():
                got = eng.root.raw(addresses, values, size=size, combine=op, fill=fill)
                assert_bits(got, want, f"raw[{op},fast={eng.fast_path}][{tag}]")

    @NUMERIC
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_scans_and_reduce(self, reference, tag, values):
        # (the specials case sums inf and -inf on purpose: NaN bits compare too)
        n = values.shape[0]
        segments = np.sort(_rng_for(tag).integers(0, max(n // 4, 1), n))
        root = MeshEngine(8).root
        for op in ("add", "min", "max"):
            for inclusive in (True, False):
                assert_bits(
                    root.scan(values, op=op, inclusive=inclusive),
                    reference.scan(values, op, inclusive),
                    f"scan[{op},{inclusive}][{tag}]",
                )
                assert_bits(
                    root.segmented_scan(values, segments, op=op, inclusive=inclusive),
                    reference.segmented_scan(values, segments, op, inclusive),
                    f"segscan[{op},{inclusive}][{tag}]",
                )
            if n:
                assert_bits(
                    root.reduce(values, op), reference.reduce(values, op), f"reduce[{op}][{tag}]"
                )
            elif op == "add":
                assert_bits(root.reduce(values, op), values.dtype.type(0), f"reduce[{tag}]")
            else:
                with pytest.raises(ValueError):
                    root.reduce(values, op)
