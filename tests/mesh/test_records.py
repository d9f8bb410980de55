"""Unit tests for the fused record containers (repro.mesh.records)."""

import numpy as np
import pytest

from repro.mesh.engine import MeshEngine
from repro.mesh.records import (
    ArgsortMemo,
    BufferPool,
    RecordSet,
    fused_view,
    should_fuse,
)


def make_rs(n=8, pack=False, seed=0):
    rng = np.random.default_rng(seed)
    return RecordSet(
        ident=np.arange(n, dtype=np.int64),
        level=rng.integers(0, 5, n).astype(np.int64),
        weight=rng.normal(size=n),
        adj=rng.integers(-1, n, (n, 3)).astype(np.int64),
        pack=pack,
    )


PACK = pytest.mark.parametrize("pack", [False, True])


class TestRecordSet:
    @PACK
    def test_fields_round_trip(self, pack):
        rs = make_rs(pack=pack)
        ref = make_rs(pack=False)
        assert rs.names == ["ident", "level", "weight", "adj"]
        for name in rs.names:
            got, want = rs.field(name), ref.field(name)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(rs[name], want)
        assert "weight" in rs and "missing" not in rs

    def test_field_is_view(self):
        rs = make_rs()
        rs.field("level")[0] = 99
        assert rs.field("level")[0] == 99

    def test_packed_single_block(self):
        # pack=True fuses int64 and float64 fields into one int64 block
        rs = make_rs(pack=True)
        assert rs.dtypes == [np.dtype(np.int64)]
        assert rs.block(np.int64).shape == (8, 6)
        assert make_rs(pack=False).block(np.float64).shape == (8, 1)

    def test_packed_float_bits_exact(self):
        # bit-cast round trip must preserve every float payload exactly
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.5])
        rs = RecordSet(w=specials, tag=np.arange(7, dtype=np.int64), pack=True)
        got = rs.field("w")
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got.view(np.int64), specials.view(np.int64)
        )

    @PACK
    def test_span_reconstructs_fields(self, pack):
        rs = make_rs(pack=pack)
        for name in rs.names:
            blk, c, width, vdt = rs.span(name)
            col = blk[:, c] if rs.field(name).ndim == 1 else blk[:, c : c + width]
            np.testing.assert_array_equal(col.view(vdt), rs.field(name))

    def test_needs_a_field_and_equal_lengths(self):
        with pytest.raises(ValueError):
            RecordSet()
        with pytest.raises(ValueError):
            RecordSet(a=np.arange(3), b=np.arange(4))
        with pytest.raises(ValueError):
            RecordSet(a=np.zeros((2, 2, 2)))

    @PACK
    def test_permute_select_match_per_field(self, pack):
        rs = make_rs(pack=pack)
        order = np.array([3, 1, 4, 1, 5, 0, 2, 6])
        mask = np.array([1, 0, 1, 1, 0, 0, 1, 1], dtype=bool)
        perm, sel = rs.permute(order), rs.select(mask)
        for name in rs.names:
            np.testing.assert_array_equal(perm.field(name), rs.field(name)[order])
            np.testing.assert_array_equal(sel.field(name), rs.field(name)[mask])
        assert perm.n == 8 and sel.n == int(mask.sum())

    @PACK
    def test_take_with_dead_slots(self, pack):
        rs = make_rs(pack=pack)
        idx = np.array([2, -1, 0, 7, -1])
        got = rs.take(idx, fill=0)
        live = idx >= 0
        for name in rs.names:
            src = rs.field(name)
            np.testing.assert_array_equal(got.field(name)[live], src[idx[live]])
            assert not got.field(name)[~live].any()

    def test_take_nonzero_fill_unpacked_only(self):
        rs = make_rs(pack=False)
        got = rs.take(np.array([1, -1]), fill=7)
        assert got.field("level")[1] == 7 and got.field("weight")[1] == 7.0
        with pytest.raises(ValueError):
            make_rs(pack=True).take(np.array([1, -1]), fill=7)

    @PACK
    def test_take_live_matches_take(self, pack):
        rs = make_rs(pack=pack)
        idx = np.array([5, 5, 0, 3])
        a, b = rs.take(idx), rs.take_live(idx)
        for name in rs.names:
            np.testing.assert_array_equal(a.field(name), b.field(name))

    @PACK
    def test_scatter_matches_per_field(self, pack):
        rs = make_rs(pack=pack)
        dest = np.array([4, -1, 0, 9, 2, -1, 7, 1])
        got = rs.scatter(dest, size=10, fill=0)
        live = dest >= 0
        for name in rs.names:
            src = rs.field(name)
            want = np.zeros((10,) + src.shape[1:], dtype=src.dtype)
            want[dest[live]] = src[live]
            np.testing.assert_array_equal(got.field(name), want)
        with pytest.raises(ValueError):
            make_rs(pack=True).scatter(dest, size=10, fill=3)

    def test_set_field_bumps_version(self):
        rs = make_rs()
        v0 = rs.version
        rs.set_field("level", np.zeros(8, dtype=np.int64))
        assert rs.version == v0 + 1
        assert not rs.field("level").any()
        rs.touch()
        assert rs.version == v0 + 2

    def test_argsort_memo_invalidated_by_version(self):
        rs = make_rs()
        memo = ArgsortMemo()
        o1 = rs.argsort("level", memo=memo)
        o2 = rs.argsort("level", memo=memo)
        assert o1 is o2 and memo.hits == 1
        rs.set_field("level", rs.field("level")[::-1].copy())
        o3 = rs.argsort("level", memo=memo)
        np.testing.assert_array_equal(
            o3, np.argsort(rs.field("level"), kind="stable")
        )


#: stable argsort must keep input order among tied keys, including the
#: bit-distinct ``-0.0``/``0.0`` tie, infinities and a max-capacity batch
TIED_KEYS = [
    ("empty", np.empty(0, dtype=np.float64)),
    ("ties-i64", np.array([3, 3, 3, 1, 1, 2, 2, 2, 2], dtype=np.int64)),
    ("ties-zeros", np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0])),
    ("all-equal", np.full(64, 5.5)),
    ("specials", np.array([np.inf, -np.inf, 1.0, -0.0, 0.0, -np.inf, np.inf])),
    (
        "max-capacity",
        np.random.default_rng(20260808).integers(0, 50, 16 * 8 * 8),
    ),
]


@pytest.mark.parametrize("tag,keys", TIED_KEYS, ids=[t for t, _ in TIED_KEYS])
@pytest.mark.parametrize("fast_path", [True, False])
def test_argsort_keeps_input_order_among_ties(tag, keys, fast_path):
    eng = MeshEngine(8, fast_path=fast_path)
    orders = [
        eng.root.argsort(keys),
        eng.root.sort_records(RecordSet(key=keys, tag=np.arange(keys.size)), "key")
        .field("tag"),
    ]
    for order in orders:
        assert sorted(order.tolist()) == list(range(keys.size))
        sk = keys[order]
        assert (sk[1:] >= sk[:-1]).all()
        tied = sk[1:] == sk[:-1]
        assert not (tied & (order[1:] < order[:-1])).any()


class TestArgsortMemo:
    def test_hit_on_same_array(self):
        memo = ArgsortMemo()
        keys = np.array([3, 1, 2])
        o1 = memo.order_for(keys)
        o2 = memo.order_for(keys)
        assert o1 is o2 and memo.hits == 1 and memo.misses == 1
        assert not o1.flags.writeable

    def test_inplace_mutation_never_replays_stale_order(self):
        memo = ArgsortMemo()
        keys = np.array([3, 1, 2])
        memo.order_for(keys)
        keys[0] = 0  # same identity, new contents
        np.testing.assert_array_equal(
            memo.order_for(keys), np.argsort(keys, kind="stable")
        )

    def test_lru_eviction(self):
        memo = ArgsortMemo(capacity=2)
        arrays = [np.array([i, 0]) for i in range(3)]
        for a in arrays:
            memo.order_for(a)
        assert len(memo._slots) == 2
        memo.clear()
        assert len(memo._slots) == 0


class TestBufferPool:
    def test_reuses_and_refills(self):
        pool = BufferPool()
        a = pool.full(4, np.int64, fill=1)
        a[:] = 99
        b = pool.full(4, np.int64, fill=1)
        assert b is a and (b == 1).all()
        assert pool.full(4, np.float64) is not a  # dtype keyed separately
        assert pool.empty((4,), np.int64) is a

    def test_persistent_copies(self):
        pool = BufferPool()
        a = pool.full(3, np.int64, fill=2)
        safe = BufferPool.persistent(a)
        a[:] = 0
        assert (safe == 2).all()
        pool.clear()
        assert pool.full(3, np.int64) is not a


class _Struct:
    def __init__(self, n=6, d=2, p=2):
        rng = np.random.default_rng(1)
        self.adjacency = rng.integers(0, n, (n, d)).astype(np.int64)
        self.level = rng.integers(0, 3, n).astype(np.int64)
        self.payload = rng.normal(size=(n, p))


class TestFusedView:
    def test_packs_and_caches(self):
        st = _Struct()
        fv = fused_view(st)
        assert fused_view(st) is fv
        np.testing.assert_array_equal(fv["adjacency"], st.adjacency)
        np.testing.assert_array_equal(fv["level"], st.level)
        np.testing.assert_array_equal(fv["payload"], st.payload)
        assert fv.dtypes == [np.dtype(np.int64)]  # packed into one block

    def test_rebuilt_when_arrays_replaced(self):
        st = _Struct()
        fv = fused_view(st)
        st.level = st.level + 1  # new array identity invalidates the cache
        fv2 = fused_view(st)
        assert fv2 is not fv
        np.testing.assert_array_equal(fv2["level"], st.level)

    def test_should_fuse_only_from_second_sighting(self):
        st = _Struct()
        assert not should_fuse(st)  # first sighting: one-shot stays cheap
        assert should_fuse(st)  # second use amortizes the packing cost
        fused = _Struct()
        fused_view(fused)
        assert should_fuse(fused)  # already packed: always worth using
        frozen = object()  # unmarkable: stays on the per-field path
        assert not should_fuse(frozen)
        assert not should_fuse(frozen)
