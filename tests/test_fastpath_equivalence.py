"""Property-based fast-path equivalence suite.

The engine's ``fast_path`` flag may change *how* the host executes the
simulation (fused blocks, memoized argsorts, pooled buffers, bincount
combining) but never *what* it computes or charges.  Every test here runs
the same workload under ``fast_path=True`` and ``fast_path=False`` and
asserts byte-identical outputs and identical step-clock charges — for each
counted primitive, for the fused ``*_records`` variants against their
per-field originals, and end-to-end for the E1/E2 algorithms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constrained import constrained_multisearch
from repro.core.hierdag import hierdag_multisearch
from repro.core.model import QuerySet
from repro.core.splitters import splitting_from_labels
from repro.graphs.adapters import hierdag_search_structure, ktree_directed_structure
from repro.graphs.hierarchical import build_mu_ary_search_dag
from repro.graphs.ktree import build_balanced_search_tree
from repro.mesh.engine import MeshEngine
from repro.mesh.records import RecordSet

# long property suite: excluded from tier-1, run nightly (`pytest -m slow`);
# the fast path stays covered in tier-1 by the bench and engine unit tests
pytestmark = pytest.mark.slow


@st.composite
def grid_and_values(draw, max_side=8, lo=-100, hi=100):
    # same shape as tests/test_props_mesh.py: a mesh side plus one int per
    # processor
    side = draw(st.integers(2, max_side))
    n = side * side
    vals = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    return side, np.array(vals, dtype=np.int64)


def both_engines(side):
    return MeshEngine(side, fast_path=True), MeshEngine(side, fast_path=False)


def assert_same(fast, slow):
    """Byte-identical arrays (dtype included); scalars compare directly."""
    if isinstance(fast, np.ndarray) or isinstance(slow, np.ndarray):
        fast, slow = np.asarray(fast), np.asarray(slow)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        np.testing.assert_array_equal(fast, slow)
    else:
        assert fast == slow


def run_both(side, op):
    """``op(region)`` under each mode; returns outputs, asserting equal cost."""
    eng_f, eng_s = both_engines(side)
    out_f, out_s = op(eng_f.root), op(eng_s.root)
    assert eng_f.clock.time == eng_s.clock.time
    return out_f, out_s


class TestPrimitiveEquivalence:
    @given(grid_and_values())
    @settings(max_examples=25, deadline=None)
    def test_sort_by(self, case):
        side, vals = case
        tag = np.arange(vals.size, dtype=np.int64)
        fast, slow = run_both(side, lambda r: r.sort_by(vals, tag, vals * 0.5))
        for f, s in zip(fast, slow):
            assert_same(f, s)

    @given(grid_and_values(), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_route(self, case, seed):
        side, vals = case
        n = vals.size
        dest = np.random.default_rng(seed).permutation(n)
        dest[vals % 3 == 0] = -1  # discards exercise the fill path
        fast, slow = run_both(side, lambda r: r.route(dest, vals, vals * 1.0, fill=0))
        for f, s in zip(fast, slow):
            assert_same(f, s)

    @given(grid_and_values())
    @settings(max_examples=25, deadline=None)
    def test_rar(self, case):
        side, vals = case
        n = vals.size
        addr = np.abs(vals) % n
        addr[vals < 0] = -1
        fast, slow = run_both(side, lambda r: r.rar(addr, vals, vals * 2.0))
        for f, s in zip(fast, slow):
            assert_same(f, s)

    @given(grid_and_values(), st.sampled_from(["add", "min", "max"]))
    @settings(max_examples=40, deadline=None)
    def test_raw_combining(self, case, combine):
        side, vals = case
        n = vals.size
        addr = np.abs(vals) % n
        addr[::7] = -1
        fast, slow = run_both(
            side, lambda r: r.raw(addr, vals, size=n, combine=combine, fill=0)
        )
        assert_same(fast, slow)

    @given(grid_and_values())
    @settings(max_examples=25, deadline=None)
    def test_raw_add_with_fill_and_floats(self, case):
        side, vals = case
        n = vals.size
        addr = np.abs(vals) % n
        # float values take the np.add.at branch in both modes
        fast, slow = run_both(
            side, lambda r: r.raw(addr, vals * 0.5, size=n, combine="add", fill=3)
        )
        assert_same(fast, slow)
        fast, slow = run_both(
            side, lambda r: r.raw(addr, vals, size=n, combine="add", fill=3)
        )
        assert_same(fast, slow)

    @given(grid_and_values())
    @settings(max_examples=25, deadline=None)
    def test_compress(self, case):
        side, vals = case
        fast, slow = run_both(side, lambda r: r.compress(vals > 0, vals))
        assert_same(fast[0], slow[0])
        assert_same(fast[1], slow[1])

    @given(
        grid_and_values(),
        st.sampled_from(["add", "min", "max"]),
        st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_segmented_scan_matches_loop_reference(self, case, op, inclusive):
        side, vals = case
        segs = np.abs(vals) % 4  # grouped-enough: boundaries at id changes
        fast, slow = run_both(
            side,
            lambda r: r.segmented_scan(vals, segs, op=op, inclusive=inclusive)
        )
        assert_same(fast, slow)
        # the vectorized implementation against a per-segment python loop
        ufunc = {"add": np.add, "min": np.minimum, "max": np.maximum}[op]
        want = np.empty_like(vals)
        start = 0
        for i in range(1, vals.size + 1):
            if i == vals.size or segs[i] != segs[i - 1]:
                chunk = ufunc.accumulate(vals[start:i])
                if not inclusive:
                    ident = {
                        "add": 0,
                        "min": np.iinfo(vals.dtype).max,
                        "max": np.iinfo(vals.dtype).min,
                    }[op]
                    chunk = np.concatenate([[ident], chunk[:-1]])
                want[start:i] = chunk
                start = i
        assert_same(fast, want)


class TestFusedRecordEquivalence:
    """``*_records`` fused calls against their per-field counterparts."""

    def cases(self, vals):
        n = vals.size
        rs = RecordSet(
            key=vals.copy(),
            tag=np.arange(n, dtype=np.int64),
            w=vals * 0.25,
            pack=True,
        )
        return n, rs

    @given(grid_and_values())
    @settings(max_examples=25, deadline=None)
    def test_sort_records(self, case):
        side, vals = case
        n, rs = self.cases(vals)
        eng_f, eng_s = both_engines(side)
        fused = eng_f.root.sort_records(rs, "key")
        plain = eng_s.root.sort_by(vals, *rs.arrays())[1:]
        assert eng_f.clock.time == eng_s.clock.time
        for name, want in zip(rs.names, plain):
            assert_same(fused.field(name), want)

    @given(grid_and_values(), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_route_records(self, case, seed):
        side, vals = case
        n, rs = self.cases(vals)
        dest = np.random.default_rng(seed).permutation(n)
        dest[vals % 3 == 0] = -1
        eng_f, eng_s = both_engines(side)
        fused = eng_f.root.route_records(dest, rs, fill=0)
        plain = eng_s.root.route(dest, *rs.arrays(), fill=0)
        assert eng_f.clock.time == eng_s.clock.time
        for name, want in zip(rs.names, plain):
            assert_same(fused.field(name), want)

    @given(grid_and_values())
    @settings(max_examples=25, deadline=None)
    def test_rar_records(self, case):
        side, vals = case
        n, rs = self.cases(vals)
        addr = np.abs(vals) % n
        addr[vals < 0] = -1
        eng_f, eng_s = both_engines(side)
        fused = eng_f.root.rar_records(addr, rs, fill=0)
        plain = eng_s.root.rar(addr, *rs.arrays(), fill=0)
        assert eng_f.clock.time == eng_s.clock.time
        for name, want in zip(rs.names, plain):
            assert_same(fused.field(name), want)

    @given(grid_and_values())
    @settings(max_examples=25, deadline=None)
    def test_compress_records(self, case):
        side, vals = case
        n, rs = self.cases(vals)
        mask = vals > 0
        eng_f, eng_s = both_engines(side)
        count, fused = eng_f.root.compress_records(mask, rs)
        plain = eng_s.root.compress(mask, *rs.arrays())
        assert eng_f.clock.time == eng_s.clock.time
        assert count == plain[0]
        for name, want in zip(rs.names, plain[1:]):
            assert_same(fused.field(name), want)


def assert_query_sets_equal(a: QuerySet, b: QuerySet):
    assert_same(a.current, b.current)
    assert_same(a.steps, b.steps)
    assert_same(a.state, b.state)


class TestAlgorithmEquivalence:
    """E1/E2 end-to-end: identical answers AND identical step charges."""

    @given(st.integers(4, 7), st.integers(0, 2**31), st.integers(16, 96))
    @settings(max_examples=10, deadline=None)
    def test_e1_hierdag(self, height, seed, m):
        dag, leaf_keys = build_mu_ary_search_dag(2, height, seed=1)
        structure = hierdag_search_structure(dag)
        keys = np.random.default_rng(seed).uniform(
            leaf_keys[0], leaf_keys[-1], m
        )
        # Two fast runs on the same structure: the first takes the cold
        # (per-field) path, the second the warm fused path.  Both must
        # match the slow engine exactly.
        results = []
        for fast in (True, True, False):
            eng = MeshEngine.for_problem(max(int(dag.size), m), fast_path=fast)
            qs = QuerySet.start(keys, 0)
            res = hierdag_multisearch(eng, structure, qs, mu=2.0, c=2)
            results.append((qs, res.mesh_steps, eng.clock.time))
        slow = results[-1]
        for fast_run in results[:-1]:
            assert_query_sets_equal(fast_run[0], slow[0])
            assert fast_run[1] == slow[1]
            assert fast_run[2] == slow[2]

    @given(
        st.integers(4, 7),
        st.integers(0, 2**31),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=10, deadline=None)
    def test_e2_constrained(self, height, seed, skew):
        tree = build_balanced_search_tree(2, height, seed=1)
        structure = ktree_directed_structure(tree)
        splitting = splitting_from_labels(
            tree.alpha_splitter().comp, tree.children, 0.5
        )
        rng = np.random.default_rng(seed)
        m = 64
        keys = rng.uniform(tree.leaf_keys[0], tree.leaf_keys[-1], m)
        cut = max(1, (tree.height + 1) // 2)
        roots = np.flatnonzero(tree.depth == cut)
        starts = np.zeros(m, dtype=np.int64)
        spread = rng.random(m) >= skew
        starts[spread] = roots[rng.integers(0, roots.size, m)][spread]
        keys[spread] = tree.subtree_lo[starts[spread]] + 1e-9
        # As in E1: cold fast run, warm (fused) fast run, then slow.
        results = []
        for fast in (True, True, False):
            eng = MeshEngine.for_problem(max(int(tree.size), m), fast_path=fast)
            qs = QuerySet.start(keys, starts.copy())
            stats = constrained_multisearch(eng, structure, qs, splitting)
            results.append((qs, stats, eng.clock.time))
        slow = results[-1]
        for fast_run in results[:-1]:
            assert_query_sets_equal(fast_run[0], slow[0])
            assert fast_run[2] == slow[2]
            assert fast_run[1].copies_created == slow[1].copies_created
            assert (
                fast_run[1].max_queries_per_copy
                == slow[1].max_queries_per_copy
            )
