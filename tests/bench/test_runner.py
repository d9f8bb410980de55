"""Unit tests for the parallel benchmark runner (repro.bench.runner)."""

import json

import numpy as np
import pytest

from repro.bench import runner
from repro.bench.runner import (
    BENCH_DIR,
    REGISTRY,
    _extract_steps,
    _peak_rss_kib,
    _pts,
    compare,
    main,
    provenance,
    run_point,
)


class TestRegistry:
    def test_every_bench_module_is_registered(self):
        # every benchmarks/bench_*.py is driven by the runner, except the
        # figure-generation script (plots, not measurements) and the
        # supervision bench (its qps-vs-kill-rate points don't fit the
        # runner's per-point record schema; it ships its own CLI + gates)
        on_disk = {p.stem for p in BENCH_DIR.glob("bench_*.py")}
        registered = {spec.module for spec in REGISTRY.values()}
        assert on_disk - registered == {"bench_figures", "bench_e14_supervision"}
        assert registered <= on_disk

    def test_points_ascend(self):
        for name, spec in REGISTRY.items():
            assert spec.points, name
            keys = list(spec.points[0])
            seq = [[p[k] for k in keys] for p in spec.points]
            assert seq == sorted(seq), name

    def test_pts_cartesian(self):
        pts = _pts(a=[1, 2], b=["x", "y"])
        assert len(pts) == 4
        assert pts[0] == {"a": 1, "b": "x"}
        assert pts[-1] == {"a": 2, "b": "y"}
        assert _pts({"fixed": 3}, a=[1])[0] == {"fixed": 3, "a": 1}

    def test_pts_order_pinned(self):
        # documented contract: lexicographic by sweep keys in declaration
        # order (first key slowest, last fastest), values ascending even
        # when listed descending — points[0] is the smallest point
        pts = _pts(a=[2, 1], b=["y", "x"])
        assert pts == (
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        )


class TestPeakRssKib:
    def test_linux_passthrough(self):
        assert _peak_rss_kib(123456, platform="linux") == 123456

    def test_darwin_bytes_to_kib(self):
        assert _peak_rss_kib(123456 * 1024, platform="darwin") == 123456
        assert _peak_rss_kib(1023, platform="darwin") == 0  # sub-KiB floors

    def test_default_platform_is_current(self):
        import sys

        expected = 2048 // 1024 if sys.platform == "darwin" else 2048
        assert _peak_rss_kib(2048) == expected


class _WithSteps:
    mesh_steps = 42.0


class TestExtractSteps:
    def test_shapes(self):
        assert _extract_steps(17) == 17.0
        assert _extract_steps(3.5) == 3.5
        assert _extract_steps(np.int64(9)) == 9.0
        assert _extract_steps(_WithSteps()) == 42.0
        assert _extract_steps((_WithSteps(), 1024)) == 42.0
        assert _extract_steps((12.0, 4096)) == 12.0
        assert _extract_steps({"sort": 2.0, "route": 3.0}) == 5.0

    def test_non_steps(self):
        assert _extract_steps(True) is None  # bool is not a step count
        assert _extract_steps("nope") is None
        assert _extract_steps((None, "x")) is None
        assert _extract_steps({"sort": 2.0, "note": "hi"}) is None


def _doc(wall_by_params):
    return {
        "bench": "demo",
        "points": [
            {"params": dict(p), "fast": {"wall_s_min": w}}
            for p, w in wall_by_params
        ],
    }


class TestCompare:
    BASE = _doc([({"n": 1}, 1.0), ({"n": 2}, 2.0)])

    def test_within_tolerance_passes(self):
        doc = _doc([({"n": 1}, 1.05), ({"n": 2}, 1.9)])
        assert compare(doc, self.BASE, tolerance=0.10) == []

    def test_regression_fails(self):
        doc = _doc([({"n": 1}, 1.5), ({"n": 2}, 2.0)])
        failures = compare(doc, self.BASE, tolerance=0.10)
        assert len(failures) == 1
        assert "n': 1" in failures[0] or "'n': 1" in failures[0]

    def test_unknown_points_skipped(self):
        doc = _doc([({"n": 99}, 100.0)])
        assert compare(doc, self.BASE, tolerance=0.10) == []


class TestRunPoint:
    def test_record_schema_in_process(self):
        # the smallest E10 point is cheap enough to measure inline
        record = run_point("e10_vm", {"side": 8}, repeats=1, warmup=0)
        assert record["params"] == {"side": 8}
        for mode in ("fast", "slow"):
            assert record[mode]["wall_s_min"] > 0
            assert record[mode]["repeats"] == 1
            assert record[mode]["mesh_steps"] > 0
        assert record["mesh_steps_equal"] is True
        assert record["speedup"] > 0
        assert record["peak_rss_kb"] > 0

    def test_trace_record(self):
        record = run_point(
            "e1_hierdag",
            {"height": 8, "method": "hierdag"},
            repeats=1,
            warmup=0,
            trace=True,
        )
        events = record["trace"]["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert "hierdag" in names and "hierdag:bstar" in names
        # summed span charges match the bench's reported mesh steps: the
        # traced pass re-runs the same deterministic schedule
        assert record["trace_steps"] == record["fast"]["mesh_steps"]
        assert "hierdag" in record["trace_tree"]
        # spanTrees ride in the sidecar for report --diff
        assert record["trace"]["spanTrees"]
        # collapsed-stack export: values sum to the traced steps
        from repro.mesh.trace import parse_collapsed

        parsed = parse_collapsed(record["trace_collapsed"])
        assert sum(parsed.values()) == record["trace_steps"]
        assert any("hierdag:bstar" in ";".join(p) for p in parsed)

    def test_profile_record(self):
        # e10 runs on the raw MeshVM (no StepClock), so profile an
        # engine-based bench: E1's smallest point
        record = run_point(
            "e1_hierdag",
            {"height": 8, "method": "hierdag"},
            repeats=1,
            warmup=0,
            profile=True,
        )
        assert record["profile"]["by_label"]
        assert sum(record["profile"]["by_label"].values()) > 0
        # memo counters from the profiled pass ride in the profile dict
        memo = record["profile"].get("memo", {})
        assert set(memo) <= {"hits", "misses"}

    def test_clears_host_caches_between_points(self):
        # regression: pooled buffers and memo entries from one sweep point
        # must not bleed into the next point's RSS/counters when points
        # share a process
        from repro.mesh.engine import MeshEngine
        from repro.mesh.records import drain_memo_counters

        engine = MeshEngine(8, fast_path=True)
        keys = np.arange(64, dtype=np.int64)[::-1].copy()
        engine.root.argsort(keys)
        engine.root.argsort(keys)
        engine.pool.full((64,), np.int64)
        assert engine.argsort_memo._slots  # memo holds a stashed order
        assert engine.pool._buffers  # pool holds a cached buffer
        assert drain_memo_counters()["hits"] >= 1
        engine.root.argsort(keys)  # repopulate the counters
        run_point("selftest", {"mode": "ok"}, repeats=1, warmup=0)
        assert not engine.argsort_memo._slots
        assert not engine.pool._buffers
        # counters were drained on entry, so the point owns what follows
        assert drain_memo_counters() == {"hits": 0, "misses": 0}


class TestProvenance:
    def test_schema(self):
        prov = provenance()
        assert set(prov) == {"versions", "platform", "cpu"}
        versions = prov["versions"]
        assert versions["python"] and versions["numpy"]
        assert prov["platform"]

    def test_stamped_into_bench_doc(self):
        doc = runner.run_bench("selftest", jobs=1, repeats=1, warmup=0, smoke=True)
        assert doc["provenance"] == provenance()

    def test_rendered_by_report(self):
        from repro.bench.report import render_doc

        doc = {
            "bench": "demo",
            "provenance": provenance(),
            "points": [],
        }
        text = render_doc(doc)
        assert "environment: " in text
        assert "numpy" in text

    def test_committed_blobs_with_legacy_keys_still_render(self):
        # blobs written before the kernel layer was retired carry extra
        # provenance keys; rendering must not depend on them
        from repro.bench.report import render_doc

        doc = json.loads((runner.REPO_ROOT / "BENCH_e15_sharded.json").read_text())
        assert "backend" in doc["provenance"]
        text = render_doc(doc)
        assert "environment: python" in text
        assert "cpu: " in text


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "e1_hierdag" in out and "e2_constrained" in out

    def test_unknown_bench_errors(self):
        with pytest.raises(SystemExit):
            main(["not_a_bench"])

    def test_requires_selection(self):
        with pytest.raises(SystemExit):
            main([])


def _probe_callable(monkeypatch, seen, result=1.0):
    """Swap the bench entry point for a closure that records the env mode."""
    import os

    spec = runner.BenchSpec("probe", "probe", ({},))

    def fake(bench):
        def fn(**kwargs):
            seen.append(os.environ.get("REPRO_FAST_PATH"))
            return result

        return spec, fn

    monkeypatch.setattr(runner, "_bench_callable", fake)


class TestRunPointEnvHygiene:
    # regression: run_point used to pop REPRO_FAST_PATH/PROFILE/TRACE on
    # exit, clobbering whatever the caller had exported — and the optional
    # profiled/traced passes ran *after* the pop, under the process-default
    # mode instead of the fast path whose numbers headline the record

    VARS = ("REPRO_FAST_PATH", "REPRO_PROFILE", "REPRO_TRACE")

    def test_restores_caller_values(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_TRACE", "1")
        run_point("selftest", {"mode": "ok"}, repeats=1, warmup=0)
        assert os.environ["REPRO_FAST_PATH"] == "0"
        assert os.environ["REPRO_PROFILE"] == "1"
        assert os.environ["REPRO_TRACE"] == "1"

    def test_unset_vars_stay_unset(self, monkeypatch):
        import os

        for name in self.VARS:
            monkeypatch.delenv(name, raising=False)
        run_point("selftest", {"mode": "ok"}, repeats=1, warmup=0)
        for name in self.VARS:
            assert name not in os.environ

    def test_extra_passes_pinned_to_fast_mode(self, monkeypatch):
        import os

        seen: list = []
        _probe_callable(monkeypatch, seen)
        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        record = run_point("probe", {}, repeats=1, warmup=0, profile=True, trace=True)
        # timed passes interleave fast/slow; both extra passes run fast
        assert seen == ["1", "0", "1", "1"]
        assert os.environ["REPRO_FAST_PATH"] == "0"
        assert record["speedup"] is not None

    def test_restores_env_when_entry_raises(self, monkeypatch):
        import os

        spec = runner.BenchSpec("probe", "probe", ({},))

        def fake(bench):
            def fn(**kwargs):
                raise RuntimeError("boom")

            return spec, fn

        monkeypatch.setattr(runner, "_bench_callable", fake)
        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        with pytest.raises(RuntimeError):
            run_point("probe", {}, repeats=1, warmup=0)
        assert os.environ["REPRO_FAST_PATH"] == "0"


class TestZeroWallSpeedup:
    # regression: a fast wall of exactly 0.0 (timer granularity on a
    # trivial point) raised ZeroDivisionError and lost the whole record

    def test_null_speedup_with_warning(self, monkeypatch):
        seen: list = []
        _probe_callable(monkeypatch, seen)
        monkeypatch.setattr(runner.time, "perf_counter", lambda: 0.0)
        record = run_point("probe", {}, repeats=1, warmup=0)
        assert record["speedup"] is None
        assert any("speedup: null" in w for w in record["warnings"])

    def test_renderers_tolerate_null_speedup(self, monkeypatch):
        from repro.bench.report import render_doc

        seen: list = []
        _probe_callable(monkeypatch, seen)
        monkeypatch.setattr(runner.time, "perf_counter", lambda: 0.0)
        record = run_point("probe", {}, repeats=1, warmup=0)
        doc = {
            "bench": "probe",
            "wall_s_total": 0.0,
            "points": [record],
            "repeats": 1,
        }
        assert "speedup=-" in runner._render_bench(doc)
        assert "speedup=-" in render_doc(doc)

    def test_compare_tolerates_null_speedup(self):
        # compare() gates on wall time only; a null-speedup point with a
        # healthy wall must neither crash nor fail the gate
        doc = _doc([({"n": 1}, 1.0)])
        doc["points"][0]["speedup"] = None
        assert compare(doc, _doc([({"n": 1}, 1.0)]), tolerance=0.10) == []


class TestParamsKey:
    # regression: json.dumps keyed 4096 and 4096.0 differently, so a
    # checkpoint whose params round-tripped through JSON as floats missed
    # on --resume and silently re-ran every point

    def test_whole_float_equals_int(self):
        assert runner._params_key({"n": 4096}) == runner._params_key({"n": 4096.0})
        assert runner._params_key({"x": 2, "y": 1.0}) == runner._params_key(
            {"y": 1, "x": 2.0}
        )

    def test_distinct_values_stay_distinct(self):
        assert runner._params_key({"x": 0.5}) != runner._params_key({"x": 1})
        assert runner._params_key({"b": True}) != runner._params_key({"b": 1})
        assert runner._params_key({"s": "4096"}) != runner._params_key({"n": 4096})

    def test_checkpoint_resume_across_numeric_spelling(self, tmp_path):
        path = tmp_path / "ck.partial.json"
        config = {"repeats": 1}
        record = {
            "params": {"n": 4096.0},
            "fast": {"wall_s_min": 1.0},
            "slow": {"wall_s_min": 2.0},
        }
        runner._write_checkpoint(path, config, {0: record})
        done = runner._load_checkpoint(path, config)
        assert runner._params_key({"n": 4096}) in done

    def test_compare_matches_across_numeric_spelling(self):
        doc = _doc([({"n": 4096}, 10.0)])
        base = _doc([({"n": 4096.0}, 1.0)])
        failures = compare(doc, base, tolerance=0.10)
        assert len(failures) == 1  # the 10x regression is detected, not skipped
