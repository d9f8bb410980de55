"""The benchmark's manifests and the check that they agree with its code.

``BENCHMARK.json`` (repository root) names the workloads and metrics
with their units, directions and regression bounds; ``manifest.json``
(beside this file) adds the reference constant, latency limits, layers
and predictions.  :func:`disagreements` lists every place where the two
files and the code's registries (``metrics.py``, ``workloads.py``,
``refkernel.py``) disagree; a run refuses to start while any remain.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import metrics
import refkernel
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
MANIFEST_JSON = HERE / "manifest.json"


def load() -> tuple[dict, dict]:
    return json.loads(BENCHMARK_JSON.read_text()), json.loads(MANIFEST_JSON.read_text())


def disagreements(bench: dict, manifest: dict) -> list[str]:
    out: list[str] = []

    def same(what: str, a, b) -> None:
        if a != b:
            out.append(f"{what}: {a!r} != {b!r}")

    names = [w["name"] for w in bench["workloads"]]
    same("workloads (BENCHMARK.json vs code)", names, list(workloads.WORKLOADS))
    same("workloads (manifest.json vs code)", list(manifest["workloads"]), list(workloads.WORKLOADS))
    same("slo_ms workloads", sorted(manifest["slo_ms"]), sorted(workloads.WORKLOADS))
    for name, wl in workloads.WORKLOADS.items():
        loop = manifest["workloads"].get(name, {}).get("loop")
        same(f"{name} loop", loop, "open" if wl.open_loop else "closed")

    same("reference kernel version", manifest["reference"]["kernel_version"], refkernel.KERNEL_VERSION)

    for section, registry in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: m for m in bench[section]}
        same(f"{section} names (BENCHMARK.json vs code)", list(listed), list(registry))
        same(f"{section} names (manifest.json vs code)", list(manifest[section]), list(registry))
        for name, spec in registry.items():
            if name in listed:
                same(f"{name} unit", listed[name]["unit"], spec[0])
                same(f"{name} better", listed[name]["better"], spec[1])

    layers = manifest["layers"]
    for layer, modules in layers.items():
        for module in modules:
            if importlib.util.find_spec(module) is None:
                out.append(f"layer {layer}: module {module} not found")
    for name, spec in metrics.PER_LAYER.items():
        if spec[2] not in layers:
            out.append(f"{name}: layer {spec[2]!r} missing from manifest.json layers")
        for move in manifest["per_layer"].get(name, {}).get("moves", []):
            if move["metric"] not in metrics.END_TO_END:
                out.append(f"{name}: moves unknown metric {move['metric']!r}")
            for wl in move["workloads"]:
                if wl not in workloads.WORKLOADS:
                    out.append(f"{name}: moves unknown workload {wl!r}")
    return out
