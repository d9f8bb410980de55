"""Repository benchmark: the yardstick for every performance claim.

Run from the repository root::

    python3 meshbench/run.py --workload interval-bulk --seed 1 --seconds 10 --trace 0
    python3 meshbench/run.py --workload pointloc-serve --seed 1 --seconds 10 --trace 1
    python3 meshbench/run.py --steadiness 5 --workload interval-bulk --seed 1 --seconds 10
    python3 meshbench/run.py --selfcheck

A run prints the full run record on a line starting ``record:`` and, as
its last line, the result: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``, which also writes a Chrome trace under
``.meshbench/``).  It exits non-zero on any wrong answer or failed
request.  ``--steadiness N`` runs a workload N times, each in a fresh
process with the next seed, and prints each end-to-end metric's spread
normalized and raw.  ``--selfcheck`` checks that the manifests agree
with the code and that a corrupted answer of each kind is caught.

Workloads, metrics and their bounds are listed in ``BENCHMARK.json`` at
the repository root; ``manifest.json`` beside this file adds the
host-speed reference constant, latency limits, layers and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".meshbench"

# one BLAS thread: the pool worker needs the second core to itself
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_program() -> None:
    """Import ``repro`` from this checkout's sources, or exit with code 2."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"error: program sources not found at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"error: imported repro from {repro.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def steadiness(args) -> int:
    """Run one workload ``args.steadiness`` times and report each spread."""
    import metrics

    runs, ok = [], True
    for k in range(args.steadiness):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed + k),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        ok &= proc.returncode == 0
        record = next(
            (json.loads(line[len("record: "):]) for line in proc.stdout.splitlines()
             if line.startswith("record: ")),
            None,
        )
        if record is None:
            print(f"run {k} (seed {args.seed + k}) gave no record:\n{proc.stderr}", file=sys.stderr)
            return 1
        runs.append(record)
        print(f"run {k} seed {args.seed + k}: exit {proc.returncode}", file=sys.stderr)
    report = {}
    print(f"{'metric':<22}{'median':>12}{'spread':>9}{'raw median':>13}{'raw spread':>12}")
    for name in metrics.END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        row = {"median": metrics.median(values), "spread": metrics.spread(values)}
        # the record keeps the raw value beside each normalized one
        if f"{name}_raw" in runs[0]["detail"]:
            raw = [r["detail"][f"{name}_raw"] for r in runs]
            row.update(raw_median=metrics.median(raw), raw_spread=metrics.spread(raw))
        report[name] = row
        raw_txt = (
            f"{row['raw_median']:>13.5g}{row['raw_spread']:>12.4f}" if "raw_median" in row else ""
        )
        print(f"{name:<22}{row['median']:>12.5g}{row['spread']:>9.4f}{raw_txt}")
    within = {m: report[m]["spread"] <= 0.1 for m in ("setup_s", "qps")}
    (WORKDIR / f"steadiness-{args.workload}.json").write_text(json.dumps(runs))
    print(json.dumps({"workload": args.workload, "runs": len(runs), "spreads": report,
                      "normalized_within_a_tenth": within}))
    return 0 if ok and all(within.values()) else 1


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if a pool started it.

    The spawn start method launches the tracker as a child of this
    process; left alone it outlives the run until it notices the closed
    pipe, so it is stopped here, after every pool has been closed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import manifest

    problems = manifest.disagreements(*manifest.load())
    if problems:
        for problem in problems:
            print(f"manifest disagreement: {problem}", file=sys.stderr)
        return 3
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(WORKDIR)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.steadiness:
        return steadiness(args)

    import bench

    line, record, correct = bench.run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), WORKDIR, manifest.load()[1],
    )
    print("record: " + json.dumps(record))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
