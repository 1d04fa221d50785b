"""Print every end-to-end metric, by name and unit, for every workload.

Usage (from the repository root)::

    python3 perfbench/report.py
    python3 perfbench/report.py --stored

The first form runs each workload once, at seed 0 for the ``run_seconds``
of ``BENCHMARK.json``, and prints its metrics plus ``fail_frac``.  ``--stored`` instead
pools every run recorded under ``perfbench/_work/results`` and prints, per
workload, the sample count, the median and the highest percentile of
``wall_s`` that has at least ten samples beyond it.  Either form exits 1 if
any operation it reports on failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

SEED = 0


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 11  # ten samples lie beyond this one
    return 100.0 * (rank + 1) / n, sorted(values)[rank]


def run_workload(workload: str, seconds: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": proc.stderr.strip()[-400:]}
    return json.loads(lines[-1])


def print_result(workload: str, res: dict) -> None:
    print(workload)
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {res['failed'] / res['attempted']:14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} operations)")
    if res.get("error"):
        print(f"  ERROR {res['error']}")


def stored() -> bool:
    ok = True
    for workload in run.WORKLOADS:
        records = [json.loads(p.read_text(encoding="utf-8"))
                   for p in sorted((run.WORK / "results" / workload).glob("*.json"))]
        samples = [s for r in records for s in r["samples"]]
        plain = [s for s in samples if s["mode"] == "plain"]
        failed = sum(1 for s in samples if s["failures"])
        print(f"{workload}: {len(records)} runs, {len(plain)} untraced operations")
        if plain:
            walls = [s["wall_s"] for s in plain]
            print(f"  {'wall_s median':40s} {statistics.median(walls):14.6g} s")
            high = high_percentile(walls)
            if high:
                print(f"  {f'wall_s p{high[0]:.0f}':40s} {high[1]:14.6g} s")
            else:
                print(f"  {'wall_s high percentile':>40s}   needs 11 samples")
            setup = statistics.median(s["setup_s"] for s in plain)
            rss = statistics.median(s["peak_rss_mb"] for s in plain)
            print(f"  {'setup_s median':40s} {setup:14.6g} s")
            print(f"  {'peak_rss_mb median':40s} {rss:14.6g} MB")
        if samples:
            print(f"  {'fail_frac':40s} {failed / len(samples):14.6g} ratio")
        ok = ok and failed == 0 and not any(r["failures"] for r in records)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stored", action="store_true", help="pool the recorded runs instead")
    args = ap.parse_args(argv)
    if args.stored:
        return 0 if stored() else 1
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in run.WORKLOADS:
        res = run_workload(workload, bench["run_seconds"])
        print_result(workload, res)
        ok = ok and res["correct"] and res["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
