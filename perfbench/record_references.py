"""Record the correctness references the benchmark checks every operation
against: per workload and input variant, the ``l2_error`` of each study
level and its element count.

Usage (from the repository root; runs every variant of every workload, so
it takes several minutes)::

    python3 perfbench/record_references.py

Only re-record on a commit whose numbers are trusted: an operation that
fails to converge or raises aborts the recording.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import inputs
import run


def record(workload: str, k: int, tmp) -> dict:
    call = inputs.make_inputs(run.ROOT, workload, k, tmp / "inputs")
    op = run.run_operation(call, tmp, f"ref{k}", "plain", time.perf_counter() + 600.0)
    res = op["result"]
    if res.get("error"):
        raise SystemExit(f"{workload} variant {k}: {res['error']}")
    if not all(lvl["converged"] for lvl in res["levels"]):
        raise SystemExit(f"{workload} variant {k}: a level did not converge")
    return {
        "levels": [{"n_elements": lvl["n_elements"], "l2_error": lvl["l2_error"]}
                   for lvl in res["levels"]],
        "orders": res["orders"],
    }


def main() -> int:
    path = run.HERE / "references.json"
    refs = {}
    tmp = run.WORK / "tmp" / "references"
    for workload in run.WORKLOADS:
        table = {}
        for k in range(inputs.N_VARIANTS):
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            table[str(k)] = record(workload, k, tmp)
            print(workload, k, json.dumps(table[str(k)])[:160], flush=True)
        refs[workload] = table
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
