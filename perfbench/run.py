"""Steady-solve and verification benchmark for polyfr.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tri-study --seed 3 --seconds 60 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``tri-study``: ``polyfr.cli.run`` on the shipped 3-level triangle study;
- ``quad-solve``: ``polyfr.cli.run`` on the shipped 16-quad mesh.

Load shape: a closed loop with one client.  Each operation is one
``polyfr.cli.run`` call in a fresh interpreter with BLAS/OpenMP threads
capped at 1, and starts after the previous one ends.  Operations are
started until the next one would end after ``--seconds``; at least one
always runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pairs of
an untraced and a traced operation and reports the per-layer metrics; it
fails if a traced callable is missing, if a span has no valid parent, or if
the root spans cover less than ``ACCOUNTED_FLOOR`` of the traced wall time.
Every operation is checked against ``references.json``.  The last line of standard
output is the JSON result; every run's full record (metadata, samples,
failures) is also written under ``perfbench/_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("tri-study", "quad-solve")
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
DEADLINE_S = 170.0  # a run never outlasts this, whatever --seconds says
L2_RTOL = 1e-6  # re-converging at another CFL moves l2_error by <= 3e-12 relative
ACCOUNTED_FLOOR = 0.9  # root spans over traced wall time; 0.96-0.99 is typical
ORDER_RANGE = (1.7, 2.3)  # the bound tests/test_cli.py puts on this study
REQUIRED = (
    "src/polyfr/cli.py",
    inputs.SINE_CASE,
    inputs.QUAD_MESH,
)


class RunDeadline(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_CAPS)
    return env


def run_operation(call: dict, tmp: Path, tag: str, mode: str, deadline: float) -> dict:
    """One operation: the polyfr call in its own interpreter.

    ``mode`` is ``plain`` or ``traced``."""
    traced = mode == "traced"
    spec = dict(call, trace=int(traced), op_id=tag, out_dir=str(tmp / f"{tag}-out"),
                result=str(tmp / f"{tag}.json"), spans=str(tmp / f"{tag}.npz"))
    spec_path = tmp / f"{tag}-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "op.py"), str(spec_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunDeadline(f"operation {tag} passed the run deadline")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        result = {"error": f"exit {proc.returncode}: {err.decode(errors='replace')[-400:]}"}
    else:
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        if traced:
            result["spans_file"] = spec["spans"]
    return {
        "mode": mode,
        "wall_s": wall,
        "setup_s": result.get("setup_s", 0.0),
        "peak_rss_mb": result.get("maxrss_kb", 0) / 1024.0,
        "in_process_s": result.get("in_process_s", 0.0),
        "result": result,
    }


def repeat(unit, out: list, t_run: float, budget: float) -> None:
    """Append ``unit(i)`` to ``out`` for i = 0, 1, ... until the next call
    would end more than ``budget`` seconds after ``t_run``, judged by the
    median duration so far.  The first call always runs."""
    walls: list[float] = []
    while True:
        if walls and time.perf_counter() - t_run + statistics.median(walls) > budget:
            return
        t0 = time.perf_counter()
        out.append(unit(len(out)))
        walls.append(time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def check_operation(workload: str, op: dict, ref: dict) -> list[str]:
    """Reasons the operation failed; empty when it passed."""
    res = op["result"]
    if res.get("error"):
        return [res["error"]]
    bad = []
    levels = res["levels"]
    if len(levels) != len(ref["levels"]):
        return [f"{len(levels)} levels, reference has {len(ref['levels'])}"]
    for lvl, want in zip(levels, ref["levels"]):
        tag = f"level with {lvl['n_elements']} elements"
        if not lvl["converged"]:
            bad.append(f"{tag} did not converge in {lvl['iterations']} iterations")
        if lvl["n_elements"] != want["n_elements"]:
            bad.append(f"{tag}: reference has {want['n_elements']} elements")
        drift = abs(lvl["l2_error"] - want["l2_error"]) / want["l2_error"]
        if not drift <= L2_RTOL:
            bad.append(f"{tag}: l2_error {lvl['l2_error']!r} drifts {drift:.1e} "
                       f"from reference {want['l2_error']!r}")
    if workload == "tri-study":
        order = res["orders"][-1] if res["orders"] else float("nan")
        if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
            bad.append(f"finer-pair order {order:.3f} outside {ORDER_RANGE}")
    return bad


# ---------------------------------------------------------------------------
# metadata and summaries
# ---------------------------------------------------------------------------

def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def run_metadata(first_op: dict) -> dict:
    commit = "unknown"  # a checkout exported without .git has no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "load_shape": "closed loop, 1 client, fresh interpreter per polyfr call",
        "levels": first_op["result"].get("builds", []),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops: list[dict], failed: int, attempted: int) -> dict:
    return {
        "wall_s": metric(statistics.median(o["wall_s"] for o in ops), "s"),
        "setup_s": metric(statistics.median(o["setup_s"] for o in ops), "s"),
        "peak_rss_mb": metric(statistics.median(o["peak_rss_mb"] for o in ops), "MB"),
        "pass_frac": metric(1.0 - failed / attempted, "ratio"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "ms" if name.endswith("ms_per_call") else "count"


def span_tree_problems(table: dict) -> list[str]:
    """Spans whose parent is not an earlier span, and parentless spans that
    are not roots: either means the traced time is not one nested tree."""
    parent = table["parent"]
    names = table["names"][table["name"]]
    bad_parent = (parent >= np.arange(len(parent))) | (parent < -1)
    stray = (parent == -1) & ~np.isin(names, tracing.ROOT_NAMES)
    return ([f"{n} span has parent index {i} out of order"
             for n, i in zip(names[bad_parent], parent[bad_parent])]
            + [f"{n} span lies outside the root spans" for n in sorted(set(names[stray]))])


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    """Median per-layer metrics over the traced operations, and the reasons
    any of their traces cannot be trusted."""
    rows, problems = [], []
    for plain, traced in pairs:
        res = traced["result"]
        table = tracing.load(Path(res["spans_file"]))
        problems += span_tree_problems(table)
        spans = tracing.reduce_spans(table)
        op = {
            "mesh_elements": res["mesh_elements"],
            "dofs": sum(b["n_dofs"] for b in res["builds"]),
            "iterations": sum(lvl["iterations"] for lvl in res.get("levels", [])),
        }
        row = tracing.layer_metrics(spans, op)
        # in a nested tree the self times of all spans sum to the roots' time
        roots = sum(spans.get(n, {"total_s": 0.0})["total_s"] for n in tracing.ROOT_NAMES)
        row["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        row["trace.accounted_frac"] = roots / traced["wall_s"]
        if row["trace.accounted_frac"] < ACCOUNTED_FLOOR:
            problems.append(f"spans account for {row['trace.accounted_frac']:.3f} of the "
                            f"traced wall time, below {ACCOUNTED_FLOOR}")
        rows.append(row)
    out = {}
    for name in rows[0]:
        out[name] = metric(statistics.median(r[name] for r in rows), layer_unit(name))
    return out, problems


# ---------------------------------------------------------------------------

def preflight() -> str | None:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        return f"not a polyfr checkout: missing {', '.join(missing)}"
    if not (HERE / "references.json").is_file():
        return "missing perfbench/references.json"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    deadline = t_run + DEADLINE_S
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    k = inputs.variant_of(args.seed)
    ref = refs[args.workload][str(k)]
    tmp = WORK / "tmp" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    call = inputs.make_inputs(ROOT, args.workload, args.seed, tmp / "inputs")

    budget = min(args.seconds, DEADLINE_S - 10)
    failures: list[str] = []

    def operation(mode: str, tag: str) -> dict:
        op = run_operation(call, tmp, tag, mode, deadline)
        try:
            op["failures"] = check_operation(args.workload, op, ref)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            op["failures"] = [f"unexpected result shape: {exc!r}"]
        failures.extend(op["failures"])
        return op

    ops: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    aborted = 0  # an operation cut by the run deadline counts as failed
    try:
        if args.trace:
            def pair(i):
                ops.append(operation("plain", f"op{2 * i}"))
                ops.append(operation("traced", f"op{2 * i + 1}"))
                return ops[-2], ops[-1]

            repeat(pair, pairs, t_run, budget)
        else:
            repeat(lambda i: operation("plain", f"op{i}"), ops, t_run, budget)
    except RunDeadline as exc:
        failures.append(str(exc))
        aborted = 1
    if args.trace and len(ops) > 2 * len(pairs):
        ops.pop()  # the untraced half of a pair the deadline cut
    # a traced interpreter that crashed left no spans to reduce
    pairs = [p for p in pairs if "spans_file" in p[1]["result"]]
    if not ops or (args.trace and not pairs):
        print(f"perfbench: no operation completed: {failures}", file=sys.stderr)
        shutil.rmtree(tmp, ignore_errors=True)
        return 1
    attempted = len(ops) + aborted
    failed = sum(1 for o in ops if o["failures"]) + aborted

    meta = run_metadata(ops[0])
    record = {
        "workload": args.workload, "seed": args.seed, "variant": k,
        "seconds": args.seconds, "trace": args.trace, "metadata": meta,
        "samples": [{key: o[key] for key in ("mode", "wall_s", "setup_s", "peak_rss_mb",
                                             "in_process_s", "failures")} for o in ops],
        "failures": failures,
    }
    if args.trace:
        metrics, problems = per_layer(pairs)
        missing = sorted({m for o in ops for m in o["result"].get("missing_targets", [])})
        failures += [f"traced callable {m} not found" for m in missing]
        failures += [f"trace: {p}" for p in problems]
        trace_dir = WORK / "traces" / args.workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        for i, (_, traced) in enumerate(pairs):
            shutil.move(traced["result"].pop("spans_file"), trace_dir / f"pair{i}.npz")
        (trace_dir / "layers.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "metrics": metrics}, indent=1),
            encoding="utf-8")
    else:
        metrics = end_to_end(ops, failed, attempted)
    record["metrics"] = metrics
    out_dir = WORK / "results" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out_dir / f"{stamp}-s{args.seed}-t{args.trace}-p{os.getpid()}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed} (input variant {k})  "
          f"operations {len(ops)}  commit {meta['commit'][:12]}  src lines {meta['src_lines']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} ratio")
    for reason in failures:
        print(f"  FAIL {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
