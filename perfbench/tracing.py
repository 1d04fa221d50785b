"""Span recording around polyfr's public callables, and the reducer that
turns spans into per-layer metrics.

The recorder runs inside an operation's interpreter.  It replaces each
target in ``TARGETS`` at the module or class attribute its callers look up
with a wrapper that records one span per call: name, start, end and parent
span.  Spans stay in memory and are written once, as an ``.npz`` table,
when the interpreter's work is done.

The reducer runs in the benchmark process.  A span's self time is its
duration minus the durations of its direct children (calls are nested, so
children never overlap).  A name's inclusive time is the union of its
spans, so a span nested inside a span of the same name (``compute_residuals``
calls itself for the ``cs``/``st`` variants) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from pathlib import Path

import numpy as np

# (owner, attribute, span name).  The owner is a module, or a module plus a
# class name after a colon.  A callable imported by name into several
# modules is wrapped at each of them.
TARGETS = (
    ("polyfr.cli", "run", "cli.run"),
    ("polyfr.cli", "defect_battery", "cli.battery"),
    ("polyfr.cli", "load_mesh", "mesh.load"),
    ("polyfr.cli", "refine_uniform", "mesh.refine"),
    ("polyfr.discretization:Discretization", "__init__", "discretization.build"),
    ("polyfr.approximation", "gauss_legendre_01", "approximation.gauss_legendre"),
    ("polyfr.correction", "gauss_legendre_01", "approximation.gauss_legendre"),
    ("polyfr.correction:NeumannCorrectionBackend", "free_field", "correction.free_field"),
    ("polyfr.residual", "compute_residuals", "residual.compute"),
    ("polyfr.solver", "compute_residuals", "residual.compute"),
    ("polyfr.entropy", "compute_residuals", "residual.compute"),
    ("polyfr.residual", "interface_fluxes", "residual.interface_fluxes"),
    ("polyfr.residual", "assemble_global", "residual.assemble"),
    ("polyfr.solver", "assemble_global", "residual.assemble"),
    ("polyfr.residual", "flux_split", "residual.flux_split"),
    ("polyfr.entropy", "flux_split", "residual.flux_split"),
    ("polyfr.entropy", "entropy_nodes", "entropy.nodes"),
    ("polyfr.entropy", "appendix_decomposition", "entropy.appendix"),
    ("polyfr.entropy", "cs_residuals", "entropy.cs"),
    ("polyfr.entropy", "st_residuals", "entropy.st"),
    ("polyfr.cli", "solve_steady", "solver.solve"),
    ("polyfr.solver", "_dt_over_mu", "solver.dt"),
    ("polyfr.solver", "manufactured_error", "solver.error"),
)

ROOT_NAMES = ("op.import", "op.call")


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """In-memory span table of one interpreter."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self.missing: list[str] = []

    def _open(self, name: str, t: float) -> int:
        idx = self._name_idx.setdefault(name, len(self._name_idx))
        if idx == len(self.names):
            self.names.append(name)
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(self._stack[-1])
        self.start.append(t)
        self.end.append(t)
        return sid

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the current parent."""
        self.end[self._open(name, start)] = end

    def span(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = rec._open(name, time.perf_counter())
            rec._stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.end[sid] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for spec, attr, name in TARGETS:
            try:
                owner = _owner(spec)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{spec}.{attr}")
                continue
            setattr(owner, attr, self.span(name, fn))

    def save(self, path: Path, op_id: str) -> None:
        np.savez(
            path,
            op=np.array(op_id),
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
        )


# ---------------------------------------------------------------------------
# reducer
# ---------------------------------------------------------------------------

def load(path: Path) -> dict:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def reduce_spans(tab: dict) -> dict[str, dict]:
    """Per span name of one operation's table: ``calls``, inclusive
    ``total_s`` and ``self_s``."""
    parent, start, end = tab["parent"], tab["start"], tab["end"]
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    out: dict[str, dict] = {}
    for idx, name in enumerate(tab["names"].tolist()):
        sel = tab["name"] == idx
        s, e = start[sel], end[sel]
        reach = np.maximum.accumulate(np.concatenate(([-np.inf], e[:-1])))
        outer = s >= reach
        out[name] = {
            "calls": int(sel.sum()),
            "total_s": float((e - s)[outer].sum()),
            "self_s": float(self_t[sel].sum()),
        }
    return out


def layer_metrics(spans: dict[str, dict], op: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation, by the benchmark's names."""

    def calls(n):
        return spans.get(n, {}).get("calls", 0)

    def total(n):
        return spans.get(n, {}).get("total_s", 0.0)

    def self_s(n):
        return spans.get(n, {}).get("self_s", 0.0)

    n_res = calls("residual.compute")
    return {
        "mesh.load_s": total("mesh.load"),
        "mesh.refine_s": total("mesh.refine"),
        "mesh.elements": op["mesh_elements"],
        "discretization.build_s": total("discretization.build"),
        "discretization.build_calls": calls("discretization.build"),
        "discretization.dofs": op["dofs"],
        "approximation.gauss_legendre_calls": calls("approximation.gauss_legendre"),
        "approximation.gauss_legendre_s": total("approximation.gauss_legendre"),
        "correction.free_field_calls": calls("correction.free_field"),
        "correction.free_field_s": total("correction.free_field"),
        "residual.compute_calls": n_res,
        "residual.compute_self_s": self_s("residual.compute"),
        "residual.ms_per_call": 1e3 * total("residual.compute") / n_res if n_res else 0.0,
        "residual.interface_fluxes_s": total("residual.interface_fluxes"),
        "residual.assemble_s": total("residual.assemble"),
        "residual.flux_split_s": total("residual.flux_split"),
        "entropy.nodes_calls": calls("entropy.nodes"),
        "entropy.nodes_s": total("entropy.nodes"),
        "entropy.appendix_s": total("entropy.appendix"),
        "entropy.cs_s": total("entropy.cs"),
        "entropy.st_s": total("entropy.st"),
        "solver.iterations": op["iterations"],
        "solver.solve_s": total("solver.solve"),
        "solver.self_s": self_s("solver.solve"),
        "solver.dt_s": total("solver.dt"),
        "solver.error_s": total("solver.error"),
        "cli.battery_s": total("cli.battery"),
        "cli.run_self_s": self_s("cli.run"),
    }
