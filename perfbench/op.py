"""One polyfr call in a fresh interpreter, the way one ``polyfr`` CLI call
runs.

Usage: ``python3 op.py <spec.json>``.  The spec names the config and seed
of one ``polyfr.cli.run`` call, an output directory, whether to trace, and
where to write the result.  Thin timers around mesh loading,
refinement and ``Discretization`` construction give the call's set-up time;
with tracing on, every callable in ``tracing.TARGETS`` also records spans.  Any exception is
reported in the result, never raised.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class SetupTimers:
    """Durations and sizes of the set-up calls an operation makes."""

    def __init__(self):
        self.seconds = 0.0
        self.mesh_elements = 0
        self.builds: list[dict] = []

    def _timed(self, fn, after):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            after(args, out)
            return out

        return timed

    def install(self, cli, discretization_cls) -> None:
        def mesh_done(args, mesh):
            self.mesh_elements += mesh.n_elements

        def build_done(args, _):
            disc = args[0]
            self.builds.append({"n_elements": disc.mesh.n_elements, "n_dofs": disc.n_dofs})

        cli.load_mesh = self._timed(cli.load_mesh, mesh_done)
        cli.refine_uniform = self._timed(cli.refine_uniform, mesh_done)
        discretization_cls.__init__ = self._timed(discretization_cls.__init__, build_done)


def call_polyfr(cli, spec: dict) -> dict:
    report = cli.run(spec["config"], spec["out_dir"], seed=spec["seed"])
    levels = [
        {k: lvl.get(k) for k in ("n_elements", "iterations", "converged", "l2_error")}
        for lvl in report["levels"]
    ]
    return {"levels": levels, "orders": report["orders"]}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result: dict = {"error": None}
    rec = None
    t_imp = time.perf_counter()
    import polyfr.cli as cli
    from polyfr.discretization import Discretization

    t_imp_end = time.perf_counter()
    if spec["trace"]:
        import tracing

        rec = tracing.Recorder()
        rec.add("op.import", t_imp, t_imp_end)
        rec.install()
        result["missing_targets"] = rec.missing
    setup = SetupTimers()
    setup.install(cli, Discretization)
    call = rec.span("op.call", call_polyfr) if rec else call_polyfr
    try:
        result.update(call(cli, spec))
    except Exception as exc:  # every failure is a benchmark outcome
        result["error"] = f"{type(exc).__name__}: {exc}"
    t_end = time.perf_counter()
    result.update(
        setup_s=setup.seconds,
        mesh_elements=setup.mesh_elements,
        builds=setup.builds,
        in_process_s=t_end - T_START,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if rec:
        rec.save(Path(spec["spans"]), spec["op_id"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
