"""The benchmark's span recorder wraps polyfr callables by name
(``perfbench/tracing.py``) and its set-up timers read mesh sizes
(``perfbench/op.py``); each of them must still exist, or benchmark runs
fail, and the solve-path ones must still be called where they are wrapped,
or their per-layer metrics read 0."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
CASES = ROOT / "cases"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # reads TARGETS; installs no wrappers
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in tracing.TARGETS
        if not hasattr(tracing._owner(owner), attr)
    ]
    assert not missing


def test_benchmark_mesh_hooks_resolve():
    # perfbench/op.py wraps cli.load_mesh and cli.refine_uniform and reads
    # n_elements of what they return and of a Discretization's mesh
    from polyfr import cli
    from polyfr.discretization import Discretization

    mesh = cli.load_mesh(CASES / "tri_2.mesh.json")
    fine = cli.refine_uniform(mesh)
    disc = Discretization(fine, 1)
    assert (mesh.n_elements, fine.n_elements) == (2, 8)
    assert disc.mesh.n_elements == fine.n_elements
    assert isinstance(disc.n_dofs, int)
    for m in (mesh, fine, disc.mesh):
        assert isinstance(m.n_elements, int)
        assert m.vertices.shape[1] == 2
        assert m.element_coords(0).shape == (3, 2)
        assert set(m.boundary_tags.values()) == {"boundary"}


# the solve-path spans whose per-layer metrics the benchmark reports
SOLVE_PATH = (
    ("polyfr.solver", "compute_residuals"),
    ("polyfr.residual", "interface_fluxes"),
    ("polyfr.solver", "assemble_global"),
    ("polyfr.entropy", "entropy_nodes"),
    ("polyfr.solver", "_dt_over_mu"),
    ("polyfr.cli", "solve_steady"),
    ("polyfr.solver", "manufactured_error"),
    ("polyfr.cli", "defect_battery"),
)


def test_solve_path_targets_are_called(tmp_path, monkeypatch):
    # wrapped where the recorder wraps them, each is reached by a short run:
    # a refactor that inlined one would leave its metric at 0 silently
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {(owner, attr) for owner, attr, _ in tracing.TARGETS}
    assert set(SOLVE_PATH) <= targets
    calls = dict.fromkeys(SOLVE_PATH, 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in SOLVE_PATH:
        obj = tracing._owner(owner)
        monkeypatch.setattr(obj, attr, counted((owner, attr), getattr(obj, attr)))

    from polyfr import cli

    sine = {"profile": "sine", "kx": 3.0, "ky": -2.0}
    cfg = {"mesh": str(CASES / "tri_2.mesh.json"), "law": "advection", "degree": 1,
           "solver": {"max_iters": 40}, "boundary": {"boundary": sine}, "exact": sine}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    cli.run(path, tmp_path / "out")
    assert all(n >= 1 for n in calls.values()), calls
