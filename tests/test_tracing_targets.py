"""The benchmark's span recorder wraps polyfr callables by name
(``perfbench/tracing.py``) and its set-up timers read mesh sizes
(``perfbench/op.py``); each of them must still exist, or benchmark runs
fail."""

import importlib.util
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
