"""Seeded inputs for the benchmark workloads.

A seed selects one of ``N_VARIANTS`` input variants (``seed % N_VARIANTS``),
so every input the benchmark can generate has a recorded reference in
``references.json``.  Inputs are written as files; polyfr only sees the
generated config file.

- ``tri-study`` / ``quad-solve``: the shipped sine-advection case with the
  sine ``phase`` set to ``2*pi*k/N_VARIANTS`` in both ``boundary`` and
  ``exact``; ``quad-solve`` points it at the shipped 16-quad mesh and runs
  one level.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

N_VARIANTS = 16
SINE_CASE = "cases/advection_sine_k1.json"
QUAD_MESH = "cases/quad_16.mesh.json"


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return path


def sine_config(root: Path, k: int, quad: bool) -> dict:
    """The shipped sine case with phase ``2*pi*k/N_VARIANTS``."""
    cfg = json.loads((root / SINE_CASE).read_text(encoding="utf-8"))
    phase = 2.0 * math.pi * k / N_VARIANTS
    cfg["boundary"]["boundary"]["phase"] = phase
    cfg["exact"]["phase"] = phase
    mesh = root / QUAD_MESH if quad else (root / SINE_CASE).parent / cfg["mesh"]
    cfg["mesh"] = str(mesh.resolve())
    if quad:
        cfg["case"] = "advection-sine-k1-quad16"
        cfg["study"] = {"levels": 1}
    return cfg


def make_inputs(root: Path, workload: str, seed: int, work: Path) -> dict:
    """Write the config of one operation and return its ``polyfr.cli.run``
    call, ``{"config": path, "seed": k}``."""
    if workload not in ("tri-study", "quad-solve"):
        raise ValueError(f"unknown workload {workload!r}")
    k = variant_of(seed)
    work.mkdir(parents=True, exist_ok=True)
    cfg = sine_config(root, k, quad=workload == "quad-solve")
    return {"config": str(_write_json(work / f"{workload}-v{k}.json", cfg)), "seed": k}
