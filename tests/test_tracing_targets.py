"""The benchmark's span recorder wraps polyfr callables by name
(``perfbench/tracing.py``); each of them must still exist, or traced
benchmark runs fail."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
