"""The benchmark's tracer still finds the functions it hooks.

``perfbench/tracing.py`` rebinds the toolkit's functions by module and
name, and a hook whose function moved or was renamed only shows up as
``trace.hooks_missing`` in a traced benchmark run. This test resolves the
hooks here, so the next loss fails the main suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Hooks that name functions deleted before this test was written; the
# benchmark reports them as missing until it is re-hooked, and then they
# leave this set.
STALE = {
    "resources.normalized_usage",
    "resources.usage_at_reliability",
    "sim.estimate_from_aggregate",
}


def _load_tracing():
    name = "_perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    # the Hook dataclass looks its own module up while it is being defined
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_only_the_known_stale_hooks_are_missing():
    missing = []
    for hook in _load_tracing().HOOKS:
        try:
            module = importlib.import_module(f"urllc_mc.{hook.module}")
        except ImportError:
            module = None
        if not callable(getattr(module, hook.name, None)):
            missing.append(f"{hook.module}.{hook.name}")
    # equal, not a subset: re-hooking a stale name must also take it out of STALE
    assert set(missing) == STALE, (sorted(set(missing) - STALE), sorted(STALE - set(missing)))

