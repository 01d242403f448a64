"""The benchmark's span tracer names marketeq entry points by string; a rename
would leave a per-layer metric silently at zero.  Check every name resolves."""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_every_traced_entry_point_exists():
    entry_points = _entry_points()
    assert entry_points
    for module_name, attr in entry_points:
        owner = importlib.import_module(f"marketeq.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        target = owner.__dict__.get(leaf) if path else getattr(owner, leaf, None)
        assert inspect.isfunction(target) or isinstance(target, functools.cached_property), (
            f"perfbench traces {module_name}.{attr}, which is not a function or cached property")
