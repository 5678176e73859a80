"""Every perfbench trace point still names a real call site.

``perfbench/run.py --trace 1`` wraps each ``(owner, attribute)`` in
``perfbench/workloads.py::TRACE_POINTS`` by looking the attribute up in
the owner's ``__dict__``, so deleting or renaming one of them breaks the
traced benchmark with a ``KeyError``. This check reads the table (it
never edits it) and fails in seconds instead of in the slower perfbench
self-test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py"


def load_trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


TRACE_POINTS = load_trace_points()


@pytest.mark.parametrize(
    "owner_path, attr",
    [(owner, attr) for owner, attr, _span in TRACE_POINTS],
    ids=[f"{owner}.{attr}" for owner, attr, _span in TRACE_POINTS],
)
def test_trace_point_resolves_in_owner_dict(owner_path, attr):
    module, _, cls = owner_path.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert attr in owner.__dict__, f"{owner_path} has no {attr!r} of its own"
