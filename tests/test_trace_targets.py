"""Every name the ledger's tracer wraps still exists where it says.

``benchmarks/perf/tracing.py::TARGETS`` names the entry points of each
layer; a target that no longer resolves is reported as
``trace.missing`` only when the ledger runs.  This resolves each one by
the tracer's own rule — import the module, find the attribute on the
class or on the first base that defines it, and require a plain
function — without installing a wrapper, so a refactor that moves a
traced name fails here first.
"""

import importlib
import types

import pytest

from benchmarks.perf.tracing import TARGETS


def resolve(module_name, cls_name, attr):
    """The function ``Tracer.install`` would wrap, or None."""
    try:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls_name) if cls_name else module
    except (ImportError, AttributeError):
        return None
    for klass in getattr(owner, "__mro__", (owner,)):
        if attr in klass.__dict__:
            found = klass.__dict__[attr]
            return found if isinstance(found, types.FunctionType) else None
    return None


@pytest.mark.parametrize(
    "module_name, cls_name, attr",
    [target[1:] for target in TARGETS],
    ids=[".".join(p for p in target[1:] if p) for target in TARGETS],
)
def test_trace_target_resolves(module_name, cls_name, attr):
    assert resolve(module_name, cls_name, attr) is not None

