"""The program names perfbench traces still exist.

perfbench's ``Patches`` looks each traced name up when it installs its
spans, so a renamed or deleted function would crash every traced run.
"""
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("module,name", [
    (module, name) for module, name, _ in workloads.TRACED_FUNCTIONS])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module,cls,name", [
    (module, cls, name) for module, cls, name, _ in workloads.TRACED_METHODS])
def test_traced_method_exists(module, cls, name):
    # Patches.method reads the class's own __dict__, not an inherited name
    assert name in vars(getattr(importlib.import_module(module), cls))
