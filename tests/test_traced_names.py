"""The program names perfbench traces still exist, and its span
attributes still compute on the calls a run makes.

perfbench's ``Patches`` looks each traced name up when it installs its
spans, so a renamed or deleted function would crash every traced run.
So would a signature change that breaks an attribute function: they
call ``len()`` on the first argument of ``forward_stack``,
``embed_inputs`` and ``knn``, and read ``h.shape[0]``.
"""
import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from spans import Patches, Tracer  # noqa: E402

from fixtures import write_toy_tree  # noqa: E402


@pytest.mark.parametrize("module,name", [
    (module, name) for module, name, _ in workloads.TRACED_FUNCTIONS])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module,cls,name", [
    (module, cls, name) for module, cls, name, _ in workloads.TRACED_METHODS])
def test_traced_method_exists(module, cls, name):
    # Patches.method reads the class's own __dict__, not an inherited name
    assert name in vars(getattr(importlib.import_module(module), cls))


def test_span_attributes_compute_on_real_calls(tmp_path):
    """Every traced function wrapped with its attribute function, as a
    traced run wraps it, through a d=8 toy ``train`` and a two-candidate
    toy ``generate``: an attribute call that raises fails the command,
    and each sized function records its ``n``."""
    import enzydesign.cli as cli
    root = tmp_path / "toy"
    write_toy_tree(root)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"d": 8, "num_heads": 2, "k_neighbors": 3},
        "schedule": {"phase1_steps": 1, "phase2_steps": 1, "seed": 0},
        "data": {"records_dir": str(root / "records"),
                 "tags": str(root / "tags.tsv"),
                 "sites_manifest": str(root / "sites.tsv"),
                 "substrates_dir": str(root / "substrates"),
                 "pairings": str(root / "pairings.tsv")},
        "output": {"checkpoint": str(tmp_path / "m.ckpt"),
                   "loss_log": str(tmp_path / "loss.log")}}))
    tracer, patches = Tracer(), Patches()
    for module, name, attrs in workloads.TRACED_FUNCTIONS:
        patches.function(module, name, lambda fn, label=name, attrs=attrs:
                         tracer.wrap(label, fn, attrs))
    try:
        assert cli.main(["train", "--config", str(config)]) == 0
        assert cli.main(["generate", "--checkpoint", str(tmp_path / "m.ckpt"),
                         "--motif", str(root / "motif.tsv"),
                         "--num-candidates", "2",
                         "--out", str(tmp_path / "d.txt")]) == 0
    finally:
        patches.restore()
    sized = {name for _, name, attrs in workloads.TRACED_FUNCTIONS if attrs}
    assert sized <= {s.name for s in tracer.spans if "n" in s.attrs}
