"""Every graph node the engine offers is built by a run of the program.

A node that only the tests reach belongs in ``tests/helpers.py`` beside
the oracles that use it, not in ``numerics``.
"""
import inspect
import json
import sys

import enzydesign.numerics as nm
from enzydesign.cli import main
from fixtures import write_toy_tree

NODES = sorted(
    name for name, fn in vars(nm).items()
    if inspect.isfunction(fn) and not name.startswith("_")
    and fn.__module__ == nm.__name__
    and inspect.signature(fn).return_annotation in ("Tensor", nm.Tensor))


def test_every_node_is_built_by_a_run(tmp_path, monkeypatch):
    """A d=8 toy train into phase 2, a no-graph generate and the three
    verify suites call every public ``numerics`` function that returns a
    Tensor, under whatever name a module imported it."""
    called = set()
    for name in NODES:
        fn = getattr(nm, name)

        def wrapper(*args, name=name, fn=fn, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        for module in [m for key, m in sys.modules.items()
                       if key.split(".")[0] == "enzydesign"]:
            for alias, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, alias, wrapper)

    root = tmp_path / "toy"
    root.mkdir()
    write_toy_tree(root)
    config = {
        "model": {"d": 8, "num_heads": 2, "attention_sublayers": 2,
                  "interleave_period": 1, "k_neighbors": 3},
        "schedule": {"phase1_steps": 1, "phase2_steps": 1, "seed": 0},
        "data": {"records_dir": str(root / "records"),
                 "tags": str(root / "tags.tsv"),
                 "sites_manifest": str(root / "sites.tsv"),
                 "substrates_dir": str(root / "substrates"),
                 "pairings": str(root / "pairings.tsv")},
        "output": {"checkpoint": str(tmp_path / "m.ckpt"),
                   "loss_log": str(tmp_path / "loss.log")},
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "run.json")]) == 0
    last = (tmp_path / "loss.log").read_text().splitlines()[-1].split("\t")
    assert last[0] == "1" and float(last[3]) > 0.0  # phase 2's binding term
    assert main(["generate", "--checkpoint", str(tmp_path / "m.ckpt"),
                 "--motif", str(root / "motif.tsv"),
                 "--out", str(tmp_path / "designs.txt")]) == 0
    # the gradient audit may fail on an untrained checkpoint; it still runs
    assert main(["verify", "--checkpoint", str(tmp_path / "m.ckpt"),
                 "--trials", "2"]) in (0, 1)
    assert "edge_messages" in NODES and "attention" in NODES
    assert sorted(set(NODES) - called) == []
