"""Tests of the benchmark's own code: seeded inputs, spans and patching."""
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import seeded_inputs  # noqa: E402
from spans import Patches, Span, Tracer, self_times  # noqa: E402


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(seeded_inputs.GENERATORS))
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    info_a = seeded_inputs.write_inputs(workload, tmp_path / "a", 7)
    info_b = seeded_inputs.write_inputs(workload, tmp_path / "b", 7)
    files_a, files_b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert files_a and files_a == files_b
    assert info_a == info_b


@pytest.mark.parametrize("workload", sorted(seeded_inputs.GENERATORS))
def test_different_seed_gives_different_inputs(tmp_path, workload):
    seeded_inputs.write_inputs(workload, tmp_path / "a", 7)
    seeded_inputs.write_inputs(workload, tmp_path / "b", 8)
    files_a, files_b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert files_a.keys() == files_b.keys()
    assert any(files_a[k] != files_b[k] for k in files_a)


def test_planted_sites_sit_on_ungapped_indices(tmp_path):
    info = seeded_inputs.write_inputs("corpus_prep", tmp_path, 3)
    text = (tmp_path / "msas" / "family0.fasta").read_text().split(">")[1]
    rid, *chunks = text.split()
    ungapped = "".join(chunks).replace("-", "")
    indices, letters = info["expected_sites"][rid]
    assert [ungapped[i] for i in indices] == letters


def _span(i, parent, start, end):
    return Span(i, f"s{i}", parent, "measure", start, end)


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),    # overlaps span 1: the union is 1..5
        _span(3, 0, 8.0, 12.0),   # runs past its parent: clipped at 10
        _span(4, 1, 1.5, 2.5),
        _span(5, None, 20.0, 21.0),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.0)
    assert got[5] == pytest.approx(1.0)


def test_tracer_nests_spans_and_counts_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, attrs=lambda x: {"n": x})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    counted = tracer.counting("calls", lambda: None)
    assert outer(3) == 8
    counted()
    counted()
    first, second = tracer.spans
    assert (first.name, first.parent) == ("outer", None)
    assert (second.name, second.parent, second.attrs) == ("inner", 0, {"n": 3})
    assert first.start < second.start < second.end < first.end
    assert tracer.counts["calls"] == 2


def test_patches_replace_every_alias_and_restore(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x * 10

    class Box:
        def get(self):
            return 1

    core.work, core.Box = work, Box
    user.work = work              # as after ``from .core import work``
    user.run = lambda x: user.work(x)
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core),
                      ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)

    patches = Patches("fakepkg")
    patches.function("fakepkg.core", "work", lambda fn: lambda x: fn(x) + 1)
    patches.method("fakepkg.core", "Box", "get", lambda fn: lambda self: fn(self) + 5)
    assert core.work(2) == 21 and user.run(2) == 21
    assert Box().get() == 6
    patches.restore()
    assert core.work is work and user.work is work
    assert Box().get() == 1
