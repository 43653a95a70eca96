"""Every function in ``src/enzydesign`` is entered by a run of the program.

One set of CLI runs executes under ``sys.setprofile``: ``mine-sites``, a
d=8 toy ``train`` with masked pretraining into phase 2 and
``freeze_motif_coords`` on, a ``--resume``, a two-candidate
``generate``, ``export-embeddings`` and ``verify --suite all``. Their
records include one PDB file, and ``numerics.TILE_BYTES`` is small
enough that every tiled op runs in several tiles. A ``def`` or
``lambda`` of the package, backward rules included, that none of them
enters fails the test, named as ``file:line qualname``: code that only
the tests call belongs in ``tests/helpers.py``. The test also fails on a
run-config key that none of the run set's configs gives (a boolean, set
to true): code behind that key would go unexercised, as
``Tensor.__rsub__`` behind ``freeze_motif_coords`` once did.
"""
import ast
import importlib.util
import json
import sys
from pathlib import Path

import enzydesign
import enzydesign.config as config
import enzydesign.numerics as nm
from enzydesign.cli import main
from fixtures import write_toy_tree
from helpers import RUN_CONFIG_SPEC

PACKAGE = Path(enzydesign.__file__).resolve().parent

# (file name, qualname) -> why no run needs to enter it
EXEMPT = {("numerics.py", "Tensor.__repr__"): "debuggers and pytest print it"}


def defined(path):
    """[(first line, name, qualname)] of each def and lambda in the source
    file ``path``. A decorated def starts at its first decorator, as its
    code object's ``co_firstlineno`` does."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                first = min([d.lineno for d in getattr(
                    child, "decorator_list", [])] + [child.lineno])
                found.append((first, name, prefix + name))
                visit(child, f"{prefix}{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def entered_during(run):
    """The code objects of every Python frame that ``run()`` enters."""
    codes = {}

    def note(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(note)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return codes.values()


def unreached(paths, codes, exempt=EXEMPT):
    """(``file:line qualname`` of each def and lambda in ``paths`` that no
    code in ``codes`` is, and of each ``exempt`` one that one is)."""
    hit = {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name)
           for c in codes}
    missing, stale = [], []
    for path in paths:
        path = path.resolve()
        found = defined(path)
        starts = [(line, name) for line, name, _ in found]
        assert len(set(starts)) == len(starts), (
            f"{path.name}: two functions of one name start on one line")
        for line, name, qualname in found:
            where = f"{path.name}:{line} {qualname}"
            if (path.name, qualname) in exempt:
                if (path, line, name) in hit:
                    stale.append(where)
            elif (path, line, name) not in hit:
                missing.append(where)
    return missing, stale


def _pdb(residues):
    """A PDB file of one chain's Cα atoms, 3.8 apart along x."""
    return "".join(
        f"ATOM  {i:5d}  CA  {res} A{i:4d}    {3.8 * i:8.3f}{0.0:8.3f}"
        f"{0.0:8.3f}  1.00  0.00           C\n"
        for i, res in enumerate(residues, start=1))


def _run_set(tmp_path):
    """Write the run set's inputs under ``tmp_path``; returns (the run
    configs, a function running every command)."""
    root = tmp_path / "toy"
    root.mkdir()
    write_toy_tree(root)
    (root / "records" / "pdb1.pdb").write_text(
        _pdb(["GLY", "ALA", "SER", "HIS", "ASP", "LYS"]))
    with open(root / "tags.tsv", "a") as f:
        f.write("pdb1\t2.1.1.1\n")
    with open(root / "pairings.tsv", "a") as f:
        f.write("pdb1\tsub0\t0\n")
    (tmp_path / "aln").mkdir()
    (tmp_path / "aln" / "fam.fasta").write_text(
        ">s1\nAEKG-CMW\n>s2\nTEQGRSMY\n>s3\n-EVGNIMH\n")
    run = {
        "model": {"d": 8, "num_heads": 2, "attention_sublayers": 2,
                  "interleave_period": 1, "k_neighbors": 3,
                  "substrate_layers": 1, "max_len": 64,
                  "coord_loss_weight": 1.0, "bond_length": 3.75,
                  "freeze_motif_coords": True},
        "schedule": {"phase1_steps": 1, "phase2_steps": 1,
                     "learning_rate": 3e-4, "batch_residues": 64, "seed": 0,
                     "mlm_pretrain_steps": 1},
        "data": {"records_dir": str(root / "records"),
                 "tags": str(root / "tags.tsv"),
                 "sites_manifest": str(root / "sites.tsv"),
                 "substrates_dir": str(root / "substrates"),
                 "pairings": str(root / "pairings.tsv"),
                 "split_seed": 0},
        "output": {"checkpoint": str(tmp_path / "m.ckpt"),
                   "loss_log": str(tmp_path / "loss.log"),
                   "split_manifest": str(tmp_path / "splits.tsv")},
    }
    resume = json.loads(json.dumps(run))
    resume["schedule"]["phase2_steps"] = 2
    (tmp_path / "run.json").write_text(json.dumps(run))
    (tmp_path / "resume.json").write_text(json.dumps(resume))
    ckpt = str(tmp_path / "m.ckpt")

    def commands():
        assert main(["mine-sites", "--alignments", str(tmp_path / "aln"),
                     "--out", str(tmp_path / "sites.tsv")]) == 0
        assert main(["train", "--config", str(tmp_path / "run.json")]) == 0
        assert main(["train", "--config", str(tmp_path / "resume.json"),
                     "--resume", ckpt]) == 0
        assert len((tmp_path / "loss.log").read_text().splitlines()) == 3
        assert main(["generate", "--checkpoint", ckpt,
                     "--motif", str(root / "motif.tsv"),
                     "--num-candidates", "2",
                     "--out", str(tmp_path / "designs.txt")]) == 0
        assert main(["export-embeddings", "--checkpoint", ckpt,
                     "--out", str(tmp_path / "embeddings.tsv")]) == 0
        # the gradient audit may fail on an untrained checkpoint; it still runs
        assert main(["verify", "--checkpoint", ckpt, "--suite", "all",
                     "--trials", "2"]) in (0, 1)

    return [run, resume], commands


def test_every_function_is_entered_by_a_run(tmp_path, monkeypatch):
    configs, commands = _run_set(tmp_path)
    for raw in configs:
        config.read_run_config(raw)
    assert set(RUN_CONFIG_SPEC) == set(config.SECTIONS)
    given = {(section, key) for raw in configs for section in raw
             for key, value in raw[section].items() if value is not False}
    unset = [f"{section}.{key}" for section, spec in RUN_CONFIG_SPEC.items()
             for key in spec if (section, key) not in given]
    assert unset == [], ("set by no run (a boolean, to true):\n"
                         + "\n".join(unset))

    monkeypatch.setattr(nm, "TILE_BYTES", 1024)  # several tiles per op
    missing, stale = unreached(sorted(PACKAGE.glob("*.py")),
                               entered_during(commands))
    assert missing == [], "entered by no run:\n" + "\n".join(missing)
    assert stale == [], "exempt, yet entered by a run:\n" + "\n".join(stale)


SYNTHETIC = '''\
def called():
    return (lambda: 1)()


def uncalled():
    return 0


spare = lambda: 0  # noqa: E731


class Box:
    @property
    def size(self):
        return 1

    @classmethod
    def make(cls):
        return cls()
'''


def _synthetic(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run():
        module.called()
        assert module.Box.make().size == 1

    return path, run


def test_checker_names_an_uncalled_def_and_lambda(tmp_path):
    """The decorated ``size`` and ``make`` count as entered: each code
    object starts at its decorator's line, and so does the checker."""
    path, run = _synthetic(tmp_path)
    assert unreached([path], entered_during(run), {}) == (
        ["synthetic.py:5 uncalled", "synthetic.py:9 <lambda>"], [])


def test_checker_fails_an_exemption_a_run_enters(tmp_path):
    path, run = _synthetic(tmp_path)
    exempt = {("synthetic.py", "uncalled"): "", ("synthetic.py", "called"): ""}
    assert unreached([path], entered_during(run), exempt) == (
        ["synthetic.py:9 <lambda>"], ["synthetic.py:1 called"])


def test_decorated_functions_start_at_their_decorator():
    starts = {qualname: line for path in (PACKAGE / "numerics.py",
                                          PACKAGE / "config.py")
              for line, _, qualname in defined(path)}
    assert starts["Tensor.shape"] == (
        nm.Tensor.shape.fget.__code__.co_firstlineno)
    assert starts["_Section.from_dict"] == (
        config._Section.from_dict.__func__.__code__.co_firstlineno)
