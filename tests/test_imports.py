"""No module of ``src/enzydesign`` or ``tests`` imports a name it never
reads. The scan is over the source text: a name counts as read when it
appears anywhere in the module as a variable, which covers the head of
an attribute chain (``nm`` in ``nm.take``), a decorator and an
annotation. ``from __future__ import annotations`` is exempt."""
import ast
from pathlib import Path

import enzydesign

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(enzydesign.__file__).resolve().parent


def unused_imports(path):
    """``file:line name`` of each name the module at ``path`` imports and
    never reads, in source order."""
    tree = ast.parse(path.read_text())
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [f"{path.name}:{line} {name}"
            for line, name in sorted(imported) if name not in read]


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [u for path in paths for u in unused_imports(path)]
    assert unused == [], "imported, never read:\n" + "\n".join(unused)


def test_checker_names_each_unused_name(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "\n"
        "\n"
        "def f(x: np.ndarray):\n"
        "    return parse(x)\n")
    assert unused_imports(path) == ["synthetic.py:2 os",
                                    "synthetic.py:4 dumps"]
