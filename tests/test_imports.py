"""No module imports a name it never reads.

Each module of the package (but `__init__.py`, whose imports are its
re-exports) and each test module is parsed; a name bound by an `import`
statement must be read somewhere in the module.  A name the module never
reads is reported with the module it is in."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "scalc").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.relative_to(ROOT)} imports but never reads: {', '.join(unused)}"


def test_the_scan_sees_an_unused_name_and_a_read_one():
    source = "import os\nimport sys.path\nfrom a import b, c as d\nprint(os.sep, d)\n"
    assert unused_imports(source) == ["sys", "b"]
